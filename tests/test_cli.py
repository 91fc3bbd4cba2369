import json
from pathlib import Path

import pytest

from tandemnet.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EXAMPLE1 = str(CONFIG_DIR / "example1.json")


@pytest.fixture()
def small_config(tmp_path):
    cfg = {
        "M": 4,
        "sources": [
            {"id": 1, "attach": 1, "demands": [4]},
            {"id": 2, "attach": 4, "demands": [1]},
        ],
        "duties": ["1/3", "1/3", "1/3", "1/3"],
        "offsets": [0, 0, 0, 0],
        "field_q": 11,
        "rates": ["4/27", "4/27"],
        "periods": 5,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_construct(small_config, tmp_path, capsys):
    out = tmp_path / "set.txt"
    assert main(["construct", "--config", small_config, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "27 4 3"
    assert lines[1] == "100" * 9


def test_verify_si(small_config, capsys):
    assert main(["verify-si", "--config", small_config]) == 0
    got = capsys.readouterr().out
    assert "shift_invariant=yes" in got
    assert "mode=exhaustive" in got


def test_simulate_ok(small_config, tmp_path):
    out = tmp_path / "sim.txt"
    trace = tmp_path / "trace.csv"
    code = main([
        "simulate", "--config", small_config, "--out", str(out),
        "--trace", str(trace),
    ])
    assert code == 0
    assert "errors=0" in out.read_text()
    assert trace.read_text().startswith("slot,node,action,value")


def test_simulate_without_rates(tmp_path):
    # rates default to zero, so the relays carry empty segments
    cfg = json.loads(Path(EXAMPLE1).read_text())
    del cfg["rates"]
    path = tmp_path / "no-rates.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "sim.txt"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert "errors=0" in out.read_text()


def test_simulate_infeasible_exit(small_config, tmp_path):
    cfg = json.loads(Path(small_config).read_text())
    cfg["rates"] = ["5/27", "4/27"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "sim.txt"
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 1
    assert "infeasible" in out.read_text()


def test_malformed_config_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"M": 2, "sources": []}))
    with pytest.raises(SystemExit) as exc:
        main(["regions", "--config", str(bad)])
    assert exc.value.code == 2


@pytest.mark.parametrize("change, reason", [
    ({"field_q": 6}, "6 is not a prime power"),
    ({"field_q": 5}, "frame length 9 exceeds field order 5"),
    ({"rates": ["1/10", "1/10"]}, "not a whole number"),
    ({"duties": ["4/3", "1/3", "1/3", "1/3"]}, "duty 4/3 lies outside [0, 1]"),
    ({"duties": ["-1/3", "1/3", "1/3", "1/3"]}, "duty -1/3 lies outside [0, 1]"),
])
def test_malformed_field_and_rates_exit_2(tmp_path, capsys, change, reason):
    cfg = json.loads(Path(EXAMPLE1).read_text())
    cfg.update(change)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(bad)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["verify-si"],
    ["identify-sweep", "--node", "2"],
])
def test_oversized_tables_exit_2(tmp_path, capsys, command):
    cfg = {
        "M": 3,
        "sources": [{"id": 1, "attach": 1, "demands": [3]}],
        "duties": ["1/40"] * 3,  # period 64,000
    }
    path = tmp_path / "d40.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        main(command + ["--config", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "95.4 GiB" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command, reason", [
    (["identify-sweep", "--node", "9"], "node 9 lies outside 1..4"),
    (["identify-sweep", "--node", "0", "--samples", "2"], "node 0 lies outside 1..4"),
    (["discover-offset", "--transmitter", "9", "--receiver", "10"],
     "transmitter 9 and receiver 10 must be adjacent in 1..4"),
    (["discover-offset", "--transmitter", "4", "--receiver", "5"],
     "transmitter 4 and receiver 5 must be adjacent in 1..4"),
    (["discover-offset", "--transmitter", "1", "--receiver", "3"],
     "transmitter 1 and receiver 3 must be adjacent in 1..4"),
    (["expansion-check", "--m", "1"], "expansion factor m must be >= 2"),
])
def test_bad_node_arguments_exit_2(capsys, command, reason):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--config", EXAMPLE1])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {reason}\n"


@pytest.mark.parametrize("command, reason", [
    (["symmetric-rates", "--grid-steps", "0"], "--grid-steps must be at least 1, got 0"),
    (["symmetric-rates", "--grid-steps", "-3"], "--grid-steps must be at least 1, got -3"),
    (["boundary", "--resolution", "0"], "resolution must be at least 1, got 0"),
    (["boundary", "--resolution", "-1"], "resolution must be at least 1, got -1"),
    (["expansion-check", "--g", "-1"], "sub-slots per slot g must be at least 1, got -1"),
])
def test_bad_grid_arguments_exit_2(capsys, command, reason):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--config", EXAMPLE1])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {reason}\n"


def test_oversized_duty_grid_exit_2(capsys):
    # capacity fits at this step, slotted does not: nothing may run or print
    with pytest.raises(SystemExit) as exc:
        main(["symmetric-rates", "--config", EXAMPLE1, "--grid-steps", "3000"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the duty-grid DP at step 1/3000 needs about ")
    assert captured.err.count("\n") == 1


def test_oversized_sequence_set_exit_2(tmp_path, capsys):
    cfg = json.loads(Path(EXAMPLE1).read_text())
    del cfg["field_q"], cfg["rates"]
    cfg["duties"] = ["0.3333"] * 4  # d = 10,000, period 10^12
    path = tmp_path / "float.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: a sequence set of period 1000000000000 needs about 2.98e+04 GiB")
    assert captured.err.count("\n") == 1


def test_boundary_unknown_scheme_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["boundary", "--config", EXAMPLE1, "--schemes", "capacity,foo",
              "--resolution", "2", "--grid-steps", "12"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown scheme 'foo'")
    assert captured.err.count("\n") == 1


def test_regions(small_config, capsys):
    assert main(["regions", "--config", small_config]) == 0
    got = capsys.readouterr().out
    assert "achievable=yes" in got and "outer=yes" in got


def test_identify_sweep_sample(small_config, tmp_path):
    out = tmp_path / "id.txt"
    code = main([
        "identify-sweep", "--config", small_config, "--node", "2",
        "--samples", "12", "--out", str(out),
    ])
    assert code == 0
    assert "failures=0" in out.read_text()


def test_discover_offset(small_config, capsys):
    code = main([
        "discover-offset", "--config", small_config,
        "--transmitter", "2", "--receiver", "1",
    ])
    assert code == 0
    assert "match=yes" in capsys.readouterr().out


def test_symmetric_rates_csv(small_config, tmp_path):
    out = tmp_path / "symmetric.csv"
    code = main([
        "symmetric-rates", "--config", small_config, "--out", str(out),
        "--grid-steps", "12",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,rate,witness_params"
    by_scheme = {ln.split(",")[0]: ln for ln in lines[1:]}
    assert by_scheme["capacity"].split(",")[1] == "4/27"
    assert by_scheme["nc-slotted"].split(",")[1] == "4/27"


def test_boundary_csv(small_config, tmp_path):
    out = tmp_path / "boundary.csv"
    code = main([
        "boundary", "--config", small_config, "--out", str(out),
        "--schemes", "capacity", "--resolution", "4", "--grid-steps", "12",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R1,R2,scheme"
    first = lines[1].split(",")
    last = lines[-1].split(",")
    # CSV floats carry 6 significant digits
    assert float(first[0]) == 0.0 and abs(float(first[1]) - 1 / 3) < 1e-6
    assert abs(float(last[0]) - 1 / 3) < 1e-6 and float(last[1]) == 0.0


def test_expansion_check_csv(small_config, tmp_path):
    out = tmp_path / "exp.csv"
    code = main([
        "expansion-check", "--config", small_config, "--out", str(out),
        "--samples", "3",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,link,count,slots"
    assert len(lines) == 1 + 3 * 6  # six directed links per trial


def test_byte_identical_reruns(small_config, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        main([
            "expansion-check", "--config", small_config, "--out", str(out),
            "--samples", "4", "--seed", "42",
        ])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_shipped_example_configs():
    for name in ("example1.json", "example2.json"):
        path = CONFIG_DIR / name
        data = json.loads(path.read_text())
        assert data["M"] in (4, 5)
    assert main(["regions", "--config", EXAMPLE1]) == 0
