"""tandemnet benchmark: one workload per process, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports ``tandemnet`` from
``src/`` and exits 2 if that is missing.  The seed generates every input
(configs, offsets, messages, offset pairs).  A round is the workload's
fixed list of operations; rounds repeat, one operation in flight, until
another round would end after ``--seconds``.  Every operation's output is
checked, and a failed check counts the operation as failed.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
reference host speed by a probe loop run every 20 ms from a timer (see
``speed.py``); the raw round time and the host's speed are printed in
the ``env`` line.

* ``setup_s``: the median import time of numpy and tandemnet over this
  process and a few child interpreters that only import, plus the median
  of several repetitions of input generation, config writing and
  sequence/field construction;
* ``wall_s``: time of one round's operations, as the central mean over
  rounds (the mean of the middle half, see ``central_mean``);
* ``ops_per_s``;
* ``op_p50_ms`` and ``op_tail_ms``: each operation of the round gets the
  central mean of its times over all rounds; ``op_p50_ms`` is the median
  of these, and ``op_tail_ms`` their highest percentile with at least 10
  operations beyond it (the slowest operation in rounds of fewer than
  22), printed with its percentile and the operations per round;
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

It also prints ``failed_ops_ratio`` and, on the session workloads,
``slots_per_s`` and ``symbols_per_s``; these are not in the JSON result
because that may hold only metrics that are never zero on any workload.

``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics of the traced rounds (see ``PER_LAYER``): counts per
round, which must repeat exactly in every round, and seconds per round.
``<x>_self_s`` is time inside x minus its traced children; other ``_s``
metrics include children.  Per-layer times are as measured, not scaled:
the probe timer is off in traced rounds.  The layers' self times plus
``bench.self_s`` add up to ``trace.wall_s``; ``trace.overhead_s`` is the
traced minus the untraced round time, both as measured.  Spans are written to
``.bench_out/spans-<workload>-<seed>.jsonl``.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import Sampler
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# per-layer metric -> unit; values come from layer_metrics()
PER_LAYER = {
    "gf.calls": "count", "gf.self_s": "s",
    "coding.encode_calls": "count", "coding.encode_s": "s",
    "coding.decode_calls": "count", "coding.decode_s": "s",
    "coding.decode_insufficient": "count", "coding.survivors": "count",
    "coding.dim": "count", "coding.useful_ratio": "ratio", "coding.self_s": "s",
    "network.simulate_calls": "count", "network.simulate_self_s": "s",
    "network.slots": "count", "network.trace_rows": "count",
    "network.identify_calls": "count", "network.identify_s": "s",
    "network.discover_calls": "count", "network.discover_self_s": "s",
    "network.parse_config_s": "s", "network.self_s": "s",
    "sequences.construct_calls": "count", "sequences.construct_s": "s",
    "sequences.si_calls": "count", "sequences.si_s": "s", "sequences.self_s": "s",
    "rates.symmetric_calls": "count", "rates.symmetric_s": "s",
    "rates.boundary_calls": "count", "rates.boundary_s": "s",
    "rates.rate2_calls": "count", "rates.rate2_s": "s", "rates.self_s": "s",
    "cli.calls": "count", "cli.self_s": "s",
    "bench.self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
}

SPAN = {
    "encode": "coding.nested_encode", "decode": "coding.nested_decode",
    "simulate": "network.simulate", "identify": "network.identify_senders",
    "discover": "network.discover_offset", "parse": "network.parse_config",
    "construct": "sequences.construct_sequences",
    "si": "sequences.is_consecutively_3wise_shift_invariant",
    "symmetric": "rates.max_symmetric_rate", "boundary": "rates.region_boundary",
    "rate2": "rates.max_rate2_given_rate1", "cli": "cli.main",
}


IMPORT_PROBE = """
import statistics, sys, time
sys.path.insert(0, sys.argv[2])
from speed import REF_PROBE_S, probe
for _ in range(20):
    probe()
probes = [probe() for _ in range(10)]
t = time.perf_counter()
import numpy
sys.path.insert(0, sys.argv[1])
import tandemnet, tandemnet.cli
seconds = time.perf_counter() - t
probes += [probe() for _ in range(10)]
print(seconds * REF_PROBE_S / statistics.median(probes))
"""


def import_times(reps):
    """Import time of numpy and tandemnet in fresh interpreters, each
    waited for before the next starts, at the reference speed of probes
    run in the same interpreter just before and after the import."""
    out = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"),
                               str(Path(__file__).resolve().parent)],
                              capture_output=True, text=True, check=True, timeout=60)
        out.append(float(proc.stdout))
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_tandemnet():
    src = ROOT / "src"
    if not (src / "tandemnet" / "__init__.py").is_file():
        print(f"error: no tandemnet sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import tandemnet
    import tandemnet.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(tandemnet.__file__).resolve().parent != (src / "tandemnet").resolve():
        print(f"error: imported tandemnet from {tandemnet.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return tandemnet


class Round:
    def __init__(self, traced):
        self.traced = traced
        self.timings = []  # (start, end, seconds) of each operation
        self.times = []  # seconds at the reference speed, see speed.py
        self.failed = 0
        self.slots = 0
        self.symbols = 0
        self.layer = None  # (counts, total_s, self_s) of a traced round
        self.spans = []

    @property
    def wall(self):
        return sum(self.times)

    @property
    def raw_wall(self):
        return sum(t[2] for t in self.timings)


def run_round(tn, ops, traced, failures, sampler):
    rnd = Round(traced)
    tr = Tracer() if traced else None
    if tr:
        # no probes inside traced spans: they would count as the self
        # time of whatever layer they interrupt
        sampler.disarm()
        tr.install(tn)
    try:
        for op in ops:
            frame = tr.enter("bench.op") if tr else None
            result, error, timing = sampler.time(op.run)
            if tr:
                tr.exit(frame)
            rnd.timings.append(timing)
            if error is None:
                try:
                    slots, symbols = op.check(result)
                    rnd.slots += slots
                    rnd.symbols += symbols
                except Exception as exc:  # CheckFailed, or output that does not parse
                    error = exc
            if error is not None:
                rnd.failed += 1
                failures.append(f"{op.kind}: {type(error).__name__}: {error}")
    finally:
        if tr:
            tr.uninstall()
            sampler.arm()
    if tr:
        rnd.layer = tr.snapshot()
        rnd.spans = tr.spans
    return rnd


def central_mean(values):
    """Mean of the middle half of the values (of all of them when there
    are fewer than four).  It moves smoothly with the values, where a
    median jumps between neighbours, and a rare stall does not move it."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def op_times(rounds):
    """Each operation's central mean time over the rounds, fastest first."""
    return sorted(central_mean([r.times[i] for r in rounds])
                  for i in range(len(rounds[0].times)))


def tail(times):
    """op_tail: (value, percentile, operations per round).

    The highest percentile of the operations' times (from ``op_times``)
    with at least 10 operations beyond it, or the slowest operation if a
    round holds fewer than 22.  Every round holds the same operations, so
    the percentile cannot move from one kind of operation to another
    between runs, and a burst of machine noise that slows some
    operations in a few rounds hardly moves their times."""
    n = len(times)
    rank = n - 11 if n >= 22 else n - 1
    return times[rank], 100.0 * (rank + 1) / n, n


def layer_metrics(rnd):
    counts, total, self_s = rnd.layer

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    survivors, dim = counts.get("coding.survivors", 0), counts.get("coding.dim", 0)
    m = {
        "gf.calls": sum(v for k, v in counts.items() if k.startswith("gf.")),
        "gf.self_s": layer_self("gf"),
        "coding.encode_calls": counts.get(SPAN["encode"], 0),
        "coding.encode_s": total.get(SPAN["encode"], 0.0),
        "coding.decode_calls": counts.get(SPAN["decode"], 0),
        "coding.decode_s": total.get(SPAN["decode"], 0.0),
        "coding.decode_insufficient":
            counts.get(SPAN["decode"] + ".InsufficientDataError", 0),
        "coding.survivors": survivors,
        "coding.dim": dim,
        "coding.useful_ratio": dim / survivors if survivors else 0.0,
        "coding.self_s": layer_self("coding"),
        "network.simulate_calls": counts.get(SPAN["simulate"], 0),
        "network.simulate_self_s": self_s.get(SPAN["simulate"], 0.0),
        "network.slots": counts.get("network.slots", 0),
        "network.trace_rows": counts.get("network.trace_rows", 0),
        "network.identify_calls": counts.get(SPAN["identify"], 0),
        "network.identify_s": total.get(SPAN["identify"], 0.0),
        "network.discover_calls": counts.get(SPAN["discover"], 0),
        "network.discover_self_s": self_s.get(SPAN["discover"], 0.0),
        "network.parse_config_s": total.get(SPAN["parse"], 0.0),
        "network.self_s": layer_self("network"),
        "sequences.construct_calls": counts.get(SPAN["construct"], 0),
        "sequences.construct_s": total.get(SPAN["construct"], 0.0),
        "sequences.si_calls": counts.get(SPAN["si"], 0),
        "sequences.si_s": total.get(SPAN["si"], 0.0),
        "sequences.self_s": layer_self("sequences"),
        "rates.symmetric_calls": counts.get(SPAN["symmetric"], 0),
        "rates.symmetric_s": total.get(SPAN["symmetric"], 0.0),
        "rates.boundary_calls": counts.get(SPAN["boundary"], 0),
        "rates.boundary_s": total.get(SPAN["boundary"], 0.0),
        "rates.rate2_calls": counts.get(SPAN["rate2"], 0),
        "rates.rate2_s": total.get(SPAN["rate2"], 0.0),
        "rates.self_s": layer_self("rates"),
        "cli.calls": counts.get(SPAN["cli"], 0),
        "cli.self_s": layer_self("cli"),
        "bench.self_s": layer_self("bench"),
        "trace.wall_s": rnd.raw_wall,
    }
    return m


def per_layer(rounds, failures):
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    per_round = [layer_metrics(r) for r in traced]
    result = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = (central_mean([r.raw_wall for r in traced])
                     - central_mean([r.raw_wall for r in untraced]))
        elif unit == "count":
            values = {m[name] for m in per_round}
            if len(values) != 1:
                failures.append(f"{name} differs between traced rounds: {sorted(values)}")
            value = per_round[0][name]
        else:
            value = statistics.fmean(m[name] for m in per_round)
        result[name] = {"value": value, "unit": unit}
    return result


def end_to_end(rounds, setup_s):
    times = [t for r in rounds for t in r.times]
    busy = sum(times)
    per_op = op_times(rounds)
    value, pct, n = tail(per_op)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (central_mean([r.wall for r in rounds]), "s"),
        "ops_per_s": (len(times) / busy, "1/s"),
        "op_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "op_tail_ms": (1000 * value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "op_tail_percentile": pct,
        "ops_per_round": n,
        "op_samples": len(times),
        "slots_per_s": sum(r.slots for r in rounds) / busy,
        "symbols_per_s": sum(r.symbols for r in rounds) / busy,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra


def main(argv=None):
    args = parse_args(argv)
    # pin native thread pools before numpy loads them: one operation in
    # flight, no worker threads
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = "1"

    t0 = perf_counter()
    import numpy as np

    tn = import_tandemnet()
    import_s = perf_counter() - t0

    make = WORKLOADS[args.workload]
    sampler = Sampler()

    OUT_DIR.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        sampler.arm()
        setup_start = perf_counter()
        setup_timings = []
        for rep in range(SETUP_REPS):
            tmp = os.path.join(tmp_root, str(rep))

            def setup(tmp=tmp):
                os.mkdir(tmp)
                return make(tn, np.random.default_rng(args.seed), tmp)

            ops, error, timing = sampler.time(setup)
            if error is not None:
                raise error
            setup_timings.append(timing)
        imports = import_times(SETUP_REPS - 1)
        imports.append(sampler.scaled((setup_start, setup_start, import_s)))
        inputs = [sampler.scaled(t) for t in setup_timings]
        setup_s = statistics.median(imports) + statistics.median(inputs)

        failures = []
        rounds = []
        start = perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            t = perf_counter()
            rounds.append(run_round(tn, ops, traced, failures, sampler))
            last = perf_counter() - t
            both = not args.trace or any(r.traced for r in rounds)
            if both and perf_counter() - start + last > args.seconds:
                break
        sampler.stop()
        for r in rounds:
            if not r.traced:
                r.times = [sampler.scaled(t) for t in r.timings]
    finally:
        sampler.stop()
        shutil.rmtree(tmp_root, ignore_errors=True)

    attempted = sum(len(r.timings) for r in rounds)
    failed = sum(r.failed for r in rounds)
    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)

    untraced = [r for r in rounds if not r.traced]
    e2e, extra = end_to_end(untraced, setup_s)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(untraced), "nproc": nproc,
        "blas_threads": int(os.environ[THREAD_VARS[0]]),
        "python": platform.python_version(), "numpy": np.__version__,
        "failed_ops_ratio": failed / attempted,
        "setup_import_s": statistics.median(imports),
        "setup_inputs_s": statistics.median(inputs),
        # the host's own figures, before scaling to the reference speed
        "raw_wall_s": central_mean([r.raw_wall for r in untraced]),
        "host_speed": (central_mean([r.wall for r in untraced])
                       / central_mean([r.raw_wall for r in untraced])),
        **extra,
    }
    if args.trace:
        metrics = per_layer(rounds, failures)
        traced = [r for r in rounds if r.traced]
        env["traced_rounds"] = len(traced)
        # every span nests in a bench.op span, so the self times of all
        # layers add up to the traced operations' time
        env["trace_accounted_s"] = statistics.fmean(
            sum(r.layer[2].values()) for r in traced)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for i, r in enumerate(rounds):
                for span_id, name, s, e, parent in r.spans:
                    fh.write(json.dumps({"round": i, "id": span_id, "name": name,
                                         "start": s, "end": e, "parent": parent}))
                    fh.write("\n")
        env["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = e2e

    for name, m in (e2e | metrics).items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{extra['op_tail_percentile']:.4g} of each "
                    f"{extra['ops_per_round']}-op round, per-op central means of "
                    f"{len(untraced)} rounds; {extra['op_samples']} ops)")
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(f"failed_ops_ratio {env['failed_ops_ratio']:.6g} ratio")
    if args.workload.startswith("session"):
        print(f"slots_per_s {extra['slots_per_s']:.6g} 1/s")
        print(f"symbols_per_s {extra['symbols_per_s']:.6g} 1/s")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
