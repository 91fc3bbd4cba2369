"""The benchmark's workloads.

Each workload turns the seed into inputs (configs, offsets, messages,
offset pairs), writes any configs into a temporary directory, and returns
the fixed list of operations of one round.  An operation is a call into
tandemnet's public API or its CLI; its check compares the output with a
ground truth the benchmark works out on its own (channel model, link
loads, known optima), and returns the simulated slots and the delivered
information symbols of the operation.  A check that fails raises
``CheckFailed``.

The workloads are chosen so that each module's open optimisation shows
on one workload and is bypassed on another:

* ``session_small``: CLI ``simulate`` on d=3 GF(11) configs; per-call
  overhead, the slot loop and the infeasible path.
* ``session_large``: library ``simulate`` on d=5/d=7 chains over
  GF(32)/GF(256); extension-field decoding.
* ``certify``: shift-invariance certificates, sender identification
  and offset discovery; sequences and uncoded network code, P^3 memory.
* ``regions``: CLI ``symmetric-rates`` and ``boundary`` plus capacity
  grids on ex1 and a 5-node chain; only ``rates`` and ``cli`` do work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from fractions import Fraction


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


class Op:
    """One operation: ``run()`` calls the program, ``check(result)``
    validates the output and returns (slots, symbols)."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


# -- independent model of the tandem network ------------------------------

def chain(M, sources):
    """Config dict for an M-node chain; sources are (attach, demands)."""
    return {
        "M": M,
        "sources": [{"id": j, "attach": a, "demands": sorted(ds)}
                    for j, (a, ds) in enumerate(sources, start=1)],
    }


def ex1():
    """Four nodes, one source at each end sending to the other end."""
    return chain(4, [(1, [4]), (4, [1])]), ["1/3"] * 4


def ex2():
    """Five nodes, two interior sources each sending to both ends;
    the end nodes stay silent."""
    return chain(5, [(2, [1, 5]), (4, [1, 5])]), ["0/3", "1/3", "1/3", "1/3", "0/3"]


def end_to_end_chain(M):
    """Sources at both ends, each demanding every other node, so nearer
    destinations decode from the first periods on."""
    return chain(M, [(1, range(2, M + 1)), (M, range(1, M))])


def _duty(duties, i):
    return Fraction(duties[i - 1]) if 1 <= i <= len(duties) else Fraction(0)


def link_survivors(duties, P, tx, rx):
    """Clean packets per period on link tx->rx: tx sends while neither
    rx nor the node beyond rx does (offset-free by shift invariance)."""
    step = rx - tx
    return P * _duty(duties, tx) * (1 - _duty(duties, rx)) * (1 - _duty(duties, rx + step))


def link_dimension(cfg, rates, P, tx, rx):
    """Symbols rx must solve for in tx's frame: every source attached at
    tx plus the relays tx forwards towards rx."""
    step = rx - tx
    dim = Fraction(0)
    for s, r in zip(cfg["sources"], rates):
        a, ds = s["attach"], s["demands"]
        relayed = (a - tx) * step < 0 and any((d - tx) * step > 0 for d in ds)
        if a == tx or relayed:
            dim += Fraction(r) * P
    return dim


def deliveries(cfg, periods):
    """(source, dest, source period) triples a destination can decode
    within the horizon: a segment advances one hop per two periods."""
    out = []
    for j, s in enumerate(cfg["sources"], start=1):
        for dest in s["demands"]:
            if dest == s["attach"]:
                continue
            hops = abs(dest - s["attach"])
            out += [(j, dest, t) for t in range(max(periods - 2 * (hops - 1), 0))]
    return out


def activity(bits, taus, node, start):
    """One period of node's channel observation from global slot
    ``start`` and the true sender (-1 left, +1 right) of each clean
    reception.  ``bits[i]`` is node i+1's sequence."""
    P = len(bits[0])
    M = len(bits)

    def on(i, g):
        return 1 <= i <= M and bits[i - 1][(g - taus[i - 1]) % P] == 1

    symbols, senders = [], {}
    for k in range(P):
        g = start + k
        if on(node, g):
            symbols.append("Δ")
            continue
        left, right = on(node - 1, g), on(node + 1, g)
        if left and right:
            symbols.append("*")
        elif left or right:
            symbols.append("1")
            senders[k] = -1 if left else +1
        else:
            symbols.append("0")
    return tuple(symbols), senders


# -- helpers --------------------------------------------------------------

def run_cli(tn, argv):
    """Run the CLI in this process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = tn.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def write_config(tmp, name, cfg):
    path = os.path.join(tmp, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def offsets(rng, M, P):
    return [int(x) for x in rng.integers(0, P, size=M)]


# -- session_small --------------------------------------------------------

SMALL_PERIODS = 3
SMALL_P = 27
INFEASIBLE = re.compile(
    r"infeasible: link (\d+)->(\d+), period (\d+): (\d+) survivors < dimension (\d+)")


def session_small(tn, rng, tmp):
    """143 CLI sessions: 100 on ex1 and 30 on ex2 at the capacity rate
    4/27, and 13 (about one in ten) with one source at the over-capacity
    rate 5/27.  The over-capacity runs stop early and are the cheapest;
    the round's median operation then lies near the middle of the ex1
    sessions, and its tail (the 11th slowest) near the middle of the ex2
    sessions, so the seed's offsets barely move either."""
    kinds = ([("ex1", None)] * 100 + [("ex2", None)] * 30
             + [(topo, over) for topo in ("ex1", "ex2") for over in (0, 1)] * 3
             + [("ex1", 0)])
    ops = []
    for n, (topo, over) in enumerate(kinds):
        spec, duties = ex1() if topo == "ex1" else ex2()
        rates = ["4/27", "4/27"]
        if over is not None:
            rates[over] = "5/27"
        cfg = dict(spec, duties=duties, offsets=offsets(rng, spec["M"], SMALL_P),
                   field_q=11, rates=rates, periods=SMALL_PERIODS)
        path = write_config(tmp, f"small{n:02d}", cfg)
        argv = ["simulate", "--config", path, "--periods", str(SMALL_PERIODS),
                "--seed", str(int(rng.integers(0, 2**31)))]
        kind = f"{topo}-over" if over is not None else topo
        check = _small_infeasible_check(cfg) if over is not None else _small_check(cfg)
        ops.append(Op(kind, lambda argv=argv: run_cli(tn, argv), check))
    return ops


def _small_check(cfg):
    expected = deliveries(cfg, SMALL_PERIODS)
    width = int(Fraction(cfg["rates"][0]) * SMALL_P)

    def check(result):
        code, out = result
        lines = out.splitlines()
        expect(code == 0, f"exit {code}")
        expect("errors=0" in lines, "errors != 0")
        got = [ln for ln in lines if ln.startswith("source=")]
        expect(len(got) == len(expected),
               f"{len(got)} decoded segments, expected {len(expected)}")
        symbols = 0
        for ln in got:
            values = [int(v) for v in ln.split("symbols=")[1].split()]
            expect(len(values) == width and all(0 <= v < 11 for v in values),
                   f"bad segment {ln!r}")
            symbols += len(values)
        return max(cfg["offsets"]) + SMALL_PERIODS * SMALL_P, symbols

    return check


def _small_infeasible_check(cfg):
    def check(result):
        code, out = result
        expect(code == 1, f"exit {code}, expected 1")
        m = INFEASIBLE.search(out)
        expect(m is not None, "no infeasible: line")
        tx, rx, period, survivors, needed = map(int, m.groups())
        expect(abs(tx - rx) == 1, f"link {tx}->{rx} is not a link")
        cap = link_survivors(cfg["duties"], SMALL_P, tx, rx)
        dim = link_dimension(cfg, cfg["rates"], SMALL_P, tx, rx)
        expect(survivors == cap, f"{survivors} survivors, model says {cap}")
        expect(needed == dim, f"dimension {needed}, model says {dim}")
        expect(survivors < needed, "reported link is not over capacity")
        return cfg["offsets"][tx - 1] + (period + 1) * SMALL_P, 0

    return check


# -- session_large --------------------------------------------------------

# (d, M, field order, rate numerator over d^3, periods).  (d-1)^2/d^3 is
# the symmetric capacity: the saturated links have zero decode margin.
# The lower rate leaves surplus survivors for the consistency check.  An
# odd number of sessions keeps the median on one of them.
LARGE_SESSIONS = (
    (5, 4, 32, 16, 3),
    (5, 6, 32, 12, 3),
    (7, 4, 256, 36, 1),
)


def session_large(tn, rng, tmp):
    """Three long library sessions in extension fields."""
    ops = []
    for d, M, q, num, periods in LARGE_SESSIONS:
        P = d ** 3
        cfg = end_to_end_chain(M)
        spec = tn.network.NetworkSpec.from_dict(cfg)
        sset = tn.sequences.construct_sequences([tn.sequences.DutyFactor(1, d)] * M)
        fld = tn.gf.Field(q)
        rate = Fraction(num, P)
        taus = offsets(rng, M, P)
        messages = {
            j: {t: tuple(int(v) for v in rng.integers(0, q, size=num))
                for t in range(periods)}
            for j in (1, 2)
        }

        def run(spec=spec, sset=sset, taus=taus, rate=rate, fld=fld,
                periods=periods, messages=messages):
            return tn.network.simulate(spec, sset, taus, [rate, rate], fld,
                                       periods, messages=messages)

        ops.append(Op(f"d{d}-M{M}-q{q}", run,
                      _large_check(cfg, messages, taus, P, periods)))
    return ops


def _large_check(cfg, messages, taus, P, periods):
    expected = deliveries(cfg, periods)

    def check(res):
        expect(res.ok, f"infeasible: {res.failure}")
        expect(res.error_count() == 0, f"{res.error_count()} decode errors")
        symbols = 0
        for j, dest, t in expected:
            got = res.decoded.get((j, dest), {}).get(t)
            expect(got == messages[j][t], f"source {j} period {t} at node {dest}")
            symbols += len(got)
        return max(taus) + periods * P, symbols

    return check


# -- certify --------------------------------------------------------------

def certify(tn, rng, tmp):
    """Per round, always in this order: 17 exhaustive SI certificates
    (one d=6 M=3, sixteen d=5 M=3), 18 sender identifications (8 at d=4,
    10 at d=5) and 48 offset discoveries (8 at d=3, 40 at d=4).  The
    fixed order gives the allocator the same sequence of P^3 tables, so
    the peak RSS repeats from seed to seed.  The round's median lies
    among the 50 d=4 discoveries and d=5 identifications of similar
    cost, near their middle, and its tail (the 11th slowest) near the
    middle of the d=5 certificates, so the seed's draws barely move
    either."""
    seq = tn.sequences
    ops = []

    def duties(d, M):
        return [seq.DutyFactor(int(n), d) for n in rng.integers(1, d, size=M)]

    def si_check(report):
        expect(report.invariant, f"not invariant: {report.witness}")
        expect(report.exhaustive, "not exhaustive")
        return 0, 0

    for d, M in [(6, 3)] + [(5, 3)] * 16:
        sset = seq.construct_sequences(duties(d, M))
        ops.append(Op(f"si-d{d}", lambda sset=sset:
                      tn.sequences.is_consecutively_3wise_shift_invariant(sset),
                      si_check))

    for d in [4] * 8 + [5] * 10:
        sset = seq.construct_sequences(duties(d, 3))
        taus = offsets(rng, 3, d ** 3)
        symbols, senders = activity([s.bits for s in sset], taus, 2, taus[1])
        signal = tn.network.ChannelActivitySignal(symbols)

        def identify(sset=sset, signal=signal, tau=taus[1]):
            return tn.network.identify_senders(signal, sset[2], tau, sset[1],
                                               sset[3], start=tau)

        def id_check(labels, senders=senders):
            expect(labels == senders, "sender labels differ from the truth")
            return 0, 0

        ops.append(Op(f"identify-d{d}", identify, id_check))

    links = [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)]
    for d in [3] * 8 + [4] * 40:
        sset = seq.construct_sequences([seq.DutyFactor(1, d)] * 4)
        taus = offsets(rng, 4, d ** 3)
        tx, rx = links[int(rng.integers(len(links)))]

        def discover(sset=sset, taus=taus, tx=tx, rx=rx):
            return tn.network.discover_offset(sset, taus, tx, rx)

        def disc_check(tau, truth=taus[tx - 1]):
            expect(tau == truth, f"recovered offset {tau}, true {truth}")
            return 0, 0

        ops.append(Op(f"discover-d{d}", discover, disc_check))
    return ops


# -- regions --------------------------------------------------------------

# True optima of ex2's symmetric rate (max over duties or intensities of
# the common rate) and how far below them a grid or descent result may
# lie.  Capacity and outer (3-2*sqrt(2) at f2=f4=sqrt(2)-1) and
# nc-slotted (1-sqrt(3)/2 at f3=2-sqrt(3)) are closed forms; slotted and
# pure were found by Nelder-Mead from 100-200 random starts on the same
# objectives.  The default 1/60 grid finds 49/288, so a capacity result
# need only lie in [49/288, 3-2*sqrt(2)].  A result above an optimum is
# wrong; the upper side allows only the rounding of the CLI's 6-digit
# output.
CAP_EX2 = 3 - 2 * math.sqrt(2)
EX2_SYMMETRIC_OPTIMA = {
    "capacity": (CAP_EX2, CAP_EX2 - 49 / 288),
    "outer": (CAP_EX2, CAP_EX2 - 49 / 288),
    "pure": (0.07505332, 0.002),
    "slotted": (1 / 9, 0.002),
    "nc-slotted": (1 - math.sqrt(3) / 2, 0.002),
}
BOUNDARY_RES = 4
# ex1 and the 5-node end-source chain: 4/27 at uniform duty 1/3
CHAIN_CAPACITY = Fraction(4, 27)


def regions(tn, rng, tmp):
    """Per round: CLI symmetric rates (all five schemes, default grid) on
    ex2; CLI boundaries at grid 1/30 and resolution 4, capacity on ex1
    and capacity plus slotted on ex2; library capacity grids
    on ex1 and on a 5-node all-active chain (step 1/30).  ex1's CLI
    symmetric rates are left out: their pure-ALOHA descent alone takes
    7-16 s, longer than the other operations together, so a run would
    hold a single round.  The ex2 boundary runs nine times, spread
    between the other operations: the round's median operation is then
    one of ten boundaries of similar cost, sampled all through the
    round, not one short operation timed once per round."""
    paths = {}
    for topo, make in (("ex1", ex1), ("ex2", ex2)):
        spec, duties = make()
        cfg = dict(spec, duties=duties, offsets=offsets(rng, spec["M"], 27),
                   field_q=11, rates=["4/27", "4/27"])
        paths[topo] = write_config(tmp, f"regions-{topo}", cfg)
    # The CLI seed picks pure ALOHA's restart points, and with them how
    # long the descent runs (3-7 s on ex2 across seeds), so it stays
    # fixed: a run's cost must not depend on the benchmark seed.
    sym = ["symmetric-rates", "--config", paths["ex2"], "--include-outer", "--seed", "0"]

    def boundary(topo, schemes):
        argv = ["boundary", "--config", paths[topo], "--schemes", ",".join(schemes),
                "--resolution", str(BOUNDARY_RES), "--grid-steps", "30"]
        return Op(f"boundary-{topo}", lambda: run_cli(tn, argv), _boundary_check(schemes))

    def capacity(name, cfg, step):
        spec = tn.network.NetworkSpec.from_dict(cfg)
        return Op(name, lambda: tn.rates.max_symmetric_rate(spec, "capacity",
                                                            grid_step=step),
                  _capacity_check(cfg))

    boundary_ex2 = boundary("ex2", ["capacity", "slotted"])
    others = [
        Op("symmetric-ex2", lambda: run_cli(tn, sym), _symmetric_check),
        capacity("capacity-5node", end_to_end_chain(5), Fraction(1, 30)),
        capacity("capacity-ex1", ex1()[0], Fraction(1, 30)),
        boundary("ex1", ["capacity"]),
    ]
    ops = []
    for op in others:
        ops += [boundary_ex2, boundary_ex2, op]
    return ops + [boundary_ex2]


def _symmetric_check(result):
    code, out = result
    expect(code == 0, f"exit {code}")
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    got = {r[0]: float(Fraction(r[1])) for r in rows}
    expect(set(got) == set(EX2_SYMMETRIC_OPTIMA), f"schemes {sorted(got)}")
    for scheme, (opt, tol) in EX2_SYMMETRIC_OPTIMA.items():
        expect(opt - tol - 1e-9 <= got[scheme] <= opt + 1e-6,
               f"{scheme} rate {got[scheme]} not within {tol} below {opt}")
    # network coding at the relays never loses to plain slotted ALOHA,
    # and no random-access scheme beats the deterministic capacity
    expect(got["slotted"] <= got["nc-slotted"] + 1e-9, "nc-slotted < slotted")
    expect(got["nc-slotted"] <= got["capacity"] + 1e-9, "nc-slotted > capacity")
    expect(got["pure"] < got["slotted"], "pure >= slotted")
    return 0, 0


def _boundary_check(schemes):
    def check(result):
        code, out = result
        expect(code == 0, f"exit {code}")
        pts = {}
        for ln in out.splitlines()[1:]:
            r1, r2, scheme = ln.split(",")
            pts.setdefault(scheme, []).append((float(r1), float(r2)))
        expect(sorted(pts) == sorted(schemes), f"schemes {sorted(pts)}")
        for scheme, line in pts.items():
            expect(len(line) == BOUNDARY_RES + 1, f"{scheme}: {len(line)} points")
            r1_max = line[-1][0]
            for k, (r1, r2) in enumerate(line):
                expect(abs(r1 - r1_max * k / BOUNDARY_RES) < 1e-5,
                       f"{scheme}: R1 not evenly spaced")
                expect(r2 >= 0, f"{scheme}: negative R2")
            expect(all(a[1] >= b[1] for a, b in zip(line, line[1:])),
                   f"{scheme}: R2 increases with R1")
            expect(line[-1][1] < 1e-6, f"{scheme}: R2 > 0 at the largest R1")
        # with one source silent, the other's capacity is 1/3 on ex1 and ex2
        cap = pts["capacity"]
        expect(abs(cap[0][1] - 1 / 3) < 1e-5 and abs(cap[-1][0] - 1 / 3) < 1e-5,
               f"capacity endpoints {cap[0]}, {cap[-1]}")
        return 0, 0

    return check


def _capacity_check(cfg):
    M = cfg["M"]
    loads = {(tx, rx): link_dimension(cfg, [1, 1], 1, tx, rx)
             for tx in range(1, M + 1) for rx in (tx - 1, tx + 1) if 1 <= rx <= M}

    def check(res):
        expect(res.rate_exact == CHAIN_CAPACITY,
               f"rate {res.rate_exact}, optimum {CHAIN_CAPACITY}")
        # the witness must attain the rate: recompute every loaded link
        f = [str(p) for p in res.params]
        worst = min(link_survivors(f, 1, tx, rx) / n
                    for (tx, rx), n in loads.items() if n)
        expect(worst == res.rate_exact, f"witness attains {worst}, not {res.rate_exact}")
        return 0, 0

    return check


WORKLOADS = {
    "session_small": session_small,
    "session_large": session_large,
    "certify": certify,
    "regions": regions,
}
