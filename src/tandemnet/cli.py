"""Command-line experiment driver.

Every subcommand reads a JSON experiment config (see
``tandemnet.network.CONFIG_SCHEMA``) and writes deterministic text or
CSV output: the same config, seed, and options always produce
byte-identical files.  Floats are printed with 6 significant digits;
exact rationals as "p/q".
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from . import sequences
from .gf import field
from .network import (
    DiscoveryFailedError,
    NetworkError,
    activity_signal,
    discover_offset,
    identify_senders,
    load_config,
    simulate,
    simulate_subslot,
)
from .rates import (
    SCHEMES,
    achievable_point,
    aloha_region_point,
    check_symmetric_grid,
    max_symmetric_rate,
    outer_point,
    region_boundary,
)
from .sequences import (
    expand_set,
    is_consecutively_3wise_shift_invariant,
    require_table_bytes,
)


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


@contextmanager
def _usage_error(*errors):
    """Exit 2 with a one-line message when a malformed input raises one
    of ``errors``."""
    try:
        yield
    except errors as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _load(args):
    with _usage_error(NetworkError):
        return load_config(args.config)


@contextmanager
def _out(args):
    if args.out and args.out != "-":
        with open(args.out, "w", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def cmd_construct(args):
    cfg = _load(args)
    sset = cfg.sequence_set()
    with _out(args) as fh:
        fh.write(sequences.dumps(sset))
    return 0


def cmd_verify_si(args):
    cfg = _load(args)
    sset = cfg.sequence_set()
    with _usage_error(ValueError):
        report = is_consecutively_3wise_shift_invariant(sset)
    with _out(args) as fh:
        fh.write(f"# seed={args.seed}\n")
        fh.write(f"shift_invariant={'yes' if report.invariant else 'no'} mode=exhaustive\n")
        if report.witness is not None:
            fh.write(f"witness={report.witness}\n")
    return 0 if report.invariant else 1


def cmd_simulate(args):
    cfg = _load(args)
    sset = cfg.sequence_set()
    periods = args.periods or cfg.periods
    result = simulate(
        cfg.spec, sset, cfg.offsets, cfg.rates,
        field(cfg.field_order()), periods, seed=args.seed,
    )
    if args.trace:
        result.trace.export_csv(args.trace)
    with _out(args) as fh:
        fh.write(f"# seed={args.seed} periods={periods} q={cfg.field_order()}\n")
        if not result.ok:
            fh.write(f"infeasible: {result.failure}\n")
            fh.write(f"offsets={','.join(map(str, result.trace.offsets))}\n")
            return 1
        fh.write(f"errors={result.error_count()}\n")
        for (j, dest), msgs in sorted(result.decoded.items()):
            for t in result.decodable_periods(j, dest):
                syms = " ".join(str(v) for v in msgs.get(t, ()))
                fh.write(f"source={j} dest={dest} period={t} symbols={syms}\n")
    return 0


def cmd_identify_sweep(args):
    """For every pair of neighbor offsets, check that the sender labels
    recovered from one period of channel activity are correct."""
    cfg = _load(args)
    sset = cfg.sequence_set()
    P = sset.period
    node = args.node
    with _usage_error(ValueError):
        # refuse before the sweep's pairs are built, not at its first identification
        require_table_bytes(25 * P * P, f"sender identification at period {P}")
        activity_signal(sset, cfg.offsets, node)  # a node outside 1..M raises
    pairs = _offset_pairs(P, args.samples, np.random.default_rng(args.seed))
    failures = [(tl, tr, bad) for tl, tr in pairs
                if (bad := _sweep_errors(sset, cfg.offsets, node, tl, tr))]
    with _out(args) as fh:
        fh.write(f"# seed={args.seed} node={node} pairs={len(pairs)}\n")
        for tl, tr, bad in failures:
            fh.write(f"tl={tl} tr={tr} wrong={bad}\n")
        fh.write(f"checked={len(pairs)} failures={len(failures)}\n")
    return 0 if not failures else 1


def _offset_pairs(P, samples, rng):
    if samples and samples < P * P:
        seen = set()
        while len(seen) < samples:
            seen.add((int(rng.integers(P)), int(rng.integers(P))))
        return sorted(seen)
    return [(a, b) for a in range(P) for b in range(P)]


def _sweep_errors(sset, offsets, node, tl, tr):
    """Slots, in one period from the node's own offset, whose recovered
    sender is wrong when the left and right neighbors sit at tl and tr."""
    P = sset.period
    offsets = list(offsets)
    for nb, tau in ((node - 1, tl), (node + 1, tr)):
        if sset.in_range(nb):
            offsets[nb - 1] = tau
    start = offsets[node - 1] % P
    labels = identify_senders(
        activity_signal(sset, offsets, node, start=start), sset[node], start,
        sset[node - 1] if sset.in_range(node - 1) else None,
        sset[node + 1] if sset.in_range(node + 1) else None,
        start=start,
    )
    # a label only ever names a neighbor on the line
    return [int(k) for k, side in labels.items()
            if sset[node + side].bits[(start + k - offsets[node + side - 1]) % P] != 1]


def cmd_discover_offset(args):
    cfg = _load(args)
    sset = cfg.sequence_set()
    try:
        with _usage_error(ValueError):
            tau = discover_offset(
                sset, cfg.offsets, args.transmitter, args.receiver,
                extra_periods=args.extra_periods,
            )
    except DiscoveryFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    truth = cfg.offsets[args.transmitter - 1] % sset.period
    with _out(args) as fh:
        fh.write(f"recovered={tau} true={truth} match={'yes' if tau == truth else 'no'}\n")
    return 0 if tau == truth else 1


def cmd_regions(args):
    """Membership of the configured rate vector in each region."""
    cfg = _load(args)
    f = [d.value for d in cfg.duties]
    R = cfg.rates
    with _out(args) as fh:
        fh.write(f"achievable={'yes' if achievable_point(cfg.spec, f, R) else 'no'}\n")
        fh.write(f"outer={'yes' if outer_point(cfg.spec, f, R) else 'no'}\n")
    return 0


def _grid_step(args) -> Fraction:
    with _usage_error(ValueError):
        if args.grid_steps < 1:
            raise ValueError(f"--grid-steps must be at least 1, got {args.grid_steps}")
    return Fraction(1, args.grid_steps)


def cmd_symmetric_rates(args):
    cfg = _load(args)
    grid_step = _grid_step(args)
    schemes = [s for s in SCHEMES if s != "outer" or args.include_outer]
    with _usage_error(ValueError):
        # refuse a grid too large for any scheme before the first one runs
        for scheme in schemes:
            check_symmetric_grid(cfg.spec, scheme, grid_step)
    with _out(args) as fh:
        w = csv.writer(fh)
        w.writerow(["scheme", "rate", "witness_params"])
        for scheme in schemes:
            res = max_symmetric_rate(
                cfg.spec, scheme, grid_step=grid_step, seed=args.seed,
            )
            rate = res.rate_exact if res.rate_exact is not None else res.rate
            w.writerow([scheme, _fmt(rate), res.witness_str()])
    return 0


def cmd_boundary(args):
    cfg = _load(args)
    grid_step = _grid_step(args)
    with _usage_error(ValueError):
        curves = [
            (scheme, region_boundary(
                cfg.spec, scheme, resolution=args.resolution,
                grid_step=grid_step, seed=args.seed,
            ))
            for scheme in (s.strip() for s in args.schemes.split(","))
        ]
    with _out(args) as fh:
        w = csv.writer(fh)
        w.writerow(["R1", "R2", "scheme"])
        for scheme, pts in curves:
            for r1, r2 in pts:
                w.writerow([f"{r1:.6g}", f"{r2:.6g}", scheme])
    return 0


def cmd_expansion_check(args):
    """Compare expanded-sequence sub-slot throughput against the ideal
    slot-synchronous throughput of the original set."""
    cfg = _load(args)
    sset = cfg.sequence_set()
    g = args.g or cfg.g
    with _usage_error(ValueError):
        expanded = expand_set(sset, args.m or cfg.m)
        if g < 1:
            raise ValueError(f"sub-slots per slot g must be at least 1, got {g}")
    rng = np.random.default_rng(args.seed)
    L = g * expanded.period
    with _out(args) as fh:
        w = csv.writer(fh)
        w.writerow(["trial", "link", "count", "slots"])
        for trial in range(args.samples):
            offs = [int(rng.integers(L)) for _ in range(len(expanded))]
            counts = simulate_subslot(expanded, offs, g)
            for (i, j), c in sorted(counts.items()):
                w.writerow([trial, f"{i}->{j}", c, expanded.period])
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tandemnet",
        description="Deterministic multiple-access experiments on tandem collision networks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", default="-", help="output path (default stdout)")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("construct", help="build and print the sequence set")
    common(sp)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("verify-si", help="check consecutive 3-wise shift-invariance")
    common(sp)
    sp.set_defaults(func=cmd_verify_si)

    sp = sub.add_parser("simulate", help="run an end-to-end coded session")
    common(sp)
    sp.add_argument("--periods", type=int, default=0, help="override config periods")
    sp.add_argument("--trace", default=None, help="also write the slot trace CSV here")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("identify-sweep",
                        help="validate sender identification over neighbor offsets")
    common(sp)
    sp.add_argument("--node", type=int, required=True)
    sp.add_argument("--samples", type=int, default=0,
                    help="random offset pairs instead of the full sweep")
    sp.set_defaults(func=cmd_identify_sweep)

    sp = sub.add_parser("discover-offset", help="run the marker-frame handshake")
    common(sp)
    sp.add_argument("--transmitter", type=int, required=True)
    sp.add_argument("--receiver", type=int, required=True)
    sp.add_argument("--extra-periods", type=int, default=8)
    sp.set_defaults(func=cmd_discover_offset)

    sp = sub.add_parser("regions", help="membership of the configured rate vector")
    common(sp)
    sp.set_defaults(func=cmd_regions)

    sp = sub.add_parser("symmetric-rates", help="max common rate per scheme (CSV)")
    common(sp)
    sp.add_argument("--grid-steps", type=int, default=60,
                    help="duty grid resolution (step 1/steps)")
    sp.add_argument("--include-outer", action="store_true")
    sp.set_defaults(func=cmd_symmetric_rates)

    sp = sub.add_parser("boundary", help="two-source region boundaries (CSV)")
    common(sp)
    sp.add_argument("--schemes", default="capacity,slotted,nc-slotted,pure")
    sp.add_argument("--resolution", type=int, default=25)
    sp.add_argument("--grid-steps", type=int, default=60)
    sp.set_defaults(func=cmd_boundary)

    sp = sub.add_parser("expansion-check",
                        help="sub-slot throughput of the expanded set (CSV)")
    common(sp)
    sp.add_argument("--m", type=int, default=0, help="override config expansion factor")
    sp.add_argument("--g", type=int, default=0, help="override config sub-slots per slot")
    sp.add_argument("--samples", type=int, default=20, help="random offset trials")
    sp.set_defaults(func=cmd_expansion_check)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
