"""Acceptance gate: one test per top-level claim, each printing a
pass/fail line.  Keep these independent of the unit tests; every
numeric target is checked at its stated tolerance."""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from tandemnet import (
    DutyFactor,
    NetworkSpec,
    Source,
    achievable_point,
    capacity_constraints,
    construct_sequences,
    discover_offset,
    expand_sequence,
    identify_senders,
    is_consecutively_3wise_shift_invariant,
    max_symmetric_rate,
    membership_lattice,
    outer_constraints,
    outer_point,
    region_boundary,
    rs_decode,
    rs_encode,
    simulate,
    simulate_subslot,
    throughput_backward,
    throughput_forward,
)
from tandemnet.coding import nested_decode, nested_encode
from tandemnet.gf import field
from tandemnet.network import ChannelActivitySignal, COLLISION, IDLE, SINGLE, TRANSMIT
from tandemnet.sequences import roll_matrix

F = Fraction


def _report(capsys, num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _spec_ex1():
    return NetworkSpec(4, [
        Source(1, 1, frozenset({4})),
        Source(2, 4, frozenset({1})),
    ])


def _spec_ex2():
    return NetworkSpec(5, [
        Source(1, 2, frozenset({1, 5})),
        Source(2, 4, frozenset({1, 5})),
    ])


def test_c01_construction_fidelity(capsys):
    t0 = time.time()
    sset = construct_sequences([
        DutyFactor(1, 3), DutyFactor(1, 3), DutyFactor(1, 3),
        DutyFactor(2, 3), DutyFactor(2, 3),
    ])
    want = [
        "100" * 9,
        "111000000" * 3,
        "1" * 9 + "0" * 18,
        "110" * 9,
        "111111000" * 3,
    ]
    got = ["".join(map(str, sset[i].bits)) for i in range(1, 6)]
    ok = got == want and sset.period == 27 and time.time() - t0 < 1.0
    _report(capsys, 1, "construction fidelity", ok)


def test_c02_shift_invariance_exhaustive(capsys):
    checked = 0
    bad = None
    for M in range(1, 6):
        for nums in itertools.product(range(4), repeat=M):
            sset = construct_sequences([DutyFactor(n, 3) for n in nums])
            report = is_consecutively_3wise_shift_invariant(sset)
            checked += 1
            if not (report.invariant and report.exhaustive):
                bad = (nums, report.witness)
                break
        if bad:
            break
    _report(capsys, 2, "shift invariance d=3 M<=5", bad is None,
            f"{checked} duty vectors, exhaustive offsets" if bad is None else str(bad))


def _throughput_identity_holds(sset, M):
    """Exhaustive offset check of the link-throughput identity via roll
    matrices: count tensor over all offset triples must be constant."""
    P = sset.period
    f = [s.duty.value for s in sset] + [F(0), F(0)]

    def duty(i):
        return f[i - 1] if 1 <= i <= M else F(0)

    ones = np.ones((1, P), dtype=np.int64)
    for i in range(1, M + 1):
        for step in (1, -1):
            mats = []
            for hop in (0, 1, 2):
                j = i + step * hop
                m = roll_matrix(sset[j]) if 1 <= j <= M else np.zeros((1, P), np.int64)
                mats.append(m if hop == 0 else (1 - m))
            tensor = np.einsum("ak,bk,ck->abc", *mats)
            expected = duty(i) * (1 - duty(i + step)) * (1 - duty(i + 2 * step)) * P
            if expected.denominator != 1 or not np.all(tensor == int(expected)):
                return False
    return True


def test_c03_throughput_identity_exact_all_offsets(capsys):
    checked = 0
    ok = True
    for d in (1, 2, 3):
        M = 4
        for nums in itertools.product(range(d + 1), repeat=M):
            sset = construct_sequences([DutyFactor(n, d) for n in nums])
            if not _throughput_identity_holds(sset, M):
                ok = False
                break
            checked += 1
        if not ok:
            break
    # spot-check that the public API agrees with the formula on samples
    sset = construct_sequences([DutyFactor(1, 3)] * 4)
    rng = np.random.default_rng(0)
    for _ in range(50):
        taus = [int(t) for t in rng.integers(0, 27, size=4)]
        ok = ok and throughput_forward(sset, 1, taus) == F(4, 27)
        ok = ok and throughput_backward(sset, 4, taus) == F(4, 27)
    _report(capsys, 3, "throughput identity exact for d<=3", ok,
            f"{checked} duty vectors x all offset tuples x both directions")


def test_c04_identifiability_all_offset_pairs(capsys):
    sset = construct_sequences([
        DutyFactor(1, 3), DutyFactor(1, 3), DutyFactor(1, 3),
        DutyFactor(2, 3), DutyFactor(2, 3),
    ])
    P = 27
    s1 = np.asarray(sset[1].bits, np.int64)
    s2 = np.asarray(sset[2].bits, np.int64)
    s3 = np.asarray(sset[3].bits, np.int64)
    mislabels = 0
    for t1 in range(P):
        a1 = np.roll(s1, t1)
        for t3 in range(P):
            a3 = np.roll(s3, t3)
            symbols = []
            for k in range(P):
                if s2[k]:
                    symbols.append(TRANSMIT)
                else:
                    n = a1[k] + a3[k]
                    symbols.append(IDLE if n == 0 else SINGLE if n == 1 else COLLISION)
            labels = identify_senders(
                ChannelActivitySignal(tuple(symbols)),
                sset[2], 0, sset[1], sset[3],
            )
            for k, side in labels.items():
                truth = -1 if a1[k] else +1
                if side != truth:
                    mislabels += 1
    # the worked labels at zero offsets (1-indexed slots)
    zero_syms = []
    for k in range(P):
        if s2[k]:
            zero_syms.append(TRANSMIT)
        else:
            n = s1[k] + s3[k]
            zero_syms.append(IDLE if n == 0 else SINGLE if n == 1 else COLLISION)
    labels0 = identify_senders(
        ChannelActivitySignal(tuple(zero_syms)), sset[2], 0, sset[1], sset[3]
    )
    right = {k + 1 for k, v in labels0.items() if v == +1}
    left = {k + 1 for k, v in labels0.items() if v == -1}
    worked_ok = right == {5, 6, 8, 9} and left == {13, 16, 22, 25}
    ok = mislabels == 0 and worked_ok
    _report(capsys, 4, "sender identification 27^2 offset pairs", ok,
            f"mislabels={mislabels}, worked-example labels "
            f"{'match' if worked_ok else 'differ'}")


def test_c05_offset_discovery_all_pairs(capsys):
    sset = construct_sequences([DutyFactor(1, 3)] * 4)
    P = 27
    failures = 0
    for t_tx in range(P):
        for t_rx in range(P):
            taus = [t_tx, t_rx, 0, 0]
            try:
                tau = discover_offset(sset, taus, transmitter=1, receiver=2)
            except Exception:
                failures += 1
                continue
            if tau != t_tx:
                failures += 1
    _report(capsys, 5, "offset discovery 27^2 pairs", failures == 0,
            f"failures={failures}/729")


def test_c06_zero_error_end_to_end(capsys):
    t0 = time.time()
    spec = _spec_ex1()
    sset = construct_sequences([DutyFactor(1, 3)] * 4)
    q = field(11)
    rate = F(4, 27)
    rng = np.random.default_rng(2024)
    errors = 0
    runs = 500
    for trial in range(runs):
        taus = [int(t) for t in rng.integers(0, 27, size=4)]
        res = simulate(spec, sset, taus, [rate, rate], q,
                       periods=3, seed=trial)
        if not res.ok or res.error_count():
            errors += 1
    over = simulate(spec, sset, [0] * 4, [F(5, 27), rate], q, periods=3)
    infeasible_reported = (not over.ok) and over.failure.survivors < over.failure.needed
    elapsed = time.time() - t0
    ok = errors == 0 and infeasible_reported and elapsed < 60
    _report(capsys, 6, "zero-error end-to-end", ok,
            f"{runs} offset tuples, errors={errors}, 5/27 -> "
            f"{'insufficient-data' if infeasible_reported else 'NOT reported'}, "
            f"{elapsed:.1f}s")


def test_c07_capacity_numbers(capsys):
    r1 = max_symmetric_rate(_spec_ex1(), "capacity")
    ex1_ok = r1.rate_exact == F(4, 27)
    r2 = max_symmetric_rate(_spec_ex2(), "capacity")
    ex2_ok = abs(r2.rate - 0.1716) < 0.002
    pts = region_boundary(_spec_ex1(), "capacity", resolution=4)
    end_ok = pts[0] == (0.0, 1 / 3) and pts[-1] == (1 / 3, 0.0)
    ok = ex1_ok and ex2_ok and end_ok
    _report(capsys, 7, "capacity landmarks", ok,
            f"ex1={r1.rate_exact}, ex2={r2.rate:.4f}, endpoints "
            f"{'exact' if end_ok else 'off'}")


def test_c08_aloha_baselines(capsys):
    spec1, spec2 = _spec_ex1(), _spec_ex2()
    pure = max_symmetric_rate(spec1, "pure")
    slotted = max_symmetric_rate(spec1, "slotted")
    nc1 = max_symmetric_rate(spec1, "nc-slotted")
    cap1 = max_symmetric_rate(spec1, "capacity")
    nc2 = max_symmetric_rate(spec2, "nc-slotted")
    cap2 = max_symmetric_rate(spec2, "capacity")
    pure_ok = abs(pure.rate - 0.0678) < 0.002
    slotted_ok = abs(slotted.rate - 0.1058) < 0.002
    nc_ok = abs(nc1.rate - cap1.rate) < 1e-9 and nc1.rate_exact == cap1.rate_exact
    strict_ok = nc2.rate < cap2.rate and nc2.rate < 0.1716
    ok = pure_ok and slotted_ok and nc_ok and strict_ok
    _report(capsys, 8, "ALOHA baselines", ok,
            f"pure={pure.rate:.4f}, slotted={slotted.rate:.4f}, "
            f"nc1={nc1.rate:.6f}=capacity, nc2={nc2.rate:.4f}<{cap2.rate:.4f}")


def test_c09_capacity_outer_lattice(capsys):
    rng = np.random.default_rng(99)
    disagreements = 0
    total = 0
    for spec in (_spec_ex1(), _spec_ex2()):
        for _ in range(500):
            R = [F(int(n), 216) for n in rng.integers(0, 60, size=2)]
            a = membership_lattice(spec, "capacity", 12, R)
            b = membership_lattice(spec, "outer", 12, R)
            disagreements += int(np.count_nonzero(a != b))
            total += a.size
    # cross-check the vectorized lattice against the scalar predicates
    spec = _spec_ex1()
    R = [F(7, 100), F(11, 100)]
    grid_a = membership_lattice(spec, "capacity", 12, R)
    grid_b = membership_lattice(spec, "outer", 12, R)
    scalar_ok = True
    for _ in range(200):
        idx = tuple(int(x) for x in rng.integers(0, 13, size=4))
        f = [F(i, 12) for i in idx]
        scalar_ok = scalar_ok and grid_a[idx] == achievable_point(spec, f, R)
        scalar_ok = scalar_ok and grid_b[idx] == outer_point(spec, f, R)
    ok = disagreements == 0 and scalar_ok
    _report(capsys, 9, "capacity/outer lattice equivalence", ok,
            f"{total} (duty, rate) memberships, disagreements={disagreements}")


def test_c10_expansion_property(capsys):
    sset = construct_sequences([DutyFactor(1, 3)] * 4)
    P = sset.period
    f = [s.duty.value for s in sset] + [F(0), F(0)]
    g = 4
    rng = np.random.default_rng(31)
    violations = 0
    duty_ok = True
    trials_per_m = 1000
    for m in (2, 3, 4):
        from tandemnet import expand_set
        expanded = expand_set(sset, m)
        for s, orig in zip(expanded, sset):
            duty_ok = duty_ok and s.duty.value == orig.duty.value * F(m - 1, m)
        L = g * expanded.period
        for _ in range(trials_per_m):
            offs = [int(t) for t in rng.integers(0, L, size=4)]
            counts = simulate_subslot(expanded, offs, g)
            for i in (1, 2, 3):
                bound = (m - 1) * P * f[i - 1] * (1 - f[i]) * (1 - f[i + 1])
                if counts[(i, i + 1)] < bound:
                    violations += 1
    ok = violations == 0 and duty_ok
    _report(capsys, 10, "expansion throughput floor", ok,
            f"m in 2..4, g=4, {trials_per_m} offset tuples each, "
            f"violations={violations}, duty scaling "
            f"{'exact' if duty_ok else 'WRONG'}")


def test_c11_coding_roundtrips(capsys):
    ok = True
    # exhaustive erasure patterns for evaluation sets up to size 10
    q = field(11)
    rng = random.Random(11)
    for size in range(1, 11):
        eval_set = list(range(size))
        k = min(3, size)
        coeffs = [rng.randrange(11) for _ in range(k)]
        word = rs_encode(q, coeffs, eval_set)
        for pattern in itertools.product((False, True), repeat=size):
            survivors = sum(pattern)
            erased = [v if keep else None for v, keep in zip(word, pattern)]
            if survivors >= k:
                ok = ok and rs_decode(q, erased, eval_set, dim=k) == coeffs
    # randomized larger codes
    q31 = field(31)
    eval_set = list(range(20))
    for _ in range(1000):
        k = rng.randrange(1, 9)
        coeffs = [rng.randrange(31) for _ in range(k)]
        word = rs_encode(q31, coeffs, eval_set)
        keep = rng.sample(range(20), rng.randrange(k, 21))
        erased = [v if i in keep else None for i, v in enumerate(word)]
        ok = ok and rs_decode(q31, erased, eval_set, dim=k) == coeffs
    # nested round-trips
    from tandemnet.coding import NodeCoderState
    nested_ok = 0
    for _ in range(100):
        n_src = rng.randrange(0, 3)
        n_rel = rng.randrange(1, 4)
        g = [rng.randrange(11) for _ in range(n_src)]
        a = [rng.randrange(11) for _ in range(n_rel)]
        b = [rng.randrange(11) for _ in range(n_rel)]
        state = NodeCoderState(
            node=2, period=27, frame_len=9,
            fwd_rate=F(n_rel, 27), bwd_rate=F(n_rel, 27), src_rate=F(n_src, 27),
            fwd_symbols=a, bwd_symbols=b, src_symbols=g,
        )
        frame = nested_encode(q, state)
        dim = n_src + n_rel
        keepers = rng.sample(range(9), dim)
        erased = [v if i in keepers else None for i, v in enumerate(frame)]
        low, high = nested_decode(
            q, erased, list(range(9)), known_coeffs=b, known_shift=n_src,
            expected_dim=dim, split_at=n_src,
        )
        low2, high2 = nested_decode(
            q, erased, list(range(9)), known_coeffs=a, known_shift=n_src,
            expected_dim=dim, split_at=n_src,
        )
        if low == g and high == a and low2 == g and high2 == b:
            nested_ok += 1
    ok = ok and nested_ok == 100
    _report(capsys, 11, "coding round-trips", ok,
            f"exhaustive |X|<=10, 1000 randomized GF(31), "
            f"nested {nested_ok}/100")
