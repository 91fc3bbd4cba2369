import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemnet import (
    DutyFactor,
    ProtocolSequence,
    SequenceSet,
    construct_sequences,
    expand_sequence,
    expand_set,
    generalized_hamming,
    is_consecutively_3wise_shift_invariant,
    throughput_backward,
    throughput_forward,
    unit_vector,
)
from tandemnet import sequences as seqmod


def brute_hamming(seqs, offsets):
    """Independent oracle for the generalized Hamming cross-correlation."""
    P = len(seqs[0])
    total = 0
    for k in range(P):
        prod = 1
        for s, tau in zip(seqs, offsets):
            prod *= s[(k - tau) % P]
        total += prod
    return total


class TestUnitVector:
    def test_basic(self):
        assert unit_vector(1, 3) == [1, 0, 0]
        assert unit_vector(2, 3) == [1, 1, 0]
        assert unit_vector(3, 9) == [1, 1, 1, 0, 0, 0, 0, 0, 0]

    def test_weight(self):
        for d in (2, 3, 5):
            for n in range(d + 1):
                u = unit_vector(n, d)
                assert sum(u) == n and len(u) == d

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            unit_vector(4, 3)
        with pytest.raises(ValueError):
            unit_vector(-1, 3)


class TestConstruction:
    def test_worked_five_sequence_set(self, mixed_set):
        assert mixed_set.period == 27
        assert "".join(map(str, mixed_set[1].bits)) == "100" * 9
        assert "".join(map(str, mixed_set[2].bits)) == "111000000" * 3
        assert "".join(map(str, mixed_set[3].bits)) == "1" * 9 + "0" * 18
        assert "".join(map(str, mixed_set[4].bits)) == "110" * 9
        assert "".join(map(str, mixed_set[5].bits)) == "111111000" * 3

    def test_period_is_d_cubed(self):
        for d in (2, 3, 4):
            sset = construct_sequences([DutyFactor(1, d)] * 3)
            assert sset.period == d**3

    def test_duties_preserved(self, mixed_set):
        expected = [Fraction(1, 3)] * 3 + [Fraction(2, 3)] * 2
        assert [s.duty.value for s in mixed_set] == expected

    def test_common_denominator_required(self):
        with pytest.raises(ValueError):
            construct_sequences([DutyFactor(1, 3), DutyFactor(1, 2)])

    def test_out_of_range_is_silent(self, third_set):
        assert third_set[0].weight == 0
        assert third_set[5].weight == 0
        assert third_set[0].period == third_set.period


class TestGeneralizedHamming:
    def test_singleton_equals_weight(self, mixed_set):
        P = mixed_set.period
        for i in (1, 2, 4):
            for tau in (0, 5, 13, 26):
                got = generalized_hamming(mixed_set, (i,), (tau,))
                assert got == mixed_set[i].weight

    def test_matches_bruteforce(self, mixed_set):
        rng = np.random.default_rng(7)
        P = mixed_set.period
        for _ in range(50):
            subset = tuple(sorted(rng.choice(range(1, 6), size=2, replace=False)))
            offsets = tuple(int(t) for t in rng.integers(0, P, size=2))
            got = generalized_hamming(mixed_set, subset, offsets)
            bits = [mixed_set[i].bits for i in subset]
            assert got == brute_hamming(bits, offsets)

    def test_triple_zero_offsets(self, third_set):
        got = generalized_hamming(third_set, (1, 2, 3), (0, 0, 0))
        bits = [third_set[i].bits for i in (1, 2, 3)]
        assert got == brute_hamming(bits, (0, 0, 0))


class TestShiftInvariance:
    def test_constructed_sets_pass(self, third_set, mixed_set):
        for sset in (third_set, mixed_set):
            report = is_consecutively_3wise_shift_invariant(sset)
            assert report.exhaustive
            assert bool(report)

    def test_counterexample_fails_with_witness(self):
        # three identical length-4 sequences are not shift invariant
        seqs = [
            ProtocolSequence((1, 1, 0, 0), DutyFactor(1, 2)) for _ in range(3)
        ]
        sset = SequenceSet(seqs, denominator=2)
        report = is_consecutively_3wise_shift_invariant(sset)
        assert not report
        assert report.witness is not None
        subset, zero, ref, taus, val = report.witness
        assert generalized_hamming(sset, subset, zero) == ref
        assert generalized_hamming(sset, subset, taus) == val
        assert ref != val

    def test_two_offset_tuples_differ_on_counterexample(self):
        seqs = [
            ProtocolSequence((1, 1, 0, 0), DutyFactor(1, 2)) for _ in range(2)
        ]
        sset = SequenceSet(seqs, denominator=2)
        same = generalized_hamming(sset, (1, 2), (0, 0))
        shifted = generalized_hamming(sset, (1, 2), (0, 1))
        assert same == 2 and shifted == 1

    @pytest.mark.parametrize("M", [3, 6])
    def test_d10_exhaustive(self, M):
        rng = np.random.default_rng(M)
        sset = construct_sequences(
            [DutyFactor(int(n), 10) for n in rng.integers(1, 10, size=M)])
        report = is_consecutively_3wise_shift_invariant(sset)
        assert report.invariant and report.exhaustive
        # a copy of sequence 1 in place of 3 breaks the triple (1, 2, 3)
        broken = SequenceSet(sset.sequences[:2] + sset.sequences[:1], 10)
        report = is_consecutively_3wise_shift_invariant(broken)
        assert not report.invariant and report.exhaustive
        subset, zero, ref, taus, val = report.witness
        assert subset == (1, 2, 3) and taus[0] == 0
        assert generalized_hamming(broken, subset, zero) == ref
        assert generalized_hamming(broken, subset, taus) == val != ref

    def test_refuses_oversized_tables_without_allocating(self):
        sset = construct_sequences([DutyFactor(1, 40)] * 3)  # P = 64,000
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"period 64000 needs about 95\.4 GiB"):
                is_consecutively_3wise_shift_invariant(sset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestThroughput:
    def test_forward_value_all_offsets_sampled(self, third_set):
        rng = np.random.default_rng(3)
        P = third_set.period
        for _ in range(200):
            taus = [int(t) for t in rng.integers(0, P, size=3)]
            assert throughput_forward(third_set, 1, taus) == Fraction(4, 27)

    def test_last_node_forward_is_duty(self, mixed_set):
        # no right neighbors: every transmitted slot goes through
        for tau in (0, 9, 20):
            got = throughput_forward(mixed_set, 5, (tau, 0, 0))
            assert got == Fraction(2, 3)

    def test_backward_mirror(self, mixed_set):
        f = [s.duty.value for s in mixed_set]
        got = throughput_backward(mixed_set, 3, (0, 0, 0))
        assert got == f[2] * (1 - f[1]) * (1 - f[0])

    def test_full_offset_vector_accepted(self, third_set):
        full = throughput_forward(third_set, 2, [4, 8, 15, 16])
        short = throughput_forward(third_set, 2, (8, 15, 16))
        assert full == short


class TestExpansion:
    def test_worked_examples(self):
        s = ProtocolSequence((1, 0, 1, 0), DutyFactor(1, 2))
        assert expand_sequence(s, 3).bits == (1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0)
        s2 = ProtocolSequence((1, 1, 0, 0), DutyFactor(1, 2))
        assert expand_sequence(s2, 3).bits == (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0)

    def test_all_zero(self):
        s = ProtocolSequence((0, 0, 0), DutyFactor(0, 3))
        for m in (2, 3, 5):
            out = expand_sequence(s, m)
            assert out.bits == (0,) * (3 * m)

    @given(m=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_duty_scales_exactly(self, m):
        s = ProtocolSequence(tuple(unit_vector(2, 6)), DutyFactor(2, 6))
        out = expand_sequence(s, m)
        assert out.duty.value == s.duty.value * (m - 1) / m
        assert out.period == m * s.period

    def test_expand_set(self, third_set):
        out = expand_set(third_set, 3)
        assert out.period == 81
        assert all(
            e.duty.value == s.duty.value * Fraction(2, 3)
            for e, s in zip(out, third_set)
        )

    def test_rejects_m_below_2(self, third_set):
        with pytest.raises(ValueError):
            expand_set(third_set, 1)


class TestSerialization:
    def test_header_and_roundtrip(self, mixed_set):
        text = seqmod.dumps(mixed_set)
        first = text.splitlines()[0]
        assert first == "27 5 3"
        back = seqmod.loads(text)
        assert back.period == mixed_set.period
        assert all(back[i].bits == mixed_set[i].bits for i in range(1, 6))
        assert [s.duty.value for s in back] == [s.duty.value for s in mixed_set]

    def test_file_roundtrip(self, third_set, tmp_path):
        path = tmp_path / "set.txt"
        seqmod.save(third_set, path)
        back = seqmod.load(path)
        assert seqmod.dumps(back) == seqmod.dumps(third_set)

    def test_bad_weight_rejected(self):
        text = "4 1 3\n1100\n"  # weight 2 not divisible into duty n/3 over P=4
        with pytest.raises(ValueError):
            seqmod.loads(text)


@given(
    d=st.integers(1, 3),
    nums=st.lists(st.integers(0, 3), min_size=2, max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_construct_properties(d, nums):
    duties = [DutyFactor(min(n, d), d) for n in nums]
    sset = construct_sequences(duties)
    assert sset.period == d**3
    for s, duty in zip(sset, duties):
        assert s.weight == duty.value * d**3
