"""The relative-offset certificate and sender identification against the
full-table versions in reference_sequences.py."""

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_sequences as ref
from tandemnet import (
    DutyFactor,
    InconsistentObservationError,
    ProtocolSequence,
    SequenceSet,
    construct_sequences,
    identify_senders,
    is_consecutively_3wise_shift_invariant,
)
from tandemnet.network import COLLISION, IDLE, SINGLE, TRANSMIT, ChannelActivitySignal


def _sequence(bits):
    return ProtocolSequence(tuple(bits), DutyFactor(sum(bits), len(bits)))


@st.composite
def sequence_sets(draw, max_period=30, max_nodes=6):
    """Either a constructed family (shift-invariant) or random 0/1 rows,
    some of them constant so that small random sets can pass too."""
    M = draw(st.integers(1, max_nodes))
    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        nums = draw(st.lists(st.integers(0, d), min_size=M, max_size=M))
        return construct_sequences([DutyFactor(n, d) for n in nums])
    P = draw(st.integers(1, max_period))
    row = st.one_of(
        st.lists(st.integers(0, 1), min_size=P, max_size=P),
        st.sampled_from([[0] * P, [1] * P]),
    )
    rows = draw(st.lists(row, min_size=M, max_size=M))
    return SequenceSet([_sequence(r) for r in rows], denominator=P)


@settings(max_examples=300, deadline=None)
@given(sset=sequence_sets())
def test_certificate_matches_reference(sset):
    got = is_consecutively_3wise_shift_invariant(sset)
    want = ref.is_consecutively_3wise_shift_invariant(sset)
    assert want.exhaustive
    assert (got.invariant, got.exhaustive, got.witness) == (
        want.invariant, want.exhaustive, want.witness)


def test_certificate_reference_covers_both_outcomes():
    seqs = [_sequence((1, 1, 0, 0))] * 3
    bad = SequenceSet(seqs, denominator=4)
    good = construct_sequences([DutyFactor(n, 3) for n in (1, 2, 1, 2)])
    for sset, invariant in ((bad, False), (good, True)):
        got = is_consecutively_3wise_shift_invariant(sset)
        want = ref.is_consecutively_3wise_shift_invariant(sset)
        assert got.invariant is want.invariant is invariant
        assert got.witness == want.witness


def _observe(own, own_tau, left, tau_l, right, tau_r, start):
    """The node's activity over one period starting at global slot start."""
    P = len(own)
    out = []
    for g in range(start, start + P):
        if own[(g - own_tau) % P]:
            out.append(TRANSMIT)
            continue
        n = sum(s[(g - t) % P] for s, t in ((left, tau_l), (right, tau_r))
                if s is not None)
        out.append((IDLE, SINGLE, COLLISION)[n])
    return out


@st.composite
def identification_cases(draw):
    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        P = d ** 3
        bits = [s.bits for s in construct_sequences(
            [DutyFactor(draw(st.integers(0, d)), d) for _ in range(3)])]
    else:
        P = draw(st.integers(1, 30))
        bits = [tuple(draw(st.lists(st.integers(0, 1), min_size=P, max_size=P)))
                for _ in range(3)]
    left, own, right = bits
    left = None if draw(st.integers(0, 4)) == 0 else left
    right = None if draw(st.integers(0, 4)) == 0 else right
    taus = [draw(st.integers(0, 3 * P)) for _ in range(3)]
    start = draw(st.integers(0, 3 * P))
    symbols = _observe(own, taus[1], left, taus[0], right, taus[2], start)
    # corrupt a few symbols, own transmit slots included
    for _ in range(draw(st.integers(0, 2) if draw(st.booleans()) else st.just(0))):
        k = draw(st.integers(0, P - 1))
        symbols[k] = draw(st.sampled_from([TRANSMIT, IDLE, SINGLE, COLLISION]))
    seqs = [None if b is None else _sequence(b) for b in (left, own, right)]
    return ChannelActivitySignal(tuple(symbols)), seqs, taus[1], start


def _labels_or_error(identify, signal, seqs, own_tau, start):
    left, own, right = seqs
    try:
        return identify(signal, own, own_tau, left, right, start=start)
    except InconsistentObservationError:
        return "inconsistent"


@settings(max_examples=400, deadline=None)
@given(case=identification_cases())
def test_identify_matches_reference(case):
    signal, seqs, own_tau, start = case
    got = _labels_or_error(identify_senders, signal, seqs, own_tau, start)
    want = _labels_or_error(ref.identify_senders, signal, seqs, own_tau, start)
    assert got == want

