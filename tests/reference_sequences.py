"""Reference shift-invariance certificate and sender identification.

These are the full-table versions that ``tandemnet.sequences`` and
``tandemnet.network`` replaced: the certificate builds one P^3 einsum
table per consecutive triple (and falls back to random offset sampling
above a work budget), and sender identification builds one (TL, TR, P)
tensor of predicted counts.  They are kept unchanged as the oracle that
the relative-offset implementations are compared against; only use them
at small periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from tandemnet.network import (
    COLLISION,
    SINGLE,
    TRANSMIT,
    ChannelActivitySignal,
    InconsistentObservationError,
)
from tandemnet.sequences import (
    ProtocolSequence,
    SequenceSet,
    generalized_hamming,
)


def _roll_matrix(seq: ProtocolSequence) -> np.ndarray:
    """P x P matrix whose row tau is the sequence delayed by tau."""
    arr = np.asarray(seq.bits, dtype=np.int64)
    P = seq.period
    idx = (np.arange(P)[None, :] - np.arange(P)[:, None]) % P
    return arr[idx]


def _consecutive_subsets(M: int):
    for size in (1, 2, 3):
        for start in range(1, M - size + 2):
            yield tuple(range(start, start + size))


@dataclass
class ShiftInvarianceReport:
    invariant: bool
    exhaustive: bool
    witness: Optional[tuple] = None  # (subset, offsets_a, value_a, offsets_b, value_b)
    note: str = ""

    def __bool__(self):
        return self.invariant


def is_consecutively_3wise_shift_invariant(
    sset: SequenceSet,
    budget: int = 10**9,
    samples: int = 10**4,
    rng: Optional[np.random.Generator] = None,
) -> ShiftInvarianceReport:
    """Certify that every generalized Hamming cross-correlation over up to
    three consecutive indices is offset-independent.

    Exhausts every offset tuple while the estimated work P^3 * (M - 2)
    stays within ``budget``; beyond that it falls back to randomized
    offset sampling and says so in the report.  The exhaustive sweep is
    O(P^3) per triple, intended for small d.
    """
    M = len(sset)
    P = sset.period
    cost = P**3 * max(M - 2, 1)
    exhaustive = cost <= budget
    mats = {i: _roll_matrix(sset[i]) for i in range(1, M + 1)}

    if exhaustive:
        for subset in _consecutive_subsets(M):
            ms = [mats[i] for i in subset]
            if len(ms) == 1:
                table = ms[0].sum(axis=1)
            elif len(ms) == 2:
                table = np.einsum("ak,bk->ab", ms[0], ms[1])
            else:
                table = np.einsum("ak,bk,ck->abc", ms[0], ms[1], ms[2])
            ref = table.flat[0]
            if not np.all(table == ref):
                bad = np.unravel_index(int(np.argmax(table != ref)), table.shape)
                zero = (0,) * len(subset)
                return ShiftInvarianceReport(
                    invariant=False,
                    exhaustive=True,
                    witness=(subset, zero, int(ref), tuple(int(t) for t in bad),
                             int(table[bad])),
                )
        return ShiftInvarianceReport(invariant=True, exhaustive=True)

    rng = rng if rng is not None else np.random.default_rng(0)
    for subset in _consecutive_subsets(M):
        zero = (0,) * len(subset)
        ref = generalized_hamming(sset, subset, zero)
        taus = rng.integers(0, P, size=(samples, len(subset)))
        for row in taus:
            val = generalized_hamming(sset, subset, tuple(int(t) for t in row))
            if val != ref:
                return ShiftInvarianceReport(
                    invariant=False,
                    exhaustive=False,
                    witness=(subset, zero, ref, tuple(int(t) for t in row), val),
                    note=f"randomized check, {samples} samples per subset",
                )
    return ShiftInvarianceReport(
        invariant=True,
        exhaustive=False,
        note=(f"randomized check only ({samples} samples per subset); "
              f"exhaustive sweep would need ~{cost:.2g} term evaluations"),
    )


def identify_senders(
    signal: ChannelActivitySignal,
    own_seq: ProtocolSequence,
    own_tau: int,
    left_seq: Optional[ProtocolSequence],
    right_seq: Optional[ProtocolSequence],
    start: int = 0,
) -> Dict[int, int]:
    """Label the sender of every successfully received packet.

    Searches offset hypotheses for the two neighbors, lexicographically,
    until the predicted activity signal matches the observation; any
    consistent hypothesis labels the single-packet slots correctly when
    the sequence family is consecutively 3-wise shift-invariant.  Returns
    {slot index within the signal: -1 (left neighbor) or +1 (right)}.

    ``start`` is the global slot of the signal's first symbol.
    """
    P = len(signal)
    if own_seq.period != P:
        raise ValueError("signal length must equal the sequence period")
    own = np.array(
        [own_seq.bits[(start + k - own_tau) % P] for k in range(P)], dtype=np.int64
    )
    sym = np.array(signal.symbols)
    if not np.array_equal(own == 1, sym == TRANSMIT):
        raise InconsistentObservationError(
            "signal's transmit slots disagree with the node's own schedule"
        )
    listening = own == 0
    observed = np.zeros(P, dtype=np.int64)
    observed[sym == SINGLE] = 1
    observed[sym == COLLISION] = 2

    # rows are hypothesized activity patterns, aligned to the signal window;
    # an absent neighbor is one all-silent row
    silent = np.zeros((1, P), dtype=np.int64)
    left_tab, right_tab = (
        np.roll(silent if seq is None else _roll_matrix(seq), start, axis=1)
        for seq in (left_seq, right_seq)
    )
    counts = left_tab[:, None, :] + right_tab[None, :, :]  # (TL, TR, P)
    ok = np.all(counts[:, :, listening] == observed[listening], axis=2)
    hits = np.argwhere(ok)
    if len(hits) == 0:
        raise InconsistentObservationError(
            "no offset hypothesis reproduces the observed activity"
        )
    tl, tr = hits[0]  # lexicographically first consistent hypothesis
    labels: Dict[int, int] = {}
    for k in np.nonzero(listening & (observed == 1))[0]:
        labels[int(k)] = -1 if left_tab[tl, k] == 1 else +1
    return labels
