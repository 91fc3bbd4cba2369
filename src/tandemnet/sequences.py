"""Protocol sequences for deterministic channel access on a line network.

A protocol sequence is a periodic zero-one schedule: a node transmits one
packet in every slot where its sequence is 1.  This module builds the
d^3-period sequence family whose generalized Hamming cross-correlations
over any window of up to three consecutive node indices do not depend on
the nodes' cyclic delay offsets, plus the measurement and transformation
operations that go with it (cross-correlation, invariance certification,
per-link throughput, and the m-expansion used for sub-slot-aligned
operation).

All duty factors and throughputs are exact rationals.  Node indices in
the public API are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class DutyFactor:
    """Fraction of slots a node transmits, kept as an exact fraction n/d."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator <= 0:
            raise ValueError("duty denominator must be positive")
        if not 0 <= self.numerator <= self.denominator:
            raise ValueError(
                f"duty numerator must lie in [0, {self.denominator}], "
                f"got {self.numerator}"
            )

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __str__(self):
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class ProtocolSequence:
    """One period of a zero-one channel-access schedule."""

    bits: tuple
    duty: DutyFactor

    def __post_init__(self):
        if len(self.bits) == 0:
            raise ValueError("sequence period must be positive")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("sequence entries must be 0 or 1")
        if sum(self.bits) != self.period * self.duty.value:
            raise ValueError(
                f"bit weight {sum(self.bits)} does not match "
                f"P*duty = {self.period * self.duty.value}"
            )

    @property
    def period(self) -> int:
        return len(self.bits)

    @property
    def weight(self) -> int:
        return sum(self.bits)

    def one_positions(self) -> tuple:
        """0-based slot indices of the 1s within one period."""
        return tuple(k for k, b in enumerate(self.bits) if b)


class SequenceSet:
    """An ordered family of protocol sequences with a common period.

    Sequences are addressed 1-based.  ``d`` is the common duty-factor
    denominator of the family.
    """

    def __init__(self, sequences: Sequence[ProtocolSequence], denominator: int):
        sequences = list(sequences)
        if not sequences:
            raise ValueError("a sequence set needs at least one sequence")
        period = sequences[0].period
        for s in sequences:
            if s.period != period:
                raise ValueError("all sequences must share a common period")
            if s.duty.denominator != denominator:
                raise ValueError("all duties must share the common denominator")
        self.sequences = sequences
        self.denominator = denominator
        self.period = period

    def __len__(self):
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)

    def __getitem__(self, i: int) -> ProtocolSequence:
        """1-based access; indices outside 1..M yield the implicit all-zero
        boundary sequence."""
        if 1 <= i <= len(self.sequences):
            return self.sequences[i - 1]
        zero = DutyFactor(0, self.denominator)
        return ProtocolSequence(bits=(0,) * self.period, duty=zero)

    def in_range(self, i: int) -> bool:
        return 1 <= i <= len(self.sequences)

    def duties(self):
        return [s.duty for s in self.sequences]


def unit_vector(n: int, d: int):
    """Length-d zero-one vector with the first n entries set."""
    if d <= 0:
        raise ValueError("dimension must be positive")
    if not 0 <= n <= d:
        raise ValueError(f"need 0 <= n <= {d}, got n={n}")
    return [1] * n + [0] * (d - n)


def construct_sequences(duties: Sequence[DutyFactor]) -> SequenceSet:
    """Build the d^3-period family for the given duty factors n_i/d.

    Sequence i (1-based) is d^2 copies of the length-d unit vector for
    i = 1 mod 3, d copies of the length-d^2 unit vector for i = 2 mod 3,
    and a single length-d^3 unit vector for i = 0 mod 3.  The family is
    3-wise shift-invariant over consecutive indices.
    """
    duties = list(duties)
    if not duties:
        raise ValueError("need at least one duty factor")
    d = duties[0].denominator
    if any(f.denominator != d for f in duties):
        raise ValueError("all duty factors must share one denominator")
    out = []
    for idx, f in enumerate(duties, start=1):
        n = f.numerator
        if idx % 3 == 1:
            block = unit_vector(n, d)
            bits = block * (d * d)
        elif idx % 3 == 2:
            block = unit_vector(d * n, d * d)
            bits = block * d
        else:
            bits = unit_vector(d * d * n, d * d * d)
        out.append(ProtocolSequence(bits=tuple(bits), duty=f))
    return SequenceSet(out, denominator=d)


def generalized_hamming(
    sset: SequenceSet, subset: Sequence[int], offsets: Sequence[int]
) -> int:
    """Number of slots in one period where every sequence in ``subset``
    (cyclically shifted by its offset) is simultaneously 1."""
    if len(subset) == 0:
        raise ValueError("subset must be non-empty")
    if len(subset) != len(offsets):
        raise ValueError("subset and offsets must have equal length")
    for i in subset:
        if not sset.in_range(i):
            raise ValueError(f"sequence index {i} out of range")
    acc = np.ones(sset.period, dtype=np.int64)
    for i, tau in zip(subset, offsets):
        acc *= rolled(sset[i], tau)
    return int(acc.sum())


# Largest working set, in bytes, of a configured sequence set or of the
# P x P tables of the shift-invariance certificate and sender
# identification; 1 GiB admits the tables up to d = 18 (P = 5,832).
TABLE_BYTES_LIMIT = 1 << 30


def require_table_bytes(need: int, what: str) -> None:
    """Raise ValueError, naming the predicted size, when ``what`` would
    need more than TABLE_BYTES_LIMIT bytes.  The P x P steps peak at
    three float64 tables and one bool mask, 25 P^2 bytes."""
    if need > TABLE_BYTES_LIMIT:
        raise ValueError(
            f"{what} needs about {need / 2**30:.3g} GiB, "
            f"above the limit of {TABLE_BYTES_LIMIT / 2**30:g} GiB"
        )


def rolled(seq: ProtocolSequence, tau: int) -> np.ndarray:
    """Int64 array a with a[k] = s[(k - tau) mod P], row tau of roll_matrix."""
    arr = np.asarray(seq.bits, dtype=np.int64)
    return np.roll(arr, tau % seq.period)


def roll_matrix(seq: ProtocolSequence, columns=None) -> np.ndarray:
    """Float64 matrix whose row tau is the sequence delayed by tau, that is
    entry [tau, k] = s[(k - tau) mod P], restricted to the slot indices in
    ``columns`` (all P by default).  Float64 so that products of these
    tables run in BLAS; their integer sums stay exact below 2**53."""
    P = seq.period
    bits = np.asarray(seq.bits, dtype=np.float64)
    # row j of the windows over two periods is s[(j + k) mod P]
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(bits, 2), P)
    cols = np.arange(P) if columns is None else columns
    return windows[np.ix_(-np.arange(P) % P, cols)]


@dataclass
class ShiftInvarianceReport:
    invariant: bool
    exhaustive: bool  # always True: every offset tuple is covered
    witness: Optional[tuple] = None  # (subset, offsets_a, value_a, offsets_b, value_b)

    def __bool__(self):
        return self.invariant


def _consecutive_subsets(M: int):
    # a single sequence's correlation is its weight at every offset
    for size in (2, 3):
        for start in range(1, M - size + 2):
            yield tuple(range(start, start + size))


def is_consecutively_3wise_shift_invariant(sset: SequenceSet) -> ShiftInvarianceReport:
    """Certify, over every offset tuple, that every generalized Hamming
    cross-correlation over up to three consecutive indices is
    offset-independent.

    A correlation depends only on the offsets relative to the first
    sequence's.  For a triple (a, b, c) the certificate is therefore the
    P x P table T[u, v] = sum_k a[k] b[k-u] c[k-v], one matrix product
    over the slots where a is 1, and for a pair (a, b) the vector
    t[u] = sum_k a[k] b[k-u]; a single sequence always passes.  The cost
    is O(P^2) memory and O(P^3) flops per triple.  The witness holds the
    lexicographically first offset tuple whose value differs from the
    all-zero tuple's; its first offset is always 0.

    Raises ValueError when the tables would exceed TABLE_BYTES_LIMIT.
    """
    M = len(sset)
    P = sset.period
    require_table_bytes(25 * P * P, f"the shift-invariance certificate at period {P}")
    for subset in _consecutive_subsets(M):
        ones = np.flatnonzero(sset[subset[0]].bits)
        rolled = [roll_matrix(sset[i], ones) for i in subset[1:]]
        if len(rolled) == 1:
            table = rolled[0].sum(axis=1)
        else:
            table = rolled[0] @ rolled[1].T
        ref = table.flat[0]
        bad = table != ref
        if bad.any():
            at = np.unravel_index(int(np.argmax(bad)), table.shape)
            return ShiftInvarianceReport(
                invariant=False,
                exhaustive=True,
                witness=(subset, (0,) * len(subset), int(ref),
                         (0,) + tuple(int(t) for t in at), int(table[at])),
            )
    return ShiftInvarianceReport(invariant=True, exhaustive=True)


def _throughput(sset: SequenceSet, i: int, offsets, step: int) -> Fraction:
    if not sset.in_range(i):
        raise ValueError(f"sequence index {i} out of range")
    if len(offsets) == len(sset):
        offsets = [
            offsets[i + step * hop - 1] if sset.in_range(i + step * hop) else 0
            for hop in (0, 1, 2)
        ]
    if len(offsets) != 3:
        raise ValueError(
            "need offsets for nodes (i, i+step, i+2*step), or one per node"
        )
    P = sset.period
    acc = rolled(sset[i], offsets[0]).copy()
    for hop, tau in zip((1, 2), offsets[1:]):
        acc *= 1 - rolled(sset[i + step * hop], tau)
    return Fraction(int(acc.sum()), P)


def throughput_forward(sset: SequenceSet, i: int, offsets) -> Fraction:
    """Fraction of slots per period carrying a non-collided packet from
    node i to node i+1, given the three relevant delay offsets
    (tau_i, tau_{i+1}, tau_{i+2}).  Out-of-range neighbors count as silent.
    """
    return _throughput(sset, i, offsets, step=1)


def throughput_backward(sset: SequenceSet, i: int, offsets) -> Fraction:
    """Mirror of :func:`throughput_forward` for the link from node i to
    node i-1; offsets are (tau_i, tau_{i-1}, tau_{i-2})."""
    return _throughput(sset, i, offsets, step=-1)


def expand_sequence(seq: ProtocolSequence, m: int) -> ProtocolSequence:
    """Replace each 0 by m zeros and each 1 by m-1 ones plus one zero.

    The period grows to m*P and the duty factor shrinks by a factor
    (m-1)/m exactly.  The trailing zero after each burst of m-1 packets is
    what makes the schedule safe under arbitrary sub-slot misalignment.
    """
    if m < 2:
        raise ValueError("expansion factor m must be >= 2")
    bits = []
    for b in seq.bits:
        if b:
            bits.extend([1] * (m - 1) + [0])
        else:
            bits.extend([0] * m)
    duty = DutyFactor(seq.duty.numerator * (m - 1), seq.duty.denominator * m)
    return ProtocolSequence(bits=tuple(bits), duty=duty)


def expand_set(sset: SequenceSet, m: int) -> SequenceSet:
    return SequenceSet(
        [expand_sequence(s, m) for s in sset.sequences],
        denominator=sset.denominator * m,
    )


# -- plain-text serialization -------------------------------------------

def dumps(sset: SequenceSet) -> str:
    """Serialize as a header line "P M d" followed by one 0/1 line per
    sequence.  Bit-exact round trip."""
    lines = [f"{sset.period} {len(sset)} {sset.denominator}"]
    for s in sset.sequences:
        lines.append("".join(str(b) for b in s.bits))
    return "\n".join(lines) + "\n"


def loads(text: str) -> SequenceSet:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty sequence-set text")
    try:
        P, M, d = (int(tok) for tok in lines[0].split())
    except Exception:
        raise ValueError(f"bad header line {lines[0]!r}; expected 'P M d'")
    if len(lines) != M + 1:
        raise ValueError(f"expected {M} sequence lines, found {len(lines) - 1}")
    seqs = []
    for ln in lines[1:]:
        if len(ln) != P or set(ln) - {"0", "1"}:
            raise ValueError(f"bad sequence line {ln!r}")
        bits = tuple(int(c) for c in ln)
        weight = sum(bits)
        if (weight * d) % P:
            raise ValueError(
                f"sequence weight {weight} has no duty with denominator {d}"
            )
        seqs.append(
            ProtocolSequence(bits=bits, duty=DutyFactor(weight * d // P, d))
        )
    return SequenceSet(seqs, denominator=d)


def save(sset: SequenceSet, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(sset))


def load(path) -> SequenceSet:
    with open(path) as fh:
        return loads(fh.read())
