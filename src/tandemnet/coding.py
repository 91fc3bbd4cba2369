"""Reed-Solomon erasure coding and the nested relay encoder/decoder.

A frame (the packets one node sends within one sequence period) is the
evaluation of a single polynomial on a fixed prefix of the field: local
source symbols occupy the low-degree coefficients, and the two directions
of relay traffic share the coefficient range directly above them.  A
neighbor that already knows one of the shared summands subtracts its
evaluation and is left with an ordinary Reed-Solomon codeword, which it
interpolates from any ``dim`` surviving packets (collisions are erasures
at known positions, so no error correction is needed).

Erased packet values are represented by ``None``; frame serialization
writes them as ``*``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from .gf import Field


class CodingError(Exception):
    pass


class InsufficientDataError(CodingError):
    """Fewer survivors than the codeword dimension."""


class CorruptCodewordError(CodingError):
    """Survivors are inconsistent with any single polynomial of the
    declared dimension."""


def poly_add(field: Field, a: Sequence[int], b: Sequence[int]) -> List[int]:
    n = max(len(a), len(b))
    pad = [field.array(list(c) + [0] * (n - len(c))) for c in (a, b)]
    return field.vadd(*pad).tolist()


def poly_shift(coeffs: Sequence[int], s: int) -> List[int]:
    """Multiply by x^s."""
    return [0] * s + list(coeffs)


# Collisions erase the same packet positions in every period, so a link
# decodes from the same survivor points period after period and the
# matrices below are cached per (field, points, dim).  Each cache holds at
# most _MATRIX_CACHE entries; an entry is one array of 8 * len(points) * dim
# bytes (Vandermonde) or 8 * dim**2 bytes (inverse), 19 KB at the 49-packet
# frames of duty 1/7.
_MATRIX_CACHE = 128


@lru_cache(maxsize=_MATRIX_CACHE)
def _vandermonde(field: Field, points: tuple, dim: int) -> np.ndarray:
    """Read-only matrix V[i, k] = points[i]**k, for k < dim."""
    x = field.array(points)
    V = np.empty((len(points), dim), dtype=x.dtype)
    col = np.ones_like(x)
    for k in range(dim):
        V[:, k] = col
        col = field.vmul(col, x)
    V.flags.writeable = False
    return V


@lru_cache(maxsize=_MATRIX_CACHE)
def _interpolator(field: Field, points: tuple, dim: int) -> np.ndarray:
    """Read-only inverse of the Vandermonde matrix on the first ``dim``
    points, which maps values there to polynomial coefficients."""
    inv = field.inverse(_vandermonde(field, points, dim)[:dim])
    inv.flags.writeable = False
    return inv


def rs_encode(field: Field, coeffs: Sequence[int], eval_set: Sequence[int]) -> List[int]:
    """Evaluate the message polynomial on the given distinct points."""
    if len(set(eval_set)) != len(eval_set):
        raise ValueError("evaluation points must be pairwise distinct")
    if len(coeffs) == 0:
        return [0] * len(eval_set)
    V = _vandermonde(field, tuple(eval_set), len(coeffs))
    return field.matvec(V, field.array(coeffs)).tolist()


def rs_decode(
    field: Field,
    values: Sequence[Optional[int]],
    eval_set: Sequence[int],
    dim: int,
) -> List[int]:
    """Recover the degree-<dim polynomial from the non-erased components.

    Interpolates on the first ``dim`` survivors and then checks the
    remaining survivors against the result, so a mangled codeword is
    reported rather than silently mis-decoded.  Every survivor's point and
    the first ``dim`` survivor values must be field elements.
    """
    if len(values) != len(eval_set):
        raise ValueError("values and eval_set must have equal length")
    if len(set(eval_set)) != len(eval_set):
        raise ValueError("evaluation points must be pairwise distinct")
    if dim == 0:
        if any(v not in (0, None) for v in values):
            raise CorruptCodewordError("nonzero values for a zero-dimension code")
        return []
    survivors = [(x, v) for x, v in zip(eval_set, values) if v is not None]
    if len(survivors) < dim:
        raise InsufficientDataError(
            f"need {dim} survivors, have {len(survivors)}"
        )
    points, vals = zip(*survivors)
    V = _vandermonde(field, points, dim)
    coeffs = field.matvec(_interpolator(field, points, dim), field.array(vals[:dim]))
    predicted = field.matvec(V[dim:], coeffs).tolist()
    for x, v, w in zip(points[dim:], vals[dim:], predicted):
        if v != w:
            raise CorruptCodewordError(
                f"survivor at point {x} disagrees with interpolated polynomial"
            )
    return coeffs.tolist()


# -- nested channel-network coding --------------------------------------

@dataclass
class NodeCoderState:
    """Per-period encoder state of one node.

    ``fwd_rate``/``bwd_rate`` are relay rates through the node (symbols per
    packet duration) and ``src_rate`` the attached-source rate, all exact
    rationals; ``period`` is the sequence period P.  The three buffers
    hold exactly rate*P symbols each for the current period.
    """

    node: int
    period: int
    frame_len: int
    fwd_rate: Fraction = Fraction(0)
    bwd_rate: Fraction = Fraction(0)
    src_rate: Fraction = Fraction(0)
    fwd_symbols: List[int] = dc_field(default_factory=list)
    bwd_symbols: List[int] = dc_field(default_factory=list)
    src_symbols: List[int] = dc_field(default_factory=list)

    def __post_init__(self):
        for rate, name in [
            (self.fwd_rate, "fwd_rate"),
            (self.bwd_rate, "bwd_rate"),
            (self.src_rate, "src_rate"),
        ]:
            count = rate * self.period
            if count.denominator != 1:
                raise RateInfeasibleError(
                    f"{name} * P = {count} is not an integer symbol count"
                )
        if self.src_count + max(self.fwd_count, self.bwd_count) > self.frame_len:
            raise RateInfeasibleError(
                f"node {self.node}: {self.src_count} source + "
                f"max({self.fwd_count}, {self.bwd_count}) relay symbols "
                f"exceed frame capacity {self.frame_len}"
            )
        for symbols, count, name in [
            (self.fwd_symbols, self.fwd_count, "fwd"),
            (self.bwd_symbols, self.bwd_count, "bwd"),
            (self.src_symbols, self.src_count, "src"),
        ]:
            if len(symbols) != count:
                raise ValueError(
                    f"node {self.node}: {name} buffer holds {len(symbols)} "
                    f"symbols, expected {count}"
                )

    @property
    def fwd_count(self) -> int:
        return int(self.fwd_rate * self.period)

    @property
    def bwd_count(self) -> int:
        return int(self.bwd_rate * self.period)

    @property
    def src_count(self) -> int:
        return int(self.src_rate * self.period)


class RateInfeasibleError(CodingError):
    """The requested rates do not fit the node's frame."""


def nested_polynomial(field: Field, state: NodeCoderState) -> List[int]:
    """Coefficients of g(x) + (h_fwd(x) + h_bwd(x)) * x^{src_count}.

    The two relay polynomials share the coefficient range above the
    source symbols; each neighbor knows one of the two summands and can
    subtract it, which is what lets one frame serve both directions.
    """
    relay = poly_add(field, state.fwd_symbols, state.bwd_symbols)
    return poly_add(field, state.src_symbols, poly_shift(relay, state.src_count))


def nested_encode(field: Field, state: NodeCoderState) -> List[int]:
    """The frame of ``state.frame_len`` packets for one period: the nested
    polynomial evaluated on the first ``frame_len`` field elements."""
    if state.frame_len > field.order:
        raise ValueError(
            f"frame length {state.frame_len} exceeds field order {field.order}"
        )
    return rs_encode(field, nested_polynomial(field, state), range(state.frame_len))


def nested_decode(
    field: Field,
    values: Sequence[Optional[int]],
    eval_set: Sequence[int],
    known_coeffs: Sequence[int],
    known_shift: int,
    expected_dim: int,
    split_at: int,
):
    """Strip the already-known nested component and decode the rest.

    Subtracts the evaluation of ``known_coeffs * x^known_shift`` from every
    survivor, interpolates a degree-<expected_dim polynomial, and splits
    its coefficients at ``split_at`` into (low, high) - typically the
    neighbor's source symbols and the relay symbols addressed to us.

    Raises InsufficientDataError when fewer than ``expected_dim`` packets
    survived, which is exactly the signature of a rate vector outside the
    achievable region.
    """
    if len(values) != len(eval_set):
        raise ValueError("values and eval_set must have equal length")
    alive = [k for k, v in enumerate(values) if v is not None]
    vals = field.array([values[k] for k in alive])
    if known_shift + len(known_coeffs):
        points = tuple(eval_set[k] for k in alive)
        V = _vandermonde(field, points, known_shift + len(known_coeffs))
        known = field.matvec(V[:, known_shift:], field.array(known_coeffs))
        vals = field.vsub(vals, known)
    cleaned: List[Optional[int]] = [None] * len(values)
    for k, v in zip(alive, vals.tolist()):
        cleaned[k] = v
    coeffs = rs_decode(field, cleaned, eval_set, expected_dim)
    return coeffs[:split_at], coeffs[split_at:]


# -- frame serialization ------------------------------------------------

def frame_to_line(values: Sequence[Optional[int]]) -> str:
    """One frame per line, decimal packets, ``*`` for erased."""
    return " ".join("*" if v is None else str(v) for v in values)


def frame_from_line(line: str) -> List[Optional[int]]:
    out: List[Optional[int]] = []
    for tok in line.split():
        out.append(None if tok == "*" else int(tok))
    return out
