"""Rate regions for tandem collision networks.

A rate vector assigns each source its throughput in packets per slot
(equivalently information symbols per packet duration).  This module
evaluates:

* the achievable region of the deterministic schedule-and-relay scheme
  (per-node load constraints in both directions, with every node's own
  traffic counted on both sides),
* a matching outer bound on all protocol-sequence schemes,
* three random-access baselines -- pure ALOHA, slotted ALOHA, and
  slotted ALOHA with network coding at the relays,

plus optimizers for the maximal symmetric rate and two-source region
boundaries.  Membership predicates work in exact rational arithmetic.
The duty-parameterized schemes are optimized over a duty-factor grid by
one exact chain DP: every link bound reads W = 3 consecutive duties and
every slotted node rate W = 5, so the max-min costs O(M n^W) for n grid
values, not n^M.  Capacity and outer re-derive the winning value
exactly; pure ALOHA is optimized by a seeded coordinate descent over
intensities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .network import NetworkSpec, Source, relay_sets
from .sequences import require_table_bytes

SCHEMES = ("capacity", "outer", "pure", "slotted", "nc-slotted")


@dataclass(frozen=True)
class Constraint:
    """Sum of the named sources' rates is bounded by the throughput of
    one direction of one node's link."""

    node: int
    direction: str  # "fwd" or "bwd"
    sources: tuple

    @property
    def step(self) -> int:
        """+1 toward higher node numbers, -1 toward lower ones."""
        return 1 if self.direction == "fwd" else -1


def _link_bound(f, i: int, step: int):
    """Zero-error symbol rate of node i's link toward node i + step: node
    i sends while the receiver and the two-hop interferer beyond it are
    silent.  ``f`` maps node to duty, absent nodes are silent; duties may
    be Fractions, floats or broadcasting arrays."""
    return f.get(i, 0) * (1 - f.get(i + step, 0)) * (1 - f.get(i + 2 * step, 0))


def _exp(x):
    """``math.exp`` elementwise.  numpy's exp can differ from it in the
    last bit, which would let batched and scalar evaluations disagree."""
    if np.ndim(x) == 0:
        return math.exp(x)
    return np.array([math.exp(v) for v in np.ravel(x)]).reshape(np.shape(x))


def _success(scheme: str, f, i: int, step: int):
    """Per-slot success rate of node i's transmissions toward node
    i + step under an ALOHA scheme, before splitting among traffic
    classes; ``f`` maps node to intensity as in ``_link_bound``.  A pure
    ALOHA packet needs the receiver and the two-hop interferer silent for
    its whole (unit) duration around its start."""
    if scheme != "pure":
        return _link_bound(f, i, step)
    return f.get(i, 0) * _exp(-2.0 * (f.get(i + step, 0) + f.get(i + 2 * step, 0)))


def _min(values):
    """Elementwise minimum of broadcasting arrays; inf when empty."""
    return reduce(np.minimum, values, np.inf)


def capacity_constraints(spec: NetworkSpec) -> List[Constraint]:
    """Constraints of the achievable region.

    A node's forward link carries its forward relays plus all of its own
    sources with a demand on either side: every attached source's symbols
    ride both directions' frames (the relays need them to cancel), so
    they load both links.
    """
    rsets = relay_sets(spec)
    out = []
    for i in range(1, spec.M + 1):
        attached = set(spec.attached_at(i))
        fwd = tuple(sorted(rsets.fwd[i] | attached))
        bwd = tuple(sorted(rsets.bwd[i] | attached))
        if fwd and i < spec.M:
            out.append(Constraint(i, "fwd", fwd))
        if bwd and i > 1:
            out.append(Constraint(i, "bwd", bwd))
    return out


def outer_constraints(spec: NetworkSpec) -> List[Constraint]:
    """Constraints of the outer bound: node i's forward link must carry
    every source attached at or before i with a demand beyond i."""
    rsets = relay_sets(spec)
    out = []
    for i in range(1, spec.M + 1):
        if rsets.fwd_incl[i]:
            out.append(Constraint(i, "fwd", tuple(sorted(rsets.fwd_incl[i]))))
        if rsets.bwd_incl[i]:
            out.append(Constraint(i, "bwd", tuple(sorted(rsets.bwd_incl[i]))))
    return out


def _constraints(spec: NetworkSpec, kind: str) -> List[Constraint]:
    return capacity_constraints(spec) if kind == "capacity" else outer_constraints(spec)


def _check_constraints(constraints, f, R) -> bool:
    duties = dict(enumerate(f, 1))
    return all(
        sum(R[j - 1] for j in c.sources) <= _link_bound(duties, c.node, c.step)
        for c in constraints
    )


def achievable_point(spec: NetworkSpec, f: Sequence, R: Sequence) -> bool:
    """Is the rate vector achievable with the given duty factors?"""
    _validate_point(spec, f, R)
    return _check_constraints(capacity_constraints(spec), f, R)


def outer_point(spec: NetworkSpec, f: Sequence, R: Sequence) -> bool:
    """Does the rate vector satisfy the outer bound at these duties?"""
    _validate_point(spec, f, R)
    return _check_constraints(outer_constraints(spec), f, R)


def _validate_point(spec, f, R):
    if len(f) != spec.M:
        raise ValueError(f"need {spec.M} duty factors, got {len(f)}")
    if len(R) != spec.N:
        raise ValueError(f"need {spec.N} rates, got {len(R)}")
    if any(x < 0 or x > 1 for x in f):
        raise ValueError("duty factors must lie in [0, 1]")
    if any(r < 0 for r in R):
        raise ValueError("rates must be nonnegative")


# -- ALOHA baselines ----------------------------------------------------

@dataclass
class AlohaParams:
    """Transmission parameters of one ALOHA variant.

    ``intensity``: per-node Poisson packet-start rate (pure ALOHA) or
    slot transmission probability (slotted variants), indexed 1..M via
    position 0..M-1.  ``splits``: per node, the probability mass devoted
    to (source, forward relay, backward relay) traffic; must sum to at
    most 1.  nc-slotted only uses the source share -- the remainder goes
    to the single coded relay stream.
    """

    scheme: str
    intensity: Sequence
    splits: Sequence[Tuple]

    def __post_init__(self):
        if self.scheme not in ("pure", "slotted", "nc-slotted"):
            raise ValueError(f"unknown ALOHA scheme {self.scheme!r}")
        for trio in self.splits:
            if len(trio) != 3 or any(x < 0 for x in trio) or sum(trio) > 1 + 1e-12:
                raise ValueError("each split must be 3 nonnegative shares summing to <= 1")


def aloha_region_point(spec: NetworkSpec, params: AlohaParams, R: Sequence) -> bool:
    """Is the rate vector supported by the given ALOHA parameters?

    Each node's successful-transmission rate is split among its own
    sources, forward relays, and backward relays according to the
    parameter shares; with in-network coding the forward and backward
    relay streams share one coded share.
    """
    if len(params.intensity) != spec.M or len(params.splits) != spec.M:
        raise ValueError("ALOHA parameters must cover every node")
    _validate_point(spec, [0] * spec.M, R)
    rsets = relay_sets(spec)
    lam = {i: float(x) for i, x in enumerate(params.intensity, 1)}
    eps = 1e-12
    for i in range(1, spec.M + 1):
        p_s, p_f, p_b = params.splits[i - 1]
        src_load = sum(R[j - 1] for j in spec.attached_at(i))
        fwd_load = sum(R[j - 1] for j in rsets.fwd[i])
        bwd_load = sum(R[j - 1] for j in rsets.bwd[i])
        succ_f = _success(params.scheme, lam, i, 1)
        succ_b = _success(params.scheme, lam, i, -1)
        if params.scheme == "nc-slotted":
            p_r = 1.0 - p_s
            checks = [
                (fwd_load, p_r * succ_f),
                (bwd_load, p_r * succ_b),
            ]
            # a source heard on both sides loads both directions at share p_s
            if src_load and not (src_load <= p_s * succ_f + eps
                                 and src_load <= p_s * succ_b + eps):
                return False
        else:
            checks = [
                (src_load, p_s * min(succ_f, succ_b)),
                (fwd_load, p_f * succ_f),
                (bwd_load, p_b * succ_b),
            ]
        for load, cap in checks:
            if load > cap + eps:
                return False
    return True


# -- symmetric-rate optimizers ------------------------------------------

@dataclass
class SymmetricRateResult:
    scheme: str
    rate: float
    rate_exact: Optional[Fraction]
    params: tuple  # duty factors or intensities, indexed by node

    def witness_str(self) -> str:
        return ";".join(_format_number(p) for p in self.params)


def _format_number(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return f"{float(x):.6g}"


def _traffic_weights(spec: NetworkSpec) -> List[Tuple[int, int, int]]:
    """Per node: how many unit-rate sources load (own, forward-relay,
    backward-relay) traffic at the symmetric point."""
    rsets = relay_sets(spec)
    out = []
    for i in range(1, spec.M + 1):
        out.append((
            len([s for s in spec.sources
                 if s.attach == i and any(d != i for d in s.demands)]),
            len(rsets.fwd[i]),
            len(rsets.bwd[i]),
        ))
    return out


def active_nodes(spec: NetworkSpec) -> List[int]:
    """Nodes that carry any traffic; the rest can stay silent."""
    weights = _traffic_weights(spec)
    return [i for i in range(1, spec.M + 1) if any(weights[i - 1])]


def _free_nodes(spec: NetworkSpec, scheme: str) -> List[int]:
    """Nodes the optimizers vary, the rest staying silent: for capacity
    and outer the constraints' transmitters, else the active nodes."""
    if scheme in ("capacity", "outer"):
        return sorted({c.node for c in _constraints(spec, scheme)})
    return active_nodes(spec)


def _node_symmetric_rate(scheme, w, succ_f, succ_b):
    """Largest common rate one node supports, with its transmissions (or
    success rate) split optimally among its traffic classes.

    ``w`` = (own sources, forward relays, backward relays); ``succ_*``
    are the directional success rates; arrays broadcast.  For slotted
    and pure the split is free, so the bound is the weighted harmonic
    combination; with network coding the two relay directions share one
    stream and only the worse direction counts.
    """
    def load(weight, succ):
        # share of transmissions one unit of rate needs; inf if it cannot get through
        if not weight:
            return 0.0
        return np.where(succ > 0, weight / np.where(succ > 0, succ, 1), np.inf)

    w_s, w_f, w_b = w
    inv_s = load(w_s, np.minimum(succ_f, succ_b))
    inv_f, inv_b = load(w_f, succ_f), load(w_b, succ_b)
    if scheme == "nc-slotted":
        denom = inv_s + np.maximum(inv_f, inv_b)
    else:
        denom = inv_s + inv_f + inv_b
    return np.where(denom > 0, 1.0 / np.where(denom > 0, denom, 1), np.inf)


def _symmetric_terms(spec: NetworkSpec, scheme: str) -> List[Tuple]:
    """The common rate as the minimum of ``(a, b, fn)`` terms, one per
    link (capacity, outer) or per active node (ALOHA): ``fn`` maps node ->
    duty (or intensity) to that bound, reads only the nodes from a to b,
    and broadcasts over arrays."""
    if scheme in ("capacity", "outer"):
        return [(c.node, c.node + 2 * c.step,
                 lambda f, i=c.node, s=c.step, n=len(c.sources): _link_bound(f, i, s) / n)
                for c in _constraints(spec, scheme)]
    weights = _traffic_weights(spec)
    return [(i - 2, i + 2,
             lambda f, i=i: _node_symmetric_rate(scheme, weights[i - 1], _success(scheme, f, i, 1),
                                                 _success(scheme, f, i, -1)))
            for i in active_nodes(spec)]


def _grid_values(grid_step: Fraction) -> List[Fraction]:
    if not 0 < grid_step <= 1:
        raise ValueError(f"grid step {grid_step} must lie in (0, 1]")
    steps = int(1 / grid_step)
    if Fraction(1, steps) != grid_step:
        raise ValueError("grid step must divide 1")
    return [Fraction(k, steps) for k in range(steps + 1)]


_CHUNK = 1 << 13  # values per DP block, unless one row of it is longer


def _chain_max(M: int, nodes: List[int], grid_step: Fraction, terms, check_only=False):
    """Largest minimum of ``terms`` over the duty grid of ``nodes`` (the
    rest of 1..M silent) and the first grid point in lexicographic order
    that attains it: (value, {node: Fraction duty}), or (-inf, None).

    Bottleneck DP (Bertele & Brioschi, *Nonserial Dynamic Programming*,
    1972) in O(M n^W), n grid values, W the widest term.  Backward, table j
    holds per duty of nodes j..j+W-2 the best minimum of the terms from j
    on; forward, each node takes the smallest duty that still reaches the
    best.  Min and max are exact, so the result is the whole grid's.  It
    first raises ValueError if its tables would pass the table limit;
    ``check_only`` stops there.
    """
    axis = np.array([float(v) for v in _grid_values(grid_step)])
    terms = [(max(1, min(a, b)), min(M, max(a, b)), fn) for a, b, fn in terms]
    width = max([2] + [hi - lo + 1 for lo, hi, _ in terms])
    size = [len(axis) if i in nodes else 1 for i in range(M + width + 1)]
    held = [math.prod(size[j:j + width - 1]) for j in range(1, M + 1)]
    require_table_bytes(8 * (sum(held) + 4 * max(held + [_CHUNK])),
                        f"the duty-grid DP at step {grid_step}")
    if check_only:
        return None
    starts = [[] for _ in range(M + 1)]
    for lo, _, fn in terms:
        starts[lo].append(fn)

    def window(j, count):
        # node -> duties of nodes j..j+count-1, one axis each; silent nodes stay out
        return {i: axis.reshape([-1 if p == i - j else 1 for p in range(count)])
                for i in range(j, j + count) if size[i] > 1}

    tables = [None] * (M + 1) + [np.full((1,) * (width - 1), np.inf)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(M, 0, -1):
            shape, f, parts = size[j:j + width], window(j, width), []
            rows = max(1, _CHUNK // math.prod(shape[1:]))
            for a in range(0, shape[0], rows):
                if j in f:
                    f[j] = axis[a:a + rows].reshape([-1] + [1] * (width - 1))
                block = np.minimum(_min(fn(f) for fn in starts[j]), tables[j + 1])
                chunk = [min(rows, shape[0] - a)] + shape[1:]
                parts.append(np.broadcast_to(block, chunk).max(axis=-1))
            tables[j] = np.concatenate(parts)
        best = float(tables[1].max())
        if best == -np.inf:
            return best, None
        picks = {}
        for j in range(1, M + 1):
            f = {i: axis[k] for i, k in picks.items() if size[i] > 1}
            f.update(window(j, width - 1))
            # the terms begun before j that may still read nodes from j on
            begun = _min(fn(f) for lo in range(max(1, j - width + 1), j) for fn in starts[lo])
            reach = np.broadcast_to(np.minimum(begun, tables[j]), tables[j].shape)
            picks[j] = int(np.argmax(reach.reshape(size[j], -1).max(axis=1) >= best))
    return best, {i: Fraction(k, len(axis) - 1) for i, k in picks.items()}


def _replay(values, xs, cur, cand, margin):
    """The sequential scan rule: take a point that beats the current best
    by more than ``margin``."""
    for v, x in zip(values, xs):
        if v > cur + margin:
            cur, cand = v, x
    return cur, cand


def _descend(nodes, terms, unbounded, seed, restarts, widths, sweeps=25):
    """Seeded coordinate descent over intensities in [0, 1] of the least
    of ``terms``, ``unbounded`` where none limits; returns (best value,
    {node: intensity}).

    Restart 0 starts every node at 0.25, the others at seeded uniform
    draws.  Each coordinate is scanned at 41 points, then refined at 21
    points within each of ``widths`` around the current choice; a point
    is taken when it beats the current value by more than 1e-12 (1e-13
    when refining).  Each scan is evaluated as one array and the rule is
    replayed over it in order, so the search path is the sequential one.
    """
    def evaluate(f):
        r = _min(fn(f) for *_, fn in terms)
        return np.where(r == np.inf, unbounded, r)

    def batch(lam, i, xs):
        f = {n: np.float64(v) for n, v in lam.items()}
        f[i] = np.asarray(xs, dtype=float)
        return np.broadcast_to(evaluate(f), np.shape(xs)).tolist()

    rng = np.random.default_rng(seed)
    best = (-np.inf, {})
    for trial in range(restarts):
        lam = {i: 0.25 if trial == 0 else float(rng.uniform(0, 1)) for i in nodes}
        for _ in range(sweeps):
            improved = False
            for i in nodes:
                orig = lam[i]
                xs = np.linspace(0.0, 1.0, 41).tolist()
                cur, *values = batch(lam, i, [orig] + xs)
                cur, cand = _replay(values, xs, cur, orig, 1e-12)
                for width in widths:
                    xs = np.linspace(max(0, cand - width), min(1, cand + width), 21).tolist()
                    cur, cand = _replay(batch(lam, i, xs), xs, cur, cand, 1e-13)
                if abs(cand - orig) > 1e-9:
                    improved = True
                lam[i] = cand
            if not improved:
                break
        v = float(evaluate({n: np.float64(x) for n, x in lam.items()}))
        if v > best[0]:
            best = (v, lam)
    return best


def _exact_symmetric_rate(spec, scheme, duties: Dict[int, Fraction]) -> Fraction:
    """Exact-rational recomputation of the symmetric bound at a duty
    assignment that covers every node (capacity/outer/slotted/nc-slotted)."""
    if scheme in ("capacity", "outer"):
        return min((fn(duties) for *_, fn in _symmetric_terms(spec, scheme)),
                   default=Fraction(0))
    weights = _traffic_weights(spec)
    rates = []
    for i in active_nodes(spec):
        sf, sb = _link_bound(duties, i, 1), _link_bound(duties, i, -1)
        loads = list(zip(weights[i - 1], (min(sf, sb), sf, sb)))
        if any(w and not s for w, s in loads):
            return Fraction(0)
        inv_s, inv_f, inv_b = (Fraction(w) / s if w else 0 for w, s in loads)
        relay = max(inv_f, inv_b) if scheme == "nc-slotted" else inv_f + inv_b
        rates.append(1 / (inv_s + relay))
    return min(rates, default=Fraction(0))


def _require_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def check_symmetric_grid(spec: NetworkSpec, scheme: str, grid_step: Fraction) -> None:
    """Raise ValueError, before any work, when ``max_symmetric_rate``
    cannot run ``scheme`` at ``grid_step``: an unknown scheme, a step that
    is not 1/n, or grid tables that would pass the table limit."""
    _require_scheme(scheme)
    if scheme != "pure":
        _chain_max(spec.M, _free_nodes(spec, scheme), grid_step,
                   _symmetric_terms(spec, scheme), check_only=True)


def max_symmetric_rate(
    spec: NetworkSpec,
    scheme: str = "capacity",
    grid_step: Fraction = Fraction(1, 60),
    seed: int = 0,
    restarts: int = 20,
) -> SymmetricRateResult:
    """Maximal common rate over the scheme's free parameters.

    The duty-parameterized schemes are maximized over a duty-factor grid
    by ``_chain_max`` (only the nodes of ``_free_nodes`` vary; the rest
    stay silent) and the winner is recomputed in exact rationals.  Pure
    ALOHA is maximized by seeded coordinate descent over intensities in
    [0, 1].  Raises ValueError as ``check_symmetric_grid`` does.
    """
    _require_scheme(scheme)
    nodes = _free_nodes(spec, scheme)
    terms = _symmetric_terms(spec, scheme)
    if scheme == "pure":
        rate, lam = _descend(nodes, terms, 0.0, seed, restarts, (0.025, 0.0025, 0.00025))
        return SymmetricRateResult(
            "pure", rate, None, tuple(lam.get(i, 0.0) for i in range(1, spec.M + 1)))
    _, duties = _chain_max(spec.M, nodes, grid_step, terms)
    exact = _exact_symmetric_rate(spec, scheme, duties)
    return SymmetricRateResult(scheme, float(exact), exact, tuple(duties.values()))


# -- two-source region boundaries ---------------------------------------

def _split_rate2(spec: NetworkSpec, scheme: str, r1: float) -> List[Tuple]:
    """Largest R2 at fixed R1 under an ALOHA scheme, as one ``(a, b,
    fn)`` term per active node (see ``_symmetric_terms``).

    Each node splits its transmissions among traffic classes.  A class
    carries one source and needs the success rate of one direction
    (relays) or of the worse direction (own sources; with network coding
    also the one coded relay stream, which serves both directions).  R1's
    classes take their shares first and source 2 gets what is left.  A
    term is -inf where R1 alone overloads the node, 0.0 where a source-2
    class has zero success, and inf where the node carries no source-2
    class.
    """
    rsets = relay_sets(spec)
    layout = []  # per node: (node, source-1 classes, source-2 classes)
    for i in active_nodes(spec):
        # a class is its direction: +1, -1, or 0 for the worse of the two
        classes = [(j, 0) for j in (1, 2) if j in spec.attached_at(i)
                   and any(d != i for d in spec.source(j).demands)]
        if scheme == "nc-slotted":
            for j in (1, 2):
                fwd, bwd = j in rsets.fwd[i], j in rsets.bwd[i]
                if fwd or bwd:
                    classes.append((j, 0 if fwd and bwd else (1 if fwd else -1)))
        else:
            classes += [(j, 1) for j in sorted(rsets.fwd[i])]
            classes += [(j, -1) for j in sorted(rsets.bwd[i])]
        layout.append((i, [d for j, d in classes if j == 1], [d for j, d in classes if j == 2]))

    def node_rate2(f, i, cls1, cls2):
        succ = {1: _success(scheme, f, i, 1), -1: _success(scheme, f, i, -1)}
        succ[0] = np.minimum(succ[1], succ[-1])
        # a zero R1 needs no share, not even of a link that never succeeds
        used1 = sum(r1 / succ[d] for d in cls1) if r1 > 0 else 0.0
        leftover = 1.0 - used1
        r2 = np.inf
        if cls2:
            r2 = np.maximum(leftover, 0.0) / sum(1.0 / succ[d] for d in cls2)
        return np.where(leftover < -1e-12, -np.inf, r2)

    return [(t[0] - 2, t[0] + 2, lambda f, t=t: node_rate2(f, *t)) for t in layout]


def max_rate2_given_rate1(
    spec: NetworkSpec,
    scheme: str,
    r1: float,
    grid_step: Fraction = Fraction(1, 60),
    seed: int = 0,
) -> float:
    """Largest R2 with (R1, R2) in the scheme's region, or -inf when R1
    alone is already infeasible.  Two-source networks only.

    Pure ALOHA is searched by coordinate descent (4 seeded restarts), the
    other schemes over the duty grid by ``_chain_max``; capacity and outer
    recompute the winner exactly and return a Fraction when ``r1`` is one.
    Raises ValueError for a scheme not in SCHEMES.
    """
    _require_scheme(scheme)
    if spec.N != 2:
        raise ValueError("boundary tracing supports exactly two sources")
    nodes = _free_nodes(spec, scheme)
    exact = scheme in ("capacity", "outer")
    if exact:
        # per link: (node, step, source-1 count, source-2 count)
        links = [(c.node, c.step, c.sources.count(1), c.sources.count(2))
                 for c in _constraints(spec, scheme)]
        r1_float = float(r1)

        def link_rate2(f, i, step, w1, w2):
            slack = _link_bound(f, i, step) - w1 * r1_float
            # a link without source 2 only decides whether R1 fits
            return np.where(slack >= -1e-12, slack / w2 if w2 else np.inf, -np.inf)

        terms = [(t[0], t[0] + 2 * t[1], lambda f, t=t: link_rate2(f, *t)) for t in links]
    else:
        terms = _split_rate2(spec, scheme, float(r1))
    if scheme == "pure":
        with np.errstate(divide="ignore", invalid="ignore"):
            return _descend(nodes, terms, 1.0, seed, restarts=4, widths=(0.025, 0.0025))[0]
    best, duties = _chain_max(spec.M, nodes, grid_step, terms)
    # only a link or node without source-2 traffic gives an inf term, so
    # the best is inf only when nothing limits R2
    best = 1.0 if best == np.inf else best
    if not exact or duties is None:
        return best
    # exact rational recompute at the winning grid point
    r1_exact = r1 if isinstance(r1, Fraction) else Fraction(r1)
    slacks = [(_link_bound(duties, i, step) - w1 * r1_exact, w2)
              for i, step, w1, w2 in links]
    if any(slack < 0 for slack, _ in slacks):
        # float rounding put the winner marginally outside; fall back
        return best
    r2_exact = min((slack / w2 for slack, w2 in slacks if w2), default=Fraction(1))
    return r2_exact if isinstance(r1, Fraction) else float(r2_exact)


def region_boundary(
    spec: NetworkSpec,
    scheme: str,
    resolution: int = 25,
    grid_step: Fraction = Fraction(1, 60),
    seed: int = 0,
) -> List[Tuple[float, float]]:
    """Sampled upper boundary of a two-source region: (R1, max R2) pairs
    at ``resolution + 1`` evenly spaced R1 values from 0 to the largest
    feasible R1."""
    if spec.N != 2:
        raise ValueError("boundary tracing supports exactly two sources")
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    # largest feasible R1 = largest R2 of the mirrored network at R1=0
    mirrored = NetworkSpec(spec.M, [
        Source(1, spec.source(2).attach, spec.source(2).demands),
        Source(2, spec.source(1).attach, spec.source(1).demands),
    ])
    exact = scheme in ("capacity", "outer")
    if scheme in ("slotted", "nc-slotted"):
        # slotted boundaries are traced on a grid no finer than 1/12; the
        # clamp is kept so that their outputs stay as they were
        grid_step = max(grid_step, Fraction(1, 12))
    zero = Fraction(0) if exact else 0.0
    r1_max = max_rate2_given_rate1(mirrored, scheme, zero, grid_step, seed)
    if r1_max < 0:
        return [(0.0, 0.0)] * (resolution + 1)
    out = []
    for k in range(resolution + 1):
        r1 = r1_max * k / resolution if exact else float(r1_max) * k / resolution
        r2 = max_rate2_given_rate1(spec, scheme, r1, grid_step, seed)
        out.append((float(r1), max(float(r2), 0.0)))
    return out


# -- exact lattice membership (vectorized) ------------------------------

def membership_lattice(
    spec: NetworkSpec,
    kind: str,
    denom: int,
    R: Sequence[Fraction],
) -> np.ndarray:
    """Membership of one rate vector over the full duty-factor lattice
    {0, 1/denom, ..., 1}^M, computed in exact integer arithmetic.

    Returns a boolean array of shape (denom+1,) * M indexed by the duty
    numerators.  ``kind`` is "capacity" or "outer".
    """
    M, D = spec.M, denom
    shape = (D + 1,) * M
    axis_vals = np.arange(D + 1, dtype=np.int64)

    def duty_num(i):
        if not 1 <= i <= M:
            return np.int64(0)
        sh = [1] * M
        sh[i - 1] = D + 1
        return axis_vals.reshape(sh)

    ok = np.ones(shape, dtype=bool)
    for c in _constraints(spec, kind):
        step = c.step
        load = sum(R[j - 1] for j in c.sources)
        bound_num = duty_num(c.node) * (D - duty_num(c.node + step)) * (D - duty_num(c.node + 2 * step))
        # load <= bound_num / D^3  <=>  load.num * D^3 <= load.den * bound_num
        lhs = load.numerator * D**3
        ok &= (np.int64(load.denominator) * bound_num) >= lhs
    return ok
