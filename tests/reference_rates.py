"""Reference implementation of the rate optimizers.

These are the optimizers that ``tandemnet.rates`` replaced: a plain
Python loop over every grid point for slotted R2, one objective call per
candidate intensity for pure ALOHA, and the chunked numpy sweep of the
whole duty grid, (1/grid_step + 1)^k points for k free nodes, that the
chain DP replaced for capacity, outer, slotted and nc-slotted.  They are
slow and kept only as the oracle the optimizers in ``tandemnet.rates``
are tested against.  The scalar slotted and pure R2 references return
0.0 instead of -inf when R1 alone is infeasible but a source-2 class has
zero success rate.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from tandemnet.network import relay_sets
from tandemnet.rates import (
    SymmetricRateResult,
    _constraints,
    _exact_symmetric_rate,
    _free_nodes,
    _grid_values,
    _link_bound,
    _min,
    _node_symmetric_rate,
    _success,
    _traffic_weights,
    active_nodes,
)


def _max_symmetric_pure(spec, seed=0, restarts=20, sweeps=25):
    weights = _traffic_weights(spec)
    nodes = active_nodes(spec)
    M = spec.M

    def objective(lam):
        total = np.inf
        for i in nodes:
            def g(nn):
                return lam[nn - 1] if 1 <= nn <= M else 0.0
            succ_f = g(i) * math.exp(-2.0 * (g(i + 1) + g(i + 2)))
            succ_b = g(i) * math.exp(-2.0 * (g(i - 1) + g(i - 2)))
            r = float(_node_symmetric_rate("pure", weights[i - 1],
                                           np.float64(succ_f), np.float64(succ_b)))
            total = min(total, r)
        return total if total != np.inf else 0.0

    rng = np.random.default_rng(seed)
    best = (0.0, [0.0] * M)
    for trial in range(restarts):
        lam = [0.0] * M
        for i in nodes:
            lam[i - 1] = 0.25 if trial == 0 else float(rng.uniform(0, 1))
        for _ in range(sweeps):
            improved = False
            for i in nodes:
                orig = cand = lam[i - 1]
                cur = objective(lam)
                for x in np.linspace(0.0, 1.0, 41):
                    lam[i - 1] = float(x)
                    v = objective(lam)
                    if v > cur + 1e-12:
                        cur, cand = v, float(x)
                # local refinement around the best grid point
                for width in (0.025, 0.0025, 0.00025):
                    for x in np.linspace(max(0, cand - width), min(1, cand + width), 21):
                        lam[i - 1] = float(x)
                        v = objective(lam)
                        if v > cur + 1e-13:
                            cur, cand = v, float(x)
                if abs(cand - orig) > 1e-9:
                    improved = True
                lam[i - 1] = cand
            if not improved:
                break
        v = objective(lam)
        if v > best[0]:
            best = (v, list(lam))
    return SymmetricRateResult("pure", best[0], None, tuple(best[1]))


def _slotted_rate2_given_rate1(spec, scheme, r1, grid_step):
    """Grid over duties; per node the split among traffic classes is
    optimized in closed form (leftover share after serving R1 goes to
    source 2's classes)."""
    rsets = relay_sets(spec)
    nodes = active_nodes(spec)
    values = [float(v) for v in _grid_values(grid_step)]
    best = -np.inf

    def node_r2(i, f):
        def duty(nn):
            return f.get(nn, 0.0)

        succ = {
            +1: duty(i) * (1 - duty(i + 1)) * (1 - duty(i + 2)),
            -1: duty(i) * (1 - duty(i - 1)) * (1 - duty(i - 2)),
        }
        # (class) -> (source-1 load multiplier, source-2 load multiplier,
        #             success rate for that class)
        demands = []
        att = spec.attached_at(i)
        for j in (1, 2):
            if j in att and any(d != i for d in spec.source(j).demands):
                demands.append(("src", j, min(succ[+1], succ[-1])))
        for j in rsets.fwd[i]:
            demands.append(("fwd", j, succ[+1]))
        for j in rsets.bwd[i]:
            demands.append(("bwd", j, succ[-1]))
        if scheme == "nc-slotted":
            fwd = [d for d in demands if d[0] == "fwd"]
            bwd = [d for d in demands if d[0] == "bwd"]
            src = [d for d in demands if d[0] == "src"]
            merged = src[:]
            if fwd or bwd:
                # one coded stream serves both relay directions
                merged.append(("relay",
                               tuple(d[1] for d in fwd), tuple(d[1] for d in bwd),
                               succ[+1], succ[-1]))
            used1 = 0.0
            cls2 = []
            for d in merged:
                if d[0] == "src":
                    _, j, s = d
                    if s <= 0:
                        if j == 1 and r1 > 0:
                            return -np.inf
                        if j == 2:
                            return 0.0
                        continue
                    if j == 1:
                        used1 += r1 / s
                    else:
                        cls2.append(1.0 / s)
                else:
                    _, fj, bj, sf, sb = d
                    share1 = 0.0
                    per2 = 0.0
                    if 1 in fj and r1 > 0:
                        if sf <= 0:
                            return -np.inf
                        share1 = max(share1, r1 / sf)
                    if 1 in bj and r1 > 0:
                        if sb <= 0:
                            return -np.inf
                        share1 = max(share1, r1 / sb)
                    if 2 in fj:
                        if sf <= 0:
                            return 0.0
                        per2 = max(per2, 1.0 / sf)
                    if 2 in bj:
                        if sb <= 0:
                            return 0.0
                        per2 = max(per2, 1.0 / sb)
                    # shares must cover both sources' worse direction
                    used1 += share1
                    if per2:
                        cls2.append(per2)
            leftover = 1.0 - used1
            if leftover < -1e-12:
                return -np.inf
            if not cls2:
                return np.inf
            return max(leftover, 0.0) / sum(cls2)
        # plain slotted: every class has its own share
        used1 = 0.0
        cls2 = []
        for kind, j, s in demands:
            if s <= 0:
                if j == 1 and r1 > 0:
                    return -np.inf
                if j == 2:
                    return 0.0
                continue
            if j == 1:
                used1 += r1 / s
            else:
                cls2.append(1.0 / s)
        leftover = 1.0 - used1
        if leftover < -1e-12:
            return -np.inf
        if not cls2:
            return np.inf
        return max(leftover, 0.0) / sum(cls2)

    for combo in product(values, repeat=len(nodes)):
        f = {node: combo[pos] for pos, node in enumerate(nodes)}
        r2 = min(node_r2(i, f) for i in nodes)
        best = max(best, r2 if r2 != np.inf else 1.0)
    return best


def _pure_rate2_given_rate1(spec, r1, seed=0, restarts=4, sweeps=25):
    rsets = relay_sets(spec)
    nodes = active_nodes(spec)
    M = spec.M

    def node_r2(i, lam):
        def g(nn):
            return lam[nn - 1] if 1 <= nn <= M else 0.0

        succ = {
            +1: g(i) * math.exp(-2.0 * (g(i + 1) + g(i + 2))),
            -1: g(i) * math.exp(-2.0 * (g(i - 1) + g(i - 2))),
        }
        used1 = 0.0
        cls2 = []
        att = spec.attached_at(i)
        demands = []
        for j in (1, 2):
            if j in att and any(d != i for d in spec.source(j).demands):
                demands.append((j, min(succ[+1], succ[-1])))
        for j in rsets.fwd[i]:
            demands.append((j, succ[+1]))
        for j in rsets.bwd[i]:
            demands.append((j, succ[-1]))
        for j, s in demands:
            if s <= 0:
                if j == 1 and r1 > 0:
                    return -np.inf
                if j == 2:
                    return 0.0
                continue
            if j == 1:
                used1 += r1 / s
            else:
                cls2.append(1.0 / s)
        leftover = 1.0 - used1
        if leftover < -1e-12:
            return -np.inf
        if not cls2:
            return np.inf
        return max(leftover, 0.0) / sum(cls2)

    def objective(lam):
        r = min(node_r2(i, lam) for i in nodes)
        return r if r != np.inf else 1.0

    rng = np.random.default_rng(seed)
    best = -np.inf
    for trial in range(restarts):
        lam = [0.0] * M
        for i in nodes:
            lam[i - 1] = 0.25 if trial == 0 else float(rng.uniform(0, 1))
        for _ in range(sweeps):
            improved = False
            for i in nodes:
                orig = cand = lam[i - 1]
                cur = objective(lam)
                for x in np.linspace(0.0, 1.0, 41):
                    lam[i - 1] = float(x)
                    v = objective(lam)
                    if v > cur + 1e-12:
                        cur, cand = v, float(x)
                for width in (0.025, 0.0025):
                    for x in np.linspace(max(0, cand - width), min(1, cand + width), 21):
                        lam[i - 1] = float(x)
                        v = objective(lam)
                        if v > cur + 1e-13:
                            cur, cand = v, float(x)
                if abs(cand - orig) > 1e-9:
                    improved = True
                lam[i - 1] = cand
            if not improved:
                break
        best = max(best, objective(lam))
    return best



# -- the full duty-grid sweep --------------------------------------------

def _all_duties(spec, duties):
    """``duties`` extended to every node, silent where absent."""
    return {i: duties.get(i, Fraction(0)) for i in range(1, spec.M + 1)}


def _symmetric_objective(spec, scheme):
    """The common rate as a function of node -> duty (or intensity),
    minimized over the scheme's links; arrays broadcast."""
    if scheme in ("capacity", "outer"):
        links = [(c.node, c.step, len(c.sources)) for c in _constraints(spec, scheme)]
        return lambda f: _min(_link_bound(f, i, step) / n for i, step, n in links)
    nodes = active_nodes(spec)
    weights = _traffic_weights(spec)

    def rate(f):
        r = _min(
            _node_symmetric_rate(scheme, weights[i - 1], _success(scheme, f, i, 1),
                                 _success(scheme, f, i, -1))
            for i in nodes
        )
        return np.where(r == np.inf, 0.0, r)

    return rate


def _grid_max(nodes, grid_step, evaluate):
    """Largest value of ``evaluate`` over the duty grid of ``nodes`` and
    the first grid point, in lexicographic order, that attains it.

    ``evaluate`` maps node -> duty (a broadcasting array) to values.  The
    sweep takes one chunk per duty of the first node, so it holds
    (1/grid_step + 1)^(len(nodes) - 1) values at a time.  Returns
    (value, {node: Fraction duty}), or (-inf, None) if no value beats -inf.
    """
    values = _grid_values(grid_step)
    n, k = len(values), len(nodes)
    axis = np.array([float(v) for v in values])
    shape = (n,) * max(k - 1, 0)
    f = {node: axis.reshape([n if a == pos else 1 for a in range(k - 1)])
         for pos, node in enumerate(nodes[1:])}
    best, best_idx = -np.inf, None
    for i0 in range(n if k else 1):
        if k:
            f[nodes[0]] = axis[i0]
        chunk = np.broadcast_to(evaluate(f), shape)
        flat = int(np.argmax(chunk))
        if chunk.flat[flat] > best:
            best = float(chunk.flat[flat])
            best_idx = (i0, *np.unravel_index(flat, shape))
    if best_idx is None:
        return best, None
    return best, {node: values[j] for node, j in zip(nodes, best_idx)}


def grid_max_symmetric_rate(spec, scheme, grid_step):
    """``max_symmetric_rate`` for capacity, outer, slotted and nc-slotted
    by the full grid sweep."""
    _, witness = _grid_max(_free_nodes(spec, scheme), grid_step,
                           _symmetric_objective(spec, scheme))
    duties = _all_duties(spec, witness)
    exact = _exact_symmetric_rate(spec, scheme, duties)
    return SymmetricRateResult(scheme, float(exact), exact, tuple(duties.values()))


def _split_rate2(spec, scheme, r1):
    """Largest R2 at fixed R1 under an ALOHA scheme as a function of
    node -> duty (or intensity); arrays broadcast.  Returns -inf where R1
    alone overloads a node, 0.0 where a source-2 class has zero success,
    and 1.0 where no node limits R2."""
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

    def evaluate(f):
        per_node = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for i, cls1, cls2 in layout:
                succ = {1: _success(scheme, f, i, 1), -1: _success(scheme, f, i, -1)}
                succ[0] = np.minimum(succ[1], succ[-1])
                # a zero R1 needs no share, not even of a link that never succeeds
                used1 = sum(r1 / succ[d] for d in cls1) if r1 > 0 else 0.0
                leftover = 1.0 - used1
                r2 = np.inf
                if cls2:
                    r2 = np.maximum(leftover, 0.0) / sum(1.0 / succ[d] for d in cls2)
                per_node.append(np.where(leftover < -1e-12, -np.inf, r2))
        r = _min(per_node)
        return np.where(r == np.inf, 1.0, r)

    return evaluate


def _capacity_rate2(spec, scheme, r1):
    """The capacity or outer R2 at fixed R1 as a function of node -> duty,
    with its per-link (node, step, source-1 count, source-2 count)."""
    links = [(c.node, c.step, c.sources.count(1), c.sources.count(2))
             for c in _constraints(spec, scheme)]
    r1_float = float(r1)

    def evaluate(f):
        r2 = []
        for i, step, w1, w2 in links:
            slack = _link_bound(f, i, step) - w1 * r1_float
            # a link without source 2 only decides whether R1 fits
            r2.append(np.where(slack >= -1e-12, slack / w2 if w2 else np.inf, -np.inf))
        r2 = _min(r2)
        return np.where(np.isinf(r2) & (r2 > 0), 1.0, r2)

    return links, evaluate


def grid_rate2_given_rate1(spec, scheme, r1, grid_step):
    """``max_rate2_given_rate1`` for capacity, outer, slotted and
    nc-slotted by the full grid sweep."""
    nodes = _free_nodes(spec, scheme)
    if scheme in ("slotted", "nc-slotted"):
        return _grid_max(nodes, grid_step, _split_rate2(spec, scheme, float(r1)))[0]
    links, evaluate = _capacity_rate2(spec, scheme, r1)
    best, witness = _grid_max(nodes, grid_step, evaluate)
    if witness is None:
        return -np.inf
    # exact rational recompute at the winning grid point
    duties = _all_duties(spec, witness)
    r1_exact = r1 if isinstance(r1, Fraction) else Fraction(r1)
    slacks = [(_link_bound(duties, i, step) - w1 * r1_exact, w2)
              for i, step, w1, w2 in links]
    if any(slack < 0 for slack, _ in slacks):
        # float rounding put the winner marginally outside; fall back
        return best
    r2_exact = min((slack / w2 for slack, w2 in slacks if w2), default=Fraction(1))
    return r2_exact if isinstance(r1, Fraction) else float(r2_exact)
