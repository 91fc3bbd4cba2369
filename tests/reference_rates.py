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
    _grid_values,
    _link_bound,
    _min,
    _success,
)


# -- the per-scheme region copies that the region pieces replaced -----------

def _traffic_weights(spec):
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


def active_nodes(spec):
    """Nodes that carry any traffic; the rest can stay silent."""
    weights = _traffic_weights(spec)
    return [i for i in range(1, spec.M + 1) if any(weights[i - 1])]


def _free_nodes(spec, scheme):
    """Nodes the optimizers vary: for capacity and outer the constraints'
    transmitters, else the active nodes."""
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


def _exact_symmetric_rate(spec, scheme, duties):
    """Exact-rational recomputation of the symmetric bound at a duty
    assignment that covers every node (capacity/outer/slotted/nc-slotted)."""
    if scheme in ("capacity", "outer"):
        return min((_link_bound(duties, c.node, c.step) / len(c.sources)
                    for c in _constraints(spec, scheme)), default=Fraction(0))
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


def _coded_budgets(scheme, own, fwd, bwd):
    """A node's traffic classes as the budgets its transmissions must
    cover: one for plain slotted ALOHA; with network coding one coded
    stream serves both relay sides, so a node relaying both ways has two,
    own plus forward relays and own plus backward relays."""
    if scheme == "nc-slotted" and fwd and bwd:
        return [own + fwd, own + bwd]
    return [own + fwd + bwd]


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

        def budget(classes):
            used1 = 0.0
            cls2 = []
            for kind, j, s in classes:
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

        by_kind = {k: [d for d in demands if d[0] == k] for k in ("src", "fwd", "bwd")}
        return min(budget(c) for c in _coded_budgets(scheme, *by_kind.values()))

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
    layout = []  # per node and budget: (node, source-1 classes, source-2 classes)
    for i in active_nodes(spec):
        # a class is its direction: +1, -1, or 0 for the worse of the two
        own = [(j, 0) for j in (1, 2) if j in spec.attached_at(i)
               and any(d != i for d in spec.source(j).demands)]
        fwd = [(j, 1) for j in sorted(rsets.fwd[i])]
        bwd = [(j, -1) for j in sorted(rsets.bwd[i])]
        for classes in _coded_budgets(scheme, own, fwd, bwd):
            layout.append((i, [d for j, d in classes if j == 1],
                           [d for j, d in classes if j == 2]))

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
