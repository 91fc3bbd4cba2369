"""Reference implementation of the ALOHA rate optimizers.

These are the scalar optimizers that ``tandemnet.rates`` replaced with a
batched coordinate descent and a numpy duty-grid sweep: a plain Python
loop over every grid point for slotted R2, and one objective call per
candidate intensity for pure ALOHA.  They are slow and kept only as the
oracle the optimizers in ``tandemnet.rates`` are tested against.  They
return 0.0 instead of -inf when R1 alone is infeasible but a source-2
class has zero success rate.
"""

import math
from itertools import product

import numpy as np

from tandemnet.network import relay_sets
from tandemnet.rates import (
    SymmetricRateResult,
    _grid_values,
    _node_symmetric_rate,
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

