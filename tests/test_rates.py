import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tandemnet import (
    AlohaParams,
    NetworkSpec,
    Source,
    achievable_point,
    aloha_region_point,
    capacity_constraints,
    max_rate2_given_rate1,
    max_symmetric_rate,
    membership_lattice,
    outer_constraints,
    outer_point,
    region_boundary,
)

F = Fraction
THIRD = F(1, 3)


class TestMembership:
    def test_symmetric_point_on_boundary(self, two_way_spec):
        f = [THIRD] * 4
        R = [F(4, 27), F(4, 27)]
        assert achievable_point(two_way_spec, f, R)
        assert outer_point(two_way_spec, f, R)
        # any epsilon more violates a binding link
        eps = F(1, 10**6)
        assert not achievable_point(two_way_spec, f, [F(4, 27) + eps, F(4, 27)])

    def test_one_sided_extreme(self, two_way_spec):
        f = [F(0), THIRD, F(1, 2), F(1)]
        assert achievable_point(two_way_spec, f, [F(0), THIRD])

    def test_zero_rates_always_inside(self, two_way_spec, five_node_spec):
        for spec in (two_way_spec, five_node_spec):
            f = [F(1, 4)] * spec.M
            zero = [F(0)] * spec.N
            assert achievable_point(spec, f, zero)
            assert outer_point(spec, f, zero)

    def test_containment(self, two_way_spec):
        rng = np.random.default_rng(2)
        for _ in range(300):
            f = [F(int(x), 12) for x in rng.integers(0, 13, size=4)]
            R = [F(int(x), 100) for x in rng.integers(0, 30, size=2)]
            if achievable_point(two_way_spec, f, R):
                assert outer_point(two_way_spec, f, R)

    def test_validation(self, two_way_spec):
        with pytest.raises(ValueError):
            achievable_point(two_way_spec, [THIRD] * 3, [F(0), F(0)])
        with pytest.raises(ValueError):
            achievable_point(two_way_spec, [THIRD] * 4, [F(-1), F(0)])
        with pytest.raises(ValueError):
            achievable_point(two_way_spec, [F(2)] + [THIRD] * 3, [F(0), F(0)])


class TestConstraints:
    def test_capacity_constraint_sources(self, two_way_spec):
        cons = capacity_constraints(two_way_spec)
        by_key = {(c.node, c.direction): set(c.sources) for c in cons}
        assert by_key[(1, "fwd")] == {1}
        assert by_key[(2, "fwd")] == {1}
        assert by_key[(3, "bwd")] == {2}
        assert (4, "fwd") not in by_key  # endpoint sends nothing forward

    def test_outer_constraint_sources(self, five_node_spec):
        cons = outer_constraints(five_node_spec)
        by_key = {(c.node, c.direction): set(c.sources) for c in cons}
        assert by_key[(2, "fwd")] == {1}
        assert by_key[(4, "bwd")] == {2}
        assert by_key[(3, "fwd")] == {1}
        assert by_key[(3, "bwd")] == {2}


class TestAloha:
    def test_nc_slotted_supports_capacity_point(self, two_way_spec):
        params = AlohaParams(
            scheme="nc-slotted",
            intensity=[THIRD] * 4,
            splits=[(1.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                    (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
        )
        R = [F(4, 27), F(4, 27)]
        assert aloha_region_point(two_way_spec, params, R)

    def test_slotted_rejects_above_capacity(self, two_way_spec):
        params = AlohaParams(
            scheme="slotted",
            intensity=[THIRD] * 4,
            splits=[(1.0, 0.0, 0.0), (0.0, 0.5, 0.5),
                    (0.0, 0.5, 0.5), (1.0, 0.0, 0.0)],
        )
        assert not aloha_region_point(two_way_spec, params, [F(4, 27), F(4, 27)])

    def test_pure_small_rate_accepted(self, two_way_spec):
        params = AlohaParams(
            scheme="pure",
            intensity=[0.25] * 4,
            splits=[(1.0, 0.0, 0.0), (0.0, 0.5, 0.5),
                    (0.0, 0.5, 0.5), (1.0, 0.0, 0.0)],
        )
        assert aloha_region_point(two_way_spec, params, [F(1, 100), F(1, 100)])

    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError):
            AlohaParams(scheme="csma", intensity=[0.1], splits=[(1, 0, 0)])
        with pytest.raises(ValueError):
            AlohaParams(scheme="pure", intensity=[0.1], splits=[(0.7, 0.7, 0.7)])


class TestSymmetricRate:
    def test_capacity_two_way_exact(self, two_way_spec):
        res = max_symmetric_rate(two_way_spec, "capacity")
        assert res.rate_exact == F(4, 27)
        assert res.params == (THIRD,) * 4

    def test_capacity_five_node(self, five_node_spec):
        res = max_symmetric_rate(five_node_spec, "capacity")
        assert abs(res.rate - 0.1716) < 0.002
        # silent end nodes
        assert res.params[0] == 0 and res.params[4] == 0

    def test_single_source_one_hop(self):
        spec = NetworkSpec(2, [Source(1, 1, frozenset({2}))])
        res = max_symmetric_rate(spec, "capacity")
        assert res.rate_exact == F(1)
        assert res.params == (F(1), F(0))

    def test_nc_slotted_matches_capacity(self, two_way_spec):
        res = max_symmetric_rate(two_way_spec, "nc-slotted")
        assert res.rate_exact == F(4, 27)

    def test_slotted_and_pure_landmarks(self, two_way_spec):
        slotted = max_symmetric_rate(two_way_spec, "slotted")
        assert abs(slotted.rate - 0.1058) < 0.002
        pure = max_symmetric_rate(two_way_spec, "pure")
        assert abs(pure.rate - 0.0678) < 0.002

    def test_unknown_scheme(self, two_way_spec):
        with pytest.raises(ValueError):
            max_symmetric_rate(two_way_spec, "fdma")

    def test_bad_grid_step(self, two_way_spec):
        for step in (F(0), F(-1, 3), F(2), F(2, 7)):
            with pytest.raises(ValueError):
                max_symmetric_rate(two_way_spec, "capacity", grid_step=step)

    @pytest.mark.parametrize("steps, rate", [(12, F(1, 6)), (60, F(49, 288))])
    def test_capacity_varies_a_node_with_only_own_demand(self, steps, rate):
        # source 2 demands only its own node 4, which carries no traffic
        # but still sends source 2's symbols on its backward link
        spec = NetworkSpec(4, [
            Source(1, 1, frozenset({4})),
            Source(2, 4, frozenset({4})),
        ])
        res = max_symmetric_rate(spec, "capacity", grid_step=F(1, steps))
        assert res.rate_exact == rate
        assert res.params[3] > 0
        assert achievable_point(spec, res.params, [rate, rate])


def _end_to_end_chain(M):
    """Sources at both ends, each demanding every other node: every node
    of the chain is free."""
    return NetworkSpec(M, [
        Source(1, 1, frozenset(range(2, M + 1))),
        Source(2, M, frozenset(range(1, M))),
    ])


class TestChainScale:
    def test_twenty_node_chain(self):
        spec = _end_to_end_chain(20)
        start = time.perf_counter()
        res = max_symmetric_rate(spec, "capacity", grid_step=F(1, 60))
        assert time.perf_counter() - start < 1.0
        assert res.rate_exact == F(4, 27)
        assert achievable_point(spec, res.params, [res.rate_exact] * 2)

    def test_capacity_memory(self):
        # the DP holds 31^2-value tables and blocks of 2^13 values, not 31^4
        spec = _end_to_end_chain(5)
        tracemalloc.start()
        try:
            res = max_symmetric_rate(spec, "capacity", grid_step=F(1, 30))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.rate_exact == F(4, 27)
        assert peak < 2**20


class TestBoundary:
    def test_capacity_endpoints_exact(self, two_way_spec):
        pts = region_boundary(two_way_spec, "capacity", resolution=4)
        assert pts[0] == (0.0, 1 / 3)
        r1, r2 = pts[-1]
        assert r1 == 1 / 3 and r2 == 0.0

    def test_monotone_decreasing(self, two_way_spec):
        pts = region_boundary(two_way_spec, "capacity", resolution=6)
        r2s = [r2 for _, r2 in pts]
        assert all(a >= b - 1e-9 for a, b in zip(r2s, r2s[1:]))

    def test_max_rate2_infeasible_r1(self, two_way_spec):
        assert max_rate2_given_rate1(two_way_spec, "capacity", 0.9) == -np.inf

    @pytest.mark.parametrize("scheme", ["slotted", "nc-slotted"])
    def test_max_rate2_infeasible_r1_slotted(self, two_way_spec, five_node_spec, scheme):
        # some grid points give source 2 a zero-success class at a node
        # that R1 alone already overloads
        for spec, r1 in ((five_node_spec, 0.9), (two_way_spec, 0.5)):
            r2 = max_rate2_given_rate1(spec, scheme, r1, grid_step=F(1, 12))
            assert r2 == -np.inf

    def test_bad_resolution(self, two_way_spec):
        for resolution in (0, -1):
            with pytest.raises(ValueError):
                region_boundary(two_way_spec, "capacity", resolution=resolution)

    def test_requires_two_sources(self):
        spec = NetworkSpec(2, [Source(1, 1, frozenset({2}))])
        with pytest.raises(ValueError):
            region_boundary(spec, "capacity")


class TestLattice:
    def test_matches_scalar_predicate(self, two_way_spec):
        rng = np.random.default_rng(6)
        for kind in ("capacity", "outer"):
            fn = achievable_point if kind == "capacity" else outer_point
            R = [F(3, 50), F(5, 40)]
            grid = membership_lattice(two_way_spec, kind, 6, R)
            for _ in range(60):
                idx = tuple(int(x) for x in rng.integers(0, 7, size=4))
                f = [F(i, 6) for i in idx]
                assert grid[idx] == fn(two_way_spec, f, R)

    def test_capacity_outer_equivalence_sample(self, two_way_spec):
        rng = np.random.default_rng(7)
        for _ in range(25):
            R = [F(int(n), 200) for n in rng.integers(0, 70, size=2)]
            a = membership_lattice(two_way_spec, "capacity", 8, R)
            b = membership_lattice(two_way_spec, "outer", 8, R)
            assert np.array_equal(a, b)
