"""The rate optimizers in ``tandemnet.rates`` against the references in
``reference_rates``: the scalar ALOHA loops and the full duty-grid
sweep.  Results must agree to the last bit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_rates as ref
from tandemnet import (
    AlohaParams,
    NetworkSpec,
    Source,
    aloha_region_point,
    max_rate2_given_rate1,
    max_symmetric_rate,
    region_boundary,
)
from tandemnet.rates import (
    SCHEMES, _along, _chain_max, _link_bound, _min, _pieces, _ray_max, _terms,
)


def _chain(M, first, second):
    (a1, d1), (a2, d2) = first, second
    return NetworkSpec(M, [Source(1, a1, frozenset(d1)), Source(2, a2, frozenset(d2))])


CHAINS = {
    "ex1": _chain(4, (1, {4}), (4, {1})),
    # ex2 is also the five-node fixture
    "ex2": _chain(5, (2, {1, 5}), (4, {1, 5})),
    "own-demand": _chain(5, (2, {2, 5}), (4, {1})),
    "three-node": _chain(3, (1, {3}), (3, {1})),
    "two-node": _chain(2, (1, {2}), (2, {1})),
}
GRID = Fraction(1, 12)
RATES1 = (0.0, 0.05, 0.1, 0.2)
# Pure ALOHA finds no intensities that carry R1 = 0.2 on these chains.  The
# reference still returns 0.0: it stops on a point where R1 alone overloads
# a node, because it reports a source-2 class with zero success first.
OVERLOADED = {("ex2", 0.2), ("own-demand", 0.2)}


@pytest.mark.parametrize("name", CHAINS)
@pytest.mark.parametrize("scheme", ["slotted", "nc-slotted"])
def test_slotted_rate2_matches_reference(name, scheme):
    spec = CHAINS[name]
    for r1 in RATES1:
        want = ref._slotted_rate2_given_rate1(spec, scheme, r1, GRID)
        assert max_rate2_given_rate1(spec, scheme, r1, grid_step=GRID) == want, r1


@pytest.mark.parametrize("name", CHAINS)
def test_pure_rate2_matches_reference(name):
    spec = CHAINS[name]
    for r1 in RATES1:
        want = ref._pure_rate2_given_rate1(spec, r1)
        if (name, r1) in OVERLOADED:
            assert want == 0.0
            want = -math.inf
        assert max_rate2_given_rate1(spec, "pure", r1) == want, r1


@pytest.mark.parametrize("name", CHAINS)
def test_pure_symmetric_matches_reference(name):
    spec = CHAINS[name]
    want = ref._max_symmetric_pure(spec, restarts=3)
    assert max_symmetric_rate(spec, "pure", restarts=3) == want


GRID_SCHEMES = ["capacity", "outer", "slotted", "nc-slotted"]
# the full sweep costs (steps + 1)^k for k free nodes; a drawn grid is
# coarsened until it fits, down to 1/4
SWEEP_POINTS = 2 * 10**5


@st.composite
def chains(draw, sources=(1, 3), remote=False):
    """A random chain, M 2-7, with the given range of source counts;
    ``remote`` sources demand only nodes other than their own."""
    M = draw(st.integers(2, 7))
    out = []
    for j in range(1, draw(st.integers(*sources)) + 1):
        attach = draw(st.integers(1, M))
        nodes = [i for i in range(1, M + 1) if not (remote and i == attach)]
        out.append(Source(j, attach, frozenset(
            draw(st.sets(st.sampled_from(nodes), min_size=1, max_size=3)))))
    return NetworkSpec(M, out)


def _grid(spec, scheme, steps):
    k = len(ref._free_nodes(spec, scheme))
    while steps > 4 and (steps + 1) ** k > SWEEP_POINTS:
        steps -= 1
    return Fraction(1, steps)


def _same(a, b):
    return a == b and type(a) is type(b)


@pytest.mark.parametrize("scheme", GRID_SCHEMES)
@settings(max_examples=100, deadline=None)
@given(spec=chains(), steps=st.integers(4, 12))
def test_symmetric_rate_matches_grid_sweep(scheme, spec, steps):
    grid = _grid(spec, scheme, steps)
    got = max_symmetric_rate(spec, scheme, grid_step=grid)
    want = ref.grid_max_symmetric_rate(spec, scheme, grid)
    assert _same(got.rate, want.rate) and _same(got.rate_exact, want.rate_exact)
    assert all(_same(a, b) for a, b in zip(got.params, want.params, strict=True))


@pytest.mark.parametrize("scheme", GRID_SCHEMES)
@settings(max_examples=100, deadline=None)
@given(spec=chains(sources=(2, 2)), steps=st.integers(4, 12),
       num=st.integers(0, 24), exact=st.booleans())
def test_rate2_matches_grid_sweep(scheme, spec, steps, num, exact):
    grid = _grid(spec, scheme, steps)
    r1 = Fraction(num, 60) if exact else num / 60
    got = max_rate2_given_rate1(spec, scheme, r1, grid_step=grid)
    assert _same(got, ref.grid_rate2_given_rate1(spec, scheme, r1, grid))


@pytest.mark.parametrize("scheme", GRID_SCHEMES)
@settings(max_examples=100, deadline=None)
@given(spec=chains(sources=(2, 2)), steps=st.integers(4, 12), num=st.integers(0, 24))
def test_chain_dp_witness_matches_grid_sweep(scheme, spec, steps, num):
    """The DP's value and first maximizer against the sweep of the same
    terms, for the symmetric and the R2 objectives."""
    grid = _grid(spec, scheme, steps)
    nodes = ref._free_nodes(spec, scheme)
    pieces = _pieces(spec, scheme)
    # the symmetric ray, and R2's from (R1, 0)
    for base, ray in (([0, 0], [1, 1]), ([num / 60, 0.0], [0, 1])):
        terms = _terms(scheme, _along(pieces, base, ray))
        with np.errstate(divide="ignore", invalid="ignore"):
            want = ref._grid_max(nodes, grid, lambda f: _min(fn(f) for *_, fn in terms))
        got = _chain_max(spec.M, nodes, grid, terms)
        assert _same(got[0], want[0])
        # the DP names every node's duty, the sweep only the free ones'
        assert got[1] == (None if want[1] is None else ref._all_duties(spec, want[1]))


@pytest.mark.parametrize("name", ["ex1", "ex2", "own-demand"])
def test_nc_slotted_boundary_keeps_the_coding_gain(name):
    """(s, s) lies in the nc-slotted region for its symmetric rate s, so
    R2 at R1 = s is at least s, up to the rounding of the float R2."""
    spec = CHAINS[name]
    s = max_symmetric_rate(spec, "nc-slotted", grid_step=GRID).rate
    assert max_rate2_given_rate1(spec, "nc-slotted", s, grid_step=GRID) >= s - 1e-12


def _nc_params(spec, f, R):
    """nc-slotted parameters at duties ``f`` (node -> duty) whose source
    shares just carry the own sources at R; the rest of each node's
    transmissions is the coded relay stream."""
    splits = []
    for i in range(1, spec.M + 1):
        load = sum(R[j - 1] for j in spec.attached_at(i))
        worse = min(_link_bound(f, i, 1), _link_bound(f, i, -1))
        splits.append((min(1.0, load / worse) if load else 0.0, 0.0, 0.0))
    return AlohaParams("nc-slotted", [f[i] for i in range(1, spec.M + 1)], splits)


@settings(max_examples=200, deadline=None)
@given(spec=chains(sources=(2, 2), remote=True), data=st.data(), num=st.integers(0, 6))
def test_nc_slotted_rate2_is_the_aloha_boundary(spec, data, num):
    """At fixed grid duties, the model's nc-slotted R2 is where the ALOHA
    predicate, with the source shares R implies, turns from accept to
    reject."""
    # duties strictly inside (0, 1), so that every class can succeed
    f = {i: data.draw(st.integers(1, 11)) / 12 for i in range(1, spec.M + 1)}
    r1 = num / 60
    terms = _terms("nc-slotted", _along(_pieces(spec, "nc-slotted"), [r1, 0.0], [0, 1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = float(_min(fn({i: np.float64(x) for i, x in f.items()}) for *_, fn in terms))
    assume(1e-7 < r2 < np.inf)
    for R, inside in (([r1, r2 - 1e-7], True), ([r1, r2 + 1e-7], False)):
        assert aloha_region_point(spec, _nc_params(spec, f, R), R) is inside


def _swapped(spec):
    first, second = spec.source(1), spec.source(2)
    return NetworkSpec(spec.M, [Source(1, second.attach, second.demands),
                                Source(2, first.attach, first.demands)])


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=40, deadline=None)
@given(spec=chains(sources=(2, 2)), steps=st.integers(4, 12))
def test_largest_r1_matches_the_swapped_sources(scheme, spec, steps):
    """The boundary's largest R1, along the ray (1, 0), is R2 at R1 = 0 of
    the network with its two sources swapped, to the bit and in type."""
    grid = _grid(spec, scheme, steps)
    zero = Fraction(0) if scheme in ("capacity", "outer") else 0.0
    want = max_rate2_given_rate1(_swapped(spec), scheme, zero, grid_step=grid, seed=0)
    # the swapped route recomputes capacity and outer exactly
    assert isinstance(want, Fraction) is (scheme in ("capacity", "outer"))
    assert _same(_ray_max(spec, scheme, (zero, zero), (1, 0), grid, 0), want)
    got = region_boundary(spec, scheme, resolution=1, grid_step=grid, seed=0)[-1][0]
    assert _same(got, float(want) if want >= 0 else 0.0)
