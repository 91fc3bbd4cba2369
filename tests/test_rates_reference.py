"""The rate optimizers in ``tandemnet.rates`` against the references in
``reference_rates``: the scalar ALOHA loops and the full duty-grid
sweep.  Results must agree to the last bit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_rates as ref
from tandemnet import NetworkSpec, Source, max_rate2_given_rate1, max_symmetric_rate
from tandemnet.rates import _chain_max, _free_nodes, _min, _split_rate2, _symmetric_terms


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
def chains(draw, sources=(1, 3)):
    """A random chain, M 2-7, with the given range of source counts."""
    M = draw(st.integers(2, 7))
    return NetworkSpec(M, [
        Source(j, draw(st.integers(1, M)),
               frozenset(draw(st.sets(st.integers(1, M), min_size=1, max_size=3))))
        for j in range(1, draw(st.integers(*sources)) + 1)
    ])


def _grid(spec, scheme, steps):
    k = len(_free_nodes(spec, scheme))
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
    nodes = _free_nodes(spec, scheme)
    if scheme in ("capacity", "outer"):
        objectives = [_symmetric_terms(spec, scheme)]
    else:
        objectives = [_symmetric_terms(spec, scheme), _split_rate2(spec, scheme, num / 60)]
    for terms in objectives:
        with np.errstate(divide="ignore", invalid="ignore"):
            want = ref._grid_max(nodes, grid, lambda f: _min(fn(f) for *_, fn in terms))
        got = _chain_max(spec.M, nodes, grid, terms)
        assert _same(got[0], want[0])
        # the DP names every node's duty, the sweep only the free ones'
        assert got[1] == (None if want[1] is None else ref._all_duties(spec, want[1]))
