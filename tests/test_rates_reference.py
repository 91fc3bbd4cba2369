"""The ALOHA optimizers in ``tandemnet.rates`` against the scalar
reference in ``reference_rates``: results must agree to the last bit."""

import math
from fractions import Fraction

import pytest

import reference_rates as ref
from tandemnet import NetworkSpec, Source, max_rate2_given_rate1, max_symmetric_rate


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
