"""The vectorized codec against the scalar reference in reference_codec.

Both sides get the same inputs and must give the same coefficients, or
raise the same exception naming the same point.
"""

from hypothesis import given, settings, strategies as st

from tandemnet.coding import CodingError, nested_decode, rs_decode, rs_encode
from tandemnet.gf import field

import reference_codec as ref

# GF(p), GF(2^m), GF(3^m), GF(5^2), and a prime whose products overflow int64
ORDERS = [2, 11, 13, 31, 4, 16, 256, 9, 27, 81, 25, 4294967311]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError:
        # the scalar and array range checks word their messages differently
        return "ValueError", None
    except CodingError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def codewords(draw):
    """A codeword with random erasures, optionally with one survivor
    corrupted or one coefficient, value or point out of range."""
    q = draw(st.sampled_from(ORDERS))
    f = field(q)
    elem = st.integers(0, q - 1)
    n = draw(st.integers(1, min(q, 12)))
    points = draw(st.lists(elem, min_size=n, max_size=n, unique=True))
    dim = draw(st.integers(0, n))
    coeffs = draw(st.lists(elem, min_size=dim, max_size=dim))
    word = ref.rs_encode(f, coeffs, points)
    # from no erasure up to one survivor too few
    kept = n - draw(st.integers(0, min(n - dim + 1, n)))
    order = draw(st.permutations(range(n)))
    values = [v if order[k] < kept else None for k, v in enumerate(word)]
    alive = [k for k, v in enumerate(values) if v is not None]
    fault = draw(st.sampled_from(["none", "corrupt", "value", "point", "coeff"]))
    bad = draw(st.sampled_from([q, q + 7, -1]))
    if fault == "corrupt" and alive:
        k = draw(st.sampled_from(alive))
        values[k] = f.add(values[k], draw(st.integers(1, q - 1)))
    elif fault == "value" and alive:
        values[draw(st.sampled_from(alive))] = bad
    elif fault == "point":
        points[draw(st.integers(0, n - 1))] = bad
    elif fault == "coeff" and coeffs:
        coeffs[draw(st.integers(0, dim - 1))] = bad
    return f, coeffs, points, values, dim


@settings(max_examples=300, deadline=None)
@given(codewords())
def test_rs_encode_matches_reference(case):
    f, coeffs, points, _, _ = case
    assert outcome(rs_encode, f, coeffs, points) == outcome(ref.rs_encode, f, coeffs, points)


@settings(max_examples=300, deadline=None)
@given(codewords())
def test_rs_decode_matches_reference(case):
    f, _, points, values, dim = case
    assert outcome(rs_decode, f, values, points, dim) == \
        outcome(ref.rs_decode, f, values, points, dim)


@settings(max_examples=300, deadline=None)
@given(codewords(), st.data())
def test_nested_decode_matches_reference(case, data):
    """The frame carries g + (a + b) x^s; the decoder knows b and reads
    (g, a).  The codeword's own faults carry over to the frame."""
    f, coeffs, points, values, _ = case
    q = f.order
    s = data.draw(st.integers(0, len(coeffs)))
    relay = len(coeffs) - s
    known = data.draw(st.lists(st.integers(0, q - 1), min_size=relay, max_size=relay))
    if all(0 <= x < q for x in points):
        offset = ref.rs_encode(f, [0] * s + known, points)
        values = [
            None if v is None or not 0 <= v < q else f.add(v, w)
            for v, w in zip(values, offset)
        ]
    args = (f, values, points, known, s, len(coeffs), s)
    assert outcome(nested_decode, *args) == outcome(ref.nested_decode, *args)
