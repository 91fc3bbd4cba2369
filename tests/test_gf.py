import random

import pytest

from tandemnet.gf import IRREDUCIBLE_POLYS, Field, field

sympy = pytest.importorskip("sympy")


SMALL_ORDERS = [2, 3, 5, 7, 11, 13, 4, 8, 9, 16, 25, 27, 49, 64, 81]


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_axioms_sampled(q):
    f = field(q)
    rng = random.Random(q)
    elems = list(f.elements)
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_inverses_exhaustive(q):
    f = field(q)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_inverses_large_orders():
    # the largest orders on record, in characteristic 2, 3 and 5
    for q in (2048, 4096, 3**7, 5**5):
        f = field(q)
        rng = random.Random(q)
        for _ in range(300):
            a = rng.randrange(1, q)
            assert f.mul(a, f.inv(a)) == 1


def test_sub_div_roundtrip():
    f = field(27)
    for a in f.elements:
        for b in range(1, 27):
            assert f.add(f.sub(a, b), b) == a
            assert f.mul(f.div(a, b), b) == a


def test_element_ordering():
    f = field(11)
    assert f.element(1) == 0
    assert f.element(2) == 1
    assert f.element(11) == 10
    with pytest.raises(ValueError):
        f.element(0)
    with pytest.raises(ValueError):
        f.element(12)


def test_rejects_non_prime_power():
    for q in (0, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            Field(q)


def test_elements_out_of_range_rejected():
    f = field(7)
    with pytest.raises(ValueError):
        f.add(7, 0)
    with pytest.raises(ValueError):
        f.mul(0, -1)


@pytest.mark.parametrize("pm", sorted(IRREDUCIBLE_POLYS))
def test_modulus_table_is_irreducible(pm):
    # independent oracle: sympy irreducibility over GF(p)
    p, m = pm
    enc = IRREDUCIBLE_POLYS[pm]
    coeffs = []
    e = enc
    while e:
        coeffs.append(e % p)
        e //= p
    assert len(coeffs) == m + 1 and coeffs[-1] == 1  # monic, degree m
    x = sympy.symbols("x")
    poly = sum(c * x**k for k, c in enumerate(coeffs))
    assert sympy.Poly(poly, x, modulus=p).is_irreducible


def test_char_and_degree():
    f = field(49)
    assert f.char == 7 and f.degree == 2 and f.order == 49
    g = field(13)
    assert g.char == 13 and g.degree == 1


def test_field_cache_returns_same_object():
    assert field(11) is field(11)


# GF(p), GF(2^m), GF(3^m), GF(5^2), and a prime whose products overflow int64
ARRAY_ORDERS = [2, 11, 4, 16, 256, 9, 27, 25, 4294967311]


@pytest.mark.parametrize("q", ARRAY_ORDERS)
def test_array_ops_match_scalar(q):
    f = field(q)
    rng = random.Random(q)
    a = [0, 0, q - 1] + [rng.randrange(q) for _ in range(200)]
    b = [0, q - 1, 0] + [rng.randrange(q) for _ in range(200)]
    x, y = f.array(a), f.array(b)
    assert f.vadd(x, y).tolist() == [f.add(u, v) for u, v in zip(a, b)]
    assert f.vsub(x, y).tolist() == [f.sub(u, v) for u, v in zip(a, b)]
    assert f.vmul(x, y).tolist() == [f.mul(u, v) for u, v in zip(a, b)]


@pytest.mark.parametrize("q", ARRAY_ORDERS)
def test_matvec_and_inverse(q):
    f = field(q)
    rng = random.Random(q)
    for n in (1, 2, 5):
        A = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        v = [rng.randrange(q) for _ in range(n)]
        want = []
        for row in A:
            acc = 0
            for c, w in zip(row, v):
                acc = f.add(acc, f.mul(c, w))
            want.append(acc)
        M = f.array(A)
        assert f.matvec(M, f.array(v)).tolist() == want
        try:
            inv = f.inverse(M)
        except ZeroDivisionError:
            continue
        assert f.matvec(inv, f.matvec(M, f.array(v))).tolist() == v
    singular = f.array([[1, 1], [1, 1]])
    with pytest.raises(ZeroDivisionError):
        f.inverse(singular)


@pytest.mark.parametrize("bad", [[7], [0, -1], [2**70], [[1, 2], [3, 8]]])
def test_array_rejects_non_elements(bad):
    with pytest.raises(ValueError):
        field(7).array(bad)


def test_array_tables_built_on_first_use():
    f = Field(27)
    assert "_digit_table" not in vars(f) and "_exp_array" not in vars(f)
    f.vmul(f.vadd(f.array([1, 2]), f.array([3, 4])), f.array([5, 6]))
    assert "_digit_table" in vars(f) and "_exp_array" in vars(f)
