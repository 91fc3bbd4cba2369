import itertools
import random
from fractions import Fraction

import pytest

from tandemnet.coding import (
    CorruptCodewordError,
    InsufficientDataError,
    NodeCoderState,
    RateInfeasibleError,
    frame_from_line,
    frame_to_line,
    nested_decode,
    nested_encode,
    nested_polynomial,
    poly_add,
    poly_shift,
    rs_decode,
    rs_encode,
)
from tandemnet.gf import field

from reference_codec import poly_eval


def naive_eval(f, coeffs, x):
    total = 0
    for k, c in enumerate(coeffs):
        total = f.add(total, f.mul(c, f.pow(x, k)))
    return total


class TestPolyEval:
    def test_matches_naive(self):
        f = field(13)
        rng = random.Random(1)
        for _ in range(100):
            coeffs = [rng.randrange(13) for _ in range(rng.randrange(1, 6))]
            x = rng.randrange(13)
            assert poly_eval(f, coeffs, x) == naive_eval(f, coeffs, x)

    def test_empty_is_zero(self):
        f = field(7)
        assert poly_eval(f, [], 5) == 0

    def test_shift_multiplies_by_x_power(self):
        f = field(11)
        coeffs = [3, 1, 4]
        shifted = poly_shift(coeffs, 2)
        for x in f.elements:
            want = f.mul(poly_eval(f, coeffs, x), f.pow(x, 2))
            assert poly_eval(f, shifted, x) == want


class TestRsRoundTrip:
    def test_exhaustive_small(self):
        f = field(11)
        eval_set = list(f.elements)[:6]
        rng = random.Random(2)
        for k in (0, 1, 2, 3):
            coeffs = [rng.randrange(11) for _ in range(k)]
            word = rs_encode(f, coeffs, eval_set)
            for survivors in itertools.combinations(range(6), k):
                erased = [
                    v if i in survivors else None for i, v in enumerate(word)
                ]
                got = rs_decode(f, erased, eval_set, dim=k)
                assert got == coeffs

    def test_randomized_gf31(self):
        f = field(31)
        eval_set = list(f.elements)[:9]
        rng = random.Random(3)
        for _ in range(200):
            coeffs = [rng.randrange(31) for _ in range(4)]
            word = rs_encode(f, coeffs, eval_set)
            erase = rng.sample(range(9), 5)
            erased = [None if i in erase else v for i, v in enumerate(word)]
            assert rs_decode(f, erased, eval_set, dim=4) == coeffs

    def test_extension_field_roundtrip(self):
        f = field(16)
        eval_set = list(f.elements)[:10]
        rng = random.Random(4)
        for _ in range(50):
            coeffs = [rng.randrange(16) for _ in range(5)]
            word = rs_encode(f, coeffs, eval_set)
            keep = rng.sample(range(10), 5)
            erased = [v if i in keep else None for i, v in enumerate(word)]
            assert rs_decode(f, erased, eval_set, dim=5) == coeffs

    def test_insufficient_survivors(self):
        f = field(11)
        eval_set = [0, 1, 2, 3]
        word = rs_encode(f, [1, 2], eval_set)
        with pytest.raises(InsufficientDataError):
            rs_decode(f, [word[0], None, None, None], eval_set, dim=2)
        with pytest.raises(InsufficientDataError):
            rs_decode(f, [None] * 4, eval_set, dim=1)

    def test_corrupt_codeword_detected(self):
        f = field(11)
        eval_set = [0, 1, 2, 3, 4]
        word = rs_encode(f, [5, 6], eval_set)
        word[4] = (word[4] + 1) % 11
        with pytest.raises(CorruptCodewordError):
            rs_decode(f, word, eval_set, dim=2)

    def test_dim_zero(self):
        f = field(11)
        assert rs_decode(f, [0, None, 0], [0, 1, 2], dim=0) == []


def make_state(fwd, bwd, src, frame_len=9, period=27):
    return NodeCoderState(
        node=2,
        period=period,
        frame_len=frame_len,
        fwd_rate=Fraction(len(fwd), period),
        bwd_rate=Fraction(len(bwd), period),
        src_rate=Fraction(len(src), period),
        fwd_symbols=list(fwd),
        bwd_symbols=list(bwd),
        src_symbols=list(src),
    )


class TestNestedEncode:
    def test_relay_overlap_example(self):
        # pure relay: the frame is the codeword of h_f + h_b on the
        # first 9 field elements
        f = field(11)
        a = [3, 1, 4, 1]  # forward symbols
        b = [5, 9, 2, 6]  # backward symbols
        state = make_state(a, b, [])
        frame = nested_encode(f, state)
        expected = rs_encode(f, poly_add(f, a, b), list(range(9)))
        assert frame == expected

    def test_source_shift(self):
        f = field(11)
        g, a, b = [7, 2], [3, 0], [0, 4]
        state = make_state(a, b, g, frame_len=9)
        poly = nested_polynomial(f, state)
        want = poly_add(f, g, poly_shift(poly_add(f, a, b), 2))
        assert poly == want

    def test_empty_backward_reduces_to_fwd(self):
        f = field(11)
        a = [3, 1, 4, 1]
        state = make_state(a, [], [])
        assert nested_encode(f, state) == rs_encode(f, a, list(range(9)))

    def test_all_zero(self):
        f = field(11)
        state = make_state([0] * 4, [0] * 4, [])
        assert nested_encode(f, state) == [0] * 9

    def test_linearity(self):
        f = field(11)
        rng = random.Random(5)
        for _ in range(30):
            g = [rng.randrange(11) for _ in range(2)]
            a = [rng.randrange(11) for _ in range(3)]
            b = [rng.randrange(11) for _ in range(3)]
            whole = nested_encode(f, make_state(a, b, g))
            parts = [
                rs_encode(f, g, list(range(9))),
                rs_encode(f, poly_shift(a, 2), list(range(9))),
                rs_encode(f, poly_shift(b, 2), list(range(9))),
            ]
            combined = [
                f.add(f.add(x, y), z) for x, y, z in zip(*parts)
            ]
            assert whole == combined

    def test_capacity_validation(self):
        with pytest.raises(RateInfeasibleError):
            make_state([1] * 6, [2] * 6, [3] * 4, frame_len=9)

    def test_fractional_symbols_rejected(self):
        with pytest.raises(RateInfeasibleError):
            NodeCoderState(
                node=1, period=27, frame_len=9,
                fwd_rate=Fraction(1, 2), bwd_rate=Fraction(0),
                src_rate=Fraction(0),
                fwd_symbols=[], bwd_symbols=[], src_symbols=[],
            )


class TestNestedDecode:
    def test_known_zero_is_rs_decode(self):
        f = field(11)
        coeffs = [1, 2, 3, 4]
        word = rs_encode(f, coeffs, list(range(9)))
        low, high = nested_decode(
            f, word, list(range(9)), known_coeffs=[], known_shift=0,
            expected_dim=4, split_at=4,
        )
        assert low == coeffs and high == []

    def test_roundtrip_random_states(self):
        f = field(11)
        rng = random.Random(6)
        for _ in range(100):
            g = [rng.randrange(11) for _ in range(rng.randrange(0, 3))]
            n_rel = rng.randrange(1, 4)
            a = [rng.randrange(11) for _ in range(n_rel)]
            b = [rng.randrange(11) for _ in range(n_rel)]
            state = make_state(a, b, g)
            frame = nested_encode(f, state)
            dim = len(g) + n_rel
            keep = rng.sample(range(9), dim)
            erased = [v if i in keep else None for i, v in enumerate(frame)]
            # left-neighbor view: subtract the backward part, read (g, a)
            low, high = nested_decode(
                f, erased, list(range(9)), known_coeffs=b,
                known_shift=len(g), expected_dim=dim, split_at=len(g),
            )
            assert low == g and high == a
            # right-neighbor view: subtract the forward part, read (g, b)
            low2, high2 = nested_decode(
                f, erased, list(range(9)), known_coeffs=a,
                known_shift=len(g), expected_dim=dim, split_at=len(g),
            )
            assert low2 == g and high2 == b

    def test_boundary_insufficient(self):
        f = field(11)
        a, b = [1, 2, 3, 4], [4, 3, 2, 1]
        state = make_state(a, b, [])
        frame = nested_encode(f, state)
        erased = [v if i < 3 else None for i, v in enumerate(frame)]
        with pytest.raises(InsufficientDataError):
            nested_decode(
                f, erased, list(range(9)), known_coeffs=b, known_shift=0,
                expected_dim=4, split_at=0,
            )


class TestFrameLines:
    def test_roundtrip(self):
        values = [3, None, 0, 10, None]
        line = frame_to_line(values)
        assert line == "3 * 0 10 *"
        assert frame_from_line(line) == values

    def test_empty(self):
        assert frame_from_line("") == []
