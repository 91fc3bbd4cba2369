"""Finite field GF(q) arithmetic on canonical integer element labels.

Elements of GF(q) are represented by the integers 0..q-1.  For a prime
field this is plain modular arithmetic.  For q = p^m the integer j is
read base p, and its digits (low first) are the coefficients of a
polynomial over GF(p); multiplication reduces modulo a fixed irreducible
polynomial from IRREDUCIBLE_POLYS, so element labels are stable across
runs and machines.

The canonical element ordering is by integer label: the j-th element
(1-indexed) is the integer j-1.  In particular element 0 is the additive
identity and element 1 the multiplicative identity.

Besides the scalar methods, a Field works on numpy arrays of element
labels (``array``, ``vadd``, ``vsub``, ``vmul``, ``matvec`` and
``inverse``).  Their tables are built on first use and take O(q*m)
memory: addition is XOR in characteristic 2, digit-wise through a q x m
base-p digit table in odd characteristic, and ``% p`` in a prime field;
multiplication in an extension field adds logs.  Element ranges are
checked once per array by ``array``; the other array methods trust their
inputs.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import isqrt

import numpy as np

# Smallest monic irreducible polynomial of degree m over GF(p), encoded as
# sum_k c_k p^k (including the leading coefficient 1).  Covers all prime
# powers p^m <= 4096 with m >= 2.
IRREDUCIBLE_POLYS = {
    (2, 2): 7,
    (2, 3): 11,
    (2, 4): 19,
    (2, 5): 37,
    (2, 6): 67,
    (2, 7): 131,
    (2, 8): 283,
    (2, 9): 515,
    (2, 10): 1033,
    (2, 11): 2053,
    (2, 12): 4105,
    (3, 2): 10,
    (3, 3): 34,
    (3, 4): 86,
    (3, 5): 250,
    (3, 6): 734,
    (3, 7): 2198,
    (5, 2): 27,
    (5, 3): 131,
    (5, 4): 627,
    (5, 5): 3146,
    (7, 2): 50,
    (7, 3): 345,
    (7, 4): 2409,
    (11, 2): 122,
    (11, 3): 1346,
    (13, 2): 171,
    (13, 3): 2199,
    (17, 2): 292,
    (19, 2): 362,
    (23, 2): 530,
    (29, 2): 843,
    (31, 2): 962,
    (37, 2): 1371,
    (41, 2): 1684,
    (43, 2): 1850,
    (47, 2): 2210,
    (53, 2): 2811,
    (59, 2): 3482,
    (61, 2): 3723,
}


def _factor_prime_power(q: int):
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    p = next((c for c in range(2, isqrt(q) + 1) if q % c == 0), q)
    m = 0
    n = q
    while n % p == 0:
        n //= p
        m += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


class Field:
    """The finite field with q elements, q a prime power."""

    def __init__(self, q: int):
        p, m = _factor_prime_power(q)
        self.order = q
        self.char = p
        self.degree = m
        if m > 1:
            try:
                self._modulus = IRREDUCIBLE_POLYS[(p, m)]
            except KeyError:
                raise ValueError(
                    f"no irreducible polynomial on record for GF({p}^{m})"
                ) from None
        else:
            self._modulus = None
        self._exp = None
        self._log = None
        # Array products of two elements must not wrap around in int64.
        self._dtype = np.int64 if (q - 1) ** 2 < 2**63 else object
        if m > 1:
            self._build_tables()

    # -- representation helpers ------------------------------------------

    def _digits(self, a: int):
        p = self.char
        out = []
        for _ in range(self.degree):
            out.append(a % p)
            a //= p
        return out

    def _undigits(self, ds):
        out = 0
        for c in reversed(ds):
            out = out * self.char + c
        return out

    def _check(self, a: int):
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of GF({self.order})")
        return a

    @property
    def elements(self):
        return range(self.order)

    def element(self, j: int) -> int:
        """The j-th element (1-indexed) under the canonical ordering."""
        if not 1 <= j <= self.order:
            raise ValueError(f"element index {j} out of range for GF({self.order})")
        return j - 1

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        if self.degree == 1:
            return (a + b) % self.char
        p = self.char
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x + y) % p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        self._check(a)
        if self.degree == 1:
            return (-a) % self.char
        p = self.char
        return self._undigits([(-x) % p for x in self._digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        if self.degree == 1:
            return (a * b) % self.char
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def _polymul(self, a: int, b: int) -> int:
        p, m = self.char, self.degree
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the irreducible polynomial
        mod = []
        e = self._modulus
        while e:
            mod.append(e % p)
            e //= p
        for i in range(len(prod) - 1, m - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(m + 1):
                    k = i - m + j
                    prod[k] = (prod[k] - c * mod[j]) % p
        return self._undigits(prod[:m])

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.order})")
        if self.degree == 1:
            return pow(a, self.char - 2, self.char)
        return self._exp[(self.order - 1) - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- array arithmetic ------------------------------------------------

    def array(self, values) -> np.ndarray:
        """``values`` as an array of element labels; raises ValueError if
        any of them is not an element."""
        try:
            arr = np.asarray(values, dtype=self._dtype)
        except OverflowError:
            raise ValueError(f"values out of range for GF({self.order})") from None
        if arr.size:
            lo, hi = arr.min(), arr.max()
            if lo < 0 or hi >= self.order:
                self._check(int(lo if lo < 0 else hi))
        return arr

    # The array log of 0 is the sentinel 2(q-1): any sum of two logs that
    # involves it indexes the zero tail of the array exp table.

    @cached_property
    def _exp_array(self) -> np.ndarray:
        tail = np.zeros(len(self._exp) + 1, dtype=np.int64)
        return np.concatenate([np.asarray(self._exp, dtype=np.int64), tail])

    @cached_property
    def _log_array(self) -> np.ndarray:
        log = np.asarray(self._log, dtype=np.int64)
        log[0] = len(self._exp)
        return log

    @cached_property
    def _digit_table(self) -> np.ndarray:
        """Row a holds the base-p digits of a, low first (q x m)."""
        return np.arange(self.order)[:, None] // self._place % self.char

    @cached_property
    def _place(self) -> np.ndarray:
        return self.char ** np.arange(self.degree)

    def _from_digits(self, digits: np.ndarray) -> np.ndarray:
        """Labels of digit vectors (last axis) reduced mod p."""
        return (digits % self.char) @ self._place

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.degree == 1:
            return (a + b) % self.char
        if self.char == 2:
            return a ^ b
        return self._from_digits(self._digit_table[a] + self._digit_table[b])

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.degree == 1:
            return (a - b) % self.char
        if self.char == 2:
            return a ^ b
        return self._from_digits(self._digit_table[a] - self._digit_table[b])

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.degree == 1:
            return a * b % self.char
        return self._exp_array[self._log_array[a] + self._log_array[b]]

    def _sum_last(self, terms: np.ndarray) -> np.ndarray:
        """Field sum along the last axis."""
        if self.degree == 1:
            return terms.sum(axis=-1) % self.char
        if self.char == 2:
            return np.bitwise_xor.reduce(terms, axis=-1)
        return self._from_digits(self._digit_table[terms].sum(axis=-2))

    def matvec(self, A: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The product A x over GF(q) of an (n, k) matrix and a k-vector."""
        return self._sum_last(self.vmul(A, x))

    def inverse(self, A: np.ndarray) -> np.ndarray:
        """Inverse of a square matrix over GF(q) by Gauss-Jordan
        elimination; raises ZeroDivisionError if A is singular."""
        n = len(A)
        M = np.concatenate([A, np.eye(n, dtype=self._dtype)], axis=1)
        for col in range(n):
            nonzero = np.flatnonzero(M[col:, col])
            if nonzero.size == 0:
                raise ZeroDivisionError(f"singular matrix over GF({self.order})")
            piv = col + nonzero[0]
            M[[col, piv]] = M[[piv, col]]
            M[col] = self.vmul(M[col], self.inv(int(M[col, col])))
            factors = M[:, col].copy()
            factors[col] = 0
            M = self.vsub(M, self.vmul(factors[:, None], M[col]))
        return M[:, n:]

    # -- multiplicative tables -------------------------------------------

    def _build_tables(self):
        q = self.order
        for g in range(2, q):
            seen = [False] * q
            cur = 1
            exp = []
            ok = True
            for _ in range(q - 1):
                if seen[cur]:
                    ok = False
                    break
                seen[cur] = True
                exp.append(cur)
                cur = self._polymul(cur, g)
            if ok and cur == 1:
                log = [0] * q
                for i, v in enumerate(exp):
                    log[v] = i
                self._exp = exp + exp  # avoid a mod in mul
                self._log = log
                return
        raise AssertionError(f"no primitive element found in GF({q})")

    def __eq__(self, other):
        return isinstance(other, Field) and other.order == self.order

    def __hash__(self):
        return hash(("Field", self.order))

    def __repr__(self):
        return f"Field({self.order})"


@lru_cache(maxsize=None)
def field(q: int) -> Field:
    """Cached Field constructor."""
    return Field(q)
