"""Arithmetic and canonical enumeration for finite fields F_q, q = p^a with p an odd prime.

Field elements are plain Python ints in [0, q).  The int encodes the residue
polynomial in base p: digit i is the coefficient of x^i.  For prime fields
(a = 1) the encoding is just the residue mod p.  0 encodes the zero element
and 1 the multiplicative identity.

The canonical element order is 1, 2, ..., q-1, 0: nonzero elements ascending
by integer encoding, with 0 last.  Every construction in this package
(generator matrices, coset reduction, reports) uses this order.
Every field keeps one pair of exp/log tables, read by `mul` and `inv` on
ints and on integer arrays; addition is digit-wise mod p.  Multiplying by
e is F_p-linear on digit vectors: its matrix, for one e or an array of
them, is a sum of precomputed companion-matrix powers.
"""

from __future__ import annotations

import numpy as np


def prime_divisors(n: int) -> list[int]:
    """The primes dividing n, ascending (none for n < 2), by trial division."""
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return out + [n] * (n > 1)


def is_prime(n: int) -> bool:
    return prime_divisors(n) == [n]


def _polymod_mul(u, v, modulus, p):
    """Residue-polynomial product of digit lists u, v mod (modulus, p): the
    reference the exp/log tables are tested against."""
    prod = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                prod[i + j] = (prod[i + j] + ui * vj) % p
    # reduce by the monic modulus of degree a
    a = len(modulus) - 1
    for i in range(len(prod) - 1, a - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(a):
                prod[i - a + j] = (prod[i - a + j] - c * modulus[j]) % p
    return prod[:a] + [0] * (a - len(prod))


def _poly_divides(divisor, dividend, p):
    """True if monic divisor divides dividend over F_p."""
    rem = list(dividend)
    dd = len(divisor) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * divisor[j]) % p
    return not any(rem)


def _is_irreducible(modulus, p):
    """Trial division against all monic polynomials of degree <= a/2."""
    a = len(modulus) - 1
    if a == 1:
        return True
    if modulus[0] == 0:  # divisible by x
        return False
    for deg in range(1, a // 2 + 1):
        for idx in range(p**deg):
            cand = []
            t = idx
            for _ in range(deg):
                cand.append(t % p)
                t //= p
            cand.append(1)
            if _poly_divides(cand, modulus, p):
                return False
    return True


def smallest_irreducible(p: int, a: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree a over F_p.

    Candidates x^a + c are scanned by ascending integer encoding of the
    non-leading part c (deterministic, reproducible).
    """
    if a == 1:
        return (0, 1)  # the trivial modulus x
    for idx in range(p**a):
        cand = []
        t = idx
        for _ in range(a):
            cand.append(t % p)
            t //= p
        cand.append(1)
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError(f"no irreducible of degree {a} over F_{p}")  # unreachable


class FieldCtx:
    """A finite field F_q, q = p^a with p an odd prime.

    Every field, prime or not, keeps one pair of exp/log tables of a
    primitive element, O(q) like its digit table: `mul` and `inv` read
    them for ints (an int back, at list-lookup speed) and for integer
    arrays (broadcast, an int64 array back); prime-field ints multiply as
    x*y mod p.  Immutable after construction and safe to share across
    parallel workers.
    """

    def __init__(self, p: int, a: int = 1, modulus=None):
        if not is_prime(p) or p == 2:
            raise ValueError(f"p not an odd prime: {p}")
        if a < 1:
            raise ValueError(f"extension degree must be >= 1, got {a}")
        self.p = p
        self.a = a
        self.q = p**a
        if modulus is None:
            modulus = smallest_irreducible(p, a)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != a + 1 or modulus[a] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {a}, got {list(modulus)}"
                )
            if a > 1 and not _is_irreducible(list(modulus), p):
                raise ValueError(f"modulus {list(modulus)} is reducible over F_{p}")
        self.modulus = tuple(modulus)

        self._enc = p ** np.arange(a, dtype=np.int64)
        self._digits = np.arange(self.q)[:, None] // self._enc % p
        # the companion matrix X of the modulus, digits(y*x) = digits(y) @ X,
        # and its powers X^0 ... X^(a-1), flattened
        X = np.eye(a, k=1, dtype=np.int64)
        X[-1] = np.negative(self.modulus[:a]) % p
        xpow = [np.eye(a, dtype=np.int64)]
        while len(xpow) < a:
            xpow.append(xpow[-1] @ X % p)
        self._xpow = np.reshape(xpow, (a, a * a))
        self._build_tables()

    def _build_tables(self):
        """exp/log tables of the first primitive element g, in O(q): g is
        primitive iff g^((q-1)/r) != 1 for each prime r | q-1, a power of
        its digit matrix M_g; exp[i] = g^i (i < q-1) is built by doubling,
        a batch times g^m being one digit matrix M_g^m.  exp is stored
        twice, then zeros, and log[0] = 2(q-1) points into the zeros: x*y
        is exp[log x + log y] with no test for 0, 1/x is exp[q-1 - log x],
        and for x = 0 that negative index wraps into the zeros too."""
        q, p, a = self.q, self.p, self.a
        primes = prime_divisors(q - 1)
        eye = np.eye(a, dtype=np.int64)

        def power(M, e):  # M^e mod p by squaring
            R = eye
            while e:
                if e & 1:
                    R = R @ M % p
                M, e = M @ M % p, e >> 1
            return R

        g = next(g for g in range(2, q) if all(
            (power(self.mul_digit_matrix(g), (q - 1) // r) != eye).any()
            for r in primes))
        M, exp = self.mul_digit_matrix(g), np.ones(1, dtype=np.int64)
        while len(exp) < q - 1:
            exp = np.concatenate([exp, self._digits[exp] @ M % p @ self._enc])
            M = M @ M % p
        exp, log = exp[:q - 1], np.full(q, 2 * (q - 1), dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._exp = np.concatenate([exp, exp, np.zeros(2 * q - 1, np.int64)])
        self._log, el = log, exp.tolist()
        self._expl, self._logl = el + el + [0] * (2 * q - 1), log.tolist()

    # ------------------------------------------------------------------
    # arithmetic: mul and inv on ints or integer arrays
    # ------------------------------------------------------------------
    def _digitwise(self, x: int, y: int, s: int) -> int:
        """x + s*y: digit-wise mod p, with plain integer arithmetic."""
        p, r, m = self.p, 0, 1
        while x or y:
            r += (x + s * y) % p * m
            x, y, m = x // p, y // p, m * p
        return r

    def add(self, x: int, y: int) -> int:
        if self.a == 1:
            return (x + y) % self.p
        return self._digitwise(x, y, 1)

    def sub(self, x: int, y: int) -> int:
        return self._digitwise(x, y, -1)

    def neg(self, x: int) -> int:
        return self._digitwise(0, x, -1)

    def mul(self, x, y):
        """x*y: an int for two ints (a list lookup), else the int64 array
        of the broadcast products of integer arrays (one gather)."""
        if type(x) is int and type(y) is int:
            if self.a == 1:
                return x * y % self.p
            lg = self._logl
            return self._expl[lg[x] + lg[y]]
        out = self._exp[self._log[x] + self._log[y]]
        return out if np.ndim(out) else int(out)

    def inv(self, x):
        """1/x: an int for an int, raising ZeroDivisionError at 0, else the
        int64 array of the inverses of an integer array, 0 at 0."""
        if type(x) is int or not np.ndim(x):
            if x == 0:
                raise ZeroDivisionError("inverse of 0 in a finite field")
            return self._expl[self.q - 1 - self._logl[x]]
        return self._exp[self.q - 1 - self._log[x]]

    def pow(self, x: int, e: int) -> int:
        """x**e with e a nonnegative integer; x**0 == 1."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0 or x == 0:
            return int(e == 0)
        return self._expl[self._logl[x] * e % (self.q - 1)]

    # ------------------------------------------------------------------
    # enumeration and encoding
    # ------------------------------------------------------------------
    def elements(self) -> tuple[int, ...]:
        """All q elements in canonical order: 1, ..., q-1, 0."""
        return tuple(range(1, self.q)) + (0,)

    def nonzero(self) -> tuple[int, ...]:
        return tuple(range(1, self.q))

    def digits(self, e: int) -> tuple[int, ...]:
        """Base-p digit vector of the residue polynomial of e."""
        return tuple(int(v) for v in self._digits[e])

    def undigits(self, digs) -> int:
        return int(np.dot(np.asarray(digs) % self.p, self._enc))

    def digit_table(self) -> np.ndarray:
        """(q, a) int array mapping encoding -> digit vector."""
        return self._digits

    def mul_digit_matrix(self, e) -> np.ndarray:
        """(..., a, a) matrices M over F_p with digits(e*y) = digits(y) @ M,
        for one element e or an array of them: M = sum_i e_i X^i mod p, with
        e_i the digits of e and X^i the precomputed companion powers."""
        a = self.a
        return (self._digits[e] @ self._xpow % self.p).reshape(np.shape(e) + (a, a))

    def descriptor(self) -> str:
        """Field descriptor string, e.g. '5^1' or '3^2'."""
        return f"{self.p}^{self.a}"

    # FieldCtx is hashable so per-field caches can key on it.
    def __hash__(self):
        return hash((self.p, self.a, self.modulus))

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and (self.p, self.a, self.modulus) == (other.p, other.a, other.modulus))

    def __repr__(self):
        return f"FieldCtx(F_{self.q} = GF({self.p}^{self.a}))"


_CTX_CACHE: dict[tuple, FieldCtx] = {}


def field_create(p: int, a: int = 1, modulus=None) -> FieldCtx:
    """Create (or fetch a cached) field context for GF(p^a)."""
    key = (p, a, tuple(modulus) if modulus is not None else None)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = FieldCtx(p, a, modulus)
        _CTX_CACHE[key] = ctx
    return ctx


def field_for_size(q: int) -> FieldCtx:
    """Field context for the (unique) field of size q = p^a, default modulus."""
    primes = prime_divisors(q)
    if len(primes) != 1 or primes == [2]:
        raise ValueError(f"{q} is not an odd prime power")
    p = primes[0]
    return field_create(p, next(a for a in range(1, q) if p**a == q))


def parse_descriptor(text: str) -> FieldCtx:
    """Parse 'p^a' or 'p^a m0,m1,...,1' (modulus coefficients, constant first)."""
    parts = text.strip().split()
    base = parts[0]
    if "^" in base:
        ps, as_ = base.split("^", 1)
        p, a = int(ps), int(as_)
    else:
        p, a = int(base), 1
    modulus = None
    if len(parts) > 1:
        modulus = [int(c) for c in parts[1].split(",")]
    return field_create(p, a, modulus)
