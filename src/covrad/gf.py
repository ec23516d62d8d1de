"""Arithmetic and canonical enumeration for finite fields F_q, q = p^a with p an odd prime.

Field elements are plain Python ints in [0, q).  The int encodes the residue
polynomial in base p: digit i is the coefficient of x^i.  For prime fields
(a = 1) the encoding is just the residue mod p.  0 encodes the zero element
and 1 the multiplicative identity.

The canonical element order is 1, 2, ..., q-1, 0: nonzero elements ascending
by integer encoding, with 0 last.  Every construction in this package
(generator matrices, coset reduction, reports) uses this order.
Multiplying by e is F_p-linear on digit vectors: its matrix, for one e or
an array of them, is a sum of precomputed companion-matrix powers.
"""

from __future__ import annotations

import numpy as np

# Extension fields (a > 1) up to this size precompute exp/log tables of a
# primitive element (O(q) memory and time) for mul and inv; larger ones
# multiply residue polynomials.  Addition is digit-wise mod p and prime
# fields use integer arithmetic.
TABLE_LIMIT = 1 << 12


def is_prime(n: int) -> bool:
    """Trial-division primality test (fields here are small)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _polymod_mul(u, v, modulus, p):
    """Multiply residue polynomials u, v (digit lists) mod (modulus, p)."""
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

    Immutable after construction and safe to share across parallel workers.
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
        self._exp = self._log = None
        if a > 1 and self.q <= TABLE_LIMIT:
            self._build_tables()

    def _build_tables(self):
        """exp/log tables of the first primitive element g, in O(q): exp[i]
        = g^i for i < q-1, built by doubling, since multiplying a batch of
        elements by g^m is one F_p digit matrix, M_g^m.  g is primitive iff
        1 does not recur in exp[1:]."""
        q, p = self.q, self.p
        for g in range(2, q):
            M = self.mul_digit_matrix(g)
            exp = np.ones(1, dtype=np.int64)
            while len(exp) < q - 1:
                exp = np.concatenate([exp, self._digits[exp] @ M % p @ self._enc])
                M = M @ M % p
            exp = exp[:q - 1]
            if (exp[1:] != 1).all():
                break
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._exp, self._log = exp.tolist(), log.tolist()

    # ------------------------------------------------------------------
    # scalar arithmetic
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

    def mul(self, x: int, y: int) -> int:
        if self.a == 1:
            return (x * y) % self.p
        if self._log is not None:
            lg = self._log
            return self._exp[(lg[x] + lg[y]) % (self.q - 1)] if x and y else 0
        v = _polymod_mul(list(self.digits(x)), list(self.digits(y)),
                         list(self.modulus), self.p)
        return int(np.dot(v, self._enc))

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        if self.a == 1:
            return pow(x, self.p - 2, self.p)
        if self._log is not None:
            return self._exp[-self._log[x]]
        return self.pow(x, self.q - 2)

    def pow(self, x: int, e: int) -> int:
        """x**e with e a nonnegative integer; x**0 == 1."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        r = 1
        b = x
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

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
    for p in range(3, q + 1, 2):
        if not is_prime(p):
            continue
        a, t = 0, q
        while t % p == 0:
            t //= p
            a += 1
        if t == 1 and a >= 1:
            return field_create(p, a)
    raise ValueError(f"{q} is not an odd prime power")


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
