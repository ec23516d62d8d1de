"""Univariate polynomials over F_q: evaluation words, Lagrange interpolation,
coefficient access, root products, and Hamming weight/distance on words.

A Word is a plain tuple of element encodings.  Polynomials are immutable;
the degree of the zero polynomial is the marker NEG_INF, which compares
below every integer.
"""

from __future__ import annotations

from .gf import FieldCtx

NEG_INF = float("-inf")


class Poly:
    """Polynomial over a FieldCtx; coeffs[i] is the coefficient of x^i."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        cs = [c % ctx.q for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        """Coefficient of x^i (zero beyond the degree)."""
        if i < 0:
            raise ValueError("coefficient index must be >= 0")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __call__(self, x: int) -> int:
        """Evaluate at x by Horner's rule."""
        ctx = self.ctx
        y = 0
        for c in reversed(self.coeffs):
            y = ctx.add(ctx.mul(y, x), c)
        return y

    def __add__(self, other: "Poly") -> "Poly":
        ctx = self.ctx
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(ctx, [ctx.add(self.coefficient(i), other.coefficient(i))
                          for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        ctx = self.ctx
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(ctx, [ctx.sub(self.coefficient(i), other.coefficient(i))
                          for i in range(n)])

    def __mul__(self, other: "Poly") -> "Poly":
        ctx = self.ctx
        if self.is_zero() or other.is_zero():
            return Poly(ctx)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    out[i + j] = ctx.add(out[i + j], ctx.mul(ci, cj))
        return Poly(ctx, out)

    def scale(self, c: int) -> "Poly":
        ctx = self.ctx
        return Poly(ctx, [ctx.mul(c, ci) for ci in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ctx == other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else (f"x^{i}" if c == 1 else f"{c}x^{i}"))
        return "Poly(" + " + ".join(terms) + ")"

    def to_text(self) -> str:
        """Wire format: comma-separated coefficient encodings, constant first."""
        return ",".join(str(c) for c in self.coeffs) if self.coeffs else "0"


# ----------------------------------------------------------------------
# words
# ----------------------------------------------------------------------

def weight(word) -> int:
    """Hamming weight: number of nonzero coordinates."""
    return sum(1 for x in word if x != 0)


def hamming(u, v) -> int:
    """Hamming distance between equal-length words."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(1 for a, b in zip(u, v) if a != b)


def evaluate_word(f: Poly, D) -> tuple:
    """The word (f(x_1), ..., f(x_n)) over an ordered evaluation set D."""
    D = tuple(D)
    if len(set(D)) != len(D):
        raise ValueError("evaluation set has duplicate points")
    return tuple(f(x) for x in D)


# ----------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------

# Per-evaluation-set cache of Lagrange basis coefficient matrices for
# `interpolate`, which coset reduction calls over the same D for every word
# it reduces; the cache is read-only after first use and safe to share.
_BASIS_CACHE: dict = {}


def lagrange_basis(ctx: FieldCtx, D) -> list[list[int]]:
    """Coefficient vectors of the Lagrange basis polynomials L_j over D.

    L_j(x_j) = 1, L_j(x_m) = 0 for m != j; each vector has length |D|.
    """
    D = tuple(D)
    key = (ctx, D)
    basis = _BASIS_CACHE.get(key)
    if basis is not None:
        return basis
    n = len(D)
    basis = []
    for j in range(n):
        num = [1]
        den = 1
        for m in range(n):
            if m == j:
                continue
            new = [0] * (len(num) + 1)
            for i, c in enumerate(num):
                new[i] = ctx.sub(new[i], ctx.mul(D[m], c))
                new[i + 1] = ctx.add(new[i + 1], c)
            num = new
            den = ctx.mul(den, ctx.sub(D[j], D[m]))
        w = ctx.inv(den)  # barycentric weight of point j
        basis.append([ctx.mul(w, c) for c in num] + [0] * (n - len(num)))
    _BASIS_CACHE[key] = basis
    return basis


def interpolate(ctx: FieldCtx, D, values) -> Poly:
    """The unique polynomial f with deg f <= |D|-1 and f(x_i) = values[i]."""
    D = tuple(D)
    values = tuple(values)
    if len(D) != len(values):
        raise ValueError(f"length mismatch: {len(D)} points, {len(values)} values")
    if len(set(D)) != len(D):
        raise ValueError("evaluation set has duplicate points")
    basis = lagrange_basis(ctx, D)
    n = len(D)
    out = [0] * n
    for j, v in enumerate(values):
        if v:
            bj = basis[j]
            for i in range(n):
                if bj[i]:
                    out[i] = ctx.add(out[i], ctx.mul(v, bj[i]))
    return Poly(ctx, out)


def from_roots(ctx: FieldCtx, S, c: int) -> Poly:
    """c * prod_{s in S} (x - s); S must have distinct elements, c != 0."""
    S = tuple(S)
    if len(set(S)) != len(S):
        raise ValueError("repeated roots")
    if c == 0:
        raise ValueError("leading coefficient must be nonzero")
    out = Poly(ctx, [c])
    for s in S:
        out = out * Poly(ctx, [ctx.neg(s), 1])
    return out
