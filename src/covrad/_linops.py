"""Internal helpers: the package's one Gauss-Jordan, its one digit
product, and its one digit expansion, `digit_expand`, which turns an F_q
matrix into an F_p matrix with one vectorized `mul_digit_matrix` call.

Every row reduction is one call of `subset_reduce`, a batched mod-p
Gauss-Jordan over column subsets, and only codes with no closed form take
one (`from_matrix`, code-spec files, the Glynn code): `LinearCode` reduces
its digit generator once over all columns, and `_sweeps._reduced_parity`
G's digits on every k-subset of columns or H's on the complement of every
(k+1)-subset, whichever stack is smaller.  RS and PRS codes read the same
rref, parity functionals and inverse evaluation matrix from barycentric
weights (`_sweeps._weights`); the tests hold those to this reduction.
With pivots in whole blocks of a digit columns, the F_p rref of
`digit_expand(G)` is the digits of G's F_q rref.  Its pivot inverses are
the array `inv` of F_p's `FieldCtx`, the package's one table pair.

Every F_q matmul of the package is one call of `digit_matmul`: digit rows
times a digit matrix, as a BLAS float matmul, cast to an integer dtype and
reduced mod p in integers.  It is exact because every value is a sum of at
most `width` products of residues, at most width*(p-1)^2; `exact_dtypes`
picks float32 below 2^24, float64 below 2^53, and raises beyond.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldCtx, field_create


def subset_reduce(Gd: np.ndarray, gather: np.ndarray, p: int):
    """Batched Gauss-Jordan mod p, the package's one row reduction: for
    every row S of `gather` (J column indices of the K x N matrix Gd over
    F_p), row-reduce a copy of Gd taking pivots in the columns S, in order.

    A row pointer per subset marks its next pivot row.  A column with no
    nonzero entry at or below the pointer is skipped (an identity step on
    that subset) and the subset's rank stays short.  Returns (red, rank):
    red (C, K, N) int64 and rank (C,).  With J = K and rank K, red is
    Gd_S^-1 @ Gd; with S all N columns, red is the reduced row echelon form
    of Gd.  Vectorised over subsets; loops over the J columns only.
    """
    C, J = gather.shape
    K = Gd.shape[0]
    A = np.broadcast_to(Gd % p, (C,) + Gd.shape).copy()
    inv = field_create(p).inv(np.arange(p))  # 0 at 0
    rank = np.zeros(C, dtype=np.int64)
    b, rows = np.arange(C), np.arange(K)
    for c in range(J):
        if (rank == K).all():
            break
        r = np.minimum(rank, K - 1)
        col = A[b, :, gather[:, c]]                    # (C, K)
        cand = (col != 0) & (rows >= rank[:, None])
        has = cand.any(axis=1)
        piv = np.where(has, cand.argmax(axis=1), r)
        row = A[b, piv]
        A[b, piv] = A[b, r]
        A[b, r] = row * np.where(has, inv[col[b, piv]], 1)[:, None] % p
        f = A[b, :, gather[:, c]] * has[:, None]
        f[b, r] = 0
        A -= f[:, :, None] * A[b, r][:, None, :]
        np.mod(A, p, out=A)
        rank += has
    return A, rank


def exact_dtypes(width: int, p: int):
    """(float, int) dtypes that hold every sum of `width` products of
    residues mod p exactly.  Such sums are at most width*(p-1)^2: float32
    when that is below 2^24 (its mantissa), float64 below 2^53; int16 below
    2^15, int32 below 2^31, int64 otherwise.
    """
    bound = width * (p - 1) ** 2
    if bound >= 2**53:
        raise ValueError(f"sums up to {bound} exceed the float64 mantissa")
    fdt = np.float32 if bound < 2**24 else np.float64
    idt = np.int16 if bound < 2**15 else np.int32 if bound < 2**31 else np.int64
    return fdt, idt


def digit_matmul(xd: np.ndarray, Md: np.ndarray, p: int) -> np.ndarray:
    """(xd @ Md) mod p for residue arrays xd (..., w) and Md (..., w, N),
    exact: the matmul runs in the float dtype of `exact_dtypes(w, p)` and
    the mod in its int dtype, which is also the result's.  Operands already
    in that float dtype are not copied."""
    fdt, idt = exact_dtypes(Md.shape[-2], p)
    out = (xd.astype(fdt, copy=False) @ Md.astype(fdt, copy=False)).astype(idt)
    np.mod(out, p, out=out)
    return out


# ----------------------------------------------------------------------
# digit expansion
# ----------------------------------------------------------------------

def digit_expand(ctx: FieldCtx, M) -> np.ndarray:
    """Expand an F_q matrix (r x c) to an F_p matrix (r*a x c*a): block
    (i, j) is `ctx.mul_digit_matrix(M[i][j])`, all blocks in one call.

    If v (length r) has digit vector vd (length r*a), then the digit vector
    of v @ M over F_q equals (vd @ digit_expand(M)) mod p.
    """
    M = np.asarray(M, dtype=np.int64)
    (r, c), a = M.shape, ctx.a
    return ctx.mul_digit_matrix(M).transpose(0, 2, 1, 3).reshape(r * a, c * a)


def digit_decode_cols(ctx: FieldCtx, digit_mat: np.ndarray, ncols: int) -> np.ndarray:
    """Collapse an (N, ncols*a) digit array back to (N, ncols) encodings."""
    a = ctx.a
    enc = ctx.p ** np.arange(a, dtype=np.int64)
    return (digit_mat.reshape(len(digit_mat), ncols, a) @ enc).astype(np.int64)


def mixed_radix(indices: np.ndarray, base: int, ndigits: int) -> np.ndarray:
    """Decode integers to (N, ndigits) digit arrays, least significant first."""
    out = np.empty((ndigits, len(indices)), dtype=np.int64)
    t = indices.astype(np.int64, copy=True)
    for i in range(ndigits):  # one division a digit
        high = t // base
        out[i] = t - high * base
        t = high
    return out.T
