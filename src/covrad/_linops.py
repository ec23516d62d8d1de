"""Internal helpers: exact F_q linear algebra on small matrices, a batched
mod-p Gauss-Jordan over column subsets, and the base-p digit expansion that
turns F_q-linear maps into F_p matrices.

Every F_q matmul of the package is one call of `digit_matmul`: digit rows
times a digit matrix, as a BLAS float matmul, cast to an integer dtype and
reduced mod p in integers.  It is exact because every value is a sum of at
most `width` products of residues, at most width*(p-1)^2; `exact_dtypes`
picks float32 below 2^24, float64 below 2^53, and raises beyond.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldCtx


# ----------------------------------------------------------------------
# exact linear algebra over F_q (lists of lists of encodings)
# ----------------------------------------------------------------------

def mat_rref(ctx: FieldCtx, rows):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = ctx.inv(m[r][c])
        m[r] = [ctx.mul(inv, v) for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [ctx.sub(m[i][j], ctx.mul(f, m[r][j])) for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def subset_reduce(Gd: np.ndarray, gather: np.ndarray, p: int):
    """Batched Gauss-Jordan mod p: for every row S of `gather` (K column
    indices of the K x N matrix Gd over F_p), reduce Gd so that its columns
    S become the identity.

    Returns (ops, singular): ops (C, K, N) int64 holds Gd_S^-1 @ Gd mod p
    and singular (C,) flags the subsets whose Gd_S is not invertible (their
    ops rows are meaningless).  Vectorised over subsets; loops over the K
    pivot columns only.
    """
    C, K = gather.shape
    A = np.broadcast_to(Gd % p, (C,) + Gd.shape).copy()
    inv = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int64)
    singular = np.zeros(C, dtype=bool)
    b = np.arange(C)
    for c in range(K):
        col = A[b, :, gather[:, c]]                    # (C, K)
        piv = c + np.argmax(col[:, c:] != 0, axis=1)
        singular |= col[b, piv] == 0
        row = A[b, piv].copy()
        A[b, piv] = A[b, c]
        A[b, c] = row * inv[row[b, gather[:, c]]][:, None] % p
        f = A[b, :, gather[:, c]]
        f[:, c] = 0
        A -= f[:, :, None] * A[:, c:c + 1, :]
        np.mod(A, p, out=A)
    return A, singular


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
    """Expand an F_q matrix (r x c) to an F_p matrix (r*a x c*a).

    If v (length r) has digit vector vd (length r*a), then the digit vector
    of v @ M over F_q equals (vd @ digit_expand(M)) mod p.
    """
    a = ctx.a
    M = [list(row) for row in M]
    r, c = len(M), len(M[0])
    out = np.zeros((r * a, c * a), dtype=np.int64)
    for i in range(r):
        for j in range(c):
            e = M[i][j]
            if e:
                out[i * a:(i + 1) * a, j * a:(j + 1) * a] = ctx.mul_digit_matrix(e)
    return out


def digit_decode_cols(ctx: FieldCtx, digit_mat: np.ndarray, ncols: int) -> np.ndarray:
    """Collapse an (N, ncols*a) digit array back to (N, ncols) encodings."""
    a = ctx.a
    enc = ctx.p ** np.arange(a, dtype=np.int64)
    return (digit_mat.reshape(-1, ncols, a) @ enc).astype(np.int64)


def encoding_weights(ctx: FieldCtx, ncols: int) -> np.ndarray:
    """Weight vector w (length ncols*a) with digits @ w = mixed-radix encoding.

    Column j contributes q**j * (its element encoding), giving the canonical
    integer encoding of a length-ncols vector.
    """
    qp = np.asarray([ctx.q**j for j in range(ncols)], dtype=np.int64)
    pp = ctx.p ** np.arange(ctx.a, dtype=np.int64)
    return np.kron(qp, pp)


def mixed_radix(indices: np.ndarray, base: int, ndigits: int) -> np.ndarray:
    """Decode integers to (N, ndigits) digit arrays, least significant first."""
    out = np.empty((len(indices), ndigits), dtype=np.int64)
    t = indices.astype(np.int64, copy=True)
    for i in range(ndigits):
        out[:, i] = t % base
        t //= base
    return out
