"""Internal vectorized engines for the exhaustive distance machinery.

Two exact algorithms live here:

* a coset-profile sweep for RS/PRS-structured codes: cosets are tail
  polynomials; for each tail the best agreement A with lower-degree
  polynomials (and, for PRS, which degree-(k-1) coefficient values reach
  it) determines every error distance in the coset and which
  extra-coordinate values are deep.  It reads both from divided
  differences of the tail, F_q-linear functionals of its coefficients:
  the interpolant f_S of a tail t on a k-subset S has x^(k-1) coefficient
  [S]t, and t(x) - f_S(x) = [S + {x}]t * prod_{s in S} (x - s) for x not
  in S, so f_S agrees with t at exactly the k points of S and the x with
  [S + {x}]t = 0.  `divided_differences` tabulates both families once per
  (field, D, k).  The tails are then scored by block addition, with no
  product a tail: split into low and high coefficients, tail h*q^L + l has
  the functional values inner[:, l] + outer[:, h] digit by digit mod p,
  from one inner table per tuple of low degrees (all q^L low parts) and
  one outer vector a high part.  Both are below p, so their sum fits the
  tables' dtype np.min_scalar_type(2*(p-1)), and a value vanishes iff
  inner == -outer mod p, compared as field encodings.  A radius that
  starts at q - k only refutes tails, streaming the (k+1)-functionals in
  blocks until one vanishes on each: a block is one gather of bit-packed
  low parts, for each (functional, high part) the l whose inner value
  equals -outer.  `agreements` counts the vanishing ones of each
  k-subset.  For any linear code, `subset_ops` tabulates the same
  functionals on words, the parity functional of each (k+1)-subset:
  `dist.error_distances_mds` and `code.is_mds` read it, over the same
  `subset_index`.

* a syndrome coset-leader BFS for arbitrary linear codes: a level-
  synchronous BFS over the q^(n-k) syndromes whose edges are the n(q-1)
  weight-1 moves c*h_j.  Scaling by c in F_q^* keeps a word's weight and
  scales its syndrome, so every level is a union of scalar orbits, and the
  search visits one syndrome per orbit, the one whose most significant
  nonzero coordinate is 1 (about q^(n-k)/(q-1) of them).  Each level is
  pushed from the frontier, or pulled into the unreached representatives
  when fewer remain than the frontier holds; syndromes are added digit
  group by digit group through one shared addition table and normalized
  by table lookups.  The radius is the level at which the representatives
  run out.  The levels, and the witnesses only a listing gets, are
  expanded exactly by the q-1 scalars; one parent key a representative
  rebuilds each deep witness word, with no word matrix.

Divided differences, parity functionals and the BFS's move syndromes are
each one F_q-linear map applied as `_linops.digit_matmul`, the package's
one digit product: a float matmul exact below 2^53, reduced mod p in
integers, so every functional value, and with it every agreement and
contribution, is exact.  The RS/PRS generators are one evaluation matrix,
`_sweep_generator`; its full-degree form V and V^-1, `eval_operators`,
are the one coset map of words.  The functional tables are closed forms,
[X]x^d = h_(d-|X|+1)(X) for the tail degrees d (`_tail_table`), and the
barycentric weights, `_weights`, give the others: the parity functionals
h_U, the systematic generator and V^-1, so no RS/PRS code is
row-reduced.  Every elementwise product and inverse (barycentric weights,
h(X), 1/h_U[x], the BFS's scalar tables) is `FieldCtx.mul` or
`FieldCtx.inv` over arrays, reads of the field's one exp/log table pair.

A sweep over the full field may enumerate only degree-normalized slices
(`sliced_plans`: monic tails, subleading coefficient removed where the
characteristic allows): every coset orbit under the substitutions
x -> ax+b and scalar multiples meets the slice, and both the best
agreement and whether every extra-coordinate value reaches it are orbit
invariants, so the maximum over slices is the exact radius.  A listing
over the full field scans the slices too, and `dist._sweep` expands its
deep rows by the translations x -> x - b to the monic tails, one a scalar
orbit, and these by the F_q^* scalars; over a partial evaluation set it
scans `monic_plans`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _linops
from .gf import FieldCtx, field_create

# The one size limit of every exact engine: the most cosets, codewords,
# words, syndromes or table entries it may enumerate or tabulate.
DEFAULT_ENUM_BUDGET = 10**8
CHUNK = 1 << 16
DEEP_CANDIDATE_CAP = 5_000_000
# concurrent.futures.ProcessPoolExecutor, imported by the first `run_sweep`
# that starts a pool: its import (multiprocessing, socket, logging) would
# cost every process, most of which never start one
ProcessPoolExecutor = None


def _sweep_generator(ctx: FieldCtx, D: tuple, k: int, prs=True) -> tuple:
    """The one evaluation matrix: rows x^0 ... x^(k-1) over D by running
    products (one `ctx.mul` over D a row), plus the column e_(k-1) when
    `prs`, so a codeword's last coordinate is its x^(k-1) coefficient.  It
    is code.G of `code.rs_code` (prs=False) and `code.prs_code`."""
    n, x = len(D), np.asarray(D, dtype=np.int64)
    V = np.zeros((k, n + prs), dtype=np.int64)
    V[0, :n] = 1
    for i in range(1, k):
        V[i, :n] = ctx.mul(V[i - 1, :n], x)
    V[k - 1, n:] = 1
    shared = {}  # one int object per value, shared by the rows
    return tuple(tuple(map(shared.setdefault, r, r))
                 for r in map(np.ndarray.tolist, V))


def _keep(cache: dict, key, arrays: tuple) -> tuple:
    """Cache the arrays, read-only, among the 32 latest entries (an lru_cache
    has the `__wrapped__` that perfbench's tests take for a tracer left on)."""
    for t in arrays:
        if t is not None:
            t.flags.writeable = False
    if len(cache) >= 32:
        del cache[next(iter(cache))]
    cache[key] = arrays
    return arrays


_EVAL_OPS_CACHE: dict = {}  # the 32 latest maps


def eval_operators(ctx: FieldCtx, D: tuple):
    """The coset-coordinate map over D, cached per (ctx, D): (Vd, Vinvd),
    the read-only digit expansions of V, rows x^0 ... x^(|D|-1) over D, and
    of V^-1, the Lagrange basis of D (`_lagrange_coefficients`).
    Coefficient rows c have the values c @ V on D, and values u the
    coefficients u @ V^-1.  Raises ValueError, before allocating, when the
    two hold more than DEFAULT_ENUM_BUDGET entries."""
    if (ctx, D) in _EVAL_OPS_CACHE:
        return _EVAL_OPS_CACHE[(ctx, D)]
    N = len(D) * ctx.a
    if 2 * N * N > DEFAULT_ENUM_BUDGET:
        raise ValueError(f"evaluation matrices V and V^-1 of {N} x {N} "
                         f"digits each exceed budget {DEFAULT_ENUM_BUDGET}")
    Vd = _linops.digit_expand(ctx, _sweep_generator(ctx, D, len(D), prs=False))
    return _keep(_EVAL_OPS_CACHE, (ctx, D),
                 (Vd, _linops.digit_expand(ctx, _lagrange_coefficients(ctx, D))))


def tail_lengths(coeffs: np.ndarray) -> np.ndarray:
    """Lengths (N,) of the canonical tails of coefficient rows (N, m): one
    past the last nonzero coefficient, 0 for a zero row."""
    return np.where(coeffs != 0, np.arange(1, coeffs.shape[1] + 1), 0).max(
        axis=1, initial=0)


def _tail_tuples(coeffs: np.ndarray) -> list:
    """Canonical tails of coefficient rows (N, m): tuples of plain ints,
    constant first, with the trailing zeros stripped."""
    return [tuple(r[:t]) for r, t in zip(coeffs.tolist(),
                                         tail_lengths(coeffs).tolist())]


# ----------------------------------------------------------------------
# subsets and parity functionals
# ----------------------------------------------------------------------

def _complement(rows: np.ndarray, n: int) -> np.ndarray:
    """The ascending complements in range(n) of the index rows, of width 0
    for the empty family of (n+1)-subsets."""
    inside = np.ones((len(rows), n), dtype=bool)
    inside[np.arange(len(rows))[:, None], rows] = False
    return np.broadcast_to(np.arange(n, dtype=rows.dtype), inside.shape)[
        inside].reshape(len(rows), max(n - rows.shape[1], 0))


def _subsets(n: int, s: int) -> np.ndarray:
    """The s-subsets of range(n) as ascending rows, (C(n,s), s), in
    itertools.combinations order: X precedes X' iff its complement follows,
    so for s > n/2 they are the complements of the (n-s)-subsets reversed."""
    dt, t = np.min_scalar_type(n), min(s, n - s)
    if t < 0:
        return np.zeros((0, s), dtype=dt)
    X = np.fromiter(itertools.chain.from_iterable(itertools.combinations(
        range(n), t)), dt, math.comb(n, t) * t).reshape(math.comb(n, t), t)
    return X if t == s else _complement(X[::-1], n)


def subset_index(n: int, k: int):
    """The one subset index: (U, S, comp, up), the C(n,k+1) subsets U and
    C(n,k) subsets S of range(n) (`_subsets`), the complements comp of S as
    descending rows, and up (C(n,k), n-k), the row of U of S + {comp[s, j]}:
    the colex rank of T - {T[j]}, T = n-1-comp[s] the colex row s."""
    m, U, S = n - k, _subsets(n, k + 1), _subsets(n, k)
    T = n - 1 - _complement(S, n)[:, ::-1]
    # min(C(y, i), C0) for y < n, i <= m by Pascal's rule: the terms of a
    # valid rank are at most C0, and the cap keeps all in int32 (C0 < 2^30)
    B = np.zeros((n, m + 1), dtype=np.int32) + (np.arange(m + 1) == 0)
    for y in range(1, n):
        B[y, 1:] = np.minimum(B[y - 1, 1:] + B[y - 1, :-1], len(T))
    lo, hi = B[T, np.arange(1, m + 1)], B[T, np.arange(m)]
    up = np.cumsum(lo, axis=1, dtype=np.int32) - lo
    up += np.cumsum(hi[:, ::-1], axis=1, dtype=np.int32)[:, ::-1] - hi
    return U, S, n - 1 - T, np.asfortranarray(up)  # columns for np.take


def agreements(zero: np.ndarray, up: np.ndarray) -> np.ndarray:
    """The one agreement step: (C0, R), for each S of `subset_index` and
    each of R words, the number of x not in S where the functional of
    S + {x} vanishes, which zero (C1, R) flags; in np.min_scalar_type(n-k)."""
    agree = np.zeros((len(up), zero.shape[1]), np.min_scalar_type(up.shape[1]))
    zero = zero.view(np.uint8)
    for col in up.T:  # take gathers faster than fancy indexing
        agree += zero.take(col, axis=0)
    return agree


_SUBSET_OPS_CACHE: dict = {}  # the 32 latest tables


def subset_ops(code):
    """The parity functionals h_U of a linear [n, k] code, cached per
    (ctx, G): (table, U, comp, up, inv, singular) over `subset_index`.
    h_U is the dual codeword of the code punctured to U, scaled to 1 at
    x = max U.  An RS or PRS code reads it in closed form
    (`_parity_weights`); any other code gets it from `_reduced_parity`.
    table (C1, a, (k+1)*a) holds the blocks M(h_U[U_i])^T, so times w's
    digits on U it gives h_U . w; inv holds 1/h_U[x], x = comp[s, j],
    U = up[s, j].  singular flags the U with short pivots or a zero of h_U
    on U: the code is MDS iff none is.  Raises ValueError, before
    allocating, when the table's C1*(k+1)*a*a digits and the index's
    C0*(n-k) entries exceed DEFAULT_ENUM_BUDGET."""
    ctx, n, k, a, p = code.ctx, code.n, code.k, code.ctx.a, code.ctx.p
    m, key = n - k, (ctx, code.G)
    if key in _SUBSET_OPS_CACHE:
        return _SUBSET_OPS_CACHE[key]
    entries = math.comb(n, k + 1) * (k + 1) * a * a + math.comb(n, k) * m
    if entries > DEFAULT_ENUM_BUDGET:
        raise ValueError(f"C({n},{k + 1}) parity functionals of {(k + 1) * a}"
                         f" x {a} digits and their C({n},{k}) x {m} index = "
                         f"{entries} entries exceed budget "
                         f"{DEFAULT_ENUM_BUDGET}")
    U, _, comp, up = subset_index(n, k)
    if code.structure.get("kind") in ("rs", "prs"):
        h, short = _parity_weights(ctx, tuple(code.structure["eval"]), U), False
    else:
        h, short = _reduced_parity(code, U)
    inv = ctx.inv(h[up, comp - (m - 1 - np.arange(m))])  # x's place in S + {x}
    inv = inv.astype(np.min_scalar_type(ctx.q - 1))
    w = (k + 1) * a
    table = ctx.mul_digit_matrix(h).transpose(0, 3, 1, 2).reshape(len(U), a, w)
    ops = (table.astype(_linops.exact_dtypes(w, p)[0]), U, comp, up, inv,
           short | (h == 0).any(axis=1))
    return _keep(_SUBSET_OPS_CACHE, key, ops)


def _reduced_parity(code, U: np.ndarray):
    """(h, short): h_U of any linear code for the (k+1)-subsets U of
    `subset_index`, from `_linops.subset_reduce` of G or H, whichever has
    fewer rows, on each S = U - {x}, x = max U: G_S^-1 G has column c at x
    and h_U = (-c, 1); H pivoting on S's complement has h_U as x's row
    block.  short flags the U whose S had short pivots.  The S are reduced
    in blocks of about CHUNK*16 entries of G or H; the U of a block are
    contiguous, as U - {max U} is ascending in U's order."""
    ctx, n, k, a, p = code.ctx, code.n, code.k, code.ctx.a, code.ctx.p
    m, C = n - k, math.comb(n - 1, k)
    gen = not m or k <= m  # k = n has no U
    M = code.Gd if gen else code.HTd.T
    enc, dig, top = p ** np.arange(a), np.arange(a), _subsets(n - 1, k)
    t, x = np.repeat(np.arange(C), n - 1 - top[:, -1]), U[:, -1]  # top[t] + x
    piv = (top if gen else _complement(top, n)).astype(int)[:, :, None] * a
    piv = (piv + dig).reshape(C, piv.shape[1] * a)
    h, short = np.ones(U.shape, dtype=np.int64), np.empty(len(U), dtype=bool)
    B = max(1, CHUNK * 16 // M.size)
    for s in range(0, C, B):
        u = slice(*np.searchsorted(t, [s, s + B]))
        red, rank = _linops.subset_reduce(M, piv[s:s + B], p)
        tb = t[u] - s
        if gen:
            h[u, :-1] = (-red[:, ::a].reshape(len(red), k, n, a)[tb, :, x[u]]
                         % p @ enc)
        else:  # x is the (x - k)-th pivot; column 0 of a block has h's digits
            hx = red[:, :, ::a].reshape(len(red), m, a, n)[tb, x[u] - k]
            h[u, :-1] = enc @ np.take_along_axis(hx, U[u, None, :-1], axis=2)
        short[u] = rank[tb] < red.shape[1]
    return h, short


# ----------------------------------------------------------------------
# divided-difference functionals
# ----------------------------------------------------------------------

def _fsub(ctx: FieldCtx, x, y) -> np.ndarray:
    """x - y for broadcast int64 arrays of encodings: mod p in a prime
    field; digit by digit mod p in an extension field, where digit i of x
    is x // p^i mod p, so the differences of x // p^i and y // p^i give
    it."""
    if ctx.a == 1:
        return (x - y) % ctx.p
    out = 0
    for P in (ctx.p ** i for i in range(ctx.a)):
        out = out + (x // P - y // P) % ctx.p * P
    return out


def _weights(ctx: FieldCtx, D: tuple, X: np.ndarray,
             unit_last: bool = False) -> np.ndarray:
    """Barycentric weights (C, s) of the s-subsets X_c of D, the index rows
    of X:

        w_c(x) = prod_{y in X_c, y != x} (x - y)^-1
               = e(x)^-1 * prod_{y in D - X_c} (x - y),

    e(x) = prod_{y in D, y != x} (x - y): a product over the s - 1 other
    points of X_c, or over the n - s points of its complement when those
    are fewer, for about CHUNK weights at a time, and e a `FieldCtx.prod`;
    with `unit_last`, each row divided by its last entry.  They are the
    closed forms of the RS/PRS codes: the parity functionals
    (`_parity_weights`), the systematic generator (`code._systematic`)
    and the Lagrange basis (`_lagrange_coefficients`)."""
    n, (C, s) = len(D), X.shape
    Dx, inside = np.asarray(D, dtype=np.int64), s <= n - s
    if not inside:  # e over blocks of points x, the factors y along axis 0
        e, rows = np.empty(n, dtype=np.int64), max(1, CHUNK // n)
        for b in range(0, n, rows):
            d = _fsub(ctx, Dx[b:b + rows], Dx[:, None])
            d[np.arange(b, b + d.shape[1]), np.arange(d.shape[1])] = 1  # y = x
            e[b:b + rows] = ctx.prod(d, axis=0)
        e = ctx.inv(e)
    w = np.empty((C, s), dtype=np.int64)
    step = max(1, CHUNK // s)
    for b in range(0, C, step):
        Xb = X[b:b + step]
        x = Dx[Xb]
        if inside:
            wb = np.ones(x.shape, dtype=np.int64)
            for j in range(s):
                d = _fsub(ctx, x, x[:, j:j + 1])
                d[:, j] = 1  # y = x
                wb = ctx.mul(wb, d)
            wb = ctx.inv(wb)
        else:
            wb = e[Xb]
            for y in Dx[_complement(Xb, n)].T:
                wb = ctx.mul(wb, _fsub(ctx, x, y[:, None]))
        w[b:b + step] = ctx.mul(wb, ctx.inv(wb[:, -1:])) if unit_last else wb
    return w


def _parity_weights(ctx: FieldCtx, D: tuple, U: np.ndarray) -> np.ndarray:
    """h_U (C, k+1) of the RS code over D, or of the PRS code whose
    coordinate |D| carries the x^(k-1) coefficient, for the (k+1)-subsets
    U, ascending index rows: the dual codeword supported on U, scaled to 1
    at max U.  For U within D, sum_{x in U} w_U(x) f(x) = [U]f = 0 when
    deg f < k, so h_U is U's `_weights` over the one at max U; for U =
    S + {|D|}, [S]f is f's x^(k-1) coefficient, so h_U = (-w_S, 1)."""
    h = np.ones(U.shape, dtype=np.int64)
    ext = U[:, -1] == len(D)
    h[~ext] = _weights(ctx, D, U[~ext], unit_last=True)
    h[ext, :-1] = ctx.mul(_weights(ctx, D, U[ext, :-1]), ctx.p - 1)  # -1 is p-1
    return h


def _lagrange_coefficients(ctx: FieldCtx, D: tuple) -> np.ndarray:
    """(N, N) F_q matrix, N = |D|, whose row j holds the coefficients,
    constant first, of the Lagrange polynomial of D at x_j: w_j times the
    quotient of l(x) = prod_{y in D} (x - y) by x - x_j, w_j the weight of
    x_j over all of D (`_weights`), by synthetic division.  It is V^-1."""
    N, x = len(D), np.asarray(D, dtype=np.int64)
    l = np.zeros(N + 1, dtype=np.int64)
    l[0] = 1
    for y in D:  # l <- l * (x - y), a degree below N + 1 each time
        l = _fsub(ctx, np.roll(l, 1), ctx.mul(l, y))
    B, nx = np.empty((N, N), dtype=np.int64), ctx.mul(x, ctx.p - 1)
    B[:, -1] = 1  # b_(N-1) = l_N, b_(i-1) = l_i + x_j * b_i
    for i in range(N - 1, 0, -1):
        B[:, i - 1] = _fsub(ctx, l[i], ctx.mul(nx, B[:, i]))
    return ctx.mul(_weights(ctx, D, np.arange(N)[None])[0][:, None], B)


def _tail_table(ctx: FieldCtx, D: tuple, k: int, comp) -> np.ndarray:
    """Digit table ((|D|-k)*a, C*a) in np.min_scalar_type(p-1) of the
    s-subsets X_c of D whose complements are the rows of comp (C, |D|-s):
    row block d - k, column block c hold [X_c]x^d = h_(d-s+1)(X_c), h_j
    the complete homogeneous symmetric polynomials, sum_j h_j(X) t^j =
    prod_{x in X} 1/(1 - x*t): h(D) times 1 - y*t for each y in D - X_c."""
    n, a, (C, r) = len(D), ctx.a, comp.shape
    m, hD = n - k, [1] + [0] * (n - k)
    for y, j in itertools.product(D, range(1, m + 1)):  # times 1/(1 - y*t)
        hD[j] = ctx.add(hD[j], ctx.mul(y, hD[j - 1]))
    out = np.empty((m * a, C * a), dtype=np.min_scalar_type(ctx.p - 1))
    step = max(1, CHUNK // (m + 1))
    for b in range(0, C, step):  # h(D) to degree m, a row per subset
        h = np.tile(hD, (len(comp[b:b + step]), 1))
        for y in np.asarray(D, dtype=np.int64)[comp[b:b + step]].T:
            h[:, 1:] = _fsub(ctx, h[:, 1:], ctx.mul(y[:, None], h[:, :-1]))
        out[:, b * a:(b + step) * a] = _linops.digit_expand(
            ctx, h[:, r + 1 - m:r + 1].T)  # degrees k ... n-1, s = n - r
    return out


_DD_CACHE: dict = {}  # the 32 latest tables


def divided_differences(ctx: FieldCtx, D: tuple, k: int, prs: bool):
    """The sweep's functional tables over D, cached per (ctx, D, k, prs):
    (M1, up, M0) in the order of `subset_index`.  M1 ((|D|-k)*a, C1*a) is
    the `_tail_table` of the C1 = C(|D|,k+1) subsets U, M0 that of the C0
    = C(|D|,k) subsets S when `prs` (else None), over the tail degrees k
    ... |D|-1 only: M1's degree-k row is h_0 = 1, M0's h_1(S) = sum(S).
    up (C0, |D|-k) indexes, for the S of M0's column block s, the columns
    of M1 of the supersets S + {x}, x not in S.  Raises ValueError, before
    allocating, when the tables and up hold more than DEFAULT_ENUM_BUDGET
    entries."""
    key = (ctx, D, k, prs)
    if key in _DD_CACHE:
        return _DD_CACHE[key]
    n, a, m = len(D), ctx.a, len(D) - k
    C1, C0 = math.comb(n, k + 1), math.comb(n, k)
    entries = m * a * a * (C1 + C0 * prs) + C0 * m
    if entries > DEFAULT_ENUM_BUDGET:
        raise ValueError(f"divided-difference tables of C({n},{k + 1}) and "
                         f"C({n},{k}) subsets = {entries} entries exceed "
                         f"budget {DEFAULT_ENUM_BUDGET}")
    U, _, comp, up = subset_index(n, k)
    return _keep(_DD_CACHE, key, (_tail_table(ctx, D, k, _complement(U, n)),
                                  up, _tail_table(ctx, D, k, comp) if prs
                                  else None))


# ----------------------------------------------------------------------
# tail enumeration plans
# ----------------------------------------------------------------------

class TailPlan:
    """One enumeration block: the q^f tails with the `fixed` coefficients
    ({degree: value}) and every value at the f free degrees.  Tail i of
    the block takes base-q digit j of i at free_degrees[j], so i counts the
    lowest free degree fastest."""

    def __init__(self, fixed, free_degrees, q):
        self.fixed = dict(fixed)
        self.free_degrees = tuple(free_degrees)
        self.count = q ** len(self.free_degrees)


def full_plans(ctx: FieldCtx, n: int, k: int) -> list[TailPlan]:
    """All tails with support in degrees k..n-1 (q^(n-k) cosets)."""
    return [TailPlan({}, range(k, n), ctx.q)]


def monic_plans(ctx: FieldCtx, n: int, k: int) -> list[TailPlan]:
    """The zero tail plus the monic tails of degree k..n-1: one tail of
    each scalar orbit {c*t : c in F_q^*} of the q^(n-k) tails, so
    q^(n-k-1) + ... + q + 1 + 1 of them.  Any evaluation set."""
    return [TailPlan({}, (), ctx.q)] + [TailPlan({d: 1}, range(k, d), ctx.q)
                                        for d in range(k, n)]


def sliced_plans(ctx: FieldCtx, k: int) -> list[TailPlan]:
    """Degree-normalized slices plus the zero tail; full-field sets only.

    Degree-d tails are normalized monic; the x^(d-1) coefficient is removed
    by a substitution x -> x + b unless p divides d or d = k, in which case
    the slice is every monic tail of degree d.  Every coset orbit meets the
    resulting slice set, and the translates of a slice with the coefficient
    removed are the monic tails of its degree, each once
    (`dist._translations`).
    """
    q, p = ctx.q, ctx.p
    plans = [TailPlan({}, (), q)]
    for d in range(k, q):
        free = list(range(k, d - 1))
        if d % p == 0 and d - 1 >= k:
            free.append(d - 1)
        plans.append(TailPlan({d: 1}, free, q))
    return plans


# ----------------------------------------------------------------------
# the profile engine
# ----------------------------------------------------------------------

@dataclass
class SweepOutcome:
    max_contrib: int
    cosets: int                 # tails scanned
    candidates: np.ndarray      # (R, |D|) coefficient rows of the tails at
                                # max_contrib
    deep_v: np.ndarray          # (R, q) their deep extra values; (R, 1)
                                # True for RS
    truncated: bool = False     # the kernel stopped listing at the cap


def _tail_values_digits(ctx, plan, idx, dtype):
    """Digit rows (len(idx), w*a), in `dtype`, of the coefficient values of
    the plan's tails at indices idx, in the degree order free_degrees then
    fixed.  Free ones come from idx: its base-q digits, each a base-p
    digits, are its base-p digits.  Fixed ones are constant.  perfbench
    times this tail generation as its `sweeps.tails` layer."""
    free = len(plan.free_degrees) * ctx.a
    X = np.empty((len(idx), free + len(plan.fixed) * ctx.a), dtype=dtype)
    X[:, :free] = _linops.mixed_radix(idx, ctx.p, free)
    X[:, free:] = ctx.digit_table()[list(plan.fixed.values())].ravel()
    return X


def _pointwise(op, inner, outer, hi):
    """(C, R): op(inner[:, l], outer[:, h]) for the R tails h*Q + l of the
    high parts of slice hi and every low part l, in row-major order, by
    broadcasting."""
    out = op(inner[:, None, :], outer[:, hi, None])
    return out.reshape(len(out), math.prod(out.shape[1:]))


def _encode(d, a, p, dt):
    """(C, N) field encodings sum_i d[c*a + i] * p^i, in dt, of the
    functional-major digit rows d (C*a, N), each digit below p."""
    v = d[a - 1::a].astype(dt)
    for i in range(a - 2, -1, -1):
        v = v * p + d[i::a].astype(dt)
    return v


def _zeros(inner, neg, hi):
    """(C, R) bool: which of C functionals vanish on the tails of
    `_pointwise`.  The value of functional c on tail h*Q + l is inner[c, l]
    + outer[c, h] digit by digit mod p, so it vanishes iff every digit of
    inner[c, l] equals that of neg[c, h] = -outer[c, h], that is iff their
    `_encode`s are equal: one comparison for any a."""
    return _pointwise(np.equal, inner, neg, hi)


def _digit_rows(degs, a: int, k: int) -> np.ndarray:
    """The rows of a functional table ((|D|-k)*a, .) that hold the digits
    of the coefficients of tail degrees degs, in that order."""
    return ((np.array(degs, dtype=np.int64)[:, None] - k) * a
            + np.arange(a)).ravel()


class _LowPart:
    """The functional values of the Q = q^L low parts l of one tuple of low
    degrees, shared by the plans of a `profile_sweep` call that split off
    those degrees, and built only as its grids read them.

    `hits(b)`, for the block of (k+1)-functionals 16b ... 16b+15 (fewer in
    the last block), is a (16*q, ceil(Q/8)) uint8 table: row c*q + v packs
    the set of l with inner[c, l] == v, the `_encode`d value of functional
    c on l, little-endian (bit l % 8 of byte l // 8), with the padding bits
    past Q clear.  Each l sets one bit a functional, so the hit bits of a
    low part hold at most C1*q*ceil(Q/8) bytes.  The grids scan the blocks
    in order, so the built ones are a prefix, and a block read first is
    built with as many more as are built already, at most CHUNK // (q*Q):
    a survivor that reads every block costs about log2 of their count
    digit products, and the blocks built are at most twice as many as the
    farthest grid has read.  `tables()` gives the scoring path the whole
    tables, made on a scored grid's first read: inner (C1, Q) the
    `_encode`d M1 values, inner0 (C0*a, Q) the M0 digits in
    np.min_scalar_type(2*(p-1)), empty without M0."""

    def __init__(self, ctx: FieldCtx, M1, M0, degs: tuple, k: int):
        self.ctx, self.M1, self.M0 = ctx, M1, M0
        self.rows, self.Q = _digit_rows(degs, ctx.a, k), ctx.q ** len(degs)
        fdt = _linops.exact_dtypes(len(self.rows), ctx.p)[0]
        self.X = _tail_values_digits(ctx, TailPlan({}, degs, ctx.q),
                                     np.arange(self.Q), fdt).T
        self._hits, self._tables = {}, None

    def hits(self, b: int) -> np.ndarray:
        if b not in self._hits:
            a, q, p = self.ctx.a, self.ctx.q, self.ctx.p
            m = max(1, min(len(self._hits), CHUNK // (q * self.Q)))
            d = _linops.digit_matmul(
                self.M1[self.rows, 16 * b * a:16 * (b + m) * a].T, self.X, p)
            enc = _encode(d, a, p, np.min_scalar_type(q - 1))
            eq = enc[:, None, :] == np.arange(q, dtype=enc.dtype)[:, None]
            bits = np.packbits(eq, axis=2, bitorder="little")
            for i in range(0, len(bits), 16):
                self._hits[b + i // 16] = bits[i:i + 16].reshape(
                    -1, bits.shape[2])
        return self._hits[b]

    def tables(self):
        if self._tables is None:
            a, q, p = self.ctx.a, self.ctx.q, self.ctx.p
            T = [M[self.rows] for M in (self.M1, self.M0) if M is not None]
            d = _linops.digit_matmul(np.hstack(T).T, self.X, p)
            w = self.M1.shape[1]  # the C1*a digit rows of M1 values
            self._tables = (_encode(d[:w], a, p, np.min_scalar_type(q - 1)),
                            d[w:].astype(np.min_scalar_type(2 * (p - 1))))
        return self._tables


def _survivors(T1, X, low: _LowPart):
    """(H, ceil(Q/8)) uint8, packed like `_LowPart.hits`: bit l of row h is
    set iff l < Q and none of the C functionals of T1 vanishes on the tail
    h*Q + l; for the (k+1)-functionals, the tails with bestA = k.  T1
    (C*a, w*a) holds the negated functional rows of the high part, X (w*a,
    H) the H high parts' digits, `low` the hit bits of the low parts.

    The functionals are streamed 16 at a time: each block multiplies only
    its rows of T1 by X, which gives neg[c, h] = -outer[c, h] encoded, and
    gathers the rows c*q + neg[c, h] of the block's hit bits.  Functional
    c vanishes on h*Q + l iff inner[c, l] == neg[c, h] (`_zeros`), that is
    iff bit l of that row is set, so one OR over the block gives the tails
    it refutes, and alive &= ~refuted.  Alive starts with the Q bits of
    the low parts only (`packbits` pads with clear bits), so padding bits
    are never alive, and the scan stops once no bit is: the survivors are
    exactly the tails no functional vanishes on."""
    a, q, p = low.ctx.a, low.ctx.q, low.ctx.p
    alive = np.tile(np.packbits(np.ones(low.Q, dtype=bool), bitorder="little"),
                    (X.shape[1], 1))
    for b in range(-(-len(T1) // (16 * a))):
        neg = _encode(_linops.digit_matmul(T1[16 * b * a:16 * (b + 1) * a], X,
                                           p), a, p, np.intp)
        neg += np.arange(0, len(neg) * q, q)[:, None]
        alive &= ~np.bitwise_or.reduce(low.hits(b).take(neg, axis=0), axis=0)
        if not alive.any():
            break
    return alive


def profile_sweep(ctx: FieldCtx, D: tuple, k: int, *, prs: bool,
                  plans, collect: bool, floor: int = -1) -> SweepOutcome:
    """Scan tail cosets; a tail's contribution is its worst error distance
    (max over the extra coordinate for PRS).

    For a tail t (coefficients in degrees >= k) and a k-subset S of D,
    let f_S be the polynomial of degree < k that interpolates t on S.  By
    Newton's form, for x not in S

        t(x) - f_S(x) = [S + {x}]t * prod_{s in S} (x - s),

    with [T]t the divided difference of t over T, and the x^(k-1)
    coefficient of f_S is [S]t.  Both are F_q-linear in the coefficients
    (`divided_differences`), which gives, for every S, agree_S = k +
    #{x not in S : [S + {x}]t = 0}, the agreement of f_S with the tail
    word u_t on D, and for PRS its extra value v_S.  A codeword that
    agrees with u_t on >= k points is some f_S, so bestA = max_S agree_S
    >= k is the best agreement of u_t with the code and, for PRS,

        d((u_t, v), PRS) = n - max(bestV[v], bestA - 1),

    bestV[v] the best agree_S with v_S = v.  bestV is only ever compared
    with bestA, so a table of the v reached at bestA replaces it: the tail
    contributes n + 1 - bestA - full, where full means every value is
    reached, and its deep values are all v when full, otherwise those not
    reached.

    Block addition: each plan splits its free coefficients into the L
    lowest and the rest, so tail h*q^L + l is the low part l plus the high
    part h (with the fixed coefficients), and by linearity every functional
    value is inner[:, l] + outer[:, h] digit by digit mod p.  The inner
    tables hold the functionals of all q^L low parts, functional-major: the
    M1 ones as `_encode`d field elements in np.min_scalar_type(q-1), and
    for PRS the M0 digits in np.min_scalar_type(2*(p-1)), so v = (inner +
    outer) mod p is exact without widening.  L is the largest with q^L <=
    score_rows, so the tables hold at most as many entries as one scored
    sub-chunk, except that a plan which starts on the refuting path (below)
    takes enough degrees for q^L >= 8, so a byte of hit bits covers 8 low
    parts or more; then q^L < 8q, and a scored sub-chunk holds fewer than
    max(score_rows, 8q) tails.  The call keeps one `_LowPart` a tuple of
    low degrees, shared by the plans that split off the same ones; it
    builds a block's hit bits when a grid first tests that block and the
    whole inner tables when a grid is first scored, so a plan whose grids
    are all refuted or dropped multiplies no M0 row of its low part.  The
    high part's M1 rows are negated once per plan, so a grid's digit
    product gives neg = -outer for them, and the zero test (`_zeros`)
    compares the encodings of inner and neg: one comparison for any a, no
    add and no mod.  Every plan is scanned whole, so q^L divides its count
    and a grid is always whole high parts times every low part: max(1,
    min(CHUNK, 4 * score_rows * q^L) // q^L) high parts, so its outer
    vectors hold at most 4 * score_rows * (C1 + C0) * a, about 4 * a *
    CHUNK * n, entries however many functionals there are.  The products
    are exact (`_linops.digit_matmul`) and the identities hold over any
    field, so the contribution is exact.  Only the collected tails are
    decoded to coefficients.

    Pruning: gmax is the running maximum, starting at `floor`, the
    contribution of a measured coset (-1 when none is known).  A row is
    kept iff bestA < n + extra - gmax + collect, extra = 1 for PRS; a
    dropped row contributes at most gmax, a value some coset attains, so a
    radius-only sweep drops ties and a listing keeps them.  The threshold
    picks the work: at most k drops every row unread; above k + 1 every
    functional is scored.  At k + 1, where a PRS radius starts when its
    floor is Theorem 3's q - k, the rows kept are those on which no
    (k+1)-functional vanishes, so a tail is done once one does: the grid
    streams the (k+1)-functionals 16 at a time (`_survivors`), multiplying
    only a block's rows of the high table, and keeps its live tails as
    bits, one (H, ceil(Q/8)) byte array over its H high parts, bit l % 8
    of byte l // 8 for low part l.  A block gathers, for each functional c
    and high part h, the row of the low part's hit bits that holds the l
    with inner[c, l] == neg[c, h], ORs them over the block, and clears
    those bits; it stops once no bit is alive.  A bit is set iff the two
    encodings are equal, equal encodings mean equal digits, the padding
    bits past Q start clear, and stopping skips blocks only when every
    tail is already refuted, so the survivors are exactly the rows kept;
    only a grid with one gets the full product and is scored as above.
    """
    n, a, q, p = len(D), ctx.a, ctx.q, ctx.p
    M1, up, M0 = divided_differences(ctx, D, k, prs)
    C1, C0 = M1.shape[1] // a, len(up)
    vdt = np.min_scalar_type(2 * (p - 1))  # inner + outer, each below p
    edt = np.min_scalar_type(q - 1)
    extra = 1 if prs else 0  # contribution is at most n + extra - bestA
    # a scored row holds C1 + C0 functional values: score no more of them
    # at once than a chunk of CHUNK tails has values on D
    score_rows = max(1, CHUNK * n // (C1 + C0))

    gmax = floor
    none = (np.zeros((0, n), dtype=np.int64),
            np.zeros((0, q if prs else 1), dtype=bool))
    found = [none]  # (coefficient rows, deep-v mask) blocks at gmax
    cosets = ncand = 0
    truncated = False

    lows = {}  # one _LowPart a tuple of low degrees
    for plan in plans:
        L, refute = 0, n + extra - gmax + collect == k + 1
        while L < len(plan.free_degrees) and (q ** (L + 1) <= score_rows
                                              or refute and q ** L < 8):
            L += 1
        Q, degs = q ** L, plan.free_degrees[:L]
        if degs not in lows:
            lows[degs] = _LowPart(ctx, M1, M0, degs, k)
        low = lows[degs]
        high = TailPlan(plan.fixed, plan.free_degrees[L:], q)
        rows = _digit_rows(high.free_degrees + tuple(high.fixed), a, k)
        T = M1[rows].T if M0 is None else np.vstack([M1[rows].T, M0[rows].T])
        fdt = _linops.exact_dtypes(len(rows), p)[0]
        T = np.ascontiguousarray(T, dtype=fdt)
        T[:C1 * a] = (p - T[:C1 * a]) % p  # their products are -outer
        hstep = max(1, min(CHUNK, 4 * score_rows * Q) // Q)
        for h0 in range(0, high.count, hstep):  # grids of whole high parts
            h1 = min(h0 + hstep, high.count)
            cosets += (h1 - h0) * Q
            thr = n + extra - gmax + collect  # rows are kept iff bestA < thr
            if thr <= k:  # bestA >= k on every row
                continue
            X = _tail_values_digits(ctx, high, np.arange(h0, h1), fdt).T
            if thr == k + 1 and not _survivors(T[:C1 * a], X, low).any():
                continue
            inner, inner0 = low.tables()
            outer = _linops.digit_matmul(T, X, p)
            neg = _encode(outer[:C1 * a], a, p, edt)
            outer = outer[C1 * a:].astype(vdt)
            step = max(1, score_rows // Q)
            for g in range(0, h1 - h0, step):
                hs = slice(g, min(g + step, h1 - h0))
                agree = agreements(_zeros(inner, neg, hs), up)
                best = agree.max(axis=0)
                keep = np.nonzero(best < n + extra - gmax + collect - k)[0]
                if len(keep) == 0:
                    continue
                agree, best, R = agree[:, keep], best[keep], len(keep)
                contrib = (n + extra - k) - best.astype(np.int64)
                if prs:
                    # v_S digits, each inner + outer < 2p: min(s, s - p)
                    # wraps below p to above it, so it is s mod p
                    d = _pointwise(np.add, inner0, outer, hs)[:, keep]
                    v = _encode(np.minimum(d, d - p), a, p, edt)
                    at = np.flatnonzero(agree == best)
                    reached = np.zeros((R, q), dtype=bool)
                    reached.ravel()[at % R * q + v.ravel()[at]] = True
                    full = reached.all(axis=1)
                    contrib -= full
                cmax = int(contrib.max())
                if cmax > gmax:
                    gmax = cmax
                    found, ncand, truncated = [none], 0, False
                if collect and cmax == gmax:
                    take = np.nonzero(contrib == gmax)[0]
                    if ncand + len(take) > DEEP_CANDIDATE_CAP:
                        truncated = True
                        take = take[:max(0, DEEP_CANDIDATE_CAP - ncand)]
                    coeffs = np.zeros((len(take), n), dtype=np.int64)
                    coeffs[:, list(plan.free_degrees)] = _linops.mixed_radix(
                        (h0 + g) * Q + keep[take], q, len(plan.free_degrees))
                    coeffs[:, list(plan.fixed)] = list(plan.fixed.values())
                    deep = (~reached[take] | full[take, None] if prs else
                            np.ones((len(take), 1), dtype=bool))
                    found.append((coeffs, deep))
                    ncand += len(take)
    return SweepOutcome(gmax, cosets, *map(np.concatenate, zip(*found)),
                        truncated)


# ----------------------------------------------------------------------
# parallel driver
# ----------------------------------------------------------------------

def _worker(args):
    (p, a, modulus, D, k, prs, plans, collect, floor) = args
    ctx = field_create(p, a, modulus)
    return profile_sweep(ctx, tuple(D), k, prs=prs, plans=plans,
                         collect=collect, floor=floor)


def measured_floor(ctx: FieldCtx, D: tuple, k: int, prs: bool) -> int:
    """Contribution of one coset, measured by the sweep: a lower bound for
    the sweep maximum that lets it drop hopeless rows from the start.

    The coset is the x^k tail (the zero tail when k = n), the c = 1 member
    of the paper's Theorem 1 family (c*x^k, v), at distance q - k from
    PRS(q+1,k) for 2 <= k <= q-2; Theorem 3 makes q - k the radius for
    2 <= k <= p-2, so there the sweep starts at its answer and only has to
    refute rows.  For RS(n,k) the x^k tail is at distance n - k."""
    plan = TailPlan({k: 1} if k < len(D) else {}, (), ctx.q)
    out = profile_sweep(ctx, D, k, prs=prs, plans=[plan], collect=False)
    return out.max_contrib


def run_sweep(ctx: FieldCtx, D: tuple, k: int, *, prs: bool, plans,
              collect: bool, threads: int = 1) -> SweepOutcome:
    """Run the profile sweep, partitioned across processes.

    At threads > 1, a plan of more than step = max(CHUNK, count / threads)
    tails is replaced by its q^j sub-plans that fix its top j free degrees
    to each of their values, j the least with q^(f-j) <= step, so every
    task scans whole plans.  The sub-plans are listed with the top degree
    slowest, so their tails, concatenated, are the plan's in its order, and
    a listing keeps the in-process sweep's order.  Consecutive (sub-)plans
    share a task while it holds at most CHUNK tails, so many small plans
    (`monic_plans`) make one task.  A single task runs the caller's plans
    in this process, as threads <= 1 does, with nothing split or grouped;
    more start min(threads, tasks) workers, as a fork pool launches every
    worker it may use at once.  The merge is a max reduction plus array
    concatenation in task order, so the result is independent of worker
    scheduling.
    """
    floor = measured_floor(ctx, D, k, prs)
    q, groups, size = ctx.q, [], CHUNK  # the (sub-)plans of each task
    for plan in plans if threads > 1 else ():
        f = len(plan.free_degrees)
        step = max(CHUNK, -(-plan.count // threads))
        j = next(j for j in range(f + 1) if q ** (f - j) <= step)
        rest, fix = plan.free_degrees[:f - j], plan.free_degrees[f - j:]
        for vals in itertools.product(range(q), repeat=j):  # top one slowest
            sub = TailPlan({**plan.fixed, **dict(zip(fix, vals[::-1]))},
                           rest, q)
            if size + sub.count > CHUNK:
                groups.append([])
                size = 0
            groups[-1].append(sub)
            size += sub.count
    if len(groups) <= 1:
        return profile_sweep(ctx, D, k, prs=prs, plans=plans, collect=collect,
                             floor=floor)
    tasks = [(ctx.p, ctx.a, ctx.modulus, D, k, prs, g, collect, floor)
             for g in groups]
    global ProcessPoolExecutor
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as ex:
        outs = list(ex.map(_worker, tasks))
    gmax = max(o.max_contrib for o in outs)
    top = [o for o in outs if o.max_contrib == gmax]
    return SweepOutcome(gmax, sum(o.cosets for o in outs),
                        np.concatenate([o.candidates for o in top]),
                        np.concatenate([o.deep_v for o in top]),
                        any(o.truncated for o in top))


# ----------------------------------------------------------------------
# syndrome coset-leader BFS
# ----------------------------------------------------------------------

@dataclass
class BfsOutcome:
    rho: int
    level_counts: list            # syndromes at each level (min coset weight)
    words_examined: int           # steps: (orbit representative, move) pairs;
                                  # 0 for n-k <= 1, answered in closed form
    witnesses: np.ndarray | None  # (deep cosets, n) rows; None for a radius


def _add_table(p: int, g: int):
    """Addition of g-digit base-p indices as a flat table and its row
    stride: add[x * row + y] is the index of digits(x) + digits(y) mod p,
    in np.min_scalar_type(p^g - 1).  For g = 1 the entry (x + y) mod p
    depends on x + y only: 2p - 1 entries, row 1.  Otherwise a (P, P)
    table, P = p^g, row P, built a digit at a time from the top, so the
    broadcast's inner axis is the long one: with x = p^i * x_i + x' for
    i-digit x', the entry is p^i * ((x_i + y_i) mod p) plus the i-digit
    entry at x', y'."""
    dt = np.min_scalar_type(p**g - 1)
    if g == 1:
        return (np.arange(2 * p - 1) % p).astype(dt), 1
    r = np.arange(p, dtype=dt)  # p^2 - 1 fits dt, so r + r does
    one = np.add.outer(r, r) % dt.type(p)
    add = one
    for i in range(1, g):
        P = len(add) * p
        add = (one[:, None, :, None] * dt.type(p**i)
               + add[None, :, None, :]).reshape(P, P)
    return add.ravel(), len(add)


def _scalar_tables(ctx: FieldCtx, h: int):
    """Tables over the P = q^h values x = sum e_j q^j of h syndrome
    coordinates: the field inverses (q,), 0 at 0; the inverse of x's
    leading (most significant nonzero) coordinate (P,), 0 for x = 0; and
    c*x coordinatewise as a flat (q, P) table in dt = np.min_scalar_type(P
    - 1), so mul[c*P + x] is c*x.  The (q, q) products are `ctx.mul` a
    chunk of rows at a time, written into dt; the table is built from them
    a coordinate at a time, c*(e_0 + q*x') = c*e_0 + q*(c*x'), in dt,
    where every partial value is below P."""
    q, P = ctx.q, ctx.q**h
    dt = np.min_scalar_type(P - 1)
    r, rows = np.arange(q), max(1, CHUNK // q)
    one = np.empty((q, q), dtype=dt)
    for s in range(0, q, rows):
        one[s:s + rows] = ctx.mul(r[s:s + rows, None], r)
    inv = ctx.inv(r)
    x, lead = np.arange(P), np.zeros(P, dtype=np.intp)
    for j in range(h):
        e = x // q**j % q
        lead = np.where(e != 0, e, lead)
    mul = one
    for _ in range(h - 1):
        mul = (mul[:, :, None] * dt.type(q) + one[:, None, :]).reshape(q, -1)
    return inv, inv[lead], mul.ravel()


def _move_groups(code, g: int, lo: int, hi: int) -> np.ndarray:
    """Digit-group values ((hi-lo)(q-1), G) of the move syndromes c*h_j of
    positions lo <= j < hi, position-major then value-minor: one digit
    product of the q-1 nonzero digit rows with the (a x (n-k)a) blocks of
    HTd; digit i adds p^(i mod g) times itself to group i // g (the last
    group is zero-padded)."""
    ctx = code.ctx
    n, a, p = code.n, ctx.a, ctx.p
    ma = (n - code.k) * a
    d = _linops.digit_matmul(ctx.digit_table()[1:],
                             code.HTd.reshape(n, a, ma)[lo:hi],
                             p).reshape(-1, ma)
    out = np.zeros((len(d), -(-ma // g)), dtype=np.intp)
    for i in range(ma):
        out[:, i // g] += np.intp(p ** (i % g)) * d[:, i]
    return out


def _blocks(level: np.ndarray, value: int, spans):
    """Indices i with level[i] == value, ascending, in the index ranges
    [lo, hi) of `spans`, in blocks of CHUNK to 2*CHUNK entries (the last
    may be shorter): `flatnonzero` over slices of at most CHUNK, read only
    as the blocks are taken; a block may join several spans."""
    parts, count = [], 0
    for lo, hi in spans:
        for s in range(lo, hi, CHUNK):
            parts.append(np.flatnonzero(level[s:min(s + CHUNK, hi)] == value)
                         + s)
            count += len(parts[-1])
            if count >= CHUNK:
                yield np.concatenate(parts)
                parts, count = [], 0
    if count:
        yield np.concatenate(parts)


def _listed(rows: int) -> int:
    """`rows`, or ValueError over the cap: the one refusal of an oversize
    listing, made before any of its rows, by the BFS (a row a deep coset)
    and by `dist._sweep` (a row a deep tail)."""
    if rows > DEEP_CANDIDATE_CAP:
        raise ValueError(f"more than {DEEP_CANDIDATE_CAP} deep-hole candidates"
                         f" (the candidate cap): {rows} to list")
    return rows


def syndrome_bfs(code, enum_budget: int,
                 want_witness: bool = False) -> BfsOutcome:
    """Level-synchronous BFS over the q^(n-k) syndromes of any linear code,
    one syndrome per F_q^* orbit.

    A syndrome's level is its coset's minimum weight.  The edges are the
    n(q-1) weight-1 moves c*h_j, h_j column j of H, position-major then
    value-minor.  Level w is {s + c*h_j : s at level w-1} minus the
    syndromes already reached.  Exact: drop one nonzero entry of a
    minimum-weight word of a level-w syndrome; the rest is a word of weight
    w-1 whose syndrome has level exactly w-1 (not less, or the syndrome's
    level would be below w).

    Orbits.  A syndrome index is sum e_j q^j over its n-k coordinates.  The
    representative of an orbit F_q^* s is norm(s) = s / (s's most
    significant nonzero coordinate), so the representatives are 0 and the
    index ranges [q^i, 2q^i), i < n-k: 1 + (q^(n-k) - 1)/(q - 1) of them,
    the only indices the search reads or writes, so the level and parent
    tables hold the 2q^(n-k-1) indices below the top range's end.
    Scaling by c != 0 keeps a word's weight and scales its syndrome, so
    level(c*s) = level(s), and c*(e*h_j) = (ce)*h_j is again a move.  With
    c*(r + m) = c*r + c*m, the level-w syndromes are
        L_w = F_q^* * {norm(r + m) : r a representative in L_(w-1), m a move}
    and the search pushes each frontier representative r along all n(q-1)
    moves and marks norm(r + m); when fewer representatives remain than
    the frontier holds, it instead pulls: an unreached representative t is
    at level w iff norm(t - m) is at level w-1 for some move m, and it
    leaves the search at its first hit.  `level_counts` are full syndrome
    counts, 1 and then q-1 times the representatives a level.  Pull is what
    makes small last levels cheap (per-syndrome search: push alone took
    6.1 s on RS(17,12)/F_17, push/pull 0.20 s).  A push stops early once
    no representative is left: they are recounted after each batch that
    ends R or more steps after the last recount, R the number of
    representatives.  `words_examined` counts the steps, (representative,
    move) pairs tried: 709,330 on PRS(10,4)/F_9, where the search over all
    syndromes took 5,225,484.

    Digit groups hold h = floor((n-k)/2) whole coordinates, the g = a*h
    base-p digits of a group added through one shared table,
    `_add_table(p, g)` of P^2 <= q^(n-k) entries, P = q^h.  A step is one
    gather a group and a shifted add.  norm(s) is one lookup a group in
    the inverse-lead table, the first nonzero from the top group down
    giving the inverse c of the leading coordinate, then one lookup a
    group in row c of the (q, P) product table (`_scalar_tables`).  The
    frontier and the unreached representatives are read in blocks
    (`_blocks`) and take B = max(1, cap // block) moves at a time,
    cap = min(CHUNK, R), so a batch takes at most max(cap, block) steps,
    and peak memory is the level table, the add and scalar tables, the
    moves and O(CHUNK).  The moves are made once, before level 1,
    max(1, cap // (q-1)) positions a digit product: level 1 pushes the
    zero syndrome along every move unless the columns cover every
    projective point first.

    n-k <= 1 takes no step (`words_examined` 0).  For k = n the zero coset
    is the only one.  For n-k = 1 every nonzero syndrome s is at level 1,
    with witness s/h_j * e_j, j the first nonzero entry of H's one row:
    the witness a search would pick, as its least parent key lands there.

    Witnesses, a listing's only (a radius returns after its levels): one
    parent key a representative t, the index of a move M' < n(q-1) in
    np.min_scalar_type, with t = c*r + M' and r at level w-1; c is then
    the leading coordinate of t - M', as r has lead 1.  A push from r
    along m has M' = c*m, c the inverse lead of r + m, and keeps the least
    key of the first batch that reaches t (`np.minimum.at`); a pull along
    m has M' = m, from the first hit (`argmax`).  So no result rests on
    the order of a scatter with repeated indices, which NumPy leaves
    open.  The walk back from a deep representative sets
    word[pos M'] = coef * val(M'), then t <- norm(t - M'), whose inverse
    lead is 1/c, and coef <- coef*c, rho times; the word has weight rho
    and syndrome t,
    and c times it has syndrome c*t, so the witnesses of all deep
    syndromes are the representatives' words times each c != 0 (a
    product-table gather), unsorted.  The same code gives the same
    witnesses, rows of element encodings in np.min_scalar_type(q - 1).
    Over DEEP_CANDIDATE_CAP rows, ValueError before any is made.
    """
    ctx = code.ctx
    n, q, p, m = code.n, ctx.q, ctx.p, code.n - code.k
    size = q**m
    if size > enum_budget:
        raise ValueError(
            f"syndrome table q^(n-k) = {size} exceeds budget {enum_budget}; "
            "use the representative sweep")
    wdt = np.min_scalar_type(q - 1)
    if m <= 1:  # rho = n-k: the zero coset, or each s != 0 at s/h_j * e_j
        counts, wit = [1, q - 1][:m + 1], None
        if want_witness:
            wit = np.zeros((_listed(counts[-1]), n), dtype=wdt)
        if m and want_witness:  # j the first nonzero entry of H's one row
            j = next(j for j, h in enumerate(code.H[0]) if h)
            wit[:, j] = ctx.mul(np.arange(1, q), ctx.inv(code.H[0][j]))
        return BfsOutcome(m, counts, 0, wit)
    g = ctx.a * (m // 2)
    P, G = p**g, -(-m * ctx.a // g)
    add, row = _add_table(p, g)
    inv, lead, mul = _scalar_tables(ctx, m // 2)
    spans = [(0, 2)] + [(q**i, 2 * q**i) for i in range(1, m)]
    R = 1 + (size - 1) // (q - 1)  # orbit representatives
    nmoves = n * (q - 1)
    cap = min(CHUNK, R)  # moves made, or steps taken, at a time
    mv = np.empty((nmoves, G), dtype=np.intp)  # row offsets in add
    per = max(1, cap // (q - 1))  # positions a digit product
    for lo in range(0, n, per):
        hi = min(n, lo + per)
        mv[lo * (q - 1):hi * (q - 1)] = _move_groups(code, g, lo, hi) * row
    # -c*h_j is move (j, -c): flip[c - 1] + 1 encodes -c
    flip = (-ctx.digit_table()[1:] % p) @ p ** np.arange(ctx.a) - 1
    neg = mv.take((np.arange(n)[:, None] * (q - 1) + flip).ravel(), axis=0)

    def split(x):  # digit-group values of syndrome indices
        out = []
        for _ in range(G - 1):
            x, r = np.divmod(x, P)
            out.append(r)
        return out + [x]

    def step(xg, mg):  # groups of x + m, mg (..., G) broadcast against x
        return [add.take(mg[..., i] + xg[i]) for i in range(G)]

    def index(xg):  # in place on intp, so no narrow product can wrap
        out = xg[-1].astype(np.intp)
        for x in xg[-2::-1]:
            out *= P
            out += x
        return out

    def fmul(c, x):  # c*x coordinatewise, in intp so no narrow sum wraps
        c, x = np.asarray(c, dtype=np.intp), np.asarray(x, dtype=np.intp)
        return mul[c * P + x]

    def norm(xg):  # (c the inverse lead, 0 at 0; groups of norm(x) = c*x)
        c = lead.take(xg[-1])
        for x in xg[-2::-1]:  # where every higher group is zero
            z = c == 0
            c[z] = lead.take(x[z])
        return c, [mul.take(c * P + x) for x in xg]

    def count(value):  # representatives at `value`
        return sum(int(np.count_nonzero(level[lo:hi] == value))
                   for lo, hi in spans)

    level = np.full(spans[-1][1], 255, dtype=np.uint8)  # at representatives
    level[0] = 0
    kdt = np.min_scalar_type(nmoves - 1)
    parent = np.empty(len(level), dtype=kdt) if want_witness else None
    reps, steps, remaining, w = [1], 0, R - 1, 0
    while remaining:
        w += 1
        pull, left, recount = remaining < reps[-1], remaining, steps + R
        for block in _blocks(level, 255 if pull else w - 1, spans):
            xg, i = split(block), 0
            while len(block) and i < nmoves and left:
                B = max(1, cap // len(block))
                if pull:
                    r = norm(step(xg, neg[i:i + B, None]))[1]
                    hit = level[index(r)] == w - 1
                    steps += hit.size
                    found = hit.any(axis=0)
                    got = block[found]
                    level[got] = w
                    if parent is not None:  # t = lead(t - m) * r + m
                        parent[got] = hit[:, found].argmax(axis=0) + i
                    block, xg = block[~found], [x[~found] for x in xg]
                else:
                    c, r = norm(step(xg, mv[i:i + B, None]))
                    t = index(r).ravel()
                    steps += t.size
                    new = np.flatnonzero(level[t] == 255)
                    got = t[new]
                    if parent is not None:  # t = c*r + c*m; least key wins
                        pos, v = np.divmod(new // len(block) + i, q - 1)
                        cn = c.ravel()[new]
                        key = pos * (q - 1) + fmul(cn, v + 1) - 1
                        parent[got] = np.iinfo(kdt).max
                        np.minimum.at(parent, got, key.astype(kdt))
                    level[got] = w
                    if steps >= recount:  # a pass over the spans per R steps
                        left = count(255)
                        recount = steps + R
                i += B
            if not left:
                break
        reps.append(count(w))
        if not reps[-1]:
            raise RuntimeError("syndrome space not covered by the moves")
        remaining -= reps[-1]
    counts = [1] + [(q - 1) * x for x in reps[1:]]
    if not want_witness:
        return BfsOutcome(w, counts, steps, None)
    _listed(counts[-1])
    deep = np.concatenate(list(_blocks(level, w, spans)))
    dg = split(deep)
    wit = np.zeros((len(deep), n), dtype=wdt)
    for s in range(0, len(deep), CHUNK):
        cur = [x[s:s + CHUNK] for x in dg]
        rows = np.arange(s, s + len(cur[0]))
        coef = np.ones(len(rows), dtype=np.intp)
        for _ in range(w):
            mi = parent[index(cur)].astype(np.intp)
            pos, v = np.divmod(mi, q - 1)
            wit[rows, pos] = fmul(coef, v + 1)
            c, cur = norm(step(cur, neg[mi]))  # t - M' = (1/c) * norm
            coef = fmul(coef, inv.take(c))
    wit = np.concatenate([fmul(c, wit) for c in range(1, q)])
    return BfsOutcome(w, counts, steps, wit.astype(wdt, copy=False))
