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
  from one inner table per plan (all q^L low parts) and one outer vector a
  high part.  Both are below p, so their sum fits the tables' dtype
  np.min_scalar_type(2*(p-1)), and a value vanishes iff inner == -outer
  mod p.  `agreements` counts the vanishing ones of each k-subset.  For
  any linear code, `subset_ops` tabulates the same functionals on words,
  the parity functional of each (k+1)-subset: `dist.error_distances_mds`
  and `code.is_mds` read it, over the same `subset_index`.

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
`_sweep_generator`; its full-degree form V and V^-1,
`eval_operators`, are the one coset map, and the functional tables are V
times barycentric weights.  Every elementwise product and inverse
(barycentric weights, 1/h_U[x], the BFS's scalar tables) is `FieldCtx.mul`
or `FieldCtx.inv` over arrays, reads of the field's one exp/log table pair.

A deep-hole listing scans `monic_plans`, one tail of each scalar orbit,
and `dist._sweep` expands it by the F_q^* scalars.  A radius sweep
optionally enumerates only degree-normalized slices (monic tails,
subleading coefficient removed where the characteristic allows): every coset
orbit under the substitutions x -> ax+b and scalar multiples meets the
slice, and both the best agreement and whether every extra-coordinate
value reaches it are orbit invariants, so the maximum over slices is the
exact radius.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _linops
from .gf import FieldCtx, field_create

# The one size limit of every exact engine: the most cosets, codewords,
# words, syndromes or table entries it may enumerate or tabulate.
DEFAULT_ENUM_BUDGET = 10**8
CHUNK = 1 << 16
DEEP_CANDIDATE_CAP = 5_000_000


def _sweep_generator(ctx: FieldCtx, D: tuple, k: int, prs=True) -> tuple:
    """The one evaluation matrix: rows x^0 ... x^(k-1) over D by running
    products (one `ctx.mul` per entry), plus the column e_(k-1) when `prs`,
    so a codeword's last coordinate is its x^(k-1) coefficient.  It is
    code.G of `code.rs_code` (prs=False) and `code.prs_code`."""
    rows = [(1,) * len(D)]
    for i in range(k - 1):
        rows.append(tuple(map(ctx.mul, rows[i], D)))
    return tuple(r + (int(i == k - 1),) * prs for i, r in enumerate(rows))


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
    of V^-1, from one `subset_reduce` of [Vd | I].  Coefficient rows c have
    the values c @ V on D, and values u the coefficients u @ V^-1.  Raises
    ValueError, before allocating, when [Vd | I] has more than
    DEFAULT_ENUM_BUDGET entries."""
    if (ctx, D) in _EVAL_OPS_CACHE:
        return _EVAL_OPS_CACHE[(ctx, D)]
    N = len(D) * ctx.a
    if 2 * N * N > DEFAULT_ENUM_BUDGET:
        raise ValueError(f"evaluation matrix [Vd | I] of {N} x {2 * N} "
                         f"digits exceeds budget {DEFAULT_ENUM_BUDGET}")
    Vd = _linops.digit_expand(ctx, _sweep_generator(ctx, D, len(D), prs=False))
    red, _ = _linops.subset_reduce(np.hstack([Vd, np.eye(N, dtype=np.int64)]),
                                   np.arange(N)[None], ctx.p)
    return _keep(_EVAL_OPS_CACHE, (ctx, D), (Vd, red[0, :, N:].copy()))


def _tail_tuples(coeffs: np.ndarray) -> list:
    """Canonical tails of coefficient rows (N, m): tuples of plain ints,
    constant first, with the trailing zeros stripped."""
    nz = coeffs != 0
    top = np.where(nz.any(axis=1), coeffs.shape[1] - nz[:, ::-1].argmax(axis=1), 0)
    return [tuple(r[:t]) for r, t in zip(coeffs.tolist(), top.tolist())]


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
    h_U, the dual codeword of the code punctured to U, scaled to 1 at
    x = max U, comes from one `_linops.subset_reduce` of G or H, whichever
    has fewer rows, on each S = U - {x}: G_S^-1 G has column c at x and
    h_U = (-c, 1); H pivoting on S's complement has h_U as x's row block.
    table (C1, a, (k+1)*a) holds the blocks M(h_U[U_i])^T, so times w's
    digits on U it gives h_U . w; inv holds 1/h_U[x], x = comp[s, j],
    U = up[s, j].  singular flags the U with short pivots or a zero of h_U
    on U: the code is MDS iff none is.  Raises ValueError, before
    allocating, over DEFAULT_ENUM_BUDGET entries."""
    ctx, n, k, a, p = code.ctx, code.n, code.k, code.ctx.a, code.ctx.p
    m, key = n - k, (ctx, code.G)
    if key in _SUBSET_OPS_CACHE:
        return _SUBSET_OPS_CACHE[key]
    gen, C = not m or k <= m, math.comb(n - 1, k)  # k = n has no U
    entries = C * (k if gen else m) * a * n * a
    if entries > DEFAULT_ENUM_BUDGET:
        raise ValueError(
            f"C({n},{k + 1}) parity functionals from C({n - 1},{k}) "
            f"reductions of {(k if gen else m) * a} x {n * a} digits = "
            f"{entries} entries exceed budget {DEFAULT_ENUM_BUDGET}")
    U, _, comp, up = subset_index(n, k)
    enc, dig, top = p ** np.arange(a), np.arange(a), _subsets(n - 1, k)
    t, x = np.repeat(np.arange(C), n - 1 - top[:, -1]), U[:, -1]  # top[t] + x
    piv = (top if gen else _complement(top, n)).astype(int)[:, :, None] * a
    piv = (piv + dig).reshape(C, piv.shape[1] * a)
    red, rank = _linops.subset_reduce(code.Gd if gen else code.HTd.T, piv, p)
    if gen:
        hS = -red[:, ::a].reshape(C, k, n, a)[t, :, x] % p @ enc
    else:  # x is the (x - k)-th pivot; column 0 of a block has h's digits
        hx = red[:, :, ::a].reshape(C, m, a, n)[t, x - k]
        hS = enc @ np.take_along_axis(hx, U[:, None, :-1], axis=2)
    h = np.column_stack([hS, np.ones(len(U), int)])
    inv = ctx.inv(h[up, comp - (m - 1 - np.arange(m))])  # x's place in S + {x}
    inv = inv.astype(np.min_scalar_type(ctx.q - 1))
    w = (k + 1) * a
    table = ctx.mul_digit_matrix(h).transpose(0, 3, 1, 2).reshape(len(U), a, w)
    ops = (table.astype(_linops.exact_dtypes(w, p)[0]), U, comp, up, inv,
           (rank[t] < red.shape[1]) | (h == 0).any(axis=1))
    return _keep(_SUBSET_OPS_CACHE, key, ops)


# ----------------------------------------------------------------------
# divided-difference functionals
# ----------------------------------------------------------------------

def _dd_weights(ctx: FieldCtx, D: tuple, X: np.ndarray) -> np.ndarray:
    """Barycentric weights (|D|, C), an F_q matrix, of the C subsets X_c of
    D, the index rows of X, with complements comp_c: column c holds

        w_c(x) = prod_{y in X_c, y != x} (x - y)^-1
               = e(x) * prod_{y in comp_c} (x - y)

    at x in X_c and 0 elsewhere, e(x) the weight over all of D, so values
    on D times column c give the divided difference over X_c,
    [X_c]f = sum_{x in X_c} w_c(x) f(x)."""
    n, p = len(D), ctx.p
    Dd = ctx.digit_table()[list(D)]
    diff = (Dd[:, None] - Dd[None]) % p @ p ** np.arange(ctx.a)  # x - y
    e = np.ones(n, dtype=np.int64)
    for col in (diff + np.eye(n, dtype=np.int64)).T:  # 1 at y = x
        e = ctx.mul(e, col)
    w = ctx.inv(e)[X]
    for y in _complement(X, n).T:
        w = ctx.mul(w, diff[X, y[:, None]])
    W = np.zeros((n, len(X)), dtype=np.int64)
    W[X, np.arange(len(X))[:, None]] = w
    return W


def _dd_table(ctx: FieldCtx, D: tuple, X: np.ndarray) -> np.ndarray:
    """Digit table (|D|*a, C*a): coefficient digits times its column block
    c are the digits of [X_c]f, for the subsets of `_dd_weights`.  It is
    Vd of `eval_operators` (coefficients to values) times the weights."""
    W = _linops.digit_expand(ctx, _dd_weights(ctx, D, X))
    return _linops.digit_matmul(eval_operators(ctx, D)[0], W, ctx.p)


_DD_CACHE: dict = {}  # the 32 latest tables


def divided_differences(ctx: FieldCtx, D: tuple, k: int, prs: bool):
    """The sweep's functional tables over D, cached per (ctx, D, k, prs):
    (M1, up, M0).

    M1 (|D|*a, C1*a) is the `_dd_table` of the C1 = C(|D|,k+1) subsets T,
    M0 that of the C0 = C(|D|,k) subsets S when `prs` (else None), each
    over every degree 0 ... |D|-1, in the order of `subset_index`, whose
    up (C0, |D|-k) indexes, for the subset S of M0's column block s, the
    columns of M1 of the supersets S + {x}, x not in S.  Raises
    ValueError, before allocating, when the tables and up hold more than
    DEFAULT_ENUM_BUDGET entries."""
    key = (ctx, D, k, prs)
    if key in _DD_CACHE:
        return _DD_CACHE[key]
    n, a, m = len(D), ctx.a, len(D) - k
    C1, C0 = math.comb(n, k + 1), math.comb(n, k)
    entries = n * a * a * (C1 + C0 * prs) + C0 * m
    if entries > DEFAULT_ENUM_BUDGET:
        raise ValueError(f"divided-difference tables of C({n},{k + 1}) and "
                         f"C({n},{k}) subsets = {entries} entries exceed "
                         f"budget {DEFAULT_ENUM_BUDGET}; use algo='syndrome'")
    U, S, _, up = subset_index(n, k)
    return _keep(_DD_CACHE, key, (_dd_table(ctx, D, U), up,
                                  _dd_table(ctx, D, S) if prs else None))


# ----------------------------------------------------------------------
# tail enumeration plans
# ----------------------------------------------------------------------

class TailPlan:
    """One enumeration block: a fixed part plus free coefficient degrees."""

    def __init__(self, fixed, free_degrees, q, start=None, end=None):
        self.fixed = dict(fixed)
        self.free_degrees = tuple(free_degrees)
        self.count = q ** len(self.free_degrees)
        self.start = 0 if start is None else start
        self.end = self.count if end is None else end


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
    by a substitution x -> x + b unless p divides d, in which case it stays
    free.  Every coset orbit meets the resulting slice set.
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
    truncated: bool = False


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


def _grids(start: int, end: int, Q: int, rows: int):
    """Split the tails [start, end) into grids (h0, h1, l0, l1), the tails
    h*Q + l for h0 <= h < h1 and l0 <= l < l1: a partial block where the
    range is not aligned to Q, otherwise whole blocks, about `rows` tails
    at a time."""
    s = start
    while s < end:
        h, l0 = divmod(s, Q)
        if l0 or end - s < Q:
            l1 = min(Q, l0 + end - s)
            yield h, h + 1, l0, l1
        else:
            h1 = h + min(max(1, rows // Q), (end - s) // Q)
            yield h, h1, 0, Q
            l0, l1 = 0, (h1 - h) * Q
        s += l1 - l0


def _pointwise(op, inner, outer, hi, lo):
    """(C, R): op(inner[:, l], outer[:, h]) for the R tails h*Q + l of the
    grid of slices hi x lo, in row-major order, by broadcasting."""
    out = op(inner[:, None, lo], outer[:, hi, None])
    return out.reshape(len(out), math.prod(out.shape[1:]))


def _zeros(inner, neg, hi, lo, a):
    """(C, R) bool: which of C functionals vanish on the tails hi x lo of
    `_pointwise`.  The value of functional c on tail h*Q + l is inner[c, l]
    + outer[c, h] digit by digit mod p, so it vanishes iff inner[c, l] ==
    neg[c, h] = -outer[c, h] mod p on all a digits."""
    z = _pointwise(np.equal, inner[::a], neg[::a], hi, lo)
    for d in range(1, a):
        z &= _pointwise(np.equal, inner[d::a], neg[d::a], hi, lo)
    return z


def _unrefuted(inner, neg, hi, lo, a):
    """(R,) bool over the tails hi x lo of `_pointwise`: those at which
    none of the functionals of `_zeros` vanishes; for the (k+1)-functionals,
    the tails with bestA = k.  The functionals are tested 16 at a time,
    stopping once every tail is refuted.  Each test broadcasts over the
    whole grid: a gather of the survivors measured 5 to 20 times slower a
    tail."""
    alive = np.ones((hi.stop - hi.start) * (lo.stop - lo.start), dtype=bool)
    for b in range(0, len(inner), 16 * a):
        alive &= ~_zeros(inner[b:b + 16 * a], neg[b:b + 16 * a], hi, lo,
                         a).any(axis=0)
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
    part h (with the fixed coefficients), and by linearity every
    functional value is inner[:, l] + outer[:, h] digit by digit mod p.
    The inner table holds the M1 and, for PRS, the M0 functionals of all
    q^L low parts, functional-major, in np.min_scalar_type(2*(p-1)), so
    v = (inner + outer) mod p is exact without widening; L is the largest
    with q^L <= score_rows, so the table holds at most as many entries as
    one scored sub-chunk.  A grid of tails costs one digit product for the
    outer vectors of its high parts, and the zero test inner == -outer
    mod p (`_zeros`) needs no add and no mod.  The products are exact
    (`_linops.digit_matmul`) and the identities hold over any field, so
    the contribution is exact.  Only the collected tails are decoded to
    coefficients.

    Pruning: gmax is the running maximum, starting at `floor`, the
    contribution of a measured coset (-1 when none is known).  A row is
    kept iff bestA < n + extra - gmax + collect, extra = 1 for PRS; a
    dropped row contributes at most gmax, a value some coset attains, so a
    radius-only sweep drops ties and a listing keeps them.  The threshold
    picks the work: at most k drops every row unread; at k + 1 the rows
    kept are those where no (k+1)-functional vanishes, and a grid without
    one (`_unrefuted`) is skipped unscored; otherwise every functional is
    scored.
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

    def table(part):  # functional-major rows for the part's coefficients
        degs = part.free_degrees + tuple(part.fixed)
        rows = (np.array(degs, dtype=np.int64)[:, None] * a
                + np.arange(a)).ravel()
        T = M1[rows].T if M0 is None else np.vstack([M1[rows].T, M0[rows].T])
        fdt = _linops.exact_dtypes(len(rows), p)[0]
        return np.ascontiguousarray(T, dtype=fdt), fdt

    gmax = floor
    none = (np.zeros((0, n), dtype=np.int64),
            np.zeros((0, q if prs else 1), dtype=bool))
    found = [none]  # (coefficient rows, deep-v mask) blocks at gmax
    cosets = ncand = 0
    truncated = False

    for plan in plans:
        L = 0
        while L < len(plan.free_degrees) and q ** (L + 1) <= score_rows:
            L += 1
        Q = q ** L
        low = TailPlan({}, plan.free_degrees[:L], q)
        high = TailPlan(plan.fixed, plan.free_degrees[L:], q)
        T, fdt = table(low)
        inner = _linops.digit_matmul(
            T, _tail_values_digits(ctx, low, np.arange(Q), fdt).T, p).astype(vdt)
        T, fdt = table(high)
        for h0, h1, l0, l1 in _grids(plan.start, plan.end, Q, CHUNK):
            cosets += (h1 - h0) * (l1 - l0)
            thr = n + extra - gmax + collect  # rows are kept iff bestA < thr
            if thr <= k:  # bestA >= k on every row
                continue
            outer = _linops.digit_matmul(T, _tail_values_digits(
                ctx, high, np.arange(h0, h1), fdt).T, p).astype(vdt)
            neg = (p - outer[:C1 * a]) % p
            lo = slice(l0, l1)
            if thr == k + 1 and not _unrefuted(
                    inner[:C1 * a], neg, slice(0, h1 - h0), lo, a).any():
                continue
            step = max(1, score_rows // (l1 - l0))
            for g in range(0, h1 - h0, step):
                hs = slice(g, min(g + step, h1 - h0))
                agree = agreements(_zeros(inner[:C1 * a], neg, hs, lo, a), up)
                best = agree.max(axis=0)
                keep = np.nonzero(best < n + extra - gmax + collect - k)[0]
                if len(keep) == 0:
                    continue
                agree, best, R = agree[:, keep], best[keep], len(keep)
                contrib = (n + extra - k) - best.astype(np.int64)
                if prs:
                    # v_S digits, each inner + outer < 2p: min(s, s - p)
                    # wraps below p to above it, so it is s mod p
                    d = _pointwise(np.add, inner[C1 * a:], outer[C1 * a:],
                                   hs, lo)[:, keep]
                    d = np.minimum(d, d - p)
                    v = d[a - 1::a].astype(edt)
                    for i in range(a - 2, -1, -1):
                        v = v * p + d[i::a]
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
                    h, l = np.divmod(keep[take], l1 - l0)
                    coeffs[:, list(plan.free_degrees)] = _linops.mixed_radix(
                        (h0 + g + h) * Q + l0 + l, q,
                        len(plan.free_degrees))
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
    (p, a, modulus, D, k, prs, ranges, collect, floor) = args
    ctx = field_create(p, a, modulus)
    plans = [TailPlan(fixed, free, ctx.q, start, end)
             for fixed, free, start, end in ranges]
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

    Each plan splits into ranges of at least CHUNK tails, max(CHUNK,
    count / threads) each, and consecutive ranges share a task while it
    holds at most CHUNK tails, so many small plans (`monic_plans`) make
    one task.  A single task runs in this process; more start
    min(threads, tasks) workers, as a fork pool launches every worker it
    may use at once.  The merge is a max reduction plus array
    concatenation, so the result is independent of worker scheduling.
    """
    floor = measured_floor(ctx, D, k, prs)
    groups, size = [], CHUNK  # the plan ranges of each task
    for plan in plans:
        step = max(CHUNK, -(-plan.count // max(1, threads)))
        for s in range(0, plan.count, step):
            e = min(s + step, plan.count)
            if size + e - s > CHUNK:
                groups.append([])
                size = 0
            groups[-1].append((plan.fixed, plan.free_degrees, s, e))
            size += e - s
    if threads <= 1 or len(groups) <= 1:
        return profile_sweep(ctx, D, k, prs=prs, plans=plans, collect=collect,
                             floor=floor)
    tasks = [(ctx.p, ctx.a, ctx.modulus, D, k, prs, g, collect, floor)
             for g in groups]
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as ex:
        outs = list(ex.map(_worker, tasks))
    gmax = max(o.max_contrib for o in outs)
    top = [o for o in outs if o.max_contrib == gmax]
    cands = np.concatenate([o.candidates for o in top])
    truncated = (len(cands) > DEEP_CANDIDATE_CAP
                 or any(o.truncated for o in top))
    return SweepOutcome(gmax, sum(o.cosets for o in outs), cands,
                        np.concatenate([o.deep_v for o in top]), truncated)


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
    """`rows`, a BFS listing's deep cosets, or ValueError over the cap."""
    if rows > DEEP_CANDIDATE_CAP:
        raise ValueError(f"more than {DEEP_CANDIDATE_CAP} deep-hole candidates"
                         f" (the candidate cap): {rows} deep cosets")
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
    parent key a representative t, (M', c) as M'*q + c < n(q-1)q in
    np.min_scalar_type, with t = c*r + M', r at level w-1 and M' a move.
    A push from r along m has c the inverse lead of r + m and M' = c*m,
    and keeps the least key of the first batch that reaches t
    (`np.minimum.at`); a pull along m has c the leading coordinate of
    t - m and M' = m, from the first hit (`argmax`).  So no result rests
    on the order of a scatter with repeated indices, which NumPy leaves
    open.  The walk back from a deep representative sets
    word[pos M'] = coef * val(M'), then coef <- coef*c and
    t <- norm(t - M'), rho times; the word has weight rho and syndrome t,
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
    kdt = np.min_scalar_type(nmoves * q - 1)
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
                    c, r = norm(step(xg, neg[i:i + B, None]))
                    hit = level[index(r)] == w - 1
                    steps += hit.size
                    found = hit.any(axis=0)
                    got = block[found]
                    level[got] = w
                    if parent is not None:  # t = lead(t - m) * r + m
                        first = hit[:, found].argmax(axis=0)
                        lc = inv.take(c[first, np.flatnonzero(found)])
                        parent[got] = (first + i) * q + lc
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
                        key = (pos * (q - 1) + fmul(cn, v + 1) - 1) * q + cn
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
            mi, c = np.divmod(parent[index(cur)].astype(np.intp), q)
            pos, v = np.divmod(mi, q - 1)
            wit[rows, pos] = fmul(coef, v + 1)
            coef = fmul(coef, c)
            cur = norm(step(cur, neg[mi]))[1]
    wit = np.concatenate([fmul(c, wit) for c in range(1, q)])
    return BfsOutcome(w, counts, steps, wit.astype(wdt, copy=False))
