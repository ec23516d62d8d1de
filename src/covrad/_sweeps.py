"""Internal vectorized engines for the exhaustive distance machinery.

Two exact algorithms live here:

* a coset-profile sweep for RS/PRS-structured codes: cosets are tail
  polynomials; for each tail the best agreement A with lower-degree
  polynomials (and, for PRS, the best agreement per degree-(k-1)
  coefficient value) determines every error distance in the coset and
  which extra-coordinate values are deep.  Candidate polynomials come from
  `decode_step`, the one subset-decoding kernel (`dist.error_distances_mds`
  runs it too).  Agreements are at most n, in np.min_scalar_type(n).

* a syndrome coset-leader BFS for arbitrary linear codes: words are
  enumerated by increasing weight and their syndromes marked; the radius is
  the weight at which the table fills.  Witness words are kept as digit
  rows, so their size does not limit q^n.

Tail values, subset decodes and BFS syndromes are each one F_q-linear map
applied as `_linops.digit_matmul`, the package's one digit product: a
float matmul exact below 2^53, reduced mod p in integers.  The RS/PRS
generators and sweep operators are one evaluation matrix, `_sweep_generator`;
its full-degree form V and V^-1, `eval_operators`, are the one coset map.

The sweep optionally enumerates only degree-normalized slices (monic tails,
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
# words, syndromes or subset-operator entries it may enumerate or tabulate.
DEFAULT_ENUM_BUDGET = 10**8
CHUNK = 1 << 16
DEEP_CANDIDATE_CAP = 5_000_000


# ----------------------------------------------------------------------
# subset interpolation operators
# ----------------------------------------------------------------------

_SUBSET_OPS_CACHE: dict = {}


def subset_ops(ctx: FieldCtx, G: tuple, m: int):
    """Subset-decoding operators of a k x n generator G over F_q (a tuple of
    row tuples): for every k-subset S of the first m columns, in
    itertools.combinations order, the digit operator G_S^-1 @ G that maps a
    codeword's values on S to its values on all n columns.

    Returns (col_gather, ops, singular): col_gather (C, k*a) digit-column
    indices of S; ops (C, k*a, n*a) in the float dtype of
    `_linops.exact_dtypes(k*a, p)` (float32 when k*a*(p-1)^2 < 2^24, else
    float64), so `_linops.digit_matmul` takes it uncopied; singular (C,)
    flags the subsets whose columns are dependent.  Cached per (ctx, G, m);
    a cache hit returns the same tuple.  Raises ValueError, before
    allocating, when the stack has more than DEFAULT_ENUM_BUDGET entries.
    """
    key = (ctx, G, m)
    stack = _SUBSET_OPS_CACHE.get(key)
    if stack is not None:
        return stack
    k, a = len(G), ctx.a
    entries = math.comb(m, k) * k * a * len(G[0]) * a
    if entries > DEFAULT_ENUM_BUDGET:
        raise ValueError(
            f"C({m},{k}) subset operators of {k * a} x {len(G[0]) * a} digits "
            f"= {entries} entries exceed budget {DEFAULT_ENUM_BUDGET}; "
            "use algo='syndrome'")
    subs = np.array(list(itertools.combinations(range(m), k)),
                    dtype=np.int64).reshape(-1, k)
    col_gather = (subs[:, :, None] * a + np.arange(a)).reshape(len(subs), k * a)
    red, rank = _linops.subset_reduce(_linops.digit_expand(ctx, G),
                                      col_gather, ctx.p)
    fdt, _ = _linops.exact_dtypes(k * a, ctx.p)
    stack = (col_gather, red.astype(fdt), rank < k * a)
    _SUBSET_OPS_CACHE[key] = stack
    return stack


def decode_step(ctx: FieldCtx, rows, gather, ops, m: int):
    """Decode integer digit rows (R, >= m*a) on one subset (gather (k*a,),
    ops (k*a, N*a)) or a block of C subsets ((C, k*a), (C, k*a, N*a)) of
    `subset_ops`: (cand, agree), with a leading C axis for a block.  cand
    (R, N*a) holds the candidates' digits in the exact int dtype of
    `_linops.exact_dtypes(k*a, p)`; agree (R,) counts the first m
    coordinates where candidate and row agree, in np.min_scalar_type(m).
    """
    a = ctx.a
    cand = _linops.digit_matmul(np.moveaxis(rows[:, gather], 0, -2), ops,
                                ctx.p)
    eq = cand[..., :m * a] == rows[:, :m * a]
    if a > 1:
        eq = eq.reshape(eq.shape[:-1] + (m, a)).all(axis=-1)
    return cand, eq.sum(axis=-1, dtype=np.min_scalar_type(m))


def _sweep_generator(ctx: FieldCtx, D: tuple, k: int, prs=True) -> tuple:
    """The one evaluation matrix: rows x^0 ... x^(k-1) over D by running
    products (one `ctx.mul` per entry), plus the column e_(k-1) when `prs`,
    so a codeword's last coordinate is its x^(k-1) coefficient.  It is
    code.G of `code.rs_code` (prs=False) and `code.prs_code`."""
    rows = [(1,) * len(D)]
    for i in range(k - 1):
        rows.append(tuple(map(ctx.mul, rows[i], D)))
    return tuple(r + (int(i == k - 1),) * prs for i, r in enumerate(rows))


# the 32 latest maps.  Not an lru_cache: perfbench's tests take a module
# function with `__wrapped__` for a tracer wrapper left installed.
_EVAL_OPS_CACHE: dict = {}


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
    ops = (Vd, red[0, :, N:].copy())
    Vd.flags.writeable = ops[1].flags.writeable = False
    if len(_EVAL_OPS_CACHE) >= 32:
        del _EVAL_OPS_CACHE[next(iter(_EVAL_OPS_CACHE))]
    _EVAL_OPS_CACHE[(ctx, D)] = ops
    return ops


def _tail_tuples(coeffs: np.ndarray) -> list:
    """Canonical tails of coefficient rows (N, m): tuples of plain ints,
    constant first, with the trailing zeros stripped."""
    nz = coeffs != 0
    top = np.where(nz.any(axis=1), coeffs.shape[1] - nz[:, ::-1].argmax(axis=1), 0)
    return [tuple(r[:t]) for r, t in zip(coeffs.tolist(), top.tolist())]


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
    candidates: list            # (tail tuple, deep v values; (None,) for RS)
                                # rows at max_contrib
    truncated: bool = False


def _tail_values_digits(ctx, D, plan, idx, dtype):
    """Digit value matrix (len(idx), n*a), in `dtype`, of the plan's tails at
    indices idx: one digit product of the coefficient rows, free ones decoded
    from idx and fixed ones constant, with the rows of `eval_operators`' Vd."""
    free, degs = len(plan.free_degrees), plan.free_degrees + tuple(plan.fixed)
    coeffs = np.empty((len(idx), len(degs)), dtype=np.int64)
    coeffs[:, :free] = _linops.mixed_radix(idx, ctx.q, free)
    coeffs[:, free:] = tuple(plan.fixed.values())
    Vd = eval_operators(ctx, tuple(D))[0]
    mat = Vd.reshape(len(D), ctx.a, -1)[list(degs)].reshape(-1, Vd.shape[1])
    # digits in the smallest dtype: a chunk's gathered digits stay small
    dt = ctx.digit_table().astype(np.min_scalar_type(ctx.p - 1))
    u = _linops.digit_matmul(dt[coeffs].reshape(len(idx), -1), mat, ctx.p)
    return u.astype(dtype, copy=False)


def profile_sweep(ctx: FieldCtx, D: tuple, k: int, *, prs: bool,
                  plans, collect: bool, floor: int = -1) -> SweepOutcome:
    """Scan tail cosets; a tail's contribution is its worst error distance
    (max over the extra coordinate for PRS).

    Every k-subset decodes one candidate polynomial f per tail; bestA is
    the best agreement of the tail word u_t with any candidate and, for
    PRS, bestV[v] the best agreement among candidates whose x^(k-1)
    coefficient is v (0 if none).  Both are agreements, at most n, held in
    np.min_scalar_type(n).  A codeword that agrees with u_t on >= k points
    is decoded by some k-subset of them, and bestA >= k, so for PRS

        d((u_t, v), PRS) = q - max(bestV[v], bestA - 1).

    Hence the tail contributes q + 1 - bestA - full, where full means
    every value reaches bestA, and its deep values are all v when full,
    otherwise the v with bestV[v] < bestA.

    Pruning: gmax is the running maximum, starting at `floor`, the
    contribution of a measured coset (-1 when none is known).  After every
    subset a row is kept iff bestA < n + extra - gmax + collect, with
    extra = 1 for PRS.  This is exact: bestA only grows, so a row with
    bestA >= n + extra - gmax contributes at most gmax from then on, and
    gmax is a contribution that some coset attains.  A radius-only sweep
    thus drops ties at once; a listing keeps them, as they may be deep.
    """
    n, a, q, p = len(D), ctx.a, ctx.q, ctx.p
    col_gather, ops, _ = subset_ops(ctx, _sweep_generator(ctx, D, k, prs), n)
    _, idt = _linops.exact_dtypes(k * a, p)
    adt = np.min_scalar_type(n)
    enc = p ** np.arange(a, dtype=idt)
    extra = 1 if prs else 0  # contribution is at most n + extra - bestA
    allv = tuple(range(q)) if prs else (None,)

    gmax = floor
    cands: list = []
    cosets = 0
    truncated = False

    for plan in plans:
        for s in range(plan.start, plan.end, CHUNK):
            u = _tail_values_digits(ctx, D, plan,
                                    np.arange(s, min(s + CHUNK, plan.end)), idt)
            rows = len(u)
            cosets += rows
            bestA = np.zeros(rows, dtype=adt)
            if prs:
                bestV = np.zeros((rows, q), dtype=adt)
                # flat index row*q + v, in a signed dtype that holds rows*q
                base = np.arange(0, rows * q, q,
                                 dtype=np.min_scalar_type(-rows * q))
            for si in range(len(ops)):
                ci, agree = decode_step(ctx, u, col_gather[si], ops[si], n)
                np.maximum(bestA, agree, out=bestA)
                if prs:
                    idx = base + ci[:, n * a:] @ enc
                    flat = bestV.reshape(-1)
                    flat[idx] = np.maximum(flat[idx], agree)
                keep = bestA < n + extra - gmax + collect
                if not keep.all():
                    u, bestA = u[keep], bestA[keep]
                    if prs:
                        bestV = bestV[keep]
                        base = base[:len(u)]
                    if len(u) == 0:
                        break
            if len(u) == 0:
                continue
            contrib = (n + extra) - bestA.astype(np.int64)
            if prs:
                full = bestV.min(axis=1) == bestA
                contrib -= full
            cmax = int(contrib.max())
            if cmax > gmax:
                gmax = cmax
                cands = []
                truncated = False
            if collect and cmax == gmax:
                take = np.nonzero(contrib == gmax)[0]
                if len(cands) + len(take) > DEEP_CANDIDATE_CAP:
                    truncated = True
                    take = take[:max(0, DEEP_CANDIDATE_CAP - len(cands))]
                # the tails' coefficients are their values times V^-1
                cd = _linops.digit_matmul(u[take], eval_operators(ctx, D)[1], p)
                tails = _tail_tuples(_linops.digit_decode_cols(ctx, cd, n))
                for r, tail in zip(take, tails):
                    if not prs or full[r]:
                        vs = allv
                    else:
                        vs = tuple(np.nonzero(bestV[r] < bestA[r])[0].tolist())
                    cands.append((tail, vs))
    return SweepOutcome(gmax, cosets, cands, truncated)


# ----------------------------------------------------------------------
# parallel driver
# ----------------------------------------------------------------------

def _worker(args):
    (p, a, modulus, D, k, prs, fixed, free, start, end, collect, floor) = args
    ctx = field_create(p, a, modulus)
    plans = [TailPlan(fixed, free, ctx.q, start, end)]
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
    """Run the profile sweep, optionally partitioned across processes.

    The merge is a max reduction plus list concatenation, so the result is
    independent of worker scheduling.
    """
    floor = measured_floor(ctx, D, k, prs)
    if threads <= 1:
        return profile_sweep(ctx, D, k, prs=prs, plans=plans, collect=collect,
                             floor=floor)
    tasks = []
    for plan in plans:
        step = max(CHUNK, -(-plan.count // threads))
        for s in range(0, plan.count, step):
            tasks.append((ctx.p, ctx.a, ctx.modulus, D, k, prs,
                          plan.fixed, plan.free_degrees,
                          s, min(s + step, plan.count), collect, floor))
    with ProcessPoolExecutor(max_workers=threads) as ex:
        outs = list(ex.map(_worker, tasks))
    gmax = max(o.max_contrib for o in outs)
    cands = []
    for o in outs:
        if o.max_contrib == gmax:
            cands.extend(o.candidates)
    truncated = (len(cands) > DEEP_CANDIDATE_CAP
                 or any(o.truncated for o in outs if o.max_contrib == gmax))
    return SweepOutcome(gmax, sum(o.cosets for o in outs), cands, truncated)


# ----------------------------------------------------------------------
# syndrome coset-leader BFS
# ----------------------------------------------------------------------

@dataclass
class BfsOutcome:
    rho: int
    level_counts: list            # syndromes first covered at each weight
    words_examined: int
    deep_syndromes: np.ndarray | None
    witnesses: np.ndarray | None  # (len(deep_syndromes), n) word digit rows


def syndrome_bfs(code, enum_budget: int,
                 want_witness: bool = False) -> BfsOutcome:
    """Mark syndromes of all words by increasing weight until covered.

    Exact for any linear code; marking is idempotent (first mark wins), so
    batch order within a weight class cannot change the table.  Witness
    words are stored as rows of element encodings in the smallest unsigned
    dtype that holds q-1, so no length or field size can overflow them.
    """
    ctx = code.ctx
    n, q, a, p = code.n, ctx.q, ctx.a, ctx.p
    m = n - code.k
    size = q**m
    if size > enum_budget:
        raise ValueError(
            f"syndrome table q^(n-k) = {size} exceeds budget {enum_budget}; "
            "use the representative sweep")
    table = np.full(size, 255, dtype=np.uint8)
    witness = (np.zeros((size, n), dtype=np.min_scalar_type(q - 1))
               if want_witness else None)
    # a syndrome's m*a digits read as one base-p integer: exact in float64,
    # as it is below q^m, the table size
    enc_w = np.float64(p) ** np.arange(m * a)
    dt = ctx.digit_table()

    table[0] = 0
    remaining = size - 1
    level_counts = [1]
    words = 1
    w = 0
    while remaining > 0:
        w += 1
        if w > n:
            raise RuntimeError("syndrome space not covered by weight n")
        marked = 0
        nvals = (q - 1) ** w
        vals_enc = _linops.mixed_radix(np.arange(nvals), q - 1, w) + 1
        # cast vd and the rows of H^T once, for every S
        fdt, _ = _linops.exact_dtypes(w * a, p)
        vd = dt[vals_enc].reshape(nvals, w * a).astype(fdt)
        HTd = code.HTd.reshape(n, -1).astype(fdt)
        for S in itertools.combinations(range(n), w):
            hd = HTd[list(S)].reshape(w * a, m * a)
            enc = (_linops.digit_matmul(vd, hd, p) @ enc_w).astype(np.int64)
            words += nvals
            unseen = table[enc] == 255
            if unseen.any():
                ue = enc[unseen]
                uniq, first = np.unique(ue, return_index=True)
                table[uniq] = w
                if want_witness:
                    witness[uniq[:, None], list(S)] = vals_enc[unseen][first]
                marked += len(uniq)
                if marked >= remaining:
                    break
        level_counts.append(marked)
        remaining -= marked
    rho = w
    deep = np.nonzero(table == rho)[0] if rho > 0 else np.array([0])
    wit = witness[deep] if want_witness else None
    return BfsOutcome(rho, level_counts, words, deep, wit)

