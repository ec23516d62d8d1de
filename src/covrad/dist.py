"""Exact error distance, covering radius, and deep-hole enumeration.

Coset representatives: for RS-structured codes a tail polynomial supported
in degrees k..n-1 (the degree-<k part is the code); for PRS additionally a
last-coordinate value v, the last entry minus the x^(k-1) coefficient,
both from the one coset map `_sweeps.eval_operators`.  For generic codes a
rep is the (weight, lexicographic) least word of the coset.  Syndrome listings
return one minimum-weight witness word per deep coset, for any code: the
moves `_sweeps.syndrome_bfs` walks back from the deep syndrome's scalar
orbit representative, scaled to the syndrome.  The same code always gets
the same witness, but it is not canonical (not the coset's least word), so
only its coset is the answer.  MDS error distances come from
`error_distances_mds`, one digit product of a batch of words with the
parity functionals of `_sweeps.subset_ops`, and any code's from
`error_distances_brute`, the one codeword scan.  `_sweep` is the one
set-up of the representative sweep; a listing scans one monic tail per
scalar orbit and expands it by the F_q^* scalars, exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import _linops, _sweeps
from .code import (DEFAULT_ENUM_BUDGET, LinearCode, check_words, is_mds,
                   rs_code)
from .gf import FieldCtx
from .poly import Poly


# ----------------------------------------------------------------------
# reports and coset representatives
# ----------------------------------------------------------------------

class CosetRep(NamedTuple):
    """Canonical representative of a coset modulo the code.  A named tuple,
    so order, equality and hash are those of (tail, v, word)."""
    tail: tuple = ()          # tail polynomial coefficients, constant first
    v: int | None = None      # extra-coordinate value (PRS only)
    word: tuple | None = None # minimum-weight word (generic codes only)

    def sort_key(self):
        return (self.tail, -1 if self.v is None else self.v, self.word or ())

    def to_json(self):
        out = {}
        if self.word is not None:
            out["word"] = ",".join(str(x) for x in self.word)
            return out
        out["tail"] = ",".join(str(c) for c in self.tail) if self.tail else "0"
        if self.v is not None:
            out["v"] = self.v
        return out

    def representative_word(self, code: LinearCode) -> tuple:
        if self.word is not None:
            return self.word
        ctx, D = code.ctx, tuple(code.structure["eval"])
        td = ctx.digit_table()[list(self.tail)].reshape(1, -1)
        Vd = _sweeps.eval_operators(ctx, D)[0][:td.shape[1]]
        u = _linops.digit_decode_cols(ctx, _linops.digit_matmul(td, Vd, ctx.p),
                                      len(D))[0].tolist()
        return tuple(u) + ((self.v,) if code.structure["kind"] == "prs" else ())


@dataclass
class RadiusReport:
    code: str
    n: int
    k: int
    rho: int
    algorithm: str              # syndrome-bfs | rep-sweep | brute
    cosets_examined: int
    elapsed_ms: float
    d: int | None = None
    variant: str = ""           # e.g. full / degree-sliced
    notes: list = dc_field(default_factory=list)
    level_counts: list | None = None    # syndrome BFS: syndromes a level
    words_examined: int | None = None   # syndrome BFS: (orbit rep, move) steps,
                                        # 0 for n-k <= 1 (closed form)

    def to_json(self):
        return {
            "code": self.code, "n": self.n, "k": self.k, "d": self.d,
            "rho": self.rho, "algorithm": self.algorithm,
            "variant": self.variant, "cosets_examined": self.cosets_examined,
            "level_counts": self.level_counts,
            "words_examined": self.words_examined,
            "notes": self.notes, "elapsed_ms": round(self.elapsed_ms, 3),
        }


@dataclass
class DeepHoleReport:
    code: str
    rho: int
    count: int
    reps: list                     # sorted CosetReps
    algorithm: str
    elapsed_ms: float
    family_size: int | None = None
    matches_degree_k_family: bool | None = None
    extras: list = dc_field(default_factory=list)
    missing_family: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)

    def to_json(self):
        return {
            "code": self.code, "rho": self.rho,
            "deep_hole_count": self.count,
            "deep_holes": [r.to_json() for r in self.reps],
            "matches_degree_k_family": self.matches_degree_k_family,
            "family_size": self.family_size,
            "extra_count": len(self.extras),
            "extras": [r.to_json() for r in self.extras[:200]],
            "algorithm": self.algorithm, "notes": self.notes,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


# ----------------------------------------------------------------------
# error distances
# ----------------------------------------------------------------------

def error_distances_brute(code: LinearCode, words,
                          enum_budget: int = DEFAULT_ENUM_BUDGET):
    """(distances (N,), nearest codewords (N, n)) of N words, by comparing
    each with all q^k codewords: the one codeword scan.  Chunks of at most
    2^22 word-codeword pairs; a tie goes to the first codeword in
    message-vector order."""
    w = check_words(code, words)
    cw = code.codeword_matrix(enum_budget)
    dist, near = np.empty(len(w), dtype=np.int64), np.empty_like(w)
    step = max(1, (1 << 22) // len(cw))
    for s in range(0, len(w), step):
        d = (w[s:s + step, None] != cw).sum(axis=2, dtype=np.min_scalar_type(code.n))
        i = d.argmin(axis=1)
        dist[s:s + step] = d[np.arange(len(i)), i]
        near[s:s + step] = cw[i]
    return dist, near


def error_distance_brute(code: LinearCode, word,
                         enum_budget: int = DEFAULT_ENUM_BUDGET):
    """`error_distances_brute` of one word: (distance, nearest codeword)."""
    dist, near = error_distances_brute(code, [word], enum_budget)
    return int(dist[0]), tuple(near[0].tolist())


def _mds_stack(code: LinearCode):
    """`_sweeps.subset_ops` of an MDS code; ValueError for any other."""
    stack = _sweeps.subset_ops(code)
    if stack[-1].any():
        raise ValueError(f"{code.label} is not MDS; use error_distance_brute")
    return stack


def error_distances_mds(code: LinearCode, words):
    """(distances (N,), nearest codewords (N, n)) of N words to an MDS
    [n, k] code.  The codeword c_S that matches w on a k-subset S is w_x -
    (h_U . w) / h_U[x] at x not in S, U = S + {x} (`_sweeps.subset_ops`):
    one digit product of w on each U gives each agreement, the distance
    n - k - max_S agree_S and c_S of the first best S in combinations
    order.  A chunk's digits on the U hold about CHUNK * n entries."""
    w = check_words(code, words)
    ctx, n, a = code.ctx, code.n, code.ctx.a
    dt, enc = ctx.digit_table(), ctx.p ** np.arange(a)
    table, U, comp, up, inv, _ = _mds_stack(code)
    dist, near = np.empty(len(w), dtype=np.int64), w.copy()
    step = max(1, _sweeps.CHUNK * n // (table.size // a + len(up)))
    for s in range(0, len(w), step):
        r = np.arange(s, min(s + step, len(w)))[:, None]
        wd = dt[w[s:s + step]].transpose(1, 2, 0).astype(table.dtype)
        hw = _linops.digit_matmul(table, np.take(wd, U, axis=0).reshape(
            len(U), table.shape[2], len(r)), ctx.p)  # digits of h_U . w
        agree = _sweeps.agreements(~hw.any(axis=1), up)
        best = agree.argmax(axis=0)
        dist[s:s + step] = n - code.k - agree.max(axis=0)
        x, fix = comp[best], ctx.mul(hw[up[best], :, r - s] @ enc, inv[best])
        near[r, x] = (dt[w[r, x]] - dt[fix]) % ctx.p @ enc
    return dist, near


def error_distance_mds(code: LinearCode, word):
    """`error_distances_mds` of one word: (distance, nearest codeword)."""
    dist, near = error_distances_mds(code, [word])
    return int(dist[0]), tuple(near[0].tolist())


# ----------------------------------------------------------------------
# coset reduction
# ----------------------------------------------------------------------

def reduce_to_coset_reps(code: LinearCode, words) -> list:
    """Canonical CosetReps of a batch of words.  RS/PRS: the words' values
    on D times V^-1 of `_sweeps.eval_operators` are their coefficients."""
    w = check_words(code, words)
    ctx, kind = code.ctx, code.structure["kind"]
    if kind not in ("rs", "prs"):
        # min weight, then lexicographic: w - c for all codewords c at once
        dt, cw = ctx.digit_table(), code.codeword_matrix(DEFAULT_ENUM_BUDGET)
        reps = []
        for x in w:
            delta = _linops.digit_decode_cols(ctx, (dt[x] - dt[cw]) % ctx.p,
                                              code.n)
            # lexsort's last key is its primary key
            keys = tuple(delta[:, ::-1].T) + ((delta != 0).sum(axis=1),)
            reps.append(CosetRep(word=tuple(delta[np.lexsort(keys)[0]].tolist())))
        return reps
    k, D = code.structure["k"], tuple(code.structure["eval"])
    m = len(D)
    cd = _linops.digit_matmul(ctx.digit_table()[w[:, :m]].reshape(-1, m * ctx.a),
                              _sweeps.eval_operators(ctx, D)[1], ctx.p)
    coeffs = _linops.digit_decode_cols(ctx, cd, m)
    vs = (list(map(ctx.sub, w[:, m].tolist(), coeffs[:, k - 1].tolist()))
          if kind == "prs" else [None] * len(w))
    coeffs[:, :k] = 0
    return list(map(CosetRep, _sweeps._tail_tuples(coeffs), vs))


def reduce_to_coset_rep(code: LinearCode, word) -> CosetRep:
    """`reduce_to_coset_reps` of one word: its canonical CosetRep."""
    return reduce_to_coset_reps(code, [word])[0]


# ----------------------------------------------------------------------
# covering radius
# ----------------------------------------------------------------------

def covering_radius_syndrome(code: LinearCode,
                             enum_budget: int = DEFAULT_ENUM_BUDGET) -> RadiusReport:
    """Coset-leader BFS over the q^(n-k) syndrome table; the report
    carries its level counts and move steps (`_sweeps.syndrome_bfs`)."""
    t0 = time.perf_counter()
    out = _sweeps.syndrome_bfs(code, enum_budget)
    return RadiusReport(
        code=code.label, n=code.n, k=code.k, rho=out.rho,
        algorithm="syndrome-bfs",
        cosets_examined=code.ctx.q ** (code.n - code.k),
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
        level_counts=out.level_counts, words_examined=out.words_examined)


def _sweep(code: LinearCode, collect: bool, enum_budget: int, threads: int):
    """The one set-up of the representative sweep: (variant, SweepOutcome).

    A radius (collect=False) over the full field with more than
    min(2^16, enum_budget) tails scans one normalized slice per tail degree
    ('degree-sliced', exact by orbit invariance); every other radius scans
    all q^(n-k) tails ('full'), at most enum_budget.

    A listing (collect=True, the same budget) scans the zero tail and the
    monic tails ('monic', `_sweeps.monic_plans`), q^(|D|-k-1) + ... + 1 + 1
    of them, and returns the listing of all q^(|D|-k) tails: the zero row
    once, and each monic row t with deep-value mask V as the q-1 rows c*t,
    c in F_q^*, with masks V'[c*v] = V[v].  This is exact:
      - c*C = C, and scaling a word does not change its weight, so
        d(c*w, C) = d(w, C) and c*t is deep iff t is;
      - c*(u_t, v) = (u_(c*t), c*v), and c*t has no coefficient below
        degree k, so (c*t, c*v) is the rep of c times the coset (t, v);
      - every nonzero tail is c*(a monic tail) for exactly one c, its
        leading coefficient, so the expansion is a bijection onto the
        nonzero tails at the maximum, with no duplicates.
    `_sweeps.DEEP_CANDIDATE_CAP` counts the expanded rows, and is checked
    before they are allocated: over it, the outcome is truncated and holds
    no rows.  `cosets` counts the tails scanned.
    """
    kind = code.structure.get("kind")
    if kind not in ("rs", "prs"):
        raise ValueError(f"{code.label}: representative sweep needs an "
                         "RS- or PRS-structured code")
    ctx, k, D = code.ctx, code.structure["k"], tuple(code.structure["eval"])
    q, m = ctx.q, len(D)
    ntails = q ** (m - k)
    if (not collect and code.structure["full_field"]
            and ntails > min(2**16, enum_budget)):
        variant, plans = "degree-sliced", _sweeps.sliced_plans(ctx, k)
    elif ntails > enum_budget:
        raise ValueError(f"{ntails} tail cosets exceed budget {enum_budget}")
    elif collect:
        variant, plans = "monic", _sweeps.monic_plans(ctx, m, k)
    else:
        variant, plans = "full", _sweeps.full_plans(ctx, m, k)
    out = _sweeps.run_sweep(ctx, D, k, prs=(kind == "prs"), plans=plans,
                            collect=collect, threads=threads)
    if not collect:
        return variant, out
    rows, deep = out.candidates, out.deep_v
    nonzero = rows.any(axis=1)
    nmonic = int(nonzero.sum())
    if (out.truncated or len(rows) + (q - 2) * nmonic
            > _sweeps.DEEP_CANDIDATE_CAP):
        return variant, replace(out, candidates=rows[:0], deep_v=deep[:0],
                                truncated=True)
    cs = np.arange(1, q)
    scaled = ctx.mul(rows[nonzero][:, None], cs[:, None])
    if kind == "prs":  # row c*t's mask at w is t's mask at c^-1 * w
        sdeep = deep[nonzero][:, ctx.mul(ctx.inv(cs)[:, None], np.arange(q))]
    else:
        sdeep = np.repeat(deep[nonzero], q - 1, axis=0)
    return variant, replace(
        out, candidates=np.concatenate([rows[~nonzero], scaled.reshape(-1, m)]),
        deep_v=np.concatenate([deep[~nonzero],
                               sdeep.reshape(-1, deep.shape[1])]))


def covering_radius_sweep(code: LinearCode,
                          enum_budget: int = DEFAULT_ENUM_BUDGET,
                          threads: int = 1) -> RadiusReport:
    """Representative sweep for RS/PRS-structured codes (exact); the
    report's variant names the tail plan `_sweep` chose."""
    t0 = time.perf_counter()
    variant, out = _sweep(code, False, enum_budget, threads)
    notes = (["orbit-normalized slices; radius exact by invariance"]
             if variant == "degree-sliced" else [])
    return RadiusReport(
        code=code.label, n=code.n, k=code.k, rho=out.max_contrib,
        algorithm="rep-sweep", variant=variant,
        cosets_examined=out.cosets * (code.ctx.q if code.structure["kind"]
                                      == "prs" else 1),
        elapsed_ms=(time.perf_counter() - t0) * 1e3, notes=notes)


def covering_radius_brute(code: LinearCode,
                          enum_budget: int = DEFAULT_ENUM_BUDGET) -> RadiusReport:
    """Max of `error_distances_brute` over the q^n words of the ambient
    space, fed in chunks (tiny codes)."""
    t0 = time.perf_counter()
    q, n = code.ctx.q, code.n
    total = q**n
    if total * q**code.k > enum_budget:
        raise ValueError(f"q^n * q^k = {total * q**code.k} distance pairs "
                         f"exceed budget {enum_budget}")
    rho = 0
    for s in range(0, total, _sweeps.CHUNK):
        words = _linops.mixed_radix(np.arange(s, min(s + _sweeps.CHUNK, total)),
                                    q, n)
        rho = max(rho, int(error_distances_brute(code, words,
                                                 enum_budget)[0].max()))
    return RadiusReport(
        code=code.label, n=code.n, k=code.k, rho=rho, algorithm="brute",
        cosets_examined=total,
        elapsed_ms=(time.perf_counter() - t0) * 1e3)


def covering_radius(code: LinearCode, algo: str = "auto",
                    enum_budget: int = DEFAULT_ENUM_BUDGET,
                    threads: int = 1) -> RadiusReport:
    """Dispatch.  'auto' runs the syndrome BFS when its q^(n-k) table fits
    enum_budget, unless the code is RS/PRS with n-k >= 5, where the sweep
    was measured faster before the BFS searched one syndrome per scalar
    orbit.  Cold single calls on a 2-core host, median of 3, BFS vs sweep,
    since then: at n-k >= 5, RS(13,8)/F_13 9 vs 7 ms, RS(17,12)/F_17 26 vs
    14 ms, PRS(10,4)/F_9 22 vs 22 ms, PRS(12,6)/F_11 65 vs 7 ms, but
    PRS(14,9)/F_13 12 vs 28 ms and PRS(10,5)/F_9 3 vs 11 ms.  Below, the
    BFS wins on PRS codes (PRS(12,8)/F_11 3 vs 7 ms, PRS(68,65)/F_67 27 vs
    74 ms) and loses on RS codes over larger fields (RS(13,9)/F_13 9 vs
    3 ms).  Over budget it runs the sweep."""
    if algo == "syndrome":
        return covering_radius_syndrome(code, enum_budget)
    if algo == "sweep":
        return covering_radius_sweep(code, enum_budget=enum_budget,
                                     threads=threads)
    if algo == "brute":
        return covering_radius_brute(code, enum_budget)
    if algo != "auto":
        raise ValueError(f"unknown algorithm {algo!r}")
    if (code.ctx.q ** (code.n - code.k) <= enum_budget
            and (code.structure.get("kind") not in ("rs", "prs")
                 or code.n - code.k < 5)):
        return covering_radius_syndrome(code, enum_budget)
    return covering_radius_sweep(code, enum_budget=enum_budget, threads=threads)


# ----------------------------------------------------------------------
# deep holes
# ----------------------------------------------------------------------

def _degree_k_family(ctx: FieldCtx, k: int, vs):
    """Representatives (c*x^k, v) for c != 0 and v in vs (v=None for RS)."""
    for c in range(1, ctx.q):
        for v in vs:
            yield CosetRep(tail=(0,) * k + (c,), v=v)


def deep_hole_family_prs(ctx: FieldCtx, k: int):
    """The (q-1)*q representatives (c*x^k, v), c != 0."""
    if not 2 <= k <= ctx.q - 2:
        raise ValueError(f"need 2 <= k <= q-2, got k={k}, q={ctx.q}")
    return _degree_k_family(ctx, k, range(ctx.q))


def deep_holes(code: LinearCode, rho: int | None = None, algo: str = "auto",
               enum_budget: int = DEFAULT_ENUM_BUDGET,
               threads: int = 1) -> DeepHoleReport:
    """All coset representatives at error distance exactly rho(C).

    The sweep (RS/PRS codes) lists (tail, extra-coordinate) reps, from
    one monic tail a scalar orbit expanded by the F_q^* scalars (`_sweep`),
    and the report compares them against the degree-k family.  The
    syndrome BFS (any code) lists one minimum-weight witness word per deep
    coset and leaves the family fields unset.  Over
    `_sweeps.DEEP_CANDIDATE_CAP` deep tails (sweep) or deep cosets (BFS),
    either engine raises ValueError before listing.  Reps are in
    `CosetRep.sort_key` order: one lexsort of the coefficient or word rows
    gives it, since zero-padding a stripped tail keeps tuple order.
    """
    t0 = time.perf_counter()
    kind = code.structure.get("kind")
    ctx = code.ctx
    if algo == "auto":
        algo = "sweep" if kind in ("rs", "prs") else "syndrome"
    if algo == "syndrome":
        out = _sweeps.syndrome_bfs(code, enum_budget, want_witness=True)
        if rho is not None and rho != out.rho:
            raise ValueError(f"supplied rho={rho} but BFS found {out.rho}")
        words = out.witnesses[np.lexsort(out.witnesses.T[::-1])].tolist()
        return DeepHoleReport(
            code=code.label, rho=out.rho, count=len(words),
            reps=list(map(CosetRep, repeat(()), repeat(None),
                          map(tuple, words))),
            algorithm="syndrome-bfs",
            elapsed_ms=(time.perf_counter() - t0) * 1e3)
    if algo != "sweep":
        raise ValueError(f"unknown deep-hole algorithm {algo!r}")
    _, out = _sweep(code, True, enum_budget, threads)
    if out.truncated:
        raise ValueError(
            f"more than {_sweeps.DEEP_CANDIDATE_CAP} deep-hole candidates "
            "(the candidate cap); the listing would be incomplete")
    if rho is not None and rho != out.max_contrib:
        raise ValueError(
            f"supplied rho={rho} but sweep found max distance {out.max_contrib}")
    # tails are distinct, so sorting them and then each one's v values
    # (nonzero is row-major) sorts the (tail, v) pairs
    order = np.lexsort(out.candidates.T[::-1])
    coeffs, deep = out.candidates[order], out.deep_v[order]
    r, v = np.nonzero(deep)
    vals = range(ctx.q) if kind == "prs" else (None,)
    tails = _sweeps._tail_tuples(coeffs)
    reps = list(map(CosetRep, map(tails.__getitem__, r.tolist()),
                    map(vals.__getitem__, v.tolist())))
    # family pairs (c*x^k, v), c != 0, in sort_key order: by c, then v
    k, n = code.structure["k"], coeffs.shape[1]
    is_cxk = np.zeros(len(coeffs), dtype=bool)  # tail c*x^k, c != 0
    present = np.zeros((ctx.q, deep.shape[1]), dtype=bool)
    if k < n:
        is_cxk = (coeffs[:, k] != 0) & ~coeffs[:, k + 1:].any(axis=1)
        present[coeffs[is_cxk, k]] = deep[is_cxk]
    family = list(_degree_k_family(ctx, k, vals))
    extras = np.nonzero(~is_cxk[r])[0].tolist()
    missing = np.nonzero(~present[1:].ravel())[0].tolist()
    return DeepHoleReport(
        code=code.label, rho=out.max_contrib, count=len(reps), reps=reps,
        algorithm="rep-sweep", elapsed_ms=(time.perf_counter() - t0) * 1e3,
        family_size=len(family),
        matches_degree_k_family=not extras and not missing,
        extras=[reps[i] for i in extras],
        missing_family=[family[i] for i in missing])


# ----------------------------------------------------------------------
# nested codes and the RS reduction bound
# ----------------------------------------------------------------------

def nested_max_distance(c1: LinearCode, c2: LinearCode,
                        enum_budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """M(C1, C2) = max over codewords c of C2 of d(c, C1); requires C1 in C2."""
    if c1.ctx != c2.ctx or c1.n != c2.n:
        raise ValueError("codes must share field and length")
    if not all(c2.contains(r) for r in c1.G):
        raise ValueError(f"{c1.label} is not contained in {c2.label}")
    cw = c2.codeword_matrix(enum_budget)
    if is_mds(c1):
        return int(error_distances_mds(c1, cw)[0].max())
    return int(error_distances_brute(c1, cw, enum_budget)[0].max())


def prs_bound_via_rs(f: Poly, v: int, k: int) -> int:
    """d(u_{f - v*x^(k-1)}, RS(q, k-1)): an upper bound for the distance of
    (u_f, v) to PRS(q+1, k)."""
    ctx = f.ctx
    if k < 2:
        raise ValueError("need k >= 2 so that RS(q, k-1) exists")
    if f.degree != float("-inf") and f.degree > ctx.q - 1:
        raise ValueError("deg f must be <= q-1")
    shift = Poly(ctx, [0] * (k - 1) + [v])
    g = f - shift
    rs = rs_code(ctx, k - 1)
    word = tuple(map(g, ctx.elements()))
    return error_distance_mds(rs, word)[0]
