"""Exact error distance, covering radius, and deep-hole enumeration.

Coset representatives: for RS-structured codes a tail polynomial supported
in degrees k..n-1 (the degree-<k part is the code); for PRS additionally a
last-coordinate value v, the last entry minus the x^(k-1) coefficient,
both from the one coset map `_sweeps.eval_operators`.  For generic codes a
rep is the (weight, lexicographic) least word of the coset.  Syndrome listings
return one minimum-weight witness word per deep coset, for any code; the
witness is not canonical.  MDS error distances come from
`error_distances_mds`, which runs the sweep's `_sweeps.decode_step` on
batches of words, and any code's from `error_distances_brute`, the one
codeword scan.  `_sweep` is the one set-up of the representative sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _linops, _sweeps
from .code import (DEFAULT_ENUM_BUDGET, LinearCode, check_words, is_mds,
                   rs_code)
from .gf import FieldCtx
from .poly import Poly


# ----------------------------------------------------------------------
# reports and coset representatives
# ----------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class CosetRep:
    """Canonical representative of a coset modulo the code."""
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

    def to_json(self):
        return {
            "code": self.code, "n": self.n, "k": self.k, "d": self.d,
            "rho": self.rho, "algorithm": self.algorithm,
            "variant": self.variant, "cosets_examined": self.cosets_examined,
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
    """(col_gather, ops, singular) subset-decoding stack over all n columns."""
    stack = _sweeps.subset_ops(code.ctx, code.G, code.n)
    if stack[2].any():
        raise ValueError(f"{code.label} is not MDS; use error_distance_brute")
    return stack


def error_distances_mds(code: LinearCode, words):
    """(distances (N,), nearest codewords (N, n)) of N words to an MDS code:
    a nearest codeword agrees with the word on >= k coordinates, so decoding
    on all C(n,k) subsets finds it.  Chunks of max(1, CHUNK // C) words; a
    tie goes to the first subset in itertools.combinations order."""
    w = check_words(code, words)
    ctx, n = code.ctx, code.n
    gather, ops, _ = _mds_stack(code)
    dist, near = np.empty(len(w), dtype=np.int64), np.empty_like(w)
    step = max(1, _sweeps.CHUNK // len(ops))
    for s in range(0, len(w), step):
        ud = ctx.digit_table()[w[s:s + step]].reshape(-1, n * ctx.a)
        cand, agree = _sweeps.decode_step(ctx, ud, gather, ops, n)
        best, r = agree.argmax(axis=0), np.arange(agree.shape[1])
        dist[s:s + step] = n - agree[best, r].astype(np.int64)
        near[s:s + step] = _linops.digit_decode_cols(ctx, cand[best, r], n)
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
    return [CosetRep(tail=t, v=v)
            for t, v in zip(_sweeps._tail_tuples(coeffs), vs)]


def reduce_to_coset_rep(code: LinearCode, word) -> CosetRep:
    """`reduce_to_coset_reps` of one word: its canonical CosetRep."""
    return reduce_to_coset_reps(code, [word])[0]


# ----------------------------------------------------------------------
# covering radius
# ----------------------------------------------------------------------

def covering_radius_syndrome(code: LinearCode,
                             enum_budget: int = DEFAULT_ENUM_BUDGET) -> RadiusReport:
    """Coset-leader BFS over the q^(n-k) syndrome table."""
    t0 = time.perf_counter()
    out = _sweeps.syndrome_bfs(code, enum_budget)
    return RadiusReport(
        code=code.label, n=code.n, k=code.k, rho=out.rho,
        algorithm="syndrome-bfs",
        cosets_examined=code.ctx.q ** (code.n - code.k),
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
        notes=[f"words_examined={out.words_examined}"])


def _sweep(code: LinearCode, collect: bool, enum_budget: int, threads: int):
    """The one set-up of the representative sweep: (variant, SweepOutcome).

    A radius (collect=False) over the full field with more than
    min(2^16, enum_budget) tails scans one normalized slice per tail degree
    ('degree-sliced', exact by orbit invariance); every other radius and
    every listing scans all q^(n-k) tails ('full'), at most enum_budget.
    """
    kind = code.structure.get("kind")
    if kind not in ("rs", "prs"):
        raise ValueError(f"{code.label}: representative sweep needs an "
                         "RS- or PRS-structured code")
    ctx, k, D = code.ctx, code.structure["k"], tuple(code.structure["eval"])
    ntails = ctx.q ** (len(D) - k)
    if (not collect and code.structure["full_field"]
            and ntails > min(2**16, enum_budget)):
        variant, plans = "degree-sliced", _sweeps.sliced_plans(ctx, k)
    elif ntails > enum_budget:
        raise ValueError(f"{ntails} tail cosets exceed budget {enum_budget}")
    else:
        variant, plans = "full", _sweeps.full_plans(ctx, len(D), k)
    return variant, _sweeps.run_sweep(ctx, D, k, prs=(kind == "prs"),
                                      plans=plans, collect=collect,
                                      threads=threads)


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
    enum_budget, unless the code is RS/PRS with n-k >= 5: the sweep was
    measured faster there and slower below.  Over budget it runs the sweep."""
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

    The sweep (RS/PRS codes) lists (tail, extra-coordinate) reps and the
    report compares them against the degree-k family; more than
    `_sweeps.DEEP_CANDIDATE_CAP` deep tails raise ValueError rather than
    return a partial listing.  The syndrome BFS (any code) lists one
    minimum-weight witness word per deep coset and leaves the family
    fields unset.
    """
    t0 = time.perf_counter()
    kind = code.structure.get("kind")
    ctx = code.ctx
    if algo == "auto":
        algo = "sweep" if kind in ("rs", "prs") else "syndrome"
    if algo == "sweep":
        _, out = _sweep(code, True, enum_budget, threads)
        if out.truncated:
            raise ValueError(
                f"more than {_sweeps.DEEP_CANDIDATE_CAP} deep-hole candidates "
                "(the candidate cap); the listing would be incomplete")
        if rho is not None and rho != out.max_contrib:
            raise ValueError(
                f"supplied rho={rho} but sweep found max distance {out.max_contrib}")
        rho = out.max_contrib
        reps = [CosetRep(tail=t, v=v) for t, vs in out.candidates for v in vs]
        algorithm = "rep-sweep"
    elif algo == "syndrome":
        out = _sweeps.syndrome_bfs(code, enum_budget, want_witness=True)
        if rho is not None and rho != out.rho:
            raise ValueError(f"supplied rho={rho} but BFS found {out.rho}")
        rho = out.rho
        reps = [CosetRep(word=tuple(w)) for w in out.witnesses.tolist()]
        algorithm = "syndrome-bfs"
    else:
        raise ValueError(f"unknown deep-hole algorithm {algo!r}")

    reps.sort(key=CosetRep.sort_key)
    report = DeepHoleReport(
        code=code.label, rho=rho, count=len(reps), reps=reps,
        algorithm=algorithm, elapsed_ms=(time.perf_counter() - t0) * 1e3)
    if algo == "sweep":
        vs = range(ctx.q) if kind == "prs" else (None,)
        fs, rs = set(_degree_k_family(ctx, code.structure["k"], vs)), set(reps)
        report.family_size = len(fs)
        report.matches_degree_k_family = fs == rs
        report.extras = sorted(rs - fs, key=CosetRep.sort_key)
        report.missing_family = sorted(fs - rs, key=CosetRep.sort_key)
    return report


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
