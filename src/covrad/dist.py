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
only its coset is the answer.  A `DeepHoleReport` keeps a listing as the
engines' sorted arrays, which are the report: its CosetReps are views
built only when read, and its JSON is formatted from the arrays.  MDS
error distances come from `error_distances_mds`, one digit product of a
batch of words with the parity functionals of `_sweeps.subset_ops`, and
any code's from `error_distances_brute`, the one codeword scan.  `_sweep`
is the one set-up of the representative sweep; a listing over the full
field scans the degree slices and expands them, exactly, by the
translations x -> x - b to the monic tails, one a scalar orbit, and these
by the F_q^* scalars; over a partial evaluation set it scans the monic
tails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property, partial
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

    def to_json(self):
        """This rep's JSON, which `DeepHoleReport.to_json` formats from its
        arrays instead, a row at a time."""
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
        tail = np.array(self.tail, dtype=np.intp).reshape(1, -1)
        return tuple(_coset_words(code, tail, [self.v])[0].tolist())


def _coset_words(code: LinearCode, coeffs: np.ndarray, vs) -> np.ndarray:
    """Representative words (N, n) of the RS/PRS cosets with tail
    coefficient rows `coeffs` (N, at most |D|, constant first) and, for a
    PRS code, extra-coordinate values `vs`: the tails' values on D, one
    digit product with V of `_sweeps.eval_operators`."""
    ctx, D = code.ctx, tuple(code.structure["eval"])
    td = ctx.digit_table()[coeffs].reshape(len(coeffs), -1)
    Vd = _sweeps.eval_operators(ctx, D)[0][:td.shape[1]]
    u = _linops.digit_decode_cols(ctx, _linops.digit_matmul(td, Vd, ctx.p),
                                  len(D))
    return np.column_stack([u, vs]) if code.structure["kind"] == "prs" else u


def _tail_reps(coeffs: np.ndarray, vs: np.ndarray | None) -> list:
    """CosetReps of tail coefficient rows and their extra values (None for
    RS): the one builder of tail reps."""
    return list(map(CosetRep, _sweeps._tail_tuples(coeffs),
                    repeat(None) if vs is None else vs.tolist()))


def _joined(rows: np.ndarray, lengths: np.ndarray) -> list:
    """`",".join(map(str, row[:length]))` of each row, every length at least
    1, from one join over a table of the tokens "i," and "i\n"."""
    top = int(rows.max(initial=0)) + 1
    tokens = np.array([f"{i}," for i in range(top)]
                      + [f"{i}\n" for i in range(top)], dtype=object)
    cols = np.arange(rows.shape[1])
    ids = rows.astype(np.intp) + top * (cols == lengths[:, None] - 1)
    return "".join(tokens[ids[cols < lengths[:, None]]]).split("\n")[:-1]


@dataclass
class RadiusReport:
    code: str
    n: int
    k: int
    rho: int
    algorithm: str              # syndrome-bfs | rep-sweep | brute
    cosets_examined: int
    elapsed_ms: float
    variant: str = ""           # e.g. full / degree-sliced
    notes: list = dc_field(default_factory=list)
    level_counts: list | None = None    # syndrome BFS: syndromes a level
    words_examined: int | None = None   # syndrome BFS: (orbit rep, move) steps,
                                        # 0 for n-k <= 1 (closed form)

    def to_json(self):
        return {
            "code": self.code, "n": self.n, "k": self.k, "rho": self.rho,
            "algorithm": self.algorithm, "variant": self.variant,
            "cosets_examined": self.cosets_examined,
            "level_counts": self.level_counts,
            "words_examined": self.words_examined,
            "notes": self.notes, "elapsed_ms": round(self.elapsed_ms, 3),
        }


@dataclass(eq=False)
class DeepHoleReport:
    """The deep holes of a code, kept as the read-only arrays the engines
    produce; the arrays are the report.

    A sweep listing keeps its sorted coefficient rows `rows` (R, |D|), one
    per deep tail, and two arrays over the `count` deep holes in sorted
    (tail, v) order: `row`, each one's row in `rows`, and `v`, each one's
    extra value (PRS only, else None).  A BFS listing keeps its sorted
    witness words `rows` (count, n), one per deep hole, and `row` is None.
    Where the sweep compares its listing with the degree-k family (c*x^k,
    v), `extra` indexes the deep holes outside it, and `missing` (M, |D|)
    and `missing_v` are the family members that are not deep.

    `reps`, `extras` and `missing_family` are views of the arrays as sorted
    CosetRep lists, built when first read; `reps_at` builds the reps of the
    chosen deep holes only.  `words` and `to_json` read the arrays and
    build no CosetRep.
    """
    code: str
    rho: int
    count: int
    rows: np.ndarray
    algorithm: str
    elapsed_ms: float
    row: np.ndarray | None = None
    v: np.ndarray | None = None
    family_size: int | None = None
    matches_degree_k_family: bool | None = None
    extra: np.ndarray = dc_field(default_factory=partial(np.zeros, 0, np.intp))
    missing: np.ndarray = dc_field(
        default_factory=partial(np.zeros, (0, 0), np.intp))
    missing_v: np.ndarray | None = None
    notes: list = dc_field(default_factory=list)

    def __post_init__(self):
        for a in (self.rows, self.row, self.v, self.extra, self.missing,
                  self.missing_v):
            if a is not None:
                a.flags.writeable = False

    def rows_at(self, idx) -> np.ndarray:
        """The coefficient rows (sweep) or words (BFS) of deep holes idx."""
        return self.rows[idx] if self.row is None else self.rows[self.row[idx]]

    def _v_at(self, idx):
        return None if self.v is None else self.v[idx]

    def reps_at(self, idx) -> list:
        """CosetReps of the deep holes idx (an index array or a slice)."""
        if self.row is None:
            return list(map(CosetRep, repeat(()), repeat(None),
                            map(tuple, self.rows_at(idx).tolist())))
        return _tail_reps(self.rows_at(idx), self._v_at(idx))

    @cached_property
    def reps(self) -> list:
        return self.reps_at(slice(None))

    @cached_property
    def extras(self) -> list:
        return self.reps_at(self.extra)

    @cached_property
    def missing_family(self) -> list:
        return _tail_reps(self.missing, self.missing_v)

    def words(self, code: LinearCode, idx=slice(None)) -> np.ndarray:
        """Representative words (len(idx), n) of the deep holes idx."""
        if self.row is None:
            return self.rows_at(idx)
        return _coset_words(code, self.rows_at(idx), self._v_at(idx))

    def _json_columns(self, idx) -> dict:
        """The `CosetRep.to_json` fields of the deep holes idx as columns,
        {"word": strings} or {"tail": strings} plus {"v": ints} for PRS,
        from the arrays; a sweep's tails are formatted once a row they use.
        The strings hold digits and commas only."""
        if self.row is None:
            words = self.rows_at(idx)
            return {"word": _joined(words, np.full(len(words), words.shape[1]))}
        used, at = np.unique(self.row[idx], return_inverse=True)
        rows = self.rows[used]
        tails = np.array(_joined(rows, np.maximum(_sweeps.tail_lengths(rows), 1)),
                         dtype=object)[at]
        if self.v is None:
            return {"tail": tails.tolist()}
        return {"tail": tails.tolist(), "v": self.v[idx].tolist()}

    def to_json(self, records: bool = True):
        """The report as JSON values.  With records=False the lists
        "deep_holes" and "extras" stay the columns of their records,
        {field: values}, which `cli` writes from fixed text."""
        def listing(idx):
            cols = self._json_columns(idx)
            if not records:
                return cols
            return [dict(zip(cols, vals)) for vals in zip(*cols.values())]
        return {
            "code": self.code, "rho": self.rho,
            "deep_hole_count": self.count,
            "deep_holes": listing(slice(None)),
            "matches_degree_k_family": self.matches_degree_k_family,
            "family_size": self.family_size,
            "extra_count": len(self.extra),
            "extras": listing(self.extra[:200]),
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

def coset_rows(code: LinearCode, words):
    """(coefficient rows (N, |D|), extra values) of the canonical reps of a
    batch of words of an RS/PRS code: the words' values on D times V^-1 of
    `_sweeps.eval_operators` are their coefficients, here with the degree
    < k part zeroed; the extra values are an array (PRS) or None (RS)."""
    w = check_words(code, words)
    ctx, k, D = code.ctx, code.structure["k"], tuple(code.structure["eval"])
    m = len(D)
    cd = _linops.digit_matmul(ctx.digit_table()[w[:, :m]].reshape(-1, m * ctx.a),
                              _sweeps.eval_operators(ctx, D)[1], ctx.p)
    coeffs = _linops.digit_decode_cols(ctx, cd, m)
    vs = (_sweeps._fsub(ctx, w[:, m], coeffs[:, k - 1])
          if code.structure["kind"] == "prs" else None)
    coeffs[:, :k] = 0
    return coeffs, vs


def reduce_to_coset_reps(code: LinearCode, words) -> list:
    """Canonical CosetReps of a batch of words: `coset_rows` for RS/PRS
    codes, else the (weight, lexicographic) least word of each coset."""
    if code.structure["kind"] in ("rs", "prs"):
        return _tail_reps(*coset_rows(code, words))
    w = check_words(code, words)
    ctx = code.ctx
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


def _translations(code: LinearCode, rows: np.ndarray, deep: np.ndarray):
    """The q translates t(x - b), b in F_q, of each of R tail rows t (R, |D|)
    of a full-field RS/PRS code, with their deep-value masks from the
    rows' masks `deep`: (rows (R*q, |D|), masks (R*q, q or 1)), row r*q + i
    translating row r by D[i].  One `coset_rows` product of the R*q words,
    the rows' words with their columns permuted to x - b.  x -> x - b keeps
    the degree-< k part of t(x - b) below degree k, so the translate's rep
    is its tail T.  For PRS that part has some x^(k-1) coefficient l, and
    (u_t, v + l) maps to (u_T, v), so T's mask at v is t's at v + l;
    `coset_rows` of the extra value 0 gives -l."""
    ctx, D, n, q = code.ctx, tuple(code.structure["eval"]), code.n, code.ctx.q
    pos, Dx = np.empty(q, dtype=np.intp), np.asarray(D, dtype=np.int64)
    pos[Dx] = np.arange(q)
    perm = np.full((q, n), q)  # PRS: the extra coordinate stays put
    perm[:, :q] = pos[_sweeps._fsub(ctx, Dx, Dx[:, None])]  # b, x: x - b
    words = _coset_words(code, rows, np.zeros(len(rows), dtype=np.intp))
    coeffs, vs = coset_rows(code, words[:, perm].reshape(-1, n))
    masks = np.repeat(deep, q, axis=0)
    if vs is not None:
        masks = np.take_along_axis(
            masks, _sweeps._fsub(ctx, np.arange(q), vs[:, None]), axis=1)
    return coeffs, masks


def _sweep(code: LinearCode, collect: bool, enum_budget: int, threads: int):
    """The one set-up of the representative sweep: (variant, SweepOutcome).

    Over the full field, a listing (collect=True), and a radius with more
    than min(2^16, enum_budget) tails, scan one normalized slice per tail
    degree ('degree-sliced', `_sweeps.sliced_plans`), which is exact by
    orbit invariance; every other radius scans all q^(n-k) tails ('full'),
    and a listing over a partial evaluation set the zero tail and the monic
    tails ('monic', `_sweeps.monic_plans`), q^(|D|-k-1) + ... + 1 + 1 of
    them.  A listing scans at most enum_budget tails.

    A listing returns the rows of all q^(|D|-k) tails at the maximum and
    their deep-value masks.  A sliced scan first becomes the monic listing:
    each row t of degree d >= k+1 with p not dividing d is replaced by its
    q translates, the tails of t(x - b), b in F_q (`_translations`).  This
    is exact:
      - x -> x - b maps D = F_q onto itself and the code onto itself, and
        keeps the PRS coordinate, the x^(k-1) coefficient of a codeword, so
        it keeps every distance, and a translate is deep iff t is;
      - the slice of degree d holds the monic tails with x^(d-1)
        coefficient 0, and that coefficient of t(x - b) is -d*b, so the
        translates of the slice are the q^(d-k) monic tails of degree d,
        each once: no duplicates;
      - the slices of degree k or a multiple of p, and the zero tail, are
        whole monic slices already and are not expanded.
    Then the zero row stays once, and each monic row t with deep-value
    mask V becomes the q-1 rows c*t, c in F_q^*, with masks V'[c*v] = V[v].
    This is exact:
      - c*C = C, and scaling a word does not change its weight, so
        d(c*w, C) = d(w, C) and c*t is deep iff t is;
      - c*(u_t, v) = (u_(c*t), c*v), and c*t has no coefficient below
        degree k, so (c*t, c*v) is the rep of c times the coset (t, v);
      - every nonzero tail is c*(a monic tail) for exactly one c, its
        leading coefficient, so the expansion is a bijection onto the
        nonzero tails at the maximum, with no duplicates.
    `_sweeps._listed`, the one refusal of an oversize listing, counts the
    translated rows, then the scaled rows, before any is made and raises
    ValueError over `_sweeps.DEEP_CANDIDATE_CAP`, counting one more row
    when the kernel stopped at the cap (`truncated`), as it then dropped
    some.  `cosets` counts the tails scanned.
    """
    kind = code.structure.get("kind")
    if kind not in ("rs", "prs"):
        raise ValueError(f"{code.label}: representative sweep needs an "
                         "RS- or PRS-structured code")
    ctx, k, D = code.ctx, code.structure["k"], tuple(code.structure["eval"])
    q, m = ctx.q, len(D)
    sliced = code.structure["full_field"] and (
        collect or q ** (m - k) > min(2**16, enum_budget))
    if sliced:
        variant, plans = "degree-sliced", _sweeps.sliced_plans(ctx, k)
    else:
        variant, plans = (("monic", _sweeps.monic_plans(ctx, m, k)) if collect
                          else ("full", _sweeps.full_plans(ctx, m, k)))
    if collect or not sliced:
        ntails = sum(plan.count for plan in plans)
        if ntails > enum_budget:
            raise ValueError(f"{ntails} {variant} tail cosets exceed budget "
                             f"{enum_budget}")
    out = _sweeps.run_sweep(ctx, D, k, prs=(kind == "prs"), plans=plans,
                            collect=collect, threads=threads)
    if not collect:
        return variant, out
    rows, deep = out.candidates, out.deep_v
    d = _sweeps.tail_lengths(rows) - 1  # -1 for the zero tail
    grow = sliced & (d > k) & (d % ctx.p != 0)
    zero = int(np.count_nonzero(d < 0))
    monic = len(rows) - zero + (q - 1) * int(grow.sum())  # once translated
    _sweeps._listed(zero + (q - 1) * monic + out.truncated)
    if grow.any():
        moved = _translations(code, rows[grow], deep[grow])
        rows, deep = (np.concatenate([rows[~grow], moved[0]]),
                      np.concatenate([deep[~grow], moved[1]]))
    nonzero = rows.any(axis=1)
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
    orbit.  Cold single calls in fresh processes on a 2-core host, median
    of 3, BFS vs sweep, with RS/PRS codes built in closed form: at
    n-k >= 5, PRS(12,5)/F_11 0.96 s vs 5 ms, PRS(12,6)/F_11 37 vs 4 ms,
    RS(17,12)/F_17 17 vs 10 ms, PRS(10,4)/F_9 14 vs 10 ms, RS(13,8)/F_13
    6 vs 4 ms, but PRS(14,9)/F_13 7 vs 16 ms and PRS(10,5)/F_9 1.8 vs
    5 ms.  Below, the BFS wins on PRS codes (PRS(12,8)/F_11 0.9 vs 4 ms,
    PRS(68,65)/F_67 1 vs 33 ms) and on RS(41,38)/F_41 (3 vs 11 ms), and
    loses on RS(13,9)/F_13 (4 vs 2 ms).  Over budget it runs the sweep; if
    the sweep refuses too, the error says that neither engine fits."""
    if algo == "syndrome":
        return covering_radius_syndrome(code, enum_budget)
    if algo == "sweep":
        return covering_radius_sweep(code, enum_budget=enum_budget,
                                     threads=threads)
    if algo == "brute":
        return covering_radius_brute(code, enum_budget)
    if algo != "auto":
        raise ValueError(f"unknown algorithm {algo!r}")
    size = code.ctx.q ** (code.n - code.k)
    if size <= enum_budget and (code.structure.get("kind") not in ("rs", "prs")
                                or code.n - code.k < 5):
        return covering_radius_syndrome(code, enum_budget)
    try:
        return covering_radius_sweep(code, enum_budget=enum_budget,
                                     threads=threads)
    except ValueError as err:
        if size <= enum_budget:
            raise
        raise ValueError(f"neither engine fits {code.label}: the syndrome "
                         f"table q^(n-k) = {size} exceeds budget "
                         f"{enum_budget}, and the sweep refused: {err}") from None


# ----------------------------------------------------------------------
# deep holes
# ----------------------------------------------------------------------

def deep_hole_family_prs(ctx: FieldCtx, k: int):
    """The (q-1)*q representatives (c*x^k, v), c != 0."""
    if not 2 <= k <= ctx.q - 2:
        raise ValueError(f"need 2 <= k <= q-2, got k={k}, q={ctx.q}")
    return (CosetRep((0,) * k + (c,), v)
            for c in range(1, ctx.q) for v in range(ctx.q))


def _row_order(rows: np.ndarray, q: int) -> np.ndarray:
    """The stable lexicographic order, column 0 first, of rows (N, m) of
    values below q: one lexsort of the rows packed into int64 words of w
    columns, q^w <= 2^63, word sum_j c_j q^(w-1-j), so one word and one
    sort key wherever q^m fits; m = 0 packs one zero word."""
    w = 1
    while q ** (w + 1) <= 2**63:
        w += 1
    words = [r @ q ** np.arange(r.shape[1] - 1, -1, -1, dtype=np.int64)
             for r in (rows[:, s:s + w].astype(np.int64, copy=False)
                       for s in range(0, max(rows.shape[1], 1), w))]
    return np.lexsort(words[::-1])


def deep_holes(code: LinearCode, algo: str = "auto",
               enum_budget: int = DEFAULT_ENUM_BUDGET,
               threads: int = 1) -> DeepHoleReport:
    """All coset representatives at error distance exactly rho(C), which
    the report carries as the engines' sorted arrays; CosetReps are views
    of them, built when read (`DeepHoleReport`).

    The sweep (RS/PRS codes) lists (tail, extra-coordinate) reps
    (`_sweep`).  Over the full field it scans one normalized slice a tail
    degree, and each deep slice tail t of degree d >= k+1, p not dividing
    d, stands for its q translates t(x - b): x -> x - b maps F_q onto
    itself and the code onto itself, keeps the PRS coordinate, and moves
    the x^(d-1) coefficient by -d*b, so the translates are distinct and
    deep, and with the whole slices they are the monic tails.  Over a
    partial evaluation set it scans the monic tails.  Each monic tail
    stands for its q-1 scalar multiples.  Where x^k is a tail (k < |D|)
    the report compares the reps against the degree-k family (c*x^k, v),
    c != 0.  The syndrome BFS (any code)
    lists one minimum-weight witness word per deep coset.  Without a
    family the family fields stay unset.  Over `_sweeps.DEEP_CANDIDATE_CAP`
    deep tails (sweep) or deep cosets (BFS), either engine raises
    ValueError in `_sweeps._listed` before listing.  Rows are sorted: one
    lexsort of the word rows, or of the coefficient rows packed into int64
    words (`_row_order`), gives the reps' tuple order, since zero-padding
    a stripped tail keeps it.
    """
    t0 = time.perf_counter()
    kind = code.structure.get("kind")
    ctx = code.ctx
    if algo == "auto":
        algo = "sweep" if kind in ("rs", "prs") else "syndrome"
    if algo == "syndrome":
        out = _sweeps.syndrome_bfs(code, enum_budget, want_witness=True)
        words = out.witnesses[np.lexsort(out.witnesses.T[::-1])]
        return DeepHoleReport(
            code=code.label, rho=out.rho, count=len(words), rows=words,
            algorithm="syndrome-bfs",
            elapsed_ms=(time.perf_counter() - t0) * 1e3)
    if algo != "sweep":
        raise ValueError(f"unknown deep-hole algorithm {algo!r}")
    _, out = _sweep(code, True, enum_budget, threads)
    # tails are distinct, so sorting them and then each one's v values
    # (nonzero is row-major) sorts the (tail, v) pairs; a tail's
    # coefficients below degree k are zero, so its columns from k order it
    k = code.structure["k"]
    order = _row_order(out.candidates[:, k:], ctx.q)
    coeffs, deep = out.candidates[order], out.deep_v[order]
    r, v = np.nonzero(deep)
    prs = kind == "prs"
    family = {}
    if k < coeffs.shape[1]:
        is_cxk = (coeffs[:, k] != 0) & ~coeffs[:, k + 1:].any(axis=1)
        present = np.zeros((ctx.q, deep.shape[1]), dtype=bool)
        present[coeffs[is_cxk, k]] = deep[is_cxk]
        extra = np.flatnonzero(~is_cxk[r])
        c, w = np.nonzero(~present[1:])  # (c*x^k, v) in order: by c, then v
        missing = np.zeros((len(c), coeffs.shape[1]), dtype=coeffs.dtype)
        missing[:, k] = c + 1
        family = dict(family_size=(ctx.q - 1) * deep.shape[1],
                      matches_degree_k_family=not len(extra) and not len(c),
                      extra=extra, missing=missing,
                      missing_v=w if prs else None)
    return DeepHoleReport(
        code=code.label, rho=out.max_contrib, count=len(r), rows=coeffs,
        row=r, v=v if prs else None, algorithm="rep-sweep",
        elapsed_ms=(time.perf_counter() - t0) * 1e3, **family)


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
