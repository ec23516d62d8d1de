"""The benchmark's workloads: the codes each one builds, the engine calls it
times, the exact answers it expects, and the rechecks its correctness gate
runs outside the timed region.

Functions here receive the imported covrad package as `cv` and look every
engine up on it at call time, so the tracer's wrappers are seen.  Expected
values carry their source: "published" (the paper's theorems, as stated in
covrad's own verification suite) or "derived" (computed at the commit that
introduced this benchmark and cross-checked by a second engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

PUBLISHED_PK = "published: Thm 3, rho(PRS(p+1,k)) = p-k"
PUBLISHED_QK = "published: rho(RS(q,k)) = q-k"
PUBLISHED_GLYNN = "published: Glynn [10,5] code has radius 4"
DERIVED_SWEEP = "derived: full sweep deep_holes at the seed commit"
DERIVED_BFS = "derived: syndrome BFS at the seed commit"
# The deep-coset counts below are the same numbers from both engines: the
# sweep's deep_holes count of each code equals the syndrome deep-hole count
# of the same code, and the last BFS level where the BFS radius runs.
PRS12_6_DEEP = 15840
PRS12_7_DEEP = 18480
PRS10_5_DEEP = 11128
PRS10_4_DEEP = 18000


@dataclass(frozen=True)
class Job:
    """One timed engine call.

    `facts(result, seen)` turns the result (and the counts the gate taps
    observed during the call) into exact answers; `expect` maps each answer
    to (value, source).  `recheck(cv, codes, inputs, result, rng)` returns a
    list of problems found by an independent oracle.
    """
    name: str
    run: Callable
    facts: Callable
    expect: dict
    recheck: Callable | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable                     # cv -> {key: code}; part of setup_s
    jobs: tuple
    make_inputs: Callable | None = None  # (cv, codes, rng) -> inputs


# ----------------------------------------------------------------------
# facts and rechecks
# ----------------------------------------------------------------------

def _rho(result, seen):
    return {"rho": result.rho}


def _bfs_levels(result, seen):
    out = {"rho": result.rho}
    if seen.get("sweeps.bfs"):
        out["levels"] = seen["sweeps.bfs"][-1]["levels"]
    return out


def _deep(result, seen):
    return {"rho": result.rho, "count": result.count,
            "distinct_reps": len(set(result.reps)),
            "missing_family": len(result.missing_family)}


def _brute(cv, code, word):
    return cv.error_distance_brute(code, tuple(word))[0]


def _family_and_random(key, samples=8):
    """Brute-force oracle for a radius answer: a degree-k family word sits
    at distance exactly rho, seeded random words at most rho away."""
    def recheck(cv, codes, inputs, result, rng):
        code = codes[key]
        ctx, k = code.ctx, code.structure.get("k")
        problems = []
        if k is not None:
            rep = cv.CosetRep(tail=(0,) * k + (rng.randrange(1, ctx.q),),
                              v=rng.randrange(ctx.q))
            d = _brute(cv, code, rep.representative_word(code))
            if d != result.rho:
                problems.append(f"family word {rep} at brute distance {d}")
        for _ in range(samples):
            w = [rng.randrange(ctx.q) for _ in range(code.n)]
            d = _brute(cv, code, w)
            if d > result.rho:
                problems.append(f"random word {w} at brute distance {d}")
        return problems
    return recheck


def _deep_reps(key, samples, oracle):
    """Recheck a seeded sample of deep-hole reps: each sits at distance rho.

    `oracle` is "brute" (error_distance_brute, independent of subset
    decoding) or "mds" (error_distance_mds, for codes whose q^k codewords
    are too many to list; independent of the syndrome BFS)."""
    def recheck(cv, codes, inputs, result, rng):
        code = codes[key]
        problems = []
        if result.count != len(result.reps):
            problems.append(f"count {result.count} != {len(result.reps)} reps")
        for rep in rng.sample(result.reps, min(samples, len(result.reps))):
            word = rep.representative_word(code)
            if oracle == "brute":
                d = _brute(cv, code, word)
            else:
                d = cv.error_distance_mds(code, word)[0]
            if d != result.rho:
                problems.append(f"deep hole {rep} at {oracle} distance {d}")
            if rep.word is not None and cv.weight(rep.word) != result.rho:
                problems.append(f"coset leader {rep} has weight "
                                f"{cv.weight(rep.word)}")
        return problems
    return recheck


def _same_deep_holes(key, algo):
    """Cross-check engines: `deep_holes` with the other `algo` lists the
    same radius and the same coset reps."""
    def recheck(cv, codes, inputs, result, rng):
        code = codes[key]
        other = cv.deep_holes(code, algo=algo)
        if other.rho != result.rho:
            return [f"{algo} engine gives rho {other.rho}"]

        def cosets(reps):  # the syndrome engine lists witness words
            return {cv.reduce_to_coset_rep(code, r.word) if r.word else r
                    for r in reps}
        mine, theirs = cosets(result.reps), cosets(other.reps)
        if mine != theirs:
            return [f"{algo} engine lists {len(theirs)} reps, "
                    f"{len(theirs - mine)} not found here"]
        return []
    return recheck


def _all(*rechecks):
    def recheck(*args):
        return [p for check in rechecks for p in check(*args)]
    return recheck


def _planted_words(key, count):
    """Seeded words: a random codeword plus an error of weight i % 4."""
    def make(cv, codes, rng):
        code = codes[key]
        q, n = code.ctx.q, code.n
        words, weights = [], []
        for i in range(count):
            msg = [rng.randrange(q) for _ in range(code.k)]
            word = list(code.encode(msg))
            w = i % 4
            for pos in rng.sample(range(n), w):
                word[pos] = code.ctx.add(word[pos], rng.randrange(1, q))
            words.append(tuple(word))
            weights.append(w)
        return {"words": words, "weights": weights}
    return make


def _check_decodes(key, rho):
    """Each returned nearest word is a codeword at the reported distance;
    planted errors of weight <= 1 come back at exactly that distance."""
    def recheck(cv, codes, inputs, result, rng):
        code = codes[key]
        problems = []
        for word, w, (d, near) in zip(inputs["words"], inputs["weights"],
                                      result):
            if not code.contains(near):
                problems.append(f"{word}: nearest {near} is not a codeword")
            elif cv.hamming(word, near) != d:
                problems.append(f"{word}: distance {d} != hamming "
                                f"{cv.hamming(word, near)}")
            elif d > min(w, rho) or (w <= 1 and d != w):
                problems.append(f"{word}: distance {d}, planted weight {w}")
        return problems
    return recheck


def _mds_all(key):
    def run(cv, codes, inputs):
        code = codes[key]
        return [cv.error_distance_mds(code, w) for w in inputs["words"]]
    return run


def _n_results(result, seen):
    return {"words": len(result)}


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------

def _prs(q, k):
    return lambda cv: cv.prs_code(cv.field_for_size(q), k)


def _build(**makers):
    return lambda cv: {key: make(cv) for key, make in makers.items()}


def _sweep_radius(key, **kw):
    return lambda cv, codes, inputs: cv.covering_radius_sweep(codes[key], **kw)


def _syndrome_radius(key):
    return lambda cv, codes, inputs: cv.covering_radius_syndrome(codes[key])


def _deep_holes(key, **kw):
    return lambda cv, codes, inputs: cv.deep_holes(codes[key], **kw)


# One workload for every subset-decoding path, so that its run averages the
# pure-Python operator builders, whose speed swings most with the load on a
# shared host, with the numpy kernels.
SUBSET_DECODING = Workload(
    "subset-decoding",
    "every subset-decoding path: radius-only degree-sliced sweeps at "
    "threads=1 (the subset kernel with pruning), full deep-hole listings at "
    "threads=2 (the kernel keeping ties, candidate expansion, pool and "
    "merge), and the two subset-operator builders over the same 715 subsets "
    "of RS(13,9)/F_13 (the sweep's subset_ops and error_distance_mds's stack)",
    _build(prs12_4=_prs(11, 4), prs10_2=_prs(9, 2),
           prs12_6=_prs(11, 6), prs10_5=_prs(9, 5),
           rs13_9=lambda cv: cv.rs_code(cv.field_for_size(13), 9)),
    (
        Job("sweep radius PRS(12,4)/F_11",
            _sweep_radius("prs12_4", threads=1), _rho,
            {"rho": (7, PUBLISHED_PK)}, _family_and_random("prs12_4")),
        Job("sweep radius PRS(10,2)/F_9",
            _sweep_radius("prs10_2", threads=1), _rho,
            {"rho": (7, PUBLISHED_PK)}, _family_and_random("prs10_2")),
        Job("sweep deep holes PRS(12,6)/F_11",
            _deep_holes("prs12_6", threads=2), _deep,
            {"rho": (5, PUBLISHED_PK), "count": (PRS12_6_DEEP, DERIVED_SWEEP),
             "distinct_reps": (PRS12_6_DEEP, DERIVED_SWEEP),
             "missing_family": (0, "published: Thm 1")},
            # 11^6 codewords are too many for error_distance_brute; the count
            # equals the last level of the syndrome BFS of the same code.
            _deep_reps("prs12_6", 3, "mds")),
        Job("sweep deep holes PRS(10,5)/F_9",
            _deep_holes("prs10_5", threads=2), _deep,
            {"rho": (4, PUBLISHED_PK), "count": (PRS10_5_DEEP, DERIVED_SWEEP),
             "distinct_reps": (PRS10_5_DEEP, DERIVED_SWEEP),
             "missing_family": (0, "published: Thm 1")},
            _all(_deep_reps("prs10_5", 6, "brute"),
                 _same_deep_holes("prs10_5", "syndrome"))),
        Job("sweep radius RS(13,9)/F_13",
            _sweep_radius("rs13_9"), _rho, {"rho": (4, PUBLISHED_QK)}),
        Job("mds distance x256 RS(13,9)/F_13",
            _mds_all("rs13_9"), _n_results,
            {"words": (256, "input size")}, _check_decodes("rs13_9", 4)),
    ),
    _planted_words("rs13_9", 256),
)

SYNDROME_BFS = Workload(
    "syndrome-bfs",
    "syndrome coset-leader BFS only; the sweep kernel and operator builds "
    "never run, so sweep changes should leave it unchanged",
    _build(prs10_4=_prs(9, 4), prs12_7=_prs(11, 7),
           glynn=lambda cv: cv.glynn_code(cv.field_for_size(9))),
    (
        Job("bfs radius PRS(10,4)/F_9",
            _syndrome_radius("prs10_4"), _bfs_levels,
            {"rho": (5, PUBLISHED_PK),
             "levels": ([1, 80, 2880, 61440, 449040, PRS10_4_DEEP],
                        DERIVED_BFS + "; last level = sweep deep cosets")}),
        Job("bfs deep holes PRS(12,7)/F_11",
            _deep_holes("prs12_7", algo="syndrome"), _deep,
            {"rho": (4, PUBLISHED_PK),
             "count": (PRS12_7_DEEP, DERIVED_SWEEP + " (equal to the BFS)"),
             "distinct_reps": (PRS12_7_DEEP, DERIVED_SWEEP)},
            _all(_deep_reps("prs12_7", 3, "mds"),
                 _same_deep_holes("prs12_7", "sweep"))),
        Job("bfs radius Glynn(10,5)/F_9",
            _syndrome_radius("glynn"), _bfs_levels,
            {"rho": (4, PUBLISHED_GLYNN),
             "levels": ([1, 80, 2880, 44960, 11128], DERIVED_BFS)},
            _family_and_random("glynn")),
    ),
)

# Every layer on codes small enough for the benchmark's own tests.
TINY = Workload(
    "tiny",
    "PRS(6,2)/F_5 and RS(5,3)/F_5 through every traced layer, for tests",
    _build(prs6_2=_prs(5, 2),
           rs5_3=lambda cv: cv.rs_code(cv.field_for_size(5), 3)),
    (
        Job("sweep radius PRS(6,2)/F_5", _sweep_radius("prs6_2"), _rho,
            {"rho": (3, PUBLISHED_PK)}, _family_and_random("prs6_2")),
        Job("sweep deep holes PRS(6,2)/F_5",
            _deep_holes("prs6_2", threads=2), _deep,
            {"rho": (3, PUBLISHED_PK), "count": (360, DERIVED_SWEEP),
             "distinct_reps": (360, DERIVED_SWEEP),
             "missing_family": (0, "published: Thm 1")},
            _all(_deep_reps("prs6_2", 4, "brute"),
                 _same_deep_holes("prs6_2", "syndrome"))),
        Job("bfs radius PRS(6,2)/F_5", _syndrome_radius("prs6_2"),
            _bfs_levels, {"rho": (3, PUBLISHED_PK),
                          "levels": ([1, 24, 240, 360], DERIVED_BFS)}),
        Job("mds distance x16 RS(5,3)/F_5", _mds_all("rs5_3"), _n_results,
            {"words": (16, "input size")}, _check_decodes("rs5_3", 2)),
    ),
    _planted_words("rs5_3", 16),
)

WORKLOADS = {w.name: w for w in (SUBSET_DECODING, SYNDROME_BFS, TINY)}


# ----------------------------------------------------------------------
# the correctness gate
# ----------------------------------------------------------------------

@dataclass
class Verdict:
    job: str
    ok: bool
    problems: list = field(default_factory=list)
    unchecked: list = field(default_factory=list)  # answers not observable


def gate(cv, workload, codes, inputs, outcomes, rng,
         recheck: bool = True) -> list[Verdict]:
    """Check every job's outcome: (result, seen, error) per job, in order.
    The independent-oracle rechecks run only when `recheck` is set."""
    verdicts = []
    for job, (result, seen, error) in zip(workload.jobs, outcomes):
        v = Verdict(job.name, False)
        if error is not None:
            v.problems.append(f"raised {error}")
            verdicts.append(v)
            continue
        facts = job.facts(result, seen)
        for key, (want, source) in job.expect.items():
            if key not in facts:
                v.unchecked.append(key)
            elif facts[key] != want:
                v.problems.append(f"{key} = {facts[key]}, expected {want} "
                                  f"({source})")
        if recheck and job.recheck is not None:
            v.problems.extend(job.recheck(cv, codes, inputs, result, rng))
        v.ok = not v.problems
        verdicts.append(v)
    return verdicts
