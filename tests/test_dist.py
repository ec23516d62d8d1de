import itertools
import random
import tracemalloc

import numpy as np
import pytest

from covrad import _linops, _sweeps, dist
from covrad.code import (extend_code, from_matrix, glynn_code, is_mds,
                         min_distance, prs_code, rs_code)
from covrad.dist import (CosetRep, covering_radius, covering_radius_brute,
                         covering_radius_sweep, covering_radius_syndrome,
                         deep_hole_family_prs, deep_holes,
                         error_distance_brute, error_distance_mds,
                         error_distances_brute, error_distances_mds,
                         nested_max_distance,
                         prs_bound_via_rs, reduce_to_coset_rep,
                         reduce_to_coset_reps)
from covrad.gf import field_create, field_for_size
from covrad.poly import (Poly, evaluate_word, hamming, interpolate,
                         lagrange_basis, weight)


def rand_word(rng, q, n):
    return tuple(rng.randrange(q) for _ in range(n))


# ----------------------------------------------------------------------
# error distances
# ----------------------------------------------------------------------

def test_distance_of_codeword_is_zero():
    code = rs_code(field_create(5), 2)
    for msg in itertools.product(range(5), repeat=2):
        w = code.encode(msg)
        assert error_distance_brute(code, w)[0] == 0
        assert error_distance_mds(code, w)[0] == 0


def test_distance_degree_k_word():
    ctx = field_create(5)
    code = rs_code(ctx, 2)
    w = evaluate_word(Poly(ctx, [0, 0, 1]), ctx.elements())
    assert error_distance_brute(code, w)[0] == 3
    assert error_distance_mds(code, w)[0] == 3


def test_distance_single_error():
    code = rs_code(field_create(5), 2)
    d, near = error_distance_brute(code, (1, 0, 0, 0, 0))
    assert d == 1 and near == (0, 0, 0, 0, 0)
    assert error_distance_mds(code, (1, 0, 0, 0, 0))[0] == 1


def test_witness_is_a_codeword_at_stated_distance():
    rng = random.Random(3)
    code = prs_code(field_create(7), 3)
    for _ in range(40):
        w = rand_word(rng, 7, 8)
        d, near = error_distance_mds(code, w)
        assert code.contains(near)
        assert hamming(w, near) == d


def test_mds_equals_brute_exhaustive_f5():
    code = rs_code(field_create(5), 2)
    for w in itertools.product(range(5), repeat=5):
        assert error_distance_mds(code, w)[0] == error_distance_brute(code, w)[0]


def scalar_nearest(code, word):
    """(distance, first nearest codeword in `codewords()` order), scalar."""
    return min((hamming(word, c), i, c)
               for i, c in enumerate(code.codewords()))[::2]


@pytest.mark.parametrize("code", [
    rs_code(field_create(5), 2),
    # not MDS: d = 2 < n - k + 1 = 4
    from_matrix(field_create(5), [[1, 1, 0, 0, 0], [0, 0, 1, 1, 1]]),
], ids=["rs-5-2", "generic-non-mds"])
def test_batched_brute_matches_scalar_scan_with_ties(code):
    # every RS(5,2) word at distance 3 has several nearest codewords; the
    # first in message-vector order wins
    rng = random.Random(11)
    words = [rand_word(rng, 5, code.n) for _ in range(200)]
    dists, nearest = error_distances_brute(code, words)
    got = list(zip(dists.tolist(), map(tuple, nearest.tolist())))
    assert got == [scalar_nearest(code, w) for w in words]
    assert got == [error_distance_brute(code, w) for w in words]
    assert 3 in dists.tolist()


def test_batched_brute_spans_several_chunks():
    # 9^5 codewords: a chunk of 2^22 pairs holds 71 words, so 150 words
    # take three chunks
    code = prs_code(field_create(3, 2), 5)
    rng = random.Random(5)
    words = [rand_word(rng, 9, code.n) for _ in range(150)]
    dists, nearest = error_distances_brute(code, words)
    assert list(zip(dists.tolist(), map(tuple, nearest.tolist()))) == [
        error_distance_brute(code, w) for w in words]
    assert dists.tolist() == error_distances_mds(code, words)[0].tolist()
    assert error_distances_brute(code, [])[0].shape == (0,)


MDS_RANDOM_CASES = [
    pytest.param(rs_code, 7, 3, 500, id="7-3-500"),
    pytest.param(rs_code, 9, 4, 500, id="9-4-500"),
    # a=2 with the extra coordinate, and an MDS G that is not Vandermonde
    pytest.param(prs_code, 9, 4, 300, id="prs-9-4-300"),
    pytest.param(lambda ctx, k: glynn_code(ctx), 9, 5, 40, id="glynn-9-5-40"),
]


@pytest.mark.parametrize("make,q,k,trials", MDS_RANDOM_CASES)
def test_mds_equals_brute_random(make, q, k, trials):
    ctx = field_for_size(q)
    code = make(ctx, k)
    rng = random.Random(q * 100 + k)
    for _ in range(trials):
        w = rand_word(rng, q, code.n)
        assert error_distance_mds(code, w)[0] == error_distance_brute(code, w)[0]


@pytest.mark.parametrize("make,q,k,trials", MDS_RANDOM_CASES)
def test_batched_mds_matches_one_word_calls_and_brute(make, q, k, trials):
    ctx = field_for_size(q)
    code = make(ctx, k)
    rng = random.Random(q * 100 + k)
    words = [rand_word(rng, q, code.n) for _ in range(trials)]
    dists, nearest = error_distances_mds(code, words)
    assert list(zip(dists.tolist(), map(tuple, nearest.tolist()))) == [
        error_distance_mds(code, w) for w in words]
    assert dists.tolist() == [error_distance_brute(code, w)[0] for w in words]


def test_batched_mds_at_the_int32_edge_of_the_decode_step():
    # k*a*(p-1)^2 = 36*36^2 >= 2^15, so the candidates need int32.  The
    # left-out coordinate of a subset is -1 (= 36) times the sum of the
    # other 36, so words with large entries reach that bound.  The 1937
    # words span two chunks of CHUNK // 37 words.
    ctx = field_create(37)
    code = rs_code(ctx, 36)
    assert _linops.exact_dtypes(36, 37)[1] == np.int32
    rng = random.Random(37)
    words = [rand_word(rng, 37, 37) for _ in range(1000)]
    words += [tuple(rng.randrange(25, 37) for _ in range(37))
              for _ in range(800)]
    words += [code.encode(rand_word(rng, 37, 36)) for _ in range(100)]
    words += [(c,) * 37 for c in range(37)]
    dists, nearest = error_distances_mds(code, words)
    for w, d, c in zip(words, dists.tolist(), nearest.tolist()):
        assert d == (0 if code.contains(w) else 1)
        assert code.contains(c) and hamming(w, c) == d


# (width, p) at the largest width of each dtype pair: width*(p-1)^2 is
# just below 2^15, 2^24, 2^31 and 2^53, and width + 1 crosses the edge
@pytest.mark.parametrize("width,p,fdt,idt", [
    (2, 127, np.float32, np.int16),
    (255, 257, np.float32, np.int32),
    (127, 4099, np.float64, np.int32),
    (2, 2**26 - 5, np.float64, np.int64),
])
def test_digit_matmul_is_exact_at_each_dtype_edge(width, p, fdt, idt):
    assert _linops.exact_dtypes(width, p) == (fdt, idt)
    if idt != np.int64:  # the int64 edge is the raise tested below
        assert _linops.exact_dtypes(width + 1, p) != (fdt, idt)
    rng = np.random.default_rng(p)
    x = rng.integers(0, p, (64, width))
    M = rng.integers(0, p, (2, width, 5))
    x[0], M[:, :, 0] = p - 1, p - 1   # the largest sum, width*(p-1)^2
    out = _linops.digit_matmul(x, M, p)
    assert out.dtype == idt
    assert np.array_equal(out, (x.astype(np.int64) @ M) % p)


def test_digit_matmul_raises_beyond_the_float64_mantissa():
    ones = np.ones((3, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="float64 mantissa"):
        _linops.digit_matmul(ones, ones, 2**26 - 5)  # 3*(p-1)^2 > 2^53


def test_tail_values_exact_beyond_the_float32_mantissa():
    # 2*4098^2 > 2^24: a float32 tail product rounds.  It gave 128 wrong
    # rows here, e.g. coefficients (4088, 4081) gave (4092, 4049, 3969)
    # where the tail is (4092, 4049, 3970)
    ctx, D = field_create(4099), (4098, 4097, 4096)
    plan = _sweeps.full_plans(ctx, 3, 1)[0]
    idx = np.arange(plan.count - 70000, plan.count)
    u = _sweeps._tail_values_digits(ctx, D, plan, idx, np.int64)
    assert tuple(u[4088 + 4081 * 4099 - idx[0]]) == (4092, 4049, 3970)
    coeffs = _linops.mixed_radix(idx, 4099, 2)
    mono = np.array([D, [x * x % 4099 for x in D]])
    assert np.array_equal(u, coeffs @ mono % 4099)


@pytest.mark.parametrize("q,k", [(7, 3), (9, 3)])
def test_sweep_operators_match_lagrange_reference(q, k):
    # row j of the operator for subset S: L_j evaluated on D, then the
    # x^(k-1) coefficient of L_j (the PRS extra coordinate)
    ctx = field_for_size(q)
    code = prs_code(ctx, k)
    D = ctx.elements()
    G = _sweeps._sweep_generator(ctx, D, k)
    assert G == code.G
    gather, ops, singular = _sweeps.subset_ops(ctx, G, len(D))
    subs = list(itertools.combinations(range(len(D)), k))
    assert len(ops) == len(subs) and not singular.any()
    for si, S in enumerate(subs):
        basis = [Poly(ctx, c) for c in lagrange_basis(ctx, [D[i] for i in S])]
        ref = [[L(x) for x in D] + [L.coefficient(k - 1)] for L in basis]
        assert (ops[si] == _linops.digit_expand(ctx, ref)).all(), S
        assert gather[si].tolist() == [i * ctx.a + d for i in S
                                       for d in range(ctx.a)]


def test_rs_sweep_and_decoder_share_one_operator_stack(monkeypatch):
    # the RS sweep decodes with code.G itself, so the radius, the decoder
    # and the MDS check all read one cached C(13,9) stack
    monkeypatch.setattr(_sweeps, "_SUBSET_OPS_CACHE", {})
    code = rs_code(field_create(13), 9)
    assert covering_radius_sweep(code).rho == 4
    d, _ = error_distances_mds(code, code.G[:2])
    assert d.tolist() == [0, 0] and is_mds(code)
    assert len(_sweeps._SUBSET_OPS_CACHE) == 1


def test_subset_ops_budget_raises_before_allocating():
    # 'auto' sends RS(37,32) (n-k = 5) to the sweep, whose C(37,32) operator
    # stack would hold 435897 * 32 * 37 entries, over 4 GB in int64
    code = rs_code(field_create(37), 32)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="516102048 entries exceed "
                           "budget 100000000; use algo='syndrome'"):
            covering_radius(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mds_equals_brute_prs():
    ctx = field_create(5)
    code = prs_code(ctx, 3)
    rng = random.Random(11)
    for _ in range(200):
        w = rand_word(rng, 5, 6)
        assert error_distance_mds(code, w)[0] == error_distance_brute(code, w)[0]


def test_mds_distance_rejects_non_mds():
    code = from_matrix(field_create(5), [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="not MDS"):
        error_distance_mds(code, (1, 1, 1))


def test_degree_k_word_against_prs_is_q_minus_k():
    # (u_f, v) with deg f = k sits at distance exactly q-k
    for q, k in [(5, 2), (5, 3), (7, 2), (7, 4)]:
        ctx = field_for_size(q)
        code = prs_code(ctx, k)
        rng = random.Random(q * 10 + k)
        for _ in range(10):
            coeffs = [rng.randrange(q) for _ in range(k)] + [rng.randrange(1, q)]
            f = Poly(ctx, coeffs)
            v = rng.randrange(q)
            w = evaluate_word(f, ctx.elements()) + (v,)
            assert error_distance_mds(code, w)[0] == q - k


# ----------------------------------------------------------------------
# covering radius: algorithm agreement
# ----------------------------------------------------------------------

def sweep_radius(code, sliced):
    """Radius of an RS/PRS code by `_sweeps.run_sweep` over the degree
    slices (sliced) or over every tail."""
    ctx, D, k = code.ctx, tuple(code.structure["eval"]), code.structure["k"]
    plans = (_sweeps.sliced_plans(ctx, k) if sliced
             else _sweeps.full_plans(ctx, len(D), k))
    return _sweeps.run_sweep(ctx, D, k, prs=code.structure["kind"] == "prs",
                             plans=plans, collect=False).max_contrib


AGREEMENT_CODES = [
    ("rs", 5, 1), ("rs", 5, 2), ("rs", 5, 3), ("rs", 5, 4),
    ("prs", 5, 1), ("prs", 5, 2), ("prs", 5, 3), ("prs", 5, 4), ("prs", 5, 5),
    ("rs", 7, 2), ("rs", 7, 5), ("prs", 7, 4), ("prs", 7, 5), ("prs", 7, 6),
]


@pytest.mark.parametrize("kind,q,k", AGREEMENT_CODES)
def test_radius_algorithms_agree(kind, q, k):
    ctx = field_for_size(q)
    code = rs_code(ctx, k) if kind == "rs" else prs_code(ctx, k)
    rhos = {covering_radius_syndrome(code).rho,
            sweep_radius(code, sliced=False), sweep_radius(code, sliced=True)}
    if ctx.q ** (code.n + code.k) <= 10**8:
        rhos.add(covering_radius_brute(code).rho)
    assert len(rhos) == 1


def test_full_sweep_radius_beyond_int16_products():
    # k*a*(p-1)^2 = 51*52^2 > 2^15: the kernel residues need int32
    code = rs_code(field_for_size(53), 51)
    rep = covering_radius_sweep(code)
    assert (rep.variant, rep.rho) == ("full", 2)  # q - k


def test_prs_sweep_beyond_64_values_matches_syndrome_bfs():
    # 67 extra-coordinate values, more than a 64-bit word has bits
    code = prs_code(field_for_size(67), 66)
    rep = covering_radius_sweep(code)
    assert (rep.variant, rep.rho) == ("full", 1)
    assert covering_radius_syndrome(code).rho == 1
    sweep = deep_holes(code, algo="sweep")
    assert sweep.rho == 1
    assert sweep.count == deep_holes(code, algo="syndrome").count == 4488


def test_sliced_equals_full_on_f9():
    ctx = field_create(3, 2)
    for k in (2, 5, 6, 7):
        code = rs_code(ctx, k)
        a = sweep_radius(code, sliced=True)
        if ctx.q ** (9 - k) <= 6 * 10**5:
            assert a == sweep_radius(code, sliced=False)
        assert a == 9 - k


# every RS and PRS code over F_5, F_7, F_9 and F_11 with at most 2^21 tails
SLICE_GATE = [(kind, q, k) for q in (5, 7, 9, 11) for k in range(1, q)
              for kind in ("rs", "prs") if q ** (q - k) <= 2**21]


@pytest.mark.parametrize("kind,q,k", SLICE_GATE)
def test_sliced_radius_equals_full(kind, q, k):
    code = (rs_code if kind == "rs" else prs_code)(field_for_size(q), k)
    assert sweep_radius(code, sliced=True) == sweep_radius(code, sliced=False)


# codes whose whole tail plan is one sweep chunk
ONE_CHUNK = [(kind, q, k) for q in (5, 7, 9) for k in range(1, q)
             for kind in ("rs", "prs") if q ** (q - k) <= _sweeps.CHUNK]


@pytest.mark.parametrize("kind,q,k", ONE_CHUNK)
def test_pruned_sweep_equals_unpruned(monkeypatch, kind, q, k):
    # with floor=-1 the running maximum stays -1 until the one chunk is
    # scanned, so the reference sweep decodes every row on every subset
    code = (rs_code if kind == "rs" else prs_code)(field_for_size(q), k)
    ctx, D, prs = code.ctx, tuple(code.structure["eval"]), kind == "prs"
    plans = _sweeps.full_plans(ctx, len(D), k)
    decode, rows = _sweeps.decode_step, []

    def counted(ctx, u, *args):
        rows.append(len(u))
        return decode(ctx, u, *args)

    monkeypatch.setattr(_sweeps, "decode_step", counted)
    ref = _sweeps.profile_sweep(ctx, D, k, prs=prs, plans=plans,
                                collect=True, floor=-1)
    monkeypatch.setattr(_sweeps, "decode_step", decode)
    assert set(rows) == {q ** (len(D) - k)}
    radius = _sweeps.run_sweep(ctx, D, k, prs=prs, plans=plans, collect=False)
    assert radius.max_contrib == ref.max_contrib
    listing = _sweeps.run_sweep(ctx, D, k, prs=prs, plans=plans, collect=True)
    assert listing.max_contrib == ref.max_contrib
    assert sorted(listing.candidates) == sorted(ref.candidates)


def test_radius_dispatcher_auto():
    code = prs_code(field_create(5), 4)
    rep = covering_radius(code)
    assert rep.rho == 1 and rep.algorithm == "syndrome-bfs"
    rep = covering_radius(code, enum_budget=10)  # too small: falls to sweep
    assert rep.rho == 1 and rep.algorithm == "rep-sweep"


# 'auto' picks by redundancy n-k: on a 2-core host the BFS was faster on
# every RS/PRS code tried with n-k <= 4 and the sweep on every one with
# n-k >= 5, whatever q^(n-k); times are BFS / sweep, one run each
@pytest.mark.parametrize("make,q,k,algorithm,rho", [
    (prs_code, 11, 5, "rep-sweep", 6),      # 55 s / 0.06 s
    (rs_code, 53, 51, "syndrome-bfs", 2),   # 3 ms / 2.1 s
    (rs_code, 41, 38, "syndrome-bfs", 3),   # 41^3 cosets: 0.09 s / 8.4 s
    (prs_code, 67, 65, "syndrome-bfs", 2),  # 67^3 cosets: 0.05 s / 10 s
    (rs_code, 13, 9, "syndrome-bfs", 4),    # n-k = 4: 0.05 s / 0.05 s
    (rs_code, 13, 8, "rep-sweep", 5),       # n-k = 5: 0.66 s / 0.04 s
])
def test_radius_dispatcher_picks_the_engine_by_redundancy(make, q, k,
                                                          algorithm, rho):
    rep = covering_radius(make(field_create(q), k))
    assert (rep.algorithm, rep.rho) == (algorithm, rho)


def test_sweep_rejects_generic_codes():
    code = from_matrix(field_create(5), [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="structured"):
        covering_radius_sweep(code)


def test_partial_evaluation_set_sweep_stays_full_and_names_budget():
    # RS(D[8],1)/F_9 has 9^7 > 2^21 tails on a non-full-field set: the
    # degree-sliced sweep does not apply, so the full sweep's budget error
    # is the one raised, without advising the sliced variant
    ctx = field_create(3, 2)
    code = rs_code(ctx, 1, ctx.elements()[:8])
    with pytest.raises(ValueError, match="exceed budget 1000000$"):
        covering_radius_sweep(code, enum_budget=10**6)


@pytest.mark.parametrize("code,budget,variant,rho", [
    (prs_code(field_create(5), 2), 10**8, "full", 3),      # 5^4 tails
    (prs_code(field_create(5), 2), 100, "degree-sliced", 3),  # above budget
    (rs_code(field_create(3, 2), 4), 10**8, "full", 5),     # 9^5 <= 2^16
    (rs_code(field_create(3, 2), 3), 10**8, "degree-sliced", 6),  # 9^6
    # 17^4 > 2^16 tails, but D is not the full field
    (rs_code(field_create(17), 12, range(16)), 10**8, "full", 4),
], ids=["prs-5-2", "prs-5-2-budget", "rs-9-4", "rs-9-3", "rs-D16-12"])
def test_sweep_reports_the_plan_auto_chose(code, budget, variant, rho):
    rep = covering_radius_sweep(code, enum_budget=budget)
    assert (rep.variant, rep.rho) == (variant, rho)
    assert bool(rep.notes) == (variant == "degree-sliced")


def test_syndrome_budget_error_mentions_sweep():
    code = rs_code(field_create(11), 2)
    with pytest.raises(ValueError, match="sweep"):
        covering_radius_syndrome(code, enum_budget=100)


def test_mds_radius_dichotomy():
    # every MDS code here has rho in {d-1, d-2}
    for kind, q, k in AGREEMENT_CODES:
        ctx = field_for_size(q)
        code = rs_code(ctx, k) if kind == "rs" else prs_code(ctx, k)
        d = code.n - code.k + 1  # all are MDS (checked elsewhere)
        rho = covering_radius_syndrome(code).rho
        assert rho in (d - 1, d - 2), (kind, q, k, rho, d)


def test_bfs_level_counts_monotone_coverage():
    code = prs_code(field_create(5), 3)
    from covrad._sweeps import syndrome_bfs
    out = syndrome_bfs(code, 10**6)
    assert sum(out.level_counts) == 5 ** (code.n - code.k)
    assert all(c >= 0 for c in out.level_counts)
    assert out.rho == len(out.level_counts) - 1
    # idempotence: a rerun yields the same level profile
    again = syndrome_bfs(code, 10**6)
    assert again.level_counts == out.level_counts


def test_bfs_witnesses_beyond_int64_word_encoding():
    # 17^18 > 2^63: witness words must not be packed into one integer
    code = prs_code(field_for_size(17), 15)
    report = deep_holes(code, algo="syndrome")
    assert report.rho == 2 and report.count == 4624
    words = [rep.word for rep in report.reps]
    # 4624 distinct cosets with a weight-2 leader, none within distance 1
    # of the code: together with the 289 cosets of weight <= 1 they fill
    # all 17^3 syndromes, so every witness is at distance exactly 2
    near = {code.syndrome(tuple(c if i == pos else 0 for i in range(18)))
            for pos in range(18) for c in range(17)}
    found = {code.syndrome(w) for w in words}
    assert all(weight(w) == 2 for w in words)
    assert len(found) == 4624 and not found & near
    assert (error_distances_mds(code, words)[0] == 2).all()


def test_glynn_radius():
    code = glynn_code(field_create(3, 2))
    assert covering_radius_syndrome(code).rho == 4


# ----------------------------------------------------------------------
# coset reduction
# ----------------------------------------------------------------------

def test_same_coset_reduces_to_same_rep():
    ctx = field_create(5)
    for code in (rs_code(ctx, 2), prs_code(ctx, 3)):
        rng = random.Random(17)
        for _ in range(30):
            w = rand_word(rng, 5, code.n)
            cw = code.encode(tuple(rng.randrange(5) for _ in range(code.k)))
            shifted = tuple(ctx.add(a, b) for a, b in zip(w, cw))
            assert reduce_to_coset_rep(code, w) == reduce_to_coset_rep(code, shifted)


def test_rep_word_reduces_to_itself():
    ctx = field_create(5)
    code = prs_code(ctx, 2)
    rep = CosetRep(tail=(0, 0, 3), v=2)
    w = rep.representative_word(code)
    assert reduce_to_coset_rep(code, w) == rep


def test_generic_rep_is_min_weight():
    ctx = field_create(5)
    code = from_matrix(ctx, [[1, 1, 1, 1]])
    rep = reduce_to_coset_rep(code, (2, 3, 1, 1))
    # coset leader weight equals the brute error distance
    d = error_distance_brute(code, (2, 3, 1, 1))[0]
    assert sum(1 for x in rep.word if x) == d


def _reduce_by_loop(code, word):
    """Reference: the least (weight, word) of word - c, one codeword c and
    one field subtraction at a time."""
    ctx, best = code.ctx, None
    for c in code.codeword_matrix():
        delta = tuple(ctx.sub(a, int(b)) for a, b in zip(word, c))
        key = (sum(1 for x in delta if x), delta)
        if best is None or key < best:
            best = key
    return CosetRep(word=best[1])


@pytest.mark.parametrize("make,trials", [
    pytest.param(lambda: from_matrix(field_create(5), [[1, 2, 0, 3],
                                                       [0, 1, 4, 4]]),
                 40, id="f5-4-2"),
    pytest.param(lambda: from_matrix(field_create(3, 2), [[1, 0, 2, 5, 7],
                                                          [0, 1, 3, 8, 1]]),
                 40, id="f9-5-2"),
    pytest.param(lambda: glynn_code(field_create(3, 2)), 2, id="glynn"),
])
def test_generic_rep_matches_per_codeword_loop(make, trials):
    code = make()
    rng = random.Random(5)
    for _ in range(trials):
        w = rand_word(rng, code.ctx.q, code.n)
        assert reduce_to_coset_rep(code, w) == _reduce_by_loop(code, w)


def _reduce_by_interpolation(code, word):
    """Reference: interpolate the word's values on D one word at a time;
    the tail is the coefficients of degree >= k, and for PRS v is the last
    entry minus the x^(k-1) coefficient."""
    ctx, k, D = code.ctx, code.structure["k"], code.structure["eval"]
    f = interpolate(ctx, D, word[:len(D)])
    tail = Poly(ctx, [0] * k + list(f.coeffs[k:])).coeffs
    if code.structure["kind"] == "rs":
        return CosetRep(tail=tail)
    return CosetRep(tail=tail, v=ctx.sub(word[len(D)], f.coefficient(k - 1)))


REDUCTION_CODES = [
    pytest.param(5, "prs", 2, None, 300, id="prs6-2-f5"),
    pytest.param(7, "prs", 3, None, 300, id="prs8-3-f7"),
    pytest.param(9, "prs", 4, None, 300, id="prs10-4-f9"),
    pytest.param(9, "rs", 3, None, 300, id="rs9-3-f9"),
    pytest.param(11, "prs", 7, None, 200, id="prs12-7-f11"),
    pytest.param(27, "prs", 5, None, 30, id="prs28-5-f27"),
    pytest.param(25, "rs", 20, None, 30, id="rs25-20-f25"),
    pytest.param(13, "rs", 1, None, 100, id="rs13-1-f13"),
    pytest.param(11, "rs", 3, (1, 3, 4, 6, 7, 9, 10), 300, id="rs7-3-f11-partial"),
    pytest.param(5, "prs", 5, None, 300, id="prs6-5-f5-k-eq-q"),
]


@pytest.mark.parametrize("q,kind,k,evalset,trials", REDUCTION_CODES)
def test_batched_reduction_matches_interpolation(q, kind, k, evalset, trials):
    ctx = field_for_size(q)
    code = (prs_code(ctx, k) if kind == "prs"
            else rs_code(ctx, k, evalset=evalset))
    rng = random.Random(q * 100 + k)
    words = [rand_word(rng, q, code.n) for _ in range(trials)]
    # the zero word, a codeword and a pure-tail word are edge rows
    words += [(0,) * code.n, code.encode((1,) * k),
              CosetRep(tail=(0,) * (len(code.structure["eval"]) - 1) + (1,),
                       v=0 if kind == "prs" else None).representative_word(code)]
    got = reduce_to_coset_reps(code, words)
    assert got == [_reduce_by_interpolation(code, w) for w in words]
    assert all(type(c) is int for r in got for c in r.tail + (r.v or 0,))
    assert reduce_to_coset_rep(code, words[0]) == got[0]


def test_representative_words_reduce_back_in_one_batch():
    code = prs_code(field_create(5), 2)
    reps = deep_holes(code).reps
    assert len(reps) == 360
    assert reduce_to_coset_reps(
        code, [r.representative_word(code) for r in reps]) == reps


@pytest.mark.parametrize("q,kind,k,evalset,trials", REDUCTION_CODES)
def test_representative_word_evaluates_the_tail(q, kind, k, evalset, trials):
    ctx = field_for_size(q)
    code = (prs_code(ctx, k) if kind == "prs"
            else rs_code(ctx, k, evalset=evalset))
    D = code.structure["eval"]
    rng = random.Random(q + k)
    for _ in range(min(trials, 40)):
        tail = tuple(rng.randrange(q) if i >= k else 0 for i in range(len(D)))
        v = rng.randrange(q) if kind == "prs" else None
        want = evaluate_word(Poly(ctx, tail), D) + ((v,) if v is not None else ())
        assert CosetRep(tail=tail, v=v).representative_word(code) == want


def test_batched_reduction_of_no_words_and_of_a_wrong_length():
    code = prs_code(field_create(5), 2)
    assert reduce_to_coset_reps(code, []) == []
    with pytest.raises(ValueError, match="word length 5 != n=6"):
        reduce_to_coset_reps(code, [(0,) * 5, (1,) * 5])
    with pytest.raises(ValueError, match="word length 0 != n=6"):
        reduce_to_coset_reps(code, [()])


# ----------------------------------------------------------------------
# deep holes
# ----------------------------------------------------------------------

def test_rs52_deep_holes_are_square_multiples():
    report = deep_holes(rs_code(field_create(5), 2))
    assert report.rho == 3
    assert report.count == 4
    assert report.matches_degree_k_family
    assert [r.tail for r in report.reps] == [(0, 0, c) for c in (1, 2, 3, 4)]


def test_prs62_deep_holes_exceed_family():
    report = deep_holes(prs_code(field_create(5), 2))
    assert report.rho == 3
    assert report.count == 360
    assert report.family_size == 20
    assert not report.matches_degree_k_family
    assert not report.missing_family  # the family is fully deep
    assert len(report.extras) == 340


def test_syndrome_deep_holes_leave_family_fields_unset():
    # witness words are not (tail, v) reps, so no family comparison is made
    report = deep_holes(prs_code(field_create(5), 2), algo="syndrome")
    assert report.count == 360
    assert report.matches_degree_k_family is None
    assert report.family_size is None
    assert not report.extras and not report.missing_family


def test_prs_deep_sets_match_syndrome_bfs():
    # independent cross-validation of the full deep-hole listing; over F_9
    # the extra-coordinate value is decoded from a = 2 digits
    for q, k in [(5, 2), (5, 3), (5, 4), (7, 4), (9, 6), (9, 7)]:
        code = prs_code(field_for_size(q), k)
        sweep = deep_holes(code, algo="sweep")
        bfs = deep_holes(code, algo="syndrome")
        assert sweep.rho == bfs.rho
        sweep_set = set(sweep.reps)
        bfs_set = set(reduce_to_coset_reps(code, [r.word for r in bfs.reps]))
        assert sweep_set == bfs_set


def test_deep_hole_listing_over_the_candidate_cap_raises(monkeypatch):
    code = prs_code(field_create(5), 2)
    ctx, D = code.ctx, tuple(code.structure["eval"])
    tails = len(_sweeps.run_sweep(ctx, D, 2, prs=True, collect=True,
                                  plans=_sweeps.full_plans(ctx, len(D), 2))
                .candidates)
    monkeypatch.setattr(_sweeps, "DEEP_CANDIDATE_CAP", tails)
    assert deep_holes(code).count == 360
    monkeypatch.setattr(_sweeps, "DEEP_CANDIDATE_CAP", tails - 1)
    with pytest.raises(ValueError, match=f"more than {tails - 1} "):
        deep_holes(code)
    monkeypatch.setattr(_sweeps, "CHUNK", 64)  # two tasks, each under the cap
    with pytest.raises(ValueError, match=f"more than {tails - 1} "):
        deep_holes(code, threads=2)
    monkeypatch.setattr(_sweeps, "DEEP_CANDIDATE_CAP", 10)
    with pytest.raises(ValueError, match="more than 10 "):
        deep_holes(code)
    # the five codewords c*x overflow a cap of 1 at distance 1; x^2 then
    # raises the maximum to 3, which discards them and the overflow
    monkeypatch.setattr(_sweeps, "DEEP_CANDIDATE_CAP", 1)
    plans = [_sweeps.TailPlan({}, (1,), 5), _sweeps.TailPlan({2: 1}, (), 5)]
    out = _sweeps.profile_sweep(ctx, D, 2, prs=True, plans=plans, collect=True)
    assert (out.max_contrib, out.truncated) == (3, False)
    assert [t for t, _ in out.candidates] == [(0, 0, 1)]


def test_deep_holes_respects_supplied_rho():
    code = rs_code(field_create(5), 2)
    report = deep_holes(code, rho=3)
    assert report.count == 4
    with pytest.raises(ValueError, match="rho"):
        deep_holes(code, rho=2)


def test_deep_hole_family_iterator():
    ctx = field_create(5)
    fam = list(deep_hole_family_prs(ctx, 2))
    assert len(fam) == 20
    assert all(r.tail == (0, 0, c) for r in fam for c in [r.tail[2]])
    with pytest.raises(ValueError):
        list(deep_hole_family_prs(ctx, 1))
    with pytest.raises(ValueError):
        list(deep_hole_family_prs(ctx, 4))


def test_every_family_rep_is_deep():
    for q, k in [(5, 2), (5, 3), (7, 3)]:
        ctx = field_for_size(q)
        code = prs_code(ctx, k)
        for rep in deep_hole_family_prs(ctx, k):
            w = rep.representative_word(code)
            assert error_distance_mds(code, w)[0] == q - k


def test_deep_hole_reps_recheck_at_rho():
    report = deep_holes(prs_code(field_create(5), 3))
    code = prs_code(field_create(5), 3)
    for rep in report.reps[::7]:
        w = rep.representative_word(code)
        assert error_distance_mds(code, w)[0] == report.rho


def test_threaded_sweep_matches_serial():
    code = prs_code(field_create(7), 4)
    a = deep_holes(code, threads=1)
    b = deep_holes(code, threads=2)
    assert a.rho == b.rho and a.count == b.count
    assert [r.sort_key() for r in a.reps] == [r.sort_key() for r in b.reps]


# ----------------------------------------------------------------------
# sandwich, degree-(k+1) exclusion
# ----------------------------------------------------------------------

def test_rs_sandwich_exhaustive_f5():
    ctx = field_create(5)
    for k in range(1, 5):
        code = rs_code(ctx, k)
        for idx in range(1, 5 ** (5 - k)):
            digs = []
            t = idx
            for _ in range(5 - k):
                digs.append(t % 5)
                t //= 5
            f = Poly(ctx, [0] * k + digs)
            d = error_distance_mds(code, evaluate_word(f, ctx.elements()))[0]
            assert 5 - f.degree <= d <= 5 - k


@pytest.mark.parametrize("q", [5, 7, 9])
def test_no_degree_kplus1_deep_holes(q):
    ctx = field_for_size(q)
    for k in range(1, q - 1):
        code = rs_code(ctx, k)
        for c in range(1, q):
            for b in range(q):
                f = Poly(ctx, [0] * k + [b, c])
                d = error_distance_mds(code, evaluate_word(f, ctx.elements()))[0]
                assert d <= q - k - 1, (q, k, c, b, d)


# ----------------------------------------------------------------------
# nested codes and the reduction bound
# ----------------------------------------------------------------------

def test_nested_max_distance_rs52_in_rs53():
    ctx = field_create(5)
    m = nested_max_distance(rs_code(ctx, 2), rs_code(ctx, 3))
    assert m == 3


def test_nested_max_distance_self_is_zero():
    code = rs_code(field_create(5), 2)
    assert nested_max_distance(code, code) == 0


def test_nested_max_containment_checked():
    ctx = field_create(5)
    with pytest.raises(ValueError, match="contained"):
        nested_max_distance(rs_code(ctx, 3), rs_code(ctx, 2))


def test_nested_max_distance_non_mds_inner_code():
    # C1 = <(1,1,0,0,0)> has d = 2 < n; a codeword b*(0,0,1,1,1) + ... of
    # C2 with b != 0 lies at distance 3 from C1
    ctx = field_create(5)
    c1 = from_matrix(ctx, [[1, 1, 0, 0, 0]])
    c2 = from_matrix(ctx, [[1, 1, 0, 0, 0], [0, 0, 1, 1, 1]])
    assert not is_mds(c1)
    assert nested_max_distance(c1, c2) == 3 == max(
        min(hamming(c, b) for b in c1.codewords()) for c in c2.codewords())


def test_radius_subadditivity_along_extension():
    # rho(C1) <= rho(C2) + M(C1, C2) on nested pairs, including span
    # extensions by random words
    ctx = field_create(5)
    c1 = rs_code(ctx, 2)
    rho1 = covering_radius_syndrome(c1).rho
    c2 = rs_code(ctx, 3)
    assert rho1 <= covering_radius_syndrome(c2).rho + nested_max_distance(c1, c2)
    rng = random.Random(23)
    tried = 0
    while tried < 20:
        w = rand_word(rng, 5, 5)
        if c1.contains(w):
            continue
        tried += 1
        cu = from_matrix(ctx, [list(r) for r in c1.G] + [list(w)])
        rho_u = covering_radius_syndrome(cu).rho
        m = nested_max_distance(c1, cu)
        assert rho1 <= rho_u + m


def test_example_one_error_vector_code():
    # span of a weight-1 word and the RS code has minimum distance 1 but
    # large covering radius
    ctx = field_create(5)
    c1 = rs_code(ctx, 2)
    cu = from_matrix(ctx, [list(r) for r in c1.G] + [[1, 0, 0, 0, 0]])
    assert min_distance(cu) == 1
    rho_u = covering_radius_syndrome(cu).rho
    m = nested_max_distance(c1, cu)
    assert covering_radius_syndrome(c1).rho <= rho_u + m


def test_square_word_extension_is_rs53():
    # adjoining the square word to RS(5,2) gives RS(5,3): d = 3, rho = 2
    ctx = field_create(5)
    c1 = rs_code(ctx, 2)
    w = evaluate_word(Poly(ctx, [0, 0, 1]), ctx.elements())
    cu = from_matrix(ctx, [list(r) for r in c1.G] + [list(w)])
    assert min_distance(cu) == min_distance(rs_code(ctx, 3)) == 3
    assert covering_radius_syndrome(cu).rho == 2


# ----------------------------------------------------------------------
# the projective bound via the affine code
# ----------------------------------------------------------------------

def test_prs_bound_equality_cases():
    ctx = field_create(5)
    # f of degree k-1 with matching v: the word is a codeword, bound 0
    f = Poly(ctx, [2, 1])  # deg 1, k = 2: c_{k-1}(f) = 1
    assert prs_bound_via_rs(f, 1, 2) == 0
    code = prs_code(ctx, 2)
    w = evaluate_word(f, ctx.elements()) + (1,)
    assert error_distance_mds(code, w)[0] == 0


def test_prs_bound_monomial():
    for q, k in [(5, 2), (5, 3), (7, 3)]:
        ctx = field_for_size(q)
        f = Poly(ctx, [0] * k + [1])
        bound = prs_bound_via_rs(f, 0, k)
        code = prs_code(ctx, k)
        w = evaluate_word(f, ctx.elements()) + (0,)
        assert error_distance_mds(code, w)[0] <= bound


@pytest.mark.parametrize("q,k", [(7, 3), (5, 2)])
def test_prs_bound_random_property(q, k):
    ctx = field_for_size(q)
    code = prs_code(ctx, k)
    rng = random.Random(q + k)
    for _ in range(100):
        f = Poly(ctx, [rng.randrange(q) for _ in range(q)])
        v = rng.randrange(q)
        w = evaluate_word(f, ctx.elements()) + (v,)
        lhs = error_distance_mds(code, w)[0]
        assert lhs <= prs_bound_via_rs(f, v, k)
