import dataclasses
import itertools
import math
import pickle
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
    # (k+1)*a*(p-1)^2 = 37*36^2 >= 2^15, so the parity functional's values
    # need int32.  It is the sum of all 37 coordinates (the divided
    # difference over D, all weights 1 up to scale), so words with large
    # entries reach that bound.  The 1937 words fit one chunk;
    # test_mds_distances_equal_the_per_subset_decoder_and_brute splits
    # its words over many.
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
    # 2*4098^2 > 2^24: a float32 product of two coefficient digits with a
    # divided-difference column rounds.  The sweep's tail values were once
    # wrong here (coefficients (4088, 4081) gave (4092, 4049, 3969) where
    # the tail is (4092, 4049, 3970)); the functional product takes over
    # that edge, checked against int64 tail values
    ctx, D, p = field_create(4099), (4098, 4097, 4096), 4099
    assert _linops.exact_dtypes(2, p)[0] == np.float64
    plan = _sweeps.full_plans(ctx, 3, 1)[0]
    idx = np.arange(plan.count - 70000, plan.count)
    coeffs = _linops.mixed_radix(idx, p, 2)
    u = coeffs @ np.array([D, [x * x % p for x in D]]) % p
    assert tuple(u[4088 + 4081 * p - idx[0]]) == (4092, 4049, 3970)
    X = _sweeps._tail_values_digits(ctx, plan, idx, np.float64)
    assert np.array_equal(X, coeffs)
    M1, up, M0 = _sweeps.divided_differences(ctx, D, 1, True)
    for M in (M1, M0):
        ref = coeffs @ M[1:].astype(np.int64) % p
        assert np.array_equal(_linops.digit_matmul(X, M[1:], p), ref)
    # [x]t = t(x), and [{x, y}]t = 0 iff t(x) = t(y)
    assert np.array_equal(np.sort(ref, axis=1), np.sort(u, axis=1))
    pairs = _linops.digit_matmul(X, M1[1:], p) == 0
    assert np.array_equal(pairs.sum(axis=1),
                          (u[:, [0, 0, 1]] == u[:, [1, 2, 2]]).sum(axis=1))
    # the sweep lists the tails with three distinct values, at distance 2
    out = _sweeps.profile_sweep(ctx, D, 1, prs=False, collect=True, plans=[
        _sweeps.TailPlan({}, (1, 2), p, plan.count - 70000, plan.count)])
    distinct = pairs.sum(axis=1) == 0
    assert out.max_contrib == 2
    assert sorted(_sweeps._tail_tuples(out.candidates)) == sorted(
        (0,) + tuple(c) for c in coeffs[distinct].tolist())


@pytest.mark.parametrize("q,k", [(7, 3), (9, 3)])
def test_sweep_operators_match_lagrange_reference(q, k):
    # every parity functional h_U is a dual codeword with support exactly
    # U: it vanishes on every codeword, is nonzero on U, its digit block i
    # is M(h_U[U_i])^T, and the subsets U and S follow itertools.combinations
    # order.  For U within D it is the divided difference over U, scaled to
    # 1 at max U: the x^k coefficients of the Lagrange basis of U
    ctx = field_for_size(q)
    code = prs_code(ctx, k)
    n, a, p, D = code.n, ctx.a, ctx.p, ctx.elements()
    table, U, comp, up, inv, singular = _sweeps.subset_ops(code)
    subs = list(itertools.combinations(range(n), k + 1))
    assert [tuple(u) for u in U.tolist()] == subs
    assert table.shape == (len(subs), a, (k + 1) * a) and not singular.any()
    cw = ctx.digit_table()[code.codeword_matrix()].transpose(1, 2, 0)
    assert not _linops.digit_matmul(
        table, cw[U].reshape(len(subs), -1, cw.shape[2]), p).any()
    blocks = table.astype(np.int64).reshape(len(subs), a, k + 1, a)
    h = blocks[:, :, :, 0].transpose(0, 2, 1) @ p ** np.arange(a)
    for S, hU, bU in zip(subs, h, blocks):
        assert hU.all() and hU[-1] == 1
        assert np.array_equal(bU.transpose(1, 2, 0),
                              ctx.mul_digit_matrix(hU))
        if S[-1] < len(D):
            lead = [Poly(ctx, c).coefficient(k)
                    for c in lagrange_basis(ctx, [D[i] for i in S])]
            assert [ctx.mul(int(v), lead[-1]) for v in hU] == lead
    for s, S in enumerate(itertools.combinations(range(n), k)):
        assert sorted(set(range(n)) - set(S)) == sorted(comp[s].tolist())
        for j, x in enumerate(comp[s].tolist()):
            T = tuple(sorted(S + (x,)))
            assert subs[up[s, j]] == T
            assert ctx.mul(int(inv[s, j]), int(h[up[s, j], T.index(x)])) == 1


def test_rs_sweep_and_decoder_share_one_operator_stack(monkeypatch):
    # the sweep no longer decodes subsets: it scores divided differences
    # and builds no parity table, so the decoder and the MDS check read
    # one cached parity table, H reduced on the C(12,9) = 220 subsets
    # U - {max U}
    monkeypatch.setattr(_sweeps, "_SUBSET_OPS_CACHE", {})
    code = rs_code(field_create(13), 9)
    assert covering_radius_sweep(code).rho == 4
    assert not _sweeps._SUBSET_OPS_CACHE
    d, _ = error_distances_mds(code, code.G[:2])
    assert d.tolist() == [0, 0] and is_mds(code)
    assert len(_sweeps._SUBSET_OPS_CACHE) == 1


def test_subset_ops_budget_raises_before_allocating():
    # RS(37,6)'s parity functionals are closed forms, but their table of
    # C(37,7) x 7 digits and its index of C(37,6) x 31 entries hold
    # 144136608 entries, over 1 GB in int64: the MDS check refuses them
    # unallocated.  RS(37,32) under 'auto' (n-k = 5) goes to the sweep,
    # whose tables hold C(37,33) * 37 + C(37,32) * 5 entries
    mid, code = rs_code(field_create(37), 6), rs_code(field_create(37), 32)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="C\\(37,7\\) parity functionals "
                           "of 7 x 1 digits and their C\\(37,6\\) x 31 index = "
                           "144136608 entries exceed budget 100000000"):
            is_mds(mid)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rep = covering_radius(code)
        sweep_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (rep.algorithm, rep.rho) == ("rep-sweep", 5)
    assert sweep_peak < 128 << 20


def test_divided_difference_budget_raises_before_allocating():
    # PRS(32,15)/F_31: C(31,16) + C(31,15) functionals of 31 digits each
    code = prs_code(field_create(31), 15)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="divided-difference tables of "
                           "C\\(31,16\\) and C\\(31,15\\) subsets = "
                           "[0-9]+ entries exceed budget 100000000"):
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


def subset_decoder(ctx, G, n):
    """The per-subset decoder, an in-test oracle independent of the parity
    functionals: for every k-subset S of the first n columns of G, in
    itertools.combinations order, S's digit columns and G_S^-1 G, from one
    `_linops.subset_reduce`, and whether G_S is singular."""
    k, a = len(G), ctx.a
    subs = np.array(list(itertools.combinations(range(n), k))).reshape(-1, k)
    gather = (subs[:, :, None] * a + np.arange(a)).reshape(len(subs), k * a)
    ops, rank = _linops.subset_reduce(_linops.digit_expand(ctx, G), gather,
                                      ctx.p)
    return gather, ops.astype(_linops.exact_dtypes(k * a, ctx.p)[0]), rank < k * a


def decode_on(ctx, rows, gather, op, n):
    """Digit rows decoded on one subset of `subset_decoder`, or on a block
    of them (a leading axis on gather, op and the results): the digits of
    the codewords that match them there, and how many of the first n
    coordinates each matches."""
    a = ctx.a
    cand = _linops.digit_matmul(np.moveaxis(rows[:, gather], 0, -2), op, ctx.p)
    eq = cand[..., :n * a] == rows[:, :n * a]
    return cand, eq.reshape(eq.shape[:-1] + (n, a)).all(axis=-1).sum(axis=-1)


def decoded_distances(code, words):
    """`error_distances_mds` by the per-subset decoder: the nearest
    codeword is the first best candidate in combinations order."""
    ctx, n = code.ctx, code.n
    gather, ops, singular = subset_decoder(ctx, code.G, n)
    assert not singular.any()
    u = ctx.digit_table()[np.asarray(words, dtype=np.int64)].reshape(
        len(words), n * ctx.a)
    best, near, r = np.full(len(u), -1), np.zeros_like(u), np.arange(len(u))
    for b in range(0, len(ops), 256):
        cand, agree = decode_on(ctx, u, gather[b:b + 256], ops[b:b + 256], n)
        i = agree.argmax(axis=0)  # the first best of the block
        better = agree[i, r] > best
        best[better], near[better] = agree[i, r][better], cand[i, r][better]
    return n - best, _linops.digit_decode_cols(ctx, near, n)


def _rs_on(q, D, k):
    return lambda: rs_code(field_for_size(q), k, evalset=D)


MDS_DIFFERENTIAL = [
    pytest.param(lambda kind=kind, q=q, k=k: (rs_code if kind == "rs" else
                                              prs_code)(field_for_size(q), k),
                 id=f"{kind}-{q}-{k}")
    for q in (5, 7, 9) for kind in ("rs", "prs")
    for k in range(1, q + (kind == "prs"))
] + [
    pytest.param(lambda: glynn_code(field_for_size(9)), id="glynn"),
    pytest.param(_rs_on(11, (1, 3, 4, 7, 8, 9, 10), 4), id="rs-11-partial"),
    pytest.param(_rs_on(9, (0, 2, 5, 6, 7, 8), 3), id="rs-9-partial"),
    pytest.param(lambda: rs_code(field_for_size(37), 36), id="rs-37-36"),
    pytest.param(lambda: rs_code(field_for_size(37), 4), id="rs-37-4"),
    pytest.param(lambda: from_matrix(field_for_size(5), [[1, 2, 3, 4]]),
                 id="generic-4-1"),
    pytest.param(lambda: from_matrix(field_for_size(9),
                                     [[1, 2, 0], [0, 1, 3], [4, 0, 1]]),
                 id="generic-k-equals-n"),
]


@pytest.mark.parametrize("make", MDS_DIFFERENTIAL)
def test_mds_distances_equal_the_per_subset_decoder_and_brute(make, monkeypatch):
    # distances and nearest codewords, ties included, against the decoder
    # over all k-subsets, in one chunk and in chunks of one word; distances
    # against the codeword scan where q^k is small.  Random words, planted
    # errors of every weight up to n - k + 1 and the constant words
    code = make()
    q, n, k = code.ctx.q, code.n, code.k
    assert is_mds(code)
    rng = random.Random(code.label)
    few = math.comb(n, k + 1) > 10**5  # RS(37,4): 20 ms a word
    words = [rand_word(rng, q, n) for _ in range(20 if few else 150)]
    for i in range(20 if few else 100):
        w = list(code.encode(rand_word(rng, q, k)))
        for pos in rng.sample(range(n), min(n, i % (n - k + 2))):
            w[pos] = rng.randrange(q)
        words.append(tuple(w))
    words += [(c,) * n for c in range(q)]
    dists, nearest = error_distances_mds(code, words)
    ref_d, ref_near = decoded_distances(code, words)
    assert dists.tolist() == ref_d.tolist()
    assert nearest.tolist() == ref_near.tolist()
    monkeypatch.setattr(_sweeps, "CHUNK", 1)
    d1, near1 = error_distances_mds(code, words)
    assert d1.tolist() == ref_d.tolist() and near1.tolist() == ref_near.tolist()
    if q ** k <= 10**5:
        assert dists.tolist() == error_distances_brute(code, words)[0].tolist()
    assert dists.min() == 0 and (dists.max() > 0) == (k < n)
    d0, near0 = error_distances_mds(code, [])
    assert d0.shape == (0,) and near0.shape == (0, n)


def test_is_mds_equals_the_k_subset_rank_check():
    # seeded random generators over F_3 ... F_9, some with zero columns:
    # MDS iff every k columns of G are independent
    rng = random.Random(17)
    seen = set()
    for _ in range(320):
        ctx = field_for_size(rng.choice([3, 5, 7, 9]))
        n = rng.randrange(1, 8)
        k = rng.randrange(1, n + 1)
        zero = [rng.random() < 0.1 for _ in range(n)]
        rows = [[0 if z else rng.randrange(ctx.q) for z in zero]
                for _ in range(k)]
        try:
            code = from_matrix(ctx, rows)
        except ValueError:  # rank-deficient
            continue
        want = not subset_decoder(ctx, code.G, n)[2].any()
        assert is_mds(code) == want, rows
        seen.add((want, k == 1, any(zero)))
    assert len(seen) >= 6
    assert {(True, True), (False, True), (True, False), (False, False)} == {
        (mds, one) for mds, one, _ in seen}


@pytest.mark.parametrize("k", [2, 79])
def test_mds_over_f81_with_digit_columns_beyond_uint8(k):
    # n*a = 81*4 digit columns do not fit the subsets' uint8 indices.
    # k = 2 reduces G and is checked against the codeword scan; k = 79
    # reduces H, and words one error away decode to their codeword
    code = rs_code(field_for_size(81), k)
    assert is_mds(code)
    rng = random.Random(k)
    if k == 2:
        words = [rand_word(rng, 81, 81) for _ in range(40)]
        want = error_distances_brute(code, words)[0].tolist()
    else:
        sent = [code.encode(rand_word(rng, 81, k)) for _ in range(40)]
        words = [tuple(c[:i] + ((c[i] + 1) % 81,) + c[i + 1:])
                 for i, c in zip(range(40), sent)]
        want = [1] * 40
    dists, nearest = error_distances_mds(code, words)
    assert dists.tolist() == want
    assert all(code.contains(tuple(c)) and hamming(w, c) == d
               for w, c, d in zip(words, nearest.tolist(), want))
    if k == 79:
        assert [tuple(c) for c in nearest.tolist()] == sent


def test_subset_index_builds_the_smaller_side():
    # the 2-subsets of range(37) and their 35-element complements, from
    # the 2-subsets: building the complements' own colex stages would pass
    # through C(37,18) rows
    tracemalloc.start()
    try:
        U, S, comp, up = _sweeps.subset_index(37, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert U.shape == (666, 2) and S.shape == (37, 1)
    assert comp.shape == up.shape == (37, 36)
    assert sorted(U[up[5]].tolist()) == [sorted([x, 5]) for x in range(37)
                                         if x != 5]


def test_mds_check_of_prs_6562_2_raises_before_allocating():
    # C(6562,3) functionals: refused before the complement rows or H exist
    code = prs_code(field_create(3, 8), 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="C\\(6562,3\\) parity "
                           "functionals .* exceed budget 100000000"):
            is_mds(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "HTd" not in vars(code)


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


def decode_profile(code):
    """The sweep's answer by per-subset decoding, an independent reference
    for its divided differences: every tail of the full plan is decoded on
    every k-subset of D by `subset_decoder` and `decode_on`, with no
    pruning.  Returns (coefficient rows, bestA per row, max contribution,
    candidates, the rows decoded on each subset)."""
    ctx, k, D = code.ctx, code.structure["k"], tuple(code.structure["eval"])
    n, a, q, p = len(D), ctx.a, ctx.q, ctx.p
    prs = code.structure["kind"] == "prs"
    gather, ops, _ = subset_decoder(ctx, code.G, n)
    coeffs = np.zeros((q ** (n - k), n), dtype=np.int64)
    coeffs[:, k:] = _linops.mixed_radix(np.arange(len(coeffs)), q, n - k)
    cd = ctx.digit_table()[coeffs].reshape(len(coeffs), -1)
    u = _linops.digit_matmul(cd, _sweeps.eval_operators(ctx, D)[0], p)
    rows = np.arange(len(u))
    bestA = np.zeros(len(u), dtype=np.int64)
    bestV = np.zeros((len(u), q), dtype=np.int64)
    decoded = []
    for g, op in zip(gather, ops):
        cand, agree = decode_on(ctx, u, g, op, n)
        decoded.append(len(agree))
        np.maximum(bestA, agree, out=bestA)
        if prs:
            v = cand[:, n * a:] @ p ** np.arange(a)
            np.maximum.at(bestV, (rows, v), agree)
    full = bestV.min(axis=1) == bestA if prs else np.zeros(len(u), bool)
    contrib = n + prs - bestA - full
    gmax = int(contrib.max())
    take = np.nonzero(contrib == gmax)[0]
    cands = []
    for r, tail in zip(take, _sweeps._tail_tuples(coeffs[take])):
        if not prs:
            vs = (None,)
        elif full[r]:
            vs = tuple(range(q))
        else:
            vs = tuple(np.nonzero(bestV[r] < bestA[r])[0].tolist())
        cands.append((tail, vs))
    return coeffs, bestA, gmax, cands, decoded


def listed(out):
    """A sweep's candidates as (tail, deep v values) pairs, the form of
    `decode_profile`: (None,) for RS, whose deep_v has one column."""
    vals = range(out.deep_v.shape[1]) if out.deep_v.shape[1] > 1 else (None,)
    return [(t, tuple(vals[i] for i in np.nonzero(m)[0].tolist()))
            for t, m in zip(_sweeps._tail_tuples(out.candidates), out.deep_v)]


# codes whose whole tail plan is one sweep chunk
ONE_CHUNK = [(kind, q, k) for q in (5, 7, 9) for k in range(1, q)
             for kind in ("rs", "prs") if q ** (q - k) <= _sweeps.CHUNK]


@pytest.mark.parametrize("kind,q,k", ONE_CHUNK)
def test_pruned_sweep_equals_unpruned(kind, q, k):
    # the pruned functional sweep against the per-subset decode, which
    # decodes every row on every subset
    code = (rs_code if kind == "rs" else prs_code)(field_for_size(q), k)
    ctx, D, prs = code.ctx, tuple(code.structure["eval"]), kind == "prs"
    _, _, gmax, cands, decoded = decode_profile(code)
    assert decoded == [q ** (len(D) - k)] * math.comb(len(D), k)
    plans = _sweeps.full_plans(ctx, len(D), k)
    radius = _sweeps.run_sweep(ctx, D, k, prs=prs, plans=plans, collect=False)
    assert radius.max_contrib == gmax
    listing = _sweeps.run_sweep(ctx, D, k, prs=prs, plans=plans, collect=True)
    assert listing.max_contrib == gmax
    assert sorted(listed(listing)) == sorted(cands)


def block_test_vs_decode(code):
    """The streamed (k+1)-functional block test keeps a tail iff the
    per-subset decode finds no polynomial of degree < k agreeing with it
    on k+1 points."""
    ctx, k, D = code.ctx, code.structure["k"], tuple(code.structure["eval"])
    coeffs, bestA, _, _, _ = decode_profile(code)
    # tail h*q + l: the low coefficient (degree k) from l, the rest from h
    a, p, q, H = ctx.a, ctx.p, ctx.q, ctx.q ** (len(D) - k - 1)
    M1 = _sweeps.divided_differences(ctx, D, k,
                                     code.structure["kind"] == "prs")[0]
    T1 = M1[k * a:].T
    low = _sweeps._LowPart(ctx, M1, None, (k,))
    X = _linops.mixed_radix(np.arange(H), p, T1.shape[1] - a).T
    kept = np.unpackbits(_sweeps._survivors(
        (p - T1[:, a:]) % p, X, low, slice(0, q)), axis=1, count=q,
        bitorder="little").ravel() == 1
    assert 0 < kept.sum() < len(coeffs)
    assert np.array_equal(kept, bestA == k)


@pytest.mark.parametrize("kind,q,k", ONE_CHUNK)
def test_block_test_refutes_exactly_the_rows_decoded_past_k(kind, q, k):
    block_test_vs_decode(
        (rs_code if kind == "rs" else prs_code)(field_for_size(q), k))


@pytest.mark.parametrize("q", [25, 27])
def test_block_test_compares_encodings_over_extension_fields(q):
    # a = 2 and a = 3: the zero test compares encodings of a digits; 7
    # points and k = 4 give C(7,5) = 21 functionals, two blocks of 16
    ctx = field_for_size(q)
    block_test_vs_decode(rs_code(ctx, 4, ctx.elements()[:7]))


@pytest.mark.parametrize("q,C,L,lo,H", [
    (5, 17, 2, (3, 22), 40),   # Q = 25, unaligned low range, last block 1
    (9, 17, 0, (0, 1), 64),    # Q = 1, a = 2
    (9, 20, 1, (0, 9), 30),    # Q = 9, not a multiple of 8; last block 4
    (7, 16, 1, (1, 6), 50),    # exactly one block, l0 > 0 and l1 < Q
    (27, 17, 1, (5, 26), 20),  # a = 3, Q = 27
    (27, 100, 1, (0, 27), 20),  # 7 blocks, hit bits built 1, 1, 2, 4 at once
])
def test_packed_block_test_equals_the_broadcast_compare(q, C, L, lo, H):
    # `_survivors` gathers bit-packed low parts; the reference compares the
    # encodings of every functional on every (high, low) pair at once
    ctx = field_for_size(q)
    a, p, Q, w = ctx.a, ctx.p, q ** L, 3
    rng = np.random.default_rng(q * C + L)
    M1 = rng.integers(0, p, ((L + w) * a, C * a))  # degrees 0..L+w-1
    T1 = (p - M1[L * a:].T) % p                    # negated high rows
    X = rng.integers(0, p, (w * a, H))             # H high parts' digits
    edt = np.min_scalar_type(q - 1)
    inner = _sweeps._encode(_linops.digit_matmul(
        M1[:L * a].T, _linops.mixed_radix(np.arange(Q), p, L * a).T, p),
        a, p, edt)
    neg = _sweeps._encode(_linops.digit_matmul(T1, X, p), a, p, edt)
    ref = ~(inner[:, None, :] == neg[:, :, None]).any(axis=0)
    ref[:, :lo[0]] = ref[:, lo[1]:] = False
    low = _sweeps._LowPart(ctx, M1, None, tuple(range(L)))
    got = np.unpackbits(_sweeps._survivors(T1, X, low, slice(*lo)), axis=1,
                        bitorder="little")
    assert got.shape == (H, -(-Q // 8) * 8)
    assert not got[:, Q:].any()  # padding bits are never alive
    assert np.array_equal(got[:, :Q] == 1, ref)
    assert 0 < ref.sum() < H * (lo[1] - lo[0])


def matmul_profile(ctx, D, k, prs, plans):
    """The sweep's answer by per-chunk digit products, a reference for its
    block addition: each chunk of CHUNK tails is decoded to digit rows by
    `_tail_values_digits` and scored with one `digit_matmul` per functional
    table, with no pruning.  Returns the maximum contribution and the
    (tail, deep v values) of the tails reaching it, in sweep order."""
    n, a, q, p = len(D), ctx.a, ctx.q, ctx.p
    M1, up, M0 = _sweeps.divided_differences(ctx, D, k, prs)
    C1, C0 = M1.shape[1] // a, len(up)
    found = []
    for plan in plans:
        degs = plan.free_degrees + tuple(plan.fixed)
        rows = (np.array(degs, dtype=np.int64)[:, None] * a
                + np.arange(a)).ravel()
        for s in range(plan.start, plan.end, _sweeps.CHUNK):
            idx = np.arange(s, min(s + _sweeps.CHUNK, plan.end))
            X = _sweeps._tail_values_digits(ctx, plan, idx, np.int64)
            zero = (_linops.digit_matmul(X, M1[rows], p) == 0).reshape(
                len(X), C1, a).all(axis=2)
            agree = zero[:, up].sum(axis=2)
            best = agree.max(axis=1)
            contrib = n + prs - k - best
            deep = np.ones((len(X), 1), dtype=bool)
            if prs:
                v = _linops.digit_matmul(X, M0[rows], p).reshape(
                    len(X), C0, a) @ p ** np.arange(a)
                reached = np.zeros((len(X), q + 1), dtype=bool)
                reached[np.arange(len(X))[:, None],
                        np.where(agree == best[:, None], v, q)] = True
                full = reached[:, :q].all(axis=1)
                contrib = contrib - full
                deep = ~reached[:, :q] | full[:, None]
            coeffs = np.zeros((len(X), n), dtype=np.int64)
            coeffs[:, list(degs)] = _linops.digit_decode_cols(ctx, X, len(degs))
            found += zip(contrib.tolist(), _sweeps._tail_tuples(coeffs), deep)
    gmax = max(c for c, _, _ in found)
    vals = range(q) if prs else (None,)
    return gmax, [(t, tuple(vals[i] for i in np.nonzero(m)[0].tolist()))
                  for c, t, m in found if c == gmax]


def block_vs_matmul(ctx, D, k, prs, plans):
    """profile_sweep's radius and listing against `matmul_profile`."""
    gmax, cands = matmul_profile(ctx, D, k, prs, plans)
    radius = _sweeps.profile_sweep(ctx, D, k, prs=prs, plans=plans,
                                   collect=False)
    listing = _sweeps.profile_sweep(ctx, D, k, prs=prs, plans=plans,
                                    collect=True)
    assert radius.max_contrib == listing.max_contrib == gmax
    assert radius.cosets == listing.cosets == sum(
        pl.end - pl.start for pl in plans)
    assert listed(listing) == cands
    assert not listing.truncated


@pytest.mark.parametrize("prs", [False, True])
def test_block_addition_beyond_a_uint8_sum(prs):
    # F_131: inner + outer reaches 2*130 = 260 > 255, so the inner table
    # is uint16; the partial set keeps the C(5,3) + C(5,2) functionals few
    ctx, D, k = field_create(131), (3, 50, 77, 101, 130), 2
    assert np.min_scalar_type(2 * 130) == np.uint16
    plans = [_sweeps.TailPlan({}, range(k, len(D)), 131, 10**6, 10**6 + 40000)]
    block_vs_matmul(ctx, D, k, prs, plans)


@pytest.mark.parametrize("q,D,k,prs", [
    (9, None, 5, True),                  # PRS(10,5)/F_9: 9^4 tails
    (9, None, 4, False),
    (25, (0, 1, 7, 12, 20, 24), 3, True),  # 25^3 tails, a = 2
    (25, (0, 1, 7, 12, 20, 24), 3, False),
    (27, (0, 2, 5, 13, 26), 2, True),      # 27^3 tails, a = 3
    (27, (0, 2, 5, 13, 26), 2, False),
])
def test_block_addition_over_extension_fields(q, D, k, prs):
    ctx = field_for_size(q)
    D = ctx.elements() if D is None else D
    block_vs_matmul(ctx, D, k, prs, _sweeps.full_plans(ctx, len(D), k))


@pytest.mark.parametrize("q,k", [(7, 2), (9, 3), (11, 5)])
def test_block_addition_on_sliced_plans(q, k):
    # each degree-d slice fixes x^d = 1; over F_9 the x^(d-1) coefficient
    # stays free where 3 divides d
    ctx = field_for_size(q)
    plans = _sweeps.sliced_plans(ctx, k)
    assert any(pl.fixed and pl.free_degrees for pl in plans)
    block_vs_matmul(ctx, ctx.elements(), k, True, plans)


@pytest.mark.parametrize("q,k,measured", [
    (9, 4, True),    # 894 sliced tails, a = 2
    (25, 22, True),  # 28 sliced tails, a = 2, p = 5
    (27, 24, True),  # 30 sliced tails, a = 3
    (9, 3, False),   # from floor -1: scored until gmax = 6, then refuted
])
def test_refute_path_equals_the_reference(monkeypatch, q, k, measured):
    # a radius-only sweep at threshold k+1 streams the (k+1)-functionals
    # and scores only a grid with a survivor; each PRS(q+1,k) here has
    # rho = q-k, so its x^k tail survives (bestA = k, every v reached)
    ctx = field_for_size(q)
    D, plans = ctx.elements(), _sweeps.sliced_plans(ctx, k)
    floor = _sweeps.measured_floor(ctx, D, k, True) if measured else -1
    gmax, _ = matmul_profile(ctx, D, k, True, plans)
    events = []
    survivors, agreements = _sweeps._survivors, _sweeps.agreements

    def spy_survivors(*args):
        alive = survivors(*args)
        events.append("survivor" if alive.any() else "refuted")
        return alive

    def spy_agreements(*args):
        events.append("scored")
        return agreements(*args)

    monkeypatch.setattr(_sweeps, "_survivors", spy_survivors)
    monkeypatch.setattr(_sweeps, "agreements", spy_agreements)
    out = _sweeps.profile_sweep(ctx, D, k, prs=True, plans=plans,
                                collect=False, floor=floor)
    assert out.max_contrib == gmax == q - k
    assert out.cosets == sum(pl.count for pl in plans)
    assert "refuted" in events
    if measured:  # only a survivor's grid is scored
        assert "survivor" in events and "scored" in events
        assert all(e != "scored" or before in ("survivor", "scored")
                   for before, e in zip([None] + events, events))
    else:  # the path switches once gmax reaches the radius
        assert events[0] == "scored"


def test_refute_path_multiplies_a_fraction_of_the_functionals(monkeypatch):
    # PRS(12,4)/F_11 starts at its radius 7, so its grids are refuted 16
    # functionals at a time; a listing multiplies every functional row by
    # every grid, as the radius did before it streamed them
    ctx, k = field_create(11), 4
    D, plans = ctx.elements(), _sweeps.sliced_plans(ctx, k)
    floor = _sweeps.measured_floor(ctx, D, k, True)
    digit_matmul = _linops.digit_matmul

    def values(collect):  # functional values the digit products compute
        count = [0]

        def counting(xd, Md, p):
            count[0] += xd.shape[0] * Md.shape[-1]
            return digit_matmul(xd, Md, p)

        monkeypatch.setattr(_linops, "digit_matmul", counting)
        out = _sweeps.profile_sweep(ctx, D, k, prs=True, plans=plans,
                                    collect=collect, floor=floor)
        assert out.max_contrib == 7
        return count[0]

    assert values(False) < values(True) / 2


def test_refute_path_packs_eight_low_parts_a_byte(monkeypatch):
    # CHUNK = 100 gives score_rows = 900 // 252 = 3 < 9, so a scored plan
    # of PRS(10,4)/F_9 takes no low degree; a plan that starts at threshold
    # k+1 takes one, so each byte of hit bits holds 8 of its 9 low parts
    monkeypatch.setattr(_sweeps, "CHUNK", 100)
    ctx, k = field_for_size(9), 4
    D, plans = ctx.elements(), _sweeps.sliced_plans(ctx, k)
    floor = _sweeps.measured_floor(ctx, D, k, True)
    survivors, Qs = _sweeps._survivors, []

    def spy(T1, X, low, *args):
        Qs.append((low.Q, X.shape[1]))
        return survivors(T1, X, low, *args)

    monkeypatch.setattr(_sweeps, "_survivors", spy)
    out = _sweeps.profile_sweep(ctx, D, k, prs=True, plans=plans,
                                collect=False, floor=floor)
    assert out.max_contrib == 5
    assert {Q for Q, H in Qs if H > 1} == {9}  # Q = 1 only for one tail


def test_prs_18_10_radius_by_refutation():
    # 25646200 sliced tails, every one refuted by its (k+1)-functionals
    # but the x^10 tail: about 0.3 s on a 2-core host
    rep = covering_radius_sweep(prs_code(field_create(17), 10))
    assert (rep.rho, rep.cosets_examined, rep.variant) == (
        7, 25646200, "degree-sliced")


def test_block_addition_on_unaligned_worker_ranges(monkeypatch):
    # CHUNK = 100 gives q^L = 7 tails a block; two workers split the 7^4
    # tails at 1201, not a multiple of 7, and chunk them by 100
    monkeypatch.setattr(_sweeps, "CHUNK", 100)
    ctx, k = field_create(7), 3
    D = ctx.elements()
    assert max(1, 100 * 7 // (35 + 35)) == 10 and 1201 % 7 != 0
    plans = _sweeps.full_plans(ctx, len(D), k)
    gmax, cands = matmul_profile(ctx, D, k, True, plans)
    out = _sweeps.run_sweep(ctx, D, k, prs=True, plans=plans, collect=True,
                            threads=2)
    assert out.max_contrib == gmax and out.cosets == 7 ** 4
    assert listed(out) == cands


@pytest.mark.parametrize("cap", [1, 50, 103])
def test_block_addition_candidate_cap(monkeypatch, cap):
    # the listing keeps the first `cap` deep tails in sweep order
    ctx, k = field_create(5), 2
    D = ctx.elements()
    plans = _sweeps.full_plans(ctx, len(D), k)
    gmax, cands = matmul_profile(ctx, D, k, True, plans)
    assert len(cands) > cap
    monkeypatch.setattr(_sweeps, "DEEP_CANDIDATE_CAP", cap)
    out = _sweeps.profile_sweep(ctx, D, k, prs=True, plans=plans,
                                collect=True)
    assert out.truncated and out.max_contrib == gmax
    assert listed(out) == cands[:cap]


def test_grids_are_bounded_by_the_functional_count():
    # PRS(20,12)/F_19 scores C(19,13) + C(19,12) = 77520 functionals, so
    # a scored sub-chunk is 16 tails and q^L = 1: a grid of CHUNK tails
    # would take all 361 tails of the plan at once, 77520 outer values
    # each, where 4 * 16 tails a grid hold a fifth of that
    ctx, k = field_create(19), 12
    D = ctx.elements()
    _sweeps.divided_differences(ctx, D, k, True)  # the tables, cached
    plan = _sweeps.TailPlan({18: 1}, range(12, 14), 19)
    tracemalloc.start()
    try:
        out = _sweeps.profile_sweep(ctx, D, k, prs=True, plans=[plan],
                                    collect=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.max_contrib, out.cosets) == (6, 361)
    assert peak < 64 * 2**20


def test_radius_auto_says_when_neither_engine_fits():
    # PRS(82,77)/F_81 has 81^5 syndromes, and its divided-difference tables
    # would hold 2273436720 entries; a generic code has no sweep
    code = prs_code(field_for_size(81), 77)
    with pytest.raises(ValueError, match="^neither engine fits "
                       "PRS\\(82,77\\)/F_81: the syndrome table q\\^\\(n-k\\) = "
                       "3486784401 exceeds budget 100000000, and the sweep "
                       "refused: divided-difference tables"):
        covering_radius(code)
    generic = from_matrix(field_create(5), [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="^neither engine fits .* needs an "
                       "RS- or PRS-structured code$"):
        covering_radius(generic, enum_budget=4)
    assert covering_radius(generic, enum_budget=5).rho == 1


def test_radius_dispatcher_auto():
    code = prs_code(field_create(5), 4)
    rep = covering_radius(code)
    assert rep.rho == 1 and rep.algorithm == "syndrome-bfs"
    rep = covering_radius(code, enum_budget=10)  # too small: falls to sweep
    assert rep.rho == 1 and rep.algorithm == "rep-sweep"


# 'auto' picks by redundancy n-k (see `covering_radius`): the sweep for
# RS/PRS codes with n-k >= 5, the BFS below.  Times are BFS / sweep, one
# cold `covering_radius_syndrome` or `covering_radius_sweep` call in a
# fresh process, median of 3, on a 2-core host; the faster engine is not
# always the one picked (RS(13,9)/F_13)
@pytest.mark.parametrize("make,q,k,algorithm,rho", [
    (prs_code, 11, 5, "rep-sweep", 6),      # 0.96 s / 5 ms
    (rs_code, 53, 51, "syndrome-bfs", 2),   # 2 ms / 3 ms
    (rs_code, 41, 38, "syndrome-bfs", 3),   # 41^3 cosets: 3 ms / 11 ms
    (prs_code, 67, 65, "syndrome-bfs", 2),  # 67^3 cosets: 1 ms / 33 ms
    (rs_code, 13, 9, "syndrome-bfs", 4),    # n-k = 4: 4 ms / 2 ms
    (rs_code, 13, 8, "rep-sweep", 5),       # n-k = 5: 6 ms / 4 ms
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


def subset_bfs(code):
    """The per-subset enumeration the syndrome BFS replaced, kept as its
    reference: every support S of weight w, in combinations order, with all
    (q-1)^w value vectors, one digit product a support; the first word to
    mark a syndrome is its witness.  (rho, level_counts, deep syndromes,
    witness words)."""
    ctx = code.ctx
    n, q, a, p = code.n, ctx.q, ctx.a, ctx.p
    m = n - code.k
    size = q**m
    table = np.full(size, 255, dtype=np.uint8)
    witness = np.zeros((size, n), dtype=np.min_scalar_type(q - 1))
    enc_w = np.float64(p) ** np.arange(m * a)
    HTd = code.HTd.reshape(n, a, m * a)
    table[0] = 0
    remaining, counts, w = size - 1, [1], 0
    while remaining > 0:
        w += 1
        marked = 0
        nvals = (q - 1) ** w
        vals = _linops.mixed_radix(np.arange(nvals), q - 1, w) + 1
        vd = ctx.digit_table()[vals].reshape(nvals, w * a)
        for S in itertools.combinations(range(n), w):
            hd = HTd[list(S)].reshape(w * a, m * a)
            enc = (_linops.digit_matmul(vd, hd, p) @ enc_w).astype(np.int64)
            unseen = table[enc] == 255
            if unseen.any():
                uniq, first = np.unique(enc[unseen], return_index=True)
                table[uniq] = w
                witness[uniq[:, None], list(S)] = vals[unseen][first]
                marked += len(uniq)
                if marked >= remaining:
                    break
        counts.append(marked)
        remaining -= marked
    deep = np.flatnonzero(table == w)
    return w, counts, deep, witness[deep]


def syndrome_indices(code, words):
    """Table indices of the words' syndromes: base-p digits, low first."""
    ctx = code.ctx
    wd = ctx.digit_table()[np.asarray(words, dtype=np.int64)]
    sd = _linops.digit_matmul(wd.reshape(len(wd), -1), code.HTd, ctx.p)
    return sd.astype(np.int64) @ ctx.p ** np.arange(sd.shape[1],
                                                    dtype=np.int64)


def pull_levels(counts):
    """The levels the BFS pulls: fewer syndromes left than the frontier."""
    left = sum(counts) - 1
    out = []
    for w in range(1, len(counts)):
        if left < counts[w - 1]:
            out.append(w)
        left -= counts[w]
    return out


def cube_word(q):
    """The values of x^3 on F_q, in element order."""
    ctx = field_for_size(q)
    return tuple(ctx.pow(x, 3) for x in ctx.elements())


F = field_for_size
BFS_CODES = {
    **{f"rs-{q}-{k}": lambda q=q, k=k: rs_code(F(q), k)
       for q in (5, 7) for k in range(1, q)},
    **{f"prs-{q}-{k}": lambda q=q, k=k: prs_code(F(q), k)
       for q in (5, 7) for k in range(1, q + 1)},
    **{f"prs-9-{k}": lambda k=k: prs_code(F(9), k) for k in (4, 5, 6)},
    "glynn-9": lambda: glynn_code(F(9)),
    # n-k = 3, groups of one whole coordinate: a = 2, digit groups
    # (2, 2, 2); a = 3, (3, 3, 3)
    "prs-25-23": lambda: prs_code(F(25), 23),
    "rs-27-24": lambda: rs_code(F(27), 24),
    "rs-9-4": lambda: rs_code(F(9), 4),  # pulls on levels 4 and 5
    # not MDS: d = 4 < n - k + 1
    "generic-7": lambda: from_matrix(F(7), [[1, 0, 0, 1, 2, 3, 4, 0],
                                            [0, 1, 0, 1, 1, 5, 6, 2],
                                            [0, 0, 1, 3, 4, 4, 1, 1]]),
    # RS(7,3)/F_7 and x^3, a word at distance 4 from it
    "extended-rs-7-3": lambda: extend_code(rs_code(F(7), 3), cube_word(7)),
    "k-equals-n": lambda: from_matrix(F(5), [[1, 0, 0], [0, 1, 0],
                                             [0, 0, 1]]),
    # e_0 ... e_4 in the code: H = (0, 0, 0, 0, 0, h, -h).  n-k = 1, so
    # no search: each witness sits at column 5, the first nonzero entry of
    # H, past the five zero columns
    "zero-columns-7": lambda: from_matrix(
        F(7), [[int(i == j) for i in range(7)] for j in range(5)]
        + [[0, 0, 0, 0, 0, 1, 1]]),
}


def test_bfs_reference_codes_cover_their_cases():
    assert pull_levels(subset_bfs(BFS_CODES["rs-9-4"]())[1]) == [4, 5]
    assert subset_bfs(BFS_CODES["k-equals-n"]())[:2] == (0, [1])
    generic = BFS_CODES["generic-7"]()
    extended = BFS_CODES["extended-rs-7-3"]()
    assert min_distance(generic) < generic.n - generic.k + 1
    assert (extended.n, extended.k) == (8, 4)
    zeros = BFS_CODES["zero-columns-7"]().HTd.ravel().tolist()
    assert zeros in ([0] * 5 + [6, 1], [0] * 5 + [1, 6])


def check_bfs(code):
    """`syndrome_bfs` against `subset_bfs`: the same radius and level
    counts; the witnesses have weight rho and their syndromes, sorted, are
    the deep syndromes; a second run gives the same witnesses, and a
    radius-only run none."""
    rho, counts, deep, _ = subset_bfs(code)
    out = _sweeps.syndrome_bfs(code, 10**8, want_witness=True)
    assert (out.rho, out.level_counts) == (rho, counts)
    assert ((out.witnesses != 0).sum(axis=1) == rho).all()
    assert np.array_equal(np.sort(syndrome_indices(code, out.witnesses)),
                          deep)
    assert _sweeps.syndrome_bfs(code, 10**8).witnesses is None
    again = _sweeps.syndrome_bfs(code, 10**8, want_witness=True)
    assert np.array_equal(again.witnesses, out.witnesses)


@pytest.mark.parametrize("name", list(BFS_CODES))
def test_bfs_matches_subset_enumeration(name):
    check_bfs(BFS_CODES[name]())


@pytest.mark.parametrize("name", ["rs-9-4", "prs-5-1", "prs-7-3",
                                  "generic-7", "rs-27-24", "prs-25-23"])
def test_bfs_in_small_blocks_matches_subset_enumeration(monkeypatch, name):
    # CHUNK = 64: blocks merged from many slices, pulls that drop found
    # syndromes across many batches, pushes recounted many times a level;
    # prs-25-23 (n-k = 3, groups of one coordinate) has blocks that join
    # the representative spans [25, 50) and [625, 1250)
    monkeypatch.setattr(_sweeps, "CHUNK", 64)
    check_bfs(BFS_CODES[name]())


@pytest.mark.parametrize("name", ["prs-9-4", "prs-25-23"])
def test_bfs_deep_syndromes_and_witnesses_scale_by_f_q_star(name):
    # every level is a union of F_q^* orbits: c times a deep syndrome is
    # deep, and its witness is c times the witness of the syndrome
    code = BFS_CODES[name]()
    ctx = code.ctx
    out = _sweeps.syndrome_bfs(code, 10**8, want_witness=True)
    mul = np.array([[ctx.mul(x, y) for y in range(ctx.q)]
                    for x in range(ctx.q)])
    deep = syndrome_indices(code, out.witnesses).tolist()
    row = {s: i for i, s in enumerate(deep)}
    for c in range(1, ctx.q):
        scaled = mul[c][out.witnesses]
        syn = syndrome_indices(code, scaled).tolist()
        assert sorted(syn) == sorted(deep)
        assert np.array_equal(out.witnesses[[row[s] for s in syn]], scaled)


def test_bfs_steps_over_orbit_representatives():
    # PRS(10,4)/F_9: the search over all 9^6 syndromes took 5,225,484 steps
    out = _sweeps.syndrome_bfs(BFS_CODES["prs-9-4"](), 10**8)
    assert out.level_counts == [1, 80, 2880, 61440, 449040, 18000]
    assert out.words_examined < 1_000_000


def test_bfs_one_redundant_digit_over_a_large_prime():
    # n-k = 1 is answered in closed form: no add or product table and no
    # move is made (a p^2 add table would be 10^8 entries over F_10007,
    # and the 30018 moves are not needed)
    code = rs_code(field_create(10007), 2, evalset=[1, 2, 3])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = covering_radius(code)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (rep.algorithm, rep.rho, rep.level_counts) == (
        "syndrome-bfs", 1, [1, 10006])
    assert rep.words_examined <= 10007
    assert peak < 4 * 2**20


def test_bfs_one_redundant_coordinate_over_an_extension_field():
    # n-k = 1 over F_3^8, in closed form: no digit-group table is made
    # (a group of one whole coordinate would need a q^2 = 43M add table)
    # and no (q, q) product table
    code = rs_code(field_create(3, 8), 2, evalset=[1, 2, 3])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = covering_radius(code)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (rep.algorithm, rep.rho, rep.level_counts) == (
        "syndrome-bfs", 1, [1, 6560])
    assert peak < 4 * 2**20
    out = _sweeps.syndrome_bfs(code, 10**8, want_witness=True)
    assert ((out.witnesses != 0).sum(axis=1) == 1).all()
    assert syndrome_indices(code, out.witnesses).tolist() == list(
        range(1, 6561))


def test_bfs_radius_lists_nothing():
    # RS(4,2)/F_3^8: a radius reads only the levels, so none of the
    # 43,020,480 deep syndromes is listed or sorted (a listing of them
    # would take over 1 GiB); the add and scalar tables are 86 MB each
    code = rs_code(field_create(3, 8), 2, evalset=[1, 2, 3, 4])
    tracemalloc.start()
    try:
        out = _sweeps.syndrome_bfs(code, 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.rho, out.level_counts) == (2, [1, 26240, 43020480])
    assert out.witnesses is None
    assert peak < 300 * 2**20


def test_bfs_listing_over_the_candidate_cap_raises():
    # RS(4,2)/F_3^8 has 43M deep cosets: the listing is refused before any
    # witness row is made, as the sweep refuses one
    code = rs_code(field_create(3, 8), 2, evalset=[1, 2, 3, 4])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"more than "
                           f"{_sweeps.DEEP_CANDIDATE_CAP} deep-hole candidates"):
            deep_holes(code, algo="syndrome")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 2**20


@pytest.mark.parametrize("name,deep", [("prs-9-4", 18000), ("prs-5-5", 4),
                                       ("k-equals-n", 1)])
def test_bfs_listing_cap_counts_the_deep_cosets(monkeypatch, name, deep):
    # the search and the closed form check the last level count, the
    # listing's rows, against the cap; a radius is not capped
    code = BFS_CODES[name]()
    monkeypatch.setattr(_sweeps, "DEEP_CANDIDATE_CAP", deep)
    assert len(_sweeps.syndrome_bfs(code, 10**8, True).witnesses) == deep
    monkeypatch.setattr(_sweeps, "DEEP_CANDIDATE_CAP", deep - 1)
    with pytest.raises(ValueError, match=f"more than {deep - 1} "):
        _sweeps.syndrome_bfs(code, 10**8, want_witness=True)
    with pytest.raises(ValueError, match=f"more than {deep - 1} "):
        deep_holes(code, algo="syndrome")
    assert _sweeps.syndrome_bfs(code, 10**8).level_counts[-1] == deep


def test_scalar_tables_of_f_3_8_are_read_off_the_exp_log_tables():
    # the (q, q) products of F_3^8 go into uint16 a chunk of rows at a
    # time (86 MB); a digit-einsum build in int64 peaked at 657 MiB
    ctx = field_create(3, 8)
    q = ctx.q
    tracemalloc.start()
    try:
        inv, lead, mul = _sweeps._scalar_tables(ctx, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * 2**20
    assert mul.dtype == np.uint16
    assert inv[0] == 0 and inv[1:].tolist() == [ctx.inv(e) for e in range(1, q)]
    assert np.array_equal(lead, inv)  # one coordinate leads itself
    table = mul.reshape(q, q)
    for c in np.random.default_rng(q).choice(q, 6, replace=False).tolist():
        assert table[c].tolist() == [ctx.mul(c, x) for x in range(q)]


@pytest.mark.parametrize("make", [
    BFS_CODES["zero-columns-7"], BFS_CODES["prs-5-5"], BFS_CODES["prs-7-7"],
    BFS_CODES["rs-7-6"],
    lambda: rs_code(field_create(3, 8), 2, evalset=[1, 2, 3]),
], ids=["zero-columns-7", "prs-5-5", "prs-7-7", "rs-7-6", "rs-D3-2-3^8"])
def test_bfs_one_redundant_coordinate_in_closed_form(make):
    # n-k = 1 takes no step: syndrome s has witness s/h_j * e_j, j the
    # first nonzero entry of H's one row
    code = make()
    ctx, h = code.ctx, code.H[0]
    out = _sweeps.syndrome_bfs(code, 10**8, want_witness=True)
    assert (out.rho, out.level_counts, out.words_examined) == (
        1, [1, ctx.q - 1], 0)
    assert syndrome_indices(code, out.witnesses).tolist() == list(
        range(1, ctx.q))
    j = next(j for j, x in enumerate(h) if x)
    expected = np.zeros((ctx.q - 1, code.n), dtype=np.int64)
    expected[:, j] = [ctx.mul(s, ctx.inv(h[j])) for s in range(1, ctx.q)]
    assert np.array_equal(out.witnesses, expected)


def test_bfs_level_table_holds_the_orbit_representatives():
    # PRS(12,5)/F_11: the level table covers the 2*11^6 indices below the
    # top representative range (3.5 MB), not all 11^7 syndromes (19.5 MB)
    code = prs_code(field_for_size(11), 5)
    tracemalloc.start()
    try:
        out = _sweeps.syndrome_bfs(code, 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.level_counts == [1, 120, 6600, 220000, 4777850, 14451800,
                                30800]
    assert peak < 20 * 2**20


@pytest.mark.parametrize("make,q,k,counts", [
    (rs_code, 257, 255, [1, 65792, 256]),
    (prs_code, 17, 15, [1, 288, 4624]),
])
def test_bfs_memory_stays_bounded(make, q, k, counts):
    # for RS(257,255) the dense (n(q-1), n) weight-1 word matrix alone would
    # be 135 MB; the BFS keeps the table, the moves and O(CHUNK)
    code = make(field_for_size(q), k)
    tracemalloc.start()
    try:
        out = _sweeps.syndrome_bfs(code, 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.rho, out.level_counts) == (len(counts) - 1, counts)
    assert peak < 16 * 2**20


@pytest.mark.parametrize("q,k", [(11, 7), (13, 10)])
def test_syndrome_deep_holes_are_the_subset_enumerations_cosets(q, k):
    code = prs_code(field_for_size(q), k)
    words = [r.word for r in deep_holes(code, algo="syndrome").reps]
    ref = subset_bfs(code)[3]
    assert (set(reduce_to_coset_reps(code, words))
            == set(reduce_to_coset_reps(code, ref)))


def test_syndrome_radius_reports_bfs_statistics():
    rep = covering_radius_syndrome(prs_code(field_create(5), 2))
    data = rep.to_json()
    assert data["level_counts"] == [1, 24, 240, 360]
    assert data["words_examined"] == rep.words_examined > 0
    assert data["notes"] == []
    sweep = covering_radius_sweep(prs_code(field_create(5), 2)).to_json()
    assert sweep["level_counts"] is None and sweep["words_examined"] is None


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


@pytest.mark.parametrize("q", [5, 9, 11, 13, 27])
def test_inverse_evaluation_matrix_is_the_gauss_jordan_inverse(q, monkeypatch):
    # V^-1 of eval_operators is the Lagrange basis of D; the oracle is one
    # Gauss-Jordan of [Vd | I], and the scalar reference poly.lagrange_basis
    ctx = field_for_size(q)
    N0 = len(ctx.elements())
    for D in (ctx.elements(), ctx.elements()[2::3], ctx.elements()[N0 - 4:]):
        monkeypatch.setattr(_sweeps, "_EVAL_OPS_CACHE", {})
        Vd, Vinvd = _sweeps.eval_operators(ctx, D)
        N = len(D) * ctx.a
        red, rank = _linops.subset_reduce(
            np.hstack([Vd, np.eye(N, dtype=np.int64)]), np.arange(N)[None],
            ctx.p)
        assert rank[0] == N and Vinvd.dtype == np.int64
        assert Vinvd.flags.c_contiguous and not Vinvd.flags.writeable
        assert np.array_equal(Vinvd, red[0, :, N:])
        assert np.array_equal(Vinvd, _linops.digit_expand(
            ctx, lagrange_basis(ctx, D)))


# ----------------------------------------------------------------------
# deep holes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("code,count,scanned,variant", [
    # PRS(6,2)/F_5 lists its 5^3 tails from the 1 + 1 + 1 + 5 = 8 sliced
    # tails it scans
    (prs_code(field_create(5), 2), 360, 8, "degree-sliced"),
    # a partial evaluation set scans the monic tails: RS(D[4],1)/F_5 lists
    # its 5^3 tails from 1 + 1 + 5 + 25 = 32
    (rs_code(field_create(5), 1, (1, 2, 3, 4)), 24, 32, "monic"),
], ids=["prs-sliced", "rs-partial-monic"])
def test_listing_budget_counts_the_tails_it_scans(code, count, scanned,
                                                  variant):
    # a budget of the scanned count lists them all, one less refuses
    full, report = deep_holes(code), deep_holes(code, enum_budget=scanned)
    assert report.count == full.count == count
    assert np.array_equal(report.rows, full.rows)
    assert (report.v is full.v is None) or np.array_equal(report.v, full.v)
    with pytest.raises(ValueError, match=f"^{scanned} {variant} tail cosets "
                       f"exceed budget {scanned - 1}$"):
        deep_holes(code, enum_budget=scanned - 1)


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


@pytest.mark.parametrize("q", [5, 7])
def test_no_degree_k_family_when_k_is_the_length_of_d(q):
    # PRS(q+1,q): x^q = x on F_q, so no tail c*x^q exists; each pair
    # (c*x^q, v) is the coset ((), v), a listed deep hole for v != 0 and
    # the code for v = 0, and the family fields stay unset
    report = deep_holes(prs_code(field_create(q), q))
    assert (report.rho, report.count) == (1, q - 1)
    assert report.reps == [CosetRep((), v) for v in range(1, q)]
    assert report.family_size is None
    assert report.matches_degree_k_family is None
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
    assert _sweeps._tail_tuples(out.candidates) == [(0, 0, 1)]


@pytest.mark.parametrize("k,cap,rows", [
    (2, 103, 104),  # 6 deep sliced tails expand to 26 deep monic tails
                    # and 104 deep tails
    (2, 2, 25),     # the kernel stops at 2 sliced tails, x^2 and x^3: 1 + 5
                    # translates, times 4 scalars, plus 1 as it dropped some
    (4, 1, 2),      # it stops at the zero tail, which does not expand
])
def test_sweep_listing_over_the_cap_is_refused_by_listed(monkeypatch, k, cap,
                                                         rows):
    # the BFS's refusal, with its message, on the expanded row count and
    # before any row is translated or scaled (no ctx.mul or digit product
    # once the scan is done)
    code = prs_code(field_create(5), k)
    run_sweep = _sweeps.run_sweep

    def sweep_then_forbid_mul(*args, **kw):
        out = run_sweep(*args, **kw)
        monkeypatch.setattr(type(code.ctx), "mul", None)
        monkeypatch.setattr(_linops, "digit_matmul", None)
        return out

    monkeypatch.setattr(_sweeps, "run_sweep", sweep_then_forbid_mul)
    monkeypatch.setattr(_sweeps, "DEEP_CANDIDATE_CAP", cap)
    with pytest.raises(ValueError, match=rf"^more than {cap} deep-hole "
                       rf"candidates \(the candidate cap\): {rows} to list$"):
        deep_holes(code)


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
    assert a.reps == b.reps


class RecordingPool:
    """A ProcessPoolExecutor stand-in that records max_workers and maps in
    this process."""
    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_run_sweep_starts_one_worker_a_task_and_none_for_one(monkeypatch):
    ctx, k = field_create(5), 2
    D = ctx.elements()
    plans = _sweeps.full_plans(ctx, len(D), k)
    monkeypatch.setattr(_sweeps, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "started", [])
    serial = _sweeps.run_sweep(ctx, D, k, prs=True, plans=plans, collect=True)
    # 5^3 tails are one task of at least CHUNK tails: no pool
    out = _sweeps.run_sweep(ctx, D, k, prs=True, plans=plans, collect=True,
                            threads=2)
    assert RecordingPool.started == []
    assert listed(out) == listed(serial)
    # CHUNK = 20 cuts the 125 tails into 7 tasks at threads=16 and into 3
    # at threads=3: one worker a task, at most `threads`
    monkeypatch.setattr(_sweeps, "CHUNK", 20)
    for threads, workers in [(16, 7), (3, 3)]:
        out = _sweeps.run_sweep(ctx, D, k, prs=True, plans=plans,
                                collect=True, threads=threads)
        assert RecordingPool.started[-1] == workers
        assert out.max_contrib == serial.max_contrib
        assert listed(out) == listed(serial)
    assert len(RecordingPool.started) == 2


def sort_and_set(code):
    """The deep-hole report fields by sorting and set difference: every
    (tail, v) of the sweep's listing as a CosetRep, sorted, and, where x^k
    is a tail (k < |D|), the degree-k family (c*x^k, v), c != 0, compared
    as sets.  A reference for `deep_holes`."""
    ctx, k = code.ctx, code.structure["k"]
    _, out = dist._sweep(code, True, dist.DEFAULT_ENUM_BUDGET, 1)
    reps = sorted(CosetRep(tail=t, v=v) for t, vs in listed(out) for v in vs)
    if k >= len(code.structure["eval"]):
        return reps, [], [], None
    vals = range(ctx.q) if code.structure["kind"] == "prs" else (None,)
    fs = {CosetRep((0,) * k + (c,), v) for c in range(1, ctx.q) for v in vals}
    rs = set(reps)
    return reps, sorted(rs - fs), sorted(fs - rs), fs == rs


@pytest.mark.parametrize("make,q,k", [
    (rs_code, 5, 2), (rs_code, 7, 1), (rs_code, 9, 4), (rs_code, 9, 8),
    (prs_code, 5, 2), (prs_code, 5, 1), (prs_code, 9, 6), (prs_code, 7, 6),
    (prs_code, 5, 5),  # k = q = |D|: no tail c*x^q, so no family fields
])
def test_deep_hole_report_matches_sort_and_set(make, q, k):
    code = make(field_for_size(q), k)
    reps, extras, missing, matches = sort_and_set(code)
    report = deep_holes(code)
    assert report.reps == reps
    assert report.extras == extras
    assert report.missing_family == missing
    assert report.matches_degree_k_family == matches
    assert report.count == len(reps)


@pytest.mark.parametrize("q,m", [
    (3, 100),          # 39 columns a word: three words
    (2**31 - 1, 5),    # 2 columns a word: three words
    (11, 5),           # one word
    (5, 0),            # no column: one zero word, the rows' own order
])
def test_row_order_is_the_lexsort_of_the_columns(q, m):
    # few distinct values, so rows tie on long prefixes and every word of
    # the packed key decides some pairs
    rng = np.random.default_rng(m)
    rows = rng.choice([0, 1, q - 1], size=(600, m)).astype(np.int64)
    rows[::2, :m // 2] = 0
    assert np.array_equal(dist._row_order(rows, q),
                          np.lexsort(rows.T[::-1]) if m else np.arange(600))


def test_syndrome_deep_holes_are_sorted_words():
    report = deep_holes(prs_code(field_create(5), 3), algo="syndrome")
    assert report.reps == sorted(report.reps)
    assert len(set(report.reps)) == report.count == 100


@pytest.mark.parametrize("code, algo", [
    (prs_code(field_create(5), 2), "sweep"),   # extras, zero tail
    (prs_code(field_create(5), 4), "sweep"),   # deep zero tails
    (prs_code(field_create(5), 5), "sweep"),   # no family
    (rs_code(field_create(7), 3), "sweep"),    # no v
    (prs_code(field_create(5), 3), "syndrome"),
    (glynn_code(field_for_size(9)), "syndrome"),
])
def test_report_json_and_words_are_those_of_its_reps(code, algo):
    """The report formats its JSON and representative words from its
    arrays; the per-rep `CosetRep.to_json` and `representative_word` are the
    reference."""
    report = deep_holes(code, algo=algo)
    data = report.to_json()
    assert data["deep_holes"] == [r.to_json() for r in report.reps]
    assert data["extras"] == [r.to_json() for r in report.extras[:200]]
    assert data["extra_count"] == len(report.extras)
    words = report.words(code)
    assert words.shape == (report.count, code.n)
    assert [tuple(w) for w in words.tolist()] == [
        r.representative_word(code) for r in report.reps]


def test_reporting_builds_no_coset_reps(monkeypatch, capsys):
    """JSON, words and `verify conj3` read the report's arrays; `reps_at`
    builds the reps of the deep holes it is given and no others."""
    from covrad import cli, verify
    built = []

    def counted(*args, **kw):
        built.append(args)
        return CosetRep(*args, **kw)

    monkeypatch.setattr(dist, "CosetRep", counted)
    code = prs_code(field_create(5), 2)
    report = deep_holes(code)
    report.to_json()
    report.words(code)
    bfs = deep_holes(code, algo="syndrome")
    bfs.to_json()
    assert not built
    assert not {"reps", "extras", "missing_family"} & (vars(report).keys()
                                                        | vars(bfs).keys())

    reports = []

    def listing(*args, **kw):
        reports.append(deep_holes(*args, **kw))
        return reports[-1]

    monkeypatch.setattr(verify, "deep_holes", listing)
    assert cli.main(["verify", "conj3", "--q", "5"]) == 1
    capsys.readouterr()
    assert len(reports) == 2 and not built
    assert not any({"reps", "extras"} & vars(r).keys() for r in reports)

    sample = report.extra[::50]
    reps = report.reps_at(sample)
    assert len(built) == len(sample) == 7
    assert "reps" not in vars(report)
    assert reps == [deep_holes(code).reps[i] for i in sample.tolist()]


def listing_code(kind, q, k, m=None):
    """PRS(q+1,k), or RS(m,k) on the first m elements of F_q (all of F_q
    when m is None)."""
    ctx = field_for_size(q)
    if kind == "prs":
        return prs_code(ctx, k)
    return rs_code(ctx, k, None if m is None else ctx.elements()[:m])


def sorted_listing(out):
    """A sweep's (coefficient rows, deep_v) in lexicographic row order."""
    order = np.lexsort(out.candidates.T[::-1])
    return out.candidates[order], out.deep_v[order]


# (kind, q, k, |D| for a partial RS evaluation set, threads): every RS and
# PRS code over F_5 and F_7, with k = |D| (PRS k = q: the zero tail only)
# and k = |D| - 1; some over F_9, F_25 and F_27; partial sets, which scan
# the monic tails; and threads=2, where CHUNK = 256 splits the scanned
# tails into several tasks
MONIC_CASES = (
    [("rs", q, k, None, 1) for q in (5, 7) for k in range(1, q)]
    + [("prs", q, k, None, 1) for q in (5, 7) for k in range(1, q + 1)]
    + [("rs", 9, 3, None, 1), ("rs", 9, 8, None, 1), ("prs", 9, 4, None, 1),
       ("prs", 9, 7, None, 1), ("prs", 9, 9, None, 1),
       ("prs", 25, 22, None, 1), ("rs", 27, 24, None, 1),
       ("rs", 11, 4, 8, 1), ("rs", 7, 4, 5, 1), ("rs", 9, 5, 6, 1),
       ("prs", 7, 3, None, 2), ("rs", 7, 2, None, 2), ("prs", 9, 5, None, 2),
       ("rs", 11, 4, 8, 2)])


@pytest.mark.parametrize("kind,q,k,m,threads", MONIC_CASES)
def test_monic_listing_expands_to_the_full_listing(monkeypatch, kind, q, k,
                                                   m, threads):
    code = listing_code(kind, q, k, m)
    ctx, D = code.ctx, tuple(code.structure["eval"])
    full = _sweeps.run_sweep(ctx, D, k, prs=(kind == "prs"), collect=True,
                             plans=_sweeps.full_plans(ctx, len(D), k))
    if threads > 1:
        monkeypatch.setattr(_sweeps, "CHUNK", 256)
    variant, out = dist._sweep(code, True, dist.DEFAULT_ENUM_BUDGET, threads)
    assert not out.truncated
    if m is None:  # the full field: the slices, translated and scaled
        assert variant == "degree-sliced"
        assert out.cosets == sum(plan.count
                                 for plan in _sweeps.sliced_plans(ctx, k))
    else:
        assert variant == "monic"
        assert out.cosets == (q ** (len(D) - k) - 1) // (q - 1) + 1
    assert out.max_contrib == full.max_contrib
    for got, want in zip(sorted_listing(out), sorted_listing(full)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_listing_cap_counts_expanded_rows_and_raises_before_expanding(
        monkeypatch):
    # PRS(12,6)/F_11 has 1464 deep monic tails and 14640 deep tails
    code = prs_code(field_for_size(11), 6)
    run_sweep = _sweeps.run_sweep

    def sweep_then_reset_peak(*args, **kw):  # measure what follows the scan
        out = run_sweep(*args, **kw)
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(_sweeps, "run_sweep", sweep_then_reset_peak)
    tracemalloc.start()
    try:
        monkeypatch.setattr(_sweeps, "DEEP_CANDIDATE_CAP", 14639)
        with pytest.raises(ValueError, match="more than 14639 "):
            deep_holes(code)
        peak = tracemalloc.get_traced_memory()[1]
        monkeypatch.setattr(_sweeps, "DEEP_CANDIDATE_CAP", 14640)
        _, out = dist._sweep(code, True, dist.DEFAULT_ENUM_BUDGET, 1)
        expand_peak = tracemalloc.get_traced_memory()[1]
        assert len(out.candidates) == 14640 and not out.truncated
    finally:
        tracemalloc.stop()
    assert expand_peak > 1 << 20 > peak


def test_listing_cap_raises_before_translating(monkeypatch):
    # PRS(12,6)/F_11 scans 134 deep sliced tails: x^6, and 133 that
    # translate to the 1463 deep monic tails of degree 7 to 10; the 1464
    # monic tails scale to 14640 deep tails.  An over-cap listing is
    # refused with less traced memory after the scan than the translated
    # rows would hold, and without translating.
    code = prs_code(field_for_size(11), 6)
    run_sweep, translations = _sweeps.run_sweep, dist._translations
    calls = []

    def sweep_then_reset_peak(*args, **kw):
        out = run_sweep(*args, **kw)
        tracemalloc.reset_peak()
        return out

    def record(code, rows, deep):
        calls.append(len(rows))
        return translations(code, rows, deep)

    monkeypatch.setattr(_sweeps, "run_sweep", sweep_then_reset_peak)
    monkeypatch.setattr(dist, "_translations", record)
    tracemalloc.start()
    try:
        monkeypatch.setattr(_sweeps, "DEEP_CANDIDATE_CAP", 14639)
        with pytest.raises(ValueError, match="more than 14639 .*: 14640 to"):
            deep_holes(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    monkeypatch.setattr(_sweeps, "DEEP_CANDIDATE_CAP", 14640)
    _, out = dist._sweep(code, True, dist.DEFAULT_ENUM_BUDGET, 1)
    assert calls == [133] and out.cosets == 1466
    assert len(out.candidates) == 14640
    assert peak < 1463 * 11 * 8  # the translated coefficient rows


@pytest.mark.parametrize("q", [5, 7, 9, 25, 27])
def test_translations_biject_slices_onto_monic_tails(q):
    # x -> x - b takes a slice of degree d >= k+1, p not dividing d, onto
    # the monic tails of degree d: its q^(d-k-1) tails, each with x^(d-1)
    # coefficient 0, have q^(d-k) distinct translates, the x^(d-1)
    # coefficient -d*b telling b apart.  Every other slice is whole.  A
    # slice of at most 64 tails is translated whole and checked equal to
    # the monic tails of its degree, a larger one by 64 random tails.
    ctx, rng = field_for_size(q), np.random.default_rng(q)
    for k in range(1, q):
        code = prs_code(ctx, k)
        for plan in _sweeps.sliced_plans(ctx, k)[1:]:
            (d,) = plan.fixed
            free = list(plan.free_degrees)
            grows = d > k and d % ctx.p != 0
            assert free == list(range(k, d - grows))
            if not grows:
                continue
            if plan.count <= 64:
                lows = _linops.mixed_radix(np.arange(plan.count), q, len(free))
            else:
                lows = np.unique(rng.integers(0, q, (64, len(free))), axis=0)
            take = len(lows)
            rows = np.zeros((take, q), dtype=np.int64)
            rows[:, free], rows[:, d] = lows, 1
            deep = np.ones((take, q), dtype=bool)
            moved, masks = dist._translations(code, rows, deep)
            assert moved.shape == (take * q, q) and masks.all()
            assert len(np.unique(moved, axis=0)) == take * q
            assert (_sweeps.tail_lengths(moved) == d + 1).all()
            assert not moved[:, :k].any() and (moved[:, d] == 1).all()
            lead = moved[:, d - 1].reshape(take, q)
            assert (np.sort(lead, axis=1) == np.arange(q)).all()
            if plan.count == take:
                monic = np.zeros((q ** (d - k), q), dtype=np.int64)
                monic[:, k:d] = _linops.mixed_radix(np.arange(len(monic)),
                                                    q, d - k)
                monic[:, d] = 1
                assert np.array_equal(np.unique(moved, axis=0),
                                      np.unique(monic, axis=0))


@pytest.mark.parametrize("q", [5, 7, 9])
def test_listing_translates_only_the_partial_slices(monkeypatch, q):
    # of a sliced scan's deep rows, exactly those of degree d >= k+1 with p
    # not dividing d are translated
    ctx = field_for_size(q)
    translations, seen = dist._translations, []

    def record(code, rows, deep):
        seen.append(rows)
        return translations(code, rows, deep)

    monkeypatch.setattr(dist, "_translations", record)
    for k in range(1, q):
        code = rs_code(ctx, k)
        seen.clear()
        dist._sweep(code, True, dist.DEFAULT_ENUM_BUDGET, 1)
        scan = _sweeps.run_sweep(ctx, ctx.elements(), k, prs=False,
                                 plans=_sweeps.sliced_plans(ctx, k),
                                 collect=True).candidates
        d = _sweeps.tail_lengths(scan) - 1
        want = scan[(d > k) & (d % ctx.p != 0)]
        got = np.concatenate(seen) if seen else np.zeros((0, q), np.int64)
        assert np.array_equal(got, want)


class TaskRecordingPool(RecordingPool):
    """`RecordingPool` that also records the tasks it maps."""
    tasks: list = []

    def map(self, fn, tasks):
        self.tasks.append(list(tasks))
        return map(fn, self.tasks[-1])


def test_listing_tasks_pack_small_plans(monkeypatch):
    monkeypatch.setattr(_sweeps, "ProcessPoolExecutor", TaskRecordingPool)
    monkeypatch.setattr(TaskRecordingPool, "started", [])
    monkeypatch.setattr(TaskRecordingPool, "tasks", [])
    # the 1466 sliced tails of PRS(12,6)/F_11 fit one task: no pool
    _, out = dist._sweep(prs_code(field_for_size(11), 6), True,
                         dist.DEFAULT_ENUM_BUDGET, 2)
    assert out.cosets == 1466 and TaskRecordingPool.started == []
    # CHUNK = 8: the monic plans of RS(D[4],1)/F_5 hold 1, 1, 5 and 25
    # tails; the first three share a task and the last splits in max(8, 25
    # / threads) tails, so 32 > 2 * CHUNK tails make 3 tasks at threads=2
    # and 5 at threads=16, one worker a task up to `threads`
    code = rs_code(field_create(5), 1, (1, 2, 3, 4))
    serial = deep_holes(code)
    monkeypatch.setattr(_sweeps, "CHUNK", 8)
    for threads, sizes, workers in [(2, [7, 13, 12], 2),
                                    (16, [7, 8, 8, 8, 1], 5)]:
        report = deep_holes(code, threads=threads)
        tasks = TaskRecordingPool.tasks[-1]
        assert [sum(e - s for *_, s, e in t[6]) for t in tasks] == sizes
        assert len(tasks[0][6]) == 3
        assert TaskRecordingPool.started[-1] == workers
        assert report.reps == serial.reps and report.rho == serial.rho
    assert len(TaskRecordingPool.started) == 2


@dataclasses.dataclass(frozen=True, order=True)
class DataclassRep:
    """The frozen dataclass `CosetRep` was, as the reference for its
    semantics."""
    tail: tuple = ()
    v: int | None = None
    word: tuple | None = None


def test_coset_rep_keeps_the_dataclass_semantics():
    groups = [
        [CosetRep((0, 0, 3), 2), CosetRep((0, 0, 1), 4),
         CosetRep((0, 0, 1), 0), CosetRep((), 1), CosetRep((0, 0, 0, 1), 0)],
        [CosetRep((0, 0, 2)), CosetRep(()), CosetRep((0, 0, 1, 4))],
        [CosetRep(word=(0, 1, 0)), CosetRep(word=(0, 0, 2)),
         CosetRep(word=(1, 0, 0))],
    ]
    for reps in groups:
        refs = [DataclassRep(*r) for r in reps]
        assert [DataclassRep(*r) for r in sorted(reps)] == sorted(refs)
        for r, ref in zip(reps, refs):
            assert hash(r) == hash(ref)
            assert repr(r) == repr(ref).replace("DataclassRep", "CosetRep")
            back = pickle.loads(pickle.dumps(r))
            assert type(back) is CosetRep and back == r
            assert CosetRep(tail=r.tail, v=r.v, word=r.word) == r
        assert len(set(reps + reps)) == len(reps)
    assert CosetRep() == CosetRep((), None, None)
    assert CosetRep((0, 0, 3), 2).to_json() == {"tail": "0,0,3", "v": 2}
    assert CosetRep(()).to_json() == {"tail": "0"}
    assert CosetRep(word=(1, 0, 2)).to_json() == {"word": "1,0,2"}
    code = prs_code(field_create(5), 2)
    rep = CosetRep((0, 0, 3, 1), 2)
    word = rep.representative_word(code)
    assert len(word) == 6 and reduce_to_coset_rep(code, word) == rep
    assert CosetRep(word=word).representative_word(code) == word


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
