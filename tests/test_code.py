import itertools
import random
import tracemalloc

import numpy as np
import pytest

from covrad import _linops, _sweeps
from covrad.code import (LinearCode, _glynn_rows, check_words, codes_equal,
                         export_code_spec, extend_code, from_matrix,
                         glynn_code, is_mds, min_distance, parse_code_spec,
                         prs_code, rs_code)
from covrad.dist import reduce_to_coset_rep, reduce_to_coset_reps
from covrad.gf import TABLE_LIMIT, field_create, field_for_size
from covrad.poly import Poly, evaluate_word, weight


def brute_min_distance(code):
    return min(weight(c) for c in code.codewords() if any(c))


def test_rs52_parameters():
    code = rs_code(field_create(5), 2)
    assert (code.n, code.k) == (5, 2)
    assert min_distance(code) == 4
    assert is_mds(code)


def test_rs54_singleton_equality():
    code = rs_code(field_create(5), 4)
    assert min_distance(code) == 2
    assert is_mds(code)


def test_rs_partial_evalset_repetition():
    code = rs_code(field_create(5), 1, evalset=(1, 2, 3))
    assert (code.n, code.k) == (3, 1)
    assert sorted(set(code.codewords())) == sorted(
        {(c, c, c) for c in range(5)})


def test_rs_bad_dimension():
    ctx = field_create(5)
    with pytest.raises(ValueError):
        rs_code(ctx, 0)
    with pytest.raises(ValueError):
        rs_code(ctx, 5)
    with pytest.raises(ValueError):
        rs_code(ctx, 1, evalset=(1, 1, 2))


def test_prs64_matches_published_matrix():
    code = prs_code(field_create(5), 4)
    assert code.G == (
        (1, 1, 1, 1, 1, 0),
        (1, 2, 3, 4, 0, 0),
        (1, 4, 4, 1, 0, 0),
        (1, 3, 2, 4, 0, 1),
    )
    assert min_distance(code) == 3


def test_prs_k1_is_repetition():
    code = prs_code(field_create(5), 1)
    assert set(code.codewords()) == {(c,) * 6 for c in range(5)}


def test_prs_bad_dimension():
    with pytest.raises(ValueError):
        prs_code(field_create(5), 0)
    with pytest.raises(ValueError):
        prs_code(field_create(5), 6)


def test_prs73_min_distance_brute():
    # d = q+2-k = 6 (also the Singleton ceiling n-k+1), by both routes
    code = prs_code(field_create(7), 3)
    assert (code.n, code.k) == (8, 3)
    assert min_distance(code) == brute_min_distance(code) == 6


@pytest.mark.parametrize("q", [5, 7, 9])
def test_prs_mds_all_k(q):
    ctx = field_for_size(q)
    for k in range(1, q + 1):
        code = prs_code(ctx, k)
        assert is_mds(code), (q, k)
        if q**k <= 10**6:  # exhaustive cross-check where cheap
            assert min_distance(code) == q + 2 - k


def _pow_generator(ctx, D, k, prs):
    """Reference evaluation matrix, one ctx.pow per entry: rows x^i over D,
    plus the column e_(k-1) for PRS."""
    return tuple(tuple(ctx.pow(x, i) for x in D)
                 + ((int(i == k - 1),) if prs else ()) for i in range(k))


@pytest.mark.parametrize("q", [5, 9, 27, 6561])
def test_generators_match_pow_reference(q):
    # F_3^8 is above TABLE_LIMIT (products of residue polynomials); its
    # full-field codes are too long to build, so it checks partial sets only
    ctx = field_for_size(q)
    D = tuple(random.Random(q).sample(range(q), min(q - 1, 12)))
    for k in (1, 2, 3):
        assert rs_code(ctx, k, D).G == _pow_generator(ctx, D, k, False)
        assert (_sweeps._sweep_generator(ctx, D, k)
                == _pow_generator(ctx, D, k, True))
    if q > TABLE_LIMIT:
        return
    full = ctx.elements()
    for k in (1, 2, q // 2, q - 1):
        assert rs_code(ctx, k).G == _pow_generator(ctx, full, k, False)
        assert prs_code(ctx, k + 1).G == _pow_generator(ctx, full, k + 1, True)


def test_glynn_rows_match_pow_reference():
    ctx = field_create(3, 2)
    D = ctx.elements()
    for w in range(9):
        ref = [
            [1] * 9 + [0],
            list(D) + [0],
            [ctx.add(ctx.pow(x, 2), ctx.mul(w, ctx.pow(x, 6))) for x in D] + [0],
            [ctx.pow(x, 3) for x in D] + [0],
            [ctx.pow(x, 4) for x in D] + [1],
        ]
        assert [list(r) for r in _glynn_rows(ctx, w)] == ref, w


@pytest.mark.parametrize("q", [5, 9, 27, 6561])
def test_digit_expand_matches_block_reference(q):
    # row s of block (i, j) is the digit vector of M[i][j] * x^s
    ctx = field_for_size(q)
    p, a = ctx.p, ctx.a
    rng = random.Random(q)
    for _ in range(10):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        M = [[rng.choice((0, rng.randrange(q))) for _ in range(c)]
             for _ in range(r)]
        ref = np.zeros((r * a, c * a), dtype=np.int64)
        for i, j, s in itertools.product(range(r), range(c), range(a)):
            ref[i * a + s, j * a:(j + 1) * a] = ctx.digits(ctx.mul(M[i][j], p**s))
        assert (_linops.digit_expand(ctx, M) == ref).all()


def test_singleton_bound_assorted():
    rng = random.Random(1)
    ctx = field_create(5)
    for _ in range(10):
        rows = [[rng.randrange(5) for _ in range(6)] for _ in range(2)]
        try:
            code = from_matrix(ctx, rows)
        except ValueError:
            continue
        assert min_distance(code) <= code.n - code.k + 1


def test_parity_check_orthogonality():
    rng = random.Random(2)
    ctx = field_create(5)
    built = 0
    while built < 10:
        rows = [[rng.randrange(5) for _ in range(4)] for _ in range(2)]
        try:
            code = from_matrix(ctx, rows)
        except ValueError:
            continue
        built += 1
        assert len(code.H) == code.n - code.k
        for g in code.G:
            assert all(s == 0 for s in code.syndrome(g))


def _mat_rref(ctx, rows):
    """Scalar F_q Gauss-Jordan, kept as the reference for subset_reduce:
    (rref rows, pivot columns)."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    pivots, r = [], 0
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
                m[i] = [ctx.sub(m[i][j], ctx.mul(f, m[r][j]))
                        for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _reference_parity_check(ctx, rows):
    """H by back-permutation of the scalar rref, or the rank error text."""
    red, piv = _mat_rref(ctx, rows)
    if len(piv) != len(rows):
        return "generator matrix is rank-deficient"
    n = len(rows[0])
    h = []
    for fj in (j for j in range(n) if j not in piv):
        row = [0] * n
        row[fj] = 1
        for r, pj in enumerate(piv):
            row[pj] = ctx.neg(red[r][fj])
        h.append(tuple(row))
    return tuple(h)


def _random_generators(q, count, seed):
    rng = random.Random(seed)
    for i in range(count):
        k = rng.randint(1, 5)
        n = rng.randint(k, 8)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if i % 3 == 0 and k > 1:  # rank-deficient: a repeated row
            rows[-1] = list(rows[0])
        yield rows


@pytest.mark.parametrize("q", [5, 9, 27])
def test_digit_rref_matches_scalar_rref(q):
    # the F_p rref of digit_expand(G) is the digit expansion of G's F_q
    # rref, pivots in whole blocks of a; H and the rank error follow
    ctx = field_for_size(q)
    a, deficient = ctx.a, 0
    for rows in _random_generators(q, 60, q):
        ref, piv = _mat_rref(ctx, rows)
        n = len(rows[0])
        red, rank = _linops.subset_reduce(_linops.digit_expand(ctx, rows),
                                          np.arange(n * a)[None], ctx.p)
        r = len(piv)
        assert rank[0] == r * a
        if r:
            assert (red[0, :r * a] == _linops.digit_expand(ctx, ref[:r])).all()
        assert not red[0, r * a:].any()
        lead = (red[0, :r * a:a] != 0).argmax(axis=1)
        assert (lead // a).tolist() == piv and not (lead % a).any()
        expected = _reference_parity_check(ctx, rows)
        if isinstance(expected, str):
            deficient += 1
            with pytest.raises(ValueError, match=f"^{expected}$"):
                from_matrix(ctx, rows)
        else:
            assert from_matrix(ctx, rows).H == expected
    assert deficient >= 10


def test_glynn_parity_check_matches_scalar_rref():
    code = glynn_code(field_create(3, 2))
    assert code.H == _reference_parity_check(code.ctx, code.G)


@pytest.mark.parametrize("q", [9, 27])
def test_syndrome_matches_scalar_sum(q):
    ctx = field_for_size(q)
    rng = random.Random(q)
    for code in (prs_code(ctx, 3), rs_code(ctx, q - 2),
                 from_matrix(ctx, [[1, 0, 2, 5, 7, 3], [0, 1, 3, 8, 1, 4]])):
        for _ in range(40):
            w = [rng.randrange(q) for _ in range(code.n)]
            ref = []
            for h in code.H:
                s = 0
                for wj, hj in zip(w, h):
                    s = ctx.add(s, ctx.mul(wj, hj))
                ref.append(s)
            assert code.syndrome(w) == tuple(ref)
            assert code.contains(w) == (not any(ref))


@pytest.mark.parametrize("call,word", [
    pytest.param(lambda c, w: reduce_to_coset_rep(c, w), (0, 0, 0, 0, 0, 5),
                 id="prs-rep-entry-q"),
    pytest.param(lambda c, w: reduce_to_coset_rep(c, w), (0, 0, 0, 0, 0),
                 id="prs-rep-short"),
    pytest.param(lambda c, w: reduce_to_coset_rep(
        rs_code(c.ctx, 2), w), (0, 0, 0, 0, 0, 1), id="rs-rep-long"),
    pytest.param(lambda c, w: c.contains(w), (5, 0, 0, 0, 0, 0),
                 id="contains-entry-q"),
    pytest.param(lambda c, w: c.syndrome(w), (0, 0, 0, 0, 0, 0, 0),
                 id="syndrome-long"),
    pytest.param(lambda c, w: c.syndrome(w), (0, 0, 0, 0, 0, -1),
                 id="syndrome-negative"),
])
def test_word_check_guards_every_word_entry(call, word):
    with pytest.raises(ValueError, match="word"):
        call(prs_code(field_create(5), 2), word)


def test_word_check_names_each_malformed_batch():
    code = prs_code(field_create(5), 2)
    with pytest.raises(ValueError, match="one flat word of length 6, not a batch"):
        reduce_to_coset_reps(code, (0,) * 6)
    with pytest.raises(ValueError, match="ragged batch"):
        check_words(code, [(0,) * 6, (0,) * 5])
    with pytest.raises(ValueError, match="must be integers, got float64"):
        check_words(code, [(0.5,) * 6])  # not cast to the zero word
    with pytest.raises(ValueError, match=r"shape \(1, 1, 6\), not \(N, 6\)"):
        check_words(code, [[(0,) * 6]])
    w = check_words(code, np.ones((2, 6), dtype=np.uint8))
    assert w.dtype == np.int64 and w.tolist() == [[1] * 6] * 2


def test_extension_field_generator_entries_are_not_reduced_mod_q():
    # 8 encodes 2 + 2x in F_9, not -1 = 2: reducing mod q would build
    # another code, so encodings outside [0, q) are refused
    ctx = field_create(3, 2)
    for row in ([-1, 1, 1], [9, 1, 1]):
        with pytest.raises(ValueError, match=r"encodings in \[0, 9\)"):
            from_matrix(ctx, [row])
    assert from_matrix(ctx, [[8, 1, 1]]).G == ((8, 1, 1),)
    # a prime field's elements are the integers mod p
    assert from_matrix(field_create(5), [[-1, 6, 1]]).G == ((4, 1, 1),)


def test_from_matrix_rank_deficient():
    ctx = field_create(5)
    with pytest.raises(ValueError, match="rank"):
        from_matrix(ctx, [[1, 2, 3], [2, 4, 6]])


def test_from_matrix_identity_padded():
    ctx = field_create(5)
    code = from_matrix(ctx, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert min_distance(code) == 1
    assert not is_mds(code)


def test_from_matrix_same_rowspace_equals_prs():
    ctx = field_create(5)
    prs = prs_code(ctx, 4)
    # re-enter rows manually, in a mixed order with row operations applied
    rows = [list(prs.G[1]), list(prs.G[0]), list(prs.G[2]), list(prs.G[3])]
    rows[0] = [ctx.add(a, b) for a, b in zip(rows[0], rows[1])]
    code = from_matrix(ctx, rows)
    assert codes_equal(code, prs)
    assert not codes_equal(code, prs_code(ctx, 3))


def test_glynn_accepts_exactly_order8_elements():
    ctx = field_create(3, 2)
    valid = []
    for w in range(9):
        try:
            glynn_code(ctx, w)
            valid.append(w)
        except ValueError:
            pass
    # the w with w^4 = -1, found independently by repeated multiplication
    expect = []
    for w in range(9):
        t = 1
        for _ in range(4):
            t = ctx.mul(t, w)
        if ctx.add(t, 1) == 0:
            expect.append(w)
    assert valid == expect
    assert len(valid) == 4


def test_glynn_is_mds_10_5_6():
    code = glynn_code(field_create(3, 2))
    assert (code.n, code.k) == (10, 5)
    assert is_mds(code)
    assert min_distance(code) == 6


def test_glynn_stated_inverted_condition_yields_non_mds():
    # the matrix with w=1 (which satisfies w^4 + 1 != 0) is not MDS; this is
    # why the constructor requires w^4 = -1 instead
    ctx = field_create(3, 2)
    D = ctx.elements()
    rows = [
        [1] * 9 + [0],
        list(D) + [0],
        [ctx.add(ctx.pow(x, 2), ctx.pow(x, 6)) for x in D] + [0],
        [ctx.pow(x, 3) for x in D] + [0],
        [ctx.pow(x, 4) for x in D] + [1],
    ]
    code = from_matrix(ctx, rows)
    assert not is_mds(code)
    assert min_distance(code) == 4


def test_glynn_wrong_field():
    with pytest.raises(ValueError, match="F_9"):
        glynn_code(field_create(5), 1)


def test_extend_prs64_never_mds():
    ctx = field_create(5)
    code = prs_code(ctx, 4)
    # every nonzero coset: words (a,...,a,0,v) and (0,...,0,v) cover all 24
    seen = 0
    for a in range(5):
        for v in range(5):
            w = (a,) * 4 + (0, v)
            if code.contains(w):
                continue
            seen += 1
            ext = extend_code(code, w, 1)
            assert (ext.n, ext.k) == (7, 5)
            assert not is_mds(ext)
    assert seen == 24


def test_extend_rs52_with_square_word_is_mds():
    ctx = field_create(5)
    code = rs_code(ctx, 2)
    w = evaluate_word(Poly(ctx, [0, 0, 1]), ctx.elements())
    ext = extend_code(code, w, 1)
    assert (ext.n, ext.k) == (6, 3)
    assert is_mds(ext)
    assert codes_equal(ext, prs_code(ctx, 3))


def test_extend_rejects_codeword():
    ctx = field_create(5)
    code = rs_code(ctx, 2)
    with pytest.raises(ValueError, match="in the code"):
        extend_code(code, code.encode((1, 2)), 1)


def test_prs_contains_rs_embedding():
    # codewords of PRS(q+1,k) with last coordinate 0, punctured, form the
    # evaluations of the degree-<k-1 polynomials
    ctx = field_create(5)
    k = 3
    prs = prs_code(ctx, k)
    punctured = {c[:-1] for c in prs.codewords() if c[-1] == 0}
    rs_small = set(rs_code(ctx, k - 1).codewords())
    assert punctured == rs_small


def test_codeword_matrix_matches_iteration():
    code = prs_code(field_create(3, 2), 2)
    mat = code.codeword_matrix()
    it = list(code.codewords())
    assert mat.shape == (81, 10)
    assert [tuple(int(v) for v in row) for row in mat] == it


def test_codeword_matrix_is_built_once_and_read_only():
    code = prs_code(field_create(5), 2)
    mat = code.codeword_matrix()
    assert code.codeword_matrix() is mat
    with pytest.raises(ValueError):
        mat[0, 0] = 1
    with pytest.raises(ValueError, match="budget"):
        code.codeword_matrix(enum_budget=24)


def test_min_distance_budget_error():
    code = rs_code(field_create(11), 9)
    with pytest.raises(ValueError, match="budget"):
        min_distance(code, enum_budget=1000)


def test_code_spec_round_trip():
    for code in (prs_code(field_create(5), 4), glynn_code(field_create(3, 2)),
                 rs_code(field_create(7), 3)):
        text = export_code_spec(code)
        again = parse_code_spec(text)
        assert codes_equal(code, again)


def test_code_spec_diagnostics_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_code_spec("5^1\n1,2,x\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_code_spec("5^1\n1,2,3\n1,9,3\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_code_spec("")
    # reducible modulus surfaces from the field layer with the line number
    with pytest.raises(ValueError, match="line 1.*reducible"):
        parse_code_spec("3^2 1,2,1\n1,1\n")


def test_code_spec_rank_deficient_rows():
    with pytest.raises(ValueError, match="rank"):
        parse_code_spec("5^1\n1,2,3\n2,4,1\n3,1,4\n")


def test_parity_check_is_built_on_first_use_within_the_budget():
    small = prs_code(field_create(5), 2)
    assert "HTd" not in vars(small) and "H" not in vars(small)
    assert small.contains(small.G[0]) and "HTd" in vars(small)
    # PRS(6562,2)/F_3^8: a dense H^T would hold 52496 x 52480 int64 digits
    ctx = field_create(3, 8)
    tracemalloc.start()
    try:
        code = prs_code(ctx, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    with pytest.raises(ValueError, match="parity check of 52496 x 52480 "
                       "digits exceeds budget 100000000"):
        code.syndrome((0,) * code.n)
