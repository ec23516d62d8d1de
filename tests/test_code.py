import itertools
import random

import numpy as np
import pytest

from covrad.code import (codes_equal, export_code_spec, extend_code,
                         from_matrix, glynn_code, is_mds, min_distance,
                         parse_code_spec, prs_code, rs_code)
from covrad.gf import field_create, field_for_size
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
