import functools
import random
import tracemalloc

import numpy as np
import pytest

from covrad.gf import (FieldCtx, _polymod_mul, field_create, field_for_size,
                       is_prime, parse_descriptor, prime_divisors,
                       smallest_irreducible)


def naive_polymul_mod(u, v, modulus, p):
    """Independent reduction oracle: schoolbook multiply then long-divide."""
    prod = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            prod[i + j] = (prod[i + j] + a * b) % p
    deg = len(modulus) - 1
    while len(prod) > deg:
        c = prod[-1]
        for j in range(deg + 1):
            prod[len(prod) - 1 - deg + j] = (
                prod[len(prod) - 1 - deg + j] - c * modulus[j]) % p
        prod.pop()
    return prod + [0] * (deg - len(prod))


def test_f5_canonical_order():
    ctx = field_create(5)
    assert ctx.elements() == (1, 2, 3, 4, 0)


def test_f3_order():
    assert field_create(3).elements() == (1, 2, 0)


def test_f9_default_modulus_has_no_root():
    ctx = field_create(3, 2)
    # brute force: x^2 + 1 has no root mod 3
    assert ctx.modulus == (1, 0, 1)
    for r in range(3):
        assert (r * r + 1) % 3 != 0


def test_f9_order_invariants():
    ctx = field_create(3, 2)
    els = ctx.elements()
    assert len(els) == 9 and els[-1] == 0
    assert sorted(els[:-1]) == list(range(1, 9))


def test_non_prime_p_rejected():
    with pytest.raises(ValueError, match="odd prime"):
        field_create(4, 1)
    with pytest.raises(ValueError, match="odd prime"):
        field_create(2, 3)
    with pytest.raises(ValueError, match="odd prime"):
        field_create(9, 1)


def test_reducible_modulus_rejected():
    # x^2 + 2x + 1 = (x+1)^2 over F_3
    with pytest.raises(ValueError, match="reducible"):
        field_create(3, 2, modulus=[1, 2, 1])


def test_non_monic_modulus_rejected():
    with pytest.raises(ValueError, match="monic"):
        field_create(3, 2, modulus=[1, 0, 2])


def test_f5_inverse_example():
    assert field_create(5).inv(2) == 3


def test_f9_x_times_x():
    ctx = field_create(3, 2)
    # encoding 3 is the residue x; x*x = -1 = 2
    assert ctx.mul(3, 3) == 2


def test_f9_mul_against_naive_reduction():
    ctx = field_create(3, 2)
    mod = list(ctx.modulus)
    for x in range(9):
        for y in range(9):
            expect = naive_polymul_mod(list(ctx.digits(x)), list(ctx.digits(y)),
                                       mod, 3)
            got = ctx.digits(ctx.mul(x, y))
            assert tuple(expect) == got


def test_inverse_of_zero_raises():
    ctx = field_create(7)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_field_axioms_exhaustive(q):
    ctx = field_for_size(q)
    els = range(q)
    for x in els:
        assert ctx.add(x, ctx.neg(x)) == 0
        for y in els:
            assert ctx.add(x, y) == ctx.add(y, x)
            assert ctx.mul(x, y) == ctx.mul(y, x)
            for z in els:
                assert ctx.mul(x, ctx.add(y, z)) == \
                    ctx.add(ctx.mul(x, y), ctx.mul(x, z))
                assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
                assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))


@pytest.mark.parametrize("q", [5, 7, 9, 25, 27, 49, 81])
def test_fermat_exhaustive(q):
    ctx = field_for_size(q)
    for x in range(1, q):
        assert ctx.pow(x, q - 1) == 1
        assert ctx.mul(x, ctx.inv(x)) == 1


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_sum_of_all_elements_is_zero(q):
    ctx = field_for_size(q)
    s = 0
    for x in ctx.elements():
        s = ctx.add(s, x)
    assert s == 0


def test_pow_zero_exponent_is_one():
    ctx = field_create(7)
    for x in range(7):
        assert ctx.pow(x, 0) == 1


def test_digit_roundtrip():
    ctx = field_create(3, 3)
    for e in range(27):
        assert ctx.undigits(ctx.digits(e)) == e


def test_extension_add_neg_sub_beyond_table_limit():
    # q = 3^8: addition is digit-wise mod 3 with no table
    ctx = field_create(3, 8)

    def digits(x):
        return [x // 3**i % 3 for i in range(8)]

    def enc(ds):
        return sum(d % 3 * 3**i for i, d in enumerate(ds))

    rng = random.Random(38)
    for _ in range(2000):
        x, y = rng.randrange(ctx.q), rng.randrange(ctx.q)
        dx, dy = digits(x), digits(y)
        assert ctx.add(x, y) == enc([u + v for u, v in zip(dx, dy)])
        assert ctx.sub(x, y) == enc([u - v for u, v in zip(dx, dy)])
        assert ctx.neg(x) == enc([-u for u in dx])


def test_log_exp_tables_match_polynomial_product():
    # q = 3^7: mul and inv read exp/log tables of a primitive element; the
    # residue-polynomial product is the reference
    ctx = field_create(3, 7)

    def ref_mul(x, y):
        return ctx.undigits(_polymod_mul(list(ctx.digits(x)),
                                         list(ctx.digits(y)),
                                         list(ctx.modulus), 3))

    rng = random.Random(2187)
    for _ in range(2000):
        x, y = rng.randrange(ctx.q), rng.randrange(1, ctx.q)
        assert ctx.mul(x, y) == ref_mul(x, y)
        assert ref_mul(y, ctx.inv(y)) == 1
    assert ctx.mul(0, 5) == ctx.mul(5, 0) == 0


def test_smallest_irreducible_is_irreducible():
    for p, a in [(3, 2), (3, 3), (5, 2), (7, 2), (3, 4)]:
        mod = smallest_irreducible(p, a)
        assert len(mod) == a + 1 and mod[-1] == 1
        # no roots when a >= 2 is necessary; full check by constructing
        ctx = FieldCtx(p, a, mod)
        assert ctx.q == p**a


def test_descriptor_roundtrip():
    ctx = field_create(3, 2)
    desc = f"{ctx.descriptor()} {','.join(str(c) for c in ctx.modulus)}"
    again = parse_descriptor(desc)
    assert again == ctx
    assert parse_descriptor("5^1") == field_create(5)


def test_field_for_size():
    assert field_for_size(9) == field_create(3, 2)
    assert field_for_size(13) == field_create(13)
    with pytest.raises(ValueError):
        field_for_size(8)
    with pytest.raises(ValueError):
        field_for_size(15)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    for n in range(-2, 25):
        assert is_prime(n) == (n in primes)


def test_prime_divisors_by_trial_division():
    # against a scan of every r <= n, each tested for primality by the
    # divisors below it
    for n in list(range(-2, 2000)) + [3**8 - 1, 3**10 - 1, 10006, 65536]:
        assert prime_divisors(n) == [
            r for r in range(2, n + 1)
            if n % r == 0 and all(r % d for d in range(2, r))]
    assert prime_divisors(1000002) == [2, 3, 166667]
    assert prime_divisors(1000003) == [1000003]


def test_field_for_size_of_a_large_prime_or_prime_power():
    # q's one prime divisor by trial division: no scan of the odd numbers
    # below q, which took 2.5 s for q = 1000003
    assert field_for_size(3**10) == field_create(3, 10)
    assert field_for_size(10007) == field_create(10007)
    for q in (1, 2, 4, 3 * 5**2, 1000001, 10007**2 * 3):
        with pytest.raises(ValueError):
            field_for_size(q)


def test_element_order_stable_across_constructions():
    a = field_create(3, 2).elements()
    b = FieldCtx(3, 2).elements()
    assert a == b


def _ref_mul(ctx, x, y):
    return ctx.undigits(_polymod_mul(list(ctx.digits(x)), list(ctx.digits(y)),
                                     list(ctx.modulus), ctx.p))


@pytest.mark.parametrize("p,a", [(3, 7), (3, 8), (3, 10), (5, 2), (10007, 1)])
def test_array_mul_and_inv_match_scalars_and_the_polynomial_product(p, a):
    # one table pair: array mul/inv equal scalar mul/inv and the
    # residue-polynomial product, with zeros in both operands; narrow
    # operand dtypes give the same products
    ctx = field_create(p, a)
    rng = np.random.default_rng(ctx.q)
    x = np.concatenate([[0, 0, 1, 7], rng.integers(0, ctx.q, 400)])
    y = np.concatenate([[0, 7, 0, 1], rng.integers(0, ctx.q, 400)])
    prod, inv = ctx.mul(x, y), ctx.inv(y)
    assert prod.dtype == inv.dtype == np.int64
    for u, v, uv, iv in zip(x.tolist(), y.tolist(), prod.tolist(),
                            inv.tolist()):
        assert ctx.mul(u, v) == uv == _ref_mul(ctx, u, v)
        assert iv == (ctx.inv(v) if v else 0)
        assert iv == 0 or _ref_mul(ctx, v, iv) == 1
    narrow = np.min_scalar_type(ctx.q - 1)
    assert np.array_equal(ctx.mul(x.astype(narrow), y.astype(narrow)), prod)
    assert np.array_equal(ctx.mul(x[:20, None], y[:20]),
                          [[ctx.mul(u, v) for v in y[:20].tolist()]
                           for u in x[:20].tolist()])
    assert ctx.mul(np.int64(x[-1]), 1) == x[-1]
    # products along an axis, 0 where a factor is 0
    P = np.stack([x[:40], y[:40], x[40:80]])
    assert ctx.prod(P, axis=0).tolist() == [
        ctx.mul(ctx.mul(u, v), w) for u, v, w in P.T.tolist()]
    assert ctx.prod(P).tolist() == [functools.reduce(ctx.mul, r)
                                    for r in P.tolist()]


@pytest.mark.parametrize("q", [3, 5, 9, 11, 13, 25, 27, 2187, 6561, 10007,
                               59049])
def test_exp_table_holds_q_minus_1_distinct_powers(q):
    ctx = field_for_size(q)
    exp = ctx._exp[:q - 1].tolist()
    assert exp[0] == 1 and len(set(exp)) == q - 1 and 0 not in exp
    g = exp[1]  # exp[i + 1] = g * exp[i], checked on a sample
    for i in random.Random(q).sample(range(q - 2), min(q - 2, 200)):
        assert exp[i + 1] == _ref_mul(ctx, exp[i], g)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    assert ctx.inv(np.array([0, 1])).tolist() == [0, 1]


def test_prime_field_keeps_no_o_q_lists():
    # F_1000003 took a 160.6 MiB tracemalloc peak when scalar inv read O(q)
    # Python lists of the exp/log tables; a prime field's scalars take
    # pow(x, -1, p) and pow(x, e, p) instead
    tracemalloc.start()
    try:
        ctx = FieldCtx(1000003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160.6 / 3 * 2**20
    assert not hasattr(ctx, "_expl") and not hasattr(ctx, "_logl")
    x = [1, 2, 3, 500001, 999999, 1000002]
    assert ctx.inv(np.array(x)).tolist() == [ctx.inv(v) for v in x]
    assert ctx.inv(np.int64(2)) == 500002
    assert [ctx.pow(v, 1000002) for v in x] == [1] * len(x)
    assert ctx.pow(np.int64(3), 2) == 9
