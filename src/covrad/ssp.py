"""k-subset-sum solver over the full field F_q, and the constructive
nearest-codeword builder for words defined by degree-k polynomials.

For D = F_q the k-subset-sum problem always has a solution when
1 <= k <= q-1; k = q works only for target 0 because the full-field sum
vanishes for odd q.  General evaluation sets are out of scope (the general
problem is NP-hard).
"""

from __future__ import annotations

import itertools

from .gf import FieldCtx
from .poly import Poly, from_roots

EXHAUSTIVE_BELOW_Q = 7


def _field_sum(ctx: FieldCtx, items) -> int:
    s = 0
    for x in items:
        s = ctx.add(s, x)
    return s


def validate_certificate(ctx: FieldCtx, S, k: int, g: int) -> bool:
    """Independent recheck: k distinct field elements summing to g."""
    S = list(S)
    return (len(S) == k and len(set(S)) == k
            and all(0 <= x < ctx.q for x in S)
            and _field_sum(ctx, S) == g)


def _exhaustive(ctx: FieldCtx, k: int, g: int):
    # first valid subset in canonical-order lexicographic position
    for S in itertools.combinations(ctx.elements(), k):
        if _field_sum(ctx, S) == g:
            return set(S)
    return None


def ssp_solve(ctx: FieldCtx, k: int, g: int) -> set:
    """A k-element subset of F_q with sum g; deterministic for fixed input.

    Seeds with the first k canonical elements, then repairs the sum by one
    swap s_out -> s_out + (g - sum) when the replacement is outside the
    seed; tiny fields (q < 7) and the rare unrepairable seeds fall back to
    exhaustive search.
    """
    q = ctx.q
    if not 1 <= k <= q:
        raise ValueError(f"need 1 <= k <= q, got k={k}")
    if not 0 <= g < q:
        raise ValueError(f"target must be a field element in [0, {q}), got {g}")
    if k == q:
        if g != 0:
            raise ValueError(
                f"k = q is unsolvable for target {g}: the full-field sum is 0")
        return set(ctx.elements())
    if q < EXHAUSTIVE_BELOW_Q:
        sol = _exhaustive(ctx, k, g)
    else:
        seed = list(ctx.elements()[:k])
        cur = _field_sum(ctx, seed)
        delta = ctx.sub(g, cur)
        if delta == 0:
            sol = set(seed)
        else:
            sol = None
            members = set(seed)
            for s_out in seed:
                s_in = ctx.add(s_out, delta)
                if s_in not in members:
                    members.discard(s_out)
                    members.add(s_in)
                    sol = members
                    break
            if sol is None:
                sol = _exhaustive(ctx, k, g)
    if sol is None or not validate_certificate(ctx, sol, k, g):
        raise RuntimeError(f"subset-sum solver failed for q={q}, k={k}, g={g}")
    return sol


def nearest_codeword_deg_k(f: Poly, v: int, k: int) -> Poly:
    """For deg f = k, a polynomial g with deg g <= k-1 and coefficient v at
    x^(k-1) such that f - g has k distinct roots in F_q.

    The word (values of g, v) is then a codeword at distance exactly q - k
    from (values of f, v): the difference vanishes on the k roots and the
    extra coordinates agree.
    """
    ctx = f.ctx
    if f.degree != k:
        raise ValueError(f"need deg f = k = {k}, got deg f = {f.degree}")
    c = f.coefficient(k)
    a = f.coefficient(k - 1)
    target = ctx.mul(ctx.sub(v, a), ctx.inv(c))
    S = ssp_solve(ctx, k, target)
    phi = from_roots(ctx, sorted(S), c)
    g = f - phi
    assert g.degree < k and g.coefficient(k - 1) == v
    return g
