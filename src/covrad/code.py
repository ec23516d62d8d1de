"""Linear code construction: RS, PRS, the Glynn [10,5] code over F_9, custom
generator matrices, parity checks, minimum distance, MDS verification, and
the one-row extension construction."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import _linops, _sweeps
from ._sweeps import DEFAULT_ENUM_BUDGET
from .gf import FieldCtx, parse_descriptor


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    d: int
    mds: bool


class LinearCode:
    """A linear [n, k] code given by a full-rank generator matrix over F_q.

    Immutable after construction.  Besides the generator G (a tuple of
    row tuples) it stores `Gd`, the read-only (k*a, n*a) digit expansion
    of G, and Gd's digit rref.  The parity check H and `HTd`, the
    read-only (n*a, (n-k)*a) digit expansion of H^T, are built from that
    rref on first use; `HTd` raises ValueError, before allocating, when it
    has more than DEFAULT_ENUM_BUDGET entries.  `codeword_matrix`,
    `min_distance`, `syndrome` and the syndrome BFS are digit products
    with them; `encode` and `codewords()` stay scalar, as the reference
    the digit products are tested against.  `structure` records how the
    code was built ('rs', 'prs', 'glynn' or 'generic'); the distance
    machinery uses it to pick coset parameterizations.
    """

    def __init__(self, ctx: FieldCtx, rows, label: str = "", structure=None):
        # F_p's elements are the integers mod p; F_q's encodings, a > 1, are not
        rows = [tuple(int(v) % ctx.q if ctx.a == 1 else int(v) for v in r)
                for r in rows]
        if any(not 0 <= v < ctx.q for r in rows for v in r):
            raise ValueError(f"generator entries must be encodings in [0, {ctx.q})")
        if not rows or not rows[0]:
            raise ValueError("empty generator matrix")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged generator matrix")
        k = len(rows)
        if not 0 < k <= n:
            raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
        a = ctx.a
        Gd = _linops.digit_expand(ctx, rows)
        red, rank = _linops.subset_reduce(Gd, np.arange(n * a)[None], ctx.p)
        if rank[0] < k * a:
            raise ValueError("generator matrix is rank-deficient")
        self.ctx = ctx
        self.n = n
        self.k = k
        self.G = tuple(rows)
        self.Gd = Gd
        Gd.flags.writeable = False
        self._rref = red[0]
        self.label = label or f"[{n},{k}]/F_{ctx.q}"
        self.structure = structure or {"kind": "generic"}
        self._d = None
        self._codewords = None

    @functools.cached_property
    def HTd(self) -> np.ndarray:
        n, m, a = self.n, self.n - self.k, self.ctx.a
        if n * a * m * a > DEFAULT_ENUM_BUDGET:
            raise ValueError(
                f"parity check of {n * a} x {m * a} digits exceeds budget "
                f"{DEFAULT_ENUM_BUDGET}")
        HTd = _parity_check_t(self._rref, self.ctx.p)
        HTd.flags.writeable = False
        return HTd

    @functools.cached_property
    def H(self) -> tuple:
        return tuple(map(tuple, _linops.digit_decode_cols(
            self.ctx, self.HTd[::self.ctx.a], self.n - self.k).T.tolist()))

    # ------------------------------------------------------------------
    def encode(self, message) -> tuple:
        """Codeword for a length-k message vector (scalar reference)."""
        ctx = self.ctx
        out = [0] * self.n
        for i, m in enumerate(message):
            if m:
                row = self.G[i]
                for j in range(self.n):
                    if row[j]:
                        out[j] = ctx.add(out[j], ctx.mul(m, row[j]))
        return tuple(out)

    def syndrome(self, word) -> tuple:
        """H @ word, one digit product of the word's digits with HTd."""
        ctx = self.ctx
        wd = ctx.digit_table()[check_words(self, [word])].reshape(1, -1)
        s = _linops.digit_matmul(wd, self.HTd, ctx.p)
        return tuple(_linops.digit_decode_cols(ctx, s, self.n - self.k)[0].tolist())

    def contains(self, word) -> bool:
        return not any(self.syndrome(word))

    def codewords(self):
        """Iterate all q^k codewords in message-vector order (scalar reference)."""
        ctx = self.ctx
        for msg in itertools.product(range(ctx.q), repeat=self.k):
            yield self.encode(msg)

    def _codeword_digits(self, enum_budget: int):
        """All q^k codewords as chunks of digit rows (<= CHUNK, n*a), in
        message-vector order, each one digit product with Gd.  The budget
        is checked at the call, the chunks are built as they are read."""
        ctx, step = self.ctx, _sweeps.CHUNK
        total = ctx.q**self.k
        if total > enum_budget:
            raise ValueError(
                f"q^k = {total} codewords exceeds enumeration budget {enum_budget}")
        # message-vector order: last component varies fastest
        msgs = (_linops.mixed_radix(np.arange(s, min(s + step, total)),
                                    ctx.q, self.k)[:, ::-1]
                for s in range(0, total, step))
        return (_linops.digit_matmul(ctx.digit_table()[m].reshape(len(m), -1),
                                     self.Gd, ctx.p) for m in msgs)

    def codeword_matrix(self, enum_budget: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
        """All codewords as a read-only (q^k, n) int array, message-vector
        order.  Built once per code; the budget is checked on every call."""
        chunks = self._codeword_digits(enum_budget)
        if self._codewords is None:
            cw = np.concatenate([_linops.digit_decode_cols(self.ctx, c, self.n)
                                 for c in chunks])
            cw.flags.writeable = False
            self._codewords = cw
        return self._codewords

    def params(self, enum_budget: int = DEFAULT_ENUM_BUDGET) -> CodeParams:
        d = min_distance(self, enum_budget)
        return CodeParams(self.n, self.k, d, d == self.n - self.k + 1)

    def __repr__(self):
        return f"LinearCode({self.label})"


def check_words(code: LinearCode, words) -> np.ndarray:
    """(N, n) int64 words, (0, n) for none.  ValueError on a ragged batch,
    on one flat word instead of a batch, on a length != n, and on an entry
    that is not an integer or not in F_q."""
    try:
        w = np.asarray(words)
    except ValueError:
        raise ValueError(f"ragged batch: every word needs length n={code.n}") from None
    if w.shape == (0,):
        return np.empty((0, code.n), dtype=np.int64)
    if w.ndim == 1:
        raise ValueError(f"got one flat word of length {len(w)}, not a batch")
    if w.ndim != 2:
        raise ValueError(f"words form shape {w.shape}, not (N, {code.n})")
    if w.shape[1] != code.n:
        raise ValueError(f"word length {w.shape[1]} != n={code.n}")
    if w.dtype.kind not in "iu":
        raise ValueError(f"word entries must be integers, got {w.dtype}")
    if ((w < 0) | (w >= code.ctx.q)).any():
        raise ValueError(f"word entries must lie in [0, {code.ctx.q})")
    return w.astype(np.int64, copy=False)


def _parity_check_t(red: np.ndarray, p: int) -> np.ndarray:
    """Digit expansion of H^T, (N, N-K), from the digit rref `red` (K x N)
    of a full-rank generator: a pivot row gets minus the rref's free
    columns, the free rows the identity.  Pivots come in whole blocks of a
    digit columns, so this is the F_q back-permutation digit by digit."""
    K, N = red.shape
    lead = (red != 0).argmax(axis=1)
    free = np.ones(N, dtype=bool)
    free[lead] = False
    HTd = np.zeros((N, N - K), dtype=np.int64)
    HTd[lead] = -red[:, free] % p
    HTd[free] = np.eye(N - K, dtype=np.int64)
    return HTd


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def rs_code(ctx: FieldCtx, k: int, evalset=None) -> LinearCode:
    """RS code: evaluations of all polynomials of degree < k at the points
    of the (ordered, distinct) evaluation set; defaults to all of F_q in
    canonical order."""
    D = tuple(evalset) if evalset is not None else ctx.elements()
    if len(set(D)) != len(D):
        raise ValueError("evaluation set has duplicate points")
    n = len(D)
    if n > ctx.q or any(not 0 <= x < ctx.q for x in D):
        raise ValueError("evaluation set must consist of distinct field elements")
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < |D|, got k={k}, |D|={n}")
    full = D == ctx.elements()
    label = f"RS({n},{k})/F_{ctx.q}" if full else f"RS(D[{n}],{k})/F_{ctx.q}"
    return LinearCode(ctx, _sweeps._sweep_generator(ctx, D, k, prs=False), label,
                      {"kind": "rs", "k": k, "eval": D, "full_field": full})


def prs_code(ctx: FieldCtx, k: int) -> LinearCode:
    """Projective RS code [q+1, k]: RS(q,k) evaluations plus one coordinate
    carrying the degree-(k-1) coefficient; columns follow the canonical
    element order (0 last), final column (0,...,0,1)^T."""
    q = ctx.q
    if not 1 <= k <= q:
        raise ValueError(f"need 1 <= k <= q, got k={k}")
    D = ctx.elements()
    return LinearCode(ctx, _sweeps._sweep_generator(ctx, D, k),
                      f"PRS({q + 1},{k})/F_{q}",
                      {"kind": "prs", "k": k, "eval": D, "full_field": True})


def glynn_code(ctx: FieldCtx, w: int | None = None) -> LinearCode:
    """The [10, 5] MDS code over F_9 with third row alpha^2 + w*alpha^6.

    Requires w^4 = -1 (w is one of the four order-8 elements); every such w
    yields a [10, 5, 6] MDS code, and exhaustive checking shows no other w
    does.  Defaults to the smallest valid encoding.  Column order is the
    canonical element order (radius and distance are order-invariant).
    """
    if (ctx.p, ctx.a) != (3, 2):
        raise ValueError(f"Glynn construction needs F_9, got F_{ctx.q}")
    if w is None:
        w = next(e for e in ctx.elements() if ctx.add(ctx.pow(e, 4), 1) == 0)
    if ctx.add(ctx.pow(w, 4), 1) != 0:
        raise ValueError(
            f"invalid parameter w={w}: need w^4 = -1 (w of multiplicative "
            "order 8), otherwise the construction is not MDS")
    return LinearCode(ctx, _glynn_rows(ctx, w), f"Glynn(10,5;w={w})/F_9",
                      {"kind": "glynn", "w": w, "eval": ctx.elements()})


def _glynn_rows(ctx: FieldCtx, w: int) -> list:
    """Generator rows of the Glynn construction over F_9 for any w (no
    check on w): the PRS(10,5) generator, rows 1, x, ..., x^4 over the
    canonical elements plus a last column e_5, with x^2 + w*x^6 for x^2."""
    rows = list(_sweeps._sweep_generator(ctx, ctx.elements(), 5))
    rows[2] = tuple(ctx.add(x2, ctx.mul(w, ctx.mul(x2, x4)))
                    for x2, x4 in zip(rows[2], rows[4]))
    return rows


def from_matrix(ctx: FieldCtx, rows, label: str = "") -> LinearCode:
    """Code with the given (linearly independent) generator rows."""
    return LinearCode(ctx, rows, label)


def extend_code(code: LinearCode, word, tail: int = 1) -> LinearCode:
    """[n+1, k+1] code: rows of G each appended with 0, plus row (word | tail).

    Requires word not in the code; used to test whether a word at maximal
    distance could extend the code to a longer MDS code.
    """
    if code.contains(word):
        raise ValueError("word is in the code; extension would be rank-deficient")
    rows = [list(r) + [0] for r in code.G]
    rows.append(list(word) + [tail])
    return LinearCode(code.ctx, rows, f"{code.label}+w")


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------

def min_distance(code: LinearCode, enum_budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Exact minimum weight over all nonzero codewords (exhaustive)."""
    if code._d is None:
        d = code.n
        for cd in code._codeword_digits(enum_budget):
            wt = cd.reshape(len(cd), code.n, code.ctx.a).any(axis=2).sum(axis=1)
            d = min(d, int(wt[wt > 0].min()))
        code._d = d
    return code._d


def is_mds(code: LinearCode) -> bool:
    """True iff every k-column subset of G is invertible (d = n-k+1)."""
    return not _sweeps.subset_ops(code.ctx, code.G, code.n)[2].any()


def codes_equal(c1: LinearCode, c2: LinearCode) -> bool:
    """Equality as codeword sets (same row space over the same field)."""
    if c1.ctx != c2.ctx or c1.n != c2.n or c1.k != c2.k:
        return False
    return all(c2.contains(r) for r in c1.G) and all(c1.contains(r) for r in c2.G)


# ----------------------------------------------------------------------
# code-spec files
# ----------------------------------------------------------------------

def export_code_spec(code: LinearCode) -> str:
    """Text format: field descriptor line, then one generator row per line."""
    ctx = code.ctx
    lines = [ctx.descriptor() if ctx.a == 1
             else f"{ctx.descriptor()} {','.join(str(c) for c in ctx.modulus)}"]
    for row in code.G:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_code_spec(text: str, label: str = "from-file") -> LinearCode:
    """Parse a code-spec file; raises ValueError with line-numbered messages."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("line 1: empty code-spec file")
    lineno, desc = lines[0]
    try:
        ctx = parse_descriptor(desc)
    except ValueError as e:
        raise ValueError(f"line {lineno}: {e}") from None
    rows = []
    for lineno, ln in lines[1:]:
        try:
            row = [int(t) for t in ln.split(",")]
        except ValueError:
            raise ValueError(f"line {lineno}: malformed row {ln!r}") from None
        bad = [v for v in row if not 0 <= v < ctx.q]
        if bad:
            raise ValueError(
                f"line {lineno}: element encoding {bad[0]} out of range [0, {ctx.q})")
        rows.append(row)
    if not rows:
        raise ValueError(f"line {lineno}: no generator rows")
    try:
        return LinearCode(ctx, rows, label)
    except ValueError as e:
        raise ValueError(f"line {lines[1][0]}: {e}") from None
