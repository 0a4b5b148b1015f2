"""Recursive computation of the exponents W_m in the ordered splitting

    e^(X1 + ... + Xn) = e^(X1) e^(X2) ... e^(Xn) e^(W2) e^(W3) ...

Each W_m is a homogeneous Lie polynomial of degree m in the generators.
The engine works with the auxiliary family f[m, k] (the t^k coefficient
of the logarithmic derivative of the m-th residual factor of the
splitting, a homogeneous Lie polynomial of degree k + 1):

    f[1, k]  has a closed form as a sum of nested ad-operators applied
             to the generators (`f1k_direct`), and an equivalent closed
             form as a sum of long commutators indexed by integer
             compositions of k (`f1k_comm`);
    f[m, k]  = sum_{j=0}^{floor(k/m)-1} (-1)^j/j! * ad_{W_m}^j f[m-1, k-m*j]
             for m >= 2 (`EngineCtx.fmk`);
    W_m      = f[max(1, floor((m-1)/2)), m-1] / m  (`EngineCtx.w_term`);
             for m <= 4 this is f[1, m-1] / m, which `w_comm` gives in
             commutator form.

Neither sum repeats a bracket.  The nested-ad sum of f[1, k] is
one graded pass: each X_i goes once through the operators
E_l = sum_j ad_{Xl}^j / j!, l = 1..n, held as one polynomial per added
degree, so a single pass gives every f[1, k] up to a top degree.  The
sum over j of the recursion is taken in Horner form,
acc <- f[m-1, k-m*j] - [W_m, acc] / (j+1) from the last j down to 0, one
bracket per term instead of recomputing ad_{W_m}^j for each j.

Each Horner step is one call of `bracket_add`, which adds the bracket
into f[m-1, k-m*j] on dense degree blocks: W_m, acc and f[m, k] are
homogeneous and nearly dense, so the step is a few C-level list passes
per word of W_m, with no term map for the bracket alone and no separate
sum.  The graded f[1, .] pass keeps the dict `bracket`: its left operand
is one letter and its right one often sparse, so a dense block would be
mostly zeros.  With `bracket_add` there, `series` over (2,12), (3,9) and
(4,7) took 0.43 s against 0.08 s (best of 5, 2 CPUs, Python 3.11.7).
`w_term_expanded` keeps the dict `bracket` too, as the oracles do, so
that `--path both` checks the dense kernel against the dict kernel.

`EngineCtx.w_term_expanded` evaluates W_m (m >= 5) through the recursion
unrolled down to f[base, .] (`_expanded_formula`), which reproduces the
paper's expanded formulas; tests/golden.py holds those and the tests
compare them term by term for m <= 40.  It is a cross-check, not an
independent derivation: each ad_{W_j} uses the generic `w_term`, and for
m >= 11 the f[base, .] with base >= 2 come from the recursion.  `series`
alone chooses the path and yields W_2..W_K one at a time; path="both"
asserts that the two agree exactly before it yields a term.

The engine is pure: W_m depends only on (n, m), and the engine does no
I/O.  A caller that already holds some W_m (the CLI reads them from its
on-disk cache) hands them to `EngineCtx` as `known`.  All values are
exact; the memo caches inside `EngineCtx` are filled once per key and
never mutated afterwards, so concurrent readers are safe.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Iterator, Mapping

from .freealg import (
    AlgebraCtx,
    AssocPoly,
    bracket,
    bracket_add,
    generators,
    poly_sum,
)
from .lieform import CommTerm, LieExpr, compositions


class PathDisagreementError(RuntimeError):
    """The generic recursion and the expanded formulas produced different values.

    This can only happen through an implementation bug (or a corrupted
    cache); it is surfaced, never swallowed.
    """


def _exp_ad(x: AssocPoly, parts: list[AssocPoly]) -> list[AssocPoly]:
    """E_x = sum_j ad_x^j / j! on a polynomial held as parts[d] of added degree d.

    ad_x^j raises the added degree by j; parts above len(parts) - 1 are cut.
    """
    top = len(parts) - 1
    pieces: list[list[AssocPoly]] = [[p] for p in parts]
    scalars: list[list[Fraction]] = [[Fraction(1)] for _ in parts]
    for d, v in enumerate(parts):
        for j in range(1, top - d + 1):
            if v.is_zero:
                break
            v = bracket(x, v)
            pieces[d + j].append(v)
            scalars[d + j].append(Fraction(1, factorial(j)))
    return [poly_sum(x.ctx, ps, ss) for ps, ss in zip(pieces, scalars)]


def _f1_pass(ctx: AlgebraCtx, top: int) -> list[AssocPoly]:
    """[f[1, 1], ..., f[1, top]] from one graded pass (see `f1k_direct`)."""
    gens = generators(ctx)
    zero = AssocPoly.zero(ctx)
    added: list[list[AssocPoly]] = [[] for _ in range(top + 1)]
    for i in range(2, ctx.n + 1):
        parts = [gens[i - 1]] + [zero] * top
        for l, x in enumerate(gens, start=1):
            parts = _exp_ad(x, parts)
            if l == i - 1:
                parts[0] = zero  # j1 + ... + j(i-1) >= 1
        for d in range(1, top + 1):
            added[d].append(parts[d])
    return [poly_sum(ctx, added[k], [(-1) ** k] * len(added[k])) for k in range(1, top + 1)]


def f1k_direct(k: int, ctx: AlgebraCtx) -> AssocPoly:
    """f[1, k] from its nested-ad closed form.

    (-1)^k * sum over i in 2..n and over (j1..jn) >= 0 with j1+...+jn = k
    and j1+...+j(i-1) >= 1 of  ad_{Xn}^{jn} ... ad_{X1}^{j1} X_i / (j1! ... jn!).

    The sum is evaluated as one graded pass, not chain by chain: for each
    i, X_i goes through E_1, ..., E_n with E_l = sum_j ad_{Xl}^j / j!,
    kept as one polynomial per added degree j1+...+jl <= k; after E_(i-1)
    the part of added degree 0 is dropped.  f[1, k] is (-1)^k times the
    sum over i of the parts of added degree k, and the lower parts of the
    same pass are f[1, 1], ..., f[1, k-1] (`EngineCtx` keeps them all).

    Homogeneous of degree k + 1; identically zero when n = 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k + 1 > ctx.max_degree:
        raise ValueError(
            f"f[1,{k}] has degree {k + 1} > max_degree {ctx.max_degree}"
        )
    return _f1_pass(ctx, k)[-1]


def f1k_comm(k: int, n: int) -> LieExpr:
    """f[1, k] as a sum of long commutators, one group per composition of k.

    For each composition (k1..kl) of k, the group is

        1/(k1! ... kl!) * sum [X_j X_{i1}^{k1} ... X_{il}^{kl}]

    over index tuples with i1 < j <= n and i1 < i2 < ... < il <= n
    (j is unconstrained relative to i2..il).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    terms: list[CommTerm] = []
    for comp in compositions(k):
        denom = 1
        for part in comp:
            denom *= factorial(part)
        coeff = Fraction(1, denom)
        for idx_tuple in itertools.combinations(range(1, n + 1), len(comp)):
            i1 = idx_tuple[0]
            for j in range(i1 + 1, n + 1):
                terms.append(CommTerm(coeff, j, tuple(zip(idx_tuple, comp))))
    return LieExpr(terms)


def w_comm(m: int, n: int) -> LieExpr | None:
    """W_m in closed commutator form, f[1, m-1] / m, where the paper has one (m <= 4); else None."""
    return f1k_comm(m - 1, n).scaled(Fraction(1, m)) if m <= 4 else None


class EngineCtx:
    """Computation context: an algebra plus memo caches for f[m, k] and W_m.

    Memo entries are immutable once inserted (insert-if-absent), so the
    caches are safe for concurrent readers; caches are never shared
    across different (n, max_degree) contexts.

    `known`, if given, maps m to a W_m already at hand (each in context
    `alg`, e.g. read back from a cache) and seeds the W_m memo.
    """

    def __init__(self, alg: AlgebraCtx, known: Mapping[int, AssocPoly] | None = None):
        self.alg = alg
        self._f_memo: dict[tuple[int, int], AssocPoly] = {}
        self._w_memo: dict[int, AssocPoly] = dict(known or {})

    def fmk(self, m: int, k: int) -> AssocPoly:
        """f[m, k]; every f[1, .] comes from one graded pass, m >= 2 applies the recursion.

        The first f[1, k] asked for fills f[1, 1..K-1] from one pass to
        K - 1 (see `f1k_direct`).  For m >= 2 the sum over j = 0..J,
        J = k // m - 1, is evaluated in Horner form with J brackets:

            acc = f[m-1, k-mJ];  acc = f[m-1, k-mj] - [W_m, acc] / (j+1)  for j = J-1 .. 0,

        which unrolls to sum_j (-1)^j/j! ad_{W_m}^j f[m-1, k-mj]: the term
        of index j passes j brackets, with factors -1/1, -1/2, ..., -1/j.
        Each step is one `bracket_add` on dense degree blocks (see the
        module docstring); the f[1, .] pass keeps the dict `bracket`.
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if k < m:
            raise ValueError(f"f[{m},{k}] is undefined (k < m)")
        if k + 1 > self.alg.max_degree:
            raise ValueError(
                f"f[{m},{k}] has degree {k + 1} > max_degree {self.alg.max_degree}"
            )
        key = (m, k)
        cached = self._f_memo.get(key)
        if cached is not None:
            return cached
        if m == 1:
            for kk, value in enumerate(_f1_pass(self.alg, self.alg.max_degree - 1), start=1):
                self._f_memo.setdefault((1, kk), value)
            return self._f_memo[key]
        w_m = self.w_term(m)
        J = k // m - 1
        value = self.fmk(m - 1, k - m * J)
        for j in range(J - 1, -1, -1):
            value = bracket_add(self.fmk(m - 1, k - m * j), w_m, value, Fraction(-1, j + 1))
        return self._f_memo.setdefault(key, value)

    def w_term(self, m: int) -> AssocPoly:
        """W_m = f[max(1, floor((m-1)/2)), m-1] / m, from the memo if there; homogeneous of degree m."""
        if m < 2:
            raise ValueError(f"the splitting exponents start at W_2, got m={m}")
        if m > self.alg.max_degree:
            raise ValueError(f"W_{m} has degree {m} > max_degree {self.alg.max_degree}")
        cached = self._w_memo.get(m)
        if cached is not None:
            return cached
        value = self.fmk(max(1, (m - 1) // 2), m - 1).scaled(Fraction(1, m))
        return self._w_memo.setdefault(m, value)

    def w_term_expanded(self, m: int) -> AssocPoly:
        """W_m (m >= 5) from the term list of `_expanded_formula(m)`.

        Must equal `w_term(m)` exactly: a cross-check against the
        recursion, which it reuses (see the module docstring).
        """
        if m > self.alg.max_degree:
            raise ValueError(f"W_{m} has degree {m} > max_degree {self.alg.max_degree}")
        formula = _expanded_formula(m)
        pieces: list[AssocPoly] = []
        for _, ad_ws, (mp, kp) in formula:
            v = self.fmk(mp, kp)
            for w_idx in reversed(ad_ws):
                v = bracket(self.w_term(w_idx), v)
            pieces.append(v)
        return poly_sum(self.alg, pieces, [coeff / m for coeff, _, _ in formula])


# An unrolled formula: a list of (coefficient, ad-operator indices applied
# left to right, (m', k') of the base-family value).
# `(1, (3, 2, 2), (1, 4))` reads as  ad_{W3} ad_{W2}^2 f[1, 4].
_FormulaTerm = tuple[Fraction, tuple[int, ...], tuple[int, int]]


def _expanded_formula(m: int) -> list[_FormulaTerm]:
    """Term list of the unrolled formula for W_m (without the leading 1/m).

    Unrolls f[M, K] = sum_{j < K // M} (-1)^j/j! ad_{W_M}^j f[M-1, K-M*j]
    from f[floor((m-1)/2), m-1] down to f[base, .], the level at which the
    paper states its formulas: base = 1 up to m = 10, and floor((m-1)/3) - 1
    from m = 11 on (the residue classes of m mod 6).
    """
    if m < 5:
        raise ValueError(f"the expanded formulas start at m=5, got m={m}")
    top = (m - 1) // 2
    base = 1 if m <= 10 else (m - 1) // 3 - 1
    terms: list[_FormulaTerm] = [(Fraction(1), (), (top, m - 1))]
    for M in range(top, base, -1):
        terms = [
            (coeff * Fraction((-1) ** j, factorial(j)), word + (M,) * j, (M - 1, k - M * j))
            for coeff, word, (_, k) in terms
            for j in range(k // M)
        ]
    return terms


_PATHS = ("generic", "expanded", "both")


def series(ectx: EngineCtx, path: str = "generic") -> Iterator[AssocPoly]:
    """Yield W_2 .. W_K in order, K = ectx.alg.max_degree.

    path="generic" uses the recursion, path="expanded" the unrolled
    formulas (identical to generic below degree 5), and path="both"
    computes both and raises PathDisagreementError if they ever differ;
    under "both" each W_m is yielded only after it has passed that check.
    Bad arguments raise ValueError at the first step of the iteration.
    """
    if path not in _PATHS:
        raise ValueError(f"path must be one of {_PATHS}, got {path!r}")
    if ectx.alg.max_degree < 2:
        raise ValueError(f"max_degree must be >= 2, got {ectx.alg.max_degree}")
    for m in range(2, ectx.alg.max_degree + 1):
        poly = ectx.w_term_expanded(m) if path == "expanded" and m >= 5 else ectx.w_term(m)
        if path == "both" and m >= 5 and ectx.w_term_expanded(m) != poly:
            raise PathDisagreementError(f"W_{m}: generic recursion and expanded formula disagree")
        yield poly
