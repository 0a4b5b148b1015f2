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

Neither sum repeats a bracket.  The nested-ad sum of f[1, k] is one
graded pass: X_2 + ... + X_n goes once through the operators
E_l = sum_j (-1)^j ad_{Xl}^j / j!, l = 1..n, held as one integer term
map per added degree D and scaled by D!, which makes it integral
(D!/(j1!...jl!) is a multinomial coefficient, see `f1k_direct`); one pass
gives every k! f[1, k] up to a top degree.  The sum over j of the
recursion is taken in Horner form, acc <- f[m-1, k-m*j] - [W_m, acc] /
(j+1) from the last j down to 0, one bracket per term instead of
recomputing ad_{W_m}^j.

The memo holds every f[m, k] as a dense degree block (den, nums), the
numerators of all n^(k+1) words of its degree in code order, reduced once
as it enters the memo and never changed after.  Each Horner step is one
`bracket_add` of W_m's block with acc's into f[m-1, .]'s: W_m, acc and
f[m, k] are homogeneous and nearly dense, so a step is one C-level list
pass per distinct numerator of W_m, one stride copy per nonzero word of
W_m and one fused pass over the result.  Each W_m is kept as its reduced
block (`w_block`), which is what the CLI renders and caches; a dict is
made only when a caller asks for a polynomial: `w_term` (and so `series`,
the oracles and `--path both`) and `fmk`.  The graded pass stays
sparse: its operator is one letter and its early parts are mostly zeros;
dense blocks there took the (3, 9) pass from 6.5 ms to 87 ms (2 CPUs,
Python 3.11.7), and each part becomes its block once, through
`freealg.block_nums`.  The block of the top part, the largest list of
the request, is made before the pass, so a K whose block cannot exist
fails with MemoryError before any of the pass's work.
`w_term_expanded` keeps the dict `bracket` (the oracles bracket nothing),
so that `--path both` checks the block kernel against the dict kernel.

`EngineCtx.w_term_expanded` evaluates W_m (m >= 5) through the recursion
unrolled down to f[base, .] (`_expanded_formula`), which reproduces the
paper's expanded formulas; tests/golden.py holds those and the tests
compare them term by term for m <= 40.  It is a cross-check, not an
independent derivation: each ad_{W_j} uses the generic `w_term`, and for
m >= 11 the f[base, .] with base >= 2 come from the recursion.
`EngineCtx.series_blocks` alone chooses the path and yields the blocks of
W_2..W_K one at a time from the recursion, and `series` yields them as
polynomials; path="both" asserts that the expanded formulas agree with
the recursion exactly before it yields a term.

The engine is pure: W_m depends only on (n, m), and the engine does no
I/O.  A caller that already holds some W_m (the CLI reads their blocks
from its on-disk cache) hands them to `EngineCtx` as `known` blocks; a
known W_j with j <= (K-1)/2 is then what level j brackets with.  All
values are exact; the memo caches inside `EngineCtx` are filled once per
key and never mutated afterwards, so concurrent readers are safe.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial
from typing import Iterator, Mapping

from .freealg import (
    AlgebraCtx,
    AssocPoly,
    Block,
    block_nums,
    bracket,
    bracket_add,
    from_block,
    poly_sum,
    reduce_block,
    zeros,
)
from .lieform import CommTerm, LieExpr, compositions


class PathDisagreementError(RuntimeError):
    """The generic recursion and the expanded formulas produced different values.

    This can only happen through an implementation bug (or a corrupted
    cache); it is surfaced, never swallowed.
    """


def _exp_ad(n: int, l: int, parts: list[dict[int, int]]) -> None:
    """parts <- E_l parts, E_l = sum_j (-1)^j ad_{Xl}^j / j! = e^(ad_{-Xl}), for parts[D] = D! * (the part of added degree D).

    The words of parts[D] have degree D + 1.  With that scaling
    E_l parts[D] = sum_j (-1)^j C(D, j) ad_{Xl}^j parts[D-j] is integral,
    and with the signed binomials (E_l for -X_l) the pass carries the sign
    of f[1, k].  [Xl, v] on words u of degree e is two passes over v's term
    map: code(Xl u) = l n^e + code(u) and code(u Xl) = code(u) n + l.
    Parts above len(parts) - 1 are cut.  D runs downwards, so each source
    part is read before anything is added into it.
    """
    top = len(parts) - 1
    for d in range(top, -1, -1):
        v = parts[d]
        for j in range(1, top - d + 1):
            if not v:
                break
            shift = l * n ** (d + j)
            w = dict(zip(map(shift.__add__, v), v.values()))
            get = w.get
            for k, c in v.items():
                k = k * n + l
                w[k] = get(k, 0) - c
            v = {k: c for k, c in w.items() if c} if 0 in w.values() else w
            acc, scale = parts[d + j], (-1) ** j * comb(d + j, j)
            get = acc.get
            for k, c in v.items():
                acc[k] = get(k, 0) + scale * c


def _f1_pass(ctx: AlgebraCtx, top: int) -> list[dict[int, int]]:
    """parts[k] = k! f[1, k] as a term map for k = 1..top (parts[0] is empty), from one graded pass.

    See `f1k_direct`.
    """
    n = ctx.n
    parts = [dict.fromkeys(range(2, n + 1), 1)] + [{} for _ in range(top)]
    for l in range(1, n + 1):
        _exp_ad(n, l, parts)
        parts[0].pop(l + 1, None)  # X_(l+1) has passed E_1..E_l: its chains need j1 + ... + jl >= 1
    return parts


def f1k_direct(k: int, ctx: AlgebraCtx) -> AssocPoly:
    """f[1, k] from its nested-ad closed form.

    (-1)^k * sum over i in 2..n and over (j1..jn) >= 0 with j1+...+jn = k
    and j1+...+j(i-1) >= 1 of  ad_{Xn}^{jn} ... ad_{X1}^{j1} X_i / (j1! ... jn!).

    The sum is evaluated as one graded pass, not chain by chain: by
    linearity all i go together, X_2 + ... + X_n through E_1, ..., E_n with
    E_l = sum_j (-1)^j ad_{Xl}^j / j!, which takes the sign (-1)^k in, kept
    as one integer term map per added degree D = j1+...+jl <= k and scaled
    by D!; after E_(i-1) the word X_i, the part of added degree 0 of the
    chains of i, is dropped.  The scaling is exact: D! / (j1! ... jl!) is a
    multinomial coefficient, so E_l maps scaled parts to scaled parts
    through the signed binomials (-1)^j C(D, j) alone, with no Fraction and
    no lcm.  f[1, k] is the part of added degree k over k!, filled into its
    block, which is made before the pass, and reduced once; the lower parts
    of the same pass are f[1, 1], ..., f[1, k-1] (`EngineCtx` keeps them
    all).

    Homogeneous of degree k + 1; identically zero when n = 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k + 1 > ctx.max_degree:
        raise ValueError(
            f"f[1,{k}] has degree {k + 1} > max_degree {ctx.max_degree}"
        )
    nums = zeros(ctx.n, k + 1)  # before the pass: a block that cannot exist fails at once
    return from_block(ctx, k + 1, factorial(k), block_nums(ctx, k + 1, _f1_pass(ctx, k)[k], nums))


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

    `known`, if given, maps m to the reduced block (den, nums) of a W_m
    already at hand (e.g. read back from a cache) and seeds the W_m memo.
    """

    def __init__(self, alg: AlgebraCtx, known: Mapping[int, Block] | None = None):
        self.alg = alg
        self._f_memo: dict[tuple[int, int], Block] = {}
        self._f_polys: dict[tuple[int, int], AssocPoly] = {}
        self._w_blocks: dict[int, Block] = dict(known or {})
        self._w_memo: dict[int, AssocPoly] = {}
        for m, (_, nums) in self._w_blocks.items():
            if len(nums) != alg.n**m:
                raise ValueError(f"a block of W_{m} has {alg.n**m} numerators, got {len(nums)}")

    def fmk(self, m: int, k: int) -> AssocPoly:
        """f[m, k]; every f[1, .] comes from one graded pass, m >= 2 applies the recursion.

        The first f[1, k] asked for fills f[1, 1..K-1] from one pass to
        K - 1 (see `f1k_direct`).  For m >= 2 the sum over j = 0..J,
        J = k // m - 1, is evaluated in Horner form with J brackets:

            acc = f[m-1, k-mJ];  acc = f[m-1, k-mj] - [W_m, acc] / (j+1)  for j = J-1 .. 0,

        which unrolls to sum_j (-1)^j/j! ad_{W_m}^j f[m-1, k-mj]: the term
        of index j passes j brackets, with factors -1/1, -1/2, ..., -1/j.
        The memo holds every f[m, k] as a reduced dense block (see the
        module docstring); the polynomial is made from it on the first call
        for (m, k), and later calls return that same object.
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if k < m:
            raise ValueError(f"f[{m},{k}] is undefined (k < m)")
        if k + 1 > self.alg.max_degree:
            raise ValueError(
                f"f[{m},{k}] has degree {k + 1} > max_degree {self.alg.max_degree}"
            )
        poly = self._f_polys.get((m, k))
        if poly is None:
            poly = self._f_polys.setdefault((m, k), from_block(self.alg, k + 1, *self._block(m, k)))
        return poly

    def _block(self, m: int, k: int) -> Block:
        """The memo block of f[m, k], computed on first use; see `fmk`.

        With one generator every f[m, k] is 0: the zero block, with no
        recursion, whose depth would grow with k.
        """
        if self.alg.n == 1:
            return 1, [0]
        key = (m, k)
        cached = self._f_memo.get(key)
        if cached is not None:
            return cached
        if m == 1:
            top = self.alg.max_degree - 1
            top_nums = zeros(self.alg.n, top + 1)  # before the pass: a block that cannot exist fails at once
            parts = _f1_pass(self.alg, top)
            for kk in range(top, 0, -1):  # each term map is dropped once its block is made
                nums = block_nums(self.alg, kk + 1, parts.pop(), top_nums if kk == top else None)
                self._f_memo.setdefault((1, kk), reduce_block(factorial(kk), nums))
            return self._f_memo[key]
        w = self.w_block(m)
        J = k // m - 1
        value = self._block(m - 1, k - m * J)
        for j in range(J - 1, -1, -1):
            value = bracket_add(self._block(m - 1, k - m * j), w, value, Fraction(-1, j + 1))
        return self._f_memo.setdefault(key, reduce_block(*value) if J else value)

    def w_block(self, m: int) -> Block:
        """The reduced block of W_m = f[max(1, floor((m-1)/2)), m-1] / m, from `known` or the memo if there."""
        if m < 2:
            raise ValueError(f"the splitting exponents start at W_2, got m={m}")
        if m > self.alg.max_degree:
            raise ValueError(f"W_{m} has degree {m} > max_degree {self.alg.max_degree}")
        block = self._w_blocks.get(m)
        if block is None:
            den, nums = self._block(max(1, (m - 1) // 2), m - 1)
            block = self._w_blocks.setdefault(m, reduce_block(den * m, nums))
        return block

    def w_term(self, m: int) -> AssocPoly:
        """W_m, homogeneous of degree m: made from `w_block(m)` on the first call for m, then that same object."""
        poly = self._w_memo.get(m)
        if poly is None:
            poly = self._w_memo.setdefault(m, from_block(self.alg, m, *self.w_block(m)))
        return poly

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

    def series_blocks(self, path: str = "generic") -> Iterator[Block]:
        """Yield the blocks of W_2 .. W_K in order, K = alg.max_degree; the one place that decides the path.

        path="generic" yields them as they are; path="both" also evaluates
        the expanded formulas for m >= 5 and raises PathDisagreementError if
        they ever differ, so each W_m is yielded only after it has passed
        that check.  At n = 1 both sides are 0 term by term, as every
        f[m, k] is, so "both" runs no check: building the term lists alone
        took 15 s up to K = 1000 (2 CPUs, Python 3.11.7).  Bad arguments
        raise ValueError at the first step of the iteration.
        """
        if path not in _PATHS:
            raise ValueError(f"path must be one of {_PATHS}, got {path!r}")
        if self.alg.max_degree < 2:
            raise ValueError(f"max_degree must be >= 2, got {self.alg.max_degree}")
        for m in range(2, self.alg.max_degree + 1):
            block = self.w_block(m)
            if path == "both" and m >= 5 and self.alg.n > 1 and self.w_term_expanded(m) != self.w_term(m):
                raise PathDisagreementError(f"W_{m}: generic recursion and expanded formula disagree")
            yield block


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


_PATHS = ("generic", "both")


def series(ectx: EngineCtx, path: str = "generic") -> Iterator[AssocPoly]:
    """Yield W_2 .. W_K in order, K = ectx.alg.max_degree: `EngineCtx.series_blocks` as polynomials."""
    for m, _ in enumerate(ectx.series_blocks(path), start=2):
        yield ectx.w_term(m)
