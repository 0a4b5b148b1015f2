"""Commutator-shaped Lie expressions and their associative expansion.

A `CommTerm` is a rational multiple of a "long commutator"

    [X_j X_{i1}^{k1} X_{i2}^{k2} ... X_{il}^{kl}]
      = [[...[[X_j, X_{i1}], X_{i1}], ...], X_{il}]

i.e. the left-nested bracket whose first entry is the head generator X_j
followed by each tail generator X_{is} repeated k_s times.  A `LieExpr`
is a sum of such terms.  Two expressions are compared through their
associative expansions (`expand`); no Jacobi/antisymmetry normalization
is attempted on the commutator form itself.

Text grammar (the `render(e, "text")` / `parse(s)` round trip):

    expr   := "0" | ["-"] term ( (" + " | " - ") term )*
    term   := [coeff "*"] "[" factor (" " factor)* "]"
    coeff  := INT [ "/" INT ]
    factor := "X" INT [ "^" INT ]

The first factor of a term is the head; the remaining factors form the
tail, with "^" giving the multiplicity (default 1).  Example:

    1/3*[X2 X1 X2] + 1/6*[X2 X1^2]

LaTeX output renders each term as an explicitly left-nested bracket,
e.g. ``\\frac{1}{6}[[X_{2}, X_{1}], X_{1}]``; there is no LaTeX parser.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from operator import sub
from typing import Iterable, Iterator

from .freealg import AlgebraCtx, AssocPoly, Frozen, Scalar, _exact, bracket, generators, poly_sum, signed_sum, zeros

Composition = tuple[int, ...]


def compositions(k: int) -> list[Composition]:
    """All 2^(k-1) ordered decompositions of k into positive parts.

    Deterministic order: by length, then lexicographic.  A composition of
    l parts is given by its l - 1 cut points in 1..k-1, and the cut tuples
    in lexicographic order give the compositions in lexicographic order.
    The list is made at full length first, so a k whose compositions
    cannot exist fails at once with MemoryError.
    """
    if k < 1:
        raise ValueError(f"compositions are defined for k >= 1, got {k}")
    out: list = zeros(2, k - 1)
    i = 0
    for n_cuts in range(k):
        for cuts in combinations(range(1, k), n_cuts):
            out[i] = tuple(map(sub, (*cuts, k), (0, *cuts)))
            i += 1
    return out


def _check_index(what: str, value: object) -> None:
    """A generator index or multiplicity is an int >= 1: a bool or a float would render as "XTrue" or "X1.0"."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{what} must be an int >= 1, got {value!r}")


class CommTerm(Frozen):
    """coeff * [X_head X_{i1}^{k1} ... X_{il}^{kl}] in left-nested convention."""

    __slots__ = _fields = ("coeff", "head", "tail")
    coeff: Fraction
    head: int
    tail: tuple[tuple[int, int], ...]

    def __init__(self, coeff: Scalar, head: int, tail: Iterable[tuple[int, int]]) -> None:
        _check_index("head index", head)
        merged: list[tuple[int, int]] = []
        for idx, mult in tail:
            _check_index("tail index", idx)
            _check_index("multiplicity", mult)
            if merged and merged[-1][0] == idx:
                merged[-1] = (idx, merged[-1][1] + mult)
            else:
                merged.append((idx, mult))
        self._init(_exact(coeff), head, tuple(merged))

    @property
    def degree(self) -> int:
        return 1 + sum(mult for _, mult in self.tail)

    @property
    def shape(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        return (self.head, self.tail)

    def letters(self) -> Iterator[int]:
        """Tail letters in bracketing order, multiplicities unrolled."""
        for idx, mult in self.tail:
            for _ in range(mult):
                yield idx

    def scaled(self, scalar: Scalar) -> "CommTerm":
        return CommTerm(self.coeff * _exact(scalar), self.head, self.tail)

    def sort_key(self) -> tuple:
        return (self.degree, self.head, self.tail)


class LieExpr(Frozen):
    """A sum of CommTerms, canonicalized: like shapes combined, zeros dropped."""

    __slots__ = _fields = ("terms",)
    terms: tuple[CommTerm, ...]

    def __init__(self, terms: Iterable[CommTerm] = ()):
        acc: dict[tuple, CommTerm] = {}
        for t in terms:
            key = t.shape
            prev = acc.get(key)
            if prev is None:
                acc[key] = t
            else:
                acc[key] = CommTerm(prev.coeff + t.coeff, t.head, t.tail)
        combined = tuple(
            sorted((t for t in acc.values() if t.coeff), key=CommTerm.sort_key)
        )
        self._init(combined)

    def __iter__(self) -> Iterator[CommTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    __hash__ = None  # unhashable like the AssocPoly it expands to: a sum is compared, never used as a key

    def __add__(self, other: "LieExpr") -> "LieExpr":
        if not isinstance(other, LieExpr):
            return NotImplemented
        return LieExpr(self.terms + other.terms)

    def __neg__(self) -> "LieExpr":
        return self.scaled(-1)

    def scaled(self, scalar: Scalar) -> "LieExpr":
        return LieExpr(t.scaled(scalar) for t in self.terms)

    def expand(self, ctx: AlgebraCtx) -> AssocPoly:
        return expand(self, ctx)

    def __repr__(self) -> str:
        return f"LieExpr({render(self, 'text')})"


def expand_term(t: CommTerm, ctx: AlgebraCtx) -> AssocPoly:
    """Associative expansion of one long commutator, scaled by its coefficient."""
    if t.head > ctx.n or any(idx > ctx.n for idx, _ in t.tail):
        raise ValueError(f"term {t!r} uses generators beyond n={ctx.n}")
    if t.degree > ctx.max_degree:
        raise ValueError(f"term degree {t.degree} exceeds max_degree {ctx.max_degree}")
    poly = AssocPoly.generator(ctx, t.head)
    for letter in t.letters():
        poly = bracket(poly, AssocPoly.generator(ctx, letter))
    return poly.scaled(t.coeff)


def expand(e: LieExpr, ctx: AlgebraCtx) -> AssocPoly:
    return poly_sum(ctx, [expand_term(t, ctx) for t in e])


def dsw_project(a: AssocPoly) -> AssocPoly:
    """Dynkin-Specht-Wever projection of a homogeneous polynomial.

    Sends each degree-d word x1 x2 ... xd to [[...[x1, x2], ...], xd] / d.
    Fixes exactly the Lie elements, so `dsw_project(a) == a` is a
    Lie-membership test.  The zero polynomial (homogeneous of every
    degree) maps to zero; nonzero inputs must be homogeneous of degree
    at least 1.
    """
    if a.is_zero:
        return a
    d = a.homogeneous_degree()
    if d is None:
        raise ValueError("dsw_project requires a homogeneous polynomial")
    if d == 0:
        raise ValueError("dsw_project is undefined in degree 0")
    gens = generators(a.ctx)
    words, nums, den = a.numerators()
    pieces: list[AssocPoly] = []
    for word in words:
        nested = gens[word[0] - 1]
        for letter in word[1:]:
            nested = bracket(nested, gens[letter - 1])
        pieces.append(nested)
    return poly_sum(a.ctx, pieces, [Fraction(c, d * den) for c in nums])


# -- rendering ---------------------------------------------------------------


def _term_body_text(t: CommTerm) -> str:
    factors = [f"X{t.head}"]
    for idx, mult in t.tail:
        factors.append(f"X{idx}" if mult == 1 else f"X{idx}^{mult}")
    return "[" + " ".join(factors) + "]"


def _term_latex(t: CommTerm) -> str:
    s = f"X_{{{t.head}}}"
    for letter in t.letters():
        s = f"[{s}, X_{{{letter}}}]"
    return s


def render(e: LieExpr, format: str = "text") -> str:
    """Deterministic rendering of a LieExpr; `format` is "text" or "latex"."""
    body = _term_body_text if format == "text" else _term_latex  # signed_sum rejects other formats
    return signed_sum(((t.coeff.numerator, t.coeff.denominator, body(t)) for t in e.terms), format)


# -- parsing (text format only) ----------------------------------------------

_TERM_RE = re.compile(
    r"""
    (?:(?P<num>\d+)(?:/(?P<den>\d+))?\*)?   # optional coefficient "p*" or "p/q*"
    \[(?P<body>[^\]]+)\]                    # bracket body
    """,
    re.VERBOSE,
)
_FACTOR_RE = re.compile(r"X(?P<idx>\d+)(?:\^(?P<mult>\d+))?$")


class LieExprParseError(ValueError):
    pass


def parse(s: str) -> LieExpr:
    """Parse the text rendering back into a LieExpr."""
    s = s.strip()
    if s == "0":
        return LieExpr()
    if not s:
        raise LieExprParseError("empty input")
    # Split into signed chunks on top-level " + " / " - " separators.
    terms: list[CommTerm] = []
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    chunks = re.split(r"\s*([+-])\s*", s)
    pending = [(sign, chunks[0])]
    for op, chunk in zip(chunks[1::2], chunks[2::2]):
        pending.append((1 if op == "+" else -1, chunk))
    for sgn, chunk in pending:
        chunk = chunk.strip()
        m = _TERM_RE.fullmatch(chunk)
        if not m:
            raise LieExprParseError(f"cannot parse term {chunk!r}")
        num = int(m.group("num")) if m.group("num") else 1
        den = int(m.group("den")) if m.group("den") else 1
        if den == 0:
            raise LieExprParseError(f"zero denominator in {chunk!r}")
        factors = m.group("body").split()
        if not factors:
            raise LieExprParseError(f"empty bracket in {chunk!r}")
        parsed: list[tuple[int, int]] = []
        for f in factors:
            fm = _FACTOR_RE.fullmatch(f)
            if not fm:
                raise LieExprParseError(f"cannot parse factor {f!r} in {chunk!r}")
            parsed.append((int(fm.group("idx")), int(fm.group("mult") or 1)))
        head_idx, head_mult = parsed[0]
        if head_mult != 1:
            raise LieExprParseError(f"head factor cannot carry a multiplicity: {chunk!r}")
        terms.append(CommTerm(Fraction(sgn * num, den), head_idx, tuple(parsed[1:])))
    return LieExpr(terms)
