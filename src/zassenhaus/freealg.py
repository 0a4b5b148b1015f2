"""Exact arithmetic in the degree-truncated free associative algebra.

Elements live in Q<X1, ..., Xn> / (words of degree > K): noncommutative
polynomials with rational coefficients, truncated so that every product
drops words longer than the context's maximum degree.  A word is a tuple
of generator indices (1-based); the empty tuple is the unit monomial.

A polynomial stores integer numerators over one common denominator: the
coefficient of word w is `_terms[w] / _den`, with `_den` a positive int.
The form is canonical -- no zero numerators, gcd(_den, all numerators)
== 1, and `_den == 1` for the zero polynomial -- so equality is
structural and all arithmetic runs on Python ints.  `fractions.Fraction`
appears only at the API boundary: constructors and `scaled` accept int or
Fraction scalars, and `terms`, `coeff`, `constant_term` and
`max_abs_coeff` return Fractions.  `numerators` hands out the stored
form itself (words in canonical order), and `from_numerators` takes it
back after checking that it is canonical, without any Fraction.
Everything is exact, and every equality test in this package is a
zero-tolerance test.  Letters are ints in 1..n (not bools or floats).

Lie elements are represented associatively via [A, B] = A*B - B*A; see
`bracket` and `ad_pow`.  Exponentials and logarithms of elements without
constant term (resp. with constant term 1) are finite sums here because
of the truncation.

`signed_sum` is the one writer of signed rational sums, in text and
LaTeX: `AssocPoly.text` and `latex` hand it monomials, and
`lieform.render` hands it commutators.

Canonical term order is degree ascending, then lexicographic on the
letters.  The canonical JSON form of a polynomial is

    {"n": ..., "maxDegree": ..., "terms": [{"word": [i1, ...], "coeff": "p/q"}, ...]}

with terms in canonical order and coefficients as reduced fractions with
positive denominator.

All values are immutable after construction and all operations are pure,
so values may be freely shared between threads.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

Word = tuple[int, ...]
Scalar = Union[int, Fraction]


class ContextMismatchError(ValueError):
    """Raised when two polynomials from different algebra contexts are combined."""


@dataclass(frozen=True)
class AlgebraCtx:
    """Ambient algebra: number of generators `n` and truncation degree `max_degree`."""

    n: int
    max_degree: int

    def __post_init__(self) -> None:
        if type(self.n) is not int or type(self.max_degree) is not int:
            raise ValueError(f"n and max_degree must be ints, got {self.n!r} and {self.max_degree!r}")
        if self.n < 1:
            raise ValueError(f"need at least one generator, got n={self.n}")
        if self.max_degree < 1:
            raise ValueError(f"truncation degree must be >= 1, got {self.max_degree}")

    def check_word(self, word: Word) -> None:
        if len(word) > self.max_degree:
            raise ValueError(
                f"word {word!r} has degree {len(word)} > max_degree {self.max_degree}"
            )
        for letter in word:
            # bool is an int subclass but no letter; floats such as 1.0 would render as "X1.0".
            if type(letter) is not int or not 1 <= letter <= self.n:
                raise ValueError(f"letter {letter!r} is not an int in 1..{self.n} in {word!r}")


def word_key(word: Word) -> tuple[int, Word]:
    """Sort key for the canonical order: degree ascending, then lexicographic."""
    return (len(word), word)


def canonical_words(words: Iterable[Word]) -> list[Word]:
    """`words` sorted by `word_key`: a stable sort by length of the lexicographic order."""
    return sorted(sorted(words), key=len)


def _require_same_ctx(a: "AssocPoly", b: "AssocPoly") -> None:
    if a.ctx != b.ctx:
        raise ContextMismatchError(f"context mismatch: {a.ctx} vs {b.ctx}")


class AssocPoly:
    """A truncated noncommutative polynomial: word -> int numerator over `_den`.

    Instances are immutable; arithmetic returns new values.  The stored
    form is canonical (see the module docstring).
    """

    __slots__ = ("ctx", "_terms", "_den")

    def __init__(self, ctx: AlgebraCtx, terms: Mapping[Word, Scalar] | Iterable[tuple[Word, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Word, Fraction] = {}
        for word, coeff in items:
            word = tuple(word)
            ctx.check_word(word)
            c = Fraction(coeff)
            acc[word] = acc[word] + c if word in acc else c
        # Over the lcm of the reduced denominators the form is already canonical.
        den = lcm(*(c.denominator for c in acc.values()))
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_terms", {w: c.numerator * (den // c.denominator) for w, c in acc.items() if c})
        object.__setattr__(self, "_den", den)

    @classmethod
    def _make(cls, ctx: AlgebraCtx, terms: dict[Word, int], den: int = 1) -> "AssocPoly":
        # Trusted constructor: (terms, den) already canonical, words validated.
        self = object.__new__(cls)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_den", den)
        return self

    @classmethod
    def _reduce(cls, ctx: AlgebraCtx, terms: dict[Word, int], den: int) -> "AssocPoly":
        """Canonical form of sum(terms[w] / den * w): zeros dropped, common factor cancelled."""
        g = gcd(den, *terms.values())  # zeros leave the gcd unchanged
        if g != 1:
            den //= g
            terms = {w: c // g for w, c in terms.items() if c}
        elif 0 in terms.values():
            terms = {w: c for w, c in terms.items() if c}
        return cls._make(ctx, terms, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("AssocPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: AlgebraCtx) -> "AssocPoly":
        return cls._make(ctx, {})

    @classmethod
    def one(cls, ctx: AlgebraCtx) -> "AssocPoly":
        return cls._make(ctx, {(): 1})

    @classmethod
    def generator(cls, ctx: AlgebraCtx, i: int) -> "AssocPoly":
        if type(i) is not int or not 1 <= i <= ctx.n:
            raise ValueError(f"generator index {i!r} out of range 1..{ctx.n}")
        return cls._make(ctx, {(i,): 1})

    @classmethod
    def monomial(cls, ctx: AlgebraCtx, word: Word, coeff: Scalar = 1) -> "AssocPoly":
        word = tuple(word)
        ctx.check_word(word)
        c = Fraction(coeff)
        return cls._make(ctx, {word: c.numerator}, c.denominator) if c else cls._make(ctx, {})

    @classmethod
    def from_numerators(cls, ctx: AlgebraCtx, words: Sequence[Word], nums: Sequence[int], den: int) -> "AssocPoly":
        """sum(nums[i] / den * words[i]) from its canonical integer form; inverse of `numerators`.

        The form must already be canonical: distinct words in canonical order,
        every letter an int in 1..n, nonzero int numerators and a positive int
        `den` sharing no factor with them.  Nothing is normalised, so each
        polynomial has exactly one accepted form; anything else raises ValueError.
        """
        words = list(map(tuple, words))
        letters = list(chain.from_iterable(words))
        if type(den) is not int or den < 1:
            raise ValueError(f"denominator must be a positive int, got {den!r}")
        if len(words) != len(nums):
            raise ValueError(f"{len(words)} words but {len(nums)} numerators")
        if set(map(type, letters)) - {int} or not all(1 <= i <= ctx.n for i in set(letters)):
            raise ValueError(f"every letter must be an int in 1..{ctx.n}")
        if max(map(len, words), default=0) > ctx.max_degree:
            raise ValueError(f"a word is longer than max_degree {ctx.max_degree}")
        if set(map(type, nums)) - {int} or 0 in nums:
            raise ValueError("every numerator must be a nonzero int")
        if gcd(den, *nums) != 1:
            raise ValueError("numerators and denominator share a common factor")
        terms = dict(zip(words, nums))
        if len(terms) != len(words) or canonical_words(terms) != words:
            raise ValueError("words must be distinct and in canonical order")
        return cls._make(ctx, terms, den)

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[Word, Fraction]]:
        """All (word, coeff) pairs in canonical order."""
        terms, den = self._terms, self._den
        return [(w, Fraction(terms[w], den)) for w in canonical_words(terms)]

    def numerators(self) -> tuple[list[Word], list[int], int]:
        """(words, numerators, denominator), words in canonical order; see `from_numerators`."""
        terms = self._terms
        words = canonical_words(terms)
        return words, [terms[w] for w in words], self._den

    def _reduced_terms(self) -> Iterator[tuple[Word, int, int]]:
        """(word, p, q) in canonical order, p/q the coefficient in lowest terms."""
        terms, den = self._terms, self._den
        for w in canonical_words(terms):
            c = terms[w]
            g = gcd(c, den)
            yield w, c // g, den // g

    def coeff(self, word: Word) -> Fraction:
        return Fraction(self._terms.get(tuple(word), 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get((), 0), self._den)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def degrees(self) -> set[int]:
        return set(map(len, self._terms))

    def homogeneous_degree(self) -> int | None:
        """The common degree of all words, or None if mixed or zero."""
        degs = self.degrees()
        if len(degs) == 1:
            return degs.pop()
        return None

    def max_abs_coeff(self) -> Fraction:
        return Fraction(max(map(abs, self._terms.values()), default=0), self._den)

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AssocPoly):
            return NotImplemented
        return self.ctx == other.ctx and self._den == other._den and self._terms == other._terms

    __hash__ = None  # mutable-dict backed; identity hashing would be a trap

    def __add__(self, other: "AssocPoly") -> "AssocPoly":
        if not isinstance(other, AssocPoly):
            return NotImplemented
        _require_same_ctx(self, other)
        return _sum(self.ctx, (self, other))

    def __sub__(self, other: "AssocPoly") -> "AssocPoly":
        if not isinstance(other, AssocPoly):
            return NotImplemented
        _require_same_ctx(self, other)
        return _sum(self.ctx, (self, -other))

    def __neg__(self) -> "AssocPoly":
        return AssocPoly._make(self.ctx, {w: -c for w, c in self._terms.items()}, self._den)

    def scaled(self, scalar: Scalar) -> "AssocPoly":
        s = Fraction(scalar)
        if not s:
            return AssocPoly.zero(self.ctx)
        if s == 1:
            return self
        terms, den = self._terms, self._den
        # p cancels against the denominator, q against the numerators; both stay coprime after.
        g = gcd(s.numerator, den)
        h = gcd(s.denominator, *terms.values())
        p, q = s.numerator // g, s.denominator // h
        if h != 1 or p != 1:
            terms = {w: c // h * p for w, c in terms.items()}
        return AssocPoly._make(self.ctx, terms, den // g * q)

    def __mul__(self, other: "AssocPoly | Scalar") -> "AssocPoly":
        if isinstance(other, AssocPoly):
            return mul(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other: Scalar) -> "AssocPoly":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    # -- grading -----------------------------------------------------------

    def degree_component(self, d: int) -> "AssocPoly":
        """Restriction to words of degree exactly d."""
        if d < 0 or d > self.ctx.max_degree:
            raise ValueError(f"degree {d} outside 0..{self.ctx.max_degree}")
        return AssocPoly._reduce(self.ctx, {w: c for w, c in self._terms.items() if len(w) == d}, self._den)

    def restricted(self, max_degree: int) -> "AssocPoly":
        """The same polynomial in the shallower context (n, max_degree)."""
        new_ctx = AlgebraCtx(self.ctx.n, max_degree)
        return AssocPoly._reduce(
            new_ctx, {w: c for w, c in self._terms.items() if len(w) <= max_degree}, self._den
        )

    # -- rendering / serialization ------------------------------------------

    def __repr__(self) -> str:
        return f"AssocPoly(n={self.ctx.n}, K={self.ctx.max_degree}, {self.text()})"

    def text(self) -> str:
        """Deterministic plain-text rendering, terms in canonical order."""
        name = [f"X{i}" for i in range(self.ctx.n + 1)]  # name[i] renders letter i
        return signed_sum((p, q, "*".join([name[i] for i in w])) for w, p, q in self._reduced_terms())

    def latex(self) -> str:
        """LaTeX rendering, terms in canonical order and joined without spaces."""
        name = [f"X_{{{i}}}" for i in range(self.ctx.n + 1)]
        terms = ((p, q, "".join([name[i] for i in w])) for w, p, q in self._reduced_terms())
        return signed_sum(terms, "latex", space="")

    def to_json_dict(self) -> dict:
        """Canonical JSON form; see the module docstring."""
        return {
            "n": self.ctx.n,
            "maxDegree": self.ctx.max_degree,
            "terms": [{"word": list(word), "coeff": f"{p}/{q}"} for word, p, q in self._reduced_terms()],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "AssocPoly":
        ctx = AlgebraCtx(int(payload["n"]), int(payload["maxDegree"]))
        return cls(ctx, [(t["word"], t["coeff"]) for t in payload["terms"]])  # the constructor parses "p/q"


def format_fraction(c: Fraction) -> str:
    """Reduced "p/q" string with explicit positive denominator."""
    return f"{c.numerator}/{c.denominator}"


def signed_sum(terms: Iterable[tuple[int, int, str]], format: str = "text", space: str = " ") -> str:
    """The sum of p/q * body over (p, q, body) triples, p/q in lowest terms and q > 0.

    A coefficient prints as "p/q*body" in text and "\\frac{p}{q}body" in
    LaTeX.  A magnitude of 1 is omitted beside a nonempty body; an empty body
    (the constant word) prints the bare magnitude.  Signs go into the
    separators, `space` + "+" or "-" + `space`, and a leading term carries only
    a minus.  The empty sum is "0".
    """
    if format == "text":
        times, fraction = "*", "%d/%d"
    elif format == "latex":
        times, fraction = "", "\\frac{%d}{%d}"
    else:
        raise ValueError(f"unknown format {format!r}")
    plus, minus = f"{space}+{space}", f"{space}-{space}"
    pos, neg = "", "-"  # the separators of the leading term
    parts: list[str] = []
    for p, q, body in terms:
        mag = abs(p)
        if q != 1:
            coeff = fraction % (mag, q)
        elif mag != 1 or not body:
            coeff = str(mag)
        else:
            coeff = ""
        parts.append(neg if p < 0 else pos)
        parts.append(f"{coeff}{times}{body}" if coeff and body else coeff or body)
        pos, neg = plus, minus
    return "".join(parts) or "0"


# -- ring operations ---------------------------------------------------------


def _blocks(a: AssocPoly, b: AssocPoly) -> Iterable[tuple[Iterable, Iterable]]:
    """(a-items, b-items) blocks whose word pairs are exactly those of degree <= max_degree."""
    ta, tb = a._terms, b._terms
    if not ta or not tb:
        return ()
    cap = a.ctx.max_degree
    degs_a, degs_b = set(map(len, ta)), set(map(len, tb))
    if max(degs_a) + max(degs_b) <= cap:
        # No pair truncates: one degree check for homogeneous operands.
        return ((ta.items(), tb.items()),)
    if min(degs_a) + min(degs_b) > cap:
        return ()
    # Truncating product of mixed degrees (exp_trunc, log_trunc): one block per degree d
    # of a, against the words of b, sorted by degree, that fit beside it.
    words_a, words_b = sorted(ta, key=len), sorted(tb, key=len)
    lens_a, lens_b = list(map(len, words_a)), list(map(len, words_b))
    items_b = [(w, tb[w]) for w in words_b]
    blocks = []
    lo = 0
    while lo < len(words_a):
        d = lens_a[lo]
        hi = bisect_right(lens_a, d, lo)
        blocks.append(([(w, ta[w]) for w in words_a[lo:hi]], items_b[: bisect_right(lens_b, cap - d)]))
        lo = hi
    return blocks


def _product(a: AssocPoly, b: AssocPoly, commutator: bool) -> AssocPoly:
    """a*b, or [a, b] = a*b - b*a when `commutator`, on the integer numerators."""
    _require_same_ctx(a, b)
    out: dict[Word, int] = {}
    get = out.get
    for items_a, items_b in _blocks(a, b):
        for wa, ca in items_a:
            for wb, cb in items_b:
                c = ca * cb
                w = wa + wb
                out[w] = get(w, 0) + c
                if commutator:
                    w = wb + wa
                    out[w] = get(w, 0) - c
    return AssocPoly._reduce(a.ctx, out, a._den * b._den)


def mul(a: AssocPoly, b: AssocPoly) -> AssocPoly:
    """Concatenation product; words of degree > max_degree are dropped eagerly."""
    return _product(a, b, False)


def bracket(a: AssocPoly, b: AssocPoly) -> AssocPoly:
    """Commutator [a, b] = a*b - b*a."""
    return _product(a, b, True)


def ad_pow(a: AssocPoly, p: int, b: AssocPoly) -> AssocPoly:
    """p-fold nested commutator ad_a^p(b) = [a, [a, ... [a, b]]]; p = 0 gives b."""
    if p < 0:
        raise ValueError(f"ad power must be nonnegative, got {p}")
    _require_same_ctx(a, b)
    out = b
    for _ in range(p):
        if out.is_zero:
            break
        out = bracket(a, out)
    return out


def exp_trunc(a: AssocPoly) -> AssocPoly:
    """Truncated exponential sum_{p<=K} a^p / p!; requires zero constant term."""
    if a.constant_term():
        raise ValueError("exp_trunc requires a zero constant term")
    acc = AssocPoly.one(a.ctx)
    power = acc
    for p in range(1, a.ctx.max_degree + 1):
        power = mul(power, a).scaled(Fraction(1, p))
        if power.is_zero:
            break
        acc = acc + power
    return acc


def log_trunc(a: AssocPoly) -> AssocPoly:
    """Truncated logarithm sum_{p<=K} (-1)^(p+1) (a-1)^p / p; requires constant term 1."""
    if a.constant_term() != 1:
        raise ValueError("log_trunc requires constant term equal to 1")
    u = a - AssocPoly.one(a.ctx)
    acc = u
    power = u
    for p in range(2, a.ctx.max_degree + 1):
        power = mul(power, u)
        if power.is_zero:
            break
        acc = acc + power.scaled(Fraction((-1) ** (p + 1), p))
    return acc


def _sum(ctx: AlgebraCtx, polys: Sequence[AssocPoly]) -> AssocPoly:
    # Each numerator is lifted to the lcm of the denominators.
    den = lcm(*(p._den for p in polys))
    out: dict[Word, int] = {}
    get = out.get
    for p in polys:
        f = den // p._den
        for w, c in p._terms.items():
            out[w] = get(w, 0) + c * f
    return AssocPoly._reduce(ctx, out, den)


def poly_sum(ctx: AlgebraCtx, polys: Iterable[AssocPoly]) -> AssocPoly:
    """Sum of many polynomials in one pass."""
    polys = list(polys)
    for p in polys:
        if p.ctx != ctx:
            raise ContextMismatchError(f"context mismatch: {p.ctx} vs {ctx}")
    return _sum(ctx, polys)


def generators(ctx: AlgebraCtx) -> list[AssocPoly]:
    """[X1, ..., Xn] as polynomials."""
    return [AssocPoly.generator(ctx, i) for i in range(1, ctx.n + 1)]
