"""Exact arithmetic in the degree-truncated free associative algebra.

Elements live in Q<X1, ..., Xn> / (words of degree > K): noncommutative
polynomials with rational coefficients, truncated so that every product
drops words longer than the context's maximum degree.  A word is a tuple
of generator indices (1-based); the empty tuple is the unit monomial.
Coefficients are `fractions.Fraction`, so all arithmetic is exact and
every equality test in this package is a zero-tolerance test.

Lie elements are represented associatively via [A, B] = A*B - B*A; see
`bracket` and `ad_pow`.  Exponentials and logarithms of elements without
constant term (resp. with constant term 1) are finite sums here because
of the truncation.

Canonical term order is degree ascending, then lexicographic on the
letters.  The canonical JSON form of a polynomial is

    {"n": ..., "maxDegree": ..., "terms": [{"word": [i1, ...], "coeff": "p/q"}, ...]}

with terms in canonical order and coefficients as reduced fractions with
positive denominator.

All values are immutable after construction and all operations are pure,
so values may be freely shared between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Word = tuple[int, ...]
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ContextMismatchError(ValueError):
    """Raised when two polynomials from different algebra contexts are combined."""


@dataclass(frozen=True)
class AlgebraCtx:
    """Ambient algebra: number of generators `n` and truncation degree `max_degree`."""

    n: int
    max_degree: int

    def __post_init__(self) -> None:
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
            if not 1 <= letter <= self.n:
                raise ValueError(f"letter {letter} out of range 1..{self.n} in {word!r}")


def word_key(word: Word) -> tuple[int, Word]:
    """Sort key for the canonical order: degree ascending, then lexicographic."""
    return (len(word), word)


def _require_same_ctx(a: "AssocPoly", b: "AssocPoly") -> None:
    if a.ctx != b.ctx:
        raise ContextMismatchError(f"context mismatch: {a.ctx} vs {b.ctx}")


class AssocPoly:
    """A truncated noncommutative polynomial: sparse map word -> Fraction.

    Instances are immutable; arithmetic returns new values.  Zero
    coefficients are never stored.
    """

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx: AlgebraCtx, terms: Mapping[Word, Scalar] | Iterable[tuple[Word, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Word, Fraction] = {}
        for word, coeff in items:
            word = tuple(word)
            ctx.check_word(word)
            c = acc.get(word, _ZERO) + Fraction(coeff)
            if c:
                acc[word] = c
            else:
                acc.pop(word, None)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_terms", acc)

    @classmethod
    def _make(cls, ctx: AlgebraCtx, terms: dict[Word, Fraction]) -> "AssocPoly":
        # Trusted constructor: terms already canonical (validated words, no zeros).
        self = object.__new__(cls)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("AssocPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: AlgebraCtx) -> "AssocPoly":
        return cls._make(ctx, {})

    @classmethod
    def one(cls, ctx: AlgebraCtx) -> "AssocPoly":
        return cls._make(ctx, {(): _ONE})

    @classmethod
    def generator(cls, ctx: AlgebraCtx, i: int) -> "AssocPoly":
        if not 1 <= i <= ctx.n:
            raise ValueError(f"generator index {i} out of range 1..{ctx.n}")
        return cls._make(ctx, {(i,): _ONE})

    @classmethod
    def monomial(cls, ctx: AlgebraCtx, word: Word, coeff: Scalar = 1) -> "AssocPoly":
        word = tuple(word)
        ctx.check_word(word)
        c = Fraction(coeff)
        return cls._make(ctx, {word: c} if c else {})

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[Word, Fraction]]:
        """All (word, coeff) pairs in canonical order."""
        return sorted(self._terms.items(), key=lambda it: word_key(it[0]))

    def coeff(self, word: Word) -> Fraction:
        return self._terms.get(tuple(word), _ZERO)

    def constant_term(self) -> Fraction:
        return self._terms.get((), _ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def degrees(self) -> set[int]:
        return {len(w) for w in self._terms}

    def homogeneous_degree(self) -> int | None:
        """The common degree of all words, or None if mixed or zero."""
        degs = self.degrees()
        if len(degs) == 1:
            return degs.pop()
        return None

    def max_abs_coeff(self) -> Fraction:
        return max((abs(c) for c in self._terms.values()), default=_ZERO)

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AssocPoly):
            return NotImplemented
        return self.ctx == other.ctx and self._terms == other._terms

    __hash__ = None  # mutable-dict backed; identity hashing would be a trap

    def __add__(self, other: "AssocPoly") -> "AssocPoly":
        if not isinstance(other, AssocPoly):
            return NotImplemented
        _require_same_ctx(self, other)
        small, big = sorted((self._terms, other._terms), key=len)
        out = dict(big)
        for word, c in small.items():
            s = out.get(word, _ZERO) + c
            if s:
                out[word] = s
            else:
                del out[word]
        return AssocPoly._make(self.ctx, out)

    def __sub__(self, other: "AssocPoly") -> "AssocPoly":
        if not isinstance(other, AssocPoly):
            return NotImplemented
        _require_same_ctx(self, other)
        out = dict(self._terms)
        for word, c in other._terms.items():
            s = out.get(word, _ZERO) - c
            if s:
                out[word] = s
            else:
                del out[word]
        return AssocPoly._make(self.ctx, out)

    def __neg__(self) -> "AssocPoly":
        return AssocPoly._make(self.ctx, {w: -c for w, c in self._terms.items()})

    def scaled(self, scalar: Scalar) -> "AssocPoly":
        c = Fraction(scalar)
        if not c:
            return AssocPoly.zero(self.ctx)
        if c == 1:
            return self
        return AssocPoly._make(self.ctx, {w: c * v for w, v in self._terms.items()})

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
        return AssocPoly._make(self.ctx, {w: c for w, c in self._terms.items() if len(w) == d})

    def restricted(self, max_degree: int) -> "AssocPoly":
        """The same polynomial in the shallower context (n, max_degree)."""
        new_ctx = AlgebraCtx(self.ctx.n, max_degree)
        return AssocPoly._make(
            new_ctx, {w: c for w, c in self._terms.items() if len(w) <= max_degree}
        )

    # -- rendering / serialization ------------------------------------------

    def __repr__(self) -> str:
        return f"AssocPoly(n={self.ctx.n}, K={self.ctx.max_degree}, {self.text()})"

    def text(self) -> str:
        """Deterministic plain-text rendering, terms in canonical order."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for word, c in self.terms():
            mono = "1" if not word else "*".join(f"X{i}" for i in word)
            mag = abs(c)
            body = mono if mag == 1 and word else (f"{mag}" if not word else f"{mag}*{mono}")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def latex(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for word, c in self.terms():
            coeff = _latex_signed_coeff(c, follows_term=bool(parts), omit_one=bool(word))
            mono = "".join(f"X_{{{i}}}" for i in word)
            parts.append(coeff + mono)
        return "".join(parts)

    def to_json_dict(self) -> dict:
        """Canonical JSON form; see the module docstring."""
        return {
            "n": self.ctx.n,
            "maxDegree": self.ctx.max_degree,
            "terms": [
                {"word": list(word), "coeff": format_fraction(c)}
                for word, c in self.terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "AssocPoly":
        ctx = AlgebraCtx(int(payload["n"]), int(payload["maxDegree"]))
        terms = [(tuple(t["word"]), Fraction(t["coeff"])) for t in payload["terms"]]
        return cls(ctx, terms)


def format_fraction(c: Fraction) -> str:
    """Reduced "p/q" string with explicit positive denominator."""
    return f"{c.numerator}/{c.denominator}"


def _latex_signed_coeff(c: Fraction, follows_term: bool, omit_one: bool) -> str:
    sign = "-" if c < 0 else ("+" if follows_term else "")
    mag = abs(c)
    if mag == 1 and omit_one:
        return sign
    if mag.denominator == 1:
        return f"{sign}{mag.numerator}"
    return f"{sign}\\frac{{{mag.numerator}}}{{{mag.denominator}}}"


# -- ring operations ---------------------------------------------------------


def _buckets(terms: dict[Word, Fraction]) -> dict[int, list[tuple[Word, Fraction]]]:
    out: dict[int, list[tuple[Word, Fraction]]] = {}
    for w, c in terms.items():
        out.setdefault(len(w), []).append((w, c))
    return out


def mul(a: AssocPoly, b: AssocPoly) -> AssocPoly:
    """Concatenation product; words of degree > max_degree are dropped eagerly."""
    _require_same_ctx(a, b)
    cap = a.ctx.max_degree
    out: dict[Word, Fraction] = {}
    bb = _buckets(b._terms)
    for da, items_a in _buckets(a._terms).items():
        for db, items_b in bb.items():
            if da + db > cap:
                continue
            for wa, ca in items_a:
                for wb, cb in items_b:
                    w = wa + wb
                    out[w] = out.get(w, _ZERO) + ca * cb
    return AssocPoly._make(a.ctx, {w: c for w, c in out.items() if c})


def bracket(a: AssocPoly, b: AssocPoly) -> AssocPoly:
    """Commutator [a, b] = a*b - b*a."""
    _require_same_ctx(a, b)
    cap = a.ctx.max_degree
    out: dict[Word, Fraction] = {}
    bb = _buckets(b._terms)
    for da, items_a in _buckets(a._terms).items():
        for db, items_b in bb.items():
            if da + db > cap:
                continue
            for wa, ca in items_a:
                for wb, cb in items_b:
                    c = ca * cb
                    w = wa + wb
                    out[w] = out.get(w, _ZERO) + c
                    w = wb + wa
                    out[w] = out.get(w, _ZERO) - c
    return AssocPoly._make(a.ctx, {w: c for w, c in out.items() if c})


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


def poly_sum(ctx: AlgebraCtx, polys: Iterable[AssocPoly]) -> AssocPoly:
    """Sum of many polynomials in one pass."""
    out: dict[Word, Fraction] = {}
    for p in polys:
        if p.ctx != ctx:
            raise ContextMismatchError(f"context mismatch: {p.ctx} vs {ctx}")
        for w, c in p._terms.items():
            s = out.get(w, _ZERO) + c
            if s:
                out[w] = s
            else:
                del out[w]
    return AssocPoly._make(ctx, out)


def generators(ctx: AlgebraCtx) -> list[AssocPoly]:
    """[X1, ..., Xn] as polynomials."""
    return [AssocPoly.generator(ctx, i) for i in range(1, ctx.n + 1)]
