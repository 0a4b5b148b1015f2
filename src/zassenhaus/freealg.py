"""Exact arithmetic in the degree-truncated free associative algebra.

Elements live in Q<X1, ..., Xn> / (words of degree > K): noncommutative
polynomials with rational coefficients, truncated so that every product
drops words longer than the context's maximum degree.  At the API a word
is a tuple of generator indices (1-based); the empty tuple is the unit
monomial.  Letters are ints in 1..n (not bools or floats).

Canonical term order is degree ascending, then lexicographic on the
letters.  Inside a polynomial each word is stored as its rank in that
order, its code: the word l_1 ... l_d read as a bijective base-n numeral,

    code(l_1 ... l_d) = l_1 n^(d-1) + ... + l_(d-1) n + l_d
                      = off[d] + sum_i (l_i - 1) n^(d-i),   off[d] = n^0 + ... + n^(d-1).

Two facts make it the kernel's representation:

* integer order is canonical order, and the words of degree d fill the
  range [off[d], off[d+1]);
* concatenation is one multiply-add, code(u v) = code(u) n^|v| + code(v),
  so with the codes of a degree-da block shifted once by n^db, the
  product with a degree-db block takes one integer add per word pair.

The words of degree d are numbered 0..n^d - 1 inside their block by
code - off[d].  With A = n^da and B = n^db, the product of the i-th word
u of degree da and the j-th word v of degree db sits at

    uv:  i*B + j,      vu:  j*A + i

of the degree-(da+db) block, so u times the whole block of v is the
contiguous slice [i*B, (i+1)*B) and the whole block of v times u is the
stride-A slice i::A.  A dense degree block is the pair (den, nums) of a
homogeneous polynomial: the numerators of all n^d words of its degree d
in code order over one positive denominator, so its length n^d is its
degree and no scan of the codes is needed.  `bracket_add` adds r*[a, b]
of two blocks into a third in one pass: one row of products per distinct
numerator of a, read in order for ab and copied once into the stride
slice of each nonzero a_i for ba; it returns a new block without
reducing it; `reduce_block` cancels the common
factor, `from_block` makes the one term map of a block and `to_block`
makes the block of a homogeneous polynomial through `block_nums`, the one
fill of a block from a term map, into n^d `zeros` that a caller may make
before the work that gives the term map, so that a block that cannot
exist fails at once (`block_length` alone decides whether it can);
`check_block` is the one rule of a stored block.
`ad_letter` brackets one letter onto a term map, two passes over its
codes; the engine's graded pass and `lieform.expand` build on it.
No table of word codes is kept.  `mul` is the plain sparse dict product,
one pair loop over the words of every two degrees, the constant word
included, and `bracket` is ab - ba through it: they serve the Python API
and are the reference the tests hold the blocks to, while the engine,
the verifiers and `lieform` work on blocks and term maps.

The codes depend on n alone, not on the truncation degree.  Words become
tuples only at the boundary: the constructors, `coeff`, `terms`,
`numerators` and `from_numerators`.

A polynomial stores integer numerators over one common denominator: the
coefficient of the word with code k is `_codes[k] / _den`, with `_den` a
positive int.  The form is canonical -- no zero numerators,
gcd(_den, all numerators) == 1, and `_den == 1` for the zero polynomial --
so equality is structural and all arithmetic runs on Python ints.
`fractions.Fraction` appears only at the API boundary: constructors,
`scaled` and `poly_sum` accept int or Fraction scalars (a float or a bool
raises ValueError, as it does as a letter), and `terms`, `coeff`,
`constant_term` and `max_abs_coeff` return Fractions.  `numerators` hands
out the stored form itself (words in canonical order), and
`from_numerators` takes it back after checking that it is canonical,
without any Fraction.  Everything is exact, and every equality test in
this package is a zero-tolerance test.

Lie elements are represented associatively via [A, B] = A*B - B*A, which
`bracket` computes as two `mul`s and a difference; see also `ad_pow`.
Exponentials and logarithms of elements without constant term (resp.
with constant term 1) are finite sums here because of the truncation.

Every writer -- `text`, `latex` and `to_json`, and `render_block` of a
dense block -- is one core, `_parts`: per degree, three stride slice
assignments build the list [prefix, head(u), tail(v), ...] over the words
u v, |v| = degree // 2, from tables with one ready string per distinct
half word or numerator, and the list is joined once; a term makes no
tuple and no string of its own.  A block feeds the core with `compress`
over its degree's repeated heads and tails, a polynomial with its sorted
codes split by `floordiv` and `mod`.  In a signed sum the prefix is the
separator, sign and coefficient, " + 2/3*"; in JSON it is the comma and
the coefficient, ',{"coeff":"2/3","word":['; the leading term drops its
separator.  The sign and coefficient rules live in `_sum_prefix` alone,
which also serves `signed_sum`, the writer `lieform.render` hands its
commutators to.

The canonical JSON form of a polynomial is

    {"maxDegree": ..., "n": ..., "terms": [{"coeff": "p/q", "word": [i1, ...]}, ...]}

with terms in canonical order and coefficients as reduced fractions with
positive denominator.  `to_json` writes it as compact text with sorted
keys, byte for byte what `json.dumps(form, sort_keys=True,
separators=(",", ":"))` would write; `to_json_dict` reads that text back,
and `from_json_dict` accepts this form and nothing else.

All values are `Frozen`, immutable after construction, and all operations
are pure, so values may be freely shared between threads.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, product, repeat
from math import gcd, lcm
from operator import add, floordiv, mod, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, Union

Word = tuple[int, ...]
Scalar = Union[int, Fraction]
T = TypeVar("T")


class ContextMismatchError(ValueError):
    """Raised when two polynomials from different algebra contexts are combined."""


class Frozen:
    """An immutable value: the one place that decides how every value type of the package refuses change.

    `__init__` sets the fields `_fields` once through `_init`, and `_make` sets them from values already
    checked.  Writes and deletes raise AttributeError, pickle and copy remake a value through `_make`,
    and equality, hash and repr go by the fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    @classmethod
    def _make(cls, *values: object) -> "Frozen":
        self = object.__new__(cls)
        self._init(*values)
        return self

    def _init(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):  # a value short would leave a field unset
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self) -> tuple:
        # pickle and copy would restore the fields through __setattr__; remake the value instead.
        return type(self)._make, self._key()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return other is self or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"


class AlgebraCtx(Frozen):
    """Ambient algebra: number of generators `n` and truncation degree `max_degree`."""

    _fields = ("n", "max_degree")  # no __slots__: the instance __dict__ holds the cached `_offsets`
    n: int
    max_degree: int

    def __init__(self, n: int, max_degree: int) -> None:
        if type(n) is not int or type(max_degree) is not int:
            raise ValueError(f"n and max_degree must be ints, got {n!r} and {max_degree!r}")
        if n < 1:
            raise ValueError(f"need at least one generator, got n={n}")
        if max_degree < 1:
            raise ValueError(f"truncation degree must be >= 1, got {max_degree}")
        self._init(n, max_degree)

    @cached_property
    def _offsets(self) -> list[int]:
        """off[0..max_degree+1]: off[d] is the code of the first word of degree d."""
        off = [0]
        for _ in range(self.max_degree + 1):
            off.append(off[-1] * self.n + 1)
        return off

    def check_word(self, word: Word) -> None:
        if len(word) > self.max_degree:
            raise ValueError(
                f"word {word!r} has degree {len(word)} > max_degree {self.max_degree}"
            )
        for letter in word:
            # bool is an int subclass but no letter; floats such as 1.0 would render as "X1.0".
            if type(letter) is not int or not 1 <= letter <= self.n:
                raise ValueError(f"letter {letter!r} is not an int in 1..{self.n} in {word!r}")


def _code(n: int, word: Word) -> int:
    """The code of a validated word; see the module docstring."""
    k = 0
    for letter in word:
        k = k * n + letter
    return k


class _Table(dict):
    """key -> make(key), each entry made on first lookup."""

    def __init__(self, make: Callable[[int], object]):
        self.make = make

    def __missing__(self, key: int) -> object:
        self[key] = value = self.make(key)
        return value


def _word(n: int, c: int) -> Word:
    """The word of code c."""
    letters = []
    while c:  # the digits of a bijective base-n numeral, last first
        c, r = divmod(c - 1, n)
        letters.append(r + 1)
    return tuple(reversed(letters))


def _parts(den: int, groups: Iterable[tuple[Iterable[int], ...]], prefix: Callable[[int, int], str]) -> list[str]:
    """[prefix(p, q), head(u), tail(v), ...] over the terms p/q * u v, p/q = num/den in lowest terms: the writer core.

    `groups` gives per degree the (numerators, head(u)s, tail(v)s) of its
    nonzero terms in canonical order, which go into the list by three stride
    slice assignments.  Every piece is a string shared through a table, so
    the join of the list is the one copy a writer makes of a term.
    """
    pre: dict[int, str] = {}  # one gcd per distinct numerator: the W_m share few coefficient values
    parts: list[str] = []
    for nums, heads, tails in groups:
        nums = list(nums)
        new = list(set(nums).difference(pre))
        g = list(map(gcd, new, repeat(den)))
        pre.update(zip(new, map(prefix, map(floordiv, new, g), map(floordiv, repeat(den), g))))
        start = len(parts)
        parts += repeat("", 3 * len(nums))
        parts[start::3] = map(pre.__getitem__, nums)
        parts[start + 1 :: 3] = heads
        parts[start + 2 :: 3] = tails
    return parts


def _render(format: str, ctx: AlgebraCtx, den: int, groups: Callable, constant: int) -> str:
    """Text, LaTeX or canonical JSON of the terms `groups(head, tail)` gives; `constant` leads, its magnitude bare."""
    if format == "json":
        parts = _parts(
            den,
            groups(lambda u: ",".join(map(str, u)), lambda v: "".join([f",{i}" for i in v]) + "]}"),
            lambda p, q: f',{{"coeff":"{p}/{q}","word":[',
        )
        if parts:
            parts[0] = parts[0][1:]  # the leading term drops its comma
        parts.insert(0, f'{{"maxDegree":{ctx.max_degree},"n":{ctx.n},"terms":[')
        parts.append("]}")
        return "".join(parts)
    if format == "text":
        space, name = " ", [f"X{i}" for i in range(ctx.n + 1)]  # name[i] renders letter i
        head, tail = (lambda u: "*".join([name[i] for i in u])), (lambda v: "".join(["*" + name[i] for i in v]))
    else:
        space, name = "", [f"X_{{{i}}}" for i in range(ctx.n + 1)]
        head = tail = lambda w: "".join([name[i] for i in w])
    prefix = _sum_prefix(format, space)  # refuses an unknown format
    parts = _parts(den, groups(head, tail), prefix)
    if constant:
        g = gcd(constant, den)
        parts[0] = prefix(constant // g, den // g, False)
    return _signed_join(parts, space)


def _exact(scalar: object) -> Fraction:
    """An int (not a bool) or Fraction scalar as a Fraction; a float would bring its binary approximation."""
    if type(scalar) is bool or not isinstance(scalar, (int, Fraction)):
        raise ValueError(f"scalar {scalar!r} is not an int or a Fraction")
    return Fraction(scalar)


def _require_same_ctx(a: "AssocPoly", b: "AssocPoly") -> None:
    if a.ctx != b.ctx:
        raise ContextMismatchError(f"context mismatch: {a.ctx} vs {b.ctx}")


class AssocPoly(Frozen):
    """A truncated noncommutative polynomial: word code -> int numerator over `_den`.

    A `Frozen` value: arithmetic returns new values.  `_make(ctx, codes, den)`
    takes a form already canonical (see the module docstring), codes of words in ctx.
    """

    __slots__ = _fields = ("ctx", "_codes", "_den")

    def __init__(self, ctx: AlgebraCtx, terms: Mapping[Word, Scalar] | Iterable[tuple[Word, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Fraction] = {}
        for word, coeff in items:
            word = tuple(word)
            ctx.check_word(word)
            k = _code(ctx.n, word)
            c = _exact(coeff)
            acc[k] = acc[k] + c if k in acc else c
        # Over the lcm of the reduced denominators the form is already canonical.
        den = lcm(*(c.denominator for c in acc.values()))
        self._init(ctx, {k: c.numerator * (den // c.denominator) for k, c in acc.items() if c}, den)

    @classmethod
    def _reduce(cls, ctx: AlgebraCtx, codes: dict[int, int], den: int) -> "AssocPoly":
        """Canonical form of sum(codes[k] / den * word(k)): zeros dropped, common factor cancelled.

        Takes `codes`, a fresh dict, over: the zeros, a few per cent of a
        bracket's words, are deleted in place.
        """
        g = gcd(den, *codes.values())  # zeros leave the gcd unchanged
        if g != 1:
            den //= g
            codes = {k: c // g for k, c in codes.items() if c}
        elif 0 in codes.values():
            for k in [k for k, c in codes.items() if not c]:
                del codes[k]
        return cls._make(ctx, codes, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: AlgebraCtx) -> "AssocPoly":
        return cls._make(ctx, {}, 1)

    @classmethod
    def one(cls, ctx: AlgebraCtx) -> "AssocPoly":
        return cls._make(ctx, {0: 1}, 1)

    @classmethod
    def generator(cls, ctx: AlgebraCtx, i: int) -> "AssocPoly":
        if type(i) is not int or not 1 <= i <= ctx.n:
            raise ValueError(f"generator index {i!r} out of range 1..{ctx.n}")
        return cls._make(ctx, {i: 1}, 1)  # a one-letter word is its own code

    @classmethod
    def monomial(cls, ctx: AlgebraCtx, word: Word, coeff: Scalar = 1) -> "AssocPoly":
        word = tuple(word)
        ctx.check_word(word)
        c = _exact(coeff)
        return cls._make(ctx, {_code(ctx.n, word): c.numerator}, c.denominator) if c else cls.zero(ctx)

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
        # Type first: True == 1 would pass a range test (and hash like 1).
        if set(map(type, letters)) - {int} or not all(1 <= i <= ctx.n for i in set(letters)):
            raise ValueError(f"every letter must be an int in 1..{ctx.n}")
        if max(map(len, words), default=0) > ctx.max_degree:
            raise ValueError(f"a word is longer than max_degree {ctx.max_degree}")
        if set(map(type, nums)) - {int} or 0 in nums:
            raise ValueError("every numerator must be a nonzero int")
        if gcd(den, *nums) != 1:
            raise ValueError("numerators and denominator share a common factor")
        n = ctx.n
        codes = [_code(n, w) for w in words]
        if any(a >= b for a, b in zip(codes, codes[1:])):  # code order is canonical order
            raise ValueError("words must be distinct and in canonical order")
        return cls._make(ctx, dict(zip(codes, nums)), den)

    # -- inspection --------------------------------------------------------

    def _groups(self, head: Callable[[Word], T], tail: Callable[[Word], T]) -> Iterator[tuple]:
        """`_parts`'s groups, degree by degree: code(u v) - off[e] = code(u) n^e + (index of v), e = |v| = d // 2."""
        n, off = self.ctx.n, self.ctx._offsets
        heads = _Table(lambda c: head(_word(n, c)))
        for d, ks, nums in _by_degree(self) if self._codes else ():
            e, B = d // 2, n ** (d // 2)
            tails = _Table(lambda i, first=off[e]: tail(_word(n, first + i)))
            split = list(map(sub, ks, repeat(off[e])))
            u, v = map(floordiv, split, repeat(B)), map(mod, split, repeat(B))
            yield nums, map(heads.__getitem__, u), map(tails.__getitem__, v)

    def terms(self) -> list[tuple[Word, Fraction]]:
        """All (word, coeff) pairs in canonical order."""
        words, nums, den = self.numerators()
        return list(zip(words, map(Fraction, nums, repeat(den))))

    def numerators(self) -> tuple[list[Word], list[int], int]:
        """(words, numerators, denominator), words in canonical order; see `from_numerators`."""
        words: list[Word] = []
        nums: list[int] = []
        for group_nums, heads, tails in self._groups(tuple, tuple):
            nums += group_nums
            words += map(add, heads, tails)
        return words, nums, self._den

    def coeff(self, word: Word) -> Fraction:
        """The coefficient of `word`; 0 for a word that is not in this algebra."""
        word = tuple(word)
        try:
            self.ctx.check_word(word)
        except ValueError:
            return Fraction(0)
        return Fraction(self._codes.get(_code(self.ctx.n, word), 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._codes.get(0, 0), self._den)

    @property
    def is_zero(self) -> bool:
        return not self._codes

    def __bool__(self) -> bool:
        return bool(self._codes)

    def __len__(self) -> int:
        return len(self._codes)

    def homogeneous_degree(self) -> int | None:
        """The common degree of all words, or None if mixed or zero."""
        codes = self._codes
        if not codes:
            return None
        off = self.ctx._offsets
        d = bisect_right(off, min(codes)) - 1
        return d if max(codes) < off[d + 1] else None

    def max_abs_coeff(self) -> Fraction:
        return Fraction(max(map(abs, self._codes.values()), default=0), self._den)

    # -- arithmetic --------------------------------------------------------

    __hash__ = None  # mutable-dict backed; Frozen's hash of the fields would raise on the dict

    def __add__(self, other: "AssocPoly") -> "AssocPoly":
        if not isinstance(other, AssocPoly):
            return NotImplemented
        _require_same_ctx(self, other)
        return _sum(self.ctx, (self, other))

    def __sub__(self, other: "AssocPoly") -> "AssocPoly":
        if not isinstance(other, AssocPoly):
            return NotImplemented
        _require_same_ctx(self, other)
        return _sum(self.ctx, (self, other), (1, -1))

    def __neg__(self) -> "AssocPoly":
        return AssocPoly._make(self.ctx, {k: -c for k, c in self._codes.items()}, self._den)

    def scaled(self, scalar: Scalar) -> "AssocPoly":
        s = _exact(scalar)
        if not s:
            return AssocPoly.zero(self.ctx)
        if s == 1:
            return self
        codes, den = self._codes, self._den
        # p cancels against the denominator, q against the numerators; both stay coprime after.
        g = gcd(s.numerator, den)
        h = gcd(s.denominator, *codes.values())
        p, q = s.numerator // g, s.denominator // h
        if h != 1 or p != 1:
            codes = {k: c // h * p for k, c in codes.items()}
        return AssocPoly._make(self.ctx, codes, den // g * q)

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

    # -- rendering / serialization ------------------------------------------

    def __repr__(self) -> str:
        return f"AssocPoly(n={self.ctx.n}, K={self.ctx.max_degree}, {self.text()})"

    def text(self) -> str:
        """Deterministic plain-text rendering, terms in canonical order."""
        return _render("text", self.ctx, self._den, self._groups, self._codes.get(0, 0))

    def latex(self) -> str:
        """LaTeX rendering, terms in canonical order and joined without spaces."""
        return _render("latex", self.ctx, self._den, self._groups, self._codes.get(0, 0))

    def to_json(self) -> str:
        """The canonical JSON form as compact text with sorted keys; see the module docstring."""
        return _render("json", self.ctx, self._den, self._groups, self._codes.get(0, 0))

    def to_json_dict(self) -> dict:
        """The canonical JSON form as a dict: `to_json` read back."""
        return json.loads(self.to_json())

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "AssocPoly":
        """The polynomial of a canonical JSON form, exactly as `to_json_dict` writes it.

        `n` and `maxDegree` must be ints, each coefficient a reduced "p/q"
        string with p != 0 and q > 0, and the words distinct and in canonical
        order; anything else raises ValueError.
        """
        try:
            terms = payload["terms"]
            if set(payload) != {"n", "maxDegree", "terms"} or any(set(t) != {"word", "coeff"} for t in terms):
                raise ValueError('the form has keys other than "n", "maxDegree" and "terms": [{"word", "coeff"}]')
            ctx = AlgebraCtx(payload["n"], payload["maxDegree"])
            fractions = [re.fullmatch(_COEFF, t["coeff"]) for t in terms]
            if None in fractions:
                raise ValueError('every coefficient must be a "p/q" string with p != 0 and q > 0')
            pqs = [(int(f[1]), int(f[2])) for f in fractions]
            if any(gcd(p, q) != 1 for p, q in pqs):
                raise ValueError("every coefficient must be in lowest terms")
            # Over the lcm of reduced denominators the numerators share no factor with it.
            den = lcm(*(q for _, q in pqs))
            return cls.from_numerators(ctx, [t["word"] for t in terms], [p * (den // q) for p, q in pqs], den)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a canonical JSON form: {exc!r}") from exc


# A coefficient of the canonical JSON form: p/q with p != 0 and q > 0 ([0-9] is ASCII only).
# `re` compiles it on first use, which keeps it out of the import time.
_COEFF = r"(-?[1-9][0-9]*)/([1-9][0-9]*)"


def format_fraction(c: Fraction) -> str:
    """Reduced "p/q" string with explicit positive denominator."""
    return f"{c.numerator}/{c.denominator}"


def _sum_prefix(format: str, space: str) -> Callable[..., str]:
    """prefix(p, q, body=True): what precedes the body of the term p/q * body in a signed sum.

    The one place of the sign and coefficient rules.  A coefficient prints
    as "p/q*body" in text and "\\frac{p}{q}body" in LaTeX.  A magnitude of 1
    is omitted beside a nonempty body; an empty body (the constant word)
    takes the bare magnitude.  The sign goes into the separator, `space` +
    "+" or "-" + `space`, which `_signed_join` trims on the leading term.
    """
    if format == "text":
        times, fraction = "*", "%d/%d"
    elif format == "latex":
        times, fraction = "", "\\frac{%d}{%d}"
    else:
        raise ValueError(f"unknown format {format!r}")
    signs = (f"{space}+{space}", f"{space}-{space}")

    def prefix(p: int, q: int, body: bool = True) -> str:
        mag = abs(p)
        if q != 1:
            coeff = fraction % (mag, q)
        elif mag != 1 or not body:
            coeff = str(mag)
        else:
            coeff = ""
        return signs[p < 0] + (coeff + times if coeff and body else coeff)

    return prefix


def _signed_join(parts: list[str], space: str) -> str:
    """Join terms each written after its `_sum_prefix`: the leading term keeps only a minus; the empty sum is "0"."""
    if not parts:
        return "0"
    lead = parts[0]
    parts[0] = ("-" if lead[len(space)] == "-" else "") + lead[2 * len(space) + 1 :]
    return "".join(parts)


def signed_sum(terms: Iterable[tuple[int, int, str]], format: str = "text") -> str:
    """The sum of p/q * body over (p, q, body) triples, p/q in lowest terms and q > 0, in text or LaTeX.

    The rules are those of `_sum_prefix`, with " + " and " - " between the
    terms in both formats; the empty sum is "0".
    """
    prefix = _sum_prefix(format, " ")
    return _signed_join([prefix(p, q, bool(body)) + body for p, q, body in terms], " ")


# -- ring operations ---------------------------------------------------------


def _by_degree(p: AssocPoly) -> list[tuple[int, list[int], list[int]]]:
    """(d, codes, numerators) of the words of each degree d of a nonzero p, d ascending, codes sorted."""
    codes = p._codes
    off = p.ctx._offsets
    ks = sorted(codes)
    d = bisect_right(off, ks[0]) - 1
    groups = []
    i = 0
    while i < len(ks):
        j = bisect_left(ks, off[d + 1], i)
        if j > i:
            groups.append((d, ks[i:j], list(map(codes.__getitem__, ks[i:j]))))
        i = j
        d += 1
    return groups


def ad_letter(n: int, l: int, e: int, v: Mapping[int, int]) -> dict[int, int]:
    """The term map of [X_l, v] for a term map v of words of degree e, zeros dropped.

    Two passes over v: code(X_l u) = l n^e + code(u) takes +c and
    code(u X_l) = code(u) n + l takes -c.  v is not changed.
    """
    shift = l * n**e
    w = dict(zip(map(shift.__add__, v), v.values()))
    get = w.get
    for k, c in v.items():
        k = k * n + l
        w[k] = get(k, 0) - c
    return {k: c for k, c in w.items() if c} if 0 in w.values() else w


def mul(a: AssocPoly, b: AssocPoly) -> AssocPoly:
    """Concatenation product on the integer numerators; words of degree > max_degree are dropped eagerly.

    Words are multiplied block by block, one block per pair of degrees
    (da, db) with da + db <= max_degree: code(u v) = code(u) n^db + code(v).
    """
    _require_same_ctx(a, b)
    out: dict[int, int] = {}
    get = out.get
    if a._codes and b._codes:
        n, cap = a.ctx.n, a.ctx.max_degree
        blocks_b = [(db, list(zip(codes, nums))) for db, codes, nums in _by_degree(b)]
        for da, codes_a, nums_a in _by_degree(a):
            for db, items_b in blocks_b:
                if da + db > cap:
                    break
                shift = n**db
                for ka, ca in zip(codes_a, nums_a):
                    sa = ka * shift
                    for kb, cb in items_b:
                        k = sa + kb
                        out[k] = get(k, 0) + ca * cb
    return AssocPoly._reduce(a.ctx, out, a._den * b._den)


def bracket(a: AssocPoly, b: AssocPoly) -> AssocPoly:
    """Commutator [a, b] = a*b - b*a: the reference the tests hold the engine's blocks to."""
    return mul(a, b) - mul(b, a)


# -- dense degree blocks ------------------------------------------------------
#
# A block (den, nums) is described in the module docstring.

Block = tuple[int, list[int]]


def bracket_add(f: Block, a: Block, b: Block, r: Scalar) -> Block:
    """f + r*[a, b] on dense degree blocks in one pass; f is a block of length A*B.

    With A = len(a) = n^da and B = len(b) = n^db, the product uv of the
    i-th word of degree da and the j-th of degree db sits at i*B + j of the
    degree-(da+db) block, vu at j*A + i (see the module docstring).  Each
    distinct numerator c of a makes one row c * r * b of B products.  ab is
    the rows of a_0, a_1, ... read one after another; ba starts as zeros
    and takes the row of each nonzero a_i at ba[i::A], one stride copy.
    f's numerators, lifted to one common denominator, then give
    f + ab - ba in one fused pass.  Any int sequences serve as operands,
    which are not changed; the result is not reduced (see `reduce_block`).
    """
    (f_den, f_nums), (a_den, a_nums), (b_den, b_nums) = f, a, b
    A, B = len(a_nums), len(b_nums)
    s = _exact(r)
    scale = a_den * b_den * s.denominator
    if len(f_nums) != A * B:
        raise ValueError(f"f has {len(f_nums)} numerators, not the {A * B} of the bracket's degree")
    den = lcm(f_den, scale)
    b_row = list(map((den // scale * s.numerator).__mul__, b_nums))
    rows = {c: list(map(c.__mul__, b_row)) for c in set(a_nums)}
    ba = [0] * (A * B)
    for i, c in compress(enumerate(a_nums), a_nums):
        ba[i::A] = rows[c]
    ab = chain.from_iterable(map(rows.__getitem__, a_nums))
    lift = den // f_den
    ab = map(add, f_nums if lift == 1 else map(lift.__mul__, f_nums), ab)
    return den, list(map(sub, ab, ba))


def reduce_block(den: int, nums: list[int]) -> Block:
    """(den, nums) with their common factor cancelled.

    The factor divides the gcd of any part, so a prefix with gcd 1 settles
    the common case without unpacking the whole block into one gcd call;
    the prefix length does not change the result.  With one whole-block
    gcd, `series` over (2,12) (3,9) (4,7) (2,11) took 32.0 ms, not 29.5 ms
    (best of 9, 2 CPUs, Python 3.11.7).
    """
    g = gcd(den, *nums[:64])
    if g != 1:
        g = gcd(g, *nums[64:])
    return (den, nums) if g == 1 else (den // g, list(map(floordiv, nums, repeat(g))))


def block_length(n: int, d: int) -> int:
    """n^d, the length of a block of degree d over n letters: the one place that decides it can exist.

    A length that no list can index raises MemoryError, decided for n > 1
    and d >= 64 before the power is computed: n^d >= 2^64 then, and the
    power of a huge d alone would take seconds.
    """
    if n > 1 and (d >= 64 or n**d > sys.maxsize):
        raise MemoryError
    return n**d


def zeros(n: int, d: int) -> list[int]:
    """[0] * n^d, made before the work that fills it, so that a block that cannot exist fails at once with MemoryError."""
    return [0] * block_length(n, d)


def block_nums(ctx: AlgebraCtx, d: int, codes: Mapping[int, int], nums: list[int] | None = None) -> list[int]:
    """The n^d numerators of degree d in code order, from a term map of such words: the one fill of a block.

    Filled into `nums`, n^d zeros that a caller made before the work that
    gives `codes`, if it is given; else made at full length first, so a
    block that cannot exist fails at once with MemoryError.  Then one step
    per term, as term maps are often sparse.
    """
    if nums is None:
        nums = zeros(ctx.n, d)
    lo = ctx._offsets[d]
    for k, c in codes.items():
        nums[k - lo] = c
    return nums


def _check_den(den: object) -> None:
    if type(den) is not int or den < 1:
        raise ValueError(f"denominator must be a positive int, got {den!r}")


def check_block(n: int, d: int, den: object, nums: object, ints: bool = False) -> None:
    """The one rule of a stored block: `nums` a list of n^d ints (no bool), `den` a positive int, gcd 1; else ValueError.

    `ints` says that nums holds ints alone by construction (decoded from
    machine words), which skips their type scan, a third of the check.
    """
    if type(nums) is not list or len(nums) != n**d:
        raise ValueError(f"nums is not a list of the n^d = {n**d} numerators of degree {d}")
    if not ints and set(map(type, nums)) != {int}:  # before gcd, which takes True as the numerator 1
        raise ValueError("every numerator must be an int")
    _check_den(den)
    if gcd(den, *nums) != 1:
        raise ValueError("numerators and denominator share a common factor")


def to_block(p: AssocPoly, d: int) -> Block:
    """The block (den, nums) of p, zero or homogeneous of degree d: `from_block` undone."""
    if p and p.homogeneous_degree() != d:
        raise ValueError(f"the polynomial is not homogeneous of degree {d}")
    return p._den, block_nums(p.ctx, d, p._codes)


def from_block(ctx: AlgebraCtx, d: int, den: int, nums: list[int]) -> AssocPoly:
    """The polynomial sum(nums[i] / den * word i of degree d), reduced: the one dict made from a block.

    A denominator that is not a positive int raises ValueError.
    """
    _check_den(den)
    den, nums = reduce_block(den, nums)
    return AssocPoly._make(ctx, dict(compress(zip(range(*ctx._offsets[d : d + 2]), nums), nums)), den)


def render_block(ctx: AlgebraCtx, d: int, den: int, nums: list[int], format: str = "text") -> str:
    """`from_block(ctx, d, den, nums)` as its `text`, `latex` or `to_json` ("json") writes it, with no dict.

    Word i is u v with u the (i // n^e)-th and v the (i % n^e)-th word of its
    degree, e = |v| = d // 2: so the heads repeat each head(u) n^e times, the
    tails cycle through every tail(v), and `compress` keeps the words of the
    nonzero numerators.  The block need not be reduced, but its denominator
    must be a positive int (else ValueError).
    """
    _check_den(den)
    if len(nums) != ctx.n**d:
        raise ValueError(f"a block of degree {d} has {ctx.n**d} numerators, got {len(nums)}")

    def groups(head: Callable[[Word], T], tail: Callable[[Word], T]) -> Iterator[tuple]:
        if not any(nums):  # no terms: no heads or tails to write (at n = 1 each is a string of length d)
            return
        heads = [head(u) for u in product(range(1, ctx.n + 1), repeat=d - d // 2)]
        tails = [tail(v) for v in product(range(1, ctx.n + 1), repeat=d // 2)]
        yield (
            filter(None, nums),
            compress(chain.from_iterable(map(repeat, heads, repeat(len(tails)))), nums),
            compress(chain.from_iterable(repeat(tails, len(heads))), nums),
        )

    return _render(format, ctx, den, groups, nums[0] if d == 0 else 0)


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


def _sum(ctx: AlgebraCtx, polys: Sequence[AssocPoly], scalars: Sequence[Scalar] | None = None) -> AssocPoly:
    # Each numerator is lifted to the lcm of the denominators, a scalar's included.
    if scalars is None:
        lifts = [(p, 1, p._den) for p in polys]
    else:
        lifts = [(p, s.numerator, p._den * s.denominator) for p, s in zip(polys, map(_exact, scalars))]
    den = lcm(*(d for _, _, d in lifts))
    out: dict[int, int] = {}
    get = out.get
    for p, s, d in lifts:
        f = den // d * s
        for k, c in p._codes.items():
            out[k] = get(k, 0) + c * f
    return AssocPoly._reduce(ctx, out, den)


def poly_sum(ctx: AlgebraCtx, polys: Iterable[AssocPoly], scalars: Sequence[Scalar] | None = None) -> AssocPoly:
    """Sum of many polynomials in one pass: of scalars[i] * polys[i] when `scalars` is given."""
    polys = list(polys)
    for p in polys:
        if p.ctx != ctx:
            raise ContextMismatchError(f"context mismatch: {p.ctx} vs {ctx}")
    if scalars is not None and len(scalars) != len(polys):
        raise ValueError(f"{len(polys)} polynomials but {len(scalars)} scalars")
    return _sum(ctx, polys, scalars)
