"""Property tests of the writers: a printed sum reads back as the value printed,
and every writer of a polynomial matches a plain reference encoder byte for byte.

`lieform.parse` is the package's reader of the commutator form.  The
associative form has no reader in the package, so `read_text` below takes
`AssocPoly.text()` back to `terms()`; it also insists on the canonical
printed form: reduced fractions, no magnitude 1 beside a word, and a
constant printed as its bare magnitude.

The reference encoders at the end of this file build each output from
`terms()` or `numerators()` one term at a time, with `json.dumps` for JSON.
"""

import hashlib
import itertools
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zassenhaus.cli import CACHE_VERSION, cache_store
from zassenhaus.freealg import AlgebraCtx, AssocPoly, from_block, render_block, to_block
from zassenhaus.lieform import CommTerm, LieExpr, parse, render

render_settings = settings(max_examples=150, deadline=None)

# Coefficients of +-1, integers and fractions, of either sign (0 drops the term).
coefficients = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.integers(-40, 40).map(Fraction),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40)),
)

_LETTER = re.compile(r"X([1-9][0-9]*)")


def read_text(s):
    """The (word, coeff) pairs of an `AssocPoly.text()` string, in printed order."""
    if s == "0":
        return []
    negative_lead = s.startswith("-")
    chunks = re.split(r" ([+-]) ", s[1:] if negative_lead else s)
    signs = [-1 if negative_lead else 1] + [1 if op == "+" else -1 for op in chunks[1::2]]
    out = []
    for sign, chunk in zip(signs, chunks[::2]):
        factors = chunk.split("*")
        if _LETTER.fullmatch(factors[0]):
            coeff = Fraction(1)
        else:
            head = factors.pop(0)
            coeff = Fraction(head)
            assert str(coeff) == head and coeff > 0, chunk
            assert coeff != 1 or not factors, f"magnitude 1 written beside a word: {chunk}"
        letters = [_LETTER.fullmatch(f) for f in factors]
        assert all(letters), chunk
        out.append((tuple(int(m.group(1)) for m in letters), sign * coeff))
    return out


@st.composite
def assoc_polys(draw):
    ctx = AlgebraCtx(draw(st.integers(1, 12)), 3)
    words = st.lists(st.integers(1, ctx.n), max_size=3).map(tuple)  # () is the constant word
    return AssocPoly(ctx, draw(st.dictionaries(words, coefficients, max_size=6)))


comm_terms = st.builds(
    CommTerm,
    coefficients,
    st.integers(1, 12),
    st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)), max_size=3).map(tuple),
)


def _poly(*terms):
    return AssocPoly(AlgebraCtx(12, 3), terms)


@render_settings
@given(assoc_polys())
@example(_poly())
@example(_poly(((), 1)))
@example(_poly(((), Fraction(-1, 3)), ((2,), -1), ((1, 2), 2)))
@example(_poly(((1,), -1), ((12, 2), Fraction(7, 3)), ((2, 2, 1), 5)))
def test_assoc_text_reads_back(p):
    assert read_text(p.text()) == p.terms()


@render_settings
@given(st.lists(comm_terms, max_size=6).map(LieExpr))
@example(LieExpr())
@example(LieExpr([CommTerm(-1, 2, ((1, 1),)), CommTerm(Fraction(-1, 2), 3, ((1, 2),)), CommTerm(4, 12, ())]))
def test_lie_text_parses_back(e):
    assert parse(render(e, "text")) == e


@pytest.mark.parametrize("bad", ["1*X1", "2/4*X1", "3/1*X1", "X1*1/2", "-X1 +X2", "X1 + "])
def test_reader_rejects_non_canonical_text(bad):
    with pytest.raises((AssertionError, ValueError)):
        read_text(bad)


# -- reference encoders -------------------------------------------------------


def ref_signed_sum(terms, times, fraction, space):
    """Sum of p/q * body over (p, q, body), term by term, as the package printed it before its prefix tables."""
    parts = []
    for i, (p, q, body) in enumerate(terms):
        mag = abs(p)
        if q != 1:
            coeff = fraction % (mag, q)
        elif mag != 1 or not body:
            coeff = str(mag)
        else:
            coeff = ""
        if i == 0:
            parts.append("-" if p < 0 else "")
        else:
            parts.append(f"{space}{'-' if p < 0 else '+'}{space}")
        parts.append(f"{coeff}{times}{body}" if coeff and body else coeff or body)
    return "".join(parts) or "0"


def ref_text(p):
    bodies = [(c.numerator, c.denominator, "*".join(f"X{i}" for i in w)) for w, c in p.terms()]
    return ref_signed_sum(bodies, "*", "%d/%d", " ")


def ref_latex(p):
    bodies = [(c.numerator, c.denominator, "".join(f"X_{{{i}}}" for i in w)) for w, c in p.terms()]
    return ref_signed_sum(bodies, "", "\\frac{%d}{%d}", "")


def ref_json_dict(p):
    terms = [{"word": list(w), "coeff": f"{c.numerator}/{c.denominator}"} for w, c in p.terms()]
    return {"n": p.ctx.n, "maxDegree": p.ctx.max_degree, "terms": terms}


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def ref_cache_entry(p, m):
    """The version-4 cache entry of W_m = p, built with `json.dumps` from `numerators()`.

    The payload is the block of p: one numerator for every word of degree m, in canonical order.
    """
    words, nums, den = p.numerators()
    coeffs = dict(zip(words, nums))
    block = [coeffs.get(w, 0) for w in itertools.product(range(1, p.ctx.n + 1), repeat=m)]
    payload = {"den": den, "maxDegree": m, "n": p.ctx.n, "nums": block}
    digest = hashlib.sha256(dumps(payload).encode()).hexdigest()
    key = {"format": CACHE_VERSION, "m": m, "n": p.ctx.n}
    return (dumps({"digest": digest, "key": key, "payload": payload}) + "\n").encode()


@st.composite
def mixed_polys(draw):
    """Polynomials of mixed degree over up to 12 letters, constant word included."""
    ctx = AlgebraCtx(draw(st.integers(1, 12)), draw(st.integers(1, 5)))
    words = st.lists(st.integers(1, ctx.n), max_size=ctx.max_degree).map(tuple)
    return AssocPoly(ctx, draw(st.dictionaries(words, coefficients, max_size=12)))


def _wide(*terms):
    return AssocPoly(AlgebraCtx(12, 4), terms)


@render_settings
@given(mixed_polys())
@example(_wide())  # the zero polynomial
@example(_wide(((), 1)))  # the constant word alone, magnitude 1
@example(_wide(((), -1), ((3,), 1), ((12,), -1)))  # |p| = 1, q = 1 beside degree-1 words
@example(_wide(((), Fraction(-7, 3)), ((10, 11), Fraction(1, 6)), ((12, 1, 12, 1), -2)))  # den > 1
@example(AssocPoly(AlgebraCtx(1, 5), [((1,) * d, Fraction(1, d + 1)) for d in range(6)]))
def test_writers_match_reference_encoders(p):
    assert p.text() == ref_text(p)
    assert p.latex() == ref_latex(p)
    form = ref_json_dict(p)
    assert p.to_json() == dumps(form)
    assert p.to_json_dict() == form
    assert AssocPoly.from_json_dict(form) == p


@st.composite
def homogeneous_polys(draw):
    """Zero or homogeneous of degree m in context (n, m), over up to 12 letters and at most 12^3 words."""
    n = draw(st.integers(1, 12))
    ctx = AlgebraCtx(n, draw(st.integers(1, 5 if n <= 4 else 3)))
    words = st.lists(st.integers(1, n), min_size=ctx.max_degree, max_size=ctx.max_degree).map(tuple)
    return AssocPoly(ctx, draw(st.dictionaries(words, coefficients, max_size=12)))


@render_settings
@given(homogeneous_polys())
@example(AssocPoly.zero(AlgebraCtx(3, 2)))
@example(AssocPoly.zero(AlgebraCtx(1, 4)))  # n = 1: the block [0] over 1
@example(AssocPoly.monomial(AlgebraCtx(1, 5), (1,) * 5, Fraction(-7, 3)))
@example(AssocPoly(AlgebraCtx(12, 2), [((1, 1), 1), ((12, 12), Fraction(1, 6)), ((5, 7), -2)]))
def test_cache_entry_matches_reference_encoder(p):
    with tempfile.TemporaryDirectory() as root:
        m = p.ctx.max_degree
        entry = cache_store(Path(root), p.ctx.n, m, to_block(p, m))
        assert entry.read_bytes() == ref_cache_entry(p, m)


@st.composite
def dense_blocks(draw):
    """(ctx, d, den, nums): a block of degree d = 1..7 over n = 1..4 letters, maybe unreduced, zero or sparse or dense."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    size = n**d
    values = st.integers(-(10**30), 10**30)
    nums = [0] * size
    kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
    if kind == "sparse":
        for i, c in draw(st.dictionaries(st.integers(0, size - 1), values, max_size=12)).items():
            nums[i] = c
    elif kind == "dense":  # every word, from a drawn pattern that may hold zeros
        pattern = draw(st.lists(values, min_size=1, max_size=7))
        nums = [pattern[i % len(pattern)] for i in range(size)]
    # A factor shared by den and every numerator: the writers must print each coefficient in lowest terms.
    shared = draw(st.sampled_from([1, 2, 6, 10**12]))
    den = draw(st.integers(1, 10**6)) * shared
    return AlgebraCtx(n, d + draw(st.integers(0, 2))), d, den, [c * shared for c in nums]


@settings(max_examples=80, deadline=None)
@given(dense_blocks())
@example((AlgebraCtx(1, 5), 5, 1, [0]))  # n = 1: the one word of degree 5, and the zero block
@example((AlgebraCtx(1, 3), 3, 6, [-4]))
@example((AlgebraCtx(3, 4), 4, 1, [0] * 81))
@example((AlgebraCtx(2, 3), 3, 4, [2, -6, 0, 4, -(10**40), 8, 0, -2]))  # den shares 2 with every numerator
def test_block_writers_match_the_polynomial_writers(case):
    ctx, d, den, nums = case
    before = list(nums)
    p = from_block(ctx, d, den, nums)
    assert render_block(ctx, d, den, nums, "text") == p.text() == ref_text(p)
    assert render_block(ctx, d, den, nums, "latex") == p.latex() == ref_latex(p)
    assert render_block(ctx, d, den, nums, "json") == p.to_json() == dumps(ref_json_dict(p))
    assert nums == before


def test_block_writer_refuses_a_wrong_length_or_format():
    ctx = AlgebraCtx(2, 3)
    for d, nums in ((3, [1] * 4), (2, [1] * 8), (1, [])):
        with pytest.raises(ValueError):
            render_block(ctx, d, 1, nums)
    with pytest.raises(ValueError):
        render_block(ctx, 1, 1, [1, 0], "markdown")
