"""Property tests of the text writer: a printed sum reads back as the value printed.

`lieform.parse` is the package's reader of the commutator form.  The
associative form has no reader in the package, so `read_text` below takes
`AssocPoly.text()` back to `terms()`; it also insists on the canonical
printed form: reduced fractions, no magnitude 1 beside a word, and a
constant printed as its bare magnitude.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zassenhaus.freealg import AlgebraCtx, AssocPoly
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
