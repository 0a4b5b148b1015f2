import random
from fractions import Fraction

import pytest

from zassenhaus.freealg import AlgebraCtx, AssocPoly, bracket
from zassenhaus.lieform import (
    CommTerm,
    LieExpr,
    LieExprParseError,
    compositions,
    dsw_project,
    expand,
    expand_term,
    parse,
    render,
)

from golden import nested


class TestCompositions:
    def test_counts(self):
        # 2^(k-1) compositions of k.
        for k in range(1, 13):
            assert len(compositions(k)) == 2 ** (k - 1)

    def test_contents(self):
        assert compositions(1) == [(1,)]
        comps = compositions(4)
        assert (4,) in comps and (1, 1, 1, 1) in comps and (1, 3) in comps
        assert all(sum(c) == 4 for c in comps)
        assert comps == sorted(comps, key=lambda c: (len(c), c))
        assert len(set(comps)) == len(comps)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            compositions(0)


class TestCommTerm:
    def test_adjacent_letters_merge(self):
        t = CommTerm(Fraction(1), 3, ((1, 1), (1, 1), (2, 1)))
        assert t.tail == ((1, 2), (2, 1))
        assert t.degree == 4
        assert list(t.letters()) == [1, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            CommTerm(Fraction(1), 0, ())
        with pytest.raises(ValueError):
            CommTerm(Fraction(1), 1, ((2, 0),))
        with pytest.raises(ValueError):
            CommTerm(Fraction(1), 1, ((0, 1),))
        # AssocPoly's scalar and letter rule: ints (no bools) and Fractions.  A float would bring its
        # binary approximation, 0.1 as 3602879701896397/36028797018963968, and render as "X1.0".
        for coeff, head, tail in (
            (0.1, 2, ((1, 1),)),
            (True, 2, ((1, 1),)),
            ("1", 2, ((1, 1),)),
            (1, True, ((1, 2),)),
            (1, 2.0, ((1, 1),)),
            (1, 2, ((1.0, 2),)),
            (1, 2, ((True, 1),)),
            (1, 2, ((1, 2.0),)),
            (1, 2, ((1, True),)),
        ):
            with pytest.raises(ValueError):
                CommTerm(coeff, head, tail)
        t = CommTerm(Fraction(1, 2), 2, ((1, 1),))
        for scalar in (0.1, True, 2.0):
            with pytest.raises(ValueError):
                t.scaled(scalar)
            with pytest.raises(ValueError):
                LieExpr([t]).scaled(scalar)
        assert LieExpr([t]).scaled(-2) == LieExpr([CommTerm(-1, 2, ((1, 1),))])

    def test_is_a_value(self):
        t = CommTerm(coeff=1, head=2, tail=[(1, 1), (1, 2)])
        assert type(t.coeff) is Fraction and t.coeff == 1 and t.tail == ((1, 3),)
        same = CommTerm(Fraction(1), 2, ((1, 3),))
        assert t == same and hash(t) == hash(same)
        assert t != CommTerm(Fraction(1, 2), 2, ((1, 3),)) and t != CommTerm(Fraction(1), 2, ((1, 2),))
        assert repr(t) == "CommTerm(coeff=Fraction(1, 1), head=2, tail=((1, 3),))"
        for name in ("coeff", "head", "tail"):
            with pytest.raises(AttributeError):
                setattr(t, name, 1)

    def test_expand_term_is_left_nested(self):
        ctx = AlgebraCtx(3, 4)
        t = CommTerm(Fraction(1, 2), 3, ((1, 2), (2, 1)))
        assert expand_term(t, ctx) == nested(ctx, 3, 1, 1, 2).scaled(Fraction(1, 2))

    def test_expand_term_validates_against_ctx(self):
        ctx = AlgebraCtx(2, 3)
        with pytest.raises(ValueError):
            expand_term(CommTerm(Fraction(1), 3, ((1, 1),)), ctx)  # head > n
        with pytest.raises(ValueError):
            expand_term(CommTerm(Fraction(1), 2, ((1, 3),)), ctx)  # degree > K


class TestLieExpr:
    def test_like_terms_combine(self):
        a = CommTerm(Fraction(1, 2), 2, ((1, 1),))
        b = CommTerm(Fraction(1, 3), 2, ((1, 1),))
        e = LieExpr([a, b])
        assert len(e) == 1
        assert next(iter(e)).coeff == Fraction(5, 6)

    def test_cancellation_drops_terms(self):
        a = CommTerm(Fraction(1), 2, ((1, 1),))
        assert len(LieExpr([a, a.scaled(-1)])) == 0
        assert LieExpr([a, a.scaled(-1)]) == LieExpr()

    def test_terms_sorted_canonically(self):
        t1 = CommTerm(Fraction(1), 2, ((1, 2),))  # degree 3
        t2 = CommTerm(Fraction(1), 2, ((1, 1),))  # degree 2
        t3 = CommTerm(Fraction(1), 3, ((1, 1),))  # degree 2
        e = LieExpr([t1, t2, t3])
        # Degree ascending, then head: t2, t3, t1.
        assert [t.shape for t in e] == [t2.shape, t3.shape, t1.shape]

    def test_algebra(self):
        a = LieExpr([CommTerm(Fraction(1), 2, ((1, 1),))])
        b = LieExpr([CommTerm(Fraction(2), 3, ((1, 1),))])
        assert (a + b) + (-a) == b
        assert a.scaled(0) == LieExpr()
        assert a.scaled(Fraction(1, 2)) + a.scaled(Fraction(1, 2)) == a

    def test_expand_is_linear(self):
        rng = random.Random(42)
        ctx = AlgebraCtx(3, 5)
        for _ in range(10):
            terms = [
                CommTerm(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                    rng.randint(1, 3),
                    tuple((rng.randint(1, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))),
                )
                for _ in range(4)
            ]
            e1, e2 = LieExpr(terms[:2]), LieExpr(terms[2:])
            assert expand(e1 + e2, ctx) == expand(e1, ctx) + expand(e2, ctx)


class TestDsw:
    def test_fixes_brackets(self):
        ctx = AlgebraCtx(3, 4)
        for poly in (
            nested(ctx, 2, 1),
            nested(ctx, 3, 1, 2),
            nested(ctx, 2, 1, 1, 2),
            bracket(nested(ctx, 2, 1), nested(ctx, 3, 1)),
        ):
            assert dsw_project(poly) == poly

    def test_idempotent_on_homogeneous_inputs(self):
        rng = random.Random(99)
        ctx = AlgebraCtx(2, 5)
        for d in (2, 3, 4):
            words = [tuple(rng.randint(1, 2) for _ in range(d)) for _ in range(6)]
            p = AssocPoly(ctx, [(w, Fraction(rng.randint(-3, 3), 2)) for w in words])
            once = dsw_project(p)
            assert dsw_project(once) == once

    def test_detects_non_lie(self):
        ctx = AlgebraCtx(2, 2)
        x, y = AssocPoly.generator(ctx, 1), AssocPoly.generator(ctx, 2)
        assert dsw_project(x * y) != x * y  # products are not Lie elements

    def test_zero_and_errors(self):
        ctx = AlgebraCtx(2, 3)
        zero = AssocPoly.zero(ctx)
        assert dsw_project(zero) == zero
        with pytest.raises(ValueError):
            dsw_project(AssocPoly.one(ctx))  # degree 0
        with pytest.raises(ValueError):
            dsw_project(AssocPoly.one(ctx) + AssocPoly.generator(ctx, 1))  # mixed


class TestRenderParse:
    def test_render_text(self):
        e = LieExpr(
            [
                CommTerm(Fraction(1, 3), 2, ((1, 1), (2, 1))),
                CommTerm(Fraction(1, 6), 2, ((1, 2),)),
            ]
        )
        assert render(e, "text") == "1/3*[X2 X1 X2] + 1/6*[X2 X1^2]"

    def test_render_latex_template(self):
        e = LieExpr([CommTerm(Fraction(1, 2), 2, ((1, 1),))])
        assert render(e, "latex") == "\\frac{1}{2}[X_{2}, X_{1}]"
        nested_e = LieExpr([CommTerm(Fraction(-1), 2, ((1, 2),))])
        assert render(nested_e, "latex") == "-[[X_{2}, X_{1}], X_{1}]"
        signed_e = LieExpr([CommTerm(-3, 2, ((1, 1),)), CommTerm(1, 3, ((1, 1),)), CommTerm(Fraction(-5, 4), 3, ((2, 1),))])
        assert render(signed_e, "latex") == "-3[X_{2}, X_{1}] + [X_{3}, X_{1}] - \\frac{5}{4}[X_{3}, X_{2}]"

    def test_render_empty_and_signs(self):
        assert render(LieExpr(), "text") == "0"
        assert render(LieExpr(), "latex") == "0"
        e = LieExpr(
            [
                CommTerm(Fraction(-1), 2, ((1, 1),)),
                CommTerm(Fraction(-1, 2), 3, ((1, 1),)),
            ]
        )
        assert render(e, "text") == "-[X2 X1] - 1/2*[X3 X1]"

    def test_render_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            render(LieExpr(), "html")

    def test_parse_round_trip_randomized(self):
        rng = random.Random(1234)
        for _ in range(20):
            terms = [
                CommTerm(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
                    rng.randint(1, 12),
                    tuple(
                        (rng.randint(1, 12), rng.randint(1, 3))
                        for _ in range(rng.randint(1, 3))
                    ),
                )
                for _ in range(rng.randint(1, 5))
            ]
            e = LieExpr(terms)
            assert parse(render(e, "text")) == e

    def test_parse_round_trip_expands_equal(self):
        ctx = AlgebraCtx(3, 4)
        e = LieExpr(
            [
                CommTerm(Fraction(2, 3), 3, ((1, 1), (2, 1))),
                CommTerm(Fraction(-1, 6), 2, ((1, 2),)),
            ]
        )
        assert expand(parse(render(e, "text")), ctx) == expand(e, ctx)

    def test_parse_zero(self):
        assert parse("0") == LieExpr()

    def test_parse_errors(self):
        for bad in ("", "[X1", "1/2*(X1 X2)", "[X1^2 X2]", "[Y1 X2]", "x"):
            with pytest.raises(LieExprParseError):
                parse(bad)
