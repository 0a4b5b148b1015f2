import copy
import pickle
import random
from fractions import Fraction

import pytest

from zassenhaus.freealg import (
    AlgebraCtx,
    AssocPoly,
    ContextMismatchError,
    ad_pow,
    bracket,
    exp_trunc,
    generators,
    log_trunc,
    poly_sum,
)
from zassenhaus.lieform import CommTerm, LieExpr
from zassenhaus.oracle import VerificationReport

from conftest import restricted


def word_key(word):
    """Sort key of the canonical order: degree ascending, then lexicographic."""
    return (len(word), word)


def rand_poly(rng, ctx, nterms=6, max_deg=None, constant_free=False):
    max_deg = ctx.max_degree if max_deg is None else max_deg
    lo = 1 if constant_free else 0
    terms = []
    for _ in range(nterms):
        d = rng.randint(lo, max_deg)
        word = tuple(rng.randint(1, ctx.n) for _ in range(d))
        terms.append((word, Fraction(rng.randint(-6, 6), rng.randint(1, 6))))
    return AssocPoly(ctx, terms)


class TestConstruction:
    def test_zero_coefficients_are_dropped(self):
        ctx = AlgebraCtx(2, 3)
        p = AssocPoly(ctx, [((1,), 1), ((1,), -1), ((2,), Fraction(1, 2))])
        assert p.terms() == [((2,), Fraction(1, 2))]
        assert len(p) == 1

    def test_duplicate_words_accumulate(self):
        ctx = AlgebraCtx(2, 3)
        p = AssocPoly(ctx, [((1, 2), 1), ((1, 2), Fraction(1, 3))])
        assert p.coeff((1, 2)) == Fraction(4, 3)

    def test_word_validation(self):
        ctx = AlgebraCtx(2, 3)
        with pytest.raises(ValueError):
            AssocPoly(ctx, [((3,), 1)])
        with pytest.raises(ValueError):
            AssocPoly(ctx, [((1, 1, 1, 1), 1)])
        with pytest.raises(ValueError):
            AssocPoly.monomial(ctx, (0,))

    @pytest.mark.parametrize("letter", [1.5, 1.0, True, "1"])
    def test_letters_must_be_ints(self, letter):
        # Unchecked, 1.5 would render as X1.5, 1.0 as X1.0, and True would count as letter 1.
        ctx = AlgebraCtx(2, 2)
        with pytest.raises(ValueError):
            AssocPoly(ctx, {(letter,): 1})
        with pytest.raises(ValueError):
            AssocPoly.monomial(ctx, (letter, 2))
        with pytest.raises(ValueError):
            AssocPoly.from_json_dict({"n": 2, "maxDegree": 2, "terms": [{"word": [letter, 2], "coeff": "5/6"}]})

    def test_ctx_validation(self):
        with pytest.raises(ValueError):
            AlgebraCtx(0, 5)
        with pytest.raises(ValueError):
            AlgebraCtx(2, 0)
        with pytest.raises(ValueError):
            AlgebraCtx(2.0, 3)
        with pytest.raises(ValueError):
            AlgebraCtx(2, True)

    def test_ctx_is_a_value(self):
        # Error messages print the repr; contexts compare and hash by their fields alone.
        ctx = AlgebraCtx(n=2, max_degree=3)
        assert repr(ctx) == "AlgebraCtx(n=2, max_degree=3)"
        assert (ctx.n, ctx.max_degree) == (2, 3)
        assert ctx == AlgebraCtx(2, 3) and hash(ctx) == hash(AlgebraCtx(2, 3))
        assert ctx != AlgebraCtx(3, 2) and ctx != (2, 3)
        for name in ("n", "max_degree"):
            with pytest.raises(AttributeError):
                setattr(ctx, name, 4)
            with pytest.raises(AttributeError):
                delattr(ctx, name)
        assert ctx._offsets == [0, 1, 3, 7, 15] and ctx._offsets is ctx._offsets
        with pytest.raises(ValueError):  # one field short makes no value with a field unset
            AlgebraCtx._make(2)

    def test_generator_range(self):
        ctx = AlgebraCtx(2, 3)
        assert AssocPoly.generator(ctx, 2).coeff((2,)) == 1
        with pytest.raises(ValueError):
            AssocPoly.generator(ctx, 3)
        with pytest.raises(ValueError):
            AssocPoly.generator(ctx, True)

    def test_numerators_round_trip(self):
        ctx = AlgebraCtx(2, 3)
        p = AssocPoly(ctx, [((2, 1), Fraction(-1, 6)), ((1,), Fraction(3, 4)), ((1, 2), Fraction(1, 6))])
        assert p.numerators() == ([(1,), (1, 2), (2, 1)], [9, 2, -2], 12)
        assert AssocPoly.from_numerators(ctx, *p.numerators()) == p
        assert AssocPoly.from_numerators(ctx, [], [], 1) == AssocPoly.zero(ctx)

    @pytest.mark.parametrize(
        "words, nums, den",
        [
            ([(1,), (1, 2)], [3, 2], 0),  # denominator not positive
            ([(1,), (1, 2)], [-3, -2], -4),
            ([(1,), (1, 2)], [3, 2], 4.0),
            ([(1,), (1, 2)], [3, 2], True),
            ([(1,), (1, 2)], [3, 0], 4),  # zero numerator
            ([(1,), (1, 2)], [3, True], 4),
            ([(1,), (1, 2)], [3, 2.0], 4),
            ([(1,), (1, 2)], [6, 2], 4),  # common factor 2
            ([(1,), (1, 2)], [3], 4),  # lengths differ
            ([(1, 2), (1,)], [2, 3], 4),  # not in canonical order
            ([(1, 2), (1, 2)], [3, 1], 4),  # repeated word
            ([(1,), (1, 3)], [3, 2], 4),  # letter out of range
            ([(1,), (1.0, 2)], [3, 2], 4),
            ([(1,), (True, 2)], [3, 2], 4),
            ([(1,), (1, 2, 1, 2)], [3, 2], 4),  # longer than max_degree
        ],
    )
    def test_from_numerators_rejects_non_canonical_forms(self, words, nums, den):
        with pytest.raises(ValueError):
            AssocPoly.from_numerators(AlgebraCtx(2, 3), words, nums, den)

    @pytest.mark.parametrize("scalar", [0.1, 0.5, 1.0, float("nan"), True, False, "1/2", None])
    def test_scalars_must_be_exact(self, scalar):
        # Unchecked, 0.1 would become 3602879701896397/36028797018963968 and True would count as 1.
        ctx = AlgebraCtx(2, 2)
        x = AssocPoly.generator(ctx, 1)
        with pytest.raises(ValueError):
            AssocPoly(ctx, {(1, 2): scalar})
        with pytest.raises(ValueError):
            AssocPoly(ctx, [((1, 2), 1), ((2,), scalar)])
        with pytest.raises(ValueError):
            AssocPoly.monomial(ctx, (1, 2), scalar)
        with pytest.raises(ValueError):
            x.scaled(scalar)
        with pytest.raises(ValueError):
            poly_sum(ctx, [x], [scalar])

    @pytest.mark.parametrize(
        "change",
        [
            {"n": "2"},
            {"n": 2.9},
            {"n": 2.0},
            {"n": True},
            {"maxDegree": "3"},
            {"maxDegree": 3.0},
            {"maxDegree": False},
            {"coeff": 0.1},
            {"coeff": 1},
            {"coeff": True},
            {"coeff": None},
            {"coeff": "0.5"},
            {"coeff": "1e-3"},
            {"coeff": " 1/2 "},
            {"coeff": "1/2 "},
            {"coeff": "1"},
            {"coeff": "2/4"},  # not reduced
            {"coeff": "-1/-2"},
            {"coeff": "1/-2"},
            {"coeff": "0/1"},  # zero
            {"coeff": "-0/1"},
            {"coeff": "01/2"},
            {"coeff": "1/02"},
            {"coeff": "+1/2"},
            {"coeff": "1_0/3"},
            {"coeff": "\u0661/2"},  # a non-ASCII digit
            {"coeff": ["1/2"]},
            {"word": [1]},  # the word of the term before
            {"word": []},  # out of canonical order
            {"word": [1, 3]},
            {"word": [1, 2, 1, 2]},
            {"word": [1.0, 2]},
            {"word": [True, 2]},
            {"word": "12"},
            {"word": 12},
            {"extra": 1},
            {"drop": "coeff"},
            {"drop": "n"},
            {"drop": "terms"},
            {"terms": None},
            {"terms": {"word": [1], "coeff": "1/2"}},
            {"terms": ["1/2"]},
        ],
    )
    def test_from_json_dict_rejects_non_canonical_forms(self, change):
        form = {"n": 2, "maxDegree": 3, "terms": [{"word": [1], "coeff": "1/3"}, {"word": [2, 1], "coeff": "-5/2"}]}
        valid = AssocPoly(AlgebraCtx(2, 3), {(1,): Fraction(1, 3), (2, 1): Fraction(-5, 2)})
        assert AssocPoly.from_json_dict(form) == valid  # the form before the change reads back
        last = form["terms"][-1]
        for key, value in change.items():
            if key == "drop":
                (last if value in last else form).pop(value)
            elif key in last or key == "extra":
                last[key] = value
            else:
                form[key] = value
        with pytest.raises(ValueError):
            AssocPoly.from_json_dict(form)

    def test_immutability(self):
        p = AssocPoly.one(AlgebraCtx(1, 1))
        with pytest.raises(AttributeError):
            p.ctx = AlgebraCtx(2, 2)

    @pytest.mark.parametrize(
        "copied",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    @pytest.mark.parametrize(
        "value",
        [
            AlgebraCtx(3, 5),
            AssocPoly(AlgebraCtx(3, 5), {(): Fraction(1, 6), (3, 1): -(2**70), (1, 2, 3): Fraction(5, 4)}),
            AssocPoly.zero(AlgebraCtx(2, 4)),
            CommTerm(Fraction(-2, 3), 2, ((1, 2), (3, 1))),
            LieExpr([CommTerm(Fraction(1, 2), 2, ((1, 1),)), CommTerm(-1, 3, ((1, 1), (2, 2)))]),
            VerificationReport("exact", True, ((None, Fraction(0)),), detail="defect zero up to degree 5"),
            VerificationReport("numeric", False, ((0.2, 1e-3), (0.1, 2e-4)), 2.3, True, "order below 6"),
        ],
        ids=["AlgebraCtx", "AssocPoly", "AssocPoly-zero", "CommTerm", "LieExpr", "report-exact", "report-numeric"],
    )
    def test_immutable_values_pickle_and_copy(self, value, copied):
        # Each is remade from its fields, not restored through the __setattr__ that refuses writes.
        twin = copied(value)
        assert type(twin) is type(value) and twin == value
        with pytest.raises(AttributeError):
            twin.extra = 1
        # The stored fields: the slots along the class chain, else the instance dict.
        fields = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())] or list(vars(value))
        assert fields
        for v in (value, twin):
            for name in fields:
                with pytest.raises(AttributeError):
                    delattr(v, name)
        assert twin == value and twin == copied(value)


class TestArithmetic:
    def test_ring_identities_randomized(self):
        rng = random.Random(101)
        ctx = AlgebraCtx(3, 5)
        zero, one = AssocPoly.zero(ctx), AssocPoly.one(ctx)
        for _ in range(25):
            a, b, c = (rand_poly(rng, ctx) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a + zero == a
            assert a - a == zero
            assert a * one == a and one * a == a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert a.scaled(Fraction(2, 3)).scaled(Fraction(3, 2)) == a
            assert -(-a) == a
            assert 2 * a == a + a

    def test_noncommutative(self):
        ctx = AlgebraCtx(2, 2)
        x, y = generators(ctx)
        assert x * y != y * x

    def test_multiplication_truncates(self):
        ctx = AlgebraCtx(2, 3)
        x, y = generators(ctx)
        p = (x * y) * (x * y)  # degree 4 > 3
        assert p.is_zero

    def test_truncation_is_consistent(self):
        # Computing deep and restricting agrees with computing shallow.
        rng = random.Random(7)
        deep = AlgebraCtx(2, 6)
        for _ in range(10):
            a, b = rand_poly(rng, deep), rand_poly(rng, deep)
            shallow = restricted(a * b, 4)
            assert shallow == restricted(a, 4) * restricted(b, 4)

    def test_context_mismatch_rejected(self):
        a = AssocPoly.one(AlgebraCtx(2, 3))
        b = AssocPoly.one(AlgebraCtx(2, 4))
        with pytest.raises(ContextMismatchError):
            a + b
        with pytest.raises(ContextMismatchError):
            a * b
        with pytest.raises(ContextMismatchError):
            poly_sum(AlgebraCtx(2, 3), [b])

    def test_poly_sum_with_scalars(self):
        ctx = AlgebraCtx(2, 3)
        x, y = generators(ctx)
        assert poly_sum(ctx, [x, y, x], [Fraction(1, 2), -3, Fraction(1, 2)]) == x - y.scaled(3)
        assert poly_sum(ctx, [x, y], [0, 0]).is_zero
        with pytest.raises(ValueError):
            poly_sum(ctx, [x, y], [1])


class TestBracket:
    def test_antisymmetry_and_jacobi_randomized(self):
        rng = random.Random(202)
        ctx = AlgebraCtx(2, 5)
        zero = AssocPoly.zero(ctx)
        for _ in range(15):
            a, b, c = (rand_poly(rng, ctx, nterms=4) for _ in range(3))
            assert bracket(a, b) == -bracket(b, a)
            assert bracket(a, a) == zero
            jacobi = (
                bracket(a, bracket(b, c))
                + bracket(b, bracket(c, a))
                + bracket(c, bracket(a, b))
            )
            assert jacobi == zero

    def test_ad_pow_matches_iteration(self):
        rng = random.Random(303)
        ctx = AlgebraCtx(2, 6)
        a, b = rand_poly(rng, ctx, nterms=3), rand_poly(rng, ctx, nterms=3)
        expected = b
        for p in range(4):
            assert ad_pow(a, p, b) == expected
            expected = bracket(a, expected)

    def test_ad_pow_rejects_negative(self):
        ctx = AlgebraCtx(1, 1)
        one = AssocPoly.one(ctx)
        with pytest.raises(ValueError):
            ad_pow(one, -1, one)


class TestExpLog:
    def test_exp_log_inverse_randomized(self):
        rng = random.Random(404)
        ctx = AlgebraCtx(2, 6)
        for _ in range(10):
            a = rand_poly(rng, ctx, nterms=4, constant_free=True)
            assert log_trunc(exp_trunc(a)) == a
            u = AssocPoly.one(ctx) + rand_poly(rng, ctx, nterms=4, constant_free=True)
            assert exp_trunc(log_trunc(u)) == u

    def test_exp_of_sum_commuting_case(self):
        # With one generator everything commutes, so exp is a homomorphism.
        rng = random.Random(505)
        ctx = AlgebraCtx(1, 8)
        a = rand_poly(rng, ctx, nterms=4, constant_free=True)
        b = rand_poly(rng, ctx, nterms=4, constant_free=True)
        assert exp_trunc(a + b) == exp_trunc(a) * exp_trunc(b)

    def test_exp_inverse(self):
        ctx = AlgebraCtx(2, 7)
        x, y = generators(ctx)
        a = x + y * x.scaled(Fraction(1, 3))
        assert exp_trunc(a) * exp_trunc(-a) == AssocPoly.one(ctx)

    def test_exp_requires_constant_free(self):
        ctx = AlgebraCtx(1, 2)
        with pytest.raises(ValueError):
            exp_trunc(AssocPoly.one(ctx))

    def test_log_requires_unit_constant(self):
        ctx = AlgebraCtx(1, 2)
        with pytest.raises(ValueError):
            log_trunc(AssocPoly.generator(ctx, 1))


class TestGradingAndInspection:
    def test_degree_components(self):
        ctx = AlgebraCtx(2, 4)
        x, y = generators(ctx)
        p = AssocPoly.one(ctx) + x * y + y
        assert p.degree_component(2) == x * y
        assert p.degree_component(0) == AssocPoly.one(ctx)
        assert {len(w) for w, _ in p.terms()} == {0, 1, 2}
        assert p.homogeneous_degree() is None
        assert (x * y).homogeneous_degree() == 2
        assert AssocPoly.zero(ctx).homogeneous_degree() is None
        with pytest.raises(ValueError):
            p.degree_component(5)
        assert p.degree_components(1) == [y, x * y, AssocPoly.zero(ctx), AssocPoly.zero(ctx)]
        assert AssocPoly.zero(ctx).degree_components(3) == [AssocPoly.zero(ctx)] * 2
        assert p.degree_components(5) == []
        with pytest.raises(ValueError):
            p.degree_components(-1)

    def test_restricted(self):
        ctx = AlgebraCtx(2, 4)
        x, y = generators(ctx)
        p = x + x * y + x * y * x * y
        q = restricted(p, 2)
        assert q.ctx.max_degree == 2
        assert q.coeff((1, 2)) == 1 and q.coeff((1, 2, 1, 2)) == 0

    def test_coeff_of_a_foreign_word_is_zero(self):
        # (3,) is no word at n = 2; as a base-2 numeral it would read like (1, 1).
        ctx = AlgebraCtx(2, 3)
        p = AssocPoly(ctx, {(1, 1): 5, (2,): 1})
        assert p.coeff((1, 1)) == 5
        for word in [(3,), (0, 1), (1, 1, 1, 1), (True, 1), (1.0, 1), ("1",)]:
            assert p.coeff(word) == 0

    def test_max_abs_coeff(self):
        ctx = AlgebraCtx(1, 2)
        p = AssocPoly(ctx, [((1,), Fraction(-7, 2)), ((1, 1), 3)])
        assert p.max_abs_coeff() == Fraction(7, 2)
        assert AssocPoly.zero(ctx).max_abs_coeff() == 0


class TestRendering:
    def test_canonical_term_order(self):
        ctx = AlgebraCtx(2, 3)
        p = AssocPoly(ctx, [((2, 1), 1), ((1, 2), 1), ((2,), 1), ((), 1)])
        assert [w for w, _ in p.terms()] == [(), (2,), (1, 2), (2, 1)]
        assert word_key((1, 2)) < word_key((2, 1))

    def test_text(self):
        ctx = AlgebraCtx(2, 3)
        p = AssocPoly(ctx, [((), Fraction(-1, 3)), ((2,), -1), ((1, 2), 2)])
        assert p.text() == "-1/3 - X2 + 2*X1*X2"
        assert AssocPoly.zero(ctx).text() == "0"
        assert AssocPoly.one(ctx).text() == "1"

    def test_latex(self):
        ctx = AlgebraCtx(2, 3)
        table = [
            ([((), Fraction(-1, 3)), ((2,), -1), ((1, 2), 2)], "-\\frac{1}{3}-X_{2}+2X_{1}X_{2}"),
            ([], "0"),
            ([((), 1)], "1"),
            ([((), -1)], "-1"),
            ([((), 5), ((1,), 1)], "5+X_{1}"),
            ([((1,), 1), ((2,), -1)], "X_{1}-X_{2}"),
            ([((1,), -1), ((1, 2), 1)], "-X_{1}+X_{1}X_{2}"),
            ([((1,), -3), ((2, 1), Fraction(5, 7))], "-3X_{1}+\\frac{5}{7}X_{2}X_{1}"),
            ([((), Fraction(1, 2)), ((1,), Fraction(-2, 3))], "\\frac{1}{2}-\\frac{2}{3}X_{1}"),
            ([((1, 2), 4), ((2, 1), -4)], "4X_{1}X_{2}-4X_{2}X_{1}"),
        ]
        for terms, expected in table:
            assert AssocPoly(ctx, terms).latex() == expected

    def test_json_round_trip(self):
        rng = random.Random(606)
        ctx = AlgebraCtx(3, 4)
        for _ in range(10):
            p = rand_poly(rng, ctx)
            d = p.to_json_dict()
            assert d["n"] == 3 and d["maxDegree"] == 4
            words = [tuple(t["word"]) for t in d["terms"]]
            assert words == sorted(words, key=word_key)
            assert AssocPoly.from_json_dict(d) == p
