from fractions import Fraction

import pytest

from zassenhaus.engine import (
    EngineCtx,
    PathDisagreementError,
    _expanded_formula,
    f1k_comm,
    f1k_comm_grouped,
    f1k_direct,
    series,
)
from zassenhaus.freealg import AlgebraCtx, AssocPoly, ad_pow, bracket
from zassenhaus.lieform import CommTerm, LieExpr, dsw_project, expand

from golden import expanded_formula, nested


class TestF1kDirect:
    def test_k1_n2_is_single_bracket(self):
        ctx = AlgebraCtx(2, 2)
        assert f1k_direct(1, ctx) == nested(ctx, 2, 1)

    def test_k1_n3_is_three_brackets(self):
        ctx = AlgebraCtx(3, 2)
        expected = nested(ctx, 2, 1) + nested(ctx, 3, 1) + nested(ctx, 3, 2)
        assert f1k_direct(1, ctx) == expected

    def test_single_generator_vanishes(self):
        ctx = AlgebraCtx(1, 6)
        for k in range(1, 6):
            assert f1k_direct(k, ctx).is_zero

    def test_homogeneous_degree(self):
        ctx = AlgebraCtx(3, 6)
        for k in range(1, 6):
            assert f1k_direct(k, ctx).homogeneous_degree() == k + 1

    def test_errors(self):
        ctx = AlgebraCtx(2, 3)
        with pytest.raises(ValueError):
            f1k_direct(0, ctx)
        with pytest.raises(ValueError):
            f1k_direct(3, ctx)  # degree 4 > max_degree 3


class TestF1kComm:
    def test_k2_n2_display(self):
        expected = LieExpr(
            [
                CommTerm(Fraction(1), 2, ((1, 1), (2, 1))),
                CommTerm(Fraction(1, 2), 2, ((1, 2),)),
            ]
        )
        assert f1k_comm(2, 2) == expected

    def test_k4_n2_lowest_class_coefficient(self):
        e = f1k_comm(4, 2)
        by_shape = {t.shape: t.coeff for t in e}
        assert by_shape[(2, ((1, 4),))] == Fraction(1, 24)

    def test_empty_for_single_generator(self):
        assert f1k_comm(3, 1) == LieExpr()

    def test_grouped_by_composition(self):
        groups = f1k_comm_grouped(3, 3)
        assert [comp for comp, _ in groups] == [(3,), (1, 2), (2, 1), (1, 1, 1)]
        # Composition (k1..kl) group carries coefficient 1/(k1!...kl!).
        by_comp = dict(groups)
        assert all(t.coeff == Fraction(1, 6) for t in by_comp[(3,)])
        assert all(t.coeff == Fraction(1, 2) for t in by_comp[(1, 2)])
        assert all(t.coeff == 1 for t in by_comp[(1, 1, 1)])

    def test_index_constraints(self):
        # i1 < j <= n and i1 < i2 < ... <= n; j unconstrained vs i2...
        heads = {(t.head, t.tail) for t in f1k_comm(2, 3)}
        assert (2, ((1, 1), (2, 1))) in heads  # j may equal i2
        assert (2, ((1, 1), (3, 1))) in heads  # j < i2 allowed
        assert (3, ((1, 1), (2, 1))) in heads
        assert not any(h <= t[0][0] for h, t in heads)  # head always past i1

    def test_errors(self):
        with pytest.raises(ValueError):
            f1k_comm(0, 2)
        with pytest.raises(ValueError):
            f1k_comm(2, 0)


class TestFmk:
    def test_f24_unrolls_once(self, engine):
        for n in (2, 3):
            e = engine(n, 5)
            expected = e.fmk(1, 4) - ad_pow(e.w_term(2), 1, e.fmk(1, 2))
            assert e.fmk(2, 4) == expected

    def test_fmm_gives_next_w(self, engine):
        for n in (2, 3):
            e = engine(n, 6)
            for m in (2, 3, 4):
                assert e.fmk(m, m) == e.w_term(m + 1).scaled(m + 1)

    def test_all_zero_for_single_generator(self, engine):
        e = engine(1, 6)
        assert e.fmk(2, 4).is_zero and e.fmk(2, 5).is_zero

    def test_homogeneity(self, engine):
        e = engine(3, 7)
        for m, k in ((1, 3), (2, 4), (2, 6), (3, 6)):
            assert e.fmk(m, k).homogeneous_degree() == k + 1

    def test_errors(self, engine):
        e = engine(2, 4)
        with pytest.raises(ValueError):
            e.fmk(0, 1)
        with pytest.raises(ValueError):
            e.fmk(3, 2)  # k < m
        with pytest.raises(ValueError):
            e.fmk(1, 4)  # degree 5 > max_degree 4


class TestWTerm:
    def test_w2_n3_display(self, engine):
        ctx = AlgebraCtx(3, 6)
        expected = (nested(ctx, 2, 1) + nested(ctx, 3, 1) + nested(ctx, 3, 2)).scaled(
            Fraction(1, 2)
        )
        assert engine(3, 6).w_term(2) == expected

    def test_w5_closed_form(self, engine):
        # W5 = (1/5) f[1,4] - (1/10) [f[1,1], f[1,2]]
        for n in (2, 3):
            e = engine(n, 5)
            ctx = e.alg
            expected = f1k_direct(4, ctx).scaled(Fraction(1, 5)) - bracket(
                f1k_direct(1, ctx), f1k_direct(2, ctx)
            ).scaled(Fraction(1, 10))
            assert e.w_term(5) == expected

    def test_homogeneous_and_lie(self, engine):
        e = engine(3, 6)
        for m in range(2, 7):
            w = e.w_term(m)
            assert w.homogeneous_degree() == m
            assert dsw_project(w) == w

    def test_single_generator_vanishes(self, engine):
        e = engine(1, 8)
        assert all(e.w_term(m).is_zero for m in range(2, 9))

    def test_memoized(self, engine):
        e = EngineCtx(AlgebraCtx(2, 5))
        assert e.w_term(4) is e.w_term(4)
        assert e.fmk(2, 4) is e.fmk(2, 4)

    def test_backing_cache(self):
        class DictCache(dict):
            def load(self, n, m):
                return self.get((n, m))

            def store(self, n, m, poly):
                self[n, m] = poly

        cache = DictCache()
        cold = series(2, 6, ectx=EngineCtx(AlgebraCtx(2, 6), cache))
        assert sorted(cache) == [(2, m) for m in range(2, 7)]
        assert all(poly.ctx == AlgebraCtx(n, m) for (n, m), poly in cache.items())
        warm = EngineCtx(AlgebraCtx(2, 8), cache)
        for m in range(2, 7):
            assert warm.w_term(m) == cold.term(m).poly.restricted(8)
        assert not warm._f_memo  # every W_m came from the cache

    def test_errors(self):
        e = EngineCtx(AlgebraCtx(2, 4))
        with pytest.raises(ValueError):
            e.w_term(1)  # the product starts at W_2
        with pytest.raises(ValueError):
            e.w_term(5)  # beyond truncation


class TestWTermExpanded:
    def test_matches_generic_small(self, engine):
        e = engine(2, 10)
        for m in range(5, 11):
            assert e.w_term_expanded(m) == e.w_term(m)

    def test_unroll_rule_equals_the_paper_formulas(self):
        # Both sides are formal sums of ad-words applied to f[m', k'], so equal
        # term lists give equal W_m for every n, without polynomial arithmetic.
        def as_dict(terms):
            out = {(word, leaf): coeff for coeff, word, leaf in terms}
            assert len(out) == len(terms)  # no repeated (ad-word, f[m', k']) key
            return out

        for m in range(5, 41):
            rule = _expanded_formula(m)
            assert all(coeff for coeff, _, _ in rule)
            assert as_dict(rule) == as_dict(expanded_formula(m)), m
        with pytest.raises(ValueError):
            _expanded_formula(4)

    def test_errors(self):
        e = EngineCtx(AlgebraCtx(2, 6))
        with pytest.raises(ValueError):
            e.w_term_expanded(4)
        with pytest.raises(ValueError):
            e.w_term_expanded(7)


class TestSeries:
    def test_two_variable_values(self):
        s = series(2, 4)
        ctx = AlgebraCtx(2, 4)
        x, y = AssocPoly.generator(ctx, 1), AssocPoly.generator(ctx, 2)
        assert s.term(2).poly == bracket(x, y).scaled(Fraction(-1, 2))
        assert s.term(3).poly == bracket(y, bracket(x, y)).scaled(
            Fraction(1, 3)
        ) + bracket(x, bracket(x, y)).scaled(Fraction(1, 6))

    def test_comm_display_expands_to_poly(self):
        s = series(3, 6)
        for term in s:
            if term.comm is not None:
                assert term.m <= 4
                assert expand(term.comm, s.terms[0].poly.ctx) == term.poly
            else:
                assert term.m >= 5

    def test_both_paths_agree(self):
        s = series(2, 9, path="both")
        assert [t.m for t in s] == list(range(2, 10))

    def test_single_generator_all_zero(self):
        assert all(t.poly.is_zero for t in series(1, 6))

    def test_monotone_consistency(self):
        # W_m does not depend on the truncation degree.
        for n, short_k, full_k in ((3, 4, 6), (2, 6, 9), (3, 4, 7)):
            full = series(n, full_k)
            short = series(n, short_k)
            for m in range(2, short_k + 1):
                assert full.term(m).poly.restricted(short_k) == short.term(m).poly

    def test_reuses_engine_context(self, engine):
        e = engine(2, 6)
        s = series(2, 6, ectx=e)
        assert s.term(4).poly is e.w_term(4)

    def test_errors(self):
        with pytest.raises(ValueError):
            series(2, 6, path="sideways")
        with pytest.raises(ValueError):
            series(2, 1)
        with pytest.raises(ValueError):
            series(3, 6, ectx=EngineCtx(AlgebraCtx(2, 6)))
        with pytest.raises(ValueError):
            series(2, 6).term(7)
