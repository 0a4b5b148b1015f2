import itertools
import re
import time
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zassenhaus import engine as engine_module
from zassenhaus.engine import (
    EngineCtx,
    PathDisagreementError,
    _expanded_formula,
    f1k_comm,
    f1k_direct,
    series,
    w_comm,
)
from zassenhaus.freealg import AlgebraCtx, AssocPoly, ad_pow, bracket, bracket_add, poly_sum, to_block
from zassenhaus.lieform import CommTerm, LieExpr, dsw_project, expand

from conftest import generators, restricted
from golden import expanded_formula, nested


def f1k_by_compositions(k, ctx):
    """f[1, k] as first written: one nested-ad chain per weak composition and i.

    (-1)^k * sum over i in 2..n and (j1..jn) >= 0 with j1+...+jn = k and
    j1+...+j(i-1) >= 1 of ad_{Xn}^{jn} ... ad_{X1}^{j1} X_i / (j1! ... jn!).
    """
    gens = generators(ctx)
    n = ctx.n
    pieces, scalars = [], []
    for cuts in itertools.combinations(range(k + n - 1), n - 1):
        bounds = (-1, *cuts, k + n - 1)
        jt = [hi - lo - 1 for lo, hi in zip(bounds, bounds[1:])]
        denom = 1
        for j in jt:
            denom *= factorial(j)
        for i in range(2, n + 1):
            if sum(jt[: i - 1]) < 1:
                continue
            v = gens[i - 1]
            for x, power in zip(gens, jt):
                v = ad_pow(x, power, v)
            pieces.append(v)
            scalars.append(Fraction((-1) ** k, denom))
    return poly_sum(ctx, pieces, scalars)


class TestF1kReference:
    """The graded pass equals the composition-by-composition formula."""

    @pytest.mark.parametrize("n, top", [(1, 12), (2, 12), (3, 12), (4, 6), (5, 6), (6, 6)])
    def test_direct_and_engine_match_compositions(self, n, top):
        ctx = AlgebraCtx(n, top + 1)
        e = EngineCtx(ctx)
        for k in range(1, top + 1):
            expected = f1k_by_compositions(k, ctx)
            assert f1k_direct(k, ctx) == expected, (n, k)
            assert e.fmk(1, k) == expected, (n, k)
            assert expected.is_zero == (n == 1)

    def test_engine_fills_every_f1_at_once(self):
        e = EngineCtx(AlgebraCtx(3, 7))
        first = e.fmk(1, 2)
        assert set(e._f_memo) == {(1, k) for k in range(1, 7)}
        assert e.fmk(1, 2) == first


class TestF1kIntegerPass:
    """The graded pass holds the part of added degree D times D!, in integers."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_compositions_with_k_factorial_integral(self, n):
        # Replacing C(D, j) by 1 in the pass breaks the equality from k = 2 on (n >= 2).
        ctx = AlgebraCtx(n, 8)
        e = EngineCtx(ctx)
        for k in range(1, 8):
            f = e.fmk(1, k)
            assert f == f1k_by_compositions(k, ctx), (n, k)
            _, nums, den = f.numerators()
            assert factorial(k) % den == 0, (n, k)  # k! f[1, k] is integral


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
        # A term's tail multiplicities are its composition (k1..kl) of k, and
        # its coefficient is 1/(k1!...kl!).
        coeffs = {}
        for t in f1k_comm(3, 3):
            coeffs.setdefault(tuple(mult for _, mult in t.tail), set()).add(t.coeff)
        assert coeffs == {
            (3,): {Fraction(1, 6)},
            (1, 2): {Fraction(1, 2)},
            (2, 1): {Fraction(1, 2)},
            (1, 1, 1): {1},
        }

    def test_index_constraints(self):
        # i1 < j <= n and i1 < i2 < ... <= n; j unconstrained vs i2...
        heads = {(t.head, t.tail) for t in f1k_comm(2, 3)}
        assert (2, ((1, 1), (2, 1))) in heads  # j may equal i2
        assert (2, ((1, 1), (3, 1))) in heads  # j < i2 allowed
        assert (3, ((1, 1), (2, 1))) in heads
        assert not any(h <= t[0][0] for h, t in heads)  # head always past i1

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 6), n=st.integers(1, 6))
    def test_term_count(self, k, n):
        # The term list is made at full length first, from this count: C(k-1, l-1)
        # compositions of l parts, and over the l-subsets of 1..n, (l-1) C(n, l) + l C(n, l+1) heads.
        count = sum(comb(k - 1, l - 1) * ((l - 1) * comb(n, l) + l * comb(n, l + 1)) for l in range(1, k + 1))
        assert len(f1k_comm(k, n)) == count

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

    @pytest.mark.parametrize("n, K", [(2, 12), (3, 8), (4, 6), (1, 5)])
    def test_horner_matches_the_sum(self, n, K):
        # f[m, k] = sum_j (-1)^j/j! ad_{W_m}^j f[m-1, k-mj], each power built afresh.
        e = EngineCtx(AlgebraCtx(n, K))
        for m in range(2, K):
            for k in range(m, K):
                js = range(k // m)
                terms = [ad_pow(e.w_term(m), j, e.fmk(m - 1, k - m * j)) for j in js]
                expected = poly_sum(e.alg, terms, [Fraction((-1) ** j, factorial(j)) for j in js])
                assert e.fmk(m, k) == expected, (n, m, k)

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

    def test_memoized(self, monkeypatch):
        # The memo holds blocks: a second call computes nothing and makes its polynomial from the same block.
        e = EngineCtx(AlgebraCtx(2, 5))
        w, f = e.w_term(4), e.fmk(2, 4)
        blocks = e.w_block(4), e._f_memo[2, 4]

        def refused(*args):
            raise AssertionError("a memo value was computed again")

        monkeypatch.setattr("zassenhaus.engine.bracket_add", refused)
        monkeypatch.setattr("zassenhaus.engine._f1_blocks", refused)
        assert e.w_term(4) == w and e.fmk(2, 4) == f
        assert e.w_block(4) is blocks[0] and e._f_memo[2, 4] is blocks[1]

    def test_memo_blocks_are_never_mutated(self):
        # Every f[m, k] block stays as it entered the memo, whatever reads it later.
        e = EngineCtx(AlgebraCtx(2, 12))
        list(series(e, "generic"))
        blocks = dict(e._f_memo)
        snapshot = {key: (den, list(nums)) for key, (den, nums) in blocks.items()}
        assert len(snapshot) > 30
        list(series(e, "both"))
        for m, k in blocks:
            e.fmk(m, k)
        assert all(e._f_memo[key] is blocks[key] for key in blocks)
        assert {key: (den, list(nums)) for key, (den, nums) in blocks.items()} == snapshot

    def test_backing_cache(self):
        # What a cache holds, the block of W_m, seeds a deeper context as `known`.
        cold = EngineCtx(AlgebraCtx(2, 6))
        stored = {m: to_block(w, m) for m, w in enumerate(series(cold), start=2)}
        assert all(len(nums) == 2**m for m, (_, nums) in stored.items())
        warm = EngineCtx(AlgebraCtx(2, 8), stored)
        for m in range(2, 7):
            assert warm.w_term(m) == restricted(cold.w_term(m), 8)
        assert not warm._f_memo  # every W_m came from `known`

    @pytest.mark.parametrize("n, K", [(2, 12), (3, 9)])
    def test_known_low_blocks_give_the_rows_and_later_terms(self, n, K, monkeypatch):
        # W_j with j <= (K-1)/2 supply the rows of the f[j, k] levels; handed over as known
        # blocks (copies, so that nothing is shared), they must give what a cold engine gives,
        # and each level j must bracket with the known block of W_j itself.
        cold = EngineCtx(AlgebraCtx(n, K))
        blocks = [cold.w_block(m) for m in range(2, K + 1)]
        low = {m: (den, list(nums)) for m, (den, nums) in enumerate(blocks[: (K - 1) // 2 - 1], start=2)}
        warm = EngineCtx(AlgebraCtx(n, K), low)
        bracketed_with = {}

        def recorded(f, a, b, r):
            bracketed_with.setdefault(len(a[1]), []).append(a)  # n^j names the level j
            return bracket_add(f, a, b, r)

        monkeypatch.setattr("zassenhaus.engine.bracket_add", recorded)
        assert [warm.w_block(m) for m in range(2, K + 1)] == blocks
        assert set(bracketed_with) == {n**m for m in low}
        assert all(a is low[m] for m in low for a in bracketed_with[n**m])
        assert all(warm.w_block(m) is low[m] for m in low)

    def test_warm_terms_makes_no_memo_block_and_no_dict(self, cli, tmp_path, monkeypatch):
        # Every W_m comes from the cache as a block and is rendered from it.
        made = []

        class Recorded(EngineCtx):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        cache = tmp_path / "c"
        runs = {fmt: ("terms", "--n", 3, "--max-degree", 7, "--format", fmt) for fmt in ("json", "text", "latex")}
        uncached = {fmt: cli(*argv).stdout for fmt, argv in runs.items()}
        assert cli(*runs["json"], "--cache", cache).stdout == uncached["json"]  # cold: fills the cache
        monkeypatch.setattr("zassenhaus.cli.EngineCtx", Recorded)
        for fmt, argv in runs.items():
            warm = cli(*argv, "--cache", cache)
            assert warm.returncode == 0 and warm.stdout == uncached[fmt]
        assert len(made) == 3
        for e in made:
            assert set(e._w_blocks) == set(range(2, 8))
            assert not e._f_memo
        cli(*runs["text"])
        assert made[-1]._f_memo  # an uncached run renders its blocks too

    def test_known_block_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError):
            EngineCtx(AlgebraCtx(2, 4), {3: (1, [0] * 4)})

    @pytest.mark.parametrize("m", [0, 1, 5, "3", 10**8])
    def test_known_block_of_no_term_is_refused_at_once(self, m):
        # Only W_2..W_K can be known; the key is checked before n**m, which took 0.7 s at m = 10**8.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(f"got W_{m!r}")):
            EngineCtx(AlgebraCtx(2, 4), {m: (1, [0])})
        assert time.perf_counter() - start < 0.1

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
            assert e.w_block_expanded(m) == e.w_block(m)

    def test_block_equals_the_dict_bracket_evaluation(self):
        # The formula evaluated on polynomials with the dict `bracket`, as `w_term_expanded` once did;
        # m = 11 and 12 start at f[2, .].
        for n, K in ((2, 12), (3, 8)):
            e = EngineCtx(AlgebraCtx(n, K))
            for m in range(5, K + 1):
                pieces = []
                for _, ad_ws, (mp, kp) in _expanded_formula(m):
                    v = e.fmk(mp, kp)
                    for w_idx in reversed(ad_ws):
                        v = bracket(e.w_term(w_idx), v)
                    pieces.append(v)
                scalars = [coeff / m for coeff, _, _ in _expanded_formula(m)]
                assert e.w_term_expanded(m) == poly_sum(e.alg, pieces, scalars), (n, m)

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
            base = 1 if m <= 10 else (m - 1) // 3 - 1
            assert rule[0] == (1, (), (base, m - 1)), m  # the bare term, which `w_block_expanded` starts from
            assert as_dict(rule) == as_dict(expanded_formula(m)), m
        with pytest.raises(ValueError):
            _expanded_formula(4)

    def test_errors(self):
        e = EngineCtx(AlgebraCtx(2, 6))
        for method in (e.w_term_expanded, e.w_block_expanded):
            with pytest.raises(ValueError):
                method(4)
            with pytest.raises(ValueError):
                method(7)


def _series(n, max_degree, path="generic"):
    return list(series(EngineCtx(AlgebraCtx(n, max_degree)), path))


class TestSeries:
    def test_two_variable_values(self):
        w2, w3, _ = _series(2, 4)
        ctx = AlgebraCtx(2, 4)
        x, y = AssocPoly.generator(ctx, 1), AssocPoly.generator(ctx, 2)
        assert w2 == bracket(x, y).scaled(Fraction(-1, 2))
        assert w3 == bracket(y, bracket(x, y)).scaled(
            Fraction(1, 3)
        ) + bracket(x, bracket(x, y)).scaled(Fraction(1, 6))

    def test_comm_display_expands_to_poly(self):
        ctx = AlgebraCtx(3, 6)
        for m, w in enumerate(series(EngineCtx(ctx)), start=2):
            comm = w_comm(m, 3)
            if m <= 4:
                assert expand(comm, ctx) == w
            else:
                assert comm is None

    def test_both_paths_agree(self, engine):
        assert _series(2, 9, path="both") == list(series(engine(2, 9)))

    def test_both_yields_only_checked_terms(self, monkeypatch):
        ectx = EngineCtx(AlgebraCtx(2, 7))
        expanded = ectx.w_block_expanded

        def doubled_at_6(m):
            den, nums = expanded(m)
            return (den, [2 * c for c in nums]) if m == 6 else (den, nums)

        monkeypatch.setattr(ectx, "w_block_expanded", doubled_at_6)
        got = []
        with pytest.raises(PathDisagreementError, match="W_6"):
            for w in series(ectx, path="both"):
                got.append(w)
        assert got == [ectx.w_term(m) for m in range(2, 6)]

    def test_both_catches_a_wrong_term_of_a_formula_from_f2(self, monkeypatch):
        # W_11 is the first formula that starts at f[base, .] with base >= 2: doubling the
        # coefficient of one of its f[2, .] terms must be caught there, after W_2..W_10.
        formula = engine_module._expanded_formula

        def corrupted(m):
            terms = formula(m)
            if m == 11:
                i = next(i for i, (_, ad_ws, (mp, _)) in enumerate(terms) if ad_ws and mp == 2)
                coeff, ad_ws, leaf = terms[i]
                terms[i] = (2 * coeff, ad_ws, leaf)
            return terms

        monkeypatch.setattr(engine_module, "_expanded_formula", corrupted)
        ectx = EngineCtx(AlgebraCtx(2, 12))
        got = []
        with pytest.raises(PathDisagreementError, match="W_11"):
            for block in ectx.series_blocks("both"):
                got.append(block)
        assert got == [ectx.w_block(m) for m in range(2, 11)]

    def test_single_generator_all_zero(self):
        assert all(w.is_zero for w in _series(1, 6))

    def test_monotone_consistency(self):
        # W_m does not depend on the truncation degree.
        for n, short_k, full_k in ((3, 4, 6), (2, 6, 9), (3, 4, 7)):
            full = _series(n, full_k)
            short = _series(n, short_k)
            for m in range(2, short_k + 1):
                assert restricted(full[m - 2], short_k) == short[m - 2]

    def test_reuses_engine_context(self):
        e = EngineCtx(AlgebraCtx(2, 6))
        ws = list(series(e))
        assert ws[2] == e.w_term(4)
        assert set(e._w_blocks) == set(range(2, 7))  # the series filled this context's memo

    def test_errors(self):
        with pytest.raises(ValueError):
            _series(2, 6, path="sideways")
        with pytest.raises(ValueError):
            _series(2, 6, path="expanded")  # the expanded formulas are only the cross-check of "both"
        with pytest.raises(ValueError):
            _series(2, 1)
        with pytest.raises(ValueError):
            w_comm(1, 2)


@pytest.mark.parametrize(
    "argv, cached",
    [
        (("terms", "--n", 3, "--max-degree", 7, "--format", "json"), True),
        (("terms", "--n", 3, "--max-degree", 7, "--format", "text"), True),
        (("terms", "--n", 3, "--max-degree", 7, "--format", "latex"), True),
        (("terms", "--n", 2, "--max-degree", 11, "--path", "both", "--format", "text"), False),
        (("verify", "--n", 2, "--max-degree", 6, "--mode", "all"), False),
    ],
    ids=["terms-json", "terms-text", "terms-latex", "terms-both", "verify-all"],
)
def test_commands_make_no_engine_polynomial(cli, tmp_path, monkeypatch, argv, cached):
    # The commands read the engine's blocks only: with `from_block` refused inside the engine, every
    # run (terms also cold, then warm, from --cache) prints what it prints unpatched, so no polynomial
    # is made there, not even one that is dropped at once.
    expected = cli(*argv)
    assert expected.returncode == 0

    def refused(*args):
        raise AssertionError("the engine made a polynomial")

    monkeypatch.setattr("zassenhaus.engine.from_block", refused)
    cache = tmp_path / "cache"
    for run in [argv, (*argv, "--cache", cache), (*argv, "--cache", cache)] if cached else [argv]:
        r = cli(*run)
        assert (r.returncode, r.stdout) == (0, expected.stdout), r.stderr
    assert cache.exists() == cached
