import itertools
import math
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import restricted, shared_engine
from zassenhaus import oracle
from zassenhaus.freealg import AlgebraCtx, AssocPoly, exp_trunc, generators, log_trunc, poly_sum
from zassenhaus.lieform import dsw_project
from zassenhaus.oracle import (
    MAX_DIM,
    VerificationReport,
    exact_identity_check,
    numeric_order_check,
    oracle_equivalence_check,
    peel_oracle,
    random_matrices,
    splitting_residual,
    substitute,
)


def log_peel(n, K):
    """The peel as first written: a logarithm and a division at every degree."""
    ctx = AlgebraCtx(n, K)
    residue = exp_trunc(poly_sum(ctx, generators(ctx)))
    for g in generators(ctx):
        residue = exp_trunc(-g) * residue
    out = []
    for m in range(2, K + 1):
        out.append(log_trunc(residue).degree_component(m))
        residue = exp_trunc(-out[-1]) * residue
    return out


def substitute_by_prefix_walk(poly, mats):
    """`substitute` as first written: one word at a time, reusing the prefix
    products that neighbouring words share in canonical order."""
    dim = mats[0].shape[0]
    out = np.zeros((dim, dim))
    words, nums, den = poly.numerators()
    prefix = [np.eye(dim)]
    prev = ()
    for word, num in zip(words, nums):
        k = 0
        for x, y in zip(prev, word):
            if x != y:
                break
            k += 1
        del prefix[k + 1 :]
        for letter in word[k:]:
            prefix.append(prefix[-1] @ mats[letter - 1])
        out += (num / den) * prefix[len(word)]
        prev = word
    return out


def full_product_defect(n, K, ws):
    """e^(sum X) - e^(X1)...e^(Xn) e^(W2)...e^(WK), one exponential per factor."""
    ctx = AlgebraCtx(n, K)
    gens = generators(ctx)
    rhs = AssocPoly.one(ctx)
    for factor in (*gens, *ws):
        rhs = rhs * exp_trunc(factor)
    return exp_trunc(poly_sum(ctx, gens)) - rhs


def count_exp_trunc(monkeypatch):
    """Route the oracle's exp_trunc through a counter and return the counter."""
    calls = Counter()

    def counted(a):
        calls["exp_trunc"] += 1
        return exp_trunc(a)

    monkeypatch.setattr(oracle, "exp_trunc", counted)
    return calls


CALL_COUNT_CASES = [(1, 1), (2, 1), (3, 2), (2, 3), (3, 4), (2, 7), (3, 8), (2, 10)]


def expected_exp_calls(n, K):
    """sum X and each X_i, then W_2..W_(K//2): divided out by the peel,
    exponentiated by the exact check; the later W_m are read off or summed."""
    return 1 + n + max(0, K // 2 - 1)


class TestVerificationReport:
    def test_is_a_value(self):
        r = VerificationReport(mode="exact", passed=True)
        assert (r.residuals, r.observed_order, r.inconclusive, r.detail) == ((), None, False, "")
        same = VerificationReport("exact", True, (), None, False, "")
        assert r == same and hash(r) == hash(same)
        assert r != VerificationReport("exact", False) and r != VerificationReport("oracle", True)
        for name in ("mode", "passed", "residuals", "observed_order", "inconclusive", "detail"):
            with pytest.raises(AttributeError):
                setattr(r, name, None)

    def test_json_form(self):
        r = VerificationReport("numeric", False, ((0.2, 1.5e-3), (None, Fraction(-1, 3))), 4.75, True, "why")
        assert r.to_json_dict() == {
            "mode": "numeric",
            "pass": False,
            "residuals": [{"t": 0.2, "norm": 1.5e-3}, {"t": None, "norm": "-1/3"}],
            "observedOrder": 4.75,
            "inconclusive": True,
            "detail": "why",
        }


class TestPeelOracle:
    def test_matches_log_peel(self):
        for n in (1, 2, 3):
            for K in range(1, 9):
                assert peel_oracle(n, K) == log_peel(n, K), (n, K)

    @pytest.mark.parametrize("n, K", CALL_COUNT_CASES)
    def test_exp_trunc_calls(self, monkeypatch, n, K):
        calls = count_exp_trunc(monkeypatch)
        peel_oracle(n, K)
        assert calls["exp_trunc"] == expected_exp_calls(n, K)

    def test_matches_engine(self, engine):
        for n, K in ((2, 6), (3, 5)):
            ws = peel_oracle(n, K)
            e = engine(n, K)
            assert ws == [e.w_term(m) for m in range(2, K + 1)]

    def test_terms_are_lie_elements(self):
        # The oracle certifies Lie-ness on its own, without the engine.
        for m, w in enumerate(peel_oracle(3, 5), start=2):
            assert w.homogeneous_degree() == m
            assert dsw_project(w) == w

    def test_single_generator_gives_zeros(self):
        assert all(w.is_zero for w in peel_oracle(1, 6))

    def test_empty_below_degree_two(self):
        assert peel_oracle(2, 1) == []


class TestExactIdentityCheck:
    def test_passes_on_engine_output(self, engine):
        e = engine(2, 6)
        ws = [e.w_term(m) for m in range(2, 7)]
        report = exact_identity_check(2, 6, ws)
        assert report.passed and report.mode == "exact"
        assert report.residuals == ((None, Fraction(0)),)

    def test_detects_wrong_term(self, engine):
        e = engine(2, 4)
        ws = [e.w_term(m) for m in range(2, 5)]
        ws[0] = ws[0].scaled(Fraction(2))  # corrupt W_2
        report = exact_identity_check(2, 4, ws)
        assert not report.passed
        assert report.residuals[0][1] > 0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_corrupted_term_gives_the_full_product_defect(self, data):
        # Any W_m, tail terms with 2m > K and W_K included, scaled by c != 1:
        # the shortcut must report exactly the defect of the full product.
        n = data.draw(st.integers(1, 3), label="n")
        K = data.draw(st.integers(2, 7), label="K")
        m = data.draw(st.integers(2, K), label="m")
        c = data.draw(st.fractions(-3, 3, max_denominator=7).filter(lambda c: c not in (0, 1)), label="c")
        e = shared_engine(n, K)
        ws = [e.w_term(j) for j in range(2, K + 1)]
        ws[m - 2] = ws[m - 2].scaled(c)
        defects = []
        original = AssocPoly.max_abs_coeff

        def spy(poly):  # the check calls it once, on its defect polynomial
            defects.append(poly)
            return original(poly)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(AssocPoly, "max_abs_coeff", spy)
            report = exact_identity_check(n, K, ws)
        expected = full_product_defect(n, K, ws)
        assert defects == [expected]
        assert report.residuals == ((None, expected.max_abs_coeff()),)
        # W_m is nonzero for n >= 2, so scaling it breaks the identity.
        assert report.passed is expected.is_zero is (n == 1)

    @pytest.mark.parametrize("n, K", CALL_COUNT_CASES)
    def test_exp_trunc_calls(self, monkeypatch, n, K):
        ws = peel_oracle(n, K)
        calls = count_exp_trunc(monkeypatch)
        assert exact_identity_check(n, K, ws).passed
        assert calls["exp_trunc"] == expected_exp_calls(n, K)

    def test_trivial_degree_one(self):
        assert exact_identity_check(3, 1, []).passed

    @pytest.mark.parametrize("check", [exact_identity_check, oracle_equivalence_check])
    def test_validates_input(self, engine, monkeypatch, check):
        # A refused input raises before the peel or any exponential is formed.
        def no_work(*args):
            pytest.fail("work started before the input was checked")

        monkeypatch.setattr(oracle, "peel_oracle", no_work)
        monkeypatch.setattr(oracle, "exp_trunc", no_work)
        e = engine(2, 4)
        ws = [e.w_term(m) for m in range(2, 5)]
        refused = [
            ws[:1],  # wrong length
            [ws[1], ws[0], ws[2]],  # wrong degrees
            [ws[0] + ws[1], ws[1], ws[2]],  # not homogeneous
            [restricted(w, 5) for w in ws],  # wrong context
        ]
        for bad in refused:
            with pytest.raises(ValueError):
                check(2, 4, bad)

    def test_json_schema(self):
        report = exact_identity_check(2, 3, peel_oracle(2, 3))
        d = report.to_json_dict()
        assert set(d) == {"mode", "pass", "residuals", "observedOrder", "inconclusive", "detail"}
        assert d["pass"] is True
        assert d["residuals"] == [{"t": None, "norm": "0/1"}]
        assert d["observedOrder"] is None


class TestOracleEquivalenceCheck:
    def test_passes_on_engine_output(self, engine):
        e = engine(3, 5)
        ws = [e.w_term(m) for m in range(2, 6)]
        assert oracle_equivalence_check(3, 5, ws).passed

    def test_detects_mismatch(self, engine):
        e = engine(2, 4)
        ws = [e.w_term(m) for m in range(2, 5)]
        ws[2] = ws[2].scaled(Fraction(1, 2))
        report = oracle_equivalence_check(2, 4, ws)
        assert not report.passed
        assert "m=[4]" in report.detail


@st.composite
def substitution_cases(draw):
    """(poly, dim, seed, width): a mixed-degree polynomial, with its words of
    one degree all present or not, and the words per run of `substitute`
    (None for the default budget, which at these dims holds every degree whole)."""
    n = draw(st.integers(1, 4), label="n")
    K = draw(st.integers(1, 7), label="K")
    ctx = AlgebraCtx(n, K)
    words = st.lists(st.integers(1, n), max_size=K).map(tuple)
    coeffs = st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**20))
    terms = draw(st.dictionaries(words, coeffs, max_size=30), label="terms")
    dense = [d for d in range(K + 1) if n**d <= 256]
    if draw(st.booleans(), label="fill a degree"):
        d = draw(st.sampled_from(dense), label="filled degree")
        for i, w in enumerate(itertools.product(range(1, n + 1), repeat=d)):
            terms[w] = Fraction(i * 7919 % 1001 - 500, 1 + i % 12)  # as in FILLED_DEGREE_6
    dim = draw(st.integers(1, 5), label="dim")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    width = draw(st.one_of(st.none(), st.integers(1, 9)), label="width")
    return AssocPoly(ctx, terms), dim, seed, width


#: Traced peak allowed to `substitute(W_12)` at n = 2, dim 64: a few stacks
#: of SUBSTITUTE_CHUNK_BYTES and the root's prefix products (measured 0.8 MiB;
#: 1.1 MiB for the walk word by word), against 128 MB for one stack of the
#: whole degree.
SUBSTITUTE_MEMORY_BUDGET = 4 << 20


FILLED_DEGREE_6 = AssocPoly(
    AlgebraCtx(2, 6),
    {w: Fraction(i * 7919 % 1001 - 500, 1 + i % 12) for i, w in enumerate(itertools.product((1, 2), repeat=6))},
)


def substitute_with_width(poly, mats, width):
    """`substitute` with runs of `width` words, or of its default budget for None."""
    if width is None:
        return substitute(poly, mats)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "SUBSTITUTE_CHUNK_BYTES", width * mats[0].nbytes)
        return substitute(poly, mats)


class TestSubstitute:
    def test_agrees_with_manual_evaluation(self):
        ctx = AlgebraCtx(2, 3)
        x, y = generators(ctx)
        p = x * y - y * x + x.scaled(Fraction(1, 2)) + AssocPoly.one(ctx)
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 3, 3))
        expected = a @ b - b @ a + 0.5 * a + np.eye(3)
        assert np.allclose(substitute(p, [a, b]), expected)

    def test_checks_arity(self):
        ctx = AlgebraCtx(2, 2)
        with pytest.raises(ValueError):
            substitute(AssocPoly.one(ctx), [np.eye(2)])

    @settings(max_examples=150, deadline=None)
    @given(case=substitution_cases())
    @example(case=(AssocPoly.zero(AlgebraCtx(2, 3)), 3, 0, None))
    @example(case=(AssocPoly.one(AlgebraCtx(3, 2)).scaled(Fraction(-7, 3)), 2, 1, None))
    @example(case=(AssocPoly(AlgebraCtx(1, 6), {(1,) * d: Fraction(d - 3, d + 1) for d in range(7)}), 4, 2, 2))
    @example(
        case=(
            AssocPoly.from_numerators(AlgebraCtx(2, 3), [(1,), (1, 2), (2, 1, 1)], [2**53 + 1, -(2**60) - 3, 3**40], 7),
            4,
            3,
            None,
        )
    )
    @example(case=(AssocPoly.from_numerators(AlgebraCtx(2, 2), [(), (1, 2)], [10**400 + 1, -1], 10**400), 3, 4, 1))
    @example(case=(FILLED_DEGREE_6, 1, 0, None))  # 1 x 1 matrices: a pairwise sum would move the result
    def test_bitwise_equal_to_prefix_walk(self, case):
        # Same products by the same kernel, same quotients, same sequential sum:
        # not one float may move, whatever the runs are.
        poly, dim, seed, width = case
        mats = list(np.random.default_rng(seed).uniform(-0.5, 0.5, size=(poly.ctx.n, dim, dim)))
        got = substitute_with_width(poly, mats, width)
        assert np.array_equal(got, substitute_by_prefix_walk(poly, mats))

    def test_huge_quotient_is_finite(self):
        # Both parts beyond float range, the quotient 1: no overflow, no 0/0.
        p = AssocPoly.from_numerators(AlgebraCtx(1, 1), [()], [10**400 + 1], 10**400)
        assert np.array_equal(substitute(p, [np.ones((2, 2))]), np.eye(2))

    @pytest.mark.parametrize("n, degree, count", [(2, 70, 1), (3, 30, 5)])
    def test_sparse_long_words(self, n, degree, count):
        # Codes past int64 (2^70 at n = 2); the work must follow the words
        # present, not the n^degree words of their degree.
        rng = np.random.default_rng(degree)
        ctx = AlgebraCtx(n, degree)
        words = [tuple(int(x) for x in rng.integers(1, n + 1, size=degree)) for _ in range(count)]
        poly = AssocPoly(ctx, {w: Fraction(i + 1, 3) for i, w in enumerate(words)})
        mats = random_matrices(n, 4, 7)
        start = time.perf_counter()
        got = substitute(poly, mats)
        assert time.perf_counter() - start < 1.0
        assert np.array_equal(got, substitute_by_prefix_walk(poly, mats))

    def test_memory_stays_within_the_run_budget(self):
        # W_12 at n = 2 has 4096 words of 64 x 64 matrices (32 kB each): one
        # stack of the whole degree would take 128 MB per copy.
        w12 = shared_engine(2, 12).w_term(12)
        mats = random_matrices(2, 64, 3)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = substitute(w12, mats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < SUBSTITUTE_MEMORY_BUDGET
        assert np.array_equal(got, substitute_by_prefix_walk(w12, mats))


class TestNumericOrderCheck:
    def test_basic_order_without_ws(self):
        # No W factors at all: the defect starts at t^2.
        report = numeric_order_check(2, 1, 4, 7, [0.2, 0.1])
        assert report.passed
        assert abs(report.observed_order - 2) <= 0.5

    def test_order_tracks_max_degree(self):
        report = numeric_order_check(3, 4, 4, 42, [0.2, 0.1])
        assert report.passed and abs(report.observed_order - 5) <= 0.5
        report = numeric_order_check(2, 6, 4, 11, [0.2, 0.1])
        assert report.passed and abs(report.observed_order - 7) <= 0.5

    def test_residuals_decrease_monotonically(self):
        for seed in (1, 2, 3):
            report = numeric_order_check(3, 3, 4, seed, [0.4, 0.2, 0.1, 0.05])
            norms = [norm for _, norm in sorted(report.residuals)]
            assert norms == sorted(norms)

    def test_commuting_matrices_are_inconclusive(self):
        diag = [np.diag([0.1, 0.2, 0.3, 0.4]), np.diag([0.3, -0.1, 0.2, 0.5])]
        report = numeric_order_check(2, 4, 4, 0, [0.2, 0.1], mats=diag)
        assert report.passed and report.inconclusive
        assert report.observed_order is None

    def test_engine_ws_accepted(self, engine):
        e = engine(2, 4)
        ws = [e.w_term(m) for m in range(2, 5)]
        report = numeric_order_check(2, 4, 4, 3, [0.2, 0.1], ws=ws)
        assert report.passed and abs(report.observed_order - 5) <= 0.5

    def test_uses_finest_pair(self):
        report = numeric_order_check(2, 2, 4, 9, [0.1, 0.4, 0.2])
        fine = sorted(t for t, _ in report.residuals)[:2]
        norms = dict(report.residuals)
        expected = math.log(norms[fine[1]] / norms[fine[0]]) / math.log(fine[1] / fine[0])
        assert report.observed_order == pytest.approx(expected)

    def test_validates_t_values(self):
        with pytest.raises(ValueError):
            numeric_order_check(2, 3, 4, 0, [0.1])
        with pytest.raises(ValueError):
            numeric_order_check(2, 3, 4, 0, [0.1, -0.2])
        with pytest.raises(ValueError):
            numeric_order_check(2, 3, 4, 0, [0.1, 0.1])
        for bad in (float("nan"), float("inf"), 1e300):
            with pytest.raises(ValueError):
                numeric_order_check(2, 3, 4, 0, [bad, 0.1])

    def test_rejects_negative_seed(self, monkeypatch):
        def no_matrices(*args):
            raise AssertionError("random matrices were drawn")

        monkeypatch.setattr(oracle, "random_matrices", no_matrices)
        with pytest.raises(ValueError, match="--seed must be a non-negative integer, got -1"):
            numeric_order_check(2, 3, 4, -1, [0.2, 0.1])

    def test_rejects_empty_matrices(self, monkeypatch):
        # dim 0 would measure nothing and report a pass; a huge dim would
        # exhaust memory.  Both are refused before any matrix is allocated.
        def no_matrices(*args):
            raise AssertionError("a matrix was allocated")

        monkeypatch.setattr(oracle, "random_matrices", no_matrices)
        monkeypatch.setattr(oracle, "splitting_residual", no_matrices)
        for dim in (0, -1, MAX_DIM + 1, 100000):
            with pytest.raises(ValueError, match="matrix dimension"):
                numeric_order_check(2, 3, dim, 0, [0.2, 0.1])

    @pytest.mark.parametrize("n, max_degree, dim", [(2, 4, 256), (3, 3, 128), (3, 5, 64), (2, 6, 128)])
    def test_order_holds_at_large_dim(self, n, max_degree, dim):
        # Unscaled entries in [-1/2, 1/2] give matrices of norm ~ sqrt(dim), and
        # these correct W_m then read orders off K + 1 by more than 0.5.
        report = numeric_order_check(n, max_degree, dim, 42, [0.2, 0.1])
        assert report.passed and not report.inconclusive, report.detail

    @pytest.mark.parametrize("n, max_degree, dim", [(2, 6, 4), (3, 4, 1), (2, 5, 64)])
    def test_residuals_equal_those_of_plain_substitution(self, monkeypatch, n, max_degree, dim):
        # The check prepares each W_m once and substitutes it at every t: one
        # call per (W_m, t) as before, and not one float may move.
        ws = peel_oracle(n, max_degree)
        mats = random_matrices(n, dim, 5)
        t_values = [0.4, 0.2, 0.1]
        expected = [(t, splitting_residual(mats, t, ws)) for t in t_values]
        calls, prepared = [], []
        runs = oracle._runs

        def counted(poly, mats):
            calls.append(poly)
            return substitute(poly, mats)

        def counted_runs(poly, width):
            prepared.append(poly)
            return runs(poly, width)

        monkeypatch.setattr(oracle, "substitute", counted)
        monkeypatch.setattr(oracle, "_runs", counted_runs)
        report = numeric_order_check(n, max_degree, dim, 5, t_values, ws=ws, mats=mats)
        assert list(report.residuals) == expected
        assert calls == ws * len(t_values)
        assert prepared == ws

    def test_json_schema(self):
        d = numeric_order_check(2, 2, 4, 1, [0.2, 0.1]).to_json_dict()
        assert d["mode"] == "numeric"
        assert [r["t"] for r in d["residuals"]] == [0.2, 0.1]
        assert all(isinstance(r["norm"], float) for r in d["residuals"])
        assert isinstance(d["observedOrder"], float)


class TestDeterminism:
    def test_random_matrices_reproducible(self):
        a = random_matrices(3, 4, 42)
        b = random_matrices(3, 4, 42)
        assert all((x == y).all() for x, y in zip(a, b))
        assert all(abs(x).max() <= 0.5 for x in a)

    def test_residual_reproducible(self):
        mats = random_matrices(2, 4, 8)
        ws = peel_oracle(2, 3)
        assert splitting_residual(mats, 0.1, ws) == splitting_residual(mats, 0.1, ws)


def test_cli_import_does_not_load_numpy_or_scipy():
    # Only the numeric check needs them; they would be most of the start-up time.
    code = "import sys, zassenhaus.cli; print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert r.stdout == "[]\n"
