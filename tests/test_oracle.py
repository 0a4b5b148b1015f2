import itertools
import math
import random
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

from conftest import degree_component, generators, shared_engine
from zassenhaus import oracle
from zassenhaus.freealg import (
    AlgebraCtx,
    AssocPoly,
    exp_trunc,
    from_block,
    log_trunc,
    poly_sum,
    reduce_block,
    to_block,
)
from zassenhaus.lieform import dsw_project
from zassenhaus.oracle import (
    MAX_DIM,
    VerificationReport,
    exact_identity_check,
    numeric_order_check,
    oracle_equivalence_check,
    peel_oracle,
    peel_residue,
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
        out.append(degree_component(log_trunc(residue), m))
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


def residual_by_prefix_walk(mats, t, polys):
    """`splitting_residual` at one t as first written: one exponential per factor, each W_m by `substitute_by_prefix_walk`."""
    from scipy.linalg import expm

    scaled = [t * m for m in mats]
    lhs = expm(sum(scaled, np.zeros_like(mats[0])))
    rhs = np.eye(len(mats[0]))
    for m in scaled:
        rhs = rhs @ expm(m)
    for w in polys:
        rhs = rhs @ expm(substitute_by_prefix_walk(w, scaled))
    return float(np.linalg.norm(lhs - rhs, 2))


def full_product_defect(n, K, ws):
    """e^(sum X) - e^(X1)...e^(Xn) e^(W2)...e^(WK), one exponential per factor."""
    ctx = AlgebraCtx(n, K)
    gens = generators(ctx)
    rhs = AssocPoly.one(ctx)
    for factor in (*gens, *ws):
        rhs = rhs * exp_trunc(factor)
    return exp_trunc(poly_sum(ctx, gens)) - rhs


def blocks_of(ws):
    """The reduced blocks of polynomials W_2, W_3, ..., as the checks take them."""
    return [to_block(w, m) for m, w in enumerate(ws, start=2)]


def polys_of(ctx, blocks):
    """The polynomials of blocks W_2, W_3, ... in `ctx`: `blocks_of` undone."""
    return [from_block(ctx, m, *b) for m, b in enumerate(blocks, start=2)]


def graded_poly(ctx, graded):
    """The polynomial of a graded element (den, blocks), one block per degree, None where it is zero."""
    den, blocks = graded
    return poly_sum(ctx, [from_block(ctx, d, den, b) for d, b in enumerate(blocks) if b is not None])


def unscaled(K, den, scaled):
    """The graded element (den K!, blocks) whose degree d is that of `scaled` over d!: `_letters_times`'s scaling undone."""
    f = math.factorial
    return den * f(K), [[c * (f(K) // f(d)) for c in b] for d, b in enumerate(scaled)]


def count_exp_trunc(monkeypatch):
    """Route the oracle's one exponential product, `_exp_times`, through a counter and return the counter."""
    calls = Counter()
    exp_times = oracle._exp_times

    def counted(*args):
        calls["exp_trunc"] += 1
        return exp_times(*args)

    monkeypatch.setattr(oracle, "_exp_times", counted)
    return calls


CALL_COUNT_CASES = [(1, 1), (2, 1), (3, 2), (2, 3), (3, 4), (2, 7), (3, 8), (2, 10)]


def expected_exp_calls(n, K):
    """W_2..W_(K//2): divided out by the peel, exponentiated by the exact
    check; the later W_m are read off or summed, and the fixed factors are
    written down (`peel_residue`) or compared and multiplied by slice adds."""
    return max(0, K // 2 - 1)


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


@pytest.mark.parametrize("K", range(1, 9))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exp_of_sum_is_the_exponential_of_the_sum(n, K):
    # X1 + ... + Xn is homogeneous of degree 1 with every numerator 1, so the
    # graded product gives e^(X1+...+Xn): 1/d! on each word of degree d (fact 4).
    ctx = AlgebraCtx(n, K)
    one = (1, [[1], *[None] * K])
    den, blocks = oracle._exp_times((1, [1] * n), 1, one, 1)
    assert graded_poly(ctx, (den, blocks)) == exp_trunc(poly_sum(ctx, generators(ctx)))
    for d, b in enumerate(blocks):
        assert [Fraction(c, den) for c in b] == [Fraction(1, math.factorial(d))] * n**d


@pytest.mark.parametrize("K", range(1, 9))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exp_of_letters_is_the_product_of_the_letters_exponentials(n, K):
    # `_letters_times` scales degree d by d!; at Z = 1 it gives d! e^(X1)...e^(Xn).
    ctx = AlgebraCtx(n, K)
    scaled = oracle._letters_times(ctx, (1, [[1], *[None] * K]))
    written = graded_poly(ctx, unscaled(K, 1, scaled))
    product = AssocPoly.one(ctx)
    for g in generators(ctx):
        product = product * exp_trunc(g)
    assert written == product
    assert len(written) == math.comb(K + n, n)  # the words X1^a1...Xn^an of degree <= K


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_graded_products_match_the_dict_kernel(data):
    # e^(+-W) Z and e^(X1)...e^(Xn) Z on random graded Z and homogeneous W, against mul and exp_trunc.
    n = data.draw(st.integers(1, 3), label="n")
    K = data.draw(st.integers(1, 6), label="K")
    m = data.draw(st.integers(1, K), label="m")
    ctx = AlgebraCtx(n, K)
    ints = st.integers(-5, 5)
    den = data.draw(st.integers(1, 12), label="den")
    blocks = [data.draw(st.none() | st.lists(ints, min_size=n**d, max_size=n**d), label=f"Z_{d}") for d in range(K + 1)]
    blocks[0] = [data.draw(ints.filter(bool), label="Z_0")]
    w = (data.draw(st.integers(1, 12), label="w den"), data.draw(st.lists(ints, min_size=n**m, max_size=n**m)))
    sign = data.draw(st.sampled_from([1, -1]), label="sign")
    z, w_poly = graded_poly(ctx, (den, blocks)), from_block(ctx, m, *w)
    assert graded_poly(ctx, oracle._exp_times(w, m, (den, blocks), sign)) == exp_trunc(w_poly.scaled(sign)) * z
    letters = AssocPoly.one(ctx)
    for g in generators(ctx):
        letters = letters * exp_trunc(g)
    scaled = oracle._letters_times(ctx, (den, blocks))
    assert graded_poly(ctx, unscaled(K, den, scaled)) == letters * z


@pytest.mark.parametrize("K", range(1, 9))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_peel_residue_is_the_peeled_exponential_of_the_sum(n, K):
    ctx = AlgebraCtx(n, K)
    den, blocks = peel_residue(ctx)
    assert den == math.factorial(K)
    assert [b is None for b in blocks] == [d == 1 or (n == 1 and d > 0) for d in range(K + 1)]  # None where zero
    product = AssocPoly.one(ctx)
    for g in generators(ctx):
        product = exp_trunc(-g) * product
    assert graded_poly(ctx, (den, blocks)) == product * exp_trunc(poly_sum(ctx, generators(ctx)))


def test_peel_residue_reads_each_word_off_its_non_increasing_prefix():
    # R(w) = sum over j <= L of c(w[:j]) / (d - j)!, L the length of w's longest
    # non-increasing prefix and c(u) = prod_i (-1)^(a_i) / a_i!, a_i the count of letter i in u.
    def c(u):
        return math.prod(Fraction((-1) ** u.count(i), math.factorial(u.count(i))) for i in set(u))

    n, K = 3, 6
    ctx = AlgebraCtx(n, K)
    written = graded_poly(ctx, peel_residue(ctx))
    for d in range(K + 1):
        for w in itertools.product(range(1, n + 1), repeat=d):
            L = next((j for j in range(1, d) if w[j] > w[j - 1]), d)
            assert written.coeff(w) == sum(c(w[:j]) * Fraction(1, math.factorial(d - j)) for j in range(L + 1)), w


def test_peel_residue_of_one_generator_at_degree_1000():
    # R = e^(-X) e^(X) = 1.  The walk over the prefixes goes as deep as the degree, on its own
    # stack, and each step multiplies and divides small ints, never the 8530-bit 1000!.
    start = time.perf_counter()
    residue = peel_residue(AlgebraCtx(1, 1000))
    assert time.perf_counter() - start < 2.0
    f = math.factorial(1000)
    assert residue == (f, [[f], *[None] * 1000])


class TestPeelOracle:
    def test_matches_log_peel(self):
        for n in (1, 2, 3):
            for K in range(1, 9):
                assert peel_oracle(n, K) == blocks_of(log_peel(n, K)), (n, K)

    @pytest.mark.parametrize("n, K", CALL_COUNT_CASES)
    def test_exp_trunc_calls(self, monkeypatch, n, K):
        calls = count_exp_trunc(monkeypatch)
        peel_oracle(n, K)
        assert calls["exp_trunc"] == expected_exp_calls(n, K)

    def test_matches_engine(self, engine):
        # At (2,12), (3,8) and (4,6) the unreduced residue passes through 5, 3 and 2 exponentials.
        for n, K in ((2, 6), (3, 5), (2, 12), (3, 8), (4, 6)):
            e = engine(n, K)
            assert peel_oracle(n, K) == [e.w_block(m) for m in range(2, K + 1)]

    def test_terms_are_lie_elements(self):
        # The oracle certifies Lie-ness on its own, without the engine.
        for m, w in enumerate(polys_of(AlgebraCtx(3, 5), peel_oracle(3, 5)), start=2):
            assert w.homogeneous_degree() == m
            assert dsw_project(w) == w

    def test_single_generator_gives_zeros(self):
        assert peel_oracle(1, 6) == [(1, [0])] * 5  # the zero block: all zeros over 1

    def test_empty_below_degree_two(self):
        assert peel_oracle(2, 1) == []


class TestExactIdentityCheck:
    def test_passes_on_engine_output(self, engine):
        e = engine(2, 6)
        ws = [e.w_block(m) for m in range(2, 7)]
        report = exact_identity_check(2, 6, ws)
        assert report.passed and report.mode == "exact"
        assert report.residuals == ((None, Fraction(0)),)

    def test_detects_wrong_term(self, engine):
        e = engine(2, 4)
        ws = [e.w_block(m) for m in range(2, 5)]
        ws[0] = to_block(e.w_term(2).scaled(Fraction(2)), 2)  # corrupt W_2
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
        report = exact_identity_check(n, K, blocks_of(ws))
        expected = full_product_defect(n, K, ws)
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
        # Each W_m must be the reduced block of its degree (`check_block`); a refused input
        # raises before the peel or any exponential is formed.
        def no_work(*args):
            pytest.fail("work started before the input was checked")

        for kernel in ("peel_oracle", "peel_residue", "_exp_times", "_letters_times"):
            monkeypatch.setattr(oracle, kernel, no_work)
        e = engine(2, 4)
        ws = [e.w_block(m) for m in range(2, 5)]
        d3, w3 = ws[1]

        def with_w3(block):
            return [ws[0], block, ws[2]]

        refused = [
            ws[:1],  # too few W_m
            [*ws, (1, [0] * 32)],  # too many
            [ws[1], ws[0], ws[2]],  # wrong degrees: blocks of the wrong length
            with_w3((d3, w3[:-1])),  # a block one numerator short
            with_w3((d3, [*w3, 0])),  # and one too long
            with_w3((d3, [True, *w3[1:]])),  # a bool numerator
            with_w3((d3, [float(w3[0]), *w3[1:]])),  # a float numerator
            with_w3((d3, tuple(w3))),  # numerators not in a list
            with_w3((0, w3)),  # den <= 0
            with_w3((-d3, w3)),
            with_w3((float(d3), w3)),  # a float den
            with_w3((2 * d3, [2 * c for c in w3])),  # a common factor
            with_w3((2, [0] * 8)),  # the zero block is all zeros over 1
            with_w3((d3, w3, 0)),  # not a pair
            with_w3(e.w_term(3)),  # a polynomial, not its block
            [engine(3, 4).w_block(m) for m in range(2, 5)],  # blocks of another n
        ]
        for bad in refused:
            with pytest.raises(ValueError, match=r"W_\d"):
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
        ws = [e.w_block(m) for m in range(2, 6)]
        assert oracle_equivalence_check(3, 5, ws).passed

    def test_detects_mismatch(self, engine):
        e = engine(2, 4)
        ws = [e.w_block(m) for m in range(2, 5)]
        ws[2] = to_block(e.w_term(4).scaled(Fraction(1, 2)), 4)
        report = oracle_equivalence_check(2, 4, ws)
        assert not report.passed
        assert "m=[4]" in report.detail


def test_check_ws_scans_each_value_once(engine, monkeypatch):
    # A value check_ws returned passes it again at the same (n, K) unscanned, so
    # verify validates once for its three checks; a plain list is scanned.
    ws = [engine(2, 4).w_block(m) for m in range(2, 5)]
    checked = oracle.check_ws(2, 4, ws)
    assert list(checked) == ws

    def no_scan(*args):
        raise AssertionError("scanned again")

    monkeypatch.setattr(oracle, "check_block", no_scan)
    assert oracle.check_ws(2, 4, checked) is checked
    assert exact_identity_check(2, 4, checked).passed
    with pytest.raises(AssertionError, match="scanned again"):
        oracle.check_ws(2, 4, list(checked))
    with pytest.raises(ValueError, match="need W_2..W_5"):  # another K
        oracle.check_ws(2, 5, checked)


@pytest.mark.parametrize("n, K", [(2, 8), (3, 6), (4, 5)])
def test_one_corrupted_numerator_of_each_block_fails_both_checks(n, K):
    # The acceptance grid: each W_m in turn gets one numerator of its block changed.
    ctx = AlgebraCtx(n, K)
    rng = random.Random(n * 100 + K)
    blocks = [shared_engine(n, K).w_block(m) for m in range(2, K + 1)]
    for m in range(2, K + 1):
        den, nums = blocks[m - 2]
        nums = list(nums)
        nums[rng.randrange(len(nums))] += rng.choice([-2, -1, 1, 3])
        ws = list(blocks)
        ws[m - 2] = reduce_block(den, nums)  # still a canonical block
        exact = exact_identity_check(n, K, ws)
        assert not exact.passed, m
        assert exact.residuals == ((None, full_product_defect(n, K, polys_of(ctx, ws)).max_abs_coeff()),), m
        report = oracle_equivalence_check(n, K, ws)
        assert not report.passed and f"m=[{m}]" in report.detail, m
        diff = from_block(ctx, m, *ws[m - 2]) - from_block(ctx, m, *blocks[m - 2])
        assert report.residuals == ((None, diff.max_abs_coeff()),), m


def digit_reversal(n, d):
    """perm[i] = the index of the reverse of the i-th word of degree d: its d base-n digits read backwards."""
    perm = [0]
    for k in range(d):  # word i = a n + b, a its prefix and b its last letter: reversed, b n^k + perm_k[a]
        perm = [p + b * n**k for p in perm for b in range(n)]
    return perm


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_blocks_satisfy_the_antipode_law(data):
    # A Lie element P homogeneous of degree m has P(reverse w) = (-1)^(m+1) P(w) (Reutenauer,
    # Free Lie Algebras): the antipode maps a word w to (-1)^|w| reverse(w) and a Lie element to -P.
    n = data.draw(st.integers(1, 4), label="n")
    K = data.draw(st.integers(2, {1: 8, 2: 8, 3: 6, 4: 5}[n]), label="K")
    ctx = AlgebraCtx(n, K)
    engine = shared_engine(n, K)
    for m, w in enumerate(peel_oracle(n, K), start=2):
        perm = digit_reversal(n, m)
        for den, nums in (engine.w_block(m), w):
            sign = (-1) ** (m + 1)
            assert list(map(nums.__getitem__, perm)) == [sign * c for c in nums], (m, ctx)


@st.composite
def substitution_cases(draw):
    """(n, blocks, dim, sets, seed, chunk): blocks of several degrees, degree 0
    and all-zero blocks among them, zeros among their numerators, sets of
    matrices, and the matrices per chunk of `substitute` (None for the default
    budget, which at these dims holds a level whole; fewer than 2 * `sets`
    make a chunk of one word, which cuts every level at every node)."""
    n = draw(st.integers(1, 5), label="n")
    degrees = draw(st.sets(st.sampled_from([d for d in range(8) if n**d <= 256]), min_size=1, max_size=4), label="degrees")
    nums = st.one_of(st.just(0), st.integers(-(10**20), 10**20))
    blocks = {}
    for d in sorted(degrees):
        zero = draw(st.booleans(), label=f"zero block {d}")
        numerators = [0] * n**d if zero else draw(st.lists(nums, min_size=n**d, max_size=n**d), label=f"nums {d}")
        blocks[d] = (draw(st.integers(1, 10**20), label=f"den {d}"), numerators)
    dim = draw(st.integers(1, 5), label="dim")
    sets = draw(st.integers(1, 3), label="sets")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    chunk = draw(st.one_of(st.none(), st.integers(1, 9)), label="chunk")
    return n, blocks, dim, sets, seed, chunk


#: Traced peak allowed to `substitute` of W_2..W_12 at n = 2, dim 64: a chunk
#: per level of the complete prefix tree, the coefficients of every word and
#: one sum per W_m (measured 1.45 MiB; 1.1 MiB for a walk over W_12's words
#: one at a time), against 128 MB for one stack of the whole top degree.
SUBSTITUTE_MEMORY_BUDGET = 4 << 20


FILLED_DEGREE_6 = to_block(
    AssocPoly(
        AlgebraCtx(2, 6),
        {w: Fraction(i * 7919 % 1001 - 500, 1 + i % 12) for i, w in enumerate(itertools.product((1, 2), repeat=6))},
    ),
    6,
)


def substitute_with_chunk(n, blocks, sets, chunk):
    """`substitute` with chunks of `chunk` matrices, or of its default budget for None."""
    if chunk is None:
        return substitute(n, blocks, sets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "SUBSTITUTE_CHUNK_BYTES", chunk * sets[0][0].nbytes)
        return substitute(n, blocks, sets)


def walk(n, d, block, mats):
    """`substitute_by_prefix_walk` of the block's polynomial: the reference the batched evaluation must equal."""
    return substitute_by_prefix_walk(from_block(AlgebraCtx(n, max(d, 1)), d, *block), mats)


def bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSubstitute:
    def test_agrees_with_manual_evaluation(self):
        # X1 X1 / 2 + X1 X2 - X2 X1 and X2 - 3 X1, at two sets of matrices from one call.
        rng = np.random.default_rng(5)
        sets = [list(rng.normal(size=(2, 3, 3))) for _ in range(2)]
        got = substitute(2, {2: (2, [1, 2, -2, 0]), 1: (1, [-3, 1])}, sets)
        assert len(got) == 2
        for (a, b), value in zip(sets, got):
            assert list(value) == [2, 1]
            assert np.allclose(value[2], 0.5 * a @ a + a @ b - b @ a)
            assert np.allclose(value[1], b - 3 * a)

    def test_checks_arity(self):
        with pytest.raises(ValueError, match="need 2 matrices, got 1"):
            substitute(2, {2: (1, [0, 1, 0, 0])}, [[np.eye(2), np.eye(2)], [np.eye(2)]])
        with pytest.raises(ValueError, match="has 4 numerators, got 3"):
            substitute(2, {1: (1, [0, 1]), 2: (1, [0, 1, 0])}, [[np.eye(2), np.eye(2)]])

    @settings(max_examples=150, deadline=None)
    @given(case=substitution_cases())
    @example(case=(2, {3: (1, [0] * 8)}, 3, 1, 0, None))  # the zero block
    @example(case=(3, {0: (3, [-7])}, 2, 1, 1, None))
    @example(case=(1, {6: (7, [3])}, 4, 1, 2, 2))
    @example(case=(2, {3: (7, [0, 2**53 + 1, 0, 0, -(2**60) - 3, 0, 3**40, 0])}, 4, 1, 3, None))
    @example(case=(2, {2: (10**400, [10**400 + 1, 0, -1, 0])}, 3, 1, 4, 1))  # huge numerators, a quotient near 1
    @example(case=(2, {6: FILLED_DEGREE_6}, 1, 1, 0, None))  # 1 x 1 matrices: a pairwise sum would move the result
    @example(case=(2, {0: (1, [1]), 2: (1, [0] * 4), 5: (3, [1] * 32), 6: FILLED_DEGREE_6}, 2, 3, 5, 1))
    @example(case=(3, {1: (2, [1, 0, 1]), 3: (5, list(range(-13, 14)))}, 3, 2, 6, 3))
    def test_bitwise_equal_to_prefix_walk(self, case):
        # Same products by the same kernel, same quotients, same sequential sum:
        # not one float may move, however the prefix tree is cut into chunks.
        n, blocks, dim, sets, seed, chunk = case
        mats = [list(m) for m in np.random.default_rng(seed).uniform(-0.5, 0.5, size=(sets, n, dim, dim))]
        got = substitute_with_chunk(n, blocks, mats, chunk)
        assert len(got) == sets
        for values, m in zip(got, mats):
            assert list(values) == list(blocks)
            for d, block in blocks.items():
                assert bitwise_equal(values[d], walk(n, d, block, m)), (d, block)

    def test_huge_quotient_is_finite(self):
        # Both parts beyond float range, the quotient 1: no overflow, no 0/0.
        got = substitute(1, {0: (10**400, [10**400 + 1]), 1: (10**400, [-(10**400) - 1])}, [[np.ones((2, 2))]])[0]
        assert np.array_equal(got[0], np.eye(2))
        assert np.array_equal(got[1], -np.ones((2, 2)))

    @pytest.mark.parametrize("n, degree, count", [(2, 20, 3), (3, 12, 5)])
    def test_sparse_block(self, n, degree, count):
        # A block of 2^20 or 3^12 numerators with a few nonzero: the walk makes
        # every word's matrix, so the block's length, not its count of nonzero
        # numerators, sets the cost, which must stay within the bound.
        rng = np.random.default_rng(degree)
        nums = [0] * n**degree
        for i, k in enumerate(rng.choice(n**degree, size=count, replace=False)):
            nums[int(k)] = i + 1
        blocks = {degree: (3, nums), 2: (1, [1] + [0] * (n * n - 1))}
        mats = random_matrices(n, 4, 7)
        start = time.perf_counter()
        got = substitute(n, blocks, [mats])[0]
        assert time.perf_counter() - start < 1.0
        for d, block in blocks.items():
            assert bitwise_equal(got[d], walk(n, d, block, mats))

    def test_reads_each_block_once(self):
        # One pass over a block's numerators makes its coefficients, zeros included.
        class Counted(list):
            passes = 0

            def __iter__(self):
                self.passes += 1
                return super().__iter__()

        blocks = {0: (1, Counted([2])), 1: (2, Counted([1, 0])), 3: (3, Counted([0, 1, 2, 0, 0, 5, 0, 0]))}
        mats = random_matrices(2, 3, 1)
        got = substitute(2, blocks, [mats])[0]
        assert [nums.passes for _, nums in blocks.values()] == [1, 1, 1]
        for d, (den, nums) in blocks.items():
            assert bitwise_equal(got[d], walk(2, d, (den, list(nums)), mats))

    def test_memory_stays_within_the_run_budget(self):
        # W_12 at n = 2 has 4096 words of 64 x 64 matrices (32 kB each): one
        # stack of the whole degree would take 128 MB per copy.
        blocks = {m: shared_engine(2, 12).w_block(m) for m in range(2, 13)}
        mats = random_matrices(2, 64, 3)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = substitute(2, blocks, [mats])[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < SUBSTITUTE_MEMORY_BUDGET
        for d in (2, 7, 12):
            assert bitwise_equal(got[d], walk(2, d, blocks[d], mats))


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
        ws = [e.w_block(m) for m in range(2, 5)]
        report = numeric_order_check(2, 4, 4, 3, [0.2, 0.1], ws=ws)
        assert report.passed and abs(report.observed_order - 5) <= 0.5

    def test_validates_ws(self, engine, monkeypatch):
        # Given W_m are held to the blocks' one rule, as by the exact checks, before any matrix is made.
        def no_matrices(*args):
            raise AssertionError("a matrix was allocated")

        monkeypatch.setattr(oracle, "random_matrices", no_matrices)
        monkeypatch.setattr(oracle, "splitting_residual", no_matrices)
        ws = [engine(2, 4).w_block(m) for m in range(2, 5)]
        den, nums = ws[1]
        for bad in (ws[:2], [ws[0], (den, nums[1:]), ws[2]], [ws[0], (3 * den, [3 * c for c in nums]), ws[2]]):
            with pytest.raises(ValueError, match="W_"):
                numeric_order_check(2, 4, 4, 0, [0.2, 0.1], ws=bad)

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
        # The check substitutes W_2..W_K at every t in one call, and not one
        # float may move from a walk word by word.
        ws = peel_oracle(n, max_degree)
        mats = random_matrices(n, dim, 5)
        t_values = [0.4, 0.2, 0.1]
        polys = polys_of(AlgebraCtx(n, max_degree), ws)
        expected = [(t, residual_by_prefix_walk(mats, t, polys)) for t in t_values]
        made = []
        plain = oracle.substitute

        def counted(n, blocks, sets):
            made.append(blocks)
            return plain(n, blocks, sets)

        monkeypatch.setattr(oracle, "substitute", counted)
        report = numeric_order_check(n, max_degree, dim, 5, t_values, ws=ws, mats=mats)
        assert list(report.residuals) == expected
        assert made == [dict(enumerate(ws, start=2))]  # one call for every W_m and every t

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
        assert splitting_residual(mats, [0.1], ws) == splitting_residual(mats, [0.1], ws)


def test_cli_import_does_not_load_numpy_or_scipy():
    # Only the numeric check needs them; they would be most of the start-up time.
    code = "import sys, zassenhaus.cli; print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert r.stdout == "[]\n"
