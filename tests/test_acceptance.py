"""Acceptance gate: the ten end-to-end criteria, one printed line each.

Every symbolic criterion is exact (zero tolerance): polynomial equality
over the rationals.  The only approximate criterion is the numeric
convergence order, pinned to +-0.5 around K + 1.  Run with `pytest -rP`
(the repo default) to see the per-criterion lines for passing runs too.
"""

import json
from contextlib import contextmanager
from fractions import Fraction

from zassenhaus.engine import f1k_comm, f1k_direct
from zassenhaus.freealg import AlgebraCtx, poly_sum
from zassenhaus.lieform import dsw_project, expand
from zassenhaus.oracle import exact_identity_check, numeric_order_check, peel_oracle

import golden

GRID = ((2, 8), (3, 6), (4, 5))


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {desc}")
        raise
    print(f"[criterion {num:2d}] PASS  {desc}")


def test_01_two_variable_golden(engine):
    with criterion(1, "two-variable W2..W4 equal the classic displays (exact)"):
        e = engine(2, 4)
        w2, w3, w4 = golden.two_variable_ws(e.alg)
        assert e.w_term(2) == w2
        assert e.w_term(3) == w3
        assert e.w_term(4) == w4


def test_02_multivariable_golden(engine):
    with criterion(2, "multivariable f[1,1..5] and W2..W4 displays at n=3,4 (exact)"):
        for n in (3, 4):
            e = engine(n, 6)
            for k in range(1, 6):
                display = golden.F1K_DISPLAYS[k](n).expand(e.alg)
                assert display == f1k_direct(k, e.alg)
                assert display == expand(f1k_comm(k, n), e.alg)
            assert golden.w2_display(n).expand(e.alg) == e.w_term(2)
            assert golden.w3_display(n).expand(e.alg) == e.w_term(3)
            assert golden.w4_display(n).expand(e.alg) == e.w_term(4)


def test_03_f1k_paths_agree(engine):
    with criterion(3, "f[1,k] commutator form == nested-ad form, k<=6, n<=4 (exact)"):
        for n in range(1, 5):
            ctx = engine(n, 7).alg
            for k in range(1, 7):
                assert expand(f1k_comm(k, n), ctx) == f1k_direct(k, ctx)


def test_04_w_paths_agree(engine):
    with criterion(4, "expanded W_m formulas == generic recursion (m<=13 at n=2, m<=10 at n=3)"):
        e2 = engine(2, 13)
        for m in range(5, 14):
            assert e2.w_term_expanded(m) == e2.w_term(m)
        e3 = engine(3, 10)
        for m in range(5, 11):
            assert e3.w_term_expanded(m) == e3.w_term(m)


def test_05_product_identity(engine):
    with criterion(5, "exact splitting identity on (n,K) in {(2,8),(3,6),(4,5)}"):
        for n, K in GRID:
            e = engine(n, K)
            ws = [e.w_term(m) for m in range(2, K + 1)]
            report = exact_identity_check(n, K, ws)
            assert report.passed, report.detail


def test_06_peel_oracle_equivalence(engine):
    with criterion(6, "peel-off oracle reproduces the engine terms on the same grid"):
        for n, K in GRID:
            e = engine(n, K)
            assert peel_oracle(n, K) == [e.w_term(m) for m in range(2, K + 1)]


def test_07_lie_membership(engine):
    with criterion(7, "every W_m on the grid is fixed by the Dynkin projection"):
        for n, K in GRID:
            e = engine(n, K)
            for m in range(2, K + 1):
                w = e.w_term(m)
                assert w.homogeneous_degree() == m or w.is_zero
                assert dsw_project(w) == w


def _check_classes(classes, target, expect_unique):
    """The stated display coefficients must reconstruct the engine value
    exactly, and solving the word-level linear system must recover them
    on every class that is a nonzero polynomial at this n."""
    ctx = target.ctx
    recon = poly_sum(ctx, [p.scaled(c) for c, p in classes])
    assert recon == target
    solution, unique = golden.solve_class_coefficients(classes, target)
    assert solution is not None
    assert unique == expect_unique
    for (stated, poly), solved in zip(classes, solution):
        if poly.is_zero:
            assert solved is None  # vanishing class: nothing to read off
        else:
            assert solved == stated


def test_08_w5_w6_class_coefficients(engine):
    with criterion(8, "W5/W6 display coefficients recovered from commutator classes (exact)"):
        # n=3: every class that survives is read off exactly; the longest
        # classes vanish there (not enough ascending indices), so the
        # full coefficient lists are recovered at n=4 (W5) and n=5 (W6).
        w5_stated = [Fraction(1, x) for x in (120, 30, 20, 10, 5, 10, 20)]
        w6_stated = [Fraction(1, x) for x in (720, 144, 72, 36, 24, 12, 6, 72, 24, 12)]

        for n, expect_unique in ((3, False), (4, True)):
            e = engine(n, 5)
            classes = golden.w5_classes(e.alg)
            assert [c for c, _ in classes] == w5_stated
            _check_classes(classes, e.w_term(5), expect_unique)

        for n, expect_unique in ((3, False), (5, True)):
            e = engine(n, 6)
            classes = golden.w6_classes(e.alg)
            assert [c for c, _ in classes] == w6_stated
            _check_classes(classes, e.w_term(6), expect_unique)


def test_09_numeric_order():
    with criterion(9, "numeric convergence order: K=4 -> 5 +- 0.5, K=5 -> 6 +- 0.5"):
        for K, target in ((4, 5), (5, 6)):
            report = numeric_order_check(3, K, 4, 42, [0.2, 0.1])
            assert report.passed and not report.inconclusive
            assert abs(report.observed_order - target) <= 0.5


def test_10_deterministic_output(cli_process, tmp_path):
    with criterion(10, "byte-identical reruns and bit-exact cache round trip"):
        first = cli_process("terms", "--n", 3, "--max-degree", 6, "--format", "json")
        second = cli_process("terms", "--n", 3, "--max-degree", 6, "--format", "json")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        json.loads(first.stdout)  # stays well-formed

        cache = tmp_path / "cache"
        cold = cli_process("terms", "--n", 3, "--max-degree", 6, "--format", "json", "--cache", cache)
        snapshot = {p: p.read_bytes() for p in cache.rglob("*.json")}
        assert len(snapshot) == 5
        warm = cli_process("terms", "--n", 3, "--max-degree", 6, "--format", "json", "--cache", cache)
        assert warm.stdout == cold.stdout == first.stdout
        assert {p: p.read_bytes() for p in cache.rglob("*.json")} == snapshot
