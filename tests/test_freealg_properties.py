"""Property tests of the kernel against a word -> Fraction reference model.

The reference model below is the textbook definition of each operation on
a plain dict of Fraction coefficients, with no common denominator, no
degree grouping and no shared loop; the kernel must agree with it exactly.
"""

from collections import defaultdict
from fractions import Fraction
from math import factorial, gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from zassenhaus.freealg import (
    AlgebraCtx,
    AssocPoly,
    bracket,
    exp_trunc,
    log_trunc,
    mul,
    poly_sum,
)

kernel_settings = settings(max_examples=60, deadline=None)


# -- reference model ---------------------------------------------------------


def ref_clean(terms):
    return {w: c for w, c in terms.items() if c}


def ref_add(*models):
    out = defaultdict(Fraction)
    for m in models:
        for w, c in m.items():
            out[w] += c
    return ref_clean(out)


def ref_scaled(a, s):
    return ref_clean({w: c * s for w, c in a.items()})


def ref_mul(a, b, cap):
    out = defaultdict(Fraction)
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= cap:
                out[wa + wb] += ca * cb
    return ref_clean(out)


def ref_bracket(a, b, cap):
    return ref_add(ref_mul(a, b, cap), ref_scaled(ref_mul(b, a, cap), -1))


def ref_exp(a, cap):
    acc, power = {(): Fraction(1)}, {(): Fraction(1)}
    for p in range(1, cap + 1):
        power = ref_mul(power, a, cap)
        acc = ref_add(acc, ref_scaled(power, Fraction(1, factorial(p))))
    return acc


def ref_log(a, cap):
    u = ref_add(a, {(): Fraction(-1)})
    acc, power = {}, {(): Fraction(1)}
    for p in range(1, cap + 1):
        power = ref_mul(power, u, cap)
        acc = ref_add(acc, ref_scaled(power, Fraction((-1) ** (p + 1), p)))
    return acc


def model(p):
    return dict(p.terms())


def assert_canonical(p):
    nums = list(p._terms.values())
    assert p._den > 0
    assert 0 not in nums
    assert gcd(p._den, *nums) == 1
    assert p._den == 1 or nums


# -- strategies ---------------------------------------------------------------

contexts = st.builds(AlgebraCtx, n=st.integers(1, 3), max_degree=st.integers(1, 5))
coefficients = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
scalars = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30))


def polys(ctx, min_degree=0, max_size=6):
    words = st.lists(st.integers(1, ctx.n), min_size=min_degree, max_size=ctx.max_degree).map(tuple)
    return st.dictionaries(words, coefficients, max_size=max_size).map(lambda t: AssocPoly(ctx, t))


@st.composite
def poly_tuples(draw, count, min_degree=0):
    ctx = draw(contexts)
    return tuple(draw(polys(ctx, min_degree)) for _ in range(count))


# -- agreement with the model ---------------------------------------------------


@kernel_settings
@given(poly_tuples(2))
def test_mul_and_bracket_match_model(ab):
    a, b = ab
    cap = a.ctx.max_degree
    product, commutator = mul(a, b), bracket(a, b)
    assert model(product) == ref_mul(model(a), model(b), cap)
    assert model(commutator) == ref_bracket(model(a), model(b), cap)
    assert_canonical(product)
    assert_canonical(commutator)


@kernel_settings
@given(poly_tuples(3), scalars)
def test_sum_and_scaled_match_model(abc, s):
    a, b, c = abc
    total = poly_sum(a.ctx, abc)
    assert model(total) == ref_add(model(a), model(b), model(c))
    assert model(a + b) == ref_add(model(a), model(b))
    assert model(a - b) == ref_add(model(a), ref_scaled(model(b), -1))
    assert model(a.scaled(s)) == ref_scaled(model(a), s)
    for p in (total, a + b, a - b, a.scaled(s), -a):
        assert_canonical(p)


@kernel_settings
@given(poly_tuples(1, min_degree=1))
def test_exp_and_log_match_model(a):
    (a,) = a
    cap = a.ctx.max_degree
    e = exp_trunc(a)
    assert model(e) == ref_exp(model(a), cap)
    assert model(log_trunc(e)) == ref_log(model(e), cap)
    assert_canonical(e)


@kernel_settings
@given(poly_tuples(1))
def test_restrictions_stay_canonical(a):
    (a,) = a
    for d in range(a.ctx.max_degree + 1):
        part = a.degree_component(d)
        assert model(part) == {w: c for w, c in model(a).items() if len(w) == d}
        assert_canonical(part)
    for k in range(1, a.ctx.max_degree + 1):
        shallow = a.restricted(k)
        assert model(shallow) == {w: c for w, c in model(a).items() if len(w) <= k}
        assert_canonical(shallow)


# -- algebraic laws -------------------------------------------------------------


@kernel_settings
@given(poly_tuples(2))
def test_bracket_antisymmetry(ab):
    a, b = ab
    assert bracket(a, b) == -bracket(b, a)
    assert bracket(a, a).is_zero


@kernel_settings
@given(poly_tuples(3))
def test_jacobi_identity(abc):
    a, b, c = abc
    jacobi = poly_sum(a.ctx, [bracket(a, bracket(b, c)), bracket(b, bracket(c, a)), bracket(c, bracket(a, b))])
    assert jacobi.is_zero


@kernel_settings
@given(poly_tuples(1, min_degree=1))
def test_log_inverts_exp(a):
    (a,) = a
    assert log_trunc(exp_trunc(a)) == a


@kernel_settings
@given(poly_tuples(1))
def test_json_round_trip(a):
    (a,) = a
    assert AssocPoly.from_json_dict(a.to_json_dict()) == a
    assert AssocPoly.from_numerators(a.ctx, *a.numerators()) == a
    assert_canonical(a)
