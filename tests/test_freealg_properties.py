"""Property tests of the kernel against a word -> Fraction reference model.

The reference model below is the textbook definition of each operation on
a plain dict of Fraction coefficients, with no common denominator, no
degree grouping and no shared loop; the kernel must agree with it exactly.
"""

from collections import defaultdict
from fractions import Fraction
from itertools import product
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zassenhaus.freealg import (
    AlgebraCtx,
    AssocPoly,
    bracket,
    bracket_add,
    exp_trunc,
    from_block,
    generators,
    log_trunc,
    mul,
    poly_sum,
    reduce_block,
    to_block,
)

from conftest import restricted

kernel_settings = settings(max_examples=60, deadline=None)


# -- reference model ---------------------------------------------------------


def word_key(word):
    """Sort key of the canonical order: degree ascending, then lexicographic."""
    return (len(word), word)


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
    _, nums, den = p.numerators()
    assert den > 0
    assert 0 not in nums
    assert gcd(den, *nums) == 1
    assert den == 1 or nums


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
        assert a.degree_components(d) == [a.degree_component(e) for e in range(d, a.ctx.max_degree + 1)]
    assert a.degree_components(a.ctx.max_degree + 1) == []
    for k in range(1, a.ctx.max_degree + 1):
        shallow = restricted(a, k)
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


# -- the coded kernel -------------------------------------------------------------
#
# Words are stored as integer codes; these tests feed the kernel tuple-keyed
# dicts and compare with the tuple reference above, computed on those dicts
# themselves, so a wrong encoding cannot cancel against a wrong decoding.

wide_contexts = st.builds(AlgebraCtx, n=st.integers(1, 4), max_degree=st.integers(2, 7))


@st.composite
def raw_pairs(draw):
    """(ctx, a, b): two word -> Fraction dicts of mixed degree, words up to max_degree long."""
    ctx = draw(wide_contexts)
    words = st.lists(st.integers(1, ctx.n), max_size=ctx.max_degree).map(tuple)
    a, b = (draw(st.dictionaries(words, coefficients, max_size=10)) for _ in range(2))
    return ctx, a, b


n1_example = (
    AlgebraCtx(1, 4),
    {(): Fraction(1), (1,): Fraction(2), (1, 1, 1): Fraction(-1)},
    {(1,): Fraction(3), (1, 1): Fraction(1, 2)},
)

# The kernel treats a constant term as a scalar: the larger operand is copied, scaled by the
# other's constant.  These force each case of that rule, both operand orders of `mul` included.
_larger = {(): Fraction(2), (1,): Fraction(1), (2, 1): Fraction(-1, 3), (1, 1, 2): Fraction(1)}
_smaller = {(): Fraction(-1, 2), (2,): Fraction(3)}
constant_examples = [
    (AlgebraCtx(2, 4), _larger, _smaller),  # both with a constant, the larger on the left
    (AlgebraCtx(2, 4), _smaller, _larger),  # and on the right
    (AlgebraCtx(2, 4), {(): Fraction(3, 2), (1, 2): Fraction(1)}, {(2,): Fraction(1), (1, 1): Fraction(-2)}),  # one constant
    (AlgebraCtx(2, 4), {(): Fraction(5, 3)}, {(): Fraction(1), (1,): Fraction(1), (2, 2): Fraction(1, 2)}),  # a constant alone
    (AlgebraCtx(2, 4), {(1,): Fraction(1), (2, 1): Fraction(2)}, {(2,): Fraction(-1), (1, 2, 1): Fraction(1, 4)}),  # none
    (AlgebraCtx(3, 3), {(): Fraction(1), (3,): Fraction(1)}, {(): Fraction(-1), (3,): Fraction(1)}),  # they cancel
]


@kernel_settings
@given(raw_pairs())
@example(n1_example)
@example(constant_examples[0])
@example(constant_examples[1])
@example(constant_examples[2])
@example(constant_examples[3])
@example(constant_examples[4])
@example(constant_examples[5])
def test_coded_products_match_tuple_reference(ctx_ab):
    ctx, a, b = ctx_ab
    cap = ctx.max_degree
    pa, pb = AssocPoly(ctx, a), AssocPoly(ctx, b)
    for product, expected in (
        (mul(pa, pb), ref_mul(a, b, cap)),
        (bracket(pa, pb), ref_bracket(a, b, cap)),
        (mul(pb, pa), ref_mul(b, a, cap)),
    ):
        assert model(product) == expected
        assert_canonical(product)


@kernel_settings
@given(raw_pairs())
@example(n1_example)
def test_numerators_and_terms_in_canonical_order(ctx_ab):
    ctx, a, _ = ctx_ab
    p = AssocPoly(ctx, a)
    expected = sorted((w for w, c in a.items() if c), key=word_key)
    assert [w for w, _ in p.terms()] == expected
    assert dict(p.terms()) == ref_clean(a)
    words, nums, den = p.numerators()
    assert words == expected and all(type(w) is tuple for w in words)
    assert [Fraction(c, den) for c in nums] == [a[w] for w in words]
    assert AssocPoly.from_numerators(ctx, words, nums, den) == p


@kernel_settings
@given(raw_pairs(), st.lists(scalars, min_size=2, max_size=2))
def test_weighted_sum_matches_model(ctx_ab, s):
    ctx, a, b = ctx_ab
    total = poly_sum(ctx, [AssocPoly(ctx, a), AssocPoly(ctx, b)], s)
    assert model(total) == ref_add(ref_scaled(a, s[0]), ref_scaled(b, s[1]))
    assert_canonical(total)


def test_single_generator():
    ctx = AlgebraCtx(1, 5)
    (x,) = generators(ctx)
    p = AssocPoly(ctx, {(1, 1): 2, (): Fraction(1, 3)})
    assert mul(p, x).terms() == [((1,), Fraction(1, 3)), ((1, 1, 1), Fraction(2))]
    assert bracket(p, x).is_zero
    assert exp_trunc(x).terms() == [((1,) * d, Fraction(1, factorial(d))) for d in range(6)]
    assert p.text() == "1/3 + 2*X1*X1" and p.latex() == "\\frac{1}{3}+2X_{1}X_{1}"


# -- the dense bracket-and-add kernel -------------------------------------------------
#
# bracket_add(f, a, b, r) on dense degree blocks must equal
# f + r*[a, b] as the dict kernel computes it.  Operands are homogeneous: one
# word, a dense block (every word of the degree, numerators from a drawn
# pattern), a few words, or zero.


def as_block(p, d):
    """p, zero or homogeneous of degree d, as the block (den, numerators of all n^d words in order)."""
    n = p.ctx.n
    words, nums, den = p.numerators()
    out = [0] * n**d
    for w, c in zip(words, nums):
        assert len(w) == d
        out[sum((letter - 1) * n ** (d - 1 - pos) for pos, letter in enumerate(w))] = c
    return den, out


def homogeneous(ctx, d):
    words = list(product(range(1, ctx.n + 1), repeat=d))
    one_word = st.builds(lambda w, c: AssocPoly(ctx, {w: c}), st.sampled_from(words), coefficients)
    dense = st.builds(
        lambda s, q: AssocPoly(ctx, {w: Fraction((s * (i + 1)) % 11 - 5, q) for i, w in enumerate(words)}),
        st.integers(1, 10**6),
        st.integers(1, 6),
    )
    few = st.dictionaries(st.sampled_from(words), coefficients, max_size=5).map(lambda t: AssocPoly(ctx, t))
    return st.one_of(one_word, dense, few, st.just(AssocPoly.zero(ctx)))


@st.composite
def bracket_add_cases(draw):
    """(f, (a, da), (b, db), r) with da + db <= K; f is zero, any, or cancels most of r*[a, b]."""
    n = draw(st.integers(1, 4))
    ctx = AlgebraCtx(n, draw(st.integers(2, {1: 9, 2: 8, 3: 6, 4: 5}[n])))
    da = draw(st.integers(1, ctx.max_degree - 1))
    db = draw(st.integers(1, ctx.max_degree - da))
    a, b = draw(homogeneous(ctx, da)), draw(homogeneous(ctx, db))
    r = draw(scalars)
    kind = draw(st.sampled_from(["zero", "any", "cancel"]))
    if kind == "zero":
        f = AssocPoly.zero(ctx)
    else:
        f = draw(homogeneous(ctx, da + db))
        if kind == "cancel":  # most of r*[a, b] cancels: the result has few words and a gcd to take out
            f = f - bracket(a, b).scaled(r)
    return f, (a, da), (b, db), r


def _case(f, a, b, r):
    """An explicit case of `bracket_add_cases` from nonzero homogeneous a and b."""
    return f, (a, a.homogeneous_degree()), (b, b.homogeneous_degree()), r


@kernel_settings
@given(bracket_add_cases())
@example(
    _case(
        AssocPoly.zero(AlgebraCtx(2, 4)),
        AssocPoly(AlgebraCtx(2, 4), {(1,): Fraction(1, 3)}),
        AssocPoly(AlgebraCtx(2, 4), {(2,): 3}),
        -1,
    )
)
@example(
    _case(
        AssocPoly(AlgebraCtx(3, 5), {(1, 2, 3): Fraction(2, 5), (3, 2, 1): Fraction(-7, 10)}),
        AssocPoly(AlgebraCtx(3, 5), {(1, 2): Fraction(-2, 5), (2, 1): Fraction(4, 15)}),
        AssocPoly(AlgebraCtx(3, 5), {(3,): Fraction(5, 6)}),
        Fraction(-9, 4),
    )
)
@example(
    _case(
        AssocPoly.zero(AlgebraCtx(2, 4)),
        AssocPoly(AlgebraCtx(2, 4), {(1, 1): 1}),
        AssocPoly(AlgebraCtx(2, 4), {(2, 2): 1}),
        1,
    )
)
@example(  # a holds c and -c (one row each) and zeros, which make no stride copy
    _case(
        AssocPoly(AlgebraCtx(2, 4), {(1, 1, 2): 1, (2, 2, 1): -4}),
        AssocPoly(AlgebraCtx(2, 4), {(1, 1): 3, (2, 2): -3, (2, 1): 3}),
        AssocPoly(AlgebraCtx(2, 4), {(1,): 1, (2,): Fraction(-1, 2)}),
        Fraction(2, 3),
    )
)
@example(  # numerators beyond 2^64
    _case(
        AssocPoly.zero(AlgebraCtx(3, 4)),
        AssocPoly(AlgebraCtx(3, 4), {(1,): 2**70 + 1, (3,): -(2**65)}),
        AssocPoly(AlgebraCtx(3, 4), {(2, 1): Fraction(3**45, 7), (1, 3): -1}),
        Fraction(-(2**64) - 1, 5),
    )
)
@example(  # an all-zero a leaves f as it is
    (
        AssocPoly(AlgebraCtx(2, 4), {(1, 2, 2): Fraction(1, 6), (2, 1, 1): 5}),
        (AssocPoly.zero(AlgebraCtx(2, 4)), 2),
        (AssocPoly(AlgebraCtx(2, 4), {(2,): 7}), 1),
        Fraction(1, 2),
    )
)
def test_bracket_add_matches_dict_kernel(case):
    f, (a, da), (b, db), r = case
    ctx = a.ctx
    d = da + db
    operands = (as_block(f, d), as_block(a, da), as_block(b, db))
    before = [(den, list(nums)) for den, nums in operands]
    got = bracket_add(*operands, r)
    assert [(den, list(nums)) for den, nums in operands] == before  # operands untouched
    assert bracket_add(*[(den, tuple(nums)) for den, nums in operands], r) == got  # any int sequences
    assert len(got[1]) == ctx.n**d
    den, nums = reduce_block(*got)
    assert den > 0 and gcd(den, *nums) == 1  # the canonical block
    poly = from_block(ctx, d, *got)
    assert poly == f + bracket(a, b).scaled(r)
    assert model(poly) == ref_add(model(f), ref_scaled(ref_bracket(model(a), model(b), ctx.max_degree), r))
    assert_canonical(poly)
    assert as_block(poly, d) == (den, nums)


def test_bracket_add_takes_out_the_common_factor():
    ctx = AlgebraCtx(2, 4)
    a = as_block(AssocPoly(ctx, {(1,): Fraction(1, 3)}), 1)
    b = as_block(AssocPoly(ctx, {(2,): 3}), 1)
    zero = (1, [0] * 4)
    # [a, b] = [X1, X2] over the lifted denominator 3 has numerators 3 and -3.
    assert bracket_add(zero, a, b, 1) == (3, [0, 3, -3, 0])
    assert reduce_block(*bracket_add(zero, a, b, 1)) == (1, [0, 1, -1, 0])
    assert from_block(ctx, 2, *bracket_add(zero, a, b, 1)).numerators() == ([(1, 2), (2, 1)], [1, -1], 1)
    f = as_block(AssocPoly(ctx, {(1, 2): 1, (2, 1): Fraction(1, 2)}), 2)
    assert from_block(ctx, 2, *bracket_add(f, a, b, Fraction(-1, 2))).numerators() == ([(1, 2), (2, 1)], [1, 2], 2)
    assert from_block(ctx, 2, *bracket_add(f, a, b, -1)).numerators() == ([(2, 1)], [3], 2)


def test_bracket_add_refuses_mixed_or_wrong_degrees():
    ctx = AlgebraCtx(2, 5)
    x1, x2 = generators(ctx)
    a, b = as_block(x1, 1), as_block(x2, 1)
    for f in ((1, [0, 0, 0]), (1, [0] * 8), as_block(mul(x1, mul(x1, x2)), 3)):
        with pytest.raises(ValueError):
            bracket_add(f, a, b, 1)
    mixed = x1 + mul(x1, x2)
    for p, d in ((mixed, 1), (mixed, 2), (x1, 2)):  # a is a block, which only a homogeneous p has
        with pytest.raises(ValueError):
            to_block(p, d)
