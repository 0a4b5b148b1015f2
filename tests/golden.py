"""Hand-entered fixture formulas used as ground truth by the test suite.

Everything here was typed in directly from the closed-form displays (the
two-variable W_2..W_4, the multivariable f[1,1]..f[1,5] and W_2..W_4,
the fully expanded W_5/W_6 commutator-class displays, and the expanded
W_m formulas: W_5..W_10 one by one, then one per residue class of m mod 6)
and is kept deliberately independent of the engine: fixtures are built
with explicit index loops and raw brackets only.
"""

from fractions import Fraction

from zassenhaus.freealg import AlgebraCtx, AssocPoly, bracket, poly_sum
from zassenhaus.lieform import CommTerm, LieExpr


def nested(ctx, head, *letters):
    """Left-nested commutator [[...[X_head, X_l1], X_l2]...] as a polynomial."""
    out = AssocPoly.generator(ctx, head)
    for letter in letters:
        out = bracket(out, AssocPoly.generator(ctx, letter))
    return out


# -- index ranges used by the multivariable displays ---------------------------
# "1 <= i < j, k <= n" means i < j <= n and i < k <= n with j, k independent;
# each extra letter ascends: k < l <= n, l < h <= n, ...


def pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def ijk(n):
    return [(i, j, k) for i, j in pairs(n) for k in range(i + 1, n + 1)]


def ijkl(n):
    return [(i, j, k, l) for i, j, k in ijk(n) for l in range(k + 1, n + 1)]


def ijklh(n):
    return [(i, j, k, l, h) for i, j, k, l in ijkl(n) for h in range(l + 1, n + 1)]


def ijklhm(n):
    return [(i, j, k, l, h, m) for i, j, k, l, h in ijklh(n) for m in range(h + 1, n + 1)]


# -- two-variable classics (X = X1, Y = X2) ------------------------------------


def two_variable_ws(ctx):
    """W_2, W_3, W_4 for n = 2, right-nested exactly as usually displayed."""
    x = AssocPoly.generator(ctx, 1)
    y = AssocPoly.generator(ctx, 2)
    xy = bracket(x, y)
    w2 = xy.scaled(Fraction(-1, 2))
    w3 = bracket(y, xy).scaled(Fraction(1, 3)) + bracket(x, xy).scaled(Fraction(1, 6))
    w4 = (
        bracket(x, bracket(x, xy)).scaled(Fraction(-1, 24))
        + bracket(y, bracket(x, xy)).scaled(Fraction(-1, 8))
        + bracket(y, bracket(y, xy)).scaled(Fraction(-1, 8))
    )
    return w2, w3, w4


# -- multivariable displays as LieExpr fixtures --------------------------------


def _terms(coeff, index_runs):
    coeff = Fraction(coeff)
    return [CommTerm(coeff, j, tail) for j, tail in index_runs]


def f11_display(n):
    return LieExpr(_terms(1, [(j, ((i, 1),)) for i, j in pairs(n)]))


def f12_display(n):
    return LieExpr(
        _terms(1, [(j, ((i, 1), (k, 1))) for i, j, k in ijk(n)])
        + _terms(Fraction(1, 2), [(j, ((i, 2),)) for i, j in pairs(n)])
    )


def f13_display(n):
    return LieExpr(
        _terms(Fraction(1, 6), [(j, ((i, 3),)) for i, j in pairs(n)])
        + _terms(Fraction(1, 2), [(j, ((i, 2), (k, 1))) for i, j, k in ijk(n)])
        + _terms(Fraction(1, 2), [(j, ((i, 1), (k, 2))) for i, j, k in ijk(n)])
        + _terms(1, [(j, ((i, 1), (k, 1), (l, 1))) for i, j, k, l in ijkl(n)])
    )


def f14_display(n):
    return LieExpr(
        _terms(Fraction(1, 24), [(j, ((i, 4),)) for i, j in pairs(n)])
        + _terms(Fraction(1, 6), [(j, ((i, 3), (k, 1))) for i, j, k in ijk(n)])
        + _terms(Fraction(1, 6), [(j, ((i, 1), (k, 3))) for i, j, k in ijk(n)])
        + _terms(Fraction(1, 4), [(j, ((i, 2), (k, 2))) for i, j, k in ijk(n)])
        + _terms(Fraction(1, 2), [(j, ((i, 1), (k, 1), (l, 2))) for i, j, k, l in ijkl(n)])
        + _terms(Fraction(1, 2), [(j, ((i, 1), (k, 2), (l, 1))) for i, j, k, l in ijkl(n)])
        + _terms(Fraction(1, 2), [(j, ((i, 2), (k, 1), (l, 1))) for i, j, k, l in ijkl(n)])
        + _terms(1, [(j, ((i, 1), (k, 1), (l, 1), (h, 1))) for i, j, k, l, h in ijklh(n)])
    )


def f15_display(n):
    return LieExpr(
        _terms(Fraction(1, 120), [(j, ((i, 5),)) for i, j in pairs(n)])
        + _terms(Fraction(1, 24), [(j, ((i, 4), (k, 1))) for i, j, k in ijk(n)])
        + _terms(Fraction(1, 24), [(j, ((i, 1), (k, 4))) for i, j, k in ijk(n)])
        + _terms(Fraction(1, 12), [(j, ((i, 3), (k, 2))) for i, j, k in ijk(n)])
        + _terms(Fraction(1, 12), [(j, ((i, 2), (k, 3))) for i, j, k in ijk(n)])
        + _terms(Fraction(1, 6), [(j, ((i, 3), (k, 1), (l, 1))) for i, j, k, l in ijkl(n)])
        + _terms(Fraction(1, 6), [(j, ((i, 1), (k, 3), (l, 1))) for i, j, k, l in ijkl(n)])
        + _terms(Fraction(1, 6), [(j, ((i, 1), (k, 1), (l, 3))) for i, j, k, l in ijkl(n)])
        + _terms(Fraction(1, 4), [(j, ((i, 2), (k, 2), (l, 1))) for i, j, k, l in ijkl(n)])
        + _terms(Fraction(1, 4), [(j, ((i, 1), (k, 2), (l, 2))) for i, j, k, l in ijkl(n)])
        + _terms(Fraction(1, 4), [(j, ((i, 2), (k, 1), (l, 2))) for i, j, k, l in ijkl(n)])
        + _terms(Fraction(1, 2), [(j, ((i, 2), (k, 1), (l, 1), (h, 1))) for i, j, k, l, h in ijklh(n)])
        + _terms(Fraction(1, 2), [(j, ((i, 1), (k, 2), (l, 1), (h, 1))) for i, j, k, l, h in ijklh(n)])
        + _terms(Fraction(1, 2), [(j, ((i, 1), (k, 1), (l, 2), (h, 1))) for i, j, k, l, h in ijklh(n)])
        + _terms(Fraction(1, 2), [(j, ((i, 1), (k, 1), (l, 1), (h, 2))) for i, j, k, l, h in ijklh(n)])
        + _terms(1, [(j, ((i, 1), (k, 1), (l, 1), (h, 1), (m, 1))) for i, j, k, l, h, m in ijklhm(n)])
    )


F1K_DISPLAYS = {1: f11_display, 2: f12_display, 3: f13_display, 4: f14_display, 5: f15_display}


def w2_display(n):
    return f11_display(n).scaled(Fraction(1, 2))


def w3_display(n):
    return LieExpr(
        _terms(Fraction(1, 3), [(j, ((i, 1), (k, 1))) for i, j, k in ijk(n)])
        + _terms(Fraction(1, 6), [(j, ((i, 2),)) for i, j in pairs(n)])
    )


def w4_display(n):
    return LieExpr(
        _terms(Fraction(1, 24), [(j, ((i, 3),)) for i, j in pairs(n)])
        + _terms(Fraction(1, 8), [(j, ((i, 2), (k, 1))) for i, j, k in ijk(n)])
        + _terms(Fraction(1, 8), [(j, ((i, 1), (k, 2))) for i, j, k in ijk(n)])
        + _terms(Fraction(1, 4), [(j, ((i, 1), (k, 1), (l, 1))) for i, j, k, l in ijkl(n)])
    )


# -- fully expanded W_5 / W_6: commutator classes with their stated coefficients


def w5_classes(ctx):
    """(stated coefficient, class polynomial) pairs, display order."""
    n = ctx.n
    cls = [
        (Fraction(1, 120), [nested(ctx, j, i, i, i, i) for i, j in pairs(n)]),
        (Fraction(1, 30), [nested(ctx, j, i, i, i, k) for i, j, k in ijk(n)]
                        + [nested(ctx, j, i, k, k, k) for i, j, k in ijk(n)]),
        (Fraction(1, 20), [nested(ctx, j, i, i, k, k) for i, j, k in ijk(n)]),
        (Fraction(1, 10), [nested(ctx, j, i, k, l, l) for i, j, k, l in ijkl(n)]
                        + [nested(ctx, j, i, k, k, l) for i, j, k, l in ijkl(n)]
                        + [nested(ctx, j, i, i, k, l) for i, j, k, l in ijkl(n)]),
        (Fraction(1, 5), [nested(ctx, j, i, k, l, h) for i, j, k, l, h in ijklh(n)]),
        (Fraction(1, 10), [bracket(nested(ctx, j2, i2, k2), nested(ctx, j1, i1))
                           for i1, j1 in pairs(n) for i2, j2, k2 in ijk(n)]),
        (Fraction(1, 20), [bracket(nested(ctx, j3, i3, i3), nested(ctx, j1, i1))
                           for i1, j1 in pairs(n) for i3, j3 in pairs(n)]),
    ]
    return [(c, poly_sum(ctx, ps)) for c, ps in cls]


def w6_classes(ctx):
    """(stated coefficient, class polynomial) pairs, display order."""
    n = ctx.n
    cls = [
        (Fraction(1, 720), [nested(ctx, j, i, i, i, i, i) for i, j in pairs(n)]),
        (Fraction(1, 144), [nested(ctx, j, i, i, i, i, k) for i, j, k in ijk(n)]
                         + [nested(ctx, j, i, k, k, k, k) for i, j, k in ijk(n)]),
        (Fraction(1, 72), [nested(ctx, j, i, i, i, k, k) for i, j, k in ijk(n)]
                        + [nested(ctx, j, i, i, k, k, k) for i, j, k in ijk(n)]),
        (Fraction(1, 36), [nested(ctx, j, i, i, i, k, l) for i, j, k, l in ijkl(n)]
                        + [nested(ctx, j, i, k, k, k, l) for i, j, k, l in ijkl(n)]
                        + [nested(ctx, j, i, k, l, l, l) for i, j, k, l in ijkl(n)]),
        (Fraction(1, 24), [nested(ctx, j, i, i, k, k, l) for i, j, k, l in ijkl(n)]
                        + [nested(ctx, j, i, k, k, l, l) for i, j, k, l in ijkl(n)]
                        + [nested(ctx, j, i, i, k, l, l) for i, j, k, l in ijkl(n)]),
        (Fraction(1, 12), [nested(ctx, j, i, i, k, l, h) for i, j, k, l, h in ijklh(n)]
                        + [nested(ctx, j, i, k, k, l, h) for i, j, k, l, h in ijklh(n)]
                        + [nested(ctx, j, i, k, l, l, h) for i, j, k, l, h in ijklh(n)]
                        + [nested(ctx, j, i, k, l, h, h) for i, j, k, l, h in ijklh(n)]),
        (Fraction(1, 6), [nested(ctx, j, i, k, l, h, m) for i, j, k, l, h, m in ijklhm(n)]),
        (Fraction(1, 72), [bracket(nested(ctx, j2, i2, i2, i2), nested(ctx, j1, i1))
                           for i1, j1 in pairs(n) for i2, j2 in pairs(n)]),
        (Fraction(1, 24), [bracket(nested(ctx, j3, i3, i3, k3), nested(ctx, j1, i1))
                           for i1, j1 in pairs(n) for i3, j3, k3 in ijk(n)]
                        + [bracket(nested(ctx, j3, i3, k3, k3), nested(ctx, j1, i1))
                           for i1, j1 in pairs(n) for i3, j3, k3 in ijk(n)]),
        (Fraction(1, 12), [bracket(nested(ctx, j4, i4, k4, l4), nested(ctx, j1, i1))
                           for i1, j1 in pairs(n) for i4, j4, k4, l4 in ijkl(n)]),
    ]
    return [(c, poly_sum(ctx, ps)) for c, ps in cls]


def solve_class_coefficients(classes, target):
    """Exact coefficients c_a with sum(c_a * class_a) = target, or None.

    Gaussian elimination over Fraction on the word-indexed linear system.
    Returns (solution, unique) where unique is False if the system is
    solvable but underdetermined (some class combination expands to zero).
    """
    polys = [p for _, p in classes]
    words = sorted({w for p in polys for w, _ in p.terms()} | {w for w, _ in target.terms()})
    rows = [[p.coeff(w) for p in polys] + [target.coeff(w)] for w in words]
    ncols = len(polys)
    pivot_of_col = {}
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = rows[r][col]
        rows[r] = [v / scale for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_of_col[col] = r
        r += 1
    if any(row[-1] for row in rows[r:]):
        return None, False  # inconsistent: the classes do not span the target
    solution = [rows[pivot_of_col[c]][-1] if c in pivot_of_col else None for c in range(ncols)]
    return solution, len(pivot_of_col) == ncols


# -- the paper's expanded W_m formulas (m >= 5) ---------------------------------
# Each formula is the term list of m * W_m: (coefficient, ad-operator indices
# applied left to right, (m', k') of the family value they act on).
# `(1, (3, 2, 2), (1, 4))` reads as  ad_{W3} ad_{W2}^2 f[1, 4].  W_5..W_10 are
# displayed one by one down to f[1, .]; from m = 11 on, one formula per
# residue class of m mod 6, starting from f[base, .] with base >= 2.

_F = Fraction
EXPANDED_W5_W10 = {
    5: [(_F(1), (), (1, 4)), (_F(-1), (2,), (1, 2))],
    6: [(_F(1), (), (1, 5)), (_F(-1), (2,), (1, 3))],
    7: [
        (_F(1), (), (1, 6)),
        (_F(-1), (2,), (1, 4)),
        (_F(1, 2), (2, 2), (1, 2)),
        (_F(-1), (3,), (1, 3)),
    ],
    8: [
        (_F(1), (), (1, 7)),
        (_F(-1), (2,), (1, 5)),
        (_F(1, 2), (2, 2), (1, 3)),
        (_F(-1), (3,), (1, 4)),
        (_F(1), (3, 2), (1, 2)),
    ],
    9: [
        (_F(1), (), (1, 8)),
        (_F(-1), (2,), (1, 6)),
        (_F(1, 2), (2, 2), (1, 4)),
        (_F(-1, 6), (2, 2, 2), (1, 2)),
        (_F(-1), (3,), (1, 5)),
        (_F(1), (3, 2), (1, 3)),
        (_F(-1), (4,), (1, 4)),
        (_F(1), (4, 2), (1, 2)),
    ],
    10: [
        (_F(1), (), (1, 9)),
        (_F(-1), (2,), (1, 7)),
        (_F(1, 2), (2, 2), (1, 5)),
        (_F(-1, 6), (2, 2, 2), (1, 3)),
        (_F(-1), (3,), (1, 6)),
        (_F(1), (3, 2), (1, 4)),
        (_F(-1, 2), (3, 2, 2), (1, 2)),
        (_F(1, 2), (3, 3), (1, 3)),
        (_F(-1), (4,), (1, 5)),
        (_F(1), (4, 2), (1, 3)),
    ],
}


def expanded_formula(m):
    """The paper's formula for m * W_m, m >= 5, as a term list."""
    if m in EXPANDED_W5_W10:
        return EXPANDED_W5_W10[m]
    if m < 11:
        raise ValueError(f"no expanded formula for m={m}")
    # The residue-class formulas below are stated for k >= 2 except the
    # 6k+5 class, whose k = 1 instance (m = 11) unrolls identically.
    k, i = divmod(m, 6)
    if i == 0:
        base = 2 * k - 2
        terms = [
            (_F(1), (), (base, 6 * k - 1)),
            (_F(-1), (2 * k - 1,), (base, 4 * k)),
            (_F(1, 2), (2 * k - 1, 2 * k - 1), (base, 2 * k + 1)),
            (_F(-1), (2 * k,), (base, 4 * k - 1)),
            (_F(1), (2 * k, 2 * k - 1), (base, 2 * k)),
            (_F(-1), (2 * k + 1,), (base, 4 * k - 2)),
            (_F(1), (2 * k + 1, 2 * k - 1), (base, 2 * k - 1)),
        ]
        run = range(2 * k + 2, 3 * k)
        top = 6 * k - 1
    elif i == 1:
        base = 2 * k - 1
        terms = [
            (_F(1), (), (base, 6 * k)),
            (_F(-1), (2 * k,), (base, 4 * k)),
            (_F(1, 2), (2 * k, 2 * k), (base, 2 * k)),
        ]
        run = range(2 * k + 1, 3 * k + 1)
        top = 6 * k
    elif i == 2:
        base = 2 * k - 1
        terms = [
            (_F(1), (), (base, 6 * k + 1)),
            (_F(-1), (2 * k,), (base, 4 * k + 1)),
            (_F(1, 2), (2 * k, 2 * k), (base, 2 * k + 1)),
            (_F(-1), (2 * k + 1,), (base, 4 * k)),
            (_F(1), (2 * k + 1, 2 * k), (base, 2 * k)),
        ]
        run = range(2 * k + 2, 3 * k + 1)
        top = 6 * k + 1
    elif i == 3:
        base = 2 * k - 1
        terms = [
            (_F(1), (), (base, 6 * k + 2)),
            (_F(-1), (2 * k,), (base, 4 * k + 2)),
            (_F(1, 2), (2 * k, 2 * k), (base, 2 * k + 2)),
            (_F(-1), (2 * k + 1,), (base, 4 * k + 1)),
            (_F(1), (2 * k + 1, 2 * k), (base, 2 * k + 1)),
            (_F(-1), (2 * k + 2,), (base, 4 * k)),
            (_F(1), (2 * k + 2, 2 * k), (base, 2 * k)),
        ]
        run = range(2 * k + 3, 3 * k + 2)
        top = 6 * k + 2
    elif i == 4:
        base = 2 * k
        terms = [
            (_F(1), (), (base, 6 * k + 3)),
            (_F(-1), (2 * k + 1,), (base, 4 * k + 2)),
            (_F(1, 2), (2 * k + 1, 2 * k + 1), (base, 2 * k + 1)),
        ]
        run = range(2 * k + 2, 3 * k + 2)
        top = 6 * k + 3
    else:  # i == 5
        base = 2 * k
        terms = [
            (_F(1), (), (base, 6 * k + 4)),
            (_F(-1), (2 * k + 1,), (base, 4 * k + 3)),
            (_F(1, 2), (2 * k + 1, 2 * k + 1), (base, 2 * k + 2)),
            (_F(-1), (2 * k + 2,), (base, 4 * k + 2)),
            (_F(1), (2 * k + 2, 2 * k + 1), (base, 2 * k + 1)),
        ]
        run = range(2 * k + 3, 3 * k + 3)
        top = 6 * k + 4
    for s in run:
        terms.append((_F(-1), (s,), (base, top - s)))
    return terms
