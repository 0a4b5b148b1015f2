"""Independent verification of the splitting exponents.

Three checks, in increasing distance from the algebra:

* `peel_oracle` re-derives W_2..W_K from scratch by peeling the ordered
  product: starting from R = e^(-Xn) ... e^(-X1) e^(X1+...+Xn), the
  degree-m component of R is exactly W_m, which is then divided out and
  the process repeated.  It uses only the free-algebra kernel (exp and
  multiplication) and never touches the engine's f/W recursion, so
  agreement with the engine is genuine evidence.
* `exact_identity_check` multiplies the whole truncated splitting back
  together and asserts the defect polynomial is identically zero.
* `numeric_order_check` substitutes random matrices, compares matrix
  exponentials at several step sizes t, and estimates the convergence
  order of the residual, which must be K + 1 when the product carries
  W_2..W_K.  Its matrix work is batched: `substitute` evaluates each W_m
  with one np.matmul per prefix level, and every float it returns equals
  that of a walk over the words one at a time.

All exact checks are zero-tolerance; the numeric check accepts an
observed order within +-0.5 of K + 1 and reports "inconclusive" (not
failure) when the residuals sit at round-off level.

Both exact checks skip the products that the truncation at degree K makes
trivial.  Each rests on one fact about W_j homogeneous of degree j (W_j = 0
included): a product of factors from W_m, W_(m+1), ... with two or more
factors has degree at least 2m.  Hence

1. e^(W_m) e^(W_(m+1)) ... = 1 + W_m + (degree > m), so once W_2..W_(m-1)
   are peeled off, W_m is the degree-m component of the residue itself.
   No logarithm is needed: in log R the terms (R-1)^p, p >= 2, start at
   degree 2m > m.
2. Once 2m > K the residue is 1 + W_m + ... + W_K modulo degree K + 1, so
   the remaining W_j are read off it directly; the peel divides out only
   W_2..W_(K//2).
3. With h = K//2 + 1, e^(W_h) ... e^(W_K) = 1 + W_h + ... + W_K modulo
   degree K + 1, so the exact check multiplies by e^(W_m) for m < h and
   then once by that sum.

These are identities of truncated polynomials, not approximations: the
results equal those of the full products term for term.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import floordiv, mod, ne, sub, truediv
from typing import TYPE_CHECKING, Iterator, Sequence

from .freealg import (
    AlgebraCtx,
    AssocPoly,
    exp_trunc,
    format_fraction,
    generators,
    poly_sum,
)

if TYPE_CHECKING:
    import numpy as np

# numpy and scipy.linalg are imported inside the numeric functions: they are
# most of the import time of the package, and only the numeric check uses them.

#: Residual norms below this multiple of machine epsilon carry no order
#: information; the check reports inconclusive instead of pass/fail.
ROUNDOFF_FACTOR = 100.0

#: Largest matrix dimension of the numeric check.  The order estimate needs
#: no big matrices, and a huge one would only exhaust memory or CPU.
MAX_DIM = 256

#: Byte budget of one stack of dim x dim matrices in `substitute`: the words of
#: a degree are evaluated in runs of at most this many bytes of matrices, so a
#: level's batch is bounded however many words the degree has.
SUBSTITUTE_CHUNK_BYTES = 1 << 16


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run.

    For exact modes `residuals` holds a single (None, Fraction) pair:
    the maximum |coefficient| of the defect polynomial (expected 0).
    For numeric mode it holds (t, float) pairs in the order checked, and
    `observed_order` is the log-ratio estimate from the two smallest t.
    """

    mode: str
    passed: bool
    residuals: tuple[tuple[float | None, Fraction | float], ...] = ()
    observed_order: float | None = None
    inconclusive: bool = False
    detail: str = ""

    def to_json_dict(self) -> dict:
        def norm_value(v: Fraction | float) -> str | float:
            return format_fraction(v) if isinstance(v, Fraction) else v

        return {
            "mode": self.mode,
            "pass": self.passed,
            "residuals": [
                {"t": t, "norm": norm_value(norm)} for t, norm in self.residuals
            ],
            "observedOrder": self.observed_order,
            "inconclusive": self.inconclusive,
            "detail": self.detail,
        }


def peel_oracle(n: int, max_degree: int) -> list[AssocPoly]:
    """W_2 .. W_max_degree extracted order by order from the product itself.

    R := e^(-Xn) ... e^(-X1) e^(X1+...+Xn) equals e^(W2) e^(W3) ...
    through the truncation degree.  With W_2..W_(m-1) divided out, the
    residue is e^(W_m) e^(W_(m+1)) ... = 1 + W_m + (degree > m): every
    product of two or more of its factors has degree >= 2m.  So W_m is the
    residue's degree-m component, the one log R would give.  Once 2m > K
    those products vanish in the truncation, the residue is
    1 + W_m + ... + W_K, and W_m is not divided out: the later W_j are
    read off the same residue.
    """
    ctx = AlgebraCtx(n, max_degree)
    gens = generators(ctx)
    dense = exp_trunc(poly_sum(ctx, gens))
    # The sparse e^(-Xn) ... e^(-X1) first (its words are Xn^a ... X1^b), then one dense product.
    peel = AssocPoly.one(ctx)
    for g in gens:
        peel = exp_trunc(-g) * peel
    residue = peel * dense
    out: list[AssocPoly] = []
    for m in range(2, max_degree + 1):
        w_m = residue.degree_component(m)
        out.append(w_m)
        if 2 * m <= max_degree:
            residue = exp_trunc(-w_m) * residue
    return out


def _check_ws(n: int, max_degree: int, ws: Sequence[AssocPoly]) -> AlgebraCtx:
    """The context (n, max_degree); ValueError, before any product is formed, unless `ws` is W_2..W_K in it."""
    ctx = AlgebraCtx(n, max_degree)
    expected = max(0, max_degree - 1)
    if len(ws) != expected:
        raise ValueError(f"need W_2..W_{max_degree} ({expected} terms), got {len(ws)}")
    for m, w in enumerate(ws, start=2):
        if w.ctx != ctx:
            raise ValueError(f"W_{m} belongs to context {w.ctx}, expected {ctx}")
        if not w.is_zero and w.homogeneous_degree() != m:
            raise ValueError(f"W_{m} is not homogeneous of degree {m}")
    return ctx


def exact_identity_check(
    n: int, max_degree: int, ws: Sequence[AssocPoly]
) -> VerificationReport:
    """Zero-tolerance check of e^(sum X) = e^(X1)...e^(Xn) e^(W2)...e^(WK).

    `ws` must be W_2..W_max_degree in order (empty when max_degree < 2),
    each in the context (n, max_degree) and homogeneous of its degree (or
    zero).  The defect is the difference of the two sides as truncated
    polynomials; the check passes iff it is identically zero.

    With h = K//2 + 1, every product of two of W_h..W_K has degree
    >= 2h > K, so e^(W_h) ... e^(W_K) = 1 + W_h + ... + W_K in the
    truncation, and the right side is multiplied by that sum once instead
    of by K - h + 1 exponentials.  This holds for any homogeneous W_j,
    right or wrong, so once the inputs are validated the defect equals
    that of the full product term for term.
    """
    ctx = _check_ws(n, max_degree, ws)
    gens = generators(ctx)
    lhs = exp_trunc(poly_sum(ctx, gens))
    rhs = AssocPoly.one(ctx)
    for g in gens:
        rhs = rhs * exp_trunc(g)
    split = max(0, max_degree // 2 - 1)  # W_2..W_(h-1) need their exponentials
    for w in ws[:split]:
        rhs = rhs * exp_trunc(w)
    rhs = rhs * poly_sum(ctx, [AssocPoly.one(ctx), *ws[split:]])
    defect = lhs - rhs
    worst = defect.max_abs_coeff()
    return VerificationReport(
        mode="exact",
        passed=defect.is_zero,
        residuals=((None, worst),),
        detail=f"defect max |coeff| = {format_fraction(worst)} at n={n}, K={max_degree}",
    )


def oracle_equivalence_check(
    n: int, max_degree: int, ws: Sequence[AssocPoly]
) -> VerificationReport:
    """Term-by-term comparison of `ws` (engine output, as `exact_identity_check` takes it) against `peel_oracle`."""
    _check_ws(n, max_degree, ws)
    reference = peel_oracle(n, max_degree)
    mismatches = [m for m, (a, b) in enumerate(zip(ws, reference), start=2) if a != b]
    worst = Fraction(0)
    for m in mismatches:
        worst = max(worst, (ws[m - 2] - reference[m - 2]).max_abs_coeff())
    if mismatches:
        detail = f"mismatch at m={mismatches} (n={n}, K={max_degree})"
    elif max_degree < 2:
        detail = f"no W_m exists below K = 2, so nothing was compared (n={n}, K={max_degree})"
    else:
        detail = f"all W_2..W_{max_degree} match the peel-off oracle at n={n}"
    return VerificationReport(
        mode="oracle",
        passed=not mismatches,
        residuals=((None, worst),),
        detail=detail,
    )


def check_numeric_args(dim: int, seed: int, t_values: Sequence[float]) -> None:
    """Raise ValueError unless the numeric check can run on these arguments.

    `dim` must lie in 1..MAX_DIM, `seed` must be non-negative (numpy's
    generators take no other seed) and `t_values` must be two or more
    distinct t in (0, 1].
    """
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"matrix dimension must lie in 1..{MAX_DIM}, got {dim}")
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    if len(t_values) < 2:
        raise ValueError("need at least two t values to estimate an order")
    if not all(0 < t <= 1 for t in t_values):
        raise ValueError("t values must lie in (0, 1]")
    if len(set(t_values)) != len(t_values):
        raise ValueError("t values must be distinct")


def random_matrices(n: int, dim: int, seed: int) -> list[np.ndarray]:
    """n deterministic dim x dim matrices with entries uniform in [-s/2, s/2], s = min(1, 2/sqrt(dim)).

    Unscaled, the norm of such a matrix grows like sqrt(dim), and at large
    dim the default step sizes leave the asymptotic regime of the order
    estimate; the scale keeps the norm about that of dim = 4.  Up to dim 4
    s is 1, so those matrices are the unscaled draws, bit for bit.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    scale = 2.0 / math.sqrt(max(dim, 4))
    return [rng.uniform(-0.5, 0.5, size=(dim, dim)) * scale for _ in range(n)]


def _runs(
    poly: AssocPoly, width: int
) -> Iterator[tuple[list[int], list[tuple[np.ndarray, np.ndarray]], np.ndarray]]:
    """The terms of `poly` in canonical order, cut into runs of at most `width` words of one degree.

    Yields (root, steps, coefs) per run.  `root` is the run's longest common
    prefix as 0-based letters.  `steps` holds one (parents, letters) pair of
    index arrays per level below the root, top down: the distinct prefixes
    of that length that the run's words need, each as the position of its
    parent prefix in the level above and its last letter.  `coefs` holds
    num / den per word, each the correctly rounded quotient of Python ints.
    A word's index among the n^d words of its degree d is its code minus
    off[d]; its prefix one letter shorter has index // n and its last letter
    is index % n.  Codes stay Python ints: at n = 2 they pass 2^63 at degree 63.
    """
    import numpy as np

    n, off = poly.ctx.n, poly.ctx._offsets
    codes, den = poly._codes, poly._den
    ks = sorted(codes)
    start = 0
    while start < len(ks):
        d = bisect_right(off, ks[start]) - 1
        stop = min(bisect_left(ks, off[d + 1], start), start + width)
        run = ks[start:stop]
        level = list(map(sub, run, repeat(off[d])))
        steps = []
        while len(level) > 1:
            ups = list(map(floordiv, level, repeat(n)))
            first = [True, *map(ne, ups[1:], ups)]  # ups ascend: a new parent where they change
            steps.append((np.cumsum(first) - 1, np.fromiter(map(mod, level, repeat(n)), np.intp, len(level))))
            level = list(compress(ups, first))
        steps.reverse()
        root, r = [], level[0]
        for _ in range(d - len(steps)):
            r, letter = divmod(r, n)
            root.append(letter)
        root.reverse()
        yield root, steps, np.fromiter(map(truediv, map(codes.__getitem__, run), repeat(den)), float, len(run))
        start = stop


class _Prepared(AssocPoly):
    """A polynomial that keeps its runs for `substitute` (see `_runs`).

    `numeric_order_check` wraps each W_m once and substitutes it at every t:
    only the matrices change with t, so the sorted codes, the quotients
    num / den and the prefix levels are made once, at the first t.
    """

    __slots__ = ("_kept",)

    @classmethod
    def of(cls, poly: AssocPoly) -> _Prepared:
        self = cls._make(poly.ctx, poly._codes, poly._den)
        object.__setattr__(self, "_kept", (0, []))  # (width, runs); every width is >= 1
        return self

    def runs(self, width: int) -> list[tuple[list[int], list[tuple[np.ndarray, np.ndarray]], np.ndarray]]:
        if self._kept[0] != width:
            object.__setattr__(self, "_kept", (width, list(_runs(self, width))))
        return self._kept[1]


def substitute(poly: AssocPoly, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate a polynomial on concrete matrices (X_i -> mats[i-1]).

    A word's matrix is its prefix product I @ M[w1] @ ... @ M[wd], taken
    left to right, and the result is the sum of num / den times each word's
    matrix in canonical order, added one term at a time onto zeros.  The
    products are batched by prefix level: the words of each degree are
    taken in runs of at most SUBSTITUTE_CHUNK_BYTES of dim x dim matrices,
    a run's common prefix (its root) comes from a walk over shared prefixes
    that carries over from run to run, and each level below the root is one
    np.matmul of the parent prefixes against the letters' matrices.  Every
    float equals that of a walk over the words one at a time: the same pairs
    of matrices are multiplied by the same BLAS kernel, each coefficient is
    the correctly rounded Python quotient num / den, and the terms are added
    in canonical order by a sequential np.add.accumulate (not a pairwise
    sum) onto the running total carried from the previous run.  Besides
    the root's prefix products (one matrix per letter, as in a walk word by
    word), the matrices held at once are a few stacks of that budget,
    however many words a degree has.
    """
    import numpy as np

    if len(mats) != poly.ctx.n:
        raise ValueError(f"need {poly.ctx.n} matrices, got {len(mats)}")
    dim = mats[0].shape[0]
    stack = np.array(mats)
    out = np.zeros((dim, dim))
    # prefix[k] = I @ M[r1] @ ... @ M[rk] for the previous root; neighbouring
    # runs share long prefixes, whose products are reused.
    prefix = [np.eye(dim)]
    prev: list[int] = []
    width = max(1, SUBSTITUTE_CHUNK_BYTES // stack[0].nbytes)
    runs = poly.runs(width) if isinstance(poly, _Prepared) else _runs(poly, width)
    for root, steps, coefs in runs:
        k = 0
        for x, y in zip(prev, root):
            if x != y:
                break
            k += 1
        del prefix[k + 1 :]
        for letter in root[k:]:
            prefix.append(prefix[-1] @ stack[letter])
        prev = root
        block = prefix[-1][None]
        for parents, letters in steps:
            block = np.matmul(block[parents], stack[letters])
        terms = block * coefs[:, None, None]
        terms[0] += out
        np.add.accumulate(terms, axis=0, out=terms)
        out = terms[-1].copy()
    return out


def splitting_residual(
    mats: Sequence[np.ndarray], t: float, ws: Sequence[AssocPoly]
) -> float:
    """Operator-norm distance between e^(t sum X) and the ordered product at t."""
    import numpy as np
    from scipy.linalg import expm

    dim = mats[0].shape[0]
    scaled = [t * m for m in mats]
    lhs = expm(sum(scaled, np.zeros((dim, dim))))
    rhs = np.eye(dim)
    for m in scaled:
        rhs = rhs @ expm(m)
    for w in ws:
        rhs = rhs @ expm(substitute(w, scaled))
    return float(np.linalg.norm(lhs - rhs, 2))


def numeric_order_check(
    n: int,
    max_degree: int,
    dim: int,
    seed: int,
    t_values: Sequence[float],
    ws: Sequence[AssocPoly] | None = None,
    mats: Sequence[np.ndarray] | None = None,
) -> VerificationReport:
    """Estimate the convergence order of the residual and compare to K + 1.

    With W_2..W_K included, the first uncancelled term of the defect has
    degree K + 1, so residual(t) = O(t^(K+1)).  The observed order is
    log(r_coarse / r_fine) / log(t_coarse / t_fine) over the two
    smallest t values; pass iff it lies within +-0.5 of K + 1.  When the
    residuals are at round-off level there is no order to measure: the
    report is inconclusive and counts as a pass.

    Every t must lie in (0, 1]: the order is a statement about t -> 0, and
    a huge t (1e300, inf) would only overflow the matrix exponentials, as
    nan would poison them.  These, a `dim` outside 1..MAX_DIM and a
    negative `seed` are rejected before any work is done.

    `ws` defaults to the peel-off oracle output (keeping this check
    independent of the engine); `mats` defaults to `random_matrices`.
    """
    check_numeric_args(dim, seed, t_values)
    if ws is None:
        ws = peel_oracle(n, max_degree) if max_degree >= 2 else []
    if mats is None:
        mats = random_matrices(n, dim, seed)
    ws = [_Prepared.of(w) for w in ws]
    norms = [(float(t), splitting_residual(mats, t, ws)) for t in t_values]
    fine, coarse = sorted(norms)[:2]  # two smallest t, ascending
    threshold = ROUNDOFF_FACTOR * sys.float_info.epsilon
    target = max_degree + 1
    if fine[1] < threshold or coarse[1] < threshold:
        return VerificationReport(
            mode="numeric",
            passed=True,
            residuals=tuple(norms),
            observed_order=None,
            inconclusive=True,
            detail=f"residuals at round-off level (< {threshold:.2e}); order not measurable",
        )
    observed = math.log(coarse[1] / fine[1]) / math.log(coarse[0] / fine[0])
    passed = abs(observed - target) <= 0.5
    return VerificationReport(
        mode="numeric",
        passed=passed,
        residuals=tuple(norms),
        observed_order=observed,
        detail=f"observed order {observed:.3f}, expected {target} +- 0.5",
    )
