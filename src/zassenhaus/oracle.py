"""Independent verification of the splitting exponents.

Three checks, in increasing distance from the algebra:

* `peel_oracle` re-derives W_2..W_K from scratch by peeling the ordered
  product: starting from R = e^(-Xn) ... e^(-X1) e^(X1+...+Xn), the
  degree-m component of R is exactly W_m, which is then divided out and
  the process repeated.  It uses only R written down (fact 5) and its own
  product of graded blocks (`_exp_times`), and never touches the engine's
  f/W recursion, so agreement with the engine is genuine evidence.
* `exact_identity_check` multiplies the whole truncated splitting back
  together and asserts the defect polynomial is identically zero.
* `numeric_order_check` substitutes random matrices, compares matrix
  exponentials at several step sizes t, and estimates the convergence
  order of the residual, which must be K + 1 when the product carries
  W_2..W_K.  Its matrix work is batched: `substitute` evaluates all of
  W_2..W_K at every t in one walk over every word of degree 1..K, the
  complete prefix tree, where word c of degree k + 1 has parent c // n
  and last letter c % n; each prefix's matrix is made once, a chunk of a
  level per np.matmul, and, every word's matrix being finite, every
  float it returns equals that of a walk over the words one at a time.

W_m goes in and out as `EngineCtx.series_blocks` yields it, a reduced block
(den, nums) (`freealg.to_block`); no check makes a polynomial of any W_m.
The products in between are not reduced (`_exp_times`): the one reduction
is `peel_oracle`'s `reduce_block` of each W_m it reads off the residue,
and the exact check compares over the product's denominator as it stands.
`check_ws` validates W_2..W_K once, and a value it returned passes every
check's own call of it without a second scan.

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
   degree K + 1, so the exact check starts from that sum and multiplies
   e^(W_(h-1)), ..., e^(W_2) onto it from the left.  The factor that
   e^(W_m) multiplies is then 1 + (degree > m), with no words of degree
   1..m, and e^(X1)...e^(Xn) multiplies the result once at the end.

These are identities of truncated polynomials, not approximations: the
results equal those of the full products term for term.  Both checks
hold every element as one dense block per degree (`Graded`), multiply by
e^(+-W_m) with `_exp_times`, and need no product for the fixed factors:

4. (X1 + ... + Xn)^d is the sum of all n^d words of degree d, so
   e^(X1+...+Xn) has coefficient 1/d! on each word of degree d, which the
   exact check compares with.  X_i^a times a block of degree e fills one
   contiguous range of n^e codes, so e^(X1)...e^(Xn) goes on by slice
   adds (`_letters_times`).
5. The peel's starting residue R (`peel_residue`) reads each word's
   coefficient off the word's shape, as Goldberg (Duke Math. J. 23, 1956)
   reads the coefficients of log(e^x e^y).  e^(-Xn)...e^(-X1) has the
   coefficient c(u) = prod_i (-1)^(a_i) / a_i! on each non-increasing
   word u, a_i the number of letters i in u, and 0 on the others.  A word
   w of degree d splits as u v with u non-increasing exactly when u is one
   of its first L + 1 prefixes, L the length of its longest non-increasing
   prefix, so

       R(w) = sum over j <= L of c(w[:j]) / (d - j)!.

   R(w) thus depends only on that prefix p = w[:L]: for L < d, w = p x v
   with x in last(p)+1..n and v any word of degree d - L - 1, and these
   words fill one contiguous range of (n - last(p)) n^(d-L-1) codes.  So
   each degree of R is a run of constant stretches, one per non-increasing
   p of length <= d.  Every numerator over K! is an integer: each term is
   K!/d! times a multinomial coefficient.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import chain, repeat, starmap
from operator import add, neg, sub, truediv
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .freealg import (
    AlgebraCtx,
    Block,
    Frozen,
    check_block,
    format_fraction,
    reduce_block,
    zeros,
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

#: Byte budget of one stack of dim x dim matrices in `substitute`: each degree's
#: words, codes c..b-1 with parents c//n.. and letters c%n.., are evaluated in
#: chunks of at most this many bytes of matrices (or one word), so a batch is
#: bounded however many words a degree has.
SUBSTITUTE_CHUNK_BYTES = 1 << 16

#: A graded element (den, blocks): blocks[d] is the block of degree d, d = 0..K, or None where it is 0.
Graded = tuple[int, list[list[int] | None]]


class VerificationReport(Frozen):
    """Outcome of one verification run.

    For exact modes `residuals` holds a single (None, Fraction) pair:
    the maximum |coefficient| of the defect polynomial (expected 0).
    For numeric mode it holds (t, float) pairs in the order checked, and
    `observed_order` is the log-ratio estimate from the two smallest t.
    """

    __slots__ = _fields = ("mode", "passed", "residuals", "observed_order", "inconclusive", "detail")
    mode: str
    passed: bool
    residuals: tuple[tuple[float | None, Fraction | float], ...]
    observed_order: float | None
    inconclusive: bool
    detail: str

    def __init__(
        self,
        mode: str,
        passed: bool,
        residuals: tuple[tuple[float | None, Fraction | float], ...] = (),
        observed_order: float | None = None,
        inconclusive: bool = False,
        detail: str = "",
    ) -> None:
        self._init(mode, passed, residuals, observed_order, inconclusive, detail)

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


def _stretches(n: int, d: int, scale: int) -> Iterator[tuple[int, int]]:
    """(numerator over K! = scale d!, length) of each nonempty constant stretch of R's degree-d block, in code order (fact 5).

    A depth-first walk, on a stack as deep as d, over the non-increasing
    prefixes p: the words p y with y <= last(p) continue it, those with
    y > last(p) form p's stretch.  A prefix carries its length, last letter
    and how often it ends in it, its multinomial d!/(a1!...an! (d-|p|)!) and
    the sum of (-1)^|u| times that of each prefix u: small ints.
    """
    stack = [(0, n, 0, 1, 1, 1)]  # (length, last, run, multinomial, sum, next letter): the empty prefix, last = n
    while stack:
        length, last, run, multinomial, total, y = stack.pop()
        if length == d:
            yield scale * total, 1
        elif y <= last:
            stack.append((length, last, run, multinomial, total, y + 1))
            r = run + 1 if y == last else 1
            multinomial = multinomial * (d - length) // r  # a_y = r
            stack.append((length + 1, y, r, multinomial, total + multinomial if length % 2 else total - multinomial, 1))
        elif last < n:
            yield scale * total, (n - last) * n ** (d - length - 1)


def peel_residue(ctx: AlgebraCtx) -> Graded:
    """R = e^(-Xn)...e^(-X1) e^(X1+...+Xn) truncated at degree K, written down by fact 5, over K!.

    Only the stretches are computed, and each degree's block is laid down
    from them at C speed.
    """
    n, K = ctx.n, ctx.max_degree
    den = math.factorial(K)
    blocks = [list(chain.from_iterable(starmap(repeat, _stretches(n, d, den // math.factorial(d))))) for d in range(K + 1)]
    return den, [b if any(b) else None for b in blocks]


def _exp_times(w: Block, m: int, q: Graded, sign: int) -> Graded:
    """e^(sign W) Q truncated at degree K, W homogeneous of degree m with block `w`: the verifiers' one product.

    Horner, T <- Q + sign W T / p for p = K//m..1, forms at step p only the
    degrees d <= K - (p-1) m that the p - 1 factors W still to come can use.
    W T at degree d is one row c T_(d-m) per distinct numerator c of w, read
    in w's order (word u v sits at i n^(d-m) + j).  Q is lifted to T's
    growing denominator in the pass that adds the rows.  The result is not
    reduced (see the module docstring), an all-zero block is None: a gcd
    and a division over every numerator cost more than the larger
    numerators save, and without them `verify --mode exact` at (2,20)
    took 8.6 s, not 12.3 s (median of 3 runs, 2 CPUs, Python 3.11.7).
    """
    (w_den, w_nums), (q_den, q_blocks) = w, q
    K = len(q_blocks) - 1
    if sign < 0:
        w_nums = list(map(neg, w_nums))
    values = set(w_nums)
    den, t = q_den, q_blocks
    for p in range(K // m, 0, -1):
        den *= w_den * p
        lift = den // q_den
        grown: list[list[int] | None] = []
        for d in range(K - (p - 1) * m + 1):
            q_d, t_e = q_blocks[d], t[d - m] if d >= m else None
            if t_e is None:
                grown.append(q_d and list(map(lift.__mul__, q_d)))
                continue
            rows = {c: list(map(c.__mul__, t_e)) for c in values}
            wt = chain.from_iterable(map(rows.__getitem__, w_nums))
            grown.append(list(wt if q_d is None else map(add, map(lift.__mul__, q_d), wt)))
        t = grown
    return den, [b if b and any(b) else None for b in t]


def _letters_times(ctx: AlgebraCtx, z: Graded) -> list[list[int]]:
    """d! (e^(X1)...e^(Xn) Z)_d over Z's denominator, d = 0..K, for Z_0 != 0: the letters by slice adds (fact 4).

    Scaled by d!, e^(X_i) Z at degree d is the sum of C(d, a) X_i^a Z_(d-a),
    and X_i^a times the block of degree d - a is the contiguous range of
    n^(d-a) codes from (i-1)(1 + n + ... + n^(a-1)) n^(d-a).  Each letter,
    Xn first, updates the degrees from K down, reading the lower ones it has
    not updated yet.
    """
    n, K, off = ctx.n, ctx.max_degree, ctx._offsets
    out = [b and list(map(math.factorial(d).__mul__, b)) for d, b in enumerate(z[1])]
    for i in range(n - 1, -1, -1):
        for d in range(K, 0, -1):
            for a in range(1, d + 1):
                src = out[d - a]
                if src is None:
                    continue
                if out[d] is None:
                    out[d] = zeros(n, d)
                width, c = len(src), math.comb(d, a)
                start = i * off[a] * width
                block = out[d]
                block[start : start + width] = map(add, block[start : start + width], map(c.__mul__, src))
    return out


def peel_oracle(n: int, max_degree: int) -> list[Block]:
    """W_2 .. W_max_degree as reduced blocks, like the engine's, extracted order by order from the product itself.

    R := e^(-Xn) ... e^(-X1) e^(X1+...+Xn) equals e^(W2) e^(W3) ...
    through the truncation degree; it is written down (`peel_residue`,
    fact 5) rather than multiplied out.  With W_2..W_(m-1) divided out, the
    residue is e^(W_m) e^(W_(m+1)) ... = 1 + W_m + (degree > m): every
    product of two or more of its factors has degree >= 2m.  So W_m is the
    residue's degree-m block, the one log R would give, and e^(-W_m) R
    (`_exp_times`) divides it out.  Once 2m > K those products vanish in
    the truncation, the residue is 1 + W_m + ... + W_K, and W_m is not
    divided out: the later W_j, from W_h on, h = K//2 + 1, are read off
    the same residue's blocks.
    """
    residue = peel_residue(AlgebraCtx(n, max_degree))
    out: list[Block] = []
    for m in range(2, max_degree + 1):
        den, blocks = residue
        w = reduce_block(den, blocks[m] or zeros(n, m))
        out.append(w)
        if 2 * m <= max_degree and blocks[m]:  # e^0 = 1
            residue = _exp_times(w, m, residue, -1)
    return out


class _Checked(tuple):
    """W_2..W_K that `check_ws` accepted at (n, K) = `key`."""

    key: tuple[int, int]


def check_ws(n: int, max_degree: int, ws: Sequence[Block]) -> Sequence[Block]:
    """`ws` as validated W_2..W_K; ValueError, before any product is formed, unless it is W_2..W_K as `check_block` blocks.

    A value this returned for the same (n, max_degree) comes back without a
    second scan, so `verify` validates once for all its checks; every check
    passes what it is given through here.
    """
    if type(ws) is _Checked and ws.key == (n, max_degree):
        return ws
    AlgebraCtx(n, max_degree)  # n and K themselves
    expected = max(0, max_degree - 1)
    if len(ws) != expected:
        raise ValueError(f"need W_2..W_{max_degree} ({expected} terms), got {len(ws)}")
    for m, w in enumerate(ws, start=2):
        try:
            den, nums = w
            check_block(n, m, den, nums)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"W_{m} is not a reduced block (den, nums) of degree {m} at n={n}: {exc}") from None
    checked = _Checked(ws)
    checked.key = (n, max_degree)
    return checked


def exact_identity_check(n: int, max_degree: int, ws: Sequence[Block]) -> VerificationReport:
    """Zero-tolerance check of e^(sum X) = e^(X1)...e^(Xn) e^(W2)...e^(WK).

    `ws` must be W_2..W_max_degree in order (empty when max_degree < 2),
    each the reduced block (den, nums) of its degree.  The defect is the
    difference of the two sides as truncated polynomials; the check passes
    iff it is identically zero.

    With h = K//2 + 1, every product of two of W_h..W_K has degree
    >= 2h > K, so e^(W_h) ... e^(W_K) = 1 + W_h + ... + W_K in the
    truncation, and the right side is multiplied by that sum once instead
    of by K - h + 1 exponentials.  This holds for any homogeneous W_j,
    right or wrong, so once the inputs are validated the defect equals
    that of the full product term for term.  The W side is multiplied
    from the right, Q = e^(W_2)(...(e^(W_(h-1))(1 + W_h + ... + W_K))),
    so the factor that e^(W_m) multiplies has no words of degree 1..m;
    e^(X1)...e^(Xn) multiplies Q once at the end, and by associativity the
    defect is the same polynomial, compared degree by degree (fact 4).
    """
    ws = check_ws(n, max_degree, ws)
    lo = max(2, max_degree // 2 + 1)  # W_lo..W_K are summed, W_2..W_(lo-1) need their exponentials
    den = math.lcm(*(d for d, _ in ws[lo - 2 :]))
    tail = [list(map((den // d).__mul__, nums)) if any(nums) else None for d, nums in ws[lo - 2 :]]
    q = (den, [[den], *repeat(None, lo - 1), *tail])
    for m in range(lo - 1, 1, -1):
        if any(ws[m - 2][1]):  # e^0 = 1
            q = _exp_times(ws[m - 2], m, q, 1)
    den = q[0]
    worst = Fraction(0)
    for d, b in enumerate(_letters_times(AlgebraCtx(n, max_degree), q)):  # d! e^(X1+...+Xn) is den over den on every word
        worst = max(worst, Fraction(max(den - min(b), max(b) - den), den * math.factorial(d)))
    return VerificationReport(
        mode="exact",
        passed=not worst,
        residuals=((None, worst),),
        detail=f"defect max |coeff| = {format_fraction(worst)} at n={n}, K={max_degree}",
    )


def oracle_equivalence_check(n: int, max_degree: int, ws: Sequence[Block]) -> VerificationReport:
    """Term-by-term comparison of `ws` (engine output, as `exact_identity_check` takes it) against `peel_oracle`."""
    ws = check_ws(n, max_degree, ws)
    mismatches, worst = [], Fraction(0)
    for m, ((da, x), (db, y)) in enumerate(zip(ws, peel_oracle(n, max_degree)), start=2):
        if da != db or x != y:  # reduced blocks: equal iff their polynomials are
            mismatches.append(m)  # and x/da - y/db = (x db - y da) / (da db)
            worst = max(worst, Fraction(max(map(abs, map(sub, map(db.__mul__, x), map(da.__mul__, y)))), da * db))
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


def substitute(n: int, blocks: Mapping[int, Block], mats: Sequence[Sequence[np.ndarray]]) -> list[dict[int, np.ndarray]]:
    """Evaluate each W, homogeneous of degree d with block blocks[d], on each of one or more sets of n matrices (X_i -> mats[j][i-1]).

    Returns one dict per set, mapping each degree of `blocks` to its matrix.
    A word's matrix is its prefix product I @ M[w1] @ ... @ M[wd], taken
    left to right, and each W's value is the sum of num / den times each of
    its words' matrices in code order, added one term at a time onto zeros.
    All the blocks are evaluated in one depth-first walk over every word of
    degree 0..max(blocks), the complete prefix tree: the word of code c and
    degree k + 1 has its parent at code c // n and its last letter c % n,
    so the children of codes c..b-1 are codes c*n..b*n-1.  Each prefix's
    matrix is made once, as its parent's matrix times its last letter's,
    however many blocks share it.  The walk cuts each level into chunks of
    at most SUBSTITUTE_CHUNK_BYTES of dim x dim matrices over every set, or
    one word if its matrices of every set exceed the budget together, each
    chunk one np.matmul of its parents against its letters for all the sets
    at once, and finishes a chunk's subtree before it makes the next chunk.
    The matrices held at once are one chunk per level; a block's length,
    not its count of nonzero numerators, sets the cost.
    Every float equals that of a walk over the words of nonzero numerator
    one at a time: the same pairs of matrices are multiplied by the same
    BLAS kernel, each coefficient is the correctly rounded Python quotient
    num / den, and a block's terms are added in code order by a sequential
    np.add.accumulate (not a pairwise sum) onto the running total carried
    from the previous chunk.  A zero numerator adds 0.0 * P(w) = +-0.0 to a
    total that starts at +0.0 and is never -0.0, which leaves it as it is.
    That needs every word's matrix P(w) to be finite: a word whose matrix
    overflows makes its degree's value nan, even where its numerator is 0.
    """
    import numpy as np

    for d, (_, nums) in blocks.items():
        if len(nums) != n**d:
            raise ValueError(f"a block of degree {d} at n={n} has {n**d} numerators, got {len(nums)}")
    for m in mats:
        if len(m) != n:
            raise ValueError(f"need {n} matrices, got {len(m)}")
    letters = np.asarray(mats).swapaxes(0, 1)  # letters[i, j] = mats[j][i]
    _, sets, dim, _ = letters.shape
    out = {d: np.zeros((sets, dim, dim)) for d in blocks}
    coefs = {  # per degree: num / den of every word, zeros included
        d: np.fromiter(map(truediv, nums, repeat(den)), float, len(nums))[:, None, None, None]
        for d, (den, nums) in blocks.items()
    }
    top = max(blocks, default=0)

    def add(d: int, stack: np.ndarray, a: int, b: int) -> None:
        """Add the terms of block d among words a..b-1 of degree d, whose matrices `stack` holds."""
        if d in coefs:
            terms = stack * coefs[d][a:b]
            terms[0] += out[d]
            np.add.accumulate(terms, axis=0, out=terms)
            out[d][...] = terms[-1]

    width = max(1, SUBSTITUTE_CHUNK_BYTES // letters[0].nbytes)  # words per chunk, at least one
    root = np.broadcast_to(np.eye(dim), (1, sets, dim, dim))
    add(0, root, 0, 1)
    # (k, stack, a, c, e): the words of degree k from code a on have matrices
    # `stack`, and their children c..e-1 of degree k + 1 are still to be made.
    todo = [(0, root, 0, 0, n)] if top else []
    while todo:
        k, stack, a, c, e = todo.pop()
        b = min(c + width, e)
        if b < e:
            todo.append((k, stack, a, b, e))
        i = np.arange(c, b)
        child = np.matmul(stack[i // n - a], letters[i % n])
        add(k + 1, child, c, b)
        if k + 1 < top:
            todo.append((k + 1, child, c, c * n, b * n))
    return [{d: v[j] for d, v in out.items()} for j in range(sets)]


def splitting_residual(mats: Sequence[np.ndarray], t_values: Sequence[float], ws: Sequence[Block]) -> list[float]:
    """Operator-norm distance between e^(t sum X) and the ordered product e^(tX1)...e^(tXn) e^(W2(tX))... at each t.

    W_2..W_K are substituted at every t in one call, and multiplied onto
    each t's product in turn.
    """
    import numpy as np
    from scipy.linalg import expm

    dim = mats[0].shape[0]
    scaled = np.multiply.outer(t_values, mats)  # scaled[j, i] = t_values[j] * mats[i]
    lhs = [expm(sum(s, np.zeros((dim, dim)))) for s in scaled]
    rhs = []
    for s, values in zip(scaled, substitute(len(mats), dict(enumerate(ws, start=2)), scaled)):
        r = np.eye(dim)
        for m in s:
            r = r @ expm(m)
        for v in values.values():
            r = r @ expm(v)
        rhs.append(r)
    return [float(np.linalg.norm(a - b, 2)) for a, b in zip(lhs, rhs)]


def numeric_order_check(
    n: int,
    max_degree: int,
    dim: int,
    seed: int,
    t_values: Sequence[float],
    ws: Sequence[Block] | None = None,
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

    `ws`, as `exact_identity_check` takes it, defaults to the peel-off oracle
    output (keeping this check independent of the engine); `mats` defaults
    to `random_matrices`.  W_2..W_K are evaluated from their blocks in one
    call of `substitute` for every t.
    """
    check_numeric_args(dim, seed, t_values)
    ws = check_ws(n, max_degree, peel_oracle(n, max_degree) if ws is None else ws)
    if mats is None:
        mats = random_matrices(n, dim, seed)
    norms = list(zip(map(float, t_values), splitting_residual(mats, t_values, ws)))
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
