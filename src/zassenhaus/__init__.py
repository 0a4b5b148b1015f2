"""Exact computation of the exponents W_m in the ordered exponential splitting

    e^(X1 + ... + Xn) = e^(X1) e^(X2) ... e^(Xn) e^(W2) e^(W3) ...

with noncommuting generators X1..Xn.  The package provides the exact
truncated free-algebra kernel (`freealg`), nested-commutator expressions
(`lieform`), the recursive engine producing the W_m (`engine`),
independent verification oracles (`oracle`), and a command line
interface (`cli`).
"""

from .freealg import (
    AlgebraCtx,
    AssocPoly,
    ContextMismatchError,
    bracket,
    exp_trunc,
)
from .lieform import CommTerm, LieExpr, LieExprParseError, dsw_project
from .engine import (
    EngineCtx,
    PathDisagreementError,
    f1k_comm,
    f1k_direct,
    series,
    w_comm,
)

__all__ = [
    "AlgebraCtx",
    "AssocPoly",
    "CommTerm",
    "ContextMismatchError",
    "EngineCtx",
    "LieExpr",
    "LieExprParseError",
    "PathDisagreementError",
    "bracket",
    "dsw_project",
    "exp_trunc",
    "f1k_comm",
    "f1k_direct",
    "series",
    "w_comm",
]

__version__ = "0.1.0"
