"""weylcheck: symbolic verification of scale invariance for Lagrangian
densities, gauge covariantization, and decoupling checks, backed by a
numeric oracle."""

from .densities import BUILTIN_NAMES, builtin
from .dsl import LagrangianDef, make_def, parse, render, render_expr
from .errors import (
    IndexArityMismatch,
    MalformedChain,
    MalformedIndex,
    ParseError,
    SingularAssignment,
    UnboundIndex,
    UncoveredDerivative,
    UndeclaredField,
    WeylcheckError,
)
from .exprs import canonicalize, equal, is_zero, set_coupling
from .gauge import (
    gauge_covariantize,
    verify_fermion_decoupling,
    verify_gamma_sigma,
    verify_gauge_decoupling,
    verify_scalar_coupling,
)
from .report import Mode, OracleSummary, TraceStep, VerificationReport
from .scale import (
    INHOMOGENEOUS,
    MIXED,
    WeylWeight,
    apply_global_scale,
    apply_local_scale,
    check_invariance,
    default_weight_table,
    infer_weight,
)
from .simplify import full_simplify
from .tensor import ChristoffelExpr, christoffel, contract_pairs

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BUILTIN_NAMES",
    "ChristoffelExpr",
    "INHOMOGENEOUS",
    "IndexArityMismatch",
    "LagrangianDef",
    "MIXED",
    "MalformedChain",
    "MalformedIndex",
    "Mode",
    "OracleSummary",
    "ParseError",
    "SingularAssignment",
    "TraceStep",
    "UnboundIndex",
    "UncoveredDerivative",
    "UndeclaredField",
    "VerificationReport",
    "WeylWeight",
    "WeylcheckError",
    "__version__",
    "apply_global_scale",
    "apply_local_scale",
    "builtin",
    "canonicalize",
    "check_invariance",
    "christoffel",
    "contract_pairs",
    "default_weight_table",
    "equal",
    "evaluate",
    "evaluate_components",
    "full_simplify",
    "gauge_covariantize",
    "infer_weight",
    "is_zero",
    "make_def",
    "parse",
    "render",
    "render_expr",
    "run_oracle",
    "set_coupling",
    "verify_fermion_decoupling",
    "verify_gamma_sigma",
    "verify_gauge_decoupling",
    "verify_scalar_coupling",
]


def __getattr__(name):
    # the oracle brings in numpy; load it on first use, not on import
    if name in ("oracle", "Assignment", "evaluate", "evaluate_components",
                "run_oracle"):
        from importlib import import_module
        oracle = import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
