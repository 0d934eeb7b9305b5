"""Two-pass reference for ``scale.check_invariance``.

This is the check ``scale`` made before it folded Lam^4 into each
term's transform: the plain transform first, then
``canonicalize(lam(4) * transformed)`` as a second pass, with the five
trace texts rendered at once.  Tests compare its reports with the
one-pass check, field by field and text by text.
"""

from __future__ import annotations

from fractions import Fraction

from weylcheck import dsl
from weylcheck import exprs as ex
from weylcheck.report import Mode, TraceStep, VerificationReport
from weylcheck.scale import apply_global_scale, apply_local_scale
from weylcheck.simplify import full_simplify


def check_invariance(L, mode: Mode) -> VerificationReport:
    if isinstance(L, dsl.LagrangianDef):
        name, expr = L.name, L.parsed
    else:
        name, expr = "expr", ex.canonicalize(L)
    transform = {Mode.GLOBAL: apply_global_scale,
                 Mode.LOCAL: apply_local_scale}[mode]
    transformed = transform(expr)
    rescaled = ex.canonicalize(ex.lam(Fraction(4)) * transformed)
    difference = ex.canonicalize(rescaled - expr)
    residual = full_simplify(difference)
    texts = [dsl.render_expr(x)
             for x in (expr, transformed, rescaled, difference, residual)]
    trace = (
        TraceStep(f"apply-{mode.value}-scale", texts[0], texts[1]),
        TraceStep("rescale-by-Lam4", texts[1], texts[2]),
        TraceStep("residual", texts[3], texts[4]),
    )
    return VerificationReport(
        claim=f"invariance:{name}:{mode.value}",
        mode=mode,
        passed=not residual.terms,
        residual=texts[4],
        trace=trace,
    )
