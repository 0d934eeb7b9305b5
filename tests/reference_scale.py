"""Two-pass reference for ``scale.check_invariance`` and whole-term
reference for the transforms.

``apply_scale`` maps each whole canonical term, coefficient and riders
included, through the transform's one rule per factor, as ``scale`` did
before it kept its work per core: every atom's weight goes into the
term's one Lam power, except that locally a weighted atom under
derivatives keeps its Lam^(power*w) inside them and S shifts by
-(power/f) D.  ``check_invariance`` is the check ``scale`` made before it
folded Lam^4 into each term's transform: the plain transform first, then
``canonicalize(lam(4) * transformed)`` as a second pass, with the five
trace texts rendered at once.  Tests compare the engine's transforms and
reports with these, field by field and text by text.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Optional

import reference_rewrite
from weylcheck import dsl
from weylcheck import exprs as ex
from weylcheck.exprs import CRat, Expr, Product, Sum
from weylcheck.report import Mode, TraceStep, VerificationReport
from weylcheck.simplify import full_simplify


def transform_term(t: Product, power: Fraction,
                   local: bool) -> Optional[Expr]:
    """One whole term rescaled, or None when it is its own image."""
    pieces: list[Expr] = []
    weight = 0
    shifted = False
    for f in t.factors:
        row = f.kind.row
        if local and not row.homogeneous:
            shift = Product(CRat.of(-power), (
                ex.coupling("f", -1), ex.log_deriv(f.indices[0].label)))
            f = ex._deriv_join(f.derivs, Sum((ex._bare(f), shift)))
            shifted = True
        elif local and f.derivs and row.weight:
            f = ex._deriv_join(f.derivs,
                               ex.lam(power * row.weight) * ex._bare(f))
            shifted = True
        else:
            weight += row.weight
        pieces.append(f)
    if not (shifted or power * weight):
        return None
    if power * weight:
        pieces.append(ex.lam(power * weight))
    return Product(t.coeff, tuple(pieces))


def apply_scale(e: Expr, power, local: bool) -> Sum:
    return reference_rewrite.rewrite_terms(e, functools.partial(
        transform_term, power=Fraction(power), local=local))


def check_invariance(L, mode: Mode) -> VerificationReport:
    if isinstance(L, dsl.LagrangianDef):
        name, expr = L.name, L.parsed
    else:
        name, expr = "expr", ex.canonicalize(L)
    transformed = apply_scale(expr, 1, mode == Mode.LOCAL)
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
