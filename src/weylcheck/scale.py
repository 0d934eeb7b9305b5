"""Weight inference and global/local scale transformations.

One rule per factor: the weights of a term's atoms go into one Lam
power per term.  A local transformation does two things more: a
weighted atom under derivatives keeps its Lam^(power*w) inside them, so
flattening's chain rule emits D (the gradient of ln Lam), and the gauge
vector S shifts by -(power/f) D.  A density is invariant when Lam^4
times its transform equals the original."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from . import dsl
from . import exprs as ex
from .exprs import CRat, Expr, Kind, Product, Sum, canonicalize
from .report import Mode, TraceStep, VerificationReport
from .simplify import full_simplify


@dataclass(frozen=True)
class WeylWeight:
    value: Fraction
    homogeneous: bool = True


class SpecialWeight(Enum):
    MIXED = "mixed"
    INHOMOGENEOUS = "inhomogeneous"


MIXED = SpecialWeight.MIXED
INHOMOGENEOUS = SpecialWeight.INHOMOGENEOUS


def default_weight_table() -> dict[Kind, WeylWeight]:
    """The Weyl weight of every field kind, as its row states it."""
    return {kind: WeylWeight(Fraction(kind.row.weight), kind.row.homogeneous)
            for kind in Kind}


def infer_weight(e: Expr, strict: bool = False
                 ) -> Union[WeylWeight, SpecialWeight]:
    """Weight of a canonical expression: per-term sum of atom weights,
    the common value across terms.  Returns MIXED when terms disagree
    and, under strict, INHOMOGENEOUS when any S atom is present."""
    s = canonicalize(e)
    if not s.terms:
        return WeylWeight(Fraction(0))
    values = []
    homogeneous = True
    for t in s.terms:
        total = Fraction(0)
        for f in t.factors:
            row = f.kind.row
            total += row.weight
            homogeneous = homogeneous and row.homogeneous
        values.append(total)
    if strict and not homogeneous:
        return INHOMOGENEOUS
    if any(v != values[0] for v in values[1:]):
        return MIXED
    return WeylWeight(values[0], homogeneous)


def _transform_term(t: Product, power: Fraction, local: bool) -> Expr:
    """One term rescaled, one rule per factor: every atom's weight goes
    into the term's one Lam power.  Locally, a weighted atom under
    derivatives keeps its Lam^(power*w) inside them instead, and S
    shifts by -(power/f) D."""
    pieces: list[Expr] = []
    weight = 0
    for f in t.factors:
        row = f.kind.row
        if local and not row.homogeneous:
            shift = Product(CRat.of(-power), (
                ex.coupling("f", -1), ex.log_deriv(f.indices[0].label)))
            f = ex._deriv_join(f.derivs, Sum((ex._bare(f), shift)))
        elif local and f.derivs and row.weight:
            f = ex._deriv_join(f.derivs,
                               ex.lam(power * row.weight) * ex._bare(f))
        else:
            weight += row.weight
        pieces.append(f)
    if weight:
        pieces.append(ex.lam(power * weight))
    return Product(t.coeff, tuple(pieces))


def _apply_scale(e: Expr, power, local: bool) -> Sum:
    power = Fraction(power)
    return ex.rewrite_terms(e, lambda t: _transform_term(t, power, local))


def apply_global_scale(e: Expr, power=1) -> Sum:
    """Rescale by a constant Lam: one Lam^(power * weight) per term;
    derivatives pass through and S is untouched."""
    return _apply_scale(e, power, local=False)


def apply_local_scale(e: Expr, power=1) -> Sum:
    """Rescale by a spacetime-dependent Lam: a weighted atom under
    derivatives keeps Lam^(power * w) inside them, S shifts by
    -(power/f) D and the other atoms share one Lam power per term."""
    return _apply_scale(e, power, local=True)


def check_invariance(L, mode: Mode) -> VerificationReport:
    """Residual of Lam^4 * transform(L) - L, fully simplified.  Passes
    iff the residual is exactly zero."""
    if isinstance(L, dsl.LagrangianDef):
        name, expr = L.name, L.parsed
    else:
        name, expr = "expr", canonicalize(L)
    if mode == Mode.GLOBAL:
        transformed = apply_global_scale(expr)
    elif mode == Mode.LOCAL:
        transformed = apply_local_scale(expr)
    else:
        raise ValueError(f"check_invariance expects Global or Local, "
                         f"got {mode}")
    rescaled = canonicalize(ex.lam(Fraction(4)) * transformed)
    difference = canonicalize(rescaled - expr)
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


def drop_log_derivative(e) -> Sum:
    """Set D_mu to zero: the constant-Lambda limit of a local transform.
    A term holding D, bare or under derivatives, vanishes."""

    def drop(t: Product) -> Optional[Expr]:
        if any(f.kind is Kind.LOG_DERIV for f in t.factors):
            return ex.ZERO
        return None

    return ex.rewrite_terms(e, drop)
