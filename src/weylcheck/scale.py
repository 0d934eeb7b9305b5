"""Weight inference and global/local scale transformations.

One rule per factor: the weights of a term's atoms go into one Lam
power per term.  A local transformation does two things more: a
weighted atom under derivatives keeps its Lam^(power*w) inside them, so
flattening's chain rule emits D (the gradient of ln Lam), and the gauge
vector S shifts by -(power/f) D.  A density is invariant when Lam^4
times its transform equals the original.

The transform, the contraction and the gamma reduction are term maps,
and the canonical form is linear, so the fully simplified residual of a
density is the sum of its terms' own.  A check is therefore one
``rewrite_terms`` pass of one residual map per mode, which keeps each
skeleton's simplified residual: a term met again is looked up."""

from __future__ import annotations

import functools
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


def _transform_term(t: Product, power: Fraction, local: bool,
                    lam_power=0) -> Optional[Expr]:
    """One term rescaled and times Lam^lam_power, one rule per factor:
    every atom's weight goes into the term's one Lam power.  Locally, a
    weighted atom under derivatives keeps its Lam^(power*w) inside them
    instead, and S shifts by -(power/f) D.  None when nothing shifts and
    the Lam power comes to 0: the term is its own image."""
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
    lam_power += power * weight
    if not (shifted or lam_power):
        return None
    if lam_power:
        pieces.append(ex.lam(lam_power))
    return Product(t.coeff, tuple(pieces))


@functools.cache
def _scale_map(power: Fraction, local: bool, lam_power):
    """The term map of one transform, one object per parameter set, so
    ``rewrite_terms`` finds the images it mapped before."""
    return functools.partial(_transform_term, power=power, local=local,
                             lam_power=lam_power)


def _apply_scale(e: Expr, power, local: bool, lam_power=0) -> Sum:
    return ex.rewrite_terms(e, _scale_map(Fraction(power), local, lam_power))


def apply_global_scale(e: Expr, power=1) -> Sum:
    """Rescale by a constant Lam: one Lam^(power * weight) per term;
    derivatives pass through and S is untouched."""
    return _apply_scale(e, power, local=False)


def apply_local_scale(e: Expr, power=1) -> Sum:
    """Rescale by a spacetime-dependent Lam: a weighted atom under
    derivatives keeps Lam^(power * w) inside them, S shifts by
    -(power/f) D and the other atoms share one Lam power per term."""
    return _apply_scale(e, power, local=True)


def _residual_term(t: Product, local: bool) -> Sum:
    """One skeleton's residual: Lam^4 * transform(t) - t, fully
    simplified."""
    return full_simplify(_apply_scale(t, 1, local, lam_power=4) - t)


@functools.cache
def _residual_map(local: bool):
    """The term map of a check's residual, one object per mode, so that
    ``rewrite_terms`` keeps each skeleton's simplified residual."""
    return functools.partial(_residual_term, local=local)


def check_invariance(L, mode: Mode) -> VerificationReport:
    """Residual of Lam^4 * transform(L) - L, fully simplified, in one
    residual pass.  Passes iff the residual is exactly zero.  The
    residual and the trace are rendered on first read, with the
    transform (Lam^4 joining each term's Lam power) and the difference
    the trace shows."""
    if isinstance(L, dsl.LagrangianDef):
        name, expr = L.name, L.parsed
    else:
        name, expr = "expr", canonicalize(L)
    if mode not in (Mode.GLOBAL, Mode.LOCAL):
        raise ValueError(f"check_invariance expects Global or Local, "
                         f"got {mode}")
    local = mode == Mode.LOCAL
    residual = ex.rewrite_terms(expr, _residual_map(local))

    def render():
        rescaled = _apply_scale(expr, 1, local, lam_power=4)
        difference = canonicalize(rescaled - expr)
        # Lam^-4 only moves each term's Lam power back: its other
        # factors are canonical already, so no term is searched again
        transformed = canonicalize(ex.lam(-4) * rescaled)
        texts = [dsl.render_expr(x) for x in (
            expr, transformed, rescaled, difference, residual)]
        return texts[4], (
            TraceStep(f"apply-{mode.value}-scale", texts[0], texts[1]),
            TraceStep("rescale-by-Lam4", texts[1], texts[2]),
            TraceStep("residual", texts[3], texts[4]),
        )

    return VerificationReport.deferred(
        render,
        claim=f"invariance:{name}:{mode.value}",
        mode=mode,
        passed=not residual.terms,
    )


def _drop_log_derivative_term(t: Product) -> Optional[Expr]:
    if any(f.kind is Kind.LOG_DERIV for f in t.factors):
        return ex.ZERO
    return None


def drop_log_derivative(e) -> Sum:
    """Set D_mu to zero: the constant-Lambda limit of a local transform.
    A term holding D, bare or under derivatives, vanishes."""
    return ex.rewrite_terms(e, _drop_log_derivative_term)
