"""Weight inference and global/local scale transformations.

One rule per factor: the weights of the atoms a transform leaves in
place go into one Lam power per term.  A local transformation shifts
the rest: a weighted atom under derivatives keeps its Lam^(power*w)
inside them, so flattening's chain rule emits D (the gradient of ln
Lam), and the gauge vector S shifts by -(power/f) D.  A density is
invariant when Lam^4 times its transform equals the original.

A term is c * r * X: a coefficient, its riders (the scalars and the
index-free atoms, ``exprs._split_riders``) and its indexed core X.  The
riders have no derivatives, so a transform only weighs them:
T(r X) = Lam^(power w_r) r T(X), w_r being their weight.  The shifts are
a term map that reads no rider (``_shift_map``), applied by
``rewrite_terms`` once per core.  A check is one pass over the terms
(``_residual``) that adds c r (Lam^k S - F) per term, k being 4 plus
the term's unshifted weight, F the core X fully simplified and S its
shifts fully simplified (F globally).  ``full_simplify`` is a term map,
so S and F are images that ``rewrite_terms`` keeps per core, the shifts
shared with ``apply_local_scale``; the canonical terms of Lam^k S - F
are kept in ``_RESIDUALS`` (an ``exprs._Memo``, emptied with every other
memo), keyed by the core, the mode, k and ``SPACETIME_DIM``, which
``full_simplify`` reads.  Globally a term of weight -4 (k = 0) adds
nothing and is not simplified at all.  The canonical form and
``full_simplify`` are linear and read no rider, so this is the fully
simplified residual of the density."""

from __future__ import annotations

import functools
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from . import dsl
from . import exprs as ex
from .exprs import CRat, Expr, Kind, Product, Sum, canonicalize
from .report import Mode, TraceStep, VerificationReport
from .simplify import full_simplify


class WeylWeight(NamedTuple):
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


def _unshifted_weight(factors, local: bool):
    """The weight of the atoms a transform leaves in place, the term's
    one Lam power per unit of power: every atom globally; locally those
    without derivatives (S, which shifts, has weight 0)."""
    return sum(f.kind.row.weight for f in factors if not (local and f.derivs))


def _shift_term(t: Product, power: Fraction) -> Optional[Expr]:
    """The local shifts of one term, one rule per factor: a weighted atom
    under derivatives keeps its Lam^(power*w) inside them, and S shifts by
    -(power/f) D.  None when nothing shifts.  A rider has no derivatives
    and weight only, so it is never shifted."""
    pieces: list[Expr] = []
    shifted = False
    for f in t.factors:
        row = f.kind.row
        if not row.homogeneous:
            shift = Product(CRat.of(-power), (
                ex.coupling("f", -1), ex.log_deriv(f.indices[0].label)))
            f = ex._deriv_join(f.derivs, Sum((ex._bare(f), shift)))
            shifted = True
        elif f.derivs and row.weight:
            f = ex._deriv_join(f.derivs,
                               ex.lam(power * row.weight) * ex._bare(f))
            shifted = True
        pieces.append(f)
    return Product(t.coeff, tuple(pieces)) if shifted else None


def _new_shift_map(power: Fraction):
    """The term map of the local shifts at one power."""
    return functools.partial(_shift_term, power=power)


# power -> its term map, one object per power, so ``rewrite_terms`` finds
# the images it mapped before: ``exprs._IMAGES``, which these objects
# key, is emptied with this memo
_SHIFT_MAPS = ex._Memo(_new_shift_map)
_shift_map = _SHIFT_MAPS.__getitem__


def _apply_scale(e: Expr, power, local: bool) -> Sum:
    """Each term times Lam^(power * its unshifted weight), then, locally,
    shifted."""
    power = Fraction(power)
    weighed = []
    for t in canonicalize(e).terms:
        k = power * _unshifted_weight(t.factors, local)
        weighed.append(Product(t.coeff, ex._with_riders(
            (ex.lam(k),), t.factors)) if k else t)
    out = canonicalize(Sum((ex._marked(weighed),)))
    return ex.rewrite_terms(out, _shift_map(power)) if local else out


def apply_global_scale(e: Expr, power=1) -> Sum:
    """Rescale by a constant Lam: one Lam^(power * weight) per term;
    derivatives pass through and S is untouched."""
    return _apply_scale(e, power, local=False)


def apply_local_scale(e: Expr, power=1) -> Sum:
    """Rescale by a spacetime-dependent Lam: a weighted atom under
    derivatives keeps Lam^(power * w) inside them, S shifts by
    -(power/f) D and the other atoms share one Lam power per term."""
    return _apply_scale(e, power, local=True)


def _core_residual(key: tuple) -> tuple:
    """The canonical terms of Lam^k S - F of (core, local, k, dim): F the
    core fully simplified and S its local shifts fully simplified, or F
    globally.  The core, of a canonical term, is canonical: it is handed
    on as a marked Sum."""
    core, local, k, dim = key
    x = ex._marked((Product(ex._UNIT, core),))
    plain = full_simplify(x)
    shifted = full_simplify(ex.rewrite_terms(
        x, _shift_map(Fraction(1)))) if local else plain
    lam = (ex.lam(k),) if k else ()
    return canonicalize(Sum((ex._marked(
        [Product(u.coeff, ex._with_riders(lam, u.factors))
         for u in shifted.terms]
        + [Product(-u.coeff, u.factors) for u in plain.terms]),))).terms


# (core, local, k, dim) -> the canonical terms of Lam^k S - F, dim being
# ``SPACETIME_DIM``, which ``full_simplify`` reads
_RESIDUALS = ex._Memo(_core_residual)


def _residual(expr: Sum, local: bool) -> Sum:
    """Lam^4 T(expr) - expr, fully simplified, in one pass: each term
    c r X adds c r (Lam^k S - F), k being 4 plus the term's unshifted
    weight.  Globally nothing shifts, so a term of weight -4 is skipped
    unsplit."""
    dim, out = ex.SPACETIME_DIM, []
    for t in expr.terms:
        k = 4 + _unshifted_weight(t.factors, local)
        if not (k or local):
            continue
        riders, core = ex._split_riders(t.factors)
        out += [Product(ex._times(t.coeff, u.coeff),
                        ex._with_riders(riders, u.factors))
                for u in _RESIDUALS[core, local, k, dim]]
    return canonicalize(Sum((ex._marked(out),))) if out else ex._marked(())


def check_invariance(L, mode: Mode) -> VerificationReport:
    """Residual of Lam^4 * transform(L) - L, fully simplified, in one
    pass (``_residual``).  Passes iff the residual is exactly zero.  The
    residual and the trace are rendered on first read, with the
    transform, its rescaling by Lam^4 and the difference the trace
    shows."""
    if isinstance(L, dsl.LagrangianDef):
        name, expr = L.name, L.parsed
    else:
        name, expr = "expr", canonicalize(L)
    if mode not in (Mode.GLOBAL, Mode.LOCAL):
        raise ValueError(f"check_invariance expects Global or Local, "
                         f"got {mode}")
    local = mode == Mode.LOCAL
    residual = _residual(expr, local)

    def render():
        transformed = _apply_scale(expr, 1, local)
        # Lam^4 only moves each term's Lam power: its other factors are
        # canonical already, so no term is searched again
        rescaled = canonicalize(ex.lam(4) * transformed)
        difference = canonicalize(rescaled - expr)
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
