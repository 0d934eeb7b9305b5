"""Covariantization of derivatives against the scale gauge vector S and
the decoupling checks built on it.

Each derivative of a weighted field is shifted by that field's weight,
at every level, innermost first: d_m X -> (d_m + w f S_m) X, and
d_m d_n X -> (d_m + w f S_m)(d_n X + w f S_n X).  The gauge potentials
A and W are exempt; a derivative of S, D or detg is refused.
Covariantizing the Maxwell, Yang-Mills, and Dirac densities returns them
unchanged (the mesons and the fermion do not feel S), while the scalar
picks up exactly the cross and quadratic S terms of its gauged form."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from . import densities, dsl
from . import exprs as ex
from .errors import UncoveredDerivative
from .exprs import (
    CliffordKind,
    CRat,
    Expr,
    FieldAtom,
    Partial,
    Product,
    Sum,
    canonicalize,
)
from .report import Mode, TraceStep, VerificationReport
from .simplify import full_simplify
from .tensor import contract_pairs

def _covariantize_factor(f: FieldAtom) -> Expr:
    row = f.kind.row
    if not f.derivs or row.derivative == "exempt":
        return f
    if row.derivative != "shift":
        raise UncoveredDerivative(
            f"no covariantization rule for a derivative of "
            f"{f.kind.value!r}")
    out = ex._bare(f)
    for ix in reversed(f.derivs):
        out = Sum((Partial(ix, out), Product(CRat.of(row.weight), (
            ex.coupling("f"), ex.weyl_vector(ix.label), out))))
    return out


def _covariantize_term(t: Product) -> Optional[Product]:
    if not any(f.derivs for f in t.factors):
        return None
    return Product(t.coeff, tuple(map(_covariantize_factor, t.factors)))


def gauge_covariantize(L: Union[Expr, "dsl.LagrangianDef"]) -> Sum:
    """Apply the derivative shifts across a canonical density."""
    e = L.parsed if isinstance(L, dsl.LagrangianDef) else L
    return ex.rewrite_terms(e, _covariantize_term)


def _spin_connection_term(t: Product) -> Optional[Expr]:
    """Keeps a term whose spinor chain holds a sigma; drops the others."""
    chain = ex._split_chain(t.factors)[1]
    return None if any(it.kind is CliffordKind.SIGMA for it in chain) \
        else ex.ZERO


def _kinetic_term(t: Product) -> Optional[Expr]:
    """Keeps a term whose spinor chain holds a derivative; drops the
    others."""
    chain = ex._split_chain(t.factors)[1]
    return None if any(it.derivs for it in chain) else ex.ZERO


def verify_fermion_decoupling() -> VerificationReport:
    """The Dirac density is unchanged by covariantization: the shifts
    entering through the spin-connection terms reduce, by the
    gamma-sigma contraction, to exactly minus the shift from the
    derivative of the fermion."""
    L = densities.builtin("dirac").parsed
    cov = gauge_covariantize(L)
    residual = full_simplify(cov - L)

    sig = ex.rewrite_terms(L, _spin_connection_term)
    sig_extra = contract_pairs(gauge_covariantize(sig) - sig)
    sig_reduced = full_simplify(sig_extra)

    kin = ex.rewrite_terms(L, _kinetic_term)
    kin_extra = full_simplify(gauge_covariantize(kin) - kin)

    combined = full_simplify(sig_reduced + kin_extra)
    trace = (
        TraceStep("spin-connection-shift", dsl.render_expr(sig),
                  dsl.render_expr(sig_extra)),
        TraceStep("gamma-sigma-reduction", dsl.render_expr(sig_extra),
                  dsl.render_expr(sig_reduced)),
        TraceStep("derivative-shift", dsl.render_expr(kin),
                  dsl.render_expr(kin_extra)),
        TraceStep("cancellation",
                  "(" + dsl.render_expr(sig_reduced) + ") + ("
                  + dsl.render_expr(kin_extra) + ")",
                  dsl.render_expr(combined)),
    )
    return VerificationReport(
        claim="decoupling:fermion",
        mode=Mode.DECOUPLING,
        passed=not residual.terms and not combined.terms,
        residual=dsl.render_expr(residual),
        trace=trace,
    )


def verify_gauge_decoupling() -> VerificationReport:
    """Maxwell and Yang-Mills densities are bit-identical under
    covariantization: their potentials carry weight 0 and their field
    strengths contain no other derivatives."""
    trace = []
    differences = []
    for name in ("maxwell", "yangmills"):
        L = densities.builtin(name).parsed
        cov = gauge_covariantize(L)
        differences.append(cov - L)
        trace.append(TraceStep(f"covariantize-{name}",
                               dsl.render_expr(L), dsl.render_expr(cov)))
    residual = canonicalize(Sum(tuple(differences)))
    return VerificationReport(
        claim="decoupling:gauge",
        mode=Mode.DECOUPLING,
        passed=not residual.terms,
        residual=dsl.render_expr(residual),
        trace=tuple(trace),
    )


def expected_scalar_coupling() -> Sum:
    """The S terms the paper's gauged scalar density adds, the
    symmetrized cross term and the quadratic term: the gauged builtin
    less the plain one."""
    return canonicalize(densities.builtin("scalar-gauged").parsed
                        - densities.builtin("scalar").parsed)


def verify_scalar_coupling() -> VerificationReport:
    """The scalar does couple: covariantizing its density adds exactly
    the predicted S terms, and they vanish again at f = 0."""
    L = densities.builtin("scalar").parsed
    cov = gauge_covariantize(L)
    diff = full_simplify(cov - L)
    expected = expected_scalar_coupling()
    mismatch = canonicalize(diff - expected)
    f_zero = ex.set_coupling(diff, "f", 0)
    passed = (bool(diff.terms) and not mismatch.terms
              and not f_zero.terms)
    trace = (
        TraceStep("covariantize-scalar", dsl.render_expr(L),
                  dsl.render_expr(cov)),
        TraceStep("coupling-terms", dsl.render_expr(diff),
                  dsl.render_expr(expected)),
        TraceStep("f-to-zero", dsl.render_expr(diff),
                  dsl.render_expr(f_zero)),
    )
    return VerificationReport(
        claim="decoupling:scalar",
        mode=Mode.DECOUPLING,
        passed=passed,
        residual=dsl.render_expr(mismatch),
        trace=trace,
    )


def verify_gamma_sigma() -> VerificationReport:
    """The contraction identity behind fermion decoupling: gamma^c
    sigma_cb reduces to (3/2) gamma_b."""
    lhs = Product(CRat(1), (ex.gamma("c"),
                            ex.sigma("c", "b", up1=False, up2=False)))
    rhs = Product(CRat(Fraction(3, 2)), (ex.gamma("b", up=False),))
    reduced = full_simplify(lhs)
    residual = full_simplify(lhs - rhs)
    trace = (
        TraceStep("gamma-sigma-reduction", dsl.render_expr(lhs),
                  dsl.render_expr(reduced)),
    )
    return VerificationReport(
        claim="identity:gamma-sigma",
        mode=Mode.IDENTITY,
        passed=not residual.terms,
        residual=dsl.render_expr(residual),
        trace=trace,
    )
