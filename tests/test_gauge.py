"""Covariantization rules and the decoupling results they imply."""

from fractions import Fraction
from pathlib import Path

import pytest

from weylcheck import densities, dsl, oracle
from weylcheck import exprs as ex
from weylcheck.errors import UncoveredDerivative
from weylcheck.gauge import (
    expected_scalar_coupling,
    gauge_covariantize,
    verify_fermion_decoupling,
    verify_gamma_sigma,
    verify_gauge_decoupling,
    verify_scalar_coupling,
)
from weylcheck.report import Mode
from weylcheck.scale import check_invariance
from weylcheck.simplify import full_simplify
from weylcheck.tensor import christoffel


def test_shift_constants_match_weights():
    """The kinds whose covariant derivative shifts, d + w f S, and the
    weight w their rows give."""
    want = {
        ex.Kind.METRIC: Fraction(2),
        ex.Kind.INV_METRIC: Fraction(-2),
        ex.Kind.TETRAD: Fraction(1),
        ex.Kind.INV_TETRAD: Fraction(-1),
        ex.Kind.SCALAR: Fraction(-1),
        ex.Kind.FERMION: Fraction(-3, 2),
        ex.Kind.FERMION_BAR: Fraction(-3, 2),
    }
    assert {kind: Fraction(kind.row.weight) for kind in ex.Kind
            if kind.row.derivative == "shift"} == want


def test_gauge_fields_pass_through_unchanged(builtins_all):
    """Field strengths are antisymmetrized derivative combinations, so
    exempting A and W keeps both densities bit-identical."""
    for name in ("maxwell", "yangmills"):
        L = builtins_all[name]
        assert gauge_covariantize(L) == ex.canonicalize(L.parsed)


def test_scalar_covariantization_reproduces_gauged_density(builtins_all):
    cov = gauge_covariantize(builtins_all["scalar"])
    assert cov == ex.canonicalize(builtins_all["scalar-gauged"].parsed)


def test_scalar_coupling_terms(builtins_all):
    L = builtins_all["scalar"]
    diff = full_simplify(gauge_covariantize(L) - L.parsed)
    assert diff == expected_scalar_coupling()
    from weylcheck.dsl import render_expr
    assert render_expr(diff) == (
        "-f * ginv[mu0,mu1] * phi * S[mu0] * d[mu1](phi)"
        " + 1/2 * f^2 * ginv[mu0,mu1] * phi^2 * S[mu0] * S[mu1]")


def test_scalar_gains_exactly_one_quadratic_term(builtins_all):
    cov = gauge_covariantize(builtins_all["scalar"])
    quads = [t for t in cov.terms
             if ex.count_atoms(t, ex.Kind.WEYL_VECTOR) == 2]
    assert len(quads) == 1
    (t,) = quads
    assert t.coeff == ex.CRat(Fraction(1, 2))
    assert any(f.kind is ex.CouplingKind.F and f.exponent == 2
               for f in t.factors)


def test_zero_coupling_is_identity_on_all_builtins(builtins_all):
    """Setting f = 0 in cov(L) - L leaves nothing, including for the
    gauged scalar whose own f-terms must survive the subtraction."""
    for name, L in builtins_all.items():
        diff = full_simplify(gauge_covariantize(L) - L.parsed)
        gone = ex.set_coupling(diff, "f", 0)
        assert gone == ex.Sum(()), name


def test_dirac_covariantization_cancels_in_value(builtins_all):
    L = builtins_all["dirac"]
    assert full_simplify(gauge_covariantize(L) - L.parsed) == ex.Sum(())
    # hence covariantizing twice is still the original in value
    twice = gauge_covariantize(gauge_covariantize(L))
    assert full_simplify(twice - L.parsed) == ex.Sum(())


@pytest.mark.parametrize("name", ["maxwell", "yangmills", "dirac",
                                  "scalar"])
def test_covariantized_densities_are_locally_invariant(builtins_all, name):
    cov = gauge_covariantize(builtins_all[name])
    assert check_invariance(cov, Mode.LOCAL).passed, name


def test_ungauged_scalar_fails_local_check(builtins_all):
    assert not check_invariance(builtins_all["scalar"], Mode.LOCAL).passed


def test_uncovered_derivative_weyl_vector():
    e = ex.inv_metric("m", "n") * ex.d("m", ex.weyl_vector("n"))
    with pytest.raises(UncoveredDerivative):
        gauge_covariantize(e)


def test_uncovered_derivative_det_factor():
    e = ex.d("m", ex.det_factor()) * ex.em_vector("n") \
        * ex.inv_metric("m", "n")
    with pytest.raises(UncoveredDerivative):
        gauge_covariantize(e)


def test_uncovered_derivative_log_derivative():
    e = ex.inv_metric("m", "n") * ex.d("m", ex.log_deriv("n"))
    with pytest.raises(UncoveredDerivative):
        gauge_covariantize(e)


def test_nested_derivative_shifts_level_by_level():
    """(d_m - f S_m)(d_n phi - f S_n phi): the inner level is shifted
    first, and the outer shift acts on the whole inner covariant
    derivative."""
    phi, f, s_ = ex.scalar_field(), ex.coupling("f"), ex.weyl_vector
    inner = ex.d("n", phi) - f * s_("n") * phi
    want = ex.inv_metric("m", "n") * (ex.d("m", inner) - f * s_("m") * inner)
    got = gauge_covariantize(
        ex.inv_metric("m", "n") * ex.d("m", ex.d("n", phi)))
    assert got == ex.canonicalize(want)


def _ricci_density():
    """phi^2 ginv^{mn} R_mn, with R_mn = d_r G^r_mn - d_n G^r_mr
    + G^r_rs G^s_mn - G^r_ns G^s_mr built from the Christoffel symbols."""
    def gam(r, m, n):
        return christoffel(r, m, n).expansion

    ricci = (ex.d("r", gam("r", "m", "n")) - ex.d("n", gam("r", "m", "r"))
             + gam("r", "r", "s") * gam("s", "m", "n")
             - gam("r", "n", "s") * gam("s", "m", "r"))
    return ex.canonicalize(ex.scalar_field() ** 2 * ex.inv_metric("m", "n")
                           * ricci)


@pytest.mark.hashseed
def test_curvature_density_is_only_globally_invariant():
    L = _ricci_density()
    assert len(L.terms) == 9
    assert check_invariance(L, Mode.GLOBAL).passed
    assert not check_invariance(L, Mode.LOCAL).passed


@pytest.mark.hashseed
def test_curvature_density_covariantized_is_locally_invariant():
    cov = gauge_covariantize(_ricci_density())
    assert len(cov.terms) == 25
    assert check_invariance(cov, Mode.LOCAL).passed


_WEYL_GRAVITY = (Path(__file__).resolve().parent.parent / "examples"
                 / "weyl-gravity.wl")


@pytest.mark.hashseed
def test_weyl_gravity_example_is_only_globally_invariant():
    """phi^2 R beside the scalar's kinetic term, every Christoffel symbol
    written out with one dummy name: 10 terms, invariant under a
    constant rescaling only."""
    L = dsl.parse(_WEYL_GRAVITY.read_text())
    assert len(L.parsed.terms) == 10
    assert check_invariance(L, Mode.GLOBAL).passed
    assert not check_invariance(L, Mode.LOCAL).passed


@pytest.mark.hashseed
def test_weyl_gravity_example_covariantized_is_locally_invariant():
    cov = gauge_covariantize(dsl.parse(_WEYL_GRAVITY.read_text()))
    assert len(cov.terms) == 28
    assert check_invariance(cov, Mode.LOCAL).passed


@pytest.mark.hashseed
def test_weyl_gravity_example_holds_the_built_curvature_density():
    """Less the kinetic term, the example is the 9 terms of phi^2 R built
    from ``tensor.christoffel``."""
    L = dsl.parse(_WEYL_GRAVITY.read_text())
    kinetic = dsl.parse("indices spacetime m n ;\nfields ginv phi ;\n"
                        "name t ;\ndensity 1/2 * ginv[m,n] * d[m](phi)"
                        " * d[n](phi) ;")
    curvature = ex.canonicalize(L.parsed - kinetic.parsed)
    assert len(curvature.terms) == 9
    assert ex.equal(curvature, _ricci_density())


@pytest.mark.hashseed
def test_curvature_coupling_to_s_agrees_with_the_oracle():
    """Covariantizing phi^2 R adds -6 f phi^2 (nabla_m S^m + f S_m S^m).
    Compared numerically: ``full_simplify`` does not yet bring the
    d(ginv) and d(g) forms of the difference together."""
    L = _ricci_density()
    f, phi, s_, ginv = (ex.coupling("f"), ex.scalar_field(),
                        ex.weyl_vector, ex.inv_metric)
    divergence = ex.d("m", s_("n")) \
        - christoffel("r", "m", "n").expansion * s_("r")
    expected = (-6 * f * phi ** 2 * ginv("m", "n") * divergence
                - 6 * ex.coupling("f", 2) * phi ** 2 * ginv("m", "n")
                * s_("m") * s_("n"))
    check = oracle._pair("curvature", gauge_covariantize(L) - L, expected)
    block = oracle._Block(oracle.Assignment((0, k)) for k in range(20))
    assert check.fn(block).max() < oracle.TOL_FIELD


def test_fermion_decoupling_report():
    r = verify_fermion_decoupling()
    assert r.passed
    assert r.claim == "decoupling:fermion"
    assert r.mode == Mode.DECOUPLING
    assert r.residual == "0"


def test_fermion_decoupling_trace_exhibits_cancellation():
    """The two intermediate forms carry opposite 3/2 coefficients: the
    spin-connection shift against the derivative shift."""
    r = verify_fermion_decoupling()
    steps = {s.rule: s for s in r.trace}
    assert list(steps) == ["spin-connection-shift", "gamma-sigma-reduction",
                           "derivative-shift", "cancellation"]
    assert steps["spin-connection-shift"].after == (
        "-i * f * epsinv[fa0,mu0] * S[mu0] * Psibar * gamma[fa1]"
        " * sigma[fa0,-fa1] * Psi")
    assert steps["gamma-sigma-reduction"].after == (
        "3/2 * i * f * epsinv[fa0,mu0] * S[mu0] * Psibar * gamma[fa0]"
        " * Psi")
    assert steps["derivative-shift"].after == (
        "-3/2 * i * f * epsinv[fa0,mu0] * S[mu0] * Psibar * gamma[fa0]"
        " * Psi")
    assert steps["cancellation"].after == "0"


def test_gauge_decoupling_report():
    r = verify_gauge_decoupling()
    assert r.passed
    assert r.claim == "decoupling:gauge"
    rules = [s.rule for s in r.trace]
    assert "covariantize-maxwell" in rules
    assert "covariantize-yangmills" in rules


def test_scalar_coupling_report():
    r = verify_scalar_coupling()
    assert r.passed
    assert r.claim == "decoupling:scalar"
    assert r.residual == "0"
    rules = [s.rule for s in r.trace]
    assert rules == ["covariantize-scalar", "coupling-terms", "f-to-zero"]


def test_gamma_sigma_identity_report():
    r = verify_gamma_sigma()
    assert r.passed
    assert r.claim == "identity:gamma-sigma"
    assert r.mode == Mode.IDENTITY
    (step,) = [s for s in r.trace if s.rule == "gamma-sigma-reduction"]
    assert step.before == "-gamma[fa0] * sigma[-b,-fa0]"
    assert step.after == "3/2 * gamma[-b]"


def test_covariantize_accepts_raw_expr():
    e = ex.inv_metric("m", "n") * ex.d("m", ex.scalar_field()) \
        * ex.d("n", ex.scalar_field())
    cov = gauge_covariantize(e)
    assert ex.count_atoms(cov, ex.Kind.WEYL_VECTOR) > 0
    assert ex.set_coupling(full_simplify(cov - e), "f", 0) == ex.Sum(())
