"""Gamma-matrix algebra: anticommutators, sigma expansion, and the
contraction identity behind the spin-connection reduction."""

from fractions import Fraction

import pytest

from weylcheck import exprs as ex
from weylcheck.clifford import expand_sigma, gamma_canonicalize
from weylcheck.exprs import CRat, Product
from weylcheck.simplify import full_simplify
from weylcheck.tensor import contract_pairs


def _chain(coeff, *items):
    return Product(coeff, items)


BAR, PSI = ex.fermion_bar(), ex.fermion()


def test_anticommutator():
    # gamma^a gamma^b + gamma^b gamma^a = 2 eta^{ab}
    lhs = _chain(CRat(1), BAR, ex.gamma("a"), ex.gamma("b"), PSI) \
        + _chain(CRat(1), BAR, ex.gamma("b"), ex.gamma("a"), PSI)
    rhs = Product(CRat(2), (ex.minkowski_up("a", "b"), BAR,
                            ex.identity_spinor(), PSI))
    assert full_simplify(lhs - rhs) == ex.Sum(())


def test_contracted_gamma_pair_gives_dimension():
    # gamma^a gamma_a = d
    e = _chain(CRat(1), BAR, ex.gamma("a"), ex.gamma("a", up=False), PSI)
    got = gamma_canonicalize(e)
    want = _chain(CRat(ex.SPACETIME_DIM), BAR, ex.identity_spinor(), PSI)
    assert got == ex.canonicalize(want)


def test_separated_contracted_pair():
    # gamma^a gamma^b gamma_a = (2 - d) gamma^b
    e = _chain(CRat(1), BAR, ex.gamma("a"), ex.gamma("b"),
               ex.gamma("a", up=False), PSI)
    got = full_simplify(e)
    want = _chain(CRat(2 - ex.SPACETIME_DIM), BAR, ex.gamma("b"), PSI)
    assert got == full_simplify(want)


def test_sigma_expansion():
    # sigma^{ab} = (gamma^a gamma^b - gamma^b gamma^a) / 4
    e = _chain(CRat(1), BAR, ex.sigma("a", "b"), PSI)
    quarter = CRat(Fraction(1, 4))
    want = _chain(quarter, BAR, ex.gamma("a"), ex.gamma("b"), PSI) \
        + _chain(-quarter, BAR, ex.gamma("b"), ex.gamma("a"), PSI)
    assert expand_sigma(e) == ex.canonicalize(want)


def test_sigma_expansion_leaves_plain_chains(builtins_all):
    L = builtins_all["dirac"].parsed
    # dirac carries sigmas, so expansion must change it but keep value
    expanded = expand_sigma(L)
    assert expanded != ex.canonicalize(L)
    assert full_simplify(expanded - L) == ex.Sum(())


def test_five_free_gammas_stay_as_written_and_four_are_sorted():
    """Five distinct free gammas out of label order are left as written;
    four are bubble-sorted by label.  The oracle finds both results
    equal to their input."""
    from weylcheck import oracle
    labels = ("e", "d", "c", "b", "a")
    five = _chain(CRat(1), BAR, *map(ex.gamma, labels), PSI)
    four = _chain(CRat(1), BAR, *map(ex.gamma, labels[1:]), PSI)
    kept, ordered = gamma_canonicalize(five), gamma_canonicalize(four)
    assert kept == ex.canonicalize(five) and len(kept.terms) == 1
    assert len(ordered.terms) == 10
    a = oracle.Assignment((0, 0))
    for e, got in ((five, kept), (four, ordered)):
        want, free, state = oracle.evaluate_components(e, a)
        have, free_got, state_got = oracle.evaluate_components(got, a)
        assert (free_got, state_got) == (free, state)
        assert oracle.relative_deviation(have, want) < 1e-12


def test_gamma_canonicalize_idempotent():
    e = _chain(CRat(1), BAR, ex.gamma("a"), ex.sigma("a", "b", up1=False),
               PSI)
    once = gamma_canonicalize(e)
    assert gamma_canonicalize(once) == once


def test_gamma_sigma_contraction_coefficient():
    # gamma^c sigma_{cb} = ((d-1)/2) gamma_b in d dimensions
    e = _chain(CRat(1), BAR, ex.gamma("c"),
               ex.sigma("c", "b", up1=False, up2=False), PSI)
    got = full_simplify(e)
    coeff = CRat(Fraction(ex.SPACETIME_DIM - 1, 2))
    want = _chain(coeff, BAR, ex.gamma("b", up=False), PSI)
    assert got == full_simplify(want)


@pytest.mark.parametrize("dim", [7, 11])
def test_gamma_sigma_coefficient_tracks_dimension(monkeypatch, dim):
    """The reduction coefficient is (d-1)/2, not a frozen 3/2: probing
    other dimensions exercises the algebra rather than a constant."""
    monkeypatch.setattr(ex, "SPACETIME_DIM", dim)
    e = _chain(CRat(1), BAR, ex.gamma("c"),
               ex.sigma("c", "b", up1=False, up2=False), PSI)
    coeff = CRat(Fraction(dim - 1, 2))
    want = _chain(coeff, BAR, ex.gamma("b", up=False), PSI)
    assert full_simplify(e - want) == ex.Sum(())


@pytest.mark.parametrize("dim", [7, 11])
def test_contracted_pair_tracks_dimension(monkeypatch, dim):
    monkeypatch.setattr(ex, "SPACETIME_DIM", dim)
    e = _chain(CRat(1), BAR, ex.gamma("a"), ex.gamma("a", up=False), PSI)
    want = _chain(CRat(dim), BAR, ex.identity_spinor(), PSI)
    assert gamma_canonicalize(e) == ex.canonicalize(want)


def test_free_gammas_get_ordered():
    # gamma^b gamma^a rewrites to 2 eta^{ab} - gamma^a gamma^b
    e = _chain(CRat(1), BAR, ex.gamma("b"), ex.gamma("a"), PSI)
    got = gamma_canonicalize(e)
    direct = _chain(CRat(1), BAR, ex.gamma("a"), ex.gamma("b"), PSI)
    eta = Product(CRat(2), (ex.minkowski_up("a", "b"), BAR,
                            ex.identity_spinor(), PSI))
    assert got == ex.canonicalize(eta - direct)


def test_five_free_gammas_stay_as_written():
    # ordering stops at five distinct free gammas; four are sorted
    five = _chain(CRat(1), BAR, *map(ex.gamma, "edcba"), PSI)
    assert gamma_canonicalize(five).terms == (five,)
    got = gamma_canonicalize(_chain(CRat(1), BAR, *map(ex.gamma, "dcba"),
                                    PSI))
    longest = [t for t in got.terms if len(t.factors) == 6]
    assert longest == [_chain(CRat(1), BAR, *map(ex.gamma, "abcd"), PSI)]


def test_pure_matrix_chain_supported():
    # chains without spinor endpoints reduce the same way
    e = Product(CRat(1), (ex.gamma("a"), ex.gamma("a", up=False)))
    got = gamma_canonicalize(e)
    want = Product(CRat(ex.SPACETIME_DIM), (ex.identity_spinor(),))
    assert got == ex.canonicalize(want)


def test_absorbed_eta_then_reduction():
    # eta_{cb} gamma^b hits a contracted pair after absorption
    e = Product(CRat(1), (ex.minkowski("c", "b"), BAR, ex.gamma("c"),
                          ex.gamma("b"), PSI))
    got = full_simplify(e)
    want = _chain(CRat(ex.SPACETIME_DIM), BAR, ex.identity_spinor(), PSI)
    assert got == full_simplify(want)
