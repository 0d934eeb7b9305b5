"""Contraction rule set and the metric connection expansion."""

import pytest

from weylcheck import exprs as ex
from weylcheck.exprs import CRat, Product
from weylcheck.oracle import TOL_FIELD, Assignment, evaluate
from weylcheck.tensor import christoffel, contract_pairs


def _one(e):
    s = contract_pairs(e)
    assert len(s.terms) == 1
    return s.terms[0]


def test_delta_trace_gives_dimension():
    e = ex.delta("m", "m")
    t = _one(e)
    assert t.coeff == CRat(ex.SPACETIME_DIM)
    assert t.factors == ()


def test_delta_relabels_either_slot():
    # contracting through the upper slot
    e = ex.delta("m", "n") * ex.em_vector("m")
    assert contract_pairs(e) == ex.canonicalize(ex.em_vector("n"))
    # and through the lower slot
    e2 = ex.delta("m", "n") * ex.weyl_vector("z") * ex.inv_metric("n", "z")
    want = ex.weyl_vector("z") * ex.inv_metric("m", "z")
    assert contract_pairs(e2) == contract_pairs(want)


def test_metric_times_inverse():
    e = ex.inv_metric("m", "n") * ex.metric("n", "z")
    got = contract_pairs(e * ex.em_vector("m"))
    assert got == ex.canonicalize(ex.em_vector("z"))
    # full double contraction counts dimensions
    full = contract_pairs(ex.inv_metric("m", "n") * ex.metric("m", "n"))
    assert full.terms[0].coeff == CRat(ex.SPACETIME_DIM)


def test_frame_metric_times_inverse():
    e = ex.minkowski_up("a", "b") * ex.minkowski("b", "c") \
        * ex.ym_vector("c", "z0")
    # eta^{ab} eta_{bc} W^c = W^a relabeled
    got = contract_pairs(e)
    want = ex.canonicalize(ex.ym_vector("a", "z0"))
    assert got == want


def test_tetrad_completeness_frame_contraction():
    e = ex.tetrad("a", "m") * ex.inv_tetrad("a", "n") * ex.em_vector("n")
    assert contract_pairs(e) == ex.canonicalize(ex.em_vector("m"))


def test_tetrad_completeness_spacetime_contraction():
    # eps^a_m epsinv_b^m = delta^a_b, so the full trace counts dimensions
    e = ex.tetrad("a", "m") * ex.inv_tetrad("a", "m")
    t = _one(e)
    assert t.coeff == CRat(ex.SPACETIME_DIM)
    assert t.factors == ()


def test_tetrad_completeness_keeps_open_frame_labels():
    e = ex.tetrad("a", "m") * ex.inv_tetrad("b", "m") \
        * ex.minkowski_up("b", "c") * ex.minkowski("c", "z")
    want = ex.delta("a", "z", ex.Alphabet.FRAME)
    assert contract_pairs(e) == contract_pairs(want)


def test_eta_closes_two_tetrads():
    e = ex.minkowski("a", "b") * ex.tetrad("a", "m") * ex.tetrad("b", "n")
    assert contract_pairs(e) == ex.canonicalize(ex.metric("m", "n"))


def test_eta_up_closes_two_inverse_tetrads():
    e = ex.minkowski_up("a", "b") * ex.inv_tetrad("a", "m") \
        * ex.inv_tetrad("b", "n")
    assert contract_pairs(e) == ex.canonicalize(ex.inv_metric("m", "n"))


def test_inv_metric_tetrad_reroutes_through_frame():
    # ginv^{mn} eps^a_n = eta^{ab} epsinv_b^m
    e = ex.inv_metric("m", "n") * ex.tetrad("a", "n")
    want = ex.minkowski_up("a", "b") * ex.inv_tetrad("b", "m")
    assert contract_pairs(e) == contract_pairs(want)


def test_metric_inv_tetrad_reroutes_through_frame():
    e = ex.metric("m", "n") * ex.inv_tetrad("a", "n")
    want = ex.minkowski("a", "b") * ex.tetrad("b", "m")
    assert contract_pairs(e) == contract_pairs(want)


def test_contraction_scans_only_the_atoms_it_can_join(monkeypatch):
    """Rules 2 and 4 pick the atoms of their kinds before pairing them,
    so the kind hashes over a term stay linear in its atoms, not
    quadratic."""
    calls = [0]
    kind_hash = ex.Kind.__hash__

    def counting(self):
        calls[0] += 1
        return kind_hash(self)

    monkeypatch.setattr(ex.Kind, "__hash__", counting)
    counts = []
    for size in (100, 200):
        ex._forget()
        e = ex.scalar_field() ** size * ex.em_vector("m") \
            * ex.weyl_vector("n") * ex.inv_metric("m", "n")
        calls[0] = 0
        assert len(contract_pairs(e).terms) == 1
        counts.append(calls[0])
    assert counts[1] < 2.5 * counts[0], counts
    assert counts[1] < 40 * 200, counts


def test_eta_absorbs_into_clifford_slot():
    bar, psi = ex.fermion_bar(), ex.fermion()
    e = Product(CRat(1), (ex.minkowski("a", "b"), bar, ex.gamma("a"), psi))
    want = Product(CRat(1), (bar, ex.gamma("b", up=False), psi))
    assert contract_pairs(e) == ex.canonicalize(want)


def test_eta_absorption_can_vanish_on_sigma():
    """Lowering one sigma slot onto the other's label kills the term.
    eta_ab sigma^ab is already zero to the canonical search, which finds
    that it equals its own negative; eta_ab delta^b_c sigma^ac is not,
    and rule 5 zeroes it once the delta renames c to b.  The oracle finds
    both raw sides numerically 0, while a component of the bare bilinear
    is not."""
    bar, psi = ex.fermion_bar(), ex.fermion()
    eta_sigma = Product(CRat(1), (ex.minkowski("a", "b"), bar,
                                  ex.sigma("a", "b", up1=True, up2=True),
                                  psi))
    through_delta = Product(CRat(1), (
        ex.minkowski("a", "b"), ex.delta("b", "c", ex.Alphabet.FRAME), bar,
        ex.sigma("a", "c"), psi))
    assert ex.canonicalize(through_delta).terms
    a = Assignment((5, 0))
    for e in (eta_sigma, through_delta):
        assert contract_pairs(e) == ex.Sum(())
        assert abs(evaluate(e, a)) < TOL_FIELD
    bilinear = Product(CRat(1), (bar, ex.sigma("a", "b"), psi))
    assert abs(evaluate(bilinear, a, {"a": 0, "b": 1})) > 0.1


def test_contraction_chains_to_fixpoint():
    # ginv g ginv g collapses to dim * dim after repeated rule firing
    e = (ex.inv_metric("m", "n") * ex.metric("n", "p")
         * ex.inv_metric("p", "q") * ex.metric("q", "m"))
    t = _one(e)
    assert t.coeff == CRat(ex.SPACETIME_DIM)


def test_contract_pairs_leaves_plain_terms_alone(builtins_all):
    L = builtins_all["scalar"].parsed
    assert contract_pairs(L) == ex.canonicalize(L)


def test_christoffel_symmetric_in_lower_indices():
    a = christoffel("r", "m", "n").expansion
    b = christoffel("r", "n", "m").expansion
    assert a == b
    assert len(a.terms) == 3


def test_christoffel_trace_form():
    # ginv^{mn} Gamma^r_{mn} stays a well-formed vector expression
    e = ex.inv_metric("m", "n") * christoffel("r", "m", "n").expansion
    s = ex.canonicalize(e)
    assert s.terms
    frees = ex.free_indices(s)
    assert {ix.label for ix in frees} == {"r"}
