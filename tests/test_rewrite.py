"""The memoized term-map pass, ``exprs.rewrite_terms``.

A term is a coefficient, its riders (the scalars and the index-free
atoms ``phi`` and ``detg``) and its indexed core.  A map sees the core
with coefficient 1, each core's image is kept per map object, and the
riders are joined to each term of the image.  These tests compare the
pass with the one that mapped whole terms (``reference_rewrite``), on
inputs with and without riders, and check what the memo holds.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import reference_rewrite as ref
import strategies as gen
from weylcheck import clifford, densities, gauge, scale, tensor
from weylcheck import exprs as ex
from weylcheck.exprs import CRat, Product, Sum
from weylcheck.report import Mode

# every engine map, by name; the local shifts are the transforms' own
# objects (the Lam powers of a transform only weigh each term)
_MAPS = {
    "local": scale._shift_map(Fraction(1)),
    "local^-1/2": scale._shift_map(Fraction(-1, 2)),
    "covariantize": gauge._covariantize_term,
    "contract": tensor._contract_term,
    "expand_sigma": clifford._expand_sigma_term,
    "reduce": clifford._reduce_term,
    "drop_log_derivative": scale._drop_log_derivative_term,
    "spin_connection": gauge._spin_connection_term,
    "kinetic": gauge._kinetic_term,
}


def _outcome(build):
    """The terms ``build()`` returns, or its error text."""
    try:
        return build().terms
    except Exception as err:  # the error is part of the outcome
        return f"{type(err).__name__}: {err}"


def _inputs(seed: int):
    """A generated canonical form, and the same times a coefficient, a
    coupling at a power (negative ones included), a Lam power and the
    riders phi^k detg^j, k in 0..9 and j in 0..1."""
    a = gen.random_expr(seed)
    c = CRat(Fraction(seed % 7 - 3 or 5, 1 + seed % 3), seed % 2)
    scalars = (ex.coupling(("lambda", "f", "e", "g")[seed % 4],
                           seed % 5 - 2 or 3),
               ex.lam(Fraction(seed % 9 - 4, 1 + seed % 2)))
    riders = gen.times_riders(a, seed % 10, seed // 10 % 2)
    return a, ex.canonicalize(Product(c, scalars + (riders,)))


@pytest.mark.hashseed
@pytest.mark.parametrize("dim", [4, 7])
def test_memoized_pass_matches_the_whole_term_pass(monkeypatch, dim):
    """On the digest seeds, every engine map gives the terms, in the
    order, or the error that mapping whole terms gives."""
    monkeypatch.setattr(ex, "SPACETIME_DIM", dim)
    changed = 0
    for seed in range(300):
        for e in _inputs(seed):
            for name, fn in _MAPS.items():
                want = _outcome(lambda: ref.rewrite_terms(e, fn))
                assert _outcome(lambda: ex.rewrite_terms(e, fn)) == want, \
                    (seed, name)
                changed += want != e.terms
    assert changed > 1000


def test_a_known_skeleton_is_neither_flattened_nor_searched(monkeypatch):
    """A second term with the core of one mapped before, under other
    scalars, other powers of phi and detg and another coefficient, takes
    its image from the memo."""
    phi, s_m = ex.scalar_field(), ex.weyl_vector("m")
    x = ex.inv_metric("m", "n") * s_m * ex.d("n", phi) * phi

    def shift(t):
        return Sum((2 * t, ex.lam(1) * ex.coupling("f", -1) * t))

    first = ex.canonicalize(x)
    second = ex.canonicalize(Product(CRat(Fraction(3, 2), 1), (
        ex.coupling("f", -2), ex.lam(Fraction(1, 2)), ex.det_factor(),
        x, phi, phi)))
    assert ex.rewrite_terms(first, shift) == ref.rewrite_terms(first, shift)
    calls = []
    for name in ("_flatten", "_canonical_term"):
        real = getattr(ex, name)
        monkeypatch.setattr(ex, name, lambda *a, real=real, name=name: (
            calls.append(name), real(*a))[1])
    got = ex.rewrite_terms(second, shift)
    assert calls == []
    monkeypatch.undo()
    assert got == ref.rewrite_terms(second, shift)


def _verdicts(L):
    return (scale.check_invariance(L, Mode.GLOBAL).passed,
            scale.check_invariance(L, Mode.LOCAL).passed,
            gauge.gauge_covariantize(L),
            scale.drop_log_derivative(scale.apply_local_scale(L.parsed)))


def test_engines_hand_over_stable_maps():
    """Checking a density again adds no memo entry: every engine hands
    ``rewrite_terms`` the same map object each time."""
    L = densities.builtin("scalar-gauged")
    first = _verdicts(L)
    gauge.verify_fermion_decoupling()
    before = len(ex._IMAGES)
    assert before > 0
    assert _verdicts(L) == first
    gauge.verify_fermion_decoupling()
    assert len(ex._IMAGES) == before


def test_full_memo_is_emptied_and_outputs_stay(monkeypatch):
    """With a small limit the memo is emptied with the term cache, again
    and again, and every output is what mapping whole terms gives."""
    inputs = [x for seed in range(40) for x in _inputs(seed)]
    want = [_outcome(lambda: ref.rewrite_terms(e, fn))
            for e in inputs for fn in _MAPS.values()]
    monkeypatch.setattr(ex, "_TERM_CACHE_LIMIT", 7)
    ex._make_room()
    assert not ex._IMAGES
    got, sizes = [], []
    for e in inputs:
        for fn in _MAPS.values():
            got.append(_outcome(lambda: ex.rewrite_terms(e, fn)))
            sizes.append(len(ex._IMAGES))
    assert got == want
    assert max(sizes) <= 7
    assert any(b < a for a, b in zip(sizes, sizes[1:]))


def test_each_map_runs_once_per_core():
    """phi^k * detg^j * X, k in 0..9 and j in 0..1, calls each map once
    per core of X, and every output is what mapping whole terms gives."""
    xs = [densities.builtin(name).parsed
          for name in ("scalar-gauged", "dirac", "yangmills")]
    xs += [gen.random_expr(seed) for seed in range(6)]
    for name, fn in _MAPS.items():
        for x in xs:
            calls = []

            def counting(t, fn=fn):
                calls.append(t.factors)
                return fn(t)

            failed = False
            for k in range(10):
                for j in range(2):
                    e = gen.times_riders(x, k, j)
                    got = _outcome(lambda: ex.rewrite_terms(e, counting))
                    assert got == _outcome(lambda: ref.rewrite_terms(e, fn)), \
                        (name, k, j)
                    failed |= isinstance(got, str)
            cores = {ex._split_riders(t.factors)[1] for t in x.terms}
            # a map that raises keeps no image, so it runs again
            if not failed:
                assert sorted(calls, key=repr) == sorted(cores, key=repr), \
                    name
