"""Gamma-matrix algebra on spinor chains.

The generators satisfy {gamma^a, gamma^b} = 2 eta^{ab} with mostly-minus
signature, and sigma^{ab} = (1/4)[gamma^a, gamma^b].  Chains are reduced
by eliminating contracted gamma pairs through anticommutation; an
adjacent contracted pair counts the spacetime dimension.  Distinct free
gammas are bubble-sorted by label, except that chains of five or more
distinct gammas are left in input order.  Dummy-labeled gammas keep
their position relative to the tensors they contract with."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import exprs as ex
from .exprs import (
    Alphabet,
    CliffordKind,
    CRat,
    Expr,
    FieldAtom,
    Index,
    Product,
    Sum,
    Variance,
)


def _is_gamma(it: FieldAtom) -> bool:
    return it.kind is CliffordKind.GAMMA


def _is_sigma(it: FieldAtom) -> bool:
    return it.kind is CliffordKind.SIGMA


def _expand_sigma_term(t: Product) -> Optional[Sum]:
    if not any(map(_is_sigma, t.factors)):
        return None
    quarter = CRat(Fraction(1, 4))
    branches = [(CRat(1), [])]
    for it in t.factors:
        if _is_sigma(it):
            gi = FieldAtom(CliffordKind.GAMMA, (it.indices[0],))
            gj = FieldAtom(CliffordKind.GAMMA, (it.indices[1],))
            opts = [(quarter, [gi, gj]), (-quarter, [gj, gi])]
        else:
            opts = [(CRat(1), [it])]
        branches = [(c1 * c2, l1 + l2)
                    for c1, l1 in branches for c2, l2 in opts]
    return Sum(tuple(Product(t.coeff * c, tuple(items))
                     for c, items in branches))


def expand_sigma(e: Expr) -> Sum:
    """Rewrite every sigma as the normalized gamma commutator."""
    return ex.rewrite_terms(e, _expand_sigma_term)


def _pairing_atom(a: Index, b: Index):
    """Half the anticommutator of two gammas with the given slots."""
    if a.variance == Variance.UP and b.variance == Variance.UP:
        return ex.minkowski_up(a.label, b.label)
    if a.variance == Variance.DOWN and b.variance == Variance.DOWN:
        return ex.minkowski(a.label, b.label)
    if a.variance == Variance.UP:
        return ex.delta(a.label, b.label, Alphabet.FRAME)
    return ex.delta(b.label, a.label, Alphabet.FRAME)


def _reduce(items: list, free: set) -> list[tuple[CRat, list, list]]:
    """Returns (coefficient, emitted bosonic factors, chain items)
    branches for one chain."""
    gpos = [i for i, it in enumerate(items) if _is_gamma(it)]

    pair = None
    for k, p in enumerate(gpos):
        lab = items[p].indices[0].label
        for q in gpos[k + 1:]:
            if items[q].indices[0].label == lab:
                pair = (p, q)
                break
        if pair:
            break
    if pair:
        p, q = pair
        if q == p + 1:
            rest = items[:p] + items[q + 1:]
            dim = CRat(ex.SPACETIME_DIM)
            return [(dim * c, fs, its) for c, fs, its in _reduce(rest, free)]
        return _swap(items, q - 1, q, free)

    if len(gpos) >= 5:
        return [(CRat(1), [], items)]
    for k in range(len(gpos) - 1):
        p, q = gpos[k], gpos[k + 1]
        if q != p + 1:
            continue
        a, b = items[p].indices[0], items[q].indices[0]
        if a.label in free and b.label in free and \
                (b.label, int(b.variance)) < (a.label, int(a.variance)):
            return _swap(items, p, q, free)
    return [(CRat(1), [], items)]


def _swap(items: list, i: int, j: int, free: set):
    """Anticommute adjacent gammas at i, j = i+1."""
    a, b = items[i].indices[0], items[j].indices[0]
    ip = _pairing_atom(a, b)
    rest = items[:i] + items[j + 1:]
    swapped = items[:i] + [items[j], items[i]] + items[j + 1:]
    out = []
    for c, fs, its in _reduce(rest, free):
        out.append((c * CRat(2), fs + [ip], its))
    for c, fs, its in _reduce(swapped, free):
        out.append((c * CRat(-1), fs, its))
    return out


def _reduce_term(t: Product) -> Optional[Sum]:
    plain, chain = ex._split_chain(t.factors)
    if not any(map(_is_gamma, chain)):
        return None
    census = ex._label_census(t.factors)
    free = {lab for lab, occ in census.items() if len(occ) == 1}
    out = []
    for c, extra, its in _reduce(chain, free):
        out.append(Product(t.coeff * c, tuple(
            plain + extra + (its or [ex.identity_spinor()]))))
    return Sum(tuple(out))


def gamma_canonicalize(e: Expr) -> Sum:
    """Expand sigmas, resolve contracted gamma pairs, and order free
    gammas.  Emitted eta and delta factors are left for the contraction
    engine."""
    return ex.rewrite_terms(expand_sigma(e), _reduce_term)
