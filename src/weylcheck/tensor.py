"""Index contraction rules and the Christoffel expansion.

``contract_pairs`` applies a fixed, terminating rule set until no rule
matches: Kronecker deltas are eliminated (traces count the spacetime
dimension), mutually inverse atoms (metric and inverse metric, the two
frame metrics, tetrad and inverse tetrad) contract into deltas, frame
metrics close tetrad pairs into metrics, a metric-tetrad contraction is
rewritten through the frame metric onto the inverse tetrad, and frame
metrics absorb into Clifford slots (frame indices raise and lower with
eta and carry no further structure)."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Optional

from . import exprs as ex
from .exprs import (
    Alphabet,
    CliffordKind,
    CRat,
    Expr,
    FieldAtom,
    Index,
    Kind,
    Product,
    Sum,
    Variance,
)

# rule 2, in order: mutually inverse kinds.  The first one's slots are
# tried first, so a tetrad pair contracts its frame slots before its
# spacetime slots.
_INVERSE_PAIRS = ((Kind.INV_METRIC, Kind.METRIC),
                  (Kind.MINKOWSKI_UP, Kind.MINKOWSKI),
                  (Kind.TETRAD, Kind.INV_TETRAD))

# rule 3: frame metric -> (the tetrad kind it closes, the metric made)
_CLOSERS = {Kind.MINKOWSKI: (Kind.TETRAD, ex.metric),
            Kind.MINKOWSKI_UP: (Kind.INV_TETRAD, ex.inv_metric)}

# rule 4: (metric kind, tetrad kind, frame metric, new tetrad) for a
# metric contracted with a tetrad's spacetime slot
_THROUGH_FRAME = ((Kind.INV_METRIC, Kind.TETRAD, ex.minkowski_up,
                   ex.inv_tetrad),
                  (Kind.METRIC, Kind.INV_TETRAD, ex.minkowski, ex.tetrad))
_THROUGH_KINDS = {kind for row in _THROUGH_FRAME for kind in row[:2]}


def _top_atoms(factors) -> list[tuple[int, FieldAtom]]:
    # no rule acts on a derivative or an atom without indices
    return [(i, f) for i, f in enumerate(factors)
            if f.indices and not f.derivs]


def _contract_step(coeff: CRat, factors: list):
    """Apply the highest-priority applicable rule once.  Returns the
    rewritten (coeff, factors) or None when no rule matches."""
    atoms = _top_atoms(factors)
    if not atoms:
        return None
    slots = ex._label_census(factors)

    # 1: Kronecker delta elimination and traces
    for pos, a in atoms:
        if a.kind != Kind.DELTA:
            continue
        up, dn = a.indices
        rest = factors[:pos] + factors[pos + 1:]
        if up.label == dn.label:
            dim = CRat(ex.SPACETIME_DIM)
            return coeff * dim, rest
        if len(slots[up.label]) == 2:
            nf, s = ex._rename_term(rest, {up.label: dn.label})
            return coeff * CRat(s), nf or []
        if len(slots[dn.label]) == 2:
            nf, s = ex._rename_term(rest, {dn.label: up.label})
            return coeff * CRat(s), nf or []

    def shared_dummy(ix_list_a, ix_list_b):
        for ia in ix_list_a:
            for ib in ix_list_b:
                if ia.label == ib.label and ia.variance != ib.variance:
                    return ia.label
        return None

    def others(a: FieldAtom, lab: str) -> list[Index]:
        return [ix for ix in a.indices if ix.label != lab]

    def drop(positions, extra):
        keep = [f for i, f in enumerate(factors) if i not in positions]
        return coeff, keep + extra

    # 2: two mutually inverse atoms sharing a dummy become the delta of
    # their remaining upper and lower index
    for first_kind, second_kind in _INVERSE_PAIRS:
        pair = [(p, a) for p, a in atoms
                if a.kind is first_kind or a.kind is second_kind]
        for (p, a), (q, b) in itertools.combinations(pair, 2):
            if {a.kind, b.kind} != {first_kind, second_kind}:
                continue
            first, second = (a, b) if a.kind == first_kind else (b, a)
            z = shared_dummy(first.indices, second.indices)
            if z is not None:
                ends = sorted(others(first, z) + others(second, z),
                              key=lambda ix: ix.variance)
                return drop({p, q}, [FieldAtom(Kind.DELTA, tuple(ends))])

    # 3: frame metric closing two tetrads into a metric
    for p, a in atoms:
        if a.kind not in _CLOSERS:
            continue
        mate_kind, build = _CLOSERS[a.kind]
        mates = [next(((q, b) for q, b in atoms if q != p
                       and b.kind == mate_kind
                       and b.indices[0].label == ix.label), None)
                 for ix in a.indices]
        if mates[0] and mates[1] and mates[0][0] != mates[1][0]:
            (q1, t1), (q2, t2) = mates
            g = build(t1.indices[1].label, t2.indices[1].label)
            return drop({p, q1, q2}, [g])

    # 4: metric-tetrad contraction rewritten through the frame metric
    joined = [(p, a) for p, a in atoms if a.kind in _THROUGH_KINDS]
    for (p, a), (q, b) in itertools.combinations(joined, 2):
        for met_kind, tet_kind, frame_metric, new_tetrad in _THROUGH_FRAME:
            if {a.kind, b.kind} != {met_kind, tet_kind}:
                continue
            met, tet = (a, b) if a.kind == met_kind else (b, a)
            sm = tet.indices[1]
            if any(u.label == sm.label for u in met.indices):
                other = others(met, sm.label)[0]
                c = ex._fresh_label("ctr", slots)
                return drop({p, q}, [frame_metric(tet.indices[0].label, c),
                                     new_tetrad(c, other.label)])

    # 5: frame metric absorbs into a Clifford slot
    matrices = [(q, b) for q, b in atoms if isinstance(b.kind, CliffordKind)]
    for p, a in atoms:
        if a.kind not in (Kind.MINKOWSKI, Kind.MINKOWSKI_UP):
            continue
        want = Variance.UP if a.kind == Kind.MINKOWSKI else Variance.DOWN
        new_var = Variance.DOWN if a.kind == Kind.MINKOWSKI else Variance.UP
        for q, item in matrices:
            for si, ix in enumerate(item.indices):
                for ei, eix in enumerate(a.indices):
                    if ix.label == eix.label and ix.variance == want:
                        other = a.indices[1 - ei]
                        idxs = list(item.indices)
                        idxs[si] = Index(other.label, Alphabet.FRAME,
                                         new_var)
                        na, s = ex._rename_in_factor(
                            FieldAtom(item.kind, tuple(idxs)), {})
                        if na is None:
                            return CRat(0), []
                        new = list(factors)
                        new[q] = na
                        del new[p]
                        return coeff * CRat(s), new
    return None


def _contract_term(t: Product) -> Optional[Product]:
    """One term with the rule set applied to a fixpoint, or None when no
    rule matches."""
    step = _contract_step(t.coeff, list(t.factors))
    if step is None:
        return None
    for _ in range(500):
        coeff, factors = step
        if coeff.is_zero():
            break
        step = _contract_step(coeff, factors)
        if step is None:
            break
    else:
        raise RuntimeError("contraction did not terminate")
    return Product(coeff, tuple(factors))


def contract_pairs(e: Expr) -> Sum:
    """Apply the contraction rule set to a fixpoint and recanonicalize."""
    return ex.rewrite_terms(e, _contract_term)


class ChristoffelExpr(NamedTuple):
    """Explicit first-derivative expansion of the metric connection."""
    expansion: Sum


def christoffel(rho: str = "rho", mu: str = "mu",
                nu: str = "nu") -> ChristoffelExpr:
    """Metric connection with free labels (rho upper, mu and nu lower):
    (1/2) ginv(rho,s) (d_mu g_{s nu} + d_nu g_{s mu} - d_s g_{mu nu})."""
    s = ex._fresh_label("chr", (rho, mu, nu))
    half = Fraction(1, 2)
    body = half * (ex.inv_metric(rho, s)
                   * (ex.d(mu, ex.metric(s, nu))
                      + ex.d(nu, ex.metric(s, mu))
                      - ex.d(s, ex.metric(mu, nu))))
    return ChristoffelExpr(ex.canonicalize(body))
