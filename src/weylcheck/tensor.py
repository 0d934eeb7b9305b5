"""Index contraction rules and the Christoffel expansion.

``contract_pairs`` applies a fixed, terminating rule set until no rule
matches: Kronecker deltas are eliminated (traces count the spacetime
dimension), metric meets inverse metric, the frame metric contracts with
itself, tetrads contract with inverse tetrads in both orderings, frame
metrics close tetrad pairs into metrics, a metric-tetrad contraction is
rewritten through the frame metric onto the inverse tetrad, and frame
metrics absorb into Clifford slots (frame indices raise and lower with
eta and carry no further structure)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import exprs as ex
from .exprs import (
    Alphabet,
    CliffordAtom,
    CRat,
    Expr,
    FieldAtom,
    Index,
    Kind,
    Partial,
    Product,
    SpinorChain,
    Sum,
    Variance,
    canonicalize,
)

_FRESH = itertools.count()


def _fresh_frame() -> str:
    return f"ctr{next(_FRESH)}"


def _top_atoms(factors) -> list[tuple[int, FieldAtom]]:
    return [(i, f) for i, f in enumerate(factors)
            if isinstance(f, FieldAtom)]


def _contract_step(coeff: CRat, factors: list, chain):
    """Apply the highest-priority applicable rule once.  Returns the
    rewritten (coeff, factors, chain) or None when no rule matches."""
    slots = ex._label_census(factors, chain)
    atoms = _top_atoms(factors)

    # 1: Kronecker delta elimination and traces
    for pos, a in atoms:
        if a.kind != Kind.DELTA:
            continue
        up, dn = a.indices
        rest = factors[:pos] + factors[pos + 1:]
        if up.label == dn.label:
            dim = CRat(ex.SPACETIME_DIM)
            return coeff * dim, rest, chain
        if len(slots[up.label]) == 2:
            nf, nc, s = ex._rename_term(rest, chain, {up.label: dn.label})
            if s:
                return coeff * CRat(s), nf, nc
            return CRat(0), [], None
        if len(slots[dn.label]) == 2:
            nf, nc, s = ex._rename_term(rest, chain, {dn.label: up.label})
            if s:
                return coeff * CRat(s), nf, nc
            return CRat(0), [], None

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
        return coeff, keep + extra, chain

    # 2: metric times inverse metric
    for (p, a), (q, b) in itertools.combinations(atoms, 2):
        pair = {a.kind, b.kind}
        if pair == {Kind.INV_METRIC, Kind.METRIC}:
            inv, met = (a, b) if a.kind == Kind.INV_METRIC else (b, a)
            z = shared_dummy(inv.indices, met.indices)
            if z is not None:
                dlt = FieldAtom(Kind.DELTA, (
                    Index(others(inv, z)[0].label, Alphabet.SPACETIME,
                          Variance.UP),
                    Index(others(met, z)[0].label, Alphabet.SPACETIME,
                          Variance.DOWN)))
                return drop({p, q}, [dlt])

    # 3: frame metric against its inverse
    for (p, a), (q, b) in itertools.combinations(atoms, 2):
        if {a.kind, b.kind} == {Kind.MINKOWSKI_UP, Kind.MINKOWSKI}:
            up_a, dn_a = (a, b) if a.kind == Kind.MINKOWSKI_UP else (b, a)
            z = shared_dummy(up_a.indices, dn_a.indices)
            if z is not None:
                dlt = FieldAtom(Kind.DELTA, (
                    Index(others(up_a, z)[0].label, Alphabet.FRAME,
                          Variance.UP),
                    Index(others(dn_a, z)[0].label, Alphabet.FRAME,
                          Variance.DOWN)))
                return drop({p, q}, [dlt])

    # 4: tetrad completeness, frame and spacetime contractions
    for (p, a), (q, b) in itertools.combinations(atoms, 2):
        if {a.kind, b.kind} == {Kind.TETRAD, Kind.INV_TETRAD}:
            tet, inv = (a, b) if a.kind == Kind.TETRAD else (b, a)
            fa, sm = tet.indices
            fb, sn = inv.indices
            if fa.label == fb.label:
                dlt = FieldAtom(Kind.DELTA, (
                    Index(sn.label, Alphabet.SPACETIME, Variance.UP),
                    Index(sm.label, Alphabet.SPACETIME, Variance.DOWN)))
                return drop({p, q}, [dlt])
            if sm.label == sn.label:
                dlt = FieldAtom(Kind.DELTA, (
                    Index(fa.label, Alphabet.FRAME, Variance.UP),
                    Index(fb.label, Alphabet.FRAME, Variance.DOWN)))
                return drop({p, q}, [dlt])

    # 5: frame metric closing two tetrads into a metric
    for p, a in atoms:
        if a.kind == Kind.MINKOWSKI:
            mates = []
            for lab in (a.indices[0].label, a.indices[1].label):
                hit = None
                for q, b in atoms:
                    if q != p and b.kind == Kind.TETRAD and \
                            b.indices[0].label == lab:
                        hit = (q, b)
                        break
                mates.append(hit)
            if mates[0] and mates[1] and mates[0][0] != mates[1][0]:
                (q1, t1), (q2, t2) = mates
                g = ex.metric(t1.indices[1].label, t2.indices[1].label)
                return drop({p, q1, q2}, [g])
        if a.kind == Kind.MINKOWSKI_UP:
            mates = []
            for lab in (a.indices[0].label, a.indices[1].label):
                hit = None
                for q, b in atoms:
                    if q != p and b.kind == Kind.INV_TETRAD and \
                            b.indices[0].label == lab:
                        hit = (q, b)
                        break
                mates.append(hit)
            if mates[0] and mates[1] and mates[0][0] != mates[1][0]:
                (q1, t1), (q2, t2) = mates
                g = ex.inv_metric(t1.indices[1].label, t2.indices[1].label)
                return drop({p, q1, q2}, [g])

    # 6: metric-tetrad contraction rewritten through the frame metric
    for (p, a), (q, b) in itertools.combinations(atoms, 2):
        if {a.kind, b.kind} == {Kind.INV_METRIC, Kind.TETRAD}:
            inv, tet = (a, b) if a.kind == Kind.INV_METRIC else (b, a)
            sm = tet.indices[1]
            hit = next((u for u in inv.indices if u.label == sm.label), None)
            if hit is not None:
                other = others(inv, sm.label)[0]
                c = _fresh_frame()
                eta_up = ex.minkowski_up(tet.indices[0].label, c)
                itet = ex.inv_tetrad(c, other.label)
                return drop({p, q}, [eta_up, itet])
        if {a.kind, b.kind} == {Kind.METRIC, Kind.INV_TETRAD}:
            met, itet = (a, b) if a.kind == Kind.METRIC else (b, a)
            sn = itet.indices[1]
            hit = next((u for u in met.indices if u.label == sn.label), None)
            if hit is not None:
                other = others(met, sn.label)[0]
                c = _fresh_frame()
                eta_dn = ex.minkowski(itet.indices[0].label, c)
                tet = ex.tetrad(c, other.label)
                return drop({p, q}, [eta_dn, tet])

    # 7: frame metric absorbs into a Clifford slot
    if chain is not None:
        for p, a in atoms:
            if a.kind not in (Kind.MINKOWSKI, Kind.MINKOWSKI_UP):
                continue
            want = Variance.UP if a.kind == Kind.MINKOWSKI else Variance.DOWN
            new_var = Variance.DOWN if a.kind == Kind.MINKOWSKI \
                else Variance.UP
            for ci, item in enumerate(chain):
                if not isinstance(item, CliffordAtom):
                    continue
                for si, ix in enumerate(item.indices):
                    for ei, eix in enumerate(a.indices):
                        if ix.label == eix.label and ix.variance == want:
                            other = a.indices[1 - ei]
                            new_ix = Index(other.label, Alphabet.FRAME,
                                           new_var)
                            idxs = list(item.indices)
                            idxs[si] = new_ix
                            na, s = ex._rename_in_factor(
                                CliffordAtom(item.ckind, tuple(idxs)), {})
                            if na is None:
                                return CRat(0), [], None
                            nchain = list(chain)
                            nchain[ci] = na
                            keep = factors[:p] + factors[p + 1:]
                            return coeff * CRat(s), keep, nchain
    return None


def contract_pairs(e: Expr) -> Sum:
    """Apply the contraction rule set to a fixpoint and recanonicalize."""
    s = canonicalize(e)
    pieces = []
    for t in s.terms:
        coeff = t.coeff
        factors = list(t.factors)
        chain = list(t.chain.items) if t.chain is not None else None
        for _ in range(500):
            step = _contract_step(coeff, factors, chain)
            if step is None:
                break
            coeff, factors, chain = step
            if coeff.is_zero():
                break
        else:
            raise RuntimeError("contraction did not terminate")
        body = Product(coeff, tuple(factors),
                       SpinorChain(tuple(chain)) if chain else None)
        pieces.append(body)
    return canonicalize(Sum(tuple(pieces)))


@dataclass(frozen=True)
class ChristoffelExpr:
    """Explicit first-derivative expansion of the metric connection."""
    expansion: Sum


def christoffel(rho: str = "rho", mu: str = "mu",
                nu: str = "nu") -> ChristoffelExpr:
    """Metric connection with free labels (rho upper, mu and nu lower):
    (1/2) ginv(rho,s) (d_mu g_{s nu} + d_nu g_{s mu} - d_s g_{mu nu})."""
    s = f"chr{next(_FRESH)}"
    half = Fraction(1, 2)
    body = half * (ex.inv_metric(rho, s)
                   * (ex.d(mu, ex.metric(s, nu))
                      + ex.d(nu, ex.metric(s, mu))
                      - ex.d(s, ex.metric(mu, nu))))
    return ChristoffelExpr(canonicalize(body))
