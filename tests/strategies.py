"""Seeded generators of well-formed expressions.

Each template contributes atoms with open index slots; a pairing pass
closes randomly chosen up/down slots of matching alphabet into dummies
and names the rest as frees.  Slots of one atom never pair with each
other, so antisymmetric atoms cannot self-cancel.  Everything is driven
by a caller-supplied random.Random, so a seed pins the exact output.
"""

from __future__ import annotations

import random
from fractions import Fraction

from weylcheck import exprs as ex
from weylcheck.dsl import LagrangianDef, make_def
from weylcheck.exprs import Alphabet, CRat, Expr, Product, Sum, Variance

ST = Alphabet.SPACETIME
FR = Alphabet.FRAME
UP = Variance.UP
DOWN = Variance.DOWN


class _Slot:
    __slots__ = ("alph", "var", "atom", "label")

    def __init__(self, alph, var, atom):
        self.alph = alph
        self.var = var
        self.atom = atom  # (template instance, sub-atom) identity
        self.label = None


# A template instantiation is (slots, make, is_chain) where slots is a
# list of (alphabet, variance, sub_atom) and make(labels) builds the
# factor (or the tuple of spinor chain items) once the pairing pass has
# named every slot.

def _t_scalar(rng):
    n = rng.choice((1, 1, 1, 2, 2, 3, 4))
    return [], (lambda L: ex.scalar_field() ** n), False


def _t_d_scalar(rng):
    return [(ST, DOWN, 0)], (lambda L: ex.d(L[0], ex.scalar_field())), False


def _t_metric(rng):
    return ([(ST, DOWN, 0), (ST, DOWN, 0)],
            lambda L: ex.metric(L[0], L[1]), False)


def _t_inv_metric(rng):
    return ([(ST, UP, 0), (ST, UP, 0)],
            lambda L: ex.inv_metric(L[0], L[1]), False)


def _t_d_metric(rng):
    return ([(ST, DOWN, 0), (ST, DOWN, 0), (ST, DOWN, 0)],
            lambda L: ex.d(L[0], ex.metric(L[1], L[2])), False)


def _t_d_inv_metric(rng):
    return ([(ST, DOWN, 0), (ST, UP, 0), (ST, UP, 0)],
            lambda L: ex.d(L[0], ex.inv_metric(L[1], L[2])), False)


def _t_tetrad(rng):
    return ([(FR, UP, 0), (ST, DOWN, 0)],
            lambda L: ex.tetrad(L[0], L[1]), False)


def _t_inv_tetrad(rng):
    return ([(FR, DOWN, 0), (ST, UP, 0)],
            lambda L: ex.inv_tetrad(L[0], L[1]), False)


def _t_d_tetrad(rng):
    return ([(ST, DOWN, 0), (FR, UP, 0), (ST, DOWN, 0)],
            lambda L: ex.d(L[0], ex.tetrad(L[1], L[2])), False)


def _t_eta(rng):
    return ([(FR, DOWN, 0), (FR, DOWN, 0)],
            lambda L: ex.minkowski(L[0], L[1]), False)


def _t_eta_up(rng):
    return ([(FR, UP, 0), (FR, UP, 0)],
            lambda L: ex.minkowski_up(L[0], L[1]), False)


def _t_em(rng):
    return [(ST, DOWN, 0)], (lambda L: ex.em_vector(L[0])), False


def _t_d_em(rng):
    return ([(ST, DOWN, 0), (ST, DOWN, 0)],
            lambda L: ex.d(L[0], ex.em_vector(L[1])), False)


def _t_ym(rng):
    return ([(FR, UP, 0), (ST, DOWN, 0)],
            lambda L: ex.ym_vector(L[0], L[1]), False)


def _t_d_ym(rng):
    return ([(ST, DOWN, 0), (FR, UP, 0), (ST, DOWN, 0)],
            lambda L: ex.d(L[0], ex.ym_vector(L[1], L[2])), False)


def _t_weyl(rng):
    return [(ST, DOWN, 0)], (lambda L: ex.weyl_vector(L[0])), False


def _t_d_weyl(rng):
    return ([(ST, DOWN, 0), (ST, DOWN, 0)],
            lambda L: ex.d(L[0], ex.weyl_vector(L[1])), False)


def _t_logd(rng):
    return [(ST, DOWN, 0)], (lambda L: ex.log_deriv(L[0])), False


def _t_detg(rng):
    return [], (lambda L: ex.det_factor()), False


def _t_lam(rng):
    k = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3)),
                 rng.choice((1, 1, 2)))
    return [], (lambda L: ex.lam(k)), False


def _t_coupling(rng):
    name = rng.choice(("lambda", "f", "e", "g"))
    power = rng.choice((1, 1, 1, 2, -1))
    return [], (lambda L: ex.coupling(name, power)), False


def _t_structf(rng):
    return ([(FR, UP, 0), (FR, UP, 0), (FR, UP, 0)],
            lambda L: ex.structure_const(L[0], L[1], L[2]), False)


def _t_chain(rng):
    slots: list = []
    makers: list = []  # (slot count, fn(label slice) -> chain item)
    sub = 0
    for _ in range(rng.randint(0, 2)):
        sub += 1
        if rng.random() < 0.6:
            up = rng.random() < 0.5
            slots.append((FR, UP if up else DOWN, sub))
            makers.append((1, lambda L, up=up: ex.gamma(L[0], up=up)))
        else:
            u1 = rng.random() < 0.5
            u2 = rng.random() < 0.5
            slots.append((FR, UP if u1 else DOWN, sub))
            slots.append((FR, UP if u2 else DOWN, sub))
            makers.append((2, lambda L, u1=u1, u2=u2:
                           ex.sigma(L[0], L[1], up1=u1, up2=u2)))
    if rng.random() < 0.4:
        slots.append((ST, DOWN, sub + 1))
        makers.append((1, lambda L: ex.d(L[0], ex.fermion())))
    else:
        makers.append((0, lambda L: ex.fermion()))

    def make(L):
        items = [ex.fermion_bar()]
        pos = 0
        for n, fn in makers:
            items.append(fn(L[pos:pos + n]))
            pos += n
        return tuple(items)

    return slots, make, True


_CATALOG = (
    (4, _t_scalar),
    (3, _t_d_scalar),
    (2, _t_metric),
    (3, _t_inv_metric),
    (1, _t_d_metric),
    (1, _t_d_inv_metric),
    (2, _t_tetrad),
    (2, _t_inv_tetrad),
    (1, _t_d_tetrad),
    (2, _t_eta),
    (1, _t_eta_up),
    (2, _t_em),
    (1, _t_d_em),
    (1, _t_ym),
    (1, _t_d_ym),
    (2, _t_weyl),
    (1, _t_d_weyl),
    (1, _t_logd),
    (1, _t_detg),
    (1, _t_lam),
    (2, _t_coupling),
    (1, _t_structf),
)

_WEIGHTED = tuple(t for w, t in _CATALOG for _ in range(w))

# D stands for the gradient of log Lambda, so identities that compare a
# transform against its constant-Lambda limit only hold for inputs that
# do not mention it; those tests generate from this reduced catalog.
_WEIGHTED_NO_D = tuple(t for t in _WEIGHTED if t is not _t_logd)


def _coeff(rng) -> CRat:
    num = rng.randint(-6, 6) or 1
    fr = Fraction(num, rng.randint(1, 4))
    if rng.random() < 0.2:
        return CRat(0, fr)
    return CRat(fr)


def _pair_slots(rng, slots, require_scalar: bool) -> int:
    """Assign labels: dummies q0.. to paired slots, frees z0.. to the
    rest.  Returns the number of free slots."""
    ndum = 0
    for alph in (ST, FR):
        ups = [s for s in slots
               if s.alph == alph and s.var == UP and s.label is None]
        downs = [s for s in slots
                 if s.alph == alph and s.var == DOWN and s.label is None]
        rng.shuffle(ups)
        rng.shuffle(downs)
        for u in ups:
            cands = [d for d in downs
                     if d.label is None and d.atom != u.atom]
            if not cands:
                continue
            if not require_scalar and rng.random() < 0.25:
                continue
            lab = f"q{ndum}"
            ndum += 1
            u.label = lab
            cands[0].label = lab
    frees = [s for s in slots if s.label is None]
    for i, s in enumerate(frees):
        s.label = f"z{i}"
    return len(frees)


def random_term(rng: random.Random, require_scalar: bool = False,
                allow_log_deriv: bool = True,
                max_retries: int = 40) -> Product:
    """One well-formed Product; scalar (no free indices) on request."""
    pool = _WEIGHTED if allow_log_deriv else _WEIGHTED_NO_D
    for _ in range(max_retries):
        picks = [rng.choice(pool)(rng)
                 for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.25:
            picks.append(_t_chain(rng))
        slots = []
        per_pick = []
        for i, (spec, make, is_chain) in enumerate(picks):
            mine = [_Slot(a, v, (i, sub)) for a, v, sub in spec]
            slots.extend(mine)
            per_pick.append((mine, make, is_chain))
        nfree = _pair_slots(rng, slots, require_scalar)
        if require_scalar and nfree:
            continue
        factors = []
        chain = ()
        for mine, make, is_chain in per_pick:
            obj = make([s.label for s in mine])
            if is_chain:
                chain = obj
            else:
                factors.append(obj)
        return Product(_coeff(rng), tuple(factors) + chain)
    return Product(_coeff(rng),
                   (ex.scalar_field() ** 2, ex.lam(Fraction(-2))))


def random_expr(seed_or_rng, require_scalar: bool = False,
                allow_log_deriv: bool = True, max_terms: int = 3) -> Sum:
    """Canonical Sum of one to max_terms generated terms.  Multi-term
    sums are forced scalar so every term carries the same (empty) free
    index set."""
    rng = (random.Random(seed_or_rng) if isinstance(seed_or_rng, int)
           else seed_or_rng)
    k = rng.randint(1, max_terms)
    scalar = require_scalar or k > 1
    for _ in range(20):
        terms = tuple(random_term(rng, require_scalar=scalar,
                                  allow_log_deriv=allow_log_deriv)
                      for _ in range(k))
        s = ex.canonicalize(Sum(terms))
        if s.terms:
            return s
    return ex.canonicalize(ex.scalar_field() ** 2)


def times_riders(e: Expr, k: int, j: int) -> Sum:
    """``phi^k * detg^j * e`` in canonical form: e times riders, the
    index-free atoms that ride with the scalars."""
    return ex.canonicalize(Product(CRat(1), (ex.scalar_field(),) * k
                                   + (ex.det_factor(),) * j + (e,)))


def random_def(seed: int, require_scalar: bool = False) -> LagrangianDef:
    return make_def(f"gen{seed}", random_expr(seed,
                                              require_scalar=require_scalar))
