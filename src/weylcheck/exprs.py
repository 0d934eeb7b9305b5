"""Expression core for indexed field densities.

Expressions are immutable trees built from atoms, partial derivatives,
products and sums.  A flattened or canonical term has one shape,
``Product(coeff, factors)``: a coefficient times atoms.  Every factor is
a ``FieldAtom``: an indexed field, a constant spinor matrix (gamma,
sigma, one), Lam or a coupling constant, whose kind is a
``CouplingKind`` and whose ``exponent`` is its power, as Lam's is.  A
derivative of an atom is the atom with its derivative indices
(``derivs``); ``Partial`` is only the input node that ``d`` and the
parser build, and flattening moves its index onto the atoms.  The
factors whose kind opens a spin axis are the term's spinor chain, in the
order given, and the rest commute.  Coefficients are exact Gaussian
rationals; no floats enter the symbolic layer.  ``canonicalize`` maps
every expression to a unique normal form: sums flattened and sorted,
products flattened with commuting factors in a fixed class order and the
chain after them, like terms collected, and dummy indices renamed to a
canonical sequence.  Structural equality of canonical forms is the
engine's notion of equality.

What the engine knows about an atom's kind, a declared field, one of the
Clifford matrices or a coupling, is one row declared with the kind
(``kind.row``): its sort class, slots, Weyl weight, derivative rule, spin
and slot symmetries.  Every module and builder reads that row; there is
no other atom class and no table of kinds.

Deterministic work is done once per process.  The term cache
(``_TERM_CACHE``) has one kind of key: a term's factors other than its
scalars (the couplings and Lam, the atoms with an exponent), in the
order given.  It maps them to their sign and canonical factors.  Scalars
carry no index, so they cannot change the canonical search, and
``Lam^w * X`` for every rescaling weight w reuses the search of ``X``.
For the same reason a term map sees only a term's skeleton: its factors
after the scalars, with coefficient 1.  The canonical terms of the
map's image are kept under (map, ``SPACETIME_DIM``, skeleton), so each
skeleton is mapped and searched once per map object.

Every engine function accepts any ``Expr`` and returns a canonical
``Sum``.  Only ``canonicalize``, on the Sums it returns, and
``rewrite_terms``, on the terms it keeps and the images it builds, mark
a Sum canonical.  ``canonicalize`` hands a marked Sum back unchanged
and adds the terms of one inside a larger expression as they stand, so
composing engine outputs puts no term in canonical form again.
``rewrite_terms`` is the one pass that maps the terms of a canonical
form: the term's coefficient multiplies each term of its skeleton's
image, and its scalars join each one's own.  The engines supply only
the map, a module-level function or one object per parameter set, so
that a later call finds its images again.  ``set_coupling``, the one
map that reads a scalar, is a direct pass of its own.

Atoms and indices are hash-consed: there is one ``FieldAtom`` and one
``Index`` object per distinct value.  Building one with the fields of a
live one returns that one, so == is identity and both hash by identity,
in C, and a dict keyed by a tuple of atoms (the ``canonicalize`` bucket,
the term cache, the memos) runs no Python code to hash or compare them.
Each class keeps its intern table with weak values: a node that nothing
else references leaves it, so the table stays as small as what is in
use.  A table is never emptied while its nodes are alive: a second live
object of one value would compare unequal to the first, and like terms
would no longer collect.  For the same reason two threads must not
build atoms at once: the intern step, like the caches, takes no lock.
``Partial``, an input node, keeps value equality.  A set of atoms
iterates in the order of their addresses, which moves from run to run,
so no output reads such an order.

Slot symmetries are stated once, in the rows and the slot-symmetry rule
(``_slot_groups``).  For any node it lists the groups of slot positions
that may be permuted, and the sign an odd permutation of a group gives:

- a row's slot groups: the two slots of ``g``, ``ginv``, ``eta`` and
  ``etainv`` (+1) and of ``sigma`` (-1, so equal labels make it vanish);
- the indices of nested derivatives (+1);
- over a gradient, ``d[...](D[n])``, the derivative indices together
  with ``D``'s own index (+1): ``D`` is the gradient of ln Lam, so its
  derivatives are symmetric.

Everything else reads that rule: the one slot order of a node
(``_rename_in_factor`` sorts each group by ``Index.key``), how the
canonical search names a node's new dummies (those of a group of sign +1
as a set of the next names, which later nodes choose from; those of an
antisymmetric group in every order) and the slots it cannot tell apart
(the slots of one group, which ``_refined_groups`` gives one class).  A
canonical form therefore cannot depend on the names of the dummies it
started from.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import weakref
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import MalformedChain, MalformedIndex

# Spacetime dimension.  A single module constant so tests can probe how
# derived coefficients depend on it (trace rules read it at call time).
SPACETIME_DIM = 4


class Alphabet(IntEnum):
    SPACETIME = 0
    FRAME = 1


class Variance(IntEnum):
    UP = 0
    DOWN = 1


class _HashConsed(type):
    """Metaclass of the nodes that exist once per value, ``Index`` and
    ``FieldAtom``.  A call returns the live node whose fields, with the
    defaults filled in, equal its arguments, so == between two nodes of
    one class is identity.  Only a miss builds, and so validates, a node;
    one that raises leaves nothing behind."""

    def __call__(cls, *args, **kwargs):
        if kwargs:  # keywords become positions, checked as __init__ would
            bound = inspect.signature(cls.__init__).bind(None, *args,
                                                         **kwargs)
            bound.apply_defaults()
            args = tuple(bound.arguments.values())[1:]
        key = args + cls._defaults[len(args):]
        node = cls._live.get(key)
        if node is None:
            node = cls._live[key] = super().__call__(*args)
        return node


class _Interned(metaclass=_HashConsed):
    """Base of the hash-consed nodes: the slot a weak reference needs,
    and pickling and copying through the constructor, which hands back
    the live node."""

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)


def _hash_consed(cls):
    """``cls`` as a frozen slotted dataclass whose nodes ``_HashConsed``
    interns.  Hash and == are object's, by identity, in C.  The table
    holds its nodes weakly: it keeps no node that nothing else
    references, and drops none that is alive."""
    cls = dataclass(frozen=True, slots=True, eq=False)(cls)
    cls._defaults = tuple(f.default for f in fields(cls))
    cls._live = weakref.WeakValueDictionary()
    return cls


@_hash_consed
class Index(_Interned):
    label: str
    alphabet: Alphabet
    variance: Variance

    def key(self) -> tuple:
        return (int(self.alphabet), int(self.variance), self.label)


def st_lo(label: str) -> Index:
    return Index(label, Alphabet.SPACETIME, Variance.DOWN)


def fr_up(label: str) -> Index:
    return Index(label, Alphabet.FRAME, Variance.UP)


def fr_lo(label: str) -> Index:
    return Index(label, Alphabet.FRAME, Variance.DOWN)


class CRat:
    """Gaussian rational coefficient (exact real and imaginary parts).

    A CRat is immutable, so one instance may be shared: the flattener
    hands out the one unit ``_UNIT`` for every bare atom and plain
    derivative, and ``_times`` compares with it by ``is`` to skip the
    product."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(
            self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(
            self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("CRat is immutable")

    @staticmethod
    def of(v) -> "CRat":
        """v as a CRat, or NotImplemented for an Expr, so that an
        operator hands over to the Expr's reflected one."""
        if isinstance(v, CRat):
            return v
        if isinstance(v, Expr):
            return NotImplemented
        return CRat(Fraction(v))

    def __add__(self, o):
        o = CRat.of(o)
        if o is NotImplemented:
            return o
        return CRat(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = CRat.of(o)
        if o is NotImplemented:
            return o
        return CRat(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = CRat.of(o)
        if o is NotImplemented:
            return o
        if not self.im and not o.im:
            return CRat(self.re * o.re)
        return CRat(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    def __neg__(self):
        return CRat(-self.re, -self.im)

    def __truediv__(self, o):
        o = CRat.of(o)
        if o is NotImplemented:
            return o
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero coefficient")
        return CRat((self.re * o.re + self.im * o.im) / n,
                    (self.im * o.re - self.re * o.im) / n)

    def __pow__(self, k: int):
        if k < 0:
            return CRat(1) / self ** (-k)
        out = CRat(1)
        b = self
        while k:
            if k & 1:
                out = out * b
            b = b * b
            k >>= 1
        return out

    def __eq__(self, o):
        """Equal to a CRat of the same parts and, when real, to an int or
        Fraction of its value; NotImplemented for anything else."""
        if isinstance(o, CRat):
            return self.re == o.re and self.im == o.im
        if isinstance(o, (int, Fraction)):
            return not self.im and self.re == o
        return NotImplemented

    def __hash__(self):
        # a real CRat equals its value, so it hashes as that value does
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"CRat({self.re!r}, {self.im!r})"


I_UNIT = CRat(0, 1)
_UNIT = CRat(1)


def _times(a: CRat, b: CRat) -> CRat:
    """a * b, without the product when either side is the shared unit."""
    return b if a is _UNIT else a if b is _UNIT else a * b


# (alphabet, variance) of a slot; None is free: delta's slots take any
# one alphabet, a Clifford slot either variance
_SD = (Alphabet.SPACETIME, Variance.DOWN)
_SU = (Alphabet.SPACETIME, Variance.UP)
_FD = (Alphabet.FRAME, Variance.DOWN)
_FU = (Alphabet.FRAME, Variance.UP)
_ANY_UP, _ANY_DN = (None, Variance.UP), (None, Variance.DOWN)
_F = (Alphabet.FRAME, None)
# slot groups of a symmetric and of an antisymmetric pair
_SYM, _ANTI = (((0, 1), 1),), (((0, 1), -1),)


class _KindRow(NamedTuple):
    """Everything the engine knows about one atom kind (``kind.row``).

    ``sort_class`` orders atoms (couplings < Lambda powers < det factor <
    metric-like < tetrad-like < fields < Clifford matrices), and within a
    class atoms follow the declaration order of ``Kind``, ``CliffordKind``
    and ``CouplingKind`` (``rank``, filled in as the kinds are declared).
    Classes 0 and 1 are the scalars, whose atoms carry a power
    (``exponent``).  ``slots`` is the (alphabet, variance) pattern of the
    indices.  A field rescales as
    Lam^weight, except an inhomogeneous one, which shifts instead (S by
    -(1/f) D).  ``derivative`` says what a derivative does to the kind:
    it vanishes on a "constant", takes the "chain" rule on Lam, and under
    covariantization is shifted by the weight ("shift"), passes
    unchanged ("exempt") or is "refused".  ``spin`` is the pair of open
    (left, right) spinor axes: a kind with one is a spinor chain item,
    and the matrices have both.  ``slot_groups`` are the groups of slots
    that may be permuted, with the sign an odd permutation gives, and a
    ``gradient`` (D) has its own index join the derivative indices over
    it: the entries of the slot-symmetry rule (``_slot_groups``).
    """
    sort_class: int
    slots: tuple
    weight: int | Fraction
    derivative: str
    spin: tuple[bool, bool] = (False, False)
    homogeneous: bool = True
    slot_groups: tuple = ()
    gradient: bool = False
    rank: int = 0


# declaration order over Kind, then CliffordKind
_RANKS = itertools.count()


class _AtomKind(Enum):
    """An atom kind: its value is its source name, and it carries its
    row, so reading the row hashes nothing; a kind, a singleton, hashes
    by identity, in C."""

    __hash__ = object.__hash__

    def __new__(cls, name: str, row: _KindRow):
        kind = object.__new__(cls)
        kind._value_ = name
        kind.row = row._replace(rank=next(_RANKS))
        return kind


class Kind(_AtomKind):
    METRIC = "g", _KindRow(3, (_SD, _SD), 2, "shift", slot_groups=_SYM)
    INV_METRIC = "ginv", _KindRow(3, (_SU, _SU), -2, "shift",
                                  slot_groups=_SYM)
    MINKOWSKI = "eta", _KindRow(3, (_FD, _FD), 0, "constant",
                                slot_groups=_SYM)
    MINKOWSKI_UP = "etainv", _KindRow(3, (_FU, _FU), 0, "constant",
                                      slot_groups=_SYM)
    DELTA = "delta", _KindRow(3, (_ANY_UP, _ANY_DN), 0, "constant")
    DET_FACTOR = "detg", _KindRow(2, (), 4, "refused")
    TETRAD = "eps", _KindRow(4, (_FU, _SD), 1, "shift")
    INV_TETRAD = "epsinv", _KindRow(4, (_FD, _SU), -1, "shift")
    SCALAR = "phi", _KindRow(5, (), -1, "shift")
    EM_VECTOR = "A", _KindRow(5, (_SD,), 0, "exempt")
    YM_VECTOR = "W", _KindRow(5, (_FU, _SD), 0, "exempt")
    WEYL_VECTOR = "S", _KindRow(5, (_SD,), 0, "refused", homogeneous=False)
    LOG_DERIV = "D", _KindRow(5, (_SD,), 0, "refused", gradient=True)
    STRUCTURE_CONST = "structf", _KindRow(5, (_FU, _FU, _FU), 0, "constant")
    LAMBDA_POWER = "Lam", _KindRow(1, (), 0, "chain")
    FERMION = "Psi", _KindRow(5, (), Fraction(-3, 2), "shift", (True, False))
    FERMION_BAR = "Psibar", _KindRow(5, (), Fraction(-3, 2), "shift",
                                     (False, True))


class CliffordKind(_AtomKind):
    """The constant spinor matrices; a density uses them undeclared."""
    IDENTITY = "one", _KindRow(6, (), 0, "constant", (True, True))
    GAMMA = "gamma", _KindRow(6, (_F,), 0, "constant", (True, True))
    SIGMA = "sigma", _KindRow(6, (_F, _F), 0, "constant", (True, True),
                              slot_groups=_ANTI)


class CouplingKind(_AtomKind):
    """The coupling constants, in the order their atoms sort."""
    E = "e", _KindRow(0, (), 0, "constant")
    F = "f", _KindRow(0, (), 0, "constant")
    G = "g", _KindRow(0, (), 0, "constant")
    LAMBDA = "lambda", _KindRow(0, (), 0, "constant")


class Expr:
    """Base class; arithmetic operators build loose trees for canonicalize."""

    __slots__ = ()

    def __add__(self, other):
        return Sum((self, _as_expr(other)))

    def __radd__(self, other):
        return Sum((_as_expr(other), self))

    def __sub__(self, other):
        return Sum((self, Product(CRat(-1), (_as_expr(other),))))

    def __rsub__(self, other):
        return Sum((_as_expr(other), Product(CRat(-1), (self,))))

    def __mul__(self, other):
        return Product(_UNIT, (self, _as_expr(other)))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CRat)):
            return Product(CRat.of(other), (self,))
        return Product(_UNIT, (_as_expr(other), self))

    def __neg__(self):
        return Product(CRat(-1), (self,))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 1:
            raise TypeError("expression powers are positive integers")
        return Product(_UNIT, (self,) * n)


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction, CRat)):
        return Product(CRat.of(v), ())
    raise TypeError(f"cannot coerce {v!r} to Expr")


@_hash_consed
class FieldAtom(Expr, _Interned):
    """The one factor of a flattened term: an atom with its slot indices,
    its power if it is a scalar (a rational for Lam, an integer for a
    coupling; an int and the equal Fraction give one atom) and the
    indices of the derivatives over it, outermost first, which a
    constant or Lam does not take."""
    kind: _AtomKind
    indices: tuple[Index, ...] = ()
    exponent: Optional[int | Fraction] = None
    derivs: tuple[Index, ...] = ()

    def __post_init__(self):
        row = self.kind.row
        pat = row.slots
        if len(pat) != len(self.indices):
            raise MalformedIndex(
                f"{self.kind.value} takes {len(pat)} indices, "
                f"got {len(self.indices)}")
        for ix, (alph, var) in zip(self.indices, pat):
            if alph is None:
                alph = self.indices[0].alphabet
            if ix.alphabet != alph or \
                    var is not None and ix.variance != var:
                raise MalformedIndex(
                    f"bad slot {ix.label} on {self.kind.value}")
        if row.sort_class > 1:
            if self.exponent is not None:
                raise MalformedIndex(
                    "exponent only valid on Lambda powers and couplings")
        elif self.exponent is None:
            raise MalformedIndex(("Lambda power" if row.sort_class else
                                  "coupling") + " needs an exponent")
        elif not row.sort_class and self.exponent.denominator != 1:
            raise MalformedIndex("coupling exponents are integers")
        if self.derivs:
            if row.derivative in ("constant", "chain"):
                raise MalformedIndex(
                    f"{self.kind.value} takes no derivative indices")
            if any((ix.alphabet, ix.variance) != _SD for ix in self.derivs):
                raise MalformedIndex(
                    "derivative index must be spacetime-lower")


# The coupling constants, in the order the numeric oracle draws their
# values: reordering them changes every seeded assignment.
_COUPLINGS = ("lambda", "f", "e", "g")


@dataclass(frozen=True, slots=True)
class Partial(Expr):
    """The input node of a derivative, built by ``d`` and the parser;
    flattening moves its index onto the atoms under it."""
    index: Index
    operand: Expr

    def __post_init__(self):
        if (self.index.alphabet, self.index.variance) != _SD:
            raise MalformedIndex("derivative index must be spacetime-lower")


@dataclass(frozen=True, slots=True)
class Product(Expr):
    """coeff times the factors, in order.  The factors whose kind row
    opens a spin axis, with or without derivatives, are the term's spinor
    chain, multiplied in the order given (optional Psibar, Clifford
    matrices, optional Psi); every other factor commutes.  A canonical
    Product lists its sorted commuting factors, then its chain."""
    coeff: CRat
    factors: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class Sum(Expr):
    terms: tuple[Expr, ...]
    # set only by ``canonicalize``, on the Sums it returns, and by
    # ``rewrite_terms``, on the Sum of the canonical terms it keeps and
    # builds
    _canonical: bool = field(default=False, init=False, compare=False,
                             repr=False)


ZERO = Sum(())
ONE = Product(_UNIT, ())


# ---------------------------------------------------------------------------
# atom builders (callers pass labels)

def _atom(kind: Kind | CliffordKind, *labels: str) -> Expr:
    """An atom whose row fixes every slot, its labels in slot order."""
    slots = kind.row.slots
    if len(labels) != len(slots):
        raise MalformedIndex(f"{kind.value} takes {len(slots)} indices, "
                             f"got {len(labels)}")
    return FieldAtom(kind, tuple(Index(lab, *slot)
                                 for lab, slot in zip(labels, slots)))


metric = functools.partial(_atom, Kind.METRIC)
inv_metric = functools.partial(_atom, Kind.INV_METRIC)
minkowski = functools.partial(_atom, Kind.MINKOWSKI)
minkowski_up = functools.partial(_atom, Kind.MINKOWSKI_UP)
det_factor = functools.partial(_atom, Kind.DET_FACTOR)
tetrad = functools.partial(_atom, Kind.TETRAD)
inv_tetrad = functools.partial(_atom, Kind.INV_TETRAD)
scalar_field = functools.partial(_atom, Kind.SCALAR)
em_vector = functools.partial(_atom, Kind.EM_VECTOR)
ym_vector = functools.partial(_atom, Kind.YM_VECTOR)
weyl_vector = functools.partial(_atom, Kind.WEYL_VECTOR)
log_deriv = functools.partial(_atom, Kind.LOG_DERIV)
structure_const = functools.partial(_atom, Kind.STRUCTURE_CONST)
fermion = functools.partial(_atom, Kind.FERMION)
fermion_bar = functools.partial(_atom, Kind.FERMION_BAR)
identity_spinor = functools.partial(_atom, CliffordKind.IDENTITY)


def delta(up_label: str, down_label: str,
          alphabet: Alphabet = Alphabet.SPACETIME) -> Expr:
    # internal atom produced by contraction; slots fixed as (upper, lower)
    return FieldAtom(Kind.DELTA,
                     (Index(up_label, alphabet, Variance.UP),
                      Index(down_label, alphabet, Variance.DOWN)))


def lam(k) -> Expr:
    return FieldAtom(Kind.LAMBDA_POWER, (), Fraction(k))


def coupling(name: str, power: int = 1) -> Expr:
    if name not in _COUPLINGS:
        raise MalformedIndex(f"unknown coupling {name!r}")
    return FieldAtom(CouplingKind(name), (), power)


def gamma(label: str, up: bool = True) -> Expr:
    return FieldAtom(CliffordKind.GAMMA,
                     (fr_up(label) if up else fr_lo(label),))


def sigma(l1: str, l2: str, up1: bool = True, up2: bool = True) -> Expr:
    i1 = fr_up(l1) if up1 else fr_lo(l1)
    i2 = fr_up(l2) if up2 else fr_lo(l2)
    return FieldAtom(CliffordKind.SIGMA, (i1, i2))


def d(label: str, operand: Expr) -> Expr:
    return Partial(st_lo(label), operand)


# ---------------------------------------------------------------------------
# structural keys

def _factor_key(f: FieldAtom) -> tuple:
    """Sort key of any factor or chain item; the class number leads, so
    atoms < derivatives, atoms sort by the class and rank of their
    kind's row, then power and indices, and a derivative by its atom's
    key, then its derivative indices."""
    exp = (0, 0) if f.exponent is None else \
        (f.exponent.numerator, f.exponent.denominator)
    row = f.kind.row
    key = (2, row.sort_class, row.rank, exp,
           tuple(ix.key() for ix in f.indices))
    if f.derivs:
        return (6, key, tuple(ix.key() for ix in f.derivs))
    return key


def _split_chain(factors: Iterable[FieldAtom]) -> tuple[list, list]:
    """(commuting factors, spinor chain) of a term: the chain is the
    items whose kind row opens a spin axis, in the order given."""
    plain, chain = [], []
    for f in factors:
        (chain if any(f.kind.row.spin) else plain).append(f)
    return plain, chain


def _term_facts(factors: tuple) -> tuple:
    """(sort key, free indices) of a term, computed once per factor tuple."""
    facts = _TERM_FACTS.get(factors)
    if facts is None:
        _make_room()
        key = tuple(tuple(_FACTOR_KEYS.get(f) or _FACTOR_KEYS.setdefault(
            f, _factor_key(f)) for f in part)
            for part in _split_chain(factors))
        frees = frozenset(occ[0] for occ in _label_census(factors).values()
                          if len(occ) == 1)
        facts = _TERM_FACTS[factors] = key, frees
    return facts


def _bare(f: FieldAtom) -> FieldAtom:
    return FieldAtom(f.kind, f.indices, f.exponent)


def _deriv_join(idxs: tuple[Index, ...], operand: Expr) -> Expr:
    """``operand`` under input derivatives, ``idxs`` outermost first."""
    for ix in reversed(idxs):
        operand = Partial(ix, operand)
    return operand


# ---------------------------------------------------------------------------
# slot traversal

def _slots_of_factor(f: FieldAtom) -> tuple[Index, ...]:
    """The derivative indices of a factor, then its atom's."""
    return f.derivs + f.indices


def _term_slot_list(factors: Iterable[FieldAtom]) -> list[Index]:
    return [ix for f in factors for ix in _slots_of_factor(f)]


def _label_census(factors: Iterable[Expr]) -> dict[str, list[Index]]:
    """label -> its occurrences over every slot of a term, derivative
    indices and chain items included: one makes a free index, two a
    dummy."""
    out: dict[str, list[Index]] = {}
    for ix in _term_slot_list(factors):
        out.setdefault(ix.label, []).append(ix)
    return out


def _fresh_label(prefix: str, taken) -> str:
    """The first ``<prefix>k`` not among the labels ``taken``."""
    k = 0
    while f"{prefix}{k}" in taken:
        k += 1
    return f"{prefix}{k}"


_GROUPS: dict[tuple, tuple] = {}


def _slot_groups(f: FieldAtom) -> tuple:
    """The slot-symmetry rule for one node: its slot positions (in
    ``_slots_of_factor`` order) partitioned into groups of
    interchangeable slots, each as (positions, sign of an odd
    permutation, class).  The class names the group for adjacency
    refinement: "s" for a group of an atom's slots, the position for a
    slot of its own, "d" for the derivative indices and "a" + the atom's
    class under a derivative.  Built once per (kind, derivative count)
    from the kind's row."""
    row = f.kind.row
    key = (row.rank, len(f.derivs))
    groups = _GROUPS.get(key)
    if groups is not None:
        return groups
    n, n_atom = len(f.derivs), len(row.slots)
    grouped = {p for pos, _ in row.slot_groups for p in pos}
    groups = tuple(sorted(
        [(pos, sign, "s") for pos, sign in row.slot_groups]
        + [((p,), 1, str(p)) for p in range(n_atom) if p not in grouped]))
    if n and row.gradient:
        groups = ((tuple(range(n + n_atom)), 1, "d"),)
    elif n:
        groups = ((tuple(range(n)), 1, "d"),) + tuple(
            (tuple(p + n for p in pos), sign, "a" + cls)
            for pos, sign, cls in groups)
    _GROUPS[key] = groups
    return groups


def _odd(order) -> bool:
    """Whether a sequence of distinct numbers is an odd permutation of
    its sorted order."""
    return sum(a > b for a, b in itertools.combinations(order, 2)) % 2 == 1


def _with_slots(f: FieldAtom, slots: list[Index]) -> FieldAtom:
    """The node ``f`` with its slots, in ``_slots_of_factor`` order,
    replaced by ``slots``."""
    n = len(f.derivs)
    return FieldAtom(f.kind, tuple(slots[n:]), f.exponent, tuple(slots[:n]))


def _rename_in_factor(f: FieldAtom, ren: dict[str, str], vanish=True):
    """Relabel one node by ``ren`` and put it in its one slot order: each
    group of ``_slot_groups`` sorted by ``Index.key``.  Returns (node,
    sign), the sign the sorting permutations give, or (None, 0) when the
    node vanishes, unless ``vanish`` is false: a label repeated in an
    antisymmetric group (equal variance: antisymmetry; mixed: the trace
    of an antisymmetric object).  With ``ren`` empty it only normalizes."""
    slots = [ix if ix.label not in ren else
             Index(ren[ix.label], ix.alphabet, ix.variance)
             for ix in _slots_of_factor(f)]
    if not slots:
        return f, 1
    sign = 1
    for pos, group_sign, _ in _slot_groups(f):
        if len(pos) < 2:
            continue
        members = [slots[p] for p in pos]
        order = sorted(range(len(pos)), key=lambda k: members[k].key())
        if group_sign < 0:
            if vanish and len({ix.label for ix in members}) < len(members):
                return None, 0
            if _odd(order):
                sign = -sign
        for p, k in zip(pos, order):
            slots[p] = members[k]
    return _with_slots(f, slots), sign


def _rename_term(factors: list, ren: dict[str, str]):
    """``_rename_in_factor`` over a term: (factors, sign), or (None, 0)
    when a node vanishes."""
    sign = 1
    renamed = []
    for f in factors:
        nf, s = _rename_in_factor(f, ren)
        if nf is None:
            return None, 0
        sign *= s
        renamed.append(nf)
    return renamed, sign


# ---------------------------------------------------------------------------
# flattening

def _flatten(e: Expr) -> list[tuple[CRat, list]]:
    """Distribute sums and derivatives; returns raw (coeff, atoms) pairs,
    each derivative moved onto a single atom.  A raw term's chain items
    keep their order, but need not come last.  A marked Sum's terms and a
    Product of atoms stand as they are."""
    if isinstance(e, Sum):
        if e._canonical:
            return [(t.coeff, list(t.factors)) for t in e.terms]
        return [t for u in e.terms for t in _flatten(u)]
    if isinstance(e, Product):
        if all(isinstance(f, FieldAtom) for f in e.factors):
            return [] if e.coeff.is_zero() else [(e.coeff, list(e.factors))]
        return [t for t in _distribute(e.coeff, e.factors)
                if not t[0].is_zero()]
    if isinstance(e, FieldAtom):
        return [(_UNIT, [e])]
    if isinstance(e, Partial):
        return _flatten_partial(e.index, e.operand)
    raise TypeError(f"cannot flatten {e!r}")


def _canonical_dummies(e: Expr) -> set[str]:
    """The dummy labels of the terms of the marked Sums in ``e``."""
    out, todo = set(), [e]
    while todo:
        e = todo.pop()
        if isinstance(e, Sum):
            if e._canonical:
                out.update(lab for t in e.terms
                           for lab, occ in _label_census(t.factors).items()
                           if len(occ) == 2)
            else:
                todo.extend(e.terms)
        elif isinstance(e, Product):
            todo.extend(e.factors)
        elif isinstance(e, Partial):
            todo.append(e.operand)
    return out


def _renamed_apart(sub: list, taken: set, clashing: set) -> list:
    """The flattened terms ``sub`` of a part that holds a marked Sum, each
    canonical dummy in ``clashing`` renamed to a label neither ``taken``
    nor the term holds.  The part's other labels are kept, so a label the
    caller repeats stays repeated; a term without a clash is kept whole."""
    out = []
    for c, fs in sub:
        census = _label_census(fs)
        clash = [lab for lab, occ in census.items()
                 if len(occ) == 2 and lab in clashing]
        if clash:
            used, ren = taken | census.keys(), {}
            for lab in clash:
                ren[lab] = _fresh_label(lab, used)
                used.add(ren[lab])
            fs, sign = _rename_term(fs, ren)
            c = c if sign == 1 else -c
        out.append((c, fs))
    return out


def _distribute(coeff: CRat, parts: tuple[Expr, ...]):
    """Multiply out the flattened parts of a product, in order, the
    clashing canonical dummies of a part that holds a marked Sum renamed
    apart.  A term grows as (earlier chain, factors of one part) pairs,
    joined once: n parts cost O(n), not O(n^2)."""
    subs = [_flatten(part) for part in parts]
    for k, part in enumerate(parts):
        dummies = _canonical_dummies(part)
        if dummies:
            taken = {ix.label for j, sub in enumerate(subs) if j != k
                     for _, fs in sub for ix in _term_slot_list(fs)}
            if clashing := taken & dummies:
                subs[k] = _renamed_apart(subs[k], taken, clashing)
    terms = [(coeff, None)]
    for sub in subs:
        terms = [(_times(c1, c2), (head, fs2))
                 for c1, head in terms for c2, fs2 in sub]
    out = []
    for c, head in terms:
        pieces = []
        while head is not None:
            head, fs = head
            pieces.append(fs)
        out.append((c, [f for fs in reversed(pieces) for f in fs]))
    return out


def _flatten_partial(ix: Index, operand: Expr):
    """Leibniz expansion; the derivative lands on single atoms, and a
    constant term has none.  Of equal commuting factors only the first
    is differentiated, times their count; each chain item, whose place
    matters, is differentiated where it stands."""
    out = []
    terms = _flatten(operand)
    if ix.label in _canonical_dummies(operand):
        terms = _renamed_apart(terms, {ix.label}, {ix.label})
    for coeff, factors in terms:
        plain, chain = _split_chain(factors)
        factors = plain + chain
        for pos, f in enumerate(factors):
            n = 1
            if pos < len(plain):
                if f in plain[:pos]:
                    continue
                n = plain.count(f)
            for dc, nodes in _derive_factor(ix, f):
                c = _times(coeff, dc) if n == 1 else coeff * dc * n
                out.append((c, factors[:pos] + nodes + factors[pos + 1:]))
    return out


def _derive_factor(ix: Index, f: FieldAtom):
    """The derivative of one factor or chain item: (coefficient, atoms
    in its place) pairs, none when it is constant."""
    rule = f.kind.row.derivative
    if rule == "constant" or rule == "chain" and f.exponent == 0:
        return ()
    if rule == "chain":
        # chain rule: the log derivative atom carries d ln(Lambda)
        return ((CRat(f.exponent), [f, FieldAtom(Kind.LOG_DERIV, (ix,))]),)
    return ((_UNIT, [FieldAtom(f.kind, f.indices, f.exponent,
                               (ix,) + f.derivs)]),)


# ---------------------------------------------------------------------------
# per-term canonicalization

def _validate_chain(items: list) -> None:
    """A spinor endpoint has one open axis: a conjugate spinor (open on
    the right) opens the block, a spinor (open on the left) closes it,
    and a term holds one bilinear at most."""
    spins = [it.kind.row.spin for it in items]
    n_bar = spins.count((False, True))
    n_psi = spins.count((True, False))
    if n_bar > 1 or n_psi > 1:
        raise MalformedChain("at most one spinor bilinear per term")
    for pos, (left, right) in enumerate(spins):
        if not left and pos != 0:
            raise MalformedChain("conjugate spinor must open its block")
        if not right and pos != len(items) - 1:
            raise MalformedChain("spinor must close its block")
    if n_bar != n_psi:
        raise MalformedChain("spinor blocks must be closed bilinears")


def _strip_identities(items: list) -> list:
    """The chain without its identity matrices, or one of them when
    nothing else is left."""
    kept = [it for it in items if it.kind is not CliffordKind.IDENTITY]
    return kept or items[:1]


def _refined_groups(factors: list, chain_items: list,
                    dummies: set[str]) -> list[list[Expr]]:
    """Partition factors into permutable tie groups: start from the key
    of each factor with its dummies renamed to "" (and then normalized,
    so no slot order chosen by a dummy's name survives) and iteratively
    split by the colors reached through dummy contractions.  Nodes that
    remain tied are (at worst) automorphic images, so the candidate
    enumeration stays tiny even for terms like the quartic Yang-Mills
    self-interaction."""
    erase = dict.fromkeys(dummies, "")
    keys = [_factor_key(_rename_in_factor(f, erase)[0]) for f in factors]
    rank_of = {k: r for r, k in enumerate(sorted(set(keys)))}
    color = [rank_of[k] for k in keys]

    # the two ends of each dummy as (node, class of its slot group), chain
    # item j as node -(j + 1); the slots of one group share a class, so
    # refinement cannot depend on which slot of it the input used
    ends: dict[str, list[tuple[int, str]]] = {}
    for i, f in itertools.chain(enumerate(factors), (
            (-(j + 1), it) for j, it in enumerate(chain_items))):
        slots = _slots_of_factor(f)
        for pos, _, cls in _slot_groups(f):
            for p in pos:
                if slots[p].label in dummies:
                    ends.setdefault(slots[p].label, []).append((i, cls))
    # each factor's contractions: (its class, other node, other class)
    adj: list[list] = [[] for _ in factors]
    for (na, ca), (nb, cb) in ends.values():
        if na >= 0:
            adj[na].append((ca, nb, cb))
        if nb >= 0:
            adj[nb].append((cb, na, ca))

    def node_color(n: int) -> int:  # chain nodes have fixed negative colors
        return color[n] if n >= 0 else n - len(factors)

    for _ in range(len(factors) + 1):
        sigs = [(color[i], tuple(sorted((ca, node_color(n), cb)
                                        for ca, n, cb in adj[i])))
                for i in range(len(factors))]
        new_rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new_color = [new_rank[s] for s in sigs]
        if len(set(new_color)) == len(set(color)):
            color = new_color
            break
        color = new_color

    buckets: dict[int, list[Expr]] = {}
    for i, f in enumerate(factors):
        buckets.setdefault(color[i], []).append(f)
    return [buckets[c] for c in sorted(buckets)]


# Partial candidates a search may extend before the term is refused: the
# quartic Yang-Mills term needs 47 and a closed 6-cycle of g and ginv 912
# in either spelling.  An 8-cycle needs 37 788 as written but is refused
# under some relabelings, and a 9-cycle, its namings mostly inequivalent,
# is refused as written.
_SEARCH_CAP = 50_000


def _dummy_name_pool(alphabet: Alphabet, count: int,
                     free_labels: set[str]) -> list[str]:
    """The first ``count`` canonical dummy names of an alphabet, skipping
    labels the term uses as frees: the k-th dummy of that alphabet met on
    a candidate's slot walk is named the k-th entry."""
    prefix = "mu" if alphabet == Alphabet.SPACETIME else "fa"
    names = []
    for k in itertools.count():
        if len(names) == count:
            return names
        cand = f"{prefix}{k}"
        if cand not in free_labels:
            names.append(cand)


def _orders(groups: list[list[str]]) -> Iterable[tuple[str, ...]]:
    """Each concatenation of one order of every group, generated lazily
    (``itertools.product`` would first store every order of each)."""
    if not groups:
        return iter([()])
    return (head + tail for head in itertools.permutations(groups[0])
            for tail in _orders(groups[1:]))


def _sorted_within(values: list, groups: list, key=None) -> list:
    """``values``, sorted within each list of places in ``groups``."""
    for places in groups:
        for p, v in zip(places, sorted([values[p] for p in places], key=key)):
            values[p] = v
    return values


def _least_candidate(factors: list, chain_items: list,
                     dummies: set[str], free_labels: set[str]):
    """Least key over the candidates of one prepared term.

    A candidate orders each tie group of ``_refined_groups`` (groups in
    color order) and, for every factor and chain item, its still unnamed
    dummies within each group of ``_slot_groups``; they are named per
    alphabet in that order.  Its key is the sorted tuple of its renamed
    node keys, the k-th chain item keyed ``(7, k, key)``, which sorts
    after every factor key.  Returns (sign, nodes) for the least key, or
    None when two least candidates differ in sign (the term equals its
    own negative).

    Candidates grow one node at a time.  Two partial candidates with the
    same residual (what is left to name, up to a relabeling of the
    dummies not yet named) have the same continuations, and adding equal
    keys to two sorted tuples keeps their order, so only the one whose
    keys sort least is kept; equal ones pool their signs.  So a factor
    or chain item without dummies, which names nothing and has one key
    wherever it goes, is left out of the search and sorted in at the
    end; a factor with one never repeats (a copy's dummy would meet its
    partner in the same variance).  Three rules keep the partial
    candidates few:

    1. A slot group of sign +1 is sorted, so its new dummies, if two or
       more and each met once in the node, take the next names of their
       alphabet as a set.  ``ren`` maps such a pending dummy to the names
       its set has left, which a later node holding it branches over,
       and a named dummy to its one name.  ``sigma``'s antisymmetric
       group and a group with a dummy met twice in its node are named in
       every order.
    2. A node whose dummies are all named or pending names nothing new
       wherever it goes, so one such node is placed at once: the one
       whose least possible key is least.
    3. After a placement that leaves several states, a state whose lower
       bound is above another's upper bound cannot win and is dropped.
       A bound keys each unplaced node with the least (greatest) name
       each dummy can still get and sorts these keys in with the placed
       ones; sorting is monotone, so every completion lies within.

    Each combination of names and orders tried for a node is one
    extension; the search raises MalformedIndex after ``_SEARCH_CAP``.

    The result depends only on ``factors`` and ``chain_items``: the
    dummies and free labels are read off them.  So ``_canonical_term``
    searches a term's non-scalar factors once and keeps the result in
    the term cache, under those factors and under the result's own
    (with sign +1).
    """
    slots = _term_slot_list(factors + chain_items)
    alphabet_of = {ix.label: ix.alphabet for ix in slots
                   if ix.label in dummies}
    pools = {a: _dummy_name_pool(
        a, sum(1 for b in alphabet_of.values() if b == a), free_labels)
        for a in Alphabet}
    chain_at = {it: k for k, it in enumerate(chain_items)}

    def used(ren, a):  # the names of alphabet a given or held by sets
        return sum(1 for x in ren if alphabet_of[x] == a)

    def member(f):
        # members of one group differ only in their dummies, since the
        # tie key they share keeps free labels
        slots = _slots_of_factor(f)
        at = [p for p, ix in enumerate(slots) if ix.label in dummies]
        labels = tuple(slots[p].label for p in at)
        seen, groups, sym = {}, [], []
        for pos, sign, _ in _slot_groups(f):
            if sign > 0 and sum(p in pos for p in at) > 1:
                sym.append([k for k, p in enumerate(at) if p in pos])
            labs = [lab for lab in dict.fromkeys(slots[p].label for p in pos)
                    if lab in dummies and lab not in seen]
            seen.update(dict.fromkeys(labs))
            groups.append((labs, sign > 0 and all(
                labels.count(lab) == 1 for lab in labs)))
        return f, seen, labels, sym, groups

    # one step per tie group holding dummies, then one per chain item
    # holding one.  A step is its members: a member is a node, its dummy
    # labels in first-sight and slot order, the places in the latter of
    # each +1 group, and per group its new labels and if they form a set.
    # The nodes without dummies are keyed once and sorted in at the end.
    steps, blocks = [], []
    for g in _refined_groups(factors, chain_items, dummies):
        members = tuple(map(member, g))
        if members[0][1]:
            steps.append(members)
        else:
            blocks += [(_factor_key(f), f) for f in g]
    for k, it in enumerate(chain_items):
        m = member(it)
        if m[1]:
            steps.append((m,))
        else:
            blocks.append(((7, k, _factor_key(it)), it))
    node_of = dict(blocks)

    def unplaced(t, left):
        """(step, member) of each node not placed in step t on."""
        for t2 in range(t, len(steps)):
            for m in left if t2 == t else steps[t2]:
                yield t2, m

    def residual(t, left, ren):
        """What is left to name from step t on, up to a relabeling of the
        unnamed dummies: equal residuals have equal continuations.  Rows
        are (step, then one entry per dummy slot: its names in ``ren``, or
        the order of first sight of an unnamed dummy), each slot group of
        sign +1 a sorted multiset, sorted by step and names, and then by
        the numbers already given."""
        named, place, out, rows = ren.get, {}, [], []
        for t2, (_, _, labels, sym, _) in unplaced(t, left):
            partial = _sorted_within([named(lab, ()) for lab in labels], sym)
            rows.append((t2, partial, labels, sym))
        rows.sort(key=lambda row: row[:2])
        for _, tied in itertools.groupby(rows, key=lambda row: row[:2]):
            tied = list(tied)
            if len(tied) > 1:
                tied.sort(key=lambda row: [place.get(lab, len(place))
                                           for lab in row[2]
                                           if lab not in ren])
            for t2, _, labels, sym in tied:
                out.append(t2)
                out.extend(_sorted_within(
                    [named(lab) or place.setdefault(lab, len(place))
                     for lab in labels], sym,
                    lambda e: (e.__class__ is int, e)))
        return tuple(out)

    def extend(ren, waiting, picks, order):
        """(renaming, names the node shows) once a node gives ``picks`` to
        its pending dummies ``waiting`` and sets in ``order`` to new ones."""
        ren2, shown = dict(ren), dict(zip(waiting, picks))
        if picks:
            for lab, names in ren.items():
                if len(names) > 1:
                    ren2[lab] = (shown[lab],) if lab in shown else tuple(
                        x for x in names if x not in picks)
        for item in order:
            a = alphabet_of[item[0]]
            k = used(ren2, a)
            names = tuple(pools[a][k:k + len(item)])
            ren2.update(dict.fromkeys(item, names))
            shown.update(zip(item, names))
        return ren2, shown

    keyings: dict = {}

    def keyed(m, names):
        """(key, node, sign) of member m with its dummies, in first-sight
        order, named ``names``.  A bound may give two dummies one name, so
        the node's groups are sorted without the vanishing test."""
        f, seen = m[:2]
        got = keyings.get((f, names))
        if got is None:
            node, sign = _rename_in_factor(f, dict(zip(seen, names)),
                                           vanish=False)
            key = _factor_key(node)
            got = keyings[f, names] = (
                key if f not in chain_at else (7, chain_at[f], key),
                node, sign)
        return got

    def bound(pick, t, left, ren, keys):
        """Rule 3's lower (``pick`` min) or upper (max) bound of a state."""
        spare = {a: pick(pool[k:]) for a, pool in pools.items()
                 if (k := used(ren, a)) < len(pool)}
        return sorted(keys + tuple(keyed(m, tuple(
            pick(ren[lab]) if lab in ren else spare[alphabet_of[lab]]
            for lab in m[1]))[0] for _, m in unplaced(t, left)))

    # residual -> [unplaced members of the step, renaming, sorted keys,
    # signs]
    states: dict = {(): [(), {}, (), {1}]}
    visited = 0
    for t, members in enumerate(steps):
        for st in states.values():
            st[0] = members
        for _ in members:
            grown: dict = {}
            for left, ren, keys, signs in states.values():
                closed = [(keyed(m, tuple(min(ren[lab]) for lab in m[1]))[0],
                           i) for i, m in enumerate(left)
                          if m[1].keys() <= ren.keys()]
                for i in [min(closed)[1]] if closed else range(len(left)):
                    _, seen, _, _, groups = m = left[i]
                    rest = left[:i] + left[i + 1:]
                    waiting = [lab for lab in seen
                               if len(ren.get(lab, ())) > 1]
                    picks = (p for p in itertools.product(
                        *map(ren.get, waiting)) if len(set(p)) == len(p))
                    fresh = []
                    for labs, as_set in groups:
                        new = tuple(lab for lab in labs if lab not in ren)
                        fresh.append([new] if as_set and len(new) > 1
                                     else [(lab,) for lab in new])
                    for pick, order in ((p, o) for p in picks
                                        for o in _orders(fresh)):
                        visited += 1
                        if visited > _SEARCH_CAP:
                            raise MalformedIndex(
                                "term too symmetric to canonicalize")
                        ren2, shown = extend(ren, waiting, pick, order)
                        key, node, s = keyed(m, tuple(
                            shown.get(lab) or ren2[lab][0] for lab in seen))
                        node_of[key] = node
                        keys2 = keys + (key,)
                        if keys and key < keys[-1]:
                            keys2 = tuple(sorted(keys2))
                        sg = {x * s for x in signs}
                        k = residual(t, rest, ren2)
                        old = grown.get(k)
                        if old is None or keys2 < old[2]:
                            grown[k] = [rest, ren2, keys2, sg]
                        elif keys2 == old[2]:
                            old[3] |= sg
            states = grown
            if len(states) > 1:
                low = {k: bound(min, t, *st[:3]) for k, st in states.items()}
                high = bound(max, t, *states[min(low, key=low.get)][:3])
                states = {k: st for k, st in states.items() if low[k] <= high}

    # complete candidates leave an empty residual, and the state with the
    # least lower bound is never dropped: one state
    (_, _, keys, signs), = states.values()
    if len(signs) != 1:
        return None
    sign, = signs
    return sign, tuple(node_of[k] for k in sorted(
        keys + tuple(key for key, _ in blocks)))


_TERM_CACHE: dict = {}
_TERM_CACHE_LIMIT = 200_000
_VANISHES = object()
# memos of pure functions, emptied with the term cache: factor tuple ->
# ``_term_facts``, factor -> ``_factor_key``, (map, SPACETIME_DIM,
# skeleton) -> the canonical terms of the map's image of the skeleton,
# or None when the map keeps it (``rewrite_terms``)
_TERM_FACTS, _FACTOR_KEYS, _IMAGES = {}, {}, {}
_MEMOS = [_TERM_FACTS, _FACTOR_KEYS, _IMAGES]


def _make_room() -> None:
    """Empty the term cache and every memo once one of them is full."""
    if max(map(len, _MEMOS + [_TERM_CACHE])) >= _TERM_CACHE_LIMIT:
        _TERM_CACHE.clear()
        for memo in _MEMOS:
            memo.clear()


def _canonical_term(coeff: CRat, factors: list):
    """Unique representative of one product term: (coeff, canonical
    factors), or None when the term vanishes.  The scalars are split off
    and merged per kind; the other factors, in the order given, key the
    term cache, which holds their sign and canonical factors.  A
    canonical result is the least candidate of its own search, reached
    with the sign it carries, so it is cached as its own representative
    too.  Scalars key before every other factor, so, sorted among
    themselves, they lead the canonical factors."""
    if coeff.is_zero():
        return None
    powers: dict = {}
    rest = []
    for f in factors:
        if f.exponent is None:
            rest.append(f)
        else:
            powers[f.kind] = powers.get(f.kind, 0) + f.exponent
    key = tuple(rest)
    found = _TERM_CACHE.get(key)
    if found is None:
        _make_room()
        found = _VANISHES
        prep = _prepare_term(rest)
        if prep is not None:
            plain, chain_items, sign0, dummies, free_labels = prep
            best = _least_candidate(plain, chain_items, dummies, free_labels)
            if best is not None:
                found = (sign0 * best[0], best[1])
        _TERM_CACHE[key] = found
        if found is not _VANISHES:
            _TERM_CACHE[found[1]] = (1, found[1])
    if found is _VANISHES:
        return None
    sign, out = found
    if powers:
        out = _scalar_atoms(powers) + out
    return coeff if sign == 1 else -coeff, out


def _scalar_atoms(powers: dict) -> tuple:
    """The scalars of a canonical term, one atom per kind with a nonzero
    power: kind -> power, sorted by ``_factor_key``."""
    return tuple(sorted((FieldAtom(kind, (), p) for kind, p in
                         powers.items() if p), key=_factor_key))


def _prepare_term(factors: list):
    """Everything a candidate search needs from one term without
    scalars: (commuting factors, chain items, sign, dummy labels, free
    labels), or None when an atom vanishes identically."""
    factors, chain_items = _split_chain(factors)
    chain_items = _strip_identities(chain_items)
    _validate_chain(chain_items)

    # pre-normalize atoms first: identically vanishing atoms (equal-label
    # sigma slots) zero the term before index pairing is judged
    nodes, sign0 = _rename_term(factors + chain_items, {})
    if not sign0:
        return None
    factors, chain_items = nodes[:len(factors)], nodes[len(factors):]

    dummies: set[str] = set()
    free_labels: set[str] = set()
    for lab, occ in _label_census(nodes).items():
        if len(occ) == 1:
            free_labels.add(lab)
        elif len(occ) == 2:
            a, b = occ
            if a.alphabet != b.alphabet:
                raise MalformedIndex(
                    f"repeated index {lab!r} mixes alphabets")
            if {a.variance, b.variance} != {Variance.UP, Variance.DOWN}:
                raise MalformedIndex(
                    f"repeated index {lab!r} must pair upper with lower")
            dummies.add(lab)
        else:
            raise MalformedIndex(f"index {lab!r} appears {len(occ)} times")
    return factors, chain_items, sign0, dummies, free_labels


def canonicalize(e: Expr) -> Sum:
    """Normal form: a Sum of coefficient-carrying Products with sorted
    factors, canonical dummy labels and like terms collected.  The Sum
    returned is marked canonical, and a marked Sum is returned as is.
    The terms of a marked Sum in ``e``, bare or times a number, are
    their own representatives (sign +1) and are added as they stand."""
    if isinstance(e, Sum) and e._canonical:
        return e
    bucket: dict[tuple, CRat] = {}

    def collect(e: Expr, coeff: CRat) -> None:
        while isinstance(e, Product) and len(e.factors) == 1:
            coeff, e = _times(coeff, e.coeff), e.factors[0]
        if isinstance(e, Sum) and not e._canonical:
            for u in e.terms:
                collect(u, coeff)
            return
        if isinstance(e, Sum):
            terms = [(_times(coeff, t.coeff), t.factors) for t in e.terms]
        else:
            terms = filter(None, (_canonical_term(_times(coeff, c), fs)
                                  for c, fs in _flatten(e)))
        for c, fs in terms:
            old = bucket.get(fs)
            bucket[fs] = c if old is None else old + c

    collect(_as_expr(e), _UNIT)
    terms = [(_term_facts(fs), c, fs) for fs, c in bucket.items()
             if not c.is_zero()]
    if len({frees for (_, frees), _, _ in terms}) > 1:
        raise MalformedIndex("terms of a sum carry different free indices")
    terms.sort(key=lambda t: t[0][0])
    out = Sum(tuple(Product(c, fs) for _, c, fs in terms))
    object.__setattr__(out, "_canonical", True)
    return out


def free_indices(e: Expr) -> frozenset[Index]:
    s = canonicalize(e)
    if not s.terms:
        return frozenset()
    return _term_facts(s.terms[0].factors)[1]


def is_zero(e: Expr) -> bool:
    return not canonicalize(e).terms


def equal(a: Expr, b: Expr) -> bool:
    """Structural equality of canonical forms."""
    return canonicalize(a) == canonicalize(b)


# ---------------------------------------------------------------------------
# term rewriting

def _split_scalars(factors: tuple) -> tuple[tuple, tuple]:
    """(scalars, skeleton) of a canonical term's factors: the scalars
    lead, so the skeleton is what follows the last atom with a power."""
    k = 0
    while k < len(factors) and factors[k].exponent is not None:
        k += 1
    return factors[:k], factors[k:]


def _with_scalars(scalars: tuple, factors: tuple) -> tuple:
    """The canonical factors ``factors`` times the scalar atoms
    ``scalars``: powers of one kind add and zero powers drop."""
    if not scalars:
        return factors
    own, skeleton = _split_scalars(factors)
    powers = {f.kind: f.exponent for f in own}
    for f in scalars:
        powers[f.kind] = powers.get(f.kind, 0) + f.exponent
    return _scalar_atoms(powers) + skeleton


_MISSING = object()


def rewrite_terms(e: Expr, fn: Callable[[Product], Optional[Expr]]) -> Sum:
    """The one term-map pass: canonicalize, map each canonical term's
    skeleton (its factors after the scalars, with coefficient 1) through
    fn (None keeps the term), canonicalize the result.

    fn must not read a term's coefficient or scalars, which carry no
    index: the term's coefficient multiplies each term of the image and
    its scalars join each term's own.  So the canonical terms of an
    image are kept in ``_IMAGES`` under (fn, ``SPACETIME_DIM``,
    skeleton), and a skeleton met again, in this call or a later one
    with the same fn object, is neither mapped nor searched again.  A
    call that changes no term returns the canonical form itself."""
    s = canonicalize(e)
    split = [_split_scalars(t.factors) for t in s.terms]
    keys = [(fn, SPACETIME_DIM, skeleton) for _, skeleton in split]
    images = [_IMAGES.get(key, _MISSING) for key in keys]
    # every new skeleton is mapped before any image is canonicalized,
    # so a map's error comes first, as when whole terms were mapped
    mapped = {}
    for key, image in zip(keys, images):
        if image is _MISSING and key not in mapped:
            mapped[key] = fn(Product(_UNIT, key[2]))
    for key, r in mapped.items():
        image = None if r is None else canonicalize(r).terms
        _make_room()
        mapped[key] = _IMAGES[key] = image
    if mapped:
        images = [mapped.get(key, image) for key, image in zip(keys, images)]
    if all(image is None for image in images):
        return s
    out = []
    for t, (scalars, _), image in zip(s.terms, split, images):
        if image is None:
            out.append(t)
        else:
            out += [Product(_times(t.coeff, u.coeff),
                            _with_scalars(scalars, u.factors))
                    for u in image]
    # canonical terms, marked so that canonicalize adds them as they
    # stand; it collects like terms and puts them in order
    done = Sum(tuple(out))
    object.__setattr__(done, "_canonical", True)
    return canonicalize(Sum((done,)))


def count_atoms(e: Expr, kind: Kind) -> int:
    """Total occurrences of an atom kind across all canonical terms."""
    return sum(f.kind is kind for t in canonicalize(e).terms
               for f in t.factors)


def set_coupling(e: Expr, name: str, value) -> Sum:
    """Fold a named coupling into the numeric coefficients.

    value may be an int, Fraction, or CRat.  An unknown coupling name,
    and a zero value against a negative power, are rejected.  This is
    the one map that reads a scalar, so it is a pass of its own: each
    canonical term loses its coupling atom, whose value joins the
    coefficient, and the rest, canonical already, is found in the term
    cache."""
    val = value if isinstance(value, CRat) else CRat.of(Fraction(value))
    kind = coupling(name).kind
    s = canonicalize(e)
    if not any(f.kind is kind for t in s.terms for f in t.factors):
        return s
    terms = []
    for t in s.terms:
        coeff = t.coeff
        for f in t.factors:
            if f.kind is kind:
                if f.exponent < 0 and val.is_zero():
                    raise ZeroDivisionError(
                        f"coupling {name!r} at power {f.exponent} set to "
                        f"zero")
                # the live atom of an int power may hold the equal Fraction
                coeff = coeff * val ** int(f.exponent)
        terms.append(Product(coeff, tuple(f for f in t.factors
                                          if f.kind is not kind)))
    return canonicalize(Sum(tuple(terms)))
