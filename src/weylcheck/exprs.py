"""Expression core for indexed field densities.

Expressions are immutable trees built from atoms, partial derivatives,
products and sums.  A flattened or canonical term has one shape,
``Product(coeff, factors)``: a coefficient times atoms.  Every factor is
a ``FieldAtom``: an indexed field, a constant spinor matrix (gamma,
sigma, one), Lam or a coupling constant, whose kind is a
``CouplingKind`` and whose ``exponent`` is its power, as Lam's is.  A
derivative of an atom is the atom with its derivative indices
(``derivs``); ``Partial`` is only the input node that ``d``, and the
parser for an operand other than a lone atom, build, and flattening
moves its index onto the atoms.  The factors whose kind opens a spin axis
are the term's spinor chain, in the order given, and the rest commute.
Coefficients are exact Gaussian rationals; no floats enter the symbolic
layer.  ``canonicalize`` maps every expression to a unique normal form:
sums flattened and sorted, products flattened with commuting factors in
a fixed class order and the chain after them, like terms collected, and
dummy indices renamed to a canonical sequence.  Structural equality of
canonical forms is the engine's notion of equality.

What the engine knows about an atom's kind, a declared field, one of the
Clifford matrices or a coupling, is one row declared with the kind
(``kind.row``): its sort class, slots, Weyl weight, derivative rule, spin
and slot symmetries.  Every module and builder reads that row; there is
no other atom class and no table of kinds.

Deterministic work is done once per process.  A term is a coefficient,
its riders and its indexed core (``_split_riders``).  The riders are the
scalars (the couplings and Lam, the atoms with an exponent) and the
index-free atoms (``phi``, ``detg``, without derivatives): they carry no
index and are never in the chain, so they do not steer the canonical
search, and every per-term memo is kept per core, the riders joined on
(``_with_riders``, the one place where scalar powers are added:
scalars merged by kind, index-free atoms sorted in).  The term cache
(``_TERM_CACHE``) maps a core, in the order given, to its sign and
canonical factors and holds no rider, so ``f^k * Lam^w * phi^j * X``
finds the entry of ``X`` for every k, w and j, and only a core is ever
searched.  A term map sees only a term's core, with coefficient 1, and
the canonical terms of its image are kept under (map,
``SPACETIME_DIM``, core), so a core is mapped and searched once per map
object under any riders.  A canonical term's sort key and free indices
(``_term_facts``) are kept per core too.  Every memo, here and in the
other layers (the renderer's per-atom texts, the parser's factor and
statement spellings, a check's per-core values, the oracle's
contraction steps), is a ``_Memo``: a dict that computes a value on a
miss, or is filled by the code that makes its values, and makes room
before every store.  Room is made in one place, ``_make_room``: once
the term cache or any memo is full, all of them are emptied together.

Every engine function accepts any ``Expr`` and returns a canonical
``Sum``.  Only ``canonicalize``, on the Sums it returns, and the passes
that join riders to canonical terms, on the Sums they hand it, mark a
Sum canonical.  ``canonicalize`` hands a marked Sum back unchanged and
adds the terms of one inside a larger expression as they stand, so
composing engine outputs puts no term in canonical form again.
``rewrite_terms`` is the one pass that maps the terms of a canonical
form: the term's coefficient multiplies each term of its core's image,
and its riders are joined to each one's.  The engines supply only the
map, a module-level function or one object per parameter set, so that a
later call finds its images again.  ``set_coupling``, the one map that
reads a scalar, is a direct pass of its own.

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

import bisect
import functools
import itertools
import math
import operator
import weakref
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum, IntEnum
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import MalformedChain, MalformedIndex, WeylcheckError

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
            args += tuple(kwargs.pop(name, default) for name, default in zip(
                cls.__match_args__[len(args):], cls._defaults[len(args):]))
            if kwargs or MISSING in args:
                raise TypeError(f"{cls.__name__} takes {cls.__match_args__}")
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
    cls._defaults = tuple(f.default for f in fields(cls) if f.init)
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


def _part(v) -> int | Fraction:
    """A coefficient part in its one form: an int when it is integral,
    otherwise a Fraction."""
    v = v if isinstance(v, Fraction) else Fraction(v)
    return v.numerator if v.denominator == 1 else v


class CRat:
    """Gaussian rational coefficient (exact real and imaginary parts).

    Each part is an int when it is integral and a Fraction otherwise, so
    the common coefficients compute in C.  A CRat is immutable, so one
    instance may be shared: the flattener and the parser hand out the one
    unit ``_UNIT`` for every bare atom and plain derivative, and
    ``_times`` compares with it by ``is`` to skip the product."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is int else _part(re))
        object.__setattr__(self, "im", im if type(im) is int else _part(im))

    def __setattr__(self, *a):
        raise AttributeError("CRat is immutable")

    def __reduce__(self):
        # through the constructor: the default restore sets the slots
        return CRat, (self.re, self.im)

    @staticmethod
    def of(v) -> "CRat":
        """v as a CRat, or NotImplemented for an Expr, so that an
        operator hands over to the Expr's reflected one."""
        if isinstance(v, CRat):
            return v
        if isinstance(v, Expr):
            return NotImplemented
        return CRat(v)

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
        return CRat(Fraction(self.re * o.re + self.im * o.im, n),
                    Fraction(self.im * o.re - self.re * o.im, n))

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
        return not (self.re or self.im)

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
    constant or Lam does not take.  ``rides``, set from these, says
    whether it is a rider: an atom without derivatives, slots or spin
    axes (``_split_riders``)."""
    kind: _AtomKind
    indices: tuple[Index, ...] = ()
    exponent: Optional[int | Fraction] = None
    derivs: tuple[Index, ...] = ()
    rides: bool = field(default=False, init=False, repr=False)

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
        object.__setattr__(self, "rides", not (
            self.derivs or pat or any(row.spin)))


# The coupling constants, in the order the numeric oracle draws their
# values: reordering them changes every seeded assignment.
_COUPLINGS = ("lambda", "f", "e", "g")


@dataclass(frozen=True, slots=True)
class Partial(Expr):
    """The input node of a derivative, built by ``d`` and by the parser
    for an operand other than a lone atom; flattening moves its index
    onto the atoms under it."""
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
# per-process memos

# The term cache (``_canonical_term``) and every memo (a ``_Memo``, listed
# in ``_MEMOS`` as it is made, in this module and in ``dsl``, ``scale``
# and ``oracle``) are emptied together, in one place (``_make_room``).
_TERM_CACHE: dict = {}
_TERM_CACHE_LIMIT = 200_000
_MEMOS: list = []


def _make_room() -> None:
    """Empty the term cache and every memo once one of them is full."""
    if max(map(len, _MEMOS + [_TERM_CACHE])) >= _TERM_CACHE_LIMIT:
        _TERM_CACHE.clear()
        for memo in _MEMOS:
            memo.clear()


class _Memo(dict):
    """A per-process memo of deterministic work.  ``_Memo(fn)`` computes
    ``fn(key)`` on a miss, so a hit is one dict lookup, in C; a
    ``_Memo()`` is filled by the code that makes its values.  Every
    store makes room first (``_make_room``)."""

    def __init__(self, fn: Optional[Callable] = None):
        self.fn = fn
        _MEMOS.append(self)

    def __missing__(self, key):
        if self.fn is None:
            raise KeyError(key)
        value = self[key] = self.fn(key)
        return value

    def __setitem__(self, key, value):
        _make_room()
        dict.__setitem__(self, key, value)


# ---------------------------------------------------------------------------
# structural keys

def _factor_key(f: FieldAtom) -> tuple:
    """Sort key of any factor or chain item: 6 for a derivative (after
    every atom's 2), then 2, the class and rank of its kind's row, its
    power as (numerator, denominator), and the keys of its indices and
    of its derivative indices.  So a derivative sorts by its atom's key,
    then its derivative indices."""
    row = f.kind.row
    exp = (0, 0) if f.exponent is None else \
        (f.exponent.numerator, f.exponent.denominator)
    return ((6,) if f.derivs else ()) + (2, row.sort_class, row.rank) \
        + exp + tuple(ix.key() for ix in f.indices + f.derivs)


def _split_chain(factors: Iterable[FieldAtom]) -> tuple[list, list]:
    """(commuting factors, spinor chain) of a term: the chain is the
    items whose kind row opens a spin axis, in the order given."""
    plain, chain = [], []
    for f in factors:
        (chain if any(f.kind.row.spin) else plain).append(f)
    return plain, chain


# factor -> its ``_factor_key``, computed once per atom
_FACTOR_KEYS = _Memo(_factor_key)
_key_of = _FACTOR_KEYS.__getitem__


def _split_riders(factors: Iterable[FieldAtom]) -> tuple[tuple, tuple]:
    """(riders, core) of a term: the scalars, then the other riders, then
    the rest, each in the order given.  A rider (``FieldAtom.rides``) is
    a scalar or an index-free atom (``phi``, ``detg``) without
    derivatives.  It names nothing, is never in the chain and does not
    steer the canonical search, so the per-term memos are kept per core
    and the riders joined on (``_with_riders``)."""
    scalars, bare, core = [], [], []
    for f in factors:
        if not f.rides:
            core.append(f)
        elif f.exponent is None:
            bare.append(f)
        else:
            scalars.append(f)
    return tuple(scalars + bare), tuple(core)


def _term_facts(factors: tuple) -> tuple:
    """(sort key, free indices) of a canonical term: the keys of its
    commuting factors and of its chain, and the labels met once.  They
    are kept per core; the riders carry no index and are never in the
    chain, so a term with riders has its core's free indices and chain
    keys, and the keys of the factors before its chain."""
    riders, core = _split_riders(factors)
    facts = _TERM_FACTS[core]
    if riders:
        (_, chain), frees = facts
        facts = (tuple(map(_key_of, factors[:len(factors) - len(chain)])),
                 chain), frees
    return facts


def _core_facts(core: tuple) -> tuple:
    """``_term_facts`` of a canonical core."""
    return (tuple(tuple(map(_key_of, part)) for part in _split_chain(core)),
            frozenset(occ[0] for occ in _label_census(core).values()
                      if len(occ) == 1))


# core -> its ``_term_facts``
_TERM_FACTS = _Memo(_core_facts)


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


def _slot_groups(f: FieldAtom) -> tuple:
    """The slot-symmetry rule for one node: its slot positions (in
    ``_slots_of_factor`` order) partitioned into groups of
    interchangeable slots, each as (positions, sign of an odd
    permutation, class).  The class names the group for adjacency
    refinement: "s" for a group of an atom's slots, the position for a
    slot of its own, "d" for the derivative indices and "a" + the atom's
    class under a derivative.  Built once per (kind, derivative count)
    from the kind's row (``_GROUPS``)."""
    return _GROUPS[f.kind, len(f.derivs)]


def _kind_groups(key: tuple) -> tuple:
    """``_slot_groups`` of a node of kind ``kind`` under n derivatives,
    ``key`` being (kind, n)."""
    row, n = key[0].row, key[1]
    n_atom = len(row.slots)
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
    return groups


# (kind, derivative count) -> its ``_slot_groups``
_GROUPS = _Memo(_kind_groups)


def _odd(order) -> bool:
    """Whether a sequence of distinct numbers is an odd permutation of
    its sorted order."""
    return sum(a > b for a, b in itertools.combinations(order, 2)) % 2 == 1


def _with_slots(f: FieldAtom, slots: list[Index]) -> FieldAtom:
    """The node ``f`` with its slots, in ``_slots_of_factor`` order,
    replaced by ``slots``."""
    n = len(f.derivs)
    return FieldAtom(f.kind, tuple(slots[n:]), f.exponent, tuple(slots[:n]))


def _rename_in_factor(f: FieldAtom, ren: dict[str, str]):
    """Relabel one node by ``ren`` and put it in its one slot order: each
    group of ``_slot_groups`` sorted by ``Index.key``.  Returns (node,
    sign), the sign the sorting permutations give, or (None, 0) when the
    node vanishes: a label repeated in an antisymmetric group (equal
    variance: antisymmetry; mixed: the trace of an antisymmetric
    object).  With ``ren`` empty it only normalizes."""
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
            if len({ix.label for ix in members}) < len(members):
                return None, 0
            if _odd(order):
                sign = -sign
        for p, k in zip(pos, order):
            slots[p] = members[k]
    return _with_slots(f, slots), sign


def _rename_term(factors: list, ren: dict[str, str]):
    """``_rename_in_factor`` over a term: (factors, sign), or (None, 0)
    when a node vanishes."""
    renamed = [_rename_in_factor(f, ren) for f in factors]
    sign = math.prod(s for _, s in renamed)
    return ([f for f, _ in renamed] if sign else None), sign


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


def _written(e: Expr) -> tuple[bool, set[str]]:
    """(whether a marked Sum occurs in ``e``, the labels ``e`` writes
    outside its marked Sums)."""
    marked, labels, todo = False, set(), [e]
    while todo:
        e = todo.pop()
        if isinstance(e, Sum):
            if e._canonical:
                marked = True
            else:
                todo.extend(e.terms)
        elif isinstance(e, Product):
            todo.extend(e.factors)
        elif isinstance(e, Partial):
            labels.add(e.index.label)
            todo.append(e.operand)
        elif isinstance(e, FieldAtom):
            labels.update(ix.label for ix in _slots_of_factor(e))
    return marked, labels


def _renamed_apart(sub: list, taken: set, clashing: set) -> list:
    """The flattened terms ``sub`` of a part that holds a marked Sum, each
    dummy in ``clashing`` renamed to a label neither ``taken`` nor the
    term holds.  The caller passes the dummies it did not write: those of
    the marked Sums and those an inner product minted renaming them
    apart.  The part's other labels are kept, so a label the caller
    repeats stays repeated; a term without a clash is kept whole."""
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


# A product whose parts multiply out to more raw terms than this is
# refused before any is built: 24 factors `d[m](phi + phi^2)` would build
# 2^24.  The builtins, the goldens, the generated densities and the
# oracle's catalog build 9 at most.
_MAX_PRODUCT_TERMS = 100_000


def _distribute(coeff: CRat, parts: tuple[Expr, ...]):
    """Multiply out the flattened parts of a product, in order, the
    clashing dummies of a part that holds a marked Sum renamed apart,
    except labels the part writes.  A term grows as (earlier chain,
    factors of one part) pairs, joined once: n parts cost O(n), not
    O(n^2)."""
    subs = [_flatten(part) for part in parts]
    if math.prod(map(len, subs)) > _MAX_PRODUCT_TERMS:
        raise WeylcheckError(f"a product multiplies out to more than "
                             f"{_MAX_PRODUCT_TERMS} terms")
    for k, part in enumerate(parts):
        marked, written = _written(part)
        if marked:
            taken = {ix.label for j, sub in enumerate(subs) if j != k
                     for _, fs in sub for ix in _term_slot_list(fs)}
            if clashing := taken - written:
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
    marked, written = _written(operand)
    if marked and ix.label not in written:
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


# a node of a searched term in integer form (``_compiled``)
_Node = namedtuple("_Node",
                   "atom codes fills sorts antis seen labels sym groups")


def _compiled(f: FieldAtom, rank: dict, ids: dict, head: tuple = ()) -> _Node:
    """Node ``f`` of a prepared term in integer form, ``rank`` mapping its
    free labels to their places in one sorted order of strings and
    ``ids`` its dummies to numbers.  ``codes`` is its key: ``head``, the
    part of ``_factor_key`` before the slots, then per slot in key order
    ``(2 * alphabet + variance) * len(rank)`` plus its label's rank, so
    it orders as ``Index.key``.  ``_node_key`` adds the dummies' ranks
    (``fills``: key position, place in ``seen``, the dummies in first-
    sight order) and sorts the slot groups ``sorts``, of which ``antis``
    are antisymmetric.  ``labels`` holds each dummy slot's dummy, ``sym``
    the places in it of each +1 group with two or more, and ``groups``
    each group's new dummies and whether they form a set."""
    slots, n = _slots_of_factor(f), len(f.derivs)
    codes = [*head, *_factor_key(f)[:-len(slots) or None]]
    # key order: the atom's slots, then the derivative indices
    where = [len(codes) + q for q in (*range(len(slots) - n, len(slots)),
                                      *range(len(slots) - n))]
    codes += [0] * len(slots)
    for p, ix in enumerate(slots):
        code = (2 * ix.alphabet + ix.variance) * len(rank)
        codes[where[p]] = code if ix.label in ids else code + rank[ix.label]
    at = [p for p, ix in enumerate(slots) if ix.label in ids]
    labels = tuple(ids[slots[p].label] for p in at)
    seen, sorts, antis, sym, groups = {}, [], [], [], []
    for pos, sign, _ in _slot_groups(f):
        mine = [k for k, p in enumerate(at) if p in pos]
        new = [d for d in dict.fromkeys(labels[k] for k in mine)
               if d not in seen]
        for d in new:
            seen[d] = len(seen)
        groups.append((new, sign > 0 and all(
            labels.count(d) == 1 for d in new)))
        if sign > 0 and len(mine) > 1:
            sym.append(mine)
        if len(pos) > 1 and mine:
            sorts.append([where[p] for p in pos])
            if sign < 0:
                antis.append(sorts[-1])
    fills = tuple((where[p], seen[labels[k]]) for k, p in enumerate(at))
    return _Node(f, codes, fills, sorts, antis, seen, labels, sym, groups)


def _node_key(node: _Node, names) -> tuple[tuple, int]:
    """(key, sign) of a compiled node whose dummies, in first-sight order,
    take the ranks ``names``.  Nothing vanishes: a bound may give two
    dummies one rank."""
    codes = node.codes[:]
    for q, j in node.fills:
        codes[q] += names[j]
    odd = sum(_odd([codes[q] for q in pos])
              for pos in node.antis) if node.antis else 0
    return tuple(_sorted_within(codes, node.sorts)), (-1) ** odd


def _refined_groups(factors: list, chain_items: list,
                    dummies: set[str]) -> list[list[Expr]]:
    """Partition the factors of a prepared term into permutable tie
    groups: start from the key of each factor with its dummies named ""
    (rank 0, before every free label; its groups sorted, so no slot
    order chosen by a dummy's name survives) and iteratively split by
    the colors reached through dummy contractions.  Nodes that remain
    tied are (at worst) automorphic images, so the candidate enumeration
    stays tiny even for terms like the quartic Yang-Mills one."""
    labels = {ix.label for ix in _term_slot_list(factors)} - dummies
    rank = {lab: r for r, lab in enumerate(sorted(labels | {""}))}
    erased = dict.fromkeys(dummies, 0)  # all one dummy, of rank 0
    keys = [_node_key(_compiled(f, rank, erased), (0,))[0] for f in factors]
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
        stable = len(new_rank) == len(set(color))
        color = [new_rank[s] for s in sigs]
        if stable:
            break

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
    names = (f"{prefix}{k}" for k in itertools.count())
    return list(itertools.islice(
        (x for x in names if x not in free_labels), count))


def _orders(groups: list[list]) -> Iterable[tuple]:
    """Each concatenation of one order of every group, generated lazily
    (``itertools.product`` would first store every order of each)."""
    if not groups:
        return iter([()])
    return (head + tail for head in itertools.permutations(groups[0])
            for tail in _orders(groups[1:]))


def _sorted_within(values: list, groups: list) -> list:
    """``values``, sorted within each list of places in ``groups``."""
    for places in groups:
        for p, v in zip(places, sorted([values[p] for p in places])):
            values[p] = v
    return values


def _least_candidate(factors: list, chain_items: list,
                     dummies: set[str], free_labels: set[str]):
    """Least key over the candidates of one prepared term.

    A candidate orders each tie group of ``_refined_groups`` (groups in
    color order) and, for every factor and chain item, its still unnamed
    dummies within each group of ``_slot_groups``; they are named per
    alphabet in that order.  Its key is the sorted tuple of its renamed
    node keys, the k-th chain item's led by ``(7, k)``, after every
    factor key.  Returns (sign, nodes) for the least key, or None when
    two least candidates differ in sign (the term is its own negative).
    The result depends only on ``factors`` and ``chain_items``, which
    the dummies and free labels are read off, so ``_term_form`` caches it.

    The search runs on integers: each node is compiled once
    (``_compiled``), with the free labels and the canonical dummy names
    (``_dummy_name_pool``) ranked in one sorted order of strings (``mu10``
    before ``mu2``) and the dummies numbered.  A naming (``ren``) maps a
    dummy to the ranks it may take; a node's key under it (``_node_key``)
    orders as the renamed node's ``_factor_key``.  Atoms are built once,
    for the winning naming.

    Candidates grow one node at a time.  Two partial candidates with the
    same residual (what is left to name, up to a relabeling of the
    dummies not yet named) have the same continuations, and adding equal
    keys to two sorted tuples keeps their order, so only the one whose
    keys sort least is kept; equal ones pool their signs.  A node
    without dummies has one key wherever it goes, so it is sorted in at
    the end; a factor with one never repeats (a copy's dummy would meet
    its partner in the same variance).  Three rules keep the partial
    candidates few:

    1. A +1 slot group is sorted, so its new dummies, if two or more and
       each met once in the node, take the next names of their alphabet
       as a set: ``ren`` maps each to the ranks its set has left, which a
       later node holding it branches over.  Other groups are named in
       every order.
    2. A node whose dummies are all named or pending names nothing new,
       so the one whose least possible key is least is placed at once.
    3. After a placement that leaves several states, a state whose lower
       bound is above another's upper bound cannot win and is dropped.
       A bound keys each unplaced node with the least (greatest) rank
       each dummy can still get and sorts these keys in with the placed
       ones; sorting is monotone, so every completion lies within.

    Each combination of names and orders tried for a node is one
    extension; the search raises MalformedIndex after ``_SEARCH_CAP``.
    """
    first = {ix.label: ix.alphabet for ix in
             _term_slot_list(factors + chain_items) if ix.label in dummies}
    ids, alphabet_of = dict(zip(first, itertools.count())), [*first.values()]
    pools = {a: _dummy_name_pool(a, alphabet_of.count(a), free_labels)
             for a in Alphabet}
    names = sorted(free_labels.union(*pools.values()))
    rank = {lab: r for r, lab in enumerate(names)}
    pools = {a: [rank[x] for x in pool] for a, pool in pools.items()}

    def used(ren, a):  # the names of alphabet a given or held by sets
        return sum(1 for d in ren if alphabet_of[d] == a)

    # the nodes of each tie group, then of each chain item: one holding
    # dummies is a step, the others are sorted in at the end
    nodes = [tuple(_compiled(f, rank, ids) for f in g)
             for g in _refined_groups(factors, chain_items, dummies)]
    nodes += [(_compiled(it, rank, ids, (7, k)),)
              for k, it in enumerate(chain_items)]
    steps = [g for g in nodes if g[0].seen]

    def unplaced(t, left):
        """(step, member) of each node not placed in step t on."""
        for t2 in range(t, len(steps)):
            for m in left if t2 == t else steps[t2]:
                yield t2, m

    def residual(t, left, ren):
        """What is left to name from step t on, up to a relabeling of the
        unnamed dummies: equal residuals have equal continuations.  Rows
        are (step, then per dummy slot its ranks in ``ren``, or an unnamed
        dummy's order of first sight after every rank), each +1 slot group
        a sorted multiset, sorted by step and ranks, then by the numbers
        already given."""
        place, out = {}, []
        rows = sorted(((t2, _sorted_within([ren.get(d, ()) for d in m.labels],
                                           m.sym), m)
                       for t2, m in unplaced(t, left)),
                      key=operator.itemgetter(0, 1))
        for _, tied in itertools.groupby(rows, key=operator.itemgetter(0, 1)):
            tied = list(tied)
            if len(tied) > 1:
                tied.sort(key=lambda row: [place.get(d, len(place)) for d
                                           in row[2].labels if d not in ren])
            for t2, _, m in tied:
                out.append(t2)
                out.extend(_sorted_within(
                    [ren.get(d) or (len(names) + place.setdefault(
                        d, len(place)),) for d in m.labels], m.sym))
        return tuple(out)

    def extend(ren, waiting, picks, order):
        """(naming, ranks the node shows) once a node gives ``picks`` to
        its pending dummies ``waiting`` and sets in ``order`` to new ones."""
        ren2, shown = dict(ren), dict(zip(waiting, picks))
        if picks:
            for d, ranks in ren.items():
                if len(ranks) > 1:
                    ren2[d] = (shown[d],) if d in shown else tuple(
                        x for x in ranks if x not in picks)
        for item in order:
            a = alphabet_of[item[0]]
            k = used(ren2, a)
            ranks = tuple(pools[a][k:k + len(item)])
            ren2.update(dict.fromkeys(item, ranks))
            shown.update(zip(item, ranks))
        return ren2, shown

    def bound(pick, t, left, ren, keys):
        """Rule 3's lower (``pick`` min) or upper (max) bound of a state."""
        spare = {a: pick(pool[k:]) for a, pool in pools.items()
                 if (k := used(ren, a)) < len(pool)}
        return sorted(keys + tuple(_node_key(m, tuple(
            pick(ren[d]) if d in ren else spare[alphabet_of[d]]
            for d in m.seen))[0] for _, m in unplaced(t, left)))

    # residual -> [unplaced members of the step, naming, sorted keys, signs]
    states: dict = {(): [(), {}, (), {1}]}
    visited = 0
    for t, members in enumerate(steps):
        for st in states.values():
            st[0] = members
        for _ in members:
            grown: dict = {}
            for left, ren, keys, signs in states.values():
                closed = [(_node_key(m, tuple(min(ren[d]) for d in m.seen))[0],
                           i) for i, m in enumerate(left)
                          if m.seen.keys() <= ren.keys()]
                for i in [min(closed)[1]] if closed else range(len(left)):
                    m = left[i]
                    rest = left[:i] + left[i + 1:]
                    waiting = [d for d in m.seen if len(ren.get(d, ())) > 1]
                    picks = (p for p in itertools.product(
                        *map(ren.get, waiting)) if len(set(p)) == len(p))
                    fresh = []
                    for new, as_set in m.groups:
                        new = tuple(d for d in new if d not in ren)
                        fresh.append([new] if as_set and len(new) > 1
                                     else [(d,) for d in new])
                    for pick, order in ((p, o) for p in picks
                                        for o in _orders(fresh)):
                        visited += 1
                        if visited > _SEARCH_CAP:
                            raise MalformedIndex(
                                "term too symmetric to canonicalize")
                        ren2, shown = extend(ren, waiting, pick, order)
                        key, s = _node_key(m, tuple(
                            shown[d] if d in shown else ren2[d][0]
                            for d in m.seen))
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
    # least lower bound is never dropped: one state, every dummy named
    (_, ren, _, signs), = states.values()
    if len(signs) != 1:
        return None
    sign, = signs
    final = {lab: names[ren[d][0]] for lab, d in ids.items()}
    order = sorted((m for g in nodes for m in g), key=lambda m: _node_key(
        m, [ren[d][0] for d in m.seen])[0])
    return sign, tuple(_rename_in_factor(m.atom, final)[0] if m.seen
                       else m.atom for m in order)


_VANISHES = object()


def _canonical_term(coeff: CRat, factors: list):
    """Unique representative of one product term: (coeff, canonical
    factors), or None when the term vanishes.  The term is split once
    into its riders and its core (``_split_riders``); the core keys the
    term cache, which holds its sign and canonical factors
    (``_term_form`` fills it on a miss), and the riders are joined to
    those (``_with_riders``)."""
    if coeff.is_zero():
        return None
    riders, core = _split_riders(factors)
    found = _TERM_CACHE.get(core) or _term_form(core)
    if found is _VANISHES:
        return None
    sign, out = found
    return coeff if sign == 1 else -coeff, _with_riders(riders, out)


def _term_form(core: tuple):
    """The term-cache entry of a core (``_split_riders``) on a miss:
    (sign, canonical factors), or ``_VANISHES``.  The empty core, of
    riders alone, is () with sign +1; any other is searched.  A canonical
    result is the least candidate of its own search, reached with the
    sign it carries, so it is cached as its own representative too."""
    _make_room()
    found = _VANISHES if core else (1, ())
    prep = core and _prepare_term(core)
    if prep:
        plain, chain_items, sign0, dummies, free_labels = prep
        best = _least_candidate(plain, chain_items, dummies, free_labels)
        if best is not None:
            found = (sign0 * best[0], best[1])
    _TERM_CACHE[core] = found
    if found is not _VANISHES:
        _TERM_CACHE[found[1]] = (1, found[1])
    return found


def _prepare_term(factors: list):
    """Everything a candidate search needs from one core (a term without
    riders): (commuting factors, chain items, sign, dummy labels, free
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

    dummies, free_labels = set(), set()
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


def _collect(e: Expr, coeff: CRat, bucket: dict) -> None:
    """Add ``coeff * e``, put in canonical form, to ``bucket``: canonical
    factors -> coefficient."""
    while isinstance(e, Product) and len(e.factors) == 1:
        coeff, e = _times(coeff, e.coeff), e.factors[0]
    if isinstance(e, Sum) and not e._canonical:
        for u in e.terms:
            _collect(u, coeff, bucket)
        return
    if isinstance(e, Sum):
        terms = [(_times(coeff, t.coeff), t.factors) for t in e.terms]
    else:
        terms = filter(None, (_canonical_term(_times(coeff, c), fs)
                              for c, fs in _flatten(e)))
    for c, fs in terms:
        old = bucket.get(fs)
        bucket[fs] = c if old is None else old + c


def canonicalize(e: Expr) -> Sum:
    """Normal form: a Sum of coefficient-carrying Products with sorted
    factors, canonical dummy labels and like terms collected.  The Sum
    returned is marked canonical, and a marked Sum is returned as is.
    The terms of a marked Sum in ``e``, bare or times a number, are
    their own representatives (sign +1) and are added as they stand."""
    if isinstance(e, Sum) and e._canonical:
        return e
    bucket: dict[tuple, CRat] = {}
    _collect(_as_expr(e), _UNIT, bucket)
    terms = [(c, fs) for fs, c in bucket.items() if not c.is_zero()]
    if len(terms) > 1:  # a lone term has nothing to agree with or follow
        facts = {fs: _term_facts(fs) for _, fs in terms}
        if len({frees for _, frees in facts.values()}) > 1:
            raise MalformedIndex(
                "terms of a sum carry different free indices")
        terms.sort(key=lambda t: facts[t[1]][0])
    return _marked(Product(c, fs) for c, fs in terms)


def _marked(terms: Iterable[Product]) -> Sum:
    """The Sum of ``terms``, canonical terms, marked so that
    ``canonicalize`` adds them as they stand.  Only a Sum that
    ``canonicalize`` returns, its terms collected and in order, leaves
    the engine marked."""
    out = Sum(tuple(terms))
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

def _with_riders(riders: tuple, factors: tuple) -> tuple:
    """The canonical factors ``factors`` times ``riders``, given as
    ``_split_riders`` gives them.  Their scalars, in any order and
    repeated or not, add their powers by kind to those of the scalars
    leading ``factors``, a zero total dropping, and the sums, one atom
    per kind sorted by ``_factor_key``, lead; kept per pair of scalar
    tuples in ``_SCALAR_SUMS``, this is the one place where scalar powers
    are added.  Their index-free atoms, in any order, are sorted into the
    commuting factors by ``_factor_key``.  Riders do not steer the
    canonical search, so this is the canonical form of the product, with
    the sign of ``factors``."""
    if not riders:
        return factors
    s = r = 0
    while s < len(riders) and riders[s].exponent is not None:
        s += 1
    while r < len(factors) and factors[r].exponent is not None:
        r += 1
    lead, rest = factors[:r], factors[r:]
    if s:
        lead = _SCALAR_SUMS[riders[:s], lead]
    if s < len(riders):
        # the chain ends the factors; each index-free atom goes after the
        # commuting factors whose keys are not above its own
        rest, hi = list(rest), len(rest)
        while hi and any(rest[hi - 1].kind.row.spin):
            hi -= 1
        while s < len(riders):  # a run of one atom at a time
            f, m = riders[s], s + 1
            while m < len(riders) and riders[m] is f:
                m += 1
            at = bisect.bisect_right(rest, _key_of(f), 0, hi, key=_key_of)
            rest[at:at] = riders[s:m]
            hi, s = hi + m - s, m
        rest = tuple(rest)
    return lead + rest


def _scalar_sum(key: tuple) -> tuple:
    """The product of two tuples of scalars, ``key``: one atom per kind
    holding its total power, sorted by ``_factor_key``, a zero total
    dropping (``_with_riders``)."""
    powers: dict = {}
    for f in key[0] + key[1]:
        powers[f.kind] = powers.get(f.kind, 0) + f.exponent
    return tuple(sorted(
        (FieldAtom(kind, (), p) for kind, p in powers.items() if p),
        key=_key_of))


# (scalars, scalars) -> their product (``_with_riders``)
_SCALAR_SUMS = _Memo(_scalar_sum)
# (map, SPACETIME_DIM, core) -> the canonical terms of the map's image of
# the core, or None when the map keeps it (``rewrite_terms``)
_IMAGES = _Memo()
_MISSING = object()


def rewrite_terms(e: Expr, fn: Callable[[Product], Optional[Expr]]) -> Sum:
    """The one term-map pass: canonicalize, map each canonical term's
    core (``_split_riders``: its factors without the scalars and the
    index-free atoms, with coefficient 1) through fn (None keeps the
    term), canonicalize the result.

    fn must not read a term's coefficient or riders, which carry no
    index: the term's coefficient multiplies each term of the image and
    its riders are joined to each one's (``_with_riders``).  So the
    canonical terms of an image are kept in ``_IMAGES`` under (fn,
    ``SPACETIME_DIM``, core), and a core met again, under any riders, in
    this call or a later one with the same fn object, is neither mapped
    nor searched again.  A call that changes no term returns the
    canonical form itself."""
    s = canonicalize(e)
    split = [_split_riders(t.factors) for t in s.terms]
    keys = [(fn, SPACETIME_DIM, core) for _, core in split]
    images = [_IMAGES.get(key, _MISSING) for key in keys]
    # every new core is mapped before any image is canonicalized, so a
    # map's error comes first, as when whole terms were mapped
    mapped = {}
    for key, image in zip(keys, images):
        if image is _MISSING and key not in mapped:
            mapped[key] = fn(Product(_UNIT, key[2]))
    for key, r in mapped.items():
        image = None if r is None else canonicalize(r).terms
        mapped[key] = _IMAGES[key] = image
    if mapped:
        images = [mapped.get(key, image) for key, image in zip(keys, images)]
    if all(image is None for image in images):
        return s
    out = []
    for t, (riders, _), image in zip(s.terms, split, images):
        if image is None:
            out.append(t)
        else:
            out += [Product(_times(t.coeff, u.coeff),
                            _with_riders(riders, u.factors)) for u in image]
    # canonical terms, marked so that canonicalize adds them as they
    # stand; it collects like terms and puts them in order
    return canonicalize(Sum((_marked(out),)))


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
