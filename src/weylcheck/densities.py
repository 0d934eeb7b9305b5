"""Built-in Lagrangian densities.

All five carry total scale weight -4.  Field strengths are stored
expanded in derivatives of the potentials, and the Dirac density carries
its spin-connection terms explicitly, so every check runs on plain
derivative-of-atom nodes."""

from __future__ import annotations

from fractions import Fraction

from . import exprs as ex
from .dsl import LagrangianDef, make_def
from .exprs import CRat, I_UNIT, Product
from .tensor import christoffel


def _scalar_expr():
    return (Fraction(1, 2) * ex.inv_metric("mu", "nu")
            * ex.d("mu", ex.scalar_field()) * ex.d("nu", ex.scalar_field())
            - ex.coupling("lambda") * ex.scalar_field() ** 4)


def _maxwell_expr():
    def F(m, n):
        return ex.d(m, ex.em_vector(n)) - ex.d(n, ex.em_vector(m))

    return (Fraction(-1, 4) * ex.inv_metric("mu", "rho")
            * ex.inv_metric("nu", "sig") * F("mu", "nu") * F("rho", "sig"))


def _yangmills_expr():
    def F(a, m, n, d1, d2):
        # d1, d2: dummy frame labels for the eta pairings
        quad = (ex.coupling("g") * ex.structure_const(a, d1 + "u", d2 + "u")
                * ex.minkowski(d1 + "u", d1) * ex.minkowski(d2 + "u", d2)
                * ex.ym_vector(d1, m) * ex.ym_vector(d2, n))
        return (ex.d(m, ex.ym_vector(a, n)) - ex.d(n, ex.ym_vector(a, m))
                - quad)

    return (Fraction(-1, 4) * ex.inv_metric("mu", "rho")
            * ex.inv_metric("nu", "sig") * ex.minkowski("a", "b")
            * F("a", "mu", "nu", "p", "q") * F("b", "rho", "sig", "r", "s"))


def _dirac_expr():
    bar, psi = ex.fermion_bar(), ex.fermion()
    t1 = Product(I_UNIT, (ex.inv_tetrad("c", "mu"),
                          bar, ex.gamma("c"), ex.d("mu", psi)))
    t2 = Product(CRat(-1),
                 (ex.coupling("e"), ex.inv_tetrad("c", "mu"),
                  ex.em_vector("mu"), bar, ex.gamma("c"), psi))
    half_i = CRat(0, Fraction(1, 2))
    spin_chain = (bar, ex.gamma("c"),
                  ex.sigma("a", "b", up1=False, up2=False), psi)
    t3 = Product(-half_i,
                 (ex.inv_tetrad("c", "mu"), ex.inv_metric("nu", "lam"),
                  ex.tetrad("b", "lam"), ex.d("mu", ex.tetrad("a", "nu")))
                 + spin_chain)
    gamma_con = christoffel("rho", "mu", "nu").expansion
    t4 = Product(half_i,
                 (ex.inv_tetrad("c", "mu"), ex.inv_metric("nu", "lam"),
                  ex.tetrad("b", "lam"), ex.tetrad("a", "rho"))
                 + spin_chain) * gamma_con
    return t1 + t2 + t3 + t4


def _scalar_gauged_expr():
    def cov(m):
        return (ex.d(m, ex.scalar_field())
                - ex.coupling("f") * ex.weyl_vector(m) * ex.scalar_field())

    return (Fraction(1, 2) * ex.inv_metric("mu", "nu") * cov("mu") * cov("nu")
            - ex.coupling("lambda") * ex.scalar_field() ** 4)


_BUILDERS = {
    "scalar": _scalar_expr,
    "maxwell": _maxwell_expr,
    "yangmills": _yangmills_expr,
    "dirac": _dirac_expr,
    "scalar-gauged": _scalar_gauged_expr,
}

_CACHE: dict[str, LagrangianDef] = {}

BUILTIN_NAMES = tuple(_BUILDERS)


def builtin(name: str) -> LagrangianDef:
    if name not in _BUILDERS:
        raise KeyError(f"unknown builtin {name!r}; "
                       f"choose from {', '.join(_BUILDERS)}")
    if name not in _CACHE:
        _CACHE[name] = make_def(name, _BUILDERS[name]())
    return _CACHE[name]

