"""Built-in Lagrangian densities.

Each is a source file, `builtins/NAME.wl` beside this module, that
`dsl.parse` reads on first use: a memo (`exprs._Memo`, emptied with every
other memo) keeps the definition, so a builtin and a file target reach
the engine by one path.  All five carry total scale weight -4.  Field
strengths are products of parenthesized sums, and the Dirac density
spells its spin connection, Christoffel symbols included, in place."""

from __future__ import annotations

import os

from . import exprs as ex
from .dsl import LagrangianDef, parse

# the builtins in the order the oracle's catalog lists them
BUILTIN_NAMES = ("scalar", "maxwell", "yangmills", "dirac", "scalar-gauged")


def _read(name: str) -> LagrangianDef:
    path = os.path.join(os.path.dirname(__file__), "builtins", name + ".wl")
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


# builtin name -> its parsed definition
_CACHE = ex._Memo(_read)


def builtin(name: str) -> LagrangianDef:
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin {name!r}; "
                       f"choose from {', '.join(BUILTIN_NAMES)}")
    return _CACHE[name]
