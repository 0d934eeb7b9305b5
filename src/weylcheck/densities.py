"""Built-in Lagrangian densities.

Each is a source file, `builtins/NAME.wl` beside this module, that
`dsl.parse` reads once per process, so a builtin and a file target reach
the engine by one path.  All five carry total scale weight -4.  Field
strengths are products of parenthesized sums, and the Dirac density
spells its spin connection, Christoffel symbols included, in place."""

from __future__ import annotations

import os

from .dsl import LagrangianDef, parse

# the builtins in the order the oracle's catalog lists them
BUILTIN_NAMES = ("scalar", "maxwell", "yangmills", "dirac", "scalar-gauged")

_CACHE: dict[str, LagrangianDef] = {}


def builtin(name: str) -> LagrangianDef:
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin {name!r}; "
                       f"choose from {', '.join(BUILTIN_NAMES)}")
    if name not in _CACHE:
        path = os.path.join(os.path.dirname(__file__), "builtins",
                            name + ".wl")
        with open(path, encoding="utf-8") as fh:
            _CACHE[name] = parse(fh.read())
    return _CACHE[name]
