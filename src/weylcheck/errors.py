"""Exception types shared across the package."""

from __future__ import annotations


class WeylcheckError(Exception):
    """Base class for engine errors."""


class MalformedIndex(WeylcheckError):
    """Index structure violates arity, variance or pairing rules."""


class MalformedChain(WeylcheckError):
    """Spinor content is not a single closed bilinear or bare matrix chain."""


class UncoveredDerivative(WeylcheckError):
    """A derivative hit a field with no covariantization rule and no
    exemption."""


class ParseError(WeylcheckError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class UndeclaredField(ParseError):
    pass


class IndexArityMismatch(ParseError):
    pass


class UnboundIndex(WeylcheckError):
    """Numeric evaluation hit a free index with no component binding."""


class SingularAssignment(WeylcheckError):
    """Sampled tetrad failed the invertibility floor repeatedly."""
