"""Reference for ``exprs.rewrite_terms`` as it was before its memo.

This pass hands each whole canonical term, coefficient and scalars
included, to the map and canonicalizes every image from scratch.  Tests
compare its outputs with the memoized pass, which maps each term's
skeleton once, term for term and in the same order.
"""

from __future__ import annotations

from typing import Callable, Optional

from weylcheck import exprs as ex
from weylcheck.exprs import Expr, Product, Sum


def rewrite_terms(e: Expr, fn: Callable[[Product], Optional[Expr]]) -> Sum:
    """Canonicalize, map each canonical term through fn (None keeps the
    term), canonicalize the result."""
    s = ex.canonicalize(e)
    mapped = [fn(t) for t in s.terms]
    if all(r is None for r in mapped):
        return s
    kept = Sum(tuple(t for t, r in zip(s.terms, mapped) if r is None))
    object.__setattr__(kept, "_canonical", True)
    return ex.canonicalize(Sum((kept,) + tuple(r for r in mapped
                                               if r is not None)))
