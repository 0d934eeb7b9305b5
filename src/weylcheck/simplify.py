"""Combined simplification: canonicalize, contract, reduce gammas, to a
fixpoint, one core at a time."""

from __future__ import annotations

from typing import Optional

from .clifford import gamma_canonicalize
from .exprs import Expr, Product, Sum, _marked, rewrite_terms
from .tensor import contract_pairs


def _simplify_core(t: Product) -> Optional[Sum]:
    """One round on a core (contract, reduce gammas, contract): None when
    it keeps the core, else the round's image simplified in turn.  The
    core of a canonical term is its own canonical form, so the round
    gets it as a marked Sum, which ``canonicalize`` returns at once.  Both
    rules are term maps and the canonical form is linear, so a sum's
    fixpoint is the sum of its cores' fixpoints; a rule cycle ends in
    ``RecursionError``."""
    out = contract_pairs(gamma_canonicalize(contract_pairs(_marked((t,)))))
    return None if out.terms == (t,) else full_simplify(out)


def full_simplify(e: Expr) -> Sum:
    """Each core of ``e`` simplified to its fixpoint, kept per core by
    ``rewrite_terms``."""
    return rewrite_terms(e, _simplify_core)
