"""Trial-by-trial reference for the oracle's expression evaluator.

This is the evaluator ``oracle.evaluate_components`` used before sums
were compiled into plans and run on blocks of trials: every term of a
canonical sum is evaluated on one ``Assignment`` with an
``np.einsum(..., optimize=True)`` call, and a spinor chain is multiplied
out item by item with ``np.tensordot``.  Tests compare the compiled
evaluator with it.
"""

from __future__ import annotations

import itertools

import numpy as np

from weylcheck import exprs as ex
from weylcheck.errors import WeylcheckError
from weylcheck.exprs import (
    CliffordKind,
    CouplingKind,
    Expr,
    FieldAtom,
    Kind,
    Product,
    Sum,
    Variance,
    canonicalize,
)
from weylcheck.oracle import _ETA, GAMMA_LO, GAMMA_UP, SIGMA_UU


def _clifford_value(atom: FieldAtom):
    if atom.kind == CliffordKind.IDENTITY:
        return np.eye(4, dtype=complex), []
    if atom.kind == CliffordKind.GAMMA:
        ix = atom.indices[0]
        arr = GAMMA_UP if ix.variance == Variance.UP else GAMMA_LO
        return arr, [ix.label]
    i1, i2 = atom.indices
    arr = SIGMA_UU
    if i1.variance == Variance.DOWN:
        arr = np.einsum("ab,bcij->acij", _ETA, arr)
    if i2.variance == Variance.DOWN:
        arr = np.einsum("cd,adij->acij", _ETA, arr)
    return arr, [i1.label, i2.label]


def _atom_value(a, atom: FieldAtom, order: int, dlabels):
    if atom.kind == Kind.DELTA:
        if order:
            raise WeylcheckError("derivative of delta is not evaluated")
        return np.eye(4), [ix.label for ix in atom.indices]
    if atom.kind == Kind.LAMBDA_POWER:
        if order:
            raise WeylcheckError(
                "derivative of a Lambda power is not evaluated; canonical "
                "forms factor it out")
        return np.asarray(a.lam(atom.exponent)), []
    arr = a.tensor_jet(atom.kind, order)
    return arr, dlabels + [ix.label for ix in atom.indices]


def _factor_value(a, f: Expr):
    """(array, slot labels) for one tensor factor."""
    if isinstance(f.kind, CouplingKind):
        return np.asarray(a.couplings[f.kind.value] ** f.exponent), []
    return _atom_value(a, f, len(f.derivs), [ix.label for ix in f.derivs])


def _chain_item_value(a, item: Expr):
    """(array, labels, spin kind); spin axes last."""
    if isinstance(item.kind, CliffordKind):
        arr, labels = _clifford_value(item)
        return arr, labels, "mat"
    if item.kind in (Kind.FERMION, Kind.FERMION_BAR):
        arr = a.tensor_jet(item.kind, len(item.derivs))
        kind = "ket" if item.kind == Kind.FERMION else "bra"
        return arr, [ix.label for ix in item.derivs], kind
    raise WeylcheckError(f"cannot evaluate chain item {item!r}")


_CHAIN_STATES = {
    ("bra", "mat"): "bra",
    ("bra", "ket"): "scalar",
    ("mat", "mat"): "mat",
    ("mat", "ket"): "ket",
}


def _chain_value(a, chain: list):
    parts = [_chain_item_value(a, it) for it in chain]
    arr, labels, state = parts[0]
    for arr2, labels2, st2 in parts[1:]:
        out_state = _CHAIN_STATES.get((state, st2))
        if out_state is None:
            raise WeylcheckError(
                f"malformed spinor chain: {state} then {st2}")
        n2 = len(labels2)
        r = np.tensordot(arr, arr2, axes=(arr.ndim - 1, n2))
        if state == "mat" and st2 == "mat":
            r = np.moveaxis(r, len(labels), -2)
        elif state == "mat" and st2 == "ket":
            r = np.moveaxis(r, len(labels), -1)
        arr, labels, state = r, labels + labels2, out_state
    return arr, labels, state


_SPIN_AXES = {"scalar": 0, "bra": 1, "ket": 1, "mat": 2}


def _term_value(a, t: Product):
    """(array, sorted free labels, spin state) for one canonical term."""
    coeff = t.coeff.to_complex()
    ops = []
    label_ids: dict[str, int] = {}
    counts: dict[str, int] = {}
    next_id = itertools.count()

    def push(arr, labels):
        if arr.ndim == 0 and not labels:
            nonlocal coeff
            coeff *= complex(arr)
            return
        sub = []
        for lab in labels:
            if lab not in label_ids:
                label_ids[lab] = next(next_id)
            counts[lab] = counts.get(lab, 0) + 1
            sub.append(label_ids[lab])
        ops.append((np.asarray(arr, dtype=complex), sub))

    plain, chain = ex._split_chain(t.factors)
    for f in plain:
        arr, labels = _factor_value(a, f)
        push(arr, labels)

    state = "scalar"
    spin_ids: list[int] = []
    if chain:
        arr, labels, state = _chain_value(a, chain)
        spin_ids = [next(next_id) for _ in range(_SPIN_AXES[state])]
        sub = []
        for lab in labels:
            if lab not in label_ids:
                label_ids[lab] = next(next_id)
            counts[lab] = counts.get(lab, 0) + 1
            sub.append(label_ids[lab])
        ops.append((np.asarray(arr, dtype=complex), sub + spin_ids))

    free = sorted(lab for lab, n in counts.items() if n == 1)
    bad = [lab for lab, n in counts.items() if n > 2]
    if bad:
        raise WeylcheckError(f"index repeated more than twice: {bad}")
    out_sub = [label_ids[lab] for lab in free] + spin_ids

    if not ops:
        return np.asarray(coeff), (), "scalar"
    args = []
    for arr, sub in ops:
        args.extend((arr, sub))
    val = np.einsum(*args, out_sub, optimize=True) * coeff
    return val, tuple(free), state


def evaluate_canonical(s: Sum, a):
    """(array, sorted free labels, spin state) of a canonical sum on one
    assignment, term by term."""
    acc = None
    shape_key = None
    for t in s.terms:
        val, free, state = _term_value(a, t)
        if shape_key is None:
            shape_key = (free, state)
            acc = val.astype(complex)
        else:
            if (free, state) != shape_key:
                raise WeylcheckError(
                    f"terms disagree in free structure: {shape_key} vs "
                    f"{(free, state)}")
            acc = acc + val
    if acc is None:
        return np.zeros(()), (), "scalar"
    return acc, shape_key[0], shape_key[1]


def reference_components(e: Expr, a):
    """The reference counterpart of ``oracle.evaluate_components``."""
    return evaluate_canonical(canonicalize(e), a)
