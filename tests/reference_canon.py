"""Exhaustive reference for the canonical term search.

This is the enumeration ``exprs`` used before its search merged partial
candidates and named each factor's dummies as it placed the factor:
every ordering of every tie group, times every orientation
(``orientations``: a copy of the factor with each slot group permuted)
of every factor and of every chain item, each renamed and keyed in full.
It is exponential in the tie-group sizes, so tests run it only on terms
with at most ``PERM_CAP`` candidates (the quartic Yang-Mills term has
4096) and compare the result with ``exprs._canonical_term``.
"""

from __future__ import annotations

import itertools

from weylcheck import exprs as ex
from weylcheck.exprs import Alphabet, CRat, FieldAtom, Index

PERM_CAP = 5_000


class TooManyCandidates(Exception):
    pass


def orientations(node, dummies: set[str]) -> list[tuple]:
    """Slot orders of one node that denote the same object, each with the
    sign it carries: every order of each group of ``exprs._slot_groups``.
    Only orders that move a dummy can name the dummies differently, so a
    group without one keeps its own order."""
    slots = ex._slots_of_factor(node)
    moves = [(pos, sign) for pos, sign, _ in ex._slot_groups(node)
             if len(pos) > 1 and any(slots[p].label in dummies for p in pos)]
    if not moves:
        return [(node, 1)]
    out = []
    for perms in itertools.product(
            *(itertools.permutations(pos) for pos, _ in moves)):
        new, sign = list(slots), 1
        for (pos, group_sign), perm in zip(moves, perms):
            for p, q in zip(pos, perm):
                new[p] = slots[q]
            if group_sign < 0 and ex._odd(perm):
                sign = -sign
        out.append((ex._with_slots(node, new), sign))
    return out


def flip_candidates(f, dummies: set[str]) -> list:
    """``orientations`` of a factor without their signs, which are all
    +1: antisymmetric groups occur only in chains."""
    return [v for v, _ in orientations(f, dummies)]


def chain_flip_candidates(items: list, dummies: set[str]) -> list:
    """``orientations`` of each chain item."""
    return [orientations(it, dummies) for it in items]


def candidate_count(factors: list, chain_items: list,
                    dummies: set[str]) -> int:
    """Size of the exhaustive candidate space of a prepared term."""
    n = 1
    for g in ex._refined_groups(factors, chain_items, dummies):
        for k in range(2, len(g) + 1):
            n *= k
        for f in g:
            n *= len(flip_candidates(f, dummies))
    for opts in chain_flip_candidates(chain_items, dummies):
        n *= len(opts)
    return n


def _canonical_dummy_names(walk: list[Index], dummies: set[str],
                           free_labels: set[str]) -> dict[str, str]:
    ren: dict[str, str] = {}
    counters = {Alphabet.SPACETIME: 0, Alphabet.FRAME: 0}
    prefix = {Alphabet.SPACETIME: "mu", Alphabet.FRAME: "fa"}
    for ix in walk:
        if ix.label in dummies and ix.label not in ren:
            while True:
                cand = f"{prefix[ix.alphabet]}{counters[ix.alphabet]}"
                counters[ix.alphabet] += 1
                if cand not in free_labels:
                    break
            ren[ix.label] = cand
    return ren


def least_candidate(factors: list, chain_items: list,
                    dummies: set[str], free_labels: set[str]):
    """(sign, factors, chain) of the least candidate, or None when two
    least candidates differ in sign; same contract as
    ``exprs._least_candidate``."""
    if candidate_count(factors, chain_items, dummies) > PERM_CAP:
        raise TooManyCandidates
    groups = ex._refined_groups(factors, chain_items, dummies)
    group_orderings = [list(itertools.permutations(g)) for g in groups]
    chain_opts = chain_flip_candidates(chain_items, dummies)

    best = None  # (key, sign, factors, chain)
    zero = False
    for ordering in itertools.product(*group_orderings):
        base_seq = [f for grp in ordering for f in grp]
        flip_opts = [flip_candidates(f, dummies) for f in base_seq]
        for flipped in itertools.product(*flip_opts):
            chain_variants = itertools.product(*chain_opts) \
                if chain_opts else [()]
            for chain_pick in chain_variants:
                ch_items = [it for it, _ in chain_pick]
                ch_sign = 1
                for _, s in chain_pick:
                    ch_sign *= s
                walk = ex._term_slot_list(list(flipped) + ch_items)
                ren = _canonical_dummy_names(walk, dummies, free_labels)
                sign = ch_sign
                out_factors = []
                dead = False
                for f in flipped:
                    nf, s = ex._rename_in_factor(f, ren)
                    if nf is None:
                        dead = True
                        break
                    sign *= s
                    out_factors.append(nf)
                if dead:
                    continue
                out_chain = []
                for it in ch_items:
                    ni, s = ex._rename_in_factor(it, ren)
                    if ni is None:
                        dead = True
                        break
                    sign *= s
                    out_chain.append(ni)
                if dead:
                    continue
                out_factors.sort(key=ex._factor_key)
                key = (tuple(ex._factor_key(f) for f in out_factors),
                       tuple(ex._factor_key(it) for it in out_chain))
                if best is None or key < best[0]:
                    best = (key, sign, out_factors, out_chain)
                    zero = False
                elif key == best[0] and sign != best[1]:
                    zero = True
    if best is None or zero:
        return None
    _, sign, out_factors, out_chain = best
    return sign, out_factors, out_chain


def canonical_term(coeff: CRat, factors: list):
    """``exprs._canonical_term`` with the exhaustive search: (coeff,
    canonical factors), or None when the term vanishes."""
    powers: dict = {}
    rest = []
    for f in factors:
        if f.exponent is None:
            rest.append(f)
        else:
            powers[f.kind] = powers.get(f.kind, 0) + f.exponent
    scalar_factors = [FieldAtom(kind, (), p) for kind, p in powers.items()
                      if p]
    prep = ex._prepare_term(rest)
    if prep is None:
        return None
    factors, chain_items, sign0, dummies, free_labels = prep
    found = least_candidate(factors, chain_items, dummies, free_labels)
    if found is None:
        return None
    sign, out_factors, out_chain = found
    all_factors = sorted(scalar_factors + out_factors, key=ex._factor_key)
    return coeff * CRat(sign0 * sign), tuple(all_factors + out_chain)
