"""Exhaustive reference for the canonical term search.

This is the enumeration ``exprs`` used before its search merged partial
candidates and named each factor's dummies as it placed the factor:
every ordering of every tie group, times every orientation
(``orientations``: a copy of the factor with each slot group permuted)
of every factor and of every chain item, each renamed and keyed in full.
It is exponential in the tie-group sizes, so tests run it only on terms
with at most ``PERM_CAP`` candidates (the quartic Yang-Mills term has
4096) and compare the result with ``exprs._canonical_term``.

Past ``PERM_CAP`` the second reference, ``dp_least_candidate``, is the
search ``exprs`` used before it named a symmetric group's new dummies as
a set and dropped the states a bound shows cannot win: partial candidates
merged by their residual, one factor and one naming order at a time.
It is kept as it was, without the extension cap, so it also reaches
terms that search refused.
"""

from __future__ import annotations

import itertools

from weylcheck import exprs as ex
from weylcheck.exprs import Alphabet, CRat, Expr, FieldAtom, Index

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


def canonical_term(coeff: CRat, factors: list, search=None):
    """``exprs._canonical_term`` with the exhaustive search, or with
    ``search`` in its place: (coeff, canonical factors), or None when the
    term vanishes."""
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
    found = (search or least_candidate)(factors, chain_items, dummies,
                                        free_labels)
    if found is None:
        return None
    sign, out_factors, out_chain = found
    all_factors = sorted([*scalar_factors, *out_factors], key=ex._factor_key)
    return coeff * CRat(sign0 * sign), (*all_factors, *out_chain)


def dp_least_candidate(factors: list, chain_items: list,
                       dummies: set[str], free_labels: set[str]):
    """Least key over the candidates of one prepared term, by the search
    ``exprs._least_candidate`` made before it named a symmetric group's
    new dummies as a set and bounded its states; it has no cap.

    A candidate orders each tie group of ``_refined_groups`` (groups in
    color order) and, for every factor and chain item, its still unnamed
    dummies within each group of ``_slot_groups``; they are named per
    alphabet in that order.  Its key is the sorted renamed factor keys,
    then the chain key.  Returns (sign, factors, chain) for the least
    key, or None when two least candidates differ in sign (the term
    equals its own negative).

    Candidates grow one factor at a time.  Two partial candidates with
    the same residual (what is left to name, up to a relabeling of the
    dummies not yet named) have the same continuations, and adding equal
    factors to two sorted multisets keeps their order, so only the one
    whose renamed factors sort least is kept; equal ones pool their
    signs.  Identical factors of a group are one choice with a
    multiplicity, and a factor whose dummies are all named already names
    nothing wherever it goes, so it is taken at once instead of at every
    position.

    The result depends only on ``factors`` and ``chain_items``: the
    dummies and free labels are read off them.  So ``_canonical_term``
    searches a term's core (its factors without the riders) once and
    keeps the result in the term cache, under the core and under the
    result's own factors (with sign +1).
    """
    slots = ex._term_slot_list(factors + chain_items)
    alphabet_of = {ix.label: ix.alphabet for ix in slots
                   if ix.label in dummies}
    pools = {a: ex._dummy_name_pool(
        a, sum(1 for b in alphabet_of.values() if b == a), free_labels)
        for a in Alphabet}

    def member(f):
        # members of one group differ only in their dummies, since the
        # tie key they share keeps free labels
        slots = ex._slots_of_factor(f)
        labels = tuple(ix.label for ix in slots if ix.label in dummies)
        seen, groups, sorted_len = set(), [], 0
        for pos, _, cls in ex._slot_groups(f):
            labs = [slots[p].label for p in pos]
            if cls == "d":
                sorted_len = sum(1 for lab in labs if lab in dummies)
            labs = [lab for lab in dict.fromkeys(labs)
                    if lab in dummies and lab not in seen]
            seen.update(labs)
            groups.append(labs)
        return f, seen, labels, sorted_len, groups

    # one step per tie group, then one per chain item: (is_chain,
    # members, multiplicities).  A member is a distinct factor, its dummy
    # labels as a set and in slot order, how many lead in its derivative
    # group, and per slot group those not met in an earlier one.
    steps = []
    for g in ex._refined_groups(factors, chain_items, dummies):
        mult: dict[Expr, int] = {}
        for f in g:
            mult[f] = mult.get(f, 0) + 1
        steps.append((False, [member(f) for f in mult], tuple(mult.values())))
    for it in chain_items:
        steps.append((True, [member(it)], (1,)))

    def residual(t, left, ren):
        """What is left to name from step t on, up to a relabeling of the
        unnamed dummies: equal residuals have equal continuations.  Rows
        are (step, multiplicity, then one entry per dummy slot: its name,
        or the order of first sight of a still unnamed dummy).  The
        entries of a derivative-index group, symmetric and tried in every
        order at placement, form a sorted multiset, names first."""
        named = ren.get
        place: dict[str, int] = {}
        out = []
        for t2 in range(t, len(steps)):
            members = steps[t2][1]
            rows = []
            for i, n in enumerate(left if t2 == t else steps[t2][2]):
                if n:
                    _, _, labels, k, _ = members[i]
                    partial = [named(lab, "") for lab in labels]
                    if k > 1:
                        partial[:k] = sorted(partial[:k])
                    rows.append((partial, n, i))
            rows.sort()
            for partial, n, i in rows:
                _, _, labels, k, _ = members[i]
                out.append(t2)
                out.append(n)
                entries = [named(lab) or place.setdefault(lab, len(place))
                           for lab in labels]
                if k > 1:
                    entries[:k] = sorted(
                        entries[:k], key=lambda e: (e.__class__ is int, e))
                out.extend(entries)
        return tuple(out)

    node_of: dict[tuple, Expr] = {}
    # residual -> [remaining multiplicities, renaming, sorted factor keys,
    # chain keys, signs]
    states: dict = {(): [(), {}, (), (), {1}]}
    for t, (is_chain, members, mult) in enumerate(steps):
        for st in states.values():
            st[0] = mult
        if len(members) == 1 and not members[0][1] and not is_chain:
            # equal factors without dummies name nothing and are in
            # their slot order already: one block, the same in every state
            key = ex._factor_key(members[0][0])
            node_of[key] = members[0][0]
            for st in states.values():
                fkeys = st[2]
                st[2] = fkeys + (key,) * mult[0]
                if fkeys and key < fkeys[-1]:
                    st[2] = tuple(sorted(st[2]))
            continue
        for _ in range(sum(mult)):
            grown: dict = {}
            for left, ren, fkeys, ckeys, signs in states.values():
                open_ = [i for i, n in enumerate(left) if n]
                closed = [i for i in open_ if members[i][1] <= ren.keys()]
                for i in closed[:1] or open_:
                    f, _, _, _, groups = members[i]
                    rest = left[:i] + (left[i] - 1,) + left[i + 1:]
                    for order in ex._orders([[lab for lab in g
                                              if lab not in ren]
                                             for g in groups]):
                        ren2 = dict(ren) if order else ren
                        for lab in order:
                            a = alphabet_of[lab]
                            ren2[lab] = pools[a][sum(
                                1 for x in ren2 if alphabet_of[x] == a)]
                        node, s = ex._rename_in_factor(f, ren2)
                        if node is None:
                            continue
                        key = ex._factor_key(node)
                        node_of[key] = node
                        if is_chain:
                            fk2, ck2 = fkeys, ckeys + (key,)
                        else:
                            fk2 = fkeys + (key,)
                            if fkeys and key < fkeys[-1]:
                                fk2 = tuple(sorted(fk2))
                            ck2 = ckeys
                        sg = {x * s for x in signs}
                        k = residual(t, rest, ren2)
                        old = grown.get(k)
                        if old is None or (fk2, ck2) < (old[2], old[3]):
                            grown[k] = [rest, ren2, fk2, ck2, sg]
                        elif (fk2, ck2) == (old[2], old[3]):
                            old[4] |= sg
            states = grown

    # complete candidates leave an empty residual: one state at most
    if not states:
        return None
    (_, _, fkeys, ckeys, signs), = states.values()
    if len(signs) != 1:
        return None
    sign, = signs
    return (sign, tuple(node_of[k] for k in fkeys),
            tuple(node_of[k] for k in ckeys))
