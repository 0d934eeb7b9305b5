"""Seeded generator of well-formed scalar densities with known answers.

Every density is written as DSL source text, term by term, from a small
menu of building blocks whose scale weights come from the paper's weight
table (criterion 1): g +2, ginv -2, detg +4, eps +1, epsinv -1, phi -1,
Psi and Psibar -3/2, and 0 for A, W, S, eta and the couplings.  The
expected verdicts follow from how each density was built, never from
weylcheck's output:

* global: every term has total weight -4;
* local: global holds and no term is *inhomogeneous*, i.e. carries a
  derivative of a weighted field, a bare S, or d(S) outside the
  gauged-scalar block, whose shifts cancel by construction;
* covariantize: raises UncoveredDerivative iff some term holds d(S) or
  d(detg); otherwise the output differs from the input iff some term
  holds a derivative of a weighted field, and the two agree on every
  term free of the coupling f.

Terms of one density have pairwise distinct factor signatures, avoid
pairs the contraction engine merges (g with ginv, eps with epsinv), and
avoid symmetric-antisymmetric contractions, so no term vanishes or
cancels against another and the weight argument is exact.

Each draw holds one density with a run of 9 identical factors, one with
8, one with 7 and twelve with 6; the others get a run of 0 to 5
identical phi factors in equal shares.  Which density gets which run,
how many core terms it has and whether it has a gauged block is the
same in every draw, so draws differ in content but not in shape.  Every
run carries a coupling monomial unique in the draw, so each costs a
search of its own: the twelve runs of 6 form a class of near-equal cost
that holds the tail percentile.  The 9-run densities are
the "phi^9 class": today the engine refuses them as too symmetric to
canonicalize.  No run is longer than 9: at 10 and above the engine
materializes millions of permutations before it checks its cap.

Run as a script to print a draw: ``python3 gen.py SEED [DRAW]``.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

DRAW_SIZE = 100
SCHEDULED_GROUPS = (9, 8, 7) + (6,) * 12
REFUSED_GROUP = 9

SPACETIME = ("mu", "nu", "rho", "sig")
FRAME = ("a", "b")


@dataclass
class Term:
    factors: list            # DSL factor texts, without coefficient
    weight: Fraction
    signature: tuple         # index-free description, for distinctness
    inhomogeneous: bool = False   # local transform leaves D terms behind
    uncovered: bool = False       # d(S) or d(detg)
    covered_deriv: bool = False   # derivative with a covariant shift
    contractions: int = 0
    chain: bool = False
    groups: list = field(default_factory=list)  # identical-factor runs
    coeff: str = ""               # fixed coefficient, else drawn


# Core blocks: (draw weight, factors, scale weight, flags).  Labels are
# fixed per block; every term is its own index scope.
_CORES = [
    (3, ["ginv[mu,rho]", "ginv[nu,sig]", "d[mu](A[nu])", "d[rho](A[sig])"],
     -4, dict(contractions=4)),
    (3, ["ginv[mu,nu]", "A[mu]", "A[nu]"], -2, dict(contractions=2)),
    (3, ["eta[a,b]", "ginv[mu,nu]", "W[a,mu]", "W[b,nu]"], -2,
     dict(contractions=3)),
    (3, ["Psibar", "Psi"], -3, dict(chain=True)),
    (3, ["epsinv[a,mu]", "A[mu]", "Psibar", "gamma[a]", "Psi"], -4,
     dict(chain=True, contractions=2)),
    (1, ["ginv[mu,nu]", "d[mu](phi)", "d[nu](phi)"], -4,
     dict(inhomogeneous=True, covered_deriv=True, contractions=2)),
    (1, ["ginv[mu,nu]", "S[mu]", "S[nu]"], -2,
     dict(inhomogeneous=True, contractions=2)),
    (1, ["ginv[mu,nu]", "A[mu]", "d[nu](phi)"], -3,
     dict(inhomogeneous=True, covered_deriv=True, contractions=2)),
    (1, ["epsinv[a,mu]", "Psibar", "gamma[a]", "d[mu](Psi)"], -4,
     dict(chain=True, contractions=2, inhomogeneous=True,
          covered_deriv=True)),
    (0.5, ["ginv[mu,nu]", "d[mu](detg)", "d[nu](phi)"], 1,
     dict(inhomogeneous=True, uncovered=True, covered_deriv=True,
          contractions=2)),
    (0.5, ["ginv[mu,nu]", "d[mu](S[nu])"], -2,
     dict(inhomogeneous=True, uncovered=True, contractions=2)),
]
_CORE_WEIGHTS = [c[0] for c in _CORES]

# homogeneous partners for a run of identical phi factors:
# (factors, scale weight, contractions, chain)
_FILLERS = [
    ([], 0, 0, False),
    (["ginv[mu,nu]", "A[mu]", "A[nu]"], -2, 2, False),
    (["Psibar", "Psi"], -3, 0, True),
    (["ginv[mu,rho]", "ginv[nu,sig]", "d[mu](A[nu])", "d[rho](A[sig])"],
     -4, 4, False),
]

_COUPLINGS = ("lambda", "e", "g")

def _power(name: str, k: int) -> list:
    if k <= 0:
        return []
    return [name if k == 1 else f"{name}^{k}"]


def _coeff_text(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.1:
        return "i"
    if r < 0.15:
        return f"({rng.randint(-3, 3)}+{rng.randint(1, 3)}*i)"
    num = rng.choice((1, 1, 1, 2, 3, 5))
    den = rng.choice((1, 1, 2, 3, 4))
    return str(Fraction(num, den)).replace(" ", "")


def _couplings(rng: random.Random) -> list:
    out = []
    for name in _COUPLINGS:
        if rng.random() < 0.3:
            p = rng.choice((1, 1, 2))
            out.append(name if p == 1 else f"{name}^{p}")
    return out


def _pad(delta: int, max_phi: int, rng: random.Random) -> tuple[int, int]:
    """(detg power, phi power) adding `delta` to a term's weight, or
    the nearest reachable change when phi^max_phi is not enough."""
    for j in range(3):
        k = 4 * j - delta
        if 0 <= k <= max_phi:
            if k + 4 <= max_phi and j < 2 and rng.random() < 0.2:
                return j + 1, k + 4
            return j, k
    return 0, min(max_phi, max(0, -delta))


def _core_term(rng: random.Random, off: int) -> Term:
    _, factors, w, flags = rng.choices(_CORES, _CORE_WEIGHTS)[0]
    # a derivative of phi feeds one more phi into the local transform
    # and the covariant shift: keep those runs well below the cap
    max_phi = 3 if flags.get("covered_deriv") else 5
    delta = -4 - w + off
    j, k = _pad(delta, max_phi, rng)
    weight = Fraction(w) + 4 * j - k
    cpl = _couplings(rng)
    fs = cpl + _power("detg", j) + list(factors) + _power("phi", k)
    return Term(fs, weight, tuple(sorted(fs)),
                groups=[g for g in (j, k) if g > 1], **flags)


def _monomial(k: int) -> list:
    """Coupling monomial number k, distinct for every k."""
    return (_power("lambda", 1 + k % 4) + _power("e", k // 4 % 4)
            + _power("g", k // 16))


def _power_term(rng: random.Random, n: int, k: int) -> Term:
    """A run of n identical phi factors, padded to weight -4 where the
    fillers allow it.  From 7 on the run stands alone with detg: every
    other symmetry multiplies the canonicalizer's candidate count.  The
    coupling monomial is the density's own (index k in the draw), so the
    term cache never shares a run between densities and every run of a
    given size costs the same search."""
    cpl = _monomial(k)
    options = [(j, fl) for j in (0, 1, 2) for fl in _FILLERS
               if 4 * j - n + fl[1] == -4 and (n < 7 or not fl[0])]
    if options:
        j, (fill, fw, ctr, chain) = rng.choice(options)
    else:
        j, (fill, fw, ctr, chain) = rng.choice((0, 1)), _FILLERS[0]
    fs = cpl + _power("detg", j) + fill + _power("phi", n)
    return Term(fs, Fraction(4 * j - n + fw), tuple(sorted(fs)),
                contractions=ctr, chain=chain,
                groups=[g for g in (j, n) if g > 1])


def _gauged_block(rng: random.Random) -> list:
    """1/2 ginv (d phi - f S phi)^2, expanded; covariant under local
    rescaling, so it is homogeneous with weight -4."""
    mult = ["e"] if rng.random() < 0.3 else []
    ks = [("1/2", ["ginv[mu,nu]", "d[mu](phi)", "d[nu](phi)"]),
          ("-1", ["f", "ginv[mu,nu]", "S[mu]", "phi", "d[nu](phi)"]),
          ("1/2", ["f^2", "ginv[mu,nu]", "S[mu]", "S[nu]", "phi^2"])]
    out = []
    for c, fs in ks:
        out.append(Term(mult + fs, Fraction(-4), tuple(sorted(mult + fs)),
                        covered_deriv="d[" in "".join(fs), contractions=2,
                        groups=[2] if "phi^2" in fs else [], coeff=c))
    return out


def _render_term(coeff: str, t: Term) -> tuple[str, str]:
    sign = "+"
    if coeff.startswith("-"):
        sign, coeff = "-", coeff[1:]
    parts = ([] if coeff == "1" else [coeff]) + t.factors
    return sign, " * ".join(parts)


def _declared_fields(terms: list) -> list:
    text = " ".join(f for t in terms for f in t.factors)
    order = ("S", "ginv", "eta", "detg", "epsinv", "phi", "A", "W",
             "Psibar", "Psi")
    out = []
    for name in order:
        if name == "Psi":
            present = "Psi" in text.replace("Psibar", "")
        elif name in ("S", "A", "W"):
            present = f"{name}[" in text
        else:
            present = name in text
        if present:
            out.append(name)
    return out


def density(rng: random.Random, name: str, group: int, k: int) -> dict:
    """Density number k of a draw.  Its longest run of identical factors
    is `group` when that is at least 6; otherwise runs stay at most 5."""
    # the size mix is fixed by k, so every draw has the same shares
    terms: list[Term] = []
    if k % 5 == 0:
        terms.extend(_gauged_block(rng))
    n_core = 1 + k % 4
    off_at = rng.randrange(n_core) if k // 4 % 4 == 0 else -1
    seen = {t.signature for t in terms}
    for i in range(n_core):
        for _ in range(20):
            off = rng.choice((-1, 1)) if i == off_at else 0
            t = _core_term(rng, off)
            if t.signature not in seen:
                break
        else:
            continue
        seen.add(t.signature)
        terms.append(t)
    if group >= 2:
        t = _power_term(rng, group, k)
        if t.signature not in seen:
            terms.append(t)
    rng.shuffle(terms)

    lines = ["# generated density"]
    lines.append("indices spacetime " + " ".join(SPACETIME) + " ;")
    if any(t.chain or "eta" in " ".join(t.factors) for t in terms):
        lines.append("indices frame " + " ".join(FRAME) + " ;")
    lines.append("fields " + " ".join(_declared_fields(terms)) + " ;")
    lines.append(f"name {name} ;")
    body = []
    for k, t in enumerate(terms):
        coeff = t.coeff or _coeff_text(rng)
        sign, text = _render_term(coeff, t)
        if k == 0:
            body.append(("-" if sign == "-" else "") + text)
        else:
            body.append(f"\n    {sign} {text}")
    lines.append("density " + "".join(body) + " ;")
    source = "\n".join(lines) + "\n"

    global_ok = all(t.weight == -4 for t in terms)
    inhom = any(t.inhomogeneous for t in terms)
    uncovered = any(t.uncovered for t in terms)
    max_group = max((g for t in terms for g in t.groups), default=1)
    return {
        "name": name,
        "source": source,
        "expect": {
            "global": global_ok,
            "local": global_ok and not inhom,
            "uncovered": uncovered,
            "cov_changes": any(t.covered_deriv for t in terms),
            "refused": max_group >= REFUSED_GROUP,
        },
        "props": {
            "terms": len(terms),
            "contractions": sum(t.contractions for t in terms),
            "chains": sum(1 for t in terms if t.chain),
            "max_group": max_group,
        },
    }


def draw(seed: int, index: int = 0, size: int = DRAW_SIZE) -> list:
    """The `index`-th draw of `size` densities for a workload seed.  The
    same (seed, index, size) gives byte-identical sources."""
    rng = random.Random(f"weylcheck-densities/{seed}/{index}")
    # the skeleton (run length, core-term count, gauged block per slot) is
    # the same in every draw; the seed draws what fills it
    groups = list(SCHEDULED_GROUPS[:size])
    groups += [k % 6 for k in range(size - len(groups))]
    random.Random(size).shuffle(groups)
    return [density(rng, f"gen-s{seed}-d{index}-n{k}", g, k)
            for k, g in enumerate(groups)]


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    index = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    json.dump(draw(seed, index), sys.stdout, indent=1)
    sys.stdout.write("\n")
