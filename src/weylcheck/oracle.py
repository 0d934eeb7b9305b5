"""Independent numeric cross-check of the symbolic engines.

Expressions are evaluated on random assignments: every field is a
degree-two polynomial in the four coordinates (so derivatives are exact,
no finite differences), the metric is built from a sampled invertible
tetrad, Clifford atoms become explicit 4x4 matrices, and Lam is
exp(k*ell(x)) for a sampled polynomial ell, making D_mu = d_mu ell
exact.  Each rewrite rule ships with an lhs/rhs pair; agreement is
checked in relative terms over many seeded trials.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import exprs as ex
from .errors import SingularAssignment, UnboundIndex, WeylcheckError
from .exprs import (
    CliffordAtom,
    CliffordKind,
    Coupling,
    CRat,
    Expr,
    FieldAtom,
    Kind,
    Partial,
    Product,
    SpinorChain,
    Sum,
    Variance,
    canonicalize,
)
from .report import Mode, OracleSummary, TraceStep, VerificationReport

TOL_FIELD = 1e-9
TOL_PURE = 1e-12

_ETA = np.diag([1.0, -1.0, -1.0, -1.0])

_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def _dirac_gammas():
    """Standard Dirac representation with signature (+,-,-,-)."""
    z = np.zeros((2, 2), dtype=complex)
    i2 = np.eye(2, dtype=complex)
    g0 = np.block([[i2, z], [z, -i2]])
    gs = [np.block([[z, s], [-s, z]]) for s in (_S1, _S2, _S3)]
    return np.stack([g0] + gs)


GAMMA_UP = _dirac_gammas()
GAMMA_LO = np.einsum("ab,bij->aij", _ETA, GAMMA_UP)
SIGMA_UU = np.einsum("aij,bjk->abik", GAMMA_UP, GAMMA_UP)
SIGMA_UU = (SIGMA_UU - np.einsum("abij->baij", SIGMA_UU)) / 4.0

_MAX_RESAMPLE = 100
_COND_CAP = 1e3

_UPPER = np.triu_indices(4)


def _poly_jets(rng, x, shape=(), complex_=False):
    """Draw degree <= 2 polynomials of the given array shape and return
    their value, gradient and Hessian at x, derivative axes first.

    Each polynomial takes 15 uniform(-1, 1) coefficients in the order of
    the `Assignment` docstring; a complex one draws its 15 real parts,
    then its 15 imaginary parts.
    """
    parts = (2,) if complex_ else ()
    coef = rng.uniform(-1.0, 1.0, shape + parts + (15,))
    if complex_:
        coef = coef[..., 0, :] + 1j * coef[..., 1, :]
    c, b = coef[..., 0], coef[..., 1:5]
    hess = np.zeros(shape + (4, 4), dtype=coef.dtype)
    hess[..., _UPPER[0], _UPPER[1]] = coef[..., 5:]
    hess = hess + np.swapaxes(hess, -1, -2)
    hx = hess @ x
    val = c + (b + 0.5 * hx) @ x
    return (np.asarray(val), np.moveaxis(b + hx, -1, 0),
            np.moveaxis(hess, (-2, -1), (0, 1)))


def _inverse_jet(m, dm, ddm):
    """Value, gradient and Hessian of inv(m) from those of a matrix m."""
    inv = np.linalg.inv(m)
    d = -np.einsum("ma,kab,bn->kmn", inv, dm, inv)
    dd = (-np.einsum("ma,ksab,bn->ksmn", inv, ddm, inv)
          + np.einsum("ma,kab,bc,scd,dn->ksmn", inv, dm, inv, dm, inv)
          + np.einsum("ma,sab,bc,kcd,dn->ksmn", inv, dm, inv, dm, inv))
    return inv, d, dd


class Assignment:
    """One random evaluation context.

    Sampling order is fixed and part of the reproducibility contract:
    point, tetrad (resampled until well conditioned), phi, A, W, S,
    ell, Psi, Psibar, structure constants, couplings.  Every field is a
    degree <= 2 polynomial; array-valued fields draw their components
    in row-major order.  Each polynomial draws 15 coefficients: the
    constant, then those of x0..x3, then those of x_i*x_j for i <= j in
    the order (0,0), (0,1), (0,2), (0,3), (1,1), ..., (3,3).  A complex
    polynomial draws all 15 real parts before its 15 imaginary parts.
    """

    def __init__(self, key, tetrad_scale: float = 1.0):
        self.key = tuple(int(k) for k in key)
        self.tetrad_scale = float(tetrad_scale)
        rng = np.random.default_rng(self.key)

        x = rng.uniform(-1.0, 1.0, 4)
        self.x = x

        for _ in range(_MAX_RESAMPLE):
            eps = _poly_jets(rng, x, (4, 4))
            e0 = eps[0]
            if abs(np.linalg.det(e0)) <= 0.1:
                continue
            g0 = e0.T @ _ETA @ e0
            if np.linalg.cond(g0) < _COND_CAP:
                break
        else:
            raise SingularAssignment(
                "no well-conditioned tetrad found for "
                f"seed {self.key}")

        phi = _poly_jets(rng, x)
        A = _poly_jets(rng, x, (4,))
        W = _poly_jets(rng, x, (4, 4))
        S = _poly_jets(rng, x, (4,))
        ell0, D0, dD = _poly_jets(rng, x)
        psi = _poly_jets(rng, x, (4,), complex_=True)
        psibar = _poly_jets(rng, x, (4,), complex_=True)

        t = rng.uniform(-1.0, 1.0, (4, 4, 4))
        f = np.zeros((4, 4, 4))
        for perm in itertools.permutations(range(3)):
            sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
            f += sign * np.transpose(t, perm)
        self.structf = f / 6.0

        self.couplings = {}
        for name in ("lambda", "f", "e", "g"):
            mag = rng.uniform(0.3, 1.2)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            self.couplings[name] = sign * mag

        s = self.tetrad_scale
        E0, dE, ddE = (s * j for j in eps)

        G0 = np.einsum("ab,am,bn->mn", _ETA, E0, E0)
        dG = (np.einsum("ab,ram,bn->rmn", _ETA, dE, E0)
              + np.einsum("ab,am,rbn->rmn", _ETA, E0, dE))
        ddG = (np.einsum("ab,rsam,bn->rsmn", _ETA, ddE, E0)
               + np.einsum("ab,ram,sbn->rsmn", _ETA, dE, dE)
               + np.einsum("ab,sam,rbn->rsmn", _ETA, dE, dE)
               + np.einsum("ab,am,rsbn->rsmn", _ETA, E0, ddE))

        Ginv, dGinv, ddGinv = _inverse_jet(G0, dG, ddG)
        # inv(E0) is indexed [mu, a]; the inverse tetrad is [a, mu]
        Einv, dEinv, ddEinv = (np.swapaxes(j, -1, -2)
                               for j in _inverse_jet(E0, dE, ddE))

        detg0 = math.sqrt(abs(np.linalg.det(G0)))
        ddetg = 0.5 * detg0 * np.einsum("rs,mrs->m", Ginv, dG)

        self.ell0 = float(ell0)

        zero2 = (np.zeros((4, 4, 4)), np.zeros((4, 4, 4, 4)))
        self._jets = {
            Kind.METRIC: (G0, dG, ddG),
            Kind.INV_METRIC: (Ginv, dGinv, ddGinv),
            Kind.MINKOWSKI: (_ETA, *zero2),
            Kind.MINKOWSKI_UP: (_ETA, *zero2),
            Kind.TETRAD: (E0, dE, ddE),
            Kind.INV_TETRAD: (Einv, dEinv, ddEinv),
            Kind.DET_FACTOR: (np.array(detg0), ddetg, None),
            Kind.SCALAR: phi,
            Kind.EM_VECTOR: A,
            Kind.YM_VECTOR: W,
            Kind.WEYL_VECTOR: S,
            Kind.LOG_DERIV: (D0, dD, np.zeros((4, 4, 4))),
            Kind.STRUCTURE_CONST: (self.structf,
                                   np.zeros((4, 4, 4, 4)),
                                   np.zeros((4, 4, 4, 4, 4))),
            Kind.FERMION: psi,
            Kind.FERMION_BAR: psibar,
        }
        self.E0, self.G0, self.Ginv0, self.detg0 = E0, G0, Ginv, detg0
        self.dG = dG

    def lam(self, k: Fraction) -> float:
        return math.exp(float(k) * self.ell0)

    def tensor_jet(self, kind: Kind, order: int) -> np.ndarray:
        jets = self._jets[kind]
        if order >= len(jets) or jets[order] is None:
            raise WeylcheckError(
                f"derivative order {order} of {kind.value!r} is not "
                f"supported by the numeric oracle")
        return jets[order]


# ---------------------------------------------------------------------------
# expression evaluation

def _clifford_value(atom: CliffordAtom):
    if atom.ckind == CliffordKind.IDENTITY:
        return np.eye(4, dtype=complex), []
    if atom.ckind == CliffordKind.GAMMA:
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


def _atom_value(a: Assignment, atom: FieldAtom, order: int, dlabels):
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


def _factor_value(a: Assignment, f: Expr):
    """(array, slot labels) for one tensor factor."""
    if isinstance(f, Coupling):
        return np.asarray(a.couplings[f.name] ** f.power), []
    if isinstance(f, FieldAtom):
        return _atom_value(a, f, 0, [])
    if isinstance(f, Partial):
        idxs, atom = ex._deriv_split(f)
        dlabels = [ix.label for ix in idxs]
        if not isinstance(atom, FieldAtom):
            raise WeylcheckError("derivative of a non-atom reached the "
                                 "numeric oracle")
        return _atom_value(a, atom, len(idxs), dlabels)
    raise WeylcheckError(f"cannot evaluate factor {f!r}")


def _chain_item_value(a: Assignment, item: Expr):
    """(array, labels, spin kind); spin axes last."""
    if isinstance(item, CliffordAtom):
        arr, labels = _clifford_value(item)
        return arr, labels, "mat"
    if isinstance(item, FieldAtom):
        if item.kind == Kind.FERMION:
            return a.tensor_jet(Kind.FERMION, 0), [], "ket"
        if item.kind == Kind.FERMION_BAR:
            return a.tensor_jet(Kind.FERMION_BAR, 0), [], "bra"
    if isinstance(item, Partial):
        idxs, atom = ex._deriv_split(item)
        if isinstance(atom, FieldAtom) and atom.kind in (
                Kind.FERMION, Kind.FERMION_BAR):
            arr = a.tensor_jet(atom.kind, len(idxs))
            kind = "ket" if atom.kind == Kind.FERMION else "bra"
            return arr, [ix.label for ix in idxs], kind
    raise WeylcheckError(f"cannot evaluate chain item {item!r}")


_CHAIN_STATES = {
    ("bra", "mat"): "bra",
    ("bra", "ket"): "scalar",
    ("mat", "mat"): "mat",
    ("mat", "ket"): "ket",
}


def _chain_value(a: Assignment, chain: SpinorChain):
    parts = [_chain_item_value(a, it) for it in chain.items]
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


def _term_value(a: Assignment, t: Product):
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

    for f in t.factors:
        arr, labels = _factor_value(a, f)
        push(arr, labels)

    state = "scalar"
    spin_ids: list[int] = []
    if t.chain is not None:
        arr, labels, state = _chain_value(a, t.chain)
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


def evaluate_components(e: Expr, a: Assignment):
    """Evaluate all components: (array, free labels sorted, spin state).

    The array's leading axes follow the sorted free labels; spinor axes,
    if the expression has an open chain, come last.
    """
    return _evaluate_canonical(canonicalize(e), a)


def _evaluate_canonical(s: Sum, a: Assignment):
    """`evaluate_components` of a sum already in canonical form."""
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


def evaluate(e: Expr, a: Assignment, bind: Optional[dict] = None):
    """Evaluate to a number (closed chain) or spinor array.

    Free indices must be bound to concrete values 0..3 through `bind`.
    """
    arr, labels, state = evaluate_components(e, a)
    if labels:
        bind = bind or {}
        missing = [lab for lab in labels if lab not in bind]
        if missing:
            raise UnboundIndex(f"unbound free indices: {missing}")
        sel = []
        for lab in labels:
            v = int(bind[lab])
            if not 0 <= v <= 3:
                raise UnboundIndex(f"index value out of range: {lab}={v}")
            sel.append(v)
        arr = arr[tuple(sel)]
    if state == "scalar":
        return complex(arr)
    return arr


def relative_deviation(x, y) -> float:
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise WeylcheckError(f"shape mismatch {x.shape} vs {y.shape}")
    num = float(np.max(np.abs(x - y))) if x.size else 0.0
    scale = max(
        1.0,
        float(np.max(np.abs(x))) if x.size else 0.0,
        float(np.max(np.abs(y))) if y.size else 0.0,
    )
    return num / scale


# ---------------------------------------------------------------------------
# rule catalog

@dataclass(frozen=True)
class OracleCheck:
    name: str
    fn: Callable[[Assignment], float]
    pure: bool = False

    @property
    def tolerance(self) -> float:
        return TOL_PURE if self.pure else TOL_FIELD


def _pair(name: str, lhs: Expr, rhs: Expr, pure=False) -> OracleCheck:
    lhs_c = canonicalize(lhs)
    rhs_c = canonicalize(rhs)

    def fn(a: Assignment) -> float:
        xa, xl, xs = _evaluate_canonical(lhs_c, a)
        ya, yl, ys = _evaluate_canonical(rhs_c, a)
        # an identically-zero side carries no free structure of its own
        if (xl, xs) != (yl, ys) and ya.size == 1 and not np.any(ya):
            ya, yl, ys = np.zeros_like(xa), xl, xs
        if (xl, xs) != (yl, ys) and xa.size == 1 and not np.any(xa):
            xa, xl, xs = np.zeros_like(ya), yl, ys
        if (xl, xs) != (yl, ys):
            raise WeylcheckError(
                f"{name}: free structure mismatch {(xl, xs)} vs {(yl, ys)}")
        return relative_deviation(xa, ya)

    return OracleCheck(name, fn, pure)


def _chain(*items) -> Product:
    return Product(CRat(1), (), SpinorChain(tuple(items)))


_CATALOG: Optional[list] = None


def _build_catalog() -> list:
    from . import clifford as cl
    from . import densities, gauge, scale
    from .simplify import full_simplify
    from .tensor import christoffel, contract_pairs

    checks: list[OracleCheck] = []

    def add_rewrite(name, lhs, engine, pure=False):
        checks.append(_pair(name, lhs, engine(lhs), pure))

    # tensor contraction rules: engine output vs direct evaluation
    dl = ex.delta
    add_rewrite("tensor/delta-relabel",
                dl("x", "y") * ex.inv_metric("y", "z"), contract_pairs)
    add_rewrite("tensor/delta-trace",
                dl("x", "x") * ex.scalar_field(), contract_pairs)
    add_rewrite("tensor/metric-inverse",
                ex.inv_metric("m", "n") * ex.metric("n", "r"),
                contract_pairs)
    add_rewrite("tensor/eta-pair",
                ex.minkowski_up("a", "b") * ex.minkowski("b", "c"),
                contract_pairs, pure=True)
    add_rewrite("tensor/tetrad-completeness-frame",
                ex.tetrad("a", "m") * ex.inv_tetrad("a", "n"),
                contract_pairs)
    add_rewrite("tensor/tetrad-completeness-spacetime",
                ex.tetrad("a", "m") * ex.inv_tetrad("b", "m"),
                contract_pairs)
    add_rewrite("tensor/eta-tetrad-tetrad",
                ex.minkowski("a", "b") * ex.tetrad("a", "m")
                * ex.tetrad("b", "n"), contract_pairs)
    add_rewrite("tensor/etainv-invtetrad-invtetrad",
                ex.minkowski_up("a", "b") * ex.inv_tetrad("a", "m")
                * ex.inv_tetrad("b", "n"), contract_pairs)
    add_rewrite("tensor/variance-shuffle",
                ex.inv_metric("l", "n") * ex.tetrad("b", "l"),
                contract_pairs)
    checks.append(_pair(
        "tensor/eta-into-chain",
        Product(CRat(1), (ex.minkowski("a", "b"),),
                SpinorChain((ex.gamma("b"),))),
        contract_pairs(Product(CRat(1), (ex.minkowski("a", "b"),),
                               SpinorChain((ex.gamma("b"),)))),
        pure=True))

    # Christoffel expansion against a direct formula on the assignment
    chr_exp = christoffel("rho", "mu", "nu").expansion

    def christoffel_direct(a: Assignment) -> float:
        arr, labels, state = _evaluate_canonical(chr_exp, a)
        assert labels == ("mu", "nu", "rho") and state == "scalar"
        direct = 0.5 * (np.einsum("rs,msn->mnr", a.Ginv0, a.dG)
                        + np.einsum("rs,nsm->mnr", a.Ginv0, a.dG)
                        - np.einsum("rs,smn->mnr", a.Ginv0, a.dG))
        return relative_deviation(arr, direct)

    checks.append(OracleCheck("tensor/christoffel-direct",
                              christoffel_direct))

    # Clifford identities (pure matrix content, tight tolerance)
    gup, glo = ex.gamma, (lambda l: ex.gamma(l, up=False))
    anns = _chain(gup("a"), gup("b")) + _chain(gup("b"), gup("a"))
    two_eta = Product(CRat(2), (ex.minkowski_up("a", "b"),),
                      SpinorChain((ex.identity_spinor(),)))
    checks.append(_pair("clifford/anticommutator", anns, two_eta,
                        pure=True))
    add_rewrite("clifford/contract-dim", _chain(gup("c"), glo("c")),
                cl.gamma_canonicalize, pure=True)
    add_rewrite("clifford/sandwich",
                _chain(gup("c"), glo("b"), glo("c")),
                cl.gamma_canonicalize, pure=True)
    add_rewrite("clifford/gamma-sigma",
                _chain(gup("c"), ex.sigma("c", "b", up1=False, up2=False)),
                cl.gamma_canonicalize, pure=True)
    add_rewrite("clifford/sigma-expand", _chain(ex.sigma("a", "b")),
                cl.expand_sigma, pure=True)

    def gamma_sigma_matrices(a: Assignment) -> float:
        sig_ll = np.einsum("cx,by,xyij->cbij", _ETA, _ETA, SIGMA_UU)
        lhs = np.einsum("cij,cbjk->bik", GAMMA_UP, sig_ll)
        rhs = 1.5 * GAMMA_LO
        return relative_deviation(lhs, rhs)

    checks.append(OracleCheck("clifford/gamma-sigma-matrices",
                              gamma_sigma_matrices, pure=True))

    fchain = Product(CRat(1), (ex.minkowski("a", "b"),),
                     SpinorChain((ex.fermion_bar(), gup("a"), gup("b"),
                                  ex.fermion())))
    add_rewrite("clifford/fermion-chain", fchain, full_simplify)

    # scale transforms: Lam^4 * transformed == original for invariant
    # densities, in both modes
    lam4 = ex.lam(Fraction(4))
    for name in densities.BUILTIN_NAMES:
        L = densities.builtin(name).parsed
        checks.append(_pair(f"scale/global-{name}",
                            lam4 * scale.apply_global_scale(L), L))
    for name in ("maxwell", "yangmills", "dirac", "scalar-gauged"):
        L = densities.builtin(name).parsed
        checks.append(_pair(f"scale/local-{name}",
                            lam4 * scale.apply_local_scale(L), L))

    # the ungauged scalar is the negative control: its local residual is
    # nonzero, and full simplification must preserve its value
    sc = densities.scalar().parsed
    raw = lam4 * scale.apply_local_scale(sc) - sc
    checks.append(_pair("scale/local-scalar-residual", raw,
                        full_simplify(raw)))

    sg = densities.scalar_gauged().parsed
    checks.append(_pair(
        "scale/composition-local",
        scale.apply_local_scale(scale.apply_local_scale(sg)),
        scale.apply_local_scale(sg, power=2)))
    checks.append(_pair(
        "scale/composition-global",
        scale.apply_global_scale(scale.apply_global_scale(sc)),
        scale.apply_global_scale(sc, power=2)))

    phi2 = ex.scalar_field() * ex.scalar_field()
    checks.append(_pair(
        "scale/homogeneous-weight",
        scale.apply_global_scale(phi2), ex.lam(Fraction(-2)) * phi2))

    # gauge shifts: engine output vs hand-built covariant replacement
    fS = lambda m: Coupling("f") * ex.weyl_vector(m)

    def shift_pair(name, part, shifted):
        checks.append(_pair(f"gauge/shift-{name}",
                            gauge.gauge_covariantize(part), shifted))

    shift_pair("metric", ex.d("m", ex.metric("n", "r")),
               ex.d("m", ex.metric("n", "r"))
               + 2 * fS("m") * ex.metric("n", "r"))
    shift_pair("inv-metric", ex.d("m", ex.inv_metric("n", "r")),
               ex.d("m", ex.inv_metric("n", "r"))
               - 2 * fS("m") * ex.inv_metric("n", "r"))
    shift_pair("tetrad", ex.d("m", ex.tetrad("a", "n")),
               ex.d("m", ex.tetrad("a", "n"))
               + fS("m") * ex.tetrad("a", "n"))
    shift_pair("inv-tetrad", ex.d("m", ex.inv_tetrad("a", "n")),
               ex.d("m", ex.inv_tetrad("a", "n"))
               - fS("m") * ex.inv_tetrad("a", "n"))
    shift_pair("scalar", ex.d("m", ex.scalar_field()),
               ex.d("m", ex.scalar_field())
               - fS("m") * ex.scalar_field())
    psi_kin = Product(CRat(1), (),
                      SpinorChain((ex.fermion_bar(),
                                   ex.d("m", ex.fermion()))))
    psi_shift = psi_kin + Product(
        CRat(Fraction(-3, 2)),
        (Coupling("f"), ex.weyl_vector("m")),
        SpinorChain((ex.fermion_bar(), ex.fermion())))
    shift_pair("fermion", psi_kin, psi_shift)

    # decoupling as numeric statements
    dr = densities.dirac().parsed
    checks.append(_pair("gauge/decoupling-dirac-value",
                        gauge.gauge_covariantize(dr), dr))
    checks.append(_pair("gauge/scalar-gauged-value",
                        gauge.gauge_covariantize(sc), sg))

    # determinant factor consistency
    detg_expr = canonicalize(ex.det_factor())

    def detg_tetrad(a: Assignment) -> float:
        val, _, _ = _evaluate_canonical(detg_expr, a)
        return relative_deviation(val, abs(np.linalg.det(a.E0)))

    checks.append(OracleCheck("oracle/detg-tetrad-det", detg_tetrad))

    def detg_rescale(a: Assignment) -> float:
        c = 1.5
        a2 = Assignment(a.key, tetrad_scale=c)
        d1 = relative_deviation(np.asarray(a2.detg0),
                                np.asarray(c ** 4 * a.detg0))
        d2 = relative_deviation(a2.G0, c ** 2 * a.G0)
        return max(d1, d2)

    checks.append(OracleCheck("oracle/detg-rescale", detg_rescale))

    ident = canonicalize(ex.inv_metric("m", "r") * ex.metric("r", "n"))

    def inverse_identity(a: Assignment) -> float:
        arr, labels, state = _evaluate_canonical(ident, a)
        return relative_deviation(arr, np.eye(4))

    checks.append(OracleCheck("oracle/inverse-identity", inverse_identity,
                              pure=True))

    return checks


def catalog() -> list:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return _CATALOG


def run_oracle(trials: int = 100, seed: int = 0) -> VerificationReport:
    """Evaluate every rule pair on `trials` seeded random assignments."""
    checks = catalog()
    worst = {c.name: 0.0 for c in checks}
    failures: list[str] = []
    for trial in range(trials):
        a = Assignment((seed, trial))
        for c in checks:
            dev = c.fn(a)
            if dev > worst[c.name]:
                worst[c.name] = dev
            if dev > c.tolerance:
                failures.append(
                    f"{c.name}: deviation {dev:.3e} at trial {trial}")
    maxdev = max(worst.values()) if worst else 0.0
    trace = tuple(
        TraceStep(c.name, "evaluate(lhs) against evaluate(rhs)",
                  f"max relative deviation {worst[c.name]:.3e} over "
                  f"{trials} trials (tolerance {c.tolerance:.0e})")
        for c in checks)
    return VerificationReport(
        claim="oracle:rewrite-rules",
        mode=Mode.ORACLE,
        passed=not failures,
        residual="0" if not failures else "; ".join(failures[:5]),
        trace=trace,
        oracle=OracleSummary(trials=trials, maxdev=maxdev, seed=seed),
    )
