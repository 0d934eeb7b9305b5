"""Independent numeric cross-check of the symbolic engines.

Expressions are evaluated on random assignments: every field is a
degree-two polynomial in the four coordinates (so derivatives are exact,
no finite differences), the metric is built from a sampled invertible
tetrad, Clifford atoms become explicit 4x4 matrices, and Lam is
exp(k*ell(x)) for a sampled polynomial ell, making D_mu = d_mu ell
exact.  Each rewrite rule ships with an lhs/rhs pair; agreement is
checked in relative terms over many seeded trials.

Each sum is compiled once, from the raw terms of `exprs._flatten` and
without canonicalizing it, into per-term plans (operands, integer
subscripts, a contraction path from `np.einsum_path`).  Values therefore
also check the sign and renaming rules inside `canonicalize`.  Each
trial's `Assignment` holds only its draws; a `_Block` of `_BLOCK`
consecutive trials stacks them on a leading trial axis, computes every
jet once for all of them, and each check is evaluated once per block.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import exprs as ex
from .errors import SingularAssignment, UnboundIndex, WeylcheckError
from .exprs import (
    CliffordKind,
    CouplingKind,
    CRat,
    Expr,
    FieldAtom,
    Kind,
    Product,
    Variance,
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

# the fields drawn after the tetrad, in order; LOG_DERIV's is ell (D = d ell)
_FIELDS = ((Kind.SCALAR, (), False), (Kind.EM_VECTOR, (4,), False),
           (Kind.YM_VECTOR, (4, 4), False), (Kind.WEYL_VECTOR, (4,), False),
           (Kind.LOG_DERIV, (), False), (Kind.FERMION, (4,), True),
           (Kind.FERMION_BAR, (4,), True))


def _coefficients(rng, shape=(), complex_=False) -> np.ndarray:
    """Draw degree <= 2 polynomials of the given array shape, 15
    uniform(-1, 1) coefficients each in the order of the `Assignment`
    docstring (a complex one: its 15 real parts, then the imaginary)."""
    c = rng.uniform(-1.0, 1.0, shape + (2 if complex_ else 1, 15))
    return c[..., 0, :] + 1j * c[..., 1, :] if complex_ else c[..., 0, :]


def _poly_jets(coef, x):
    """Value, gradient and Hessian at x of polynomials with coefficients
    `coef[..., 15]`, stacked over trials: `coef`, `x` (trials, 4) and the
    jets lead with the trial axis, then come the derivative axes."""
    c, b = coef[..., 0], coef[..., 1:5]
    hess = np.zeros(coef.shape[:-1] + (4, 4), dtype=coef.dtype)
    hess[..., _UPPER[0], _UPPER[1]] = coef[..., 5:]
    hess = hess + np.swapaxes(hess, -1, -2)
    hx = np.einsum("t...ij,tj->t...i", hess, x)
    val = c + np.einsum("t...i,ti->t...", b + 0.5 * hx, x)
    return (val, np.moveaxis(b + hx, -1, 1),
            np.moveaxis(hess, (-2, -1), (1, 2)))


def _inverse_jet(m, dm, ddm):
    """Value, gradient and Hessian of inv(m) from those of a matrix m,
    stacked over trials (trial axis, then derivative axes): with
    P_k = inv dm_k, d_k = -P_k inv and
    dd_ks = -inv ddm_ks inv + (P_k P_s + P_s P_k) inv."""
    inv = np.linalg.inv(m)
    inv1, inv2 = inv[:, None], inv[:, None, None]
    P = inv1 @ dm
    PP = P[:, :, None] @ P[:, None, :]
    dd = -(inv2 @ ddm @ inv2) + (PP + np.swapaxes(PP, 1, 2)) @ inv2
    return inv, -P @ inv1, dd


class Assignment:
    """One random evaluation context: the draws of one trial.

    Sampling order is fixed and part of the reproducibility contract:
    point, tetrad (resampled until well conditioned), phi, A, W, S,
    ell, Psi, Psibar, structure constants, couplings.  Every field is a
    degree <= 2 polynomial; array-valued fields draw their components
    in row-major order.  Each polynomial draws 15 coefficients: the
    constant, then those of x0..x3, then those of x_i*x_j for i <= j in
    the order (0,0), (0,1), (0,2), (0,3), (1,1), ..., (3,3).  A complex
    polynomial draws all 15 real parts before its 15 imaginary parts.
    Each key seeds its own generator, so evaluating trials in blocks
    leaves every trial's draws unchanged.

    It keeps only these draws.  Its jets (`tensor_jet`, `lam`, `E0`,
    `G0`, `detg0`, `ell0`, `structf`) are read from a `_Block` of this
    one trial, built on first use.
    """

    def __init__(self, key):
        self.key = tuple(int(k) for k in key)
        rng = np.random.default_rng(self.key)

        self.x = x = rng.uniform(-1.0, 1.0, 4)
        for _ in range(_MAX_RESAMPLE):
            tetrad = _coefficients(rng, (4, 4))
            e0 = _poly_jets(tetrad[None], x[None])[0][0]
            if abs(np.linalg.det(e0)) > 0.1 \
                    and np.linalg.cond(e0.T @ _ETA @ e0) < _COND_CAP:
                break
        else:
            raise SingularAssignment(
                f"no well-conditioned tetrad found for seed {self.key}")

        self._coef = {Kind.TETRAD: tetrad}
        for kind, shape, complex_ in _FIELDS:
            self._coef[kind] = _coefficients(rng, shape, complex_)
        self._structure = rng.uniform(-1.0, 1.0, (4, 4, 4))

        self.couplings = {}
        for name in ex._COUPLINGS:
            mag = rng.uniform(0.3, 1.2)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            self.couplings[name] = sign * mag

    @cached_property
    def _block(self) -> _Block:
        return _Block([self])

    def lam(self, k: Fraction) -> float:
        return float(self._block.stacked(("lam", k))[0])

    def tensor_jet(self, kind: Kind, order: int) -> np.ndarray:
        return self._block.stacked((kind, order))[0]

    E0 = property(lambda a: a.tensor_jet(Kind.TETRAD, 0))
    G0 = property(lambda a: a.tensor_jet(Kind.METRIC, 0))
    detg0 = property(lambda a: float(a.tensor_jet(Kind.DET_FACTOR, 0)))
    ell0 = property(lambda a: float(a._block.ell0[0]))
    structf = property(lambda a: a.tensor_jet(Kind.STRUCTURE_CONST, 0))


# ---------------------------------------------------------------------------
# expression evaluation: sums compiled once, run on blocks of trials

_BLOCK = 25   # trials per block in `run_oracle`
_TRIAL = 0    # subscript of the leading trial axis

# spin state of a chain item or chain, from its open (left, right) axes
_SPIN_STATES = {(False, False): "scalar", (False, True): "bra",
                (True, False): "ket", (True, True): "mat"}


class _Block:
    """Consecutive trials.  Their draws are stacked on a leading trial
    axis and every jet is computed once for all of them; a handle's
    stacked value is a lookup."""

    def __init__(self, assignments):
        self.assignments = list(assignments)
        n = len(self.assignments)
        x = np.stack([a.x for a in self.assignments])
        jets = {kind: _poly_jets(
                    np.stack([a._coef[kind] for a in self.assignments]), x)
                for kind in self.assignments[0]._coef}

        E0, dE, ddE = jets[Kind.TETRAD]
        G0 = np.einsum("ab,tam,tbn->tmn", _ETA, E0, E0)
        dG = np.einsum("ab,tram,tbn->trmn", _ETA, dE, E0)
        dG = dG + np.swapaxes(dG, -1, -2)
        ddG = (np.einsum("ab,trsam,tbn->trsmn", _ETA, ddE, E0)
               + np.einsum("ab,tram,tsbn->trsmn", _ETA, dE, dE))
        ddG = ddG + np.swapaxes(ddG, -1, -2)
        ginv = _inverse_jet(G0, dG, ddG)
        # the inverse tetrad, indexed [a, mu], is the inverse of E0^T
        einv = _inverse_jet(*(np.swapaxes(j, -1, -2) for j in (E0, dE, ddE)))
        detg0 = np.sqrt(np.abs(np.linalg.det(G0)))
        ddetg = 0.5 * detg0[:, None] * np.einsum("trs,tmrs->tm", ginv[0], dG)

        t = np.stack([a._structure for a in self.assignments])
        f = np.zeros_like(t)
        for perm in itertools.permutations((1, 2, 3)):
            sign = 1 if perm in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1
            f += sign * np.transpose(t, (0,) + perm)
        # read-only zero jets: derivatives of eta, etainv and structf, and
        # the second derivative of D (the gradient of a quadratic)
        z3, z4, z5 = (np.broadcast_to(0.0, (n,) + (4,) * r) for r in (3, 4, 5))
        eta = (np.broadcast_to(_ETA, (n, 4, 4)), z3, z4)
        self.ell0, D0, dD = jets[Kind.LOG_DERIV]
        jets.update({
            Kind.METRIC: (G0, dG, ddG),
            Kind.INV_METRIC: ginv,
            Kind.MINKOWSKI: eta,
            Kind.MINKOWSKI_UP: eta,
            Kind.INV_TETRAD: einv,
            Kind.DET_FACTOR: (detg0, ddetg),
            Kind.LOG_DERIV: (D0, dD, z3),
            Kind.STRUCTURE_CONST: (f / 6.0, z4, z5),
        })
        self._stacked = {(kind, order): arr for kind, js in jets.items()
                         for order, arr in enumerate(js)}

    def stacked(self, handle) -> np.ndarray:
        """The block's value of a handle: a field's (Kind, derivative
        order), ("lam", exponent) or ("coupling", name, power)."""
        arr = self._stacked.get(handle)
        if arr is not None:
            return arr
        if handle[0] == "lam":
            arr = np.exp(float(handle[1]) * self.ell0)
        elif handle[0] == "coupling":
            arr = np.array([a.couplings[handle[1]] ** handle[2]
                            for a in self.assignments])
        else:
            raise WeylcheckError(
                f"derivative order {handle[1]} of {handle[0].value!r} is "
                f"not supported by the numeric oracle")
        self._stacked[handle] = arr
        return arr


def _clifford_value(atom: FieldAtom) -> np.ndarray:
    if atom.kind == CliffordKind.IDENTITY:
        return np.eye(4, dtype=complex)
    if atom.kind == CliffordKind.GAMMA:
        up = atom.indices[0].variance == Variance.UP
        return GAMMA_UP if up else GAMMA_LO
    i1, i2 = atom.indices
    arr = SIGMA_UU
    if i1.variance == Variance.DOWN:
        arr = np.einsum("ab,bcij->acij", _ETA, arr)
    if i2.variance == Variance.DOWN:
        arr = np.einsum("cd,adij->acij", _ETA, arr)
    return arr


def _operand(f: FieldAtom):
    """(constant array or per-trial handle, slot labels, open spin axes
    (left, right)) of a tensor factor or a spinor chain item.  No
    constant and no scalar has derivatives."""
    spin = f.kind.row.spin
    labels = [ix.label for ix in ex._slots_of_factor(f)]
    if f.kind is Kind.DELTA:
        return np.eye(4), labels, spin
    if isinstance(f.kind, CliffordKind):
        return _clifford_value(f), labels, spin
    if isinstance(f.kind, CouplingKind):
        return ("coupling", f.kind.value, f.exponent), [], spin
    if f.kind is Kind.LAMBDA_POWER:
        return ("lam", f.exponent), [], spin
    return (f.kind, len(f.derivs)), labels, spin


def _contraction_steps(subs, out):
    """Pairwise `np.einsum` steps along a path planned for a full block:
    (positions to pop, their subscripts, result subscripts).  Every axis
    has length `_BLOCK` or 4, so the steps depend only on the integer
    subscripts: they are planned once per signature (`_STEPS`) and
    shared by every term that has it."""
    return _STEPS[tuple(map(tuple, subs)), tuple(out)]


def _planned_steps(signature) -> list:
    """`_contraction_steps` of a signature (subscripts, output).  One or
    two operands make one step, the path `np.einsum_path` would return,
    so it is not asked."""
    subs, out = [list(s) for s in signature[0]], list(signature[1])
    if len(subs) < 3:
        path = [tuple(range(len(subs)))]
    else:
        shapes = [[_BLOCK if i == _TRIAL else 4 for i in s] for s in subs]
        args = itertools.chain(*((np.broadcast_to(0.0, sh), s)
                                 for sh, s in zip(shapes, subs)))
        path = np.einsum_path(*args, out, optimize="greedy")[0][1:]
    steps = []
    for pos in path:
        pos = sorted(pos, reverse=True)
        taken = [subs.pop(p) for p in pos]
        keep = set(out).union(*subs)
        new = list(out) if not subs else [
            i for i in dict.fromkeys(itertools.chain(*taken)) if i in keep]
        steps.append((pos, taken, new))
        subs.append(new)
    return steps


_STEPS = ex._Memo(_planned_steps)


class _Plan:
    """An expression compiled for block evaluation, one raw term of
    `exprs._flatten` at a time.

    Each term keeps its coefficient, its operands (constant arrays, or
    per-trial handles whose subscripts start with the trial axis) and
    its contraction steps.  Spinor chain items are operands too, joined
    by spin-axis subscripts.  `free` and `state` describe every term.
    """

    def __init__(self, e: Expr):
        self.terms = []
        self.free, self.state = (), "scalar"
        for i, (coeff, factors) in enumerate(ex._flatten(e)):
            term, key = self._compile(coeff, factors)
            if i and key != (self.free, self.state):
                raise WeylcheckError(
                    f"terms disagree in free structure: "
                    f"{(self.free, self.state)} vs {key}")
            self.free, self.state = key
            self.terms.append(term)

    @staticmethod
    def _compile(coeff: CRat, factors: list):
        ids: dict[str, int] = {}
        counts: dict[str, int] = {}
        ops, subs = [], []
        fresh = itertools.count(_TRIAL + 1)

        def push(op, labels, spin_ids=()):
            for lab in labels:
                if lab not in ids:
                    ids[lab] = next(fresh)
                counts[lab] = counts.get(lab, 0) + 1
            trial = [] if isinstance(op, np.ndarray) else [_TRIAL]
            ops.append(op)
            subs.append(trial + [ids[lab] for lab in labels]
                        + list(spin_ids))

        plain, chain = ex._split_chain(factors)
        for f in plain:
            push(*_operand(f)[:2])
        state, lo, right = "scalar", None, None
        for i, item in enumerate(chain):
            op, labels, (has_l, has_r) = _operand(item)
            if i and not (right is not None and has_l):
                raise WeylcheckError(
                    f"malformed spinor chain: {state} then "
                    f"{_SPIN_STATES[has_l, has_r]}")
            left = (right if i else next(fresh)) if has_l else None
            if i == 0:
                lo = left
            right = next(fresh) if has_r else None
            push(op, labels, [s for s in (left, right) if s is not None])
            state = _SPIN_STATES[lo is not None, right is not None]

        bad = [lab for lab, n in counts.items() if n > 2]
        if bad:
            raise WeylcheckError(f"index repeated more than twice: {bad}")
        free = tuple(sorted(lab for lab, n in counts.items() if n == 1))
        batched = any(not isinstance(op, np.ndarray) for op in ops)
        out = ([_TRIAL] if batched else []) + [ids[lab] for lab in free]
        out += [s for s in (lo, right) if s is not None]
        steps = _contraction_steps(subs, out) if ops else []
        return (coeff.to_complex(), ops, steps, batched), (free, state)

    def value(self, block: _Block) -> np.ndarray:
        """Components stacked over the block's trials: trial axis, then
        the sorted free labels, then spin axes."""
        n = len(block.assignments)
        acc = None
        for coeff, ops, steps, batched in self.terms:
            vals = [op if isinstance(op, np.ndarray) else block.stacked(op)
                    for op in ops]
            for pos, subs, out in steps:
                taken = [vals.pop(p) for p in pos]
                vals.append(np.einsum(*itertools.chain(*zip(taken, subs)),
                                      out))
            val = vals[0] * coeff if vals else np.asarray(coeff)
            if not batched:
                val = np.broadcast_to(val, (n,) + val.shape)
            acc = val if acc is None else acc + val
        return np.zeros(n) if acc is None else acc


def evaluate_components(e: Expr, a: Assignment):
    """Evaluate all components: (array, free labels sorted, spin state).

    The array's leading axes follow the sorted free labels; spinor axes,
    if the expression has an open chain, come last.
    """
    plan = _Plan(e)
    return np.array(plan.value(a._block)[0]), plan.free, plan.state


def evaluate(e: Expr, a: Assignment, bind: Optional[dict] = None):
    """Evaluate to a number (closed chain) or spinor array.

    Free indices must be bound to integers 0..3 through `bind`; any other
    value raises UnboundIndex.
    """
    arr, labels, state = evaluate_components(e, a)
    if labels:
        bind = bind or {}
        missing = [lab for lab in labels if lab not in bind]
        if missing:
            raise UnboundIndex(f"unbound free indices: {missing}")
        sel = []
        for lab in labels:
            try:
                v = operator.index(bind[lab])
            except TypeError:
                v = None
            if v is None or not 0 <= v <= 3:
                raise UnboundIndex(f"index value is not an integer 0..3: "
                                   f"{lab}={bind[lab]!r}")
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
    return float(_deviations(x[None], y[None])[0])


def _deviations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`relative_deviation` of each trial of two stacked blocks."""
    axes = tuple(range(1, x.ndim))

    def peak(v):
        return np.abs(v).max(axis=axes, initial=0.0)

    return peak(x - y) / np.maximum(1.0, np.maximum(peak(x), peak(y)))


# ---------------------------------------------------------------------------
# rule catalog

class OracleCheck(NamedTuple):
    """A named check; `fn` maps a block of trials to one relative
    deviation per trial."""
    name: str
    fn: Callable[[_Block], np.ndarray]
    pure: bool = False

    @property
    def tolerance(self) -> float:
        return TOL_PURE if self.pure else TOL_FIELD


def _pair(name: str, lhs: Expr, rhs: Expr, pure=False) -> OracleCheck:
    x, y = _Plan(lhs), _Plan(rhs)
    # an identically-zero side carries no free structure of its own
    if x.terms and y.terms and (x.free, x.state) != (y.free, y.state):
        raise WeylcheckError(f"{name}: free structure mismatch "
                             f"{(x.free, x.state)} vs {(y.free, y.state)}")

    def fn(block: _Block) -> np.ndarray:
        xa, ya = x.value(block), y.value(block)
        return _deviations(xa if x.terms else np.zeros_like(ya),
                           ya if y.terms else np.zeros_like(xa))

    return OracleCheck(name, fn, pure)


def _chain(*items) -> Product:
    return Product(CRat(1), items)


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
    add_rewrite("tensor/eta-into-chain",
                ex.minkowski("a", "b") * ex.gamma("b"), contract_pairs,
                pure=True)

    # Christoffel expansion against a direct formula on the assignment
    chr_plan = _Plan(christoffel("rho", "mu", "nu").expansion)
    assert chr_plan.free == ("mu", "nu", "rho") and chr_plan.state == "scalar"

    def christoffel_direct(block: _Block) -> np.ndarray:
        ginv = block.stacked((Kind.INV_METRIC, 0))
        dg = block.stacked((Kind.METRIC, 1))
        direct = 0.5 * (np.einsum("trs,tmsn->tmnr", ginv, dg)
                        + np.einsum("trs,tnsm->tmnr", ginv, dg)
                        - np.einsum("trs,tsmn->tmnr", ginv, dg))
        return _deviations(chr_plan.value(block), direct)

    checks.append(OracleCheck("tensor/christoffel-direct",
                              christoffel_direct))

    # Clifford identities (pure matrix content, tight tolerance)
    gup, glo = ex.gamma, (lambda l: ex.gamma(l, up=False))
    anns = _chain(gup("a"), gup("b")) + _chain(gup("b"), gup("a"))
    two_eta = Product(CRat(2), (ex.minkowski_up("a", "b"),
                                ex.identity_spinor()))
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

    def gamma_sigma_matrices(block: _Block) -> np.ndarray:
        sig_ll = np.einsum("cx,by,xyij->cbij", _ETA, _ETA, SIGMA_UU)
        lhs = np.einsum("cij,cbjk->bik", GAMMA_UP, sig_ll)
        dev = relative_deviation(lhs, 1.5 * GAMMA_LO)
        return np.full(len(block.assignments), dev)

    checks.append(OracleCheck("clifford/gamma-sigma-matrices",
                              gamma_sigma_matrices, pure=True))

    fchain = Product(CRat(1), (ex.minkowski("a", "b"), ex.fermion_bar(),
                               gup("a"), gup("b"), ex.fermion()))
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
    sc = densities.builtin("scalar").parsed
    raw = lam4 * scale.apply_local_scale(sc) - sc
    checks.append(_pair("scale/local-scalar-residual", raw,
                        full_simplify(raw)))

    sg = densities.builtin("scalar-gauged").parsed
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
    fS = lambda m: ex.coupling("f") * ex.weyl_vector(m)

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
    psi_kin = ex.fermion_bar() * ex.d("m", ex.fermion())
    psi_shift = psi_kin + Product(
        CRat(Fraction(-3, 2)),
        (ex.coupling("f"), ex.weyl_vector("m"), ex.fermion_bar(),
         ex.fermion()))
    shift_pair("fermion", psi_kin, psi_shift)

    # decoupling as numeric statements
    dr = densities.builtin("dirac").parsed
    checks.append(_pair("gauge/decoupling-dirac-value",
                        gauge.gauge_covariantize(dr), dr))
    checks.append(_pair("gauge/scalar-gauged-value",
                        gauge.gauge_covariantize(sc), sg))

    # determinant factor consistency
    detg_plan = _Plan(ex.det_factor())

    def detg_tetrad(block: _Block) -> np.ndarray:
        det = np.abs(np.linalg.det(block.stacked((Kind.TETRAD, 0))))
        return _deviations(detg_plan.value(block), det)

    checks.append(OracleCheck("oracle/detg-tetrad-det", detg_tetrad))

    def detg_rescale(block: _Block) -> np.ndarray:
        # rebuild the metric and its determinant from the drawn tetrad
        # scaled by c; both must scale homogeneously
        c = 1.5
        e2 = c * block.stacked((Kind.TETRAD, 0))
        g2 = np.einsum("ab,tam,tbn->tmn", _ETA, e2, e2)
        d1 = _deviations(np.sqrt(np.abs(np.linalg.det(g2))),
                         c ** 4 * block.stacked((Kind.DET_FACTOR, 0)))
        d2 = _deviations(g2, c ** 2 * block.stacked((Kind.METRIC, 0)))
        return np.maximum(d1, d2)

    checks.append(OracleCheck("oracle/detg-rescale", detg_rescale))

    checks.append(_pair("oracle/inverse-identity",
                        ex.inv_metric("m", "r") * ex.metric("r", "n"),
                        dl("m", "n"), pure=True))

    return checks


def catalog() -> list:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return _CATALOG


def run_oracle(trials: int = 100, seed: int = 0) -> VerificationReport:
    """Evaluate every rule pair on `trials` seeded random assignments.

    Trial t draws `Assignment((seed, t))`; checks run on blocks of
    `_BLOCK` consecutive trials, and deviations are reported in (trial,
    catalog) order.
    """
    checks = catalog()
    worst = {c.name: 0.0 for c in checks}
    failures: list[str] = []
    for start in range(0, trials, _BLOCK):
        stop = min(start + _BLOCK, trials)
        block = _Block(Assignment((seed, t)) for t in range(start, stop))
        devs = [c.fn(block) for c in checks]
        del block  # its jets are freed before the next block is built
        for i, trial in enumerate(range(start, stop)):
            for c, d in zip(checks, devs):
                dev = float(d[i])
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
