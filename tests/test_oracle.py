"""Numeric oracle: seeded assignments, the evaluator, and the check
catalog that pins every rewrite rule to floating-point agreement."""

import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import strategies as gen
from reference_eval import reference_components
from reference_jets import inverse_jet, reference_fields
from weylcheck import cli, dsl
from weylcheck import exprs as ex
from weylcheck import oracle
from weylcheck.errors import (
    MalformedIndex,
    SingularAssignment,
    UnboundIndex,
    WeylcheckError,
)
from weylcheck.oracle import (
    Assignment,
    catalog,
    evaluate,
    evaluate_components,
    relative_deviation,
    run_oracle,
)
from weylcheck.report import Mode
from weylcheck.scale import (
    WeylWeight,
    apply_global_scale,
    apply_local_scale,
    check_invariance,
    infer_weight,
)


def test_full_run_passes_within_budget():
    t0 = time.time()
    r = run_oracle(trials=100, seed=0)
    elapsed = time.time() - t0
    assert r.passed, r.residual
    assert elapsed < 60.0
    assert r.claim == "oracle:rewrite-rules"
    assert r.oracle.trials == 100
    assert r.oracle.seed == 0
    assert r.oracle.maxdev is not None and r.oracle.maxdev < 1e-9


def test_catalog_names_unique_and_typed():
    checks = catalog()
    names = [c.name for c in checks]
    assert len(names) == len(set(names))
    assert len(checks) >= 40
    assert any(c.pure for c in checks)
    assert any(not c.pure for c in checks)
    for c in checks:
        assert c.tolerance == (1e-12 if c.pure else 1e-9)
        group = c.name.split("/")[0]
        assert group in {"tensor", "clifford", "scale", "gauge", "oracle"}


def test_assignment_deterministic():
    a = Assignment((3, 17))
    b = Assignment((3, 17))
    assert np.array_equal(a.E0, b.E0)
    assert np.array_equal(a.x, b.x)
    assert a.detg0 == b.detg0
    c = Assignment((3, 18))
    assert not np.array_equal(a.E0, c.E0)


def test_assignment_tetrad_well_conditioned():
    for trial in range(10):
        a = Assignment((0, trial))
        assert abs(np.linalg.det(a.E0)) > 0.1
        assert np.linalg.cond(a.G0) < 1e3


def test_assignment_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_RESAMPLE", 0)
    with pytest.raises(SingularAssignment):
        Assignment((0, 0))


def test_structure_constants_antisymmetric():
    a = Assignment((1, 1))
    f = a.structf
    assert np.allclose(f, -np.transpose(f, (1, 0, 2)))
    assert np.allclose(f, -np.transpose(f, (0, 2, 1)))
    assert np.allclose(f, np.transpose(f, (1, 2, 0)))


def test_weyl_meson_local_verdict_agrees_with_oracle():
    """Lam^4 times the local transform of the Weyl meson's kinetic term
    equals the density at sampled points, as the symbolic local verdict
    says; the symmetry of d(D) that verdict rests on holds for the
    oracle's D jet."""
    src = (Path(__file__).resolve().parent.parent / "examples"
           / "weyl-meson.wl").read_text()
    L_def = dsl.parse(src)
    assert check_invariance(L_def, Mode.LOCAL).passed
    L = L_def.parsed
    rescaled = ex.lam(4) * apply_local_scale(L)
    for key in ((0, 0), (0, 1), (0, 2)):
        a = Assignment(key)
        value = evaluate(L, a)
        assert abs(value) > 1.0
        assert abs(evaluate(rescaled - L, a)) < oracle.TOL_FIELD
        assert abs(evaluate(rescaled, a) - value) \
            < oracle.TOL_FIELD * abs(value)
        hessian = a.tensor_jet(ex.Kind.LOG_DERIV, 1)
        assert np.array_equal(hessian, hessian.T)


def test_metric_inverse_numeric_identity():
    a = Assignment((4, 0))
    e = ex.inv_metric("m", "n") * ex.metric("n", "z")
    for i in range(4):
        for j in range(4):
            v = evaluate(e, a, {"m": i, "z": j})
            assert abs(v - (1.0 if i == j else 0.0)) < 1e-9


def test_full_metric_trace_is_dimension():
    a = Assignment((4, 1))
    v = evaluate(ex.inv_metric("m", "n") * ex.metric("m", "n"), a, {})
    assert abs(v - 4.0) < 1e-9


def test_unbound_index_raises():
    """A free index takes an integer 0..3 and nothing else: a float is
    not truncated to a component, and a string is refused as unbound."""
    a = Assignment((4, 2))
    with pytest.raises(UnboundIndex):
        evaluate(ex.em_vector("m"), a, {})
    for value in (7, -1, 2.7, 2.0, "x", "2", None):
        with pytest.raises(UnboundIndex):
            evaluate(ex.em_vector("m"), a, {"m": value})
    assert evaluate(ex.em_vector("m"), a, {"m": np.int64(2)}) == \
        evaluate(ex.em_vector("m"), a, {"m": 2})


def test_lambda_powers_compose_pointwise():
    a = Assignment((4, 3))
    phi = ex.scalar_field()
    lhs = evaluate(ex.lam(Fraction(2)) * ex.lam(Fraction(3)) * phi, a, {})
    rhs = a.lam(Fraction(5)) * evaluate(phi, a, {})
    assert relative_deviation(lhs, rhs) < 1e-12


def test_derivative_values_match_polynomial_jets():
    a = Assignment((4, 4))
    # d_m phi evaluated against the sampled polynomial's gradient
    for m in range(4):
        v = evaluate(ex.d("m", ex.scalar_field()), a, {"m": m})
        assert relative_deviation(v, a.tensor_jet(ex.Kind.SCALAR, 1)[m]) \
            < 1e-12


def test_evaluate_components_shares_free_structure():
    a = Assignment((4, 5))
    e = ex.em_vector("m") + ex.weyl_vector("m")
    arr, labels, state = evaluate_components(e, a)
    assert arr.shape == (4,)
    assert labels == ("m",)
    assert state == "scalar"
    want = (a.tensor_jet(ex.Kind.EM_VECTOR, 0)
            + a.tensor_jet(ex.Kind.WEYL_VECTOR, 0))
    assert np.allclose(arr, want)


def test_relative_deviation_scale_free():
    assert relative_deviation(1.0, 1.0) == 0.0
    big = relative_deviation(1e12, 1e12 + 1e3)
    small = relative_deviation(1e-12, 2e-12)
    assert big < 1e-8
    assert small < 1e-11  # absolute floor keeps tiny values forgiving


def test_global_homogeneity_on_generated():
    """Pointwise, a weight-w expression rescales by exp(w ell); checked
    on generated scalars with a well-defined weight."""
    checked = 0
    worst = 0.0
    for seed in range(120):
        s = gen.random_expr(seed, require_scalar=True)
        w = infer_weight(s)
        if not isinstance(w, WeylWeight):
            continue
        a = Assignment((7, seed))
        base = evaluate(s, a, {})
        scaled = evaluate(apply_global_scale(s), a, {})
        dev = relative_deviation(scaled, a.lam(w.value) * base)
        worst = max(worst, dev)
        checked += 1
    assert checked >= 40
    assert worst < 1e-9, worst


def test_chain_evaluation_matches_direct_matrices():
    a = Assignment((4, 6))
    e = ex.fermion_bar() * ex.gamma("a", up=False) * ex.fermion()
    psi = a.tensor_jet(ex.Kind.FERMION, 0)
    bar = a.tensor_jet(ex.Kind.FERMION_BAR, 0)
    for i in range(4):
        want = bar @ oracle.GAMMA_LO[i] @ psi
        got = evaluate(e, a, {"a": i})
        assert relative_deviation(got, want) < 1e-12
    # an open chain evaluates to its spinor array
    open_bar = evaluate(ex.fermion_bar() * ex.gamma("a", up=False), a,
                        {"a": 0})
    assert open_bar.shape == (4,)
    assert relative_deviation(open_bar, bar @ oracle.GAMMA_LO[0]) < 1e-12
    matrix = evaluate(ex.gamma("a", up=False), a, {"a": 0})
    assert matrix.shape == (4, 4)
    assert relative_deviation(matrix, oracle.GAMMA_LO[0]) < 1e-12


_JET_KEYS = [(0, 0), (0, 12), (3, 17), (7, 3)]


@pytest.mark.parametrize("key", _JET_KEYS)
def test_closed_form_jets_match_monomial_reference(key):
    x, fields, resamples = reference_fields(key)
    if key == (0, 12):
        assert resamples > 0  # the resampling loop's draws are covered
    a = Assignment(key)
    assert np.array_equal(a.x, x)
    for kind, (v, d1, d2) in fields.items():
        if kind == ex.Kind.LOG_DERIV:
            assert relative_deviation(a.ell0, v) < 1e-13
            got = (a.tensor_jet(kind, 0), a.tensor_jet(kind, 1))
            want = (d1, d2)
        else:
            got = tuple(a.tensor_jet(kind, k) for k in range(3))
            want = (v, d1, d2)
        for order, (g, w) in enumerate(zip(got, want)):
            assert g.shape == np.shape(w), (kind, order)
            assert relative_deviation(g, w) < 1e-13, (kind, order)


def _relabeled_shuffled(t, rng):
    """The raw terms of a generated term, each with its dummies given
    fresh random names and its commuting factors shuffled."""
    terms = []
    for coeff, factors in ex._flatten(t):
        census = ex._label_census(factors)
        dummies = [lab for lab, occ in census.items() if len(occ) == 2]
        names = rng.sample(range(1000), len(dummies))
        ren = {lab: f"r{k}" for lab, k in zip(dummies, names)}
        relabeled = [ex._with_slots(f, [
            ex.Index(ren.get(ix.label, ix.label), ix.alphabet, ix.variance)
            for ix in ex._slots_of_factor(f)])
            if ex._slots_of_factor(f) else f for f in factors]
        plain, chain = ex._split_chain(relabeled)
        rng.shuffle(plain)
        terms.append(ex.Product(coeff, tuple(plain + chain)))
    return ex.Sum(tuple(terms))


def test_raw_terms_evaluate_like_their_canonical_form():
    """The oracle evaluates raw terms, so it checks canonicalize itself:
    the sign, slot-order and renaming rules must keep every value."""
    a = Assignment((9, 0))
    for seed in range(1000):
        raw = _relabeled_shuffled(gen.random_term(random.Random(seed)),
                                  random.Random(-seed - 1))
        got, frees, state = evaluate_components(raw, a)
        canon = ex.canonicalize(raw)
        if not canon.terms:
            want = np.zeros_like(got)
        else:
            want, *key = evaluate_components(canon, a)
            assert key == [frees, state], seed
        dev = relative_deviation(got, want)
        assert dev < oracle.TOL_FIELD, (seed, dev)


@pytest.mark.parametrize("trials, seed, message", [
    (0, 0, "trials must be at least 1, got 0"),
    (-5, 0, "trials must be at least 1, got -5"),
    (1, -1, "the oracle seed must be non-negative, got -1"),
])
def test_run_oracle_refuses_no_trials_and_negative_seeds(trials, seed,
                                                         message):
    """A run of no trials would read as a passing numeric check, and a
    negative seed cannot seed the draws: both are refused by name."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_oracle(trials=trials, seed=seed)


def test_catalog_sides_are_canonicalized_once(monkeypatch):
    """After the catalog is built, a run neither canonicalizes a term
    nor flattens an expression: every canonicalize call that does work
    goes through ``exprs._canonical_term``."""
    catalog()

    def refuse(*args):
        raise AssertionError("expression work after the catalog was built")

    monkeypatch.setattr(ex, "_canonical_term", refuse)
    monkeypatch.setattr(ex, "_flatten", refuse)
    r = run_oracle(trials=2)
    assert r.passed, r.residual


def test_contraction_is_planned_once_per_signature(monkeypatch):
    """Over the catalog build `np.einsum_path` runs once per distinct
    signature of three or more operands and never for fewer, whose one
    step is the path it would plan; equal signatures share their
    steps."""
    ex._forget()
    plan, planned = np.einsum_path, []

    def counting(*args, **kwargs):
        planned.append(len(args))
        return plan(*args, **kwargs)

    steps, signatures = oracle._contraction_steps, []

    def recording(subs, out):
        signatures.append((tuple(map(tuple, subs)), tuple(out)))
        return steps(subs, out)

    monkeypatch.setattr(np, "einsum_path", counting)
    monkeypatch.setattr(oracle, "_contraction_steps", recording)
    catalog()
    wide = len({sig for sig in signatures if len(sig[0]) >= 3})
    assert wide and len(planned) == wide
    for subs, out in {sig for sig in signatures if len(sig[0]) < 3}:
        shapes = [[oracle._BLOCK if i == oracle._TRIAL else 4 for i in s]
                  for s in subs]
        args = [x for sh, s in zip(shapes, subs)
                for x in (np.broadcast_to(0.0, sh), list(s))]
        path = plan(*args, list(out), optimize="greedy")[0][1:]
        assert path == [tuple(range(len(subs)))], (subs, out)
    subs, out = [[0, 1, 2], [0, 2, 3], [3, 1], [4]], [0, 4]
    first = steps([list(s) for s in subs], list(out))
    assert steps([list(s) for s in subs], list(out)) is first


@pytest.mark.parametrize("key", _JET_KEYS)
def test_inverse_jets_match_einsum_reference(key):
    a = Assignment(key)

    def jet(kind):
        return tuple(a.tensor_jet(kind, k) for k in range(3))

    want = {
        ex.Kind.INV_METRIC: inverse_jet(*jet(ex.Kind.METRIC)),
        ex.Kind.INV_TETRAD: tuple(np.swapaxes(j, -1, -2) for j in
                                  inverse_jet(*jet(ex.Kind.TETRAD))),
    }
    for kind, ref in want.items():
        for order, (g, w) in enumerate(zip(jet(kind), ref)):
            assert relative_deviation(g, w) < 1e-13, (kind, order)
    # G Ginv = 1 everywhere, so its gradient and Hessian vanish: the
    # product-rule terms cancel, relative to their own size
    g, dg, ddg = jet(ex.Kind.METRIC)
    gi, dgi, ddgi = jet(ex.Kind.INV_METRIC)
    assert relative_deviation(dg @ gi, -(g @ dgi)) < 1e-12
    dd_rest = (ddg @ gi + dg[:, None] @ dgi[None, :]
               + dg[None, :] @ dgi[:, None])
    assert relative_deviation(dd_rest, -(g @ ddgi)) < 1e-12


def _catalog_sides(monkeypatch):
    """Every sum the catalog compiles, recorded from a fresh build."""
    sides = []

    class Recording(oracle._Plan):
        def __init__(self, s):
            sides.append(s)
            super().__init__(s)

    with monkeypatch.context() as m:
        m.setattr(oracle, "_Plan", Recording)
        oracle._build_catalog()
    return sides


def test_compiled_evaluator_matches_reference(monkeypatch, builtins_all):
    sides = _catalog_sides(monkeypatch)
    assert len(sides) > 2 * 37
    exprs = (sides + [d.parsed for d in builtins_all.values()]
             + [gen.random_expr(seed) for seed in range(200)])
    for key in [(0, 0), (0, 12), (3, 17)]:
        a = Assignment(key)
        for e in exprs:
            try:
                want = reference_components(e, a)
            except WeylcheckError:
                with pytest.raises(WeylcheckError):
                    evaluate_components(e, a)
                continue
            got = evaluate_components(e, a)
            assert got[1:] == want[1:], e
            assert relative_deviation(got[0], want[0]) < 1e-13, (key, e)


def _trial_devs(seed, trials, block_size, checks):
    """(trial, check) deviations, evaluated `block_size` trials at a
    time."""
    rows = []
    for start in range(0, trials, block_size):
        block = oracle._Block(
            Assignment((seed, t))
            for t in range(start, min(start + block_size, trials)))
        rows.append(np.column_stack([c.fn(block) for c in checks]))
    return np.concatenate(rows)


@pytest.fixture(scope="module")
def block_devs():
    return _trial_devs(0, 100, oracle._BLOCK, catalog())


def test_block_deviations_match_single_trials(block_devs):
    checks = catalog()
    single = _trial_devs(0, 100, 1, checks)
    diff = np.abs(block_devs - single)
    trial, j = np.unravel_index(np.argmax(diff), diff.shape)
    assert diff[trial, j] < 1e-13, (checks[j].name, trial)


# every handle a block answers: each field jet the oracle supports, Lam
# at two exponents, each coupling at three powers
_HANDLES = (
    [(kind, order) for kind in ex.Kind for order in range(3)
     if kind not in (ex.Kind.DELTA, ex.Kind.LAMBDA_POWER)
     and (kind, order) != (ex.Kind.DET_FACTOR, 2)]
    + [("lam", k) for k in (Fraction(4), Fraction(-2, 3))]
    + [("coupling", name, p) for name in ex._COUPLINGS for p in (-1, 1, 2)])


def _one_trial_value(a, handle):
    if handle[0] == "lam":
        return a.lam(handle[1])
    if handle[0] == "coupling":
        return a.couplings[handle[1]] ** handle[2]
    return a.tensor_jet(*handle)


@pytest.mark.parametrize("seed", [0, 3])
def test_block_jets_match_one_trial_values(seed):
    """A block computes each jet once for all its trials, on the leading
    trial axis; every member's slice is that trial's one-trial value."""
    singles = [Assignment((seed, t)) for t in range(25)]
    for size in (1, 7, 25):
        block = oracle._Block(Assignment((seed, t)) for t in range(size))
        for handle in _HANDLES:
            got = block.stacked(handle)
            assert got.shape[0] == size, handle
            for t, a in enumerate(singles[:size]):
                dev = relative_deviation(got[t], _one_trial_value(a, handle))
                assert dev < 1e-13, (size, handle, t)


@pytest.mark.parametrize("kind,order", [
    (ex.Kind.DET_FACTOR, 2), (ex.Kind.SCALAR, 3), (ex.Kind.METRIC, 3),
    (ex.Kind.STRUCTURE_CONST, 3), (ex.Kind.FERMION, 3), (ex.Kind.DELTA, 0)])
def test_unsupported_jet_orders_raise(kind, order):
    msg = (f"derivative order {order} of {kind.value!r} is not supported "
           f"by the numeric oracle")
    a = Assignment((0, 0))
    with pytest.raises(WeylcheckError) as one:
        a.tensor_jet(kind, order)
    with pytest.raises(WeylcheckError) as block:
        oracle._Block([a, Assignment((0, 1))]).stacked((kind, order))
    assert str(one.value) == str(block.value) == msg


_A_M, _A_N = ex.em_vector("m"), ex.em_vector("n")


@pytest.mark.parametrize("build, error, message", [
    (lambda: ex.canonicalize(ex.metric("a", "b") * ex.tetrad("a", "m")),
     MalformedIndex, "repeated index 'a' mixes alphabets"),
    (lambda: oracle._Plan(_A_M + _A_N), WeylcheckError,
     "terms disagree in free structure"),
    (lambda: oracle._Plan(ex.fermion() * ex.fermion_bar()), WeylcheckError,
     "malformed spinor chain: ket then bra"),
    (lambda: oracle._Plan(_A_M * _A_M * _A_M), WeylcheckError,
     "index repeated more than twice"),
    (lambda: oracle._pair("x", _A_M, _A_N), WeylcheckError,
     "x: free structure mismatch"),
    (lambda: relative_deviation(np.zeros(2), np.zeros(3)), WeylcheckError,
     "shape mismatch"),
], ids=["mixed-alphabets", "plan-frees", "ket-then-bra", "thrice",
        "pair-frees", "shapes"])
def test_input_checks_raise_their_class_and_message(build, error, message):
    with pytest.raises(error, match=re.escape(message)) as caught:
        build()
    assert type(caught.value) is error


def test_run_builds_each_blocks_jets_once(monkeypatch):
    """`run_oracle(100)` inverts the metric and tetrad jets once per block
    of 25 trials, not once per trial."""
    calls, inverse = [], oracle._inverse_jet

    def counting(m, dm, ddm):
        calls.append(len(m))
        return inverse(m, dm, ddm)

    catalog()
    monkeypatch.setattr(oracle, "_inverse_jet", counting)
    assert run_oracle(trials=100, seed=0).passed
    assert calls == [oracle._BLOCK] * 8


def _failing_check(name, trials):
    def fn(block):
        return np.array([2e-9 if a.key[1] in trials else 0.0
                         for a in block.assignments])

    return oracle.OracleCheck(name, fn)


def test_failures_reported_across_block_boundaries(monkeypatch, capsys,
                                                   block_devs):
    # trials 3, 26 and 60 lie in three blocks; a second check, first in
    # the catalog, fails at trial 4 so that the order within a block
    # (trial, then catalog) shows in the residual
    failing = (3, 26, 60)
    assert len({t // oracle._BLOCK for t in failing}) == 3
    checks = ([_failing_check("oracle/fails-at-trial-4", (4,))]
              + catalog()
              + [_failing_check("oracle/fails-at-some-trials", failing)])
    devs = np.column_stack([
        [2e-9 if t == 4 else 0.0 for t in range(100)], block_devs,
        [2e-9 if t in failing else 0.0 for t in range(100)]])

    # the report a trial-by-trial loop gives
    worst = {c.name: 0.0 for c in checks}
    failures = []
    for trial in range(100):
        for c, dev in zip(checks, devs[trial]):
            worst[c.name] = max(worst[c.name], dev)
            if dev > c.tolerance:
                failures.append(
                    f"{c.name}: deviation {dev:.3e} at trial {trial}")
    assert [f.rsplit(" ", 1)[1] for f in failures] == ["3", "4", "26", "60"]

    monkeypatch.setitem(oracle._CATALOG, None, checks)
    r = run_oracle(trials=100, seed=0)
    assert not r.passed
    assert r.residual == "; ".join(failures)
    assert r.oracle.maxdev == max(worst.values())
    assert [(s.rule, s.after) for s in r.trace] == [
        (c.name, f"max relative deviation {worst[c.name]:.3e} over 100 "
                 f"trials (tolerance {c.tolerance:.0e})") for c in checks]

    monkeypatch.delenv("WEYLCHECK_SEED", raising=False)
    assert cli.main(["oracle", "--trials=100"]) == 1
    assert "oracle/fails-at-some-trials" in capsys.readouterr().out


_PUBLIC_API = """
import sys
import weylcheck
assert "weylcheck.oracle" not in sys.modules
oracle = weylcheck.oracle
assert oracle is sys.modules["weylcheck.oracle"]
for name in ("Assignment", "evaluate", "evaluate_components", "run_oracle"):
    assert getattr(weylcheck, name) is getattr(oracle, name), name
assert not hasattr(weylcheck, "no_such_name")
namespace = {}
exec("from weylcheck import *", namespace)
assert set(weylcheck.__all__) <= set(namespace)
print(" ".join(weylcheck.__all__))
"""


def test_package_exports_the_oracle_on_first_use():
    """After `import weylcheck` alone, the oracle module and its four
    re-exported names resolve to the objects in `weylcheck.oracle`, a star
    import binds all of `__all__`, and unknown names are still missing."""
    p = subprocess.run([sys.executable, "-c", _PUBLIC_API],
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.split() == [
        "Assignment", "BUILTIN_NAMES", "ChristoffelExpr", "INHOMOGENEOUS",
        "IndexArityMismatch", "LagrangianDef", "MIXED", "MalformedChain",
        "MalformedIndex", "Mode", "OracleSummary", "ParseError",
        "SingularAssignment", "TraceStep", "UnboundIndex",
        "UncoveredDerivative", "UndeclaredField", "VerificationReport",
        "WeylWeight", "WeylcheckError", "__version__", "apply_global_scale",
        "apply_local_scale", "builtin", "canonicalize", "check_invariance",
        "christoffel", "contract_pairs", "default_weight_table", "equal",
        "evaluate", "evaluate_components", "full_simplify",
        "gauge_covariantize", "infer_weight", "is_zero", "make_def", "parse",
        "render", "render_expr", "run_oracle", "set_coupling",
        "verify_fermion_decoupling", "verify_gamma_sigma",
        "verify_gauge_decoupling", "verify_scalar_coupling"]

