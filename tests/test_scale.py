"""Weight inference and global/local rescaling behavior."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import reference_scale as ref
import strategies as gen
from weylcheck import exprs as ex
from weylcheck.report import Mode
from weylcheck.scale import (
    INHOMOGENEOUS,
    MIXED,
    WeylWeight,
    apply_global_scale,
    apply_local_scale,
    check_invariance,
    default_weight_table,
    drop_log_derivative,
    infer_weight,
)
from weylcheck.simplify import full_simplify

ROOT = Path(__file__).resolve().parent.parent

EXPECTED_WEIGHTS = {
    ex.Kind.METRIC: Fraction(2),
    ex.Kind.INV_METRIC: Fraction(-2),
    ex.Kind.DET_FACTOR: Fraction(4),
    ex.Kind.TETRAD: Fraction(1),
    ex.Kind.INV_TETRAD: Fraction(-1),
    ex.Kind.SCALAR: Fraction(-1),
    ex.Kind.EM_VECTOR: Fraction(0),
    ex.Kind.YM_VECTOR: Fraction(0),
    ex.Kind.FERMION: Fraction(-3, 2),
    ex.Kind.FERMION_BAR: Fraction(-3, 2),
    ex.Kind.WEYL_VECTOR: Fraction(0),
    ex.Kind.MINKOWSKI: Fraction(0),
    ex.Kind.MINKOWSKI_UP: Fraction(0),
    ex.Kind.DELTA: Fraction(0),
    ex.Kind.STRUCTURE_CONST: Fraction(0),
    ex.Kind.LAMBDA_POWER: Fraction(0),
    ex.Kind.LOG_DERIV: Fraction(0),
}


def test_weight_table_exact():
    table = default_weight_table()
    assert set(table) == set(EXPECTED_WEIGHTS)
    for kind, value in EXPECTED_WEIGHTS.items():
        assert table[kind].value == value, kind
    # only the gauge vector transforms inhomogeneously
    for kind, w in table.items():
        assert w.homogeneous == (kind != ex.Kind.WEYL_VECTOR), kind


@pytest.mark.parametrize("name", ["scalar", "maxwell", "yangmills",
                                  "dirac", "scalar-gauged"])
def test_builtin_densities_carry_weight_minus_four(builtins_all, name):
    w = infer_weight(builtins_all[name].parsed)
    assert isinstance(w, WeylWeight)
    assert w.value == Fraction(-4)


def test_infer_weight_simple_cases():
    phi = ex.scalar_field()
    assert infer_weight(phi ** 2).value == Fraction(-2)
    assert infer_weight(ex.metric("z0", "z1")).value == Fraction(2)
    # derivatives do not change the weight of the derived atom
    assert infer_weight(ex.d("z0", phi)).value == Fraction(-1)
    # a density that cancels to zero has weight 0
    assert infer_weight(phi - phi) == WeylWeight(Fraction(0))


def test_infer_weight_mixed():
    e = ex.scalar_field() ** 2 + ex.scalar_field() ** 4
    assert infer_weight(e) is MIXED


def test_infer_weight_strict_flags_gauge_vector():
    e = ex.weyl_vector("m") * ex.weyl_vector("n") * ex.inv_metric("m", "n")
    assert infer_weight(e, strict=True) is INHOMOGENEOUS
    assert infer_weight(e).value == Fraction(-2)


def test_global_scale_homogeneity():
    phi = ex.scalar_field()
    got = apply_global_scale(phi ** 2)
    want = ex.canonicalize(ex.lam(Fraction(-2)) * phi * phi)
    assert got == want


def test_global_scale_with_power():
    phi = ex.scalar_field()
    got = apply_global_scale(phi, power=3)
    assert got == ex.canonicalize(ex.lam(Fraction(-3)) * phi)


def test_local_scale_emits_log_derivative():
    phi = ex.scalar_field()
    got = apply_local_scale(ex.d("m", phi) * ex.em_vector("n")
                            * ex.inv_metric("m", "n"))
    assert ex.count_atoms(got, ex.Kind.LOG_DERIV) == 1
    # dropping D recovers the global transform
    assert drop_log_derivative(got) == apply_global_scale(
        ex.d("m", phi) * ex.em_vector("n") * ex.inv_metric("m", "n"))


def test_drop_log_derivative_kills_terms_holding_d():
    phi = ex.scalar_field()
    e = ex.inv_metric("m", "n") * ex.d("m", ex.log_deriv("n")) * phi ** 2 \
        + phi ** 4
    assert drop_log_derivative(e) == ex.canonicalize(phi ** 4)


def test_local_scale_shifts_gauge_vector():
    got = apply_local_scale(ex.weyl_vector("z0"))
    want = ex.canonicalize(
        ex.weyl_vector("z0")
        - ex.coupling("f", -1) * ex.log_deriv("z0"))
    assert got == want


def test_local_scale_builds_one_lam_power_per_term(monkeypatch):
    """The bare atoms of a term share one Lam power; a weighted atom
    under derivatives keeps its own inside them."""
    phi, ginv = ex.scalar_field(), ex.inv_metric("m", "n")
    e = phi ** 50 * ginv * ex.d("m", phi) * ex.d("n", phi)
    want = ex.canonicalize(ex.lam(-52) * phi ** 50 * ginv
                           * ex.d("m", ex.lam(-1) * phi)
                           * ex.d("n", ex.lam(-1) * phi))
    calls = []
    lam = ex.lam
    monkeypatch.setattr(ex, "lam", lambda k: calls.append(k) or lam(k))
    ex._IMAGES.clear()  # the shifts of a core met before are looked up
    got = apply_local_scale(e)
    assert len(calls) == 3
    assert got == want


def test_lambda_powers_multiply_pointwise():
    e = ex.lam(Fraction(2)) * ex.lam(Fraction(3)) * ex.scalar_field()
    got = ex.canonicalize(e)
    assert got == ex.canonicalize(ex.lam(Fraction(5)) * ex.scalar_field())
    # unit power of the rescaling factor folds away entirely
    gone = ex.canonicalize(ex.lam(Fraction(2)) * ex.lam(Fraction(-2))
                           * ex.scalar_field())
    assert gone == ex.canonicalize(ex.scalar_field())


GLOBAL_EXPECT = {
    "scalar": True,
    "maxwell": True,
    "yangmills": True,
    "dirac": True,
    "scalar-gauged": True,
}

LOCAL_EXPECT = {
    "scalar": False,  # ungauged kinetic term picks up D terms
    "maxwell": True,
    "yangmills": True,
    "dirac": True,
    "scalar-gauged": True,
}


@pytest.mark.parametrize("name", sorted(GLOBAL_EXPECT))
def test_global_invariance(builtins_all, name):
    r = check_invariance(builtins_all[name], Mode.GLOBAL)
    assert r.passed is GLOBAL_EXPECT[name]
    assert r.claim == f"invariance:{name}:global"


@pytest.mark.parametrize("name", sorted(LOCAL_EXPECT))
def test_local_invariance(builtins_all, name):
    r = check_invariance(builtins_all[name], Mode.LOCAL)
    assert r.passed is LOCAL_EXPECT[name]
    if r.passed:
        assert r.residual == "0"


def test_ungauged_scalar_local_residual_form(builtins_all):
    """The obstruction is exactly the gradient coupling the gauge vector
    is built to absorb."""
    r = check_invariance(builtins_all["scalar"], Mode.LOCAL)
    assert r.residual == ("1/2 * ginv[mu0,mu1] * phi^2 * D[mu0] * D[mu1]"
                          " - ginv[mu0,mu1] * phi * D[mu0] * d[mu1](phi)")


def test_invariance_report_shape(builtins_all):
    r = check_invariance(builtins_all["maxwell"], Mode.GLOBAL)
    rules = [s.rule for s in r.trace]
    assert rules == ["apply-global-scale", "rescale-by-Lam4", "residual"]
    assert r.oracle.trials == 0


@pytest.mark.parametrize("mode", [Mode.GLOBAL, Mode.LOCAL])
def test_composition_on_builtins(builtins_all, mode):
    f = apply_global_scale if mode == Mode.GLOBAL else apply_local_scale
    for L in builtins_all.values():
        e = L.parsed
        assert full_simplify(f(f(e)) - f(e, power=2)) == ex.Sum(())


def test_composition_on_generated():
    for seed in range(40):
        e = gen.random_expr(seed, require_scalar=True)
        for f in (apply_global_scale, apply_local_scale):
            assert full_simplify(f(f(e)) - f(e, power=2)) == ex.Sum(()), seed


def test_constant_limit_matches_global_on_generated():
    """With D set to zero a local transform degenerates to the global
    one; checked on 200 generated expressions free of input D atoms."""
    for seed in range(200):
        e = gen.random_expr(seed, require_scalar=True,
                            allow_log_deriv=False)
        lhs = drop_log_derivative(apply_local_scale(e))
        rhs = ex.canonicalize(apply_global_scale(e))
        assert lhs == rhs, seed


def test_check_invariance_accepts_raw_expr():
    e = ex.lam(Fraction(4)) * ex.scalar_field() ** 4
    # weight -4 times the explicit factor is globally invariant
    r = check_invariance(e, Mode.GLOBAL)
    assert r.passed
    assert r.claim == "invariance:expr:global"
    with pytest.raises(ValueError, match="expects Global or Local"):
        check_invariance(e, Mode.COVARIANTIZE)


def test_invariance_report_renders_each_sum_once(builtins_all, monkeypatch):
    """A report shows five sums (the density, its transform, the
    rescaled transform, the difference and the residual), each rendered
    once, on the first read of its trace."""
    from weylcheck import dsl
    rendered = []
    render = dsl.render_expr

    def counting(e):
        rendered.append(e)
        return render(e)

    monkeypatch.setattr(dsl, "render_expr", counting)
    for mode in (Mode.GLOBAL, Mode.LOCAL):
        rendered.clear()
        r = check_invariance(builtins_all["scalar"], mode)
        assert rendered == [], mode
        assert len(r.trace) == 3
        assert len(rendered) == 5, mode
        assert r.residual == render(rendered[-1])
        r.to_json()
        assert len(rendered) == 5, mode


def test_report_fields_given_or_deferred(builtins_all, monkeypatch):
    """A report built from its fields has an empty trace by default.  A
    deferred report gives the golden bytes after ``copy.copy`` and after
    ``dataclasses.replace``; an attribute no report has raises
    AttributeError and renders nothing."""
    import copy
    import dataclasses

    from weylcheck import dsl
    from weylcheck.report import VerificationReport
    r = VerificationReport("invariance:t:global", Mode.GLOBAL, True, "0")
    assert r.trace == ()
    golden = (ROOT / "goldens" / "verify-scalar-global.json").read_text()
    for clone in (copy.copy, dataclasses.replace):
        r = clone(check_invariance(builtins_all["scalar"], Mode.GLOBAL))
        assert r.to_json() == golden, clone
    r = check_invariance(builtins_all["scalar"], Mode.GLOBAL)

    def refuse(e):
        raise AssertionError("rendered for a missing attribute")

    render = dsl.render_expr
    monkeypatch.setattr(dsl, "render_expr", refuse)
    with pytest.raises(AttributeError):
        r.nosuch
    monkeypatch.setattr(dsl, "render_expr", render)
    assert r.to_json() == golden


def _rider_inputs(builtins_all):
    """The builtins times phi^4 detg (weight 0) and times phi^2, and
    generated expressions times phi^k detg^j, k in 0..9 and j in 0..1."""
    for L in builtins_all.values():
        yield gen.times_riders(L.parsed, 4, 1)
        yield gen.times_riders(L.parsed, 2, 0)
    for seed in range(0, 300, 3):
        yield gen.times_riders(gen.random_expr(seed), seed % 10,
                               seed // 10 % 2)


@pytest.mark.hashseed
def test_transforms_match_the_whole_term_reference(builtins_all):
    """Weighing each term and shifting its core gives what mapping whole
    terms through the one rule per factor gives, in both modes and at
    the powers 1, -2 and 1/2, with and without riders."""
    inputs = [L.parsed for L in builtins_all.values()]
    inputs += [gen.random_expr(seed) for seed in range(100)]
    inputs += _rider_inputs(builtins_all)
    for e in inputs:
        for power in (1, -2, Fraction(1, 2)):
            assert apply_global_scale(e, power) == \
                ref.apply_scale(e, power, False)
            assert apply_local_scale(e, power) == \
                ref.apply_scale(e, power, True)


@pytest.mark.hashseed
def test_one_pass_invariance_matches_two_pass_reference(builtins_all):
    """Lam^4 folded into each term's transform gives the verdict,
    residual and trace texts of the two-pass check that multiplies the
    canonical transform of whole terms by Lam^4 and renders every text at
    once: on the builtins, Weyl's vector meson, 300 generated expressions
    and, times phi^k detg^j, the builtins and 100 of those, in both
    modes."""
    from weylcheck import dsl
    meson = dsl.parse((ROOT / "examples" / "weyl-meson.wl").read_text())
    verdicts = set()
    for L in [*builtins_all.values(), meson,
              *(gen.random_expr(seed) for seed in range(300)),
              *_rider_inputs(builtins_all)]:
        for mode in (Mode.GLOBAL, Mode.LOCAL):
            got = check_invariance(L, mode)
            want = ref.check_invariance(L, mode)
            assert got.passed is want.passed, (want.claim, want.residual)
            assert got.residual == want.residual, want.claim
            assert got.trace == want.trace, want.claim
            assert got == want and got.to_dict() == want.to_dict()
            verdicts.add((mode, want.passed))
    assert len(verdicts) == 4


@pytest.mark.hashseed
def test_invariance_verdict_renders_nothing(builtins_all, monkeypatch):
    """Reading a check's verdict renders no text; its residual, trace and
    JSON, read afterwards, are the golden bytes of the CLI's verdict."""
    from weylcheck import dsl

    def refuse(e):
        raise AssertionError("rendered before a text was read")

    render = dsl.render_expr
    monkeypatch.setattr(dsl, "render_expr", refuse)
    reports = {mode: check_invariance(builtins_all["scalar"], Mode(mode))
               for mode in ("global", "local")}
    assert reports["global"].passed and not reports["local"].passed
    monkeypatch.setattr(dsl, "render_expr", render)
    for mode, r in reports.items():
        golden = (ROOT / "goldens" / f"verify-scalar-{mode}.json").read_text()
        assert r.residual == json.loads(golden)["residual"]
        assert r.trace[-1].after == r.residual
        assert r.to_json() == golden


@pytest.mark.hashseed
def test_one_pass_invariance_matches_two_pass_reference_in_seven_dimensions(
        builtins_all, monkeypatch):
    """The same comparison with ``SPACETIME_DIM`` 7, where a trace gives
    other coefficients: each skeleton's residual is kept per dimension,
    so residuals checked in four dimensions first are not served."""
    checks = [(gen.random_expr(seed), mode) for seed in range(300)
              for mode in (Mode.GLOBAL, Mode.LOCAL)]
    four = [check_invariance(L, mode).residual for L, mode in checks]
    monkeypatch.setattr(ex, "SPACETIME_DIM", 7)
    test_one_pass_invariance_matches_two_pass_reference(builtins_all)
    assert [check_invariance(L, mode).residual for L, mode in checks] != four


def test_warm_verdict_simplifies_nothing(builtins_all, monkeypatch):
    """Checking a density again finds each skeleton's residual in the
    memo: no ``full_simplify`` call and no new memo entry."""
    from weylcheck import scale
    dens = [builtins_all["scalar-gauged"], builtins_all["dirac"],
            *(gen.random_expr(seed) for seed in range(20))]
    modes = (Mode.GLOBAL, Mode.LOCAL)
    first = [check_invariance(L, mode) for L in dens for mode in modes]
    memos = (ex._IMAGES, scale._RESIDUALS)
    before = [len(memo) for memo in memos]
    assert all(before[1:])
    calls = []
    monkeypatch.setattr(scale, "full_simplify",
                        lambda e: calls.append(e) or full_simplify(e))
    again = [check_invariance(L, mode) for L in dens for mode in modes]
    assert calls == [] and [len(memo) for memo in memos] == before
    assert again == first


def test_small_cache_limit_empties_residuals(builtins_all, monkeypatch):
    """With a small limit a check's per-core memos are emptied with the
    term cache, again and again, and every verdict and residual is the
    two-pass check's."""
    from weylcheck import scale
    dens = [builtins_all["scalar"], builtins_all["scalar-gauged"],
            *(gen.random_expr(seed) for seed in range(40))]
    modes = (Mode.GLOBAL, Mode.LOCAL)
    want = [(r.passed, r.residual) for L in dens for mode in modes
            for r in [ref.check_invariance(L, mode)]]
    monkeypatch.setattr(ex, "_TERM_CACHE_LIMIT", 7)
    ex._make_room()
    memos = (scale._RESIDUALS,)
    assert not any(memos)
    got, kept = [], []
    for L in dens:
        for mode in modes:
            r = check_invariance(L, mode)
            got.append((r.passed, r.residual))
            kept.append([len(memo) for memo in memos])
    assert got == want
    assert max(map(max, kept)) <= 7
    totals = list(map(sum, kept))
    assert any(b < a for a, b in zip(totals, totals[1:]))
