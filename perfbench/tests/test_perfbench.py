"""Tests of the benchmark itself: `python3 -m pytest perfbench/tests -q`.

The child-process tests run a few cheap densities and one golden command,
a few seconds in all."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def _cheap_cases(seed=5, n=6):
    """A few small densities of one draw: no group above 3."""
    cases = [d for d in gen.draw(seed) if d["props"]["max_group"] <= 3]
    return cases[:n]


def _budget():
    return run.Budget(10, time.perf_counter() + 120)


def test_generator_is_deterministic_per_seed():
    a = json.dumps(gen.draw(7, 0)).encode()
    assert a == json.dumps(gen.draw(7, 0)).encode()
    assert a != json.dumps(gen.draw(8, 0)).encode()
    assert a != json.dumps(gen.draw(7, 1)).encode()


def test_generator_schedule_and_properties():
    for seed in range(5):
        cases = gen.draw(seed)
        assert len(cases) == gen.DRAW_SIZE
        groups = sorted((d["props"]["max_group"] for d in cases),
                        reverse=True)
        assert groups[:15] == [9, 8, 7] + [6] * 12
        assert groups[15] <= 5
        assert sum(d["expect"]["refused"] for d in cases) == 1
        for d in cases:
            assert set(d["props"]) == {"terms", "contractions", "chains",
                                       "max_group"}
            assert d["source"].endswith(";\n")


def test_generator_uncovered_follows_source():
    for d in gen.draw(3):
        src = d["source"]
        has = "d[mu](S[" in src or "d[mu](detg)" in src
        assert d["expect"]["uncovered"] == has


def test_golden_compare_flags_one_byte_change():
    fname = "identity-gamma-sigma.json"
    golden = run.load_goldens()[fname]
    c = run.run_child([sys.executable, "-m", "weylcheck"]
                      + run.GOLDEN_CASES[fname], 60)
    assert checks.golden_failure(c.rc, c.out, c.err, golden) is None
    changed = bytearray(c.out)
    changed[len(changed) // 2] ^= 1
    assert checks.golden_failure(c.rc, bytes(changed), c.err,
                                 golden) == "wrong"
    assert checks.golden_failure(c.rc, c.out + b" ", c.err,
                                 golden) == "wrong"


def test_forced_wrong_verdict_raises_failed_share():
    cases = _cheap_cases()
    c, res = run._run_draw(cases, "--sample", _budget())
    honest = run.Tally()
    run._tally_draw(honest, cases, c, res)
    assert honest.kinds == [None] * len(cases)

    forced = [dict(d, expect=dict(d["expect"])) for d in cases]
    forced[0]["expect"]["global"] = not forced[0]["expect"]["global"]
    tally = run.Tally()
    run._tally_draw(tally, forced, c, res)
    assert tally.kinds.count("wrong") == 1
    assert tally.unpredicted == 1


def test_refusal_is_predicted_only_for_phi9_class():
    assert checks.predicted("refused", {"refused": True})
    assert not checks.predicted("refused", {"refused": False})
    assert not checks.predicted("wrong", {"refused": True})
    assert not checks.predicted("timeout", {"refused": True})


def test_traced_and_untraced_report_the_same_verdicts():
    cases = _cheap_cases(seed=9)
    budget = _budget()
    c0, plain = run._run_draw(cases, "--", budget)
    c1, traced = run._run_draw(cases, "--trace", budget)
    strip = lambda ops: [{k: v for k, v in r.items() if k not in ("t", "cal")}
                         for r in ops]
    assert strip(plain["ops"]) == strip(traced["ops"])
    tr = traced["trace"]
    assert tr["functions"]["dsl.parse"]["calls"] == len(cases)
    # calls between layers are seen, not only the benchmark's own
    assert tr["functions"]["exprs.canonicalize"]["calls"] > len(cases)
    assert tr["self_total_s"] <= traced["body_s"]


def test_density_terms_split_keeps_complex_literals():
    src = "name x ;\ndensity -(1+2*i) * phi^2 + i * phi - 1/2 * ginv[mu,nu] ;\n"
    assert checks._density_terms(src) == [
        "-(1+2*i) * phi^2", "+i * phi", "-1/2 * ginv[mu,nu]"]


def test_tail_has_ten_samples_beyond():
    xs = list(range(30))
    v, note = run.tail(xs)
    assert sum(x > v for x in xs) == 10
    assert run.tail([3, 1, 2])[0] == 3


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.layer_metric_units()
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("kind", ["memory", "timeout", "traceback"])
def test_child_failures_are_unpredicted(kind):
    d = _cheap_cases(n=1)[0]
    rec = {"failure": {"kind": kind}}
    got = checks.density_failure(d["expect"], rec)
    assert got == kind and not checks.predicted(got, d["expect"])
