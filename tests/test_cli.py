"""End-to-end command-line behavior: exit codes, JSON schema, goldens."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "goldens"
SCHEMA = json.loads(
    (ROOT / "src" / "weylcheck" / "report.schema.json").read_text())


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("WEYLCHECK_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "weylcheck", *args],
        capture_output=True, text=True, env=env)


def test_closed_stdout_exits_quietly():
    """A reader that closes the pipe early gets no traceback; the exit
    code stays the verdict's."""
    r, w = os.pipe()
    os.close(r)  # closed before the child starts: its first write fails
    try:
        env = dict(os.environ)
        env.pop("WEYLCHECK_SEED", None)
        p = subprocess.run(
            [sys.executable, "-m", "weylcheck", "covariantize",
             "builtin:scalar"],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(w)
    assert "Traceback" not in p.stderr
    assert "Exception ignored" not in p.stderr
    assert p.returncode == 0, p.stderr


def test_weyl_meson_example_is_locally_invariant():
    """The Weyl meson's own kinetic term passes in both modes."""
    example = str(ROOT / "examples" / "weyl-meson.wl")
    for mode in ("local", "global"):
        p = run_cli("verify", example, f"--mode={mode}")
        assert p.returncode == 0, (mode, p.stdout, p.stderr)
        assert "pass: yes" in p.stdout


def test_weyl_gravity_example_is_only_globally_invariant():
    """phi^2 R written out with one dummy name for every Christoffel
    symbol gets a verdict: it passes globally and fails locally."""
    example = str(ROOT / "examples" / "weyl-gravity.wl")
    for mode, code in (("global", 0), ("local", 1)):
        p = run_cli("verify", example, f"--mode={mode}")
        assert p.returncode == code, (mode, p.stdout, p.stderr)
        assert p.stderr == ""


def test_verify_global_passes():
    p = run_cli("verify", "builtin:scalar", "--mode=global")
    assert p.returncode == 0
    assert "pass: yes" in p.stdout


def test_verify_local_negative_control():
    p = run_cli("verify", "builtin:scalar", "--mode=local")
    assert p.returncode == 1
    assert "pass: no" in p.stdout


def test_verify_local_gauged_passes():
    for name in ("maxwell", "yangmills", "dirac", "scalar-gauged"):
        p = run_cli("verify", f"builtin:{name}", "--mode=local")
        assert p.returncode == 0, name


def test_verify_requires_mode():
    p = run_cli("verify", "builtin:scalar")
    assert p.returncode == 2


def test_unknown_builtin_is_usage_error():
    p = run_cli("verify", "builtin:nosuch", "--mode=global")
    assert p.returncode == 2


def test_missing_file_is_usage_error():
    p = run_cli("verify", "/nonexistent/x.lag", "--mode=global")
    assert p.returncode == 2


def test_binary_file_is_usage_error(tmp_path):
    f = tmp_path / "junk.lag"
    f.write_bytes(bytes(range(256)))
    p = run_cli("verify", str(f), "--mode=global")
    assert p.returncode == 2
    assert "not a UTF-8 text file" in p.stderr


@pytest.mark.parametrize("term, message", [
    ("A[k] * (ginv[n,k] * A[n] * A[n])", "index 'n' appears 3 times"),
    ("d[m](d[m](phi))", "repeated index 'm' must pair upper with lower"),
    ("A[m]", "terms of a sum carry different free indices"),
], ids=["three-times", "lower-twice", "free-indices"])
def test_term_fault_reports_location(tmp_path, term, message):
    """An index fault found in canonical form ends in one line that
    names the line and column of the term holding it, exit 1, without
    a traceback."""
    f = tmp_path / "fault.wl"
    f.write_text("indices spacetime m n k ;\nfields ginv A phi ;\nname t ;\n"
                 f"density ginv[m,n] * A[m] * A[n]\n  + {term} ;\n")
    p = run_cli("verify", str(f), "--mode=global")
    assert p.returncode == 1 and p.stdout == "", p.stderr[-500:]
    assert p.stderr.splitlines() == [f"weylcheck: 5:5: {message}"]


def test_parse_error_reports_location(tmp_path):
    f = tmp_path / "bad.lag"
    f.write_text("fields phi ;\nname t ;\ndensity phi^2\n")
    p = run_cli("verify", str(f), "--mode=global")
    assert p.returncode == 2
    assert "parse error" in p.stderr
    assert "4:1" in p.stderr  # statement left open at end of input


@pytest.mark.parametrize("density", [
    "phi^²", "²", "1/² * phi", "phi^1000000000",
    pytest.param("(" * 101 + "phi" + ")" * 101, id="nested-parentheses")])
def test_hostile_density_is_a_parse_error(tmp_path, density):
    """A digit `int` cannot read, a repetition past the factor bound and
    parentheses nested past the nesting bound end in a one-line parse
    error, exit 2, without a traceback."""
    f = tmp_path / "hostile.wl"
    f.write_text(f"fields phi ;\nname t ;\ndensity {density} ;\n",
                 encoding="utf-8")
    p = run_cli("verify", str(f), "--mode=global")
    assert p.returncode == 2, p.stderr[-500:]
    lines = p.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "weylcheck: parse error: 3:"), lines


def _blowup(n, spelling):
    """n factors that each flatten to two terms, their derivative labels
    contracted in pairs by ginv: `d[mK](phi + phi^2)`, or the same sum
    in parentheses."""
    factor = {"derivative": "d[m{k}](phi + phi^2)",
              "parentheses": "(d[m{k}](phi) + d[m{k}](phi^2))"}[spelling]
    labels = " ".join(f"m{k}" for k in range(n))
    body = " * ".join([f"ginv[m{k},m{k + 1}]" for k in range(0, n, 2)]
                      + [factor.format(k=k) for k in range(n)])
    return (f"indices spacetime {labels} ;\nfields ginv phi ;\n"
            f"name blowup ;\ndensity {body} ;\n")


@pytest.mark.parametrize("spelling", ["derivative", "parentheses"])
def test_product_past_the_term_bound_is_refused(tmp_path, spelling):
    """A product of 24 two-term factors would multiply out to 2^24 raw
    terms: it is refused at once, exit 1 with one line and no traceback,
    while 16 such factors still get a verdict."""
    f = tmp_path / "blowup.wl"
    f.write_text(_blowup(24, spelling))
    t0 = time.perf_counter()
    p = run_cli("verify", str(f), "--mode=global")
    elapsed = time.perf_counter() - t0
    assert p.returncode == 1 and p.stdout == "", p.stderr[-500:]
    assert p.stderr.splitlines() == [
        "weylcheck: a product multiplies out to more than 100000 terms"]
    assert elapsed < 1.0, elapsed
    f.write_text(_blowup(16, spelling))
    p = run_cli("verify", str(f), "--mode=global")
    assert p.returncode in (0, 1) and "pass: " in p.stdout, p.stderr[-500:]


def test_coefficient_past_the_int_digit_limit_is_rendered(tmp_path):
    """Two 3001-digit factors multiply to a 6001-digit coefficient, past
    the interpreter's limit on `str(int)`: every command that renders it
    exits 0 and prints it whole, with no traceback."""
    one = "1" + "0" * 3000
    f = tmp_path / "long.wl"
    f.write_text(f"fields phi ;\nname t ;\ndensity {one} * {one} * phi^4 ;\n")
    for args in (("verify", "--mode=global"), ("verify", "--mode=local"),
                 ("covariantize",)):
        p = run_cli(args[0], str(f), *args[1:])
        assert p.returncode == 0, p.stderr[-500:]
        assert "Traceback" not in p.stderr
        assert "1" + "0" * 6000 + " * phi^4" in p.stdout, args


def test_file_target_matches_builtin(tmp_path):
    doc = run_cli("covariantize", "builtin:scalar").stdout
    # reuse the rendered source of the builtin itself
    from weylcheck import densities, dsl
    f = tmp_path / "scalar.lag"
    f.write_text(dsl.render(densities.builtin("scalar")))
    a = run_cli("verify", str(f), "--mode=global", "--json")
    b = run_cli("verify", "builtin:scalar", "--mode=global", "--json")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_byte_order_mark_is_read_as_no_text(tmp_path):
    """A source saved with a UTF-8 byte-order mark, as some editors save
    it, gets the report of the same source without one."""
    example = ROOT / "examples" / "weyl-meson.wl"
    f = tmp_path / "bom.wl"
    f.write_bytes(b"\xef\xbb\xbf" + example.read_bytes())
    a = run_cli("verify", str(f), "--mode=local", "--json")
    b = run_cli("verify", str(example), "--mode=local", "--json")
    assert a.returncode == b.returncode == 0, a.stderr
    assert a.stdout == b.stdout and "Traceback" not in a.stderr


def test_frame_label_named_like_an_internal_one(tmp_path):
    """A user label that looks like a contraction's internal frame label
    gets the same verdict as any other name."""
    out = {}
    for label in ("ctr0", "b"):
        f = tmp_path / f"{label}.lag"
        f.write_text(f"indices spacetime nu lam ;\nindices frame {label} ;\n"
                     f"fields ginv eps S ;\n"
                     f"density ginv[nu,lam] * eps[{label},lam] * S[nu] ;\n")
        p = run_cli("verify", str(f), "--mode=global", "--json")
        assert p.returncode == 1, p.stderr
        out[label] = p.stdout
    assert json.loads(out["ctr0"])["pass"] is False
    assert re.sub(r"\bb\b", "ctr0", out["b"]) == out["ctr0"]


def test_label_contracted_inside_parentheses_is_bound(tmp_path):
    """A label contracted inside a derivative's parentheses is bound
    there, as in the spelling with another name for it: the product
    around it keeps its own `n` free, beside the derivative's `m`, so the
    density is not a scalar (exit 1, reported, no index error)."""
    head = "indices spacetime m n k j ;\nfields ginv A ;\nname t ;\n"
    out = []
    for inner in ("n", "j"):
        f = tmp_path / f"rep-{inner}.lag"
        f.write_text(head + f"density A[n] * d[m](ginv[{inner},k] * A[k]"
                     f" * A[{inner}]) ;\n")
        p = run_cli("verify", str(f), "--mode=global", "--json")
        assert p.returncode == 1, p.stderr
        assert p.stderr == ""
        out.append(json.loads(p.stdout))
    assert out[0] == out[1]
    assert out[0]["trace"][0]["rule"] == "non-scalar-density"
    assert out[0]["trace"][0]["before"] == "m, n"


def test_non_scalar_density_is_flagged(tmp_path):
    f = tmp_path / "vec.lag"
    f.write_text("indices spacetime mu ;\nfields A ;\nname vec ;\n"
                 "density A[mu] ;\n")
    p = run_cli("verify", str(f), "--mode=global", "--json")
    assert p.returncode == 1
    data = json.loads(p.stdout)
    assert data["trace"][0]["rule"] == "non-scalar-density"
    assert data["trace"][0]["before"] == "mu"


def test_decoupling_fields():
    for field in ("fermion", "gauge", "scalar"):
        p = run_cli("decoupling", f"--field={field}", "--json")
        assert p.returncode == 0, field
        data = json.loads(p.stdout)
        assert data["pass"] is True
        assert data["claim"] == f"decoupling:{field}"


def test_decoupling_requires_field():
    assert run_cli("decoupling").returncode == 2
    assert run_cli("decoupling", "--field=nosuch").returncode == 2


def test_identity_command():
    p = run_cli("identity", "gamma-sigma", "--json")
    assert p.returncode == 0
    assert json.loads(p.stdout)["claim"] == "identity:gamma-sigma"
    p = run_cli("identity", "nosuch")
    assert p.returncode == 2
    assert "gamma-sigma" in p.stderr


def test_covariantize_prints_document():
    p = run_cli("covariantize", "builtin:scalar")
    assert p.returncode == 0
    assert "name scalar-cov ;" in p.stdout
    assert "density" in p.stdout


def test_covariantize_uncovered_derivative(tmp_path):
    f = tmp_path / "s.lag"
    f.write_text("indices spacetime mu nu ;\nfields S ginv ;\nname t ;\n"
                 "density ginv[mu,nu] * d[mu](S[nu]) ;\n")
    p = run_cli("covariantize", str(f))
    assert p.returncode == 1


def _nested_derivatives(tmp_path, depth):
    """A density of ``depth`` nested derivatives of phi with distinct
    declared labels, d[m<depth-1>](...d[m0](phi)...)."""
    body = "phi"
    for k in range(depth):
        body = f"d[m{k}]({body})"
    labels = " ".join(f"m{k}" for k in range(depth))
    f = tmp_path / f"deep{depth}.lag"
    f.write_text(f"indices spacetime {labels} ;\nfields phi ;\n"
                 f"name deep ;\ndensity {body} ;\n")
    return str(f)


def test_deep_derivative_nesting_is_a_parse_error(tmp_path):
    """Nesting past the parser's bound is refused with a one-line
    message, not a RecursionError traceback; shallow nesting still gets
    a verdict."""
    p = run_cli("verify", _nested_derivatives(tmp_path, 1000),
                "--mode=global")
    assert p.returncode == 2, p.stderr[-500:]
    lines = p.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("weylcheck:"), lines
    assert "derivatives nested deeper than" in lines[0]
    p = run_cli("verify", _nested_derivatives(tmp_path, 3), "--mode=global")
    assert p.returncode == 1, p.stderr
    assert "claim: invariance:deep:global" in p.stdout


def test_contracted_derivative_stack_gets_a_verdict(tmp_path):
    """Eight nested derivatives of phi, contracted in pairs by ginv, are
    canonicalized, not refused as too symmetric."""
    body = "phi"
    for k in reversed(range(8)):
        body = f"d[m{k}]({body})"
    pairs = " * ".join(f"ginv[m{k},m{k + 1}]" for k in range(0, 8, 2))
    labels = " ".join(f"m{k}" for k in range(8))
    f = tmp_path / "stack.lag"
    f.write_text(f"indices spacetime {labels} ;\nfields detg ginv phi ;\n"
                 f"name stack ;\n"
                 f"density detg^3 * phi^7 * {pairs} * {body} ;\n")
    p = run_cli("verify", str(f), "--mode=global")
    assert p.returncode == 0, p.stderr[-500:]
    assert "pass: yes" in p.stdout


def test_oracle_small_run():
    p = run_cli("oracle", "--trials=2", "--seed=5", "--json")
    assert p.returncode == 0
    data = json.loads(p.stdout)
    assert data["oracle"]["trials"] == 2
    assert data["oracle"]["seed"] == 5
    assert data["pass"] is True


def test_oracle_env_seed_overrides_flag():
    p = run_cli("oracle", "--trials=2", "--seed=9", "--json",
                env_extra={"WEYLCHECK_SEED": "42"})
    assert p.returncode == 0
    assert json.loads(p.stdout)["oracle"]["seed"] == 42


def test_oracle_bad_env_seed_is_usage_error():
    p = run_cli("oracle", "--trials=2",
                env_extra={"WEYLCHECK_SEED": "pony"})
    assert p.returncode == 2


def test_oracle_rejects_nonpositive_trials():
    assert run_cli("oracle", "--trials=0").returncode == 2


@pytest.mark.parametrize("args, env", [
    (["--seed=-1"], None),
    ([], {"WEYLCHECK_SEED": "-3"}),
])
def test_oracle_rejects_negative_seed(args, env):
    p = run_cli("oracle", "--trials=1", *args, env_extra=env)
    assert p.returncode == 2
    assert len(p.stderr.splitlines()) == 1
    assert "non-negative" in p.stderr


def test_no_arguments_is_usage_error():
    assert run_cli().returncode == 2


GOLDEN_ARGS = {
    "verify-scalar-global.json":
        ["verify", "builtin:scalar", "--mode=global"],
    "verify-scalar-local.json":
        ["verify", "builtin:scalar", "--mode=local"],
    "verify-maxwell-global.json":
        ["verify", "builtin:maxwell", "--mode=global"],
    "verify-maxwell-local.json":
        ["verify", "builtin:maxwell", "--mode=local"],
    "verify-yangmills-global.json":
        ["verify", "builtin:yangmills", "--mode=global"],
    "verify-yangmills-local.json":
        ["verify", "builtin:yangmills", "--mode=local"],
    "verify-dirac-global.json":
        ["verify", "builtin:dirac", "--mode=global"],
    "verify-dirac-local.json":
        ["verify", "builtin:dirac", "--mode=local"],
    "verify-scalar-gauged-global.json":
        ["verify", "builtin:scalar-gauged", "--mode=global"],
    "verify-scalar-gauged-local.json":
        ["verify", "builtin:scalar-gauged", "--mode=local"],
    "decoupling-fermion.json": ["decoupling", "--field=fermion"],
    "decoupling-gauge.json": ["decoupling", "--field=gauge"],
    "decoupling-scalar.json": ["decoupling", "--field=scalar"],
    "identity-gamma-sigma.json": ["identity", "gamma-sigma"],
    "covariantize-scalar.json": ["covariantize", "builtin:scalar"],
}


def test_every_golden_has_a_case_and_vice_versa():
    assert {p.name for p in GOLDENS.glob("*.json")} == set(GOLDEN_ARGS)


@pytest.mark.parametrize("fname", sorted(GOLDEN_ARGS))
def test_golden_output_byte_exact(fname):
    p = run_cli(*GOLDEN_ARGS[fname], "--json")
    assert p.stdout == (GOLDENS / fname).read_text()


@pytest.mark.parametrize("fname", sorted(GOLDEN_ARGS))
def test_golden_validates_against_schema(fname):
    data = json.loads((GOLDENS / fname).read_text())
    jsonschema.validate(data, SCHEMA)


def test_oracle_json_validates_against_schema():
    p = run_cli("oracle", "--trials=2", "--json")
    jsonschema.validate(json.loads(p.stdout), SCHEMA)


_GOLDENS_IN_ONE_PROCESS = """
import io, json, sys
from contextlib import redirect_stdout
from weylcheck import cli

out = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()) as buf:
        cli.main(argv)
    out.append(buf.getvalue())
print(json.dumps(out))
"""


@pytest.mark.hashseed
def test_goldens_in_one_process_in_both_orders():
    """The 15 golden commands share one interpreter, in order and then
    reversed, and each prints its golden byte for byte: what one command
    leaves in the caches and memos changes no later output."""
    names = sorted(GOLDEN_ARGS)
    names += names[::-1]
    env = dict(os.environ)
    env.pop("WEYLCHECK_SEED", None)
    p = subprocess.run(
        [sys.executable, "-c", _GOLDENS_IN_ONE_PROCESS,
         json.dumps([GOLDEN_ARGS[n] + ["--json"] for n in names])],
        capture_output=True, text=True, env=env)
    assert p.returncode == 0, p.stderr
    for name, text in zip(names, json.loads(p.stdout), strict=True):
        assert text == (GOLDENS / name).read_text(), name


_LOADS_NUMPY = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from weylcheck import cli

def run(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)

def loaded():
    return ["numpy" in sys.modules, "weylcheck.oracle" in sys.modules]

symbolic = [run(argv) for argv in json.loads(sys.argv[1])]
before = loaded()
oracle = run(["oracle", "--trials=1", "--json"])
print(json.dumps([symbolic, before, oracle, loaded()]))
"""


def test_only_the_oracle_command_loads_numpy(tmp_path):
    """Symbolic commands, and their usage and parse errors, run without
    numpy or the oracle module; the oracle command loads both.  All cases
    share one fresh interpreter."""
    bad = tmp_path / "bad.lag"
    bad.write_text("fields phi ;\nname t ;\ndensity phi^2\n")
    names = sorted(GOLDEN_ARGS)
    cases = [GOLDEN_ARGS[n] + ["--json"] for n in names]
    cases += [["verify", "builtin:nosuch", "--mode=global"],
              ["verify", str(bad), "--mode=global"]]
    env = dict(os.environ)
    env.pop("WEYLCHECK_SEED", None)
    p = subprocess.run(
        [sys.executable, "-c", _LOADS_NUMPY, json.dumps(cases)],
        capture_output=True, text=True, env=env)
    assert p.returncode == 0, p.stderr
    symbolic, before, oracle, after = json.loads(p.stdout)
    expected = [0 if json.loads((GOLDENS / n).read_text())["pass"] else 1
                for n in names]
    assert symbolic == expected + [2, 2]
    assert before == [False, False]
    assert oracle == 0
    assert after == [True, True]


def test_cli_import_loads_neither_string_nor_numpy():
    """The command-line module imports none of `string`, which no
    command needs, and `numpy`, which only the oracle command loads."""
    p = subprocess.run(
        [sys.executable, "-c", "import sys, weylcheck.cli; "
         "print('string' in sys.modules, 'numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.split() == ["False", "False"]


_FROZEN_AT_EXIT = """
import atexit, gc, sys
from weylcheck import cli
atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))
cli.run()
"""


def test_process_entry_exit_codes_and_output():
    """`python -m weylcheck` exits with the verdict's code and prints the
    golden bytes, or the usage error's line on stderr; `cli.run` exits
    with `main`'s code and has frozen the collector by the time the
    interpreter exits."""
    argv = ["verify", "builtin:scalar"]
    for mode, rc in (("global", 0), ("local", 1)):
        p = run_cli(*argv, f"--mode={mode}", "--json")
        assert (p.returncode, p.stderr) == (rc, ""), mode
        assert p.stdout == (GOLDENS / f"verify-scalar-{mode}.json"
                            ).read_text(), mode
    p = run_cli("verify", "builtin:nosuch", "--mode=global")
    assert (p.returncode, p.stdout) == (2, "")
    assert p.stderr == ("weylcheck: unknown builtin 'nosuch'; choose from "
                        "scalar, maxwell, yangmills, dirac, scalar-gauged\n")
    env = dict(os.environ)
    env.pop("WEYLCHECK_SEED", None)
    p = subprocess.run(
        [sys.executable, "-c", _FROZEN_AT_EXIT, *argv, "--mode=local",
         "--json"], capture_output=True, text=True, env=env)
    assert (p.returncode, p.stderr) == (1, "True\n")
    assert p.stdout == (GOLDENS / "verify-scalar-local.json").read_text()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, capsys):
    """In process, `cli.main` neither freezes nor switches the collector:
    tests, the golden writer and the benchmark call it many times in one
    interpreter."""
    import gc

    from weylcheck import cli
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert cli.main(["verify", "builtin:scalar", "--mode=global",
                         "--json"]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    finally:
        (gc.enable if was else gc.disable)()
    assert capsys.readouterr().out == (
        GOLDENS / "verify-scalar-global.json").read_text()


def test_long_power_of_one_field_gets_a_fast_verdict(tmp_path, capsys):
    """phi^20000 is one term of 20 000 equal factors without indices:
    the canonical search places them as one block, so the global verdict
    comes in process in well under a second (2.1 s before), with the
    residual it always had."""
    import time
    from weylcheck import cli

    src = tmp_path / "power.wl"
    src.write_text("fields phi ;\nname power ;\ndensity phi^20000 ;\n")
    t0 = time.perf_counter()
    rc = cli.main(["verify", str(src), "--mode=global"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 1
    assert "residual: Lam^-19996 * phi^20000 - phi^20000\n" in out
    assert elapsed < 1.0, elapsed
