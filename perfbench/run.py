#!/usr/bin/env python3
"""weylcheck benchmark: end-to-end verdict timing with per-layer tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (NAME), each run in child processes one at a time:

  golden-cli           the 15 golden CLI invocations, each its own
                       `python -m weylcheck ... --json` process, stdout
                       compared byte for byte with goldens/.
  oracle-100           `oracle --trials=100 --seed=N` through cli.main in
                       a fresh child.py process.
  generated-densities  a seeded draw of DSL densities (gen.py) run through
                       the public API in one process per draw.
  all                  every workload in turn, printed as one table.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
each input untraced and traced (spans.py) and prints per-layer metrics.
The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md in this directory for the
metric definitions and the notes on the figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "goldens"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402
import calib  # noqa: E402

HARD_LIMIT_S = 165.0       # the whole run ends well inside 180 s
MEMORY_LIMIT = 3 << 30     # RLIMIT_AS for every child
SETUP_REPEATS = 7
ORACLE_TRIALS = 100
WORKLOADS = ("golden-cli", "oracle-100", "generated-densities")
# --seconds sets the work: round(seconds / PASS_SECONDS) passes over a
# workload's input set, about the time of one pass on 2 vCPUs at the
# commit that defined the benchmark.
PASS_SECONDS = {"golden-cli": 15, "oracle-100": 30, "generated-densities": 30}

# The invocations of scripts/make_goldens.py CASES, golden file -> argv.
GOLDEN_CASES = {}
for _name in ("scalar", "maxwell", "yangmills", "dirac", "scalar-gauged"):
    for _mode in ("global", "local"):
        GOLDEN_CASES[f"verify-{_name}-{_mode}.json"] = [
            "verify", f"builtin:{_name}", f"--mode={_mode}", "--json"]
for _field in ("fermion", "gauge", "scalar"):
    GOLDEN_CASES[f"decoupling-{_field}.json"] = [
        "decoupling", f"--field={_field}", "--json"]
GOLDEN_CASES["identity-gamma-sigma.json"] = ["identity", "gamma-sigma",
                                             "--json"]
GOLDEN_CASES["covariantize-scalar.json"] = ["covariantize", "builtin:scalar",
                                            "--json"]

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
             "op_tail_s": "s", "peak_rss_mb": "MB"}

# Functions whose calls and self time are reported by name; every other
# traced function is summed into trace.other.self_s.
LAYER_FUNCS = (
    "exprs.canonicalize", "dsl.parse", "dsl.render_expr", "dsl.make_def",
    "densities.builtin", "oracle.catalog", "oracle.Assignment",
    "oracle.evaluate_components", "tensor.contract_pairs",
    "clifford.gamma_canonicalize", "clifford.expand_sigma",
    "simplify.full_simplify", "scale.apply_global_scale",
    "scale.apply_local_scale", "scale.check_invariance",
    "gauge.gauge_covariantize", "gauge.verify_fermion_decoupling",
    "gauge.verify_gauge_decoupling", "gauge.verify_scalar_coupling",
    "gauge.verify_gamma_sigma", "report.VerificationReport.to_json",
    "cli.main",
)


def layer_metric_units() -> dict:
    """Every per-layer metric name and unit --trace 1 reports."""
    out = {}
    for fn in LAYER_FUNCS:
        out[f"{fn}.calls"] = "count"
        out[f"{fn}.self_s"] = "s"
    out["exprs.canonicalize.terms_out"] = "count"
    out["exprs.term_cache.added"] = "count"
    out["trace.other.self_s"] = "s"
    out["trace.self_total_s"] = "s"
    out["trace.wall_s"] = "s"
    out["trace.overhead_share"] = "share"
    return out


class Setup(Exception):
    """The checkout does not hold what the benchmark needs."""


# ---------------------------------------------------------------------------
# child processes

class Child:
    """Outcome of one child process."""

    def __init__(self, rc, out, err, wall, rss_kb, timed_out):
        self.rc, self.out, self.err = rc, out, err
        self.wall, self.rss_kb, self.timed_out = wall, rss_kb, timed_out

    def last_json(self):
        lines = self.out.decode(errors="replace").strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("WEYLCHECK_SEED", None)
    return env


def run_child(argv: list, timeout: float, stdin: bytes = b"") -> Child:
    """Run argv under the memory cap and a wall-clock timeout; the
    child's own peak RSS comes from wait4.  Single-threaded: pipes are
    served with a selector."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, cwd=ROOT, env=child_env(),
                         preexec_fn=_limit_memory)
    bufs = {p.stdout: bytearray(), p.stderr: bytearray()}
    pending = memoryview(stdin)
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(p.stdout, selectors.EVENT_READ)
        sel.register(p.stderr, selectors.EVENT_READ)
        if pending:
            sel.register(p.stdin, selectors.EVENT_WRITE)
        else:
            p.stdin.close()
        while len(sel.get_map()):
            left = t0 + timeout - time.perf_counter()
            if left <= 0:
                timed_out = True
                p.kill()
                break
            for key, _ in sel.select(left):
                if key.fileobj is p.stdin:
                    try:
                        n = os.write(p.stdin.fileno(), pending[:65536])
                    except BrokenPipeError:
                        n = len(pending)
                    pending = pending[n:]
                    if not pending:
                        sel.unregister(p.stdin)
                        p.stdin.close()
                    continue
                chunk = os.read(key.fileobj.fileno(), 65536)
                if chunk:
                    bufs[key.fileobj] += chunk
                else:
                    sel.unregister(key.fileobj)
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    for f in (p.stdin, p.stdout, p.stderr):
        if not f.closed:
            f.close()
    return Child(p.returncode, bytes(bufs[p.stdout]), bytes(bufs[p.stderr]),
                 wall, ru.ru_maxrss, timed_out)


class Budget:
    """A workload's number of passes over its input set, and the hard end
    of the run (child timeouts are clamped to it)."""

    def __init__(self, passes: int, deadline: float):
        self.passes = passes
        self.deadline = deadline

    def left(self, cap: float = HARD_LIMIT_S) -> float:
        return max(min(self.deadline - time.perf_counter(), cap), 1.0)


def measure_setup() -> list:
    """Fresh interpreter through `import weylcheck` ready, repeated;
    times at the reference speed."""
    argv = [sys.executable, "-c", "import weylcheck"]
    warm = run_child(argv, 60)          # writes bytecode caches
    if warm.rc != 0:
        raise Setup("cannot import weylcheck: "
                    + warm.err.decode(errors="replace")[-500:])
    out, before = [], calib.samples()
    for _ in range(SETUP_REPEATS):
        wall = run_child(argv, 60).wall
        after = calib.samples()
        out.append(wall * calib.factor(before + after))
        before = after
    return out


# ---------------------------------------------------------------------------
# workloads

class Tally:
    """Operations of one workload run."""

    def __init__(self):
        self.times: list[float] = []     # raw walls
        self.factors: list[float] = []   # per op, from the adjacent loops
        self.cal = calib.samples()       # the latest calibration loops
        self.factor = 1.0                # of the latest child
        self.kinds: list = []            # failure kind or None, per op
        self.unpredicted = 0
        self.rss_kb = 0
        self.traces: list[dict] = []
        self.cache_added: list[int] = []
        self.walls = {"traced": 0.0, "untraced": 0.0, "body": 0.0}
        self.notes: list[str] = []

    def op(self, t, kind, predicted=False, factor=None):
        self.times.append(t)
        self.factors.append(self.factor if factor is None else factor)
        self.kinds.append(kind)
        if kind is not None and not predicted:
            self.unpredicted += 1

    def child(self, c: Child):
        """Account a child; the calibration loops run just before and
        just after it give its speed factor."""
        self.rss_kb = max(self.rss_kb, c.rss_kb)
        after = calib.samples()
        self.factor = calib.factor(self.cal + after)
        self.cal = after


def _died(c: Child) -> str:
    """Failure kind of a child that gave no result."""
    if c.timed_out:
        return "timeout"
    return "memory" if b"MemoryError" in c.err else "traceback"


def load_goldens() -> dict:
    if not GOLDENS.is_dir():
        raise Setup(f"no goldens directory at {GOLDENS}")
    have = {p.name for p in GOLDENS.glob("*.json")}
    if have != set(GOLDEN_CASES):
        raise Setup(f"goldens/ does not match the golden cases: "
                    f"{sorted(have ^ set(GOLDEN_CASES))}")
    return {name: (GOLDENS / name).read_bytes() for name in GOLDEN_CASES}


def _child_cli(argv, trace: bool, timeout: float) -> Child:
    cmd = [sys.executable, str(CHILD), "cli"] + (["--trace"] if trace else [])
    return run_child(cmd + ["--"] + argv, timeout)


def _cli_outcome(c: Child):
    """(rc, stdout, stderr, failure kind, result) of a child.py cli run."""
    res = c.last_json() if c.rc == 0 else None
    if res is None:
        return None, b"", c.err, _died(c), res
    if res["failure"]:
        return None, b"", b"", res["failure"]["kind"], res
    return (res["rc"], res["stdout"].encode(), res["stderr"].encode(), None,
            res)


def _traced_pair(tally: Tally, argv: list, budget: Budget):
    """Run argv through child.py untraced, then traced; returns both
    outcomes and records the trace."""
    out = []
    for trace in (False, True):
        c = _child_cli(argv, trace, budget.left())
        tally.child(c)
        tally.walls["traced" if trace else "untraced"] += c.wall
        rc, stdout, stderr, kind, res = _cli_outcome(c)
        if trace and res is not None and "trace" in res:
            tally.traces.append(res["trace"])
            tally.walls["body"] += res["body_s"]
            if "term_cache_added" in res:
                tally.cache_added.append(res["term_cache_added"])
        out.append((rc, stdout, stderr, kind))
    return out


def golden_cli(seed: int, budget: Budget, trace: bool) -> Tally:
    goldens = load_goldens()
    tally = Tally()
    if trace:
        for fname, argv in GOLDEN_CASES.items():
            pair = _traced_pair(tally, argv, budget)
            for rc, stdout, stderr, kind in pair:
                kind = kind or checks.golden_failure(rc, stdout, stderr,
                                                     goldens[fname])
                if pair[0] != pair[1]:
                    kind = kind or "wrong"
                tally.op(0.0, kind)
        return tally
    for _ in range(budget.passes):
        for fname, argv in GOLDEN_CASES.items():
            c = run_child([sys.executable, "-m", "weylcheck"] + argv,
                          budget.left(120))
            tally.child(c)
            kind = _died(c) if c.timed_out else checks.golden_failure(
                c.rc, c.out, c.err, goldens[fname])
            tally.op(c.wall, kind)
    return tally


def oracle_100(seed: int, budget: Budget, trace: bool) -> Tally:
    argv = ["oracle", f"--trials={ORACLE_TRIALS}", f"--seed={seed}",
            "--json"]
    tally = Tally()
    if trace:
        pair = _traced_pair(tally, argv, budget)
        for rc, stdout, _stderr, kind in pair:
            kind = kind or checks.oracle_failure(rc, stdout, ORACLE_TRIALS,
                                                 seed)
            if pair[0] != pair[1]:
                kind = kind or "wrong"
            tally.op(0.0, kind)
        return tally
    for _ in range(budget.passes):
        # a 12 s process outlasts the machine's speed phases, so it is
        # calibrated from inside as well (child.py --sample)
        c = run_child([sys.executable, str(CHILD), "cli", "--sample", "--"]
                      + argv, budget.left(150))
        rc, stdout, _stderr, kind, res = _cli_outcome(c)
        before = tally.cal
        tally.child(c)
        wall = c.wall
        if res is not None:
            wall -= res["cal_s"]
            tally.factor = calib.factor(before + res["cal"] + tally.cal)
        kind = kind or checks.oracle_failure(rc, stdout, ORACLE_TRIALS, seed)
        # one operation is one trial; the process is timed as a whole
        for _ in range(ORACLE_TRIALS):
            tally.op(wall / ORACLE_TRIALS, kind)
    return tally


def _run_draw(cases: list, flag: str, budget: Budget):
    """Run a draw through child.py densities with --trace or --sample."""
    cmd = [sys.executable, str(CHILD), "densities", flag]
    stdin = json.dumps([d["source"] for d in cases]).encode()
    c = run_child(cmd, budget.left(150), stdin)
    res = c.last_json() if c.rc == 0 else None
    return c, res


def _tally_draw(tally: Tally, cases: list, c: Child, res,
                reference=None) -> list:
    """Check a draw's records and return them without their times.  With
    `reference` (the untraced records), an op whose record differs from
    it counts as wrong."""
    tally.child(c)
    if res is None:
        kind = _died(c)
        for _ in cases:
            tally.op(c.wall / len(cases), kind)
        tally.notes.append("densities child died: "
                           + c.err.decode(errors="replace")[-300:])
        return []
    records = [{k: v for k, v in rec.items() if k not in ("t", "cal")}
               for rec in res["ops"]]
    for i, (d, rec) in enumerate(zip(cases, res["ops"])):
        kind = checks.density_failure(d["expect"], rec)
        if reference is not None and reference[i:i + 1] != records[i:i + 1]:
            kind = kind or "wrong"
        tally.op(rec["t"], kind, checks.predicted(kind, d["expect"]),
                 calib.factor(rec["cal"]))
    return records


def generated_densities(seed: int, budget: Budget, trace: bool) -> Tally:
    tally = Tally()
    props = []
    draws = 1 if trace else budget.passes
    for index in range(draws):
        cases = gen.draw(seed, index)
        props += [d["props"] for d in cases]
        if not trace:
            c, res = _run_draw(cases, "--sample", budget)
            _tally_draw(tally, cases, c, res)
            continue
        # the untraced reference runs without sampling, like the traced run
        c, res = _run_draw(cases, "--", budget)
        tally.walls["untraced"] += c.wall
        reference = _tally_draw(tally, cases, c, res)
        c, res = _run_draw(cases, "--trace", budget)
        tally.walls["traced"] += c.wall
        _tally_draw(tally, cases, c, res, reference)
        if res is not None:
            tally.traces.append(res["trace"])
            tally.walls["body"] += res["body_s"]
            if "term_cache_added" in res:
                tally.cache_added.append(res["term_cache_added"])
    groups = [p["max_group"] for p in props]
    tally.notes.append(
        f"{draws} draw(s) of {gen.DRAW_SIZE}: "
        f"phi^9 class {sum(g >= gen.REFUSED_GROUP for g in groups)}, "
        f"largest identical group {max(groups)}, "
        f"terms/density {statistics.mean(p['terms'] for p in props):.2f}, "
        f"contractions/density "
        f"{statistics.mean(p['contractions'] for p in props):.2f}, "
        f"spinor chains {sum(p['chains'] for p in props)}")
    return tally


RUNNERS = {"golden-cli": golden_cli, "oracle-100": oracle_100,
           "generated-densities": generated_densities}


# ---------------------------------------------------------------------------
# metrics

def tail(values: list) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, or
    the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], f"max of {n}"
    k = n - 11
    return xs[k], f"p{100 * (k + 1) / n:.1f} of {n}"


def e2e_metrics(setup: list, tally: Tally) -> tuple[dict, list]:
    """Times at the reference speed; the notes give the raw walls."""
    raw = tally.times
    times = [t * f for t, f in zip(raw, tally.factors)]
    tail_v, tail_note = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_v,
        "peak_rss_mb": tally.rss_kb / 1024,
    }
    notes = [f"setup_s median of {len(setup)}",
             f"op_tail_s {tail_note}, op_p50_s median of {len(times)}",
             f"speed factors {min(tally.factors):.3f} to "
             f"{max(tally.factors):.3f}; raw wall: "
             f"ops_per_s {len(raw) / sum(raw):.4g}, "
             f"op_p50_s {statistics.median(raw):.4g}, "
             f"op_tail_s {tail(raw)[0]:.4g}"]
    return values, notes


def layer_metrics(tally: Tally) -> dict:
    units = layer_metric_units()
    agg: dict[str, dict] = {}
    total = 0.0
    terms_out = 0
    for tr in tally.traces:
        total += tr["self_total_s"]
        terms_out += tr["canonicalize_terms_out"]
        for name, rec in tr["functions"].items():
            a = agg.setdefault(name, {"calls": 0, "self_s": 0.0})
            a["calls"] += rec["calls"]
            a["self_s"] += rec["self_s"]
    values = {}
    named = 0.0
    for fn in LAYER_FUNCS:
        a = agg.get(fn, {"calls": 0, "self_s": 0.0})
        values[f"{fn}.calls"] = a["calls"]
        values[f"{fn}.self_s"] = a["self_s"]
        named += a["self_s"]
    values["exprs.canonicalize.terms_out"] = terms_out
    values["exprs.term_cache.added"] = sum(tally.cache_added)
    values["trace.other.self_s"] = total - named
    values["trace.self_total_s"] = total
    values["trace.wall_s"] = tally.walls["body"]
    untraced = tally.walls["untraced"]
    values["trace.overhead_share"] = (
        (tally.walls["traced"] - untraced) / untraced if untraced else 0.0)
    out = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    if not tally.cache_added:
        # exprs._TERM_CACHE is gone: nothing to count
        del out["exprs.term_cache.added"]
    return out


def machine_facts(load_before, nproc: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    load_after = os.getloadavg()
    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "sympy": version("sympy"), "nproc": nproc, "cpu_max": cpu_max,
        "load_before": [round(x, 2) for x in load_before],
        "load_after": [round(x, 2) for x in load_after],
        "commit": git_commit(),
        "shared_machine": max(load_before[0], load_after[0]) > nproc,
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup: list, deadline: float) -> dict:
    passes = max(1, round(seconds / PASS_SECONDS[name]))
    budget = Budget(passes, deadline)
    tally = RUNNERS[name](seed, budget, trace)
    failed = sum(k is not None for k in tally.kinds)
    res = {"correct": tally.unpredicted == 0,
           "attempted": len(tally.kinds), "failed": failed,
           "notes": list(tally.notes)}
    if tally.unpredicted:
        kinds = sorted({k for k in tally.kinds if k is not None})
        res["notes"].append(f"unpredicted failures: {kinds}")
    if trace:
        res["metrics"] = layer_metrics(tally)
    else:
        values, notes = e2e_metrics(setup, tally)
        res["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]}
                          for k, v in values.items()}
        res["notes"] += notes
    return res


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    start = time.perf_counter()
    load_before = os.getloadavg()
    # one vCPU for the driver, its calibration loops and every child: the
    # machine's slow phases differ per vCPU, and calibration only tracks
    # the vCPU it runs on
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if not (SRC / "weylcheck" / "__init__.py").is_file():
            raise Setup(f"no weylcheck sources under {SRC}")
        load_goldens()
        setup = measure_setup()
    except Setup as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for n in names:
        # one workload per invocation ends inside HARD_LIMIT_S; `all` gives
        # each workload that much in turn
        deadline = (start if len(names) == 1 else time.perf_counter()) \
            + HARD_LIMIT_S
        results[n] = run_workload(n, args.seed, args.seconds,
                                  bool(args.trace), setup, deadline)
    for n, res in results.items():
        for k, m in res["metrics"].items():
            print(f"{n:20s} {k:44s} {m['value']:14.6g} {m['unit']}")
        print(f"{n:20s} failed_share{'':32s} "
              f"{res['failed'] / res['attempted']:14.6g} share")
        for note in res["notes"]:
            print(f"{n:20s} note: {note}")
    print("machine: " + json.dumps(machine_facts(load_before, nproc)))

    if args.workload == "all":
        metrics = {f"{n}.{k}": m for n, res in results.items()
                   for k, m in res["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
