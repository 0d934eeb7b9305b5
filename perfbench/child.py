"""One benchmark child process: runs weylcheck in-process and prints one
JSON object as its last stdout line.

    python3 child.py cli [--trace] [--sample] -- ARGV...
        Run `weylcheck.cli.main(ARGV)` with its stdout captured.  With
        --sample a timer signal runs the calibration loop (calib.py)
        every SAMPLE_EVERY_S during the call, so a long call is scaled by
        the speed it ran at; the loops' own time is reported apart.
    python3 child.py densities [--trace] [--sample] < sources.json
        For each DSL source (a JSON list of strings on stdin): parse,
        check global and local invariance, covariantize and render the
        result, as one timed operation.  --sample as for cli, during
        each density.

With --trace every public weylcheck function is wrapped (see spans.py)
before the work starts, and the summary of its spans is included.  The
parent sets PYTHONPATH to the checkout's src/ and caps this process's
address space; a single operation is also capped in wall time here.
"""

from __future__ import annotations

import io
import json
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

from calib import calibrate, samples

OP_TIMEOUT_S = 60.0
SAMPLE_EVERY_S = 0.5


class OpTimeout(Exception):
    pass


def classify(exc: BaseException) -> dict:
    """Failure record: kind is memory, timeout, refused, error or
    traceback."""
    msg = str(exc.args[0]) if exc.args else ""
    if isinstance(exc, MemoryError):
        kind = "memory"
    elif isinstance(exc, OpTimeout):
        kind = "timeout"
    elif "too symmetric" in msg:
        kind = "refused"
    elif type(exc).__module__.startswith("weylcheck"):
        kind = "error"
    else:
        kind = "traceback"
    rec = {"kind": kind, "class": type(exc).__name__, "message": msg[:300]}
    if kind == "traceback":
        rec["traceback"] = traceback.format_exc()[-2000:]
    return rec


def run_density(src: str) -> dict:
    from weylcheck import dsl, gauge, scale  # rebound by the tracer
    from weylcheck.errors import UncoveredDerivative
    from weylcheck.report import Mode

    L = dsl.parse(src)
    out = {"global": scale.check_invariance(L, Mode.GLOBAL).passed,
           "local": scale.check_invariance(L, Mode.LOCAL).passed}
    try:
        cov = gauge.gauge_covariantize(L)
    except UncoveredDerivative:
        out["uncovered"] = True
        return out
    out["uncovered"] = False
    out["cov_source"] = dsl.render(dsl.make_def(L.name + "-cov", cov))
    out["source"] = dsl.render(L)
    return out


def densities(sources: list, sample: bool) -> dict:
    """Each op's wall `t` without the calibration loops (calib.py) run
    during it, and `cal`: the loops before, during and after it."""
    ops = []
    deadline = 0.0
    during: list[float] = []

    def on_timer(signum, frame):
        if time.perf_counter() > deadline:
            raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S:.0f} s")
        during.append(calibrate())

    signal.signal(signal.SIGALRM, on_timer)
    before = samples()
    for src in sources:
        during.clear()
        t0 = time.perf_counter()
        deadline = t0 + OP_TIMEOUT_S
        period = SAMPLE_EVERY_S if sample else OP_TIMEOUT_S
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            rec = run_density(src)
        except Exception as e:      # MemoryError and OpTimeout included
            rec = {"failure": classify(e)}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec["t"] = time.perf_counter() - t0 - sum(during)
        after = samples()
        rec["cal"] = before + during + after
        before = after
        ops.append(rec)
    return {"ops": ops, "body_s": sum(r["t"] for r in ops)}


def cli(argv: list, sample: bool) -> dict:
    from weylcheck import cli as wcli

    cal: list[float] = []

    def on_timer(signum, frame):
        cal.append(calibrate())

    out, err = io.StringIO(), io.StringIO()
    if sample:
        signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = wcli.main(argv)
        failure = None
    except Exception as e:
        rc, failure = None, classify(e)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "failure": failure, "body_s": time.perf_counter() - t0,
            "cal": cal, "cal_s": sum(cal)}


def main() -> int:
    rest = sys.argv[1:]
    mode = rest.pop(0) if rest else ""
    trace = "--trace" in rest[:2]
    sample = "--sample" in rest[:2]
    while rest[:1] in (["--trace"], ["--sample"]):
        rest.pop(0)
    if rest[:1] == ["--"]:
        rest.pop(0)
    if mode not in ("cli", "densities"):
        print(__doc__, file=sys.stderr)
        return 2

    import weylcheck  # noqa: F401  (loads every module the work touches)
    import weylcheck.cli
    from weylcheck import exprs

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    cache0 = len(exprs._TERM_CACHE) if hasattr(exprs, "_TERM_CACHE") \
        else None

    if mode == "cli":
        result = cli(rest, sample)
    else:
        result = densities(json.load(sys.stdin), sample)

    if cache0 is not None:
        result["term_cache_added"] = len(exprs._TERM_CACHE) - cache0
    if tracer is not None:
        result["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
