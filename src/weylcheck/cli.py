"""Command-line driver.

Subcommands: verify, covariantize, decoupling, identity, oracle.
Densities come from a file or from `builtin:NAME`.  Reports print as
human-readable text, or as JSON with `--json`.  Exit codes: 0 all checks
passed, 1 a verification failed, 2 usage or parse error.  A reader that
closes stdout early (`| head`) cuts the report short without an error;
the exit code is still the verdict's.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import sys
from typing import NoReturn, Optional

from . import densities, dsl, gauge, scale
from .errors import ParseError, WeylcheckError
from .report import Mode, TraceStep, VerificationReport
from .simplify import full_simplify

_BUILTIN_PREFIX = "builtin:"

# one table per choice list: the names a command accepts and what each runs
_DECOUPLING = {"fermion": gauge.verify_fermion_decoupling,
               "gauge": gauge.verify_gauge_decoupling,
               "scalar": gauge.verify_scalar_coupling}
_IDENTITIES = {"gamma-sigma": gauge.verify_gamma_sigma}


class _UsageError(Exception):
    pass


def _load_target(target: str) -> dsl.LagrangianDef:
    if target.startswith(_BUILTIN_PREFIX):
        name = target[len(_BUILTIN_PREFIX):]
        try:
            return densities.builtin(name)
        except KeyError as e:
            raise _UsageError(str(e.args[0])) from e
    try:
        with open(target, "r", encoding="utf-8-sig") as fh:
            src = fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read {target}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise _UsageError(f"cannot read {target}: not a UTF-8 text file") from e
    return dsl.parse(src)


def _nonscalar_step(L: dsl.LagrangianDef) -> Optional[TraceStep]:
    free = L.free_indices()
    if not free:
        return None
    labels = ", ".join(sorted(ix.label for ix in free))
    return TraceStep("non-scalar-density", labels,
                     "density has free indices and is not a scalar")


def _with_step(r: VerificationReport,
               step: Optional[TraceStep]) -> VerificationReport:
    return r if step is None else dataclasses.replace(
        r, trace=(step,) + r.trace)


def _cmd_verify(args) -> tuple[VerificationReport, None]:
    L = _load_target(args.target)
    return _with_step(scale.check_invariance(L, Mode(args.mode)),
                      _nonscalar_step(L)), None


def _cmd_covariantize(args) -> tuple[VerificationReport, str]:
    L = _load_target(args.target)
    cov = gauge.gauge_covariantize(L)
    diff = full_simplify(cov - L.parsed)
    out = dsl.render(dsl.make_def(L.name + "-cov", cov))
    trace = (TraceStep("covariantize", dsl.render_expr(L.parsed),
                       dsl.render_expr(cov)),
             TraceStep("added-terms", "0", dsl.render_expr(diff)))
    report = VerificationReport(claim=f"covariantize:{L.name}",
                                mode=Mode.COVARIANTIZE, passed=True,
                                residual="0", trace=trace)
    return _with_step(report, _nonscalar_step(L)), out


def _cmd_decoupling(args) -> tuple[VerificationReport, None]:
    return _DECOUPLING[args.field](), None


def _cmd_identity(args) -> tuple[VerificationReport, None]:
    return _IDENTITIES[args.name](), None


def _cmd_oracle(args) -> tuple[VerificationReport, None]:
    seed = args.seed
    env = os.environ.get("WEYLCHECK_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise _UsageError(
                f"WEYLCHECK_SEED must be an integer, got {env!r}")
    if seed < 0:
        raise _UsageError(f"the oracle seed must be non-negative, got {seed}")
    if args.trials < 1:
        raise _UsageError("--trials must be at least 1")
    from . import oracle  # the only command that needs numpy
    return oracle.run_oracle(trials=args.trials, seed=seed), None


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weylcheck",
        description="Check scale invariance of Lagrangian densities and "
                    "the decoupling of fields from the scale gauge vector.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common],
                       help="check global or local scale invariance")
    v.add_argument("target", metavar="file|builtin:NAME")
    v.add_argument("--mode", choices=("global", "local"), required=True)
    v.set_defaults(run=_cmd_verify)

    c = sub.add_parser("covariantize", parents=[common],
                       help="apply the scale-covariant derivative "
                            "replacements")
    c.add_argument("target", metavar="file|builtin:NAME")
    c.set_defaults(run=_cmd_covariantize)

    d = sub.add_parser("decoupling", parents=[common],
                       help="verify which fields couple to the gauge "
                            "vector S")
    d.add_argument("--field", choices=_DECOUPLING, required=True)
    d.set_defaults(run=_cmd_decoupling)

    i = sub.add_parser("identity", parents=[common],
                       help="check a named Clifford identity")
    i.add_argument("name", choices=_IDENTITIES)
    i.set_defaults(run=_cmd_identity)

    o = sub.add_parser("oracle", parents=[common],
                       help="run the numeric rule-agreement oracle")
    o.add_argument("--trials", type=int, default=100)
    o.add_argument("--seed", type=int, default=0)
    o.set_defaults(run=_cmd_oracle)
    return p


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0

    try:
        report, extra_text = args.run(args)
    except _UsageError as e:
        print(f"weylcheck: {e}", file=sys.stderr)
        return 2
    except ParseError as e:
        print(f"weylcheck: parse error: {e.args[0]}", file=sys.stderr)
        return 2
    except WeylcheckError as e:
        print(f"weylcheck: {e.args[0]}", file=sys.stderr)
        return 1

    try:
        if args.json:
            sys.stdout.write(report.to_json())
        else:
            sys.stdout.write(report.to_text())
            if extra_text is not None:
                sys.stdout.write("\n" + extra_text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull so
        # the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if report.passed else 1


def run() -> NoReturn:
    """Process entry of ``python -m weylcheck`` and the ``weylcheck``
    script: run ``main()`` and exit with its code.  The collector is
    frozen first, so the interpreter's exit does not trace the objects
    that die with the process; ``main()`` leaves the collector alone."""
    rc = main()
    gc.freeze()
    sys.exit(rc)


if __name__ == "__main__":
    run()
