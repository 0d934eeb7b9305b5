"""Correctness checks applied to every operation's output.

Each check returns a failure kind, or None for a success.  Kinds:
`wrong` (a verdict or output that contradicts the known answer),
`refused` (the "too symmetric" refusal), `memory`, `timeout`, `error`
(another classified weylcheck error) and `traceback`.  A refusal of an
input the generator marked as phi^9 class is *predicted*: it counts as a
failed operation but not as a wrong answer.
"""

from __future__ import annotations

import json
import re

ORACLE_CHECKS = 42
ORACLE_TOL = {"1e-09": 1e-9, "1e-12": 1e-12}
_ORACLE_STEP = re.compile(
    r"max relative deviation (\S+) over (\d+) trials \(tolerance (\S+)\)")


def golden_failure(rc, stdout: bytes, stderr: bytes, golden: bytes):
    """A golden CLI command: exit code 0 or 1 as the golden's verdict
    says, and stdout byte-equal to the golden."""
    if b"MemoryError" in stderr:
        return "memory"
    if rc not in (0, 1) or b"Traceback" in stderr:
        return "traceback"
    if stdout != golden:
        return "wrong"
    want_rc = 0 if json.loads(golden)["pass"] else 1
    return None if rc == want_rc else "wrong"


def oracle_failure(rc, stdout: bytes, trials: int, seed: int):
    """`oracle --json`: passes, covers the whole catalog for every trial,
    and every check's worst deviation is under its tolerance."""
    if rc != 0:
        return "wrong" if rc == 1 else "traceback"
    try:
        rep = json.loads(stdout)
    except ValueError:
        return "wrong"
    o = rep.get("oracle", {})
    if not rep.get("pass") or o.get("trials") != trials \
            or o.get("seed") != seed or len(rep["trace"]) != ORACLE_CHECKS:
        return "wrong"
    worst = 0.0
    for step in rep["trace"]:
        m = _ORACLE_STEP.fullmatch(step["after"])
        if not m or int(m.group(2)) != trials \
                or m.group(3) not in ORACLE_TOL:
            return "wrong"
        dev = float(m.group(1))
        if not dev < ORACLE_TOL[m.group(3)]:
            return "wrong"
        worst = max(worst, dev)
    # the report rounds per-check deviations to 4 digits; maxdev is exact
    if not (o.get("maxdev") is not None and o["maxdev"] < 1e-9
            and abs(o["maxdev"] - worst) <= 1e-3 * worst + 1e-300):
        return "wrong"
    return None


def _density_terms(source: str) -> list[str]:
    """Signed terms of the `density` statement of rendered DSL text."""
    body = source.split("density ", 1)[1].rsplit(" ;", 1)[0].strip()
    terms, depth, cur = [], 0, ""
    i = 0
    while i < len(body):
        ch = body[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and body.startswith((" + ", " - "), i):
            terms.append(cur)
            cur = body[i + 1]
            i += 3
            continue
        cur += ch
        i += 1
    terms.append(cur)
    return [t if t[0] in "+-" else "+" + t for t in terms]


def _has_f(term: str) -> bool:
    return any(f == "f" or f.startswith("f^")
               for f in term.lstrip("+-").split(" * "))


def density_failure(expect: dict, rec: dict):
    """One generated density: verdicts equal to the generator's answer;
    covariantize raises UncoveredDerivative exactly when expected, and
    otherwise changes the density exactly when it has a covered
    derivative and leaves every term free of f as it was."""
    if "failure" in rec:
        return rec["failure"]["kind"]
    if rec["global"] != expect["global"] or rec["local"] != expect["local"] \
            or rec["uncovered"] != expect["uncovered"]:
        return "wrong"
    if rec["uncovered"]:
        return None
    before = _density_terms(rec["source"])
    after = _density_terms(rec["cov_source"])
    if (before != after) != expect["cov_changes"]:
        return "wrong"
    if sorted(t for t in before if not _has_f(t)) \
            != sorted(t for t in after if not _has_f(t)):
        return "wrong"
    return None


def predicted(kind, expect: dict) -> bool:
    """A failure the inputs predict: the known phi^9-class refusal."""
    return kind == "refused" and expect.get("refused", False)
