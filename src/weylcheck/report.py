"""Verification report types shared by all checkers and the CLI."""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field
from enum import Enum
from typing import Optional


class Mode(Enum):
    GLOBAL = "global"
    LOCAL = "local"
    COVARIANTIZE = "covariantize"
    DECOUPLING = "decoupling"
    IDENTITY = "identity"
    ORACLE = "oracle"


@dataclass(frozen=True)
class TraceStep:
    rule: str
    before: str
    after: str


@dataclass(frozen=True)
class OracleSummary:
    """Numeric cross-check summary; trials == 0 means the claim was
    established symbolically and no sampling ran."""
    trials: int = 0
    maxdev: Optional[float] = None
    seed: Optional[int] = None


class _RenderedOnRead:
    """A text field of a report.  A report built by ``__init__`` holds
    the value itself, and Python reads it there without calling this
    descriptor.  A deferred report holds none until the first read of
    its residual or trace: then its ``_render()`` gives both, and they
    are stored as if ``__init__`` had set them."""

    def __init__(self, default=MISSING):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, report, owner=None):
        if report is None:  # a dataclass reads the field's default here
            if self.default is MISSING:
                raise AttributeError(self.name)
            return self.default
        residual, trace = report.__dict__.pop("_render")()
        object.__setattr__(report, "residual", residual)
        object.__setattr__(report, "trace", trace)
        return report.__dict__[self.name]


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    mode: Mode
    passed: bool
    residual: str = _RenderedOnRead()
    trace: tuple[TraceStep, ...] = _RenderedOnRead(())
    oracle: OracleSummary = field(default_factory=OracleSummary)

    @classmethod
    def deferred(cls, render, **fields) -> "VerificationReport":
        """A report whose residual and trace are rendered on first read:
        ``render()`` returns (residual, trace).  The other fields are
        given as to ``__init__``."""
        report = cls.__new__(cls)
        for name, value in {"oracle": OracleSummary(), **fields,
                            "_render": render}.items():
            object.__setattr__(report, name, value)
        return report

    def to_dict(self) -> dict:
        # key order is part of the golden-file contract
        return {
            "claim": self.claim,
            "mode": self.mode.value,
            "pass": self.passed,
            "residual": self.residual,
            "trace": [{"rule": s.rule, "before": s.before, "after": s.after}
                      for s in self.trace],
            "oracle": {"trials": self.oracle.trials,
                       "maxdev": self.oracle.maxdev,
                       "seed": self.oracle.seed},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"claim: {self.claim}",
                 f"mode: {self.mode.value}",
                 f"pass: {'yes' if self.passed else 'no'}",
                 f"residual: {self.residual}"]
        for s in self.trace:
            lines.append(f"  [{s.rule}]")
            lines.append(f"    before: {s.before}")
            lines.append(f"    after:  {s.after}")
        o = self.oracle
        if o.trials:
            dev = "n/a" if o.maxdev is None else f"{o.maxdev:.3e}"
            lines.append(f"oracle: {o.trials} trials, max deviation {dev}, "
                         f"seed {o.seed}")
        return "\n".join(lines) + "\n"
