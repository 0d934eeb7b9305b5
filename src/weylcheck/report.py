"""Verification report types shared by all checkers and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional


class Mode(Enum):
    GLOBAL = "global"
    LOCAL = "local"
    COVARIANTIZE = "covariantize"
    DECOUPLING = "decoupling"
    IDENTITY = "identity"
    ORACLE = "oracle"


class TraceStep(NamedTuple):
    rule: str
    before: str
    after: str


class OracleSummary(NamedTuple):
    """Numeric cross-check summary; trials == 0 means the claim was
    established symbolically and no sampling ran."""
    trials: int = 0
    maxdev: Optional[float] = None
    seed: Optional[int] = None


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    mode: Mode
    passed: bool
    residual: str
    trace: tuple[TraceStep, ...] = field(default_factory=tuple)
    oracle: OracleSummary = field(default_factory=OracleSummary)

    @classmethod
    def deferred(cls, render, **fields) -> "VerificationReport":
        """A report whose residual and trace are rendered on first read:
        ``render()`` returns (residual, trace).  The other fields are
        given as to ``__init__``.  The report lacks both texts until
        then, so their first read reaches ``__getattr__``, which renders
        and stores them."""
        report = cls.__new__(cls)
        for name, value in {"oracle": OracleSummary(), **fields,
                            "_render": render}.items():
            object.__setattr__(report, name, value)
        return report

    def __getattr__(self, name):
        # reached only for an attribute the report lacks: the texts of a
        # deferred report before their first read
        if name not in ("residual", "trace"):
            raise AttributeError(name)
        residual, trace = self.__dict__.pop("_render")()
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "trace", trace)
        return self.__dict__[name]

    def __reduce__(self):
        # pickled and copied through the constructor, from the six fields:
        # reading them renders a deferred report, whose render function
        # is a local one that does not pickle
        return type(self), (self.claim, self.mode, self.passed,
                            self.residual, self.trace, self.oracle)

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
