"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps every public module-level function of every
loaded `weylcheck` module, plus a few named class members, and rebinds
the wrapper in every weylcheck namespace that holds the original (so
`scale.canonicalize` and `cli.gauge.verify_gauge_decoupling` are traced
too, not only calls made by the benchmark).  Each call records a span
(name, parent span, start, end) in memory; `summary()` turns them into
call counts and self times: a span's duration minus the part its child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, class, member, span name): constructors and methods worth a
# span of their own; other methods stay unwrapped because the expression
# types' methods run millions of times.
CLASS_MEMBERS = (
    ("oracle", "Assignment", "__init__", "oracle.Assignment"),
    ("report", "VerificationReport", "to_json",
     "report.VerificationReport.to_json"),
)

PACKAGE = "weylcheck"


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] or PACKAGE


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name id, parent index, t0, t1]
        self.stack: list[int] = []
        self.terms_out = 0

    def _wrap(self, fn, name: str, count_terms: bool = False):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([nid, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if count_terms:
                self.terms_out += len(out.terms)
            return out

        return traced

    def install(self) -> None:
        mods = {name: m for name, m in sys.modules.items()
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))}
        replaced: dict[int, object] = {}
        for mname, mod in sorted(mods.items()):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mname:
                    continue
                name = f"{_short(mname)}.{attr}"
                replaced[id(obj)] = self._wrap(
                    obj, name, count_terms=name == "exprs.canonicalize")
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])
        for mshort, cls, member, name in CLASS_MEMBERS:
            mod = mods.get(f"{PACKAGE}.{mshort}")
            klass = getattr(mod, cls, None) if mod else None
            if klass is not None and member in vars(klass):
                setattr(klass, member, self._wrap(vars(klass)[member], name))

    def summary(self) -> dict:
        """{name: {"calls": n, "self_s": t}} plus the total self time."""
        child = [0.0] * len(self.spans)
        for nid, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        total = 0.0
        for (nid, _parent, t0, t1), covered in zip(self.spans, child):
            rec = out.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0})
            rec["calls"] += 1
            own = (t1 - t0) - covered
            rec["self_s"] += own
            total += own
        return {"functions": out, "self_total_s": total,
                "spans": len(self.spans),
                "canonicalize_terms_out": self.terms_out}
