"""Run the recperf CLI with a span around every call into a recperf function.

Usage: python bench/tracer.py SPANS.json CLI-ARGS...

Every public module-level function of every public recperf module is
wrapped, and the wrapper is rebound in every recperf namespace that holds
the function, so calls through `from .tournament import derive` and through
`diagnostics.check_structure` are both seen. Spans (name, parent, start,
end) stay in memory and are written to SPANS.json when the command ends,
with the names of all wrapped functions and the bytes `derive` returned
(computed from array sizes).

The spans time calls from outside each function; nothing inside the
package changes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from pathlib import Path


def _nbytes(obj, depth: int = 2) -> int:
    """Bytes of the arrays an object holds, down to `depth` attribute levels.

    Computed from array sizes, so it counts what `derive` returns, not what
    the process allocated on the way.
    """
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if depth == 0:
        return 0
    if dataclasses.is_dataclass(obj):
        values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        values = list(getattr(obj, "__dict__", {}).values())
    return sum(_nbytes(v, depth - 1) for v in values)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.functions: list[str] = []  # every wrapped function, called or not
        self.derived_bytes = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, parent, time.perf_counter(), 0.0])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][3] = time.perf_counter()
                self._stack.pop()
            if name == "tournament.derive":
                self.derived_bytes += _nbytes(result)
            return result

        return traced

    def install(self) -> None:
        import recperf

        modules = [
            importlib.import_module(f"recperf.{info.name}")
            for info in pkgutil.iter_modules(recperf.__path__)
            if not info.name.startswith("_")
        ]
        namespaces = [recperf, *modules]
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self.wrap(f"{layer}.{name}", fn)
                self.functions.append(f"{layer}.{name}")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, traced)


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: number of calls and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for (name, _, start, end), inner in zip(spans, child_time):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += end - start - inner
    return out


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    tracer = Tracer()
    tracer.install()
    from recperf import cli

    try:
        return cli.main(argv[1:])
    finally:
        out.write_text(json.dumps({
            "functions": tracer.functions,
            "spans": tracer.spans,
            "derived_bytes": tracer.derived_bytes,
        }), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
