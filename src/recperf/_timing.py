"""Wall seconds per pipeline stage of one command: parse → build → derive →
structure → spectral → solve → render.

`recording()` opens a record, {stage: seconds}, that `timed` calls made
inside it add to. A stage timed twice adds up, and a stage timed inside
another counts only in the inner one, so the stages never overlap. Given
a `peaks` dict, each stage's end also sets peaks[stage] to the process's
peak RSS so far (`VmHWM`, in MB), where /proc/self/status reports it;
never `ru_maxrss`, which after `posix_spawn` holds the parent's peak.
Outside a record `timed` just calls. The open record is a context
variable, so no library signature carries a timer.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Callable, Iterator, TypeVar

STAGES = ("parse", "build", "derive", "structure", "spectral", "solve", "render")

T = TypeVar("T")
_RECORD: ContextVar[tuple[dict[str, float], dict[str, float] | None] | None] = ContextVar(
    "recperf_timings", default=None)


@contextmanager
def recording(peaks: dict[str, float] | None = None) -> Iterator[dict[str, float]]:
    """Open a record; yields the {stage: seconds} dict that `timed` fills in."""
    seconds: dict[str, float] = {}
    token = _RECORD.set((seconds, peaks))
    try:
        yield seconds
    finally:
        _RECORD.reset(token)


def _peak_mb() -> float | None:
    """`VmHWM` of this process in MB, or None where /proc/self/status does not report it."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            return next(int(line.split()[1]) / 1024 for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return None


def timed(stage: str, fn: Callable[..., T], /, *args, **kwargs) -> T:
    """fn(*args, **kwargs), whose seconds, less those timed inside it, go to `stage`."""
    record = _RECORD.get()
    if record is None:
        return fn(*args, **kwargs)
    seconds, peaks = record
    nested = sum(seconds.values())
    start = perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        elapsed = perf_counter() - start - (sum(seconds.values()) - nested)
        seconds[stage] = seconds.get(stage, 0.0) + elapsed
        if peaks is not None and (peak := _peak_mb()) is not None:
            peaks[stage] = peak
