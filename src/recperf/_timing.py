"""Wall seconds per pipeline stage of one command: parse → build → derive →
structure → spectral → solve → render.

`recording()` opens a record, {stage: seconds}, that `timed` calls made
inside it add to. A stage timed twice adds up, and a stage timed inside
another counts only in the inner one, so the stages never overlap.
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
_RECORD: ContextVar[dict[str, float] | None] = ContextVar("recperf_timings", default=None)


@contextmanager
def recording() -> Iterator[dict[str, float]]:
    """Open a record; yields the {stage: seconds} dict that `timed` fills in."""
    seconds: dict[str, float] = {}
    token = _RECORD.set(seconds)
    try:
        yield seconds
    finally:
        _RECORD.reset(token)


def timed(stage: str, fn: Callable[..., T], /, *args, **kwargs) -> T:
    """fn(*args, **kwargs), whose seconds, less those timed inside it, go to `stage`."""
    seconds = _RECORD.get()
    if seconds is None:
        return fn(*args, **kwargs)
    nested = sum(seconds.values())
    start = perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        elapsed = perf_counter() - start - (sum(seconds.values()) - nested)
        seconds[stage] = seconds.get(stage, 0.0) + elapsed
