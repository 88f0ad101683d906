"""In-memory span tracer that wraps the program's layer entry points.

The traced run replaces a function *where its caller looks it up* (for
example ``repro.serve.service.verify_mcp``) with a wrapper that records
one span per call: name, id, parent id, start, end, the run phase and
an optional measured value (bytes, lanes). Parents come from a context
variable, so nesting is tracked per thread and per asyncio task; while
installed, the tracer also copies the caller's context into executor
threads, so compute a request sends to a thread is attributed to it.

Spans stay in a list until :meth:`Tracer.summary` turns them into
per-layer totals. A layer's *self* time is its spans' duration minus the
part of each span its child spans cover.
"""

from __future__ import annotations

import asyncio.base_events
import contextvars
import functools
import itertools
import time
from typing import Any, Callable

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=0)


class Tracer:
    def __init__(self) -> None:
        #: (name, id, parent, start, end, phase, value)
        self.spans: list[tuple] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers --------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             measure: Callable | None = None) -> Callable:
        """Span-recording wrapper of a plain function."""
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, phase, parent = next(ids), self.phase, _CURRENT.get()
            token = _CURRENT.set(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans.append((name, sid, parent, t0, time.perf_counter(),
                              phase, 0))
                raise
            finally:
                _CURRENT.reset(token)
            t1 = time.perf_counter()
            value = measure(args, kwargs, out) if measure else 0
            spans.append((name, sid, parent, t0, t1, phase, value))
            return out

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """Span-recording wrapper of a coroutine function."""
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            sid, phase, parent = next(ids), self.phase, _CURRENT.get()
            token = _CURRENT.set(sid)
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                spans.append((name, sid, parent, t0, time.perf_counter(),
                              phase, 0))

        return traced

    # -- installation ----------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, targets) -> None:
        """Patch every ``(owner, attr, span_name, is_async, measure)``."""
        for owner, attr, name, is_async, measure in targets:
            fn = getattr(owner, attr)
            self.patch(owner, attr, self.wrap_async(name, fn) if is_async
                       else self.wrap(name, fn, measure))
        loop_cls = asyncio.base_events.BaseEventLoop
        original = loop_cls.run_in_executor

        def run_in_executor(loop, executor, func, *args):
            ctx = contextvars.copy_context()
            return original(loop, executor,
                            functools.partial(ctx.run, func), *args)

        self.patch(loop_cls, "run_in_executor", run_in_executor)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary ---------------------------------------------------------

    def summary(self, phase: str) -> dict[str, dict]:
        """``{span_name: {calls, total_s, self_s, value}}`` for *phase*."""
        spans = [s for s in self.spans if s[5] == phase]
        children: dict[int, list[tuple[float, float]]] = {}
        for _name, _sid, parent, t0, t1, _phase, _value in spans:
            if parent:
                children.setdefault(parent, []).append((t0, t1))
        out: dict[str, dict] = {}
        for name, sid, _parent_id, t0, t1, _phase, value in spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "value": 0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - _covered(children.get(sid, ()),
                                                  t0, t1)
            row["value"] += value
        return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
