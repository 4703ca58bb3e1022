"""Span recording for the traced run, and the self-time analysis of it.

A span is the list ``[id, name, start, end, parent, n]``.  ``start`` and
``end`` are ``time.monotonic()`` seconds: CLOCK_MONOTONIC, so spans from
the daemons and the generator's phase windows share one clock.
``parent`` is the id of the span that was open in the same asyncio task
when this one began (a context variable, so concurrent RPC connections
never adopt each other's spans), or ``None``.  ``n`` is the number of
records the call handled, where that is defined.

Spans stay in memory and are written once, when the traced process exits.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Window = Tuple[float, float]


class Recorder:
    """Collects spans from wrapped callables."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def _add(self, sid: int, name: str, start: float, parent, n) -> None:
        self.spans.append([sid, name, start, time.monotonic(), parent, n])

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[[tuple, Any], int]] = None,
    ) -> Callable:
        """``fn`` with a span around every call.  ``count(args, result)``
        gives the span's record count."""
        current, ids, add = self._current, self._ids, self._add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                current.reset(token)
                add(sid, name, start, parent, None)
                raise
            current.reset(token)
            add(sid, name, start, parent,
                count(args, result) if count is not None else None)
            return result

        return wrapper

    def wrap_handler(
        self, prefix: str, fn: Callable, ops: Sequence[str]
    ) -> Callable:
        """An RPC ``handle_rpc(self, op, request)`` with one span per
        call, named ``prefix + op`` (unknown ops share ``prefix +
        "other"``).  When the handler returns an awaitable, the span runs
        until the awaitable completes."""
        current, ids, add = self._current, self._ids, self._add
        known = frozenset(ops)

        @functools.wraps(fn)
        def wrapper(obj, op, request):
            name = prefix + (op if op in known else "other")
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = time.monotonic()
            try:
                result = fn(obj, op, request)
            except BaseException:
                current.reset(token)
                add(sid, name, start, parent, None)
                raise
            current.reset(token)
            if not inspect.isawaitable(result):
                add(sid, name, start, parent, None)
                return result

            async def finish():
                inner = current.set(sid)
                try:
                    return await result
                finally:
                    current.reset(inner)
                    add(sid, name, start, parent, None)

            return finish()

        return wrapper

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans}, fh)
        os.replace(tmp, path)


def load(path: str) -> List[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def self_times(spans: Iterable[list]) -> Dict[int, float]:
    """Span id → duration minus the time its child spans cover."""
    spans = list(spans)
    covered: Dict[int, float] = {}
    for sid, _name, start, end, parent, _n in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {
        sid: (end - start) - covered.get(sid, 0.0)
        for sid, _name, start, end, _parent, _n in spans
    }


def in_windows(t: float, windows: Sequence[Window]) -> bool:
    return any(a <= t <= b for a, b in windows)


def layer_totals(
    spans: Sequence[list], windows: Sequence[Window]
) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time, call count and record count of
    the spans that started inside ``windows``."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for sid, name, start, _end, _parent, n in spans:
        if not in_windows(start, windows):
            continue
        row = out.setdefault(name, {"self_s": 0.0, "calls": 0, "n": 0})
        row["self_s"] += own[sid]
        row["calls"] += 1
        if n is not None:
            row["n"] += n
    return out


def nesting_errors(spans: Sequence[list]) -> List[str]:
    """Every way the spans fail to nest: a child that starts before or
    ends after its parent, a parent that is its own descendant, or a
    span that ends before it starts.  Parents still open at exit are
    never written, so a missing parent is not an error."""
    by_id = {s[0]: s for s in spans}
    errors = []
    for sid, name, start, end, parent, _n in spans:
        if end < start:
            errors.append(f"span {sid} {name} ends before it starts")
        if parent is None or parent not in by_id:
            continue
        p = by_id[parent]
        if not (p[2] <= start and end <= p[3]):
            errors.append(
                f"span {sid} {name} [{start:.6f}, {end:.6f}] escapes parent "
                f"{parent} {p[1]} [{p[2]:.6f}, {p[3]:.6f}]"
            )
        seen = {sid}
        walk = parent
        while walk is not None and walk in by_id:
            if walk in seen:
                errors.append(f"span {sid} {name} has a parent cycle")
                break
            seen.add(walk)
            walk = by_id[walk][4]
    return errors
