"""In-memory span recorder for the benchmark's traced runs.

A :class:`Tracer` replaces a function at the name its caller resolves
(``repro.nn.conv.col2im``, ``Conv2d.forward``, ...) with a wrapper that
records one span per call: name, start, end, parent span, the operation
it belongs to (a training step, a figure phase, an HTTP request) and,
optionally, a byte count computed from the call's arrays. Parents come
from a context variable, so spans nest correctly per thread and per
asyncio task. Spans stay in memory until :func:`write_chrome` dumps
them as Chrome trace-event JSON (readable by Perfetto and
``chrome://tracing``).

Nothing here is imported by untraced runs.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The span that is open in the current thread or task (its parent-to-be).
_PARENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_parent", default=None)
#: The operation the current thread or task works for, e.g. ("baseline", 3).
OP: contextvars.ContextVar = contextvars.ContextVar("perfbench_op",
                                                    default=None)

# Span record layout (a list, so the wrapper can fill it in place).
NAME, START, END, PARENT, SPAN_OP, TID, NBYTES, ARGS = range(8)


def array_bytes(value: Any) -> int:
    """Bytes of every ndarray in *value* (one level into lists/tuples)."""
    if hasattr(value, "nbytes") and hasattr(value, "dtype"):
        return int(value.nbytes)
    if isinstance(value, (list, tuple)):
        return sum(array_bytes(v) for v in value
                   if not isinstance(v, (list, tuple)))
    return 0


def call_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    """Bytes of the arrays a call reads (arguments) and writes (result)."""
    return (sum(array_bytes(a) for a in args)
            + sum(array_bytes(v) for v in kwargs.values())
            + array_bytes(result))


class Tracer:
    """Patches callables with span-recording wrappers; undo restores them."""

    def __init__(self, process_name: str):
        self.process_name = process_name
        self.spans: List[list] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             measure: Optional[Callable[[tuple, dict, Any], int]] = None,
             describe: Optional[Callable[[tuple, dict], Any]] = None
             ) -> Callable:
        """A span-recording stand-in for *fn* (sync or ``async``)."""
        spans = self.spans
        clock = time.perf_counter

        def begin(args, kwargs) -> Tuple[list, contextvars.Token]:
            rec = [name, 0.0, 0.0, _PARENT.get(), OP.get(),
                   threading.get_ident(), 0,
                   describe(args, kwargs) if describe else None]
            token = _PARENT.set(rec)
            rec[START] = clock()
            return rec, token

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                rec, token = begin(args, kwargs)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    rec[END] = clock()
                    _PARENT.reset(token)
                    spans.append(rec)
                if measure is not None:
                    rec[NBYTES] = measure(args, kwargs, result)
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec, token = begin(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                _PARENT.reset(token)
                spans.append(rec)
            if measure is not None:
                rec[NBYTES] = measure(args, kwargs, result)
            return result
        return wrapper

    def patch(self, owner: object, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (module global or class attribute)."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__, **options))
        else:
            wrapped = self.wrap(name, getattr(owner, attr), **options)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """``id(span) -> duration minus the durations of its children``."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child[id(rec[PARENT])] += rec[END] - rec[START]
        return {id(rec): rec[END] - rec[START] - child[id(rec)]
                for rec in self.spans}

    def totals(self, group: Callable[[Any], Optional[str]]
               ) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Self seconds, calls and bytes per (op group, span name).

        *group* maps a span's op to its group label (``None`` drops it).
        """
        selfs = self.self_times()
        out: Dict[Tuple[str, str], Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0, "bytes": 0})
        for rec in self.spans:
            label = group(rec[SPAN_OP])
            if label is None:
                continue
            entry = out[(label, rec[NAME])]
            entry["self_s"] += selfs[id(rec)]
            entry["calls"] += 1
            entry["bytes"] += rec[NBYTES]
        return out

    # -- export --------------------------------------------------------------
    def chrome_events(self) -> List[dict]:
        """Complete ("X") trace events; ``args`` carry parent and op."""
        pid = os.getpid()
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        events = [{"name": "process_name", "ph": "M", "pid": pid,
                   "args": {"name": self.process_name}}]
        for i, rec in enumerate(self.spans):
            args = {"id": i, "op": _jsonable(rec[SPAN_OP])}
            if rec[PARENT] is not None:
                args["parent"] = index.get(id(rec[PARENT]))
            if rec[NBYTES]:
                args["bytes"] = rec[NBYTES]
            if rec[ARGS] is not None:
                args["detail"] = _jsonable(rec[ARGS])
            events.append({
                "name": rec[NAME], "ph": "X", "pid": pid,
                "tid": rec[TID] % 1_000_000,
                "ts": rec[START] * 1e6, "dur": (rec[END] - rec[START]) * 1e6,
                "args": args,
            })
        return events


def write_chrome(path: str, events: Iterable[dict]) -> None:
    """Write trace events as one Chrome trace-event JSON document."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": list(events),
                   "displayTimeUnit": "ms"}, f)


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)
