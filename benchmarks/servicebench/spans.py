"""In-memory span tracing around the service's layer boundaries.

The benchmark times each layer from the outside: :func:`installed` wraps
the public methods of every layer (the shard facade, the router, the
kernel's inputs, the planner, admission, the journal, snapshots and
recovery) for the duration of a ``with`` block and restores them after.
Nothing under ``src/`` knows it is being traced, so the figures describe
the program exactly as it ships.

A span is one call: its name, start, end, parent span, the benchmark
input that caused it, the object it ran on, and an optional size (bytes
written, batch length).  Spans stay in memory; the caller writes them out
when the run ends.  A span's *self time* is its duration minus the part
of its interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

__all__ = [
    "Span",
    "Tracer",
    "installed",
    "layer_of",
    "self_times",
    "write_spans",
]

#: Span fields, by index: name, start, end, parent index (-1 for a root),
#: input key, id of the object the method ran on (0 for a function), size.
Span = List[Any]
NAME, START, END, PARENT, INPUT, OWNER, SIZE = range(7)


class Tracer:
    """Collects spans for one traced phase; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Indices of the spans open right now, innermost last.
        self.stack: List[int] = []
        #: Key of the benchmark input being fed; copied into every span.
        self.input: Any = None


def _wrap(
    tracer: Tracer,
    name: str,
    fn: Callable[..., Any],
    bound: bool,
    size: Optional[Callable[[Tuple[Any, ...], Any], float]],
) -> Callable[..., Any]:
    spans, stack, clock = tracer.spans, tracer.stack, time.perf_counter

    def traced(*args: Any, **kwargs: Any) -> Any:
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.input,
                id(args[0]) if bound else 0, 0.0]
        stack.append(len(spans))
        spans.append(span)
        span[START] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = clock()
            stack.pop()
        if size is not None:
            span[SIZE] = size(args, result)
        return result

    setattr(traced, "__wrapped__", fn)
    return traced


def _file_size(_args: Tuple[Any, ...], path: Any) -> float:
    return float(Path(path).stat().st_size)


def _targets() -> List[Tuple[Any, str, str, str, Any]]:
    """``(holder, attribute, span name, kind, size-fn)`` for every wrapped call.

    ``kind`` is ``method``, ``classmethod``, ``staticmethod`` or
    ``function`` (a module attribute).  ``Journal._write`` is the journal's
    documented I/O hook (the one fault injectors override): wrapping it
    splits an append into encoding and the write/flush/fsync underneath,
    and counts the bytes written.
    """
    from repro.service import kernel as kernel_module
    from repro.service.admission import AdmissionController
    from repro.service.journal import Journal
    from repro.service.kernel import ChargingService
    from repro.service.plan import IncrementalPlanner
    from repro.shard.router import SpatialRouter
    from repro.shard.service import ShardedService

    inputs = ("submit", "advance", "drain", "cancel", "fail_charger", "restore_charger")
    targets: List[Tuple[Any, str, str, str, Any]] = []
    targets += [(ShardedService, m, f"shard.{m}", "method", None) for m in inputs]
    targets.append((ShardedService, "recover", "recover.sharded", "classmethod", None))
    targets.append((SpatialRouter, "route", "router.route", "method", None))
    targets += [(ChargingService, m, f"kernel.{m}", "method", None) for m in inputs]
    targets.append((ChargingService, "write_snapshot", "snapshot.write", "method", _file_size))
    targets.append((ChargingService, "recover", "recover", "classmethod", None))
    targets.append((kernel_module, "load_snapshot", "snapshot.load", "function", None))
    targets += [
        (IncrementalPlanner, "quote", "plan.quote", "method", None),
        (IncrementalPlanner, "add", "plan.add", "method", None),
        (IncrementalPlanner, "fold", "plan.fold", "method",
         lambda args, _r: float(len(args[1]))),
        (IncrementalPlanner, "remove", "plan.remove", "method", None),
        (IncrementalPlanner, "retire", "plan.retire", "method", None),
        (IncrementalPlanner, "evacuate_charger", "plan.evacuate", "method", None),
        (AdmissionController, "decide", "admission.decide", "method", None),
        (Journal, "append", "journal.append", "method", None),
        (Journal, "_write", "journal.write", "method",
         lambda args, _r: float(len(args[1]))),
        (Journal, "truncate_prefix", "journal.truncate", "method", None),
        (Journal, "read", "journal.read", "staticmethod", None),
    ]
    return targets


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer boundary with *tracer* for the ``with`` block."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for holder, attr, name, kind, size in _targets():
            raw = holder.__dict__[attr] if kind != "function" else getattr(holder, attr)
            saved.append((holder, attr, raw))
            if kind == "classmethod":
                wrapped: Any = classmethod(_wrap(tracer, name, raw.__func__, False, size))
            elif kind == "staticmethod":
                wrapped = staticmethod(_wrap(tracer, name, raw.__func__, False, size))
            else:
                wrapped = _wrap(tracer, name, raw, kind == "method", size)
            setattr(holder, attr, wrapped)
        yield tracer
    finally:
        for holder, attr, raw in reversed(saved):
            setattr(holder, attr, raw)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval and merged before
    subtracting, so overlapping or out-of-range children are never
    counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out: List[float] = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(max(0.0, (end - start) - covered))
    return out


#: Span-name prefix → the layer its self time is charged to; first match wins.
_LAYERS = (
    ("shard.", "shard.facade"),
    ("router.", "router"),
    ("kernel.", "kernel"),
    ("plan.fold", "plan.fold"),
    ("plan.quote", "plan.quote"),
    ("plan.", "plan.edit"),
    ("admission.", "admission"),
    ("journal.", "journal"),
    ("snapshot.", "snapshot"),
    ("recover", "recovery"),
)


def layer_of(name: str) -> str:
    """The layer a span named *name* belongs to."""
    for prefix, layer in _LAYERS:
        if name.startswith(prefix):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


def write_spans(fh: TextIO, spans: Sequence[Span], extra: Dict[str, Any]) -> None:
    """Write *spans* to *fh* as JSON lines, times relative to the first span.

    *extra* (e.g. the repeat and phase) is copied into every line.
    """
    origin = spans[0][START] if spans else 0.0
    for index, span in enumerate(spans):
        fh.write(json.dumps(dict(
            extra,
            id=index,
            name=span[NAME],
            start_us=round((span[START] - origin) * 1e6, 3),
            end_us=round((span[END] - origin) * 1e6, 3),
            parent=span[PARENT],
            input=span[INPUT],
            size=span[SIZE],
        ), separators=(",", ":")) + "\n")
