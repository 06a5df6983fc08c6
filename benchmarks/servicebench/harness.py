"""Drive one repeat of a workload and check what the service answered.

A repeat (:func:`run_repeat`) feeds one input stream through a fresh
service in a closed loop (one in-process caller, one thread: each input
is sent when the previous call has returned), drains it and checks the
outputs.  A replay (:func:`replay`) feeds a stream again, killing the
service and timing its recovery from the journals on the way.

Every input is put in exactly one population, judged by the kernel it
reached (:func:`classify`): ``snapshot`` when that kernel's
``snapshots_written`` counter rose, else ``boundary`` when its logical
clock crossed a multiple of the epoch, else ``plain``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import shutil
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults.driver import apply_event
from repro.service.request import RequestState

from .spans import Span, Tracer, installed
from .speed import HostSpeed
from .workloads import (
    CONFIG,
    Workload,
    close_service,
    kernels_of,
    open_service,
    recover_service,
    write_input_journal,
)

__all__ = ["PLAIN", "BOUNDARY", "SNAPSHOT", "canonical", "classify", "digest", "Repeat",
           "Replay", "replay", "run_repeat"]

PLAIN, BOUNDARY, SNAPSHOT = "plain", "boundary", "snapshot"

#: The kernel's own boundary tolerance: a boundary ``k * epoch`` is
#: processed once the clock reaches ``k * epoch - EPS``.
EPS = 1e-9

_LIVE = (RequestState.ADMITTED, RequestState.GROUPED, RequestState.EVACUATING,
         RequestState.CHARGING)


def boundaries_through(t: float, epoch: float) -> int:
    """How many epoch boundaries a kernel whose clock reads *t* has run."""
    return math.floor((t + EPS) / epoch)


def classify(
    before: Sequence[float],
    after: Sequence[float],
    epoch: float,
    snapshots_before: int,
    snapshots_after: int,
) -> str:
    """The population of one input, from kernel clocks and snapshot counts.

    *before*/*after* are every kernel's ``clock.now`` around the call.  An
    input reaches one kernel, so "a kernel crossed a boundary" is "the
    kernel it reached did".  A snapshot input is reported by the snapshot
    layer alone, so it takes precedence over a boundary crossing.
    """
    if snapshots_after > snapshots_before:
        return SNAPSHOT
    for t0, t1 in zip(before, after):
        if boundaries_through(t1, epoch) > boundaries_through(t0, epoch):
            return BOUNDARY
    return PLAIN


def _snapshots(kernels: Sequence[Any]) -> int:
    # The counter observability_snapshot() reports, read without building
    # the whole snapshot (which would cost more than a plain submit).
    return sum(k.metrics.counter("snapshots_written", operational=True).value for k in kernels)


def canonical(service: Any) -> str:
    """The service's outputs as canonical JSON: schedule plus metrics."""
    return json.dumps(
        {"schedule": service.final_schedule(), "metrics": service.metrics_snapshot()},
        sort_keys=True, separators=(",", ":"),
    )


def digest(text: str) -> str:
    """sha256 of a :func:`canonical` text — equal across repeats of one stream."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Repeat:
    """What one pass over the input stream measured and found."""

    traced: bool
    #: Seconds from the first input to the return of ``drain()``, less the
    #: reference samples taken meanwhile.
    wall_s: float = 0.0
    #: Multiplier that puts this repeat's times at reference host speed
    #: (:func:`servicebench.speed.factor`); 1.0 when nothing was sampled.
    speed: float = 1.0
    n_inputs: int = 0
    n_submits: int = 0
    #: Seconds per submit input, by population, as measured.
    latency: Dict[str, List[float]] = field(
        default_factory=lambda: {PLAIN: [], BOUNDARY: [], SNAPSHOT: []})
    #: Population of every input, by input index.
    populations: List[str] = field(default_factory=list)
    submit_index: List[bool] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    failed: int = 0
    digest: str = ""
    served: int = 0
    quote_sum: float = 0.0
    realized_sum: float = 0.0
    time_to_charge: List[float] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    ops: Dict[str, int] = field(default_factory=dict)
    border_requests: int = 0
    #: Journal records dropped by compaction, summed over kernels.
    compacted_records: int = 0
    spans: List[Span] = field(default_factory=list)


def _feed(service: Any, items: Sequence[Tuple[str, float, Any]], rep: Repeat,
          tracer: Optional[Tracer], probe: HostSpeed) -> None:
    kernels = kernels_of(service)
    snapshotting = [k for k in kernels if k.snapshot_every is not None]
    epoch = CONFIG.epoch
    clock = time.perf_counter
    latency = rep.latency
    pops = rep.populations
    snaps = _snapshots(snapshotting)
    spent = probe.spent
    start = clock()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.input = index
        before = [k.clock.now for k in kernels]
        t0 = clock()
        s0 = probe.spent
        try:
            apply_event(service, item)
        except Exception:  # an input that raises is a failure, not the end of the run
            rep.errors.append(traceback.format_exc(limit=4))
        s1 = probe.spent
        dt = clock() - t0 - (s1 - s0)
        after = _snapshots(snapshotting)
        pop = classify(before, [k.clock.now for k in kernels], epoch, snaps, after)
        snaps = after
        pops.append(pop)
        if item[0] == "submit":
            latency[pop].append(dt)
    if tracer is not None:
        tracer.input = len(items)
    try:
        service.drain()
    except Exception:  # counted like any other failed input
        rep.errors.append(traceback.format_exc(limit=4))
    rep.wall_s = clock() - start - (probe.spent - spent)
    rep.n_inputs = len(items) + 1
    rep.submit_index = [item[0] == "submit" for item in items]
    rep.n_submits = sum(rep.submit_index)


def _check(service: Any, items: Sequence[Tuple[str, float, Any]], rep: Repeat) -> None:
    """The correctness gate on one drained service; fills the outcome."""
    counts = service.counts()
    live = sum(counts.get(state, 0) for state in _LIVE)
    if live:
        rep.failures.append(f"{live} requests are not terminal after drain")
    if sum(counts.values()) != rep.n_submits:
        rep.failures.append(
            f"state counts sum to {sum(counts.values())}, {rep.n_submits} submitted")
    tol = CONFIG.tol
    over = 0
    for kernel in kernels_of(service):
        if kernel.planner.ops["full_solves"] != 0:
            rep.failures.append("planner ran a full solve")
        for name, value in kernel.planner.ops.items():
            rep.ops[name] = rep.ops.get(name, 0) + value
        rep.compacted_records += kernel.metrics.counter(
            "journal.compacted_records", operational=True).value
        for record in kernel.requests.values():
            if record.state != RequestState.DONE:
                continue
            rep.served += 1
            rep.quote_sum += record.quote
            rep.realized_sum += record.realized_cost
            rep.time_to_charge.append(record.completed_at - record.request.submitted_at)
            if record.realized_cost > record.quote * (1.0 + tol):
                over += 1
    # Each overcharged request is one failure; each failed global check is one.
    rep.failed = len(rep.errors) + over + len(rep.failures)
    if over:
        rep.failures.append(f"{over} served requests paid more than their quote")
    rep.counters = dict(service.metrics_snapshot()["counters"])
    router = getattr(service, "router", None)
    if router is not None:
        rep.border_requests = sum(
            1 for tag, _t, req in items if tag == "submit" and len(router.candidates(req)) > 1)


@dataclass
class Replay:
    """A second pass over one stream that crashes and recovers on the way."""

    n_inputs: int = 0
    digest: str = ""
    #: Seconds (as measured), speed factor, replayed records, snapshot use
    #: and spans of each recovery, in order: ``w.recoveries`` per crash point.
    recover_s: List[float] = field(default_factory=list)
    speed: List[float] = field(default_factory=list)
    records_replayed: List[int] = field(default_factory=list)
    snapshot_used: List[int] = field(default_factory=list)
    spans: List[List[Span]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    failed: int = 0


def _recover(w: Workload, workdir: Path, rp: Replay, traced: bool,
             speed: Optional[HostSpeed]) -> Any:
    tracer = Tracer() if traced else None
    probe = speed if speed is not None else HostSpeed()
    gc.collect()
    mark, spent = len(probe.samples), probe.spent
    t0 = time.perf_counter()
    if tracer is None:
        with speed.sampling() if speed is not None else nullcontext():
            service = recover_service(w, workdir)
    else:
        with installed(tracer):
            service = recover_service(w, workdir)
        rp.spans.append(tracer.spans)
    rp.recover_s.append(time.perf_counter() - t0 - (probe.spent - spent))
    rp.speed.append(speed.factor_since(mark) if speed is not None else 1.0)
    for name, into in (("recovery.records_replayed", rp.records_replayed),
                       ("recovery.snapshot_used", rp.snapshot_used)):
        into.append(sum(k.metrics.counter(name, operational=True).value
                        for k in kernels_of(service)))
    return service


def replay(w: Workload, items: Sequence[Tuple[str, float, Any]], workdir: Path,
           traced: bool = False, speed: Optional[HostSpeed] = None) -> Replay:
    """Pass over *items* again, killing and recovering the service on the way.

    With ``w.crash_points`` > 1 the stream is fed anew and the service is
    killed after evenly spaced inputs, the last one after the drain, so the
    timed recoveries sample the snapshot cadence at many phases.  Each
    recovered service must report exactly the outputs the service had when
    it was killed.  With one crash point the pass is the recovery alone:
    *workdir* must hold the journals of an uninterrupted repeat of *items*,
    or nothing for a journal-less workload, which then gets an inputs-only
    journal of the stream (:func:`write_input_journal`); the files are
    copied aside and restored before each of the ``w.recoveries``
    recoveries, which must all give the same outputs.  Either way the
    pass ends with the digest the caller compares against that of the
    uninterrupted repeat.  With *speed*, the reference unit is sampled
    during each recovery.
    """
    rp = Replay(n_inputs=len(items) + 1)
    if w.crash_points == 1:
        if not w.journal:
            write_input_journal(w, workdir, list(items))
        # Recovery rewrites the journals it read, so each one starts from a copy.
        pristine = workdir.with_name(workdir.name + "-pristine")
        shutil.rmtree(pristine, ignore_errors=True)
        shutil.copytree(workdir, pristine)
        try:
            for k in range(w.recoveries):
                if k:
                    shutil.rmtree(workdir)
                    shutil.copytree(pristine, workdir)
                service = _recover(w, workdir, rp, traced, speed)
                try:
                    got = digest(canonical(service))
                finally:
                    close_service(service)
                if k and got != rp.digest:
                    rp.failures.append(f"recovery {k} differs from recovery 0")
                rp.digest = rp.digest or got
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            shutil.rmtree(pristine, ignore_errors=True)
        rp.failed = len(rp.failures)
        return rp
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cuts = [len(items) * k // w.crash_points for k in range(1, w.crash_points + 1)]
    service = open_service(w, workdir)
    position = 0
    try:
        for cut in cuts:
            for item in items[position:cut]:
                try:
                    apply_event(service, item)
                except Exception:  # counted, like in a timed repeat
                    rp.errors.append(traceback.format_exc(limit=4))
            position = cut
            if cut == len(items):
                try:
                    service.drain()
                except Exception:  # counted, like in a timed repeat
                    rp.errors.append(traceback.format_exc(limit=4))
            live = canonical(service)
            close_service(service)
            service = _recover(w, workdir, rp, traced, speed)
            if canonical(service) != live:
                rp.failures.append(f"recovery after input {cut} differs from the live service")
        rp.digest = digest(canonical(service))
    finally:
        close_service(service)
        shutil.rmtree(workdir, ignore_errors=True)
    rp.failed = len(rp.errors) + len(rp.failures)
    return rp


def run_repeat(w: Workload, items: Sequence[Tuple[str, float, Any]], workdir: Path,
               traced: bool = False, keep: bool = False,
               speed: Optional[HostSpeed] = None) -> Repeat:
    """Feed, drain and check one fresh service; see the module docstring.

    With *keep*, the journals stay in *workdir* for :func:`replay`.  With
    *speed*, the reference unit is sampled while the inputs are fed.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rep = Repeat(traced=traced)
    tracer = Tracer() if traced else None
    probe = speed if speed is not None else HostSpeed()
    mark = len(probe.samples)
    service = open_service(w, workdir)
    gc.collect()
    try:
        if tracer is None:
            with speed.sampling() if speed is not None else nullcontext():
                _feed(service, items, rep, None, probe)
            if speed is not None:
                rep.speed = speed.factor_since(mark)
        else:
            with installed(tracer):
                _feed(service, items, rep, tracer, probe)
            rep.spans = tracer.spans
        _check(service, items, rep)
        rep.digest = digest(canonical(service))
    finally:
        close_service(service)
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)
    return rep
