"""Feed a request stream *and* a fault plan into a charging service.

:func:`merge_timeline` is the one timeline builder: submissions, kernel
fault events and supervisor chaos events in one deterministic,
time-sorted list.  :func:`drive` is the one feed loop: it applies the
timeline to any :class:`~repro.service.kernel.Service` — a bare
:class:`~repro.service.kernel.ChargingService` or a
:class:`~repro.shard.service.ShardedService` facade.

Failure handling is a policy, chosen by the plan: when it holds anything
that can kill a unit (journal write faults, shard kills, snapshot
faults, recovery crashes), :func:`drive` feeds the service through a
:class:`~repro.faults.supervisor.ShardSupervisor`, which recovers each
dead unit from its journal and re-feeds the processed inputs — every
kernel input is idempotent (known request ids, applied fault keys), so
the re-feed no-ops through everything already journaled and regenerates
exactly what was lost.  The run converges byte-identical to a fault-free
run of the same timeline.  Journal faults fire only in a service that
journals through a :class:`~repro.faults.journal.FaultyJournal` armed
with ``plan.journal_faults()``; the supervisor keeps those faults armed
across recoveries.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ServiceError
from ..service.kernel import Service
from ..service.request import ChargingRequest
from .plan import KERNEL_KINDS, SUPERVISOR_KINDS, FaultEvent, FaultPlan
from .supervisor import ShardSupervisor, zero_stats

__all__ = ["apply_event", "drive", "merge_timeline"]

#: One timeline item: ``("submit", t, ChargingRequest)``,
#: ``("fault", t, FaultEvent)`` for a kernel fault, or
#: ``(kind, t, FaultEvent)`` for a supervisor chaos event.
TimelineItem = Tuple[str, float, Any]


def merge_timeline(
    requests: Sequence[ChargingRequest], plan: FaultPlan
) -> List[TimelineItem]:
    """Interleave submissions, kernel faults and chaos events, time-sorted.

    One sort key, ``(t, priority, kind, id/target)``: at equal times
    submissions come first (priority 0, so a same-instant ``no_show``
    finds its request), then kernel faults (1), then supervisor chaos
    events (2, so a killed unit has processed every same-instant input
    before dying) — a total, deterministic order.  Journal, worker and
    recovery faults are not timeline items; they key on seq / task index
    / recovery attempt, not time.
    """
    items: List[Tuple[Tuple[float, int, str, str], TimelineItem]] = []
    for req in requests:
        key = (float(req.submitted_at), 0, "submit", req.request_id)
        items.append((key, ("submit", float(req.submitted_at), req)))
    for event in plan.events:
        if event.kind in KERNEL_KINDS:
            priority, tag = 1, "fault"
        elif event.kind in SUPERVISOR_KINDS:
            priority, tag = 2, event.kind
        else:
            continue
        key = (float(event.t), priority, event.kind, event.target)
        items.append((key, (tag, float(event.t), event)))
    items.sort(key=lambda pair: pair[0])
    return [item for _key, item in items]


def apply_event(service: Service, item: TimelineItem) -> None:
    """Apply one submission or kernel-fault timeline item to *service*."""
    tag, t, payload = item
    if tag == "submit":
        service.submit(payload)
        return
    event: FaultEvent = payload
    if event.kind == "charger_down":
        service.fail_charger(event.target, at=t)
    elif event.kind == "charger_up":
        service.restore_charger(event.target, at=t)
    elif event.kind == "cancel":
        service.cancel(event.target, at=t, reason=event.reason or "cancelled")
    elif event.kind == "no_show":
        service.cancel(event.target, at=t, reason=event.reason or "no-show")
    else:
        raise ServiceError(f"not a kernel fault kind: {event.kind!r}")


def drive(
    service: Service,
    requests: Sequence[ChargingRequest],
    plan: Optional[FaultPlan] = None,
    *,
    advance_to: Optional[float] = None,
    drain: bool = True,
) -> Tuple[Service, Dict[str, Any]]:
    """Feed *requests* and *plan* into *service*, healing what dies.

    ``advance_to`` optionally drives the clock past the last event before
    the drain (the ``ccs-serve --duration`` knob).  Returns ``(service,
    stats)``: the service as it stands at the end — a recovered bare
    kernel is a new object — and the supervision tally
    (:func:`~repro.faults.supervisor.zero_stats` keys plus
    ``journal_faults_fired``, the ``(seq, mode)`` of each fired journal
    fault); all zeros when the plan can kill nothing.
    """
    plan = plan if plan is not None else FaultPlan()
    supervisor = ShardSupervisor(service, plan=plan) if plan.can_kill() else None
    feed: Service = service if supervisor is None else supervisor
    try:
        for item in merge_timeline(requests, plan):
            if supervisor is not None and item[0] in SUPERVISOR_KINDS:
                supervisor.inject(item[2])
            else:
                apply_event(feed, item)
        if advance_to is not None:
            feed.advance(advance_to)
        if drain:
            feed.drain()
    finally:
        if supervisor is not None:
            supervisor.close()
    if supervisor is None:
        return service, dict(zero_stats(), journal_faults_fired=[])
    return supervisor.service, dict(
        supervisor.stats, journal_faults_fired=supervisor.fired_faults()
    )
