"""The benchmark's three workloads: their inputs, services and recovery.

Every workload uses the default :class:`~repro.service.ServiceConfig`
(60 s epochs, 120 s commitment window, queue limit 256) and Poisson
arrivals drawn from the ``--seed``; the service receives only the
generated inputs.  Why each one exists is written next to it in
:data:`WORKLOADS` and in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.driver import merge_timeline
from repro.faults.plan import FaultPlan
from repro.geometry import Field, Point
from repro.rng import derive_seed
from repro.service import ChargingService, ServiceConfig, generate_requests
from repro.service.loadgen import generate_keyed_requests
from repro.shard import ShardedService
from repro.wpt import Charger

__all__ = ["Workload", "WORKLOADS", "BENCHMARK_WORKLOADS", "chargers", "timeline", "open_service",
           "kernels_of", "close_service", "recover_service", "write_input_journal"]

CONFIG = ServiceConfig()


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the service configuration it runs against."""

    name: str
    why: str
    n_requests: int
    rate: float
    field_m: float
    n_chargers: int
    capacity: int
    #: 0 runs one ``ChargingService``; N > 0 a ``ShardedService`` of N shards.
    shards: int = 0
    halo_m: float = 0.0
    #: Journal mode: ``"fsync"``, ``"nosync"`` or ``None`` (no journal).
    journal: Optional[str] = None
    #: Snapshot cadence in journal records; the service keeps 2 and compacts.
    snapshot_every: Optional[int] = None
    #: Keyed requests with deadlines and price caps, plus a fault plan.
    chaos: bool = False
    deadline_slack_s: Optional[float] = None
    max_price_factor: Optional[float] = None
    #: Points of the replayed stream where the service is killed and
    #: recovered; the last is after the drain.  Journal-less workloads
    #: have one.
    crash_points: int = 1
    #: Recoveries timed from the same journal files at each crash point
    #: (restored between them); ``recover_s`` takes their median.
    recoveries: int = 1
    #: Boundary submits an untraced run collects at least: 100 carry the
    #: p90 in the run report with ten samples beyond it; a heavier
    #: fold-time tail needs more for the gated p75 to hold still.
    min_boundary: int = 100

    def scaled(self, scale: float) -> "Workload":
        """The same workload with ``scale`` times as many requests."""
        return replace(self, n_requests=max(50, int(round(self.n_requests * scale))))

    def params(self) -> Dict[str, Any]:
        """Plain-JSON description for the run report."""
        doc = {k: v for k, v in self.__dict__.items() if k != "why"}
        doc["config"] = CONFIG.to_dict()
        return doc


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="durable",
            why="journal with snapshots every 500 records and compaction: snapshot "
                "writes and the snapshot-plus-suffix recovery path; the planner does "
                "little; fsync per append is off (see durable_fsync)",
            n_requests=2400,
            rate=1.0,
            crash_points=12,
            min_boundary=160,
            field_m=400.0,
            n_chargers=9,
            capacity=10,
            journal="nosync",
            snapshot_every=500,
        ),
        Workload(
            name="dense",
            why="planner-bound: ~240 admissions per epoch into a large live plan; "
                "no journal, snapshots or router, so changes there predict no change",
            n_requests=6000,
            rate=4.0,
            recoveries=3,
            field_m=400.0,
            n_chargers=16,
            capacity=20,
        ),
        Workload(
            name="sharded_chaos",
            why="4 shards with a halo: router quotes, outages, cancellations and "
                "no-shows drive remove/evacuate/repair; unsynced journals, full-replay "
                "recovery",
            n_requests=4000,
            rate=2.0,
            recoveries=3,
            field_m=800.0,
            n_chargers=16,
            capacity=10,
            shards=4,
            halo_m=60.0,
            journal="nosync",
            chaos=True,
            deadline_slack_s=600.0,
            max_price_factor=1.3,
        ),
    )
}


#: The shipping configuration: ``durable`` with an fsync per journal append.
#: Run by hand only: fsync latency on a shared virtual disk drifts by half
#: within a minute, more than any regression bound can absorb.
WORKLOADS["durable_fsync"] = replace(
    WORKLOADS["durable"],
    name="durable_fsync",
    why="durable in the shipping configuration, with an fsync per journal append",
    journal="fsync",
)

#: The workloads ``BENCHMARK.json`` lists, in order.  ``durable`` is run
#: by hand too: its snapshots fsync to the shared virtual disk, and its
#: wall-clock figures followed the disk from run to run by more than a
#: regression bound can absorb (README.md).
BENCHMARK_WORKLOADS = ("dense", "sharded_chaos")


def chargers(w: Workload) -> List[Charger]:
    """A fixed square grid of chargers, cell-centred on the field."""
    side = max(1, int(round(w.n_chargers ** 0.5)))
    out = []
    for i in range(w.n_chargers):
        row, col = divmod(i, side)
        out.append(
            Charger(
                charger_id=f"c{i}",
                position=Point(w.field_m * (col + 0.5) / side, w.field_m * (row + 0.5) / side),
                capacity=w.capacity,
            )
        )
    return out


def timeline(w: Workload, seed: int, stream: int = 0) -> List[Tuple[str, float, Any]]:
    """Input stream number *stream* for *seed*: submissions merged with faults.

    Each repeat of a run feeds its own stream, so one run averages over
    several independent draws of the workload.
    """
    seed = derive_seed(seed, "servicebench", stream)
    field = Field(w.field_m, w.field_m)
    if w.chaos:
        requests = generate_keyed_requests(
            w.n_requests, rate=w.rate, seed=seed, field=field,
            deadline_slack=w.deadline_slack_s, max_price_factor=w.max_price_factor,
        )
        plan = FaultPlan.generate(
            seed,
            charger_ids=[c.charger_id for c in chargers(w)],
            requests=requests,
            journal_faults=0,
        )
    else:
        requests = generate_requests(w.n_requests, rate=w.rate, field=field, rng=seed)
        plan = FaultPlan()
    return merge_timeline(requests, plan)


def _journal_path(workdir: Path) -> Path:
    return workdir / "journal.jsonl"


def _durability(w: Workload) -> Dict[str, Any]:
    return {
        "journal_sync": w.journal == "fsync",
        "snapshot_every": w.snapshot_every,
    }


def open_service(w: Workload, workdir: Path) -> Any:
    """A fresh service for *w*, journaling under *workdir* if it journals."""
    if w.shards:
        return ShardedService(
            chargers(w), w.shards, field=Field(w.field_m, w.field_m), halo=w.halo_m,
            config=CONFIG,
            journal_dir=workdir / "shards" if w.journal else None,
            **_durability(w),
        )
    return ChargingService(
        chargers(w), config=CONFIG,
        journal_path=_journal_path(workdir) if w.journal else None,
        **_durability(w),
    )


def kernels_of(service: Any) -> List[ChargingService]:
    """The service's kernels, in shard order (one for an unsharded service)."""
    if isinstance(service, ShardedService):
        return [service.kernels[sid] for sid in sorted(service.kernels)]
    return [service]


def close_service(service: Any) -> None:
    """Close every journal the service holds."""
    if isinstance(service, ShardedService):
        service.close()
    elif service.journal is not None:
        service.journal.close()


def write_input_journal(w: Workload, workdir: Path, items: List[Tuple[str, float, Any]]) -> None:
    """Journal the inputs of a journal-less run, for its recovery measurement.

    Recovery replays only input records (``submit`` … ``drain``) and
    re-derives the rest, so the service's own journal, given just the
    inputs, is what a journaled run of the same stream would recover from.
    """
    service = ChargingService(
        chargers(w), config=CONFIG, journal_path=_journal_path(workdir), journal_sync=False,
    )
    journal = service.journal
    assert journal is not None
    last = 0.0
    for tag, t, payload in items:
        if tag != "submit":
            raise ValueError("input journals are written for fault-free workloads only")
        journal.append("submit", t, payload.to_dict())
        last = t
    journal.append("drain", last, {})
    journal.close()


def recover_service(w: Workload, workdir: Path) -> Any:
    """Rebuild the service from the journal files left under *workdir*."""
    if w.shards:
        return ShardedService.recover(workdir / "shards", chargers(w), config=CONFIG,
                                      **_durability(w))
    durability = _durability(w) if w.journal else {"journal_sync": False}
    return ChargingService.recover(_journal_path(workdir), chargers(w), config=CONFIG,
                                   **durability)
