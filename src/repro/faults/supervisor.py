"""Self-healing supervision: detect, back off, recover, re-feed.

:class:`ShardSupervisor` wraps any :class:`~repro.service.kernel.Service`
and turns the death of one of its *units* into a recovery instead of an
exception.  A unit is whatever dies and comes back as one piece: a shard
of a :class:`~repro.shard.service.ShardedService`, or — for a bare
:class:`~repro.service.kernel.ChargingService` — the whole kernel, unit
0.  The supervisor is itself a :class:`~repro.service.kernel.Service`,
so :func:`repro.faults.driver.drive` feeds it like any other.  The loop,
per failure:

1. **Detect** — the facade raises :class:`~repro.errors.ShardFailedError`
   naming the shard when a kernel's journal append fails or an injected
   crash fires; a bare kernel raises the
   :class:`~repro.errors.JournalWriteError` /
   :class:`~repro.errors.InjectedFaultError` itself.  An exogenous
   ``kill -9`` arrives through :meth:`kill_shard`, the fault plan's chaos
   events through :meth:`inject`.
2. **Back off** — before each restart attempt the supervisor charges a
   *logical* backoff (exponential in the attempt, jittered from
   ``derive_seed(seed, "backoff", unit, attempt)``).  Nothing sleeps:
   the service clock is input-driven (CCS002), so backoff is pure
   bookkeeping — journaled, summed in :attr:`stats`, asserted
   deterministic by the tests.
3. **Recover** — :meth:`ShardedService.kill_and_recover_shard` rebuilds
   exactly the dead shard; a dead bare kernel is replaced by
   :meth:`ChargingService.recover` from its own journal (snapshot fast
   path included either way).  A crash *during* recovery counts as a
   failed attempt and the loop retries.
4. **Escalate** — past ``max_restarts`` attempts a shard is marked down
   (:meth:`ShardedService.mark_shard_down`): the router degrades around
   it and the supervisor stops fighting; :meth:`reset_shard` is the
   operator's way back.  A bare kernel has no degraded mode, so it keeps
   restarting, bounded instead by its crash budget: every crash fires
   (and disarms) one armed journal fault, and a crash beyond that count
   raises :class:`~repro.errors.ServiceError`.
5. **Re-feed** — after a successful recovery the supervisor replays its
   input history.  Every kernel input is idempotent, so the re-feed
   no-ops through surviving state and regenerates exactly what a torn
   journal tail lost.

Faults against recovery itself are armed from the plan per unit:
``recovery_crash`` events fail the replay journal's first appends.  A
bare kernel journaling through a
:class:`~repro.faults.journal.FaultyJournal` has one fault map: every
replay journal shares its ``fail_at``, so its remaining faults stay
armed across recoveries, and its ``recovery_crash`` seqs join that map.

For a facade with a journal directory every step appends a record to the
**supervision journal** (``supervisor.jsonl`` next to the shard
journals, same checksummed format): failures, restart attempts with
their backoff, recoveries, escalations.  Backoff is seed-derived and
every decision is a pure function of ``(seed, failure sequence)``, so
re-running the same timeline against the same fault plan reproduces the
supervision journal byte-for-byte.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import (
    ConfigurationError,
    InjectedFaultError,
    JournalWriteError,
    ServiceError,
    ShardFailedError,
)
from ..rng import derive_seed, ensure_rng
from ..service.journal import Journal
from ..service.kernel import ChargingService, Service
from ..service.request import ChargingRequest
from ..service.snapshot import list_snapshots, snapshot_path
from ..shard.service import ShardedService
from .journal import FaultyJournal
from .plan import FaultEvent, FaultPlan

__all__ = ["SUPERVISOR_JOURNAL_NAME", "ShardSupervisor", "zero_stats"]

#: The supervision journal's file name inside the journal directory.
SUPERVISOR_JOURNAL_NAME = "supervisor.jsonl"

#: Exceptions that mean "this unit crashed; recover it" — anything else
#: (config mismatch, unrecoverable corruption) propagates to the
#: operator, because retrying cannot fix it.
_RETRYABLE = (JournalWriteError, InjectedFaultError)


def zero_stats() -> Dict[str, Any]:
    """The supervision tally of a run in which nothing failed."""
    stats: Dict[str, Any] = dict.fromkeys(
        (
            "failures", "crashes", "restarts", "recoveries", "escalations",
            "refeeds", "kills", "torn_kills", "skipped_kills",
            "snapshot_corruptions", "snapshot_crashes",
        ),
        0,
    )
    stats["total_backoff"] = 0.0
    return stats


class ShardSupervisor:
    """Automatic failover for any :class:`Service` (module docstring)."""

    def __init__(
        self,
        service: Service,
        seed: int = 0,
        max_restarts: int = 3,
        backoff_base: float = 1.0,
        backoff_factor: float = 2.0,
        backoff_cap: float = 60.0,
        plan: Optional[FaultPlan] = None,
        journal_sync: bool = False,
    ) -> None:
        """``plan`` arms its ``recovery_crash`` events against the units'
        recovery journals.  ``journal_sync`` is the supervision journal's
        fsync knob."""
        if max_restarts < 1:
            raise ConfigurationError(
                f"max_restarts must be >= 1, got {max_restarts}"
            )
        if backoff_base <= 0.0 or backoff_factor < 1.0 or backoff_cap <= 0.0:
            raise ConfigurationError(
                "backoff needs base > 0, factor >= 1, cap > 0; got "
                f"base={backoff_base}, factor={backoff_factor}, cap={backoff_cap}"
            )
        self.service = service
        self.seed = int(seed)
        self.max_restarts = int(max_restarts)
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self.backoff_cap = float(backoff_cap)
        #: ``{unit: {seq: mode}}`` journal faults armed against each
        #: unit's recovery journals — shared, consumed in place.
        self.armed: Dict[int, Dict[int, str]] = (
            plan.recovery_crashes() if plan is not None else {}
        )
        #: A bare kernel's crash budget (``None`` on a facade, which
        #: escalates instead): one crash per armed fault.
        self._budget: Optional[int] = None
        if isinstance(service, ChargingService):
            if isinstance(service.journal, FaultyJournal):
                service.journal.fail_at.update(self.armed.get(0, {}))
                self.armed[0] = service.journal.fail_at
            self._budget = len(self.armed.get(0, {}))
        self._armed_at_start = {u: dict(a) for u, a in self.armed.items()}
        #: Inputs successfully applied, in order — the re-feed source
        #: after a recovery.
        self.history: List[Tuple[str, Tuple[Any, ...], Dict[str, Any]]] = []
        self.stats = zero_stats()
        self._refeeding = False
        self.journal: Optional[Journal] = None
        if isinstance(service, ShardedService) and service.journal_dir is not None:
            self.journal = Journal(
                service.journal_dir / SUPERVISOR_JOURNAL_NAME,
                truncate=True,
                sync=journal_sync,
            )

    # ------------------------------------------------------------------ #
    # the Service protocol: every input heals the deaths it provokes

    def submit(self, request: ChargingRequest) -> str:
        return self._call("submit", request)

    def advance(self, to: float) -> None:
        self._call("advance", to)

    def drain(self) -> None:
        self._call("drain")

    def fail_charger(self, charger_id: str, at: Optional[float] = None) -> bool:
        return self._call("fail_charger", charger_id, at=at)

    def restore_charger(self, charger_id: str, at: Optional[float] = None) -> bool:
        return self._call("restore_charger", charger_id, at=at)

    def cancel(
        self, request_id: str, at: Optional[float] = None, reason: str = "cancelled"
    ) -> Optional[str]:
        return self._call("cancel", request_id, at=at, reason=reason)

    def counts(self) -> Dict[str, int]:
        return self.service.counts()

    def final_schedule(self) -> List[Dict[str, Any]]:
        return self.service.final_schedule()

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.service.metrics_snapshot()

    def close(self) -> None:
        """Close the supervision journal (idempotent).  The supervised
        service belongs to the caller and stays open."""
        if self.journal is not None:
            self.journal.close()

    def _call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke one service input, retrying it after each recovery.

        After an *escalation* the retry terminates through the degraded
        paths (rejected ``shard_unavailable``, skipped clock advance)
        instead of failing again.
        """
        while True:
            try:
                result = getattr(self.service, method)(*args, **kwargs)
            except ShardFailedError as exc:
                failure = exc
            except _RETRYABLE as exc:  # a bare kernel dies whole: unit 0
                failure = ShardFailedError(0, self._units()[0].clock.now, exc)
            else:
                if not self._refeeding:
                    self.history.append((method, args, kwargs))
                return result
            self._crashed()
            self.handle_failure(failure)

    # ------------------------------------------------------------------ #
    # the supervision loop

    def backoff(self, shard: int, attempt: int) -> float:
        """Logical backoff before restart *attempt* (1-based) of *shard*.

        Exponential ``base * factor**(attempt-1)`` capped at ``cap``,
        jittered into ``[0.5, 1.5)`` of itself by a generator keyed
        ``derive_seed(seed, "backoff", shard, attempt)`` — a pure
        function of its arguments, so two runs (or a run and its replay)
        charge identical backoffs.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt is 1-based, got {attempt}")
        base = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        rng = ensure_rng(derive_seed(self.seed, "backoff", int(shard), int(attempt)))
        return float(base * (0.5 + rng.random()))

    def handle_failure(self, exc: ShardFailedError) -> bool:
        """Recover the failed unit; returns ``True`` on success.

        Runs the restart loop — backoff, recover, retry on a crash
        during recovery — and either brings the unit back (re-feeding
        the processed history) or, on a facade, escalates after
        ``max_restarts`` attempts: the shard is marked down and ``False``
        returned, with the facade degrading around it.
        """
        sid = exc.shard
        self.stats["failures"] += 1
        self._log("shard_failed", exc.at, {
            "shard": sid, "cause": type(exc.cause).__name__,
        })
        for attempt in itertools.count(1):
            # Only a facade escalates; a bare kernel is bounded by its
            # crash budget (``_crashed``) instead.
            if isinstance(self.service, ShardedService) and attempt > self.max_restarts:
                break
            pause = self.backoff(sid, attempt)
            self.stats["total_backoff"] += pause
            self.stats["restarts"] += 1
            self._log("restart", exc.at, {
                "shard": sid, "attempt": attempt, "backoff": pause,
            })
            try:
                self._recover(sid)
            except _RETRYABLE as retry_exc:
                self._crashed()
                self._log("restart_failed", exc.at, {
                    "shard": sid,
                    "attempt": attempt,
                    "cause": type(retry_exc).__name__,
                })
                continue
            self.stats["recoveries"] += 1
            self._log("recovered", exc.at, {"shard": sid, "attempt": attempt})
            if not self._refeeding:
                self.refeed()
            return True
        self.stats["escalations"] += 1
        self._log("escalated", exc.at, {
            "shard": sid, "attempts": self.max_restarts,
        })
        self.service.mark_shard_down(sid)
        return False

    def kill_shard(self, shard: int, torn: bool = False) -> bool:
        """An exogenous ``kill -9`` of one unit, healed through the loop.

        Closes the unit's journal (the "crash" — nothing more lands),
        optionally tears its tail, then runs :meth:`handle_failure` as if
        the death had been detected.  Returns whether the unit came back
        (``False`` = escalated).
        """
        kernel = self._units().get(shard)
        if kernel is None or kernel.journal is None:
            raise ServiceError(f"no journaled kernel for unit {shard}")
        at = kernel.clock.now
        path = Path(kernel.journal.path)
        kernel.journal.close()
        if torn:
            _tear_tail(path)
        return self.handle_failure(
            ShardFailedError(shard, at, InjectedFaultError("shard killed"))
        )

    def reset_shard(self, shard: int) -> bool:
        """Operator reset of an escalated shard: one fresh restart budget.

        Re-runs the supervision loop for *shard* (which :meth:`handle_failure`
        escalated and marked down).  On success the shard rejoins routing
        and the history is re-fed; on another exhausted budget it stays
        down and ``False`` returns.
        """
        kernel = self._units().get(shard)
        at = kernel.clock.now if kernel is not None else 0.0
        self._log("reset", at, {"shard": shard})
        return self.handle_failure(
            ShardFailedError(shard, at, ServiceError("operator reset"))
        )

    def inject(self, event: FaultEvent) -> None:
        """Apply one supervisor chaos event to unit ``int(event.target)``.

        ``shard_kill`` kills the unit (``mode="torn"`` tears its journal
        tail first); ``snapshot_corrupt`` garbles its newest snapshot
        before recovery needs it; ``crash_in_snapshot`` strands a
        half-written snapshot tmp, then kills it.  Events against a unit
        that does not exist or keeps no journal count as skipped.
        """
        unit = int(event.target)
        kernel = self._units().get(unit)
        if kernel is None or kernel.journal is None:
            self.stats["skipped_kills"] += 1
            return
        path = Path(kernel.journal.path)
        if event.kind == "snapshot_corrupt":
            self.stats["snapshot_corruptions"] += _corrupt_newest_snapshot(path)
            return
        if event.kind == "crash_in_snapshot":
            _litter_snapshot_tmp(path, kernel.journal.seq)
            self.stats["snapshot_crashes"] += 1
        torn = event.mode == "torn"
        self.kill_shard(unit, torn=torn)
        self.stats["kills"] += 1
        self.stats["torn_kills"] += int(torn)

    def refeed(self) -> None:
        """Re-apply the input history (idempotent).

        Regenerates whatever journal records a torn tail lost; everything
        still journaled no-ops.  A unit death *during* the re-feed runs
        the restart loop again but not a nested re-feed — the outer pass
        already covers the remaining history.
        """
        self.stats["refeeds"] += 1
        self._refeeding = True
        try:
            for method, args, kwargs in self.history:
                self._call(method, *args, **kwargs)
        finally:
            self._refeeding = False

    def fired_faults(self) -> List[Tuple[int, str]]:
        """``(seq, mode)`` of every armed journal fault that has fired."""
        return sorted(
            entry
            for unit, armed in self._armed_at_start.items()
            for entry in armed.items()
            if entry[0] not in self.armed[unit]
        )

    # ------------------------------------------------------------------ #
    # plumbing

    def _units(self) -> Dict[int, ChargingService]:
        if isinstance(self.service, ShardedService):
            return self.service.kernels
        assert isinstance(self.service, ChargingService)
        return {0: self.service}

    def _recover(self, unit: int) -> None:
        factory = self._factory_for(unit)
        if isinstance(self.service, ShardedService):
            self.service.kill_and_recover_shard(unit, journal_factory=factory)
            self.service.mark_shard_up(unit)
            return
        dead = self._units()[0]
        assert dead.journal is not None
        dead.close()
        # Replaced only once recovery succeeds: a crash mid-recovery
        # leaves the dead kernel in place for the next attempt.
        self.service = ChargingService.recover(
            dead.journal.path,
            dead.chargers,
            mobility=dead.planner.instance.mobility,
            scheme=dead.scheme,
            config=dead.config,
            journal_sync=dead.journal.sync,
            journal_factory=factory,
            snapshot_every=dead.snapshot_every,
            snapshot_keep=dead.snapshot_keep,
            compact=dead.compact,
        )

    def _factory_for(self, unit: int) -> Optional[Callable[[str], Journal]]:
        fail_at = self.armed.get(unit)
        if not fail_at:
            return None
        return lambda path: FaultyJournal(path, truncate=True, sync=False, fail_at=fail_at)

    def _crashed(self) -> None:
        self.stats["crashes"] += 1
        if self._budget is not None and self.stats["crashes"] > self._budget:
            raise ServiceError(
                f"fault plan still crashing after {self._budget} armed faults; "
                "a journal fault seq is being re-armed or re-hit"
            )

    def _log(self, event: str, t: float, data: Dict[str, Any]) -> None:
        if self.journal is not None:
            self.journal.append(event, t, data)

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _tear_tail(path: Path, nbytes: int = 10) -> None:
    """Chop *nbytes* off the journal file, tearing its final record.

    Never removes the whole file: at least one byte survives, and a file
    shorter than *nbytes* loses all but its first byte — the torn-tail
    shape :meth:`Journal.read_records` is built to survive.
    """
    size = path.stat().st_size
    keep = max(1, size - int(nbytes))
    with open(path, "r+b") as fh:
        fh.truncate(keep)


def _corrupt_newest_snapshot(journal_path: Path) -> bool:
    """Garble the newest snapshot file in place; ``False`` if none exists.

    Truncates to half, simulating bitrot / a torn copy: the checksum no
    longer verifies, so recovery must skip it — the fallback chain under
    test.
    """
    snaps = list_snapshots(journal_path)
    if not snaps:
        return False
    _seq, path = snaps[0]
    size = path.stat().st_size
    with open(path, "r+b") as fh:
        fh.truncate(max(1, size // 2))
    return True


def _litter_snapshot_tmp(journal_path: Path, seq: int) -> Path:
    """Leave the half-written ``*.tmp`` a crash mid-snapshot-write leaves.

    The temp+rename discipline means a real crash can only strand a tmp
    sibling, never a half file under the final name; recovery must step
    over it (``list_snapshots`` ignores tmps).
    """
    final = snapshot_path(journal_path, seq)
    tmp = final.with_name(final.name + ".tmp")
    tmp.write_text('{"schema":1,"seq":', encoding="utf-8")
    return tmp
