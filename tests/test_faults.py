"""The fault-injection layer itself: plans, faulty journals, executors.

Three contracts under test:

1. **Fault plans are data**: seed-generated plans are deterministic,
   JSON round-trippable, and validated on construction.
2. **Journal failure semantics** (see ``docs/FAULTS.md``): a failed
   append never leaves a half-written record behind a success path —
   a clean ``OSError`` truncates back and raises the typed
   :class:`~repro.errors.JournalWriteError` without consuming ``seq``;
   a torn write leaves garbage that ``read_records`` drops as an
   invalid tail.
3. **Executor failure semantics**: one task failing (exception, worker
   crash, or hang) never takes down the run — every other task
   completes and is cached, retries stay within budget, and terminal
   failures surface as one typed :class:`~repro.errors.TaskFailedError`
   carrying the partial results.
4. **One timeline, one supervised drive loop**: ``merge_timeline``
   orders equal-time items submit < kernel fault < chaos event, and a
   bare kernel heals its own deaths under ``drive``.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import (
    ConfigurationError,
    InjectedFaultError,
    JournalWriteError,
    ServiceError,
    TaskFailedError,
)
from repro.experiments.exec import ParallelExecutor, ResultCache, SerialExecutor, Task
from repro.faults import (
    FaultEvent,
    FaultPlan,
    FaultyExecutor,
    FaultyJournal,
    ShardSupervisor,
    drive,
    merge_timeline,
)
from repro.geometry import Point
from repro.service import ChargingService, ServiceConfig, generate_requests
from repro.wpt import Charger
from repro.service.journal import Journal


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(t=1.0, kind="meteor_strike", target="c0")

    def test_rejects_negative_and_nonfinite_times(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(t=-1.0, kind="charger_down", target="c0")
        with pytest.raises(ConfigurationError):
            FaultEvent(t=float("nan"), kind="charger_down", target="c0")

    def test_journal_write_requires_a_mode(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(t=0.0, kind="journal_write", target="5")
        with pytest.raises(ConfigurationError):
            FaultEvent(t=0.0, kind="journal_write", target="5", mode="sharknado")
        FaultEvent(t=0.0, kind="journal_write", target="5", mode="torn")

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(t=0.0, kind="worker_crash", target="0", count=0)


class TestFaultPlan:
    def test_events_are_time_sorted(self):
        plan = FaultPlan([
            FaultEvent(t=9.0, kind="charger_up", target="c0"),
            FaultEvent(t=3.0, kind="charger_down", target="c0"),
        ])
        assert [e.t for e in plan] == [3.0, 9.0]

    def test_generation_is_deterministic(self):
        kwargs = dict(charger_ids=["c0", "c1", "c2"], journal_faults=3, n_tasks=8)
        a = FaultPlan.generate(42, **kwargs)
        b = FaultPlan.generate(42, **kwargs)
        c = FaultPlan.generate(43, **kwargs)
        assert a == b
        assert a != c

    def test_round_trips_through_dict_and_file(self, tmp_path):
        plan = FaultPlan.generate(7, charger_ids=["c0", "c1"], journal_faults=2,
                                  n_tasks=4)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_views_partition_by_consumer(self):
        plan = FaultPlan([
            FaultEvent(t=5.0, kind="charger_down", target="c0"),
            FaultEvent(t=0.0, kind="journal_write", target="3", mode="torn"),
            FaultEvent(t=0.0, kind="worker_crash", target="2", count=2),
            FaultEvent(t=8.0, kind="cancel", target="r1"),
        ])
        assert [e.kind for e in plan.kernel_events()] == ["charger_down", "cancel"]
        assert plan.journal_faults() == {3: "torn"}
        assert plan.worker_crashes() == {2: 2}

    def test_generation_leaves_one_charger_standing(self):
        plan = FaultPlan.generate(
            1, charger_ids=["c0", "c1", "c2"], outage_prob=1.0, journal_faults=0
        )
        downed = {e.target for e in plan if e.kind == "charger_down"}
        assert len(downed) <= 2


class TestJournalSync:
    def test_sync_flag_controls_fsync(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        with Journal(tmp_path / "a.journal", sync=True) as j:
            j.append("open", 0.0, {})
            j.append("submit", 1.0, {"id": "r1"})
        synced = len(calls)
        with Journal(tmp_path / "b.journal", sync=False) as j:
            j.append("open", 0.0, {})
            j.append("submit", 1.0, {"id": "r1"})
        assert synced == 2 and len(calls) == 2

    def test_failed_append_truncates_and_does_not_consume_seq(self, tmp_path):
        path = tmp_path / "svc.journal"
        journal = FaultyJournal(path, fail_at={1: "enospc"})
        journal.append("open", 0.0, {})
        with pytest.raises(JournalWriteError):
            journal.append("submit", 1.0, {"id": "r1"})
        # The journal on disk is still a valid one-record prefix...
        records, torn = Journal.read_records(path)
        assert [r["event"] for r in records] == ["open"] and not torn
        # ...and the retry reuses the same seq and succeeds.
        assert journal.seq == 1
        assert journal.append("submit", 1.0, {"id": "r1"}) == 1
        records, torn = Journal.read_records(path)
        assert [r["event"] for r in records] == ["open", "submit"] and not torn
        assert journal.fired == [(1, "enospc")] and journal.fail_at == {}
        journal.close()

    def test_torn_write_leaves_an_invalid_tail(self, tmp_path):
        path = tmp_path / "svc.journal"
        journal = FaultyJournal(path, fail_at={1: "torn"})
        journal.append("open", 0.0, {})
        with pytest.raises(InjectedFaultError):
            journal.append("submit", 1.0, {"id": "r1"})
        # Half a record reached disk — the "process" is gone, no cleanup.
        raw = path.read_bytes()
        assert not raw.endswith(b"\n")
        records, torn = Journal.read_records(path)
        assert [r["event"] for r in records] == ["open"]
        assert torn
        journal.close()

    def test_closed_after_broken_restore_fails_loudly(self, tmp_path):
        from repro.errors import JournalError

        path = tmp_path / "svc.journal"
        journal = Journal(path)

        def explode(line):
            raise OSError("disk on fire")

        journal._write = explode
        journal._restore = lambda offset: setattr(journal, "_fh", None)
        with pytest.raises(JournalWriteError):
            journal.append("open", 0.0, {})
        with pytest.raises(JournalError):
            journal.append("open", 0.0, {})


def _tasks(kind, n, params=None, seed=5):
    return [Task(kind=kind, params=dict(params or {}), seed=seed, trial=t)
            for t in range(n)]


class TestExecutorFailureIsolation:
    def test_serial_executor_stays_fail_fast(self):
        tasks = _tasks("repro.faults.tasks:raise", 1)
        with pytest.raises(ValueError):
            SerialExecutor().run(tasks)

    def test_one_bad_task_does_not_abort_the_others(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = _tasks("repro.faults.tasks:echo", 4)
        tasks[2] = Task(kind="repro.faults.tasks:raise", params={}, seed=5, trial=2)
        pool = ParallelExecutor(jobs=2, cache=cache, retries=1)
        with pytest.raises(TaskFailedError) as exc_info:
            pool.run(tasks)
        err = exc_info.value
        assert set(err.failures) == {2}
        assert isinstance(err.failures[2], ValueError)
        # Partial results: every other task completed and was cached.
        assert [r is not None for r in err.results] == [True, True, False, True]
        assert pool.computed == 3
        hit, value = cache.load(tasks[0])
        assert hit and value == err.results[0]

    def test_retry_budget_is_respected(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        params = {"marker_dir": str(marker), "fail_attempts": 2}
        tasks = _tasks("repro.faults.tasks:raise", 2, params)
        # Two failures then success needs three attempts: retries=2 is enough.
        results = ParallelExecutor(jobs=2, retries=2).run(tasks)
        assert [r["attempts"] for r in results] == [3, 3]

    def test_exhausted_retries_surface_the_last_error(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        params = {"marker_dir": str(marker), "fail_attempts": 5}
        tasks = _tasks("repro.faults.tasks:raise", 1, params)
        with pytest.raises(TaskFailedError) as exc_info:
            ParallelExecutor(jobs=1, retries=1).run(tasks)
        assert isinstance(exc_info.value.failures[0], ValueError)
        # retries=1 means exactly two attempts were made.
        counter = marker / "attempts-raise-5-0"
        assert counter.read_text() == "2"

    def test_error_message_names_the_failed_tasks(self):
        tasks = _tasks("repro.faults.tasks:raise", 2)
        with pytest.raises(TaskFailedError) as exc_info:
            ParallelExecutor(jobs=2, retries=0).run(tasks)
        message = str(exc_info.value)
        assert "2 task(s) failed terminally" in message
        assert "task 0" in message and "task 1" in message


class TestWorkerCrashes:
    def test_crashed_worker_does_not_take_down_the_run(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        tasks = _tasks("repro.faults.tasks:echo", 4)
        tasks[1] = Task(
            kind="repro.faults.tasks:crash",
            params={"marker_dir": str(marker), "crash_attempts": 1},
            seed=5, trial=1,
        )
        results = ParallelExecutor(jobs=2, retries=2).run(tasks)
        assert results[1]["attempts"] == 2
        assert all(r is not None for r in results)

    def test_crash_beyond_budget_is_terminal_but_isolated(self, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        marker = tmp_path / "markers"
        marker.mkdir()
        cache = ResultCache(tmp_path / "cache")
        tasks = _tasks("repro.faults.tasks:echo", 4)
        tasks[0] = Task(
            kind="repro.faults.tasks:crash",
            params={"marker_dir": str(marker), "crash_attempts": 10},
            seed=5, trial=0,
        )
        pool = ParallelExecutor(jobs=2, cache=cache, retries=1)
        with pytest.raises(TaskFailedError) as exc_info:
            pool.run(tasks)
        err = exc_info.value
        assert set(err.failures) == {0}
        assert isinstance(err.failures[0], BrokenProcessPool)
        assert [r is not None for r in err.results] == [False, True, True, True]
        hit, _ = cache.load(tasks[3])
        assert hit

    def test_faulty_executor_injects_crashes_under_real_tasks(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        tasks = _tasks("repro.faults.tasks:echo", 3)
        pool = FaultyExecutor(
            jobs=2, crashes={1: 1}, marker_dir=str(marker), retries=2
        )
        results = pool.run(tasks)
        serial = SerialExecutor().run(tasks)
        assert results == serial
        assert (marker / f"attempts-{tasks[1].fingerprint}").read_text() == "2"

    def test_faulty_executor_requires_marker_dir(self):
        with pytest.raises(ValueError):
            FaultyExecutor(jobs=1, crashes={0: 1})

    def test_hung_task_is_terminated_and_retried(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        tasks = [Task(
            kind="repro.faults.tasks:hang",
            params={"marker_dir": str(marker), "hang_attempts": 1,
                    "hang_seconds": 600.0},
            seed=5, trial=0,
        )]
        results = ParallelExecutor(jobs=1, retries=1, task_timeout=0.5).run(tasks)
        assert results[0]["attempts"] == 2


class TestBackoff:
    def test_delays_are_deterministic_and_bounded(self):
        a = ParallelExecutor(jobs=1, backoff_base=0.1, backoff_cap=1.0, seed=9)
        b = ParallelExecutor(jobs=1, backoff_base=0.1, backoff_cap=1.0, seed=9)
        delays = [a.backoff_delay(w) for w in range(1, 8)]
        assert delays == [b.backoff_delay(w) for w in range(1, 8)]
        assert all(0.0 < d <= 1.0 for d in delays)
        # Exponential until the cap bites.
        assert delays[1] > delays[0]
        assert delays[-1] == 1.0

    def test_different_seeds_jitter_differently(self):
        a = ParallelExecutor(jobs=1, backoff_base=0.1, seed=1)
        b = ParallelExecutor(jobs=1, backoff_base=0.1, seed=2)
        assert [a.backoff_delay(w) for w in range(1, 5)] != [
            b.backoff_delay(w) for w in range(1, 5)
        ]

    def test_zero_base_never_sleeps(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        slept = []
        params = {"marker_dir": str(marker), "fail_attempts": 1}
        tasks = _tasks("repro.faults.tasks:raise", 1, params)
        ParallelExecutor(jobs=1, retries=1, sleep=slept.append).run(tasks)
        assert slept == []

    def test_retry_waves_sleep_the_scheduled_backoff(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        slept = []
        params = {"marker_dir": str(marker), "fail_attempts": 2}
        tasks = _tasks("repro.faults.tasks:raise", 1, params)
        pool = ParallelExecutor(
            jobs=1, retries=2, backoff_base=0.001, seed=3, sleep=slept.append
        )
        pool.run(tasks)
        assert slept == [pool.backoff_delay(1), pool.backoff_delay(2)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=1, retries=-1)
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=1, task_timeout=0.0)


def _stream(n=12, seed=3):
    return generate_requests(
        n, rate=0.1, deadline_slack=2000.0, max_price_factor=1.5, rng=seed
    )


def _kernel(path, fail_at=None):
    chargers = [
        Charger(charger_id="c0", position=Point(20.0, 20.0)),
        Charger(charger_id="c1", position=Point(80.0, 80.0)),
    ]
    config = ServiceConfig(epoch=60.0, window=120.0)
    if fail_at is None:
        return ChargingService(chargers, config=config, journal_path=path,
                               journal_sync=False)
    return ChargingService(chargers, config=config,
                           journal=FaultyJournal(path, fail_at=fail_at))


class TestMergeTimeline:
    def test_equal_times_order_submit_then_fault_then_chaos(self):
        (req,) = _stream(n=1)
        t = float(req.submitted_at)
        plan = FaultPlan([
            FaultEvent(t=t, kind="shard_kill", target="0"),
            FaultEvent(t=t, kind="cancel", target=req.request_id),
            FaultEvent(t=0.0, kind="journal_write", target="3", mode="enospc"),
            FaultEvent(t=0.0, kind="recovery_crash", target="0"),
        ])
        items = merge_timeline([req], plan)
        assert [tag for tag, _t, _p in items] == ["submit", "fault", "shard_kill"]
        assert all(item_t == t for _tag, item_t, _p in items)

    def test_plan_without_chaos_yields_submits_and_kernel_faults(self):
        stream = _stream()
        plan = FaultPlan.generate(
            5, charger_ids=["c0", "c1"], requests=stream, cancel_prob=0.3
        )
        items = merge_timeline(stream, plan)
        assert {tag for tag, _t, _p in items} == {"submit", "fault"}
        assert len(items) == len(stream) + len(plan.kernel_events())
        assert [t for _tag, t, _p in items] == sorted(t for _tag, t, _p in items)


class TestSupervisedKernel:
    """A bare kernel is unit 0: the supervisor heals it in place."""

    def reference(self, tmp_path, stream):
        ref = _kernel(tmp_path / "ref.jsonl")
        drive(ref, stream)
        ref.close()
        return (tmp_path / "ref.jsonl").read_bytes()

    @pytest.mark.parametrize("mode", [None, "torn"])
    def test_kill_of_unit_zero_converges(self, tmp_path, mode):
        stream = _stream()
        t_kill = float(stream[len(stream) // 2].submitted_at)
        plan = FaultPlan([FaultEvent(t=t_kill, kind="shard_kill", target="0", mode=mode)])
        svc = _kernel(tmp_path / "svc.jsonl")
        healed, stats = drive(svc, stream, plan)
        healed.close()
        assert healed is not svc  # recovery replaced the dead kernel
        assert (stats["kills"], stats["torn_kills"]) == (1, int(mode == "torn"))
        assert stats["recoveries"] == stats["failures"] == 1
        assert stats["crashes"] == 0 and stats["journal_faults_fired"] == []
        assert (tmp_path / "svc.jsonl").read_bytes() == self.reference(tmp_path, stream)

    def test_kill_of_a_missing_unit_is_skipped(self, tmp_path):
        stream = _stream()
        plan = FaultPlan([FaultEvent(t=1.0, kind="shard_kill", target="3")])
        svc = _kernel(tmp_path / "svc.jsonl")
        healed, stats = drive(svc, stream, plan)
        healed.close()
        assert healed is svc
        assert (stats["kills"], stats["skipped_kills"]) == (0, 1)

    def test_crash_budget_guard(self, tmp_path):
        stream = _stream()
        svc = _kernel(tmp_path / "svc.jsonl", fail_at={4: "enospc"})
        sup = ShardSupervisor(svc)
        # A fault armed behind the supervisor's back exceeds the budget
        # of one crash per fault armed when supervision began.
        svc.journal.fail_at[6] = "enospc"
        with pytest.raises(ServiceError, match="still crashing after 1 armed"):
            for req in stream:
                sup.submit(req)
        sup.service.close()
