"""Turn repeats into named metrics: the percentile rule and the span ledger.

:func:`end_to_end` reads untraced repeats; :func:`per_layer` reads traced
ones (and the untraced ones, for the tracing overhead).  Each returns
``{name: (value, samples)}`` where *samples* is how many observations the
value rests on, printed next to it in the run's report.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

from repro.service.admission import REASONS

from .harness import BOUNDARY, PLAIN, Replay, Repeat
from .spans import END, INPUT, NAME, OWNER, PARENT, SIZE, START, Span, layer_of, self_times

__all__ = ["ShortTail", "tail", "end_to_end", "per_layer"]

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

Metric = Tuple[float, int]


class ShortTail(ValueError):
    """Too few samples lie beyond a requested tail percentile."""


def tail(samples: Sequence[float], q: float, strict: bool = True) -> Tuple[float, int]:
    """Nearest-rank *q*-quantile of *samples* and the count beyond it.

    Raises :class:`ShortTail` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it and *strict* is set; otherwise the short tail is returned as
    measured, for the caller to flag.
    """
    if not samples:
        raise ShortTail("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if strict and beyond < MIN_BEYOND:
        raise ShortTail(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"needs {MIN_BEYOND}")
    return ordered[rank - 1], beyond


def _median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def end_to_end(
    repeats: Sequence[Repeat],
    replayed: Replay,
    setup: Sequence[Tuple[float, float]],
    peak_rss_mb: float,
    attempted: int,
    failed: int,
    strict: bool = True,
    scaled: bool = True,
    rounds: int = 1,
) -> Dict[str, Metric]:
    """The user-facing metrics of untraced *repeats* (see ``README.md``).

    Throughput and the plain-submit percentiles are medians over repeats;
    boundary latencies and outcomes are pooled over the repeats' streams;
    ``recover_s`` is the mean over the replay's crash points, which sample
    the snapshot cadence evenly, of the median of the recoveries timed at
    each (``rounds`` of them).  *setup* holds ``(seconds, factor)`` per
    probe.  With *scaled*, every timing is first multiplied by the
    host-speed factor of the interval it was measured in.
    """
    def f(speed: float) -> float:
        return speed if scaled else 1.0

    # Plain submits are plentiful: each repeat gets its own p50/p90 and the
    # run reports their medians, so one disturbed repeat cannot move them.
    # Boundary submits are pooled over the repeats to carry a p75.
    plain_p50 = [_median(r.latency[PLAIN]) * f(r.speed) for r in repeats]
    plain_p90 = [tail(r.latency[PLAIN], 0.90, strict)[0] * f(r.speed) for r in repeats]
    n_plain = sum(len(r.latency[PLAIN]) for r in repeats)
    boundary = [dt * f(r.speed) for r in repeats for dt in r.latency[BOUNDARY]]
    p75, _ = tail(boundary, 0.75, strict)
    submits = sum(r.n_submits for r in repeats)
    served = sum(r.served for r in repeats)
    charge_times = [t for r in repeats for t in r.time_to_charge]
    recoveries = [s * f(k) for s, k in zip(replayed.recover_s, replayed.speed)]
    recover_s = statistics.fmean(_median(recoveries[i:i + rounds])
                                 for i in range(0, len(recoveries), rounds))
    saving = 1.0 - sum(r.realized_sum for r in repeats) / sum(r.quote_sum for r in repeats)
    return {
        "throughput_rps": (_median([r.n_submits / (r.wall_s * f(r.speed)) for r in repeats]),
                           len(repeats)),
        "submit_plain_p50_us": (_median(plain_p50) * 1e6, n_plain),
        "submit_plain_p90_us": (_median(plain_p90) * 1e6, n_plain),
        "submit_boundary_p50_ms": (_median(boundary) * 1e3, len(boundary)),
        "submit_boundary_p75_ms": (p75 * 1e3, len(boundary)),
        "recover_s": (recover_s, len(recoveries)),
        "setup_s": (_median([s * f(k) for s, k in setup]), len(setup)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "served_frac": (served / submits, submits),
        "coop_saving_pct": (100.0 * saving, served),
        "time_to_charge_p50_s": (_median(charge_times), len(charge_times)),
        "ok_frac": (1.0 - failed / attempted, attempted),
    }


class _Ledger:
    """Span statistics pooled over the traced repeats."""

    def __init__(self, repeats: Sequence[Repeat]):
        self.repeats = len(repeats)
        self.wall = sum(r.wall_s for r in repeats)
        self.submits = sum(r.n_submits for r in repeats)
        self.durations: Dict[str, List[float]] = {}
        self.sizes: Dict[str, List[float]] = {}
        self.layer_self: Dict[str, float] = {}
        self.self_total = 0.0
        #: Kernel / facade self time of each submit input, by population.
        self.kernel_self: Dict[str, List[float]] = {PLAIN: [], BOUNDARY: []}
        self.facade_self: List[float] = []
        self.quotes_in_route = 0
        #: Max over mean of per-kernel busy time, one value per repeat.
        self.busy_ratio: List[float] = []
        for rep in repeats:
            self._add(rep)

    def _add(self, rep: Repeat) -> None:
        spans = rep.spans
        own = self_times(spans)
        kernel_by_input: Dict[int, float] = {}
        facade_by_input: Dict[int, float] = {}
        busy: Dict[int, float] = {}
        for span, self_s in zip(spans, own):
            name = span[NAME]
            self.durations.setdefault(name, []).append(span[END] - span[START])
            if span[SIZE]:
                self.sizes.setdefault(name, []).append(span[SIZE])
            layer = layer_of(name)
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + self_s
            self.self_total += self_s
            parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
            if layer == "kernel":
                key = span[INPUT]
                kernel_by_input[key] = kernel_by_input.get(key, 0.0) + self_s
                if not parent.startswith("kernel."):
                    busy[span[OWNER]] = busy.get(span[OWNER], 0.0) + span[END] - span[START]
            elif layer == "shard.facade":
                key = span[INPUT]
                facade_by_input[key] = facade_by_input.get(key, 0.0) + self_s
            elif name == "plan.quote" and parent == "router.route":
                self.quotes_in_route += 1
        if busy:
            self.busy_ratio.append(max(busy.values()) / statistics.fmean(busy.values()))
        for index, population in enumerate(rep.populations):
            if not rep.submit_index[index]:
                continue
            if population in self.kernel_self:
                self.kernel_self[population].append(kernel_by_input.get(index, 0.0))
            if population == PLAIN:
                self.facade_self.append(facade_by_input.get(index, 0.0))

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def median(self, name: str) -> Metric:
        samples = self.durations.get(name, [])
        return _median(samples), len(samples)

    def share(self, layer: str) -> Metric:
        return self.layer_self.get(layer, 0.0) / self.wall, self.repeats


def _recovery(spans: Sequence[Span]) -> Tuple[float, float, float]:
    """Journal-read, snapshot-load and replay seconds of one traced recovery."""
    total = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    read = sum(s[END] - s[START] for s in spans if s[NAME] == "journal.read")
    load = sum(s[END] - s[START] for s in spans if s[NAME] == "snapshot.load")
    return read, load, total - read - load


def per_layer(repeats: Sequence[Repeat], replayed: Replay) -> Dict[str, Metric]:
    """The per-layer ledger of a traced run (see ``README.md``).

    *repeats* alternate untraced and traced passes over the same streams;
    the ledger reads the traced ones, and the pairs give the overhead.
    """
    traced = [r for r in repeats if r.traced]
    led = _Ledger(traced)
    n = led.repeats
    per_req = led.submits
    out: Dict[str, Metric] = {}

    def us(name: str) -> Metric:
        value, samples = led.median(name)
        return value * 1e6, samples

    def ms(name: str) -> Metric:
        value, samples = led.median(name)
        return value * 1e3, samples

    def per_repeat(total: float) -> Metric:
        return total / n, n

    appends = led.durations.get("journal.append", [])
    out["journal.append.us"] = us("journal.append")
    out["journal.append.p99_us"] = (
        (tail(appends, 0.99, strict=False)[0] * 1e6, len(appends)) if appends else (0.0, 0))
    out["journal.records_per_req"] = (led.count("journal.append") / per_req, per_req)
    out["journal.bytes_per_req"] = (sum(led.sizes.get("journal.write", [])) / per_req, per_req)
    out["journal.share"] = led.share("journal")
    snap_sizes = led.sizes.get("snapshot.write", [])
    out["snapshot.count"] = per_repeat(led.count("snapshot.write"))
    out["snapshot.write.ms"] = ms("snapshot.write")
    out["snapshot.bytes"] = (_median(snap_sizes), len(snap_sizes))
    out["snapshot.share"] = led.share("snapshot")
    out["journal.compacted_records"] = per_repeat(
        sum(r.compacted_records for r in traced))
    recoveries = [_recovery(spans) for spans in replayed.spans]
    k = len(recoveries)
    for i, name in enumerate(("journal_read", "snapshot_load", "replay")):
        out[f"recover.{name}.ms"] = (statistics.fmean(x[i] for x in recoveries) * 1e3, k)
    out["recover.records_replayed"] = (statistics.fmean(replayed.records_replayed), k)
    out["recover.snapshot_used"] = (statistics.fmean(replayed.snapshot_used), k)
    out["plan.quote.calls_per_req"] = (led.count("plan.quote") / per_req, per_req)
    out["plan.quote.us"] = us("plan.quote")
    out["plan.quote.share"] = led.share("plan.quote")
    out["plan.add.us"] = us("plan.add")
    out["plan.fold.ms"] = ms("plan.fold")
    batches = led.sizes.get("plan.fold", [])
    out["plan.fold.batch"] = (statistics.fmean(batches) if batches else 0.0, len(batches))
    out["plan.fold.share"] = led.share("plan.fold")
    out["plan.remove.calls"] = per_repeat(led.count("plan.remove"))
    out["plan.remove.us"] = us("plan.remove")
    out["plan.retire.us"] = us("plan.retire")
    out["plan.evacuate.calls"] = per_repeat(led.count("plan.evacuate"))
    out["plan.edit.share"] = led.share("plan.edit")

    def ops(name: str) -> float:
        return float(sum(r.ops[name] for r in traced))

    out["plan.insert_candidates_per_req"] = (ops("insert_candidates") / per_req, per_req)
    out["plan.scan_candidates_per_req"] = (ops("scan_candidates") / per_req, per_req)
    out["plan.moves"] = per_repeat(ops("moves"))
    out["plan.repair_moves"] = per_repeat(ops("repair_moves"))

    def counter(name: str) -> float:
        return float(sum(r.counters.get(name, 0) for r in traced))

    out["admission.decide.us"] = us("admission.decide")
    out["admission.reject_frac"] = (counter("rejected") / per_req, per_req)
    out["admission.share"] = led.share("admission")
    for reason in REASONS:
        out[f"admission.rejected.{reason}"] = per_repeat(counter(f"rejected.{reason}"))
    plain, boundary = led.kernel_self[PLAIN], led.kernel_self[BOUNDARY]
    out["kernel.submit.self_us"] = (_median(plain) * 1e6, len(plain))
    out["kernel.epoch.self_ms"] = (_median(boundary) * 1e3, len(boundary))
    out["kernel.boundaries"] = per_repeat(len(boundary))
    out["kernel.share"] = led.share("kernel")
    out["router.route.us"] = us("router.route")
    out["router.border_frac"] = (sum(r.border_requests for r in traced) / per_req, per_req)
    routes = led.count("router.route")
    out["router.quotes_per_route"] = (led.quotes_in_route / routes if routes else 0.0, routes)
    out["router.share"] = led.share("router")
    out["shard.facade.self_us"] = (
        _median(led.facade_self) * 1e6 if led.count("shard.submit") else 0.0,
        len(led.facade_self))
    out["shard.facade.share"] = led.share("shard.facade")
    out["shard.busy_max_over_mean"] = (_median(led.busy_ratio), len(led.busy_ratio))
    out["trace.coverage"] = (led.self_total / led.wall, n)
    # Each traced repeat against the untraced pass over the same stream.
    overhead = [1.0 - (t.n_submits / t.wall_s) / (u.n_submits / u.wall_s)
                for u, t in zip(repeats[0::2], repeats[1::2])]
    out["trace.overhead_pct"] = (100.0 * _median(overhead), len(overhead))
    return out
