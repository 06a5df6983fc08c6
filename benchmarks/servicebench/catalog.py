"""Every metric the benchmark reports: name, unit, better direction, bound.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 benchmarks/servicebench/run.py --write-benchmark-json``) and a test keeps
the two identical, so the names a run prints are the names the file
declares.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Tuple

from repro.service.admission import REASONS

__all__ = ["END_TO_END", "PER_LAYER", "NAME_RE", "benchmark_json"]

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: ``(name, unit, better, bound)``: bound is the share of the parent's
#: median by which a later change may worsen the metric.  Wall-clock
#: metrics get the largest bound the format allows: on a shared 2-core
#: virtual host CPU speed drifts by up to 2x within minutes, and even
#: scaled to reference speed (``speed.py``) a tail percentile's ten-seed
#: spread (quartile distance over median) can reach 0.15.  The logical
#: metrics (memory, outcomes, cost) spread by under 0.025.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("throughput_rps", "1/s", "higher", 0.25),
    ("submit_plain_p50_us", "us", "lower", 0.25),
    ("submit_plain_p90_us", "us", "lower", 0.25),
    ("submit_boundary_p50_ms", "ms", "lower", 0.25),
    ("submit_boundary_p75_ms", "ms", "lower", 0.25),
    ("recover_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("served_frac", "fraction", "higher", 0.05),
    ("coop_saving_pct", "%", "higher", 0.05),
    ("time_to_charge_p50_s", "s", "lower", 0.1),
    ("ok_frac", "fraction", "higher", 0.01),
]

#: ``(name, unit, better)`` for the traced run, grouped by layer.
PER_LAYER: List[Tuple[str, str, str]] = [
    # repro.service.journal
    ("journal.append.us", "us", "lower"),
    ("journal.append.p99_us", "us", "lower"),
    ("journal.records_per_req", "count", "lower"),
    ("journal.bytes_per_req", "bytes", "lower"),
    ("journal.share", "fraction", "lower"),
    # repro.service.snapshot
    ("snapshot.count", "count", "lower"),
    ("snapshot.write.ms", "ms", "lower"),
    ("snapshot.bytes", "bytes", "lower"),
    ("snapshot.share", "fraction", "lower"),
    ("journal.compacted_records", "count", "higher"),
    # recovery
    ("recover.journal_read.ms", "ms", "lower"),
    ("recover.snapshot_load.ms", "ms", "lower"),
    ("recover.replay.ms", "ms", "lower"),
    ("recover.records_replayed", "count", "lower"),
    ("recover.snapshot_used", "count", "higher"),
    # repro.service.plan
    ("plan.quote.calls_per_req", "count", "lower"),
    ("plan.quote.us", "us", "lower"),
    ("plan.quote.share", "fraction", "lower"),
    ("plan.add.us", "us", "lower"),
    ("plan.fold.ms", "ms", "lower"),
    ("plan.fold.batch", "count", "higher"),
    ("plan.fold.share", "fraction", "lower"),
    ("plan.remove.calls", "count", "lower"),
    ("plan.remove.us", "us", "lower"),
    ("plan.retire.us", "us", "lower"),
    ("plan.evacuate.calls", "count", "lower"),
    ("plan.edit.share", "fraction", "lower"),
    ("plan.insert_candidates_per_req", "count", "lower"),
    ("plan.scan_candidates_per_req", "count", "lower"),
    ("plan.moves", "count", "lower"),
    ("plan.repair_moves", "count", "lower"),
    # repro.service.admission
    ("admission.decide.us", "us", "lower"),
    ("admission.reject_frac", "fraction", "lower"),
    ("admission.share", "fraction", "lower"),
] + [(f"admission.rejected.{reason}", "count", "lower") for reason in REASONS] + [
    # repro.service.kernel
    ("kernel.submit.self_us", "us", "lower"),
    ("kernel.epoch.self_ms", "ms", "lower"),
    ("kernel.boundaries", "count", "higher"),
    ("kernel.share", "fraction", "lower"),
    # repro.shard.router and repro.shard.service
    ("router.route.us", "us", "lower"),
    ("router.border_frac", "fraction", "lower"),
    ("router.quotes_per_route", "count", "lower"),
    ("router.share", "fraction", "lower"),
    ("shard.facade.self_us", "us", "lower"),
    ("shard.facade.share", "fraction", "lower"),
    ("shard.busy_max_over_mean", "ratio", "lower"),
    # the trace itself
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json(workloads: List[Tuple[str, str]], run_seconds: int) -> str:
    """The text of ``BENCHMARK.json`` for *workloads* (``(name, why)`` pairs)."""
    doc = {
        "command": ["python3", "benchmarks/servicebench/run.py"],
        "paths": ["benchmarks/servicebench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
