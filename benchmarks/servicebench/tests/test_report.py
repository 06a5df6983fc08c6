"""The percentile rule, self-time arithmetic and metric names."""

import json
from pathlib import Path

import pytest

from servicebench.catalog import END_TO_END, NAME_RE, PER_LAYER, benchmark_json
from servicebench.report import MIN_BEYOND, ShortTail, tail
from servicebench.spans import self_times
from servicebench.workloads import BENCHMARK_WORKLOADS, WORKLOADS

ROOT = Path(__file__).resolve().parents[3]


def test_tail_needs_ten_samples_beyond():
    samples = [float(v) for v in range(1, 101)]
    assert tail(samples, 0.90) == (90.0, 10)
    with pytest.raises(ShortTail):
        tail(samples[:99], 0.90)
    # Not strict: the short tail is returned as measured, with its count.
    assert tail(samples[:99], 0.90, strict=False) == (90.0, 9)
    assert tail([float(v) for v in range(1000)], 0.99) == (989.0, MIN_BEYOND)
    with pytest.raises(ShortTail):
        tail([], 0.5)


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, 0, 0.0]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("kernel.submit", 0.0, 10.0, -1),   # 0
        _span("plan.quote", 1.0, 3.0, 0),         # 1
        _span("journal.append", 2.0, 5.0, 0),     # 2 overlaps 1: union is [1, 5]
        _span("journal.write", 3.0, 4.0, 2),      # 3
        _span("plan.fold", 9.0, 12.0, 0),         # 4 runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 2.0, 2.0, 1.0, 3.0])
    # Self times partition the root span when children nest properly.
    nested = spans[:2] + [_span("journal.append", 4.0, 6.0, 0)]
    assert sum(self_times(nested)) == pytest.approx(10.0)


def test_metric_names_and_units_are_well_formed():
    names = [n for n, *_ in END_TO_END] + [n for n, *_ in PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64
    bounds = {n: bound for n, _u, _b, bound in END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_benchmark_json_matches_the_catalog():
    text = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    from servicebench.run import RUN_SECONDS

    expected = benchmark_json([(name, WORKLOADS[name].why) for name in BENCHMARK_WORKLOADS],
                              RUN_SECONDS)
    assert text == expected
    doc = json.loads(text)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
