"""Tiny runs of every workload: every metric present, the gate passes."""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.numeric import is_exact_zero
from repro.service.kernel import ChargingService
from servicebench.bench import run
from servicebench.catalog import END_TO_END, PER_LAYER
from servicebench.spans import Tracer, installed

ROOT = Path(__file__).resolve().parents[3]


@pytest.mark.parametrize("workload", ["durable", "dense", "sharded_chaos", "durable_fsync"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(workload, trace, tmp_path):
    out = io.StringIO()
    code = run(workload, seed=7, seconds=0.0, trace=trace, scale=0.04, probes=1,
               strict=False, out=out, work=tmp_path)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    names = [n for n, *_ in (PER_LAYER if trace else END_TO_END)]
    assert list(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and metric["unit"]
    report = json.loads((tmp_path / f"report-{workload}-s7-t{int(trace)}.json").read_text())
    assert report["host"]["nproc"] >= 1 and report["params"]["name"] == workload
    if trace:
        assert (tmp_path / f"spans-{workload}-s7-t1.jsonl").stat().st_size > 0
        ledger = result["metrics"]
        # Self times cover the traced wall time up to the feeding loop itself.
        assert 0.8 < ledger["trace.coverage"]["value"] <= 1.0
        if workload == "dense":
            for layer in ("journal", "snapshot", "router"):
                assert is_exact_zero(ledger[f"{layer}.share"]["value"])
        if workload == "sharded_chaos":
            assert ledger["router.route.us"]["value"] > 0
            assert ledger["recover.snapshot_used"]["value"] == 0


def test_tracing_restores_the_methods():
    original = ChargingService.__dict__["submit"]
    recover = ChargingService.__dict__["recover"]
    with installed(Tracer()):
        assert ChargingService.__dict__["submit"] is not original
    assert ChargingService.__dict__["submit"] is original
    assert ChargingService.__dict__["recover"] is recover


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "servicebench", tmp_path / "benchmarks" / "servicebench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/servicebench/run.py", "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
