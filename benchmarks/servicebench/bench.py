"""One benchmark run: set-up probes, timed repeats, metrics and the gate.

A run generates the workload's inputs from the seed, times the service's
set-up in fresh interpreters, warms up on a prefix of the stream, then
repeats the whole stream until ``--seconds`` have passed (at least twice,
so outputs can be compared across repeats), and finally times recovery
from the journals the last repeat left.  With ``--trace 1`` every
second repeat is traced and the run reports the per-layer ledger instead
of the end-to-end metrics.  Without tracing, the reference unit of
:mod:`servicebench.speed` is sampled while repeats and recoveries run,
and the end-to-end timings are reported at reference host speed.

Every repeat passes the correctness gate of :mod:`servicebench.harness`;
on top, all repeats (traced or not) must produce the same output digest.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple

from .catalog import END_TO_END, PER_LAYER, UNITS
from .harness import BOUNDARY, PLAIN, SNAPSHOT, Repeat, replay, run_repeat
from .report import ShortTail, end_to_end, per_layer, tail
from .spans import write_spans
from .speed import HostSpeed
from .workloads import WORKLOADS, Workload, timeline

__all__ = ["HERE", "ROOT", "WORK", "run"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: Scratch space for journals, reports and span dumps (ignored by git).
WORK = HERE / "_work"
#: Inputs fed to a throwaway service before anything is timed.
WARMUP_INPUTS = 400


def setup_probe(w: Workload, first: Dict[str, Any], workdir: Path) -> Tuple[float, float]:
    """Seconds from ``import repro`` to the first accepted input, in a fresh
    process, and that process's host-speed factor."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"),
         w.name, str(workdir), json.dumps(first)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    elapsed, factor = done.stdout.strip().splitlines()[-1].split()
    return float(elapsed), float(factor)


def _command(args: List[str], cwd: Path) -> Optional[str]:
    try:
        done = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_info(workdir: Path) -> Dict[str, Any]:
    """The host facts a reader needs to compare two runs."""
    import numpy

    commit = _command(["git", "rev-parse", "HEAD"], ROOT) if (ROOT / ".git").exists() else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        # What fsync costs depends on the filesystem the journals live on.
        "journal_fs": _command(["stat", "-f", "-c", "%T", str(workdir)], workdir),
        "platform": platform.platform(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    probes: int = 7,
    strict: bool = True,
    out: TextIO = sys.stdout,
    work: Path = WORK,
) -> int:
    """Run the benchmark once; print the report and the result line.

    *strict* enforces the percentile rule (a short tail ends the run);
    smoke runs turn it off.  Journals, the report and the span dump go
    under *work*.  Returns the exit code: 0 when every check passed, 1
    when any failed, 3 when a tail percentile lacked samples (no result
    line then).
    """
    w = WORKLOADS[workload].scaled(scale)
    workdir = work / f"{w.name}-s{seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(w, seed, seconds, trace, probes, strict, workdir, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(w: Workload, seed: int, seconds: float, trace: bool, probes: int, strict: bool,
         workdir: Path, out: TextIO) -> int:
    work = workdir.parent
    stream0 = timeline(w, seed, 0)
    first = next(payload for tag, _t, payload in stream0 if tag == "submit")
    setup = [setup_probe(w, first.to_dict(), workdir / f"probe{k}") for k in range(probes)]
    warm = run_repeat(w, stream0[:WARMUP_INPUTS], workdir / "run")
    speed = None if trace else HostSpeed()
    repeats: List[Repeat] = []
    items = stream0
    deadline = time.perf_counter() + seconds
    # Untraced repeats each feed their own stream.  A traced run feeds every
    # stream twice, untraced then traced, and ends on a traced repeat.  An
    # untraced run goes on until it has its workload's boundary floor.
    while (len(repeats) < 2 or time.perf_counter() < deadline
           or (trace and not repeats[-1].traced)
           or (strict and not trace
               and sum(len(r.latency[BOUNDARY]) for r in repeats) < w.min_boundary)):
        k = len(repeats)
        traced = trace and k % 2 == 1
        if k and not traced:
            items = timeline(w, seed, k // 2 if trace else k)
        # Stream 0's first pass keeps its journals: a workload recovered
        # only after the drain is recovered from them.
        where = workdir / ("stream0" if k == 0 else "run")
        repeats.append(run_repeat(w, items, where, traced=traced, keep=k == 0, speed=speed))
    replayed = replay(w, stream0, workdir / "stream0", traced=trace, speed=speed)

    failures = [f"warm-up: {f}" for f in warm.failures + warm.errors]
    for k, rep in enumerate(repeats):
        failures += [f"repeat {k}: {f}" for f in rep.failures + rep.errors]
    failures += [f"replay: {f}" for f in replayed.failures + replayed.errors]
    attempted = warm.n_inputs + sum(rep.n_inputs for rep in repeats) + replayed.n_inputs
    failed = warm.failed + sum(rep.failed for rep in repeats) + replayed.failed
    # Every pass over one stream must give the same outputs: the replay
    # (through its crashes, or the recovery alone) and, in a traced run,
    # each traced repeat.
    passes = [("replay of stream 0", replayed.digest, repeats[0].digest)]
    passes += [(f"traced repeat {k}", repeats[k].digest, repeats[k - 1].digest)
               for k in range(1, len(repeats)) if repeats[k].traced]
    for label, got, want in passes:
        if got != want:
            failures.append(f"{label}: outputs differ from the untraced pass ({got} != {want})")
            failed += 1
    untraced = [rep for rep in repeats if not rep.traced]
    traced_reps = [rep for rep in repeats if rep.traced]
    as_measured: Dict[str, float] = {}
    try:
        if trace:
            metrics = per_layer(repeats, replayed)
            names = [name for name, *_ in PER_LAYER]
        else:
            metrics = end_to_end(untraced, replayed, setup, _peak_rss_mb(), attempted, failed,
                                 strict, rounds=w.recoveries)
            names = [name for name, *_ in END_TO_END]
            raw = end_to_end(untraced, replayed, setup, _peak_rss_mb(), attempted, failed,
                             strict, scaled=False, rounds=w.recoveries)
            as_measured = {name: value for name, (value, _n) in raw.items()
                           if value != metrics[name][0]}
    except ShortTail as exc:
        print(f"servicebench: {w.name}: {exc}; run more requests", file=sys.stderr)
        return 3
    correct = not failures and failed == 0

    population_counts = {
        pop: sum(len(rep.latency[pop]) for rep in untraced or repeats)
        for pop in (PLAIN, BOUNDARY, SNAPSHOT)
    }
    report = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": w.params(),
        "host": host_info(workdir),
        "load_model": "closed loop, one in-process caller, one thread",
        "repeats": len(repeats),
        "traced_repeats": len(traced_reps),
        "submit_populations": population_counts,
        "recover_s_per_crash_point": replayed.recover_s,
        # Host-speed factors (speed.py) of the repeats and recoveries, and
        # the scaled timings as measured, before the factors were applied.
        "speed_factors": {"repeats": [rep.speed for rep in untraced],
                          "recoveries": replayed.speed,
                          "setup_probes": [f for _s, f in setup]},
        "as_measured": as_measured,
        # Not gated: on a shared host these tails measure neighbours'
        # interference as much as the service (README.md).  As measured.
        "submit_plain_p99_us": tail(
            [dt for r in untraced or repeats for dt in r.latency[PLAIN]], 0.99, strict=False
        )[0] * 1e6,
        "submit_boundary_p90_ms": tail(
            [dt for r in untraced or repeats for dt in r.latency[BOUNDARY]] or [0.0], 0.90,
            strict=False)[0] * 1e3,
        "stream0_digest": repeats[0].digest,
        "failures": failures,
        "metrics": {name: {"value": metrics[name][0], "unit": UNITS[name],
                           "samples": metrics[name][1]} for name in names},
    }
    stem = f"{w.name}-s{seed}-t{int(trace)}"
    (work / f"report-{stem}.json").write_text(json.dumps(report, indent=2) + "\n",
                                              encoding="utf-8")
    if traced_reps:
        # The last traced repeat and every traced recovery.
        with open(work / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            write_spans(fh, traced_reps[-1].spans, {"phase": "live"})
            for k, spans in enumerate(replayed.spans):
                write_spans(fh, spans, {"phase": "recover", "crash": k})

    print(f"servicebench {w.name} seed={seed} trace={int(trace)} repeats={len(repeats)} "
          f"host={json.dumps(report['host'], sort_keys=True)}", file=out)
    print(f"params {json.dumps(report['params'], sort_keys=True)}", file=out)
    print(f"submit populations {population_counts}", file=out)
    for name in names:
        value, samples = metrics[name]
        measured = (f"  (as measured {as_measured[name]:.6g})" if name in as_measured else "")
        print(f"  {name:34s} {value:14.6g} {UNITS[name]:9s} n={samples}{measured}", file=out)
    for failure in failures:
        print(f"FAILED {failure}", file=out)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": UNITS[name]} for name in names},
    }
    print(json.dumps(result), file=out)
    return 0 if correct else 1
