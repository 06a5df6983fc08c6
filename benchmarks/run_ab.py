"""A/B-compare two revisions on one service-benchmark workload.

    python benchmarks/run_ab.py --base <rev> [--head <rev>] --workload dense [--pairs 3]

(or ``make bench-ab BASE=<rev> WORKLOAD=<name> PAIRS=3``).  Both revisions
are checked out as detached ``git worktree``s side by side under one
temporary directory, so they run from the same kind of location, and
``benchmarks/servicebench/run.py --trace 0`` is alternated between them
(``base, head`` on even pairs, ``head, base`` on odd ones) with
``run.py``'s own default seed and run length.  For every end-to-end
metric ``BENCHMARK.json`` lists it prints each side's median, the number
of pairs in which head did better (in the metric's ``better`` direction)
and the distance between the quartiles of base's runs.  Exits nonzero if
any run fails or reports ``correct: false``.  The worktrees are removed
afterwards; set ``TMPDIR`` to choose where they go.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
RUNNER = Path("benchmarks") / "servicebench" / "run.py"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _run(tree: Path, workload: str) -> Dict[str, float]:
    """One benchmark run in worktree *tree*; returns its metric values."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run in {tree.name} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise SystemExit(f"run in {tree.name} reports correct: false")
    return {name: float(m["value"]) for name, m in result["metrics"].items()}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="baseline revision")
    parser.add_argument("--head", default="HEAD", help="revision under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    revs = {"base": _git("rev-parse", args.base), "head": _git("rev-parse", args.head)}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    tmp = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    trees = {side: tmp / side for side in revs}
    samples: Dict[str, List[Dict[str, float]]] = {side: [] for side in revs}
    try:
        for side, rev in revs.items():
            _git("worktree", "add", "--detach", str(trees[side]), rev)
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                samples[side].append(_run(trees[side], args.workload))
                print(f"pair {pair + 1}/{args.pairs}: {side} done", file=sys.stderr)
    finally:
        for tree in trees.values():
            if tree.exists():
                _git("worktree", "remove", "--force", str(tree))
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{args.workload}: base {revs['base'][:10]} vs head {revs['head'][:10]}, "
          f"medians of {args.pairs} interleaved runs each")
    print(f"  {'metric':<26}{'base':>14}{'head':>14}{'change':>10}"
          f"{'head wins':>11}{'base IQR':>12}")
    for name, direction in better.items():
        base_runs = [s[name] for s in samples["base"]]
        head_runs = [s[name] for s in samples["head"]]
        base, head = statistics.median(base_runs), statistics.median(head_runs)
        change = f"{(head - base) / base:+.1%}" if base else "-"
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (h - b) > 0 for b, h in zip(base_runs, head_runs))
        if len(base_runs) > 1:
            q1, _, q3 = statistics.quantiles(base_runs, n=4, method="inclusive")
            iqr = f"{q3 - q1:.6g}"
        else:
            iqr = "-"
        print(f"  {name:<26}{base:>14.6g}{head:>14.6g}{change:>10}"
              f"{f'{wins}/{args.pairs}':>11}{iqr:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
