"""Service benchmark entry point.

    python3 benchmarks/servicebench/run.py --workload {durable,dense,sharded_chaos,durable_fsync} \\
        --seed 42 --seconds 8 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ledger; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every correctness check passed.
``--write-benchmark-json`` regenerates ``BENCHMARK.json`` from
``catalog.py`` here.  See ``README.md`` here.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Seconds one driver run measures; written into BENCHMARK.json.
RUN_SECONDS = 8


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("durable", "dense", "sharded_chaos", "durable_fsync"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servicebench: no repro package under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    if sys.path and Path(sys.path[0] or ".").resolve() == HERE:
        sys.path.pop(0)
    sys.path[0:0] = [str(ROOT / "src"), str(HERE.parent)]
    if args.write_benchmark_json:
        from servicebench.catalog import benchmark_json
        from servicebench.workloads import BENCHMARK_WORKLOADS, WORKLOADS

        text = benchmark_json([(name, WORKLOADS[name].why) for name in BENCHMARK_WORKLOADS],
                              RUN_SECONDS)
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    from servicebench.bench import run

    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
