"""Put ``src/`` and ``benchmarks/`` on the path, as ``run.py`` does."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "benchmarks"), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
