"""Set-up probe: seconds from importing repro to the first accepted input.

``python3 benchmarks/servicebench/probe.py WORKLOAD WORKDIR FIRST_REQUEST_JSON`` runs
in a fresh interpreter (the benchmark starts several and reports the
median), so module imports are paid in full every time.  Prints the
elapsed seconds and the host-speed factor (reference units timed just
before and just after, see ``speed.py``) as its last line.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: Reference units run and dropped first, while the interpreter warms up:
#: enough to pass once through the whole table.
WARM_UNITS = 240
#: Reference units timed before, and as many after, the timed part.
PROBE_UNITS = 40


def main(argv: list) -> int:
    workload, workdir, first = argv
    sys.path[0:1] = [str(ROOT / "src"), str(HERE.parent)]
    from servicebench.speed import HostSpeed

    # The first reference units warm the interpreter up and are dropped;
    # the factor rests on the next ones and as many after the timed part.
    speed = HostSpeed()
    speed.factor_since(0, least=WARM_UNITS + PROBE_UNITS)
    # Timed from here: importing repro is part of set-up.
    start = time.perf_counter()
    from repro.service.request import ChargingRequest
    from servicebench.workloads import WORKLOADS, close_service, open_service

    service = open_service(WORKLOADS[workload], Path(workdir))
    service.submit(ChargingRequest.from_dict(json.loads(first)))
    elapsed = time.perf_counter() - start
    factor = speed.factor_since(WARM_UNITS, least=2 * PROBE_UNITS)
    close_service(service)
    print(repr(elapsed), repr(factor))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
