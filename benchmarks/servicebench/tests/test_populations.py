"""The population classifier: plain, boundary (incl. exactly on k*epoch), snapshot."""

from repro.geometry import Point
from repro.service import ChargingRequest, ChargingService, ServiceConfig
from repro.core import Device
from repro.wpt import Charger

from servicebench.harness import BOUNDARY, PLAIN, SNAPSHOT, classify


def _request(k: int, t: float) -> ChargingRequest:
    return ChargingRequest(
        request_id=f"r{k:06d}",
        device=Device(device_id=f"d{k:06d}", position=Point(10.0 + k, 20.0), demand=20e3,
                      moving_rate=0.05),
        submitted_at=t,
    )


def _fed(service, k, t, snapshots=lambda: 0):
    before, snaps = [service.clock.now], snapshots()
    service.submit(_request(k, t))
    return classify(before, [service.clock.now], service.config.epoch, snaps, snapshots())


def test_pure_cases():
    assert classify([10.0], [20.0], 60.0, 0, 0) == PLAIN
    assert classify([59.0], [61.0], 60.0, 0, 0) == BOUNDARY
    assert classify([59.0], [60.0], 60.0, 0, 0) == BOUNDARY
    assert classify([60.0], [70.0], 60.0, 0, 0) == PLAIN
    assert classify([59.0], [61.0], 60.0, 3, 4) == SNAPSHOT
    # Only the kernel whose clock moved decides, whichever shard it is.
    assert classify([10.0, 59.0], [10.0, 61.0], 60.0, 0, 0) == BOUNDARY


def test_submit_exactly_on_a_boundary_crosses_it():
    service = ChargingService([Charger(charger_id="c0", position=Point(50.0, 50.0))],
                              config=ServiceConfig())
    assert _fed(service, 0, 10.0) == PLAIN
    assert _fed(service, 1, 60.0) == BOUNDARY
    # The boundary at 60 s was run by that submit; the next one is plain.
    assert _fed(service, 2, 60.0) == PLAIN
    assert _fed(service, 3, 180.0) == BOUNDARY


def test_snapshot_writing_submit(tmp_path):
    service = ChargingService([Charger(charger_id="c0", position=Point(50.0, 50.0))],
                              config=ServiceConfig(), journal_path=tmp_path / "j.jsonl",
                              journal_sync=False, snapshot_every=5)

    def snapshots():
        return service.observability_snapshot()["counters"]["snapshots_written"]

    seen = [_fed(service, k, 5.0 * k + 1.0, snapshots) for k in range(20)]
    service.journal.close()
    assert SNAPSHOT in seen and PLAIN in seen
    # The submit at 61 s crosses the 60 s boundary and its fold's records
    # trigger a snapshot: the snapshot population wins.
    assert seen[12] == SNAPSHOT
    # The harness reads the same counter without building the snapshot.
    assert service.metrics.counter("snapshots_written", operational=True).value == snapshots()
