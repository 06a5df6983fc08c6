"""The host-speed reference: factor arithmetic, top-up and the timer."""

import signal
import time

import pytest

from servicebench import speed
from servicebench.speed import MIN_SAMPLES, NOMINAL_S, HostSpeed, factor


def test_factor_is_nominal_over_the_median():
    assert factor([NOMINAL_S]) == pytest.approx(1.0)
    assert factor([3 * NOMINAL_S, NOMINAL_S, 2 * NOMINAL_S]) == pytest.approx(0.5)
    # Even count: the mean of the middle two.
    assert factor([NOMINAL_S, 3 * NOMINAL_S]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        factor([])


def test_factor_since_tops_a_short_interval_up():
    hs = HostSpeed()
    assert hs.factor_since(0) > 0
    assert len(hs.samples) == MIN_SAMPLES
    # Samples already there are used, not replaced.
    hs.factor_since(0, least=MIN_SAMPLES + 2)
    assert len(hs.samples) == MIN_SAMPLES + 2


def test_the_chase_visits_every_table_entry():
    seen, i = set(), 0
    for _ in range(speed.TABLE_SIZE):
        seen.add(i)
        i = speed._TABLE[i]
    assert len(seen) == speed.TABLE_SIZE and i == 0


def test_sampling_runs_on_the_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    hs = HostSpeed()
    with hs.sampling():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(hs.samples) >= 5
    assert hs.spent >= sum(hs.samples)
