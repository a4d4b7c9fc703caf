"""Host time scaled by the reference loop's speed."""

import signal
import time

import pytest

from hostclock import REFERENCE_NOMINAL_S as NOMINAL
from hostclock import HostClock


def _clock(samples, window=0.05):
    """A clock holding ``(start, reference seconds)`` samples."""
    clock = HostClock(window=window)
    for start, seconds in samples:
        clock.starts.append(start)
        clock.ends.append(start + seconds)
    return clock


def test_a_host_at_half_speed_reads_at_nominal_speed():
    clock = _clock([(0.0, 2 * NOMINAL), (1.0, 2 * NOMINAL)])
    assert clock.scaled(0.1, 0.9) == pytest.approx(0.4)


def test_a_sample_inside_the_interval_is_taken_out_and_sets_the_speed():
    clock = _clock([(0.0, NOMINAL), (0.5, 4 * NOMINAL), (10.0, NOMINAL)])
    # Only the sample at 0.5 lies within 50 ms of [0.2, 1.0].
    assert clock.scaled(0.2, 1.0) == pytest.approx((0.8 - 4 * NOMINAL) / 4)


def test_an_interval_far_from_samples_takes_the_nearest_on_each_side():
    clock = _clock([(0.0, NOMINAL), (2.0, 3 * NOMINAL)])
    # Mean speed of the two: (1 + 1/3) / 2 of nominal.
    assert clock.scaled(1.0, 1.001) == pytest.approx(0.001 * 2 / 3)


def test_scaling_needs_a_sample():
    with pytest.raises(ValueError):
        HostClock().scaled(0.0, 1.0)


def test_sampling_takes_timed_samples_and_restores_the_signal_state():
    previous = signal.getsignal(signal.SIGALRM)
    clock = HostClock(period=0.005)
    with clock.sampling():
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.starts) >= 5
    assert clock.starts == sorted(clock.starts)
    assert all(end > start for start, end in zip(clock.starts, clock.ends))
