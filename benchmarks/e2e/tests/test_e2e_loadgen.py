"""Open-loop timing and the service request mix."""

import collections

from workloads import service


class FakeClock:
    """A clock that only moves when the code under test sleeps or works."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def _requests(count, period):
    return [{"due": index * period} for index in range(count)]


def test_a_slow_server_makes_later_requests_late_and_slow():
    clock = FakeClock()

    def slow_send(request, due):
        clock.now += 0.030  # each reply takes 30 ms
        return True

    # Due every 10 ms, served in 30 ms: each request starts 20 ms later
    # than the one before it relative to its schedule.
    start, records = service.open_loop(_requests(5, 0.010), slow_send,
                                       clock=clock, sleep=clock.sleep)
    assert start == 100.0
    for index, (latency, lateness, ok) in enumerate(records):
        assert ok
        assert abs(lateness - 0.020 * index) < 1e-9
        assert abs(latency - (0.020 * index + 0.030)) < 1e-9


def test_a_fast_server_sees_the_schedule():
    clock = FakeClock()
    sent_at = []

    def fast_send(request, due):
        sent_at.append(clock())
        clock.now += 0.001
        return request["due"] != 0.02  # one refused request

    _, records = service.open_loop(_requests(4, 0.010), fast_send,
                                   clock=clock, sleep=clock.sleep)
    assert [round(t - 100.0, 9) for t in sent_at] == [0.0, 0.01, 0.02, 0.03]
    assert [round(latency, 9) for latency, _, _ in records] == [0.001] * 4
    assert [lateness for _, lateness, _ in records] == [0.0] * 4
    assert [ok for _, _, ok in records] == [True, True, False, True]


def test_the_idle_hook_runs_before_each_request_the_generator_is_early_for():
    clock = FakeClock()
    idle_at = []

    def send(request, due):
        clock.now += 0.015 if request["due"] == 0.01 else 0.001
        return True

    # Request 0 is due at once, request 1 leaves time for the hook, and
    # request 2 is already late when request 1 returns.
    service.open_loop(_requests(3, 0.010), send, clock=clock,
                      sleep=clock.sleep, idle=lambda: idle_at.append(clock()))
    assert [round(t - 100.0, 9) for t in idle_at] == [
        round(0.010 - service.SAMPLE_LEAD_S, 9)]


def test_the_request_mix_follows_its_shares_and_targets_earlier_jobs():
    requests = service.plan(seed=3, seconds=200.0)
    assert len(requests) == 20000
    assert [request["kind"] == "cold" for request in requests] == [
        index % service.COLD_EVERY == 0 for index in range(len(requests))]
    kinds = collections.Counter(request["kind"] for request in requests)
    assert abs(kinds["duplicate"] / len(requests) - 0.60) < 0.02
    assert abs(kinds["fetch"] / len(requests) - 0.30) < 0.02
    colds = 0
    for request in requests:
        if request["kind"] == "cold":
            assert request["target"] == colds
            colds += 1
        else:
            assert request["target"] < colds
        assert request["seed"] == service.cold_seed(3, request["target"])
