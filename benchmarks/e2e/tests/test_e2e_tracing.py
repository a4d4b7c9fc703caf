"""Self-time arithmetic, span attribution and timer pass-through."""

import pytest

import harness
from repro.bus.bus import SharedBus
from repro.experiments.system import run_testbed
from tracing import Span, Tracer, self_times
from workloads import bus


@pytest.fixture(scope="module")
def costs():
    # Calibration takes a moment; one measurement serves the module.
    return Tracer().cost


@pytest.fixture
def tracer(costs):
    return Tracer(cost=costs)


def _span(wall, cells):
    span = Span(1, None, "op", {})
    span.start, span.end = 0, wall
    span.cells = {(layer, "m"): list(cell) for layer, cell in cells.items()}
    return span


# kernel -> {bus -> arbiter, generator}; cells [calls, raw, child, c_self,
# c_full] with c_self = 10 ns and c_full = 30 ns per call.
PARENTS = {"kernel": None, "bus": "kernel", "generator": "kernel",
           "arbiter": "bus"}
CELLS = {
    "kernel": [1, 9000, 0, 10, 30],
    "bus": [10, 5000, 0, 10, 30],
    "generator": [20, 2000, 0, 10, 30],
    "arbiter": [5, 1000, 0, 10, 30],
}


def test_self_time_is_net_time_minus_children_and_their_timer_cost(tracer):
    span = _span(10_000, CELLS)
    tracer.spans = [span]
    totals = tracer.totals([span], PARENTS)
    selfs = {layer: s * 1e9 for layer, s in self_times(totals).items()}
    # net = raw - calls * c_self; child = sum(child net + calls * c_full)
    assert selfs["arbiter"] == pytest.approx(1000 - 50)
    assert selfs["generator"] == pytest.approx(2000 - 200)
    assert selfs["bus"] == pytest.approx((5000 - 100) - (950 + 150))
    assert selfs["kernel"] == pytest.approx(
        (9000 - 10) - (4900 + 300) - (1800 + 600))
    assert tracer.span_self_ns(span, PARENTS) == pytest.approx(
        10_000 - (8990 + 30))
    # Self times, the span's own time and the timer cost add up to the
    # span's wall time exactly.
    cost = sum(total[3] for total in totals.values())
    assert sum(selfs.values()) + tracer.span_self_ns(span, PARENTS) + cost \
        == pytest.approx(10_000)


def test_threaded_timers_nest_dynamically(tracer):
    class Service:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    service = Service()
    tracer.time_calls(service, "outer", "outer")
    tracer.time_calls(service, "inner", "inner")
    with tracer.span("request") as span:
        assert service.outer() == 2
    tracer.uninstall()
    assert "outer" not in vars(service) and "inner" not in vars(service)
    outer = span.cells[("outer", "outer")]
    inner = span.cells[("inner", "inner")]
    assert (outer[0], inner[0]) == (1, 2)
    assert outer[2] >= inner[1]  # the children's time is the outer's child
    assert span.frames == [outer[1] + outer[4]]


def test_spans_take_their_own_share_of_class_timer_counts(tracer):
    class Ticker:
        def tick(self, cycle):
            return cycle

    ticker = Ticker()
    tracer.time_method(Ticker, "tick", "ticker")
    with tracer.span("first") as first:
        for cycle in range(3):
            ticker.tick(cycle)
    with tracer.span("second") as second:
        ticker.tick(0)
    tracer.uninstall()
    assert first.cells[("ticker", "Ticker.tick")][0] == 3
    assert second.cells[("ticker", "Ticker.tick")][0] == 1
    assert "tick" in vars(Ticker)  # restored to the original function
    assert Ticker.tick.__name__ == "tick"


def test_timers_pass_results_through_unchanged(tracer):
    def summary():
        return run_testbed("lottery-compensated", "T1", [1, 2, 3, 4],
                           cycles=2000, seed=3, lfsr_seed=5).summary

    untraced = harness.digest(summary())
    original_tick = SharedBus.tick
    for cls, attr, layer in bus.timed_methods(bus.SATURATED, 1):
        tracer.time_method(cls, attr, layer)
    try:
        with tracer.span("op") as span:
            traced = harness.digest(summary())
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert SharedBus.tick is original_tick
    calls = {layer: cell[0] for (layer, _), cell in span.cells.items()}
    assert calls["bus"] == 2000
    assert calls["sim.kernel"] == 1
    assert calls["core.lottery_manager"] > 0
