"""The test-bed :class:`Point`: value semantics, one rejection rule for
every entry point, and a compensated quantum that follows the point's
bus on the scalar and the vector-planned build alike."""

import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analytic import score_grid
from repro.arbiters.registry import _EXTRAS, available_arbiters, make_arbiter
from repro.experiments.sweep import run_sweep
from repro.experiments.system import Point, run_testbed
from repro.vector import UnsupportedConfigError, plan_lane, run_testbed_batch
from tests.strategies import points

WEIGHTS = (1, 2, 3, 4)


def test_points_compare_hash_and_pickle_by_value():
    point = Point("lottery-static", "T8", [1, 2, 3, 4], cycles=500, seed=7,
                  kwargs={"lfsr_seed": 3, "draw_policy": "rejection"})
    twin = Point("lottery-static", "T8", WEIGHTS, cycles=500, seed=7,
                 kwargs=[("draw_policy", "rejection"), ("lfsr_seed", 3)])
    assert point == twin and hash(point) == hash(twin)
    assert point.weights == WEIGHTS
    assert point.kwargs == (("draw_policy", "rejection"), ("lfsr_seed", 3))
    assert pickle.loads(pickle.dumps(point)) == point
    assert point != Point("lottery-static", "T8", WEIGHTS, cycles=500,
                          seed=7, max_burst=8,
                          kwargs=dict(point.kwargs))
    assert len({point, twin}) == 1


def test_points_are_immutable():
    point = Point("tdma", "T1", WEIGHTS)
    with pytest.raises(AttributeError):
        point.max_burst = 8
    with pytest.raises(AttributeError):
        del point.seed


def test_run_is_run_testbed():
    point = Point("lottery-dynamic", "T9", WEIGHTS, cycles=600, seed=4,
                  warmup=50, max_burst=8, kwargs={"lfsr_seed": 9})
    direct = run_testbed("lottery-dynamic", "T9", list(WEIGHTS), cycles=600,
                         seed=4, warmup=50, max_burst=8, lfsr_seed=9)
    assert point.run().summary == direct.summary


INVALID = {
    "unknown arbiter": dict(arbiter="bogus"),
    "unknown traffic class": dict(traffic="T99"),
    "unknown registry kwarg": dict(kwargs={"bogus": 1}),
    "negative warmup": dict(warmup=-1),
}


@pytest.mark.parametrize("change", INVALID.values(), ids=list(INVALID))
def test_entry_points_reject_alike(change):
    args = dict(arbiter="lottery-static", traffic="T8", warmup=0, kwargs={})
    args.update(change)
    arbiter, traffic, warmup, kwargs = (
        args["arbiter"], args["traffic"], args["warmup"], args["kwargs"]
    )

    def point():
        return Point(arbiter, traffic, WEIGHTS, cycles=100, warmup=warmup,
                     kwargs=kwargs)

    calls = {
        "Point": point,
        "run_testbed": lambda: run_testbed(
            arbiter, traffic, list(WEIGHTS), cycles=100, warmup=warmup,
            **kwargs
        ),
        "run_testbed_batch": lambda: run_testbed_batch([point()]),
        "run_sweep": lambda: run_sweep(
            [arbiter], [traffic], weights=WEIGHTS, cycles=100,
            warmup=warmup, arbiter_kwargs={arbiter: kwargs},
        ),
        "score_grid": lambda: score_grid([point()]),
    }
    raised = {}
    for name, call in calls.items():
        with pytest.raises(Exception) as info:
            call()
        raised[name] = type(info.value)
    assert set(raised.values()) == {ValueError}, raised


SAMPLE_EXTRAS = {
    "reclaim": "single",
    "hold_limit": 4,
    "random_source": None,
    "scale": False,
    "minimum_total": None,
    "draw_policy": "rejection",
    "lfsr_seed": 3,
    "ticket_bits": 8,
    "max_burst": 8,
    "cap": 255,
    "quantum_scale": 2,
}


@pytest.mark.parametrize("name", available_arbiters())
def test_points_reject_exactly_the_extras_the_registry_rejects(name):
    for extra in _EXTRAS[name]:
        extras = {extra: SAMPLE_EXTRAS[extra]}
        make_arbiter(name, 4, list(WEIGHTS), **extras)
        Point(name, "T8", WEIGHTS, kwargs=extras).build()
    with pytest.raises(ValueError):
        make_arbiter(name, 4, list(WEIGHTS), bogus=1)
    with pytest.raises(ValueError):
        Point(name, "T8", WEIGHTS, kwargs={"bogus": 1})


def _quanta(arbiter):
    return arbiter.max_burst, arbiter.manager.policy.max_burst


@settings(max_examples=25, deadline=None)
@given(point=points(arbiter=st.just("lottery-compensated")))
def test_compensated_quantum_follows_the_point_bus(point):
    _, bus = point.build()
    assert bus.max_burst == point.max_burst
    assert _quanta(bus.arbiter) == (point.max_burst, point.max_burst)
    try:
        plan = plan_lane(point.build)
    except UnsupportedConfigError:
        assume(False)
    assert plan.max_burst == point.max_burst
    assert plan.profile["arbiter_max_burst"] == point.max_burst
    assert plan.profile["policy_max_burst"] == point.max_burst
