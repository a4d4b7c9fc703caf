"""Grants are immutable, so arbiters may hand out one instance per master."""

import pickle
import random

import pytest

from repro.arbiters.registry import available_arbiters, make_arbiter
from repro.bus.bus import SharedBus
from repro.bus.master import MasterInterface
from repro.bus.transaction import Grant
from repro.faults import FaultInjector, FaultPlan

# Arbiters whose grant carries a per-round word count allocate each one.
ALLOCATING = {"weighted-rr"}


def test_grant_assignment_raises():
    grant = Grant(2, max_words=3)
    with pytest.raises(AttributeError):
        grant.master = 1
    with pytest.raises(AttributeError):
        grant.max_words = None
    with pytest.raises(AttributeError):
        del grant.master
    assert grant == Grant(2, max_words=3)


@pytest.mark.parametrize("grant", [Grant(0), Grant(3, max_words=1)])
def test_grant_survives_a_pickle_roundtrip(grant):
    restored = pickle.loads(pickle.dumps(grant, pickle.HIGHEST_PROTOCOL))
    assert restored == grant
    assert hash(restored) == hash(grant)
    assert (restored.master, restored.max_words) == (
        grant.master, grant.max_words
    )


def test_grant_still_validates():
    with pytest.raises(ValueError):
        Grant(-1)
    with pytest.raises(ValueError):
        Grant(0, max_words=0)


@pytest.mark.parametrize("name", available_arbiters())
def test_arbiter_grants_equal_fresh_grants(name):
    arbiter = make_arbiter(name, 4, [1, 2, 3, 4])
    draws = random.Random(7)
    seen = {}
    granted = 0
    for cycle in range(400):
        pending = [draws.choice((0, 0, 1, 5, 16)) for _ in range(4)]
        grant = arbiter.arbitrate(cycle, pending)
        if grant is None:
            continue
        granted += 1
        assert pending[grant.master] > 0
        if name == "tdma":
            assert grant == Grant(grant.master, max_words=1)
        elif name in ALLOCATING:
            assert 1 <= grant.max_words <= pending[grant.master]
            assert grant == Grant(grant.master, grant.max_words)
        else:
            assert grant == Grant(grant.master)
        if name not in ALLOCATING:
            # One shared instance per master.
            assert seen.setdefault(grant.master, grant) is grant
    assert granted > 0


def test_spurious_grant_is_a_new_grant_with_the_original_max_words():
    interfaces = [MasterInterface("m{}".format(i), i) for i in range(4)]
    bus = SharedBus("bus", interfaces, make_arbiter("tdma", 4, [1, 1, 1, 1]))
    injector = FaultInjector("faults", FaultPlan(grant_spurious_rate=1.0))
    injector.attach_bus(bus)
    pending = [4, 4, 4, 4]
    for cycle in range(20):
        grant = bus.arbiter.arbitrate(cycle, pending)
        spurious = injector.filter_grant(bus, grant, pending, cycle)
        assert spurious is not grant
        assert spurious.max_words == grant.max_words == 1
        assert 0 <= spurious.master < 4
        # The arbiter's shared instance is untouched.
        assert grant == Grant(grant.master, max_words=1)
    assert injector.stats.injected["grant_spurious"] == 20
