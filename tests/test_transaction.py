"""Tests for Request and Grant."""

import pytest

from repro.bus.transaction import Grant, Request


def test_request_initial_state():
    request = Request(2, 8, 100, slave=1, tag="x")
    assert request.remaining == 8
    assert not request.complete
    assert request.first_grant_cycle is None
    assert request.tag == "x"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"master": -1, "words": 4, "arrival_cycle": 0},
        {"master": 0, "words": 0, "arrival_cycle": 0},
        {"master": 0, "words": 4, "arrival_cycle": -1},
    ],
)
def test_request_validation(kwargs):
    with pytest.raises(ValueError):
        Request(**kwargs)


def test_back_to_back_service_scores_one_cycle_per_word():
    request = Request(0, 4, 10)
    request.first_grant_cycle = 10
    request.remaining -= 4  # words at cycles 10-13, back to back
    request.completion_cycle = 13
    assert request.complete
    assert request.latency_cycles == 4
    assert request.latency_per_word == 1.0
    assert request.latency_cycles == request.words
    assert request.wait_cycles == 0


def test_interleaved_service_charges_gaps():
    request = Request(0, 2, 0)
    request.first_grant_cycle = 3
    request.remaining -= 2  # words at cycles 3 and 9
    request.completion_cycle = 9
    assert request.complete
    # Word 1 waited 3 cycles then moved (4); word 2 sat through a
    # 5-cycle gap (6): the per-word charges sum to the message latency.
    assert request.latency_cycles == 10
    assert request.latency_cycles == 4 + 6
    assert request.wait_cycles == 3


def test_latency_unavailable_before_completion():
    request = Request(0, 2, 0)
    with pytest.raises(ValueError):
        request.latency_cycles
    with pytest.raises(ValueError):
        request.wait_cycles


def test_grant_equality_and_validation():
    assert Grant(1) == Grant(1)
    assert Grant(1, 4) != Grant(1)
    assert len({Grant(2, 3), Grant(2, 3)}) == 1
    with pytest.raises(ValueError):
        Grant(-1)
    with pytest.raises(ValueError):
        Grant(0, 0)
