"""Tests for the master-side bus interface."""

from repro.bus.master import MasterInterface


def test_submit_and_head():
    interface = MasterInterface("m", 0)
    request = interface.submit(4, 10)
    assert interface.has_request
    assert interface.queue_depth == 1
    assert interface.pending_words == 4
    assert interface.queue[0] is request


def test_pending_words_tracks_head_only():
    interface = MasterInterface("m", 0)
    interface.submit(4, 0)
    interface.submit(9, 1)
    assert interface.pending_words == 4
    assert interface.backlog_words == 13


def test_pop_advances_queue():
    interface = MasterInterface("m", 0)
    first = interface.submit(4, 0)
    second = interface.submit(2, 0)
    assert interface.pop() is first
    assert interface.queue[0] is second


def test_idle_interface():
    interface = MasterInterface("m", 0)
    assert not interface.has_request
    assert interface.pending_words == 0
    assert interface.backlog_words == 0


def test_bounded_queue_rejects_overflow():
    interface = MasterInterface("m", 0, max_queue=2)
    assert interface.submit(1, 0) is not None
    assert interface.submit(1, 0) is not None
    assert interface.submit(1, 0) is None
    assert interface.rejected_requests == 1
    assert interface.submitted_requests == 2


def test_reset_clears_state():
    interface = MasterInterface("m", 0)
    interface.submit(4, 0)
    interface.reset()
    assert not interface.has_request
    assert interface.submitted_requests == 0


def test_requests_carry_master_id_and_slave():
    interface = MasterInterface("m", 3)
    request = interface.submit(4, 0, slave=2)
    assert request.master == 3
    assert request.slave == 2


def test_queue_is_one_deque_for_the_interface_lifetime():
    interface = MasterInterface("m", 0)
    queue = interface.queue
    first = interface.submit(4, 0)
    assert list(queue) == [first]
    state = interface.state_dict()
    interface.reset()
    assert interface.queue is queue and not queue
    interface.submit(9, 1)
    interface.load_state_dict(state)
    assert interface.queue is queue
    assert [request.words for request in queue] == [4]
    assert interface.pending_words == 4
