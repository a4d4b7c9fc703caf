"""Tests for the infrastructure-fault injection stack.

Covers the plan/injector primitives, then the supervisor behaviours the
chaos harness depends on: convergence under dispatch kills, poison-task
quarantine, the circuit breaker's degraded serial mode, heartbeat
detection of wedged workers, SIGTERM draining, and the result store's
recovery from chaos-torn appends.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.chaos.injector import ChaosInjector, install_worker_chaos
from repro.chaos.plan import ChaosPlan
from repro.experiments.errors import CampaignDrained
from repro.experiments.supervisor import ResultStore, Supervisor, TaskSpec
from repro.ioutil import set_write_fault_hook


@pytest.fixture(autouse=True)
def _no_leftover_hook():
    yield
    set_write_fault_hook(None)


# Task runners must be module-level so spawned workers can unpickle them.

def echo_task_runner(spec, resume):
    return "report:" + spec.name


def pid_task_runner(spec, resume):
    if spec.name.startswith("poison"):
        os._exit(9)
    return "pid:{}".format(os.getpid())


def poison_task_runner(spec, resume):
    if spec.name == "poison":
        os._exit(9)
    return "ok:" + spec.name


def crash_then_hang_runner(spec, resume):
    # The first attempt crashes its pool worker (opening a one-crash
    # breaker); every retry records its pid and hangs.
    if not resume:
        os._exit(9)
    with open(spec.options["pid_file"], "a") as handle:
        handle.write("{}\n".format(os.getpid()))
    time.sleep(60)


def self_stopping_runner(spec, resume):
    # First attempt wedges its own worker (alive, never finishing);
    # only heartbeat liveness can notice.  The retry succeeds.
    if spec.name == "wedge" and not resume:
        os.kill(os.getpid(), signal.SIGSTOP)
    return "ok:" + spec.name


def _fast_supervisor(**kwargs):
    kwargs.setdefault("poll_interval", 0.01)
    kwargs.setdefault("backoff", 0.01)
    return Supervisor(**kwargs)


# -- ChaosPlan ------------------------------------------------------------


def test_plan_validates_rates():
    with pytest.raises(ValueError):
        ChaosPlan(kill_rate=1.5)
    with pytest.raises(ValueError):
        ChaosPlan(torn_write_rate=-0.1)
    with pytest.raises(ValueError):
        ChaosPlan.uniform(2.0)


def test_plan_activity_flags():
    assert not ChaosPlan().active
    assert ChaosPlan(kill_rate=0.1).active
    assert not ChaosPlan(kill_rate=0.1).worker_active
    assert ChaosPlan(enospc_rate=0.1).worker_active
    assert ChaosPlan(checkpoint_corruption_rate=0.1).worker_active


def test_plan_state_round_trip():
    plan = ChaosPlan.uniform(0.25, kill_rate=0.5)
    clone = ChaosPlan.from_state(plan.state_dict())
    assert clone.state_dict() == plan.state_dict()


# -- ChaosInjector primitives ---------------------------------------------


def test_injector_requires_a_plan():
    with pytest.raises(TypeError):
        ChaosInjector({"kill_rate": 1.0})


def test_torn_append_returns_strict_prefix():
    injector = ChaosInjector(ChaosPlan(torn_write_rate=1.0), seed=5)
    data = b'{"name": "a"}\n'
    torn = injector.mangle_store_append(data)
    assert 1 <= len(torn) < len(data)
    assert data.startswith(torn)
    assert injector.events["torn_write"] == 1


def test_enospc_append_raises_oserror():
    injector = ChaosInjector(ChaosPlan(enospc_rate=1.0), seed=5)
    with pytest.raises(OSError):
        injector.mangle_store_append(b"payload")
    assert injector.events["enospc"] == 1


def test_injector_draws_are_seed_deterministic():
    data = b'{"record": "x", "padding": "0123456789"}\n'
    runs = []
    for _ in range(2):
        injector = ChaosInjector(ChaosPlan(torn_write_rate=0.5), seed=9)
        runs.append([injector.mangle_store_append(data) for _ in range(20)])
    assert runs[0] == runs[1]


def test_cache_corruption_flips_one_byte(tmp_path):
    path = str(tmp_path / "entry.json")
    with open(path, "wb") as handle:
        handle.write(b"A" * 64)
    injector = ChaosInjector(ChaosPlan(cache_corruption_rate=1.0), seed=3)
    assert injector.maybe_corrupt_cache_entry(path)
    corrupted = open(path, "rb").read()
    assert len(corrupted) == 64
    assert sum(1 for byte in corrupted if byte != ord("A")) == 1


def test_worker_setup_only_for_worker_side_channels():
    parent_only = ChaosInjector(ChaosPlan(kill_rate=0.5), seed=1)
    assert parent_only.worker_setup() is None
    both = ChaosInjector(ChaosPlan(enospc_rate=0.5), seed=1)
    state, seed = both.worker_setup()
    assert seed == 1
    assert state["enospc_rate"] == 0.5


def test_worker_chaos_streams_differ_by_worker_id():
    plan = ChaosPlan(checkpoint_corruption_rate=0.5)
    data = bytes(range(64))
    sequences = []
    for worker_id in (1, 2):
        install_worker_chaos(plan.state_dict(), 7, worker_id)
        from repro import ioutil

        hook = ioutil._write_fault_hook
        sequences.append([hook("x.ckpt", data) for _ in range(20)])
        set_write_fault_hook(None)
    assert sequences[0] != sequences[1]
    # Same id, same seed: identical.
    install_worker_chaos(plan.state_dict(), 7, 1)
    from repro import ioutil

    hook = ioutil._write_fault_hook
    replay = [hook("x.ckpt", data) for _ in range(20)]
    set_write_fault_hook(None)
    assert replay == sequences[0]


def test_worker_chaos_only_truncates_checkpoint_paths():
    plan = ChaosPlan(checkpoint_corruption_rate=1.0)
    install_worker_chaos(plan.state_dict(), 7, 1)
    from repro import ioutil

    hook = ioutil._write_fault_hook
    data = bytes(range(64))
    assert hook("results/export.csv", data) == data
    assert len(hook("stage.ckpt", data)) < len(data)
    assert len(hook("stage.done", data)) < len(data)
    set_write_fault_hook(None)


# -- ResultStore under chaos ----------------------------------------------


def test_store_recovers_from_chaos_torn_append(tmp_path):
    path = str(tmp_path / "r.jsonl")
    chaotic = ResultStore(
        path, chaos=ChaosInjector(ChaosPlan(torn_write_rate=1.0), seed=2)
    )
    chaotic.append({"name": "a", "status": "done", "report": "ra"})
    clean = ResultStore(path)
    assert clean.load() == {}
    assert clean.recovered_records == 1
    assert clean.recovered_bytes > 0
    # Repair truncated the torn bytes; the next append starts clean.
    clean.append({"name": "b", "status": "done", "report": "rb"})
    reloaded = ResultStore(path)
    assert set(reloaded.load()) == {"b"}
    assert reloaded.recovered_bytes == 0


def test_store_drops_corrupt_middle_record_and_tail(tmp_path):
    path = str(tmp_path / "r.jsonl")
    store = ResultStore(path)
    for name in ("a", "b", "c"):
        store.append({"name": name, "status": "done", "report": name})
    raw = bytearray(open(path, "rb").read())
    lines = open(path, "rb").read().split(b"\n")
    offset = len(lines[0]) + 1 + 5  # inside record "b"
    raw[offset] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(raw))
    fresh = ResultStore(path)
    assert set(fresh.load()) == {"a"}
    assert fresh.recovered_records == 2


# -- Supervisor: convergence under dispatch kills -------------------------


def test_campaign_converges_under_dispatch_kills():
    injector = ChaosInjector(ChaosPlan(kill_rate=0.5), seed=11)
    supervisor = _fast_supervisor(
        jobs=2, retries=30, quarantine_after=100, circuit_breaker=None,
        task_runner=echo_task_runner, chaos=injector,
        heartbeat_interval=0.05, heartbeat_timeout=5.0,
    )
    specs = [TaskSpec("t{}".format(i)) for i in range(6)]
    outcomes = supervisor.run(specs)
    assert all(o.status == "done" for o in outcomes.values())
    assert {o.report for o in outcomes.values()} == {
        "report:t{}".format(i) for i in range(6)
    }
    assert injector.events["kill"] >= 1


# -- Supervisor: poison-task quarantine -----------------------------------


def test_poison_task_is_quarantined_with_bounded_respawns():
    events = []
    supervisor = _fast_supervisor(
        jobs=2, retries=10, quarantine_after=3,
        task_runner=poison_task_runner,
    )
    outcomes = supervisor.run(
        [TaskSpec("poison"), TaskSpec("clean")], on_event=events.append
    )
    poison = outcomes["poison"]
    assert poison.status == "failed"
    assert poison.error_kind == "quarantined"
    assert poison.attempts == 3
    assert "quarantined" in poison.error
    assert outcomes["clean"].status == "done"
    assert any("[quarantined]" in event for event in events)


def test_success_resets_quarantine_counter():
    # A clean task that runs between crashes of another task must not
    # inherit its crash count; only per-task consecutive crashes count.
    supervisor = _fast_supervisor(
        jobs=1, retries=5, quarantine_after=3, circuit_breaker=None,
        task_runner=poison_task_runner,
    )
    outcomes = supervisor.run(
        [TaskSpec("clean-1"), TaskSpec("poison"), TaskSpec("clean-2")]
    )
    assert outcomes["clean-1"].status == "done"
    assert outcomes["clean-2"].status == "done"
    assert outcomes["poison"].error_kind == "quarantined"


# -- Supervisor: circuit breaker and degraded mode ------------------------


def test_circuit_breaker_degrades_to_in_process_serial():
    # Three poison tasks queued ahead of the clean one: their first
    # attempts trip the breaker (3 consecutive crashes) before the clean
    # task ever reaches a pool worker, so it must run in degraded mode.
    events = []
    supervisor = _fast_supervisor(
        jobs=1, retries=2, quarantine_after=None, circuit_breaker=3,
        task_runner=pid_task_runner,
    )
    specs = [
        TaskSpec("poison-1"), TaskSpec("poison-2"),
        TaskSpec("poison-3"), TaskSpec("clean"),
    ]
    outcomes = supervisor.run(specs, on_event=events.append)
    assert supervisor.breaker_opened
    assert any("circuit breaker open" in event for event in events)
    # The clean task ran inside the supervisor process itself.
    assert outcomes["clean"].report == "pid:{}".format(os.getpid())
    # The poison tasks kept failing in containment subprocesses without
    # taking the supervisor down.
    for name in ("poison-1", "poison-2", "poison-3"):
        assert outcomes[name].status == "failed"
        assert outcomes[name].error_kind == "worker-crash"
        assert outcomes[name].attempts == 3
    assert any("[degraded, contained]" in event for event in events)
    assert any("[degraded, in-process]" in event for event in events)


def test_degraded_contained_task_times_out_and_worker_is_killed(tmp_path):
    pid_file = tmp_path / "pids"
    events = []
    supervisor = _fast_supervisor(
        jobs=1, retries=2, timeout=0.5, quarantine_after=None,
        circuit_breaker=1, task_runner=crash_then_hang_runner,
        heartbeat_interval=0.05, heartbeat_timeout=5.0,
    )
    start = time.monotonic()
    outcomes = supervisor.run(
        [TaskSpec("hang", options={"pid_file": str(pid_file)})],
        on_event=events.append,
    )
    assert time.monotonic() - start < 20
    assert supervisor.breaker_opened
    outcome = outcomes["hang"]
    assert outcome.status == "failed"
    assert outcome.error_kind == "task-timeout"
    assert outcome.attempts == 3
    # Both retries ran contained, each on its own single-use worker,
    # and each worker was killed (and reaped) at its deadline.
    assert sum("[degraded, contained]" in event for event in events) == 2
    pids = [int(line) for line in pid_file.read_text().split()]
    assert len(set(pids)) == 2 and os.getpid() not in pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# -- Supervisor: heartbeat liveness ---------------------------------------


def test_heartbeat_detects_wedged_worker_and_retries():
    events = []
    supervisor = _fast_supervisor(
        jobs=1, retries=2, task_runner=self_stopping_runner,
        heartbeat_interval=0.05, heartbeat_timeout=0.5,
    )
    outcomes = supervisor.run([TaskSpec("wedge")], on_event=events.append)
    assert outcomes["wedge"].status == "done"
    assert outcomes["wedge"].attempts == 2
    assert any("wedged" in event for event in events)


# -- Supervisor: SIGTERM drain --------------------------------------------


def test_request_drain_defers_pending_tasks():
    supervisor = _fast_supervisor(jobs=1, task_runner=echo_task_runner)

    def watch(event):
        if event == "task a: done":
            supervisor.request_drain()

    specs = [TaskSpec("a"), TaskSpec("b"), TaskSpec("c")]
    with pytest.raises(CampaignDrained) as excinfo:
        supervisor.run(specs, on_event=watch)
    drained = excinfo.value
    assert set(drained.outcomes) == {"a"}
    assert drained.outcomes["a"].status == "done"
    assert drained.pending == ["b", "c"]


def test_drain_with_nothing_pending_returns_normally():
    supervisor = _fast_supervisor(jobs=1, task_runner=echo_task_runner)

    def watch(event):
        if event == "task b: done":
            supervisor.request_drain()

    outcomes = supervisor.run(
        [TaskSpec("a"), TaskSpec("b")], on_event=watch
    )
    assert set(outcomes) == {"a", "b"}


# -- The harness end-to-end -----------------------------------------------


def test_chaos_harness_cli_end_to_end(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    result = subprocess.run(
        [
            sys.executable, "-m", "repro.chaos",
            "--seed", "1", "--scale", "0.05",
            "--kill-rate", "0.3", "--torn-writes", "--corrupt-cache",
            "--experiments", "table1",
            "--workdir", str(tmp_path / "chaos-work"),
        ],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "bit-identical" in result.stderr
    assert "poison task quarantined" in result.stderr
    assert "all phases passed" in result.stderr


def test_chaos_harness_rejects_bad_usage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro.chaos", "--kill-rate", "1.5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 2
    assert "kill-rate" in result.stderr
