"""Checkpoint round-trip determinism for every arbiter.

The contract: save at cycle N, restore into a freshly built identical
system, run N more cycles — metrics (and therefore LFSR/RNG state,
queues, in-flight bursts) must be identical to the uninterrupted 2N-cycle
run.  Plus corruption tests: a damaged file raises CheckpointError and
never half-restores the simulator.
"""

import pickle

import pytest

from repro.arbiters.registry import available_arbiters, make_arbiter
from repro.atm.switch import OutputQueuedSwitch
from repro.atm.workload import PortWorkload
from repro.bus.topology import build_single_bus_system
from repro.experiments.checkpoint import ExperimentCheckpointer
from repro.experiments.table1 import run_table1
from repro.sim.snapshot import (
    CHECKPOINT_VERSION,
    CheckpointError,
    write_checkpoint,
)
from repro.traffic.generator import OnOffGenerator
from repro.traffic.message import UniformWords

WEIGHTS = [1, 2, 3, 4]
HALF = 4_000


def _build_system(arbiter_name):
    arbiter = make_arbiter(arbiter_name, 4, WEIGHTS)
    factory = lambda index, interface: OnOffGenerator(
        "gen{}".format(index),
        interface,
        UniformWords(2, 12),
        on_rate=0.4,
        mean_on=80,
        mean_off=120,
        seed=11 + index,
    )
    return build_single_bus_system(4, arbiter, factory)


@pytest.mark.parametrize("arbiter_name", available_arbiters())
def test_bus_roundtrip_matches_uninterrupted_run(arbiter_name, tmp_path):
    path = str(tmp_path / "bus.ckpt")

    system_a, bus_a = _build_system(arbiter_name)
    system_a.run(HALF)
    system_a.save_checkpoint(path)
    system_a.run(HALF)

    system_b, bus_b = _build_system(arbiter_name)
    assert system_b.load_checkpoint(path) == HALF
    system_b.run(HALF)

    assert bus_b.metrics.summary() == bus_a.metrics.summary()
    assert bus_b.arbiter.state_dict() == bus_a.arbiter.state_dict()


@pytest.mark.parametrize(
    "arbiter_name", ["lottery-static", "tdma", "round-robin"]
)
def test_atm_switch_roundtrip(arbiter_name, tmp_path):
    path = str(tmp_path / "switch.ckpt")

    def build():
        return OutputQueuedSwitch(
            make_arbiter(arbiter_name, 4, WEIGHTS),
            PortWorkload.table1(),
            seed=3,
        )

    switch_a = build()
    switch_a.simulator.run(HALF)
    switch_a.simulator.save_checkpoint(path)
    switch_a.simulator.run(HALF)

    switch_b = build()
    switch_b.simulator.load_checkpoint(path)
    switch_b.simulator.run(HALF)

    assert vars(switch_b.report()) == vars(switch_a.report())


def test_restore_into_wrong_arbiter_never_half_restores(tmp_path):
    path = str(tmp_path / "bus.ckpt")
    system_a, _ = _build_system("lottery-static")
    system_a.run(1_000)
    system_a.save_checkpoint(path)

    system_b, bus_b = _build_system("token-ring")
    system_b.run(500)
    before = bus_b.metrics.summary()
    with pytest.raises(CheckpointError):
        system_b.load_checkpoint(path)
    assert system_b.simulator.cycle == 500
    assert bus_b.metrics.summary() == before


def test_corrupted_checkpoint_detected_before_restore(tmp_path):
    path = tmp_path / "bus.ckpt"
    system, bus = _build_system("lottery-dynamic")
    system.run(1_000)
    system.save_checkpoint(str(path))
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xA5
    path.write_bytes(bytes(blob))

    before = bus.metrics.summary()
    with pytest.raises(CheckpointError):
        system.simulator.load_checkpoint(str(path))
    assert system.simulator.cycle == 1_000
    assert bus.metrics.summary() == before


def test_truncated_checkpoint_detected(tmp_path):
    path = tmp_path / "bus.ckpt"
    system, _ = _build_system("weighted-rr")
    system.run(500)
    system.save_checkpoint(str(path))
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(CheckpointError):
        system.simulator.load_checkpoint(str(path))


@pytest.mark.parametrize("version", [1, 2])
def test_old_version_checkpoint_is_refused_before_restore(tmp_path, version):
    # Version 1 predates the one-latency-metric Request and LatencyStats
    # layout, version 2 the flow-less Request; such a file must be
    # refused whole, naming its version, and leave the state untouched.
    path = str(tmp_path / "bus.ckpt")
    system, bus = _build_system("lottery-compensated")
    system.run(700)
    write_checkpoint(path, system.simulator.state_dict(), version=version)
    system.run(300)
    before = pickle.dumps(system.simulator.state_dict())
    summary = bus.metrics.summary()
    with pytest.raises(CheckpointError, match="version {} ".format(version)):
        system.load_checkpoint(path)
    assert CHECKPOINT_VERSION == 3
    assert system.simulator.cycle == 1_000
    assert bus.metrics.summary() == summary
    assert pickle.dumps(system.simulator.state_dict()) == before


def test_table1_interrupted_resume_is_bit_identical(tmp_path):
    cycles = 20_000
    baseline = run_table1(cycles=cycles, seed=5)

    class Abort(Exception):
        pass

    calls = [0]

    def bomb(stage, cycle, total):
        calls[0] += 1
        if calls[0] == 6:  # partway into the second architecture
            raise Abort()

    directory = str(tmp_path / "ck")
    with pytest.raises(Abort):
        run_table1(
            cycles=cycles,
            seed=5,
            checkpointer=ExperimentCheckpointer(directory, every=4_000),
            progress=bomb,
        )

    events = []
    resumed = run_table1(
        cycles=cycles,
        seed=5,
        checkpointer=ExperimentCheckpointer(
            directory, every=4_000, resume=True, on_event=events.append
        ),
    )
    assert resumed.rows == baseline.rows
    assert any("skipping stage" in event for event in events)
    assert any("resuming stage" in event for event in events)


def test_stale_stage_checkpoint_raises(tmp_path):
    directory = str(tmp_path / "ck")
    checkpointer = ExperimentCheckpointer(directory, every=1_000)
    stage = checkpointer.stage("only")

    from repro.sim.kernel import Simulator
    from tests.test_sim_snapshot import Counter

    sim = Simulator()
    sim.add(Counter("c"))
    sim.run(5_000)
    sim.save_checkpoint(stage.ckpt_path)

    resumer = ExperimentCheckpointer(directory, every=1_000, resume=True)
    sim2 = Simulator()
    sim2.add(Counter("c"))
    with pytest.raises(CheckpointError):
        resumer.stage("only").run(sim2, total_cycles=2_000)


def test_fresh_checkpointer_wipes_stale_stage_files(tmp_path):
    directory = tmp_path / "ck"
    directory.mkdir()
    (directory / "old.ckpt").write_bytes(b"stale")
    (directory / "old.done").write_bytes(b"stale")
    (directory / "results.jsonl").write_text("{}\n")
    ExperimentCheckpointer(str(directory), every=1_000)
    names = sorted(p.name for p in directory.iterdir())
    assert names == ["results.jsonl"]
