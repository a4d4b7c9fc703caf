"""Table 1: the output-queued ATM switch under three architectures.

Scenario (digits reconstructed from the corrupted source text; see
EXPERIMENTS.md): a 4-port switch whose quality-of-service requirements
are (i) port 1's traffic must cross the switch with minimum latency and
(ii) ports 2-4 share the remaining bandwidth in the ratio 2:6:1.
Lottery tickets, TDMA slots and priorities are all assigned in the
ratio 12:2:6:1 for ports 1-4.

Workload: ports 2-4 receive sustained cell arrivals that keep their
queues backlogged; port 1 receives line-rate cell bursts whose
inter-arrival time resonates with the TDMA wheel length (the
time-alignment pathology of Section 3).
"""

from repro.arbiters.registry import make_arbiter
from repro.metrics.report import format_table

TABLE1_WEIGHTS = (12, 2, 6, 1)
ARCHITECTURES = (
    ("static priority", "static-priority", {}),
    ("TDMA (scan reclaim)", "tdma", {"reclaim": "scan"}),
    ("TDMA (single reclaim)", "tdma", {"reclaim": "single"}),
    ("LOTTERYBUS", "lottery-static", {}),
)


def table1_workload(
    burst_interval=None, burst_on=400, burst_off=4000, backlog_rate=0.05
):
    """The Table 1 per-port arrival processes.

    :param burst_interval: cell inter-arrival during port 1's bursts;
        defaults to the TDMA wheel length (sum of weights) so the burst
        phase locks against the wheel.
    """
    from repro.atm.workload import (
        BernoulliArrivals,
        PeriodicBurstArrivals,
        PortWorkload,
    )

    if burst_interval is None:
        burst_interval = sum(TABLE1_WEIGHTS)
    return PortWorkload(
        [
            PeriodicBurstArrivals(burst_interval, burst_on, burst_off),
            BernoulliArrivals(backlog_rate),
            BernoulliArrivals(backlog_rate),
            BernoulliArrivals(backlog_rate),
        ]
    )


class Table1Result:
    """Per-architecture port bandwidth fractions and port-1 latency."""

    def __init__(self, rows):
        # rows: list of (label, bandwidth_fractions, port1_latency_per_word)
        self.rows = rows

    def bandwidth(self, label, port):
        for row_label, fractions, _ in self.rows:
            if row_label == label:
                return fractions[port]
        raise KeyError(label)

    def port1_latency(self, label):
        for row_label, _, latency in self.rows:
            if row_label == label:
                return latency
        raise KeyError(label)

    def format_report(self):
        table_rows = []
        for label, fractions, latency in self.rows:
            table_rows.append(
                [label, "{:.2f}".format(latency)]
                + ["{:.1%}".format(v) for v in fractions]
            )
        return format_table(
            ["architecture", "port1 lat (cyc/word)"]
            + ["port{} bw".format(p + 1) for p in range(4)],
            table_rows,
            title="Table 1: ATM switch cell-forwarding performance",
        )


def build_table1_switch(
    arbiter_name,
    arbiter_kwargs=None,
    weights=TABLE1_WEIGHTS,
    queue_capacity=64,
    memory_cells=8192,
    seed=5,
):
    """The Table 1 switch for one architecture, ready to run."""
    from repro.atm.switch import OutputQueuedSwitch

    arbiter = make_arbiter(
        arbiter_name, len(weights), list(weights), **(arbiter_kwargs or {})
    )
    return OutputQueuedSwitch(
        arbiter,
        table1_workload(),
        queue_capacity=queue_capacity,
        memory_cells=memory_cells,
        seed=seed,
    )


def table1_row(label, switch):
    """The Table 1 result row of a finished switch run."""
    from repro.atm.cell import CELL_WORDS

    report = switch.report()
    port1_latency = report.switch_latencies[0] / CELL_WORDS
    return (label, report.bandwidth_fractions, port1_latency)


def run_table1_point(
    label,
    arbiter_name,
    arbiter_kwargs=None,
    cycles=500_000,
    seed=5,
    weights=TABLE1_WEIGHTS,
    queue_capacity=64,
    memory_cells=8192,
):
    """One architecture point of Table 1, as a pure function.

    The campaign engine's unit of fan-out: every argument is plain
    data, the returned row is plain data, and the result depends on
    nothing else — so points can run on any worker in any order (or be
    served from the result cache) and still assemble into a Table 1
    identical to the serial run.
    """
    switch = build_table1_switch(
        arbiter_name,
        arbiter_kwargs,
        weights=weights,
        queue_capacity=queue_capacity,
        memory_cells=memory_cells,
        seed=seed,
    )
    switch.simulator.run(cycles)
    return table1_row(label, switch)


def run_table1(
    cycles=500_000,
    seed=5,
    weights=TABLE1_WEIGHTS,
    queue_capacity=64,
    memory_cells=8192,
    checkpointer=None,
    progress=None,
    jobs=None,
):
    """Run the switch under each architecture; returns Table1Result.

    Each architecture is one checkpoint *stage* (see
    :mod:`repro.experiments.checkpoint`): with a ``checkpointer`` the
    per-architecture run is chunked with periodic simulator
    checkpoints, finished architectures record their result row, and a
    resumed run reuses both — producing a report bit-identical to an
    uninterrupted one.

    ``jobs`` > 1 (without a checkpointer) fans the architecture points
    over the worker pool; rows keep architecture order, so the result
    is identical to the serial run.
    """
    if jobs is not None and jobs > 1 and checkpointer is None:
        from repro.experiments.supervisor import pool_map

        rows = pool_map(
            run_table1_point,
            [
                (label, name, kwargs, cycles, seed, weights,
                 queue_capacity, memory_cells)
                for label, name, kwargs in ARCHITECTURES
            ],
            jobs=jobs,
        )
        return Table1Result([tuple(row) for row in rows])
    rows = []
    for label, name, kwargs in ARCHITECTURES:
        stage = None if checkpointer is None else checkpointer.stage(label)
        if stage is not None:
            row = stage.completed_result()
            if row is not None:
                rows.append(tuple(row))
                continue
        switch = build_table1_switch(
            name,
            kwargs,
            weights=weights,
            queue_capacity=queue_capacity,
            memory_cells=memory_cells,
            seed=seed,
        )
        if stage is None:
            switch.simulator.run(cycles)
        else:
            stage.run(switch.simulator, cycles, progress=progress)
        row = table1_row(label, switch)
        if stage is not None:
            stage.complete(row)
        rows.append(row)
    return Table1Result(rows)
