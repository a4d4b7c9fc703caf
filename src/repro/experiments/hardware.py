"""Section 5.2: hardware cost of the LOTTERYBUS controller.

The paper maps the 4-master static lottery manager to NEC's 0.35 um
cell-based array: ~1458 cell grids and ~3.1 ns arbitration (single-cycle
past 300 MHz).  This experiment evaluates the analytic gate-level model
for the static and dynamic managers and the conventional baselines.
"""

from repro.core.hardware_model import (
    Technology,
    estimate_dynamic_manager,
    estimate_static_manager,
    estimate_static_priority,
    estimate_tdma,
)
from repro.core.scaling import scale_to_power_of_two
from repro.metrics.report import format_table


class HardwareResult:
    def __init__(self, estimates):
        self.estimates = estimates

    def by_name(self, prefix):
        for estimate in self.estimates:
            if estimate.name.startswith(prefix):
                return estimate
        raise KeyError(prefix)

    def format_report(self):
        rows = [
            [
                e.name,
                "{:.0f}".format(e.gate_equivalents),
                "{:.0f}".format(e.area_cell_grids),
                "{:.2f}".format(e.arbitration_ns),
                "{:.0f}".format(e.max_bus_mhz),
            ]
            for e in self.estimates
        ]
        return format_table(
            ["arbiter", "gates", "cell grids", "arbitration ns", "max bus MHz"],
            rows,
            title="Section 5.2: arbiter hardware cost (0.35um model)",
        )


class HardwareScalingResult:
    """Static vs dynamic manager cost as the master count grows."""

    def __init__(self, rows):
        # rows: (masters, static_estimate, dynamic_estimate)
        self.rows = rows

    def crossover_masters(self):
        """Smallest master count where the static manager is larger."""
        for n, static, dynamic in self.rows:
            if static.area_cell_grids > dynamic.area_cell_grids:
                return n
        return None

    def format_report(self):
        table_rows = []
        for n, static, dynamic in self.rows:
            table_rows.append(
                [
                    n,
                    "{:.0f}".format(static.area_cell_grids),
                    "{:.2f}".format(static.arbitration_ns),
                    "{:.0f}".format(dynamic.area_cell_grids),
                    "{:.2f}".format(dynamic.arbitration_ns),
                ]
            )
        report = format_table(
            ["masters", "static grids", "static ns", "dynamic grids",
             "dynamic ns"],
            table_rows,
            title="Lottery manager scaling with master count",
        )
        crossover = self.crossover_masters()
        if crossover is not None:
            report += "\narea crossover at {} masters".format(crossover)
        return report


def run_hardware_scaling(  # lb: noqa[LB203] — analytic gate-cost model, no RNG
    master_counts=(2, 3, 4, 5, 6, 8, 10, 12),
    ticket_total=16,
    technology=None,
):
    """Cost of both managers across SoC sizes; locates the crossover.

    The static manager's 2**n lookup table grows exponentially while
    the dynamic datapath grows ~linearly — the design guidance implicit
    in Section 4.4.
    """
    if technology is None:
        technology = Technology()
    rows = []
    for n in master_counts:
        rows.append(
            (
                n,
                estimate_static_manager(n, ticket_total, technology=technology),
                estimate_dynamic_manager(n, technology=technology),
            )
        )
    return HardwareScalingResult(rows)


def run_hardware_comparison(  # lb: noqa[LB203] — analytic gate-cost model, no RNG
    num_masters=4, tickets=(1, 2, 3, 4), tdma_slots=10, technology=None
):
    """Estimate all arbiter implementations; returns HardwareResult."""
    if technology is None:
        technology = Technology()
    scaled_total = sum(scale_to_power_of_two(list(tickets)))
    estimates = [
        estimate_static_manager(num_masters, scaled_total, technology=technology),
        estimate_dynamic_manager(num_masters, technology=technology),
        estimate_dynamic_manager(
            num_masters, technology=technology, pipelined=False
        ),
        estimate_static_priority(num_masters, technology=technology),
        estimate_tdma(num_masters, tdma_slots, technology=technology),
    ]
    # Disambiguate the two dynamic variants in the report.
    estimates[2].name += "-unpipelined"
    return HardwareResult(estimates)
