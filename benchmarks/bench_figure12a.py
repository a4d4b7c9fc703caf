"""Figure 12(a): LOTTERYBUS bandwidth allocation across classes T1-T9.

Paper claims regenerated here:
* for saturating classes the allocation closely follows the 1:2:3:4
  ticket assignment (the paper measures ~1.05:1.9:2.96:3.83);
* for sparse classes (T3, T6) most requests get immediate grants, so
  allocation is roughly equal and a large fraction is unused.
"""

from conftest import cycles, run_once

from repro.experiments.figure12 import run_figure12a
from repro.traffic.classes import TRAFFIC_CLASSES


def test_bench_figure12a(benchmark):
    result = run_once(benchmark, run_figure12a, cycles=cycles(150_000))
    print()
    print(result.format_report())
    # Observed share ratios (min ticket = 1) per saturating class; the
    # paper reports ~1.05 : 1.9 : 2.96 : 3.83 for tickets 1:2:3:4.
    ratios = {}
    for index, name in enumerate(result.class_names):
        if TRAFFIC_CLASSES[name].saturating:
            row = result.fractions[index]
            assert row[0] < row[1] < row[2] < row[3], name
            ratios[name] = [round(r, 2) for r in result.share_ratios(index)]
        else:
            assert result.unutilized(index) > 0.3, name
    print("saturating-class ratio spread:", ratios)
