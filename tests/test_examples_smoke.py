"""Smoke tests: the fast example scripts run end to end.

The slower, sweep-style examples (traffic_space, atm_switch,
dynamic_qos) are exercised indirectly by the experiment benchmarks;
here we run the quick ones exactly as a user would.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_quickstart():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "bandwidth share" in result.stdout
    assert "utilization" in result.stdout


def test_bandwidth_provisioning():
    result = run_example("bandwidth_provisioning.py")
    assert result.returncode == 0, result.stderr
    assert "Case 1" in result.stdout
    assert "Case 2" in result.stdout


@pytest.mark.parametrize(
    "name",
    [
        "quickstart.py",
        "bandwidth_provisioning.py",
        "atm_switch.py",
        "dynamic_qos.py",
        "hierarchical_soc.py",
        "traffic_space.py",
    ],
)
def test_every_example_compiles(name):
    source = (EXAMPLES / name).read_text()
    compile(source, name, "exec")
