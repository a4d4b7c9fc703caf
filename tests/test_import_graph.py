"""What importing an entry point loads, measured in fresh interpreters.

Package ``__init__`` modules export their names lazily, so importing
the simulator loads the simulator and nothing else: no campaign
supervisor, result cache, service, surrogate, vector engine, ATM
switch, fault injector or linter, and no ``multiprocessing``,
``socket``, ``subprocess``, ``hashlib`` or ``numpy``.  numpy is loaded
only by the code that builds arrays, never by an import.

The other side of lazy loading: campaign and service workers fork from
a process that imported the experiment registry, so running a job must
load nothing new — a module first imported by a job is compiled again
in every forked worker.
"""

import ast
import subprocess
import sys

import pytest

from repro.bench import SIMULATION_PATH_EXCLUDES, import_graph, off_simulation_path
from repro.experiments.runner import experiment_names

#: What ``import repro.experiments.system`` may load: the kernel, bus,
#: arbiters, lottery core, metrics and traffic packages, ``Point``'s own
#: module, and the package shells and helpers above them.
SIMULATION_MODULES = ("repro", "repro._lazy", "repro.ioutil",
                      "repro.experiments", "repro.experiments.system")
SIMULATION_PACKAGES = ("repro.sim", "repro.bus", "repro.arbiters",
                       "repro.core", "repro.metrics", "repro.traffic")


@pytest.fixture(scope="module")
def simulation_path():
    return import_graph("repro.experiments.system")[1]


@pytest.mark.parametrize("excluded", SIMULATION_PATH_EXCLUDES)
def test_simulation_path_does_not_load(simulation_path, excluded):
    loaded = [name for name in simulation_path
              if name == excluded or name.startswith(excluded + ".")]
    assert loaded == []


def test_simulation_path_loads_only_the_simulator(simulation_path):
    assert off_simulation_path(simulation_path) == []
    outside = sorted(
        name for name in simulation_path
        if name.split(".")[0] == "repro"
        and name not in SIMULATION_MODULES
        and ".".join(name.split(".")[:2]) not in SIMULATION_PACKAGES
    )
    assert outside == []
    assert "repro.experiments.system" in simulation_path


def test_importing_the_stack_does_not_load_numpy():
    _, loaded = import_graph(
        "repro.cli", "repro.experiments.runner", "repro.service.http",
        "repro.vector", "repro.analytic",
    )
    assert "repro.vector.engine" in loaded and "repro.analytic.batch" in loaded
    assert "numpy" not in loaded


# One interpreter imports what the service engine imports (its parent
# process state when it forks workers), then runs every registered
# experiment as a service worker does, recording what each run loads.
_JOB_PROBE = """
import sys
from repro.experiments.supervisor import JobSpec
from repro.service import engine
grown = {}
for name in sys.argv[1:]:
    before = set(sys.modules)
    engine.service_task_runner(JobSpec(name, scale=0.01, seed=1), None)
    grown[name] = sorted(set(sys.modules) - before)
print(repr(grown))
"""


@pytest.fixture(scope="module")
def loaded_by_jobs():
    result = subprocess.run(
        [sys.executable, "-c", _JOB_PROBE] + experiment_names(),
        capture_output=True, text=True, check=True,
    )
    return ast.literal_eval(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("experiment", experiment_names())
def test_a_job_loads_nothing_the_forking_parent_did_not(
        loaded_by_jobs, experiment):
    # figure5 at scale 0.01 is the e2e benchmark's service job.
    assert loaded_by_jobs[experiment] == []
