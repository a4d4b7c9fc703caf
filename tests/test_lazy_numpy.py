"""numpy is a required dependency, but only the code that builds arrays
imports it: the CLI, the experiment runner, the service and the bus
simulator start without paying for it."""

import subprocess
import sys


def test_importing_the_stack_does_not_load_numpy():
    code = (
        "import sys\n"
        "import repro.cli, repro.experiments.runner, repro.service.http\n"
        "import repro.vector, repro.analytic\n"
        "assert 'numpy' not in sys.modules, 'numpy imported eagerly'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
