"""Infrastructure fault injection for the campaign engine.

:mod:`repro.faults` attacks the *simulated* bus — corrupted words,
dropped grants, stuck LFSRs — and proves the modelled protocol recovers.
This package attacks the *execution layer that runs the simulations*:
worker processes are SIGKILLed or SIGSTOPped mid-task, result-store
appends are torn short or rejected with ``ENOSPC``, cache envelopes get
byte flips, and checkpoint containers are truncated — all scheduled
from a seeded :class:`ChaosPlan`, so a chaos campaign is a repeatable
experiment, not a flaky stress test.

The contract under chaos is the acceptance test of the whole
supervision stack: a campaign run under any such schedule must still
converge, and its final :class:`~repro.experiments.supervisor.
CampaignReport` must be **bit-identical** to a fault-free serial run.
``python -m repro.chaos`` drives exactly that comparison.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".injector": ("ChaosInjector", "install_worker_chaos"),
    ".plan": ("ChaosPlan",),
})
