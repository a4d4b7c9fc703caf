"""The benchmark's workloads: name -> ``module:function`` running one.

Each function takes a :class:`harness.Context` and returns the filled
:class:`harness.Run`.  Modules are imported on demand, so the import of
the program under test is timed as part of set-up.
"""

WORKLOADS = {
    "bus_saturated": "workloads.bus:bus_saturated",
    "bus_idle": "workloads.bus:bus_idle",
    "dse_sweep": "workloads.dse:dse_sweep",
    "service_mixed": "workloads.service:service_mixed",
}
