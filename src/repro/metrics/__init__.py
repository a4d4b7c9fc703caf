"""Instrumentation: bandwidth fractions, latencies, reports."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".bandwidth": ("bandwidth_fractions", "utilization"),
    ".collector": ("FaultStats", "MasterStats", "MetricsCollector"),
    ".latency": ("LatencyStats",),
    ".report": ("format_bar_chart", "format_table"),
    ".stats": ("Replication", "confidence_interval", "replicate"),
    ".waveform": ("BusProbe", "render_waveform"),
})
