"""Parameterized on-chip communication traffic generation."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".classes": ("TRAFFIC_CLASSES", "TrafficClass", "get_traffic_class"),
    ".generator": (
        "OnOffGenerator",
        "PeriodicGenerator",
        "PoissonGenerator",
        "SaturatingGenerator",
    ),
    ".message": ("FixedWords", "GeometricWords", "UniformWords"),
    ".patterns": ("PatternGenerator",),
})
