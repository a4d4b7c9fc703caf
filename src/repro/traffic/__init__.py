"""Parameterized on-chip communication traffic generation."""

from repro.traffic.classes import TRAFFIC_CLASSES, TrafficClass, get_traffic_class
from repro.traffic.generator import (
    OnOffGenerator,
    PeriodicGenerator,
    PoissonGenerator,
    SaturatingGenerator,
)
from repro.traffic.message import (
    FixedWords,
    GeometricWords,
    UniformWords,
)
from repro.traffic.patterns import PatternGenerator

__all__ = [
    "TRAFFIC_CLASSES",
    "TrafficClass",
    "get_traffic_class",
    "OnOffGenerator",
    "PeriodicGenerator",
    "PoissonGenerator",
    "SaturatingGenerator",
    "FixedWords",
    "GeometricWords",
    "UniformWords",
    "PatternGenerator",
]
