"""Built-in rules; importing this package registers them all."""

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    lb101_determinism,
    lb102_snapshot,
    lb103_wakeup,
    lb104_caches,
    lb106_durability,
    lb107_swallow,
    lb201_races,
    lb202_forks,
    lb203_seedflow,
    lb204_errors,
)
