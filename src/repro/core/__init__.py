"""The LOTTERYBUS core: lottery managers and their hardware building blocks.

This package implements Section 4 of the paper:

* :mod:`repro.core.tickets` — ticket assignments and validation.
* :mod:`repro.core.scaling` — scaling holdings to a power-of-two total so
  an LFSR draw is uniform (Section 4.3, "efficient random number
  generation").
* :mod:`repro.core.lfsr` — maximal-length linear-feedback shift
  registers, the hardware random number source.
* :mod:`repro.core.lookup_table` — the static manager's precomputed
  request-map -> partial-sum tables.
* :mod:`repro.core.adder_tree` — the dynamic manager's bitwise-AND +
  adder-tree partial-sum datapath.
* :mod:`repro.core.modulo` — reduction of a raw random draw into
  ``[0, T)`` for arbitrary ``T`` (dynamic manager).
* :mod:`repro.core.lottery_manager` — the static and dynamic lottery
  managers tying the datapath together.
* :mod:`repro.core.starvation` — the analytic starvation/access model,
  ``p = 1 - (1 - t/T)**n``.
* :mod:`repro.core.hardware_model` — area and arbitration-delay
  estimates (Section 5.2).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".lfsr": ("LFSR", "MAXIMAL_TAPS"),
    ".lottery_manager": (
        "DynamicLotteryManager",
        "LotteryOutcome",
        "StaticLotteryManager",
    ),
    ".scaling": ("scale_to_power_of_two",),
    ".starvation": (
        "access_probability",
        "drawings_for_confidence",
        "expected_bandwidth_shares",
        "expected_drawings_to_access",
    ),
    ".tickets": ("TicketAssignment",),
})
