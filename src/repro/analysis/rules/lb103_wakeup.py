"""LB103: wakeup-contract conformance.

The activity-driven fast path (PR 3) is a contract between a component
and the kernel: ``next_activity(cycle)`` promises that every cycle
before the returned one is quiescent, and ``skip_quiet(cycle, span)``
must then replay the skipped stretch so the component lands in exactly
the state ``span`` dense ticks would have produced.  Violations do not
crash — ``mode="fast"`` simply diverges from ``mode="dense"``, which is
precisely the class of bug the strict-mode kernel exists to catch at
runtime and this rule catches at review time.

Three statically checkable obligations:

* **countdown without replay** — a ``next_activity`` override that
  computes its answer from ``cycle`` plus *runtime-mutated* state
  (``cycle + self._think`` where ``_think`` is assigned during the run)
  is promising a quiescent stretch measured by internal countdown
  state; the class must override ``skip_quiet`` to advance that state,
  otherwise the skipped cycles are simply lost.  Overrides that only
  return ``cycle``/``None``/a stored absolute cycle, delegate via
  ``min``/``max``, or do modular arithmetic over immutable config (a
  periodic schedule) need no replay and are not flagged.

* **dead replay** — a class that overrides ``skip_quiet`` but not
  ``next_activity`` inherits the default "tick me every cycle" answer,
  so its ``skip_quiet`` is unreachable: either the override is dead
  code or a ``next_activity`` went missing.

* **broken wake** — a ``wake()`` override that does not call
  ``super().wake()`` must itself set ``self._wake_pending = True`` and
  ``self._asleep = False``.  The kernel consumes the first flag to
  bound the next jump, so a component that drops it can be skipped
  straight past its stimulus; a component that leaves the second set
  stays asleep and the fast kernel never ticks it again.
"""

import ast

from repro.analysis.core import Rule, register
from repro.analysis.visitors import (
    calls_super_method,
    class_methods,
    contains_name,
    hierarchy_defines,
    iter_classes,
    iter_self_mutations,
    self_attr_reads,
)


def _cycle_arithmetic(func_node, runtime_attrs):
    """First BinOp in the function combining the ``cycle`` argument with
    runtime-mutated state (``cycle + self._think``), or ``None``.

    Arithmetic over *configuration* (``cycle + self.period - offset`` in
    a periodic schedule) needs no replay — the skipped ticks really are
    no-ops — so only attributes assigned outside ``__init__`` count.
    Comparisons are not arithmetic and never count."""
    for node in ast.walk(func_node):
        if not (isinstance(node, ast.BinOp) and contains_name(node, "cycle")):
            continue
        if self_attr_reads(node) & runtime_attrs:
            return node
    return None


def _runtime_mutated_attrs(methods):
    """Attributes assigned by any method other than ``__init__`` — the
    state that evolves during a run (countdowns, dwell timers)."""
    attrs = set()
    for name, method in methods.items():
        if name == "__init__":
            continue
        for attr, _ in iter_self_mutations(method):
            attrs.add(attr)
    return attrs


@register
class WakeupContractRule(Rule):
    id = "LB103"
    name = "wakeup-contract"
    description = (
        "next_activity/skip_quiet/wake overrides that break the "
        "fast-path wakeup contract"
    )

    def check(self, source):
        if not source.module:
            return
        if source.module in ("repro.sim.component",):
            return  # the contract's own definition site
        for class_node in iter_classes(source.tree):
            methods = class_methods(class_node)
            next_activity = methods.get("next_activity")
            skip_quiet = methods.get("skip_quiet")
            if next_activity is not None and skip_quiet is None:
                arithmetic = _cycle_arithmetic(
                    next_activity, _runtime_mutated_attrs(methods)
                )
                if arithmetic is not None and (
                    hierarchy_defines(class_node, source.tree, "skip_quiet")
                    == "no"
                ):
                    yield source.finding(
                        self.id, next_activity,
                        "{}.next_activity computes a future cycle "
                        "arithmetically (line {}) but the class never "
                        "overrides skip_quiet — the promised quiescent "
                        "stretch is skipped without replaying the "
                        "countdown state, so fast mode diverges from "
                        "dense".format(
                            class_node.name, arithmetic.lineno
                        ),
                    )
            if skip_quiet is not None and next_activity is None:
                if (
                    hierarchy_defines(class_node, source.tree, "next_activity")
                    == "no"
                ):
                    yield source.finding(
                        self.id, skip_quiet,
                        "{}.skip_quiet is overridden but next_activity is "
                        "not — the inherited default keeps the component "
                        "dense, so this skip_quiet can never run (dead "
                        "replay or missing next_activity)".format(
                            class_node.name
                        ),
                    )
            wake = methods.get("wake")
            if wake is not None and not self._wake_is_sound(wake):
                yield source.finding(
                    self.id, wake,
                    "{}.wake neither calls super().wake() nor sets both "
                    "self._wake_pending = True and self._asleep = False — "
                    "external wakeups are dropped, so the fast path can "
                    "jump past the stimulus or leave the component "
                    "asleep".format(class_node.name),
                )

    def _wake_is_sound(self, wake_node):
        if calls_super_method(wake_node, "wake"):
            return True
        required = {"_wake_pending": True, "_asleep": False}
        for node in ast.walk(wake_node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in required
                        and isinstance(node.value, ast.Constant)
                        and node.value.value is required[target.attr]
                    ):
                        del required[target.attr]
        return not required
