"""LB203: seed threading, from entry-point signatures across the call graph.

Every published number in this repository is a function of
``(experiment, config, seed)`` — that triple is literally the result
cache's key.  Two checks enforce it:

* **Entry points.**  Every module-level ``run_*`` function in
  ``repro.experiments`` must take a seed-carrying parameter
  (:data:`SEED_PARAMS`), and that parameter must not default to
  ``None`` — a ``None`` seed means "let the RNG self-seed from the OS",
  exactly the ambient randomness the whole stack is built to avoid.
  Deterministic entry points (analytic hardware-cost models, scripted
  worked examples) opt out with ``# lb: noqa[LB203]`` and a comment
  saying why no randomness is involved.
* **Flow.**  A signature is easy to satisfy vacuously — pass the seed
  to a helper that drops it on the floor and every run still self-seeds
  from the OS.  So every seed-carrying parameter of every function in
  the ``repro`` package must *reach a sink* — an RNG or derived-seed
  constructor, a ``self.*`` store (deliberate threading for later use),
  a return value (the caller inherits the obligation), or an arithmetic
  use (seed derivation).  Forwarding to another in-project function
  discharges the obligation only if that function's matching parameter
  reaches a sink itself, computed recursively over the resolved call
  graph; forwarding to code outside the index is trusted (no view
  inside, so no claim — a documented false-negative source, never a
  false positive).
"""

from repro.analysis.core import Finding, Rule, register

SEED_PARAMS = ("seed", "seeds", "base_seed", "root_seed", "lfsr_seed")

#: Call-target suffixes that consume a seed by construction.
SINK_SUFFIXES = frozenset((
    "Random", "RandomState", "default_rng", "SeedSequence", "seed",
    "getrandbits", "child_seed", "derive_seed", "spawn_seed",
))

_MAX_DEPTH = 8


@register
class SeedFlowRule(Rule):
    id = "LB203"
    name = "seed-flow"
    description = (
        "experiment entry point without a fixed seed parameter, or a "
        "seed parameter that never reaches an RNG or derived-seed sink"
    )
    project = True

    def check_project(self, project):
        memo = {}
        for key in sorted(project.funcs):
            func = project.funcs[key]
            if not _in_repro(func.module):
                continue
            summary = func.summary
            if _is_entry_point(func):
                for finding in self._check_signature(project, func):
                    yield finding
            if _is_abstract(summary):
                continue
            for param in summary["params"]:
                if param not in SEED_PARAMS:
                    continue
                if self._consumed(project, func, param, memo, 0):
                    continue
                yield Finding(
                    self.id,
                    project._func_path(func),
                    summary["line"], 0,
                    "seed parameter {!r} of {} never reaches an RNG, "
                    "derived-seed constructor, store or return — the "
                    "caller's seed is silently discarded and the run "
                    "self-seeds".format(param, key.split(":", 1)[1]),
                    summary["code"],
                )

    def _check_signature(self, project, func):
        summary = func.summary
        path = project._func_path(func)
        seed_params = [p for p in summary["params"] if p in SEED_PARAMS]
        if not seed_params:
            yield Finding(
                self.id, path, summary["line"], 0,
                "experiment entry point {}() takes no seed parameter "
                "({}) — results cannot be keyed or replicated; "
                "deterministic entry points should say so with a "
                "noqa".format(summary["name"], "/".join(SEED_PARAMS[:2])),
                summary["code"],
            )
        for param in seed_params:
            if param in summary["none_defaults"]:
                yield Finding(
                    self.id, path, summary["line"], 0,
                    "{}() defaults {}=None — a None seed falls back to "
                    "ambient OS randomness; default to a fixed "
                    "integer".format(summary["name"], param),
                    summary["code"],
                )

    def _consumed(self, project, func, param, memo, depth):
        key = (func.key, param)
        if key in memo:
            return memo[key]
        if depth > _MAX_DEPTH:
            return True  # recursion bound: trust rather than accuse
        memo[key] = True  # cycles count as consumed (no false positives)
        result = self._consumed_uncached(project, func, param, memo, depth)
        memo[key] = result
        return result

    def _consumed_uncached(self, project, func, param, memo, depth):
        summary = func.summary
        uses = summary["param_uses"].get(param, {})
        # Arithmetic / computed use: the seed feeds a derivation.
        if uses.get("escapes"):
            return True
        # Closure capture: a nested function reads the name — the
        # factory pattern (``def make(): return Random(seed)``).
        if self._captured_by_descendant(project, func, param):
            return True
        # Stored on self (threading for later use) or returned.
        for descriptor in summary["self_assigns"].values():
            if descriptor.get("k") == "name" and descriptor.get("n") == param:
                return True
        for descriptor in summary["returns"]:
            if descriptor.get("k") == "name" and descriptor.get("n") == param:
                return True
        # Passed to a thread/process entry: consumed there.
        for spawn in summary["spawns"]:
            if param in spawn["args"]:
                return True
        # Forwarded into calls.
        for record in summary["calls"]:
            slots = [
                index for index, arg in enumerate(record["args"])
                if arg == param
            ]
            kw_slots = [
                name for name, arg in record["kwargs"].items()
                if arg == param
            ]
            if not slots and not kw_slots:
                continue
            target_last = record["t"].rsplit(".", 1)[-1]
            if target_last in SINK_SUFFIXES or "seed" in target_last.lower() \
                    or "rng" in target_last.lower():
                return True
            callee_key = project.resolve_call(func, record)
            if callee_key is None:
                return True  # out-of-index callee: trusted
            callee = project.funcs[callee_key]
            params = list(callee.summary["params"])
            if params and params[0] == "self" and \
                    callee.summary["cls"] is not None:
                params = params[1:]
            for slot in slots:
                if slot < len(params) and self._consumed(
                        project, callee, params[slot], memo, depth + 1):
                    return True
            for name in kw_slots:
                if name in callee.summary["params"] and self._consumed(
                        project, callee, name, memo, depth + 1):
                    return True
        return False

    def _captured_by_descendant(self, project, func, param):
        target = func.summary["qualname"]
        prefix = func.module + ":"
        for key, other in project.funcs.items():
            if not key.startswith(prefix) or other is func:
                continue
            if param not in other.summary["name_reads"]:
                continue
            if param in other.summary["params"]:
                continue  # shadowed: its own parameter, not our capture
            parent = other.summary.get("parent")
            hops = 0
            while parent is not None and hops < 8:
                if parent == target:
                    return True
                owner = project.funcs.get(prefix + parent)
                if owner is None:
                    break
                parent = owner.summary.get("parent")
                hops += 1
        return False


def _in_repro(module):
    return module == "repro" or module.startswith("repro.")


def _is_entry_point(func):
    """A module-level ``run_*`` function of ``repro.experiments``."""
    summary = func.summary
    return (
        (func.module == "repro.experiments"
         or func.module.startswith("repro.experiments."))
        and summary["cls"] is None
        and summary["parent"] is None
        and summary["name"].startswith("run_")
    )


def _is_abstract(summary):
    for record in summary["raises"]:
        if record["exc"].rsplit(".", 1)[-1] == "NotImplementedError":
            return True
    return False
