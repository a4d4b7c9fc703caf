"""Whole-program flow analysis under the linter (PR 10).

The per-file rules (LB101-LB107) see one AST at a time; the flow layer
sees the program: a project-wide module/symbol index, a call graph that
resolves ``self.method``, module functions and the indirect entry
points the concurrency stack actually uses (``threading.Thread``
targets, ``signal.signal`` handlers, ``add_completion_hook``
callbacks), per-class attribute access summaries, and a thread-entry
reachability pass that computes which code runs on which thread roots
and under which held locks.

Everything is derived from JSON-serializable :func:`extract_summary`
dicts, so the incremental cache can persist per-file extraction and a
warm run never re-parses an unchanged file — the project passes rebuild
from summaries alone.

Entry point: :func:`build_project` returns a :class:`Project` the
``project = True`` rules (LB201-LB204) consume.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".summary": ("SUMMARY_VERSION", "extract_summary"),
    ".project": (
        "AccessSite",
        "LockId",
        "Project",
        "ThreadRoot",
        "build_project",
    ),
})
