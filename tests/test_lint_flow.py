"""Unit tests for the whole-program flow engine (PR 10).

Covers the layers under the LB2xx rules directly: summary extraction,
call-graph construction (including thread-target and closure edges),
thread-root discovery, the entry-held lock fixpoint, and the seeded
race the lock-discipline rule exists to catch — the queue-shaped
fixture with its lock acquisition surgically removed.
"""

import os

from repro.analysis.core import SourceFile, lint_source
from repro.analysis.flow import build_project, extract_summary

FIXTURES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "lint"
)


def summarize(text, module="repro.flowtest", path="flowtest.py"):
    return extract_summary(SourceFile(path, text, module=module))


def project_of(*module_texts):
    return build_project(
        summarize(text, module=module, path=module.replace(".", "/") + ".py")
        for module, text in module_texts
    )


# ---------------------------------------------------------------------------
# Summary extraction.
# ---------------------------------------------------------------------------


def test_summary_records_accesses_with_held_locks():
    summary = summarize(
        "import threading\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.value = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.value += 1\n"
        "    def peek(self):\n"
        "        return self.value\n"
    )
    bump = summary["funcs"]["Box.bump"]
    writes = [a for a in bump["accesses"] if a[1] == "value"]
    assert writes and writes[0][2] == "write"
    assert "self._lock" in writes[0][5]
    peek = summary["funcs"]["Box.peek"]
    reads = [a for a in peek["accesses"] if a[1] == "value"]
    assert reads and reads[0][2] == "read" and reads[0][5] == []


def test_summary_records_thread_spawns_and_daemon_flag():
    summary = summarize(
        "import threading\n"
        "def go(target):\n"
        "    threading.Thread(target=worker, daemon=True).start()\n"
        "def worker():\n"
        "    pass\n"
    )
    spawns = summary["funcs"]["go"]["spawns"]
    assert len(spawns) == 1
    assert spawns[0]["kind"] == "thread"
    assert spawns[0]["target"] == "worker"
    assert spawns[0]["daemon"] is True


def test_summary_records_free_variable_reads_for_closures():
    summary = summarize(
        "def outer(seed):\n"
        "    def inner():\n"
        "        return seed + 1\n"
        "    return inner\n"
    )
    assert "seed" in summary["funcs"]["outer.inner"]["name_reads"]


def test_lazy_export_tables_read_as_import_bindings():
    summary = summarize(
        "from repro._lazy import lazy_exports\n"
        "__all__, __getattr__, __dir__ = lazy_exports(globals(), {\n"
        "    '.engine': ('Engine', 'start'),\n"
        "    'repro.other.models': ['Spec', 'Thing'],\n"
        "})\n",
        module="repro.flowtest",
    )
    imports = summary["imports"]
    assert imports["Engine"] == "repro.flowtest.engine.Engine"
    assert imports["start"] == "repro.flowtest.engine.start"
    assert imports["Spec"] == "repro.other.models.Spec"
    assert imports["Thing"] == "repro.other.models.Thing"
    # A call that is not the export helper binds nothing.
    other = summarize(
        "def lazy_exports(namespace, table):\n"
        "    return table\n"
        "names = lazy_exports(globals(), {'.engine': ('Engine',)})\n"
    )
    assert "Engine" not in other["imports"]


def test_lazy_package_exports_resolve_one_re_export_hop():
    # service/queue.py imports JobSpec from repro.experiments, whose
    # __init__ binds it through its lazy export table, not an import.
    root = os.path.join(os.path.dirname(FIXTURES), "..", "..", "src", "repro")
    summaries = []
    for relative in ("service/queue.py", "experiments/__init__.py",
                     "experiments/supervisor.py"):
        path = os.path.normpath(os.path.join(root, relative))
        with open(path) as handle:
            summaries.append(extract_summary(SourceFile(path, handle.read())))
    project = build_project(summaries)
    assert project.resolve_name("repro.service.queue", "JobSpec") == \
        "repro.experiments.supervisor.JobSpec"
    assert "repro.experiments.supervisor.JobSpec" in project.classes


# ---------------------------------------------------------------------------
# Call graph and thread roots.
# ---------------------------------------------------------------------------


def test_call_graph_resolves_methods_functions_and_thread_targets():
    project = project_of((
        "repro.flowtest",
        "import threading\n"
        "class Engine:\n"
        "    def start(self):\n"
        "        threading.Thread(target=self._loop, daemon=True).start()\n"
        "    def _loop(self):\n"
        "        self._step()\n"
        "    def _step(self):\n"
        "        helper()\n"
        "def helper():\n"
        "    pass\n"
    ))
    edges = {(caller, callee) for caller, _, callee in project.call_edges}
    assert ("repro.flowtest:Engine._loop",
            "repro.flowtest:Engine._step") in edges
    assert ("repro.flowtest:Engine._step", "repro.flowtest:helper") in edges
    roots = {root.name: root for root in project.roots}
    assert "thread:Engine._loop" in roots
    assert roots["thread:Engine._loop"].daemon is True
    # Reachability flows from the spawn target through the call graph.
    helper = project.funcs["repro.flowtest:helper"]
    assert "thread:Engine._loop" in helper.roots


def test_http_handler_do_methods_are_thread_roots():
    project = project_of((
        "repro.flowtest",
        "class Handler(BaseHTTPRequestHandler):\n"
        "    def do_GET(self):\n"
        "        self.render()\n"
        "    def render(self):\n"
        "        pass\n"
    ))
    roots = {root.name: root for root in project.roots}
    assert "http:Handler" in roots
    assert roots["http:Handler"].kind == "http"
    render = project.funcs["repro.flowtest:Handler.render"]
    assert "http:Handler" in render.roots


def test_signal_handlers_are_thread_roots():
    project = project_of((
        "repro.flowtest",
        "import signal\n"
        "def install():\n"
        "    signal.signal(signal.SIGTERM, on_term)\n"
        "def on_term(signum, frame):\n"
        "    pass\n"
    ))
    assert any(root.name == "signal:on_term" for root in project.roots)


def test_unreached_functions_belong_to_the_main_root():
    project = project_of(("repro.flowtest", "def lonely():\n    pass\n"))
    lonely = project.funcs["repro.flowtest:lonely"]
    assert lonely.roots == {"main"}


# ---------------------------------------------------------------------------
# Entry-held lock fixpoint.
# ---------------------------------------------------------------------------


def test_helper_called_only_under_lock_inherits_entry_held():
    project = project_of((
        "repro.flowtest",
        "import threading\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.value = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self._apply()\n"
        "    def _apply(self):\n"
        "        self.value += 1\n"
    ))
    apply_func = project.funcs["repro.flowtest:Box._apply"]
    held = {lock.describe() for lock in apply_func.entry_held}
    assert held == {"self._lock (Box)"}


def test_one_unlocked_caller_breaks_the_entry_held_intersection():
    project = project_of((
        "repro.flowtest",
        "import threading\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def locked(self):\n"
        "        with self._lock:\n"
        "            self._apply()\n"
        "    def unlocked(self):\n"
        "        self._apply()\n"
        "    def _apply(self):\n"
        "        pass\n"
    ))
    apply_func = project.funcs["repro.flowtest:Box._apply"]
    assert apply_func.entry_held == frozenset()


# ---------------------------------------------------------------------------
# The seeded race: the queue-shaped bug LB201 exists to catch.
# ---------------------------------------------------------------------------


def _queue_fixture_source():
    with open(os.path.join(FIXTURES, "lb201_queue.py")) as handle:
        return handle.read()


def test_queue_fixture_is_clean_with_its_lock():
    assert lint_source(
        _queue_fixture_source(), path="lb201_queue.py"
    ) == []


def test_removing_the_lock_acquisition_yields_the_race_finding():
    source = _queue_fixture_source()
    guarded = (
        "        with self._lock:\n"
        "            self.pending.append(item)\n"
    )
    assert guarded in source
    stripped = source.replace(
        guarded, "        self.pending.append(item)\n"
    )
    findings = lint_source(stripped, path="lb201_queue.py")
    races = [f for f in findings if f.rule == "LB201"]
    assert races, "stripping the lock must surface the race"
    message = races[0].message
    # The finding names the attribute, both thread roots, and the lock
    # that the other sites hold.
    assert "'pending'" in message
    assert "main" in message and "thread:MiniQueue._drain" in message
    assert "self._lock (MiniQueue)" in message


def test_project_findings_do_not_depend_on_summary_order():
    modules = [
        (
            "repro.flowtest.a",
            "import threading\n"
            "class Shared:\n"
            "    def __init__(self):\n"
            "        self.hits = 0\n"
            "    def start(self):\n"
            "        threading.Thread(target=self.work, daemon=True).start()\n"
            "    def work(self):\n"
            "        self.hits += 1\n"
            "    def poke(self):\n"
            "        self.hits += 1\n"
        ),
        ("repro.flowtest.b", "def idle():\n    pass\n"),
    ]
    forward = project_of(*modules)
    backward = project_of(*reversed(modules))
    from repro.analysis.rules.lb201_races import LockDisciplineRule

    first = [f.as_dict() for f in LockDisciplineRule().check_project(forward)]
    second = [
        f.as_dict() for f in LockDisciplineRule().check_project(backward)
    ]
    assert first == second and first
