"""Spans and per-layer call timers for the ``--trace`` run.

The benchmark times the program from outside: it replaces class,
instance or module attributes with timers that call through to the
original, and never edits the program.  Coarse spans (one per test-bed
run, sweep phase or request) live in memory with an id and a parent;
timed calls inside them only bump a per-layer cell on the enclosing
span, ``[calls, raw_ns, child_ns, c_self, c_full]``:

* ``raw_ns`` is the measured time of the calls;
* ``child_ns`` is what timed calls nested inside them took, each plus
  the timer cost it added (for threaded timers; class timers leave
  nesting to a static ``{layer: parent layer}`` map);
* ``c_self`` and ``c_full`` are the calibrated cost of one timer: the
  part inside its own measurement, and all it adds to its caller.

A layer's net time is ``raw - calls * c_self`` and its self time is its
net time minus its children's net time and timer cost, so self times
are net of tracing overhead.

Two timers exist.  :func:`method_timer` serves the simulator's
per-cycle methods: it sits on the class and counts into one shared cell
that each span takes the difference of, which keeps its cost down.
:func:`threaded_timer` serves everything else: it sits on an instance
or module, finds the calling thread's span at call time and tracks
nesting as it happens, so a layer may be called from any thread.
"""

import contextlib
import itertools
import json
import statistics
import threading
import time

_clock = time.perf_counter_ns
_MISSING = object()


class Span:
    """One coarse unit of work: a test-bed run, a sweep phase, a request."""

    __slots__ = ("id", "parent", "name", "thread", "start", "end", "attrs",
                 "frames", "cells")

    def __init__(self, span_id, parent, name, attrs):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.thread = threading.current_thread().name
        self.attrs = attrs
        self.start = _clock()
        self.end = None
        # frames[-1] accumulates the cost of threaded-timer calls made by
        # the innermost open one; frames[0] is the span's own level.
        self.frames = [0]
        self.cells = {}  # (layer, method) -> [calls, raw, child, c_self, c_full]

    def cell(self, layer, method, cost):
        cell = self.cells.get((layer, method))
        if cell is None:
            cell = self.cells[(layer, method)] = [0, 0, 0, cost[0], cost[1]]
        return cell

    @property
    def wall_ns(self):
        return None if self.end is None else self.end - self.start

    def record(self):
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "thread": self.thread,
            "attrs": self.attrs,
            "start_ns": self.start,
            "end_ns": self.end,
            "layers": {
                "{}:{}".format(layer, method): {
                    "calls": cell[0], "raw_ns": cell[1], "child_ns": cell[2],
                }
                for (layer, method), cell in self.cells.items()
            },
        }


def _arity(function):
    """Parameter count of a plain function without defaults, else None."""
    code = getattr(function, "__code__", None)
    if code is None or function.__defaults__ or code.co_flags & 0x0C:
        return None
    return code.co_argcount if code.co_argcount in (1, 2, 3) else None


def method_timer(function, cell):
    """Time ``function``, a method installed on its class, into ``cell``.

    Specialized by arity: the simulator's per-cycle methods take at most
    two arguments besides ``self``, and ``*args`` forwarding would
    double the cost of the cheapest ones.
    """
    clock = _clock
    arity = _arity(function)
    if arity == 1:
        def timed(self):
            start = clock()
            result = function(self)
            cell[1] += clock() - start
            cell[0] += 1
            return result
    elif arity == 2:
        def timed(self, a):
            start = clock()
            result = function(self, a)
            cell[1] += clock() - start
            cell[0] += 1
            return result
    elif arity == 3:
        def timed(self, a, b):
            start = clock()
            result = function(self, a, b)
            cell[1] += clock() - start
            cell[0] += 1
            return result
    else:
        def timed(*args, **kwargs):
            start = clock()
            result = function(*args, **kwargs)
            cell[1] += clock() - start
            cell[0] += 1
            return result
    return timed


def threaded_timer(current, layer, method, fn, cost, on_call=None):
    """Time ``fn`` into the calling thread's current span.

    ``on_call(args, result)`` runs after the measurement and is charged
    to nobody: it is the benchmark's bookkeeping, not the program's.
    """
    clock = _clock
    c_full = cost[1]

    def timed(*args, **kwargs):
        span = current()
        frames = span.frames
        frames.append(0)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            cell = span.cell(layer, method, cost)
            cell[0] += 1
            cell[1] += elapsed
            cell[2] += frames.pop()
        if on_call is not None:
            on_call(args, result)
        frames[-1] += elapsed + c_full
        return result

    return timed


class _Probe:
    def m0(self):
        return None

    def m1(self, a):
        return a

    def m2(self, a, b):
        return a

    def mv(self, a=None):
        return a


# Call loops with the same shape as the program's own call sites,
# ``obj.method(...)``, whose lookup a timer on the class or on the
# instance then intercepts.
def _loop_empty(obj, count):
    for _ in range(count):
        pass


def _loop0(obj, count):
    for _ in range(count):
        obj.m0()


def _loop1(obj, count):
    for _ in range(count):
        obj.m1(1)


def _loop2(obj, count):
    for _ in range(count):
        obj.m2(1, 2)


def _loopv(obj, count):
    for _ in range(count):
        obj.mv(1)


_LOOPS = {"m0": _loop0, "m1": _loop1, "m2": _loop2, "mv": _loopv}


def calibrate(method, install, calls=20000, reps=7):
    """``(c_self, c_full)`` in ns for the timer ``install`` sets up.

    ``install(probe, method)`` puts a timer on a fresh probe object (or
    its class) and returns the timer's cell.  ``c_full`` is what one
    timed call adds to its caller's wall time; ``c_self`` is the part of
    that inside the timer's own measurement.  Both are medians over
    ``reps`` loops calling a no-op ``method``, bare and timed, against
    an empty loop.
    """
    loop = _LOOPS[method]
    full, inside = [], []
    for _ in range(reps):
        probe = type("Probe", (_Probe,), {})()
        start = _clock()
        _loop_empty(probe, calls)
        empty = _clock() - start
        start = _clock()
        loop(probe, calls)
        direct = _clock() - start
        cell = install(probe, method)
        start = _clock()
        loop(probe, calls)
        wrapped = _clock() - start
        full.append((wrapped - direct) / calls)
        inside.append((cell[1] - (direct - empty)) / calls)
    return statistics.median(inside), statistics.median(full)


def _install_method_timer(probe, method):
    cell = [0, 0, 0, 0, 0]
    cls = type(probe)
    setattr(cls, method, method_timer(getattr(cls, method), cell))
    return cell


def _install_threaded_timer(probe, method):
    span = Span(0, None, "calibration", {})
    setattr(probe, method, threaded_timer(
        lambda: span, "calibration", method, getattr(probe, method), (0, 0),
    ))
    return span.cell("calibration", method, (0, 0))


class Tracer:
    """In-memory spans, per-layer timers and their calibration."""

    def __init__(self, cost=None):
        self.spans = []
        self.ambient = None  # span id new threads' work belongs to
        self.waits = {}  # layer -> [count, ns] measured between calls
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []
        self._method_cells = {}  # (layer, method) -> class-timer cell
        self._installed = set()  # keys of class timers now in place
        self.cost = cost or self._calibrate()

    @staticmethod
    def _calibrate():
        # The first loops of a process run slow (cold caches, interpreter
        # specialization warming up); one discarded pass absorbs that.
        calibrate("m1", _install_method_timer)
        cost = {
            arity: calibrate(method, _install_method_timer)
            for arity, method in ((1, "m0"), (2, "m1"), (3, "m2"),
                                  (None, "mv"))
        }
        cost["threaded"] = calibrate("m1", _install_threaded_timer)
        return cost

    # -- spans ------------------------------------------------------------

    def _new_span(self, name, parent, attrs):
        with self._lock:
            span = Span(next(self._ids), parent, name, attrs)
            self.spans.append(span)
        return span

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # A thread's work outside any span of its own (server
            # handlers, the service engine) lands on a per-thread root
            # whose parent is the span in flight when it started.
            root = self._new_span(
                "thread:" + threading.current_thread().name, self.ambient,
                {},
            )
            stack = self._local.stack = [root]
        return stack

    def current(self):
        """The calling thread's innermost open span."""
        return self._stack()[-1]

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """A span; class-timer counts made while it is open land on it.

        Class timers count into shared cells, so spans using them must
        not nest: each takes the difference of the cells across itself.
        """
        stack = self._stack()
        span = self._new_span(name, stack[-1].id, attrs)
        before = {key: cell[:2] for key, cell in self._method_cells.items()}
        stack.append(span)
        try:
            yield span
        finally:
            span.end = _clock()
            stack.pop()
            for key, cell in self._method_cells.items():
                calls, raw = before.get(key, (0, 0))
                if cell[0] > calls:
                    span.cells[key] = [cell[0] - calls, cell[1] - raw, 0,
                                       cell[3], cell[4]]

    # -- installing timers -------------------------------------------------

    def replace(self, obj, attr, value):
        """Set ``obj.attr`` until :meth:`uninstall` (hooks, not timers)."""
        self._restore.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, value)

    def time_calls(self, obj, attr, layer, on_call=None):
        """Time every call of ``obj.attr`` under ``layer`` until uninstall.

        For an instance or a module: each call finds the calling thread's
        span, so it may come from any thread.
        """
        self.replace(obj, attr, threaded_timer(
            self.current, layer, attr, getattr(obj, attr),
            self.cost["threaded"], on_call,
        ))

    def after_calls(self, obj, attr, hook):
        """Call ``hook(args, result)`` after every ``obj.attr`` call, untimed
        (for stamping waits between calls) until uninstall."""
        fn = getattr(obj, attr)

        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, result)
            return result

        self.replace(obj, attr, hooked)

    def time_method(self, cls, attr, layer):
        """Time ``cls.attr`` on the class itself until uninstall.

        For the simulator's per-cycle methods.  A timer set on each
        instance instead would turn CPython's specialized attribute
        access on those objects into dictionary lookups, slowing every
        other access of the object too, by amounts no calibration sees.
        """
        key = (layer, "{}.{}".format(cls.__name__, attr))
        if key in self._installed:
            return
        function = getattr(cls, attr)
        c_self, c_full = self.cost[_arity(function)]
        cell = self._method_cells.setdefault(key, [0, 0, 0, c_self, c_full])
        self._installed.add(key)
        self.replace(cls, attr, method_timer(function, cell))

    def uninstall(self):
        """Restore everything installed; counts so far are kept."""
        self._installed.clear()
        while self._restore:
            obj, attr, old = self._restore.pop()
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)

    def add_wait(self, layer, ns):
        """Account ``ns`` of waiting measured between two calls."""
        with self._lock:
            cell = self.waits.setdefault(layer, [0, 0])
            cell[0] += 1
            cell[1] += ns

    # -- summaries ----------------------------------------------------------

    def closed(self, name=None, **attrs):
        """Closed spans, optionally filtered by name and attributes."""
        return [
            span for span in self.spans
            if span.end is not None
            and (name is None or span.name == name)
            and all(span.attrs.get(k) == v for k, v in attrs.items())
        ]

    def totals(self, spans=None, parents=None):
        """``{layer: [calls, net_ns, child_ns, cost_ns]}`` over ``spans``.

        ``parents`` is the static nesting of class-timer layers: each
        such layer's net time plus timer cost is added to its parent's
        child time.  ``cost_ns`` is
        the timer cost the layer's calls added to their callers.
        """
        parents = parents or {}
        totals = {}
        for span in self.spans if spans is None else spans:
            for (layer, _), cell in span.cells.items():
                calls, raw, child, c_self, c_full = cell
                total = totals.setdefault(layer, [0, 0.0, 0.0, 0.0])
                total[0] += calls
                total[1] += raw - calls * c_self
                total[2] += child
                total[3] += calls * c_full
        for layer, parent in parents.items():
            if layer in totals and parent in totals:
                totals[parent][2] += totals[layer][1] + totals[layer][3]
        return totals

    def span_self_ns(self, span, parents=None):
        """A closed span's wall time outside its timed calls."""
        top = span.frames[0]
        for layer, total in self.totals([span], parents).items():
            if parents and layer in parents and parents[layer] is None:
                top += total[1] + total[3]
        return span.wall_ns - top

    def summary(self, parents=None):
        """Self-time table of the whole run, largest first."""
        totals = self.totals(parents=parents)
        rows = [
            {"layer": layer, "calls": calls, "net_s": net / 1e9,
             "self_s": (net - child) / 1e9, "timer_cost_s": cost / 1e9}
            for layer, (calls, net, child, cost) in totals.items()
        ]
        by_span = {}
        for span in self.closed():
            entry = by_span.setdefault(span.name, {"spans": 0, "wall_s": 0.0,
                                                   "self_s": 0.0})
            entry["spans"] += 1
            entry["wall_s"] += span.wall_ns / 1e9
            entry["self_s"] += self.span_self_ns(span, parents) / 1e9
        return {
            "layers": sorted(rows, key=lambda row: -row["self_s"]),
            "spans": by_span,
            "waits": {layer: {"count": c, "total_s": ns / 1e9}
                      for layer, (c, ns) in sorted(self.waits.items())},
            "calibration_ns": {
                str(kind): {"c_self": cost[0], "c_full": cost[1]}
                for kind, cost in self.cost.items()
            },
        }

    def write(self, path, parents=None):
        """Write every span, then the summary, as JSON lines."""
        summary = self.summary(parents)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.record()) + "\n")
            handle.write(json.dumps({"summary": summary}) + "\n")
        return summary


def self_times(totals):
    """Per-layer self seconds from :meth:`Tracer.totals`."""
    return {layer: (t[1] - t[2]) / 1e9 for layer, t in totals.items()}


def format_summary(summary, limit=12):
    """Human-readable self-time lines for stdout."""
    lines = ["self time by layer (net of tracing overhead):"]
    for row in summary["layers"][:limit]:
        lines.append("  {:<34} {:>12} calls {:>10.4f} s".format(
            row["layer"], row["calls"], row["self_s"]))
    for name, entry in sorted(summary["spans"].items()):
        lines.append("  span {:<29} {:>12} spans {:>10.4f} s self".format(
            name, entry["spans"], entry["self_s"]))
    return lines
