"""LB101: no nondeterminism inside the simulation core.

Bit-identical reproduction (checkpoint/resume equality, ``--jobs N`` ==
``--jobs 1``, the strict-mode kernel cross-check) requires that every
random draw inside the simulator flows through a seeded
:class:`repro.sim.rng.RandomStream` and that nothing observable depends
on wall-clock time, OS entropy, hash randomization or unordered
container iteration.  This rule bans, inside the deterministic
packages:

* the module-level :mod:`random` API (``random.random()`` …) — ambient,
  process-global state (seeded ``random.Random(...)`` instances are
  fine and are exactly what ``RandomStream`` wraps);
* wall-clock reads: ``time.time``, ``time.perf_counter``,
  ``time.monotonic`` and friends;
* OS entropy: ``os.urandom``, ``uuid.uuid1``/``uuid4``, the
  :mod:`secrets` module;
* direct iteration over a set display / ``set()`` / ``frozenset()``
  value — iteration order depends on ``PYTHONHASHSEED`` for str
  elements, so a set feeding an arbitration or scheduling decision is a
  run-to-run hazard (wrap in ``sorted(...)``);
* unsorted directory listings (``os.listdir``, ``os.scandir``,
  ``glob.glob``, ``Path.iterdir``) — filesystem order is arbitrary;
* the builtin ``hash()`` outside a ``__hash__`` method — salted per
  process for strings.
"""

import ast

from repro.analysis.core import Rule, register
from repro.analysis.visitors import call_name

#: Packages whose behaviour must be bit-reproducible.  ``repro.bench``
#: and ``repro.experiments`` are deliberately absent: timing harnesses
#: read the clock and supervisors enforce wall-clock timeouts, both
#: legitimately outside the simulated world.
DETERMINISTIC_PACKAGES = (
    "repro.sim",
    "repro.arbiters",
    "repro.bus",
    "repro.core",
    "repro.traffic",
    "repro.atm",
    "repro.faults",
    "repro.metrics",
)

_AMBIENT_RANDOM = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "expovariate", "gauss", "normalvariate",
    "seed", "getrandbits", "betavariate", "triangular", "vonmisesvariate",
}
_WALL_CLOCK = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}
_LISTING_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}


@register
class NondeterminismRule(Rule):
    id = "LB101"
    name = "nondeterminism"
    description = (
        "ambient randomness, wall-clock reads, OS entropy, or "
        "hash-order-dependent iteration inside the deterministic core"
    )

    def check(self, source):
        if not source.in_package(*DETERMINISTIC_PACKAGES):
            return
        hash_method_spans = _method_spans(source.tree, "__hash__")
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(source, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(source, node, hash_method_spans)
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                finding = self._set_iteration(source, iterable)
                if finding:
                    yield finding

    def _check_import(self, source, node):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "secrets":
                    yield source.finding(
                        self.id, node,
                        "import of 'secrets' (OS entropy) in the "
                        "deterministic core",
                    )
        else:
            if node.module == "random":
                names = [
                    alias.name for alias in node.names
                    if alias.name in _AMBIENT_RANDOM
                ]
                if names:
                    yield source.finding(
                        self.id, node,
                        "from-import of module-level RNG ({}) — route "
                        "randomness through repro.sim.rng.RandomStream"
                        .format(", ".join(sorted(names))),
                    )
            elif node.module == "time":
                names = [
                    alias.name for alias in node.names
                    if alias.name in _WALL_CLOCK
                ]
                if names:
                    yield source.finding(
                        self.id, node,
                        "from-import of wall-clock function ({}) in the "
                        "deterministic core".format(", ".join(sorted(names))),
                    )
            elif node.module == "secrets":
                yield source.finding(
                    self.id, node,
                    "import from 'secrets' (OS entropy) in the "
                    "deterministic core",
                )

    def _check_call(self, source, node, hash_method_spans):
        name = call_name(node)
        if name is None:
            return
        module, _, attr = name.rpartition(".")
        if module == "random" and attr in _AMBIENT_RANDOM:
            yield source.finding(
                self.id, node,
                "call to module-level random.{}() — ambient process-global "
                "RNG; use a seeded repro.sim.rng.RandomStream".format(attr),
            )
        elif module == "time" and attr in _WALL_CLOCK:
            yield source.finding(
                self.id, node,
                "wall-clock read time.{}() in the deterministic core — "
                "simulated time must come from the kernel cycle"
                .format(attr),
            )
        elif name in ("os.urandom", "uuid.uuid1", "uuid.uuid4"):
            yield source.finding(
                self.id, node,
                "call to {}() draws OS entropy — not reproducible from "
                "a seed".format(name),
            )
        elif name in _LISTING_CALLS or attr == "iterdir":
            if not self._is_sorted_immediately(source, node):
                yield source.finding(
                    self.id, node,
                    "unsorted directory listing {}() — filesystem order "
                    "is arbitrary; wrap in sorted(...)".format(name),
                )
        elif name == "hash":
            if not _inside_spans(node, hash_method_spans):
                yield source.finding(
                    self.id, node,
                    "builtin hash() is salted per process for str — not "
                    "stable across runs; use zlib.crc32 or an explicit key",
                )

    def _set_iteration(self, source, iterable):
        if isinstance(iterable, ast.Set) or isinstance(iterable, ast.SetComp):
            return source.finding(
                self.id, iterable,
                "iteration over a set — order depends on PYTHONHASHSEED "
                "for str elements; iterate sorted(...) instead",
            )
        name = call_name(iterable)
        if name in ("set", "frozenset"):
            return source.finding(
                self.id, iterable,
                "iteration over {}(...) — unordered; iterate sorted(...) "
                "instead".format(name),
            )
        return None

    def _is_sorted_immediately(self, source, node):
        parent = source.parents.get(node)
        if isinstance(parent, ast.Starred):
            parent = source.parents.get(parent)
        return isinstance(parent, ast.Call) and call_name(parent) == "sorted"


def _method_spans(tree, method_name):
    spans = []
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == method_name
        ):
            spans.append((node.lineno, getattr(node, "end_lineno", node.lineno)))
    return spans


def _inside_spans(node, spans):
    return any(start <= node.lineno <= end for start, end in spans)
