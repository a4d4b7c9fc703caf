"""LB104: hot-path caches must be invalidated by every mutator.

The arbitration hot path memoizes: the dynamic lottery manager caches
partial sums per request map, dropped on any ticket change.  A cache
like that is an invariant: *cache contents == function of the
attributes it was computed from*.  Any method that mutates one of those
attributes without invalidating leaves the cache serving stale sums —
grants drift from ticket holdings and no exception ever fires.

Statically, for every class that initializes a ``self.*_cache``
attribute in ``__init__``:

* the *fill sites* (``self.X_cache[key] = ...``) identify the cache's
  **dependencies**: the ``self.*`` attributes read inside the
  cache-miss block that computes the stored value;
* every other method that assigns to a dependency (plain, subscript or
  augmented assignment) must mention the cache attribute somewhere in
  its body (a ``.clear()``, a reassignment, a size check — any
  reference counts as having considered it); a mutator that never
  names the cache is flagged;
* if a dependency is also listed in ``state_attrs``, checkpoint restore
  rewrites it behind the cache's back, so the class must define a
  ``load_state_dict`` override that references the cache.
"""

import ast

from repro.analysis.core import Rule, register
from repro.analysis.visitors import (
    class_methods,
    class_tuple_attr,
    iter_classes,
    self_attr_reads,
    self_attr_target,
)


def _cache_attrs(init_node):
    """Attributes assigned in ``__init__`` whose name marks a cache."""
    caches = []
    for stmt in ast.walk(init_node):
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Subscript):
                continue
            attr = self_attr_target(target)
            if attr and "cache" in attr.lower():
                caches.append(attr)
    return caches


def _fill_dependencies(method_node, cache_attr):
    """Self-attributes read in the cache-miss blocks of ``method_node``.

    A fill site is ``self.<cache_attr>[...] = ...``; its surrounding
    block is the nearest enclosing ``if`` (the canonical
    compute-on-miss shape) or, failing that, the whole method.
    """
    parents = {}
    for node in ast.walk(method_node):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    deps = set()
    found_fill = False
    for node in ast.walk(method_node):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not isinstance(target, ast.Subscript):
                continue
            if self_attr_target(target) != cache_attr:
                continue
            found_fill = True
            block = node
            while block in parents and not isinstance(block, ast.If):
                block = parents[block]
            scope = block if isinstance(block, ast.If) else method_node
            deps |= self_attr_reads(scope)
    deps.discard(cache_attr)
    return deps if found_fill else None


@register
class CacheInvalidationRule(Rule):
    id = "LB104"
    name = "cache-invalidation"
    description = (
        "mutation of a cached computation's inputs without touching "
        "the cache (stale partial sums / lookup rows)"
    )

    def check(self, source):
        if not source.module:
            return
        for class_node in iter_classes(source.tree):
            methods = class_methods(class_node)
            init = methods.get("__init__")
            if init is None:
                continue
            for cache_attr in _cache_attrs(init):
                yield from self._check_cache(
                    source, class_node, methods, cache_attr
                )

    def _check_cache(self, source, class_node, methods, cache_attr):
        deps = set()
        filler_names = set()
        for name, method in methods.items():
            if name == "__init__":
                continue
            method_deps = _fill_dependencies(method, cache_attr)
            if method_deps is not None:
                deps |= method_deps
                filler_names.add(name)
        if not deps:
            return
        for name, method in methods.items():
            if name == "__init__" or name in filler_names:
                continue
            if self._references(method, cache_attr):
                continue
            for stmt in ast.walk(method):
                mutated = self._mutated_attr(stmt)
                if mutated in deps:
                    yield source.finding(
                        self.id, stmt,
                        "{}.{} mutates self.{} — an input of the "
                        "self.{} memo — without referencing the cache; "
                        "stale entries will keep serving the old "
                        "value".format(
                            class_node.name, name, mutated, cache_attr
                        ),
                    )
        state_attrs = set(class_tuple_attr(class_node, "state_attrs") or ())
        restored = sorted(deps & state_attrs)
        if restored:
            loader = methods.get("load_state_dict")
            if loader is None or not self._references(loader, cache_attr):
                yield source.finding(
                    self.id, class_node,
                    "{} snapshots cache input(s) {} in state_attrs but "
                    "{} — checkpoint restore rewrites them behind "
                    "self.{}, which must be invalidated in "
                    "load_state_dict".format(
                        class_node.name,
                        ", ".join(restored),
                        "defines no load_state_dict override"
                        if loader is None
                        else "its load_state_dict never touches the cache",
                        cache_attr,
                    ),
                )

    def _references(self, method, cache_attr):
        return cache_attr in self_attr_reads(method)

    def _mutated_attr(self, stmt):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                attr = self_attr_target(target)
                if attr:
                    return attr
        elif isinstance(stmt, ast.AugAssign):
            return self_attr_target(stmt.target)
        return None
