"""Visitor core: source model, rule registry, suppression handling.

The framework is deliberately dependency-free: files are parsed with
:mod:`ast`, rules are plain classes registered under stable IDs, and a
finding is a value object that a reporter or baseline can fingerprint.

Suppressions
------------
A finding on line *N* is suppressed when line *N* carries a trailing
``# lb: noqa`` comment — bare (suppresses every rule) or scoped to
specific rules: ``# lb: noqa[LB101]``, ``# lb: noqa[LB102,LB104]``.

Module directives
-----------------
Rules scope themselves by dotted module path (inferred from the file's
location under ``src/``).  A file outside the package tree — a test
fixture, a scratch script — can pretend to be part of a package with a
directive comment in its first ten lines::

    # lb: module=repro.sim.fixture

which is how the lint fixtures under ``tests/fixtures/lint/`` exercise
package-scoped rules.
"""

import ast
import os
import re
import tokenize

_NOQA_RE = re.compile(r"#\s*lb:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")
_MODULE_RE = re.compile(r"#\s*lb:\s*module\s*=\s*([A-Za-z0-9_.]+)")

#: Directory names never descended into when walking a tree.  ``fixtures``
#: is excluded so the deliberately-bad lint fixtures under
#: ``tests/fixtures/lint/`` do not fail a whole-tree run; tests lint them
#: by passing the files explicitly (explicit file arguments bypass the
#: exclusion).
DEFAULT_EXCLUDED_DIRS = (
    "__pycache__",
    ".git",
    ".pytest_cache",
    ".hypothesis",
    "fixtures",
)


class LintError(Exception):
    """Raised for unusable inputs (missing files, unparsable syntax)."""


class Finding:
    """One rule violation at a source location."""

    __slots__ = ("rule", "path", "line", "col", "message", "code")

    def __init__(self, rule, path, line, col, message, code=""):
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col
        self.message = message
        self.code = code

    def fingerprint(self):
        """Location-drift-tolerant identity used by the baseline: the
        rule, the file, and the *text* of the offending line (whitespace
        collapsed) — stable across unrelated edits that shift line
        numbers."""
        return (self.rule, self.path, normalize_code(self.code))

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def as_dict(self):
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "code": self.code,
        }

    def __repr__(self):
        return "Finding({}, {}:{}:{})".format(
            self.rule, self.path, self.line, self.col
        )


def normalize_code(code):
    """Collapse runs of whitespace so reformatting does not break the
    baseline match."""
    return " ".join(code.split())


class SourceFile:
    """A parsed source file plus everything rules need to scope and
    suppress: the AST (with parent links), the dotted module path, and
    the per-line noqa table."""

    def __init__(self, path, text, module=None):
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        try:
            self.tree = ast.parse(text, filename=path)
        except SyntaxError as error:
            raise LintError(
                "cannot parse {}: {}".format(path, error)
            ) from error
        self.parents = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        self.noqa = self._collect_noqa(text)
        self.module = module if module is not None else self._infer_module()

    # -- scoping ---------------------------------------------------------

    def _infer_module(self):
        directive = self._module_directive()
        if directive:
            return directive
        parts = self.path.replace(os.sep, "/").split("/")
        for name in ("src", "Lib", "site-packages"):
            if name in parts:
                parts = parts[parts.index(name) + 1:]
                break
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][:-3]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        # Only claim a dotted path when the file demonstrably lives in
        # the repro package; everything else stays unscoped.
        if "repro" in parts:
            parts = parts[parts.index("repro"):]
            return ".".join(parts)
        return ""

    def _module_directive(self):
        for line in self.lines[:10]:
            match = _MODULE_RE.search(line)
            if match:
                return match.group(1)
        return ""

    def in_package(self, *packages):
        """True when this file's module lies inside any of ``packages``
        (a dotted prefix match: ``repro.sim`` covers ``repro.sim.kernel``)."""
        for package in packages:
            if self.module == package or self.module.startswith(package + "."):
                return True
        return False

    # -- suppression -----------------------------------------------------

    def _collect_noqa(self, text):
        """Map line number -> set of suppressed rule IDs (``None`` in the
        set means "all rules").  Comments are located with
        :mod:`tokenize` so a ``# lb: noqa`` inside a string literal is
        not a suppression."""
        table = {}
        try:
            tokens = tokenize.generate_tokens(iter(self.lines_iter()).__next__)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                match = _NOQA_RE.search(token.string)
                if not match:
                    continue
                rules = table.setdefault(token.start[0], set())
                if match.group(1):
                    rules.update(
                        part.strip().upper()
                        for part in match.group(1).split(",")
                        if part.strip()
                    )
                else:
                    rules.add(None)
        except tokenize.TokenError:
            # Unterminated something; the ast parse already succeeded, so
            # just fall back to no suppressions past the break point.
            pass
        return table

    def lines_iter(self):
        for line in self.lines:
            yield line + "\n"

    def is_suppressed(self, rule_id, line):
        rules = self.noqa.get(line)
        if not rules:
            return False
        return None in rules or rule_id.upper() in rules

    # -- finding construction -------------------------------------------

    def code_at(self, line):
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule_id, node, message):
        """Build a finding anchored at ``node`` (or a bare line number)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line, col = node.lineno, getattr(node, "col_offset", 0)
        return Finding(
            rule_id, self.path, line, col, message, self.code_at(line)
        )


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` (stable, ``LB###``), ``name`` and
    ``description``, and implement :meth:`check` yielding
    :class:`Finding` objects.  Suppression is handled by the driver —
    rules simply report everything they see.

    Whole-program rules (the LB2xx family) set ``project = True`` and
    implement :meth:`check_project` instead: the driver runs them once
    per invocation against the :class:`~repro.analysis.flow.Project`
    built from every linted file's flow summary, after all per-file
    rules have run.
    """

    id = None
    name = None
    description = None
    #: True for rules that consume the whole-program index (phase two)
    #: instead of one file at a time.
    project = False

    def check(self, source):
        raise NotImplementedError

    def check_project(self, project):
        raise NotImplementedError


_REGISTRY = {}


def register(rule_class):
    """Class decorator adding a rule to the global registry."""
    if not rule_class.id:
        raise ValueError("rule {} has no id".format(rule_class.__name__))
    if rule_class.id in _REGISTRY:
        raise ValueError("duplicate rule id {}".format(rule_class.id))
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def get_rules(select=None):
    """Instantiate registered rules (optionally a subset by ID)."""
    _load_builtin_rules()
    if select is None:
        ids = sorted(_REGISTRY)
    else:
        ids = []
        for rule_id in select:
            rule_id = rule_id.strip().upper()
            if rule_id not in _REGISTRY:
                raise LintError("unknown rule id {!r}".format(rule_id))
            ids.append(rule_id)
    return [_REGISTRY[rule_id]() for rule_id in ids]


def _load_builtin_rules():
    # Importing the rules package triggers @register for every module.
    import repro.analysis.rules  # noqa: F401  (import for side effect)


class _AllRuleIds:
    """Lazy view of the registered IDs (registration happens on import)."""

    def __iter__(self):
        _load_builtin_rules()
        return iter(sorted(_REGISTRY))

    def __contains__(self, rule_id):
        _load_builtin_rules()
        return rule_id in _REGISTRY


ALL_RULE_IDS = _AllRuleIds()


# ---------------------------------------------------------------------------
# Drivers.  Linting is two-phase: per-file rules run against each
# SourceFile (parallelizable, cacheable by content hash); project rules
# run once against the whole-program index built from flow summaries.
# ---------------------------------------------------------------------------


def partition_rules(rules):
    """Split into ``(file_rules, project_rules)``."""
    file_rules = [r for r in rules if not getattr(r, "project", False)]
    project_rules = [r for r in rules if getattr(r, "project", False)]
    return file_rules, project_rules


def _project_findings(summaries, project_rules):
    """Phase two: build the project from summaries, run LB2xx rules,
    apply noqa suppression via the summaries' own noqa tables (the
    SourceFile may never have existed this run — cache hit)."""
    from repro.analysis.flow import build_project

    project = build_project(summaries)
    noqa = {
        summary["path"]: summary.get("noqa", {}) for summary in summaries
    }
    findings = []
    for rule in project_rules:
        for finding in rule.check_project(project):
            suppressed = noqa.get(finding.path, {}).get(str(finding.line))
            if suppressed is not None and (
                "" in suppressed or finding.rule.upper() in suppressed
            ):
                continue
            findings.append(finding)
    return findings


def lint_source(text, path="<string>", rules=None, module=None):
    """Lint a source string; returns the unsuppressed findings, sorted.

    Project rules see a single-file project — exactly how the
    self-contained lint fixtures exercise LB2xx."""
    from repro.analysis.flow import extract_summary

    source = SourceFile(path, text, module=module)
    file_rules, project_rules = partition_rules(
        rules if rules is not None else get_rules()
    )
    findings = _run(source, file_rules)
    if project_rules:
        findings.extend(
            _project_findings([extract_summary(source)], project_rules)
        )
        findings.sort(key=Finding.sort_key)
    return findings


def lint_file(path, rules=None):
    """Lint one file on disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise LintError("cannot read {}: {}".format(path, error)) from error
    return lint_source(text, path=_display_path(path), rules=rules)


def iter_python_files(paths, excluded_dirs=DEFAULT_EXCLUDED_DIRS):
    """Expand files/directories into a sorted list of ``.py`` files.

    Directories are walked recursively in sorted order (deterministic
    output on every filesystem); excluded directory names are pruned.
    Explicitly named files are always included, excluded or not.
    """
    result = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in excluded_dirs
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        result.append(os.path.join(root, name))
        elif os.path.isfile(path):
            result.append(path)
        else:
            raise LintError("no such file or directory: {!r}".format(path))
    return result


def _lint_one(display_path, text, file_rules):
    """Per-file phase for one file: findings (as dicts, already
    suppression-filtered) plus the flow summary.  Everything returned
    is JSON-serializable — the unit the incremental cache stores."""
    from repro.analysis.flow import extract_summary

    source = SourceFile(display_path, text)
    findings = _run(source, file_rules)
    return (
        [finding.as_dict() for finding in findings],
        extract_summary(source),
    )


def lint_paths(paths, rules=None, excluded_dirs=DEFAULT_EXCLUDED_DIRS,
               cache=None):
    """Lint files and directory trees; returns sorted findings.

    :param cache: a :class:`~repro.analysis.cache.LintCache`; hits skip
        parsing entirely and the caller is responsible for ``save()``.
    """
    if rules is None:
        rules = get_rules()
    file_rules, project_rules = partition_rules(rules)

    results = {}   # display path -> (finding dicts, summary)
    for file_path in iter_python_files(paths, excluded_dirs):
        display = _display_path(file_path)
        try:
            with open(file_path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise LintError(
                "cannot read {}: {}".format(file_path, error)
            ) from error
        digest = None
        if cache is not None:
            from repro.analysis.cache import content_digest
            digest = content_digest(text)
            entry = cache.lookup(display, digest)
            if entry is not None:
                results[display] = (entry["findings"], entry["summary"])
                continue
        finding_dicts, summary = _lint_one(display, text, file_rules)
        results[display] = (finding_dicts, summary)
        if cache is not None:
            cache.store(display, digest, finding_dicts, summary)

    findings, summaries = [], []
    for display in sorted(results):
        finding_dicts, summary = results[display]
        findings.extend(Finding(**d) for d in finding_dicts)
        summaries.append(summary)
    if project_rules:
        findings.extend(
            _project_findings_cached(results, summaries, project_rules,
                                     cache)
        )
    findings.sort(key=Finding.sort_key)
    return findings


def _project_findings_cached(results, summaries, project_rules, cache):
    """The whole-program findings, memoized on the full file set.

    The project passes are a pure function of every (path, digest)
    pair, so when not one file changed since the cached run the stored
    findings are replayed without building the project at all — that is
    what makes a fully warm run an order of magnitude faster than cold.
    """
    if cache is not None:
        from repro.analysis.cache import project_key

        key = project_key(
            (display, entry["digest"])
            for display, entry in (
                (display, cache.entries.get(display))
                for display in results
            )
            if entry is not None
        )
        # Only trust the key when every linted file has a cache entry
        # (files can be missing after a store-side failure).
        if all(display in cache.entries for display in results):
            replay = cache.project_lookup(key)
            if replay is not None:
                return [Finding(**d) for d in replay]
            computed = _project_findings(summaries, project_rules)
            cache.project_store(key, [f.as_dict() for f in computed])
            return computed
    return _project_findings(summaries, project_rules)


def _display_path(path):
    """Repo-relative, forward-slash path so baselines are portable."""
    rel = os.path.relpath(path)
    if not rel.startswith(".."):
        path = rel
    return path.replace(os.sep, "/")


def _run(source, rules):
    findings = []
    for rule in rules:
        for finding in rule.check(source):
            if not source.is_suppressed(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings
