"""Per-file extraction: everything the project passes need, as JSON.

One walk of a parsed :class:`~repro.analysis.core.SourceFile` produces
a plain-dict summary — module path, imports, classes, and a
:class:`FuncSummary` per function/method (including nested ones) — that
the incremental cache can persist and :mod:`.project` can consume
without ever touching the AST again.  Everything here is deliberately
approximate in documented ways:

* expressions are normalized to *dotted paths* (``self.queue.lease``,
  ``threading.Thread``) — subscripts, slices and computed receivers
  collapse to ``None`` and are ignored;
* held locks are tracked syntactically: the path of every ``with X:``
  context is recorded on each access/call inside the block, and the
  project pass later decides which paths actually name locks;
* aliasing through containers and locals is not tracked — storing a
  value in a dict and mutating it later is invisible (a documented
  false-negative, not a false-positive, source).
"""

import ast

#: Bump when the summary shape changes — invalidates the lint cache.
SUMMARY_VERSION = 3

#: Receiver method calls treated as *writes* to the receiver attribute
#: (mutating a container through an attribute is a write to shared
#: state just as much as rebinding the attribute is).
MUTATOR_METHODS = frozenset((
    "append", "appendleft", "extend", "insert", "add", "discard",
    "remove", "pop", "popleft", "popitem", "clear", "update",
    "setdefault", "sort", "reverse", "move_to_end", "__setitem__",
))

#: Call targets that start a thread in this process.
_THREAD_SPAWNS = frozenset(("threading.Thread", "Thread"))

#: Call targets that create another *process* (no shared memory, but a
#: fork/spawn while holding a lock is LB202's business).
_PROCESS_SPAWN_SUFFIXES = (
    "Process", "Popen", "fork", "posix_spawn", "posix_spawnp", "Pool",
)
_PROCESS_SPAWN_EXACT = frozenset((
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "os.system", "os.popen",
))


def dotted_path(node):
    """``a.b.c`` for Name/Attribute chains; ``super.m`` for
    ``super().m``; ``None`` for anything computed (calls, subscripts,
    literals)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    ):
        parts.append("super")
        return ".".join(reversed(parts))
    return None


def _value_descriptor(node):
    """A small JSON descriptor of an assigned/passed value, enough for
    type propagation and lock aliasing."""
    if isinstance(node, ast.Call):
        target = dotted_path(node.func)
        if target is None:
            return {"k": "other"}
        args = []
        for arg in node.args[:3]:
            path = dotted_path(arg)
            args.append(path if path is not None else "")
        return {"k": "call", "t": target, "a": args}
    path = dotted_path(node)
    if path is not None:
        if "." in path:
            return {"k": "attr", "p": path}
        return {"k": "name", "n": path}
    if isinstance(node, ast.Constant):
        return {"k": "const"}
    return {"k": "other"}


class _FuncExtractor:
    """Walks one function body, tracking the syntactic lock stack."""

    def __init__(self, source, qualname, node, cls, parent,
                 module_globals):
        self.source = source
        self.node = node
        self.module_globals = module_globals
        args = node.args
        params = [a.arg for a in args.posonlyargs]
        params += [a.arg for a in args.args]
        params += [a.arg for a in args.kwonlyargs]
        if args.vararg is not None:
            params.append(args.vararg.arg)
        if args.kwarg is not None:
            params.append(args.kwarg.arg)
        # Callable defaults (``func=helper``) are indirect
        # call edges when the parameter is later invoked.
        # ``None`` defaults are recorded for the seed rule (LB203).
        callable_defaults = {}
        none_defaults = []
        positional = args.posonlyargs + args.args
        offset = len(positional) - len(args.defaults)
        defaults = list(zip(positional[offset:], args.defaults))
        defaults += [
            (arg, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        for arg, default in defaults:
            if isinstance(default, ast.Constant) and default.value is None:
                none_defaults.append(arg.arg)
            path = dotted_path(default)
            if path is not None and "." not in path:
                callable_defaults[arg.arg] = path
        self.out = {
            "name": node.name,
            "qualname": qualname,
            "cls": cls,
            "parent": parent,
            "line": node.lineno,
            "code": source.code_at(node.lineno),
            "params": params,
            "callable_defaults": callable_defaults,
            "none_defaults": none_defaults,
            "accesses": [],       # [base, attr, kind, line, code, locks]
            "global_ops": [],     # [name, kind, line, code, locks]
            "calls": [],          # {t, args, kwargs, line, locks}
            "self_assigns": {},   # attr -> value descriptor
            "local_assigns": {},  # name -> value descriptor
            "spawns": [],         # {kind, target, args, daemon, line, ...}
            "handlers": [],       # {via, target, line}
            "raises": [],         # {exc, line, code}
            "returns": [],        # value descriptors of return values
            "param_uses": {p: {"escapes": False, "forwards": []}
                           for p in params},
            "name_reads": [],     # free/bare names read (closure uses)
        }
        self._locks = []
        self._name_reads = set()

    # -- helpers ---------------------------------------------------------

    def _locks_now(self):
        return list(self._locks)

    def _code(self, line):
        return self.source.code_at(line)

    def _access(self, base, attr, kind, line):
        self.out["accesses"].append(
            [base, attr, kind, line, self._code(line), self._locks_now()]
        )

    def _global_op(self, name, kind, line):
        self.out["global_ops"].append(
            [name, kind, line, self._code(line), self._locks_now()]
        )

    def _mark_param(self, name, escape=True):
        uses = self.out["param_uses"].get(name)
        if uses is not None and escape:
            uses["escapes"] = True

    def _record_path_access(self, path, kind, line):
        """Record a read/write of ``path`` when it matches a shape the
        project pass can attribute: ``self.x``, ``self.mid.x``,
        ``name.x`` or a bare module global."""
        if path is None:
            return
        parts = path.split(".")
        if parts[0] == "super":
            return
        if len(parts) == 1:
            if parts[0] in self.module_globals:
                self._global_op(parts[0], kind, line)
            elif kind != "read":
                # A write through a bare local: only parameter escape
                # tracking cares.
                self._mark_param(parts[0])
            return
        if parts[0] == "self":
            if len(parts) == 2:
                self._access("self", parts[1], kind, line)
            elif len(parts) == 3:
                self._access("selfattr:" + parts[1], parts[2], kind, line)
            return
        if len(parts) == 2:
            base = parts[0]
            if base in self.module_globals:
                # Attribute write through a module global (rare): treat
                # as a mutation of the global itself.
                self._global_op(base, kind, line)
            else:
                self._access("name:" + base, parts[1], kind, line)

    # -- statements ------------------------------------------------------

    def run(self):
        self._visit_body(self.node.body)
        self.out["name_reads"] = sorted(self._name_reads)
        return self.out

    def _visit_body(self, body):
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs get their own extractor (deferred code)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            pushed = 0
            for item in stmt.items:
                path = dotted_path(item.context_expr)
                if path is not None:
                    self._locks.append(path)
                    pushed += 1
                    self._record_path_access(path, "read",
                                             item.context_expr.lineno)
                else:
                    self._scan_expr(item.context_expr)
            self._visit_body(stmt.body)
            for _ in range(pushed):
                self._locks.pop()
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value)
            descriptor = _value_descriptor(stmt.value)
            for target in stmt.targets:
                self._handle_store(target, descriptor)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_expr(stmt.value)
                self._handle_store(stmt.target,
                                   _value_descriptor(stmt.value))
            return
        if isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value)
            path = dotted_path(stmt.target)
            if path is not None:
                self._record_path_access(path, "write", stmt.lineno)
                self._record_path_access(path, "read", stmt.lineno)
            elif isinstance(stmt.target, ast.Subscript):
                base = dotted_path(stmt.target.value)
                self._record_path_access(base, "write", stmt.lineno)
                self._scan_expr(stmt.target.slice)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                path = dotted_path(target)
                if path is not None:
                    self._record_path_access(path, "write", stmt.lineno)
                elif isinstance(target, ast.Subscript):
                    base = dotted_path(target.value)
                    self._record_path_access(base, "write", stmt.lineno)
                    self._scan_expr(target.slice)
            return
        if isinstance(stmt, ast.Raise):
            exc = stmt.exc
            name = ""
            if exc is not None:
                if isinstance(exc, ast.Call):
                    name = dotted_path(exc.func) or ""
                    self._scan_expr(exc)
                else:
                    name = dotted_path(exc) or ""
            if stmt.cause is not None:
                self._scan_expr(stmt.cause)
            self.out["raises"].append({
                "exc": name,
                "line": stmt.lineno,
                "code": self._code(stmt.lineno),
                "locks": self._locks_now(),
            })
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_expr(stmt.value)
                self.out["returns"].append(_value_descriptor(stmt.value))
            return
        if isinstance(stmt, ast.Expr):
            self._scan_expr(stmt.value)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_expr(stmt.test)
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter)
            self._handle_store(stmt.target, {"k": "other"})
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self._visit_body(stmt.body)
            for handler in stmt.handlers:
                self._visit_body(handler.body)
            self._visit_body(stmt.orelse)
            self._visit_body(stmt.finalbody)
            return
        if isinstance(stmt, (ast.Assert,)):
            self._scan_expr(stmt.test)
            if stmt.msg is not None:
                self._scan_expr(stmt.msg)
            return
        # Import/Global/Nonlocal/Pass/Break/Continue: nothing to track
        # (global *writes* surface through _handle_store on Name).

    def _handle_store(self, target, descriptor):
        if isinstance(target, ast.Name):
            self.out["local_assigns"][target.id] = descriptor
            if target.id in self.module_globals and self._is_global(
                    target.id):
                self._global_op(target.id, "write", target.lineno)
            return
        if isinstance(target, ast.Attribute):
            path = dotted_path(target)
            if path is not None:
                self._record_path_access(path, "write", target.lineno)
                parts = path.split(".")
                if len(parts) == 2 and parts[0] == "self":
                    self.out["self_assigns"].setdefault(
                        parts[1], descriptor
                    )
            else:
                self._scan_expr(target.value)
            return
        if isinstance(target, ast.Subscript):
            base = dotted_path(target.value)
            if base is not None:
                self._record_path_access(base, "write", target.lineno)
            else:
                self._scan_expr(target.value)
            self._scan_expr(target.slice)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._handle_store(element, {"k": "other"})
            return
        if isinstance(target, ast.Starred):
            self._handle_store(target.value, {"k": "other"})

    def _is_global(self, name):
        for node in ast.walk(self.node):
            if isinstance(node, ast.Global) and name in node.names:
                return True
        return False

    # -- expressions -----------------------------------------------------

    def _scan_expr(self, node):
        """Scan an expression for calls, reads and parameter uses."""
        if node is None:
            return
        if isinstance(node, ast.Call):
            self._record_call(node)
            return
        path = dotted_path(node)
        if path is not None:
            parts = path.split(".")
            if len(parts) == 1:
                if parts[0] in self.out["param_uses"]:
                    self._mark_param(parts[0])
                else:
                    self._name_reads.add(parts[0])
                    if parts[0] in self.module_globals:
                        self._global_op(parts[0], "read", node.lineno)
                return
            self._record_path_access(path, "read", node.lineno)
            if parts[0] in self.out["param_uses"]:
                self._mark_param(parts[0])
            elif parts[0] != "self":
                self._name_reads.add(parts[0])
            return
        if isinstance(node, ast.Subscript):
            self._scan_expr(node.value)
            self._scan_expr(node.slice)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.comprehension,
                                  ast.keyword)):
                if isinstance(child, ast.comprehension):
                    self._scan_expr(child.iter)
                    for cond in child.ifs:
                        self._scan_expr(cond)
                elif isinstance(child, ast.keyword):
                    self._scan_expr(child.value)
                else:
                    self._scan_expr(child)

    def _record_call(self, node):
        target = dotted_path(node.func)
        args, kwargs = [], {}
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                self._scan_expr(arg.value)
                args.append("")
                continue
            path = dotted_path(arg)
            if path is not None and "." not in path:
                # A bare name as an argument: a *forward*, not an escape.
                args.append(path)
                forwards = self.out["param_uses"].get(path)
                if forwards is not None and target is not None:
                    forwards["forwards"].append(
                        {"callee": target, "slot": index}
                    )
                else:
                    self._name_reads.add(path)
                    if path in self.module_globals:
                        self._global_op(path, "read", arg.lineno)
            else:
                args.append(path or "")
                self._scan_expr(arg)
        for keyword in node.keywords:
            if keyword.arg is None:
                self._scan_expr(keyword.value)
                continue
            path = dotted_path(keyword.value)
            if path is not None and "." not in path:
                kwargs[keyword.arg] = path
                forwards = self.out["param_uses"].get(path)
                if forwards is not None and target is not None:
                    forwards["forwards"].append(
                        {"callee": target, "slot": keyword.arg}
                    )
                else:
                    self._name_reads.add(path)
                    if path in self.module_globals:
                        self._global_op(path, "read", keyword.value.lineno)
            else:
                kwargs[keyword.arg] = path or ""
                self._scan_expr(keyword.value)
        if target is None:
            self._scan_expr(node.func)
            return
        record = {
            "t": target,
            "args": args,
            "kwargs": kwargs,
            "line": node.lineno,
            "code": self._code(node.lineno),
            "locks": self._locks_now(),
        }
        self.out["calls"].append(record)
        parts = target.split(".")
        # Receiver reads: ``self.queue.lease()`` reads ``self.queue``;
        # mutator calls write the receiver attribute instead.
        if len(parts) >= 2:
            receiver = ".".join(parts[:-1])
            if parts[-1] in MUTATOR_METHODS:
                self._record_path_access(receiver, "write", node.lineno)
            else:
                self._record_path_access(receiver, "read", node.lineno)
            if parts[0] in self.out["param_uses"]:
                self._mark_param(parts[0])
        elif parts[0] in self.out["param_uses"]:
            # Calling a parameter: an indirect call through it.
            self._mark_param(parts[0])
        if parts[0] != "self" and parts[0] not in self.out["param_uses"]:
            self._name_reads.add(parts[0])
        self._classify_call(record, node)

    def _classify_call(self, record, node):
        target = record["t"]
        last = target.rsplit(".", 1)[-1]
        if target in _THREAD_SPAWNS or last == "Thread":
            daemon = None
            if "daemon" in record["kwargs"]:
                daemon = self._keyword_bool(node, "daemon")
            self.out["spawns"].append({
                "kind": "thread",
                "target": record["kwargs"].get("target", ""),
                "args": self._spawn_args(node),
                "daemon": daemon,
                "line": record["line"],
                "code": record["code"],
                "locks": record["locks"],
            })
            return
        if (
            target in _PROCESS_SPAWN_EXACT
            or last in _PROCESS_SPAWN_SUFFIXES
        ):
            self.out["spawns"].append({
                "kind": "process",
                "target": record["kwargs"].get("target", ""),
                "args": self._spawn_args(node),
                "daemon": None,
                "line": record["line"],
                "code": record["code"],
                "locks": record["locks"],
            })
            return
        if last == "signal" and len(node.args) >= 2:
            handler = dotted_path(node.args[1])
            if handler is not None:
                self.out["handlers"].append({
                    "via": "signal", "target": handler,
                    "line": record["line"],
                })
            return
        if last in ("add_completion_hook", "register_completion_hook"):
            for arg in list(node.args) + [k.value for k in node.keywords]:
                hook = dotted_path(arg)
                if hook is not None:
                    self.out["handlers"].append({
                        "via": "hook", "target": hook,
                        "line": record["line"],
                    })

    def _spawn_args(self, node):
        """Descriptors for a spawn's ``args=(...)`` tuple (parameter-
        type binding for the thread target)."""
        for keyword in node.keywords:
            if keyword.arg == "args" and isinstance(
                    keyword.value, (ast.Tuple, ast.List)):
                return [dotted_path(el) or "" for el in keyword.value.elts]
        return []

    def _keyword_bool(self, node, name):
        for keyword in node.keywords:
            if keyword.arg == name and isinstance(keyword.value,
                                                  ast.Constant):
                return bool(keyword.value.value)
        return None


def _module_globals(tree):
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return names


def _imports(tree, module):
    """Local name -> dotted target for every import binding."""
    table = {}
    package = module.rsplit(".", 1)[0] if "." in module else module
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    table[alias.name.split(".")[0]] = (
                        alias.name.split(".")[0]
                    )
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                prefix_parts = module.split(".")
                # level 1 = current package, 2 = parent, ...
                keep = len(prefix_parts) - stmt.level
                if keep < 0:
                    keep = 0
                prefix = ".".join(prefix_parts[:keep + (0 if module else 0)])
                # For a module (not package) path, the package is one up.
                prefix = ".".join(package.split(".")) if stmt.level == 1 \
                    else ".".join(prefix_parts[:keep])
                base = prefix + ("." + base if base else "")
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = (base + "." + alias.name) if base \
                    else alias.name
    return table


def _lazy_exports(tree, module, imports):
    """Name -> dotted target for a package's lazy export table.

    A package ``__init__`` binds its public names with
    :func:`repro._lazy.lazy_exports` rather than import statements, so
    its table literal is read as import bindings: ``from <package>
    import <name>`` then resolves through the package like any other
    re-export hop.
    """
    table = {}
    for stmt in tree.body:
        call = stmt.value if isinstance(stmt, ast.Assign) else None
        if not (isinstance(call, ast.Call) and len(call.args) == 2
                and isinstance(call.args[1], ast.Dict)
                and imports.get(dotted_path(call.func))
                == "repro._lazy.lazy_exports"):
            continue
        for key, names in zip(call.args[1].keys, call.args[1].values):
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(names, (ast.Tuple, ast.List))):
                continue
            # ".bus" is a submodule of this package; others are absolute.
            source = key.value
            if source.startswith("."):
                source = module + source
            for name in names.elts:
                if isinstance(name, ast.Constant) and \
                        isinstance(name.value, str):
                    table[name.value] = source + "." + name.value
    return table


def extract_summary(source):
    """The whole-file summary dict for one parsed SourceFile."""
    tree = source.tree
    module_globals = _module_globals(tree)
    imports = _imports(tree, source.module)
    imports.update(_lazy_exports(tree, source.module, imports))
    summary = {
        "version": SUMMARY_VERSION,
        "module": source.module,
        "path": source.path,
        "imports": imports,
        "module_globals": sorted(module_globals),
        "global_types": {},
        "classes": {},
        "funcs": {},
        "noqa": {
            str(line): sorted("" if r is None else r for r in rules)
            for line, rules in source.noqa.items()
        },
    }
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Call):
            descriptor = _value_descriptor(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    summary["global_types"][target.id] = descriptor

    def collect(body, prefix, cls, parent):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + node.name if prefix else node.name
                extractor = _FuncExtractor(
                    source, qualname, node, cls, parent, module_globals
                )
                summary["funcs"][qualname] = extractor.run()
                collect(node.body, qualname + ".", cls=None,
                        parent=qualname)
            elif isinstance(node, ast.ClassDef):
                class_qual = prefix + node.name if prefix else node.name
                bases = []
                for base in node.bases:
                    path = dotted_path(base)
                    if path is not None:
                        bases.append(path)
                summary["classes"][class_qual] = {
                    "bases": bases,
                    "line": node.lineno,
                    "parent": parent,
                }
                collect(node.body, class_qual + ".", cls=class_qual,
                        parent=parent)

    collect(tree.body, "", cls=None, parent=None)
    return summary
