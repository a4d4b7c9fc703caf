"""LB107: swallowed exceptions must be justified or re-raised.

A reliability codebase earns its claims by *handling* failures, and a
handler whose whole body is ``pass``/``continue``/bare ``return``
handles nothing — it deletes the evidence.  The campaign engine's own
conventions make the legitimate cases cheap to mark:

* a **broad** catch (bare ``except:``, ``except Exception``,
  ``except BaseException`` — alone or inside a tuple) that swallows is
  always flagged; if it is truly intended (it almost never is), carry a
  ``# lb: noqa[LB107]`` with a justifying comment;
* a **narrow** catch (``except OSError:``, ``except KeyError:``) that
  swallows is flagged only when the handler carries **no comment at
  all** — the repo's idiom is ``pass  # why this is safe`` and a
  one-line justification is exactly the bar (see
  ``repro.ioutil.atomic_write`` or the record log's best-effort tail
  repair, ``repro.ioutil.RecordLog._truncate_to``).

A docstring-style string constant does not count as handling (it is
still a swallow) but a comment anywhere on the handler's lines — the
``except`` line through the last body line — counts as justification
for narrow catches.
"""

import ast
import tokenize

from repro.analysis.core import Rule, register

_BROAD_NAMES = frozenset(("Exception", "BaseException"))


def _dotted_name(node):
    """``ast.Name``/``ast.Attribute`` chains as dotted text, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _caught_names(handler):
    """The exception names a handler catches; ``None`` marks a bare
    ``except:``."""
    if handler.type is None:
        return [None]
    if isinstance(handler.type, ast.Tuple):
        nodes = handler.type.elts
    else:
        nodes = [handler.type]
    return [_dotted_name(node) for node in nodes]


def _is_trivial_body(body):
    """True when the handler body swallows: only string constants plus
    at most one ``pass``/``continue``/bare ``return``."""
    statements = list(body)
    while (
        statements
        and isinstance(statements[0], ast.Expr)
        and isinstance(statements[0].value, ast.Constant)
        and isinstance(statements[0].value.value, str)
    ):
        statements = statements[1:]
    if not statements:
        return True
    if len(statements) != 1:
        return False
    statement = statements[0]
    if isinstance(statement, (ast.Pass, ast.Continue)):
        return True
    if isinstance(statement, ast.Return):
        return statement.value is None or (
            isinstance(statement.value, ast.Constant)
            and statement.value.value is None
        )
    return False


def _handler_span(handler):
    """The handler's inclusive line range (``except`` line → last body
    line)."""
    last = handler.lineno
    for node in handler.body:
        last = max(last, getattr(node, "end_lineno", node.lineno))
    return handler.lineno, last


def _comment_lines(source):
    """Every line number carrying a comment (via tokenize, so ``#``
    inside string literals does not count)."""
    lines = set()
    try:
        tokens = tokenize.generate_tokens(
            iter(source.lines_iter()).__next__
        )
        for token in tokens:
            if token.type == tokenize.COMMENT:
                lines.add(token.start[0])
    except tokenize.TokenError:
        pass  # parse succeeded earlier; treat the tail as comment-free
    return lines


@register
class SwallowedExceptionsRule(Rule):
    id = "LB107"
    name = "swallowed-exceptions"
    description = (
        "exception handler swallows the error (pass/continue/bare "
        "return) without justification"
    )

    def check(self, source):
        if not source.in_package("repro"):
            return
        comments = None
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_trivial_body(node.body):
                continue
            names = _caught_names(node)
            broad = [
                name for name in names
                if name is None or name in _BROAD_NAMES
            ]
            if broad:
                label = (
                    "bare except" if broad[0] is None
                    else "except {}".format(broad[0])
                )
                yield source.finding(
                    self.id, node,
                    "{} swallows every error silently; handle it, "
                    "re-raise, or justify with a comment plus "
                    "`# lb: noqa[LB107]`".format(label),
                )
                continue
            if comments is None:
                comments = _comment_lines(source)
            start, end = _handler_span(node)
            if not any(line in comments for line in range(start, end + 1)):
                yield source.finding(
                    self.id, node,
                    "except {} swallows the error with no justifying "
                    "comment; say why ignoring it is safe".format(
                        ", ".join(names)
                    ),
                )
