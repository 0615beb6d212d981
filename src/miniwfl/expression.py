"""Restricted expression subset used in bindings, guards, and resource values.

Grammar: parameter references (``inputs.<id>`` with optional File attribute,
``runtime.cores|ram|outdir``), literals, comparisons, boolean operators, and
parentheses.  Nothing else — no function calls, no scripting.  Evaluation is
pure: no I/O, no ambient state.
"""

from __future__ import annotations

import functools
import re
from typing import Any

from .errors import ExprSyntaxError, ExprTypeError, UnknownReferenceError
from .model import Record, field

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<float>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<op>&&|\|\||==|!=|<=|>=|<|>|!|\(|\)|\.)
""", re.VERBOSE)

_KEYWORDS = {"true": True, "false": False, "null": None}


class Expression(Record):
    """Parsed ``$(...)`` expression."""

    source: str
    ast: tuple = field(compare=False)


class EvalContext(Record):
    inputs: dict
    runtime: dict = field(default_factory=dict)


def _tokenize(body: str, offset: int):
    tokens = []
    pos = 0
    while pos < len(body):
        m = _TOKEN_RE.match(body, pos)
        if m is None:
            raise ExprSyntaxError(
                f"unexpected character {body[pos]!r}", column=offset + pos)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, m.group(), offset + m.start()))
    tokens.append(("end", "", offset + len(body)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, col = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", column=col)
        return self.next()

    def parse(self):
        node = self.or_expr()
        kind, text, col = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", column=col)
        return node

    def or_expr(self):
        node = self.and_expr()
        while self.peek()[:2] == ("op", "||"):
            self.next()
            node = ("or", node, self.and_expr())
        return node

    def and_expr(self):
        node = self.not_expr()
        while self.peek()[:2] == ("op", "&&"):
            self.next()
            node = ("and", node, self.not_expr())
        return node

    def not_expr(self):
        if self.peek()[:2] == ("op", "!"):
            self.next()
            return ("not", self.not_expr())
        return self.comparison()

    def comparison(self):
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text in ("==", "!=", "<", "<=", ">", ">="):
            self.next()
            node = ("cmp", text, node, self.atom())
        return node

    def atom(self):
        kind, text, col = self.peek()
        if kind == "op" and text == "(":
            self.next()
            node = self.or_expr()
            self.expect_op(")")
            return node
        if kind == "int":
            self.next()
            return ("lit", int(text))
        if kind == "float":
            self.next()
            return ("lit", float(text))
        if kind == "string":
            self.next()
            body = text[1:-1]
            body = re.sub(r"\\(.)", r"\1", body)
            return ("lit", body)
        if kind == "ident":
            if text in _KEYWORDS:
                self.next()
                return ("lit", _KEYWORDS[text])
            return self.reference()
        raise ExprSyntaxError(f"unexpected {text or 'end of expression'!r}",
                              column=col)

    def reference(self):
        parts = []
        kind, text, col = self.next()
        parts.append(text)
        while self.peek()[:2] == ("op", "."):
            self.next()
            kind, text, col2 = self.peek()
            if kind != "ident":
                raise ExprSyntaxError("expected attribute name", column=col2)
            self.next()
            parts.append(text)
        if parts[0] not in ("inputs", "runtime") or len(parts) < 2:
            raise ExprSyntaxError(
                f"references must start with inputs. or runtime. (got {'.'.join(parts)!r})",
                column=col)
        if parts[0] == "inputs":
            if len(parts) > 3:
                raise ExprSyntaxError("too many attribute accesses", column=col)
            if len(parts) == 3 and parts[2] not in ("basename", "size", "path"):
                raise ExprSyntaxError(
                    f"unknown File attribute {parts[2]!r}", column=col)
        else:
            if len(parts) != 2 or parts[1] not in ("cores", "ram", "outdir"):
                raise ExprSyntaxError(
                    f"unknown runtime field {'.'.join(parts[1:])!r}", column=col)
        return ("ref", tuple(parts))


@functools.lru_cache(maxsize=1024)
def parse_expr(source: str) -> Expression:
    """Parse a ``$(...)``-delimited expression (memoized: immutable)."""
    if not (source.startswith("$(") and source.endswith(")")):
        raise ExprSyntaxError("expression must be delimited by $( and )", column=0)
    body = source[2:-1]
    tokens = _tokenize(body, offset=2)
    ast = _Parser(tokens).parse()
    return Expression(source=source, ast=ast)


def _type_name(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "string"
    return type(value).__name__


def _resolve_ref(parts, ctx: EvalContext):
    scope = parts[0]
    if scope == "runtime":
        if parts[1] not in ctx.runtime:
            raise UnknownReferenceError(f"runtime.{parts[1]} not in context")
        return ctx.runtime[parts[1]]
    name = parts[1]
    if name not in ctx.inputs:
        raise UnknownReferenceError(f"inputs.{name} not in context")
    value = ctx.inputs[name]
    if len(parts) == 2:
        return value
    attr = parts[2]
    if value is None:
        raise ExprTypeError(f"cannot read .{attr} of null (inputs.{name})")
    basename = getattr(value, "basename", None)
    if basename is None:
        raise ExprTypeError(f"inputs.{name} is not a File; cannot read .{attr}")
    return getattr(value, attr)


def _require_bool(value, where):
    if not isinstance(value, bool):
        raise ExprTypeError(f"{where} requires a boolean, got {_type_name(value)}")
    return value


def _compare(op, left, right):
    if op in ("==", "!="):
        if isinstance(left, bool) != isinstance(right, bool):
            equal = False
        elif left is None or right is None:
            equal = left is None and right is None
        else:
            try:
                equal = left == right
            except TypeError:  # pragma: no cover
                equal = False
        return equal if op == "==" else not equal
    numeric = (int, float)
    if (isinstance(left, numeric) and isinstance(right, numeric)
            and not isinstance(left, bool) and not isinstance(right, bool)):
        pass
    elif isinstance(left, str) and isinstance(right, str):
        pass
    else:
        raise ExprTypeError(
            f"cannot order {_type_name(left)} {op} {_type_name(right)}")
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def eval_expr(expr: Expression, ctx: EvalContext) -> Any:
    """Evaluate an expression; deterministic and free of I/O."""
    return _eval(expr.ast, ctx)


def _eval(node, ctx):
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "ref":
        return _resolve_ref(node[1], ctx)
    if kind == "not":
        return not _require_bool(_eval(node[1], ctx), "operator !")
    if kind == "and":  # short-circuit
        if not _require_bool(_eval(node[1], ctx), "operator &&"):
            return False
        return _require_bool(_eval(node[2], ctx), "operator &&")
    if kind == "or":
        if _require_bool(_eval(node[1], ctx), "operator ||"):
            return True
        return _require_bool(_eval(node[2], ctx), "operator ||")
    if kind == "cmp":
        return _compare(node[1], _eval(node[2], ctx), _eval(node[3], ctx))
    raise AssertionError(f"unknown node {kind}")


def eval_guard(source: str, ctx: EvalContext) -> bool:
    """Evaluate a `when` guard; non-boolean results are type errors."""
    result = eval_expr(parse_expr(source), ctx)
    if not isinstance(result, bool):
        raise ExprTypeError(
            f"guard must evaluate to boolean, got {_type_name(result)}")
    return result


def stringify(value) -> str:
    """The text of a value in argv, an environment variable or mixed text:
    null is empty, a boolean ``true``/``false``, a File its path."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    basename = getattr(value, "path", None)
    if basename is not None:
        return str(basename)
    return str(value)


def _find_expr_end(text: str, start: int) -> int:
    """Index one past the ')' matching the '$(' at `start`; respects strings."""
    depth = 1
    i = start + 2  # skip the '$('
    quote = None
    while i < len(text):
        ch = text[i]
        if quote:
            if ch == "\\":
                i += 1
            elif ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise ExprSyntaxError("unterminated $( expression", column=start)


def interpolate(template: str, ctx: EvalContext) -> Any:
    """Substitute ``$(...)`` occurrences in a string.

    A template that is exactly one expression returns the raw value; mixed
    text returns a string with each result converted (null becomes the empty
    string).
    """
    start = template.find("$(")
    if start < 0:
        return template
    end = _find_expr_end(template, start)
    if start == 0 and end == len(template):
        return eval_expr(parse_expr(template), ctx)
    parts = []
    pos = 0
    while True:
        idx = template.find("$(", pos)
        if idx < 0:
            parts.append(template[pos:])
            break
        parts.append(template[pos:idx])
        end = _find_expr_end(template, idx)
        value = eval_expr(parse_expr(template[idx:end]), ctx)
        parts.append(stringify(value))
        pos = end
    return "".join(parts)
