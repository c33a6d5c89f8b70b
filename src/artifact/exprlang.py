"""Inline transformation expressions applied to in-flight messages.

Grammar (standard precedence, left associative):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := NUMBER | STRING | '-' NUMBER
            | '[' expr (',' expr)* ']'
            | 'request.body[' INT ']'
            | 'request.headers[' STRING ']'
            | '(' expr ')'

A `.toString()` postfix is allowed after any factor or parenthesized
expression. Arithmetic is 64-bit float; text operands are coerced through a
decimal parse at binary operators.
"""
from __future__ import annotations

import re

from .errors import (
    DivisionByZeroError,
    ExprSyntaxError,
    IndexOutOfRangeError,
    MissingHeaderError,
)
from .messages import Message
from .values import Value, coerce_number, copy_value, number_to_text, render_value

# ---------------------------------------------------------------------------
# AST


class _Node:
    """An AST node: equal to a node of the same type with equal fields, and
    hashable. Parsed trees are shared, so treat a node as immutable."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash((type(self), self._fields()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class NumberLit(_Node):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


class StringLit(_Node):
    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value


class ListLit(_Node):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items


class BodyIndex(_Node):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class HeaderRef(_Node):
    __slots__ = ("key",)

    def __init__(self, key: str):
        self.key = key


class BinOp(_Node):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: "Expr", rhs: "Expr"):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class ToString(_Node):
    __slots__ = ("inner",)

    def __init__(self, inner: "Expr"):
        self.inner = inner


Expr = NumberLit | StringLit | ListLit | BodyIndex | HeaderRef | BinOp | ToString

# ---------------------------------------------------------------------------
# lexer

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r'|(?P<string>"(?:[^"\\\n]|\\.)*")'
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[()\[\],+\-*/.])"
)

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


# A token is a tuple (kind, text, pos): kind is "number", "string", "ident",
# "end", or the punctuation character itself.
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    match = _TOKEN_RE.match
    pos, size = 0, len(text)
    while pos < size:
        m = match(text, pos)
        if m is None:
            raise ExprSyntaxError(pos, "a valid token")
        kind, end = m.lastgroup, m.end()
        if kind != "ws":
            token = text[pos:end]
            out.append((token if kind == "punct" else kind, token, pos))
        pos = end
    out.append(("end", "", size))
    return out


def _unescape(raw: str) -> str:
    body = raw[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\" and i + 1 < len(body):
            out.append(_ESCAPES.get(body[i + 1], body[i + 1]))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
        .replace("\r", "\\r")
    )


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self._tokens = _tokenize(text)
        self._i = 0

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _kind(self) -> str:
        return self._tokens[self._i][0]

    def _take(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _expect(self, kind: str, expected: str) -> _Token:
        tok = self._take()
        if tok[0] != kind:
            raise ExprSyntaxError(tok[2], expected)
        return tok

    def parse(self) -> Expr:
        node = self._expr()
        kind, _, pos = self._peek()
        if kind != "end":
            raise ExprSyntaxError(pos, "end of input")
        return node

    def _expr(self) -> Expr:
        node = self._term()
        while self._kind() in ("+", "-"):
            op = self._take()[0]
            node = BinOp(op, node, self._term())
        return node

    def _term(self) -> Expr:
        node = self._factor()
        while self._kind() in ("*", "/"):
            op = self._take()[0]
            node = BinOp(op, node, self._factor())
        return node

    def _factor(self) -> Expr:
        kind, text, pos = self._peek()
        if kind == "-":
            self._take()
            node: Expr = NumberLit(-float(self._expect("number", "a number")[1]))
        elif kind == "number":
            self._take()
            node = NumberLit(float(text))
        elif kind == "string":
            self._take()
            node = StringLit(_unescape(text))
        elif kind == "[":
            self._take()
            items = [self._expr()]
            while self._kind() == ",":
                self._take()
                items.append(self._expr())
            self._expect("]", "']'")
            node = ListLit(tuple(items))
        elif kind == "(":
            self._take()
            node = self._expr()
            self._expect(")", "')'")
        elif kind == "ident" and text == "request":
            node = self._request_ref()
        else:
            raise ExprSyntaxError(pos, "a number, string, list, request reference or '('")
        return self._postfix(node)

    def _request_ref(self) -> Expr:
        self._take()  # "request"
        self._expect(".", "'.'")
        _, field, pos = self._expect("ident", "'body' or 'headers'")
        if field not in ("body", "headers"):
            raise ExprSyntaxError(pos, "'body' or 'headers'")
        self._expect("[", "'['")
        if field == "body":
            _, index, pos = self._expect("number", "an integer index")
            if not index.isdigit():
                raise ExprSyntaxError(pos, "an integer index")
            node: Expr = BodyIndex(int(index))
        else:
            node = HeaderRef(_unescape(self._expect("string", "a quoted header name")[1]))
        self._expect("]", "']'")
        return node

    def _postfix(self, node: Expr) -> Expr:
        while self._kind() == ".":
            self._take()
            kind, text, pos = self._peek()
            if kind != "ident" or text != "toString":
                raise ExprSyntaxError(pos, "'toString()'")
            self._take()
            self._expect("(", "'('")
            self._expect(")", "')'")
            node = ToString(node)
        return node


def parse_expr(text: str) -> Expr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printer

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def format_expr(expr: Expr) -> str:
    """Render an AST back to source; parse(format(e)) == e."""
    return _fmt(expr, 0)


def _fmt(expr: Expr, min_prec: int) -> str:
    if isinstance(expr, NumberLit):
        return number_to_text(expr.value)
    if isinstance(expr, StringLit):
        return f'"{_escape(expr.value)}"'
    if isinstance(expr, ListLit):
        return "[ " + ", ".join(_fmt(item, 0) for item in expr.items) + " ]"
    if isinstance(expr, BodyIndex):
        return f"request.body[{expr.index}]"
    if isinstance(expr, HeaderRef):
        return f'request.headers["{_escape(expr.key)}"]'
    if isinstance(expr, ToString):
        inner = _fmt(expr.inner, 0)
        if isinstance(expr.inner, BinOp):
            return f"({inner}).toString()"
        return f"{inner}.toString()"
    if isinstance(expr, BinOp):
        prec = _PREC[expr.op]
        text = f"{_fmt(expr.lhs, prec)} {expr.op} {_fmt(expr.rhs, prec + 1)}"
        if prec < min_prec:
            return f"({text})"
        return text
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# evaluator


def eval_expr(expr: Expr, message: Message) -> Value:
    """Evaluate against a message; pure, safe for unrestricted concurrent use."""
    if isinstance(expr, NumberLit):
        return expr.value
    if isinstance(expr, StringLit):
        return expr.value
    if isinstance(expr, ListLit):
        return [eval_expr(item, message) for item in expr.items]
    if isinstance(expr, BodyIndex):
        body = message.body
        seq = body if isinstance(body, list) else [body]
        if not 0 <= expr.index < len(seq):
            raise IndexOutOfRangeError(expr.index, len(seq))
        return copy_value(seq[expr.index])
    if isinstance(expr, HeaderRef):
        if expr.key not in message.headers:
            raise MissingHeaderError(expr.key)
        return copy_value(message.headers[expr.key])
    if isinstance(expr, ToString):
        return render_value(eval_expr(expr.inner, message))
    if isinstance(expr, BinOp):
        lhs = coerce_number(eval_expr(expr.lhs, message))
        rhs = coerce_number(eval_expr(expr.rhs, message))
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        if rhs == 0.0:
            raise DivisionByZeroError(f"{lhs} / 0")
        return lhs / rhs
    raise TypeError(f"not an expression node: {expr!r}")
