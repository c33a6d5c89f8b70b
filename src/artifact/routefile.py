"""Declarative route file: `route { ... }` entries defining engine routes.

Grammar, one or more entries::

    route {
      from = "<uri>"
      set_header "<key>" = "<value>"     # zero or more, order preserved
      transform = "<expression>"         # optional
      to = "<uri>"
    }

Statements are separated by newlines or semicolons; `#` starts a comment.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import RouteFileError
from .exprlang import parse_expr
from .routing import Processor, Route, RoutingEngine, SetHeader, Transform


@dataclass
class RouteFileEntry:
    source: str
    sink: str
    set_headers: list[tuple[str, str]] = field(default_factory=list)
    transform: str | None = None

    def processors(self) -> list[Processor]:
        chain: list[Processor] = [SetHeader(k, v) for k, v in self.set_headers]
        if self.transform is not None:
            chain.append(Transform(parse_expr(self.transform)))
        return chain


# A token is a tuple (kind, text, line): kind is "ident", "string" or
# "punct"; a newline is a ";" punct.
_Token = tuple[str, str, int]

_TOKEN_RE = re.compile(
    r"(?P<newline>\n)"
    r"|(?P<space>[ \t\r]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<punct>[{}=;])"
    r'|(?P<string>"(?:[^"\\\n]|\\[\s\S])*")'
    r"|(?P<ident>\w+)"
)
_ESCAPE_RE = re.compile(r"\\([\s\S])")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    match = _TOKEN_RE.match
    line = 1
    pos, size = 0, len(text)
    while pos < size:
        m = match(text, pos)
        kind = m.lastgroup if m is not None else None
        if kind == "newline":
            tokens.append(("punct", ";", line))
            line += 1
        elif kind == "punct":
            tokens.append(("punct", m.group(), line))
        elif kind == "string":
            tokens.append(("string", _ESCAPE_RE.sub(r"\1", m.group()[1:-1]), line))
        elif kind == "ident" and (text[pos].isalpha() or text[pos] == "_"):
            tokens.append(("ident", m.group(), line))
        elif kind is None or kind == "ident":
            if text[pos] == '"':
                raise RouteFileError(line, "unterminated string")
            raise RouteFileError(line, f"unexpected character {text[pos]!r}")
        pos = m.end()
    return tokens


class _EntryParser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0

    def _peek(self) -> _Token | None:
        if self._i < len(self._tokens):
            return self._tokens[self._i]
        return None

    def _take(self) -> _Token:
        token = self._tokens[self._i]
        self._i += 1
        return token

    def _skip_separators(self) -> None:
        while self._i < len(self._tokens):
            token = self._tokens[self._i]
            if token[1] == ";" and token[0] == "punct":
                self._i += 1
            else:
                break

    def _expect(self, kind: str, text: str | None, what: str) -> _Token:
        token = self._peek()
        if token is None:
            last = self._tokens[-1][2] if self._tokens else 1
            raise RouteFileError(last, f"expected {what}, got end of file")
        if token[0] != kind or (text is not None and token[1] != text):
            raise RouteFileError(token[2], f"expected {what}, got {token[1]!r}")
        return self._take()

    def parse(self) -> list[RouteFileEntry]:
        entries = []
        self._skip_separators()
        while self._peek() is not None:
            entries.append(self._entry())
            self._skip_separators()
        return entries

    def _entry(self) -> RouteFileEntry:
        self._expect("ident", "route", "'route'")
        self._expect("punct", "{", "'{'")
        source = sink = transform = None
        headers: list[tuple[str, str]] = []
        while True:
            self._skip_separators()
            token = self._peek()
            if token is None:
                raise RouteFileError(self._tokens[-1][2], "expected '}', got end of file")
            kind, stmt, line = self._take()
            if kind == "punct" and stmt == "}":
                break
            if kind != "ident":
                raise RouteFileError(line, f"expected a statement, got {stmt!r}")
            if stmt in ("from", "to", "transform"):
                self._expect("punct", "=", "'='")
                value = self._expect("string", None, "a quoted value")[1]
                if stmt == "from":
                    source = value
                elif stmt == "to":
                    sink = value
                else:
                    transform = value
            elif stmt == "set_header":
                key = self._expect("string", None, "a quoted header name")[1]
                self._expect("punct", "=", "'='")
                headers.append((key, self._expect("string", None, "a quoted value")[1]))
            else:
                raise RouteFileError(line, f"unknown statement {stmt!r}")
        if source is None:
            raise RouteFileError(self._tokens[self._i - 1][2], "route entry has no 'from'")
        if sink is None:
            raise RouteFileError(self._tokens[self._i - 1][2], "route entry has no 'to'")
        return RouteFileEntry(source=source, sink=sink, set_headers=headers, transform=transform)


def parse_route_file(text: str) -> list[RouteFileEntry]:
    return _EntryParser(_tokenize(text)).parse()


def load_route_file(path: str | Path) -> list[RouteFileEntry]:
    return parse_route_file(Path(path).read_text(encoding="utf-8"))


def define_routes(engine: RoutingEngine, entries: list[RouteFileEntry]) -> list[Route]:
    return [
        engine.define_route(entry.source, entry.processors(), entry.sink)
        for entry in entries
    ]
