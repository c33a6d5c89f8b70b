"""Endpoint URIs: `<scheme>:<path>[?k=v&k=v...]` with percent-escaped values."""
from __future__ import annotations

from types import MappingProxyType
from typing import Mapping
from urllib.parse import unquote

from .errors import EmptySchemeError, MalformedQueryError, MissingSchemeError

_NO_PARAMS: Mapping[str, str] = MappingProxyType({})


class EndpointUri:
    """An endpoint URI; immutable, so an engine shares one parsed URI between
    all the routes that name its text.

    `params` is a read-only mapping in query order. Two URIs are equal when
    their schemes, paths and parameters, in order, are equal.
    """

    __slots__ = ("scheme", "path", "params")

    def __init__(self, scheme: str, path: str, params: Mapping[str, str] | None = None):
        set_field = object.__setattr__
        set_field(self, "scheme", scheme)
        set_field(self, "path", path)
        set_field(self, "params", MappingProxyType(dict(params)) if params else _NO_PARAMS)

    def __setattr__(self, name, value):
        raise AttributeError(f"EndpointUri is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"EndpointUri is immutable; cannot delete {name!r}")

    def _key(self) -> tuple:
        return (self.scheme, self.path, tuple(self.params.items()))

    def __eq__(self, other):
        if not isinstance(other, EndpointUri):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"EndpointUri(scheme={self.scheme!r}, path={self.path!r}, params={dict(self.params)!r})"

    def param(self, key: str, default: str | None = None) -> str | None:
        return self.params.get(key, default)

    def __str__(self) -> str:
        return format_endpoint_uri(self)


def parse_endpoint_uri(text: str) -> EndpointUri:
    """Split at the first ':' into scheme/rest, the rest at the first '?' into
    path/query; query pairs keep their order and values are percent-decoded."""
    if ":" not in text:
        raise MissingSchemeError(f"no ':' in {text!r}")
    scheme, rest = text.split(":", 1)
    if not scheme:
        raise EmptySchemeError(text)
    path, sep, query = rest.partition("?")
    params: dict[str, str] = {}
    if sep and query:
        for pair in query.split("&"):
            if "=" not in pair:
                raise MalformedQueryError(f"query pair {pair!r} has no '='")
            key, value = pair.split("=", 1)
            if not key:
                raise MalformedQueryError(f"query pair {pair!r} has an empty key")
            params[key] = unquote(value)
    return EndpointUri(scheme.lower(), path, params)


def _quote_param_value(value: str) -> str:
    return value.replace("%", "%25").replace("&", "%26").replace("=", "%3D")


def format_endpoint_uri(uri: EndpointUri) -> str:
    """Canonical text form; parse(format(u)) == u for every valid uri."""
    if not uri.scheme or uri.scheme != uri.scheme.lower():
        raise ValueError(f"scheme must be non-empty lowercase: {uri.scheme!r}")
    if ":" in uri.scheme or "?" in uri.scheme:
        raise ValueError(f"scheme contains reserved characters: {uri.scheme!r}")
    if "?" in uri.path:
        raise ValueError(f"path may not contain '?': {uri.path!r}")
    out = f"{uri.scheme}:{uri.path}"
    if uri.params:
        for key in uri.params:
            if not key or any(c in key for c in "=&?%"):
                raise ValueError(f"invalid parameter key: {key!r}")
        out += "?" + "&".join(
            f"{k}={_quote_param_value(v)}" for k, v in uri.params.items()
        )
    return out
