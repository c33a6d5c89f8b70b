from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artifact import EndpointUri, format_endpoint_uri, parse_endpoint_uri
from artifact.errors import EmptySchemeError, MalformedQueryError, MissingSchemeError


def test_parse_plain():
    uri = parse_endpoint_uri("artifact:hub")
    assert uri == EndpointUri("artifact", "hub", {})


def test_parse_with_query():
    uri = parse_endpoint_uri("mq:foo?qos=2")
    assert uri == EndpointUri("mq", "foo", {"qos": "2"})
    assert format_endpoint_uri(uri) == "mq:foo?qos=2"


def test_path_keeps_later_colons():
    uri = parse_endpoint_uri("tcp:localhost:5555?framing=line")
    assert uri.scheme == "tcp"
    assert uri.path == "localhost:5555"
    assert format_endpoint_uri(uri) == "tcp:localhost:5555?framing=line"


def test_missing_scheme():
    with pytest.raises(MissingSchemeError):
        parse_endpoint_uri("nocolon")


def test_empty_scheme():
    with pytest.raises(EmptySchemeError):
        parse_endpoint_uri(":path")


def test_malformed_query():
    with pytest.raises(MalformedQueryError):
        parse_endpoint_uri("mq:foo?bare")
    with pytest.raises(MalformedQueryError):
        parse_endpoint_uri("mq:foo?a=1&&b=2")
    with pytest.raises(MalformedQueryError):
        parse_endpoint_uri("mq:foo?=v")


def test_scheme_lowercased():
    assert parse_endpoint_uri("MQ:foo").scheme == "mq"


def test_query_order_preserved():
    uri = parse_endpoint_uri("vars:h:1/x?mode=subscribe&b=2&a=1")
    assert list(uri.params) == ["mode", "b", "a"]
    assert format_endpoint_uri(uri) == "vars:h:1/x?mode=subscribe&b=2&a=1"


def test_escapes_decoded_in_values():
    uri = parse_endpoint_uri("mq:t?u=a%26b%3Dc%25")
    assert uri.params["u"] == "a&b=c%"
    assert format_endpoint_uri(uri) == "mq:t?u=a%26b%3Dc%25"


def test_empty_query_and_empty_value():
    assert parse_endpoint_uri("mq:foo?") == EndpointUri("mq", "foo", {})
    assert parse_endpoint_uri("mq:foo?a=") == EndpointUri("mq", "foo", {"a": ""})


def test_uris_are_immutable():
    uri = parse_endpoint_uri("mq:foo?a=1")
    for field in ("scheme", "path", "params"):
        with pytest.raises(AttributeError):
            setattr(uri, field, "x")
    with pytest.raises(TypeError):
        uri.params["a"] = "2"
    with pytest.raises(TypeError):
        uri.params["b"] = "2"
    params = {"a": "1"}
    built = EndpointUri("mq", "foo", params)
    params["a"] = "2"  # the URI keeps its own copy
    assert built == uri and built.param("a") == "1"


def test_equal_uris_hash_equal_and_parameter_order_counts():
    first = parse_endpoint_uri("vars:h:1/x?mode=read&b=2")
    again = EndpointUri("vars", "h:1/x", {"mode": "read", "b": "2"})
    swapped = parse_endpoint_uri("vars:h:1/x?b=2&mode=read")
    assert first == again and hash(first) == hash(again)
    assert first != swapped
    assert len({first, again, swapped}) == 2


def test_routes_defined_from_one_string_share_its_uri(env):
    out = env.engine.define_route("artifact:hub", [], "mq:plant/hub")
    back = env.engine.define_route("mq:plant/hub", [], "artifact:hub")
    assert out.sink == back.source == parse_endpoint_uri("mq:plant/hub")
    assert out.source == back.sink == parse_endpoint_uri("artifact:hub")
    assert out.sink is back.source  # parsed once by the engine


_schemes = st.from_regex(r"[a-z][a-z0-9]{0,9}", fullmatch=True)
_paths = st.text(
    st.characters(blacklist_characters="?", min_codepoint=32, max_codepoint=0x2FF),
    max_size=24,
)
_keys = st.from_regex(r"[A-Za-z][A-Za-z0-9_.]{0,8}", fullmatch=True)
_values = st.text(
    st.characters(min_codepoint=32, max_codepoint=0x2FF),
    max_size=16,
)


@st.composite
def endpoint_uris(draw):
    params = {}
    for key in draw(st.lists(_keys, max_size=4, unique=True)):
        params[key] = draw(_values)
    return EndpointUri(draw(_schemes), draw(_paths), params)


@given(endpoint_uris())
def test_format_parse_round_trip(uri):
    text = format_endpoint_uri(uri)
    parsed = parse_endpoint_uri(text)
    assert parsed == uri
    assert format_endpoint_uri(parsed) == text
