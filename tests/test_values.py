from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artifact.errors import BadNumericCoercionError
from artifact.values import coerce_number, copy_value, is_value, number_to_text, render_value


def test_integral_floats_render_without_fraction():
    assert number_to_text(212.0) == "212"
    assert number_to_text(-5.0) == "-5"
    assert number_to_text(0.0) == "0"


def test_fractional_floats_render_minimally():
    assert number_to_text(1.8) == "1.8"
    assert number_to_text(0.1) == "0.1"


def test_ints_render_as_ints():
    assert number_to_text(42) == "42"


def test_render_value_kinds():
    assert render_value("as-is") == "as-is"
    assert render_value(True) == "true"
    assert render_value(False) == "false"
    assert render_value([1, "a", 2.5]) == "1 a 2.5"
    assert render_value([["x", 1], 2]) == "x 1 2"


class _Level(int):
    pass


class _Reading(float):
    pass


class _Label(str):
    pass


@pytest.mark.parametrize(
    "value, text",
    [
        (True, "true"),
        (False, "false"),
        (0, "0"),
        (-17, "-17"),
        (10**30, "1" + "0" * 30),
        (-0.0, "0"),
        (2.0, "2"),
        (1e20, "100000000000000000000"),
        (0.5, "0.5"),
        (-68.4, "-68.4"),
        (1 / 3, "0.3333333333333333"),
        (1e-07, "1e-07"),
        (1.5e300 + 0.5, str(int(1.5e300))),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (float("nan"), "nan"),
        ("", ""),
        ("two words", "two words"),
        ([], ""),
        ([True, [1, 2.0, ["x", -0.0]], [], 0.25], "true 1 2 x 0  0.25"),
        (_Level(3), "3"),
        (_Reading(4.0), "4"),
        (_Reading(4.5), "4.5"),
        (_Label("tag"), "tag"),
    ],
)
def test_render_value_output_is_pinned(value, text):
    assert render_value(value) == text


@pytest.mark.parametrize("value", [None, (1, 2), {"a": 1}, b"raw", [1, None], object()])
def test_render_value_rejects_what_is_not_a_value(value):
    with pytest.raises(TypeError, match="not a value"):
        render_value(value)


@given(st.floats())
def test_render_value_of_a_float_is_its_number_text(x):
    assert render_value(x) == number_to_text(x)


def test_coerce_number():
    assert coerce_number(3) == 3.0
    assert coerce_number("212") == 212.0
    assert coerce_number("-68.4") == -68.4
    with pytest.raises(BadNumericCoercionError):
        coerce_number("abc")
    with pytest.raises(BadNumericCoercionError):
        coerce_number(True)
    with pytest.raises(BadNumericCoercionError):
        coerce_number([1])


def test_copy_value_is_deep_for_lists():
    original = [1, [2, 3]]
    clone = copy_value(original)
    clone[1].append(4)
    assert original == [1, [2, 3]]


def test_is_value():
    assert is_value([1, [True, "x"], 2.0])
    assert not is_value({"a": 1})
    assert not is_value([object()])


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_number_rendering_round_trips(x):
    assert float(number_to_text(x)) == x
