"""The JSON-lines writer against json.dumps, on flat records."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descente.jsonl import dumps

# Every character class the escaping treats apart: the short escapes, the
# other C0 controls, DEL, printable ASCII, the rest of the BMP, lone
# surrogates and astral characters.
CHARS = st.one_of(
    st.sampled_from('"\\\b\f\n\r\t\x00\x01\x1f\x7f '),
    st.characters(max_codepoint=0x7F),
    st.characters(exclude_categories=()),
    st.characters(categories=["Cs"]),
    st.characters(min_codepoint=0x10000),
)
TEXT = st.text(CHARS, max_size=12)
VALUES = st.one_of(
    TEXT,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200)
@given(st.dictionaries(TEXT, VALUES, max_size=8))
def test_writer_equals_json_dumps(record):
    assert dumps(record) == json.dumps(record)


def test_writer_on_each_character_class():
    for text in ['say "hi"\\', "\x00\x1f\x7f\x80", "é ￿", "\ud800 \udfff", "\U0001f600"]:
        record = {text: text, "n": -(2**70), "x": 0.1, "t": True, "f": False, "z": None}
        assert dumps(record) == json.dumps(record)
    assert dumps({}) == json.dumps({}) == "{}"


def test_writer_on_non_finite_floats_and_int_subclasses():
    import enum

    class Small(enum.IntEnum):
        ONE = 1

    record = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "one": Small.ONE}
    assert dumps(record) == json.dumps(record)



def test_writer_rejects_a_nested_value():
    with pytest.raises(TypeError, match="a JSONL record holds no list"):
        dumps({"x": [1]})
