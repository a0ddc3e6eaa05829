"""The JSON-lines writer against json.dumps."""

import gc
import json
import math
import re
import weakref

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
    st.floats(),
)
# json writes an int, float, bool or None key as the text of its value.
KEYS = st.one_of(TEXT, st.integers(), st.floats(), st.booleans(), st.none())
NESTED = st.recursive(
    VALUES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=16,
)


@settings(max_examples=200)
@given(st.dictionaries(KEYS, NESTED, max_size=8))
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


@pytest.mark.parametrize("record", [{"x": {1}}, {"x": object()}, {(1, 2): 3}])
def test_writer_rejects_what_json_rejects_with_its_message(record):
    with pytest.raises(TypeError) as want:
        json.dumps(record)
    with pytest.raises(TypeError, match=f"^{re.escape(str(want.value))}$"):
        dumps(record)


def test_a_record_whose_encoding_raises_is_not_kept():
    """The encoder is shared by every call, so it must keep nothing of a
    record whose encoding failed half way."""

    class Record(dict):
        pass

    record = Record(x=object())
    kept = weakref.ref(record)
    with pytest.raises(TypeError):
        dumps(record)
    del record
    gc.collect()
    assert kept() is None
