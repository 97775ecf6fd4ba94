"""The JSON writer against the standard library's indented encoding."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltext.jsontext import _json_chunks

TEXT = st.text(st.sampled_from(['a', 'é', 'α', '"', '\\', '\x00', '\x1f', '\n', '\u2028', ' ']))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 0.1]),
    st.floats(allow_nan=False),
    TEXT,
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=30,
)


def _reference(payload: object) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


@settings(derandomize=True, deadline=None, max_examples=400)
@given(PAYLOADS)
def test_json_chunks_join_to_the_standard_indented_encoding(payload):
    assert "".join(_json_chunks(payload)) == _reference(payload)


def test_json_chunks_lay_out_empty_nested_and_flat_containers_as_json_does():
    for payload in (
        {}, [], (), [[]], {"a": {}}, [{}, [], ()], {"a": [[], {"b": ()}]},
        {"record": {"key": "k", "latency": 0.5, "flags": []}},
        [["a", "b"], ["a", "c", "d"]],
        ("x", 2**65, -0.0, float("nan"), None, True),
    ):
        assert "".join(_json_chunks(payload)) == _reference(payload)


def test_json_chunks_turn_scalar_keys_into_text_as_json_does():
    payload = {1: [1], 2.5: {"x": []}, None: [[]], True: [0], False: {}, float("inf"): [()]}
    assert "".join(_json_chunks(payload)) == _reference(payload)


@pytest.mark.parametrize("payload", [{(1, 2): [[]]}, [[set()]], {"a": [object(), []]}])
def test_json_chunks_refuse_what_json_refuses(payload):
    with pytest.raises(TypeError) as expected:
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError, match=re.escape(str(expected.value))):
        "".join(_json_chunks(payload))
