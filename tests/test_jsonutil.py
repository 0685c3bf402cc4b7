"""Canonical JSON: ``dumps`` against the stdlib's indent-2 text, and its refusals."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goodmeasures import jsonutil
from goodmeasures.chain import GoodMeasureChain


def stdlib_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


_STRINGS = st.text() | st.sampled_from([
    "", '"', "\\", '\\"', "a\"b\\c", "\x00\x01\x1f\x7f", "\b\f\n\r\t", "  ",
    "é", "√2−1", "\U0001d538\U0001f600", "\ud800",
])
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | _STRINGS
)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_STRINGS, inner, max_size=4)
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(obj=_JSON)
@example(obj={})
@example(obj=[])
@example(obj=())
@example(obj={"b": {}, "a": [[], {}, ()], "": [{"z": None, "y": True, "x": False}]})
@example(obj=[-(10**300), 10**300, 0, -1])
@example(obj={"\U0001d538": "\x00", "é": "\\", "E": '"'})
def test_dumps_matches_the_stdlib_indent_2_text(obj):
    assert jsonutil.dumps(obj) == stdlib_text(obj)


def test_dumps_matches_the_stdlib_on_a_sqrt2_dyadic_snapshot(sqrt2_dyadic):
    chain = GoodMeasureChain(sqrt2_dyadic)
    chain.run_schedule(3)
    snapshot = chain.to_json()
    assert jsonutil.dumps(snapshot) == stdlib_text(snapshot)


def _containers(o):
    """o and every object and array inside it."""
    if isinstance(o, dict):
        yield o
        for v in o.values():
            yield from _containers(v)
    elif isinstance(o, (list, tuple)):
        yield o
        for v in o:
            yield from _containers(v)


def _spliced(o, chosen):
    """o with each value of chosen, by identity, as its ``Canonical`` text."""
    if any(o is c for c in chosen):
        return jsonutil.Canonical(jsonutil.dumps(o))
    if isinstance(o, dict):
        return {k: _spliced(v, chosen) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return type(o)(_spliced(v, chosen) for v in o)
    return o


@settings(max_examples=200, deadline=None)
@given(obj=_JSON, data=st.data())
@example(obj={"a": {"b": ["\n", {"c": "\n  "}]}}, data=None)
def test_dumps_reads_a_canonical_leaf_as_its_value(obj, data):
    # strings of newlines and spaces show that only structural newlines are re-indented
    containers = list(_containers(obj))
    chosen = containers if data is None else data.draw(st.lists(st.sampled_from(containers))
                                                      if containers else st.just([]))
    assert jsonutil.dumps(_spliced(obj, chosen)) == jsonutil.dumps(obj)


def test_dumps_does_not_walk_a_canonical_leaf(monkeypatch):
    inner = {"levels": [{"cells": ["a", "b"]}, {"cells": ["c"]}]}
    outer = {"snapshot": jsonutil.Canonical(jsonutil.dumps(inner)), "depth": 1}
    walked = []
    encode = jsonutil._encode

    def counting(o, *rest):
        walked.append(o)
        return encode(o, *rest)

    monkeypatch.setattr(jsonutil, "_encode", counting)
    assert jsonutil.dumps(outer) == stdlib_text({"snapshot": inner, "depth": 1})
    assert len(walked) == 3 and all(any(o is v for v in (outer, *outer.values())) for o in walked)


def test_read_keeps_the_text_with_its_value(tmp_path):
    path = tmp_path / "a.json"
    path.write_text('{"b":  [1]}', encoding="utf-8")
    texts = {}
    value = jsonutil.read(path, texts)
    assert texts == {id(value): (value, '{"b":  [1]}')}
    assert jsonutil.text_digest('{"b":  [1]}') == hashlib.sha256(b'{"b":  [1]}').hexdigest()


@pytest.mark.parametrize("obj", [
    1.5,
    0.0,
    float("nan"),
    {"w": {"q": 0.5}},
    [1, [2, [3.0]]],
    Fraction(1, 2),
    {1: "one"},
    {"a": 1, 2: "two"},
    {None: 0},
    {True: 0},
    {(1, 2): 0},
])
def test_dumps_refuses_floats_non_json_values_and_non_string_keys(obj):
    with pytest.raises(TypeError):
        jsonutil.dumps(obj)
    with pytest.raises(TypeError):
        jsonutil.digest(obj)


def test_float_in_dumps_names_the_contract():
    with pytest.raises(TypeError, match="inexact number 1.5"):
        jsonutil.dumps({"w": [1.5]})


@pytest.mark.parametrize("text, constant", [
    ("NaN", "NaN"),
    ("Infinity", "Infinity"),
    ("-Infinity", "-Infinity"),
    ('{"format": NaN}', "NaN"),
    ('{"unread": [1, {"deep": Infinity}]}', "Infinity"),
    ('[0, -Infinity]', "-Infinity"),
])
def test_loads_refuses_nan_and_infinity_as_it_refuses_floats(text, constant):
    want = f'inexact number {constant}; write fractions as strings such as "1/10"'
    with pytest.raises(TypeError) as err:
        jsonutil.loads(text)
    assert str(err.value) == want
    with pytest.raises(TypeError) as err:
        jsonutil.loads("1.5")
    assert str(err.value) == want.replace(constant, "1.5")


@pytest.mark.parametrize("text, code", [
    ('"\\ud800"', "D800"),
    ('{"\\udc00": 1}', "DC00"),
    ('["a", {"b": "x\\uDBFF"}]', "DBFF"),
    ('"\\ude00\\ud83d"', "DE00"),  # a pair in the wrong order is two lone halves
    ('"\\ud83d\\u0041"', "D83D"),
])
def test_loads_refuses_an_unpaired_surrogate(text, code):
    with pytest.raises(ValueError) as err:
        jsonutil.loads(text)
    assert str(err.value) == f"a JSON string holds the unpaired surrogate U+{code}"


@pytest.mark.parametrize("text, value", [
    ('"\\ud83d\\ude00"', "\U0001f600"),
    ('{"\\uD835\\uDD38": ["\\u00e9"]}', {"\U0001d538": ["é"]}),
    ('"\\\\ud800"', "\\ud800"),  # an escaped backslash, then letters
])
def test_loads_reads_surrogate_pairs_and_escaped_backslashes(text, value):
    assert jsonutil.loads(text) == value
