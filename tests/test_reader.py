"""The reader: ``cli._load_json`` decodes as ``json.loads`` does, through json's C scanner."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ultrapoly import cli
from ultrapoly.cli import ParseError, _load_json

# characters of JSON's syntax, whitespace it skips and some it does not
# (form feed, vertical tab, no-break space), and text it must unescape
TOKENS = st.sampled_from(
    [
        "{", "}", "[", "]", ",", ":", '"', "\\", " ", "\t", "\n", "\r", "\f", "\x0b", "\xa0",
        "\ufeff", "0", "1", "-", ".", "e", "+", "true", "false", "null", "NaN", "Infinity",
        "-Infinity", '"a"', '"\\u00e9"', '"\\ud83d\\ude00"', "é", "\x00", "1e400", "01",
    ]
)
NOISE = st.lists(TOKENS, max_size=12).map("".join)
WHITESPACE = st.text(alphabet=" \t\n\r", max_size=3)
VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(st.text(max_size=3), children, max_size=4)
    ),
    max_leaves=20,
)


@st.composite
def texts(draw):
    """Valid JSON text, whitespace around it, and now and then noise before, inside or after."""
    text = json.dumps(draw(VALUES), indent=draw(st.sampled_from([None, 1])))
    text = draw(WHITESPACE) + text + draw(WHITESPACE)
    where = draw(st.sampled_from(["none", "before", "inside", "after", "only"]))
    noise = draw(NOISE)
    if where == "before":
        text = noise + text
    elif where == "inside":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + noise + text[at:]
    elif where == "after":
        text += noise
    elif where == "only":
        text = noise
    return text


def _expected(text: str, path, parse_float):
    """("value", repr of json.loads' value) or ("error", the ParseError text json's error gives)."""
    try:
        return ("value", repr(json.loads(text, parse_float=parse_float)))
    except json.JSONDecodeError as exc:
        where = f"line {exc.lineno} column {exc.colno}"
        return ("error", f"{path}: invalid JSON at {where}: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        return ("error", f"{path}: invalid JSON: {exc}")


def _read(text: str, path, parse_float):
    path.write_bytes(text.encode("utf-8"))
    try:
        return ("value", repr(_load_json(path, parse_float=parse_float)))
    except ParseError as exc:
        return ("error", str(exc))


def _check(tmp_path, text: str, parse_float) -> None:
    path = tmp_path / "in.json"
    assert _read(text, path, parse_float) == _expected(text, path, parse_float)


DEEP = "[" * 100_000 + "]" * 100_000
BIG_INT = "1" * 4301  # over the interpreter's default int-string digit limit


@pytest.mark.parametrize("parse_float", [None, str])
@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=texts())
@example(text='\ufeff{"a": 1}')  # a byte order mark
@example(text=' \t\n\r[1, 2] \r\n\t ')  # whitespace json skips around the value
@example(text='\f[1]')  # and whitespace it does not
@example(text="[1] [2]")  # extra data
@example(text="[1] x")
@example(text="")
@example(text="  ")
@example(text="[NaN, Infinity, -Infinity, 1.5, -0.0, 1e400]")
@example(text='{"a": 1, "b": 2, "a": 3}')  # a duplicate key: the last value wins
@example(text="[1.0, 2.50, 1e-7, -3E+2]")
@example(text=BIG_INT)
@example(text=f"[{BIG_INT}]")
@example(text=DEEP)
@example(text='["\\ud800", "\\u00e9\\n"]')
@example(text='["a\tb"]')  # a control character inside a string
@example(text="[1,\n2,\n")
def test_reader_matches_json_loads(tmp_path, parse_float, text):
    _check(tmp_path, text, parse_float)


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=texts())
@example(text='\ufeff{"a": 1}')
@example(text="[1] [2]")
@example(text=DEEP)
def test_reader_without_the_accelerator_matches_json_loads(tmp_path, monkeypatch, text):
    monkeypatch.setattr(cli, "_json", None)
    calls = []
    loads = json.loads

    def counting(*args, **kwargs):
        calls.append(1)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    _check(tmp_path, text, str)
    assert len(calls) == 2  # the reader took json.loads, as did the expectation


def test_reader_does_not_call_json_loads(tmp_path, monkeypatch):
    # control for the test above: with the accelerator the reader never reaches json.loads
    if cli._json is None:
        pytest.skip("json has no C accelerator here")

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(json, "loads", refuse)
    path = tmp_path / "in.json"
    path.write_text('{"a": [1, 2.5, "x"]}\n')
    assert _load_json(path, parse_float=str) == {"a": [1, "2.5", "x"]}


def test_reader_keeps_the_decode_error_as_its_cause(tmp_path):
    path = tmp_path / "in.json"
    path.write_text('{"a": 1,}')
    with pytest.raises(ParseError, match="line 1 column 9: Expecting property name") as info:
        _load_json(path)
    assert isinstance(info.value.__cause__, json.JSONDecodeError)


def test_reader_reads_a_path_as_str_or_path_like(tmp_path):
    path = tmp_path / "in.json"
    path.write_text("[1]")
    assert _load_json(path) == _load_json(str(path)) == [1]
