"""The bundle writer: the bytes of json.dump(sort_keys=True, indent=2) plus a newline."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ultrapoly.cli import _dump_json, _leaf_encoder, _write_json, main

# strings the encoder must escape: quotes, backslashes, control and non-ASCII characters
TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé \U0001f600'), st.characters()),
    max_size=8,
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.integers(),  # big and negative
    st.floats(),
    TEXT,
)
# json sorts the keys as they are, so one dict holds keys of one kind
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=5),
        st.dictionaries(st.booleans(), children, max_size=2),
    ),
    max_leaves=40,
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(obj=VALUES)
# a newline and indent before every closing bracket, at every depth
@example(obj={"a": [1, [2, 3], {"b": [4]}], "c": [[], {}, [5]]})
# objects sorted by their keys as they are, leaves and non-leaves alike
@example(obj={"b": {"z": 1, "y": 2}, "a": [{"d": [3], "c": None}]})
@example(obj={10: [1], 2: {3: None, 1: True}, 1: 7})
# tuples written as lists, whether leaves or not
@example(obj=[(1, 2), ((3,), ()), {"t": ("x", (None,))}])
@example(obj=((), [], {}, "", 0))
@example(obj=[[[[[[[["deep"]]]]]]]])
@example(obj="top-level scalar é")
def test_writer_matches_json_dump(tmp_path, obj):
    path = tmp_path / "out.json"
    _dump_json(path, obj)
    assert path.read_text() == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_writer_matches_json_dump_on_demo_bundles(tmp_path, capsys):
    assert main(["demo", "zp", "--prime", "3", "--depth", "3", "--out", str(tmp_path)]) == 0
    for name in ("expansion.json", "shadow.json"):
        text = (tmp_path / name).read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_writer_streams_in_pieces():
    bundle = {
        "gamma_matrix": [[(i ^ j).bit_length() for j in range(64)] for i in range(64)],
        "levels": [{"blocks": [[i, i + 1] for i in range(0, 64, 2)]} for _ in range(8)],
    }
    pieces: list[str] = []
    _write_json(pieces.append, bundle, 0)
    text = "".join(pieces)
    assert text == json.dumps(bundle, sort_keys=True, indent=2)
    # no piece holds more than one matrix row: the whole text is never built
    assert max(map(len, pieces)) < len(text) // 50


@pytest.fixture
def fresh_encoders():
    """Empty the per-depth encoder cache before and after the test."""
    _leaf_encoder.cache_clear()
    yield
    _leaf_encoder.cache_clear()


def _nested(depth: int) -> dict:
    """Leaves and scalars at every depth below depth, many of each per depth."""
    obj: dict = {"leaf": list(range(5)), "n": 1, "s": "x"}
    for d in range(depth):
        obj = {"rows": [[i, d, None] for i in range(20)], "flag": True, "inner": obj}
    return obj


@pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="json has no C encoder here")
def test_writer_builds_at_most_one_encoder_per_depth(tmp_path, monkeypatch, fresh_encoders):
    separators = []
    make_encoder = json.encoder.c_make_encoder

    def counting(*args):
        separators.append(args[5])  # the item separator: a newline and the indent
        return make_encoder(*args)

    monkeypatch.setattr(json.encoder, "c_make_encoder", counting)
    obj = _nested(6)
    path = tmp_path / "out.json"
    for _ in range(2):
        _dump_json(path, obj)
        assert path.read_text() == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    # 7 levels of nesting and over 100 leaves and scalars, yet one encoder per depth
    assert len(separators) == len(set(separators)) <= 8
    json.dumps([1])
    assert separators[-1] == ", "  # the counter is live


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(obj=VALUES)
def test_writer_without_c_encoder_matches_json_dump(tmp_path, monkeypatch, fresh_encoders, obj):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    path = tmp_path / "out.json"
    _dump_json(path, obj)
    assert path.read_text() == json.dumps(obj, sort_keys=True, indent=2) + "\n"
