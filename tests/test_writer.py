"""The bundle writer: the bytes of json.dump(sort_keys=True, indent=2) plus a newline."""

import json
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ultrapoly import cli
from ultrapoly.cli import (
    PipelineConfig,
    _dump_json,
    _leaf_encoder,
    _leaf_texts,
    _write_json,
    _write_outputs,
    main,
    run,
)
from ultrapoly.padic import _exponent_json
from ultrapoly.spaces import MergeTree, _Table, subdominant_closure

from oracles import tree_meet

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
    """Empty the per-depth encoders and text tables before and after the test."""
    _leaf_encoder.cache_clear()
    _leaf_texts.cache_clear()
    yield
    _leaf_encoder.cache_clear()
    _leaf_texts.cache_clear()


def _nested(depth: int) -> dict:
    """Leaves and scalars at every depth below depth, many of each per depth."""
    obj: dict = {"leaf": list(range(5)), "n": 1, "s": "x"}
    for d in range(depth):
        obj = {"rows": [[i, d, None] for i in range(20)], "flag": True, "inner": obj}
    return obj


@pytest.mark.skipif(cli._json is None, reason="json has no C accelerator here")
def test_writer_builds_at_most_one_encoder_per_depth(tmp_path, monkeypatch, fresh_encoders):
    separators = []
    accelerator = cli._json

    def counting(*args):
        separators.append(args[5])  # the item separator: a newline and the indent
        return accelerator.make_encoder(*args)

    monkeypatch.setattr(
        cli,
        "_json",
        SimpleNamespace(
            make_encoder=counting, encode_basestring_ascii=accelerator.encode_basestring_ascii
        ),
    )
    obj = _nested(6)
    path = tmp_path / "out.json"
    for _ in range(2):
        _dump_json(path, obj)
        assert path.read_text() == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    # 7 levels of nesting and over 100 leaves and scalars, yet one encoder per depth;
    # the counter is live: the writer built one at each depth from 1 to 7
    assert sorted(map(len, separators)) == [2 + 2 * (depth + 1) for depth in range(1, 8)]


def test_writer_reads_the_accelerator_through_its_seam(tmp_path, monkeypatch, fresh_encoders):
    # control for the tests that patch cli._json
    path, obj = tmp_path / "out.json", {"a": [1, 2], "b": "x"}
    # an accelerator with no encoder stops the writer: it reads no other
    monkeypatch.setattr(cli, "_json", SimpleNamespace())
    with pytest.raises(AttributeError):
        _dump_json(path, obj)
    # no accelerator: the writer builds json's pure-Python encoder, one for depth 1
    built = []

    class Counting(json.JSONEncoder):
        def __init__(self, **kwargs):
            built.append(kwargs["separators"])
            super().__init__(**kwargs)

    monkeypatch.setattr(cli, "_json", None)
    monkeypatch.setattr(json, "JSONEncoder", Counting)
    _leaf_encoder.cache_clear()
    _dump_json(path, obj)
    assert built == [(",\n    ", ": ")]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(obj=VALUES)
def test_writer_without_c_encoder_matches_json_dump(tmp_path, monkeypatch, fresh_encoders, obj):
    monkeypatch.setattr(cli, "_json", None)
    _leaf_encoder.cache_clear()
    path = tmp_path / "out.json"
    _dump_json(path, obj)
    assert path.read_text() == json.dumps(obj, sort_keys=True, indent=2) + "\n"


# leaves whose text holds no comma or bracket, and strings that hold them
PLAIN = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.integers(-(10**40), 10**40)
)
SYNTAX = st.text(alphabet=',[]{}:"\\\n\t x\x00é', max_size=6)
ROW = st.lists(st.one_of(PLAIN, SYNTAX), max_size=8)
PLAIN_ROW = st.lists(PLAIN, max_size=8)
ROWS = st.lists(st.one_of(PLAIN_ROW, PLAIN_ROW.map(tuple), ROW), max_size=40)
PLAIN_ROWS = st.lists(st.one_of(PLAIN_ROW, PLAIN_ROW.map(tuple)), max_size=40)
# objects of one set of keys whose values are scalars or leaf containers; now
# and then one with a container of containers, or with another key
FLAT_VALUE = st.one_of(PLAIN, SYNTAX, ROW, st.dictionaries(SYNTAX, PLAIN, max_size=3))
FLAT_OBJECTS = st.lists(
    st.fixed_dictionaries({"a": FLAT_VALUE, "b\n,": FLAT_VALUE, "c": PLAIN_ROW}),
    min_size=1,
    max_size=80,
).flatmap(
    lambda objects: st.one_of(
        st.just(objects),
        st.just([*objects, {**objects[0], "c": [[1], []]}]),
        st.just([*objects, {"a": 1}]),
    )
)


# each list at the top or nested in lists and objects, at depths 0 to 4
NESTED = st.one_of(ROWS, PLAIN_ROWS, FLAT_OBJECTS).flatmap(
    lambda rows: st.sampled_from([rows, {"k": rows}, [[rows]], {"x": [{"y": rows}]}])
)


@pytest.mark.parametrize("c_encoder", [True, False])
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(obj=NESTED)
@example(obj=[[True, False, None], [-7, 10**40, -(10**40)], (1, 2), []])
@example(obj=[[], [[]], [1]])
@example(obj=[["a,b", "[x]"], [1, '"'], ["\\]", "\n,["]])
@example(obj=[[1, "],\n      ["], [2]])
@example(obj=[{"a": "x\n,  y", "b": [1, 2], "c": {"d": None}}, {"a": "", "b": [], "c": {}}])
# 1 and True are one key to a dict but two to json
@example(obj=[{1: "a", 2: [3]}, {True: "b", 2: [4]}])
def test_writer_matches_json_dump_on_leaf_lists(
    tmp_path, monkeypatch, fresh_encoders, c_encoder, obj
):
    if not c_encoder:
        monkeypatch.setattr(cli, "_json", None)
    _leaf_encoder.cache_clear()
    path = tmp_path / "out.json"
    _dump_json(path, obj)
    assert path.read_text() == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_only_rows_of_ints_and_none_take_the_row_route(monkeypatch):
    routes = []

    def spy(write, rows, depth, original=cli._write_text_rows):
        rows = [list(texts) for texts in rows]
        routes.append(rows)
        original(write, rows, depth)

    monkeypatch.setattr(cli, "_write_text_rows", spy)
    ints = [[1, None, -(10**40)], (0,), (None, None), [7, 7, 7, 7]]
    short = [[1, 2], [3], [4, 5]]
    # a bool anywhere keeps rows off the table, as True == 1
    plain = [[1, True, None], (-(10**40),), [0]]
    flags = [[True, 1, True, 1, 1, 1, 1, 1]]
    late_flag = [[1, 1, 1, 1], [True]]
    # strings stay off it, so that a matrix's distinct decimals never fill it
    exponents = [[0, 1, "INF", None] * 4, (1, 1, 1, 1), ["a,b]"]]
    decimals = [["0.1", "0.2", "1/3", "4"], ["0.1", "1", "2", "3"]]
    cases = [
        ints, short, plain, flags, late_flag, exponents, decimals,
        [[1], ["a,b]"]], [[1], []], [[1], [1.5]], [[2, 2, 2, 2], [2.0]],
    ]
    for rows in cases:
        text = json.dumps(rows, sort_keys=True, indent=2)
        pieces: list[str] = []
        _write_json(pieces.append, rows, 0)
        assert "".join(pieces) == text
    # bools, strings, floats and empty lists take the route of one item at a time
    texts = [[[json.dumps(leaf) for leaf in row] for row in rows] for rows in (ints, short)]
    assert routes == texts


@pytest.mark.parametrize("admitted", [cli._TABLE_TYPES, cli._TABLE_TYPES | {str}])
def test_no_text_table_holds_a_string(tmp_path, monkeypatch, fresh_encoders, admitted):
    # the 256-point raw matrix of CI's writer step: its space.json echoes
    # the matrix's decimals, whose texts no table may keep
    rng, n = random.Random(3), 256
    rows: list[list] = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i] = f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"
    path = tmp_path / "raw256.json"
    labels = [f"r{i}" for i in range(n)]
    path.write_text(json.dumps({"labels": labels, "prime": 3, "matrix": rows}))
    monkeypatch.setattr(cli, "_TABLE_TYPES", admitted)
    _, outputs, code = run(PipelineConfig(), path)
    assert code == 0
    _dump_json(tmp_path / "space.json", outputs["space.json"])
    text = (tmp_path / "space.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    strings = sum(type(key) is str for depth in range(4) for key in _leaf_texts(depth))
    # the guard is live: a table that admits strings holds the matrix's
    assert (strings > 0) == (str in admitted)


# leaves drawn from a few, so that they repeat: values equal as dict keys but
# written apart (1, True and 1.0), and strings that hold a separator's characters
REPEATING = st.sampled_from([0, 1, -1, True, False, None, 1.0, 10**40, "INF", "", "a,b]", "\n  "])
REPEATING_ROWS = st.lists(
    st.one_of(
        st.lists(REPEATING, min_size=1, max_size=12), st.lists(st.integers(0, 3), min_size=4)
    ),
    min_size=1,
    max_size=20,
).flatmap(lambda rows: st.sampled_from([rows, {"k": rows}, [[rows]]]))


@pytest.mark.parametrize("c_encoder", [True, False])
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(obj=REPEATING_ROWS)
@example(obj=[[0, 0, 0, 0, "INF"], [0, "INF", 1, 1]])
@example(obj=[[1, 1, 1, 1], [True, 1.0, False, 0]])
def test_writer_matches_json_dump_on_repeating_rows(
    tmp_path, monkeypatch, fresh_encoders, c_encoder, obj
):
    if not c_encoder:
        monkeypatch.setattr(cli, "_json", None)
    _leaf_encoder.cache_clear()
    pieces: list[str] = []
    _write_json(pieces.append, obj, 0)
    assert "".join(pieces) == json.dumps(obj, sort_keys=True, indent=2)


def test_lists_of_objects_are_written_as_json_dumps_writes_them():
    samples = [{"digits": [i % 5, 1], "label": f"x{i}", "theta": f"{i}/5"} for i in range(200)]
    pieces: list[str] = []
    _write_json(pieces.append, {"theta_samples": samples}, 0)
    assert "".join(pieces) == json.dumps({"theta_samples": samples}, sort_keys=True, indent=2)


@pytest.mark.parametrize("c_encoder", [True, False])
# the last a closure: a table of Fraction rows, which only the echo's own class writes
@pytest.mark.parametrize(
    "obj",
    [
        object(),
        [1, object()],
        {"a": {1, 2}},
        {(1, 2): 3},
        [[1.5, 1j]],
        {"gamma_matrix": subdominant_closure([[0, 1], [1, 0]])},
    ],
)
def test_writer_refuses_what_json_refuses(monkeypatch, fresh_encoders, c_encoder, obj):
    if not c_encoder:
        monkeypatch.setattr(cli, "_json", None)
    with pytest.raises(TypeError) as refused:
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as written:
        _write_json([].append, obj, 0)
    assert str(written.value) == str(refused.value)


@st.composite
def merge_trees(draw):
    """A tree of 1 to 64 points in any leaf order, with tied, negative and None heights."""
    n = draw(st.integers(1, 64))
    order = draw(st.permutations(range(n)))
    height = st.one_of(st.none(), st.integers(-2, 5))
    return MergeTree(order, draw(st.lists(height, min_size=n - 1, max_size=n - 1)))


@pytest.mark.parametrize("c_encoder", [True, False])
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(tree=merge_trees())
@example(tree=MergeTree([0], []))
@example(tree=MergeTree([2, 0, 1, 3], [None, 1, None]))
def test_the_echo_reads_and_writes_as_the_rows_of_its_tree(
    monkeypatch, fresh_encoders, c_encoder, tree
):
    if not c_encoder:
        monkeypatch.setattr(cli, "_json", None)
    _leaf_encoder.cache_clear()
    # rows() and the echo share one row generator, so each is held to the
    # exponent read off the tree's order and heights, pair by pair
    n = len(tree.order)
    meets = [[tree_meet(tree.order, tree.heights, x, y) for y in range(n)] for x in range(n)]
    assert tree.rows() == meets
    rows = [[_exponent_json(e) for e in row] for row in meets]
    assert tree.rows(_exponent_json) == rows
    echo = _Table(tree, _exponent_json)
    assert echo == rows and rows == echo and list(echo) == rows and len(echo) == len(rows)
    assert [echo[x] for x in range(len(rows))] == rows and echo[-1] == rows[-1]
    assert echo[::-1] == rows[::-1]
    # the comparison is live: one entry changed makes the tables differ
    assert echo != [*rows[:-1], [*rows[-1][:-1], "other"]]
    # at depth 1 in space.json, and at depth 2 in the bundle's space
    for nest in (dict, lambda space: {"space": space, "levels": []}):
        pieces: list[str] = []
        _write_json(pieces.append, nest({"gamma_matrix": echo, "prime": 2}), 0)
        listed = nest({"gamma_matrix": rows, "prime": 2})
        assert "".join(pieces) == json.dumps(listed, sort_keys=True, indent=2)
    # no call leaves a table, or the steps of its rows, on the tree
    assert vars(tree).keys() == {"order", "heights", "position"}


def test_writing_a_run_keeps_no_table_of_its_pairs(tmp_path):
    # 1024 distinct 16-digit 2-adic streams: at most 16 distinct heights
    n, digits = 1024, 16
    rng = random.Random(1)
    points = [[(x >> i) & 1 for i in range(digits)] for x in rng.sample(range(1 << digits), n)]
    path = tmp_path / "in.json"
    labels = [f"p{i}" for i in range(n)]
    path.write_text(json.dumps({"labels": labels, "prime": 2, "padic_points": points}))
    _, outputs, code = run(PipelineConfig(), path)
    assert code == 0
    tree = outputs["space.json"]["gamma_matrix"].tree
    depth = len(tree.finite_heights())
    assert depth == digits
    # 64 bytes per point and distinct height: 1 MiB here, where one n x n
    # table of pointers alone takes 8 MiB
    bound = 64 * n * depth

    def traced(write) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def through_rows():
        # the route of UltraSpace.to_json: the rows listed, then written
        rows = tree.rows(_exponent_json)
        bundle = outputs["expansion.json"]
        listed = {
            "space.json": {**outputs["space.json"], "gamma_matrix": rows},
            "expansion.json": {**bundle, "space": {**bundle["space"], "gamma_matrix": rows}},
        }
        _write_outputs(listed, tmp_path / "rows")

    assert traced(lambda: _write_outputs(outputs, tmp_path / "echo")) < bound
    # the guard is live: the listed route exceeds it, with the same bytes
    assert traced(through_rows) > bound
    for name in ("space.json", "expansion.json"):
        assert (tmp_path / "echo" / name).read_bytes() == (tmp_path / "rows" / name).read_bytes()
