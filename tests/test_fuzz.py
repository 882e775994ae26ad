"""Mutated inputs and bundles through ``main``: no traceback, and exit codes keep their meaning.

Each example takes a valid input file or bundle and deletes one field or
list entry, changes its type, replaces an integer with another, or nests
it one level too deep, then runs every command that reads it.  Exit 0
means every requested check passed, 2 malformed input, and 1 only that a
verification ran and failed: a failed stage of the printed report, or
for ``shadow`` a ``shadow.json`` whose level dimensions changed.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ultrapoly.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main

MATRIX_INPUT = {
    "labels": ["a", "b", "c", "d"],
    "prime": 2,
    "matrix": [
        ["0", "1/4", "1/2", "1/2"],
        ["1/4", "0", "1/2", "1/2"],
        ["1/2", "1/2", "0", "1/4"],
        ["1/2", "1/2", "1/4", "0"],
    ],
}
PADIC_INPUT = {
    "labels": ["x", "y", "z"],
    "prime": 3,
    "padic_points": [[0, 0, 1], [1, 0, 0], [0, 1, 2]],
}
OTHER_VALUES = [0, 7, -1, "x", "INF", None, True, 1.5, [], {}, [0], {"0": 1}]


def _paths(obj, prefix=()):
    """Every node below the root, as a key path."""
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return []
    out = []
    for key, value in children:
        out.append(prefix + (key,))
        out.extend(_paths(value, prefix + (key,)))
    return out


@st.composite
def mutants(draw, original):
    obj = copy.deepcopy(original)
    path = draw(st.sampled_from(_paths(obj)))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    renumber = type(parent[key]) is int
    kind = draw(st.sampled_from(["delete", "retype", "nest"] + ["renumber"] * renumber))
    if kind == "delete":
        del parent[key]
    elif kind == "renumber":
        parent[key] += draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    elif kind == "retype":
        parent[key] = draw(
            st.sampled_from([v for v in OTHER_VALUES if type(v) is not type(parent[key])])
        )
    else:
        parent[key] = draw(st.sampled_from([[parent[key]], {"x": parent[key]}]))
    return obj


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    assert code in (EXIT_OK, EXIT_VERIFY, EXIT_INPUT)
    return code, out.getvalue(), err.getvalue()


def _verification_failed(stdout):
    return json.loads(stdout)["failed"] is True


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def bundle(work):
    _run(["demo", "zp", "--prime", "2", "--depth", "2", "--out", str(work / "demo")])
    return json.loads((work / "demo" / "expansion.json").read_text())


FUZZ = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@FUZZ
@given(data=st.data(), original=st.sampled_from([MATRIX_INPUT, PADIC_INPUT]))
def test_mutated_inputs_keep_the_exit_contract(work, data, original):
    path = work / "input.json"
    path.write_text(json.dumps(data.draw(mutants(original))))
    for argv in (["validate", str(path)], ["expand", str(path), "--out", str(work / "out")]):
        code, stdout, _ = _run(argv)
        if code == EXIT_VERIFY:
            assert _verification_failed(stdout)


@FUZZ
@given(data=st.data())
def test_mutated_bundles_keep_the_exit_contract(work, bundle, data):
    path = work / "bundle.json"
    path.write_text(json.dumps(data.draw(mutants(bundle))))
    shadow = work / "shadow" / "shadow.json"
    shadow.unlink(missing_ok=True)
    code, _, _ = _run(["shadow", str(path), "--csv", "--out", str(shadow.parent)])
    # shadow verifies one thing, that each level's real dimension is its dimL,
    # and writes shadow.json whenever it read the bundle
    if code != EXIT_INPUT:
        preserved = json.loads(shadow.read_text())["reports"]["dim_preserved"]
        assert code == (EXIT_OK if preserved else EXIT_VERIFY)
    code, _, _ = _run(["export", "dot", str(path), "--out", str(work / "dot")])
    assert code != EXIT_VERIFY  # export dot verifies nothing


@FUZZ
@given(prime=st.sampled_from([-3, 0, 1, 2, 3, 4]), depth=st.sampled_from([-1, 0, 1, 2, 3, 64]))
def test_demo_arguments_keep_the_exit_contract(work, prime, depth):
    code, stdout, _ = _run(
        ["demo", "zp", "--prime", str(prime), "--depth", str(depth), "--out", str(work / "zp")]
    )
    if code == EXIT_VERIFY:
        assert _verification_failed(stdout)
