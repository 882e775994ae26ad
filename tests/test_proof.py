"""Each space is proved once.

``round_space``, ``quotient_zero`` and ``space_from_points`` hand over
the merge tree their construction proved, with no second check.  Here
each such space is held to the constructor's route, which proves its
``dist`` again, and bad input to the parent's error types and texts.  A
guard counts the single-linkage passes on each CLI path.
"""

import json
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrapoly import (
    GAMMA_ZERO,
    GammaValue,
    MatrixShapeError,
    NotPrimeError,
    NotUltrametricError,
    PAdic,
    UltraSpace,
    quotient_zero,
    round_space,
    space_from_points,
    spaces,
    subdominant_closure,
)
from ultrapoly.cli import PipelineConfig, run

from corpus import mixed_matrices, padic_families
from oracles import difference_exponents, fraction_closure, fraction_round_check


def _assert_proved_alike(space: UltraSpace) -> None:
    """space equals the constructor's space over its own dist, and has its tree."""
    checked = UltraSpace(space.labels, space.prime, space.dist)
    assert space == checked and hash(space) == hash(checked)
    assert repr(space) == repr(checked)
    assert space.to_json() == checked.to_json()
    rows = space.tree.rows()
    assert rows == checked.tree.rows()
    assert space.tree.heights == tuple(
        rows[x][y] for x, y in zip(space.tree.order, space.tree.order[1:])
    )
    heights = space.tree.finite_heights()
    for j in [None, *range(heights[0] - 1, heights[-1] + 2)] if heights else [None, 0]:
        assert space.tree.classes(j) == checked.tree.classes(j)


def _assert_quotient_alike(space: UltraSpace) -> None:
    merged, report = quotient_zero(space)
    _assert_proved_alike(merged)
    assert merged.is_separated
    kept = [space.labels.index(label) for label in merged.labels]
    rows = space.tree.rows()
    assert merged.tree.rows() == [[rows[a][b] for b in kept] for a in kept]
    assert set(report) | set(merged.labels) == set(space.labels)


@settings(max_examples=200, deadline=None)
@given(case=mixed_matrices(), p=st.sampled_from([2, 3, 5]))
def test_rounded_and_quotient_spaces_match_the_constructor(case, p):
    exact, written = case
    labels = [f"v{i}" for i in range(len(exact))]
    space = round_space(labels, subdominant_closure(written), p)
    kind, expected = fraction_round_check(fraction_closure(exact), p)
    assert kind == "exponents"
    assert space.tree.rows() == expected
    _assert_proved_alike(space)
    _assert_quotient_alike(space)


@settings(max_examples=200, deadline=None)
@given(points=padic_families())
def test_point_spaces_match_the_constructor(points):
    exponents = difference_exponents(points)
    labels = tuple(f"x{i}" for i in range(len(points)))
    dist = tuple(tuple(GAMMA_ZERO if e is None else GammaValue(e) for e in row) for row in exponents)
    try:
        expected = UltraSpace(labels, points[0].prime, dist)
    except NotUltrametricError as exc:  # unequal windows can break the inequality
        with pytest.raises(NotUltrametricError) as info:
            space_from_points(points)
        assert (info.value.triple, str(info.value)) == (exc.triple, str(exc))
        return
    space = space_from_points(points)
    assert space == expected and space.tree.rows() == expected.tree.rows()
    _assert_proved_alike(space)
    _assert_quotient_alike(space)


def _streams(*streams, p=2):
    return [PAdic.from_digit_stream(stream, p) for stream in streams]


def test_a_tree_stores_no_pairwise_table():
    # each builder hands over the leaf order and n - 1 heights, never an n x n table
    points = space_from_points(_streams([1], [0, 1], [1], [0, 0, 1]))
    rounded = round_space(["a", "b", "c"], [["0", "0", "3"], ["0", "0", "3"], ["3", "3", "0"]], 2)
    built = [points, rounded, quotient_zero(points)[0], quotient_zero(rounded)[0]]
    built.append(UltraSpace(points.labels, points.prime, points.dist))
    for space in built:
        for name, value in vars(space.tree).items():
            assert isinstance(value, tuple) and len(value) <= space.n_points, name
            assert all(entry is None or type(entry) is int for entry in value), name


CROOKED = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


@pytest.mark.parametrize(
    "build, error, text",
    [
        (lambda: round_space(["a"], [[0, 1], [1, 0]], 2), MatrixShapeError, "labels and matrix size differ"),
        (lambda: round_space(["a", "a"], [[0, 1], [1, 0]], 2), ValueError, "labels must be unique"),
        (lambda: round_space([], [], 2), ValueError, "a space needs at least one point"),
        (lambda: round_space(["a", "b"], [[0, 1], [1, 0]], 4), NotPrimeError, "base must be prime, got 4"),
        (lambda: round_space(["a", "b", "c"], CROOKED, 4), NotPrimeError, "base must be prime, got 4"),
        (
            lambda: round_space(["a", "a", "b"], CROOKED, 2),
            NotUltrametricError,
            "ultrametric inequality fails on (a, a, b): d(a,b) > max(d(a,a), d(a,b))",
        ),
        (
            lambda: space_from_points(_streams([1], [0, 1], [1, 1]), ["a", "b"]),
            MatrixShapeError,
            "distance matrix must be square over the labels",
        ),
        (
            lambda: space_from_points(_streams([1], [0, 1]), ["a", "b", "c"]),
            MatrixShapeError,
            "distance matrix must be square over the labels",
        ),
        (lambda: space_from_points(_streams([1], [0, 1]), ["a", "a"]), ValueError, "labels must be unique"),
        (lambda: space_from_points([]), ValueError, "need at least one point"),
        (
            lambda: space_from_points(_streams([1]) + _streams([1], p=3)),
            ValueError,
            "all points must share one prime",
        ),
        (
            # [0,1] is at distance 0 from both others, which lie 2^-2 apart
            lambda: space_from_points(_streams([0, 1], [0, 1, 1], [0, 1, 0])),
            NotUltrametricError,
            "ultrametric inequality fails on (x1, x0, x2): d(x1,x2) > max(d(x1,x0), d(x0,x2))",
        ),
    ],
)
def test_bad_input_keeps_its_error(build, error, text):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == text


# ------------------------------------------------------------------ guard

@pytest.fixture
def counters(monkeypatch):
    """Counts of single-linkage passes, constructor calls and dist builds."""
    counts = {"linkage": 0, "init": 0, "dist": 0}
    linkage, init, dist = spaces._single_linkage, UltraSpace.__init__, UltraSpace.dist.func

    def counted_linkage(rows):
        counts["linkage"] += 1
        return linkage(rows)

    def counted_init(self, *args, **kwargs):
        counts["init"] += 1
        init(self, *args, **kwargs)

    def counted_dist(self):
        counts["dist"] += 1
        return dist(self)

    counted = cached_property(counted_dist)
    counted.__set_name__(UltraSpace, "dist")
    monkeypatch.setattr(spaces, "_single_linkage", counted_linkage)
    monkeypatch.setattr(UltraSpace, "__init__", counted_init)
    monkeypatch.setattr(UltraSpace, "dist", counted)
    # control: the counters see a constructor's proof and a first read of dist;
    # streams pass their check with no proof, and a failed check names its
    # witness from the pair weights, with no proof either
    space = UltraSpace(("a", "b"), 2, ((GAMMA_ZERO, GammaValue(1)), (GammaValue(1), GAMMA_ZERO)))
    assert space_from_points(_streams([1, 0], [1, 1, 1]), ["a", "b"]).dist == space.dist
    with pytest.raises(NotUltrametricError):
        space_from_points(_streams([0, 1], [0, 1, 1], [0, 1, 0]))
    assert counts == {"linkage": 1, "init": 1, "dist": 1}
    counts.update(linkage=0, init=0, dist=0)
    return counts


def _run(tmp_path, obj, stages):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    report, outputs, code = run(PipelineConfig(stages=stages), path)
    assert code == 0 and "expansion.json" in outputs
    return report


def test_the_raw_path_runs_single_linkage_in_closure_and_rounding_only(tmp_path, counters):
    base = [
        ["0", "1/2", "0.25", "1/2", "0.3"],
        ["1/2", "0", "0.6", "1/8", "1/2"],
        ["0.25", "0.6", "0", "1/2", "0.2"],
        ["1/2", "1/8", "1/2", "0", "1/2"],
        ["0.3", "1/2", "0.2", "1/2", "0"],
    ]
    # f copies b: a duplicate row, which the quotient merges
    matrix = [row + [row[1]] for row in base] + [base[1] + ["0"]]
    obj = {"labels": list("abcdef"), "prime": 3, "matrix": matrix}
    report = _run(tmp_path, obj, ("validate", "round", "expand", "verify", "shadow"))
    assert report.stages["round"]["merged"] == [("f", "b")]
    assert counters == {"linkage": 2, "init": 0, "dist": 0}


def test_a_failed_stream_check_runs_no_single_linkage_and_builds_no_space(counters):
    # [0,1] is a prefix of the other two, which differ: the check fails
    with pytest.raises(NotUltrametricError) as info:
        space_from_points(_streams([0, 1], [0, 1, 1], [0, 1, 0]))
    assert info.value.triple == (1, 0, 2) and len(info.value.violations) == 1
    assert counters == {"linkage": 0, "init": 0, "dist": 0}


def test_the_padic_path_on_windows_that_end_apart_runs_no_single_linkage(tmp_path, counters):
    obj = {"labels": list("abcde"), "prime": 2, "padic_points": [[0, 1], [1, 1, 0], [0, 1], [1], [0, 0, 1]]}
    report = _run(tmp_path, obj, ("validate", "round", "expand", "verify", "shadow"))
    assert report.stages["round"]["merged"] == [("c", "a"), ("d", "b")]
    assert counters == {"linkage": 0, "init": 0, "dist": 0}


def test_the_padic_path_on_one_window_runs_no_single_linkage(tmp_path, counters):
    # zeros may end anywhere; the nonzero streams all end at position 3
    obj = {"labels": list("abcde"), "prime": 2, "padic_points": [[0, 1, 1], [1, 1, 0], [0, 1, 1], [0], [0, 0, 1]]}
    report = _run(tmp_path, obj, ("validate", "round", "expand", "verify", "shadow"))
    assert report.stages["round"]["merged"] == [("c", "a")]
    assert counters == {"linkage": 0, "init": 0, "dist": 0}
