"""Pipeline driver: commands, exit codes, determinism, exports."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from ultrapoly import PAdic, Schedule, UltraSpace, assemble_expansion
from ultrapoly.cli import (
    DEFAULT_PRECISION,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    InputFormatError,
    PipelineConfig,
    _BUNDLE_FIELDS,
    _CHECKS,
    _join,
    _load_bundle,
    _parse_streams,
    export_dot,
    main,
    run,
)
from ultrapoly.nerve import _parents
from ultrapoly.spaces import MergeTree

from corpus import UNDECIDABLE_PRIME, random_code_space, replace


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def ultra_input(tmp_path):
    return _write(
        tmp_path / "space.json",
        {
            "labels": ["a", "b", "c", "d"],
            "prime": 2,
            "matrix": [
                ["0", "1/4", "1/2", "1/2"],
                ["1/4", "0", "1/2", "1/2"],
                ["1/2", "1/2", "0", "1/4"],
                ["1/2", "1/2", "1/4", "0"],
            ],
        },
    )


@pytest.fixture
def crooked_input(tmp_path):
    return _write(
        tmp_path / "crooked.json",
        {
            "labels": ["a", "b", "c"],
            "prime": 2,
            "matrix": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
        },
    )


def test_validate_accepts_ultrametric(ultra_input, capsys):
    assert main(["validate", ultra_input]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] is False


def test_validate_names_violating_triple(crooked_input, capsys):
    assert main(["validate", crooked_input]) == EXIT_VERIFY
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] is True
    assert report["stages"]["validate"]["violating_triple"] == ["a", "b", "c"]


def _no_space(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("validate built a space")

    monkeypatch.setattr(UltraSpace, "__init__", refuse)


def test_validate_needs_no_value_group_entries(tmp_path, capsys, monkeypatch):
    # 1/2 is no power of 3: only a space built without rounding needs one
    matrix = [[0, "1/2", 1], ["1/2", 0, 1], [1, 1, 0]]
    path = _write(tmp_path / "half.json", {"labels": ["a", "b", "c"], "prime": 3, "matrix": matrix})
    with monkeypatch.context() as patch:
        _no_space(patch)
        assert main(["validate", path]) == EXIT_OK
    stages = json.loads(capsys.readouterr().out)["stages"]
    assert list(stages) == ["validate"]
    assert stages["validate"]["status"] == "passed" and stages["validate"]["violations"] == 0
    # expand builds space.json, so there the entries must be powers of p
    code = main(["expand", path, "--stages", "validate", "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    assert "request the 'round' stage" in capsys.readouterr().err


def test_validate_parses_digit_streams(tmp_path, capsys):
    obj = {"labels": ["x", "y"], "prime": 3, "padic_points": [[0, 1], [2, 1]]}
    assert main(["validate", _write(tmp_path / "ok.json", obj)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["stages"]["validate"]["violations"] == 0
    obj["padic_points"][1][0] = 3
    assert main(["validate", _write(tmp_path / "bad.json", obj)]) == EXIT_INPUT
    assert "bad digit stream" in capsys.readouterr().err


def test_a_bad_digit_stream_is_named_with_the_prime_in_force(tmp_path, capsys):
    obj = {"labels": ["x", "y"], "prime": 3, "padic_points": [[0, 1], [2, 1]]}
    path = _write(tmp_path / "in.json", obj)
    out = str(tmp_path / "o")
    # the digit 2 is good for the input's prime 3, and bad for the prime 2 of --prime
    assert main(["expand", path, "--out", out]) == EXIT_OK
    capsys.readouterr()
    assert main(["expand", path, "--prime", "2", "--out", out]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {path}: field 'padic_points' stream 1:"
        " bad digit stream for prime 2: digits must lie in [0, p-1]\n"
    )
    empty = _write(tmp_path / "empty.json", dict(obj, padic_points=[[1], []]))
    assert main(["validate", empty]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {empty}: field 'padic_points' stream 1:"
        " bad digit stream for prime 3: empty digit stream\n"
    )


def test_a_stream_past_the_budget_builds_one_padic(monkeypatch):
    # the digits past the 32-digit budget are checked by the digit-stream rule,
    # not read into a PAdic of their own
    built = []
    init = PAdic.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(PAdic, "__init__", counted)
    streams = [[1] * 40, [0, 1] * 20, [0] * 33, [1, 0, 1]]
    obj = {"labels": ["w", "x", "y", "z"], "prime": 2, "padic_points": streams}
    points = _parse_streams(obj, 2, DEFAULT_PRECISION, "in.json")
    assert len(built) == len(points) == 4
    assert [x.known_upto() for x in points] == [32, 32, 32, 3]
    with pytest.raises(InputFormatError, match="stream 1: bad digit stream for prime 2: digits"):
        _parse_streams(dict(obj, padic_points=[[1], [1] * 32 + [2]]), 2, DEFAULT_PRECISION, "x")


# the windows.json rows of tests/cli_cases.py, with the witness and the files checked
def test_validate_checks_the_pair_exponents_of_digit_streams(tmp_path, capsys):
    # unequal windows: [0,1] is at distance 0 from both others, which sit 2^-2 apart
    obj = {"labels": ["a", "b", "c"], "prime": 2, "padic_points": [[0, 1], [0, 1, 1], [0, 1, 0]]}
    path = _write(tmp_path / "windows.json", obj)
    out = tmp_path / "o"
    for argv in (["validate", path], ["expand", path, "--out", str(out)]):
        assert main(argv) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["failed"] is True and list(report["stages"]) == ["validate"]
        stage = report["stages"]["validate"]
        assert stage["status"] == "failed"
        assert stage["violating_triple"] == ["b", "a", "c"] and stage["violation_count"] == 1
    # the failed proof is the failed stage: expand writes no file
    assert not out.exists()


# the twice.json rows of tests/cli_cases.py, on both kinds of input
@pytest.mark.parametrize("command", ["validate", "expand"])
@pytest.mark.parametrize("kind", ["matrix", "padic_points"])
@pytest.mark.parametrize("labels", [["a", "a"], [1, "1"]])
def test_labels_repeated_as_strings_are_an_input_error(tmp_path, capsys, command, kind, labels):
    # both commands run the one input check, which compares labels as the CLI names points
    points = {"matrix": [["0", "1/2"], ["1/2", "0"]], "padic_points": [[0, 1], [1, 1]]}[kind]
    path = _write(tmp_path / "twice.json", {"labels": labels, "prime": 2, kind: points})
    out = tmp_path / "out"
    argv = [command, path] + (["--out", str(out)] if command == "expand" else [])
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "field 'labels' must be unique" in captured.err
    assert captured.out == "" and not out.exists()


def test_expand_without_round_fails_on_crooked(crooked_input, tmp_path, capsys):
    code = main(
        [
            "expand",
            crooked_input,
            "--stages",
            "validate,expand,verify",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_VERIFY
    report = json.loads(capsys.readouterr().out)
    assert report["stages"]["validate"]["violating_triple"] == ["a", "b", "c"]


def test_expand_with_round_repairs_crooked(crooked_input, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["expand", crooked_input, "--out", str(out)])
    assert code == EXIT_OK
    bundle = json.loads((out / "expansion.json").read_text())
    assert bundle["reports"]["functoriality_ok"]
    space = json.loads((out / "space.json").read_text())
    assert "gamma_matrix" in space and "matrix" in space


def test_expand_full_pipeline_bundle(ultra_input, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["expand", ultra_input, "--stages", "validate,round,expand,verify,shadow", "--out", str(out)]
    )
    assert code == EXIT_OK
    bundle = json.loads((out / "expansion.json").read_text())
    assert [len(level["vertices"]) for level in bundle["levels"]] == [1, 1, 2, 4]
    shadow = json.loads((out / "shadow.json").read_text())
    assert shadow["reports"]["dim_preserved"]


def test_space_is_serialized_once_for_both_outputs(ultra_input, monkeypatch):
    # both outputs hold one view of the exponent table, read from the tree:
    # the n x n list of UltraSpace.to_json and MergeTree.rows is never built
    calls = []
    to_json, rows = UltraSpace.to_json, MergeTree.rows
    monkeypatch.setattr(UltraSpace, "to_json", lambda self: calls.append(1) or to_json(self))
    monkeypatch.setattr(MergeTree, "rows", lambda self, *a: calls.append(2) or rows(self, *a))
    _, outputs, code = run(PipelineConfig(), Path(ultra_input))
    assert code == EXIT_OK
    space, bundle_space = outputs["space.json"], outputs["expansion.json"]["space"]
    assert bundle_space["gamma_matrix"] is space["gamma_matrix"]
    assert "matrix" in space and "matrix" not in bundle_space
    assert calls == []
    # the counters are live, and the view reads as the list they build
    expected = {"labels": ["a", "b", "c", "d"], "prime": 2, "gamma_matrix": space["gamma_matrix"]}
    assert expected == to_json(UltraSpace.from_json(space))
    assert calls == [2]


def test_demo_lists_no_exponent_table(tmp_path, monkeypatch, capsys):
    # demo zp echoes its space as expand does: the n x n list of
    # UltraSpace.to_json and MergeTree.rows is never built
    calls = []
    to_json, rows = UltraSpace.to_json, MergeTree.rows
    monkeypatch.setattr(UltraSpace, "to_json", lambda self: calls.append(1) or to_json(self))
    monkeypatch.setattr(MergeTree, "rows", lambda self, *a: calls.append(2) or rows(self, *a))
    out = tmp_path / "zp"
    assert main(["demo", "zp", "--prime", "3", "--depth", "2", "--out", str(out)]) == EXIT_OK
    assert calls == []
    # the counters are live, and the written echo reads as the list they build
    space = json.loads((out / "expansion.json").read_text())["space"]
    listed = UltraSpace.from_json(space).to_json()
    assert listed == {key: space[key] for key in ("labels", "prime", "gamma_matrix")}
    assert calls == [1, 2]


@pytest.mark.parametrize("literal", ["0.000064", "6.4E-5", "64e-6"])
@pytest.mark.parametrize("stages", ["validate,round,expand,verify", "validate,expand,verify"])
def test_float_literals_are_read_exactly(tmp_path, literal, stages):
    # each literal is 5^-6, which no binary float is: 6.4e-05 rounded to 5^-7
    path = tmp_path / "float.json"
    path.write_text(
        f'{{"labels": ["a", "b"], "prime": 5, "matrix": [[0, {literal}], [{literal}, 0]]}}'
    )
    out = tmp_path / "out"
    assert main(["expand", str(path), "--stages", stages, "--out", str(out)]) == EXIT_OK
    space = json.loads((out / "space.json").read_text())
    assert space["gamma_matrix"] == [["INF", 6], [6, "INF"]]
    assert space["matrix"] == [["0", literal], [literal, "0"]]  # echoed as written


@pytest.mark.parametrize("command", ["validate", "expand"])
def test_boolean_matrix_entry_is_refused(tmp_path, capsys, command):
    path = tmp_path / "bool.json"
    path.write_text('{"labels": ["a", "b"], "prime": 2, "matrix": [[0, 1], [true, 0]]}')
    assert main([command, str(path)]) == EXIT_INPUT
    assert f"error: {path}: field 'matrix' row 1 holds a boolean entry" in capsys.readouterr().err


def test_padic_points_input(tmp_path):
    path = _write(
        tmp_path / "points.json",
        {
            "labels": ["x", "y", "z"],
            "prime": 3,
            "padic_points": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        },
    )
    out = tmp_path / "out"
    assert main(["expand", path, "--out", str(out)]) == EXIT_OK
    bundle = json.loads((out / "expansion.json").read_text())
    assert bundle["space"]["padic_points"] == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]


def test_merged_points_leave_their_digit_streams_behind(tmp_path, capsys):
    # y repeats x: round merges it into x, and shadow reads one stream per label
    path = _write(
        tmp_path / "points.json",
        {"labels": ["x", "y", "z"], "prime": 2, "padic_points": [[0, 1], [0, 1], [1]]},
    )
    out = tmp_path / "out"
    assert main(["expand", path, "--out", str(out)]) == EXIT_OK
    space = json.loads((out / "expansion.json").read_text())["space"]
    assert (space["labels"], space["padic_points"]) == (["x", "z"], [[0, 1], [1]])
    # space.json echoes the input's streams, as it echoes a matrix as written
    assert json.loads((out / "space.json").read_text())["padic_points"] == [[0, 1], [0, 1], [1]]
    assert main(["shadow", str(out / "expansion.json"), "--out", str(out)]) == EXIT_OK


def test_demo_zp_writes_expected_levels(tmp_path):
    out = tmp_path / "demo"
    assert main(["demo", "zp", "--prime", "3", "--depth", "3", "--out", str(out)]) == EXIT_OK
    bundle = json.loads((out / "expansion.json").read_text())
    assert [len(level["vertices"]) for level in bundle["levels"]] == [1, 3, 9, 27]
    shadow = json.loads((out / "shadow.json").read_text())
    assert len(shadow["theta_samples"]) == 27


def test_demo_zp_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["demo", "zp", "--prime", "2", "--depth", "3", "--out", str(out1)]) == EXIT_OK
    assert main(["demo", "zp", "--prime", "2", "--depth", "3", "--out", str(out2)]) == EXIT_OK
    for name in ("expansion.json", "shadow.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_export_dot(tmp_path, capsys):
    out = tmp_path / "demo"
    main(["demo", "zp", "--prime", "3", "--depth", "2", "--out", str(out)])
    capsys.readouterr()
    dots = tmp_path / "dots"
    assert main(["export", "dot", str(out / "expansion.json"), "--out", str(dots)]) == EXIT_OK
    files = sorted(path.name for path in dots.iterdir())
    assert files == ["level_0.dot", "level_1.dot", "level_2.dot"]
    first = (dots / "level_1.dot").read_bytes()
    assert main(["export", "dot", str(out / "expansion.json"), "--out", str(dots)]) == EXIT_OK
    assert (dots / "level_1.dot").read_bytes() == first


@pytest.mark.parametrize("out", ["dots", "./dots/", "dots//sub/.", "dots/../dots"])
def test_export_dot_prints_paths_as_pathlib_spells_them(tmp_path, capsys, monkeypatch, out):
    main(["demo", "zp", "--prime", "2", "--depth", "2", "--out", str(tmp_path / "demo")])
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dots").mkdir()
    assert main(["export", "dot", "demo/expansion.json", "--out", out]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(Path(out) / f"level_{m}.dot") for m in range(len(printed))]
    assert all(Path(path).is_file() for path in printed)


@given(directory=st.lists(st.sampled_from(["", ".", "..", "a", "b c"]), max_size=5).map("/".join))
@example(directory="//a")
@example(directory="///a")
@example(directory="/")
def test_paths_are_joined_as_pathlib_joins_them(directory):
    assert _join(directory, "x.dot") == str(Path(directory) / "x.dot")


def test_shadow_command(tmp_path):
    out = tmp_path / "demo"
    main(["demo", "zp", "--prime", "2", "--depth", "2", "--out", str(out)])
    shadow_dir = tmp_path / "sh"
    assert main(["shadow", str(out / "expansion.json"), "--out", str(shadow_dir)]) == EXIT_OK
    shadow = json.loads((shadow_dir / "shadow.json").read_text())
    assert shadow["reports"]["dim_preserved"]


def test_shadow_exits_1_when_a_dimension_changes(tmp_path, capsys):
    out = tmp_path / "demo"
    main(["demo", "zp", "--prime", "2", "--depth", "2", "--out", str(out)])
    capsys.readouterr()
    bundle = json.loads((out / "expansion.json").read_text())
    bundle["levels"][1]["dimL"] = 5
    tampered = _write(tmp_path / "tampered.json", bundle)
    shadow_dir = tmp_path / "sh"
    assert main(["shadow", tampered, "--out", str(shadow_dir)]) == EXIT_VERIFY
    assert "dimL" in capsys.readouterr().err
    # the failed check's shadow.json is still written
    shadow = json.loads((shadow_dir / "shadow.json").read_text())
    assert shadow["reports"]["dim_preserved"] is False


def test_a_failed_shadow_stage_fails_the_run(ultra_input, tmp_path, monkeypatch):
    from ultrapoly import shadow as shadow_module

    original = shadow_module.shadow_bundle

    def changed_dimension(bundle):
        result = original(bundle)
        result["reports"]["dim_preserved"] = False
        return result

    monkeypatch.setattr(shadow_module, "shadow_bundle", changed_dimension)
    config = PipelineConfig(stages=("validate", "round", "expand", "verify", "shadow"))
    report, outputs, code = run(config, Path(ultra_input))
    assert code == EXIT_VERIFY and report.failed
    assert report.stages["shadow"]["status"] == "failed"
    assert report.stages["verify"]["status"] == "passed"
    assert outputs["shadow.json"]["reports"]["dim_preserved"] is False


def test_digit_budget_truncates_streams(tmp_path, capsys):
    # points differing only past the budget become indistinguishable and
    # are merged by the round stage
    path = _write(
        tmp_path / "deep.json",
        {
            "labels": ["x", "y"],
            "prime": 2,
            "padic_points": [[1, 0, 0, 1], [1, 0, 0, 0]],
        },
    )
    config = _write(tmp_path / "cfg.json", {"precision": 3})
    out = tmp_path / "out"
    assert main(["expand", path, "--config", config, "--out", str(out)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["stages"]["round"]["merged"] == [["y", "x"]]
    assert report["stages"]["round"]["seconds"] > 0


def test_theta_csv_emission(tmp_path):
    out = tmp_path / "demo"
    main(["demo", "zp", "--prime", "2", "--depth", "2", "--csv", "--out", str(out)])
    lines = (out / "theta.csv").read_text().splitlines()
    assert lines[0] == "digits,theta_num,theta_den"
    assert len(lines) == 1 + 4
    # residue 1 has bits (1,0): theta = 1/2
    assert "1:0,1,2" in lines


def test_schedule_rejection_is_an_input_error(ultra_input, tmp_path, capsys):
    config = _write(
        tmp_path / "cfg.json",
        {"schedule": {"j": [0, 1, 2, 3], "k": [0, 0, 1, 1]}},
    )
    code = main(["expand", ultra_input, "--config", config, "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    assert "schedule rejected" in capsys.readouterr().err


# the huge.json and below.json rows of tests/cli_cases.py, with the whole message
@pytest.mark.parametrize(
    "config, message",
    [
        ({"schedule": {"j": [0, 1], "k": "auto"}}, "j and k must both be lists or both 'auto'"),
        # auto j and k: one level per exponent step, 10^9 of them, refused before any is built
        ({"schedule": {"b": -(10**9)}}, "the auto schedule needs 1000000004 levels, more than 4096"),
        # b = 5 at k = 1: level 0's threshold p^-4 lies below its one block's diameter p^-1
        (
            {"schedule": {"j": [0, 1], "k": [1, 1], "b": 5}},
            "level 0: threshold (exponent 4) is below the block diameter bound (exponent 1)",
        ),
    ],
)
def test_a_config_schedule_that_cannot_be_built_is_rejected(
    ultra_input, tmp_path, capsys, config, message
):
    out = tmp_path / "o"
    config = _write(tmp_path / "cfg.json", config)
    code = main(["expand", ultra_input, "--config", config, "--out", str(out)])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"schedule rejected: {message}\n"
    assert captured.out == "" and not out.exists()


# the crooked.json rows of tests/cli_cases.py, with the witness and a negative entry
@pytest.mark.parametrize("stages", ["validate,expand", "expand"])
def test_a_matrix_without_round_fails_as_its_validate_stage_would(tmp_path, capsys, stages):
    # 3 is no power of 2 and breaks the ultrametric: the failed proof comes first
    crooked = [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]]
    negative = [["0", "-1/2", "1"], ["-1/2", "0", "1"], ["1", "1", "0"]]
    out = tmp_path / "out"
    for matrix in (crooked, negative):
        obj = {"labels": ["a", "b", "c"], "prime": 2, "matrix": matrix}
        path = _write(tmp_path / "in.json", obj)
        code = main(["expand", path, "--stages", stages, "--out", str(out)])
        captured = capsys.readouterr()
        if matrix is negative:
            assert code == EXIT_INPUT and captured.err == "error: entry (0,1) is negative\n"
        elif stages == "expand":
            assert code == EXIT_VERIFY
            assert captured.err.startswith("error: ultrametric inequality fails on (a, b, c)")
        else:
            assert code == EXIT_VERIFY and captured.err == ""
            stage = json.loads(captured.out)["stages"]["validate"]
            assert stage["violating_triple"] == ["a", "b", "c"] and stage["violation_count"] == 1
        assert not out.exists()


def test_unseparated_digit_streams_need_the_round_stage(tmp_path, capsys):
    # 0 and 0 + 0*2 are one point: expand names the pair, and round merges it
    obj = {"labels": ["a", "b"], "prime": 2, "padic_points": [[0], [0, 0]]}
    path = _write(tmp_path / "in.json", obj)
    out = tmp_path / "out"
    assert main(["expand", path, "--stages", "validate,expand", "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: expansion requires a separated space: a and b are at distance 0;"
        " merge them with quotient_zero (the 'round' stage)\n"
    )
    assert not out.exists()
    assert main(["expand", path, "--out", str(out)]) == EXIT_OK
    stages = json.loads(capsys.readouterr().out)["stages"]
    assert stages["round"]["merged"] == [["b", "a"]]


@pytest.mark.parametrize("command", ["validate", "expand"])
def test_an_input_that_is_no_object_is_an_input_error(tmp_path, capsys, command):
    path = _write(tmp_path / "list.json", [{"labels": ["a"], "prime": 2, "matrix": [[0]]}])
    assert main([command, path]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {path}: input must be a JSON object\n"


def test_a_config_that_is_no_object_names_its_file(ultra_input, tmp_path, capsys):
    config = _write(tmp_path / "cfg.json", [])
    code = main(["expand", ultra_input, "--config", config, "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {config}: config file must hold a JSON object\n"


def test_a_precision_below_one_is_an_input_error(ultra_input, tmp_path, capsys):
    code = main(["expand", ultra_input, "--precision", "0", "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == "error: precision must be >= 1\n"


def test_parse_error_is_distinct(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == EXIT_INPUT
    assert "line" in capsys.readouterr().err


def test_missing_field_is_schema_error(tmp_path, capsys):
    path = _write(tmp_path / "nofield.json", {"labels": ["a"], "prime": 2})
    assert main(["validate", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "matrix" in err or "padic_points" in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("prime", "2"),
        ("prime", 4),
        ("prime", True),
        ("labels", "abc"),
        ("matrix", [1, 2, 3]),
        ("matrix", [["0", "1", "1"], ["1", "0"], ["1", "1", "0"]]),
        ("matrix", [["0", "x", "1"], ["x", "0", "1"], ["1", "1", "0"]]),
        ("matrix", [["0", "1/0", "1"], ["1/0", "0", "1"], ["1", "1", "0"]]),
        ("padic_points", [[0, 1], "ab", [1, 1]]),
        ("padic_points", [[0, 1], [1, "1"], [1, 1]]),
        ("matrix", [["0", "1", "1"], ["1", "0", "1"]]),
        # a digit at or above the prime, a negative digit, an empty stream
        ("padic_points", [[0, 1], [2, 1], [1, 1]]),
        ("padic_points", [[0, 1], [1, 1], [0, -1]]),
        ("padic_points", [[0, 1], [], [1, 1]]),
        # a bad digit past the 32 digits that are read
        ("padic_points", [[0, 1], [1] * 32 + [2], [1, 1]]),
    ],
)
def test_malformed_field_is_named(tmp_path, capsys, field, value):
    obj = {
        "labels": ["a", "b", "c"],
        "prime": 2,
        "matrix": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
    }
    if field == "padic_points":
        del obj["matrix"]
    obj[field] = value
    path = _write(tmp_path / "bad.json", obj)
    assert main(["expand", path, "--out", str(tmp_path / "out")]) == EXIT_INPUT
    assert f"error: {path}: field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("b", [-1, -2])
def test_auto_schedule_with_negative_b_separates(tmp_path, b):
    path = _write(
        tmp_path / "three.json",
        {
            "labels": ["a", "b", "c"],
            "prime": 2,
            "matrix": [["0", "1/4", "1/2"], ["1/4", "0", "1/2"], ["1/2", "1/2", "0"]],
        },
    )
    config = _write(tmp_path / "cfg.json", {"schedule": {"b": b}})
    out = tmp_path / "out"
    assert main(["expand", path, "--config", config, "--out", str(out)]) == EXIT_OK
    bundle = json.loads((out / "expansion.json").read_text())
    assert len(bundle["levels"][-1]["maximal_simplexes"]) == 3


def test_config_env_var_supplies_defaults(ultra_input, tmp_path, monkeypatch):
    config = _write(
        tmp_path / "cfg.json",
        {"stages": ["validate", "round", "expand"], "out": str(tmp_path / "envout")},
    )
    monkeypatch.setenv("ULTRAPOLY_CONFIG", config)
    assert main(["expand", ultra_input]) == EXIT_OK
    assert (tmp_path / "envout" / "expansion.json").exists()


def test_flag_overrides_config(ultra_input, tmp_path):
    config = _write(tmp_path / "cfg.json", {"out": str(tmp_path / "cfgout")})
    flagout = tmp_path / "flagout"
    assert main(["expand", ultra_input, "--config", config, "--out", str(flagout)]) == EXIT_OK
    assert (flagout / "expansion.json").exists()
    assert not (tmp_path / "cfgout").exists()


def test_config_rejects_unknown_stage():
    from ultrapoly.cli import InputFormatError

    with pytest.raises(InputFormatError):
        PipelineConfig(stages=("validate", "warp"))


@pytest.mark.parametrize("source", ["flag", "config"])
def test_demo_is_not_a_pipeline_stage(ultra_input, tmp_path, capsys, source):
    # `demo` is a command; as a stage it would run nothing and report no stages
    out = tmp_path / "out"
    if source == "flag":
        args = ["--stages", "validate,demo"]
    else:
        args = ["--config", _write(tmp_path / "cfg.json", {"stages": ["validate", "demo"]})]
    assert main(["expand", ultra_input, *args, "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "unknown stage 'demo'" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("stage", ["verify", "shadow"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_stage_that_reads_the_expansion_needs_expand(ultra_input, tmp_path, capsys, stage, source):
    # without expand there is no expansion to verify or shadow, and the run would check nothing
    out = tmp_path / "out"
    if source == "flag":
        args = ["--stages", f"validate,{stage}"]
    else:
        args = ["--config", _write(tmp_path / "cfg.json", {"stages": ["validate", stage]})]
    assert main(["expand", ultra_input, *args, "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"stage {stage!r} needs the 'expand' stage" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", [["shadow"], ["export", "dot"]])
@pytest.mark.parametrize(
    "bundle, field",
    [
        ([1, 2], "a bundle must hold a JSON object"),
        ({"levels": []}, "'space'"),
        ({"space": {"labels": ["a"]}}, "'levels'"),
        ({"space": {"labels": 5}, "levels": []}, "'space.labels'"),
        ({"space": {"labels": ["a"]}, "levels": [1]}, "'levels[0]'"),
    ],
)
def test_malformed_bundle_is_an_input_error(tmp_path, capsys, command, bundle, field):
    path = _write(tmp_path / "bundle.json", bundle)
    assert main([*command, path, "--out", str(tmp_path / "out")]) == EXIT_INPUT
    assert field in capsys.readouterr().err


def test_shadow_names_bad_bonding_and_prime(tmp_path, capsys):
    out = tmp_path / "demo"
    main(["demo", "zp", "--prime", "2", "--depth", "2", "--out", str(out)])
    capsys.readouterr()
    bundle = json.loads((out / "expansion.json").read_text())
    bad_bonding = _write(tmp_path / "bonding.json", dict(bundle, bonding="x"))
    assert main(["shadow", bad_bonding, "--out", str(tmp_path / "sh")]) == EXIT_INPUT
    assert "'bonding'" in capsys.readouterr().err
    bundle["space"]["prime"] = 4
    bad_prime = _write(tmp_path / "prime.json", bundle)
    assert main(["shadow", bad_prime, "--out", str(tmp_path / "sh")]) == EXIT_INPUT
    assert "'space.prime'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, field",
    [
        ({"precision": "x"}, "precision"),
        ({"precision": 0}, "precision"),
        ({"stages": "validate"}, "stages"),
        ({"stages": ["validate", 3]}, "stages"),
        ({"prime": "3"}, "prime"),
        ({"out": 5}, "out"),
        ({"schedule": "auto"}, "schedule"),
        ({"schedule": {"j": "x", "k": "auto"}}, "schedule.j"),
        ({"schedule": {"j": [0, 1], "k": [0, None]}}, "schedule.k"),
        ({"schedule": {"b": "1"}}, "schedule.b"),
    ],
)
def test_malformed_config_field_is_named(ultra_input, tmp_path, capsys, config, field):
    path = _write(tmp_path / "cfg.json", config)
    code = main(["expand", ultra_input, "--config", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_INPUT
    assert f"config field '{field}'" in capsys.readouterr().err


def test_a_config_prime_that_is_no_prime_names_its_config_file(
    ultra_input, tmp_path, capsys, monkeypatch
):
    # the input file's own refusal names no config; a config's, by option or by
    # environment variable, names its file and its config field
    obj = {**json.loads(Path(ultra_input).read_text()), "prime": 4}
    bad_input = _write(tmp_path / "bad.json", obj)
    assert main(["validate", bad_input]) == EXIT_INPUT
    refusal = f"error: {bad_input}: field 'prime' must be a prime integer, got 4\n"
    assert capsys.readouterr().err == refusal
    config = _write(tmp_path / "cfg.json", {"prime": 4})
    expected = f"error: {config}: config field 'prime' must be a prime integer, got 4\n"
    out = str(tmp_path / "out")
    assert main(["expand", ultra_input, "--config", config, "--out", out]) == EXIT_INPUT
    assert capsys.readouterr().err == expected
    monkeypatch.setenv("ULTRAPOLY_CONFIG", config)
    assert main(["expand", ultra_input, "--out", out]) == EXIT_INPUT
    assert capsys.readouterr().err == expected


def test_a_prime_option_that_is_no_prime_names_the_option(ultra_input, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["expand", ultra_input, "--prime", "4", "--out", out]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == "error: option '--prime' must be a prime integer, got 4\n"
    assert captured.out == "" and not Path(out).exists()


def test_mersenne_prime_input_is_accepted(tmp_path, capsys):
    path = _write(
        tmp_path / "big.json",
        {"labels": ["x", "y"], "prime": 2**61 - 1, "padic_points": [[0, 1], [1, 1]]},
    )
    assert main(["validate", path]) == EXIT_OK


def test_undecidable_prime_is_an_input_error(tmp_path, capsys):
    path = _write(
        tmp_path / "big.json",
        {"labels": ["x", "y"], "prime": UNDECIDABLE_PRIME, "padic_points": [[0, 1], [1, 1]]},
    )
    assert main(["expand", path, "--out", str(tmp_path / "out")]) == EXIT_INPUT
    assert f"error: {path}: field 'prime': cannot decide" in capsys.readouterr().err
    config = _write(tmp_path / "cfg.json", {"prime": UNDECIDABLE_PRIME})
    small = _write(
        tmp_path / "small.json",
        {"labels": ["x", "y"], "prime": 2, "padic_points": [[0, 1], [1, 1]]},
    )
    assert main(["expand", small, "--config", config, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert "field 'prime': cannot decide" in capsys.readouterr().err


@pytest.fixture
def demo_bundle(tmp_path, capsys):
    out = tmp_path / "demo"
    main(["demo", "zp", "--prime", "2", "--depth", "2", "--out", str(out)])
    capsys.readouterr()
    return json.loads((out / "expansion.json").read_text())


def _set_field(bundle, path, value):
    *parents, last = path
    obj = bundle
    for key in parents:
        obj = obj[key]
    obj[last] = value
    return bundle


# schedule.j a string, a schedule.k entry a string, schedule.b one entry short
BAD_SCHEDULES = [
    (("schedule", "j"), "0"),
    (("schedule", "k", 0), "1"),
    (("schedule", "b"), lambda bundle: bundle["schedule"]["b"][:-1]),
]
# schedules of one integer (or "INF" for b) per level that are not the levels'
# own, each refused at the field it first contradicts: a four-level schedule cut
# to the demo's three levels (j not the scales 0 to 2, k rising, every b "INF"),
# and a copy with every k raised by one; the demo's schedule with every k raised
# by one, or every b "INF": thresholds that are not b scaled by k
UNTIED_SCHEDULES = [
    ({"j": [9, 9, 9], "k": [5, 6, 7], "b": ["INF"] * 3}, "schedule.j"),
    ({"j": [9, 9, 9], "k": [6, 7, 8], "b": ["INF"] * 3}, "schedule.j"),
    (
        lambda bundle: {**bundle["schedule"], "k": [k + 1 for k in bundle["schedule"]["k"]]},
        "levels[0].threshold",
    ),
    (lambda bundle: {**bundle["schedule"], "b": ["INF"] * 3}, "levels[0].threshold"),
]


def _tied(field, values, **schedule):
    """A function of the bundle: it sets field of each level to values in turn, and
    returns the bundle's schedule with the lists in schedule put in."""

    def tie(bundle):
        for level, value in zip(bundle["levels"], values):
            level[field] = value
        return {**bundle["schedule"], **schedule}

    return tie


# schedules tied to their levels that break Schedule's order rules: scales that
# fall, thresholds that grow with every k 0, and k rising with b raised to match
# each threshold (the demo's are 0 to 2, with every k 0)
ORDERLESS_SCHEDULES = [
    _tied("scale", [2, 1, 0], j=[2, 1, 0]),
    _tied("threshold", [2, 1, 0], b=[2, 1, 0]),
    _tied("threshold", [0, 1, 2], k=[0, 1, 2], b=[0, 2, 4]),
]


# the rows of tests/cli_cases.py refuse some of these bundles by the whole command
@pytest.mark.parametrize(
    "command, path, value, field",
    [
        (["export", "dot"], ("levels", 0, "vertices"), 5, "levels[0].vertices"),
        (["shadow"], ("levels", 0, "vertices"), 5, "levels[0].vertices"),
        (["shadow"], ("bonding", 0, "vertex_map"), [1, 2], "bonding[0].vertex_map"),
        (
            ["export", "dot"],
            ("levels", 1, "maximal_simplexes"),
            [[0], "x"],
            "levels[1].maximal_simplexes",
        ),
        (["shadow"], ("levels", 1, "maximal_simplexes"), [[0], "x"], "levels[1].maximal_simplexes"),
        (["export", "dot"], ("levels", 1, "vertices"), [0, 9], "levels[1].vertices"),
        (["shadow"], ("levels", 0, "threshold"), "x", "levels[0].threshold"),
        (["shadow"], ("levels", 0, "dimL"), None, "levels[0].dimL"),
        (["shadow"], ("bonding", 0, "to"), "0", "bonding[0].to"),
        (["shadow"], ("space", "padic_points", 0), 1, "space.padic_points"),
        (["shadow"], ("schedule",), [], "schedule"),
        # one digit stream fewer, or more, than the four labels
        (["shadow"], ("space", "padic_points"), [[0, 0], [1, 0], [0, 1]], "space.padic_points"),
        (["shadow"], ("space", "padic_points"), [[0, 0]] * 5, "space.padic_points"),
        (["shadow"], ("bonding", 0, "vertex_map", "1"), 10**6, "bonding[0].vertex_map"),
        # two levels numbered 0: their DOT files would share one name
        (["export", "dot"], ("levels", 1, "level"), 0, "levels[1].level"),
        # bonding maps between levels the bundle does not have (levels 0 to 2)
        (["shadow"], ("bonding", 0, "from"), 7, "bonding[0].from"),
        (["shadow"], ("bonding", 1, "to"), -1, "bonding[1].to"),
        # a key that is no vertex of level 1, and a value that is no vertex
        # of level 1 though it is one of level 2
        (["shadow"], ("bonding", 0, "vertex_map", "2"), 0, "bonding[0].vertex_map"),
        (["shadow"], ("bonding", 1, "vertex_map", "0"), 2, "bonding[1].vertex_map"),
        # vertex 1 of level 1 dropped from the map onto level 0
        (["shadow"], ("bonding", 0, "vertex_map"), {"0": 0}, "bonding[0].vertex_map"),
        # level 2's simplexes miss vertex 0, or list 0 and 1 twice: no partition
        # of its vertices (0 to 3), which both commands read
        (
            ["shadow"],
            ("levels", 2, "maximal_simplexes"),
            [[1], [2], [3]],
            "levels[2].maximal_simplexes",
        ),
        (
            ["export", "dot"],
            ("levels", 2, "maximal_simplexes"),
            [[1], [2], [3]],
            "levels[2].maximal_simplexes",
        ),
        (
            ["shadow"],
            ("levels", 2, "maximal_simplexes"),
            [[0], [1], [2], [3], [0, 1]],
            "levels[2].maximal_simplexes",
        ),
        (
            ["export", "dot"],
            ("levels", 2, "maximal_simplexes"),
            [[0], [1], [2], [3], [0, 1]],
            "levels[2].maximal_simplexes",
        ),
        # level 2's simplex {0, 1} goes onto vertices 0 and 1 of level 1, which lie
        # in two of its maximal simplexes: no simplicial, hence no affine, map
        (
            ["shadow"],
            ("levels", 2, "maximal_simplexes"),
            [[0, 1], [2], [3]],
            "bonding[1].vertex_map",
        ),
        # a digit at or above the prime 2, a negative digit, an empty stream
        (["shadow"], ("space", "padic_points", 1), [1, 2], "space.padic_points"),
        (["shadow"], ("space", "padic_points", 2), [-1, 0], "space.padic_points"),
        (["shadow"], ("space", "padic_points", 3), [], "space.padic_points"),
        # level 2 sent straight onto level 0 by the composite vertex map: a
        # simplicial map that skips level 1, listed between them
        (
            ["shadow"],
            ("bonding", 1),
            {"from": 2, "to": 0, "vertex_map": {"0": 0, "1": 0, "2": 0, "3": 0}},
            "bonding[1].to",
        ),
        # bonding lists that are not the chain of levels: a map dropped, a map
        # listed twice, the maps reversed, no maps; and no levels at all
        (["shadow"], ("bonding",), lambda bundle: bundle["bonding"][:1], "bonding"),
        (
            ["shadow"],
            ("bonding",),
            lambda bundle: bundle["bonding"][:1] + bundle["bonding"],
            "bonding",
        ),
        (["shadow"], ("bonding",), lambda bundle: bundle["bonding"][::-1], "bonding[0].from"),
        (["shadow"], ("bonding",), [], "bonding"),
        (["shadow"], ("levels",), [], "levels"),
        (["export", "dot"], ("levels",), [], "levels"),
        # schedules that are not one integer (or "INF" for b) per level
        *((["shadow"], path, value, path[0] + "." + path[1]) for path, value in BAD_SCHEDULES),
        *((["shadow"], ("schedule",), value, field) for value, field in UNTIED_SCHEDULES),
        *((["shadow"], ("schedule",), value, "schedule") for value in ORDERLESS_SCHEDULES),
        # a vertex listed twice, which a partition of the level's vertices would not see
        (["export", "dot"], ("levels", 1, "vertices"), [0, 0], "levels[1].vertices"),
    ],
)
def test_bad_level_and_map_fields_are_named(
    tmp_path, capsys, demo_bundle, command, path, value, field
):
    if callable(value):  # a function of the bundle
        value = value(demo_bundle)
    bad = _write(tmp_path / "bad.json", _set_field(demo_bundle, path, value))
    assert main([*command, bad, "--out", str(tmp_path / "out")]) == EXIT_INPUT
    assert f"bundle field '{field}'" in capsys.readouterr().err


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(2, 12),
    k=st.integers(1, 2),
    data=st.data(),
)
def test_the_loader_and_the_objects_share_one_simplicial_rule(
    tmp_path_factory, seed, p, n, k, data
):
    # one vertex of one map sent to another vertex of the coarser level: the
    # loader refuses the bundle exactly where the objects' parent rule finds
    # a fine simplex with no parent.  The map is drawn, where there is one,
    # from those out of a level with a simplex of two or more vertices, which
    # k >= 1 makes common, onto a level of two or more simplexes, and the
    # vertex from such a simplex.  80 examples take about 0.5 s
    space = random_code_space(random.Random(seed), p, n)
    expansion = assemble_expansion(space, Schedule.auto(space, k_shift=k))
    levels = expansion.levels
    joined = [
        [v for s in level.nerve.maximal_simplexes if len(s) > 1 for v in s] for level in levels
    ]
    breakable = [
        m
        for m in range(len(levels) - 1)
        if joined[m + 1] and len(levels[m].nerve.maximal_simplexes) > 1
    ]
    m = data.draw(st.sampled_from(breakable or range(len(levels) - 1)))
    fine, coarse, bmap = levels[m + 1], levels[m], expansion.bonding[m]
    v = data.draw(st.sampled_from(joined[m + 1] or fine.nerve.vertices))
    vertex_map = {**bmap.vertex_map, v: data.draw(st.sampled_from(coarse.nerve.vertices))}
    bonding = list(expansion.bonding)
    bonding[m] = replace(bmap, vertex_map=vertex_map)
    mutant = replace(expansion, bonding=tuple(bonding))
    path = _write(tmp_path_factory.mktemp("bundle") / "expansion.json", mutant.to_bundle())
    parents = _parents(fine.nerve.maximal_simplexes, vertex_map.get, coarse.nerve.simplex_of)
    event(f"refused: {None in parents}")
    if None in parents:
        field = rf"'bonding\[{m}\].vertex_map' must be simplicial"
        with pytest.raises(InputFormatError, match=field):
            _load_bundle(path, shadow=True)
    else:
        _load_bundle(path, shadow=True)


def test_export_dot_does_not_read_bonding(tmp_path, capsys, demo_bundle):
    bonding = _set_field(demo_bundle, ("bonding", 0, "vertex_map"), [1, 2])
    bad = _write(tmp_path / "bad.json", bonding)
    assert main(["export", "dot", bad, "--out", str(tmp_path / "dots")]) == EXIT_OK
    assert len(list((tmp_path / "dots").glob("level_*.dot"))) == 3


@pytest.mark.parametrize(
    "path, value",
    [
        *BAD_SCHEDULES,
        *((("schedule",), value) for value, _ in UNTIED_SCHEDULES),
        *((("schedule",), value) for value in ORDERLESS_SCHEDULES),
    ],
)
def test_export_dot_does_not_read_schedule(tmp_path, capsys, demo_bundle, path, value):
    if callable(value):
        value = value(demo_bundle)
    bad = _write(tmp_path / "bad.json", _set_field(demo_bundle, path, value))
    assert main(["export", "dot", bad, "--out", str(tmp_path / "dots")]) == EXIT_OK
    assert len(list((tmp_path / "dots").glob("level_*.dot"))) == 3


def test_shadow_echoes_only_the_schedule_fields_of_the_table(tmp_path, capsys, demo_bundle):
    written = dict(demo_bundle["schedule"])
    extra = _set_field(demo_bundle, ("schedule", "x"), {"anything": [1, 2]})
    assert main(["shadow", _write(tmp_path / "x.json", extra), "--out", str(tmp_path)]) == EXIT_OK
    echoed = json.loads((tmp_path / "shadow.json").read_text())["schedule"]
    rows = {row[0] for row in _BUNDLE_FIELDS if row[0].startswith("schedule.")}
    assert echoed == written and {f"schedule.{key}" for key in echoed} == rows


FIELD_ROWS = {row[0] for row in _BUNDLE_FIELDS}


def _fields_held(obj, path=""):
    """The field paths obj holds ("[]" for each item of a list), down to the table's depth."""
    if isinstance(obj, dict):
        children = [(f"{path}.{key}" if path else key, value) for key, value in obj.items()]
    else:
        children = [(f"{path}[]", value) for value in obj] if isinstance(obj, list) else []
    fields = set()
    for field, value in children:
        fields.add(field)
        if any(row.startswith((f"{field}.", f"{field}[]")) for row in FIELD_ROWS):
            fields |= _fields_held(value, field)
    return fields


def test_every_written_field_is_a_row(tmp_path, capsys, ultra_input):
    streams = _write(
        tmp_path / "streams.json",
        {"labels": ["a", "b", "c"], "prime": 3, "padic_points": [[0, 1], [0, 2], [1]]},
    )
    runs = {
        "zp": ["demo", "zp", "--prime", "2", "--depth", "2"],
        **{
            f"{kind}{stages}": ["expand", source, "--stages", stages]
            for kind, source in (("streams", streams), ("matrix", ultra_input))
            for stages in ("validate,round,expand", "validate,round,expand,verify")
        },
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == EXIT_OK
        bundle = json.loads((tmp_path / name / "expansion.json").read_text())
        assert _fields_held(bundle) <= FIELD_ROWS, name
    capsys.readouterr()
    # control: a field the table lacks is found
    assert _fields_held({**bundle, "version": 1}) - FIELD_ROWS == {"version"}


class _Reads(dict):
    """A bundle object that records the field path of each key read from it."""

    def __init__(self, obj: dict, path: str, reads: set) -> None:
        self.path, self.reads = path, reads
        super().__init__(
            (key, _recording(value, self._field(key), reads)) for key, value in obj.items()
        )

    def _field(self, key) -> str:
        return f"{self.path}.{key}" if self.path else key

    def __getitem__(self, key):
        self.reads.add(self._field(key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(self._field(key))
        return super().get(key, default)

    def __contains__(self, key) -> bool:
        self.reads.add(self._field(key))
        return super().__contains__(key)


def _recording(value, path: str, reads: set):
    if isinstance(value, dict):
        return _Reads(value, path, reads)
    if isinstance(value, list):
        return [_recording(item, f"{path}[]", reads) for item in value]
    return value


def _unchecked_reads(reader, command: str, bundle: dict) -> set[str]:
    """The fields reader reads from bundle that no row checks for command."""
    reads: set[str] = set()
    reader(_recording(bundle, "", reads))
    return reads - {row[0] for row in _BUNDLE_FIELDS if row[1] in _CHECKS[command]}


def test_every_field_a_reader_reads_is_checked_for_its_command(tmp_path, capsys, ultra_input):
    from ultrapoly.shadow import shadow_bundle

    main(["expand", ultra_input, "--out", str(tmp_path / "matrix")])
    main(["demo", "zp", "--prime", "3", "--depth", "2", "--out", str(tmp_path / "zp")])
    capsys.readouterr()
    readers = {
        "shadow": shadow_bundle,
        "export dot": lambda bundle: export_dot(bundle, tmp_path / "dots"),
    }
    for name in ("matrix", "zp"):
        bundle = json.loads((tmp_path / name / "expansion.json").read_text())
        for command, reader in readers.items():
            assert _unchecked_reads(reader, command, bundle) == set(), (name, command)
    # control: a shadow reader patched to read the exponent table, which no command checks
    patched = lambda bundle: (bundle["space"]["gamma_matrix"], shadow_bundle(bundle))
    assert _unchecked_reads(patched, "shadow", bundle) == {"space.gamma_matrix"}


@st.composite
def expand_inputs(draw):
    """An input object of random digit streams or a random rational matrix,
    and a schedule: auto, or explicit scales that may skip some."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        digits = st.lists(st.integers(0, p - 1), min_size=1, max_size=5)
        field = {"padic_points": draw(st.lists(digits, min_size=n, max_size=n))}
    else:
        entry = st.sampled_from(["0", "1", "2", "1/2", "1/3", "3/4", "0.7", "9", "5/27"])
        matrix = [["0"] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                matrix[i][j] = matrix[j][i] = draw(entry)
        field = {"matrix": matrix}
    schedule = "auto"
    if draw(st.booleans()):
        js = draw(st.lists(st.integers(-2, 6), min_size=1, max_size=5, unique=True))
        schedule = {"j": sorted(js), "k": [draw(st.integers(0, 2))] * len(js)}
    return {"labels": [f"x{i}" for i in range(n)], "prime": p, **field}, schedule


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=expand_inputs())
# the skip.json row of tests/cli_cases.py: limit recovery fails on skipped scales
@example(
    case=(
        {
            "labels": ["a", "b", "c", "d"],
            "prime": 2,
            "padic_points": [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]],
        },
        {"j": [0, 2, 4], "k": [1, 1, 1]},
    )
)
def test_every_written_bundle_loads(tmp_path, capsys, case):
    obj, schedule = case
    argv = ["expand", _write(tmp_path / "input.json", obj), "--out", str(tmp_path / "out")]
    if schedule != "auto":
        argv += ["--config", _write(tmp_path / "config.json", {"schedule": schedule})]
    bundle = tmp_path / "out" / "expansion.json"
    bundle.unlink(missing_ok=True)
    code = main(argv)
    capsys.readouterr()
    if bundle.exists():  # a failed proof or a refused schedule writes none
        assert code in (EXIT_OK, EXIT_VERIFY)
        _load_bundle(bundle, shadow=True)


@pytest.mark.parametrize("command", ["expand", "shadow", "demo", "export"])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, ultra_input, command):
    main(["demo", "zp", "--prime", "2", "--depth", "2", "--out", str(tmp_path / "demo")])
    bundle = str(tmp_path / "demo" / "expansion.json")
    capsys.readouterr()
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = {
        "expand": ["expand", ultra_input],
        "shadow": ["shadow", bundle],
        "demo": ["demo", "zp", "--prime", "2", "--depth", "2"],
        "export": ["export", "dot", bundle],
    }[command]
    # the output directory would sit under a regular file
    assert main([*args, "--out", str(blocker / "out")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("prime, depth", [(2, 64), (3, 7), (2, 10**9)])
def test_demo_zp_refuses_groups_above_the_cap(tmp_path, capsys, prime, depth):
    # each fails the cap check before any space is built
    out = tmp_path / "zp"
    code = main(["demo", "zp", "--prime", str(prime), "--depth", str(depth), "--out", str(out)])
    assert code == EXIT_INPUT
    assert f"depth {depth} is too large" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "expand"])
@pytest.mark.parametrize("kind", ["matrix", "padic_points"])
def test_an_empty_label_list_is_an_input_error(tmp_path, capsys, command, kind):
    path = _write(tmp_path / "empty.json", {"labels": [], "prime": 2, kind: []})
    out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    assert main([command, path, *out]) == EXIT_INPUT
    assert f"error: {path}: field 'labels' must name at least one point" in capsys.readouterr().err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-string digit limit"
)
@pytest.mark.parametrize("command", ["validate", "expand", "shadow", "config"])
def test_an_integer_literal_over_the_digit_limit_names_the_file(tmp_path, capsys, ultra_input, command):
    # 5001 digits: over the int-string conversion limit of Python 3.11 and later
    bad = tmp_path / "big.json"
    bad.write_text('{"labels": ["a", "b"], "prime": 1%s, "matrix": []}' % ("0" * 5000))
    out = ["--out", str(tmp_path / "out")]
    args = {
        "validate": ["validate", str(bad)],
        "expand": ["expand", str(bad), *out],
        "shadow": ["shadow", str(bad), *out],
        "config": ["expand", ultra_input, "--config", str(bad), *out],
    }[command]
    assert main(args) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: invalid JSON") and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "expand", "shadow", "export", "config"])
def test_json_nested_past_the_recursion_limit_names_the_file(tmp_path, capsys, ultra_input, command):
    deep = tmp_path / "deep.json"
    deep.write_text('{"labels": ' + "[" * 100_000 + "]" * 100_000 + "}")
    out = ["--out", str(tmp_path / "out")]
    args = {
        "validate": ["validate", str(deep)],
        "expand": ["expand", str(deep), *out],
        "shadow": ["shadow", str(deep), *out],
        "export": ["export", "dot", str(deep), *out],
        "config": ["expand", ultra_input, "--config", str(deep), *out],
    }[command]
    assert main(args) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deep}: invalid JSON") and "Traceback" not in err


def _expand_under_hash_seed(tmp_path, obj, stages: str, seed: str) -> dict:
    path = _write(tmp_path / "in.json", obj)
    out = tmp_path / f"out_{seed}"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ultrapoly", "expand", path, "--out", str(out), "--stages", stages],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@pytest.mark.parametrize(
    "obj, stages",
    [
        (
            {"labels": ["x", "y", "z", "w"], "prime": 3, "padic_points": [[1, 2], [1, 2, 0], [2], [0, 1, 1, 2]]},
            "validate,round,expand,verify,shadow",
        ),
        (
            # string labels and a duplicated row, so the quotient merges
            {
                "labels": ["pear", "fig", "kiwi", "lime"],
                "prime": 2,
                "matrix": [
                    ["0", "0.3", "1/3", "0.3"],
                    ["0.3", "0", "0.9", "0"],
                    ["1/3", "0.9", "0", "0.9"],
                    ["0.3", "0", "0.9", "0"],
                ],
            },
            "validate,round,expand,verify",
        ),
    ],
    ids=["padic", "raw"],
)
def test_bundles_do_not_depend_on_the_hash_seed(tmp_path, obj, stages):
    first = _expand_under_hash_seed(tmp_path, obj, stages, "0")
    assert {"expansion.json", "space.json"} <= set(first)
    assert ("shadow.json" in first) == stages.endswith("shadow")
    assert _expand_under_hash_seed(tmp_path, obj, stages, "1") == first


def _run_under_c_locale(*args: str) -> subprocess.CompletedProcess:
    """``python -m ultrapoly <args>`` with an ASCII locale and no UTF-8 mode or coercion."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONIO"))}
    env.update(
        LC_ALL="C",
        PYTHONUTF8="0",
        PYTHONCOERCECLOCALE="0",
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, timeout=60
    )


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # control: under this locale the default text encoding is ASCII
    probe = _run_under_c_locale("-c", "import locale; print(locale.getpreferredencoding(False))")
    assert probe.stdout.decode().strip() in {"ANSI_X3.4-1968", "ascii", "US-ASCII"}
    obj = {"labels": ["café", "b", "c"], "prime": 2, "padic_points": [[1, 0], [1, 1], [0, 1]]}
    source = tmp_path / "in.json"
    source.write_bytes(json.dumps(obj, ensure_ascii=False).encode("utf-8"))
    out, dot = tmp_path / "out", tmp_path / "dot"
    expand = _run_under_c_locale("-m", "ultrapoly", "expand", str(source), "--out", str(out))
    assert expand.returncode == EXIT_OK, expand.stderr
    bundle = out / "expansion.json"
    assert json.loads(bundle.read_bytes())["space"]["labels"][0] == "café"
    export = _run_under_c_locale("-m", "ultrapoly", "export", "dot", str(bundle), "--out", str(dot))
    assert export.returncode == EXIT_OK, export.stderr
    assert '"café"'.encode("utf-8") in (dot / "level_0.dot").read_bytes()


def test_a_file_that_is_not_utf8_names_its_path(tmp_path):
    source = tmp_path / "latin1.json"
    source.write_bytes(b'{"labels": ["caf\xe9"], "prime": 2, "padic_points": [[1]]}')
    for args in (["expand", str(source), "--out", str(tmp_path)], ["validate", str(source)]):
        proc = _run_under_c_locale("-m", "ultrapoly", *args)
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr.decode().startswith(f"error: {source}: not UTF-8 text")
