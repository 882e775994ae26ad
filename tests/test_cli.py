"""Pipeline driver: commands, exit codes, determinism, exports."""

import json
from pathlib import Path

import pytest

from ultrapoly import UltraSpace
from ultrapoly.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    PipelineConfig,
    main,
    run,
)

from corpus import UNDECIDABLE_PRIME


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


def test_validate_parses_digit_streams(tmp_path, capsys, monkeypatch):
    _no_space(monkeypatch)
    obj = {"labels": ["x", "y"], "prime": 3, "padic_points": [[0, 1], [2, 1]]}
    assert main(["validate", _write(tmp_path / "ok.json", obj)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["stages"]["validate"]["violations"] == []
    obj["padic_points"][1][0] = 3
    assert main(["validate", _write(tmp_path / "bad.json", obj)]) == EXIT_INPUT
    assert "bad digit stream" in capsys.readouterr().err


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
    calls = []
    to_json = UltraSpace.to_json
    monkeypatch.setattr(UltraSpace, "to_json", lambda self: calls.append(1) or to_json(self))
    _, outputs, code = run(PipelineConfig(), Path(ultra_input))
    assert code == EXIT_OK
    assert len(calls) == 1
    space, bundle_space = outputs["space.json"], outputs["expansion.json"]["space"]
    assert bundle_space["gamma_matrix"] is space["gamma_matrix"]
    assert "matrix" in space and "matrix" not in bundle_space


def test_expand_requires_value_group_entries_without_round(tmp_path, capsys):
    path = _write(
        tmp_path / "raw.json",
        {
            "labels": ["a", "b"],
            "prime": 2,
            "matrix": [["0", "0.7"], ["0.7", "0"]],
        },
    )
    code = main(["expand", path, "--stages", "validate,expand"])
    assert code == EXIT_INPUT
    assert "round" in capsys.readouterr().err


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


def test_shadow_command(tmp_path):
    out = tmp_path / "demo"
    main(["demo", "zp", "--prime", "2", "--depth", "2", "--out", str(out)])
    shadow_dir = tmp_path / "sh"
    assert main(["shadow", str(out / "expansion.json"), "--out", str(shadow_dir)]) == EXIT_OK
    shadow = json.loads((shadow_dir / "shadow.json").read_text())
    assert shadow["reports"]["dim_preserved"]


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
    ],
)
def test_bad_level_and_map_fields_are_named(
    tmp_path, capsys, demo_bundle, command, path, value, field
):
    bad = _write(tmp_path / "bad.json", _set_field(demo_bundle, path, value))
    assert main([*command, bad, "--out", str(tmp_path / "out")]) == EXIT_INPUT
    assert f"bundle field '{field}'" in capsys.readouterr().err


def test_export_dot_does_not_read_bonding(tmp_path, capsys, demo_bundle):
    bonding = _set_field(demo_bundle, ("bonding", 0, "vertex_map"), [1, 2])
    bad = _write(tmp_path / "bad.json", bonding)
    assert main(["export", "dot", bad, "--out", str(tmp_path / "dots")]) == EXIT_OK
    assert len(list((tmp_path / "dots").glob("level_*.dot"))) == 3


@pytest.mark.parametrize("prime, depth", [(2, 64), (3, 7), (2, 10**9)])
def test_demo_zp_refuses_groups_above_the_cap(tmp_path, capsys, prime, depth):
    # each fails the cap check before any space is built
    out = tmp_path / "zp"
    code = main(["demo", "zp", "--prime", str(prime), "--depth", str(depth), "--out", str(out)])
    assert code == EXIT_INPUT
    assert f"depth {depth} is too large" in capsys.readouterr().err
    assert not out.exists()
