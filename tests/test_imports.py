"""Each command imports only the modules it runs; the package's names load on first use."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ultrapoly
from ultrapoly.cli import main

# the public names: one shadow route (shadow_bundle), threads as tuples of
# simplex indices read through Expansion, and no pass-through wrappers
PUBLIC_NAMES = {
    "AsymmetricMatrixError", "BaireCodes", "BondingMap", "BoundaryPair", "C0Vector",
    "Expansion", "GAMMA_ZERO", "GammaValue", "IncoherentThreadError",
    "MatrixShapeError", "NegativeDistanceError", "NerveComplex", "NestingError",
    "NonzeroDiagonalError", "NotPrimeError", "NotUltrametricError", "PAdic",
    "PrimeMismatchError", "Realization", "ScaleCover", "Schedule", "ScheduleError",
    "SeparationError", "ThresholdError", "UltraSpace", "UnseparatedSpaceError",
    "assemble_expansion", "baire_encode", "bonding_map", "build_nerve", "c0_embed",
    "check_uniform", "cover_tower", "group_expansion", "isolated_point_check",
    "limit_isometry_check", "nerve", "nerve_to_dot", "padic", "quotient_zero",
    "realize", "residue_space", "round_space", "round_to_gamma", "scale_cover",
    "shadow", "shadow_bundle", "space_from_points", "spaces", "spectrum", "subdivide",
    "subdominant_closure", "theta", "theta_boundary_pairs", "theta_nonstretch_check",
    "theta_table_csv", "validate_ultrametric", "verify_nondegenerate",
    "verify_nonstretching",
}
# names the package no longer has: each route lives on in the name noted
REMOVED_NAMES = {
    "RealSimplex", "ShadowBonding", "ShadowComplex", "shadow_bonding", "shadow_complex",
    "shadow_expansion",  # shadow_bundle
    "Thread", "thread", "reconstruct",  # Expansion.thread, Expansion.reconstruct
    "padic_add", "padic_norm",  # PAdic.__add__, PAdic.norm
}
SUBMODULES = {"padic", "spaces", "nerve", "spectrum", "shadow"}

# standard modules that cost a CLI run start-up time and that no command needs:
# dataclasses loads inspect, which loads ast, dis and tokenize; argparse loads
# gettext, whose first call loads locale; typing and the argparse chain are
# looked for under `python -S`, since some interpreters' site loads them
SLOW_MODULES = ("dataclasses", "inspect", "typing", "argparse", "gettext", "locale")
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}
# exact rationals, which load decimal: only the commands that build a Fraction
# (a matrix entry that only Fraction reads, such as an exponent form) need them
FRACTION_MODULES = ("fractions", "decimal")
# json's Python layer, whose import compiles its regular expressions: the
# commands read and write JSON through its C accelerator, _json, alone
JSON_MODULES = ("json", "json.decoder", "json.encoder", "json.scanner")
# pathlib, which loads urllib.parse and ipaddress: looked for under `python -S`,
# since some interpreters' site loads it
PATH_MODULES = ("pathlib",)
RECORDED = SLOW_MODULES + FRACTION_MODULES + JSON_MODULES + PATH_MODULES + ("re",)

# runs `python -m ultrapoly <args>` in this interpreter, then records the exit
# code, the package modules it loaded and which of RECORDED it loaded; the
# record is written as a Python literal, so the probe itself loads no json
PROBE = f"""
import runpy, sys
out, sys.argv = sys.argv[1], ["ultrapoly", *sys.argv[2:]]
try:
    runpy.run_module("ultrapoly", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
modules = sorted(m for m in sys.modules if m.startswith("ultrapoly") or m in {RECORDED})
with open(out, "w") as fh:
    fh.write(repr({{"code": code, "modules": modules}}))
"""


def _loaded(tmp_path: Path, *args: str, prelude: str = "", flags: tuple = ()) -> set[str]:
    """Package modules (less the package prefix) and slow modules loaded by one command.

    flags are interpreter options, such as -S.
    """
    record = tmp_path / "modules.txt"
    src = str(Path(ultrapoly.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [sys.executable, *flags, "-c", prelude + PROBE, str(record), *args],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    result = ast.literal_eval(record.read_text())
    assert result["code"] == 0, result
    return {m.removeprefix("ultrapoly.") for m in result["modules"]}


@pytest.fixture
def bundle(tmp_path, capsys):
    assert main(["demo", "zp", "--prime", "3", "--depth", "3", "--out", str(tmp_path)]) == 0
    return str(tmp_path / "expansion.json")


@pytest.fixture
def matrix_input(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(
        json.dumps(
            {
                "labels": ["a", "b", "c"],
                "prime": 2,
                "matrix": [["0", "1/4", "1/2"], ["1/4", "0", "1/2"], ["1/2", "1/2", "0"]],
            }
        )
    )
    return str(path)


@pytest.fixture
def exponent_input(tmp_path):
    # "1e-1" is read by Fraction, as are all exponent forms
    path = tmp_path / "exponent.json"
    matrix = [["0", "1e-1", "1/2"], ["1e-1", "0", "1/2"], ["1/2", "1/2", "0"]]
    path.write_text(json.dumps({"labels": ["a", "b", "c"], "prime": 2, "matrix": matrix}))
    return str(path)


def test_export_dot_loads_neither_spectrum_nor_shadow(tmp_path, bundle):
    loaded = _loaded(tmp_path, "export", "dot", bundle, "--out", str(tmp_path / "dot"))
    assert "nerve" in loaded
    assert not loaded & {"spectrum", "shadow"}


def test_shadow_does_not_load_spectrum(tmp_path, bundle):
    loaded = _loaded(tmp_path, "shadow", bundle, "--csv", "--out", str(tmp_path / "sh"))
    assert "shadow" in loaded and "spectrum" not in loaded


def test_expand_loads_shadow_only_for_the_shadow_stage(tmp_path, matrix_input):
    plain = _loaded(tmp_path, "expand", matrix_input, "--out", str(tmp_path / "a"))
    assert "spectrum" in plain and "shadow" not in plain
    stages = "validate,round,expand,verify,shadow"
    with_shadow = _loaded(
        tmp_path, "expand", matrix_input, "--stages", stages, "--out", str(tmp_path / "b")
    )
    assert "shadow" in with_shadow


@pytest.fixture
def stream_input(tmp_path):
    path = tmp_path / "streams.json"
    streams = [[1, 0, 1], [1, 1, 0], [0, 1, 1], [0, 0, 1]]
    path.write_text(json.dumps({"labels": list("abcd"), "prime": 2, "padic_points": streams}))
    return str(path)


def test_streams_and_dot_export_load_no_fractions(tmp_path, stream_input, matrix_input, bundle):
    # without site, which on some interpreters loads more than it needs;
    # the shadow reads theta off the digits as integers, and a matrix of
    # ints, a/b and plain decimals is read, closed and rounded on integers
    expand = ["expand", stream_input, "--out", str(tmp_path / "e")]
    matrix = ["expand", matrix_input, "--out", str(tmp_path / "m")]
    export = ["export", "dot", bundle, "--out", str(tmp_path / "d")]
    shadow = ["shadow", bundle, "--csv", "--out", str(tmp_path / "s")]
    for argv in (expand, matrix, export, shadow):
        assert not _loaded(tmp_path, *argv, flags=("-S",)) & set(FRACTION_MODULES), argv


def test_matrix_expand_and_shadow_load_fractions(tmp_path, exponent_input):
    # positive control: the same probe sees matrix ingest that builds a Fraction
    expand = ["expand", exponent_input, "--out", str(tmp_path / "e")]
    assert set(FRACTION_MODULES) <= _loaded(tmp_path, *expand, flags=("-S",))


def test_validate_loads_neither_spectrum_nor_shadow(tmp_path, matrix_input):
    assert not _loaded(tmp_path, "validate", matrix_input) & {"spectrum", "shadow"}


def _commands(tmp_path: Path, bundle: str, matrix_input: str) -> dict[str, list[str]]:
    stages = "validate,round,expand,verify,shadow"
    return {
        "expand": ["expand", matrix_input, "--stages", stages, "--out", str(tmp_path / "e")],
        "shadow": ["shadow", bundle, "--csv", "--out", str(tmp_path / "s")],
        "export": ["export", "dot", bundle, "--out", str(tmp_path / "d")],
        "validate": ["validate", matrix_input],
        "demo": ["demo", "zp", "--prime", "2", "--depth", "3", "--out", str(tmp_path / "z")],
    }


@pytest.mark.parametrize("command", ["expand", "shadow", "export", "validate", "demo"])
def test_no_command_loads_dataclasses_or_inspect(tmp_path, bundle, matrix_input, command):
    argv = _commands(tmp_path, bundle, matrix_input)[command]
    assert not _loaded(tmp_path, *argv) & {"dataclasses", "inspect"}


def test_probe_sees_dataclasses_and_inspect(tmp_path, matrix_input):
    # positive control: the same probe after a run that imports dataclasses
    loaded = _loaded(tmp_path, "validate", matrix_input, prelude="import dataclasses\n")
    assert {"dataclasses", "inspect"} <= loaded


@pytest.mark.parametrize("command", ["expand", "shadow", "export", "validate", "demo"])
def test_no_command_loads_typing(tmp_path, bundle, matrix_input, command):
    argv = _commands(tmp_path, bundle, matrix_input)[command]
    assert "typing" not in _loaded(tmp_path, *argv, flags=("-S",))


def test_probe_sees_typing(tmp_path, matrix_input):
    # positive control: the same probe, without site, after a run that imports typing
    loaded = _loaded(tmp_path, "validate", matrix_input, prelude="import typing\n", flags=("-S",))
    assert "typing" in loaded


@pytest.mark.parametrize("command", ["expand", "shadow", "export", "validate", "demo"])
def test_no_command_loads_argparse_gettext_or_locale(tmp_path, bundle, matrix_input, command):
    argv = _commands(tmp_path, bundle, matrix_input)[command]
    assert not _loaded(tmp_path, *argv, flags=("-S",)) & ARGPARSE_MODULES


def test_probe_sees_argparse_gettext_and_locale(tmp_path, matrix_input):
    # positive control: the same probe, without site, after a run that builds an
    # argparse parser, whose first message lookup loads locale
    prelude = "import argparse\nargparse.ArgumentParser()\n"
    loaded = _loaded(tmp_path, "validate", matrix_input, prelude=prelude, flags=("-S",))
    assert ARGPARSE_MODULES <= loaded


def _every_command(tmp_path: Path, bundle: str, matrix_input: str, stream_input: str):
    streams = ["expand", stream_input, "--stages", "validate,round,expand,verify,shadow"]
    return {
        **_commands(tmp_path, bundle, matrix_input),
        "expand streams": [*streams, "--out", str(tmp_path / "t")],
        "expand default": ["expand", matrix_input, "--out", str(tmp_path / "m")],
    }


EVERY_COMMAND = ["expand", "expand streams", "shadow", "export", "validate", "demo"]


@pytest.mark.parametrize("command", EVERY_COMMAND)
def test_no_command_loads_json_or_pathlib(
    tmp_path, bundle, matrix_input, stream_input, command
):
    argv = _every_command(tmp_path, bundle, matrix_input, stream_input)[command]
    assert not _loaded(tmp_path, *argv) & set(JSON_MODULES)
    assert not _loaded(tmp_path, *argv, flags=("-S",)) & set(JSON_MODULES + PATH_MODULES)


@pytest.mark.parametrize("module", JSON_MODULES + PATH_MODULES)
def test_probe_sees_json_and_pathlib(tmp_path, matrix_input, module):
    # positive control: the same probe, without site, after a run that imports the module
    prelude = f"import {module}\n"
    loaded = _loaded(tmp_path, "validate", matrix_input, prelude=prelude, flags=("-S",))
    assert module in loaded


@pytest.mark.parametrize(
    "command", ["expand", "expand default", "expand streams", "shadow", "export", "validate", "demo"]
)
def test_only_matrix_rounding_loads_re(tmp_path, bundle, matrix_input, stream_input, command):
    # argparse, which loads re, reads any argv that is not exact tokens; these
    # commands pass exact tokens, which the exact-token reader reads without
    # re, so this holds.  fractions loads re, and only a matrix entry that
    # only Fraction reads loads fractions
    argv = _every_command(tmp_path, bundle, matrix_input, stream_input)[command]
    assert "re" not in _loaded(tmp_path, *argv, flags=("-S",))


def test_matrix_rounding_loads_re(tmp_path, exponent_input):
    # positive control: the same probe sees the Fraction of an exponent form load re
    argv = ["expand", exponent_input, "--out", str(tmp_path / "e")]
    assert "re" in _loaded(tmp_path, *argv, flags=("-S",))


def test_public_names_are_unchanged_and_resolve():
    assert set(ultrapoly.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(ultrapoly, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"ultrapoly.{name}"]
        else:
            owner = sys.modules[f"ultrapoly.{ultrapoly._MODULE_OF[name]}"]
            assert value is getattr(owner, name)
    assert PUBLIC_NAMES <= set(dir(ultrapoly))
    with pytest.raises(AttributeError):
        ultrapoly.no_such_name


@pytest.mark.parametrize("name", sorted(REMOVED_NAMES))
def test_removed_names_raise_attribute_error(name):
    assert name not in ultrapoly.__all__ and name not in dir(ultrapoly)
    with pytest.raises(AttributeError):
        getattr(ultrapoly, name)
    for module in SUBMODULES:
        assert not hasattr(getattr(ultrapoly, module), name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ultrapoly import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
