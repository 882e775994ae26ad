"""Each command imports only the modules it runs; the package's names load on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ultrapoly
from ultrapoly.cli import main

# the public names of the package as it was when every submodule loaded eagerly
PUBLIC_NAMES = {
    "AsymmetricMatrixError", "BaireCodes", "BondingMap", "BoundaryPair", "C0Vector",
    "Expansion", "GAMMA_ZERO", "GammaValue", "IncoherentThreadError", "MatrixShapeError",
    "NegativeDistanceError", "NerveComplex", "NestingError", "NonzeroDiagonalError",
    "NotPrimeError", "NotUltrametricError", "PAdic", "PrimeMismatchError", "RealSimplex",
    "Realization", "ScaleCover", "Schedule", "ScheduleError", "SeparationError",
    "ShadowBonding", "ShadowComplex", "Thread", "ThresholdError", "UltraSpace",
    "UnseparatedSpaceError", "assemble_expansion", "baire_encode", "bonding_map",
    "build_nerve", "c0_embed", "check_uniform", "cover_tower", "group_expansion",
    "isolated_point_check", "limit_isometry_check", "nerve", "nerve_to_dot", "padic",
    "padic_add", "padic_norm", "quotient_zero", "realize", "reconstruct", "residue_space",
    "round_space", "round_to_gamma", "scale_cover", "shadow", "shadow_bonding",
    "shadow_bundle", "shadow_complex", "shadow_expansion", "space_from_points", "spaces",
    "spectrum", "subdivide", "subdominant_closure", "theta", "theta_boundary_pairs",
    "theta_nonstretch_check", "theta_table_csv", "thread", "validate_ultrametric",
    "verify_nondegenerate", "verify_nonstretching",
}
SUBMODULES = {"padic", "spaces", "nerve", "spectrum", "shadow"}

# runs `python -m ultrapoly <args>` in this interpreter, then records the exit
# code and the package modules it loaded
PROBE = """
import json, runpy, sys
out, sys.argv = sys.argv[1], ["ultrapoly", *sys.argv[2:]]
try:
    runpy.run_module("ultrapoly", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
modules = sorted(m for m in sys.modules if m.startswith("ultrapoly"))
with open(out, "w") as fh:
    json.dump({"code": code, "modules": modules}, fh)
"""


def _loaded(tmp_path: Path, *args: str) -> set[str]:
    record = tmp_path / "modules.json"
    src = str(Path(ultrapoly.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [sys.executable, "-c", PROBE, str(record), *args],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    result = json.loads(record.read_text())
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


def test_validate_loads_neither_spectrum_nor_shadow(tmp_path, matrix_input):
    assert not _loaded(tmp_path, "validate", matrix_input) & {"spectrum", "shadow"}


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


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ultrapoly import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
