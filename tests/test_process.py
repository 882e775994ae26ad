"""The process entry: ``console`` runs a command with the cyclic collector off.

That is safe while no command leaves cyclic garbage that grows with its
input, so reference counting alone frees a command's data; the first
test below checks every command for it.  ``main`` leaves the collector
as it finds it, and ``python -m ultrapoly`` keeps the exit-code contract
and flushes its output.
"""

import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ultrapoly
from ultrapoly import cli
from ultrapoly.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main

ALL = "validate,round,expand,verify,shadow"  # every stage
N = 32  # points of the smaller input; the larger has 4 N


def _write(path: Path, obj) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj))
    return str(path)


def _streams(n: int) -> list[list[int]]:
    """n distinct seeded 2-adic digit streams of 16 digits."""
    rng = random.Random(n)
    return [[(x >> i) & 1 for i in range(16)] for x in rng.sample(range(1 << 16), n)]


def _stream_input(work: Path, n: int, last_digit: int = 0) -> str:
    streams = _streams(n)
    streams[-1][-1] = last_digit
    labels = [f"p{i}" for i in range(n)]
    return _write(work / "streams.json", {"labels": labels, "prime": 2, "padic_points": streams})


def _matrix_input(work: Path, n: int) -> str:
    """The streams' 2-adic distances, each scaled by a seeded factor in [1, 1.5) and written a/b."""
    rng = random.Random(n)
    streams = _streams(n)
    matrix = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            v = next(d for d, (a, b) in enumerate(zip(streams[i], streams[j])) if a != b)
            matrix[i][j] = matrix[j][i] = f"{10 + rng.randrange(5)}/{10 << v}"
    labels = [f"p{i}" for i in range(n)]
    return _write(work / "matrix.json", {"labels": labels, "prime": 2, "matrix": matrix})


def _line_input(work: Path, n: int) -> str:
    """Points 0..n-1 of the real line: |i - j| breaks the strong triangle inequality."""
    matrix = [[str(abs(i - j)) for j in range(n)] for i in range(n)]
    labels = [f"p{i}" for i in range(n)]
    return _write(work / "line.json", {"labels": labels, "prime": 2, "matrix": matrix})


def _bundle(work: Path, n: int) -> str:
    assert main(["expand", _stream_input(work, n), "--out", str(work / "bundle")]) == EXIT_OK
    return str(work / "bundle" / "expansion.json")


def _skipping_config(work: Path) -> str:
    # every other scale: limit recovery fails at the scales skipped
    schedule = {"j": list(range(0, 17, 2)), "k": [1] * 9}
    return _write(work / "skip.json", {"schedule": schedule})


# each command as argv for an input of n points in a work directory, and its exit code
COMMANDS = {
    "expand streams": (
        lambda w, n: ["expand", _stream_input(w, n), "--out", str(w / "out")],
        EXIT_OK,
    ),
    "expand streams, all stages": (
        lambda w, n: ["expand", _stream_input(w, n), "--stages", ALL, "--out", str(w / "out")],
        EXIT_OK,
    ),
    "expand matrix": (
        lambda w, n: ["expand", _matrix_input(w, n), "--out", str(w / "out")],
        EXIT_OK,
    ),
    "expand matrix, all stages": (
        lambda w, n: ["expand", _matrix_input(w, n), "--stages", ALL, "--out", str(w / "out")],
        EXIT_OK,
    ),
    "expand, failed verify": (
        lambda w, n: [
            "expand", _stream_input(w, n), "--config", _skipping_config(w), "--out", str(w / "out")
        ],
        EXIT_VERIFY,
    ),
    "validate, not ultrametric": (lambda w, n: ["validate", _line_input(w, n)], EXIT_VERIFY),
    "shadow --csv": (
        lambda w, n: ["shadow", _bundle(w, n), "--csv", "--out", str(w / "shadow")],
        EXIT_OK,
    ),
    "export dot": (
        lambda w, n: ["export", "dot", _bundle(w, n), "--out", str(w / "dot")],
        EXIT_OK,
    ),
    "demo zp": (
        lambda w, n: [
            "demo", "zp", "--prime", "2", "--depth", str(n.bit_length() - 1), "--out", str(w)
        ],
        EXIT_OK,
    ),
    "malformed input": (
        lambda w, n: ["expand", _stream_input(w, n, last_digit=2), "--out", str(w / "out")],
        EXIT_INPUT,
    ),
}


def _cyclic_garbage(argv: list[str]) -> tuple[int, int]:
    """main(argv)'s exit code, run with the collector off, and the unreachable objects it left."""
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        return code, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_command_leaves_no_cyclic_garbage_that_grows_with_its_input(tmp_path, capsys, command):
    make, expected = COMMANDS[command]
    small, large = make(tmp_path / "small", N), make(tmp_path / "large", 4 * N)
    _cyclic_garbage(small)  # the first run imports modules and fills caches
    found = []
    for argv in (small, large):
        code, unreachable = _cyclic_garbage(argv)
        assert code == expected, capsys.readouterr().err
        found.append(unreachable)
    # the run report is printed by the bundle writer, so no command leaves any
    assert found == [0, 0], found


MAIN_CALLS = {
    "passed": (lambda w: ["expand", _stream_input(w, 8), "--out", str(w / "out")], EXIT_OK),
    "failed verify": (lambda w: ["validate", _line_input(w, 4)], EXIT_VERIFY),
    "failed proof": (
        lambda w: ["expand", _line_input(w, 4), "--stages", "expand", "--out", str(w / "out")],
        EXIT_VERIFY,
    ),
    "malformed input": (lambda w: ["validate", _write(w / "bad.json", [])], EXIT_INPUT),
    "schedule rejected": (
        lambda w: [
            "expand",
            _stream_input(w, 8),
            "--config",
            _write(w / "huge.json", {"schedule": {"b": -(10**9)}}),
            "--out",
            str(w / "out"),
        ],
        EXIT_INPUT,
    ),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("call", sorted(MAIN_CALLS))
def test_main_leaves_the_collector_as_it_finds_it(tmp_path, capsys, call, enabled):
    make, expected = MAIN_CALLS[call]
    argv = make(tmp_path)
    frozen = gc.get_freeze_count()
    if not enabled:
        gc.disable()
    try:
        assert main(argv) == expected
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        gc.enable()


def test_main_leaves_the_collector_alone_on_a_usage_error(capsys):
    frozen = gc.get_freeze_count()
    with pytest.raises(SystemExit):
        main(["expand"])
    assert gc.isenabled() and gc.get_freeze_count() == frozen


def test_console_runs_main_with_the_collector_off_and_freezes_the_heap(
    tmp_path, capsys, monkeypatch
):
    seen = []

    def spy():
        seen.append(gc.isenabled())
        return main()

    monkeypatch.setattr(cli, "main", spy)
    monkeypatch.setattr(sys, "argv", ["ultrapoly", "validate", _line_input(tmp_path, 4)])
    frozen = gc.get_freeze_count()
    try:
        assert cli.console() == EXIT_VERIFY
        assert seen == [False]
        assert not gc.isenabled() and gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
        gc.enable()
    assert json.loads(capsys.readouterr().out)["failed"] is True


def test_the_console_script_is_the_process_entry():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["ultrapoly", "=", '"ultrapoly.cli:console"']


# the inputs of the CI step that checks the console script's exit statuses
CI_INPUTS = {
    "windows.json": {
        "labels": ["a", "b", "c"],
        "prime": 2,
        "padic_points": [[0, 1], [0, 1, 1], [0, 1, 0]],
    },
    "twice.json": {"labels": ["a", "a"], "prime": 2, "padic_points": [[0, 1], [1, 1]]},
    "ok.json": {"labels": ["a", "b"], "prime": 2, "padic_points": [[0, 1], [1, 1]]},
    "chain.json": {
        "labels": ["a", "b", "c", "d"],
        "prime": 2,
        "padic_points": [[1], [1, 0], [1, 0, 1], [0, 1]],
    },
    "raw.json": {"labels": ["a", "b"], "prime": 2, "matrix": [["0", "0.7"], ["0.7", "0"]]},
    "crooked.json": {
        "labels": ["a", "b", "c"],
        "prime": 2,
        "matrix": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
    },
    "zero.json": {"labels": ["a", "b"], "prime": 2, "matrix": [["0", "0"], ["0", "0"]]},
    "huge.json": {"schedule": {"b": -1000000000}},
    "skip.json": {
        "labels": ["a", "b", "c", "d"],
        "prime": 2,
        "padic_points": [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]],
    },
    "skip_config.json": {"schedule": {"j": [0, 2, 4], "k": [1, 1, 1]}},
}
# arguments, exit status, and whether stdout holds a run report
CI_RUNS = [
    (["validate", "windows.json"], EXIT_VERIFY, True),
    (["expand", "windows.json", "--out", "exits"], EXIT_VERIFY, True),
    (["validate", "twice.json"], EXIT_INPUT, False),
    (["expand", "twice.json", "--out", "exits"], EXIT_INPUT, False),
    (["expand", "ok.json", "--stages", "verify", "--out", "exits"], EXIT_INPUT, False),
    (["expand", "chain.json", "--out", "exits"], EXIT_OK, True),
    (["expand", "raw.json", "--stages", "validate,expand", "--out", "exits"], EXIT_INPUT, False),
    (["expand", "crooked.json", "--stages", "validate,expand", "--out", "exits"], EXIT_VERIFY, True),
    (["expand", "crooked.json", "--stages", "expand", "--out", "exits"], EXIT_VERIFY, False),
    (["expand", "zero.json", "--stages", "validate,expand", "--out", "exits"], EXIT_INPUT, False),
    (["expand", "ok.json", "--config", "huge.json", "--out", "exits"], EXIT_INPUT, False),
    (["expand", "skip.json", "--config", "skip_config.json", "--out", "exits"], EXIT_VERIFY, True),
    (["demo", "zp", "--prime", "2", "--depth", "3", "--out", "zp"], EXIT_OK, True),
    (["shadow", "from_7.json", "--out", "shadows"], EXIT_INPUT, False),
    (["shadow", "extra_key.json", "--out", "shadows"], EXIT_INPUT, False),
]


def _module_env() -> dict:
    """The environment in which ``python -m ultrapoly`` runs this checkout's package."""
    src = str(Path(ultrapoly.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_python_m_ultrapoly_keeps_the_exit_statuses_and_flushes_its_report(tmp_path):
    for name, obj in CI_INPUTS.items():
        _write(tmp_path / name, obj)
    env = _module_env()
    for i, (args, expected, reports) in enumerate(CI_RUNS):
        if args[1] == "from_7.json":  # copies of the demo bundle the run before wrote
            bundle = json.loads((tmp_path / "zp" / "expansion.json").read_text())
            bundle["bonding"][0]["from"] = 7
            _write(tmp_path / "from_7.json", bundle)
            bundle["bonding"][0]["from"] = 1
            bundle["bonding"][0]["vertex_map"]["x"] = 0
            _write(tmp_path / "extra_key.json", bundle)
        stdout = tmp_path / f"stdout_{i}.txt"
        with stdout.open("wb") as out:
            proc = subprocess.run(
                [sys.executable, "-m", "ultrapoly", *args],
                stdout=out,
                stderr=subprocess.PIPE,
                cwd=tmp_path,
                env=env,
                timeout=60,
            )
        assert proc.returncode == expected, (args, proc.stderr)
        assert b"Traceback" not in proc.stderr
        text = stdout.read_text(encoding="utf-8")
        if reports:
            assert json.loads(text)["failed"] is (expected == EXIT_VERIFY), args
        else:
            assert text == "" and proc.stderr.startswith((b"error: ", b"schedule rejected: "))


# the CI step's argument cases and their exit statuses
CI_ARGUMENT_RUNS = [
    (["--help"], EXIT_OK),
    (["expand", "--help"], EXIT_OK),
    ([], EXIT_INPUT),
    (["expand"], EXIT_INPUT),
    (["expand", "ok.json", "--precision", "two"], EXIT_INPUT),
    (["expand", "ok.json", "--p", "3"], EXIT_INPUT),
    (["export"], EXIT_INPUT),
    (["expand", "ok.json", "--conf", "precision.json", "--out=exits"], EXIT_OK),
]


def test_python_m_ultrapoly_reads_its_arguments_as_ci_checks(tmp_path):
    _write(tmp_path / "ok.json", CI_INPUTS["ok.json"])
    _write(tmp_path / "precision.json", {"precision": 8})
    for args, expected in CI_ARGUMENT_RUNS:
        proc = subprocess.run(
            [sys.executable, "-m", "ultrapoly", *args],
            capture_output=True,
            cwd=tmp_path,
            env=_module_env(),
            timeout=60,
        )
        assert proc.returncode == expected, (args, proc.stderr)
        if "--out=exits" in args:  # a run: its report, and the bundle where --out= says
            assert json.loads(proc.stdout)["failed"] is False
            assert (tmp_path / "exits" / "expansion.json").is_file()
        elif expected == EXIT_OK:  # help, on stdout
            assert proc.stdout.startswith(b"usage: ultrapoly") and proc.stderr == b"", args
        else:  # the usage and the error, on stderr
            lines = proc.stderr.decode().splitlines()
            assert proc.stdout == b"" and lines[0].startswith("usage: ultrapoly"), args
            assert len(lines) == 2 and ": error: " in lines[1], args
