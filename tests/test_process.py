"""The process entry: ``console`` runs a command with the cyclic collector off.

That is safe while no command leaves cyclic garbage that grows with its
input, so reference counting alone frees a command's data; the first
test below checks every command for it.  ``main`` leaves the collector
as it finds it.  Every row of the exit-code contract, ``tests/cli_cases.py``,
holds in process, and some hold through ``python -m ultrapoly``, which
flushes its output at exit.
"""

import gc
import json
import os
import random
import sys
from pathlib import Path

import pytest

import ultrapoly
from ultrapoly import cli
from ultrapoly.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main

from cli_cases import CASES, command, in_process, run_case

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


# a row of the contract for each way main ends
MAIN_CALLS = {
    "passed": "expand chain.json --out exits",
    "failed verify": "validate windows.json",
    "failed proof": "expand crooked.json --stages expand --out exits",
    "malformed input": "validate twice.json",
    "schedule rejected": "expand ok.json --config huge.json --out exits",
    "usage error": "expand",  # argparse's SystemExit
}


def _row(line):
    return next(case for case in CASES if case.line == line)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("call", sorted(MAIN_CALLS))
def test_main_leaves_the_collector_as_it_finds_it(tmp_path, call, enabled):
    frozen = gc.get_freeze_count()
    if not enabled:
        gc.disable()
    try:
        run_case(_row(MAIN_CALLS[call]), in_process, tmp_path)
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        gc.enable()


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


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.line or "no arguments")
def test_a_contract_case_holds_in_process(tmp_path, case):
    run_case(case, in_process, tmp_path)


def _python_m(monkeypatch):  # python -m ultrapoly, on this checkout's package
    src = str(Path(ultrapoly.__file__).resolve().parent.parent)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return command(sys.executable, "-m", "ultrapoly")


def test_python_m_ultrapoly_keeps_the_exit_statuses_and_flushes_its_report(tmp_path, monkeypatch):
    # reports that passed and failed, flushed at the process's exit, a refusal, and help
    for line in (
        "expand chain.json --out exits",
        "expand skip.json --config skip_config.json --out exits",
        "expand ok.json --config below.json --out exits",
        "expand --help",
    ):
        run_case(_row(line), _python_m(monkeypatch), tmp_path)


def test_python_m_ultrapoly_writes_a_usage_error_in_two_lines_at_any_width(tmp_path, monkeypatch):
    run_case(_row("COLUMNS=20 expand"), _python_m(monkeypatch), tmp_path)
