"""The CLI's exit-code contract, one row per case, and one runner for a row.

Exit 0 means every verification passed, 1 that one failed, and 2 a usage
error or malformed input, config, schedule or bundle.  ``run_case`` runs a
row in process (``in_process``) or as a child process (``command``), as
``tests/test_process.py`` does; CI runs every row through the installed
console script, as this does: ``python tests/cli_cases.py [PROGRAM ...]``,
where PROGRAM defaults to ``ultrapoly``.
"""

import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import takewhile
from typing import NamedTuple
from unittest.mock import patch

OK, VERIFY, INPUT = 0, 1, 2  # the exit codes
ERROR, REJECTED, USAGE = "error: ", "schedule rejected: ", "usage: ultrapoly "
DEMO = "demo zp --prime 2 --depth 3 --out zp"


class Case(NamedTuple):
    line: str  # the command line, after any NAME=value words that set the environment
    code: int
    stderr: str = ""  # its exact start, or "" for no stderr; a usage error is two lines
    grep: str = ""  # a fragment of stderr
    stdout: str | None = None  # its start where stderr is empty; None for a run report,
    report: dict = {}  # whose "failed" is code == 1, and whose stages hold these fields
    timeout: float | None = None  # seconds within which it must finish
    longest: int | None = None  # the most bytes stderr may take


def _set(*path, to):
    """The edit that sets the bundle's field at path to ``to``, or to ``to(bundle)``."""

    def edit(bundle):
        *parents, last = path
        obj = bundle
        for key in parents:
            obj = obj[key]
        obj[last] = to(bundle) if callable(to) else to
        return bundle

    return edit


def _skipping_map(bundle):  # level 2 onto level 0 by the composite vertex map
    first, second = (m["vertex_map"] for m in bundle["bonding"][:2])
    return {"from": 2, "to": 0, "vertex_map": {v: first[str(w)] for v, w in second.items()}}


def _falling(bundle):  # scales and schedule.j tied, both falling from 3 to 0
    for level, j in zip(bundle["levels"], [3, 2, 1, 0]):
        level["scale"] = j
    return _set("schedule", "j", to=[3, 2, 1, 0])(bundle)


def _failing():  # 512 seeded streams of random lengths 6 to 16: not ultrametric
    rng = random.Random(7)
    points = [[rng.randrange(2) for _ in range(rng.randint(6, 16))] for _ in range(512)]
    return {"labels": [f"x{i}" for i in range(512)], "prime": 2, "padic_points": points}


def _pair(entry):  # two points at distance entry
    return {"labels": ["a", "b"], "prime": 2, "matrix": [["0", entry], [entry, "0"]]}


def _streams(*points, labels="abcd"):
    return {"labels": list(labels[: len(points)]), "prime": 2, "padic_points": list(points)}


# the files a row names: each input's JSON value, or a function that builds it
INPUTS = {
    "windows.json": _streams([0, 1], [0, 1, 1], [0, 1, 0]),
    "twice.json": _streams([0, 1], [1, 1], labels="aa"),
    "ok.json": _streams([0, 1], [1, 1]),
    # a prefix chain whose windows end apart: b and c lie at distance 0 from a
    "chain.json": _streams([1], [1, 0], [1, 0, 1], [0, 1]),
    "raw.json": _pair("0.7"),  # no power of 2
    "crooked.json": {"labels": ["a", "b", "c"], "prime": 2,
                     "matrix": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]},
    "zero.json": _pair("0"),
    "huge.json": {"schedule": {"b": -(10**9)}},  # an auto schedule of 10^9 levels
    "below.json": {"schedule": {"j": [0, 1], "k": [1, 1], "b": 5}},
    # a decimal run of 2,000,000 digits in exponent form, and of 4,000,000 written out
    "tiny.json": _pair("1e-2000000"),
    "long.json": lambda: _pair("0." + "0" * 3999999 + "1"),
    "skip.json": _streams([0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]),
    "skip_config.json": {"schedule": {"j": [0, 2, 4], "k": [1, 1, 1]}},
    "one_level.json": {"schedule": {"j": [0], "k": [0]}},
    "failing.json": _failing,
    "big_digit.json": _streams([0, 1], [2, 1]),
    "late_digit.json": _streams([0, 1], [1] * 32 + [2]),  # past the 32-digit budget
    "precision.json": {"precision": 8},
    # 10^4201 + 1, which 11 divides: a prime field of 4,202 digits
    "long_prime.json": {**_streams([0, 1], [1, 1]), "prime": 10**4201 + 1},
}
# each edit of a fresh copy of the demo bundle (levels 0 to 3, level m with 2^m
# vertices); it returns the file's JSON value, or its text
BUNDLES = {
    "dropped.json": _set("space", "padic_points", to=lambda b: b["space"]["padic_points"][:-1]),
    "twin_levels.json": _set("levels", 1, "level", to=0),  # two DOT files of one name
    "from_7.json": _set("bonding", 0, "from", to=7),
    "extra_key.json": _set("bonding", 0, "vertex_map", "x", to=0),
    "dropped_key.json": _set("bonding", 0, "vertex_map", to={"0": 0}),
    "no_partition.json": _set("levels", 2, "maximal_simplexes", to=[[1], [2], [3]]),
    "repeated_vertex.json": _set("levels", 0, "vertices", to=[0, 0]),
    # level 2 joins vertices 0 and 1, which the map onto level 1 sends into two simplexes
    "non_simplicial.json": _set("levels", 2, "maximal_simplexes", to=[[0, 1], [2], [3]]),
    "skipping_map.json": _set("bonding", 1, to=_skipping_map),
    "dropped_map.json": _set("bonding", to=lambda b: b["bonding"][:1] + b["bonding"][2:]),
    "no_levels.json": _set("levels", to=[]),
    "string_j.json": _set("schedule", "j", to="0"),
    "falling.json": _falling,
    "big_digit_bundle.json": _set("space", "padic_points", 0, 0, to=2),
    "bom.json": lambda b: "\ufeff" + json.dumps(b),
    "trailing.json": lambda b: json.dumps(b) + "{}\n",
}

CASES = [
    Case("validate windows.json", VERIFY),
    Case("expand windows.json --out exits", VERIFY),
    Case("validate twice.json", INPUT, ERROR, "field 'labels' must be unique"),
    Case("expand twice.json --out exits", INPUT, ERROR, "field 'labels' must be unique"),
    Case("expand ok.json --stages verify --out exits", INPUT, ERROR, "needs the 'expand' stage"),
    Case('expand ok.json --stages "" --out exits', INPUT, ERROR, "unknown stage ''"),
    Case("expand chain.json --out exits", OK,
         report={"round": {"merged": [["b", "a"], ["c", "a"]]}}),
    Case("expand raw.json --stages validate,expand --out exits", INPUT, ERROR,
         "request the 'round' stage"),
    # crooked.json fails the ultrametric proof with or without the validate stage
    Case("expand crooked.json --stages validate,expand --out exits", VERIFY),
    Case("expand crooked.json --stages expand --out exits", VERIFY, ERROR,
         "ultrametric inequality fails on (a, b, c)"),
    Case("expand zero.json --stages validate,expand --out exits", INPUT, ERROR,
         "expansion requires a separated space: a and b are at distance 0"),
    Case("expand ok.json --config huge.json --out exits", INPUT, REJECTED,
         "the auto schedule needs 1000000002 levels", timeout=20),
    Case("expand ok.json --config below.json --out exits", INPUT, REJECTED,
         "level 0: threshold (exponent 4)"),
    Case("expand skip.json --config one_level.json --out exits", INPUT, REJECTED,
         "level 0, the finest, does not separate a and b"),
    Case("expand tiny.json --out exits", INPUT, ERROR,
         "tiny.json: field 'matrix' row 0 holds an entry that is not rational", timeout=20),
    Case("expand long.json --out exits", INPUT, ERROR,
         "long.json: field 'matrix' row 0 holds an entry that is not rational", timeout=20),
    # a schedule that skips scales: limit recovery fails on the two pairs at exponent 1
    Case("expand skip.json --config skip_config.json --out exits", VERIFY,
         report={"verify": {"first_failure": "limit_isometry_ok", "isometry_mismatches": 2}}),
    Case(DEMO, OK),
    Case("shadow dropped.json --out shadows", INPUT, ERROR, "'space.padic_points'"),
    Case("export dot twin_levels.json --out dots", INPUT, ERROR, "'levels[1].level'"),
    Case("shadow from_7.json --out shadows", INPUT, ERROR, "'bonding[0].from'"),
    Case("shadow extra_key.json --out shadows", INPUT, ERROR, "'bonding[0].vertex_map'"),
    Case("shadow dropped_key.json --out shadows", INPUT, ERROR, "'bonding[0].vertex_map'"),
    Case("shadow no_partition.json --out shadows", INPUT, ERROR, "'levels[2].maximal_simplexes'"),
    Case("export dot no_partition.json --out dots", INPUT, ERROR, "'levels[2].maximal_simplexes'"),
    Case("shadow repeated_vertex.json --out shadows", INPUT, ERROR,
         "bundle field 'levels[0].vertices' must be a list of distinct point indices"),
    Case("export dot repeated_vertex.json --out dots", INPUT, ERROR,
         "bundle field 'levels[0].vertices' must be a list of distinct point indices"),
    Case("shadow non_simplicial.json --out shadows", INPUT, ERROR,
         "bundle field 'bonding[1].vertex_map' must be simplicial"),
    Case("shadow skipping_map.json --out shadows", INPUT, ERROR, "bundle field 'bonding[1].to'"),
    Case("shadow dropped_map.json --out shadows", INPUT, ERROR, "bundle field 'bonding'"),
    Case("export dot no_levels.json --out dots", INPUT, ERROR, "bundle field 'levels'"),
    # shadow echoes the schedule, so it checks it; export dot does not read it
    Case("shadow string_j.json --out shadows", INPUT, ERROR, "bundle field 'schedule.j'"),
    Case("export dot string_j.json --out dots", OK, stdout="dots/level_0.dot\n"),
    Case("shadow falling.json --out shadows", INPUT, ERROR,
         "bundle field 'schedule' must be a schedule whose order rules hold: ball scales"),
    Case("export dot falling.json --out dots", OK, stdout="dots/level_0.dot\n"),
    # the failed check weighs each pair once to name its witness, with no second proof
    Case("validate failing.json", VERIFY, timeout=60),
    Case("expand big_digit.json --out exits", INPUT, ERROR,
         "big_digit.json: field 'padic_points' stream 1: bad digit stream for prime 2"),
    Case("shadow big_digit_bundle.json --out shadows", INPUT, ERROR,
         "bundle field 'space.padic_points' must be"),
    Case("expand late_digit.json --out exits", INPUT, ERROR, "stream 1: bad digit stream"),
    # a long prime field is echoed as its leading digits and its digit count
    Case("validate long_prime.json", INPUT, ERROR,
         "field 'prime' must be a prime integer, got 10000000000000000000... (4202 digits)",
         longest=200),
    # refused with json's own message, as json.loads refuses them
    Case("shadow bom.json --out shadows", INPUT, ERROR,
         "line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    Case("export dot trailing.json --out dots", INPUT, ERROR, ": Extra data"),
    # the argument grammar, read by argparse: help, usage errors at any terminal
    # width, a unique prefix of an option and the --opt=value form
    Case("--help", OK, stdout=USAGE),
    Case("expand --help", OK, stdout=USAGE + "expand "),
    Case("", INPUT, USAGE, "error: the following arguments are required: command"),
    Case("expand", INPUT, USAGE, "error: the following arguments are required: input"),
    Case("COLUMNS=20 expand", INPUT, USAGE, "error: the following arguments are required: input"),
    Case("expand ok.json --precision two", INPUT, USAGE, "invalid int value: 'two'"),
    Case("expand ok.json --p 3", INPUT, USAGE, "ambiguous option: --p could match"),
    Case("export", INPUT, USAGE, "error: the following arguments are required: command"),
    Case('"demo zp" --prime 2 --depth 2', INPUT, USAGE, "invalid choice: 'demo zp'"),
    Case("expand ok.json --conf precision.json --out=exits", OK),
]


def in_process(argv, cwd, env, timeout):
    """``ultrapoly.cli.main(argv)`` run in cwd: its exit code, stdout and stderr."""
    from ultrapoly import cli

    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's help and usage errors
                code = exc.code
    finally:
        os.chdir(home)
    return code, out.getvalue(), err.getvalue()


def command(*prefix):
    """The invocation that runs ``[*prefix, *argv]`` as a child process."""

    def invoke(argv, cwd, env, timeout):
        env, run = {**os.environ, **env}, [*prefix, *argv]
        proc = subprocess.run(run, cwd=cwd, env=env, capture_output=True, timeout=timeout or 120)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    return invoke


def _write_input(name, invoke, work):
    if name in INPUTS:
        value = INPUTS[name]() if callable(INPUTS[name]) else INPUTS[name]
    else:
        demo = os.path.join(work, "zp", "expansion.json")
        if not os.path.exists(demo):
            assert invoke(shlex.split(DEMO), work, {}, None)[0] == OK
        with open(demo, encoding="utf-8") as fh:
            value = BUNDLES[name](json.load(fh))
    with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
        fh.write(value if isinstance(value, str) else json.dumps(value))


def run_case(case, invoke, work):
    """Run one row through invoke in the directory work; a mismatch raises AssertionError."""
    words = shlex.split(case.line)
    env = dict(w.split("=", 1) for w in takewhile(lambda w: w.split("=")[0].isupper(), words))
    argv = words[len(env) :]
    for name in argv:
        if name in INPUTS or name in BUNDLES:
            _write_input(name, invoke, work)
    t0 = time.perf_counter()
    code, out, err = invoke(argv, work, env, case.timeout)
    seconds = time.perf_counter() - t0
    seen = f"{case.line!r} exited {code} in {seconds:.2f} s, stderr {err!r}"
    assert code == case.code and "Traceback" not in err, seen
    assert err.startswith(case.stderr) and case.grep in err and (case.stderr or not err), seen
    assert case.timeout is None or seconds <= case.timeout, seen
    assert case.longest is None or len(err.encode()) <= case.longest, seen
    if case.stderr == USAGE:
        lines = err.splitlines()
        assert len(lines) == 2 and ": error: " in lines[1], seen
    if case.stderr or case.stdout is not None:  # a refusal writes no stdout
        assert out.startswith(case.stdout or "") and (case.stdout or not out), (seen, out)
    else:  # a run report, flushed whole
        report = json.loads(out)
        assert report["failed"] is (code == VERIFY), (seen, out)
        for stage, fields in case.report.items():
            assert fields.items() <= report["stages"][stage].items(), (seen, out)


if __name__ == "__main__":
    invoke, failures = command(*(sys.argv[1:] or ["ultrapoly"])), 0
    with tempfile.TemporaryDirectory() as work:
        for case in CASES:
            try:
                run_case(case, invoke, work)
            except (AssertionError, subprocess.TimeoutExpired) as exc:
                failures += 1
                print(f"FAIL {case.line!r}: {exc}")
    print(f"{len(CASES) - failures} of {len(CASES)} contract cases passed")
    sys.exit(1 if failures else 0)
