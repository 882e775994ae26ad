"""The bundle that ``expand`` writes, against a reference built from the definitions.

``oracles.reference_bundle`` composes the pairwise oracles of each kernel
into the whole bundle less its ``space``.  A fault at a joint between
kernels, such as a map paired with the wrong level, summaries shifted by
a level or the schedule's bound misread, can pass every kernel's own
parity test; here it changes a field.  Both ingest paths run: distinct
digit streams, and their distance matrix written as "1/p^h" texts.  So
does the raw path under the default stages, whose closure, rounding and
merge of zero-distance points the reference takes from the Fraction
oracles.
"""

import io
import json
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from ultrapoly.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main

from corpus import mixed_matrices, padic_families, small_ultrametrics
from oracles import fraction_closure, reference_bundle, stepwise_gamma_exponent


def _schedules(integers, last: int) -> dict:
    """An explicit schedule of scales up to last + 1 that may skip some and may end
    before the points separate, with factors k, 0 or 1, that do not increase, and
    now and then a bound's shift b.  ``integers(a, b)`` draws an int from a to b."""
    js = {integers(-1, last + 1) for _ in range(integers(1, 5))}
    if integers(0, 3):  # mostly a last level that separates the points
        js.add(last + 1)
    ks = [integers(0, 1) for _ in js]
    schedule = {"j": sorted(js), "k": sorted(ks, reverse=True)}
    if integers(0, 2) == 0:
        schedule["b"] = integers(-1, 1)
    return schedule


@st.composite
def families_and_schedules(draw):
    """A prime, 1 to 9 distinct digit streams of one length and an explicit schedule.

    The streams are those of ``corpus.padic_families`` from their first
    digit (leading zeros up to a positive valuation), padded with zeros to
    the longest.
    """
    points = draw(padic_families())
    streams = [[0] * max(x.valuation, 0) + list(x.digits) if x.digits else [0] for x in points]
    length = max(map(len, streams))
    streams = [list(s) for s in dict.fromkeys(tuple(s + [0] * (length - len(s))) for s in streams)]
    return points[0].prime, streams, _schedules(lambda a, b: draw(st.integers(a, b)), length)


def _expand(path, config, out) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(["expand", str(path), "--config", str(config), "--out", str(out)])


def _check(bundle, want, code) -> None:
    """The written bundle less its space, and the exit code, against the reference."""
    if want is None:  # a level's nerve or map is refused, or the finest level does not separate
        assert code == EXIT_INPUT and not bundle.exists()
        return
    got = json.loads(bundle.read_text())
    for key in ("schedule", "levels", "bonding"):
        assert got[key] == want[key], key
    assert got["reports"].keys() == want["reports"].keys()
    for key, value in want["reports"].items():
        assert got["reports"][key] == value, key
    reports = want["reports"]
    passed = (
        not any(entry["violations"] for entry in reports["nonstretching"])
        and reports["functoriality_ok"]
        and all(entry["is_uniform"] for entry in reports["uniformity"])
        and reports["isolation_ok"]
        and reports["reconstruct_identity"]
        and reports["limit_isometry_ok"]
    )
    assert code == (EXIT_OK if passed else EXIT_VERIFY)


def _expand_both_paths(p, streams, schedule, directory) -> list[int]:
    """Expand the streams, then their distance matrix as "1/p^h" texts, under the
    schedule in directory; hold each bundle to the reference and return the exit codes."""
    # two streams lie p^-h apart, where h is the first digit at which they differ
    exponents = [
        [next((h for h, (a, b) in enumerate(zip(s, t)) if a != b), None) for t in streams]
        for s in streams
    ]
    want = reference_bundle(exponents, p, schedule)
    config = directory / "config.json"
    config.write_text(json.dumps({"schedule": schedule}))
    matrix = [["0" if e is None else f"1/{p**e}" for e in row] for row in exponents]
    labels = [f"v{i}" for i in range(len(streams))]
    codes = []
    for field in ({"padic_points": streams}, {"matrix": matrix}):
        path, out = directory / "input.json", directory / next(iter(field))
        path.write_text(json.dumps({"labels": labels, "prime": p, **field}))
        shutil.rmtree(out, ignore_errors=True)
        codes.append(_expand(path, config, out))
        _check(out / "expansion.json", want, codes[-1])
    return codes


# 100 examples, two runs each: about 2 s on one core of a 2.1 GHz Xeon
@settings(max_examples=100, deadline=None)
@given(case=families_and_schedules())
def test_expand_writes_the_reference_bundle_on_both_paths(tmp_path_factory, case):
    p, streams, schedule = case
    skips = any(b - a > 1 for a, b in zip(schedule["j"], schedule["j"][1:]))
    event(f"{len(streams)} points, {'skipped scales' if skips else 'consecutive scales'}")
    for code in _expand_both_paths(p, streams, schedule, tmp_path_factory.mktemp("reference")):
        event(f"exit {code}")


def expand_seeded_families(count: int, seed: int, directory) -> int:
    """Run count seeded p-adic families of 10 to 24 points through expand on both
    input paths, each held to the reference bundle; return the number of runs.

    Family c of a seed draws from its own ``random.Random``: a prime 2, 3 or
    5, a length a few digits past the fewest that hold 2n distinct streams,
    and distinct streams of random lengths up to it, padded with zeros to it;
    then a schedule under ``_schedules``' rules, which may skip scales from
    j = -1 and shift b.
    """
    directory, runs = Path(directory), 0
    for case in range(count):
        rng = random.Random(f"{seed}:{case}")
        p, n = rng.choice([2, 3, 5]), rng.randint(10, 24)
        width = next(w for w in range(1, 64) if p**w >= 2 * n)
        length = rng.randint(width, width + 4)
        streams: dict[tuple[int, ...], None] = {}
        while len(streams) < n:
            stream = [rng.randrange(p) for _ in range(rng.randint(1, length))]
            streams[tuple(stream + [0] * (length - len(stream)))] = None
        schedule = _schedules(rng.randint, length)
        runs += len(_expand_both_paths(p, list(map(list, streams)), schedule, directory))
    return runs


# 24 families, two runs each: under 1 s on one core of a 2.1 GHz Xeon; CI runs 300
# families of seed 1, 600 runs in about 14 s
def test_expand_writes_the_reference_bundle_of_seeded_families(tmp_path):
    assert expand_seeded_families(24, 0, tmp_path) == 48


@st.composite
def matrices_and_schedules(draw):
    """A prime, a ``corpus.mixed_matrices`` pair and an explicit schedule over its scales."""
    p = draw(st.sampled_from([2, 3, 5]))
    exact, written = draw(mixed_matrices())
    # the pool's entries lie between 1/1000 and 3: exponents -1 to 10 for p = 2
    last = {2: 10, 3: 7, 5: 5}[p]
    return p, exact, written, _schedules(lambda a, b: draw(st.integers(a, b)), last)


def _json_entry(entry):
    """A matrix entry as JSON holds it: a Fraction or a parsed pair as its "a/b" text."""
    if isinstance(entry, Fraction):
        return str(entry)
    if isinstance(entry, tuple):
        return "{}/{}".format(*entry)
    return entry


# 100 examples: about 1.5 s on one core of a 2.1 GHz Xeon
@settings(max_examples=100, deadline=None)
@given(case=matrices_and_schedules())
def test_expand_writes_the_reference_bundle_of_a_raw_matrix(tmp_path_factory, case):
    # ties, zeros and duplicate rows under the default stages: validate passes the
    # violations, round closes and rounds the matrix and keeps the first point of
    # each class at distance zero
    p, exact, written, schedule = case
    closure = fraction_closure(exact)
    kept = [x for x in range(len(exact)) if all(closure[x][y] for y in range(x))]
    exponents = [[stepwise_gamma_exponent(closure[x][y], p) for y in kept] for x in kept]
    want = reference_bundle(exponents, p, schedule)
    event(f"{len(exact) - len(kept)} points merged, bundle written: {want is not None}")
    tmp = tmp_path_factory.mktemp("raw")
    config, path = tmp / "config.json", tmp / "input.json"
    config.write_text(json.dumps({"schedule": schedule}))
    labels = [f"v{i}" for i in range(len(exact))]
    matrix = [[_json_entry(entry) for entry in row] for row in written]
    path.write_text(json.dumps({"labels": labels, "prime": p, "matrix": matrix}))
    code = _expand(path, config, tmp / "out")
    _check(tmp / "out" / "expansion.json", want, code)
    if want is not None:
        space = json.loads((tmp / "out" / "expansion.json").read_text())["space"]
        assert space["labels"] == [labels[x] for x in kept]


def _binary_streams(exponents, top):
    """2-adic digit streams, positions 0 to top, that first differ at each pair's
    exponent; None where a ball has three children or more."""
    n = len(exponents)

    def near(x, y, t):  # x and y lie in one ball of level t: e(x, y) >= t
        return x == y or exponents[x][y] >= t

    streams = []
    for x in range(n):
        digits = []
        for t in range(top + 1):
            ball = [y for y in range(n) if near(x, y, t)]
            # the ball's points outside the child of level t + 1 that holds its first
            other = [y for y in ball if not near(ball[0], y, t + 1)]
            if any(not near(other[0], y, t + 1) for y in other):
                return None
            digits.append(int(x in other))
        streams.append(digits)
    return streams


SMALL_SPACE_SIZES = {1: 1, 2: 4, 3: 10, 4: 30, 5: 75}  # exponents 0..3, up to relabeling


def test_every_small_space_is_counted_once_per_relabeling_class():
    for n, count in SMALL_SPACE_SIZES.items():
        tables = small_ultrametrics(n, 3)
        classes = {
            min(tuple(table[x][y] for x in order for y in order) for order in permutations(range(n)))
            for table in tables
        }
        assert len(tables) == len(classes) == count
        for table in tables:
            for x, y, z in permutations(range(n), 3):
                assert table[x][z] >= min(table[x][y], table[y][z])  # the strong triangle inequality


def expand_every_small_space(max_points: int, top: int, directory, schedules=None) -> int:
    """Run every space on at most max_points points with exponents 0..top through expand,
    hold each bundle and exit code to the reference, and return the number of runs.

    Each space runs as a "1/2^e" matrix and, where every ball has at most two
    children, as 2-adic streams.  The schedules are by default the consecutive
    ones: j = 0..top + 1, every k 0 or every k 1, and b's shift -1, 0 or 1;
    shadow and export dot then also read each bundle written with k = 1 and
    b = 0, and must exit 0.
    """
    p, reads = 2, schedules is None
    if schedules is None:
        schedules = [
            {"j": list(range(top + 2)), "k": [k] * (top + 2), "b": shift}
            for k, shift in product([0, 1], [-1, 0, 1])
        ]
    directory = Path(directory)
    config, path, out = directory / "config.json", directory / "input.json", directory / "out"
    bundle = out / "expansion.json"
    runs = 0
    for n in range(1, max_points + 1):
        labels = [f"v{i}" for i in range(n)]
        for exponents in small_ultrametrics(n, top):
            matrix = [["0" if e is None else f"1/{p**e}" for e in row] for row in exponents]
            fields = [{"matrix": matrix}]
            if (streams := _binary_streams(exponents, top)) is not None:
                fields.append({"padic_points": streams})
            for schedule in schedules:
                config.write_text(json.dumps({"schedule": schedule}))
                want = reference_bundle(exponents, p, schedule)
                for field in fields:
                    path.write_text(json.dumps({"labels": labels, "prime": p, **field}))
                    shutil.rmtree(out, ignore_errors=True)
                    _check(bundle, want, _expand(path, config, out))
                    runs += 1
                    if reads and (schedule["k"][0], schedule["b"]) == (1, 0) and want is not None:
                        for command in (["shadow"], ["export", "dot"]):
                            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                                code = main([*command, str(bundle), "--out", str(directory / "read")])
                            assert code == EXIT_OK, (command, exponents)
    return runs


# every space on at most five points with exponents 0..3 (120, 42 of them with a
# 2-adic form), under the consecutive schedules: 972 runs of expand, and shadow
# and export dot on the 66 bundles with k = 1 and b = 0, about 3 s on one core of
# a 2.0 GHz Xeon
def test_expand_writes_the_reference_bundle_of_every_small_space(tmp_path):
    assert expand_every_small_space(5, 3, tmp_path) == 972


def _skipping_schedules(top: int, low: int = 0) -> list[dict]:
    """Every j that holds top + 1 and any of low..top, each with every k of 0s and 1s
    that does not increase, and b's shift 0."""
    schedules = []
    scales = range(low, top + 1)
    for kept in product([False, True], repeat=len(scales)):
        js = [j for j, keep in zip(scales, kept) if keep] + [top + 1]
        for ones in range(len(js) + 1):
            schedules.append({"j": js, "k": [1] * ones + [0] * (len(js) - ones), "b": 0})
    return schedules


# every space on at most three points with exponents 0..3 (15, 11 of them with a
# 2-adic form), under 64 schedules that may skip scales: 1664 runs of expand, about
# 5 s on one core of a 2.0 GHz Xeon; j = -1 is left out, since with it the 144
# schedules' 3744 runs took 10-12 s: CI runs them, as _skipping_schedules(3, -1)
def test_expand_writes_the_reference_bundle_of_every_small_space_on_skipped_scales(tmp_path):
    assert len(_skipping_schedules(3)) == 64
    assert expand_every_small_space(3, 3, tmp_path, _skipping_schedules(3)) == 64 * (15 + 11)
