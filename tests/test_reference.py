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
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from ultrapoly.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main

from corpus import mixed_matrices, padic_families
from oracles import fraction_closure, reference_bundle, stepwise_gamma_exponent


def _schedules(draw, last: int) -> dict:
    """An explicit schedule of scales up to last + 1 that may skip some and may end
    before the points separate, with factors k, 0 or 1, that do not increase, and
    now and then a bound's shift b."""
    js = set(draw(st.lists(st.integers(-1, last + 1), min_size=1, max_size=5)))
    if draw(st.integers(0, 3)):  # mostly a last level that separates the points
        js.add(last + 1)
    ks = draw(st.lists(st.sampled_from([0, 1]), min_size=len(js), max_size=len(js)))
    schedule = {"j": sorted(js), "k": sorted(ks, reverse=True)}
    if draw(st.integers(0, 2)) == 0:
        schedule["b"] = draw(st.integers(-1, 1))
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
    return points[0].prime, streams, _schedules(draw, length)


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


# 100 examples, two runs each: about 2 s on one core of a 2.1 GHz Xeon
@settings(max_examples=100, deadline=None)
@given(case=families_and_schedules())
def test_expand_writes_the_reference_bundle_on_both_paths(tmp_path_factory, case):
    p, streams, schedule = case
    # two streams lie p^-h apart, where h is the first digit at which they differ
    exponents = [
        [next((h for h, (a, b) in enumerate(zip(s, t)) if a != b), None) for t in streams]
        for s in streams
    ]
    want = reference_bundle(exponents, p, schedule)
    skips = any(b - a > 1 for a, b in zip(schedule["j"], schedule["j"][1:]))
    event(f"{len(streams)} points, {'skipped scales' if skips else 'consecutive scales'}")
    tmp = tmp_path_factory.mktemp("reference")
    config = tmp / "config.json"
    config.write_text(json.dumps({"schedule": schedule}))
    matrix = [["0" if e is None else f"1/{p**e}" for e in row] for row in exponents]
    labels = [f"v{i}" for i in range(len(streams))]
    for field in ({"padic_points": streams}, {"matrix": matrix}):
        path, out = tmp / "input.json", tmp / next(iter(field))
        path.write_text(json.dumps({"labels": labels, "prime": p, **field}))
        code = _expand(path, config, out)
        event(f"exit {code}")
        _check(out / "expansion.json", want, code)


@st.composite
def matrices_and_schedules(draw):
    """A prime, a ``corpus.mixed_matrices`` pair and an explicit schedule over its scales."""
    p = draw(st.sampled_from([2, 3, 5]))
    exact, written = draw(mixed_matrices())
    # the pool's entries lie between 1/1000 and 3: exponents -1 to 10 for p = 2
    return p, exact, written, _schedules(draw, {2: 10, 3: 7, 5: 5}[p])


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
