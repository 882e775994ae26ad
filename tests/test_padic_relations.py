"""Metamorphic relations between CLI runs on transformed p-adic digit streams.

Each relation compares two runs of ``cli.run`` and shares no code with
the routes it checks:

- a zero digit prepended to every stream multiplies each point by p, so
  with the schedule j + 1 (same k) every exponent is one higher and
  nothing else changes;
- one common stream added, with carries, to every point of one window
  length is a translation, which keeps every distance |x - y|_p, so only
  the echoed digit streams change;
- restricting distinct points to a subset under one fixed schedule
  restricts every ball, so each level's blocks and each maximal
  simplex's support are the old ones intersected with the subset;
- permuting distinct streams and giving them new labels, under one
  schedule that skips scales, moves every block, simplex, pair exponent
  and limit-recovery mismatch with its points: single linkage is
  invariant under relabeling (Carlsson & Memoli 2010).

Every stream is shorter than the digit budget, so no digit is cut.
"""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ultrapoly import NotUltrametricError
from ultrapoly.cli import DEFAULT_PRECISION, EXIT_VERIFY, PipelineConfig, run

MAX_DIGITS = 6
assert MAX_DIGITS + 1 < DEFAULT_PRECISION


@st.composite
def stream_families(draw, one_length=False):
    """(prime, streams): zeros, repeated points and, unless one_length, unequal windows."""
    p = draw(st.sampled_from([2, 3, 5]))
    length = draw(st.integers(1, MAX_DIGITS))
    n = draw(st.integers(1, 7))
    streams = []
    for _ in range(n):
        size = length if one_length else draw(st.integers(1, MAX_DIGITS))
        streams.append(draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size)))
    if n > 1 and draw(st.booleans()):
        streams[-1] = list(streams[0])  # a repeated point sits at distance zero
    return p, streams


def _run(p, streams, j, k, stage_list=PipelineConfig().stages, labels=None):
    """(stages less their seconds, outputs, exit code) as the CLI prints and writes them.

    A space that fails its ultrametric proof is a failed validate stage
    naming the witness.  Only a run without a validate stage raises
    ``NotUltrametricError`` (which the CLI turns into exit 1), so the
    ``except`` branch is reached only when ``stage_list`` lacks "validate".
    """
    if labels is None:
        labels = [f"x{i}" for i in range(len(streams))]
    obj = {"labels": labels, "prime": p, "padic_points": streams}
    config = PipelineConfig(schedule_j=list(j), schedule_k=[k] * len(j), stages=stage_list)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(obj))
        try:
            report, outputs, code = run(config, path)
        except NotUltrametricError as exc:  # reached only without a validate stage
            return {"witness": list(exc.triple)}, {}, EXIT_VERIFY
    stages = json.loads(json.dumps(report.to_json()["stages"]))
    for stage in stages.values():
        del stage["seconds"]
    return stages, json.loads(json.dumps(outputs)), code


def _up(e):
    """An exponent one step deeper; INFINITY (metric 0) and no value stay."""
    return e if e in ("INF", None) else e + 1


def _raised(stages, outputs, streams):
    """The original run's outputs with every exponent one higher, and the new streams."""
    stages, outputs = copy.deepcopy((stages, outputs))
    if "verify" in stages:
        for key in ("sup_diam", "inf_dist"):
            stages["verify"][key] = list(map(_up, stages["verify"][key]))
    for name in ("space.json", "expansion.json"):
        if name not in outputs:
            continue
        space = outputs[name] if name == "space.json" else outputs[name]["space"]
        space["gamma_matrix"] = [list(map(_up, row)) for row in space["gamma_matrix"]]
        space["padic_points"] = streams
    bundle = outputs.get("expansion.json")
    if bundle is not None:
        schedule = bundle["schedule"]
        schedule["j"], schedule["b"] = list(map(_up, schedule["j"])), list(map(_up, schedule["b"]))
        for level in bundle["levels"]:
            level["scale"], level["threshold"] = _up(level["scale"]), _up(level["threshold"])
        reports = bundle["reports"]
        for entry in reports["uniformity"]:
            entry["sup_diam"], entry["inf_dist"] = _up(entry["sup_diam"]), _up(entry["inf_dist"])
        # [x, y, recovered, actual]: None and -1 mark a pair that never splits
        reports["limit_isometry_mismatches"] = [
            [x, y, _up(r), a if a == -1 else a + 1]
            for x, y, r, a in reports["limit_isometry_mismatches"]
        ]
    return stages, outputs


@settings(max_examples=60, deadline=None)
@given(family=stream_families(), k=st.integers(0, 2), validate=st.booleans())
def test_a_prepended_zero_digit_raises_every_exponent_by_one(family, k, validate):
    p, streams = family
    # without the validate stage a failed proof raises, and the witness is compared
    run_stages = ("validate",) * validate + ("round", "expand", "verify")
    # exponents lie in [0, MAX_DIGITS - 1], so the last level separates
    j = range(0, MAX_DIGITS + 2 + k)
    stages, outputs, code = _run(p, streams, j, k, run_stages)
    shifted = [[0] + stream for stream in streams]
    shifted_stages, shifted_outputs, shifted_code = _run(
        p, shifted, [x + 1 for x in j], k, run_stages
    )
    assert shifted_code == code
    assert (shifted_stages, shifted_outputs) == _raised(stages, outputs, shifted)


def _translated(streams, common, p):
    """Each stream plus the common stream, carries included, cut to its window."""
    length = len(common)

    def value(digits):
        return sum(d * p**i for i, d in enumerate(digits))

    def digits(x):
        return [x // p**i % p for i in range(length)]

    return [digits(value(stream) + value(common)) for stream in streams]


@settings(max_examples=60, deadline=None)
@given(family=stream_families(one_length=True), k=st.integers(0, 2), data=st.data())
def test_adding_a_common_stream_changes_only_the_streams(family, k, data):
    p, streams = family
    length = len(streams[0])
    common = data.draw(st.lists(st.integers(0, p - 1), min_size=length, max_size=length))
    j = range(0, MAX_DIGITS + 2 + k)
    stages, outputs, code = _run(p, streams, j, k)
    moved = _translated(streams, common, p)
    moved_stages, moved_outputs, moved_code = _run(p, moved, j, k)
    assert moved_code == code
    assert moved_stages == stages
    assert moved_outputs["space.json"]["gamma_matrix"] == outputs["space.json"]["gamma_matrix"]
    for run_outputs, run_streams in ((outputs, streams), (moved_outputs, moved)):
        assert run_outputs["expansion.json"]["space"].pop("padic_points") == run_streams
    assert moved_outputs["expansion.json"] == outputs["expansion.json"]


def test_a_carry_moves_a_digit_stream():
    # the translation itself: 1 + 1 in base 2 carries into the next digit
    assert _translated([[1, 0, 1]], [1, 1, 0], 2) == [[0, 0, 0]]
    assert _translated([[2, 2]], [1, 0], 3) == [[0, 0]]


def _label_sets(outputs):
    """Per level: the blocks, and each maximal simplex's support, as sets of labels.

    A vertex stands for the block that holds it, so a simplex's support
    is the union of its vertices' blocks.
    """
    bundle = outputs["expansion.json"]
    names = bundle["space"]["labels"]
    found = []
    for level in bundle["levels"]:
        block_of = {}
        for block in level["blocks"]:
            labels = frozenset(names[x] for x in block)
            block_of.update(dict.fromkeys(block, labels))
        supports = {
            frozenset().union(*map(block_of.__getitem__, simplex))
            for simplex in level["maximal_simplexes"]
        }
        found.append((set(block_of.values()), supports))
    return found


@settings(max_examples=150, deadline=None)
@given(family=stream_families(one_length=True), data=st.data())
def test_restriction_to_a_subset_restricts_blocks_and_simplexes(family, data):
    p, streams = family
    streams = [list(s) for s in dict.fromkeys(map(tuple, streams))]  # distinct points
    labels = [f"x{i}" for i in range(len(streams))]
    flags = data.draw(st.lists(st.booleans(), min_size=len(streams), max_size=len(streams)))
    kept = [i for i, keep in enumerate(flags) if keep] or [len(streams) - 1]
    subset = frozenset(labels[i] for i in kept)
    # one explicit k = 1 schedule for both runs; the last level separates
    j = range(0, MAX_DIGITS + 3)
    _, outputs, code = _run(p, streams, j, 1)
    _, sub_outputs, sub_code = _run(
        p, [streams[i] for i in kept], j, 1, labels=[labels[i] for i in kept]
    )
    assert sub_code == code
    empty = {frozenset()}
    expected = [
        ({b & subset for b in blocks} - empty, {s & subset for s in supports} - empty)
        for blocks, supports in _label_sets(outputs)
    ]
    assert _label_sets(sub_outputs) == expected


def _by_label(outputs):
    """The run's blocks, simplexes, pair exponents and mismatches, named by labels."""
    bundle = outputs["expansion.json"]
    names = bundle["space"]["labels"]
    rows = bundle["space"]["gamma_matrix"]
    exponents = {
        (names[x], names[y]): e for x, row in enumerate(rows) for y, e in enumerate(row)
    }
    mismatches = {
        frozenset((names[x], names[y])): (r, a)
        for x, y, r, a in bundle["reports"]["limit_isometry_mismatches"]
    }
    return _label_sets(outputs), exponents, mismatches


@settings(max_examples=150, deadline=None)
@given(family=stream_families(one_length=True), k=st.integers(0, 2), data=st.data())
def test_permuting_and_relabeling_streams_moves_everything_with_its_points(family, k, data):
    p, streams = family
    streams = [list(s) for s in dict.fromkeys(map(tuple, streams))]  # distinct points
    n = len(streams)
    labels = [f"x{i}" for i in range(n)]
    # a schedule that skips scales, so limit recovery can fail; the last level separates
    skipping = data.draw(st.lists(st.integers(0, MAX_DIGITS), unique=True))
    j = [*sorted(skipping), MAX_DIGITS + 1 + k]
    stages, outputs, code = _run(p, streams, j, k, labels=labels)
    perm = data.draw(st.permutations(range(n)))
    renamed = {labels[i]: f"r{position}" for position, i in enumerate(perm)}
    moved_stages, moved_outputs, moved_code = _run(
        p, [streams[i] for i in perm], j, k, labels=[renamed[labels[i]] for i in perm]
    )
    assert moved_code == code
    assert moved_stages == stages

    def rename(names):
        return frozenset(renamed[name] for name in names)

    (levels, exponents, mismatches) = _by_label(outputs)
    expected = (
        [({*map(rename, blocks)}, {*map(rename, supports)}) for blocks, supports in levels],
        {(renamed[a], renamed[b]): e for (a, b), e in exponents.items()},
        {rename(pair): entry for pair, entry in mismatches.items()},
    )
    assert _by_label(moved_outputs) == expected
