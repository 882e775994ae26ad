"""Metamorphic relations between CLI runs on transformed p-adic digit streams.

Each relation compares two runs of ``cli.run`` and shares no code with
the routes it checks:

- a zero digit prepended to every stream multiplies each point by p, so
  with the schedule j + 1 (same k) every exponent is one higher and
  nothing else changes;
- one common stream added, with carries, to every point of one window
  length is a translation, which keeps every distance |x - y|_p, so only
  the echoed digit streams change;
- restricting distinct streams to a subset under one fixed schedule
  restricts every ball, so each level's blocks and each maximal
  simplex's support are the old ones intersected with the subset;
- permuting distinct streams and giving them new labels, under one
  schedule that skips scales, moves every block, simplex, pair exponent
  and limit-recovery mismatch with its points: single linkage is
  invariant under relabeling (Carlsson & Memoli 2010).

The last two take windows that end apart.  Distinct streams can then sit
at distance 0 ([1] and [1, 0]), and the round stage keeps one label of
each such class, so a label stands for its class.  A window that is a
prefix of two that differ breaks the strong triangle inequality: such a
run fails validate, and its count and witness are held to a brute-force
scan of the streams.

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
        stage.pop("checks", None)  # the verify stage's seconds per check
    # the echo is a view of the tree, which json reads as the list of its rows
    return stages, json.loads(json.dumps(outputs, default=list)), code


def _up(e):
    """An exponent one step deeper; INFINITY (metric 0) and no value stay."""
    return e if e in ("INF", None) else e + 1


def _kept(streams, space):
    """The streams of a bundle space's points, one per label (x<i>): round drops merged points."""
    return [streams[int(label[1:])] for label in space["labels"]]


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
        space["padic_points"] = streams if name == "space.json" else _kept(streams, space)
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
        space = run_outputs["expansion.json"]["space"]
        assert space.pop("padic_points") == _kept(run_streams, space)
        assert run_outputs["space.json"]["padic_points"] == run_streams
    assert moved_outputs["expansion.json"] == outputs["expansion.json"]


def test_a_carry_moves_a_digit_stream():
    # the translation itself: 1 + 1 in base 2 carries into the next digit
    assert _translated([[1, 0, 1]], [1, 1, 0], 2) == [[0, 0, 0]]
    assert _translated([[2, 2]], [1, 0], 3) == [[0, 0]]


def _exponent(a, b):
    """Exponent of |a - b|_p for two digit streams (None: distance 0).

    A stream of zeros is the point 0, known at every digit; two other
    streams are compared within the shorter.
    """
    pairs = zip(a if any(a) else [0] * len(b), b if any(b) else [0] * len(a))
    return next((i for i, (x, y) in enumerate(pairs) if x != y), None)


def _violations(streams):
    """Every triple (i, j, k), i < k, with d(i,k) > max(d(i,j), d(j,k)), by brute force."""
    n = len(streams)

    def closer(e, than):  # exponent e is a smaller distance than exponent than
        return than is not None and (e is None or e > than)

    return [
        (i, j, k)
        for i in range(n)
        for k in range(i + 1, n)
        for j in range(n)
        if closer(_exponent(streams[i], streams[j]), _exponent(streams[i], streams[k]))
        and closer(_exponent(streams[j], streams[k]), _exponent(streams[i], streams[k]))
    ]


def _assert_failure_matches(stages, streams, labels):
    """A failed validate stage counts the violating triples and names one of them."""
    found = _violations(streams)
    assert found and stages["validate"]["violation_count"] == len(found)
    assert tuple(map(labels.index, stages["validate"]["violating_triple"])) in found


def _classes(stages, labels):
    """Each label the round stage keeps, mapped to its class at distance 0."""
    classes = {label: {label} for label in labels}
    for dropped, kept in stages["round"]["merged"]:
        classes[kept] |= classes.pop(dropped)
    return {label: frozenset(members) for label, members in classes.items()}


def _label_sets(outputs, classes):
    """Per level: the blocks, and each maximal simplex's support, as sets of labels.

    A vertex stands for the block that holds it, so a simplex's support
    is the union of its vertices' blocks; a kept label for its class.
    """
    bundle = outputs["expansion.json"]
    names = bundle["space"]["labels"]
    found = []
    for level in bundle["levels"]:
        block_of = {}
        for block in level["blocks"]:
            labels = frozenset().union(*(classes[names[x]] for x in block))
            block_of.update(dict.fromkeys(block, labels))
        supports = {
            frozenset().union(*map(block_of.__getitem__, simplex))
            for simplex in level["maximal_simplexes"]
        }
        found.append((set(block_of.values()), supports))
    return found


@settings(max_examples=150, deadline=None)
@given(family=stream_families(), data=st.data())
def test_restriction_to_a_subset_restricts_blocks_and_simplexes(family, data):
    p, streams = family
    streams = [list(s) for s in dict.fromkeys(map(tuple, streams))]  # distinct streams
    labels = [f"x{i}" for i in range(len(streams))]
    flags = data.draw(st.lists(st.booleans(), min_size=len(streams), max_size=len(streams)))
    kept = [i for i, keep in enumerate(flags) if keep] or [len(streams) - 1]
    subset = frozenset(labels[i] for i in kept)
    sub_streams, sub_labels = [streams[i] for i in kept], [labels[i] for i in kept]
    # one explicit k = 1 schedule for both runs; the last level separates
    j = range(0, MAX_DIGITS + 3)
    stages, outputs, code = _run(p, streams, j, 1)
    sub_stages, sub_outputs, sub_code = _run(p, sub_streams, j, 1, labels=sub_labels)
    # a failed proof can pass on a subset, never the other way round
    for run_stages, run_streams, run_labels in (
        (stages, streams, labels),
        (sub_stages, sub_streams, sub_labels),
    ):
        if run_stages["validate"]["status"] == "failed":
            _assert_failure_matches(run_stages, run_streams, run_labels)
        else:
            assert not _violations(run_streams)
    if stages["validate"]["status"] == "failed":
        return
    assert sub_code == code
    empty = {frozenset()}
    expected = [
        ({b & subset for b in blocks} - empty, {s & subset for s in supports} - empty)
        for blocks, supports in _label_sets(outputs, _classes(stages, labels))
    ]
    assert _label_sets(sub_outputs, _classes(sub_stages, sub_labels)) == expected


def _by_label(stages, outputs, labels):
    """The run's blocks, simplexes, pair exponents and mismatches, named by label classes."""
    classes = _classes(stages, labels)
    bundle = outputs["expansion.json"]
    names = [classes[name] for name in bundle["space"]["labels"]]
    rows = bundle["space"]["gamma_matrix"]
    exponents = {
        (names[x], names[y]): e for x, row in enumerate(rows) for y, e in enumerate(row)
    }
    mismatches = {
        frozenset((names[x], names[y])): (r, a)
        for x, y, r, a in bundle["reports"]["limit_isometry_mismatches"]
    }
    others = {name: stage for name, stage in stages.items() if name != "round"}
    return set(classes.values()), others, _label_sets(outputs, classes), exponents, mismatches


@settings(max_examples=150, deadline=None)
@given(family=stream_families(), k=st.integers(0, 2), data=st.data())
def test_permuting_and_relabeling_streams_moves_everything_with_its_points(family, k, data):
    p, streams = family
    streams = [list(s) for s in dict.fromkeys(map(tuple, streams))]  # distinct streams
    n = len(streams)
    labels = [f"x{i}" for i in range(n)]
    # a schedule that skips scales, so limit recovery can fail; the last level separates
    skipping = data.draw(st.lists(st.integers(0, MAX_DIGITS), unique=True))
    j = [*sorted(skipping), MAX_DIGITS + 1 + k]
    stages, outputs, code = _run(p, streams, j, k, labels=labels)
    perm = data.draw(st.permutations(range(n)))
    renamed = {labels[i]: f"r{position}" for position, i in enumerate(perm)}
    moved_streams, moved_labels = [streams[i] for i in perm], [renamed[labels[i]] for i in perm]
    moved_stages, moved_outputs, moved_code = _run(p, moved_streams, j, k, labels=moved_labels)
    assert moved_code == code
    if stages["validate"]["status"] == "failed":
        # the witness may move to another violating triple; the count stays
        _assert_failure_matches(stages, streams, labels)
        _assert_failure_matches(moved_stages, moved_streams, moved_labels)
        return
    assert not _violations(streams)

    def rename(names):
        return frozenset(renamed[name] for name in names)

    classes, others, levels, exponents, mismatches = _by_label(stages, outputs, labels)
    expected = (
        {*map(rename, classes)},
        others,
        [({*map(rename, blocks)}, {*map(rename, supports)}) for blocks, supports in levels],
        {(rename(a), rename(b)): e for (a, b), e in exponents.items()},
        {frozenset(map(rename, pair)): entry for pair, entry in mismatches.items()},
    )
    assert _by_label(moved_stages, moved_outputs, moved_labels) == expected
