"""The raw-matrix path on exact integers.

- The entry parser against ``Fraction(str)``, by value or by the error.
- The integer kernels (closure, violation masks, rounding and its
  witness) against the Fraction routes of ``oracles.py``.
- A guard that the CLI raw path builds one ``Fraction`` per distinct
  merge weight and no other.
- Metamorphic relations between CLI runs on transformed matrices:
  scaling by 1/p, a duplicated point and a relabeling.  They share no
  code with either route.
- A matrix run without ``round``: its validate stage is the proof that
  builds the space, against ``validate_ultrametric`` and the value-group
  oracle, and a guard that each fact is decided once.
"""

import json
import random
import re
import tempfile
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrapoly import (
    NotUltrametricError,
    UnseparatedSpaceError,
    round_space,
    subdominant_closure,
    validate_ultrametric,
)
from ultrapoly import padic, spaces
from ultrapoly.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    InputFormatError,
    PipelineConfig,
    load_input,
    run,
)
from ultrapoly.padic import _exact_pair
from ultrapoly.spectrum import residue_space

from corpus import mixed_matrices
from oracles import (
    fraction_closure,
    fraction_round_check,
    fraction_single_linkage,
    fraction_violation_masks,
    gamma_floor,
    in_value_group,
    violating_triples,
)


def _fraction_outcome(text):
    try:
        value = Fraction(text)
    except Exception as exc:  # the parser must raise what Fraction raises
        return type(exc), str(exc)
    return value.numerator, value.denominator


def _pair_outcome(text):
    try:
        return _exact_pair(text)
    except Exception as exc:
        return type(exc), str(exc)


# ------------------------------------------------------------------ parser

DIGITS = st.sampled_from("0123456789")
# Arabic-Indic, fullwidth and Devanagari digits, a superscript (no decimal digit)
ODD_DIGITS = st.sampled_from("٣５७²")


@st.composite
def digit_runs(draw, allow_empty=False):
    run = draw(st.lists(st.one_of(DIGITS, DIGITS, DIGITS, ODD_DIGITS), max_size=6))
    text = "".join(run)
    if text and draw(st.integers(0, 5)) == 0:  # an underscore between digits, or a stray one
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + "_" + text[cut:]
    if not text and not allow_empty:
        text = draw(DIGITS)
    return text


@st.composite
def rational_texts(draw):
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    whole = draw(digit_runs(allow_empty=True))
    form = draw(st.sampled_from(["int", "ratio", "decimal", "exponent", "junk"]))
    if form == "int":
        body = whole or "0"
    elif form == "ratio":
        body = f"{whole}/{draw(st.sampled_from(['0', '00', '7', '10', '3_0']) | digit_runs())}"
    elif form == "decimal":
        body = f"{whole}.{draw(digit_runs(allow_empty=True))}"  # ".5", "5." and "." too
    elif form == "exponent":
        mark = draw(st.sampled_from("eE"))
        body = f"{whole}.{draw(digit_runs(allow_empty=True))}{mark}{draw(st.sampled_from(['', '-', '+']))}{draw(digit_runs())}"
    else:
        body = draw(st.text(alphabet="0123456789./eE_-+ ax", max_size=8))
    pad = st.sampled_from(["", "", " ", "\t", "\n "])
    return f"{draw(pad)}{sign}{body}{draw(pad)}"


@settings(max_examples=600, deadline=None)
@given(text=st.one_of(rational_texts(), st.text(max_size=6)))
def test_parser_matches_fraction(text):
    assert _pair_outcome(text) == _fraction_outcome(text)


@pytest.mark.parametrize(
    "text",
    ["5", "3/6", ".5", "5.", "0.000", "0/7", "007/010", "-0.5", "+1", "1e-3", "1E+2", " 1",
     "1 ", "1_000", "1__0", "٣", "٣/٦", "５.５", "²", "1/0", "0/0", "1.5/2", "1/2.5", "1/-2",
     ".", "/", "", "abc", "1.2.3", "/5", "5/", "nan", "inf", "1" * 5000, "0." + "1" * 5000],
)
def test_parser_matches_fraction_on_fixed_forms(text):
    assert _pair_outcome(text) == _fraction_outcome(text)


def test_parser_reads_ints_and_fractions():
    assert _exact_pair(12) == (12, 1)
    assert _exact_pair(-3) == (-3, 1)
    assert _exact_pair(Fraction(6, 4)) == (3, 2)


@settings(max_examples=150, deadline=None)
@given(text=rational_texts())
def test_load_input_reports_what_fraction_reports(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps({"labels": ["a"], "prime": 2, "matrix": [[text]]}))
        expected = _fraction_outcome(text)
        if isinstance(expected[0], type):
            with pytest.raises(InputFormatError) as info:
                load_input(path)
            assert str(info.value) == (
                f"{path}: field 'matrix' row 0 holds an entry that is not rational: {expected[1]}"
            )
        else:
            assert load_input(path)[1] == [[expected]]


def test_load_input_keeps_the_message_of_an_entry_of_no_number_type(tmp_path):
    path = tmp_path / "in.json"
    for entry in (None, [1], {"a": 1}):
        path.write_text(json.dumps({"labels": ["a", "b"], "prime": 2, "matrix": [["0", entry], ["1", "0"]]}))
        with pytest.raises(InputFormatError) as info:
            load_input(path)
        with pytest.raises(TypeError) as fraction_error:
            Fraction(entry)
        assert str(info.value).endswith(f"not rational: {fraction_error.value}")


def test_load_input_reads_json_numbers_exactly(tmp_path):
    path = tmp_path / "in.json"
    path.write_text('{"labels": ["a", "b"], "prime": 3, "matrix": [[0, 1e-3], [0.001, 0]]}')
    assert load_input(path)[1] == [[(0, 1), (1, 1000)], [(1, 1000), (0, 1)]]


# ------------------------------------------------------ integer kernels

@settings(max_examples=250, deadline=None)
@given(case=mixed_matrices(), p=st.sampled_from([2, 3, 5]))
def test_integer_kernels_match_the_fraction_routes(case, p):
    exact, written = case
    labels = [f"v{i}" for i in range(len(exact))]
    found = validate_ultrametric(labels, written)
    assert found == spaces.Violations(fraction_violation_masks(exact))
    assert list(found) == violating_triples(exact)

    closed = subdominant_closure(written)
    assert closed == fraction_closure(exact)
    assert all(type(entry) is Fraction for row in closed for entry in row)

    kind, expected = fraction_round_check(fraction_closure(exact), p)
    assert kind == "exponents"
    assert [[d.exponent for d in row] for row in round_space(labels, closed, p).dist] == expected

    kind, expected = fraction_round_check(exact, p)
    if kind == "witness":
        with pytest.raises(NotUltrametricError) as info:
            round_space(labels, written, p)
        assert info.value.triple == expected
    else:
        assert [[d.exponent for d in row] for row in round_space(labels, written, p).dist] == expected


@pytest.mark.parametrize(
    "entry, message",
    [
        ((1, 0), "a matrix entry pair must be two ints with a positive denominator, got (1, 0)"),
        ((1, -2), "a matrix entry pair must be two ints with a positive denominator, got (1, -2)"),
        ((1, 2, 3), "a matrix entry pair must be two ints with a positive denominator, got (1, 2, 3)"),
        ((0.5, 1), "a matrix entry pair must be two ints with a positive denominator, got (0.5, 1)"),
    ],
)
def test_a_malformed_pair_is_refused(entry, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        subdominant_closure([[(0, 1), entry], [entry, (0, 1)]])


def test_matrix_errors_keep_their_texts():
    with pytest.raises(spaces.NonzeroDiagonalError, match=r"^diagonal entry at index 1 is 1/2$"):
        validate_ultrametric(["a", "b"], [[(0, 1), (1, 2)], [(1, 2), (1, 2)]])
    with pytest.raises(spaces.NegativeDistanceError, match=r"^entry \(0,1\) is negative$"):
        validate_ultrametric(["a", "b"], [["0", "-1/2"], ["-0.5", "0"]])
    with pytest.raises(spaces.AsymmetricMatrixError, match=r"^entries \(0,1\) and \(1,0\) differ$"):
        validate_ultrametric(["a", "b"], [["0", "1/2"], ["0.25", "0"]])
    with pytest.raises(spaces.MatrixShapeError, match="square"):
        validate_ultrametric(["a", "b"], [["0", "1"], ["1"]])


def test_an_empty_matrix_has_no_violations_and_makes_no_space():
    assert validate_ultrametric([], []) == [] and len(validate_ultrametric([], [])) == 0
    assert subdominant_closure([]) == []
    with pytest.raises(ValueError, match=r"^a space needs at least one point$"):
        round_space([], [], 2)


def test_a_value_with_a_long_denominator_rounds_exactly():
    # 10^-100000: the stepwise route would take 332193 steps
    tiny = "1e-100000"
    space = round_space(["a", "b"], subdominant_closure([["0", tiny], [tiny, "0"]]), 2)
    assert space.dist[0][1].exponent == 332193


# ------------------------------------------------------------------ guard

def _guard_matrix(n: int, seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    text = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                value = f"{rng.randint(1, 999)}/{rng.randint(7, 97)}"
            else:
                value = f"{rng.randint(0, 9)}.{rng.randint(1, 999):03d}"
            text[i][j] = text[j][i] = value
    return text


def test_the_cli_raw_path_builds_one_fraction_per_distinct_merge_weight(tmp_path, monkeypatch):
    matrix = _guard_matrix(32, seed=32)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"labels": [f"x{i}" for i in range(32)], "prime": 3, "matrix": matrix}))
    exact = [[Fraction(entry) for entry in row] for row in matrix]
    weights = {weight for weight, _, _ in fraction_single_linkage(exact)}

    built = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    # the diagonal's shared zero is built once per process, on first use
    subdominant_closure([["0"]])
    monkeypatch.setattr(Fraction, "__new__", counted)
    # control: the counter sees the Fractions the old parse would build
    [[Fraction(entry) for entry in row] for row in matrix]
    assert len(built) == 32 * 32
    built.clear()
    report, outputs, code = run(PipelineConfig(), path)
    assert code == 0 and "expansion.json" in outputs
    assert 0 < len(built) <= len(weights)


# ------------------------------------------------------- metamorphic relations

@st.composite
def written_inputs(draw, n_max=7):
    """(exact matrix, JSON token per entry): mixed forms, JSON numbers among them."""
    exact, _ = draw(mixed_matrices(n_max=n_max))
    return exact, [[draw(_tokens(value)) for value in row] for row in exact]


def _tokens(value: Fraction):
    """JSON tokens that read back as value: "1/2", 0.5, "3/6", 1e-3 and the like."""
    num, den = value.numerator, value.denominator
    forms = [f'"{num}/{den}"', f'"{2 * num}/{2 * den}"']
    if 1000 % den == 0:
        thousandths = num * (1000 // den)
        decimal = f"{thousandths // 1000}.{thousandths % 1000:03d}"
        forms += [decimal, f'"{decimal}"', f"{thousandths}e-3"]
    if den == 1:
        forms += [str(num), f'"{num}"']
    return st.sampled_from(forms)


def _run(labels, tokens, prime, stages=("validate", "round", "expand", "verify")):
    rows = ", ".join("[" + ", ".join(row) + "]" for row in tokens)
    text = f'{{"labels": {json.dumps(labels)}, "prime": {prime}, "matrix": [{rows}]}}'
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(text)
        report, outputs, code = run(PipelineConfig(stages=tuple(stages)), path)
    # as the CLI prints and writes them
    return json.loads(json.dumps(report.to_json()["stages"])), json.loads(json.dumps(outputs)), code


@settings(max_examples=60, deadline=None)
@given(case=written_inputs(), p=st.sampled_from([2, 3, 5]), data=st.data())
def test_dividing_by_p_raises_every_rounded_exponent_by_one(case, p, data):
    exact, tokens = case
    labels = [f"v{i}" for i in range(len(exact))]
    scaled = [[data.draw(_tokens(value / p)) for value in row] for row in exact]
    stages, outputs, code = _run(labels, tokens, p, ("validate", "round"))
    scaled_stages, scaled_outputs, scaled_code = _run(labels, scaled, p, ("validate", "round"))
    assert scaled_code == code
    assert scaled_stages["validate"]["violations"] == stages["validate"]["violations"]
    assert scaled_stages["round"]["merged"] == stages["round"]["merged"]
    space, scaled_space = outputs["space.json"], scaled_outputs["space.json"]
    assert scaled_space["labels"] == space["labels"]
    assert scaled_space["gamma_matrix"] == [
        ["INF" if e == "INF" else e + 1 for e in row] for row in space["gamma_matrix"]
    ]


@settings(max_examples=40, deadline=None)
@given(case=written_inputs(), p=st.sampled_from([2, 3]), data=st.data())
def test_a_duplicated_point_is_merged_and_changes_nothing_else(case, p, data):
    exact, tokens = case
    n = len(exact)
    labels = [f"v{i}" for i in range(n)]
    x = data.draw(st.integers(0, n - 1))
    at = data.draw(st.integers(x + 1, n))  # the copy sits after x, so x's class keeps its keeper
    copy_row = [tokens[x][k] for k in range(n)]
    dup_tokens = [row[:at] + [row[x]] + row[at:] for row in tokens]
    dup_tokens.insert(at, copy_row[:at] + ['"0"'] + copy_row[at:])
    dup_labels = labels[:at] + ["copy"] + labels[at:]
    stages, outputs, code = _run(labels, tokens, p)
    dup_stages, dup_outputs, dup_code = _run(dup_labels, dup_tokens, p)
    assert dup_code == code
    keeper = dict(stages["round"]["merged"]).get(labels[x], labels[x])
    assert dup_stages["round"]["merged"] == sorted(stages["round"]["merged"] + [["copy", keeper]])
    assert dup_outputs["expansion.json"] == outputs["expansion.json"]
    for name in ("labels", "prime", "gamma_matrix"):
        assert dup_outputs["space.json"][name] == outputs["space.json"][name]
    assert {key: value["status"] for key, value in dup_stages.items()} == {
        key: value["status"] for key, value in stages.items()
    }


def _by_label(stages: dict, outputs: dict) -> dict:
    """The run's outputs with every point named by the set of input labels merged into it."""
    merged = stages["round"]["merged"]
    bundle = outputs["expansion.json"]
    names = [
        frozenset([label] + [dropped for dropped, keeper in merged if keeper == label])
        for label in bundle["space"]["labels"]
    ]
    gamma = bundle["space"]["gamma_matrix"]
    levels = []
    for level in bundle["levels"]:
        block_of = {block[0]: frozenset(names[x] for x in block) for block in level["blocks"]}
        levels.append(
            (
                {key: level[key] for key in ("level", "scale", "threshold", "dimL")},
                frozenset(block_of.values()),
                frozenset(frozenset(block_of[v] for v in s) for s in level["maximal_simplexes"]),
                block_of,
            )
        )
    bonding = [
        {levels[b["from"]][3][int(v)]: levels[b["to"]][3][w] for v, w in b["vertex_map"].items()}
        for b in bundle["bonding"]
    ]
    # the reports that name no point
    invariant = ("functoriality_ok", "isolation_ok", "limit_isometry_ok", "reconstruct_identity", "uniformity")
    reports = {key: bundle["reports"][key] for key in invariant}
    return {
        "violations": stages["validate"]["violations"],
        "statuses": {key: value["status"] for key, value in stages.items()},
        "points": frozenset(names),
        "distances": {
            frozenset((names[a], names[b])): gamma[a][b]
            for a in range(len(names))
            for b in range(a + 1, len(names))
        },
        "levels": [level[:3] for level in levels],
        "bonding": bonding,
        "schedule": bundle["schedule"],
        "reports": reports,
    }


@settings(max_examples=40, deadline=None)
@given(case=written_inputs(), p=st.sampled_from([2, 3]), data=st.data())
def test_relabeling_the_points_changes_nothing_but_the_names(case, p, data):
    exact, tokens = case
    n = len(exact)
    labels = [f"v{i}" for i in range(n)]
    perm = data.draw(st.permutations(range(n)))  # new position a holds old point perm[a]
    moved_tokens = [[tokens[perm[a]][perm[b]] for b in range(n)] for a in range(n)]
    moved_labels = [labels[perm[a]] for a in range(n)]
    stages, outputs, code = _run(labels, tokens, p)
    moved_stages, moved_outputs, moved_code = _run(moved_labels, moved_tokens, p)
    assert moved_code == code
    assert _by_label(moved_stages, moved_outputs) == _by_label(stages, outputs)


class _FreshRow(Sequence):
    """A row that reads out a new Fraction object on every access, as array types do."""

    def __init__(self, values):
        self.values = values

    def __len__(self):
        return len(self.values)

    def __getitem__(self, index):
        return Fraction(self.values[index])


@settings(max_examples=100, deadline=None)
@given(case=mixed_matrices())
def test_rows_that_make_new_entry_objects_read_the_same(case):
    exact, written = case
    fresh = [_FreshRow([str(value) for value in row]) for row in exact]
    labels = [f"v{i}" for i in range(len(exact))]
    assert validate_ultrametric(labels, fresh) == validate_ultrametric(labels, written)
    assert subdominant_closure(fresh) == subdominant_closure(written)


# ------------------------------------------------------------ without round

@st.composite
def value_group_inputs(draw):
    """(prime, exact matrix, JSON tokens): powers of p on a random tree, maybe spoiled.

    Each point has a digit code; points that first differ at position i
    sit p^-(i + shift) apart, and equal codes (duplicate rows) at 0.  The
    matrix may then be scaled by a non-power, which keeps it an
    ultrametric, or one pair may take a non-power, another power (either
    most often breaks the ultrametric) or a negative value.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 6))
    codes = [tuple(draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))) for _ in range(n)]
    shift = draw(st.integers(-2, 2))
    factor = draw(st.sampled_from([Fraction(3, 4), Fraction(7, 10), Fraction(6, 5)]))

    def distance(a, b):
        first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)
        return Fraction(0) if first is None else Fraction(p) ** -(first + shift)

    exact = [[distance(a, b) for b in codes] for a in codes]
    spoil = draw(st.sampled_from([None, None, "scaled", "non-power", "power", "negative"]))
    if spoil == "scaled":
        exact = [[value * factor for value in row] for row in exact]
    elif n >= 2 and spoil:
        i, j = draw(st.permutations(range(n)))[:2]
        value = exact[i][j] or Fraction(1)
        if spoil == "non-power":
            value *= factor
        elif spoil == "power":
            value = Fraction(p) ** -draw(st.integers(-2, 4))
        else:
            value = -value
        exact[i][j] = exact[j][i] = value
    tokens = [[draw(_tokens(v)) if v >= 0 else f'"{v}"' for v in row] for row in exact]
    return p, exact, tokens


def _outcome(labels, tokens, prime, stages):
    """(exit code, stages less their seconds, outputs, error) with ``main``'s exit-code policy."""
    try:
        report, outputs, code = _run(labels, tokens, prime, stages)
    except NotUltrametricError as exc:
        return EXIT_VERIFY, None, None, list(exc.violations)
    except ValueError as exc:
        return EXIT_INPUT, None, None, (type(exc), str(exc))
    for stage in report.values():
        del stage["seconds"]
    return code, report, outputs, None


@settings(max_examples=150, deadline=None)
@given(case=value_group_inputs(), expand=st.booleans())
def test_a_matrix_without_round_is_proved_by_its_validate_stage(case, expand):
    p, exact, tokens = case
    labels = [f"v{i}" for i in range(len(exact))]
    later = ("expand", "verify") if expand else ()
    checked = _outcome(labels, tokens, p, ("validate",) + later)
    unchecked = _outcome(labels, tokens, p, later)
    try:
        violations = validate_ultrametric(labels, exact)
    except ValueError as exc:
        # a malformed matrix is refused as validate refuses it, with or without the stage
        assert checked == unchecked == (EXIT_INPUT, None, None, (type(exc), str(exc)))
        return
    if violations:
        i, j, k = violations[0]
        failed = {"status": "failed", "violating_triple": [labels[i], labels[j], labels[k]]}
        failed["violation_count"] = len(violations)
        assert checked == (EXIT_VERIFY, {"validate": failed}, {}, None)
        # no validate stage to record the failed proof: it is raised, as for streams
        assert unchecked == (EXIT_VERIFY, None, None, list(violations))
        return
    written = [[json.loads(token, parse_float=str) for token in row] for row in tokens]
    outside = [
        entry
        for row, values in zip(written, exact)
        for entry, value in zip(row, values)
        if not in_value_group(value.numerator, value.denominator, p)
    ]
    if outside:
        message = f"entry {outside[0]!r} is not a power of {p}; request the 'round' stage"
        assert checked == unchecked == (EXIT_INPUT, None, None, (InputFormatError, message))
        return
    zeros = [(i, j) for i in range(len(exact)) for j in range(i + 1, len(exact)) if not exact[i][j]]
    if expand and zeros:
        i, j = zeros[0]
        message = (
            f"expansion requires a separated space: {labels[i]} and {labels[j]}"
            " are at distance 0; merge them with quotient_zero (the 'round' stage)"
        )
        assert checked == unchecked
        assert checked[0] == EXIT_INPUT and checked[3] == (UnseparatedSpaceError, message)
        return
    code, stages, outputs, _ = checked
    assert code == EXIT_OK and stages["validate"] == {"status": "passed", "violations": 0}
    later_stages = {key: stages[key] for key in stages if key != "validate"}
    assert unchecked == (EXIT_OK, later_stages, outputs, None)
    space = outputs["space.json"]
    assert space["gamma_matrix"] == [
        ["INF" if value == 0 else gamma_floor(value, p) for value in row] for row in exact
    ]
    assert space["matrix"] == [[str(entry) for entry in row] for row in written]


def test_a_matrix_without_round_is_proved_once_and_rounded_once(tmp_path, monkeypatch):
    # Z/2^6 written as 1/2^e texts: 64 points at six distinct distances
    exponents = residue_space(2, 6).tree.rows()
    n = len(exponents)
    matrix = [["0" if e is None else f"1/{2**e}" for e in row] for row in exponents]
    path = tmp_path / "in.json"
    labels = [f"x{i}" for i in range(n)]
    path.write_text(json.dumps({"labels": labels, "prime": 2, "matrix": matrix}))
    calls = Counter()
    for module, name in (
        (spaces, "_violation_masks"),
        (spaces, "_single_linkage"),
        (padic, "_floor_log"),
    ):
        monkeypatch.setattr(module, name, _counted(calls, name, getattr(module, name)))

    def counts(stages):
        calls.clear()
        report, outputs, code = run(PipelineConfig(stages=stages), path)
        assert code == EXIT_OK and "expansion.json" in outputs
        return calls["_violation_masks"], calls["_single_linkage"], calls["_floor_log"]

    # control: with round the counter sees validate's masks, the closure and the proof
    masks, linkages, logs = counts(("validate", "round", "expand", "verify"))
    assert (masks, linkages) == (1, 2) and 0 < logs <= n - 1
    # without round the proof is the validate stage, and each distinct distance is rounded once
    masks, linkages, logs = counts(("validate", "expand", "verify"))
    assert (masks, linkages) == (0, 1) and 0 < logs <= n - 1


def _counted(calls: Counter, name: str, function):
    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    return counted
