"""The raw-matrix path on exact integers.

- The entry parser against ``Fraction(str)``, by value or by the error.
- The integer kernels (closure, violation masks, rounding and its
  witness) against the Fraction routes of ``oracles.py``.
- A guard that the CLI raw path builds no ``Fraction``, and that the
  closure's rows, when read, build one per distinct merge weight.
- The CLI's raw ``round`` space against the library's route on the
  materialized closure and against the Fraction single-linkage oracle,
  and the closure view against the list of its rows.
- Metamorphic relations between CLI runs on transformed matrices:
  scaling by 1/p, a duplicated point and a relabeling.  They share no
  code with either route.  A digit-stream family and its distance
  matrix give one expansion through the two ingest paths.
- A matrix run without ``round``: its validate stage is the proof that
  builds the space, against ``validate_ultrametric`` and the value-group
  oracle, and a guard that each fact is decided once.
"""

import fractions
import json
import random
import re
import sys
import tempfile
import tracemalloc
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
    quotient_zero,
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
    main,
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


def _written_out(text):
    """text, where Fraction reads it as an exponent form, as the decimal it means; else text."""
    form = fractions._RATIONAL_FORMAT.match(text)
    if not form or not form["exp"]:
        return text
    whole = form["num"].replace("_", "")
    digits = whole + (form["decimal"] or "").replace("_", "")
    point = len(whole) + int(form["exp"])
    if point <= 0:
        return f"{form['sign']}0.{'0' * -point}{digits}"
    return f"{form['sign']}{digits[:point].ljust(point, '0')}.{digits[point:]}"


def _worded(exc):
    """exc's text, with Python 3.10's "limit (4300)" worded as later versions word it."""
    return re.sub(r"^Exceeds the limit \((\d+)\)", r"Exceeds the limit (\1 digits)", str(exc))


def _fraction_outcome(text):
    try:
        # the parser must raise what Fraction raises, and refuse an exponent
        # form where Fraction refuses the decimal it means, written out
        value = Fraction(_written_out(text))
    except Exception as exc:
        return type(exc), _worded(exc)
    return value.numerator, value.denominator


def _pair_outcome(text):
    try:
        return _exact_pair(text)
    except Exception as exc:
        return type(exc), _worded(exc)


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


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-string digit limit"
)
def test_an_exponent_form_is_refused_before_any_fraction_is_built(monkeypatch):
    limit = sys.get_int_max_str_digits()
    assert _exact_pair(f"1e-{limit}") == (1, 10**limit)
    assert _exact_pair(f"1e-{limit}") == _exact_pair("0." + "0" * (limit - 1) + "1")
    built = []
    monkeypatch.setattr(fractions, "Fraction", lambda *args: built.append(args))
    for text, run in ((f"1e-{limit + 1}", limit + 1), ("1e-2000000", 2000000), (f"1e{limit}", limit + 1)):
        with pytest.raises(ValueError, match=rf"\({limit} digits\) .*: value has {run} digits;"):
            _exact_pair(text)
    assert built == []


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-string digit limit"
)
def test_an_over_long_decimal_is_refused_before_its_power_of_ten_is_built():
    digits = 4 * 10**6
    text = "0." + "0" * (digits - 1) + "1"
    # 10**digits has more than 3 bits per digit
    power_bytes = digits * 3 // 8
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^Exceeds the limit .*: value has {digits} digits;"):
            _exact_pair(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the one copy of the digit run that splitting the text makes is in
    # proportion to the text; beyond it, less than the power is allocated
    assert peak - len(text) < power_bytes


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-string digit limit"
)
@pytest.mark.parametrize("command", ["validate", "expand"])
def test_a_matrix_entry_in_exponent_form_is_refused_as_its_decimal_is(tmp_path, capsys, command):
    def two_points(text):
        path = tmp_path / f"{text}.json"
        path.write_text(
            json.dumps({"labels": ["a", "b"], "prime": 2, "matrix": [["0", text], [text, "0"]]})
        )
        return str(path)

    assert main(["validate", two_points("1e-4300")]) == EXIT_OK
    capsys.readouterr()
    far = two_points("1e-2000000")
    out = ["--out", str(tmp_path / "out")] if command == "expand" else []
    assert main([command, far, *out]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        f"error: {far}: field 'matrix' row 0 holds an entry that is not rational: Exceeds the limit"
    )


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
    masks = fraction_violation_masks(exact)
    assert len(found) == sum(mask.bit_count() for _, _, mask in masks)
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
    # 10^-100000: the stepwise route would take 332193 steps; as text, its
    # 100000-digit run is over int's bound, so it is given as a Fraction
    tiny = Fraction(1, 10**100000)
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


def test_the_cli_raw_path_builds_no_fraction(tmp_path, monkeypatch):
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

    monkeypatch.setattr(Fraction, "__new__", counted)
    # control: the counter sees the Fractions the old parse would build
    [[Fraction(entry) for entry in row] for row in matrix]
    assert len(built) == 32 * 32
    built.clear()
    report, outputs, code = run(PipelineConfig(), path)
    assert code == 0 and "expansion.json" in outputs
    assert built == []
    # the closure builds its rows when they are read: one Fraction per
    # distinct merge weight, and the diagonal's zero
    closed = subdominant_closure(load_input(path)[1])
    assert built == []
    rows = list(closed)
    assert len(built) == len(weights) + 1
    assert rows == fraction_closure(exact)


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
    return _run_text(text, stages)


def _run_text(text, stages):
    """The run report's stages, the outputs and the exit code of an input text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(text)
        report, outputs, code = run(PipelineConfig(stages=tuple(stages)), path)
    # as the CLI prints and writes them
    stages = json.loads(json.dumps(report.to_json()["stages"]))
    # the echo is a view of the tree, which json reads as the list of its rows
    return stages, json.loads(json.dumps(outputs, default=list)), code


@settings(max_examples=150, deadline=None)
@given(case=written_inputs(), p=st.sampled_from([2, 3, 5]))
def test_the_cli_raw_round_space_is_the_closure_rounded(case, p):
    exact, tokens = case
    n = len(exact)
    labels = [f"v{i}" for i in range(n)]
    stages, outputs, code = _run(labels, tokens, p, ("validate", "round"))
    assert code == EXIT_OK
    echo = outputs["space.json"]
    # the library's route on the closure's rows as a list: keyed, proved and rounded again
    space, merged = quotient_zero(round_space(labels, list(subdominant_closure(exact)), p))
    assert echo["labels"] == list(space.labels)
    assert echo["gamma_matrix"] == space.to_json()["gamma_matrix"]
    assert stages["round"]["merged"] == [list(pair) for pair in sorted(merged.items())]
    # the oracle: each merge weight of single linkage on Fractions, rounded
    exponents = [[None] * n for _ in range(n)]
    for weight, a, b in fraction_single_linkage(exact):
        for x in a:
            for y in b:
                exponents[x][y] = exponents[y][x] = gamma_floor(weight, p)
    kept = [labels.index(label) for label in echo["labels"]]
    assert echo["gamma_matrix"] == [
        ["INF" if exponents[x][y] is None else exponents[x][y] for y in kept] for x in kept
    ]


@settings(max_examples=150, deadline=None)
@given(case=mixed_matrices(), data=st.data())
def test_the_closure_reads_as_the_list_of_its_rows(case, data):
    exact, written = case
    closed = subdominant_closure(written)
    rows = list(closed)
    n = len(rows)
    assert len(closed) == n and rows == fraction_closure(exact)
    assert [list(row) for row in closed] == rows
    index = data.draw(st.integers(-n, n - 1))
    assert closed[index] == rows[index]
    for outside in (n, -n - 1):
        with pytest.raises(IndexError):
            closed[outside]
    bounds = st.none() | st.integers(-n - 1, n + 1)
    steps = st.none() | st.sampled_from([-2, -1, 1, 2])
    window = slice(data.draw(bounds), data.draw(bounds), data.draw(steps))
    assert closed[window] == rows[window]
    assert closed == rows and rows == closed and not closed != rows
    assert closed == subdominant_closure(exact) == subdominant_closure(closed)
    other = [row[:] for row in rows]
    other[-1][0] += 1
    assert closed != other and closed != rows[:-1] and closed != tuple(rows)
    assert repr(closed) == repr(rows)


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


@st.composite
def digit_stream_families(draw):
    """A prime of 2, 3 or 5 and 2 to 25 digit streams of one length from 2 to 7.

    A family with a repeated stream is skipped: its streams are drawn distinct.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    length = draw(st.integers(2, 7))
    stream = st.lists(st.integers(0, p - 1), min_size=length, max_size=length)
    return p, draw(st.lists(stream, min_size=2, max_size=25, unique_by=tuple))


# 150 examples, two runs each: about 1.3 s on one core of a 2.1 GHz Xeon
@settings(max_examples=150, deadline=None)
@given(family=digit_stream_families())
def test_digit_streams_and_their_distance_matrix_give_one_expansion(family):
    p, streams = family
    labels = [f"v{i}" for i in range(len(streams))]

    def text(s, t) -> str:
        # two streams lie p^-h apart, where h is the first digit at which they differ
        h = next((h for h, (a, b) in enumerate(zip(s, t)) if a != b), None)
        return '"0"' if h is None else f'"1/{p**h}"'

    _, outputs, code = _run(labels, [[text(s, t) for t in streams] for s in streams], p)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps({"labels": labels, "prime": p, "padic_points": streams}))
        _, stream_outputs, stream_code = run(PipelineConfig(), path)
    assert stream_code == code == EXIT_OK
    gamma = stream_outputs["space.json"]["gamma_matrix"]
    assert gamma == outputs["space.json"]["gamma_matrix"]
    bundle, stream_bundle = outputs["expansion.json"], stream_outputs["expansion.json"]
    assert {**stream_bundle, "space": None} == {**bundle, "space": None}


@st.composite
def uneven_stream_families(draw):
    """A prime of 2, 3 or 5 and 2 to 14 digit streams of 1 to 6 digits.

    About a third of the streams repeat, cut or extend an earlier one, so
    windows of unequal lengths are often prefixes of one another.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    digits = st.lists(st.integers(0, p - 1), min_size=1, max_size=6)
    streams = [draw(digits)]
    for _ in range(draw(st.integers(1, 13))):
        stream = draw(digits)
        if draw(st.integers(0, 2)) == 0:
            earlier = draw(st.sampled_from(streams))
            stream = draw(
                st.sampled_from(
                    [earlier, earlier[: draw(st.integers(1, len(earlier)))], (earlier + stream)[:6]]
                )
            )
        streams.append(list(stream))
    return p, streams


# 150 examples, two runs each: about 2 s on one core of a 2.1 GHz Xeon
@settings(max_examples=150, deadline=None)
@given(family=uneven_stream_families())
def test_unequal_and_repeated_streams_and_their_matrix_agree(family):
    p, streams = family
    labels = [f"v{i}" for i in range(len(streams))]
    # each stream's window, as space_from_points reads it: an all-zero stream
    # is exact zero, zeros up to the longest stream that is not all zero
    longest = max((len(s) for s in streams if any(s)), default=0)
    windows = [s if any(s) else [0] * longest for s in streams]

    def text(s, t) -> str:
        # a window that is a prefix of the other is at distance 0; any other
        # pair at p^-f, where f is the first position at which they differ
        f = next((f for f, (a, b) in enumerate(zip(s, t)) if a != b), None)
        return '"0"' if f is None else f'"1/{p**f}"'

    stages, outputs, code = _run(labels, [[text(s, t) for t in windows] for s in windows], p)
    written = json.dumps({"labels": labels, "prime": p, "padic_points": streams})
    stream_stages, stream_outputs, stream_code = _run_text(
        written, ("validate", "round", "expand", "verify")
    )
    violations = stages["validate"]["violations"]
    if violations:
        # round mends the matrix by its closure, but not the streams
        assert code == EXIT_OK
        assert stream_code == EXIT_VERIFY
        assert stream_stages["validate"]["violation_count"] == violations
        return
    assert stream_code == code
    gamma = stream_outputs["space.json"]["gamma_matrix"]
    assert gamma == outputs["space.json"]["gamma_matrix"]
    assert stream_stages["round"]["merged"] == stages["round"]["merged"]
    stream_bundle = stream_outputs["expansion.json"]
    del stream_bundle["space"]["padic_points"]
    assert stream_bundle == outputs["expansion.json"]


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
        stage.pop("checks", None)  # the verify stage's seconds per check
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
        (spaces, "_integer_keys"),
        (spaces, "_sweep"),
        (spaces, "_single_linkage"),
        (padic, "_floor_log"),
    ):
        monkeypatch.setattr(module, name, _counted(calls, name, getattr(module, name)))

    def counts(stages):
        calls.clear()
        report, outputs, code = run(PipelineConfig(stages=stages), path)
        assert code == EXIT_OK and "expansion.json" in outputs
        names = ("_integer_keys", "_sweep", "_single_linkage", "_floor_log")
        return tuple(map(calls.__getitem__, names))

    # control: with round the counters see one keying for validate's sweep and
    # the closure, and the closure's one pass, whose gaps rounding reads
    keyings, sweeps, linkages, logs = counts(("validate", "round", "expand", "verify"))
    assert (keyings, sweeps, linkages) == (1, 1, 1) and 0 < logs <= n - 1
    # without round the proof is the validate stage, and each distinct distance is rounded once
    keyings, sweeps, linkages, logs = counts(("validate", "expand", "verify"))
    assert (keyings, sweeps, linkages) == (1, 0, 1) and 0 < logs <= n - 1


def _counted(calls: Counter, name: str, function):
    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    return counted
