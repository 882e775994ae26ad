"""Pipeline driver: ingest, expand, verify, shadow, export.

Outputs are byte-deterministic for fixed input and config: bundle files
carry no timestamps (timings live only in the run report printed to
stdout), and every dict is serialized with sorted keys.

``console`` is the process entry (``python -m ultrapoly`` and the
``ultrapoly`` script): it runs one command with the cyclic garbage
collector off and freezes the heap before the interpreter exits.
``main`` runs one command and leaves the collector as it finds it, so
callers in one process keep their own collection.
"""

from __future__ import annotations

import functools
import gc
import os
import sys
import time
from collections.abc import Sequence
from itertools import chain, groupby
from types import SimpleNamespace

try:
    import _json  # json's C accelerator: its scanner and encoder, without json's Python layer
except ImportError:  # json's Python layer serves where the accelerator is missing
    _json = None

from .nerve import (
    NerveComplex,
    ThresholdError,
    _parents,
    check_uniform,
    isolated_point_check,
    nerve_to_dot,
)
from .padic import (
    GammaValue,
    PAdic,
    PrimalityUnknownError,
    Record,
    _digits_of,
    _echo,
    _exact_pair,
    _exponent_json,
    _schedule_fault,
    _stream_fault,
    is_prime,
)
from .spaces import (
    NotUltrametricError,
    UltraSpace,
    Violations,
    _exact_rows,
    _Table,
    quotient_zero,
    round_space,
    space_from_points,
    subdominant_closure,
    validate_ultrametric,
)

# spectrum and shadow are imported by the commands that run them, so
# `export dot`, `shadow` and `validate` never load what they do not use;
# type checkers read TYPE_CHECKING as true, and no command imports typing
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .spectrum import Schedule

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2

CONFIG_ENV = "ULTRAPOLY_CONFIG"
ALL_STAGES = ("validate", "round", "expand", "verify", "shadow")
DEFAULT_PRECISION = 32  # p-adic digits kept of each input stream
_DEFAULT_STAGES = ALL_STAGES[:-1]  # every stage but shadow


class ParseError(ValueError):
    pass


class InputFormatError(ValueError):
    pass


class PipelineConfig(Record):
    __slots__ = ("prime", "precision", "schedule_j", "schedule_k", "b_shift", "stages", "out")

    def __init__(
        self,
        prime: int | None = None,  # None: take the input file's prime
        precision: int = DEFAULT_PRECISION,
        schedule_j: list[int] | str = "auto",
        schedule_k: list[int] | str = "auto",
        b_shift: int = 0,
        stages: tuple[str, ...] = _DEFAULT_STAGES,
        out: str | None = None,
    ) -> None:
        self.prime = prime
        self.precision = precision
        self.schedule_j = schedule_j
        self.schedule_k = schedule_k
        self.b_shift = b_shift
        self.stages = stages
        self.out = out
        for stage in stages:
            if stage not in ALL_STAGES:
                raise InputFormatError(f"unknown stage {stage!r}")
            if stage in ("verify", "shadow") and "expand" not in stages:
                raise InputFormatError(f"stage {stage!r} needs the 'expand' stage")
        if precision < 1:
            raise InputFormatError("precision must be >= 1")
        if prime is not None:
            _check_prime_field(prime, "prime")

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "PipelineConfig":
        data: dict = {}
        path = path or os.environ.get(CONFIG_ENV)
        if path:
            data = _load_json(path)
            if not isinstance(data, dict):
                raise InputFormatError(f"{path}: config file must hold a JSON object")
            _check_config(data, path)
        schedule = data.get("schedule", {})
        merged = {
            "prime": data.get("prime"),
            "precision": data.get("precision", DEFAULT_PRECISION),
            "schedule_j": schedule.get("j", "auto"),
            "schedule_k": schedule.get("k", "auto"),
            "b_shift": schedule.get("b", 0) or 0,
            "stages": tuple(data.get("stages", _DEFAULT_STAGES)),
            "out": data.get("out"),
        }
        for key, value in overrides.items():
            if value is not None:
                merged[key] = value
        return cls(**merged)


def _check_config(data: dict, path: str) -> None:
    """Type-check the config fields; a bad one raises InputFormatError naming it."""

    def require(field: str, ok: bool, want: str, value) -> None:
        if not ok:
            raise InputFormatError(
                f"{path}: config field {field!r} must be {want}, got {value!r}"
            )

    if "precision" in data:
        value = data["precision"]
        require("precision", _is_int(value) and value >= 1, "a positive integer", value)
    if data.get("prime") is not None:
        require("prime", _is_int(data["prime"]), "an integer", data["prime"])
        _check_prime_field(data["prime"], "prime", f"{path}: config ")
    if "stages" in data:
        value = data["stages"]
        ok = isinstance(value, list) and all(isinstance(stage, str) for stage in value)
        require("stages", ok, "a list of stage names", value)
    if data.get("out") is not None:
        require("out", isinstance(data["out"], str), "a path string", data["out"])
    schedule = data.get("schedule", {})
    require("schedule", isinstance(schedule, dict), "an object", schedule)
    for key in ("j", "k"):
        if key in schedule:
            value = schedule[key]
            ok = value == "auto" or (isinstance(value, list) and all(map(_is_int, value)))
            require(f"schedule.{key}", ok, "'auto' or a list of integers", value)
    if schedule.get("b") is not None:
        require("schedule.b", _is_int(schedule["b"]), "an integer", schedule["b"])


def _check_prime_field(value, field: str, where: str = "", kind: str = "field") -> None:
    """Raise InputFormatError naming the field (or option) unless value is a prime integer."""
    try:
        ok = _is_int(value) and is_prime(value)
    except PrimalityUnknownError as exc:
        raise InputFormatError(f"{where}{kind} {field!r}: {exc}") from exc
    if not ok:
        raise InputFormatError(
            f"{where}{kind} {field!r} must be a prime integer, got {_echo(value)}"
        )


class RunReport(Record):
    __slots__ = ("stages", "failed")

    def __init__(self, stages: dict | None = None, failed: bool = False) -> None:
        self.stages = {} if stages is None else stages
        self.failed = failed

    def add(self, stage: str, status: str, seconds: float, **witnesses) -> None:
        self.stages[stage] = {"status": status, "seconds": round(seconds, 6), **witnesses}
        if status == "failed":
            self.failed = True

    def to_json(self) -> dict:
        return {"failed": self.failed, "stages": self.stages}


def _load_json(path: str | os.PathLike, parse_float=None):
    """The JSON value in the file at path, read as UTF-8 (RFC 8259) whatever the locale.

    The bytes are decoded once, with no newline translation, and freed
    before the text is parsed; ``json.loads`` on bytes would also take
    UTF-16 and UTF-32.
    """
    try:
        with open(path, "rb") as fh:
            text = str(fh.read(), "utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return _decode(text, parse_float)
    except (ValueError, RecursionError) as exc:
        from json import JSONDecodeError

        if isinstance(exc, JSONDecodeError):
            raise ParseError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        # an integer literal over the int-string digit limit, or arrays
        # and objects nested deeper than the interpreter's recursion limit
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


#: What ``json.loads`` skips around the value, and the values of its constants.
_WHITESPACE = " \t\n\r"
_CONSTANTS = {"-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan")}


def _decode(text: str, parse_float=None):
    """``json.loads(text, parse_float=parse_float)``, through json's C scanner alone.

    The scanner is given the context ``json.JSONDecoder`` gives it, and
    the steps around it are ``json.loads``' own: a byte order mark is
    refused, whitespace is skipped before and after the value, and
    nothing else may follow it.  Importing json's Python layer compiles
    its regular expressions, so it is imported only to raise a
    ``JSONDecodeError`` (the scanner imports it for its own errors), or
    whole where the C scanner is missing.
    """
    if _json is None:
        import json

        return json.loads(text, parse_float=parse_float)
    if text.startswith("\ufeff"):
        _decode_error("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    scan = _json.make_scanner(
        SimpleNamespace(
            strict=True,
            object_hook=None,
            object_pairs_hook=None,
            parse_float=parse_float or float,
            parse_int=int,
            parse_constant=_CONSTANTS.__getitem__,
            memo={},
        )
    )
    try:
        # lstrip returns text itself when there is nothing to strip
        obj, end = scan(text, len(text) - len(text.lstrip(_WHITESPACE)))
    except StopIteration as exc:
        _decode_error("Expecting value", text, exc.value)
    rest = text[end:]
    if rest.strip(_WHITESPACE):
        _decode_error("Extra data", text, end + len(rest) - len(rest.lstrip(_WHITESPACE)))
    return obj


def _decode_error(message: str, text: str, pos: int):
    from json import JSONDecodeError

    raise JSONDecodeError(message, text, pos) from None


def _dump_json(path: str | os.PathLike, obj) -> None:
    """Write obj as ``json.dump(obj, fh, sort_keys=True, indent=2)`` does, then a newline.

    The bytes are the same; the speed is not.  ``json.dump`` with an
    indent always runs json's pure-Python encoder, while the C encoder
    serves one-shot dumps without one.  Most of a bundle sits in leaf
    containers (lists and objects of scalars: matrix rows, blocks,
    simplexes, vertex maps), so each leaf is one C-encoder call and only
    the containers above the leaves are walked in Python, item by item;
    a list of lists of ints and None is written from a table of their
    texts, one per depth, which strings stay out of.  Pieces are written
    as they are made: the whole text would set the peak memory.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh.write, obj, 0)
        fh.write("\n")


def _print_json(obj) -> None:
    """Print obj as ``print(json.dumps(obj, sort_keys=True, indent=2))`` does."""
    _write_json(sys.stdout.write, obj, 0)
    sys.stdout.write("\n")


_SCALAR_TYPES = frozenset({int, str, bool, type(None)})
# scalars equal as dict keys only when their texts are (True == 1 == 1.0), and
# few distinct in a bundle, where strings may be a matrix's n^2 decimals
_TABLE_TYPES = frozenset({int, type(None)})
_LIST_TYPES = frozenset({list, tuple})


@functools.cache
def _leaf_encoder(depth: int):
    """Compact encoding of a leaf at depth whose item separator breaks the line and indents.

    ``JSONEncoder.encode`` builds a new C encoder on every call; the one
    built here serves every leaf at this depth.  A leaf holds no
    container, so it needs no check for cycles; an item json cannot
    write raises json's TypeError.  Without the C encoder the pure-Python
    ``JSONEncoder.encode`` writes the same text.
    """
    separator = ",\n" + "  " * (depth + 1)
    if _json is None:
        import json

        return json.JSONEncoder(sort_keys=True, separators=(separator, ": ")).encode
    ascii_text = _json.encode_basestring_ascii
    encode = _json.make_encoder(
        None, _unserializable, ascii_text, None, ": ", separator, True, False, True
    )
    return lambda leaf: "".join(encode(leaf, 0))


@functools.cache
def _leaf_texts(depth: int) -> _Texts:
    """The texts of ints and None at depth, each encoded once and kept for the process."""
    return _Texts(_leaf_encoder(depth))


class _Texts(dict):
    """Scalars' texts, each written by encode the first time it is asked for."""

    __slots__ = ("encode",)

    def __init__(self, encode) -> None:
        self.encode = encode

    def __missing__(self, scalar) -> str:
        text = self[scalar] = self.encode([scalar])[1:-1]
        return text


def _unserializable(obj):
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _leaf_text(obj, depth: int) -> str | None:
    """The text of a scalar or a leaf container (a list or object of scalars) at depth, or None."""
    if type(obj) in _SCALAR_TYPES:
        # a scalar beside containers: the one-item list of it, less its brackets
        return _leaf_encoder(depth)([obj])[1:-1]
    if isinstance(obj, dict):
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    else:
        return None
    if not obj:
        return brackets
    if not _SCALAR_TYPES.issuperset(map(type, values)):
        return None
    # the encoder puts every item after the first on its own line;
    # the first item and the closing bracket get theirs here
    outer = "\n" + "  " * depth
    text = _leaf_encoder(depth)(obj)
    return f"{brackets[0]}{outer}  {text[1:-1]}{outer}{brackets[1]}"


def _write_json(write, obj, depth: int) -> None:
    """Write obj nested depth levels deep, in pieces: its items are indented depth + 1 levels.

    Scalars and leaf containers are written whole where they stand, so
    only containers of containers recurse.  A non-empty list of non-empty
    lists of ints and None takes its scalars' texts from the depth's
    ``_leaf_texts`` table, and a ``spaces._Table`` (the echo) is made
    row by row from its tree, its ``value`` mapped once per distinct
    height; both are written by ``_write_text_rows``.  Any other list, a
    list of objects too, is written item by item.  A subclass of
    ``_Table`` (a closure of ``Fraction`` rows) is no JSON type.
    """
    text = _leaf_text(obj, depth)
    if text is not None:
        write(text)
        return
    if isinstance(obj, dict):
        brackets = "{}"
        entries = [(f"{_json_key(key)}: ", value) for key, value in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        lists = _LIST_TYPES.issuperset(map(type, obj)) and all(obj)
        if lists and _TABLE_TYPES.issuperset(map(type, chain.from_iterable(obj))):
            text_of = _leaf_texts(depth + 1).__getitem__
            _write_text_rows(write, (map(text_of, row) for row in obj), depth)
            return
        brackets = "[]"
        entries = [("", value) for value in obj]
    elif type(obj) is _Table:
        # a row's values are mapped once per distinct height, so "INF" stays out of the table
        rows = obj.tree._each_row(lambda e: _leaf_text(obj.value(e), depth + 1), range(len(obj)))
        _write_text_rows(write, rows, depth)
        return
    else:  # a float, or a subclass of a scalar or of no JSON type
        write(_leaf_encoder(depth)([obj])[1:-1])
        return
    outer = "\n" + "  " * depth
    inner = outer + "  "
    separator = brackets[0] + inner
    for prefix, value in entries:
        text = _leaf_text(value, depth + 1)
        if text is None:
            write(separator + prefix)
            _write_json(write, value, depth + 1)
        else:
            write(separator + prefix + text)
        separator = "," + inner
    write(outer + brackets[1])


def _write_text_rows(write, rows, depth: int) -> None:
    """Write a list, depth deep, of non-empty lists given as their items' texts.

    Each list is one ``str.join`` of its items' texts, and one piece.
    """
    inner = "\n" + "  " * (depth + 1)
    joiner = "," + inner + "  "
    opening = "[" + joiner[1:]  # a list's bracket, and its first leaf's line
    separator = "[" + inner
    for texts in rows:
        write(f"{separator}{opening}{joiner.join(texts)}{inner}]")
        separator = "," + inner
    write(inner[:-2] + "]")


def _json_key(key) -> str:
    """An object key as json writes it: a string, or the JSON text of a non-string key."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = _leaf_encoder(0)([key])[1:-1]
    if _json is None:
        from json.encoder import encode_basestring_ascii

        return encode_basestring_ascii(key)
    return _json.encode_basestring_ascii(key)


# plain rules of _BUNDLE_FIELDS, which ignore the walk's place in the bundle
def _is_int(value, _at=None) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list(value, _at=None) -> bool:
    return isinstance(value, list)


def _is_dict(value, _at=None) -> bool:
    return isinstance(value, dict)


def _is_exponent(value, _at=None) -> bool:
    return value == "INF" or _is_int(value)


def load_input(path: str | os.PathLike) -> tuple[dict, list[list[tuple[int, int]]] | None]:
    """The checked input object and, for matrix input, its exact entries.

    The matrix is parsed here once, each entry into an exact
    (numerator, denominator) pair of ints in lowest terms with a
    positive denominator (``padic._exact_pair``: ints, ``a/b`` and plain
    decimals are split and read with ``int``, every other form as
    ``Fraction`` reads it); every later stage takes the parsed rows.  A
    text met again, as a symmetric matrix writes most values twice, is
    parsed once.  A number with a fraction or an exponent is kept as its
    text, so a matrix entry is read exactly and echoed to space.json as
    written; a boolean entry is refused.  A field of the wrong type or
    shape raises InputFormatError naming the field.
    """
    obj = _load_json(path, parse_float=str)
    if not isinstance(obj, dict):
        raise InputFormatError(f"{path}: input must be a JSON object")
    for key in ("labels", "prime"):
        if key not in obj:
            raise InputFormatError(f"{path}: missing field {key!r}")
    if not isinstance(obj["labels"], list):
        raise InputFormatError(f"{path}: field 'labels' must be a list")
    if not obj["labels"]:
        raise InputFormatError(f"{path}: field 'labels' must name at least one point")
    if len(set(map(str, obj["labels"]))) != len(obj["labels"]):
        raise InputFormatError(f"{path}: field 'labels' must be unique, compared as strings")
    _check_prime_field(obj["prime"], "prime", f"{path}: ")
    if ("matrix" in obj) == ("padic_points" in obj):
        raise InputFormatError(
            f"{path}: exactly one of 'matrix' or 'padic_points' is required"
        )
    n = len(obj["labels"])
    if "padic_points" in obj:
        points = obj["padic_points"]
        if not (
            isinstance(points, list)
            and all(isinstance(stream, list) and all(map(_is_int, stream)) for stream in points)
        ):
            raise InputFormatError(
                f"{path}: field 'padic_points' must be a list of digit lists"
            )
        if len(points) != n:
            raise InputFormatError(f"{path}: field 'padic_points' does not match 'labels'")
        return obj, None
    matrix = obj["matrix"]
    if not isinstance(matrix, list) or len(matrix) != n:
        raise InputFormatError(f"{path}: field 'matrix' does not match 'labels'")
    parsed: dict = {}

    def parse(entry) -> tuple[int, int]:
        pair = parsed[entry] = _exact_pair(entry)
        return pair

    rows = []
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n:
            raise InputFormatError(f"{path}: field 'matrix' row {i} is not a list of {n} entries")
        kinds = set(map(type, row))
        if bool in kinds:
            raise InputFormatError(f"{path}: field 'matrix' row {i} holds a boolean entry")
        try:
            if kinds <= _TEXT_OR_INT:
                rows.append([parsed[entry] if entry in parsed else parse(entry) for entry in row])
            else:  # an entry that is no key, or not rational: Fraction's error
                rows.append([_exact_pair(entry) for entry in row])
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputFormatError(
                f"{path}: field 'matrix' row {i} holds an entry that is not rational: {exc}"
            ) from exc
    return obj, rows


_TEXT_OR_INT = frozenset({str, int})


def _parse_streams(obj: dict, prime: int, precision: int, path) -> list[PAdic]:
    """The input's digit streams as p-adic points; a bad one raises InputFormatError naming it."""
    points = []
    for i, stream in enumerate(obj["padic_points"]):
        if fault := _stream_fault(stream, prime):  # the digits past the budget too
            where = f"{path}: field 'padic_points' stream {i}"
            raise InputFormatError(f"{where}: bad digit stream for prime {prime}: {fault}")
        # the digit budget truncates long streams, so streams that agree on
        # their first `precision` digits read as distance 0, and round merges them
        points.append(PAdic.from_digit_stream(stream[:precision], prime))
    return points


def _validate_matrix(
    labels: list[str], rows: Sequence[list], report: RunReport, rounding: bool, t0: float
) -> bool:
    """The validate stage on matrix input, begun at t0; violations fail it unless rounding follows.

    rows may be the keys of ``spaces._exact_rows``, so a matrix is keyed once.
    """
    violations = validate_ultrametric(labels, rows)
    if violations and not rounding:
        _fail_validate(labels, violations, report, t0)
        return False
    report.add("validate", "passed", time.perf_counter() - t0, violations=len(violations))
    return True


def _fail_validate(labels: list[str], violations: Violations, report: RunReport, t0) -> None:
    """Record a failed validate stage that names the first violating triple."""
    i, j, k = violations[0]
    report.add(
        "validate",
        "failed",
        time.perf_counter() - t0,
        violating_triple=[labels[i], labels[j], labels[k]],
        violation_count=len(violations),
    )


def _space_from_input(
    obj: dict,
    rows: list[list[tuple[int, int]]] | None,
    config: PipelineConfig,
    report: RunReport,
    path: str | os.PathLike,
) -> UltraSpace | None:
    """Run the validate/round stages; None means validation failed.

    Without rounding, the proof that builds the space is the validate
    stage, on digit streams and on a matrix alike; without that stage a
    failed proof raises NotUltrametricError.
    """
    prime = config.prime or obj["prime"]
    labels = [str(s) for s in obj["labels"]]
    do_validate = "validate" in config.stages
    do_round = "round" in config.stages

    if rows is not None and do_round:
        # the rows are keyed once, for validate and the closure; a violation
        # passes validate here: it is what the closure mends
        t0 = time.perf_counter()
        keys = _exact_rows(rows)
        if do_validate:
            _validate_matrix(labels, keys, report, rounding=True, t0=t0)
            t0 = time.perf_counter()
        space = round_space(labels, subdominant_closure(keys), prime)
    else:
        t0 = time.perf_counter()
        try:
            if rows is None:
                streams = _parse_streams(obj, prime, config.precision, path)
                space = space_from_points(streams, labels)
            else:
                space = round_space(labels, rows, prime)
        except NotUltrametricError as exc:
            if not do_validate:
                raise
            _fail_validate(labels, exc.violations, report, t0)
            return None
        if rows is not None:
            _check_value_group(obj["matrix"], rows, space)
        if do_validate:
            report.add("validate", "passed", time.perf_counter() - t0, violations=0)
        t0 = time.perf_counter()
    if do_round:
        space, merges = quotient_zero(space)
        report.add("round", "passed", time.perf_counter() - t0, merged=sorted(merges.items()))
    return space


def _check_value_group(matrix: list, rows: list[list[tuple[int, int]]], space: UltraSpace) -> None:
    """Raise InputFormatError naming the first entry, in scan order, that is no power of p.

    An entry is one exactly when its lowest-terms pair is that of the
    power it was rounded to.  Equal entries share one pair and one
    exponent, and every entry equals one between neighbours of the
    tree's order, so those n - 1 decide.
    """
    p, tree = space.prime, space.tree
    powers = {e: (1, p**e) if e >= 0 else (p**-e, 1) for e in space.finite_exponents()}
    powers[None] = (0, 1)
    neighbours = zip(tree.order, tree.order[1:], tree.heights)
    bad = {rows[x][y] for x, y, h in neighbours if rows[x][y] != powers[h]}
    if bad:
        entry = next(e for raw, row in zip(matrix, rows) for e, v in zip(raw, row) if v in bad)
        raise InputFormatError(f"entry {entry!r} is not a power of {p}; request the 'round' stage")


def _schedule_from_config(space: UltraSpace, config: PipelineConfig) -> Schedule:
    from .spectrum import Schedule, ScheduleError

    if config.schedule_j == "auto" and config.schedule_k == "auto":
        return Schedule.auto(space, b_shift=config.b_shift)
    if config.schedule_j == "auto" or config.schedule_k == "auto":
        raise ScheduleError("j and k must both be lists or both 'auto'")
    js = tuple(int(x) for x in config.schedule_j)
    ks = tuple(int(x) for x in config.schedule_k)
    bs = tuple(GammaValue(j + config.b_shift) for j in js)
    return Schedule(j=js, k=ks, b=bs)


def _verify_expansion(expansion, report: RunReport) -> dict:
    """Run every check, in bundle order; returns the deterministic bundle summary.

    Each check returns its entry as the bundle stores it.  The verify
    stage fails when a check does, and ``first_failure`` names the first
    check that failed.  A thread that breaks between levels does not
    reconstruct its point.  The stage's ``checks`` holds each check's
    seconds; like the stage's own, they stay out of the bundle.
    """
    from .spectrum import (
        IncoherentThreadError,
        limit_isometry_check,
        verify_nondegenerate,
        verify_nonstretching,
    )

    def reconstructs(x: int, thread: tuple[int, ...]) -> bool:
        try:
            return expansion.reconstruct(thread) == {x}
        except IncoherentThreadError:
            return False

    def functorial() -> bool:
        try:
            return not expansion.verify_functoriality()
        except KeyError:  # a chain of maps leaves a map's domain
            return False

    seconds: dict[str, float] = {}

    def timed(name: str, check):
        start = time.perf_counter()
        result = check()
        seconds[name] = round(time.perf_counter() - start, 6)
        return result

    t0 = time.perf_counter()
    space, levels, bonding = expansion.space, expansion.levels, expansion.bonding
    pairs = list(zip(bonding, levels[1:], levels))
    nonstretch = timed(
        "nonstretching", lambda: [verify_nonstretching(*pair) for pair in pairs]
    )
    degenerate = timed(
        "nondegenerate", lambda: [verify_nondegenerate(bmap, fine) for bmap, fine, _ in pairs]
    )
    functorial = timed("functoriality", functorial)
    uniform = timed(
        "uniformity",
        lambda: [
            {"level": level.m, **check_uniform(space, level.realization)} for level in levels
        ],
    )
    iso = timed(
        "isolation",
        lambda: isolated_point_check(space, [(level.cover, level.nerve) for level in levels]),
    )
    reconstructed = timed(
        "reconstruct",
        lambda: all(map(reconstructs, range(space.n_points), expansion._threads)),
    )
    isometry = timed("limit_isometry", lambda: limit_isometry_check(space, expansion))
    passed = {
        "nonstretching": not any(entry["violations"] for entry in nonstretch),
        "functoriality_ok": functorial,
        "uniformity": all(entry["is_uniform"] for entry in uniform),
        "isolation_ok": not iso["violations"],
        "reconstruct_identity": reconstructed,
        "limit_isometry_ok": not isometry["mismatches"],
    }
    witness = {
        "sup_diam": [entry["sup_diam"] for entry in uniform],
        "inf_dist": [entry["inf_dist"] for entry in uniform],
        "nonstretch_violations": sum(len(entry["violations"]) for entry in nonstretch),
        "isometry_mismatches": len(isometry["mismatches"]),
        "isolation_violations": len(iso["violations"]),
    }
    failed = [check for check, ok in passed.items() if not ok]
    if failed:
        witness["first_failure"] = failed[0]
    report.add(
        "verify",
        "failed" if failed else "passed",
        time.perf_counter() - t0,
        **witness,
        checks=seconds,
    )
    return {
        "nonstretching": nonstretch,
        "nondegenerate": degenerate,
        "functoriality_ok": functorial,
        "uniformity": uniform,
        "isolation_ok": passed["isolation_ok"],
        "isolation_violations": iso["violations"],
        "reconstruct_identity": reconstructed,
        "limit_isometry_ok": passed["limit_isometry_ok"],
        "limit_isometry_mismatches": isometry["mismatches"],
        "limit_isometry_bound": isometry["bound"],
    }


def _space_echo(space: UltraSpace, streams: list[list[int]] | None) -> dict:
    """The space as both outputs echo it: its ``gamma_matrix`` is a ``_Table`` of the tree.

    The table equals ``UltraSpace.to_json()``'s list of exponent lists
    ("INF": distance 0) but holds no row; the writer makes each row as
    it writes it, so no n x n table is kept.
    """
    echo = {
        "labels": list(space.labels),
        "prime": space.prime,
        "gamma_matrix": _Table(space.tree, _exponent_json),
    }
    if streams is not None:
        echo["padic_points"] = streams
    return echo


def run(config: PipelineConfig, input_path: str | os.PathLike) -> tuple[RunReport, dict, int]:
    """Execute the configured stages; returns (report, outputs, exit code)."""
    report = RunReport()
    outputs: dict[str, dict] = {}
    obj, rows = load_input(input_path)
    space = _space_from_input(obj, rows, config, report, input_path)
    if space is None:
        return report, outputs, EXIT_VERIFY

    # the bundle's space is space.json less the input as written: both hold
    # one view of the exponent table, and the bundle keeps the digit streams
    # of the space's own points, one per label (round drops merged points)
    if "padic_points" in obj:
        of_label = dict(zip(map(str, obj["labels"]), obj["padic_points"]))
        bundle_space = _space_echo(space, [of_label[label] for label in space.labels])
        space_json = dict(bundle_space, padic_points=obj["padic_points"])
    else:
        bundle_space = _space_echo(space, None)
        space_json = dict(bundle_space, matrix=[[str(e) for e in row] for row in obj["matrix"]])
    outputs["space.json"] = space_json

    if "expand" not in config.stages:
        return report, outputs, EXIT_OK if not report.failed else EXIT_VERIFY

    from .spectrum import assemble_expansion

    t0 = time.perf_counter()
    schedule = _schedule_from_config(space, config)
    expansion = assemble_expansion(space, schedule)
    report.add(
        "expand",
        "passed",
        time.perf_counter() - t0,
        levels=[len(level.cover.blocks) for level in expansion.levels],
    )

    summaries: dict = {}
    if "verify" in config.stages:
        summaries = _verify_expansion(expansion, report)

    bundle = expansion.to_bundle(summaries, space=bundle_space)
    outputs["expansion.json"] = bundle

    if "shadow" in config.stages:
        from .shadow import shadow_bundle

        t0 = time.perf_counter()
        outputs["shadow.json"] = shadow = shadow_bundle(bundle)
        status = "passed" if shadow["reports"]["dim_preserved"] else "failed"
        report.add("shadow", status, time.perf_counter() - t0)

    return report, outputs, EXIT_VERIFY if report.failed else EXIT_OK


def export_dot(bundle: dict, out_dir: str | os.PathLike) -> list[str]:
    """One DOT file per level; node names follow the space labels.

    Returns the files' paths, spelt as ``_join`` spells them.
    """
    labels = bundle["space"]["labels"]
    paths = []
    for level_obj in bundle["levels"]:
        nerve = NerveComplex.from_json(level_obj)
        path = _join(out_dir, f"level_{nerve.level}.dot")
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(nerve_to_dot(nerve, labels=labels))
        paths.append(path)
    return paths


def _join(directory: str | os.PathLike, name: str) -> str:
    """directory/name with no empty or "." parts, as ``pathlib`` spells it on POSIX.

    ``os.path.join(".", name)`` would spell it "./name".  A leading
    "//" is kept and three or more slashes read as one, as POSIX allows;
    ".." parts stay, since one after a symbolic link names another file.
    """
    directory = os.fspath(directory)
    parts = [part for part in directory.split(os.sep) if part not in ("", ".")]
    slashes = len(directory) - len(directory.lstrip(os.sep))
    root = os.sep * (2 if slashes == 2 else min(slashes, 1))
    return root + os.sep.join([*parts, name])


def _write_outputs(outputs: dict, out_dir: str) -> None:
    for name, obj in outputs.items():
        _dump_json(os.path.join(out_dir, name), obj)


def _cmd_validate(args) -> int:
    """The validate stage alone, as ``expand`` runs it; writes nothing."""
    obj, rows = load_input(args.input)
    report = RunReport()
    if rows is None:  # the proof that builds the streams' space
        _space_from_input(obj, rows, PipelineConfig(stages=("validate",)), report, args.input)
    else:  # a matrix is checked as written, so its entries need not be powers of p
        labels = [str(s) for s in obj["labels"]]
        _validate_matrix(labels, rows, report, rounding=False, t0=time.perf_counter())
    _print_json(report.to_json())
    return EXIT_VERIFY if report.failed else EXIT_OK


def _cmd_expand(args) -> int:
    overrides = {
        "prime": args.prime,
        "precision": args.precision,
        "out": args.out,
    }
    if args.stages is not None:  # "" names one empty stage, which is refused
        overrides["stages"] = tuple(args.stages.split(","))
    if args.prime is not None:
        _check_prime_field(args.prime, "--prime", kind="option")
    from .spectrum import ScheduleError, SeparationError

    config = PipelineConfig.load(args.config, overrides)
    try:
        report, outputs, code = run(config, args.input)
    except (ScheduleError, SeparationError, ThresholdError) as exc:
        print(f"schedule rejected: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _write_outputs(outputs, config.out or ".")
    _print_json(report.to_json())
    return code


# who checks a bundle field: both commands, shadow, shadow when the space holds
# digit streams, or no command (the field is written and read by none)
_BOTH, _SHADOW, _P_ADIC, _NONE = "export dot, shadow", "shadow", "shadow, p-adic", "none"
_CHECKS = {"export dot": (_BOTH,), "shadow": (_BOTH, _SHADOW, _P_ADIC)}


class _Place(SimpleNamespace):
    """The walk's place in a bundle (item index i, item) and the names rules and wants read."""

    levels = property(lambda at: at.bundle["levels"])
    count = property(lambda at: len(at.levels))
    maps = property(lambda at: len(at.levels) - 1)
    next = property(lambda at: at.i + 1)
    fine = property(lambda at: at.levels[at.i + 1])  # the levels bonding[i] joins
    coarse = property(lambda at: at.levels[at.i])
    top = property(lambda at: at.bundle["space"]["prime"] - 1)  # the largest digit

    def __getitem__(self, name: str):  # a want names them in braces
        return getattr(self, name)


def _points(value, at) -> bool:
    n = len(at.bundle["space"]["labels"])
    return type(value) is list and all(type(v) is int and 0 <= v < n for v in value)


def _partition(value, at) -> bool:
    return (
        type(value) is list
        and value != []
        and all(type(s) is list and s != [] for s in value)
        and _points(points := list(chain.from_iterable(value)), at)
        and sorted(points) == sorted(set(at.item["vertices"]))
    )


def _simplicial(value, at) -> bool:  # the rule of nerve._parents
    simplex_of = {v: s for s, simplex in enumerate(at.coarse["maximal_simplexes"]) for v in simplex}
    return None not in _parents(at.fine["maximal_simplexes"], lambda v: value[str(v)], simplex_of)


def _streams(value, at) -> bool:  # the rule of padic._stream_fault, under the space's prime
    labels, prime = at.bundle["space"]["labels"], at.bundle["space"]["prime"]
    return (
        _is_list(value)
        and len(value) == len(labels)
        and all(_is_list(s) and all(map(_is_int, s)) and not _stream_fault(s, prime) for s in value)
    )


def _scaled_bound(value, at) -> bool:  # Schedule's rule: a level's threshold is b scaled by k
    schedule = at.bundle["schedule"]
    return value == GammaValue.from_json(schedule["b"][at.i]).scaled(schedule["k"][at.i]).to_json()


def _ordered_schedule(value, at) -> bool:  # Schedule's order rules, padic._schedule_fault
    at.fault = _schedule_fault(value["j"], value["k"], [*map(GammaValue.from_json, value["b"])])
    return at.fault is None


def _per_level(entry):
    """The rule of a list of one entry per level, each of which entry accepts."""
    return lambda value, at: _is_list(value) and len(value) == at.count and all(map(entry, value))


#: The expansion bundle, one row per check in the order the checks run: the
#: field's path ("[]" is each item of a list), the commands that check it,
#: its rule, a predicate of the value and the walk's place, and what a
#: refusal says the field must be.  A list's "[]" row checks every item
#: before the rows of the items' fields run, item by item.  schedule's lists,
#: then their ties to the levels' scales and thresholds, then Schedule's order
#: rules, come last, so a bundle refused before they were checked keeps its
#: message.
_BUNDLE_FIELDS = (
    ("space", _BOTH, _is_dict, "an object"),
    ("space.labels", _BOTH, _is_list, "a list"),
    ("space.gamma_matrix", _NONE, None, None),
    ("levels", _BOTH, lambda v, at: _is_list(v) and v != [], "a non-empty list"),
    ("levels[]", _BOTH, _is_dict, "an object"),
    ("levels[].level", _BOTH, _is_int, "an integer"),
    ("levels[].scale", _BOTH, _is_int, "an integer"),
    ("levels[].dimL", _BOTH, _is_int, "an integer"),
    ("levels[].level", _BOTH, lambda v, at: at.numbers.setdefault(v, at.i) == at.i,
     "a level number no other level has"),  # two DOT files would share one name
    ("levels[].threshold", _BOTH, _is_exponent, 'an integer or "INF"'),
    ("levels[].vertices", _BOTH, _points, "a list of point indices"),
    ("levels[].vertices", _BOTH, lambda v, at: len(set(v)) == len(v),
     "a list of distinct point indices"),
    ("levels[].maximal_simplexes", _BOTH, _partition,
     "a partition of the level's vertices into non-empty lists"),
    ("levels[].blocks", _NONE, None, None),
    ("bonding", _SHADOW, lambda v, at: _is_list(v) and len(v) == at.maps,
     "a list of {maps} maps, one per level after the first"),
    ("bonding[]", _SHADOW, _is_dict, "an object"),
    ("bonding[].from", _SHADOW, lambda v, at: _is_int(v) and v == at.fine["level"],
     "{fine[level]}, the level number of 'levels[{next}]'"),
    ("bonding[].to", _SHADOW, lambda v, at: _is_int(v) and v == at.coarse["level"],
     "{coarse[level]}, the level number of 'levels[{i}]'"),
    ("bonding[].vertex_map", _SHADOW, lambda v, at: _is_dict(v) and _points([*v.values()], at),
     "an object of point indices"),
    ("bonding[].vertex_map", _SHADOW, lambda v, at: v.keys() == set(map(str, at.fine["vertices"])),
     "keyed by the vertices of level {fine[level]}"),
    ("bonding[].vertex_map", _SHADOW, lambda v, at: set(v.values()) <= set(at.coarse["vertices"]),
     "valued in vertices of level {coarse[level]}"),
    ("bonding[].vertex_map", _SHADOW, _simplicial,
     "simplicial: each maximal simplex of level {fine[level]} into one of level {coarse[level]}"),
    ("schedule", _SHADOW, _is_dict, "an object"),
    ("space.prime", _P_ADIC, _is_int, "an integer"),
    ("space.prime", _P_ADIC, lambda v, at: _check_prime_field(v, "space.prime", at.where) is None,
     "a prime integer"),  # _check_prime_field raises its own refusal
    ("space.padic_points", _P_ADIC, _streams,
     "a list of non-empty lists of digits in [0, {top}], one per label"),
    ("schedule.j", _SHADOW, _per_level(_is_int), "a list of {count} integers, one per level"),
    ("schedule.k", _SHADOW, _per_level(_is_int), "a list of {count} integers, one per level"),
    ("schedule.b", _SHADOW, _per_level(_is_exponent),
     'a list of {count} integers or "INF", one per level'),
    ("schedule.j", _SHADOW, lambda v, at: v == [level["scale"] for level in at.levels],
     "the list of the levels' scales"),
    ("levels[].threshold", _SHADOW, _scaled_bound,
     'schedule.b[{i}] - schedule.k[{i}], or "INF" where schedule.b[{i}] is "INF"'),
    ("schedule", _SHADOW, _ordered_schedule, "a schedule whose order rules hold: {fault}"),
    ("reports", _NONE, None, None),
)


def _run_of(row) -> tuple[str, bool]:
    """The list whose items a row checks ("" for none), and whether it checks them whole."""
    items, brackets, rest = row[0].partition("[]")
    return (items, not rest) if brackets else ("", False)


def _load_bundle(path: str | os.PathLike, shadow: bool) -> dict:
    """The expansion bundle at path, checked by its command's rows of ``_BUNDLE_FIELDS``: a
    missing field, or one its rule refuses, raises InputFormatError naming its path."""
    bundle = _load_json(path)
    if not isinstance(bundle, dict):
        raise InputFormatError(f"{path}: a bundle must hold a JSON object")
    checks = _CHECKS["shadow" if shadow else "export dot"]
    rows = [row for row in _BUNDLE_FIELDS if row[1] in checks]
    # numbers: the index of the first level with each level number
    at = _Place(where=f"{path}: bundle ", bundle=bundle, numbers={})
    for (items, whole), run in groupby(rows, _run_of):
        run = list(run)
        for at.i, at.item in enumerate(bundle[items]) if items else [(0, bundle)]:
            for field, checked_by, rule, want in run:
                if checked_by == _P_ADIC and "padic_points" not in bundle["space"]:
                    continue
                name, value = field.replace("[]", f"[{at.i}]"), at.item
                if not whole:  # the field's keys below the item
                    *keys, last = field.rpartition("[].")[2].split(".")
                    for key in keys:
                        value = value[key]
                    if last not in value:
                        raise InputFormatError(f"{path}: missing bundle field {name!r}")
                    value = value[last]
                if not rule(value, at):
                    want = want.format_map(at)
                    raise InputFormatError(f"{at.where}field {name!r} must be {want}")
    return bundle


def _cmd_shadow(args) -> int:
    from .shadow import shadow_bundle

    result = shadow_bundle(_load_bundle(args.bundle, shadow=True))
    out_dir = args.out or "."
    _dump_json(os.path.join(out_dir, "shadow.json"), result)
    if args.csv:
        _write_theta_csv(result, out_dir)
    if not result["reports"]["dim_preserved"]:
        print("error: a level's real dimension differs from its dimL", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _write_theta_csv(shadow: dict, out_dir: str) -> None:
    """theta.csv from the shadow bundle's theta samples, when it has them."""
    if "theta_samples" not in shadow:
        return
    from .shadow import theta_table_csv

    os.makedirs(out_dir, exist_ok=True)
    table = theta_table_csv(shadow["theta_samples"])
    with open(os.path.join(out_dir, "theta.csv"), "w", encoding="utf-8") as fh:
        fh.write(table)


def _cmd_demo_zp(args) -> int:
    from .shadow import shadow_bundle
    from .spectrum import group_expansion

    t0 = time.perf_counter()
    expansion, group_report = group_expansion(args.prime, args.depth)
    report = RunReport()
    passed = all(v for v in group_report.values() if isinstance(v, bool))
    report.add("demo", "passed" if passed else "failed", time.perf_counter() - t0, **group_report)
    summaries = _verify_expansion(expansion, report)
    summaries["group"] = group_report
    labels = expansion.space.labels
    streams = [list(_digits_of(int(label), args.prime, args.depth)) for label in labels]
    bundle = expansion.to_bundle(summaries, space=_space_echo(expansion.space, streams))
    outputs = {"expansion.json": bundle, "shadow.json": shadow_bundle(bundle)}
    out_dir = args.out or "."
    _write_outputs(outputs, out_dir)
    if args.csv:
        _write_theta_csv(outputs["shadow.json"], out_dir)
    _print_json(report.to_json())
    return EXIT_VERIFY if report.failed else EXIT_OK


def _cmd_export_dot(args) -> int:
    paths = export_dot(_load_bundle(args.bundle, shadow=False), args.out or ".")
    for path in paths:
        print(path)
    return EXIT_OK


#: The argument grammar, one row per command path: its handler, its help,
#: its positional (None for none) and its options.  An option maps to its
#: kind (str or int for an option that takes a value, bool for a flag),
#: whether it is required, and its help.
_COMMANDS = {
    "validate": (_cmd_validate, "check an input file for the ultrametric inequality", "input", {}),
    "expand": (
        _cmd_expand,
        "build and verify an expansion bundle",
        "input",
        {
            "--config": (str, False, ""),
            "--out": (str, False, ""),
            "--prime": (int, False, ""),
            "--precision": (int, False, ""),
            "--stages": (str, False, "comma-separated stage list"),
        },
    ),
    "shadow": (
        _cmd_shadow,
        "shadow an expansion bundle over the reals",
        "bundle",
        {"--out": (str, False, ""), "--csv": (bool, False, "emit a theta table for plotting")},
    ),
    "demo zp": (
        _cmd_demo_zp,
        "profinite expansion of Z/p^depth",
        None,
        {
            "--prime": (int, True, ""),
            "--depth": (int, True, ""),
            "--out": (str, False, ""),
            "--csv": (bool, False, "emit a theta table for plotting"),
        },
    ),
    "export dot": (_cmd_export_dot, "DOT graph per level", "bundle", {"--out": (str, False, "")}),
}
#: The help of the program ("") and of each command with subcommands.
_GROUPS = {
    "": "non-Archimedean polyhedral expansions of finite ultrametric spaces",
    "demo": "built-in demonstrations",
    "export": "export bundle artifacts",
}


def _parse_args(argv: list[str]) -> tuple[str, dict]:
    """The command path that argv names, and the value of each of its fields.

    The grammar is ``_COMMANDS``.  argv of exact tokens is read here
    without loading argparse: the command's words, each its own token,
    then its positional once and its options by their exact names, each
    value after its option (no ``-`` first, and an integer where the
    option takes one) and every required option given; the last repeat
    wins.  Any other argv (help, prefixes, ``=`` forms, ``--``, values
    that begin with ``-``, and usage errors) is read by ``_argparse``,
    which reads exact tokens as this reader does.
    """
    words = 2 if argv[:1] and argv[0] in _GROUPS else 1
    path = " ".join(argv[:words])
    if path not in _COMMANDS or path.split() != argv[:words]:
        return _argparse(argv)
    _, _, want, spec = _COMMANDS[path]  # want: the positional, while it is unread
    fields = {name[2:]: False if kind is bool else None for name, (kind, _, _) in spec.items()}
    tokens = iter(argv[words:])
    for token in tokens:
        kind = spec[token][0] if token in spec else None
        if kind is bool:
            fields[token[2:]] = True
        elif kind is not None:
            value = next(tokens, "-")
            if value.startswith("-"):
                return _argparse(argv)
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return _argparse(argv)
            fields[token[2:]] = value
        elif want and not token.startswith("-"):
            fields[want], want = token, None
        else:
            return _argparse(argv)
    required = [name[2:] for name, (_, needed, _) in spec.items() if needed]
    if want or None in map(fields.get, required):
        return _argparse(argv)
    return path, fields


def _argparse(argv: list[str]) -> tuple[str, dict]:
    """argv read by argparse built from ``_COMMANDS`` and ``_GROUPS``, as ``_parse_args`` reads it.

    Help prints to stdout and raises SystemExit(0); a usage error prints
    the usage and the error to stderr and raises SystemExit(2).  Usage
    stays on one line at any terminal width.
    """
    import argparse

    def formatter(prog: str):
        return argparse.HelpFormatter(prog, width=sys.maxsize)

    def add(subparsers, name: str, about: str):
        return subparsers.add_parser(
            name, help=about, description=about, formatter_class=formatter
        )

    parser = argparse.ArgumentParser(
        prog="ultrapoly", description=_GROUPS[""], formatter_class=formatter
    )
    # each command group's subparsers; every command's parser sets "command" to its path
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for path, (_, about, positional, spec) in _COMMANDS.items():
        group, _, name = path.rpartition(" ")
        if group not in subparsers:
            commands = add(subparsers[""], group, _GROUPS[group])
            subparsers[group] = commands.add_subparsers(dest="command", required=True)
        command = add(subparsers[group], name, about)
        command.set_defaults(command=path)
        if positional:
            command.add_argument(positional)
        for option, (kind, required, text) in spec.items():
            how = {"action": "store_true"} if kind is bool else {"type": kind}
            command.add_argument(option, required=required, help=text, **how)
    fields = vars(parser.parse_args(argv))
    return fields.pop("command"), fields


def main(argv: Sequence[str] | None = None) -> int:
    path, fields = _parse_args(sys.argv[1:] if argv is None else list(argv))
    # the one exit-code policy: a failed proof with no validate stage to
    # record it is a failed verification; malformed input, config or
    # bundle, and an output that cannot be written, are input errors
    try:
        return _COMMANDS[path][0](SimpleNamespace(**fields))
    except NotUltrametricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console() -> int:
    """Run the command in ``sys.argv`` as the whole process; returns its exit code.

    A command's data holds no reference cycles (``tests/test_process.py``
    checks every command), so reference counting frees it and the cyclic
    collector would only walk it: the collector stays off.  Freezing the
    heap moves every object into the permanent generation, which the
    interpreter's exit-time collection skips; the exit itself stays
    normal, so streams are flushed and atexit handlers run.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console())
