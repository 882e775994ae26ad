"""Pipeline driver: ingest, expand, verify, shadow, export.

Outputs are byte-deterministic for fixed input and config: bundle files
carry no timestamps (timings live only in the run report printed to
stdout), and every dict is serialized with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .nerve import NerveComplex, check_uniform, isolated_point_check, nerve_to_dot
from .padic import GammaValue, PAdic, PrimalityUnknownError, is_prime, round_to_gamma
from .spaces import (
    NotUltrametricError,
    UltraSpace,
    quotient_zero,
    round_space,
    space_from_points,
    subdominant_closure,
    validate_ultrametric,
)
from .shadow import shadow_bundle
from .spectrum import (
    Schedule,
    ScheduleError,
    assemble_expansion,
    group_expansion,
    limit_isometry_check,
    verify_nondegenerate,
    verify_nonstretching,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2

CONFIG_ENV = "ULTRAPOLY_CONFIG"
ALL_STAGES = ("validate", "round", "expand", "verify", "shadow", "demo")


class ParseError(ValueError):
    pass


class InputFormatError(ValueError):
    pass


@dataclass
class PipelineConfig:
    prime: int | None = None  # None: take the input file's prime
    precision: int = 32
    schedule_j: list[int] | str = "auto"
    schedule_k: list[int] | str = "auto"
    b_shift: int = 0
    stages: tuple[str, ...] = ("validate", "round", "expand", "verify")
    out: str | None = None

    def __post_init__(self) -> None:
        for stage in self.stages:
            if stage not in ALL_STAGES:
                raise InputFormatError(f"unknown stage {stage!r}")
        if self.precision < 1:
            raise InputFormatError("precision must be >= 1")
        if self.prime is not None:
            _check_prime_field(self.prime, "prime")

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "PipelineConfig":
        data: dict = {}
        path = path or os.environ.get(CONFIG_ENV)
        if path:
            data = _load_json(Path(path))
            if not isinstance(data, dict):
                raise InputFormatError("config file must hold a JSON object")
            _check_config(data, path)
        schedule = data.get("schedule", {})
        merged = {
            "prime": data.get("prime"),
            "precision": data.get("precision", 32),
            "schedule_j": schedule.get("j", "auto"),
            "schedule_k": schedule.get("k", "auto"),
            "b_shift": schedule.get("b", 0) or 0,
            "stages": tuple(data.get("stages", ("validate", "round", "expand", "verify"))),
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


def _check_prime_field(value, field: str, where: str = "") -> None:
    """Raise InputFormatError naming the field unless value is a prime integer."""
    try:
        ok = _is_int(value) and is_prime(value)
    except PrimalityUnknownError as exc:
        raise InputFormatError(f"{where}field {field!r}: {exc}") from exc
    if not ok:
        raise InputFormatError(f"{where}field {field!r} must be a prime integer, got {value!r}")


@dataclass
class RunReport:
    stages: dict = field(default_factory=dict)
    failed: bool = False

    def add(self, stage: str, status: str, seconds: float, **witnesses) -> None:
        self.stages[stage] = {"status": status, "seconds": round(seconds, 6), **witnesses}
        if status == "failed":
            self.failed = True

    def to_json(self) -> dict:
        return {"failed": self.failed, "stages": self.stages}


def _load_json(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _dump_json(path: Path, obj) -> None:
    # written as it is encoded: the whole indented text would set the peak memory
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list(value) -> bool:
    return isinstance(value, list)


def _is_dict(value) -> bool:
    return isinstance(value, dict)


def _is_exponent(value) -> bool:
    return value == "INF" or _is_int(value)


def load_input(path: Path) -> tuple[dict, list[list[Fraction]] | None]:
    """The checked input object and, for matrix input, its exact entries.

    The matrix is parsed here once; every later stage takes the parsed
    rows.  A field of the wrong type or shape raises InputFormatError
    naming the field.
    """
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputFormatError(f"{path}: input must be a JSON object")
    for key in ("labels", "prime"):
        if key not in obj:
            raise InputFormatError(f"{path}: missing field {key!r}")
    if not isinstance(obj["labels"], list):
        raise InputFormatError(f"{path}: field 'labels' must be a list")
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
    rows = []
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n:
            raise InputFormatError(f"{path}: field 'matrix' row {i} is not a list of {n} entries")
        try:
            rows.append([Fraction(entry) for entry in row])
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputFormatError(
                f"{path}: field 'matrix' row {i} holds an entry that is not rational: {exc}"
            ) from exc
    return obj, rows


def _space_from_input(
    obj: dict, rows: list[list[Fraction]] | None, config: PipelineConfig, report: RunReport
) -> UltraSpace | None:
    """Run the validate/round stages; None means validation failed."""
    prime = config.prime or obj["prime"]
    labels = [str(s) for s in obj["labels"]]
    do_validate = "validate" in config.stages
    do_round = "round" in config.stages

    if rows is None:
        t0 = time.perf_counter()
        try:
            # the digit budget truncates long streams; truncation is exact
            # for every norm computed downstream
            points = [
                PAdic.from_digit_stream(stream[: config.precision], prime)
                for stream in obj["padic_points"]
            ]
        except ValueError as exc:
            raise InputFormatError(f"bad digit stream: {exc}") from exc
        space = space_from_points(points, labels)
        if do_validate:
            report.add("validate", "passed", time.perf_counter() - t0, violations=[])
        if do_round:
            t0 = time.perf_counter()
            space, merges = quotient_zero(space)
            report.add("round", "passed", time.perf_counter() - t0, merged=sorted(merges.items()))
        return space

    if do_validate:
        t0 = time.perf_counter()
        violations = validate_ultrametric(labels, rows)
        if violations and not do_round:
            i, j, k = violations[0]
            report.add(
                "validate",
                "failed",
                time.perf_counter() - t0,
                violating_triple=[labels[i], labels[j], labels[k]],
                violation_count=len(violations),
            )
            return None
        report.add(
            "validate", "passed", time.perf_counter() - t0, violations=len(violations)
        )
    if do_round:
        t0 = time.perf_counter()
        closed = subdominant_closure(rows)
        space = round_space(labels, closed, prime)
        space, merges = quotient_zero(space)
        report.add("round", "passed", time.perf_counter() - t0, merged=sorted(merges.items()))
        return space
    # without rounding the entries must already sit in the value group
    for raw_row, row in zip(obj["matrix"], rows):
        for entry, value in zip(raw_row, row):
            if round_to_gamma(value, prime).as_fraction(prime) != value:
                raise InputFormatError(
                    f"entry {entry!r} is not a power of {prime}; request the 'round' stage"
                )
    return round_space(labels, rows, prime)


def _schedule_from_config(space: UltraSpace, config: PipelineConfig) -> Schedule:
    if config.schedule_j == "auto" and config.schedule_k == "auto":
        return Schedule.auto(space, b_shift=config.b_shift)
    if config.schedule_j == "auto" or config.schedule_k == "auto":
        raise ScheduleError("j and k must both be lists or both 'auto'")
    js = tuple(int(x) for x in config.schedule_j)
    ks = tuple(int(x) for x in config.schedule_k)
    bs = tuple(GammaValue(j + config.b_shift) for j in js)
    return Schedule(j=js, k=ks, b=bs)


def _verify_expansion(expansion, report: RunReport) -> dict:
    """All report-style checks; returns the deterministic bundle summary."""
    t0 = time.perf_counter()
    summaries: dict = {}
    ok = True

    nonstretch = []
    degenerate = []
    for m, bmap in enumerate(expansion.bonding):
        ns = verify_nonstretching(bmap, expansion.levels[m + 1], expansion.levels[m])
        nd = verify_nondegenerate(bmap, expansion.levels[m + 1])
        nonstretch.append(
            {
                "from": bmap.fine,
                "to": bmap.coarse,
                "violations": [list(v) for v in ns.violations],
                "merged_pairs": len(ns.merged),
                "single_step_contraction": ns.single_step_contraction,
            }
        )
        degenerate.append(
            {"from": bmap.fine, "to": bmap.coarse, "collapsed_simplexes": list(nd.collapsed)}
        )
        ok = ok and ns.ok
    summaries["nonstretching"] = nonstretch
    summaries["nondegenerate"] = degenerate

    functor_bad = expansion.verify_functoriality()
    summaries["functoriality_ok"] = not functor_bad
    ok = ok and not functor_bad

    uniform = []
    for level in expansion.levels:
        u = check_uniform(expansion.space, level.realization)
        uniform.append(
            {
                "level": level.m,
                "sup_diam": u.sup_diam.to_json(),
                "inf_dist": None if u.inf_dist is None else u.inf_dist.to_json(),
                "is_uniform": u.is_uniform,
            }
        )
        ok = ok and u.is_uniform
    summaries["uniformity"] = uniform

    iso = isolated_point_check(
        expansion.space, [(lv.cover, lv.nerve) for lv in expansion.levels]
    )
    summaries["isolation_ok"] = iso.ok
    summaries["isolation_violations"] = [list(v) for v in iso.violations]
    ok = ok and iso.ok

    reconstruct_ok = True
    for x in range(expansion.space.n_points):
        if expansion.reconstruct(expansion.thread(x)) != frozenset({x}):
            reconstruct_ok = False
    summaries["reconstruct_identity"] = reconstruct_ok
    ok = ok and reconstruct_ok

    isometry = limit_isometry_check(expansion.space, expansion)
    summaries["limit_isometry_ok"] = isometry.ok
    summaries["limit_isometry_mismatches"] = [list(m) for m in isometry.mismatches]
    summaries["limit_isometry_bound"] = isometry.bound
    ok = ok and isometry.ok

    witness = {
        "sup_diam": [u["sup_diam"] for u in uniform],
        "inf_dist": [u["inf_dist"] for u in uniform],
        "nonstretch_violations": sum(len(m["violations"]) for m in nonstretch),
        "isometry_mismatches": len(summaries["limit_isometry_mismatches"]),
        "isolation_violations": len(summaries["isolation_violations"]),
    }
    if not ok:
        witness["first_failure"] = next(
            key
            for key, value in summaries.items()
            if value is False or (isinstance(value, list) and any(
                isinstance(item, dict) and item.get("violations") for item in value
            ))
        )
    report.add(
        "verify",
        "passed" if ok else "failed",
        time.perf_counter() - t0,
        **witness,
    )
    return summaries


def run(config: PipelineConfig, input_path: Path) -> tuple[RunReport, dict, int]:
    """Execute the configured stages; returns (report, outputs, exit code)."""
    report = RunReport()
    outputs: dict[str, dict] = {}
    obj, rows = load_input(input_path)
    space = _space_from_input(obj, rows, config, report)
    if space is None:
        return report, outputs, EXIT_VERIFY

    space_json = space.to_json()
    if "matrix" in obj:
        space_json["matrix"] = [[str(e) for e in row] for row in obj["matrix"]]
    if "padic_points" in obj:
        space_json["padic_points"] = [list(s) for s in obj["padic_points"]]
    outputs["space.json"] = space_json

    if "expand" not in config.stages:
        return report, outputs, EXIT_OK if not report.failed else EXIT_VERIFY

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

    bundle = expansion.to_bundle(summaries)
    if "padic_points" in obj:
        bundle["space"]["padic_points"] = [list(s) for s in obj["padic_points"]]
    outputs["expansion.json"] = bundle

    if "shadow" in config.stages:
        t0 = time.perf_counter()
        outputs["shadow.json"] = shadow_bundle(bundle)
        report.add("shadow", "passed", time.perf_counter() - t0)

    return report, outputs, EXIT_VERIFY if report.failed else EXIT_OK


def export_dot(bundle: dict, out_dir: Path) -> list[Path]:
    """One DOT file per level; node names follow the space labels."""
    labels = bundle["space"]["labels"]
    paths = []
    for level_obj in bundle["levels"]:
        nerve = NerveComplex.from_json(level_obj)
        path = out_dir / f"level_{nerve.level}.dot"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(nerve_to_dot(nerve, labels=labels))
        paths.append(path)
    return paths


def _write_outputs(outputs: dict, out_dir: Path) -> None:
    for name, obj in outputs.items():
        _dump_json(out_dir / name, obj)


def _cmd_validate(args) -> int:
    config = PipelineConfig(stages=("validate",))
    try:
        report, _, code = run(config, Path(args.input))
    except (ParseError, InputFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    return code


def _cmd_expand(args) -> int:
    overrides = {
        "prime": args.prime,
        "precision": args.precision,
        "out": args.out,
    }
    if args.stages:
        overrides["stages"] = tuple(args.stages.split(","))
    try:
        config = PipelineConfig.load(args.config, overrides)
        report, outputs, code = run(config, Path(args.input))
    except ScheduleError as exc:
        print(f"schedule rejected: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ParseError, InputFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotUltrametricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out_dir = Path(config.out or args.out or ".")
    _write_outputs(outputs, out_dir)
    print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    return code


def _load_bundle(path: Path, shadow: bool) -> dict:
    """The expansion bundle at path, with the fields its command reads checked.

    DOT export reads ``space.labels`` and each ``levels[i]`` (``level``,
    ``scale``, ``threshold``, ``vertices``, ``maximal_simplexes``,
    ``dimL``); shadow also reads ``schedule``, each ``bonding[i]``
    (``from``, ``to``, ``vertex_map``) and, for p-adic bundles,
    ``space.padic_points`` and ``space.prime``.  Vertices are point
    indices into the labels.  A missing or mistyped field raises
    InputFormatError naming its path in the bundle.  One pass over the
    decoded bundle.
    """
    bundle = _load_json(path)
    if not isinstance(bundle, dict):
        raise InputFormatError(f"{path}: a bundle must hold a JSON object")

    def require(obj: dict, key: str, field: str, ok, want: str):
        if key not in obj:
            raise InputFormatError(f"{path}: missing bundle field {field!r}")
        if not ok(obj[key]):
            raise InputFormatError(f"{path}: bundle field {field!r} must be {want}")
        return obj[key]

    def items(key: str) -> list:
        found = require(bundle, key, key, _is_list, "a list")
        for i, item in enumerate(found):
            if not isinstance(item, dict):
                raise InputFormatError(f"{path}: bundle field '{key}[{i}]' must be an object")
        return found

    space = require(bundle, "space", "space", _is_dict, "an object")
    n = len(require(space, "labels", "space.labels", _is_list, "a list"))

    def points(value) -> bool:
        return type(value) is list and all(type(v) is int and 0 <= v < n for v in value)

    def simplexes(value) -> bool:
        return type(value) is list and value != [] and all(s != [] and points(s) for s in value)

    for i, level in enumerate(items("levels")):
        for key in ("level", "scale", "dimL"):
            require(level, key, f"levels[{i}].{key}", _is_int, "an integer")
        require(level, "threshold", f"levels[{i}].threshold", _is_exponent, 'an integer or "INF"')
        require(level, "vertices", f"levels[{i}].vertices", points, "a list of point indices")
        require(
            level,
            "maximal_simplexes",
            f"levels[{i}].maximal_simplexes",
            simplexes,
            "a non-empty list of non-empty lists of point indices",
        )
    if not shadow:
        return bundle
    for i, bmap in enumerate(items("bonding")):
        for key in ("from", "to"):
            require(bmap, key, f"bonding[{i}].{key}", _is_int, "an integer")
        require(
            bmap,
            "vertex_map",
            f"bonding[{i}].vertex_map",
            lambda value: _is_dict(value) and all(map(_is_int, value.values())),
            "an object of integers",
        )
    require(bundle, "schedule", "schedule", _is_dict, "an object")
    if "padic_points" in space:
        require(
            space,
            "padic_points",
            "space.padic_points",
            lambda value: _is_list(value)
            and all(_is_list(s) and all(map(_is_int, s)) for s in value),
            "a list of digit lists",
        )
        prime = require(space, "prime", "space.prime", _is_int, "an integer")
        _check_prime_field(prime, "space.prime", f"{path}: bundle ")
    return bundle


def _cmd_shadow(args) -> int:
    try:
        bundle = _load_bundle(Path(args.bundle), shadow=True)
        result = shadow_bundle(bundle)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out_dir = Path(args.out or ".")
    _dump_json(out_dir / "shadow.json", result)
    if args.csv:
        _write_theta_csv(bundle, out_dir)
    return EXIT_OK


def _write_theta_csv(bundle: dict, out_dir: Path) -> None:
    space = bundle.get("space", {})
    if "padic_points" not in space:
        return
    from .shadow import theta_table_csv

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "theta.csv").write_text(
        theta_table_csv(space["padic_points"], space["prime"])
    )


def _cmd_demo_zp(args) -> int:
    t0 = time.perf_counter()
    try:
        expansion, group_report = group_expansion(args.prime, args.depth)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = RunReport()
    report.add(
        "demo",
        "passed" if all(
            v for k, v in group_report.items() if isinstance(v, bool)
        ) else "failed",
        time.perf_counter() - t0,
        **{k: v for k, v in group_report.items() if not isinstance(v, float)},
    )
    summaries = _verify_expansion(expansion, report)
    summaries["group"] = group_report
    bundle = expansion.to_bundle(summaries)
    bundle["space"]["padic_points"] = [
        _residue_digits(int(label), args.prime, args.depth)
        for label in expansion.space.labels
    ]
    outputs = {"expansion.json": bundle, "shadow.json": shadow_bundle(bundle)}
    out_dir = Path(args.out or ".")
    _write_outputs(outputs, out_dir)
    if args.csv:
        _write_theta_csv(bundle, out_dir)
    print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    return EXIT_VERIFY if report.failed else EXIT_OK


def _residue_digits(r: int, p: int, depth: int) -> list[int]:
    out = []
    for _ in range(depth):
        r, d = divmod(r, p)
        out.append(d)
    return out


def _cmd_export_dot(args) -> int:
    try:
        bundle = _load_bundle(Path(args.bundle), shadow=False)
        paths = export_dot(bundle, Path(args.out or "."))
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for path in paths:
        print(path)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ultrapoly",
        description="non-Archimedean polyhedral expansions of finite ultrametric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check an input file for the ultrametric inequality")
    p_validate.add_argument("input")
    p_validate.set_defaults(func=_cmd_validate)

    p_expand = sub.add_parser("expand", help="build and verify an expansion bundle")
    p_expand.add_argument("input")
    p_expand.add_argument("--config", default=None)
    p_expand.add_argument("--out", default=None)
    p_expand.add_argument("--prime", type=int, default=None)
    p_expand.add_argument("--precision", type=int, default=None)
    p_expand.add_argument("--stages", default=None, help="comma-separated stage list")
    p_expand.set_defaults(func=_cmd_expand)

    p_shadow = sub.add_parser("shadow", help="shadow an expansion bundle over the reals")
    p_shadow.add_argument("bundle")
    p_shadow.add_argument("--out", default=None)
    p_shadow.add_argument("--csv", action="store_true", help="emit a theta table for plotting")
    p_shadow.set_defaults(func=_cmd_shadow)

    p_demo = sub.add_parser("demo", help="built-in demonstrations")
    demo_sub = p_demo.add_subparsers(dest="demo", required=True)
    p_zp = demo_sub.add_parser("zp", help="profinite expansion of Z/p^depth")
    p_zp.add_argument("--prime", type=int, required=True)
    p_zp.add_argument("--depth", type=int, required=True)
    p_zp.add_argument("--out", default=None)
    p_zp.add_argument("--csv", action="store_true", help="emit a theta table for plotting")
    p_zp.set_defaults(func=_cmd_demo_zp)

    p_export = sub.add_parser("export", help="export bundle artifacts")
    export_sub = p_export.add_subparsers(dest="what", required=True)
    p_dot = export_sub.add_parser("dot", help="DOT graph per level")
    p_dot.add_argument("bundle")
    p_dot.add_argument("--out", default=None)
    p_dot.set_defaults(func=_cmd_export_dot)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
