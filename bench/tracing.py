"""Traced in-process pass: per-layer self times, counts and allocation peaks.

The CLI entry point ``ultrapoly.cli.main`` runs in this process on the
same arguments as the timed invocations.  For the length of one pass,
each traced function is replaced, in every module of the package that
holds it, by a wrapper that records a span; the program's code is not
changed.  A span's self time is its duration minus the time its child
spans cover.  Seconds are reference seconds (see speed.py), and
``machine.speed`` is the run's median speed relative to the reference.

Passes, in this order:

- ``plain`` and ``timing`` alternate, in pairs whose order flips, until
  the run's seconds are spent.
  ``plain`` runs a round with no spans, ``timing`` with the layer spans.
  Per-layer seconds are medians over the ``timing`` rounds, and
  ``trace.overhead_s`` is the median ``timing`` round minus the median
  ``plain`` round.
- ``parts`` adds spans inside ``assemble_expansion`` (Baire codes,
  covers, nerves, bonding maps); only those parts are read from it, so
  their extra spans never reach the ``timing`` numbers.
- ``memory`` repeats the layer spans under ``tracemalloc``; only the
  allocation peaks are read from it.

A ``.s`` metric sums self seconds over one round's calls; counts sum
the sizes read from each call's arguments or result.  So
``spaces.validate_ultrametric.s`` holds both triple scans of the raw
path (the CLI's and the one inside ``round_space``), and ``verify.s``
is the full duration of the verify-stage calls made directly by
``cli.run``.  Metrics of layers a workload never calls read 0.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import io
import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import speed


def _written_bytes(args, result) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _violations(args, result) -> dict:
    return {"violations": len(result)}


def _merged(args, result) -> dict:
    return {"merged": len(result[1])}


def _fine_pairs(args, result) -> dict:
    v = len(args[1].nerve.vertices)
    return {"pairs": v * (v - 1) // 2}


# (module, attribute, span name, counts read from the call)
LAYER_SPANS = [
    ("cli", "run", "cli.run", None),
    ("cli", "load_input", "cli.load_input", None),
    ("cli", "_dump_json", "cli.bundle_write", _written_bytes),
    ("cli", "export_dot", "cli.export_dot", None),
    ("padic", "PAdic.from_digit_stream", "padic.from_digit_stream", None),
    ("spaces", "space_from_points", "spaces.space_from_points", None),
    ("spaces", "validate_ultrametric", "spaces.validate_ultrametric", _violations),
    ("spaces", "subdominant_closure", "spaces.subdominant_closure", None),
    ("spaces", "round_space", "spaces.round_space", None),
    ("spaces", "quotient_zero", "spaces.quotient_zero", _merged),
    ("spectrum", "assemble_expansion", "spectrum.assemble_expansion", None),
    ("spectrum", "Expansion.verify_functoriality", "spectrum.verify_functoriality", None),
    ("spectrum", "verify_nonstretching", "spectrum.verify_nonstretching", _fine_pairs),
    ("spectrum", "verify_nondegenerate", "spectrum.verify_nondegenerate", None),
    ("spectrum", "Expansion.thread", "spectrum.thread", None),
    ("spectrum", "Expansion.reconstruct", "spectrum.reconstruct", None),
    ("spectrum", "limit_isometry_check", "spectrum.limit_isometry_check", None),
    ("nerve", "check_uniform", "nerve.check_uniform", None),
    ("nerve", "isolated_point_check", "nerve.isolated_point_check", None),
    ("nerve", "nerve_to_dot", "nerve.nerve_to_dot", None),
    ("shadow", "shadow_bundle", "shadow.shadow_bundle", None),
    ("shadow", "theta_table_csv", "shadow.theta_table_csv", None),
]
# Parsing a bundle: only the read workload calls this outside load_input.
READ_SPANS = [("cli", "_load_json", "cli.bundle_read", None)]
PART_SPANS = [
    ("spaces", "baire_encode", "spaces.baire_encode", None),
    ("nerve", "scale_cover", "nerve.scale_cover", None),
    ("nerve", "build_nerve", "nerve.build_nerve", None),
    ("spectrum", "bonding_map", "spectrum.bonding_map", None),
]

# Spans the CLI verify stage makes, as direct children of cli.run.
VERIFY_SPANS = {
    "spectrum.verify_nonstretching",
    "spectrum.verify_nondegenerate",
    "spectrum.verify_functoriality",
    "spectrum.thread",
    "spectrum.reconstruct",
    "spectrum.limit_isometry_check",
    "nerve.check_uniform",
    "nerve.isolated_point_check",
}
SELF_SECONDS = [
    "cli.load_input",
    "cli.bundle_write",
    "cli.bundle_read",
    "cli.export_dot",
    "padic.from_digit_stream",
    "spaces.space_from_points",
    "spaces.validate_ultrametric",
    "spaces.subdominant_closure",
    "spaces.round_space",
    "spaces.quotient_zero",
    "spectrum.assemble_expansion",
    "spectrum.verify_functoriality",
    "spectrum.verify_nonstretching",
    "spectrum.verify_nondegenerate",
    "spectrum.limit_isometry_check",
    "nerve.check_uniform",
    "nerve.isolated_point_check",
    "nerve.nerve_to_dot",
    "shadow.shadow_bundle",
    "shadow.theta_table_csv",
]
PART_SECONDS = [name for _, _, name, _ in PART_SPANS]
ALLOC_SPANS = [
    "cli.load_input",
    "cli.bundle_write",
    "cli.bundle_read",
    "spaces.space_from_points",
    "spaces.validate_ultrametric",
    "spaces.subdominant_closure",
    "spaces.round_space",
    "spectrum.assemble_expansion",
    "spectrum.verify_nonstretching",
    "spectrum.limit_isometry_check",
    "shadow.shadow_bundle",
    "shadow.theta_table_csv",
    "nerve.nerve_to_dot",
]
BASES = ["points", "pairs", "levels", "blocks", "simplexes", "max_dim"]
# A short round makes thousands of spans; the JSONL keeps the first few
# timing rounds and every other pass, the metrics use every round.
KEEP_TIMING_ROUNDS = 5


def metric_units() -> dict[str, str]:
    """Every per-layer metric this pass reports, with its unit."""
    units = {f"{name}.s": "s" for name in SELF_SECONDS + PART_SECONDS}
    units.update(
        {
            "spectrum.reconstruct.s": "s",
            "verify.s": "s",
            "cli.bundle_write.bytes": "bytes",
            "spaces.validate_ultrametric.violations": "count",
            "spaces.quotient_zero.merged": "count",
            "spectrum.verify_nonstretching.pairs": "count",
            "spectrum.verify_nonstretching.us_per_pair": "us",
            "trace.overhead_s": "s",
            "machine.speed": "x",
        }
    )
    units.update({f"{name}.alloc_peak_mb": "MB" for name in ALLOC_SPANS})
    units.update({name: "count" for name in BASES})
    return units


class Tracer:
    """Spans kept in memory; written out as JSONL once the run ends."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spans: list[dict] = []
        self.phase = ""
        self.memory = False
        self._open: list[dict] = []
        self._ids = 0
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = {
            "id": self._ids,
            "name": name,
            "parent": parent["id"] if parent else None,
            "parent_name": parent["name"] if parent else None,
            "workload": self.workload,
            "seed": self.seed,
            "pass": self.phase,
            "child_s": 0.0,
        }
        self._ids += 1
        self.spans.append(rec)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            for ancestor in self._open:
                ancestor["peak"] = max(ancestor["peak"], peak)
            rec["base"] = rec["peak"] = current
            tracemalloc.reset_peak()
        self._open.append(rec)
        rec["start"] = time.perf_counter() - self._origin
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._origin
            self._open.pop()
            duration = rec["end"] - rec["start"]
            rec["self_s"] = duration - rec.pop("child_s")
            if parent is not None:
                parent["child_s"] += duration
            if self.memory:
                peak = max(rec.pop("peak"), tracemalloc.get_traced_memory()[1])
                rec["alloc_peak_mb"] = (peak - rec.pop("base")) / 2**20
                if parent is not None:
                    parent["peak"] = max(parent["peak"], peak)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _resolve(module: str, attribute: str):
    mod = importlib.import_module(f"ultrapoly.{module}")
    owner, name = mod, attribute
    if "." in attribute:
        cls_name, name = attribute.split(".")
        owner = getattr(mod, cls_name)
    return owner, name


@contextmanager
def installed(tracer: Tracer, targets: list[tuple]):
    """Replace each target by a span-recording wrapper until the block ends."""
    modules = [
        importlib.import_module(f"ultrapoly.{m}")
        for m in ("cli", "padic", "spaces", "nerve", "spectrum", "shadow")
    ]
    undo: list[tuple[object, str, object]] = []
    try:
        for module, attribute, span_name, counts in targets:
            owner, name = _resolve(module, attribute)
            static = inspect.getattr_static(owner, name)
            is_classmethod = isinstance(static, classmethod)
            fn = static.__func__ if is_classmethod else static
            wrapper = _wrap(tracer, span_name, fn, counts)
            replacement = classmethod(wrapper) if is_classmethod else wrapper
            holders = [owner] if owner not in modules else [
                m for m in modules if m.__dict__.get(name) is fn
            ]
            for holder in holders:
                undo.append((holder, name, holder.__dict__[name]))
                setattr(holder, name, replacement)
        yield
    finally:
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)


def _wrap(tracer: Tracer, span_name: str, fn, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(span_name) as rec:
            result = fn(*args, **kwargs)
            if counts is not None:
                rec.update(counts(args, result))
        return result

    return traced


def _self_seconds(spans: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for rec in spans:
        out[rec["name"]] = out.get(rec["name"], 0.0) + rec["self_s"]
    return out


def _layer_metrics(spans: list[dict], factor: float) -> dict[str, float]:
    """Per-layer numbers from the spans of one timing round.

    Seconds are multiplied by the round's speed factor (see speed.py).
    """
    self_s = _self_seconds(spans)
    metrics = {f"{name}.s": self_s.get(name, 0.0) * factor for name in SELF_SECONDS}
    # thread lookups made by the verify stage itself count with reconstruct;
    # those inside limit_isometry_check stay in that span
    metrics["spectrum.reconstruct.s"] = factor * (
        self_s.get("spectrum.reconstruct", 0.0)
        + sum(
            rec["self_s"]
            for rec in spans
            if rec["name"] == "spectrum.thread"
            and rec["parent_name"] != "spectrum.limit_isometry_check"
        )
    )
    metrics["verify.s"] = factor * sum(
        rec["end"] - rec["start"]
        for rec in spans
        if rec["name"] in VERIFY_SPANS and rec["parent_name"] == "cli.run"
    )
    for key, count in [
        ("cli.bundle_write.bytes", "bytes"),
        ("spaces.validate_ultrametric.violations", "violations"),
        ("spaces.quotient_zero.merged", "merged"),
        ("spectrum.verify_nonstretching.pairs", "pairs"),
    ]:
        metrics[key] = sum(rec.get(count, 0) for rec in spans)
    pairs = metrics["spectrum.verify_nonstretching.pairs"]
    metrics["spectrum.verify_nonstretching.us_per_pair"] = (
        metrics["spectrum.verify_nonstretching.s"] * 1e6 / pairs if pairs else 0.0
    )
    return metrics


def _bases(bundle_path: Path) -> dict[str, int]:
    bundle = json.loads(bundle_path.read_text())
    n = len(bundle["space"]["labels"])
    levels = bundle["levels"]
    return {
        "points": n,
        "pairs": n * (n - 1) // 2,
        "levels": len(levels),
        "blocks": sum(len(level["blocks"]) for level in levels),
        "simplexes": sum(len(level["maximal_simplexes"]) for level in levels),
        "max_dim": max(level["dimL"] for level in levels),
    }


def _run_steps(steps, tracer: Tracer | None) -> tuple[float, list[str]]:
    """Run each step through cli.main in this process.

    Returns the seconds spent inside cli.main and the failure reasons,
    judged by the same gate as a spawned invocation.
    """
    from ultrapoly import cli

    elapsed = 0.0
    failures = []
    for step in steps:
        out, err = io.StringIO(), io.StringIO()
        raised = None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    code = cli.main(step.argv)
                else:
                    with tracer.span("cli.main"):
                        code = cli.main(step.argv)
        except (Exception, SystemExit) as exc:  # reported as a failed op
            raised = exc
        elapsed += time.perf_counter() - t0
        if raised is not None:
            failures.append(f"{step.kind}: raised {raised!r}")
            continue
        reason = checks.gate(step, code, out.getvalue(), err.getvalue())
        if reason:
            failures.append(f"{step.kind}: {reason}")
    return elapsed, failures


def traced_pass(prepared, reference, workload: str, seed: int, seconds: float, spans_path: Path):
    """Run the passes; returns (per-layer metrics, ops attempted, failures)."""
    tracer = Tracer(workload, seed)
    layer = list(LAYER_SPANS)
    if any(step.kind in ("shadow", "export") for step in prepared.steps):
        layer += READ_SPANS
    attempted = 0
    failures: list[str] = []
    plain, timed, rounds = [], [], []
    scale = speed.Scale()

    def one_round(phase: str, targets: list) -> tuple[float, list[dict], float]:
        """Seconds in cli.main, the round's spans and its speed factor."""
        nonlocal attempted
        for step in prepared.steps:
            checks.clear(step.out_dir)
        gc.collect()
        tracer.phase = phase
        first = len(tracer.spans)
        with installed(tracer, targets):
            elapsed, fails = _run_steps(prepared.steps, tracer if targets else None)
        factor = scale.next(elapsed, 0)
        attempted += len(prepared.steps)
        failures.extend(fails)
        for step, expected in zip(prepared.steps, reference):
            if not fails and checks.digests(step.out_dir) != expected:
                failures.append(f"{phase}: {step.kind} outputs differ from set-up")
        spans = tracer.spans[first:]
        if phase == "timing" and len(timed) >= KEEP_TIMING_ROUNDS:
            del tracer.spans[first:]
        return elapsed * factor, spans, factor

    deadline = time.perf_counter() + seconds
    while len(timed) < 2 or time.perf_counter() < deadline:
        # flip the order each pair, so neither side always runs second
        for phase in ("timing", "plain") if len(timed) % 2 else ("plain", "timing"):
            if phase == "plain":
                plain.append(one_round("plain", [])[0])
            else:
                elapsed, spans, factor = one_round("timing", layer)
                timed.append(elapsed)
                rounds.append(_layer_metrics(spans, factor))
    metrics = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    metrics["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain)

    _, spans, factor = one_round("parts", layer + PART_SPANS)
    parts = _self_seconds(spans)
    metrics.update({f"{name}.s": parts.get(name, 0.0) * factor for name in PART_SECONDS})

    tracemalloc.start()
    tracer.memory = True
    try:
        memory_spans = one_round("memory", layer)[1]
    finally:
        tracer.memory = False
        tracemalloc.stop()
    for name in ALLOC_SPANS:
        metrics[f"{name}.alloc_peak_mb"] = max(
            (rec["alloc_peak_mb"] for rec in memory_spans if rec["name"] == name),
            default=0.0,
        )
    metrics.update(_bases(prepared.bundle))
    metrics["machine.speed"] = statistics.median(scale.speeds)
    tracer.write_jsonl(spans_path)
    return metrics, attempted, failures
