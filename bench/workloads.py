"""The three workloads: how each is set up, what one round runs, its fault.

A round is the command sequence a user of the workload types: one
`expand` for the two expand workloads, `shadow --csv` then `export dot`
for bundle-read.  Each step writes into its own directory, so its output
digests belong to that one invocation.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import gen


@dataclass
class Step:
    kind: str  # the CLI subcommand, which picks the gate's report check
    argv: list[str]  # arguments after `python -m ultrapoly`
    out_dir: Path
    expects_verify: bool = False  # an `expand` whose stages include verify


@dataclass
class Prepared:
    steps: list[Step]
    bundle: Path  # the expansion bundle a round writes or reads
    check: Callable[[], list[str]]  # independent check of the current outputs
    inject_fault: Callable[[], None]  # corrupt the input after digests are recorded
    builds: list[Step] = field(default_factory=list)  # set-up invocations


def _flip_first_digit(input_path: Path) -> None:
    obj = json.loads(input_path.read_text())
    stream = obj["padic_points"][0]
    stream[0] = (stream[0] + 1) % obj["prime"]
    gen.write_json(input_path, obj)


def _flip_matrix_digit(input_path: Path) -> None:
    """Change one digit of entry (0, 1) and its mirror, keeping the matrix valid."""
    obj = json.loads(input_path.read_text())
    text = obj["matrix"][0][1]
    pos = max(i for i, ch in enumerate(text) if ch.isdigit() and ch != "0")
    flipped = text[:pos] + str(int(text[pos]) % 9 + 1) + text[pos + 1 :]
    obj["matrix"][0][1] = obj["matrix"][1][0] = flipped
    gen.write_json(input_path, obj)


def _tamper_vertex_map(bundle_path: Path) -> None:
    """Point the first fine vertex of the first bonding map at another vertex."""
    bundle = json.loads(bundle_path.read_text())
    bmap = next(b for b in bundle["bonding"] if len(set(b["vertex_map"].values())) > 1)
    key = min(bmap["vertex_map"], key=int)
    current = bmap["vertex_map"][key]
    bmap["vertex_map"][key] = next(v for v in bmap["vertex_map"].values() if v != current)
    gen.write_json(bundle_path, bundle)


def padic_expand(seed: int, work: Path) -> Prepared:
    data = gen.padic_points(seed, work / "in", gen.PADIC_N, gen.PADIC_PRIME, gen.PADIC_DEPTH)
    out = work / "out" / "expand"
    step = Step(
        "expand",
        ["expand", str(data["input"]), "--config", str(data["config"]), "--out", str(out)],
        out,
        expects_verify=True,
    )
    return Prepared(
        steps=[step],
        bundle=out / "expansion.json",
        check=lambda: checks.check_padic_expand(data, out),
        inject_fault=lambda: _flip_first_digit(data["input"]),
    )


def raw_ingest(seed: int, work: Path) -> Prepared:
    data = gen.raw_matrix(seed, work / "in")
    out = work / "out" / "expand"
    step = Step(
        "expand", ["expand", str(data["input"]), "--out", str(out)], out, expects_verify=True
    )
    return Prepared(
        steps=[step],
        bundle=out / "expansion.json",
        check=lambda: checks.check_raw_ingest(data, out),
        inject_fault=lambda: _flip_matrix_digit(data["input"]),
    )


def bundle_read(seed: int, work: Path) -> Prepared:
    data = gen.padic_points(seed, work / "in", gen.BUNDLE_N, gen.BUNDLE_PRIME, gen.BUNDLE_DEPTH)
    build_dir = work / "bundle"
    build = Step(
        "expand",
        [
            "expand", str(data["input"]), "--config", str(data["config"]),
            "--stages", "validate,round,expand", "--out", str(build_dir),
        ],
        build_dir,
    )
    bundle = build_dir / "expansion.json"
    shadow_out = work / "out" / "shadow"
    dot_out = work / "out" / "dot"
    steps = [
        Step("shadow", ["shadow", str(bundle), "--csv", "--out", str(shadow_out)], shadow_out),
        Step("export", ["export", "dot", str(bundle), "--out", str(dot_out)], dot_out),
    ]

    def check() -> list[str]:
        return checks.check_padic_expand(data, build_dir) + checks.check_bundle_read(
            data, bundle, shadow_out, dot_out
        )

    def inject_fault() -> None:
        tampered = work / "tampered" / "expansion.json"
        tampered.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(bundle, tampered)
        _tamper_vertex_map(tampered)
        for step in steps:
            step.argv = [str(tampered) if a == str(bundle) else a for a in step.argv]

    return Prepared(
        steps=steps, bundle=bundle, check=check, inject_fault=inject_fault, builds=[build]
    )


WORKLOADS: dict[str, Callable[[int, Path], Prepared]] = {
    "padic-expand": padic_expand,
    "raw-ingest": raw_ingest,
    "bundle-read": bundle_read,
}
