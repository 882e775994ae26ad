"""Correctness gate and independent checks.

The gate runs on every CLI invocation.  The independent checks recompute
the expected outputs from the generator's own data by a different route
than the program takes; they run on the reference round made during
set-up, outside the timed region.  Every timed invocation must then
reproduce the reference bytes, so each one inherits the check.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from workloads import Step


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under out_dir, keyed by relative path."""
    return {
        str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def clear(out_dir: Path) -> None:
    """Empty out_dir, so a step that writes nothing leaves nothing behind."""
    shutil.rmtree(out_dir, ignore_errors=True)


def total_bytes(out_dir: Path) -> int:
    return sum(path.stat().st_size for path in out_dir.rglob("*") if path.is_file())


def gate(step: Step, code: int, stdout: str, stderr: str) -> str | None:
    """Reason the invocation of `step` failed, or None.

    `step.kind` is the CLI subcommand.  `expand` must print a run report;
    its verify stage must be present when `step.expects_verify` and must
    have passed whenever it ran.  `shadow` must report that every level
    kept its dimension; `export` must list one file per DOT written.
    """
    if code != 0:
        return f"exit code {code}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    if step.kind == "expand":
        try:
            stages = json.loads(stdout)["stages"]
        except (json.JSONDecodeError, KeyError, TypeError):
            return "no run report on stdout"
        if "verify" not in stages:
            if step.expects_verify:
                return "verify stage did not run"
        elif stages["verify"].get("status") != "passed":
            return "verify stage did not pass"
    elif step.kind == "shadow":
        if not (step.out_dir / "shadow.json").is_file():
            return "no shadow.json written"
        shadow = json.loads((step.out_dir / "shadow.json").read_text())
        if shadow.get("reports", {}).get("dim_preserved") is not True:
            return "shadow reports a dimension change"
    elif step.kind == "export":
        listed = [line for line in stdout.splitlines() if line.strip()]
        if len(listed) != len(list(step.out_dir.glob("level_*.dot"))):
            return "export listed a different set of DOT files"
    return None


# -- independent checks --------------------------------------------------


def _first_difference(a: list[int], b: list[int]) -> int | None:
    for pos, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return pos
    return None


def check_padic_expand(data: dict, out_dir: Path) -> list[str]:
    """Exponents are first differing digit positions; blocks count prefixes."""
    problems = []
    streams = data["streams"]
    space = json.loads((out_dir / "space.json").read_text())
    bundle = json.loads((out_dir / "expansion.json").read_text())
    if space["labels"] != data["labels"]:
        problems.append("space labels differ from the input labels")
        return problems
    gm = space["gamma_matrix"]
    for i, a in enumerate(streams):
        for j in range(i + 1, len(streams)):
            expected = _first_difference(a, streams[j])
            if gm[i][j] != expected or gm[j][i] != expected:
                problems.append(f"gamma_matrix[{i}][{j}] = {gm[i][j]}, expected {expected}")
                break
    if bundle["space"]["gamma_matrix"] != gm:
        problems.append("bundle space differs from space.json")
    js = bundle["schedule"]["j"]
    for level, j in zip(bundle["levels"], js):
        prefixes = {tuple(s[: max(j, 0)]) for s in streams}
        if len(level["blocks"]) != len(prefixes):
            problems.append(
                f"level j={j}: {len(level['blocks'])} blocks, {len(prefixes)} prefixes"
            )
    return problems


def _minimax_closure(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Minimax path distance via Prim's spanning tree.

    The largest edge on the tree path between two points is the least
    possible largest hop over all paths, which is what the subdominant
    ultrametric is; the program takes the Floyd-Warshall route instead.
    """
    n = len(matrix)
    out = [[Fraction(0)] * n for _ in range(n)]
    best = {v: (matrix[0][v], 0) for v in range(1, n)}
    placed = [0]
    while best:
        u = min(best, key=lambda v: best[v][0])
        edge, via = best.pop(u)
        for w in placed:
            out[u][w] = out[w][u] = max(edge, out[via][w])
        placed.append(u)
        for v, (d, _) in best.items():
            if matrix[u][v] < d:
                best[v] = (matrix[u][v], u)
    return out


def _floor_exponent(r: Fraction, p: int) -> int | None:
    """e with p^-e <= r < p^-(e-1), by integer comparisons; None for r = 0."""
    if r == 0:
        return None
    num, den = r.numerator, r.denominator

    def at_most(e: int) -> bool:  # p^-e <= num/den
        return den <= num * p**e if e >= 0 else den * p ** (-e) <= num

    e = math.floor((math.log(den) - math.log(num)) / math.log(p))  # fixed up below
    while not at_most(e):
        e += 1
    while at_most(e - 1):
        e -= 1
    return e


def check_raw_ingest(data: dict, out_dir: Path) -> list[str]:
    """The space equals the rounded minimax closure, zero classes merged."""
    problems = []
    p = data["prime"]
    closure = _minimax_closure(data["matrix"])
    n = len(closure)
    keep = [i for i in range(n) if all(closure[i][k] != 0 for k in range(i))]
    cache: dict[Fraction, int | None] = {}
    expected = []
    for i in keep:
        row = []
        for k in keep:
            value = closure[i][k]
            if value not in cache:
                cache[value] = _floor_exponent(value, p)
            e = cache[value]
            row.append("INF" if e is None else e)
        expected.append(row)
    space = json.loads((out_dir / "space.json").read_text())
    if space["labels"] != [data["labels"][i] for i in keep]:
        problems.append("merged labels differ from the zero classes of the closure")
    elif space["gamma_matrix"] != expected:
        problems.append("gamma_matrix differs from the rounded minimax closure")
    bundle = json.loads((out_dir / "expansion.json").read_text())
    if bundle["space"]["gamma_matrix"] != space["gamma_matrix"]:
        problems.append("bundle space differs from space.json")
    return problems


def check_bundle_read(
    data: dict, bundle_path: Path, shadow_dir: Path, dot_dir: Path
) -> list[str]:
    """Shadow levels mirror the bundle; one DOT per level; theta rows are exact."""
    problems = []
    bundle = json.loads(bundle_path.read_text())
    shadow = json.loads((shadow_dir / "shadow.json").read_text())
    if len(shadow["levels"]) != len(bundle["levels"]):
        problems.append("shadow level count differs from the bundle")
    for src, dst in zip(bundle["levels"], shadow["levels"]):
        simplexes = src["maximal_simplexes"]
        if dst["maximal_simplexes"] != simplexes:
            problems.append(f"level {src['level']}: shadow simplexes differ")
        if dst["dimR_per_simplex"] != [len(s) - 1 for s in simplexes]:
            problems.append(f"level {src['level']}: per-simplex dimensions differ")
        if dst["dimR"] != src["dimL"]:
            problems.append(f"level {src['level']}: dimR {dst['dimR']} != dimL {src['dimL']}")
    dots = sorted(path.name for path in dot_dir.glob("*.dot"))
    wanted = sorted(f"level_{level['level']}.dot" for level in bundle["levels"])
    if dots != wanted:
        problems.append(f"DOT files {dots} differ from one per level")
    p = data["prime"]
    rows = (shadow_dir / "theta.csv").read_text().splitlines()
    if rows[0] != "digits,theta_num,theta_den" or len(rows) != len(data["streams"]) + 1:
        problems.append("theta.csv header or row count is wrong")
        return problems
    for stream, row in zip(data["streams"], rows[1:]):
        value = sum(Fraction(d, p ** (i + 1)) for i, d in enumerate(stream))
        want = f"{':'.join(map(str, stream))},{value.numerator},{value.denominator}"
        if row != want:
            problems.append(f"theta row {row!r}, expected {want!r}")
            break
    return problems
