"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical files.  Each returns the generator's own view of the data
(digit streams, exact rationals) so the independent checks in
``checks.py`` never have to read the program's outputs to know what the
right answer is.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

# Workload shapes.  BENCHMARK.json repeats them in each workload's `why`.
PADIC_N = 128
PADIC_PRIME = 2
PADIC_DEPTH = math.ceil(math.log2(4 * PADIC_N)) + 3  # 12 digits

RAW_N = 64
RAW_PRIME = 3
RAW_DUPLICATES = 3

BUNDLE_N = 400
BUNDLE_PRIME = 5
BUNDLE_DEPTH = 6


def k1_schedule(depth: int) -> dict:
    """Explicit schedule j = 0..depth+1 with threshold factor k = 1.

    The default auto schedule (k = 0) yields only 0-dimensional
    simplexes; k = 1 joins sibling balls, so the nerves carry real
    simplexes.  j runs one past the digit depth so the finest level,
    whose threshold is p^-depth, still separates every pair.
    """
    js = list(range(depth + 2))
    return {"schedule": {"j": js, "k": [1] * len(js)}}


def _distinct_streams(rng: random.Random, n: int, p: int, depth: int) -> list[list[int]]:
    values = rng.sample(range(p**depth), n)
    streams = []
    for v in values:
        digits = []
        for _ in range(depth):
            v, d = divmod(v, p)
            digits.append(d)
        streams.append(digits)
    return streams


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def padic_points(seed: int, out_dir: Path, n: int, p: int, depth: int) -> dict:
    """n distinct random p-adic digit streams of one length, plus a k = 1 config."""
    rng = random.Random(f"padic:{seed}:{n}:{p}:{depth}")
    streams = _distinct_streams(rng, n, p, depth)
    labels = [f"x{i:04d}" for i in range(n)]
    input_path = out_dir / "input.json"
    config_path = out_dir / "config.json"
    write_json(input_path, {"labels": labels, "prime": p, "padic_points": streams})
    write_json(config_path, k1_schedule(depth))
    return {
        "input": input_path,
        "config": config_path,
        "labels": labels,
        "prime": p,
        "streams": streams,
    }


def _format_entry(value: Fraction, rng: random.Random) -> str:
    """Decimal text where the value allows it, otherwise an a/b string."""
    if value == 0:
        return "0"
    for places in range(1, 9):
        if (10**places) % value.denominator == 0:
            if rng.random() < 0.5:
                break
            whole, frac = divmod(value.numerator * (10**places // value.denominator), 10**places)
            return f"{whole}.{frac:0{places}d}"
    return f"{value.numerator}/{value.denominator}"


def raw_matrix(seed: int, out_dir: Path, n: int = RAW_N, p: int = RAW_PRIME) -> dict:
    """A planted three-level hierarchy with multiplicative noise.

    Within-cluster distances are drawn around a per-level scale with
    +-20 % noise, so many triples break the strong triangle inequality
    and the subdominant closure lowers entries.  The last few points
    copy earlier rows exactly (distance 0), so quotient_zero merges them.
    """
    rng = random.Random(f"raw:{seed}:{n}:{p}")
    base = n - RAW_DUPLICATES
    # cluster path per point: (top, mid) over a 4 x 3 tree
    paths = [(rng.randrange(4), rng.randrange(3)) for _ in range(base)]
    scales = [Fraction(9, 10), Fraction(27, 100), Fraction(2, 25)]

    def draw(level: int) -> Fraction:
        if rng.random() < 0.5:
            noise = Fraction(rng.randint(800, 1200), 1000)
        else:
            den = rng.randint(7, 97)
            noise = Fraction(rng.randint(8 * den, 12 * den), 10 * den)
        return scales[level] * noise

    exact = [[Fraction(0)] * n for _ in range(n)]
    for i in range(base):
        for j in range(i + 1, base):
            if paths[i][0] != paths[j][0]:
                level = 0
            elif paths[i][1] != paths[j][1]:
                level = 1
            else:
                level = 2
            exact[i][j] = exact[j][i] = draw(level)
    sources = rng.sample(range(base), RAW_DUPLICATES)
    for offset, src in enumerate(sources):
        dup = base + offset
        for k in range(base):
            exact[dup][k] = exact[k][dup] = exact[src][k]
        exact[dup][src] = exact[src][dup] = Fraction(0)
    for a in range(RAW_DUPLICATES):
        for b in range(a + 1, RAW_DUPLICATES):
            da, db = base + a, base + b
            exact[da][db] = exact[db][da] = exact[sources[a]][sources[b]]

    text = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            text[i][j] = text[j][i] = _format_entry(exact[i][j], rng)
    labels = [f"r{i:03d}" for i in range(n)]
    input_path = out_dir / "input.json"
    write_json(input_path, {"labels": labels, "prime": p, "matrix": text})
    return {"input": input_path, "labels": labels, "prime": p, "matrix": exact}
