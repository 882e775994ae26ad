"""Random-space generators and hypothesis strategies shared by the test modules, and ``replace``."""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from hypothesis import strategies as st

from ultrapoly import GAMMA_ZERO, GammaValue, PAdic, UltraSpace

PRIMES = (2, 3, 5)

#: A safe prime 2q + 1 above the range where Miller-Rabin is exact; n - 1
#: = 2q has no factor below 2^16 but 2, so no primality certificate is
#: found and the primality test must refuse to decide.
UNDECIDABLE_PRIME = 2535301200456458802993406412663


def replace(obj, **changes):
    """A copy of a value-type instance with some fields changed, built by its constructor."""
    fields = {name: getattr(obj, name) for name in type(obj)._fields}
    return type(obj)(**{**fields, **changes})


def random_code_space(rng: random.Random, p: int, n: int, depth: int | None = None) -> UltraSpace:
    """Separated ultrametric space from distinct random digit codes.

    Distance exponent = index of the first differing digit (0-based), so
    exponents lie in [0, depth-1] and the first-difference construction
    guarantees the strong triangle inequality.
    """
    if depth is None:
        depth = 1
        while p**depth < 4 * n:
            depth += 1
        depth += 1
    codes: set[tuple[int, ...]] = set()
    while len(codes) < n:
        codes.add(tuple(rng.randrange(p) for _ in range(depth)))
    ordered = sorted(codes)
    dist = [[GAMMA_ZERO for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = next(
                t for t in range(depth) if ordered[i][t] != ordered[j][t]
            )
            dist[i][j] = dist[j][i] = GammaValue(e)
    return UltraSpace(
        labels=tuple(f"q{i}" for i in range(n)),
        prime=p,
        dist=tuple(tuple(row) for row in dist),
    )


def corpus_spaces(seed: int = 90125, count: int = 100) -> list[UltraSpace]:
    """The acceptance corpus: `count` separated spaces, n <= 64, p in {2,3,5}."""
    rng = random.Random(seed)
    sizes = [1, 2, 3, 64, 64]
    while len(sizes) < count:
        sizes.append(rng.choice((4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64)))
    spaces = []
    for idx in range(count):
        p = PRIMES[idx % len(PRIMES)]
        spaces.append(random_code_space(rng, p, sizes[idx]))
    return spaces


def planted_outlier_space(rng: random.Random, p: int, n: int) -> tuple[UltraSpace, int]:
    """A tight cluster plus one far point; returns (space, outlier index).

    Cluster distances have exponents >= 2; the outlier sits at exponent 0
    (distance 1) from everyone.
    """
    cluster = random_code_space(rng, p, n - 1)
    n_total = n
    dist = [[GAMMA_ZERO for _ in range(n_total)] for _ in range(n_total)]
    for i in range(n - 1):
        for j in range(n - 1):
            d = cluster.dist[i][j]
            dist[i][j] = d if d.is_zero else GammaValue(d.exponent + 2)
    outlier = n - 1
    for i in range(n - 1):
        dist[i][outlier] = dist[outlier][i] = GammaValue(0)
    return (
        UltraSpace(
            labels=tuple(f"q{i}" for i in range(n - 1)) + ("outlier",),
            prime=p,
            dist=tuple(tuple(row) for row in dist),
        ),
        outlier,
    )


# ------------------------------------------------------ hypothesis strategies

POOL = [Fraction(v) for v in ("1/2", "1/3", "2/3", "3/4", "1", "5/4", "0.1", "7/10", "3", "1/1000")]


def _forms(value: Fraction) -> list:
    """Ways to write value as a matrix entry: Fraction, texts, int, a parsed pair."""
    num, den = value.numerator, value.denominator
    forms = [value, f"{num}/{den}", f"{3 * num}/{3 * den}", (num, den)]
    if 1000 % den == 0:
        thousandths = num * (1000 // den)
        forms += [f"{thousandths // 1000}.{thousandths % 1000:03d}", f"{thousandths}e-3"]
    if den == 1:
        forms.append(num)
    return forms


@st.composite
def mixed_matrices(draw, n_max=8):
    """(exact matrix, written matrix): ties from a small pool, zeros and duplicate rows."""
    n = draw(st.integers(1, n_max))
    exact = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            exact[i][j] = exact[j][i] = draw(st.sampled_from(POOL + [Fraction(0)]))
    if n >= 3 and draw(st.booleans()):  # y copies x
        x, y = draw(st.permutations(range(n)))[:2]
        for k in range(n):
            if k != y:
                exact[y][k] = exact[k][y] = exact[x][k]
        exact[x][y] = exact[y][x] = Fraction(0)
    written = [[draw(st.sampled_from(_forms(value))) for value in row] for row in exact]
    return exact, written


@st.composite
def padic_families(draw):
    """PAdics of one prime: zeros, mixed valuations and window widths."""
    p = draw(st.sampled_from([2, 3, 5]))
    points = []
    for _ in range(draw(st.integers(1, 8))):
        precision = draw(st.integers(1, 6))
        if draw(st.integers(0, 4)) == 0:
            points.append(PAdic.zero(p, precision))
            continue
        digits = [draw(st.integers(1, p - 1))] + [
            draw(st.integers(0, p - 1)) for _ in range(precision - 1)
        ]
        points.append(PAdic(p, draw(st.integers(-3, 3)), tuple(digits), precision))
    if len(points) > 1 and draw(st.booleans()):
        points.append(points[0])  # a repeated point sits at distance zero
    return points


@st.composite
def prefix_chain_families(draw):
    """PAdics of one prime around one digit window: points cut to a prefix of
    it, some of them extended past the cut, and now and then a zero.

    A window that is a prefix of another sits at distance 0 from it, so
    two extensions that differ past a shorter point's window break the
    strong triangle inequality, and extensions that agree leave it whole:
    about a quarter of these families fail it.
    """
    p = draw(st.sampled_from(PRIMES))
    valuation = draw(st.integers(-2, 2))
    stem = [draw(st.integers(1, p - 1))]
    stem += [draw(st.integers(0, p - 1)) for _ in range(draw(st.integers(1, 5)))]
    points = []
    for _ in range(draw(st.integers(2, 6))):
        digits = stem[: draw(st.integers(1, len(stem)))]
        if draw(st.booleans()):
            digits += [draw(st.integers(0, p - 1)) for _ in range(draw(st.integers(1, 3)))]
        points.append(PAdic(p, valuation, tuple(digits), len(digits)))
    if draw(st.integers(0, 3)) == 0:
        points.append(PAdic.zero(p, draw(st.integers(1, 6))))
    return draw(st.permutations(points))


# ------------------------------------------------------ every small space


def small_ultrametrics(n: int, top: int) -> list[list[list[int | None]]]:
    """Every separated ultrametric on n points with exponents in 0..top, one per
    relabeling class, as its exponent table (None on the diagonal).

    Such a space is a chain of partitions: the classes of {e >= t} for t = 0
    to top + 1, from one block to singletons.  Up to relabeling, a block at
    level t is the multiset of its blocks at level t + 1, each taken up to
    relabeling in turn, so the classes are built as those multisets directly,
    with no pass over the n! relabelings.
    """
    tables = []
    for block in _blocks(n, 0, top):
        table: list[list[int | None]] = [[None] * n for _ in range(n)]
        _number(block, 0, table, 0)
        tables.append(table)
    return tables


@functools.cache
def _blocks(n: int, t: int, top: int) -> tuple:
    """Each class of a block of n points at level t, as the sorted tuple of its
    blocks at level t + 1, each (size, class); a point is the empty tuple."""
    if n == 1:
        return ((),)
    if t > top:  # two points at level top + 1 would lie at distance 0
        return ()
    parts = [(size, block) for size in range(1, n + 1) for block in _blocks(size, t + 1, top)]
    return tuple(_multisets(parts, n, 0))


def _multisets(parts: list, n: int, first: int):
    """The multisets of parts from index first on whose sizes sum to n, in index order."""
    if n == 0:
        yield ()
        return
    for i in range(first, len(parts)):
        if parts[i][0] <= n:
            for rest in _multisets(parts, n - parts[i][0], i):
                yield (parts[i], *rest)


def _number(block: tuple, t: int, table: list, start: int) -> list[int]:
    """The points of block, numbered from start; pairs across its parts meet at t."""
    if not block:
        return [start]
    parts = []
    for size, part in block:
        parts.append(_number(part, t + 1, table, start))
        start += size
    for a, ours in enumerate(parts):
        for theirs in parts[a + 1 :]:
            for x in ours:
                for y in theirs:
                    table[x][y] = table[y][x] = t
    return [x for part in parts for x in part]
