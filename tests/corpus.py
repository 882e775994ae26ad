"""Deterministic random-space generators shared by the test modules."""

from __future__ import annotations

import random

from ultrapoly import GAMMA_ZERO, GammaValue, UltraSpace

PRIMES = (2, 3, 5)

#: A safe prime 2q + 1 above the range where Miller-Rabin is exact; n - 1
#: = 2q has no factor below 2^16 but 2, so no primality certificate is
#: found and the primality test must refuse to decide.
UNDECIDABLE_PRIME = 2535301200456458802993406412663


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
