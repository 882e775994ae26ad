"""Integer kernels against their brute-force oracles, and guards on their cost.

The kernels: the non-stretching check from one realized-distance table,
the p-adic pair norms from digit windows, the single-linkage strong
triangle check, and the exact primality test.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrapoly import (
    GAMMA_ZERO,
    C0Vector,
    GammaValue,
    NotUltrametricError,
    PAdic,
    Schedule,
    UltraSpace,
    assemble_expansion,
    group_expansion,
    space_from_points,
    verify_nonstretching,
)
from ultrapoly import spectrum
from ultrapoly.nerve import Realization
from ultrapoly.padic import PrimalityUnknownError, difference_exponents, is_prime

from corpus import UNDECIDABLE_PRIME, padic_families, random_code_space, replace
from oracles import (
    pairwise_nonstretching,
    strong_triangle_by_thresholds,
    trial_division_is_prime,
    violating_triples,
)

# --------------------------------------------------------- non-stretching

def _oracle_report(bmap, fine, coarse, p):
    """The oracle's (violations, merged pair count, preserved count, single step)."""
    fine_keys = [list(v.keys) for v in fine.realization.vectors]
    coarse_keys = [list(v.keys) for v in coarse.realization.vectors]
    violations, merged, preserved, single_step = pairwise_nonstretching(
        list(fine.nerve.vertices),
        bmap.vertex_map,
        fine_keys,
        coarse_keys,
        p,
        fine.cover.level,
    )
    return violations, len(merged), preserved, single_step


def _kernel_report(bmap, fine, coarse):
    """The kernel's bundle entry in the oracle's shape; preserved pairs are the rest."""
    entry = verify_nonstretching(bmap, fine, coarse)
    assert (entry["from"], entry["to"]) == (bmap.fine, bmap.coarse)
    violations = tuple(map(tuple, entry["violations"]))
    merged = entry["merged_pairs"]
    n = len(fine.nerve.vertices)
    preserved = n * (n - 1) // 2 - merged - len(violations)
    return violations, merged, preserved, entry["single_step_contraction"]


def _with_vector(level, index, keys):
    vectors = list(level.realization.vectors)
    vectors[index] = C0Vector(keys=tuple(keys))
    realization = Realization(vectors=tuple(vectors), cells=level.realization.cells)
    return replace(level, realization=realization)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 14),
    k=st.integers(0, 2),
    data=st.data(),
)
def test_nonstretching_matches_pairwise_oracle(seed, p, n, k, data):
    space = random_code_space(random.Random(seed), p, n)
    expansion = assemble_expansion(space, Schedule.auto(space, k_shift=k))
    for m, bmap in enumerate(expansion.bonding):
        fine, coarse = expansion.levels[m + 1], expansion.levels[m]
        assert _kernel_report(bmap, fine, coarse) == _oracle_report(bmap, fine, coarse, p)

        # mutant: one vertex_map entry sent to another coarse vertex
        v = data.draw(st.sampled_from(fine.nerve.vertices))
        target = data.draw(st.sampled_from(coarse.nerve.vertices))
        redirected = replace(bmap, vertex_map={**bmap.vertex_map, v: target})
        assert _kernel_report(redirected, fine, coarse) == _oracle_report(redirected, fine, coarse, p)

        # mutant: one coarse vector with a changed key
        x = data.draw(st.integers(0, n - 1))
        keys = list(coarse.realization.vectors[x].keys)
        t = data.draw(st.integers(0, len(keys) - 1))
        keys[t] = (keys[t][0], keys[t][1] + data.draw(st.integers(1, p)))
        changed = _with_vector(coarse, x, keys)
        assert _kernel_report(bmap, fine, changed) == _oracle_report(bmap, fine, changed, p)

        # mutant: one fine vector with a duplicated or a dropped key
        y = data.draw(st.integers(0, n - 1))
        keys = list(fine.realization.vectors[y].keys)
        t = data.draw(st.integers(0, len(keys) - 1))
        if data.draw(st.booleans()):
            keys.insert(t, keys[t])
        else:
            del keys[t]
        mutated = _with_vector(fine, y, keys)
        assert _kernel_report(bmap, mutated, coarse) == _oracle_report(bmap, mutated, coarse, p)


def test_redirected_vertex_is_flagged_by_kernel_and_oracle():
    expansion, _ = group_expansion(3, 3)
    fine, coarse = expansion.levels[2], expansion.levels[1]
    bmap = expansion.bonding[1]
    # 0 and 3 sit at 3^-1; sending 0 to 1 puts their images at distance 1
    redirected = replace(bmap, vertex_map={**bmap.vertex_map, 0: 1})
    kernel = _kernel_report(redirected, fine, coarse)
    assert (0, 3) in kernel[0]
    assert kernel == _oracle_report(redirected, fine, coarse, 3)


@settings(max_examples=200, deadline=None)
@given(
    key_sets=st.lists(
        st.lists(st.tuples(st.integers(-1, 4), st.integers(0, 2)), max_size=6),
        min_size=1,
        max_size=6,
    )
)
def test_realized_table_matches_c0_distance(key_sets):
    # arbitrary key lists: repeats, gaps, and lists that are prefixes of others
    vectors = tuple(C0Vector(keys=tuple(keys)) for keys in key_sets)
    table, top = spectrum._realized_exponents(vectors)
    for v, x in enumerate(vectors):
        for w, y in enumerate(vectors):
            expected = x.distance(y).exponent
            assert table[v][w] == (top if expected is None else expected)


def test_zero_distance_merge_is_not_a_single_step():
    # two coinciding vectors (distance 0) merged at a fine scale one above
    # every key level: the stand-in for 0 must not pass for that scale
    space = random_code_space(random.Random(4), 2, 4)
    expansion = assemble_expansion(space)
    coarse = expansion.levels[-1]
    fine = _with_vector(coarse, 1, expansion.vectors[0].keys)
    _, top = spectrum._realized_exponents(fine.realization.vectors)
    fine = replace(fine, cover=replace(fine.cover, level=top + 1))
    vertex_map = {v: v for v in fine.nerve.vertices}
    vertex_map[1] = 0  # the only merged pair is the coinciding one
    bmap = replace(expansion.bonding[-1], vertex_map=vertex_map)
    kernel = _kernel_report(bmap, fine, coarse)
    assert kernel == _oracle_report(bmap, fine, coarse, space.prime)
    assert kernel[3] is False


def test_nonstretching_table_is_cached_by_equal_vectors():
    space = random_code_space(random.Random(11), 3, 12)
    expansion = assemble_expansion(space)
    vectors = expansion.vectors
    table, _ = spectrum._realized_exponents(vectors)
    copy = tuple(C0Vector(keys=tuple(v.keys)) for v in vectors)
    assert spectrum._realized_exponents(copy)[0] is table
    keys = list(vectors[0].keys)
    keys[-1] = (keys[-1][0], keys[-1][1] + 1)
    corrupted = (C0Vector(keys=tuple(keys)), *vectors[1:])
    misses = spectrum._realized_exponents.cache_info().misses
    spectrum._realized_exponents(corrupted)
    assert spectrum._realized_exponents.cache_info().misses == misses + 1


# ------------------------------------------------------ strong triangle

@st.composite
def exponent_matrices(draw):
    """Symmetric exponent matrices with INFINITY (None) on the diagonal.

    Half start from a dendrogram (codes, repeats allowed, so some
    off-diagonal entries are INFINITY) and get up to two entries
    perturbed; the rest draw every entry from a small pool with ties.
    """
    n = draw(st.integers(1, 8))
    pool = [None, 0, 1, 2, 3]
    m = [[None] * n for _ in range(n)]
    if draw(st.booleans()):
        codes = [draw(st.tuples(*[st.integers(0, 1)] * 3)) for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                e = next((t for t in range(3) if codes[i][t] != codes[j][t]), None)
                m[i][j] = m[j][i] = e
        if n >= 2:
            for _ in range(draw(st.integers(0, 2))):
                i = draw(st.integers(0, n - 2))
                j = draw(st.integers(i + 1, n - 1))
                m[i][j] = m[j][i] = draw(st.sampled_from(pool))
    else:
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = draw(st.sampled_from(pool))
    return m


@settings(max_examples=300, deadline=None)
@given(expo=exponent_matrices(), p=st.sampled_from([2, 3, 5]))
def test_strong_triangle_check_matches_threshold_oracle(expo, p):
    n = len(expo)
    dist = tuple(tuple(GAMMA_ZERO if e is None else GammaValue(e) for e in row) for row in expo)
    values = [[Fraction(0) if e is None else Fraction(p) ** (-e) for e in row] for row in expo]
    brute = violating_triples(values)
    holds = strong_triangle_by_thresholds(expo)
    assert holds == (not brute)
    labels = tuple(f"v{i}" for i in range(n))
    if holds:
        assert UltraSpace(labels=labels, prime=p, dist=dist).dist == dist
    else:
        with pytest.raises(NotUltrametricError) as err:
            UltraSpace(labels=labels, prime=p, dist=dist)
        assert err.value.triple == brute[0]


# ---------------------------------------------------------- pair norms

@settings(max_examples=300, deadline=None)
@given(points=padic_families())
def test_difference_exponents_match_padic_subtraction(points):
    table = difference_exponents(points)
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            assert table[i][j] == (x - y).norm().exponent


def test_space_from_points_matches_subtraction_on_residues():
    rng = random.Random(3)
    points = [PAdic.from_int(rng.randrange(1, 5**6), 5, 8) for _ in range(30)]
    space = space_from_points(points)
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            assert space.dist[i][j] == (x - y).norm()


# ------------------------------------------------------------ primality

def test_is_prime_matches_trial_division():
    assert [n for n in range(20000) if is_prime(n)] == [
        n for n in range(20000) if trial_division_is_prime(n)
    ]


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_strong_pseudoprimes_are_rejected(n):
    assert not is_prime(n)


@pytest.mark.parametrize("exponent", [61, 89])
def test_mersenne_primes_are_accepted_quickly(exponent):
    is_prime.cache_clear()
    t0 = time.perf_counter()
    assert is_prime(2**exponent - 1)
    assert time.perf_counter() - t0 < 0.5


def test_primality_beyond_certificates_is_not_guessed():
    with pytest.raises(PrimalityUnknownError):
        is_prime(UNDECIDABLE_PRIME)
    assert not is_prime(UNDECIDABLE_PRIME * 43)  # no factor up to 41: Miller-Rabin decides


# ------------------------------------------------------- cost guards

def test_verify_nonstretching_makes_no_distance_calls(monkeypatch):
    space = random_code_space(random.Random(64), 2, 64)
    expansion = assemble_expansion(space)
    calls = []
    original = C0Vector.distance

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(C0Vector, "distance", counting)
    expansion.vectors[0].distance(expansion.vectors[1])
    assert len(calls) == 1  # the counter is live
    spectrum._realized_exponents.cache_clear()
    for m, bmap in enumerate(expansion.bonding):
        entry = verify_nonstretching(bmap, expansion.levels[m + 1], expansion.levels[m])
        assert entry["violations"] == []
    assert len(calls) == 1


def test_space_from_points_builds_no_padic(monkeypatch):
    rng = random.Random(64)
    points = [PAdic.from_digit_stream([rng.randrange(2) for _ in range(12)], 2) for _ in range(64)]
    built = []
    original = PAdic.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PAdic, "__init__", counting)
    PAdic.zero(2, 4)
    assert len(built) == 1  # the counter is live
    space_from_points(points)
    assert len(built) == 1
