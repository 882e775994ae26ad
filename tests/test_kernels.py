"""Integer kernels against their brute-force oracles, and guards on their cost.

The kernels: the non-stretching check, which compares two merge trees,
the p-adic pair norms from digit windows, the single-linkage strong
triangle check, and the exact primality test.
"""

import random
import time
from fractions import Fraction
from functools import cached_property

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
    baire_encode,
    c0_embed,
    group_expansion,
    padic,
    space_from_points,
    verify_nonstretching,
)
from ultrapoly.nerve import NerveComplex, Realization, ScaleCover
from ultrapoly.padic import PrimalityUnknownError, is_prime
from ultrapoly.spaces import _Embedding
from ultrapoly.spectrum import BondingMap, Level

from corpus import UNDECIDABLE_PRIME, padic_families, random_code_space, replace
from oracles import (
    difference_exponents,
    embedding_tree_by_sorting,
    pair_witnesses,
    pairwise_nonstretching,
    per_map_ball_certificate,
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


def _on_embedding(level, vectors):
    return replace(level, realization=Realization(vectors=vectors, cells=level.realization.cells))


def _draw_embedding(data, vectors, low, high):
    """The vectors after a few edits: keys repeated or dropped, a key list
    cut to a prefix of another's, a vector copied (distance 0), a key added
    or a whole list drawn anew, at levels from ``low`` to ``high``."""
    key_lists = [list(vector.keys) for vector in vectors]
    n = len(key_lists)
    new_key = st.tuples(st.integers(low, high), st.integers(0, 2))
    for _ in range(data.draw(st.integers(0, 4))):
        x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        keys = key_lists[x]
        edit = data.draw(st.sampled_from(["repeat", "drop", "prefix", "copy", "add", "anew"]))
        if edit in ("repeat", "drop") and keys:
            t = data.draw(st.integers(0, len(keys) - 1))
            if edit == "repeat":
                keys.insert(t, keys[t])
            else:
                del keys[t]
        elif edit == "prefix":
            other = sorted(set(key_lists[y]))
            key_lists[x] = other[: data.draw(st.integers(0, len(other)))]
        elif edit == "copy":
            key_lists[x] = list(key_lists[y])
        elif edit == "add":
            keys.insert(data.draw(st.integers(0, len(keys))), data.draw(new_key))
        elif edit == "anew":
            key_lists[x] = data.draw(st.lists(new_key, max_size=6))
    return tuple(C0Vector(keys=tuple(keys)) for keys in key_lists)


def _one_step_mutant(vectors, x, y):
    """The vectors with one key of x changed, so that d(x, y) grows by one step; None if it cannot."""
    e = vectors[x].distance(vectors[y]).exponent
    keys = list(vectors[x].keys)
    at = [t for t, (level, _) in enumerate(keys) if level == e - 1] if e is not None else []
    if not at:
        return None
    keys[at[0]] = (e - 1, -1)  # a symbol no code uses
    mutant = (*vectors[:x], C0Vector(keys=tuple(keys)), *vectors[x + 1 :])
    assert mutant[x].distance(mutant[y]).exponent == e - 1
    return mutant


def test_nonstretching_routes_match_pairwise_oracle_on_shared_embeddings(monkeypatch):
    # both levels carry one embedding, read through its one merge tree:
    # no vector distance is computed, whether the map passes or fails
    outcomes = {"passed": 0, "failed": 0}
    calls = []
    original = C0Vector.distance

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(C0Vector, "distance", counting)

    def check(bmap, fine, coarse, p):
        before = len(calls)
        kernel = _kernel_report(bmap, fine, coarse)
        assert len(calls) == before
        if len(fine.nerve.vertices) >= 2:
            outcomes["failed" if kernel[0] else "passed"] += 1
        assert kernel == _oracle_report(bmap, fine, coarse, p)
        return kernel

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.sampled_from([2, 3, 5]),
        n=st.integers(1, 12),
        k=st.integers(0, 2),
        data=st.data(),
    )
    def shared_embeddings(seed, p, n, k, data):
        space = random_code_space(random.Random(seed), p, n)
        expansion = assemble_expansion(space, Schedule.auto(space, k_shift=k))
        js = expansion.schedule.j
        vectors = _draw_embedding(data, expansion.vectors, js[0] - 2, js[-1] + 2)
        for m, bmap in enumerate(expansion.bonding):
            fine, coarse = expansion.levels[m + 1], expansion.levels[m]
            check(bmap, _on_embedding(fine, vectors), _on_embedding(coarse, vectors), p)

            # the one-step mutant: d(x, y) of two coarse vertices grows by one step
            if len(coarse.nerve.vertices) < 2:
                continue
            x, y = sorted(data.draw(st.permutations(coarse.nerve.vertices))[:2])
            if data.draw(st.booleans()):
                x, y = y, x
            mutant = _one_step_mutant(expansion.vectors, x, y)
            if mutant is None:
                continue
            # on the coarse level alone: the pair itself is stretched
            kernel = check(bmap, fine, _on_embedding(coarse, mutant), p)
            assert sorted([x, y]) in map(list, kernel[0])
            # shared by both levels: stretched as soon as x's ball holds another vertex
            kernel = check(bmap, _on_embedding(fine, mutant), _on_embedding(coarse, mutant), p)
            if sum(w == x for w in bmap.vertex_map.values()) > 1:
                assert kernel[0]

    shared_embeddings()
    assert outcomes["passed"] and outcomes["failed"]


KEY = st.tuples(st.integers(-2, 5), st.integers(0, 2))


@st.composite
def hand_built_embeddings(draw):
    """Key lists in any order and with repeated keys; some are prefixes (as
    sorted sets) of others, a full-length prefix being a copy."""
    key_lists: list[list] = []
    for _ in range(draw(st.integers(1, 9))):
        if key_lists and draw(st.booleans()):
            other = sorted(set(draw(st.sampled_from(key_lists))))
            keys = other[: draw(st.integers(0, len(other)))]
        else:
            keys = draw(st.lists(KEY, max_size=6))
        if keys and draw(st.booleans()):
            keys.append(draw(st.sampled_from(keys)))
        key_lists.append(draw(st.permutations(keys)))
    return tuple(C0Vector(keys=tuple(keys)) for keys in key_lists)


def _strictly_increasing(vectors):
    """The vectors with each key list sorted as a set, as ``c0_embed`` writes them."""
    return tuple(C0Vector(keys=tuple(sorted(set(v.keys)))) for v in vectors)


@settings(max_examples=300, deadline=None)
@given(
    vectors=st.one_of(
        hand_built_embeddings(),
        hand_built_embeddings().map(_strictly_increasing),
        st.builds(
            lambda seed, n: c0_embed(baire_encode(random_code_space(random.Random(seed), 3, n))),
            st.integers(0, 10**6),
            st.integers(2, 24),
        ),
    )
)
def test_embedding_tree_matches_sorting_every_key_list(vectors):
    # keys taken as they are when they increase strictly, sorted as a set otherwise
    tree = _Embedding(vectors).tree
    assert (tree.order, tree.heights) == embedding_tree_by_sorting([v.keys for v in vectors])


def _ball_images(verts, vectors, scale):
    """Each vertex sent to the least vertex of its ball of radius p^-scale: a certified map."""
    def same_ball(v, w):
        e = vectors[v].distance(vectors[w]).exponent
        return e is None or e >= scale

    return [min(w for w in verts if same_ball(v, w)) for v in verts]


def _entry_on(vectors, image_vectors, verts, images, step):
    """``verify_nonstretching``'s entry, as a triple, for verts sent to images (None: unmapped).

    The fine level holds verts on vectors, at the scale one step above
    step; the coarse level holds image_vectors.  Nothing else of either
    level is read.
    """
    fine = Level(
        1,
        ScaleCover(level=step + 1, blocks=()),
        NerveComplex(1, step + 1, GammaValue(step + 1), tuple(verts), ()),
        Realization(vectors, ()),
    )
    coarse = Level(
        0,
        ScaleCover(level=step, blocks=()),
        NerveComplex(0, step, GammaValue(step), (), ()),
        Realization(image_vectors, ()),
    )
    entry = verify_nonstretching(BondingMap(1, 0, dict(zip(verts, images))), fine, coarse)
    return entry["violations"], entry["merged_pairs"], entry["single_step_contraction"]


def test_nonstretching_matches_the_per_map_reference():
    routes = {"certified": 0, "refused": 0, "two embeddings": 0}

    @settings(max_examples=300, deadline=None)
    @given(vectors=hand_built_embeddings(), data=st.data())
    def parity(vectors, data):
        n = len(vectors)
        # vertices in any order; the images on the same embedding or on another
        verts = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        for _ in range(data.draw(st.integers(1, 3))):
            scale, step = data.draw(st.integers(-3, 7)), data.draw(st.integers(-3, 7))
            images = _ball_images(verts, vectors, scale)
            # a few images redirected: to a point, unmapped (None) or out of range
            other = st.one_of(st.integers(-2, n + 2), st.none())
            for t in data.draw(st.lists(st.integers(0, n - 1), max_size=2)):
                if t < len(images):
                    images[t] = data.draw(other)
            image_vectors = data.draw(st.one_of(st.just(vectors), hand_built_embeddings()))
            got = _entry_on(vectors, image_vectors, verts, images, step)
            mapped = [
                iv if type(iv) is int and 0 <= iv < len(image_vectors) else None for iv in images
            ]
            assert got == pair_witnesses(verts, mapped, vectors, image_vectors, step)
            if image_vectors is not vectors:
                routes["two embeddings"] += 1
                continue
            certified = per_map_ball_certificate(verts, mapped, vectors, scale, step)
            routes["refused" if certified is None else "certified"] += 1
            if certified is not None:
                assert got == certified

    parity()
    assert all(routes.values())


def test_alternating_expansions_each_read_their_own_tree(monkeypatch):
    # one size, two embeddings that order the points apart: a tree read
    # for the wrong one would miscount
    a, b = (
        assemble_expansion(random_code_space(random.Random(seed), 2, 24)) for seed in (1, 2)
    )
    assert a.depth == b.depth and a.vectors != b.vectors
    expected = {
        id(e): [
            _oracle_report(bmap, e.levels[m + 1], e.levels[m], 2) for m, bmap in enumerate(e.bonding)
        ]
        for e in (a, b)
    }
    calls = []
    original = C0Vector.distance

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(C0Vector, "distance", counting)
    for m in range(a.depth - 1):
        for e in (a, b, a, b):
            fine, coarse = e.levels[m + 1], e.levels[m]
            assert _kernel_report(e.bonding[m], fine, coarse) == expected[id(e)][m]
            # every level holds its expansion's embedding, which holds its tree
            assert fine.realization.vectors is coarse.realization.vectors is e.vectors
            assert "tree" in vars(e.vectors)
    assert a.vectors.tree.order != b.vectors.tree.order
    assert calls == []


def test_zero_distance_merge_is_not_a_single_step():
    # two coinciding vectors (distance 0) merged at a fine scale one above
    # every key level: distance 0 must not pass for that scale
    space = random_code_space(random.Random(4), 2, 4)
    expansion = assemble_expansion(space)
    coarse = expansion.levels[-1]
    fine = _with_vector(coarse, 1, expansion.vectors[0].keys)
    top = max(level for vector in fine.realization.vectors for level, _ in vector.keys) + 1
    fine = replace(fine, cover=replace(fine.cover, level=top + 1))
    vertex_map = {v: v for v in fine.nerve.vertices}
    vertex_map[1] = 0  # the only merged pair is the coinciding one
    bmap = replace(expansion.bonding[-1], vertex_map=vertex_map)
    kernel = _kernel_report(bmap, fine, coarse)
    assert kernel == _oracle_report(bmap, fine, coarse, space.prime)
    assert kernel[3] is False


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
        assert err.value.triple == brute[0] and len(err.value.violations) == len(brute)


# ---------------------------------------------------------- pair norms

@settings(max_examples=300, deadline=None)
@given(points=padic_families())
def test_difference_exponents_match_padic_subtraction(points):
    # the oracle reads each point's fields, subtraction carries digit by digit
    table = difference_exponents(points)
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            assert table[i][j] == (x - y).norm().exponent


@settings(max_examples=300, deadline=None)
@given(points=padic_families())
def test_point_spaces_match_padic_subtraction(points):
    table = [[(x - y).norm().exponent for y in points] for x in points]
    try:
        rows = space_from_points(points).tree.rows()
    except NotUltrametricError:
        assert not strong_triangle_by_thresholds(table)
        return
    assert strong_triangle_by_thresholds(table)
    assert rows == table


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


# 2q + 1 for a q of 60 digits with no factor below 2^16: a base-2 probable
# prime past the exact bound, which no certificate decides
LONG_UNDECIDABLE = 1061082831412964098588329806973690902551277063805026923335203


def test_a_long_refused_number_is_echoed_by_its_leading_digits():
    with pytest.raises(PrimalityUnknownError) as raised:
        is_prime(LONG_UNDECIDABLE)
    assert str(raised.value).startswith(
        "cannot decide whether 10610828314129640985... (61 digits) is prime: "
    )
    # fifty digits or fewer are written out, as before
    with pytest.raises(PrimalityUnknownError, match=f"whether {UNDECIDABLE_PRIME} is prime"):
        is_prime(UNDECIDABLE_PRIME)
    assert padic._echo(10**50 - 1) == "9" * 50
    assert padic._echo(-(10**50)) == "-10000000000000000000... (51 digits)"
    assert padic._echo(2**20000).endswith("... (6021 digits)")  # past int-to-text's limit
    assert padic._echo("7") == "'7'" and padic._echo(True) == "True"


def test_a_prime_with_no_certificate_is_refused_after_one_modular_power(monkeypatch):
    # 2^1279 - 1 is prime, and 2^1279 - 2 does not factor by trial division far
    # enough for a certificate: the factoring runs after the base-2 round alone
    calls = []

    def counted_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(padic, "pow", counted_pow, raising=False)
    is_prime.cache_clear()
    with pytest.raises(PrimalityUnknownError):
        is_prime(2**1279 - 1)
    assert len(calls) <= 1
    # control: the spy sees every round of a prime below the bound
    calls.clear()
    is_prime.cache_clear()
    assert is_prime(2**61 - 1) and len(calls) == 13


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
    for m, bmap in enumerate(expansion.bonding):
        entry = verify_nonstretching(bmap, expansion.levels[m + 1], expansion.levels[m])
        assert entry["violations"] == []
    assert len(calls) == 1


def test_verify_builds_the_embedding_tree_once(monkeypatch):
    space = random_code_space(random.Random(64), 2, 64)
    expansion = assemble_expansion(space)
    assert expansion.depth > 2
    built = []
    original = _Embedding.tree.func

    def counting(self):
        built.append(1)
        return original(self)

    tree = cached_property(counting)
    tree.__set_name__(_Embedding, "tree")
    monkeypatch.setattr(_Embedding, "tree", tree)
    _Embedding(expansion.vectors).tree  # a copy holds a tree of its own
    assert len(built) == 1  # the counter is live
    for m, bmap in enumerate(expansion.bonding):
        verify_nonstretching(bmap, expansion.levels[m + 1], expansion.levels[m])
    assert len(built) == 2


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
