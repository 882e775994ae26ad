"""Merge-tree routes against the former pairwise routes, and a guard on their cost.

Covers, nerves, bonding maps, cell radii, the uniformity and isolation
checks, Baire codes and functoriality are read off each space's merge
tree; the oracles in oracles.py recompute them by the pairwise scans and
subset searches they replace, on exact fractions.
"""

import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ultrapoly import (
    GAMMA_ZERO,
    Expansion,
    GammaValue,
    NestingError,
    Realization,
    ScaleCover,
    Schedule,
    ScheduleError,
    ThresholdError,
    UltraSpace,
    assemble_expansion,
    baire_encode,
    bonding_map,
    build_nerve,
    check_uniform,
    cover_tower,
    group_expansion,
    isolated_point_check,
    realize,
    residue_space,
    scale_cover,
    subdivide,
    verify_nondegenerate,
)
from ultrapoly import IncoherentThreadError, NotUltrametricError, PAdic, limit_isometry_check
from ultrapoly import nerve as nerve_module
from ultrapoly import spaces as spaces_module
from ultrapoly import space_from_points
from ultrapoly.cli import RunReport, _verify_expansion
from ultrapoly.nerve import RealizedCell
from ultrapoly.spaces import MergeTree
from ultrapoly.spectrum import BondingMap, Level, _containment, _shift_invariant

from corpus import padic_families, prefix_chain_families, random_code_space, replace
from oracles import (
    all_pairs_functoriality,
    closure_classes,
    containment_bonding,
    difference_exponents,
    greedy_threshold_classes,
    label_ranked_codes,
    pairwise_diameter,
    pairwise_isolation,
    pairwise_nerve,
    pairwise_separation,
    pairwise_limit_recovery,
    pairwise_set_distance,
    pairwise_shift_invariant,
    pairwise_stretched,
    strong_triangle_by_thresholds,
    thread_preimage,
    tree_meet,
)

PRIMES = st.sampled_from([2, 3, 5])


@st.composite
def ultrametric_exponents(draw, separated=False):
    """Exponent matrices of ultrametrics, None for distance zero.

    Two points sit at the exponent of the first digit where their codes
    differ, through a strictly increasing exponent per digit position
    (starting anywhere in -2..2), so ties are common; repeated codes give
    distance zero unless the matrix must be separated.
    """
    width = draw(st.integers(1, 4))
    n = draw(st.integers(1, min(12, 3**width) if separated else 12))
    base = draw(st.integers(-2, 2))
    steps = draw(st.lists(st.integers(1, 2), min_size=width, max_size=width))
    exponent_at = [base + sum(steps[:t]) for t in range(width)]
    codes = draw(
        st.lists(
            st.tuples(*[st.integers(0, 2)] * width), min_size=n, max_size=n, unique=separated
        )
    )
    return [
        [next((exponent_at[t] for t in range(width) if a[t] != b[t]), None) for b in codes]
        for a in codes
    ]


def _space(expo, p, labels=None):
    n = len(expo)
    return UltraSpace(
        labels=tuple(labels or (f"v{i}" for i in range(n))),
        prime=p,
        dist=tuple(tuple(GammaValue(e) for e in row) for row in expo),
    )


def _fractions(expo, p):
    return [[Fraction(0) if e is None else Fraction(p) ** -e for e in row] for row in expo]


def _scales(expo):
    """Cover exponents from one above every distance to one below the smallest."""
    finite = sorted({e for row in expo for e in row if e is not None}) or [0]
    return range(finite[0] - 1, finite[-1] + 2)


def _value(g, p):
    return None if g is None else g.as_fraction(p)


def _assert_uniform_matches(space, dist, realization, p):
    report = check_uniform(space, realization)
    supports = [cell.support for cell in realization.cells]
    inf_dist = report["inf_dist"]
    assert report["sup_diam"] == max(cell.radius for cell in realization.cells).to_json()
    if inf_dist is not None:
        inf_dist = GammaValue.from_json(inf_dist)
    assert _value(inf_dist, p) == pairwise_separation(dist, supports)
    assert report["is_uniform"] == (report["inf_dist"] != GAMMA_ZERO.to_json())


@settings(max_examples=100, deadline=None)
@given(expo=ultrametric_exponents(), p=PRIMES, data=st.data())
def test_cuts_match_pairwise_routes(expo, p, data):
    n = len(expo)
    space, dist = _space(expo, p), _fractions(expo, p)
    finite = sorted({e for row in expo for e in row if e is not None})
    assert space.finite_exponents() == finite
    off_diagonal = [expo[i][j] for i in range(n) for j in range(n) if i != j]
    assert space.is_separated == (None not in off_diagonal)
    assert space.tree.rows() == expo  # the table written from the tree, None included
    assert space.tree.classes(None) == greedy_threshold_classes(dist, Fraction(0))
    for j in _scales(expo):
        classes = greedy_threshold_classes(dist, Fraction(p) ** -j)
        assert space.tree.classes(j) == classes == closure_classes(expo, j)
        assert scale_cover(space, j).blocks == tuple(classes)
    # diameters and set distances of arbitrary point sets, repeats allowed
    a = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    b = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    assert space.diameter(a).as_fraction(p) == pairwise_diameter(dist, a)
    if a:
        assert space.set_distance(a, b).as_fraction(p) == pairwise_set_distance(dist, a, b)
    else:
        with pytest.raises(ValueError):
            space.set_distance(a, b)


@settings(max_examples=100, deadline=None)
@given(
    expo=ultrametric_exponents(),
    p=PRIMES,
    k=st.integers(0, 2),
    shift=st.integers(-1, 1),
    default_b=st.booleans(),
    data=st.data(),
)
def test_nerves_radii_and_uniformity_match_pairwise_routes(expo, p, k, shift, default_b, data):
    space, dist = _space(expo, p), _fractions(expo, p)
    for j in _scales(expo):
        cover = scale_cover(space, j)
        b = None if default_b else GammaValue(j + shift)
        want = pairwise_nerve(dist, list(cover.blocks), Fraction(p) ** k, _value(b, p))
        if want is None:
            with pytest.raises(ThresholdError):
                build_nerve(space, cover, k=k, b=b)
            continue
        nerve = build_nerve(space, cover, k=k, b=b, level=7)
        assert (nerve.threshold.as_fraction(p), list(nerve.maximal_simplexes)) == want
        assert (nerve.level, nerve.scale, nerve.vertices) == (7, j, cover.representatives)
        realization = realize(space, cover, nerve, ())
        for cell in realization.cells:
            assert cell.radius.as_fraction(p) == pairwise_diameter(dist, cell.support)
        _assert_uniform_matches(space, dist, realization, p)
        finer = subdivide(space, realization, data.draw(st.integers(1, 3)))
        _assert_uniform_matches(space, dist, finer, p)


@settings(max_examples=100, deadline=None)
@given(expo=ultrametric_exponents(), p=PRIMES, k=st.integers(0, 2), data=st.data())
def test_nerve_over_arbitrary_blocks_matches_pairwise_route(expo, p, k, data):
    # blocks need not be balls: any partition, with b drawn around its diameters
    n = len(expo)
    space, dist = _space(expo, p), _fractions(expo, p)
    tags = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    blocks = {}
    for x, tag in enumerate(tags):
        blocks.setdefault(tag, []).append(x)
    cover = ScaleCover(level=0, blocks=tuple(map(tuple, blocks.values())))
    b = data.draw(st.one_of(st.none(), st.just(GAMMA_ZERO), st.integers(-3, 4).map(GammaValue)))
    want = pairwise_nerve(dist, list(cover.blocks), Fraction(p) ** k, _value(b, p))
    if want is None:
        with pytest.raises(ThresholdError):
            build_nerve(space, cover, k=k, b=b)
    else:
        nerve = build_nerve(space, cover, k=k, b=b)
        assert (nerve.threshold.as_fraction(p), list(nerve.maximal_simplexes)) == want


@settings(max_examples=100, deadline=None)
@given(expo=ultrametric_exponents(), p=PRIMES, data=st.data())
def test_uniformity_of_arbitrary_cells_matches_pairwise_route(expo, p, data):
    # cells may overlap, repeat points and carry any radius
    n = len(expo)
    space, dist = _space(expo, p), _fractions(expo, p)
    supports = data.draw(
        st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=n), min_size=1, max_size=5)
    )
    radius = st.one_of(st.just(GAMMA_ZERO), st.integers(-2, 4).map(GammaValue))
    cells = tuple(
        RealizedCell(simplex=(s[0],), support=tuple(s), center=s[0], radius=data.draw(radius))
        for s in supports
    )
    _assert_uniform_matches(space, dist, Realization(vectors=(), cells=cells), p)


@settings(max_examples=100, deadline=None)
@given(expo=ultrametric_exponents(), p=PRIMES, j=st.integers(1, 3), data=st.data())
def test_subdivision_matches_greedy_route(expo, p, j, data):
    # supports in any order with repeats, any radius, zero included: each
    # cell's parts are the greedy classes of {d <= r * p^-j} on its support
    n = len(expo)
    space, dist = _space(expo, p), _fractions(expo, p)
    supports = data.draw(
        st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=n), min_size=1, max_size=5)
    )
    radius = st.one_of(st.just(GAMMA_ZERO), st.integers(-2, 4).map(GammaValue))
    cells = tuple(
        RealizedCell(simplex=(s[0],), support=tuple(s), center=s[0], radius=data.draw(radius))
        for s in supports
    )
    want = []
    for cell in cells:
        sub_radius = cell.radius.scaled(-j)
        within = [[dist[x][y] for y in cell.support] for x in cell.support]
        for cls in greedy_threshold_classes(within, sub_radius.as_fraction(p)):
            part = tuple(cell.support[i] for i in cls)
            want.append(
                RealizedCell(simplex=cell.simplex, support=part, center=part[0], radius=sub_radius)
            )
    assert subdivide(space, Realization(vectors=(), cells=cells), j).cells == tuple(want)


def _move_point(blocks, x, target):
    """The blocks with point x moved into blocks[target], sorted as a cover's are."""
    moved = [
        sorted({*block, x}) if i == target else [v for v in block if v != x]
        for i, block in enumerate(blocks)
    ]
    return tuple(sorted((tuple(block) for block in moved if block), key=lambda block: block[0]))


@settings(max_examples=100, deadline=None)
@given(
    expo=ultrametric_exponents(),
    p=PRIMES,
    k=st.integers(0, 2),
    shift=st.integers(-1, 1),
    data=st.data(),
)
def test_isolation_matches_pairwise_route(expo, p, k, shift, data):
    n = len(expo)
    space, dist = _space(expo, p), _fractions(expo, p)
    levels = []
    for j in _scales(expo):
        cover = scale_cover(space, j)
        b = GammaValue(j + shift) if shift <= k else None
        levels.append((cover, build_nerve(space, cover, k=k, b=b)))
    levels = data.draw(st.permutations(levels))[: data.draw(st.integers(1, len(levels)))]
    if n > 1 and data.draw(st.booleans()):
        # mutant: one point moved into another block of one cover
        m = data.draw(st.integers(0, len(levels) - 1))
        cover, nerve = levels[m]
        x = data.draw(st.integers(0, n - 1))
        target = data.draw(st.integers(0, len(cover.blocks) - 1))
        moved = ScaleCover(level=cover.level, blocks=_move_point(cover.blocks, x, target))
        levels[m] = (moved, build_nerve(space, moved, k=k))
    report = isolated_point_check(space, levels)
    first, violations = pairwise_isolation(
        dist,
        [
            (
                Fraction(p) ** -cover.level,
                nerve.threshold.as_fraction(p),
                list(cover.blocks),
                list(nerve.maximal_simplexes),
            )
            for cover, nerve in levels
        ],
    )
    assert report["first_level"] == first
    assert report["violations"] == [list(v) for v in violations]


@settings(max_examples=100, deadline=None)
@given(expo=ultrametric_exponents(separated=True), p=PRIMES, data=st.data())
def test_baire_codes_match_pairwise_route(expo, p, data):
    n = len(expo)
    labels = data.draw(st.permutations([f"v{i:02d}" for i in range(n)]))
    codes = baire_encode(_space(expo, p, labels))
    finite = sorted({e for row in expo for e in row if e is not None})
    start, depth = (min(1, finite[0]), finite[-1] + 1) if finite else (1, 1)
    assert (codes.start, codes.depth) == (start, depth)
    assert list(codes.codes) == label_ranked_codes(expo, list(labels), start, depth)


def _level(space, m, cover, k):
    """Level m over an arbitrary cover, with no realization."""
    return Level(m, cover, build_nerve(space, cover, k=k, level=m), None)


def _covers(expo, space, data):
    """The scale covers of the space, one of them perhaps with a point moved or dropped."""
    covers = [scale_cover(space, j) for j in _scales(expo)]
    mutant = data.draw(st.sampled_from(["none", "move", "drop"]))
    if len(expo) > 1 and mutant != "none":
        m = data.draw(st.integers(0, len(covers) - 1))
        blocks = covers[m].blocks
        x = data.draw(st.integers(0, len(expo) - 1))
        if mutant == "move":
            blocks = _move_point(blocks, x, data.draw(st.integers(0, len(blocks) - 1)))
        else:
            blocks = tuple(b for b in (tuple(v for v in b if v != x) for b in blocks) if b)
        covers[m] = ScaleCover(level=covers[m].level, blocks=blocks)
    return covers


@settings(max_examples=100, deadline=None)
@given(expo=ultrametric_exponents(), p=PRIMES, data=st.data())
def test_bonding_maps_match_containment_route(expo, p, data):
    space = _space(expo, p)
    covers = _covers(expo, space, data)
    ks = data.draw(st.lists(st.integers(0, 2), min_size=len(covers), max_size=len(covers)))
    levels = [_level(space, m, cover, k) for m, (cover, k) in enumerate(zip(covers, ks))]
    # every ordered pair of levels, so finer onto coarser and the reverse
    for fine in levels:
        for coarse in levels:
            kind, found = containment_bonding(
                fine.cover.blocks,
                coarse.cover.blocks,
                fine.nerve.maximal_simplexes,
                coarse.nerve.maximal_simplexes,
            )
            if kind == "block":
                message = f"block {found} of level {fine.m} crosses blocks of level {coarse.m}"
            elif kind == "simplex":
                message = (
                    f"simplex {found} of level {fine.m} has no containing simplex "
                    f"at level {coarse.m}"
                )
            else:
                bmap = bonding_map(fine, coarse)
                assert (bmap.fine, bmap.coarse, bmap.vertex_map) == (fine.m, coarse.m, found)
                # collapsed simplexes, on the clean map and with one entry redirected
                vertex_maps = [found]
                if data.draw(st.booleans()):
                    v = data.draw(st.sampled_from(fine.nerve.vertices))
                    w = data.draw(st.sampled_from(coarse.nerve.vertices))
                    vertex_maps.append({**found, v: w})
                for images in vertex_maps:
                    collapsed = [
                        i
                        for i, s in enumerate(fine.nerve.maximal_simplexes)
                        if len(s) >= 2 and len({images[v] for v in s}) == 1
                    ]
                    assert verify_nondegenerate(replace(bmap, vertex_map=images), fine) == {
                        "from": fine.m,
                        "to": coarse.m,
                        "collapsed_simplexes": collapsed,
                    }
                continue
            with pytest.raises(NestingError) as raised:
                bonding_map(fine, coarse)
            assert str(raised.value) == message


@settings(max_examples=100, deadline=None)
@given(expo=ultrametric_exponents(), p=PRIMES, data=st.data())
def test_cover_tower_matches_containment_route(expo, p, data):
    space = _space(expo, p)
    # the covers in any order, so that a tower may run coarser as well as finer
    tower = data.draw(st.permutations(_covers(expo, space, data)))
    expected = None
    for coarse, fine in zip(tower, tower[1:]):
        kind, block = containment_bonding(fine.blocks, coarse.blocks, [], [])
        if kind == "block":
            expected = f"block {block} at scale {fine.level} crosses blocks at scale {coarse.level}"
            break
    served = iter(tower)
    with mock.patch.object(nerve_module, "scale_cover", lambda space, j: next(served)):
        if expected is None:
            assert cover_tower(space, 0, len(tower) - 1) == list(tower)
        else:
            with pytest.raises(NestingError) as raised:
                cover_tower(space, 0, len(tower) - 1)
            assert str(raised.value) == expected


def _oracle_functoriality(expansion):
    return all_pairs_functoriality(
        [level.cover.rep_of for level in expansion.levels],
        [list(level.nerve.vertices) for level in expansion.levels],
        [bmap.vertex_map for bmap in expansion.bonding],
    )


def _outcome(route):
    try:
        return route()
    except KeyError:
        return KeyError


def _redirected(expansion, m, v, target):
    bmap = expansion.bonding[m]
    bonding = list(expansion.bonding)
    bonding[m] = replace(bmap, vertex_map={**bmap.vertex_map, v: target})
    return replace(expansion, bonding=tuple(bonding))


def _moved(expansion, m, x, target):
    level = expansion.levels[m]
    blocks = _move_point(level.cover.blocks, x, target)
    levels = list(expansion.levels)
    levels[m] = replace(level, cover=ScaleCover(level=level.cover.level, blocks=blocks))
    return replace(expansion, levels=tuple(levels))


def _dropped(expansion):
    """Level 1 and the map into it removed: level 2 maps straight onto level 0."""
    return replace(
        expansion, levels=expansion.levels[:1] + expansion.levels[2:], bonding=expansion.bonding[1:]
    )


def _vertex_dropped(expansion, c, w):
    """Vertex w removed from level c and from the map into level c."""
    levels, bonding = list(expansion.levels), list(expansion.bonding)
    nerve = levels[c].nerve
    vertices = tuple(v for v in nerve.vertices if v != w)
    levels[c] = replace(levels[c], nerve=replace(nerve, vertices=vertices))
    vertex_map = {v: t for v, t in bonding[c - 1].vertex_map.items() if v != w}
    bonding[c - 1] = replace(bonding[c - 1], vertex_map=vertex_map)
    return replace(expansion, levels=tuple(levels), bonding=tuple(bonding))


def _assert_functoriality_matches(expansion):
    mine = _outcome(expansion.verify_functoriality)
    assert mine == _outcome(lambda: _oracle_functoriality(expansion))
    return mine


@settings(max_examples=100, deadline=None)
@given(
    expo=ultrametric_exponents(separated=True),
    p=PRIMES,
    k=st.integers(0, 2),
    shift=st.integers(-1, 1),
    data=st.data(),
)
def test_functoriality_matches_all_pairs_route(expo, p, k, shift, data):
    space = _space(expo, p)
    expansion = assemble_expansion(space, Schedule.auto(space, k_shift=k, b_shift=min(shift, k)))
    assert _assert_functoriality_matches(expansion) == []
    levels = expansion.levels
    if len(levels) < 2:
        return

    m = data.draw(st.integers(0, len(levels) - 2))
    v = data.draw(st.sampled_from(levels[m + 1].nerve.vertices))
    target = data.draw(st.sampled_from(levels[m].nerve.vertices))
    flagged = _assert_functoriality_matches(_redirected(expansion, m, v, target))
    if target != expansion.bonding[m].vertex_map[v]:
        assert (m + 1, m) in flagged

    # mutant: one point moved into another block of one level, the finest included
    split = [c for c, level in enumerate(levels) if len(level.cover.blocks) > 1]
    c = data.draw(st.sampled_from(split))
    blocks = levels[c].cover.blocks
    x = data.draw(st.integers(0, len(expo) - 1))
    target = data.draw(st.sampled_from([i for i, block in enumerate(blocks) if x not in block]))
    assert _assert_functoriality_matches(_moved(expansion, c, x, target))

    if len(levels) >= 3:
        flagged = _assert_functoriality_matches(_dropped(expansion))
        if len(levels[1].nerve.vertices) > len(levels[0].nerve.vertices) == 1:
            assert (1, 0) in flagged


def test_functoriality_mutants_of_z27_are_flagged():
    expansion, _ = group_expansion(3, 3)
    assert expansion.verify_functoriality() == []
    mutants = [
        _redirected(expansion, 1, 0, 1),
        _moved(expansion, 2, 3, 1),
        _moved(expansion, 3, 9, 0),  # only the finest level's own pair breaks
        _dropped(expansion),
    ]
    for mutant in mutants:
        flagged = _assert_functoriality_matches(mutant)
        assert flagged
    # the finer map still sends points to 4, which the map out of level 2 no longer knows
    assert _assert_functoriality_matches(_vertex_dropped(expansion, 2, 4)) is KeyError


def test_a_cover_with_a_moved_point_keeps_the_nesting_refusals():
    # Z/27 at level 2: point 1 moved into the block of 0, which then crosses
    # the classes mod 3 of level 1; the cover is read by its own order
    expansion, _ = group_expansion(3, 3)
    level_1, moved = expansion.levels[1], _moved(expansion, 2, 1, 0)
    assert moved.levels[2].cover.blocks[:2] == ((0, 1, 9, 18), (2, 11, 20))
    with pytest.raises(NestingError) as raised:
        bonding_map(moved.levels[2], level_1)
    assert str(raised.value) == "block (0, 1, 9, 18) of level 2 crosses blocks of level 1"
    served = iter([level_1.cover, moved.levels[2].cover])
    with mock.patch.object(nerve_module, "scale_cover", lambda space, j: next(served)):
        with pytest.raises(NestingError) as raised:
            cover_tower(expansion.space, 1, 2)
    assert str(raised.value) == "block (0, 1, 9, 18) at scale 2 crosses blocks at scale 1"
    # the certificate refuses, and the pairs are those of every composite
    assert not moved._functorial()
    assert _assert_functoriality_matches(moved) == [(2, 2), (3, 2)]


def test_threads_are_certified_only_where_each_threshold_cut_nests_in_the_one_above():
    # Z/27 with threshold factor 1, levels 0, 2, 1, 3: level 1's simplexes lie
    # across level 2's, so no thread through them is coherent, while level 3's
    # threshold cut still holds every cut position of level 2's
    space = residue_space(3, 3)
    expansion = assemble_expansion(space, Schedule.auto(space, k_shift=1))
    levels = list(expansion.levels)
    levels[1], levels[2] = replace(levels[2], m=1), replace(levels[1], m=2)
    bonding = [
        BondingMap(fine=m + 1, coarse=m, vertex_map=_containment(levels[m + 1], levels[m]))
        for m in range(len(levels) - 1)
    ]
    mixed = replace(expansion, levels=tuple(levels), bonding=tuple(bonding))
    assert mixed._certified_threads == {}
    for x in range(space.n_points):
        thread = mixed.thread(x)
        assert _reconstructed(mixed, thread) is _preimage(mixed, thread) is None


def test_functoriality_is_decided_once_per_expansion(monkeypatch):
    expansion = assemble_expansion(random_code_space(random.Random(8), 3, 20))
    calls = []
    original = Expansion._functorial

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(Expansion, "_functorial", counting)
    fresh = replace(expansion)
    assert fresh.verify_functoriality() == fresh.verify_functoriality() == []
    assert len(calls) == 1
    fresh.verify_functoriality().append((0, 0))  # callers get their own list
    assert fresh.verify_functoriality() == []


def test_pipeline_makes_no_pairwise_scans(monkeypatch):
    space = random_code_space(random.Random(64), 2, 64)
    counts = Counter()
    targets = [
        (UltraSpace, "set_distance"),
        (UltraSpace, "diameter"),
        (Expansion, "composite_vertex_map"),
        (MergeTree, "rows"),
    ]
    for owner, name in targets:
        original = getattr(owner, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    expansion = assemble_expansion(space)
    assert counts == Counter()
    summaries = _verify_expansion(expansion, report := RunReport())
    assert not report.failed and summaries["functoriality_ok"]
    # limit recovery is decided per merge height, so no pair table is written
    assert counts == Counter()
    # the counters are live
    space.set_distance((0,), (1,))
    space.diameter((0, 1))
    expansion.composite_vertex_map(1, 0)
    space.tree.rows()
    assert counts == Counter({name: 1 for _, name in targets})


@st.composite
def one_window_families(draw):
    """PAdics of one prime whose nonzero windows all end at one position, which may be
    negative; zeros have any window, and repeated points are common."""
    p = draw(PRIMES)
    end = draw(st.integers(-2, 5))
    points = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 4)) == 0:
            points.append(PAdic.zero(p, draw(st.integers(1, 6))))
            continue
        valuation = draw(st.integers(end - 5, end - 1))
        digits = [draw(st.integers(1, p - 1))]
        digits += [draw(st.integers(0, p - 1)) for _ in range(end - valuation - 1)]
        points.append(PAdic(p, valuation, tuple(digits), end - valuation))
    return points


# prefix chains fail the inequality in about a quarter of draws, where
# padic_families() fails it in about 2 %: the failing route is guarded too
@settings(max_examples=300, deadline=None)
@given(points=st.one_of(one_window_families(), padic_families(), prefix_chain_families()))
def test_point_spaces_match_the_difference_oracle(points):
    table = difference_exponents(points)
    one_window = len({x.known_upto() for x in points if not x.is_zero}) <= 1
    weights = mock.patch.object(spaces_module, "_pair_weights", wraps=spaces_module._pair_weights)
    with weights as route:
        try:
            space = space_from_points(points)
        except NotUltrametricError:
            # only windows that end apart can break the inequality, and only
            # a failed check weighs every pair to name its witness
            assert not one_window and not strong_triangle_by_thresholds(table)
            assert route.call_count == 1
            return
    # the sorted windows build every passing family's tree, with no pair weights
    assert route.call_count == 0
    assert strong_triangle_by_thresholds(table)
    assert space.tree.rows() == table


def _skipping_schedule(expo, data):
    """An explicit schedule that may skip scales and change k; its last level separates."""
    finite = sorted({e for row in expo for e in row if e is not None}) or [0]
    js = sorted(data.draw(st.sets(st.integers(finite[0] - 2, finite[-1] + 2), min_size=1)))
    ks = sorted(data.draw(st.lists(st.integers(0, 2), min_size=len(js), max_size=len(js))))[::-1]
    if js[-1] - ks[-1] <= finite[-1] or js[-1] <= finite[-1]:
        js.append(max(js[-1] + 1, finite[-1] + 1 + ks[-1]))
        ks.append(ks[-1])
    return Schedule(j=tuple(js), k=tuple(ks), b=tuple(GammaValue(j) for j in js))


def _resimplexed(expansion, m, v, idx):
    """Vertex v of level m moved into simplex idx: the level's threads change."""
    levels = list(expansion.levels)
    nerve = levels[m].nerve
    simplexes = [tuple(u for u in s if u != v) for s in nerve.maximal_simplexes]
    simplexes[idx] += (v,)
    levels[m] = replace(levels[m], nerve=replace(nerve, maximal_simplexes=tuple(simplexes)))
    return replace(expansion, levels=tuple(levels))


def _swapped_supports(expansion, m, a, b):
    """Cells a and b of level m trade supports: the level's preimages change."""
    level = expansion.levels[m]
    cells = list(level.realization.cells)
    cells[a], cells[b] = (
        replace(cells[a], support=cells[b].support),
        replace(cells[b], support=cells[a].support),
    )
    levels = list(expansion.levels)
    levels[m] = replace(level, realization=replace(level.realization, cells=tuple(cells)))
    return replace(expansion, levels=tuple(levels))


def _preimage(expansion, thread):
    return thread_preimage(
        [level.nerve.maximal_simplexes for level in expansion.levels],
        [bmap.vertex_map for bmap in expansion.bonding],
        [[cell.support for cell in level.realization.cells] for level in expansion.levels],
        thread,
    )


def _reconstructed(expansion, thread):
    try:
        return expansion.reconstruct(thread)
    except IncoherentThreadError:
        return None


@st.composite
def residue_exponents(draw):
    """Exponent matrices of residues mod p^depth read to precision k <= depth:
    residues equal mod p^k sit at distance zero.  Perhaps a subset of them,
    perhaps reordered, so the shift x -> x + 1 keeps some and breaks others."""
    p = draw(PRIMES)
    depth = draw(st.integers(1, 3 if p < 5 else 2))
    k = draw(st.integers(1, depth))
    points = list(range(p**depth))
    if draw(st.booleans()):
        points = sorted(draw(st.sets(st.sampled_from(points), min_size=1)))
    if draw(st.booleans()):
        points = draw(st.permutations(points))

    def exponent(d):
        if d % p**k == 0:
            return None
        e = 0
        while d % p ** (e + 1) == 0:
            e += 1
        return e

    return [[exponent(x - y) for y in points] for x in points]


@settings(max_examples=200, deadline=None)
@given(expo=st.one_of(ultrametric_exponents(), residue_exponents()), p=PRIMES)
# the shift keeps every positive distance's blocks but splits the pair at distance 0
@example(expo=[[None, None, 0], [None, None, 0], [0, 0, None]], p=3)
def test_shift_invariance_matches_the_pairwise_scan(expo, p):
    invariant = pairwise_shift_invariant(expo)
    assert _shift_invariant(_space(expo, p).tree) == invariant
    event(f"invariant: {invariant}")
    if any(e is None for a, row in enumerate(expo) for e in row[a + 1 :]):
        event("points at distance zero")


HEIGHT = st.one_of(st.none(), st.integers(-1, 3))


@st.composite
def tree_pairs(draw):
    """Two merge trees over one point set: heights with None (distance 0)
    and ties, the second a copy of the first, the first with some heights
    lowered or raised (stretched one way), or drawn anew (often both ways)."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    heights = draw(st.lists(HEIGHT, min_size=n - 1, max_size=n - 1))
    kind = draw(st.sampled_from(["copy", "lowered", "raised", "anew"]))
    event(f"second tree: {kind}")
    if kind == "anew":
        other = draw(st.permutations(range(n))), draw(
            st.lists(HEIGHT, min_size=n - 1, max_size=n - 1)
        )
    else:
        moved = list(heights)
        for i in draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=3)) if n > 1 else []:
            h = moved[i]
            if kind == "lowered":
                moved[i] = draw(st.integers(-2, 3)) if h is None else h - draw(st.integers(1, 2))
            elif kind == "raised":
                moved[i] = None if h is None or draw(st.booleans()) else h + draw(st.integers(1, 2))
        other = order, moved
    return (order, heights), other


@settings(max_examples=300, deadline=None)
@given(trees=tree_pairs(), data=st.data())
def test_stretched_pairs_match_the_meet_by_meet_oracle(trees, data):
    a, b = trees
    mine, theirs = MergeTree(*a), MergeTree(*b)
    stretched = mine.stretched(theirs)
    assert stretched == pairwise_stretched(a, b)
    assert theirs.stretched(mine) == pairwise_stretched(b, a)
    event(f"stretched: {bool(stretched)}, back: {bool(theirs.stretched(mine))}")
    # pulled back through any map of the points, two points meet where their images do
    n = len(a[0])
    points = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
    pulled = mine.pulled_back(points)
    assert sorted(pulled.order) == list(range(len(points)))
    for x in range(len(points)):
        for y in range(x + 1, len(points)):
            image = None if points[x] == points[y] else tree_meet(*a, points[x], points[y])
            assert tree_meet(pulled.order, pulled.heights, x, y) == image


def test_limit_recovery_refuses_thresholds_that_grow():
    # Z/4 with a threshold kept for two levels: ties are recovered exactly,
    # but a threshold that grows from one level to the next recovers no ultrametric
    space = residue_space(2, 2)
    schedule = Schedule(j=(0, 1, 2, 3), k=(0, 0, 0, 0), b=tuple(map(GammaValue, (0, 1, 1, 2))))
    expansion = assemble_expansion(space, schedule)
    taus = [level.nerve.threshold.exponent for level in expansion.levels]
    assert taus == [0, 1, 1, 2]
    threads = [expansion.thread(x) for x in range(4)]
    report = limit_isometry_check(space, expansion)
    assert report == pairwise_limit_recovery(space.tree.rows(), taus, threads)
    levels = list(expansion.levels)
    levels[3] = replace(levels[3], nerve=replace(levels[3].nerve, threshold=GammaValue(0)))
    with pytest.raises(ScheduleError, match="never grow"):
        limit_isometry_check(space, replace(expansion, levels=tuple(levels)))


def _assert_threads_match(expo, expansion, threads):
    """Limit recovery and reconstruction against the pairwise routes."""
    taus = [level.nerve.threshold.exponent for level in expansion.levels]
    points = _outcome(lambda: [expansion.thread(x) for x in range(len(expo))])
    mine = _outcome(lambda: limit_isometry_check(expansion.space, expansion))
    if points is KeyError:
        assert mine is KeyError
        return mine
    assert mine == pairwise_limit_recovery(expo, taus, points)
    for thread in [*points, *threads]:
        assert _reconstructed(expansion, thread) == _preimage(expansion, thread)
    return mine


@settings(max_examples=150, deadline=None)
@given(expo=ultrametric_exponents(separated=True), p=PRIMES, data=st.data())
def test_limit_recovery_and_reconstruction_match_pairwise_routes(expo, p, data):
    space = _space(expo, p)
    expansion = assemble_expansion(space, _skipping_schedule(expo, data))
    levels = expansion.levels

    def threads():
        # any threads of valid indices, coherent or not
        sizes = [len(level.nerve.maximal_simplexes) for level in levels]
        return data.draw(st.lists(st.tuples(*[st.integers(0, s - 1) for s in sizes]), max_size=4))

    report = _assert_threads_match(expo, expansion, threads())
    assert all(expansion.reconstruct(expansion.thread(x)) == {x} for x in range(len(expo)))
    if report["mismatches"]:
        event("limit recovery fails on some pairs")

    # mutants, decided by the pairwise fallbacks: a point moved to another block,
    # a vertex redirected, a vertex moved into another simplex, two cells' supports swapped
    m = data.draw(st.integers(0, len(levels) - 1))
    x = data.draw(st.integers(0, len(expo) - 1))
    blocks, simplexes = levels[m].cover.blocks, levels[m].nerve.maximal_simplexes
    mutants = []
    if len(blocks) > 1:
        target = data.draw(st.sampled_from([i for i, b in enumerate(blocks) if x not in b]))
        mutants.append(_moved(expansion, m, x, target))
    if m + 1 < len(levels):
        v = data.draw(st.sampled_from(levels[m + 1].nerve.vertices))
        target = data.draw(st.sampled_from(levels[m].nerve.vertices))
        mutants.append(_redirected(expansion, m, v, target))
    v = data.draw(st.sampled_from(levels[m].nerve.vertices))
    mutants.append(_resimplexed(expansion, m, v, data.draw(st.integers(0, len(simplexes) - 1))))
    if len(simplexes) > 1:
        indices = st.integers(0, len(simplexes) - 1)
        a, b = data.draw(st.lists(indices, min_size=2, max_size=2, unique=True))
        mutants.append(_swapped_supports(expansion, m, a, b))
    for mutant in mutants:
        _assert_threads_match(expo, mutant, threads())


def test_limit_recovery_lists_every_pair_at_distance_zero():
    # points 0 and 1 coincide in the space checked, and their threads split
    # at the finest level, or (re-simplexed there) never split
    expansion = assemble_expansion(_space([[None, 1, 0], [1, None, 0], [0, 0, None]], 2))
    expo = [[None, None, 0], [None, None, 0], [0, 0, None]]
    finest = expansion.depth - 1
    joined = _resimplexed(
        expansion, finest, 1, expansion.levels[finest].nerve.simplex_of[0]
    )
    for e in (expansion, joined):
        taus = [level.nerve.threshold.exponent for level in e.levels]
        threads = [e.thread(x) for x in range(3)]
        report = limit_isometry_check(_space(expo, 2), e)
        assert report == pairwise_limit_recovery(expo, taus, threads)
        assert report["mismatches"][0] == [0, 1, None, -1]
    assert joined.thread(0) == joined.thread(1) != expansion.thread(1)


def test_a_simplex_its_map_splits_breaks_every_thread_through_it():
    # Z/27 with threshold factor 1: level 3's simplex (0, 9, 18) maps into (0, 3, 6)
    space = group_expansion(3, 3)[0].space
    expansion = assemble_expansion(space, Schedule.auto(space, k_shift=1))
    assert expansion.levels[3].nerve.maximal_simplexes[0] == (0, 9, 18)
    broken = _redirected(expansion, 2, 9, 1)  # 9 now lands in (1, 4, 7)
    for x in (0, 9, 18):
        with pytest.raises(IncoherentThreadError, match="between levels 3 and 2"):
            broken.reconstruct(broken.thread(x))
    assert broken.reconstruct(broken.thread(1)) == {1}


def test_a_skipped_scale_lists_only_the_pairs_it_fails():
    # Z/16 at every other scale: pairs at odd exponents are recovered one too deep
    space = group_expansion(2, 4)[0].space
    js = (0, 2, 4)
    expansion = assemble_expansion(space, Schedule(j=js, k=(0, 0, 0), b=tuple(map(GammaValue, js))))
    expo = space.tree.rows()
    threads = [expansion.thread(x) for x in range(16)]
    report = limit_isometry_check(space, expansion)
    assert report == pairwise_limit_recovery(expo, [0, 2, 4], threads)
    assert {(r, a) for _, _, r, a in report["mismatches"]} == {(1, 0), (3, 2)}
    # exponent 0: odd against even; exponent 2: each class mod 4 halves mod 8
    assert len(report["mismatches"]) == 8 * 8 + 4 * (2 * 2)
