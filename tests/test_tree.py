"""Merge-tree routes against the former pairwise routes, and a guard on their cost.

Covers, nerves, cell radii, the uniformity and isolation checks, Baire
codes and functoriality are read off each space's merge tree; the
oracles in oracles.py recompute them by the pairwise scans they replace,
on exact fractions.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrapoly import (
    GAMMA_ZERO,
    Expansion,
    GammaValue,
    Realization,
    ScaleCover,
    Schedule,
    ThresholdError,
    UltraSpace,
    assemble_expansion,
    baire_encode,
    build_nerve,
    check_uniform,
    group_expansion,
    isolated_point_check,
    realize,
    scale_cover,
    subdivide,
)
from ultrapoly.cli import RunReport, _verify_expansion
from ultrapoly.nerve import RealizedCell
from ultrapoly.spaces import threshold_classes

from corpus import random_code_space, replace
from oracles import (
    all_pairs_functoriality,
    closure_classes,
    greedy_threshold_classes,
    label_ranked_codes,
    pairwise_diameter,
    pairwise_isolation,
    pairwise_nerve,
    pairwise_separation,
    pairwise_set_distance,
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
    assert threshold_classes(space, None) == greedy_threshold_classes(dist, Fraction(0))
    for j in _scales(expo):
        classes = greedy_threshold_classes(dist, Fraction(p) ** -j)
        assert threshold_classes(space, j) == classes == closure_classes(expo, j)
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


def _oracle_functoriality(expansion):
    return all_pairs_functoriality(
        [level.rep_of for level in expansion.levels],
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
    levels[m] = replace(
        level,
        cover=ScaleCover(level=level.cover.level, blocks=blocks),
        rep_of={point: block[0] for block in blocks for point in block},
    )
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
        (ScaleCover, "block_of"),
        (Expansion, "composite_vertex_map"),
    ]
    for owner, name in targets:
        original = getattr(owner, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    expansion = assemble_expansion(space)
    summaries = _verify_expansion(expansion, report := RunReport())
    assert not report.failed and summaries["functoriality_ok"]
    assert counts == Counter()
    # the counters are live
    space.set_distance((0,), (1,))
    space.diameter((0, 1))
    expansion.levels[1].cover.block_of(0)
    expansion.composite_vertex_map(1, 0)
    assert counts == Counter({name: 1 for _, name in targets})
