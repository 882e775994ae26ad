"""Covers, nerves, realizations, uniformity witnesses, and subdivisions."""

import random
from fractions import Fraction

import pytest

from ultrapoly import (
    GAMMA_ZERO,
    GammaValue,
    ThresholdError,
    UltraSpace,
    baire_encode,
    build_nerve,
    c0_embed,
    check_uniform,
    cover_tower,
    isolated_point_check,
    nerve_to_dot,
    realize,
    scale_cover,
    subdivide,
)
from ultrapoly.nerve import NerveComplex

from corpus import planted_outlier_space, random_code_space
from oracles import closure_classes, residue_blocks, threshold_cliques


def _exponent_matrix(space):
    n = space.n_points
    return [
        [space.dist[i][j].exponent for j in range(n)] for i in range(n)
    ]


def _residue_space(p, depth):
    from ultrapoly import residue_space

    return residue_space(p, depth)


# ---------------------------------------------------------------- covers

def test_coarse_scale_gives_single_block():
    space = random_code_space(random.Random(1), 3, 7)
    cover = scale_cover(space, 0)  # every exponent is >= 0
    assert len(cover.blocks) == 1
    assert cover.blocks[0] == tuple(range(7))


def test_fine_scale_gives_singletons():
    space = random_code_space(random.Random(2), 3, 7)
    finest = max(space.finite_exponents()) + 1
    cover = scale_cover(space, finest)
    assert all(len(block) == 1 for block in cover.blocks)


def test_blocks_match_transitive_closure_oracle():
    space = random_code_space(random.Random(3), 2, 5, depth=4)
    expo = _exponent_matrix(space)
    for j in range(0, 6):
        cover = scale_cover(space, j)
        assert list(cover.blocks) == closure_classes(expo, j)


def test_tower_of_single_point():
    space = UltraSpace(labels=("only",), prime=2, dist=((GAMMA_ZERO,),))
    tower = cover_tower(space, 0, 3)
    assert all(cover.blocks == ((0,),) for cover in tower)


def test_tower_over_z27_counts():
    space = _residue_space(3, 3)
    tower = cover_tower(space, 0, 3)
    assert [len(c.blocks) for c in tower] == [1, 3, 9, 27]
    for j, cover in enumerate(tower):
        assert list(cover.blocks) == residue_blocks(27, 3**j)


def test_tower_refines_by_subset_oracle():
    space = random_code_space(random.Random(4), 5, 12)
    tower = cover_tower(space, 0, max(space.finite_exponents()) + 1)
    for coarse, fine in zip(tower, tower[1:]):
        for block in fine.blocks:
            parents = [c for c in coarse.blocks if set(block) <= set(c)]
            assert len(parents) == 1
    counts = [len(c.blocks) for c in tower]
    assert counts == sorted(counts)


def test_tower_rejects_bad_range():
    space = random_code_space(random.Random(5), 2, 4)
    with pytest.raises(ValueError):
        cover_tower(space, 3, 1)


# ---------------------------------------------------------------- nerves

def _six_block_space():
    # two proximity classes: {0,1,2,3} within 5^-2, {4,5} within 5^-2,
    # the classes 5^-1 apart
    n = 6
    dist = [[GAMMA_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            same = (i < 4) == (j < 4)
            dist[i][j] = dist[j][i] = GammaValue(2 if same else 1)
    return UltraSpace(
        labels=tuple(f"v{i}" for i in range(n)),
        prime=5,
        dist=tuple(tuple(row) for row in dist),
    )


def test_discrete_nerve_below_separation():
    space = _six_block_space()
    cover = scale_cover(space, 2)  # blocks {0..3} and {4,5}
    nerve = build_nerve(space, cover, k=0)
    assert all(len(s) == 1 for s in nerve.maximal_simplexes)
    assert nerve.dim_l == 0


def test_one_simplex_above_everything():
    space = _six_block_space()
    cover = scale_cover(space, 2)
    nerve = build_nerve(space, cover, k=0, b=GammaValue(1))
    assert len(nerve.maximal_simplexes) == 1
    assert nerve.dim_l == len(cover.blocks) - 1


def test_two_proximity_classes_and_dimension():
    space = _six_block_space()
    cover = scale_cover(space, 3)  # six singleton blocks
    nerve = build_nerve(space, cover, k=0, b=GammaValue(2))
    sizes = sorted(len(s) for s in nerve.maximal_simplexes)
    assert sizes == [2, 4]
    assert nerve.dims == (3, 1) or set(nerve.dims) == {1, 3}
    assert nerve.dim_l == 3
    # oracle: components of the threshold graph must be cliques
    block_dist = [
        [space.set_distance(a, b).as_fraction(5) for b in cover.blocks]
        for a in cover.blocks
    ]
    cliques = threshold_cliques(block_dist, Fraction(1, 25))
    assert sorted(len(c) for c in cliques) == [2, 4]


def test_simplexes_partition_vertices():
    space = random_code_space(random.Random(6), 3, 20)
    for j in space.finite_exponents():
        cover = scale_cover(space, j + 1)
        nerve = build_nerve(space, cover, k=1, b=GammaValue(j + 1))
        seen = [v for s in nerve.maximal_simplexes for v in s]
        assert sorted(seen) == sorted(nerve.vertices)
        assert nerve.dim_l + 1 <= len(cover.blocks)


def test_threshold_below_diameter_rejected():
    space = _six_block_space()
    cover = scale_cover(space, 2)
    with pytest.raises(ThresholdError):
        build_nerve(space, cover, k=-2)


def test_nerve_json_roundtrip():
    space = _six_block_space()
    nerve = build_nerve(space, scale_cover(space, 3), k=0, b=GammaValue(2))
    assert NerveComplex.from_json(nerve.to_json()) == nerve


# ------------------------------------------------------------ uniformity

def _realized(space, j, k=0, b=None):
    cover = scale_cover(space, j)
    nerve = build_nerve(space, cover, k=k, b=b)
    vectors = c0_embed(baire_encode(space))
    return cover, nerve, realize(space, cover, nerve, vectors)


def test_uniform_single_simplex_is_vacuous():
    space = _six_block_space()
    _, _, realization = _realized(space, 2, b=GammaValue(1))
    assert check_uniform(space, realization) == {
        "sup_diam": 1,
        "inf_dist": None,
        "is_uniform": True,
    }


def test_uniform_two_cells_witnesses():
    space = _six_block_space()
    _, _, realization = _realized(space, 2)
    assert check_uniform(space, realization) == {"sup_diam": 2, "inf_dist": 1, "is_uniform": True}


def test_uniform_separation_beats_block_diameter():
    space = random_code_space(random.Random(7), 2, 18)
    for j in space.finite_exponents():
        cover, nerve, realization = _realized(space, j)
        report = check_uniform(space, realization)
        sup_block = max(space.diameter(b) for b in cover.blocks)
        if report["inf_dist"] is not None:
            inf_dist = GammaValue.from_json(report["inf_dist"])
            assert inf_dist > sup_block or sup_block.is_zero
            # oracle: exhaustive pairwise scan over supports
            pairs = [
                space.set_distance(a.support, b.support)
                for ai, a in enumerate(realization.cells)
                for b in realization.cells[ai + 1 :]
            ]
            assert inf_dist == min(pairs)
            assert report["sup_diam"] == max(c.radius for c in realization.cells).to_json()


def test_ball_certificates_cover_their_support():
    # any support member works as a center: max distance from the recorded
    # center equals the recorded radius (the support diameter)
    space = random_code_space(random.Random(17), 3, 15)
    for j in space.finite_exponents():
        _, _, realization = _realized(space, j, k=1, b=GammaValue(j))
        for cell in realization.cells:
            assert cell.center in cell.support
            spread = space.diameter(cell.support)
            assert spread == cell.radius
            for point in cell.support:
                assert space.dist[cell.center][point] <= cell.radius


def test_uniform_requires_cells():
    space = _six_block_space()
    _, _, realization = _realized(space, 2)
    empty = type(realization)(vectors=realization.vectors, cells=())
    with pytest.raises(ValueError):
        check_uniform(space, empty)


# ------------------------------------------------------------ subdivision

def test_subdivide_splits_into_p_cells():
    space = _residue_space(3, 1)  # three points pairwise at distance 1
    _, _, realization = _realized(space, 0)
    assert len(realization.cells) == 1
    sub = subdivide(space, realization, 1)
    assert len(sub.cells) == 3
    assert all(cell.radius == GammaValue(1) for cell in sub.cells)
    assert sorted(cell.support for cell in sub.cells) == [(0,), (1,), (2,)]


def test_subdivide_singleton_stays_single():
    space = UltraSpace(labels=("only",), prime=3, dist=((GAMMA_ZERO,),))
    _, _, realization = _realized(space, 0)
    for j in (1, 2, 3):
        sub = subdivide(space, realization, j)
        assert len(sub.cells) == 1
        assert sub.cells[0].support == (0,)


def test_subdivision_composition_law():
    space = random_code_space(random.Random(8), 2, 24)
    _, _, realization = _realized(space, 0)
    twice = subdivide(space, subdivide(space, realization, 1), 1)
    direct = subdivide(space, realization, 2)
    key = lambda r: sorted((c.support, c.radius) for c in r.cells)
    assert key(twice) == key(direct)


def test_subdivide_rejects_nonpositive():
    space = _six_block_space()
    _, _, realization = _realized(space, 2)
    with pytest.raises(ValueError):
        subdivide(space, realization, 0)


# -------------------------------------------------------------- isolation

def _default_levels(space):
    exps = space.finite_exponents()
    js = range(min(0, exps[0]) if exps else 0, (exps[-1] + 2) if exps else 1)
    levels = []
    for j in js:
        cover = scale_cover(space, j)
        nerve = build_nerve(space, cover, k=0, b=GammaValue(j))
        levels.append((cover, nerve))
    return levels


def test_outlier_isolates_past_its_scale():
    space, outlier = planted_outlier_space(random.Random(9), 3, 10)
    levels = _default_levels(space)
    report = isolated_point_check(space, levels)
    assert report["violations"] == []
    # nearest distance 1 = 3^0: isolated once scale and threshold drop below
    assert report["first_level"][outlier] == 1
    for m in range(1, len(levels)):
        cover, nerve = levels[m]
        assert (outlier,) in cover.blocks


def test_equilateral_isolates_only_at_singleton_level():
    n = 4
    dist = [[GAMMA_ZERO if i == j else GammaValue(1) for j in range(n)] for i in range(n)]
    space = UltraSpace(
        labels=tuple("abcd"), prime=2, dist=tuple(tuple(r) for r in dist)
    )
    levels = _default_levels(space)
    report = isolated_point_check(space, levels)
    assert report["violations"] == []
    singleton_level = next(
        m for m, (cover, _) in enumerate(levels) if all(len(b) == 1 for b in cover.blocks)
    )
    assert all(report["first_level"][x] == singleton_level for x in range(n))


def test_singleton_space_isolated_everywhere():
    space = UltraSpace(labels=("only",), prime=2, dist=((GAMMA_ZERO,),))
    report = isolated_point_check(space, _default_levels(space))
    assert report == {"first_level": {0: 0}, "violations": []}


# ------------------------------------------------------------------- DOT

def test_dot_export_of_residue_level():
    space = _residue_space(3, 2)
    cover = scale_cover(space, 1)
    nerve = build_nerve(space, cover, k=1, b=GammaValue(1))
    dot = nerve_to_dot(nerve, labels=space.labels)
    assert dot.count("--") == 3  # one triangle
    assert dot.count("subgraph") == 1
    assert nerve_to_dot(nerve, labels=space.labels) == dot  # byte-stable


def test_dot_escapes_quotes_and_backslashes():
    space = _residue_space(3, 2)
    cover = scale_cover(space, 1)  # vertices 0, 1 and 2 in one triangle
    nerve = build_nerve(space, cover, k=1, b=GammaValue(1))
    plain = nerve_to_dot(nerve, labels=["a", "b", "c"])
    assert plain == (
        "graph level_1 {\n  subgraph cluster_0 {\n    style=filled;\n    color=lightgrey;\n"
        '    "a";\n    "b";\n    "c";\n    "a" -- "b";\n    "a" -- "c";\n    "b" -- "c";\n'
        "  }\n}\n"
    )
    # a"b is written a\"b, and c\d is written c\\d
    assert nerve_to_dot(nerve, labels=['a"b', "c\\d", "e"]) == (
        "graph level_1 {\n  subgraph cluster_0 {\n    style=filled;\n    color=lightgrey;\n"
        '    "a\\"b";\n    "c\\\\d";\n    "e";\n    "a\\"b" -- "c\\\\d";\n'
        '    "a\\"b" -- "e";\n    "c\\\\d" -- "e";\n  }\n}\n'
    )


def test_dot_nodes_only_when_discrete():
    space = _six_block_space()
    cover = scale_cover(space, 3)
    nerve = build_nerve(space, cover, k=0)
    dot = nerve_to_dot(nerve)
    assert "--" not in dot
    assert dot.count(";") == 6
