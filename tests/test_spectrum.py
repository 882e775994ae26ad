"""Bonding maps, assembled inverse systems, threads, and reconstruction."""

import random

import pytest

from ultrapoly import (
    GAMMA_ZERO,
    GammaValue,
    IncoherentThreadError,
    NestingError,
    Schedule,
    ScheduleError,
    SeparationError,
    UltraSpace,
    assemble_expansion,
    bonding_map,
    group_expansion,
    limit_isometry_check,
    residue_space,
    verify_nondegenerate,
    verify_nonstretching,
)
from ultrapoly.spectrum import Expansion

from corpus import random_code_space, replace
from oracles import residue_blocks


# ------------------------------------------------------------- schedules

def test_schedule_rejects_decreasing_scales():
    with pytest.raises(ScheduleError):
        Schedule(j=(0, 0), k=(0, 0), b=(GammaValue(0), GammaValue(0)))


def test_schedule_rejects_increasing_thresholds():
    with pytest.raises(ScheduleError):
        Schedule(j=(0, 1), k=(0, 1), b=(GammaValue(0), GammaValue(1)))


def test_schedule_rejects_thresholds_that_grow_and_names_the_level():
    # threshold exponents 0, 1, 3, 2: level 3's p^-2 exceeds level 2's p^-3
    with pytest.raises(ScheduleError, match="of level 3 exceeds that of level 2"):
        Schedule(j=(0, 1, 2, 3), k=(0, 0, 0, 0), b=tuple(map(GammaValue, (0, 1, 3, 2))))
    # the threshold decides, not b: p^1 * p^-1 and then p^0 * p^0 hold it at 1
    Schedule(j=(0, 1), k=(1, 0), b=(GammaValue(1), GammaValue(0)))
    # 0 (INF) is the smallest threshold: it follows any, and only it follows itself
    Schedule(j=(0, 1, 2), k=(0, 0, 0), b=(GammaValue(0), GAMMA_ZERO, GAMMA_ZERO))
    with pytest.raises(ScheduleError, match="of level 1 exceeds that of level 0"):
        Schedule(j=(0, 1), k=(0, 0), b=(GAMMA_ZERO, GammaValue(5)))
    # a threshold held for two levels does not grow
    schedule = Schedule(j=(0, 1, 2, 3), k=(0, 0, 0, 0), b=tuple(map(GammaValue, (0, 1, 1, 2))))
    expansion = assemble_expansion(residue_space(2, 2), schedule)
    assert [level.nerve.threshold.exponent for level in expansion.levels] == [0, 1, 1, 2]


def test_schedule_rejects_shape_mismatch():
    with pytest.raises(ScheduleError):
        Schedule(j=(0, 1), k=(0,), b=(GammaValue(0), GammaValue(1)))


def test_auto_schedule_spans_the_exponent_range():
    space = random_code_space(random.Random(1), 3, 9)
    schedule = Schedule.auto(space)
    exps = space.finite_exponents()
    assert schedule.j == tuple(range(min(0, exps[0]), exps[-1] + 2))
    assert all(k == 0 for k in schedule.k)


# ----------------------------------------------------------- bonding maps

def test_identity_bonding_between_equal_levels():
    space = random_code_space(random.Random(2), 2, 8)
    expansion = assemble_expansion(space)
    level = expansion.levels[1]
    bmap = bonding_map(level, level)
    assert bmap.vertex_map == {v: v for v in level.nerve.vertices}


def test_z9_bonding_is_mod_3_reduction():
    expansion, _ = group_expansion(3, 2)
    bmap = expansion.bonding[1]  # level 2 (9 singletons) -> level 1 (3 triples)
    assert bmap.vertex_map == {v: v % 3 for v in range(9)}
    assert [b for b in residue_blocks(9, 3)] == list(expansion.levels[1].cover.blocks)


def test_bonding_matches_subset_containment_oracle():
    space = random_code_space(random.Random(3), 5, 14)
    expansion = assemble_expansion(space)
    for m, bmap in enumerate(expansion.bonding):
        fine, coarse = expansion.levels[m + 1], expansion.levels[m]
        for block in fine.cover.blocks:
            parents = [
                c for c in coarse.cover.blocks if set(block) <= set(c)
            ]
            assert len(parents) == 1
            assert bmap.vertex_map[block[0]] == parents[0][0]


def test_non_nested_covers_rejected():
    space = random_code_space(random.Random(4), 2, 10)
    expansion = assemble_expansion(space)
    coarse, fine = expansion.levels[0], expansion.levels[-1]
    with pytest.raises(NestingError):
        bonding_map(coarse, fine)  # wrong direction: one block crosses many


# --------------------------------------------------------- non-stretching

def test_identity_map_is_nonstretching():
    space = random_code_space(random.Random(5), 2, 8)
    expansion = assemble_expansion(space)
    level = expansion.levels[1]
    bmap = bonding_map(level, level)
    entry = verify_nonstretching(bmap, level, level)
    assert entry["violations"] == []
    assert entry["merged_pairs"] == 0


def test_z9_merged_pairs_sit_one_scale_step_up():
    expansion, _ = group_expansion(3, 2)
    fine, coarse = expansion.levels[2], expansion.levels[1]
    bmap = expansion.bonding[1]
    entry = verify_nonstretching(bmap, fine, coarse)
    assert entry["violations"] == []
    assert entry["single_step_contraction"]
    # direct recomputation: merged pairs are congruent mod 3, distance 3^-1
    verts = fine.nerve.vertices
    merged = [
        (v, w)
        for a, v in enumerate(verts)
        for w in verts[a + 1 :]
        if bmap.vertex_map[v] == bmap.vertex_map[w]
    ]
    assert entry["merged_pairs"] == len(merged)
    for v, w in merged:
        assert (v - w) % 3 == 0
        assert fine.realization.vectors[v].distance(
            fine.realization.vectors[w]
        ) == GammaValue(1)


def test_random_towers_have_zero_violations():
    rng = random.Random(6)
    for p in (2, 3, 5):
        space = random_code_space(rng, p, 16)
        expansion = assemble_expansion(space)
        for m, bmap in enumerate(expansion.bonding):
            entry = verify_nonstretching(
                bmap, expansion.levels[m + 1], expansion.levels[m]
            )
            assert entry["violations"] == []


# ----------------------------------------------------------- degeneration

def test_identity_map_has_no_collapse():
    space = random_code_space(random.Random(7), 2, 8)
    expansion = assemble_expansion(space)
    level = expansion.levels[1]
    bmap = bonding_map(level, level)
    assert verify_nondegenerate(bmap, level)["collapsed_simplexes"] == []


def test_collapsing_simplex_is_flagged():
    # threshold factor 1: simplexes group the next-coarser blocks, so the
    # bonding map collapses every nontrivial simplex to one vertex
    space = residue_space(2, 3)
    exps = space.finite_exponents()
    js = tuple(range(0, exps[-1] + 3))
    schedule = Schedule(
        j=js, k=tuple(1 for _ in js), b=tuple(GammaValue(j) for j in js)
    )
    expansion = assemble_expansion(space, schedule)
    flagged_any = False
    for m, bmap in enumerate(expansion.bonding):
        fine = expansion.levels[m + 1]
        entry = verify_nondegenerate(bmap, fine)
        # oracle: a simplex collapses iff all its blocks merge into one
        expected = [
            idx
            for idx, s in enumerate(fine.nerve.maximal_simplexes)
            if len(s) >= 2 and len({bmap.vertex_map[v] for v in s}) == 1
        ]
        assert entry == {"from": m + 1, "to": m, "collapsed_simplexes": expected}
        flagged_any = flagged_any or bool(expected)
    assert flagged_any


# -------------------------------------------------------------- assembly

def test_one_point_expansion_is_trivial():
    space = UltraSpace(labels=("only",), prime=2, dist=((GAMMA_ZERO,),))
    expansion = assemble_expansion(space)
    assert expansion.depth == 1
    assert expansion.levels[0].nerve.maximal_simplexes == ((0,),)


def test_z27_level_sizes_and_maps():
    expansion, report = group_expansion(3, 3)
    assert [len(l.cover.blocks) for l in expansion.levels] == [1, 3, 9, 27]
    assert report["block_counts_ok"]
    assert report["bonding_is_mod_reduction"]
    for m in range(expansion.depth - 1):
        modulus = 3 ** expansion.levels[m].cover.level
        for v, w in expansion.bonding[m].vertex_map.items():
            assert w == v % modulus


def test_functoriality_on_random_16_point_space():
    space = random_code_space(random.Random(8), 2, 16)
    expansion = assemble_expansion(space)
    assert expansion.verify_functoriality() == []
    # oracle: recompute every composite against direct containment
    for fine_m in range(expansion.depth):
        for coarse_m in range(fine_m + 1):
            composite = expansion.composite_vertex_map(fine_m, coarse_m)
            coarse = expansion.levels[coarse_m]
            for v, w in composite.items():
                parents = [
                    c for c in coarse.cover.blocks if v in c
                ]
                assert len(parents) == 1 and parents[0][0] == w


def test_assembly_rejects_nonseparating_schedule():
    space = random_code_space(random.Random(9), 3, 12)
    schedule = Schedule(j=(0, 1), k=(0, 0), b=(GammaValue(0), GammaValue(1)))
    with pytest.raises(SeparationError):
        assemble_expansion(space, schedule)


# ---------------------------------------------------------------- threads

def test_thread_of_one_level_expansion():
    space = UltraSpace(labels=("only",), prime=2, dist=((GAMMA_ZERO,),))
    expansion = assemble_expansion(space)
    assert expansion.thread(0) == (0,)


def test_z9_thread_of_point_five():
    expansion, _ = group_expansion(3, 2)
    thread = expansion.thread(5)
    simplex_sets = [
        expansion.levels[m].nerve.maximal_simplexes[idx]
        for m, idx in enumerate(thread)
    ]
    assert simplex_sets == [(0,), (2,), (5,)]  # whole, class of 5 mod 3, itself


def test_threads_and_bonding_maps_read_an_edited_cover():
    # Z/9: point 3 moves from the block of 0 into the block of 1 at level 1
    expansion, _ = group_expansion(3, 2)
    level = expansion.levels[1]
    assert level.cover.blocks == ((0, 3, 6), (1, 4, 7), (2, 5, 8))
    edited = replace(level, cover=replace(level.cover, blocks=((0, 6), (1, 3, 4, 7), (2, 5, 8))))
    mutant = replace(expansion, levels=(expansion.levels[0], edited, expansion.levels[2]))
    assert mutant.thread(3) == (0, 1, 3)
    assert bonding_map(expansion.levels[2], edited).vertex_map[3] == 1


def test_thread_coherence_for_all_points():
    space = random_code_space(random.Random(10), 5, 15)
    expansion = assemble_expansion(space)
    for x in range(space.n_points):
        expansion.check_thread(expansion.thread(x))  # must not raise


def test_reconstruct_is_identity_on_points():
    space = random_code_space(random.Random(11), 2, 20)
    expansion = assemble_expansion(space)
    for x in range(space.n_points):
        assert expansion.reconstruct(expansion.thread(x)) == frozenset({x})


def test_truncated_expansion_reconstructs_block():
    expansion, _ = group_expansion(3, 2)
    truncated = Expansion(
        space=expansion.space,
        schedule=Schedule(j=expansion.schedule.j[:2], k=expansion.schedule.k[:2], b=expansion.schedule.b[:2]),
        levels=expansion.levels[:2],
        bonding=expansion.bonding[:1],
        codes=expansion.codes,
        vectors=expansion.vectors,
    )
    thread = truncated.thread(5)
    assert truncated.reconstruct(thread) == frozenset({2, 5, 8})


def test_incoherent_thread_rejected():
    expansion, _ = group_expansion(3, 2)
    good = expansion.thread(5)
    bad = (good[0], 0, good[2])
    with pytest.raises(IncoherentThreadError):
        expansion.reconstruct(bad)


def test_unknown_point_rejected():
    expansion, _ = group_expansion(2, 2)
    with pytest.raises(KeyError):
        expansion.thread(99)


def test_finest_level_has_zero_diameters():
    space = random_code_space(random.Random(13), 3, 10)
    expansion = assemble_expansion(space)
    radii = [cell.radius for cell in expansion.levels[-1].realization.cells]
    assert all(r.is_zero for r in radii)
    # diameters shrink monotonically toward zero across the levels
    sups = [
        max(cell.radius for cell in level.realization.cells)
        for level in expansion.levels
    ]
    assert all(b <= a for a, b in zip(sups, sups[1:]))


# ---------------------------------------------------------- limit recovery

def test_equilateral_separates_at_one_level():
    n = 4
    dist = [[GAMMA_ZERO if i == j else GammaValue(1) for j in range(n)] for i in range(n)]
    space = UltraSpace(labels=tuple("abcd"), prime=2, dist=tuple(tuple(r) for r in dist))
    expansion = assemble_expansion(space)
    report = limit_isometry_check(space, expansion)
    assert report["mismatches"] == []
    threads = [expansion.thread(x) for x in range(n)]
    firsts = {
        next(m for m in range(expansion.depth) if threads[x][m] != threads[y][m])
        for x in range(n)
        for y in range(x + 1, n)
    }
    assert len(firsts) == 1


def test_recovered_scale_equals_distance_on_2adic_sample():
    space = random_code_space(random.Random(12), 2, 8)
    expansion = assemble_expansion(space)
    assert limit_isometry_check(space, expansion) == {"mismatches": [], "bound": 0}


def test_threshold_factor_one_keeps_exact_recovery():
    # with k = 1 the thresholds still step by single exponents, so the
    # split level recovers every distance exactly
    space = random_code_space(random.Random(21), 3, 14)
    expansion = assemble_expansion(space, Schedule.auto(space, k_shift=1))
    assert limit_isometry_check(space, expansion)["mismatches"] == []


def test_sparse_schedule_bounds_recovery_error():
    space = residue_space(2, 4)
    js = (0, 2, 4)  # skip every other scale
    schedule = Schedule(j=js, k=(0, 0, 0), b=tuple(GammaValue(j) for j in js))
    expansion = assemble_expansion(space, schedule)
    report = limit_isometry_check(space, expansion)
    assert report["bound"] == 1
    gaps = [abs(rec - act) for _, _, rec, act in report["mismatches"] if rec is not None]
    assert max(gaps, default=0) <= report["bound"]
    assert report["mismatches"]  # skipping scales loses exactness


# ------------------------------------------------------------- group demo

def test_group_expansion_two_points():
    expansion, report = group_expansion(2, 1)
    assert [len(l.cover.blocks) for l in expansion.levels] == [1, 2]
    assert report["translation_invariant"]


def test_group_metric_translation_invariance_exhaustive():
    _, report = group_expansion(3, 3)
    assert report["translation_invariant"]


def test_group_expansion_subset():
    expansion, report = group_expansion(3, 2, subset=[0, 1, 3, 4])
    assert not report["full_group"]
    assert expansion.space.labels == ("0", "1", "3", "4")
    assert expansion.reconstruct(expansion.thread(2)) == frozenset({2})


def test_group_expansion_rejects_bad_parameters():
    with pytest.raises(ValueError):
        group_expansion(4, 2)
    with pytest.raises(ValueError):
        group_expansion(3, 0)


def test_translation_check_reads_the_space_distances():
    from ultrapoly.spectrum import _shift_invariant

    assert _shift_invariant(residue_space(3, 3).tree)
    # 27 random codes of one space, in code order: not a cyclic group
    assert not _shift_invariant(random_code_space(random.Random(5), 3, 27).tree)


def test_residue_space_cap_is_checked_before_building():
    from ultrapoly.spectrum import MAX_RESIDUE_ORDER

    assert residue_space(2, MAX_RESIDUE_ORDER.bit_length() - 1, subset=[0, 1]).n_points == 2
    for p, depth in [(2, MAX_RESIDUE_ORDER.bit_length()), (3, 7), (2, 10**12)]:
        with pytest.raises(ValueError, match=f"depth {depth} is too large"):
            residue_space(p, depth)


def test_the_auto_schedule_is_bounded_before_any_level_is_built():
    from ultrapoly.spectrum import MAX_AUTO_LEVELS, Schedule, ScheduleError

    space = residue_space(2, 2)  # exponents 0 and 1: levels j = 0 .. 2 - b_shift
    assert Schedule.auto(space, b_shift=3 - MAX_AUTO_LEVELS).depth == MAX_AUTO_LEVELS
    message = f"needs {MAX_AUTO_LEVELS + 1} levels, more than {MAX_AUTO_LEVELS}"
    with pytest.raises(ScheduleError, match=message):
        Schedule.auto(space, b_shift=2 - MAX_AUTO_LEVELS)
