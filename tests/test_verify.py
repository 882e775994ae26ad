"""The verify checks return what the bundle stores, and the stage names the first that fails.

Each check returns plain data: its bundle entry, or for the theta check
the list of violations (test_values.py pins one return of each).  Each mutant below breaks one check of an
otherwise passing expansion, by changing one field of one level (or, for
the limit isometry, by skipping every other scale); ``first_failure`` is
that check's name as the bundle stores it.
"""

import pytest

from ultrapoly import (
    GammaValue,
    IncoherentThreadError,
    Schedule,
    assemble_expansion,
    check_uniform,
    group_expansion,
    isolated_point_check,
    limit_isometry_check,
    residue_space,
    verify_nondegenerate,
    verify_nonstretching,
)
from ultrapoly.cli import RunReport, _verify_expansion

from corpus import replace


def _verify(expansion) -> tuple[dict, dict]:
    report = RunReport()
    summaries = _verify_expansion(expansion, report)
    return report.stages["verify"], summaries


def _with_level(expansion, m: int, **changes):
    """A fresh expansion (no cached checks) with fields of level m changed."""
    levels = list(expansion.levels)
    levels[m] = replace(levels[m], **changes)
    return replace(expansion, levels=tuple(levels))


def _z9():
    expansion, _ = group_expansion(3, 2)  # levels of 1, 3 and 9 blocks
    return expansion


def _nonstretching():
    # point 3 realized where point 1 is: their images 0 and 1 sit apart
    expansion = _z9()
    fine = expansion.levels[2]
    vectors = list(fine.realization.vectors)
    vectors[3] = vectors[1]
    realization = replace(fine.realization, vectors=tuple(vectors))
    return _with_level(expansion, 2, realization=realization)


def _uniformity():
    # the cell of vertex 0 also covers point 1, which its neighbour covers
    expansion = _z9()
    level = expansion.levels[1]
    first, *rest = level.realization.cells
    shared = replace(first, support=tuple(sorted((*first.support, 1))))
    realization = replace(level.realization, cells=(shared, *rest))
    return _with_level(expansion, 1, realization=realization)


def _isolation():
    # the finest cover puts point 0 in one block with 9, an index with no point
    expansion = _z9()
    cover = expansion.levels[2].cover
    blocks = ((0, 9), *cover.blocks[1:])
    return _with_level(expansion, 2, cover=replace(cover, blocks=blocks))


def _reconstruct():
    # the finest cells of points 0 and 1 trade supports
    expansion = _z9()
    level = expansion.levels[2]
    a, b, *rest = level.realization.cells
    cells = (replace(a, support=b.support), replace(b, support=a.support), *rest)
    return _with_level(expansion, 2, realization=replace(level.realization, cells=cells))


def _functoriality():
    # Z/27 with threshold factor 1: point 9 moves from the block of 0 into
    # the block of 3 at level 2; both lie in one simplex there, so threads
    # do not change
    space = residue_space(3, 3)
    expansion = assemble_expansion(space, Schedule.auto(space, k_shift=1))
    cover, nerve = expansion.levels[2].cover, expansion.levels[2].nerve
    assert nerve.simplex_of[0] == nerve.simplex_of[3]
    blocks = tuple(
        tuple(sorted({*block, 9})) if 3 in block else tuple(x for x in block if x != 9)
        for block in cover.blocks
    )
    return _with_level(expansion, 2, cover=replace(cover, blocks=blocks))


def _limit_isometry():
    # every other scale skipped: split levels no longer recover distances
    js = (0, 2, 4)
    schedule = Schedule(j=js, k=(0, 0, 0), b=tuple(GammaValue(j) for j in js))
    return assemble_expansion(residue_space(2, 4), schedule)


MUTANTS = {
    "nonstretching": _nonstretching,
    "functoriality_ok": _functoriality,
    "uniformity": _uniformity,
    "isolation_ok": _isolation,
    "reconstruct_identity": _reconstruct,
    "limit_isometry_ok": _limit_isometry,
}


def _passed(summaries: dict) -> dict:
    """Whether each check passed, read from the bundle summary."""
    return {
        "nonstretching": not any(entry["violations"] for entry in summaries["nonstretching"]),
        "functoriality_ok": summaries["functoriality_ok"],
        "uniformity": all(entry["is_uniform"] for entry in summaries["uniformity"]),
        "isolation_ok": summaries["isolation_ok"],
        "reconstruct_identity": summaries["reconstruct_identity"],
        "limit_isometry_ok": summaries["limit_isometry_ok"],
    }


def test_unmutated_expansions_pass_every_check():
    z27 = residue_space(3, 3)
    for expansion in (_z9(), assemble_expansion(z27, Schedule.auto(z27, k_shift=1))):
        stage, summaries = _verify(expansion)
        assert stage["status"] == "passed" and "first_failure" not in stage
        assert all(_passed(summaries).values())


@pytest.mark.parametrize("check", list(MUTANTS))
def test_first_failure_names_the_one_failing_check(check):
    stage, summaries = _verify(MUTANTS[check]())
    assert stage["status"] == "failed"
    assert stage["first_failure"] == check
    failed = [name for name, ok in _passed(summaries).items() if not ok]
    assert failed == [check]


@pytest.mark.parametrize("check", list(MUTANTS))
def test_bundle_stores_what_the_checks_return(check):
    # on the mutants, so that every kind of witness is non-empty somewhere
    expansion = MUTANTS[check]()
    space, levels, bonding = expansion.space, expansion.levels, expansion.bonding
    _, summaries = _verify(expansion)
    assert summaries["nonstretching"] == [
        verify_nonstretching(bmap, levels[m + 1], levels[m]) for m, bmap in enumerate(bonding)
    ]
    assert summaries["nondegenerate"] == [
        verify_nondegenerate(bmap, levels[m + 1]) for m, bmap in enumerate(bonding)
    ]
    assert summaries["uniformity"] == [
        {"level": level.m, **check_uniform(space, level.realization)} for level in levels
    ]
    isolation = isolated_point_check(space, [(level.cover, level.nerve) for level in levels])
    assert summaries["isolation_violations"] == isolation["violations"]
    isometry = limit_isometry_check(space, expansion)
    assert summaries["limit_isometry_mismatches"] == isometry["mismatches"]
    assert summaries["limit_isometry_bound"] == isometry["bound"]


def test_a_broken_thread_fails_reconstruction():
    # level 1 vertex 1 is sent to 3, which level 0 does not have
    z9 = _z9()
    bmap = z9.bonding[0]
    broken = replace(bmap, vertex_map={**bmap.vertex_map, 1: 3})
    expansion = replace(z9, bonding=(broken, *z9.bonding[1:]))
    with pytest.raises(IncoherentThreadError, match="between levels 1 and 0"):
        expansion.reconstruct(expansion.thread(1))
    stage, summaries = _verify(expansion)
    assert stage["status"] == "failed"
    failed = [name for name, ok in _passed(summaries).items() if not ok]
    assert failed == ["functoriality_ok", "reconstruct_identity"]
    assert stage["first_failure"] == "functoriality_ok"


def test_an_unmapped_vertex_fails_verify_without_raising():
    # level 1 vertex 1 is missing from the map onto level 0
    z9 = _z9()
    bmap = z9.bonding[0]
    vertex_map = {v: w for v, w in bmap.vertex_map.items() if v != 1}
    expansion = replace(z9, bonding=(replace(bmap, vertex_map=vertex_map), *z9.bonding[1:]))
    with pytest.raises(IncoherentThreadError, match="between levels 1 and 0"):
        expansion.check_thread(expansion.thread(1))
    with pytest.raises(KeyError):
        expansion.verify_functoriality()
    entry = verify_nonstretching(expansion.bonding[0], expansion.levels[1], expansion.levels[0])
    assert entry["violations"] == [[0, 1], [1, 2]]  # every pair with the unmapped end
    assert entry["merged_pairs"] == 1  # 0 and 2 both go to 0
    assert verify_nondegenerate(expansion.bonding[0], expansion.levels[1]) == {
        "from": 1,
        "to": 0,
        "collapsed_simplexes": [],
    }
    stage, summaries = _verify(expansion)
    assert stage["status"] == "failed"
    assert stage["first_failure"] == "nonstretching"
    assert summaries["functoriality_ok"] is False
    assert summaries["reconstruct_identity"] is False


@pytest.mark.parametrize("image", [99, -1, None, "0", 1.0, True])
def test_an_image_outside_the_points_fails_verify_without_raising(image):
    # level 1 vertex 1 is sent to a value that is no point of the space,
    # which counts as an unmapped end
    z9 = _z9()
    bmap = z9.bonding[0]
    expansion = replace(
        z9, bonding=(replace(bmap, vertex_map={**bmap.vertex_map, 1: image}), *z9.bonding[1:])
    )
    entry = verify_nonstretching(expansion.bonding[0], expansion.levels[1], expansion.levels[0])
    assert entry["violations"] == [[0, 1], [1, 2]]  # every pair with the stray end
    assert entry["merged_pairs"] == 1  # 0 and 2 both go to 0
    stage, summaries = _verify(expansion)
    assert stage["status"] == "failed"
    assert stage["first_failure"] == "nonstretching"
    assert summaries["reconstruct_identity"] is False
