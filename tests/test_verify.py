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
    # the finest cover puts points 0 and 1 in one block
    expansion = _z9()
    cover = expansion.levels[2].cover
    blocks = ((0, 1), *cover.blocks[2:])
    return _with_level(expansion, 2, cover=replace(cover, blocks=blocks))


def _reconstruct():
    # the finest cells of points 0 and 1 trade supports
    expansion = _z9()
    level = expansion.levels[2]
    a, b, *rest = level.realization.cells
    cells = (replace(a, support=b.support), replace(b, support=a.support), *rest)
    return _with_level(expansion, 2, realization=replace(level.realization, cells=cells))


def _functoriality():
    # Z/27 with threshold factor 1: point 9 is sent to vertex 3, not 0, at
    # level 2; both lie in one simplex there, so threads do not change
    space = residue_space(3, 3)
    expansion = assemble_expansion(space, Schedule.auto(space, k_shift=1))
    level = expansion.levels[2]
    assert level.simplex_of[0] == level.simplex_of[3]
    return _with_level(expansion, 2, rep_of={**level.rep_of, 9: 3})


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
