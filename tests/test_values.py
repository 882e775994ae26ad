"""The value types: slotted classes that compare, hash and print as frozen dataclasses did.

One instance of each class is pinned to the repr a dataclass gave it, to
equality and hashing over its fields in order, and to refusing
assignment when it is frozen.
"""

import copy
import pickle

import pytest

from ultrapoly import (
    GAMMA_ZERO,
    GammaValue,
    PAdic,
    UltraSpace,
    assemble_expansion,
    check_uniform,
    isolated_point_check,
    limit_isometry_check,
    theta_boundary_pairs,
    theta_nonstretch_check,
    verify_nondegenerate,
    verify_nonstretching,
)
from ultrapoly.cli import PipelineConfig, RunReport

from corpus import replace


def _instances() -> dict:
    space = UltraSpace(
        labels=("a", "b"),
        prime=2,
        dist=((GAMMA_ZERO, GammaValue(1)), (GammaValue(1), GAMMA_ZERO)),
    )
    expansion = assemble_expansion(space)
    level = expansion.levels[1]
    bmap = expansion.bonding[0]
    x = PAdic.from_digit_stream([0, 1, 1], 2)
    y = PAdic.from_digit_stream([1, 0, 1], 2)
    report = RunReport()
    report.add("validate", "passed", 0.25, violations=0)
    return {
        "GammaValue": GammaValue(3),
        "PAdic": x,
        "UltraSpace": space,
        "BaireCodes": expansion.codes,
        "C0Vector": expansion.vectors[1],
        "ScaleCover": level.cover,
        "NerveComplex": level.nerve,
        "RealizedCell": level.realization.cells[0],
        "Realization": level.realization,
        "UniformReport": check_uniform(space, level.realization),
        "IsolationReport": isolated_point_check(
            space, [(lv.cover, lv.nerve) for lv in expansion.levels]
        ),
        "Schedule": expansion.schedule,
        "Level": level,
        "BondingMap": bmap,
        "NonstretchReport": verify_nonstretching(bmap, expansion.levels[1], expansion.levels[0]),
        "DegeneracyReport": verify_nondegenerate(bmap, expansion.levels[1]),
        "Expansion": expansion,
        "IsometryReport": limit_isometry_check(space, expansion),
        "ThetaReport": theta_nonstretch_check([(x, y)], 3),
        "BoundaryPair": theta_boundary_pairs(2, 2)[0],
        "PipelineConfig": PipelineConfig(prime=3, stages=("validate",)),
        "RunReport": report,
    }


INSTANCES = _instances()

# field names in order, as the dataclasses declared them
FIELDS = {
    "GammaValue": ("exponent",),
    "PAdic": ("prime", "valuation", "digits", "precision"),
    "UltraSpace": ("labels", "prime", "dist"),
    "BaireCodes": ("prime", "start", "depth", "labels", "codes"),
    "C0Vector": ("keys",),
    "ScaleCover": ("level", "blocks"),
    "NerveComplex": ("level", "scale", "threshold", "vertices", "maximal_simplexes"),
    "RealizedCell": ("simplex", "support", "center", "radius"),
    "Realization": ("vectors", "cells"),
    "UniformReport": ("sup_diam", "inf_dist", "is_uniform"),
    "IsolationReport": ("first_level", "violations"),
    "Schedule": ("j", "k", "b"),
    "Level": ("m", "cover", "nerve", "realization", "rep_of", "simplex_of"),
    "BondingMap": ("fine", "coarse", "vertex_map", "simplex_images"),
    "NonstretchReport": (
        "fine", "coarse", "violations", "merged", "preserved", "single_step_contraction"
    ),
    "DegeneracyReport": ("fine", "coarse", "collapsed"),
    "Expansion": ("space", "schedule", "levels", "bonding", "codes", "vectors"),
    "IsometryReport": ("mismatches", "max_gap", "bound"),
    "ThetaReport": ("checked", "violations"),
    "BoundaryPair": ("low", "high", "gap"),
    "PipelineConfig": (
        "prime", "precision", "schedule_j", "schedule_k", "b_shift", "stages", "out"
    ),
    "RunReport": ("stages", "failed"),
}
# a field holds a dict, so the instance is unhashable, as it was
UNHASHABLE = {"IsolationReport", "Level", "BondingMap", "Expansion"}
# the two run-time records of the CLI are mutable, as their dataclasses were
MUTABLE = {"PipelineConfig", "RunReport"}

# the reprs the frozen dataclasses gave these instances
LEVEL_1 = (
    "Level(m=1, cover=ScaleCover(level=1, blocks=((0, 1),)), nerve=NerveComplex(level=1, "
    "scale=1, threshold=GammaValue(1), vertices=(0,), maximal_simplexes=((0,),)), "
    "realization=Realization(vectors=(C0Vector(keys=((1, 0), (2, 0))), C0Vector(keys=((1, 1), "
    "(2, 1)))), cells=(RealizedCell(simplex=(0,), support=(0, 1), center=0, "
    "radius=GammaValue(1)),)))"
)
SPACE = (
    "UltraSpace(labels=('a', 'b'), prime=2, dist=((GammaValue(INF), GammaValue(1)), "
    "(GammaValue(1), GammaValue(INF))))"
)
VECTORS = "(C0Vector(keys=((1, 0), (2, 0))), C0Vector(keys=((1, 1), (2, 1))))"
REPRS = {
    "GammaValue": "GammaValue(3)",
    "PAdic": "PAdic('p:2 v:1 d:1,1')",
    "UltraSpace": SPACE,
    "BaireCodes": (
        "BaireCodes(prime=2, start=1, depth=2, labels=('a', 'b'), codes=((0, 0), (1, 1)))"
    ),
    "C0Vector": "C0Vector(keys=((1, 1), (2, 1)))",
    "ScaleCover": "ScaleCover(level=1, blocks=((0, 1),))",
    "NerveComplex": (
        "NerveComplex(level=1, scale=1, threshold=GammaValue(1), vertices=(0,), "
        "maximal_simplexes=((0,),))"
    ),
    "RealizedCell": "RealizedCell(simplex=(0,), support=(0, 1), center=0, radius=GammaValue(1))",
    "Realization": (
        f"Realization(vectors={VECTORS}, cells=(RealizedCell(simplex=(0,), support=(0, 1), "
        "center=0, radius=GammaValue(1)),))"
    ),
    "UniformReport": "UniformReport(sup_diam=GammaValue(1), inf_dist=None, is_uniform=True)",
    "IsolationReport": "IsolationReport(first_level={0: 2, 1: 2}, violations=())",
    "Schedule": (
        "Schedule(j=(0, 1, 2), k=(0, 0, 0), b=(GammaValue(0), GammaValue(1), GammaValue(2)))"
    ),
    "Level": LEVEL_1,
    "BondingMap": "BondingMap(fine=1, coarse=0, vertex_map={0: 0}, simplex_images=(((0,), 0),))",
    "NonstretchReport": (
        "NonstretchReport(fine=1, coarse=0, violations=(), merged=(), preserved=0, "
        "single_step_contraction=True)"
    ),
    "DegeneracyReport": "DegeneracyReport(fine=1, coarse=0, collapsed=())",
    "Expansion": (
        f"Expansion(space={SPACE}, schedule=Schedule(j=(0, 1, 2), k=(0, 0, 0), b=(GammaValue(0), "
        "GammaValue(1), GammaValue(2))), levels=(Level(m=0, cover=ScaleCover(level=0, "
        "blocks=((0, 1),)), nerve=NerveComplex(level=0, scale=0, threshold=GammaValue(0), "
        f"vertices=(0,), maximal_simplexes=((0,),)), realization=Realization(vectors={VECTORS}, "
        "cells=(RealizedCell(simplex=(0,), support=(0, 1), center=0, radius=GammaValue(1)),))), "
        f"{LEVEL_1}, Level(m=2, cover=ScaleCover(level=2, blocks=((0,), (1,))), "
        "nerve=NerveComplex(level=2, scale=2, threshold=GammaValue(2), vertices=(0, 1), "
        f"maximal_simplexes=((0,), (1,))), realization=Realization(vectors={VECTORS}, "
        "cells=(RealizedCell(simplex=(0,), support=(0,), center=0, radius=GammaValue(INF)), "
        "RealizedCell(simplex=(1,), support=(1,), center=1, radius=GammaValue(INF)))))), "
        "bonding=(BondingMap(fine=1, coarse=0, vertex_map={0: 0}, simplex_images=(((0,), 0),)), "
        "BondingMap(fine=2, coarse=1, vertex_map={0: 0, 1: 0}, simplex_images=(((0,), 0), "
        "((0,), 0)))), codes=BaireCodes(prime=2, start=1, depth=2, labels=('a', 'b'), "
        f"codes=((0, 0), (1, 1))), vectors={VECTORS})"
    ),
    "IsometryReport": "IsometryReport(mismatches=(), max_gap=0, bound=0)",
    "ThetaReport": "ThetaReport(checked=1, violations=())",
    "BoundaryPair": (
        "BoundaryPair(low=PAdic('p:2 v:1 d:1'), high=PAdic('p:2 v:0 d:1,0'), gap=Fraction(1, 4))"
    ),
    "PipelineConfig": (
        "PipelineConfig(prime=3, precision=32, schedule_j='auto', schedule_k='auto', b_shift=0, "
        "stages=('validate',), out=None)"
    ),
    "RunReport": (
        "RunReport(stages={'validate': {'status': 'passed', 'seconds': 0.25, 'violations': 0}}, "
        "failed=False)"
    ),
}
NAMES = sorted(INSTANCES)


def test_every_value_type_is_pinned():
    assert len(NAMES) == 22
    assert set(NAMES) == set(FIELDS) == set(REPRS)
    for name, obj in INSTANCES.items():
        assert type(obj).__name__ == name
        assert not hasattr(type(obj), "__dataclass_fields__")


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_repr(name):
    assert repr(INSTANCES[name]) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_equality_reads_the_fields_in_order(name):
    obj = INSTANCES[name]
    values = tuple(getattr(obj, field) for field in FIELDS[name])
    rebuilt = type(obj)(*values)
    assert rebuilt == obj and not rebuilt != obj
    assert rebuilt is not obj
    assert obj != values and obj != object()
    assert obj.__eq__(values) is NotImplemented
    assert copy.deepcopy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_the_hash_of_the_field_tuple(name):
    obj = INSTANCES[name]
    if name in UNHASHABLE or name in MUTABLE:
        with pytest.raises(TypeError):
            hash(obj)
        return
    values = tuple(getattr(obj, field) for field in FIELDS[name])
    assert hash(obj) == hash(values) == hash(type(obj)(*values))


@pytest.mark.parametrize("name", NAMES)
def test_assignment_raises_on_frozen_types(name):
    obj = copy.deepcopy(INSTANCES[name])
    field = FIELDS[name][0]
    value = getattr(obj, field)
    if name in MUTABLE:
        setattr(obj, field, value)  # the CLI's records stay mutable
    else:
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.no_such_field = 1
    assert getattr(obj, field) is value


def test_changed_fields_compare_unequal():
    space = INSTANCES["UltraSpace"]
    assert replace(space, labels=("a", "c")) != space
    assert replace(INSTANCES["RunReport"], failed=True) != INSTANCES["RunReport"]
    assert GammaValue(3) != GammaValue(4) and GammaValue(None) == GAMMA_ZERO


def test_space_tree_is_not_a_field():
    space = INSTANCES["UltraSpace"]
    assert space.tree.order == (0, 1)
    with pytest.raises(AttributeError):
        space.tree = None


def test_gamma_order_is_the_real_order():
    values = [GammaValue(2), GAMMA_ZERO, GammaValue(-1), GammaValue(0), GammaValue(2)]
    ascending = [GAMMA_ZERO, GammaValue(2), GammaValue(2), GammaValue(0), GammaValue(-1)]
    assert sorted(values) == ascending
    assert GAMMA_ZERO < GammaValue(5) <= GammaValue(5) < GammaValue(4)
    assert GammaValue(4) > GammaValue(5) >= GammaValue(5) > GAMMA_ZERO
    assert max(values) == GammaValue(-1) and min(values) == GAMMA_ZERO


def test_expansion_keeps_its_cached_functoriality():
    expansion = copy.deepcopy(INSTANCES["Expansion"])
    assert "_functoriality_failures" not in expansion.__dict__
    assert expansion.verify_functoriality() == []
    assert expansion.__dict__ == {"_functoriality_failures": ()}
