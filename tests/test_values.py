"""The value types: slotted classes that compare, hash and print as frozen dataclasses did.

One instance of each class is pinned to the repr a dataclass gave it, to
equality and hashing over its fields in order, and to refusing
assignment when it is frozen.

The six verify checks return plain data, their bundle entries, in place
of the report classes they once returned.  Each is pinned here under the
name of its old class to the plain-data side of the same four
properties: its repr, its keys in bundle order, being unhashable as a
dict or list is, and handing each caller a value of its own.
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
        "Schedule": expansion.schedule,
        "Level": level,
        "BondingMap": bmap,
        "Expansion": expansion,
        "BoundaryPair": theta_boundary_pairs(2, 2)[0],
        "PipelineConfig": PipelineConfig(prime=3, stages=("validate",)),
        "RunReport": report,
    }


INSTANCES = _instances()


def _check_calls() -> dict:
    """Each verify check on the two points of _instances, keyed by its old report class."""
    expansion = INSTANCES["Expansion"]
    space, levels, bmap = expansion.space, expansion.levels, expansion.bonding[0]
    x = INSTANCES["PAdic"]
    y = PAdic.from_digit_stream([1, 0, 1], 2)
    return {
        "NonstretchReport": lambda: verify_nonstretching(bmap, levels[1], levels[0]),
        "DegeneracyReport": lambda: verify_nondegenerate(bmap, levels[1]),
        "UniformReport": lambda: check_uniform(space, levels[1].realization),
        "IsolationReport": lambda: isolated_point_check(
            space, [(level.cover, level.nerve) for level in levels]
        ),
        "IsometryReport": lambda: limit_isometry_check(space, expansion),
        "ThetaReport": lambda: theta_nonstretch_check([(x, y)], 3),
    }


CHECK_CALLS = _check_calls()
RETURNS = {name: call() for name, call in CHECK_CALLS.items()}

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
    "Schedule": ("j", "k", "b"),
    "Level": ("m", "cover", "nerve", "realization", "rep_of", "simplex_of"),
    "BondingMap": ("fine", "coarse", "vertex_map", "simplex_images"),
    "Expansion": ("space", "schedule", "levels", "bonding", "codes", "vectors"),
    "BoundaryPair": ("low", "high", "gap"),
    "PipelineConfig": (
        "prime", "precision", "schedule_j", "schedule_k", "b_shift", "stages", "out"
    ),
    "RunReport": ("stages", "failed"),
    # the checks' bundle entries: their keys in bundle order
    "NonstretchReport": ("from", "to", "violations", "merged_pairs", "single_step_contraction"),
    "DegeneracyReport": ("from", "to", "collapsed_simplexes"),
    "UniformReport": ("sup_diam", "inf_dist", "is_uniform"),
    "IsolationReport": ("first_level", "violations"),
    "IsometryReport": ("mismatches", "bound"),
    "ThetaReport": None,  # a list of violations, which has no keys
}
# a field holds a dict, so the instance is unhashable, as it was; the
# checks return dicts and lists, which are unhashable themselves
UNHASHABLE = {"Level", "BondingMap", "Expansion", *RETURNS}
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
    "Schedule": (
        "Schedule(j=(0, 1, 2), k=(0, 0, 0), b=(GammaValue(0), GammaValue(1), GammaValue(2)))"
    ),
    "Level": LEVEL_1,
    "BondingMap": "BondingMap(fine=1, coarse=0, vertex_map={0: 0}, simplex_images=(((0,), 0),))",
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
    "NonstretchReport": (
        "{'from': 1, 'to': 0, 'violations': [], 'merged_pairs': 0, "
        "'single_step_contraction': True}"
    ),
    "DegeneracyReport": "{'from': 1, 'to': 0, 'collapsed_simplexes': []}",
    "UniformReport": "{'sup_diam': 1, 'inf_dist': None, 'is_uniform': True}",
    "IsolationReport": "{'first_level': {0: 2, 1: 2}, 'violations': []}",
    "IsometryReport": "{'mismatches': [], 'bound': 0}",
    "ThetaReport": "[]",
}
NAMES = sorted(INSTANCES)
CHECKS = sorted(RETURNS)
VALUES = {**INSTANCES, **RETURNS}


def _fields(name: str) -> tuple:
    obj = VALUES[name]
    if name in INSTANCES:
        return tuple(getattr(obj, field) for field in FIELDS[name])
    if FIELDS[name] is None:
        return tuple(obj)
    return tuple(obj[key] for key in FIELDS[name])


def _rebuild(name: str, values: tuple):
    if name in INSTANCES:
        return type(VALUES[name])(*values)
    if FIELDS[name] is None:
        return list(values)
    return dict(zip(FIELDS[name], values))


def test_every_value_type_is_pinned():
    assert len(NAMES) == 16 and len(CHECKS) == 6
    assert set(NAMES) | set(CHECKS) == set(FIELDS) == set(REPRS)
    for name, obj in INSTANCES.items():
        assert type(obj).__name__ == name
        assert not hasattr(type(obj), "__dataclass_fields__")
    for name, obj in RETURNS.items():
        assert type(obj) is (list if FIELDS[name] is None else dict)


@pytest.mark.parametrize("name", NAMES + CHECKS)
def test_repr_is_the_dataclass_repr(name):
    assert repr(VALUES[name]) == REPRS[name]


@pytest.mark.parametrize("name", NAMES + CHECKS)
def test_equality_reads_the_fields_in_order(name):
    obj = VALUES[name]
    values = _fields(name)
    rebuilt = _rebuild(name, values)
    if name in RETURNS and FIELDS[name] is not None:
        assert tuple(obj) == FIELDS[name]  # dicts compare equal in any key order
    assert rebuilt == obj and not rebuilt != obj
    assert rebuilt is not obj
    assert obj != values and obj != object()
    assert obj.__eq__(values) is NotImplemented
    assert copy.deepcopy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


@pytest.mark.parametrize("name", NAMES + CHECKS)
def test_hash_is_the_hash_of_the_field_tuple(name):
    obj = VALUES[name]
    if name in UNHASHABLE or name in MUTABLE:
        with pytest.raises(TypeError):
            hash(obj)
        return
    values = _fields(name)
    assert hash(obj) == hash(values) == hash(_rebuild(name, values))


@pytest.mark.parametrize("name", NAMES + CHECKS)
def test_assignment_raises_on_frozen_types(name):
    if name in RETURNS:
        # plain data is mutable, so each call hands back a value of its own:
        # emptying one, nested containers included, leaves the next intact
        mine = CHECK_CALLS[name]()
        assert mine == RETURNS[name] and mine is not RETURNS[name]
        for key, value in mine.items() if isinstance(mine, dict) else ():
            if isinstance(value, (list, dict)):
                assert value is not RETURNS[name][key]
                value.clear()
        mine.clear()
        with pytest.raises(AttributeError):
            mine.no_such_field = 1
        assert CHECK_CALLS[name]() == RETURNS[name]
        return
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
