"""Scale covers by clopen balls and the nerve complexes they span.

A cover at scale p^-j partitions a space into closed balls; the nerve at
threshold p^k * b joins ball-vertices whose set distance stays within the
threshold.  Because the threshold relation is an equivalence whenever the
threshold dominates every block diameter, maximal simplexes partition the
vertex set: every complex here is a disjoint union of simplexes.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from itertools import chain

from .padic import GAMMA_ZERO, Frozen, GammaValue, _set
from .spaces import C0Vector, UltraSpace, _Embedding


class ThresholdError(ValueError):
    """Nerve threshold below a block diameter; the proximity relation would not be transitive."""


class NestingError(ValueError):
    """A finer block is not contained in a single coarser block."""


class ScaleCover(Frozen):
    """Partition of the point set into closed balls of radius p^-level.

    Blocks are sorted tuples of point indices, ordered by smallest
    member; a block's representative is that smallest member.
    ``__dict__`` caches ``rep_of`` and ``block_of`` and is not a field.
    """

    __slots__ = ("level", "blocks", "__dict__")
    _fields = __slots__[:-1]

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(block[0] for block in self.blocks)

    @cached_property
    def rep_of(self) -> dict[int, int]:
        """Each point's block representative: its parent pointer in the ball tree."""
        return {point: block[0] for block in self.blocks for point in block}

    @cached_property
    def block_of(self) -> dict[int, tuple[int, ...]]:
        """Each point's block."""
        return {point: block for block in self.blocks for point in block}


def scale_cover(space: UltraSpace, j: int) -> ScaleCover:
    """Blocks are the classes of {d <= p^-j}, i.e. exponent >= j."""
    return ScaleCover(level=j, blocks=tuple(space.tree.classes(j)))


def _crossing_block(
    fine_rep: dict[int, int], coarse_rep: dict[int, int]
) -> tuple[int, ...] | None:
    """The first fine block (points sharing a representative) not inside one coarse block, or None.

    The one nesting rule: ``coarse_rep[x] == coarse_rep[fine_rep[x]]`` for
    every point x; a point the coarse map lacks crosses.
    """
    for x, rep in fine_rep.items():
        if x not in coarse_rep or coarse_rep.get(rep) != coarse_rep[x]:
            return tuple(y for y, r in fine_rep.items() if r == rep)
    return None


def _parents(simplexes, image, simplex_of: dict[int, int]) -> list[int | None]:
    """The simplicial rule: each fine maximal simplex's parent, the one coarse maximal
    simplex (read through ``simplex_of``) that holds the images of all its vertices, or None."""
    get = simplex_of.get
    return [h.pop() if len(h := set(map(get, map(image, s)))) == 1 else None for s in simplexes]


def cover_tower(space: UltraSpace, j_min: int, j_max: int) -> list[ScaleCover]:
    """Covers for j_min..j_max; each finer block nests in one coarser block."""
    if j_min > j_max:
        raise ValueError("j_min must not exceed j_max")
    tower = [scale_cover(space, j) for j in range(j_min, j_max + 1)]
    for coarse, fine in zip(tower, tower[1:]):
        block = _crossing_block(fine.rep_of, coarse.rep_of)
        if block is not None:
            raise NestingError(
                f"block {block} at scale {fine.level} crosses blocks at scale {coarse.level}"
            )
    return tower


class NerveComplex(Frozen):
    """Disjoint-union-of-simplexes complex over the blocks of a cover.

    Vertices are block representatives; maximal simplexes are the
    threshold classes of blocks, and every subset of a simplex is an
    implicit face.  A simplex on q+1 vertices has dimension q.
    ``__dict__`` caches ``simplex_of`` and is not a field.
    """

    __slots__ = ("level", "scale", "threshold", "vertices", "maximal_simplexes", "__dict__")
    _fields = __slots__[:-1]

    @cached_property
    def simplex_of(self) -> dict[int, int]:
        """Each vertex's maximal simplex index (the last that lists it)."""
        return {v: idx for idx, s in enumerate(self.maximal_simplexes) for v in s}

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(s) - 1 for s in self.maximal_simplexes)

    @property
    def dim_l(self) -> int:
        return max(self.dims)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "scale": self.scale,
            "threshold": self.threshold.to_json(),
            "vertices": list(self.vertices),
            "maximal_simplexes": [list(s) for s in self.maximal_simplexes],
            "dimL": self.dim_l,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "NerveComplex":
        return cls(
            level=obj["level"],
            scale=obj["scale"],
            threshold=GammaValue.from_json(obj["threshold"]),
            vertices=tuple(obj["vertices"]),
            maximal_simplexes=tuple(tuple(s) for s in obj["maximal_simplexes"]),
        )


def build_nerve(
    space: UltraSpace,
    cover: ScaleCover,
    k: int = 0,
    b: GammaValue | None = None,
    level: int | None = None,
) -> NerveComplex:
    """Span simplexes over blocks within set distance p^k * b of each other.

    b defaults to the largest block diameter.  The threshold must
    dominate every block diameter; then each block lies in one ball of
    the threshold radius, and two blocks are within the threshold
    exactly when they lie in the same ball.  So the maximal simplexes
    are the cut of the space's merge tree at the threshold, grouped over
    the blocks: O(n) with the diameters.
    """
    tree = space.tree
    diams = [e for e in map(tree.diameter, cover.blocks) if e is not None]
    sup_diam = GammaValue(min(diams)) if diams else GAMMA_ZERO
    if b is None:
        b = sup_diam
    threshold = b.scaled(k)
    if level is None:
        level = cover.level
    if threshold < sup_diam:
        raise ThresholdError(
            f"level {level}: threshold (exponent {threshold.to_json()}) is below "
            f"the block diameter bound (exponent {sup_diam.to_json()})"
        )
    ball = tree.cut(threshold.exponent)
    classes: dict[int, list[int]] = {}
    reps = cover.representatives
    for rep in reps:
        classes.setdefault(ball[rep], []).append(rep)
    return NerveComplex(
        level=level,
        scale=cover.level,
        threshold=threshold,
        vertices=reps,
        maximal_simplexes=tuple(map(tuple, classes.values())),
    )


class RealizedCell(Frozen):
    """Ball certificate for one realized simplex.

    support: the point indices the cell covers; center: a support point
    (any member of an ultrametric ball is a center); radius: the ball
    radius, equal to the support diameter for freshly realized nerves
    and to the nominal subdivision radius after subdividing.
    """

    __slots__ = ("simplex", "support", "center", "radius")

    # the hot constructor, written out for the four fields: realize builds
    # one cell per maximal simplex of every level
    def __init__(self, simplex, support, center, radius) -> None:
        _set(self, "simplex", simplex)
        _set(self, "support", support)
        _set(self, "center", center)
        _set(self, "radius", radius)


class Realization(Frozen):
    """Embedded-point geometry for a complex: vectors per point, a ball per simplex.

    ``vectors`` is one embedding, holding its merge tree, shared by the levels.
    """

    __slots__ = ("vectors", "cells")

    def __init__(self, vectors, cells) -> None:
        _set(self, "vectors", vectors if type(vectors) is _Embedding else _Embedding(vectors))
        _set(self, "cells", cells)


def realize(
    space: UltraSpace,
    cover: ScaleCover,
    nerve: NerveComplex,
    vectors: Sequence[C0Vector],
) -> Realization:
    """Attach embedded positions and ball certificates to a nerve.

    A cell's support is the sorted union of its simplex's blocks, and its
    radius the support's diameter: the meet of its first and last points
    in the merge tree's order.  Cells of one radius share its GammaValue.
    """
    radii: dict[int | None, GammaValue] = {}
    cells = []
    for simplex in nerve.maximal_simplexes:
        support = tuple(sorted(chain.from_iterable(map(cover.block_of.__getitem__, simplex))))
        e = space.tree.diameter(support)
        radius = radii.get(e) or radii.setdefault(e, GammaValue(e))
        cells.append(RealizedCell(simplex, support, support[0], radius))
    return Realization(vectors=vectors, cells=tuple(cells))


def check_uniform(space: UltraSpace, realization: Realization) -> dict:
    """Witness the bounded-diameter / positive-separation conditions exactly.

    Returns the bundle's entry for the level (less its ``level``), with
    distances as exponents: ``sup_diam``, the largest cell radius;
    ``inf_dist``, the smallest distance between points of different
    cells (None for a single cell, where the condition is vacuous); and
    ``is_uniform``, whether that distance is positive.  inf_dist comes
    from one sort of the cells' members along the merge tree (see
    ``MergeTree.closest``); cells may share points, as after arbitrary
    subdivisions.
    """
    cells = realization.cells
    if not cells:
        raise ValueError("empty complex")
    inf_dist = None
    if len(cells) > 1:
        inf_dist = GammaValue(space.tree.closest([cell.support for cell in cells]))
    return {
        "sup_diam": max(cell.radius for cell in cells).to_json(),
        "inf_dist": None if inf_dist is None else inf_dist.to_json(),
        "is_uniform": inf_dist is None or not inf_dist.is_zero,
    }


def subdivide(space: UltraSpace, realization: Realization, j: int) -> Realization:
    """Partition each cell of radius r into the sub-balls of radius r * p^-j
    that meet its support.

    Composing subdivisions adds the exponents: subdividing by j1 then j2
    yields the same supports and radii as one subdivision by j1 + j2.
    The sub-balls are a cut of the space's merge tree; parts are ordered
    by their first member in the support's order.
    """
    if j < 1:
        raise ValueError("subdivision exponent must be >= 1")
    new_cells = []
    for cell in realization.cells:
        sub_radius = cell.radius.scaled(-j)
        ball = space.tree.cut(sub_radius.exponent)
        parts: dict[int, list[int]] = {}
        for point in cell.support:
            parts.setdefault(ball[point], []).append(point)
        for part in map(tuple, parts.values()):
            new_cells.append(
                RealizedCell(
                    simplex=cell.simplex,
                    support=part,
                    center=part[0],
                    radius=sub_radius,
                )
            )
    return Realization(vectors=realization.vectors, cells=tuple(new_cells))


def isolated_point_check(
    space: UltraSpace, levels: Sequence[tuple[ScaleCover, NerveComplex]]
) -> dict:
    """Outliers degenerate: past the level where both the ball scale and the
    nerve threshold drop below a point's nearest-neighbor distance, its
    simplex must be the single vertex of its singleton block.

    Returns ``first_level``, per point the first level from which it must
    sit alone (None if none), and ``violations``, the [point, level]
    pairs where it does not.  A point's nearest-neighbour distance is
    read off the merge tree, and its block and simplex from the cover's
    ``block_of`` and the nerve's ``simplex_of``.
    """
    n = space.n_points
    bounds = [max(GammaValue(cover.level), nerve.threshold) for cover, nerve in levels]
    first_level: dict[int, int | None] = {}
    violations = []
    for x in range(n):
        delta = GammaValue(space.tree.nearest(x)) if n > 1 else None
        start = next(
            (m for m, bound in enumerate(bounds) if delta is None or bound < delta), None
        )
        first_level[x] = start
        if start is None:
            continue
        for m, (cover, nerve) in enumerate(levels[start:], start):
            block = cover.block_of[x]
            simplex = nerve.maximal_simplexes[nerve.simplex_of[block[0]]]
            if block != (x,) or simplex != (x,):
                violations.append([x, m])
    return {"first_level": first_level, "violations": violations}


def nerve_to_dot(nerve: NerveComplex, labels: Sequence[str] | None = None) -> str:
    """DOT graph for one level: maximal simplexes as filled cliques.

    Node and edge ordering is deterministic, so re-export is
    byte-identical.  Names are quoted, with ``"`` and ``\\`` escaped.
    """
    # each name escaped once, though a vertex may end many edges
    names = {
        v: str(v if labels is None else labels[v]).replace("\\", "\\\\").replace('"', '\\"')
        for simplex in nerve.maximal_simplexes
        for v in simplex
    }

    lines = [f"graph level_{nerve.level} {{"]
    cluster = 0
    for simplex in nerve.maximal_simplexes:
        if len(simplex) == 1:
            continue
        lines.append(f"  subgraph cluster_{cluster} {{")
        lines.append("    style=filled;")
        lines.append("    color=lightgrey;")
        for v in simplex:
            lines.append(f'    "{names[v]}";')
        for a in range(len(simplex)):
            for b in range(a + 1, len(simplex)):
                lines.append(f'    "{names[simplex[a]]}" -- "{names[simplex[b]]}";')
        lines.append("  }")
        cluster += 1
    for simplex in nerve.maximal_simplexes:
        if len(simplex) == 1:
            lines.append(f'  "{names[simplex[0]]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
