"""Scale covers by clopen balls and the nerve complexes they span.

A cover at scale p^-j partitions a space into closed balls; the nerve at
threshold p^k * b joins ball-vertices whose set distance stays within the
threshold.  Because the threshold relation is an equivalence whenever the
threshold dominates every block diameter, maximal simplexes partition the
vertex set: every complex here is a disjoint union of simplexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .padic import GAMMA_ZERO, GammaValue
from .spaces import C0Vector, UltraSpace, threshold_classes


class ThresholdError(ValueError):
    """Nerve threshold below a block diameter; the proximity relation would not be transitive."""


class NestingError(ValueError):
    """A finer block is not contained in a single coarser block."""


@dataclass(frozen=True)
class ScaleCover:
    """Partition of the point set into closed balls of radius p^-level.

    Blocks are sorted tuples of point indices, ordered by smallest
    member; a block's representative is that smallest member.
    """

    level: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(block[0] for block in self.blocks)

    def block_of(self, point: int) -> tuple[int, ...]:
        for block in self.blocks:
            if point in block:
                return block
        raise KeyError(f"point {point} not covered")

    def rep_of(self, point: int) -> int:
        return self.block_of(point)[0]


def scale_cover(space: UltraSpace, j: int) -> ScaleCover:
    """Blocks are the classes of {d <= p^-j}, i.e. exponent >= j."""
    return ScaleCover(level=j, blocks=tuple(threshold_classes(space, j)))


def cover_tower(space: UltraSpace, j_min: int, j_max: int) -> list[ScaleCover]:
    """Covers for j_min..j_max; each finer block nests in one coarser block."""
    if j_min > j_max:
        raise ValueError("j_min must not exceed j_max")
    tower = [scale_cover(space, j) for j in range(j_min, j_max + 1)]
    for coarse, fine in zip(tower, tower[1:]):
        _check_nested(fine, coarse)
    return tower


def _check_nested(fine: ScaleCover, coarse: ScaleCover) -> None:
    for block in fine.blocks:
        parents = {coarse.rep_of(point) for point in block}
        if len(parents) != 1:
            raise NestingError(
                f"block {block} at scale {fine.level} crosses blocks at scale {coarse.level}"
            )


@dataclass(frozen=True)
class NerveComplex:
    """Disjoint-union-of-simplexes complex over the blocks of a cover.

    Vertices are block representatives; maximal simplexes are the
    threshold classes of blocks, and every subset of a simplex is an
    implicit face.  A simplex on q+1 vertices has dimension q.
    """

    level: int
    scale: int
    threshold: GammaValue
    vertices: tuple[int, ...]
    maximal_simplexes: tuple[tuple[int, ...], ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(s) - 1 for s in self.maximal_simplexes)

    @property
    def dim_l(self) -> int:
        return max(self.dims)

    def has_face(self, vs: Iterable[int]) -> bool:
        face = set(vs)
        return any(face <= set(s) for s in self.maximal_simplexes)

    def simplex_index_of(self, vertex: int) -> int:
        for idx, s in enumerate(self.maximal_simplexes):
            if vertex in s:
                return idx
        raise KeyError(f"vertex {vertex} not in complex")

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
    if threshold < sup_diam:
        raise ThresholdError(
            f"threshold {threshold!r} is below the block diameter bound {sup_diam!r}"
        )
    ball = tree.cut(threshold.exponent)
    classes: dict[int, list[int]] = {}
    reps = cover.representatives
    for rep in reps:
        classes.setdefault(ball[rep], []).append(rep)
    return NerveComplex(
        level=cover.level if level is None else level,
        scale=cover.level,
        threshold=threshold,
        vertices=reps,
        maximal_simplexes=tuple(map(tuple, classes.values())),
    )


@dataclass(frozen=True)
class RealizedCell:
    """Ball certificate for one realized simplex.

    support: the point indices the cell covers; center: a support point
    (any member of an ultrametric ball is a center); radius: the ball
    radius, equal to the support diameter for freshly realized nerves
    and to the nominal subdivision radius after subdividing.
    """

    simplex: tuple[int, ...]
    support: tuple[int, ...]
    center: int
    radius: GammaValue


@dataclass(frozen=True)
class Realization:
    """Embedded-point geometry for a complex: vectors per point, a ball per simplex."""

    vectors: tuple[C0Vector, ...]
    cells: tuple[RealizedCell, ...]

    def position(self, vertex: int) -> C0Vector:
        return self.vectors[vertex]


def realize(
    space: UltraSpace,
    cover: ScaleCover,
    nerve: NerveComplex,
    vectors: Sequence[C0Vector],
) -> Realization:
    """Attach embedded positions and ball certificates to a nerve.

    A cell's radius is its support's diameter, read off the merge tree.
    """
    rep_to_block = {block[0]: block for block in cover.blocks}
    cells = []
    for simplex in nerve.maximal_simplexes:
        support = tuple(sorted(p for v in simplex for p in rep_to_block[v]))
        cells.append(
            RealizedCell(
                simplex=simplex,
                support=support,
                center=support[0],
                radius=GammaValue(space.tree.diameter(support)),
            )
        )
    return Realization(vectors=tuple(vectors), cells=tuple(cells))


@dataclass(frozen=True)
class UniformReport:
    sup_diam: GammaValue
    inf_dist: GammaValue | None  # None: vacuous (single simplex), treated as +inf
    is_uniform: bool


def check_uniform(space: UltraSpace, realization: Realization) -> UniformReport:
    """Witness the bounded-diameter / positive-separation conditions exactly.

    inf_dist is the smallest distance between points of different
    cells, from one sort of the cells' members along the merge tree (see
    ``MergeTree.closest``); cells may share points, as after arbitrary
    subdivisions.
    """
    cells = realization.cells
    if not cells:
        raise ValueError("empty complex")
    sup_diam = max(cell.radius for cell in cells)
    inf_dist: GammaValue | None = None
    if len(cells) > 1:
        inf_dist = GammaValue(space.tree.closest([cell.support for cell in cells]))
    is_uniform = inf_dist is None or not inf_dist.is_zero
    return UniformReport(sup_diam=sup_diam, inf_dist=inf_dist, is_uniform=is_uniform)


def subdivide(space: UltraSpace, realization: Realization, j: int) -> Realization:
    """Partition each cell of radius r into the sub-balls of radius r * p^-j
    that meet its support.

    Composing subdivisions adds the exponents: subdividing by j1 then j2
    yields the same supports and radii as one subdivision by j1 + j2.
    """
    if j < 1:
        raise ValueError("subdivision exponent must be >= 1")
    new_cells = []
    for cell in realization.cells:
        sub_radius = cell.radius.scaled(-j)
        parts = _partition_within(space, cell.support, sub_radius)
        for part in parts:
            new_cells.append(
                RealizedCell(
                    simplex=cell.simplex,
                    support=part,
                    center=part[0],
                    radius=sub_radius,
                )
            )
    return Realization(vectors=realization.vectors, cells=tuple(new_cells))


def _partition_within(
    space: UltraSpace, points: Sequence[int], threshold: GammaValue
) -> list[tuple[int, ...]]:
    classes: list[list[int]] = []
    for point in points:
        for cls in classes:
            if space.dist[cls[0]][point] <= threshold:
                cls.append(point)
                break
        else:
            classes.append([point])
    return [tuple(cls) for cls in classes]


@dataclass(frozen=True)
class IsolationReport:
    """Per point: the first level from which it must sit alone, and violations."""

    first_level: dict[int, int | None]
    violations: tuple[tuple[int, int], ...]  # (point, level) pairs

    @property
    def ok(self) -> bool:
        return not self.violations


def isolated_point_check(
    space: UltraSpace, levels: Sequence[tuple[ScaleCover, NerveComplex]]
) -> IsolationReport:
    """Outliers degenerate: past the level where both the ball scale and the
    nerve threshold drop below a point's nearest-neighbor distance, its
    simplex must be the single vertex of its singleton block.

    A point's nearest-neighbour distance is read off the merge tree, and
    its block and simplex from lookups built once per level.
    """
    n = space.n_points
    bounds = [max(GammaValue(cover.level), nerve.threshold) for cover, nerve in levels]
    block_at: list[dict[int, tuple[int, ...]]] = []
    simplex_at: list[dict[int, tuple[int, ...]]] = []
    for cover, nerve in levels:
        block_at.append({x: block for block in cover.blocks for x in block})
        simplex_at.append({v: s for s in nerve.maximal_simplexes for v in s})
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
        for m in range(start, len(levels)):
            block = block_at[m][x]
            simplex = simplex_at[m][block[0]]
            if block != (x,) or simplex != (x,):
                violations.append((x, m))
    return IsolationReport(first_level=first_level, violations=tuple(violations))


def nerve_to_dot(nerve: NerveComplex, labels: Sequence[str] | None = None) -> str:
    """DOT graph for one level: maximal simplexes as filled cliques.

    Node and edge ordering is deterministic, so re-export is
    byte-identical.
    """

    def name(v: int) -> str:
        return labels[v] if labels is not None else str(v)

    lines = [f"graph level_{nerve.level} {{"]
    cluster = 0
    for simplex in nerve.maximal_simplexes:
        if len(simplex) == 1:
            continue
        lines.append(f"  subgraph cluster_{cluster} {{")
        lines.append("    style=filled;")
        lines.append("    color=lightgrey;")
        for v in simplex:
            lines.append(f'    "{name(v)}";')
        for a in range(len(simplex)):
            for b in range(a + 1, len(simplex)):
                lines.append(f'    "{name(simplex[a])}" -- "{name(simplex[b])}";')
        lines.append("  }")
        cluster += 1
    for simplex in nerve.maximal_simplexes:
        if len(simplex) == 1:
            lines.append(f'  "{name(simplex[0])}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
