"""Scale covers by clopen balls and the nerve complexes they span.

A cover at scale p^-j partitions a space into closed balls; the nerve at
threshold p^k * b joins ball-vertices whose set distance stays within the
threshold.  Because the threshold relation is an equivalence whenever the
threshold dominates every block diameter, maximal simplexes partition the
vertex set: every complex here is a disjoint union of simplexes.

Every ball is a run of the space's merge-tree order, so a cover read off
the tree is the positions where that order is cut at its scale, and its
nerve the positions where it is cut at the threshold (``_Runs``).  A
cover built by hand lists its blocks one after another, in an order of
its own, and the same code reads both.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from functools import cached_property
from itertools import accumulate, chain

from .padic import GAMMA_ZERO, Frozen, GammaValue, _set
from .spaces import C0Vector, MergeTree, UltraSpace, _Embedding


class ThresholdError(ValueError):
    """Nerve threshold below a block diameter; the proximity relation would not be transitive."""


class NestingError(ValueError):
    """A finer block is not contained in a single coarser block."""


class _Runs:
    """Groups as runs of one order: group i is ``order[bounds[i]:bounds[i + 1]]``.

    ``heads[i]`` is group i's first member as its value type lists it,
    ``ranked`` lists the runs in the value type's order, and ``position``
    maps each member to its place in the order.  Read off a merge tree
    (``cut``), the order and positions are the tree's, the bounds are its
    cut positions below ``height``, and the groups rank by least member.
    Listed by hand (``listing``), the groups follow one another in their
    given order, and a member listed twice is found in its last group.
    """

    __slots__ = ("order", "bounds", "heads", "ranked", "position", "tree", "height")

    def __init__(self, order, bounds, heads, ranked, position, tree=None, height=None) -> None:
        self.order, self.bounds, self.heads, self.ranked = order, bounds, heads, ranked
        self.position, self.tree, self.height = position, tree, height

    @classmethod
    def cut(cls, tree: MergeTree, j: int | None) -> tuple[_Runs, tuple[tuple[int, ...], ...]]:
        """The runs of ``tree.cut(j)``, and its blocks: each run sorted, by least member.

        Each position's run is a running count of the cut positions; the
        points, taken in index order, then fill their runs, which so come
        ranked by least member.
        """
        bounds = tree.bounds(j)
        starts = map(set(bounds).__contains__, range(1, len(tree.order)))
        run_at = list(accumulate(starts, initial=0))
        members: dict[int, list[int]] = {}
        for x, i in enumerate(map(run_at.__getitem__, tree.position)):
            members.setdefault(i, []).append(x)
        heads = [0] * len(members)
        for i, block in members.items():
            heads[i] = block[0]
        runs = cls(tree.order, bounds, heads, list(members), tree._place, tree, j)
        return runs, tuple(map(tuple, members.values()))

    @classmethod
    def listing(cls, groups: Sequence[Sequence[int]]) -> _Runs:
        order = tuple(chain.from_iterable(groups))
        heads = [group[0] if group else None for group in groups]
        position = dict(zip(order, range(len(order))))
        return cls(order, (0, *accumulate(map(len, groups))), heads, range(len(groups)), position)

    def run(self, x) -> int | None:
        """The index of the run that holds x (None: none)."""
        at = self.position.get(x)
        return None if at is None else bisect_right(self.bounds, at) - 1

    def rep(self, x) -> int | None:
        """The head of the run that holds x: its representative (None: none)."""
        i = self.run(x)
        return None if i is None else self.heads[i]

    def members(self, i: int) -> tuple:
        return self.order[self.bounds[i] : self.bounds[i + 1]]

    def found(self, x) -> int:
        """``run(x)``, or KeyError when no run holds x."""
        i = self.run(x)
        if i is None:
            raise KeyError(x)
        return i

    def rank(self) -> list[int]:
        """Each run's index in the value type's list."""
        rank = [0] * len(self.heads)
        for r, i in enumerate(self.ranked):
            rank[i] = r
        return rank


def _first_inside(fine: _Runs, coarse: _Runs) -> int | None:
    """The list index of fine's first run that a cut position of coarse falls inside, or None.

    Both runs share one order, so fine's runs nest in coarse's exactly
    when every coarse cut position is a fine one.
    """
    cuts = set(fine.bounds)
    inside = {bisect_right(fine.bounds, b) - 1 for b in coarse.bounds if b not in cuts}
    if not inside:
        return None
    rank = fine.rank()
    return min(map(rank.__getitem__, inside))


class ScaleCover(Frozen):
    """Partition of the point set into closed balls of radius p^-level.

    Blocks are sorted tuples of point indices, ordered by smallest
    member; a block's representative is that smallest member.
    ``__dict__`` holds the blocks as runs (``_runs``) and caches
    ``rep_of`` and ``block_of``, each built only when read; it is not a
    field.
    """

    __slots__ = ("level", "blocks", "__dict__")
    _fields = __slots__[:-1]

    @cached_property
    def _runs(self) -> _Runs:
        """The blocks as runs: cut positions when ``scale_cover`` read them off a tree."""
        return _Runs.listing(self.blocks)

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
    """Blocks are the classes of {d <= p^-j}, i.e. exponent >= j: the runs of
    the merge tree's order between the positions it cuts below j."""
    runs, blocks = _Runs.cut(space.tree, j)
    cover = ScaleCover(level=j, blocks=blocks)
    cover.__dict__["_runs"] = runs
    return cover


def _crossing_block(fine: ScaleCover, coarse: ScaleCover) -> tuple[int, ...] | None:
    """The first fine block not inside one coarse block, or None.

    On one order, a fine block crosses when a coarse cut position falls
    inside it (``_first_inside``).  Across two orders, each fine run's
    members are found among the coarse runs; a member the coarse cover
    lacks crosses.
    """
    f, c = fine._runs, coarse._runs
    if f.order is c.order:
        first = _first_inside(f, c)
        return None if first is None else fine.blocks[first]
    rank = f.rank()
    for i in f.ranked:
        found = set(map(c.run, f.members(i)))
        if len(found) > 1 or None in found:
            return fine.blocks[rank[i]]
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
        block = _crossing_block(fine, coarse)
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
    ``__dict__`` caches ``simplex_of``, built only when read, and holds
    ``_cut`` where ``build_nerve`` read the simplexes off a merge tree:
    the cover they group and the threshold cut's runs, one per simplex.
    It is not a field.
    """

    __slots__ = ("level", "scale", "threshold", "vertices", "maximal_simplexes", "__dict__")
    _fields = __slots__[:-1]

    @cached_property
    def simplex_of(self) -> dict[int, int]:
        """Each vertex's maximal simplex index (the last that lists it)."""
        return {v: idx for idx, s in enumerate(self.maximal_simplexes) for v in s}

    def _cut_over(self, cover: ScaleCover) -> _Runs | None:
        """The threshold cut's runs, when ``build_nerve`` read them off a tree over this cover."""
        cut = self.__dict__.get("_cut")
        return cut[1] if cut is not None and cut[0] is cover else None

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
    are the runs of the merge tree's order cut below the threshold,
    grouped over the blocks: one bisection per block.  Over a cover read
    off the same tree, the largest diameter is the least height the
    cover's cut leaves inside a block (``MergeTree.straddle``), and the
    nerve keeps the threshold cut; over a cover built by hand, a block's
    diameter is the meet of its first and last positions in the order.
    """
    tree = space.tree
    runs = cover._runs
    read_off = runs.tree is tree
    if read_off:
        widest = tree.straddle(runs.height)[1]
    else:
        # each block's least and greatest position in the tree's order
        ranks = [list(map(tree.position.__getitem__, runs.members(i))) for i in runs.ranked]
        spans = [(min(r), max(r)) for r in ranks]
        diams = [e for e in (tree._meet(lo, hi) for lo, hi in spans) if e is not None]
        widest = min(diams) if diams else None
    sup_diam = GAMMA_ZERO if widest is None else GammaValue(widest)
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
    heads, bounds, cut = runs.heads, tree.bounds(threshold.exponent), None
    if read_off:
        # each threshold run spans whole blocks: their heads, sorted, are its simplex
        at = [bisect_left(runs.bounds, bound) for bound in bounds]
        spanned = [tuple(sorted(heads[lo:hi])) for lo, hi in zip(at, at[1:])]
        firsts = [simplex[0] for simplex in spanned]
        ranked = sorted(range(len(spanned)), key=firsts.__getitem__)
        cut = _Runs(tree.order, bounds, firsts, ranked, tree._place, tree, threshold.exponent)
        simplexes = tuple(map(spanned.__getitem__, ranked))
    else:
        classes: dict[int, list[int]] = {}
        for i, (lo, _) in zip(runs.ranked, spans):
            classes.setdefault(bisect_right(bounds, lo), []).append(heads[i])
        simplexes = tuple(map(tuple, classes.values()))
    nerve = NerveComplex(
        level=level,
        scale=cover.level,
        threshold=threshold,
        vertices=tuple(map(heads.__getitem__, runs.ranked)),
        maximal_simplexes=simplexes,
    )
    if cut is not None:
        nerve.__dict__["_cut"] = cover, cut
    return nerve


class RealizedCell(Frozen):
    """Ball certificate for one realized simplex.

    support: the point indices the cell covers; center: a support point
    (any member of an ultrametric ball is a center); radius: the ball
    radius, equal to the support diameter for freshly realized nerves
    and to the nominal subdivision radius after subdividing.
    """

    __slots__ = ("simplex", "support", "center", "radius")

    # the hot constructor, written out for the four fields
    def __init__(self, simplex, support, center, radius) -> None:
        _set(self, "simplex", simplex)
        _set(self, "support", support)
        _set(self, "center", center)
        _set(self, "radius", radius)


class Realization(Frozen):
    """Embedded-point geometry for a complex: vectors per point, a ball per simplex.

    ``vectors`` is one embedding, holding its merge tree, shared by the
    levels.  ``realize`` leaves the cells to be built when first read,
    from the tree, cover and nerve it keeps in ``__dict__``, which holds
    the cells once built and is not a field.
    """

    __slots__ = ("vectors", "__dict__")
    _fields = ("vectors", "cells")

    def __init__(self, vectors, cells) -> None:
        _set(self, "vectors", vectors if type(vectors) is _Embedding else _Embedding(vectors))
        self.__dict__["cells"] = cells

    @classmethod
    def _pending(cls, vectors, tree: MergeTree, cover: ScaleCover, nerve: NerveComplex):
        realization = cls(vectors, ())
        del realization.__dict__["cells"]  # built when first read
        realization.__dict__["_source"] = tree, cover, nerve
        return realization

    @cached_property
    def cells(self) -> tuple[RealizedCell, ...]:
        """One cell per maximal simplex: its support is the sorted union of the
        simplex's blocks, and its radius the support's diameter, the meet of its
        first and last points in the tree's order.  Cells of one radius share
        its GammaValue."""
        tree, cover, nerve = self.__dict__["_source"]
        runs = cover._runs
        radii: dict[int | None, GammaValue] = {}
        cells = []
        for simplex in nerve.maximal_simplexes:
            blocks = map(runs.members, map(runs.found, simplex))
            support = tuple(sorted(chain.from_iterable(blocks)))
            e = tree.diameter(support)
            radius = radii.get(e) or radii.setdefault(e, GammaValue(e))
            cells.append(RealizedCell(simplex, support, support[0], radius))
        return tuple(cells)

    def _cut(self, tree: MergeTree) -> _Runs | None:
        """The threshold cut whose runs are the cells, when ``realize`` left them
        to be read off a nerve cut from this tree over its cover (None: otherwise)."""
        source = self.__dict__.get("_source")
        if source is None or source[0] is not tree:
            return None
        return source[2]._cut_over(source[1])


def realize(
    space: UltraSpace,
    cover: ScaleCover,
    nerve: NerveComplex,
    vectors: Sequence[C0Vector],
) -> Realization:
    """Attach embedded positions and ball certificates to a nerve.

    The cells (``Realization.cells``) are built when first read; a check
    of a nerve cut from the tree reads the cut's positions instead.
    """
    return Realization._pending(vectors, space.tree, cover, nerve)


def check_uniform(space: UltraSpace, realization: Realization) -> dict:
    """Witness the bounded-diameter / positive-separation conditions exactly.

    Returns the bundle's entry for the level (less its ``level``), with
    distances as exponents: ``sup_diam``, the largest cell radius;
    ``inf_dist``, the smallest distance between points of different
    cells (None for a single cell, where the condition is vacuous); and
    ``is_uniform``, whether that distance is positive.  On cells that
    are the runs of a threshold cut of the space's merge tree both are
    the heights that straddle the threshold (``MergeTree.straddle``),
    O(log n).  Other cells may share points, as after arbitrary
    subdivisions: inf_dist comes from one sort of their members along
    the merge tree (see ``MergeTree.closest``).
    """
    tree = space.tree
    cut = realization._cut(tree)
    if cut is not None:
        below, widest = tree.straddle(cut.height)
        sup_diam = GammaValue(widest)
        inf_dist = GammaValue(below) if len(cut.heads) > 1 else None
    else:
        cells = realization.cells
        if not cells:
            raise ValueError("empty complex")
        sup_diam = max(cell.radius for cell in cells)
        inf_dist = None
        if len(cells) > 1:
            inf_dist = GammaValue(tree.closest([cell.support for cell in cells]))
    return {
        "sup_diam": sup_diam.to_json(),
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
    read off the merge tree, and who sits alone at each level is found
    once per level (``_alone``).
    """
    tree = space.tree
    n = space.n_points
    bounds = [max(GammaValue(cover.level), nerve.threshold) for cover, nerve in levels]
    alone = [_alone(tree, cover, nerve) for cover, nerve in levels]
    # the first level below each nearest-neighbour distance, found once per distance
    starts: dict[int | None, int | None] = {}
    first_level: dict[int, int | None] = {}
    violations = []
    for x in range(n):
        e = tree.nearest(x) if n > 1 else False
        if e not in starts:
            delta = GammaValue(e) if n > 1 else None
            starts[e] = next(
                (m for m, bound in enumerate(bounds) if delta is None or bound < delta), None
            )
        first_level[x] = start = starts[e]
        if start is not None:
            violations += [[x, m] for m in range(start, len(levels)) if not alone[m](x)]
    return {"first_level": first_level, "violations": violations}


def _alone(tree: MergeTree, cover: ScaleCover, nerve: NerveComplex) -> Callable[[int], bool]:
    """Whether a point's block and the simplex of its block are that point alone.

    On a nerve cut from the tree over its cover, these are the points
    whose threshold run is one position.  Otherwise a point's block is
    found in the cover's runs and its simplex through ``simplex_of``;
    a point in no block, or a block whose head is no vertex, raises
    KeyError.
    """
    cut = nerve._cut_over(cover)
    if cut is not None and cut.tree is tree:
        b, order = cut.bounds, cut.order
        return {order[s] for s, e in zip(b, b[1:]) if e - s == 1}.__contains__
    runs, simplexes = cover._runs, nerve.maximal_simplexes

    def alone(x: int) -> bool:
        i = runs.found(x)
        return simplexes[nerve.simplex_of[runs.heads[i]]] == (x,) and runs.members(i) == (x,)

    return alone


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
