"""Inverse systems of nerve complexes with non-stretching bonding maps.

A schedule fixes, per level, the ball scale p^-j(m), the threshold factor
p^k(m) and the diameter bound b(m).  Levels refine as m grows, each finer
block nests in one coarser block, and the induced vertex maps send every
simplex into a simplex of the next level.  Threads (one simplex per
level, linked by the maps) recover points: intersecting their preimages
over a separating schedule is the identity.

The finite truncation stops at the first separating level; all deeper
levels of the infinite-system picture are constant and carry nothing.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import accumulate, combinations, compress
from operator import ne

from .nerve import (
    NestingError,
    _crossing_block,
    _first_inside,
    _parents,
    build_nerve,
    realize,
    scale_cover,
)
from .padic import Frozen, GammaValue, PAdic, _schedule_fault, check_prime
from .spaces import (
    C0Vector,
    MergeTree,
    UltraSpace,
    UnseparatedSpaceError,
    baire_encode,
    c0_embed,
    space_from_points,
)


class ScheduleError(ValueError):
    """Level schedule violates monotonicity or shape constraints."""


class SeparationError(ValueError):
    """The finest level fails to separate the points."""


class IncoherentThreadError(ValueError):
    """A thread's simplexes are not linked by the bonding maps."""


class Schedule(Frozen):
    """Per-level parameters: ball scales j, threshold factors k, bounds b.

    j must increase strictly (covers shrink), k must not increase, and
    the induced thresholds p^k * b must not grow level over level; any
    other schedule raises ScheduleError (``padic._schedule_fault``, whose
    rules the bundle loader shares).
    """

    __slots__ = ("j", "k", "b")

    def __init__(self, j: tuple[int, ...], k: tuple[int, ...], b: tuple[GammaValue, ...]) -> None:
        super().__init__(j, k, b)
        if fault := _schedule_fault(j, k, b):
            raise ScheduleError(fault)

    @property
    def depth(self) -> int:
        return len(self.j)

    @classmethod
    def auto(cls, space: UltraSpace, k_shift: int = 0, b_shift: int = 0) -> "Schedule":
        """Default schedule: consecutive scales from one-block to separating.

        j runs from min(0, smallest exponent) through largest exponent + 1,
        further by k_shift - b_shift when that is positive: the threshold
        p^k * b is p^-(j + b_shift - k_shift), so the last level then still
        separates the points.  k(m) = k_shift, b(m) = p^-(j(m) + b_shift).
        b_shift > k_shift makes thresholds tighter than the ball diameters
        and is rejected when the nerves are built.  More than
        ``MAX_AUTO_LEVELS`` levels raise ScheduleError before any is built.
        """
        exponents = space.finite_exponents()
        if exponents:
            js = range(min(0, exponents[0]), exponents[-1] + 2 + max(0, k_shift - b_shift))
            if len(js) > MAX_AUTO_LEVELS:
                raise ScheduleError(
                    f"the auto schedule needs {len(js)} levels, more than {MAX_AUTO_LEVELS}"
                )
        else:
            js = (0,)
        return cls(
            j=tuple(js),
            k=tuple(k_shift for _ in js),
            b=tuple(GammaValue(j + b_shift) for j in js),
        )

    def to_json(self) -> dict:
        return {
            "j": list(self.j),
            "k": list(self.k),
            "b": [g.to_json() for g in self.b],
        }


class Level(Frozen):
    """One rung of the system: cover, nerve and realization."""

    __slots__ = ("m", "cover", "nerve", "realization")


def _make_level(
    space: UltraSpace,
    m: int,
    j: int,
    k: int,
    b: GammaValue,
    vectors: Sequence[C0Vector],
) -> Level:
    cover = scale_cover(space, j)
    nerve = build_nerve(space, cover, k=k, b=b, level=m)
    return Level(m, cover, nerve, realize(space, cover, nerve, vectors))


class BondingMap(Frozen):
    """Vertex map from a finer level onto the coarser one by block containment.

    Every complex is a disjoint union of simplexes, so the simplicial map
    is its vertex map: a fine simplex's image is the set of its vertices'
    images.
    """

    __slots__ = ("fine", "coarse", "vertex_map")

    def to_json(self) -> dict:
        return {
            "from": self.fine,
            "to": self.coarse,
            "vertex_map": {str(v): w for v, w in sorted(self.vertex_map.items())},
        }


def bonding_map(fine: Level, coarse: Level) -> BondingMap:
    """Send each fine block to the coarse block containing it: its parent pointer.

    The vertex map sends each fine vertex to the head of the coarse run
    that holds it, one bisection into the coarse cut positions.  Under
    that map a fine simplex lies in one coarse simplex exactly when no
    coarse threshold cut position falls inside its threshold run, where
    both nerves are cut from one tree over their covers; other nerves
    follow the simplicial rule (``_parents``).

    Raises:
        NestingError: if some fine block crosses coarse blocks.
        NestingError: if some fine simplex has no containing coarse simplex.
    """
    block = _crossing_block(fine.cover, coarse.cover)
    if block is not None:
        raise NestingError(f"block {block} of level {fine.m} crosses blocks of level {coarse.m}")
    vertex_map = _containment(fine, coarse)
    if None in vertex_map.values():
        raise KeyError(next(v for v, w in vertex_map.items() if w is None))
    f, c = fine.nerve._cut_over(fine.cover), coarse.nerve._cut_over(coarse.cover)
    if f is not None and c is not None and f.order is c.order:
        first = _first_inside(f, c)
    else:
        simplexes, simplex_of = fine.nerve.maximal_simplexes, coarse.nerve.simplex_of
        parents = _parents(simplexes, vertex_map.__getitem__, simplex_of)
        first = parents.index(None) if None in parents else None
    if first is not None:
        raise NestingError(
            f"simplex {fine.nerve.maximal_simplexes[first]} of level {fine.m}"
            f" has no containing simplex at level {coarse.m}"
        )
    return BondingMap(fine=fine.m, coarse=coarse.m, vertex_map=vertex_map)


def _containment(fine: Level, coarse: Level) -> dict:
    """Each fine vertex sent to the head of the coarse run that holds it (None: none).

    Where the fine nerve is cut over its cover and the fine runs nest in
    the coarse ones on one order, the coarse run of fine run i is the
    count of coarse cut positions among the fine ones up to i's start.
    """
    f, c = fine.cover._runs, coarse.cover._runs
    nested = f.order is c.order and _first_inside(f, c) is None
    if nested and fine.nerve._cut_over(fine.cover) is not None:
        counts = accumulate(map(set(c.bounds).__contains__, f.bounds[:-1]))
        images = list(map([None, *c.heads].__getitem__, counts))
        return dict(zip(map(f.heads.__getitem__, f.ranked), map(images.__getitem__, f.ranked)))
    return {v: c.rep(v) for v in fine.nerve.vertices}


def verify_nonstretching(bmap: BondingMap, fine: Level, coarse: Level) -> dict:
    """Compare every fine vertex pair's realized distance with its image's.

    Returns the bundle's entry for the map: ``violations``, the vertex
    pairs whose image distance exceeds their distance or that have an
    unmapped end, or an end mapped to no point of the space (must be
    empty);
    ``merged_pairs``, the count of pairs sent to one vertex; and
    ``single_step_contraction``, whether every merged pair sat at
    distance exactly p * p^-j(fine), the one-scale-step value forced by
    consecutive schedules.  The map contracts those pairs to zero; all
    other pairs keep their exact distance.

    Two merge trees on the mapped vertices decide it: their embedding's
    tree, and its image's tree pulled back through the map.  The
    violations are the pairs the second stretches (``MergeTree.stretched``),
    after the pairs with an unmapped end.  The merged pairs are the pairs
    of one image: all of them sit at p^-step exactly when each image's
    vertices share a block of the cut at step and no two share one at
    step + 1.  A map onto containing balls keeps the fine tree's order,
    so both trees share it and a passing map costs O(n); any other costs
    O(n) per height.  Each embedding's tree is built once.

    Between two covers cut from one tree, a map that sends each fine
    block into the coarse block that holds it (``_containment``), on an
    embedding that keeps every distance of the space (``_isometric``),
    stretches no pair: two blocks in one coarse ball merge, and two in
    different ones keep their distance.  Its merged pairs are the pairs
    of fine runs inside one coarse run, which sit at p^-step exactly when
    every fine cut position inside a coarse run is at height step: one
    pass over the cut positions.
    """
    step = fine.cover.level - 1  # exponent of a one-scale-step merged pair
    f, c, vectors = fine.cover._runs, coarse.cover._runs, fine.realization.vectors
    if (
        f.tree is not None
        and f.order is c.order
        and fine.nerve._cut_over(fine.cover) is not None
        and coarse.realization.vectors is vectors
        and vectors._isometric(f.tree)
        and _first_inside(f, c) is None
        and bmap.vertex_map == _containment(fine, coarse)
    ):
        cuts = set(c.bounds)
        inside = [b for b in f.bounds[1:-1] if b not in cuts]
        splits = Counter(bisect_right(c.bounds, b) for b in inside)
        return {
            "from": bmap.fine,
            "to": bmap.coarse,
            "violations": [],
            "merged_pairs": sum(k * (k + 1) // 2 for k in splits.values()),
            "single_step_contraction": all(f.tree.heights[b - 1] == step for b in inside),
        }
    verts = fine.nerve.vertices
    # an image that is no point of the space counts as unmapped
    n_points = len(coarse.realization.vectors)
    images = [
        iv if type(iv) is int and 0 <= iv < n_points else None
        for iv in map(bmap.vertex_map.get, verts)
    ]
    violations = []
    if None in images:
        # a pair with an unmapped end has no image distance: a violation,
        # listed ahead of the mapped pairs
        ends = list(zip(verts, images))
        violations = [
            [v, w] for a, (v, x) in enumerate(ends) for w, y in ends[a + 1 :] if None in (x, y)
        ]
        verts = [v for v, iv in ends if iv is not None]
        images = [iv for iv in images if iv is not None]
    tree = fine.realization.vectors.tree.pulled_back(verts)
    # the images listed along the fine tree: where the map keeps the order,
    # as a map onto containing balls does, both trees share it
    along = coarse.realization.vectors.tree.pulled_back(list(map(images.__getitem__, tree.order)))
    image_tree = MergeTree(list(map(tree.order.__getitem__, along.order)), along.heights)
    violations += [[verts[x], verts[y]] for x, y, _, _ in tree.stretched(image_tree)]
    low = tree.cut(step)
    block_of = dict(zip(images, low))
    single_step = list(map(block_of.__getitem__, images)) == low and len(
        set(zip(images, tree.cut(step + 1)))
    ) == len(images)
    return {
        "from": bmap.fine,
        "to": bmap.coarse,
        "violations": violations,
        "merged_pairs": sum(k * (k - 1) // 2 for k in Counter(images).values()),
        "single_step_contraction": single_step,
    }


def verify_nondegenerate(bmap: BondingMap, fine: Level) -> dict:
    """The bundle's entry for the map: fine maximal simplexes of two or
    more vertices that collapse onto one image vertex (None for unmapped ones)."""
    collapsed = [
        idx
        for idx, s in enumerate(fine.nerve.maximal_simplexes)
        if len(s) >= 2 and len({bmap.vertex_map.get(v) for v in s}) == 1
    ]
    return {"from": bmap.fine, "to": bmap.coarse, "collapsed_simplexes": collapsed}


class Expansion(Frozen):
    """The assembled inverse sequence over one space."""

    # bonding[i] maps level i + 1 to level i; __dict__ holds what
    # cached_property computes and is not a field
    __slots__ = ("space", "schedule", "levels", "bonding", "codes", "vectors", "__dict__")
    _fields = __slots__[:-1]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def composite_vertex_map(self, fine_m: int, coarse_m: int) -> dict[int, int]:
        """Chain of consecutive bonding maps from fine_m down to coarse_m."""
        if coarse_m > fine_m:
            raise ValueError("coarse level must not exceed fine level")
        current = {v: v for v in self.levels[fine_m].nerve.vertices}
        for m in range(fine_m, coarse_m, -1):
            step = self.bonding[m - 1].vertex_map
            current = {v: step[w] for v, w in current.items()}
        return current

    def verify_functoriality(self) -> list[tuple[int, int]]:
        """Level pairs where composites disagree with direct containment.

        Decided once per expansion, whose levels and maps are not to be
        changed afterwards: an O(depth * n) certificate (see
        ``_functorial``), and only when it fails a comparison of every
        level pair, so the failing pairs are always the exhaustive ones.
        """
        return list(self._functoriality_failures)

    @cached_property
    def _functoriality_failures(self) -> tuple[tuple[int, int], ...]:
        if self._functorial():
            return ()
        levels = self.levels

        def direct(fine_m: int, coarse_m: int) -> dict[int, int]:
            # each fine vertex sent to its coarse representative; KeyError if it has none
            runs = levels[coarse_m].cover._runs
            return {v: runs.heads[runs.found(v)] for v in levels[fine_m].nerve.vertices}

        return tuple(
            (fine_m, coarse_m)
            for fine_m in range(self.depth)
            for coarse_m in range(fine_m + 1)
            if self.composite_vertex_map(fine_m, coarse_m) != direct(fine_m, coarse_m)
        )

    def _functorial(self) -> bool:
        """Certificate that every composite map equals direct containment.

        It asks that every vertex be the head of its run (so on a nerve
        cut over its cover), that each consecutive map be direct
        containment into the coarser vertices (``_containment``), and
        that level c + 1 nest in level c (``nerve._crossing_block``).
        Then, by induction down the levels, the composite from level f
        to level c sends each vertex v to its level-c representative,
        which is the direct map.
        """
        levels = self.levels
        if len(self.bonding) < len(levels) - 1:
            return False
        for level in levels:
            rep = level.cover._runs.rep
            if level.nerve._cut_over(level.cover) is None and any(
                rep(v) != v for v in level.nerve.vertices
            ):
                return False
        for bmap, fine, coarse in zip(self.bonding, levels[1:], levels):
            direct = _containment(fine, coarse)
            if (
                bmap.vertex_map != direct
                or not set(coarse.nerve.vertices).issuperset(direct.values())
                or _crossing_block(fine.cover, coarse.cover) is not None
            ):
                return False
        return True

    def thread(self, point: int) -> tuple[int, ...]:
        """The maximal simplex index, per level, of the simplex containing the point's block."""
        if not 0 <= point < self.space.n_points:
            raise KeyError(f"unknown point index {point}")
        thread = tuple([column[point] for column in self._columns])
        if None in thread:
            raise KeyError(point)
        return thread

    @cached_property
    def _columns(self) -> tuple[list[int | None], ...]:
        """Per level, each point's maximal simplex index (None: none), one pass per level.

        On a nerve cut from the space's tree over its cover, each
        threshold run gives its simplex index to its positions at once.
        Otherwise a point's block is found in the cover's runs and its
        head's simplex through ``simplex_of``.
        """
        tree, n = self.space.tree, self.space.n_points
        columns = []
        for level in self.levels:
            cut = level.nerve._cut_over(level.cover)
            if cut is not None and cut.tree is tree:
                at: list[int | None] = [None] * n
                bounds = cut.bounds
                for idx, i in enumerate(cut.ranked):
                    at[bounds[i] : bounds[i + 1]] = [idx] * (bounds[i + 1] - bounds[i])
                columns.append(list(map(at.__getitem__, tree.position)))
            else:
                rep, get = level.cover._runs.rep, level.nerve.simplex_of.get
                columns.append([get(rep(x)) for x in range(n)])
        return tuple(columns)

    @cached_property
    def _threads(self) -> tuple[tuple[int, ...], ...]:
        """Every point's thread, in point order, each built once through ``thread``.

        Decided once per expansion, whose levels are not to be changed
        afterwards; the verify stage's reconstruction and limit recovery
        both read it.
        """
        return tuple(map(self.thread, range(self.space.n_points)))

    def check_thread(self, thread: Sequence[int]) -> None:
        """Coherence: each bonding map sends the finer simplex into the coarser."""
        for m in range(self.depth - 1):
            fine_simplex = self.levels[m + 1].nerve.maximal_simplexes[thread[m + 1]]
            # an unmapped vertex's image, None, lies in no simplex
            image = {self.bonding[m].vertex_map.get(v) for v in fine_simplex}
            coarse_simplex = set(self.levels[m].nerve.maximal_simplexes[thread[m]])
            if not image <= coarse_simplex:
                raise IncoherentThreadError(
                    f"thread breaks between levels {m + 1} and {m}"
                )

    @cached_property
    def _certified_threads(self) -> dict[tuple[int, ...], int]:
        """The threads whose reconstruction is proved, each with its one point.

        Where every level's nerve and cells are its threshold cut of the
        space's tree over its cover, every map is direct containment
        (``_containment``) and every coarser threshold cut position is a
        finer one, each fine simplex maps into the coarse simplex whose
        run holds its own.  So every point's thread is coherent, and its
        preimage is the finest threshold run that holds the point; the
        thread of each point alone in its finest run is its point.
        Decided once per expansion, whose levels and maps are not to be
        changed afterwards: O(n + depth * vertices).  Any other
        expansion, or too few maps, lists no thread.
        """
        levels, tree = self.levels, self.space.tree
        cuts = [level.nerve._cut_over(level.cover) for level in levels]
        if (
            len(self.bonding) < len(levels) - 1
            or any(
                cut is None or cut.tree is not tree or level.realization._cut(tree) is not cut
                for cut, level in zip(cuts, levels)
            )
            or any(
                bmap.vertex_map != _containment(fine, coarse)
                for bmap, fine, coarse in zip(self.bonding, levels[1:], levels)
            )
            or any(_first_inside(fine, coarse) is not None for fine, coarse in zip(cuts[1:], cuts))
        ):
            return {}
        threads, order, bounds = self._threads, cuts[-1].order, cuts[-1].bounds
        return {threads[order[s]]: order[s] for s, e in zip(bounds, bounds[1:]) if e - s == 1}

    def reconstruct(self, thread: Sequence[int]) -> frozenset[int]:
        """Intersect the preimages of the thread's simplexes over all levels.

        A thread of ``_certified_threads`` is its point, found in O(depth);
        any other is checked and intersected cell by cell.
        """
        point = self._certified_threads.get(tuple(thread))
        if point is not None:
            return frozenset((point,))
        self.check_thread(thread)
        points: set[int] | None = None
        for level, idx in zip(self.levels, thread):
            support = set(level.realization.cells[idx].support)
            points = support if points is None else points & support
        return frozenset(points or set())

    def to_bundle(self, reports: dict | None = None, space: dict | None = None) -> dict:
        """The bundle object; ``space`` is the space's JSON when the caller has built it."""
        bundle = {
            "schedule": self.schedule.to_json(),
            "space": self.space.to_json() if space is None else space,
            "levels": [
                dict(
                    level.nerve.to_json(),
                    blocks=[list(block) for block in level.cover.blocks],
                )
                for level in self.levels
            ],
            "bonding": [bmap.to_json() for bmap in self.bonding],
            "reports": reports or {},
        }
        return bundle


def assemble_expansion(space: UltraSpace, schedule: Schedule | None = None) -> Expansion:
    """Build covers, nerves, realizations and bonding maps for a schedule.

    The finest level must separate: every block a singleton and every
    simplex a single vertex.  Functoriality of the bonding maps is
    checked before returning (``Expansion.verify_functoriality``, whose
    result the verify stage reuses).  Every cover, nerve and Baire code
    is a cut of the space's merge tree, O(n) per level.
    """
    if schedule is None:
        schedule = Schedule.auto(space)
    if not space.is_separated:
        # the first coinciding pair in scan order: the first zero class of two or more
        a, b = next(cls for cls in space.tree.classes(None) if len(cls) > 1)[:2]
        raise UnseparatedSpaceError(
            f"expansion requires a separated space: {space.labels[a]} and {space.labels[b]}"
            " are at distance 0; merge them with quotient_zero (the 'round' stage)"
        )
    codes = baire_encode(space)
    vectors = c0_embed(codes)
    levels = tuple(
        _make_level(space, m, schedule.j[m], schedule.k[m], schedule.b[m], vectors)
        for m in range(schedule.depth)
    )
    finest = levels[-1]
    for kind, groups in ("block", finest.cover.blocks), ("simplex", finest.nerve.maximal_simplexes):
        joined = next((group for group in groups if len(group) > 1), None)
        if joined is not None:  # a simplex's vertices are points once every block is one
            a, b = (space.labels[x] for x in joined[:2])
            raise SeparationError(
                f"level {finest.m}, the finest, does not separate {a} and {b}:"
                f" they lie in one {kind} of {len(joined)} points"
            )
    bonding = tuple(
        bonding_map(levels[m + 1], levels[m]) for m in range(len(levels) - 1)
    )
    expansion = Expansion(
        space=space,
        schedule=schedule,
        levels=levels,
        bonding=bonding,
        codes=codes,
        vectors=vectors,
    )
    bad = expansion.verify_functoriality()
    if bad:
        raise RuntimeError(f"bonding maps fail functoriality at {bad}")
    return expansion


def limit_isometry_check(space: UltraSpace, expansion: Expansion) -> dict:
    """Distances recovered from thread separation levels vs the true metric.

    A pair's recovered exponent is threshold_exponent(first differing
    level) - 1; under consecutive default schedules this equals the true
    exponent for every pair.  Returns ``mismatches``, the pairs where it
    does not, as [x, y, recovered, actual] (recovered None and actual -1
    where a pair never splits or sits at distance 0), and ``bound``, the
    largest step between consecutive threshold exponents less one: the
    worst-case recovery error for the schedule.

    Recovery compares two merge trees on the points: the space's, and
    the threads' tree, where a pair meets at its recovered exponent (None
    when its threads never split).  Sorted threads are that tree's order,
    as two sorted threads first differ at the least level between them,
    and thresholds that never grow keep the least level's exponent the
    least.  The mismatches are the pairs that either tree stretches
    against the other (``MergeTree.stretched``), and the pairs at
    distance 0 in both.

    Raises:
        ScheduleError: if a level's threshold is 0, or larger than the
            threshold of the level before it.
    """
    taus = []
    for level in expansion.levels:
        e = level.nerve.threshold.exponent
        if e is None:
            raise ScheduleError("limit recovery needs finite level thresholds")
        taus.append(e)
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ScheduleError("limit recovery needs level thresholds that never grow")
    threads = expansion._threads
    tree = space.tree
    order = sorted(range(len(threads)), key=threads.__getitem__)
    # each level's recovered exponent, read at the first level where neighbours differ
    exponents = [tau - 1 for tau in taus]
    heights = [
        next(compress(exponents, map(ne, threads[x], threads[y])), None)
        for x, y in zip(order, order[1:])
    ]
    recovered = MergeTree(order, heights)
    # recovered above actual, or never split: the entries as stretched lists them
    mismatches = list(map(list, recovered.stretched(tree)))
    # recovered below actual, and every pair at distance 0
    lower = [[x, y, r, a] for x, y, a, r in tree.stretched(recovered) if a is not None]
    lower += [[x, y, None, -1] for cls in tree.classes(None) for x, y in combinations(cls, 2)]
    if lower:
        mismatches += lower
        mismatches.sort()
    steps = [b - a for a, b in zip(taus, taus[1:])]
    return {"mismatches": mismatches, "bound": max(steps) - 1 if steps else 0}


#: Largest group Z/p^depth that ``residue_space`` builds in full.  The build,
#: ``_shift_invariant`` and every command read merge trees, and none holds the
#: table, so the cap bounds only the written ``gamma_matrix`` echo: 4M entries.
MAX_RESIDUE_ORDER = 2048

#: Most levels ``Schedule.auto`` builds, one per exponent step.  Positive
#: doubles lie between 2^-1074 and 2^1024, about 2100 steps in base 2, so
#: distances written as floats fit; a config's large negative b would
#: otherwise build levels without bound.
MAX_AUTO_LEVELS = 4096


def residue_space(p: int, depth: int, subset: Iterable[int] | None = None) -> UltraSpace:
    """The additive group Z/p^depth (or a subset) under |x - y|_p.

    The full group is refused above ``MAX_RESIDUE_ORDER`` points, before
    anything is built.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    # 2^depth <= p^depth, so a long depth is refused before p^depth is formed
    if subset is None and (
        depth >= MAX_RESIDUE_ORDER.bit_length() or p**depth > MAX_RESIDUE_ORDER
    ):
        raise ValueError(
            f"depth {depth} is too large: prime ** depth must not exceed {MAX_RESIDUE_ORDER}"
        )
    check_prime(p)
    order = p**depth
    if subset is None:
        points = list(range(order))
    else:
        points = sorted(set(subset))
        if not points:
            raise ValueError("subset must be nonempty")
        if points[0] < 0 or points[-1] >= order:
            raise ValueError(f"subset members must lie in [0, {order})")
    padics = [PAdic.from_int(r, p, precision=depth) for r in points]
    return space_from_points(padics, labels=[str(r) for r in points])


def _shift_invariant(tree: MergeTree) -> bool:
    """True when d(x + 1, y + 1) = d(x, y) for all points, indices taken mod n.

    A bijection of a finite space that stretches no distance keeps every
    one, so the shift is an isometry exactly when the tree pulled back
    through it stretches no pair (``MergeTree.stretched``): O(n * depth),
    with no pair table.
    """
    n = len(tree.order)
    return not tree.stretched(tree.pulled_back([(x + 1) % n for x in range(n)]))


def group_expansion(
    p: int, depth: int, subset: Iterable[int] | None = None
) -> tuple[Expansion, dict]:
    """Profinite demo: expand Z/p^depth and verify its group structure.

    For the full residue set the report certifies that level i carries
    exactly p^i blocks, that each bonding map is reduction mod p^i on
    representatives, and that the space's metric is invariant under
    adding any residue (mod p^depth): adding 1 generates the group, so
    that one shift is checked, on the cuts of the merge tree, in
    O(p^depth * depth).
    Subsets skip the count and invariance checks.
    """
    space = residue_space(p, depth, subset)
    expansion = assemble_expansion(space)
    full = subset is None
    report: dict = {"full_group": full, "levels": expansion.depth}
    if full:
        counts = [len(level.cover.blocks) for level in expansion.levels]
        report["block_counts"] = counts
        report["block_counts_ok"] = counts == [p**i for i in range(expansion.depth)]
        reduction_ok = True
        for m in range(expansion.depth - 1):
            modulus = p ** expansion.levels[m].cover.level
            vmap = expansion.bonding[m].vertex_map
            for v, w in vmap.items():
                if w != v % modulus:
                    reduction_ok = False
        report["bonding_is_mod_reduction"] = reduction_ok
        report["translation_invariant"] = _shift_invariant(space.tree)
    return expansion, report
