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

from collections.abc import Iterable, Sequence
from functools import cached_property, lru_cache

from .nerve import (
    NerveComplex,
    NestingError,
    Realization,
    ScaleCover,
    build_nerve,
    realize,
    scale_cover,
)
from .padic import Frozen, GammaValue, PAdic, check_prime
from .spaces import (
    BaireCodes,
    C0Vector,
    UltraSpace,
    UnseparatedSpaceError,
    baire_encode,
    c0_embed,
    space_from_points,
)

_set = object.__setattr__


class ScheduleError(ValueError):
    """Level schedule violates monotonicity or shape constraints."""


class SeparationError(ValueError):
    """The finest level fails to separate the points."""


class IncoherentThreadError(ValueError):
    """A thread's simplexes are not linked by the bonding maps."""


class Schedule(Frozen):
    """Per-level parameters: ball scales j, threshold factors k, bounds b.

    j must increase strictly (covers shrink), k must not increase, and
    the induced thresholds p^k * b then shrink level over level.
    """

    __slots__ = ("j", "k", "b")

    def __init__(self, j: tuple[int, ...], k: tuple[int, ...], b: tuple[GammaValue, ...]) -> None:
        _set(self, "j", j)
        _set(self, "k", k)
        _set(self, "b", b)
        if not (len(j) == len(k) == len(b)):
            raise ScheduleError("schedule components must have equal length")
        if not j:
            raise ScheduleError("schedule must have at least one level")
        for a, b_ in zip(j, j[1:]):
            if b_ <= a:
                raise ScheduleError("ball scales j(m) must increase strictly")
        for a, b_ in zip(k, k[1:]):
            if b_ > a:
                raise ScheduleError("threshold factors must satisfy k(m+1) <= k(m)")

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
        and is rejected when the nerves are built.
        """
        exponents = space.finite_exponents()
        if exponents:
            js = tuple(
                range(
                    min(0, exponents[0]),
                    exponents[-1] + 2 + max(0, k_shift - b_shift),
                )
            )
        else:
            js = (0,)
        return cls(
            j=js,
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
    """One rung of the system: cover, nerve, realization, lookup tables."""

    __slots__ = ("m", "cover", "nerve", "realization", "rep_of", "simplex_of")

    def __init__(
        self,
        m: int,
        cover: ScaleCover,
        nerve: NerveComplex,
        realization: Realization,
        rep_of: dict[int, int],
        simplex_of: dict[int, int],  # vertex -> maximal simplex index
    ) -> None:
        _set(self, "m", m)
        _set(self, "cover", cover)
        _set(self, "nerve", nerve)
        _set(self, "realization", realization)
        _set(self, "rep_of", rep_of)
        _set(self, "simplex_of", simplex_of)

    def __repr__(self) -> str:
        # the lookup tables are compared but not shown
        return (
            f"Level(m={self.m!r}, cover={self.cover!r}, nerve={self.nerve!r}, "
            f"realization={self.realization!r})"
        )


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
    realization = realize(space, cover, nerve, vectors)
    rep_of = {point: block[0] for block in cover.blocks for point in block}
    simplex_of = {
        v: idx for idx, s in enumerate(nerve.maximal_simplexes) for v in s
    }
    return Level(
        m=m,
        cover=cover,
        nerve=nerve,
        realization=realization,
        rep_of=rep_of,
        simplex_of=simplex_of,
    )


class BondingMap(Frozen):
    """Vertex map from a finer level onto the coarser one by block containment.

    simplex_images records, per fine maximal simplex, its image vertex
    set and the index of the coarse maximal simplex containing it.
    """

    __slots__ = ("fine", "coarse", "vertex_map", "simplex_images")

    def __init__(
        self,
        fine: int,
        coarse: int,
        vertex_map: dict[int, int],
        simplex_images: tuple[tuple[tuple[int, ...], int], ...],
    ) -> None:
        _set(self, "fine", fine)
        _set(self, "coarse", coarse)
        _set(self, "vertex_map", vertex_map)
        _set(self, "simplex_images", simplex_images)

    def to_json(self) -> dict:
        return {
            "from": self.fine,
            "to": self.coarse,
            "vertex_map": {str(v): w for v, w in sorted(self.vertex_map.items())},
        }


def bonding_map(fine: Level, coarse: Level) -> BondingMap:
    """Send each fine block to the coarse block containing it.

    Raises:
        NestingError: if some fine block crosses coarse blocks.
        NestingError: also when levels are not comparable at all.
    """
    vertex_map: dict[int, int] = {}
    for block in fine.cover.blocks:
        parents = {coarse.rep_of[point] for point in block}
        if len(parents) != 1:
            raise NestingError(
                f"block {block} of level {fine.m} crosses blocks of level {coarse.m}"
            )
        vertex_map[block[0]] = parents.pop()
    simplex_images = []
    for s in fine.nerve.maximal_simplexes:
        image = tuple(sorted({vertex_map[v] for v in s}))
        container = coarse.simplex_of[image[0]]
        if not set(image) <= set(coarse.nerve.maximal_simplexes[container]):
            raise NestingError(
                f"simplex {s} of level {fine.m} has no containing simplex at level {coarse.m}"
            )
        simplex_images.append((image, container))
    return BondingMap(
        fine=fine.m,
        coarse=coarse.m,
        vertex_map=vertex_map,
        simplex_images=tuple(simplex_images),
    )


@lru_cache(maxsize=2)
def _realized_exponents(
    vectors: tuple[C0Vector, ...],
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Exponents of ``vectors[v].distance(vectors[w])`` for all pairs, and INFINITY's stand-in.

    Each vector's keys are sorted once without repeats.  Two sorted key
    lists agree up to their first mismatch, and the smaller key there (or
    the longer list's next key, when one list is a prefix of the other)
    is the least key of the symmetric difference, whose level is the
    distance exponent.  Equal key sets, the metric value 0, read as the
    stand-in: one above every key level, so a smaller entry is always a
    larger distance.  Cached by the equality of the vectors, so every
    level of one expansion shares one table; two are kept, for a fine
    and a coarse embedding that differ.
    """
    keys = [sorted(set(vector.keys)) for vector in vectors]
    top = max((k[-1][0] for k in keys if k), default=0) + 1
    n = len(keys)
    table = [[top] * n for _ in range(n)]
    for v in range(n):
        keys_v, row_v = keys[v], table[v]
        for w in range(v + 1, n):
            keys_w = keys[w]
            for x, y in zip(keys_v, keys_w):
                if x != y:
                    e = min(x, y)[0]
                    break
            else:
                shorter, longer = sorted((keys_v, keys_w), key=len)
                if len(shorter) == len(longer):
                    continue
                e = longer[len(shorter)][0]
            row_v[w] = table[w][v] = e
    return tuple(map(tuple, table)), top


def verify_nonstretching(bmap: BondingMap, fine: Level, coarse: Level) -> dict:
    """Compare every fine vertex pair's realized distance with its image's.

    Returns the bundle's entry for the map: ``violations``, the vertex
    pairs whose image distance exceeds their distance (must be empty);
    ``merged_pairs``, the count of pairs sent to one vertex; and
    ``single_step_contraction``, whether every merged pair sat at
    distance exactly p * p^-j(fine), the one-scale-step value forced by
    consecutive schedules.  The map contracts those pairs to zero; all
    other pairs keep their exact distance.

    Distances are integer exponents read from one table per embedding
    (see ``_realized_exponents``), so the pair loop compares ints only.
    """
    src_table, top = _realized_exponents(tuple(fine.realization.vectors))
    img_table, _ = _realized_exponents(tuple(coarse.realization.vectors))
    step = fine.cover.level - 1  # exponent of a one-scale-step merged pair
    if step >= top:
        step = None  # no finite exponent reaches it, and INFINITY must not match
    verts = fine.nerve.vertices
    images = [bmap.vertex_map[v] for v in verts]
    violations = []
    merged = 0
    single_step = True
    for a, (v, iv) in enumerate(zip(verts, images)):
        src_row, img_row = src_table[v], img_table[iv]
        for w, iw in zip(verts[a + 1 :], images[a + 1 :]):
            if iv == iw:
                merged += 1
                if src_row[w] != step:
                    single_step = False
            elif img_row[iw] < src_row[w]:
                violations.append([v, w])
    return {
        "from": bmap.fine,
        "to": bmap.coarse,
        "violations": violations,
        "merged_pairs": merged,
        "single_step_contraction": single_step,
    }


def verify_nondegenerate(bmap: BondingMap, fine: Level) -> dict:
    """The bundle's entry for the map: fine maximal simplexes of two or
    more vertices that collapse onto one image vertex."""
    collapsed = [
        idx
        for idx, s in enumerate(fine.nerve.maximal_simplexes)
        if len(s) >= 2 and len(bmap.simplex_images[idx][0]) == 1
    ]
    return {"from": bmap.fine, "to": bmap.coarse, "collapsed_simplexes": collapsed}


class Expansion(Frozen):
    """The assembled inverse sequence over one space."""

    # __dict__ holds what cached_property computes; it is not a field
    __slots__ = ("space", "schedule", "levels", "bonding", "codes", "vectors", "__dict__")
    _fields = __slots__[:-1]

    def __init__(
        self,
        space: UltraSpace,
        schedule: Schedule,
        levels: tuple[Level, ...],
        bonding: tuple[BondingMap, ...],  # bonding[i]: level i+1 -> level i
        codes: BaireCodes,
        vectors: tuple[C0Vector, ...],
    ) -> None:
        _set(self, "space", space)
        _set(self, "schedule", schedule)
        _set(self, "levels", levels)
        _set(self, "bonding", bonding)
        _set(self, "codes", codes)
        _set(self, "vectors", vectors)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def direct_vertex_map(self, fine_m: int, coarse_m: int) -> dict[int, int]:
        """Containment map computed straight from the two covers."""
        if coarse_m > fine_m:
            raise ValueError("coarse level must not exceed fine level")
        fine, coarse = self.levels[fine_m], self.levels[coarse_m]
        return {v: coarse.rep_of[v] for v in fine.nerve.vertices}

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
        return tuple(
            (fine_m, coarse_m)
            for fine_m in range(self.depth)
            for coarse_m in range(fine_m + 1)
            if self.composite_vertex_map(fine_m, coarse_m)
            != self.direct_vertex_map(fine_m, coarse_m)
        )

    def _functorial(self) -> bool:
        """Certificate that every composite map equals direct containment.

        It asks that every vertex be its own representative, that each
        consecutive map be direct containment into the coarser vertices,
        and that representatives compose:
        ``rep_of[c][rep_of[c + 1][x]] == rep_of[c][x]`` for every point x
        of level c + 1.  Then, by induction down the levels, the composite
        from level f to level c sends each vertex v to ``rep_of[c][v]``,
        which is the direct map.
        """
        levels = self.levels
        if len(self.bonding) < len(levels) - 1:
            return False
        for level in levels:
            if any(level.rep_of.get(v) != v for v in level.nerve.vertices):
                return False
        for bmap, fine, coarse in zip(self.bonding, levels[1:], levels):
            rep_of = coarse.rep_of
            direct = {v: rep_of.get(v) for v in fine.nerve.vertices}
            if bmap.vertex_map != direct or not set(coarse.nerve.vertices).issuperset(
                direct.values()
            ):
                return False
            for x, rep in fine.rep_of.items():
                if x not in rep_of or rep_of.get(rep) != rep_of[x]:
                    return False
        return True

    def thread(self, point: int) -> tuple[int, ...]:
        """The maximal simplex index, per level, of the simplex containing the point's block."""
        if not 0 <= point < self.space.n_points:
            raise KeyError(f"unknown point index {point}")
        return tuple(level.simplex_of[level.rep_of[point]] for level in self.levels)

    def check_thread(self, thread: Sequence[int]) -> None:
        """Coherence: each bonding map sends the finer simplex into the coarser."""
        for m in range(self.depth - 1):
            fine_simplex = self.levels[m + 1].nerve.maximal_simplexes[thread[m + 1]]
            image = {self.bonding[m].vertex_map[v] for v in fine_simplex}
            coarse_simplex = set(self.levels[m].nerve.maximal_simplexes[thread[m]])
            if not image <= coarse_simplex:
                raise IncoherentThreadError(
                    f"thread breaks between levels {m + 1} and {m}"
                )

    def reconstruct(self, thread: Sequence[int]) -> frozenset[int]:
        """Intersect the preimages of the thread's simplexes over all levels."""
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
        raise UnseparatedSpaceError("expansion requires a separated space")
    codes = baire_encode(space)
    vectors = c0_embed(codes)
    levels = tuple(
        _make_level(space, m, schedule.j[m], schedule.k[m], schedule.b[m], vectors)
        for m in range(schedule.depth)
    )
    finest = levels[-1]
    if any(len(block) > 1 for block in finest.cover.blocks) or any(
        len(s) > 1 for s in finest.nerve.maximal_simplexes
    ):
        raise SeparationError("the finest level does not separate the points")
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
    """
    taus = []
    for level in expansion.levels:
        e = level.nerve.threshold.exponent
        if e is None:
            raise ScheduleError("limit recovery needs finite level thresholds")
        taus.append(e)
    threads = [expansion.thread(x) for x in range(space.n_points)]
    mismatches = []
    for x in range(space.n_points):
        for y in range(x + 1, space.n_points):
            first = None
            for m in range(expansion.depth):
                if threads[x][m] != threads[y][m]:
                    first = m
                    break
            actual = space.dist[x][y].exponent
            if first is None or actual is None:
                mismatches.append([x, y, None, actual if actual is not None else -1])
                continue
            recovered = taus[first] - 1
            if recovered != actual:
                mismatches.append([x, y, recovered, actual])
    steps = [b - a for a, b in zip(taus, taus[1:])]
    return {"mismatches": mismatches, "bound": max(steps) - 1 if steps else 0}


#: Largest group Z/p^depth that ``residue_space`` builds in full: its
#: space stores (p^depth)^2 distances, 4M at the cap.
MAX_RESIDUE_ORDER = 2048


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


def _shift_invariant(exponents: Sequence[Sequence[int | None]]) -> bool:
    """True when d(x + 1, y + 1) = d(x, y) for all points, indices taken mod n."""
    n = len(exponents)
    return all(
        row[y] == shifted[(y + 1) % n]
        for row, shifted in zip(exponents, exponents[1:] + exponents[:1])
        for y in range(n)
    )


def group_expansion(
    p: int, depth: int, subset: Iterable[int] | None = None
) -> tuple[Expansion, dict]:
    """Profinite demo: expand Z/p^depth and verify its group structure.

    For the full residue set the report certifies that level i carries
    exactly p^i blocks, that each bonding map is reduction mod p^i on
    representatives, and that the space's metric is invariant under
    adding any residue (mod p^depth): adding 1 generates the group, so
    that one shift is checked, over every pair, in O(p^(2 depth)).
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
        report["translation_invariant"] = _shift_invariant(space.tree.exponents)
    return expansion, report
