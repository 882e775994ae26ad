"""Finite ultrametric spaces with value-group distances.

Distances are stored as ``GammaValue`` exponents, never floats, so the
strong triangle inequality and every downstream invariant reduce to
integer comparisons.  Raw dissimilarity data enters through the
subdominant closure (maximal ultrametric below the input) followed by
value-group rounding; zero-distance points are merged by the quotient.

The Baire coding assigns each point a digit string whose first
difference position recovers the distance exactly, and the sparse-vector
embedding turns those strings into an exact isometry.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import itemgetter

from .padic import (
    GAMMA_ZERO,
    Frozen,
    GammaValue,
    PAdic,
    check_prime,
    difference_exponents,
    round_to_gamma,
)

_set = object.__setattr__


class MatrixShapeError(ValueError):
    """Input matrix is not square or does not match the labels."""


class AsymmetricMatrixError(ValueError):
    """dist[i][j] != dist[j][i] somewhere."""


class NegativeDistanceError(ValueError):
    """A distance entry is negative."""


class NonzeroDiagonalError(ValueError):
    """dist[i][i] != 0 somewhere."""


class NotUltrametricError(ValueError):
    """The strong triangle inequality fails; carries one violating triple."""

    def __init__(self, triple: tuple[int, int, int], labels: Sequence[str]):
        self.triple = triple
        i, j, k = triple
        super().__init__(
            f"ultrametric inequality fails on ({labels[i]}, {labels[j]}, {labels[k]}): "
            f"d({labels[i]},{labels[k]}) > max(d({labels[i]},{labels[j]}), d({labels[j]},{labels[k]}))"
        )


class UnseparatedSpaceError(ValueError):
    """Distinct points at distance zero where separation is required."""


def _as_fraction_matrix(
    matrix: Sequence[Sequence[int | str | Fraction]],
) -> list[list[Fraction]]:
    """Exact entries of a checked dissimilarity matrix; Fraction entries are kept."""
    n = len(matrix)
    rows = [
        [entry if type(entry) is Fraction else Fraction(entry) for entry in row]
        for row in matrix
    ]
    if any(len(row) != n for row in rows):
        raise MatrixShapeError("distance matrix must be square")
    for i in range(n):
        row_i = rows[i]
        if row_i[i] != 0:
            raise NonzeroDiagonalError(f"diagonal entry at index {i} is {row_i[i]}")
        for j in range(i + 1, n):
            if row_i[j] < 0:
                raise NegativeDistanceError(f"entry ({i},{j}) is negative")
            if row_i[j] != rows[j][i]:
                raise AsymmetricMatrixError(f"entries ({i},{j}) and ({j},{i}) differ")
    return rows


class Violations(Sequence[tuple[int, int, int]]):
    """The violating triples of a matrix, as a read-only sequence.

    It behaves like the list of triples (i, j, k), i < k, with
    d(i,k) > max(d(i,j), d(j,k)), in scan order (i, then k, then j
    ascending): ``len`` is the exact count, indexing and iteration follow
    the scan order, and it compares equal to that list.  Only one bitset
    of middle points j per violating pair (i, k) is stored; the triples
    themselves are produced on demand.
    """

    def __init__(self, masks: list[tuple[int, int, int]]):
        self._masks = masks  # (i, k, bitset of the middle points j)
        self._count = sum(mask.bit_count() for _, _, mask in masks)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        for i, k, mask in self._masks:
            while mask:
                low = mask & -mask
                yield (i, low.bit_length() - 1, k)
                mask ^= low

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("violation index out of range")
        return next(islice(self, index, None))

    def __eq__(self, other) -> bool:
        if isinstance(other, Violations):
            return self._masks == other._masks
        if isinstance(other, (list, tuple)):
            return len(other) == self._count and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        if not self._count:
            return "Violations(count=0)"
        return f"Violations(count={self._count}, first={self[0]})"


def _integer_keys(row: Sequence[Fraction | int]) -> list[int]:
    """The row's exact entries as integers in the same order: each times the row's lcm.

    The lcm is that of the entries' denominators.  Equal values written
    differently ("1/2", "0.5") get one key, since a Fraction is in lowest
    terms.  The scale is per row, not per matrix: rows are only compared
    within themselves, and a row's lcm grows with its n denominators,
    where the matrix's would grow with all n^2.
    """
    denominators = {entry.denominator for entry in row}
    scale = lcm(*denominators)
    factor = {d: scale // d for d in denominators}
    return [entry.numerator * factor[entry.denominator] for entry in row]


def _violation_masks(rows: Sequence[Sequence[Fraction | int]]) -> list[tuple[int, int, int]]:
    # below[i][k] is the bitset of j with d(i,j) < d(i,k); (i, j, k)
    # violates exactly when j is in below[i][k] and in below[k][i].  j = i
    # and j = k never are, because d(k,i) < d(k,i) and d(i,k) < d(i,k) fail.
    n = len(rows)
    below = []
    for entries in rows:
        row = _integer_keys(entries)
        sets = [0] * n
        closer = tied = 0
        last = None
        for j in sorted(range(n), key=row.__getitem__):
            if row[j] != last:
                closer |= tied
                tied = 0
                last = row[j]
            sets[j] = closer
            tied |= 1 << j
        below.append(sets)
    masks = []
    for i in range(n):
        below_i = below[i]
        for k in range(i + 1, n):
            mask = below_i[k] & below[k][i]
            if mask:
                masks.append((i, k, mask))
    return masks


def validate_ultrametric(
    labels: Sequence[str], matrix: Sequence[Sequence[int | str | Fraction]]
) -> Violations:
    """All triples (i, j, k) with d(i,k) > max(d(i,j), d(j,k)), as ``Violations``.

    An empty result means the matrix is an ultrametric.  Malformed input
    (non-square, asymmetric, negative entries, nonzero diagonal) raises
    the matching error instead of being reported as a violation.

    Cost: each row is sorted once on exact integer keys (O(n^2 log n)
    integer comparisons), then one AND of two n-bit sets per pair i < k
    gives its middle points, so the count stays exact without storing
    the triples.
    """
    if len(labels) != len(matrix):
        raise MatrixShapeError("labels and matrix size differ")
    return Violations(_violation_masks(_as_fraction_matrix(matrix)))


def _single_linkage(
    rows: list[list[Fraction]],
) -> Iterator[tuple[Fraction, list[int], list[int]]]:
    """Merges of the single-linkage dendrogram, in ascending weight order.

    Each merge is (weight, block, block); the blocks are live lists, valid
    until the next merge, when the first is extended by the second.  After
    the last merge, its first block lists every point in a leaf order of
    the dendrogram: each block of the dendrogram is a contiguous run of
    it.  Every pair of points is joined by exactly one merge, and its
    weight is their minimax path distance.  Prim's spanning tree takes
    O(n^2) comparisons.
    """
    n = len(rows)
    if n == 0:
        return
    best = list(rows[0])
    via = [0] * n
    remaining = list(range(1, n))
    edges = []
    while remaining:
        u = min(remaining, key=best.__getitem__)
        remaining.remove(u)
        edges.append((best[u], via[u], u))
        row_u = rows[u]
        for v in remaining:
            if row_u[v] < best[v]:
                best[v] = row_u[v]
                via[v] = u
    edges.sort(key=itemgetter(0))
    block_of = [[i] for i in range(n)]
    for weight, u, v in edges:
        a, b = block_of[u], block_of[v]
        if len(a) < len(b):
            a, b = b, a
        yield weight, a, b
        a.extend(b)
        for x in b:
            block_of[x] = a


def _ultrametric_order(rows: list[list]) -> list[int] | None:
    """A leaf order of the single-linkage dendrogram; None when rows is not an ultrametric.

    A symmetric matrix with zero diagonal is an ultrametric exactly when
    every entry equals the weight of the single-linkage merge that joins
    its pair (the minimax path distance never exceeds the entry, with
    equality for all pairs only in an ultrametric).
    """
    order = [0] if rows else []
    for weight, a, b in _single_linkage(rows):
        for x in a:
            row_x = rows[x]
            if any(row_x[y] != weight for y in b):
                return None
        order = a
    return order


def subdominant_closure(
    matrix: Sequence[Sequence[int | str | Fraction]],
) -> list[list[Fraction]]:
    """Maximal ultrametric pointwise below the input (minimax path distance).

    Idempotent, and the identity exactly when the input is already an
    ultrametric.  Computed as single linkage: Prim's spanning tree in
    O(n^2) comparisons, then each merge's weight is written into the
    block it joins, so every output entry is an input entry.
    """
    rows = _as_fraction_matrix(matrix)
    n = len(rows)
    out = [[rows[i][i]] * n for i in range(n)]
    for weight, a, b in _single_linkage(rows):
        for x in a:
            out_x = out[x]
            for y in b:
                out_x[y] = out[y][x] = weight
    return out


class MergeTree:
    """The single-linkage dendrogram of an ultrametric space, in integers.

    ``order`` lists the points so that every ball of the space is a
    contiguous run, and ``heights[i]`` is the exponent of the merge that
    joins ``order[i]`` and ``order[i + 1]`` (None: distance 0).  Two
    points meet at their lowest common merge: the smallest height between
    their positions, which is their entry in ``exponents``.  So the balls
    of radius p^-j are the runs left when the order is cut at every
    height below j, and a set's diameter is the distance of its first
    and last points in the order.
    """

    def __init__(self, exponents: tuple[tuple[int | None, ...], ...], order: Sequence[int]):
        self.exponents = exponents
        self.order = tuple(order)
        self.heights = tuple(exponents[x][y] for x, y in zip(order, order[1:]))
        position = [0] * len(order)
        for i, x in enumerate(order):
            position[x] = i
        self.position = tuple(position)

    @property
    def separated(self) -> bool:
        return None not in self.heights

    def finite_heights(self) -> list[int]:
        """The distinct finite distance exponents: every pair meets at one height."""
        return sorted({h for h in self.heights if h is not None})

    def cut(self, j: int | None) -> list[int]:
        """Block number of each point under {d <= p^-j}; j=None means {d = 0}.

        Blocks are numbered along the order.  O(n).
        """
        block = [0] * len(self.order)
        number = 0
        for x, h in zip(self.order[1:], self.heights):
            if h is not None and (j is None or h < j):
                number += 1
            block[x] = number
        return block

    def classes(self, j: int | None) -> list[tuple[int, ...]]:
        """The blocks of ``cut(j)``, sorted by smallest member."""
        members: dict[int, list[int]] = {}
        for x, number in enumerate(self.cut(j)):
            members.setdefault(number, []).append(x)
        return [tuple(cls) for cls in members.values()]

    def diameter(self, points: Iterable[int]) -> int | None:
        """Exponent of the largest distance within points (None: 0, or fewer than two points)."""
        ranks = [self.position[x] for x in points]
        if not ranks:
            return None
        return self.exponents[self.order[min(ranks)]][self.order[max(ranks)]]

    def nearest(self, x: int) -> int | None:
        """Exponent of x's distance to its nearest other point (None: 0).

        The nearest point is a neighbour in the order.  Needs two points.
        """
        i = self.position[x]
        sides = self.heights[max(i - 1, 0) : i + 1]
        return None if None in sides else max(sides)

    def closest(self, groups: Sequence[Sequence[int]]) -> int | None:
        """Exponent of the smallest distance between points of different groups (None: 0).

        With the members of all groups sorted by position, a closest
        such pair sits side by side: a pair further apart spans every
        height between them.  So one sort and one pass suffice; a point
        in two groups is a pair at distance 0.  Needs two groups or more.
        """
        if not all(groups):
            raise ValueError("set distance of an empty block")
        position, order, exponents = self.position, self.order, self.exponents
        entries = sorted((position[x], g) for g, group in enumerate(groups) for x in group)
        best = None
        for (i, g), (k, h) in zip(entries, entries[1:]):
            if g != h:
                e = exponents[order[i]][order[k]]
                if e is None:
                    return None
                if best is None or e > best:
                    best = e
        return best


class UltraSpace(Frozen):
    """A finite labeled point set with exponent-encoded ultrametric distances.

    The diagonal holds INFINITY entries (metric value 0).  Off-diagonal
    INFINITY entries are permitted until ``quotient_zero`` enforces
    separation.  Immutable; safe to share between threads.

    The constructor's strong-triangle check leaves ``tree``, the
    ``MergeTree`` of the space with its integer exponent matrix; it is an
    attribute, not a field, so equality, hashing and JSON ignore it.
    """

    __slots__ = ("labels", "prime", "dist", "tree")
    _fields = ("labels", "prime", "dist")

    def __init__(
        self,
        labels: tuple[str, ...],
        prime: int,
        dist: tuple[tuple[GammaValue, ...], ...],
    ) -> None:
        _set(self, "labels", labels)
        _set(self, "prime", prime)
        _set(self, "dist", dist)
        check_prime(prime)
        n = len(labels)
        if n == 0:
            raise ValueError("a space needs at least one point")
        if len(set(labels)) != n:
            raise ValueError("labels must be unique")
        if len(dist) != n or any(len(row) != n for row in dist):
            raise MatrixShapeError("distance matrix must be square over the labels")
        expo = tuple(tuple([d.exponent for d in row]) for row in dist)
        for i in range(n):
            if expo[i][i] is not None:
                raise NonzeroDiagonalError(f"diagonal entry at index {i} is nonzero")
            for j in range(i + 1, n):
                if expo[i][j] != expo[j][i]:
                    raise AsymmetricMatrixError(f"entries ({i},{j}) and ({j},{i}) differ")
        _set(self, "tree", MergeTree(expo, self._check_strong_triangle(expo)))

    def _check_strong_triangle(self, expo: Sequence[Sequence[int | None]]) -> list[int]:
        # Single linkage over exponents, as in round_space: weight -e, so a
        # larger weight is a larger distance, and the metric value 0 gets a
        # weight below every finite one.  O(n^2) comparisons.
        top = max((e for row in expo for e in row if e is not None), default=-1) + 1
        weights = [[-top if e is None else -e for e in row] for row in expo]
        order = _ultrametric_order(weights)
        if order is None:
            # the witness is the first violating triple in scan order
            raise NotUltrametricError(Violations(_violation_masks(weights))[0], self.labels)
        return order

    @property
    def n_points(self) -> int:
        return len(self.labels)

    def distance(self, i: int, j: int) -> GammaValue:
        return self.dist[i][j]

    @property
    def is_separated(self) -> bool:
        return self.tree.separated

    def finite_exponents(self) -> list[int]:
        return self.tree.finite_heights()

    def set_distance(self, block_a: Iterable[int], block_b: Iterable[int]) -> GammaValue:
        """min over member pairs; exact for balls, the convention otherwise."""
        return GammaValue(self.tree.closest([tuple(block_a), tuple(block_b)]))

    def diameter(self, block: Iterable[int]) -> GammaValue:
        return GammaValue(self.tree.diameter(block))

    def to_json(self) -> dict:
        # the tree's integer exponents, as GammaValue.to_json writes them
        return {
            "labels": list(self.labels),
            "prime": self.prime,
            "gamma_matrix": [
                ["INF" if e is None else e for e in row] for row in self.tree.exponents
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "UltraSpace":
        return cls(
            labels=tuple(obj["labels"]),
            prime=obj["prime"],
            dist=tuple(
                tuple(GammaValue.from_json(e) for e in row)
                for row in obj["gamma_matrix"]
            ),
        )


def round_space(
    labels: Sequence[str], matrix: Sequence[Sequence[int | str | Fraction]], p: int
) -> UltraSpace:
    """Round a rational ultrametric into the value group, entrywise.

    Every entry lands on the largest p^(-e) below it, which keeps the
    strong triangle inequality (the rounding map is monotone) and the
    sandwich rounded <= original <= p * rounded.

    The matrix is an ultrametric exactly when each single-linkage merge
    weight equals every entry across the blocks it joins, so the check
    costs O(n^2) comparisons and stops at the first mismatch; the
    witness is then the first violating triple in scan order.  Each
    distinct merge weight (at most n - 1 of them) is rounded once.
    """
    if len(labels) != len(matrix):
        raise MatrixShapeError("labels and matrix size differ")
    rows = _as_fraction_matrix(matrix)
    n = len(rows)
    dist = [[GAMMA_ZERO] * n for _ in range(n)]
    last = rounded = None
    for weight, a, b in _single_linkage(rows):
        if weight != last:  # merges come in ascending order, so ties are adjacent
            last, rounded = weight, round_to_gamma(weight, p)
        for x in a:
            row_x, dist_x = rows[x], dist[x]
            for y in b:
                if row_x[y] != weight:
                    raise NotUltrametricError(Violations(_violation_masks(rows))[0], labels)
                dist_x[y] = dist[y][x] = rounded
    return UltraSpace(
        labels=tuple(labels), prime=p, dist=tuple(tuple(row) for row in dist)
    )


def space_from_points(
    points: Sequence[PAdic], labels: Sequence[str] | None = None
) -> UltraSpace:
    """Distance matrix |x_i - x_j|_p over a family of p-adic values.

    The exponents come from ``difference_exponents``: integer arithmetic
    on each point's digit window, with no PAdic built per pair.
    """
    if not points:
        raise ValueError("need at least one point")
    p = points[0].prime
    if any(pt.prime != p for pt in points):
        raise ValueError("all points must share one prime")
    if labels is None:
        labels = [f"x{i}" for i in range(len(points))]
    exponents = difference_exponents(points)
    values = {None: GAMMA_ZERO}
    for row in exponents:
        for e in row:
            if e not in values:
                values[e] = GammaValue(e)
    return UltraSpace(
        labels=tuple(labels),
        prime=p,
        dist=tuple(tuple(values[e] for e in row) for row in exponents),
    )


def quotient_zero(space: UltraSpace) -> tuple[UltraSpace, dict[str, str]]:
    """Merge zero-distance points; the report maps dropped labels to keepers.

    The result satisfies the separation invariant: off-diagonal entries
    are never INFINITY.  A space that already does is returned as it is.
    """
    if space.is_separated:
        return space, {}
    classes = threshold_classes(space, None)
    reps = [cls[0] for cls in classes]
    report = {
        space.labels[member]: space.labels[cls[0]]
        for cls in classes
        for member in cls[1:]
    }
    dist = tuple(
        tuple(space.dist[a][b] for b in reps) for a in reps
    )
    merged = UltraSpace(
        labels=tuple(space.labels[r] for r in reps), prime=space.prime, dist=dist
    )
    return merged, report


def threshold_classes(space: UltraSpace, j: int | None) -> list[tuple[int, ...]]:
    """Equivalence classes of {d <= p^-j}; j=None means {d = 0}.

    A cut of the space's merge tree, O(n).  Classes are sorted by
    smallest member index.
    """
    return space.tree.classes(j)


class BaireCodes(Frozen):
    """Digit strings over integer positions start..depth, one per point.

    Position i holds the index of the point's class under {d < p^-i};
    two points at distance p^-k then agree strictly before position k
    and differ at position k.  Class indices per position are assigned
    in order of the lexicographically smallest member label.
    """

    __slots__ = ("prime", "start", "depth", "labels", "codes")

    def __init__(
        self,
        prime: int,
        start: int,
        depth: int,
        labels: tuple[str, ...],
        codes: tuple[tuple[int, ...], ...],
    ) -> None:
        _set(self, "prime", prime)
        _set(self, "start", start)
        _set(self, "depth", depth)
        _set(self, "labels", labels)
        _set(self, "codes", codes)

    @property
    def positions(self) -> range:
        return range(self.start, self.depth + 1)

    def first_difference(self, i: int, j: int) -> int | None:
        for offset, pos in enumerate(self.positions):
            if self.codes[i][offset] != self.codes[j][offset]:
                return pos
        return None


def baire_encode(space: UltraSpace) -> BaireCodes:
    """Nested-partition digit coding of a separated space.

    Raises:
        UnseparatedSpaceError: if two distinct points sit at distance 0.
    """
    if not space.is_separated:
        raise UnseparatedSpaceError("baire coding requires a separated space")
    exponents = space.finite_exponents()
    if exponents:
        start = min(1, exponents[0])
        depth = exponents[-1] + 1
    else:
        start, depth = 1, 1
    by_label = sorted(range(space.n_points), key=space.labels.__getitem__)
    codes = [[] for _ in space.labels]
    for pos in range(start, depth + 1):
        # class under {d < p^-pos} == {exponent >= pos+1}: a cut of the tree;
        # a class's symbol is its rank by smallest label
        block = space.tree.cut(pos + 1)
        symbol: dict[int, int] = {}
        for x in by_label:
            symbol.setdefault(block[x], len(symbol))
        for x, code in enumerate(codes):
            code.append(symbol[block[x]])
    return BaireCodes(
        prime=space.prime,
        start=start,
        depth=depth,
        labels=space.labels,
        codes=tuple(tuple(c) for c in codes),
    )


class C0Vector(Frozen):
    """Sparse vector sum of p^i * e_(i,a) over the coded positions.

    Keys are (position, symbol); the coefficient at a key is implicitly
    p^position, whose norm is p^(-position).  The vector norm is the max
    of those, i.e. p^(-smallest present position).
    """

    __slots__ = ("keys",)

    def __init__(self, keys: tuple[tuple[int, int], ...]) -> None:
        _set(self, "keys", keys)

    # hashed per vector whenever a realized-distance table is looked up
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.keys == other.keys
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.keys,))

    def norm(self) -> GammaValue:
        if not self.keys:
            return GAMMA_ZERO
        return GammaValue(min(level for level, _ in self.keys))

    def distance(self, other: "C0Vector") -> GammaValue:
        """Norm of the difference: coinciding keys cancel exactly."""
        diff = set(self.keys) ^ set(other.keys)
        if not diff:
            return GAMMA_ZERO
        return GammaValue(min(level for level, _ in diff))


def c0_embed(codes: BaireCodes) -> tuple[C0Vector, ...]:
    """One sparse vector per point; pairwise distances equal the source metric."""
    return tuple(
        C0Vector(
            keys=tuple((pos, code[offset]) for offset, pos in enumerate(codes.positions)),
        )
        for code in codes.codes
    )
