"""Finite ultrametric spaces with value-group distances.

Distances are stored as integer value-group exponents, never floats, so
the strong triangle inequality and every downstream invariant reduce to
integer comparisons.  Raw dissimilarity data enters through the
subdominant closure (maximal ultrametric below the input) followed by
value-group rounding; zero-distance points are merged by the quotient.

The Baire coding assigns each point a digit string whose first
difference position recovers the distance exactly, and the sparse-vector
embedding turns those strings into an exact isometry.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cache, cached_property
from itertools import chain, islice
from operator import attrgetter, eq, itemgetter, lt

from .padic import (
    GAMMA_ZERO,
    Frozen,
    GammaValue,
    PAdic,
    _exact_pair,
    _exponent_json,
    _round_pair,
    check_prime,
)

# fractions (which loads decimal) is imported where a Fraction is built, so
# digit-stream runs never load it; type checkers read this as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


class MatrixShapeError(ValueError):
    """Input matrix is not square or does not match the labels."""


class AsymmetricMatrixError(ValueError):
    """dist[i][j] != dist[j][i] somewhere."""


class NegativeDistanceError(ValueError):
    """A distance entry is negative."""


class NonzeroDiagonalError(ValueError):
    """dist[i][i] != 0 somewhere."""


class NotUltrametricError(ValueError):
    """The strong triangle inequality fails; carries the violations and the first one."""

    def __init__(self, violations: Violations, labels: Sequence[str]):
        self.violations = violations
        self.triple = i, j, k = violations[0]
        super().__init__(
            f"ultrametric inequality fails on ({labels[i]}, {labels[j]}, {labels[k]}): "
            f"d({labels[i]},{labels[k]}) > max(d({labels[i]},{labels[j]}), d({labels[j]},{labels[k]}))"
        )


class UnseparatedSpaceError(ValueError):
    """Distinct points at distance zero where separation is required."""


def _entry_pair(entry) -> tuple[int, int]:
    """One matrix entry as an exact (numerator, denominator) pair."""
    if type(entry) is tuple:
        if len(entry) == 2 and type(entry[0]) is type(entry[1]) is int and entry[1] > 0:
            return entry
        raise ValueError(
            f"a matrix entry pair must be two ints with a positive denominator, got {entry!r}"
        )
    return _exact_pair(entry)


class _Keys(list):
    """The rows of ``_exact_rows``: the integer keys of a matrix, with the matrix.

    ``_exact_rows`` hands such rows back as they are, so a caller that
    keys a matrix once can pass the keys to each step that reads it, and
    a step reads an entry's value from ``matrix``.
    """

    __slots__ = ("matrix",)

    def __init__(self, rows: Iterable[list[int]], matrix: Sequence[Sequence]) -> None:
        super().__init__(rows)
        self.matrix = matrix


def _exact_rows(
    matrix: Sequence[Sequence[int | str | Fraction | tuple[int, int]]],
) -> _Keys:
    """The integer keys of a checked dissimilarity matrix, row by row.

    An entry is an int, a str or a Fraction, read as ``Fraction`` reads
    it, or a pair (a, b) of ints with b > 0 standing for a/b, as
    ``cli.load_input`` makes them.  Each distinct entry object is read
    once, and keyed once by ``_integer_keys``; the rows are then C-level
    lookups by ``id``.  Keys are equal exactly where the values are, so
    shape, diagonal, sign and symmetry are checked on them, with the
    errors and texts of a scan in order i, then j > i.  Rows that are
    already keys (a ``_Keys``) are returned as they are, so the CLI keys
    a matrix once for ``validate_ultrametric`` and ``subdominant_closure``.
    A caller that needs an entry's value reads it from ``matrix`` with
    ``_entry_pair``.
    """
    if type(matrix) is _Keys:
        return matrix
    if not matrix:
        return _Keys((), matrix)
    # the list holds every entry, so no two live entries share an id,
    # even in rows that make a new object on each read
    flat = list(chain.from_iterable(matrix))
    entries = dict(zip(map(id, flat), flat))
    pairs = [_entry_pair(entry) for entry in entries.values()]
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise MatrixShapeError("distance matrix must be square")
    key_of = dict(zip(entries, _integer_keys(pairs)))
    flat_keys = list(map(key_of.__getitem__, map(id, flat)))
    keys = _Keys((flat_keys[start : start + n] for start in range(0, n * n, n)), matrix)
    if (
        any(keys[i][i] for i in range(n))
        or min(map(min, keys), default=0) < 0
        or list(map(list, zip(*keys))) != keys
    ):
        # some check fails: find the first fault in scan order
        for i in range(n):
            key_i = keys[i]
            if key_i[i]:
                from fractions import Fraction

                raise NonzeroDiagonalError(
                    f"diagonal entry at index {i} is {Fraction(*_entry_pair(flat[i * n + i]))}"
                )
            for j in range(i + 1, n):
                if key_i[j] < 0:
                    raise NegativeDistanceError(f"entry ({i},{j}) is negative")
                if key_i[j] != keys[j][i]:
                    raise AsymmetricMatrixError(f"entries ({i},{j}) and ({j},{i}) differ")
    return keys


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


def _integer_keys(pairs: Sequence[tuple[int, int]]) -> list[int]:
    """floor(a/b * D^2) for every pair (a, b), D the largest denominator.

    One exact integer per value, in the order of the values: two
    different values with denominators at most D lie at least 1/D^2
    apart, so D^2 times them lie at least 1 apart and their floors
    differ, in the same direction; equal values get one key however they
    are written.  A key has the bits of a numerator plus twice those of
    D, where a common denominator could grow with every denominator.
    """
    scale = max((den for _, den in pairs), default=1) ** 2
    return [num * scale // den for num, den in pairs]


def _violation_masks(rows: Sequence[Sequence[int]]) -> list[tuple[int, int, int]]:
    # rows hold exact, comparable entries: integer keys or weights.
    # below[i][k] is the bitset of j with d(i,j) < d(i,k); (i, j, k)
    # violates exactly when j is in below[i][k] and in below[k][i].  j = i
    # and j = k never are, because d(k,i) < d(k,i) and d(i,k) < d(i,k) fail.
    n = len(rows)
    below = []
    for row in rows:
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
    labels: Sequence[str], matrix: Sequence[Sequence[int | str | Fraction | tuple[int, int]]]
) -> Violations:
    """All triples (i, j, k) with d(i,k) > max(d(i,j), d(j,k)), as ``Violations``.

    An empty result means the matrix is an ultrametric.  Malformed input
    (non-square, asymmetric, negative entries, nonzero diagonal) raises
    the matching error instead of being reported as a violation.  An
    entry may also be a parsed (numerator, denominator) pair (see
    ``_exact_rows``).

    Cost: each row is sorted once on exact integer keys (O(n^2 log n)
    integer comparisons), then one AND of two n-bit sets per pair i < k
    gives its middle points, so the count stays exact without storing
    the triples.
    """
    if len(labels) != len(matrix):
        raise MatrixShapeError("labels and matrix size differ")
    return Violations(_violation_masks(_exact_rows(matrix)))


def _single_linkage(rows: list[list[int]]) -> Iterator[tuple[int, int, list[int], list[int]]]:
    """Merges of the single-linkage dendrogram, in ascending weight order.

    rows holds exact, comparable entries (integer keys or weights).  Each
    merge is (u, v, block, block): the spanning-tree edge u-v, of weight
    ``rows[u][v]``, joins the two blocks.  The blocks are live lists,
    valid until the next merge, when the first is extended by the
    second.  After the last merge, its first block lists every point in
    a leaf order of the dendrogram: each block of the dendrogram is a
    contiguous run of it.  Every pair of points is joined by exactly one
    merge, and its weight is their minimax path distance.  Prim's
    spanning tree takes O(n^2) integer comparisons.
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
    for _, u, v in edges:
        a, b = block_of[u], block_of[v]
        if len(a) < len(b):
            a, b = b, a
        yield u, v, a, b
        a.extend(b)
        for x in b:
            block_of[x] = a


class _Table(Sequence):
    """The table of every pair of a merge tree, each meet mapped by ``value``, one row at a time.

    It indexes, slices, iterates, equals and reprs as the list of its
    rows, each a list in point order, but holds no row: a row is made by
    ``MergeTree._each_row`` when it is read, with ``value`` called once
    per distinct height per read.  It is no list subclass, since a list's
    own storage would be the n x n table it avoids, and json's C encoder
    would read that storage, which is empty.
    """

    __slots__ = ("tree", "value")

    def __init__(self, tree: MergeTree, value: Callable[[int | None], object]) -> None:
        self.tree = tree
        self.value = value

    def __len__(self) -> int:
        return len(self.tree.order)

    def _rows(self, points: Iterable[int]) -> Iterator[list]:
        return map(list, self.tree._each_row(self.value, points))

    def __getitem__(self, index):
        points = range(len(self))[index]  # a range for a slice; an IndexError out of range
        if isinstance(index, slice):
            return list(self._rows(points))
        return next(self._rows((points,)))

    def __iter__(self) -> Iterator[list]:
        return self._rows(range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, _Table)):
            return NotImplemented
        return len(other) == len(self) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


class _Closure(_Table):
    """The rows of ``subdominant_closure``: a ``_Table`` of ``Fraction`` rows, with its gaps.

    For each gap between neighbours of the leaf order it keeps the key of
    the merge that made the gap and one input entry of that weight.  A
    pair's weight is the largest key between their positions, so the
    tree's heights are the keys negated, the diagonal is None, and a
    height reads as its entry's ``Fraction``.  ``round_space`` reads the
    gaps alone.
    """

    __slots__ = ("keys", "entries")

    def __init__(self, order: list[int], keys: list[int], entries: list) -> None:
        entry_of = dict(zip(keys, entries))

        def value(height: int | None) -> Fraction:
            from fractions import Fraction

            return Fraction(0) if height is None else Fraction(*_entry_pair(entry_of[-height]))

        super().__init__(MergeTree(order, [-key for key in keys]), value)
        self.keys = keys
        self.entries = entries


def subdominant_closure(
    matrix: Sequence[Sequence[int | str | Fraction | tuple[int, int]]],
) -> _Closure:
    """Maximal ultrametric pointwise below the input (minimax path distance).

    Idempotent, and the identity exactly when the input is already an
    ultrametric.  Computed as single linkage on the integer keys of
    ``_exact_rows`` (an entry may also be a parsed pair, and the rows may
    be keys already): one pass of Prim's spanning tree in O(n^2) integer
    comparisons.  Each merge joins the last point of one block to the
    first of the other, so each gap of the final leaf order is one merge,
    and a pair's weight is the largest between them.  The result is a
    ``_Closure``: it equals the list of ``Fraction`` rows, every entry an
    input entry, but holds only the leaf order and the n - 1 gaps, each
    with the key and the entry of its merge's spanning-tree edge.
    """
    keys = _exact_rows(matrix)
    order = [0] if keys else []
    edge_after = [None] * len(keys)  # the merge that joins a point to its right neighbour
    for u, v, a, b in _single_linkage(keys):
        edge_after[a[-1]] = (u, v)
        order = a
    edges = list(map(edge_after.__getitem__, order[:-1]))
    return _Closure(order, [keys[u][v] for u, v in edges], [keys.matrix[u][v] for u, v in edges])


def _proved_closure(keys: _Keys, labels: Sequence[str]) -> _Closure:
    """The subdominant closure of keys, proved equal to them; else raise the witness.

    A matrix is an ultrametric exactly when it equals its subdominant
    closure, so the closure's key table (0 on the diagonal, every other
    entry its merge key) is compared with keys row by row, each row made
    from the tree in O(n).  On a mismatch the witness is the first
    violating triple in scan order.
    """
    closure = subdominant_closure(keys)
    if _Table(closure.tree, lambda height: 0 if height is None else -height) != keys:
        raise NotUltrametricError(Violations(_violation_masks(keys)), labels)
    return closure


class MergeTree:
    """The single-linkage dendrogram of an ultrametric space, in O(n) integers.

    ``order`` lists the points so that every ball of the space is a
    contiguous run, ``position`` inverts it, and ``heights[i]`` is the
    exponent of the merge that joins ``order[i]`` and ``order[i + 1]``
    (None: distance 0).  Two points meet at the smallest finite height
    between their positions (None: there is none).  So the balls of
    radius p^-j are the runs left when the order is cut at every height
    below j, and a set's diameter is the distance of its first and last
    points in the order.  ``_each_row`` writes the table of every pair
    one row at a time, ``_Table`` reads that table as a sequence, and
    ``rows`` lists it.
    """

    def __init__(self, order: Sequence[int], heights: Sequence[int | None]):
        self.order = tuple(order)
        self.heights = tuple(heights)
        position = [0] * len(order)
        for i, x in enumerate(order):
            position[x] = i
        self.position = tuple(position)

    def _meet(self, i: int, k: int) -> int | None:
        """Exponent of the points at positions i <= k: the range minimum of heights."""
        span = self.heights[i:k]
        try:
            return min(span) if span else None
        except TypeError:  # None (distance 0) beside another height: it is never the minimum
            return min([h for h in span if h is not None], default=None)

    def rows(self, value: Callable[[int | None], object] = lambda e: e) -> list[list]:
        """The exponent of every pair mapped by ``value``, row by row in point order.

        Each distinct height is mapped once.  The table is n lists of n
        entries, the rows of ``_Table(self, value)``; the CLI does not build it.
        """
        return list(_Table(self, value))

    def _steps(self) -> tuple[list[int], list[int], list[int], int]:
        """The gaps' heights as ranks, with the nearest strictly lower gap on each side.

        A None height (distance 0) ranks ``top``, above every finite
        height.  ``before[g]`` is the last gap before g of strictly lower
        rank (-1: none), ``after[g]`` the first one after g (n - 1: none);
        each is one pass of a stack of ranks that never fall.  O(n), and
        not kept, so a tree holds only its order, heights and positions.
        """
        top = max(self.finite_heights(), default=0) + 1
        keys = [top if h is None else h for h in self.heights]
        gaps = len(keys)
        before, after = [-1] * gaps, [gaps] * gaps
        for nearest, walk in ((after, range(gaps)), (before, range(gaps - 1, -1, -1))):
            stack: list[int] = []
            for g in walk:
                key = keys[g]
                while stack and keys[stack[-1]] > key:
                    nearest[stack.pop()] = g
                stack.append(g)
        return keys, before, after, top

    def _each_row(
        self, value: Callable[[int | None], object], points: Iterable[int]
    ) -> Iterator[tuple]:
        """The row of ``rows(value)`` of each of points, as a tuple, one row at a time.

        In the leaf order a point's row is a staircase around its
        position: going out from it, the meet is a running minimum of the
        heights, with one step at each strictly lower gap (``_steps``).
        So a row is O(depth) runs, each one repeat of one value, and one
        gather over ``position`` puts it in point order: O(n) memory per
        row, after one O(n) pass for the steps.
        """
        keys, before, after, top = self._steps()
        values = {k: value(None if k == top else k) for k in {top, *keys}}
        step = [values[k] for k in keys]  # the value of each gap
        position = self.position
        gather = itemgetter(*position) if len(position) > 1 else tuple
        gaps = len(keys)
        for x in points:
            i = position[x]
            row = [values[top]] * (gaps + 1)
            g = i - 1
            while g >= 0:  # positions before[g] + 1 .. g meet x at keys[g]
                b = before[g]
                row[b + 1 : g + 1] = [step[g]] * (g - b)
                g = b
            g = i
            while g < gaps:  # positions g + 1 .. after[g] meet x at keys[g]
                a = after[g]
                row[g + 1 : a + 1] = [step[g]] * (a - g)
                g = a
            yield gather(row)

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
        ranks = list(map(self.position.__getitem__, points))
        if len(ranks) < 2:
            return None
        return self._meet(min(ranks), max(ranks))

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
        position = self.position
        entries = sorted((position[x], g) for g, group in enumerate(groups) for x in group)
        best = None
        for (i, g), (k, h) in zip(entries, entries[1:]):
            if g != h:
                e = self._meet(i, k)
                if e is None:
                    return None
                if best is None or e > best:
                    best = e
        return best

    def pulled_back(self, points: Sequence[int]) -> MergeTree:
        """The tree of x -> points[x]: x and y meet where their images do (None: at one point).

        Sorted by their images' positions, neighbours meet at the least
        height between their images, and those runs of heights do not
        overlap: O(n + k log k) for k points.
        """
        heights = self.heights
        ranks = list(map(self.position.__getitem__, points))
        order = sorted(range(len(ranks)), key=ranks.__getitem__)
        ranks = list(map(ranks.__getitem__, order))
        # one point, neighbours, or the least height of the run between
        meets = [
            None if i == k else heights[i] if k == i + 1 else self._meet(i, k)
            for i, k in zip(ranks, ranks[1:])
        ]
        return MergeTree(order, meets)

    def stretched(self, other: MergeTree) -> list[tuple[int, int, int | None, int | None]]:
        """The pairs x < y that ``other`` stretches: (x, y, meet here, meet there), in scan order.

        ``other`` orders the same points and stretches a pair that meets
        lower there than here; None (distance 0) lies above every height.
        Two points meet there at least as high as the neighbour pairs here
        between them, so none is stretched exactly when no neighbour pair
        is: on one order, one pass over the heights; else a look-up in
        ``other.cut(h)`` per neighbour pair at height h, O(n) per height.
        Otherwise each height h lists its pairs: one block of ``cut(h)``,
        two of ``cut(h + 1)`` and two of ``other.cut(h)``.  Two blocks of
        a cut sit at one distance, so one bisection over ``other``'s cuts
        reads the meet of every pair across them.
        """
        order, heights = self.order, self.heights
        cut = cache(other.cut)
        if order == other.order:
            kept = not any(
                there is not None and (here is None or there < here)
                for here, there in zip(heights, other.heights)
            )
        else:
            kept = all(cut(h)[x] == cut(h)[y] for x, y, h in zip(order, order[1:], heights))
        if kept:
            return []
        levels = other.finite_heights()

        def meet(x: int, y: int, below: int | None) -> int:
            # a height of other below ``below``: the last whose cut holds x and y in one block
            end = len(levels) if below is None else bisect_left(levels, below)
            apart = bisect_left(levels, True, 0, end, key=lambda t: cut(t)[x] != cut(t)[y])
            return levels[apart - 1]

        found = []
        for h in set(heights):
            block = cut(h)
            part = range(len(order)) if h is None else self.cut(h + 1)
            for points in self.classes(h):
                # the block's points by their block of other.cut(h)
                split: dict[int, list[int]] = {}
                for x in points:
                    split.setdefault(block[x], []).append(x)
                groups = list(split.values())
                for a, ours in enumerate(groups):
                    for theirs in groups[a + 1 :]:
                        e = meet(ours[0], theirs[0], h)
                        # groups list their points in ascending order, so each
                        # side's pairs come sorted and the final sort merges runs
                        for left, right in ((ours, theirs), (theirs, ours)):
                            found += [
                                (x, y, h, e)
                                for x in left
                                for y in right[bisect_left(right, x) :]
                                if part[x] != part[y]
                            ]
        found.sort()
        return found


def _check_labels(labels: Sequence[str], prime: int) -> None:
    check_prime(prime)
    if not labels:
        raise ValueError("a space needs at least one point")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be unique")


class UltraSpace(Frozen):
    """A finite labeled point set with exponent-encoded ultrametric distances.

    The diagonal holds INFINITY entries (metric value 0).  Off-diagonal
    INFINITY entries are permitted until ``quotient_zero`` enforces
    separation.  Immutable; safe to share between threads.

    ``tree``, the ``MergeTree`` (leaf order and n - 1 heights), is the stored form,
    proved by the constructor or handed over by a builder that proved it.
    Equality, hashing and JSON ignore it; ``dist`` is written from it when read.
    """

    __slots__ = ("labels", "prime", "tree", "__dict__")
    _fields = ("labels", "prime", "dist")

    def __init__(
        self,
        labels: tuple[str, ...],
        prime: int,
        dist: tuple[tuple[GammaValue, ...], ...],
    ) -> None:
        super().__init__(labels, prime, dist)
        # every check of a space, raising at the first fault in scan order
        _check_labels(labels, prime)
        n = len(labels)
        if len(dist) != n or any(len(row) != n for row in dist):
            raise MatrixShapeError("distance matrix must be square over the labels")
        expo = tuple(tuple(map(attrgetter("exponent"), row)) for row in dist)
        if any(expo[i][i] is not None for i in range(n)) or list(zip(*expo)) != list(expo):
            for i in range(n):
                if expo[i][i] is not None:
                    raise NonzeroDiagonalError(f"diagonal entry at index {i} is nonzero")
                for j in range(i + 1, n):
                    if expo[i][j] != expo[j][i]:
                        raise AsymmetricMatrixError(f"entries ({i},{j}) and ({j},{i}) differ")
        # keys top - e: larger for a larger distance, and 0 for the metric value 0 (None);
        # each gap's entry is then the exponent of its merge
        top = max((e for row in expo for e in row if e is not None), default=-1) + 1
        keys = _Keys([[0 if e is None else top - e for e in row] for row in expo], expo)
        closure = _proved_closure(keys, labels)
        object.__setattr__(self, "tree", MergeTree(closure.tree.order, closure.entries))

    @classmethod
    def _from_tree(cls, labels: tuple[str, ...], prime: int, tree: MergeTree) -> "UltraSpace":
        """The space of a tree its caller proved, with no check."""
        space = cls.__new__(cls)
        for name, value in (("labels", labels), ("prime", prime), ("tree", tree)):
            object.__setattr__(space, name, value)
        return space

    @cached_property
    def dist(self) -> tuple[tuple[GammaValue, ...], ...]:
        # every exponent is a merge height or None: one GammaValue each
        return tuple(self.tree._each_row(GammaValue, range(self.n_points)))

    @property
    def n_points(self) -> int:
        return len(self.labels)

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
        """Labels, prime and the n x n ``gamma_matrix`` of exponents ("INF": distance 0).

        For library callers: no command calls it, and each writes the
        matrix row by row from the tree.
        """
        return {
            "labels": list(self.labels),
            "prime": self.prime,
            "gamma_matrix": self.tree.rows(_exponent_json),
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
    labels: Sequence[str],
    matrix: Sequence[Sequence[int | str | Fraction | tuple[int, int]]],
    p: int,
) -> UltraSpace:
    """Round a rational ultrametric into the value group, entrywise.

    Every entry lands on the largest p^(-e) below it, which keeps the
    strong triangle inequality (the rounding map is monotone) and the
    sandwich rounded <= original <= p * rounded.  An entry may also be a
    parsed (numerator, denominator) pair (see ``_exact_rows``).

    A ``_Closure``, as ``subdominant_closure`` returns it, is an
    ultrametric by construction, and its gaps are the tree: each distinct
    gap weight (at most n - 1) is rounded once, on its numerator and
    denominator, with no keying and no proof.  Any other matrix is keyed
    by ``_exact_rows`` and proved equal to its own closure by
    ``_proved_closure``, in O(n^2) integer comparisons, or the witness is
    the first violating triple in scan order; that closure's gaps are
    then rounded the same way.  Rounding is monotone, so the order still
    holds every ball as a run, and the rounded tree needs no check.
    """
    if len(labels) != len(matrix):
        raise MatrixShapeError("labels and matrix size differ")
    closure = matrix
    if type(closure) is not _Closure:
        keys = _exact_rows(matrix)
        check_prime(p)  # a bad prime is refused before a failed proof
        closure = _proved_closure(keys, labels)
    labels = tuple(labels)
    _check_labels(labels, p)
    exponent = {0: None}
    for key, entry in zip(closure.keys, closure.entries):
        if key not in exponent:
            exponent[key] = _round_pair(*_entry_pair(entry), p).exponent
    heights = list(map(exponent.__getitem__, closure.keys))
    return UltraSpace._from_tree(labels, p, MergeTree(closure.tree.order, heights))


def _common_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Length of the longest common prefix of two windows."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _pair_weights(order: list[int], sizes: list[int], common: list[int]) -> list[list[int]]:
    """Each pair's single-linkage weight, for windows sorted by order.

    ``sizes`` holds the sorted windows' lengths and ``common`` each
    neighbour pair's common prefix.  Two sorted windows share the least
    common prefix of the neighbours between them, and the first is a
    prefix of the second exactly when that is its whole length.  A pair
    weighs minus its first difference, or -max(sizes), the lowest, at
    distance 0 (itself or a prefix); one int per weight: O(n^2).
    """
    n = len(order)
    minus = [-c for c in range(max(sizes) + 1)]
    weights = [[minus[-1]] * n for _ in range(n)]
    for a in range(n):
        x, low = order[a], sizes[a]
        for b in range(a + 1, n):
            if common[b - 1] < low:
                low = common[b - 1]
            if low < sizes[a]:
                weights[x][order[b]] = weights[order[b]][x] = minus[low]
    return weights


def space_from_points(
    points: Sequence[PAdic], labels: Sequence[str] | None = None
) -> UltraSpace:
    """Distance matrix |x_i - x_j|_p over a family of p-adic values.

    Each point is its digit window from the least valuation, base, up to
    its own end (``known_upto``), with zeros below its valuation; a zero
    point is zeros up to the largest end.  Two points are at the exponent
    of their first differing digit within the shorter window (None: one
    window is a prefix of the other).  Sorted lexicographically, the
    first difference of two windows is the least first difference of the
    neighbours between them, so the sorted order and the neighbours'
    first differences are the tree: O(n * L log n) for windows of L
    digits, and no pair table.

    That holds unless the strong triangle inequality fails, which happens
    exactly when one window is a proper prefix of two windows that
    differ.  A window's extensions form one run right after it, so one
    pass decides it: ``shortest``, the length of the shortest window that
    is a prefix of the current one, must exceed the common prefix of each
    neighbour pair that differs.  Only a failed check weighs each pair,
    O(n^2), and raises the witness from those weights, with no single linkage.
    """
    if not points:
        raise ValueError("need at least one point")
    p = points[0].prime
    if any(pt.prime != p for pt in points):
        raise ValueError("all points must share one prime")
    if labels is None:
        labels = [f"x{i}" for i in range(len(points))]
    labels = tuple(labels)
    _check_labels(labels, p)
    if len(labels) != len(points):
        raise MatrixShapeError("distance matrix must be square over the labels")
    end = max((x.known_upto() for x in points if not x.is_zero), default=0)
    base = min((x.valuation for x in points if not x.is_zero), default=end)
    windows = [
        (0,) * (end - base) if x.is_zero else (0,) * (x.valuation - base) + x.digits
        for x in points
    ]
    order = sorted(range(len(points)), key=windows.__getitem__)
    sizes = [len(windows[x]) for x in order]
    common = [_common_prefix(windows[x], windows[y]) for x, y in zip(order, order[1:])]
    heights = []
    shortest = sizes[0]
    for i, c in enumerate(common):
        if c == sizes[i]:  # a sorted window can only be a prefix of the next
            heights.append(None)
        elif c >= shortest:
            # a window is a prefix of two that differ: the pair weights name the witness
            weights = _pair_weights(order, sizes, common)
            raise NotUltrametricError(Violations(_violation_masks(weights)), labels)
        else:
            heights.append(base + c)
            shortest = sizes[i + 1]
    return UltraSpace._from_tree(labels, p, MergeTree(order, heights))


def quotient_zero(space: UltraSpace) -> tuple[UltraSpace, dict[str, str]]:
    """Merge zero-distance points; the report maps dropped labels to keepers.

    The result satisfies the separation invariant: off-diagonal entries
    are never INFINITY.  A space that already does is returned as it is.
    A zero class is a run of INFINITY heights, so it shrinks to one leaf.
    """
    if space.is_separated:
        return space, {}
    tree = space.tree
    classes = tree.classes(None)
    reps = [cls[0] for cls in classes]
    report = {
        space.labels[member]: space.labels[cls[0]]
        for cls in classes
        for member in cls[1:]
    }
    # each class is a run of the order, so its representative keeps the
    # run's place, and the finite heights are the merges between the runs
    order = sorted(range(len(reps)), key=lambda i: tree.position[reps[i]])
    heights = [h for h in tree.heights if h is not None]
    labels = tuple(space.labels[r] for r in reps)
    return UltraSpace._from_tree(labels, space.prime, MergeTree(order, heights)), report


class BaireCodes(Frozen):
    """Digit strings over integer positions start..depth, one per point.

    Position i holds the index of the point's class under {d < p^-i};
    two points at distance p^-k then agree strictly before position k
    and differ at position k.  Class indices per position are assigned
    in order of the lexicographically smallest member label.
    """

    __slots__ = ("prime", "start", "depth", "labels", "codes")

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


class _Embedding(tuple):
    """Embedded points, one ``C0Vector`` each, with their merge tree, built on first read.

    Sorted key lists, closed by an end mark above every key level, order
    the points; the height between neighbours is the level of the smaller
    key where they first differ (None: equal keys).  Two points then meet
    at the least height between them, as the first mismatch of two sorted
    sequences is the least over the neighbours between them (the LCP
    property).  O(n * depth), once per embedding: every level of an
    expansion holds the same one.  ``c0_embed`` writes each point's keys
    strictly increasing, one per Baire position, so they are taken as
    they are when one C-level pass finds them so; other vectors' keys
    are sorted as a set.
    """

    @cached_property
    def tree(self) -> MergeTree:
        keys = [
            list(k) if all(map(lt, k, k[1:])) else sorted(set(k))
            for k in (vector.keys for vector in self)
        ]
        end = (max((k[-1][0] for k in keys if k), default=0) + 1,)
        for k in keys:
            k.append(end)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        heights = [
            next((min(x, y)[0] for x, y in zip(keys[v], keys[w]) if x != y), None)
            for v, w in zip(order, order[1:])
        ]
        return MergeTree(order, heights)


def c0_embed(codes: BaireCodes) -> tuple[C0Vector, ...]:
    """One sparse vector per point; pairwise distances equal the source metric."""
    return _Embedding(
        C0Vector(
            keys=tuple((pos, code[offset]) for offset, pos in enumerate(codes.positions)),
        )
        for code in codes.codes
    )
