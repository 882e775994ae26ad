"""Independent brute-force oracles for the test suite.

Everything here recomputes expected values from first principles with
plain integers and fractions; nothing imports the library's own
computation paths, so each check stays a genuine second route.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


def gamma_floor(r: Fraction, p: int) -> int | None:
    """Exponent e of the largest p^-e <= r by direct enumeration; None for r = 0."""
    if r == 0:
        return None
    if r < 0:
        raise ValueError("negative input")
    # scan a window of exponents guaranteed to bracket r
    e = 0
    while Fraction(p) ** (-e) > r:
        e += 1
    while Fraction(p) ** (-(e - 1)) <= r:
        e -= 1
    return e


def in_value_group(num: int, den: int, p: int) -> bool:
    """Whether num/den, in lowest terms, is 0 or p^-e for an integer e.

    One of num and den is 1 and the other a power of p, by trial
    division.  A negative value raises as ``round_to_gamma`` does.
    """
    if num < 0:
        raise ValueError(f"cannot round negative value {Fraction(num, den)}")
    if num == 0:
        return True
    if num != 1 and den != 1:
        return False
    power = num * den
    while power % p == 0:
        power //= p
    return power == 1


def schoolbook_add(
    digits_a: list[int], va: int, digits_b: list[int], vb: int, p: int
) -> tuple[list[int], int] | None:
    """Carry-propagating digit addition on the shared known window.

    Returns (digits, valuation) of the sum or None when every digit in
    the window cancels.  Positions below each operand's valuation are
    exact zeros; positions at or above valuation+len(digits) are unknown,
    so the result window is [min(va, vb), min(va+len a, vb+len b)).
    """
    start = min(va, vb)
    end = min(va + len(digits_a), vb + len(digits_b))
    window = []
    carry = 0
    for pos in range(start, end):
        da = digits_a[pos - va] if va <= pos < va + len(digits_a) else 0
        db = digits_b[pos - vb] if vb <= pos < vb + len(digits_b) else 0
        carry, d = divmod(da + db + carry, p)
        window.append(d)
    while window and window[0] == 0:
        window.pop(0)
        start += 1
    if not window:
        return None
    return window, start


def trial_division_valuation(num: int, den: int, p: int) -> int:
    """v_p(num/den) by trial division on both parts."""
    if num == 0:
        raise ValueError("valuation of zero")
    v = 0
    num = abs(num)
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def violating_triples(matrix: list[list[Fraction]]) -> list[tuple[int, int, int]]:
    """Every (i, j, k), i < k, with d(i,k) > max(d(i,j), d(j,k)), by a full scan.

    Scan order is i, then k, then j ascending.
    """
    n = len(matrix)
    out = []
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                if j != i and j != k and matrix[i][k] > max(matrix[i][j], matrix[j][k]):
                    out.append((i, j, k))
    return out


def fraction_violation_masks(matrix: list[list[Fraction]]) -> list[tuple[int, int, int]]:
    """(i, k, bitset of the middle points j) per violating pair, rows sorted as fractions.

    The row-sort route of the library before it compared integer keys:
    below[i][k] is the bitset of j with d(i,j) < d(i,k), and (i, j, k)
    violates when j is in below[i][k] and in below[k][i].
    """
    n = len(matrix)
    below = []
    for row in matrix:
        sets = [0] * n
        for k in range(n):
            for j in range(n):
                if row[j] < row[k]:
                    sets[k] |= 1 << j
        below.append(sets)
    return [
        (i, k, below[i][k] & below[k][i])
        for i in range(n)
        for k in range(i + 1, n)
        if below[i][k] & below[k][i]
    ]


def floyd_warshall_closure(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Minimax path distance by the Floyd-Warshall recurrence over (max, min)."""
    n = len(matrix)
    d = [[Fraction(entry) for entry in row] for row in matrix]
    for mid in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], max(d[i][mid], d[mid][j]))
    return d


def minimax_paths(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Minimax path distance by enumerating every simple path (n <= 6)."""
    n = len(matrix)
    out = [[Fraction(0)] * n for _ in range(n)]
    nodes = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            best = matrix[i][j]
            middle = [x for x in nodes if x not in (i, j)]
            for r in range(1, len(middle) + 1):
                for combo in permutations(middle, r):
                    path = [i, *combo, j]
                    cost = max(
                        matrix[path[t]][path[t + 1]] for t in range(len(path) - 1)
                    )
                    if cost < best:
                        best = cost
            out[i][j] = out[j][i] = best
    return out


def closure_classes(exponents: list[list[int | None]], j: int) -> list[tuple[int, ...]]:
    """Connected components of the threshold graph {e >= j} via BFS.

    e = None stands for distance zero, which lies below every threshold.
    """
    n = len(exponents)
    seen = [False] * n
    classes = []
    for root in range(n):
        if seen[root]:
            continue
        queue = [root]
        seen[root] = True
        members = []
        while queue:
            x = queue.pop()
            members.append(x)
            for y in range(n):
                if not seen[y]:
                    e = exponents[x][y]
                    if e is None or e >= j:
                        seen[y] = True
                        queue.append(y)
        classes.append(tuple(sorted(members)))
    return sorted(classes, key=lambda cls: cls[0])


def first_difference(code_a: list[int], code_b: list[int], start: int) -> int | None:
    """Position (offset by start) of the first differing entry."""
    for offset, (a, b) in enumerate(zip(code_a, code_b)):
        if a != b:
            return start + offset
    return None


def sparse_vector_distance(
    keys_a: list[tuple[int, int]], keys_b: list[tuple[int, int]], p: int
) -> Fraction:
    """Norm of the difference of two sparse vectors with coefficients p^level.

    Works on explicit fraction coefficients: coinciding keys subtract to
    zero, every surviving entry contributes norm p^-level, and the sup
    norm is their maximum.
    """
    coeffs: dict[tuple[int, int], Fraction] = {}
    for level, symbol in keys_a:
        coeffs[(level, symbol)] = coeffs.get((level, symbol), Fraction(0)) + Fraction(p) ** level
    for level, symbol in keys_b:
        coeffs[(level, symbol)] = coeffs.get((level, symbol), Fraction(0)) - Fraction(p) ** level
    norms = [
        Fraction(p) ** (-level)
        for (level, _), c in coeffs.items()
        if c != 0
    ]
    return max(norms, default=Fraction(0))


def threshold_cliques(
    block_dist: list[list[Fraction]], threshold: Fraction
) -> list[tuple[int, ...]]:
    """Components of the graph {d <= threshold}, verified to be cliques."""
    n = len(block_dist)
    adj = [[block_dist[i][j] <= threshold for j in range(n)] for i in range(n)]
    seen = [False] * n
    out = []
    for root in range(n):
        if seen[root]:
            continue
        queue, members = [root], []
        seen[root] = True
        while queue:
            x = queue.pop()
            members.append(x)
            for y in range(n):
                if not seen[y] and adj[x][y]:
                    seen[y] = True
                    queue.append(y)
        members.sort()
        for a in members:
            for b in members:
                assert adj[a][b] or a == b, "threshold graph is not a disjoint clique union"
        out.append(tuple(members))
    return sorted(out, key=lambda cls: cls[0])


def theta_digits(digits: list[int], p: int, n: int) -> Fraction:
    """sum(digits[i] * p^(-i-1)) over the first n digits."""
    return sum((Fraction(digits[i], p ** (i + 1)) for i in range(n)), Fraction(0))


def residue_blocks(order: int, modulus: int) -> list[tuple[int, ...]]:
    """Residue classes of Z/order modulo `modulus`, sorted by smallest member."""
    classes: dict[int, list[int]] = {}
    for x in range(order):
        classes.setdefault(x % modulus, []).append(x)
    return sorted((tuple(v) for v in classes.values()), key=lambda cls: cls[0])


def trial_division_is_prime(n: int) -> bool:
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def strong_triangle_by_thresholds(exponents: list[list[int | None]]) -> bool:
    """Ultrametric test: every closed-ball relation {e >= j} is transitive.

    For each distinct exponent j (plus one threshold above the largest,
    for the zero-distance relation), the union-find closure of the
    threshold graph must add no pair outside it.  None stands for
    distance zero, which lies inside every threshold.
    """
    n = len(exponents)
    values = {e for row in exponents for e in row if e is not None}
    has_zero_pair = any(
        exponents[i][j] is None for i in range(n) for j in range(i + 1, n)
    )
    if values and has_zero_pair:
        values.add(max(values) + 1)
    for j in sorted(values):
        parent = list(range(n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a in range(n):
            for b in range(a + 1, n):
                e = exponents[a][b]
                if e is None or e >= j:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[rb] = ra
        for a in range(n):
            for b in range(a + 1, n):
                e = exponents[a][b]
                if e is not None and e < j and find(a) == find(b):
                    return False
    return True


def pairwise_nonstretching(
    vertices: list[int],
    vertex_map: dict[int, int],
    fine_keys: list[list[tuple[int, int]]],
    coarse_keys: list[list[tuple[int, int]]],
    p: int,
    fine_scale: int,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], int, bool]:
    """Non-stretching witnesses of a vertex map by a scan over vertex pairs.

    fine_keys[v] and coarse_keys[v] are the sparse-vector keys realizing
    point v at the two levels, taken as sets (a repeated key counts once,
    as in ``C0Vector``); distances are exact fractions from
    ``sparse_vector_distance``.  Returns (violations, merged, preserved,
    single_step): pairs whose image distance exceeds the source
    distance, pairs sent to one vertex, the count of the other pairs,
    and whether every merged pair sat at p^-(fine_scale - 1).
    """
    step = Fraction(p) ** (1 - fine_scale)
    fine_keys = [list(set(keys)) for keys in fine_keys]
    coarse_keys = [list(set(keys)) for keys in coarse_keys]
    violations, merged = [], []
    preserved = 0
    single_step = True
    for a in range(len(vertices)):
        for b in range(a + 1, len(vertices)):
            v, w = vertices[a], vertices[b]
            src = sparse_vector_distance(fine_keys[v], fine_keys[w], p)
            iv, iw = vertex_map[v], vertex_map[w]
            if iv == iw:
                merged.append((v, w))
                if src != step:
                    single_step = False
            elif sparse_vector_distance(coarse_keys[iv], coarse_keys[iw], p) > src:
                violations.append((v, w))
            else:
                preserved += 1
    return tuple(violations), tuple(merged), preserved, single_step


def per_map_ball_certificate(verts, images, vectors, scale: int, step: int) -> tuple | None:
    """The non-stretching ball certificate as one bonding map alone builds it.

    The library's former route: each map sorts its own vertices' key
    lists (taken as sets, closed by an end mark above every key level)
    and reads each neighbour pair's first mismatch, the level of the
    smaller key there (None: equal keys).  Levels below ``scale`` cut
    the balls; returns (violations, merged, single step) when each ball
    maps to one vertex inside itself, or None.
    """
    keys = {v: sorted(set(vectors[v].keys)) for v in verts}
    end = (max((k[-1][0] for k in keys.values() if k), default=0) + 1,)
    for k in keys.values():
        k.append(end)
    order = sorted(verts, key=keys.__getitem__)
    ball_of = dict.fromkeys(order[:1], 0)
    sizes = [1]
    single_step = True
    for v, w in zip(order, order[1:]):
        level = next((min(x, y)[0] for x, y in zip(keys[v], keys[w]) if x != y), None)
        if level is not None and level < scale:
            sizes.append(0)
        elif level != step:
            single_step = False
        sizes[-1] += 1
        ball_of[w] = len(sizes) - 1
    image_of: dict[int, int] = {}
    for v, iv in zip(verts, images):
        if ball_of.get(iv) != ball_of[v] or image_of.setdefault(ball_of[v], iv) != iv:
            return None
    return [], sum(k * (k - 1) // 2 for k in sizes), single_step


# -- the former pairwise routes of covers, nerves and checks -------------
#
# Each takes a distance matrix of exact fractions (0 for distance zero)
# and reproduces a scan the library made before its merge tree.


def pair_witnesses(verts, images, vectors, image_vectors, step: int) -> tuple[list, int, bool]:
    """``verify_nonstretching``'s (violations, merged, single step), comparing every pair.

    The library's former second route.  ``images[a]`` is the image of
    ``verts[a]``, None when it is unmapped; a pair with an unmapped end
    is a violation, listed ahead of the mapped pairs.  Among the mapped
    pairs, one image is a merge, and an image distance above the pair's
    distance a violation.
    """
    violations = []
    if None in images:
        ends = [(v, iv is None) for v, iv in zip(verts, images)]
        violations = [[v, w] for a, (v, x) in enumerate(ends) for w, y in ends[a + 1 :] if x or y]
        verts = [v for v, unmapped in ends if not unmapped]
        images = [iv for iv in images if iv is not None]
    merged = 0
    single_step = True
    for a, (v, iv) in enumerate(zip(verts, images)):
        vector, image = vectors[v], image_vectors[iv]
        for w, iw in zip(verts[a + 1 :], images[a + 1 :]):
            distance = vector.distance(vectors[w])
            if iv == iw:
                merged += 1
                if distance.exponent != step:
                    single_step = False
            elif image.distance(image_vectors[iw]) > distance:
                violations.append([v, w])
    return violations, merged, single_step


def tree_meet(order, heights, x: int, y: int) -> int | None:
    """The exponent where x and y meet in the tree (order, heights), read off their positions.

    The least finite height between them; None when there is none.
    """
    i, k = sorted((order.index(x), order.index(y)))
    finite = [h for h in heights[i:k] if h is not None]
    return min(finite) if finite else None


def embedding_tree_by_sorting(key_lists) -> tuple[tuple[int, ...], tuple[int | None, ...]]:
    """(order, heights) of the merge tree of sparse vectors, every key list sorted as a set.

    Each list, closed by an end mark above every key level, orders its
    point; neighbours meet at the level of the smaller key where their
    lists first differ (None: equal lists).
    """
    keys = [sorted(set(k)) for k in key_lists]
    end = (max((k[-1][0] for k in keys if k), default=0) + 1,)
    for k in keys:
        k.append(end)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    heights = [
        next((min(x, y)[0] for x, y in zip(keys[v], keys[w]) if x != y), None)
        for v, w in zip(order, order[1:])
    ]
    return tuple(order), tuple(heights)


def pairwise_stretched(a, b) -> list[tuple[int, int, int | None, int | None]]:
    """Every pair x < y whose meet in tree b lies below its meet in tree a, meet by meet.

    Trees are (order, heights) over the points 0..n-1; None, distance
    0, lies above every height.  Each pair comes as (x, y, meet in a,
    meet in b), in scan order.
    """
    found = []
    n = len(a[0])
    for x in range(n):
        for y in range(x + 1, n):
            here, there = tree_meet(*a, x, y), tree_meet(*b, x, y)
            if there is not None and (here is None or there < here):
                found.append((x, y, here, there))
    return found


def greedy_threshold_classes(
    dist: list[list[Fraction]], threshold: Fraction
) -> list[tuple[int, ...]]:
    """Classes of {d <= threshold}, comparing each point with one member per class."""
    classes: list[list[int]] = []
    for i in range(len(dist)):
        for cls in classes:
            if dist[cls[0]][i] <= threshold:
                cls.append(i)
                break
        else:
            classes.append([i])
    return [tuple(cls) for cls in classes]


def pairwise_diameter(dist: list[list[Fraction]], block) -> Fraction:
    """Largest distance over member pairs; 0 below two members."""
    block = tuple(block)
    return max(
        (dist[x][y] for a, x in enumerate(block) for y in block[a + 1 :]),
        default=Fraction(0),
    )


def pairwise_set_distance(dist: list[list[Fraction]], block_a, block_b) -> Fraction:
    """Smallest distance over member pairs."""
    values = [dist[a][b] for a in block_a for b in block_b]
    if not values:
        raise ValueError("set distance of an empty block")
    return min(values)


def pairwise_nerve(
    dist: list[list[Fraction]],
    blocks: list[tuple[int, ...]],
    factor: Fraction,
    b: Fraction | None,
) -> tuple[Fraction, list[tuple[int, ...]]] | None:
    """Threshold and maximal simplexes of the nerve at threshold factor * b.

    b None means the largest block diameter.  Blocks join the first
    class whose first block lies within the threshold, and every class
    is then checked to be a clique.  None when the threshold lies below
    a block diameter.
    """
    sup = max((pairwise_diameter(dist, block) for block in blocks), default=Fraction(0))
    threshold = (sup if b is None else b) * factor
    if threshold < sup:
        return None
    classes: list[list[int]] = []
    for idx, block in enumerate(blocks):
        for cls in classes:
            if pairwise_set_distance(dist, blocks[cls[0]], block) <= threshold:
                cls.append(idx)
                break
        else:
            classes.append([idx])
    for cls in classes:
        for a in cls:
            for b_ in cls:
                assert pairwise_set_distance(dist, blocks[a], blocks[b_]) <= threshold
    return threshold, [tuple(blocks[i][0] for i in cls) for cls in classes]


def pairwise_separation(dist: list[list[Fraction]], supports) -> Fraction | None:
    """Smallest set distance over pairs of supports; None for one support."""
    return min(
        (
            pairwise_set_distance(dist, supports[a], supports[b])
            for a in range(len(supports))
            for b in range(a + 1, len(supports))
        ),
        default=None,
    )


def pairwise_isolation(
    dist: list[list[Fraction]],
    levels: list[tuple[Fraction, Fraction, list[tuple[int, ...]], list[tuple[int, ...]]]],
) -> tuple[dict[int, int | None], list[tuple[int, int]]]:
    """First isolating level of each point and the (point, level) violations.

    levels holds (ball scale, nerve threshold, blocks, maximal
    simplexes).  A point's first level is the first whose scale and
    threshold both lie below its nearest-neighbour distance; from there
    on its block and simplex must be the point alone.
    """
    n = len(dist)
    first: dict[int, int | None] = {}
    violations = []
    for x in range(n):
        others = [dist[x][y] for y in range(n) if y != x]
        delta = min(others) if others else None
        first[x] = next(
            (
                m
                for m, (scale, threshold, _, _) in enumerate(levels)
                if delta is None or max(scale, threshold) < delta
            ),
            None,
        )
        if first[x] is None:
            continue
        for m in range(first[x], len(levels)):
            _, _, blocks, simplexes = levels[m]
            block = next(block for block in blocks if x in block)
            simplex = next(s for s in simplexes if block[0] in s)
            if block != (x,) or simplex != (x,):
                violations.append((x, m))
    return first, violations


def label_ranked_codes(
    exponents: list[list[int | None]], labels: list[str], start: int, depth: int
) -> list[tuple[int, ...]]:
    """Digit codes: at position i, the rank of a point's {e >= i + 1} class by smallest label."""
    codes: list[list[int]] = [[] for _ in labels]
    for pos in range(start, depth + 1):
        classes = sorted(
            closure_classes(exponents, pos + 1), key=lambda c: min(labels[x] for x in c)
        )
        for symbol, cls in enumerate(classes):
            for x in cls:
                codes[x].append(symbol)
    return [tuple(code) for code in codes]


def all_pairs_functoriality(
    rep_of: list[dict[int, int]],
    vertices: list[list[int]],
    vertex_maps: list[dict[int, int]],
) -> list[tuple[int, int]]:
    """Level pairs (fine, coarse) where the chain of maps differs from containment.

    vertex_maps[m] sends level m + 1 to level m; containment sends each
    fine vertex v to rep_of[coarse][v].  Raises KeyError where a chain
    leaves a map's domain.
    """
    bad = []
    for fine in range(len(vertices)):
        for coarse in range(fine + 1):
            chain = {v: v for v in vertices[fine]}
            for m in range(fine, coarse, -1):
                chain = {v: vertex_maps[m - 1][w] for v, w in chain.items()}
            if chain != {v: rep_of[coarse][v] for v in vertices[fine]}:
                bad.append((fine, coarse))
    return bad


def containment_bonding(
    fine_blocks: list[tuple[int, ...]],
    coarse_blocks: list[tuple[int, ...]],
    fine_simplexes: list[tuple[int, ...]],
    coarse_simplexes: list[tuple[int, ...]],
) -> tuple[str, object]:
    """The bonding map by subset containment, or where it fails first.

    Each fine block must lie in exactly one coarse block, and its
    vertex (first member) goes to that block's first member; then the
    image of each fine simplex must lie in some coarse simplex.  Returns
    ("block", block) or ("simplex", simplex) for the first failure in
    order, else ("map", vertex_map).
    """
    vertex_map = {}
    for block in fine_blocks:
        parents = [c for c in coarse_blocks if set(block) <= set(c)]
        if len(parents) != 1:
            return "block", block
        vertex_map[block[0]] = parents[0][0]
    for s in fine_simplexes:
        image = {vertex_map[v] for v in s}
        if not any(image <= set(c) for c in coarse_simplexes):
            return "simplex", s
    return "map", vertex_map


# -- the former Fraction routes of the raw-matrix ingest -----------------
#
# The library runs these on exact integers now; here they run on
# Fractions, as the library did before.


def stepwise_gamma_exponent(r: Fraction, p: int) -> int | None:
    """Exponent of the largest p^-e <= r, stepping from 1 one factor of p at a time.

    None for r = 0.  O(e) steps on operands that grow with e.
    """
    if r < 0:
        raise ValueError("negative input")
    if r == 0:
        return None
    e = 0
    cur = Fraction(1)
    if cur <= r:
        while cur * p <= r:
            cur *= p
            e -= 1
    else:
        while cur > r:
            cur = cur / p
            e += 1
    return e


def fraction_single_linkage(matrix: list[list[Fraction]]):
    """Merges (weight, block, block) of Prim's spanning tree on Fractions, ascending.

    Ties keep Prim's order (a stable sort); the first block is the
    larger and is extended by the second after each merge.
    """
    n = len(matrix)
    if n == 0:
        return
    best = list(matrix[0])
    via = [0] * n
    remaining = list(range(1, n))
    edges = []
    while remaining:
        u = min(remaining, key=best.__getitem__)
        remaining.remove(u)
        edges.append((best[u], via[u], u))
        for v in remaining:
            if matrix[u][v] < best[v]:
                best[v] = matrix[u][v]
                via[v] = u
    edges.sort(key=lambda edge: edge[0])
    block_of = [[i] for i in range(n)]
    for weight, u, v in edges:
        a, b = block_of[u], block_of[v]
        if len(a) < len(b):
            a, b = b, a
        yield weight, a, b
        a.extend(b)
        for x in b:
            block_of[x] = a


def fraction_closure(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Subdominant closure: each spanning-tree merge weight fills the block it joins."""
    n = len(matrix)
    out = [[Fraction(0)] * n for _ in range(n)]
    for weight, a, b in fraction_single_linkage(matrix):
        for x in a:
            for y in b:
                out[x][y] = out[y][x] = weight
    return out


def fraction_round_check(
    matrix: list[list[Fraction]], p: int
) -> tuple[str, object]:
    """The rounding of an ultrametric, or its first violating triple in scan order.

    Returns ("exponents", matrix of exponents, None for 0) when every
    entry across each merge equals the merge weight, else ("witness",
    triple).  Each weight is rounded by ``stepwise_gamma_exponent``.
    """
    n = len(matrix)
    out: list[list[int | None]] = [[None] * n for _ in range(n)]
    for weight, a, b in fraction_single_linkage(matrix):
        e = stepwise_gamma_exponent(weight, p)
        for x in a:
            for y in b:
                if matrix[x][y] != weight:
                    return "witness", violating_triples(matrix)[0]
                out[x][y] = out[y][x] = e
    return "exponents", out


def difference_exponents(points) -> list[list[int | None]]:
    """Exponent of |x_i - x_j|_p for every pair (None: zero), from each point's fields.

    A point has ``prime``, ``valuation``, ``digits`` (empty for zero) and
    ``precision``; its value is the sum of digits[i] * p^(valuation + i),
    known below valuation + precision.  A zero operand leaves the other's
    valuation, as p-adic subtraction does.  For two nonzero points the
    difference is read as a Fraction: its valuation, by trial division,
    when that lies below the smaller window end, else None (it vanishes at
    that precision).
    """

    def value(x) -> Fraction:
        p = Fraction(x.prime)
        return sum(d * p ** (x.valuation + i) for i, d in enumerate(x.digits))

    n = len(points)
    out: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            if i == j or (not x.digits and not y.digits):
                continue
            if not x.digits or not y.digits:
                out[i][j] = (y if not x.digits else x).valuation
                continue
            end = min(x.valuation + x.precision, y.valuation + y.precision)
            diff = value(x) - value(y)
            if diff != 0:
                e = trial_division_valuation(diff.numerator, diff.denominator, x.prime)
                out[i][j] = e if e < end else None
    return out


def pairwise_limit_recovery(
    exponents: list[list[int | None]], thresholds: list[int], threads: list[tuple[int, ...]]
) -> dict:
    """Limit recovery by scanning the threads of every pair, in scan order.

    A pair's recovered exponent is the threshold exponent of the first
    level where its threads differ, less one.  A mismatch is
    [x, y, recovered, actual], with recovered None for a pair that never
    splits and actual -1 for a pair at distance zero.  ``bound`` is the
    largest step between consecutive thresholds, less one.
    """
    n = len(threads)
    mismatches = []
    for x in range(n):
        for y in range(x + 1, n):
            split = [m for m in range(len(thresholds)) if threads[x][m] != threads[y][m]]
            actual = exponents[x][y]
            recovered = thresholds[split[0]] - 1 if split else None
            if actual is None or recovered is None:
                mismatches.append([x, y, None, -1 if actual is None else actual])
            elif recovered != actual:
                mismatches.append([x, y, recovered, actual])
    steps = [b - a for a, b in zip(thresholds, thresholds[1:])]
    return {"mismatches": mismatches, "bound": max(steps) - 1 if steps else 0}


def thread_preimage(
    simplexes: list[list[tuple[int, ...]]],
    vertex_maps: list[dict],
    supports: list[list[tuple[int, ...]]],
    thread: tuple[int, ...],
) -> frozenset[int] | None:
    """The points under every cell of a thread, or None when the thread is incoherent.

    ``vertex_maps[m]`` sends level m + 1's vertices to level m's; a
    thread is incoherent when the image of some finer simplex of it is
    not inside the coarser one.  The preimage intersects the supports of
    the thread's cells.
    """
    for m in range(len(thread) - 1):
        image = {vertex_maps[m].get(v) for v in simplexes[m + 1][thread[m + 1]]}
        if not image <= set(simplexes[m][thread[m]]):
            return None
    points = set(supports[0][thread[0]])
    for level_supports, idx in zip(supports[1:], thread[1:]):
        points &= set(level_supports[idx])
    return frozenset(points)


def reference_bundle(
    exponents: list[list[int | None]], prime: int, schedule: dict
) -> dict | None:
    """The expansion bundle less its ``space``, built from the definitions.

    ``exponents`` is the exponent table of a separated space (None on the
    diagonal alone) and ``schedule`` a config's ``{"j": [...], "k": [...]}``
    with its bound's shift ``"b"`` (0 when absent), each level's bound
    being p^-(j + shift).  Every part comes from the pairwise
    oracles above: blocks from ``closure_classes``, nerves from
    ``pairwise_nerve``, maps from ``containment_bonding``, and the verify
    summaries from ``pairwise_nonstretching`` on ``label_ranked_codes``,
    ``pairwise_diameter`` and ``pairwise_separation``, ``pairwise_isolation``,
    ``all_pairs_functoriality``, ``thread_preimage`` and
    ``pairwise_limit_recovery``.  None when no bundle is built: a level's
    threshold lies below a block diameter, a block or simplex does not
    nest, or the finest level does not separate the points.
    """
    p = Fraction(prime)
    n = len(exponents)
    dist = [[Fraction(0) if e is None else p**-e for e in row] for row in exponents]
    js, ks = list(schedule["j"]), list(schedule["k"])
    shift = schedule.get("b", 0)

    def written(value: Fraction) -> int | str:
        e = gamma_floor(value, prime)
        return "INF" if e is None else e

    blocks, simplexes, taus = [], [], []
    for j, k in zip(js, ks):
        blocks.append(closure_classes(exponents, j))
        nerve = pairwise_nerve(dist, blocks[-1], p**k, p ** -(j + shift))
        if nerve is None:
            return None
        taus.append(gamma_floor(nerve[0], prime))
        simplexes.append(nerve[1])
    if any(len(s) > 1 for s in blocks[-1] + simplexes[-1]):
        return None
    maps = []
    for m in range(len(js) - 1):
        kind, found = containment_bonding(
            blocks[m + 1], blocks[m], simplexes[m + 1], simplexes[m]
        )
        if kind != "map":
            return None
        maps.append(found)

    block_of = [{b[0]: b for b in level} for level in blocks]
    # a cell's support: the points of its simplex's blocks
    supports = [
        [tuple(sorted(x for v in s for x in block_of[m][v])) for s in simplexes[m]]
        for m in range(len(js))
    ]
    threads = [
        tuple(
            next(i for i, s in enumerate(simplexes[m]) if x in supports[m][i])
            for m in range(len(js))
        )
        for x in range(n)
    ]
    finite = sorted({e for row in exponents for e in row if e is not None})
    start, depth = (min(1, finite[0]), finite[-1] + 1) if finite else (1, 1)
    # the symbols' ranking moves no distance, so any labels serve
    codes = label_ranked_codes(exponents, [f"{x:06d}" for x in range(n)], start, depth)
    keys = [list(zip(range(start, depth + 1), code)) for code in codes]

    nonstretching, nondegenerate = [], []
    for m, vertex_map in enumerate(maps):
        fine = [s[0] for s in blocks[m + 1]]
        violations, merged, _, single = pairwise_nonstretching(
            fine, vertex_map, keys, keys, prime, js[m + 1]
        )
        nonstretching.append(
            {
                "from": m + 1,
                "to": m,
                "violations": [list(pair) for pair in violations],
                "merged_pairs": len(merged),
                "single_step_contraction": single,
            }
        )
        collapsed = [
            i
            for i, s in enumerate(simplexes[m + 1])
            if len(s) >= 2 and len({vertex_map[v] for v in s}) == 1
        ]
        nondegenerate.append({"from": m + 1, "to": m, "collapsed_simplexes": collapsed})
    uniformity = []
    for m, level_supports in enumerate(supports):
        separation = pairwise_separation(dist, level_supports)
        diameter = max(pairwise_diameter(dist, support) for support in level_supports)
        uniformity.append(
            {
                "level": m,
                "sup_diam": written(diameter),
                "inf_dist": None if separation is None else written(separation),
                "is_uniform": separation is None or separation > 0,
            }
        )
    _, isolation = pairwise_isolation(
        dist,
        [(p**-j, p**-tau, b, s) for j, tau, b, s in zip(js, taus, blocks, simplexes)],
    )
    rep_of = [{x: b[0] for b in level for x in b} for level in blocks]
    vertices = [[b[0] for b in level] for level in blocks]
    recovery = pairwise_limit_recovery(exponents, taus, threads)
    return {
        "schedule": {"j": js, "k": ks, "b": [j + shift for j in js]},
        "levels": [
            {
                "level": m,
                "scale": j,
                "threshold": tau,
                "vertices": vertices[m],
                "maximal_simplexes": [list(s) for s in simplexes[m]],
                "dimL": max(len(s) for s in simplexes[m]) - 1,
                "blocks": [list(b) for b in blocks[m]],
            }
            for m, (j, tau) in enumerate(zip(js, taus))
        ],
        "bonding": [
            {"from": m + 1, "to": m, "vertex_map": {str(v): w for v, w in sorted(vmap.items())}}
            for m, vmap in enumerate(maps)
        ],
        "reports": {
            "nonstretching": nonstretching,
            "nondegenerate": nondegenerate,
            "functoriality_ok": not all_pairs_functoriality(rep_of, vertices, maps),
            "uniformity": uniformity,
            "isolation_ok": not isolation,
            "isolation_violations": [list(pair) for pair in isolation],
            "reconstruct_identity": all(
                thread_preimage(simplexes, maps, supports, thread) == {x}
                for x, thread in enumerate(threads)
            ),
            "limit_isometry_ok": not recovery["mismatches"],
            "limit_isometry_mismatches": recovery["mismatches"],
            "limit_isometry_bound": recovery["bound"],
        },
    }


def pairwise_shift_invariant(exponents: list[list[int | None]]) -> bool:
    """Whether d(x + 1, y + 1) = d(x, y) for every pair, indices taken mod n.

    The library's former translation check of ``demo zp``: every entry of
    the exponent table against the entry one step along both indices.
    """
    n = len(exponents)
    return all(
        exponents[x][y] == exponents[(x + 1) % n][(y + 1) % n] for x in range(n) for y in range(n)
    )


def argparse_cli(argv: list[str]) -> tuple[str, dict]:
    """The CLI's argument grammar as argparse declares it: (command path, fields).

    The command path is the command's words, such as ``"demo zp"``, and
    the fields are the namespace's values less the command words.  Help
    and usage errors raise argparse's SystemExit.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="ultrapoly",
        description="non-Archimedean polyhedral expansions of finite ultrametric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check an input file for the ultrametric inequality")
    p_validate.add_argument("input")

    p_expand = sub.add_parser("expand", help="build and verify an expansion bundle")
    p_expand.add_argument("input")
    p_expand.add_argument("--config", default=None)
    p_expand.add_argument("--out", default=None)
    p_expand.add_argument("--prime", type=int, default=None)
    p_expand.add_argument("--precision", type=int, default=None)
    p_expand.add_argument("--stages", default=None, help="comma-separated stage list")

    p_shadow = sub.add_parser("shadow", help="shadow an expansion bundle over the reals")
    p_shadow.add_argument("bundle")
    p_shadow.add_argument("--out", default=None)
    p_shadow.add_argument("--csv", action="store_true", help="emit a theta table for plotting")

    p_demo = sub.add_parser("demo", help="built-in demonstrations")
    demo_sub = p_demo.add_subparsers(dest="demo", required=True)
    p_zp = demo_sub.add_parser("zp", help="profinite expansion of Z/p^depth")
    p_zp.add_argument("--prime", type=int, required=True)
    p_zp.add_argument("--depth", type=int, required=True)
    p_zp.add_argument("--out", default=None)
    p_zp.add_argument("--csv", action="store_true", help="emit a theta table for plotting")

    p_export = sub.add_parser("export", help="export bundle artifacts")
    export_sub = p_export.add_subparsers(dest="what", required=True)
    p_dot = export_sub.add_parser("dot", help="DOT graph per level")
    p_dot.add_argument("bundle")
    p_dot.add_argument("--out", default=None)

    fields = vars(parser.parse_args(argv))
    words = [fields.pop(key) for key in ("command", "demo", "what") if key in fields]
    return " ".join(words), fields
