"""Validation, closure, rounding, quotient, coding, and the exact embedding."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrapoly import (
    GAMMA_ZERO,
    AsymmetricMatrixError,
    GammaValue,
    NegativeDistanceError,
    NonzeroDiagonalError,
    NotUltrametricError,
    PAdic,
    UltraSpace,
    UnseparatedSpaceError,
    baire_encode,
    c0_embed,
    quotient_zero,
    round_space,
    space_from_points,
    subdominant_closure,
    validate_ultrametric,
)
from ultrapoly import spaces
from ultrapoly.spaces import Violations

from corpus import random_code_space
from oracles import (
    closure_classes,
    first_difference,
    floyd_warshall_closure,
    fraction_violation_masks,
    gamma_floor,
    minimax_paths,
    sparse_vector_distance,
    violating_triples,
)


# ------------------------------------------------------------- validation

def test_violating_triangle_is_reported():
    labels = ["a", "b", "c"]
    matrix = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert validate_ultrametric(labels, matrix) == [(0, 1, 2)]


def test_equilateral_is_ultrametric():
    labels = ["a", "b", "c", "d"]
    matrix = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    assert validate_ultrametric(labels, matrix) == []


def test_padic_distances_are_ultrametric():
    rng = random.Random(7)
    points = [
        PAdic.from_int(rng.randrange(1, 3**6), 3, 8) for _ in range(5)
    ]
    space = space_from_points(points)
    matrix = [
        [space.dist[i][j].as_fraction(3) for j in range(5)] for i in range(5)
    ]
    assert validate_ultrametric(list(space.labels), matrix) == []


def test_malformed_matrices_raise_distinct_errors():
    with pytest.raises(AsymmetricMatrixError):
        validate_ultrametric(["a", "b"], [[0, 1], [2, 0]])
    with pytest.raises(NegativeDistanceError):
        validate_ultrametric(["a", "b"], [[0, -1], [-1, 0]])
    with pytest.raises(NonzeroDiagonalError):
        validate_ultrametric(["a", "b"], [[1, 1], [1, 0]])


# -------------------------------------------------------------- closure

def test_closure_of_flat_triangle():
    closed = subdominant_closure([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert closed == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_closure_fixes_ultrametrics():
    matrix = [[Fraction(0), Fraction(1, 2)], [Fraction(1, 2), Fraction(0)]]
    assert subdominant_closure(matrix) == matrix


def test_closure_shrinks_long_edge_to_minimax():
    matrix = [
        [0, Fraction(1, 10), Fraction(9, 10)],
        [Fraction(1, 10), 0, Fraction(2, 10)],
        [Fraction(9, 10), Fraction(2, 10), 0],
    ]
    closed = subdominant_closure(matrix)
    assert closed[0][2] == Fraction(2, 10)


def _random_symmetric(rng, n):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = Fraction(rng.randrange(1, 40), rng.randrange(1, 12))
    return m


def test_closure_matches_minimax_path_oracle():
    rng = random.Random(23)
    for n in (3, 4, 5, 6):
        for _ in range(8):
            matrix = _random_symmetric(rng, n)
            closed = subdominant_closure(matrix)
            assert closed == minimax_paths(matrix)
            # maximal ultrametric below the input
            assert validate_ultrametric([str(i) for i in range(n)], closed) == []
            assert all(
                closed[i][j] <= matrix[i][j] for i in range(n) for j in range(n)
            )
            assert subdominant_closure(closed) == closed


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(3, 5))
def test_closure_is_monotone(data, n):
    entries = st.integers(1, 30)
    d1 = [[Fraction(0)] * n for _ in range(n)]
    d2 = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lo = data.draw(entries)
            hi = lo + data.draw(st.integers(0, 10))
            d1[i][j] = d1[j][i] = Fraction(lo, 7)
            d2[i][j] = d2[j][i] = Fraction(hi, 7)
    c1, c2 = subdominant_closure(d1), subdominant_closure(d2)
    assert all(c1[i][j] <= c2[i][j] for i in range(n) for j in range(n))


# ------------------------------------------- ingest kernels vs oracles

@st.composite
def dissimilarity_matrices(draw):
    """Symmetric matrices over a small value pool, so ties and zeros are common."""
    n = draw(st.integers(1, 16))
    pool = draw(
        st.lists(st.fractions(min_value=0, max_value=3, max_denominator=6), min_size=1, max_size=6)
    )
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(st.sampled_from(pool))
    return m


@settings(max_examples=150, deadline=None)
@given(matrix=dissimilarity_matrices(), p=st.sampled_from([2, 3, 5]))
def test_ingest_kernels_match_oracles(matrix, p):
    n = len(matrix)
    labels = [f"v{i}" for i in range(n)]
    brute = violating_triples(matrix)
    found = validate_ultrametric(labels, matrix)
    assert found == brute
    assert list(found) == brute
    assert len(found) == len(brute)
    assert [found[t] for t in range(len(found))] == brute
    if brute:
        assert found[0] == brute[0] and found[-1] == brute[-1]
        with pytest.raises(NotUltrametricError) as err:
            round_space(labels, matrix, p)
        assert err.value.triple == brute[0]

    closed = subdominant_closure(matrix)
    assert closed == floyd_warshall_closure(matrix)
    if n <= 6:
        assert closed == minimax_paths(matrix)
    assert validate_ultrametric(labels, closed) == []
    space = round_space(labels, closed, p)
    for i in range(n):
        for j in range(n):
            assert space.dist[i][j].exponent == gamma_floor(closed[i][j], p)


# two primes near 2^61 and 2^89 and one near 10^9: coprime denominators whose
# lcm over a row is far wider than any entry
LARGE_PRIMES = (2**61 - 1, 2**89 - 1, 10**9 + 7)


@st.composite
def written_matrices(draw):
    """Symmetric matrices of few values, each entry written in one of several exact forms."""
    n = draw(st.integers(1, 8))
    den = st.one_of(st.integers(1, 12), st.sampled_from(LARGE_PRIMES))
    pool = draw(
        st.lists(
            st.builds(Fraction, st.integers(0, 3 * 2**89), den),
            min_size=1,
            max_size=5,
        )
    )
    pool += [Fraction(0), Fraction(1, 2)]

    def written(value: Fraction):
        forms = [value, f"{value.numerator}/{value.denominator}"]
        forms.append(f"{3 * value.numerator}/{3 * value.denominator}")  # not in lowest terms
        if 1000 % value.denominator == 0:
            thousandths = value.numerator * (1000 // value.denominator)
            forms.append(f"{thousandths // 1000}.{thousandths % 1000:03d}")  # "0.500"
        if value.denominator == 1:
            forms.append(value.numerator)
        return draw(st.sampled_from(forms))

    m = [[written(Fraction(0)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = draw(st.sampled_from(pool))
            m[i][j], m[j][i] = written(value), written(value)
    return m


@settings(max_examples=200, deadline=None)
@given(matrix=written_matrices())
def test_integer_keys_match_the_fraction_route(matrix):
    rows = [[Fraction(entry) for entry in row] for row in matrix]
    masks = fraction_violation_masks(rows)
    assert spaces._violation_masks(rows) == masks
    found = validate_ultrametric([f"v{i}" for i in range(len(matrix))], matrix)
    assert found == Violations(masks)
    assert list(found) == violating_triples(rows)


def test_integer_keys_tie_equal_values_written_differently():
    for row in (
        [Fraction("1/2"), Fraction("0.5"), Fraction(2, 4)],
        [Fraction(0), Fraction("0/7"), Fraction("0.0")],
        [Fraction(1, 2**61 - 1), Fraction(3, 3 * (2**61 - 1))],
    ):
        assert len(set(spaces._integer_keys(row))) == 1
    keys = spaces._integer_keys([Fraction(1, 2**61 - 1), Fraction(1, 2**89 - 1), Fraction(0)])
    assert keys[2] < keys[1] < keys[0]


def test_closure_at_scale_is_ultrametric_and_idempotent():
    rng = random.Random(192)
    matrix = _random_symmetric(rng, 192)
    closed = subdominant_closure(matrix)
    assert len(validate_ultrametric([str(i) for i in range(192)], closed)) == 0
    assert subdominant_closure(closed) == closed


# -------------------------------------------------------------- rounding

def test_round_space_entrywise():
    labels = ["a", "b", "c"]
    matrix = [
        [0, Fraction(7, 10), Fraction(7, 10)],
        [Fraction(7, 10), 0, Fraction(3, 10)],
        [Fraction(7, 10), Fraction(3, 10), 0],
    ]
    space = round_space(labels, matrix, 2)
    assert space.dist[0][1] == GammaValue(1)
    assert space.dist[1][2] == GammaValue(2)
    assert space.dist[0][2] == GammaValue(1)
    for i in range(3):
        for j in range(3):
            if i != j:
                rounded = space.dist[i][j].as_fraction(2)
                assert rounded <= matrix[i][j] <= 2 * rounded


def test_round_space_fixes_value_group_entries():
    matrix = [[0, Fraction(1, 9)], [Fraction(1, 9), 0]]
    space = round_space(["a", "b"], matrix, 3)
    assert space.dist[0][1] == GammaValue(2)


def test_round_space_single_point():
    space = round_space(["only"], [[0]], 5)
    assert space.n_points == 1
    assert space.dist[0][0].is_zero


def test_round_space_rejects_non_ultrametric():
    with pytest.raises(NotUltrametricError):
        round_space(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]], 2)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_space_preserves_ultrametric_property(data):
    # dendrogram-valued ultrametric with arbitrary rational level values:
    # rounding is monotone so the rounded matrix must validate again
    p = data.draw(st.sampled_from([2, 3, 5]))
    depth = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(2, 8))
    codes = data.draw(
        st.lists(
            st.tuples(*[st.integers(0, 2) for _ in range(depth)]),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    nums = data.draw(
        st.lists(st.integers(1, 60), min_size=depth, max_size=depth, unique=True)
    )
    values = sorted((Fraction(v, 7) for v in nums), reverse=True)  # strictly shrinking
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            level = next(
                (t for t in range(depth) if codes[i][t] != codes[j][t]), None
            )
            d = values[level] if level is not None else values[-1]
            matrix[i][j] = matrix[j][i] = d
    labels = [f"q{i}" for i in range(n)]
    assert validate_ultrametric(labels, matrix) == []
    space = round_space(labels, matrix, p)  # construction re-validates
    for i in range(n):
        for j in range(n):
            if i != j:
                rounded = space.dist[i][j].as_fraction(p)
                assert rounded <= matrix[i][j] <= p * rounded


# -------------------------------------------------------------- quotient

def _space_with_zero_pair():
    dist = (
        (GAMMA_ZERO, GAMMA_ZERO, GammaValue(1)),
        (GAMMA_ZERO, GAMMA_ZERO, GammaValue(1)),
        (GammaValue(1), GammaValue(1), GAMMA_ZERO),
    )
    return UltraSpace(labels=("a", "b", "c"), prime=2, dist=dist)


def test_quotient_merges_identical_points():
    merged, report = quotient_zero(_space_with_zero_pair())
    assert merged.labels == ("a", "c")
    assert report == {"b": "a"}
    assert merged.is_separated
    assert merged == UltraSpace(
        labels=("a", "c"),
        prime=2,
        dist=((GAMMA_ZERO, GammaValue(1)), (GammaValue(1), GAMMA_ZERO)),
    )
    assert merged.tree.exponents == ((None, 1), (1, None))


def test_quotient_is_identity_without_zero_pairs():
    space = random_code_space(random.Random(5), 3, 6)
    merged, report = quotient_zero(space)
    assert merged.labels == space.labels
    assert report == {}
    assert merged is space  # a separated space is not rebuilt


def test_to_json_writes_each_distance_as_its_gamma_value():
    for space in (_space_with_zero_pair(), random_code_space(random.Random(7), 3, 9)):
        expected = [[d.to_json() for d in row] for row in space.dist]
        assert space.to_json()["gamma_matrix"] == expected


def test_quotient_collapses_zero_classes():
    n = 3
    dist = tuple(tuple(GAMMA_ZERO for _ in range(n)) for _ in range(n))
    space = UltraSpace(labels=("a", "b", "c"), prime=2, dist=dist)
    exponents = [[None] * n for _ in range(n)]
    assert closure_classes(exponents, 10) == [(0, 1, 2)]
    merged, report = quotient_zero(space)
    assert merged.n_points == 1
    assert report == {"b": "a", "c": "a"}


def test_quotient_commutes_with_rounding():
    labels = ["a", "b", "c"]
    raw = [
        [0, 0, Fraction(3, 4)],
        [0, 0, Fraction(3, 4)],
        [Fraction(3, 4), Fraction(3, 4), 0],
    ]
    rounded_first, _ = quotient_zero(round_space(labels, raw, 2))
    merged_labels = ["a", "c"]
    merged_raw = [[0, Fraction(3, 4)], [Fraction(3, 4), 0]]
    quotient_first = round_space(merged_labels, merged_raw, 2)
    assert rounded_first.labels == quotient_first.labels
    assert rounded_first.dist == quotient_first.dist


# ----------------------------------------------------------- Baire codes

def test_two_points_differ_at_position_one():
    dist = ((GAMMA_ZERO, GammaValue(1)), (GammaValue(1), GAMMA_ZERO))
    space = UltraSpace(labels=("x", "y"), prime=5, dist=dist)
    codes = baire_encode(space)
    assert codes.first_difference(0, 1) == 1


def test_single_point_code():
    space = UltraSpace(labels=("only",), prime=3, dist=((GAMMA_ZERO,),))
    codes = baire_encode(space)
    assert len(codes.codes) == 1


def _four_point_space():
    # pairs (a,b) and (c,d) at 3^-2, everything across at 3^-1
    e = [[None, 2, 1, 1], [2, None, 1, 1], [1, 1, None, 2], [1, 1, 2, None]]
    dist = tuple(
        tuple(GAMMA_ZERO if x is None else GammaValue(x) for x in row) for row in e
    )
    return UltraSpace(labels=("a", "b", "c", "d"), prime=3, dist=dist)


def test_first_difference_recovers_distance():
    space = _four_point_space()
    codes = baire_encode(space)
    n = space.n_points
    for i in range(n):
        for j in range(i + 1, n):
            pos = first_difference(
                list(codes.codes[i]), list(codes.codes[j]), codes.start
            )
            assert pos == space.dist[i][j].exponent


def test_encode_requires_separation():
    with pytest.raises(UnseparatedSpaceError):
        baire_encode(_space_with_zero_pair())


# ------------------------------------------------------------- embedding

def test_codes_differing_at_position_two():
    e = [[None, 2], [2, None]]
    dist = tuple(
        tuple(GAMMA_ZERO if x is None else GammaValue(x) for x in row) for row in e
    )
    space = UltraSpace(labels=("x", "y"), prime=5, dist=dist)
    vectors = c0_embed(baire_encode(space))
    assert vectors[0].distance(vectors[1]) == GammaValue(2)
    assert vectors[0].distance(vectors[1]).as_fraction(5) == Fraction(1, 25)


def test_identical_codes_have_distance_zero():
    space = UltraSpace(labels=("only",), prime=3, dist=((GAMMA_ZERO,),))
    vectors = c0_embed(baire_encode(space))
    assert vectors[0].distance(vectors[0]).is_zero


def test_four_point_embedding_reproduces_matrix():
    space = _four_point_space()
    vectors = c0_embed(baire_encode(space))
    n = space.n_points
    for i in range(n):
        for j in range(n):
            assert vectors[i].distance(vectors[j]) == space.dist[i][j]
            # second route: explicit fraction coefficients
            assert sparse_vector_distance(
                list(vectors[i].keys), list(vectors[j].keys), 3
            ) == space.dist[i][j].as_fraction(3)


def test_roundtrip_isometry_up_to_64_points():
    rng = random.Random(11)
    for p, n in ((2, 64), (3, 33), (5, 17), (2, 2), (3, 1)):
        space = random_code_space(rng, p, n)
        vectors = c0_embed(baire_encode(space))
        for i in range(n):
            for j in range(n):
                assert vectors[i].distance(vectors[j]) == space.dist[i][j]


def test_roundtrip_isometry_with_large_distances():
    # exponents may be <= 0 (distances >= 1); code positions extend leftward
    e = [[None, 0, -1], [0, None, -1], [-1, -1, None]]
    dist = tuple(
        tuple(GAMMA_ZERO if x is None else GammaValue(x) for x in row) for row in e
    )
    space = UltraSpace(labels=("a", "b", "c"), prime=2, dist=dist)
    codes = baire_encode(space)
    assert codes.start == -1
    vectors = c0_embed(codes)
    for i in range(3):
        for j in range(3):
            assert vectors[i].distance(vectors[j]) == space.dist[i][j]


# ---------------------------------------------------------- construction

@st.composite
def code_spaces(draw, max_points=12):
    p = draw(st.sampled_from([2, 3, 5]))
    depth = draw(st.integers(2, 5))
    n = draw(st.integers(1, min(max_points, p**depth)))
    codes = draw(
        st.lists(
            st.tuples(*[st.integers(0, p - 1) for _ in range(depth)]),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    dist = [[GAMMA_ZERO for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = next(t for t in range(depth) if codes[i][t] != codes[j][t])
            dist[i][j] = dist[j][i] = GammaValue(e)
    return UltraSpace(
        labels=tuple(f"q{i}" for i in range(n)),
        prime=p,
        dist=tuple(tuple(row) for row in dist),
    )


@settings(max_examples=80, deadline=None)
@given(space=code_spaces())
def test_embedding_isometry_property(space):
    vectors = c0_embed(baire_encode(space))
    n = space.n_points
    for i in range(n):
        for j in range(n):
            assert vectors[i].distance(vectors[j]) == space.dist[i][j]


@settings(max_examples=60, deadline=None)
@given(space=code_spaces())
def test_baire_prefix_property(space):
    codes = baire_encode(space)
    n = space.n_points
    for i in range(n):
        for j in range(i + 1, n):
            assert codes.first_difference(i, j) == space.dist[i][j].exponent


def test_space_rejects_ultrametric_violation():
    with pytest.raises(NotUltrametricError) as err:
        UltraSpace(
            labels=("a", "b", "c"),
            prime=2,
            dist=(
                (GAMMA_ZERO, GammaValue(2), GammaValue(1)),
                (GammaValue(2), GAMMA_ZERO, GammaValue(2)),
                (GammaValue(1), GammaValue(2), GAMMA_ZERO),
            ),
        )
    assert err.value.triple == (0, 1, 2)


def test_space_rejects_zero_legs_forcing_zero():
    # two zero distances force the third to vanish
    with pytest.raises(NotUltrametricError):
        UltraSpace(
            labels=("a", "b", "c"),
            prime=2,
            dist=(
                (GAMMA_ZERO, GAMMA_ZERO, GammaValue(5)),
                (GAMMA_ZERO, GAMMA_ZERO, GAMMA_ZERO),
                (GammaValue(5), GAMMA_ZERO, GAMMA_ZERO),
            ),
        )


def test_space_json_roundtrip():
    space = _four_point_space()
    assert UltraSpace.from_json(space.to_json()) == space
    assert space.to_json()["gamma_matrix"][0][0] == "INF"
