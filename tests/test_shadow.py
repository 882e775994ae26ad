"""The digit-reading quotient onto [0,1] and real shadows of expansions."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

from ultrapoly import (
    GammaValue,
    PAdic,
    assemble_expansion,
    group_expansion,
    shadow_bundle,
    theta,
    theta_boundary_pairs,
    theta_nonstretch_check,
)
from ultrapoly import shadow as shadow_module
from ultrapoly.cli import main
from ultrapoly.shadow import (
    PrecisionError,
    UnitBallError,
    theta_samples,
    theta_table_csv,
)

from corpus import random_code_space
from oracles import theta_digits


# ------------------------------------------------------------------ theta

def test_theta_of_zero():
    assert theta(PAdic.zero(2, 8), 8) == 0
    assert theta(PAdic.zero(3, 8), 3) == 0


def test_theta_of_one_base_2():
    x = PAdic.from_int(1, 2, 8)
    assert theta(x, 8) == Fraction(1, 2)
    assert theta(x, 1) == Fraction(1, 2)


def test_theta_of_all_twos_base_3():
    for n in (1, 3, 6):
        x = PAdic(3, 0, (2,) * 6, 6)
        # geometric sum: sum 2*3^-(i+1) for i < n is 1 - 3^-n
        assert theta(x, n) == 1 - Fraction(1, 3**n)


def test_theta_matches_digit_formula_exhaustively():
    p, n = 3, 4
    for digits in product(range(p), repeat=n):
        x = PAdic.from_digit_stream(digits, p)
        assert theta(x, n) == theta_digits(list(digits), p, n)


def test_theta_requires_unit_ball():
    with pytest.raises(UnitBallError):
        theta(PAdic.from_fraction(Fraction(1, 3), 3, 6), 4)


def test_theta_respects_known_window():
    x = PAdic.from_digit_stream((0, 1, 2), 3)
    assert theta(x, 3) == theta_digits([0, 1, 2], 3, 3)
    with pytest.raises(PrecisionError):
        theta(x, 4)


def test_theta_monotone_in_digit_order():
    # lexicographic digit order maps to <= on [0,1], checked exhaustively
    for p, n in ((2, 10), (3, 7), (5, 5)):
        assert p**n <= 10**4
        prev = None
        for digits in product(range(p), repeat=n):
            value = theta(PAdic.from_digit_stream(digits, p), n)
            if prev is not None:
                assert prev <= value
            prev = value


def test_theta_surjective_onto_grid():
    p, n = 3, 6
    for k in range(p**n + 1):
        if k == p**n:
            digits = (p - 1,) * n  # 1 itself is approached by the top stream
            assert theta(PAdic.from_digit_stream(digits, p), n) == 1 - Fraction(1, p**n)
            continue
        digits = []
        rem = k
        for _ in range(n):
            rem, d = divmod(rem, p)
            digits.append(d)
        digits = tuple(reversed(digits))
        assert theta(PAdic.from_digit_stream(digits, p), n) == Fraction(k, p**n)


# --------------------------------------------------------- non-stretching

def test_nonstretch_equal_points():
    x = PAdic.from_int(5, 2, 6)
    assert theta_nonstretch_check([(x, x)], 6) == []


def test_nonstretch_first_difference_at_two():
    x = PAdic.from_digit_stream((1, 0, 1, 1), 2)
    y = PAdic.from_digit_stream((1, 0, 0, 1), 2)
    assert (x - y).norm() == GammaValue(2)
    assert abs(theta(x, 4) - theta(y, 4)) <= Fraction(1, 4)
    assert theta_nonstretch_check([(x, y)], 4) == []


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    data=st.data(),
)
def test_nonstretch_property_on_random_streams(p, data):
    n = data.draw(st.integers(2, 6))
    stream_x = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    stream_y = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    x = PAdic.from_digit_stream(stream_x, p)
    y = PAdic.from_digit_stream(stream_y, p)
    assert theta_nonstretch_check([(x, y)], n) == []


def test_nonstretch_exhaustive_3digit_3adic():
    points = [PAdic.from_digit_stream(d, 3) for d in product(range(3), repeat=3)]
    pairs = [(x, y) for x in points for y in points]
    assert len(pairs) == 27**2
    assert theta_nonstretch_check(pairs, 3) == []


# --------------------------------------------------------- boundary pairs

def test_boundary_pair_base_2():
    pairs = theta_boundary_pairs(2, 4)
    wanted = [
        (tuple(bp.low.digit_at(i) for i in range(4)), tuple(bp.high.digit_at(i) for i in range(4)))
        for bp in pairs
    ]
    assert ((1, 0, 1, 1), (1, 1, 0, 0)) in wanted
    for bp in pairs:
        assert bp.gap == Fraction(1, 16)
    low = PAdic.from_digit_stream((1, 0, 1, 1), 2)
    high = PAdic.from_digit_stream((1, 1, 0, 0), 2)
    assert theta(low, 4) == Fraction(11, 16)
    assert theta(high, 4) == Fraction(12, 16)


def test_boundary_pair_base_3():
    low = PAdic.from_digit_stream((0, 2, 2, 2), 3)
    high = PAdic.from_digit_stream((1, 0, 0, 0), 3)
    assert theta(high, 4) - theta(low, 4) == Fraction(1, 81)
    pairs = theta_boundary_pairs(3, 4)
    assert any(bp.low == low and bp.high == high for bp in pairs)


def test_boundary_pairs_match_enumeration_oracle():
    # oracle: enumerate every digit stream ending in p-1, split it at the
    # last non-(p-1) digit, and build the successor by hand
    for p, n in ((2, 6), (3, 5), (5, 3)):
        assert p**n <= 10**4
        expected = set()
        for digits in product(range(p), repeat=n):
            if digits[-1] != p - 1:
                continue
            t = max(i for i in range(n) if digits[i] != p - 1) if any(
                d != p - 1 for d in digits
            ) else None
            if t is None:
                continue  # all p-1: successor would leave the unit interval
            if any(digits[i] != p - 1 for i in range(t + 1, n)):
                continue  # not a pure tail
            successor = digits[:t] + (digits[t] + 1,) + (0,) * (n - t - 1)
            expected.add((digits, successor))
        got = {
            (
                tuple(bp.low.digit_at(i) for i in range(n)),
                tuple(bp.high.digit_at(i) for i in range(n)),
            )
            for bp in theta_boundary_pairs(p, n)
        }
        assert got == expected
        assert len(got) == p ** (n - 1) - 1


def test_boundary_pairs_need_two_digits():
    with pytest.raises(ValueError):
        theta_boundary_pairs(2, 1)


# ----------------------------------------------------------------- shadows

def _shadow(expansion) -> dict:
    return shadow_bundle(expansion.to_bundle())


def _vertex_map(shadow_map: dict) -> dict[int, int]:
    return {int(v): w for v, w in shadow_map["vertex_map"].items()}


def _has_face(shadow_level: dict, vs) -> bool:
    face = set(vs)
    return any(face <= set(cell) for cell in shadow_level["maximal_simplexes"])


def test_discrete_nerve_shadows_to_points():
    space = random_code_space(random.Random(1), 2, 6)
    finest = _shadow(assemble_expansion(space))["levels"][-1]
    assert all(dim == 0 for dim in finest["dimR_per_simplex"])
    assert finest["dimR"] == 0


def test_three_vertex_simplex_shadows_to_dim_two():
    from ultrapoly import build_nerve, residue_space, scale_cover

    space = residue_space(3, 1)
    cover = scale_cover(space, 1)  # three singleton blocks
    nerve = build_nerve(space, cover, k=0, b=GammaValue(0))  # one 3-vertex simplex
    bundle = {"schedule": {}, "levels": [nerve.to_json()], "bonding": []}
    shadow = shadow_bundle(bundle)["levels"][0]
    assert shadow["maximal_simplexes"] == [[0, 1, 2]]
    assert shadow["dimR_per_simplex"] == [2]
    assert shadow["dimR"] == 2


def test_shadow_dimensions_match_sources_everywhere():
    rng = random.Random(2)
    for p in (2, 3, 5):
        space = random_code_space(rng, p, 18)
        expansion = assemble_expansion(space)
        shadow = _shadow(expansion)
        assert shadow["reports"]["dim_preserved"]
        for level, shadow_level in zip(expansion.levels, shadow["levels"]):
            assert shadow_level["level"] == level.m
            assert shadow_level["vertices"] == list(level.nerve.vertices)
            cells = shadow_level["maximal_simplexes"]
            assert cells == [list(s) for s in level.nerve.maximal_simplexes]
            assert shadow_level["dimR_per_simplex"] == [len(s) - 1 for s in cells]
            assert shadow_level["dimR"] == level.nerve.dim_l
            # face poset: same maximal cells, so same implicit faces
            for s in level.nerve.maximal_simplexes:
                assert _has_face(shadow_level, s)
                assert _has_face(shadow_level, s[:1])


# ---------------------------------------------------------- shadow bonding

def test_shadow_bonding_mirrors_z9_reduction():
    expansion, _ = group_expansion(3, 2)
    maps = _shadow(expansion)["bonding"]
    assert _vertex_map(maps[1]) == {v: v % 3 for v in range(9)}
    assert maps[1]["affine"]


def test_shadow_bonding_functoriality_three_levels():
    expansion, _ = group_expansion(2, 2)
    shadow = _shadow(expansion)
    fine_to_mid, mid_to_coarse = (_vertex_map(m) for m in reversed(shadow["bonding"]))
    two_step = {v: mid_to_coarse[fine_to_mid[v]] for v in shadow["levels"][2]["vertices"]}
    direct = {v: expansion.levels[0].cover.rep_of[v] for v in expansion.levels[2].nerve.vertices}
    assert two_step == direct


# ----------------------------------------------------------------- bundles

def test_shadow_bundle_mirrors_expansion_bundle():
    expansion, _ = group_expansion(3, 2)
    bundle = expansion.to_bundle()
    bundle["space"]["padic_points"] = [
        [int(label) % 3, int(label) // 3] for label in expansion.space.labels
    ]
    shadow = shadow_bundle(bundle)
    assert shadow["reports"]["dim_preserved"]
    assert [lvl["dimR"] for lvl in shadow["levels"]] == [
        lvl["dimL"] for lvl in bundle["levels"]
    ]
    samples = {s["label"]: s["theta"] for s in shadow["theta_samples"]}
    assert samples["0"] == "0/1"
    assert theta_digits([1, 1], 3, 2) == Fraction(4, 9)  # digits of 4 base 3
    assert samples["4"] == "4/9"


def test_theta_samples_exact_values():
    expansion, _ = group_expansion(2, 3)
    bundle = expansion.to_bundle()
    bundle["space"]["padic_points"] = [
        [(int(l) >> i) & 1 for i in range(3)] for l in expansion.space.labels
    ]
    shadow = shadow_bundle(bundle)
    samples = {s["label"]: s["theta"] for s in shadow["theta_samples"]}
    # residue r with bits (b0,b1,b2) reads as b0/2 + b1/4 + b2/8
    assert samples["1"] == "1/2"
    assert samples["6"] == "3/8"  # bits (0,1,1) -> 1/4 + 1/8


def _streams(p: int):
    """Digit streams in base p: any digits, leading zeros, or only zeros."""
    digits = st.lists(st.integers(0, p - 1), min_size=1, max_size=8)
    return st.one_of(
        digits,
        st.builds(lambda zeros, rest: [0] * zeros + rest, st.integers(1, 4), digits),
        st.integers(1, 8).map(lambda n: [0] * n),
    )


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_theta_samples_are_theta_on_the_streams(p, data):
    streams = data.draw(st.lists(_streams(p), min_size=1, max_size=6))
    labels = [f"x{i}" for i in range(len(streams))]
    for sample, label, stream in zip(theta_samples(streams, labels, p), labels, streams):
        value = theta(PAdic.from_digit_stream(stream, p), len(stream))
        assert sample == {
            "label": label,
            "digits": stream,
            "theta": f"{value.numerator}/{value.denominator}",
        }


@pytest.mark.parametrize("stream", [[], [0, 3], [-1, 0], [1, 2, 5]])
def test_theta_samples_refuse_what_the_digit_reader_refuses(tmp_path, capsys, stream):
    with pytest.raises(ValueError) as expected:
        PAdic.from_digit_stream(stream, 3)
    with pytest.raises(ValueError) as got:
        theta_samples([[0, 1], stream], ["a", "b"], 3)
    assert str(got.value) == str(expected.value)
    # the shadow command exits 2 with that text
    assert main(["demo", "zp", "--prime", "3", "--depth", "1", "--out", str(tmp_path)]) == 0
    bundle = json.loads((tmp_path / "expansion.json").read_text())
    bundle["space"]["padic_points"][1] = stream
    (tmp_path / "bad.json").write_text(json.dumps(bundle))
    capsys.readouterr()
    assert main(["shadow", str(tmp_path / "bad.json"), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == f"error: {expected.value}\n"


def test_theta_table_is_a_view_of_the_samples():
    streams = [[1, 0, 1], [0, 0, 0], [2, 2, 1]]
    samples = theta_samples(streams, ["a", "b", "c"], 3)
    rows = theta_table_csv(samples).splitlines()
    assert rows[0] == "digits,theta_num,theta_den"
    for row, stream in zip(rows[1:], streams):
        value = theta_digits(stream, 3, 3)
        assert row == f"{':'.join(map(str, stream))},{value.numerator},{value.denominator}"


def test_shadow_csv_reads_each_stream_once(tmp_path, monkeypatch, capsys):
    assert main(["demo", "zp", "--prime", "3", "--depth", "3", "--out", str(tmp_path)]) == 0
    demo_shadow = (tmp_path / "shadow.json").read_text()
    reads = []
    samples = shadow_module.theta_samples

    def counting_samples(padic_points, labels, p):
        reads.extend(map(tuple, padic_points))
        return samples(padic_points, labels, p)

    def no_padic(cls, stream, p):
        raise AssertionError("the shadow builds no PAdic")

    monkeypatch.setattr(shadow_module, "theta_samples", counting_samples)
    monkeypatch.setattr(PAdic, "from_digit_stream", classmethod(no_padic))
    out = tmp_path / "shadow"
    assert main(["shadow", str(tmp_path / "expansion.json"), "--csv", "--out", str(out)]) == 0
    assert len(reads) == len(set(reads)) == 27
    assert (out / "shadow.json").read_text() == demo_shadow
    rows = (out / "theta.csv").read_text().splitlines()
    assert len(rows) == 28 and rows[1] == "0:0:0,0,1"
