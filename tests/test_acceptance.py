"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints one PASS line with its runtime; every tolerance is zero
(integer or rational equality) and every runtime limit is asserted.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

from ultrapoly import (
    GammaValue,
    PAdic,
    Schedule,
    assemble_expansion,
    baire_encode,
    c0_embed,
    group_expansion,
    limit_isometry_check,
    round_to_gamma,
    scale_cover,
    shadow_bundle,
    theta,
    theta_boundary_pairs,
    theta_nonstretch_check,
    verify_nonstretching,
)

from corpus import corpus_spaces, planted_outlier_space
from oracles import closure_classes

_CACHE: dict = {}


def _corpus():
    if "spaces" not in _CACHE:
        _CACHE["spaces"] = corpus_spaces()
    return _CACHE["spaces"]


def _default_expansions():
    if "expansions" not in _CACHE:
        _CACHE["expansions"] = [assemble_expansion(s) for s in _corpus()]
    return _CACHE["expansions"]


def _report(number, name, elapsed, limit):
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s, limit {limit}s)")
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_value_group_rounding_sandwich():
    start = time.perf_counter()
    rng = random.Random(1201)
    for p in (2, 3, 5):
        for _ in range(1000):
            r = Fraction(rng.randrange(1, 10**9), rng.randrange(1, 10**9))
            g = round_to_gamma(r, p)
            value = g.as_fraction(p)
            assert value <= r <= p * value
    _report(1, "rounding sandwich", time.perf_counter() - start, 1)


def test_criterion_2_embedding_isometry():
    spaces = _corpus()
    start = time.perf_counter()
    assert len(spaces) == 100
    assert all(s.n_points <= 64 for s in spaces)
    for space in spaces:
        vectors = c0_embed(baire_encode(space))
        n = space.n_points
        for i in range(n):
            for j in range(i + 1, n):
                assert vectors[i].distance(vectors[j]) == space.dist[i][j]
    _report(2, "embedding isometry", time.perf_counter() - start, 10)


def test_criterion_3_partitions_match_closure_oracle():
    from ultrapoly import cover_tower

    spaces = _corpus()
    start = time.perf_counter()
    for space in spaces:
        n = space.n_points
        expo = [[space.dist[i][j].exponent for j in range(n)] for i in range(n)]
        exps = space.finite_exponents()
        lo = min(0, exps[0]) if exps else 0
        hi = (exps[-1] + 1) if exps else 1
        tower = cover_tower(space, lo, hi)  # verifies nestedness internally
        previous = None
        for j, cover in zip(range(lo, hi + 1), tower):
            assert scale_cover(space, j).blocks == cover.blocks
            assert list(cover.blocks) == closure_classes(expo, j)
            if previous is not None:
                for block in cover.blocks:
                    parents = [c for c in previous.blocks if set(block) <= set(c)]
                    assert len(parents) == 1
            previous = cover
    _report(3, "ball partitions and nested towers", time.perf_counter() - start, 10)


def test_criterion_4_inverse_system_contracts():
    spaces = _corpus()
    start = time.perf_counter()
    expansions = _default_expansions()
    for space, expansion in zip(spaces, expansions):
        for m, bmap in enumerate(expansion.bonding):
            fine, coarse = expansion.levels[m + 1], expansion.levels[m]
            # simplex containment, rechecked against the coarse complex
            # a simplex's image is its vertices' images
            for s in fine.nerve.maximal_simplexes:
                image = {bmap.vertex_map[v] for v in s}
                container = coarse.nerve.simplex_of[min(image)]
                assert image <= set(coarse.nerve.maximal_simplexes[container])
            assert verify_nonstretching(bmap, fine, coarse)["violations"] == []
        assert expansion.verify_functoriality() == []
        for x in range(space.n_points):
            assert expansion.reconstruct(expansion.thread(x)) == frozenset({x})
        assert limit_isometry_check(space, expansion)["mismatches"] == []
    _report(4, "inverse system contracts", time.perf_counter() - start, 30)


def test_criterion_5_profinite_demo():
    start = time.perf_counter()
    expansion, report = group_expansion(3, 4)
    counts = [len(level.cover.blocks) for level in expansion.levels]
    assert counts == [1, 3, 9, 27, 81]
    assert report["block_counts_ok"]
    assert report["bonding_is_mod_reduction"]
    for m in range(expansion.depth - 1):
        modulus = 3 ** expansion.levels[m].cover.level
        for v, w in expansion.bonding[m].vertex_map.items():
            assert w == v % modulus
    assert report["translation_invariant"]
    _report(5, "profinite residue demo", time.perf_counter() - start, 5)


def test_criterion_6_interval_shadow():
    start = time.perf_counter()
    # monotone and non-stretching over all pairs of 3-digit integers
    for p in (2, 3):
        streams = list(product(range(p), repeat=3))
        points = [PAdic.from_digit_stream(s, p) for s in streams]
        values = [theta(x, 3) for x in points]
        for a in range(len(streams)):
            for b in range(a + 1, len(streams)):
                assert values[a] < values[b]  # lex order -> strict real order
        pairs = [(x, y) for x in points for y in points]
        assert theta_nonstretch_check(pairs, 3) == []
    # boundary pairs: gap exactly p^-n
    for p, n in ((2, 6), (3, 4), (5, 3)):
        for bp in theta_boundary_pairs(p, n):
            assert bp.gap == Fraction(1, p**n)
    # shadows preserve the face poset and every dimension
    expansions = list(_default_expansions())
    for space in _corpus()[::5]:
        exps = space.finite_exponents()
        if not exps:
            continue
        js = tuple(range(min(0, exps[0]), exps[-1] + 3))
        schedule = Schedule(
            j=js, k=tuple(1 for _ in js), b=tuple(GammaValue(j) for j in js)
        )
        expansions.append(assemble_expansion(space, schedule))
    for expansion in expansions:
        shadow = shadow_bundle(expansion.to_bundle())
        for level, shadow_level in zip(expansion.levels, shadow["levels"]):
            assert shadow_level["vertices"] == list(level.nerve.vertices)
            cells = shadow_level["maximal_simplexes"]
            # same face poset, cell by cell, and dimR = dimL
            assert cells == [list(s) for s in level.nerve.maximal_simplexes]
            assert shadow_level["dimR_per_simplex"] == [len(s) - 1 for s in cells]
        for bmap, smap in zip(expansion.bonding, shadow["bonding"]):
            assert {int(v): w for v, w in smap["vertex_map"].items()} == bmap.vertex_map
    _report(6, "interval shadow", time.perf_counter() - start, 10)


def test_criterion_7_outlier_degeneration():
    start = time.perf_counter()
    rng = random.Random(777)
    from ultrapoly import isolated_point_check

    for case in range(50):
        p = (2, 3, 5)[case % 3]
        space, outlier = planted_outlier_space(rng, p, rng.randrange(4, 14))
        expansion = assemble_expansion(space)
        report = isolated_point_check(
            space, [(lv.cover, lv.nerve) for lv in expansion.levels]
        )
        assert report["violations"] == []
        threshold_level = report["first_level"][outlier]
        assert threshold_level is not None
        for m in range(threshold_level, expansion.depth):
            level = expansion.levels[m]
            vertex = level.cover.rep_of[outlier]
            assert (outlier,) in level.cover.blocks
            assert level.nerve.maximal_simplexes[level.nerve.simplex_of[vertex]] == (outlier,)
    _report(7, "outlier degeneration", time.perf_counter() - start, 5)


def test_criterion_8_cli_determinism(tmp_path):
    start = time.perf_counter()
    env_cmd = [sys.executable, "-m", "ultrapoly"]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        proc = subprocess.run(
            [*env_cmd, "demo", "zp", "--prime", "3", "--depth", "3", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    for name in ("expansion.json", "shadow.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    crooked = tmp_path / "crooked.json"
    crooked.write_text(
        json.dumps(
            {
                "labels": ["a", "b", "c"],
                "prime": 2,
                "matrix": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
            }
        )
    )
    proc = subprocess.run(
        [*env_cmd, "validate", str(crooked)], capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert '"a"' in proc.stdout and '"b"' in proc.stdout and '"c"' in proc.stdout
    assert "violating_triple" in proc.stdout
    _report(8, "CLI determinism and rejection", time.perf_counter() - start, 2)
