"""Clopen ball towers, nerve complexes, uniformity witnesses, subdivision.

A cover at scale p^-j partitions the space into closed balls; raising the
nerve threshold p^k*b joins nearby balls into simplexes.  The complexes
are disjoint unions of simplexes, so DOT renders them as filled cliques.
"""

from ultrapoly import (
    GammaValue,
    baire_encode,
    build_nerve,
    c0_embed,
    check_uniform,
    cover_tower,
    nerve_to_dot,
    realize,
    scale_cover,
    subdivide,
)
from ultrapoly.spectrum import residue_space

space = residue_space(3, 3)  # Z/27 under the 3-adic metric
print(f"space: {space.n_points} residues mod 27, prime 3")

print()
print("== tower of nested ball covers ==")
tower = cover_tower(space, 0, 3)
for cover in tower:
    print(f"scale 3^-{cover.level}: {len(cover.blocks)} blocks")

print()
print("== nerves at increasing thresholds over the 9-block cover ==")
cover = scale_cover(space, 2)
for k in (0, 1, 2):
    nerve = build_nerve(space, cover, k=k, b=GammaValue(2))
    sizes = sorted(len(s) for s in nerve.maximal_simplexes)
    print(f"threshold 3^{k}*3^-2: simplexes {sizes}, dim {nerve.dim_l}")

print()
print("== uniformity witnesses (bounded diameters, positive separation) ==")
vectors = c0_embed(baire_encode(space))
nerve = build_nerve(space, cover, k=1, b=GammaValue(2))
realization = realize(space, cover, nerve, vectors)
report = check_uniform(space, realization)  # distances as exponents of 3^-1
print(f"sup diam = {GammaValue.from_json(report['sup_diam']).as_fraction(3)}")
print(f"inf dist = {GammaValue.from_json(report['inf_dist']).as_fraction(3)}")
print(f"uniform: {report['is_uniform']}")

print()
print("== p-subdivision splits each cell into p^j smaller balls ==")
sub = subdivide(space, realization, 1)
print(f"{len(realization.cells)} cells -> {len(sub.cells)} cells of radius "
      f"{sub.cells[0].radius.as_fraction(3)}")
again = subdivide(space, sub, 1)
direct = subdivide(space, realization, 2)
assert sorted(c.support for c in again.cells) == sorted(c.support for c in direct.cells)
print("two single subdivisions equal one double subdivision: OK")

print()
print("== DOT export of the threshold-3^-1 nerve over 9 blocks ==")
print(nerve_to_dot(nerve, labels=space.labels))
