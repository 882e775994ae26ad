"""The profinite picture: Z/p^m as an inverse sequence of residue rings.

Level i of the default expansion of Z/p^m has exactly p^i blocks and the
bonding maps are reduction mod p^i.  Threads (one simplex per level)
recover each point, and the level where two threads split recovers the
distance exactly.
"""

from ultrapoly import group_expansion, limit_isometry_check, verify_nonstretching

expansion, report = group_expansion(3, 3)
space = expansion.space

print("== level structure ==")
for level in expansion.levels:
    print(f"level {level.m} (scale 3^-{level.cover.level}): "
          f"{len(level.cover.blocks)} blocks")
print(f"block counts are powers of 3: {report['block_counts_ok']}")
print(f"bonding maps reduce mod 3^i:  {report['bonding_is_mod_reduction']}")
print(f"metric is translation-invariant: {report['translation_invariant']}")

print()
print("== every bonding map is non-stretching ==")
for m, bmap in enumerate(expansion.bonding):
    r = verify_nonstretching(bmap, expansion.levels[m + 1], expansion.levels[m])
    print(f"level {r['from']} -> {r['to']}: violations {len(r['violations'])}, "
          f"merged pairs {r['merged_pairs']}, "
          f"one-scale-step contraction {r['single_step_contraction']}")

print()
print("== threads and reconstruction ==")
for point in (5, 13, 26):
    thread = expansion.thread(point)
    cells = [
        expansion.levels[m].nerve.maximal_simplexes[idx]
        for m, idx in enumerate(thread)
    ]
    recovered = expansion.reconstruct(thread)
    print(f"point {space.labels[point]:>2}: thread {cells} -> {sorted(recovered)}")

print()
print("== the limit is isometric to the space ==")
iso = limit_isometry_check(space, expansion)
print(f"pairs checked: {space.n_points * (space.n_points - 1) // 2}, "
      f"mismatches: {len(iso['mismatches'])}")

print()
print("== functoriality of composites ==")
print(f"disagreeing level pairs: {expansion.verify_functoriality()}")
