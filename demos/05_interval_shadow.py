"""Projecting the p-adic unit ball onto [0,1] and shadowing an expansion.

theta reads digit streams as base-p reals: monotone, non-stretching, and
two-to-one exactly on the tail-(p-1) boundary pairs.  Shadowing a nerve
expansion keeps the combinatorics and all dimensions.
"""

from itertools import product

from ultrapoly import (
    PAdic,
    group_expansion,
    shadow_bundle,
    theta,
    theta_boundary_pairs,
    theta_nonstretch_check,
    theta_table_csv,
)

p, n = 3, 3

print("== theta staircase over all 3-digit streams ==")
streams = list(product(range(p), repeat=n))
for digits in streams[:6] + streams[-2:]:
    x = PAdic.from_digit_stream(digits, p)
    print(f"digits {digits} -> {theta(x, n)}")
values = [theta(PAdic.from_digit_stream(d, p), n) for d in streams]
print(f"monotone over all {len(streams)} streams: {values == sorted(values)}")

print()
print("== non-stretching over every pair ==")
points = [PAdic.from_digit_stream(d, p) for d in streams]
pairs = [(x, y) for x in points for y in points]
violations = theta_nonstretch_check(pairs, n)
print(f"checked {len(pairs)} pairs, violations {len(violations)}")

print()
print("== boundary pairs: the only collisions in the limit ==")
pairs = theta_boundary_pairs(p, n)
print(f"{len(pairs)} canonical pairs at precision {n}, gap {pairs[0].gap} each")
bp = pairs[0]
print(f"example: {bp.low.to_text()}  ~  {bp.high.to_text()}")

print()
print("== shadow of the Z/9 expansion ==")
expansion, _ = group_expansion(3, 2)
bundle = expansion.to_bundle()
# residue r's two base-3 digits, so the shadow carries theta samples
bundle["space"]["padic_points"] = [[(r // 3**i) % 3 for i in range(2)] for r in range(9)]
shadow = shadow_bundle(bundle)
for level, shadow_level in zip(expansion.levels, shadow["levels"]):
    dims = shadow_level["dimR_per_simplex"]
    print(f"level {level.m}: source dims {list(level.nerve.dims)} -> shadow dims {dims}")
print(f"shadow bonding maps mirror the source maps: "
      f"{all(m['vertex_map'] == b['vertex_map'] for m, b in zip(shadow['bonding'], bundle['bonding']))}")

print()
print("== theta table for the residues (CSV head) ==")
table = theta_table_csv(shadow["theta_samples"])
print("\n".join(table.splitlines()[:5]))
