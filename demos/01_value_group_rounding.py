"""Exact p-adic digits, norms, and rounding real data into the value group.

Every norm is a power of p (or zero), so distances can be stored as plain
integer exponents.  Rounding a positive rational down to the nearest
power of p loses at most a factor of p; this script shows the digits,
the norms, and that sandwich on a handful of values.
"""

from fractions import Fraction

from ultrapoly import PAdic, round_to_gamma

# --- digit arithmetic ---------------------------------------------------

print("== digit arithmetic in Z_3 ==")
a = PAdic.from_int(1, 3, 8)
b = PAdic.from_int(2, 3, 8)
s = a + b
print(f"1 + 2            -> {s.to_text()}   (carry creates a leading 3)")

minus_one = PAdic.from_int(-1, 3, 8)
print(f"-1               -> {minus_one.to_text()}   (all twos)")
print(f"-1 + 1           -> {(minus_one + a).to_text()}")

half = PAdic.from_fraction(Fraction(1, 2), 3, 8)
print(f"1/2              -> {half.to_text()}   (2 * this is 1 mod 3^8)")

# --- norms --------------------------------------------------------------

print()
print("== norms live in {3^k} u {0} ==")
for value in (9, 10, 27, -54):
    x = PAdic.from_int(value, 3, 8)
    norm = x.norm()
    print(f"|{value:>4}|_3 = 3^-{norm.exponent}   = {norm.as_fraction(3)}")
print(f"|0|_3    = {PAdic.zero(3, 8).norm().as_fraction(3)}")

# --- rounding real dissimilarities into the value group ------------------

print()
print("== rounding down to powers of p ==")
for raw in ("0.7", "0.3", "5", "1/9"):
    r = Fraction(raw)
    for p in (2, 3):
        g = round_to_gamma(r, p)
        v = g.as_fraction(p)
        assert v <= r <= p * v
        print(f"round({str(r):>4}, p={p}) = {v}   sandwich {v} <= {r} <= {p * v}")
