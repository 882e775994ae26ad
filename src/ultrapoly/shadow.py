"""The digit-reading quotient from the p-adic unit ball onto [0,1] and the
real shadows it induces on nerve complexes.

theta reads a unit-ball value sum(a_i p^i) as the real number
sum(a_i p^(-i-1)): an exact rational with denominator p^n at precision n.
It is monotone for the digit-lexicographic order, non-stretching, and
identifies tail-(p-1) expansions with their successors; those boundary
pairs are the only collisions.

A shadow replaces each simplex by a real cube cell on the same vertex
set, so it has the nerve's face poset and dimensions: a cell on q+1
vertices spans q axes (the first vertex is the base point) and has real
dimension q.  The shadow is therefore a JSON view of an expansion
bundle, with the nerve's cells and a real dimension per cell; bonding
maps carry over on vertices with affine extensions.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .padic import Frozen, PAdic, _digits_of, _stream_fault, check_prime

# fractions (which loads decimal) is imported by the functions that build a
# Fraction, so the shadow of a bundle never loads it; type checkers read
# this as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


class UnitBallError(ValueError):
    """theta is only defined on the unit ball (valuation >= 0)."""


class PrecisionError(ValueError):
    """Requested digits beyond the exactly-known window."""


def theta(x: PAdic, n: int) -> Fraction:
    """Base-p real read of the first n digits: an exact multiple of p^-n.

    Raises:
        UnitBallError: if x has negative valuation.
        PrecisionError: if n exceeds the known digit window.
    """
    from fractions import Fraction

    if n < 1:
        raise ValueError("need at least one digit")
    if x.is_zero:
        if n > x.known_upto():
            raise PrecisionError(f"only {x.known_upto()} digits are known")
        return Fraction(0)
    if x.valuation < 0:
        raise UnitBallError("theta is defined on the unit ball only")
    if n > x.known_upto():
        raise PrecisionError(f"only {x.known_upto()} digits are known")
    return Fraction(*_theta_pair(list(map(x.digit_at, range(n))), x.prime))


def _theta_pair(digits: Sequence[int], p: int) -> tuple[int, int]:
    """theta of the digits a_0 .. a_(n-1) as the integers (sum(a_i p^(n-1-i)), p^n)."""
    num = 0
    for d in digits:
        num = num * p + d
    return num, p ** len(digits)


def theta_nonstretch_check(
    pairs: Sequence[tuple[PAdic, PAdic]], n: int
) -> list[tuple[int, Fraction, Fraction]]:
    """Pairs where |theta(x) - theta(y)| exceeds |x - y|_p (must be none).

    Each is (index in pairs, left side, right side), compared exactly.
    A shared digit prefix of length k forces the first k real base-p
    digits to agree, so the difference is bounded by p^-k.
    """
    violations = []
    for idx, (x, y) in enumerate(pairs):
        lhs = abs(theta(x, n) - theta(y, n))
        rhs = (x - y).norm().as_fraction(x.prime)
        if lhs > rhs:
            violations.append((idx, lhs, rhs))
    return violations


class BoundaryPair(Frozen):
    """A tail-(p-1) stream and its successor: theta-gap exactly p^-n."""

    __slots__ = ("low", "high", "gap")


def theta_boundary_pairs(p: int, n: int) -> list[BoundaryPair]:
    """Canonical identifications at precision n.

    For every break position t <= n-2, prefix, and digit a < p-1, the
    stream (prefix, a, p-1, ..., p-1) and its successor
    (prefix, a+1, 0, ..., 0) truncate the two expansions of one real
    number; their finite reads differ by exactly p^-n, collapsing to 0
    as n grows.  There are p^(n-1) - 1 such pairs.
    """
    from fractions import Fraction

    check_prime(p)
    if n < 2:
        raise ValueError("precision must be at least 2 to show a tail digit")
    pairs = []
    target = Fraction(1, p**n)
    for t in range(n - 1):
        for prefix_code in range(p**t):
            prefix = _digits_of(prefix_code, p, t)
            for a in range(p - 1):
                low = PAdic.from_digit_stream(
                    prefix + (a,) + (p - 1,) * (n - 1 - t), p
                )
                high = PAdic.from_digit_stream(
                    prefix + (a + 1,) + (0,) * (n - 1 - t), p
                )
                gap = theta(high, n) - theta(low, n)
                if gap != target:
                    raise AssertionError(f"boundary gap {gap} != {target}")
                pairs.append(BoundaryPair(low=low, high=high, gap=gap))
    return pairs


def theta_samples(
    padic_points: Sequence[Sequence[int]], labels: Sequence[str], p: int
) -> list[dict]:
    """theta of each digit-stream point, as exact num/den strings in lowest terms.

    Each is ``theta`` at the stream's precision, read as integers
    (``_theta_pair``); one gcd brings them to lowest terms (0 is 0/1).

    Raises:
        ValueError: for an empty stream or a digit outside [0, p-1].
    """
    out = []
    for label, stream in zip(labels, padic_points):
        digits = list(stream)
        if fault := _stream_fault(digits, p):
            raise ValueError(fault)
        num, den = _theta_pair(digits, p)
        g = gcd(num, den)
        out.append({"label": label, "digits": digits, "theta": f"{num // g}/{den // g}"})
    return out


def theta_table_csv(samples: Sequence[dict]) -> str:
    """CSV of (digit stream, exact theta value) rows for external plotting.

    A view of ``theta_samples``: no theta is computed again.
    """
    lines = ["digits,theta_num,theta_den"]
    for sample in samples:
        num, den = sample["theta"].split("/")
        lines.append(f"{':'.join(str(d) for d in sample['digits'])},{num},{den}")
    return "\n".join(lines) + "\n"


def shadow_bundle(bundle: dict) -> dict:
    """Shadow counterpart of an expansion bundle (pure JSON to JSON).

    Each level keeps its nerve's vertices and maximal simplexes, and a
    simplex on q+1 vertices becomes a cell of real dimension q; theta
    samples appear when the bundle's space carries p-adic digit points.
    """
    levels_json = []
    dims_ok = True
    for level in bundle["levels"]:
        cells = [list(s) for s in level["maximal_simplexes"]]
        dims = [len(cell) - 1 for cell in cells]
        dim = max(dims)
        levels_json.append(
            {
                "level": level["level"],
                "vertices": list(level["vertices"]),
                "maximal_simplexes": cells,
                "dimR_per_simplex": dims,
                "dimR": dim,
            }
        )
        dims_ok = dims_ok and dim == level["dimL"]
    bonding_json = [
        {
            "from": bmap["from"],
            "to": bmap["to"],
            "vertex_map": dict(sorted(bmap["vertex_map"].items())),
            "affine": True,
        }
        for bmap in bundle["bonding"]
    ]
    schedule = bundle["schedule"]
    out = {
        # the fields Schedule.to_json writes, and no other the bundle holds
        "schedule": {key: schedule[key] for key in ("j", "k", "b") if key in schedule},
        "levels": levels_json,
        "bonding": bonding_json,
        "reports": {"dim_preserved": dims_ok},
    }
    space = bundle.get("space", {})
    if "padic_points" in space:
        out["theta_samples"] = theta_samples(
            space["padic_points"], space["labels"], space["prime"]
        )
    return out
