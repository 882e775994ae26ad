"""The digit-reading quotient from the p-adic unit ball onto [0,1] and the
real shadows it induces on nerve complexes.

theta reads a unit-ball value sum(a_i p^i) as the real number
sum(a_i p^(-i-1)): an exact rational with denominator p^n at precision n.
It is monotone for the digit-lexicographic order, non-stretching, and
identifies tail-(p-1) expansions with their successors; those boundary
pairs are the only collisions.

Shadows replace each simplex by a real cube cell on the same vertex set,
preserving the face poset and the dimension, and bonding maps carry over
on vertices with affine extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .nerve import NerveComplex, Realization
from .padic import PAdic, check_prime

if TYPE_CHECKING:
    from .spectrum import BondingMap, Expansion


class UnitBallError(ValueError):
    """theta is only defined on the unit ball (valuation >= 0)."""


class PrecisionError(ValueError):
    """Requested digits beyond the exactly-known window."""


class UnrealizedComplexError(ValueError):
    """Shadow construction needs a realized source complex."""


class MismatchedComplexError(ValueError):
    """Bonding data does not fit the given shadow complexes."""


def theta(x: PAdic, n: int) -> Fraction:
    """Base-p real read of the first n digits: an exact multiple of p^-n.

    Raises:
        UnitBallError: if x has negative valuation.
        PrecisionError: if n exceeds the known digit window.
    """
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
    p = x.prime
    num = 0
    for i in range(n):
        num = num * p + x.digit_at(i)
    return Fraction(num, p**n)


@dataclass(frozen=True)
class ThetaReport:
    """Pairs where |theta(x) - theta(y)| exceeded |x - y|_p (must be none)."""

    checked: int
    violations: tuple[tuple[int, Fraction, Fraction], ...]  # (pair idx, lhs, rhs)

    @property
    def ok(self) -> bool:
        return not self.violations


def theta_nonstretch_check(pairs: Sequence[tuple[PAdic, PAdic]], n: int) -> ThetaReport:
    """Exact check of |theta(x) - theta(y)| <= |x - y|_p over given pairs.

    A shared digit prefix of length k forces the first k real base-p
    digits to agree, so the difference is bounded by p^-k.
    """
    violations = []
    for idx, (x, y) in enumerate(pairs):
        lhs = abs(theta(x, n) - theta(y, n))
        rhs = (x - y).norm().as_fraction(x.prime)
        if lhs > rhs:
            violations.append((idx, lhs, rhs))
    return ThetaReport(checked=len(pairs), violations=tuple(violations))


@dataclass(frozen=True)
class BoundaryPair:
    """A tail-(p-1) stream and its successor: theta-gap exactly p^-n."""

    low: PAdic
    high: PAdic
    gap: Fraction


def theta_boundary_pairs(p: int, n: int) -> list[BoundaryPair]:
    """Canonical identifications at precision n.

    For every break position t <= n-2, prefix, and digit a < p-1, the
    stream (prefix, a, p-1, ..., p-1) and its successor
    (prefix, a+1, 0, ..., 0) truncate the two expansions of one real
    number; their finite reads differ by exactly p^-n, collapsing to 0
    as n grows.  There are p^(n-1) - 1 such pairs.
    """
    check_prime(p)
    if n < 2:
        raise ValueError("precision must be at least 2 to show a tail digit")
    pairs = []
    target = Fraction(1, p**n)
    for t in range(n - 1):
        for prefix_code in range(p**t):
            prefix = _digits_of_int(prefix_code, p, t)
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


def _digits_of_int(code: int, p: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        code, d = divmod(code, p)
        out.append(d)
    return tuple(out)


@dataclass(frozen=True)
class RealSimplex:
    """Real cube cell on the inherited vertex set.

    The cell is cut out by the constraints 0 <= e^j(y) <= 1 over the
    coordinate axes; with q+1 vertices the cell spans q axes (the first
    vertex is the base point), so its real dimension is q.
    """

    vertices: tuple[int, ...]

    @property
    def dim_r(self) -> int:
        return len(self.vertices) - 1

    @property
    def base(self) -> int:
        return self.vertices[0]

    @property
    def axes(self) -> tuple[int, ...]:
        return self.vertices[1:]


@dataclass(frozen=True)
class ShadowComplex:
    """Combinatorial mirror of a nerve complex over the real field."""

    level: int
    vertices: tuple[int, ...]
    cells: tuple[RealSimplex, ...]

    @property
    def dim_r(self) -> int:
        return max(cell.dim_r for cell in self.cells)

    def has_face(self, vs) -> bool:
        face = set(vs)
        return any(face <= set(cell.vertices) for cell in self.cells)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "vertices": list(self.vertices),
            "maximal_simplexes": [list(cell.vertices) for cell in self.cells],
            "dimR_per_simplex": [cell.dim_r for cell in self.cells],
            "dimR": self.dim_r,
        }


def shadow_complex(nerve: NerveComplex, realization: Realization | None) -> ShadowComplex:
    """Mirror a realized nerve cell-for-cell into real cube cells."""
    if realization is None:
        raise UnrealizedComplexError("source complex carries no realization")
    if len(realization.cells) != len(nerve.maximal_simplexes):
        raise UnrealizedComplexError("realization does not match the complex")
    return ShadowComplex(
        level=nerve.level,
        vertices=nerve.vertices,
        cells=tuple(RealSimplex(vertices=s) for s in nerve.maximal_simplexes),
    )


@dataclass(frozen=True)
class ShadowBonding:
    """Shadow of a bonding map: same vertex map, affine on every cell."""

    fine: int
    coarse: int
    vertex_map: dict[int, int]
    cell_images: tuple[tuple[tuple[int, ...], int], ...]
    affine: bool = True

    def to_json(self) -> dict:
        return {
            "from": self.fine,
            "to": self.coarse,
            "vertex_map": {str(v): w for v, w in sorted(self.vertex_map.items())},
            "affine": self.affine,
        }


def shadow_bonding(
    bmap: BondingMap, source: ShadowComplex, target: ShadowComplex
) -> ShadowBonding:
    """Carry a bonding map over to the shadows on vertices.

    The map is simplicial on the source cells, so the affine extension
    per cell is well-defined; compositions mirror the source side.
    """
    if bmap.fine != source.level or bmap.coarse != target.level:
        raise MismatchedComplexError("bonding map levels do not match the shadows")
    if set(bmap.vertex_map) != set(source.vertices):
        raise MismatchedComplexError("vertex map domain differs from the source shadow")
    for image, container in bmap.simplex_images:
        if not set(image) <= set(target.cells[container].vertices):
            raise MismatchedComplexError("image cell missing from the target shadow")
    return ShadowBonding(
        fine=bmap.fine,
        coarse=bmap.coarse,
        vertex_map=dict(bmap.vertex_map),
        cell_images=bmap.simplex_images,
    )


def shadow_expansion(
    expansion: Expansion,
) -> tuple[list[ShadowComplex], list[ShadowBonding]]:
    """Shadow every level and every bonding map of an expansion."""
    shadows = [
        shadow_complex(level.nerve, level.realization) for level in expansion.levels
    ]
    maps = [
        shadow_bonding(bmap, shadows[bmap.fine], shadows[bmap.coarse])
        for bmap in expansion.bonding
    ]
    return shadows, maps


def theta_samples(
    padic_points: Sequence[Sequence[int]], labels: Sequence[str], p: int
) -> list[dict]:
    """theta of each digit-stream point, as exact num/den strings."""
    out = []
    for label, stream in zip(labels, padic_points):
        x = PAdic.from_digit_stream(stream, p)
        value = theta(x, len(tuple(stream))) if not x.is_zero else Fraction(0)
        out.append(
            {
                "label": label,
                "digits": list(stream),
                "theta": f"{value.numerator}/{value.denominator}",
            }
        )
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

    Levels mirror the source combinatorics with real dimensions; theta
    samples appear when the bundle's space carries p-adic digit points.
    """
    levels_json = []
    dims_ok = True
    for level_obj in bundle["levels"]:
        nerve = NerveComplex.from_json(level_obj)
        shadow = ShadowComplex(
            level=nerve.level,
            vertices=nerve.vertices,
            cells=tuple(RealSimplex(vertices=s) for s in nerve.maximal_simplexes),
        )
        shadow_json = shadow.to_json()
        if shadow_json["dimR"] != level_obj["dimL"]:
            dims_ok = False
        levels_json.append(shadow_json)
    bonding_json = [
        {
            "from": bmap["from"],
            "to": bmap["to"],
            "vertex_map": dict(sorted(bmap["vertex_map"].items())),
            "affine": True,
        }
        for bmap in bundle["bonding"]
    ]
    out = {
        "schedule": bundle["schedule"],
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
