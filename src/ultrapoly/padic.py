"""Exact p-adic arithmetic at bounded digit precision.

A nonzero value is a valuation (the p-power of the leading digit) plus a
digit vector in base p; zero is a tagged case with no digits.  All
operations truncate instead of rounding: the p-adic norm depends only on
the leading digit, so truncation keeps every norm and distance computed
downstream exact.

Norm values live in the discrete value group {p^k : k in Z} together with
the metric value 0.  ``GammaValue`` encodes these as the integer exponent
e with real value p^(-e); the metric value 0 is the distinguished
INFINITY exponent (p^(-inf)).
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from functools import lru_cache, total_ordering
from math import gcd

# fractions (which loads decimal) is imported by the functions that build a
# Fraction, so digit-stream runs never load it; type checkers read this as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


class PrimeMismatchError(ValueError):
    """Mixed operands from different p-adic fields."""


class NotPrimeError(ValueError):
    """The base of a p-adic field must be prime."""


class PrimalityUnknownError(ValueError):
    """A large integer whose primality the exact test cannot decide."""


#: The Miller-Rabin bases: the primes up to 41.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: Miller-Rabin to the bases above is exact for every n below this bound
#: (Sorenson & Webster 2015).
MR_EXACT_BELOW = 3317044064679887385961981
#: Trial-division limit when factoring n - 1 for a Pocklington certificate.
_POCKLINGTON_TRIAL = 1 << 16


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: False proves n composite; True proves nothing alone."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _factored_part(n: int) -> list[int] | None:
    """The primes of a part F of n - 1 with F^2 > n, found by trial division; None if F^2 <= n."""
    rest, factored, factors = n - 1, 1, []
    for q in (2, *range(3, _POCKLINGTON_TRIAL, 2)):
        if rest % q == 0:
            factors.append(q)
            while rest % q == 0:
                rest //= q
                factored *= q
    if 1 < rest < MR_EXACT_BELOW and is_prime(rest):
        factors.append(rest)
        factored *= rest
    return None if factored * factored <= n else factors


def _pocklington(n: int, factors: list[int]) -> bool | None:
    """Prove n prime from the primes of a factored part F of n - 1 with F^2 > n.

    Pocklington-Lehmer: if every prime q | F has a base a with
    a^(n-1) = 1 and gcd(a^((n-1)/q) - 1, n) = 1 (mod n), every prime
    factor of n is 1 mod F, hence above sqrt(n).  Returns False when a
    base proves n composite, None when no base certifies a factor.
    """
    for q in factors:
        for a in range(2, 200):
            if pow(a, n - 1, n) != 1:
                return False
            g = gcd(pow(a, (n - 1) // q, n) - 1, n)
            if g == 1:
                break
            if g != n:
                return False
        else:
            return None
    return True


#: Most digits of an integer a refusal writes out; a longer one is written as
#: its leading ``_ECHO_LEAD`` digits, an ellipsis and its digit count.
_ECHO_DIGITS = 50
_ECHO_LEAD = 20


def _echo(value) -> str:
    """``repr(value)``, with an int of more than ``_ECHO_DIGITS`` digits cut short.

    The digit count is exact, and found without writing the int out, so
    it holds past the interpreter's limit on int-to-text conversion.
    """
    if type(value) is not int or abs(value) < 10**_ECHO_DIGITS:
        return repr(value)
    magnitude = abs(value)
    digits = magnitude.bit_length() * 30103 // 100000  # never more than the count
    while 10**digits <= magnitude:
        digits += 1
    lead = magnitude // 10 ** (digits - _ECHO_LEAD)
    return f"{'-' if value < 0 else ''}{lead}... ({digits} digits)"


@lru_cache(maxsize=32)
def is_prime(n: int) -> bool:
    """Exact primality test; never a probabilistic guess.

    Trial division by the primes up to 41, then Miller-Rabin to those 13
    bases, which is exact below ``MR_EXACT_BELOW`` (about 3.3e24).  A
    larger n that passes needs a Pocklington certificate built by trial
    factoring n - 1.  Above the bound that factoring runs right after the
    base-2 round, so an n with no certificate costs one modular power,
    not 13, to refuse.

    Raises:
        PrimalityUnknownError: n >= MR_EXACT_BELOW passes the base-2
            round but n - 1 does not factor far enough, or it passes
            Miller-Rabin but no base certifies it.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    if not _strong_probable_prime(n, 2):
        return False
    if n < MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES[1:])
    factors = _factored_part(n)
    if factors is not None:
        if not all(_strong_probable_prime(n, a) for a in _MR_BASES[1:]):
            return False
        verdict = _pocklington(n, factors)
        if verdict is not None:
            return verdict
    raise PrimalityUnknownError(
        f"cannot decide whether {_echo(n)} is prime: it lies above {MR_EXACT_BELOW}, "
        "where Miller-Rabin is not exact, and n - 1 does not factor far enough "
        "for a Pocklington certificate"
    )


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise NotPrimeError(f"base must be prime, got {p}")
    return p


_set = object.__setattr__


class Record:
    """Base of the value types: the fields are the ``__slots__``.

    The constructor takes every field, in slot order, by position or by
    name, as a dataclass-generated ``__init__`` does.  Two records are
    equal when they are of one class and their field tuples are equal,
    and the repr is ``Name(field=value, ...)`` in slot order, as for a
    dataclass.  ``_fields`` names the fields when some slots are not
    fields.  A record is mutable and unhashable; see ``Frozen``.
    Pickling and copying rebuild it through its constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() got {len(args)} values for {fields}")
        for name, value in zip(fields, args):
            _set(self, name, value)
        rest = fields[len(args):]
        for name, value in kwargs.items():
            if name not in rest:
                problem = "two values for field" if name in fields else "an unknown field"
                raise TypeError(f"{type(self).__name__}() got {problem} {name!r}")
            _set(self, name, value)
        if len(kwargs) < len(rest):
            missing = ", ".join(repr(name) for name in rest if name not in kwargs)
            raise TypeError(f"{type(self).__name__}() got no value for {missing}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Record):
    """An immutable record, hashed by its field tuple.

    Assigning or deleting an attribute raises AttributeError, so the
    constructor sets each field with ``object.__setattr__``.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


@total_ordering
class GammaValue(Frozen):
    """An element of the value group: p^(-exponent), or 0 for INFINITY.

    ``exponent=None`` is the INFINITY tag encoding the metric value 0.
    The total order is the real order of the encoded values, so a larger
    exponent means a smaller value and INFINITY is the minimum.  The
    order does not depend on p.
    """

    __slots__ = ("exponent",)

    # the hot comparisons, written out for the one field
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.exponent == other.exponent
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.exponent,))

    @property
    def is_zero(self) -> bool:
        """True when this encodes the metric value 0 (p^-inf)."""
        return self.exponent is None

    def as_fraction(self, p: int) -> Fraction:
        """Exact rational value p^(-exponent); 0 for INFINITY."""
        from fractions import Fraction

        if self.exponent is None:
            return Fraction(0)
        if self.exponent >= 0:
            return Fraction(1, p**self.exponent)
        return Fraction(p ** (-self.exponent))

    def scaled(self, k: int) -> "GammaValue":
        """Multiply the encoded value by p^k (INFINITY is absorbing)."""
        if self.exponent is None:
            return self
        return GammaValue(self.exponent - k)

    def __lt__(self, other: "GammaValue") -> bool:
        if self.exponent is None:
            return other.exponent is not None
        if other.exponent is None:
            return False
        return self.exponent > other.exponent

    def to_json(self) -> int | str:
        return _exponent_json(self.exponent)

    @classmethod
    def from_json(cls, obj: int | str) -> "GammaValue":
        if obj == "INF":
            return cls(None)
        return cls(int(obj))

    def __repr__(self) -> str:
        if self.exponent is None:
            return "GammaValue(INF)"
        return f"GammaValue({self.exponent})"


#: The metric value 0, i.e. p^(-INFINITY).
GAMMA_ZERO = GammaValue(None)


def _schedule_fault(j: Sequence[int], k: Sequence[int], b: Sequence[GammaValue]) -> str | None:
    """Why (j, k, b) is no level schedule, or None: the schedule's order rules.

    Equal lengths and at least one level; j increases strictly, k never
    increases, and the thresholds p^k * b never grow level over level.
    """
    if not (len(j) == len(k) == len(b)):
        return "schedule components must have equal length"
    if not j:
        return "schedule must have at least one level"
    if any(later <= earlier for earlier, later in zip(j, j[1:])):
        return "ball scales j(m) must increase strictly"
    if any(later > earlier for earlier, later in zip(k, k[1:])):
        return "threshold factors must satisfy k(m+1) <= k(m)"
    # the nerve threshold p^k * b of each level; 0 (INF) is the smallest
    thresholds = [bound.scaled(factor) for bound, factor in zip(b, k)]
    for m in range(1, len(thresholds)):
        if thresholds[m - 1] < thresholds[m]:
            return (
                f"the threshold p^k * b of level {m} exceeds that of level {m - 1}:"
                " thresholds must not grow"
            )
    return None


def _exponent_json(exponent: int | None) -> int | str:
    """An exponent as every output writes it: None (INFINITY, distance 0) is "INF"."""
    return "INF" if exponent is None else exponent


def _exact_pair(value: int | str | Fraction) -> tuple[int, int]:
    """The exact value as (numerator, denominator): lowest terms, positive denominator.

    Accepts what ``Fraction(value)`` accepts, with its errors.  An int,
    and a text that is an ASCII digit string, ``a/b`` or a plain decimal
    (``0.5``, ``.5``, ``5.``), is split and read with ``int``; every other
    form (signs, exponents, whitespace, underscores, non-ASCII digits,
    ``1/0``, junk) goes to ``Fraction``.  The fast path reads the digit
    runs in the order ``Fraction`` does, so an over-long run raises the
    same error, and before it builds any power of 10, so that error
    costs no more than the run's own text.  An exponent form is refused where the decimal it means,
    written out, would be: before ``Fraction`` builds its power of 10.
    """
    if type(value) is int:
        return value, 1
    if type(value) is str and value.isascii():
        whole, dot, digits = value.partition(".")
        if dot:
            # each run is checked on its own, with no joined copy of the text
            if value != "." and (whole or "0").isdigit() and (digits or "0").isdigit():
                head, tail = int(whole or "0"), int(digits or "0")
                scale = 10 ** len(digits)
                num = head * scale + tail
                g = gcd(num, scale)
                return num // g, scale // g
        else:
            num_text, slash, den_text = value.partition("/")
            if num_text.isdigit() and (not slash or den_text.isdigit()):
                num = int(num_text)
                if not slash:
                    return num, 1
                den = int(den_text)
                if den:
                    g = gcd(num, den)
                    return num // g, den // g
    from fractions import _RATIONAL_FORMAT, Fraction

    form = type(value) is str and _RATIONAL_FORMAT.match(value)
    if form and form["exp"]:
        shift = int(form["exp"])
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 where int() reads any run
        whole, fraction = ((form[part] or "").replace("_", "") for part in ("num", "decimal"))
        # the written-out decimal's whole and fractional runs, as int() would read them
        for run in (len(whole) + shift, len(fraction) - shift):
            if 0 < limit < run:
                raise ValueError(
                    f"Exceeds the limit ({limit} digits) for integer string conversion: "
                    f"value has {run} digits; use sys.set_int_max_str_digits() to increase the limit"
                )
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator, value.denominator


def _floor_log(num: int, den: int, p: int) -> int:
    """The k with p**k <= num/den < p**(k + 1), for positive ints num and den.

    The guess comes from bit lengths: log2(num/den) lies within 1 of
    b = bitlen(num) - bitlen(den), and p**t with t about |b| / bitlen(p)
    has t * log2(p) bits give or take one, which pins log2(p) to about
    1/t.  Exact comparisons of num * p**-k with den * p**k then move the
    guess one factor of p at a time; it is off by a few steps at most.
    No floats, and a handful of products of the operands' size, where
    stepping from 1 takes |k| of them.
    """
    b = num.bit_length() - den.bit_length()
    t = abs(b) // p.bit_length() + 1
    k = b * t // (p**t).bit_length()
    # p**k <= num/den exactly when low <= high
    high = num * p**-k if k < 0 else num
    low = den * p**k if k > 0 else den
    while low > high:
        k -= 1
        if k >= 0:
            low //= p
        else:
            high *= p
    while high >= low * p:
        k += 1
        if k > 0:
            low *= p
        else:
            high //= p
    return k


def _round_pair(num: int, den: int, p: int) -> GammaValue:
    """``round_to_gamma`` of num/den, for num >= 0 and den > 0, building no Fraction."""
    return GAMMA_ZERO if num == 0 else GammaValue(-_floor_log(num, den, p))


def round_to_gamma(r: int | str | Fraction, p: int) -> GammaValue:
    """Largest value group element p^(-e) not exceeding r; 0 maps to INFINITY.

    Accepts exact rationals (``Fraction``, int, or a string such as
    "3/4" or "0.7", parsed exactly).  Guarantees the sandwich
    result <= r <= p * result for r > 0.  The exponent comes from
    ``_floor_log`` on the exact numerator and denominator.

    Raises:
        ValueError: if r is negative.
    """
    check_prime(p)
    num, den = _exact_pair(r)
    if num < 0:
        from fractions import Fraction

        raise ValueError(f"cannot round negative value {Fraction(num, den)}")
    return _round_pair(num, den, p)


def _stream_fault(digits: Sequence[int], p: int) -> str | None:
    """Why the digits are no p-adic digit stream, or None: the digit-stream rule."""
    if not digits:
        return "empty digit stream"
    return "digits must lie in [0, p-1]" if min(digits) < 0 or max(digits) >= p else None


class PAdic(Frozen):
    """A p-adic number known exactly on a bounded digit window.

    The value is sum(digits[i] * p^(valuation + i)); digits below the
    valuation are exact zeros, digits at positions >= valuation +
    precision are unknown.  Zero is tagged by an empty digit vector and
    carries no valuation information beyond "all known digits vanish".

    Instances are immutable and safe to share across threads.
    """

    __slots__ = ("prime", "valuation", "digits", "precision")

    def __init__(self, prime: int, valuation: int, digits: tuple[int, ...], precision: int) -> None:
        check_prime(prime)
        if precision < 1:
            raise ValueError("precision must be positive")
        if digits:
            if len(digits) != precision:
                raise ValueError("digit vector must have `precision` entries")
            if digits[0] == 0:
                raise ValueError("leading digit must be nonzero")
            if fault := _stream_fault(digits, prime):
                raise ValueError(fault)
        super().__init__(prime, valuation, digits, precision)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, p: int, precision: int = 32) -> "PAdic":
        return cls(p, 0, (), precision)

    @classmethod
    def from_int(cls, n: int, p: int, precision: int = 32) -> "PAdic":
        """Exact image of an integer (negatives get their tail expansion)."""
        if n == 0:
            return cls.zero(p, precision)
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return cls(p, v, _digits_of(n, p, precision), precision)

    @classmethod
    def from_fraction(cls, q: int | str | Fraction, p: int, precision: int = 32) -> "PAdic":
        """Exact image of a rational; the denominator's p-part lowers the valuation."""
        from fractions import Fraction

        q = Fraction(q)
        if q == 0:
            return cls.zero(p, precision)
        num, den = q.numerator, q.denominator
        vn = 0
        while num % p == 0:
            num //= p
            vn += 1
        vd = 0
        while den % p == 0:
            den //= p
            vd += 1
        unit = num * pow(den, -1, p**precision)
        return cls(p, vn - vd, _digits_of(unit, p, precision), precision)

    @classmethod
    def from_digit_stream(cls, stream: Iterable[int], p: int) -> "PAdic":
        """Value sum(stream[i] * p^i) from digits at positions 0,1,2,...

        Leading zeros raise the valuation; the known window ends where
        the stream does, so precision is the count of remaining digits.
        """
        stream = tuple(stream)
        if fault := _stream_fault(stream, p):
            raise ValueError(fault)
        v = next((i for i, d in enumerate(stream) if d), None)
        if v is None:
            return cls.zero(p, len(stream))
        return cls(p, v, stream[v:], len(stream) - v)

    # -- structure -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.digits

    def unit_int(self) -> int:
        """The digit window as an integer in [0, p^precision)."""
        acc = 0
        for d in reversed(self.digits):
            acc = acc * self.prime + d
        return acc

    def digit_at(self, i: int) -> int:
        """Digit at p-power position i (exact zeros below the valuation)."""
        if self.is_zero:
            raise ValueError("zero has no digit window")
        if i < self.valuation:
            return 0
        if i >= self.valuation + self.precision:
            raise ValueError(f"digit at position {i} exceeds the known window")
        return self.digits[i - self.valuation]

    def known_upto(self) -> int:
        """First unknown digit position (valuation + precision; zero: precision)."""
        if self.is_zero:
            return self.precision
        return self.valuation + self.precision

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "PAdic") -> "PAdic":
        if self.prime != other.prime:
            raise PrimeMismatchError(
                f"cannot add {self.prime}-adic and {other.prime}-adic values"
            )
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        p = self.prime
        start = min(self.valuation, other.valuation)
        end = min(self.valuation + self.precision, other.valuation + other.precision)
        modulus = p ** (end - start)
        total = (
            self.unit_int() * p ** (self.valuation - start)
            + other.unit_int() * p ** (other.valuation - start)
        ) % modulus
        if total == 0:
            # all digits cancel inside the shared window: zero at this precision
            return PAdic.zero(p, end - start)
        shift = 0
        while total % p == 0:
            total //= p
            shift += 1
        return PAdic(p, start + shift, _digits_of(total, p, end - start - shift), end - start - shift)

    def __neg__(self) -> "PAdic":
        if self.is_zero:
            return self
        unit = (-self.unit_int()) % (self.prime**self.precision)
        return PAdic(self.prime, self.valuation, _digits_of(unit, self.prime, self.precision), self.precision)

    def __sub__(self, other: "PAdic") -> "PAdic":
        return self + (-other)

    def norm(self) -> GammaValue:
        """|x|_p = p^(-valuation) as a value group element; zero maps to INFINITY."""
        if self.is_zero:
            return GAMMA_ZERO
        return GammaValue(self.valuation)

    # -- text form -------------------------------------------------------

    def to_text(self) -> str:
        """Debug dump "p:<prime> v:<valuation> d:<digit,digit,...>"."""
        if self.is_zero:
            return f"p:{self.prime} v:- d:0"
        return f"p:{self.prime} v:{self.valuation} d:{','.join(map(str, self.digits))}"

    def __repr__(self) -> str:
        return f"PAdic({self.to_text()!r})"


def _digits_of(unit: int, p: int, length: int) -> tuple[int, ...]:
    unit %= p**length
    out = []
    for _ in range(length):
        unit, d = divmod(unit, p)
        out.append(d)
    return tuple(out)

