"""Exact coefficient fields: prime fields GF(p) and arbitrary-precision rationals.

Scalars are plain Python values: int residues for GF(p); for the rationals
an int when the value is integral and a Fraction only when its denominator
is greater than 1.  The field object supplies the arithmetic.  No floating
point anywhere.  parse reads only what format writes, up to a sign: an
optional sign, digits, and optionally a slash and more digits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

Scalar = Union[int, Fraction]

# field_from_name's bound on p: trial division up to sqrt(p) stays fast
MAX_FIELD_ORDER = 2**31

_COEFFICIENT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _ratio(s: str) -> Tuple[int, int]:
    """Numerator and denominator of a coefficient in the grammar of the module docstring."""
    if not _COEFFICIENT.fullmatch(s):
        raise ValueError(f"malformed coefficient {s!r}")
    num, _, den = s.partition("/")
    return int(num), int(den or 1)


def _integral(a: Scalar) -> Scalar:
    """A rational in canonical form: an int when integral (an int comes back unchanged), else its Fraction."""
    if type(a) is int or a.denominator != 1:
        return a
    return a.numerator


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field with p elements, represented as ints in range(p)."""

    p: int = 2

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"field order must be prime, got {self.p}")

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverting 0 in a prime field")
        return pow(a, -1, self.p)

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def format(self, a: int) -> str:
        return str(a % self.p)

    def parse(self, s: str) -> int:
        num, den = _ratio(s)
        if den % self.p == 0:
            raise ValueError(f"coefficient {s!r} divides by zero in GF({self.p})")
        return self.mul(self.from_int(num), self.inv(self.from_int(den)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GF({self.p})"


@dataclass(frozen=True)
class RationalField:
    """The rationals: an integral value is an int, any other a fractions.Fraction.

    Twist images over QQ hold only the scalars 1 and -1, so nearly every
    operation stays on ints; a result becomes a Fraction only when it is
    not integral.
    """

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return _integral(a + b)

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return _integral(a - b)

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return _integral(a * b)

    def neg(self, a: Scalar) -> Scalar:
        return -a

    def inv(self, a: Scalar) -> Scalar:
        if a == 1 or a == -1:
            return int(a)
        if a == 0:
            raise ZeroDivisionError("inverting 0")
        return _integral(Fraction(1, a))

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    def format(self, a: Scalar) -> str:
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def parse(self, s: str) -> Scalar:
        num, den = _ratio(s)
        if den == 0:
            raise ValueError(f"coefficient {s!r} has a zero denominator")
        return _integral(Fraction(num, den))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "QQ"


# Aliases name twistlab classes as strings: typing caches every subscription
# it evaluates, and a class held there outlives a reload of its module.
Field = Union["PrimeField", "RationalField"]

GF2 = PrimeField(2)
QQ = RationalField()


def field_from_name(name: str) -> Field:
    """Parse a field spec: "q" for the rationals, "f<p>" for GF(p) with p < MAX_FIELD_ORDER."""
    name = name.strip().lower()
    if name in ("q", "qq", "rational", "rationals"):
        return QQ
    for prefix in ("gf", "f"):
        digits = name[len(prefix) :]
        if name.startswith(prefix) and digits.isdigit():
            p = int(digits)
            if p >= MAX_FIELD_ORDER:
                raise ValueError(f"field order {p} is too large (the limit is {MAX_FIELD_ORDER})")
            return PrimeField(p)
    raise ValueError(f"unknown field {name!r} (expected 'q' or 'f<p>')")
