"""Exact arithmetic in the quadratic field Q(sqrt 3).

Every component value handled by this package lives in the ring
{a + b*sqrt(3) : a, b rational}.  Both coefficients are kept as
``fractions.Fraction`` (arbitrary precision, canonical lowest terms,
positive denominator), so arithmetic is exact and never overflows.

The text form used everywhere (JSON files, CLI output) is::

    rational ( ('+'|'-') rational '*sqrt(3)' )?
    rational = ['+'|'-'] digits ['/' digits]

e.g. ``-3/2``, ``1/2+1/2*sqrt(3)``, ``0-1*sqrt(3)``.  Formatting then
reparsing is the identity.
"""

from __future__ import annotations

import re
from fractions import Fraction


class ScalarParseError(ValueError):
    """Raised when a scalar text does not match the grammar."""


_RATIONAL = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(
    rf"^(?P<rat>{_RATIONAL})(?:(?P<sign>[+-])(?P<irr>\d+(?:/\d+)?)\*sqrt\(3\))?$"
)


class Scalar:
    """An element a + b*sqrt(3) with rational a (``rat``) and b (``irr``).

    Immutable.  Division is total on nonzero values: a^2 - 3 b^2 = 0 has
    no rational solution besides a = b = 0, so the conjugate trick
    1/(a+b*sqrt 3) = (a-b*sqrt 3)/(a^2-3b^2) never divides by zero.
    """

    __slots__ = ("rat", "irr")

    def __init__(self, rat=0, irr=0):
        object.__setattr__(self, "rat", Fraction(rat))
        object.__setattr__(self, "irr", Fraction(irr))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- construction ----------------------------------------------------

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse the text grammar; raise ScalarParseError naming the issue."""
        if not isinstance(text, str):
            raise ScalarParseError(f"expected string, got {type(text).__name__}")
        s = text.strip().replace(" ", "")
        m = _SCALAR_RE.match(s)
        if not m:
            raise ScalarParseError(f"malformed scalar text: {text!r}")
        try:
            rat = Fraction(m.group("rat"))
        except ZeroDivisionError:
            raise ScalarParseError(
                f"zero denominator in token {m.group('rat')!r}"
            ) from None
        irr = Fraction(0)
        if m.group("irr") is not None:
            try:
                irr = Fraction(m.group("irr"))
            except ZeroDivisionError:
                raise ScalarParseError(
                    f"zero denominator in token {m.group('irr')!r}"
                ) from None
            if m.group("sign") == "-":
                irr = -irr
        return Scalar(rat, irr)

    @staticmethod
    def sqrt3() -> "Scalar":
        return Scalar(0, 1)

    # -- text form --------------------------------------------------------

    def format(self) -> str:
        if self.irr == 0:
            return str(self.rat)
        sign = "+" if self.irr > 0 else "-"
        return f"{self.rat}{sign}{abs(self.irr)}*sqrt(3)"

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Scalar({self.format()!r})"

    # -- predicates and ordering -------------------------------------------

    def is_zero(self) -> bool:
        return self.rat == 0 and self.irr == 0

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(3) as a real number."""
        a, b = self.rat, self.irr
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # opposite signs: compare a^2 with 3 b^2
        if a * a > 3 * b * b:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

    def __abs__(self) -> "Scalar":
        return -self if self.sign() < 0 else self

    def __lt__(self, other) -> bool:
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - _coerce(other)).sign() >= 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.rat == other.rat and self.irr == other.irr

    def __hash__(self):
        return hash((self.rat, self.irr))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Scalar":
        o = _coerce(other)
        return Scalar(self.rat + o.rat, self.irr + o.irr)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        o = _coerce(other)
        return Scalar(self.rat - o.rat, self.irr - o.irr)

    def __rsub__(self, other) -> "Scalar":
        return _coerce(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.rat, -self.irr)

    def __mul__(self, other) -> "Scalar":
        o = _coerce(other)
        # (a + b s)(c + d s) = (ac + 3bd) + (ad + bc) s   with s^2 = 3
        return Scalar(
            self.rat * o.rat + 3 * self.irr * o.irr,
            self.rat * o.irr + self.irr * o.rat,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("division by zero Scalar")
        a, b = self.rat, self.irr
        n = a * a - 3 * b * b
        return Scalar(a / n, -b / n)

    def __truediv__(self, other) -> "Scalar":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other) -> "Scalar":
        return _coerce(other) * self.inverse()

    def __float__(self) -> float:
        return float(self.rat) + float(self.irr) * 3 ** 0.5


def _coerce(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")
