"""Exact (half-)integers stored as doubled integers."""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


@total_ordering
class HalfInt:
    """An element of Z or Z + 1/2, stored as twice its value.

    Keeping the doubled value makes all arithmetic exact and lets congruence
    modulo t reduce to integer congruence of doubled values modulo 2t, which
    covers the half-integer classes that appear for even t.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError("HalfInt stores an integer equal to twice its value")
        self.twice = twice

    @classmethod
    def whole(cls, n: int) -> "HalfInt":
        return cls(2 * n)

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse "7", "-3" or a reduced half "21/2", "-11/2"."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            if den.strip() != "2":
                raise ValueError(f"not a half-integer: {text!r}")
            return cls(int(num))
        return cls(2 * int(text))

    @property
    def is_whole(self) -> bool:
        return self.twice % 2 == 0

    def as_int(self) -> int:
        if self.twice % 2:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def same_class(self, other: "HalfInt", t: int) -> bool:
        return (self.twice - other.twice) % (2 * t) == 0

    def __add__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt(self.twice + other.twice)
        if isinstance(other, int):
            return HalfInt(self.twice + 2 * other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt(self.twice - other.twice)
        if isinstance(other, int):
            return HalfInt(self.twice - 2 * other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return HalfInt(2 * other - self.twice)
        return NotImplemented

    def __neg__(self):
        return HalfInt(-self.twice)

    def __mul__(self, other):
        if isinstance(other, int):
            return HalfInt(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, int):
            return self.twice == 2 * other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, HalfInt):
            return self.twice < other.twice
        if isinstance(other, int):
            return self.twice < 2 * other
        return NotImplemented

    def __hash__(self):
        return hash((HalfInt, self.twice))

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self.twice})"


def halves(twice_values) -> tuple[HalfInt, ...]:
    return tuple(HalfInt(tw) for tw in twice_values)
