"""Text form of the (half-)integers that beads and codings take.

Beads, coding entries and window coordinates lie in Z for odd t and in
Z + 1/2 for even t.  In memory tcores holds each one as a plain int equal
to twice its value, so sums, differences and congruences modulo t (doubled
values modulo 2t) are integer operations.  `text(twice)` prints such a value
("7", "-3", "21/2"), and `HalfInt` appears only where one is parsed from
text or handed to `CoreCoding` as a half.
"""

from __future__ import annotations


def text(twice: int) -> str:
    """Text of the (half-)integer equal to twice/2: "7" or "21/2"."""
    return f"{twice}/2" if twice % 2 else str(twice // 2)


class HalfInt:
    """An element of Z or Z + 1/2 as text sees it, holding twice its value."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError("HalfInt stores an integer equal to twice its value")
        self.twice = twice

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse "7", "-3" or a reduced half "21/2", "-11/2"."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            if den.strip() != "2":
                raise ValueError(f"not a half-integer: {text!r}")
            twice = int(num)
            if twice % 2 == 0:
                raise ValueError(f"not a reduced half: {text!r}")
            return cls(twice)
        return cls(2 * int(text))

    def __eq__(self, other):
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        return NotImplemented

    def __hash__(self):
        return hash((HalfInt, self.twice))

    def __str__(self):
        return text(self.twice)

    def __repr__(self):
        return f"HalfInt({self.twice})"
