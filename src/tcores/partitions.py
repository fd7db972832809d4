"""Integer partitions with hooks, contents and t-core tests."""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import Iterator


class InvalidPartitionError(ValueError):
    pass


class Partition:
    """A weakly decreasing sequence of positive integers (possibly empty).

    Values are immutable; the empty partition serializes as "-" and a
    nonempty one as a comma-separated part list, e.g. "8,4,3,2,2,1".
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise InvalidPartitionError(f"parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise InvalidPartitionError(f"parts must be weakly decreasing: {parts}")
        self.parts = parts

    @classmethod
    def parse(cls, text: str) -> "Partition":
        text = text.strip()
        if text in ("-", ""):
            return cls(())
        try:
            return cls(tuple(int(s) for s in text.split(",")))
        except ValueError as exc:
            raise InvalidPartitionError(f"cannot parse partition {text!r}") from exc

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        return _trusted(tuple(_conjugate_parts(self.parts)))

    def cells(self) -> Iterator[tuple[int, int]]:
        """All cells (i, j), 1-based, row-major."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield i, j

    def hooks(self, r: int = 1) -> tuple[int, ...]:
        """Hook lengths of all cells divisible by r, in row-major cell order,
        visited cell by cell: the oracle for `hook_tally`."""
        if r < 1:
            raise ValueError("r must be a positive integer")
        conj = _conjugate_parts(self.parts)
        out = []
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                h = p - j + conj[j - 1] - i + 1
                if h % r == 0:
                    out.append(h)
        return tuple(out)

    def contents(self) -> tuple[int, ...]:
        """Contents j - i of all cells, row-major."""
        return tuple(j - i for i, j in self.cells())

    def small_hook_counts(self, t: int) -> tuple[int, ...]:
        """Counts (b_1, ..., b_{t-1}) where b_i is the number of cells
        with hook length exactly t - i, read off `hook_tally`."""
        if t < 1:
            raise ValueError("t must be a positive integer")
        tally = hook_tally(self.parts)
        return tuple(tally.get(t - i, 0) for i in range(1, t))

    def row_moment(self) -> int:
        """Sum of (i - 1) * part_i, the exponent in the hook-content formula."""
        return sum((i - 1) * p for i, p in enumerate(self.parts, start=1))

    def is_t_core(self, t: int) -> bool:
        """The filter route's abacus test (Garvan-Kim-Stanton), `abacus_is_t_core`
        on `abacus_beads`; the coding route tests its own bead sets instead."""
        if t < 1:
            raise ValueError("t must be a positive integer")
        return abacus_is_t_core(abacus_beads(self.parts), t)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __str__(self):
        return ",".join(map(str, self.parts)) if self.parts else "-"

    def __repr__(self):
        return f"Partition({self.parts})"


def _trusted(parts: tuple[int, ...]) -> Partition:
    """A Partition of a tuple already known to be weakly decreasing and
    positive; skips the validation in __init__."""
    p = object.__new__(Partition)
    p.parts = parts
    return p


def hook_tally(parts: tuple[int, ...]) -> dict[int, int]:
    """Hook length -> number of cells of the partition with that hook, each
    count at least 1, counted from the beta numbers rather than cell by cell
    (`Partition.hooks` is the oracle): see `_add_hook_edges`."""
    if not parts:
        return {}
    top = parts[0] + len(parts) - 1  # the hook of the corner cell (1, 1)
    edges = [0] * (top + 2)
    _add_hook_edges(edges, parts, 0, 1)
    return {h: m for h, m in zip(range(1, top + 1), accumulate(edges[1:])) if m}


def _add_hook_edges(edges: list[int], parts: tuple[int, ...], base: int, sign: int) -> None:
    """Add `sign` once per cell at its hook length h into the difference
    array `edges`, whose index h - base holds the step from h - 1 to h.

    With n parts, the beta numbers b_i = part_i + n - i decrease strictly to
    b_n >= 1, and row i holds the hooks 1..b_i less b_i - b_j for each j > i
    (each such difference lies in 1..b_i - 1): n runs and n(n - 1)/2
    points, where a walk over the cells takes |lambda| steps."""
    n = len(parts)
    beta = [p + n - i for i, p in enumerate(parts, start=1)]
    edges[1 - base] += n * sign
    for b in beta:
        edges[b + 1 - base] -= sign
    for b, c in combinations(beta, 2):
        d = b - c - base
        edges[d] -= sign
        edges[d + 1] += sign


def abacus_beads(parts: tuple[int, ...]) -> set[int]:
    """The beads x_i = part_i - i of the abacus, i = 1..length; every value
    below -length is a bead too, so the set stands for the whole abacus."""
    return {p - i for i, p in enumerate(parts, start=1)}


def abacus_is_t_core(beads: set[int], t: int) -> bool:
    """Whether an `abacus_beads` set is closed under x -> x - t down to the
    floor -len(beads), below which every value is a bead: the partition is
    a t-core iff it is (Garvan-Kim-Stanton).  A caller testing several t on
    one partition builds its bead set once."""
    lowest = t - len(beads)  # the beads x whose x - t is at or above the floor
    return beads.issuperset([x - t for x in beads if x >= lowest])


def _conjugate_parts(parts: tuple[int, ...]) -> list[int]:
    """Conjugate part list: entry j-1 counts the parts >= j."""
    out = []
    i = len(parts)
    for j in range(1, parts[0] + 1 if parts else 1):
        while parts[i - 1] < j:
            i -= 1
        out.append(i)
    return out


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, reverse-lexicographic on parts (largest first).

    A successor loop instead of recursion, the descending-form rule that
    Kelleher and O'Sullivan (arXiv:0909.2331) compare with ascending
    generation: strip the trailing 1s, lower the last part v+1 > 1 to v, and
    refill the freed amount greedily with parts of size at most v.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    a = [n] if n else []
    while True:
        yield _trusted(tuple(a))
        rem = 0
        while a and a[-1] == 1:
            a.pop()
            rem += 1
        if not a:
            return
        v = a.pop() - 1
        q, r = divmod(rem + v + 1, v)
        a.extend([v] * q)
        if r:
            a.append(r)


def partitions_up_to(max_n: int) -> Iterator[Partition]:
    """All partitions of every size 0..max_n, sizes ascending."""
    for n in range(max_n + 1):
        yield from enumerate_partitions(n)


def enumerate_t_cores(t: int, max_n: int) -> list[Partition]:
    """All t-cores of size at most max_n, by filtering the full enumeration:
    the oracle for `coding.cores_from_codings`, which feeds the sweeps."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    return [p for p in partitions_up_to(max_n) if p.is_t_core(t)]
