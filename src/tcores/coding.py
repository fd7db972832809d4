"""Bead sets, core codings and both size formulas for t-cores.

The bead set of a partition shifts its parts onto a descending sequence of
(half-)integers; picking the largest bead in each congruence class modulo t
gives a length-t coding that determines a t-core completely.  The companion
map sends a t-core to a bounded-length partition whose hooks and contents
re-express the same data.

Every bead and coding entry is held as the int equal to twice its value
(integers for odd t, halves of odd integers for even t), so both size
formulas are integer divisions checked for a remainder.  Raw values enter
only through `CoreCoding(values, t)` (a bare int is a whole value, a
`HalfInt` any value), `CoreCoding.parse` (text such as "21/2") and
`validate_coding`; every other function takes a `CoreCoding`, with its t.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .halfint import HalfInt
from .partitions import Partition, _trusted as _trusted_partition


class NotACoreError(ValueError):
    """The partition has a hook length divisible by t."""


class InvalidCodingError(ValueError):
    """A vector fails one of the coding conditions."""


class NonIntegerSizeError(ValueError):
    """A size formula did not produce a nonnegative integer."""


class BeadSet:
    """The set {part_i - i + (t+1)/2 : i >= 1} for a partition.

    Every member is held doubled, as the int 2x.  Only finitely many members
    sit above the full descending ray, so the set is stored as a strictly
    decreasing `head` plus the ray top `ray_top`: tw is a member iff
    tw <= ray_top or tw appears in the head.
    """

    __slots__ = ("head", "ray_top", "t", "_head_set")

    def __init__(self, head: tuple[int, ...], ray_top: int, t: int):
        self.head = head
        self.ray_top = ray_top
        self.t = t
        self._head_set = frozenset(head)

    @property
    def top(self) -> int:
        """Largest member (M), doubled."""
        return self.head[0] if self.head else self.ray_top

    def __contains__(self, tw: int) -> bool:
        return tw <= self.ray_top or tw in self._head_set

    def elements_down_to(self, lo: int) -> list[int]:
        """All members tw with lo <= tw, sorted decreasing."""
        out = [h for h in self.head if h >= lo]
        out.extend(range(self.ray_top, lo - 1, -2))
        return out

    def gaps(self) -> tuple[int, ...]:
        """Missing values between the top and the ray, sorted decreasing."""
        head = self._head_set
        return tuple([tw for tw in range(self.top, self.ray_top, -2) if tw not in head])


class CoreCoding:
    """A strictly decreasing, zero-sum vector of t (half-)integers that hits
    every congruence class modulo t exactly once, held doubled in `twice`.

    Entries come in as whole ints or `HalfInt`s (see `_coerce`) and are
    validated; `core_coding` and `enumerate_codings` build codings they
    already know to be valid through `_trusted` instead.
    """

    __slots__ = ("twice", "t")

    def __init__(self, values, t: int | None = None):
        self.twice, self.t = _coerce(values, t)
        diag = _diagnose(self.twice, self.t)
        if not diag.valid:
            raise InvalidCodingError("; ".join(diag.messages))

    @classmethod
    def parse(cls, text: str, t: int) -> "CoreCoding":
        return cls([HalfInt.parse(s) for s in text.split(",")], t)

    def __eq__(self, other):
        return (
            isinstance(other, CoreCoding)
            and self.t == other.t
            and self.twice == other.twice
        )

    def __hash__(self):
        return hash((self.t, self.twice))

    def __str__(self):
        return ",".join(str(HalfInt(tw)) for tw in self.twice)

    def __repr__(self):
        return f"CoreCoding([{self}], t={self.t})"


def _trusted(twice: tuple[int, ...], t: int) -> CoreCoding:
    """A CoreCoding of doubled entries already known to form a coding; skips
    the validation in __init__."""
    c = object.__new__(CoreCoding)
    c.twice = twice
    c.t = t
    return c


class CodingDiagnostics(NamedTuple):
    """Which coding conditions hold, with a message per failing one."""

    valid: bool
    length_ok: bool
    parity_ok: bool
    residues_ok: bool
    zero_sum_ok: bool
    decreasing_ok: bool
    messages: tuple[str, ...]


def validate_coding(values, t: int | None = None) -> CodingDiagnostics:
    """Check the three coding conditions and report which ones fail.

    (i) the values occupy all t congruence classes modulo t (one each),
    (ii) they sum to zero, (iii) they are strictly decreasing.  All values
    must be integers for odd t and half-odd-integers for even t.
    """
    return _diagnose(*_coerce(values, t))


def _diagnose(twice: tuple[int, ...], t: int) -> CodingDiagnostics:
    if t < 1:
        raise ValueError("t must be a positive integer")
    msgs = []
    length_ok = len(twice) == t
    if not length_ok:
        msgs.append(f"expected {t} values, got {len(twice)}")
    want_parity = 0 if t % 2 else 1
    parity_ok = {tw % 2 for tw in twice} <= {want_parity}
    if not parity_ok:
        msgs.append("values must lie in Z for odd t and Z+1/2 for even t")
    decreasing_ok = all(map(operator.gt, twice, twice[1:]))
    if not decreasing_ok:
        msgs.append("condition (iii) fails: not strictly decreasing")
    zero_sum_ok = sum(twice) == 0
    if not zero_sum_ok:
        msgs.append("condition (ii) fails: sum is not zero")
    residues_ok = (
        length_ok
        and parity_ok
        and len({tw % (2 * t) for tw in twice}) == t
    )
    if length_ok and parity_ok and not residues_ok:
        msgs.append("condition (i) fails: residue classes mod t not all covered")
    valid = length_ok and parity_ok and residues_ok and zero_sum_ok and decreasing_ok
    return CodingDiagnostics(
        valid, length_ok, parity_ok, residues_ok, zero_sum_ok, decreasing_ok, tuple(msgs)
    )


def bead_set(partition: Partition, t: int) -> BeadSet:
    """Bead set of a partition: {part_i - i + (t+1)/2}, doubled."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    shift = t + 1  # doubled value of (t+1)/2
    head = tuple([2 * (p - i) + shift for i, p in enumerate(partition.parts, start=1)])
    return BeadSet(head, shift - 2 * (len(partition.parts) + 1), t)


def core_coding(partition: Partition, t: int) -> CoreCoding:
    """Largest bead in each congruence class modulo t, sorted decreasing.

    Defined exactly on t-cores, whose bead sets are closed under the step
    down by t (Garvan-Kim-Stanton); raises NotACoreError otherwise.
    """
    return _read_coding(partition, bead_set(partition, t))


def _read_coding(partition: Partition, beads: BeadSet) -> CoreCoding:
    """`core_coding` read off the partition's bead set, already built."""
    if not _closed(beads):
        raise NotACoreError(f"{partition} has a hook length divisible by {beads.t}")
    return _class_tops(beads)


def _closed(beads: BeadSet) -> bool:
    """Whether every bead keeps its step down by t (the ray does): a t-core.
    A head bead at or below the ray top plus t steps onto the ray, so only
    the steps from the beads above that must be in the head."""
    step = 2 * beads.t
    above = beads.ray_top + step
    return beads._head_set.issuperset([tw - step for tw in beads.head if tw > above])


def _class_tops(beads: BeadSet) -> CoreCoding:
    """The coding of a t-core's bead set: its largest bead in each class."""
    t = beads.t
    # candidates in decreasing order: the head, then the top t ray elements,
    # which cover every class at least once; the first hit per class is its
    # largest bead, and the dict keeps the hits in that decreasing order
    best: dict[int, int] = {}
    for tw in chain(beads.head, range(beads.ray_top, beads.ray_top - 2 * t, -2)):
        best.setdefault(tw % (2 * t), tw)
    return _trusted(tuple(best.values()), t)


def coding_size(coding: CoreCoding) -> int:
    """Size of the t-core encoded by a coding: (sum of squares)/(2t) - (t^2-1)/24.

    On doubled entries this is (3 sum tw^2 - t^3 + t) / (24t), taken exactly.
    """
    return _size(coding.twice, coding.t)


def _size(twice: tuple[int, ...], t: int) -> int:
    num = 3 * sum(map(operator.mul, twice, twice)) - t * t * t + t
    size, rem = divmod(num, 24 * t)
    if rem or size < 0:
        raise NonIntegerSizeError(f"size formula gave {Fraction(num, 24 * t)}")
    return size


def coding_to_core(coding: CoreCoding) -> Partition:
    """Rebuild the t-core from its coding.

    The entries fill a table of their classes, and `_read_off` reads the
    parts off it in one upward scan from the smallest entry plus t, the
    first position of that entry's class above it, to the largest entry:
    every position below the start is a bead with no gap under it.

    A CoreCoding is valid by construction, so it is not validated again;
    the checks left catch a trusted vector that is not a coding.  Entries
    that miss a class, share one, or have the wrong parity for t fail the
    class table.  With one entry per class, a nonzero sum shifts every bead
    by the same c, which leaves the gap count alone but raises the size
    formula by c^2/2, and entries out of order shorten the scan, which can
    only lose parts or gaps; both read-offs fall short of the formula.
    """
    values, t = coding.twice, coding.t
    n = _size(values, t)
    step = 2 * t
    top = [None] * step  # entry of each class, indexed by doubled residue
    for v in values:
        top[v % step] = v
    # t entries filling the t classes of t's parity fill each exactly once
    if len(values) != t or None in top[(t + 1) % 2::2]:
        raise InvalidCodingError("entries do not fill each class mod t once")
    return _trusted_partition(_read_off(top, n, values[-1], values[0]))


def _read_off(top: list, n: int, lo: int, hi: int) -> tuple[int, ...]:
    """Parts, largest first, of the t-core of size n whose doubled coding
    entries fill the class table `top` (length 2t, indexed by doubled
    residue mod 2t), with smallest entry lo and largest hi; raises
    InvalidCodingError when the parts do not sum to n.

    The bead set is the union of the descending rays {a, a-t, a-2t, ...}
    over coding entries a, so a position is a bead exactly when it lies at
    or below the entry of its class, and a bead's part is the number of
    gaps (non-beads) below it.  Every class has an entry at or above lo, so
    every position below lo + t, the first position of lo's own class above
    lo, is a bead with no gap under it: one upward scan from lo + t to hi
    reads every positive part, smallest first.  The gap count never falls
    as the scan rises, so the parts come out positive and weakly decreasing
    by construction.
    """
    step = len(top)
    parts = []
    gaps = 0
    for p in range(lo + step, hi + 1, 2):
        if p <= top[p % step]:
            if gaps:
                parts.append(gaps)
        else:
            gaps += 1
    if sum(parts) != n:
        raise InvalidCodingError("bead read-off does not match the size formula")
    parts.reverse()
    return tuple(parts)


def class_sorted_coding(coding: CoreCoding) -> tuple[int, ...]:
    """Doubled coding entries reordered so the i-th one lies in class
    i + t_0 mod t."""
    t = coding.t
    tw0 = 0 if t % 2 else 1
    by_class = {tw % (2 * t): tw for tw in coding.twice}
    return tuple(by_class[(tw0 + 2 * i) % (2 * t)] for i in range(t))


def content_coding(coding: CoreCoding) -> Partition:
    """Map a t-core's coding v to the partition mu, mu_i = v_i - t + i - min(v).

    The image consists of the partitions of length at most t-1 whose values
    mu_i - i (i = 1..t, trailing zeros included) cover all classes modulo t.
    A coding's doubled entries fall by 2 or more per step, so mu_i - mu_(i+1)
    = (v_i - v_(i+1))/2 - 1 >= 0: mu is weakly decreasing by construction
    and is not validated again.
    """
    twice, t = coding.twice, coding.t
    shift = 2 * t + twice[-1]  # doubled t - i + min(v) at i = 0
    parts = []
    for i, v in enumerate(twice, start=1):
        mu_i = (v - shift) // 2 + i
        if mu_i <= 0:
            break
        parts.append(mu_i)
    return _trusted_partition(tuple(parts))


def content_coding_size(mu: Partition, t: int) -> int:
    """Size of the t-core mapped to mu, from mu alone:

    -m(m + t + t^2)/(2t^2) + sum_i (mu_i^2 + 2(t+1-i) mu_i)/(2t), m = |mu|,
    taken exactly over the common denominator 2t^2.
    """
    m = mu.size
    num = -m * (m + t + t * t) + t * sum(
        p * p + 2 * (t + 1 - i) * p for i, p in enumerate(mu.parts, start=1)
    )
    size, rem = divmod(num, 2 * t * t)
    if rem or size < 0:
        raise NonIntegerSizeError(f"size formula gave {Fraction(num, 2 * t * t)}")
    return size


def is_content_coding_image(mu: Partition, t: int) -> bool:
    """Whether mu has length <= t-1 and mu_i - i covers all classes mod t."""
    parts = mu.parts
    if len(parts) > t - 1:
        return False
    residues = {(p - i) % t for i, p in enumerate(parts, start=1)}
    residues.update(-i % t for i in range(len(parts) + 1, t + 1))  # the trailing zeros
    return len(residues) == t


def bead_relation_checks(partition: Partition, beads: BeadSet, coding: CoreCoding) -> dict[str, bool]:
    """Executable forms of the bead-set relations satisfied by a t-core,
    given with its bead set and the coding the caller has read off that set
    (its largest bead per class), so the coding is read once per core.

    ray_closure        every bead keeps its t-step predecessor in the set
    mirror_intersection coding = beads of the partition meeting the negated
                        beads of its conjugate (checked on a finite window)
    conjugate_negation conjugating negates and reverses the coding
    dagger_complement  non-coding beads above -M2 are the negated gaps of
                        the conjugate side
    zero_sum           the coding sums to zero
    """
    conj = partition.conjugate()
    beads2 = bead_set(conj, beads.t)
    return next(_bead_relations(beads, coding, beads2, _read_coding(conj, beads2)))


def _bead_relations(beads: BeadSet, coding: CoreCoding, beads2: BeadSet, coding2: CoreCoding):
    """`bead_relation_checks` of a core, with its bead set and coding, and
    then of its conjugate, with beads2 and coding2: the conjugate side of
    each is the other.  Each side's window [-M2, M1] or [-M1, M2] is read
    once, and the two cores' mirror_intersection and conjugate_negation are
    one statement each, negated, so each is read once: the conjugate's
    intersection is the core's negated.  A generator, so a caller that
    wants only the core's relations builds no more."""
    w1 = set(beads.elements_down_to(-beads2.top))
    w2 = set(beads2.elements_down_to(-beads.top))
    meet = w1.intersection(map(operator.neg, w2))
    negation = coding2.twice == tuple(map(operator.neg, reversed(coding.twice)))
    yield _side_relations(beads, coding, w1, meet, beads2, negation)
    yield _side_relations(beads2, coding2, w2, set(map(operator.neg, meet)), beads, negation)


def _side_relations(beads, coding, window, meet, other, negation) -> dict[str, bool]:
    """The relations of one side: its window as a set, that window's
    intersection `meet` with the negated window of the other side, whose
    bead set is `other`, and the conjugate_negation statement."""
    v = set(coding.twice)
    return {
        "ray_closure": _closed(beads),
        "mirror_intersection": meet == v,
        "conjugate_negation": negation,
        "dagger_complement": window - v == set(map(operator.neg, other.gaps())),
        "zero_sum": sum(coding.twice) == 0,
    }


def enumerate_codings(t: int, max_size: int) -> list[CoreCoding]:
    """All codings whose encoded size is at most max_size, sizes ascending,
    then entries lexicographically decreasing.

    Enumerates one representative per residue class directly, so the result
    is an independent route to the t-cores (no partition enumeration).
    """
    tw0 = (t + 1) % 2

    def leaf(top, n, lo, hi):
        return tuple(sorted(top[tw0::2], reverse=True))

    return [_trusted(values, t) for values in _walk(t, max_size, leaf)]


def cores_from_codings(t: int, max_size: int) -> list[Partition]:
    """t-cores of size <= max_size, each read off its coding at the leaf of
    the coding walk, in the filter route's order: sizes ascending, then
    parts lexicographically decreasing.

    No coding is built: the walk hands its class table, the leaf's size
    and its extreme entries straight to `_read_off`, so no core runs the
    size formula or sorts its entries.  Where two codings of one size first differ,
    at v_k > v'_k in decreasing order, their bead sets first differ at the
    bead v_k, so the order by parts is the order of the codings.
    """
    return [_trusted_partition(parts) for parts in _walk(t, max_size, _read_off)]


def _walk(t: int, max_size: int, leaf):
    """Yield `leaf(top, n, lo, hi)` for every t-core coding of size
    n <= max_size: sizes ascending, then the leaf values decreasing.

    `top` is the coding's class table, each doubled entry at its doubled
    residue mod 2t (the slots of the other parity hold None), and lo and hi
    are its smallest and largest entries.  The walk fills the table in
    place, so a leaf keeps a copy of what it needs.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    step = 2 * t
    top = [None] * step
    if t == 1:
        # the only 1-core is the empty partition, coded by (0)
        top[0] = 0
        if max_size >= 0:
            yield leaf(top, 0, 0, 0)
        return
    tw0 = 0 if t % 2 else 1
    # doubled values: u_i = tw0 + 2i + 2t*k_i, so entry i sits at top[base[i]];
    # the sum vanishes, so the first t - 2 entries leave the last two a
    # fixed sum
    base = [tw0 + 2 * i for i in range(t)]
    pair, b_pair, b_last = t - 2, base[t - 2], base[t - 1]
    # bound on the sum of squared doubled values: size <= max_size exactly
    # when sum tw^2 <= 8t max_size + (t^3 - t)/3, and 3 divides (t-1)t(t+1)
    budget = 8 * t * max_size + (t * t * t - t) // 3
    by_size: dict[int, list] = {}

    def rec(i, remaining_sum, remaining_budget, lo, hi):
        if i == pair:
            # the last two entries x + y = s fit the budget B exactly when
            # (2x - s)^2 <= 2B - s^2, so x runs over one interval of its class
            s = remaining_sum
            spread = 2 * remaining_budget - s * s
            if spread < 0:
                return
            r = math.isqrt(spread)
            k_lo = -((b_pair - (s - r + 1) // 2) // step)
            k_hi = ((s + r) // 2 - b_pair) // step
            for k in range(k_lo, k_hi + 1):
                x = b_pair + step * k
                y = s - x
                # cannot fail: the base values sum to t*tw0 + t(t-1), which is
                # 0 mod 2t for either parity of t, so entries taking one from
                # each class sum to 0 mod 2t; the first t - 1 take one from
                # each of their classes and y brings the sum to 0, so y is in
                # the last class, and distinct from every other entry
                if (y - b_last) % step:
                    raise InvalidCodingError(f"last entry {y} left its class")
                # sum tw^2 = budget - rest, so the size formula reads
                # max_size - rest/(8t): no sum of squares, and at most max_size
                rest = remaining_budget - x * x - y * y
                drop, rem = divmod(rest, 8 * t)
                if rem or drop > max_size:
                    num = 3 * (budget - rest) - t * t * t + t
                    raise NonIntegerSizeError(f"size formula gave {Fraction(num, 24 * t)}")
                top[b_pair] = x
                top[b_last] = y
                n = max_size - drop
                if x < y:
                    leaf_lo = x if x < lo else lo
                    leaf_hi = y if y > hi else hi
                else:
                    leaf_lo = y if y < lo else lo
                    leaf_hi = x if x > hi else hi
                by_size.setdefault(n, []).append(leaf(top, n, leaf_lo, leaf_hi))
            return
        slots_left = t - i
        # Cauchy-Schwarz: the remaining doubled values must cover remaining_sum
        if remaining_sum * remaining_sum > slots_left * remaining_budget:
            return
        b = base[i]
        s = math.isqrt(remaining_budget)
        # the k range keeps |tw| <= s, so every tw^2 fits the remaining budget
        k_lo = -((s + b) // step)
        k_hi = (s - b) // step
        for k in range(k_lo, k_hi + 1):
            tw = b + step * k
            top[b] = tw
            rec(i + 1, remaining_sum - tw, remaining_budget - tw * tw,
                tw if tw < lo else lo, tw if tw > hi else hi)

    rec(0, 0, budget, math.inf, -math.inf)
    for n in sorted(by_size):
        yield from sorted(by_size.pop(n), reverse=True)


def _coerce(coding, t):
    """Doubled entries and t of a coding given as a CoreCoding or as a
    sequence in which a bare int is a whole value and a HalfInt any value."""
    if isinstance(coding, CoreCoding):
        return coding.twice, coding.t if t is None else t
    if t is None:
        raise ValueError("t is required when the coding is a bare sequence")
    values = tuple(
        v.twice if isinstance(v, HalfInt) else 2 * operator.index(v) for v in coding
    )
    return values, t
