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
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

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
        return tuple(
            tw for tw in range(self.top, self.ray_top, -2) if tw not in self._head_set
        )


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


@dataclass(frozen=True)
class CodingDiagnostics:
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
    parity_ok = all(tw % 2 == want_parity for tw in twice)
    if not parity_ok:
        msgs.append("values must lie in Z for odd t and Z+1/2 for even t")
    decreasing_ok = all(twice[i] > twice[i + 1] for i in range(len(twice) - 1))
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
    head = tuple(2 * (p - i) + shift for i, p in enumerate(partition.parts, start=1))
    return BeadSet(head, shift - 2 * (len(partition.parts) + 1), t)


def core_coding(partition: Partition, t: int) -> CoreCoding:
    """Largest bead in each congruence class modulo t, sorted decreasing.

    Defined exactly on t-cores; raises NotACoreError otherwise.
    """
    if not partition.is_t_core(t):
        raise NotACoreError(f"{partition} has a hook length divisible by {t}")
    beads = bead_set(partition, t)
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
    num = 3 * sum(tw * tw for tw in twice) - t * t * t + t
    size, rem = divmod(num, 24 * t)
    if rem or size < 0:
        raise NonIntegerSizeError(f"size formula gave {Fraction(num, 24 * t)}")
    return size


def coding_to_core(coding: CoreCoding) -> Partition:
    """Rebuild the t-core from its coding.

    The bead set is the union of the descending arithmetic rays
    {a, a-t, a-2t, ...} over coding entries a; reading the merged beads in
    decreasing order w_1 > w_2 > ... recovers part_i = w_i + i - (t+1)/2.
    A core of size n has at most n parts, so w_(n+1) = (t+1)/2 - (n+1) and
    the beads at or above it are exactly w_1, ..., w_(n+1): each ray is read
    only that far.  A CoreCoding is valid by construction, so it is not
    validated again.
    """
    values, t = coding.twice, coding.t
    n = _size(values, t)
    shift = t + 1
    lo = shift - 2 * (n + 1)
    step = 2 * t
    merged = sorted((tw for v in values for tw in range(v, lo - 1, -step)), reverse=True)
    parts = []
    prev = None
    for i, w in enumerate(merged, start=1):
        tw = w + 2 * i - shift
        if tw % 2:
            raise InvalidCodingError("bead read-off produced a half-integer part")
        lam = tw // 2
        if lam < 0 or (prev is not None and lam > prev):
            raise InvalidCodingError("bead read-off is not weakly decreasing")
        if lam > 0:
            parts.append(lam)
        prev = lam
    if sum(parts) != n:
        raise InvalidCodingError("bead read-off does not match the size formula")
    # the loop above has checked every part positive and weakly decreasing
    return _trusted_partition(tuple(parts))


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
    """
    twice, t = coding.twice, coding.t
    a_tw = -twice[-1]
    parts = []
    for i, v in enumerate(twice, start=1):
        tw = v - 2 * t + 2 * i + a_tw
        mu_i = tw // 2
        if mu_i > 0:
            parts.append(mu_i)
    return Partition(tuple(parts))


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
    if len(mu.parts) > t - 1:
        return False
    residues = {(mu.part(i) - i) % t for i in range(1, t + 1)}
    return len(residues) == t


def bead_relation_checks(partition: Partition, coding: CoreCoding) -> dict[str, bool]:
    """Executable forms of the bead-set relations satisfied by a t-core and
    its coding.

    ray_closure        every bead keeps its t-step predecessor in the set
    mirror_intersection coding = beads of the partition meeting the negated
                        beads of its conjugate (checked on a finite window)
    conjugate_negation conjugating negates and reverses the coding
    dagger_complement  non-coding beads above -M2 are the negated gaps of
                        the conjugate side
    zero_sum           the coding sums to zero
    """
    t = coding.t
    conj = partition.conjugate()
    coding2 = core_coding(conj, t)
    beads1 = bead_set(partition, t)
    beads2 = bead_set(conj, t)
    top1, top2 = beads1.top, beads2.top

    ray_closure = all(h - 2 * t in beads1 for h in beads1.head)

    w1_window = set(beads1.elements_down_to(-top2))
    w2_window = set(beads2.elements_down_to(-top1))
    mirror = {tw for tw in w1_window if -tw in w2_window}
    v1 = set(coding.twice)
    mirror_intersection = mirror == v1

    conjugate_negation = coding2.twice == tuple(-v for v in reversed(coding.twice))

    dagger_window = {tw for tw in w1_window if tw not in v1}
    gaps2 = {-g for g in beads2.gaps()}
    dagger_complement = dagger_window == gaps2

    zero_sum = sum(coding.twice) == 0

    return {
        "ray_closure": ray_closure,
        "mirror_intersection": mirror_intersection,
        "conjugate_negation": conjugate_negation,
        "dagger_complement": dagger_complement,
        "zero_sum": zero_sum,
    }


def enumerate_codings(t: int, max_size: int) -> list[CoreCoding]:
    """All codings whose encoded size is at most max_size.

    Enumerates one representative per residue class directly, so the result
    is an independent route to the t-cores (no partition enumeration).
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    tw0 = 0 if t % 2 else 1
    # doubled values: u_i = tw0 + 2i + 2t*k_i; sum must vanish
    base = [tw0 + 2 * i for i in range(t)]
    # bound on the sum of squared doubled values: size <= max_size exactly
    # when sum tw^2 <= 8t max_size + (t^3 - t)/3, and 3 divides (t-1)t(t+1)
    budget = 8 * t * max_size + (t * t * t - t) // 3
    by_size: dict[int, list[tuple[int, ...]]] = {}

    def rec(i, remaining_sum, remaining_budget, chosen):
        if i == t:
            if remaining_sum == 0:
                # one entry per class, so distinct: a valid coding
                values = tuple(sorted(chosen, reverse=True))
                size = _size(values, t)
                if size <= max_size:
                    by_size.setdefault(size, []).append(values)
            return
        slots_left = t - i
        # Cauchy-Schwarz: the remaining doubled values must cover remaining_sum
        if remaining_sum * remaining_sum > slots_left * remaining_budget:
            return
        b = base[i]
        s = math.isqrt(remaining_budget)
        k_lo = -((s + b) // (2 * t))
        k_hi = (s - b) // (2 * t)
        for k in range(k_lo, k_hi + 1):
            tw = b + 2 * t * k
            sq = tw * tw
            if sq > remaining_budget:
                continue
            chosen.append(tw)
            rec(i + 1, remaining_sum - tw, remaining_budget - sq, chosen)
            chosen.pop()

    rec(0, 0, budget, [])
    # sizes ascending, then entries lexicographically decreasing
    return [_trusted(values, t) for size in sorted(by_size)
            for values in sorted(by_size.pop(size), reverse=True)]


def cores_from_codings(t: int, max_size: int) -> list[Partition]:
    """t-cores of size <= max_size built by inverting enumerated codings, in
    the filter route's order: the codings come sizes ascending and decreasing
    within a size, and where two first differ, at v_k > v'_k, their bead
    sets first differ at the bead v_k, so the parts decrease too."""
    cores = enumerate_codings(t, max_size)
    for i, c in enumerate(cores):  # in place: never both lists at once
        cores[i] = coding_to_core(c)
    return cores


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
