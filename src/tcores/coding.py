"""Bead sets, core codings and both size formulas for t-cores.

The bead set of a partition shifts its parts onto a descending sequence of
(half-)integers; picking the largest bead in each congruence class modulo t
gives a length-t coding that determines a t-core completely.  The companion
map sends a t-core to a bounded-length partition whose hooks and contents
re-express the same data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .halfint import HalfInt
from .partitions import Partition


class NotACoreError(ValueError):
    """The partition has a hook length divisible by t."""


class InvalidCodingError(ValueError):
    """A vector fails one of the coding conditions."""


class NonIntegerSizeError(ValueError):
    """A size formula did not produce a nonnegative integer."""


class BeadSet:
    """The set {part_i - i + (t+1)/2 : i >= 1} for a partition.

    Only finitely many elements sit above the full descending ray, so the
    set is stored as a strictly decreasing head plus the ray top `ray_top`:
    x is a member iff x <= ray_top or x appears in the head.  The doubled
    head values are kept as a frozenset, built once, for membership tests.
    """

    __slots__ = ("head", "ray_top", "t", "head_twice")

    def __init__(self, head: tuple[HalfInt, ...], ray_top: HalfInt, t: int):
        self.head = head
        self.ray_top = ray_top
        self.t = t
        self.head_twice = frozenset(h.twice for h in head)

    @property
    def top(self) -> HalfInt:
        """Largest member (M)."""
        return self.head[0] if self.head else self.ray_top

    def __contains__(self, x: HalfInt) -> bool:
        return self.contains_twice(x.twice)

    def contains_twice(self, tw: int) -> bool:
        return tw <= self.ray_top.twice or tw in self.head_twice

    def elements_down_to(self, lo: HalfInt) -> list[HalfInt]:
        """All members x with lo <= x, sorted decreasing."""
        out = [h for h in self.head if h.twice >= lo.twice]
        tw = self.ray_top.twice
        while tw >= lo.twice:
            out.append(HalfInt(tw))
            tw -= 2
        return out

    def gaps(self) -> tuple[HalfInt, ...]:
        """Missing values between the top and the ray, sorted decreasing."""
        out = []
        tw = self.top.twice
        while tw > self.ray_top.twice:
            if tw not in self.head_twice:
                out.append(HalfInt(tw))
            tw -= 2
        return tuple(out)


class CoreCoding:
    """A strictly decreasing, zero-sum vector of t (half-)integers that hits
    every congruence class modulo t exactly once."""

    __slots__ = ("values", "t")

    def __init__(self, values, t: int, validate: bool = True):
        values = tuple(v if isinstance(v, HalfInt) else HalfInt.whole(v) for v in values)
        self.values = values
        self.t = t
        if validate:
            diag = validate_coding(values, t)
            if not diag.valid:
                raise InvalidCodingError("; ".join(diag.messages))

    @classmethod
    def parse(cls, text: str, t: int) -> "CoreCoding":
        vals = tuple(HalfInt.parse(s) for s in text.split(","))
        return cls(vals, t)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __eq__(self, other):
        return (
            isinstance(other, CoreCoding)
            and self.t == other.t
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.t, self.values))

    def __str__(self):
        return ",".join(str(v) for v in self.values)

    def __repr__(self):
        return f"CoreCoding([{self}], t={self.t})"


@dataclass(frozen=True)
class CodingDiagnostics:
    valid: bool
    length_ok: bool
    parity_ok: bool
    residues_ok: bool
    zero_sum_ok: bool
    decreasing_ok: bool
    messages: tuple[str, ...]


def validate_coding(values, t: int) -> CodingDiagnostics:
    """Check the three coding conditions and report which ones fail.

    (i) the values occupy all t congruence classes modulo t (one each),
    (ii) they sum to zero, (iii) they are strictly decreasing.  All values
    must be integers for odd t and half-odd-integers for even t.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    values = tuple(v if isinstance(v, HalfInt) else HalfInt.whole(v) for v in values)
    msgs = []
    length_ok = len(values) == t
    if not length_ok:
        msgs.append(f"expected {t} values, got {len(values)}")
    want_parity = 0 if t % 2 else 1
    parity_ok = all(v.twice % 2 == want_parity for v in values)
    if not parity_ok:
        msgs.append("values must lie in Z for odd t and Z+1/2 for even t")
    decreasing_ok = all(
        values[i].twice > values[i + 1].twice for i in range(len(values) - 1)
    )
    if not decreasing_ok:
        msgs.append("condition (iii) fails: not strictly decreasing")
    zero_sum_ok = sum(v.twice for v in values) == 0
    if not zero_sum_ok:
        msgs.append("condition (ii) fails: sum is not zero")
    residues_ok = (
        length_ok
        and parity_ok
        and len({v.twice % (2 * t) for v in values}) == t
    )
    if length_ok and parity_ok and not residues_ok:
        msgs.append("condition (i) fails: residue classes mod t not all covered")
    valid = length_ok and parity_ok and residues_ok and zero_sum_ok and decreasing_ok
    return CodingDiagnostics(
        valid, length_ok, parity_ok, residues_ok, zero_sum_ok, decreasing_ok, tuple(msgs)
    )


def bead_set(partition: Partition, t: int) -> BeadSet:
    """Bead set of a partition: {part_i - i + (t+1)/2}."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    shift = t + 1  # doubled value of (t+1)/2
    head = tuple(
        HalfInt(2 * (p - i) + shift) for i, p in enumerate(partition.parts, start=1)
    )
    ray_top = HalfInt(shift - 2 * (len(partition.parts) + 1))
    return BeadSet(head, ray_top, t)


def gap_set_and_bounds(partition: Partition, t: int):
    """Finite complement of the bead set below its top, with the bounds M, m."""
    beads = bead_set(partition, t)
    return beads.gaps(), beads.top, beads.ray_top


def core_coding(partition: Partition, t: int) -> CoreCoding:
    """Largest bead in each congruence class modulo t, sorted decreasing.

    Defined exactly on t-cores; raises NotACoreError otherwise.
    """
    if not partition.is_t_core(t):
        raise NotACoreError(f"{partition} has a hook length divisible by {t}")
    beads = bead_set(partition, t)
    best: dict[int, int] = {}
    candidates = [h.twice for h in beads.head]
    # the top t ray elements cover every class at least once
    candidates.extend(beads.ray_top.twice - 2 * j for j in range(t))
    for tw in candidates:
        r = tw % (2 * t)
        if r not in best or tw > best[r]:
            best[r] = tw
    values = tuple(HalfInt(tw) for tw in sorted(best.values(), reverse=True))
    return CoreCoding(values, t)


def coding_size(coding, t: int | None = None) -> int:
    """Size of the t-core encoded by a coding: (sum of squares)/(2t) - (t^2-1)/24."""
    values, t = _coerce(coding, t)
    total = Fraction(sum(v.twice * v.twice for v in values), 8 * t) - Fraction(
        t * t - 1, 24
    )
    if total.denominator != 1 or total < 0:
        raise NonIntegerSizeError(f"size formula gave {total}")
    return int(total)


def coding_to_core(coding, t: int | None = None) -> Partition:
    """Rebuild the t-core from its coding.

    The bead set is the union of the descending arithmetic rays
    {a, a-t, a-2t, ...} over coding entries a; reading the merged beads in
    decreasing order w_1 > w_2 > ... recovers part_i = w_i + i - (t+1)/2
    until the parts vanish.
    """
    values, t = _coerce(coding, t)
    diag = validate_coding(values, t)
    if not diag.valid:
        raise InvalidCodingError("; ".join(diag.messages))
    n = coding_size(values, t)
    count = n + t + 2
    step = 2 * t
    merged = [tw for v in values for tw in range(v.twice, v.twice - step * count, -step)]
    merged.sort(reverse=True)
    shift = t + 1
    parts = []
    prev = None
    for i in range(1, count + 1):
        tw = merged[i - 1] + 2 * i - shift
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
    return Partition(tuple(parts))


def class_sorted_coding(coding, t: int | None = None) -> tuple[HalfInt, ...]:
    """Coding entries reordered so the i-th one lies in class i + t_0 mod t."""
    values, t = _coerce(coding, t)
    tw0 = 0 if t % 2 else 1
    by_class = {v.twice % (2 * t): v for v in values}
    try:
        return tuple(by_class[(tw0 + 2 * i) % (2 * t)] for i in range(t))
    except KeyError as exc:
        raise InvalidCodingError("coding does not cover all residue classes") from exc


def content_coding(partition: Partition, t: int) -> Partition:
    """Map a t-core to the partition mu with mu_i = v_i - t + i - min(v).

    The image consists of the partitions of length at most t-1 whose values
    mu_i - i (i = 1..t, trailing zeros included) cover all classes modulo t.
    """
    coding = core_coding(partition, t)
    a_tw = -coding.values[-1].twice
    parts = []
    for i, v in enumerate(coding.values, start=1):
        tw = v.twice - 2 * t + 2 * i + a_tw
        mu_i = tw // 2
        if mu_i > 0:
            parts.append(mu_i)
    return Partition(tuple(parts))


def content_coding_size(mu: Partition, t: int) -> int:
    """Size of the t-core mapped to mu, from mu alone."""
    m = mu.size
    total = Fraction(-m * (m + t + t * t), 2 * t * t)
    for i, p in enumerate(mu.parts, start=1):
        total += Fraction(p * p + 2 * (t + 1 - i) * p, 2 * t)
    if total.denominator != 1 or total < 0:
        raise NonIntegerSizeError(f"size formula gave {total}")
    return int(total)


def is_content_coding_image(mu: Partition, t: int) -> bool:
    """Whether mu has length <= t-1 and mu_i - i covers all classes mod t."""
    if len(mu.parts) > t - 1:
        return False
    residues = {(mu.part(i) - i) % t for i in range(1, t + 1)}
    return len(residues) == t


def bead_relation_checks(partition: Partition, t: int) -> dict[str, bool]:
    """Executable forms of the bead-set relations satisfied by t-cores.

    ray_closure        every bead keeps its t-step predecessor in the set
    mirror_intersection coding = beads of the partition meeting the negated
                        beads of its conjugate (checked on a finite window)
    conjugate_negation conjugating negates and reverses the coding
    dagger_complement  non-coding beads above -M2 are the negated gaps of
                        the conjugate side
    zero_sum           the coding sums to zero
    disjoint_partition below the top, every value is exactly one of
                        coding / other bead / gap
    """
    coding = core_coding(partition, t)
    conj = partition.conjugate()
    coding2 = core_coding(conj, t)
    beads1 = bead_set(partition, t)
    beads2 = bead_set(conj, t)
    top1, top2 = beads1.top, beads2.top

    ray_closure = all(
        beads1.contains_twice(h.twice - 2 * t) for h in beads1.head
    )

    w1_window = {x.twice for x in beads1.elements_down_to(HalfInt(-top2.twice))}
    w2_window = {x.twice for x in beads2.elements_down_to(HalfInt(-top1.twice))}
    mirror = {tw for tw in w1_window if -tw in w2_window}
    mirror_intersection = mirror == {v.twice for v in coding.values}

    conjugate_negation = coding2.values == tuple(-v for v in reversed(coding.values))

    v1 = {v.twice for v in coding.values}
    dagger_window = {tw for tw in w1_window if tw not in v1}
    gaps2 = {-g.twice for g in beads2.gaps()}
    dagger_complement = dagger_window == gaps2

    zero_sum = sum(v.twice for v in coding.values) == 0

    gaps1 = {g.twice for g in beads1.gaps()}
    lo = min(beads1.ray_top.twice, coding.values[-1].twice)
    ok = True
    tw = beads1.top.twice
    while tw >= lo:
        in_w = beads1.contains_twice(tw)
        flags = (in_w and tw in v1, in_w and tw not in v1, tw in gaps1)
        if sum(flags) != 1:
            ok = False
            break
        tw -= 2
    disjoint_partition = ok

    return {
        "ray_closure": ray_closure,
        "mirror_intersection": mirror_intersection,
        "conjugate_negation": conjugate_negation,
        "dagger_complement": dagger_complement,
        "zero_sum": zero_sum,
        "disjoint_partition": disjoint_partition,
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
    budget = Fraction(8 * t) * (max_size + Fraction(t * t - 1, 24))
    budget = int(budget)  # bound on sum of squared doubled values
    out: list[CoreCoding] = []

    def rec(i, remaining_sum, remaining_budget, chosen):
        if i == t:
            if remaining_sum == 0:
                values = tuple(HalfInt(tw) for tw in sorted(chosen, reverse=True))
                coding = CoreCoding(values, t)
                if coding_size(coding) <= max_size:
                    out.append(coding)
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
    out.sort(key=lambda c: (coding_size(c), tuple(-v.twice for v in c.values)))
    return out


def cores_from_codings(t: int, max_size: int) -> list[Partition]:
    """t-cores of size <= max_size built by inverting enumerated codings."""
    cores = [coding_to_core(c) for c in enumerate_codings(t, max_size)]
    cores.sort(key=lambda p: (p.size, tuple(-x for x in p.parts)))
    return cores


def _coerce(coding, t):
    if isinstance(coding, CoreCoding):
        return coding.values, coding.t if t is None else t
    if t is None:
        raise ValueError("t is required when the coding is a bare sequence")
    values = tuple(v if isinstance(v, HalfInt) else HalfInt.whole(v) for v in coding)
    return values, t
