from fractions import Fraction

import pytest

from tcores import coding
from tcores.coding import (
    CoreCoding,
    InvalidCodingError,
    NonIntegerSizeError,
    NotACoreError,
    bead_relation_checks,
    bead_set,
    class_sorted_coding,
    coding_size,
    coding_to_core,
    content_coding,
    content_coding_size,
    core_coding,
    cores_from_codings,
    enumerate_codings,
    is_content_coding_image,
    validate_coding,
)
from tcores.halfint import HalfInt
from tcores.partitions import Partition, enumerate_t_cores, partitions_up_to

TABLE1 = Partition((8, 4, 3, 2, 2, 1))
TABLE2 = Partition((8, 5, 4, 1, 1, 1))


def h(text):
    return HalfInt.parse(text)


def tw(text):
    """Doubled int of a (half-)integer written as text."""
    return HalfInt.parse(text).twice


def text(twice):
    """Texts of doubled ints, for comparing with the paper's tables."""
    return [str(HalfInt(x)) for x in twice]


def test_bead_set_table1():
    beads = bead_set(TABLE1, 5)
    assert text(beads.head) == ["10", "5", "3", "1", "0", "-2"]
    assert text([beads.ray_top]) == ["-4"]
    assert text([beads.top]) == ["10"]
    assert tw("-4") in beads and tw("-100") in beads
    assert tw("9") not in beads and tw("-3") not in beads


def test_bead_set_table2_half_integers():
    beads = bead_set(TABLE2, 6)
    assert text(beads.head) == ["21/2", "13/2", "9/2", "1/2", "-1/2", "-3/2"]
    assert text([beads.ray_top]) == ["-7/2"]


def test_bead_set_empty():
    beads = bead_set(Partition(()), 3)
    assert beads.head == ()
    assert text([beads.ray_top]) == ["1"]


def test_bead_membership_against_naive_scan():
    # oracle: list the doubled beads 2(part_i - i) + t + 1 for i = 1..K, with
    # zero parts past the length, and test each value by a plain scan
    for lam in partitions_up_to(12):
        for t in range(1, 7):
            beads = bead_set(lam, t)
            lo = beads.ray_top - 4 * t
            K = len(lam.parts) + (t + 1 - lo) // 2 + 1  # every bead >= lo
            listed = [2 * (lam.part(i) - i) + t + 1 for i in range(1, K + 1)]
            assert listed[-1] < lo
            for x in range(beads.top + 4 * t, lo - 1, -2):  # the lattice of W
                naive = x in listed  # a list: a linear scan
                assert (x in beads) == naive, (lam, t, x)
            gaps = [x for x in range(beads.top, lo - 1, -2) if x not in listed]
            assert list(beads.gaps()) == gaps


def test_core_coding_table1():
    assert str(core_coding(TABLE1, 5)) == "10,3,1,-6,-8"


def test_core_coding_table2():
    assert str(core_coding(TABLE2, 6)) == "21/2,13/2,-1/2,-7/2,-9/2,-17/2"


def test_core_coding_empty():
    for t in range(1, 9):
        c = core_coding(Partition(()), t)
        assert list(c.twice) == [t - 1 - 2 * i for i in range(t)]


def test_core_coding_single_cell_even_t():
    assert str(core_coding(Partition((1,)), 2)) == "3/2,-3/2"


def test_core_coding_rejects_non_core():
    with pytest.raises(NotACoreError):
        core_coding(Partition((6, 3, 3, 2)), 2)


def test_gap_set_table1():
    beads = bead_set(TABLE1, 5)
    assert text(beads.gaps()) == ["9", "8", "7", "6", "4", "2", "-1", "-3"]
    assert text([beads.top, beads.ray_top]) == ["10", "-4"]
    beads2 = bead_set(TABLE1.conjugate(), 5)
    assert text(beads2.gaps()) == ["7", "5", "4", "2", "0", "-5"]
    assert text([beads2.top, beads2.ray_top]) == ["8", "-6"]


def test_gap_set_empty():
    assert bead_set(Partition(()), 4).gaps() == ()


def test_coding_roundtrip_tables():
    assert coding_to_core(core_coding(TABLE1, 5)) == TABLE1
    assert coding_to_core(core_coding(TABLE2, 6)) == TABLE2
    assert coding_to_core(CoreCoding.parse("10,3,1,-6,-8", 5)) == TABLE1
    assert (
        coding_to_core(CoreCoding.parse("21/2,13/2,-1/2,-7/2,-9/2,-17/2", 6)) == TABLE2
    )


def test_coding_to_core_base():
    for t in range(1, 8):
        base = core_coding(Partition(()), t)
        assert coding_to_core(base) == Partition(())


def test_coding_to_core_trusts_a_core_coding(monkeypatch):
    calls = []
    real = coding._diagnose
    monkeypatch.setattr(coding, "_diagnose", lambda tw, t: calls.append(t) or real(tw, t))
    c = CoreCoding.parse("10,3,1,-6,-8", 5)
    calls.clear()
    assert coding_to_core(c) == TABLE1
    assert calls == []
    # raw values are validated where they enter, as a CoreCoding
    assert coding_to_core(CoreCoding([10, 3, 1, -6, -8], 5)) == TABLE1
    assert calls == [5]
    with pytest.raises(InvalidCodingError):
        CoreCoding([10, 3, 1, -6, -7], 5)


def test_codings_to_cores_build_no_checked_partition(monkeypatch):
    # coding_to_core checks each part as it reads it off, so the cores skip
    # Partition's own validation
    built = []
    real = Partition.__init__

    def counting(self, parts=()):
        built.append(parts)
        real(self, parts)

    monkeypatch.setattr(Partition, "__init__", counting)
    cores = cores_from_codings(8, 20)
    assert len(cores) == len(enumerate_codings(8, 20)) and built == []
    # each core passes the validation it skipped, and the counter does count
    assert all(p == Partition(p.parts) for p in cores) and len(built) == len(cores)


def test_coding_size():
    c = core_coding(TABLE1, 5)
    assert sum(v ** 2 for v in c.twice) == 4 * 210
    assert coding_size(c) == 20
    assert coding_size(core_coding(TABLE2, 6)) == 20
    assert coding_size(core_coding(Partition(()), 7)) == 0


def test_validate_coding():
    assert validate_coding([h("10"), h("3"), h("1"), h("-6"), h("-8")], 5).valid
    assert validate_coding([1, 0, -1], 3).valid
    assert validate_coding([2, 1, -3], 3).valid
    # the coding of the single-cell 3-core: all classes covered
    assert validate_coding([2, 0, -2], 3).valid
    d = validate_coding([3, 0, -3], 3)
    assert not d.valid and not d.residues_ok and d.zero_sum_ok and d.decreasing_ok
    d = validate_coding([2, 1, 0], 3)
    assert not d.zero_sum_ok
    d = validate_coding([-1, 0, 1], 3)
    assert not d.decreasing_ok
    d = validate_coding([1, 0, -1], 2)
    assert not d.parity_ok and not d.length_ok
    d = validate_coding([h("1/2"), h("-1/2")], 2)
    assert d.valid


def test_class_sorted_coding():
    c = core_coding(TABLE1, 5)
    u = class_sorted_coding(c)
    for i, ui in enumerate(u):
        assert (ui - 2 * i) % 10 == 0


def test_content_coding_table1():
    mu = content_coding(core_coding(TABLE1, 5))
    assert mu.parts == (14, 8, 7, 1)
    assert is_content_coding_image(mu, 5)
    assert content_coding_size(mu, 5) == 20


def test_content_coding_empty_and_even():
    for t in range(1, 8):
        assert content_coding(core_coding(Partition(()), t)) == Partition(())
    mu = content_coding(core_coding(TABLE2, 6))
    assert len(mu.parts) <= 5
    assert is_content_coding_image(mu, 6)
    assert content_coding_size(mu, 6) == 20


def test_content_coding_size_empty():
    assert content_coding_size(Partition(()), 5) == 0


def test_content_coding_sweep():
    for t in range(1, 8):
        for lam in enumerate_t_cores(t, 15):
            mu = content_coding(core_coding(lam, t))
            assert len(mu.parts) <= t - 1
            assert is_content_coding_image(mu, t)
            assert content_coding_size(mu, t) == lam.size


def test_bead_relations_sweep():
    for t in range(1, 7):
        for lam in enumerate_t_cores(t, 12):
            checks = bead_relation_checks(lam, core_coding(lam, t))
            assert all(checks.values()), (t, lam, checks)


def test_bead_relations_reject_the_conjugate_coding():
    # negative control: the conjugate's coding is the coding only when the
    # core is self-conjugate
    for t in (3, 4, 5):
        for lam in enumerate_t_cores(t, 10):
            conj = lam.conjugate()
            checks = bead_relation_checks(lam, core_coding(conj, t))
            assert checks["mirror_intersection"] is (lam == conj), (t, lam)


def test_conjugate_coding_negates():
    for t in (3, 4, 5, 6):
        for lam in enumerate_t_cores(t, 10):
            c = core_coding(lam, t)
            c2 = core_coding(lam.conjugate(), t)
            assert c2.twice == tuple(-v for v in reversed(c.twice))


def test_roundtrip_sweep():
    for t in range(1, 9):
        for lam in enumerate_t_cores(t, 15):
            c = core_coding(lam, t)
            assert validate_coding(c).valid
            assert coding_to_core(c) == lam
            assert coding_size(c) == lam.size


def test_enumerate_codings_deterministic_and_valid():
    codings = enumerate_codings(3, 6)
    assert codings == enumerate_codings(3, 6)
    sizes = [coding_size(c) for c in codings]
    assert sizes == sorted(sizes)
    for c in codings:
        assert validate_coding(c).valid


# the sweeps walk cores_from_codings and stop at their first failure, so
# the coding route must give the filter route's list, order included
ORDERED_ROUTE_CASES = [*((t, 25) for t in range(1, 9)), *((t, 15) for t in range(2, 8))]


def first_route_disagreement():
    """The first (t, n) at which the two routes differ as ordered lists."""
    return next(
        ((t, n) for t, n in ORDERED_ROUTE_CASES if cores_from_codings(t, n) != enumerate_t_cores(t, n)),
        None,
    )


def test_two_route_enumeration_agrees():
    assert first_route_disagreement() is None


def test_route_comparison_sees_a_dropped_coding(monkeypatch):
    real = coding.enumerate_codings
    monkeypatch.setattr(coding, "enumerate_codings", lambda t, n: real(t, n)[:-1])
    assert first_route_disagreement() == (1, 25)


def test_two_cores_are_triangular():
    cores = enumerate_t_cores(2, 25)
    assert {p.size for p in cores} == {k * (k + 1) // 2 for k in range(7)}
    for p in cores:
        assert p.parts == tuple(range(len(p.parts), 0, -1))


def full_ray_core(c):
    """Oracle for `coding_to_core`: merge all t rays, n + t + 2 beads each,
    and read the parts off the first n + t + 2 merged beads."""
    t, count = c.t, coding_size(c) + c.t + 2
    rays = (w for v in c.twice for w in range(v, v - 2 * t * count, -2 * t))
    merged = sorted(rays, reverse=True)
    parts = [(merged[i - 1] + 2 * i - t - 1) // 2 for i in range(1, count + 1)]
    return Partition(tuple(p for p in parts if p > 0))


def test_coding_to_core_matches_full_ray_oracle():
    for t in range(1, 9):
        for c in enumerate_codings(t, 30):
            assert coding_to_core(c) == full_ray_core(c), (t, c)


# The Fraction forms of both size formulas, kept as the oracle for the
# integer-first versions in tcores.coding.


def fraction_coding_size(twice, t):
    return Fraction(sum(v * v for v in twice), 8 * t) - Fraction(t * t - 1, 24)


def fraction_content_coding_size(mu, t):
    m = mu.size
    total = Fraction(-m * (m + t + t * t), 2 * t * t)
    for i, p in enumerate(mu.parts, start=1):
        total += Fraction(p * p + 2 * (t + 1 - i) * p, 2 * t)
    return total


def test_size_formulas_match_fraction_oracle():
    for t in range(1, 9):
        for c in enumerate_codings(t, 20):
            size = coding_size(c)
            assert size == fraction_coding_size(c.twice, t) <= 20, (t, c)
            mu = content_coding(c)
            assert content_coding_size(mu, t) == fraction_content_coding_size(mu, t) == size


def test_size_formulas_reject_like_fraction_oracle():
    # non-integer, and negative, values of the coding-side formula
    for values, t in (([6, 0, -6], 3), ([0, 0, 0], 3)):
        twice = tuple(2 * v for v in values)
        want = fraction_coding_size(twice, t)
        assert want.denominator != 1 or want < 0
        with pytest.raises(NonIntegerSizeError, match=f"^size formula gave {want}$"):
            coding._size(twice, t)
    # (1) is not a content-coding image for t = 2: its formula gives 3/8
    want = fraction_content_coding_size(Partition((1,)), 2)
    assert want == Fraction(3, 8)
    with pytest.raises(NonIntegerSizeError, match=f"^size formula gave {want}$"):
        content_coding_size(Partition((1,)), 2)


def test_text_round_trip_sweep():
    # even t puts every coding entry at a half value
    for t in range(1, 9):
        for lam in enumerate_t_cores(t, 15):
            c = core_coding(lam, t)
            assert CoreCoding.parse(str(c), t) == c
            assert coding_to_core(c) == lam


def test_public_boundary_whole_ints_halves_and_codings():
    c = core_coding(TABLE1, 5)
    # a bare int is a whole value; a CoreCoding is taken as it is
    assert CoreCoding([10, 3, 1, -6, -8], 5) == c
    assert CoreCoding(c) == c
    assert validate_coding(c).valid and coding_size(c) == 20
    assert coding_to_core(c) == TABLE1
    assert class_sorted_coding(c) == class_sorted_coding(CoreCoding([10, 3, 1, -6, -8], 5))
    c2 = core_coding(TABLE2, 6)
    halves = [h(s) for s in "21/2,13/2,-1/2,-7/2,-9/2,-17/2".split(",")]
    assert CoreCoding(halves, 6) == c2 and coding_to_core(CoreCoding(halves, 6)) == TABLE2
    assert c2.twice == (21, 13, -1, -7, -9, -17)
    # whole ints cannot code an even t: the parity condition fails
    assert not validate_coding([1, -1], 2).parity_ok
    with pytest.raises(InvalidCodingError):
        CoreCoding([1, -1], 2)
