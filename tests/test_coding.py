from fractions import Fraction

import pytest

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
    gap_set_and_bounds,
    is_content_coding_image,
    validate_coding,
)
from tcores.halfint import HalfInt
from tcores.partitions import Partition, enumerate_t_cores, partitions_up_to

TABLE1 = Partition((8, 4, 3, 2, 2, 1))
TABLE2 = Partition((8, 5, 4, 1, 1, 1))


def h(text):
    return HalfInt.parse(text)


def test_bead_set_table1():
    beads = bead_set(TABLE1, 5)
    assert [str(x) for x in beads.head] == ["10", "5", "3", "1", "0", "-2"]
    assert str(beads.ray_top) == "-4"
    assert str(beads.top) == "10"
    assert h("-4") in beads and h("-100") in beads
    assert h("9") not in beads and h("-3") not in beads


def test_bead_set_table2_half_integers():
    beads = bead_set(TABLE2, 6)
    assert [str(x) for x in beads.head] == ["21/2", "13/2", "9/2", "1/2", "-1/2", "-3/2"]
    assert str(beads.ray_top) == "-7/2"


def test_bead_set_empty():
    beads = bead_set(Partition(()), 3)
    assert beads.head == ()
    assert str(beads.ray_top) == "1"


def test_bead_membership_against_naive_scan():
    # oracle: list the doubled beads 2(part_i - i) + t + 1 for i = 1..K, with
    # zero parts past the length, and test each value by a plain scan
    for lam in partitions_up_to(12):
        for t in range(1, 7):
            beads = bead_set(lam, t)
            lo = beads.ray_top.twice - 4 * t
            K = len(lam.parts) + (t + 1 - lo) // 2 + 1  # every bead >= lo
            listed = [2 * (lam.part(i) - i) + t + 1 for i in range(1, K + 1)]
            assert listed[-1] < lo
            for tw in range(beads.top.twice + 4 * t, lo - 1, -2):  # the lattice of W
                naive = tw in listed  # a list: a linear scan
                assert beads.contains_twice(tw) == naive, (lam, t, tw)
                assert (HalfInt(tw) in beads) == naive
            gaps = [tw for tw in range(beads.top.twice, lo - 1, -2) if tw not in listed]
            assert [g.twice for g in beads.gaps()] == gaps


def test_core_coding_table1():
    assert str(core_coding(TABLE1, 5)) == "10,3,1,-6,-8"


def test_core_coding_table2():
    assert str(core_coding(TABLE2, 6)) == "21/2,13/2,-1/2,-7/2,-9/2,-17/2"


def test_core_coding_empty():
    for t in range(1, 9):
        c = core_coding(Partition(()), t)
        assert [v.twice for v in c.values] == [t - 1 - 2 * i for i in range(t)]


def test_core_coding_single_cell_even_t():
    assert str(core_coding(Partition((1,)), 2)) == "3/2,-3/2"


def test_core_coding_rejects_non_core():
    with pytest.raises(NotACoreError):
        core_coding(Partition((6, 3, 3, 2)), 2)


def test_gap_set_table1():
    gaps, top, ray_top = gap_set_and_bounds(TABLE1, 5)
    assert [str(g) for g in gaps] == ["9", "8", "7", "6", "4", "2", "-1", "-3"]
    assert str(top) == "10" and str(ray_top) == "-4"
    gaps2, top2, ray2 = gap_set_and_bounds(TABLE1.conjugate(), 5)
    assert [str(g) for g in gaps2] == ["7", "5", "4", "2", "0", "-5"]
    assert str(top2) == "8" and str(ray2) == "-6"


def test_gap_set_empty():
    gaps, _, _ = gap_set_and_bounds(Partition(()), 4)
    assert gaps == ()


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


def test_coding_to_core_rejects_invalid():
    with pytest.raises(InvalidCodingError):
        coding_to_core([3, 0, -3], 3)
    with pytest.raises(ValueError):
        coding_to_core([1, 0, -1])  # t missing for a bare sequence


def test_coding_size():
    c = core_coding(TABLE1, 5)
    assert sum(v.twice ** 2 for v in c.values) == 4 * 210
    assert coding_size(c) == 20
    assert coding_size(core_coding(TABLE2, 6)) == 20
    assert coding_size(core_coding(Partition(()), 7)) == 0


def test_coding_size_non_integer():
    with pytest.raises(NonIntegerSizeError):
        coding_size([6, 0, -6], 3)


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
        assert (ui.twice - 2 * i) % 10 == 0


def test_content_coding_table1():
    mu = content_coding(TABLE1, 5)
    assert mu.parts == (14, 8, 7, 1)
    assert is_content_coding_image(mu, 5)
    assert content_coding_size(mu, 5) == 20


def test_content_coding_empty_and_even():
    for t in range(1, 8):
        assert content_coding(Partition(()), t) == Partition(())
    mu = content_coding(TABLE2, 6)
    assert len(mu.parts) <= 5
    assert is_content_coding_image(mu, 6)
    assert content_coding_size(mu, 6) == 20


def test_content_coding_size_empty():
    assert content_coding_size(Partition(()), 5) == 0


def test_content_coding_sweep():
    for t in range(1, 8):
        for lam in enumerate_t_cores(t, 15):
            mu = content_coding(lam, t)
            assert len(mu.parts) <= t - 1
            assert is_content_coding_image(mu, t)
            assert content_coding_size(mu, t) == lam.size


def test_bead_relations_sweep():
    for t in range(1, 7):
        for lam in enumerate_t_cores(t, 12):
            checks = bead_relation_checks(lam, t)
            assert all(checks.values()), (t, lam, checks)


def test_conjugate_coding_negates():
    for t in (3, 4, 5, 6):
        for lam in enumerate_t_cores(t, 10):
            c = core_coding(lam, t)
            c2 = core_coding(lam.conjugate(), t)
            assert c2.values == tuple(-v for v in reversed(c.values))


def test_roundtrip_sweep():
    for t in range(1, 9):
        for lam in enumerate_t_cores(t, 15):
            c = core_coding(lam, t)
            assert validate_coding(c.values, t).valid
            assert coding_to_core(c) == lam
            assert coding_size(c) == lam.size


def test_enumerate_codings_deterministic_and_valid():
    codings = enumerate_codings(3, 6)
    assert codings == enumerate_codings(3, 6)
    sizes = [coding_size(c) for c in codings]
    assert sizes == sorted(sizes)
    for c in codings:
        assert validate_coding(c.values, 3).valid


def test_two_route_enumeration_agrees():
    for t in range(1, 7):
        via_filter = sorted(p.parts for p in enumerate_t_cores(t, 14))
        via_codings = sorted(p.parts for p in cores_from_codings(t, 14))
        assert via_filter == via_codings


def test_two_cores_are_triangular():
    cores = enumerate_t_cores(2, 25)
    assert {p.size for p in cores} == {k * (k + 1) // 2 for k in range(7)}
    for p in cores:
        assert p.parts == tuple(range(len(p.parts), 0, -1))
