from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tcores import coding
from tcores.coding import (
    BeadSet,
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

from oracles import core_count_series, full_depth_coding_to_core, full_loop_enumerate_codings

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
            parts = lam.parts + (0,) * K
            listed = [2 * (parts[i - 1] - i) + t + 1 for i in range(1, K + 1)]
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
    with pytest.raises(NotACoreError, match=r"^6,3,3,2 has a hook length divisible by 2$"):
        core_coding(Partition((6, 3, 3, 2)), 2)


def test_closed_bead_sets_are_the_t_cores():
    # the coding route's core test against the filter's abacus test and the
    # hook definition, on 915 partitions and t = 1..10
    pairs = 0
    for lam in partitions_up_to(16):
        hooks = lam.hooks()
        for t in range(1, 11):
            want = all(h % t for h in hooks)
            assert coding._closed(bead_set(lam, t)) == lam.is_t_core(t) == want, (lam, t)
            pairs += 1
    assert pairs == 9150


def relations(lam, beads):
    """The bead relations of lam with the coding read off `beads`, as the
    multiset sweep reads it and hands it over."""
    return bead_relation_checks(lam, beads, coding._class_tops(beads))


def test_bead_relation_checks_read_one_sides_gaps(monkeypatch):
    # the checks are the core's side of `_bead_relations`: its dagger
    # relation reads the conjugate's gaps, and the conjugate's side, which
    # would read the core's, is never resumed
    calls = []
    real = BeadSet.gaps
    monkeypatch.setattr(BeadSet, "gaps", lambda beads: calls.append(beads) or real(beads))
    for t in (3, 4):
        for lam in enumerate_t_cores(t, 10):
            calls.clear()
            checks = relations(lam, bead_set(lam, t))
            assert all(checks.values()) and len(calls) == 1, (t, lam)
            assert calls[0].head == bead_set(lam.conjugate(), t).head


def test_bead_relations_reject_a_non_core_conjugate():
    # (3) is not a 3-core, and the relations test its conjugate (1,1,1)
    with pytest.raises(NotACoreError, match=r"^1,1,1 has a hook length divisible by 3$"):
        relations(Partition((3,)), bead_set(Partition((3,)), 3))


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
    # one adjacent pair out of order, the first and last entries in order
    d = validate_coding([1, 2, -3], 3)
    assert (d.length_ok, d.parity_ok, d.residues_ok, d.zero_sum_ok) == (True,) * 4
    assert not d.decreasing_ok and not d.valid
    with pytest.raises(InvalidCodingError, match=r"^condition \(iii\) fails"):
        CoreCoding([1, 2, -3], 3)
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


def test_content_coding_image_rejects_non_images():
    # (1, 1) has length t = 2, one more than an image may have; (1,) at
    # t = 3 puts mu_1 - 1 and its trailing zero -3 in one class mod 3
    assert not is_content_coding_image(Partition((1, 1)), 2)
    assert not is_content_coding_image(Partition((1,)), 3)
    # their neighbours (2) and (2, 1) are images
    assert is_content_coding_image(Partition((2,)), 2)
    assert is_content_coding_image(Partition((2, 1)), 3)


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
            checks = relations(lam, bead_set(lam, t))
            assert all(checks.values()), (t, lam, checks)


def test_bead_relations_reject_the_conjugate_coding():
    # negative control: the conjugate's bead set, and so its coding, passes
    # for the core only when the core is self-conjugate
    for t in (3, 4, 5):
        for lam in enumerate_t_cores(t, 10):
            conj = lam.conjugate()
            checks = relations(lam, bead_set(conj, t))
            assert checks["mirror_intersection"] is (lam == conj), (t, lam)


def test_bead_relations_see_a_coding_entry_dropped():
    # negative controls, each with one coding bead c no longer the entry of
    # its class.  Removed: the set reads the next bead down, c - 2t, as the
    # entry, which the mirror set lacks; the coding then no longer negates
    # the conjugate's or sums to zero, and the non-coding beads lose c - 2t,
    # which the dagger relation sees when it lies in the window above -M2.
    # Raised to c + 2t: the set stays closed, but c is now a non-coding bead
    # in the window, one more than the negated gaps of the conjugate.
    checked = dagger_failed = 0
    for t in (3, 4, 5, 6):
        for lam in enumerate_t_cores(t, 10):
            beads = bead_set(lam, t)
            top2 = bead_set(lam.conjugate(), t).top
            lo = beads.ray_top - 2 * t
            members = beads.elements_down_to(lo)
            for entry in core_coding(lam, t).twice:
                short = BeadSet(tuple(x for x in members if x != entry), lo - 2, t)
                checks = relations(lam, short)
                for relation in ("mirror_intersection", "conjugate_negation", "zero_sum"):
                    assert not checks[relation], (t, lam, entry, relation)
                in_window = entry - 2 * t >= -top2
                assert checks["dagger_complement"] is not in_window, (t, lam, entry)
                dagger_failed += in_window
                raised = BeadSet(tuple(sorted({*members, entry + 2 * t}, reverse=True)), lo - 2, t)
                checks = relations(lam, raised)
                assert checks["ray_closure"] and not checks["dagger_complement"], (t, lam, entry)
                checked += 1
    assert (checked, dagger_failed) == (797, 398)


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
    # the coding route reads its cores off the coding walk's leaves
    real = coding._walk
    monkeypatch.setattr(coding, "_walk", lambda t, n, leaf: list(real(t, n, leaf))[:-1])
    assert first_route_disagreement() == (1, 25)


def first_count_mismatch(t, N, codings):
    """The first size whose number of codings differs from the product's."""
    counts = Counter(coding_size(c) for c in codings)
    want = core_count_series(t, N)
    return next((n for n in range(N + 1) if counts[n] != want[n]), None)


def test_core_counts_match_garvan_kim_stanton_product():
    for t, N in ((2, 200), (3, 150), (5, 150), (7, 70), (8, 60), (10, 45), (12, 40)):
        assert first_count_mismatch(t, N, enumerate_codings(t, N)) is None, (t, N)


def test_core_count_check_names_a_dropped_codings_size():
    codings = enumerate_codings(5, 40)
    assert first_count_mismatch(5, 40, codings[:-1]) == 40
    dropped = next(i for i, c in enumerate(codings) if coding_size(c) == 17)
    assert first_count_mismatch(5, 40, codings[:dropped] + codings[dropped + 1:]) == 17


def test_coding_routes_match_full_loop_and_full_depth_oracles():
    for t in range(1, 11):
        for max_size in (0, 7, 30):
            codings = enumerate_codings(t, max_size)
            assert codings == full_loop_enumerate_codings(t, max_size), (t, max_size)
        for c in codings:
            assert coding_to_core(c) == full_depth_coding_to_core(c), (t, c)


def test_cores_from_codings_read_each_coding_off():
    for t, max_sizes in (*((t, (0, 7, 30)) for t in range(1, 11)), (8, (45,))):
        for max_size in max_sizes:
            want = [coding_to_core(c) for c in enumerate_codings(t, max_size)]
            assert cores_from_codings(t, max_size) == want, (t, max_size)


def test_cores_from_codings_compute_each_size_once(monkeypatch):
    # the walk reads each leaf's size off its running budget and hands it to
    # the read-off check, so the size formula never runs on the coding route
    formula, read = [], []
    real_size, real_read_off = coding._size, coding._read_off
    monkeypatch.setattr(coding, "_size", lambda twice, t: formula.append(t) or real_size(twice, t))
    monkeypatch.setattr(coding, "_read_off",
                        lambda top, n, lo, hi: read.append(n) or real_read_off(top, n, lo, hi))
    cores = cores_from_codings(5, 20)
    assert formula == [] and len(cores) == 164
    assert sorted(read) == [p.size for p in cores]


def test_cores_from_codings_build_no_coding(monkeypatch):
    sorts, codings = [], []
    monkeypatch.setattr(coding, "sorted", lambda *a, **k: sorts.append(a) or sorted(*a, **k),
                        raising=False)
    real = coding._trusted
    monkeypatch.setattr(coding, "_trusted",
                        lambda twice, t: codings.append(twice) or real(twice, t))
    cores = cores_from_codings(6, 20)
    sizes = len({p.size for p in cores})
    # the sizes sorted once, then each size's cores: no leaf sorts its entries
    assert len(sorts) == 1 + sizes and codings == []
    # the counters do count: the codings route sorts and builds each coding
    enumerate_codings(6, 20)
    assert len(sorts) == 2 * (1 + sizes) + len(cores) and len(codings) == len(cores)


@pytest.mark.parametrize("lo_shift, hi_shift", [(0, -2), (2, 0)])
def test_cores_from_codings_check_each_read_off(monkeypatch, lo_shift, hi_shift):
    # a scan that stops one position short of the top bead loses the
    # largest part; one that starts a position late skips the first gap,
    # so every part loses one
    real = coding._read_off
    monkeypatch.setattr(coding, "_read_off",
                        lambda top, n, lo, hi: real(top, n, lo + lo_shift, hi + hi_shift))
    with pytest.raises(InvalidCodingError, match="does not match the size formula"):
        cores_from_codings(5, 10)


@pytest.mark.parametrize("read_off", [coding_to_core, full_depth_coding_to_core])
def test_read_off_checks_still_fail(read_off):
    # a zero-sum failure whose read-off falls short of the size formula
    with pytest.raises(InvalidCodingError, match="does not match the size formula"):
        read_off(coding._trusted((13, 11), 2))
    # the lone entry 2 moves every bead of the empty 1-core up by 2, which
    # no gap count sees: the read-off is empty, the size formula reads 2
    with pytest.raises(InvalidCodingError, match="does not match the size formula"):
        read_off(coding._trusted((4,), 1))
    with pytest.raises(NonIntegerSizeError):
        read_off(coding._trusted((12, 0, -12), 3))
    # zero-sum or not, each has an integral size, so only the read-off can
    # reject it; a gap scan that trusted the classes would accept all three
    for twice, t in (
        ((7, 5, 3, -3, -5, -7), 6),  # 7/2 and -5/2 share a class mod 6, as do 5/2 and -7/2
        ((6, 3, -1, -3, -5), 5),  # mixed parity: the integer 3 among halves
        ((8, 4, 2, -8), 4),  # integers, where t = 4 needs halves
    ):
        assert coding._size(twice, t) > 0
        with pytest.raises(InvalidCodingError):
            read_off(coding._trusted(twice, t))


def test_coding_to_core_sorts_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(coding, "sorted", lambda *a, **k: calls.append(a) or sorted(*a, **k),
                        raising=False)
    codings = enumerate_codings(6, 20)
    calls.clear()
    assert [coding_to_core(c) for c in codings] == enumerate_t_cores(6, 20)
    assert calls == []
    # the counter does see a sort in this module
    enumerate_codings(3, 1)
    assert calls


# entries held doubled, |entry| <= 400; the first t - 1 share the bound so
# that the last one, which cancels their sum, keeps it too
@st.composite
def large_codings(draw):
    t = draw(st.integers(1, 12))
    tw0, step = (t + 1) % 2, 2 * t
    bound = 800 // max(t - 1, 1)
    twice = [
        draw(st.sampled_from(range(tw0 + 2 * i - step * ((bound + tw0 + 2 * i) // step),
                                   bound + 1, step)))
        for i in range(t - 1)
    ]
    twice.append(-sum(twice))
    return CoreCoding([HalfInt(tw) for tw in sorted(twice, reverse=True)], t)


@settings(max_examples=60, derandomize=True, database=None)
@given(large_codings())
def test_read_off_far_past_the_enumerated_sizes(c):
    core = coding_to_core(c)
    assert core == full_depth_coding_to_core(c)
    assert core_coding(core, c.t) == c


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
