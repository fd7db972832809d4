from collections import Counter

import pytest
from hypothesis import given, strategies as st

from tcores.partitions import (
    InvalidPartitionError,
    Partition,
    abacus_beads,
    abacus_is_t_core,
    enumerate_partitions,
    enumerate_t_cores,
    hook_tally,
    partitions_up_to,
)

from oracles import seeded_partitions


def brute_hooks(parts):
    """Oracle: count arm and leg cells directly from diagram membership."""
    cells = {(i, j) for i, p in enumerate(parts, 1) for j in range(1, p + 1)}
    out = []
    for (i, j) in sorted(cells):
        arm = sum(1 for jj in range(j + 1, 100) if (i, jj) in cells)
        leg = sum(1 for ii in range(i + 1, 100) if (ii, j) in cells)
        out.append(arm + leg + 1)
    return sorted(out)


def pentagonal_partition_count(n, _cache={0: 1}):
    """Oracle: Euler's pentagonal recurrence, independent of the generator."""
    if n in _cache:
        return _cache[n]
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = 1 if k % 2 else -1
        if g1 <= n:
            total += sign * pentagonal_partition_count(n - g1)
        if g2 <= n:
            total += sign * pentagonal_partition_count(n - g2)
        k += 1
    _cache[n] = total
    return total


def reference_partitions(remaining, cap=None):
    """Oracle: the partitions of `remaining` with parts <= cap, by recursion,
    reverse-lexicographic (largest first part first)."""
    if cap is None:
        cap = remaining
    if remaining == 0:
        yield ()
        return
    for k in range(min(remaining, cap), 0, -1):
        for rest in reference_partitions(remaining - k, k):
            yield (k,) + rest


@st.composite
def partition_strategy(draw, max_n=20):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Partition(())
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    parts = sorted(Counter(bins).values(), reverse=True)
    return Partition(tuple(parts))


def test_construction_validates():
    with pytest.raises(InvalidPartitionError):
        Partition((1, 2))
    with pytest.raises(InvalidPartitionError):
        Partition((3, 0))
    assert Partition(()).parts == ()


def test_parse_and_str_roundtrip():
    assert str(Partition((8, 4, 3, 2, 2, 1))) == "8,4,3,2,2,1"
    assert str(Partition(())) == "-"
    assert Partition.parse("8,4,3,2,2,1").parts == (8, 4, 3, 2, 2, 1)
    assert Partition.parse("-") == Partition(())
    with pytest.raises(InvalidPartitionError):
        Partition.parse("2,x")


def test_conjugate_golden():
    assert Partition((8, 4, 3, 2, 2, 1)).conjugate().parts == (6, 5, 3, 2, 1, 1, 1, 1)
    assert Partition(()).conjugate() == Partition(())
    assert Partition((8, 5, 4, 1, 1, 1)).conjugate().parts == (6, 3, 3, 3, 2, 1, 1, 1)


def test_hooks_worked_example():
    lam = Partition((6, 3, 3, 2))
    assert sorted(lam.hooks()) == sorted([2, 1, 4, 3, 1, 5, 4, 2, 9, 8, 6, 3, 2, 1])
    assert sorted(lam.hooks(2)) == sorted([2, 4, 4, 2, 8, 6, 2])
    assert Partition(()).hooks(5) == ()


def test_hooks_against_brute_oracle():
    for lam in partitions_up_to(12):
        assert sorted(lam.hooks()) == brute_hooks(lam.parts)


def test_hook_single_cell():
    lam = Partition((6, 3, 3, 2))
    assert lam.hooks()[0] == 9  # the cell (1, 1) comes first


def test_contents():
    assert sorted(Partition((1,)).contents()) == [0]
    assert sorted(Partition((2, 1)).contents()) == [-1, 0, 1]
    # direct cell scan oracle for (3,2): cells (1,1..3),(2,1..2) -> j-i
    assert sorted(Partition((3, 2)).contents()) == sorted([0, 1, 2, -1, 0])


def test_small_hook_counts():
    assert Partition((6, 3, 3, 2)).small_hook_counts(2) == (3,)
    assert Partition(()).small_hook_counts(7) == (0,) * 6
    lam = Partition((8, 4, 3, 2, 2, 1))
    beta = lam.small_hook_counts(5)
    assert sum(beta) == sum(1 for h in lam.hooks() if h < 5)


def test_row_moment():
    assert Partition(()).row_moment() == 0
    assert Partition((3,)).row_moment() == 0
    assert Partition((2, 2, 1)).row_moment() == 4


def test_enumerate_partitions_golden():
    assert list(enumerate_partitions(0)) == [Partition(())]
    got = [p.parts for p in enumerate_partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(list(enumerate_partitions(10))) == 42


def test_enumeration_against_pentagonal_oracle():
    for n in range(26):
        seen = list(enumerate_partitions(n))
        assert len(seen) == pentagonal_partition_count(n)
        assert len(set(seen)) == len(seen)
        assert all(p.size == n for p in seen)


def test_enumeration_matches_recursive_reference():
    for n in range(21):
        assert [p.parts for p in enumerate_partitions(n)] == list(reference_partitions(n))


def test_is_t_core_abacus_matches_hook_oracle():
    for n in range(17):
        for parts in reference_partitions(n):
            hooks = brute_hooks(parts)
            lam = Partition(parts)
            for t in range(1, 10):
                assert lam.is_t_core(t) == all(h % t for h in hooks), (parts, t)


def test_one_abacus_serves_every_t():
    # the filter of classical-cross-checks tests every t on one bead set
    for n in range(14):
        for parts in reference_partitions(n):
            hooks = brute_hooks(parts)
            beads = abacus_beads(parts)
            kept = set(beads)
            got = [abacus_is_t_core(beads, t) for t in range(1, 10)]
            assert got == [all(h % t for h in hooks) for t in range(1, 10)], parts
            assert beads == kept


def test_is_t_core():
    assert Partition((8, 4, 3, 2, 2, 1)).is_t_core(5)
    assert not Partition((6, 3, 3, 2)).is_t_core(2)
    assert Partition(()).is_t_core(1)
    assert not Partition((1,)).is_t_core(1)


def test_enumerate_t_cores():
    twos = [p.parts for p in enumerate_t_cores(2, 10)]
    assert twos == [(), (1,), (2, 1), (3, 2, 1), (4, 3, 2, 1)]
    assert enumerate_t_cores(1, 10) == [Partition(())]
    fives = enumerate_t_cores(5, 20)
    assert Partition((8, 4, 3, 2, 2, 1)) in fives


@given(partition_strategy())
def test_conjugate_involution(lam):
    assert lam.conjugate().conjugate() == lam
    assert Partition(lam.conjugate().parts) == lam.conjugate()  # built unvalidated


@given(partition_strategy())
def test_hooks_conjugate_invariant(lam):
    assert sorted(lam.hooks()) == sorted(lam.conjugate().hooks())
    assert len(lam.hooks()) == lam.size


@given(partition_strategy())
def test_corner_hook(lam):
    if lam.parts:
        assert lam.hooks()[0] == lam.parts[0] + len(lam.parts) - 1


def test_hook_tally_is_the_per_cell_count():
    # every partition of size <= 20 (so every t-core there, for every t),
    # then the seeded ones: the beta-number tally is Counter(hooks())
    cases = [*partitions_up_to(20), *seeded_partitions(5, 500)]
    for lam in cases:
        assert hook_tally(lam.parts) == Counter(lam.hooks()), lam
    assert len(cases) == 2714 + 51 + 500


@given(partition_strategy(), st.integers(min_value=1, max_value=9))
def test_small_hook_count_total(lam, t):
    assert sum(lam.small_hook_counts(t)) == sum(1 for h in lam.hooks() if h < t)
