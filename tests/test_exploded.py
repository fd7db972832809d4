import random
from collections import Counter
from pathlib import Path

import pytest

from tcores.coding import bead_set, core_coding
from tcores.exploded import (
    ExplodedWindow,
    RelationViolationError,
    _pair_set,
    check_fold,
    check_translation_relations,
    check_triangle_ledger,
    region_ledger,
    render,
)
from tcores.halfint import HalfInt
from tcores.partitions import Partition, enumerate_t_cores, partitions_up_to
from tcores.weights import WeightLedger

from oracles import cell_box_map, double_loop_pair_set, render_ascii_per_cell, render_svg_per_cell

GOLDEN = Path(__file__).parent / "golden"
TABLE1 = Partition((8, 4, 3, 2, 2, 1))


def test_window_geometry_table1():
    w = ExplodedWindow(TABLE1, 5)
    xs, ys = w.z
    # margins: exactly t beyond [-M2, M1] x [-M1, M2]
    assert (xs[0], xs[-1]) == (2 * 10, 2 * (-8 - 5))
    assert (ys[0], ys[-1]) == (2 * 8, 2 * (-10 - 5))
    assert xs == list(range(xs[0], xs[-1] - 1, -2))
    assert ys == list(range(ys[0], ys[-1] - 1, -2))


def test_second_row_third_cell_lands_at_5_3():
    w = ExplodedWindow(TABLE1, 5)
    mapping = cell_box_map(w)
    x, y = mapping[(2, 3)]
    assert (str(HalfInt(x)), str(HalfInt(y))) == ("5", "3")
    assert (x + y) // 2 == 8
    assert len(mapping) == TABLE1.size


def test_cell_box_entries_are_hooks_plus_t():
    lam = Partition((6, 3, 3, 2))
    w = ExplodedWindow(lam, 5)
    entries = sorted((x + y) // 2 - 5 for x, y in cell_box_map(w).values())
    assert entries == sorted(lam.hooks())


def test_empty_partition_window():
    for t in (1, 3, 4):
        w = ExplodedWindow(Partition(()), t)
        entries = [(x + y) // 2 for x, y in w.boxes()]
        assert all(e <= t - 1 for e in entries)
        assert not [e for e in entries if e > t]  # no boxes above t


def test_window_makes_no_is_t_core_call(monkeypatch):
    # the window tests its x side's bead set for closure and reads the
    # coding off it; the abacus test is the filter route's
    calls = []
    real = Partition.is_t_core
    monkeypatch.setattr(Partition, "is_t_core", lambda p, t: calls.append(p) or real(p, t))
    w = ExplodedWindow(TABLE1, 5)
    assert calls == []
    assert w.v == (  # the y side's coding is the negated x side's
        frozenset(core_coding(TABLE1, 5).twice),
        frozenset(core_coding(TABLE1.conjugate(), 5).twice),
    )
    # the relation checks read the window's codings and test nothing again
    assert all(check_translation_relations(w).values()) and all(check_fold(w).values())
    assert calls == []
    # a non-core window has no coding on either side, and still renders
    w = ExplodedWindow(Partition((2, 2)), 2)
    assert w.v == (frozenset(), frozenset())
    assert w.wd == w.w
    assert "partition=2,2 t=2" in render(w, "ascii")
    for check in (check_translation_relations, check_fold):
        with pytest.raises(RelationViolationError, match="assume"):
            check(w)
    assert calls == []


def test_y_side_coding_is_the_conjugates_coding():
    # the window takes its y side's coding as the negated x side's; the
    # conjugate's own coding is the oracle
    cores = 0
    for t in range(1, 9):
        for lam in enumerate_t_cores(t, 20):
            w = ExplodedWindow(lam, t)
            assert w.v[1] == frozenset(core_coding(lam.conjugate(), t).twice), (t, lam)
            cores += 1
    assert cores == 1876


def test_translation_relations_table1():
    w = ExplodedWindow(TABLE1, 5)
    assert check_translation_relations(w) == {
        "shift_down": True,
        "shift_left": True,
        "shift_diagonal": True,
    }


def test_translation_relations_can_fail():
    # negative controls: a window whose beads off the coding take in coding
    # entries, as if its coding sets were cut short
    w = ExplodedWindow(TABLE1, 5)
    w.wd = (w.wd[0], w.w[1])  # no coding on the y side
    assert check_translation_relations(w)["shift_down"] is False
    w = ExplodedWindow(TABLE1, 5)
    w.wd = (sorted([*w.wd[0], max(w.v[0])], reverse=True), w.wd[1])
    rel = check_translation_relations(w)
    assert rel["shift_left"] is False and rel["shift_diagonal"] is False


def test_translation_relations_empty():
    assert all(check_translation_relations(ExplodedWindow(Partition(()), 4)).values())


def test_translation_relation_sweep():
    for lam in enumerate_t_cores(5, 12):
        assert all(check_translation_relations(ExplodedWindow(lam, 5)).values())


def test_fold_table1_and_sweep():
    assert all(check_fold(ExplodedWindow(TABLE1, 5)).values())
    assert all(check_fold(ExplodedWindow(Partition(()), 3)).values())
    for lam in enumerate_t_cores(3, 12):
        w = ExplodedWindow(lam, 3)
        fold = check_fold(w)
        assert list(fold) == [
            "fold_bijection", "entries_negate", "fold_ledger", "band_count", "gap_band_counts",
        ]
        assert all(fold.values())


def test_fold_can_fail():
    # negative control: a window whose y side loses its top gap
    w = ExplodedWindow(TABLE1, 5)
    w.c = (w.c[0], w.c[1][1:])
    fold = check_fold(w)
    assert fold["fold_bijection"] is False
    assert fold["fold_ledger"] is False and fold["gap_band_counts"] is False
    assert check_triangle_ledger(w) == {"triangle_ledger": False}


def test_delta_ledger_worked_example():
    w = ExplodedWindow(Partition((6, 3, 3, 2)), 5)
    assert region_ledger(*w.w, 5) == WeightLedger(
        {6: 3, 7: 3, 8: 2, 9: 2, 10: 1, 11: 1, 13: 1, 14: 1}
    )


def test_positive_band_on_coding_is_pairwise_differences():
    t = 5
    w = ExplodedWindow(Partition(()), t)
    base = [v // 2 for v in core_coding(Partition(()), t).twice]
    tally = Counter(
        a - b for a in base for b in base if 0 < a - b < t
    )
    xs, ys = (sorted(v, reverse=True) for v in w.v)
    assert region_ledger(xs, ys, 0, t) == WeightLedger(dict(tally))


def test_negative_band_counts_small_hooks():
    for t in (2, 3, 5):
        for lam in enumerate_t_cores(t, 12):
            w = ExplodedWindow(lam, t)
            count = region_ledger(*w.wd, -t, 0).total_degree()
            assert count == sum(1 for h in lam.hooks() if h < t)


def test_gap_band_matches_small_hook_counts():
    for t in (3, 4, 6):
        for lam in enumerate_t_cores(t, 12):
            w = ExplodedWindow(lam, t)
            beta = lam.small_hook_counts(t)
            want = WeightLedger({i: beta[i - 1] for i in range(1, t)})
            assert region_ledger(*w.c, 0, t) == want


def test_triangle_ledger_empty_partition_and_sweep():
    for t in (2, 3, 5, 6):
        assert check_triangle_ledger(ExplodedWindow(Partition(()), t)) == {"triangle_ledger": True}
    for lam in enumerate_t_cores(4, 12):
        assert check_triangle_ledger(ExplodedWindow(lam, 4))["triangle_ledger"]


def test_no_entry_exactly_t_for_any_partition():
    # the box of row i and column j has entry t exactly when its hook-like
    # number lambda_i - j + lambda'_j - i + 1 is 0, which is >= 1 inside
    # lambda and <= -1 outside, so no window of any partition has one
    for t in range(1, 6):
        for lam in partitions_up_to(10):
            w = ExplodedWindow(lam, t)
            assert all((x + y) // 2 != t for x, y in w.boxes())


_REGIONS = ((1, None), (0, 1), (-1, 0))  # delta, gamma+, gamma- in units of t


def _lattice_members(lam, t, side):
    """Brute-force membership of every lattice coordinate of one side of the
    window in each coordinate set, read off bead_set and core_coding."""
    parts = (lam, lam.conjugate())
    beads, other = bead_set(parts[side], t), bead_set(parts[1 - side], t)
    coding = set(core_coding(parts[side], t).twice)
    top = beads.top
    coords = range(top, -other.top - 2 * t - 1, -2)
    member = {
        "Z": lambda tw: True,
        "W": lambda tw: tw in beads,
        "Wd": lambda tw: tw in beads and tw not in coding,
        "V": lambda tw: tw in coding,
        "C": lambda tw: tw not in beads,
    }
    return {name: [tw for tw in coords if keep(tw)] for name, keep in member.items()}


def test_window_lists_match_lattice_members():
    for t in range(2, 7):
        for lam in enumerate_t_cores(t, 10):
            w = ExplodedWindow(lam, t)
            sides = [_lattice_members(lam, t, side) for side in (0, 1)]
            for name, got in (("Z", w.z), ("W", w.w), ("Wd", w.wd), ("C", w.c)):
                assert list(got) == [m[name] for m in sides], (t, lam, name)
            assert w.v == tuple(frozenset(m["V"]) for m in sides), (t, lam)


def test_region_ledger_matches_brute_force_tally():
    for t in range(2, 7):
        for lam in enumerate_t_cores(t, 10):
            xsides, ysides = (list(_lattice_members(lam, t, side).values()) for side in (0, 1))
            for xs in xsides:
                for ys in ysides:
                    entries = Counter((x + y) // 2 for x in xs for y in ys)
                    for lo, hi in _REGIONS:
                        want = {
                            e: n for e, n in entries.items()
                            if e > lo * t and (hi is None or e < hi * t)
                        }
                        got = region_ledger(xs, ys, lo * t, None if hi is None else hi * t)
                        assert got == WeightLedger(want), (t, lam, lo, hi)


def test_pair_set_slices_match_double_loop():
    # decreasing lists of both parities (odd, even and mixed), with and
    # without an upper bound and forbidden entries, empty lists included
    rng = random.Random(11)

    def decreasing(parity):
        values = rng.sample(range(-30, 31), rng.randint(0, 14))
        if parity is not None:
            values = [2 * v + parity for v in values]
        return sorted(values, reverse=True)

    for _ in range(3000):
        xs, ys = decreasing(rng.choice((0, 1, None))), decreasing(rng.choice((0, 1, None)))
        lo = rng.randint(-40, 40)
        hi = rng.choice((None, lo + rng.randint(-2, 40)))
        forbid = tuple(rng.sample(range(-40, 41), rng.randint(0, 3)))
        want = double_loop_pair_set(xs, ys, lo, hi, forbid)
        assert _pair_set(xs, ys, lo, hi, forbid) == want, (xs, ys, lo, hi, forbid)


def test_render_ascii_golden():
    w = ExplodedWindow(Partition((1,)), 3)
    assert render(w, "ascii") == (GOLDEN / "explode_1_t3.txt").read_text()


def test_render_svg_golden():
    w = ExplodedWindow(Partition((1,)), 3)
    svg = render(w, "svg")
    assert svg == (GOLDEN / "explode_1_t3.svg").read_text()
    assert svg.startswith("<svg ")
    assert 'viewBox="0 0' in svg


def test_renderers_match_per_cell_oracles():
    # every t-core t = 2..8 of size <= 15, and every partition of size <= 6
    # at t = 1..5, since explode accepts non-cores too
    cases = [(lam, t) for t in range(2, 9) for lam in enumerate_t_cores(t, 15)]
    cases += [(lam, t) for t in range(1, 6) for lam in partitions_up_to(6)]
    for lam, t in cases:
        w = ExplodedWindow(lam, t)
        assert render(w, "ascii") == render_ascii_per_cell(w), (t, lam)
        assert render(w, "svg") == render_svg_per_cell(w), (t, lam)


def test_render_empty_partition():
    out = render(ExplodedWindow(Partition(()), 3), "ascii")
    assert "partition=- t=3" in out


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(ExplodedWindow(Partition(()), 2), "png")
