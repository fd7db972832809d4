from collections import Counter
from pathlib import Path

import pytest

from tcores.coding import bead_set, core_coding
from tcores.exploded import (
    ExplodedWindow,
    InfiniteSelectionError,
    check_fold,
    check_fold_ledger,
    check_translation_relations,
    check_triangle_ledger,
    region_ledger,
    render,
)
from tcores.halfint import HalfInt
from tcores.partitions import Partition, enumerate_t_cores, partitions_up_to
from tcores.weights import WeightLedger

from oracles import cell_box_map

GOLDEN = Path(__file__).parent / "golden"
TABLE1 = Partition((8, 4, 3, 2, 2, 1))


def test_window_geometry_table1():
    w = ExplodedWindow(TABLE1, 5)
    # margins: exactly t beyond [-M2, M1] x [-M1, M2]
    assert w.x_hi == 2 * 10 and w.y_hi == 2 * 8
    assert w.x_lo == 2 * (-8 - 5) and w.y_lo == 2 * (-10 - 5)


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


def test_translation_relations_table1():
    w = ExplodedWindow(TABLE1, 5)
    assert check_translation_relations(w) == {
        "shift_down": True,
        "shift_left": True,
        "shift_diagonal": True,
    }


def test_translation_relations_can_fail():
    # negative controls: a window whose coding sets are cut short
    w = ExplodedWindow(TABLE1, 5)
    w.v2 = frozenset()
    assert check_translation_relations(w)["shift_down"] is False
    w = ExplodedWindow(TABLE1, 5)
    w.v1 = w.v1 - {max(w.v1)}
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
        assert all(check_fold(w).values())
        assert check_fold_ledger(w)


def test_delta_ledger_worked_example():
    w = ExplodedWindow(Partition((6, 3, 3, 2)), 5)
    assert region_ledger(w, "delta", "W", "W") == WeightLedger(
        {6: 3, 7: 3, 8: 2, 9: 2, 10: 1, 11: 1, 13: 1, 14: 1}
    )


def test_positive_band_on_coding_is_pairwise_differences():
    t = 5
    w = ExplodedWindow(Partition(()), t)
    base = [v // 2 for v in core_coding(Partition(()), t).twice]
    tally = Counter(
        a - b for a in base for b in base if 0 < a - b < t
    )
    assert region_ledger(w, "gamma+", "V", "V") == WeightLedger(dict(tally))


def test_negative_band_counts_small_hooks():
    for t in (2, 3, 5):
        for lam in enumerate_t_cores(t, 12):
            w = ExplodedWindow(lam, t)
            count = region_ledger(w, "gamma-", "Wd", "Wd").total_degree()
            assert count == sum(1 for h in lam.hooks() if h < t)


def test_gap_band_matches_small_hook_counts():
    for t in (3, 4, 6):
        for lam in enumerate_t_cores(t, 12):
            w = ExplodedWindow(lam, t)
            beta = lam.small_hook_counts(t)
            want = WeightLedger({i: beta[i - 1] for i in range(1, t)})
            assert region_ledger(w, "gamma+", "C", "C") == want


def test_triangle_ledger_empty_partition_and_sweep():
    for t in (2, 3, 5, 6):
        assert check_triangle_ledger(ExplodedWindow(Partition(()), t))
    for lam in enumerate_t_cores(4, 12):
        assert check_triangle_ledger(ExplodedWindow(lam, 4))


def test_no_entry_exactly_t_for_any_partition():
    # the box of row i and column j has entry t exactly when its hook-like
    # number lambda_i - j + lambda'_j - i + 1 is 0, which is >= 1 inside
    # lambda and <= -1 outside, so no window of any partition has one
    for t in range(1, 6):
        for lam in partitions_up_to(10):
            w = ExplodedWindow(lam, t)
            assert all((x + y) // 2 != t for x, y in w.boxes())


def test_infinite_selection_rejected():
    w = ExplodedWindow(TABLE1, 5)
    with pytest.raises(InfiniteSelectionError):
        region_ledger(w, "gamma+", "Z", "W")
    with pytest.raises(InfiniteSelectionError):
        region_ledger(w, "delta", "Z", "Z")
    # a finite partner set makes the lattice factor fine
    assert region_ledger(w, "gamma+", "Z", "C") is not None


_SETS = ("W", "Wd", "V", "C", "ray", "Z")
_REGIONS = {"delta": lambda e, t: e > t, "gamma+": lambda e, t: 0 < e < t,
            "gamma-": lambda e, t: -t < e < 0}


def _lattice_members(lam, t, side):
    """Brute-force membership of every lattice coordinate of one side of the
    window in each coordinate set, read off bead_set and core_coding."""
    parts = (lam, lam.conjugate())
    beads, other = bead_set(parts[side], t), bead_set(parts[1 - side], t)
    coding = set(core_coding(parts[side], t).twice)
    top = beads.top
    coords = range(top, -other.top - 2 * t - 1, -2)
    member = {
        "W": lambda tw: tw in beads,
        "Wd": lambda tw: tw in beads and tw not in coding,
        "V": lambda tw: tw in coding,
        "C": lambda tw: tw not in beads,
        "ray": lambda tw: True,
        "Z": lambda tw: True,
    }
    return {name: [tw for tw in coords if keep(tw)] for name, keep in member.items()}


def test_region_ledger_matches_brute_force_tally():
    for t in range(2, 7):
        for lam in enumerate_t_cores(t, 10):
            w = ExplodedWindow(lam, t)
            xs, ys = _lattice_members(lam, t, 0), _lattice_members(lam, t, 1)
            for xset in _SETS:
                for yset in _SETS:
                    infinite = "Z" in (xset, yset) and not {xset, yset} & {"V", "C"}
                    entries = Counter(x + y for x in xs[xset] for y in ys[yset])
                    for region, inside in _REGIONS.items():
                        if infinite:
                            with pytest.raises(InfiniteSelectionError):
                                region_ledger(w, region, xset, yset)
                            continue
                        want = {e // 2: n for e, n in entries.items() if inside(e // 2, t)}
                        got = region_ledger(w, region, xset, yset)
                        assert got == WeightLedger(want), (t, lam, region, xset, yset)


def test_render_ascii_golden():
    w = ExplodedWindow(Partition((1,)), 3)
    assert render(w, "ascii") == (GOLDEN / "explode_1_t3.txt").read_text()


def test_render_svg_golden():
    w = ExplodedWindow(Partition((1,)), 3)
    svg = render(w, "svg")
    assert svg == (GOLDEN / "explode_1_t3.svg").read_text()
    assert svg.startswith("<svg ")
    assert 'viewBox="0 0' in svg


def test_render_empty_partition():
    out = render(ExplodedWindow(Partition(()), 3), "ascii")
    assert "partition=- t=3" in out


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(ExplodedWindow(Partition(()), 2), "png")
