"""Finite windows of the exploded tableau and its folding relations.

The exploded diagram of a partition puts one box at every point of
W1 x W2, where W1/W2 are the bead sets of the partition and its conjugate;
the entry of a box is the sum of its coordinates.  Entries above t form the
region Delta (one box per cell of the partition, entry = hook + t); entries
in (0, t) and (-t, 0) form the bands Gamma+ and Gamma-.  A window with
margin t beyond [-M2, M1] x [-M1, M2] captures every identity used here.

Each side of a window is read once from its bead set into decreasing lists
of doubled coordinates: every coordinate Z, the beads W, the beads off the
coding Wd and the gaps C.  The window ends at the top bead of each side, so
inside it the ray below that bead and the whole lattice line Z are the same
list.  The x side's bead set also gives the coding and the t-core test.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter

from .coding import BeadSet, _class_tops, _closed, bead_set
from .halfint import HalfInt
from .partitions import Partition
from .weights import WeightLedger


class RelationViolationError(AssertionError):
    """A translation or folding relation failed at some box."""


def _side(beads: BeadSet, v: frozenset, lo: int) -> tuple[list[int], ...]:
    """Z, W, Wd and C of one side whose window runs from its top bead down
    to lo, each a decreasing list of doubled coordinates."""
    w = beads.elements_down_to(lo)
    wd = [tw for tw in w if tw not in v]
    return list(range(beads.top, lo - 1, -2)), w, wd, list(beads.gaps())


class ExplodedWindow:
    """All boxes of the exploded tableau with coordinates in a fixed window.

    Coordinates are doubled ints, like the beads they come from, so the
    entry of the box (xtw, ytw) is the integer (xtw + ytw) // 2.  `z`, `w`,
    `wd` and `c` are pairs (x side, y side) of decreasing lists: every
    coordinate of the window, the beads, the beads off the coding and the
    gaps.  `v` holds the two codings as sets (the x side's read off its bead
    set if that is closed, the y side's its negation, as a t-core's conjugate
    is a t-core; both empty for a non-core) and `beads` the two bead sets.
    """

    __slots__ = ("partition", "conjugate", "t", "beads", "v", "z", "w", "wd", "c")

    def __init__(self, partition: Partition, t: int):
        if t < 1:
            raise ValueError("t must be a positive integer")
        self.partition = partition
        self.conjugate = partition.conjugate()
        self.t = t
        beads1, beads2 = self.beads = (bead_set(partition, t), bead_set(self.conjugate, t))
        v = frozenset(_class_tops(beads1).twice) if _closed(beads1) else frozenset()
        self.v = (v, frozenset(-tw for tw in v))
        # a margin of t beyond [-M2, M1] x [-M1, M2]
        self.z, self.w, self.wd, self.c = zip(
            _side(beads1, self.v[0], -beads2.top - 2 * t),
            _side(beads2, self.v[1], -beads1.top - 2 * t),
        )

    def boxes(self) -> list[tuple[int, int]]:
        """All boxes in the window as doubled (x, y) pairs, row-major from
        the top."""
        xs, ys = self.w
        return [(xtw, ytw) for ytw in ys for xtw in xs]


def _pair_set(xs, ys, lo, hi, forbid=()):
    """Doubled-coordinate pairs of xs x ys with lo < entry < hi and the entry
    not in `forbid`; hi=None leaves the entries unbounded above.

    ys is decreasing, so for each x the entries (x + y) // 2 do not rise
    along it and the y in the band are one slice: lo < (x + y) // 2 iff
    y >= 2 lo + 2 - x, and (x + y) // 2 < hi iff y < 2 hi - x.  Both ends
    are found by bisection on the increasing list -ys."""
    neg = [-ytw for ytw in ys]
    out = set()
    for xtw in xs:
        start = 0 if hi is None else bisect_right(neg, xtw - 2 * hi)
        stop = bisect_right(neg, xtw - 2 * lo - 2)
        for ytw in ys[start:stop]:
            if (xtw + ytw) // 2 not in forbid:
                out.add((xtw, ytw))
    return out


def check_translation_relations(window: ExplodedWindow) -> dict[str, bool]:
    """The three translation identities of box sets, checked inside the window.

    shift_down     boxes above t, moved by (0,-t), land on entries > 0
                   with second coordinate in W2 minus the coding
    shift_left     the (-t, 0) counterpart
    shift_diagonal the (-t, -t) move reaches all entries above -t on
                   (W1 minus coding) x (W2 minus coding)
    """
    if not window.v[0]:
        raise RelationViolationError("translation relations assume a t-core")
    t = window.t
    w1, w2 = window.w
    w1d, w2d = window.wd
    results = {}

    delta = _pair_set(w1, w2, t, None)

    moved = {(x, y - 2 * t) for (x, y) in delta}
    results["shift_down"] = moved == _pair_set(w1, w2d, 0, None, forbid=(t,))

    moved = {(x - 2 * t, y) for (x, y) in delta}
    results["shift_left"] = moved == _pair_set(w1d, w2, 0, None, forbid=(t,))

    moved = {(x - 2 * t, y - 2 * t) for (x, y) in delta}
    results["shift_diagonal"] = moved == _pair_set(w1d, w2d, -t, None, forbid=(0, t))

    return results


def check_fold(window: ExplodedWindow) -> dict[str, bool]:
    """The fold (x, y) -> (-y, -x) of the negative band (-t, 0) on non-coding
    beads onto the positive band (0, t) on the gap sets, in set and ledger
    forms; each band is built and tallied once, beta = small_hook_counts(t).

    fold_bijection  the fold maps the negative band onto the positive one
    entries_negate  the two bands' entry sets are negatives of each other
    fold_ledger     negative band = argument-negated positive band
    band_count      the negative band has one box per hook shorter than t
    gap_band_counts the positive band has beta_i boxes of entry i
    """
    if not window.v[0]:
        raise RelationViolationError("the fold assumes a t-core")
    t = window.t
    negative = _pair_set(*window.wd, -t, 0)
    positive = _pair_set(*window.c, 0, t)
    neg, pos = _tally(negative), _tally(positive)
    beta = window.partition.small_hook_counts(t)
    return {
        "fold_bijection": {(-y, -x) for (x, y) in negative} == positive,
        "entries_negate": {-(x + y) // 2 for (x, y) in negative}
        == {(x + y) // 2 for (x, y) in positive},
        "fold_ledger": neg == pos.negate_arguments(),
        "band_count": neg.total_degree() == sum(beta),
        "gap_band_counts": pos == WeightLedger({i: beta[i - 1] for i in range(1, t)}),
    }


def _tally(pairs) -> WeightLedger:
    """Tally of the entries of a set of doubled-coordinate pairs."""
    return WeightLedger(Counter((xtw + ytw) // 2 for xtw, ytw in pairs))


def region_ledger(xs, ys, lo: int, hi: int | None = None) -> WeightLedger:
    """Tally of the entries lo < entry < hi over the boxes xs x ys, two
    decreasing lists of doubled coordinates; hi=None leaves the entries
    unbounded above."""
    return _tally(_pair_set(xs, ys, lo, hi))


def check_triangle_ledger(window: ExplodedWindow) -> dict[str, bool]:
    """triangle_ledger: the positive band over beads x (everything below
    top2), minus the same band over lattice x gaps, leaves exponent t-k at
    each k in 1..t-1."""
    t = window.t
    plus = region_ledger(window.w[0], window.z[1], 0, t)
    minus = region_ledger(window.z[0], window.c[1], 0, t)
    want = WeightLedger({k: t - k for k in range(1, t)})
    return {"triangle_ledger": plus / minus == want}


def render(window: ExplodedWindow, fmt: str = "ascii") -> str:
    if fmt == "ascii":
        return render_ascii(window)
    if fmt == "svg":
        return render_svg(window)
    raise ValueError(f"unknown format {fmt!r}")


_CELL = {"delta": "[{:3d}]", "gamma+": "({:3d})", "gamma-": "<{:3d}>", "other": " {:3d} "}


def _region(entry: int, t: int) -> str:
    if entry > t:
        return "delta"
    if 0 < entry < t:
        return "gamma+"
    if -t < entry < 0:
        return "gamma-"
    return "other"


def _axis_label(value: int, marked: bool) -> str:
    text = str(HalfInt(value))
    return f"_{text}_" if marked else text


def _entry_texts(window: ExplodedWindow, cell) -> list[str]:
    """cell(entry) for every entry of the window, from its largest down:
    along a row the entries fall by one per column, so each row's cells are
    one slice of this list."""
    xs, ys = window.z
    return [cell(e) for e in range((xs[0] + ys[0]) // 2, (xs[-1] + ys[-1]) // 2 - 1, -1)]


def render_ascii(window: ExplodedWindow) -> str:
    """Fixed-width grid; coding coordinates are wrapped in underscores.

    x decreases left to right and y decreases top to bottom, so the region
    of large entries sits in the upper left like the shaded boxes of the
    reference pictures.  Bead membership is tested once per column and once
    per row.
    """
    width = 6
    t = window.t
    lines = [
        f"# exploded tableau: partition={window.partition} t={window.t}",
        "# regions: [delta] (gamma+) <gamma->  coding coordinates marked _v_",
    ]
    xs, ys = window.z
    (v1, v2), (beads1, beads2) = window.v, window.beads
    header = " " * (width + 1) + "".join(_axis_label(xtw, xtw in v1).rjust(width) for xtw in xs)
    lines.append(header.rstrip())
    texts = _entry_texts(window, lambda e: _CELL[_region(e, t)].format(e).rjust(width))
    blank = " " * width
    on = [xtw in beads1 for xtw in xs]
    for j, ytw in enumerate(ys):
        label = _axis_label(ytw, ytw in v2).rjust(width) + "|"
        if ytw in beads2:
            row = texts[j:j + len(xs)]
            label += "".join([text if bead else blank for text, bead in zip(row, on)]).rstrip()
        lines.append(label)
    return "\n".join(lines) + "\n"


_FILL = {"delta": "#c8c8c8", "gamma+": "#ffffff", "gamma-": "#f2f2e4", "other": "#e8f0ff"}


def render_svg(window: ExplodedWindow) -> str:
    """Deterministic SVG: 12 px per lattice unit, fixed viewBox.

    Each box's rect and text are joined from a prefix per bead column, a
    middle per bead row and a tail per entry, so no cell formats a number.
    """
    unit = 12
    t = window.t
    xs, ys = window.z
    (v1, v2), (beads1, beads2) = window.v, window.beads
    ncols, nrows = len(xs), len(ys)
    w = (ncols + 2) * unit
    h = (nrows + 2) * unit
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}" font-size="6" font-family="monospace">'
    ]
    px = {tw: (i + 1) * unit for i, tw in enumerate(xs)}
    py = {tw: (i + 1) * unit for i, tw in enumerate(ys)}
    tails = _entry_texts(window, lambda e: (
        f'{_FILL[_region(e, t)]}" stroke="#000000" stroke-width="0.5"/>', f"{e}</text>"
    ))
    cols = [
        (i, f'<rect x="{px[xtw]}" y="', f'<text x="{px[xtw] + 6}" y="')
        for i, xtw in enumerate(xs) if xtw in beads1
    ]
    for j, ytw in enumerate(ys):
        if ytw not in beads2:
            continue
        y0 = py[ytw]
        rect_mid = f'{y0}" width="{unit}" height="{unit}" fill="'
        text_mid = f'{y0 + 8}" text-anchor="middle">'
        for i, rect_pre, text_pre in cols:
            rect_tail, text_tail = tails[i + j]
            parts.append(rect_pre + rect_mid + rect_tail)
            parts.append(text_pre + text_mid + text_tail)
    for xtw in xs:
        deco = ' text-decoration="underline"' if xtw in v1 else ""
        parts.append(
            f'<text x="{px[xtw] + 6}" y="8" text-anchor="middle"{deco}>{HalfInt(xtw)}</text>'
        )
    for ytw in ys:
        deco = ' text-decoration="underline"' if ytw in v2 else ""
        parts.append(
            f'<text x="4" y="{py[ytw] + 8}" text-anchor="middle"{deco}>{HalfInt(ytw)}</text>'
        )
    # boundary anti-diagonals x + y = t, 0, -t in lattice coordinates
    for level, dash in ((t, "none"), (0, "4,2"), (-t, "2,2")):
        # entry = (xtw + ytw)/2 = level along the drawn line; convert the two
        # endpoints where the line crosses the window edges
        pts = []
        for xtw in (xs[0], xs[-1]):
            ytw = 2 * level - xtw
            if ys[-1] <= ytw <= ys[0]:
                pts.append((px[xtw] + unit / 2, py[ytw] + unit / 2))
        for ytw in (ys[0], ys[-1]):
            xtw = 2 * level - ytw
            if xs[-1] <= xtw <= xs[0]:
                pts.append((px[xtw] + unit / 2, py[ytw] + unit / 2))
        pts = sorted(set(pts))[:2]
        if len(pts) == 2:
            (xa, ya), (xb, yb) = pts
            dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
            parts.append(
                f'<line x1="{xa:g}" y1="{ya:g}" x2="{xb:g}" y2="{yb:g}" '
                f'stroke="#d04040" stroke-width="0.8"{dash_attr}/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
