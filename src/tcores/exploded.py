"""Finite windows of the exploded tableau and its folding relations.

The exploded diagram of a partition puts one box at every point of
W1 x W2, where W1/W2 are the bead sets of the partition and its conjugate;
the entry of a box is the sum of its coordinates.  Entries above t form the
region Delta (one box per cell of the partition, entry = hook + t); entries
in (0, t) and (-t, 0) form the bands Gamma+ and Gamma-.  A window with
margin t beyond [-M2, M1] x [-M1, M2] captures every identity used here.

Each side of a window is read as a decreasing list of doubled coordinates:
the beads W, the beads off the coding Wd, the coding V, the gaps C, or all
of them.  The window ends at the top bead of each side, so inside it the ray
below that bead and the whole lattice line Z are the same list.
"""

from __future__ import annotations

from collections import Counter

from .coding import NotACoreError, bead_set, core_coding
from .halfint import HalfInt
from .partitions import Partition
from .weights import WeightLedger


class RelationViolationError(AssertionError):
    """A translation or folding relation failed at some box."""


class InfiniteSelectionError(ValueError):
    """The requested region/coordinate selection is not a finite set."""


class ExplodedWindow:
    """All boxes of the exploded tableau with coordinates in a fixed window.

    Coordinates are doubled ints, like the beads they come from, so the
    entry of the box (xtw, ytw) is the integer (xtw + ytw) // 2.
    """

    __slots__ = (
        "partition", "conjugate", "t",
        "beads1", "beads2", "v1", "v2", "c1", "c2",
        "x_lo", "x_hi", "y_lo", "y_hi",
    )

    def __init__(self, partition: Partition, t: int):
        if t < 1:
            raise ValueError("t must be a positive integer")
        self.partition = partition
        self.conjugate = partition.conjugate()
        self.t = t
        self.beads1 = bead_set(partition, t)
        self.beads2 = bead_set(self.conjugate, t)
        try:  # the conjugate of a t-core is a t-core
            self.v1 = frozenset(core_coding(partition, t).twice)
            self.v2 = frozenset(core_coding(self.conjugate, t).twice)
        except NotACoreError:
            self.v1 = frozenset()
            self.v2 = frozenset()
        self.c1 = frozenset(self.beads1.gaps())
        self.c2 = frozenset(self.beads2.gaps())
        top1 = self.beads1.top
        top2 = self.beads2.top
        self.x_hi = top1
        self.y_hi = top2
        self.x_lo = -top2 - 2 * t
        self.y_lo = -top1 - 2 * t

    def axis(self, side: int, name: str) -> list[int]:
        """Doubled coordinates of one side (0: x, 1: y) of the window that
        lie in the coordinate set `name`, decreasing.

        W are the beads, Wd the beads off the coding, V the coding and C the
        gaps.  The window's top on each side is its top bead, so `ray` and
        `Z` both give every coordinate of the window.
        """
        if side == 0:
            hi, lo, beads, v, c = self.x_hi, self.x_lo, self.beads1, self.v1, self.c1
        else:
            hi, lo, beads, v, c = self.y_hi, self.y_lo, self.beads2, self.v2, self.c2
        coords = range(hi, lo - 1, -2)
        if name in ("ray", "Z"):
            return list(coords)
        if name == "W":
            return [tw for tw in coords if tw in beads]
        if name == "Wd":
            return [tw for tw in coords if tw in beads and tw not in v]
        if name == "V":
            return [tw for tw in coords if tw in v]
        if name == "C":
            return [tw for tw in coords if tw in c]
        raise ValueError(f"unknown coordinate set {name!r}")

    def region_of(self, entry: int) -> str:
        t = self.t
        if entry > t:
            return "delta"
        if 0 < entry < t:
            return "gamma+"
        if -t < entry < 0:
            return "gamma-"
        return "other"

    def boxes(self) -> list[tuple[int, int]]:
        """All boxes in the window as doubled (x, y) pairs, row-major from
        the top."""
        xs = self.axis(0, "W")
        return [(xtw, ytw) for ytw in self.axis(1, "W") for xtw in xs]


def _pair_set(xs, ys, lo, hi, forbid=()):
    """Doubled-coordinate pairs of xs x ys with lo < entry < hi and the entry
    not in `forbid`; hi=None leaves the entries unbounded above."""
    out = set()
    for xtw in xs:
        for ytw in ys:
            entry = (xtw + ytw) // 2
            if entry > lo and (hi is None or entry < hi) and entry not in forbid:
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
    if not window.partition.is_t_core(window.t):
        raise RelationViolationError("translation relations assume a t-core")
    t = window.t
    w1, w2 = window.axis(0, "W"), window.axis(1, "W")
    w1d, w2d = window.axis(0, "Wd"), window.axis(1, "Wd")
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
    """Folding (x, y) -> (-y, -x) matches the negative band on non-coding
    beads with the positive band on the gap sets, negating entries."""
    if not window.partition.is_t_core(window.t):
        raise RelationViolationError("the fold assumes a t-core")
    t = window.t
    negative = _pair_set(window.axis(0, "Wd"), window.axis(1, "Wd"), -t, 0)
    positive = _pair_set(window.axis(0, "C"), window.axis(1, "C"), 0, t)
    folded = {(-y, -x) for (x, y) in negative}
    bijection = folded == positive
    entries_negate = {-(x + y) // 2 for (x, y) in negative} == {
        (x + y) // 2 for (x, y) in positive
    }
    return {"fold_bijection": bijection, "entries_negate": entries_negate}


_COORDINATE_SETS = ("W", "Wd", "V", "C", "ray", "Z")
_FINITE_SETS = ("V", "C")

# entry bounds (lo, hi) of each region as multiples of t; None is unbounded
_REGION_BOUNDS = {"delta": (1, None), "gamma+": (0, 1), "gamma-": (-1, 0)}


def region_ledger(window: ExplodedWindow, region: str, xset: str = "W", yset: str = "W") -> WeightLedger:
    """Tally of entries over a region intersected with coordinate sets.

    `region` is one of delta / gamma+ / gamma-.  Coordinate sets: W (beads),
    Wd (beads minus coding), V (coding), C (gaps), ray (everything below the
    top of that side), Z (the whole lattice line).  Inside the window `ray`
    and `Z` select the same coordinates; they differ only in that Z, which is
    infinite above, raises unless the other side is V or C.
    """
    if region not in _REGION_BOUNDS:
        raise ValueError(f"unknown region {region!r}")
    for name, s in (("xset", xset), ("yset", yset)):
        if s not in _COORDINATE_SETS:
            raise ValueError(f"unknown {name} {s!r}")
    if "Z" in (xset, yset) and xset not in _FINITE_SETS and yset not in _FINITE_SETS:
        raise InfiniteSelectionError(
            "an unbounded lattice factor needs a finite partner set"
        )
    t = window.t
    lo, hi = _REGION_BOUNDS[region]
    pairs = _pair_set(
        window.axis(0, xset), window.axis(1, yset), lo * t, None if hi is None else hi * t
    )
    return WeightLedger(Counter((xtw + ytw) // 2 for xtw, ytw in pairs))


def check_triangle_ledger(window: ExplodedWindow) -> bool:
    """The positive band over beads x (everything below top2), minus the
    same band over lattice x gaps, leaves exponent t-k at each k in 1..t-1."""
    plus = region_ledger(window, "gamma+", "W", "ray")
    minus = region_ledger(window, "gamma+", "Z", "C")
    t = window.t
    want = WeightLedger({k: t - k for k in range(1, t)})
    return plus / minus == want


def check_fold_ledger(window: ExplodedWindow) -> bool:
    """Ledger form of the fold: negative band on non-coding beads equals the
    argument-negated positive band on the gap sets."""
    neg = region_ledger(window, "gamma-", "Wd", "Wd")
    pos = region_ledger(window, "gamma+", "C", "C")
    return neg == pos.negate_arguments()


def render(window: ExplodedWindow, fmt: str = "ascii") -> str:
    if fmt == "ascii":
        return render_ascii(window)
    if fmt == "svg":
        return render_svg(window)
    raise ValueError(f"unknown format {fmt!r}")


def _fmt_cell(window: ExplodedWindow, entry: int) -> str:
    region = window.region_of(entry)
    if region == "delta":
        return f"[{entry:3d}]"
    if region == "gamma+":
        return f"({entry:3d})"
    if region == "gamma-":
        return f"<{entry:3d}>"
    return f" {entry:3d} "


def _axis_label(value: int, marked: bool) -> str:
    text = str(HalfInt(value))
    return f"_{text}_" if marked else text


def render_ascii(window: ExplodedWindow) -> str:
    """Fixed-width grid; coding coordinates are wrapped in underscores.

    x decreases left to right and y decreases top to bottom, so the region
    of large entries sits in the upper left like the shaded boxes of the
    reference pictures.
    """
    width = 6
    lines = [
        f"# exploded tableau: partition={window.partition} t={window.t}",
        "# regions: [delta] (gamma+) <gamma->  coding coordinates marked _v_",
    ]
    xs = window.axis(0, "Z")
    header = " " * (width + 1)
    for xtw in xs:
        header += _axis_label(xtw, xtw in window.v1).rjust(width)
    lines.append(header.rstrip())
    for ytw in window.axis(1, "Z"):
        label = _axis_label(ytw, ytw in window.v2).rjust(width) + "|"
        row = [label]
        has_y = ytw in window.beads2
        for xtw in xs:
            if has_y and xtw in window.beads1:
                row.append(_fmt_cell(window, (xtw + ytw) // 2).rjust(width))
            else:
                row.append(" " * width)
        lines.append("".join(row).rstrip())
    return "\n".join(lines) + "\n"


def render_svg(window: ExplodedWindow) -> str:
    """Deterministic SVG: 12 px per lattice unit, fixed viewBox."""
    unit = 12
    xs = window.axis(0, "Z")
    ys = window.axis(1, "Z")
    ncols, nrows = len(xs), len(ys)
    w = (ncols + 2) * unit
    h = (nrows + 2) * unit
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}" font-size="6" font-family="monospace">'
    ]
    col = {tw: i for i, tw in enumerate(xs)}
    row = {tw: i for i, tw in enumerate(ys)}

    def px(xtw):
        return (col[xtw] + 1) * unit

    def py(ytw):
        return (row[ytw] + 1) * unit

    fill = {"delta": "#c8c8c8", "gamma+": "#ffffff", "gamma-": "#f2f2e4", "other": "#e8f0ff"}
    for ytw in ys:
        if ytw not in window.beads2:
            continue
        for xtw in xs:
            if xtw not in window.beads1:
                continue
            entry = (xtw + ytw) // 2
            region = window.region_of(entry)
            x0, y0 = px(xtw), py(ytw)
            parts.append(
                f'<rect x="{x0}" y="{y0}" width="{unit}" height="{unit}" '
                f'fill="{fill[region]}" stroke="#000000" stroke-width="0.5"/>'
            )
            parts.append(
                f'<text x="{x0 + 6}" y="{y0 + 8}" text-anchor="middle">{entry}</text>'
            )
    for xtw in xs:
        deco = ' text-decoration="underline"' if xtw in window.v1 else ""
        parts.append(
            f'<text x="{px(xtw) + 6}" y="8" text-anchor="middle"{deco}>{HalfInt(xtw)}</text>'
        )
    for ytw in ys:
        deco = ' text-decoration="underline"' if ytw in window.v2 else ""
        parts.append(
            f'<text x="4" y="{py(ytw) + 8}" text-anchor="middle"{deco}>{HalfInt(ytw)}</text>'
        )
    # boundary anti-diagonals x + y = t, 0, -t in lattice coordinates
    t = window.t
    for level, dash in ((t, "none"), (0, "4,2"), (-t, "2,2")):
        # entry = (xtw + ytw)/2 = level along the drawn line; convert the two
        # endpoints where the line crosses the window edges
        pts = []
        for xtw in (xs[0], xs[-1]):
            ytw = 2 * level - xtw
            if ys[-1] <= ytw <= ys[0]:
                pts.append((px(xtw) + unit / 2, py(ytw) + unit / 2))
        for ytw in (ys[0], ys[-1]):
            xtw = 2 * level - ytw
            if xs[-1] <= xtw <= xs[0]:
                pts.append((px(xtw) + unit / 2, py(ytw) + unit / 2))
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
