"""Finite windows of the exploded tableau and its folding relations.

The exploded diagram of a partition puts one box at every point of
W1 x W2, where W1/W2 are the bead sets of the partition and its conjugate;
the entry of a box is the sum of its coordinates.  Entries above t form the
region Delta (one box per cell of the partition, entry = hook + t); entries
in (0, t) and (-t, 0) form the bands Gamma+ and Gamma-.  A window with
margin t beyond [-M2, M1] x [-M1, M2] captures every identity used here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coding import bead_set, core_coding
from .halfint import HalfInt
from .partitions import Partition
from .weights import WeightLedger


class RelationViolationError(AssertionError):
    """A translation or folding relation failed at some box."""


class InfiniteSelectionError(ValueError):
    """The requested region/coordinate selection is not a finite set."""


@dataclass(frozen=True)
class Box:
    x: HalfInt
    y: HalfInt

    @property
    def entry(self) -> int:
        return (self.x + self.y).as_int()


class ExplodedWindow:
    """All boxes of the exploded tableau with coordinates in a fixed window."""

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
        if partition.is_t_core(t):
            self.v1 = frozenset(v.twice for v in core_coding(partition, t))
            self.v2 = frozenset(v.twice for v in core_coding(self.conjugate, t))
        else:
            self.v1 = frozenset()
            self.v2 = frozenset()
        self.c1 = frozenset(g.twice for g in self.beads1.gaps())
        self.c2 = frozenset(g.twice for g in self.beads2.gaps())
        top1 = self.beads1.top.twice
        top2 = self.beads2.top.twice
        self.x_hi = top1
        self.y_hi = top2
        self.x_lo = -top2 - 2 * t
        self.y_lo = -top1 - 2 * t

    # membership tests on doubled coordinates
    def in_w1(self, tw: int) -> bool:
        return self.beads1.contains_twice(tw)

    def in_w2(self, tw: int) -> bool:
        return self.beads2.contains_twice(tw)

    def in_v1(self, tw: int) -> bool:
        return tw in self.v1

    def in_v2(self, tw: int) -> bool:
        return tw in self.v2

    def in_w1d(self, tw: int) -> bool:
        return self.in_w1(tw) and tw not in self.v1

    def in_w2d(self, tw: int) -> bool:
        return self.in_w2(tw) and tw not in self.v2

    def in_c1(self, tw: int) -> bool:
        return tw in self.c1

    def in_c2(self, tw: int) -> bool:
        return tw in self.c2

    def x_values(self):
        """Doubled x lattice coordinates in the window, decreasing."""
        return range(self.x_hi, self.x_lo - 1, -2)

    def y_values(self):
        return range(self.y_hi, self.y_lo - 1, -2)

    def region_of(self, entry: int) -> str:
        t = self.t
        if entry > t:
            return "delta"
        if 0 < entry < t:
            return "gamma+"
        if -t < entry < 0:
            return "gamma-"
        return "other"

    def boxes(self):
        """All boxes in the window as Box values, row-major from the top."""
        xs = [HalfInt(xtw) for xtw in self.x_values() if self.in_w1(xtw)]
        return [
            Box(x, HalfInt(ytw))
            for ytw in self.y_values() if self.in_w2(ytw)
            for x in xs
        ]


def cell_box_map(window: ExplodedWindow) -> dict[tuple[int, int], Box]:
    """The bijection cell (i, j) -> box, whose entry is hook + t.

    Every box with entry above t arises this way exactly once.
    """
    p = window.partition
    conj = window.conjugate
    t = window.t
    shift = t + 1
    mapping = {}
    for i, j in p.cells():
        xtw = 2 * (p.parts[i - 1] - i) + shift
        ytw = 2 * (conj.parts[j - 1] - j) + shift
        mapping[(i, j)] = Box(HalfInt(xtw), HalfInt(ytw))
    delta_boxes = {
        (b.x.twice, b.y.twice) for b in window.boxes() if b.entry > t
    }
    image = {(b.x.twice, b.y.twice) for b in mapping.values()}
    if image != delta_boxes or len(image) != len(mapping):
        raise RelationViolationError("cells do not match the boxes above entry t")
    return mapping


def _pair_set(window, xpred, ypred, lo, hi, forbid=()):
    """Doubled-coordinate pairs with lo < entry < hi under the predicates.

    Entries are true integers; `lo`/`hi` may be +-inf via None.
    """
    ys = [ytw for ytw in window.y_values() if ypred(ytw)]
    out = set()
    for xtw in window.x_values():
        if not xpred(xtw):
            continue
        for ytw in ys:
            entry = (xtw + ytw) // 2
            if lo is not None and entry <= lo:
                continue
            if hi is not None and entry >= hi:
                continue
            if entry in forbid:
                continue
            out.add((xtw, ytw))
    return out


def check_translation_relations(window: ExplodedWindow) -> dict[str, bool]:
    """The four translation identities of box sets, checked inside the window.

    indicator      1_{W1xW2d} + 1_{W1dxW2} = 1_{W1xW2 minus V1xV2} + 1_{W1dxW2d}
    shift_down     boxes above t, moved by (0,-t), land on entries > 0
                   with second coordinate in W2 minus the coding
    shift_left     the (-t, 0) counterpart
    shift_diagonal the (-t, -t) move reaches all entries above -t on
                   (W1 minus coding) x (W2 minus coding)
    """
    if not window.partition.is_t_core(window.t):
        raise RelationViolationError("translation relations assume a t-core")
    t = window.t
    results = {}

    ok = True
    ys = [(window.in_w2(ytw), window.in_v2(ytw)) for ytw in window.y_values()]
    for xtw in window.x_values():
        w1 = window.in_w1(xtw)
        v1 = window.in_v1(xtw)
        w1d = w1 and not v1
        for w2, v2 in ys:
            w2d = w2 and not v2
            lhs = (w1 and w2d) + (w1d and w2)
            rhs = (w1 and w2 and not (v1 and v2)) + (w1d and w2d)
            if lhs != rhs:
                ok = False
                break
        if not ok:
            break
    results["indicator"] = ok

    delta = _pair_set(window, window.in_w1, window.in_w2, t, None)

    moved = {(x, y - 2 * t) for (x, y) in delta}
    target = _pair_set(window, window.in_w1, window.in_w2d, 0, None, forbid=(t,))
    results["shift_down"] = moved == target

    moved = {(x - 2 * t, y) for (x, y) in delta}
    target = _pair_set(window, window.in_w1d, window.in_w2, 0, None, forbid=(t,))
    results["shift_left"] = moved == target

    moved = {(x - 2 * t, y - 2 * t) for (x, y) in delta}
    target = _pair_set(window, window.in_w1d, window.in_w2d, -t, None, forbid=(0, t))
    results["shift_diagonal"] = moved == target

    return results


def check_fold(window: ExplodedWindow) -> dict[str, bool]:
    """Folding (x, y) -> (-y, -x) matches the negative band on non-coding
    beads with the positive band on the gap sets, negating entries."""
    if not window.partition.is_t_core(window.t):
        raise RelationViolationError("the fold assumes a t-core")
    t = window.t
    negative = _pair_set(window, window.in_w1d, window.in_w2d, -t, 0)
    positive = _pair_set(window, window.in_c1, window.in_c2, 0, t)
    folded = {(-y, -x) for (x, y) in negative}
    bijection = folded == positive
    entries_negate = {-(x + y) // 2 for (x, y) in negative} == {
        (x + y) // 2 for (x, y) in positive
    }
    return {"fold_bijection": bijection, "entries_negate": entries_negate}


_SET_PREDICATES = {
    "W": ("in_w1", "in_w2"),
    "Wd": ("in_w1d", "in_w2d"),
    "V": ("in_v1", "in_v2"),
    "C": ("in_c1", "in_c2"),
    "Z": (None, None),
    "ray": (None, None),
}

_FINITE_SETS = {"V", "C"}
_BOUNDED_ABOVE = {"W", "Wd", "V", "C", "ray"}

_REGION_BOUNDS = {"delta": ("t", None), "gamma+": (0, "t"), "gamma-": ("-t", 0)}


def region_ledger(window: ExplodedWindow, region: str, xset: str = "W", yset: str = "W") -> WeightLedger:
    """Tally of entries over a region intersected with coordinate sets.

    `region` is one of delta / gamma+ / gamma-.  Coordinate sets: W (beads),
    Wd (beads minus coding), V (coding), C (gaps), ray (everything below the
    top of that side), Z (the whole lattice line).  Raises if the selection
    is not a finite set of boxes.
    """
    if region not in _REGION_BOUNDS:
        raise ValueError(f"unknown region {region!r}")
    for name, s in (("xset", xset), ("yset", yset)):
        if s not in _SET_PREDICATES:
            raise ValueError(f"unknown {name} {s!r}")
    x_finite = xset in _FINITE_SETS
    y_finite = yset in _FINITE_SETS
    if not x_finite and not y_finite:
        if xset == "Z" or yset == "Z":
            raise InfiniteSelectionError(
                "an unbounded lattice factor needs a finite partner set"
            )
    t = window.t
    lo, hi = _REGION_BOUNDS[region]
    lo = -t if lo == "-t" else (t if lo == "t" else lo)
    hi = t if hi == "t" else hi

    def pred(side, sname):
        if sname == "Z":
            return lambda tw: True
        if sname == "ray":
            top = window.x_hi if side == 0 else window.y_hi
            return lambda tw: tw <= top
        method = getattr(window, _SET_PREDICATES[sname][side])
        return method

    xp, yp = pred(0, xset), pred(1, yset)
    pairs = _pair_set(window, xp, yp, lo, hi)
    exps: dict[int, int] = {}
    for (xtw, ytw) in pairs:
        e = (xtw + ytw) // 2
        exps[e] = exps.get(e, 0) + 1
    return WeightLedger(exps)


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
    header = " " * (width + 1)
    for xtw in window.x_values():
        header += _axis_label(xtw, window.in_v1(xtw)).rjust(width)
    lines.append(header.rstrip())
    for ytw in window.y_values():
        label = _axis_label(ytw, window.in_v2(ytw)).rjust(width) + "|"
        row = [label]
        has_y = window.in_w2(ytw)
        for xtw in window.x_values():
            if has_y and window.in_w1(xtw):
                row.append(_fmt_cell(window, (xtw + ytw) // 2).rjust(width))
            else:
                row.append(" " * width)
        lines.append("".join(row).rstrip())
    return "\n".join(lines) + "\n"


def render_svg(window: ExplodedWindow) -> str:
    """Deterministic SVG: 12 px per lattice unit, fixed viewBox."""
    unit = 12
    xs = list(window.x_values())
    ys = list(window.y_values())
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
        if not window.in_w2(ytw):
            continue
        for xtw in xs:
            if not window.in_w1(xtw):
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
        deco = ' text-decoration="underline"' if window.in_v1(xtw) else ""
        parts.append(
            f'<text x="{px(xtw) + 6}" y="8" text-anchor="middle"{deco}>{HalfInt(xtw)}</text>'
        )
    for ytw in ys:
        deco = ' text-decoration="underline"' if window.in_v2(ytw) else ""
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
