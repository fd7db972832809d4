"""Formal products of an abstract integer weight, as exponent ledgers.

A ledger records prod_k tau(k)^(e_k) with finitely many nonzero integer
exponents and an overall sign, so multiset identities can be checked for
every weight function at once by comparing exponent maps.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations
from typing import NamedTuple

from .coding import CoreCoding, class_sorted_coding
from .partitions import Partition, _add_hook_edges


class ZeroArgumentError(ValueError):
    """Argument 0 cannot be normalized under an odd weight."""


class DivisionByZeroWeightError(ZeroDivisionError):
    """A weight value is zero where a negative exponent requires a unit."""


class WeightLedger:
    """Finitely supported map argument -> exponent, with a sign in {+1, -1}."""

    __slots__ = ("exps", "sign")

    def __init__(self, exps=None, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.exps = {int(k): int(e) for k, e in dict(exps or {}).items() if e}
        self.sign = sign

    @classmethod
    def one(cls) -> "WeightLedger":
        return cls()

    def __mul__(self, other: "WeightLedger") -> "WeightLedger":
        exps = dict(self.exps)
        for k, e in other.exps.items():
            exps[k] = exps.get(k, 0) + e
        return _trusted(exps, self.sign * other.sign)

    def __truediv__(self, other: "WeightLedger") -> "WeightLedger":
        exps = dict(self.exps)
        for k, e in other.exps.items():
            exps[k] = exps.get(k, 0) - e
        return _trusted(exps, self.sign * other.sign)

    def __pow__(self, n: int) -> "WeightLedger":
        sign = self.sign if n % 2 else 1
        return _trusted({k: e * n for k, e in self.exps.items()}, sign)

    def negate_arguments(self) -> "WeightLedger":
        return _trusted({-k: e for k, e in self.exps.items()}, self.sign)

    def total_degree(self) -> int:
        return sum(self.exps.values())

    def __eq__(self, other):
        return (
            isinstance(other, WeightLedger)
            and self.exps == other.exps
            and self.sign == other.sign
        )

    def __str__(self):
        pairs = " ".join(f"({k},{self.exps[k]})" for k in sorted(self.exps))
        sign = "+" if self.sign == 1 else "-"
        return f"{sign} {pairs}".rstrip()

    def __repr__(self):
        return f"WeightLedger({self.exps!r}, sign={self.sign})"


def _trusted(exps: dict[int, int], sign: int = 1) -> WeightLedger:
    """A WeightLedger of an int -> int map and a sign known to be valid: drops
    zero exponents and skips the rest of the validation in __init__."""
    led = object.__new__(WeightLedger)
    led.exps, led.sign = {k: e for k, e in exps.items() if e}, sign
    return led


def hook_shift_ledger(partition: Partition, t: int) -> WeightLedger:
    """Ledger of prod over hooks h of tau(h-t) tau(h+t) / tau(h)^2."""
    return hook_tally_shift_ledger(Counter(partition.hooks()), t)


def hook_tally_shift_ledger(tally: dict[int, int], t: int) -> WeightLedger:
    """hook_shift_ledger from a tally hook length -> multiplicity (a
    `partitions.hook_tally`), for a caller that reads other counts off the
    same hooks."""
    exps: dict[int, int] = {}
    for h, m in tally.items():
        exps[h - t] = exps.get(h - t, 0) + m
        exps[h + t] = exps.get(h + t, 0) + m
        exps[h] = exps.get(h, 0) - 2 * m
    return _trusted(exps)


def coding_difference_ledger(coding: CoreCoding, beta) -> WeightLedger:
    """Ledger of the coding-side product:

    prod_i tau(-i)^(b_i) / tau(i)^(b_i + t - i) * prod_{i<j} tau(v_i - v_j).
    """
    t = coding.t
    exps: dict[int, int] = {}
    for i in range(1, t):
        b = beta[i - 1]
        exps[-i] = b
        exps[i] = -(b + t - i)
    _add_differences(exps, coding.twice)
    return _trusted(exps)


def parity_coding_ledger(coding: CoreCoding, parity: str) -> WeightLedger:
    """Even/odd-weight form of the coding-side product, arguments normalized.

    With the coding reordered by congruence class (u_i in class i + t_0),
    the product is C / prod_k tau(k)^(t-k) * prod_{i<j} tau(u_i - u_j),
    where C = -1 exactly when t = 3 mod 4 and the weight is odd.  The form
    of `parity_coding_fold(coding)`.
    """
    return parity_coding_fold(coding).form(parity)


def parity_coding_fold(coding: CoreCoding) -> "ParityFold":
    """Both parity forms of `parity_coding_ledger` from one class-sorted
    coding and one pass over its differences, each folded onto its absolute
    value as it is added: a negative one flips the odd form's sign, and C
    rides in the same flip."""
    t = coding.t
    exps = {k: k - t for k in range(1, t)}
    flip = -1 if t % 4 == 3 else 1
    for a, b in combinations(class_sorted_coding(coding), 2):  # doubled entries
        d = (a - b) // 2
        if d < 0:
            d, flip = -d, -flip
        exps[d] = exps.get(d, 0) + 1
    return ParityFold({k: e for k, e in exps.items() if e}, 1, flip, 0 in exps)


def _add_differences(exps: dict[int, int], tw) -> None:
    """Add exponent 1 at (tw_i - tw_j)/2 for every i < j, tw doubled."""
    for a, b in combinations(tw, 2):
        d = (a - b) // 2
        exps[d] = exps.get(d, 0) + 1


def content_ledger(mu: Partition, beta) -> WeightLedger:
    """Ledger of prod_i (tau(-i)/tau(i))^(b_i) * prod over mu of tau(t+c)/tau(h),
    where b_i = beta[i-1] counts the hooks of length t - i of the core, so
    t = len(beta) + 1.

    Both products over mu are tallied in one difference array over the
    arguments, with no cell visited: row i of mu holds the contents
    1-i..mu_i-i, one run of tau(t+c) arguments, and its hooks come from
    mu's beta numbers (`partitions._add_hook_edges`)."""
    t = len(beta) + 1
    exps: dict[int, int] = {}
    parts = mu.parts
    if parts:
        n = len(parts)
        lo = min(1, t + 1 - n)  # a hook 1, or t+c at the last row's start
        hi = max(t, n) + parts[0] - 1  # t+c at the first row's end, or the corner hook
        edges = [0] * (hi - lo + 2)
        for i, p in enumerate(parts, start=1):
            edges[t + 1 - i - lo] += 1
            edges[t + p - i + 1 - lo] -= 1
        _add_hook_edges(edges, parts, lo, -1)
        exps = {k: e for k, e in zip(range(lo, hi + 1), accumulate(edges)) if e}
    for i in range(1, t):
        exps[-i] = exps.get(-i, 0) + beta[i - 1]
        exps[i] = exps.get(i, 0) - beta[i - 1]
    return _trusted(exps)


def parity_normalize(ledger: WeightLedger, parity: str) -> WeightLedger:
    """Rewrite all arguments positive using tau(-k) = tau(k) or -tau(k).

    Odd parity flips the sign once per unit of exponent at a negative
    argument and forbids argument 0 (tau(0) = 0 there).  The form of
    `parity_fold(ledger)`.
    """
    return parity_fold(ledger).form(parity)


class ParityFold(NamedTuple):
    """A ledger with every argument k folded onto |k| in one pass, for both
    parity forms at once.  `exps` is the folded map the forms share, its
    zero exponents dropped, `sign` the ledger's sign, `flip` the odd form's
    extra sign (-1 when the exponents at negative arguments sum to an odd
    number) and `zero` whether argument 0 occurs, which only the odd form
    forbids."""

    exps: dict[int, int]
    sign: int
    flip: int
    zero: bool

    def form(self, parity: str) -> WeightLedger:
        """The odd- or even-weight form, as `parity_normalize` gives it."""
        if parity == "even":
            return _trusted(self.exps, self.sign)
        if parity != "odd":
            raise ValueError("parity must be 'odd' or 'even'")
        if self.zero:
            raise ZeroArgumentError("tau(0) = 0 for an odd weight")
        return _trusted(self.exps, self.sign * self.flip)

    def differing_parity(self, other: "ParityFold") -> str | None:
        """The first parity, odd then even, at which the forms of the two
        folds differ, or None, read off the folds without building a form;
        raises ZeroArgumentError where `form("odd")` would."""
        if self.zero or other.zero:
            raise ZeroArgumentError("tau(0) = 0 for an odd weight")
        if self.exps != other.exps or self.sign * self.flip != other.sign * other.flip:
            return "odd"
        return "even" if self.sign != other.sign else None


def parity_fold(ledger: WeightLedger) -> ParityFold:
    """Fold a ledger's negative arguments once for both parity forms."""
    exps: dict[int, int] = {}
    negative = 0
    for k, e in ledger.exps.items():
        if k < 0:
            negative += e
            k = -k
        exps[k] = exps.get(k, 0) + e
    exps = {k: e for k, e in exps.items() if e}
    return ParityFold(exps, ledger.sign, -1 if negative % 2 else 1, 0 in ledger.exps)


def evaluate(ledger: WeightLedger, tau):
    """Value of the formal product under a concrete weight: `tau` is any
    callable from integers to values with `*` and `**`, such as `Fraction`.

    Returns sign * prod tau(k)^(e_k), exact for an int weight (an int value
    under a negative exponent is read as a `Fraction`); raises if tau
    vanishes where a negative exponent needs an inverse.  The empty ledger
    evaluates to 1.
    """
    values = {k: tau(k) for k in ledger.exps}
    for k, e in ledger.exps.items():
        if e < 0:
            if _is_zero(values[k]):
                raise DivisionByZeroWeightError(f"tau({k}) = 0 with exponent {e}")
            if isinstance(values[k], int):
                values[k] = Fraction(values[k])
    result = None
    for k in sorted(ledger.exps):
        term = values[k] ** ledger.exps[k]
        result = term if result is None else result * term
    if result is None:
        return ledger.sign
    return result if ledger.sign == 1 else -result


def _is_zero(value) -> bool:
    probe = getattr(value, "is_zero", None)
    if callable(probe):
        return probe()
    return value == 0
