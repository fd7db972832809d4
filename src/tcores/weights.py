"""Formal products of an abstract integer weight, as exponent ledgers.

A ledger records prod_k tau(k)^(e_k) with finitely many nonzero integer
exponents and an overall sign, so multiset identities can be checked for
every weight function at once by comparing exponent maps.
"""

from __future__ import annotations

from collections import Counter

from .coding import CoreCoding, class_sorted_coding
from .partitions import Partition


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
    exps: dict[int, int] = {}
    for h, m in Counter(partition.hooks()).items():
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
    where C = -1 exactly when t = 3 mod 4 and the weight is odd.
    """
    t = coding.t
    u = class_sorted_coding(coding)  # doubled entries
    sign = -1 if (t % 4 == 3 and parity == "odd") else 1
    exps = {k: k - t for k in range(1, t)}
    _add_differences(exps, u)
    return parity_normalize(_trusted(exps, sign), parity)


def _add_differences(exps: dict[int, int], tw) -> None:
    """Add exponent 1 at (tw_i - tw_j)/2 for every i < j, tw doubled."""
    for i, a in enumerate(tw):
        for b in tw[i + 1:]:
            d = (a - b) // 2
            exps[d] = exps.get(d, 0) + 1


def content_ledger(mu: Partition, beta, t: int) -> WeightLedger:
    """Ledger of prod_i (tau(-i)/tau(i))^(b_i) * prod over mu of tau(t+c)/tau(h),
    where b_i = beta[i-1] counts the hooks of length t - i of the core."""
    exps: dict[int, int] = {}
    for i in range(1, t):
        exps[-i] = beta[i - 1]
        exps[i] = -beta[i - 1]
    for h, c in zip(mu.hooks(), mu.contents()):
        exps[t + c] = exps.get(t + c, 0) + 1
        exps[h] = exps.get(h, 0) - 1
    return _trusted(exps)


def parity_normalize(ledger: WeightLedger, parity: str) -> WeightLedger:
    """Rewrite all arguments positive using tau(-k) = tau(k) or -tau(k).

    Odd parity flips the sign once per unit of exponent at a negative
    argument and forbids argument 0 (tau(0) = 0 there).
    """
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    exps: dict[int, int] = {}
    sign = ledger.sign
    odd = parity == "odd"
    for k, e in ledger.exps.items():
        if k == 0 and odd:
            raise ZeroArgumentError("tau(0) = 0 for an odd weight")
        if k < 0 and odd and e % 2:
            sign = -sign
        exps[abs(k)] = exps.get(abs(k), 0) + e
    return _trusted(exps, sign)


def evaluate(ledger: WeightLedger, tau):
    """Value of the formal product under a concrete weight: `tau` is any
    callable from integers to values with `*` and `**`, such as `Fraction`.

    Returns sign * prod tau(k)^(e_k); raises if tau vanishes where a
    negative exponent needs an inverse.  The empty ledger evaluates to 1.
    """
    values = {k: tau(k) for k in ledger.exps}
    for k, e in ledger.exps.items():
        if e < 0 and _is_zero(values[k]):
            raise DivisionByZeroWeightError(f"tau({k}) = 0 with exponent {e}")
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
