"""Formal products of an abstract integer weight, as exponent ledgers.

A ledger records prod_k tau(k)^(e_k) with finitely many nonzero integer
exponents and an overall sign, so multiset identities can be checked for
every weight function at once by comparing exponent maps.
"""

from __future__ import annotations

from fractions import Fraction

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
        clean = {}
        if exps:
            for k, e in dict(exps).items():
                if e:
                    clean[int(k)] = int(e)
        self.exps = clean
        self.sign = sign

    @classmethod
    def one(cls) -> "WeightLedger":
        return cls()

    @classmethod
    def from_factors(cls, factors, sign: int = 1) -> "WeightLedger":
        """Build from (argument, exponent) pairs, accumulating repeats."""
        exps: dict[int, int] = {}
        for k, e in factors:
            exps[k] = exps.get(k, 0) + e
        return cls(exps, sign)

    def is_one(self) -> bool:
        return not self.exps and self.sign == 1

    def __mul__(self, other: "WeightLedger") -> "WeightLedger":
        exps = dict(self.exps)
        for k, e in other.exps.items():
            exps[k] = exps.get(k, 0) + e
        return WeightLedger(exps, self.sign * other.sign)

    def __truediv__(self, other: "WeightLedger") -> "WeightLedger":
        exps = dict(self.exps)
        for k, e in other.exps.items():
            exps[k] = exps.get(k, 0) - e
        return WeightLedger(exps, self.sign * other.sign)

    def __pow__(self, n: int) -> "WeightLedger":
        sign = self.sign if n % 2 else 1
        return WeightLedger({k: e * n for k, e in self.exps.items()}, sign)

    def negate_arguments(self) -> "WeightLedger":
        return WeightLedger({-k: e for k, e in self.exps.items()}, self.sign)

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


class WeightAssignment:
    """A concrete weight: a total map from integers into a field."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn):
        self.name = name
        self.fn = fn

    def __call__(self, k: int):
        return self.fn(k)

    def __repr__(self):
        return f"WeightAssignment({self.name!r})"


def identity_weight() -> WeightAssignment:
    return WeightAssignment("identity", lambda k: Fraction(k))


def square_weight() -> WeightAssignment:
    return WeightAssignment("square", lambda k: Fraction(k * k))


def shifted_square_weight(order: int = 1) -> WeightAssignment:
    """tau(k) = 1 + z k^2 as a truncated series in z with rational coefficients."""
    from .qseries import TruncatedSeries
    from .rings import RationalField

    ring = RationalField()

    def fn(k):
        coeffs = [Fraction(1)] + [Fraction(0)] * order
        if order >= 1:
            coeffs[1] = Fraction(k * k)
        return TruncatedSeries(ring, coeffs, var="z")

    return WeightAssignment("shifted-square", fn)


def hook_shift_ledger(partition: Partition, t: int) -> WeightLedger:
    """Ledger of prod over hooks h of tau(h-t) tau(h+t) / tau(h)^2."""
    factors = []
    for h in partition.hooks():
        factors.append((h - t, 1))
        factors.append((h + t, 1))
        factors.append((h, -2))
    return WeightLedger.from_factors(factors)


def coding_difference_ledger(coding: CoreCoding, beta, t: int | None = None) -> WeightLedger:
    """Ledger of the coding-side product:

    prod_i tau(-i)^(b_i) / tau(i)^(b_i + t - i) * prod_{i<j} tau(v_i - v_j).
    """
    if t is None:
        t = coding.t
    tw = coding.twice
    factors = []
    for i in range(1, t):
        b = beta[i - 1]
        factors.append((-i, b))
        factors.append((i, -(b + t - i)))
    for i in range(len(tw)):
        for j in range(i + 1, len(tw)):
            factors.append(((tw[i] - tw[j]) // 2, 1))
    return WeightLedger.from_factors(factors)


def parity_coding_ledger(coding: CoreCoding, t: int | None = None, parity: str = "odd") -> WeightLedger:
    """Even/odd-weight form of the coding-side product, arguments normalized.

    With the coding reordered by congruence class (u_i in class i + t_0),
    the product is C / prod_k tau(k)^(t-k) * prod_{i<j} tau(u_i - u_j),
    where C = -1 exactly when t = 3 mod 4 and the weight is odd.
    """
    if isinstance(coding, CoreCoding) and t is None:
        t = coding.t
    u = class_sorted_coding(coding, t)  # doubled entries
    sign = -1 if (t % 4 == 3 and parity == "odd") else 1
    factors = [(k, -(t - k)) for k in range(1, t)]
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            factors.append(((u[i] - u[j]) // 2, 1))
    return parity_normalize(WeightLedger.from_factors(factors, sign), parity)


def content_ledger(partition: Partition, mu: Partition, t: int) -> WeightLedger:
    """Ledger of prod_i (tau(-i)/tau(i))^(b_i) * prod over mu of tau(t+c)/tau(h)."""
    beta = partition.small_hook_counts(t)
    factors = []
    for i in range(1, t):
        b = beta[i - 1]
        factors.append((-i, b))
        factors.append((i, -b))
    hooks = mu.hooks()
    contents = mu.contents()
    for h, c in zip(hooks, contents):
        factors.append((t + c, 1))
        factors.append((h, -1))
    return WeightLedger.from_factors(factors)


def parity_normalize(ledger: WeightLedger, parity: str) -> WeightLedger:
    """Rewrite all arguments positive using tau(-k) = tau(k) or -tau(k).

    Odd parity flips the sign once per unit of exponent at a negative
    argument and forbids argument 0 (tau(0) = 0 there).
    """
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    exps: dict[int, int] = {}
    sign = ledger.sign
    for k, e in ledger.exps.items():
        if k > 0:
            exps[k] = exps.get(k, 0) + e
        elif k < 0:
            exps[-k] = exps.get(-k, 0) + e
            if parity == "odd" and e % 2:
                sign = -sign
        else:
            if parity == "odd":
                raise ZeroArgumentError("tau(0) = 0 for an odd weight")
            exps[0] = exps.get(0, 0) + e
    return WeightLedger(exps, sign)


def evaluate(ledger: WeightLedger, tau: WeightAssignment):
    """Value of the formal product under a concrete weight.

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
