"""Truncated power series over the exact rings of `rings` (QQ, GF(p) and
polynomials over either), plus the series builders used by the identity
verifiers: partition sums weighted by hooks, finite products of binomials
1 + c q^m (`binomial_product`, each factor applied in place in O(N) ring
operations instead of a series product), the type-A Macdonald sum (its terms
read off the t-core codings), and principal specializations of Schur
polynomials.  A Schur principal specialization is computed as one integer:
the Jacobi-Trudi determinant at p = X = 2^B, taken by fraction-free (Bareiss)
elimination, whose base-2^B digits are its coefficients.  The product side of
the r-multiplication identity (Nekrasov-Okounkov at r = 1) is likewise
integer-only at the points beta = r^2 s^2: integer powers of Euler's product
by J. C. P. Miller's recurrence on the pentagonal series, in place of the
exp-log eta product that the tests keep as its oracle."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial

from .coding import coding_size, enumerate_codings
from .partitions import Partition, enumerate_partitions
from .rings import Poly, PolynomialRing, RationalField


class RingMismatchError(TypeError):
    """Operands live in different coefficient rings."""


class BadConstantTermError(ValueError):
    """exp needs constant term 0; inversion needs a unit."""


class TruncatedSeries:
    """A power series modulo q^(N+1), coefficients in a fixed ring.

    Mixed-order arithmetic truncates to the smaller order.  Comparisons use
    the ring's rule: equality over QQ, equality modulo p over GF(p), and
    coefficientwise by the base ring's rule over a polynomial ring.
    """

    __slots__ = ("ring", "coeffs", "var")

    def __init__(self, ring, coeffs, var: str = "q"):
        self.ring = ring
        self.coeffs = list(coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant term")
        self.var = var

    @classmethod
    def zero(cls, ring, order: int, var: str = "q") -> "TruncatedSeries":
        return cls(ring, [ring.zero] * (order + 1), var)

    @classmethod
    def one(cls, ring, order: int, var: str = "q") -> "TruncatedSeries":
        c = [ring.zero] * (order + 1)
        c[0] = ring.one
        return cls(ring, c, var)

    @classmethod
    def monomial(cls, ring, k: int, order: int, coeff=None, var: str = "q") -> "TruncatedSeries":
        c = [ring.zero] * (order + 1)
        if 0 <= k <= order:
            c[k] = ring.one if coeff is None else coeff
        return cls(ring, c, var)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _align(self, other):
        if not isinstance(other, TruncatedSeries):
            raise RingMismatchError("expected a TruncatedSeries")
        if other.ring is not self.ring and other.ring.name != self.ring.name:
            raise RingMismatchError(
                f"rings differ: {self.ring.name} vs {other.ring.name}"
            )
        n = min(self.order, other.order)
        return n

    def __add__(self, other):
        n = self._align(other)
        return TruncatedSeries(
            self.ring,
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)],
            self.var,
        )

    def __sub__(self, other):
        n = self._align(other)
        return TruncatedSeries(
            self.ring,
            [self.coeffs[i] - other.coeffs[i] for i in range(n + 1)],
            self.var,
        )

    def __neg__(self):
        return TruncatedSeries(self.ring, [-c for c in self.coeffs], self.var)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(
                self.ring, [c * other for c in self.coeffs], self.var
            )
        n = self._align(other)
        ring = self.ring
        out = [ring.zero] * (n + 1)
        for i in range(n + 1):
            a = self.coeffs[i]
            if ring.is_zero(a):
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if ring.is_zero(b):
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(ring, out, self.var)

    def __rmul__(self, other):
        return self.__mul__(other)

    # no verifier calls this: kept as the only site of benchmark span qseries.inverse
    def inverse(self) -> "TruncatedSeries":
        ring = self.ring
        try:
            c0inv = ring.inv(self.coeffs[0])
        except ZeroDivisionError as exc:
            raise BadConstantTermError("constant term is not invertible") from exc
        n = self.order
        out = [ring.zero] * (n + 1)
        out[0] = c0inv
        for k in range(1, n + 1):
            acc = ring.zero
            for i in range(1, k + 1):
                a = self.coeffs[i]
                if ring.is_zero(a):
                    continue
                acc = acc + a * out[k - i]
            out[k] = -(c0inv * acc)
        return TruncatedSeries(ring, out, self.var)

    def exp(self) -> "TruncatedSeries":
        ring = self.ring
        if not ring.is_zero(self.coeffs[0]):
            raise BadConstantTermError("exp needs constant term 0")
        n = self.order
        out = [ring.zero] * (n + 1)
        out[0] = ring.one
        for k in range(1, n + 1):
            acc = ring.zero
            for i in range(1, k + 1):
                a = self.coeffs[i]
                if ring.is_zero(a):
                    continue
                acc = acc + (a * out[k - i]) * i
            out[k] = ring.div_int(acc, k)
        return TruncatedSeries(ring, out, self.var)

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(c) for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            if self.order != other.order:
                return False
            return all(
                self.ring.eq(a, b) for a, b in zip(self.coeffs, other.coeffs)
            )
        return NotImplemented

    def first_mismatch(self, other):
        """Index and values of the first differing coefficient, or None."""
        n = self._align(other)
        for i in range(n + 1):
            if not self.ring.eq(self.coeffs[i], other.coeffs[i]):
                return i, self.coeffs[i], other.coeffs[i]
        return None

    def __str__(self):
        ring = self.ring
        chunks = []
        for i, c in enumerate(self.coeffs):
            if ring.is_zero(c) and not (i == 0 and len(self.coeffs) == 1):
                continue
            cs = ring.str_coeff(c)
            if i == 0:
                chunks.append(cs)
            elif i == 1:
                chunks.append(f"{cs}*{self.var}")
            else:
                chunks.append(f"{cs}*{self.var}^{i}")
        body = " + ".join(chunks) if chunks else "0"
        return f"{body} (+O({self.var}^{self.order + 1}))"

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        return f"TruncatedSeries[{self.ring.name}]({self})"


def geometric_multiples(ring, step: int, order: int, coeff, var: str = "q") -> TruncatedSeries:
    """coeff * (q^step + q^(2 step) + ...) truncated; the expansion of
    coeff * q^step / (1 - q^step)."""
    c = [ring.zero] * (order + 1)
    k = step
    while k <= order:
        c[k] = c[k] + coeff
        k += step
    return TruncatedSeries(ring, c, var)


def binomial_product(ring, order: int, factors, var: str = "q") -> TruncatedSeries:
    """prod (1 + c q^m) over the (c, m) pairs of `factors`, truncated.

    Each factor is applied in place, k running from `order` down to m so
    that out[k - m] still holds the previous product: O(order) ring
    operations per factor.  m = 0 scales every coefficient by 1 + c, a pair
    with m > order changes nothing, and a power is a repeated pair.
    """
    out = [ring.zero] * (order + 1)
    out[0] = ring.one
    for c, m in factors:
        for k in range(order, m - 1, -1):
            out[k] = out[k] + c * out[k - m]
    return TruncatedSeries(ring, out, var)


def exact_div(a: int, b: int) -> int:
    """a / b for integers where b is known to divide a; AssertionError if not."""
    q, rem = divmod(a, b)
    if rem:
        raise AssertionError(f"{a} / {b} is not an integer")
    return q


def pentagonal_series(order: int) -> list[tuple[int, int]]:
    """Euler's prod_k (1 - q^k) = 1 + sum_(m >= 1) (-1)^m (q^(m(3m-1)/2) +
    q^(m(3m+1)/2)), truncated: its nonzero (exponent, coefficient) pairs past
    the constant term 1, exponents ascending."""
    out = []
    m = 1
    while m * (3 * m - 1) // 2 <= order:
        sign = -1 if m % 2 else 1
        out.append((m * (3 * m - 1) // 2, sign))
        if m * (3 * m + 1) // 2 <= order:
            out.append((m * (3 * m + 1) // 2, sign))
        m += 1
    return out


def euler_power(alpha: int, order: int) -> list[int]:
    """Coefficients of prod_k (1 - q^k)^alpha for an integer alpha, truncated.

    J. C. P. Miller's recurrence for g = f^alpha with f(0) = 1:
    n g_n = sum_(k=1..n) ((alpha + 1) k - n) f_k g_(n-k), here with f the
    pentagonal series, so each step costs O(sqrt n).  g has integer
    coefficients, so every division by n is exact and checked, never rounded.
    """
    terms = pentagonal_series(order)
    g = [1] + [0] * order
    for n in range(1, order + 1):
        acc = 0
        for k, f in terms:
            if k > n:
                break
            acc += ((alpha + 1) * k - n) * f * g[n - k]
        g[n] = exact_div(acc, n)
    return g


def multiplication_product_points(r: int, order: int) -> list[list[list[int]]]:
    """The product side of the r-multiplication identity at the integer points
    beta = r^2 s^2, s = 0..order//r: entry [n][w][s] is (w!)^2 times the
    coefficient of q^n x^w in

        (sum_j e_j x^j q^(rj))^r * prod_m (1 - q^(rm))^r / prod_k (1 - q^k),

    where sum_j e_j q^j = prod_k (1 - q^k)^(beta/r^2 - 1).  At these points the
    exponent is the integer s^2 - 1, and the r-th power in x is the series of
    prod_k (1 - q^k)^(r (s^2 - 1)) with q^j read as x^j q^(rj): so the entry is
    (w!)^2 E_w D_(n - rw), with E = prod (1 - q^k)^(r (s^2 - 1)) and the
    beta-free D = prod (1 - q^(rm))^r / prod (1 - q^k).  w runs to n//r.
    """
    top = order // r
    to_r = euler_power(r, top)  # prod (1 - q^m)^r, read at q^(rm)
    inverse = euler_power(-1, order)
    d = [
        sum(to_r[m] * inverse[n - r * m] for m in range(n // r + 1))
        for n in range(order + 1)
    ]
    table = [[[0] * (top + 1) for _ in range(n // r + 1)] for n in range(order + 1)]
    for s in range(top + 1):
        e = euler_power(r * (s * s - 1), top)
        for w in range(top + 1):
            scaled = factorial(w) ** 2 * e[w]
            for n in range(r * w, order + 1):
                table[n][w][s] = scaled * d[n - r * w]
    return table


def partition_sum_series(
    rho,
    r: int,
    order: int,
    ring=None,
    source=None,
    var: str = "q",
) -> TruncatedSeries:
    """sum over partitions of q^size * prod of rho(h) over hooks divisible
    by r.

    `source(n)` may supply the partitions of size n (e.g. a t-core filter);
    by default all partitions are used.
    """
    if ring is None:
        ring = RationalField()
    coeffs = [ring.zero] * (order + 1)
    for n in range(order + 1):
        parts = source(n) if source is not None else enumerate_partitions(n)
        acc = ring.zero
        for p in parts:
            term = ring.one
            for h in p.hooks(r):
                term = term * rho(h)
            acc = acc + term
        coeffs[n] = acc
    return TruncatedSeries(ring, coeffs, var)


@dataclass(frozen=True)
class MacdonaldTerm:
    """One summand of the type-A sum: an integer vector with the fixed total
    1 + ... + t, its permutation sign (0 if residues repeat), and its
    q-exponent."""

    a: tuple[int, ...]
    epsilon: int
    omega: int


def residue_sign(a, t: int) -> int:
    """Sign of the residues of `a` as a permutation of res(1..t); 0 on repeats."""
    res = [x % t for x in a]
    if len(set(res)) != t:
        return 0
    target = [(i % t) for i in range(1, t + 1)]
    pos = {r: i for i, r in enumerate(target)}
    perm = [pos[r] for r in res]
    sign = 1
    for i in range(t):
        for j in range(i + 1, t):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def macdonald_terms(t: int, order: int) -> list[MacdonaldTerm]:
    """All vectors with entry sum 1+...+t whose sign is nonzero and whose
    q-exponent is at most the truncation order, sorted by exponent, then
    vector.

    The sign is nonzero exactly when v = a - (t+1)/2 takes one value in
    each class modulo t; then v sums to zero, so v sorted decreasing is a
    t-core coding, and the exponent (sum a_i^2 - sum i^2)/(2t) equals
    sum v_i^2/(2t) - (t^2-1)/24, the size of that core.  So the vectors are
    the orderings of the codings of size at most `order`.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    out = []
    for coding in enumerate_codings(t, order):
        omega = coding_size(coding)
        for twice in permutations(coding.twice):
            a = tuple((tw + t + 1) // 2 for tw in twice)
            out.append(MacdonaldTerm(a, residue_sign(a, t), omega))
    out.sort(key=lambda term: (term.omega, term.a))
    return out


def _macdonald_ring(t: int) -> PolynomialRing:
    return PolynomialRing(tuple(f"x{i}" for i in range(1, t + 1)), laurent=True)


def macdonald_lhs(t: int, order: int) -> TruncatedSeries:
    """prod_m (1-q^m)^(t-1) prod_{j<i} (1-(x_i/x_j) q^(m-1)) (1-(x_j/x_i) q^m)."""
    ring = _macdonald_ring(t)
    factors = []
    for i in range(1, t + 1):
        for j in range(1, i):
            # ratio x_i / x_j carried as a Laurent monomial
            up = [0] * t
            up[i - 1] = 1
            up[j - 1] = -1
            ratio = ring.monomial(tuple(up))
            down = ring.monomial(tuple(-e for e in up))
            factors += [(-ratio, m) for m in range(order + 1)]
            factors += [(-down, m) for m in range(1, order + 1)]
    factors += [(-ring.one, m) for m in range(1, order + 1)] * (t - 1)
    return binomial_product(ring, order, factors)


def macdonald_rhs(t: int, order: int) -> TruncatedSeries:
    """sum over vectors of sign * q^omega * x_1^(1-a_1) ... x_t^(t-a_t)."""
    ring = _macdonald_ring(t)
    # per q-power, exponents -> sign; distinct vectors give distinct monomials
    signs: list[dict] = [{} for _ in range(order + 1)]
    for term in macdonald_terms(t, order):
        signs[term.omega][tuple(i + 1 - term.a[i] for i in range(t))] = term.epsilon
    return TruncatedSeries(ring, [Poly(ring.names, row) for row in signs])


def _h_principal_at(k: int, n: int, X: int, cache: dict) -> int:
    """h_k(1, X, ..., X^(n-1)), the p-binomial [n+k-1 choose k] at p = X.

    Built as the exact quotients prod_{i<=k} (X^(n+i-1) - 1) / (X^i - 1):
    every partial product is itself a p-binomial at X, so each `//` is exact.
    `cache` maps (n, X) to the values h_0, h_1, ... found so far.
    """
    if k < 0:
        return 0
    hs = cache.setdefault((n, X), [1])
    while len(hs) <= k:
        i = len(hs)
        hs.append(hs[-1] * (X ** (n + i - 1) - 1) // (X**i - 1))
    return hs[k]


def _bareiss(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination: every division is exact.  It swaps no rows, so a zero
    pivot raises AssertionError; the Jacobi-Trudi matrices of
    `schur_principal_at` have none."""
    m = [list(row) for row in rows]
    size = len(m)
    if size == 0:
        return 1
    prev = 1
    for k in range(size - 1):
        pivot, top = m[k][k], m[k]
        if pivot == 0:
            raise AssertionError(f"zero pivot in row {k}")
        for row in m[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return m[-1][-1]


def schur_principal_at(partition: Partition, n: int, X: int, cache: dict) -> int:
    """s_lambda(1, X, ..., X^(n-1)) as an integer, by the Jacobi-Trudi
    determinant det h_(lambda_i - i + j) of integer h_k values.

    Zero when the partition has more than n rows.  Otherwise every leading
    principal minor is the Schur value of the first rows of lambda, a
    polynomial with nonnegative coefficients, so for X >= 2 no pivot
    vanishes.  `cache` keeps the h_k values between calls; a sweep holds
    one for its duration.
    """
    parts = partition.parts
    ell = len(parts)
    if ell > n:
        return 0
    return _bareiss([
        [_h_principal_at(parts[i] - i + j, n, X, cache) for j in range(ell)]
        for i in range(ell)
    ])


# no verifier calls this: kept as the only site of benchmark span qseries.schur_principal
def schur_principal(partition: Partition, n: int) -> Poly:
    """Schur polynomial at 1, p, ..., p^(n-1), read off as the base-2^B
    digits of `schur_principal_at` at X = 2^B, B = |lambda| bitlen(n) + 1.

    The coefficients are nonnegative and sum to the number of semistandard
    tableaux with entries at most n, which is at most n^|lambda| < 2^B, so
    each digit is one coefficient.  Zero when the partition has more than n
    rows."""
    bits = partition.size * n.bit_length() + 1
    value = schur_principal_at(partition, n, 1 << bits, {})
    mask = (1 << bits) - 1
    terms = {}
    e = 0
    while value:
        if value & mask:
            terms[(e,)] = value & mask
        value >>= bits
        e += 1
    return Poly(("p",), terms)
