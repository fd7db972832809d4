"""Truncated power series over the exact rings of `rings` (QQ, GF(p) and
polynomials over either), plus the series builders used by the identity
verifiers: partition sums weighted by hooks (one walker, `_hook_walk`:
each size's sorted hook multisets walked once, so a shared prefix is folded
once, one partition per conjugate class when the sum enumerates them, and a
vector of several weights' values folded elementwise in one walk), finite
products of binomials 1 + c q^m (`binomial_product`, each factor applied in
place in O(N) ring operations instead of a series product), both sides
of the type-A Macdonald identity in GF(p) at a point x (the product one
`binomial_product`, the sum one determinant mod p per t-core coding), and
principal specializations of Schur polynomials.  A Schur principal
specialization is computed as one integer at p = X = 2^B, whose base-2^B
digits are its coefficients, two ways: by the branching rule over
horizontal strips, each power of X a shift (`schur_branching_at`, which the
hook-content check runs), and by the Jacobi-Trudi determinant, taken by
fraction-free (Bareiss) elimination (`schur_principal_at`, its oracle in
the tests and the route of `schur_principal`).  The product side of the
r-multiplication identity (Nekrasov-Okounkov at r = 1) is likewise
integer-only at the points beta = r^2 s^2: integer powers of Euler's product
by J. C. P. Miller's recurrence on the pentagonal series, in place of the
exp-log eta product that the tests keep as its oracle.  Walking and
reordering change no value: the arithmetic is exact and commutative, and
truncation commutes with every binomial factor."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import permutations, product
from math import factorial

from .coding import coding_size, enumerate_codings
from .partitions import Partition, _conjugate_parts, enumerate_partitions
from .rings import P, Poly, PrimeField, RationalField


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
    with m > order changes nothing, and a power is a repeated pair.  Over
    GF(p) each coefficient is reduced into [0, p) as it is made, so none
    outgrows a residue however many factors there are.
    """
    out = [ring.zero] * (order + 1)
    out[0] = ring.one
    prime = isinstance(ring, PrimeField)
    for c, m in factors:
        for k in range(order, m - 1, -1):
            v = out[k] + c * out[k - m]
            out[k] = v % P if prime else v
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


def _conjugate_classes(n: int):
    """(partition, weight) for each partition of n that is at least its
    conjugate in the order of parts: weight 2 stands for the pair, 1 for a
    self-conjugate partition.  The two share one hook multiset, for every r.
    The first part against the length settles most comparisons, so only
    partitions with lambda_1 = l(lambda) build the conjugate."""
    for lam in enumerate_partitions(n):
        parts = lam.parts
        if parts and parts[0] != len(parts):
            if parts[0] > len(parts):
                yield lam, 2
            continue
        conj = tuple(_conjugate_parts(parts))
        if parts > conj:
            yield lam, 2
        elif parts == conj:
            yield lam, 1


def _hook_walk(r: int, order: int, start, step, source=None):
    """Yield (n, hooks, value, weight) for n = 0..order and each distinct
    sorted tuple `hooks` of the hooks divisible by r of a partition of n,
    `weight` partitions sharing it; `value` is the fold of `step` over
    `hooks` from `start`.

    `source(n)` may supply the partitions of size n, each weighted once; by
    default each `_conjugate_classes` class is read once, weighted 2 for a
    conjugate pair.  The tuples of a size are walked in sorted order with a
    stack holding the value of every prefix of the last tuple, so a tuple
    folds only the hooks past the prefix it shares with the one before:
    each distinct prefix is folded once, and no value outlives its size.
    The value may be a vector of several weights' values, folded by an
    elementwise `step`: each size's hooks are then read once for all of
    them.
    """
    for n in range(order + 1):
        if source is None:
            classes = _conjugate_classes(n)
        else:
            classes = ((lam, 1) for lam in source(n))
        keyed = Counter()
        for lam, weight in classes:
            keyed[tuple(sorted(lam.hooks(r)))] += weight
        stack = [start]
        last = ()
        for key in sorted(keyed):
            k = 0
            for a, b in zip(key, last):
                if a != b:
                    break
                k += 1
            del stack[k + 1 :]
            for h in key[k:]:
                stack.append(step(stack[-1], h))
            last = key
            yield n, key, stack[-1], keyed[key]


# no verifier calls this: kept as the site of benchmark span qseries.partition_sum
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

    `source(n)` may supply the partitions of size n (e.g. a t-core filter),
    each weighted once; by default all partitions are used, one per
    conjugate class.  The hooks are walked by `_hook_walk` with the step
    term * rho(h): one weight, held as a plain ring element rather than a
    vector of width 1, whose list per node would cost more than the
    product; `partition_sums_mod_p` folds several GF(p) weights as one
    vector.  The arithmetic is exact and commutative and conjugates share
    their hooks, so every coefficient is the one the per-partition loop
    gives.
    """
    if ring is None:
        ring = RationalField()
    coeffs = [ring.zero] * (order + 1)
    for n, _, term, weight in _hook_walk(r, order, ring.one, lambda term, h: term * rho(h), source):
        coeffs[n] = coeffs[n] + (term if weight == 1 else term * weight)
    return TruncatedSeries(ring, coeffs, var)


def partition_sums_mod_p(rho, width: int, r: int, order: int, source=None) -> list[TruncatedSeries]:
    """`partition_sum_series` over GF(p) for `width` weights in one walk:
    rho(h) is the vector of the weights' values at the hook h, and entry i
    of the result is the hook sum of weight i.

    Each node of `_hook_walk` multiplies its vector by rho(h) elementwise
    and reduces mod p, so each size's hooks are read and sorted once
    however many weights ride along, and no value at a node exceeds p.
    """

    def step(vec, h):
        return [a * b % P for a, b in zip(vec, rho(h))]

    sums = [[0] * width for _ in range(order + 1)]
    for n, _, vec, weight in _hook_walk(r, order, [1] * width, step, source):
        sums[n] = [a + weight * b for a, b in zip(sums[n], vec)]
    field = PrimeField()
    return [TruncatedSeries(field, [row[i] % P for row in sums]) for i in range(width)]


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
    perm = [(x - 1) % t for x in a]  # the residue of i in 1..t sits at i - 1
    if len(set(perm)) != t:
        return 0
    inversions = sum(u > v for i, u in enumerate(perm) for v in perm[i + 1 :])
    return -1 if inversions % 2 else 1


def macdonald_terms(t: int, order: int) -> list[MacdonaldTerm]:
    """All vectors with entry sum 1+...+t whose sign is nonzero and whose
    q-exponent is at most the truncation order, by exponent, then vector.

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


def _det_mod_p(rows: list[list[int]]) -> int:
    """Determinant of a square matrix of residues by Gaussian elimination
    mod p, swapping in the first nonzero pivot of each column."""
    m, det = [list(row) for row in rows], 1
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], det = m[pivot], m[k], -det
        top = m[k]
        det, inv = det * top[k] % P, pow(top[k], -1, P)
        for row in m[k + 1 :]:
            f = row[k] * inv % P
            row[k:] = [(u - f * v) % P for u, v in zip(row[k:], top[k:])]
    return det


def macdonald_lhs(t: int, order: int, x) -> TruncatedSeries:
    """prod_m (1-q^m)^(t-1) prod_{j<i} (1-(x_i/x_j) q^(m-1)) (1-(x_j/x_i) q^m)
    in GF(p) at the point x = (x_1, ..., x_t) of nonzero residues: one
    `binomial_product` with c = -x_i/x_j and c = -x_j/x_i for each root pair."""
    inv = [pow(v, -1, P) for v in x]
    factors = [(-1, m) for m in range(1, order + 1)] * (t - 1)
    for i in range(t):
        for j in range(i):
            factors += [(-x[i] * inv[j] % P, m) for m in range(order + 1)]
            factors += [(-x[j] * inv[i] % P, m) for m in range(1, order + 1)]
    return binomial_product(PrimeField(), order, factors)


def macdonald_rhs(t: int, order: int, x) -> TruncatedSeries:
    """sum over vectors of sign * q^omega * x_1^(1-a_1) ... x_t^(t-a_t), in
    GF(p) at the point x.  The vectors are the orderings of a = v + (t+1)/2
    for the codings v of size at most `order` (`macdonald_terms`), and
    reordering a by s multiplies its sign by sgn(s): so the t! orderings of
    one coding sum to residue_sign(a) det[x_i^(i - a_j)], which is
    residue_sign(a) prod x_i^i det[x_i^(-a_j)], the Weyl denominator form."""
    power = cache(lambda i, e: pow(x[i - 1], e, P))  # codings share entries
    coeffs = [0] * (order + 1)
    for coding in enumerate_codings(t, order):
        a = [(tw + t + 1) // 2 for tw in coding.twice]
        det = _det_mod_p([[power(i, i - e) for e in a] for i in range(1, t + 1)])
        n = coding_size(coding)
        coeffs[n] = (coeffs[n] + residue_sign(a, t) * det) % P
    return TruncatedSeries(PrimeField(), coeffs)


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


def schur_branching_at(parts: tuple[int, ...], n: int, bits: int, memo: dict) -> int:
    """s_lambda(1, X, ..., X^(n-1)) at X = 2^bits as an integer, by the
    branching rule (I. G. Macdonald, Symmetric Functions and Hall
    Polynomials, I.5.11): the sum over mu with lambda/mu a horizontal strip
    of s_mu(1, X, ..., X^(n-2)) X^((n-1)|lambda/mu|), each power of X a left
    shift.  Zero when the partition has more than n rows, 1 at n = 1.

    `memo` maps (parts, n, bits) to the values found so far, so the calls
    may come in any order; a sweep holds one for its duration.  The value is
    the integer of `schur_principal_at` at X, which the tests check.
    """
    ell = len(parts)
    if ell > n:
        return 0
    if n == 1 or not ell:
        return 1
    key = (parts, n, bits)
    value = memo.get(key)
    if value is None:
        shift, size = bits * (n - 1), sum(parts)
        # mu_i runs from lambda_(i+1) to lambda_i; only the last row can be
        # emptied, and it must be when lambda has n rows (mu has n - 1 variables)
        rows = [range(low, high + 1) for high, low in zip(parts, parts[1:])]
        rows.append(range(parts[-1] + 1 if ell < n else 1))
        value = 0
        for mu in product(*rows):
            if not mu[-1]:
                mu = mu[:-1]
            value += schur_branching_at(mu, n - 1, bits, memo) << shift * (size - sum(mu))
        memo[key] = value
    return value


# no verifier calls this: kept as the only site of benchmark span qseries.schur_principal
def schur_principal(partition: Partition, n: int) -> Poly:
    """Schur polynomial at 1, p, ..., p^(n-1), read off as the base-2^B
    digits of `schur_principal_at` at X = 2^B, B = |lambda| bitlen(n) + 2.

    The coefficients are nonnegative and sum to the number of semistandard
    tableaux with entries at most n, which is at most n^|lambda| < 2^(B-1),
    so each digit is one coefficient.  Zero when the partition has more than n
    rows."""
    bits = partition.size * n.bit_length() + 2
    return Poly(("p",), balanced_digits(schur_principal_at(partition, n, 1 << bits, {}), bits))


def balanced_digits(value: int, bits: int, low: int = 0) -> dict[tuple[int], int]:
    """The digits of `value` in base X = 2^bits >= 4, each in [-X/2, X/2),
    as the terms {(e,): digit} of a polynomial with e counting up from
    `low`: the one polynomial with all coefficients below X/2 in absolute
    value whose value at X, times X^(-low), is `value`."""
    terms, half, e = {}, 1 << (bits - 1), low
    while value:
        d = ((value + half) & ((1 << bits) - 1)) - half
        terms[(e,)], value, e = d, (value - d) >> bits, e + 1
    return terms
