"""Reference routes and brute-force oracles shared by several test modules.

The polynomial and Laurent rings (`PolynomialRing`) over QQ or GF(p) are
the tests' own; no verifier builds one.  The exact QQ[beta] forms of
Nekrasov-Okounkov and r-multiplication, the `Poly` hook-content sides (their
Schur side by the Jacobi-Trudi determinant under fraction-free Bareiss
elimination, `schur_principal_at`, which is also the oracle of the
branching rule), the exp-log eta product and the cell/box map of
the exploded tableau are the independent routes that the integer-point
verifiers and the tests are checked against; none of them runs in a verifier.
The per-cell renderers, the full-depth bead read-off, the full-loop
coding enumeration, the per-cell content ledger and the one-parity fold are
the plain routes that the renderers, `coding_to_core`, `enumerate_codings`,
`content_ledger` and the parity folds are checked against byte for byte,
and the double loop over every box the route of the exploded window's
banded pair sets and of the counted region ledgers.  `seeded_partitions`
gives the edge and random inputs of the beta-number hook tallies' checks.
The per-partition hook loops are the unwalked routes of
`partition_sum_series`, `partition_sums_mod_p` and
`multiplication_hook_points`, and the GF(p)[s] polynomial hook side is the
route that the verifier's hook sums of the s-parameter form at
s = 0..2N (its `partition_sums_mod_p` slots) are checked against; its GF(p)[s] exponential side
(`poly_s_exp_side`) is the route that the verifier's exponential sides at
the same points are checked against, the Lambert rewrite of the cotangent
form at s = 1 (`cotangent_exp_side`) the route of its exponential side at
the point s = -1, and
the exp-log partition generating function (`partition_gf`) the route of
the integers of the t = 0 sine-family panel.  The Laurent sides of
Macdonald's identity in x1..xt (the product with its root pairs
interleaved with the runs of (1 - q^m), and in lex order) and of Jacobi's
in a are the exact routes that the GF(p) point evaluation and the
Kronecker integers of the verifiers are checked against.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, isqrt, prod

from tcores.coding import InvalidCodingError, _size, _trusted, class_sorted_coding
from tcores.exploded import _CELL, ExplodedWindow, RelationViolationError, _axis_label, _region
from tcores.halfint import HalfInt
from tcores.identities import poly_s_sin_weights
from tcores.partitions import Partition, enumerate_partitions
from tcores.qseries import (
    MacdonaldTerm,
    TruncatedSeries,
    balanced_digits,
    binomial_product,
    euler_power,
    exact_div,
    macdonald_terms,
)
from tcores.rings import P, Poly, PrimeField, RationalField
from tcores.weights import WeightLedger, ZeroArgumentError


def cycle_sign(perm) -> int:
    """Sign of a permutation of 0..n-1, as (-1)^(n - number of cycles)."""
    seen = set()
    cycles = 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return -1 if (len(perm) - cycles) % 2 else 1


def macdonald_box_terms(t: int, N: int) -> list[MacdonaldTerm]:
    """The type-A Macdonald terms by brute force over a box of Z^t: every a
    with entry sum 1+..+t, one entry per residue class mod t and exponent
    (sum a_i^2 - sum i^2)/(2t) at most N, signed as the permutation taking
    the residues of 1..t to those of a, sorted by (exponent, a).  No coding
    and no pruned search is involved."""
    total = t * (t + 1) // 2
    sq_base = sum(i * i for i in range(1, t + 1))
    bound = sq_base + 2 * t * N
    r = isqrt(bound)
    out = []
    for head in product(range(-r, r + 1), repeat=t - 1):
        a = head + (total - sum(head),)
        sq = sum(x * x for x in a)
        # residue of i in 1..t sits at position (i - 1), so x lands at (x - 1) mod t
        perm = [(x - 1) % t for x in a]
        if sq > bound or len(set(perm)) != t:
            continue
        omega, rem = divmod(sq - sq_base, 2 * t)
        assert rem == 0, a
        out.append(MacdonaldTerm(a, cycle_sign(perm), omega))
    out.sort(key=lambda term: (term.omega, term.a))
    return out


# ---------------------------------------------------------------------------
# ring and series helpers


class PolynomialRing:
    """Polynomials (or Laurent polynomials) over QQ or GF(p); coefficients
    are coerced, compared, divided and inverted by the base ring."""

    def __init__(self, names, base=None, laurent: bool = False):
        self.names = tuple(names)
        self.base = base if base is not None else RationalField()
        self.laurent = laurent
        kind = "Laurent" if laurent else "poly"
        self.name = f"{self.base.name}[{','.join(self.names)}]({kind})"

    @property
    def zero(self):
        return Poly(self.names, {})

    @property
    def one(self):
        return Poly.constant(self.names, self.base.one)

    def var(self, name: str) -> Poly:
        return Poly.variable(self.names, name, self.base.one)

    def monomial(self, exps, coeff=1) -> Poly:
        exps = tuple(exps)
        if not self.laurent and any(e < 0 for e in exps):
            raise ValueError("negative exponents need a Laurent ring")
        return Poly(self.names, {exps: self.base.coerce(coeff)})

    def coerce(self, value) -> Poly:
        if isinstance(value, Poly):
            if value.names != self.names:
                raise ValueError("polynomial from a different ring")
            return self._map(value, self.base.coerce)
        return Poly.constant(self.names, self.base.coerce(value))

    def _map(self, a: Poly, f) -> Poly:
        return Poly(self.names, {e: f(c) for e, c in a.terms.items()})

    def eq(self, a, b) -> bool:
        return self.is_zero(a - b)

    def is_zero(self, a) -> bool:
        return all(map(self.base.is_zero, a.terms.values()))

    def div_int(self, a: Poly, n: int) -> Poly:
        return self._map(a, lambda c: self.base.div_int(c, n))

    def inv(self, a: Poly) -> Poly:
        if len(a.terms) != 1:
            raise ZeroDivisionError("only monomials are invertible here")
        (exps, coeff), = a.terms.items()
        if any(exps) and not self.laurent:
            raise ZeroDivisionError("nonconstant monomial needs a Laurent ring")
        return Poly(self.names, {tuple(-e for e in exps): self.base.inv(coeff)})

    def str_coeff(self, a) -> str:
        return f"({a})"


def geometric_multiples(ring, step: int, order: int, coeff) -> TruncatedSeries:
    """coeff * (q^step + q^(2 step) + ...) truncated; the expansion of
    coeff * q^step / (1 - q^step)."""
    c = [ring.zero] * (order + 1)
    k = step
    while k <= order:
        c[k] = c[k] + coeff
        k += step
    return TruncatedSeries(ring, c)


def substitute(poly: Poly, name: str, value) -> Poly:
    """Replace one variable of `poly` by an int or Fraction value; a
    negative exponent needs a nonzero value and gives its exact inverse
    power."""
    idx = poly.names.index(name)
    rest = poly.names[:idx] + poly.names[idx + 1 :]
    out = Poly(rest, {})
    for e, c in poly.terms.items():
        scalar = c * Fraction(value) ** e[idx]
        out = out + Poly(rest, {e[:idx] + e[idx + 1 :]: scalar})
    return out


def series_pow(f: TruncatedSeries, n: int) -> TruncatedSeries:
    """f^n by repeated squaring; a negative n inverts f first."""
    if n < 0:
        return series_pow(f.inverse(), -n)
    result = TruncatedSeries.one(f.ring, f.order)
    base = f
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def log_one_minus_power(ring, m: int, order: int) -> TruncatedSeries:
    """log(1 - q^m) = -sum_j q^(j m) / j, truncated."""
    c = [ring.zero] * (order + 1)
    j = 1
    while j * m <= order:
        c[j * m] = c[j * m] - ring.coerce(Fraction(1, j))
        j += 1
    return TruncatedSeries(ring, c)


def eta_like_product(exponent, order: int, ring=None) -> TruncatedSeries:
    """prod_m (1 - q^m)^exponent, with a ring-element exponent.

    Computed as exp(exponent * sum_m log(1 - q^m)); factors with m beyond
    the truncation order cannot contribute.
    """
    if ring is None:
        ring = RationalField()
    total = TruncatedSeries.zero(ring, order)
    for m in range(1, order + 1):
        total = total + log_one_minus_power(ring, m, order)
    return TruncatedSeries(ring, [c * exponent for c in total.coeffs]).exp()


# ---------------------------------------------------------------------------
# the Laurent routes of Macdonald's and Jacobi's identities


def macdonald_ring(t: int) -> PolynomialRing:
    return PolynomialRing(tuple(f"x{i}" for i in range(1, t + 1)), laurent=True)


def laurent_macdonald_lhs(t: int, order: int) -> TruncatedSeries:
    """prod_m (1-q^m)^(t-1) prod_{j<i} (1-(x_i/x_j) q^(m-1)) (1-(x_j/x_i) q^m)
    in the Laurent ring of x1..xt.

    The root pairs (i, j) come in lex order, and each of the first t - 1 is
    followed by one run of (1 - q^m), m = 1..order: by the triple product
    that pair and run make a theta series, so every partial product is a
    sparse series before the next pair comes in, instead of swelling before
    it cancels.
    """
    ring = macdonald_ring(t)
    run = [(-ring.one, m) for m in range(1, order + 1)]
    factors = []
    pairs = 0
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
            pairs += 1
            if pairs < t:
                factors += run
    return binomial_product(ring, order, factors)


def laurent_macdonald_rhs(t: int, order: int) -> TruncatedSeries:
    """sum over vectors of sign * q^omega * x_1^(1-a_1) ... x_t^(t-a_t), one
    Laurent monomial per term of `macdonald_terms`."""
    ring = macdonald_ring(t)
    # per q-power, exponents -> sign; distinct vectors give distinct monomials
    signs: list[dict] = [{} for _ in range(order + 1)]
    for term in macdonald_terms(t, order):
        signs[term.omega][tuple(i + 1 - term.a[i] for i in range(t))] = term.epsilon
    return TruncatedSeries(ring, [Poly(ring.names, row) for row in signs])


def jacobi_pair(N: int):
    """Triple product prod_(n>=0) (1 + a x^(n+1)) (1 - x^(n+1)) (1 + x^n / a)
    and theta sum in QQ[a, 1/a], as series in x (printed in q)."""
    ring = PolynomialRing(("a",), laurent=True)
    a = ring.monomial((1,))
    ainv = ring.monomial((-1,))
    factors = [(ainv, 0)]
    for n in range(1, N + 1):
        factors += [(a, n), (-ring.one, n), (ainv, n)]
    lhs = binomial_product(ring, N, factors)
    coeffs = [ring.zero] * (N + 1)
    k = (isqrt(8 * N + 1) - 1) // 2  # the largest k with k(k+1)/2 <= N
    for m in range(-k - 1, k + 1):
        e = m * (m + 1) // 2
        coeffs[e] = coeffs[e] + ring.monomial((m,))
    rhs = TruncatedSeries(ring, coeffs)
    return lhs, rhs


def laurent_at(poly: Poly, point) -> int:
    """A Laurent polynomial's value mod p at a point of nonzero residues."""
    total = 0
    for exps, c in poly.terms.items():
        term = c
        for v, e in zip(point, exps):
            term = term * pow(v, e, P) % P
        total += term
    return total % P


# ---------------------------------------------------------------------------
# the unwalked hook sums and the lex-order Macdonald product


def per_partition_sum_series(rho, r: int, order: int, ring=None, source=None):
    """sum over partitions of q^size prod rho(h) over the hooks divisible by
    r, one partition at a time, each hook product from scratch; `source(n)`
    may supply the partitions of size n."""
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
    return TruncatedSeries(ring, coeffs)


def per_partition_hook_points(r: int, N: int) -> list[list[list[int]]]:
    """The hook side of r-multiplication at beta = r^2 s^2, s = 0..N//r, as
    `identities.multiplication_hook_points` defines it: every partition's
    hooks read, shapes counted, prod (g^2 - s^2) taken per shape and point."""
    top = N // r
    table = [[[0] * (top + 1) for _ in range(n // r + 1)] for n in range(N + 1)]
    for n in range(N + 1):
        shapes = Counter(
            tuple(sorted(h // r for h in lam.hooks(r))) for lam in enumerate_partitions(n)
        )
        for gs, count in shapes.items():
            w = len(gs)
            c = exact_div(factorial(w), prod(gs))
            scale = count * c * c
            row = table[n][w]
            for s in range(top + 1):
                row[s] += scale * prod([g * g - s * s for g in gs])
    return table


def lex_macdonald_lhs(t: int, order: int) -> TruncatedSeries:
    """The Macdonald product with every root-pair binomial, in lex order,
    applied before the t - 1 runs of (1 - q^m)."""
    ring = macdonald_ring(t)
    factors = []
    for i in range(1, t + 1):
        for j in range(1, i):
            up = [0] * t
            up[i - 1] = 1
            up[j - 1] = -1
            ratio = ring.monomial(tuple(up))
            down = ring.monomial(tuple(-e for e in up))
            factors += [(-ratio, m) for m in range(order + 1)]
            factors += [(-down, m) for m in range(1, order + 1)]
    factors += [(-ring.one, m) for m in range(1, order + 1)] * (t - 1)
    return binomial_product(ring, order, factors)


# ---------------------------------------------------------------------------
# the polynomial routes of the integer-point verifiers


def nekrasov_okounkov_pair(N: int):
    """Both sides of Nekrasov-Okounkov in QQ[beta]: the hook sum with weight
    1 - beta/h^2 and prod (1 - q^k)^(beta - 1)."""
    ring = PolynomialRing(("beta",))
    beta = ring.var("beta")
    lhs = per_partition_sum_series(
        lambda h: ring.one - beta * Fraction(1, h * h), 1, N, ring
    )
    rhs = eta_like_product(beta - 1, N, ring)
    return lhs, rhs


def multiplication_pair(r: int, N: int):
    """Marked hook sum over hooks divisible by r, and its product form,
    in QQ[beta, x].  The marker x rides in the weight: each hook divisible
    by r contributes x (1 - beta/h^2)."""
    ring = PolynomialRing(("beta", "x"))
    beta = ring.var("beta")
    x = ring.var("x")
    lhs = per_partition_sum_series(
        lambda h: x * (ring.one - beta * Fraction(1, h * h)), r, N, ring
    )
    inner = eta_like_product(beta * Fraction(1, r * r) - 1, N // r, ring)
    coeffs = [ring.zero] * (N + 1)
    for j, c in enumerate(inner.coeffs):
        if r * j <= N:
            coeffs[r * j] = c * ring.monomial((0, j))
    substituted = TruncatedSeries(ring, coeffs)
    minus_one = -ring.one
    rhs = series_pow(substituted, r) * binomial_product(
        ring, N, [(minus_one, m) for m in range(r, N + 1, r)] * r
    )
    denom = binomial_product(ring, N, [(minus_one, k) for k in range(1, N + 1)])
    rhs = rhs * denom.inverse()
    return lhs, rhs


def poly_s_hook_side_poly(Y: int, N: int) -> TruncatedSeries:
    """The hook side of the s-parameter form, whose values at s = 0..2N
    `identities.verify_poly_s_family` takes, by the GF(p)[s] polynomial route:
    every partition's hook product of s + (s - 1)^2 w(h),
    w(h) = 1/(4 sin^2(hz)) at Y = e^(iz), with sin(hz) = (Y^h - Y^-h)/(2i),
    and no evaluation at points."""
    field = PrimeField()
    ring = PolynomialRing(("s",), base=field)
    s = ring.var("s")
    two_i = 2 * pow(7, (P - 1) // 4, P)  # 7 is a non-residue mod P
    w = {}
    for h in range(1, N + 1):
        sin = (pow(Y, h, P) - pow(Y, -h, P)) * pow(two_i, -1, P)
        w[h] = pow(4 * sin * sin, -1, P)
    return per_partition_sum_series(lambda h: s + (s - 1) * (s - 1) * w[h], 1, N, ring)


def poly_s_exp_side(w: dict[int, int], N: int) -> TruncatedSeries:
    """The exponential side of the s-parameter form in GF(p)[s], with w the
    map k -> w(k) of `identities.poly_s_sin_weights`: exp of
    sum_k q^k (s^k + (s^k - 1)^2 w(k)) / (k (1 - s^k q^k)), one `Poly` exp
    and no evaluation at points."""
    ring = PolynomialRing(("s",), base=PrimeField())
    coeffs = [ring.zero] * (N + 1)
    for k in range(1, N + 1):
        sk = ring.monomial((k,))
        s2k = ring.monomial((2 * k,))
        p_k = ring.div_int(sk + (s2k - 2 * sk + 1) * w[k], k)
        j = 0
        while k * (j + 1) <= N:
            coeffs[k * (j + 1)] = coeffs[k * (j + 1)] + ring.monomial((j * k,)) * p_k
            j += 1
    return TruncatedSeries(ring, coeffs).exp()


def poly_s_pair(Y: int, N: int):
    """Both sides of the s-parameter form, coefficients in GF(p)[s], with
    w(m) = 1/(4 sin^2(mz)) at Y = e^(iz): the `Poly` hook walk and the
    `Poly` exponential side."""
    return poly_s_hook_side_poly(Y, N), poly_s_exp_side(poly_s_sin_weights(Y, N), N)


def cotangent_exp_side(Y: int, N: int) -> TruncatedSeries:
    """The exponential side of the cotangent form in GF(p) at Y = e^(iz),
    exp of sum_m q^m c_m/(m (1 + q^m)) with c_m = cot^2(mz) for odd m, plus
    sum_m q^m/(m (1 - q^m)) over even m, by its Lambert rewrite at s = 1:
    q^m/(1 + q^m) = q^m/(1 - q^m) - 2 q^(2m)/(1 - q^(2m)), so the log's q^n
    coefficient is the sum over m | n of the resulting a_m; a q^(2m) term
    past N is dropped.  cot(mz) = i (u + 1/u)/(u - 1/u) at u = Y^m."""
    i = pow(7, (P - 1) // 4, P)  # 7 is a non-residue mod P
    a = [0] * (N + 1)
    for m in range(1, N + 1):
        u = pow(Y, m, P)
        cot = i * (u + pow(u, -1, P)) * pow(u - pow(u, -1, P), -1, P)
        c = (cot * cot if m % 2 else 1) * pow(m, -1, P)
        a[m] += c
        if m % 2 and 2 * m <= N:
            a[2 * m] -= 2 * c
    log = [sum(a[k] for k in range(1, n + 1) if n % k == 0) % P for n in range(N + 1)]
    return TruncatedSeries(PrimeField(), log).exp()


def partition_gf(N: int) -> TruncatedSeries:
    """exp(sum_k q^k / (k (1-q^k))) over QQ, the partition generating
    function by exp-log."""
    ring = RationalField()
    total = TruncatedSeries.zero(ring, N)
    for k in range(1, N + 1):
        total = total + geometric_multiples(ring, k, N, Fraction(1, k))
    return total.exp()


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
    determinant det h_(lambda_i - i + j) of integer h_k values: the oracle
    of `qseries.schur_branching_at`.

    Zero when the partition has more than n rows.  Otherwise every leading
    principal minor is the Schur value of the first rows of lambda, a
    polynomial with nonnegative coefficients, so for X >= 2 no pivot
    vanishes.  `cache` keeps the h_k values between calls.
    """
    parts = partition.parts
    ell = len(parts)
    if ell > n:
        return 0
    return _bareiss([
        [_h_principal_at(parts[i] - i + j, n, X, cache) for j in range(ell)]
        for i in range(ell)
    ])


def hook_content_sides(lam: Partition, n: int):
    """Schur side times the hook factors, and the content-product side, as
    polynomials in p.  The Schur side is the Jacobi-Trudi value read off in
    base 2^B, B = |lambda| bitlen(n) + 2, not the branching rule that the
    verifier runs."""
    names = ("p",)
    one = Poly.constant(names, 1)
    bits = lam.size * n.bit_length() + 2
    lhs = Poly(names, balanced_digits(schur_principal_at(lam, n, 1 << bits, {}), bits))
    for h in lam.hooks():
        lhs = lhs * (one - Poly(names, {(h,): 1}))
    shifts = [n + c for c in lam.contents()]
    if 0 in shifts:
        rhs = Poly(names, {})
    else:
        assert all(e > 0 for e in shifts)
        rhs = Poly(names, {(lam.row_moment(),): 1})
        for e in shifts:
            rhs = rhs * (one - Poly(names, {(e,): 1}))
    return lhs, rhs


# ---------------------------------------------------------------------------
# exploded tableau


def double_loop_pair_set(xs, ys, lo, hi):
    """`exploded._pair_set` by testing every box of xs x ys: the pairs with
    lo < entry < hi (hi=None: no upper bound)."""
    out = set()
    for xtw in xs:
        for ytw in ys:
            entry = (xtw + ytw) // 2
            if entry > lo and (hi is None or entry < hi):
                out.add((xtw, ytw))
    return out


def cell_box_map(window: ExplodedWindow) -> dict[tuple[int, int], tuple[int, int]]:
    """The bijection cell (i, j) -> doubled box (x, y), whose entry is hook + t.

    Every box with entry above t arises this way exactly once.
    """
    p = window.partition
    conj = p.conjugate()
    t = window.t
    shift = t + 1
    mapping = {
        (i, j): (2 * (p.parts[i - 1] - i) + shift, 2 * (conj.parts[j - 1] - j) + shift)
        for i, j in p.cells()
    }
    delta_boxes = {(x, y) for (x, y) in window.boxes() if x + y > 2 * t}
    image = set(mapping.values())
    if image != delta_boxes or len(image) != len(mapping):
        raise RelationViolationError("cells do not match the boxes above entry t")
    return mapping


def render_ascii_per_cell(window: ExplodedWindow) -> str:
    """`exploded.render_ascii` with two bead tests and one format per cell."""
    width = 6
    lines = [
        f"# exploded tableau: partition={window.partition} t={window.t}",
        "# regions: [delta] (gamma+) <gamma->  coding coordinates marked _v_",
    ]
    xs, ys = window.z
    (v1, v2), (beads1, beads2) = window.v, window.beads
    header = " " * (width + 1)
    for xtw in xs:
        header += _axis_label(xtw, xtw in v1).rjust(width)
    lines.append(header.rstrip())
    for ytw in ys:
        label = _axis_label(ytw, ytw in v2).rjust(width) + "|"
        row = [label]
        has_y = ytw in beads2
        for xtw in xs:
            if has_y and xtw in beads1:
                entry = (xtw + ytw) // 2
                row.append(_CELL[_region(entry, window.t)].format(entry).rjust(width))
            else:
                row.append(" " * width)
        lines.append("".join(row).rstrip())
    return "\n".join(lines) + "\n"


def render_svg_per_cell(window: ExplodedWindow) -> str:
    """`exploded.render_svg` with a bead test and two formats per cell."""
    unit = 12
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
    fill = {"delta": "#c8c8c8", "gamma+": "#ffffff", "gamma-": "#f2f2e4", "other": "#e8f0ff"}
    for ytw in ys:
        if ytw not in beads2:
            continue
        for xtw in xs:
            if xtw not in beads1:
                continue
            entry = (xtw + ytw) // 2
            region = _region(entry, window.t)
            x0, y0 = px[xtw], py[ytw]
            parts.append(
                f'<rect x="{x0}" y="{y0}" width="{unit}" height="{unit}" '
                f'fill="{fill[region]}" stroke="#000000" stroke-width="0.5"/>'
            )
            parts.append(
                f'<text x="{x0 + 6}" y="{y0 + 8}" text-anchor="middle">{entry}</text>'
            )
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
    t = window.t
    for level, dash in ((t, "none"), (0, "4,2"), (-t, "2,2")):
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


# ---------------------------------------------------------------------------
# coding routes


def core_count_series(t, N):
    """Number of t-cores of each size 0..N, from the Garvan-Kim-Stanton
    product prod_k (1 - q^(tk))^t / (1 - q^k) ("Cranks and t-cores",
    Invent. Math. 101, 1990); no coding and no partition is involved."""
    power = euler_power(t, N // t)  # prod (1 - q^k)^t, read at q^(tk)
    inverse = euler_power(-1, N)
    return [sum(power[k] * inverse[n - t * k] for k in range(n // t + 1)) for n in range(N + 1)]


def full_depth_coding_to_core(coding) -> Partition:
    """`coding.coding_to_core` reading every ray down to (t+1)/2 - (n+1),
    the bead w_(n+1) of a core of size n, with the same checks."""
    values, t = coding.twice, coding.t
    n = _size(values, t)
    shift = t + 1
    lo = shift - 2 * (n + 1)
    step = 2 * t
    merged = sorted((tw for v in values for tw in range(v, lo - 1, -step)), reverse=True)
    parts = []
    prev = None
    for i, w in enumerate(merged, start=1):
        tw = w + 2 * i - shift
        if tw % 2:
            raise InvalidCodingError("bead read-off produced a half-integer part")
        lam = tw // 2
        if lam < 0 or (prev is not None and lam > prev):
            raise InvalidCodingError("bead read-off is not weakly decreasing")
        if lam > 0:
            parts.append(lam)
        prev = lam
    if sum(parts) != n:
        raise InvalidCodingError("bead read-off does not match the size formula")
    return Partition(tuple(parts))


def full_loop_enumerate_codings(t: int, max_size: int) -> list:
    """`coding.enumerate_codings` looping over every slot, the last one too,
    and keeping the vectors whose sum vanishes."""
    tw0 = 0 if t % 2 else 1
    base = [tw0 + 2 * i for i in range(t)]
    budget = 8 * t * max_size + (t * t * t - t) // 3
    by_size: dict[int, list[tuple[int, ...]]] = {}

    def rec(i, remaining_sum, remaining_budget, chosen):
        if i == t:
            if remaining_sum == 0:
                values = tuple(sorted(chosen, reverse=True))
                size = _size(values, t)
                if size <= max_size:
                    by_size.setdefault(size, []).append(values)
            return
        if remaining_sum * remaining_sum > (t - i) * remaining_budget:
            return
        b = base[i]
        s = isqrt(remaining_budget)
        for k in range(-((s + b) // (2 * t)), (s - b) // (2 * t) + 1):
            tw = b + 2 * t * k
            sq = tw * tw
            if sq > remaining_budget:
                continue
            chosen.append(tw)
            rec(i + 1, remaining_sum - tw, remaining_budget - sq, chosen)
            chosen.pop()

    rec(0, 0, budget, [])
    return [_trusted(values, t) for size in sorted(by_size)
            for values in sorted(by_size.pop(size), reverse=True)]


# ---------------------------------------------------------------------------
# weight ledgers


def seeded_partitions(seed: int, count: int):
    """Inputs for the beta-number hook tallies' per-cell oracles: the empty
    partition, one row and one column of each length 1..25, then `count`
    random partitions of up to 12 parts of at most 30."""
    yield Partition(())
    for n in range(1, 26):
        yield Partition((n,))
        yield Partition((1,) * n)
    rng = random.Random(seed)
    for _ in range(count):
        parts = [rng.randint(1, 30) for _ in range(rng.randint(1, 12))]
        yield Partition(sorted(parts, reverse=True))


def per_cell_content_ledger(mu: Partition, beta, t: int) -> WeightLedger:
    """`weights.content_ledger` walking mu cell by cell: one tau(t+c) and
    one tau(h) per cell, from the contents and hooks in row-major order."""
    exps: dict[int, int] = {}
    for i in range(1, t):
        exps[-i] = beta[i - 1]
        exps[i] = -beta[i - 1]
    for h, c in zip(mu.hooks(), mu.contents()):
        exps[t + c] = exps.get(t + c, 0) + 1
        exps[h] = exps.get(h, 0) - 1
    return WeightLedger(exps)


def one_parity_normalize(ledger: WeightLedger, parity: str) -> WeightLedger:
    """`weights.parity_normalize` folding the ledger for one parity only,
    flipping the sign at each odd exponent on a negative argument."""
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
    return WeightLedger(exps, sign)


def one_parity_coding_ledger(coding, parity: str) -> WeightLedger:
    """`weights.parity_coding_ledger` building the class-sorted product and
    its differences again for each parity, with C = -1 in the sign."""
    t = coding.t
    u = class_sorted_coding(coding)
    sign = -1 if (t % 4 == 3 and parity == "odd") else 1
    exps = {k: k - t for k in range(1, t)}
    for i, a in enumerate(u):
        for b in u[i + 1:]:
            exps[(a - b) // 2] = exps.get((a - b) // 2, 0) + 1
    return one_parity_normalize(WeightLedger(exps, sign), parity)
