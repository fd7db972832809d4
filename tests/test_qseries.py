import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, strategies as st

from tcores.coding import enumerate_codings
from tcores.partitions import Partition, enumerate_partitions, enumerate_t_cores
from tcores.qseries import (
    _det_mod_p,
    _hook_walk,
    BadConstantTermError,
    RingMismatchError,
    TruncatedSeries,
    balanced_digits,
    binomial_product,
    euler_power,
    macdonald_lhs,
    macdonald_rhs,
    macdonald_terms,
    multiplication_product_points,
    partition_sum_series,
    partition_sums_mod_p,
    residue_sign,
    schur_branching_at,
    schur_principal,
)
from tcores.rings import P, Poly, PrimeField, RationalField

from oracles import (
    PolynomialRing,
    _bareiss,
    eta_like_product,
    geometric_multiples,
    jacobi_pair,
    laurent_at,
    laurent_macdonald_lhs,
    laurent_macdonald_rhs,
    lex_macdonald_lhs,
    macdonald_box_terms,
    partition_gf,
    per_partition_sum_series,
    schur_principal_at,
    series_pow,
    substitute,
)

QQ = RationalField()


def qq_series(coeffs, order=None):
    coeffs = [Fraction(c) for c in coeffs]
    if order is not None:
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
    return TruncatedSeries(QQ, coeffs)


def ssyt_schur_principal(parts, n):
    """Oracle: enumerate semistandard fillings with entries <= n and sum
    p^(sum of entries - cell count)."""
    parts = tuple(parts)
    cells = [(i, j) for i, p in enumerate(parts) for j in range(p)]
    poly = {}

    def fill(idx, values):
        if idx == len(cells):
            weight = sum(values.values()) - len(cells)
            poly[weight] = poly.get(weight, 0) + 1
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, values[(i, j - 1)])
        if i > 0:
            lo = max(lo, values[(i - 1, j)] + 1)
        for v in range(lo, n + 1):
            values[(i, j)] = v
            fill(idx + 1, values)
            del values[(i, j)]

    fill(0, {})
    return Poly(("p",), {(k,): Fraction(v) for k, v in poly.items()})


def test_series_arith_examples():
    f = qq_series([1, 1], order=2)  # 1 + q
    g = qq_series([1, -1], order=2)  # 1 - q
    assert f * g == qq_series([1, 0, -1])
    one = TruncatedSeries.one(QQ, 2)
    assert f * one == f
    geo = qq_series([1] * 5)
    assert geo * qq_series([1, -1], order=4) == TruncatedSeries.one(QQ, 4)
    assert f + g == qq_series([2, 0, 0])
    assert f - g == qq_series([0, 2, 0])


def test_mixed_orders_truncate():
    f = qq_series([1, 2, 3, 4])
    g = qq_series([1, 1])
    assert (f + g).order == 1
    assert (f * g).order == 1


def test_ring_mismatch():
    f = qq_series([1, 1])
    g = TruncatedSeries(PrimeField(), [1, 1])
    with pytest.raises(RingMismatchError):
        f + g


def test_exp_basics():
    zero = TruncatedSeries.zero(QQ, 5)
    assert zero.exp() == TruncatedSeries.one(QQ, 5)
    with pytest.raises(BadConstantTermError):
        TruncatedSeries.one(QQ, 3).exp()


def test_partition_generating_function_via_exp():
    N = 12
    total = TruncatedSeries.zero(QQ, N)
    for k in range(1, N + 1):
        total = total + geometric_multiples(QQ, k, N, Fraction(1, k))
    pgf = total.exp()
    counts = [len(list(enumerate_partitions(n))) for n in range(N + 1)]
    assert [int(c) for c in pgf.coeffs] == counts


def test_eta_like_product_examples():
    assert eta_like_product(0, 6) == TruncatedSeries.one(QQ, 6)
    eta = eta_like_product(1, 12)
    assert [int(c) for c in eta.coeffs] == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    ring = PolynomialRing(("beta",))
    beta = ring.var("beta")
    sym = eta_like_product(beta - 1, 3, ring)
    assert sym.coeffs[1] == ring.one - beta


def test_partition_sum_series_examples():
    pgf = partition_sum_series(lambda h: Fraction(1), 1, 8)
    counts = [len(list(enumerate_partitions(n))) for n in range(9)]
    assert [int(c) for c in pgf.coeffs] == counts

    ring = PolynomialRing(("beta",))
    beta = ring.var("beta")
    no = partition_sum_series(lambda h: ring.one - beta * Fraction(1, h * h), 1, 4, ring)
    assert no.coeffs[1] == ring.one - beta

    # a weight vanishing on multiples of t restricts the sum to t-cores
    t = 3
    killed = partition_sum_series(lambda h: Fraction(0 if h % t == 0 else 1), 1, 10)
    core_counts = [0] * 11
    for lam in enumerate_t_cores(t, 10):
        core_counts[lam.size] += 1
    assert [int(c) for c in killed.coeffs] == core_counts


def test_series_pow_and_inverse():
    f = binomial_product(QQ, 8, [(-1, 1)])
    assert f * f.inverse() == TruncatedSeries.one(QQ, 8)
    assert series_pow(f, -2) == series_pow(f.inverse(), 2)
    assert [int(c) for c in series_pow(f, -1).coeffs] == [1] * 9


LAURENT = PolynomialRing(("a",), laurent=True)
BINOMIAL_RINGS = {  # each ring with a random-coefficient draw
    "QQ": (QQ, lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 4))),
    "GF(p)": (PrimeField(), lambda rng: rng.randrange(P)),
    "Laurent": (LAURENT, lambda rng: LAURENT.monomial((rng.randint(-2, 2),), rng.randint(-3, 3))),
}


@pytest.mark.parametrize("ring_name", sorted(BINOMIAL_RINGS))
@pytest.mark.parametrize("seed", range(8))
def test_binomial_product_matches_explicit_product(ring_name, seed):
    ring, coeff = BINOMIAL_RINGS[ring_name]
    rng = random.Random(seed)
    order = rng.randint(0, 7)
    # random pairs, always with an m = 0 pair, an m > order pair and a repeated pair
    factors = [(coeff(rng), rng.randint(0, order + 2)) for _ in range(rng.randint(0, 6))]
    factors += [(coeff(rng), 0), (coeff(rng), order + rng.randint(1, 3))]
    factors += [(coeff(rng), rng.randint(0, order))] * rng.randint(2, 3)
    rng.shuffle(factors)
    # oracle: the series product of the two-term series 1 + c q^m
    want = TruncatedSeries.one(ring, order)
    for c, m in factors:
        want = want * (TruncatedSeries.one(ring, order) + TruncatedSeries.monomial(ring, m, order, c))
    got = binomial_product(ring, order, factors)
    assert got == want, factors
    assert binomial_product(ring, order, []) == TruncatedSeries.one(ring, order)


def test_residue_sign_rules():
    assert residue_sign(tuple(range(1, 6))) == 1
    assert residue_sign((1, 2, 3, 4, 6)) == 0  # residue 1 repeats
    assert residue_sign((2, 1, 3)) == -1
    for term in macdonald_terms(3, 3):
        assert term.epsilon in (-1, 1)
        assert term.omega >= 0
    # inversion count against the box oracle's cycle count
    for t, N in ((3, 3), (4, 2), (5, 1)):
        for term in macdonald_box_terms(t, N):
            assert residue_sign(term.a) == term.epsilon, term


@pytest.mark.parametrize("t, N", [(2, 4), (2, 8), (3, 4), (3, 8), (4, 6), (5, 4)])
def test_macdonald_terms_match_box_oracle(t, N):
    box = macdonald_box_terms(t, N)
    assert macdonald_terms(t, N) == box
    # the sum side, against the box terms added one monomial at a time
    rhs = laurent_macdonald_rhs(t, N)
    want = [rhs.ring.zero] * (N + 1)
    for term in box:
        exps = tuple(i + 1 - a for i, a in enumerate(term.a))
        want[term.omega] = want[term.omega] + rhs.ring.monomial(exps, term.epsilon)
    assert rhs.coeffs == want


def test_macdonald_terms_lose_a_dropped_coding(monkeypatch):
    from tcores import identities, qseries

    # the verifier enumerates the codings itself and hands them to the sum side
    real = qseries.enumerate_codings
    for module in (qseries, identities):
        monkeypatch.setattr(module, "enumerate_codings", lambda t, n: real(t, n)[:-1])
    assert macdonald_terms(3, 4) != macdonald_box_terms(3, 4)
    assert not identities.verify_macdonald(3, 4).passed


def test_macdonald_constant_term_t2():
    lhs = laurent_macdonald_lhs(2, 0)
    rhs = laurent_macdonald_rhs(2, 0)
    ring = lhs.ring
    want = ring.one - ring.monomial((-1, 1))  # 1 - x2/x1
    assert lhs.coeffs[0] == want
    assert rhs.coeffs[0] == want


def test_macdonald_exact_small():
    assert laurent_macdonald_lhs(2, 4) == laurent_macdonald_rhs(2, 4)
    assert laurent_macdonald_lhs(3, 3) == laurent_macdonald_rhs(3, 3)
    assert laurent_macdonald_lhs(4, 2) == laurent_macdonald_rhs(4, 2)


# the sizes at which the GF(p) Macdonald sides meet their Laurent oracles
MACDONALD_SIZES = [(2, 4), (3, 4), (4, 6), (5, 4)]


def macdonald_point(t, seed):
    """The point x that `verify_macdonald` draws from `seed`."""
    rng = random.Random(seed)
    return [rng.randrange(2, P) for _ in range(t)]


@lru_cache(maxsize=None)
def laurent_macdonald_pair(t, N):
    return laurent_macdonald_lhs(t, N), laurent_macdonald_rhs(t, N)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("t, N", MACDONALD_SIZES)
def test_gf_macdonald_sides_are_the_laurent_sides_at_x(t, N, seed):
    x = macdonald_point(t, seed)
    lhs, rhs = laurent_macdonald_pair(t, N)
    assert macdonald_lhs(N, x).coeffs == [laurent_at(c, x) for c in lhs.coeffs]
    assert macdonald_rhs(N, x, enumerate_codings(t, N)).coeffs == [laurent_at(c, x) for c in rhs.coeffs]


@pytest.mark.parametrize("t, N", MACDONALD_SIZES)
def test_sz_degree_is_the_laurent_exponent_spread(t, N):
    from tcores.identities import verify_macdonald

    # each q^n coefficient cleared by the monomial of its smallest exponents
    degrees = []
    for c in laurent_macdonald_pair(t, N)[0].coeffs:
        if c.terms:
            low = [min(column) for column in zip(*c.terms)]
            degrees.append(max(sum(e - m for e, m in zip(exps, low)) for exps in c.terms))
    assert verify_macdonald(t, N).details["sz_degree"] == max(degrees)


def test_gf_products_stay_residues():
    from tcores.identities import sample_point, tcore_lemma_series

    Y = sample_point(random.Random(7), 10)
    x = macdonald_point(8, 7)
    series = [
        *tcore_lemma_series(5, Y, 10), macdonald_lhs(12, x), macdonald_rhs(12, x, enumerate_codings(8, 12))
    ]
    values = [c for s in series for c in s.coeffs]
    assert all(0 <= c < P for c in values)
    assert max(c.bit_length() for c in values) <= 61


def leibniz_det_mod_p(rows):
    """The determinant as the signed sum over permutations, mod p."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = term * rows[i][j] % P
        total += term
    return total % P


@pytest.mark.parametrize("seed", range(6))
def test_det_mod_p_matches_leibniz(seed):
    rng = random.Random(seed)
    for n in range(5):
        # mostly zeros and small values, so zero pivots and singular matrices occur
        rows = [[rng.choice([0, 0, 1, P - 1, rng.randrange(P)]) for _ in range(n)] for _ in range(n)]
        assert _det_mod_p(rows) == leibniz_det_mod_p(rows), rows
    assert _det_mod_p([[0, 1], [1, 0]]) == P - 1
    assert _det_mod_p([[1, 2], [2, 4]]) == 0


@pytest.mark.parametrize("seed", range(4))
def test_balanced_digits_read_back_small_coefficients(seed):
    rng = random.Random(seed)
    bits = rng.randint(2, 40)
    half = 1 << (bits - 1)
    coeffs = [rng.randrange(-half, half) for _ in range(rng.randint(0, 8))]
    low = rng.randint(-5, 5)
    value = sum(c << (bits * i) for i, c in enumerate(coeffs))
    want = {(low + i,): c for i, c in enumerate(coeffs)}
    got = balanced_digits(value, bits, low)
    assert {e: c for e, c in got.items() if c} == {e: c for e, c in want.items() if c}


# the walked kernels against their unwalked oracles, coefficient for
# coefficient: equal values of equal type, not the ring's comparison rule


def exact_coeffs(series):
    """Each coefficient as (type, value); a Poly as its term dict of them."""
    return [
        {e: (type(v), v) for e, v in c.terms.items()} if isinstance(c, Poly) else (type(c), c)
        for c in series.coeffs
    ]


def weight_case(name):
    """(ring, rho, N) of one coefficient ring of the partition sums."""
    if name == "QQ-one":
        return QQ, lambda h: 1, 14
    if name == "QQ[beta]":
        ring = PolynomialRing(("beta",))
        beta = ring.var("beta")
        return ring, lambda h: ring.one - beta * Fraction(1, h * h), 12
    if name == "GF(p)":
        return PrimeField(), lambda h: pow(123456789, h, P) + h, 14
    if name == "GF(p)[s]":
        ring = PolynomialRing(("s",), base=PrimeField())
        s = ring.var("s")
        return ring, lambda h: s + (s - 1) * (s - 1) * pow(h + 2, -1, P), 12
    ring = PolynomialRing(("beta", "x"))
    beta, x = ring.var("beta"), ring.var("x")
    return ring, lambda h: x * (ring.one - beta * Fraction(1, h * h)), 12


def core_source(t, N):
    """The t-cores by size, from the filter over all partitions."""
    cores = {n: [] for n in range(N + 1)}
    for lam in enumerate_t_cores(t, N):
        cores[lam.size].append(lam)
    return cores.__getitem__


# every walk runs over all partitions; the id "all" names that
@pytest.mark.parametrize("over", ["all"])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("name", ["QQ-one", "QQ[beta]", "GF(p)", "GF(p)[s]", "QQ[beta,x]"])
def test_partition_sum_is_the_per_partition_loop(name, r, over):
    ring, rho, N = weight_case(name)
    got = partition_sum_series(rho, r, N, ring)
    want = per_partition_sum_series(rho, r, N, ring)
    assert exact_coeffs(got) == exact_coeffs(want)


@pytest.mark.parametrize("over", ["all"])
@pytest.mark.parametrize("r", [1, 2])
def test_vector_walk_is_the_per_partition_loop_slot_by_slot(r, over):
    N = 12
    weights = [lambda h, a=a: pow(a, h, P) + h for a in (3, 123456789, P - 2)]
    got = partition_sums_mod_p([{h: f(h) for h in range(r, N + 1, r)} for f in weights], r, N)
    assert len(got) == len(weights)
    for series, f in zip(got, weights):
        want = per_partition_sum_series(f, r, N, PrimeField())
        assert series.ring.name == "GF(p)"
        assert series.coeffs == [c % P for c in want.coeffs]
        assert all(type(c) is int for c in series.coeffs)


@pytest.mark.parametrize("t", range(2, 7))
def test_tcore_restricted_sum_is_the_per_partition_loop_over_filter_cores(t):
    # the restricted sum multiplies the weights over each core built from
    # its coding; the oracle loops over the filter route's cores, with the
    # weight written out here: the 2i of each sine cancels in the quotient
    from tcores.identities import sample_point, tcore_lemma_series

    N = 10
    Y = sample_point(random.Random(t), N)
    W = pow(Y, t, P)

    def rho(h):
        Yh = pow(Y, h, P)
        return 1 - (W - pow(W, -1, P)) ** 2 * pow((Yh - pow(Yh, -1, P)) ** 2, -1, P)

    want = per_partition_sum_series(rho, 1, N, PrimeField(), source=core_source(t, N))
    restricted = tcore_lemma_series(t, Y, N)[0]
    assert restricted.coeffs == [c % P for c in want.coeffs]


def unwalked_hook_keys(r, order):
    """(n, sorted hooks divisible by r) -> number of partitions of n with
    them, one `Partition.hooks(r)` per partition, no conjugate classes."""
    return Counter(
        (n, tuple(sorted(lam.hooks(r))))
        for n in range(order + 1)
        for lam in enumerate_partitions(n)
    )


@pytest.mark.parametrize("order", range(11))
@pytest.mark.parametrize("r", [1, 2, 3])
def test_hook_walk_folds_each_distinct_prefix_once(r, order):
    # the walk tallies as the unwalked loop does, each value is the fold of
    # `step` over its key (here the key rebuilt), and `step` runs once per
    # distinct non-empty prefix over the keys of all sizes together; at
    # r = 2 several sizes share a key from order 1 on: the staircases 0, 1,
    # 21, 321, the 2-cores, have no even hook, so sizes 0, 1, 3, 6 share ()
    calls = []

    def step(value, h):
        calls.append(h)
        return value + (h,)

    walked = Counter()
    for n, key, value, weight in _hook_walk(r, order, (), step):
        assert value == key
        assert (n, key) not in walked
        walked[n, key] = weight
    want = unwalked_hook_keys(r, order)
    assert walked == want
    prefixes = {key[:i] for _, key in want for i in range(1, len(key) + 1)}
    assert len(calls) == len(prefixes)


def test_partition_sum_shares_hook_prefixes():
    # one ring product per distinct prefix of the sorted hook multisets over
    # all sizes, against sum n p(n) = 416 for one product per hook
    ring, rho, N = weight_case("GF(p)[s]")
    calls = []

    def counting(h):
        calls.append(h)
        return rho(h)

    partition_sum_series(counting, 1, 8, ring)
    assert len(calls) == 71
    calls.clear()
    per_partition_sum_series(counting, 1, 8, ring)
    assert len(calls) == 416


@pytest.mark.parametrize("t, N", [(2, 6), (3, 5), (4, 6), (5, 3)])
def test_macdonald_lhs_is_the_lex_order_product(t, N):
    assert exact_coeffs(laurent_macdonald_lhs(t, N)) == exact_coeffs(lex_macdonald_lhs(t, N))


def test_macdonald_lhs_multiplies_sparse_partial_products(monkeypatch):
    # coefficient term pairs of every Poly product in laurent_macdonald_lhs(4, 6)
    pairs = []
    real = Poly.__mul__

    def counting(self, other):
        pairs.append(len(self.terms) * len(other.terms) if isinstance(other, Poly) else len(self.terms))
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    laurent_macdonald_lhs(4, 6)
    assert sum(pairs) == 11182
    pairs.clear()
    lex_macdonald_lhs(4, 6)
    assert sum(pairs) == 21356


@lru_cache(maxsize=None)
def gaussian_binomial(m: int, k: int) -> Poly:
    """Reference: the p-binomial coefficient [m choose k]_p as a `Poly`, by
    the Pascal recurrence [m k] = [m-1 k-1] + p^k [m-1 k]."""
    names = ("p",)
    if k < 0 or k > m:
        return Poly(names, {})
    if k == 0 or k == m:
        return Poly.constant(names, 1)
    pk = Poly(names, {(k,): 1})
    return gaussian_binomial(m - 1, k - 1) + pk * gaussian_binomial(m - 1, k)


def complete_homogeneous_principal(k: int, n: int) -> Poly:
    """Reference: h_k at 1, p, ..., p^(n-1), the p-binomial [n+k-1 choose k]."""
    if k < 0:
        return Poly(("p",), {})
    if k == 0:
        return Poly.constant(("p",), 1)
    return gaussian_binomial(n + k - 1, k)


def test_gaussian_binomial_against_brute():
    for n in range(1, 5):
        for k in range(0, 5):
            brute = {}
            for combo in combinations_with_replacement(range(n), k):
                s = sum(combo)
                brute[s] = brute.get(s, 0) + 1
            want = Poly(("p",), {(s,): Fraction(v) for s, v in brute.items()})
            assert complete_homogeneous_principal(k, n) == want


def laplace_det(matrix: list[list[Poly]]) -> Poly:
    """Reference: the determinant by Laplace expansion along the first row,
    with the minors of each column subset cached."""
    n = len(matrix)
    names = matrix[0][0].names
    cache: dict[tuple[int, ...], Poly] = {}

    def minor(row: int, cols: tuple[int, ...]) -> Poly:
        if row == n:
            return Poly.constant(names, 1)
        if cols in cache:
            return cache[cols]
        acc = Poly(names, {})
        for pos, c in enumerate(cols):
            entry = matrix[row][c]
            if entry.is_zero():
                continue
            term = entry * minor(row + 1, cols[:pos] + cols[pos + 1 :])
            acc = acc + (term if pos % 2 == 0 else -term)
        cache[cols] = acc
        return acc

    return minor(0, tuple(range(n)))


def laplace_schur_principal(lam, n):
    """Reference: the Jacobi-Trudi determinant of `Poly` entries."""
    parts = lam.parts
    if not parts:
        return Poly.constant(("p",), 1)
    return laplace_det([
        [complete_homogeneous_principal(parts[i] - i + j, n) for j in range(len(parts))]
        for i in range(len(parts))
    ])


def test_schur_principal_examples():
    assert schur_principal(Partition((1,)), 2) == Poly(
        ("p",), {(0,): Fraction(1), (1,): Fraction(1)}
    )
    assert schur_principal(Partition((1, 1)), 1) == Poly(("p",), {})
    assert schur_principal(Partition(()), 3) == Poly(("p",), {(0,): Fraction(1)})
    assert schur_principal(Partition(()), 0) == Poly.constant(("p",), 1)
    assert schur_principal(Partition((2, 1)), 0) == Poly(("p",), {})


def test_schur_principal_against_ssyt_oracle():
    for size in range(10):
        for lam in enumerate_partitions(size):
            for n in range(1, 7):
                assert schur_principal(lam, n) == ssyt_schur_principal(
                    lam.parts, n
                ), (lam, n)


def test_schur_principal_at_matches_laplace_reference():
    # the hook-content sweep's evaluation point at its `full` sizes (8, 5)
    X = 1 << (8 * (2 * 5).bit_length() + 2)
    cache = {}
    for size in range(9):
        for lam in enumerate_partitions(size):
            for n in range(1, 6):
                want = substitute(laplace_schur_principal(lam, n), "p", X).coefficient(())
                assert schur_principal_at(lam, n, X, cache) == want, (lam, n)


def test_schur_principal_vanishes_on_tall_partitions():
    for size in range(9):
        for lam in enumerate_partitions(size):
            for n in range(6):
                if len(lam.parts) > n:
                    assert schur_principal(lam, n).is_zero(), (lam, n)
                    assert schur_principal_at(lam, n, 1 << 20, {}) == 0, (lam, n)


def test_bareiss_raises_on_a_zero_pivot():
    assert _bareiss([[2, 1], [4, 5]]) == 6
    assert _bareiss([]) == 1
    with pytest.raises(AssertionError, match="zero pivot"):
        _bareiss([[0, 1], [1, 0]])


@pytest.mark.parametrize("bits", [2, 50])
def test_branching_schur_is_the_jacobi_trudi_value(bits):
    # every partition of size <= 12 at n = 1..7, the tall ones' zeros
    # included; 50 is the hook-content sweep's B at (12, 7)
    memo, cache = {}, {}
    for size in range(13):
        for lam in enumerate_partitions(size):
            for n in range(1, 8):
                got = schur_branching_at(lam.parts, n, bits, memo)
                assert got == schur_principal_at(lam, n, 1 << bits, cache), (lam, n)
                assert (got == 0) == (len(lam.parts) > n), (lam, n)


def test_branching_memo_fills_in_any_order():
    pairs = [
        (lam.parts, n) for size in range(13) for lam in enumerate_partitions(size) for n in range(1, 8)
    ]
    forward, backward = {}, {}
    want = [schur_branching_at(parts, n, 50, forward) for parts, n in pairs]
    got = [schur_branching_at(parts, n, 50, backward) for parts, n in reversed(pairs)]
    assert got[::-1] == want
    assert backward == forward


def test_partition_gf_is_euler_power_minus_one():
    # the t = 0 sine-family panel reads prod (1 - q^k)^(-1) off euler_power;
    # the exp-log partition generating function is its oracle
    assert euler_power(-1, 24) == partition_gf(24).coeffs


def test_series_str_and_json():
    f = qq_series([1, Fraction(3, 2), 0, 2])
    assert str(f) == "1 + 3/2*q + 2*q^3 (+O(q^4))"


small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)


@given(
    st.lists(small_fractions, min_size=1, max_size=7),
    st.lists(small_fractions, min_size=1, max_size=7),
)
def test_exp_turns_sums_into_products(a, b):
    n = min(len(a), len(b))
    f = TruncatedSeries(QQ, [Fraction(0)] + a[:n])
    g = TruncatedSeries(QQ, [Fraction(0)] + b[:n])
    assert (f + g).exp() == f.exp() * g.exp()


@given(
    st.lists(small_fractions, min_size=3, max_size=5),
    st.lists(small_fractions, min_size=3, max_size=5),
    st.lists(small_fractions, min_size=3, max_size=5),
)
def test_ring_laws(a, b, c):
    n = min(len(a), len(b), len(c)) - 1
    f = TruncatedSeries(QQ, a[: n + 1])
    g = TruncatedSeries(QQ, b[: n + 1])
    h = TruncatedSeries(QQ, c[: n + 1])
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


# ---------------------------------------------------------------------------
# Poly against a naive dict-of-Fraction reference


def ref_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c != 0}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_neg(a):
    return {e: -c for e, c in a.items()}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out)


def ref_substitute(a, idx, value):
    out = {}
    for e, c in a.items():
        rest = e[:idx] + e[idx + 1 :]
        out[rest] = out.get(rest, 0) + c * value ** e[idx]
    return ref_clean(out)


# univariate, the (beta, x) ring, and a 3-variable Laurent ring
POLY_SHAPES = [(("q",), 0), (("beta", "x"), 0), (("x1", "x2", "x3"), -2)]

poly_coeffs = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.sampled_from([Fraction(4, 2), Fraction(-6, 3), Fraction(0), 0]),
)


def poly_terms(names, low):
    exps = st.tuples(*[st.integers(low, 3)] * len(names))
    return st.dictionaries(exps, poly_coeffs, max_size=5)


def plain(p):
    values = dict(p.terms)
    assert all(type(c) in (int, Fraction) for c in values.values())
    return values


@given(st.data())
def test_poly_against_reference(data):
    names, low = data.draw(st.sampled_from(POLY_SHAPES))
    ta = data.draw(poly_terms(names, low))
    tb = data.draw(poly_terms(names, low))
    a, b = Poly(names, ta), Poly(names, tb)
    ra, rb = ref_clean(ta), ref_clean(tb)
    assert plain(a) == ra and plain(b) == rb
    for got, want in (
        (a + b, ref_add(ra, rb)),
        (a - b, ref_add(ra, ref_neg(rb))),
        (a * b, ref_mul(ra, rb)),
        (-a, ref_neg(ra)),
    ):
        assert plain(got) == want
        assert got == Poly(names, want)
        assert hash(got) == hash(Poly(names, want))
        assert str(got) == str(Poly(names, want))
        for e in want:
            assert got.coefficient(e) == want[e]
    idx = data.draw(st.integers(0, len(names) - 1))
    value = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=4).filter(bool))
    assert plain(substitute(a, names[idx], value)) == ref_substitute(ra, idx, value)
    assert (a == b) == (ra == rb)


@given(st.data())
def test_poly_equal_values_hash_equal(data):
    names, low = data.draw(st.sampled_from(POLY_SHAPES))
    ta = data.draw(poly_terms(names, low))
    tb = data.draw(poly_terms(names, low))
    a, b = Poly(names, ta), Poly(names, tb)
    # the same value built two ways
    pairs = [
        (a * b, b * a),
        ((a + b) - b, a),
        (a * 2, a + a),
        (a * Fraction(1, 3) * 3, a),
        (Poly(names, {e: Fraction(2 * c) / 2 for e, c in ta.items()}), a),
        (Poly(names, {e: Fraction(c).numerator if Fraction(c).denominator == 1 else c
                      for e, c in ta.items()}), a),
    ]
    for x, y in pairs:
        assert x == y
        assert hash(x) == hash(y)
    zero = a - a
    assert zero == Poly(names, {}) and hash(zero) == hash(Poly(names, {}))


def test_poly_reads_exact_values():
    beta = Poly(("beta",), {(1,): 1})
    p = (1 - beta * Fraction(1, 4)) * (1 - beta * Fraction(1, 9))
    assert str(p) == "1 + -13/36*beta + 1/36*beta^2"
    assert p.coefficient((2,)) == Fraction(1, 36)
    assert p.coefficient((5,)) == 0
    q = Poly(("p",), {(0,): Fraction(4, 2), (3,): -1})
    assert type(q.coefficient((0,))) is int and q == 2 - Poly(("p",), {(3,): 1})
    assert str(q) == "2 + -1*p^3"


def test_poly_rejects_floats_and_substitutes_exactly():
    for bad in (1.5, 0.5j, 2.0):
        with pytest.raises(TypeError):
            Poly(("a",), {(1,): bad})
        with pytest.raises(TypeError):
            Poly.constant(("a",), bad)
        with pytest.raises(TypeError):
            PolynomialRing(("a",)).monomial((1,), bad)
    p = Poly(("a", "x"), {(-1, 0): 1, (0, 0): 1, (-2, 1): 3})  # a^-1 + 1 + 3 a^-2 x
    got = substitute(p, "a", 2)
    assert got == Poly(("x",), {(0,): Fraction(3, 2), (1,): Fraction(3, 4)})
    assert all(type(c) is Fraction for c in got.terms.values())
    with pytest.raises(ZeroDivisionError):
        substitute(p, "a", 0)


def test_prime_field():
    F = PrimeField()
    assert pow(2, P - 1, P) == 1 and P % 4 == 1
    assert F.coerce(-1) == P - 1 and F.coerce(Fraction(1, 2)) * 2 % P == 1
    assert F.coerce(Fraction(-3, 4)) * 4 % P == P - 3
    assert F.eq(P + 5, 5) and F.is_zero(3 * P) and not F.is_zero(1)
    assert F.div_int(1, 3) * 3 % P == 1 and F.inv(P - 1) == P - 1
    with pytest.raises(ZeroDivisionError):
        F.inv(P)
    with pytest.raises(TypeError):
        F.coerce(0.5)
    # GF(p)[s]: coefficients reduce through the base ring
    R = PolynomialRing(("s",), base=F)
    s = R.var("s")
    assert R.name == "GF(p)[s](poly)"
    assert R.eq(s * (P + 2), s * 2) and R.is_zero(s * P) and not R.is_zero(s)
    assert R.div_int(s * 6, 3) == s * 2 and R.coerce(s * (P + 2)) == s * 2
    assert R.inv(R.monomial((0,), 2)) == R.coerce(Fraction(1, 2))
    # exp stays inside GF(p): exp(q) = sum q^k / k!
    f = TruncatedSeries(F, [0, 1, 0, 0, 0])
    want = TruncatedSeries(F, [F.coerce(Fraction(1, k)) for k in (1, 1, 2, 6, 24)])
    assert f.exp().first_mismatch(want) is None


def exact_values(series):
    for c in series.coeffs:
        yield from (c.terms.values() if isinstance(c, Poly) else (c,))


def test_exact_series_hold_no_float():
    from oracles import multiplication_pair, nekrasov_okounkov_pair

    series = [
        partition_gf(12),
        *nekrasov_okounkov_pair(8),
        *multiplication_pair(2, 8),
        *jacobi_pair(8),
        laurent_macdonald_lhs(3, 3),
        laurent_macdonald_rhs(3, 3),
        # the hook sum of the weight 1, which the t = 0 sine-family panel
        # takes as a partition count
        partition_sum_series(lambda h: 1, 1, 12),
    ]
    for s in series:
        for v in exact_values(s):
            assert type(v) in (int, Fraction), (s.ring.name, v)
    assert all(type(v) in (int, Fraction) for v in gaussian_binomial(8, 4).terms.values())

    # the GF(p) series hold ints only
    from oracles import poly_s_pair
    from tcores.identities import sin_family_rhs, sin_weights, tcore_lemma_series

    Y, W = 123456789, 987654321
    gf_series = [
        partition_sums_mod_p([sin_weights(2, Y, W, 8)], 2, 8)[0],
        sin_family_rhs(2, Y, W, 8),
        *poly_s_pair(Y, 6),
        *tcore_lemma_series(3, Y, 8),
    ]
    for s in gf_series:
        assert s.ring.name.startswith("GF(p)")
        for v in exact_values(s):
            assert type(v) is int, (s.ring.name, v)


def test_integer_rings_hold_ints():
    # no coefficient of an integer ring is ever a Fraction, not even 1/1
    from oracles import poly_s_pair
    from tcores.identities import sample_point

    Y = sample_point(random.Random(7), 8)
    series = [
        *jacobi_pair(10), laurent_macdonald_lhs(3, 4), laurent_macdonald_rhs(3, 4), *poly_s_pair(Y, 8)
    ]
    values = [v for s in series for v in exact_values(s)]
    assert values and all(type(v) is int for v in values)


def test_integer_point_kernels_hold_ints():
    from tcores.identities import multiplication_hook_points

    values = [v for alpha in (-3, -1, 0, 2, 7) for v in euler_power(alpha, 20)]
    for r, N in ((1, 12), (2, 13), (3, 10), (5, 4)):
        for table in (multiplication_hook_points(r, N), multiplication_product_points(r, N)):
            values += [v for row in table for entry in row for v in entry]
    assert values and all(type(v) is int for v in values)


@pytest.mark.parametrize("alpha", [-4, -1, 0, 1, 3, 8])
def test_euler_power_is_the_eta_like_product(alpha):
    # Miller's recurrence on the pentagonal series against exp(alpha log)
    assert euler_power(alpha, 18) == eta_like_product(Fraction(alpha), 18).coeffs
