"""One verifier per series/multiset identity, each returning a report.

Exact rings are compared with zero tolerance and report the first
mismatching coefficient; complex rings always report the largest
coefficientwise deviation, pass or fail.  Identities in a free complex
parameter are checked on a fixed panel of generic sample points drawn from
a seeded generator, chosen off the zero set of the sines involved.
"""

from __future__ import annotations

import cmath
import inspect
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .coding import (
    bead_relation_checks,
    coding_size,
    coding_to_core,
    content_coding,
    content_coding_size,
    core_coding,
    cores_from_codings,
    is_content_coding_image,
    validate_coding,
)
from .exploded import (
    build_window,
    check_fold,
    check_fold_ledger,
    check_translation_relations,
    check_triangle_ledger,
    region_ledger,
)
from .partitions import Partition, enumerate_partitions, enumerate_t_cores
from .qseries import (
    TruncatedSeries,
    eta_like_product,
    geometric_multiples,
    macdonald_lhs,
    macdonald_rhs,
    macdonald_terms,
    one_minus_power,
    partition_sum_series,
    schur_principal,
)
from .rings import ComplexField, Poly, PolynomialRing, RationalField
from .weights import (
    WeightLedger,
    coding_difference_ledger,
    content_ledger,
    hook_shift_ledger,
    parity_coding_ledger,
    parity_normalize,
)

FLOAT_TOL = 1e-8
SIN_GUARD = 1e-12


class SingularSampleError(ValueError):
    """A sample point makes a required sine (or cosine shift) vanish."""


@dataclass
class VerificationReport:
    identity: str
    params: dict
    N: int | None
    ring: str
    status: str
    deviation: str
    ms: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out = {
            "identity": self.identity,
            "params": self.params,
            "N": self.N,
            "ring": self.ring,
            "status": self.status,
            "deviation": self.deviation,
            "ms": round(self.ms, 3),
        }
        if self.details:
            out["details"] = self.details
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _finish(identity, params, N, ring, ok, deviation, t0, **details) -> VerificationReport:
    return VerificationReport(
        identity=identity,
        params=params,
        N=N,
        ring=ring,
        status="pass" if ok else "fail",
        deviation=deviation,
        ms=(time.perf_counter() - t0) * 1000.0,
        details=details,
    )


def _sweep_report(identity, params, ring, failures, t0, **counts) -> VerificationReport:
    """Report of a sweep that stopped at its first failure.  A count still at
    zero fails it too: a sweep that checked nothing must not pass."""
    failures = failures + [f"nothing checked: {k} = 0" for k, v in counts.items() if not v]
    ok = not failures
    return _finish(identity, params, None, ring, ok, "0" if ok else failures[0], t0, **counts)


def _exact_compare(lhs: TruncatedSeries, rhs: TruncatedSeries):
    miss = lhs.first_mismatch(rhs)
    if miss is None:
        return True, "0"
    i, a, b = miss
    return False, f"{lhs.var}^{i}: {str(a)[:60]} != {str(b)[:60]}"


def default_samples(count: int, seed: int):
    """Deterministic generic (t, z) complex pairs.

    z is kept off the real axis so sin(m z) never vanishes for integer
    m != 0; magnitudes stay small enough that double precision holds the
    stated tolerance through the truncation orders used here.
    """
    rng = random.Random(seed)
    samples = []
    for _ in range(count):
        z = complex(0.15 + 0.3 * rng.random(), 0.05 + 0.25 * rng.random())
        t_value = complex(0.4 + 1.2 * rng.random(), -0.3 + 0.6 * rng.random())
        samples.append((t_value, z))
    return samples


def _require_nonzero(values, what: str):
    for arg, v in values:
        if abs(v) < SIN_GUARD:
            raise SingularSampleError(f"{what}({arg}) vanishes at this sample")


# ---------------------------------------------------------------------------
# bijection and ledger sweeps


def verify_multiset_formula(t: int = 5, max_size: int = 15, ledger_max_size: int | None = None) -> VerificationReport:
    """Sweep every t-core up to max_size: coding round trip, both size
    formulas, the bead-set relations, and (up to ledger_max_size) the three
    exponent-ledger identities with both parity normalizations."""
    t0 = time.perf_counter()
    if ledger_max_size is None:
        ledger_max_size = max_size
    failures = []
    checked = 0
    for lam in enumerate_t_cores(t, max_size):
        checked += 1
        coding = core_coding(lam, t)
        diag = validate_coding(coding.values, t)
        if not diag.valid:
            failures.append(f"{lam}: produced coding invalid: {diag.messages}")
            break
        if coding_to_core(coding) != lam:
            failures.append(f"{lam}: round trip failed")
            break
        if coding_size(coding) != lam.size:
            failures.append(f"{lam}: coding size formula mismatch")
            break
        mu = content_coding(lam, t)
        if content_coding_size(mu, t) != lam.size:
            failures.append(f"{lam}: content-side size formula mismatch")
            break
        if not is_content_coding_image(mu, t):
            failures.append(f"{lam}: image characterization fails for {mu}")
            break
        relations = bead_relation_checks(lam, t)
        bad = [k for k, v in relations.items() if not v]
        if bad:
            failures.append(f"{lam}: bead relations failed: {bad}")
            break
        if lam.size <= ledger_max_size:
            beta = lam.small_hook_counts(t)
            lhs = hook_shift_ledger(lam, t)
            rhs = coding_difference_ledger(coding, beta, t)
            if lhs != rhs:
                failures.append(f"{lam}: hook-shift ledger != coding ledger")
                break
            for parity in ("odd", "even"):
                if parity_normalize(rhs, parity) != parity_coding_ledger(coding, t, parity):
                    failures.append(f"{lam}: parity ledger ({parity}) mismatch")
                    break
            if content_ledger(lam, mu, t) != lhs:
                failures.append(f"{lam}: content ledger mismatch")
                break
    params = {"t": t, "max_size": max_size, "ledger_max_size": ledger_max_size}
    return _sweep_report("multiset-formula", params, "exact", failures, t0, cores_checked=checked)


def verify_exploded_relations(t: int = 5, max_size: int = 15) -> VerificationReport:
    """Sweep every t-core up to max_size: translation relations, the fold
    (set and ledger forms), the triangle ledger, and the band counts."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for lam in enumerate_t_cores(t, max_size):
        checked += 1
        window = build_window(lam, t)
        rel = check_translation_relations(window)
        bad = [k for k, v in rel.items() if not v]
        fold = check_fold(window)
        bad += [k for k, v in fold.items() if not v]
        if not check_fold_ledger(window):
            bad.append("fold_ledger")
        if not check_triangle_ledger(window):
            bad.append("triangle_ledger")
        small = sum(1 for h in lam.hooks() if h < t)
        if region_ledger(window, "gamma-", "Wd", "Wd").total_degree() != small:
            bad.append("band_count")
        beta = lam.small_hook_counts(t)
        want = WeightLedger({i: beta[i - 1] for i in range(1, t)})
        if region_ledger(window, "gamma+", "C", "C") != want:
            bad.append("gap_band_counts")
        if any(b.entry == t for b in window.boxes()):
            bad.append("entry_exactly_t")
        if bad:
            failures.append(f"{lam}: {bad}")
            break
    params = {"t": t, "max_size": max_size}
    return _sweep_report("exploded-relations", params, "exact", failures, t0, cores_checked=checked)


# ---------------------------------------------------------------------------
# q-series identities


def partition_gf(N: int) -> TruncatedSeries:
    """exp(sum_k q^k / (k (1-q^k))), the partition generating function."""
    ring = RationalField()
    total = TruncatedSeries.zero(ring, N)
    for k in range(1, N + 1):
        total = total + geometric_multiples(ring, k, N, Fraction(1, k))
    return total.exp()


def nekrasov_okounkov_pair(N: int):
    ring = PolynomialRing(("beta",))
    beta = ring.var("beta")
    lhs = partition_sum_series(
        lambda h: ring.one - beta * Fraction(1, h * h), 1, N, ring
    )
    rhs = eta_like_product(beta - 1, N, ring)
    return lhs, rhs


def verify_nekrasov_okounkov(N: int = 12) -> VerificationReport:
    """Hook sum with weight 1 - beta/h^2 against the eta-style product,
    exactly in QQ[beta]."""
    t0 = time.perf_counter()
    lhs, rhs = nekrasov_okounkov_pair(N)
    ok, dev = _exact_compare(lhs, rhs)
    ring = lhs.ring
    beta = ring.var("beta")
    q1_ok = ring.eq(lhs.coeffs[1], ring.one - beta) if N >= 1 else True
    ok = ok and q1_ok
    return _finish(
        "nekrasov-okounkov",
        {},
        N,
        lhs.ring.name,
        ok,
        dev if dev != "0" or q1_ok else "q^1 coefficient is not 1-beta",
        t0,
        q1_coefficient=str(lhs.coeffs[1]),
    )


def sin_hook_sum(r: int, t_value: complex, z: complex, N: int, source=None) -> TruncatedSeries:
    """sum over partitions of q^size prod (1 - sin^2(t z)/sin^2(h z)) over
    hooks divisible by r."""
    ring = ComplexField(FLOAT_TOL)
    _require_nonzero(
        [(k, cmath.sin(k * z)) for k in range(1, N + 1)], "sin(k z), k"
    )
    s_t = cmath.sin(t_value * z) ** 2
    cache: dict[int, complex] = {}

    def rho(h):
        if h not in cache:
            cache[h] = 1 - s_t / cmath.sin(h * z) ** 2
        return cache[h]

    return partition_sum_series(rho, r, N, ring, source=source)


def sin_family_rhs(r: int, t_value: complex, z: complex, N: int) -> TruncatedSeries:
    """exp(sum_k q^k/(k(1-q^k)) - r q^(rk)/(k(1-q^(rk))) sin^2(tkz)/sin^2(rkz))."""
    ring = ComplexField(FLOAT_TOL)
    _require_nonzero(
        [(r * k, cmath.sin(r * k * z)) for k in range(1, N + 1)], "sin(m z), m"
    )
    total = TruncatedSeries.zero(ring, N)
    for k in range(1, N + 1):
        total = total + geometric_multiples(ring, k, N, 1.0 / k)
        if r * k <= N:
            c = (
                r
                * cmath.sin(t_value * k * z) ** 2
                / cmath.sin(r * k * z) ** 2
                / k
            )
            total = total - geometric_multiples(ring, r * k, N, c)
    return total.exp()


def verify_sin_family(
    r: int = 1,
    t_value: complex | None = None,
    z: complex | None = None,
    N: int = 8,
    samples: int = 5,
    seed: int = 7,
) -> VerificationReport:
    """The sine-weight hook sum against its exponential form.

    With t = 0 both sides are the partition generating function and the
    check runs exactly over the rationals; otherwise numerically at the
    given (t, z), or at the seeded panel of `samples` points when neither
    is given.  Giving only one of t_value and z raises ValueError.
    """
    t0 = time.perf_counter()
    if t_value == 0:
        lhs = partition_sum_series(lambda h: Fraction(1), r, N)
        rhs = partition_gf(N)
        ok, dev = _exact_compare(lhs, rhs)
        return _finish(
            "sin-family", {"r": r, "t": 0}, N, "QQ", ok, dev, t0
        )
    if (t_value is None) != (z is None):
        raise ValueError("give both t_value and z, or neither for the sample panel")
    panel = default_samples(samples, seed) if z is None else [(t_value, z)]
    worst = 0.0
    for tv, zv in panel:
        lhs = sin_hook_sum(r, tv, zv, N)
        rhs = sin_family_rhs(r, tv, zv, N)
        worst = max(worst, lhs.max_abs_difference(rhs))
    ok = worst < FLOAT_TOL and bool(panel)
    return _finish(
        "sin-family",
        {"r": r, "samples": len(panel), "seed": seed if t_value is None else None},
        N,
        "CC",
        ok,
        f"{worst:.3e}" if panel else "no samples checked",
        t0,
    )


def poly_s_pair(z: complex, N: int):
    """Both sides of the s-parameter form, coefficients in CC[s]."""
    ring = PolynomialRing(("s",), base=ComplexField(FLOAT_TOL))
    _require_nonzero(
        [(k, cmath.sin(k * z)) for k in range(1, N + 1)], "sin(k z), k"
    )
    s = ring.var("s")

    def w(m):
        return 1.0 / (4 * cmath.sin(m * z) ** 2)

    def rho(h):
        return s + (s * s - 2 * s + 1) * w(h)

    lhs = partition_sum_series(rho, 1, N, ring)
    coeffs = [ring.zero] * (N + 1)
    for k in range(1, N + 1):
        sk = ring.monomial((k,))
        s2k = ring.monomial((2 * k,))
        p_k = (sk + (s2k - 2 * sk + 1) * w(k)) * Fraction(1, k)
        j = 0
        while k * (j + 1) <= N:
            coeffs[k * (j + 1)] = coeffs[k * (j + 1)] + ring.monomial((j * k,)) * p_k
            j += 1
    rhs = TruncatedSeries(ring, coeffs).exp()
    return lhs, rhs


def _numeric_pair(rho, rhs_log_terms, N):
    """Hook sum for a numeric weight against exp of the summed log pieces."""
    ring = ComplexField(FLOAT_TOL)
    lhs = partition_sum_series(rho, 1, N, ring)
    total = TruncatedSeries.zero(ring, N)
    for piece in rhs_log_terms:
        total = total + piece
    return lhs, total.exp()


def verify_poly_s_family(
    s: complex | None = None,
    z: complex | None = None,
    N: int = 8,
    seed: int = 7,
) -> VerificationReport:
    """The substituted family at parameter s.

    With s free the check runs in CC[s] (with the degree-2n bound per q^n);
    the s = 0, cosine, hyperbolic and s = -1 cotangent specializations are
    then verified numerically at the same z.  A numeric s checks the single
    identity at that value.
    """
    t0 = time.perf_counter()
    if z is None:
        z = default_samples(1, seed)[0][1]
    details: dict = {}
    ring = ComplexField(FLOAT_TOL)
    if s is not None:
        lhs_sym, rhs_sym = poly_s_pair(z, N)
        lhs = TruncatedSeries(ring, [c.substitute("s", s).coefficient(()) for c in lhs_sym.coeffs])
        rhs = TruncatedSeries(ring, [c.substitute("s", s).coefficient(()) for c in rhs_sym.coeffs])
        worst = lhs.max_abs_difference(rhs)
        ok = worst < FLOAT_TOL
        return _finish(
            "poly-s-family", {"s": str(s), "z": str(z)}, N, "CC", ok, f"{worst:.3e}", t0
        )

    lhs, rhs = poly_s_pair(z, N)
    worst = lhs.max_abs_difference(rhs)
    degree_ok = all(
        c.degree_in("s") <= 2 * n for n, c in enumerate(lhs.coeffs)
    ) and all(c.degree_in("s") <= 2 * n for n, c in enumerate(rhs.coeffs))
    details["symbolic"] = f"{worst:.3e}"
    details["degree_bound"] = degree_ok

    def w(m):
        return 1.0 / (4 * cmath.sin(m * z) ** 2)

    # s = 0: product of 1/(4 sin^2), exp of q^k w(k)/k
    pieces = [
        TruncatedSeries.monomial(ring, k, N, w(k) / k) for k in range(1, N + 1)
    ]
    l0, r0 = _numeric_pair(lambda h: w(h), pieces, N)
    d0 = l0.max_abs_difference(r0)
    details["s_zero"] = f"{d0:.3e}"

    # cosine form
    _require_nonzero(
        [(k, 1 - cmath.cos(k * z)) for k in range(1, N + 1)], "1-cos(k z), k"
    )
    pieces = [
        TruncatedSeries.monomial(ring, k, N, 1.0 / (2 * k * (1 - cmath.cos(k * z))))
        for k in range(1, N + 1)
    ]
    lc, rc = _numeric_pair(lambda h: 1.0 / (2 - 2 * cmath.cos(h * z)), pieces, N)
    dc = lc.max_abs_difference(rc)
    details["cosine"] = f"{dc:.3e}"

    # hyperbolic form
    _require_nonzero(
        [(k, cmath.sinh(k * z)) for k in range(1, N + 1)], "sinh(k z), k"
    )
    pieces = [
        TruncatedSeries.monomial(ring, k, N, -1.0 / (4 * k * cmath.sinh(k * z) ** 2))
        for k in range(1, N + 1)
    ]
    lh, rh = _numeric_pair(lambda h: -1.0 / (4 * cmath.sinh(h * z) ** 2), pieces, N)
    dh = lh.max_abs_difference(rh)
    details["sinh"] = f"{dh:.3e}"

    # s = -1: cotangent form
    def cot2(m):
        return (cmath.cos(m * z) / cmath.sin(m * z)) ** 2

    pieces = []
    for m in range(1, N + 1):
        if m % 2:
            # q^m cot^2(m z) / (m (1 + q^m)) = sum_j (-1)^(j-1) cot^2/m q^(jm)
            c = [0j] * (N + 1)
            j = 1
            while j * m <= N:
                c[j * m] = (-1) ** (j - 1) * cot2(m) / m
                j += 1
            pieces.append(TruncatedSeries(ring, c))
        else:
            pieces.append(geometric_multiples(ring, m, N, 1.0 / m))
    lk, rk = _numeric_pair(lambda h: cot2(h), pieces, N)
    dk = lk.max_abs_difference(rk)
    details["cotangent"] = f"{dk:.3e}"

    worst_all = max(worst, d0, dc, dh, dk)
    ok = worst_all < FLOAT_TOL and degree_ok
    return _finish(
        "poly-s-family",
        {"z": str(z)},
        N,
        "CC[s]",
        ok,
        f"{worst_all:.3e}",
        t0,
        **details,
    )


def jacobi_pair(N: int):
    """Triple product and theta sum in QQ[a, 1/a], series variable x."""
    ring = PolynomialRing(("a",), laurent=True)
    a = ring.monomial((1,))
    ainv = ring.monomial((-1,))
    lhs = TruncatedSeries.one(ring, N, var="x")
    for n in range(0, N + 1):
        if n + 1 <= N:
            c = [ring.zero] * (N + 1)
            c[0] = ring.one
            c[n + 1] = a
            lhs = lhs * TruncatedSeries(ring, c, var="x")
            c = [ring.zero] * (N + 1)
            c[0] = ring.one
            c[n + 1] = -ring.one
            lhs = lhs * TruncatedSeries(ring, c, var="x")
        c = [ring.zero] * (N + 1)
        c[0] = ring.one
        if n == 0:
            c[0] = ring.one + ainv
        elif n <= N:
            c[n] = ainv
        lhs = lhs * TruncatedSeries(ring, c, var="x")
    coeffs = [ring.zero] * (N + 1)
    n = 0
    while True:
        grew = False
        for m in (n, -n - 1) if n else (0, -1):
            e = m * (m + 1) // 2
            if 0 <= e <= N:
                coeffs[e] = coeffs[e] + ring.monomial((m,))
                grew = True
        if not grew:
            break
        n += 1
    rhs = TruncatedSeries(ring, coeffs, var="x")
    return lhs, rhs


def verify_jacobi(N: int = 10) -> VerificationReport:
    t0 = time.perf_counter()
    lhs, rhs = jacobi_pair(N)
    ok, dev = _exact_compare(lhs, rhs)
    return _finish("jacobi", {}, N, lhs.ring.name, ok, dev, t0)


def verify_macdonald(t: int = 2, N: int = 4) -> VerificationReport:
    """Type-A product/sum identity, exact in Laurent polynomials.

    Also re-asserts, over all enumerated vectors, that nonzero signs demand
    pairwise distinct residues and an integral nonnegative exponent.
    """
    t0 = time.perf_counter()
    if t < 2:
        raise ValueError("t must be at least 2")
    lhs = macdonald_lhs(t, N)
    rhs = macdonald_rhs(t, N)
    ok, dev = _exact_compare(lhs, rhs)
    terms = macdonald_terms(t, N)  # integrality asserted inside
    return _finish(
        "macdonald",
        {"t": t},
        N,
        lhs.ring.name,
        ok,
        dev,
        t0,
        terms_enumerated=len(terms),
    )


def tcore_sources(t: int, N: int):
    """Partitions-of-n suppliers: all partitions, and the t-core subset."""
    cores: dict[int, list[Partition]] = {n: [] for n in range(N + 1)}
    for lam in enumerate_t_cores(t, N):
        cores[lam.size].append(lam)
    return (lambda n: enumerate_partitions(n)), (lambda n: cores[n])


def tcore_lemma_series(t: int, z: complex, N: int):
    """LHS of the core-restricted sine sum two ways, and both closed forms."""
    ring = ComplexField(FLOAT_TOL)
    all_parts, only_cores = tcore_sources(t, N)
    lhs_full = sin_hook_sum(1, t, z, N, source=all_parts)
    lhs_restricted = sin_hook_sum(1, t, z, N, source=only_cores)
    product = TruncatedSeries.one(ring, N)
    for m in range(1, N + 1):
        product = product * one_minus_power(ring, m, N) ** (t - 1)
        for i in range(1, t):
            for phase in (-1, 1):
                c = [0j] * (N + 1)
                c[0] = 1 + 0j
                c[m] = -cmath.exp(phase * 2j * z * (t - i))
                product = product * TruncatedSeries(ring, c) ** i
    total = TruncatedSeries.zero(ring, N)
    for k in range(1, N + 1):
        w = 1 - cmath.sin(t * k * z) ** 2 / cmath.sin(k * z) ** 2
        total = total + geometric_multiples(ring, k, N, w / k)
    exp_form = total.exp()
    return lhs_restricted, lhs_full, product, exp_form


def verify_tcore_lemmas(t: int = 3, z: complex | None = None, N: int = 10, seed: int = 7) -> VerificationReport:
    """Core-restricted sine sums: the restricted and full sums agree
    exactly, and both match the product and exponential closed forms."""
    t0 = time.perf_counter()
    if t < 3 or t % 2 == 0:
        raise ValueError("t must be an odd integer >= 3")
    if z is None:
        z = default_samples(1, seed)[0][1]
    restricted, full, product, exp_form = tcore_lemma_series(t, z, N)
    two_routes = restricted.max_abs_difference(full)
    d_prod = restricted.max_abs_difference(product)
    d_exp = restricted.max_abs_difference(exp_form)
    worst = max(d_prod, d_exp)
    ok = worst < FLOAT_TOL and two_routes == 0.0
    return _finish(
        "tcore-lemmas",
        {"t": t, "z": str(z)},
        N,
        "CC",
        ok,
        f"{worst:.3e}",
        t0,
        restricted_vs_full=f"{two_routes:.3e}",
        product_form=f"{d_prod:.3e}",
        exp_form=f"{d_exp:.3e}",
    )


def multiplication_pair(r: int, N: int):
    """Marked hook sum over hooks divisible by r, and its product form,
    in QQ[beta, x]."""
    ring = PolynomialRing(("beta", "x"))
    beta = ring.var("beta")
    x = ring.var("x")
    lhs = partition_sum_series(
        lambda h: ring.one - beta * Fraction(1, h * h), r, N, ring, marker=x
    )
    inner = eta_like_product(beta * Fraction(1, r * r) - 1, N // r, ring)
    coeffs = [ring.zero] * (N + 1)
    for j, c in enumerate(inner.coeffs):
        if r * j <= N:
            coeffs[r * j] = c * ring.monomial((0, j))
    substituted = TruncatedSeries(ring, coeffs)
    rhs = substituted ** r
    for k in range(1, N + 1):
        if r * k <= N:
            rhs = rhs * one_minus_power(ring, r * k, N) ** r
    denom = TruncatedSeries.one(ring, N)
    for k in range(1, N + 1):
        denom = denom * one_minus_power(ring, k, N)
    rhs = rhs * denom.inverse()
    return lhs, rhs


def verify_multiplication(r: int = 1, N: int = 10) -> VerificationReport:
    t0 = time.perf_counter()
    lhs, rhs = multiplication_pair(r, N)
    ok, dev = _exact_compare(lhs, rhs)
    return _finish("multiplication", {"r": r}, N, lhs.ring.name, ok, dev, t0)


def hook_content_sides(lam: Partition, n: int):
    """Schur side times the hook factors, and the content-product side."""
    names = ("p",)
    one = Poly.constant(names, Fraction(1))
    lhs = schur_principal(lam, n)
    for h in lam.hooks():
        lhs = lhs * (one - Poly(names, {(h,): Fraction(1)}))
    shifts = [n + c for c in lam.contents()]
    if 0 in shifts:
        rhs = Poly(names, {})
    else:
        assert all(e > 0 for e in shifts)
        rhs = Poly(names, {(lam.row_moment(),): Fraction(1)})
        for e in shifts:
            rhs = rhs * (one - Poly(names, {(e,): Fraction(1)}))
    return lhs, rhs


def verify_hook_content(max_size: int = 8, max_n: int = 5) -> VerificationReport:
    """Principal specialization identity for every partition up to max_size
    and every 1 <= n <= max_n, including the vanishing tall cases."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for size in range(max_size + 1):
        for lam in enumerate_partitions(size):
            for n in range(1, max_n + 1):
                checked += 1
                lhs, rhs = hook_content_sides(lam, n)
                if lhs != rhs:
                    failures.append(f"{lam} at n={n}")
                    break
            if failures:
                break
        if failures:
            break
    params = {"max_size": max_size, "max_n": max_n}
    return _sweep_report("hook-content", params, "QQ[p]", failures, t0, pairs_checked=checked)


def verify_sin_lemma(samples: int = 5, seed: int = 7) -> VerificationReport:
    """Product-to-difference sine facts at random complex points:
    sin(x-y)sin(x+y) = sin^2 x - sin^2 y, and for zero-sum u the pairwise
    sine product equals the pairwise (e^(2ui) - e^(2uj))/(2i) product."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(samples):
        x = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        y = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        lhs = cmath.sin(x - y) * cmath.sin(x + y)
        rhs = cmath.sin(x) ** 2 - cmath.sin(y) ** 2
        worst = max(worst, abs(lhs - rhs))
        n = rng.randint(3, 5)
        u = [complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4)) for _ in range(n - 1)]
        u.append(-sum(u))
        p1, p2 = 1 + 0j, 1 + 0j
        for i in range(n):
            for j in range(i + 1, n):
                p1 *= cmath.sin(u[i] - u[j])
                p2 *= (cmath.exp(2j * u[i]) - cmath.exp(2j * u[j])) / 2j
        worst = max(worst, abs(p1 - p2))
    ok = worst < 1e-10 and samples > 0
    dev = f"{worst:.3e}" if samples > 0 else "no samples checked"
    return _finish("sin-lemma", {"samples": samples, "seed": seed}, None, "CC", ok, dev, t0)


def verify_classical_crosschecks(max_size: int = 25, t_max: int = 8, enum_size: int = 20) -> VerificationReport:
    """2-cores are exactly the staircases, and the coding-route enumeration
    of t-cores matches the filter over all partitions."""
    t0 = time.perf_counter()
    failures = []
    staircases = []
    k = 0
    while k * (k + 1) // 2 <= max_size:
        staircases.append(Partition(tuple(range(k, 0, -1))))
        k += 1
    found = enumerate_t_cores(2, max_size)
    if sorted(p.parts for p in found) != sorted(p.parts for p in staircases):
        failures.append("2-cores are not the staircases")
    sizes = {p.size for p in found}
    want_sizes = {k * (k + 1) // 2 for k in range(len(staircases))}
    if sizes != want_sizes:
        failures.append("2-core sizes are not the triangular numbers")
    for t in range(1, t_max + 1):
        via_filter = enumerate_t_cores(t, enum_size)
        via_codings = cores_from_codings(t, enum_size)
        if sorted(p.parts for p in via_filter) != sorted(p.parts for p in via_codings):
            failures.append(f"enumeration routes disagree for t={t}")
            break
    params = {"max_size": max_size, "t_max": t_max, "enum_size": enum_size}
    return _sweep_report("classical-cross-checks", params, "exact", failures, t0)


def verify_golden_tables() -> VerificationReport:
    """The two worked coding tables, field for field."""
    t0 = time.perf_counter()
    failures = []
    lam = Partition((8, 4, 3, 2, 2, 1))
    c = core_coding(lam, 5)
    checks = {
        "V": str(c) == "10,3,1,-6,-8",
        "conjugate": str(lam.conjugate()) == "6,5,3,2,1,1,1,1",
        "size": coding_size(c) == 20,
        "roundtrip": coding_to_core(c) == lam,
    }
    lam2 = Partition((8, 5, 4, 1, 1, 1))
    c2 = core_coding(lam2, 6)
    checks.update(
        {
            "V_even": str(c2) == "21/2,13/2,-1/2,-7/2,-9/2,-17/2",
            "conjugate_even": str(lam2.conjugate()) == "6,3,3,3,2,1,1,1",
            "size_even": coding_size(c2) == 20,
            "roundtrip_even": coding_to_core(c2) == lam2,
        }
    )
    failures = [k for k, v in checks.items() if not v]
    ok = not failures
    return _finish(
        "golden-tables", {}, None, "exact", ok, "0" if ok else str(failures), t0
    )


# ---------------------------------------------------------------------------
# registry and suite

# identity -> verifier function name.  Names, not functions: `verifier` looks
# each up in this module when called, so a wrapper installed there is seen.
VERIFIERS = {
    "multiset-formula": "verify_multiset_formula",
    "exploded-relations": "verify_exploded_relations",
    "nekrasov-okounkov": "verify_nekrasov_okounkov",
    "sin-family": "verify_sin_family",
    "poly-s-family": "verify_poly_s_family",
    "jacobi": "verify_jacobi",
    "macdonald": "verify_macdonald",
    "tcore-lemmas": "verify_tcore_lemmas",
    "multiplication": "verify_multiplication",
    "hook-content": "verify_hook_content",
    "sin-lemma": "verify_sin_lemma",
    "classical-cross-checks": "verify_classical_crosschecks",
    "golden-tables": "verify_golden_tables",
}

# suite plans as (identity, keyword arguments); `full` mirrors the acceptance
# bounds, `quick` shrinks the sweeps for a fast smoke run
PROFILES = {
    "quick": (
        ("golden-tables", {}),
        *(("multiset-formula", {"t": t, "max_size": 15}) for t in range(1, 6)),
        *(("exploded-relations", {"t": t, "max_size": 12}) for t in (2, 3, 5)),
        ("nekrasov-okounkov", {"N": 8}),
        ("sin-family", {"r": 1, "N": 6, "samples": 2}),
        ("sin-family", {"r": 1, "t_value": 0, "N": 8}),
        ("poly-s-family", {"N": 6}),
        ("jacobi", {"N": 8}),
        ("macdonald", {"t": 2, "N": 3}),
        ("tcore-lemmas", {"t": 3, "N": 8}),
        ("multiplication", {"r": 2, "N": 8}),
        ("hook-content", {"max_size": 6, "max_n": 4}),
        ("sin-lemma", {"samples": 3}),
        ("classical-cross-checks", {"max_size": 15, "t_max": 6, "enum_size": 12}),
    ),
    "full": (
        ("golden-tables", {}),
        *(("multiset-formula", {"t": t, "max_size": 25, "ledger_max_size": 20}) for t in range(1, 9)),
        *(("exploded-relations", {"t": t, "max_size": 15}) for t in range(2, 8)),
        ("nekrasov-okounkov", {"N": 12}),
        *(("sin-family", {"r": r, "N": 8, "samples": 5}) for r in (1, 2, 3)),
        ("sin-family", {"r": 1, "t_value": 0, "N": 12}),
        ("poly-s-family", {"N": 8}),
        ("jacobi", {"N": 10}),
        *(("macdonald", {"t": t, "N": 4}) for t in (2, 3)),
        *(("tcore-lemmas", {"t": t, "N": 10}) for t in (3, 5)),
        *(("multiplication", {"r": r, "N": 10}) for r in (2, 3)),
        ("hook-content", {"max_size": 8, "max_n": 5}),
        ("sin-lemma", {"samples": 5}),
        ("classical-cross-checks", {"max_size": 25, "t_max": 8, "enum_size": 20}),
    ),
}


def verifier(identity: str):
    """The verifier registered for `identity`, as the module holds it now."""
    return globals()[VERIFIERS[identity]]


def run_suite(profile: str = "quick", seed: int = 7) -> list[VerificationReport]:
    """Run a profile of PROFILES, passing `seed` to each verifier that takes one."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    reports = []
    for identity, kwargs in PROFILES[profile]:
        fn = verifier(identity)
        if "seed" in inspect.signature(fn).parameters:
            kwargs = {**kwargs, "seed": seed}
        reports.append(fn(**kwargs))
    return reports
