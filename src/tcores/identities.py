"""One verifier per series/multiset identity, each returning a report.

Every check is exact: a pass reports deviation "0", a failure its first
mismatching coefficient.  The sine-weight identities are identities of
rational functions in Y = e^(iz) (and W = e^(itz), R = e^z), so they are
checked in GF(p), p = 2^61 - 31, at points drawn from a seeded generator,
with sin(kz) = (Y^k - Y^-k)/(2i).  A draw at which a sine in a denominator
vanishes is redrawn.  Two different rational functions of degree d agree
at a random point with probability at most d/p (Schwartz-Zippel), which
bounds the chance of a false pass.
"""

from __future__ import annotations

import inspect
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import prod

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
    ExplodedWindow,
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
from .rings import P, Poly, PolynomialRing, PrimeField, RationalField
from .weights import (
    WeightLedger,
    coding_difference_ledger,
    content_ledger,
    hook_shift_ledger,
    parity_coding_ledger,
    parity_normalize,
)

GF = PrimeField()
_I = pow(7, (P - 1) // 4, P)  # i = sqrt(-1): 7 is the least non-residue mod P
_HALF = pow(2, -1, P)
_HALF_I = pow(2 * _I, -1, P)


def _sin(u: int) -> int:
    """sin z in GF(p) at u = e^(iz)."""
    return (u - GF.inv(u)) * _HALF_I % P


def _cos(u: int) -> int:
    """cos z in GF(p) at u = e^(iz)."""
    return (u + GF.inv(u)) * _HALF % P


def _sinh(u: int) -> int:
    """sinh z in GF(p) at u = e^z."""
    return (u - GF.inv(u)) * _HALF % P


def sample_point(rng, N: int = 0) -> int:
    """A residue u in 1..p-1 drawn from `rng` with u^(2k) != 1 for
    1 <= k <= N, so that sin(kz) at u = e^(iz) (and sinh(kz) at u = e^z)
    does not vanish; a singular draw is redrawn from the same generator."""
    while True:
        u = rng.randrange(1, P)
        if all(pow(u, 2 * k, P) != 1 for k in range(1, N + 1)):
            return u


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
    a, b = lhs.ring.coerce(a), lhs.ring.coerce(b)  # residues, not representatives
    return False, f"{lhs.var}^{i}: {str(a)[:60]} != {str(b)[:60]}"


def _first_failure(devs) -> str:
    return next((d for d in devs if d != "0"), "0")


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
        diag = validate_coding(coding)
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
        relations = bead_relation_checks(lam, coding)
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
            parity = next((
                p for p in ("odd", "even")
                if parity_normalize(rhs, p) != parity_coding_ledger(coding, t, p)
            ), None)
            if parity:
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
        window = ExplodedWindow(lam, t)
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


def sin_hook_sum(r: int, Y: int, W: int, N: int, source=None) -> TruncatedSeries:
    """sum over partitions of q^size prod (1 - sin^2(t z)/sin^2(h z)) over
    hooks divisible by r, in GF(p) at Y = e^(iz) and W = e^(itz)."""
    s_t = _sin(W) ** 2
    cache: dict[int, int] = {}

    def rho(h):
        if h not in cache:
            cache[h] = (1 - s_t * GF.inv(_sin(pow(Y, h, P)) ** 2)) % P
        return cache[h]

    return partition_sum_series(rho, r, N, GF, source=source)


def sin_family_rhs(r: int, Y: int, W: int, N: int) -> TruncatedSeries:
    """exp(sum_k q^k/(k(1-q^k)) - r q^(rk)/(k(1-q^(rk))) sin^2(tkz)/sin^2(rkz)),
    in GF(p) at Y = e^(iz) and W = e^(itz)."""
    total = TruncatedSeries.zero(GF, N)
    for k in range(1, N + 1):
        total = total + geometric_multiples(GF, k, N, GF.inv(k))
        if r * k <= N:
            c = r * _sin(pow(W, k, P)) ** 2 * GF.inv(_sin(pow(Y, r * k, P)) ** 2 * k) % P
            total = total - geometric_multiples(GF, r * k, N, c)
    return total.exp()


def verify_sin_family(
    r: int = 1,
    t_value: int | None = None,
    N: int = 8,
    samples: int = 5,
    seed: int = 7,
) -> VerificationReport:
    """The sine-weight hook sum against its exponential form.

    With t = 0 both sides are the partition generating function and the
    check runs over the rationals.  Otherwise it runs in GF(p) at `samples`
    points Y = e^(iz) drawn from `seed`, with W = e^(itz) drawn as well when
    t_value is None, and W = Y^t for an integer t_value.
    """
    t0 = time.perf_counter()
    if t_value == 0:
        lhs = partition_sum_series(lambda h: 1, r, N)
        rhs = partition_gf(N)
        ok, dev = _exact_compare(lhs, rhs)
        return _finish(
            "sin-family", {"r": r, "t": 0}, N, "QQ", ok, dev, t0
        )
    rng = random.Random(seed)
    points, dev = [], "0"
    for _ in range(samples):
        Y = sample_point(rng, N)
        W = sample_point(rng) if t_value is None else pow(Y, t_value, P)
        points.append({"Y": Y, "W": W})
        ok, dev = _exact_compare(sin_hook_sum(r, Y, W, N), sin_family_rhs(r, Y, W, N))
        if not ok:
            break
    if not points:
        dev = "no samples checked"
    params = {"r": r, "t": t_value, "samples": samples, "seed": seed, "points": points}
    return _finish("sin-family", params, N, GF.name, dev == "0", dev, t0)


def poly_s_weight(s, w):
    """The hook weight s + (s - 1)^2 w of the s-parameter family."""
    return s + (s - 1) ** 2 * w


def poly_s_pair(Y: int, N: int):
    """Both sides of the s-parameter form, coefficients in GF(p)[s], with
    w(m) = 1/(4 sin^2(mz)) at Y = e^(iz)."""
    ring = PolynomialRing(("s",), base=GF)
    s = ring.var("s")
    w = {m: GF.inv(4 * _sin(pow(Y, m, P)) ** 2) for m in range(1, N + 1)}
    rho = {h: poly_s_weight(s, w[h]) for h in w}
    lhs = partition_sum_series(rho.__getitem__, 1, N, ring)
    coeffs = [ring.zero] * (N + 1)
    for k in range(1, N + 1):
        sk = ring.monomial((k,))
        s2k = ring.monomial((2 * k,))
        p_k = ring.div_int(sk + (s2k - 2 * sk + 1) * w[k], k)
        j = 0
        while k * (j + 1) <= N:
            coeffs[k * (j + 1)] = coeffs[k * (j + 1)] + ring.monomial((j * k,)) * p_k
            j += 1
    rhs = TruncatedSeries(ring, coeffs).exp()
    return lhs, rhs


def verify_poly_s_family(N: int = 8, seed: int = 7) -> VerificationReport:
    """The substituted family with s free, in GF(p)[s] at a seeded point
    Y = e^(iz) (with the degree-2n bound per q^n), and its s = 0, cosine,
    hyperbolic (at R = e^z) and s = -1 cotangent specializations in GF(p).
    """
    t0 = time.perf_counter()
    rng = random.Random(seed)
    Y, R = sample_point(rng, N), sample_point(rng, N)
    lhs, rhs = poly_s_pair(Y, N)
    degree_ok = all(
        c.degree_in("s") <= 2 * n for n, c in enumerate(lhs.coeffs)
    ) and all(c.degree_in("s") <= 2 * n for n, c in enumerate(rhs.coeffs))
    details: dict = {"symbolic": _exact_compare(lhs, rhs)[1], "degree_bound": degree_ok}

    def weights(f):
        return {m: f(m) % P for m in range(1, N + 1)}  # a hook is at most N

    def check(rho, pieces=None):
        """Hook sum for the GF(p) weight rho against exp of the summed log
        pieces, by default q^k rho(k)/k."""
        if pieces is None:
            pieces = [TruncatedSeries.monomial(GF, k, N, rho[k] * GF.inv(k) % P) for k in rho]
        log_rhs = TruncatedSeries.zero(GF, N)
        for piece in pieces:
            log_rhs = log_rhs + piece
        return _exact_compare(partition_sum_series(rho.__getitem__, 1, N, GF), log_rhs.exp())[1]

    # s = 0: product of 1/(4 sin^2)
    details["s_zero"] = check(weights(lambda m: GF.inv(4 * _sin(pow(Y, m, P)) ** 2)))
    # cosine form: 1/(2 - 2 cos(hz))
    details["cosine"] = check(weights(lambda m: GF.inv(2 - 2 * _cos(pow(Y, m, P)))))
    # hyperbolic form at R = e^z: -1/(4 sinh^2(hz))
    details["sinh"] = check(weights(lambda m: -GF.inv(4 * _sinh(pow(R, m, P)) ** 2)))
    # s = -1: cotangent form
    cot2 = weights(lambda m: (_cos(pow(Y, m, P)) * GF.inv(_sin(pow(Y, m, P)))) ** 2)
    pieces = []
    for m in range(1, N + 1):
        if m % 2:
            # q^m cot^2(m z) / (m (1 + q^m)) = sum_j (-1)^(j-1) cot^2/m q^(jm)
            coeffs = [0] * (N + 1)
            j = 1
            while j * m <= N:
                coeffs[j * m] = (-1) ** (j - 1) * cot2[m] * GF.inv(m) % P
                j += 1
            pieces.append(TruncatedSeries(GF, coeffs))
        else:
            pieces.append(geometric_multiples(GF, m, N, GF.inv(m)))
    details["cotangent"] = check(cot2, pieces)

    dev = _first_failure(v for k, v in details.items() if k != "degree_bound")
    if dev == "0" and not degree_ok:
        dev = "s-degree of a q^n coefficient exceeds 2n"
    return _finish(
        "poly-s-family",
        {"seed": seed, "Y": Y, "R": R},
        N,
        lhs.ring.name,
        dev == "0",
        dev,
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


def tcore_lemma_series(t: int, Y: int, N: int):
    """LHS of the core-restricted sine sum two ways, and both closed forms,
    in GF(p) at Y = e^(iz)."""
    all_parts, only_cores = tcore_sources(t, N)
    W = pow(Y, t, P)
    lhs_full = sin_hook_sum(1, Y, W, N, source=all_parts)
    lhs_restricted = sin_hook_sum(1, Y, W, N, source=only_cores)
    product = TruncatedSeries.one(GF, N)
    for m in range(1, N + 1):
        product = product * one_minus_power(GF, m, N) ** (t - 1)
        for i in range(1, t):
            for phase in (-1, 1):
                c = [0] * (N + 1)
                c[0] = 1
                c[m] = -pow(Y, phase * 2 * (t - i), P)  # -e^(+-2iz(t-i))
                product = product * TruncatedSeries(GF, c) ** i
    total = TruncatedSeries.zero(GF, N)
    for k in range(1, N + 1):
        w = 1 - _sin(pow(Y, t * k, P)) ** 2 * GF.inv(_sin(pow(Y, k, P)) ** 2)
        total = total + geometric_multiples(GF, k, N, w * GF.inv(k) % P)
    exp_form = total.exp()
    return lhs_restricted, lhs_full, product, exp_form


def verify_tcore_lemmas(t: int = 3, N: int = 10, seed: int = 7) -> VerificationReport:
    """Core-restricted sine sums at a seeded point Y = e^(iz) of GF(p): the
    restricted and full sums agree, and both match the product and
    exponential closed forms."""
    t0 = time.perf_counter()
    if t < 3 or t % 2 == 0:
        raise ValueError("t must be an odd integer >= 3")
    Y = sample_point(random.Random(seed), N)
    restricted, full, product, exp_form = tcore_lemma_series(t, Y, N)
    details = {
        "restricted_vs_full": _exact_compare(restricted, full)[1],
        "product_form": _exact_compare(restricted, product)[1],
        "exp_form": _exact_compare(restricted, exp_form)[1],
    }
    dev = _first_failure(details.values())
    return _finish(
        "tcore-lemmas", {"t": t, "seed": seed, "Y": Y}, N, GF.name, dev == "0", dev, t0, **details
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
    one = Poly.constant(names, 1)
    lhs = schur_principal(lam, n)
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


def sine_pair_product(U) -> int:
    """prod_{i<j} sin(u_i - u_j) in GF(p) at U_j = e^(iu_j)."""
    out = 1
    for a, b in combinations(U, 2):
        out = out * _sin(a * GF.inv(b)) % P
    return out


def exp_pair_product(U) -> int:
    """prod_{i<j} (e^(2iu_i) - e^(2iu_j))/(2i) in GF(p) at U_j = e^(iu_j)."""
    out = 1
    for a, b in combinations(U, 2):
        out = out * (a * a - b * b) * _HALF_I % P
    return out


def verify_sin_lemma(samples: int = 5, seed: int = 7) -> VerificationReport:
    """Product-to-difference sine facts at seeded points of GF(p), with
    X = e^(ix), Y = e^(iy) and U_j = e^(iu_j):
    sin(x-y)sin(x+y) = sin^2 x - sin^2 y, and for zero-sum u (the last U is
    the inverse of the product of the others) the pairwise sine product
    equals the pairwise (e^(2iu_i) - e^(2iu_j))/(2i) product."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    points, dev = [], "0"
    for _ in range(samples):
        X, Y = sample_point(rng), sample_point(rng)
        U = [sample_point(rng) for _ in range(rng.randint(3, 5) - 1)]
        U.append(GF.inv(prod(U)))
        points.append({"X": X, "Y": Y, "U": U})
        if not GF.eq(_sin(X * GF.inv(Y)) * _sin(X * Y), _sin(X) ** 2 - _sin(Y) ** 2):
            dev = "sin(x-y) sin(x+y) != sin^2 x - sin^2 y"
        elif not GF.eq(sine_pair_product(U), exp_pair_product(U)):
            dev = "pairwise sine product != pairwise exponential product"
        if dev != "0":
            break
    if not points:
        dev = "no samples checked"
    params = {"samples": samples, "seed": seed, "points": points}
    return _finish("sin-lemma", params, None, GF.name, dev == "0", dev, t0)


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
