"""One verifier per series/multiset identity, each returning a report.

Every check is exact: a pass reports deviation "0", a failure its first
mismatching coefficient.  The sine-weight identities, in rational functions
of Y = e^(iz) (and W = e^(itz), R = e^z), and Macdonald's, in Laurent
polynomials of x_1..x_t, are checked in GF(p), p = 2^61 - 31, at points
drawn from a seeded generator, with sin(kz) = (Y^k - Y^-k)/(2i); a draw at
which a sine in a denominator vanishes is redrawn.  Two different rational
functions of degree d agree at a random point with probability at most d/p
(Schwartz-Zippel), which bounds the chance of a false pass.  The other
series identities are checked in integers: Nekrasov-Okounkov and its
r-multiplication form at enough points beta = r^2 s^2 to determine them,
hook-content and Jacobi's at one point X = 2^B beyond their coefficients
(Kronecker substitution).  Those are proofs to the truncation order.
"""

from __future__ import annotations

import inspect
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial, isqrt, prod
from operator import mul
from typing import NamedTuple

from .coding import (
    InvalidCodingError,
    NonIntegerSizeError,
    _read_coding,
    bead_relation_checks,
    bead_set,
    coding_size,
    coding_to_core,
    content_coding,
    content_coding_size,
    core_coding,
    cores_from_codings,
    enumerate_codings,
    is_content_coding_image,
    validate_coding,
)
from .exploded import (
    ExplodedWindow,
    check_fold,
    check_translation_relations,
    check_triangle_ledger,
)
from .partitions import (
    Partition,
    abacus_beads,
    abacus_is_t_core,
    enumerate_partitions,
    partitions_up_to,
)
from .qseries import (
    TruncatedSeries,
    _hook_walk,
    balanced_digits,
    binomial_product,
    euler_power,
    exact_div,
    geometric_multiples,
    macdonald_lhs,
    macdonald_rhs,
    multiplication_product_points,
    partition_sums_mod_p,
    schur_branching_at,
)
from .rings import P, Poly, PolynomialRing, PrimeField, RationalField
from .weights import (
    coding_difference_ledger,
    content_ledger,
    hook_tally_shift_ledger,
    parity_coding_fold,
    parity_fold,
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


def _exact_compare(lhs, rhs):
    """(True, "0") if two series over one ring agree, else False and their
    first mismatching coefficient; two lists of ints are compared as
    coefficients of q in Z."""
    if isinstance(lhs, TruncatedSeries):
        var, miss = lhs.var, lhs.first_mismatch(rhs)
        if miss is not None:
            i, a, b = miss
            miss = i, lhs.ring.coerce(a), lhs.ring.coerce(b)  # residues, not representatives
    else:
        var = "q"
        miss = next(((i, a, b) for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b), None)
    if miss is None:
        return True, "0"
    i, a, b = miss
    return False, f"{var}^{i}: {str(a)[:60]} != {str(b)[:60]}"


def _first_failure(devs) -> str:
    return next((d for d in devs if d != "0"), "0")


# ---------------------------------------------------------------------------
# bijection and ledger sweeps


def verify_multiset_formula(t: int = 5, max_size: int = 15, ledger_max_size: int | None = None) -> VerificationReport:
    """Sweep every t-core up to max_size: coding round trip, both size
    formulas, the bead-set relations, and (up to ledger_max_size) the three
    exponent-ledger identities with both parity normalizations.  Each core
    is built once from its coding v by `coding_to_core`, which checks its
    read-off against the coding size formula (a coding that fails is the
    sweep's failure), and the coding read off its bead set must be v; the
    bead relations reuse that bead set.  `classical-cross-checks` keeps the
    filter oracle."""
    t0 = time.perf_counter()
    if ledger_max_size is None:
        ledger_max_size = max_size
    failures = []
    checked = 0
    for v in enumerate_codings(t, max_size):
        checked += 1
        try:
            lam = coding_to_core(v)
        except (InvalidCodingError, NonIntegerSizeError) as exc:
            failures.append(f"coding {v}: {exc}")
            break
        beads = bead_set(lam, t)  # the core's one bead set: its coding and relations
        coding = _read_coding(lam, beads)
        diag = validate_coding(coding)
        if not diag.valid:
            failures.append(f"{lam}: produced coding invalid: {diag.messages}")
            break
        if coding != v:
            failures.append(f"{lam}: round trip failed")
            break
        mu = content_coding(coding)
        if content_coding_size(mu, t) != lam.size:
            failures.append(f"{lam}: content-side size formula mismatch")
            break
        if not is_content_coding_image(mu, t):
            failures.append(f"{lam}: image characterization fails for {mu}")
            break
        relations = bead_relation_checks(lam, beads)
        bad = [k for k, v in relations.items() if not v]
        if bad:
            failures.append(f"{lam}: bead relations failed: {bad}")
            break
        if lam.size <= ledger_max_size:
            # one hook read feeds beta (small_hook_counts) and the ledger
            hooks = Counter(lam.hooks())
            beta = tuple(hooks[t - i] for i in range(1, t))
            lhs = hook_tally_shift_ledger(hooks, t)
            rhs = coding_difference_ledger(coding, beta)
            if lhs != rhs:
                failures.append(f"{lam}: hook-shift ledger != coding ledger")
                break
            # one fold per side serves both parities, odd first
            folds = parity_fold(rhs), parity_coding_fold(coding)
            parity = next((
                p for p in ("odd", "even") if folds[0].form(p) != folds[1].form(p)
            ), None)
            if parity:
                failures.append(f"{lam}: parity ledger ({parity}) mismatch")
                break
            if content_ledger(mu, beta, t) != lhs:
                failures.append(f"{lam}: content ledger mismatch")
                break
    params = {"t": t, "max_size": max_size, "ledger_max_size": ledger_max_size}
    return _sweep_report("multiset-formula", params, "exact", failures, t0, cores_checked=checked)


def verify_exploded_relations(t: int = 5, max_size: int = 15) -> VerificationReport:
    """Sweep every t-core up to max_size: translation relations, the fold
    (set and ledger forms, with the band counts), and the triangle ledger, on
    the cores from codings; the first core with a failing check names it."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    checks = (check_translation_relations, check_fold, check_triangle_ledger)
    for lam in cores_from_codings(t, max_size):
        checked += 1
        window = ExplodedWindow(lam, t)
        bad = [k for check in checks for k, ok in check(window).items() if not ok]
        if bad:
            failures.append(f"{lam}: {bad}")
            break
    params = {"t": t, "max_size": max_size}
    return _sweep_report("exploded-relations", params, "exact", failures, t0, cores_checked=checked)


# ---------------------------------------------------------------------------
# q-series identities


def hook_point_weights(g: int, top: int) -> list[int]:
    """g^2 - s^2 for s = 0..top: the hook weight 1 - beta/h^2 at the hook
    h = r g and beta = r^2 s^2, times g^2."""
    return [g * g - s * s for s in range(top + 1)]


def multiplication_hook_points(r: int, N: int) -> list[list[list[int]]]:
    """The hook side of the r-multiplication identity at the integer points
    beta = r^2 s^2, s = 0..N//r: entry [n][w][s] is (w!)^2 times the
    coefficient of q^n x^w in sum over partitions of q^size x^w prod
    (1 - beta/h^2), w and the product running over the hooks h divisible by r.

    With h = r g that coefficient is sum (prod (g^2 - s^2)) / (prod g)^2 over
    the partitions of n with w such hooks; the g are the hooks of the
    r-quotient, whose sizes add up to w, so w!/prod g is an integer (checked).
    The hooks are walked by `_hook_walk`, one hook read per conjugate class,
    with the vector of prod (g^2 - s^2) over s as the value, multiplied
    elementwise at each node, so hook tuples with a common prefix share its
    products.  The integers are exact, so no entry can change.  w is at
    most n//r.
    """
    top = N // r
    # lazy: the walk folds a tuple before its w!/prod g check, so a g past
    # top (a hook tuple that is no partition's) must reach that check
    weights = cache(lambda g: hook_point_weights(g, top))
    table = [[[0] * (top + 1) for _ in range(n // r + 1)] for n in range(N + 1)]

    def step(vec, h):
        return list(map(mul, vec, weights(h // r)))

    for n, hooks, vec, count in _hook_walk(r, N, [1] * (top + 1), step):
        scale = count * exact_div(factorial(len(hooks)), prod(h // r for h in hooks)) ** 2
        row = table[n][len(hooks)]
        for s in range(top + 1):
            row[s] += scale * vec[s]
    return table


def _first_point_mismatch(r: int, N: int, marked: bool):
    """Both sides of the r-multiplication identity at beta = r^2 s^2,
    s = 0..N//r, compared entry by entry with n, then w, then s ascending.
    Returns the hook-side table and "0", or the first mismatch as the
    coefficient of q^n (x^w when `marked`) at that beta on each side."""
    hooks = multiplication_hook_points(r, N)
    products = multiplication_product_points(r, N)
    for n, (hook_row, product_row) in enumerate(zip(hooks, products)):
        for w, (hook_vals, product_vals) in enumerate(zip(hook_row, product_row)):
            for s, (a, b) in enumerate(zip(hook_vals, product_vals)):
                if a != b:
                    scale = factorial(w) ** 2
                    at = f"beta={r * r * s * s}"
                    if marked:
                        at = f"x^{w}, {at}"
                    a, b = str(Fraction(a, scale))[:60], str(Fraction(b, scale))[:60]
                    return hooks, f"q^{n}: {at}: {a} != {b}"
    return hooks, "0"


def verify_nekrasov_okounkov(N: int = 12) -> VerificationReport:
    """Hook sum with weight 1 - beta/h^2 against prod (1 - q^k)^(beta - 1):
    the r = 1 case of `verify_multiplication`, checked the same way.

    The coefficient of q^n on either side is a polynomial of degree at most
    n <= N in beta, so equality at the N + 1 distinct integer points
    beta = s^2, s = 0..N, proves the identity in QQ[beta] to order N:
    a deterministic check, not a random sample.  The reported q^1
    coefficient is the line through the hook side's q^1 values at
    beta = 0 and 1.
    """
    t0 = time.perf_counter()
    if N < 1:
        raise ValueError("N must be at least 1")
    hooks, dev = _first_point_mismatch(1, N, marked=False)
    ring = PolynomialRing(("beta",))
    beta = ring.var("beta")
    # (1!)^2 [q^1], of degree <= 1 in beta, at beta = 0 and beta = 1
    y0, y1 = hooks[1][1][:2]
    q1 = ring.coerce(y0) + beta * (y1 - y0)
    q1_ok = ring.eq(q1, ring.one - beta)
    return _finish(
        "nekrasov-okounkov",
        {},
        N,
        ring.name,
        dev == "0" and q1_ok,
        dev if dev != "0" or q1_ok else "q^1 coefficient is not 1-beta",
        t0,
        q1_coefficient=str(q1),
    )


def sin_hook_sums(r: int, points, N: int, source=None) -> list[TruncatedSeries]:
    """sum over partitions of q^size prod (1 - sin^2(t z)/sin^2(h z)) over
    hooks divisible by r, in GF(p) at each (Y, W) = (e^(iz), e^(itz)) of
    `points`: one `partition_sums_mod_p` walk, one vector slot per point."""
    sin_t = [(Y, _sin(W) ** 2) for Y, W in points]
    rho = {
        h: [(1 - s_t * GF.inv(_sin(pow(Y, h, P)) ** 2)) % P for Y, s_t in sin_t]
        for h in range(r, N + 1, r)  # a hook of a partition of n <= N is at most N
    }
    return partition_sums_mod_p(rho.__getitem__, len(points), r, N, source)


def sin_hook_sum(r: int, Y: int, W: int, N: int, source=None) -> TruncatedSeries:
    """`sin_hook_sums` at the one point (Y, W)."""
    return sin_hook_sums(r, [(Y, W)], N, source)[0]


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
    samples: int | None = None,
    seed: int = 7,
) -> VerificationReport:
    """The sine-weight hook sum against its exponential form.

    With t = 0 both sides are the partition generating function, and the
    check compares integers, drawing no points, so `samples` is an error
    there.  Every hook then has the weight 1, whatever r is, so the hook
    sum's q^n coefficient is the number of partitions of n, counted from
    `enumerate_partitions(n)` with no hook read; it is compared with
    prod (1 - q^k)^(-1) by `euler_power`, the exponential form
    exp(sum_k q^k/(k(1 - q^k))) in closed form.  The report's `ring` still
    names QQ.  Otherwise it runs in
    GF(p) at `samples` points (5 unless given) Y = e^(iz) drawn from
    `seed`, with W = e^(itz) drawn as well when t_value is None, and
    W = Y^t for an integer t_value.  All points are
    drawn first, in that order, and their hook sums come from one vector
    walk (`sin_hook_sums`, one slot per point); the points are then
    compared in order up to the first failure, and the report lists the
    points up to that one.
    """
    t0 = time.perf_counter()
    if N < 1:
        raise ValueError("N must be at least 1")
    if r < 1:
        raise ValueError("r must be a positive integer")
    if t_value == 0:
        if samples is not None:
            raise ValueError("the exact t = 0 check draws no sample points")
        counts = [sum(1 for _ in enumerate_partitions(n)) for n in range(N + 1)]
        ok, dev = _exact_compare(counts, euler_power(-1, N))
        return _finish(
            "sin-family", {"r": r, "t": 0}, N, "QQ", ok, dev, t0
        )
    if samples is None:
        samples = 5
    rng = random.Random(seed)
    points = []
    for _ in range(samples):
        Y = sample_point(rng, N)
        W = sample_point(rng) if t_value is None else pow(Y, t_value, P)
        points.append({"Y": Y, "W": W})
    dev = "no samples checked"
    hook_sums = sin_hook_sums(r, [(pt["Y"], pt["W"]) for pt in points], N) if points else []
    for i, (pt, lhs) in enumerate(zip(points, hook_sums)):
        ok, dev = _exact_compare(lhs, sin_family_rhs(r, pt["Y"], pt["W"], N))
        if not ok:
            del points[i + 1 :]  # report the points up to the failing one
            break
    params = {"r": r, "t": t_value, "samples": samples, "seed": seed, "points": points}
    return _finish("sin-family", params, N, GF.name, dev == "0", dev, t0)


def poly_s_weight(s, w):
    """The hook weight s + (s - 1)^2 w of the s-parameter family."""
    return s + (s - 1) * (s - 1) * w


def _interpolation_basis(top: int) -> list[list[int]]:
    """The inverse Vandermonde matrix at s = 0..top in GF(p): the polynomial
    of degree at most top with the values v_0..v_top there has the
    coefficient sum_s row_k[s] v_s at s^k.  Column s holds the Lagrange
    basis polynomial prod_(j != s) (x - j)/(s - j), read off
    prod_j (x - j) by one synthetic division, and its denominator is
    s! (top - s)! (-1)^(top - s)."""
    master = [1]  # prod_j (x - j), coefficients ascending
    for j in range(top + 1):
        master = [(low - j * high) % P for low, high in zip([0, *master], [*master, 0])]
    basis = [[0] * (top + 1) for _ in range(top + 1)]
    for s in range(top + 1):
        scale = GF.inv(factorial(s) * factorial(top - s) * (-1) ** (top - s))
        carry = 0
        for k in range(top, -1, -1):
            carry = (master[k + 1] + s * carry) % P
            basis[k][s] = carry * scale % P
    return basis


def poly_s_sin_weights(Y: int, N: int) -> dict[int, int]:
    """w(m) = 1/(4 sin^2(mz)) in GF(p) at Y = e^(iz), for m = 1..N."""
    return {m: GF.inv(4 * _sin(pow(Y, m, P)) ** 2) for m in range(1, N + 1)}


def poly_s_hook_side(w: dict[int, int], N: int, extra=()):
    """The hook side of the s-parameter form, coefficients in GF(p)[s], with
    w the map m -> w(m) of `poly_s_sin_weights`; and the GF(p) hook sums it
    is read from, all from one `partition_sums_mod_p` walk: first those of the
    weight at s = 0..2N, then those of each `extra` weight (a map hook ->
    residue).

    Each q^n coefficient is a sum of products of at most n weights
    s + (s - 1)^2 w, so it has degree at most 2n <= 2N in s, and 0..2N are
    distinct mod p: its values there determine it, and interpolation gives
    the coefficients that the GF(p)[s] walk (`tests/oracles.py`) gives,
    mod p.
    """
    top = 2 * N
    rho = {
        h: [poly_s_weight(s, w[h]) % P for s in range(top + 1)] + [f[h] for f in extra]
        for h in w
    }
    sums = partition_sums_mod_p(rho.__getitem__, top + 1 + len(extra), 1, N)
    basis = _interpolation_basis(top)
    ring = PolynomialRing(("s",), base=GF)
    coeffs = []
    for n in range(N + 1):
        values = [sums[s].coeffs[n] for s in range(top + 1)]
        terms = {(k,): sum(map(mul, row, values)) % P for k, row in enumerate(basis)}
        coeffs.append(Poly(ring.names, terms))
    return TruncatedSeries(ring, coeffs), sums


def poly_s_exp_points(w: dict[int, int], N: int) -> list[TruncatedSeries]:
    """The exponential side of the s-parameter form at s = 0..2N in GF(p),
    with w the map k -> w(k) of `poly_s_sin_weights`: at each s, exp of
    sum_k q^k (s^k + (s^k - 1)^2 w(k)) / (k (1 - s^k q^k)), whose q^m
    coefficient is sum over k | m of s^(m - k) (s^k + (s^k - 1)^2 w(k))/k."""
    inverse = [0] + [GF.inv(k) for k in range(1, N + 1)]
    sides = []
    for s in range(2 * N + 1):
        power = [pow(s, e, P) for e in range(N + 1)]  # s^0 = 1 at s = 0 too
        log = [0] * (N + 1)
        for k in range(1, N + 1):
            p_k = (power[k] + (power[k] - 1) ** 2 * w[k]) * inverse[k] % P
            for m in range(k, N + 1, k):
                log[m] += power[m - k] * p_k
        sides.append(TruncatedSeries(GF, [c % P for c in log]).exp())
    return sides


def verify_poly_s_family(N: int = 8, seed: int = 7) -> VerificationReport:
    """The substituted family with s free, in GF(p)[s] at a seeded point
    Y = e^(iz) (with the degree-2n bound per q^n), and its s = 0, cosine,
    hyperbolic (at R = e^z) and s = -1 cotangent specializations in GF(p).

    One hook walk serves all of them: its vector holds the weight at
    s = 0..2N, then the cosine, hyperbolic and cotangent weights.  The
    `symbolic` detail compares the hook sums at s = 0..2N with the
    exponential side at the same points (`poly_s_exp_points`), q^n
    ascending, then s.  Every q^n coefficient on either side has s-degree
    at most 2n by construction, and 0..2N are distinct mod p, so agreement
    at these 2N + 1 points is the GF(p)[s] identity.  The degree bound of
    the hook side stays a check: `poly_s_hook_side` interpolates it from
    the same values, and 2N + 1 points allow s-degree 2N at every q^n.  The
    s = 0 check reads the s = 0 slot against the exponential side's s = 0
    point, so it takes no `exp` of its own.
    """
    t0 = time.perf_counter()
    if N < 1:
        raise ValueError("N must be at least 1")
    rng = random.Random(seed)
    Y, R = sample_point(rng, N), sample_point(rng, N)

    def weights(f):
        return {m: f(m) % P for m in range(1, N + 1)}  # a hook is at most N

    # cosine form: 1/(2 - 2 cos(hz))
    cosine = weights(lambda m: GF.inv(2 - 2 * _cos(pow(Y, m, P))))
    # hyperbolic form at R = e^z: -1/(4 sinh^2(hz))
    sinh = weights(lambda m: -GF.inv(4 * _sinh(pow(R, m, P)) ** 2))
    # s = -1: cotangent form
    cot2 = weights(lambda m: (_cos(pow(Y, m, P)) * GF.inv(_sin(pow(Y, m, P)))) ** 2)
    w = poly_s_sin_weights(Y, N)
    lhs, sums = poly_s_hook_side(w, N, (cosine, sinh, cot2))
    cosine_sum, sinh_sum, cot2_sum = sums[2 * N + 1 :]
    degree_ok = all(c.degree_in("s") <= 2 * n for n, c in enumerate(lhs.coeffs))
    exp_sides = poly_s_exp_points(w, N)
    symbolic = next((
        f"q^{n}: s={s}: {GF.coerce(a.coeffs[n])} != {GF.coerce(b.coeffs[n])}"
        for n in range(N + 1)
        for s, (a, b) in enumerate(zip(sums, exp_sides))
        if not GF.eq(a.coeffs[n], b.coeffs[n])
    ), "0")
    details: dict = {"symbolic": symbolic, "degree_bound": degree_ok}

    def check(hook_sum, rho, pieces=None):
        """The GF(p) hook sum of the weight rho against exp of the summed
        log pieces, by default q^k rho(k)/k."""
        if pieces is None:
            pieces = [TruncatedSeries.monomial(GF, k, N, rho[k] * GF.inv(k) % P) for k in rho]
        log_rhs = TruncatedSeries.zero(GF, N)
        for piece in pieces:
            log_rhs = log_rhs + piece
        return _exact_compare(hook_sum, log_rhs.exp())[1]

    # s = 0: product of 1/(4 sin^2), whose exponential side is the s = 0 point's
    details["s_zero"] = _exact_compare(sums[0], exp_sides[0])[1]
    details["cosine"] = check(cosine_sum, cosine)
    details["sinh"] = check(sinh_sum, sinh)
    pieces = []
    for m in range(1, N + 1):
        if m % 2:
            # q^m cot^2(m z) / (m (1 + q^m)) = (q^m/(1 - q^m) - 2 q^(2m)/(1 - q^(2m))) cot^2/m
            c = cot2[m] * GF.inv(m) % P
            pieces += [geometric_multiples(GF, m, N, c), geometric_multiples(GF, 2 * m, N, -2 * c)]
        else:
            pieces.append(geometric_multiples(GF, m, N, GF.inv(m)))
    details["cotangent"] = check(cot2_sum, cot2, pieces)

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


def jacobi_at(N: int, X: int) -> tuple[list[int], list[int]]:
    """Both sides of the triple product identity times a^(N+1), at a = X, as
    integers per power x^0..x^N: prod_(n=0..N) (a + x^n) prod_(n=1..N)
    (1 + a x^n) (1 - x^n), and the theta sum of a^(m+N+1) x^(m(m+1)/2)."""
    factors = [(c, n) for n in range(1, N + 1) for c in (X, -1)]  # 1 + a x^n, 1 - x^n
    lhs = binomial_product(RationalField(), N, factors).coeffs
    for n in range(N + 1):  # a + x^n, which is a (1 + x^n / a)
        for k in range(N, -1, -1):
            lhs[k] = X * lhs[k] + (lhs[k - n] if k >= n else 0)
    rhs = [0] * (N + 1)
    k = (isqrt(8 * N + 1) - 1) // 2  # the largest k with k(k+1)/2 <= N
    for m in range(-k - 1, k + 1):
        rhs[m * (m + 1) // 2] += X ** (m + N + 1)
    return lhs, rhs


def verify_jacobi(N: int = 10) -> VerificationReport:
    """The triple product identity to order N by Kronecker substitution:
    times a^(N+1) both sides are integer polynomials in a, compared at
    a = X = 2^(3N+3) (`jacobi_at`).  The product's 3N + 1 factors have L1
    norm 2 each and the theta sum's coefficients are 0 or 1, so each
    coefficient of the difference is below 2^(3N+1) + 1 < X/2 in absolute
    value, and equality at X is equality in Z[a] (see `verify_hook_content`).
    A mismatch is named by the balanced base-X digits of both sides."""
    t0 = time.perf_counter()
    bits, dev = 3 * N + 3, "0"
    for i, pair in enumerate(zip(*jacobi_at(N, 1 << bits))):
        if pair[0] != pair[1]:
            a, b = (str(Poly(("a",), balanced_digits(v, bits, -N - 1))) for v in pair)
            dev = f"x^{i}: {a[:60]} != {b[:60]}"
            break
    return _finish("jacobi", {}, N, "QQ[a](Laurent)", dev == "0", dev, t0)


def verify_macdonald(t: int = 2, N: int = 4, seed: int = 7) -> VerificationReport:
    """Macdonald's type-A identity in GF(p) at a point x of {2..p-1}^t drawn
    from `seed`.  Each side's q^n coefficient is a Laurent polynomial with
    the terms x_i^(i - a_j) of the codings of size n; cleared by
    prod x_i^(A - i), A the largest a_j, each has total degree
    tA - t(t+1)/2 = t v_max.  So a nonzero difference of the sides vanishes
    at x with probability at most d/(p-2) (Schwartz-Zippel), d = `sz_degree`
    the largest of these.  `terms_enumerated` counts t! orderings a coding."""
    t0 = time.perf_counter()
    if t < 2:
        raise ValueError("t must be at least 2")
    rng = random.Random(seed)
    x = [rng.randrange(2, P) for _ in range(t)]
    ok, dev = _exact_compare(macdonald_lhs(t, N, x), macdonald_rhs(t, N, x))
    codings = enumerate_codings(t, N)
    return _finish(
        "macdonald", {"t": t, "seed": seed, "x": x}, N, GF.name, ok, dev, t0,
        terms_enumerated=factorial(t) * len(codings),
        sz_degree=t * max(c.twice[0] for c in codings) // 2,
    )


def tcore_lemma_series(t: int, Y: int, N: int):
    """LHS of the core-restricted sine sum two ways, and both closed forms,
    in GF(p) at Y = e^(iz).  The cores come from codings, and the
    exponential form is the r = 1 sine-family side at W = Y^t."""
    cores: dict[int, list[Partition]] = {n: [] for n in range(N + 1)}
    for lam in cores_from_codings(t, N):
        cores[lam.size].append(lam)
    W = pow(Y, t, P)
    lhs_full = sin_hook_sum(1, Y, W, N)
    lhs_restricted = sin_hook_sum(1, Y, W, N, source=cores.__getitem__)
    powers = range(1, N + 1)
    factors = [(-1, m) for m in powers] * (t - 1)
    for i in range(1, t):
        for phase in (-1, 1):
            c = -pow(Y, phase * 2 * (t - i), P)  # -e^(+-2iz(t-i))
            factors += [(c, m) for m in powers] * i
    product = binomial_product(GF, N, factors)
    return lhs_restricted, lhs_full, product, sin_family_rhs(1, Y, W, N)


def verify_tcore_lemmas(t: int = 3, N: int = 10, seed: int = 7) -> VerificationReport:
    """Core-restricted sine sums at a seeded point Y = e^(iz) of GF(p): the
    restricted and full sums agree, and both match the product and
    exponential closed forms."""
    t0 = time.perf_counter()
    if t < 3 or t % 2 == 0:
        raise ValueError("t must be an odd integer >= 3")
    if N < 1:
        raise ValueError("N must be at least 1")
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


def verify_multiplication(r: int = 1, N: int = 10) -> VerificationReport:
    """The marked hook sum over hooks divisible by r against its product
    form, an identity in QQ[beta, x].

    Each side's coefficient of q^n x^w is a polynomial of degree at most w in
    beta: w weights 1 - beta/h^2 on the hook side, and on the product side
    the x^w part of (prod (1 - q^k)^(beta/r^2 - 1))^r.  Since w <= N//r,
    equality at the N//r + 1 distinct integer points beta = r^2 s^2,
    s = 0..N//r, proves the identity to order N: a deterministic check, not
    a random sample.  Both sides are exact integers there
    (`multiplication_hook_points`, `multiplication_product_points`).
    """
    t0 = time.perf_counter()
    if N < 1:
        raise ValueError("N must be at least 1")
    if r < 1:
        raise ValueError("r must be a positive integer")
    _, dev = _first_point_mismatch(r, N, marked=True)
    ring = PolynomialRing(("beta", "x"))
    return _finish("multiplication", {"r": r}, N, ring.name, dev == "0", dev, t0)


def _times_one_minus_powers(v: int, exponents, bits: int) -> int:
    """v prod (1 - X^e) over `exponents` at X = 2^bits: each factor is
    v - (v << bits e), a shift and a subtraction."""
    for e in exponents:
        v -= v << bits * e
    return v


def hook_content_at(lam: Partition, n: int, X: int, cache: dict) -> tuple[int, int]:
    """Both sides of the hook-content identity at p = X, as integers: the
    Schur value times prod (1 - X^h) over the hooks, and X^(row moment)
    times prod (1 - X^(n + c)) over the contents, which is zero when lambda
    has more than n rows (the cell in row n + 1 of column 1 has content -n).

    X must be a power of two 2^B >= 4 (ValueError otherwise): every power
    of X is then a left shift by a multiple of B, and every factor
    (1 - X^e) a shift and a subtraction.  The Schur value comes from the
    branching rule (`schur_branching_at`), not from a determinant.  `cache`
    carries one sweep's values: the Schur values, keyed (parts, n, B), and
    each partition's hook product and contents, keyed (parts, B), so those
    are taken once per partition whatever n."""
    if X < 4 or X & (X - 1):
        raise ValueError(f"X must be a power of two >= 4, not {X}")
    bits = X.bit_length() - 1
    parts = lam.parts
    known = cache.get((parts, bits))
    if known is None:
        known = cache[parts, bits] = _times_one_minus_powers(1, lam.hooks(), bits), lam.contents()
    hooks, contents = known
    lhs = schur_branching_at(parts, n, bits, cache) * hooks
    if len(parts) > n:  # a factor 1 - X^0
        return lhs, 0
    return lhs, _times_one_minus_powers(1 << bits * lam.row_moment(), (n + c for c in contents), bits)


def verify_hook_content(max_size: int = 8, max_n: int = 5) -> VerificationReport:
    """Principal specialization identity for every partition up to max_size
    and every 1 <= n <= max_n, including the vanishing tall cases.

    Each pair is compared as two integers, both sides at p = X = 2^B with
    B = max_size bitlen(2 max_n) + 2 (the Kronecker substitution).  That
    proves the identity in Z[p]: the Schur side has nonnegative coefficients
    summing to at most n^|lambda| and each of the |lambda| factors
    (1 - p^k) has L1 norm 2, so the left side has L1 norm at most
    (2n)^|lambda| and the right side at most 2^|lambda|.  Every coefficient
    of lhs - rhs is therefore at most 2^(B-1) = X/2 in absolute value, and
    a nonzero integer polynomial with such coefficients is nonzero at X:
    its lowest nonzero coefficient is not a multiple of X.
    """
    t0 = time.perf_counter()
    X = 1 << (max_size * (2 * max_n).bit_length() + 2)
    cache: dict = {}
    failures = []
    checked = 0
    for size in range(max_size + 1):
        for lam in enumerate_partitions(size):
            for n in range(1, max_n + 1):
                checked += 1
                lhs, rhs = hook_content_at(lam, n, X, cache)
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
    of t-cores is the filter over all partitions, order included.  The
    filter runs every t in one pass over the partitions up to either size,
    and builds each partition's abacus bead set once for t = 2 and every t
    up to t_max (the test of `Partition.is_t_core`)."""
    t0 = time.perf_counter()
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if max_size < 0 or enum_size < 0:
        raise ValueError("max_size and enum_size must be nonnegative")
    failures = []
    staircases = []
    k = 0
    while k * (k + 1) // 2 <= max_size:
        staircases.append(Partition(tuple(range(k, 0, -1))))
        k += 1
    found: list[Partition] = []
    filtered: dict[int, list[Partition]] = {t: [] for t in range(1, t_max + 1)}
    for p in partitions_up_to(max(max_size, enum_size)):
        beads = abacus_beads(p.parts)
        size = p.size
        if size <= max_size and abacus_is_t_core(beads, 2):
            found.append(p)
        if size <= enum_size:
            for t, cores in filtered.items():
                if abacus_is_t_core(beads, t):
                    cores.append(p)
    if sorted(p.parts for p in found) != sorted(p.parts for p in staircases):
        failures.append("2-cores are not the staircases")
    sizes = {p.size for p in found}
    want_sizes = {k * (k + 1) // 2 for k in range(len(staircases))}
    if sizes != want_sizes:
        failures.append("2-core sizes are not the triangular numbers")
    for t, cores in filtered.items():
        if cores != cores_from_codings(t, enum_size):
            failures.append(f"enumeration routes disagree for t={t}")
            break
    params = {"max_size": max_size, "t_max": t_max, "enum_size": enum_size}
    return _sweep_report("classical-cross-checks", params, "exact", failures, t0)


def verify_golden_tables() -> VerificationReport:
    """The two worked coding tables, field for field."""
    t0 = time.perf_counter()
    lam, lam2 = Partition((8, 4, 3, 2, 2, 1)), Partition((8, 5, 4, 1, 1, 1))
    c, c2 = core_coding(lam, 5), core_coding(lam2, 6)
    checks = {
        "V": str(c) == "10,3,1,-6,-8",
        "conjugate": str(lam.conjugate()) == "6,5,3,2,1,1,1,1",
        "size": coding_size(c) == 20,
        "roundtrip": coding_to_core(c) == lam,
        "V_even": str(c2) == "21/2,13/2,-1/2,-7/2,-9/2,-17/2",
        "conjugate_even": str(lam2.conjugate()) == "6,3,3,3,2,1,1,1",
        "size_even": coding_size(c2) == 20,
        "roundtrip_even": coding_to_core(c2) == lam2,
    }
    failures = [k for k, v in checks.items() if not v]
    dev = str(failures) if failures else "0"
    return _finish("golden-tables", {}, None, "exact", not failures, dev, t0)


# ---------------------------------------------------------------------------
# registry and suite


class Verifier(NamedTuple):
    """One identity's row: its verifier's function name, then the keyword
    argument sets that each suite profile runs, in order."""

    function: str
    quick: tuple[dict, ...]
    full: tuple[dict, ...]


# identity -> its one row, in suite order.  Function names, not functions:
# `verifier` looks each up in this module when called, so a wrapper
# installed there is seen.  `full` is the acceptance battery that
# tests/test_acceptance.py runs; `quick` shrinks the sweeps for a smoke run.
VERIFIERS = {
    "golden-tables": Verifier("verify_golden_tables", ({},), ({},)),
    "multiset-formula": Verifier(
        "verify_multiset_formula",
        tuple({"t": t, "max_size": 15} for t in range(1, 6)),
        tuple({"t": t, "max_size": 25, "ledger_max_size": 20} for t in range(1, 9)),
    ),
    "exploded-relations": Verifier(
        "verify_exploded_relations",
        tuple({"t": t, "max_size": 12} for t in (2, 3, 5)),
        tuple({"t": t, "max_size": 15} for t in range(2, 8)),
    ),
    "nekrasov-okounkov": Verifier("verify_nekrasov_okounkov", ({"N": 8},), ({"N": 12},)),
    "sin-family": Verifier(
        "verify_sin_family",
        ({"r": 1, "N": 6, "samples": 2}, {"r": 1, "t_value": 0, "N": 8}),
        (*({"r": r, "N": 8, "samples": 5} for r in (1, 2, 3)), {"r": 1, "t_value": 0, "N": 12}),
    ),
    "poly-s-family": Verifier("verify_poly_s_family", ({"N": 6},), ({"N": 8},)),
    "jacobi": Verifier("verify_jacobi", ({"N": 8},), ({"N": 10},)),
    "macdonald": Verifier(
        "verify_macdonald", ({"t": 2, "N": 3},), tuple({"t": t, "N": 4} for t in (2, 3))
    ),
    "tcore-lemmas": Verifier(
        "verify_tcore_lemmas", ({"t": 3, "N": 8},), tuple({"t": t, "N": 10} for t in (3, 5))
    ),
    "multiplication": Verifier(
        "verify_multiplication", ({"r": 2, "N": 8},), tuple({"r": r, "N": 10} for r in (2, 3))
    ),
    "hook-content": Verifier(
        "verify_hook_content", ({"max_size": 6, "max_n": 4},), ({"max_size": 8, "max_n": 5},)
    ),
    "sin-lemma": Verifier("verify_sin_lemma", ({"samples": 3},), ({"samples": 5},)),
    "classical-cross-checks": Verifier(
        "verify_classical_crosschecks",
        ({"max_size": 15, "t_max": 6, "enum_size": 12},),
        ({"max_size": 25, "t_max": 8, "enum_size": 20},),
    ),
}
PROFILES = Verifier._fields[1:]  # the plan fields of a row: quick, full


def verifier(identity: str):
    """The verifier registered for `identity`, as the module holds it now."""
    return globals()[VERIFIERS[identity].function]


def run_suite(profile: str = "quick", seed: int = 7) -> list[VerificationReport]:
    """Run one of PROFILES row by row, passing `seed` to each verifier that takes one."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    reports = []
    for identity, row in VERIFIERS.items():
        fn = verifier(identity)
        extra = {"seed": seed} if "seed" in inspect.signature(fn).parameters else {}
        reports.extend(fn(**kwargs, **extra) for kwargs in getattr(row, profile))
    return reports
