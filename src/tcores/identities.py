"""One verifier per series/multiset identity, each returning a report.

Every check is exact: a pass reports deviation "0", a failure its first
mismatching coefficient.  The sine-weight identities, in rational functions
of Y = e^(iz) (and W = e^(itz), R = e^z), and Macdonald's, in Laurent
polynomials of x_1..x_t, are checked in GF(p), p = 2^61 - 31, at points
drawn from a seeded generator, with sin(kz) = (Y^k - Y^-k)/(2i); a draw at
which a sine in a denominator vanishes is redrawn.  Two different rational
functions of degree d agree at a random point with probability at most d/p
(Schwartz-Zippel), which bounds the chance of a false pass.  Every
sine-weight exponential side is one `exp` of a Lambert-series log
sum_k a_k q^k/(1 - s^k q^k), built by `_lambert_exp`.  The s-parameter
family, polynomial in s, is compared at points (w, s) of its hook weight
s + (s - 1)^2 w: at s = 0..2N, with its degree bound read off forward
differences of the same values, so no verifier builds a polynomial ring,
and at three more points that are its cosine, hyperbolic and cotangent
forms.  The other series identities are checked in integers:
Nekrasov-Okounkov and its r-multiplication form at enough points
beta = r^2 s^2 to determine them, hook-content and Jacobi's at one point
X = 2^B beyond their coefficients (Kronecker substitution).  Those are
proofs to the truncation order.
"""

from __future__ import annotations

import inspect
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from math import factorial, isqrt, prod
from operator import mul
from typing import NamedTuple

from .coding import (
    InvalidCodingError,
    NonIntegerSizeError,
    _bead_relations,
    _conjugate_coding,
    _read_coding,
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
from .exploded import ExplodedWindow, relation_failures
from .partitions import (
    Partition,
    abacus_beads,
    abacus_is_t_core,
    enumerate_partitions,
    hook_tally,
    partitions_up_to,
)
from .qseries import (
    TruncatedSeries,
    _hook_walk,
    balanced_digits,
    binomial_product,
    euler_power,
    exact_div,
    macdonald_lhs,
    macdonald_rhs,
    multiplication_product_points,
    partition_sums_mod_p,
    schur_branching_at,
)
from .rings import P, Poly, PrimeField, RationalField
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


class ParameterError(ValueError):
    """A verifier's parameter out of its range: a usage error, raised before
    any checking starts."""


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


def _finish(identity, params, N, ring, deviation, t0, **details) -> VerificationReport:
    """The report of a check whose first failure is `deviation`: it passes
    exactly when that is "0"."""
    return VerificationReport(
        identity=identity,
        params=params,
        N=N,
        ring=ring,
        status="pass" if deviation == "0" else "fail",
        deviation=deviation,
        ms=(time.perf_counter() - t0) * 1000.0,
        details=details,
    )


def _sweep(identity, params, ring, t0, counter, items, kernel, conjugate=lambda item: item) -> VerificationReport:
    """Report of a sweep that checks each item and stops at the first that
    fails or raises, with the count of items checked (the failing one
    included) under `counter`.  An exception is that item's failure, named
    with its type, not an abort of the sweep or of the suite.  A sweep that
    checked nothing fails too: it must not pass.  `kernel(item)` is a
    generator that yields the item's failure text or None and then, if
    resumed, that of `conjugate(item)`; without `conjugate` every item is
    its own and yields once.  When the item passes and its conjugate is
    another item, the kernel is resumed at once, and that result waits
    under the conjugate until the sweep reaches it: each result is what
    checking its item alone gives, so order, texts and counts do not change."""
    held = {}
    checked, dev = 0, "0"
    for item in items:
        checked += 1
        if item in held:
            failure = held.pop(item)
        else:
            results = kernel(item)
            failure = _attempt(item, results)
            if failure is None and (other := conjugate(item)) != item:
                held[other] = _attempt(other, results)
        if failure is not None:
            dev = failure
            break
    if not checked:
        dev = f"nothing checked: {counter} = 0"
    return _finish(identity, params, None, ring, dev, t0, **{counter: checked})


def _attempt(item, results):
    """The kernel's next result, or, if it raises, the item's failure named
    with the exception's type: a check that cannot finish fails its item."""
    try:
        return next(results)
    except Exception as exc:
        return f"{item}: {type(exc).__name__}: {exc}"


def _exact_compare(lhs, rhs, where=lambda n: f"q^{n}", show=lambda path, v: v) -> str:
    """"0" if two tables agree, else both orders if their row counts differ,
    or their first mismatching entry: row n first, then the next index.  A
    table is a `TruncatedSeries`, read as its ring's residues, or a list of
    ints or of further lists.  Below the rows every level is zipped
    strictly, so a side with extra or missing entries fails or raises
    ValueError.  `where(*path)` names the entry and `show(path, value)`
    prints it, each side cut to 60 characters."""
    if isinstance(lhs, TruncatedSeries):
        lhs, rhs = (list(map(lhs.ring.coerce, side.coeffs)) for side in (lhs, rhs))
    if len(lhs) != len(rhs):
        return f"order {len(lhs) - 1} != {len(rhs) - 1}"
    if lhs == rhs:
        return "0"
    path = []
    while isinstance(lhs, list):
        i, lhs, rhs = next((i, a, b) for i, (a, b) in enumerate(zip(lhs, rhs, strict=True)) if a != b)
        path.append(i)
    a, b = (str(show(path, v))[:60] for v in (lhs, rhs))
    return f"{where(*path)}: {a} != {b}"


def _first_failure(devs) -> str:
    return next((d for d in devs if d != "0"), "0")


# ---------------------------------------------------------------------------
# bijection and ledger sweeps


def _multiset_pair(v, ledger_max_size: int):
    """The multiset sweep's kernel at the t-core coded by v: a generator
    that yields its failure text or None and then, if resumed, that of its
    conjugate, coded by -rev(v).  Each core is built from its coding by
    `coding_to_core`, whose read-off meets the coding size formula (or the
    coding fails), and the coding read off its bead set must be that coding;
    then the content-side size formula and image, the bead relations on
    that bead set, and up to ledger_max_size the three exponent ledgers with
    both parity forms.  No cell is visited for a hook: the hook tallies come
    from beta numbers (`hook_tally`, `content_ledger`), and the parity folds
    are compared as folds (`ParityFold.differing_parity`).  A self-conjugate
    core takes its own bead set and coding as its conjugate side.  The
    second core is the first's mirror when its parts and its conjugate's
    are the first's conjugate's and the first's: it then takes the first's
    conjugate side as its own, the conjugate side of the first's
    `_bead_relations`, and, with one hook multiset, the first's hook tally
    and hook-shift ledger."""
    t = v.t
    carried = None  # the first core's: its mirror's parts, conjugate side, relations, ledger
    for v in (v, _conjugate_coding(v)):
        try:
            lam = coding_to_core(v)
        except (InvalidCodingError, NonIntegerSizeError) as exc:
            yield f"coding {v}: {exc}"
            return
        conj = lam.conjugate()
        mirror = carried is not None and carried[0] == (lam.parts, conj.parts)
        if mirror:
            _, (beads, coding), relations, ledger = carried
        else:
            beads = bead_set(lam, t)
            coding = _read_coding(lam, beads)
            ledger = None
        diag = validate_coding(coding)
        if not diag.valid:
            yield f"{lam}: produced coding invalid: {diag.messages}"
            return
        if coding != v:
            yield f"{lam}: round trip failed"
            return
        mu = content_coding(coding)
        if content_coding_size(mu, t) != lam.size:
            yield f"{lam}: content-side size formula mismatch"
            return
        if not is_content_coding_image(mu, t):
            yield f"{lam}: image characterization fails for {mu}"
            return
        if not mirror:
            if conj.parts == lam.parts:
                conj_side = beads, coding
            else:
                conj_beads = bead_set(conj, t)
                conj_side = conj_beads, _read_coding(conj, conj_beads)
            relations = _bead_relations(beads, coding, *conj_side)
        bad = [k for k, ok in next(relations).items() if not ok]
        if bad:
            yield f"{lam}: bead relations failed: {bad}"
            return
        # one hook tally, from the beta numbers, feeds beta and the ledger
        if ledger is None and lam.size <= ledger_max_size:
            hooks = hook_tally(lam.parts)
            ledger = tuple(hooks.get(t - i, 0) for i in range(1, t)), hook_tally_shift_ledger(hooks, t)
        carried = (conj.parts, lam.parts), conj_side, relations, ledger
        if ledger is None:
            yield None
            continue
        beta, lhs = ledger
        rhs = coding_difference_ledger(coding, beta)
        if lhs != rhs:
            yield f"{lam}: hook-shift ledger != coding ledger"
            return
        # one fold per side serves both parities, odd first
        parity = parity_fold(rhs).differing_parity(parity_coding_fold(coding))
        if parity:
            yield f"{lam}: parity ledger ({parity}) mismatch"
            return
        yield f"{lam}: content ledger mismatch" if content_ledger(mu, beta) != lhs else None


def verify_multiset_formula(t: int = 5, max_size: int = 15, ledger_max_size: int | None = None) -> VerificationReport:
    """Sweep every t-core up to max_size, a conjugate pair per visit of
    `_multiset_pair`; `classical-cross-checks` keeps the filter oracle."""
    t0 = time.perf_counter()
    if t < 1:
        raise ParameterError("t must be a positive integer")
    if ledger_max_size is None:
        ledger_max_size = max_size
    if min(max_size, ledger_max_size) < 0:
        raise ParameterError("max_size and ledger_max_size must be nonnegative")
    params = {"t": t, "max_size": max_size, "ledger_max_size": ledger_max_size}
    codings = enumerate_codings(t, max_size)
    kernel = partial(_multiset_pair, ledger_max_size=ledger_max_size)
    return _sweep("multiset-formula", params, "exact", t0, "cores_checked", codings, kernel, _conjugate_coding)


def _exploded_pair(lam: Partition, t: int):
    """The exploded sweep's kernel at the t-core lam: a generator that
    yields its failure text or None and then, if resumed, that of its
    conjugate.  Each core's translation relations, fold (set and ledger
    forms, with the band counts) and triangle ledger are checked in its own
    window; the conjugate's, when it is lam's transposed with the same small
    hooks, runs only the triangle ledger (`relation_failures`)."""
    passed = None
    for core in (lam, lam.conjugate()):
        window = ExplodedWindow(core, t)
        beta = core.small_hook_counts(t)
        bad = relation_failures(window, beta, passed)
        yield f"{core}: {bad}" if bad else None
        passed = window, beta


def verify_exploded_relations(t: int = 5, max_size: int = 15) -> VerificationReport:
    """Sweep every t-core up to max_size, from the codings, a conjugate pair
    per visit of `_exploded_pair`; the first failing core names its checks."""
    t0 = time.perf_counter()
    if t < 1:
        raise ParameterError("t must be a positive integer")
    if max_size < 0:
        raise ParameterError("max_size must be nonnegative")
    params = {"t": t, "max_size": max_size}
    cores = cores_from_codings(t, max_size)
    kernel = partial(_exploded_pair, t=t)
    return _sweep("exploded-relations", params, "exact", t0, "cores_checked", cores, kernel, Partition.conjugate)


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
    products, across sizes too (a tuple of several sizes is folded once).
    The integers are exact, so no entry can change.  w is at most n//r.
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
    s = 0..N//r, as tables [n][w][s] read by `_exact_compare`, so a side
    with an extra or missing q^n row, x^w entry or point fails.  Returns the
    hook-side table and "0", or the first mismatch as the coefficient of q^n
    (x^w when `marked`) at that beta on each side."""
    hooks = multiplication_hook_points(r, N)
    x = "x^{}, " if marked else ""
    return hooks, _exact_compare(
        hooks, multiplication_product_points(r, N),
        lambda n, w, s: f"q^{n}: {x.format(w)}beta={r * r * s * s}",
        lambda path, v: Fraction(v, factorial(path[1]) ** 2),
    )


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
        raise ParameterError("N must be at least 1")
    hooks, dev = _first_point_mismatch(1, N, marked=False)
    # (1!)^2 [q^1], of degree <= 1 in beta, at beta = 0 and beta = 1
    y0, y1 = hooks[1][1][:2]
    if dev == "0" and (y0, y1 - y0) != (1, -1):
        dev = "q^1 coefficient is not 1-beta"
    return _finish(
        "nekrasov-okounkov",
        {},
        N,
        "QQ[beta](poly)",
        dev,
        t0,
        q1_coefficient=str(Poly(("beta",), {(0,): y0, (1,): y1 - y0})),
    )


def sin_weights(r: int, Y: int, W: int, N: int) -> dict[int, int]:
    """h -> 1 - sin^2(t z)/sin^2(h z) in GF(p) at (Y, W) = (e^(iz), e^(itz)),
    for the hooks h = r, 2r, ... of partitions of n <= N (no hook exceeds N)."""
    s_t = _sin(W) ** 2
    return {h: (1 - s_t * GF.inv(_sin(pow(Y, h, P)) ** 2)) % P for h in range(r, N + 1, r)}


def _lambert_exp(a, s: int = 1) -> TruncatedSeries:
    """exp(sum_k a_k q^k/(1 - s^k q^k)) in GF(p) to order N = len(a) - 1,
    for the list a = (a_0, a_1, ..., a_N), a_0 unread: the log's q^m
    coefficient is the sum over k | m of s^(m - k) a_k.  With s = 0 (and
    0^0 = 1) that is a_m alone."""
    N = len(a) - 1
    power = [pow(s, e, P) for e in range(N + 1)]
    log = [0] * (N + 1)
    for k in range(1, N + 1):
        for m in range(k, N + 1, k):
            log[m] += power[m - k] * a[k]
    return TruncatedSeries(GF, [c % P for c in log]).exp()


def inverses(N: int) -> list[int]:
    """[0, 1/1, 1/2, ..., 1/N] in GF(p), index 0 unread."""
    return [0] + [GF.inv(k) for k in range(1, N + 1)]


def sin_family_rhs(r: int, Y: int, W: int, N: int) -> TruncatedSeries:
    """exp(sum_k q^k/(k(1-q^k)) - r q^(rk)/(k(1-q^(rk))) sin^2(tkz)/sin^2(rkz)),
    in GF(p) at Y = e^(iz) and W = e^(itz)."""
    a = inverses(N)
    for k in range(1, N // r + 1):
        a[r * k] -= r * _sin(pow(W, k, P)) ** 2 * GF.inv(_sin(pow(Y, r * k, P)) ** 2 * k)
    return _lambert_exp(a)


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
    names QQ.  Otherwise it runs in GF(p) at `samples` points (5 unless
    given) Y = e^(iz) drawn from `seed`, with W = e^(itz) drawn as well when
    t_value is None, and W = Y^t for an integer t_value.  All points are
    drawn first, in that order, and their hook sums come from one
    `partition_sums_mod_p` walk with one `sin_weights` map per point; the
    points are then compared in order up to the first failure, and the
    report lists the points up to that one.
    """
    t0 = time.perf_counter()
    if N < 1:
        raise ParameterError("N must be at least 1")
    if r < 1:
        raise ParameterError("r must be a positive integer")
    if t_value == 0:
        if samples is not None:
            raise ParameterError("the exact t = 0 check draws no sample points")
        counts = [sum(1 for _ in enumerate_partitions(n)) for n in range(N + 1)]
        dev = _exact_compare(counts, euler_power(-1, N))
        return _finish("sin-family", {"r": r, "t": 0}, N, "QQ", dev, t0)
    if samples is None:
        samples = 5
    if samples < 1:
        raise ParameterError("samples must be at least 1")
    rng = random.Random(seed)
    points = []
    for _ in range(samples):
        Y = sample_point(rng, N)
        W = sample_point(rng) if t_value is None else pow(Y, t_value, P)
        points.append({"Y": Y, "W": W})
    hook_sums = partition_sums_mod_p([sin_weights(r, pt["Y"], pt["W"], N) for pt in points], r, N)
    # at least one point, and strict: one hook sum per point, or ValueError
    for i, (pt, lhs) in enumerate(zip(points, hook_sums, strict=True)):
        dev = _exact_compare(lhs, sin_family_rhs(r, pt["Y"], pt["W"], N))
        if dev != "0":
            del points[i + 1 :]  # report the points up to the failing one
            break
    params = {"r": r, "t": t_value, "samples": samples, "seed": seed, "points": points}
    return _finish("sin-family", params, N, GF.name, dev, t0)


def poly_s_weight(s, w):
    """The hook weight s + (s - 1)^2 w of the s-parameter family."""
    return s + (s - 1) * (s - 1) * w


def _degree_at_most(values: list[int], d: int) -> bool:
    """Whether the polynomial of degree < len(values) through `values` at
    s = 0, 1, 2, ... has degree at most d in GF(p): in Newton form its s^(k)
    coefficient is the k-th forward difference at 0 over k!, a unit for
    k < p, so it has degree <= d exactly when every forward difference of
    order > d vanishes mod p, that is, when the (d + 1)-th differences do."""
    for _ in range(d + 1):
        values = [(b - a) % P for a, b in zip(values, values[1:])]
    return not any(v % P for v in values)


def poly_s_sin_weights(Y: int, N: int) -> dict[int, int]:
    """w(m) = 1/(4 sin^2(mz)) in GF(p) at Y = e^(iz), for m = 1..N."""
    return {m: GF.inv(4 * _sin(pow(Y, m, P)) ** 2) for m in range(1, N + 1)}


def poly_s_exp_at(w: dict[int, int], s: int, inv: list[int]) -> TruncatedSeries:
    """The exponential side of the s-parameter form at the point (w, s) in
    GF(p), to order N = len(w), with w a map k -> w(k), k = 1..N: exp of
    sum_k q^k (s^k + (s^k - 1)^2 w(k)) / (k (1 - s^k q^k)), a Lambert series
    in q whose q^m coefficient is sum over k | m of
    s^(m - k) (s^k + (s^k - 1)^2 w(k))/k, the hook weight `poly_s_weight`
    at (s^k, w(k)) over k.  inv[k] is 1/k in GF(p) for
    k = 1..N (`inverses`), taken once by a caller with several points."""
    N = len(w)
    a = [0] * (N + 1)
    for k in range(1, N + 1):
        sk = pow(s, k, P)
        a[k] = poly_s_weight(sk, w[k]) * inv[k]
    return _lambert_exp(a, s)


def verify_poly_s_family(N: int = 8, seed: int = 7) -> VerificationReport:
    """The substituted family with s free, in GF(p)[s] at a seeded point
    Y = e^(iz) (with the degree-2n bound per q^n), and its cosine,
    hyperbolic (at R = e^z) and cotangent specializations in GF(p).

    Every detail compares the two sides at points (w, s): the hook sums of
    one `partition_sums_mod_p` walk, whose slot for a point has the hook
    weight s + (s - 1)^2 w(h) (`poly_s_weight`), against one `exp` per
    point (`poly_s_exp_at`).  The `symbolic` detail takes the points
    (w_sin, s), s = 0..2N, with w_sin(m) = 1/(4 sin^2(mz)): each side is one
    table [n][s] of residues, read by `_exact_compare`, q^n ascending, then
    s.  Every q^n coefficient on either side has s-degree at most 2n by
    construction, and 0..2N are distinct mod p, so agreement at these 2N + 1
    points is the GF(p)[s] identity (the GF(p)[s] walk in `tests/oracles.py`
    takes the same values there).  The degree bound of the hook side stays
    a check, `degree_bound`, read off the rows of its table: at each q^n
    every forward difference of order > 2n over s = 0..2N vanishes mod p.  The
    specializations are three more points: the cosine and hyperbolic forms
    are s = 0 with the weights 1/(2 - 2 cos(mz)) and -1/(4 sinh^2(mz)), and
    the cotangent form is (w_sin, -1), whose weight -1 + 4 w_sin is cot^2.
    """
    t0 = time.perf_counter()
    if N < 1:
        raise ParameterError("N must be at least 1")
    rng = random.Random(seed)
    Y, R = sample_point(rng, N), sample_point(rng, N)
    w = poly_s_sin_weights(Y, N)
    top = 2 * N
    specializations = {
        "cosine": ({m: GF.inv(2 - 2 * _cos(pow(Y, m, P))) for m in w}, 0),
        "sinh": ({m: -GF.inv(4 * _sinh(pow(R, m, P)) ** 2) for m in w}, 0),
        "cotangent": (w, P - 1),  # s = -1
    }
    points = [(w, s) for s in range(top + 1)] + list(specializations.values())
    sums = partition_sums_mod_p(
        [{m: poly_s_weight(s, wm) % P for m, wm in w.items()} for w, s in points], 1, N
    )
    inv = inverses(N)
    exp_sides = [poly_s_exp_at(w, s, inv) for w, s in points]
    hook_table, exp_table = (  # [n][s]: the q^n coefficients at s = 0..2N
        [[c % P for c in row] for row in zip(*(side.coeffs for side in sides[: top + 1]), strict=True)]
        for sides in (sums, exp_sides)
    )
    degree_ok = all(_degree_at_most(row, 2 * n) for n, row in enumerate(hook_table))
    symbolic = _exact_compare(hook_table, exp_table, lambda n, s: f"q^{n}: s={s}")
    details: dict = {"symbolic": symbolic, "degree_bound": degree_ok}
    for name, lhs, rhs in zip(specializations, sums[top + 1 :], exp_sides[top + 1 :]):
        details[name] = _exact_compare(lhs, rhs)
    dev = _first_failure(v for k, v in details.items() if k != "degree_bound")
    if dev == "0" and not degree_ok:
        dev = "s-degree of a q^n coefficient exceeds 2n"
    return _finish(
        "poly-s-family", {"seed": seed, "Y": Y, "R": R}, N, "GF(p)[s](poly)", dev, t0, **details
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
    The two lists of integers per x^i are read by `_exact_compare`, and a
    mismatch is named by the balanced base-X digits of both sides."""
    t0 = time.perf_counter()
    if N < 1:
        raise ParameterError("N must be at least 1")
    bits = 3 * N + 3
    dev = _exact_compare(
        *jacobi_at(N, 1 << bits),
        lambda i: f"x^{i}",
        lambda path, v: Poly(("a",), balanced_digits(v, bits, -N - 1)),
    )
    return _finish("jacobi", {}, N, "QQ[a](Laurent)", dev, t0)


def verify_macdonald(t: int = 2, N: int = 4, seed: int = 7) -> VerificationReport:
    """Macdonald's type-A identity in GF(p) at a point x of {2..p-1}^t drawn
    from `seed`.  Each side's q^n coefficient is a Laurent polynomial with
    the terms x_i^(i - a_j) of the codings of size n; cleared by
    prod x_i^(A - i), A the largest a_j, each has total degree
    tA - t(t+1)/2 = t v_max.  So a nonzero difference of the sides vanishes
    at x with probability at most d/(p-2) (Schwartz-Zippel), d = `sz_degree`
    the largest of these.  `terms_enumerated` counts t! orderings a coding.
    The codings are enumerated once, for the sum side and both counts."""
    t0 = time.perf_counter()
    if t < 2:
        raise ParameterError("t must be at least 2")
    if N < 0:
        raise ParameterError("N must be nonnegative")
    rng = random.Random(seed)
    x = [rng.randrange(2, P) for _ in range(t)]
    codings = enumerate_codings(t, N)
    dev = _exact_compare(macdonald_lhs(N, x), macdonald_rhs(N, x, codings))
    return _finish(
        "macdonald", {"t": t, "seed": seed, "x": x}, N, GF.name, dev, t0,
        terms_enumerated=factorial(t) * len(codings),
        sz_degree=t * max(c.twice[0] for c in codings) // 2,
    )


def tcore_lemma_series(t: int, Y: int, N: int):
    """The sine hook sum over the t-cores, the full sum at W = Y^t, and both
    closed forms, in GF(p) at Y = e^(iz).  One weight map serves both sums:
    the full sum walks it once, and the restricted sum adds its product over
    the hooks of each core from `cores_from_codings`.  The exponential form
    is the r = 1 sine-family side at W = Y^t."""
    W = pow(Y, t, P)
    rho = sin_weights(1, Y, W, N)
    restricted = [0] * (N + 1)
    for lam in cores_from_codings(t, N):
        restricted[lam.size] += prod(rho[h] for h in lam.hooks())
    full = partition_sums_mod_p([rho], 1, N)[0]
    powers = range(1, N + 1)
    factors = [(-1, m) for m in powers] * (t - 1)
    for i in range(1, t):
        for phase in (-1, 1):
            c = -pow(Y, phase * 2 * (t - i), P)  # -e^(+-2iz(t-i))
            factors += [(c, m) for m in powers] * i
    product = binomial_product(GF, N, factors)
    return TruncatedSeries(GF, [c % P for c in restricted]), full, product, sin_family_rhs(1, Y, W, N)


def verify_tcore_lemmas(t: int = 3, N: int = 10, seed: int = 7) -> VerificationReport:
    """Core-restricted sine sums at a seeded point Y = e^(iz) of GF(p), for
    every t >= 1: the sum over the t-cores equals the full sum at W = Y^t,
    and both match the product and exponential closed forms."""
    t0 = time.perf_counter()
    if t < 1:
        raise ParameterError("t must be a positive integer")
    if N < 1:
        raise ParameterError("N must be at least 1")
    Y = sample_point(random.Random(seed), N)
    restricted, full, product, exp_form = tcore_lemma_series(t, Y, N)
    details = {
        "restricted_vs_full": _exact_compare(restricted, full),
        "product_form": _exact_compare(restricted, product),
        "exp_form": _exact_compare(restricted, exp_form),
    }
    dev = _first_failure(details.values())
    return _finish(
        "tcore-lemmas", {"t": t, "seed": seed, "Y": Y}, N, GF.name, dev, t0, **details
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
        raise ParameterError("N must be at least 1")
    if r < 1:
        raise ParameterError("r must be a positive integer")
    _, dev = _first_point_mismatch(r, N, marked=True)
    return _finish("multiplication", {"r": r}, N, "QQ[beta,x](poly)", dev, t0)


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
    if max_size < 0 or max_n < 1:
        raise ParameterError("max_size must be nonnegative and max_n at least 1")
    X = 1 << (max_size * (2 * max_n).bit_length() + 2)
    cache: dict = {}
    pairs = (
        (lam, n)
        for size in range(max_size + 1)
        for lam in enumerate_partitions(size)
        for n in range(1, max_n + 1)
    )

    def check(pair):
        lhs, rhs = hook_content_at(*pair, X, cache)
        yield f"{pair[0]} at n={pair[1]}" if lhs != rhs else None

    params = {"max_size": max_size, "max_n": max_n}
    return _sweep("hook-content", params, "QQ[p]", t0, "pairs_checked", pairs, check)


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
    if samples < 1:
        raise ParameterError("samples must be at least 1")
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
    params = {"samples": samples, "seed": seed, "points": points}
    return _finish("sin-lemma", params, None, GF.name, dev, t0)


def verify_classical_crosschecks(max_size: int = 25, t_max: int = 8, enum_size: int = 20) -> VerificationReport:
    """The coding route's 2-cores up to max_size are exactly the staircases,
    in order, and its t-cores up to enum_size are the filter over all
    partitions, order included.  The filter runs every t up to t_max in one
    pass over the partitions up to enum_size, and builds each partition's
    abacus bead set once (the test of `Partition.is_t_core`)."""
    t0 = time.perf_counter()
    if t_max < 1:
        raise ParameterError("t_max must be at least 1")
    if max_size < 0 or enum_size < 0:
        raise ParameterError("max_size and enum_size must be nonnegative")
    failures = []
    staircases = [Partition(tuple(range(k, 0, -1))) for k in range(max_size + 1) if k * (k + 1) // 2 <= max_size]
    if cores_from_codings(2, max_size) != staircases:
        failures.append("2-cores are not the staircases")
    filtered: dict[int, list[Partition]] = {t: [] for t in range(1, t_max + 1)}
    for p in partitions_up_to(enum_size):
        beads = abacus_beads(p.parts)
        for t, cores in filtered.items():
            if abacus_is_t_core(beads, t):
                cores.append(p)
    for t, cores in filtered.items():
        if cores != cores_from_codings(t, enum_size):
            failures.append(f"enumeration routes disagree for t={t}")
            break
    params = {"max_size": max_size, "t_max": t_max, "enum_size": enum_size}
    return _finish("classical-cross-checks", params, None, "exact", _first_failure(failures), t0)


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
    return _finish("golden-tables", {}, None, "exact", str(failures) if failures else "0", t0)


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
    """Run one of PROFILES row by row, passing `seed` to each verifier that
    takes one.  A verifier that raises gives one failed report, its deviation
    the exception's type and message, and the plan runs on."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    reports = []
    for identity, row in VERIFIERS.items():
        fn = verifier(identity)
        extra = {"seed": seed} if "seed" in inspect.signature(fn).parameters else {}
        for kwargs in getattr(row, profile):
            t0 = time.perf_counter()
            try:
                reports.append(fn(**kwargs, **extra))
            except Exception as exc:  # one failed check, not an abort of the suite
                dev = f"{type(exc).__name__}: {exc}"
                params = {**kwargs, **extra}
                reports.append(_finish(identity, params, kwargs.get("N"), "unknown", dev, t0))
    return reports
