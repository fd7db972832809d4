import inspect
import json
import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from tcores import coding, exploded, identities, partitions, qseries, weights
from tcores.identities import (
    PROFILES,
    VERIFIERS,
    jacobi_at,
    multiplication_hook_points,
    poly_s_hook_side,
    poly_s_sin_weights,
    run_suite,
    sample_point,
    sin_hook_sum,
    sin_family_rhs,
    verify_classical_crosschecks,
    verify_exploded_relations,
    verify_golden_tables,
    verify_hook_content,
    verify_jacobi,
    verify_macdonald,
    verify_multiplication,
    verify_multiset_formula,
    verify_nekrasov_okounkov,
    verify_poly_s_family,
    verify_sin_family,
    verify_sin_lemma,
    verify_tcore_lemmas,
    verifier,
)
from tcores.coding import BeadSet, coding_size, enumerate_codings
from tcores.exploded import ExplodedWindow, render
from tcores.halfint import HalfInt
from tcores.partitions import Partition, abacus_beads, enumerate_t_cores
from tcores.qseries import (
    TruncatedSeries,
    euler_power,
    exact_div,
    multiplication_product_points,
)
from tcores.rings import P, PrimeField
from tcores.weights import WeightLedger, evaluate, parity_coding_ledger

from oracles import (
    core_count_series,
    hook_content_sides,
    jacobi_pair,
    macdonald_box_terms,
    multiplication_pair,
    nekrasov_okounkov_pair,
    per_partition_hook_points,
    poly_s_exp_side,
    poly_s_hook_side_poly,
    poly_s_pair,
    substitute,
)

GF = PrimeField()
I = pow(7, (P - 1) // 4, P)  # a square root of -1 mod P


def gf_sin(u):
    """sin z at u = e^(iz), written out here independently of the library."""
    return (u - pow(u, -1, P)) * pow(2 * I, -1, P) % P


def test_report_shape():
    r = verify_jacobi(6)
    d = r.to_dict()
    for key in ("identity", "params", "N", "ring", "status", "deviation", "ms"):
        assert key in d
    parsed = json.loads(r.to_json())
    assert parsed["status"] == "pass"
    assert r.passed


@pytest.mark.parametrize("verify", [
    lambda: verify_multiplication(2, N=0),
    lambda: verify_sin_family(1, N=0),
    lambda: verify_sin_family(1, t_value=0, N=0),
    lambda: verify_poly_s_family(N=0),
    lambda: verify_tcore_lemmas(3, N=0),
], ids=["multiplication", "sin-family", "sin-family-t0", "poly-s-family", "tcore-lemmas"])
def test_series_verifiers_reject_n_zero(verify):
    # at N = 0 only q^0 is compared, and 1 = 1 would pass with nothing checked
    with pytest.raises(ValueError, match="N must be at least 1"):
        verify()


def test_multiset_formula_passes():
    assert verify_multiset_formula(5, 14).passed
    assert verify_multiset_formula(6, 12).passed
    assert verify_multiset_formula(1, 10).passed  # only the empty 1-core


def test_exploded_relations_pass():
    assert verify_exploded_relations(3, 12).passed
    assert verify_exploded_relations(4, 10).passed


def test_nekrasov_okounkov():
    r = verify_nekrasov_okounkov(8)
    assert r.passed and r.deviation == "0"
    with pytest.raises(ValueError, match="N must be at least 1"):
        verify_nekrasov_okounkov(0)  # no q^1 coefficient to check
    lhs, rhs = nekrasov_okounkov_pair(6)
    # collapsing beta to 0 gives the partition generating function
    counts = [1, 1, 2, 3, 5, 7, 11]
    for n in range(7):
        val = substitute(lhs.coeffs[n], "beta", 0).coefficient(())
        assert val == counts[n]
        val = substitute(rhs.coeffs[n], "beta", 0).coefficient(())
        assert val == counts[n]


def test_sin_family_numeric_and_exact():
    r = verify_sin_family(1, N=6, samples=3)
    assert r.passed and r.deviation == "0" and r.ring == "GF(p)"
    assert len(r.params["points"]) == 3
    r = verify_sin_family(3, N=6, samples=2)
    assert r.passed and r.deviation == "0"
    r = verify_sin_family(1, t_value=0, N=10)
    assert r.passed and r.deviation == "0" and r.ring == "QQ"
    # left out, the panel size is 5 and the report says so
    assert verify_sin_family(1, N=4).params["samples"] == 5
    # an integer t puts W = e^(itz) at Y^t
    r = verify_sin_family(2, t_value=2, N=8)
    assert r.passed and r.deviation == "0"
    assert all(pt["W"] == pow(pt["Y"], 2, P) for pt in r.params["points"])


class Draws:
    """A generator stub that hands out the given residues in order."""

    def __init__(self, *values):
        self.values = iter(values)

    def randrange(self, low, high):
        value = next(self.values)
        assert low <= value < high
        return value


def test_singular_draw_is_redrawn():
    # Y = p - 1 = -1 has Y^2 = 1: sin(z) vanishes there
    assert sample_point(Draws(P - 1, 5), N=3) == 5
    assert sample_point(Draws(P - 1), N=0) == P - 1  # no sine to keep nonzero
    # i has i^4 = 1, so sin(2z) vanishes, but i^2 = -1 leaves sin(z) alone
    assert I * I % P == P - 1
    assert sample_point(Draws(I, 3), N=2) == 3
    assert sample_point(Draws(I), N=1) == I


def test_sin_family_t0_rejects_samples():
    # the exact t = 0 check draws no points, so a sample count would be ignored
    with pytest.raises(ValueError, match="draws no sample points"):
        verify_sin_family(1, t_value=0, N=4, samples=9)
    # the seed is accepted: run_suite passes it to every seeded verifier
    assert verify_sin_family(1, t_value=0, N=4, seed=3).passed


def test_sin_family_takes_an_integer_t():
    with pytest.raises(TypeError):
        verify_sin_family(1, t_value=1.5, N=4)
    with pytest.raises(TypeError):
        verify_sin_family(1, z=0.37 + 0.11j, N=4)  # no float sample points


def test_empty_checks_fail():
    for report, empty in (
        (verify_hook_content(max_n=0), "pairs_checked = 0"),
        (verify_multiset_formula(3, -1), "cores_checked = 0"),
        (verify_exploded_relations(3, -1), "cores_checked = 0"),
        (verify_sin_family(samples=0), "no samples"),
        (verify_sin_lemma(samples=0), "no samples"),
    ):
        assert report.status == "fail", report.identity
        assert empty in report.deviation


SPECIALIZATIONS = ("s_zero", "cosine", "sinh", "cotangent")


def test_poly_s_family():
    r = verify_poly_s_family(N=6)
    assert r.passed and r.deviation == "0" and r.ring == "GF(p)[s](poly)"
    assert r.details["degree_bound"] is True
    assert all(r.details[k] == "0" for k in ("symbolic",) + SPECIALIZATIONS)
    # s stays symbolic, so every numeric s is covered
    lhs, rhs = poly_s_pair(r.params["Y"], 6)
    for s in (0, -1, 3):
        for a, b in zip(lhs.coeffs, rhs.coeffs):
            assert GF.eq(substitute(a, "s", s).coefficient(()), substitute(b, "s", s).coefficient(()))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("N", [6, 8, 12])
def test_interpolated_hook_side_is_the_poly_route(N, seed):
    # the verifier's first draw is Y; the interpolated side must be the
    # GF(p)[s] walk coefficient for coefficient, mod p
    Y = sample_point(random.Random(seed), N)
    got = poly_s_hook_side(poly_s_sin_weights(Y, N), N)[0]
    want = poly_s_hook_side_poly(Y, N)
    ring = got.ring
    assert [ring.coerce(c) for c in want.coeffs] == got.coeffs
    assert all(type(v) is int for c in got.coeffs for v in c.terms.values())
    assert max(c.degree_in("s") for c in got.coeffs) == 2 * N


@pytest.mark.parametrize("N", [8, 12])
def test_poly_exp_side_degree_and_values_at_the_points(N):
    # the premise of the points route: every q^n coefficient of the GF(p)[s]
    # exponential side has s-degree <= 2n, so its values at s = 0..2N, the
    # verifier's GF(p) exponential sides, determine it
    w = poly_s_sin_weights(sample_point(random.Random(7), N), N)
    rhs = poly_s_exp_side(w, N)
    assert all(c.degree_in("s") <= 2 * n for n, c in enumerate(rhs.coeffs))
    sides = identities.poly_s_exp_points(w, N)
    assert len(sides) == 2 * N + 1
    for s, side in enumerate(sides):
        values = [sum(v * s ** e for (e,), v in c.terms.items()) % P for c in rhs.coeffs]
        assert side.coeffs == values, s


def test_jacobi_and_collapse():
    r = verify_jacobi(10)
    assert r.passed and r.deviation == "0"
    lhs, rhs = jacobi_pair(8)
    for n in range(9):
        a = substitute(lhs.coeffs[n], "a", -1).coefficient(())
        b = substitute(rhs.coeffs[n], "a", -1).coefficient(())
        assert type(a) is int and a == b


def test_jacobi_constant_term():
    lhs, rhs = jacobi_pair(4)
    ring = lhs.ring
    want = ring.one + ring.monomial((-1,))
    assert lhs.coeffs[0] == want and rhs.coeffs[0] == want


def test_macdonald():
    r = verify_macdonald(2, 4)
    assert r.passed and r.details["terms_enumerated"] == len(macdonald_box_terms(2, 4))
    assert verify_macdonald(3, 3).passed
    with pytest.raises(ValueError):
        verify_macdonald(1, 3)


def test_macdonald_runs_past_the_old_frontier():
    # t! orderings of each t-core of size <= N, counted by the
    # Garvan-Kim-Stanton product
    for t, N in ((8, 12), (6, 8)):
        r = verify_macdonald(t, N)
        assert r.passed and r.deviation == "0" and r.ring == "GF(p)"
        assert r.details["terms_enumerated"] == factorial(t) * sum(core_count_series(t, N))


def test_macdonald_flipped_sign_fails_at_its_size(monkeypatch):
    t, N = 3, 6
    coding = enumerate_codings(t, N)[-1]
    flip = [(tw + t + 1) // 2 for tw in coding.twice]
    real = qseries.residue_sign
    monkeypatch.setattr(qseries, "residue_sign", lambda a, t: -real(a, t) if list(a) == flip else real(a, t))
    r = verify_macdonald(t, N)
    assert not r.passed and r.deviation.startswith(f"q^{coding_size(coding)}: ")


def test_macdonald_dropped_run_fails_at_q1(monkeypatch):
    real = qseries.binomial_product

    def one_run_short(ring, order, factors, var="q"):
        run = [(-1, m) for m in range(1, order + 1)]
        i = next(i for i in range(len(factors)) if factors[i : i + order] == run)
        return real(ring, order, factors[:i] + factors[i + order :], var)

    monkeypatch.setattr(qseries, "binomial_product", one_run_short)
    r = verify_macdonald(3, 4)
    assert not r.passed and r.deviation.startswith("q^1: ")


@pytest.mark.parametrize("N", [8, 10, 40])
def test_jacobi_integers_are_the_laurent_pair_at_x(N):
    X = 1 << (3 * N + 3)
    for side, series in zip(jacobi_at(N, X), jacobi_pair(N)):
        # times a^(N+1) each coefficient is a polynomial in a, its
        # coefficients at most 2^(3N+1), the L1 norm of the product
        assert all(e + N + 1 >= 0 and abs(c) <= 2 ** (3 * N + 1)
                   for coeff in series.coeffs for (e,), c in coeff.terms.items())
        assert side == [
            sum(c * X ** (e + N + 1) for (e,), c in coeff.terms.items()) for coeff in series.coeffs
        ]


@pytest.mark.parametrize("N, m", [(10, 2), (10, -3), (40, -8)])
def test_jacobi_flipped_theta_sign_names_the_laurent_mismatch(monkeypatch, N, m):
    e = m * (m + 1) // 2
    real = identities.jacobi_at

    def flipped(N, X):
        lhs, rhs = real(N, X)
        rhs[e] -= 2 * X ** (m + N + 1)
        return lhs, rhs

    monkeypatch.setattr(identities, "jacobi_at", flipped)
    r = verify_jacobi(N)
    # the same flip on the Laurent route, and its mismatch text
    lhs, rhs = jacobi_pair(N)
    rhs.coeffs[e] = rhs.coeffs[e] - 2 * rhs.ring.monomial((m,))
    ok, want = identities._exact_compare(lhs, rhs)
    assert not ok and want.startswith(f"x^{e}: ")
    assert not r.passed and r.deviation == want


def test_tcore_lemmas():
    r = verify_tcore_lemmas(3, N=8)
    assert r.passed and r.deviation == "0" and r.ring == "GF(p)"
    assert r.details == {"restricted_vs_full": "0", "product_form": "0", "exp_form": "0"}
    with pytest.raises(ValueError):
        verify_tcore_lemmas(4)


def test_exact_panels_pass_where_floats_failed():
    # a complex-float check against a 1e-8 tolerance failed most of these
    for seed in range(1, 21):
        r = verify_tcore_lemmas(5, N=10, seed=seed)
        assert r.passed and r.deviation == "0", (seed, r.details)
    for t, N in ((5, 18), (7, 14)):
        r = verify_tcore_lemmas(t, N=N, seed=1)
        assert r.passed and r.deviation == "0", (t, N, r.details)
    r = verify_poly_s_family(N=12, seed=4)
    assert r.passed and r.deviation == "0", r.details


def test_multiplication_and_reduction():
    assert verify_multiplication(2, 8).passed
    lhs, _rhs = multiplication_pair(1, 6)
    no_lhs, _ = nekrasov_okounkov_pair(6)
    # at r=1 with the marker sent to 1, the marked sum is the plain one
    for n in range(7):
        collapsed = substitute(lhs.coeffs[n], "x", 1)
        assert collapsed == no_lhs.coeffs[n]


def poly_points(series, r, N, marked):
    """The QQ[beta] (or QQ[beta, x]) route read like the integer kernel:
    entry [n][w][s] is (w!)^2 [q^n x^w] at beta = r^2 s^2.  Without the
    marker every hook counts, so the coefficient of q^n sits at w = n."""
    table = []
    for n, c in enumerate(series.coeffs):
        at = [substitute(c, "beta", r * r * s * s) for s in range(N // r + 1)]
        table.append([
            [factorial(w) ** 2 * (p.coefficient((w,)) if marked else p.coefficient(()) * (w == n)) for p in at]
            for w in range(n // r + 1)
        ])
    return table


@pytest.mark.parametrize("r, N, marked", [(1, 12, False), (1, 8, True), (2, 10, True), (3, 10, True)])
def test_integer_points_are_the_poly_route_at_beta(r, N, marked):
    pair = multiplication_pair(r, N) if marked else nekrasov_okounkov_pair(N)
    hooks, products = multiplication_hook_points(r, N), multiplication_product_points(r, N)
    assert hooks == products
    for side in pair:
        assert poly_points(side, r, N, marked) == hooks


@pytest.mark.parametrize("r, N", [(1, 16), (2, 14), (3, 15), (7, 5), (1, 1)])
def test_hook_points_are_the_per_partition_table(r, N):
    got = multiplication_hook_points(r, N)
    want = per_partition_hook_points(r, N)
    assert got == want
    assert all(type(v) is int for row in got for entry in row for v in entry)


def test_hook_points_read_one_hook_list_per_conjugate_class(monkeypatch):
    # a partition and its conjugate share their hooks: 145 classes among
    # the 272 partitions of size <= 12
    classes = sum(
        1 for n in range(13) for lam in partitions.enumerate_partitions(n)
        if lam.parts >= lam.conjugate().parts
    )
    assert classes == 145
    calls = []
    real = Partition.hooks
    monkeypatch.setattr(Partition, "hooks", lambda self, r=1: calls.append(self) or real(self, r))
    multiplication_hook_points(1, 12)
    assert len(calls) == classes


def test_coding_route_is_the_hook_side_at_beta_t_squared():
    # Theorem 1.1 at tau(k) = k: the odd-weight coding product of a t-core is
    # prod (1 - t^2/h^2) over its hooks, and the hook sum at beta = t^2 keeps
    # only t-cores, since 1 - t^2/h^2 vanishes at a hook of length t
    N = 10
    hooks = multiplication_hook_points(1, N)
    for t in range(1, 9):
        coding_sum = [Fraction(0)] * (N + 1)
        for v in enumerate_codings(t, N):
            coding_sum[coding_size(v)] += evaluate(parity_coding_ledger(v, "odd"), Fraction)
        assert coding_sum == [Fraction(hooks[n][n][t], factorial(n) ** 2) for n in range(N + 1)], t


def test_integer_points_edge_cases():
    # r > N: one point, x^0 only, and no hook is divisible by r
    counts = [1, 1, 2, 3, 5, 7]
    assert multiplication_hook_points(7, 5) == [[[c]] for c in counts]
    assert multiplication_product_points(7, 5) == [[[c]] for c in counts]
    assert verify_multiplication(7, 5).passed
    # N = 1: points beta = 0 and 1 (r = 1), beta = 0 only (r >= 2)
    rep = verify_nekrasov_okounkov(1)
    assert rep.passed and rep.details["q1_coefficient"] == "1 + -1*beta"
    assert all(verify_multiplication(r, 1).passed for r in (1, 2, 3))
    assert multiplication_hook_points(1, 1) == [[[1, 1]], [[0, 0], [1, 0]]]
    with pytest.raises(ValueError, match="N must be at least 1"):
        verify_multiplication(2, 0)
    with pytest.raises(ValueError, match="r must be a positive integer"):
        verify_multiplication(0, 5)


# negative controls for the integer-point check: each fails at a stated
# coefficient and beta


def test_nekrasov_okounkov_broken_weight_fails(monkeypatch):
    # h^2 - beta becomes h^2 - beta + 1 at r = 1
    monkeypatch.setattr(
        identities, "hook_point_weights", lambda g, top: [g * g - s * s + 1 for s in range(top + 1)]
    )
    r = verify_nekrasov_okounkov(6)
    assert not r.passed and r.deviation == "q^1: beta=0: 2 != 1"
    assert r.details["q1_coefficient"] == "2 + -1*beta"


def test_broken_pentagonal_sign_fails(monkeypatch):
    real = qseries.pentagonal_series

    def flipped(order):
        return [(k, -f if k == 5 else f) for k, f in real(order)]

    monkeypatch.setattr(qseries, "pentagonal_series", flipped)
    # at beta = 0 the product side is 1/prod (1 - q^k): p(5) = 5 + 3 - 1 = 7
    # by Euler's recurrence, 5 + 3 + 1 = 9 with the q^5 sign flipped
    r = verify_nekrasov_okounkov(6)
    assert not r.passed and r.deviation == "q^5: beta=0: 7 != 9"
    # no partition of 5 is a 2-core, so its x^0 coefficient is 0; the
    # flipped sign reaches D_5 through 1/prod (1 - q^k)
    r = verify_multiplication(2, 8)
    assert not r.passed and r.deviation == "q^5: x^0, beta=0: 0 != 2"


def test_multiplication_broken_hook_weight_fails(monkeypatch):
    # only the weight of the hooks h = r changes: g^2 - s^2 + 1 at g = 1
    monkeypatch.setattr(
        identities, "hook_point_weights",
        lambda g, top: [g * g - s * s + (g == 1) for s in range(top + 1)],
    )
    r = verify_multiplication(2, 8)
    # (2) and (1,1) each have one hook 2, weighted 2 instead of 1 at beta = 0
    assert not r.passed and r.deviation == "q^2: x^1, beta=0: 4 != 2"


def test_inexact_division_raises(monkeypatch):
    with pytest.raises(AssertionError, match="7 / 2 is not an integer"):
        exact_div(7, 2)
    # a non-integer exponent is refused, not rounded
    with pytest.raises(AssertionError, match="is not an integer"):
        euler_power(Fraction(1, 2), 3)
    # w!/prod g with hooks that are no partition's: 1!/3
    real = Partition.hooks
    monkeypatch.setattr(Partition, "hooks", lambda self, r=1: tuple(3 * h for h in real(self, r)))
    with pytest.raises(AssertionError, match="1 / 3 is not an integer"):
        multiplication_hook_points(1, 2)


def test_hook_content():
    r = verify_hook_content(6, 4)
    assert r.passed and r.deviation == "0"
    # the benchmark's size: 6 * (p(0) + ... + p(9)) pairs
    r = verify_hook_content(9, 6)
    assert r.passed and r.details["pairs_checked"] == 6 * sum((1, 1, 2, 3, 5, 7, 11, 15, 22, 30))


def test_hook_content_integer_sides_are_the_poly_sides_at_x(monkeypatch):
    real = identities.hook_content_at
    seen = []

    def recording(lam, n, X, cache):
        sides = real(lam, n, X, cache)
        seen.append((lam, n, X, sides))
        return sides

    monkeypatch.setattr(identities, "hook_content_at", recording)
    r = verify_hook_content(8, 5)
    assert r.passed and len(seen) == r.details["pairs_checked"] == 335
    assert len({X for _, _, X, _ in seen}) == 1
    for lam, n, X, sides in seen:
        polys = hook_content_sides(lam, n)
        assert sides == tuple(substitute(side, "p", X).coefficient(()) for side in polys), (lam, n)
        # the docstring's bound: each side's L1 norm is below X/2
        for side in polys:
            assert 2 * sum(abs(c) for c in side.terms.values()) < X, (lam, n)


def test_sin_lemma():
    r = verify_sin_lemma(4, seed=3)
    assert r.passed and r.deviation == "0" and r.ring == "GF(p)"
    for pt in r.params["points"]:
        assert 4 <= len(pt["U"]) + 1 <= 6
        product = 1
        for u in pt["U"]:
            product = product * u % P
        assert product == 1  # zero-sum u


def test_classical_crosschecks():
    assert verify_classical_crosschecks(20, 6, 14).passed
    assert verify_classical_crosschecks(12, 3, 20).passed  # enum_size the larger
    # (0, 0, 0) would compare neither route
    for bad in ((0, 0, 0), (25, 8, -1), (-1, 8, 20)):
        with pytest.raises(ValueError):
            verify_classical_crosschecks(*bad)


def test_classical_crosschecks_catch_a_dropped_core(monkeypatch):
    real = identities.cores_from_codings
    monkeypatch.setattr(
        identities, "cores_from_codings", lambda t, n: real(t, n)[:-1] if t == 4 else real(t, n)
    )
    r = verify_classical_crosschecks(15, 6, 12)
    assert not r.passed and r.deviation == "enumeration routes disagree for t=4"


def test_golden_tables():
    assert verify_golden_tables().passed


def test_jacobi_specializes_to_sin_family_at_t2():
    """The r=1, t=2 sine identity is the triple product in disguise: with
    y = e^(-2iz), the theta sum at a=-y equals (1-y)/( -y)^(-1)... checked
    via the staircase closed form sum_k (-1)^k q^(k(k+1)/2) sin((2k+1)z)/sin z,
    at a point Y = e^(iz) of GF(p).
    """
    N = 10
    Y = sample_point(random.Random(5), N)
    lhs = sin_hook_sum(1, Y, pow(Y, 2, P), N)
    # independent closed form from telescoping the staircase hook products
    closed = [0] * (N + 1)
    k = 0
    while k * (k + 1) // 2 <= N:
        closed[k * (k + 1) // 2] += (
            (-1) ** k * gf_sin(pow(Y, 2 * k + 1, P)) * pow(gf_sin(Y), -1, P)
        )
        k += 1
    assert lhs.first_mismatch(TruncatedSeries(GF, closed)) is None

    # theta-sum route through the triple product identity
    _, theta = jacobi_pair(N)
    y = pow(Y, -2, P)
    vals = [GF.coerce(substitute(c, "a", -y).coefficient(())) for c in theta.coeffs]
    scale = -y * pow(1 - y, -1, P)
    assert lhs.first_mismatch(TruncatedSeries(GF, [v * scale for v in vals])) is None

    # and both match the exponential side
    rhs = sin_family_rhs(1, Y, pow(Y, 2, P), N)
    assert lhs.first_mismatch(rhs) is None


CONVERTED = {
    "sin-family": lambda seed: verify_sin_family(N=4, samples=2, seed=seed),
    "poly-s-family": lambda seed: verify_poly_s_family(N=4, seed=seed),
    "tcore-lemmas": lambda seed: verify_tcore_lemmas(3, N=4, seed=seed),
    "sin-lemma": lambda seed: verify_sin_lemma(2, seed=seed),
}


@pytest.mark.parametrize("identity", sorted(CONVERTED))
def test_sample_points_reproducible(identity):
    assert sample_point(random.Random(7), 8) == sample_point(random.Random(7), 8)
    verify = CONVERTED[identity]
    first, again, other = verify(3), verify(3), verify(4)
    assert first.params == again.params and first.params["seed"] == 3
    assert first.params != other.params
    assert first.passed and other.passed


# negative controls: a broken twin of each GF(p) check must fail


def test_tcore_lemmas_broken_product_fails(monkeypatch):
    real = identities.binomial_product

    def weakened(ring, order, factors, var="q"):
        factors = list(factors)
        factors.remove((-1, 1))  # (1 - q)^(t-1) becomes (1 - q)^(t-2)
        return real(ring, order, factors, var)

    monkeypatch.setattr(identities, "binomial_product", weakened)
    r = verify_tcore_lemmas(5, N=8)
    assert not r.passed and r.deviation == r.details["product_form"] != "0"
    assert r.details["restricted_vs_full"] == r.details["exp_form"] == "0"


def test_poly_s_family_broken_weight_fails(monkeypatch):
    # (s - 1)^2 becomes s^2 - 3s + 1 on the hook-sum side only
    monkeypatch.setattr(identities, "poly_s_weight", lambda s, w: s + (s * s - 3 * s + 1) * w)
    r = verify_poly_s_family(N=6)
    assert not r.passed and r.deviation == r.details["symbolic"] != "0"
    assert all(r.details[k] == "0" for k in SPECIALIZATIONS)


def bump_slot(monkeypatch, slot, hook):
    """Add 1 to entry `slot` of the vector weight at `hook` in every
    `partition_sums_mod_p` walk the verifiers make."""
    real = identities.partition_sums_mod_p

    def bumped(rho, width, *args):
        def rho_bumped(h):
            vec = list(rho(h))
            vec[slot] += h == hook
            return vec

        return real(rho_bumped, width, *args)

    monkeypatch.setattr(identities, "partition_sums_mod_p", bumped)


def test_poly_s_family_broken_point_fails(monkeypatch):
    # the weight of the hook 2 at s = 5 only: the interpolated q^2
    # coefficient, the first with a hook 2, disagrees and breaks the degree
    # bound, while the s = 0 slot and the specializations are untouched
    bump_slot(monkeypatch, 5, hook=2)
    r = verify_poly_s_family(N=6)
    assert not r.passed and r.deviation == r.details["symbolic"]
    assert r.deviation.startswith("q^2: ")
    assert r.details["degree_bound"] is False
    assert all(r.details[k] == "0" for k in SPECIALIZATIONS)


def test_poly_s_family_broken_cosine_slot_fails(monkeypatch):
    # slots 0..2N are the s points; the cosine weight comes next
    N = 6
    bump_slot(monkeypatch, 2 * N + 1, hook=1)
    r = verify_poly_s_family(N=N)
    assert not r.passed and r.deviation == r.details["cosine"] != "0"
    assert r.deviation.startswith("q^1: ")
    assert r.details["degree_bound"] is True
    assert all(r.details[k] == "0" for k in ("symbolic", "s_zero", "sinh", "cotangent"))


def test_poly_s_family_broken_exp_point_fails(monkeypatch):
    # one coefficient of the exponential side at one point s: the symbolic
    # detail names that q^n and that s, and no specialization reads it
    real = identities.poly_s_exp_points

    def bumped(w, N):
        sides = real(w, N)
        sides[7].coeffs[3] = (sides[7].coeffs[3] + 1) % P
        return sides

    monkeypatch.setattr(identities, "poly_s_exp_points", bumped)
    r = verify_poly_s_family(N=6)
    assert not r.passed and r.deviation == r.details["symbolic"]
    assert r.deviation.startswith("q^3: s=7: ")
    assert r.details["degree_bound"] is True
    assert all(r.details[k] == "0" for k in SPECIALIZATIONS)


def test_sin_family_t0_broken_euler_coefficient_fails(monkeypatch):
    real = identities.euler_power

    def bumped(alpha, order):
        g = real(alpha, order)
        g[7] += 1
        return g

    monkeypatch.setattr(identities, "euler_power", bumped)
    r = verify_sin_family(1, t_value=0, N=12)
    assert not r.passed and r.deviation == "q^7: 15 != 16"


def test_sin_family_broken_sample_weight_fails(monkeypatch):
    # sample 3's weight at the hook 1: the check stops at that sample, and
    # the report lists the points drawn up to it
    drawn = verify_sin_family(1, N=6, samples=5).params["points"]
    bump_slot(monkeypatch, 2, hook=1)
    r = verify_sin_family(1, N=6, samples=5)
    assert not r.passed and r.deviation.startswith("q^1: ")
    assert r.params["points"] == drawn[:3]


def test_sin_family_broken_exp_form_fails(monkeypatch):
    real = identities.geometric_multiples
    calls = []

    def flip_second(ring, step, order, coeff, var="q"):
        calls.append(step)
        if len(calls) == 2:  # the first sine term, -q/(1-q) sin^2(tz)/sin^2(z)
            coeff = -coeff
        return real(ring, step, order, coeff, var)

    monkeypatch.setattr(identities, "geometric_multiples", flip_second)
    r = verify_sin_family(1, N=6, samples=2)
    assert not r.passed and r.deviation.startswith("q^")


def test_sin_lemma_broken_pair_factor_fails(monkeypatch):
    real = identities.exp_pair_product

    def wrong_first_factor(U):  # (U_0^2 - U_1^2) becomes (U_0^2 + U_1^2)
        a, b = U[0] ** 2, U[1] ** 2
        return real(U) * (a + b) * pow(a - b, -1, P) % P

    monkeypatch.setattr(identities, "exp_pair_product", wrong_first_factor)
    r = verify_sin_lemma(3)
    assert not r.passed and r.deviation.startswith("pairwise")


@pytest.mark.parametrize("X", [-4, 0, 1, 2, 3, 6, 12, (1 << 40) + 1])
def test_hook_content_at_takes_only_a_power_of_two_from_four(X):
    # its factors (1 - X^e) are shifts by multiples of B, X = 2^B
    with pytest.raises(ValueError, match="power of two"):
        identities.hook_content_at(Partition((2, 1)), 3, X, {})


# the hook-content sweep compares two integers per pair: a broken side must
# fail at its first pair


def test_hook_content_broken_sides_fail(monkeypatch):
    real = identities.hook_content_at

    def moment_plus_one(lam, n, X, cache):
        lhs, rhs = real(lam, n, X, cache)
        return lhs, rhs * X

    def hook_factor_dropped(lam, n, X, cache):
        lhs, rhs = real(lam, n, X, cache)
        hooks = lam.hooks()
        return (lhs // (1 - X ** hooks[0]) if hooks else lhs), rhs

    # a wrong moment breaks the first pair; a dropped hook factor first breaks
    # (1) at n=1, after the five pairs of the empty partition
    for broken, first, checked in ((moment_plus_one, "- at n=1", 1), (hook_factor_dropped, "1 at n=1", 6)):
        monkeypatch.setattr(identities, "hook_content_at", broken)
        r = verify_hook_content(8, 5)
        assert r.status == "fail" and r.deviation == first
        assert r.details["pairs_checked"] == checked


# negative controls for the combinatorial sweeps: a broken twin must fail,
# so a faster kernel cannot leave either sweep checking nothing


def test_multiset_formula_stops_at_first_parity_failure(monkeypatch):
    real = identities.parity_coding_fold

    def bumped(c):  # one more tau(1) in both forms of every nonempty core
        fold = real(c)
        if coding_size(c) == 0:
            return fold
        return fold._replace(exps={**fold.exps, 1: fold.exps.get(1, 0) + 1})

    monkeypatch.setattr(identities, "parity_coding_fold", bumped)
    r = verify_multiset_formula(3, 10)
    assert not r.passed
    assert r.deviation == "1: parity ledger (odd) mismatch"
    # the empty core passes, the core (1) fails, and the sweep stops there
    assert r.details["cores_checked"] == 2 < len(enumerate_t_cores(3, 10))


def test_multiset_formula_names_a_failing_even_form(monkeypatch):
    real = identities.parity_coding_fold

    def flipped(c):  # the even form's sign flipped, the odd form kept
        fold = real(c)
        if coding_size(c) == 0:
            return fold
        return fold._replace(sign=-fold.sign, flip=-fold.flip)

    monkeypatch.setattr(identities, "parity_coding_fold", flipped)
    r = verify_multiset_formula(3, 10)
    assert r.deviation == "1: parity ledger (even) mismatch"
    assert r.details["cores_checked"] == 2


def test_multiset_formula_stops_at_first_content_failure(monkeypatch):
    real = identities.content_ledger

    def bumped(mu, beta, t):  # one more tau(t + c) for the first cell of mu
        out = real(mu, beta, t)
        return out * WeightLedger({t: 1}) if mu else out

    monkeypatch.setattr(identities, "content_ledger", bumped)
    r = verify_multiset_formula(3, 10)
    assert r.deviation == "1: content ledger mismatch"
    assert r.details["cores_checked"] == 2


def test_multiset_formula_stops_at_first_mirror_failure(monkeypatch):
    real = BeadSet.elements_down_to

    def dropped(self, lo):  # a nonempty core's top bead, a coding entry, is lost
        out = real(self, lo)
        return out[1:] if self.head else out

    monkeypatch.setattr(BeadSet, "elements_down_to", dropped)
    r = verify_multiset_formula(3, 10)
    assert r.deviation == "1: bead relations failed: ['mirror_intersection']"
    assert r.details["cores_checked"] == 2


def test_multiset_formula_computes_each_size_once(monkeypatch):
    # coding_to_core checks its read-off against the size formula, and the
    # round trip then shows the core's coding is v: one _size per core
    calls = []
    real = coding._size
    monkeypatch.setattr(coding, "_size", lambda twice, t: calls.append(t) or real(twice, t))
    r = verify_multiset_formula(3, 10)
    assert r.passed and r.details["cores_checked"] == 14
    assert len(calls) == 14


def test_multiset_formula_names_a_coding_its_read_off_rejects(monkeypatch):
    # a read-off that fails is the sweep's first failure, naming the coding,
    # not an exception out of the suite; the empty 3-core's coding is first
    real = coding._size
    monkeypatch.setattr(coding, "_size", lambda twice, t: real(twice, t) + 1)
    r = verify_multiset_formula(3, 10)
    assert not r.passed and r.details["cores_checked"] == 1
    assert r.deviation == "coding 1,0,-1: bead read-off does not match the size formula"

    def fractional(twice, t):
        raise coding.NonIntegerSizeError("size formula gave 1/2")

    monkeypatch.setattr(coding, "_size", fractional)
    r = verify_multiset_formula(3, 10)
    assert not r.passed and r.deviation == "coding 1,0,-1: size formula gave 1/2"


def test_classical_crosschecks_see_one_dropped_filter_hit(monkeypatch):
    real = identities.abacus_is_t_core
    one = abacus_beads((1,))

    def dropped(beads, t):  # the 3-core (1) is missed at t = 3 only
        return False if (t == 3 and beads == one) else real(beads, t)

    monkeypatch.setattr(identities, "abacus_is_t_core", dropped)
    r = verify_classical_crosschecks(10, 5, 8)
    assert not r.passed and r.deviation == "enumeration routes disagree for t=3"


def test_multiset_formula_broken_round_trip_fails(monkeypatch):
    real = identities.coding_to_core
    monkeypatch.setattr(identities, "coding_to_core", lambda c: real(c).conjugate())
    r = verify_multiset_formula(5, 14)
    # () and (1) are self-conjugate; (2), the third core, is the first that
    # is not, and the sweep built it as its conjugate (1,1)
    assert not r.passed and r.deviation == "1,1: round trip failed"
    assert r.details["cores_checked"] == 3


def test_exploded_relations_broken_ledger_fails(monkeypatch):
    # every ledger is tallied by the one helper, the fold's bands and the
    # triangle's regions alike
    real = exploded._tally
    monkeypatch.setattr(exploded, "_tally", lambda pairs: real(pairs) * WeightLedger({1: 1}))
    r = verify_exploded_relations(3, 10)
    assert not r.passed and r.details["cores_checked"] == 1
    # the bump cancels in the triangle ledger's quotient, so that check holds
    assert r.deviation == "-: ['fold_ledger', 'band_count', 'gap_band_counts']"


def count_calls(monkeypatch, sites):
    """Wrap each (owner, name) site so that every call adds one to a tally
    under `name`; a function imported into several modules is wrapped at
    each of them."""
    tally = Counter()
    for owner, name in sites:
        real = getattr(owner, name)

        def counting(*args, _real=real, _name=name):
            tally[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counting)
    return tally


def test_sweeps_derive_each_cores_data_once(monkeypatch):
    tally = count_calls(monkeypatch, [
        (identities, "coding_to_core"), (coding, "coding_to_core"),
        (identities, "core_coding"), (coding, "core_coding"),
        (Partition, "is_t_core"), (Partition, "hooks"), (exploded, "region_ledger"),
    ])
    # one core built per coding; its coding is read off its own bead set,
    # with no core_coding call, and the bead relations test the conjugate's
    # bead set and read its coding off it, so no abacus test runs; hooks are
    # read once for beta and the hook-shift ledger, and once for mu's side of
    # the content ledger
    n = len(enumerate_codings(3, 10))
    assert verify_multiset_formula(3, 10).passed
    assert tally == {"coding_to_core": n, "hooks": 2 * n}
    assert tally["core_coding"] == tally["is_t_core"] == 0
    # one core built per coding, whose window reads its coding off its own
    # bead set and negates it for the conjugate; the fold builds and tallies
    # each band once and reads beta for the band counts, and only the
    # triangle ledger's two regions go through region_ledger
    tally.clear()
    r = verify_exploded_relations(3, 8)
    assert r.passed and r.details["cores_checked"] == 10
    assert tally == {"coding_to_core": 10, "hooks": 10, "region_ledger": 20}
    assert tally["core_coding"] == tally["is_t_core"] == 0


def test_multiset_sweep_builds_two_bead_sets_per_core(monkeypatch):
    # the sweep builds the core's bead set and reads its coding off it, and
    # the bead relations take that set and build the conjugate's once
    tally = count_calls(monkeypatch, [(coding, "bead_set"), (identities, "bead_set")])
    n = len(enumerate_codings(3, 10))
    assert verify_multiset_formula(3, 10).passed
    assert tally == {"bead_set": 2 * n} and n == 14


def test_sine_verifiers_read_one_hook_list_per_conjugate_class(monkeypatch):
    # one walk per verifier call: 145 classes among the partitions of size
    # <= 12, 38 among those of size <= 8, whatever the number of weights
    tally = count_calls(monkeypatch, [
        (Partition, "hooks"),
        *((m, "partition_sum_series") for m in (qseries, identities) if hasattr(m, "partition_sum_series")),
    ])
    assert verify_poly_s_family(N=12).passed
    assert tally == {"hooks": 145}
    tally.clear()
    assert verify_sin_family(1, N=8, samples=5).passed
    assert tally == {"hooks": 38}
    tally.clear()
    # no points, no walk
    assert verify_sin_family(1, t_value=2, N=8, samples=0).deviation == "no samples checked"
    assert tally == {}
    # t = 0: every hook weighs 1, so the hook side is a partition count and
    # no hook list is read
    assert verify_sin_family(1, t_value=0, N=12).passed
    assert tally == {}


def test_poly_s_family_takes_one_exp_per_point_and_specialization(monkeypatch):
    # 2N + 1 points of the exponential side, then the cosine, hyperbolic and
    # cotangent forms; the s = 0 check reuses the s = 0 point
    tally = count_calls(monkeypatch, [(TruncatedSeries, "exp")])
    assert verify_poly_s_family(N=12).passed
    assert tally == {"exp": 2 * 12 + 1 + 3}


def test_sin_family_t0_dropped_partition_fails(monkeypatch):
    # the count misses one partition of 7 while Euler's product does not
    real = identities.enumerate_partitions

    def dropping(n):
        parts = list(real(n))
        return parts[1:] if n == 7 else parts

    monkeypatch.setattr(identities, "enumerate_partitions", dropping)
    r = verify_sin_family(1, t_value=0, N=12)
    assert not r.passed and r.deviation == "q^7: 14 != 15"


@pytest.mark.parametrize("r", [0, -1])
@pytest.mark.parametrize("panel", [
    {"t_value": 0},
    {"t_value": 2},
    {"t_value": 2, "samples": 0},
    {},
], ids=["t0", "integer_t", "integer_t_no_samples", "sampled"])
def test_sin_family_rejects_r_below_1(r, panel):
    with pytest.raises(ValueError, match="r must be a positive integer"):
        verify_sin_family(r, N=5, **panel)


def test_exploded_sweep_builds_two_bead_sets_per_core(monkeypatch):
    # the window builds one bead set per side and reads the coding and the
    # core test off the x side's
    tally = count_calls(monkeypatch, [(coding, "bead_set"), (exploded, "bead_set")])
    r = verify_exploded_relations(3, 8)
    assert r.passed and r.details["cores_checked"] == 10
    assert tally == {"bead_set": 20}


def test_sweeps_fold_each_coding_once_and_build_each_abacus_once(monkeypatch):
    # the multiset sweep adds a core's coding differences once for the
    # coding ledger and once, class-sorted, for both parity forms
    tally = count_calls(monkeypatch, [
        (weights, "_add_differences"), (weights, "class_sorted_coding"),
        (partitions, "abacus_beads"), (identities, "abacus_beads"),
    ])
    n = len(enumerate_codings(3, 10))
    assert verify_multiset_formula(3, 10).passed
    # the sweep tests bead sets, so it builds no abacus
    assert tally == {"_add_differences": 2 * n, "class_sorted_coding": n}
    assert tally["abacus_beads"] == 0
    # the filter builds one abacus per partition of size <= 25 and tests
    # t = 2 and t = 1..8 on it
    tally.clear()
    assert verify_classical_crosschecks(25, 8, 20).passed
    assert tally == {"abacus_beads": 9296}


def test_render_tests_each_bead_row_and_column_once(monkeypatch):
    # Table 1 (t = 5) and Table 2 (t = 6): one bead test per column and one
    # per row of the window, in both formats
    tally = count_calls(monkeypatch, [(BeadSet, "__contains__")])
    for lam, t, want in (((8, 4, 3, 2, 2, 1), 5, 48), ((8, 5, 4, 1, 1, 1), 6, 52)):
        window = ExplodedWindow(Partition(lam), t)
        assert len(window.z[0]) + len(window.z[1]) == want
        for fmt in ("ascii", "svg"):
            tally.clear()
            render(window, fmt)
            assert tally["__contains__"] <= want, (t, fmt)


def test_sweeps_build_no_halfint(monkeypatch):
    # beads, codings and window coordinates stay doubled ints in memory;
    # HalfInt is only for parsing and printing text
    built = []
    real = HalfInt.__init__

    def counting(self, twice):
        built.append(twice)
        real(self, twice)

    monkeypatch.setattr(HalfInt, "__init__", counting)
    assert verify_multiset_formula(t=6, max_size=12).passed
    assert verify_exploded_relations(t=4, max_size=12).passed
    assert built == []
    assert str(HalfInt(21)) == "21/2" and built == [21]  # the counter does count


def test_registry_and_profiles():
    assert PROFILES == ("quick", "full")
    for identity, row in VERIFIERS.items():
        fn = verifier(identity)
        assert fn.__name__ == row.function
        assert all(p.default is not p.empty for p in inspect.signature(fn).parameters.values())
        for profile in PROFILES:
            for kwargs in getattr(row, profile):
                inspect.signature(fn).bind(**kwargs)
    assert sum(len(row.full) for row in VERIFIERS.values()) == 31


def test_run_suite_quick():
    reports = run_suite("quick")
    assert all(r.passed for r in reports), [
        (r.identity, r.deviation) for r in reports if not r.passed
    ]
    with pytest.raises(ValueError):
        run_suite("nope")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quick_suite_is_exact(seed):
    reports = run_suite("quick", seed)
    inexact = [(r.identity, r.deviation) for r in reports if not (r.passed and r.deviation == "0")]
    assert inexact == []
