import inspect
import json
import random

import pytest

from tcores import identities
from tcores.identities import (
    PROFILES,
    VERIFIERS,
    jacobi_pair,
    multiplication_pair,
    nekrasov_okounkov_pair,
    poly_s_pair,
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
from tcores.coding import coding_size
from tcores.halfint import HalfInt
from tcores.partitions import enumerate_t_cores
from tcores.qseries import TruncatedSeries
from tcores.rings import P, PrimeField
from tcores.weights import WeightLedger

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
    lhs, rhs = nekrasov_okounkov_pair(6)
    # collapsing beta to 0 gives the partition generating function
    counts = [1, 1, 2, 3, 5, 7, 11]
    for n in range(7):
        val = lhs.coeffs[n].substitute("beta", 0).coefficient(())
        assert val == counts[n]
        val = rhs.coeffs[n].substitute("beta", 0).coefficient(())
        assert val == counts[n]


def test_sin_family_numeric_and_exact():
    r = verify_sin_family(1, N=6, samples=3)
    assert r.passed and r.deviation == "0" and r.ring == "GF(p)"
    assert len(r.params["points"]) == 3
    r = verify_sin_family(3, N=6, samples=2)
    assert r.passed and r.deviation == "0"
    r = verify_sin_family(1, t_value=0, N=10)
    assert r.passed and r.deviation == "0" and r.ring == "QQ"
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
            assert GF.eq(a.substitute("s", s).coefficient(()), b.substitute("s", s).coefficient(()))


def test_jacobi_and_collapse():
    r = verify_jacobi(10)
    assert r.passed and r.deviation == "0"
    lhs, rhs = jacobi_pair(8)
    for n in range(9):
        a = lhs.coeffs[n].substitute("a", -1).coefficient(())
        b = rhs.coeffs[n].substitute("a", -1).coefficient(())
        assert type(a) is int and a == b


def test_jacobi_constant_term():
    lhs, rhs = jacobi_pair(4)
    ring = lhs.ring
    want = ring.one + ring.monomial((-1,))
    assert lhs.coeffs[0] == want and rhs.coeffs[0] == want


def test_macdonald():
    assert verify_macdonald(2, 4).passed
    assert verify_macdonald(3, 3).passed
    with pytest.raises(ValueError):
        verify_macdonald(1, 3)


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
        collapsed = lhs.coeffs[n].substitute("x", 1)
        assert collapsed == no_lhs.coeffs[n]


def test_hook_content():
    r = verify_hook_content(6, 4)
    assert r.passed and r.deviation == "0"


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
    vals = [GF.coerce(c.substitute("a", -y).coefficient(())) for c in theta.coeffs]
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
    class DropOnePower(TruncatedSeries):
        __slots__ = ()

        def __pow__(self, n):  # (1 - q^m)^(t-1) becomes (1 - q^m)^(t-2)
            return TruncatedSeries.__pow__(self, n - 1)

    real = identities.one_minus_power

    def weakened(ring, m, order):
        return DropOnePower(ring, real(ring, m, order).coeffs)

    monkeypatch.setattr(identities, "one_minus_power", weakened)
    r = verify_tcore_lemmas(5, N=8)
    assert not r.passed and r.deviation == r.details["product_form"] != "0"
    assert r.details["restricted_vs_full"] == r.details["exp_form"] == "0"


def test_poly_s_family_broken_weight_fails(monkeypatch):
    # (s - 1)^2 becomes s^2 - 3s + 1 on the hook-sum side only
    monkeypatch.setattr(identities, "poly_s_weight", lambda s, w: s + (s * s - 3 * s + 1) * w)
    r = verify_poly_s_family(N=6)
    assert not r.passed and r.deviation == r.details["symbolic"] != "0"
    assert all(r.details[k] == "0" for k in SPECIALIZATIONS)


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


# negative controls for the combinatorial sweeps: a broken twin must fail,
# so a faster kernel cannot leave either sweep checking nothing


def test_multiset_formula_stops_at_first_parity_failure(monkeypatch):
    real = identities.parity_coding_ledger

    def bumped(coding, t=None, parity="odd"):  # wrong for every nonempty core
        out = real(coding, t, parity)
        return out if coding_size(coding) == 0 else out * WeightLedger({1: 1})

    monkeypatch.setattr(identities, "parity_coding_ledger", bumped)
    r = verify_multiset_formula(3, 10)
    assert not r.passed
    assert r.deviation == "1: parity ledger (odd) mismatch"
    # the empty core passes, the core (1) fails, and the sweep stops there
    assert r.details["cores_checked"] == 2 < len(enumerate_t_cores(3, 10))


def test_multiset_formula_broken_round_trip_fails(monkeypatch):
    real = identities.coding_to_core
    monkeypatch.setattr(identities, "coding_to_core", lambda c, t=None: real(c, t).conjugate())
    r = verify_multiset_formula(5, 14)
    # () and (1) are self-conjugate; (2), the third core, is the first that is not
    assert not r.passed and r.deviation == "2: round trip failed"
    assert r.details["cores_checked"] == 3


def test_exploded_relations_broken_ledger_fails(monkeypatch):
    real = identities.region_ledger

    def bumped(window, region, xset="W", yset="W"):
        return real(window, region, xset, yset) * WeightLedger({1: 1})

    monkeypatch.setattr(identities, "region_ledger", bumped)
    r = verify_exploded_relations(3, 10)
    assert not r.passed and r.details["cores_checked"] == 1
    assert r.deviation == "-: ['band_count', 'gap_band_counts']"


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
    for identity, name in VERIFIERS.items():
        fn = verifier(identity)
        assert fn.__name__ == name
        assert all(p.default is not p.empty for p in inspect.signature(fn).parameters.values())
    assert len(PROFILES["full"]) == 31
    for plan in PROFILES.values():
        for identity, kwargs in plan:
            inspect.signature(verifier(identity)).bind(**kwargs)


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
