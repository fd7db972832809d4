import cmath
import inspect
import json
import math

import pytest

from tcores.identities import (
    PROFILES,
    VERIFIERS,
    SingularSampleError,
    default_samples,
    jacobi_pair,
    multiplication_pair,
    nekrasov_okounkov_pair,
    run_suite,
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
from tcores.qseries import TruncatedSeries
from tcores.rings import ComplexField


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
    assert r.passed and float(r.deviation) < 1e-8
    r = verify_sin_family(3, N=6, samples=2)
    assert r.passed
    r = verify_sin_family(1, t_value=0, N=10)
    assert r.passed and r.deviation == "0" and r.ring == "QQ"
    # explicit sample
    r = verify_sin_family(2, t_value=2 ** 0.5, z=0.37 + 0.11j, N=8)
    assert r.passed


def test_sin_family_singular_sample():
    with pytest.raises(SingularSampleError):
        verify_sin_family(1, t_value=1.5, z=complex(math.pi / 4, 0), N=6)


def test_sin_family_needs_both_t_and_z():
    with pytest.raises(ValueError):
        verify_sin_family(1, t_value=1.2 + 0.1j, N=4)
    with pytest.raises(ValueError):
        verify_sin_family(1, z=0.37 + 0.11j, N=4)


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


def test_poly_s_family():
    r = verify_poly_s_family(N=6)
    assert r.passed
    assert r.details["degree_bound"] is True
    r = verify_poly_s_family(s=0.3 + 0.1j, N=6)
    assert r.passed


def test_jacobi_and_collapse():
    r = verify_jacobi(10)
    assert r.passed and r.deviation == "0"
    lhs, rhs = jacobi_pair(8)
    for n in range(9):
        a = lhs.coeffs[n].substitute("a", -1.0).coefficient(())
        b = rhs.coeffs[n].substitute("a", -1.0).coefficient(())
        assert abs(a - b) < 1e-12


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
    assert r.passed
    assert float(r.details["restricted_vs_full"]) == 0.0
    with pytest.raises(ValueError):
        verify_tcore_lemmas(4)


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
    assert verify_sin_lemma(4, seed=3).passed


def test_classical_crosschecks():
    assert verify_classical_crosschecks(20, 6, 14).passed


def test_golden_tables():
    assert verify_golden_tables().passed


def test_jacobi_specializes_to_sin_family_at_t2():
    """The r=1, t=2 sine identity is the triple product in disguise: with
    y = e^(-2iz), the theta sum at a=-y equals (1-y)/( -y)^(-1)... checked
    via the staircase closed form sum_k (-1)^k q^(k(k+1)/2) sin((2k+1)z)/sin z.
    """
    z = 0.31 + 0.17j
    N = 10
    lhs = sin_hook_sum(1, 2, z, N)
    # independent closed form from telescoping the staircase hook products
    ring = ComplexField(1e-8)
    closed = [0j] * (N + 1)
    k = 0
    while k * (k + 1) // 2 <= N:
        closed[k * (k + 1) // 2] += (
            (-1) ** k * cmath.sin((2 * k + 1) * z) / cmath.sin(z)
        )
        k += 1
    closed_series = TruncatedSeries(ring, closed)
    assert lhs.max_abs_difference(closed_series) < 1e-10

    # theta-sum route through the triple product identity
    _, theta = jacobi_pair(N)
    y = cmath.exp(-2j * z)
    vals = [c.substitute("a", -y).coefficient(()) for c in theta.coeffs]
    scaled = TruncatedSeries(ring, [v * (-y) / (1 - y) for v in vals])
    assert lhs.max_abs_difference(scaled) < 1e-10

    # and both match the exponential side
    rhs = sin_family_rhs(1, 2, z, N)
    assert lhs.max_abs_difference(rhs) < 1e-10


def test_default_samples_deterministic():
    assert default_samples(3, seed=7) == default_samples(3, seed=7)
    assert default_samples(3, seed=7) != default_samples(3, seed=8)


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
