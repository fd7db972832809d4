"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line.  Every criterion is exact and demands deviation "0", over QQ or at
seeded points of GF(p).  Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tcores.cli import main as cli_main
from tcores.identities import (
    multiplication_pair,
    nekrasov_okounkov_pair,
    verify_classical_crosschecks,
    verify_exploded_relations,
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
)
from tcores.qseries import macdonald_terms, residue_sign

GOLDEN = Path(__file__).parent / "golden"

_sweep_cache = {}


def bijection_sweep():
    """Shared by criteria 1 and 3: full check for every t-core with size
    up to 25 for t = 1..8, ledger identities up to size 20."""
    if "reports" not in _sweep_cache:
        t0 = time.perf_counter()
        reports = [
            verify_multiset_formula(t, 25, ledger_max_size=20) for t in range(1, 9)
        ]
        _sweep_cache["reports"] = reports
        _sweep_cache["elapsed"] = time.perf_counter() - t0
    return _sweep_cache["reports"], _sweep_cache["elapsed"]


def announce(number, ok, extra=""):
    line = f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  ({extra})"
    print(line)
    assert ok, line


def test_criterion_01_bijection_sweep():
    reports, elapsed = bijection_sweep()
    ok = all(r.passed for r in reports) and elapsed < 60.0
    cores = sum(r.details["cores_checked"] for r in reports)
    announce(1, ok, f"{cores} cores, {elapsed:.1f}s")


def test_criterion_02_golden_tables(capsys):
    outputs = []
    for args, golden in (
        (["core-map", "--partition", "8,4,3,2,2,1", "--t", "5"], "table1.txt"),
        (
            ["core-map", "--partition", "8,4,3,2,2,1", "--t", "5", "--format", "json"],
            "table1.json",
        ),
        (["core-map", "--partition", "8,5,4,1,1,1", "--t", "6"], "table2.txt"),
        (
            ["core-map", "--partition", "8,5,4,1,1,1", "--t", "6", "--format", "json"],
            "table2.json",
        ),
    ):
        code = cli_main(args)
        out = capsys.readouterr().out
        outputs.append(code == 0 and out == (GOLDEN / golden).read_text())
    table1 = json.loads((GOLDEN / "table1.json").read_text())
    table2 = json.loads((GOLDEN / "table2.json").read_text())
    outputs.append(table1["V"] == "10,3,1,-6,-8")
    outputs.append(table2["V"] == "21/2,13/2,-1/2,-7/2,-9/2,-17/2")
    with capsys.disabled():
        announce(2, all(outputs))


def test_criterion_03_multiset_ledgers():
    # ledger equality (main, both parities, content form) rides the sweep,
    # applied to every t-core of size <= 20 for t <= 8
    reports, _ = bijection_sweep()
    ok = all(r.passed for r in reports)
    announce(3, ok)


def test_criterion_04_exploded_geometry():
    reports = [verify_exploded_relations(t, 15) for t in range(1, 8)]
    ok = all(r.passed for r in reports)
    cores = sum(r.details["cores_checked"] for r in reports)
    announce(4, ok, f"{cores} cores")


def test_criterion_05_nekrasov_okounkov():
    t0 = time.perf_counter()
    report = verify_nekrasov_okounkov(12)
    elapsed = time.perf_counter() - t0
    lhs, rhs = nekrasov_okounkov_pair(1)
    ring = lhs.ring
    beta = ring.var("beta")
    q1 = ring.eq(lhs.coeffs[1], ring.one - beta) and ring.eq(
        rhs.coeffs[1], ring.one - beta
    )
    ok = report.passed and report.deviation == "0" and q1 and elapsed < 30.0
    announce(5, ok, f"{elapsed:.1f}s")


def test_criterion_06_sin_family():
    reports = [verify_sin_family(r, N=8, samples=5) for r in (1, 2, 3)]
    exact = verify_sin_family(1, t_value=0, N=12)
    ok = (
        all(r.passed and r.deviation == "0" and r.ring == "GF(p)" for r in reports)
        and exact.passed
        and exact.deviation == "0"
    )
    announce(6, ok)


def test_criterion_07_poly_s_family():
    report = verify_poly_s_family(N=8)
    ok = (
        report.passed
        and report.deviation == "0"
        and report.details["degree_bound"] is True
    )
    announce(7, ok)


def test_criterion_08_jacobi():
    report = verify_jacobi(10)
    announce(8, report.passed and report.deviation == "0")


def test_criterion_09_macdonald():
    reports = [verify_macdonald(t, 4) for t in (2, 3)]
    vector_checks = True
    for t in (2, 3):
        for term in macdonald_terms(t, 4):
            vector_checks &= term.epsilon in (-1, 1) and term.omega >= 0
            vector_checks &= len({x % t for x in term.a}) == t
        # repeated residues force sign zero
        vector_checks &= residue_sign((1,) * t, t) == 0
    ok = all(r.passed and r.deviation == "0" for r in reports) and vector_checks
    announce(9, ok)


def test_criterion_10_tcore_lemmas():
    reports = [verify_tcore_lemmas(t, N=10) for t in (3, 5)]
    ok = all(
        r.passed
        and r.deviation == "0"
        and r.details["restricted_vs_full"] == "0"
        for r in reports
    )
    announce(10, ok)


def test_criterion_11_multiplication():
    reports = [verify_multiplication(r, 10) for r in (2, 3)]
    lhs, rhs = multiplication_pair(1, 8)
    no_lhs, no_rhs = nekrasov_okounkov_pair(8)
    reduces = all(
        lhs.coeffs[n].substitute("x", 1) == no_lhs.coeffs[n]
        and rhs.coeffs[n].substitute("x", 1) == no_rhs.coeffs[n]
        for n in range(9)
    )
    ok = all(r.passed and r.deviation == "0" for r in reports) and reduces
    announce(11, ok)


def test_criterion_12_hook_content():
    report = verify_hook_content(8, 5)
    # the tall cases (more rows than variables) vanish on both sides
    from tcores.identities import hook_content_sides
    from tcores.partitions import Partition

    lhs, rhs = hook_content_sides(Partition((1, 1, 1)), 2)
    vanishing = lhs.is_zero() and rhs.is_zero()
    announce(12, report.passed and report.deviation == "0" and vanishing)


def test_criterion_13_classical_crosschecks():
    report = verify_classical_crosschecks(25, 8, 20)
    announce(13, report.passed and report.deviation == "0")
