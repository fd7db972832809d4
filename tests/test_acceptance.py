"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line.  The checks are the `full` plan of `tcores.identities.VERIFIERS`, run
once with the default seed; each criterion takes its reports by identity and
adds only its own extra assertions.  Every check is exact and demands
deviation "0", over QQ or at seeded points of GF(p).  Run with
`pytest tests/test_acceptance.py -v -s`."""

import json
from pathlib import Path

import pytest

from tcores.cli import main as cli_main
from tcores.identities import (
    VERIFIERS,
    run_suite,
    verify_exploded_relations,
)
from tcores.partitions import Partition, enumerate_t_cores
from tcores.qseries import macdonald_terms, residue_sign

from oracles import (
    hook_content_sides,
    macdonald_box_terms,
    multiplication_pair,
    nekrasov_okounkov_pair,
    substitute,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def full():
    """Reports of the `full` plan by identity, in plan order."""
    by_identity = {}
    for report in run_suite("full"):
        by_identity.setdefault(report.identity, []).append(report)
    return by_identity


def exact(reports):
    """Whether there are reports and every one passed with deviation "0"."""
    return bool(reports) and all(r.passed and r.deviation == "0" for r in reports)


def seconds(reports):
    return sum(r.ms for r in reports) / 1000.0


def announce(number, ok, extra=""):
    line = f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  ({extra})"
    print(line)
    assert ok, line


def test_full_plan_covers_every_identity(full):
    assert set(full) == set(VERIFIERS)
    assert all(exact(reports) for reports in full.values())


def test_full_plan_reports_match_golden(full):
    # the plan runs row by row, so its reports come grouped by identity
    reports = [r.to_dict() for rows in full.values() for r in rows]
    for d in reports:
        del d["ms"]
    got = json.dumps(reports, indent=1) + "\n"
    assert got == (GOLDEN / "suite_full.json").read_text()


def test_criterion_01_bijection_sweep(full):
    reports = full["multiset-formula"]
    elapsed = seconds(reports)
    cores = sum(r.details["cores_checked"] for r in reports)
    # the sweep takes its cores from codings; the filter route counts them
    assert [r.details["cores_checked"] for r in reports] == [
        len(enumerate_t_cores(r.params["t"], r.params["max_size"])) for r in reports
    ]
    announce(1, exact(reports) and elapsed < 60.0, f"{cores} cores, {elapsed:.1f}s")


def test_criterion_02_golden_tables(full, capsys):
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
    outputs.append(exact(full["golden-tables"]))
    with capsys.disabled():
        announce(2, all(outputs))


def test_criterion_03_multiset_ledgers(full):
    # ledger equality (main, both parities, content form) rides the sweep,
    # applied to every t-core up to each report's ledger_max_size
    announce(3, exact(full["multiset-formula"]))


def test_criterion_04_exploded_geometry(full):
    reports = full["exploded-relations"]
    # t = 1 at the plan's size stays out of `full`, whose 31 checks the
    # benchmark counts
    max_size = max(r.params["max_size"] for r in reports)
    reports = [verify_exploded_relations(1, max_size), *reports]
    cores = sum(r.details["cores_checked"] for r in reports)
    announce(4, exact(reports), f"{cores} cores")


def test_criterion_05_nekrasov_okounkov(full):
    reports = full["nekrasov-okounkov"]
    lhs, rhs = nekrasov_okounkov_pair(1)
    ring = lhs.ring
    beta = ring.var("beta")
    q1 = ring.eq(lhs.coeffs[1], ring.one - beta) and ring.eq(
        rhs.coeffs[1], ring.one - beta
    )
    elapsed = seconds(reports)
    announce(5, exact(reports) and q1 and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_06_sin_family(full):
    reports = full["sin-family"]
    # the panels run in GF(p); t = 0 is the check over the rationals
    rings = all(r.ring == ("QQ" if r.params["t"] == 0 else "GF(p)") for r in reports)
    announce(6, exact(reports) and rings)


def test_criterion_07_poly_s_family(full):
    reports = full["poly-s-family"]
    announce(7, exact(reports) and all(r.details["degree_bound"] is True for r in reports))


def test_criterion_08_jacobi(full):
    announce(8, exact(full["jacobi"]))


def test_criterion_09_macdonald(full):
    reports = full["macdonald"]
    vector_checks = True
    for r in reports:
        t = r.params["t"]
        terms = macdonald_terms(t, r.N)
        # the terms come from codings; the box oracle finds them by brute force
        vector_checks &= terms == macdonald_box_terms(t, r.N)
        vector_checks &= r.details["terms_enumerated"] == len(terms)
        for term in terms:
            vector_checks &= term.epsilon in (-1, 1) and term.omega >= 0
            vector_checks &= len({x % t for x in term.a}) == t
        # repeated residues force sign zero
        vector_checks &= residue_sign((1,) * t) == 0
    announce(9, exact(reports) and vector_checks)


def test_criterion_10_tcore_lemmas(full):
    # the sine product lemmas behind the core-restricted sums ride along
    reports = full["tcore-lemmas"]
    restricted = all(r.details["restricted_vs_full"] == "0" for r in reports)
    announce(10, exact(reports) and restricted and exact(full["sin-lemma"]))


def test_criterion_11_multiplication(full):
    reports = full["multiplication"]
    lhs, rhs = multiplication_pair(1, 8)
    no_lhs, no_rhs = nekrasov_okounkov_pair(8)
    reduces = all(
        substitute(lhs.coeffs[n], "x", 1) == no_lhs.coeffs[n]
        and substitute(rhs.coeffs[n], "x", 1) == no_rhs.coeffs[n]
        for n in range(9)
    )
    announce(11, exact(reports) and reduces)


def test_criterion_12_hook_content(full):
    # the tall cases (more rows than variables) vanish on both sides
    lhs, rhs = hook_content_sides(Partition((1, 1, 1)), 2)
    vanishing = lhs.is_zero() and rhs.is_zero()
    announce(12, exact(full["hook-content"]) and vanishing)


def test_criterion_13_classical_crosschecks(full):
    announce(13, exact(full["classical-cross-checks"]))
