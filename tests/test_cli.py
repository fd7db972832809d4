import json
from pathlib import Path

import pytest

from tcores.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_core_map_table1_text(capsys):
    code, out, _ = run(capsys, "core-map", "--partition", "8,4,3,2,2,1", "--t", "5")
    assert code == 0
    assert out == (GOLDEN / "table1.txt").read_text()


def test_core_map_table1_json(capsys):
    code, out, _ = run(
        capsys, "core-map", "--partition", "8,4,3,2,2,1", "--t", "5", "--format", "json"
    )
    assert code == 0
    assert out == (GOLDEN / "table1.json").read_text()
    data = json.loads(out)
    assert data["V"] == "10,3,1,-6,-8"
    assert data["C"] == "9,8,7,6,4,2,-1,-3"
    assert data["M"] == "10" and data["m"] == "-4"
    assert data["size_check"] == 20


def test_core_map_table2(capsys):
    code, out, _ = run(capsys, "core-map", "--partition", "8,5,4,1,1,1", "--t", "6")
    assert code == 0
    assert out == (GOLDEN / "table2.txt").read_text()
    code, out, _ = run(
        capsys, "core-map", "--partition", "8,5,4,1,1,1", "--t", "6", "--format", "json"
    )
    assert code == 0
    assert out == (GOLDEN / "table2.json").read_text()
    assert json.loads(out)["V"] == "21/2,13/2,-1/2,-7/2,-9/2,-17/2"


def test_core_map_single_cell(capsys):
    code, out, _ = run(
        capsys, "core-map", "--partition", "1", "--t", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["V"] == "2,0,-2"


def test_core_map_rejects_non_core(capsys):
    code, out, err = run(capsys, "core-map", "--partition", "2,1", "--t", "3")
    assert code == 1
    assert out == ""
    assert "hook length divisible by 3" in err


def test_explode_golden(capsys):
    code, out, _ = run(capsys, "explode", "--partition", "1", "--t", "3")
    assert code == 0
    assert out == (GOLDEN / "explode_1_t3.txt").read_text()
    code, out, _ = run(
        capsys, "explode", "--partition", "1", "--t", "3", "--format", "svg"
    )
    assert code == 0
    assert out == (GOLDEN / "explode_1_t3.svg").read_text()


def test_enumerate_both_routes(capsys):
    code, out, _ = run(capsys, "enumerate", "--t", "2", "--max-size", "10")
    assert code == 0
    assert out.splitlines() == ["-", "1", "2,1", "3,2,1", "4,3,2,1"]
    code, out2, _ = run(
        capsys, "enumerate", "--t", "2", "--max-size", "10", "--via", "codings",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out2) == ["-", "1", "2,1", "3,2,1", "4,3,2,1"]


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "nekrasov-okounkov", "--trunc", "6", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["identity"] == "nekrasov-okounkov"
    assert data["N"] == 6


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "jacobi", "--trunc", "6")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_with_explicit_sample(capsys):
    code, out, _ = run(
        capsys, "verify", "sin-family", "--r", "2", "--tvalue", "1.41,0.2",
        "--z", "0.37,0.11", "--trunc", "6", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_flags_reach_the_verifier(capsys):
    code, out, _ = run(
        capsys, "verify", "sin-family", "--samples", "2", "--trunc", "4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["params"]["samples"] == 2 and data["N"] == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["core-map", "--partition", "1,2", "--t", "3"],
        ["no-such-command"],
        ["verify", "no-such-identity"],
        ["core-map", "--partition", "1", "--t", "0"],
        ["explode", "--partition", "1", "--t", "0"],
        ["enumerate", "--t", "0"],
        ["enumerate", "--t", "2", "--max-size", "-1"],
        ["verify", "tcore-lemmas", "--t", "4"],
        ["verify", "macdonald", "--t", "1"],
        ["verify", "jacobi", "--trunc", "-1"],
        ["verify", "sin-family", "--tvalue", "1.5", "--z", "0.7853981633974483", "--trunc", "6"],
        ["verify", "sin-family", "--tvalue", "1.2,0.1", "--trunc", "4"],
        ["verify", "sin-lemma", "--samples", "0"],
        ["verify", "hook-content", "--max-n", "0"],
        ["verify", "multiset-formula", "--t", "0"],
        ["verify", "nekrasov-okounkov", "--trunc", "0"],
        ["verify", "jacobi", "--r", "3"],
        ["verify", "golden-tables", "--seed", "3"],
    ],
    ids="_".join,
)
def test_usage_errors_exit_2(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_suite_quick(capsys):
    code, out, _ = run(capsys, "suite", "--profile", "quick")
    assert code == 0
    assert "suite: PASS" in out


def test_suite_json(capsys):
    code, out, _ = run(capsys, "suite", "--profile", "quick", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert all(r["status"] == "pass" for r in data["results"])
