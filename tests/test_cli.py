import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tcores.cli import main
from tcores.identities import VERIFIERS
from tcores.partitions import partitions_up_to
from tcores.rings import P

GOLDEN = Path(__file__).parent / "golden"
TABLE1_ARGV = ("core-map", "--partition", "8,4,3,2,2,1", "--t", "5")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


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


def test_core_map_text_builds_one_bead_set_per_side(capsys, monkeypatch):
    # each side's coding, head, gaps and the other side's dagger row come
    # from the two bead sets; json builds the partition's only
    from tcores import cli, coding

    calls = []
    for owner in (cli, coding):
        real = owner.bead_set
        monkeypatch.setattr(owner, "bead_set", lambda *a, _real=real: calls.append(a) or _real(*a))
    code, out, _ = run(capsys, *TABLE1_ARGV)
    assert code == 0 and out == (GOLDEN / "table1.txt").read_text()
    assert len(calls) == 2
    calls.clear()
    code, out, _ = run(capsys, *TABLE1_ARGV, "--format", "json")
    assert code == 0 and out == (GOLDEN / "table1.json").read_text()
    assert len(calls) == 1


@pytest.mark.parametrize("partition, t", [("8,4,3,2,2,1", "5"), ("8,5,4,1,1,1", "6")])
def test_tables_print_without_building_a_halfint(capsys, monkeypatch, partition, t):
    # the paper's Table 1 (whole values) and Table 2 (halves): every value
    # is printed from its doubled int by `halfint.text`; HalfInt is only for
    # parsing text and for coding input
    from tcores.halfint import HalfInt

    built = []
    real = HalfInt.__init__
    monkeypatch.setattr(HalfInt, "__init__", lambda self, twice: built.append(twice) or real(self, twice))
    for argv in (
        ("core-map", "--format", "text"), ("core-map", "--format", "json"),
        ("explode", "--format", "text"), ("explode", "--format", "svg"),
    ):
        code, out, _ = run(capsys, *argv, "--partition", partition, "--t", t)
        assert code == 0 and out and built == [], argv
    assert str(HalfInt(21)) == "21/2" and built == [21]  # the counter does count


def test_explode_golden(capsys):
    code, out, _ = run(capsys, "explode", "--partition", "1", "--t", "3")
    assert code == 0
    assert out == (GOLDEN / "explode_1_t3.txt").read_text()
    code, out, _ = run(
        capsys, "explode", "--partition", "1", "--t", "3", "--format", "svg"
    )
    assert code == 0
    assert out == (GOLDEN / "explode_1_t3.svg").read_text()


@pytest.mark.parametrize(
    "partition,t,fmt,golden",
    [
        ("8,4,3,2,2,1", "5", "text", "explode_table1_t5.txt"),
        ("8,5,4,1,1,1", "6", "text", "explode_table2_t6.txt"),
        ("8,5,4,1,1,1", "6", "svg", "explode_table2_t6.svg"),
    ],
)
def test_explode_tables_golden(capsys, partition, t, fmt, golden):
    # the paper's Table 1 (whole labels) and Table 2 (half-integer labels)
    code, out, _ = run(
        capsys, "explode", "--partition", partition, "--t", t, "--format", fmt
    )
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


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
    # the default route, codings, prints the filter route's output
    for t in range(1, 9):
        for fmt in ("text", "json"):
            argv = ["enumerate", "--t", str(t), "--max-size", "20", "--format", fmt]
            code, out, _ = run(capsys, *argv)
            code_f, out_f, _ = run(capsys, *argv, "--via", "filter")
            assert code == code_f == 0
            assert out == out_f, (t, fmt)


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


def test_verify_tcore_lemmas_at_an_even_t(capsys):
    # every t >= 1 is a check, even t included
    code, out, err = run(capsys, "verify", "tcore-lemmas", "--t", "4")
    assert (code, err) == (0, "")
    assert out.startswith("PASS")


def test_verify_with_explicit_sample(capsys):
    code, out, _ = run(
        capsys, "verify", "sin-family", "--r", "2", "--tvalue", "2", "--trunc", "6",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass" and data["deviation"] == "0"
    assert data["params"]["t"] == 2 and data["ring"] == "GF(p)"


@pytest.mark.parametrize("identity", ["sin-family", "poly-s-family", "tcore-lemmas", "sin-lemma", "macdonald"])
def test_verify_seed_reproducible(capsys, identity):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", identity, "--seed", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        del data["ms"]
        outputs.append(data)
    assert outputs[0] == outputs[1]
    assert outputs[0]["params"]["seed"] == 3 and outputs[0]["deviation"] == "0"


def test_verify_macdonald_records_its_seed_and_point(capsys):
    points = []
    for seed in ("3", "4"):
        code, out, _ = run(capsys, "verify", "macdonald", "--t", "3", "--seed", seed, "--format", "json")
        assert code == 0
        data = json.loads(out)
        rng = random.Random(int(seed))
        assert data["params"] == {"t": 3, "seed": int(seed), "x": [rng.randrange(2, P) for _ in range(3)]}
        assert data["ring"] == "GF(p)" and data["deviation"] == "0"
        assert data["details"] == {"terms_enumerated": 36, "sz_degree": 12}
        points.append(data["params"]["x"])
    assert points[0] != points[1]


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
        ["verify", "tcore-lemmas", "--t", "0"],
        ["verify", "macdonald", "--t", "1"],
        ["verify", "jacobi", "--trunc", "-1"],
        ["verify", "sin-family", "--tvalue", "1.5", "--z", "0.7853981633974483", "--trunc", "6"],
        ["verify", "sin-family", "--tvalue", "1.2,0.1", "--trunc", "4"],
        ["verify", "sin-lemma", "--samples", "0"],
        ["verify", "hook-content", "--max-n", "0"],
        ["verify", "multiset-formula", "--t", "0"],
        ["verify", "nekrasov-okounkov", "--trunc", "0"],
        ["verify", "multiplication", "--trunc", "0"],
        ["verify", "multiplication", "--r", "0"],
        ["verify", "jacobi", "--r", "3"],
        ["verify", "golden-tables", "--seed", "3"],
        ["verify", "sin-family", "--z", "0.3"],
        ["verify", "poly-s-family", "--s", "0.3"],
        ["verify", "sin-family", "--tvalue", "1.5"],
        ["verify", "sin-family", "--tvalue", "0", "--samples", "9"],
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


def test_verify_whose_verifier_raises_mid_run_exits_1(capsys, tcore_lemmas_raise_mid_run):
    # an exception past the parameter checks is a failed check, not a usage error
    code, out, err = run(capsys, "verify", "tcore-lemmas")
    assert (code, out, err) == (1, "", "error: ValueError: mid-run\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "sin-family", "--tvalue", "0", "--samples", "2"],
         "the exact t = 0 check draws no sample points"),
        (["verify", "macdonald", "--t", "1"], "t must be at least 2"),
    ],
    ids=lambda v: "_".join(v) if isinstance(v, list) else "",
)
def test_verifier_parameter_errors_exit_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# the cases of test_verifiers_pass_at_their_smallest_values whose keywords
# all have a flag, as (identity, flags at their bound, other flags): each
# flag at its bound passes, and one step lower the verifier rejects it
@pytest.mark.parametrize("identity, low, rest", [
    ("multiset-formula", {"--t": 1, "--max-size": 0}, {}),
    ("exploded-relations", {"--t": 1, "--max-size": 0}, {}),
    ("nekrasov-okounkov", {"--trunc": 1}, {}),
    ("sin-family", {"--r": 1, "--trunc": 1, "--samples": 1}, {}),
    ("sin-family", {"--r": 1, "--trunc": 1}, {"--tvalue": 0}),
    ("poly-s-family", {"--trunc": 1}, {}),
    ("jacobi", {"--trunc": 1}, {}),
    ("macdonald", {"--t": 2, "--trunc": 0}, {}),
    ("tcore-lemmas", {"--t": 1, "--trunc": 1}, {}),
    ("multiplication", {"--r": 1, "--trunc": 1}, {}),
    ("hook-content", {"--max-size": 0, "--max-n": 1}, {}),
    ("sin-lemma", {"--samples": 1}, {}),
], ids=[
    "multiset", "exploded", "nekrasov-okounkov", "sin-family", "sin-family-t0", "poly-s", "jacobi",
    "macdonald", "tcore-lemmas", "multiplication", "hook-content", "sin-lemma",
])
def test_verify_flags_pass_at_the_verifiers_smallest_values(capsys, identity, low, rest):
    def argv(flags):
        return ["verify", identity, *(str(a) for flag in flags.items() for a in flag)]

    code, out, err = run(capsys, *argv({**low, **rest}))
    assert (code, err) == (0, "") and out.startswith("PASS")
    for flag, value in low.items():
        code, out, err = run(capsys, *argv({**low, flag: value - 1, **rest}))
        assert (code, out) == (2, "") and err.startswith("error: ") and "argument" not in err


@pytest.mark.parametrize("identity, deviation", [
    ("multiset-formula", "5/2,-5/2: NotACoreError: 3 has a hook length divisible by 2"),
    ("exploded-relations", "3: RelationViolationError: translation relations assume a t-core"),
])
def test_verify_sweep_whose_check_raises_exits_1(capsys, non_core_at_size_3, identity, deviation):
    # the non-core (3) met as a 2-core is a failed check, not a usage error
    # or an exception out of main
    code, out, err = run(capsys, "verify", identity, "--t", "2", "--max-size", "6", "--format", "json")
    report = json.loads(out)
    assert code == 1 and err == ""
    assert report["status"] == "fail" and report["deviation"] == deviation
    assert report["details"]["cores_checked"] == 3


def test_second_call_builds_no_parser(capsys, monkeypatch):
    assert run(capsys, *TABLE1_ARGV)[0] == 0  # the parser exists from here on
    added = []
    real = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(
        argparse.ArgumentParser, "add_argument",
        lambda self, *args, **kwargs: added.append(args) or real(self, *args, **kwargs),
    )
    code, out, _ = run(capsys, *TABLE1_ARGV)
    assert code == 0 and out == (GOLDEN / "table1.txt").read_text()
    assert added == []
    argparse.ArgumentParser()  # adds -h: the counter does count
    assert added == [("-h", "--help")]


def test_parsed_values_do_not_leak_into_later_calls(capsys):
    code, out, _ = run(capsys, "verify", "jacobi", "--trunc", "4", "--format", "json")
    assert code == 0 and json.loads(out)["N"] == 4
    code, out, _ = run(capsys, "verify", "jacobi", "--format", "json")
    assert code == 0 and json.loads(out)["N"] == 10  # the verifier's default
    code, out, _ = run(capsys, "verify", "jacobi", "--trunc", "4")
    assert code == 0 and out.startswith("PASS") and "N=4" in out  # text, the default


@pytest.mark.parametrize(
    "argv, status",
    [
        (["verify", "multiset-formula", "--t", "x"], 2),
        (["--help"], 0),
        (["core-map", "--help"], 0),
    ],
    ids=lambda v: "_".join(v) if isinstance(v, list) else str(v),
)
def test_exits_leave_the_parser_intact(capsys, argv, status):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == status
        capsys.readouterr()  # the usage text or the help
        code, out, _ = run(capsys, *TABLE1_ARGV)
        assert code == 0 and out == (GOLDEN / "table1.txt").read_text()


def test_in_process_output_matches_a_fresh_process(capsys):
    for argv in (
        [*TABLE1_ARGV, "--format", "json"],
        ["explode", "--partition", "8,4,3,2,2,1", "--t", "5", "--format", "svg"],
        ["enumerate", "--t", "5", "--max-size", "15"],
    ):
        for _ in range(2):
            code, out, _ = run(capsys, *argv)
            proc = subprocess.run(
                [sys.executable, "-m", "tcores", *argv],
                capture_output=True, text=True, env=src_env(), timeout=60,
            )
            assert (proc.returncode, proc.stdout) == (code, out), argv


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


def test_python_m_tcores_runs_the_default_suite():
    # no --profile/--seed: run_suite's own defaults apply, and the JSON
    # still names the profile that ran
    proc = subprocess.run(
        [sys.executable, "-m", "tcores", "suite", "--format", "json"],
        capture_output=True, text=True, env=src_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["profile"] == "quick"
    assert len(data["results"]) == sum(len(row.quick) for row in VERIFIERS.values())
    assert {r["params"]["seed"] for r in data["results"] if r["identity"] == "sin-lemma"} == {7}


# the eight requests of the benchmark's series-deep workload, poly-s-family at
# three seeds, as `tcores verify` runs them
SERIES_DEEP_ARGV = (
    ("nekrasov-okounkov", "--trunc", "16"),
    ("macdonald", "--t", "4", "--trunc", "6"),
    ("multiplication", "--r", "2", "--trunc", "14"),
    ("multiplication", "--r", "3", "--trunc", "15"),
    ("hook-content", "--max-size", "9", "--max-n", "6"),
    ("jacobi", "--trunc", "40"),
    *(("poly-s-family", "--trunc", "12", "--seed", str(seed)) for seed in (1, 2, 3)),
    ("sin-family", "--r", "1", "--tvalue", "0", "--trunc", "20"),
)


def series_deep_reports(capsys) -> str:
    reports = []
    for argv in SERIES_DEEP_ARGV:
        code, out, _ = run(capsys, "verify", *argv, "--format", "json")
        assert code == 0, argv
        report = json.loads(out)
        del report["ms"]
        reports.append(report)
    return json.dumps(reports, indent=1) + "\n"


def test_series_deep_reports_match_golden(capsys):
    assert series_deep_reports(capsys) == (GOLDEN / "series_deep.json").read_text()


def enumerate_digests(capsys) -> dict[str, str]:
    """sha256 of `tcores enumerate --via codings` output, in process, keyed
    "t/max-size/format" for t = 1..10, max-size 0..30 and both formats."""
    digests = {}
    for t in range(1, 11):
        for max_size in range(31):
            for fmt in ("text", "json"):
                code, out, _ = run(
                    capsys, "enumerate", "--t", str(t), "--max-size", str(max_size),
                    "--via", "codings", "--format", fmt,
                )
                assert code == 0, (t, max_size, fmt)
                digests[f"{t}/{max_size}/{fmt}"] = hashlib.sha256(out.encode()).hexdigest()
    return digests


def test_enumerate_codings_match_golden(capsys):
    golden = json.loads((GOLDEN / "enumerate_codings.json").read_text())
    assert len(golden) == 620
    assert enumerate_digests(capsys) == golden


# the explode and core-map formats; core-map's non-core error is part of its
# output, and a non-core's window renders with no coding marked
WINDOW_FORMATS = (("explode", "text"), ("explode", "svg"), ("core-map", "text"), ("core-map", "json"))


def window_digests(capsys) -> dict[str, str]:
    """sha256 of the in-process exit code, stdout and stderr of `tcores
    explode` and `tcores core-map`, keyed "command/format/t" for t = 1..6,
    one digest over every partition of size <= 10, cores and non-cores."""
    partitions = list(partitions_up_to(10))
    digests = {}
    for command, fmt in WINDOW_FORMATS:
        for t in range(1, 7):
            h = hashlib.sha256()
            for lam in partitions:
                code, out, err = run(
                    capsys, command, f"--partition={lam}", "--t", str(t), "--format", fmt
                )
                h.update(f"{lam}\0{code}\0{out}\0{err}\0".encode())
            digests[f"{command}/{fmt}/{t}"] = h.hexdigest()
    return digests


def test_window_outputs_match_golden(capsys):
    golden = json.loads((GOLDEN / "cli_windows.json").read_text())
    assert len(golden) == 24
    assert window_digests(capsys) == golden
