"""The benchmark's span table must still find its sites in tcores.

`perfbench/spans.py` wraps named functions where tcores looks them up; a
refactor that removes every site of a named span (say `Partition.conjugate`
or `ExplodedWindow.boxes`) makes `Tracer.install` raise.  This test fails
first, instead of a traced benchmark run.  It only imports from perfbench/.
"""

import importlib
import sys
from pathlib import Path

import pytest

from tcores import partitions

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("spans")
    yield module
    sys.modules.pop("spans", None)


def test_tracer_installs_on_current_tcores(spans):
    originals = (partitions.enumerate_partitions, partitions.Partition.__init__)
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises LookupError if a named span lost every site
        cores = partitions.enumerate_t_cores(3, 8)
    finally:
        tracer.uninstall()
    assert (partitions.enumerate_partitions, partitions.Partition.__init__) == originals
    # the generator is still wrapped item by item: p(0) + ... + p(8) = 67
    assert tracer.counts["partitions.enumerate.items"] == 67
    assert tracer.counts["core_filter.cores"] == len(cores) == 10
    named_missing = [
        site for span, sites in spans.SPANS.items() if span in spans.NAMED_SPANS
        for site in (f"{m}.{q}" for m, q in sites) if site in tracer.missing
    ]
    # stale sites, listed for the next benchmark change in ROADMAP.md: the
    # fold ledger is part of check_fold, the cell/box map is a test oracle
    # now, and max_abs_difference is gone
    assert named_missing == [
        "exploded.check_fold_ledger", "exploded.cell_box_map",
        "qseries.TruncatedSeries.max_abs_difference",
    ]


def test_exploded_spans_record_the_sweep(spans):
    # the per-layer exploded metrics read these spans; a refactor that moves
    # the work off their sites would leave them reading 0
    from tcores import identities

    tracer = spans.Tracer()
    try:
        tracer.install()
        report = identities.verify_exploded_relations(3, 8)
    finally:
        tracer.uninstall()
    assert report.passed
    cores = report.details["cores_checked"]
    calls = {name: total[0] for name, total in tracer.span_totals().items()}
    assert calls.get("exploded.window") == cores > 0
    assert calls.get("exploded.relations", 0) >= cores
    assert calls.get("exploded.region_ledger", 0) >= cores


def test_coding_spans_record_the_enumeration(spans):
    # the per-layer coding metrics read these spans.  The cores listing
    # reads each core off the coding walk inside cores_from_codings, a site
    # of the unnamed coding.other, and calls no named coding span;
    # enumerate_codings runs the same walk under its own span
    from tcores import coding

    tracer = spans.Tracer()
    try:
        tracer.install()
        cores = coding.cores_from_codings(5, 20)
        codings = coding.enumerate_codings(5, 20)
    finally:
        tracer.uninstall()
    totals = tracer.span_totals()
    calls = {name: total[0] for name, total in totals.items()}
    assert len(cores) == len(codings) == 164
    assert calls.get("coding.other") == calls.get("coding.enumerate_codings") == 1
    assert calls.get("coding.coding_to_core", 0) == 0
    assert totals["coding.other"][1] > 0
