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
    # cell/box map is a test oracle now, and max_abs_difference is gone
    assert named_missing == [
        "exploded.cell_box_map", "qseries.TruncatedSeries.max_abs_difference",
    ]
