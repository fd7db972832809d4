import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_a_failing_property_test_reports_its_example(tmp_path):
    # under the repo's warning filters a failing @given test must end as a
    # plain test failure (exit 1) that prints its example, not as an
    # internal error of pytest (exit 3)
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out
