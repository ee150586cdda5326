"""The repository's pytest configuration on a test module of its own: a
failing hypothesis test ends with a FAILED line, not an INTERNALERROR, and
the tests after it still run.  Every other warning stays an error."""

import pytest
from conftest import ROOT, run_python

pytest.importorskip("hypothesis")

MODULE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


@pytest.mark.parametrize("flags", [[], ["-X", "dev"]], ids=["plain", "dev"])
def test_a_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path, flags):
    (tmp_path / "test_module.py").write_text(MODULE)
    config = ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    result = run_python(
        *flags, "-m", "pytest", *config, "-p", "no:cacheprovider", "-q", "test_module.py",
        cwd=tmp_path,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out, out
    assert "FAILED test_module.py::test_fails" in out, out
    assert "1 failed, 1 passed" in out, out
    assert result.returncode == 1, out
