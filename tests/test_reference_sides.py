"""Every report grid prints against ``oracles.grid_reference``, which
rebuilds a grid argv's reports from the argv alone and shares no code with
the library; each printed field is compared, params and both sides
included.  The CLI runs as ``python -m eulerlp`` in a child process, and
neither this module nor oracles.py imports anything from eulerlp.
test_faults.py reads the same reference under each of its faults.
"""

import ast
import sys

import pytest
from conftest import ROOT, run_python
from oracles import differing, grid_reference, parse_output, reference_reports
from test_recorded_outputs import RECORDED


def run_module(argv):
    proc = run_python("-m", "eulerlp", *argv)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return parse_output(proc.stdout)


GRID_ARGVS = [argv for argv in RECORDED if argv.startswith("grid ")]


@pytest.mark.parametrize("argv", GRID_ARGVS)
def test_every_recorded_grid_report_is_the_reference(argv):
    words = argv.split()
    assert differing(run_module(words), grid_reference(words)) == {}


def test_small_grids_are_the_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        primes=st.lists(st.sampled_from((3, 5, 7, 11, 13)), min_size=1, max_size=3),
        rs=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        ns=st.lists(st.sampled_from((2, 4, 6, 8)), min_size=1, max_size=3),
        M=st.integers(1, 6),
    )
    def holds(primes, rs, ns, M):
        argv = ["grid", "--primes", ",".join(map(str, primes)), "--r", ",".join(map(str, rs)),
                "--n", ",".join(map(str, ns)), "--precision", str(M)]
        assert differing(run_module(argv), reference_reports(primes, rs, ns, M)) == {}

    holds()


@pytest.mark.parametrize("name", ["test_reference_sides.py", "oracles.py", "test_oracles.py"])
def test_this_module_imports_nothing_from_eulerlp(name):
    # oracles.py, the reference the other test modules read too, imports
    # only the standard library
    tree = ast.parse((ROOT / "tests" / name).read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    tops = {name.split(".")[0] for name in names}
    assert "eulerlp" not in tops
    if name == "oracles.py":
        assert tops <= sys.stdlib_module_names, tops - sys.stdlib_module_names
