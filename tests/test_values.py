"""Value semantics of the five immutable types: equality and hash on their
fields, no equality with other types or plain tuples, no assignment, the
repr strings, keyword construction, and copy/pickle round-trips.  The
lru caches ``_values``, ``_partial_zeta_residues``, ``_series_table``,
``_l_series_row`` and ``_diagonal_l`` key on the hash of ``PadicContext``.
A report's p, precision, lhs_valuation and match are derived from its
sides, on grid runs and hypothesis sweeps against ``tests/oracles.py``."""

import copy
import pickle
from types import SimpleNamespace

import oracles
import pytest
from conftest import grid_config
from test_recorded_outputs import RECORDED, WORKLOADS

from eulerlp import (
    CongruenceReport,
    DirichletCharacter,
    GridConfig,
    PadicContext,
    PadicNumber,
    run_grid,
)
from eulerlp.reports import CSV_COLUMNS, rational_report, residue_report

CTX = PadicContext(5, 6)


def _report(**changes):
    fields = dict(check="powersum", params={"n": 2, "m": 3}, lhs="-7/1", rhs="-7/1")
    fields.update(changes)
    return CongruenceReport(**fields)


# name -> (build one value, build an equal one, values that differ from it,
# its fields as a plain tuple, the expected repr)
CASES = {
    "PadicContext": (
        lambda: PadicContext(p=5, precision=6),
        lambda: PadicContext(5, 6),
        lambda: [PadicContext(5, 5), PadicContext(7, 6)],
        (5, 6),
        "PadicContext(p=5, precision=6)",
    ),
    "PadicNumber": (
        lambda: PadicNumber(context=CTX, residue=7, precision=3),
        lambda: PadicNumber(PadicContext(5, 6), 7 + 5**3, 3),
        lambda: [PadicNumber(CTX, 7, 4), PadicNumber(CTX, 8, 3),
                 PadicNumber(PadicContext(5, 7), 7, 3)],
        (CTX, 7, 3),
        "7 + O(5^3)",
    ),
    "DirichletCharacter": (
        lambda: DirichletCharacter(context=CTX, t=1),
        lambda: DirichletCharacter(PadicContext(5, 6), 5),
        lambda: [DirichletCharacter(CTX, 2), DirichletCharacter(PadicContext(5, 4), 1)],
        (CTX, 1),
        "DirichletCharacter(context=PadicContext(p=5, precision=6), t=1)",
    ),
    "GridConfig": (
        lambda: GridConfig(primes=(3, 5), r_values=(1, 2), n_values=(2,), precision=4),
        lambda: GridConfig((5, 3, 5), [2, 1], (2, 2), 4),
        lambda: [GridConfig((3,), (1, 2), (2,), 4), GridConfig((3, 5), (1, 2), (2,), 5)],
        ((3, 5), (1, 2), (2,), 4),
        "GridConfig(primes=(3, 5), r_values=(1, 2), n_values=(2,), precision=4)",
    ),
    "CongruenceReport": (
        _report,
        lambda: rational_report("powersum", {"n": 2, "m": 3}, -7, -7),
        lambda: [_report(rhs="-8/1"), _report(params={"n": 2, "m": 4}),
                 _report(check="binomial"),
                 residue_report("powersum", {"n": 2, "m": 3}, CTX, 0, 0)],
        ("powersum", {"n": 2, "m": 3}, "-7/1", "-7/1"),
        "CongruenceReport(check='powersum', params={'n': 2, 'm': 3}, lhs='-7/1', rhs='-7/1')",
    ),
}
NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_equality_is_on_the_fields(name):
    make, make_equal, make_different, _, _ = CASES[name]
    value = make()
    assert value == make_equal()
    assert not value != make_equal()
    for other in make_different():
        assert value != other
        assert not value == other


@pytest.mark.parametrize("name", NAMES)
def test_never_equal_to_another_type_or_a_tuple(name):
    make, _, _, as_tuple, _ = CASES[name]
    value = make()
    assert value != as_tuple
    assert value != list(as_tuple)
    assert value != SimpleNamespace(**{n: getattr(value, n) for n in value.__match_args__})
    for other_name in NAMES:
        if other_name != name:
            assert value != CASES[other_name][0]()


@pytest.mark.parametrize("name", sorted(set(NAMES) - {"CongruenceReport"}))
def test_equal_values_hash_alike(name):
    make, make_equal, _, _, _ = CASES[name]
    assert hash(make()) == hash(make_equal())
    assert len({make(), make_equal()}) == 1


def test_report_hashes_on_all_fields():
    # a report holds dicts, which are unhashable, so hashing one fails
    # unless every defining field is hashable
    with pytest.raises(TypeError):
        hash(_report())
    hashable = dict(params=("n", 2), lhs=("a",), rhs=("a",))
    assert hash(_report(**hashable)) == hash(_report(**hashable))


@pytest.mark.parametrize("name", NAMES)
def test_assignment_raises(name):
    value = CASES[name][0]()
    for field in (*value.__match_args__, "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
    for field in value.__match_args__:
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == CASES[name][0]()


def test_derived_character_fields_cannot_be_assigned():
    chi = DirichletCharacter(CTX, 1)
    with pytest.raises(AttributeError):
        chi.values = (0, 1)
    with pytest.raises(AttributeError):
        chi.conductor = 1


def test_derived_report_fields_cannot_be_assigned():
    report = residue_report("theorem6", {}, CTX, 3, 3)
    for field in ("p", "precision", "match", "lhs_valuation"):
        with pytest.raises(AttributeError):
            setattr(report, field, None)
    assert (report.p, report.precision, report.match, report.lhs_valuation) == (5, 6, True, 0)


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    assert repr(CASES[name][0]()) == CASES[name][4]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize(
    "roundtrip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_copy_and_pickle_round_trip(name, roundtrip):
    value = CASES[name][0]()
    clone = roundtrip(value)
    assert type(clone) is type(value)
    assert clone == value
    assert repr(clone) == repr(value)
    with pytest.raises(AttributeError):
        setattr(clone, value.__match_args__[0], 1)


def test_round_trip_keeps_the_derived_fields():
    chi = DirichletCharacter(CTX, 3)
    ctx = PadicContext(7, 4)
    for clone in (pickle.loads(pickle.dumps(chi)), copy.deepcopy(chi)):
        assert (clone.conductor, clone.values) == (chi.conductor, chi.values)
        assert clone(2) == chi(2)
    for clone in (pickle.loads(pickle.dumps(ctx)), copy.deepcopy(ctx)):
        assert clone.modulus == ctx.modulus == 7**4
    report = residue_report("theorem6", {}, ctx, 7, 8)
    for clone in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert clone.as_dict() == report.as_dict()
        assert (clone.p, clone.precision, clone.match, clone.lhs_valuation) == (7, 4, False, 1)


def test_report_dict_keys_are_the_csv_columns():
    assert tuple(_report().as_dict()) == CSV_COLUMNS
    padic = residue_report("theorem6", {}, CTX, 3, 3)
    assert tuple(padic.as_dict()) == CSV_COLUMNS
    assert CSV_COLUMNS == (
        "check", "p", "params", "lhs", "rhs", "precision", "match", "lhs_valuation",
    )


def _assert_derived(report):
    """p, precision and lhs_valuation read off a p-adic lhs (None for
    "num/den" sides), and match true exactly when the sides are equal."""
    lhs, rhs = report.lhs, report.rhs
    if isinstance(lhs, dict):
        assert (report.p, report.precision, report.lhs_valuation) == (
            lhs["p"], lhs["precision"], lhs["valuation"])
    else:
        assert isinstance(lhs, str) and isinstance(rhs, str)
        assert report.p is report.precision is report.lhs_valuation is None
    assert report.match is (lhs == rhs)


# two grid argvs of RECORDED and their report counts
GRIDS = {
    "grid-mixed": (" ".join(WORKLOADS["grid-mixed"]["default_argv"]), 349),
    "wide-grid": (
        "grid --primes 3,5,7,11,13,17,19,23,29,31 --r 1..6 --n 2,4,6,8 --precision 20", 1260),
}


@pytest.mark.parametrize("argv, count", GRIDS.values(), ids=GRIDS)
def test_grid_reports_derive_their_fields_from_their_sides(argv, count):
    assert argv in RECORDED
    reports = run_grid(grid_config(argv.split()))
    assert len(reports) == count
    for report in reports:
        _assert_derived(report)
    assert {report.match for report in reports} == {True}


def test_residue_reports_derive_their_fields_from_their_sides():
    # residue pairs equal mod p^M or apart in one digit, against the
    # oracle's report; a report built from copies of the sides, which
    # share no object, matches exactly when the residues agree
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        p, M = draw(st.sampled_from((3, 5, 7, 11, 13))), draw(st.integers(1, 6))
        a = draw(st.integers(-(p**M), 2 * p**M))
        return p, M, a, a + draw(st.integers(-p, p)) * p ** draw(st.integers(0, M))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    def holds(case):
        p, M, a, b = case
        report = residue_report("check", {"a": a, "b": b}, PadicContext(p, M), a, b)
        _assert_derived(report)
        assert report.as_dict() == oracles.padic_report("check", {"a": a, "b": b}, p, M, a, b)
        copies = CongruenceReport("check", {}, oracles.wire(p, M, a), oracles.wire(p, M, b))
        _assert_derived(copies)
        assert copies.match is ((a - b) % p**M == 0) is report.match

    holds()


def test_rational_reports_derive_their_fields_from_their_sides():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pairs = st.tuples(st.fractions(), st.fractions()) | st.fractions().map(lambda x: (x, x))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(pairs)
    def holds(pair):
        report = rational_report("check", {}, *pair)
        _assert_derived(report)
        assert report.as_dict() == oracles.rational_report("check", {}, *pair)
        assert report.match is (pair[0] == pair[1])

    holds()
