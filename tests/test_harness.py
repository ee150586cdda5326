import hashlib
import importlib
import json
import pkgutil
import traceback
from fractions import Fraction

import oracles
import pytest
from conftest import (
    GRID_MIXED,
    cold_caches,
    library_caches,
    mutated,
    recorded,
    source_mutant,
)

import eulerlp
from eulerlp import (
    GridConfig,
    PadicContext,
    PadicNumber,
    alt_harmonic_sum,
    binomial,
    main_congruence_series,
    padic_l,
    reports_to_csv,
    reports_to_jsonl,
    run_grid,
    teichmuller_power,
    verify_main_congruence,
)
from eulerlp import DirichletCharacter, harness, lfunctions
from eulerlp.cli import COMMANDS
from eulerlp.harness import CHECKS
from eulerlp.reports import CongruenceReport, residue_report
from test_recorded_outputs import RECORDED

GRID_PRIMES = (3, 5, 7)
GRID_R = (1, 2, 3, 4)
GRID_N = (2, 4, 6)


def grid_mixed_reports(check):
    """The reports of one suite at the grid-mixed config."""
    _, run, rows = CHECKS[check]
    return [report for params in rows(GRID_MIXED) for report in run(params)]


class TestAltHarmonicSum:
    def test_second_power(self):
        # -1 + 1/4 + 1/16 - 1/25 over the units j in 1..6
        assert alt_harmonic_sum(3, 2, 2) == Fraction(-291, 400)

    def test_empty_sum(self):
        assert alt_harmonic_sum(5, 0, 3) == 0

    def test_skips_multiples_of_p(self):
        # j = 3 and j = 6 are excluded from 1..np
        assert alt_harmonic_sum(3, 2, 1) == sum(
            Fraction((-1) ** j, j) for j in (1, 2, 4, 5)
        )

    def test_guards(self):
        with pytest.raises(ValueError):
            alt_harmonic_sum(4, 2, 1)
        with pytest.raises(ValueError):
            alt_harmonic_sum(3, 3, 1)
        with pytest.raises(ValueError):
            alt_harmonic_sum(3, 2, 0)

    def test_valuation_at_least_one_on_grid(self):
        for p in GRID_PRIMES:
            for r in GRID_R:
                for n in GRID_N:
                    s = alt_harmonic_sum(p, n, r)
                    assert s.numerator % p == 0
                    assert s.denominator % p != 0


def _precision_mismatches():
    """(p, N, n, r) where the main congruence series at N + 4 digits, and so
    from four more terms, reduced to N digits, is not its value at N."""
    wrong = []
    for p in (3, 5):
        for digits in (3, 4, 5):
            short, long = PadicContext(p, digits), PadicContext(p, digits + 4)
            for n in (2, 4):
                for r in (1, 2):
                    value = main_congruence_series(n, r, long).reduce(digits)
                    if value.residue != main_congruence_series(n, r, short).residue:
                        wrong.append((p, digits, n, r))
    return wrong


class TestMainCongruenceSeries:
    def test_anchor_residues_by_precision(self):
        for digits, expected in [(1, 0), (2, 0), (3, 18)]:
            ctx = PadicContext(3, digits)
            value = main_congruence_series(2, 1, ctx)
            assert value.residue == expected

    def test_margin_stability(self):
        assert not _precision_mismatches()

    def test_the_dropped_k_equals_n_term_is_zero_mod_p_to_the_n(self):
        # the series stops at k = N - 1: term N, C(-r, N) (pn)^N l_p(r+N,
        # w^(-r-N)), carries p^N, so summing it too would change no value
        for p in (3, 5, 7, 13):
            for N in (1, 2, 5, 9):
                ctx = PadicContext(p, N)
                for n in (2, 4, 6, 10):
                    for r in (1, 2, 3, 7):
                        chi = teichmuller_power(-r - N, ctx)
                        term = binomial(-r, N) * (p * n) ** N * padic_l(r + N, chi).residue
                        assert term % ctx.modulus == 0, (p, N, n, r)

    def test_margin_stability_sees_a_short_series(self, short_main_congruence):
        assert _precision_mismatches()


class TestVerifyMainCongruence:
    def test_anchor_instance(self):
        report = verify_main_congruence(3, 2, 1, 3)
        assert report.match
        assert report.lhs["digits"] == [0, 0, 2]  # 18 mod 27
        assert report.rhs["digits"] == [0, 0, 2]
        assert report.lhs_valuation == 2
        assert report.params == {"p": 3, "n": 2, "r": 1, "M": 3}

    def test_single_digit_cases(self):
        for p in (3, 5):
            report = verify_main_congruence(p, 2, 1, 1)
            assert report.match
            assert report.lhs["digits"] == [0]

    def test_guards(self):
        with pytest.raises(ValueError):
            verify_main_congruence(3, 3, 1, 3)
        with pytest.raises(ValueError):
            verify_main_congruence(9, 2, 1, 3)
        with pytest.raises(ValueError):
            verify_main_congruence(3, 2, 1, 0)
        with pytest.raises(ValueError):
            verify_main_congruence(3, 2, 0, 3)


class TestAltHarmonicResidue:
    """The one residue pass theorem6 compares gives, at every n of a row's
    ascending tuple, the embedding of twice the exact sum up to n*p."""

    @staticmethod
    def _assert_pinned(p, ns, r, digits):
        m = p**digits
        exact = [oracles.residue(2 * oracles.alt_harmonic_sum(p, n, r), m) for n in ns]
        assert harness._alt_harmonic_residues(p, ns, r, m) == exact, (p, ns, r)

    @pytest.mark.parametrize("p", GRID_MIXED.primes)
    def test_grid_mixed_points(self, p):
        for r in GRID_MIXED.r_values:
            self._assert_pinned(p, GRID_MIXED.n_values, r, GRID_MIXED.precision)

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_every_n_of_a_tuple(self, p):
        for r in (1, 2, 3, 4):
            for ns in ((2,), (4, 8), (2, 4, 6), (2, 6, 10, 12)):
                self._assert_pinned(p, ns, r, 6)

    def test_theorem6_deep(self):
        self._assert_pinned(31, (4,), 2, 40)

    def test_theorem6_wide(self):
        self._assert_pinned(101, (200,), 4, 2)

    def test_next_span_from_n_times_p_is_an_equivalent_mutant(self):
        # starting each span after the first at j = n*p instead of n*p + 1
        # adds only a j that p divides, which the pass skips: both give the
        # same residues, so no mutant test can be written against it
        mutant = source_mutant(
            harness._alt_harmonic_residues, "start = n * p + 1", "start = n * p"
        )
        for p in (3, 5, 7):
            m = p**6
            for r in (1, 2, 3):
                ns = (2, 4, 6, 10)
                assert mutant(p, ns, r, m) == harness._alt_harmonic_residues(p, ns, r, m)


class TestOneEvaluationPerValue:
    """The grid computes each distinct l_p value and each embedded partial
    zeta value once; these counts fail if that structure regresses."""

    def test_theorem6_evaluates_each_l_value_once(self):
        # l_p(s, w^-s) for s = r + k in 2..13 (k < N = 10) at each of the 5
        # primes
        with cold_caches():
            reports = grid_mixed_reports("theorem6")
            misses = harness._diagonal_l.cache_info().misses
        assert len(reports) == 60 and all(r.match for r in reports)
        assert misses == 60

    def test_theorem6_makes_one_harmonic_pass_per_prime_and_r(self):
        # 20 rows (p, r), each one pass up to 6p over its n = 2, 4, 6: one
        # pow per unit, 4 * (6 - 1) * (3 + 5 + 7 + 11 + 13) = 816 in all,
        # where a pass per n would take 1,632
        with recorded(harness, "_alt_harmonic_residues") as passes:
            with recorded(harness, "pow") as units:
                reports = grid_mixed_reports("theorem6")
        assert len(reports) == 60 and all(r.match for r in reports)
        assert len(passes) == len(set(passes)) == 20
        assert len(units) == 816

    def test_interpolation_builds_one_context_per_prime_and_argument(self):
        # 15 rows (p, n), each carrying its t values 0..p-2 in one context
        with recorded(harness, "PadicContext") as contexts:
            reports = grid_mixed_reports("interpolation")
        assert len(reports) == 102 and all(r.match for r in reports)
        assert len(contexts) == 15

    def test_interpolation_embeds_each_partial_zeta_value_once(self):
        # z(n, a) for n in 2, 4, 6 and 0 < a < p: 3 * (2 + 4 + 6 + 10 + 12),
        # each from one integer kernel value H(n, a, p)
        with recorded(lfunctions, "_euler_form") as calls:
            reports = grid_mixed_reports("interpolation")
        assert len(reports) == 102 and all(r.match for r in reports)
        assert len(calls) == len(set(calls)) == 102

    def test_interpolation_builds_one_row_per_argument_and_prime(self):
        # l_p(-n, w^t) for every t reads the row of H_p(-n, a | p): one row
        # per n in 2, 4, 6 at each of the 5 primes serves all 102 reports
        with cold_caches():
            reports = grid_mixed_reports("interpolation")
            rows = lfunctions._l_series_row.cache_info().misses
        assert len(reports) == 102 and all(r.match for r in reports)
        assert rows == 15

    def test_grid_builds_one_row_per_argument_and_context(self):
        # distinct (s, context), one context per prime: theorem6 s = r + k
        # in 2..13 (k < N) at 10 digits (60), interpolation s = -n (15), and
        # kummer k and k + p in the same context (11 more: s = 1 at each
        # prime, 14 and 15 at p = 11, and 14..17 at p = 13)
        M = GRID_MIXED.precision
        keys = set()
        for p in GRID_MIXED.primes:
            keys |= {(r + k, p, M) for r in GRID_MIXED.r_values for k in range(1, M)}
            keys |= {(-n, p, M) for n in GRID_MIXED.n_values}
            keys |= {(s, p, M) for k in GRID_MIXED.r_values for s in (k, k + p)}
        with cold_caches():
            reports = run_grid(GRID_MIXED)
            rows = lfunctions._l_series_row.cache_info().misses
        assert len(reports) == 349 and all(r.match for r in reports)
        assert rows == len(keys) == 86

    def test_grid_wraps_no_residue_in_a_padic_number(self):
        # a cold grid-mixed run builds a PadicNumber only for omega(g), the
        # one Teichmuller lift behind each prime's one context at 10 digits;
        # no report and no l-value wraps one
        original, stacks = PadicNumber.__init__, []

        def counted(self, *args):
            stacks.append({frame.name for frame in traceback.extract_stack()})
            original(self, *args)

        with mutated(PadicNumber, "__init__", counted):
            reports = run_grid(GRID_MIXED)
        assert len(reports) == 349 and all(r.match for r in reports)
        assert [names for names in stacks if "teichmuller" not in names] == []
        assert len(stacks) == 5

    def test_grid_builds_no_character_and_one_table_per_prime(self):
        # every report and every series table reads w^t by exponent from the
        # context's Teichmuller table, and kummer reads the rows of the
        # context it is given: one series table and one Teichmuller table
        # per prime, and no DirichletCharacter
        with recorded(DirichletCharacter, "__init__") as characters:
            reports = run_grid(GRID_MIXED)
            series = lfunctions._series_table.cache_info().misses
            teichmuller = eulerlp.characters._teichmuller_table.cache_info().misses
        assert len(reports) == 349 and all(r.match for r in reports)
        assert characters == [] and series == teichmuller == 5

    @pytest.mark.parametrize("p", (3, 5, 7, 11))
    def test_series_row_polynomial_is_the_series_at_every_n(self, p):
        # one coefficient list per (p, r) read as a polynomial in n gives the
        # oracle's sum of C(-r, k) (pn)^k l_p(r+k, w^(-k-r)) over k < N, at
        # odd n too, where the congruence itself does not hold
        ns = tuple(range(1, 13))
        for r in (1, 2, 3, 4):
            for digits in range(1, 13):
                ctx = PadicContext(p, digits)
                expected = [oracles.main_congruence_series(p, digits, n, r) for n in ns]
                assert harness._series_residues(ns, r, ctx) == expected, (r, digits)

    def test_library_caches_are_the_audited_eight(self):
        # each of these paid in a measured audit of cold grid traffic (see
        # CHANGES.md); a new cache joins this set with its hits and misses
        for module in pkgutil.iter_modules(eulerlp.__path__):
            if module.name != "__main__":
                importlib.import_module(f"eulerlp.{module.name}")
        assert set(library_caches()) == {
            "eulerlp.euler.euler_number",
            "eulerlp.euler._scaled_euler_polynomial",
            "eulerlp.characters._teichmuller_table",
            "eulerlp.characters._values",
            "eulerlp.lfunctions._partial_zeta_residues",
            "eulerlp.lfunctions._series_table",
            "eulerlp.lfunctions._l_series_row",
            "eulerlp.harness._diagonal_l",
        }


class TestGridConfig:
    def test_normalizes_to_sorted_tuples(self):
        config = GridConfig(primes=(5, 3, 5), r_values=(2, 1), n_values=(4, 2), precision=3)
        assert config.primes == (3, 5)
        assert config.r_values == (1, 2)
        assert config.n_values == (2, 4)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GridConfig(primes=(4,), r_values=(1,), n_values=(2,), precision=3)
        with pytest.raises(ValueError):
            GridConfig(primes=(3,), r_values=(1,), n_values=(3,), precision=3)
        with pytest.raises(ValueError):
            GridConfig(primes=(3,), r_values=(0,), n_values=(2,), precision=3)
        with pytest.raises(ValueError):
            GridConfig(primes=(3,), r_values=(1,), n_values=(2,), precision=0)


class TestRunGrid:
    def test_empty_ranges_give_empty_list(self):
        config = GridConfig(primes=(), r_values=(), n_values=(), precision=3)
        assert run_grid(config) == []

    def test_single_point_grid(self):
        config = GridConfig(primes=(3,), r_values=(1,), n_values=(2,), precision=3)
        reports = run_grid(config)
        theorem = [r for r in reports if r.check == "theorem6"]
        assert len(theorem) == 1
        assert theorem[0].match
        # every suite is represented
        assert {r.check for r in reports} == {
            "theorem6",
            "interpolation",
            "kummer",
            "distribution",
            "powersum",
            "binomial",
        }
        assert all(r.match for r in reports)

    def test_everything_matches_on_small_grid(self):
        config = GridConfig(primes=(3, 5), r_values=(1, 2), n_values=(2, 4), precision=4)
        reports = run_grid(config)
        assert all(r.match for r in reports)
        theorem = [r for r in reports if r.check == "theorem6"]
        assert len(theorem) == 8

    def test_deterministic_and_order_independent(self):
        config = GridConfig(primes=(3,), r_values=(1, 2), n_values=(2,), precision=3)
        shuffled = GridConfig(primes=(3,), r_values=(2, 1, 2), n_values=(2,), precision=3)
        first = reports_to_jsonl(run_grid(config))
        assert reports_to_jsonl(run_grid(shuffled)) == first
        assert reports_to_jsonl(run_grid(config)) == first

    def test_runs_every_registered_check(self):
        config = GridConfig(primes=(3,), r_values=(1, 2), n_values=(2,), precision=3)
        assert {r.check for r in run_grid(config)} == set(CHECKS)

    def test_grid_rows_are_verify_options(self):
        # so that the verify command can rerun any grid row
        options = set(COMMANDS["verify"][2])
        for name, (required, _, rows) in CHECKS.items():
            for params in rows(GRID_MIXED):
                assert set(required) <= set(params) <= options, (name, params)

    def test_reports_in_canonical_parameter_order(self):
        config = GridConfig(primes=(5, 3), r_values=(2, 1), n_values=(4, 2), precision=3)
        theorem = [r for r in run_grid(config) if r.check == "theorem6"]
        keys = [(r.params["p"], r.params["r"], r.params["n"]) for r in theorem]
        assert keys == sorted(keys)


def test_interpolation_exponent_left_unreduced():
    # the values and l-value of w^-3 and w^3 agree at p = 7, but the
    # report names the character by its exponent reduced mod p - 1, as
    # the recorded verify line does; unreduced, that line changes
    argv = "verify --check interpolation --p 7 --n 5 --t -3 --precision 8"
    params = {"p": 7, "n": 5, "t": -3, "precision": 8}
    mutant = source_mutant(harness._interpolation, "t % (ctx.p - 1)", "t")

    def digest(run):
        line = reports_to_jsonl(run(params)) + "\n"
        return hashlib.sha256(line.encode()).hexdigest()

    assert digest(harness._interpolation) == RECORDED[argv]
    assert digest(mutant) != RECORDED[argv]
    assert [report.params["t"] for report in mutant(params)] == [-3]


class TestSerializationFormats:
    def test_jsonl_round_trips(self):
        config = GridConfig(primes=(3,), r_values=(1,), n_values=(2,), precision=3)
        lines = reports_to_jsonl(run_grid(config)).splitlines()
        for line in lines:
            record = json.loads(line)
            assert set(record) == {
                "check",
                "p",
                "params",
                "lhs",
                "rhs",
                "precision",
                "match",
                "lhs_valuation",
            }

    def test_csv_shape(self):
        config = GridConfig(primes=(3,), r_values=(1,), n_values=(2,), precision=3)
        reports = run_grid(config)
        text = reports_to_csv(reports)
        lines = text.splitlines()
        assert lines[0] == "check,p,params,lhs,rhs,precision,match,lhs_valuation"
        assert len(lines) == len(reports) + 1
        assert all(line.count("true") >= 1 for line in lines[1:])


class TestResidueReport:
    CTX = PadicContext(5, 4)

    def test_compares_at_the_context_precision(self):
        report = residue_report("check", {}, self.CTX, 7, 7)
        assert report.precision == 4
        assert report.match

    def test_equal_sides_share_one_wire_form(self):
        report = residue_report("check", {}, self.CTX, 7, 7 + 5**4)
        assert report.lhs is report.rhs
        assert report.to_json() == json.dumps(report.as_dict(), separators=(",", ":"))

    def test_unequal_sides_keep_their_own_digits_whatever_match_says(self):
        # every report with its match flag forced true: the sides are shared
        # on equal residues, never on the flag, so the rhs digits still show
        init = source_mutant(CongruenceReport.__init__, "rhs is lhs or rhs == lhs", "True")
        with mutated(CongruenceReport, "__init__", init):
            report = residue_report("check", {}, self.CTX, 7, 8)
        assert report.match
        assert report.lhs is not report.rhs
        assert report.lhs["digits"] == [2, 1, 0, 0] and report.rhs["digits"] == [3, 1, 0, 0]
        assert report.to_json() == json.dumps(report.as_dict(), separators=(",", ":"))
