"""Square-class search, predicted sets, verdicts, and the report harness."""

import pytest

from lucassquares import (
    CLASSIFICATION_IDS,
    REPORT_IDS,
    REPORT_SUMMARIES,
    SWEEP_IDS,
    OutOfScopeError,
    Profile,
    SquareClassFinding,
    SquareClassQuery,
    default_query,
    p_range,
    predicted_set,
    search,
    verify_all,
    verify_report,
    verify_theorem,
)
from lucassquares import classifier
from lucassquares.sequences import IndexedPair

from _oracles import naive_search_one_term, naive_search_two_term


def q(family="U", w=1, p_values=(1,), n_max=50, **kwargs):
    return SquareClassQuery(family, w, p_values, n_max, **kwargs)


class TestQueryValidation:
    def test_rejects_bad_family(self):
        with pytest.raises(ValueError):
            q(family="W")

    def test_rejects_bad_w(self):
        for w in (0, -1, 4, 12):
            with pytest.raises(ValueError):
                q(w=w)

    def test_rejects_bad_p_values(self):
        with pytest.raises(ValueError):
            q(p_values=())
        with pytest.raises(ValueError):
            q(p_values=(3, 2))
        with pytest.raises(ValueError):
            q(p_values=(2, 2))
        with pytest.raises(ValueError):
            q(p_values=(0, 1))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            q(n_max=0)
        with pytest.raises(ValueError):
            q(family="UU", n_max=50)  # missing m_max
        with pytest.raises(ValueError):
            q(family="UU", n_max=50, m_max=60)  # m_max > n_max
        with pytest.raises(ValueError):
            q(family="UU", n_max=50, m_max=10, m_min=11)
        with pytest.raises(ValueError):
            q(family="V", m_max=10)  # one-term takes no m_max
        with pytest.raises(ValueError):
            q(family="V", m_min=2)

    def test_rejects_bad_parity(self):
        with pytest.raises(ValueError):
            q(n_parity="prime")

    def test_finding_validation(self):
        with pytest.raises(ValueError):
            SquareClassFinding("U", 1, 5, 3, 1, 1)  # m on a one-term family
        with pytest.raises(ValueError):
            SquareClassFinding("UU", 1, 12, None, 2, 6)  # missing m
        with pytest.raises(ValueError):
            SquareClassFinding("U", 1, 1, None, 1, 0)  # x must be >= 1


class TestSearch:
    def test_v_5square_example(self):
        findings = search(q(family="V", w=5, p_values=(5,), n_max=300))
        assert findings == [SquareClassFinding("V", 5, 1, None, 5, 1)]

    def test_fibonacci_5square(self):
        findings = search(q(family="U", w=5, p_values=(1,), n_max=500))
        assert findings == [SquareClassFinding("U", 1, 5, None, 5, 1)]

    def test_two_term_example(self):
        findings = search(q(family="UU", w=2, p_values=(5,), n_max=60,
                            m_max=30, m_min=2))
        assert findings == [SquareClassFinding("UU", 5, 12, 6, 2, 99)]

    def test_unit_divisors_are_skipped_but_solutions_remain(self):
        findings = search(q(family="UU", w=2, p_values=(1,), n_max=12, m_max=12))
        assert findings == [SquareClassFinding("UU", 1, 12, 3, 2, 6),
                            SquareClassFinding("UU", 1, 12, 6, 2, 3)]

    def test_parity_filter(self):
        base = q(family="V", w=5, p_values=(5,), n_max=300)
        odd = q(family="V", w=5, p_values=(5,), n_max=300, n_parity="odd")
        even = q(family="V", w=5, p_values=(5,), n_max=300, n_parity="even")
        assert search(odd) == search(base)
        assert search(even) == []

    def test_results_sorted_and_job_invariant(self):
        query = q(family="U", w=1, p_values=tuple(range(1, 30)), n_max=120)
        sequential = search(query, jobs=1)
        parallel = search(query, jobs=4)
        assert sequential == parallel
        keys = [(f.P, f.n) for f in sequential]
        assert keys == sorted(keys)

    def test_box_monotonicity(self):
        small = set(search(q(family="V", w=1, p_values=(1, 3, 5), n_max=60)))
        large = set(search(q(family="V", w=1, p_values=(1, 3, 5), n_max=120)))
        assert small <= large

    @pytest.mark.parametrize("family,w", [("U", 1), ("U", 2), ("U", 3),
                                          ("U", 5), ("U", 6), ("U", 10),
                                          ("V", 1), ("V", 2), ("V", 5)])
    def test_one_term_matches_unpruned_naive(self, family, w):
        for p in range(1, 11):
            got = search(q(family=family, w=w, p_values=(p,), n_max=50))
            want = naive_search_one_term(family, p, w, 50)
            assert [(f.P, f.n, f.x) for f in got] == want

    @pytest.mark.parametrize("family,w", [("UU", 1), ("UU", 2), ("UU", 5),
                                          ("VV", 1), ("VV", 2), ("VV", 5)])
    def test_two_term_matches_unpruned_naive(self, family, w):
        for p in range(1, 11):
            got = search(q(family=family, w=w, p_values=(p,), n_max=50, m_max=25))
            want = naive_search_two_term(family, p, w, 50, 25)
            assert sorted((f.P, f.n, f.m, f.x) for f in got) == want

    def test_p_range_helper(self):
        assert p_range(5) == (1, 2, 3, 4, 5)
        assert p_range(9, parity="odd") == (1, 3, 5, 7, 9)
        assert p_range(10, parity="even") == (2, 4, 6, 8, 10)
        assert p_range(20, multiple_of=5) == (5, 10, 15, 20)
        assert p_range(20, parity="odd", multiple_of=5) == (5, 15)

    def test_p_range_rejects_bad_filters(self):
        with pytest.raises(ValueError, match="parity"):
            p_range(10, parity="od")
        with pytest.raises(ValueError, match="multiple_of"):
            p_range(10, multiple_of=0)


class TestPredictedSets:
    def test_v_5square_sharpened(self):
        got = predicted_set("v-5square", q(family="V", w=5, p_values=(45,),
                                           n_max=300))
        assert got == [SquareClassFinding("V", 45, 1, None, 5, 3)]
        got = predicted_set("v-5square", q(family="V", w=5, p_values=(15, 35),
                                           n_max=300))
        assert got == []

    def test_v_square_square_p(self):
        got = predicted_set("v-square", q(family="V", w=1, p_values=(1, 3, 9, 25),
                                          n_max=100))
        assert [(f.P, f.n, f.x) for f in got] == [
            (1, 1, 1), (1, 3, 2), (3, 3, 6), (9, 1, 3), (25, 1, 5)]

    def test_u_wsquare_includes_pell_family(self):
        got = predicted_set("u-wsquare", q(family="U", w=2, p_values=(7, 41),
                                           n_max=10))
        assert [(f.P, f.n, f.x) for f in got] == [(7, 3, 5), (41, 3, 29)]

    def test_empty_families(self):
        assert predicted_set("v-vm-square",
                             q(family="VV", w=1, p_values=(1, 3), n_max=40,
                               m_max=20)) == []
        assert predicted_set("v-5vm-square",
                             q(family="VV", w=5, p_values=(2, 3, 4), n_max=40,
                               m_max=20)) == []

    def test_wrong_family_or_w_is_out_of_scope(self):
        with pytest.raises(OutOfScopeError):
            predicted_set("v-square", q(family="U", w=1, p_values=(1,), n_max=10))
        with pytest.raises(OutOfScopeError):
            predicted_set("v-square", q(family="V", w=3, p_values=(1,), n_max=10))

    def test_even_p_gates(self):
        with pytest.raises(OutOfScopeError):
            predicted_set("v-square", q(family="V", w=1, p_values=(2,), n_max=10))
        with pytest.raises(OutOfScopeError):
            predicted_set("u-5square", q(family="U", w=5, p_values=(10,), n_max=10))
        with pytest.raises(OutOfScopeError):
            predicted_set("u-5square", q(family="U", w=5, p_values=(22,), n_max=10))
        # Even P with P**2 = 1 (mod 5) stays in scope.
        assert predicted_set("u-5square",
                             q(family="U", w=5, p_values=(4,), n_max=10)) == []

    def test_u_5um_gates(self):
        box = dict(family="UU", w=5, n_max=40, m_max=20)
        with pytest.raises(OutOfScopeError):
            predicted_set("u-5um-square", q(p_values=(2,), **box))
        with pytest.raises(OutOfScopeError):
            predicted_set("u-5um-square", q(p_values=(18,), **box))
        with pytest.raises(OutOfScopeError):
            predicted_set("u-5um-square", q(p_values=(8,), **box))
        assert predicted_set("u-5um-square",
                             q(p_values=(8,), n_parity="odd", **box)) == []
        assert predicted_set("u-5um-square", q(p_values=(3, 4, 5), **box)) == []

    def test_fib_lucas_requires_p1(self):
        with pytest.raises(OutOfScopeError):
            predicted_set("fib-lucas-squares",
                          q(family="U", w=1, p_values=(1, 2), n_max=100))

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            predicted_set("u-cubes", q())


class TestVerifyTheorem:
    def test_consistent_report(self):
        report = verify_theorem("v-2square", default_query("v-2square", "quick"))
        assert report.verdict == "consistent"
        assert [(f.P, f.n, f.x) for f in report.predicted] == [(1, 6, 3), (5, 6, 99)]
        assert report.found == report.predicted

    def test_out_of_scope_report(self):
        report = verify_theorem("u-5square",
                                q(family="U", w=5, p_values=(10,), n_max=50))
        assert report.verdict == "out_of_predicted_scope"
        assert "P = 10" in report.notes
        assert report.found == () and report.predicted == ()

    def test_u_5um_split_search(self):
        report = verify_theorem("u-5um-square",
                                q(family="UU", w=5, p_values=(8,), n_max=60,
                                  m_max=30))
        assert report.verdict == "consistent"
        assert "odd n only" in report.notes
        report = verify_theorem("u-5um-square",
                                q(family="UU", w=5, p_values=(18,), n_max=60,
                                  m_max=30))
        assert report.verdict == "out_of_predicted_scope"

    def test_multiplexed_u_wsquare(self):
        report = verify_theorem("u-wsquare", default_query("u-wsquare", "quick"))
        assert report.verdict == "consistent"
        found = {(f.P, f.n, f.w, f.x) for f in report.found}
        assert (7, 3, 2, 5) in found       # 50 = 2 * 5**2
        assert (24, 4, 3, 68) in found     # U_4(24) = 13872 = 3 * 68**2
        assert (2, 7, 1, 13) in found      # U_7(2) = 169

    def test_multiplexed_fib_lucas(self):
        report = verify_theorem("fib-lucas-squares",
                                default_query("fib-lucas-squares", "quick"))
        assert report.verdict == "consistent"
        found = {(f.family, f.n, f.w, f.x) for f in report.found}
        assert ("U", 12, 1, 12) in found
        assert ("V", 3, 1, 2) in found
        assert ("V", 6, 2, 3) in found
        assert len(report.found) == 9

    def test_even_p_findings_flagged_not_counted(self, monkeypatch):
        phantom = SquareClassFinding("U", 4, 7, None, 5, 3)
        monkeypatch.setattr(classifier, "search", lambda query, jobs=1: [phantom])
        report = verify_theorem("u-5square",
                                q(family="U", w=5, p_values=(4,), n_max=50))
        assert report.verdict == "consistent"
        assert "even P" in report.notes and "P=4, n=7" in report.notes

    def test_odd_p_extra_finding_is_counterexample(self, monkeypatch):
        phantom = SquareClassFinding("U", 3, 7, None, 5, 2)
        monkeypatch.setattr(classifier, "search", lambda query, jobs=1: [phantom])
        report = verify_theorem("u-5square",
                                q(family="U", w=5, p_values=(3,), n_max=50))
        assert report.verdict == "counterexample"
        assert "unexpected" in report.notes

    def test_missing_predicted_is_counterexample(self, monkeypatch):
        monkeypatch.setattr(classifier, "search", lambda query, jobs=1: [])
        report = verify_theorem("v-2square",
                                q(family="V", w=2, p_values=(1, 5), n_max=50))
        assert report.verdict == "counterexample"
        assert "missing predicted" in report.notes


@pytest.fixture(scope="module")
def quick_reports():
    return verify_all("quick")


class TestHarness:
    def test_seventeen_reports_in_canonical_order(self, quick_reports):
        assert [r.theorem_id for r in quick_reports] == list(REPORT_IDS)
        assert len(quick_reports) == 17
        assert len(CLASSIFICATION_IDS) == 11 and len(SWEEP_IDS) == 6

    def test_all_consistent(self, quick_reports):
        for report in quick_reports:
            assert report.verdict == "consistent", report

    def test_sweeps_record_check_counts(self, quick_reports):
        by_id = {r.theorem_id: r for r in quick_reports}
        for sweep_id in SWEEP_IDS:
            report = by_id[sweep_id]
            assert report.query is None
            assert report.found == ()
            assert "0 failed" in report.notes

    def test_every_report_has_a_summary(self):
        assert set(REPORT_SUMMARIES) == set(REPORT_IDS)

    def test_default_query_scope_filters(self):
        query = default_query("u-5square", "quick")
        assert 4 in query.p_values and 6 in query.p_values
        assert 2 not in query.p_values and 10 not in query.p_values
        query = default_query("u-5um-square", "quick")
        assert 8 in query.p_values and 4 in query.p_values
        assert 2 not in query.p_values and 18 not in query.p_values
        assert 10 not in query.p_values and 20 not in query.p_values
        assert query.m_min == 2

    def test_verify_report_dispatch(self):
        report = verify_report("quartic-equations", "quick")
        assert report.theorem_id == "quartic-equations"
        assert report.verdict == "consistent"
        with pytest.raises(ValueError):
            verify_report("unknown-report", "quick")
        with pytest.raises(ValueError):
            verify_all("toothorough")

    def test_verify_all_calls_through_module_attributes(self, monkeypatch):
        # The bench tracer and the fault-injection tests wrap these names.
        names = ("verify_theorem", "sweep_shift_congruences", "sweep_product_identities",
                 "sweep_divisibility_laws", "sweep_residue_classes",
                 "sweep_pell_form_families", "sweep_quartic_equations")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counting(*args, _name=name, _real=getattr(classifier, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(classifier, name, counting)
        tiny = Profile(p_max=3, n_max=12, m_max=6, sweep_p_max=2, sweep_idx=2,
                       large_n=0, obstruction_max=9, pow2_max=3, pell_z_max=2,
                       pell_v_bound=100, form_y_bound=100, pell3_c_bound=100,
                       quartic_x_bound=10)
        reports = verify_all(tiny)
        assert [r.theorem_id for r in reports] == list(REPORT_IDS)
        assert calls == {"verify_theorem": 11, **dict.fromkeys(names[1:], 1)}

    def test_fault_injection_trips_sweeps(self, monkeypatch):
        import lucassquares.sequences as seqmod
        real_u = seqmod.u

        def crooked_u(params, n):
            value = real_u(params, n)
            if params.P == 3 and n == 9:
                return value + 2
            return value

        monkeypatch.setattr(seqmod, "u", crooked_u)
        report = classifier.sweep_product_identities(p_max=5, idx_max=10)
        assert report.verdict == "counterexample"
        assert any(not outcome.passed for outcome in report.found)


class TestShiftSweepPaths:
    def test_grid_reads_seq_range(self, monkeypatch):
        import lucassquares.sequences as seqmod
        real = seqmod.seq_range

        def bumped(params, n_lo, n_hi):
            for pair in real(params, n_lo, n_hi):
                if params.P == 3 and pair.n == 17:
                    pair = IndexedPair(pair.n, pair.u + 1, pair.v)
                yield pair

        monkeypatch.setattr(seqmod, "seq_range", bumped)
        report = classifier.sweep_shift_congruences(p_max=3, idx_max=4, large_n=None)
        assert report.verdict == "counterexample"
        assert {outcome.inputs[0] for outcome in report.found} == {3}

    def test_spot_checks_use_modular_doubling(self, monkeypatch):
        import lucassquares.sequences as seqmod
        real = seqmod.u_mod

        def bumped(params, n, modulus):
            value = real(params, n, modulus)
            return (value + 1) % modulus if n >= 10**6 else value

        monkeypatch.setattr(seqmod, "u_mod", bumped)
        report = classifier.sweep_shift_congruences(p_max=2, idx_max=2, large_n=10**6)
        assert report.verdict == "counterexample"
        assert {abs(outcome.inputs[3]) for outcome in report.found} == {10**6}
