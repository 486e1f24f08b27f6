"""Square-class search, predicted sets, verdicts, and the report harness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucassquares import (
    CLASSIFICATION_IDS,
    REPORT_IDS,
    REPORT_SUMMARIES,
    SQUAREFREE_COEFFS,
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
from lucassquares import classifier, identities
from lucassquares.sequences import IndexedPair

from _oracles import naive_search_one_term, naive_search_two_term, naive_u_seq, naive_v_seq

# The primes of the search's residue moduli: 64, 63, 65, 11, the primes
# 17 to 37 and the primes 41 to 97.
FILTER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def q(family="U", w=1, p_values=(1,), n_max=50, **kwargs):
    return SquareClassQuery(family, w, p_values, n_max, **kwargs)


def serial_pool(started):
    """A ProcessPoolExecutor stand-in that appends max_workers to `started`
    and maps in this process."""

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return SerialPool


@st.composite
def small_boxes(draw):
    """A random small search box: any family, w, P set, parity and m range."""
    family = draw(st.sampled_from(("U", "V", "UU", "VV")))
    p_values = tuple(sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=3))))
    n_max = draw(st.integers(1, 60))
    kwargs = {"n_parity": draw(st.sampled_from((None, "odd", "even")))}
    if family in ("UU", "VV"):
        kwargs["m_max"] = draw(st.integers(1, n_max))
        kwargs["m_min"] = draw(st.integers(1, kwargs["m_max"]))
    w = draw(st.sampled_from(SQUAREFREE_COEFFS))
    return q(family=family, w=w, p_values=p_values, n_max=n_max, **kwargs)


def naive_findings(query):
    """The unpruned oracle's (P, n, m, x) rows for `query`, parity applied."""
    rows = []
    for P in query.p_values:
        if query.family in ("U", "V"):
            rows += [(P, n, None, x) for _, n, x in
                     naive_search_one_term(query.family, P, query.w, query.n_max)]
        else:
            rows += naive_search_two_term(query.family, P, query.w, query.n_max,
                                          query.m_max, query.m_min)
    if query.n_parity is not None:
        rows = [row for row in rows if (row[1] % 2 == 1) == (query.n_parity == "odd")]
    return sorted(rows, key=lambda row: (row[0], row[1], row[2] or 0))


def found_rows(query):
    return [(f.P, f.n, f.m, f.x) for f in search(query)]


class TestQueryValidation:
    def test_rejects_bad_family(self):
        with pytest.raises(ValueError):
            q(family="W")

    def test_rejects_bad_w(self):
        for w in (0, -1, 4, 12):
            with pytest.raises(ValueError):
                q(w=w)

    def test_w_is_bounded_before_the_square_free_check(self):
        assert q(w=10**12 - 11).w == 10**12 - 11  # square-free, at the bound
        for w in (10**12 + 39, 10**19 + 51, 10**40 + 1):
            with pytest.raises(ValueError, match=r"^w must be at most 10\*\*12"):
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
        with pytest.raises(ValueError, match="^p_values must be"):
            q(p_values=5)

    def test_p_values_are_stored_as_a_tuple(self):
        listed, tupled = q(p_values=[1, 2]), q(p_values=(1, 2))
        assert listed.p_values == (1, 2)
        assert listed == tupled
        assert hash(listed) == hash(tupled)
        assert q(p_values=range(1, 4)) == q(p_values=(1, 2, 3))

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

    @pytest.mark.parametrize("field, value", [
        ("w", True), ("w", 2.0), ("w", "5"),
        ("n_max", True), ("n_max", 50.0),
        ("m_max", True), ("m_max", 2.5), ("m_max", "10"),
        ("m_min", True), ("m_min", 1.0)])
    def test_rejects_non_integer_fields_by_name(self, field, value):
        kwargs = {"family": "UU", "w": 2, "n_max": 50, "m_max": 20, "m_min": 2}
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be"):
            q(**kwargs)
        if field in ("w", "n_max"):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                q(**{field: value})

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

    def test_pool_is_clamped_to_the_cpu_count(self, monkeypatch):
        started = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", serial_pool(started))
        monkeypatch.setattr(classifier.os, "cpu_count", lambda: 2)
        query = q(family="U", w=1, p_values=tuple(range(1, 8)), n_max=40)
        assert search(query, jobs=5) == search(query)
        monkeypatch.setattr(classifier.os, "cpu_count", lambda: None)
        assert search(query, jobs=5) == search(query)
        assert started == [2]  # an unknown CPU count runs in-process
        monkeypatch.setattr(classifier.os, "cpu_count", lambda: 1)
        assert search(query, jobs=5) == search(query)
        monkeypatch.setattr(classifier.os, "cpu_count", lambda: 64)
        assert search(query, jobs=5) == search(query)
        assert started == [2, 5]

    @pytest.mark.parametrize("jobs", [0, -1, 1.0, True])
    def test_rejects_bad_jobs(self, jobs):
        with pytest.raises(ValueError, match="^jobs must be"):
            search(q(), jobs=jobs)

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

    @pytest.mark.parametrize("query, lost", [
        (q(family="U", w=1, p_values=(1,), n_max=20), (1, 12, None)),
        (q(family="UU", w=2, p_values=(5,), n_max=20, m_max=10, m_min=2), (5, 12, 6))])
    def test_search_sieves_by_the_residue_stream(self, monkeypatch, query, lost):
        # The sieve reads sequences.residue_range through the module, so a
        # stream that is wrong at U_12 alone hides that solution.
        import lucassquares.sequences as seqmod
        real = seqmod.residue_range

        def bumped(params, n_lo, n_hi, modulus):
            for n, (u_res, v_res) in enumerate(real(params, n_lo, n_hi, modulus), n_lo):
                yield ((u_res + 1) % modulus if n == 12 else u_res), v_res

        assert lost in [row[:3] for row in found_rows(query)]
        monkeypatch.setattr(seqmod, "residue_range", bumped)
        assert lost not in [row[:3] for row in found_rows(query)]

    @pytest.mark.parametrize("query, lost", [
        (q(family="U", w=1, p_values=(1,), n_max=20), (1, 12, None)),
        (q(family="UU", w=2, p_values=(5,), n_max=20, m_max=10, m_min=2), (5, 12, 6))])
    def test_search_decides_on_the_exact_stream(self, monkeypatch, query, lost):
        # The exact values come from sequences.seq_range, read through the
        # module, so a stream that is wrong at U_12 alone loses that solution
        # although its residues still pass the sieve.
        import lucassquares.sequences as seqmod
        real = seqmod.seq_range

        def bumped(params, n_lo, n_hi):
            for pair in real(params, n_lo, n_hi):
                yield IndexedPair(pair.n, pair.u + 1, pair.v) if pair.n == 12 else pair

        assert lost in [row[:3] for row in found_rows(query)]
        monkeypatch.setattr(seqmod, "seq_range", bumped)
        assert lost not in [row[:3] for row in found_rows(query)]

    @pytest.mark.parametrize("query", [
        q(family="U", w=1, p_values=tuple(range(1, 13)), n_max=60),
        q(family="U", w=2, p_values=tuple(range(1, 13)), n_max=60, n_parity="even"),
        q(family="V", w=5, p_values=tuple(range(1, 13)), n_max=60, n_parity="odd"),
        q(family="UU", w=2, p_values=tuple(range(1, 11)), n_max=40, m_max=20),
        q(family="VV", w=1, p_values=tuple(range(1, 11)), n_max=40, m_max=20),
        q(family="VV", w=3, p_values=(1, 2, 3), n_max=40, m_max=20, m_min=2,
          n_parity="odd")])
    def test_cells_read_exact_terms_only_up_to_the_last_one_needed(self, monkeypatch, query):
        # Each cell opens one exact stream and reads it only as far as the
        # largest index its exact tests need: an n whose product passes the
        # sieve, or for two-term families an m whose residue is 1 or 2 (X_m
        # may be the unit or the 2 that the divisibility laws set apart).
        # A two-term candidate is an n with X_m | X_n, for X_m != 1.
        import lucassquares.sequences as seqmod
        real, reads = seqmod.seq_range, []

        def counted(params, n_lo, n_hi):
            # Not a generator itself, so a stream never read is still counted.
            cell = [params.P, 0]
            reads.append(cell)

            def stream():
                for pair in real(params, n_lo, n_hi):
                    cell[1] += 1
                    yield pair
            return stream()

        monkeypatch.setattr(seqmod, "seq_range", counted)
        assert found_rows(query) == naive_findings(query)
        modulus, passes = classifier.arith._SIEVE_MODULUS, classifier.arith._product_may_be_square
        seq = naive_u_seq if query.family in ("U", "UU") else naive_v_seq
        want = []
        for P in query.p_values:
            xs = seq(P, 1, query.n_max + 1)
            ns = [n for n in range(1, query.n_max + 1)
                  if query.n_parity is None or (n % 2 == 1) == (query.n_parity == "odd")]
            if query.m_max is None:
                needed = [n for n in ns if passes(xs[n] % modulus, query.w)]
            else:
                ms = range(query.m_min, query.m_max + 1)
                needed = [m for m in ms if xs[m] % modulus in (1, 2)]
                needed += [n for m in ms if xs[m] != 1 for n in ns
                           if n != m and xs[n] % xs[m] == 0
                           and passes(xs[n] % modulus, query.w * xs[m] % modulus)]
            want.append([P, max(needed, default=0)])
        assert reads == want
        assert min(count for _, count in reads) < query.n_max // 2

    def test_solutions_above_the_sieve_modulus(self):
        # Solutions far above the sieve's modulus (< 2**128), so the sieve
        # reads reduced residues and not the values themselves:
        # U_2 = V_1 = P = w * x**2; U_4 = 3 * U_2 * x**2 when P**2 + 2 = 3 * x**2
        # (since U_4 = U_2 * V_2); V_3 = 3 * V_1 * x**2 when P = 3k with
        # x**2 - 3k**2 = 1 (since V_3 = V_1 * (P**2 + 3)).
        big, x = 2**140, 2**64 + 13
        pell_m2, pell_p1 = (1, 1), (2, 1)  # P**2 - 3x**2 = -2 and x**2 - 3k**2 = 1
        while pell_m2[0] ** 2 < big:
            pell_m2 = (2 * pell_m2[0] + 3 * pell_m2[1], pell_m2[0] + 2 * pell_m2[1])
        while pell_p1[1] ** 2 < big:
            pell_p1 = (2 * pell_p1[0] + 3 * pell_p1[1], pell_p1[0] + 2 * pell_p1[1])
        queries = [q(family=family, w=w, p_values=(w * x * x,), n_max=6)
                   for family in ("U", "V") for w in SQUAREFREE_COEFFS]
        queries += [q(family="UU", w=3, p_values=(pell_m2[0],), n_max=8, m_max=4),
                    q(family="VV", w=3, p_values=(3 * pell_p1[1],), n_max=9, m_max=3)]
        for query in queries:
            rows = found_rows(query)
            assert rows and rows == naive_findings(query), query
            seq = naive_u_seq if query.family in ("U", "UU") else naive_v_seq
            assert any(seq(P, 1, n + 1)[n] > classifier.arith._SIEVE_MODULUS
                       for P, n, _, _ in rows)
        assert (pell_m2[0], 4, 2, pell_m2[1]) in found_rows(queries[-2])
        assert (3 * pell_p1[1], 3, 1, pell_p1[0]) in found_rows(queries[-1])

    @pytest.mark.parametrize("family", ("U", "V"))
    def test_one_term_matches_naive_through_the_residue_filter(self, family):
        # Each prime of the sieve modulus divides some X_n in this box, so
        # X_n * w is no unit mod each modulus somewhere, and every w has
        # solutions (U_2 = V_1 = P, P = w * x**2) that must pass the sieve.
        p_values, n_max = tuple(range(1, 25)), 60
        seq = naive_u_seq if family == "U" else naive_v_seq
        divisors = {p for P in p_values for value in seq(P, 1, n_max + 1)[1:]
                    for p in FILTER_PRIMES if value % p == 0}
        assert divisors == set(FILTER_PRIMES)
        rows = []
        for w in SQUAREFREE_COEFFS:
            want = [(P, n, x) for P in p_values
                    for _, n, x in naive_search_one_term(family, P, w, n_max)]
            assert want, w
            for parity in (None, "odd", "even"):
                found = search(q(family=family, w=w, p_values=p_values, n_max=n_max,
                                 n_parity=parity))
                assert [(f.P, f.n, f.x) for f in found] == [
                    row for row in want
                    if parity is None or (row[1] % 2 == 1) == (parity == "odd")], (w, parity)
            rows += want
        assert {n % 2 for _, n, _ in rows} == {0, 1}
        assert len(rows) == {"U": 53, "V": 27}[family]

    @pytest.mark.parametrize("family", ("UU", "VV"))
    def test_two_term_matches_naive_through_the_residue_filter(self, family):
        # In this box each prime of the residue moduli divides some X_m, so
        # w * X_m is no unit mod each modulus somewhere, and solutions such
        # as U_12 = 2 * U_6 * 99**2 at P = 5 (U_6 = 2**4 * 3 * 5 * 11) and
        # V_6 = 6 * V_2 * 11**2 at P = 5 must pass the filter.
        p_values, n_max, m_max = tuple(range(1, 25)), 60, 40
        seq = naive_u_seq if family == "UU" else naive_v_seq
        divisors = {p for P in p_values for value in seq(P, 1, m_max + 1)[1:]
                    if value != 1 for p in FILTER_PRIMES if value % p == 0}
        assert divisors == set(FILTER_PRIMES)
        rows = []
        for w in SQUAREFREE_COEFFS:
            found = search(q(family=family, w=w, p_values=p_values, n_max=n_max,
                             m_max=m_max))
            want = [(P, n, m, w, x) for P in p_values
                    for _, n, m, x in naive_search_two_term(family, P, w, n_max, m_max)]
            assert [(f.P, f.n, f.m, f.w, f.x) for f in found] == want
            rows += want
        assert {"UU": (5, 12, 6, 2, 99), "VV": (5, 6, 2, 6, 11)}[family] in rows
        assert len(rows) == {"UU": 13, "VV": 5}[family]

    @settings(max_examples=150, deadline=None)
    @given(small_boxes(), st.sampled_from((1, 2)))
    def test_search_matches_unpruned_naive(self, query, jobs):
        # jobs=2 runs the pool path with an in-process stand-in pool.
        started = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("concurrent.futures.ProcessPoolExecutor", serial_pool(started))
            mp.setattr(classifier.os, "cpu_count", lambda: 2)
            found = search(query, jobs=jobs)
        assert started == ([2] if jobs == 2 and len(query.p_values) > 1 else [])
        assert [(f.P, f.n, f.m, f.x) for f in found] == naive_findings(query)
        assert all((f.family, f.w) == (query.family, query.w) for f in found)

    def test_divisibility_sweep_guards_the_search_rule(self, monkeypatch):
        # The search prunes by identities.divisor_indices and the sweep
        # checks it: stepping V by 4m hides V_2 | V_6 from both, so the
        # sweep must fail while the search loses V_6 = 6 * V_2 * 11**2 at P = 5.
        query = q(family="VV", w=6, p_values=(5,), n_max=12, m_max=6)
        want = [(5, n, m, 6, x) for _, n, m, x in naive_search_two_term("VV", 5, 6, 12, 6)]

        def rows():
            return [(f.P, f.n, f.m, f.w, f.x) for f in search(query)]

        assert (5, 6, 2, 6, 11) in want
        assert rows() == want
        assert classifier.sweep_divisibility_laws(p_max=5, idx_max=12).verdict == "consistent"
        monkeypatch.setattr(identities, "divisor_indices",
                            lambda m, n_max, v_law: range(m, n_max + 1, 4 * m if v_law else m))
        assert (5, 6, 2, 6, 11) not in rows()
        report = classifier.sweep_divisibility_laws(p_max=5, idx_max=12)
        assert report.verdict == "counterexample"
        assert {outcome.check_id for outcome in report.found} == {"v-divides-v"}

    @pytest.mark.parametrize("sweep, kwargs, grid", [
        ("product_identities", {"p_max": -1}, "P <= -1, |n| <= 6"),
        ("shift_congruences", {"p_max": 0, "idx_max": 2},
         "P <= 0, 0 < |m|,|n| <= 2, |r| <= 2, spot checks at |n| = 1000000"),
        ("divisibility_laws", {"p_max": 3, "idx_max": 0}, "P <= 3, m, n <= 0"),
        ("residue_classes",
         {"p_max": 0, "idx_max": 0, "obstruction_max": 0, "pow2_max": 0},
         "P <= 0, indices <= 0, k <= 0, obstruction moduli <= 0"),
    ])
    def test_a_sweep_over_an_empty_grid_is_refused(self, sweep, kwargs, grid):
        report_id = sweep.replace("_", "-")
        with pytest.raises(ValueError) as info:
            getattr(classifier, f"sweep_{sweep}")(**kwargs)
        assert str(info.value) == f"{report_id}: the grid {grid} holds no checks"

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
        with pytest.raises(ValueError, match="^multiple_of must be an integer"):
            p_range(10, multiple_of=2.5)
        with pytest.raises(ValueError, match="^p_max must be an integer"):
            p_range(2.5)


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

    def test_even_n_findings_at_odd_n_only_p_are_dropped(self, monkeypatch):
        # u-5um-square covers P = 8 (0 mod 4, P**2 = -1 mod 5) for odd n only.
        planted = [SquareClassFinding("UU", 8, n, 2, 5, 1) for n in (7, 10)]

        def fake_search(query, jobs=1):
            return [f for f in planted if f.P in query.p_values
                    and classifier._parity_ok(f.n, query.n_parity)]

        monkeypatch.setattr(classifier, "search", fake_search)
        report = verify_theorem("u-5um-square",
                                q(family="UU", w=5, p_values=(7, 8), n_max=60, m_max=30))
        assert report.verdict == "counterexample"
        assert report.found == (planted[0],)
        assert report.notes.endswith(
            "; P values [8] (P = 0 mod 4, P**2 = -1 mod 5) searched for odd n only; "
            "even n is uncovered there; "
            "unexpected findings: (P=8, n=7, m=2, w=5, x=1)")

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
        tiny = Profile(p_max=3, n_max=12, sweep_idx=2, obstruction_max=9, pow2_max=3,
                       pell_z_max=2, pell_v_bound=100, form_bound=100,
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

    @pytest.mark.parametrize("edge", (36, -36))
    def test_grid_reads_the_last_index_on_each_side(self, monkeypatch, edge):
        # idx_max = 4 reads U and V up to |2mn + r| = 2*4*4 + 4 = 36.
        import lucassquares.sequences as seqmod
        real = seqmod.seq_range

        def bumped(params, n_lo, n_hi):
            for pair in real(params, n_lo, n_hi):
                if params.P == 3 and pair.n == edge:
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
