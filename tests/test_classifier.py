"""Square-class search, predicted sets, verdicts, and the report harness."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lucassquares import (
    CLASSIFICATION_IDS,
    REPORT_IDS,
    REPORT_SUMMARIES,
    SQUAREFREE_COEFFS,
    SWEEP_IDS,
    Profile,
    SquareClassFinding,
    SquareClassQuery,
    default_query,
    p_range,
    search,
    verify_all,
    verify_report,
    verify_theorem,
)
from lucassquares import classifier, identities, sequences
from lucassquares.sequences import IndexedPair, SequenceParams

from _oracles import (
    SIEVE_MODULI,
    naive_search_one_term,
    naive_search_two_term,
    naive_sieve_passes,
    naive_u_seq,
    naive_v_seq,
)

# A square-free w divisible by every prime up to 31, so w * X_m is 0 mod
# 11, 17, ..., 31 and no unit mod 64, 63 and 65.
WIDE_W = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31

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


@st.composite
def two_term_boxes(draw):
    """A two-term box whose m range may lie below, above or across
    sqrt(n_max), where the search turns from one sieve per m to one per
    multiplier n / m."""
    family = draw(st.sampled_from(("UU", "VV")))
    p_values = tuple(sorted(draw(st.sets(st.integers(1, 30), min_size=1, max_size=3))))
    n_max = draw(st.integers(1, 90))
    m_min, m_max = sorted(draw(st.lists(st.integers(1, n_max), min_size=2, max_size=2)))
    parity = draw(st.sampled_from((None, "odd", "even")))
    w = draw(st.sampled_from(SQUAREFREE_COEFFS + (WIDE_W,)))
    return q(family=family, w=w, p_values=p_values, n_max=n_max, m_max=m_max,
             m_min=m_min, n_parity=parity)


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


def divisions_reached(mp, query):
    """Search `query` and list the (P, m, n) of each exact division of a term.

    The terms read from `seq_range` or from `pair_at` carry their (P, n), so
    a one-term X_n divided by w in `square_witness` records (P, None, n) and
    a two-term X_n divided by X_m records (P, m, n), whatever shape the
    sieve before them takes and whichever reader gives the exact terms.  The
    findings must still be the unpruned oracle's.
    """
    import lucassquares.sequences as seqmod
    real_range, real_at, reached = seqmod.seq_range, seqmod.pair_at, []

    class Term(int):
        def __divmod__(self, other):
            reached.append((self.P, getattr(other, "n", None), self.n))
            return int.__divmod__(self, other)

    def tag(P, pair):
        u, v = Term(pair.u), Term(pair.v)
        u.P = v.P = P
        u.n = v.n = pair.n
        return IndexedPair(pair.n, u, v)

    def tagged_range(params, n_lo, n_hi):
        for pair in real_range(params, n_lo, n_hi):
            yield tag(params.P, pair)

    mp.setattr(seqmod, "seq_range", tagged_range)
    mp.setattr(seqmod, "pair_at", lambda params, n: tag(params.P, real_at(params, n)))
    assert found_rows(query) == naive_findings(query)
    return sorted(reached, key=str)


def allowed_pairs(query, P):
    """The (m, n) the divisibility laws leave in a two-term box at P, with
    X_m, X_n and the box's parity: n > m, X_m != 1 and X_m | X_n."""
    xs = (naive_u_seq if query.family == "UU" else naive_v_seq)(P, 1, query.n_max + 1)
    return xs, [(m, n) for m in range(query.m_min, query.m_max + 1) if xs[m] != 1
                for n in range(m + 1, query.n_max + 1)
                if xs[n] % xs[m] == 0 and (query.n_parity is None
                                           or (n % 2 == 1) == (query.n_parity == "odd"))]


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

    def test_the_closed_forms_place_the_unit_and_the_2(self):
        # The two-term search reads no X_m to find the unit divisors and the
        # V_1 = 2 at P = 2 that the divisibility laws set apart: it takes
        # them from U_1 = 1 and U_2 = V_1 = P.  Over exact values, U_m = 1
        # only at m = 1 and at m = 2 when P = 1, and V_m <= 2 only at m = 1
        # with P <= 2.
        for P in range(1, 301):
            us, vs = naive_u_seq(P, 1, 61), naive_v_seq(P, 1, 61)
            assert [m for m in range(1, 61) if us[m] == 1] == ([1, 2] if P == 1 else [1])
            assert [m for m in range(1, 61) if vs[m] <= 2] == ([1] if P <= 2 else [])

    def test_a_large_two_term_cell_holds_no_prefix_of_the_sequence(self):
        # Pairs pass the sieve up to n near 20,000 here, while the one
        # finding is at n = 12.  The cell evaluates X_m and X_n at those
        # pairs alone, so its peak is the lanes, tiled from the residue
        # periods, about 1.0 MiB, not every exact term up to its last
        # survivor (42 MiB).
        # The warm-up fills the cached residue periods and character tables.
        import tracemalloc
        search(q(family="UU", w=2, p_values=(5,), n_max=60, m_max=30))
        tracemalloc.start()
        try:
            found = search(q(family="UU", w=2, p_values=(5,), n_max=20000, m_max=10000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == [SquareClassFinding("UU", 5, 12, 6, 2, 99)]
        assert peak < 8 * 2**20

    def test_a_one_term_cell_holds_no_term_it_has_passed(self, monkeypatch):
        # The one survivor of this box is n = 6,144, so the cell reads its
        # stream that far; it keeps only the term under test, not the
        # 6,143 terms before it (about 13.5 MiB).  The warm-up, which also
        # fills the cached residue periods and tables, pins that survivor.
        import tracemalloc
        from lucassquares.sequences import SequenceParams, pair_at
        query = q(family="U", w=2, p_values=(46,), n_max=6200)
        real, tested = classifier.arith.square_witness, []

        def recorded(value, w):
            tested.append(value)
            return real(value, w)

        monkeypatch.setattr(classifier.arith, "square_witness", recorded)
        assert search(query) == []
        assert tested == [pair_at(SequenceParams(46, 1), 6144).u]
        monkeypatch.undo()
        tracemalloc.start()
        try:
            found = search(query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == []
        assert peak < 2**20

    def test_two_term_cells_build_no_sieve_table(self):
        # Two-term cells test pairs by character bytes and by the squares
        # mod 64, 63 and 65; the per-class tables serve one-term cells only.
        classifier.arith._sieve_table.cache_clear()
        for family in ("UU", "VV"):
            query = q(family=family, w=2, p_values=tuple(range(1, 13)), n_max=60, m_max=30)
            assert found_rows(query) == naive_findings(query)
        assert classifier.arith._sieve_table.cache_info().currsize == 0

    @pytest.mark.parametrize("query, lost", [
        (q(family="U", w=1, p_values=(1,), n_max=20), (1, 12, None)),
        (q(family="UU", w=2, p_values=(5,), n_max=20, m_max=10, m_min=2), (5, 12, 6))])
    def test_search_sieves_by_the_residue_stream(self, monkeypatch, query, lost):
        # The sieve reads sequences.residue_period through the module, so
        # periods that are wrong at U_12 (and so at every n = 12 mod their
        # length) hide that solution.
        import lucassquares.sequences as seqmod
        real = seqmod.residue_period

        def bumped(params, modulus, sequence):
            period = bytearray(real(params, modulus, sequence))
            if sequence == "U":
                at = 12 % len(period)
                period[at] = (period[at] + 1) % modulus
            return bytes(period)

        assert lost in [row[:3] for row in found_rows(query)]
        monkeypatch.setattr(seqmod, "residue_period", bumped)
        assert lost not in [row[:3] for row in found_rows(query)]

    @pytest.mark.parametrize("query, lost", [
        (q(family="U", w=1, p_values=(1,), n_max=20), (1, 12, None)),
        (q(family="UU", w=2, p_values=(5,), n_max=20, m_max=10, m_min=2), (5, 12, 6))])
    def test_search_decides_on_the_exact_stream(self, monkeypatch, query, lost):
        # The exact values come from sequences.seq_range in a one-term cell
        # and from sequences.pair_at at a two-term cell's survivors, read
        # through the module, so a reader that is wrong at U_12 alone loses
        # that solution although its residues still pass the sieve.
        import lucassquares.sequences as seqmod
        real_range, real_at = seqmod.seq_range, seqmod.pair_at

        def bumped_range(params, n_lo, n_hi):
            for pair in real_range(params, n_lo, n_hi):
                yield IndexedPair(pair.n, pair.u + 1, pair.v) if pair.n == 12 else pair

        def bumped_at(params, n):
            pair = real_at(params, n)
            return IndexedPair(n, pair.u + 1, pair.v) if n == 12 else pair

        assert lost in [row[:3] for row in found_rows(query)]
        if query.m_max is None:
            monkeypatch.setattr(seqmod, "seq_range", bumped_range)
        else:
            monkeypatch.setattr(seqmod, "pair_at", bumped_at)
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
        # A one-term cell opens one exact stream and reads it only as far as
        # the largest index its exact tests need: an n whose product passes
        # the sieve.  A two-term cell opens no stream: it hands `pair_at`
        # the m and the n of each pair that passes the sieve, each index
        # once.  A two-term candidate is a pair with X_m | X_n, for
        # X_m != 1; the unit and the 2 that the divisibility laws set apart
        # come from closed forms, so no X_m is read for them.
        import lucassquares.sequences as seqmod
        real, reads = seqmod.seq_range, []
        real_at, evaluated = seqmod.pair_at, []

        def counted_at(params, n):
            evaluated.append((params.P, n))
            return real_at(params, n)

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
        monkeypatch.setattr(seqmod, "pair_at", counted_at)
        assert found_rows(query) == naive_findings(query)
        seq = naive_u_seq if query.family in ("U", "UU") else naive_v_seq
        want = []
        for P in query.p_values:
            xs = seq(P, 1, query.n_max + 1)
            ns = [n for n in range(1, query.n_max + 1)
                  if query.n_parity is None or (n % 2 == 1) == (query.n_parity == "odd")]
            if query.m_max is None:
                needed = [n for n in ns if naive_sieve_passes(xs[n], query.w)]
                want.append([P, max(needed, default=0)])
            else:
                ms = range(query.m_min, query.m_max + 1)
                want += sorted({(P, k) for m in ms if xs[m] != 1 for n in ns
                                if n != m and xs[n] % xs[m] == 0
                                and naive_sieve_passes(xs[n], query.w * xs[m])
                                for k in (m, n)})
        if query.m_max is None:
            assert reads == want
            assert min(count for _, count in reads) < query.n_max // 2
        else:
            assert reads == []
            assert sorted(evaluated) == want
            per_p = [sum(P == p for p, _ in evaluated) for P in query.p_values]
            assert min(per_p) < query.n_max // 2

    @pytest.mark.parametrize("query", [
        q(family="U", w=1, p_values=tuple(range(1, 13)), n_max=80),
        q(family="U", w=6, p_values=(1, 2, 4, 24), n_max=80, n_parity="even"),
        q(family="V", w=5, p_values=(1, 5, 45), n_max=80, n_parity="odd"),
        q(family="V", w=WIDE_W, p_values=(1, 2, 3, 30), n_max=80),
        q(family="U", w=10**12 - 2, p_values=(1, 2, 7), n_max=80, n_parity="odd"),
        q(family="UU", w=2, p_values=tuple(range(1, 11)), n_max=60, m_max=30, m_min=2),
        q(family="UU", w=WIDE_W, p_values=(1, 5, 6), n_max=60, m_max=30, n_parity="odd"),
        q(family="VV", w=3, p_values=(1, 2, 3, 12), n_max=60, m_max=30),
        q(family="VV", w=10**12 - 2, p_values=(2, 5), n_max=60, m_max=30, n_parity="even")])
    def test_survivors_are_the_naive_sieve(self, monkeypatch, query):
        # Whatever shape the sieve takes, the candidates that reach exact
        # arithmetic, each once, are exactly those the box and the
        # divisibility laws allow (n of the box's parity, and for two-term
        # families n past the diagonal n = m with X_m | X_n) at which
        # X_n * c, c = w or w * X_m, is a square mod every sieve modulus, by
        # `%` on the exact values.
        reached = divisions_reached(monkeypatch, query)
        want, zeroed = [], set()
        for P in query.p_values:
            if query.m_max is None:
                xs = (naive_u_seq if query.family == "U" else naive_v_seq)(
                    P, 1, query.n_max + 1)
                want += [(P, None, n) for n in range(1, query.n_max + 1)
                         if (query.n_parity is None
                             or (n % 2 == 1) == (query.n_parity == "odd"))
                         and naive_sieve_passes(xs[n], query.w)]
                continue
            xs, pairs = allowed_pairs(query, P)
            zeroed |= {k for m in range(query.m_min, query.m_max + 1) if xs[m] != 1
                       for k in SIEVE_MODULI if query.w * xs[m] % k == 0 and query.w % k}
            want += [(P, m, n) for m, n in pairs
                     if naive_sieve_passes(xs[n], query.w * xs[m])]
        assert reached == sorted(want, key=str)
        if query.m_max is not None:
            # Some X_m is 0 mod a sieve modulus that w is prime to, so w * X_m
            # is 0 there and that modulus passes every n.
            assert zeroed
        if query.family == "VV" and query.w == 3:
            # V_1 = 2 at P = 2 divides every V_n: V_2 = 6 = 3 * V_1 reaches
            # the exact division although n / m = 2 is even.
            assert (2, 1, 2) in reached

    @pytest.mark.parametrize("sequence", "UV")
    def test_tiled_periods_reach_the_last_index(self, sequence):
        # Both sieves tile a translated period past n_max and cut it.  For
        # the shortest and the longest period of X_n(P, 1) mod the sieve
        # moduli, over every class of P, and n_max + 1 = k*L - 1, k*L and
        # k*L + 1 (L the period's length): `_survivors` passes, for every
        # class c, the candidates n <= n_max at which X_n * c is a square,
        # and `_character_lanes` holds count = n_max + 1 lanes with the
        # characters of X_n and of w * X_n, all by `%` on the exact values
        # index by index.  Each sequence has a case whose last index passes
        # and one whose last lane is nonzero, so a tiling one period short
        # fails.
        make = sequences.residue_period
        naive = naive_u_seq if sequence == "U" else naive_v_seq
        lengths = {(k, p): len(make(SequenceParams(p, 1), k, sequence))
                   for k in SIEVE_MODULI for p in range(1, k + 1)}
        ends = [min(lengths, key=lengths.get), max(lengths, key=lengths.get)]
        primes = {key: n for key, n in lengths.items() if key[0] in SIEVE_MODULI[3:]}
        ends += [min(primes, key=primes.get), max(primes, key=primes.get)]
        assert sorted({lengths[key] for key in ends}) == [2, 388 if sequence == "U" else 196]
        last_passes = last_lane_set = False
        for k, p in dict.fromkeys(ends):
            period = make(SequenceParams(p, 1), k, sequence)
            size = len(period)
            reps = max(2, 40 // size)
            xs = naive(p, 1, reps * size + 1)
            squares = {x * x % k for x in range(k)}
            for count in (reps * size - 1, reps * size, reps * size + 1):
                for candidates in (range(1, count), range(1, count, 2), range(2, count, 2)):
                    for c in range(k):
                        got = classifier._survivors(
                            [period], candidates, [classifier.arith._sieve_table(k, c)])
                        want = [n for n in candidates if xs[n] * c % k in squares]
                        assert got == want, (k, p, count, candidates, c)
                        last_passes |= count - 1 in want
                if k not in SIEVE_MODULI[3:]:
                    continue
                for w in (1, min(set(range(1, k)) - squares)):
                    lanes = classifier._character_lanes([(k, period)], w, count)
                    assert len(lanes.of_x) == count and len(lanes.of_wx) == 8 * count
                    for n in range(count):
                        character = [0 if x % k == 0 else 1 if x % k in squares else 2
                                     for x in (xs[n], w * xs[n])]
                        assert [lanes.of_x[n], lanes.of_wx[8 * n]] == character, (k, p, w, n)
                    last_lane_set |= lanes.of_x[count - 1] != 0
        assert last_passes and last_lane_set

    @settings(max_examples=100, deadline=None)
    @given(two_term_boxes())
    @example(q(family="UU", w=1, p_values=(1, 2), n_max=90, m_max=60, m_min=9))
    @example(q(family="VV", w=3, p_values=(2, 3), n_max=64, m_max=40, n_parity="odd"))
    def test_an_open_sieve_passes_every_pair_the_laws_allow(self, query):
        # With tables that pass every residue, every pair of the box that
        # the divisibility laws allow reaches the exact division, once: the
        # split at sqrt(n_max) and the multipliers past it neither drop nor
        # repeat a pair, nor add one.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifier.arith, "_character_table", lambda q: bytes(256))
            mp.setattr(classifier.arith, "_square_residues", lambda q: b"\1" * q)
            reached = divisions_reached(mp, query)
        want = [(P, m, n) for P in query.p_values for m, n in allowed_pairs(query, P)[1]]
        assert reached == sorted(want, key=str)

    @pytest.mark.parametrize("n_max", (20, 60))
    @pytest.mark.parametrize("modulus", SIEVE_MODULI)
    def test_each_modulus_rejects_two_term_pairs(self, monkeypatch, modulus, n_max):
        # U_12 = 2 * U_3 * 6**2 = 2 * U_6 * 3**2 at P = 1, with 2 * U_3 = 4
        # and 2 * U_6 = 16 prime to every modulus but 64.  Moving U_12's
        # residue mod one modulus to a class whose product with 4 and with
        # 16 is a non-square there loses both solutions, both where the
        # search sieves m = 3 and m = 6 alone (n_max = 60, split 7) and where
        # it sieves m = 6 in the run of multiplier 2 (n_max = 20, split 4).
        # U_n(1, 1) mod each modulus has a period of 10 or more, so the
        # period entry at 12 mod its length is read for neither m = 3 nor 6.
        import lucassquares.sequences as seqmod
        real = seqmod.residue_period
        squares = {x * x % modulus for x in range(modulus)}
        xs = naive_u_seq(1, 1, 13)
        assert (2 * xs[3], 2 * xs[6]) == (4, 16) and xs[12] == 4 * 6**2 == 16 * 3**2
        moved = next(r for r in range(modulus)
                     if 4 * r % modulus not in squares and 16 * r % modulus not in squares)

        def bumped(params, k, sequence):
            period = real(params, k, sequence)
            if k != modulus:
                return period
            at = 12 % len(period)
            assert at not in (3 % len(period), 6 % len(period))
            return period[:at] + bytes((moved,)) + period[at + 1:]

        query = q(family="UU", w=2, p_values=(1,), n_max=n_max, m_max=10, m_min=2)
        lost = [(1, 12, 3), (1, 12, 6)]
        assert all(pair in [row[:3] for row in found_rows(query)] for pair in lost)
        monkeypatch.setattr(seqmod, "residue_period", bumped)
        assert not any(pair in [row[:3] for row in found_rows(query)] for pair in lost)

    def test_findings_do_not_depend_on_the_caches(self):
        # The residue periods, sieve tables and the two-term search's
        # character tables are cached on first use; a search from empty
        # caches and one from warm caches agree.
        import lucassquares.sequences as seqmod
        queries = [q(family="U", w=2, p_values=tuple(range(1, 30)), n_max=200),
                   q(family="VV", w=3, p_values=tuple(range(1, 13)), n_max=60, m_max=30)]
        caches = (seqmod._residue_period, classifier.arith._sieve_table,
                  classifier.arith._character_table, classifier.arith._square_residues)
        for cache in caches:
            cache.cache_clear()
        cold = [found_rows(query) for query in queries]
        assert all(cache.cache_info().currsize for cache in caches)
        warm = [found_rows(query) for query in queries]
        assert cold == warm == [naive_findings(query) for query in queries]

    @pytest.mark.parametrize("first, second", [("V", "U"), ("U", "V"), ("VV", "UU"),
                                               ("UU", "VV")])
    def test_periods_are_cached_per_sequence(self, first, second):
        # The U and V periods of one (modulus, P mod modulus, Q) differ, so
        # from empty caches a search of one sequence followed by a search of
        # the other at the same P values must not reuse the first's periods.
        import lucassquares.sequences as seqmod
        kwargs = {"m_max": 30} if len(first) == 2 else {}
        queries = [q(family=family, w=w, p_values=tuple(range(1, 13)), n_max=60, **kwargs)
                   for family in (first, second) for w in (1, 2, 3)]
        seqmod._residue_period.cache_clear()
        for query in queries:
            assert found_rows(query) == naive_findings(query), query

    def test_solutions_above_the_sieve_modulus(self):
        # Solutions far above the product of the sieve's moduli (< 2**128),
        # so the sieve reads reduced residues and not the values themselves:
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
            assert any(seq(P, 1, n + 1)[n] > math.prod(SIEVE_MODULI)
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

    @settings(max_examples=150, deadline=None)
    @given(two_term_boxes())
    @example(q(family="UU", w=2, p_values=(1, 5), n_max=90, m_max=45, m_min=2))
    @example(q(family="VV", w=6, p_values=(2, 5), n_max=90, m_max=90, n_parity="even"))
    @example(q(family="VV", w=WIDE_W, p_values=(2, 29, 30), n_max=81, m_max=40, m_min=9))
    def test_two_term_search_matches_unpruned_naive(self, query):
        # m ranges below, above and across the split at sqrt(n_max), any
        # parity, and a w that is 0 mod the sieve primes up to 31.
        assert found_rows(query) == naive_findings(query)

    def test_terms_past_the_split_are_neither_unit_nor_2(self):
        # The two-term search sets apart a unit X_m or V_1 = 2 only at m <= 2,
        # so none may sit past the split max(3, isqrt(n_max)), nor anywhere
        # past m = 3: U_m >= F_m >= 3 for m >= 4 and V_m >= L_m >= 3 for
        # m >= 2, as both sequences increase from index 1 on.
        for P in range(1, 100):
            us, vs = naive_u_seq(P, 1, 101), naive_v_seq(P, 1, 101)
            assert all(a <= b for a, b in zip(us[1:], us[2:]))
            assert all(a <= b for a, b in zip(vs[1:], vs[2:]))
            assert us[4] >= 3 and vs[2] >= 3, P
        assert naive_u_seq(1, 1, 4)[3] == 2 and naive_v_seq(2, 1, 2)[1] == 2

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


def predicted(theorem_id, query):
    """The predicted set of an in-scope box, as `verify_theorem` reports it."""
    report = verify_theorem(theorem_id, query)
    assert report.verdict == "consistent", report.notes
    return list(report.predicted)


def refusal(theorem_id, query):
    """The notes of an out-of-scope box, whose report holds no findings."""
    report = verify_theorem(theorem_id, query)
    assert report.verdict == "out_of_predicted_scope"
    assert report.predicted == () and report.found == ()
    return report.notes


class TestPredictedSets:
    def test_v_5square_sharpened(self):
        got = predicted("v-5square", q(family="V", w=5, p_values=(45,), n_max=300))
        assert got == [SquareClassFinding("V", 45, 1, None, 5, 3)]
        got = predicted("v-5square", q(family="V", w=5, p_values=(15, 35), n_max=300))
        assert got == []

    def test_v_square_square_p(self):
        got = predicted("v-square", q(family="V", w=1, p_values=(1, 3, 9, 25),
                                      n_max=100))
        assert [(f.P, f.n, f.x) for f in got] == [
            (1, 1, 1), (1, 3, 2), (3, 3, 6), (9, 1, 3), (25, 1, 5)]

    def test_u_wsquare_includes_pell_family(self):
        # u-wsquare predicts w = 1, 2, 3 and 6 whatever the query's w.
        got = predicted("u-wsquare", q(family="U", w=2, p_values=(7, 41), n_max=10))
        assert [(f.P, f.n, f.x) for f in got if f.w == 2] == [(7, 3, 5), (41, 3, 29)]

    def test_empty_families(self):
        assert predicted("v-vm-square",
                         q(family="VV", w=1, p_values=(1, 3), n_max=40, m_max=20)) == []
        assert predicted("v-5vm-square",
                         q(family="VV", w=5, p_values=(2, 3, 4), n_max=40,
                           m_max=20)) == []

    @pytest.mark.parametrize("theorem_id, family, w", [
        ("v-square", "V", 1), ("v-2square", "V", 2), ("v-vm-square", "VV", 1),
        ("v-2vm-square", "VV", 2), ("u-2um-square", "UU", 2), ("v-5square", "V", 5),
        ("v-5vm-square", "VV", 5), ("u-5square", "U", 5), ("u-5um-square", "UU", 5),
    ])
    def test_wrong_family_or_w_is_out_of_scope(self, theorem_id, family, w):
        # A report with one (family, w) pair refuses every other family and
        # every other w, whatever the box; P = 1 is in every such scope.
        def box(family, w):
            return q(family=family, w=w, p_values=(1,), n_max=10,
                     m_max=5 if family in ("UU", "VV") else None)

        assert verify_theorem(theorem_id, box(family, w)).verdict == "consistent"
        for other in [f for f in ("U", "V", "UU", "VV") if f != family]:
            assert refusal(theorem_id, box(other, w)) == (
                f"{theorem_id} classifies the {family} family; query is for {other}")
        for other in [v for v in (1, 2, 3, 5, 6, 10) if v != w]:
            assert refusal(theorem_id, box(family, other)) == (
                f"{theorem_id} covers w in {{{w}}}; query has w = {other}")

    def test_even_p_gates(self):
        assert refusal("v-square", q(family="V", w=1, p_values=(2,), n_max=10)) == (
            "v-square is stated for odd P; query includes P = 2")
        assert refusal("u-5square", q(family="U", w=5, p_values=(10,), n_max=10)) == (
            "u-5square does not cover even P divisible by 5 (query includes P = 10)")
        assert refusal("u-5square", q(family="U", w=5, p_values=(22,), n_max=10)) == (
            "u-5square does not cover even P with P**2 = -1 (mod 5): "
            "solutions exist there (e.g. P = 2); query includes P = 22")
        # Even P with P**2 = 1 (mod 5) stays in scope.
        assert predicted("u-5square", q(family="U", w=5, p_values=(4,), n_max=10)) == []

    def test_u_5um_gates(self, monkeypatch):
        box = dict(family="UU", w=5, n_max=40, m_max=20)
        assert refusal("u-5um-square", q(p_values=(2,), **box)) == (
            "u-5um-square does not cover P = 2 (mod 4) with P**2 = -1 (mod 5) (P = 2)")
        assert refusal("u-5um-square", q(p_values=(18,), **box)) == (
            "u-5um-square does not cover P = 2 (mod 4) with P**2 = -1 (mod 5) (P = 18)")
        assert refusal("u-5um-square", q(p_values=(8,), n_parity="even", **box)) == (
            "u-5um-square covers P = 0 (mod 4) with P**2 = -1 (mod 5) only for odd n "
            "(P = 8)")
        assert predicted("u-5um-square", q(p_values=(8,), n_parity="odd", **box)) == []
        assert predicted("u-5um-square", q(p_values=(3, 4, 5), **box)) == []
        # With n unrestricted, P = 8 is covered for odd n only: the report
        # says so, and an even-n finding there is dropped, not counted.
        assert predicted("u-5um-square", q(p_values=(8,), **box)) == []
        even = SquareClassFinding("UU", 8, 10, 2, 5, 1)
        monkeypatch.setattr(classifier, "search", lambda query, jobs=1: [even])
        report = verify_theorem("u-5um-square", q(p_values=(8,), **box))
        assert (report.verdict, report.predicted, report.found) == ("consistent", (), ())
        assert report.notes == (
            "UU family, w = 5, 1 P values in [8, 8], n <= 40, 1 <= m <= 20; "
            "found 0, predicted 0; P values [8] (P = 0 mod 4, P**2 = -1 mod 5) "
            "searched for odd n only; even n is uncovered there")

    def test_fib_lucas_requires_p1(self):
        assert refusal("fib-lucas-squares",
                       q(family="U", w=1, p_values=(1, 2), n_max=100)) == (
            "fib-lucas-squares is about Fibonacci and Lucas numbers; P must be exactly (1,)")

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="^unknown classification id 'u-cubes'"):
            verify_theorem("u-cubes", q())


class TestVerifyTheorem:
    def test_consistent_report(self):
        report = verify_theorem("v-2square", default_query("v-2square", "quick"))
        assert report.verdict == "consistent"
        assert [(f.P, f.n, f.x) for f in report.predicted] == [(1, 6, 3), (5, 6, 99)]
        assert report.found == report.predicted

    def test_jobs_is_checked_before_the_scope(self):
        # P = 2 is out of v-square's scope, so no search would check jobs.
        box = q(family="V", w=1, p_values=(2,), n_max=10)
        with pytest.raises(ValueError, match="^jobs must be >= 1, got 0$"):
            verify_theorem("v-square", box, jobs=0)
        with pytest.raises(ValueError, match="^jobs must be an integer"):
            verify_theorem("v-square", box, jobs=1.5)

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

    @pytest.mark.parametrize("theorem_id, p_values", [
        ("u-wsquare", (2, 7, 24)), ("fib-lucas-squares", (1,)),
    ])
    def test_multiplexed_report_ignores_the_query_family_and_w(self, theorem_id, p_values):
        # A multiplexed report searches and predicts its own (family, w)
        # pairs, so a query in a family and w it does not list changes
        # nothing but the box text of the notes.
        own, other = (verify_theorem(theorem_id, q(family=family, w=w, p_values=p_values,
                                                   n_max=50))
                      for family, w in (("U", 1), ("V", 5)))
        assert own.verdict == "consistent" and own.found
        assert (other.predicted, other.found, other.verdict) == (
            own.predicted, own.found, own.verdict)

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

    def test_battery_entries_take_no_jobs(self):
        # Only `search` and `verify_theorem` pool; the battery runs in-process.
        with pytest.raises(TypeError):
            verify_all("quick", jobs=2)
        with pytest.raises(TypeError):
            verify_report("quartic-equations", "quick", jobs=2)

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

    def test_a_sweep_keeps_only_the_failures_it_records(self):
        # Every check fails, and only the first 50 are reported, so the
        # others are counted and dropped: holding all 100,000 takes about
        # 33 MiB.
        import tracemalloc
        failing = (identities.CheckOutcome("shift-u", (i,), False, i, i + 1)
                   for i in range(100_000))
        tracemalloc.start()
        try:
            report = classifier._sweep_report("shift-congruences", failing, "a grid")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == "counterexample"
        assert report.notes == "a grid: 100000 checks, 100000 failed (first 50 recorded)"
        assert [outcome.inputs for outcome in report.found] == [(i,) for i in range(50)]
        assert peak < 2**20


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
