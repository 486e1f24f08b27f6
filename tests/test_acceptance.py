"""Acceptance gate: eleven end-to-end criteria with pinned runtime budgets.

Each test performs one criterion's full content check and then enforces its
wall-clock budget, printing a single summary line (visible with -s).  The
criteria exercise the public API the way a verification session would:
solvers against enumeration, sweep grids with zero tolerated failures,
classification boxes diffed against predicted sets, and fault injection to
prove the harness actually reacts to wrong sequence values.
"""

import time
from contextlib import contextmanager

import lucassquares.sequences as seqmod
from lucassquares import (
    SequenceParams,
    SquareClassQuery,
    classifier,
    form_enumerate,
    form_family,
    p_range,
    pell5_enumerate,
    pell5_family,
    quartic_solutions,
    u,
    verify_theorem,
)
from lucassquares.classifier import (
    sweep_divisibility_laws,
    sweep_product_identities,
    sweep_residue_classes,
    sweep_shift_congruences,
)
from lucassquares.sequences import IndexedPair, ModularPair


def _finish(name: str, limit: float, start: float) -> None:
    elapsed = time.perf_counter() - start
    print(f"acceptance {name}: PASS ({elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit, f"{name} exceeded its {limit:.0f}s budget: {elapsed:.2f}s"


def test_c01_quartic_fixtures():
    start = time.perf_counter()
    assert [(s.x, s.y) for s in quartic_solutions("plus3", 10**4)] == [(1, 1)]
    assert [(s.x, s.y) for s in quartic_solutions("minus3", 10**4)] == [(2, 1)]
    assert quartic_solutions("plus5", 10**4) == []
    _finish("01 quartic fixtures", 5, start)


def test_c02_pell_parametrization():
    start = time.perf_counter()
    # z = 0..40 across both parities: each member satisfies u**2 - 5v**2 = (-1)**z.
    for sign, count in ((1, 21), (-1, 20)):
        family = pell5_family(sign, count)
        for sol in family:
            assert sol.z <= 40
            assert sol.u * sol.u - 5 * sol.v * sol.v == (-1) ** sol.z == sign
    # Enumeration to v <= 10**6 finds nothing outside the family.
    bound = 10**6
    for sign in (1, -1):
        cover = pell5_family(sign, 2)
        while cover[-1].v <= bound:
            cover = pell5_family(sign, len(cover) + 1)
        family_pairs = {(s.u, s.v) for s in cover if s.v <= bound}
        enum_pairs = {(s.u, s.v) for s in pell5_enumerate(sign, bound)}
        assert enum_pairs == family_pairs
    _finish("02 pell parametrization", 10, start)


def test_c03_form_parametrization():
    start = time.perf_counter()
    bound = 10**5
    witnessed = False
    for c in (-5, -1):
        cover = form_family(c, 2)
        while cover[-1].y <= bound:
            cover = form_family(c, len(cover) + 1)
        family_pairs = {(s.x, s.y) for s in cover if s.y <= bound}
        enum_pairs = {(s.x, s.y) for s in form_enumerate(c, bound)}
        assert enum_pairs == family_pairs
        if c == -1:
            witnessed = (72, 17) in enum_pairs
    assert witnessed
    _finish("03 form parametrization", 10, start)


def test_c04_identity_sweeps():
    start = time.perf_counter()
    reports = [
        sweep_shift_congruences(p_max=25, idx_max=12, large_n=10**6),
        sweep_product_identities(p_max=25, idx_max=12),
        sweep_divisibility_laws(p_max=25, idx_max=12),
        sweep_residue_classes(p_max=25, idx_max=12),
    ]
    for report in reports:
        assert report.verdict == "consistent", report.notes
        assert report.found == ()
        assert "0 failed" in report.notes
    _finish("04 identity sweeps", 30, start)


def test_c05_v_equals_5_squares():
    start = time.perf_counter()
    query = SquareClassQuery("V", 5, p_range(99, parity="odd", multiple_of=5), 300)
    report = verify_theorem("v-5square", query)
    assert report.verdict == "consistent"
    assert [(f.P, f.n, f.x) for f in report.found] == [(5, 1, 1), (45, 1, 3)]
    _finish("05 V_n = 5x^2 classification", 60, start)


def test_c06_v_equals_5vm_squares_empty():
    start = time.perf_counter()
    query = SquareClassQuery("VV", 5, p_range(45, parity="odd", multiple_of=5),
                             200, m_max=100)
    report = verify_theorem("v-5vm-square", query)
    assert report.verdict == "consistent"
    assert report.found == () and report.predicted == ()
    _finish("06 V_n = 5 V_m x^2 empty", 60, start)


def test_c07_u_equals_5_squares_three_boxes():
    start = time.perf_counter()
    # (a) odd P <= 95 divisible by 5: exactly n = 2 when P/5 is a square.
    box_a = SquareClassQuery("U", 5, p_range(95, parity="odd", multiple_of=5), 400)
    report = verify_theorem("u-5square", box_a)
    assert report.verdict == "consistent"
    assert [(f.P, f.n, f.x) for f in report.found] == [(5, 2, 1), (45, 2, 3)]
    # (b) P <= 99 with P**2 = 1 (mod 5): exactly (P, n) = (1, 5).
    box_b = SquareClassQuery(
        "U", 5, tuple(p for p in range(1, 100) if p * p % 5 == 1), 400)
    report = verify_theorem("u-5square", box_b)
    assert report.verdict == "consistent"
    assert [(f.P, f.n, f.x) for f in report.found] == [(1, 5, 1)]
    # (c) odd P <= 99 with P**2 = -1 (mod 5): no findings.
    box_c = SquareClassQuery(
        "U", 5, tuple(p for p in range(1, 100, 2) if p * p % 5 == 4), 400)
    report = verify_theorem("u-5square", box_c)
    assert report.verdict == "consistent"
    assert report.found == ()
    _finish("07 U_n = 5x^2 classification", 120, start)


def test_c08_u_equals_5um_squares_empty():
    start = time.perf_counter()
    covered = tuple(p for p in range(1, 46)
                    if (p % 2 == 1 or p * p % 5 == 1 or p % 4 == 0)
                    and not (p % 5 == 0 and p % 2 == 0))
    # All four hypothesis classes are represented in the box.
    assert 5 in covered      # odd, divisible by 5
    assert 4 in covered      # P**2 = 1 (mod 5), even
    assert 3 in covered      # odd, P**2 = -1 (mod 5)
    assert 8 in covered      # P = 0 (mod 4), P**2 = -1 (mod 5): odd n only
    query = SquareClassQuery("UU", 5, covered, 200, m_max=100, m_min=2)
    report = verify_theorem("u-5um-square", query)
    assert report.verdict == "consistent"
    assert report.found == () and report.predicted == ()
    _finish("08 U_n = 5 U_m x^2 empty", 120, start)


def test_c09_cited_classifications():
    start = time.perf_counter()
    # Fibonacci and Lucas square classes, positive indices up to 1000.
    fib_query = SquareClassQuery("U", 1, (1,), 1000)
    report = verify_theorem("fib-lucas-squares", fib_query)
    assert report.verdict == "consistent"
    by_key: dict[tuple[str, int], list[int]] = {}
    for f in report.found:
        by_key.setdefault((f.family, f.w), []).append(f.n)
    assert by_key == {
        ("U", 1): [1, 2, 12],
        ("U", 2): [3, 6],
        ("U", 5): [5],
        ("V", 1): [1, 3],
        ("V", 2): [6],
    }
    # U_n = w x^2 for w in {1, 2, 3, 6}: the eight exceptional tuples are all
    # re-found for P <= 30, n <= 120, and the only further finding beyond the
    # systematic n <= 2 boundary is the n = 3 Pell-family member at P = 7.
    quoted = {(2, 4, 3), (2, 7, 1), (4, 4, 2), (1, 12, 1),
              (1, 3, 2), (1, 4, 3), (1, 6, 2), (24, 4, 3)}
    ws_query = SquareClassQuery("U", 1, p_range(30), 120)
    report = verify_theorem("u-wsquare", ws_query)
    assert report.verdict == "consistent"
    exceptional = {(f.P, f.n, f.w) for f in report.found if f.n >= 3}
    assert quoted <= exceptional
    assert exceptional - quoted == {(7, 3, 2)}
    for f in report.found:
        if f.n == 1:
            assert f.w == 1 and f.x == 1
        elif f.n == 2:
            assert f.P == f.w * f.x * f.x
    _finish("09 cited classifications", 60, start)


def test_c10_double_u_witness():
    start = time.perf_counter()
    # The exact witness: U_12(5,1) = 2 * U_6(5,1) * 99**2.
    p5 = SequenceParams(5, 1)
    assert u(p5, 12) == 2 * u(p5, 6) * 99 * 99 == 71351280
    # In n <= 100, 2 <= m <= 50, odd P <= 25 the only findings are this
    # witness and the P = 1 companion pair (U_12 = 2 U_3 6^2 = 2 U_6 3^2),
    # which the predicted set carries.
    query = SquareClassQuery("UU", 2, p_range(25, parity="odd"), 100,
                             m_max=50, m_min=2)
    report = verify_theorem("u-2um-square", query)
    assert report.verdict == "consistent"
    assert [(f.P, f.n, f.m, f.x) for f in report.found] == [
        (1, 12, 3, 6), (1, 12, 6, 3), (5, 12, 6, 99)]
    _finish("10 doubled-U witness", 30, start)


@contextmanager
def _bumped_sequences(p_star: int, n_star: int, which: str):
    """Shadow engine: one sequence value perturbed by +1, all access paths.

    `sequences.u` and `sequences.v` read the module's `pair_at`, and
    `sequences.u_mod` and `sequences.v_mod` its `pair_mod`, so they see
    those shadows and are not shadowed again.
    """
    real = {name: getattr(seqmod, name)
            for name in ("pair_at", "pair_mod", "seq_range", "residue_range",
                         "residue_stream")}

    def hit(params, n):
        return params.P == p_star and n == n_star

    def shadow_pair_at(params, n):
        pair = real["pair_at"](params, n)
        if not hit(params, n):
            return pair
        return IndexedPair(n, pair.u + (1 if which == "u" else 0),
                           pair.v + (1 if which == "v" else 0))

    def shadow_pair_mod(params, n, modulus):
        pair = real["pair_mod"](params, n, modulus)
        if not hit(params, n):
            return pair
        return ModularPair(n, modulus,
                           (pair.u_res + (1 if which == "u" else 0)) % modulus,
                           (pair.v_res + (1 if which == "v" else 0)) % modulus)

    def shadow_seq_range(params, n_lo, n_hi):
        # The real stream starts from the module's `pair_at`, which would
        # carry a bump at n_lo into every later term, so each index is
        # evaluated on its own.
        for n in range(n_lo, n_hi + 1):
            yield shadow_pair_at(params, n)

    def shadow_residue_range(params, n_lo, n_hi, modulus):
        stream = real["residue_range"](params, n_lo, n_hi, modulus)
        for n, (u_res, v_res) in enumerate(stream, n_lo):
            if hit(params, n):
                u_res = (u_res + (1 if which == "u" else 0)) % modulus
                v_res = (v_res + (1 if which == "v" else 0)) % modulus
            yield u_res, v_res

    def shadow_residue_stream(params, n_hi, modulus, sequence):
        stream = real["residue_stream"](params, n_hi, modulus, sequence)
        if params.P != p_star or n_star > n_hi or sequence != which.upper():
            return stream
        bumped = bytearray(stream)
        bumped[n_star] = (bumped[n_star] + 1) % modulus
        return bytes(bumped)

    seqmod.pair_at = shadow_pair_at
    seqmod.pair_mod = shadow_pair_mod
    seqmod.seq_range = shadow_seq_range
    seqmod.residue_range = shadow_residue_range
    seqmod.residue_stream = shadow_residue_stream
    try:
        yield
    finally:
        for name, fn in real.items():
            setattr(seqmod, name, fn)


def test_c11_fault_injection():
    start = time.perf_counter()
    positions = [(5, 12, "u"), (1, 7, "v"), (3, 5, "u"), (2, 6, "v"), (5, 1, "u")]
    for p_star, n_star, which in positions:
        with _bumped_sequences(p_star, n_star, which):
            reports = [
                sweep_product_identities(p_max=8, idx_max=10),
                sweep_divisibility_laws(p_max=8, idx_max=10),
                verify_theorem(
                    "u-2um-square",
                    SquareClassQuery("UU", 2, (1, 3, 5), 60, m_max=30, m_min=2)),
            ]
        tripped = [r.theorem_id for r in reports if r.verdict == "counterexample"]
        assert tripped, f"no check reacted to bumping {which} at (P={p_star}, n={n_star})"
        if (p_star, n_star, which) == (5, 12, "u"):
            # U_12(5, 1) = 2 * U_6 * 99**2 is the box's own finding.
            assert "u-2um-square" in tripped
    # With the shadow engine removed everything is consistent again.
    assert sweep_product_identities(p_max=8, idx_max=10).verdict == "consistent"
    _finish("11 fault injection", 10, start)
