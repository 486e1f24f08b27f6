"""Square detection and Jacobi symbol against independent references."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lucassquares import (
    SQUAREFREE_COEFFS,
    arith,
    classifier,
    SquareClass,
    is_square,
    isqrt,
    jacobi,
    square_class,
    square_witness,
)

import _oracles
from _oracles import bisect_isqrt, naive_isqrt, naive_jacobi, naive_square_witness, naive_u_seq


NON_INTEGER_CALLS = [
    (square_witness, (4.0, 1), "n"),
    (square_witness, (4, True), "w"),
    (square_witness, (4, 1.0), "w"),
    (is_square, (4.0,), "n"),
    (is_square, (True,), "n"),
    (square_class, (2.0,), "n"),
    (square_class, (False,), "n"),
    (isqrt, (True,), "n"),
    (jacobi, (True, 3), "a"),
    (jacobi, (2, 3.0), "n"),
]


@pytest.mark.parametrize("fn, args, field", NON_INTEGER_CALLS,
                         ids=[f"{fn.__name__}{args}" for fn, args, _ in NON_INTEGER_CALLS])
def test_entry_points_refuse_non_integers_by_name(fn, args, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        fn(*args)


class TestIsqrt:
    def test_known_values(self):
        assert isqrt(0) == 0
        assert isqrt(1) == 1
        assert isqrt(2) == 1
        assert isqrt(13680) == 116
        assert isqrt(10**30) == 10**15

    def test_rejects_negative_and_non_integers(self):
        with pytest.raises(ValueError):
            isqrt(-1)
        with pytest.raises(ValueError):
            isqrt(2.0)

    def test_random_against_binary_search(self):
        rng = random.Random(20260816)
        for _ in range(10**4):
            bits = rng.randrange(1, 512)
            n = rng.getrandbits(bits)
            r = isqrt(n)
            assert r == bisect_isqrt(n)
            assert r * r <= n < (r + 1) * (r + 1)

    def test_newton_oracle_matches_binary_search(self):
        # The Newton oracle takes the big values; binary search checks it here.
        rng = random.Random(20261018)
        values = list(range(300))
        values += [x * x + d for x in (10**9, 2**150 + 1) for d in (-1, 0, 1)]
        values += [rng.getrandbits(rng.randrange(1, 400)) for _ in range(3000)]
        for n in values:
            assert naive_isqrt(n) == bisect_isqrt(n)
        with pytest.raises(ValueError):
            naive_isqrt(-1)

    def test_square_boundaries(self):
        for x in list(range(200)) + [10**9, 10**18, 10**50]:
            sq = x * x
            assert isqrt(sq) == x
            if x > 0:
                assert isqrt(sq - 1) == x - 1
                assert isqrt(sq + 1) == x

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=10**60))
    def test_floor_property(self, n):
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


class TestSquareWitness:
    def test_known_values(self):
        assert square_witness(3640, 10) is None
        assert square_witness(71351280, 7280) == 99
        assert square_witness(144, 1) == 12
        assert square_witness(19602, 2) == 99
        assert square_witness(0, 3) == 0
        assert square_witness(-4, 1) is None

    def test_rejects_bad_w(self):
        with pytest.raises(ValueError):
            square_witness(10, 0)
        with pytest.raises(ValueError):
            square_witness(10, -2)

    def test_is_square_spot(self):
        assert is_square(0) and is_square(1) and is_square(9801)
        assert not is_square(2) and not is_square(-9) and not is_square(9802)

    def test_roundtrip_all_coefficients(self):
        for w in SQUAREFREE_COEFFS:
            for x in range(0, 2000):
                assert square_witness(w * x * x, w) == x

    def test_scan_matches_naive(self):
        for w in (1, 5):
            for n in range(0, 10**5):
                assert square_witness(n, w) == naive_square_witness(n, w)

    def test_composite_w_allowed(self):
        # Two-term searches pass products like w * U_m, which are not
        # square-free; the witness test must still be exact.
        assert square_witness(7280 * 81, 7280) == 9
        assert square_witness(7280 * 80, 7280) is None


# The residue filter's tables by modulus.  Each modulus divides the one
# reduction modulus, so t = q % 2_882_880 has t % m == q % m.
RESIDUE_TABLES = {64: arith._SQUARES_64, 63: arith._SQUARES_63,
                  65: arith._SQUARES_65, 11: arith._SQUARES_11}

# The search sieve's moduli, in the order the sieve applies them.
SIEVE_MODULI = arith._SIEVE_MODULI

# The primes of the 23 moduli.
FILTER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

# Square-free and composite coefficients; the two-term searches pass
# products such as w * U_m, so composite w must be exact too.
WITNESS_COEFFS = SQUAREFREE_COEFFS + (4, 12, 7280)


@functools.cache
def naive_squares_mod(m: int) -> frozenset[int]:
    """r in range(m) with r + k*m a perfect square for some k < m (take the
    root below m), by the binary-search oracle."""
    return frozenset(r for r in range(m)
                     if any(naive_isqrt(r + k * m) ** 2 == r + k * m for k in range(m)))


def lift(k: int, a: int) -> int:
    """An integer that is a mod k and 1 mod the other 22 sieve moduli."""
    total = math.prod(SIEVE_MODULI)
    idempotent = total // k * pow(total // k, -1, k)   # 1 mod k, 0 mod the rest
    return (1 + (a - 1) * idempotent) % total


def sieve(values: list[int], c: int) -> list[int]:
    """The positions j at which the search's sieve passes values[j] * c.

    One-byte-per-value streams of the values' residues, as the search reads
    them, go through `classifier._survivors` with every position a candidate
    and the tables of c, as a one-term cell resolves them.
    """
    streams = [bytes(value % q for value in values) for q in SIEVE_MODULI]
    tables = [arith._sieve_table(q, c % q) for q in SIEVE_MODULI]
    return classifier._survivors(streams, range(len(values)), tables)


class TestResidueFilter:
    def test_tables_are_the_squares(self):
        # The filter's four tables and the sieve's 23: r is marked iff r is
        # a square mod m, and the sieve table of c = 1 is the squares table.
        assert arith._RESIDUE_MODULUS == 64 * 63 * 65 * 11
        assert SIEVE_MODULI == (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                                53, 59, 61, 67, 71, 73, 79, 83, 89, 97) == _oracles.SIEVE_MODULI
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(SIEVE_MODULI, 2))
        assert math.prod(SIEVE_MODULI) == (
            221_334_524_538_769_768_776_297_806_143_848_582_720) < 2**128
        assert {p for p in FILTER_PRIMES if any(q % p == 0 for q in SIEVE_MODULI)} == set(
            FILTER_PRIMES)
        for m, table in RESIDUE_TABLES.items():
            assert len(table) == m
            assert [r for r in range(m) if table[r]] == sorted(naive_squares_mod(m))
        for m in SIEVE_MODULI:
            table = arith._sieve_table(m, 1)
            assert len(table) == 256 and set(table) <= {0, 1}
            assert [r for r in range(m) if table[r]] == sorted(naive_squares_mod(m))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**4000),
           st.sampled_from(WITNESS_COEFFS),
           st.sampled_from(("square", "plus_one", "minus_one", "times_k")),
           st.integers(min_value=2, max_value=10**6))
    def test_matches_naive_near_w_squares(self, x, w, shape, k):
        value = {"square": w * x * x, "plus_one": w * x * x + 1,
                 "minus_one": w * x * x - 1, "times_k": w * x * x * k}[shape]
        want = naive_square_witness(value, w)
        assert square_witness(value, w) == want
        if shape == "square":
            assert want == x
        assert is_square(value) == (value >= 0 and naive_isqrt(value) ** 2 == value)

    @pytest.mark.parametrize("m", sorted(RESIDUE_TABLES))
    def test_every_residue_class_above_2_200(self, m):
        # One value per class r mod m above 2**200: a perfect square when r
        # is a square mod m, so a table entry flipped to 0 loses a root.
        base = 2**200 + random.Random(m).getrandbits(64)
        for r in range(m):
            roots = [y for y in range(m) if y * y % m == r]
            if roots:
                x = base - base % m + roots[0]
                value = x * x
            else:
                value = base - base % m + r
            assert value > 2**200 and value % m == r
            for w in (1, 5):
                assert square_witness(w * value, w) == naive_square_witness(w * value, w)
            assert is_square(value) == bool(roots)


class TestProductFilter:
    @pytest.mark.parametrize("k", SIEVE_MODULI)
    def test_each_modulus_tests_the_product(self, k):
        # Every pair of classes mod k, units or not: the table of c marks a
        # exactly when a * c is a square mod k.  Through the whole sieve,
        # with a and c lifted to 1 mod the other 22 moduli, it passes
        # exactly those a.
        squares = naive_squares_mod(k)
        values = [lift(k, a) for a in range(k)]
        for c in range(k):
            table = arith._sieve_table(k, c)
            assert len(table) == 256
            assert [a for a in range(k) if table[a]] == [
                a for a in range(k) if a * c % k in squares], (k, c)
            assert sieve(values, lift(k, c)) == [
                a for a in range(k) if a * c % k in squares], (k, c)

    @pytest.mark.parametrize("k", SIEVE_MODULI)
    def test_on_units_the_product_test_is_the_quotient_test(self, k):
        # For a unit b, a * b**-1 = (a * b) * (b**-1)**2, so where the
        # quotient's class is defined, testing the product loses nothing.
        table = arith._sieve_table(k, 1)
        for b in range(1, k):
            if math.gcd(b, k) != 1:
                continue
            inverse = pow(b, -1, k)
            assert arith._sieve_table(k, b) == arith._sieve_table(k, inverse), (k, b)
            for a in range(k):
                assert table[a * b % k] == table[a * inverse % k], (k, a, b)

    @pytest.mark.parametrize("k", SIEVE_MODULI[3:])
    def test_character_bytes_pass_what_the_tables_pass(self, k):
        # For a prime k, every w mod k and every pair (a, b) of residues of
        # (X_m, X_n): the two-term sieve's bulk step on the character bytes
        # of w * a and of b passes the pair exactly when the table of w * a
        # passes b, in a run of many m and in a run of one m.  Pair (a, b)
        # sits at m = k*k + a*k + b, its X_n at n = 2m.
        square = k * k
        stream = bytearray(4 * square)
        for a in range(k):
            for b in range(k):
                m = square + a * k + b
                stream[m], stream[2 * m] = a, b
        for w in range(k):
            characters = [(stream.translate(arith._character_table(k, w)),
                           stream.translate(arith._character_table(k, 1)))]
            for a in range(k):
                lo = square + a * k
                table = arith._sieve_table(k, w * a % k)
                want = [b for b in range(k) if table[b]]
                ns = range(2 * lo, 2 * lo + 2 * k, 2)
                passed = classifier._pair_survivors(characters, [], range(lo, lo + k), ns, w)
                assert [m - lo for m, _ in passed] == want, (k, w, a)
                assert all(n == 2 * m for m, n in passed)
                # X_lo = a, and X_n = b at the n of the run above.
                passed = classifier._pair_survivors(characters, [], range(lo, lo + 1), ns, w)
                assert [(n - 2 * lo) // 2 for _, n in passed] == want, (k, w, a)
                assert all(m == lo for m, _ in passed)

    @pytest.mark.parametrize("w", (1, 2, 5, 10**12 - 2))
    def test_pairs_left_pass_what_the_composite_tables_pass(self, w):
        # After the prime moduli, each pair (X_m, X_n) left is tested mod
        # 64, 63 and 65: given no prime modulus, the two-term sieve's run
        # passes exactly the pairs whose product with w is a square mod all
        # three, in a run of the multiples k*m and in a run of one m.
        xs = naive_u_seq(7, 1, 301)
        streams = [bytes(x % q for x in xs) for q in SIEVE_MODULI[:3]]

        def passes(m, n):
            return all(w * xs[m] * xs[n] % q in naive_squares_mod(q) for q in (64, 63, 65))

        for k in (2, 3, 5):
            ms, ns = range(10, 300 // k + 1), range(10 * k, 300 // k * k + 1, k)
            passed = classifier._pair_survivors([], streams, ms, ns, w)
            want = [(m, k * m) for m in ms if passes(m, k * m)]
            assert passed == want and 0 < len(want) < len(ms), (w, k)
        for m in (10, 17):
            ns = range(m + 1, 301)
            passed = classifier._pair_survivors([], streams, range(m, m + 1), ns, w)
            want = [(m, n) for n in ns if passes(m, n)]
            assert passed == want and 0 < len(want) < len(ns), (w, m)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7),
                    min_size=len(FILTER_PRIMES), max_size=len(FILTER_PRIMES)),
           st.integers(min_value=1, max_value=2**64),
           st.sampled_from(WITNESS_COEFFS + (2**31 - 1,)),
           st.integers(min_value=0, max_value=2**600))
    @example([7] * len(FILTER_PRIMES), 1, 7280, 99)
    def test_accepts_every_solution(self, exponents, cofactor, w, x):
        # A = w * b * x**2 is a solution for C = w * b, with b made to share
        # the filter primes, so C is often no unit mod the moduli.
        b = cofactor * math.prod(p**e for p, e in zip(FILTER_PRIMES, exponents))
        c = w * b
        assert all(arith._sieve_table(q, c % q)[c * x * x % q] for q in SIEVE_MODULI)
        assert sieve([c * x * x], c) == [0]


class TestSquareClass:
    def test_smallest_coefficient_wins(self):
        assert square_class(4) == SquareClass(1, 2)
        assert square_class(18) == SquareClass(2, 3)
        assert square_class(45) == SquareClass(5, 3)
        assert square_class(0) == SquareClass(1, 0)
        assert square_class(19602) == SquareClass(2, 99)

    def test_unclassifiable(self):
        assert square_class(-1) is None
        assert square_class(7) is None
        assert square_class(95) is None

    def test_value_roundtrip(self):
        for n in range(0, 5000):
            sc = square_class(n)
            if sc is not None:
                assert sc.value == n

    def test_validation(self):
        with pytest.raises(ValueError):
            SquareClass(4, 3)
        with pytest.raises(ValueError):
            SquareClass(2, -1)


class TestJacobi:
    def test_known_values(self):
        assert jacobi(2, 5) == -1
        assert jacobi(1, 9) == 1
        assert jacobi(5, 9) == 1
        assert jacobi(0, 9) == 0
        assert jacobi(3, 9) == 0
        assert jacobi(7, 1) == 1

    def test_rejects_bad_modulus(self):
        for n in (0, -3, 4):
            with pytest.raises(ValueError):
                jacobi(2, n)

    def test_against_legendre_factorization(self):
        for n in range(3, 442, 2):
            for a in range(0, n):
                assert jacobi(a, n) == naive_jacobi(a, n)

    def test_multiplicative_in_numerator(self):
        rng = random.Random(7)
        for _ in range(2000):
            n = 2 * rng.randrange(1, 500) + 1
            a, b = rng.randrange(0, 10**6), rng.randrange(0, 10**6)
            assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    def test_periodic_in_numerator(self):
        rng = random.Random(8)
        for _ in range(2000):
            n = 2 * rng.randrange(1, 500) + 1
            a = rng.randrange(-10**6, 10**6)
            assert jacobi(a, n) == jacobi(a + n, n)
