"""Square detection and Jacobi symbol against independent references."""

import functools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lucassquares import (
    SQUAREFREE_COEFFS,
    arith,
    SquareClass,
    is_square,
    isqrt,
    jacobi,
    square_class,
    square_witness,
)

from _oracles import bisect_isqrt, naive_isqrt, naive_jacobi, naive_square_witness


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

# The product filter's second tables, read after one reduction mod
# 17 * 19 * 23 * 29 * 31 * 37.
SECOND_TABLES = {17: arith._SQUARES_17, 19: arith._SQUARES_19, 23: arith._SQUARES_23,
                 29: arith._SQUARES_29, 31: arith._SQUARES_31, 37: arith._SQUARES_37}

# The third tables, read after one reduction mod 41 * 43 * ... * 97.
THIRD_PRIMES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
THIRD_TABLES = {p: getattr(arith, f"_SQUARES_{p}") for p in THIRD_PRIMES}
ALL_TABLES = {**RESIDUE_TABLES, **SECOND_TABLES, **THIRD_TABLES}

# The primes of the 23 moduli.
FILTER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37) + THIRD_PRIMES

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
    """An integer that is a mod k and 1 mod the other 22 filter moduli."""
    total = math.prod(ALL_TABLES)
    idempotent = total // k * pow(total // k, -1, k)   # 1 mod k, 0 mod the rest
    return (1 + (a - 1) * idempotent) % total


class TestResidueFilter:
    def test_tables_are_the_squares(self):
        # All three stages' tables: r is marked iff r is a square mod m.
        assert arith._RESIDUE_MODULUS == 64 * 63 * 65 * 11
        assert arith._RESIDUE_MODULUS_2 == 17 * 19 * 23 * 29 * 31 * 37 < 2**30
        assert arith._RESIDUE_MODULUS_3 == math.prod(THIRD_PRIMES) < 2**79
        assert arith._SIEVE_MODULUS == math.prod(ALL_TABLES) == (
            221_334_524_538_769_768_776_297_806_143_848_582_720) < 2**128
        for m, table in ALL_TABLES.items():
            assert len(table) == m
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
    @pytest.mark.parametrize("k", sorted(ALL_TABLES))
    def test_each_modulus_tests_the_product(self, k):
        # Every pair of classes mod k, units or not, lifted to 1 mod the
        # other 22 moduli: the filter passes exactly when a * c is a
        # square mod k.
        squares = naive_squares_mod(k)
        lifted = [lift(k, a) % arith._SIEVE_MODULUS for a in range(k)]
        for a in range(k):
            for c in range(k):
                passed = arith._product_may_be_square(lifted[a], lifted[c])
                assert passed == (a * c % k in squares), (k, a, c)

    @pytest.mark.parametrize("k", sorted(ALL_TABLES))
    def test_on_units_the_product_test_is_the_quotient_test(self, k):
        # For a unit b, a * b**-1 = (a * b) * (b**-1)**2, so where the
        # quotient's class is defined, testing the product loses nothing.
        table = ALL_TABLES[k]
        for b in range(1, k):
            if math.gcd(b, k) != 1:
                continue
            inverse = pow(b, -1, k)
            for a in range(k):
                assert table[a * b % k] == table[a * inverse % k], (k, a, b)

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
        modulus = arith._SIEVE_MODULUS
        assert arith._product_may_be_square(c * x * x % modulus, c % modulus)


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
