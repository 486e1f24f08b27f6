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
        # Every pair of classes mod k, units or not, and c = 0: the table of
        # c is 1 at a exactly when a * c is a square mod k, and 0 from k to
        # 255.  Through the whole sieve, with a and c lifted to 1 mod the
        # other 22 moduli, it passes exactly those a.
        squares = naive_squares_mod(k)
        values = [lift(k, a) for a in range(k)]
        for c in range(k):
            table = arith._sieve_table(k, c)
            assert table == bytes(a * c % k in squares for a in range(k)).ljust(256, b"\0"), (k, c)
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
        # (X_m, X_n): the two-term sieve's bulk step on the character lanes
        # of w * a and of b passes the pair exactly when the table of w * a
        # passes b, in a run of many m and in a run of one m.  Pair (a, b)
        # sits at m = k*k + a*k + b, its X_n at n = 2m.  Each run's pass
        # mask is compared whole: pair j passes iff bit 64j + 63 is set.
        square = k * k
        stream = bytearray(4 * square)
        for a in range(k):
            for b in range(k):
                m = square + a * k + b
                stream[m], stream[2 * m] = a, b
        for w in range(k):
            lanes = classifier._character_lanes([(k, bytes(stream))], w)
            for a in range(k):
                lo = square + a * k
                table = arith._sieve_table(k, w * a % k)
                want = sum(1 << 64 * b + 63 for b in range(k) if table[b])
                ns = range(2 * lo, 2 * lo + 2 * k, 2)
                assert classifier._prime_passes(lanes, range(lo, lo + k), ns) == want, (k, w, a)
                # X_lo = a, and X_n = b at the n of the run above.
                assert classifier._prime_passes(lanes, range(lo, lo + 1), ns) == want, (k, w, a)

    @pytest.mark.parametrize("w", (1, 2, 5, 3 * 11 * 97, 10**12 - 2,
                                   2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31))
    def test_character_lanes_decode_field_by_field(self, w):
        # Each prime k from 11 to 97 that w is prime to owns the next 2-bit
        # field of every lane, in order, and holds the character of X_n mod
        # k there: 0, 1 or 2 for zero, a nonzero square or a non-square.
        # The w * X_n lanes hold the same fields with 1 and 2 swapped where
        # w is a non-square mod k.  No other bit of a lane is set.
        primes = SIEVE_MODULI[3:]
        rng = random.Random(w)
        streams = [bytes([0, 1] + [rng.randrange(k) for _ in range(198)]) for k in primes]
        lanes = classifier._character_lanes(list(zip(primes, streams)), w)
        owners = [(k, stream) for k, stream in zip(primes, streams) if w % k]
        for k, _ in owners:
            squares = naive_squares_mod(k)
            assert arith._character_table(k) == bytes(
                0 if r == 0 else 1 if r in squares else 2 for r in range(k)).ljust(256, b"\0")
        width = 2 * len(owners)
        assert (lanes.of_x.format, len(lanes.of_x), len(lanes.of_wx)) == ("Q", 200, 8 * 200)
        assert lanes.fields == sum(1 << 64 * n + 2 * i for n in range(classifier._PART)
                                   for i in range(len(owners)))
        assert classifier._TOPS == sum(1 << 64 * n + 63 for n in range(classifier._PART))
        for n in range(200):
            of_x = int.from_bytes(lanes.of_x[n:n + 1], "little")
            of_wx = int.from_bytes(lanes.of_wx[8 * n:8 * n + 8], "little")
            assert of_x >> width == of_wx >> width == 0, (w, n)
            for i, (k, stream) in enumerate(owners):
                character = arith._character_table(k)[stream[n]]
                flipped = w % k not in naive_squares_mod(k)
                assert of_x >> 2 * i & 3 == character, (w, n, k)
                assert of_wx >> 2 * i & 3 == ((3 - character) % 3 if flipped else character), (
                    w, n, k)

    def test_the_lane_test_keeps_each_lane_to_itself(self):
        # With w = 1, X_m 0 mod the primes at even places of 11..97 (11, 19,
        # 29, ...) and a non-square mod the others, pair j fails iff X_n is
        # a nonzero square mod one of the others.  A lane with only the top
        # field (97) bad, only the lowest one that can be (17) or every
        # field bad fails, and the good lanes between them pass: X_n = X_m,
        # whose fields XOR to 0, and X_n a nonzero square at even places
        # and 0 at odd ones, whose fields XOR to 1 and 2 by turns.
        primes = SIEVE_MODULI[3:]
        non_square = {k: min(r for r in range(1, k) if r not in naive_squares_mod(k))
                      for k in primes}
        x_m = {k: non_square[k] if i % 2 else 0 for i, k in enumerate(primes)}
        shapes = {"good 0": x_m, "good 1, 2": {k: 0 if i % 2 else 1 for i, k in enumerate(primes)},
                  "top": {**x_m, 97: 1}, "low": {**x_m, 17: 1},
                  "all": dict.fromkeys(primes, 1)}
        order = ["all", "good 0", "top", "good 1, 2", "good 1, 2", "low", "good 0", "all",
                 "top", "all", "good 1, 2"]
        # X_m at 1..11; X_n at n = 12 + 2j is order[j].
        values = [x_m] * 12 + [shapes[shape] for shape in order for _ in "ab"]
        streams = [bytes(value[k] for value in values) for k in primes]
        lanes = classifier._character_lanes(list(zip(primes, streams)), 1)
        good = [j for j, shape in enumerate(order) if shape.startswith("good")]
        want = sum(1 << 64 * j + 63 for j in good)
        ns = range(12, 34, 2)
        assert classifier._prime_passes(lanes, range(1, 12), ns) == want
        assert classifier._prime_passes(lanes, range(5, 6), ns) == want
        assert classifier._pair_survivors(lanes, [], range(1, 12), ns, 1) == [
            (j + 1, ns[j]) for j in good]
        assert classifier._pair_survivors(lanes, [], range(5, 6), ns, 1) == [
            (5, ns[j]) for j in good]

    @pytest.mark.parametrize("w", (1, 2, 10**12 - 2))
    def test_long_runs_are_sieved_in_parts(self, w):
        # A run longer than `_PART` pairs is tested a part at a time, and
        # passes exactly the pairs whose product with w is a square mod all
        # 23 moduli, by `%` on the residues, in a run of one m and in a run
        # of the multiples 2m.  X_k is c_k * s**2 with c_k one of 1 and w,
        # so that w * X_m * X_n is w**2 times a square when c_m != c_n, and
        # its residue is random one time in 20, so that pairs pass and fail
        # in every part.
        rng = random.Random(w)
        size = 5 * classifier._PART
        classes = [rng.choice((1, w)) for _ in range(size)]
        streams = {q: bytes(rng.randrange(q) if rng.random() < 0.05
                            else c * rng.randrange(q) ** 2 % q for c in classes)
                   for q in SIEVE_MODULI}
        lanes = classifier._character_lanes([(q, streams[q]) for q in SIEVE_MODULI[3:]], w)

        def passes(m, n):
            return all(w * stream[m] * stream[n] % q in naive_squares_mod(q)
                       for q, stream in streams.items())

        for ms, ns in ((range(1, 2), range(2, size)),
                       (range(5, size // 2), range(10, size // 2 * 2, 2))):
            assert len(ns) > 2 * classifier._PART
            passed = classifier._pair_survivors(lanes, list(streams.values())[:3], ms, ns, w)
            want = [(m, n) for m, n in zip(ms if len(ms) > 1 else [ms[0]] * len(ns), ns)
                    if passes(m, n)]
            assert passed == want, (w, ms)
            parts = {(n - ns[0]) // ns.step // classifier._PART for _, n in want}
            assert parts == set(range(-(-len(ns) // classifier._PART))) and len(want) < len(ns)

    @pytest.mark.parametrize("w", (1, 2, 5, 10**12 - 2))
    def test_pairs_left_pass_what_the_composite_tables_pass(self, w):
        # After the prime moduli, each pair (X_m, X_n) left is tested mod
        # 64, 63 and 65: given no prime modulus, the two-term sieve's run
        # passes exactly the pairs whose product with w is a square mod all
        # three, in a run of the multiples k*m and in a run of one m.
        xs = naive_u_seq(7, 1, 301)
        streams = [bytes(x % q for x in xs) for q in SIEVE_MODULI[:3]]
        # X_n = 0 mod 11 for every n: every pair passes the one prime.
        lanes = classifier._character_lanes([(11, bytes(301))], w)

        def passes(m, n):
            return all(w * xs[m] * xs[n] % q in naive_squares_mod(q) for q in (64, 63, 65))

        for k in (2, 3, 5):
            ms, ns = range(10, 300 // k + 1), range(10 * k, 300 // k * k + 1, k)
            passed = classifier._pair_survivors(lanes, streams, ms, ns, w)
            want = [(m, k * m) for m in ms if passes(m, k * m)]
            assert passed == want and 0 < len(want) < len(ms), (w, k)
        for m in (10, 17):
            ns = range(m + 1, 301)
            passed = classifier._pair_survivors(lanes, streams, range(m, m + 1), ns, w)
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
