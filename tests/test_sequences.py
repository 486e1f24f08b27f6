"""Sequence evaluation against independent recurrence walks."""

import dataclasses
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lucassquares import (
    INDEX_LIMIT,
    IndexedPair,
    ModularPair,
    SequenceParams,
    pair_at,
    pair_mod,
    residue_range,
    residue_stream,
    seq_range,
    u,
    u_mod,
    v,
    v_mod,
)
from lucassquares import sequences

from _oracles import (SIEVE_MODULI, mat_pow_mod, mat_pow_u, naive_u, naive_u_seq, naive_v,
                      naive_v_seq)


FIB = SequenceParams(1, 1)
P5 = SequenceParams(5, 1)


def stepped_period(modulus: int, P: int, Q: int, sequence: str) -> bytes:
    """One period of U_n or V_n mod the modulus, one recurrence step per term,
    until the pair (X_n, X_{n+1}) is back at its start."""
    a0, b0 = (0, 1) if sequence == "U" else (2 % modulus, P)
    out = bytearray((a0,))
    a, b = b0, (P * b0 + Q * a0) % modulus
    while a != a0 or b != b0:
        out.append(a)
        a, b = b, (P * b + Q * a) % modulus
    return bytes(out)


def stops_at_anti_period(period: bytes, modulus: int) -> bool:
    """True iff the pair (X_h, X_{h+1}) is -(X_0, X_1), and not (X_0, X_1),
    at some h inside the period."""
    pairs = [(period[n], period[(n + 1) % len(period)]) for n in range(len(period))]
    negated = tuple(-x % modulus for x in pairs[0])
    return negated != pairs[0] and negated in pairs


def valid_params() -> list[SequenceParams]:
    out = []
    for p in range(1, 51):
        out.append(SequenceParams(p, 1))
        if p >= 3:
            out.append(SequenceParams(p, -1))
    return out


class TestValidation:
    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            SequenceParams(0, 1)
        with pytest.raises(ValueError):
            SequenceParams(-3, 1)

    def test_rejects_q_outside_units(self):
        for q in (0, 2, -2, 5):
            with pytest.raises(ValueError):
                SequenceParams(3, q)

    def test_rejects_nonpositive_discriminant(self):
        with pytest.raises(ValueError):
            SequenceParams(1, -1)
        with pytest.raises(ValueError):
            SequenceParams(2, -1)

    def test_rejects_non_integers(self):
        for P, Q in ((1.0, 1), (1, 1.0), (True, 1), (5, True)):
            with pytest.raises(ValueError, match="P and Q must be integers"):
                SequenceParams(P, Q)

    @pytest.mark.parametrize("call", [
        lambda: pair_at(P5, True),
        lambda: u(P5, False),
        lambda: list(seq_range(P5, False, 3)),
        lambda: list(seq_range(P5, 0, True)),
        lambda: u_mod(P5, True, 7),
        lambda: v_mod(P5, False, 7),
        lambda: pair_mod(P5, True, 7),
    ], ids=["pair_at", "u", "seq_range-lo", "seq_range-hi", "u_mod", "v_mod", "pair_mod"])
    def test_rejects_bool_index(self, call):
        with pytest.raises(ValueError, match="index must be an integer"):
            call()

    def test_smallest_q_minus_one_case_is_p3(self):
        assert SequenceParams(3, -1).discriminant == 5

    def test_discriminant(self):
        assert FIB.discriminant == 5
        assert SequenceParams(4, -1).discriminant == 12
        assert P5.discriminant == 29

    def test_index_cap(self):
        with pytest.raises(ValueError):
            u(FIB, INDEX_LIMIT)
        with pytest.raises(ValueError):
            u(FIB, -INDEX_LIMIT)
        assert u_mod(FIB, INDEX_LIMIT - 1, 97) == pow_free_check()


def pow_free_check() -> int:
    """Independent value of F_{2**63 - 1} mod 97 via the Pisano period."""
    seq = [0, 1]
    while True:
        seq.append((seq[-1] + seq[-2]) % 97)
        if seq[-2] == 0 and seq[-1] == 1 and len(seq) > 2:
            break
    period = len(seq) - 2
    return seq[(INDEX_LIMIT - 1) % period]


class TestKnownValues:
    def test_fibonacci_lucas_at_12(self):
        assert u(FIB, 12) == 144
        assert v(FIB, 12) == 322

    def test_pair_at_p5(self):
        assert pair_at(P5, 12) == IndexedPair(12, 71351280, 384238402)

    def test_u_series_p5(self):
        want = [0, 1, 5, 26, 135, 701, 3640, 18901, 98145, 509626,
                2646275, 13741001, 71351280]
        assert [u(P5, n) for n in range(13)] == want

    def test_negative_index(self):
        assert u(SequenceParams(3, 1), -4) == -33
        assert v(SequenceParams(3, 1), -4) == 119
        assert u(FIB, -1) == 1
        assert u(FIB, -2) == -1
        assert v(FIB, -3) == -4

    def test_modular_examples(self):
        assert u_mod(FIB, 12, 10) == 4
        assert u_mod(P5, 4, 25) == 10
        assert v_mod(P5, 3, 25) == 15
        assert pair_mod(P5, 4, 25) == ModularPair(4, 25, 10, 2)


class TestAgainstOracles:
    @pytest.mark.parametrize("params", valid_params(), ids=str)
    def test_signed_grid(self, params):
        for n in range(-64, 65):
            assert u(params, n) == naive_u(params.P, params.Q, n)
            assert v(params, n) == naive_v(params.P, params.Q, n)

    def test_matrix_power_identity(self):
        for params in (FIB, P5, SequenceParams(4, -1), SequenceParams(9, -1)):
            for n in range(0, 201, 7):
                assert u(params, n) == mat_pow_u(params.P, params.Q, n)

    def test_seq_range_matches_naive(self):
        for params in (FIB, P5, SequenceParams(3, -1)):
            useq = naive_u_seq(params.P, params.Q, 40)
            vseq = naive_v_seq(params.P, params.Q, 40)
            pairs = list(seq_range(params, 0, 39))
            assert [p.n for p in pairs] == list(range(40))
            assert [p.u for p in pairs] == useq
            assert [p.v for p in pairs] == vseq

    def test_seq_range_negative_span(self):
        pairs = list(seq_range(FIB, -6, 6))
        for pair in pairs:
            assert pair.u == naive_u(1, 1, pair.n)
            assert pair.v == naive_v(1, 1, pair.n)

    def test_seq_range_rejects_empty(self):
        with pytest.raises(ValueError):
            list(seq_range(FIB, 5, 4))

    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(1, 30), q=st.sampled_from((1, -1)),
           lo=st.integers(-300, 300), k=st.integers(0, 40))
    def test_seq_range_matches_pair_at(self, p, q, lo, k):
        if q == -1 and p <= 2:
            return
        params = SequenceParams(p, q)
        pairs = list(seq_range(params, lo, lo + k))
        assert pairs == [pair_at(params, n) for n in range(lo, lo + k + 1)]

    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(1, 30), q=st.sampled_from((1, -1)),
           n=st.integers(-300, 300))
    def test_doubling_matches_walk(self, p, q, n):
        if q == -1 and p <= 2:
            return
        params = SequenceParams(p, q)
        assert u(params, n) == naive_u(p, q, n)
        assert v(params, n) == naive_v(p, q, n)

    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(1, 99), q=st.sampled_from((1, -1)), n=st.integers(0, 3000))
    @example(p=1, q=1, n=0)
    @example(p=1, q=1, n=1)
    @example(p=1, q=1, n=2)
    @example(p=3, q=-1, n=0)
    @example(p=3, q=-1, n=1)
    @example(p=3, q=-1, n=2)
    def test_doubling_matches_matrix_power(self, p, q, n):
        if q == -1 and p <= 2:
            return
        params = SequenceParams(p, q)
        want_u, want_next = mat_pow_u(p, q, n), mat_pow_u(p, q, n + 1)
        assert pair_at(params, n) == IndexedPair(n, want_u, 2 * want_next - p * want_u)

    @settings(max_examples=50, deadline=None)
    @given(p=st.integers(1, 99), q=st.sampled_from((1, -1)), n=st.integers(-3000, -1))
    def test_doubling_matches_walk_at_negative_indices(self, p, q, n):
        if q == -1 and p <= 2:
            return
        assert pair_at(SequenceParams(p, q), n) == IndexedPair(n, naive_u(p, q, n),
                                                               naive_v(p, q, n))

    @pytest.mark.parametrize("q", (1, -1))
    @pytest.mark.parametrize("n_lo", (-1, 0, 1, -1000))
    def test_seq_range_spans_match_walk(self, q, n_lo):
        for p in (3, 4, 50):
            pairs = list(seq_range(SequenceParams(p, q), n_lo, n_lo + 24))
            assert pairs == [IndexedPair(n, naive_u(p, q, n), naive_v(p, q, n))
                             for n in range(n_lo, n_lo + 25)]

    @pytest.mark.parametrize("p, q, n", [(1, 1, 10**5), (2, 1, 31_415), (50, -1, 27_183),
                                         (99, 1, 10**4 + 1), (99, -1, 65_537)])
    def test_exact_and_modular_doubling_agree_at_large_n(self, p, q, n):
        params = SequenceParams(p, q)
        pair = pair_at(params, n)
        for modulus in (10**9 + 7, 999_999_999_989):
            assert pair_mod(params, n, modulus) == ModularPair(
                n, modulus, pair.u % modulus, pair.v % modulus)


class TestModular:
    MODULI = (2, 3, 5, 7, 10, 25, 10**9 + 7)

    def test_consistent_with_exact(self):
        for params in (FIB, SequenceParams(2, 1), P5, SequenceParams(4, -1)):
            for n in range(0, 301):
                exact_u, exact_v = u(params, n), v(params, n)
                for modulus in self.MODULI:
                    assert u_mod(params, n, modulus) == exact_u % modulus
                    assert v_mod(params, n, modulus) == exact_v % modulus

    def test_large_index(self):
        modulus = 10**9 + 7
        want_u, want_v = 0, 2
        a, b = 0, 1
        for _ in range(10**6):
            a, b = b, (b + a) % modulus
        want_u = a
        want_v = (2 * b - a) % modulus
        assert u_mod(FIB, 10**6, modulus) == want_u
        assert v_mod(FIB, 10**6, modulus) == want_v

    @pytest.mark.parametrize("q", (1, -1))
    @pytest.mark.parametrize("p", (1, 2, 3, 4, 5, 12, 99, 998))
    def test_matches_the_matrix_power_mod(self, p, q):
        # The ladder works modulo D * m and divides by D, D = P**2 + 4*Q, so
        # the moduli include D, D**2 and 2*D, which share every factor of D,
        # and 5 at P = 1 and 24 at (P, Q) = (4, -1), where D is 5 and 12.
        # Even P also takes 2, 4 and 8, and every P the prime 2**107 - 1.
        # The indices are 0 to 64, 2**63 - 1 and 16 seeded ones below it.
        if q == -1 and p <= 2:
            return
        params = SequenceParams(p, q)
        rng = random.Random(p * q)
        indices = [*range(65), INDEX_LIMIT - 1,
                   *(rng.randrange(INDEX_LIMIT) for _ in range(16))]
        d = params.discriminant
        moduli = [d, d * d, 2 * d, 2**107 - 1]
        moduli += [5] if p == 1 else [24] if (p, q) == (4, -1) else []
        moduli += [2, 4, 8] if p % 2 == 0 else []
        for modulus in moduli:
            for n in indices:
                want_u, want_v = mat_pow_mod(p, q, n, modulus)
                assert u_mod(params, n, modulus) == want_u, (n, modulus)
                assert v_mod(params, n, modulus) == want_v, (n, modulus)
                assert pair_mod(params, n, modulus) == ModularPair(n, modulus, want_u, want_v)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            u_mod(FIB, -1, 7)
        with pytest.raises(ValueError):
            u_mod(FIB, 3, 1)
        with pytest.raises(ValueError):
            v_mod(FIB, 3, 0)
        with pytest.raises(ValueError):
            v_mod(FIB, 3, -5)

    def test_modular_pair_validates_ranges(self):
        with pytest.raises(ValueError):
            ModularPair(1, 10, 10, 0)
        with pytest.raises(ValueError):
            ModularPair(1, 10, 0, -1)

    def test_modulus_two_is_the_smallest(self):
        # Fibonacci and Lucas parity has period 3: F_n is even iff 3 | n,
        # and so is L_n.
        for n in range(12):
            parity = 0 if n % 3 == 0 else 1
            assert pair_mod(FIB, n, 2) == ModularPair(n, 2, parity, parity)
        assert ModularPair(5, 2, 1, 0).modulus == 2
        with pytest.raises(ValueError):
            ModularPair(0, 1, 0, 0)
        with pytest.raises(ValueError):
            pair_mod(FIB, 3, 1)


class TestIndexedPair:
    def test_value_semantics(self):
        # The hand-written __init__ keeps the dataclass's behaviour.
        a = IndexedPair(12, 144, 322)
        b = IndexedPair(n=12, u=144, v=322)
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != dataclasses.replace(a, v=323)
        assert dataclasses.astuple(a) == (12, 144, 322)
        assert pickle.loads(pickle.dumps(a)) == a
        assert repr(a) == "IndexedPair(n=12, u=144, v=322)"
        with pytest.raises(TypeError):
            IndexedPair(12, 144)


class TestResidueRange:
    # A 128-bit modulus, 64*63*65*11 * 17*19*...*37 * 41*43*...*97 (the
    # product of the search's sieve moduli); its first ten factors alone;
    # and two small moduli, one of them even.
    MODULI = (2_882_880 * 247_110_827 * 310_692_537_866_322_378_582_047,
              2_882_880 * 247_110_827, 97, 2)

    @pytest.mark.parametrize("q", (1, -1))
    @pytest.mark.parametrize("n_lo", (0, 1, 2, 7, 1000))
    def test_matches_pair_mod_at_every_index(self, q, n_lo):
        for p in (3, 4, 50, 99):
            params = SequenceParams(p, q)
            for modulus in self.MODULI:
                got = list(residue_range(params, n_lo, n_lo + 120, modulus))
                want = [pair_mod(params, n, modulus) for n in range(n_lo, n_lo + 121)]
                assert got == [(res.u_res, res.v_res) for res in want], (p, modulus)

    @pytest.mark.parametrize("q", (1, -1))
    def test_matches_the_exact_walk(self, q):
        # Independent of the modular ladder that seeds the stream with
        # U_{n_lo} and U_{n_lo + 1}, one ladder and one exact division by D
        # each.  At the multiples of D the numbers it divides reach up to
        # D * modulus - D.
        for p in (1, 2, 3, 5, 12) if q == 1 else (3, 5, 12):
            d = SequenceParams(p, q).discriminant
            useq, vseq = naive_u_seq(p, q, 1300), naive_v_seq(p, q, 1300)
            for modulus in (self.MODULI[0], d, d * d, 3 * d, d * (2**61 - 1)):
                for n_lo in (0, 1, 2, 7, 64, 999):
                    got = list(residue_range(SequenceParams(p, q), n_lo, n_lo + 300, modulus))
                    assert got == [(useq[n] % modulus, vseq[n] % modulus)
                                   for n in range(n_lo, n_lo + 301)], (p, modulus, n_lo)

    @pytest.mark.parametrize("q", (1, -1))
    @pytest.mark.parametrize("n_lo", (INDEX_LIMIT - 3, INDEX_LIMIT - 1))
    def test_reaches_the_largest_index(self, q, n_lo):
        # The seed reads U at n_lo + 1, here up to 2**63: one past the
        # largest index the public functions take.
        for p in (1, 3, 12) if q == 1 else (3, 12):
            d = SequenceParams(p, q).discriminant
            for modulus in (2, d, 2**61 - 1):
                got = list(residue_range(SequenceParams(p, q), n_lo, INDEX_LIMIT - 1, modulus))
                assert got == [mat_pow_mod(p, q, n, modulus)
                               for n in range(n_lo, INDEX_LIMIT)], (p, modulus)

    def test_single_index_and_bad_arguments(self):
        assert list(residue_range(P5, 12, 12, 10**9)) == [(71351280, v(P5, 12) % 10**9)]
        with pytest.raises(ValueError):
            list(residue_range(FIB, -1, 3, 7))
        with pytest.raises(ValueError):
            list(residue_range(FIB, 5, 4, 7))
        with pytest.raises(ValueError):
            list(residue_range(FIB, 0, 3, 1))
        with pytest.raises(ValueError):
            list(residue_range(FIB, 0, INDEX_LIMIT, 7))


class TestResiduePeriod:
    def test_matches_one_step_per_term(self):
        # Every class of P mod every sieve modulus and mod a few small and
        # byte-sized moduli, Q = +-1, U and V: the period built to its
        # anti-period and negated is the period stepped to its end.  Both
        # exits of the loop are reached.
        exits = {True: 0, False: 0}
        for modulus in SIEVE_MODULI + (2, 3, 4, 8, 128, 255, 256):
            for p in range(modulus):
                for q in (1, -1):
                    for sequence in "UV":
                        want = stepped_period(modulus, p, q, sequence)
                        got = sequences._residue_period.__wrapped__(modulus, p, q, sequence)
                        assert got == want, (modulus, p, q, sequence)
                        exits[stops_at_anti_period(want, modulus)] += 1
        assert exits[True] > 1000 and exits[False] > 1000, exits


class TestResidueStream:
    @pytest.mark.parametrize("q", (1, -1))
    def test_matches_residue_range_over_three_periods(self, q):
        # Every sieve modulus and every class of P mod it, U and V apart:
        # each stream, repeated from one cached period of its own
        # recurrence, is the recurrence's stream of that sequence for three
        # of its own periods.
        for side, sequence in enumerate("UV"):
            for modulus in SIEVE_MODULI:
                for p in range(modulus, 2 * modulus):
                    params = SequenceParams(p, q)
                    period = len(sequences._residue_period(modulus, p % modulus, q, sequence))
                    assert period <= 388
                    n_hi = 3 * period + 2
                    got = residue_stream(params, n_hi, modulus, sequence)
                    assert len(got) == n_hi + 1
                    want = [pair[side] for pair in residue_range(params, 0, n_hi, modulus)]
                    assert list(got) == want, (sequence, modulus, p)

    @pytest.mark.parametrize("q", (1, -1))
    def test_matches_pair_mod_at_sampled_indices(self, q):
        rng = random.Random(q)
        for modulus in SIEVE_MODULI + (2, 256):
            for p in (3, 4, 50, 99, 2 * modulus + 1):
                params = SequenceParams(p, q)
                us = residue_stream(params, 1000, modulus, "U")
                vs = residue_stream(params, 1000, modulus, "V")
                for n in rng.sample(range(1001), 25) + [0, 1, 1000]:
                    res = pair_mod(params, n, modulus)
                    assert (us[n], vs[n]) == (res.u_res, res.v_res), (modulus, p, n)
                # n_hi = 1 is shorter than one period unless P = 0 mod the
                # modulus and Q = 1, where U repeats 0, 1 with period 2.
                short = (residue_stream(params, 1, modulus, "U"),
                         residue_stream(params, 1, modulus, "V"))
                assert short == (us[:2], vs[:2]) == (bytes([0, 1 % modulus]),
                                                     bytes([2 % modulus, p % modulus]))

    def test_bad_arguments(self):
        assert residue_stream(P5, 0, 7, "U") == b"\x00"
        assert residue_stream(P5, 0, 7, "V") == b"\x02"
        for n_hi, modulus in ((-1, 7), (5, 1), (5, 257), (INDEX_LIMIT, 7)):
            with pytest.raises(ValueError):
                residue_stream(P5, n_hi, modulus, "U")
        for sequence in ("W", "u", "UV", None):
            with pytest.raises(ValueError, match="sequence must be 'U' or 'V'"):
                residue_stream(P5, 5, 7, sequence)


class TestImmutability:
    def test_frozen_dataclasses(self):
        pair = pair_at(FIB, 3)
        with pytest.raises(AttributeError):
            pair.u = 5
        with pytest.raises(AttributeError):
            del pair.v
        with pytest.raises(AttributeError):
            FIB.P = 2
