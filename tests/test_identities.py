"""Identity and congruence checks: spec cases, error contracts, grid sweeps."""

import dataclasses
import hashlib
import inspect
import pickle

import pytest

from lucassquares import (
    CheckOutcome,
    SequenceParams,
    check_divisibility_by_5_and_3,
    check_divisibility_laws,
    check_gcd_u_v,
    check_jacobi_p2plus3,
    check_lucas_pow2_mod4,
    check_mod_p2_laws,
    check_product_identities,
    check_q_minus_one_triple,
    check_residue_minus_square_obstruction,
    check_shift_u_mod_u,
    check_shift_u_mod_v,
    check_shift_v_mod_u,
    check_shift_v_mod_v,
    check_v5n_factor,
    check_v_mod8_class,
)
from lucassquares import sequences
from lucassquares.sequences import IndexedPair

from _oracles import naive_u, naive_v

FIB = SequenceParams(1, 1)
P5 = SequenceParams(5, 1)

SHIFT_CHECKS = {
    "u-u": (check_shift_u_mod_u, False, False),
    "v-u": (check_shift_v_mod_u, False, True),
    "u-v": (check_shift_u_mod_v, True, False),
    "v-v": (check_shift_v_mod_v, True, True),
}


class TestCheckOutcome:
    def test_fields_and_defaults(self):
        fields = dataclasses.fields(CheckOutcome)
        assert [f.name for f in fields] == ["check_id", "inputs", "passed",
                                            "lhs", "rhs", "note"]
        assert [f.default for f in fields] == [dataclasses.MISSING] * 5 + [""]
        assert CheckOutcome("id", (1,), True, 2, 2).note == ""
        with pytest.raises(TypeError):
            CheckOutcome("id", (1,), True, 2)

    def test_value_semantics(self):
        a = CheckOutcome("id", (1, 2), False, 3, 4, "why")
        b = CheckOutcome(check_id="id", inputs=(1, 2), passed=False, lhs=3, rhs=4,
                         note="why")
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != dataclasses.replace(a, rhs=3)
        assert dataclasses.replace(a, passed=True, note="") == \
            CheckOutcome("id", (1, 2), True, 3, 4)
        assert dataclasses.astuple(a) == ("id", (1, 2), False, 3, 4, "why")
        assert pickle.loads(pickle.dumps(a)) == a
        assert repr(a) == ("CheckOutcome(check_id='id', inputs=(1, 2), passed=False, "
                           "lhs=3, rhs=4, note='why')")

    def test_frozen(self):
        outcome = CheckOutcome("id", (1,), True, 2, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.passed = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            del outcome.note
        assert outcome.passed is True and outcome.note == ""


class TestShiftCongruences:
    def test_worked_example_mod_u(self):
        # P = 5: U_2 = 5, index 2*2*1 + 1 = 5, V_5 = 3775, sign (+1).
        outcome = check_shift_v_mod_u(P5, 2, 1, 1)
        assert outcome.passed
        assert outcome.lhs == 3775 % 5 == 0
        assert outcome.rhs == 5 % 5

    def test_worked_example_mod_v(self):
        # P = 5: V_2 = 27, sign (-1)**((2+1)*1) = -1, so rhs = -V_1 mod 27.
        outcome = check_shift_v_mod_v(P5, 2, 1, 1)
        assert outcome.passed
        assert outcome.lhs == 3775 % 27 == 22
        assert outcome.rhs == (-5) % 27 == 22

    def test_all_four_at_example_point(self):
        for fn, _, _ in SHIFT_CHECKS.values():
            assert fn(P5, 2, 1, 1).passed

    @pytest.mark.parametrize("key", sorted(SHIFT_CHECKS))
    def test_signed_grid_against_exact_values(self, key):
        fn, mod_from_v, value_is_v = SHIFT_CHECKS[key]
        for p in (1, 2, 3, 5, 25):
            params = SequenceParams(p, 1)
            for m in range(-5, 6):
                if m == 0 and not mod_from_v:
                    continue
                for n in (-4, -1, 1, 3):
                    for r in range(-5, 6):
                        outcome = fn(params, m, n, r)
                        assert outcome.passed, (p, m, n, r, outcome)
                        base = naive_v(p, 1, m) if mod_from_v else naive_u(p, 1, m)
                        modulus = abs(base)
                        if modulus == 1:
                            continue
                        index = 2 * m * n + r
                        exact = (naive_v(p, 1, index) if value_is_v
                                 else naive_u(p, 1, index))
                        assert outcome.lhs == exact % modulus

    @pytest.mark.parametrize("key", sorted(SHIFT_CHECKS))
    def test_supplied_values_match_doubling(self, key):
        fn, mod_from_v, _ = SHIFT_CHECKS[key]
        trivial = 0
        for p in (1, 2, 3, 5, 25):
            params = SequenceParams(p, 1)
            values = {k: IndexedPair(k, naive_u(p, 1, k), naive_v(p, 1, k))
                      for k in range(-28, 29)}
            for m in range(-4, 5):
                if m == 0 and not mod_from_v:
                    continue
                for n in (-3, -1, 1, 2):
                    for r in range(-4, 5):
                        outcome = fn(params, m, n, r, values=values)
                        assert outcome == fn(params, m, n, r), (p, m, n, r)
                        trivial += "trivial" in outcome.note
        assert trivial

    def test_large_index_spot(self):
        big = 10**6
        for fn, _, _ in SHIFT_CHECKS.values():
            assert fn(P5, 12, big, 7).passed
            assert fn(P5, -3, -big, -2).passed

    def test_preconditions(self):
        for fn, mod_from_v, _ in SHIFT_CHECKS.values():
            with pytest.raises(ValueError, match=r"^shift congruences requires "
                               r"Q = 1, got Q = -1$"):
                fn(SequenceParams(4, -1), 2, 0, 1)
            with pytest.raises(ValueError,
                               match=r"^shift congruence requires a nonzero n$"):
                fn(FIB, 3, 0, 1)
            if not mod_from_v:
                with pytest.raises(ValueError, match=r"^shift congruence mod U_m "
                                   r"requires a nonzero m \(U_0 = 0\)$"):
                    fn(FIB, 0, 2, 1)

    @pytest.mark.parametrize("key, name, doc", [
        ("u-u", "check_shift_u_mod_u",
         "U_{2mn+r} = (-1)**(mn) * U_r (mod U_m), for Q = 1 and m, n nonzero."),
        ("v-u", "check_shift_v_mod_u",
         "V_{2mn+r} = (-1)**(mn) * V_r (mod U_m), for Q = 1 and m, n nonzero."),
        ("u-v", "check_shift_u_mod_v",
         "U_{2mn+r} = (-1)**((m+1)n) * U_r (mod V_m), for Q = 1 and n nonzero."),
        ("v-v", "check_shift_v_mod_v",
         "V_{2mn+r} = (-1)**((m+1)n) * V_r (mod V_m), for Q = 1 and n nonzero."),
    ])
    def test_public_surface(self, key, name, doc):
        fn = SHIFT_CHECKS[key][0]
        assert (fn.__name__, fn.__qualname__) == (name, name)
        assert fn.__module__ == "lucassquares.identities"
        assert fn.__doc__ == doc
        signature = inspect.signature(fn)
        assert str(signature) == (
            "(params: 'SequenceParams', m: 'int', n: 'int', r: 'int', *, "
            "values: 'Mapping[int, IndexedPair] | None' = None) -> 'CheckOutcome'")
        assert signature.parameters["values"].kind is inspect.Parameter.KEYWORD_ONLY
        with pytest.raises(TypeError):
            fn(FIB, 3, 1, 1, {})

    def test_m_zero_allowed_for_v_modulus(self):
        outcome = check_shift_u_mod_v(FIB, 0, 3, 1)
        assert outcome.passed
        assert outcome.inputs == (1, 1, 0, 3, 1)

    def test_unit_modulus_is_trivial_pass(self):
        outcome = check_shift_u_mod_u(FIB, 2, 5, 3)  # U_2(1,1) = 1
        assert outcome.passed
        assert outcome.note == "modulus |U_m| = 1; congruence is trivial"
        outcome = check_shift_u_mod_v(FIB, 1, 5, 3)  # V_1(1,1) = 1
        assert outcome.passed
        assert outcome.note == "modulus |V_m| = 1; congruence is trivial"


class TestProductIdentities:
    def test_ids_and_pass_on_grid(self):
        want_ids = ["double-u", "double-v", "discriminant",
                    "triple-u", "quintuple-u", "quintuple-v"]
        for p in range(1, 9):
            params = SequenceParams(p, 1)
            for n in range(-8, 9):
                outcomes = check_product_identities(params, n)
                assert [o.check_id for o in outcomes] == want_ids
                assert all(o.passed for o in outcomes)

    def test_doubling_values(self):
        outcomes = {o.check_id: o for o in check_product_identities(P5, 6)}
        assert outcomes["double-u"].lhs == naive_u(5, 1, 12) == 71351280
        assert outcomes["double-v"].lhs == naive_v(5, 1, 12) == 384238402
        assert outcomes["discriminant"].rhs == 4

    def test_rejects_q_minus_one(self):
        with pytest.raises(ValueError):
            check_product_identities(SequenceParams(3, -1), 2)

    def test_companion_triple(self):
        for p in range(3, 12):
            for n in range(-6, 7):
                outcome = check_q_minus_one_triple(p, n)
                assert outcome.passed
                assert outcome.check_id == "triple-u-companion"

    def test_companion_triple_rejects_degenerate_p(self):
        for p in (1, 2):
            with pytest.raises(ValueError):
                check_q_minus_one_triple(p, 2)


class TestV5nFactor:
    def test_worked_example(self):
        outcome = check_v5n_factor(P5, 1)
        assert outcome.passed
        assert outcome.lhs == 1 and outcome.rhs == 1
        assert outcome.note == "a = 30"

    def test_negative_and_larger_indices(self):
        for params in (P5, SequenceParams(10, 1), SequenceParams(15, 1)):
            for n in (-7, -1, 1, 3, 9, 11):
                assert check_v5n_factor(params, n).passed

    def test_a_v5n_that_5vn_does_not_divide_fails_with_its_remainder(self, monkeypatch):
        # A shadow V with V_5 = 3776 in place of 3775 = 5 * V_1 * 151.
        real = sequences.v
        monkeypatch.setattr(sequences, "v", lambda params, n: real(params, n) + (n == 5))
        assert check_v5n_factor(P5, 1) == CheckOutcome(
            "quintuple-v-factor", (5, 1, 1), False, 1, 0, "5 * V_n does not divide V_{5n}")

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_v5n_factor(SequenceParams(3, 1), 1)  # 5 does not divide P
        with pytest.raises(ValueError):
            check_v5n_factor(P5, 2)  # even n
        with pytest.raises(ValueError):
            check_v5n_factor(SequenceParams(5, -1), 1)  # Q = -1


class TestDivisibilityLaws:
    def test_grid(self):
        for p in range(1, 11):
            params = SequenceParams(p, 1)
            for m in range(1, 13):
                for n in range(1, 13):
                    for outcome in check_divisibility_laws(params, m, n):
                        assert outcome.passed, (p, m, n, outcome)

    def test_encoding_positive_case(self):
        # P = 1, m = 4, n = 12: U_4 = 3 divides U_12 = 144, and 4 | 12.
        outcomes = {o.check_id: o for o in check_divisibility_laws(FIB, 4, 12)}
        assert outcomes["u-divides-u"].lhs == 1
        assert outcomes["u-divides-u"].rhs == 1
        # V_4 = 7, V_12 = 322 = 7 * 46, and 12/4 = 3 is odd.
        assert outcomes["v-divides-v"].lhs == 1
        assert outcomes["v-divides-v"].rhs == 1

    def test_encoding_negative_case(self):
        # P = 1, m = 4, n = 8: 8/4 = 2 is even, and V_4 = 7 does not divide 47.
        outcomes = {o.check_id: o for o in check_divisibility_laws(FIB, 4, 8)}
        assert outcomes["v-divides-v"].lhs == 0
        assert outcomes["v-divides-v"].rhs == 0

    def test_degenerate_divisors_pass_trivially(self):
        outcomes = {o.check_id: o for o in check_divisibility_laws(FIB, 1, 5)}
        assert "divides every term" in outcomes["v-divides-v"].note  # V_1 = 1
        assert "divides every term" in outcomes["u-divides-u"].note  # U_1 = 1
        outcomes = {o.check_id: o
                    for o in check_divisibility_laws(SequenceParams(2, 1), 1, 5)}
        assert "divides every term" in outcomes["v-divides-v"].note  # V_1 = 2
        outcomes = {o.check_id: o for o in check_divisibility_laws(FIB, 2, 5)}
        assert "divides every term" in outcomes["u-divides-u"].note  # U_2 = 1

    def test_outcomes_are_pinned_field_for_field(self):
        # Every field of both laws' outcomes over P <= 11 and m, n <= 12
        # (1,584 calls), degenerate divisors and notes included.
        digest = hashlib.sha256()
        for p in range(1, 12):
            params = SequenceParams(p, 1)
            for m in range(1, 13):
                for n in range(1, 13):
                    for o in check_divisibility_laws(params, m, n):
                        fields = (o.check_id, o.inputs, o.passed, o.lhs, o.rhs, o.note)
                        digest.update(repr(fields).encode())
        assert digest.hexdigest() == (
            "4bbb0af03921b619cd7ac80c0ba765e32bd08e6248d652816a13b2a9577dffb0")

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_divisibility_laws(FIB, 0, 3)
        with pytest.raises(ValueError):
            check_divisibility_laws(SequenceParams(3, -1), 2, 4)

    def test_gcd_law(self):
        for p in (1, 3, 5, 7, 9, 11):
            params = SequenceParams(p, 1)
            for n in range(1, 31):
                outcome = check_gcd_u_v(params, n)
                assert outcome.passed
                assert outcome.rhs == (2 if n % 3 == 0 else 1)

    def test_gcd_law_rejects_even_p(self):
        with pytest.raises(ValueError):
            check_gcd_u_v(SequenceParams(2, 1), 3)

    def test_gcd_law_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="^the gcd law requires n >= 1, got n = 0$"):
            check_gcd_u_v(FIB, 0)


class TestResidueClasses:
    def test_v_mod8_representative_cases(self):
        assert check_v_mod8_class(1, 1, 1).lhs == 3   # L_2 = 3
        assert check_v_mod8_class(1, 2, 1).lhs == 7   # L_4 = 7
        assert check_v_mod8_class(1, 1, 3).lhs == 2   # L_6 = 18
        for p in (1, 3, 5, 7, 9, 11, 13, 15):
            for r in range(1, 6):
                for m in range(1, 10, 2):
                    assert check_v_mod8_class(p, r, m).passed

    def test_v_mod8_preconditions(self):
        with pytest.raises(ValueError):
            check_v_mod8_class(2, 1, 1)
        with pytest.raises(ValueError):
            check_v_mod8_class(1, 0, 1)
        with pytest.raises(ValueError):
            check_v_mod8_class(1, 1, 2)

    def test_mod_p2_values(self):
        outcomes = {o.check_id: o for o in check_mod_p2_laws(P5, 4)}
        assert outcomes["u-mod-p2"].lhs == 10  # U_4 = 135
        assert outcomes["u-mod-p2"].rhs == 10  # (4/2) * 5
        assert outcomes["v-mod-p2"].lhs == 2   # V_4 = 727
        for p in range(1, 13):
            params = SequenceParams(p, 1)
            for n in range(1, 21):
                assert all(o.passed for o in check_mod_p2_laws(params, n))

    def test_mod_p2_trivial_for_p1(self):
        outcomes = check_mod_p2_laws(FIB, 7)
        assert all(o.passed for o in outcomes)
        assert all("trivial" in o.note for o in outcomes)

    def test_mod_p2_preconditions(self):
        with pytest.raises(ValueError):
            check_mod_p2_laws(P5, 0)
        with pytest.raises(ValueError):
            check_mod_p2_laws(SequenceParams(3, -1), 2)

    def test_divides_5_3_encoding(self):
        outcome = check_divisibility_by_5_and_3(P5, 1)
        assert outcome.passed
        assert outcome.lhs == 4  # 5 | V_1 = 5 only
        outcome = check_divisibility_by_5_and_3(FIB, 4)
        assert outcome.passed
        assert outcome.lhs == 1  # 3 | F_4 = 3 only

    def test_divides_5_3_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="^requires n >= 1, got n = 0$"):
            check_divisibility_by_5_and_3(P5, 0)

    def test_divides_5_3_grid(self):
        for p in range(1, 26):
            params = SequenceParams(p, 1)
            for n in range(1, 25):
                assert check_divisibility_by_5_and_3(params, n).passed

    def test_lucas_pow2(self):
        for k in range(1, 17):
            outcome = check_lucas_pow2_mod4(k)
            assert outcome.passed
            assert outcome.lhs == 3
        with pytest.raises(ValueError):
            check_lucas_pow2_mod4(0)
        with pytest.raises(ValueError):
            check_lucas_pow2_mod4(63)

    def test_obstruction_witness_and_vacuous(self):
        witnessed = check_residue_minus_square_obstruction(5)
        assert witnessed.passed
        assert "witness x = 2" in witnessed.note
        vacuous = check_residue_minus_square_obstruction(3)
        assert vacuous.passed
        assert "vacuous" in vacuous.note
        assert check_residue_minus_square_obstruction(13).passed

    def test_obstruction_sweep_and_spots(self):
        for m in range(3, 2002, 2):
            assert check_residue_minus_square_obstruction(m).passed
        for m in (4001, 5003, 9999, 10001):
            assert check_residue_minus_square_obstruction(m).passed

    def test_obstruction_preconditions(self):
        with pytest.raises(ValueError):
            check_residue_minus_square_obstruction(4)
        with pytest.raises(ValueError):
            check_residue_minus_square_obstruction(1)

    def test_jacobi_symbol_check(self):
        # P = 1, r = 3: V_8 = 47, (4 / 47) = 1, and 47 = 2 (mod V_2 = 3).
        outcome = check_jacobi_p2plus3(1, 3)
        assert outcome.passed
        assert outcome.lhs == 1
        assert "= 2 (expected 2)" in outcome.note
        for p in (1, 3, 5, 7, 9, 11, 13, 15):
            for r in range(1, 9):
                assert check_jacobi_p2plus3(p, r).passed

    def test_jacobi_preconditions(self):
        with pytest.raises(ValueError):
            check_jacobi_p2plus3(2, 3)
        with pytest.raises(ValueError):
            check_jacobi_p2plus3(1, 0)
