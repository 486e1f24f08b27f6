"""Pell equations, the binary quadratic form, and the quartic scans."""

import hashlib

import pytest

from lucassquares import (
    FormSolution,
    PellSolution,
    QuarticSolution,
    form_enumerate,
    form_family,
    pell3_enumerate,
    pell3_family,
    pell5_enumerate,
    pell5_family,
    quartic_polynomial,
    quartic_solutions,
)
from lucassquares import diophantine

from _oracles import naive_isqrt


class TestPell5:
    def test_family_minus(self):
        family = pell5_family(-1, 2)
        assert [(s.u, s.v) for s in family] == [(2, 1), (38, 17)]
        assert [s.z for s in family] == [1, 3]
        assert all(s.sign == -1 for s in family)

    def test_family_plus(self):
        family = pell5_family(1, 3)
        assert [(s.u, s.v) for s in family] == [(1, 0), (9, 4), (161, 72)]
        assert [s.z for s in family] == [0, 2, 4]
        assert all(s.sign == 1 for s in family)

    def test_enumerate_matches_family(self):
        assert [(s.u, s.v) for s in pell5_enumerate(-1, 20)] == [(2, 1), (38, 17)]
        assert [(s.u, s.v) for s in pell5_enumerate(1, 100)] == [(1, 0), (9, 4),
                                                                 (161, 72)]

    def test_deep_family_is_exact_and_increasing(self):
        family = pell5_family(-1, 100)
        assert all(s.sign == -1 for s in family)
        for a, b in zip(family, family[1:]):
            assert a.u < b.u and a.v < b.v
        family = pell5_family(1, 100)
        assert all(s.sign == 1 for s in family)

    def test_validation(self):
        with pytest.raises(ValueError):
            PellSolution(3, 1)
        with pytest.raises(ValueError):
            PellSolution(2, 1, z=2)  # odd-sign pair with an even index
        with pytest.raises(ValueError):
            PellSolution(-2, 1)
        with pytest.raises(ValueError):
            pell5_family(0, 3)
        with pytest.raises(ValueError):
            pell5_family(1, 0)
        with pytest.raises(ValueError):
            pell5_enumerate(2, 10)


class TestForm:
    def test_family_c_minus5(self):
        family = form_family(-5, 3)
        assert [(s.x, s.y) for s in family] == [(2, 1), (38, 9), (682, 161)]
        assert [s.z for s in family] == [0, 2, 4]

    def test_family_c_minus1(self):
        family = form_family(-1, 3)
        assert [(s.x, s.y) for s in family] == [(4, 1), (72, 17), (1292, 305)]
        assert [s.z for s in family] == [1, 3, 5]

    def test_enumerate_c_minus1_excludes_origin_boundary(self):
        # y = 1 gives (x - 2)**2 = 4, so x in {0, 4}; only x >= 1 is kept.
        assert [(s.x, s.y) for s in form_enumerate(-1, 20)] == [(4, 1), (72, 17)]

    def test_enumerate_c_minus5(self):
        assert [(s.x, s.y) for s in form_enumerate(-5, 10)] == [(2, 1), (38, 9)]

    def test_pythagorean_shape_of_candidates(self):
        # The c = -5 test value 5y**2 - 5 factors through the identity
        # (2y + 2)**2 + (4y - 1)**2 = 20y**2 + 5 for every y.
        for y in range(0, 2000):
            assert (2 * y + 2) ** 2 + (4 * y - 1) ** 2 == 20 * y * y + 5

    def test_validation(self):
        with pytest.raises(ValueError):
            FormSolution(5, 1, -1)
        with pytest.raises(ValueError):
            FormSolution(4, 1, -1, z=2)  # c = -1 carries odd z
        with pytest.raises(ValueError):
            FormSolution(2, 1, -3)
        with pytest.raises(ValueError):
            form_family(-3, 2)
        with pytest.raises(ValueError):
            form_enumerate(0, 10)


class TestPell3:
    def test_family(self):
        assert pell3_family(3) == [(2, 1), (7, 4), (26, 15)]

    def test_enumerate_agrees(self):
        assert pell3_enumerate(20) == [(2, 1), (7, 4), (26, 15)]
        family = pell3_family(8)
        bound = family[-1][1]
        assert pell3_enumerate(bound) == family

    def test_deep_family_exact(self):
        family = pell3_family(60)
        for b, c in family:
            assert b * b - 3 * c * c == 1
        for (b1, c1), (b2, c2) in zip(family, family[1:]):
            assert b1 < b2 and c1 < c2

    def test_validation(self):
        with pytest.raises(ValueError):
            pell3_family(0)
        with pytest.raises(ValueError):
            pell3_enumerate(-1)

    def test_an_odd_v_is_refused_not_halved(self, monkeypatch):
        # A shadow V_m(4, -1) one above the true, even value.
        real = diophantine._seq_v
        monkeypatch.setattr(diophantine, "_seq_v", lambda params, m: real(params, m) + 1)
        with pytest.raises(ArithmeticError, match=r"^V_1\(4,-1\) = 5 is odd; expected an even"):
            pell3_family(1)

    def test_a_generated_pair_off_the_equation_is_refused(self, monkeypatch):
        # A shadow U_m(4, -1) one above the true value: (2, 2) fails b**2 - 3c**2 = 1.
        real = diophantine._seq_u
        monkeypatch.setattr(diophantine, "_seq_u", lambda params, m: real(params, m) + 1)
        with pytest.raises(ArithmeticError,
                           match=r"^generated pair \(2, 2\) fails b\*\*2 - 3c\*\*2 = 1$"):
            pell3_family(1)


def _naive_roots(k, c, lo, bound):
    """(b, s) with k*b**2 + c = s**2 for lo <= b <= bound, by binary-search roots."""
    out = []
    for b in range(lo, bound + 1):
        t = k * b * b + c
        if t < 0:
            continue
        s = naive_isqrt(t)
        if s * s == t:
            out.append((b, s))
    return out


# The scan steps b over a wheel of period 64 * 63 = 4032; the bounds from
# WHEEL - 1 to 3 * WHEEL + WHEEL // 2 end on, next to and past its period
# boundaries, so the scan crosses up to three of them.
WHEEL = 64 * 63
ORACLE_BOUNDS = (0, 1, 4, 9, 17, 72, 161, 2000,
                 WHEEL - 1, WHEEL, WHEEL + 1, 2 * WHEEL + 17, 3 * WHEEL + WHEEL // 2)


@pytest.mark.parametrize("family, param, pin", [
    (pell5_family, 1, "82cf3107c46841ca0f23ac7ca9d4aba04627136795dde0673c5b254713b0045e"),
    (pell5_family, -1, "29d1107e8d3d47f0f720c51ddbb613904d5031f3cef6508b80bc92057e6b465e"),
    (form_family, -5, "31de671a4967757d4d70db156624f3e2b2d4b9f52d626c762d41c70aef5d659e"),
    (form_family, -1, "7cb03c1c9042b4a5062746265214752c33caa05f1449a60153e026273dfca52e"),
], ids=["pell5+1", "pell5-1", "form-5", "form-1"])
def test_families_are_pinned_member_for_member(family, param, pin):
    # Every field of the first 40 members, z included.
    text = repr([tuple(vars(s).values()) for s in family(param, 40)])
    assert hashlib.sha256(text.encode()).hexdigest() == pin


NON_INTEGER_CALLS = [
    (pell5_family, (1, True), "count"),
    (pell5_family, (-1, 2.0), "count"),
    (pell5_enumerate, (1, 10.5), "v_bound"),
    (form_family, (-5, True), "count"),
    (form_enumerate, (-1, 10.0), "y_bound"),
    (pell3_family, (3.0,), "count"),
    (pell3_enumerate, (True,), "c_bound"),
    (diophantine.family_cover, ("pell5", 1, 3, 2.5), "bound"),
    (diophantine.family_cover, ("pell3", None, True), "count"),
    (quartic_solutions, ("plus3", 20.0), "x_bound"),
    # A bool or a float sign or c once passed the membership tests: True
    # gave the +1 Pell family and -5.0 the c = -5 form family.
    (pell5_family, (True, 2), "sign"),
    (pell5_enumerate, (-1.0, 10), "sign"),
    (form_family, (-5.0, 1), "c"),
    (form_enumerate, (True, 10), "c"),
    (PellSolution, (2, True), "v"),
    (PellSolution, (2.0, 1), "u"),
    (PellSolution, (9, 4, 2.0), "z"),
    (FormSolution, (2, 1, -5.0), "c"),
    (FormSolution, (4, 1.0, -1), "y"),
    (FormSolution, (2, 1, -5, False), "z"),
    (QuarticSolution, ("plus3", 1.0, 1), "x"),
    (QuarticSolution, ("plus3", 1, True), "y"),
]


@pytest.mark.parametrize("fn, args, field", NON_INTEGER_CALLS,
                         ids=[f"{fn.__name__}{args}" for fn, args, _ in NON_INTEGER_CALLS])
def test_counts_and_bounds_refuse_non_integers_by_name(fn, args, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        fn(*args)


class TestEnumeratorsAgainstNaiveScan:
    @pytest.mark.parametrize("bound", ORACLE_BOUNDS)
    @pytest.mark.parametrize("sign", (1, -1))
    def test_pell5(self, sign, bound):
        expected = [PellSolution(s, b) for b, s in _naive_roots(5, sign, 0, bound)]
        assert pell5_enumerate(sign, bound) == expected
        assert all(solution.z is None for solution in expected)

    @pytest.mark.parametrize("bound", ORACLE_BOUNDS)
    @pytest.mark.parametrize("c", (-5, -1))
    def test_form(self, c, bound):
        expected = []
        for y, s in _naive_roots(5, c, 0, bound):
            for x in range(max(2 * y - s, 1), 2 * y + s + 1):
                if x * x - 4 * x * y - y * y == c:
                    expected.append(FormSolution(x, y, c))
        assert form_enumerate(c, bound) == expected
        assert all(solution.z is None for solution in expected)

    @pytest.mark.parametrize("bound", ORACLE_BOUNDS)
    def test_pell3(self, bound):
        assert pell3_enumerate(bound) == [(s, b) for b, s in _naive_roots(3, 1, 1, bound)]

    @pytest.mark.parametrize("k, c", ((5, 1), (5, -1), (5, -5), (3, 1)))
    def test_wheel_keeps_every_row_that_is_a_residue(self, k, c):
        squares = {m: {x * x % m for x in range(m)} for m in (64, 63)}
        expected = tuple(o for o in range(WHEEL)
                         if all((k * o * o + c) % m in sq for m, sq in squares.items()))
        assert diophantine._wheel_offsets(k, c) == expected

    @pytest.mark.parametrize("k, c", ((5, 1), (5, -1), (5, -5), (3, 1)))
    def test_square_scan_honours_lo_and_bound_across_periods(self, k, c):
        for lo in (0, 1, WHEEL - 1, WHEEL, WHEEL + 1, 2 * WHEEL - 3):
            for bound in (lo - 1, lo, WHEEL - 1, WHEEL, 2 * WHEEL + 1, 3 * WHEEL):
                assert list(diophantine._square_scan(k, c, lo, bound)) == \
                    _naive_roots(k, c, lo, bound), (lo, bound)

    def test_negative_rows_at_zero_and_the_c_minus1_boundary(self):
        # At b = 0 the scanned value is sign, c or 1: the negative ones have
        # no root and yield nothing.  c = -1 at y = 1 has roots x = 0 and 4.
        assert pell5_enumerate(-1, 0) == []
        assert pell5_enumerate(1, 0) == [PellSolution(1, 0)]
        assert form_enumerate(-5, 0) == form_enumerate(-1, 0) == []
        assert form_enumerate(-1, 1) == [FormSolution(4, 1, -1)]
        assert pell3_enumerate(0) == []


class TestFamilyCover:
    @pytest.mark.parametrize("equation", ["nope", "quartic", ["pell5"]])
    def test_rejects_an_unknown_equation(self, equation):
        with pytest.raises(ValueError, match="^unknown equation"):
            diophantine.family_cover(equation, 1, 2)

    @pytest.mark.parametrize("param", [7, "x", 1, False])
    def test_pell3_refuses_a_param(self, param):
        # pell3's family has no sign or c; a param there once went unread.
        with pytest.raises(ValueError, match=f"^pell3 takes no param, so param must be None, "
                                             f"got {param!r}$"):
            diophantine.family_cover("pell3", param, 3)

    def test_extends_the_family_past_an_explicit_bound(self):
        members, bound, family_pairs, oracle_pairs = diophantine.family_cover(
            "pell5", -1, 1, 1000)
        assert [(s.u, s.v) for s in members] == [(2, 1)]
        assert bound == 1000
        assert family_pairs == oracle_pairs == {(2, 1), (38, 17), (682, 305)}

    def test_default_bound_is_the_last_members_second_coordinate(self):
        members, bound, family_pairs, oracle_pairs = diophantine.family_cover(
            "pell3", None, 3)
        assert members == [(2, 1), (7, 4), (26, 15)]
        assert bound == 15
        assert family_pairs == oracle_pairs == set(members)
        _, bound, family_pairs, oracle_pairs = diophantine.family_cover("form", -1, 2)
        assert bound == 17
        assert family_pairs == oracle_pairs == {(4, 1), (72, 17)}

    def test_a_missing_member_shows_as_a_disagreement(self, monkeypatch):
        real = diophantine.pell5_family
        monkeypatch.setattr(diophantine, "pell5_family", lambda sign, count: [
            s for s in real(sign, count) if s.v != 17])
        _, _, family_pairs, oracle_pairs = diophantine.family_cover("pell5", -1, 1, 1000)
        assert oracle_pairs - family_pairs == {(38, 17)}


class TestQuartics:
    def test_plus3(self):
        solutions = quartic_solutions("plus3", 2000)
        assert [(s.x, s.y) for s in solutions] == [(1, 1)]

    def test_minus3(self):
        solutions = quartic_solutions("minus3", 2000)
        assert [(s.x, s.y) for s in solutions] == [(2, 1)]

    def test_plus5(self):
        assert quartic_solutions("plus5", 2000) == []

    def test_polynomial_rendering(self):
        assert quartic_polynomial("plus3") == "x^4 + 3x^2 + 1 = 5y^2"
        assert quartic_polynomial("minus3") == "x^4 - 3x^2 + 1 = 5y^2"
        assert quartic_polynomial("plus5") == "x^4 + 5x^2 + 5 = 5y^2"

    def test_validation(self):
        with pytest.raises(ValueError):
            quartic_solutions("cubed", 10)
        with pytest.raises(ValueError):
            quartic_solutions("plus3", 0)
        with pytest.raises(ValueError):
            QuarticSolution("plus3", 2, 1)
        with pytest.raises(ValueError):
            QuarticSolution("plus3", 1, 2)
        for x, y in ((-1, 1), (1, -1)):  # solutions, but not positive ones
            with pytest.raises(ValueError, match="^quartic solutions here are positive$"):
                QuarticSolution("plus3", x, y)
        assert QuarticSolution("minus3", 2, 1).y == 1
