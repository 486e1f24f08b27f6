"""Identity and congruence lemmas as executable predicates.

Every function returns one or more `CheckOutcome` values carrying the two
compared sides and a pass/fail flag, so sweeping a parameter grid yields a
complete, witnessed record.  Congruences are compared after reduction into
[0, modulus), which removes the sign ambiguity of terms like (-1)**(m*n).

The checks cover four groups:

- shift congruences: U and V at index 2*m*n + r reduced mod U_m or V_m,
  with the parity-derived sign, from the modular V ladder (`u_mod`,
  `v_mod`) or from exact values the caller supplies (`values=`).  The four
  public checks are built by one factory, so each runs as a single function;
- product identities: the doubling, tripling, and quintupling formulas and
  the discriminant identity V_n**2 - (P**2+4)*U_n**2 = 4*(-1)**n (Q = 1),
  plus the Q = -1 tripling companion and the factor law for V_{5n} when
  5 divides P;
- divisibility and gcd laws: V_m | V_n iff m | n with odd quotient, U_m |
  U_n iff m | n, and gcd(U_n, V_n) in {1, 2} by whether 3 | n;
- residue classes: V mod 8, U and V mod P**2, divisibility of U_n and V_n
  by 5 and 3, Lucas numbers L_{2**k} mod 4, the "x**2 = -a**2 (mod m)
  forces m = 1 (mod 4)" obstruction, and the Jacobi symbol of P**2 + 3
  against V_{2**r}.

All sequence values are obtained through the `sequences` module namespace,
so substituting a shadow engine there (as the fault-injection tests do)
transparently redirects every check.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from . import arith, sequences
from .arith import _require_at_least
from .sequences import IndexedPair, SequenceParams

__all__ = [
    "CheckOutcome",
    "check_shift_u_mod_u",
    "check_shift_v_mod_u",
    "check_shift_u_mod_v",
    "check_shift_v_mod_v",
    "check_product_identities",
    "check_q_minus_one_triple",
    "check_v5n_factor",
    "divisor_indices",
    "check_divisibility_laws",
    "check_gcd_u_v",
    "check_v_mod8_class",
    "check_mod_p2_laws",
    "check_divisibility_by_5_and_3",
    "check_lucas_pow2_mod4",
    "check_residue_minus_square_obstruction",
    "check_jacobi_p2plus3",
]


@dataclass(frozen=True, init=False)
class CheckOutcome:
    """Result of one identity or congruence check.

    For equality and congruence checks, `passed` is exactly `lhs == rhs`
    (both already reduced for congruences).  For membership-style checks
    the two sides encode the compared predicates as small integers, with
    `note` explaining the encoding.

    The `__init__` is written by hand because the shift sweep builds about
    1.4 million of these.  It writes the six fields straight into the
    instance dict, where the generated frozen `__init__` makes one
    `object.__setattr__` call per field; that roughly halves the cost of a
    record.  It takes the same arguments, and `repr`, `==`, `hash`,
    `replace`, pickling and the frozen `__setattr__` are the dataclass ones.
    """

    check_id: str
    inputs: tuple[int, ...]
    passed: bool
    lhs: int
    rhs: int
    note: str = field(default="")

    def __init__(self, check_id: str, inputs: tuple[int, ...], passed: bool,
                 lhs: int, rhs: int, note: str = "") -> None:
        fields = self.__dict__
        fields["check_id"] = check_id
        fields["inputs"] = inputs
        fields["passed"] = passed
        fields["lhs"] = lhs
        fields["rhs"] = rhs
        fields["note"] = note


def _outcome(check_id: str, inputs: tuple[int, ...], lhs: int, rhs: int,
             note: str = "") -> CheckOutcome:
    return CheckOutcome(check_id, inputs, lhs == rhs, lhs, rhs, note)


def _trivial_pass(check_id: str, inputs: tuple[int, ...], note: str) -> CheckOutcome:
    return CheckOutcome(check_id, inputs, True, 0, 0, note)


def _require_q1(params: SequenceParams, what: str) -> None:
    if params.Q != 1:
        raise ValueError(f"{what} requires Q = 1, got Q = {params.Q}")


def _shift_check(name: str, check_id: str, mod_from_v: bool, value_is_v: bool,
                 doc: str):
    """Build the public shift check `name`, one frame per call.

    The check verifies X_{2mn+r} = sign * X_r (mod |Y_m|) where X is U or V
    (`value_is_v`), Y is U or V (`mod_from_v`), and sign is (-1)**(m*n)
    for a U-modulus and (-1)**((m+1)*n) for a V-modulus.

    Without `values`, Y_m and X_r are evaluated exactly and X_{2mn+r} by
    the modular V ladder (`sequences.u_mod`/`v_mod`) at k = |2mn+r|.  A
    negative index then takes the Q = 1 law U_{-k} = (-1)**(k+1) * U_k,
    V_{-k} = (-1)**k * V_k as one negation.
    With `values` (index -> IndexedPair, covering m, r and 2mn+r), the three
    exact values are read from it and reduced.
    """
    unit_note = (f"modulus |{'V' if mod_from_v else 'U'}_m| = 1; "
                 "congruence is trivial")

    def check(params: SequenceParams, m: int, n: int, r: int, *,
              values: Mapping[int, IndexedPair] | None = None,
              ) -> CheckOutcome:
        if params.Q != 1:
            raise ValueError(f"shift congruences requires Q = 1, got Q = {params.Q}")
        if n == 0:
            raise ValueError("shift congruence requires a nonzero n")
        if not mod_from_v and m == 0:
            raise ValueError("shift congruence mod U_m requires a nonzero m (U_0 = 0)")
        inputs = (params.P, params.Q, m, n, r)
        index = 2 * m * n + r
        if values is None:
            modulus = abs(sequences.v(params, m) if mod_from_v
                          else sequences.u(params, m))
            if modulus == 1:
                return _trivial_pass(check_id, inputs, unit_note)
            k = abs(index)
            if value_is_v:
                lhs = sequences.v_mod(params, k, modulus)
                base_r = sequences.v(params, r)
            else:
                lhs = sequences.u_mod(params, k, modulus)
                base_r = sequences.u(params, r)
            if index < 0 and k % 2 == value_is_v:  # V flips at odd k, U at even k
                lhs = -lhs % modulus
        else:
            at_m = values[m]
            modulus = abs(at_m.v if mod_from_v else at_m.u)
            if modulus == 1:
                return _trivial_pass(check_id, inputs, unit_note)
            at_index, at_r = values[index], values[r]
            lhs = (at_index.v if value_is_v else at_index.u) % modulus
            base_r = at_r.v if value_is_v else at_r.u
        odd_sign = ((m + 1) * n if mod_from_v else m * n) % 2
        rhs = (-base_r if odd_sign else base_r) % modulus
        return CheckOutcome(check_id, inputs, lhs == rhs, lhs, rhs)

    check.__name__ = check.__qualname__ = name
    check.__doc__ = doc
    return check


check_shift_u_mod_u = _shift_check(
    "check_shift_u_mod_u", "shift-u-mod-u", mod_from_v=False, value_is_v=False,
    doc="U_{2mn+r} = (-1)**(mn) * U_r (mod U_m), for Q = 1 and m, n nonzero.")
check_shift_v_mod_u = _shift_check(
    "check_shift_v_mod_u", "shift-v-mod-u", mod_from_v=False, value_is_v=True,
    doc="V_{2mn+r} = (-1)**(mn) * V_r (mod U_m), for Q = 1 and m, n nonzero.")
check_shift_u_mod_v = _shift_check(
    "check_shift_u_mod_v", "shift-u-mod-v", mod_from_v=True, value_is_v=False,
    doc="U_{2mn+r} = (-1)**((m+1)n) * U_r (mod V_m), for Q = 1 and n nonzero.")
check_shift_v_mod_v = _shift_check(
    "check_shift_v_mod_v", "shift-v-mod-v", mod_from_v=True, value_is_v=True,
    doc="V_{2mn+r} = (-1)**((m+1)n) * V_r (mod V_m), for Q = 1 and n nonzero.")


def check_product_identities(params: SequenceParams, n: int) -> list[CheckOutcome]:
    """The Q = 1 doubling, discriminant, tripling, and quintupling identities.

    Six outcomes, in order:

    - double-u:      U_{2n} = U_n * V_n
    - double-v:      V_{2n} = V_n**2 - 2*(-1)**n
    - discriminant:  V_n**2 - (P**2 + 4)*U_n**2 = 4*(-1)**n
    - triple-u:      U_{3n} = U_n * ((P**2+4)*U_n**2 + 3*(-1)**n)
    - quintuple-u:   U_{5n} = U_n * ((P**2+4)**2*U_n**4
                                     + 5*(-1)**n*(P**2+4)*U_n**2 + 5)
    - quintuple-v:   V_{5n} = V_n * (V_n**4 - 5*(-1)**n*V_n**2 + 5)
    """
    _require_q1(params, "product identities")
    inputs = (params.P, params.Q, n)
    un = sequences.u(params, n)
    vn = sequences.v(params, n)
    s = -1 if n % 2 else 1
    d = params.P * params.P + 4
    un2 = un * un
    vn2 = vn * vn
    return [
        _outcome("double-u", inputs, sequences.u(params, 2 * n), un * vn),
        _outcome("double-v", inputs, sequences.v(params, 2 * n), vn2 - 2 * s),
        _outcome("discriminant", inputs, vn2 - d * un2, 4 * s),
        _outcome("triple-u", inputs, sequences.u(params, 3 * n),
                 un * (d * un2 + 3 * s)),
        _outcome("quintuple-u", inputs, sequences.u(params, 5 * n),
                 un * (d * d * un2 * un2 + 5 * s * d * un2 + 5)),
        _outcome("quintuple-v", inputs, sequences.v(params, 5 * n),
                 vn * (vn2 * vn2 - 5 * s * vn2 + 5)),
    ]


def check_q_minus_one_triple(P: int, n: int) -> CheckOutcome:
    """U_{3n} = U_n * ((P**2 - 4)*U_n**2 + 3) for the Q = -1 companion, P >= 3."""
    params = SequenceParams(P, -1)
    inputs = (P, -1, n)
    un = sequences.u(params, n)
    lhs = sequences.u(params, 3 * n)
    rhs = un * ((P * P - 4) * un * un + 3)
    return _outcome("triple-u-companion", inputs, lhs, rhs)


def check_v5n_factor(params: SequenceParams, n: int) -> CheckOutcome:
    """V_{5n} = 5 * V_n * (5a + 1) for some integer a, when 5 | P and n is odd.

    Passes iff 5*V_n divides V_{5n} and the quotient is 1 mod 5; the witness
    a = (quotient - 1) / 5 is recorded in the note.
    """
    _require_q1(params, "the V_{5n} factor law")
    if params.P % 5 != 0:
        raise ValueError(f"the V_{{5n}} factor law requires 5 | P, got P = {params.P}")
    if n % 2 == 0:
        raise ValueError(f"the V_{{5n}} factor law requires odd n, got n = {n}")
    inputs = (params.P, params.Q, n)
    v5n = sequences.v(params, 5 * n)
    den = 5 * sequences.v(params, n)
    quotient, rem = divmod(v5n, den)
    if rem:
        return CheckOutcome("quintuple-v-factor", inputs, False, rem, 0,
                            "5 * V_n does not divide V_{5n}")
    return _outcome("quintuple-v-factor", inputs, quotient % 5, 1,
                    f"a = {(quotient - 1) // 5}")


def divisor_indices(m: int, n_max: int, v_law: bool) -> range:
    """The n <= n_max with X_m | X_n by the divisibility laws (Q = 1).

    U_m | U_n iff m | n when U_m != 1; V_m | V_n iff m | n with n/m odd when
    V_m > 2.  The two-term search prunes by this range, and
    check_divisibility_laws predicts by it."""
    return range(m, n_max + 1, 2 * m if v_law else m)


def check_divisibility_laws(params: SequenceParams, m: int, n: int) -> list[CheckOutcome]:
    """The two divisibility biconditionals, as membership checks.

    - v-divides-v: V_m | V_n iff (m | n and n/m is odd), asserted only when
      V_m > 2.  V_m = 1 divides everything, and V_m = 2 (which occurs at
      P = 2, m = 1, where every V_n is even) also divides every term, so
      both degenerate moduli pass trivially with an explanatory note.
    - u-divides-u: U_m | U_n iff m | n, asserted only when U_m != 1 (the
      classical guard: U_1 = 1, and U_2 = 1 when P = 1, divide everything).

    Both sides of each biconditional are encoded as 0/1 in lhs/rhs.
    """
    _require_q1(params, "divisibility laws")
    if m < 1 or n < 1:
        raise ValueError("divisibility laws require m >= 1 and n >= 1")
    inputs = (params.P, params.Q, m, n)
    outcomes = []
    # U_m >= 1 for Q = 1 and m >= 1, so U_m <= 1 is the guard U_m == 1.
    for check_id, letter, value, v_law, unit_max, rhs_text in (
            ("v-divides-v", "V", sequences.v, True, 2, "m | n with odd quotient"),
            ("u-divides-u", "U", sequences.u, False, 1, "m | n")):
        xm = value(params, m)
        if xm <= unit_max:
            outcomes.append(_trivial_pass(
                check_id, inputs,
                f"{letter}_m = {xm} divides every term; biconditional not asserted"))
        else:
            divides = 1 if value(params, n) % xm == 0 else 0
            predicted = 1 if n in divisor_indices(m, n, v_law) else 0
            outcomes.append(_outcome(
                check_id, inputs, divides, predicted,
                f"lhs: {letter}_m | {letter}_n; rhs: {rhs_text}"))
    return outcomes


def check_gcd_u_v(params: SequenceParams, n: int) -> CheckOutcome:
    """gcd(U_n, V_n) = 2 if 3 | n else 1, for odd P and Q = 1."""
    _require_q1(params, "the gcd law")
    if params.P % 2 == 0:
        raise ValueError(f"the gcd law requires odd P, got P = {params.P}")
    if n < 1:
        raise ValueError(f"the gcd law requires n >= 1, got n = {n}")
    inputs = (params.P, params.Q, n)
    lhs = math.gcd(sequences.u(params, n), sequences.v(params, n))
    rhs = 2 if n % 3 == 0 else 1
    return _outcome("gcd-u-v", inputs, lhs, rhs)


def check_v_mod8_class(P: int, r: int, m: int) -> CheckOutcome:
    """V_{2**r * m} mod 8 for odd P, r >= 1, odd m >= 1.

    The residue is 2 when 3 | m, 3 when 3 does not divide m and r = 1, and
    7 when 3 does not divide m and r > 1.
    """
    if P % 2 == 0:
        raise ValueError(f"the V mod 8 classes require odd P, got P = {P}")
    _require_at_least("r", r, 1)
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be an odd positive integer, got {m}")
    params = SequenceParams(P, 1)
    index = (1 << r) * m
    inputs = (P, r, m)
    lhs = sequences.v_mod(params, index, 8)
    if m % 3 == 0:
        rhs = 2
    elif r == 1:
        rhs = 3
    else:
        rhs = 7
    return _outcome("v-mod-8", inputs, lhs, rhs)


def check_mod_p2_laws(params: SequenceParams, n: int) -> list[CheckOutcome]:
    """U_n and V_n mod P**2, split by the parity of n (Q = 1, n >= 1).

    - u-mod-p2: U_n = (n/2)*P (mod P**2) for even n, U_n = 1 for odd n.
    - v-mod-p2: V_n = 2 (mod P**2) for even n, V_n = n*P for odd n.

    For P = 1 the modulus is 1 and both congruences are trivial.
    """
    _require_q1(params, "the mod P**2 laws")
    if n < 1:
        raise ValueError(f"the mod P**2 laws require n >= 1, got n = {n}")
    inputs = (params.P, params.Q, n)
    P = params.P
    modulus = P * P
    if modulus == 1:
        note = "modulus P**2 = 1; congruences are trivial"
        return [_trivial_pass("u-mod-p2", inputs, note),
                _trivial_pass("v-mod-p2", inputs, note)]
    u_res = sequences.u_mod(params, n, modulus)
    v_res = sequences.v_mod(params, n, modulus)
    if n % 2 == 0:
        u_expected = (n // 2) * P % modulus
        v_expected = 2 % modulus
    else:
        u_expected = 1 % modulus
        v_expected = n * P % modulus
    return [
        _outcome("u-mod-p2", inputs, u_res, u_expected),
        _outcome("v-mod-p2", inputs, v_res, v_expected),
    ]


def check_divisibility_by_5_and_3(params: SequenceParams, n: int) -> CheckOutcome:
    """Divisibility of V_n by 5 and of U_n by 5 and 3, against the case laws.

    The three predicted biconditionals (Q = 1, n >= 1):

    - 5 | V_n iff 5 | P and n is odd;
    - 5 | U_n iff 2 | n when 5 | P, iff 3 | n when P**2 = -1 (mod 5),
      iff 5 | n when P**2 = 1 (mod 5);
    - 3 | U_n iff 2 | n when 3 | P, iff 4 | n when 3 does not divide P.

    lhs and rhs pack the actual and predicted truth values as bits
    (4 * [5 | V_n] + 2 * [5 | U_n] + [3 | U_n]).
    """
    _require_q1(params, "the 5- and 3-divisibility laws")
    if n < 1:
        raise ValueError(f"requires n >= 1, got n = {n}")
    inputs = (params.P, params.Q, n)
    P = params.P
    u15 = sequences.u_mod(params, n, 15)
    v5 = sequences.v_mod(params, n, 5)
    actual_v5 = v5 == 0
    actual_u5 = u15 % 5 == 0
    actual_u3 = u15 % 3 == 0
    pred_v5 = P % 5 == 0 and n % 2 == 1
    if P % 5 == 0:
        pred_u5 = n % 2 == 0
    elif (P * P) % 5 == 4:
        pred_u5 = n % 3 == 0
    else:
        pred_u5 = n % 5 == 0
    pred_u3 = (n % 2 == 0) if P % 3 == 0 else (n % 4 == 0)
    lhs = 4 * actual_v5 + 2 * actual_u5 + actual_u3
    rhs = 4 * pred_v5 + 2 * pred_u5 + pred_u3
    return _outcome("divides-5-3", inputs, lhs, rhs,
                    "bits: (5 | V_n, 5 | U_n, 3 | U_n)")


def check_lucas_pow2_mod4(k: int) -> CheckOutcome:
    """L_{2**k} = 3 (mod 4) for k >= 1, via the modular V ladder (`sequences.v_mod`) only."""
    _require_at_least("k", k, 1)
    if k >= 63:
        raise ValueError(f"2**k exceeds the supported index range, got k = {k}")
    params = SequenceParams(1, 1)
    lhs = sequences.v_mod(params, 1 << k, 4)
    return _outcome("lucas-pow2-mod-4", (k,), lhs, 3)


def check_residue_minus_square_obstruction(m: int) -> CheckOutcome:
    """If x**2 = -a**2 (mod m) has a solution with gcd(a, m) = 1, then
    m = 1 (mod 4).  Checked exhaustively for odd m >= 3.

    Multiplying by the inverse square of a shows such a solution exists iff
    -1 is a quadratic residue mod m, so the scan tests whether m - 1 is in
    {x**2 mod m}.  When no witness exists the statement is vacuous and the
    check passes with lhs = rhs = 0; in particular, for m = 3 (mod 4) a
    passing check certifies that no x satisfies x**2 = -1 (mod m).
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be an odd integer >= 3, got {m}")
    target = m - 1
    witness = None
    for x in range(1, m // 2 + 1):
        if x * x % m == target:
            witness = x
            break
    if witness is None:
        return CheckOutcome(
            "minus-square-residue", (m,), True, 0, 0,
            "vacuous: -1 is not a quadratic residue mod m, so no x, a with "
            "gcd(a, m) = 1 satisfy x**2 = -a**2 (mod m)")
    return _outcome("minus-square-residue", (m,), m % 4, 1,
                    f"witness x = {witness} has x**2 = -1 (mod m)")


def check_jacobi_p2plus3(P: int, r: int) -> CheckOutcome:
    """The Jacobi symbol (P**2 + 3 / V_{2**r}) equals 1 for odd P, r >= 1.

    For r >= 3 the supporting congruence V_{2**r} = 2 (mod V_2) is verified
    in the same outcome (the note records the residue); V_{2**r} is odd for
    odd P because its index is not divisible by 3.
    """
    if P % 2 == 0:
        raise ValueError(f"requires odd P, got P = {P}")
    _require_at_least("r", r, 1)
    params = SequenceParams(P, 1)
    inputs = (P, r)
    modulus = sequences.v(params, 1 << r)
    symbol = arith.jacobi(P * P + 3, modulus)
    if r < 3:
        return _outcome("jacobi-p2-plus-3", inputs, symbol, 1)
    v2 = P * P + 2
    residue = sequences.v_mod(params, 1 << r, v2)
    supporting_ok = residue == 2 % v2
    note = f"V_{{2**r}} mod V_2 = {residue} (expected 2)"
    return CheckOutcome("jacobi-p2-plus-3", inputs,
                        symbol == 1 and supporting_ok, symbol, 1, note)
