"""Solvers for the Diophantine equations behind the square classifications.

Four equation families, each with a parametric generator and an independent
brute-force enumerator so that tests can require the two to agree:

- the Pell pair u**2 - 5*v**2 = +-1, solved by halved Lucas and Fibonacci
  numbers (L_{3z}/2, F_{3z}/2) with the sign determined by the parity of z;
- the binary form x**2 - 4*x*y - y**2 in {-5, -1}, solved by consecutive
  halved Lucas values (c = -5, z even) or Fibonacci values (c = -1, z odd);
- the Pell equation b**2 - 3*c**2 = 1, solved by the Q = -1 companion
  sequences at P = 4 via (b, c) = (V_m(4,-1)/2, U_m(4,-1));
- the three quartics x**4 + 3*x**2 + 1, x**4 - 3*x**2 + 1, and
  x**4 + 5*x**2 + 5, each tested for equality with 5*y**2 by direct scan.

Solution dataclasses validate their defining equation on construction, and
the parametric constructors check (rather than assume) that the halved
sequence values are integers.  Enumerators scan the smaller variable and
use exact square detection, so within their bounds they are complete.

The pell5, form and pell3 enumerators scan b for k*b**2 + c = s**2 over a
residue wheel: the b mod 64*63 for which k*b**2 + c is a quadratic residue
mod 64 and mod 63 (Cohen, *A Course in Computational Algebraic Number
Theory* (1993), §1.7.2), read from the tables the square test in `arith`
uses.  A square is a residue mod every modulus, so the wheel rejects no
square, and `math.isqrt` still decides every b it keeps.  It keeps 4.8% to
27% of the b values, by (k, c).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

from .arith import (_SQUARES_63, _SQUARES_64, _require_at_least, _require_int, _require_one_of,
                    square_witness)
from .sequences import SequenceParams, u as _seq_u, v as _seq_v

__all__ = [
    "PellSolution",
    "FormSolution",
    "QuarticSolution",
    "QUARTIC_VARIANTS",
    "quartic_polynomial",
    "pell5_family",
    "pell5_enumerate",
    "form_family",
    "form_enumerate",
    "pell3_family",
    "pell3_enumerate",
    "family_cover",
    "quartic_solutions",
]

_FIB = SequenceParams(1, 1)
_COMPANION4 = SequenceParams(4, -1)

# variant id -> (a, b) for the polynomial x**4 + a*x**2 + b, tested = 5*y**2
QUARTIC_VARIANTS = {
    "plus3": (3, 1),
    "minus3": (-3, 1),
    "plus5": (5, 5),
}


def quartic_polynomial(variant: str) -> str:
    """Human-readable equation for a quartic variant id."""
    a, b = _variant_coeffs(variant)
    sign = "+" if a >= 0 else "-"
    return f"x^4 {sign} {abs(a)}x^2 + {b} = 5y^2"


def _variant_coeffs(variant: str) -> tuple[int, int]:
    try:
        return QUARTIC_VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown quartic variant {variant!r}; "
            f"valid: {', '.join(sorted(QUARTIC_VARIANTS))}") from None


def _require_ints(**values: int | None) -> None:
    """`_require_int` on each keyword value; z alone may be None (no index)."""
    for name, value in values.items():
        if not (name == "z" and value is None):
            _require_int(name, value)


@dataclass(frozen=True)
class PellSolution:
    """A nonnegative solution of u**2 - 5*v**2 = +-1.

    `z` is the generating index when produced parametrically (u = L_{3z}/2,
    v = F_{3z}/2; z even gives +1, z odd gives -1) and None when found by
    enumeration.
    """

    u: int
    v: int
    z: int | None = None

    def __post_init__(self) -> None:
        _require_ints(u=self.u, v=self.v, z=self.z)
        sign = self.u * self.u - 5 * self.v * self.v
        if sign not in (1, -1):
            raise ValueError(f"({self.u}, {self.v}) does not solve u**2 - 5v**2 = +-1")
        if self.u < 0 or self.v < 0:
            raise ValueError("Pell solutions here are nonnegative")
        if self.z is not None:
            expected = 1 if self.z % 2 == 0 else -1
            if sign != expected:
                raise ValueError(
                    f"index z = {self.z} implies sign {expected}, got {sign}")

    @property
    def sign(self) -> int:
        return self.u * self.u - 5 * self.v * self.v


@dataclass(frozen=True)
class FormSolution:
    """A solution of x**2 - 4*x*y - y**2 = c with c in {-5, -1} and x, y >= 0."""

    x: int
    y: int
    c: int
    z: int | None = None

    def __post_init__(self) -> None:
        _require_ints(x=self.x, y=self.y, c=self.c, z=self.z)
        _require_one_of("c", self.c, (-5, -1), "-5 or -1")
        value = self.x * self.x - 4 * self.x * self.y - self.y * self.y
        if value != self.c:
            raise ValueError(
                f"({self.x}, {self.y}) gives {value}, not {self.c}")
        if self.z is not None:
            parity = 0 if self.c == -5 else 1
            if self.z % 2 != parity:
                raise ValueError(
                    f"c = {self.c} solutions carry z of parity {parity}, got z = {self.z}")


@dataclass(frozen=True)
class QuarticSolution:
    """A positive solution of one quartic variant equal to 5*y**2."""

    variant: str
    x: int
    y: int

    def __post_init__(self) -> None:
        _require_ints(x=self.x, y=self.y)
        a, b = _variant_coeffs(self.variant)
        x2 = self.x * self.x
        if x2 * x2 + a * x2 + b != 5 * self.y * self.y:
            raise ValueError(
                f"(x, y) = ({self.x}, {self.y}) does not solve {quartic_polynomial(self.variant)}")
        if self.x < 1 or self.y < 1:
            raise ValueError("quartic solutions here are positive")


def _half(value: int, what: str) -> int:
    """Exact halving with a loud failure, never silent truncation."""
    q, r = divmod(value, 2)
    if r:
        raise ArithmeticError(f"{what} = {value} is odd; expected an even value")
    return q


def _halved(name: str, k: int) -> int:
    """L_k / 2 (name "L") or F_k / 2 (name "F"), exactly."""
    return _half((_seq_v if name == "L" else _seq_u)(_FIB, k), f"{name}_{k}")


# k*b**2 + c mod 64 and mod 63 depends only on b mod 64 * 63.
_WHEEL = 64 * 63


@cache
def _wheel_offsets(k: int, c: int) -> tuple[int, ...]:
    """The o in [0, _WHEEL), ascending, with k*o**2 + c a square mod 64 and mod 63.

    k*b**2 + c can be a square only if b mod _WHEEL is one of them.
    """
    residues = ((o, k * o * o + c) for o in range(_WHEEL))
    return tuple(o for o, t in residues if _SQUARES_64[t % 64] and _SQUARES_63[t % 63])


def _square_scan(k: int, c: int, lo: int, bound: int) -> Iterator[tuple[int, int]]:
    """Yield (b, s) with k*b**2 + c = s**2 and s >= 0, for lo <= b <= bound in order.

    b steps over the wheel of `_wheel_offsets`, one period of _WHEEL at a
    time: a b whose k*b**2 + c is not a quadratic residue mod 64 and mod 63
    cannot give a square (Cohen 1993, §1.7.2), so it is skipped without
    `math.isqrt`.  A square is a residue mod every modulus, so the wheel
    rejects no square; every b it keeps still gets the exact test
    `s * s == t`.
    """
    offsets = _wheel_offsets(k, c)
    base = lo - lo % _WHEEL
    first = bisect_left(offsets, lo - base)
    while base <= bound:
        for offset in offsets[first:bisect_right(offsets, bound - base)]:
            b = base + offset
            t = k * b * b + c
            if t >= 0:
                s = math.isqrt(t)
                if s * s == t:
                    yield b, s
        base += _WHEEL
        first = 0


def pell5_family(sign: int, count: int) -> list[PellSolution]:
    """First `count` nonnegative solutions of u**2 - 5*v**2 = sign, parametric.

    Solutions are (L_{3z}/2, F_{3z}/2) in increasing u, with z running over
    the even integers >= 0 for sign +1 and the odd integers >= 1 for -1.
    """
    _require_one_of("sign", sign, (1, -1), "+1 or -1")
    _require_at_least("count", count, 1)
    first = 0 if sign == 1 else 1
    return [PellSolution(_halved("L", 3 * z), _halved("F", 3 * z), z)
            for z in range(first, first + 2 * count, 2)]


def pell5_enumerate(sign: int, v_bound: int) -> list[PellSolution]:
    """All solutions of u**2 - 5*v**2 = sign with 0 <= v <= v_bound, by scan."""
    _require_one_of("sign", sign, (1, -1), "+1 or -1")
    _require_at_least("v_bound", v_bound, 0)
    return [PellSolution(s, vv) for vv, s in _square_scan(5, sign, 0, v_bound)]


def form_family(c: int, count: int) -> list[FormSolution]:
    """First `count` parametric solutions of x**2 - 4*x*y - y**2 = c.

    For c = -5 the solutions are (L_{3z+3}/2, L_{3z}/2) with z even >= 0;
    for c = -1 they are (F_{3z+3}/2, F_{3z}/2) with z odd >= 1.
    """
    _require_one_of("c", c, (-5, -1), "-5 or -1")
    _require_at_least("count", count, 1)
    name, first = ("L", 0) if c == -5 else ("F", 1)
    return [FormSolution(_halved(name, 3 * z + 3), _halved(name, 3 * z), c, z)
            for z in range(first, first + 2 * count, 2)]


def form_enumerate(c: int, y_bound: int) -> list[FormSolution]:
    """All solutions of x**2 - 4*x*y - y**2 = c with x >= 1, 0 <= y <= y_bound.

    Completing the square gives (x - 2y)**2 = 5*y**2 + c, so each y is
    tested for 5*y**2 + c being a perfect square s**2, yielding x = 2y +- s.
    Only positive x are reported: the boundary solution (x, y) = (0, 1) of
    c = -1 is outside every parametric family and is deliberately excluded.
    """
    _require_one_of("c", c, (-5, -1), "-5 or -1")
    _require_at_least("y_bound", y_bound, 0)
    return [FormSolution(xx, yy, c) for yy, s in _square_scan(5, c, 0, y_bound)
            for xx in sorted({2 * yy + s, 2 * yy - s}) if xx >= 1]


def pell3_family(count: int) -> list[tuple[int, int]]:
    """First `count` positive solutions (b, c) of b**2 - 3*c**2 = 1.

    Generated from the Q = -1 companion pair at P = 4 as
    (b, c) = (V_m(4,-1)/2, U_m(4,-1)) for m = 1, 2, ...
    """
    _require_at_least("count", count, 1)
    out = []
    for m in range(1, count + 1):
        b = _half(_seq_v(_COMPANION4, m), f"V_{m}(4,-1)")
        cc = _seq_u(_COMPANION4, m)
        if b * b - 3 * cc * cc != 1:
            raise ArithmeticError(f"generated pair ({b}, {cc}) fails b**2 - 3c**2 = 1")
        out.append((b, cc))
    return out


def pell3_enumerate(c_bound: int) -> list[tuple[int, int]]:
    """All positive solutions of b**2 - 3*c**2 = 1 with 1 <= c <= c_bound."""
    _require_at_least("c_bound", c_bound, 0)
    return [(s, cc) for cc, s in _square_scan(3, 1, 1, c_bound)]


# equation -> (family(param, count), enumerate(param, bound), the (a, b)
# pair of a solution, whose b the bound limits).  The lambdas look the
# functions up at call time, so wrappers set on this module are seen.
_COVERS = {
    "pell5": (lambda sign, k: pell5_family(sign, k),
              lambda sign, bound: pell5_enumerate(sign, bound), lambda s: (s.u, s.v)),
    "form": (lambda c, k: form_family(c, k),
             lambda c, bound: form_enumerate(c, bound), lambda s: (s.x, s.y)),
    "pell3": (lambda _, k: pell3_family(k),
              lambda _, bound: pell3_enumerate(bound), tuple),
}


def family_cover(equation: str, param: int | None, count: int,
                 bound: int | None = None) -> tuple[list, int, set, set]:
    """Pair the parametric family of "pell5", "form" or "pell3" with its enumeration.

    `param` is the sign for pell5, c for form and None for pell3.  Returns
    the first `count` family members, the bound (by default the last
    member's v, y or c), and the (a, b) pairs with b <= bound from the family
    and from the enumeration.  The family is extended until a member lies
    past the bound, so a `count` smaller than the bound needs cannot show up
    as a disagreement.
    """
    try:
        family_fn, enumerate_fn, pair = _COVERS[equation]
    except (KeyError, TypeError):
        raise ValueError(f"unknown equation {equation!r}; "
                         f"valid: {', '.join(_COVERS)}") from None
    if equation == "pell3" and param is not None:
        raise ValueError(f"pell3 takes no param, so param must be None, got {param!r}")
    members = family_fn(param, count)
    if bound is None:
        bound = pair(members[-1])[1]
    _require_int("bound", bound)
    cover, size = members, count
    while pair(cover[-1])[1] <= bound:
        size += 1  # not len(cover) + 1: a family short of members must not loop
        cover = family_fn(param, size)
    family_pairs = {pair(s) for s in cover if pair(s)[1] <= bound}
    oracle_pairs = {pair(s) for s in enumerate_fn(param, bound)}
    return members, bound, family_pairs, oracle_pairs


def quartic_solutions(variant: str, x_bound: int) -> list[QuarticSolution]:
    """All positive solutions of the variant quartic = 5*y**2 with x <= x_bound."""
    a, b = _variant_coeffs(variant)
    _require_at_least("x_bound", x_bound, 1)
    out = []
    for x in range(1, x_bound + 1):
        x2 = x * x
        y = square_witness(x2 * x2 + a * x2 + b, 5)
        if y is not None and y >= 1:
            out.append(QuarticSolution(variant, x, y))
    return out
