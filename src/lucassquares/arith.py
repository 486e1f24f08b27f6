"""Integer square detection, w-square classification, and the Jacobi symbol.

These are the primitive predicates the verification harness is built on:
`square_witness` realizes every "equals w times a perfect square" test, and
`jacobi` evaluates the quadratic-residue symbol used by the residue-class
checks.  All functions are pure and arbitrary precision.

Nearly every value the searches test is not a square, so the square test
first rejects by quadratic residues mod 64, 63, 65 and 11, the filter of
Cohen, *A Course in Computational Algebraic Number Theory* (1993), §1.7.2,
also used by GMP's `mpz_perfect_square_p`.  A square is a residue mod every
modulus, so the filter rejects no square.  Only values that pass all four
tables (6 in 715 of random non-squares) pay for `math.isqrt`.  The same
tables, plus six more for the primes 17 to 37 and thirteen for the primes
41 to 97, let the search reject X_n = c * x**2 from the residue of X_n * c
mod their product, a 128-bit modulus, before any exact arithmetic on X_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SQUAREFREE_COEFFS",
    "SquareClass",
    "isqrt",
    "is_square",
    "square_witness",
    "square_class",
    "jacobi",
]

# The square-free coefficients the classification theorems range over.
SQUAREFREE_COEFFS = (1, 2, 3, 5, 6, 10, 15)


@dataclass(frozen=True)
class SquareClass:
    """A value written as w * x**2 with w square-free from SQUAREFREE_COEFFS."""

    w: int
    x: int

    def __post_init__(self) -> None:
        if self.w not in SQUAREFREE_COEFFS:
            raise ValueError(f"w must be one of {SQUAREFREE_COEFFS}, got {self.w}")
        if self.x < 0:
            raise ValueError(f"witness x must be nonnegative, got {self.x}")

    @property
    def value(self) -> int:
        return self.w * self.x * self.x


def _require_int(field: str, value: object) -> None:
    """Raise ValueError naming `field` unless `value` is an int (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")


def isqrt(n: int) -> int:
    """Floor of the square root of a nonnegative integer.

    The result r satisfies r**2 <= n < (r + 1)**2.  Negative input is an
    error rather than a value.
    """
    _require_int("n", n)
    if n < 0:
        raise ValueError(f"isqrt requires a nonnegative integer, got {n}")
    return math.isqrt(n)


def _square_residues(m: int) -> bytes:
    """Table t of length m with t[r] = 1 iff r is a square mod m."""
    squares = {x * x % m for x in range(m)}
    return bytes(r in squares for r in range(m))


# 64 * 63 * 65 * 11: one reduction by it leaves every table's residue intact.
_RESIDUE_MODULUS = 2_882_880
_SQUARES_64, _SQUARES_63, _SQUARES_65, _SQUARES_11 = map(_square_residues, (64, 63, 65, 11))

# 17 * 19 * 23 * 29 * 31 * 37 < 2**30: the second reduction of the product filter.
_RESIDUE_MODULUS_2 = 247_110_827
_SQUARES_17, _SQUARES_19, _SQUARES_23, _SQUARES_29, _SQUARES_31, _SQUARES_37 = map(
    _square_residues, (17, 19, 23, 29, 31, 37))


# 41 * 43 * ... * 97 < 2**79: the third reduction of the product filter.
_RESIDUE_MODULUS_3 = 310_692_537_866_322_378_582_047
(_SQUARES_41, _SQUARES_43, _SQUARES_47, _SQUARES_53, _SQUARES_59, _SQUARES_61,
 _SQUARES_67, _SQUARES_71, _SQUARES_73, _SQUARES_79, _SQUARES_83, _SQUARES_89,
 _SQUARES_97) = map(_square_residues, (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97))


def _is_residue(t: int) -> bool:
    """False if t, reduced mod 2,882,880, is a non-square mod 64, 63, 65 or 11."""
    return bool(_SQUARES_64[t & 63] and _SQUARES_63[t % 63]
                and _SQUARES_65[t % 65] and _SQUARES_11[t % 11])


def _is_residue_2(t: int) -> bool:
    """False if t, reduced mod 247,110,827, is a non-square mod 17, ..., 37."""
    return bool(_SQUARES_17[t % 17] and _SQUARES_19[t % 19] and _SQUARES_23[t % 23]
                and _SQUARES_29[t % 29] and _SQUARES_31[t % 31] and _SQUARES_37[t % 37])


def _is_residue_3(t: int) -> bool:
    """False if t, reduced mod 41 * 43 * ... * 97, is a non-square mod one of them."""
    return bool(_SQUARES_41[t % 41] and _SQUARES_43[t % 43] and _SQUARES_47[t % 47]
                and _SQUARES_53[t % 53] and _SQUARES_59[t % 59] and _SQUARES_61[t % 61]
                and _SQUARES_67[t % 67] and _SQUARES_71[t % 71] and _SQUARES_73[t % 73]
                and _SQUARES_79[t % 79] and _SQUARES_83[t % 83] and _SQUARES_89[t % 89]
                and _SQUARES_97[t % 97])


# The three residue moduli at once, a 128-bit number: the modulus of the
# search's residue stream.
_SIEVE_MODULUS = _RESIDUE_MODULUS * _RESIDUE_MODULUS_2 * _RESIDUE_MODULUS_3


def _product_may_be_square(a: int, c: int) -> bool:
    """False only if A * C is not a square; a and c are A and C mod _SIEVE_MODULUS.

    The search tests A = X_n against C = w (one-term) or C = w * X_m
    (two-term).  A solution A = C * x**2 makes A * C = (C * x)**2, a square
    mod every modulus whether or not C is a unit there, so False rejects n
    before any exact arithmetic, with no quotient and no modular inverse.
    The three stages run in turn, each only if the one before passes.
    """
    t = a * c % _SIEVE_MODULUS
    return (_is_residue(t % _RESIDUE_MODULUS) and _is_residue_2(t % _RESIDUE_MODULUS_2)
            and _is_residue_3(t % _RESIDUE_MODULUS_3))


def _square_root(q: int) -> int | None:
    """x with x * x == q for q >= 0, or None; residues first, then isqrt."""
    if not _is_residue(q % _RESIDUE_MODULUS):
        return None
    x = math.isqrt(q)
    return x if x * x == q else None


def is_square(n: int) -> bool:
    """True iff n is a perfect square (negative numbers never are)."""
    _require_int("n", n)
    return n >= 0 and _square_root(n) is not None


def square_witness(n: int, w: int) -> int | None:
    """Return x >= 0 with n = w * x**2 exactly, or None if no such x exists.

    Negative n yields None rather than an error so that search loops over
    signed expressions stay branch-free; n = 0 yields 0.  w must be a
    positive integer (it need not be square-free here; callers pass products
    like w * U_m when testing two-term equations).

    The quotient n / w is tested against the quadratic residues mod 64, 63,
    65 and 11 before `math.isqrt` (Cohen 1993, §1.7.2), so a non-square is
    usually rejected after one reduction and at most four table lookups.
    """
    _require_int("n", n)
    _require_int("w", w)
    if w < 1:
        raise ValueError(f"w must be a positive integer, got {w}")
    if n < 0:
        return None
    q, r = divmod(n, w)
    if r:
        return None
    return _square_root(q)


def square_class(n: int) -> SquareClass | None:
    """Classify n as w * x**2 for the smallest fitting w in SQUAREFREE_COEFFS.

    Returns None when n is negative or no coefficient from the fixed set
    fits.  For n >= 1 the representation is unique when it exists (the
    square-free part of n is unique); n = 0 classifies as (w=1, x=0).
    """
    _require_int("n", n)
    if n < 0:
        return None
    for w in SQUAREFREE_COEFFS:
        x = square_witness(n, w)
        if x is not None:
            return SquareClass(w, x)
    return None


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd positive n, in {-1, 0, 1}.

    Computed by the standard reciprocity loop: strip factors of two from the
    numerator (each contributing by n mod 8), swap with the quadratic
    reciprocity sign (n mod 4, a mod 4), and reduce.  (a / 1) = 1 by the
    empty-product convention; the value is 0 iff gcd(a, n) > 1.
    """
    _require_int("a", a)
    _require_int("n", n)
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"jacobi requires a positive odd n, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
