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
tables (6 in 715 of random non-squares) pay for `math.isqrt`.

The search sieves by the same test one modulus at a time, over the 23
moduli of `_SIEVE_MODULI`: 64, 63, 65, 11 and the primes 17 to 97.  For
each modulus q and class c = w mod q, `_sieve_table` is a 256-byte
`bytes.translate` table that maps X_n mod q to 1 when X_n * w can be a
square mod q and to 0 when it cannot, so one `translate` call marks a
whole one-term stream of residue bytes.  For a prime q, `_character_table`
maps X_n mod q to its quadratic character as one byte; a two-term search
packs those of every prime into one 64-bit lane per n and so tests a whole
run of pairs (X_m, X_n) at once, and it tests the few pairs left mod 64,
63 and 65 by `_square_residues`.  The tables are built on first use and
cached.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _square_residues(m: int) -> bytes:
    """Table t of length m with t[r] = 1 iff r is a square mod m.

    x and m - x have the same square, so x runs up to m // 2 only.
    """
    table = bytearray(m)
    for x in range(m // 2 + 1):
        table[x * x % m] = 1
    return bytes(table)


# 64 * 63 * 65 * 11: one reduction by it leaves every table's residue intact.
_RESIDUE_MODULUS = 2_882_880
_SQUARES_64, _SQUARES_63, _SQUARES_65, _SQUARES_11 = map(_square_residues, (64, 63, 65, 11))


def _is_residue(t: int) -> bool:
    """False if t, reduced mod 2,882,880, is a non-square mod 64, 63, 65 or 11."""
    return bool(_SQUARES_64[t & 63] and _SQUARES_63[t % 63]
                and _SQUARES_65[t % 65] and _SQUARES_11[t % 11])


# The search's sieve moduli, pairwise coprime, the ones that reject the most
# first; their product is a 128-bit number.
_SIEVE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37,
                 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


@functools.cache
def _sieve_table(q: int, c: int) -> bytes:
    """The `bytes.translate` table of A -> [A * c is a square mod q], 0 <= c < q.

    The one-term search tests A = X_n against C = w.  A solution
    A = C * x**2 makes A * C = (C * x)**2, a square mod every modulus
    whether or not C is a unit there, so a 0 at A mod q rejects n before any
    exact arithmetic.  Entry r < q is 1 or 0; the entries from q to 255 are
    never read.

    The table is sliced, not stepped: byte r * c of the squares table
    repeated c times is squares[r * c % q], so `(squares * c)[::c]` holds
    entries 0 to q - 1.  For c = 0 every entry is squares[0] = 1.
    """
    squares = _square_residues(q)
    table = (squares * c)[::c] if c else squares[:1] * q
    return table.ljust(256, b"\0")


# Maps each byte of `_square_residues` to a character: 1 (square) stays 1
# and 0 (non-square) becomes 2.
_SQUARE_TO_CHARACTER = bytes((2, 1)).ljust(256, b"\0")


@functools.cache
def _character_table(q: int) -> bytes:
    """The `bytes.translate` table of A -> the quadratic character of A mod a prime q.

    Entry r < q is 0, 1 or 2 as r is 0, a nonzero square or a non-square
    mod q.  For a unit c, the character of A * c is that of A with 1 and 2
    swapped when c is a non-square, so w * X_m * X_n is a square mod q iff
    the characters of w * X_m and of X_n do not XOR to 3, just as
    `_sieve_table(q, w * X_m % q)[X_n % q]` would say.
    """
    return (b"\0" + _square_residues(q)[1:].translate(_SQUARE_TO_CHARACTER)).ljust(256, b"\0")


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
