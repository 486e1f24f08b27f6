"""Exact and modular evaluation of the Lucas sequence pair U_n(P, Q), V_n(P, Q).

The two sequences share the recurrence X_{n+2} = P*X_{n+1} + Q*X_n with
starting values U_0 = 0, U_1 = 1 and V_0 = 2, V_1 = P.  Parameters are
restricted to P >= 1 and Q in {1, -1} with positive discriminant
P**2 + 4*Q (this rejects exactly (P, Q) = (1, -1) and (2, -1)).

Negative indices are defined by

    U_{-n} = -U_n / (-Q)**n        V_{-n} = V_n / (-Q)**n

so for Q = 1 they read U_{-n} = (-1)**(n+1) * U_n, V_{-n} = (-1)**n * V_n,
and for Q = -1 simply U_{-n} = -U_n, V_{-n} = V_n.

`pair_at` evaluates (U_n, V_n) in O(log |n|) big-integer operations by
doubling (U_{k-1}, U_k) with two squarings per bit; `seq_range` streams
consecutive indices by the plain recurrence (and doubles as an independent
cross-check of the doubling path); `u_mod`, `v_mod` and `pair_mod` run a
ladder on (V_k, V_{k+1}) modulo D * modulus, D = P**2 + 4*Q, with one
squaring and one product per bit, which ends holding V_n and gives U_n by
one exact division by D, so congruences at indices like 10**18 never
materialize the exact values.  The exact and modular paths use different
formulas, so comparing them compares independent code.  `residue_range` is
the modular twin of `seq_range`: the same recurrence on integers below a
fixed modulus, which `seq --mod` prints.  `residue_period` gives one
period of U or of V modulo a small modulus as bytes, one per index from
n = 0, for the search's sieve, which translates it and tiles the result
over its candidates: each residue stream is periodic, and one period per
(modulus, P mod modulus, Q, sequence) is computed once, by that
sequence's own recurrence, and cached.  With Q = +-1 the period is 1, 2
or 4 times the rank of apparition (Wall, "Fibonacci series modulo m",
Amer. Math. Monthly 67, 1960), so it is often 2h with X_{n+h} = -X_n: the
recurrence stops at that anti-period h and the second half is the first
half negated, byte by byte.
Everything is arbitrary precision and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator

__all__ = [
    "INDEX_LIMIT",
    "SequenceParams",
    "IndexedPair",
    "ModularPair",
    "u",
    "v",
    "pair_at",
    "u_mod",
    "v_mod",
    "pair_mod",
    "seq_range",
    "residue_range",
    "residue_period",
]

# Indices must fit in a signed machine word; beyond that even the modular
# path is outside this toolkit's intended desk scale.
INDEX_LIMIT = 2**63


@dataclass(frozen=True)
class SequenceParams:
    """Parameter pair (P, Q) selecting one Lucas sequence family."""

    P: int
    Q: int

    def __post_init__(self) -> None:
        if any(isinstance(x, bool) or not isinstance(x, int) for x in (self.P, self.Q)):
            raise ValueError("P and Q must be integers")
        if self.P < 1:
            raise ValueError(f"P must be >= 1, got {self.P}")
        if self.Q not in (1, -1):
            raise ValueError(f"Q must be 1 or -1, got {self.Q}")
        if self.P * self.P + 4 * self.Q <= 0:
            raise ValueError(
                f"discriminant P**2 + 4*Q = {self.P * self.P + 4 * self.Q} "
                f"must be positive (P={self.P}, Q={self.Q} is rejected)"
            )

    @property
    def discriminant(self) -> int:
        """P**2 + 4*Q, always positive for valid parameters."""
        return self.P * self.P + 4 * self.Q


@dataclass(frozen=True, slots=True)
class IndexedPair:
    """One index n with its exact values U_n and V_n.

    Satisfies v**2 - (P**2 + 4*Q) * u**2 = 4 * (-Q)**n for the parameters
    it was produced under (the producer knows P and Q; the pair itself
    stores only the values).
    """

    n: int
    u: int
    v: int


@dataclass(frozen=True)
class ModularPair:
    """Residues of U_n and V_n modulo a fixed modulus >= 2."""

    n: int
    modulus: int
    u_res: int
    v_res: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if not (0 <= self.u_res < self.modulus and 0 <= self.v_res < self.modulus):
            raise ValueError("residues must lie in [0, modulus)")


def _check_index(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError("index must be an integer")
    if abs(n) >= INDEX_LIMIT:
        raise ValueError(f"index magnitude must be below 2**63, got {n}")


def _uv_pair(P: int, Q: int, n: int) -> tuple[int, int]:
    """Return (U_n, V_n) for n >= 0 by doubling (U_{k-1}, U_k), bits high first.

    Each bit squares both terms once and reads

        U_{2k-1} = U_k**2 + Q*U_{k-1}**2
        U_{2k+1} = (P**2 + 3*Q)*U_k**2 - U_{k-1}**2 - 2*Q*(-Q)**(k-1)
        U_{2k}   = (U_{2k+1} - Q*U_{2k-1}) / P,   an exact division,

    then keeps (U_{2k-1}, U_{2k}) on a 0 bit and (U_{2k}, U_{2k+1}) on a 1
    bit.  At the end V_n = P*U_n + 2*Q*U_{n-1}.  This is GMP's
    `mpz_fib2_ui` scheme with general P and Q; it starts from
    (U_{-1}, U_0) = (Q, 0).
    """
    E = P * P + 3 * Q
    a, b, two = Q, 0, -2  # U_{k-1}, U_k and 2*Q*(-Q)**(k-1) at k = 0
    for bit in bin(n)[2:]:
        s, t = b * b, a * a
        lo = s + t if Q == 1 else s - t                  # U_{2k-1}
        hi = E * s - t - two                             # U_{2k+1}
        mid = (hi - lo if Q == 1 else hi + lo) // P      # U_{2k}
        if bit == "1":
            a, b, two = mid, hi, 2 * Q  # k odd: (-Q)**(k-1) = 1
        else:
            a, b, two = lo, mid, -2     # k even: 2*Q*(-Q) = -2
    return b, P * b + 2 * Q * a


def _uv_pair_mod(P: int, Q: int, n: int, modulus: int) -> tuple[int, int]:
    """Return (U_n mod modulus, V_n mod modulus) for n >= 0.

    A ladder on V (Joye and Quisquater, "Efficient computation of full
    Lucas sequences", Electronics Letters 32, 1996): it carries
    (V_k, V_{k+1}) modulo M = D * modulus, D = P**2 + 4*Q, from (V_0, V_1)
    = (2, P), bits high first.  With s = (-Q)**k each bit computes

        V_{2k}   = V_k**2 - 2*s
        V_{2k+1} = V_k*V_{k+1} - P*s
        V_{2k+2} = V_{k+1}**2 - 2*s*(-Q)

    and keeps (V_{2k}, V_{2k+1}) on a 0 bit and (V_{2k+1}, V_{2k+2}) on a
    1 bit: one squaring and one product per bit.  The sign is -Q, not Q,
    because the roots of x**2 = P*x + Q multiply to -Q; and as Q = +-1,
    s is 1 after a 0 bit and -Q after a 1 bit.

    At the end V_n mod modulus is the ladder's V_n reduced once more, and
    D*U_n = 2*V_{n+1} - P*V_n.  That right-hand side is known modulo
    D * modulus, where D*U_n is congruent to D * (U_n mod modulus), a
    number in [0, M); so the reduced right-hand side is that number, and
    dividing it by D is exact and gives U_n mod modulus.  The exact
    `_uv_pair` doubles U instead, so the two paths share no formula.
    """
    D = P * P + 4 * Q
    M = D * modulus
    a, b, s = 2, P, 1  # V_k, V_{k+1} mod M and (-Q)**k, at k = 0
    for bit in bin(n)[2:]:
        c = (a * b - P * s) % M                     # V_{2k+1}
        if bit == "1":
            a, b, s = c, (b * b + 2 * Q * s) % M, -Q  # V_{2k+2}
        else:
            a, b, s = (a * a - 2 * s) % M, c, 1       # V_{2k}
    return (2 * b - P * a) % M // D, a % modulus


def pair_at(params: SequenceParams, n: int) -> IndexedPair:
    """Exact (U_n, V_n) at any integer index in O(log |n|) operations."""
    _check_index(n)
    k = abs(n)
    uk, vk = _uv_pair(params.P, params.Q, k)
    # U_{-k} = -U_k / (-Q)**k and V_{-k} = V_k / (-Q)**k, where (-Q)**k = -1
    # exactly when Q = 1 and k is odd.
    if n < 0 and (params.Q == -1 or k % 2 == 0):
        uk = -uk
    if n < 0 and params.Q == 1 and k % 2 == 1:
        vk = -vk
    return IndexedPair(n, uk, vk)


def u(params: SequenceParams, n: int) -> int:
    """Exact U_n at any integer index."""
    return pair_at(params, n).u


def v(params: SequenceParams, n: int) -> int:
    """Exact V_n at any integer index."""
    return pair_at(params, n).v


def _check_modular_args(n: int, modulus: int) -> None:
    _check_index(n)
    if n < 0:
        raise ValueError(f"modular evaluation requires n >= 0, got {n}")
    if not isinstance(modulus, int) or modulus < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {modulus}")


def pair_mod(params: SequenceParams, n: int, modulus: int) -> ModularPair:
    """Both residues (U_n, V_n) mod modulus from one modular ladder, n >= 0."""
    _check_modular_args(n, modulus)
    return ModularPair(n, modulus, *_uv_pair_mod(params.P, params.Q, n, modulus))


def u_mod(params: SequenceParams, n: int, modulus: int) -> int:
    """U_n mod modulus for n >= 0, computed entirely in modular arithmetic."""
    return pair_mod(params, n, modulus).u_res


def v_mod(params: SequenceParams, n: int, modulus: int) -> int:
    """V_n mod modulus for n >= 0, computed entirely in modular arithmetic."""
    return pair_mod(params, n, modulus).v_res


def seq_range(params: SequenceParams, n_lo: int, n_hi: int) -> Iterator[IndexedPair]:
    """Yield IndexedPair for every index from n_lo through n_hi inclusive.

    Values are produced by the plain three-term recurrence, which makes this
    the natural oracle against the doubling path and the cheapest way to
    tabulate a contiguous block of the sequence.  It carries U_{n-1}, U_n,
    U_{n+1} from one `pair_at` and reads V_n = U_{n+1} + Q*U_{n-1}, with the
    unit Q applied as an addition or a subtraction.
    """
    _check_index(n_lo)
    _check_index(n_hi)
    if n_lo > n_hi:
        raise ValueError(f"empty range: n_lo={n_lo} > n_hi={n_hi}")
    P, Q = params.P, params.Q
    first = pair_at(params, n_lo)
    b, c = first.u, (P * first.u + first.v) >> 1
    a = Q * (first.v - c)
    if Q == 1:
        for n in range(n_lo, n_hi + 1):
            yield IndexedPair(n, b, c + a)
            a, b, c = b, c, P * c + b
    else:
        for n in range(n_lo, n_hi + 1):
            yield IndexedPair(n, b, c - a)
            a, b, c = b, c, P * c - b


def residue_range(params: SequenceParams, n_lo: int, n_hi: int,
                  modulus: int) -> Iterator[tuple[int, int]]:
    """Yield (U_n mod modulus, V_n mod modulus) for n = n_lo .. n_hi, n_lo >= 0.

    The modular twin of `seq_range`: the same three-term recurrence on
    integers below the modulus, seeded by U at n_lo and at n_lo + 1 from
    the modular ladder, which also takes n_lo + 1 = 2**63.  It yields bare
    tuples, in index order, each for the cost of a few operations on
    numbers of the modulus's size, whatever the size of the exact term.
    `seq --mod` prints it; the search reads `residue_period`.
    """
    _check_modular_args(n_lo, modulus)
    _check_index(n_hi)
    if n_lo > n_hi:
        raise ValueError(f"empty range: n_lo={n_lo} > n_hi={n_hi}")
    P, Q = params.P, params.Q
    b = _uv_pair_mod(P, Q, n_lo, modulus)[0]
    c = _uv_pair_mod(P, Q, n_lo + 1, modulus)[0]
    a = Q * (c - P * b) % modulus  # U_{n_lo - 1}, since Q is its own inverse
    for _ in range(n_lo, n_hi + 1):
        yield b, (c + Q * a) % modulus
        a, b, c = b, c, (P * c + Q * b) % modulus


# 255, 254, ..., 0 twice: `_residue_period` slices its negation tables from it.
_COUNTDOWN = bytes(range(255, -1, -1)) * 2


@cache
def _residue_period(modulus: int, P: int, Q: int, sequence: str) -> bytes:
    """One period of U_n or V_n mod the modulus from n = 0, for P < modulus.

    Each sequence runs its own recurrence X_{n+2} = P*X_{n+1} + Q*X_n from
    its own start, (0, 1) for U and (2, P) for V.  Q = +-1 is a unit, so
    the step is invertible mod the modulus and the pair returns to its
    start: the stream is purely periodic.

    The loop also stops at the first h where the pair (X_h, X_{h+1}) is
    -(X_0, X_1) but not (X_0, X_1).  The recurrence is linear, so then
    X_{n+h} = -X_n for every n, the pair first returns to its start at 2h,
    and the period is the h bytes stepped so far followed by their
    negations, which one `translate` appends: the same bytes that stepping
    on to 2h would give.
    """
    a0, b0 = (0, 1) if sequence == "U" else (2 % modulus, P)
    na, nb = -a0 % modulus, -b0 % modulus
    out = bytearray((a0,))
    a, b = b0, (P * b0 + Q * a0) % modulus
    # Four int tests: about 1.7 times as fast as two tuple tests.
    while (a != a0 or b != b0) and (a != na or b != nb):
        out.append(a)
        a, b = b, (P * b + Q * a) % modulus
    if a != a0 or b != b0:
        # Entry r < modulus of the table is -r mod the modulus.
        out += out.translate(b"\0" + _COUNTDOWN[256 - modulus:511 - modulus])
    return bytes(out)


def residue_period(params: SequenceParams, modulus: int, sequence: str) -> bytes:
    """One period of X_n mod modulus from n = 0, one byte per index, X = U or V.

    `sequence` is "U" or "V" and the modulus is at most 256, so every
    residue fits a byte.  X_n mod modulus is byte n % len(period): the
    period is computed once per (modulus, P mod modulus, Q, sequence) by
    that sequence's own recurrence and cached, so a search cell gets its
    residues without a step per index.
    """
    if not isinstance(modulus, int) or not 2 <= modulus <= 256:
        raise ValueError(f"residue_period takes an integer modulus from 2 to 256, got {modulus}")
    if sequence not in ("U", "V"):
        raise ValueError(f"sequence must be 'U' or 'V', got {sequence!r}")
    return _residue_period(modulus, params.P % modulus, params.Q, sequence)
