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
cross-check of the doubling path); `u_mod` and `v_mod` double
(U_k, U_{k+1}) without division entirely in modular arithmetic, so
congruences at indices like 10**6 never materialize the exact values.  The
exact and modular paths use different formulas, so comparing them compares
independent code.  `residue_range` is the modular twin of `seq_range`: the
same recurrence on integers below a fixed modulus, which the search uses to
sieve terms by their residues before any exact arithmetic.  Everything is arbitrary
precision and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    `seq_range` builds one pair per term and the shift sweep reads their
    fields millions of times, so both must be cheap.  Slots keep the reads
    fast, and the hand-written `__init__` fills them through the slot
    descriptors in about 0.6 of the time of the generated frozen one, which
    makes one `object.__setattr__` call per field.  (Filling the instance
    dict, as `CheckOutcome` does, builds as fast, but on Python 3.11 every
    later read is slower.)  It takes the same arguments, and `repr`, `==`,
    `hash`, `replace`, pickling and the frozen `__setattr__` are the
    dataclass ones.
    """

    n: int
    u: int
    v: int

    def __init__(self, n: int, u: int, v: int) -> None:
        _set_n(self, n)
        _set_u(self, u)
        _set_v(self, v)


_set_n, _set_u, _set_v = (IndexedPair.__dict__[name].__set__ for name in ("n", "u", "v"))


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


def _u_pair_mod(P: int, Q: int, n: int, modulus: int) -> tuple[int, int]:
    """Return (U_n mod modulus, U_{n+1} mod modulus) for n >= 0."""
    a, b = 0, 1 % modulus
    P %= modulus
    Q %= modulus
    for bit in bin(n)[2:]:
        c = a * (2 * b - P * a) % modulus
        d = (b * b + Q * a * a) % modulus
        if bit == "1":
            a, b = d, (P * d + Q * c) % modulus
        else:
            a, b = c, d
    return a, b


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


def u_mod(params: SequenceParams, n: int, modulus: int) -> int:
    """U_n mod modulus for n >= 0, computed entirely in modular arithmetic."""
    _check_modular_args(n, modulus)
    return _u_pair_mod(params.P, params.Q, n, modulus)[0]


def v_mod(params: SequenceParams, n: int, modulus: int) -> int:
    """V_n mod modulus for n >= 0, computed entirely in modular arithmetic."""
    _check_modular_args(n, modulus)
    a, b = _u_pair_mod(params.P, params.Q, n, modulus)
    return (2 * b - params.P * a) % modulus


def pair_mod(params: SequenceParams, n: int, modulus: int) -> ModularPair:
    """Both residues (U_n, V_n) mod modulus in one doubling pass, n >= 0."""
    _check_modular_args(n, modulus)
    a, b = _u_pair_mod(params.P, params.Q, n, modulus)
    return ModularPair(n, modulus, a, (2 * b - params.P * a) % modulus)


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
    integers below the modulus, seeded by one modular doubling at n_lo.  It
    yields bare tuples, in index order, so that a search can sieve every
    term by its residues for the cost of a few operations on numbers of the
    modulus's size (128 bits for the search's sieve), whatever the size of
    the exact term.
    """
    _check_modular_args(n_lo, modulus)
    _check_index(n_hi)
    if n_lo > n_hi:
        raise ValueError(f"empty range: n_lo={n_lo} > n_hi={n_hi}")
    P, Q = params.P, params.Q
    b, c = _u_pair_mod(P, Q, n_lo, modulus)
    a = Q * (c - P * b) % modulus  # U_{n_lo - 1}, since Q is its own inverse
    if Q == 1:
        for _ in range(n_lo, n_hi + 1):
            yield b, (c + a) % modulus
            a, b, c = b, c, (P * c + b) % modulus
    else:
        for _ in range(n_lo, n_hi + 1):
            yield b, (c - a) % modulus
            a, b, c = b, c, (P * c - b) % modulus
