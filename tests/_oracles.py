"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way (plain recurrences,
Newton and binary-search square roots, exhaustive double loops) so that
agreement with the package is meaningful.  Nothing imports from lucassquares.
"""

from __future__ import annotations

import functools


def naive_u_seq(P: int, Q: int, count: int) -> list[int]:
    """U_0 .. U_{count-1} by the forward recurrence."""
    seq = [0, 1]
    while len(seq) < count:
        seq.append(P * seq[-1] + Q * seq[-2])
    return seq[:count]


def naive_v_seq(P: int, Q: int, count: int) -> list[int]:
    """V_0 .. V_{count-1} by the forward recurrence."""
    seq = [2, P]
    while len(seq) < count:
        seq.append(P * seq[-1] + Q * seq[-2])
    return seq[:count]


def _extend_signed(P: int, Q: int, n: int, x0: int, x1: int) -> int:
    """X_n for any sign of n, from X_0, X_1, walking the recurrence.

    Backward steps use X_{k} = (X_{k+2} - P * X_{k+1}) // Q, which is exact
    because Q is a unit.
    """
    if n >= 0:
        a, b = x0, x1
        for _ in range(n):
            a, b = b, P * b + Q * a
        return a
    a, b = x0, x1  # values at indices 0 and 1
    for _ in range(-n):
        a, b = (b - P * a) // Q, a
    return a


def naive_u(P: int, Q: int, n: int) -> int:
    return _extend_signed(P, Q, n, 0, 1)


def naive_v(P: int, Q: int, n: int) -> int:
    return _extend_signed(P, Q, n, 2, P)


def mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_pow_u(P: int, Q: int, n: int) -> int:
    """U_n for n >= 0 from powers of the companion matrix [[P, Q], [1, 0]]."""
    result = ((1, 0), (0, 1))
    base = ((P, Q), (1, 0))
    k = n
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result[1][0]


def mat_pow_mod(P: int, Q: int, n: int, m: int) -> tuple[int, int]:
    """(U_n mod m, V_n mod m) for n >= 0 from the companion matrix power mod m.

    [[P, Q], [1, 0]]**n = [[U_{n+1}, Q*U_n], [U_n, Q*U_{n-1}]], so U_n is
    its lower left entry and V_n = U_{n+1} + Q*U_{n-1} its trace.  Every
    product is reduced mod m, by square-and-multiply on the bits of n.
    """
    result = ((1, 0), (0, 1))
    base = ((P % m, Q % m), (1, 0))
    k = n
    while k:
        if k & 1:
            result = tuple(tuple(x % m for x in row) for row in mat_mul(result, base))
        base = tuple(tuple(x % m for x in row) for row in mat_mul(base, base))
        k >>= 1
    return result[1][0] % m, (result[0][0] + result[1][1]) % m


def naive_isqrt(n: int) -> int:
    """Floor square root by Newton's iteration on integers.

    From x = 2**ceil(b / 2) above the root of a b-bit n, x -> (x + n // x)
    // 2 falls strictly until it reaches the floor root and then stops
    falling, so the search takes about log2(b) steps.
    """
    if n < 0:
        raise ValueError("negative")
    if n < 2:
        return n
    x = 1 << ((n.bit_length() + 1) // 2)
    while True:
        y = (x + n // x) // 2
        if y >= x:
            return x
        x = y


def bisect_isqrt(n: int) -> int:
    """Floor square root by binary search: the oracle of `naive_isqrt`.

    A b-bit n has its root in [2**((b - 1) // 2), 2**((b + 1) // 2)], so the
    search takes about b / 2 steps even for values of thousands of digits.
    """
    if n < 0:
        raise ValueError("negative")
    if n < 2:
        return n
    b = n.bit_length()
    lo, hi = 1 << ((b - 1) // 2), 1 << ((b + 1) // 2)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid * mid <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def naive_square_witness(value: int, w: int):
    """x with value == w * x**2, or None."""
    if value < 0 or value % w != 0:
        return None
    quotient = value // w
    root = naive_isqrt(quotient)
    return root if root * root == quotient else None


def naive_search_one_term(family: str, P: int, w: int, n_max: int):
    """(P, n, x) triples with X_n(P, 1) = w * x**2, 1 <= n <= n_max."""
    seq = naive_u_seq(P, 1, n_max + 1) if family == "U" else naive_v_seq(P, 1, n_max + 1)
    out = []
    for n in range(1, n_max + 1):
        x = naive_square_witness(seq[n], w)
        if x is not None and x >= 1:
            out.append((P, n, x))
    return out


def naive_search_two_term(family: str, P: int, w: int, n_max: int,
                          m_max: int, m_min: int = 1):
    """(P, n, m, x) with X_n = w * X_m * x**2, n != m, X_m != 1, full scan."""
    seq = naive_u_seq(P, 1, n_max + 1) if family == "UU" else naive_v_seq(P, 1, n_max + 1)
    out = []
    for m in range(m_min, min(m_max, n_max) + 1):
        if seq[m] == 1:
            continue
        for n in range(1, n_max + 1):
            if n == m or seq[n] % seq[m] != 0:
                continue
            x = naive_square_witness(seq[n] // seq[m], w)
            if x is not None and x >= 1:
                out.append((P, n, m, x))
    out.sort()
    return out


def naive_jacobi(a: int, n: int) -> int:
    """Jacobi symbol by factoring n into odd primes (n odd, positive, small)."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    result = 1
    remaining = n
    p = 3
    factors = []
    while remaining % 2 == 0:  # unreachable, n odd
        remaining //= 2
    temp = remaining
    while p * p <= temp:
        while temp % p == 0:
            factors.append(p)
            temp //= p
        p += 2
    if temp > 1:
        factors.append(temp)
    for prime in factors:
        result *= _legendre(a, prime)
    return result


def _legendre(a: int, p: int) -> int:
    """Legendre symbol via Euler's criterion (p an odd prime)."""
    a %= p
    if a == 0:
        return 0
    value = pow(a, (p - 1) // 2, p)
    return 1 if value == 1 else -1


# The search's sieve moduli: 64, 63, 65, 11 and the primes 17 to 97.
SIEVE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37,
                41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


@functools.cache
def _squares_mod(q: int) -> frozenset[int]:
    return frozenset(x * x % q for x in range(q))


def naive_sieve_passes(value: int, c: int) -> bool:
    """True iff value * c is a square mod every sieve modulus, with `%` on
    the exact numbers and each modulus's squares listed as x*x % q."""
    return all(value * c % q in _squares_mod(q) for q in SIEVE_MODULI)
