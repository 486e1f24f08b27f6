"""Bounded search and verification harness for the square classifications.

The four equation families

    U_n(P,1) = w * x**2          V_n(P,1) = w * x**2
    U_n(P,1) = w * U_m(P,1) * x**2   V_n(P,1) = w * V_m(P,1) * x**2

are searched exhaustively over explicit boxes (P values, n and m bounds),
and each classification report diffs the findings against the predicted
solution set under the hypotheses the classification actually covers.
`verify_theorem` is the one entry that applies those hypotheses: a query
outside them gets a report with the out_of_predicted_scope verdict, whose
notes name the hypothesis it leaves, rather than an answer by guess.  Where
a classification covers a P for odd n only, `verify_theorem` searches every
n of the box there and drops the findings with even n.

Conventions, applied uniformly in search and predictions:

- indices n, m >= 1 throughout; solutions at nonpositive indices are
  normalized to their positive representatives before encoding;
- witnesses satisfy x >= 1;
- for the two-term families the trivial diagonal n = m is excluded, and so
  are divisor indices whose term equals 1 (U_1 = 1 always, U_2 = 1 when
  P = 1, V_1 = 1 when P = 1): a unit divisor collapses the equation to the
  one-term family and the divisibility laws the classifications build on
  exclude that case.

Each search cell walks one P.  A solution X_n = c * x**2 makes X_n * c =
(c * x)**2, with c = w for the one-term families and c = w * X_m for the
two-term ones, so the search rejects n when that product is a non-square
mod one of the 23 moduli of `arith._SIEVE_MODULI` (64, 63, 65, 11 and the
primes 17 to 97).  It sieves in bulk: per modulus, `sequences.residue_period`
gives one period of X_n mod q, a byte per n.  A one-term cell maps it by one
`bytes.translate` table of w, `arith._sieve_table(q, w mod q)`, to 1 (may be
a square) or 0, tiles those marks over its candidates, and ANDs them, read
as one int, into a survivor mask.  A two-term cell sieves its
pairs (m, n) in runs: one per m <= s = max(3, isqrt(n_max)), against all
its n, and one per multiplier k = n / m past s, about 2 * sqrt(n_max) runs
in all (Dirichlet's hyperbola method, Tenenbaum 1995, §I.3.2).  The
quadratic characters of X_n mod the first 15 of the primes 11 to 97 that
w is prime to share one 4-byte lane per n, 2 bits a prime below the guard
bit 31 (`arith._character_table`), and those of w * X_n are derived from
them, so a run tests all its pairs mod those primes in one bulk step on
Python ints, SIMD within a register (Fisher and Dietz, LCPC 1998); 64, 63,
65 and the primes past the 15th test the few pairs left, one by one.  A
prime that divides w passes every pair and is not tested.  Only the
survivors pay for `square_witness` or the exact division, which still
decide every finding.  A one-term cell skips along one `seq_range` stream
(the benchmark's classify-1term self-check pins one per cell) to each
survivor, keeping only the term under test; a two-term cell evaluates X_m
and X_n by doubling, `sequences.pair_at`, at its survivors' indices alone,
each index once.  Two-term candidates are the divisibility laws'
`identities.divisor_indices` (only V_1 = 2 at P = 2 takes every n), which
the divisibility sweep checks, and the closed forms U_1 = 1 and
U_2 = V_1 = P place the unit and that 2; independent no-pruning searches
back this up in the test suite and, on larger boxes, in CI.

`verify_all` produces seventeen reports: eleven solution classifications
and six identity sweeps, each with a consistent / counterexample verdict.

Each report is one registry record: `_CLASSIFICATIONS` holds a
classification's searched (family, w) pairs, summary, scope rule of P,
predicted set of P and default box, and `_SWEEPS` a sweep's summary and
its `run(profile)`, which calls the sweep by keyword.  The functions below
read the records and never branch on a report id.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, islice, repeat
from typing import NamedTuple

from . import arith, diophantine, identities, sequences
from .arith import _require_int
from .identities import CheckOutcome
from .sequences import SequenceParams

__all__ = [
    "SquareClassQuery",
    "SquareClassFinding",
    "TheoremReport",
    "FAMILIES",
    "REPORT_IDS",
    "CLASSIFICATION_IDS",
    "SWEEP_IDS",
    "REPORT_SUMMARIES",
    "PROFILES",
    "Profile",
    "p_range",
    "search",
    "verify_theorem",
    "verify_report",
    "verify_all",
    "default_query",
    "sweep_shift_congruences",
    "sweep_product_identities",
    "sweep_divisibility_laws",
    "sweep_residue_classes",
    "sweep_pell_form_families",
    "sweep_quartic_equations",
]

FAMILIES = ("U", "V", "UU", "VV")

CONSISTENT = "consistent"
COUNTEREXAMPLE = "counterexample"
OUT_OF_SCOPE = "out_of_predicted_scope"


class OutOfScopeError(Exception):
    """A query leaves the hypotheses a classification covers: raised by the
    scope rules with the reason alone, caught by `verify_theorem` (as a
    report whose notes put the report id before the reason) and `_covers`."""


# The largest w a query takes: its square-free check trial-divides by every
# p <= sqrt(w), a million divisions at this bound.
_W_MAX = 10**12


@dataclass(frozen=True)
class SquareClassQuery:
    """One bounded search box.

    `family` selects the equation shape ("U", "V" one-term; "UU", "VV"
    two-term), `w` the square-free coefficient (at most 10**12), `p_values`
    the P values (strictly increasing; stored as a tuple), and `n_max` the
    index bound.  Two-term families additionally take `m_max` (and
    optionally `m_min`, default 1).  `n_parity` restricts the searched n to
    "odd" or "even" when set.
    """

    family: str
    w: int
    p_values: tuple[int, ...]
    n_max: int
    m_max: int | None = None
    m_min: int = 1
    n_parity: str | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        _require_int("w", self.w)
        if self.w < 1:
            raise ValueError(f"w must be a positive integer, got {self.w}")
        if self.w > _W_MAX:
            raise ValueError(f"w must be at most 10**12, got {self.w}")
        if any(self.w % (p * p) == 0 for p in range(2, arith.isqrt(self.w) + 1)):
            raise ValueError(f"w must be square-free, got {self.w}")
        try:
            object.__setattr__(self, "p_values", tuple(self.p_values))
        except TypeError:
            raise ValueError(f"p_values must be a sequence of integers, "
                             f"got {self.p_values!r}") from None
        if not self.p_values:
            raise ValueError("p_values must be nonempty")
        if any(b <= a for a, b in zip(self.p_values, self.p_values[1:])):
            raise ValueError("p_values must be strictly increasing")
        for p in self.p_values:
            SequenceParams(p, 1)
        _require_int("n_max", self.n_max)
        if self.n_max < 1:
            raise ValueError(f"n_max must be a positive integer, got {self.n_max}")
        _require_int("m_min", self.m_min)
        if self.m_max is not None:
            _require_int("m_max", self.m_max)
        if self.family in ("UU", "VV"):
            if self.m_max is None:
                raise ValueError(f"family {self.family} requires m_max")
            if not (1 <= self.m_min <= self.m_max <= self.n_max):
                raise ValueError(
                    f"need 1 <= m_min <= m_max <= n_max, got "
                    f"m_min={self.m_min}, m_max={self.m_max}, n_max={self.n_max}")
        else:
            if self.m_max is not None:
                raise ValueError(f"family {self.family} takes no m_max")
            if self.m_min != 1:
                raise ValueError(f"family {self.family} takes no m_min")
        if self.n_parity not in (None, "odd", "even"):
            raise ValueError(f"n_parity must be None, 'odd' or 'even', got {self.n_parity!r}")


@dataclass(frozen=True)
class SquareClassFinding:
    """A witnessed solution of one family equation.

    For one-term families: X_n(P,1) = w * x**2 with m = None.
    For two-term families: X_n(P,1) = w * X_m(P,1) * x**2.
    """

    family: str
    P: int
    n: int
    m: int | None
    w: int
    x: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if (self.m is not None) != (self.family in ("UU", "VV")):
            raise ValueError("m must be set exactly for two-term families")
        if self.x < 1:
            raise ValueError(f"witness x must be >= 1, got {self.x}")


def _finding_key(f: SquareClassFinding) -> tuple[int, int, int, str, int]:
    return (f.P, f.n, f.m if f.m is not None else 0, f.family, f.w)


def _render_finding(f: SquareClassFinding) -> str:
    core = f"P={f.P}, n={f.n}"
    if f.m is not None:
        core += f", m={f.m}"
    return f"({core}, w={f.w}, x={f.x})"


@dataclass(frozen=True)
class TheoremReport:
    """Predicted versus searched solutions for one report id.

    Classification reports carry the searched query and findings; sweep
    reports carry `query = None` and list any failed checks in `found`
    (predicted is then empty, so the verdict rule is uniform: consistent
    iff found equals predicted within the searched box).
    """

    theorem_id: str
    query: SquareClassQuery | None
    predicted: tuple
    found: tuple
    verdict: str
    notes: str = ""


# --------------------------------------------------------------------------
# search

def _parity_ok(n: int, parity: str | None) -> bool:
    return parity is None or (n % 2 == 1) == (parity == "odd")


def _marked(mask: int, shift: int) -> Iterator[int]:
    """The j with a bit of `mask` set in [j << shift, (j + 1) << shift), in increasing order.

    Shift 3 reads byte marks (bit 8j), shift 5 lane marks (bit 32j + 31).
    """
    while mask:
        low = mask & -mask
        yield (low.bit_length() - 1) >> shift
        mask ^= low


def _survivors(periods: Iterable[bytes], candidates: range,
               tables: Iterable[bytes]) -> list[int]:
    """The n in `candidates` with X_n * c a residue mod every sieve modulus.

    The i-th period holds X_k mod q = `arith._SIEVE_MODULI[i]` at byte
    k % len(period), and the i-th table is `arith._sieve_table(q, c mod q)`;
    both are taken only when the sieve reaches q.  Per modulus, one
    `translate` marks the period's bytes 1 or 0, tiled past the candidates'
    stop and cut to them; read as a little-endian int, that marks candidate
    j at bit 8j, and the marks are ANDed into one mask, which stops at 0.
    """
    start, stop, step = candidates.start, candidates.stop, candidates.step
    from_bytes = int.from_bytes
    mask = -1
    for table, period in zip(tables, periods):
        marks = period.translate(table) * (stop // len(period) + 1)
        mask &= from_bytes(marks[start:stop:step], "little")
        if not mask:
            return []
    return [candidates[j] for j in _marked(mask, 3)]


# A run is tested in parts of at most this many lanes, so that its int
# temporaries stay small however long the run is.
_PART = 1024
# A lane is one 4-byte word: bit 31 guards it, and the 2-bit fields of as
# many prime owners as fit below the guard, (32 - 1) // 2 = 15, fill bits 0
# to 29.
_LANE_BYTES = 4
_LANE_BITS = 8 * _LANE_BYTES
_FIELDS = (_LANE_BITS - 1) // 2
_TOPS = int.from_bytes((1 << _LANE_BITS - 1).to_bytes(_LANE_BYTES, "little") * _PART,
                       "little")  # bit 31 of each lane


class _Lanes(NamedTuple):
    """A two-term cell's characters mod its first `_FIELDS` prime owners, one 4-byte lane per n."""

    of_x: memoryview       # X_n's, format "I", little-endian
    of_wx: bytes           # w * X_n's, read only in contiguous runs of lanes
    fields: int            # the low bit of every field, in each of `_PART` lanes
    tail: tuple[int, ...]  # the owners past the fields, tested pair by pair


def _character_lanes(primes: Iterable[int], period: Callable[[int], bytes],
                     w: int, count: int) -> _Lanes:
    """The quadratic characters of X_n and of w * X_n mod the primes, one 32-bit lane per n.

    `period(q)` is one period of X_n mod the prime q (X_n at byte n % its
    length), for n = 0 .. count - 1.  Any q that divides w passes every
    pair and owns nothing; in the order given, each of the first `_FIELDS`
    other q owns the next 2-bit field of every lane:
    `arith._character_table(q)[X_n mod q]`, 0, 1 or 2 for zero, a nonzero
    square or a non-square, from the period translated once and tiled.  The
    fields fill at most bits 0 to 29, so each n costs 8 bytes over both lane
    arrays; the owners past them go to `tail`, and their periods are not
    read here.  The lanes of w * X_n are those of X_n with 1 and 2 swapped
    in the fields where w is a non-square, by a few whole-array int
    operations.
    """
    from_bytes = int.from_bytes
    owners = [q for q in primes if w % q]
    owners, tail = owners[:_FIELDS], tuple(owners[_FIELDS:])
    packed = bytearray(_LANE_BYTES * count)
    for at in range(0, len(owners), 4):  # four fields to a byte
        byte = 0
        for i, q in enumerate(owners[at:at + 4]):
            marks = period(q).translate(arith._character_table(q))
            byte |= from_bytes((marks * (count // len(marks) + 1))[:count], "little") << 2 * i
        packed[at // 4::_LANE_BYTES] = byte.to_bytes(count, "little")
    swapped = sum(1 << 2 * i for i, q in enumerate(owners)
                  if not arith._square_residues(q)[w % q])
    if swapped:
        lanes = from_bytes(packed, "little")
        # The low bit of each field to swap: one where w is a non-square, X_n not 0.
        nonzero = (lanes | lanes >> 1) & from_bytes(
            swapped.to_bytes(_LANE_BYTES, "little") * count, "little")
        of_wx = (lanes ^ nonzero ^ nonzero << 1).to_bytes(_LANE_BYTES * count, "little")
    else:
        of_wx = bytes(packed)
    return _Lanes(memoryview(packed).cast("I"), of_wx,
                  sum(1 << 2 * i for i in range(len(owners))) * (_TOPS >> _LANE_BITS - 1), tail)


def _prime_passes(lanes: _Lanes, ms: range, ns: range) -> int:
    """The pairs of a run whose w * X_m * X_n is a residue mod every field of `lanes`.

    A run pairs ms[j] with ns[j], or its one m with every n of `ns`, for at
    most `_PART` pairs; `ms` is contiguous.  The w * X_m lanes (one
    repeated, or a slice) XOR the X_n lanes (a strided slice) to 3 in a
    field iff the pair fails mod that prime; `bad` keeps the low bit of each
    such field.  A lane's `bad` is below 2**30, so 2**31 - bad, which is
    ~(bad + 2**31 - 1) in the lane, has bit 31 set iff no field is bad, and
    no borrow crosses lanes.  Pair j passes iff bit 32j + 31 of the result
    is set.
    """
    of_x, of_wx, fields, _ = lanes
    from_bytes = int.from_bytes
    count = len(ns)
    top = _TOPS >> _LANE_BITS * (_PART - count)  # bit 31 of `count` lanes
    x = from_bytes(of_wx[_LANE_BYTES * ms.start:_LANE_BYTES * ms.stop], "little")
    if len(ms) < count:  # one m: its lane times 1 in each of `count` lanes
        x *= top >> _LANE_BITS - 1
    x ^= from_bytes(of_x[ns.start:ns.stop:ns.step], "little")
    bad = x & (x >> 1) & fields
    return (top - bad) & top


def _pair_survivors(lanes: _Lanes, period: Callable[[int], bytes],
                    ms: range, ns: range, w: int) -> list[tuple[int, int]]:
    """The pairs (m, n) of a run with w * X_m * X_n a residue mod every sieve modulus.

    The lanes' fields test the run by `_prime_passes`, a longer run in parts
    of `_PART` pairs; the pairs left are tested mod 64, 63, 65 and the
    lanes' `tail` primes in turn, each on `period(q)`, X_k at byte
    k % length, which is read only once a pair reaches q.
    """
    if len(ns) > _PART:  # then a one-m run has len(ms) == 1 < len(ns)
        return [pair for at in range(0, len(ns), _PART)
                for pair in _pair_survivors(lanes, period, ms if len(ms) == 1
                                            else ms[at:at + _PART], ns[at:at + _PART], w)]
    passes = _prime_passes(lanes, ms, ns)
    if not passes:  # as for nearly every run
        return []
    repeats = len(ns) // len(ms)  # one m against every n, else 1
    pairs = [(ms[j // repeats], ns[j]) for j in _marked(passes, 5)]
    return [(m, n) for m, n in pairs
            if all(arith._square_residues(q)[w * r[m % len(r)] * r[n % len(r)] % q]
                   for q in chain(arith._SIEVE_MODULI[:3], lanes.tail) for r in (period(q),))]


def _search_cell(query: SquareClassQuery, P: int) -> list[SquareClassFinding]:
    """All findings of `query` for a single P, sorted by (n, m).

    Every candidate is sieved on its residues first, from one
    `sequences.residue_period` per sieve modulus, translated and tiled: by
    `_survivors` for all n of a one-term cell, and by `_pair_survivors` for
    the pairs (m, n) of a two-term cell, one run per m <= s = max(3,
    isqrt(n_max)) and one per multiplier k = n / m past s, on the cell's
    `_character_lanes`: 8 bytes per n for the characters of X_n and
    w * X_n mod up to 15 prime moduli, the other primes tested pair by
    pair.  A cell with no survivor reads no exact term.  A two-term cell
    gets X_m and X_n from `sequences.pair_at`, by doubling, at the
    survivors' indices only, with a per-cell dict so that a repeated m or n
    is evaluated once: it holds no prefix of the sequence.  A one-term cell
    skips along one `seq_range` stream to each survivor in turn, so it reads
    only as far as the largest and keeps only the term under test.  The
    benchmark's classify-1term self-check pins that stream (one `seq_range`
    call per cell); once it counts work done rather than calls, the same
    `pair_at` reader can replace it.
    """
    family, w, n_max, n_parity = query.family, query.w, query.n_max, query.n_parity
    params = SequenceParams(P, 1)
    sequence = family[0]  # "U" for U and UU, "V" for V and VV
    take_u = sequence == "U"
    moduli = arith._SIEVE_MODULI
    out: list[SquareClassFinding] = []
    if family in ("U", "V"):
        # Fetched as the sieve reaches each modulus, and so are the tables:
        # a sieve whose mask empties early asks for no more of either.
        periods = (sequences.residue_period(params, q, sequence) for q in moduli)
        pairs = sequences.seq_range(params, 1, n_max)
        read = 0  # the last index taken from the stream
        step = 1 if n_parity is None else 2
        tables = (arith._sieve_table(q, w % q) for q in moduli)
        for n in _survivors(periods, range(2 if n_parity == "even" else 1, n_max + 1, step),
                            tables):
            pair = next(islice(pairs, n - 1 - read, None))  # skips the terms in between
            read = n
            x = arith.square_witness(pair.u if take_u else pair.v, w)
            if x:
                out.append(SquareClassFinding(family, P, n, None, w, x))
        return out

    # X_k mod q at byte k % length, fetched per q: a pointwise modulus's
    # period is read only once a pair reaches it.
    period = partial(sequences.residue_period, params, sequence=sequence)
    lanes = _character_lanes(moduli[3:], period, w, n_max + 1)
    split = max(3, arith.isqrt(n_max))
    runs = []  # (ms, ns): one m each up to the split, one multiplier each past it
    # By the closed forms U_1 = 1 and U_2 = V_1 = P, and U_m >= F_m, V_m >= L_m
    # past them, the unit and the 2 that the laws set apart are U_1, U_2 at
    # P = 1 and V_1 at P <= 2.
    first = (1, P) if take_u else (P,)
    for m in range(query.m_min, min(query.m_max, split) + 1):
        base = first[m - 1] if m <= len(first) else None
        if base == 1:
            continue
        # Both ranges start at the diagonal n = m, which is excluded.
        if base == 2 and not take_u:
            ns = range(m, n_max + 1)  # V_1 = 2 at P = 2 divides every V_n
        else:
            ns = identities.divisor_indices(m, n_max, not take_u)
        runs.append((range(m, m + 1), ns[1:]))
    # Each multiplier k = n / m <= n_max // lo has a nonempty run.
    lo = max(query.m_min, split + 1)
    if lo <= query.m_max:
        for k in identities.divisor_indices(1, n_max // lo, not take_u)[1:]:
            hi = min(query.m_max, n_max // k)
            runs.append((range(lo, hi + 1), range(k * lo, k * hi + 1, k)))
    values: dict[int, int] = {}  # X_k at the survivors' indices, each evaluated once

    def value(k: int) -> int:
        """Exact X_k by doubling, evaluated on the first request for k."""
        if k not in values:
            pair = sequences.pair_at(params, k)
            values[k] = pair.u if take_u else pair.v
        return values[k]

    for ms, ns in runs:
        for m, n in _pair_survivors(lanes, period, ms, ns, w):
            if not _parity_ok(n, n_parity):
                continue
            quotient, rem = divmod(value(n), value(m))
            if rem:
                continue
            x = arith.square_witness(quotient, w)
            if x:
                out.append(SquareClassFinding(family, P, n, m, w, x))
    out.sort(key=_finding_key)
    return out


def _check_jobs(jobs: int) -> None:
    _require_int("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def search(query: SquareClassQuery, jobs: int = 1) -> list[SquareClassFinding]:
    """Complete list of findings in the box, sorted by (P, n, m).

    Deterministic regardless of `jobs`: one P per cell, merged in canonical
    order.  A pool gets at most one worker per P and CPU (with one, cells run
    in-process); it costs about 0.02 s to start, so pays on large boxes only.
    """
    _check_jobs(jobs)
    p_values = query.p_values
    workers = min(jobs, len(p_values), os.cpu_count() or 1)
    if workers > 1:
        # Here, not at module load: it pulls in multiprocessing for every call.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(_search_cell, repeat(query), p_values))
    else:
        per_cell = [_search_cell(query, P) for P in p_values]
    return list(chain.from_iterable(per_cell))


def p_range(p_max: int, parity: str | None = None, multiple_of: int | None = None,
            ) -> tuple[int, ...]:
    """P values 1..p_max with optional parity and divisibility filters."""
    _require_int("p_max", p_max)
    if parity not in (None, "odd", "even"):
        raise ValueError(f"parity must be 'odd', 'even' or None, got {parity!r}")
    if multiple_of is not None:
        _require_int("multiple_of", multiple_of)
        if multiple_of < 1:
            raise ValueError(f"multiple_of must be >= 1, got {multiple_of}")
    return tuple(p for p in range(1, p_max + 1)
                 if _parity_ok(p, parity) and (multiple_of is None or p % multiple_of == 0))


# --------------------------------------------------------------------------
# the report registry

# The scope of one covered P value under a classification.
ANY_N = "any-n"          # covered for every n
ODD_N = "odd-n"          # covered for odd n only
UNCOUNTED = "uncounted"  # searched; findings there are recorded, not counted


def _all_p(p: int) -> str:
    return ANY_N


def _odd_p(p: int) -> str:
    if p % 2 == 0:
        raise OutOfScopeError(f"is stated for odd P; query includes P = {p}")
    return ANY_N


def _fib_lucas_p(p: int) -> str:
    if p != 1:
        raise OutOfScopeError("is about Fibonacci and Lucas numbers; P must be exactly (1,)")
    return ANY_N


def _v_5square_p(p: int) -> str:
    # When 5 does not divide P, 5 never divides V_n: no solutions, any parity.
    if p % 10 == 0:
        raise OutOfScopeError(f"does not cover even P divisible by 5 (query includes P = {p})")
    return ANY_N


def _u_5square_p(p: int) -> str:
    if p % 2:
        return ANY_N
    if p % 5 == 0:
        raise OutOfScopeError(f"does not cover even P divisible by 5 (query includes P = {p})")
    if p * p % 5 == 4:
        raise OutOfScopeError(
            "does not cover even P with P**2 = -1 (mod 5): "
            f"solutions exist there (e.g. P = 2); query includes P = {p}")
    return UNCOUNTED


def _u_5um_square_p(p: int) -> str:
    if p % 2 or p * p % 5 == 1:
        return ANY_N
    if p % 5 == 0:
        raise OutOfScopeError(f"does not cover even P divisible by 5 (P = {p})")
    if p % 4:
        raise OutOfScopeError(
            f"does not cover P = 2 (mod 4) with P**2 = -1 (mod 5) (P = {p})")
    return ODD_N


# Predicted-set generators: P values -> raw (family, P, n, m, w, x) tuples
# over every searched (family, w), clipped to the query box afterwards.

def _no_solutions(p_values: tuple[int, ...]) -> list[tuple]:
    return []


# (P, n, w, x) solutions of U_n = w*x**2 with n >= 3, other than the
# P**2 + 1 = 2*x**2 family at n = 3 (which is generated in closed form).
_U_WSQUARE_SPORADIC = (
    (1, 12, 1, 12),
    (2, 7, 1, 13),
    (1, 6, 2, 2),
    (4, 4, 2, 6),
    (1, 4, 3, 1),
    (2, 4, 3, 2),
    (24, 4, 3, 68),
)


# The (family, w) pairs u-wsquare searches, which its predictions and notes read.
_U_WSQUARE_SEARCHED = (("U", 1), ("U", 2), ("U", 3), ("U", 6))


def _w_set(pairs: Iterable[tuple[str, int]]) -> str:
    """The w of (family, w) pairs as notes spell them: "{1, 2, 3, 6}"."""
    return "{" + ", ".join(str(w) for _, w in pairs) + "}"


def _pred_u_wsquare(p_values: tuple[int, ...]) -> list[tuple]:
    raw = []
    for p in p_values:
        for _, w in _U_WSQUARE_SEARCHED:
            if w == 1:
                raw.append(("U", p, 1, None, 1, 1))
            x = arith.square_witness(p, w)
            if x:
                raw.append(("U", p, 2, None, w, x))
            if w == 2:
                x = arith.square_witness(p * p + 1, 2)
                if x:
                    raw.append(("U", p, 3, None, 2, x))
    raw.extend(("U", p, n, None, w, x) for p, n, w, x in _U_WSQUARE_SPORADIC)
    return raw


# (family, w) -> ((n, x), ...) for P = 1 (Fibonacci F = U, Lucas L = V).
_FIB_LUCAS_TABLE = {
    ("U", 1): ((1, 1), (2, 1), (12, 12)),
    ("U", 2): ((3, 1), (6, 2)),
    ("U", 5): ((5, 1),),
    ("U", 10): (),
    ("V", 1): ((1, 1), (3, 2)),
    ("V", 2): ((6, 3),),
}


def _pred_fib_lucas(p_values: tuple[int, ...]) -> list[tuple]:
    return [(family, 1, n, None, w, x)
            for (family, w), solutions in _FIB_LUCAS_TABLE.items() for n, x in solutions]


def _pred_5square(family: str, n: int, extra: tuple = ()):
    """X_n = 5*x**2 at P = 5*square, plus the `extra` raw solutions."""
    def predict(p_values: tuple[int, ...]) -> list[tuple]:
        return [(family, p, n, None, 5, x) for p in p_values
                if p % 5 == 0 and (x := arith.square_witness(p, 5))] + list(extra)
    return predict


@dataclass(frozen=True)
class _Classification:
    """Everything one classification report states, in one place.

    `searched` lists the (family, w) pairs the report searches.  A report
    with one pair covers only queries of that family and w; a multiplexed
    one, with more, all of them one-term, searches all its pairs whatever
    the query's own one-term family and w, and says so in `notes`.
    `scope(P)` returns ANY_N, ODD_N or UNCOUNTED for a covered P and raises
    OutOfScopeError for any other, and `predict(P values)` gives the
    predicted solutions over every pair.
    """

    searched: tuple[tuple[str, int], ...]
    summary: str
    scope: Callable[[int], str]
    predict: Callable[[tuple[int, ...]], list[tuple]] = _no_solutions
    notes: str = ""
    # The ODD_N class as named in out-of-scope messages and in notes.
    odd_n: tuple[str, str] = ("", "")
    uncounted: str = ""            # the notes label for findings at UNCOUNTED P
    # The default box: the P in p_range(p_max, default_parity) that the
    # scope covers, n <= max(n_max, min_n_max), m_min <= m for two-term.
    default_parity: str | None = None
    min_n_max: int = 0
    m_min: int = 1


_CLASSIFICATIONS = {
    "u-wsquare": _Classification(
        _U_WSQUARE_SEARCHED,
        "U_n = w*x**2 for w in {" + ",".join(str(w) for _, w in _U_WSQUARE_SEARCHED)
        + "}: n <= 2 boundary, the P**2+1 = 2x**2 family at n = 3, and seven "
        "sporadic solutions",
        _all_p, _pred_u_wsquare,
        notes=f"w in {_w_set(_U_WSQUARE_SEARCHED)} searched "
              "(the query's own w is not restrictive here)"),
    "fib-lucas-squares": _Classification(
        tuple(_FIB_LUCAS_TABLE),
        "Fibonacci and Lucas square classes: F_n = x**2, 2x**2, "
        "5x**2, 10x**2 and L_n = x**2, 2x**2 (positive n)",
        _fib_lucas_p, _pred_fib_lucas,
        notes="searched " + " and ".join(
            f"{name}_n = w*x**2 for w in {_w_set(p for p in _FIB_LUCAS_TABLE if p[0] == family)}"
            for family, name in (("U", "F"), ("V", "L"))),
        min_n_max=1000),
    "v-square": _Classification(
        (("V", 1),),
        "V_n = x**2 (odd P): n = 1 iff P is a square, plus (P,n) = (1,3), (3,3)",
        _odd_p,
        lambda p_values: [("V", p, 1, None, 1, arith.isqrt(p))
                          for p in p_values if arith.is_square(p)]
        + [("V", 1, 3, None, 1, 2), ("V", 3, 3, None, 1, 6)]),
    "v-2square": _Classification(
        (("V", 2),), "V_n = 2*x**2 (odd P): exactly (P,n) = (1,6) and (5,6)",
        _odd_p, lambda p_values: [("V", 1, 6, None, 2, 3), ("V", 5, 6, None, 2, 99)]),
    "v-vm-square": _Classification(
        (("VV", 1),), "V_n = V_m*x**2 (odd P): no solutions with n != m", _odd_p),
    "v-2vm-square": _Classification(
        (("VV", 2),), "V_n = 2*V_m*x**2 (odd P): no solutions", _odd_p),
    "u-2um-square": _Classification(
        (("UU", 2),),
        "U_n = 2*U_m*x**2 (odd P, m >= 2): only (P,n,m) = (5,12,6) "
        "plus the P = 1 pair (1,12,3) and (1,12,6)",
        _odd_p,
        lambda p_values: [("UU", 1, 12, 3, 2, 6), ("UU", 1, 12, 6, 2, 3),
                          ("UU", 5, 12, 6, 2, 99)],
        m_min=2),
    # The scope also covers even P prime to 5, but the default box stays odd.
    "v-5square": _Classification(
        (("V", 5),), "V_n = 5*x**2: n = 1 iff P = 5*square (odd P; impossible unless 5 | P)",
        _v_5square_p, _pred_5square("V", 1), default_parity="odd"),
    "v-5vm-square": _Classification(
        (("VV", 5),), "V_n = 5*V_m*x**2: no solutions for any P", _all_p),
    "u-5square": _Classification(
        (("U", 5),),
        "U_n = 5*x**2: n = 2 iff P = 5*square (odd P, 5 | P); only "
        "(P,n) = (1,5) when P**2 = 1 (mod 5); none when P**2 = -1 (odd P)",
        _u_5square_p, _pred_5square("U", 2, extra=(("U", 1, 5, None, 5, 1),)),
        uncounted="findings at even P (case unproven there; recorded, not counted)"),
    "u-5um-square": _Classification(
        (("UU", 5),), "U_n = 5*U_m*x**2: no solutions in the covered P classes",
        _u_5um_square_p,
        odd_n=("P = 0 (mod 4) with P**2 = -1 (mod 5)", "P = 0 mod 4, P**2 = -1 mod 5"),
        m_min=2),
}


@dataclass(frozen=True)
class _Sweep:
    """One identity sweep: how verify_report runs it on a Profile."""

    # Names its sweep, so the module attribute (or a wrapper set there) runs.
    run: Callable[[Profile], TheoremReport]
    summary: str


_SWEEPS = {
    "shift-congruences": _Sweep(
        lambda prof: sweep_shift_congruences(idx_max=prof.sweep_idx),
        "U and V at index 2mn + r modulo U_m and V_m"),
    "product-identities": _Sweep(
        lambda prof: sweep_product_identities(idx_max=prof.sweep_idx),
        "doubling, discriminant, tripling and quintupling identities"),
    "divisibility-laws": _Sweep(
        lambda prof: sweep_divisibility_laws(idx_max=prof.sweep_idx),
        "U_m | U_n, V_m | V_n and gcd(U_n, V_n) laws"),
    "residue-classes": _Sweep(
        lambda prof: sweep_residue_classes(idx_max=prof.sweep_idx,
                                           obstruction_max=prof.obstruction_max,
                                           pow2_max=prof.pow2_max),
        "V mod 8, mod P**2 laws, 5- and 3-divisibility, L_{2**k} mod 4, "
        "the -square residue obstruction and the Jacobi symbol of P**2+3"),
    "pell-form-families": _Sweep(
        lambda prof: sweep_pell_form_families(z_max=prof.pell_z_max,
                                              v_bound=prof.pell_v_bound,
                                              form_bound=prof.form_bound),
        "parametric vs enumerated solutions of u**2-5v**2 = +-1, "
        "x**2-4xy-y**2 in {-5,-1} and b**2-3c**2 = 1"),
    "quartic-equations": _Sweep(
        lambda prof: sweep_quartic_equations(x_bound=prof.quartic_x_bound),
        "x**4+3x**2+1, x**4-3x**2+1, x**4+5x**2+5 against 5*y**2"),
}

CLASSIFICATION_IDS = tuple(_CLASSIFICATIONS)
SWEEP_IDS = tuple(_SWEEPS)
REPORT_IDS = CLASSIFICATION_IDS + SWEEP_IDS
REPORT_SUMMARIES = {report_id: record.summary for report_id, record
                    in (*_CLASSIFICATIONS.items(), *_SWEEPS.items())}


def _classification(theorem_id: str) -> _Classification:
    if theorem_id not in CLASSIFICATION_IDS:
        raise ValueError(f"unknown classification id {theorem_id!r}; "
                         f"valid: {', '.join(CLASSIFICATION_IDS)}")
    return _CLASSIFICATIONS[theorem_id]


def _scopes(entry: _Classification, query: SquareClassQuery) -> dict[int, str]:
    """The scope of each queried P; raises OutOfScopeError if the query is uncovered.

    A multiplexed report searches its own (family, w) pairs, so only a
    report with one pair checks the query's family and w against it; as
    every multiplexed report's pairs are one-term, one refuses a two-term
    query, whose m bounds its boxes cannot take.  A P covered for odd n
    only refuses n_parity='even'; with n unrestricted, `verify_theorem`
    drops the findings with even n there.
    """
    if len(entry.searched) == 1:
        ((family, w),) = entry.searched
        if query.family != family:
            raise OutOfScopeError(f"classifies the {family} family; query is for {query.family}")
        if query.w != w:
            raise OutOfScopeError(f"covers w in {{{w}}}; query has w = {query.w}")
    elif query.m_max is not None:
        raise OutOfScopeError(f"searches one-term families; query is for the two-term "
                              f"family {query.family}")
    scopes = {}
    for p in query.p_values:
        scopes[p] = scope = entry.scope(p)
        if scope == ODD_N and query.n_parity == "even":
            raise OutOfScopeError(f"covers {entry.odd_n[0]} only for odd n (P = {p})")
    return scopes


def _clip(query: SquareClassQuery, raw) -> list[SquareClassFinding]:
    """Restrict raw (family, P, n, m, w, x) tuples to the query box."""
    out = []
    p_set = set(query.p_values)
    for family, p, n, m, w, x in raw:
        if p not in p_set or n > query.n_max or not _parity_ok(n, query.n_parity):
            continue
        if m is not None and not (query.m_min <= m <= query.m_max):
            continue
        out.append(SquareClassFinding(family, p, n, m, w, x))
    out.sort(key=_finding_key)
    return out


# --------------------------------------------------------------------------
# verification

def _box_text(query: SquareClassQuery) -> str:
    p = query.p_values
    p_text = f"{len(p)} P values in [{p[0]}, {p[-1]}]"
    text = f"{query.family} family, w = {query.w}, {p_text}, n <= {query.n_max}"
    if query.m_max is not None:
        text += f", {query.m_min} <= m <= {query.m_max}"
    if query.n_parity:
        text += f", n {query.n_parity} only"
    return text


def verify_theorem(theorem_id: str, query: SquareClassQuery,
                   jobs: int = 1) -> TheoremReport:
    """Search the box once per searched (family, w), compute the predicted
    set, and diff them.

    Findings with even n at a P covered for odd n only are dropped: the
    classification says nothing there.  Out-of-scope queries yield a report
    with the out_of_predicted_scope verdict (the violated hypothesis is in
    the notes) rather than raising; only a bad `jobs` or id raises ValueError.
    """
    _check_jobs(jobs)
    entry = _classification(theorem_id)
    try:
        scopes = _scopes(entry, query)
        predicted = _clip(query, entry.predict(query.p_values))
    except OutOfScopeError as err:
        return TheoremReport(theorem_id, query, (), (), OUT_OF_SCOPE, f"{theorem_id} {err}")
    found = [finding for family, w in entry.searched
             for finding in search(replace(query, family=family, w=w), jobs=jobs)
             if finding.n % 2 or scopes[finding.P] != ODD_N]
    found.sort(key=_finding_key)
    parts = [_box_text(query), f"found {len(found)}, predicted {len(predicted)}"]
    odd_only = [p for p in query.p_values if scopes[p] == ODD_N]
    if odd_only and query.n_parity is None:
        parts.append(f"P values {odd_only} ({entry.odd_n[1]}) searched for odd n only; "
                     "even n is uncovered there")
    elif entry.notes:
        parts.append(entry.notes)
    pset, fset = set(predicted), set(found)
    missing = sorted(pset - fset, key=_finding_key)
    unexpected = sorted(fset - pset, key=_finding_key)
    flagged = [f for f in unexpected if scopes[f.P] == UNCOUNTED]
    unexpected = [f for f in unexpected if scopes[f.P] != UNCOUNTED]
    if missing:
        parts.append("missing predicted: " + ", ".join(map(_render_finding, missing)))
    if unexpected:
        parts.append("unexpected findings: " + ", ".join(map(_render_finding, unexpected)))
    if flagged:
        parts.append(f"{entry.uncounted}: " + ", ".join(map(_render_finding, flagged)))
    verdict = CONSISTENT if not missing and not unexpected else COUNTEREXAMPLE
    return TheoremReport(theorem_id, query, tuple(predicted), tuple(found),
                         verdict, "; ".join(parts))


# --------------------------------------------------------------------------
# identity sweeps

def _sweep_report(theorem_id: str, outcomes: Iterable[CheckOutcome],
                  grid_text: str) -> TheoremReport:
    """Run the checks `outcomes` yields and report the ones that fail.

    A grid that holds no check raises ValueError: a consistent verdict on
    nothing would read as a verified law.
    """
    failures: list[CheckOutcome] = []
    total = failed = 0
    for total, outcome in enumerate(outcomes, 1):
        if not outcome.passed:
            failed += 1
            if failed <= 50:
                failures.append(outcome)
    if not total:
        raise ValueError(f"{theorem_id}: the grid {grid_text} holds no checks")
    verdict = CONSISTENT if not failed else COUNTEREXAMPLE
    notes = f"{grid_text}: {total} checks, {failed} failed"
    if failed > 50:
        notes += " (first 50 recorded)"
    return TheoremReport(theorem_id, None, (), tuple(failures), verdict, notes)


# Fixed under every profile, and stated in the notes: the sweeps' P bound
# and the shift sweep's spot index.
_SWEEP_P_MAX = 25
_SPOT_N = 10**6


def sweep_shift_congruences(*, idx_max: int) -> TheoremReport:
    """All four shift congruences over a signed (m, n, r) grid.

    Covers P <= 25, 0 < |m|, |n| <= idx_max, |r| <= idx_max, plus spot
    checks at P in {1, 2, 5, 25} and |n| = 10**6.

    The grid checks read exact values from one table per P, streamed by
    `sequences.seq_range` over |k| <= 2*idx_max**2 + idx_max: the last
    index 2mn + r the grid reads.  The table grows as idx_max**4 * log P
    digits: about 230 KiB at P = 25, idx_max = 12 (the full profile), and
    14 MiB at P = 25, idx_max = 40.  The spot checks pass no values and run
    on the modular V ladder (`sequences.u_mod`/`v_mod`), which keeps the
    recurrence and the ladder cross-checked against each other.
    """
    signed = [i for i in range(-idx_max, idx_max + 1) if i != 0]
    rs = range(-idx_max, idx_max + 1)
    span = 2 * idx_max * idx_max + idx_max
    checks = (identities.check_shift_u_mod_u, identities.check_shift_v_mod_u,
              identities.check_shift_u_mod_v, identities.check_shift_v_mod_v)

    def batches():  # one list of outcomes per (P, m, n) cell or (P, m) spot
        for p in range(1, _SWEEP_P_MAX + 1):
            params = SequenceParams(p, 1)
            values = {pair.n: pair for pair in sequences.seq_range(params, -span, span)}
            for m in signed:
                for n in signed:
                    yield [fn(params, m, n, r, values=values)
                           for r in rs for fn in checks]
        for p in (1, 2, 5, 25):
            params = SequenceParams(p, 1)
            for m in (1, -2, 5, 12):
                yield [fn(params, m, n, r) for n in (_SPOT_N, -_SPOT_N)
                       for r in (-3, 0, 7) for fn in checks]

    grid = (f"P <= {_SWEEP_P_MAX}, 0 < |m|,|n| <= {idx_max}, |r| <= {idx_max}, "
            f"spot checks at |n| = {_SPOT_N}")
    return _sweep_report("shift-congruences", chain.from_iterable(batches()), grid)


def sweep_product_identities(*, idx_max: int) -> TheoremReport:
    """Product identities for Q = 1, the Q = -1 tripling companion, and the
    V_{5n} factor law, at P <= 25 and |n| <= idx_max."""
    span = range(-idx_max, idx_max + 1)

    def outcomes():
        for p in range(1, _SWEEP_P_MAX + 1):
            params = SequenceParams(p, 1)
            for n in span:
                yield from identities.check_product_identities(params, n)
        for p in range(3, _SWEEP_P_MAX + 1):
            for n in span:
                yield identities.check_q_minus_one_triple(p, n)
        for p in range(5, _SWEEP_P_MAX + 1, 5):
            params = SequenceParams(p, 1)
            for n in span:
                if n % 2:
                    yield identities.check_v5n_factor(params, n)

    grid = f"P <= {_SWEEP_P_MAX}, |n| <= {idx_max}"
    return _sweep_report("product-identities", outcomes(), grid)


def sweep_divisibility_laws(*, idx_max: int) -> TheoremReport:
    """Divisibility biconditionals and the gcd law at P <= 25, 1 <= m, n <= idx_max."""
    def outcomes():
        for p in range(1, _SWEEP_P_MAX + 1):
            params = SequenceParams(p, 1)
            for m in range(1, idx_max + 1):
                for n in range(1, idx_max + 1):
                    yield from identities.check_divisibility_laws(params, m, n)
            if p % 2:
                for n in range(1, idx_max + 1):
                    yield identities.check_gcd_u_v(params, n)

    grid = f"P <= {_SWEEP_P_MAX}, m, n <= {idx_max}"
    return _sweep_report("divisibility-laws", outcomes(), grid)


def sweep_residue_classes(*, idx_max: int, obstruction_max: int,
                          pow2_max: int) -> TheoremReport:
    """Residue-class lemmas at P <= 25 and indices <= idx_max: V mod 8, mod
    P**2, 5/3 divisibility and Jacobi symbols; L_{2**k} mod 4 for k <= pow2_max,
    and the -square obstruction for odd moduli <= obstruction_max."""
    def outcomes():
        for p in range(1, _SWEEP_P_MAX + 1):
            params = SequenceParams(p, 1)
            for n in range(1, idx_max + 1):
                yield from identities.check_mod_p2_laws(params, n)
                yield identities.check_divisibility_by_5_and_3(params, n)
            if p % 2:
                for r in range(1, idx_max + 1):
                    for m in range(1, idx_max + 1, 2):
                        yield identities.check_v_mod8_class(p, r, m)
                    yield identities.check_jacobi_p2plus3(p, r)
        for k in range(1, pow2_max + 1):
            yield identities.check_lucas_pow2_mod4(k)
        for m in range(3, obstruction_max + 1, 2):
            yield identities.check_residue_minus_square_obstruction(m)

    grid = (f"P <= {_SWEEP_P_MAX}, indices <= {idx_max}, k <= {pow2_max}, "
            f"obstruction moduli <= {obstruction_max}")
    return _sweep_report("residue-classes", outcomes(), grid)


def sweep_pell_form_families(*, z_max: int, v_bound: int,
                             form_bound: int) -> TheoremReport:
    """Parametric families against direct enumeration for all three equations.

    `v_bound` bounds the Pell v, and `form_bound` both the form's y and the
    Pell-3 c.

    Family generation is extended until it provably covers the enumeration
    bound (the next member lies beyond it), so a missing parametric solution
    inside the bound cannot hide.  `z_max` therefore changes no verdict: it
    only sets the size each family starts from and is echoed in the notes
    text, which is part of the report bytes.
    """
    outcomes = []
    for equation, param, bound in (("pell5", 1, v_bound), ("pell5", -1, v_bound),
                                   ("form", -5, form_bound), ("form", -1, form_bound),
                                   ("pell3", None, form_bound)):
        _, _, family_pairs, oracle_pairs = diophantine.family_cover(
            equation, param, max(2, z_max // 2 + 1), bound)
        inputs = (bound,) if param is None else (param, bound)
        passed = family_pairs == oracle_pairs
        note = "" if passed else (f"family-only: {sorted(family_pairs - oracle_pairs)}; "
                                  f"oracle-only: {sorted(oracle_pairs - family_pairs)}")
        outcomes.append(CheckOutcome(f"{equation}-family-oracle", inputs, passed,
                                     len(family_pairs), len(oracle_pairs), note))
    grid = (f"z ~ {z_max}, Pell v <= {v_bound}, form y <= {form_bound}, "
            f"Pell-3 c <= {form_bound}")
    return _sweep_report("pell-form-families", outcomes, grid)


def sweep_quartic_equations(*, x_bound: int) -> TheoremReport:
    """The three quartic scans to x <= x_bound against their classified solution sets."""
    expected = {
        "plus3": {(1, 1)},
        "minus3": {(2, 1)},
        "plus5": set(),
    }
    outcomes = []
    for variant in ("plus3", "minus3", "plus5"):
        found = {(s.x, s.y) for s in diophantine.quartic_solutions(variant, x_bound)}
        want = expected[variant]
        note = f"{diophantine.quartic_polynomial(variant)}: found {sorted(found)}"
        outcomes.append(CheckOutcome("quartic-solutions", (x_bound,), found == want,
                                     len(found), len(want), note))
    return _sweep_report("quartic-equations", outcomes, f"x <= {x_bound}")


# --------------------------------------------------------------------------
# profiles and the full harness

@dataclass(frozen=True)
class Profile:
    """Box sizes for one verify_all run, the one place they are written:
    two-term boxes take m <= n_max // 2 (`_m_bound`), and the sweeps over P
    run at P <= 25 under every profile."""

    p_max: int
    n_max: int
    sweep_idx: int
    obstruction_max: int
    pow2_max: int
    pell_z_max: int
    pell_v_bound: int
    form_bound: int  # both the form's y bound and the Pell-3 c bound
    quartic_x_bound: int


PROFILES = {
    "quick": Profile(p_max=25, n_max=120, sweep_idx=6, obstruction_max=501,
                     pow2_max=12, pell_z_max=20, pell_v_bound=10**4,
                     form_bound=10**4, quartic_x_bound=2000),
    "full": Profile(p_max=99, n_max=400, sweep_idx=12, obstruction_max=2001,
                    pow2_max=20, pell_z_max=40, pell_v_bound=10**6,
                    form_bound=10**5, quartic_x_bound=10**4),
}


def _m_bound(n_max: int) -> int:
    """A two-term box's default m bound: no larger m divides another n <= n_max."""
    return n_max // 2


def _profile(profile: str) -> Profile:
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; valid: quick, full") from None


def _covers(entry: _Classification, p: int) -> bool:
    try:
        entry.scope(p)
    except OutOfScopeError:
        return False
    return True


def default_query(theorem_id: str, profile: str = "quick") -> SquareClassQuery:
    """The canonical in-scope box for one classification id and profile name."""
    prof = _profile(profile)
    entry = _classification(theorem_id)
    p_values = tuple(p for p in p_range(prof.p_max, parity=entry.default_parity)
                     if _covers(entry, p))
    family, w = entry.searched[0]
    m_max = _m_bound(prof.n_max) if family in ("UU", "VV") else None
    return SquareClassQuery(family, w, p_values,
                            max(prof.n_max, entry.min_n_max),
                            m_max=m_max, m_min=entry.m_min)


def verify_report(report_id: str, profile: str = "quick") -> TheoremReport:
    """Run one report by id on the named profile's box or grid, in-process;
    `verify_theorem` runs a classification on any other box or worker pool."""
    if report_id in CLASSIFICATION_IDS:
        return verify_theorem(report_id, default_query(report_id, profile))
    if report_id not in SWEEP_IDS:
        raise ValueError(f"unknown report id {report_id!r}; "
                         f"valid: {', '.join(REPORT_IDS)}")
    return _SWEEPS[report_id].run(_profile(profile))


def verify_all(profile: str = "quick") -> list[TheoremReport]:
    """Run all 17 reports in-process on the named profile, "quick" or "full"."""
    return [verify_report(report_id, profile) for report_id in REPORT_IDS]
