"""Compare the pruned search with unpruned oracles on CI-scale boxes.

    PYTHONPATH=src:tests python tests/check_search_oracle.py

The tier-1 oracles draw boxes with n_max <= 90: no residue period wraps
there and no run reaches a second lane part.  The boxes here do both.

Two-term findings.  For P <= 12 and w in {1, 2, 3, 5}:

- VV, n <= 2,100, m <= 20: the m = 1 run of each P from 2 up (every n at
  P = 2, where V_1 = 2 divides every V_n, the odd n elsewhere) holds more
  than 1,024 pairs and is sieved in two or three parts.  Its three
  findings, at w = 3 and P = 2, 3 and 12, are each the first pair of such
  a run.
- VV, n <= 3,300, m <= 1,650: the multiplier run of k = 3 pairs the
  1,043 m from 58 to 1,100 with 3m, so runs of many m cross a part too.
- UU, n <= 1,500, m <= 750: one-m runs up to m = 38 and multiplier runs
  past it, with nine findings.

The findings oracle, `_oracles.euler_two_term`, shares no code with the
package.  Findings alone miss sieve defects, though: every finding sits at
small n, and a sieve that lets a wrong pair through, or drops a candidate
that is no solution, leaves them as they are.  So the sieve's survivors are
checked too, against the naive sieve: `%` residues of one exact stream per
P, taken once and shared by every w, tested against the squares tables of
`_oracles.naive_sieve_passes`.

- Two-term survivors: every run `classifier._pair_survivors` sieves while
  the boxes above are searched, one P at a time, and its parts.
- One-term survivors: `classifier._survivors`, called as a one-term search
  cell calls it, for U and V, P <= 40, n <= 3,000, every w of
  `SQUAREFREE_COEFFS` and the three parities, where periods of up to 388
  terms wrap many times.

Exits 0 when everything agrees, else prints the first mismatch and exits 1.
"""

from __future__ import annotations

import math
import sys
import time
from itertools import zip_longest

from lucassquares import SQUAREFREE_COEFFS, SequenceParams, SquareClassQuery, search
from lucassquares import arith, classifier, sequences

from _oracles import SIEVE_MODULI, euler_two_term, naive_sieve_passes, naive_u_seq, naive_v_seq

# (family, P values, n_max, m_max), each searched for every w of WS.
BOXES = (("VV", range(1, 13), 2100, 20), ("VV", range(1, 13), 3300, 1650),
         ("UU", range(1, 13), 1500, 750))
WS = (1, 2, 3, 5)
ONE_TERM_P, ONE_TERM_N = range(1, 41), 3000
PARITIES = (None, "odd", "even")

# Every sieve modulus divides it, so X_n mod it keeps each residue.
SIEVE_PRODUCT = math.prod(SIEVE_MODULI)


def reduced_stream(sequence: str, P: int, n_max: int) -> list[int]:
    """X_0 .. X_n_max mod SIEVE_PRODUCT, from one exact recurrence stream."""
    seq = (naive_u_seq if sequence == "U" else naive_v_seq)(P, 1, n_max + 1)
    return [x % SIEVE_PRODUCT for x in seq]


def first_mismatch(got: list, want: list) -> str | None:
    """The first place where two lists differ, named."""
    for a, b in zip_longest(got, want):
        if a != b:
            return f"search has {a}, oracle has {b}"
    return None


def check_two_term() -> str | None:
    """Findings of the two-term boxes and every sieve run behind them."""
    runs = []  # (ms, ns, w, the pairs the sieve passed), one P at a time
    real = classifier._pair_survivors

    def recording(lanes, period, ms, ns, w):
        passed = real(lanes, period, ms, ns, w)
        runs.append((ms, ns, w, passed))
        return passed

    classifier._pair_survivors = recording  # its parts come through here too
    run_count = pair_count = 0
    try:
        for family, p_values, n_max, m_max in BOXES:
            box = f"{family} P={p_values.start}..{p_values.stop - 1} n<={n_max} m<={m_max}"
            got = {w: [] for w in WS}
            for P in p_values:
                runs.clear()
                for w in WS:
                    query = SquareClassQuery(family, w, (P,), n_max, m_max=m_max)
                    got[w] += [(f.P, f.n, f.m, f.x) for f in search(query)]
                xs = reduced_stream(family[0], P, n_max)
                for ms, ns, w, passed in runs:
                    pairs = list(zip(ms, ns) if len(ms) == len(ns) else ((ms[0], n) for n in ns))
                    want = [(m, n) for m, n in pairs if naive_sieve_passes(xs[n], w * xs[m])]
                    mismatch = first_mismatch(passed, want)
                    if mismatch:
                        return (f"{family} P={P} w={w}, the run of m {ms.start}..{ms.stop - 1}: "
                                f"its sieve survivors differ: {mismatch}")
                    run_count += 1
                    pair_count += len(pairs)
            want = euler_two_term(family, p_values, WS, n_max, m_max)
            for w in WS:
                mismatch = first_mismatch(got[w], want[w])
                if mismatch:
                    return f"{box} w={w}: findings differ: {mismatch}"
                print(f"{box} w={w}: {len(got[w])} findings, the oracle's")
    finally:
        classifier._pair_survivors = real
    print(f"two-term sieve: {run_count} runs and parts, {pair_count} pairs, the naive sieve's")
    return None


def check_one_term() -> str | None:
    """One-term sieve survivors against the naive sieve."""
    cells = 0
    for sequence in "UV":
        for P in ONE_TERM_P:
            params = SequenceParams(P, 1)
            xs = reduced_stream(sequence, P, ONE_TERM_N)
            for w in SQUAREFREE_COEFFS:
                passing = [n for n in range(1, ONE_TERM_N + 1) if naive_sieve_passes(xs[n], w)]
                for parity in PARITIES:
                    # As `_search_cell` calls it, with the periods and the
                    # tables of w fetched as the sieve reaches each modulus.
                    periods = (sequences.residue_period(params, q, sequence)
                               for q in arith._SIEVE_MODULI)
                    tables = (arith._sieve_table(q, w % q) for q in arith._SIEVE_MODULI)
                    candidates = range(2 if parity == "even" else 1, ONE_TERM_N + 1,
                                       1 if parity is None else 2)
                    got = classifier._survivors(periods, candidates, tables)
                    want = [n for n in passing if parity is None or n % 2 == (parity == "odd")]
                    mismatch = first_mismatch(got, want)
                    if mismatch:
                        return (f"{sequence} P={P} w={w} parity={parity} n<={ONE_TERM_N}: "
                                f"sieve survivors differ: {mismatch}")
                    cells += 1
    print(f"one-term sieve: {cells} cells, the naive sieve's")
    return None


def main() -> int:
    start = time.perf_counter()
    for check in (check_two_term, check_one_term):
        mismatch = check()
        if mismatch:
            print(mismatch, file=sys.stderr)
            return 1
    print(f"every check agrees ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
