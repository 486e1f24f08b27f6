"""Compare the pruned two-term search with an unpruned oracle on CI-scale boxes.

    PYTHONPATH=src:tests python tests/check_two_term_oracle.py

The tier-1 oracles draw boxes with n_max <= 90: no residue period wraps
there and no run reaches a second lane part.  These boxes do both, for
P <= 12 and w in {1, 2, 3, 5}:

- VV, n <= 2,100, m <= 20: the m = 1 run of each P from 2 up (every n at
  P = 2, where V_1 = 2 divides every V_n, the odd n elsewhere) holds more
  than 1,024 pairs and is sieved in two or three parts.  Its three
  findings, at w = 3 and P = 2, 3 and 12, are each the first pair of such
  a run.
- VV, n <= 3,300, m <= 1,650: the multiplier run of k = 3 pairs the
  1,043 m from 58 to 1,100 with 3m, so runs of many m cross a part too.
- UU, n <= 1,500, m <= 750: one-m runs up to m = 38 and multiplier runs
  past it, with nine findings.

The oracle, `_oracles.euler_two_term`, shares no code with the package.

Exits 0 when every box gives the oracle's findings, else prints the first
mismatch and exits 1.
"""

from __future__ import annotations

import sys
import time
from itertools import zip_longest

from lucassquares import SquareClassQuery, search

from _oracles import euler_two_term

# (family, P values, n_max, m_max), each searched for every w of WS.
BOXES = (("VV", range(1, 13), 2100, 20), ("VV", range(1, 13), 3300, 1650),
         ("UU", range(1, 13), 1500, 750))
WS = (1, 2, 3, 5)


def first_mismatch(got: list[tuple], want: list[tuple]) -> str | None:
    """The first place where the sorted (P, n, m, x) rows differ, named."""
    for a, b in zip_longest(got, want):
        if a != b:
            return f"search has {a}, oracle has {b}"
    return None


def main() -> int:
    start = time.perf_counter()
    for family, p_values, n_max, m_max in BOXES:
        want = euler_two_term(family, p_values, WS, n_max, m_max)
        for w in WS:
            query = SquareClassQuery(family, w, tuple(p_values), n_max, m_max=m_max)
            got = [(f.P, f.n, f.m, f.x) for f in search(query)]
            box = (f"{family} w={w} P={p_values.start}..{p_values.stop - 1} "
                   f"n<={n_max} m<={m_max}")
            mismatch = first_mismatch(got, want[w])
            if mismatch:
                print(f"{box}: {mismatch}", file=sys.stderr)
                return 1
            print(f"{box}: {len(got)} findings, the oracle's")
    print(f"every box agrees ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
