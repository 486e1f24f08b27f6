"""Bounded search and verification harness for the square classifications.

The four equation families

    U_n(P,1) = w * x**2          V_n(P,1) = w * x**2
    U_n(P,1) = w * U_m(P,1) * x**2   V_n(P,1) = w * V_m(P,1) * x**2

are searched exhaustively over explicit boxes (P values, n and m bounds),
and each classification report diffs the findings against the predicted
solution set under the hypotheses the classification actually covers.
Queries outside those hypotheses are refused with `OutOfScopeError` rather
than answered with a guess.

Conventions, applied uniformly in search and predictions:

- indices n, m >= 1 throughout; solutions at nonpositive indices are
  normalized to their positive representatives before encoding;
- witnesses satisfy x >= 1;
- for the two-term families the trivial diagonal n = m is excluded, and so
  are divisor indices whose term equals 1 (U_1 = 1 always, U_2 = 1 when
  P = 1, V_1 = 1 when P = 1): a unit divisor collapses the equation to the
  one-term family and the divisibility laws the classifications build on
  exclude that case.

The two-term search prunes n by the divisibility laws (U_m | U_n iff m | n
when U_m != 1; V_m | V_n iff m | n with odd quotient when V_m > 2) and then
still verifies the division remainder exactly.  The laws themselves are
continuously re-verified by the divisibility sweep, and an independent
no-pruning search backs this up in the test suite.

`verify_all` produces seventeen reports: eleven solution classifications
and six identity sweeps, each with a consistent / counterexample verdict.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from . import arith, diophantine, identities, sequences
from .identities import CheckOutcome
from .sequences import SequenceParams

__all__ = [
    "OutOfScopeError",
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
    "predicted_set",
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
    """A query falls outside the hypotheses a classification covers."""


@dataclass(frozen=True)
class SquareClassQuery:
    """One bounded search box.

    `family` selects the equation shape ("U", "V" one-term; "UU", "VV"
    two-term), `w` the square-free coefficient, `p_values` the P values
    (strictly increasing), and `n_max` the index bound.  Two-term families
    additionally take `m_max` (and optionally `m_min`, default 1).
    `n_parity` restricts the searched n to "odd" or "even" when set.
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
        if not isinstance(self.w, int) or self.w < 1:
            raise ValueError(f"w must be a positive integer, got {self.w}")
        if any(self.w % (p * p) == 0 for p in range(2, arith.isqrt(self.w) + 1)):
            raise ValueError(f"w must be square-free, got {self.w}")
        if not self.p_values:
            raise ValueError("p_values must be nonempty")
        if any(b <= a for a, b in zip(self.p_values, self.p_values[1:])):
            raise ValueError("p_values must be strictly increasing")
        for p in self.p_values:
            SequenceParams(p, 1)
        if not isinstance(self.n_max, int) or self.n_max < 1:
            raise ValueError(f"n_max must be a positive integer, got {self.n_max}")
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


def _search_cell(family: str, w: int, P: int, n_max: int,
                 m_max: int | None, m_min: int, n_parity: str | None,
                 ) -> list[SquareClassFinding]:
    """All findings for a single P, sorted by (n, m)."""
    params = SequenceParams(P, 1)
    out: list[SquareClassFinding] = []
    if family in ("U", "V"):
        take_u = family == "U"
        for pair in sequences.seq_range(params, 1, n_max):
            if not _parity_ok(pair.n, n_parity):
                continue
            value = pair.u if take_u else pair.v
            x = arith.square_witness(value, w)
            if x:
                out.append(SquareClassFinding(family, P, pair.n, None, w, x))
        return out

    take_u = family == "UU"
    table: list[int] = [0]
    for pair in sequences.seq_range(params, 1, n_max):
        table.append(pair.u if take_u else pair.v)
    for m in range(m_min, min(m_max, n_max) + 1):
        base = table[m]
        if base == 1:
            continue
        if take_u:
            candidates = range(m, n_max + 1, m)
        elif base == 2:
            candidates = range(1, n_max + 1)
        else:
            candidates = range(3 * m, n_max + 1, 2 * m)
        for n in candidates:
            if n == m or not _parity_ok(n, n_parity):
                continue
            quotient, rem = divmod(table[n], base)
            if rem:
                continue
            x = arith.square_witness(quotient, w)
            if x:
                out.append(SquareClassFinding(family, P, n, m, w, x))
    out.sort(key=_finding_key)
    return out


def _search_cell_args(args: tuple) -> list[SquareClassFinding]:
    return _search_cell(*args)


def search(query: SquareClassQuery, jobs: int = 1) -> list[SquareClassFinding]:
    """Complete list of findings in the box, sorted by (P, n, m).

    Deterministic regardless of `jobs`: cells are one P each and results
    are merged in canonical order.
    """
    cells = [(query.family, query.w, P, query.n_max,
              query.m_max, query.m_min, query.n_parity)
             for P in query.p_values]
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            per_cell = list(pool.map(_search_cell_args, cells))
    else:
        per_cell = [_search_cell(*cell) for cell in cells]
    findings: list[SquareClassFinding] = []
    for cell in per_cell:
        findings.extend(cell)
    return findings


def p_range(p_max: int, parity: str | None = None, multiple_of: int | None = None,
            ) -> tuple[int, ...]:
    """P values 1..p_max with optional parity and divisibility filters."""
    if parity not in (None, "odd", "even"):
        raise ValueError(f"parity must be 'odd', 'even' or None, got {parity!r}")
    if multiple_of is not None and multiple_of < 1:
        raise ValueError(f"multiple_of must be >= 1, got {multiple_of}")
    out = []
    for p in range(1, p_max + 1):
        if parity == "odd" and p % 2 == 0:
            continue
        if parity == "even" and p % 2 == 1:
            continue
        if multiple_of is not None and p % multiple_of != 0:
            continue
        out.append(p)
    return tuple(out)


# --------------------------------------------------------------------------
# predicted solution sets

REPORT_SUMMARIES = {
    "u-wsquare": "U_n = w*x**2 for w in {1,2,3,6}: n <= 2 boundary, the "
                 "P**2+1 = 2x**2 family at n = 3, and seven sporadic solutions",
    "fib-lucas-squares": "Fibonacci and Lucas square classes: F_n = x**2, 2x**2, "
                         "5x**2, 10x**2 and L_n = x**2, 2x**2 (positive n)",
    "v-square": "V_n = x**2 (odd P): n = 1 iff P is a square, plus (P,n) = (1,3), (3,3)",
    "v-2square": "V_n = 2*x**2 (odd P): exactly (P,n) = (1,6) and (5,6)",
    "v-vm-square": "V_n = V_m*x**2 (odd P): no solutions with n != m",
    "v-2vm-square": "V_n = 2*V_m*x**2 (odd P): no solutions",
    "u-2um-square": "U_n = 2*U_m*x**2 (odd P, m >= 2): only (P,n,m) = (5,12,6) "
                    "plus the P = 1 pair (1,12,3) and (1,12,6)",
    "v-5square": "V_n = 5*x**2: n = 1 iff P = 5*square (odd P; impossible unless 5 | P)",
    "v-5vm-square": "V_n = 5*V_m*x**2: no solutions for any P",
    "u-5square": "U_n = 5*x**2: n = 2 iff P = 5*square (odd P, 5 | P); only "
                 "(P,n) = (1,5) when P**2 = 1 (mod 5); none when P**2 = -1 (odd P)",
    "u-5um-square": "U_n = 5*U_m*x**2: no solutions in the covered P classes",
    "shift-congruences": "U and V at index 2mn + r modulo U_m and V_m",
    "product-identities": "doubling, discriminant, tripling and quintupling identities",
    "divisibility-laws": "U_m | U_n, V_m | V_n and gcd(U_n, V_n) laws",
    "residue-classes": "V mod 8, mod P**2 laws, 5- and 3-divisibility, L_{2**k} mod 4, "
                       "the -square residue obstruction and the Jacobi symbol of P**2+3",
    "pell-form-families": "parametric vs enumerated solutions of u**2-5v**2 = +-1, "
                          "x**2-4xy-y**2 in {-5,-1} and b**2-3c**2 = 1",
    "quartic-equations": "x**4+3x**2+1, x**4-3x**2+1, x**4+5x**2+5 against 5*y**2",
}

CLASSIFICATION_IDS = (
    "u-wsquare",
    "fib-lucas-squares",
    "v-square",
    "v-2square",
    "v-vm-square",
    "v-2vm-square",
    "u-2um-square",
    "v-5square",
    "v-5vm-square",
    "u-5square",
    "u-5um-square",
)

SWEEP_IDS = (
    "shift-congruences",
    "product-identities",
    "divisibility-laws",
    "residue-classes",
    "pell-form-families",
    "quartic-equations",
)

REPORT_IDS = CLASSIFICATION_IDS + SWEEP_IDS

_U_WSQUARE_WS = (1, 2, 3, 6)

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

# (family, w) -> ((n, x), ...) for P = 1 (Fibonacci F = U, Lucas L = V).
_FIB_LUCAS_TABLE = {
    ("U", 1): ((1, 1), (2, 1), (12, 12)),
    ("U", 2): ((3, 1), (6, 2)),
    ("U", 5): ((5, 1),),
    ("U", 10): (),
    ("V", 1): ((1, 1), (3, 2)),
    ("V", 2): ((6, 3),),
}

_V_SQUARE_SPORADIC = ((1, 3, 2), (3, 3, 6))         # (P, n, x)
_V_2SQUARE_SOLUTIONS = ((1, 6, 3), (5, 6, 99))      # (P, n, x)
_U_2UM_SOLUTIONS = ((1, 12, 3, 6), (1, 12, 6, 3), (5, 12, 6, 99))  # (P, n, m, x)

_THEOREM_FAMILY = {
    "u-wsquare": ("U", _U_WSQUARE_WS),
    "fib-lucas-squares": ("U", (1, 2, 5, 10)),
    "v-square": ("V", (1,)),
    "v-2square": ("V", (2,)),
    "v-vm-square": ("VV", (1,)),
    "v-2vm-square": ("VV", (2,)),
    "u-2um-square": ("UU", (2,)),
    "v-5square": ("V", (5,)),
    "v-5vm-square": ("VV", (5,)),
    "u-5square": ("U", (5,)),
    "u-5um-square": ("UU", (5,)),
}


def _check_family_w(theorem_id: str, query: SquareClassQuery) -> None:
    family, ws = _THEOREM_FAMILY[theorem_id]
    if query.family != family:
        raise OutOfScopeError(
            f"{theorem_id} classifies the {family} family; query is for {query.family}")
    if query.w not in ws:
        raise OutOfScopeError(
            f"{theorem_id} covers w in {set(ws)}; query has w = {query.w}")


def _require_odd_p(theorem_id: str, query: SquareClassQuery) -> None:
    for p in query.p_values:
        if p % 2 == 0:
            raise OutOfScopeError(
                f"{theorem_id} is stated for odd P; query includes P = {p}")


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


def _pred_u_wsquare(query: SquareClassQuery, ws) -> list[SquareClassFinding]:
    raw = []
    for p in query.p_values:
        for w in ws:
            if w == 1:
                raw.append(("U", p, 1, None, 1, 1))
            x = arith.square_witness(p, w)
            if x:
                raw.append(("U", p, 2, None, w, x))
            if w == 2:
                x = arith.square_witness(p * p + 1, 2)
                if x:
                    raw.append(("U", p, 3, None, 2, x))
    for p, n, w, x in _U_WSQUARE_SPORADIC:
        if w in ws:
            raw.append(("U", p, n, None, w, x))
    return _clip(query, raw)


def _pred_fib_lucas(query: SquareClassQuery, keys) -> list[SquareClassFinding]:
    if query.p_values != (1,):
        raise OutOfScopeError(
            "fib-lucas-squares is about Fibonacci and Lucas numbers; P must be exactly (1,)")
    raw = []
    for family, w in keys:
        for n, x in _FIB_LUCAS_TABLE[(family, w)]:
            raw.append((family, 1, n, None, w, x))
    return _clip(query, raw)


def predicted_set(theorem_id: str, query: SquareClassQuery) -> list[SquareClassFinding]:
    """The classification's solution set restricted to the query box.

    Raises OutOfScopeError when the query leaves the hypotheses under which
    the classification is known (wrong family or w, excluded P classes, or
    an index parity the classification does not cover).
    """
    if theorem_id not in CLASSIFICATION_IDS:
        raise ValueError(f"unknown classification id {theorem_id!r}; "
                         f"valid: {', '.join(CLASSIFICATION_IDS)}")
    _check_family_w(theorem_id, query)

    if theorem_id == "u-wsquare":
        return _pred_u_wsquare(query, (query.w,))

    if theorem_id == "fib-lucas-squares":
        return _pred_fib_lucas(query, ((query.family, query.w),))

    if theorem_id == "v-square":
        _require_odd_p(theorem_id, query)
        raw = [("V", p, 1, None, 1, arith.isqrt(p))
               for p in query.p_values if arith.is_square(p)]
        raw += [("V", p, n, None, 1, x) for p, n, x in _V_SQUARE_SPORADIC]
        return _clip(query, raw)

    if theorem_id == "v-2square":
        _require_odd_p(theorem_id, query)
        return _clip(query, [("V", p, n, None, 2, x) for p, n, x in _V_2SQUARE_SOLUTIONS])

    if theorem_id in ("v-vm-square", "v-2vm-square"):
        _require_odd_p(theorem_id, query)
        return []

    if theorem_id == "u-2um-square":
        _require_odd_p(theorem_id, query)
        return _clip(query, [("UU", p, n, m, 2, x) for p, n, m, x in _U_2UM_SOLUTIONS])

    if theorem_id == "v-5square":
        raw = []
        for p in query.p_values:
            if p % 5 == 0:
                if p % 2 == 0:
                    raise OutOfScopeError(
                        "v-5square does not cover even P divisible by 5 "
                        f"(query includes P = {p})")
                x = arith.square_witness(p, 5)
                if x:
                    raw.append(("V", p, 1, None, 5, x))
            # 5 does not divide P: 5 never divides V_n, so no solutions.
        return _clip(query, raw)

    if theorem_id == "v-5vm-square":
        return []

    if theorem_id == "u-5square":
        raw = []
        for p in query.p_values:
            if p % 5 == 0:
                if p % 2 == 0:
                    raise OutOfScopeError(
                        "u-5square does not cover even P divisible by 5 "
                        f"(query includes P = {p})")
                x = arith.square_witness(p, 5)
                if x:
                    raw.append(("U", p, 2, None, 5, x))
            elif p * p % 5 == 1:
                if p == 1:
                    raw.append(("U", 1, 5, None, 5, 1))
            else:
                if p % 2 == 0:
                    raise OutOfScopeError(
                        "u-5square does not cover even P with P**2 = -1 (mod 5): "
                        f"solutions exist there (e.g. P = 2); query includes P = {p}")
        return _clip(query, raw)

    # u-5um-square
    for p in query.p_values:
        _classify_u5um_p(p, query.n_parity)
    return []


def _classify_u5um_p(p: int, n_parity: str | None) -> str:
    """Return 'any' or 'odd-n' for covered P, raise OutOfScopeError otherwise."""
    if p % 5 == 0:
        if p % 2 == 0:
            raise OutOfScopeError(
                f"u-5um-square does not cover even P divisible by 5 (P = {p})")
        return "any"
    if p * p % 5 == 1:
        return "any"
    if p % 2 == 1:
        return "any"
    if p % 4 == 0:
        if n_parity != "odd":
            raise OutOfScopeError(
                "u-5um-square covers P = 0 (mod 4) with P**2 = -1 (mod 5) only "
                f"for odd n; restrict the query with n_parity='odd' (P = {p})")
        return "odd-n"
    raise OutOfScopeError(
        f"u-5um-square does not cover P = 2 (mod 4) with P**2 = -1 (mod 5) (P = {p})")


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


def _diff_report(theorem_id: str, query: SquareClassQuery,
                 predicted: list[SquareClassFinding],
                 found: list[SquareClassFinding],
                 extra_notes: str = "") -> TheoremReport:
    pset, fset = set(predicted), set(found)
    missing = sorted(pset - fset, key=_finding_key)
    unexpected = sorted(fset - pset, key=_finding_key)
    flagged: list[SquareClassFinding] = []
    if theorem_id == "u-5square":
        flagged = [f for f in unexpected if f.P % 2 == 0]
        unexpected = [f for f in unexpected if f.P % 2 == 1]
    parts = [_box_text(query),
             f"found {len(found)}, predicted {len(predicted)}"]
    if extra_notes:
        parts.append(extra_notes)
    if missing:
        parts.append("missing predicted: " + ", ".join(map(_render_finding, missing)))
    if unexpected:
        parts.append("unexpected findings: " + ", ".join(map(_render_finding, unexpected)))
    if flagged:
        parts.append("findings at even P (case unproven there; recorded, not counted): "
                     + ", ".join(map(_render_finding, flagged)))
    verdict = CONSISTENT if not missing and not unexpected else COUNTEREXAMPLE
    return TheoremReport(theorem_id, query, tuple(predicted), tuple(found),
                         verdict, "; ".join(parts))


def _oos_report(theorem_id: str, query: SquareClassQuery, err: OutOfScopeError,
                ) -> TheoremReport:
    return TheoremReport(theorem_id, query, (), (), OUT_OF_SCOPE, str(err))


def _verify_multiplexed(theorem_id: str, query: SquareClassQuery, jobs: int,
                        combos, pred_fn, note: str) -> TheoremReport:
    try:
        predicted = pred_fn(query)
    except OutOfScopeError as err:
        return _oos_report(theorem_id, query, err)
    found: list[SquareClassFinding] = []
    for family, w in combos:
        sub = replace(query, family=family, w=w)
        found.extend(search(sub, jobs=jobs))
    found.sort(key=_finding_key)
    return _diff_report(theorem_id, query, predicted, found, note)


def verify_theorem(theorem_id: str, query: SquareClassQuery,
                   jobs: int = 1) -> TheoremReport:
    """Search the box, compute the predicted set, and diff them.

    Out-of-scope queries yield a report with the out_of_predicted_scope
    verdict (the violated hypothesis is in the notes) rather than raising,
    so callers always get a report.
    """
    if theorem_id not in CLASSIFICATION_IDS:
        raise ValueError(f"unknown classification id {theorem_id!r}; "
                         f"valid: {', '.join(CLASSIFICATION_IDS)}")

    if theorem_id == "u-wsquare":
        return _verify_multiplexed(
            theorem_id, query, jobs,
            [("U", w) for w in _U_WSQUARE_WS],
            lambda q: _pred_u_wsquare(q, _U_WSQUARE_WS),
            "w in {1, 2, 3, 6} searched (the query's own w is not restrictive here)")

    if theorem_id == "fib-lucas-squares":
        keys = tuple(_FIB_LUCAS_TABLE)
        return _verify_multiplexed(
            theorem_id, query, jobs, keys,
            lambda q: _pred_fib_lucas(q, keys),
            "searched F_n = w*x**2 for w in {1, 2, 5, 10} and L_n = w*x**2 for w in {1, 2}")

    if theorem_id == "u-5um-square":
        return _verify_u_5um(query, jobs)

    try:
        predicted = predicted_set(theorem_id, query)
    except OutOfScopeError as err:
        return _oos_report(theorem_id, query, err)
    found = search(query, jobs=jobs)
    return _diff_report(theorem_id, query, predicted, found)


def _verify_u_5um(query: SquareClassQuery, jobs: int) -> TheoremReport:
    theorem_id = "u-5um-square"
    try:
        _check_family_w(theorem_id, query)
        any_n: list[int] = []
        odd_only: list[int] = []
        for p in query.p_values:
            if p % 5 != 0 and p * p % 5 != 1 and p % 2 == 0:
                if p % 4 != 0:
                    raise OutOfScopeError(
                        f"u-5um-square does not cover P = 2 (mod 4) with "
                        f"P**2 = -1 (mod 5) (P = {p})")
                if query.n_parity == "even":
                    raise OutOfScopeError(
                        "u-5um-square covers P = 0 (mod 4) with P**2 = -1 (mod 5) "
                        f"only for odd n (P = {p})")
                odd_only.append(p)
            else:
                _classify_u5um_p(p, "odd")  # raises for even P divisible by 5
                any_n.append(p)
    except OutOfScopeError as err:
        return _oos_report(theorem_id, query, err)

    found: list[SquareClassFinding] = []
    notes = ""
    if query.n_parity == "odd":
        found.extend(search(replace(query, p_values=tuple(sorted(any_n + odd_only))),
                            jobs=jobs))
    else:
        if any_n:
            found.extend(search(replace(query, p_values=tuple(any_n)), jobs=jobs))
        if odd_only:
            found.extend(search(replace(query, p_values=tuple(odd_only),
                                        n_parity="odd"), jobs=jobs))
            notes = (f"P values {odd_only} (P = 0 mod 4, P**2 = -1 mod 5) "
                     "searched for odd n only; even n is uncovered there")
    found.sort(key=_finding_key)
    return _diff_report(theorem_id, query, [], found, notes)


# --------------------------------------------------------------------------
# identity sweeps

def _sweep_report(theorem_id: str, failures: list[CheckOutcome], total: int,
                  grid_text: str) -> TheoremReport:
    verdict = CONSISTENT if not failures else COUNTEREXAMPLE
    notes = f"{grid_text}: {total} checks, {len(failures)} failed"
    if len(failures) > 50:
        notes += " (first 50 recorded)"
    return TheoremReport(theorem_id, None, (), tuple(failures[:50]), verdict, notes)


def _collect(outcomes, failures: list[CheckOutcome], total: int) -> int:
    for outcome in outcomes:
        total += 1
        if not outcome.passed:
            failures.append(outcome)
    return total


def sweep_shift_congruences(p_max: int = 25, idx_max: int = 6,
                            large_n: int | None = 10**6) -> TheoremReport:
    """All four shift congruences over a signed (m, n, r) grid.

    Covers P <= p_max, 0 < |m|, |n| <= idx_max, |r| <= idx_max, plus spot
    checks at |n| = large_n.

    The grid checks read exact values streamed by `sequences.seq_range`:
    one span |k| <= idx_max per P for the m and r terms, and one window
    2mn +- idx_max per (m, n).  So about 2*(2*idx_max + 1) exact terms are
    held at a time, not the whole span |k| <= 2*idx_max**2 + idx_max.  The
    spot checks pass no values and run on modular doubling, which keeps the
    recurrence and doubling paths cross-checked against each other.
    """
    failures: list[CheckOutcome] = []
    total = 0
    signed = [i for i in range(-idx_max, idx_max + 1) if i != 0]
    rs = range(-idx_max, idx_max + 1)
    checks = (identities.check_shift_u_mod_u, identities.check_shift_v_mod_u,
              identities.check_shift_u_mod_v, identities.check_shift_v_mod_v)
    for p in range(1, p_max + 1):
        params = SequenceParams(p, 1)
        small = {pair.n: pair
                 for pair in sequences.seq_range(params, -idx_max, idx_max)}
        for m in signed:
            for n in signed:
                centre = 2 * m * n
                values = dict(small)
                values.update((pair.n, pair) for pair in sequences.seq_range(
                    params, centre - idx_max, centre + idx_max))
                total = _collect([fn(params, m, n, r, values=values)
                                  for r in rs for fn in checks], failures, total)
    if large_n:
        for p in (1, 2, 5, 25):
            if p > p_max:
                continue
            params = SequenceParams(p, 1)
            for m in (1, -2, 5, 12):
                for n in (large_n, -large_n):
                    for r in (-3, 0, 7):
                        for fn in checks:
                            total = _collect((fn(params, m, n, r),), failures, total)
    grid = (f"P <= {p_max}, 0 < |m|,|n| <= {idx_max}, |r| <= {idx_max}"
            + (f", spot checks at |n| = {large_n}" if large_n else ""))
    return _sweep_report("shift-congruences", failures, total, grid)


def sweep_product_identities(p_max: int = 25, idx_max: int = 6) -> TheoremReport:
    """Product identities for Q = 1, the Q = -1 tripling companion, and the
    V_{5n} factor law, over signed index grids."""
    failures: list[CheckOutcome] = []
    total = 0
    span = range(-idx_max, idx_max + 1)
    for p in range(1, p_max + 1):
        params = SequenceParams(p, 1)
        for n in span:
            total = _collect(identities.check_product_identities(params, n),
                             failures, total)
    for p in range(3, p_max + 1):
        for n in span:
            total = _collect((identities.check_q_minus_one_triple(p, n),),
                             failures, total)
    for p in range(5, p_max + 1, 5):
        params = SequenceParams(p, 1)
        for n in span:
            if n % 2:
                total = _collect((identities.check_v5n_factor(params, n),),
                                 failures, total)
    grid = f"P <= {p_max}, |n| <= {idx_max}"
    return _sweep_report("product-identities", failures, total, grid)


def sweep_divisibility_laws(p_max: int = 25, idx_max: int = 6) -> TheoremReport:
    """Divisibility biconditionals and the gcd law over positive index grids."""
    failures: list[CheckOutcome] = []
    total = 0
    for p in range(1, p_max + 1):
        params = SequenceParams(p, 1)
        for m in range(1, idx_max + 1):
            for n in range(1, idx_max + 1):
                total = _collect(identities.check_divisibility_laws(params, m, n),
                                 failures, total)
        if p % 2:
            for n in range(1, idx_max + 1):
                total = _collect((identities.check_gcd_u_v(params, n),),
                                 failures, total)
    grid = f"P <= {p_max}, m, n <= {idx_max}"
    return _sweep_report("divisibility-laws", failures, total, grid)


def sweep_residue_classes(p_max: int = 25, idx_max: int = 6,
                          obstruction_max: int = 501,
                          pow2_max: int = 12) -> TheoremReport:
    """Residue-class lemmas: V mod 8, mod P**2, 5/3 divisibility, Lucas
    powers of two mod 4, the -square obstruction, and Jacobi symbols."""
    failures: list[CheckOutcome] = []
    total = 0
    for p in range(1, p_max + 1):
        params = SequenceParams(p, 1)
        for n in range(1, idx_max + 1):
            total = _collect(identities.check_mod_p2_laws(params, n), failures, total)
            total = _collect((identities.check_divisibility_by_5_and_3(params, n),),
                             failures, total)
        if p % 2:
            for r in range(1, idx_max + 1):
                for m in range(1, idx_max + 1, 2):
                    total = _collect((identities.check_v_mod8_class(p, r, m),),
                                     failures, total)
                total = _collect((identities.check_jacobi_p2plus3(p, r),),
                                 failures, total)
    for k in range(1, pow2_max + 1):
        total = _collect((identities.check_lucas_pow2_mod4(k),), failures, total)
    for m in range(3, obstruction_max + 1, 2):
        total = _collect((identities.check_residue_minus_square_obstruction(m),),
                         failures, total)
    grid = (f"P <= {p_max}, indices <= {idx_max}, k <= {pow2_max}, "
            f"obstruction moduli <= {obstruction_max}")
    return _sweep_report("residue-classes", failures, total, grid)


def _family_oracle_outcome(check_id: str, inputs: tuple[int, ...],
                           family_pairs: set, oracle_pairs: set,
                           ) -> CheckOutcome:
    passed = family_pairs == oracle_pairs
    note = ""
    if not passed:
        only_family = sorted(family_pairs - oracle_pairs)
        only_oracle = sorted(oracle_pairs - family_pairs)
        note = f"family-only: {only_family}; oracle-only: {only_oracle}"
    return CheckOutcome(check_id, inputs, passed,
                        len(family_pairs), len(oracle_pairs), note)


def sweep_pell_form_families(z_max: int = 20, v_bound: int = 10**4,
                             y_bound: int = 10**4, c_bound: int = 10**4,
                             ) -> TheoremReport:
    """Parametric families against direct enumeration for all three equations.

    Family generation is extended until it provably covers the enumeration
    bound (the next member lies beyond it), so a missing parametric solution
    inside the bound cannot hide.
    """
    failures: list[CheckOutcome] = []
    total = 0

    for sign in (1, -1):
        fam = diophantine.pell5_family(sign, max(2, z_max // 2 + 1))
        while fam[-1].v <= v_bound:
            fam = diophantine.pell5_family(sign, len(fam) + 1)
        family_pairs = {(s.u, s.v) for s in fam if s.v <= v_bound}
        oracle_pairs = {(s.u, s.v) for s in diophantine.pell5_enumerate(sign, v_bound)}
        total = _collect((_family_oracle_outcome(
            "pell5-family-oracle", (sign, v_bound), family_pairs, oracle_pairs),),
            failures, total)

    for c in (-5, -1):
        fam = diophantine.form_family(c, max(2, z_max // 2 + 1))
        while fam[-1].y <= y_bound:
            fam = diophantine.form_family(c, len(fam) + 1)
        family_pairs = {(s.x, s.y) for s in fam if s.y <= y_bound}
        oracle_pairs = {(s.x, s.y) for s in diophantine.form_enumerate(c, y_bound)}
        total = _collect((_family_oracle_outcome(
            "form-family-oracle", (c, y_bound), family_pairs, oracle_pairs),),
            failures, total)

    fam3 = diophantine.pell3_family(max(2, z_max // 2 + 1))
    while fam3[-1][1] <= c_bound:
        fam3 = diophantine.pell3_family(len(fam3) + 1)
    family_pairs = {bc for bc in fam3 if bc[1] <= c_bound}
    oracle_pairs = set(diophantine.pell3_enumerate(c_bound))
    total = _collect((_family_oracle_outcome(
        "pell3-family-oracle", (c_bound,), family_pairs, oracle_pairs),),
        failures, total)

    grid = (f"z ~ {z_max}, Pell v <= {v_bound}, form y <= {y_bound}, "
            f"Pell-3 c <= {c_bound}")
    return _sweep_report("pell-form-families", failures, total, grid)


def sweep_quartic_equations(x_bound: int = 2000) -> TheoremReport:
    """The three quartic scans against their classified solution sets."""
    expected = {
        "plus3": {(1, 1)},
        "minus3": {(2, 1)},
        "plus5": set(),
    }
    failures: list[CheckOutcome] = []
    total = 0
    for variant in ("plus3", "minus3", "plus5"):
        found = {(s.x, s.y) for s in diophantine.quartic_solutions(variant, x_bound)}
        want = expected[variant]
        note = f"{diophantine.quartic_polynomial(variant)}: found {sorted(found)}"
        total = _collect((CheckOutcome(
            "quartic-solutions", (x_bound,), found == want,
            len(found), len(want), note),), failures, total)
    return _sweep_report("quartic-equations", failures, total, f"x <= {x_bound}")


# --------------------------------------------------------------------------
# profiles and the full harness

@dataclass(frozen=True)
class Profile:
    """Box sizes for one verify_all run."""

    p_max: int
    n_max: int
    m_max: int
    sweep_p_max: int
    sweep_idx: int
    large_n: int
    obstruction_max: int
    pow2_max: int
    pell_z_max: int
    pell_v_bound: int
    form_y_bound: int
    pell3_c_bound: int
    quartic_x_bound: int


PROFILES = {
    "quick": Profile(p_max=25, n_max=120, m_max=60, sweep_p_max=25, sweep_idx=6,
                     large_n=10**6, obstruction_max=501, pow2_max=12,
                     pell_z_max=20, pell_v_bound=10**4, form_y_bound=10**4,
                     pell3_c_bound=10**4, quartic_x_bound=2000),
    "full": Profile(p_max=99, n_max=400, m_max=200, sweep_p_max=25, sweep_idx=12,
                    large_n=10**6, obstruction_max=2001, pow2_max=20,
                    pell_z_max=40, pell_v_bound=10**6, form_y_bound=10**5,
                    pell3_c_bound=10**5, quartic_x_bound=10**4),
}


def _profile(profile: str | Profile) -> Profile:
    if isinstance(profile, Profile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; valid: quick, full") from None


def default_query(theorem_id: str, profile: str | Profile = "quick",
                  ) -> SquareClassQuery:
    """The canonical in-scope box for one classification id and profile."""
    prof = _profile(profile)
    if theorem_id not in CLASSIFICATION_IDS:
        raise ValueError(f"unknown classification id {theorem_id!r}; "
                         f"valid: {', '.join(CLASSIFICATION_IDS)}")
    p_all = p_range(prof.p_max)
    p_odd = p_range(prof.p_max, parity="odd")
    if theorem_id == "u-wsquare":
        return SquareClassQuery("U", 1, p_all, prof.n_max)
    if theorem_id == "fib-lucas-squares":
        return SquareClassQuery("U", 1, (1,), max(prof.n_max, 1000))
    if theorem_id == "v-square":
        return SquareClassQuery("V", 1, p_odd, prof.n_max)
    if theorem_id == "v-2square":
        return SquareClassQuery("V", 2, p_odd, prof.n_max)
    if theorem_id == "v-vm-square":
        return SquareClassQuery("VV", 1, p_odd, prof.n_max, m_max=prof.m_max)
    if theorem_id == "v-2vm-square":
        return SquareClassQuery("VV", 2, p_odd, prof.n_max, m_max=prof.m_max)
    if theorem_id == "u-2um-square":
        return SquareClassQuery("UU", 2, p_odd, prof.n_max, m_max=prof.m_max, m_min=2)
    if theorem_id == "v-5square":
        return SquareClassQuery("V", 5, p_odd, prof.n_max)
    if theorem_id == "v-5vm-square":
        return SquareClassQuery("VV", 5, p_all, prof.n_max, m_max=prof.m_max)
    if theorem_id == "u-5square":
        covered = tuple(p for p in p_all
                        if p % 2 == 1 or p * p % 5 == 1)
        return SquareClassQuery("U", 5, covered, prof.n_max)
    # u-5um-square: odd P plus the P = 0 (mod 4), P**2 = +-1 (mod 5) evens
    # (the runner restricts the P**2 = -1 evens to odd n automatically).
    covered = tuple(p for p in p_range(prof.p_max)
                    if p % 2 == 1 or p * p % 5 == 1 or p % 4 == 0)
    covered = tuple(p for p in covered if not (p % 5 == 0 and p % 2 == 0))
    return SquareClassQuery("UU", 5, covered, prof.n_max, m_max=prof.m_max, m_min=2)


def verify_report(report_id: str, profile: str | Profile = "quick",
                  query: SquareClassQuery | None = None,
                  jobs: int = 1) -> TheoremReport:
    """Run one report by id: a classification (optionally with a custom
    query) or an identity sweep at the profile's grid sizes."""
    prof = _profile(profile)
    if report_id in CLASSIFICATION_IDS:
        if query is None:
            query = default_query(report_id, prof)
        return verify_theorem(report_id, query, jobs=jobs)
    if report_id == "shift-congruences":
        return sweep_shift_congruences(prof.sweep_p_max, prof.sweep_idx, prof.large_n)
    if report_id == "product-identities":
        return sweep_product_identities(prof.sweep_p_max, prof.sweep_idx)
    if report_id == "divisibility-laws":
        return sweep_divisibility_laws(prof.sweep_p_max, prof.sweep_idx)
    if report_id == "residue-classes":
        return sweep_residue_classes(prof.sweep_p_max, prof.sweep_idx,
                                     prof.obstruction_max, prof.pow2_max)
    if report_id == "pell-form-families":
        return sweep_pell_form_families(prof.pell_z_max, prof.pell_v_bound,
                                        prof.form_y_bound, prof.pell3_c_bound)
    if report_id == "quartic-equations":
        return sweep_quartic_equations(prof.quartic_x_bound)
    raise ValueError(f"unknown report id {report_id!r}; "
                     f"valid: {', '.join(REPORT_IDS)}")


def verify_all(profile: str | Profile = "quick", jobs: int = 1,
               ) -> list[TheoremReport]:
    """Run every classification and every identity sweep: 17 reports."""
    prof = _profile(profile)
    reports = [verify_theorem(tid, default_query(tid, prof), jobs=jobs)
               for tid in CLASSIFICATION_IDS]
    reports.extend(verify_report(sid, prof, jobs=jobs) for sid in SWEEP_IDS)
    return reports
