"""The four workloads: seeded inputs, the timed calls, and output checks.

Every workload is a closed loop in one process: each call starts when the
previous one has returned, with jobs=1, no threads and no pool.  The seed
draws the P samples, indices and moduli; the package only ever sees the
generated inputs.  Draws are stratified (one value per slice of the range)
and balanced over what drives the cost, so that different seeds give
different inputs of nearly the same total cost.

Checks run outside the timed region, and use references bound here at
import (before any tracing wrapper is installed), so that a check never
counts as work of the layer it checks.  Large integers are hashed with
`int.to_bytes` and never converted with `str()`: Python refuses to convert
integers of more than 4300 digits to text.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import time
from dataclasses import dataclass, field

from lucassquares import classifier, cli, sequences
from lucassquares.classifier import SquareClassQuery
from lucassquares.sequences import SequenceParams
from lucassquares.sequences import pair_at as _ref_pair_at
from lucassquares.sequences import pair_mod as _ref_pair_mod

NAMES = ("verify-full", "classify-1term", "classify-2term", "point-eval")

# `lucassq verify all --profile full --format json` at the seed commit.
VERIFY_FULL_SHA256 = "a3fd2cfacb3c84a87d576c1af0bc0a789285ffafb296e5f5d0b876f48042d818"
VERIFY_FULL_BYTES = 65232
# Checks the full profile's shift-congruences sweep states in its notes.
SHIFT_CHECKS = 1440384

# The square test's cost depends on P mod 6 (whether 2 or 3 divides U_n),
# so the classify samples draw this many P values from each class mod 6.
P_PER_CLASS = 3
POINT_PAIR_AT = 60           # exact pair_at calls, n log-uniform in [10^3, 10^5]
POINT_PAIR_MOD = 1000        # pair_mod calls, n <= 10^18, modulus <= 10^12
POINT_SPANS = 15             # seq_range spans of SPAN terms
SPAN = 2000
SPAN_START = 5000            # spans start in [-SPAN_START, SPAN_START)
CROSS_CHECK_EVERY = 8        # exact pairs also checked against pair_mod
# The identity V**2 - D*U**2 = 4*(-Q)**n is compared modulo these Mersenne
# primes: reducing is linear in the size of U and V, where squaring them
# would cost as much as the timed call.  A wrong pair passes only if its
# error is divisible by their 188-bit product.
CHECK_PRIMES = (2**61 - 1, 2**127 - 1)


@dataclass
class Workload:
    """Generated inputs of one workload: the calls to make, in order."""

    name: str
    box: str
    calls: list = field(default_factory=list)


@dataclass
class Outcome:
    """What one pass did: per-call latencies, failures and an output digest."""

    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    digest: str = ""
    verdicts: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """`count` values, one uniform draw in each equal slice of [lo, hi), in order."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def _spread_pairs(rng: random.Random, count: int, a_range: tuple, b_range: tuple,
                  ) -> list[tuple[float, float]]:
    """`count` (a, b) draws, each coordinate stratified.

    Slice i of a meets slice (offset + i*step) mod count of b, with step near
    count/golden ratio, so the largest a values (the costliest calls) meet b
    values from across b's range for every seed, rather than by chance.
    """
    a = _stratified(rng, count, *a_range)
    b = _stratified(rng, count, *b_range)
    step = max(1, round(count * 0.618))
    while math.gcd(step, count) != 1:
        step += 1
    offset = rng.randrange(count)
    return [(a[i], b[(offset + i * step) % count]) for i in range(count)]


def _p_sample(rng: random.Random, pool: range, per_class: int) -> tuple[int, ...]:
    """`per_class` P values from each class mod 6 present in `pool`, increasing.

    Each class is cut into `per_class` contiguous slices and one value is
    taken from each.  Within slice j, the classes' positions are spread over
    the slice (Latin hypercube), so every sample has about the same sizes.
    """
    classes = [[p for p in pool if p % 6 == r] for r in range(6)]
    classes = [members for members in classes if members]
    picks = []
    for j in range(per_class):
        order = rng.sample(range(len(classes)), len(classes))
        for members, rank in zip(classes, order):
            lo = len(members) * j // per_class
            hi = len(members) * (j + 1) // per_class
            position = (rank + rng.random()) / len(classes)
            picks.append(members[lo + int(position * (hi - lo))])
    return tuple(sorted(picks))


def _q_for(rng: random.Random, P: int) -> int:
    """Q = 1 or -1 at random where both are valid (Q = -1 needs P >= 3)."""
    return rng.choice((1, -1)) if P >= 3 else 1


def make(name: str, seed: int) -> Workload:
    """Generate the inputs of workload `name` from `seed`."""
    rng = random.Random(f"{name}:{seed}")
    if name == "verify-full":
        # The README's headline command; it takes no inputs, so the seed is unused.
        return Workload(name, "verify all --profile full (17 reports)",
                        [("verify", "all", "--profile", "full", "--format", "json")])
    if name == "classify-1term":
        ps = _p_sample(rng, range(1, 100), P_PER_CLASS)
        return Workload(name,
                        f"u-wsquare, U family, {len(ps)} of P in 1..99, n <= 1000",
                        [("u-wsquare", SquareClassQuery("U", 1, ps, 1000))])
    if name == "classify-2term":
        ps = _p_sample(rng, range(1, 100, 2), P_PER_CLASS)
        return Workload(name,
                        f"u-2um-square and v-vm-square, {len(ps)} of odd P <= 99, "
                        "n <= 1000, m <= 500 (m >= 2 for u-2um-square)",
                        [("u-2um-square", SquareClassQuery("UU", 2, ps, 1000,
                                                           m_max=500, m_min=2)),
                         ("v-vm-square", SquareClassQuery("VV", 1, ps, 1000, m_max=500))])
    if name == "point-eval":
        calls = []
        for e, p in _spread_pairs(rng, POINT_PAIR_AT, (3, 5), (0, 99)):
            P = 1 + int(p)
            calls.append(("pair_at", P, _q_for(rng, P), round(10 ** e),
                          rng.randrange(2, 10**12 + 1)))
        for p in _stratified(rng, POINT_PAIR_MOD, 0, 99):
            P = 1 + int(p)
            calls.append(("pair_mod", P, _q_for(rng, P), rng.randrange(10**18 + 1),
                          rng.randrange(2, 10**12 + 1)))
        for s, p in _spread_pairs(rng, POINT_SPANS, (-SPAN_START, SPAN_START), (0, 99)):
            P = 1 + int(p)
            lo = int(s)
            calls.append(("seq_range", P, _q_for(rng, P), lo, lo + SPAN - 1))
        rng.shuffle(calls)
        return Workload(name,
                        f"{POINT_PAIR_AT} pair_at (n log-uniform in [10^3, 10^5]), "
                        f"{POINT_PAIR_MOD} pair_mod (n <= 10^18, modulus <= 10^12), "
                        f"{POINT_SPANS} seq_range spans of {SPAN} from "
                        f"[-{SPAN_START}, {SPAN_START}); P <= 99, both Q where valid",
                        calls)
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(NAMES)}")


# --------------------------------------------------------------------------
# machine speed

# Nominal seconds of reference() on the machine the baseline was taken on.
REFERENCE_S = 0.1


def reference() -> float:
    """Seconds taken by a fixed mix of interpreter and big-integer work.

    The work uses no code of the package, so only the machine's speed moves
    it: small-integer modular loops, a linear recurrence up to 40,000-digit
    values, and squarings of 130,000-bit values.
    """
    t0 = time.perf_counter()
    for k in range(40):
        _oracle_mod(3 + k, -1, 10**17 + k, 10**9 + 7)
    a, b = 0, 1
    for _ in range(20000):
        a, b = b, 99 * b + a
    x = a
    for _ in range(6):
        x = (x * x) >> a.bit_length()
    return time.perf_counter() - t0


# --------------------------------------------------------------------------
# hashing without str()

def _feed(h, *values: int) -> None:
    for x in values:
        size = (x.bit_length() + 8) // 8
        h.update(size.to_bytes(8, "big"))
        h.update(x.to_bytes(size, "big", signed=True))


# --------------------------------------------------------------------------
# passes

def run(work: Workload, out_dir: str) -> Outcome:
    """Make the workload's calls in order, timing each; then check the outputs."""
    if work.name == "verify-full":
        return _run_verify_full(work, out_dir)
    if work.name == "point-eval":
        return _run_point_eval(work)
    return _run_classify(work)


def _run_verify_full(work: Workload, out_dir: str) -> Outcome:
    out = Outcome()
    path = os.path.join(out_dir, "verify-full.json")
    for argv in work.calls:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            code = cli.main([*argv, "--out", path])
        except Exception as err:  # a raised call is a failed operation
            out.failures.append(f"cli.main raised {type(err).__name__}: {err}")
            continue
        out.latencies_s.append(time.perf_counter() - t0)
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as handle:
                data = handle.read()
            os.remove(path)
        out.digest = hashlib.sha256(data).hexdigest()
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if out.digest != VERIFY_FULL_SHA256 or len(data) != VERIFY_FULL_BYTES:
            problems.append(f"report JSON digest {out.digest} ({len(data)} bytes) "
                            f"differs from {VERIFY_FULL_SHA256} ({VERIFY_FULL_BYTES} bytes)")
        reports = _json_reports(data)
        out.verdicts = [(r["theorem_id"], r["verdict"]) for r in reports]
        if any(v != "consistent" for _, v in out.verdicts):
            problems.append(f"verdicts {out.verdicts}")
        out.facts["shift_checks"] = _stated_checks(reports, "shift-congruences")
        if problems:
            out.failures.append("; ".join(problems))
    return out


def _json_reports(data: bytes) -> list[dict]:
    try:
        return json.loads(data)["reports"]
    except (ValueError, KeyError, TypeError):
        return []


def _stated_checks(reports: list[dict], report_id: str) -> int:
    """The check count a sweep report states in its notes ("...: N checks, F failed")."""
    for report in reports:
        if report["theorem_id"] == report_id:
            match = re.search(r": (\d+) checks, \d+ failed", report["notes"])
            if match:
                return int(match.group(1))
    return -1


def _run_classify(work: Workload) -> Outcome:
    out = Outcome()
    reports = []
    for report_id, query in work.calls:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            report = classifier.verify_theorem(report_id, query)
        except Exception as err:
            out.failures.append(f"{report_id} raised {type(err).__name__}: {err}")
            continue
        out.latencies_s.append(time.perf_counter() - t0)
        reports.append(report)
    h = hashlib.sha256()
    for report in reports:
        out.verdicts.append((report.theorem_id, report.verdict))
        if report.verdict != "consistent":
            out.failures.append(f"{report.theorem_id}: {report.verdict}: {report.notes}")
        h.update(report.theorem_id.encode())
        for f in report.found:
            h.update(f.family.encode())
            _feed(h, f.P, f.n, -1 if f.m is None else f.m, f.w, f.x)
    out.digest = h.hexdigest()
    out.facts["p_values"] = len(work.calls[0][1].p_values)
    return out


def _oracle_mod(P: int, Q: int, n: int, modulus: int) -> tuple[int, int]:
    """(U_n, V_n) mod modulus by 2x2 matrix powers, independent of `sequences`.

    [[P, Q], [1, 0]]**n = [[U_{n+1}, Q*U_n], [U_n, Q*U_{n-1}]].
    """
    def mul(a, b):
        return ((a[0] * b[0] + a[1] * b[2]) % modulus, (a[0] * b[1] + a[1] * b[3]) % modulus,
                (a[2] * b[0] + a[3] * b[2]) % modulus, (a[2] * b[1] + a[3] * b[3]) % modulus)
    result, base = (1, 0, 0, 1), (P % modulus, Q % modulus, 1, 0)
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base)
        n >>= 1
    u_n, u_next = result[2], result[0]
    return u_n, (2 * u_next - P * u_n) % modulus


def _run_point_eval(work: Workload) -> Outcome:
    out = Outcome()
    pair_at, pair_mod, seq_range = sequences.pair_at, sequences.pair_mod, sequences.seq_range
    clock = time.perf_counter
    h = hashlib.sha256()
    exact_seen = 0
    for call in work.calls:
        kind, P, Q, a, b = call
        params = SequenceParams(P, Q)
        out.attempted += 1
        try:
            if kind == "pair_at":
                t0 = clock()
                pair = pair_at(params, a)
                out.latencies_s.append(clock() - t0)
                result = (pair.n, pair.u, pair.v)
            elif kind == "pair_mod":
                t0 = clock()
                res = pair_mod(params, a, b)
                out.latencies_s.append(clock() - t0)
                result = (res.n, res.modulus, res.u_res, res.v_res)
            else:
                t0 = clock()
                count, first, last = 0, None, None
                for last in seq_range(params, a, b):
                    if first is None:
                        first = last
                    count += 1
                out.latencies_s.append(clock() - t0)
                result = (count, first.n, first.u, first.v, last.n, last.u, last.v)
        except Exception as err:
            out.failures.append(f"{call} raised {type(err).__name__}: {err}")
            continue
        problem = _check_point(call, result, exact_seen)
        if kind == "pair_at":
            exact_seen += 1
        if problem:
            out.failures.append(f"{call}: {problem}")
        h.update(kind.encode())
        _feed(h, *result)
    out.digest = h.hexdigest()
    return out


def _check_point(call: tuple, result: tuple, exact_seen: int) -> str:
    kind, P, Q, a, b = call
    if kind == "pair_at":
        n, u, v = result
        if n != a:
            return f"index {n} returned"
        rhs = 4 if Q == -1 or n % 2 == 0 else -4
        for p in CHECK_PRIMES:
            if (pow(v, 2, p) - (P * P + 4 * Q) * pow(u, 2, p) - rhs) % p:
                return f"V**2 - D*U**2 != 4*(-Q)**n (mod {p})"
        if exact_seen % CROSS_CHECK_EVERY == 0:
            res = _ref_pair_mod(SequenceParams(P, Q), n, b)
            if (res.u_res, res.v_res) != (u % b, v % b):
                return f"pair_mod mod {b} disagrees with the exact pair"
        return ""
    if kind == "pair_mod":
        if result != (a, b, *_oracle_mod(P, Q, a, b)):
            return "pair_mod disagrees with the matrix-power oracle"
        return ""
    count, n_first, u_first, v_first, n_last, u_last, v_last = result
    if count != b - a + 1:
        return f"{count} terms yielded"
    params = SequenceParams(P, Q)
    for n, u, v in ((n_first, u_first, v_first), (n_last, u_last, v_last)):
        ref = _ref_pair_at(params, n)
        if (ref.n, ref.u, ref.v) != (n, u, v):
            return f"seq_range disagrees with pair_at at n = {n}"
    if (n_first, n_last) != (a, b):
        return f"span ends {n_first}..{n_last}"
    return ""
