"""Per-layer counts and times, taken by wrapping the package from outside.

A `Tracer` replaces the module attributes that callers inside the package
look up at call time (`sequences.u`, `arith.square_witness`,
`classifier.search`, ...) with timing wrappers, and puts the originals back
when the `installed` block ends, even on error.  A stack of open spans lets
each wrapper subtract the time of wrapped calls made inside it, so
`self_s` is the time spent in a function minus the time of the wrapped
functions it called.

Names bound at import are out of reach, and this is left as it is rather
than patching private names: `diophantine` imports `sequences.u`/`v` and
`arith.square_witness`/`isqrt` by name, so those calls are not counted
under `sequences` or `arith` and their time stays inside the `diophantine`
span that made them.

`seq_range` returns a generator, so its wrapper returns a generator too
and times every `next()` separately; the cost of producing each term is
charged to `sequences.seq_range`, not to the loop that consumes it.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# Wrapper kinds.
CALL = "call"        # time each call
HITS = "hits"        # time each call and count results that are not None
ITER = "iter"        # the function returns an iterator: time each next()
REPORT = "report"    # name the span after the first argument (a report id)

_SHIFT_CHECKS = ("check_shift_u_mod_u", "check_shift_v_mod_u",
                 "check_shift_u_mod_v", "check_shift_v_mod_v")
_OTHER_CHECKS = ("check_product_identities", "check_q_minus_one_triple",
                 "check_v5n_factor", "check_divisibility_laws", "check_gcd_u_v",
                 "check_v_mod8_class", "check_mod_p2_laws",
                 "check_divisibility_by_5_and_3", "check_lucas_pow2_mod4",
                 "check_residue_minus_square_obstruction", "check_jacobi_p2plus3")
SWEEPS = {
    "sweep_shift_congruences": "shift-congruences",
    "sweep_product_identities": "product-identities",
    "sweep_divisibility_laws": "divisibility-laws",
    "sweep_residue_classes": "residue-classes",
    "sweep_pell_form_families": "pell-form-families",
    "sweep_quartic_equations": "quartic-equations",
}

# (module, attribute, span name, kind).  Several attributes may share a
# span name; their counts and times are then summed.
WRAPPED = (
    [("sequences", fn, f"sequences.{fn}", CALL)
     for fn in ("u", "v", "pair_at", "u_mod", "v_mod", "pair_mod")]
    + [("sequences", "seq_range", "sequences.seq_range", ITER),
       ("arith", "square_witness", "arith.square_witness", HITS),
       ("classifier", "search", "classifier.search", CALL),
       ("classifier", "verify_theorem", "classifier.report", REPORT)]
    + [("classifier", fn, f"classifier.report.{rid}", CALL) for fn, rid in SWEEPS.items()]
    + [("identities", fn, "identities.check_shift", CALL) for fn in _SHIFT_CHECKS]
    + [("identities", fn, "identities.check_other", CALL) for fn in _OTHER_CHECKS]
    + [("diophantine", f"{eq}_family", "diophantine.family", CALL)
       for eq in ("pell5", "form", "pell3")]
    + [("diophantine", f"{eq}_enumerate", "diophantine.enumerate", CALL)
       for eq in ("pell5", "form", "pell3")]
    + [("diophantine", "quartic_solutions", "diophantine.quartic_solutions", CALL),
       ("cli", "main", "cli.main", CALL),
       ("cli", "report_to_dict", "cli.report_to_dict", CALL)]
)

CLASSIFICATIONS = ("u-wsquare", "fib-lucas-squares", "v-square", "v-2square",
                   "v-vm-square", "v-2vm-square", "u-2um-square", "v-5square",
                   "v-5vm-square", "u-5square", "u-5um-square")

# Span name -> the fields reported for it, as metrics "<span>.<field>".
REPORTED = (
    [(f"sequences.{fn}", ("calls", "self_s"))
     for fn in ("u", "v", "pair_at", "u_mod", "v_mod", "pair_mod")]
    + [("sequences.seq_range", ("calls", "items", "self_s")),
       ("arith.square_witness", ("calls", "self_s", "hit_ratio")),
       ("classifier.search", ("calls", "s", "self_s"))]
    + [(f"classifier.report.{rid}", ("s",))
       for rid in CLASSIFICATIONS + tuple(SWEEPS.values())]
    + [("identities.check_shift", ("calls", "s", "self_s")),
       ("identities.check_other", ("calls", "s")),
       ("diophantine.family", ("calls", "s")),
       ("diophantine.enumerate", ("s",)),
       ("diophantine.quartic_solutions", ("s",)),
       ("cli.main", ("self_s",)),
       ("cli.report_to_dict", ("calls", "s"))]
)
UNITS = {"calls": "count", "items": "count", "s": "s", "self_s": "s", "hit_ratio": "ratio"}

# Positions in a span's statistics list.
CALLS, TOTAL_S, SELF_S, ITEMS, FOUND = range(5)


class Tracer:
    """Span statistics for one traced pass: name -> [calls, s, self_s, items, found]."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.errors = 0          # exceptions that left a wrapped call
        self._stack: list[float] = []  # time of wrapped children, per open span
        self._patches: list[tuple] = []

    def stat(self, name: str) -> list:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0, 0, 0]
        return entry

    def _wrap(self, fn, name: str, kind: str):
        stack = self._stack
        clock = time.perf_counter
        entry = None if kind == REPORT else self.stat(name)

        if kind == ITER:
            def timed_iter(it):
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        self.errors += 1
                        raise
                    finally:
                        dt = clock() - t0
                        entry[SELF_S] += dt - stack.pop()
                        entry[TOTAL_S] += dt
                        if stack:
                            stack[-1] += dt
                    entry[ITEMS] += 1
                    yield item

            def iter_wrapper(*args, **kwargs):
                # Calling a generator function does no work: the time is
                # taken in timed_iter, one span per next().
                entry[CALLS] += 1
                return timed_iter(fn(*args, **kwargs))
            return iter_wrapper

        report = kind == REPORT
        hits = kind == HITS

        def wrapper(*args, **kwargs):
            if report:
                span = self.stat(f"{name}.{args[0] if args else kwargs['theorem_id']}")
            else:
                span = entry
            span[CALLS] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors += 1
                raise
            finally:
                dt = clock() - t0
                span[SELF_S] += dt - stack.pop()
                span[TOTAL_S] += dt
                if stack:
                    stack[-1] += dt
            if hits and result is not None:
                span[FOUND] += 1
            return result
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, kind in WRAPPED:
            module = importlib.import_module(f"lucassquares.{module_name}")
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, kind))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def layer_metrics(stats: dict[str, list]) -> dict[str, float]:
    """The reported per-layer metrics of one traced pass, by name."""
    out = {}
    for span, fields in REPORTED:
        calls, total, self_s, items, found = stats.get(span, [0, 0.0, 0.0, 0, 0])
        values = {"calls": calls, "s": total, "self_s": self_s, "items": items,
                  "hit_ratio": found / calls if calls else 0.0}
        for f in fields:
            out[f"{span}.{f}"] = values[f]
    return out


@contextmanager
def installed(tracer: Tracer):
    """Wrap the package for the duration of the block, then restore it."""
    try:
        tracer.install()
        yield tracer
    finally:
        tracer.uninstall()
