"""Command line interface.

Four subcommands:

- seq: evaluate U_n and V_n (exactly, or modulo M) at an index or range;
- solve: generate parametric solutions of the Pell and quartic equations
  and cross-check them against direct enumeration;
- search: run one bounded square-class search box;
- verify: run classification reports or the full seventeen-report harness.

Output formats: table (plain rows), json, csv.  JSON renders every integer
as a decimal string so arbitrary-precision values survive consumers that
parse numbers as floats.  All output is deterministic for a given command
line.  Exit codes: 0 success, 1 usage error, 2 counterexample found,
3 query out of the predicted scope.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

from . import classifier, diophantine, sequences
from .classifier import (
    CLASSIFICATION_IDS,
    FAMILIES,
    REPORT_IDS,
    REPORT_SUMMARIES,
    SquareClassFinding,
    SquareClassQuery,
    TheoremReport,
    p_range,
)
from .sequences import SequenceParams

__all__ = ["main", "report_to_dict"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_OUT_OF_SCOPE = 3


class CliError(Exception):
    """A usage-level failure; rendered to stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # pragma: no cover - thin shim
        raise CliError(message)


@dataclass
class _Result:
    csv_header: list[str]
    csv_rows: list[list]
    json_payload: dict
    exit_code: int = EXIT_OK
    # One line per row, cells space-separated, "-" for None; None: the CSV rows.
    table_rows: list[list] | None = None


# --------------------------------------------------------------------------
# serialization helpers

def _stringify(obj):
    """Recursively render integers as decimal strings (bools untouched)."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _stringify(value) for key, value in obj.items()}
    return obj


def _to_dict(obj) -> dict:
    """A query, finding or check outcome as a dict of its fields (tuples as lists)."""
    return {f.name: list(value) if isinstance(value, tuple) else value
            for f in fields(obj) for value in (getattr(obj, f.name),)}


def report_to_dict(report: TheoremReport) -> dict:
    """Plain-data form of a report (native ints; stringified only in JSON)."""
    return {
        "theorem_id": report.theorem_id,
        "summary": REPORT_SUMMARIES[report.theorem_id],
        "query": None if report.query is None else _to_dict(report.query),
        "predicted": [_to_dict(item) for item in report.predicted],
        "found": [_to_dict(item) for item in report.found],
        "verdict": report.verdict,
        "notes": report.notes,
    }


# --------------------------------------------------------------------------
# rendering

def _render(result: _Result, fmt: str) -> str:
    if fmt == "table":
        rows = result.csv_rows if result.table_rows is None else result.table_rows
        return "".join(" ".join("-" if cell is None else str(cell) for cell in row) + "\n"
                       for row in rows)
    if fmt == "json":
        return json.dumps(_stringify(result.json_payload),
                          indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(result.csv_header)
    for row in result.csv_rows:
        writer.writerow(["" if cell is None else cell for cell in row])
    return buffer.getvalue()


@contextmanager
def _exact_int_text():
    """Lift Python's cap on int-to-str digits (4300 by default) for the block.

    Exact values of any size are the point of the output, but the cap stays
    in force everywhere else, input parsing included.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10 before 3.10.7
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _emit(text: str, out_path: str | None) -> None:
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as err:
        target = out_path or "stdout"
        raise CliError(f"cannot write {target}: {err.strerror or err}") from None


# --------------------------------------------------------------------------
# argument parsing

_SPAN_RE = re.compile(r"^(-?\d+)(?:\.\.(-?\d+))?$")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_index_span(text: str) -> tuple[int, int]:
    match = _SPAN_RE.match(text)
    if not match:
        raise CliError(f"bad index spec {text!r}; use a single integer or LO..HI")
    lo = int(match.group(1))
    hi = int(match.group(2)) if match.group(2) is not None else lo
    if lo > hi:
        raise CliError(f"bad index range {text!r}: lower bound exceeds upper bound")
    return lo, hi


def _add_p_selection(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--P", type=int, action="append", dest="p_list",
                        metavar="P", help="explicit P value (repeatable)")
    parser.add_argument("--P-max", type=int, dest="p_max", metavar="N",
                        help="all P from 1 through N")
    parser.add_argument("--P-odd-max", type=int, dest="p_odd_max", metavar="N",
                        help="all odd P from 1 through N")
    parser.add_argument("--multiple-of", type=_positive_int, dest="multiple_of",
                        metavar="D", help="keep only P divisible by D")


def _resolve_p_values(args: argparse.Namespace, required: bool = True,
                      ) -> tuple[int, ...] | None:
    chosen = [name for name, value in (("--P", args.p_list),
                                       ("--P-max", args.p_max),
                                       ("--P-odd-max", args.p_odd_max))
              if value is not None]
    if len(chosen) > 1:
        raise CliError(f"{' and '.join(chosen)} are mutually exclusive")
    if args.p_list is not None:
        values = tuple(sorted(set(args.p_list)))
    elif args.p_max is not None:
        values = p_range(args.p_max)
    elif args.p_odd_max is not None:
        values = p_range(args.p_odd_max, parity="odd")
    else:
        if required:
            raise CliError("select P values with --P, --P-max or --P-odd-max")
        if args.multiple_of is not None:
            raise CliError("--multiple-of filters a P selection; "
                           "give --P, --P-max or --P-odd-max with it")
        return None
    if args.multiple_of is not None:
        values = tuple(p for p in values if p % args.multiple_of == 0)
    if not values:
        raise CliError("the P selection is empty")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="lucassq",
                     description="Verification toolkit for Lucas sequence "
                                 "square classes and related Pell equations.")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", help="output format (default: table)")
    common.add_argument("--out", metavar="FILE",
                        help="write output to FILE instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    seq = sub.add_parser("seq", parents=[common],
                         help="evaluate U_n and V_n at an index or range")
    seq.add_argument("-P", type=int, required=True, help="recurrence parameter P")
    seq.add_argument("-Q", type=int, default=1, help="recurrence parameter Q (default 1)")
    seq.add_argument("-n", required=True, metavar="N|LO..HI",
                     help="index or inclusive index range; a range that starts "
                          "below 0 needs '=', as in -n=-2..2")
    seq.add_argument("--mod", type=int, metavar="M",
                     help="reduce modulo M (requires nonnegative indices)")

    solve = sub.add_parser("solve", parents=[common],
                           help="solve the Pell and quartic equations")
    solve.add_argument("equation", choices=("pell5", "form", "pell3", "quartic"),
                       help="pell5: u**2-5v**2 = +-1; form: x**2-4xy-y**2 in {-5,-1}; "
                            "pell3: b**2-3c**2 = 1; quartic: x**4+ax**2+b = 5y**2")
    # No defaults here: _cmd_solve refuses another equation's option, then
    # applies the defaults of _SOLVE_OPTIONS.
    solve.add_argument("--sign", type=int, choices=(1, -1),
                       help="right-hand side for pell5 (default 1)")
    solve.add_argument("--c", type=int, choices=(-5, -1),
                       help="right-hand side for form (default -1)")
    solve.add_argument("--count", type=int,
                       help="number of family members to generate (default 5)")
    solve.add_argument("--variant", choices=tuple(diophantine.QUARTIC_VARIANTS),
                       help="quartic variant (default plus3)")
    solve.add_argument("--xmax", type=int,
                       help="x bound for the quartic scan (default 2000)")
    solve.add_argument("--enum-bound", type=int, dest="enum_bound",
                       help="explicit bound for the enumeration cross-check")

    search = sub.add_parser("search", parents=[common],
                            help="run one bounded square-class search box")
    search.add_argument("family", choices=FAMILIES,
                        help="U, V (one-term) or UU, VV (two-term)")
    search.add_argument("w", type=int, help="square-free coefficient")
    _add_p_selection(search)
    search.add_argument("--nmax", type=int, required=True, help="index bound")
    search.add_argument("--mmax", type=int, help="divisor index bound (two-term)")
    search.add_argument("--mmin", type=int, default=1,
                        help="divisor index lower bound (default 1)")
    search.add_argument("--parity", choices=("odd", "even"),
                        help="restrict searched n to one parity")
    search.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes over the P values (default 1)")

    verify = sub.add_parser("verify", parents=[common],
                            help="run verification reports")
    verify.add_argument("target", metavar="REPORT|all",
                        help="report id or 'all' (ids: " + ", ".join(REPORT_IDS) + ")")
    verify.add_argument("--profile", choices=("quick", "full"), default="quick",
                        help="box sizes (default quick)")
    _add_p_selection(verify)
    verify.add_argument("--nmax", type=int, help="override the index bound")
    verify.add_argument("--mmax", type=int, help="override the divisor bound")
    verify.add_argument("--mmin", type=int, help="override the divisor lower bound")
    verify.add_argument("--parity", choices=("odd", "even"),
                        help="restrict searched n to one parity")
    verify.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for a classification report's search "
                             "(default 1); 'all' and the sweeps refuse it")

    return parser


# --------------------------------------------------------------------------
# subcommand handlers

def _cmd_seq(args: argparse.Namespace) -> _Result:
    lo, hi = _parse_index_span(args.n)
    params = SequenceParams(args.P, args.Q)
    if args.mod is not None:
        if lo < 0:
            raise CliError("--mod requires nonnegative indices")
        rows = [[n, u, v] for n, (u, v) in
                enumerate(sequences.residue_range(params, lo, hi, args.mod), lo)]
    else:
        rows = [[pair.n, pair.u, pair.v] for pair in sequences.seq_range(params, lo, hi)]
    payload = {
        "command": "seq",
        "P": args.P,
        "Q": args.Q,
        "modulus": args.mod,
        "rows": [{"n": n, "u": u, "v": v} for n, u, v in rows],
    }
    return _Result(["n", "u", "v"], rows, payload)


# Each solve option: the equations that take it, its default and least value.
_SOLVE_OPTIONS = (("--sign", ("pell5",), 1, None),
                  ("--c", ("form",), -1, None),
                  ("--count", ("pell5", "form", "pell3"), 5, 1),
                  ("--enum-bound", ("pell5", "form", "pell3"), None, 0),
                  ("--variant", ("quartic",), "plus3", None),
                  ("--xmax", ("quartic",), 2000, 1))


def _cmd_solve(args: argparse.Namespace) -> _Result:
    for option, equations, default, least in _SOLVE_OPTIONS:
        dest = option[2:].replace("-", "_")
        value = getattr(args, dest)
        if value is None:
            setattr(args, dest, default)
        elif args.equation not in equations:
            raise CliError(f"solve {args.equation} does not take {option}; "
                           f"it applies to {', '.join(equations)}")
        elif least is not None and value < least:
            raise CliError(f"{option} must be >= {least}, got {value}")

    if args.equation == "quartic":
        solutions = diophantine.quartic_solutions(args.variant, args.xmax)
        rows = [[s.x, s.y] for s in solutions]
        payload = {
            "command": "solve",
            "equation": "quartic",
            "variant": args.variant,
            "polynomial": diophantine.quartic_polynomial(args.variant),
            "x_bound": args.xmax,
            "solutions": [{"x": s.x, "y": s.y} for s in solutions],
        }
        return _Result(["x", "y"], rows, payload)

    # The agreement check extends the family until it provably covers the
    # enumeration bound, so a --count smaller than the bound requires cannot
    # masquerade as a disagreement; only --count rows are displayed.
    param = {"pell5": args.sign, "form": args.c, "pell3": None}[args.equation]
    family, bound, family_pairs, oracle_pairs = diophantine.family_cover(
        args.equation, param, args.count, args.enum_bound)
    payload = {"command": "solve", "equation": args.equation}
    if args.equation == "pell5":
        header, rows = ["z", "u", "v"], [[s.z, s.u, s.v] for s in family]
        payload["sign"] = args.sign
    elif args.equation == "form":
        header, rows = ["z", "x", "y"], [[s.z, s.x, s.y] for s in family]
        payload["c"] = args.c
    else:
        header, rows = ["b", "c"], [list(bc) for bc in family]
    payload["solutions"] = [dict(zip(header, row)) for row in rows]

    agree = family_pairs == oracle_pairs
    payload["oracle_bound"] = bound
    payload["family_matches_oracle"] = agree
    table = [row[-2:] for row in rows] + [[f"family=oracle: {'yes' if agree else 'no'}"]]
    exit_code = EXIT_OK if agree else EXIT_COUNTEREXAMPLE
    return _Result(header, rows, payload, exit_code, table)


def _cmd_search(args: argparse.Namespace) -> _Result:
    query = SquareClassQuery(args.family, args.w, _resolve_p_values(args), args.nmax,
                             m_max=args.mmax, m_min=args.mmin, n_parity=args.parity)
    findings = [_to_dict(f) for f in classifier.search(query, jobs=args.jobs)]
    rows = [list(finding.values()) for finding in findings]
    payload = {"command": "search", "query": _to_dict(query), "findings": findings}
    return _Result([f.name for f in fields(SquareClassFinding)], rows, payload)


_VERDICTS = (classifier.CONSISTENT, classifier.COUNTEREXAMPLE, classifier.OUT_OF_SCOPE)


def _report_table_rows(report: TheoremReport) -> list[list[str]]:
    rows = [[f"{report.theorem_id} {report.verdict} "
             f"found={len(report.found)} predicted={len(report.predicted)}"]]
    if report.verdict != classifier.CONSISTENT:
        rows.append([f"  {report.notes}"])
    return rows


def _cmd_verify(args: argparse.Namespace) -> _Result:
    if args.target in CLASSIFICATION_IDS:
        query = classifier.default_query(args.target, args.profile)
        given = {"p_values": _resolve_p_values(args, required=False),
                 "n_max": args.nmax, "m_max": args.mmax, "m_min": args.mmin,
                 "n_parity": args.parity}
        query = replace(query, **{field: value for field, value in given.items()
                                  if value is not None})
        reports = [classifier.verify_theorem(args.target, query, jobs=args.jobs)]
    elif args.target == "all" or args.target in REPORT_IDS:
        if any(value is not None for value in (args.p_list, args.p_max, args.p_odd_max,
                                               args.multiple_of, args.nmax, args.mmax,
                                               args.mmin, args.parity)):
            raise CliError("box overrides apply to a single report, not 'all'"
                           if args.target == "all" else
                           "box overrides apply to classification reports only; "
                           f"{args.target} runs at the profile's grid sizes")
        if args.jobs > 1:
            raise CliError("--jobs applies to search and to classification reports; "
                           f"{args.target!r} runs in one process")
        reports = (classifier.verify_all(args.profile) if args.target == "all"
                   else [classifier.verify_report(args.target, args.profile)])
    else:
        raise CliError(f"unknown report {args.target!r}; "
                       f"valid: all, {', '.join(REPORT_IDS)}")

    table = [row for report in reports for row in _report_table_rows(report)]
    counts = {verdict: sum(1 for r in reports if r.verdict == verdict)
              for verdict in _VERDICTS}
    table.append([f"reports={len(reports)} consistent={counts[classifier.CONSISTENT]} "
                  f"counterexample={counts[classifier.COUNTEREXAMPLE]} "
                  f"out_of_scope={counts[classifier.OUT_OF_SCOPE]}"])
    exit_code = (EXIT_COUNTEREXAMPLE if counts[classifier.COUNTEREXAMPLE]
                 else EXIT_OUT_OF_SCOPE if counts[classifier.OUT_OF_SCOPE] else EXIT_OK)
    payload = {
        "command": "verify",
        "target": args.target,
        "profile": args.profile,
        "reports": [report_to_dict(report) for report in reports],
    }
    csv_rows = [[report.theorem_id, report.verdict, len(report.found),
                 len(report.predicted), report.notes] for report in reports]
    return _Result(["theorem_id", "verdict", "found", "predicted", "notes"],
                   csv_rows, payload, exit_code, table)


_HANDLERS = {
    "seq": _cmd_seq,
    "solve": _cmd_solve,
    "search": _cmd_search,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = _HANDLERS[args.command](args)
        with _exact_int_text():
            text = _render(result, args.format)
        _emit(text, args.out)
    except (CliError, ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # A one-term search cell tiles about --nmax bytes of marks per modulus,
        # a two-term cell holds 16 bytes of character lanes per index, and
        # `seq` every row of its span: it is the box that did not fit.
        print("error: out of memory: the box is too large to hold; ask for a smaller "
              "--nmax, fewer P values or a shorter span", file=sys.stderr)
        return EXIT_USAGE
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
