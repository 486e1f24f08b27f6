"""Write tests/cli_golden.json, the byte-identity table of the CLI.

Each entry is one `lucassq` invocation: its argv, its exit code and the
SHA-256 of what it printed on stdout and on stderr, as `cli.main` gives
them in-process.  `tests/test_cli_golden.py` reruns every entry and
compares.  An intended output change shows as a diff of the table; rerun

    PYTHONPATH=src python tests/make_cli_golden.py

and name each changed command in CHANGES.md.

Errors that argparse itself raises (an unknown choice, a missing or
malformed argument) are worded by argparse, whose text differs between
Python versions.  Their stderr digest is stored as null: the test then
requires exit 1, an empty stdout and a stderr line that starts with
"error: ".  Every other entry pins both digests.

The table runs no full-profile command and no `verify all`, whose quick
JSON digest tier-1 pins on its own, so it adds about 2 s to tier-1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib

from lucassquares import cli
from lucassquares.classifier import REPORT_IDS

TABLE = pathlib.Path(__file__).with_name("cli_golden.json")

TOP = 2**63 - 1  # the largest public index


def _seq() -> list[str]:
    exact = [
        "seq -P 1 -n 12",
        "seq -P 1 -n 0..20",
        "seq -P 1 -n 0..20 --format json",
        "seq -P 1 -n 0..20 --format csv",
        "seq -P 3 -n=-6..6",
        "seq -P 3 -n=-6..6 --format csv",
        "seq -P 3 -Q -1 -n 0..12",
        "seq -P 3 -Q -1 -n=-5..5 --format json",
        "seq -P 12 -Q -1 -n=-3",
        "seq -P 2 -n 100 --format json",
        # About 5,000 digits: past Python's default int-to-str cap.
        "seq -P 99 -n 2500",
    ]
    modular = [
        "seq -P 1 -n 0..30 --mod 10",
        "seq -P 5 -n 4 --mod 25",
        "seq -P 2 -n 0..10 --mod 2 --format json",
        "seq -P 7 -Q -1 -n 1000000000000000000..1000000000000000010 --mod 1000000007 "
        "--format csv",
    ]
    # Spans whose start is 0, 1, a multiple of D = P**2 + 4*Q and the top
    # of the index range, at Q = +-1 and the moduli 2, D and 2**61 - 1:
    # where `residue_range` seeds its recurrence.
    for P, Q in ((3, 1), (3, -1)):
        D = P * P + 4 * Q
        for lo in (0, 1, D, TOP - 2):
            for modulus in (2, D, 2**61 - 1):
                modular.append(f"seq -P {P} -Q {Q} -n {lo}..{min(lo + 4, TOP)} "
                               f"--mod {modulus}")
    errors = [
        "seq -P 1 -n=-2..2 --mod 7",
        "seq -P 1 -n 0..5 --mod 1",
        "seq -P 1 -n 5..3",
        "seq -P 1 -n 1..x",
        "seq -P 1 -Q 2 -n 3",
        "seq -P 0 -n 3",
        "seq -P 1 -Q -1 -n 3",
        f"seq -P 1 -n {TOP + 1}",
        f"seq -P 1 -n {TOP - 1}..{TOP + 1} --mod 7",
        "seq -P 1 -n 3 --out /",
        # argparse
        "seq -P 1 -n -2..2",
        "seq -n 3",
        "seq -P x -n 3",
        "seq -P 1 -n 3 --format xml",
        "seq -P 1 -n 3 --mod x",
    ]
    return exact + modular + errors


def _solve() -> list[str]:
    return [
        "solve pell5",
        "solve pell5 --sign -1",
        "solve pell5 --count 6 --format json",
        "solve pell5 --sign -1 --format csv",
        "solve pell5 --enum-bound 0",
        "solve form",
        "solve form --c -5",
        "solve form --c -5 --format json",
        "solve form --count 3 --format csv",
        "solve pell3",
        "solve pell3 --count 7 --format json",
        "solve pell3 --enum-bound 1000 --format csv",
        "solve quartic",
        "solve quartic --variant minus3",
        "solve quartic --variant plus5",
        "solve quartic --xmax 100 --format json",
        "solve quartic --variant minus3 --format csv",
        # An option of another equation, and a value below an option's least.
        "solve form --sign -1",
        "solve pell3 --sign 1",
        "solve pell5 --c -5",
        "solve quartic --count 9 --enum-bound 5",
        "solve quartic --enum-bound 5",
        "solve pell3 --variant minus3 --xmax 5",
        "solve form --xmax 5",
        "solve pell5 --count 0",
        "solve form --enum-bound -3",
        "solve quartic --xmax 0",
        # argparse
        "solve pell5 --sign 2",
        "solve cubic",
        "solve form --c 3",
        "solve quartic --variant x",
    ]


def _search() -> list[str]:
    return [
        "search U 5 --P-max 30 --nmax 200",
        "search U 5 --P-max 30 --nmax 200 --format csv",
        "search U 2 --P-odd-max 25 --nmax 300 --format json",
        "search U 1 --P 1 --P 2 --nmax 100 --parity even",
        "search V 1 --P-max 20 --nmax 150 --parity odd --format csv",
        "search V 5 --P-max 40 --nmax 200 --multiple-of 5",
        "search V 2 --P-max 30 --nmax 100 --format json",
        "search UU 2 --P-max 20 --nmax 120 --mmax 60",
        "search UU 2 --P-max 20 --nmax 120 --mmax 60 --format csv",
        "search VV 3 --P-max 30 --nmax 200 --mmax 100 --format csv",
        "search VV 1 --P-max 20 --nmax 100 --mmax 50 --mmin 3 --parity odd",
        "search UU 5 --P 5 --nmax 60 --mmax 30 --parity even --format json",
        "search U 4 --P 1 --nmax 5",
        "search U 2 --nmax 5",
        "search U 2 --P 1 --P-max 3 --nmax 5",
        "search U 2 --P-max 3 --multiple-of 5 --nmax 5",
        "search UU 2 --P 1 --nmax 5",
        "search U 2 --P 1 --nmax 5 --mmax 3",
        "search U 2 --P 0 --nmax 5",
        "search U 2 --P 1 --nmax -1",
        # argparse
        "search W 2 --P 1 --nmax 5",
        "search U 2 --P 1",
        "search U 2 --P 1 --nmax 5 --jobs 0",
        "search U 2 --P 1 --nmax 5 --parity both",
    ]


def _verify() -> list[str]:
    reports = [f"verify {report} --format {fmt}"
               for report in REPORT_IDS for fmt in ("table", "json", "csv")]
    return reports + [
        # Box overrides.
        "verify u-wsquare --P-max 20 --nmax 300",
        "verify u-wsquare --P 3 --parity odd --format csv",
        "verify u-2um-square --P-max 10 --nmax 100 --mmax 50 --mmin 2 --format csv",
        "verify v-vm-square --P-odd-max 15 --nmax 80 --mmax 40",
        # Without --mmax, m <= n_max // 2 of the --nmax given.
        "verify v-vm-square --P 3 --nmax 10",
        "verify u-2um-square --nmax 400",
        "verify v-5square --P-max 30 --multiple-of 5",
        # Odd-n-only P, and boxes out of the predicted scope.
        "verify u-5um-square --P 8",
        "verify u-5um-square --P 8 --parity even",
        "verify u-5um-square --P 8 --parity odd --format csv",
        "verify u-5um-square --P 18 --format csv",
        "verify u-5um-square --P 2",
        "verify u-5um-square --P 10",
        "verify u-5square --P 10 --format csv",
        "verify u-5square --P 22",
        "verify v-5square --P 10",
        "verify v-square --P 2 --format csv",
        "verify v-2square --P-max 6",
        "verify fib-lucas-squares --P 2 --format csv",
        # Each scope rule's JSON: odd-n-only P, out-of-scope P and boxes
        # that mix covered and uncovered classes.
        *(f"verify {box} --format json" for box in (
            "u-5um-square --P 8", "u-5um-square --P 8 --parity even",
            "u-5um-square --P 8 --parity odd", "u-5um-square --P 18",
            "u-5um-square --P 10", "u-5um-square --P 2",
            "u-5um-square --P 4 --P 8 --P 9", "u-5square --P 10", "u-5square --P 22",
            "u-5square --P 4", "v-5square --P 10", "v-5square --P-max 30",
            "v-square --P 2", "v-2square --P-max 6", "v-vm-square --P 4",
            "v-2vm-square --P 4", "u-2um-square --P 6", "v-5vm-square --P-max 8",
            "fib-lucas-squares --P 2", "u-wsquare --P 3 --parity odd")),
        # Refused requests.
        "verify all --jobs 2",
        "verify all --P 3",
        "verify shift-congruences --nmax 10",
        "verify product-identities --jobs 2",
        "verify nosuch",
        "verify u-wsquare --multiple-of 3",
        "verify u-wsquare --P 1 --P-max 5",
        "verify u-wsquare --mmax 5 --P 3 --nmax 20",
        "verify u-5square --mmin 2 --P 5 --nmax 20",
        # argparse
        "verify all --profile medium",
        "verify",
        "verify all --jobs x",
    ]


def argvs() -> list[list[str]]:
    """Every argv of the table, in table order."""
    lines = _seq() + _solve() + _search() + _verify() + ["", "frob"]
    return [line.split() for line in lines]


def _argparse_refuses(argv: list[str]) -> bool:
    try:
        cli._build_parser().parse_args(argv)
    except cli.CliError:
        return True
    return False


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def entry(argv: list[str]) -> dict:
    code, out, err = run(argv)
    refused = _argparse_refuses(argv)
    if refused and (code, out, err[:7]) != (1, "", "error: "):
        raise SystemExit(f"argparse refuses {argv} but the CLI gave exit {code}")
    return {"argv": argv, "exit": code, "stdout_sha256": digest(out),
            "stderr_sha256": None if refused else digest(err)}


def main() -> None:
    table = argvs()
    if len({tuple(argv) for argv in table}) != len(table):
        raise SystemExit("duplicate argv in the table")
    text = "[\n" + ",\n".join(json.dumps(entry(argv)) for argv in table) + "\n]\n"
    TABLE.write_text(text, encoding="utf-8")
    print(f"wrote {len(table)} entries to {TABLE}")


if __name__ == "__main__":
    main()
