"""CLI behavior: golden outputs, formats, exit codes, the JSON encoding."""

import csv
import dataclasses
import errno
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucassquares import (
    CheckOutcome,
    INDEX_LIMIT,
    SequenceParams,
    SquareClassFinding,
    SquareClassQuery,
    TheoremReport,
    classifier,
    cli,
    pair_mod,
    pell3_family,
    sequences,
    u,
    v,
)
from lucassquares.cli import main, report_to_dict

# `lucassq verify all --profile quick --format json`: any change to a
# report's findings, notes or layout moves this digest.
QUICK_JSON_SHA256 = "ee5641dd5769eb6d887397cdda08f527641610aca4b1bb337bf35cbb032fd8ee"
QUICK_JSON_BYTES = 30415


# One `verify <id> ... --format json` per scope rule: covered, odd-n only,
# recorded-but-uncounted and each out-of-scope message.  (argv, exit code,
# SHA-256 of stdout.)
SCOPE_GOLDENS = [
    (("u-5um-square", "--P", "8"), 0,
     "15ba81be6fc13ba2b54f47fdf68034f9f6e498d3cad6cf75585d9aa51c350237"),
    (("u-5um-square", "--P", "8", "--parity", "even"), 3,
     "92fec389361a849e3337922c294768f5e5258a1f00705a37aa46396d0f343b27"),
    (("u-5um-square", "--P", "8", "--parity", "odd"), 0,
     "10e1c25ecda5cf63f8467f6e79b9f8cb73caac3826dd43a6256b0bdcd13613a1"),
    (("u-5um-square", "--P", "18"), 3,
     "f519076b5ea1e90c6b3cfada06e6f8d444469f7d11f68b4c7f637055c72ebd81"),
    (("u-5um-square", "--P", "10"), 3,
     "7eaaed8bdc8f7b927d0f774e0e384bcfbc0a42dc244f6b6ac7326e8fb7cc1a41"),
    (("u-5um-square", "--P", "2"), 3,
     "3e22ca8f9462251b5d462678872a5b814126326b1677768493d630da81d45b4e"),
    (("u-5um-square", "--P", "4", "--P", "8", "--P", "9"), 0,
     "3ec4419ec3774c75512ecae5085e4a42d641ec3be075d0aba18547191117dbde"),
    (("u-5square", "--P", "10"), 3,
     "9faebf83c1970d7e310d4fa700ae91763187a53b60cc40563f935c5b9ffaa266"),
    (("u-5square", "--P", "22"), 3,
     "fe43ef5a3a309933753d2522843a797ba39a76a3a53fefcfdafff065051277de"),
    (("u-5square", "--P", "4"), 0,
     "24a8a1b65cd00639b697cbf806b07159a8bc7ebcf9d54fb0edc9a909aaccf35d"),
    (("v-5square", "--P", "10"), 3,
     "7bb3c3f4a1796f2dd033c111bf3bac30b6fa2072773776b9b874248cb5ba4902"),
    (("v-5square", "--P-max", "30"), 3,
     "b871b6df039767b4736e26009d7131befc8bc2d158722397d296a388cee1f836"),
    (("v-square", "--P", "2"), 3,
     "42e5e90a56dc7d3524dd5abaef3612854b89cc4762d765b838b1791a1ea57057"),
    (("v-2square", "--P-max", "6"), 3,
     "cfe7e6f3353d57e2a6651ebc047cae348c5ecb51fa87dfca6d1dff160f673207"),
    (("v-vm-square", "--P", "4"), 3,
     "473c985ec0b5a77d13a7578f04e66a2d9905ca59c7ef0f9743ba850ec2ed8ede"),
    (("v-2vm-square", "--P", "4"), 3,
     "b3cf876674c968c2fd3f2a2ed58dfda54c8124f5bbb3d85d5b1a3315ef7938f8"),
    (("u-2um-square", "--P", "6"), 3,
     "a67b8b62c6720ea7084e04405879f363da0baa99363941c1137e200c8d1798f6"),
    (("v-5vm-square", "--P-max", "8"), 0,
     "4f0e6ea4f16e70ee31b51d98ed92801c90d16223fa949eda3d966852af1c4651"),
    (("fib-lucas-squares", "--P", "2"), 3,
     "7c40383eec3f8b6e139b9ce78ea72d560caf4f3a0c559496e83bc34cf3aa64e5"),
    (("u-wsquare", "--P", "3", "--parity", "odd"), 0,
     "79e198b1842c0443f36e09c616038b740f278c634b0f40eb99b17ff6a6070754"),
]

# `solve` argv with an option of another equation, and the option the error
# line names: the first such option in the order the handler checks them.
FOREIGN_SOLVE_OPTIONS = [
    (("form", "--sign", "-1"), "--sign"),
    (("pell3", "--sign", "1"), "--sign"),
    (("pell5", "--c", "-5"), "--c"),
    (("quartic", "--count", "9", "--enum-bound", "5"), "--count"),
    (("quartic", "--enum-bound", "5"), "--enum-bound"),
    (("pell3", "--variant", "minus3", "--xmax", "5"), "--variant"),
    (("form", "--xmax", "5"), "--xmax"),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _decimal_digits(x: int) -> int:
    """Digit count of x >= 1 without str(), which refuses over 4300 digits."""
    k = x.bit_length() * 301 // 1000  # a lower bound: 0.301 < log10(2)
    while 10 ** k <= x:
        k += 1
    return k


def _int_str_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


class TestSeq:
    def test_single_index_golden(self, capsys):
        code, out, err = run_cli(capsys, "seq", "-P", "1", "-Q", "1", "-n", "12")
        assert (code, out, err) == (0, "12 144 322\n", "")

    def test_modular_golden(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "-P", "5", "-Q", "1", "-n", "4",
                               "--mod", "25")
        assert (code, out) == (0, "4 10 2\n")

    def test_range(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "-P", "1", "-Q", "1", "-n", "0..5")
        assert code == 0
        assert out == ("0 0 2\n1 1 1\n2 1 3\n3 2 4\n4 3 7\n5 5 11\n")

    def test_negative_index(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "-P", "3", "-Q", "1", "-n=-4")
        assert (code, out) == (0, "-4 -33 119\n")

    def test_negative_span_needs_the_equals_form(self, capsys):
        code, out, err = run_cli(capsys, "seq", "-P", "3", "-n=-2..2")
        assert (code, out, err) == (0, "-2 -3 11\n-1 1 -3\n0 0 2\n1 1 3\n2 3 11\n", "")
        code, out, err = run_cli(capsys, "seq", "-P", "3", "-n", "-2..2")
        assert (code, out) == (1, "")
        assert err == "error: argument -n: expected one argument\n"

    @pytest.mark.parametrize("P, Q, lo, hi, modulus", [
        (3, -1, 0, 30, 1000), (7, 1, 0, 200, 1000003), (2, 1, 10, 20, 2),
        (6, -1, 1000, 1010, 123456789012345678901)])
    def test_mod_span_is_one_residue_range(self, capsys, monkeypatch,
                                           P, Q, lo, hi, modulus):
        params = SequenceParams(P, Q)
        pairs = [pair_mod(params, n, modulus) for n in range(lo, hi + 1)]
        want = "".join(f"{p.n} {p.u_res} {p.v_res}\n" for p in pairs)
        spans = []
        real = sequences.residue_range

        def recording(*args):
            spans.append(args)
            return real(*args)

        def refused(*args):
            raise AssertionError("seq --mod calls pair_mod")

        monkeypatch.setattr(sequences, "residue_range", recording)
        monkeypatch.setattr(sequences, "pair_mod", refused)
        code, out, err = run_cli(capsys, "seq", "-P", str(P), "-Q", str(Q),
                                 "-n", f"{lo}..{hi}", "--mod", str(modulus))
        assert (code, out, err) == (0, want, "")
        assert spans == [(params, lo, hi, modulus)]

    def test_mod_span_past_the_index_limit_fails_before_any_row(self, capsys):
        hi = INDEX_LIMIT + 2
        code, out, err = run_cli(capsys, "seq", "-P", "3", "-n", f"{hi - 10}..{hi}",
                                 "--mod", "7")
        assert (code, out) == (1, "")
        assert err == f"error: index magnitude must be below 2**63, got {hi}\n"

    def test_json_uses_decimal_strings(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "-P", "1", "-Q", "1", "-n", "12",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == [{"n": "12", "u": "144", "v": "322"}]
        assert payload["P"] == "1" and payload["modulus"] is None

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "-P", "1", "-Q", "1", "-n", "12",
                               "--format", "csv")
        assert (code, out) == (0, "n,u,v\n12,144,322\n")

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "seq", "-P", "1", "-n", "abc")[0] == 1
        assert run_cli(capsys, "seq", "-P", "1", "-n", "5..1")[0] == 1
        assert run_cli(capsys, "seq", "-P", "0", "-Q", "1", "-n", "3")[0] == 1
        assert run_cli(capsys, "seq", "-P", "1", "-Q", "3", "-n", "3")[0] == 1
        code, _, err = run_cli(capsys, "seq", "-P", "1", "-n=-3", "--mod", "7")
        assert code == 1
        assert "nonnegative" in err

    def test_exact_values_beyond_the_str_digit_limit(self, capsys):
        params = SequenceParams(99, 1)
        want = (u(params, 3000), v(params, 3000))
        limit = _int_str_limit()
        code, out, err = run_cli(capsys, "seq", "-P", "99", "-Q", "1", "-n", "3000")
        assert (code, err) == (0, "")
        n_text, *table_texts = out.split()
        assert n_text == "3000"
        code, out, _ = run_cli(capsys, "seq", "-P", "99", "-Q", "1", "-n", "3000",
                               "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        for texts in (table_texts, [row["u"], row["v"]]):
            for text, value in zip(texts, want, strict=True):
                assert len(text) == _decimal_digits(value) > 4300
                assert text[-18:] == f"{value % 10**18:018d}"
        assert _int_str_limit() == limit

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 1
        assert run_cli(capsys, "frobnicate")[0] == 1


class TestSolve:
    def test_pell5_golden(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "pell5", "--sign", "-1",
                               "--count", "2")
        assert (code, out) == (0, "2 1\n38 17\nfamily=oracle: yes\n")

    def test_form_family_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "form", "--c", "-1", "--count", "3")
        assert code == 0
        assert out.endswith("family=oracle: yes\n")
        assert out.splitlines()[:3] == ["4 1", "72 17", "1292 305"]

    def test_pell3(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "pell3", "--count", "3")
        assert (code, out) == (0, "2 1\n7 4\n26 15\nfamily=oracle: yes\n")

    def test_quartic(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "quartic", "--variant", "minus3",
                               "--xmax", "500")
        assert (code, out) == (0, "2 1\n")

    def test_explicit_enum_bound(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "pell5", "--sign", "-1",
                               "--count", "2", "--enum-bound", "1000")
        assert code == 0
        assert out.endswith("family=oracle: yes\n")

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "pell5", "--sign", "-1",
                               "--count", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family_matches_oracle"] is True
        assert payload["solutions"][1] == {"z": "3", "u": "38", "v": "17"}

    def test_csv_includes_index(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "form", "--c", "-5",
                               "--count", "2", "--format", "csv")
        assert (code, out) == (0, "z,x,y\n0,2,1\n2,38,9\n")

    def test_bad_count(self, capsys):
        assert run_cli(capsys, "solve", "pell5", "--count", "0")[0] == 1

    def test_count_one_prints_one_row(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "pell3", "--count", "1")
        assert (code, out) == (0, "2 1\nfamily=oracle: yes\n")

    @pytest.mark.parametrize("argv, option", FOREIGN_SOLVE_OPTIONS,
                             ids=[" ".join(argv) for argv, _ in FOREIGN_SOLVE_OPTIONS])
    def test_option_of_another_equation_is_refused(self, capsys, argv, option):
        code, out, err = run_cli(capsys, "solve", *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: solve {argv[0]} does not take {option};")
        assert err.count("\n") == 1

    def test_defaults_are_in_the_payload(self, capsys):
        for equation, key, value in (("pell5", "sign", "1"), ("form", "c", "-1")):
            code, out, _ = run_cli(capsys, "solve", equation, "--format", "json")
            payload = json.loads(out)
            assert (code, payload[key], len(payload["solutions"])) == (0, value, 5)
        code, out, _ = run_cli(capsys, "solve", "quartic", "--format", "json")
        payload = json.loads(out)
        assert (code, payload["variant"], payload["x_bound"]) == (0, "plus3", "2000")

    def test_count_defaults_to_five(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "pell3")
        assert (code, out) == (0, "2 1\n7 4\n26 15\n97 56\n362 209\nfamily=oracle: yes\n")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit cap before Python 3.10.7")
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_members_past_the_str_digit_limit(self, capsys, fmt):
        # c_1200 of b**2 - 3c**2 = 1 has about 690 digits; the cap is lowered
        # to 640 so that the handler must leave every value an int.
        members = pell3_family(1200)
        want_rows = [f"{b} {c}" for b, c in members]
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, "solve", "pell3", "--count", "1200",
                                     "--enum-bound", "10", "--format", fmt)
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(saved)
        assert (code, err) == (0, "")
        if fmt == "table":
            assert out.splitlines() == [*want_rows, "family=oracle: yes"]
        elif fmt == "csv":
            assert out.splitlines() == ["b,c", *(row.replace(" ", ",") for row in want_rows)]
        else:
            payload = json.loads(out)
            assert payload["family_matches_oracle"] is True
            assert [f"{s['b']} {s['c']}" for s in payload["solutions"]] == want_rows
        assert len(want_rows[-1].split()[1]) > 640


class TestSearch:
    def test_table_golden(self, capsys):
        code, out, _ = run_cli(capsys, "search", "V", "5", "--P", "5",
                               "--nmax", "300")
        assert (code, out) == (0, "V 5 1 - 5 1\n")

    def test_csv_empty_m_for_one_term(self, capsys):
        code, out, _ = run_cli(capsys, "search", "V", "5", "--P", "5",
                               "--nmax", "300", "--format", "csv")
        assert (code, out) == (0, "family,P,n,m,w,x\nV,5,1,,5,1\n")

    def test_two_term_with_jobs(self, capsys):
        code, out, _ = run_cli(capsys, "search", "UU", "2", "--P-odd-max", "9",
                               "--nmax", "60", "--mmax", "30", "--mmin", "2",
                               "--jobs", "3")
        assert code == 0
        assert out == "UU 1 12 3 2 6\nUU 1 12 6 2 3\nUU 5 12 6 2 99\n"

    def test_p_selection_errors(self, capsys):
        code, _, err = run_cli(capsys, "search", "V", "1", "--nmax", "10")
        assert code == 1 and "--P" in err
        code, _, err = run_cli(capsys, "search", "V", "1", "--P", "3",
                               "--P-max", "5", "--nmax", "10")
        assert code == 1 and "mutually exclusive" in err

    def test_zero_p_max_is_an_empty_selection(self, capsys):
        for flag in ("--P-max", "--P-odd-max"):
            code, out, err = run_cli(capsys, "search", "U", "1", flag, "0",
                                     "--nmax", "5")
            assert (code, out, err) == (1, "", "error: the P selection is empty\n")

    def test_w_above_the_bound_is_refused_without_trial_division(self):
        # Trial division to sqrt(w) would run for hours at 20 digits, so a
        # timeout rather than a hang marks the failure.
        proc = subprocess.run(
            [sys.executable, "-m", "lucassquares", "search", "U",
             "10000000000000000051", "--P", "1", "--nmax", "5"],
            capture_output=True, text=True, timeout=20)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == ("error: w must be at most 10**12, "
                               "got 10000000000000000051\n")

    def test_two_term_requires_mmax(self, capsys):
        code, _, err = run_cli(capsys, "search", "UU", "2", "--P", "5",
                               "--nmax", "60")
        assert code == 1 and "m_max" in err

    def test_multiple_of_filter(self, capsys):
        code, out, _ = run_cli(capsys, "search", "V", "5", "--P-odd-max", "45",
                               "--multiple-of", "5", "--nmax", "60")
        assert code == 0
        assert out == "V 5 1 - 5 1\nV 45 1 - 5 3\n"


    def test_multiple_of_zero_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "search", "V", "5", "--P-max", "9",
                               "--multiple-of", "0", "--nmax", "30")
        assert code == 1 and "--multiple-of" in err

    def test_out_of_memory_is_an_error_line_naming_the_box(self, capsys, monkeypatch):
        # The search is replaced, so the 10**10-index box is never allocated.
        def exhausted(query, jobs=1):
            raise MemoryError

        monkeypatch.setattr(classifier, "search", exhausted)
        code, out, err = run_cli(capsys, "search", "UU", "2", "--P", "5",
                                 "--nmax", "10000000000", "--mmax", "5")
        assert (code, out) == (1, "")
        assert err == ("error: out of memory: the box is too large to hold; ask for a "
                       "smaller --nmax, fewer P values or a shorter span\n")

    def test_jobs_must_be_positive(self, capsys):
        for argv in (("search", "V", "5", "--P", "5", "--nmax", "30", "--jobs", "0"),
                     ("verify", "v-5square", "--jobs", "-3")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 1 and "--jobs" in err


class TestVerify:
    def test_out_of_scope_exit(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "u-5square", "--P", "10")
        assert code == 3
        assert "out_of_predicted_scope" in out

    def test_single_report_with_overrides(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "v-5square", "--P-odd-max", "25",
                               "--nmax", "120")
        assert code == 0
        assert out.splitlines()[0] == "v-5square consistent found=1 predicted=1"

    def test_box_overrides_are_validated_together(self, capsys):
        # v-vm-square's default m_max exceeds n_max = 10; only the final box counts.
        code, out, _ = run_cli(capsys, "verify", "v-vm-square", "--P", "3",
                               "--nmax", "10", "--mmax", "5")
        assert code == 0
        assert out.splitlines()[0].startswith("v-vm-square consistent")
        code, out, err = run_cli(capsys, "verify", "v-vm-square", "--P", "3",
                                 "--nmax", "10", "--mmax", "20")
        assert (code, out) == (1, "")
        assert err == ("error: need 1 <= m_min <= m_max <= n_max, "
                       "got m_min=1, m_max=20, n_max=10\n")

    def test_sweep_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "quartic-equations")
        assert code == 0
        assert out.splitlines()[0].startswith("quartic-equations consistent")

    def test_sweep_rejects_box_overrides(self, capsys):
        code, _, err = run_cli(capsys, "verify", "quartic-equations",
                               "--nmax", "50")
        assert code == 1 and "classification" in err

    def test_all_rejects_box_overrides(self, capsys):
        assert run_cli(capsys, "verify", "all", "--nmax", "50")[0] == 1

    @pytest.mark.parametrize("target", ["all", *classifier.SWEEP_IDS])
    def test_jobs_is_refused_where_no_box_is_searched(self, capsys, target):
        code, out, err = run_cli(capsys, "verify", target, "--jobs", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "--jobs" in err

    def test_all_at_one_job_gives_the_quick_digest(self, capsys):
        code, out, err = run_cli(capsys, "verify", "all", "--jobs", "1",
                                 "--format", "json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == QUICK_JSON_SHA256

    def test_zero_p_max_is_not_ignored(self, capsys):
        for flag in ("--P-max", "--P-odd-max"):
            code, out, err = run_cli(capsys, "verify", "v-square", flag, "0")
            assert (code, out, err) == (1, "", "error: the P selection is empty\n")
        code, out, err = run_cli(capsys, "verify", "u-wsquare", "--P", "3",
                                 "--P-max", "0")
        assert (code, out) == (1, "")
        assert err == "error: --P and --P-max are mutually exclusive\n"
        code, _, err = run_cli(capsys, "verify", "u-wsquare", "--P-max", "0",
                               "--P-odd-max", "0")
        assert (code, err) == (1, "error: --P-max and --P-odd-max are mutually exclusive\n")

    def test_multiple_of_needs_a_p_selection(self, capsys):
        code, out, err = run_cli(capsys, "verify", "v-5square", "--multiple-of", "7")
        assert (code, out) == (1, "")
        assert all(flag in err for flag in ("--multiple-of", "--P", "--P-max", "--P-odd-max"))

    def test_unknown_report(self, capsys):
        code, _, err = run_cli(capsys, "verify", "u-cubes")
        assert code == 1 and "unknown report" in err

    def test_counterexample_exit_from_fault_injection(self, capsys, monkeypatch):
        monkeypatch.setattr(classifier, "search", lambda query, jobs=1: [])
        code, out, _ = run_cli(capsys, "verify", "v-2square")
        assert code == 2
        assert "counterexample" in out
        assert "missing predicted" in out

    def test_all_quick_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--profile", "quick",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["reports"]) == 17
        verdicts = {r["verdict"] for r in payload["reports"]}
        assert verdicts == {"consistent"}
        # integers are decimal strings everywhere in JSON output
        quartic = [r for r in payload["reports"]
                   if r["theorem_id"] == "quartic-equations"][0]
        assert quartic["query"] is None
        wsquare = [r for r in payload["reports"]
                   if r["theorem_id"] == "u-wsquare"][0]
        assert wsquare["query"]["p_values"][0] == "1"
        assert wsquare["found"][0]["x"] == "1"

    def test_all_quick_json_golden_digest(self, capsys, tmp_path):
        path = tmp_path / "quick.json"
        code, _, _ = run_cli(capsys, "verify", "all", "--profile", "quick",
                             "--format", "json", "--out", str(path))
        data = path.read_bytes()
        assert code == 0
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (
            QUICK_JSON_SHA256, QUICK_JSON_BYTES)

    @pytest.mark.parametrize("argv, exit_code, sha256", SCOPE_GOLDENS,
                             ids=[" ".join(argv) for argv, _, _ in SCOPE_GOLDENS])
    def test_scope_rule_golden(self, capsys, argv, exit_code, sha256):
        code, out, err = run_cli(capsys, "verify", *argv, "--format", "json")
        assert (code, err) == (exit_code, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "v-2square", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["theorem_id", "verdict", "found", "predicted", "notes"]
        assert rows[1][:4] == ["v-2square", "consistent", "2", "2"]


class TestOutputPlumbing:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "seq", "-P", "1", "-Q", "1", "-n", "12",
                               "--format", "csv", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == b"n,u,v\n12,144,322\n"

    def test_out_to_a_missing_directory_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "verify", "v-square", "--out", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    def test_out_to_a_directory_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "seq", "-P", "3", "-n", "1..3",
                                 "--out", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failing", ("write", "flush"))
    def test_stdout_write_error_is_a_usage_error(self, capsys, monkeypatch, failing):
        class FullStdout(io.StringIO):
            def write(self, text):
                if failing == "write":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(text)

            def flush(self):
                if failing == "flush":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(["seq", "-P", "3", "-n", "1..3"]) == 1
        err = capsys.readouterr().err
        assert err == "error: cannot write stdout: No space left on device\n"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "verify", "v-2square",
                                 "--format", "json", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
        assert run_cli(capsys, "seq", "--help")[0] == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lucassquares", "seq", "-P", "1", "-Q", "1",
             "-n", "12"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "12 144 322\n"

    def test_public_names(self):
        assert cli.__all__ == ["main", "report_to_dict"]


_BIG = st.integers(min_value=-10**40, max_value=10**40)
_POSITIVE = st.integers(min_value=1, max_value=10**40)


@st.composite
def _queries(draw):
    family = draw(st.sampled_from(classifier.FAMILIES))
    w = draw(st.sampled_from((1, 2, 3, 5, 6, 7, 10, 30)))
    p_values = tuple(sorted(draw(st.sets(st.integers(1, 10**6), min_size=1, max_size=5))))
    n_max = draw(st.integers(1, 10**6))
    two_term = family in ("UU", "VV")
    m_max = draw(st.integers(1, n_max)) if two_term else None
    m_min = draw(st.integers(1, m_max)) if two_term else 1
    n_parity = draw(st.sampled_from((None, "odd", "even")))
    return SquareClassQuery(family, w, p_values, n_max, m_max, m_min, n_parity)


@st.composite
def _findings(draw):
    family = draw(st.sampled_from(classifier.FAMILIES))
    m = draw(_POSITIVE) if family in ("UU", "VV") else None
    return SquareClassFinding(family, draw(_POSITIVE), draw(_POSITIVE), m,
                              draw(_POSITIVE), draw(_POSITIVE))


_OUTCOMES = st.builds(CheckOutcome, st.text(min_size=1, max_size=20),
                      st.lists(_BIG, max_size=5).map(tuple), st.booleans(),
                      _BIG, _BIG, st.text(max_size=40))


def _json_field(value):
    """A field value as the JSON output carries it: ints as decimal strings."""
    if isinstance(value, tuple):
        return [str(item) for item in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return value


def _json_fields(record) -> dict:
    return {f.name: _json_field(getattr(record, f.name))
            for f in dataclasses.fields(record)}


@settings(max_examples=200, deadline=None)
@given(query=st.none() | _queries(),
       predicted=st.lists(_findings(), max_size=4),
       found=st.lists(_findings() | _OUTCOMES, max_size=4),
       theorem_id=st.sampled_from(classifier.REPORT_IDS),
       verdict=st.sampled_from(("consistent", "counterexample", "out_of_predicted_scope")),
       notes=st.text(max_size=40))
def test_report_json_has_every_field_with_ints_as_strings(query, predicted, found,
                                                           theorem_id, verdict, notes):
    report = TheoremReport(theorem_id, query, tuple(predicted), tuple(found), verdict, notes)
    data = json.loads(json.dumps(cli._stringify(report_to_dict(report))))
    assert data == {
        "theorem_id": theorem_id,
        "summary": classifier.REPORT_SUMMARIES[theorem_id],
        "query": None if query is None else _json_fields(query),
        "predicted": [_json_fields(item) for item in predicted],
        "found": [_json_fields(item) for item in found],
        "verdict": verdict,
        "notes": notes,
    }
