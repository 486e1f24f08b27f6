"""Every invocation of the CLI golden table gives its pinned bytes and exit code.

The table, tests/cli_golden.json, is written by tests/make_cli_golden.py,
which says what it covers and how to re-pin it.
"""

import json

import pytest

from make_cli_golden import TABLE, digest, run

GOLDEN = json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) or "(no argv)"
                                               for e in GOLDEN])
def test_cli_output_matches_the_golden_table(entry):
    code, out, err = run(entry["argv"])
    assert code == entry["exit"]
    assert digest(out) == entry["stdout_sha256"]
    if entry["stderr_sha256"] is None:
        # argparse's own wording differs between Python versions.
        assert err.startswith("error: ")
    else:
        assert digest(err) == entry["stderr_sha256"]
