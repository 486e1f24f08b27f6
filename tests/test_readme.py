"""The README: every python block runs as written, every `$ lucassq` line
prints the lines shown under it, and its report table states the summaries
the package reports."""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from lucassquares import REPORT_IDS, REPORT_SUMMARIES
from lucassquares.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
FENCES = re.findall(r"^```(\w*)\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
BLOCKS = [body for lang, body in FENCES if lang == "python"]


def _shell_examples():
    """(argv, expected stdout) for each `$ lucassq` line of the plain blocks."""
    examples = []
    for block in (body for lang, body in FENCES if not lang):
        shown = None  # the output lines of the block's latest command
        for line in block.splitlines(keepends=True):
            if line.startswith("$ lucassq "):
                shown = []
                examples.append((shlex.split(line[len("$ lucassq "):]), shown))
            elif line.startswith("$ "):
                raise AssertionError(f"README shell line not run by this test: {line!r}")
            elif shown is not None:
                shown.append(line)
    return [(argv, "".join(lines)) for argv, lines in examples]


SHELL_EXAMPLES = _shell_examples()

# The bytes of `verify all --profile full --format json`, the README's one
# `--out` example: its SHA-256 and its size.
FULL_JSON = ("a3fd2cfacb3c84a87d576c1af0bc0a789285ffafb296e5f5d0b876f48042d818", 65_232)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})


def test_readme_has_shell_examples():
    assert SHELL_EXAMPLES


@pytest.mark.parametrize("argv, expected", SHELL_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in SHELL_EXAMPLES])
def test_shell_example_prints_what_the_readme_shows(argv, expected, capsys, tmp_path):
    out_path = None
    if "--out" in argv:
        at = argv.index("--out") + 1
        out_path = tmp_path / argv[at]
        argv = [*argv[:at], str(out_path), *argv[at + 1:]]
    code = main(argv)
    assert (code, capsys.readouterr().out) == (0, expected)
    if out_path is not None:
        data = out_path.read_bytes()
        assert argv[:6] == ["verify", "all", "--profile", "full", "--format", "json"]
        assert (hashlib.sha256(data).hexdigest(), len(data)) == FULL_JSON
        reports = json.loads(data)["reports"]
        assert [r["theorem_id"] for r in reports] == list(REPORT_IDS)
        assert {r["verdict"] for r in reports} == {"consistent"}


def test_report_table_matches_summaries():
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$", TEXT, re.MULTILINE)
    table = [(report_id, text.replace("`", "").replace("\\|", "|"))
             for report_id, text in rows]
    assert table == list(REPORT_SUMMARIES.items())
