"""The README: every python block runs as written, and its report table
states the summaries the package reports."""

import re
from pathlib import Path

import pytest

from lucassquares import REPORT_SUMMARIES

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})


def test_report_table_matches_summaries():
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$", README.read_text(encoding="utf-8"),
                      re.MULTILINE)
    table = [(report_id, text.replace("`", "").replace("\\|", "|"))
             for report_id, text in rows]
    assert table == list(REPORT_SUMMARIES.items())
