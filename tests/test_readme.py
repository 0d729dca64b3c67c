"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()

# each fenced python block by its first line, padded with blank lines so a
# traceback names the line in README.md
BLOCKS = {}
for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S):
    offset = TEXT.count("\n", 0, match.start(1))
    BLOCKS[f"line{offset + 1}"] = "\n" * offset + match.group(1)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", list(BLOCKS.values()), ids=list(BLOCKS))
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {})
