"""README: every ```python block runs as written, and the verify suite
table gives each suite's own defaults."""

import inspect
import re
from pathlib import Path

import pytest

from neurocode.verify import SUITES

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def suite_table_defaults():
    """(suite, parameter, default) for each integer default cell of the
    README's verify suite table; a row with an empty suite cell belongs to
    the suite row above it."""
    lines = TEXT.splitlines()
    start = lines.index("| suite | flag | parameter | default | minimum | maximum |")
    rows, suites = [], []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        suite_cell, _flag, params, default = (cell.strip() for cell in line.split("|")[1:5])
        suites = re.findall(r"`([\w-]+)`", suite_cell) or suites
        if default.isdigit():
            rows += [(suite, param, int(default)) for suite in suites
                     for param in re.findall(r"`(\w+)`", params)]
    return rows


TABLE_DEFAULTS = suite_table_defaults()


def test_suite_table_names_every_suite():
    assert {suite for suite, _, _ in TABLE_DEFAULTS} == set(SUITES)


@pytest.mark.parametrize("suite, param, default", TABLE_DEFAULTS,
                         ids=[f"{s}-{p}" for s, p, _ in TABLE_DEFAULTS])
def test_suite_table_default_matches_signature(suite, param, default):
    assert inspect.signature(SUITES[suite]).parameters[param].default == default
