"""README: every ```python block runs as written, and the verify suite
table gives each suite's own defaults."""

import inspect
import re
from pathlib import Path

import pytest

from neurocode.verify import DEFAULT_SAMPLE, SUITES

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def suite_table():
    """(suites, parameters, default, minimum, maximum) for each row of the
    README's verify suite table; a row with an empty suite cell belongs to
    the suite row above it."""
    lines = TEXT.splitlines()
    start = lines.index("| suite | flag | parameter | default | minimum | maximum |")
    rows, suites = [], []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        suite_cell, _flag, params, *values = (cell.strip() for cell in line.split("|")[1:7])
        suites = re.findall(r"`([\w-]+)`", suite_cell) or suites
        rows.append((suites, re.findall(r"`(\w+)`", params), *values))
    return rows


TABLE = suite_table()
# (suite, parameter, default) for each integer default cell
TABLE_DEFAULTS = [(suite, param, int(default)) for suites, params, default, _, _ in TABLE
                  if default.isdigit() for suite in suites for param in params]


def bound_cases():
    """(suite, parameter, value, message) one past each bound in a minimum
    or maximum cell that is an integer, or a list of items N (`name`), the
    name a suite or a parameter of the row; other cells are not checked."""
    cases = []
    for suites, params, _default, *bounds in TABLE:
        for cell, step, word in zip(bounds, (-1, 1), ("least", "most")):
            items = [re.fullmatch(r"(\d+) \(`([\w-]+)`\)", item) for item in cell.split(", ")]
            pairs = ([(None, cell)] if cell.isdigit()
                     else [(m[2], m[1]) for m in items] if all(items) else [])
            cases += [(suite, param, int(bound) + step,
                       f"{param} must be at {word} {bound}, got {int(bound) + step}")
                      for name, bound in pairs for suite in suites for param in params
                      if name in (None, suite, param)]
    return cases


BOUND_CASES = bound_cases()


def test_suite_table_names_every_suite():
    assert {suite for suite, _, _ in TABLE_DEFAULTS} == set(SUITES)
    assert {suite for suite, *_ in BOUND_CASES} == set(SUITES)


@pytest.mark.parametrize("suite, param, default", TABLE_DEFAULTS,
                         ids=[f"{s}-{p}" for s, p, _ in TABLE_DEFAULTS])
def test_suite_table_default_matches_signature(suite, param, default):
    assert inspect.signature(SUITES[suite]).parameters[param].default == default


@pytest.mark.parametrize("suite, param, value, message", BOUND_CASES,
                         ids=[f"{s}-{p}-{v}" for s, p, v, _ in BOUND_CASES])
def test_suite_table_bound_is_enforced(suite, param, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SUITES[suite](**{param: value})


def test_suite_table_sampled_default():
    cell, = [default for _, params, default, _, _ in TABLE if params == ["sample"]]
    assert cell == f"none ({DEFAULT_SAMPLE} when sampling)"
    check, = SUITES["parity"](n=5).checks
    assert check.detail.startswith(f"{DEFAULT_SAMPLE} codes scanned,")
