"""README names every flag, config key and exit code the `charm` command has,
lists as its Python API exactly the names the acceptance file imports, gives
the line count of `src/charm`, and documents each refusal that
`tests/test_refusals.py` runs.

The facts are read from the code: the flags from `cli.build_parser()`, per
subcommand; the config keys from `cli._SECTION_KEYS`; the exit codes from
the integer `return` statements of `charm/cli.py`; the API from the
`from charm... import` statements of `tests/test_acceptance.py`; the line
count from `src/charm/*.py`; the refusals from the cases of
`tests/test_refusals.py`. A README edit that drops one of them, or a
change to `src/charm` that leaves the count as it was, fails here.
"""

from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path

import pytest

from charm import cli
from test_refusals import CASES, matches

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _flags():
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [(cmd, flag) for cmd, p in sub.choices.items() for action in p._actions
            for flag in action.option_strings if flag not in ("-h", "--help")]


def _exit_codes():
    tree = ast.parse((ROOT / "src" / "charm" / "cli.py").read_text(encoding="utf-8"))
    return sorted({node.value.value for node in ast.walk(tree)
                   if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                   and type(node.value.value) is int})


def _exit_rows():
    """(code, example line) of each row of README's exit-code table."""
    section = README.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    return [(int(code), line) for code, line in
            re.findall(r"^\| `(\d+)` \| .* \| `(.*)` \|$", section, re.MULTILINE)]


def test_the_facts_are_found():
    assert {cmd for cmd, _ in _flags()} == {"gen-synth", "train", "evaluate", "embed",
                                            "features"}
    assert _exit_codes() == [0, 1, 2, 3, 4, 130]
    assert sorted({code for code, _ in _exit_rows()}) == _exit_codes()


@pytest.mark.parametrize("cmd, flag", _flags(), ids=" ".join)
def test_flag_named(cmd, flag):
    assert re.search(rf"\bcharm {re.escape(cmd)}\b|`{re.escape(cmd)}`", README), cmd
    assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", README), flag


@pytest.mark.parametrize("section, key", sorted(
    (section, key) for section, keys in cli._SECTION_KEYS.items() for key in keys),
    ids=".".join)
def test_config_key_named(section, key):
    assert f"`{section}.{key}`" in README or f"- `{key}`:" in README


@pytest.mark.parametrize("code", _exit_codes())
def test_exit_code_named(code):
    assert f"`{code}`" in README


def test_every_refusal_row_has_a_case_that_prints_its_line():
    """Each non-zero row's cases exit with its code, and one of them prints a
    line that the row's example line matches in full (`…` matching any text)."""
    rows = [(code, line) for code, line in _exit_rows() if code != 0]
    cases = {line: [case for row, case in CASES if row == line] for _, line in rows}
    assert [line for _, line in rows
            if not any(matches(line, case.line or line) for case in cases[line])] == []
    assert [case.id for code, line in rows for case in cases[line] if case.code != code] == []


def test_every_refusal_case_names_a_row():
    rows = {line for code, line in _exit_rows() if code != 0}
    assert sorted({row for row, _ in CASES} - rows) == []


def _acceptance_imports():
    """{module: names} of every `from charm... import` in the acceptance file."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("charm"):
            names.setdefault(node.module, set()).update(a.name for a in node.names)
    return names


def _readme_api():
    """{module: names} of the list under README's `## Python API` heading."""
    section = README.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- `(charm\.\w+)`: (.+(?:\n  .+)*)", section, re.MULTILINE)
    return {module: set(re.findall(r"`(\w+)`", names)) for module, names in items}


def test_api_list_is_the_acceptance_imports():
    assert _acceptance_imports()  # the parse found the contract's imports
    assert _readme_api() == _acceptance_imports()


def test_src_line_count_is_the_package_s():
    found = re.findall(r"`src/charm` holds ([\d,]+) lines", README)
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in (ROOT / "src" / "charm").glob("*.py"))
    assert [int(n.replace(",", "")) for n in found] == [lines]
