"""README names every flag, config key and exit code the `charm` command has,
lists as its Python API exactly the names the acceptance file imports, and
gives the line count of `src/charm`.

The facts are read from the code: the flags from `cli.build_parser()`, per
subcommand; the config keys from `cli._SECTION_KEYS`; the exit codes from
the integer `return` statements of `charm/cli.py`; the API from the
`from charm... import` statements of `tests/test_acceptance.py`; the line
count from `src/charm/*.py`. A README edit that drops one of them, or a
change to `src/charm` that leaves the count as it was, fails here.
"""

from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path

import pytest

from charm import cli

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


def test_the_facts_are_found():
    assert {cmd for cmd, _ in _flags()} == {"gen-synth", "train", "evaluate", "embed",
                                            "features"}
    assert _exit_codes() == [0, 1, 2, 3, 4, 130]


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
