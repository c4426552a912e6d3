"""`src/charm` holds only what a command reaches.

Each `src/charm/*.py` is parsed with `ast`; nothing is imported or run.
Every function, class and class member the package defines must be
reached from the package itself. Tests and `bench/` do not count as
callers.

- A top-level function or class is reached by a `Name` in its own module
  outside its own definition, by an import in another module
  (`from .module import name`), or by an attribute of a module alias
  (`from . import module as m`, then `m.name`).
- A class member (a method, property, field or class attribute) is reached
  by a read of the attribute `.member` anywhere in `src/charm`, outside the
  member's own definition. A call keyword `member=` and an assignment
  `obj.member = value` only write it, so a field the package sets but never
  reads is unreached.
  Members are matched by name alone: `seg.data` reaches every member named
  `data`, of any class.

Dunders and `cli.main`, the console script, are exempt. ALLOWED names what
only the benchmark reads, with the `bench/` file that reads it. An allowed
name that is reached, or no longer defined, fails the test too, so the list
shrinks as the benchmark stops reading the names.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "charm"
EXEMPT = {"cli.main"}

ALLOWED = {
    "dataset.LoadedFile.dropped_rows": "bench/tracer.py counts a loaded file's rows with it",
    "dataset.SensorStream.n": "bench/tracer.py counts a loaded file's rows with it",
    "neurocore.log_softmax": "bench/tracer.py TARGETS traces it",
    "neurocore.weighted_cross_entropy": "bench/tracer.py TARGETS traces it",
    "preprocess.fit_normalizer": "bench/tracer.py TARGETS traces it",
    "synth.to_labeled_segments": "bench/workloads.py builds the fold's segments with it; "
                                 "bench/tracer.py TARGETS traces it",
}


def _parse():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _imported_module(node):
    """The charm module a `from ... import` names, '' for the package, else None."""
    if node.level == 1:
        return node.module or ""
    if node.module == "charm" or (node.module or "").startswith("charm."):
        return node.module.removeprefix("charm").removeprefix(".")
    return None


def _references(tree, module, modules):
    """Counter of the references in one module's tree, keyed ("name", id),
    ("import", module.name) or ("member", name)."""
    aliases = {}  # local name -> charm module it is bound to
    refs = Counter()
    nodes = list(ast.walk(tree))
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and _imported_module(node) is not None:
            source = _imported_module(node)
            for alias in node.names:
                if not source and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                elif source != module:
                    refs["import", f"{source}.{alias.name}"] += 1
    for node in nodes:
        if isinstance(node, ast.Name):
            refs["name", node.id] += 1
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):  # `obj.member = value` only writes it
                refs["member", node.attr] += 1
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                refs["import", f"{aliases[node.value.id]}.{node.attr}"] += 1
    return refs


def _definitions(trees):
    """(qualified name, module, name, definition node, is member) of every
    function, class and class member the package defines."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{module}.{node.name}", module, node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                        names = [item.name]
                    elif isinstance(item, ast.AnnAssign):
                        names = [item.target.id]
                    elif isinstance(item, ast.Assign):
                        names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                    else:
                        names = []
                    for name in names:
                        yield f"{module}.{node.name}.{name}", module, name, item, True


def unreached():
    """The qualified names, dunders and EXEMPT aside, that nothing in
    `src/charm` reaches."""
    trees = _parse()
    refs = {module: _references(tree, module, trees) for module, tree in trees.items()}
    everywhere = sum(refs.values(), Counter())
    out = []
    for qualified, module, name, node, member in _definitions(trees):
        if (name.startswith("__") and name.endswith("__")) or qualified in EXEMPT:
            continue
        own = _references(node, module, trees)  # its own body does not reach it
        if member:
            reached = everywhere["member", name] > own["member", name]
        else:
            reached = (refs[module]["name", name] > own["name", name]
                       or everywhere["import", f"{module}.{name}"] > 0)
        if not reached:
            out.append(qualified)
    return out


def test_every_name_is_reached_or_allowed():
    assert sorted(set(unreached()) - ALLOWED.keys()) == []


def test_every_allowed_name_is_defined_and_unreached():
    assert sorted(ALLOWED.keys() - set(unreached())) == []


def test_every_allowed_reason_names_a_bench_file():
    for qualified, reason in ALLOWED.items():
        files = re.findall(r"bench/\w+\.py", reason)
        assert files and all((ROOT / f).is_file() for f in files), qualified
