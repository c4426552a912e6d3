"""Fail on any line of `src/charm` that the tier-1 suite never runs.

Run from the repository root, with pytest installed:

    python tests/line_audit.py [pytest arguments]

The script pins itself to one CPU, so `dataset.map_files` does its work in
this process, where the trace sees it. It then runs the suite (`tests/`, or
the pytest arguments given) under a `sys.settrace` and `threading.settrace`
line collector that follows only frames of `src/charm`. The executable lines
are those that `co_lines()` names in the compiled code of each module.

Exit status: the suite's own when it fails; otherwise 1 when a line did not
run and is not in ALLOWED, or an ALLOWED entry names a line that ran or no
longer exists; else 0. The standard library and pytest are all it needs.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "charm"

# (file, function, source text) of each line that may stay unrun, and why.
# Keyed by text, not number, so an edit above a line does not move its entry.
ALLOWED = {
    ("cli.py", "<module>", "sys.exit(main())"):
        "runs only when cli.py is run as a script; the suite calls cli.main",
    ("dataset.py", "_first_bad_row",
     'raise RuntimeError(f"{path}: the columnar parse rejected rows the per-row check accepts")'):
        "cannot happen: it reports a disagreement between the loader's two parses",
    ("neurocore.py", "log_softmax", "shifted = logits - logits.max(axis=-1, keepdims=True)"):
        "log_softmax is kept only for bench/tracer.py, which traces it",
    ("neurocore.py", "log_softmax",
     "return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))"):
        "log_softmax is kept only for bench/tracer.py, which traces it",
}


def executable_lines(path):
    """{line: name of the innermost code object holding it} for one module,
    from co_lines() of its compiled code and every code object nested in it."""
    lines = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        for _, _, line in code.co_lines():
            if line:  # None, or 0 for a module's first instruction
                lines.setdefault(line, code.co_name)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineCollector:
    """The lines each `src/charm` file ran. A frame of another file costs
    one check at its call; so does a code object whose lines have all run."""

    def __init__(self, src):
        self.prefix = os.path.realpath(src) + os.sep
        self.ran = defaultdict(set)  # real path -> line numbers that ran
        # (code object, file name) -> (real path, its lines not yet run), None if
        # done; code objects alone compare equal across files
        self._state = {}
        self._tracers = {}  # real path -> the local trace function of its frames

    def __call__(self, frame, event, arg):
        code = frame.f_code
        key = code, code.co_filename
        state = self._state.get(key, False)
        if state is None:
            return None
        if state is False:
            path = os.path.realpath(code.co_filename)
            if not path.startswith(self.prefix):
                self._state[key] = None
                return None
            state = path, {line for _, _, line in code.co_lines() if line}
        path, remaining = state
        ran = self.ran[path]
        ran.add(frame.f_lineno)  # the first line has a call event, not a line event
        remaining = {line for line in remaining if line not in ran}
        if not remaining:
            self._state[key] = None
            return None
        self._state[key] = path, remaining
        if path not in self._tracers:
            def trace(frame, event, arg, ran=ran):
                if event == "line":
                    ran.add(frame.f_lineno)
                return trace
            self._tracers[path] = trace
        return self._tracers[path]


def audit(ran):
    """(unrun lines not allowed, allowed entries that ran or are gone), each
    a list of printable lines."""
    unrun, stale = [], []
    found = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        seen = ran.get(os.path.realpath(path), set())
        for line, name in sorted(executable_lines(path).items()):
            source = text[line - 1].strip()
            key = (path.name, name, source)
            if key in ALLOWED:
                found.add(key)
                if line in seen:
                    stale.append(f"{path.relative_to(ROOT)}:{line}: allowed but ran: {source}")
            elif line not in seen:
                unrun.append(f"{path.relative_to(ROOT)}:{line}: {source}")
    stale += [f"src/charm/{f}: allowed line not found in {name}: {s}"
              for f, name, s in ALLOWED.keys() - found]
    return unrun, stale


def main(argv):
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # imported before the trace starts: its frames are not followed

    collector = LineCollector(SRC)
    threading.settrace(collector)
    sys.settrace(collector)
    try:
        status = pytest.main(argv or ["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"line audit: the suite failed (pytest exit status {int(status)})")
        return int(status)
    unrun, stale = audit(collector.ran)
    total = sum(len(executable_lines(p)) for p in SRC.glob("*.py"))
    print(f"line audit: {total - len(unrun) - len(ALLOWED)} of {total} executable "
          f"src/charm lines ran, {len(ALLOWED)} allowed unrun")
    for message in unrun + stale:
        print(message)
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
