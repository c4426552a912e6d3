"""Every name the benchmark's tracer wraps is defined in `charm`.

`bench/tracer.py` TARGETS lists (module, attribute) pairs, an attribute
being a function or `Class.method`; `Tracer.install` looks each one up and
fails on a name that is gone. The tracer module only needs the standard
library, so it is loaded from its file here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.TARGETS]


@pytest.mark.parametrize("module,attr", _targets(), ids=lambda v: v)
def test_target_resolves(module, attr):
    value = importlib.import_module(f"charm.{module}")
    for part in attr.split("."):
        value = getattr(value, part)
    assert callable(value)
