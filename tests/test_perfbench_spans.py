"""Every name the benchmark tracer wraps exists in the package.

``perfbench/spans.py`` replaces package functions and methods by name; a
renamed or deleted one would otherwise fail only in a traced benchmark
round.  The module is loaded by path and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    spans = _spans()
    missing = []
    for modname, attr, *_ in spans.FUNCTIONS:
        if not callable(getattr(importlib.import_module(modname), attr, None)):
            missing.append(f"{modname}.{attr}")
    for modname, cls, method, _ in spans.METHODS:
        owner = getattr(importlib.import_module(modname), cls, None)
        if not callable(getattr(owner, method, None)):
            missing.append(f"{modname}.{cls}.{method}")
    assert spans.FUNCTIONS and spans.METHODS
    assert not missing, "wrapped but not defined: " + ", ".join(missing)
