"""Every name the benchmark tracer wraps exists in the package, and every
span a workload expects to be called is one the tracer installs.

``perfbench/spans.py`` replaces package functions and methods by name; a
renamed or deleted one would otherwise fail only in a traced benchmark
round.  The modules are loaded by path and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    spans = _load("spans")
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


def test_expected_spans_are_installed():
    # the names ``spans.install`` returns, read from its tables
    spans = _load("spans")
    installed = {name for _, _, name, _ in spans.FUNCTIONS}
    installed |= {name for *_, name in spans.METHODS}
    installed |= {f"renorm.fft.{f}" for f in spans.FFT_FUNCTIONS}
    expected = _load("workloads").EXPECT_CALLED
    assert expected
    missing = sorted({name for names in expected.values() for name in names}
                     - installed)
    assert not missing, "expected but never installed: " + ", ".join(missing)
