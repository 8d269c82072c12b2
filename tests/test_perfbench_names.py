"""The per-layer names that perfbench's tracer binds must exist in the package.

A renamed function would otherwise leave its per-layer metrics reading 0
without any error.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_package_function(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    names = set(tracing.OBSERVERS)
    for table in (tracing.TIMED, tracing.COUNTED):
        names.update(name for group in table.values() for name in group)
    assert "diffusion.diffuse_iterative" in names
    missing = []
    for name in sorted(names):
        module, _, function = name.partition(".")
        target = getattr(importlib.import_module(f"diffdistill.{module}"), function, None)
        if not callable(target):
            missing.append(name)
    assert not missing, f"perfbench/tracing.py names missing functions: {missing}"
