"""The benchmark's tracer wraps package functions by name: every name must resolve."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = load_tracer()
    modules = {name: importlib.import_module(f"{tracer.PACKAGE}.{name}") for name in tracer.MODULES}
    missing = []
    for targets in (tracer.SPANNED, tracer.COUNTED):
        for layer, attrs in targets.items():
            for attr in attrs:
                cls_name, _, fn_name = attr.rpartition(".")
                owner = getattr(modules[layer], cls_name) if cls_name else modules[layer]
                if not callable(vars(owner).get(fn_name)):
                    missing.append(f"{layer}.{attr}")
    assert missing == []
