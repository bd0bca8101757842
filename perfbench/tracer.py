"""In-memory span tracer for the openhealth package, installed from outside it.

The tracer replaces selected public functions and methods with timing
wrappers. ``from .x import f`` binds ``f`` into the importing module at
import time, so a wrapper is installed on every module attribute that holds
the same function object (``simengine.encode_frame`` as well as
``netproto.encode_frame``). Methods are wrapped on their class.

Each call becomes one span: name, start, end, parent span and whether it
raised. Spans live in flat arrays until the run ends; ``save`` writes them
out. Targets listed in ``COUNTED`` are only counted, because they are too
small and too frequent for a span to mean anything (``Simulator.schedule``
is one heap push).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PACKAGE = "openhealth"
# core holds data types only; it is scanned for bindings but has no targets.
MODULES = ("core", "dataio", "pipeline", "classifier", "firmware", "netproto", "simengine", "config", "cli")

SPANNED = {
    "dataio": ("synthesize_signal", "generate_synthetic", "write_dataset", "read_dataset"),
    "pipeline": ("segment", "windows_to_matrix", "extract_feature_matrix", "normalize_features"),
    "classifier": ("train", "loss_and_grad", "evaluate", "forward", "load_model", "save_model"),
    "firmware": ("account_energy", "step_state_machine", "plan_duty_cycle"),
    "netproto": ("encode_frame", "decode_frame", "HostGateway.step", "write_observation_log"),
    "simengine": (
        "Simulator.run", "run_scenario", "trace_metrics", "replay",
        "write_trace", "write_metrics", "read_trace", "trace_observations",
    ),
    "config": ("load_config",),
    "cli": ("main",),
}
COUNTED = {"simengine": ("Simulator.schedule",)}

MARK = "_perfbench_target"


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.errors = array("b")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        idx = len(self.name_ids)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self.errors.append(1)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self._stack.pop()
        self.errors[idx] = 0

    def _spanned(self, fn, name: str):
        # The bookkeeping of span(), inlined: this runs once per wrapped call.
        name_id = self._name_id(name)
        name_ids, parents, starts, ends, errors = self.name_ids, self.parents, self.starts, self.ends, self.errors
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            errors.append(1)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            errors[idx] = 0
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, name)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _modules()
        for targets, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, attrs in targets.items():
                for attr in attrs:
                    name = f"{layer}.{attr}"
                    cls_name, _, fn_name = attr.rpartition(".")
                    home = modules[layer]
                    if cls_name:
                        cls = getattr(home, cls_name)
                        self._patch(cls, fn_name, make(cls.__dict__[fn_name], name))
                        continue
                    original = getattr(home, fn_name)
                    wrapper = make(original, name)
                    for module in modules.values():
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        assert_clean()

    # -- output -------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.starts, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64).copy(),
            "error": np.frombuffer(self.errors, dtype=np.int8).copy(),
        }

    def save(self, path: Path) -> None:
        """Write every span and count as one compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            count_names=np.array(list(self.counts)),
            count_values=np.array(list(self.counts.values()), dtype=np.int64),
            **self.arrays(),
        )


def _modules() -> dict:
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}


def assert_clean() -> None:
    """Raise if any tracer wrapper is still reachable from the package."""
    for module in _modules().values():
        for key, value in vars(module).items():
            if hasattr(value, MARK):
                raise RuntimeError(f"tracer wrapper left on {module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, MARK):
                        raise RuntimeError(f"tracer wrapper left on {value.__qualname__}.{attr}")


class SpanTable:
    """Vectorised queries over a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = tracer.names
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.error = a["error"].astype(bool)
        self.dur = (a["end_ns"] - a["start_ns"]) / 1e9
        self.counts = dict(tracer.counts)
        n = len(self.dur)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child[:n]
        root = np.arange(n)
        while True:
            up = self.parent[root]
            if not (up >= 0).any():
                break
            root = np.where(up >= 0, up, root)
        self.root_id = self.name_id[root]

    def _mask(self, name: str, roots: tuple[str, ...]) -> np.ndarray:
        """Spans called ``name`` whose outermost ancestor is one of ``roots``."""
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        root_ids = [self.names.index(r) for r in roots if r in self.names]
        return (self.name_id == self.names.index(name)) & np.isin(self.root_id, root_ids)

    def calls(self, name: str, roots: tuple[str, ...]) -> int:
        return int(self._mask(name, roots).sum())

    def seconds(self, name: str, roots: tuple[str, ...]) -> float:
        return float(self.dur[self._mask(name, roots)].sum())

    def self_seconds(self, name: str, roots: tuple[str, ...]) -> float:
        return float(self.self_time[self._mask(name, roots)].sum())

    def raised(self, name: str, roots: tuple[str, ...]) -> int:
        return int((self._mask(name, roots) & self.error).sum())
