"""The benchmark's tracer wraps package functions by name: every name must resolve and be called."""

from __future__ import annotations

import importlib
import importlib.util
import math
from collections import Counter
from pathlib import Path

import numpy as np

from openhealth import classifier, simengine
from openhealth.config import parse_config

from test_simengine import depletion_raw, small_config

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


def test_simulator_runs_the_spanned_firmware_rules():
    """The firmware spans count the rules the simulator calls, so they cannot read 0."""
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        simengine.run_scenario(small_config(), seed=11)  # the wrapped module attribute
    finally:
        tracer.remove()
    spans = module.SpanTable(tracer)
    for name in ("firmware.account_energy", "firmware.step_state_machine"):
        assert spans.calls(name, ("simengine.run_scenario",)) > 0, name


def test_simulator_runs_the_spanned_synthesis_rule():
    """The simulator synthesizes its windows through dataio.synthesize_signal, so its span cannot read 0."""
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        simengine.run_scenario(small_config(), seed=11)
    finally:
        tracer.remove()
    assert module.SpanTable(tracer).calls("dataio.synthesize_signal", ("simengine.run_scenario",)) > 0


def test_gateway_span_counts_one_call_per_frame_the_host_hears():
    """netproto.gateway_calls means one HostGateway.step per delivered frame, replays and rejects included."""
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        trace = simengine.run_scenario(parse_config(depletion_raw()), seed=0)  # lossy and corrupting
    finally:
        tracer.remove()
    heard = Counter(parts[1] for parts in (line.split("\t") for line in trace.lines) if parts[2] == "host")
    assert heard["frame_reject"] > 0
    calls = module.SpanTable(tracer).calls("netproto.HostGateway.step", ("simengine.run_scenario",))
    assert calls == heard["frame_rx"] + heard["frame_reject"]


def test_decode_frame_raises_only_on_a_frame_that_fails_to_verify():
    """netproto.decode_rejects counts decode_frame calls that raise: frames
    truncated, of an unknown version or failing authentication, at the host
    and at a device alike. A replay is rejected by the receiver's window after
    decode_frame returns, so it is not counted."""
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        trace = simengine.run_scenario(parse_config(depletion_raw()), seed=0)  # lossy and corrupting
    finally:
        tracer.remove()
    codes = Counter(parts[-1] for parts in (line.split("\t") for line in trace.lines) if parts[1] == "frame_reject")
    assert codes["replay"] > 0
    raised = module.SpanTable(tracer).raised("netproto.decode_frame", ("simengine.run_scenario",))
    assert raised == codes["truncated"] + codes["bad_version"] + codes["auth_failure"] > 0


def test_train_batches_count_one_loss_and_grad_per_batch(monkeypatch):
    """classifier.train_batches means one loss_and_grad span per gradient block:
    loss evaluations x ceil(n / BLOCK_ROWS), the ragged last block included."""
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(600, 6)), rng.integers(0, 3, 600)
    evaluations = []
    blocked = classifier.blocked_loss_and_grad
    monkeypatch.setattr(classifier, "blocked_loss_and_grad", lambda *args: evaluations.append(1) or blocked(*args))
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        _, history = classifier.train(classifier.init_model((6, 4, 3)), x, y)  # the wrapped attribute
    finally:
        tracer.remove()
    assert len(evaluations) >= len(history) > 1
    spans = module.SpanTable(tracer).calls("classifier.loss_and_grad", ("classifier.train",))
    assert spans == len(evaluations) * math.ceil(600 / classifier.BLOCK_ROWS) == len(evaluations) * 3
