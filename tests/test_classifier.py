from __future__ import annotations

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import openhealth
from openhealth.classifier import (
    BLOCK_ROWS,
    GRAD_TOL,
    MAX_ITERATIONS,
    DegenerateDatasetError,
    EvalReport,
    MlpModel,
    ModelFormatError,
    TrainConfig,
    ablation_compare,
    blocked_loss_and_grad,
    evaluate,
    forward,
    init_model,
    load_model,
    loss_and_grad,
    model_from_bytes,
    model_to_bytes,
    predict,
    quantize_model,
    quantize_tensor,
    render_report,
    save_model,
    split_dataset,
    train,
)
from openhealth.core import ActivityLabel
from openhealth.pipeline import FeatureStats


def zero_model(d=6, h=4, c=3):
    return MlpModel(np.zeros(d * h + h + h * c + c), (d, h, c))


def finite_difference_grad(model, x, y, flat_index, h=1e-4):
    """Central-difference oracle over the flattened parameter vector."""
    tensors = model.tensors()
    sizes = [t.size for t in tensors]
    bounds = np.cumsum([0] + sizes)
    ti = int(np.searchsorted(bounds, flat_index, side="right")) - 1
    local = flat_index - bounds[ti]
    idx = np.unravel_index(local, tensors[ti].shape)

    orig = tensors[ti][idx]
    tensors[ti][idx] = orig + h
    lp, _ = loss_and_grad(model, x, y)
    tensors[ti][idx] = orig - h
    lm, _ = loss_and_grad(model, x, y)
    tensors[ti][idx] = orig
    return (lp - lm) / (2 * h)


def test_forward_zero_model_uniform():
    m = zero_model(c=3)
    p = forward(m, np.ones((1, 6)))
    assert np.allclose(p, 1.0 / 3.0)


def test_forward_probabilities_sum_to_one():
    m = init_model((6, 4, 3), seed=1)
    x = np.random.default_rng(2).normal(size=(50, 6))
    p = forward(m, x)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_forward_argmax_invariant_to_bias_shift():
    m = init_model((6, 4, 3), seed=3)
    x = np.random.default_rng(4).normal(size=(20, 6))
    before = predict(m, x)
    m.b2 += 7.5
    after = predict(m, x)
    assert np.array_equal(before, after)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 64),
    sizes=st.tuples(st.sampled_from([6, 21, 84, 96]), st.sampled_from([4, 16, 33]), st.sampled_from([2, 5, 7])),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_gives_each_row_of_a_batch_its_bytes_alone(rows, sizes, seed):
    """Budget: ~0.2 s of tier-1 for 60 examples, measured after the last edit. The simulated device
    classifies a look-ahead batch in one forward call, and its trace must not depend on the batch:
    each row's probabilities have the bytes that row gets alone, which an (n, D) @ (D, H) product
    does not give in its last bits."""
    model = init_model(sizes, seed=seed % 1000)
    model.b1[:] = np.random.default_rng(seed).normal(size=sizes[1])
    x = np.random.default_rng(seed + 1).normal(size=(rows, sizes[0]))
    batch = forward(model, x)
    for row, probs in zip(x, batch):
        assert probs.tobytes() == forward(model, row[None])[0].tobytes()


def test_forward_dimension_mismatch():
    m = zero_model(d=6)
    with pytest.raises(ValueError, match="dimension"):
        forward(m, np.ones((1, 7)))


def test_loss_near_zero_for_confident_correct_model():
    m = zero_model(d=2, h=2, c=2)
    m.b2[:] = (30.0, -30.0)  # always predicts class 0 with probability ~1
    loss, _ = loss_and_grad(m, np.zeros((1, 2)), np.array([0]))
    assert 0.0 <= loss < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    m = init_model((6, 4, 3), seed=11)
    x = rng.normal(size=(8, 6))
    y = rng.integers(0, 3, size=8)
    _, g = loss_and_grad(m, x, y)
    flat = np.concatenate([t.ravel() for t in (g.w1, g.b1, g.w2, g.b2)])
    picks = rng.choice(flat.size, size=20, replace=False)
    for i in picks:
        num = finite_difference_grad(m, x, y, int(i))
        rel = abs(flat[i] - num) / max(abs(flat[i]), abs(num), 1e-8)
        assert rel < 1e-5, (i, flat[i], num, rel)


def test_loss_and_grad_invariant_under_duplication():
    rng = np.random.default_rng(5)
    m = init_model((6, 4, 3), seed=5)
    x = rng.normal(size=(10, 6))
    y = rng.integers(0, 3, size=10)
    l1, g1 = loss_and_grad(m, x, y)
    l2, g2 = loss_and_grad(m, np.vstack([x, x]), np.concatenate([y, y]))
    assert l1 == pytest.approx(l2, abs=1e-12)
    assert np.allclose(g1.w1, g2.w1, atol=1e-12)
    assert np.allclose(g1.b2, g2.b2, atol=1e-12)


def test_loss_and_grad_validation():
    m = zero_model()
    with pytest.raises(ValueError):
        loss_and_grad(m, np.empty((0, 6)), np.array([], dtype=int))
    with pytest.raises(ValueError):
        loss_and_grad(m, np.full((1, 6), np.nan), np.array([0]))
    with pytest.raises(ValueError):
        loss_and_grad(m, np.ones((1, 6)), np.array([3]))


def separable_two_class_set(n=100, seed=0):
    """Two far-apart Gaussian blobs; separability proven by a perceptron oracle."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal((-2.0, -2.0), 0.3, (n // 2, 2))
    x1 = rng.normal((2.0, 2.0), 0.3, (n - n // 2, 2))
    x = np.vstack([x0, x1])
    y = np.array([0] * (n // 2) + [1] * (n - n // 2))

    w = np.zeros(3)
    xa = np.hstack([x, np.ones((n, 1))])
    sign = np.where(y == 1, 1.0, -1.0)
    for _ in range(1000):
        wrong = sign * (xa @ w) <= 0
        if not wrong.any():
            break
        w += (sign[wrong][:, None] * xa[wrong]).sum(axis=0)
    assert not (sign * (xa @ w) <= 0).any(), "oracle: set must be linearly separable"
    return x, y


def test_train_reaches_full_accuracy_on_separable_set():
    x, y = separable_two_class_set()
    model = init_model((2, 16, 2), seed=0)
    trained, history = train(model, x, y)
    assert history[-1] <= history[0]
    assert np.mean(predict(trained, x) == y) == 1.0


def test_train_is_deterministic():
    x, y = separable_two_class_set(seed=2)
    m1, h1 = train(init_model((2, 8, 2), seed=9), x, y)
    m2, h2 = train(init_model((2, 8, 2), seed=9), x, y)
    assert h1 == h2
    for a, b in zip(m1.tensors(), m2.tensors()):
        assert np.array_equal(a, b)


def test_train_rejects_single_class():
    x = np.random.default_rng(0).normal(size=(10, 2))
    y = np.zeros(10, dtype=int)
    with pytest.raises(DegenerateDatasetError):
        train(init_model((2, 4, 2), seed=0), x, y)


def reference_loss_and_grad(model, x, y):
    """loss_and_grad as it stood before its checks and loss took cheaper forms."""
    n = x.shape[0]
    z1 = x @ model.w1 + model.b1
    h = np.maximum(z1, 0.0)
    z2 = h @ model.w2 + model.b2
    zmax = z2.max(axis=1, keepdims=True)
    log_probs = z2 - zmax - np.log(np.exp(z2 - zmax).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(n), y].mean())
    dz2 = np.exp(log_probs)
    dz2[np.arange(n), y] -= 1.0
    dz2 /= n
    dh = dz2 @ model.w2.T
    dz1 = dh * (z1 > 0.0)
    return loss, [x.T @ dz1, dz1.sum(axis=0), h.T @ dz2, dz2.sum(axis=0)]


def test_gradient_is_the_concatenated_reference_gradients():
    rng = np.random.default_rng(3)
    model = init_model((12, 8, 3), seed=3)
    x = rng.normal(size=(32, 12))
    y = rng.integers(0, 3, 32)
    _, g = loss_and_grad(model, x, y)
    _, grads = reference_loss_and_grad(model, x, y)
    want = np.concatenate([t.ravel() for t in grads])
    assert g.layer_sizes == model.layer_sizes
    assert g.params.tobytes() == want.tobytes()


def test_train_history_never_increases_and_ends_on_the_tolerance():
    x, y = separable_two_class_set(seed=5)
    model = init_model((2, 8, 2), seed=4)
    got, history = train(model, x, y)
    assert all(b <= a for a, b in zip(history, history[1:]))
    loss, grad = blocked_loss_and_grad(got, x, y)
    assert history[-1] == loss
    assert np.abs(grad).max() < GRAD_TOL
    assert 1 < len(history) <= MAX_ITERATIONS


def test_train_on_random_labels_stops_at_the_cap_with_finite_parameters():
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(300, 4)), rng.integers(0, 3, 300)  # nothing to learn
    got, history = train(init_model((4, 8, 3), seed=4), x, y)
    assert len(history) == MAX_ITERATIONS + 1
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert np.isfinite(got.params).all()


def test_blocked_loss_and_grad_is_the_whole_batch_loss_and_grad():
    rng = np.random.default_rng(6)
    n = 2 * BLOCK_ROWS + 187  # a ragged last block
    x, y = rng.normal(size=(n, 12)) * rng.uniform(0.1, 10.0, 12), rng.integers(0, 3, n)
    model = init_model((12, 8, 3), seed=6)
    loss, grad = blocked_loss_and_grad(model, x, y)
    want_loss, want = loss_and_grad(model, x, y)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert np.abs(grad - want.params).max() <= 1e-12 * np.abs(want.params).max()


# 1,913 x 84 is the size of a reference training split; on a row count
# that two threads cannot split evenly, a full-batch x.T @ dz1 changes its
# bytes with the OpenBLAS thread count.
TRAIN_DIGEST = """
import hashlib
import numpy as np
from openhealth.classifier import init_model, model_to_bytes, train
rng = np.random.default_rng(0)
x, y = rng.normal(size=(1913, 84)) * rng.uniform(0.1, 10.0, 84), rng.integers(0, 4, 1913)
model, _ = train(init_model((84, 16, 4), seed=0), x, y)
print(hashlib.sha256(model_to_bytes(model)).hexdigest())
"""


def test_trained_bytes_do_not_depend_on_the_blas_thread_count():
    src = str(Path(openhealth.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", TRAIN_DIGEST],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in ("1", "2")
    ]
    digests = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert digests[0] == digests[1]


def test_train_checks_every_batch():
    x, y = separable_two_class_set(seed=4)
    model = init_model((2, 4, 2), seed=0)
    bad_x = x.copy()
    bad_x[60, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite feature input"):
        train(model, bad_x, y)
    for label in (-1, 2):
        bad_y = y.copy()
        bad_y[70] = label
        with pytest.raises(ValueError, match="label index outside model classes"):
            train(model, x, bad_y)
    with pytest.raises(DegenerateDatasetError):  # checked before any batch
        train(model, np.full((5, 2), np.nan), np.zeros(5, dtype=int))
    with pytest.raises(DegenerateDatasetError):
        train(model, np.empty((0, 2)), np.empty(0, dtype=int))


def test_evaluate_always_class_zero():
    m = zero_model(d=2, h=2, c=2)
    m.b2[:] = (10.0, -10.0)
    x = np.random.default_rng(0).normal(size=(40, 2))
    y = np.array([0, 1] * 20)

    class TwoLabels:
        pass

    report = evaluate(m, x, y, _two_label_enum())
    assert report.overall_accuracy == 0.5
    assert report.confusion[1, 0] == 20 and report.confusion[1, 1] == 0
    assert report.totals.sum() == 40
    assert report.correct == np.trace(report.confusion)


def _two_label_enum():
    from enum import Enum

    class Pair(Enum):
        A = 0
        B = 1

        @property
        def display_name(self):
            return self.name

    return Pair


def test_report_accuracy_rendering_values():
    confusion = np.zeros((7, 7), dtype=np.int64)
    counts = {0: (154, 155), 2: (204, 204), 5: (794, 806)}
    for cls in range(7):
        correct, total = counts.get(cls, (90, 100))
        confusion[cls, cls] = correct
        confusion[cls, (cls + 1) % 7] = total - correct
    report = EvalReport(label_set=ActivityLabel, confusion=confusion)
    text = render_report(report)
    lines = text.splitlines()
    assert "99.4" in lines[1] and "154 / 155" in lines[1]
    assert lines[3].split()[-1] == "100" and "204 / 204" in lines[3]
    assert "98.5" in lines[6] and "794 / 806" in lines[6]


def test_report_shows_a_class_without_windows_as_a_dash():
    confusion = np.zeros((7, 7), dtype=np.int64)
    confusion[0, 0] = 3
    report = EvalReport(label_set=ActivityLabel, confusion=confusion)
    assert report.to_dict()["classes"]["Jump"] == {"correct": 0, "total": 0, "accuracy_pct": None}
    lines = render_report(report).splitlines()
    assert lines[1].split()[-1] == lines[-1].split()[-1] == "100"
    assert [line.split()[-1] for line in lines[2:-1]] == ["-"] * 6
    empty = render_report(EvalReport(label_set=ActivityLabel, confusion=np.zeros((7, 7), dtype=np.int64)))
    assert all(line.endswith("0 / 0              -") for line in empty.splitlines()[1:])


def test_quantize_flash_arithmetic():
    m = init_model((84, 16, 7), seed=0)
    qm = quantize_model(m)
    n_params = 84 * 16 + 16 + 16 * 7 + 7
    assert m.n_params == n_params == 1479
    # image = magic(4) + version/meta(2) + sizes(12) + 4 tensors * (8 + payload)
    assert qm.flash_bytes == 18 + 4 * 8 + n_params
    assert qm.flash_bytes < 2048 < 131072



def test_param_image_follows_the_documented_layout():
    qm = quantize_model(init_model((12, 5, 4), seed=8))
    image = qm.param_image()
    assert image[:4] == b"OHQ1"
    assert struct.unpack_from(">BB3I", image, 4) == (1, 3, 12, 5, 4)
    pos = 18
    for t in qm.tensors:
        scale, zero_point = struct.unpack_from(">fi", image, pos)
        assert scale == pytest.approx(t.scale, rel=1e-6)
        assert zero_point == t.zero_point
        payload = np.frombuffer(image, dtype="i1", count=t.q.size, offset=pos + 8)
        assert np.array_equal(payload, t.q)
        pos += 8 + t.q.size
    assert pos == len(image) == qm.flash_bytes

def test_quantize_zero_model_round_trips_exactly():
    m = zero_model()
    qm = quantize_model(m)
    deq = qm.dequantized()
    for t in deq.tensors():
        assert np.all(t == 0.0)


def test_quantized_argmax_agreement():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(400, 12))
    y = rng.integers(0, 3, size=400)
    feats_shift = np.where(y[:, None] == 0, 1.5, np.where(y[:, None] == 1, -1.5, 0.0))
    x = x + feats_shift
    model, _ = train(init_model((12, 16, 3), seed=0), x, y)
    probe = rng.normal(size=(1000, 12))
    deq = quantize_model(model).dequantized()
    agreement = np.mean(predict(model, probe) == predict(deq, probe))
    assert agreement >= 0.98


def test_quantize_tensor_range():
    x = np.linspace(-3.0, 5.0, 100)
    qt = quantize_tensor(x)
    assert qt.q.dtype == np.int8
    err = np.abs(qt.dequantize() - x).max()
    assert err <= qt.scale  # within one quantization step


def test_quantize_tensor_of_one_negative_value():
    x = np.full(5, -2.5)
    qt = quantize_tensor(x)
    assert (qt.scale, qt.zero_point) == (2.5 / 127.0, 0)
    assert (qt.q == -127).all()
    np.testing.assert_allclose(qt.dequantize(), x)


def test_model_blob_round_trip(tmp_path):
    m = init_model((12, 5, 4), seed=8)
    m.stats = FeatureStats(mean=np.arange(12.0), std=np.ones(12))
    blob = model_to_bytes(m)
    back = model_from_bytes(blob)
    assert back.layer_sizes == (12, 5, 4)
    for a, b in zip(m.tensors(), back.tensors()):
        assert np.array_equal(a, b)
    assert np.array_equal(back.stats.mean, m.stats.mean)

    path = tmp_path / "m.ohm"
    save_model(m, path)
    assert load_model(path).layer_sizes == (12, 5, 4)
    assert path.read_bytes()[:4] == b"OHM1"


def test_model_rejects_params_that_do_not_fit_its_layer_sizes():
    with pytest.raises(ValueError, match="inconsistent layer shapes"):
        MlpModel(np.zeros(6 * 4 + 4 + 4 * 3 + 3 - 1), (6, 4, 3))
    with pytest.raises(ValueError, match="inconsistent layer shapes"):
        MlpModel(np.zeros((1, 6 * 4 + 4 + 4 * 3 + 3)), (6, 4, 3))


def per_tensor_blob(model):
    """The OHM1 layout of docs/formats/model_blob.md, written field by field."""
    out = [b"OHM1", struct.pack(">BB", 1, 3), struct.pack(">3I", *model.layer_sizes)]
    out += [t.astype(">f8").tobytes() for t in (model.w1, model.b1, model.w2, model.b2)]
    if model.stats is None:
        out.append(b"\x00")
    else:
        out += [b"\x01", model.stats.mean.astype(">f8").tobytes(), model.stats.std.astype(">f8").tobytes()]
    return b"".join(out)


@pytest.mark.parametrize("with_stats", [False, True])
def test_model_to_bytes_is_the_documented_per_tensor_layout(with_stats):
    m = init_model((12, 5, 4), seed=6)
    if with_stats:
        m.stats = FeatureStats(mean=np.linspace(-1.0, 1.0, 12), std=np.full(12, 0.5))
    assert model_to_bytes(m) == per_tensor_blob(m)


def _trained():
    rng = np.random.default_rng(1)
    model, _ = train(init_model((6, 4, 3), seed=1), rng.normal(size=(40, 6)), rng.integers(0, 3, 40))
    return model


@pytest.mark.parametrize(
    "make",
    [
        lambda: init_model((6, 4, 3), seed=1),
        _trained,
        lambda: model_from_bytes(model_to_bytes(init_model((6, 4, 3), seed=1))),
        lambda: quantize_model(init_model((6, 4, 3), seed=1)).dequantized(),
    ],
    ids=["init_model", "train", "model_from_bytes", "dequantized"],
)
def test_layer_tensors_are_views_of_params(make):
    m = make()
    assert [t.shape for t in m.tensors()] == [(6, 4), (4,), (4, 3), (3,)]
    for t in m.tensors():
        assert np.shares_memory(t, m.params)
    m.params[:] = np.arange(m.n_params)
    assert np.concatenate([t.ravel() for t in m.tensors()]).tolist() == list(range(m.n_params))


def test_blob_bad_magic():
    with pytest.raises(ValueError, match="magic"):
        model_from_bytes(b"XXXX" + b"\x00" * 40)


@pytest.mark.parametrize("n_sizes", [2, 4])
def test_blob_size_count_other_than_3_names_byte_5(tmp_path, n_sizes):
    path = tmp_path / "m.ohm"
    save_model(init_model((6, 3, 4), seed=2), path)
    blob = bytearray(path.read_bytes())
    blob[5] = n_sizes  # the size count, after the magic and the version byte
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert str(exc.value) == f"byte 5: a version-1 model blob has 3 layer sizes, not {n_sizes}"


def _valid_blobs() -> list[bytes]:
    m = init_model((6, 3, 4), seed=2)
    with_stats = init_model((6, 3, 4), seed=2)
    with_stats.stats = FeatureStats(mean=np.arange(6.0), std=np.ones(6))
    return [model_to_bytes(m), model_to_bytes(with_stats)]


def test_truncated_blob_names_byte_offset():
    blob = _valid_blobs()[1]
    for cut in range(len(blob)):
        with pytest.raises(ModelFormatError, match=r"^byte \d+: "):
            model_from_bytes(blob[:cut])


def test_non_finite_parameter_is_format_error():
    blob = bytearray(_valid_blobs()[0])
    blob[18:26] = struct.pack(">d", float("nan"))  # the first layer-1 weight
    with pytest.raises(ModelFormatError, match="^byte 18: non-finite"):
        model_from_bytes(bytes(blob))


@pytest.mark.parametrize("index", range(2))
def test_trailing_bytes_name_first_extra_byte(index):
    blob = _valid_blobs()[index]
    for tail in (b"\x00", b"junk"):
        with pytest.raises(ModelFormatError, match=rf"^byte {len(blob)}: {len(tail)} bytes after the end"):
            model_from_bytes(blob + tail)


# Overwrites: raw bytes anywhere, or a big-endian float64 (NaN and infinities
# included) on a parameter boundary (float64 parameters start at byte 18).
_EDIT = st.one_of(
    st.tuples(st.integers(0, 399), st.binary(min_size=1, max_size=8)),
    st.tuples(st.integers(0, 48).map(lambda k: 18 + 8 * k), st.floats().map(lambda v: struct.pack(">d", v))),
)


@settings(max_examples=400, deadline=None)
@given(
    blob=st.sampled_from(_valid_blobs()),
    cut=st.one_of(st.none(), st.integers(0, 400)),
    edits=st.lists(_EDIT, max_size=4),
    tail=st.binary(max_size=16),
)
def test_blob_decoders_raise_only_format_errors(blob, cut, edits, tail):
    data = bytearray(blob[:cut])
    for pos, chunk in edits:
        data[pos : pos + len(chunk)] = chunk[: max(0, len(data) - pos)]
    data += tail
    try:
        model_from_bytes(bytes(data))
    except ModelFormatError:
        pass


def test_split_dataset_deterministic():
    a_train, a_test = split_dataset(100, 0.8, seed=5)
    b_train, b_test = split_dataset(100, 0.8, seed=5)
    assert np.array_equal(a_train, b_train) and np.array_equal(a_test, b_test)
    assert len(a_train) == 80 and len(a_test) == 20
    assert sorted(np.concatenate([a_train, a_test])) == list(range(100))


def _ablation_windows(n_per_class=120, w=32, seed=0):
    """Stretch carries the only Sit/Stand discriminant by construction."""
    rng = np.random.default_rng(seed)
    windows, labels = [], []
    for cls in (0, 1):
        for _ in range(n_per_class):
            block = rng.normal(0.0, 0.05, (w, 4))
            block[:, :3] += (0.0, 0.0, 1.0)  # identical accel signal for both classes
            block[:, 3] = 0.75 if cls == 0 else 0.1
            block[:, 3] += rng.normal(0, 0.02, w)
            windows.append(block)
            labels.append(cls)
    return np.stack(windows), np.array(labels)


def test_ablation_stretch_fusion_beats_accel_only():
    windows, labels = _ablation_windows()
    config = TrainConfig(seed=0)
    results = ablation_compare(
        windows, labels,
        channel_names=("ax", "ay", "az", "stretch"),
        channel_subsets=[("accel",), ("accel", "stretch")],
        config=config,
    )
    assert results[("accel", "stretch")] > results[("accel",)]


def test_ablation_identical_subsets_identical_accuracy():
    windows, labels = _ablation_windows(n_per_class=60)
    config = TrainConfig(seed=1)
    results = ablation_compare(
        windows, labels,
        channel_names=("ax", "ay", "az", "stretch"),
        channel_subsets=[("accel", "stretch")],
        config=config,
    )
    again = ablation_compare(
        windows, labels,
        channel_names=("ax", "ay", "az", "stretch"),
        channel_subsets=[("accel", "stretch")],
        config=config,
    )
    assert results == again


def test_ablation_rejects_bad_subsets():
    windows, labels = _ablation_windows(n_per_class=30)
    config = TrainConfig(seed=0)
    with pytest.raises(ValueError, match="empty"):
        ablation_compare(windows, labels, ("ax", "ay", "az", "stretch"), [()], config)
    with pytest.raises(ValueError, match="not present"):
        ablation_compare(windows, labels, ("ax", "ay", "az"), [("stretch",)], config)
