"""From-scratch MLP classifier: training, evaluation, quantization, model blobs.

Architecture is a single rectifier hidden layer with a softmax output,
sized [D, H, C]. Training is full-batch L-BFGS (Liu & Nocedal 1989) on
the mean cross-entropy, deterministic given the data and the initial
model, whatever the BLAS thread count. Model files are versioned ``OHM1``
binary blobs of float64 parameters (big-endian, row-major). An int8-quantized model is not
stored; its ``OHQ1`` parameter image only sizes the flash a device needs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ACCEL_CHANNELS,
    COUNT,
    GYRO_CHANNELS,
    STRETCH_CHANNEL,
    check_fields,
    label_set_for,
    num,
)
from .pipeline import (
    FEATURES_PER_CHANNEL,
    FeatureStats,
    extract_feature_matrix,
    normalize_features,
)

MODEL_MAGIC = b"OHM1"
QUANT_MAGIC = b"OHQ1"

CHANNEL_GROUPS: Mapping[str, tuple[str, ...]] = {
    "accel": ACCEL_CHANNELS,
    "gyro": GYRO_CHANNELS,
    "stretch": STRETCH_CHANNEL,
}


class DegenerateDatasetError(ValueError):
    """Training data does not contain at least two classes."""


class ModelFormatError(ValueError):
    """Malformed OHM1 model blob; the message names the byte offset."""


class ModelFitError(ValueError):
    """A well-formed model that does not fit the data it is to classify."""


def param_count(layer_sizes: Sequence[int]) -> int:
    """Length of MlpModel.params, and of the OHM1 parameter block, for (D, H, C)."""
    d, h, c = layer_sizes
    return d * h + h + h * c + c


@dataclass
class MlpModel:
    """Weights for a [D, H, C] rectifier network with softmax output.

    params holds every weight in OHM1 order, each tensor row-major: w1
    (D x H), b1 (H), w2 (H x C), b2 (C). The w1, b1, w2 and b2 attributes
    are views of it, so a write through either is seen by the other.
    """

    params: np.ndarray
    layer_sizes: tuple[int, int, int]
    stats: FeatureStats | None = None

    def __post_init__(self) -> None:
        self.params = np.ascontiguousarray(self.params, dtype=float)  # the views below must not be copies
        self.layer_sizes = d, h, c = tuple(self.layer_sizes)
        if self.params.shape != (param_count(self.layer_sizes),):
            raise ValueError("inconsistent layer shapes")
        a, b, e = d * h, d * h + h, d * h + h + h * c
        self.w1 = self.params[:a].reshape(d, h)
        self.b1 = self.params[a:b]
        self.w2 = self.params[b:e].reshape(h, c)
        self.b2 = self.params[e:]

    @property
    def n_params(self) -> int:
        return self.params.size

    def validate(self) -> None:
        if not np.isfinite(self.params).all():
            raise ValueError("non-finite model parameter")

    def tensors(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


BLOCK_ROWS = 256  # rows per loss_and_grad call; the last block holds the remainder
MEMORY = 10  # (step, gradient change) pairs the L-BFGS direction is built from
GRAD_TOL = 1e-5  # training stops once every gradient component is smaller
MAX_ITERATIONS = 200
ARMIJO = 1e-4  # the sufficient-decrease fraction of the line search
MAX_HALVINGS = 30  # step halvings before the line search gives up


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0  # drives the split and the initialization
    split_fraction: float = 0.8
    hidden: int = 16  # units in the hidden layer

    RULES = {
        "seed": num(lo=0, integer=True),
        "split_fraction": num(lo=0.01, hi=0.99),
        "hidden": COUNT,
    }

    def __post_init__(self) -> None:
        check_fields(self)


def init_model(layer_sizes: Sequence[int], seed: int = 0) -> MlpModel:
    """He-style scaled uniform initialization from a seeded RNG."""
    d, h, c = layer_sizes
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / d)
    lim2 = np.sqrt(6.0 / h)
    model = MlpModel(np.zeros(param_count(layer_sizes)), layer_sizes)
    model.w1[:] = rng.uniform(-lim1, lim1, (d, h))
    model.w2[:] = rng.uniform(-lim2, lim2, (h, c))
    return model


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities for an (n, D) batch of normalized features: one
    row per input row, each summing to 1."""
    x = np.asarray(x, dtype=float)
    if x.shape[1] != model.w1.shape[0]:
        raise ValueError(f"input dimension {x.shape[1]} != model dimension {model.w1.shape[0]}")
    hidden = np.maximum(x @ model.w1 + model.b1, 0.0)
    return _softmax(hidden @ model.w2 + model.b2)


def predict(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Argmax class index per row of an (n, D) batch; ties break toward the lowest index."""
    return np.argmax(forward(model, x), axis=1)


def loss_and_grad(model: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple[float, MlpModel]:
    """Mean cross-entropy over the batch and its analytic gradient, in the
    model's own layout: the gradient's params line up with model.params."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch must be a nonempty (n, D) array")
    if x.shape[1] != model.w1.shape[0]:
        raise ValueError("input dimension mismatch")
    if not np.isfinite(x).all():
        raise ValueError("non-finite feature input")
    if y.min() < 0 or y.max() >= model.w2.shape[1]:
        raise ValueError("label index outside model classes")

    n = x.shape[0]
    rows = np.arange(n)
    z1 = x @ model.w1 + model.b1
    h = np.maximum(z1, 0.0)
    z2 = h @ model.w2 + model.b2
    shifted = z2 - z2.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[rows, y].sum() / n)  # np.mean's own arithmetic

    dz2 = np.exp(log_probs)
    dz2[rows, y] -= 1.0
    dz2 /= n
    dz1 = (dz2 @ model.w2.T) * (z1 > 0.0)
    grad = np.concatenate((x.T @ dz1, dz1.sum(axis=0), h.T @ dz2, dz2.sum(axis=0)), axis=None)
    return loss, MlpModel(grad, model.layer_sizes)


def blocked_loss_and_grad(model: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over all rows and its gradient vector: loss_and_grad
    on consecutive BLOCK_ROWS-row blocks, weighted by rows and added in order.
    No product spans more than a block, so the bytes do not depend on the
    BLAS thread count."""
    n = x.shape[0]
    loss, grad = 0.0, np.zeros_like(model.params)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        part, g = loss_and_grad(model, x[start:stop], y[start:stop])
        weight = (stop - start) / n
        loss += weight * part
        grad += weight * g.params
    return loss, grad


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float((a * b).sum())  # numpy's own pairwise sum: no BLAS threads


def train(model: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple[MlpModel, list[float]]:
    """Full-batch L-BFGS with a backtracking Armijo line search; returns the
    model and its loss before each iteration and after the last.

    Stops once max |gradient| < GRAD_TOL, after MAX_ITERATIONS, or when the
    line search finds no decrease. The input model is not mutated. Raises
    DegenerateDatasetError when the data holds fewer than two distinct classes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(np.unique(y)) < 2:
        raise DegenerateDatasetError("training data must contain at least 2 classes")

    m = MlpModel(model.params.copy(), model.layer_sizes, model.stats)
    loss, g = blocked_loss_and_grad(m, x, y)
    history = [loss]
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, dg, 1 / s.dg), oldest first
    for _ in range(MAX_ITERATIONS):
        if np.abs(g).max() < GRAD_TOL:
            break
        d = -g  # the two-loop recursion turns -g into -H g
        alphas = []
        for s, dg, rho in reversed(pairs):
            alphas.append(rho * _dot(s, d))
            d -= alphas[-1] * dg
        if pairs:
            s, dg, _ = pairs[-1]
            d *= _dot(s, dg) / _dot(dg, dg)
        else:
            d /= np.abs(g).sum()
        for (s, dg, rho), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - rho * _dot(dg, d)) * s
        slope, step = _dot(g, d), 1.0
        if not slope < 0:  # rounding left d no descent direction
            break
        for _ in range(MAX_HALVINGS):
            trial = MlpModel(m.params + step * d, m.layer_sizes, m.stats)
            trial_loss, trial_g = blocked_loss_and_grad(trial, x, y)
            if trial_loss <= loss + ARMIJO * step * slope:
                break
            step /= 2
        else:
            break  # no step along d decreases the loss enough
        s, dg = trial.params - m.params, trial_g - g
        if _dot(s, dg) > 0:  # else the pair would break the curvature condition
            pairs = [*pairs[1 - MEMORY :], (s, dg, 1.0 / _dot(s, dg))]
        m, loss, g = trial, trial_loss, trial_g
        history.append(loss)
    return m, history


def split_dataset(
    n: int, fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled train/test index split."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    order = np.random.default_rng(seed).permutation(n)
    cut = int(round(n * fraction))
    return order[:cut], order[cut:]


@dataclass
class EvalReport:
    """Per-class counts and the confusion matrix of one evaluation run."""

    label_set: type
    confusion: np.ndarray  # rows = true class, cols = predicted class

    @property
    def totals(self) -> np.ndarray:
        return self.confusion.sum(axis=1)

    @property
    def corrects(self) -> np.ndarray:
        return np.diag(self.confusion)

    @property
    def total(self) -> int:
        return int(self.confusion.sum())

    @property
    def correct(self) -> int:
        return int(np.trace(self.confusion))

    @property
    def overall_accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        rows = {}
        for label in self.label_set:
            t = int(self.totals[label.value])
            k = int(self.corrects[label.value])
            rows[label.name] = {
                "correct": k,
                "total": t,
                "accuracy_pct": round(100.0 * k / t, 1) if t else None,
            }
        return {
            "classes": rows,
            "overall": {
                "correct": self.correct,
                "total": self.total,
                "accuracy_pct": round(100.0 * self.overall_accuracy, 1) if self.total else None,
            },
            "confusion": self.confusion.tolist(),
        }


def evaluate(model: MlpModel, x: np.ndarray, y: np.ndarray, label_set: type) -> EvalReport:
    """Confusion-matrix evaluation of normalized features against labels."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.shape[0] == 0:
        raise ValueError("empty test set")
    c = len(label_set)
    pred = predict(model, x)
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (y, pred), 1)
    return EvalReport(label_set=label_set, confusion=confusion)


def _accuracy_text(pct: float) -> str:
    s = f"{pct:.1f}"
    return s[:-2] if s.endswith(".0") else s


def render_report(report: EvalReport) -> str:
    """Fixed-width per-class accuracy table (golden format, byte-stable)."""
    lines = [f"{'Activity':<13}{'Correct / Total':>18}   {'Accuracy (%)':>12}"]
    for label in report.label_set:
        t = int(report.totals[label.value])
        k = int(report.corrects[label.value])
        counts = f"{k} / {t}"
        acc = _accuracy_text(100.0 * k / t) if t else "-"
        lines.append(f"{label.display_name:<13}{counts:>18}   {acc:>12}")
    counts = f"{report.correct} / {report.total}"
    acc = _accuracy_text(100.0 * report.overall_accuracy) if report.total else "-"
    lines.append(f"{'Overall':<13}{counts:>18}   {acc:>12}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Quantization

@dataclass(frozen=True)
class QuantizedTensor:
    q: np.ndarray  # int8
    scale: float
    zero_point: int

    def dequantize(self) -> np.ndarray:
        return self.scale * (self.q.astype(np.float64) - self.zero_point)


def quantize_tensor(x: np.ndarray) -> QuantizedTensor:
    """Per-tensor affine int8 quantization (range [-128, 127])."""
    mn = float(x.min()) if x.size else 0.0
    mx = float(x.max()) if x.size else 0.0
    if mx > mn:
        scale = (mx - mn) / 255.0
        zp = int(np.clip(round(-128 - mn / scale), -128, 127))
    elif mx == 0.0:
        scale, zp = 1.0, 0
    else:
        scale, zp = abs(mx) / 127.0, 0
    q = np.clip(np.round(x / scale) + zp, -128, 127).astype(np.int8)
    return QuantizedTensor(q=q, scale=scale, zero_point=zp)


@dataclass
class QuantizedModel:
    """Int8 parameter image plus the float stats needed at inference time.

    flash_bytes counts only the flash-resident parameter image (int8
    payload, per-tensor scale/offset, header). Normalization stats are
    carried alongside for dequantized(); on-device they fold into the
    first layer, so they add no flash.
    """

    layer_sizes: tuple[int, int, int]
    tensors: list[QuantizedTensor]
    stats: FeatureStats | None = None

    @property
    def flash_bytes(self) -> int:
        return len(self.param_image())

    def param_image(self) -> bytes:
        out = [QUANT_MAGIC, struct.pack(">BB", 1, len(self.layer_sizes))]
        out.append(struct.pack(f">{len(self.layer_sizes)}I", *self.layer_sizes))
        for t in self.tensors:
            out.append(struct.pack(">fi", t.scale, t.zero_point))
            out.append(t.q.astype(">i1").tobytes())
        return b"".join(out)

    def dequantized(self) -> MlpModel:
        params = np.concatenate([t.dequantize() for t in self.tensors])
        return MlpModel(params, self.layer_sizes, self.stats)


def quantize_model(model: MlpModel) -> QuantizedModel:
    """Quantize all parameters to int8 per-tensor affine (stored flat, row-major)."""
    model.validate()
    return QuantizedModel(
        layer_sizes=model.layer_sizes,
        tensors=[quantize_tensor(t.ravel()) for t in model.tensors()],
        stats=model.stats,
    )


# ---------------------------------------------------------------------------
# Model blobs

def _pack_f64(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=float).astype(">f8").tobytes()


def _take(buf: bytes, offset: int, size: int, what: str) -> int:
    """End offset of the next field; ModelFormatError if the blob ends first."""
    end = offset + size
    if end > len(buf):
        raise ModelFormatError(
            f"byte {offset}: blob ends inside the {what} ({size} bytes needed, {len(buf) - offset} left)"
        )
    return end


def _unpack(fmt: str, buf: bytes, offset: int, what: str) -> tuple:
    _take(buf, offset, struct.calcsize(fmt), what)
    return struct.unpack_from(fmt, buf, offset)


def _unpack_f64(buf: bytes, offset: int, count: int, what: str) -> tuple[np.ndarray, int]:
    end = _take(buf, offset, 8 * count, what)
    return np.frombuffer(buf[offset:end], dtype=">f8").astype(float), end


def _unpack_header(buf: bytes) -> tuple[int, int, int]:
    """Layer sizes (d, h, c) from the 18-byte OHM1 header."""
    if buf[:4] != MODEL_MAGIC:
        raise ModelFormatError("byte 0: not a model blob (bad magic)")
    version, n_sizes = _unpack(">BB", buf, 4, "header")
    if version != 1 or n_sizes != 3:
        raise ModelFormatError(f"byte 4: unsupported model blob version {version}")
    return _unpack(">3I", buf, 6, "layer sizes")


def _pack_stats(stats: FeatureStats | None) -> bytes:
    """The stats section that ends the blob: a flag, then means and deviations if set."""
    if stats is None:
        return struct.pack(">B", 0)
    return struct.pack(">B", 1) + _pack_f64(stats.mean) + _pack_f64(stats.std)


def _unpack_stats(buf: bytes, offset: int, d: int) -> FeatureStats | None:
    """The stats section that ends the blob; ModelFormatError if bytes follow it."""
    (has_stats,) = _unpack(">B", buf, offset, "stats flag")
    stats, end = None, offset + 1
    if has_stats:
        mean, end = _unpack_f64(buf, end, d, "feature means")
        std, end = _unpack_f64(buf, end, d, "feature deviations")
        stats = FeatureStats(mean=mean, std=std)
    if end != len(buf):
        raise ModelFormatError(f"byte {end}: {len(buf) - end} bytes after the end of the blob")
    return stats


def model_to_bytes(model: MlpModel) -> bytes:
    model.validate()
    d, h, c = model.layer_sizes
    header = MODEL_MAGIC + struct.pack(">BB3I", 1, 3, d, h, c)
    return header + _pack_f64(model.params) + _pack_stats(model.stats)


def model_from_bytes(buf: bytes) -> MlpModel:
    """Decode an OHM1 blob; raises only ModelFormatError."""
    d, h, c = _unpack_header(buf)
    params, off = _unpack_f64(buf, 18, param_count((d, h, c)), "parameters")
    model = MlpModel(params, (d, h, c), _unpack_stats(buf, off, d))
    try:
        model.validate()
    except ValueError as exc:
        raise ModelFormatError(f"byte 18: {exc}") from None
    return model


def save_model(model: MlpModel, path: str | Path) -> None:
    Path(path).write_bytes(model_to_bytes(model))


def load_model(path: str | Path) -> MlpModel:
    return model_from_bytes(Path(path).read_bytes())


def check_fit(model: MlpModel, channels: int, app: str) -> None:
    """ModelFitError unless the model can classify windows of `channels`
    columns for app: it must take their features, score the app's labels,
    and carry the training set's feature stats (one window cannot be
    normalized by its own)."""
    d, _, c = model.layer_sizes
    labels = len(label_set_for(app))
    if d != channels * FEATURES_PER_CHANNEL:
        raise ModelFitError(f"model input {d} != {channels} channels x {FEATURES_PER_CHANNEL} features")
    if c != labels:
        raise ModelFitError(f"model has {c} classes, the {app} app has {labels} labels")
    if model.stats is None:
        raise ModelFitError("model has no feature stats")


# ---------------------------------------------------------------------------
# Sensor-ablation comparison

def resolve_channels(subset: Sequence[str], available: Sequence[str]) -> tuple[int, ...]:
    """Expand channel group aliases and map names to column indices."""
    if not subset:
        raise ValueError("channel subset is empty")
    names: list[str] = []
    for entry in subset:
        names.extend(CHANNEL_GROUPS.get(entry, (entry,)))
    indices = []
    for name in names:
        if name not in available:
            raise ValueError(f"channel {name!r} not present (have {', '.join(available)})")
        indices.append(available.index(name))
    return tuple(indices)


def ablation_compare(
    windows: np.ndarray,
    labels: np.ndarray,
    channel_names: Sequence[str],
    channel_subsets: Sequence[Sequence[str]],
    config: TrainConfig,
    n_classes: int | None = None,
) -> dict[tuple[str, ...], float]:
    """Train one model per channel subset with a shared seed and split.

    windows is the (n, W, C) stack of labeled windows; labels are class
    indices. Returns overall test accuracy per subset.
    """
    labels = np.asarray(labels, dtype=int)
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    train_idx, test_idx = split_dataset(len(labels), config.split_fraction, config.seed)
    results: dict[tuple[str, ...], float] = {}
    for subset in channel_subsets:
        cols = resolve_channels(subset, channel_names)
        feats = extract_feature_matrix(windows[:, :, cols])
        x_train, stats = normalize_features(feats[train_idx])
        x_test, _ = normalize_features(feats[test_idx], stats)
        model = init_model((feats.shape[1], config.hidden, n_classes), seed=config.seed)
        model.stats = stats
        trained, _ = train(model, x_train, labels[train_idx])
        pred = predict(trained, x_test)
        results[tuple(subset)] = float(np.mean(pred == labels[test_idx]))
    return results
