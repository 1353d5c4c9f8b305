"""Dense numerics shared by every learning framework in the simulator.

Holds the dataset containers and loaders, a small MLP with hand-coded
gradients (ReLU hidden layers, softmax output, mean cross-entropy loss),
plain SGD with inverse-time learning-rate decay, and the sparse top-k
update machinery used for selective gradient exchange.

Parameter flattening order is fixed and relied on by sparse updates that
cross party boundaries: layer by layer from input to output, weight
matrix first (row-major, shape in_dim x out_dim), then its bias vector.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Feature matrix plus integer class labels.

    features: (n, dim) float64 array, finite values.
    labels:   (n,) integer array with every value in [0, num_classes).
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.ndim != 1 or len(self.labels) != len(self.features):
            raise ValueError("label count must match feature row count")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)

    def split(self, holdout_fraction: float, rng: np.random.Generator) -> tuple["Dataset", "Dataset"]:
        """Shuffled split into (rest, holdout); holdout gets the stated fraction."""
        if not 0.0 < holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        order = rng.permutation(len(self))
        n_hold = max(1, int(round(holdout_fraction * len(self))))
        return self.subset(order[n_hold:]), self.subset(order[:n_hold])


class MlpModel:
    """Fully connected network with ReLU hidden layers and softmax output.

    All parameters live in one flat float64 vector; per-layer weight and
    bias arrays are views into it, so flat-vector operations (SGD steps,
    sparse updates) and layer-wise ones (forward, backward) stay in sync.
    """

    def __init__(self, dims, params: np.ndarray | None = None):
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) < 2 or any(d < 1 for d in self.dims):
            raise ValueError("dims must list at least input and output sizes, all positive")
        count = sum(din * dout + dout for din, dout in zip(self.dims[:-1], self.dims[1:]))
        if params is None:
            params = np.zeros(count, dtype=np.float64)
        else:
            params = np.asarray(params, dtype=np.float64)
            if params.shape != (count,):
                raise ValueError(f"expected {count} parameters, got {params.shape}")
        self.params = params

    @property
    def param_count(self) -> int:
        return self.params.size

    @classmethod
    def seeded(cls, dims, rng: np.random.Generator) -> "MlpModel":
        """He-scaled random weights, zero biases."""
        model = cls(dims)
        for weights, _ in model.layers():
            fan_in = weights.shape[0]
            weights[:] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=weights.shape)
        return model

    def layers(self):
        """Yield (weight_view, bias_view) per layer, input to output."""
        offset = 0
        for din, dout in zip(self.dims[:-1], self.dims[1:]):
            weights = self.params[offset:offset + din * dout].reshape(din, dout)
            offset += din * dout
            bias = self.params[offset:offset + dout]
            offset += dout
            yield weights, bias

    def copy(self) -> "MlpModel":
        return MlpModel(self.dims, self.params.copy())


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


def _forward_cached(model: MlpModel, features: np.ndarray):
    """Forward pass keeping every post-activation for backprop."""
    activations = [features]
    h = features
    layer_list = list(model.layers())
    for weights, bias in layer_list[:-1]:
        h = np.maximum(h @ weights + bias, 0.0)
        activations.append(h)
    weights, bias = layer_list[-1]
    probs = _softmax(h @ weights + bias)
    return activations, probs


def forward(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per example, each row summing to 1."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.dims[0]:
        raise ValueError(f"features must be (n, {model.dims[0]})")
    _, probs = _forward_cached(model, features)
    return probs


def predict(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    return np.argmax(forward(model, features), axis=1)


def loss(model: MlpModel, batch: Dataset) -> float:
    """Mean cross-entropy of the batch (the quantity backward differentiates)."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    _, probs = _forward_cached(model, batch.features)
    logp = np.log(np.clip(probs[np.arange(len(batch)), batch.labels], 1e-300, None))
    return float(-logp.mean())


def _backprop_deltas(model: MlpModel, activations, output_delta):
    """Shared backprop walk. output_delta is (n, out_dim); returns per-layer
    (input_activation, delta) pairs ordered input to output."""
    layer_list = list(model.layers())
    deltas = [None] * len(layer_list)
    deltas[-1] = output_delta
    for li in range(len(layer_list) - 1, 0, -1):
        weights, _ = layer_list[li]
        upstream = deltas[li] @ weights.T
        upstream[activations[li] <= 0.0] = 0.0
        deltas[li - 1] = upstream
    return [(activations[li], deltas[li]) for li in range(len(layer_list))]


def backward(model: MlpModel, batch: Dataset) -> np.ndarray:
    """Mean cross-entropy gradient over the batch, flattened in the fixed
    parameter order (weights before biases, layer by layer)."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    activations, probs = _forward_cached(model, batch.features)
    delta = probs.copy()
    delta[np.arange(len(batch)), batch.labels] -= 1.0
    delta /= len(batch)
    grad = np.empty(model.param_count, dtype=np.float64)
    offset = 0
    for inp, d in _backprop_deltas(model, activations, delta):
        dw = inp.T @ d
        grad[offset:offset + dw.size] = dw.ravel()
        offset += dw.size
        db = d.sum(axis=0)
        grad[offset:offset + db.size] = db
        offset += db.size
    return grad


def clipped_mean_gradient(model: MlpModel, batch: Dataset, clip_norm: float) -> np.ndarray:
    """Mean over the batch of single-example gradients, each first rescaled
    to g / max(1, ||g|| / clip_norm), without materialising them.

    A dense layer's single-example gradient is the outer product a d^T of
    its input and delta plus the bias gradient d, so its squared norm is
    (||a||^2 + 1) * ||d||^2 ("ghost norm"). The per-example norms come from
    the activations and deltas backprop already holds, and each layer's
    clipped mean is one reweighted a^T (d * f). Equal, up to rounding, to
    clipping the rows of per_example_gradients() and averaging them.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    n = len(batch)
    activations, probs = _forward_cached(model, batch.features)
    delta = probs.copy()
    delta[np.arange(n), batch.labels] -= 1.0
    pairs = _backprop_deltas(model, activations, delta)
    sq_norms = np.zeros(n, dtype=np.float64)
    for inp, d in pairs:
        sq_norms += (np.einsum("ni,ni->n", inp, inp) + 1.0) * np.einsum("nj,nj->n", d, d)
    factors = np.minimum(1.0, clip_norm / np.maximum(np.sqrt(sq_norms), 1e-300)) / n
    grad = np.empty(model.param_count, dtype=np.float64)
    offset = 0
    for inp, d in pairs:
        scaled = d * factors[:, None]
        dw = inp.T @ scaled
        grad[offset:offset + dw.size] = dw.ravel()
        offset += dw.size
        db = scaled.sum(axis=0)
        grad[offset:offset + db.size] = db
        offset += db.size
    return grad


def per_example_gradients(model: MlpModel, batch: Dataset) -> np.ndarray:
    """(n, param_count) matrix whose rows are single-example loss gradients.

    Row mean equals backward() on the same batch.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    n = len(batch)
    activations, probs = _forward_cached(model, batch.features)
    delta = probs.copy()
    delta[np.arange(n), batch.labels] -= 1.0
    grads = np.empty((n, model.param_count), dtype=np.float64)
    offset = 0
    for inp, d in _backprop_deltas(model, activations, delta):
        dw = np.einsum("ni,nj->nij", inp, d)
        size = dw.shape[1] * dw.shape[2]
        grads[:, offset:offset + size] = dw.reshape(n, size)
        offset += size
        grads[:, offset:offset + d.shape[1]] = d
        offset += d.shape[1]
    return grads


def sgd_step(model: MlpModel, gradient: np.ndarray, learning_rate: float) -> MlpModel:
    """In-place step w <- w - lr * g. Returns the same model."""
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != model.params.shape:
        raise ValueError("gradient length must equal the parameter count")
    model.params -= learning_rate * gradient
    return model


def decayed_lr(lr0: float, decay: float, step: int) -> float:
    """Inverse-time decay: lr_t = lr0 / (1 + decay * t), t counted from 0."""
    return lr0 / (1.0 + decay * step)


def train_sgd(model: MlpModel, data: Dataset, epochs: int, lr0: float, decay: float,
              batch_size: int, rng: np.random.Generator, step_offset: int = 0) -> int:
    """Plain mini-batch SGD over shuffled epochs. Returns steps performed,
    so callers can keep the decay clock running across calls."""
    steps = 0
    for _ in range(epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), batch_size):
            batch = data.subset(order[start:start + batch_size])
            grad = backward(model, batch)
            sgd_step(model, grad, decayed_lr(lr0, decay, step_offset + steps))
            steps += 1
    return steps


@dataclass(frozen=True)
class SparseUpdate:
    """A sparse selection of (parameter index, value) pairs.

    Indices are unique, strictly increasing and below param_count.
    """

    indices: np.ndarray
    values: np.ndarray
    param_count: int

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise ValueError("indices and values must be equal-length vectors")
        if len(self.indices):
            if self.indices[0] < 0 or self.indices[-1] >= self.param_count:
                raise ValueError("index out of range")
            if np.any(np.diff(self.indices) <= 0):
                raise ValueError("indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.indices)

    def negated(self) -> "SparseUpdate":
        return SparseUpdate(self.indices, -self.values, self.param_count)

    def to_bytes(self) -> bytes:
        header = struct.pack(">II", self.param_count, len(self.indices))
        return header + self.indices.astype(">i8").tobytes() + self.values.astype(">f8").tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SparseUpdate":
        if len(blob) < 8:
            raise ValueError("truncated sparse update blob")
        param_count, n = struct.unpack(">II", blob[:8])
        need = 8 + 16 * n
        if len(blob) != need:
            raise ValueError("sparse update blob has wrong length")
        indices = np.frombuffer(blob[8:8 + 8 * n], dtype=">i8").astype(np.int64)
        values = np.frombuffer(blob[8 + 8 * n:], dtype=">f8").astype(np.float64)
        return cls(indices, values, param_count)


def magnitude_order(gradient: np.ndarray) -> np.ndarray:
    """Indices by decreasing absolute value; ties go to the lower index.

    Every top-k selection of the gradient is a prefix of this ranking.
    """
    return np.argsort(-np.abs(gradient), kind="stable")


def select_largest(gradient: np.ndarray, k: int,
                   order: np.ndarray | None = None) -> SparseUpdate:
    """Top-k entries by absolute value; ties go to the lower index.

    order is magnitude_order(gradient), for a caller that takes several
    selections of one gradient and ranks it once.
    """
    gradient = np.asarray(gradient, dtype=np.float64)
    if k > gradient.size:
        raise ValueError(f"k={k} exceeds gradient length {gradient.size}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if order is None:
        order = magnitude_order(gradient)
    chosen = np.sort(order[:k])
    return SparseUpdate(chosen, gradient[chosen], gradient.size)


def apply_updates(model: MlpModel, updates) -> MlpModel:
    """Add every (index, value) pair into the flat parameter vector.

    Overlapping indices accumulate. Accumulation runs in (index, value)
    order so any permutation of the update list gives bitwise-equal
    parameters.
    """
    updates = list(updates)
    if not updates:
        return model
    for u in updates:
        if u.param_count != model.param_count:
            raise ValueError("update sized for a different model")
    idx = np.concatenate([u.indices for u in updates])
    vals = np.concatenate([u.values for u in updates])
    order = np.lexsort((vals, idx))
    np.add.at(model.params, idx[order], vals[order])
    return model


def evaluate(model: MlpModel, data: Dataset) -> float:
    """Fraction of argmax-correct predictions."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    return float(np.mean(predict(model, data.features) == data.labels))


# ---------------------------------------------------------------------------
# Dataset construction and loading
# ---------------------------------------------------------------------------

def make_blobs(n_examples: int, num_classes: int, dim: int, rng: np.random.Generator,
               spread: float = 0.15, center_range: tuple[float, float] = (0.25, 0.75),
               centers: np.ndarray | None = None) -> Dataset:
    """Gaussian blob classification data with features clipped to [0, 1].

    Pass explicit centers to draw several datasets from the same class
    geometry (train pools, test sets, per-party shards).
    """
    if centers is None:
        centers = rng.uniform(center_range[0], center_range[1], size=(num_classes, dim))
    labels = rng.integers(0, num_classes, size=n_examples)
    features = centers[labels] + rng.normal(0.0, spread, size=(n_examples, dim))
    return Dataset(np.clip(features, 0.0, 1.0), labels, num_classes)


def blob_centers(num_classes: int, dim: int, rng: np.random.Generator,
                 center_range: tuple[float, float] = (0.25, 0.75)) -> np.ndarray:
    return rng.uniform(center_range[0], center_range[1], size=(num_classes, dim))


def load_csv(path, num_classes: int | None = None) -> Dataset:
    """CSV with a header row; last column is the integer class label."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("CSV file is empty")
        for row in reader:
            if not row:
                continue
            rows.append([float(v) for v in row])
    if not rows:
        raise ValueError("CSV file has no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    labels = arr[:, -1].astype(np.int64)
    if np.any(arr[:, -1] != labels):
        raise ValueError("label column must hold integers")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return Dataset(arr[:, :-1], labels, num_classes)


def load_idx(images_path, labels_path) -> Dataset:
    """Big-endian IDX image/label pair; pixels scaled into [0, 1]."""
    with open(images_path, "rb") as fh:
        blob = fh.read()
    magic, n, rows, cols = struct.unpack(">IIII", blob[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise ValueError(f"bad image magic 0x{magic:08x}")
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=16)
    if pixels.size != n * rows * cols:
        raise ValueError("image payload size mismatch")
    features = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0

    with open(labels_path, "rb") as fh:
        blob = fh.read()
    magic, n_labels = struct.unpack(">II", blob[:8])
    if magic != IDX_LABEL_MAGIC:
        raise ValueError(f"bad label magic 0x{magic:08x}")
    labels = np.frombuffer(blob, dtype=np.uint8, offset=8).astype(np.int64)
    if labels.size != n_labels or n_labels != n:
        raise ValueError("label count mismatch")
    return Dataset(features, labels, int(labels.max()) + 1 if labels.size else 1)
