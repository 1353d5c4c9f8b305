"""Dense numerics shared by every learning framework in the simulator.

Holds the dataset containers and loaders, a small MLP with hand-coded
gradients (ReLU hidden layers, softmax output, mean cross-entropy loss),
plain SGD with inverse-time learning-rate decay, and the sparse top-k
update machinery used for selective gradient exchange.

Every gradient comes from one kernel, _gradient, with or without a
leading stack axis of k models; train_sgd uses the stack to train
equal-size parties side by side, to the bits each would reach alone.

Parameter flattening order is fixed and relied on by sparse updates that
cross party boundaries: layer by layer from input to output, weight
matrix first (row-major, shape in_dim x out_dim), then its bias vector.
_layout sets that order; every model view and flat gradient reads it.

FLOAT (float32) is the one floating dtype of the simulator's arrays:
features, parameters, activations, one-hot targets, gradients and sold
values. Random draws stay float64 and are rounded once where they enter
an array, so every rng stream is the same whatever the dtype. Kernels
compute in the dtype of the parameters they are given, so a model built
from float64 parameters runs the same code in float64; the tests use it
as their reference.

Every MlpModel owns its parameter vector, and the vector's first byte
starts a 64-byte cache line (_line_aligned); numpy alone aligns it to 16
bytes. With two OpenBLAS threads on a 2-core host, 150 steps of
784-128-10 pretraining at batch 32 took 61-63 ms with the parameters at
byte 16, 32 or 48 of a line and 43-46 ms at byte 0, mostly in the
in-place update, to the same bits. The offsets of the gradient and batch
buffers changed nothing, so those stay where numpy puts them.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

FLOAT = np.dtype(np.float32)
IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Feature matrix plus integer class labels.

    features: (n, dim) FLOAT array, finite values.
    labels:   (n,) integer array with every value in [0, num_classes).
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=FLOAT)
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


def _line_aligned(count: int, dtype) -> np.ndarray:
    """An uninitialised (count,) vector of dtype whose first byte starts
    a 64-byte cache line: a view into count * itemsize + 64 bytes, from
    their first line boundary on."""
    nbytes = count * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype)


def _layout(dims):
    """Per layer, input to output: (weight slice, weight shape, bias slice)
    of the flat parameter vector. The one place that sets the flattening
    order."""
    layout, offset = [], 0
    for din, dout in zip(dims[:-1], dims[1:]):
        weights = slice(offset, offset + din * dout)
        offset += din * dout
        layout.append((weights, (din, dout), slice(offset, offset + dout)))
        offset += dout
    return tuple(layout)


def _views(flat: np.ndarray, layout):
    """(weights, bias) views of flat per layer, input to output, in the
    order layout sets: (in, out) and (out,) of one model's (P,) vector,
    or (k, in, out) and (k, out) of a (k, P) stack of k of them."""
    lead = flat.shape[:-1]
    return tuple((flat[..., w].reshape(lead + shape), flat[..., b]) for w, shape, b in layout)


class MlpModel:
    """Fully connected network with ReLU hidden layers and softmax output.

    All parameters live in one flat vector; per-layer weight and bias
    arrays are views into it, built once, so flat-vector operations (SGD
    steps, sparse updates) and layer-wise ones (forward, backward) stay in
    sync. params is therefore only ever updated in place. It is FLOAT
    unless given as float64 parameters, which are kept in float64: the
    float64 reference model of the tests. The given values are always
    copied into a vector of the model's own that starts on a cache line
    (see the module docstring), so no model shares its caller's array.
    """

    def __init__(self, dims, params: np.ndarray | None = None):
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) < 2 or any(d < 1 for d in self.dims):
            raise ValueError("dims must list at least input and output sizes, all positive")
        self._layout = _layout(self.dims)
        count = self._layout[-1][2].stop
        dtype = FLOAT
        if params is not None:
            params = np.asarray(params)
            if params.shape != (count,):
                raise ValueError(f"expected {count} parameters, got {params.shape}")
            dtype = params.dtype if params.dtype == np.float64 else FLOAT
        self.params = _line_aligned(count, dtype)
        self.params[:] = 0.0 if params is None else params
        self._layers = _views(self.params, self._layout)

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
        """Iterate (weight_view, bias_view) per layer, input to output."""
        return iter(self._layers)

    def copy(self) -> "MlpModel":
        return MlpModel(self.dims, self.params)

    def __deepcopy__(self, memo):
        # The model copies its params itself; deep-copying them first, as
        # __reduce__ would, allocates the vector twice.
        return self.copy()

    def __reduce__(self):
        # Copies and pickles rebuild the layer views on the new params; a
        # field-by-field copy would cut them loose.
        return MlpModel, (self.dims, self.params)


def _stacked(params: np.ndarray, layout):
    """(weights, bias) per layer of the (k, P) stack params, biases shaped
    (k, 1, out) so that each model's bias broadcasts over its own rows."""
    return tuple((weights, bias[:, None]) for weights, bias in _views(params, layout))


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place; returns logits."""
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits


def _forward(layers, features: np.ndarray, hidden: list | None = None) -> np.ndarray:
    """Logits of the MLP with these (weights, bias) layers, input to
    output, one row per row of features. Every hidden ReLU output is
    appended to hidden when one is given, for backprop. (k, in, out)
    weights with (k, 1, out) biases and (k, n, in) features run a stack
    of k models, each on its own rows."""
    h = features
    for weights, bias in layers[:-1]:
        h = np.matmul(h, weights)
        h += bias
        np.maximum(h, 0.0, out=h)
        if hidden is not None:
            hidden.append(h)
    weights, bias = layers[-1]
    logits = np.matmul(h, weights)
    logits += bias
    return logits


def _gradient(layers, features: np.ndarray, targets: np.ndarray, slots,
              clip_norm: float | None = None) -> None:
    """The one gradient kernel: forward, softmax, output delta and
    backprop of a batch, in place, writing each layer's input^T delta and
    delta column sums into slots, the _views of a flat gradient. targets
    holds the one-hot labels. With a leading stack axis, (k, n,
    in) features and (k, n, classes) targets run the k models of
    _stacked(params) into a (k, P) gradient, each slice the same matrix
    products, so each row has the bits its model would get alone.

    With clip_norm (one model only), each single-example gradient is
    first rescaled to g / max(1, ||g|| / clip_norm), without
    materialising it. A dense layer's single-example gradient is the
    outer product a d^T of its input and delta plus the bias gradient d,
    so its squared norm is (||a||^2 + 1) * ||d||^2 ("ghost norm"); each
    layer's clipped mean is then one reweighted a^T (d * f). The norms
    and factors are float64, and the factors aim at clip_norm less
    _clip_margin of the parameters' dtype, so that each rescaled
    gradient, rounded into that dtype, still measures at most clip_norm.
    """
    inputs = [features]
    delta = _softmax(_forward(layers, features, inputs))
    delta -= targets
    rows = delta.shape[-2]
    if clip_norm is None:
        delta /= rows
    deltas = [delta]
    for li in range(len(layers) - 1, 0, -1):
        delta = np.matmul(delta, layers[li][0].swapaxes(-1, -2))
        np.putmask(delta, inputs[li] <= 0.0, 0.0)
        deltas.append(delta)
    deltas.reverse()
    if clip_norm is not None:
        factors = np.zeros(rows)
        for inp, d in zip(inputs, deltas):
            sq_norm = np.einsum("ni,ni->n", inp, inp, dtype=np.float64)
            sq_norm += 1.0
            sq_norm *= np.einsum("nj,nj->n", d, d, dtype=np.float64)
            factors += sq_norm
        np.sqrt(factors, out=factors)
        # target / max(||g||, target) is min(1, target / ||g||), and 1.0
        # exactly for a zero gradient.
        target = clip_norm * (1.0 - _clip_margin(layers[0][0].dtype))
        np.maximum(factors, target, out=factors)
        np.divide(target, factors, out=factors)
        factors /= rows
        for d in deltas:
            d *= factors[:, None]
    for inp, d, (weights, bias) in zip(inputs, deltas, slots):
        np.matmul(inp.swapaxes(-1, -2), d, out=weights)
        np.add.reduce(d, axis=-2, out=bias)


def _clip_margin(dtype) -> float:
    """The share of the clip norm that _gradient keeps free for rounding:
    4 epsilons of the parameters' dtype, 8 roundings of half an epsilon.
    Two go to each clipped entry (d * f, then a * (d * f)), one to the
    clip norm rounded into the dtype, and five to measuring the norm in
    the dtype (squares, sums, square root). Without a margin, float32
    single-example gradients of the 784-128-10 model measured up to 1.2
    epsilons above clip_norm; with 2 epsilons, none of 8,200 across four
    shapes did."""
    return 4.0 * float(np.finfo(dtype).eps)


def _one_hot(labels: np.ndarray, num_classes: int, dtype) -> np.ndarray:
    """One-hot rows of labels in dtype, along a new last axis; a label
    beyond num_classes raises IndexError."""
    return np.eye(num_classes, dtype=dtype).take(labels, axis=0)


def _logits(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Output-layer logits of model, one row per row of features."""
    features = np.asarray(features, dtype=model.params.dtype)
    if features.ndim != 2 or features.shape[1] != model.dims[0]:
        raise ValueError(f"features must be (n, {model.dims[0]})")
    return _forward(model._layers, features)


def forward(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per example, each row summing to 1."""
    return _softmax(_logits(model, features))


def predict(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Argmax class per row, taken on the logits, so no probabilities are
    computed. Ties and rows holding a NaN or an infinity follow np.argmax
    on the logits: a tie goes to the lowest class index."""
    return np.argmax(_logits(model, features), axis=1)


# A batch is a row selection of a validated Dataset: features (n, dim)
# FLOAT and labels (n,) int64, passed as two arrays so that training
# loops index rows without building and re-checking a Dataset per step.

def loss(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of the batch (the quantity backward differentiates)."""
    if len(labels) == 0:
        raise ValueError("empty batch")
    probs = _softmax(_forward(model._layers, features))
    tiny = np.finfo(probs.dtype).tiny
    logp = np.log(np.maximum(probs[np.arange(len(labels)), labels], tiny))
    return float(-logp.mean())


def backward(model: MlpModel, features: np.ndarray, labels: np.ndarray,
             clip_norm: float | None = None) -> np.ndarray:
    """Mean cross-entropy gradient over a nonempty batch, flattened in the
    fixed parameter order (weights before biases, layer by layer), in a
    new vector.

    With clip_norm, the mean over the batch of single-example gradients,
    each first rescaled to g / max(1, ||g|| / clip_norm), without
    materialising them (ghost norms, see _gradient). Equal, up to
    rounding, to clipping the rows of per_example_gradients() and
    averaging them."""
    if len(labels) == 0:
        raise ValueError("empty batch")
    grad = np.empty_like(model.params)
    _gradient(model._layers, features, _one_hot(labels, model.dims[-1], grad.dtype),
              _views(grad, model._layout), clip_norm)
    return grad


def per_example_gradients(model: MlpModel, features: np.ndarray,
                          labels: np.ndarray) -> np.ndarray:
    """(n, param_count) matrix whose rows are single-example loss gradients:
    the kernel run on the batch as a stack of n batches of one row, each
    against the same model. Row mean equals backward() on the same batch.
    """
    n = len(labels)
    if n == 0:
        raise ValueError("empty batch")
    grads = np.empty((n, model.param_count), dtype=model.params.dtype)
    _gradient(model._layers, np.asarray(features, dtype=grads.dtype)[:, None, :],
              _one_hot(labels, model.dims[-1], grads.dtype)[:, None, :],
              _views(grads, model._layout))
    return grads


def sgd_step(model: MlpModel, gradient: np.ndarray, learning_rate: float) -> MlpModel:
    """In-place step w <- w - lr * g. Returns the same model.

    The caller hands the gradient over: a gradient of the parameters'
    dtype is scaled by lr, taken in that dtype, in place, so it holds
    lr * g afterwards. No model-sized temporary is allocated."""
    gradient = np.asarray(gradient, dtype=model.params.dtype)
    if gradient.shape != model.params.shape:
        raise ValueError("gradient length must equal the parameter count")
    gradient *= learning_rate
    model.params -= gradient
    return model


def decayed_lr(lr0: float, decay: float, step: int) -> float:
    """Inverse-time decay: lr_t = lr0 / (1 + decay * t), t counted from 0."""
    return lr0 / (1.0 + decay * step)


def train_sgd(model, data, epochs: int, lr0: float, decay: float, batch_size: int,
              rng, step_offset=0) -> int:
    """Plain mini-batch SGD over shuffled epochs. Returns steps performed,
    so callers can keep the decay clock running across calls.

    model, data, rng and step_offset are one model's, or lists of k each:
    k models of one shape on datasets of one size, trained side by side as
    a (k, P) stack (one model runs on 2-D arrays). Each draws its epoch
    permutations from its own rng and steps on its own clock, so it ends
    with the bits it would get alone. Steps reuse one gradient buffer.
    """
    if isinstance(model, MlpModel):
        model, data, rng, step_offset = [model], [data], [rng], [step_offset]
    size, dims = len(data[0]), model[0].dims
    if not len(model) == len(data) == len(rng) == len(step_offset):
        raise ValueError("one dataset, rng and step offset per model")
    if any(m.dims != dims for m in model) or any(len(d) != size for d in data):
        raise ValueError("models side by side need one shape and equal-size datasets")
    stacked = len(model) > 1
    if stacked:
        params = np.stack([m.params for m in model])
        layers = _stacked(params, model[0]._layout)
        # Model i's rows start at row i * size.
        features = np.concatenate([d.features for d in data])
        labels = np.concatenate([d.labels for d in data])
    else:
        # One model as a (1, P) stack gives the same bits and saves one
        # line, but single 32-d calls ran 6% slower (in 249 and 272 of 300
        # pairs; a tie at 784-d), so one model keeps its 2-D arrays.
        params, layers = model[0].params, model[0]._layers
        features, labels = data[0].features, data[0].labels
    targets = _one_hot(labels, dims[-1], params.dtype)
    first_rows = size * np.arange(len(model))[:, None]
    grad = np.empty_like(params)
    slots = _views(grad, model[0]._layout)
    steps = 0
    for _ in range(epochs):
        orders = np.array([r.permutation(size) for r in rng]) + first_rows
        for start in range(0, size, batch_size):
            # Gathered batch by batch: a whole shuffled epoch would raise
            # the peak memory of 784-d pretraining.
            rows = orders[:, start:start + batch_size]
            rows = rows if stacked else rows[0]
            _gradient(layers, features.take(rows, axis=0), targets.take(rows, axis=0), slots)
            # Rates in the parameters' dtype, as a Python float meets a
            # 2-D array, so a stack keeps each model's bits.
            rates = [decayed_lr(lr0, decay, offset + steps) for offset in step_offset]
            grad *= np.array(rates, dtype=grad.dtype)[:, None] if stacked else rates[0]
            params -= grad
            steps += 1
    if stacked:
        for m, row in zip(model, params):
            m.params[:] = row
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
        object.__setattr__(self, "values", np.asarray(self.values, dtype=FLOAT))
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise ValueError("indices and values must be equal-length vectors")
        if len(self.indices):
            if self.indices[0] < 0 or self.indices[-1] >= self.param_count:
                raise ValueError("index out of range")
            if not (self.indices[1:] > self.indices[:-1]).all():
                raise ValueError("indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.indices)

    def to_bytes(self) -> bytes:
        """Header >u4 param_count, >u4 n; then the n indices, each in
        the narrowest big-endian unsigned type that holds every index
        below param_count (>u2 up to 65,536 parameters, >u4 above); then
        the n values as >f4. 8 + 6n bytes at desk scale, 8 + 8n at
        paper scale."""
        header = struct.pack(">II", self.param_count, len(self.indices))
        indices = self.indices.astype(_index_type(self.param_count))
        return header + indices.tobytes() + self.values.astype(">f4").tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SparseUpdate":
        if len(blob) < 8:
            raise ValueError("truncated sparse update blob")
        param_count, n = struct.unpack(">II", blob[:8])
        index_type = _index_type(param_count)
        split = 8 + index_type.itemsize * n
        if len(blob) != split + 4 * n:
            raise ValueError("sparse update blob has wrong length")
        indices = np.frombuffer(blob[8:split], dtype=index_type).astype(np.int64)
        values = np.frombuffer(blob[split:], dtype=">f4").astype(FLOAT)
        if not np.isfinite(values).all():
            raise ValueError("sparse update value is not finite")
        return cls(indices, values, param_count)


def _index_type(param_count: int) -> np.dtype:
    """The wire type of a payload's indices: every index is below
    param_count, which the >u4 header bounds."""
    return np.dtype(">u2" if param_count <= 1 << 16 else ">u4")


def magnitude_order(gradient: np.ndarray, k: int) -> np.ndarray:
    """The first k indices by decreasing absolute value; ties go to the
    lower index and NaN entries rank last.

    Equal to np.argsort(-np.abs(gradient), kind="stable")[:k], so every
    top-j selection with j <= k is a prefix of it. Only k entries are
    sorted: a partition finds the (k + 1)-th largest magnitude, every
    entry above it is kept, the entries equal to it fill the remaining
    slots in index order, and the k chosen are stably sorted.
    """
    keys = -np.abs(gradient)
    if not 0 <= k <= keys.size:
        raise ValueError(f"k={k} outside [0, {keys.size}]")
    # NaN sorts last in argsort but would break the threshold comparisons;
    # +inf ranks below every -|g| and ties among NaN keep index order.
    keys[np.isnan(keys)] = np.inf
    if k == keys.size:
        return np.argsort(keys, kind="stable")
    # At most k keys lie below the (k + 1)-th smallest, so all of them
    # rank in the first k.
    threshold = np.partition(keys, k)[k]
    above = np.flatnonzero(keys < threshold)
    ties = np.flatnonzero(keys == threshold)[:k - above.size]
    chosen = np.concatenate([above, ties])
    return chosen[np.argsort(keys[chosen], kind="stable")]


@dataclass(frozen=True)
class RankedPrefix:
    """The m largest-magnitude entries of a gradient, in rank order.

    order is magnitude_order(gradient, m) and values is gradient[order],
    both taken on the gradient rounded to FLOAT, the values sold.
    Every top-k selection with k <= m is a prefix of it, so whoever keeps
    this in place of the dense gradient can still serve each of them.
    """

    order: np.ndarray
    values: np.ndarray
    param_count: int

    @classmethod
    def of(cls, gradient: np.ndarray, m: int) -> "RankedPrefix":
        gradient = np.asarray(gradient, dtype=FLOAT)
        order = magnitude_order(gradient, m)
        return cls(order, gradient[order], gradient.size)


def select_largest(ranking: RankedPrefix, k: int) -> SparseUpdate:
    """Top-k entries of a gradient by absolute value, from its ranking to
    some m >= k (RankedPrefix.of(gradient, m)); ties go to the lower index
    and NaN entries rank last. The selection is the first k entries of the
    ranking, put in index order, so one ranking serves every k up to m.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > len(ranking.order):
        raise ValueError(f"k={k} exceeds the {len(ranking.order)} ranked entries")
    by_index = np.argsort(ranking.order[:k])
    return SparseUpdate(ranking.order[:k][by_index], ranking.values[:k][by_index],
                        ranking.param_count)


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
    # One int64 key idx * total + (rank of the value) sorts by index, then
    # by value. Values that compare equal add to the same bits in any order
    # (0.0 and -0.0 included), so an unstable value sort is enough. Each
    # update holds unique indices, so total <= len(updates) * param_count
    # and every key is below param_count * total. A buyer among n parties
    # applies at most n - 1 updates, so its keys fit in int64 while
    # param_count² · (n − 1) < 2⁶³.
    total = len(vals)
    rank = np.empty(total, dtype=np.int64)
    rank[np.argsort(vals)] = np.arange(total)
    order = np.argsort(idx * total + rank)
    np.add.at(model.params, idx[order], vals[order])
    return model


def evaluate(model: MlpModel, data: Dataset) -> float:
    """Fraction of argmax-correct predictions."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    return np.count_nonzero(predict(model, data.features) == data.labels) / len(data)


# ---------------------------------------------------------------------------
# Dataset construction and loading
# ---------------------------------------------------------------------------

def make_blobs(n_examples: int, num_classes: int, dim: int, rng: np.random.Generator,
               spread: float = 0.15, centers: np.ndarray | None = None) -> Dataset:
    """Gaussian blob classification data with features clipped to [0, 1].

    Pass explicit centers to draw several datasets from the same class
    geometry (train pools, test sets, per-party shards).
    """
    if centers is None:
        centers = blob_centers(num_classes, dim, rng)
    labels = rng.integers(0, num_classes, size=n_examples)
    features = rng.normal(0.0, spread, size=(n_examples, dim))
    features += centers[labels]
    return Dataset(np.clip(features, 0.0, 1.0, out=features), labels, num_classes)


def blob_centers(num_classes: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Class centres drawn uniformly from [0.25, 0.75] in every feature."""
    return rng.uniform(0.25, 0.75, size=(num_classes, dim))


def load_csv(path, num_classes: int) -> Dataset:
    """CSV with a header row; last column is the integer class label, in
    [0, num_classes)."""
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
    return Dataset(arr[:, :-1], labels, num_classes)


def load_idx(images_path, labels_path, num_classes: int) -> Dataset:
    """Big-endian IDX image/label pair; pixels scaled into [0, 1], labels
    in [0, num_classes)."""
    with open(images_path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise ValueError(f"image file of {len(blob)} bytes ends inside its 16-byte header")
    magic, n, rows, cols = struct.unpack(">IIII", blob[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise ValueError(f"bad image magic 0x{magic:08x}")
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=16)
    if pixels.size != n * rows * cols:
        raise ValueError("image payload size mismatch")
    features = pixels.reshape(n, rows * cols).astype(FLOAT)
    features /= 255.0

    with open(labels_path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise ValueError(f"label file of {len(blob)} bytes ends inside its 8-byte header")
    magic, n_labels = struct.unpack(">II", blob[:8])
    if magic != IDX_LABEL_MAGIC:
        raise ValueError(f"bad label magic 0x{magic:08x}")
    labels = np.frombuffer(blob, dtype=np.uint8, offset=8).astype(np.int64)
    if labels.size != n_labels or n_labels != n:
        raise ValueError("label count mismatch")
    return Dataset(features, labels, num_classes)
