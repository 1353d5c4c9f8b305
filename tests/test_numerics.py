import copy
import math
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircollab.numerics import (FLOAT, Dataset, MlpModel, RankedPrefix, SparseUpdate,
                                 _gradient, _layout, _one_hot, _views, apply_updates, backward,
                                 decayed_lr, evaluate, forward, load_csv, load_idx, loss,
                                 magnitude_order, make_blobs, per_example_gradients, predict,
                                 select_largest, sgd_step, train_sgd)

import oracles


def small_dataset(rng, n=8, dim=3, classes=3):
    return Dataset(rng.normal(size=(n, dim)), rng.integers(0, classes, n), classes)


def placed(values, offset):
    """A copy of the vector values whose first byte lies offset bytes past
    the start of a 64-byte cache line."""
    raw = np.empty(values.nbytes + 128, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    vector = raw[start:start + values.nbytes].view(values.dtype)
    vector[:] = values
    return vector


def finite_difference_gradient(model, batch, step=1e-5):
    """Central-difference oracle for the mean cross-entropy gradient."""
    grad = np.zeros(model.param_count)
    for k in range(model.param_count):
        saved = model.params[k]
        model.params[k] = saved + step
        up = loss(model, batch.features, batch.labels)
        model.params[k] = saved - step
        down = loss(model, batch.features, batch.labels)
        model.params[k] = saved
        grad[k] = (up - down) / (2 * step)
    return grad


class TestForward:
    def test_zero_weights_give_uniform_probabilities(self):
        model = MlpModel((4, 5, 3))
        probs = forward(model, np.ones((6, 4)))
        assert np.allclose(probs, 1.0 / 3.0)

    def test_hand_computed_two_layer(self):
        # Identity weights, so logits equal the input and softmax is exact.
        model = MlpModel((2, 2, 2))
        w1, _ = list(model.layers())[0]
        w2, _ = list(model.layers())[1]
        w1[:] = np.eye(2)
        w2[:] = np.eye(2)
        probs = forward(model, np.array([[1.0, 2.0]]))
        expected = np.array([1.0, math.e]) / (1.0 + math.e)
        assert np.allclose(probs[0], expected, atol=1e-12)

    def test_rows_sum_to_one_random_weights(self):
        rng = np.random.default_rng(0)
        model = MlpModel.seeded((5, 7, 4), rng)
        probs = forward(model, rng.normal(size=(11, 5)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["deepcopy", "pickle"])
    def test_copies_keep_layer_views_on_params(self, clone):
        model = MlpModel.seeded((3, 4, 2), np.random.default_rng(3))
        twin = clone(model)
        assert not np.shares_memory(twin.params, model.params)
        features = np.random.default_rng(4).normal(size=(5, 3))
        twin.params += 0.5
        expected = forward(MlpModel(model.dims, model.params + 0.5), features)
        assert np.array_equal(forward(twin, features), expected)

    def test_dimension_mismatch_rejected(self):
        model = MlpModel((3, 2))
        with pytest.raises(ValueError):
            forward(model, np.ones((2, 4)))


class TestBackward:
    def test_matches_finite_differences_six_params(self):
        rng = np.random.default_rng(1)
        model = oracles.float64_twin(MlpModel.seeded((2, 2), rng))  # 6 parameters
        batch = small_dataset(rng, n=5, dim=2, classes=2)
        analytic = backward(model, batch.features, batch.labels)
        numeric = finite_difference_gradient(model, batch)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_finite_differences_on_random_models(self):
        rng = np.random.default_rng(2)
        for case in range(6):
            # The last case has two hidden layers, so the flat layout spans three.
            dims = (3, int(rng.integers(2, 5)), 3) if case < 5 else (3, 4, 3, 3)
            model = oracles.float64_twin(MlpModel.seeded(dims, rng))
            batch = small_dataset(rng, n=6, dim=3, classes=3)
            analytic = backward(model, batch.features, batch.labels)
            numeric = finite_difference_gradient(model, batch)
            denom = np.maximum(np.abs(numeric), 1e-6)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_duplicated_batch_same_gradient(self):
        rng = np.random.default_rng(3)
        model = MlpModel.seeded((3, 4, 2), rng)
        batch = small_dataset(rng, n=4, dim=3, classes=2)
        doubled = Dataset(np.concatenate([batch.features] * 2),
                          np.concatenate([batch.labels] * 2), 2)
        assert np.allclose(backward(model, batch.features, batch.labels), backward(model, doubled.features, doubled.labels), atol=1e-12)

    def test_perfect_fit_has_tiny_gradient(self):
        # Huge separating logits make the softmax one-hot.
        model = MlpModel((1, 2))
        weights, _ = next(model.layers())
        weights[:] = np.array([[1000.0, -1000.0]])
        batch = Dataset(np.array([[1.0]]), np.array([0]), 2)
        assert np.linalg.norm(backward(model, batch.features, batch.labels)) < 1e-6

    def test_empty_batch_rejected(self):
        model = MlpModel((2, 2))
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError):
            backward(model, empty.features, empty.labels)

    def test_label_outside_the_model_classes_rejected(self):
        model = MlpModel((2, 3))
        data = Dataset(np.ones((2, 2)), np.array([0, 3]), 4)
        for gradient in (backward, per_example_gradients,
                         lambda m, x, y: backward(m, x, y, clip_norm=1.0)):
            with pytest.raises(IndexError):
                gradient(model, data.features, data.labels)
        with pytest.raises(IndexError):
            train_sgd(model, data, 1, 0.1, 0.0, 2, np.random.default_rng(0))

    def test_per_example_mean_equals_backward(self):
        rng = np.random.default_rng(4)
        model = MlpModel.seeded((3, 5, 3), rng)
        batch = small_dataset(rng, n=7, dim=3, classes=3)
        per = per_example_gradients(model, batch.features, batch.labels)
        assert per.shape == (7, model.param_count)
        assert np.allclose(per.mean(axis=0), backward(model, batch.features, batch.labels), atol=1e-12)


def clipped_mean_oracle(model, batch, clip_norm):
    """Materialised reference: clip each per-example row, then average."""
    grads = per_example_gradients(model, batch.features, batch.labels)
    norms = np.linalg.norm(grads, axis=1, keepdims=True)
    return (grads * np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))).mean(axis=0)


class TestClippedMeanGradient:
    @pytest.mark.parametrize("dims", [(3, 5, 3), (4, 6, 5, 3)])
    def test_matches_per_example_oracle_with_mixed_clipping(self, dims):
        rng = np.random.default_rng(11)
        model = oracles.float64_twin(MlpModel.seeded(dims, rng))
        batch = small_dataset(rng, n=9, dim=dims[0], classes=dims[-1])
        norms = np.linalg.norm(per_example_gradients(model, batch.features, batch.labels), axis=1)
        clip = float(np.median(norms))
        assert np.any(norms > clip) and np.any(norms < clip)
        assert np.allclose(backward(model, batch.features, batch.labels, clip_norm=clip),
                           clipped_mean_oracle(model, batch, clip), atol=1e-12)

    @pytest.mark.parametrize("dims", [(3, 5, 3), (4, 6, 5, 3)])
    def test_nothing_clips_at_large_bound(self, dims):
        rng = np.random.default_rng(12)
        model = oracles.float64_twin(MlpModel.seeded(dims, rng))
        batch = small_dataset(rng, n=6, dim=dims[0], classes=dims[-1])
        out = backward(model, batch.features, batch.labels, clip_norm=100.0)
        assert np.allclose(out, clipped_mean_oracle(model, batch, 100.0), atol=1e-12)
        assert np.allclose(out, backward(model, batch.features, batch.labels), atol=1e-12)

    def test_zero_gradient_row(self):
        # Row 0 sits on a saturated softmax of its true class, so its
        # gradient is exactly zero; the other rows still count in the mean.
        model = oracles.float64_twin(MlpModel.seeded((2, 4, 3), np.random.default_rng(13)))
        model.params[-3:] = [0.0, 0.0, 1000.0]
        batch = Dataset(np.array([[0.2, 0.9], [0.5, 0.1], [0.7, 0.4]]),
                        np.array([2, 0, 1]), 3)
        assert np.all(per_example_gradients(model, batch.features, batch.labels)[0] == 0.0)
        assert np.allclose(backward(model, batch.features, batch.labels, clip_norm=0.5),
                           clipped_mean_oracle(model, batch, 0.5), atol=1e-12)

    def test_empty_batch_rejected(self):
        model = MlpModel((2, 2))
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError):
            backward(model, empty.features, empty.labels, clip_norm=1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), clip=st.floats(1e-3, 10.0),
           scale=st.floats(0.01, 100.0))
    def test_single_example_norm_bounded(self, seed, clip, scale):
        rng = np.random.default_rng(seed)
        model = MlpModel.seeded((4, 5, 3), rng)
        batch = Dataset(rng.normal(size=(1, 4)) * scale, rng.integers(0, 3, 1), 3)
        assert np.linalg.norm(backward(model, batch.features, batch.labels, clip_norm=clip)) <= clip * (1 + 1e-9)


class TestSgdStep:
    def test_zero_learning_rate_is_identity(self):
        model = MlpModel((2, 2))
        model.params[:] = 1.0
        before = model.params.copy()
        sgd_step(model, np.ones(model.param_count), 0.0)
        assert np.array_equal(model.params, before)

    def test_direct_arithmetic(self):
        model = MlpModel((1, 1))  # 2 parameters
        model.params[:] = [1.0, 1.0]
        sgd_step(model, np.array([1.0, 2.0]), 0.1)
        assert np.allclose(model.params, [0.9, 0.8], atol=1e-15)

    def test_step_consumes_its_gradient(self):
        # The caller hands the gradient over; it ends scaled by lr in place.
        model = MlpModel((1, 1))
        model.params[:] = [1.0, 1.0]
        grad = np.array([1.0, 2.0], dtype=np.float32)
        sgd_step(model, grad, 0.5)
        assert np.array_equal(grad, [0.5, 1.0])
        assert np.array_equal(model.params, [0.5, 0.0])

    def test_decay_schedule(self):
        assert decayed_lr(0.1, 1e-7, 0) == 0.1
        assert decayed_lr(0.1, 1e-7, 1) == pytest.approx(0.1 / (1 + 1e-7), rel=1e-15)

    def test_train_sgd_reduces_loss_on_blobs(self):
        rng = np.random.default_rng(5)
        data = make_blobs(60, 3, 4, rng, spread=0.05)
        model = MlpModel.seeded((4, 8, 3), rng)
        before = loss(model, data.features, data.labels)
        train_sgd(model, data, epochs=10, lr0=0.1, decay=1e-7, batch_size=16, rng=rng)
        assert loss(model, data.features, data.labels) < before

    def test_train_sgd_equals_loop_over_subset_batches(self):
        # Reference: the same schedule with each batch built as a Dataset.
        rng = np.random.default_rng(6)
        data = make_blobs(50, 3, 4, rng, spread=0.1)
        model = MlpModel.seeded((4, 8, 3), rng)
        reference = model.copy()
        steps = train_sgd(model, data, 2, 0.1, 1e-3, 16, np.random.default_rng(7), 5)
        ref_rng, ref_steps = np.random.default_rng(7), 0
        for _ in range(2):
            order = ref_rng.permutation(len(data))
            for start in range(0, len(data), 16):
                batch = data.subset(order[start:start + 16])
                sgd_step(reference, backward(reference, batch.features, batch.labels),
                         decayed_lr(0.1, 1e-3, 5 + ref_steps))
                ref_steps += 1
        assert steps == ref_steps == 8
        assert np.array_equal(model.params, reference.params)


class TestParameterPlacement:
    """Every model owns a parameter vector that starts on a 64-byte cache
    line, whatever it was made from; the placement moves no bits."""

    @staticmethod
    def assert_owns_aligned(model, given=None):
        assert model.params.ctypes.data % 64 == 0
        assert model.params.flags.writeable
        if given is not None:
            assert not np.shares_memory(model.params, given)
            assert model.params.tobytes() == np.asarray(given, model.params.dtype).tobytes()

    def test_new_and_seeded_models(self):
        for dims in [(1, 1), (3, 4, 2), (784, 128, 10)]:
            self.assert_owns_aligned(MlpModel(dims))
            self.assert_owns_aligned(MlpModel.seeded(dims, np.random.default_rng(0)))
            assert MlpModel(dims).params.dtype == FLOAT
            assert not MlpModel(dims).params.any()

    def test_given_vectors_are_copied_to_a_line(self):
        values = np.random.default_rng(1).normal(size=26)
        misplaced = placed(values.astype(FLOAT), 16)
        assert misplaced.ctypes.data % 64 == 16
        model = MlpModel((3, 4, 2), misplaced)
        self.assert_owns_aligned(model, misplaced)
        assert model.params.dtype == FLOAT
        float64 = MlpModel((3, 4, 2), values)
        self.assert_owns_aligned(float64, values)
        assert float64.params.dtype == np.float64
        read_only = values.astype(FLOAT)
        read_only.flags.writeable = False
        self.assert_owns_aligned(MlpModel((3, 4, 2), read_only), read_only)

    @pytest.mark.parametrize("clone", [MlpModel.copy, copy.deepcopy,
                                       lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("dtype", [FLOAT, np.float64])
    def test_copies(self, clone, dtype):
        seeded = MlpModel.seeded((3, 4, 2), np.random.default_rng(2))
        model = MlpModel(seeded.dims, seeded.params.astype(dtype))
        twin = clone(model)
        self.assert_owns_aligned(twin, model.params)
        assert twin.params.dtype == dtype

    @pytest.mark.parametrize("clone", [MlpModel.copy, copy.deepcopy], ids=["copy", "deepcopy"])
    def test_a_copy_allocates_one_vector(self, clone):
        model = MlpModel.seeded((784, 128, 10), np.random.default_rng(4))
        tracemalloc.start()
        try:
            clone(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * model.params.nbytes

    def test_placement_moves_no_bits(self):
        # Raw 784-128-10 vectors, one on a line and one 16 bytes past it,
        # take 20 steps of the kernel and the in-place update of train_sgd.
        dims, batch, steps = (784, 128, 10), 32, 20
        rng = np.random.default_rng(3)
        start = MlpModel.seeded(dims, rng).params
        features = rng.normal(size=(batch * steps, dims[0])).astype(FLOAT)
        targets = _one_hot(rng.integers(0, dims[-1], batch * steps), dims[-1], FLOAT)
        layout = _layout(dims)
        ends = []
        for offset in (0, 16):
            params = placed(start, offset)
            assert params.ctypes.data % 64 == offset
            layers = _views(params, layout)
            grad = np.empty_like(params)
            slots = _views(grad, layout)
            for step in range(steps):
                rows = slice(step * batch, (step + 1) * batch)
                _gradient(layers, features[rows], targets[rows], slots)
                grad *= decayed_lr(0.1, 1e-3, step)
                params -= grad
            ends.append(params.tobytes())
        assert ends[0] == ends[1] != start.tobytes()


def in_place_sgd(model, data, epochs, lr0, decay, batch_size, rng, step_offset):
    """train_sgd's schedule for one model, with its batch gathers, kernel
    and rate, stepping the parameters in place through one gradient
    buffer. Returns steps performed."""
    grad = np.empty_like(model.params)
    slots = _views(grad, model._layout)
    targets = _one_hot(data.labels, model.dims[-1], model.params.dtype)
    steps = 0
    for _ in range(epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), batch_size):
            rows = order[start:start + batch_size]
            _gradient(model._layers, data.features.take(rows, axis=0),
                      targets.take(rows, axis=0), slots)
            grad *= decayed_lr(lr0, decay, step_offset + steps)
            model.params -= grad
            steps += 1
    return steps


class TestTrainSgdTurns:
    """train_sgd's two parameter buffers take turns; every model ends with
    the bits of in-place steps, in its own vector, which its layer views
    still point into."""

    @staticmethod
    def assert_keeps_its_vector(model, params):
        assert model.params is params
        assert all(np.shares_memory(weights, params) and np.shares_memory(bias, params)
                   for weights, bias in model._layers)

    def check(self, dims, dtype, k, epochs, size, batch_size):
        rng = np.random.default_rng(40)
        models = [MlpModel(dims, MlpModel.seeded(dims, rng).params.astype(dtype))
                  for _ in range(k)]
        datasets = [make_blobs(size, dims[-1], dims[0], rng, spread=0.3) for _ in range(k)]
        alone = [m.copy() for m in models]
        vectors = [m.params for m in models]
        offsets = [2 * i for i in range(k)]
        rngs = [np.random.default_rng(50 + i) for i in range(k)]
        if k == 1:
            steps = train_sgd(models[0], datasets[0], epochs, 0.1, 1e-3, batch_size, rngs[0], 0)
        else:
            steps = train_sgd(models, datasets, epochs, 0.1, 1e-3, batch_size, rngs, offsets)
        for i, model in enumerate(alone):
            ref_steps = in_place_sgd(model, datasets[i], epochs, 0.1, 1e-3, batch_size,
                                     np.random.default_rng(50 + i), offsets[i])
            assert steps == ref_steps
            assert models[i].params.tobytes() == model.params.tobytes()
            self.assert_keeps_its_vector(models[i], vectors[i])
        return steps

    # (epochs, rows, batch size) for 0, 1, 2 and 3 steps; 9 rows in
    # batches of 4 leave a short last batch.
    @pytest.mark.parametrize("steps,epochs,size,batch_size",
                             [(0, 0, 8, 4), (1, 1, 8, 8), (2, 2, 8, 8), (3, 1, 9, 4)])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("dtype", [FLOAT, np.float64], ids=["float32", "float64"])
    def test_turns_move_no_bit(self, steps, epochs, size, batch_size, k, dtype):
        assert self.check((4, 6, 3), dtype, k, epochs, size, batch_size) == steps

    def test_paper_shape_turns_move_no_bit(self):
        # 784-128-10 runs its products on every BLAS thread; 3 steps end
        # in the spare buffer.
        assert self.check((784, 128, 10), FLOAT, 1, 1, 96, 32) == 3


def _fresh_backward(model, features, labels):
    """backward() with fresh temporaries throughout, independent of the
    numerics kernel: forward, softmax, output delta, backprop, and a fresh
    matmul and column sum per layer, concatenated in the parameter order."""
    layers = list(model.layers())
    activations = [features]
    for weights, bias in layers[:-1]:
        activations.append(np.maximum(activations[-1] @ weights + bias, 0.0))
    logits = activations[-1] @ layers[-1][0] + layers[-1][1]
    exps = np.exp(logits - logits.max(axis=1, keepdims=True))
    delta = exps / exps.sum(axis=1, keepdims=True)
    delta[np.arange(len(labels)), labels] -= 1.0
    delta /= len(labels)
    deltas = [delta]
    for li in range(len(layers) - 1, 0, -1):
        upstream = deltas[0] @ layers[li][0].T
        upstream[activations[li] <= 0.0] = 0.0
        deltas.insert(0, upstream)
    return np.concatenate([part for inp, d in zip(activations, deltas)
                           for part in ((inp.T @ d).ravel(), d.sum(axis=0))])


@pytest.mark.parametrize("dims", [(784, 128, 10), (32, 32, 10)])
class TestInPlaceTraining:
    """The gradient is written into its slots and the step scales it in
    place; both must give the bits of the fresh-temporary arithmetic."""

    def test_backward_equals_fresh_matmuls(self, dims):
        rng = np.random.default_rng(21)
        model = MlpModel.seeded(dims, rng)
        data = make_blobs(32, dims[-1], dims[0], rng, spread=0.3)
        grad = backward(model, data.features, data.labels)
        assert grad.tobytes() == _fresh_backward(model, data.features, data.labels).tobytes()

    def test_train_sgd_equals_fresh_steps(self, dims):
        rng = np.random.default_rng(22)
        data = make_blobs(80, dims[-1], dims[0], rng, spread=0.3)
        model = MlpModel.seeded(dims, rng)
        reference = model.copy()
        steps = train_sgd(model, data, 2, 0.1, 1e-3, 32, np.random.default_rng(23), 4)
        ref_rng, ref_steps = np.random.default_rng(23), 0
        for _ in range(2):
            order = ref_rng.permutation(len(data))
            for start in range(0, len(data), 32):
                rows = order[start:start + 32]
                grad = _fresh_backward(reference, data.features[rows], data.labels[rows])
                reference.params -= decayed_lr(0.1, 1e-3, 4 + ref_steps) * grad
                ref_steps += 1
        assert steps == ref_steps == 6
        assert model.params.tobytes() == reference.params.tobytes()

    def test_stacked_train_sgd_equals_each_model_alone(self, dims):
        # Four models side by side, each on its own data, rng and decay
        # clock; 75 rows leave a short last batch.
        rng = np.random.default_rng(24)
        models = [MlpModel.seeded(dims, rng) for _ in range(4)]
        datasets = [make_blobs(75, dims[-1], dims[0], rng, spread=0.3) for _ in range(4)]
        alone = [m.copy() for m in models]
        offsets = [0, 3, 3, 9]
        rngs = [np.random.default_rng(30 + i) for i in range(4)]
        steps = train_sgd(models, datasets, 2, 0.1, 1e-3, 32, rngs, offsets)
        for i, model in enumerate(alone):
            ref_rng = np.random.default_rng(30 + i)
            assert train_sgd(model, datasets[i], 2, 0.1, 1e-3, 32, ref_rng, offsets[i]) == steps
            assert model.params.tobytes() == models[i].params.tobytes()
            assert ref_rng.bit_generator.state == rngs[i].bit_generator.state

    def test_side_by_side_needs_equal_sizes(self, dims):
        rng = np.random.default_rng(25)
        models = [MlpModel(dims) for _ in range(2)]
        datasets = [make_blobs(size, dims[-1], dims[0], rng) for size in (40, 41)]
        with pytest.raises(ValueError):
            train_sgd(models, datasets, 1, 0.1, 1e-3, 32, [rng, rng], [0, 0])


class TestSelectLargest:
    def test_by_magnitude(self):
        g = np.array([0.1, -0.9, 0.5])
        update = select_largest(RankedPrefix.of(g, 2), 2)
        assert list(update.indices) == [1, 2]
        assert np.allclose(update.values, [-0.9, 0.5])

    def test_full_selection_is_identity(self):
        g = np.array([0.3, -0.1, 0.0, 2.0], dtype=np.float32)
        update = select_largest(RankedPrefix.of(g, 4), 4)
        assert list(update.indices) == [0, 1, 2, 3]
        assert np.array_equal(update.values, g)

    def test_tie_goes_to_lower_index(self):
        g = np.array([0.5, -0.5])
        update = select_largest(RankedPrefix.of(g, 1), 1)
        assert list(update.indices) == [0]

    def test_tie_rule_exhaustive_on_permutations(self):
        # With equal magnitudes everywhere the selection must always be
        # the first k positions, whatever the sign pattern.
        for signs in range(8):
            g = np.array([0.5 if signs & (1 << i) else -0.5 for i in range(3)])
            for k in range(4):
                update = select_largest(RankedPrefix.of(g, k), k)
                assert list(update.indices) == list(range(k))

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            select_largest(RankedPrefix.of(np.zeros(3), 4), 4)

    # Distinct float32 magnitudes, the values sold, so the tie rule never fires.
    @given(st.lists(st.floats(-10, 10, allow_nan=False, width=32), min_size=1, max_size=12,
                    unique_by=abs),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_equivariance(self, values, data):
        g = np.array(values, dtype=np.float32)
        k = data.draw(st.integers(0, g.size))
        perm = data.draw(st.permutations(range(g.size)))
        perm = np.array(perm)
        base = set(select_largest(RankedPrefix.of(g, k), k).indices)
        permuted = set(select_largest(RankedPrefix.of(g[perm], k), k).indices)
        # Position i of the permuted vector holds original coordinate perm[i].
        assert {int(perm[i]) for i in permuted} == {int(i) for i in base}

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, np.nan]),
                    min_size=1, max_size=16),
           st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_every_top_k_is_a_prefix_of_one_ranking(self, values, sharing_level):
        # A seller keeps its delta ranked to its capacity int(lambda * P);
        # every sale up to that count is bitwise the stable-argsort top-k
        # that magnitude_order documents, with few distinct magnitudes (ties
        # are common), signed zeros, and NaN ranking last.
        g = np.array(values, dtype=np.float32)
        capacity = int(sharing_level * g.size)
        prefix = RankedPrefix.of(g, capacity)
        for k in range(capacity + 1):
            sale = select_largest(prefix, k)
            chosen = np.sort(np.argsort(-np.abs(g), kind="stable")[:k])
            assert sale.param_count == g.size
            assert sale.indices.tobytes() == chosen.tobytes()
            assert sale.values.tobytes() == g[chosen].tobytes()

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0, -1.0, 3.0,
                                     np.inf, -np.inf, np.nan]), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_partial_ranking_is_the_stable_argsort_prefix(self, values):
        # Few distinct magnitudes, signed zeros and NaN: NaN ranks last and
        # ties keep index order, exactly as in the full stable argsort.
        g = np.array(values, dtype=np.float64)
        before = g.tobytes()
        full = np.argsort(-np.abs(g), kind="stable")
        for k in range(g.size + 1):
            order = magnitude_order(g, k)
            assert order.dtype == full.dtype
            assert order.tobytes() == full[:k].tobytes()
        assert g.tobytes() == before

    @pytest.mark.parametrize("k", [-1, 4])
    def test_ranking_length_outside_gradient_rejected(self, k):
        with pytest.raises(ValueError):
            magnitude_order(np.zeros(3), k)

    def test_ranking_shorter_than_k_rejected(self):
        g = np.array([0.3, -0.1, 0.0, 2.0])
        with pytest.raises(ValueError, match="ranked"):
            select_largest(RankedPrefix.of(g, 2), 3)
        with pytest.raises(ValueError, match="nonnegative"):
            select_largest(RankedPrefix.of(g, 2), -1)


class TestApplyUpdates:
    def test_empty_list_is_identity(self):
        model = MlpModel((2, 2))
        model.params[:] = 3.0
        before = model.params.copy()
        apply_updates(model, [])
        assert np.array_equal(model.params, before)

    def test_overlapping_indices_accumulate(self):
        model = MlpModel((1, 2))  # 4 params
        u1 = SparseUpdate([1], [0.5], 4)
        u2 = SparseUpdate([1, 3], [0.25, 1.0], 4)
        apply_updates(model, [u1, u2])
        assert np.allclose(model.params, [0.0, 0.75, 0.0, 1.0], atol=1e-15)

    def test_apply_then_subtract_restores(self):
        rng = np.random.default_rng(6)
        model = MlpModel.seeded((3, 3), rng)
        before = model.params.copy()
        u = select_largest(RankedPrefix.of(rng.normal(size=model.param_count), 5), 5)
        apply_updates(model, [u])
        apply_updates(model, [SparseUpdate(u.indices, -u.values, u.param_count)])
        assert np.allclose(model.params, before, atol=1e-12)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_order_independence_bitwise(self, data):
        rng = np.random.default_rng(7)
        n_updates = data.draw(st.integers(1, 5))
        updates = []
        for _ in range(n_updates):
            g = rng.normal(size=10)
            k = int(rng.integers(1, 10))
            updates.append(select_largest(RankedPrefix.of(g, k), k))
        perm = data.draw(st.permutations(range(n_updates)))
        m1 = MlpModel((4, 2))  # 10 parameters
        m2 = m1.copy()
        apply_updates(m1, updates)
        apply_updates(m2, [updates[i] for i in perm])
        assert np.array_equal(m1.params, m2.params)

    def test_out_of_range_rejected(self):
        model = MlpModel((1, 2))
        with pytest.raises(ValueError):
            apply_updates(model, [SparseUpdate([0], [1.0], 99)])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_keyed_sort_matches_lexsort_accumulation_bitwise(self, data):
        # Pins the keyed-sort settlement to the (index, value) lexsort
        # accumulation it replaced, kept here as the reference. Values mix
        # magnitudes so that the addition order shows in the bits, repeat
        # exactly, and include both signed zeros.
        values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 0.3, 1e-17, -1e-17,
                                  1e16, -1e16, 2.5]) | st.floats(-1e3, 1e3)
        width = data.draw(st.integers(1, 5))
        model = MlpModel((1, width))  # 2 * width parameters
        count = model.param_count
        model.params[:] = data.draw(st.lists(values, min_size=count, max_size=count))
        updates = []
        for _ in range(data.draw(st.integers(1, 7))):
            idx = sorted(data.draw(st.sets(st.integers(0, count - 1), max_size=count)))
            vals = data.draw(st.lists(values, min_size=len(idx), max_size=len(idx)))
            updates.append(SparseUpdate(idx, vals, count))
        idx = np.concatenate([u.indices for u in updates])
        vals = np.concatenate([u.values for u in updates])
        order = np.lexsort((vals, idx))
        expected = model.params.copy()
        np.add.at(expected, idx[order], vals[order])
        assert apply_updates(model, updates).params.tobytes() == expected.tobytes()


class TestEvaluate:
    def test_perfect_predictions(self):
        model = MlpModel((1, 2))
        weights, _ = next(model.layers())
        weights[:] = np.array([[-5.0, 5.0]])
        data = Dataset(np.array([[1.0], [-1.0]]), np.array([1, 0]), 2)
        assert evaluate(model, data) == 1.0

    def test_constant_model_on_balanced_binary(self):
        model = MlpModel((2, 2))  # always predicts class 0 on ties
        data = Dataset(np.random.default_rng(8).normal(size=(10, 2)),
                       np.array([0, 1] * 5), 2)
        assert evaluate(model, data) == 0.5

    def test_hand_built_two_thirds(self):
        # Linear model with identity weights: prediction = argmax of features.
        model = MlpModel((2, 2))
        weights, _ = next(model.layers())
        weights[:] = np.eye(2)
        data = Dataset(np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]]),
                       np.array([0, 1, 1]), 2)
        assert evaluate(model, data) == pytest.approx(2.0 / 3.0)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(9)
        model = MlpModel.seeded((3, 4, 2), rng)
        data = small_dataset(rng, n=9, dim=3, classes=2)
        perm = rng.permutation(9)
        assert evaluate(model, data) == evaluate(model, data.subset(perm))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate(MlpModel((1, 2)), Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 2))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_scoring_equals_argmax_of_probabilities(self, data):
        # predict and evaluate read the logits; the reference takes the
        # argmax of forward()'s softmax probabilities. Weights and features
        # on a grid of eighths make every logit exact, so exact ties occur
        # and distinct logits never round to equal probabilities.
        grid = st.integers(-16, 16).map(lambda v: v / 8.0)
        dims = data.draw(st.sampled_from([(2, 3), (3, 4, 3), (2, 3, 3, 4)]))
        model = MlpModel(dims)
        model.params[:] = data.draw(st.lists(grid, min_size=model.param_count,
                                             max_size=model.param_count))
        n = data.draw(st.integers(1, 10))
        features = np.array(data.draw(st.lists(grid, min_size=n * dims[0],
                                               max_size=n * dims[0]))).reshape(n, dims[0])
        labels = np.array(data.draw(st.lists(st.integers(0, dims[-1] - 1),
                                             min_size=n, max_size=n)))
        oracle = np.argmax(forward(model, features), axis=1)
        assert np.array_equal(predict(model, features), oracle)
        assert evaluate(model, Dataset(features, labels, dims[-1])) == np.mean(oracle == labels)

    def test_ties_go_to_the_lowest_class(self):
        features = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        data = Dataset(features, np.array([1, 1, 0]), 3)
        # All-equal logits: zero weights predict class 0 everywhere.
        zero = MlpModel((2, 4, 3))
        assert predict(zero, features).tolist() == [0, 0, 0]
        assert evaluate(zero, data) == 1.0 / 3.0
        # Classes 1 and 2 tie exactly, above class 0, on every row.
        linear = MlpModel((2, 3))
        weights, bias = next(linear.layers())
        weights[:] = [[0.0, 2.0, 2.0], [0.0, 1.0, 1.0]]
        bias[:] = [0.5, 0.0, 0.0]
        assert predict(linear, features).tolist() == [1, 1, 1]
        assert evaluate(linear, data) == 2.0 / 3.0

    @pytest.mark.parametrize("dims", [(6, 4), (32, 32, 10), (6, 8, 5, 4)])
    def test_leave_one_out_rows_match_single_evaluations(self, dims):
        # Each row is the model minus one sparse update, as a leave-one-out
        # probe and a ban's rollback compute it: bitwise the apply_updates
        # result of the negated update.
        rng = np.random.default_rng(sum(dims))
        model = MlpModel.seeded(dims, rng)
        for k in (1, model.param_count // 10, model.param_count // 2):
            g = rng.normal(scale=0.5, size=model.param_count)
            u = select_largest(RankedPrefix.of(g, k), k)
            row = model.params.copy()
            row[u.indices] -= u.values
            negated = SparseUpdate(u.indices, -u.values, u.param_count)
            assert np.array_equal(row, apply_updates(model.copy(), [negated]).params)


class TestSparseUpdateCodec:
    def test_round_trip(self):
        u = SparseUpdate([0, 3, 7], [0.25, -1.5, 3.0], 9)
        again = SparseUpdate.from_bytes(u.to_bytes())
        assert again.param_count == 9
        assert np.array_equal(again.indices, u.indices)
        assert np.array_equal(again.values, u.values)

    @pytest.mark.parametrize("param_count, width", [(65_536, 2), (65_537, 4)])
    def test_index_width_set_by_param_count(self, param_count, width):
        # A >u2 or >u4 index and a >f4 value: 8 + 6n bytes, or 8 + 8n.
        u = SparseUpdate([0, 1_385, param_count - 1], [0.5, -2.0, 1e-30], param_count)
        blob = u.to_bytes()
        assert len(blob) == 8 + (width + 4) * len(u)
        assert blob[8:8 + width] == b"\0" * width
        assert blob[8 + 2 * width:8 + 3 * width] == (param_count - 1).to_bytes(width, "big")
        assert blob[-4:] == struct.pack(">f", 1e-30)
        again = SparseUpdate.from_bytes(blob)
        assert again.param_count == param_count
        assert np.array_equal(again.indices, u.indices)
        assert np.array_equal(again.values, u.values)

    def test_empty_update_is_its_header(self):
        blob = SparseUpdate([], [], 1_386).to_bytes()
        assert blob == struct.pack(">II", 1_386, 0)
        assert len(SparseUpdate.from_bytes(blob)) == 0

    @pytest.mark.parametrize("blob, message", [
        (b"", "truncated"),
        (struct.pack(">I", 1_386), "truncated"),
        (SparseUpdate([2, 5], [1.0, 2.0], 1_386).to_bytes()[:-1], "wrong length"),
        (SparseUpdate([2, 5], [1.0, 2.0], 1_386).to_bytes() + b"\0", "wrong length"),
        # the 16-bytes-per-entry layout: >i8 indices
        (struct.pack(">IIqqdd", 1_386, 2, 2, 5, 1.0, 2.0), "wrong length"),
        (struct.pack(">IIqqdd", 101_770, 2, 2, 5, 1.0, 2.0), "wrong length"),
        (struct.pack(">IIHHff", 1_386, 2, 5, 5, 1.0, 2.0), "strictly increasing"),
        (struct.pack(">IIHHff", 1_386, 2, 5, 2, 1.0, 2.0), "strictly increasing"),
        (struct.pack(">IIHHff", 1_386, 2, 2, 1_386, 1.0, 2.0), "out of range"),
        (struct.pack(">IIIIff", 101_770, 2, 2, 101_770, 1.0, 2.0), "out of range"),
        # >f8 values: 8 + 10n bytes at desk scale, 8 + 12n at paper scale
        (struct.pack(">IIHHdd", 1_386, 2, 2, 5, 1.0, 2.0), "wrong length"),
        (struct.pack(">IIIIdd", 101_770, 2, 2, 5, 1.0, 2.0), "wrong length"),
        (struct.pack(">IIHHff", 1_386, 2, 2, 5, 1.0, float("nan")), "not finite"),
        (struct.pack(">IIHHff", 1_386, 2, 2, 5, float("inf"), 2.0), "not finite"),
        (struct.pack(">IIIIff", 101_770, 2, 2, 5, 1.0, float("-inf")), "not finite"),
    ], ids=["empty", "half_header", "cut_short", "one_byte_over", "old_layout",
            "old_layout_paper_scale", "repeated", "falling", "at_param_count",
            "at_param_count_paper_scale", "f8_values", "f8_values_paper_scale",
            "nan_value", "inf_value", "minus_inf_value_paper_scale"])
    def test_bad_blob_refused(self, blob, message):
        with pytest.raises(ValueError, match=message):
            SparseUpdate.from_bytes(blob)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SparseUpdate([3, 1], [1.0, 1.0], 5)
        with pytest.raises(ValueError):
            SparseUpdate([0, 0], [1.0, 1.0], 5)
        with pytest.raises(ValueError):
            SparseUpdate([0, 9], [1.0, 1.0], 5)


class TestLoaders:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,label\n0.5,1.5,0\n2.0,3.0,1\n-1.0,0.0,1\n")
        data = load_csv(path, 2)
        assert data.features.shape == (3, 2)
        assert list(data.labels) == [0, 1, 1]
        assert data.num_classes == 2

    def test_idx_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        pixels = rng.integers(0, 256, size=(4, 2, 2), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1], dtype=np.uint8)
        img_path = tmp_path / "images.idx"
        lbl_path = tmp_path / "labels.idx"
        img_path.write_bytes(struct.pack(">IIII", 0x00000803, 4, 2, 2) + pixels.tobytes())
        lbl_path.write_bytes(struct.pack(">II", 0x00000801, 4) + labels.tobytes())
        data = load_idx(img_path, lbl_path, 3)
        assert data.features.shape == (4, 4)
        assert np.allclose(data.features[0], pixels[0].ravel() / 255.0)
        assert list(data.labels) == [0, 1, 2, 1]

    def test_idx_scaling_equals_divided_copy(self, tmp_path):
        # Scaled in place; every byte value gives the bits of astype() / 255.
        pixels = np.arange(256, dtype=np.uint8).reshape(16, 4, 4)
        labels = np.arange(16, dtype=np.uint8) % 10
        img_path = tmp_path / "images.idx"
        lbl_path = tmp_path / "labels.idx"
        img_path.write_bytes(struct.pack(">IIII", 0x00000803, 16, 4, 4) + pixels.tobytes())
        lbl_path.write_bytes(struct.pack(">II", 0x00000801, 16) + labels.tobytes())
        expected = pixels.reshape(16, 16).astype(np.float32) / 255.0
        assert load_idx(img_path, lbl_path, 10).features.tobytes() == expected.tobytes()

    def test_idx_bad_magic(self, tmp_path):
        img_path = tmp_path / "bad.idx"
        img_path.write_bytes(struct.pack(">IIII", 0xdead, 0, 0, 0))
        with pytest.raises(ValueError):
            load_idx(img_path, img_path, 10)

    def test_blobs_seeded_reproducible(self):
        a = make_blobs(20, 3, 4, np.random.default_rng(11))
        b = make_blobs(20, 3, 4, np.random.default_rng(11))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_blobs_equal_clipped_centers_plus_noise(self):
        # Centres, labels, then noise, drawn in that order from one stream,
        # summed and clipped in float64 and rounded once into float32.
        data = make_blobs(200, 3, 4, np.random.default_rng(12), spread=0.4)
        rng = np.random.default_rng(12)
        centers = rng.uniform(0.25, 0.75, size=(3, 4))
        labels = rng.integers(0, 3, size=200)
        expected = np.clip(centers[labels] + rng.normal(0.0, 0.4, size=(200, 4)), 0.0, 1.0)
        assert data.features.tobytes() == expected.astype(np.float32).tobytes()
        assert np.array_equal(data.labels, labels)
        assert 0.0 in data.features and 1.0 in data.features
