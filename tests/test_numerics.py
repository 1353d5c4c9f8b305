import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircollab.numerics import (Dataset, MlpModel, SparseUpdate, apply_updates, backward,
                                 clipped_mean_gradient, decayed_lr, evaluate, forward, load_csv,
                                 load_idx, loss, magnitude_order, make_blobs,
                                 per_example_gradients, select_largest, sgd_step, train_sgd)


def small_dataset(rng, n=8, dim=3, classes=3):
    return Dataset(rng.normal(size=(n, dim)), rng.integers(0, classes, n), classes)


def finite_difference_gradient(model, batch, step=1e-5):
    """Central-difference oracle for the mean cross-entropy gradient."""
    grad = np.zeros(model.param_count)
    for k in range(model.param_count):
        saved = model.params[k]
        model.params[k] = saved + step
        up = loss(model, batch)
        model.params[k] = saved - step
        down = loss(model, batch)
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

    def test_dimension_mismatch_rejected(self):
        model = MlpModel((3, 2))
        with pytest.raises(ValueError):
            forward(model, np.ones((2, 4)))


class TestBackward:
    def test_matches_finite_differences_six_params(self):
        rng = np.random.default_rng(1)
        model = MlpModel.seeded((2, 2), rng)  # 6 parameters
        batch = small_dataset(rng, n=5, dim=2, classes=2)
        analytic = backward(model, batch)
        numeric = finite_difference_gradient(model, batch)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_finite_differences_on_random_models(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            dims = (3, int(rng.integers(2, 5)), 3)
            model = MlpModel.seeded(dims, rng)
            batch = small_dataset(rng, n=6, dim=3, classes=3)
            analytic = backward(model, batch)
            numeric = finite_difference_gradient(model, batch)
            denom = np.maximum(np.abs(numeric), 1e-6)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_duplicated_batch_same_gradient(self):
        rng = np.random.default_rng(3)
        model = MlpModel.seeded((3, 4, 2), rng)
        batch = small_dataset(rng, n=4, dim=3, classes=2)
        doubled = Dataset(np.concatenate([batch.features] * 2),
                          np.concatenate([batch.labels] * 2), 2)
        assert np.allclose(backward(model, batch), backward(model, doubled), atol=1e-12)

    def test_perfect_fit_has_tiny_gradient(self):
        # Huge separating logits make the softmax one-hot.
        model = MlpModel((1, 2))
        weights, _ = next(model.layers())
        weights[:] = np.array([[1000.0, -1000.0]])
        batch = Dataset(np.array([[1.0]]), np.array([0]), 2)
        assert np.linalg.norm(backward(model, batch)) < 1e-6

    def test_empty_batch_rejected(self):
        model = MlpModel((2, 2))
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError):
            backward(model, empty)

    def test_per_example_mean_equals_backward(self):
        rng = np.random.default_rng(4)
        model = MlpModel.seeded((3, 5, 3), rng)
        batch = small_dataset(rng, n=7, dim=3, classes=3)
        per = per_example_gradients(model, batch)
        assert per.shape == (7, model.param_count)
        assert np.allclose(per.mean(axis=0), backward(model, batch), atol=1e-12)


def clipped_mean_oracle(model, batch, clip_norm):
    """Materialised reference: clip each per-example row, then average."""
    grads = per_example_gradients(model, batch)
    norms = np.linalg.norm(grads, axis=1, keepdims=True)
    return (grads * np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))).mean(axis=0)


class TestClippedMeanGradient:
    @pytest.mark.parametrize("dims", [(3, 5, 3), (4, 6, 5, 3)])
    def test_matches_per_example_oracle_with_mixed_clipping(self, dims):
        rng = np.random.default_rng(11)
        model = MlpModel.seeded(dims, rng)
        batch = small_dataset(rng, n=9, dim=dims[0], classes=dims[-1])
        norms = np.linalg.norm(per_example_gradients(model, batch), axis=1)
        clip = float(np.median(norms))
        assert np.any(norms > clip) and np.any(norms < clip)
        assert np.allclose(clipped_mean_gradient(model, batch, clip),
                           clipped_mean_oracle(model, batch, clip), atol=1e-12)

    @pytest.mark.parametrize("dims", [(3, 5, 3), (4, 6, 5, 3)])
    def test_nothing_clips_at_large_bound(self, dims):
        rng = np.random.default_rng(12)
        model = MlpModel.seeded(dims, rng)
        batch = small_dataset(rng, n=6, dim=dims[0], classes=dims[-1])
        out = clipped_mean_gradient(model, batch, 100.0)
        assert np.allclose(out, clipped_mean_oracle(model, batch, 100.0), atol=1e-12)
        assert np.allclose(out, backward(model, batch), atol=1e-12)

    def test_zero_gradient_row(self):
        # Row 0 sits on a saturated softmax of its true class, so its
        # gradient is exactly zero; the other rows still count in the mean.
        model = MlpModel.seeded((2, 4, 3), np.random.default_rng(13))
        model.params[-3:] = [0.0, 0.0, 1000.0]
        batch = Dataset(np.array([[0.2, 0.9], [0.5, 0.1], [0.7, 0.4]]),
                        np.array([2, 0, 1]), 3)
        assert np.all(per_example_gradients(model, batch)[0] == 0.0)
        assert np.allclose(clipped_mean_gradient(model, batch, 0.5),
                           clipped_mean_oracle(model, batch, 0.5), atol=1e-12)

    def test_empty_batch_rejected(self):
        model = MlpModel((2, 2))
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError):
            clipped_mean_gradient(model, empty, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), clip=st.floats(1e-3, 10.0),
           scale=st.floats(0.01, 100.0))
    def test_single_example_norm_bounded(self, seed, clip, scale):
        rng = np.random.default_rng(seed)
        model = MlpModel.seeded((4, 5, 3), rng)
        batch = Dataset(rng.normal(size=(1, 4)) * scale, rng.integers(0, 3, 1), 3)
        assert np.linalg.norm(clipped_mean_gradient(model, batch, clip)) <= clip * (1 + 1e-9)


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

    def test_decay_schedule(self):
        assert decayed_lr(0.1, 1e-7, 0) == 0.1
        assert decayed_lr(0.1, 1e-7, 1) == pytest.approx(0.1 / (1 + 1e-7), rel=1e-15)

    def test_train_sgd_reduces_loss_on_blobs(self):
        rng = np.random.default_rng(5)
        data = make_blobs(60, 3, 4, rng, spread=0.05)
        model = MlpModel.seeded((4, 8, 3), rng)
        before = loss(model, data)
        train_sgd(model, data, epochs=10, lr0=0.1, decay=1e-7, batch_size=16, rng=rng)
        assert loss(model, data) < before


class TestSelectLargest:
    def test_by_magnitude(self):
        update = select_largest(np.array([0.1, -0.9, 0.5]), 2)
        assert list(update.indices) == [1, 2]
        assert np.allclose(update.values, [-0.9, 0.5])

    def test_full_selection_is_identity(self):
        g = np.array([0.3, -0.1, 0.0, 2.0])
        update = select_largest(g, 4)
        assert list(update.indices) == [0, 1, 2, 3]
        assert np.array_equal(update.values, g)

    def test_tie_goes_to_lower_index(self):
        update = select_largest(np.array([0.5, -0.5]), 1)
        assert list(update.indices) == [0]

    def test_tie_rule_exhaustive_on_permutations(self):
        # With equal magnitudes everywhere the selection must always be
        # the first k positions, whatever the sign pattern.
        for signs in range(8):
            g = np.array([0.5 if signs & (1 << i) else -0.5 for i in range(3)])
            for k in range(4):
                update = select_largest(g, k)
                assert list(update.indices) == list(range(k))

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            select_largest(np.zeros(3), 4)

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=12),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_equivariance(self, values, data):
        g = np.array(values)
        # Perturb so magnitudes are distinct and the tie rule never fires.
        g = g + np.linspace(0, 1e-9, g.size)
        k = data.draw(st.integers(0, g.size))
        perm = data.draw(st.permutations(range(g.size)))
        perm = np.array(perm)
        base = set(select_largest(g, k).indices)
        permuted = set(select_largest(g[perm], k).indices)
        # Position i of the permuted vector holds original coordinate perm[i].
        assert {int(perm[i]) for i in permuted} == {int(i) for i in base}

    @given(st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=1, max_size=16))
    @settings(max_examples=80, deadline=None)
    def test_every_top_k_is_a_prefix_of_one_ranking(self, entries):
        # Few distinct magnitudes with random signs, so ties are common.
        g = np.array([m * 0.25 * (-1.0 if neg else 1.0) for m, neg in entries])
        order = magnitude_order(g)
        for k in range(g.size + 1):
            expected = select_largest(g, k)
            assert np.array_equal(np.sort(order[:k]), expected.indices)
            ranked = select_largest(g, k, order)
            assert np.array_equal(ranked.indices, expected.indices)
            assert np.array_equal(ranked.values, expected.values)


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
        u = select_largest(rng.normal(size=model.param_count), 5)
        apply_updates(model, [u])
        apply_updates(model, [u.negated()])
        assert np.allclose(model.params, before, atol=1e-12)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_order_independence_bitwise(self, data):
        rng = np.random.default_rng(7)
        n_updates = data.draw(st.integers(1, 5))
        updates = []
        for _ in range(n_updates):
            g = rng.normal(size=10)
            updates.append(select_largest(g, int(rng.integers(1, 10))))
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


class TestSparseUpdateCodec:
    def test_round_trip(self):
        u = SparseUpdate([0, 3, 7], [0.25, -1.5, 3.0], 9)
        again = SparseUpdate.from_bytes(u.to_bytes())
        assert again.param_count == 9
        assert np.array_equal(again.indices, u.indices)
        assert np.array_equal(again.values, u.values)

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
        data = load_csv(path)
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
        data = load_idx(img_path, lbl_path)
        assert data.features.shape == (4, 4)
        assert np.allclose(data.features[0], pixels[0].ravel() / 255.0)
        assert list(data.labels) == [0, 1, 2, 1]

    def test_idx_bad_magic(self, tmp_path):
        img_path = tmp_path / "bad.idx"
        img_path.write_bytes(struct.pack(">IIII", 0xdead, 0, 0, 0))
        with pytest.raises(ValueError):
            load_idx(img_path, img_path)

    def test_blobs_seeded_reproducible(self):
        a = make_blobs(20, 3, 4, np.random.default_rng(11))
        b = make_blobs(20, 3, 4, np.random.default_rng(11))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
