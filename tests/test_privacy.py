import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircollab.numerics import (Dataset, MlpModel, backward, make_blobs,
                                 per_example_gradients)
from faircollab.privacy import (NOISE_CHUNK, RDP_ORDERS, BudgetExhaustedError,
                                PrivacyAccountant, PrivacyParams, allocate_budgets,
                                calibrate_sigma, dp_sgd_step, lot_size_for, rdp_curve,
                                rdp_epsilon)
from faircollab.samplegen import augment

import oracles


class TestCalibrateSigma:
    def test_golden_value(self):
        # sqrt(2 * ln(1.25e5)) evaluated independently.
        expected = math.sqrt(2.0 * math.log(1.25 / 1e-5))
        assert expected == pytest.approx(4.84480, abs=1e-4)
        assert calibrate_sigma(1.0, 1e-5) == pytest.approx(expected, rel=1e-12)

    def test_clean_inverse(self):
        # delta chosen so 2*ln(1.25/delta) = 1.
        delta = 1.25 * math.exp(-0.5)
        assert calibrate_sigma(1.0, delta) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_epsilon(self):
        sigmas = [calibrate_sigma(e, 1e-5) for e in (0.1, 0.3, 0.5, 0.9, 1.0)]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_round_trip(self):
        sigma = calibrate_sigma(0.7, 1e-6)
        eps_back = math.sqrt(2.0 * math.log(1.25 / 1e-6)) / sigma
        assert eps_back == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("eps,delta", [(1.5, 1e-5), (0.0, 1e-5), (-1, 1e-5),
                                           (0.5, 0.0), (0.5, 1.0)])
    def test_invalid_inputs(self, eps, delta):
        with pytest.raises(ValueError):
            calibrate_sigma(eps, delta)


def _single_example(seed=0):
    """A one-layer float64 model and a one-example batch with a nonzero
    gradient g."""
    rng = np.random.default_rng(seed)
    model = oracles.float64_twin(MlpModel.seeded((3, 4), rng))
    batch = Dataset(rng.uniform(size=(1, 3)), np.array([1]), 4)
    return model, batch, backward(model, batch.features, batch.labels)


class TestClipping:
    def test_below_bound_unchanged(self):
        model, batch, g = _single_example()
        out = backward(model, batch.features, batch.labels, clip_norm=2.0 * np.linalg.norm(g))
        assert np.array_equal(out, g)

    def test_norm_five_rescaled(self):
        # A gradient of norm 5C comes back with norm C, direction kept.
        model, batch, g = _single_example(1)
        clip = np.linalg.norm(g) / 5.0
        out = backward(model, batch.features, batch.labels, clip_norm=clip)
        assert np.linalg.norm(out) == pytest.approx(clip, rel=1e-12)
        assert np.allclose(out, g / 5.0, atol=1e-12)

    def test_zero_stays_zero(self):
        # A saturated softmax on the true class gives an exactly zero gradient.
        model = MlpModel((2, 3, 3))
        model.params[-3:] = [1000.0, 0.0, 0.0]
        batch = Dataset(np.array([[0.3, 0.7]]), np.array([0]), 3)
        out = backward(model, batch.features, batch.labels, clip_norm=1.0)
        assert np.array_equal(out, np.zeros(model.param_count))

    def test_output_norms_bounded(self):
        rng = np.random.default_rng(0)
        model = MlpModel.seeded((8, 6, 3), rng)
        for scale in (0.1, 1.0, 10.0):
            batch = Dataset(rng.normal(size=(1, 8)) * scale, np.array([2]), 3)
            assert np.linalg.norm(backward(model, batch.features, batch.labels, clip_norm=0.7)) <= 0.7 + 1e-9

    @pytest.mark.parametrize("dims", [(32, 32, 10), (784, 128, 10)])
    def test_float32_example_measures_at_most_the_clip_norm(self, dims):
        # The factors aim below C by the clip margin, so a clipped float32
        # single-example gradient measures at most C both in float32 and
        # in float64, at the desk and the paper shape.
        rng = np.random.default_rng(sum(dims))
        model = MlpModel.seeded(dims, rng)
        for _ in range(50):
            clip = float(rng.uniform(1e-3, 10.0))
            batch = Dataset(rng.normal(size=(1, dims[0])) * rng.uniform(0.01, 100.0),
                            rng.integers(0, dims[-1], 1), dims[-1])
            out = backward(model, batch.features, batch.labels, clip_norm=clip)
            assert out.dtype == np.float32
            assert np.linalg.norm(out) <= np.float32(clip)
            assert np.linalg.norm(out.astype(np.float64)) <= clip


# Each float32 result, as a vector, lies within 16 float32 epsilons of the
# float64 reference model's, relative to the reference's norm: 4 for the
# clip margin, which float32 aims at and float64 all but skips, the rest for
# rounding parameters, activations, sums and noise into float32.
FLOAT32_TOLERANCE = 16 * np.finfo(np.float32).eps


@pytest.mark.parametrize("dims", [(32, 32, 10), (784, 128, 10)])
class TestFloat32AgainstFloat64:
    def _models(self, dims):
        rng = np.random.default_rng(dims[0])
        model = MlpModel.seeded(dims, rng)
        data = make_blobs(64, dims[-1], dims[0], rng, spread=0.3)
        return model, oracles.float64_twin(model), data

    @staticmethod
    def _close(result, reference):
        assert result.dtype == np.float32 and reference.dtype == np.float64
        assert (np.linalg.norm(result - reference)
                <= FLOAT32_TOLERANCE * np.linalg.norm(reference))

    def test_gradient(self, dims):
        model, reference, data = self._models(dims)
        self._close(backward(model, data.features, data.labels),
                    backward(reference, data.features, data.labels))

    def test_clipped_mean(self, dims):
        # The median norm clips half of the 64 examples.
        model, reference, data = self._models(dims)
        norms = np.linalg.norm(per_example_gradients(reference, data.features, data.labels),
                               axis=1)
        clip = float(np.median(norms))
        self._close(backward(model, data.features, data.labels, clip_norm=clip),
                    backward(reference, data.features, data.labels, clip_norm=clip))

    def test_dp_step(self, dims):
        # Both draw the same lot and the same float64 noise, at a sigma that
        # keeps the noise near the size of the clipped mean.
        model, reference, data = self._models(dims)
        params = PrivacyParams(1.0, 1e-5, 1.0, 8, len(data))
        self._close(dp_sgd_step(model, data, params, np.random.default_rng(5),
                                PrivacyAccountant(10.0, 1.0), sigma=0.05),
                    dp_sgd_step(reference, data, params, np.random.default_rng(5),
                                PrivacyAccountant(10.0, 1.0), sigma=0.05))


class TestAccountant:
    def test_basic_summation(self):
        acct = PrivacyAccountant(10.0, 1.0)
        for _ in range(3):
            acct.spend(0.1, 1e-6)
        assert acct.spent() == pytest.approx((0.3, 3e-6), rel=1e-12)

    def test_amplified_map(self):
        acct = PrivacyAccountant(10.0, 1.0)
        acct.spend(1.0, 1e-5, q=0.1)
        eps, delta = acct.spent()
        assert eps == pytest.approx(0.1, rel=1e-12)
        assert delta == pytest.approx(1e-6, rel=1e-12)

    def test_empty_ledger(self):
        assert PrivacyAccountant(1.0, 1e-5).spent() == (0.0, 0.0)

    def test_monotone_and_exhaustion(self):
        acct = PrivacyAccountant(1.0, 1.0)
        previous = (0.0, 0.0)
        spent_steps = 0
        while True:
            try:
                acct.spend(0.3, 1e-6)
            except BudgetExhaustedError:
                break
            spent_steps += 1
            current = acct.spent()
            assert current[0] >= previous[0] and current[1] >= previous[1]
            previous = current
        assert spent_steps == 3  # 4th step of 0.3 would exceed 1.0
        assert acct.exhausted()
        with pytest.raises(BudgetExhaustedError):
            acct.spend(0.3, 1e-6)

    def test_exhausted_never_reverts(self):
        acct = PrivacyAccountant(0.5, 1.0)
        with pytest.raises(BudgetExhaustedError):
            acct.spend(0.7, 1e-9)
        assert acct.exhausted()
        with pytest.raises(BudgetExhaustedError):
            acct.spend(0.01, 1e-9)

    def test_spend_many_atomic(self):
        acct = PrivacyAccountant(1.0, 1.0)
        with pytest.raises(BudgetExhaustedError):
            acct.spend(0.4, 1e-7, count=3)
        assert not acct.steps

    @given(st.lists(st.tuples(st.floats(0.01, 0.5), st.floats(1e-9, 1e-6),
                              st.floats(0.01, 1.0)), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_spent_monotone_property(self, steps):
        acct = PrivacyAccountant(1e9, 1.0)
        last = (0.0, 0.0)
        for eps, delta, q in steps:
            acct.spend(eps, delta, q)
            now = acct.spent()
            assert now[0] >= last[0] and now[1] >= last[1]
            last = now


class TestBudgetAllocation:
    def test_update_mnist(self):
        assert allocate_budgets("update", "mnist") == (2.0, 1e-5)

    def test_init_svhn_exception(self):
        assert allocate_budgets("initialisation", "svhn") == (4.0, 1e-6)

    def test_stages_compose_to_total(self):
        e1, d1 = allocate_budgets("initialisation", "mnist")
        e2, d2 = allocate_budgets("update", "mnist")
        assert (e1 + e2, d1 + d2) == (6.0, 2e-5)

    def test_unknown_dataset_uses_default_delta(self):
        assert allocate_budgets("update", "no-such-set") == (2.0, 1e-5)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            allocate_budgets("warmup", "mnist")


class TestRdpAccountant:
    # sigma of a (1, 5e-6) step, the per-step budget of every shipped config.
    SIGMA = calibrate_sigma(1.0, 5e-6)

    def test_full_batch_is_the_gaussian_closed_form(self):
        curve = rdp_curve(1.0, 2.0)
        assert curve[5 - RDP_ORDERS[0]] == pytest.approx(0.625, rel=1e-12)
        for alpha, rdp in zip(RDP_ORDERS, curve):
            assert rdp == pytest.approx(alpha / (2 * 2.0 ** 2), rel=1e-9)

    @pytest.mark.parametrize("q", [0.01, 0.3, 0.908])
    @pytest.mark.parametrize("sigma", [0.8, 2.0, 4.9858])
    def test_small_orders_match_a_plain_sum(self, q, sigma):
        for alpha, rdp in zip(range(2, 9), rdp_curve(q, sigma)):
            total = sum(math.comb(alpha, k) * (1 - q) ** (alpha - k) * q ** k
                        * math.exp((k * k - k) / (2 * sigma ** 2)) for k in range(alpha + 1))
            assert rdp == pytest.approx(math.log(total) / (alpha - 1), rel=1e-10)

    def test_monotone_in_rate_steps_and_inverse_sigma(self):
        by_q = [rdp_epsilon(q, 2.0, 50, 1e-5) for q in (0.01, 0.05, 0.2, 0.5, 1.0)]
        by_steps = [rdp_epsilon(0.2, 2.0, steps, 1e-5) for steps in (1, 10, 100, 1000)]
        by_sigma = [rdp_epsilon(0.2, sigma, 50, 1e-5) for sigma in (8.0, 4.0, 2.0, 1.0)]
        for series in (by_q, by_steps, by_sigma):
            assert all(a < b for a, b in zip(series, series[1:]))

    def test_vanishing_rate_leaves_only_the_conversion_term(self):
        # With orders capped at 128, epsilon cannot fall below
        # log(1 / delta) / 127: the RDP part is what tends to 0 with q.
        floor = math.log(1 / 1e-5) / (RDP_ORDERS[-1] - 1)
        assert rdp_epsilon(0.0, 2.0, 100, 1e-5) == pytest.approx(floor, rel=1e-12)
        assert rdp_epsilon(0.3, 2.0, 0, 1e-5) == pytest.approx(floor, rel=1e-12)
        excess = [rdp_epsilon(q, self.SIGMA, 100, 1e-5) - floor for q in (1e-2, 1e-4, 1e-6)]
        assert all(a > b > 0 for a, b in zip(excess, excess[1:]))
        assert excess[-1] < 1e-9
        assert max(rdp_curve(1e-6, self.SIGMA)) < 1e-11

    # (L, n, steps) at raw q = L / n: desk_grid, criterion 07, market, paper_shape.
    @pytest.mark.parametrize("lot, records, steps, expected", [
        (109, 120, 80, 9.20), (154, 240, 96, 7.01), (109, 120, 20, 4.29), (219, 480, 8, 1.40),
    ], ids=["desk_grid", "criterion_07", "market", "paper_shape"])
    def test_reference_rows(self, lot, records, steps, expected):
        assert self.SIGMA == pytest.approx(4.9858, abs=1e-4)
        assert rdp_epsilon(lot / records, self.SIGMA, steps, 1e-5) == pytest.approx(
            expected, abs=0.005)

    def test_curve_cached_per_rate_and_sigma(self):
        assert rdp_curve(0.25, 3.0) is rdp_curve(0.25, 3.0)
        assert len(rdp_curve(0.25, 3.0)) == len(RDP_ORDERS) == 127

    @pytest.mark.parametrize("q, sigma, steps, delta", [
        (-0.1, 1.0, 1, 1e-5), (1.1, 1.0, 1, 1e-5), (0.5, 0.0, 1, 1e-5),
        (0.5, 1.0, -1, 1e-5), (0.5, 1.0, 1, 0.0), (0.5, 1.0, 1, 1.0),
        (math.nan, 1.0, 1, 1e-5), (0.5, math.nan, 1, 1e-5),
    ])
    def test_bad_input_refused(self, q, sigma, steps, delta):
        with pytest.raises(ValueError):
            rdp_epsilon(q, sigma, steps, delta)


def _setup_step(seed=0, n=64, lot=None):
    rng = np.random.default_rng(seed)
    data = make_blobs(n, 3, 4, rng, spread=0.1)
    model = MlpModel.seeded((4, 5, 3), rng)
    lot = lot or lot_size_for(n)
    params = PrivacyParams(1.0, 1e-5, 1.0, lot, n)
    acct = PrivacyAccountant(100.0, 1.0)
    return rng, data, model, params, acct


class TestDpSgdStep:
    def test_zero_noise_hook_equals_clipped_lot_mean(self):
        rng, data, model, params, acct = _setup_step()
        model = oracles.float64_twin(model)
        check_rng = np.random.default_rng(1234)
        result = dp_sgd_step(model, data, params, np.random.default_rng(1234), acct, sigma=0.0)
        # Reproduce the lot draw with an identical generator.
        lot_idx = check_rng.integers(0, len(data), size=params.lot_size)
        lot = data.subset(lot_idx)
        grads = per_example_gradients(model, lot.features, lot.labels)
        norms = np.linalg.norm(grads, axis=1, keepdims=True)
        grads = grads * np.minimum(1.0, params.clip_norm / np.maximum(norms, 1e-300))
        assert np.allclose(result, grads.mean(axis=0), atol=1e-12)

    def test_replica_free_lot_equals_replicated_oracle(self):
        # Lots drawn over r * N virtual rows read raw record i // r: the
        # same rows a draw from augment(data, r) would pick.
        _, data, model, _, acct = _setup_step(seed=6, n=30)
        model = oracles.float64_twin(model)
        r = 7
        params = PrivacyParams(1.0, 1e-5, 0.5, lot_size_for(r * len(data)), r * len(data))
        result = dp_sgd_step(model, data, params, np.random.default_rng(99), acct, sigma=0.0)
        lot_idx = np.random.default_rng(99).integers(0, r * len(data), size=params.lot_size)
        lot = augment(data, r).subset(lot_idx)
        grads = per_example_gradients(model, lot.features, lot.labels)
        norms = np.linalg.norm(grads, axis=1, keepdims=True)
        grads = grads * np.minimum(1.0, params.clip_norm / np.maximum(norms, 1e-300))
        assert np.allclose(result, grads.mean(axis=0), atol=1e-12)

    def test_dataset_size_not_a_multiple_rejected(self):
        rng, data, model, _, acct = _setup_step(seed=7, n=30)
        params = PrivacyParams(1.0, 1e-5, 1.0, 5, 3 * len(data) + 1)
        with pytest.raises(ValueError):
            dp_sgd_step(model, data, params, rng, acct)
        assert not acct.steps

    def test_noise_standard_deviation(self):
        # Monte Carlo estimate of the per-coordinate noise std. Every row
        # of the dataset is identical, so the clipped lot mean is constant
        # and the residual against the zero-noise hook is pure noise.
        rng = np.random.default_rng(2)
        row = rng.uniform(size=4)
        data = Dataset(np.tile(row, (50, 1)), np.zeros(50, dtype=int), 3)
        model = MlpModel.seeded((4, 5, 3), rng)
        params = PrivacyParams(1.0, 1e-5, 1.0, 7, 50)
        acct = PrivacyAccountant(1e9, 1.0)
        base = dp_sgd_step(model, data, params, rng, acct, sigma=0.0)
        residuals = [dp_sgd_step(model, data, params, rng, acct) - base
                     for _ in range(300)]
        observed = np.std(np.concatenate(residuals))
        expected = params.sigma * params.clip_norm / params.lot_size
        assert observed == pytest.approx(expected, rel=0.05)

    def test_accountant_records_each_step(self):
        rng, data, model, params, acct = _setup_step(seed=3)
        for _ in range(5):
            dp_sgd_step(model, data, params, rng, acct)
        assert sum(acct.steps.values()) == 5
        [(_eps, _delta, q)] = acct.steps
        assert q == pytest.approx(params.sample_ratio)

    def test_refuses_when_exhausted(self):
        rng, data, model, params, _ = _setup_step(seed=4)
        # Each step charges q * epsilon_per_step = q, so one step fits.
        acct = PrivacyAccountant(1.5 * params.sample_ratio, 1.0)
        dp_sgd_step(model, data, params, rng, acct)
        with pytest.raises(BudgetExhaustedError):
            dp_sgd_step(model, data, params, rng, acct)
        assert sum(acct.steps.values()) == 1

    def test_equals_clipped_mean_plus_noise(self):
        # The noise is added in place; the bits are those of mean + noise.
        _, data, model, params, acct = _setup_step(seed=8, n=30)
        model = oracles.float64_twin(model)
        result = dp_sgd_step(model, data, params, np.random.default_rng(43), acct)
        rng = np.random.default_rng(43)
        rows = rng.integers(0, params.dataset_size, size=params.lot_size)
        mean = backward(model, data.features[rows], data.labels[rows],
                        clip_norm=params.clip_norm)
        noise = rng.normal(0.0, params.sigma * params.clip_norm / params.lot_size,
                           size=mean.shape)
        assert result.tobytes() == (mean + noise).tobytes()

    def test_float32_step_is_mean_plus_noise_rounded_once(self):
        # 101,770 parameters take seven noise chunks; the bits are those of
        # one float64 draw added to the float32 mean and rounded once.
        rng = np.random.default_rng(9)
        data = make_blobs(30, 10, 784, rng, spread=0.3)
        model = MlpModel.seeded((784, 128, 10), rng)
        params = PrivacyParams(1.0, 1e-5, 1.0, 5, len(data))
        result = dp_sgd_step(model, data, params, np.random.default_rng(44),
                             PrivacyAccountant(10.0, 1.0))
        rng = np.random.default_rng(44)
        rows = rng.integers(0, params.dataset_size, size=params.lot_size)
        mean = backward(model, data.features[rows], data.labels[rows],
                        clip_norm=params.clip_norm)
        noise = rng.normal(0.0, params.sigma * params.clip_norm / params.lot_size,
                           size=mean.shape)
        assert model.param_count > 6 * NOISE_CHUNK
        assert result.tobytes() == (mean + noise).astype(np.float32).tobytes()

    def test_bit_reproducible_with_fixed_seed(self):
        _, data, model, params, _ = _setup_step(seed=5)
        a = dp_sgd_step(model.copy(), data, params, np.random.default_rng(42),
                        PrivacyAccountant(10, 1))
        b = dp_sgd_step(model.copy(), data, params, np.random.default_rng(42),
                        PrivacyAccountant(10, 1))
        assert np.array_equal(a, b)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PrivacyParams(1.5, 1e-5, 1.0, 10, 100)
        with pytest.raises(ValueError):
            PrivacyParams(0.5, 1e-5, 1.0, 200, 100)
        with pytest.raises(ValueError):
            PrivacyParams(0.5, 1e-5, -1.0, 10, 100)
