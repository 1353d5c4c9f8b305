import numpy as np
import pytest

from faircollab.numerics import Dataset
from faircollab.privacy import BudgetExhaustedError, PrivacyAccountant
from faircollab.samplegen import augment, generate_release, noisy_class_prototypes


def tabular_data(rng, n=20, dim=5, classes=4):
    return Dataset(rng.uniform(size=(n, dim)), rng.integers(0, classes, n), classes)


class TestAugment:
    def test_identity_config(self):
        rng = np.random.default_rng(0)
        data = tabular_data(rng, n=6)
        out = augment(data, 1)
        assert np.array_equal(out.features, data.features)
        assert np.array_equal(out.labels, data.labels)

    def test_tabular_replication_count(self):
        rng = np.random.default_rng(2)
        data = tabular_data(rng, n=370)
        out = augment(data, 100)
        assert len(out) == 37_000

    def test_tabular_copies_verbatim(self):
        rng = np.random.default_rng(3)
        data = tabular_data(rng, n=4)
        out = augment(data, 3)
        assert np.array_equal(out.features[0:3], np.tile(data.features[0], (3, 1)))
        assert np.array_equal(out.labels[3:6], np.repeat(data.labels[1], 3))

    def test_label_histogram_scaled(self):
        rng = np.random.default_rng(4)
        data = tabular_data(rng, n=30, classes=3)
        out = augment(data, 7)
        base = np.bincount(data.labels, minlength=3)
        assert np.array_equal(np.bincount(out.labels, minlength=3), base * 7)

    def test_replication_below_one_rejected(self):
        with pytest.raises(ValueError):
            augment(tabular_data(np.random.default_rng(6)), 0)


class TestPrototypes:
    def test_zero_noise_hook_exact_means(self):
        rng = np.random.default_rng(7)
        data = tabular_data(rng, n=40, classes=3)
        protos, counts = noisy_class_prototypes(data, (1.0, 1e-5), rng, noise_override=0.0)
        for cls in range(3):
            if counts[cls]:
                assert np.allclose(protos[cls], data.features[data.labels == cls].mean(axis=0))

    def test_noise_scales_inversely_with_class_count(self):
        # A bigger class moves less under the same budget.
        rng = np.random.default_rng(8)
        features = np.vstack([np.zeros((200, 4)), np.zeros((5, 4))])
        labels = np.array([0] * 200 + [1] * 5)
        data = Dataset(features, labels, 2)
        big_errs, small_errs = [], []
        for trial in range(200):
            protos, _ = noisy_class_prototypes(data, (1.0, 1e-5),
                                               np.random.default_rng(trial))
            big_errs.append(np.abs(protos[0]).mean())
            small_errs.append(np.abs(protos[1]).mean())
        assert np.mean(big_errs) < np.mean(small_errs) / 10


def accountant():
    """An accountant holding exactly one (4.0, 1e-5) release."""
    return PrivacyAccountant(4.0, 1e-5)


class TestReplicaFreeRelease:
    @pytest.mark.parametrize("replication", [1, 3, 100])
    @pytest.mark.parametrize("prototype_noise", [None, 0.0])
    def test_matches_release_over_replicated_copy(self, replication, prototype_noise):
        data = tabular_data(np.random.default_rng(17), n=60, classes=4)
        ours = generate_release(data, 25, (4.0, 1e-5), np.random.default_rng(3), accountant(),
                                replication, prototype_noise)
        oracle = generate_release(augment(data, replication), 25, (4.0, 1e-5),
                                  np.random.default_rng(3), accountant(),
                                  prototype_noise=prototype_noise)
        np.testing.assert_allclose(ours, oracle, rtol=0, atol=1e-12)
        protos, counts = noisy_class_prototypes(data, (4.0, 1e-5), np.random.default_rng(4),
                                                prototype_noise, replication)
        oracle_protos, oracle_counts = noisy_class_prototypes(
            augment(data, replication), (4.0, 1e-5), np.random.default_rng(4), prototype_noise)
        assert np.array_equal(counts, oracle_counts)
        np.testing.assert_allclose(protos, oracle_protos, rtol=0, atol=1e-12)

    def test_replication_below_one_rejected(self):
        with pytest.raises(ValueError):
            noisy_class_prototypes(tabular_data(np.random.default_rng(18)), (1.0, 1e-5),
                                   np.random.default_rng(0), replication=0)


class TestGenerateRelease:
    def test_sample_count_follows_sharing_level(self):
        # The protocol sizes a release as floor(lambda * |D|).
        rng = np.random.default_rng(9)
        data = tabular_data(rng, n=600, classes=10)
        release = generate_release(data, int(0.1 * len(data)), (4.0, 1e-5), rng, accountant())
        assert release.shape == (60, data.dim)

    def test_zero_noise_hook_is_prototypes(self):
        rng = np.random.default_rng(11)
        data = tabular_data(rng, n=50, classes=2)
        release = generate_release(data, 25, (4.0, 1e-5), np.random.default_rng(1),
                                   accountant(), prototype_noise=0.0, jitter_std=0.0)
        protos, _ = noisy_class_prototypes(data, (4.0, 1e-5),
                                           np.random.default_rng(1), noise_override=0.0)
        for row in release:
            assert any(np.allclose(row, protos[c]) for c in range(2))

    def test_deterministic_for_same_seed(self):
        rng = np.random.default_rng(12)
        data = tabular_data(rng, n=80)
        a = generate_release(data, 20, (4.0, 1e-5), np.random.default_rng(5), accountant())
        b = generate_release(data, 20, (4.0, 1e-5), np.random.default_rng(5), accountant())
        assert np.array_equal(a, b)

    def test_no_raw_row_leaks(self):
        rng = np.random.default_rng(13)
        data = tabular_data(rng, n=60)
        release = generate_release(data, 30, (4.0, 1e-5), rng, accountant(), jitter_std=0.05)
        assert len(release) > 0
        for row in release:
            assert not any(np.array_equal(row, raw) for raw in data.features)

    def test_release_carries_no_labels(self):
        # A bare (count, dim) float array: nothing beside the features.
        rng = np.random.default_rng(15)
        data = tabular_data(rng, n=30)
        release = generate_release(data, 6, (4.0, 1e-5), rng, accountant())
        assert type(release) is np.ndarray
        assert release.dtype == np.float32 and release.shape == (6, data.dim)

    def test_accountant_debited_and_refusal(self):
        rng = np.random.default_rng(14)
        data = tabular_data(rng, n=40)
        acct = accountant()
        generate_release(data, 4, (4.0, 1e-5), rng, acct)
        assert acct.exhausted()
        spent = acct.spent()
        assert spent[0] == pytest.approx(4.0)
        assert spent[1] == pytest.approx(1e-5)
        assert acct.steps == {(1.0, 1e-5 / 4, 1.0): 4}  # ceil(4) chunks
        with pytest.raises(BudgetExhaustedError):
            generate_release(data, 4, (4.0, 1e-5), rng, acct)

    def test_count_below_one_rejected(self):
        rng = np.random.default_rng(16)
        acct = accountant()
        for count in (0, -1):
            with pytest.raises(ValueError):
                generate_release(tabular_data(rng), count=count, budget=(4.0, 1e-5), rng=rng,
                                 accountant=acct)
        assert acct.spent() == (0.0, 0.0)
