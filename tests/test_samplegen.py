import numpy as np
import pytest

from faircollab.numerics import Dataset
from faircollab.privacy import BudgetExhaustedError, PrivacyAccountant
from faircollab.samplegen import (SampleRelease, augment, generate_release,
                                  noisy_class_prototypes)


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


class TestReplicaFreeRelease:
    @pytest.mark.parametrize("replication", [1, 3, 100])
    @pytest.mark.parametrize("prototype_noise", [None, 0.0])
    def test_matches_release_over_replicated_copy(self, replication, prototype_noise):
        data = tabular_data(np.random.default_rng(17), n=60, classes=4)
        ours = generate_release(data, 0.5, (4.0, 1e-5), np.random.default_rng(3),
                                prototype_noise=prototype_noise, release_count=25,
                                replication=replication)
        oracle = generate_release(augment(data, replication), 0.5, (4.0, 1e-5),
                                  np.random.default_rng(3), prototype_noise=prototype_noise,
                                  release_count=25)
        np.testing.assert_allclose(ours.samples, oracle.samples, rtol=0, atol=1e-12)
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
        rng = np.random.default_rng(9)
        data = tabular_data(rng, n=600, classes=10)
        release = generate_release(data, 0.1, (4.0, 1e-5), rng)
        assert release.count == 60

    def test_count_scales_with_lambda(self):
        rng = np.random.default_rng(10)
        data = tabular_data(rng, n=200)
        r1 = generate_release(data, 0.2, (4.0, 1e-5), np.random.default_rng(0))
        r2 = generate_release(data, 0.4, (4.0, 1e-5), np.random.default_rng(0))
        assert r2.count == 2 * r1.count

    def test_zero_noise_hook_is_prototypes(self):
        rng = np.random.default_rng(11)
        data = tabular_data(rng, n=50, classes=2)
        release = generate_release(data, 0.5, (4.0, 1e-5), np.random.default_rng(1),
                                   prototype_noise=0.0, jitter_std=0.0)
        protos, _ = noisy_class_prototypes(data, (4.0, 1e-5),
                                           np.random.default_rng(1), noise_override=0.0)
        for row in release.samples:
            assert any(np.allclose(row, protos[c]) for c in range(2))

    def test_deterministic_for_same_seed(self):
        rng = np.random.default_rng(12)
        data = tabular_data(rng, n=80)
        a = generate_release(data, 0.25, (4.0, 1e-5), np.random.default_rng(5))
        b = generate_release(data, 0.25, (4.0, 1e-5), np.random.default_rng(5))
        assert np.array_equal(a.samples, b.samples)

    def test_no_raw_row_leaks(self):
        rng = np.random.default_rng(13)
        data = tabular_data(rng, n=60)
        release = generate_release(data, 0.5, (4.0, 1e-5), rng, jitter_std=0.05)
        assert release.count > 0
        for row in release.samples:
            assert not any(np.array_equal(row, raw) for raw in data.features)

    def test_release_carries_no_labels(self):
        release = SampleRelease(np.zeros((3, 2)), "p00")
        assert not hasattr(release, "labels")

    def test_accountant_debited_and_refusal(self):
        rng = np.random.default_rng(14)
        data = tabular_data(rng, n=40)
        acct = PrivacyAccountant(4.0, 1e-5, "basic")
        generate_release(data, 0.1, (4.0, 1e-5), rng, accountant=acct)
        assert acct.exhausted()
        spent = acct.spent()
        assert spent[0] == pytest.approx(4.0)
        assert spent[1] == pytest.approx(1e-5)
        with pytest.raises(BudgetExhaustedError):
            generate_release(data, 0.1, (4.0, 1e-5), rng, accountant=acct)

    def test_release_count_override(self):
        rng = np.random.default_rng(15)
        data = tabular_data(rng, n=500)
        release = generate_release(data, 0.1, (4.0, 1e-5), rng, release_count=12)
        assert release.count == 12

    def test_invalid_sharing_level(self):
        rng = np.random.default_rng(16)
        data = tabular_data(rng)
        for lam in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                generate_release(data, lam, (4.0, 1e-5), rng)


class TestReleaseWireFormat:
    def test_bytes_round_trip(self):
        rng = np.random.default_rng(20)
        release = SampleRelease(rng.normal(size=(7, 5)), "p02")
        again = SampleRelease.from_bytes(release.to_bytes())
        assert again.party_id == "p02"
        assert np.array_equal(again.samples, release.samples)

    def test_travels_through_payload_envelope(self):
        from faircollab.ledger import KeyPair, decrypt_payload, encrypt_payload
        rng = np.random.default_rng(21)
        kp = KeyPair.generate(rng)
        release = SampleRelease(rng.uniform(size=(4, 3)), "p00")
        payload = encrypt_payload(release.to_bytes(), kp.encrypt_key_hex,
                                  np.random.default_rng(22))
        again = SampleRelease.from_bytes(decrypt_payload(payload, kp))
        assert np.array_equal(again.samples, release.samples)

    def test_truncated_blob_rejected(self):
        release = SampleRelease(np.zeros((2, 2)), "p00")
        with pytest.raises(ValueError):
            SampleRelease.from_bytes(release.to_bytes()[:-4])
