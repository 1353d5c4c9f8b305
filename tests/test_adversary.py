import numpy as np
import pytest

from faircollab.adversary import (AdversaryConfig, AdversaryKind, Detection, detection_report,
                                  freerider_gradients, freerider_label, gan_attacker_setup)
from faircollab.numerics import make_blobs
from faircollab.protocol import Event


def release_of(n, dim=4):
    return np.zeros((n, dim))


class TestFreeriderLabels:
    def test_roughly_uniform_histogram(self):
        # Chi-squared sanity check against uniform over 10 classes.
        rng = np.random.default_rng(0)
        labels = freerider_label(release_of(10_000), 10, rng)
        counts = np.bincount(labels, minlength=10)
        expected = 1000.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 9 dof; p > 0.001 corresponds to chi2 below ~27.9.
        assert chi2 < 27.9

    def test_expected_match_rate_is_one_over_classes(self):
        rng = np.random.default_rng(1)
        majority = rng.integers(0, 10, size=20_000)
        labels = freerider_label(release_of(20_000), 10, rng)
        rate = float(np.mean(labels == majority))
        assert rate == pytest.approx(0.1, abs=0.01)
        # Far below any reasonable ban threshold before normalisation.
        assert rate < 0.5

    def test_degenerate_single_class(self):
        labels = freerider_label(release_of(50), 1, np.random.default_rng(2))
        assert np.all(labels == 0)


class TestFreeriderGradients:
    def test_random_kind_scale_zero_is_zero(self):
        g = freerider_gradients(AdversaryKind.FREE_RIDER_RANDOM_GRAD, 20, 0.0,
                                np.random.default_rng(3))
        assert np.array_equal(g, np.zeros(20))

    def test_random_kind_scale(self):
        g = freerider_gradients(AdversaryKind.FREE_RIDER_RANDOM_GRAD, 50_000, 0.5,
                                np.random.default_rng(4))
        assert np.std(g) == pytest.approx(0.5, rel=0.05)

    def test_crafted_echoes_received_aggregate(self):
        echo = np.linspace(-1, 1, 30)
        g = freerider_gradients(AdversaryKind.FREE_RIDER_CRAFTED_GRAD, 30, 0.01,
                                np.random.default_rng(5), echo=echo)
        assert np.max(np.abs(g - echo)) < 0.1

    def test_crafted_without_history_is_noise_around_zero(self):
        g = freerider_gradients(AdversaryKind.FREE_RIDER_CRAFTED_GRAD, 30, 0.01,
                                np.random.default_rng(6))
        assert np.max(np.abs(g)) < 0.1

    def test_gan_kind_rejected(self):
        with pytest.raises(ValueError):
            freerider_gradients(AdversaryKind.GAN_ATTACKER, 10, 1.0,
                                np.random.default_rng(7))

    def test_random_label_kind_publishes_random_gradients(self):
        label = freerider_gradients(AdversaryKind.FREE_RIDER_RANDOM_LABEL, 40, 0.3,
                                    np.random.default_rng(11))
        grad = freerider_gradients(AdversaryKind.FREE_RIDER_RANDOM_GRAD, 40, 0.3,
                                   np.random.default_rng(11))
        assert np.array_equal(label, grad)


class TestAdversaryConfig:
    def test_only_gan_attacker_is_not_a_free_rider(self):
        assert [k for k in AdversaryKind if not k.free_rider] == [AdversaryKind.GAN_ATTACKER]

    @pytest.mark.parametrize("party, expected", [(-1, 3), (0, 0), (2, 2)])
    def test_index(self, party, expected):
        assert AdversaryConfig(AdversaryKind.GAN_ATTACKER, party=party).index(4) == expected


class TestGanAttackerSetup:
    def test_disjoint_split(self):
        rng = np.random.default_rng(8)
        full = make_blobs(600, 10, 8, rng)
        adv, victims = gan_attacker_setup(full, range(5), range(5, 10), 3, rng)
        assert set(np.unique(adv.labels)).issubset(set(range(5, 10)))
        for v in victims:
            assert set(np.unique(v.labels)).issubset(set(range(5)))
        assert len(victims) == 3

    def test_overlapping_split_rejected(self):
        rng = np.random.default_rng(9)
        full = make_blobs(100, 4, 3, rng)
        with pytest.raises(ValueError):
            gan_attacker_setup(full, {0, 1}, {1, 2}, 2, rng)

    def test_empty_victim_set_rejected(self):
        rng = np.random.default_rng(10)
        full = make_blobs(100, 4, 3, rng)
        with pytest.raises(ValueError):
            gan_attacker_setup(full, (), {1, 2}, 2, rng)


class TestDetectionReport:
    def test_init_exclusion(self):
        events = [Event("excluded", "p03", 0)]
        advs = {"p03": AdversaryConfig(AdversaryKind.FREE_RIDER_RANDOM_LABEL)}
        [rec] = detection_report(events, advs)
        assert rec == Detection("p03", AdversaryKind.FREE_RIDER_RANDOM_LABEL, 0)

    def test_token_drain_at_round_seven(self):
        events = [Event("token_exhausted", "p02", 7)]
        advs = {"p02": AdversaryConfig(AdversaryKind.FREE_RIDER_RANDOM_GRAD)}
        [rec] = detection_report(events, advs)
        assert rec.round == 7

    def test_earliest_event_wins(self):
        events = [Event("token_exhausted", "p01", 9),
                  Event("excluded", "p01", 4)]
        advs = {"p01": AdversaryConfig(AdversaryKind.GAN_ATTACKER)}
        [rec] = detection_report(events, advs)
        assert rec.round == 4

    def test_honest_only_run(self):
        advs = {"p01": AdversaryConfig(AdversaryKind.GAN_ATTACKER)}
        [rec] = detection_report([], advs)
        assert rec == Detection("p01", AdversaryKind.GAN_ATTACKER, None)

    def test_unrelated_events_ignored(self):
        events = [Event("budget_exhausted", "p01", 2),
                  Event("excluded", "p00", 3)]
        advs = {"p01": AdversaryConfig(AdversaryKind.FREE_RIDER_CRAFTED_GRAD)}
        [rec] = detection_report(events, advs)
        assert rec.round is None
