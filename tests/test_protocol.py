import numpy as np
import pytest

from faircollab.adversary import AdversaryConfig, AdversaryKind
from faircollab.credibility import credibility_update
from faircollab.ledger import Ledger, verify_chain
from faircollab.numerics import (Dataset, apply_updates, blob_centers, evaluate, make_blobs,
                                 train_sgd)
from faircollab.protocol import (BATCH_SIZE, LEARNING_RATE, LR_DECAY, ProtocolConfig,
                                 ProtocolError, RunTrace, build_parties, pretrain, run_baseline,
                                 run_fdpddl, run_initialisation, run_update_round)

FAST = dict(augment_replication=20, dp_steps_per_round=2, download_fraction=0.85)


def blob_setup(seed, n=4, per_party=120, spread=0.12, test_size=150):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 100]))
    centers = blob_centers(10, 32, rng)
    datasets = [make_blobs(per_party, 10, 32, rng, spread=spread, centers=centers)
                for _ in range(n)]
    test = make_blobs(test_size, 10, 32, rng, spread=spread, centers=centers)
    return datasets, test


def fresh_parties(seed, config, datasets, lambdas=None, adversaries=None):
    lambdas = lambdas or [0.1] * len(datasets)
    return build_parties(datasets, lambdas, config,
                         np.random.SeedSequence([seed, 100, 7]), adversaries)


class TestBuildAndPretrain:
    def test_common_initialisation(self):
        datasets, _ = blob_setup(0)
        parties = fresh_parties(0, ProtocolConfig(**FAST), datasets)
        base = parties[0].model.params
        assert all(np.array_equal(p.model.params, base) for p in parties)

    def test_zero_epochs_keeps_models_identical(self):
        datasets, test = blob_setup(1)
        parties = fresh_parties(1, ProtocolConfig(**FAST), datasets)
        pretrain(parties, test, epochs=0)
        base = parties[0].model.params
        assert all(np.array_equal(p.model.params, base) for p in parties)

    def test_standalone_beats_chance_on_blobs(self):
        datasets, test = blob_setup(2)
        config = ProtocolConfig(**FAST)
        parties = fresh_parties(2, config, datasets)
        pretrain(parties, test)
        assert all(p.standalone_accuracy > 0.2 for p in parties)  # chance is 0.1

    def test_more_data_helps_median_over_seeds(self):
        wins = []
        for seed in range(5):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
            centers = blob_centers(10, 32, rng)
            small = make_blobs(60, 10, 32, rng, spread=0.12, centers=centers)
            large = make_blobs(360, 10, 32, rng, spread=0.12, centers=centers)
            test = make_blobs(200, 10, 32, rng, spread=0.12, centers=centers)
            config = ProtocolConfig(**FAST)
            parties = fresh_parties(seed, config, [small, large])
            pretrain(parties, test)
            wins.append(parties[1].standalone_accuracy >= parties[0].standalone_accuracy)
        assert np.median(wins) == 1.0

    def test_sharing_level_validated(self):
        datasets, _ = blob_setup(3)
        with pytest.raises(ProtocolError):
            fresh_parties(3, ProtocolConfig(**FAST), datasets, lambdas=[0.0, 0.1, 0.1, 0.1])


class TestInitialisation:
    def _init(self, seed, adversaries=None, datasets=None):
        if datasets is None:
            datasets, test = blob_setup(seed, per_party=200)
        else:
            test = None
        config = ProtocolConfig(**FAST)
        parties = fresh_parties(seed, config, datasets, adversaries=adversaries)
        pretrain(parties, test)
        trace = RunTrace("fdpddl")
        ledger = Ledger()
        credible, genesis = run_initialisation(parties, ledger, config, trace)
        return parties, credible, genesis, ledger, trace

    def test_identical_data_symmetric_credibility(self):
        rng = np.random.default_rng(np.random.SeedSequence([5, 102]))
        centers = blob_centers(10, 32, rng)
        shared = make_blobs(200, 10, 32, rng, spread=0.12, centers=centers)
        datasets = [Dataset(shared.features.copy(), shared.labels.copy(), 10)
                    for _ in range(4)]
        parties, credible, _, _, _ = self._init(5, datasets=datasets)
        assert credible == {p.id for p in parties}
        for p in parties:
            for score in p.credibility.scores.values():
                assert score == pytest.approx(1.0 / 3.0, abs=0.12)

    def test_genesis_records_tokens_and_verifies(self):
        parties, credible, genesis, ledger, _ = self._init(6)
        assert genesis.index == 0
        assert verify_chain(ledger.chain)
        expected = int(0.1 * parties[0].model.param_count * (len(credible) - 1))
        for pid in credible:
            assert ledger.balance(pid) == expected

    def _init_with_free_rider(self):
        datasets, _ = blob_setup(7, per_party=300)
        rng = np.random.default_rng(1)
        datasets[3] = Dataset(rng.uniform(0, 1, (300, 32)), rng.integers(0, 10, 300), 10)
        advs = {3: AdversaryConfig(AdversaryKind.FREE_RIDER_RANDOM_LABEL)}
        return self._init(7, adversaries=advs, datasets=datasets)

    def test_free_rider_excluded_here(self):
        parties, credible, _, _, trace = self._init_with_free_rider()
        assert "p03" not in credible
        assert any(e.kind == "excluded" and e.party == "p03" and e.stage == "init"
                   for e in trace.events)

    def test_exclusion_punished_in_genesis(self):
        _, credible, genesis, ledger, _ = self._init_with_free_rider()
        punishments = [tx for tx in genesis.transactions if tx.kind == "punishment"]
        assert [tx.payload for tx in punishments] == [
            {"against": "p03", "reason": "non-credible at initialisation", "round": 0}]
        assert punishments[0].author == min(credible)
        assert ledger.chain == [genesis] and not ledger.pending
        assert verify_chain(ledger.chain)

    def test_accountants_debited(self):
        parties, _, _, _, _ = self._init(8)
        for p in parties:
            spent = p.accountant_init.spent()
            assert spent[0] == pytest.approx(4.0)
            assert spent[1] == pytest.approx(1e-5)


class TestUpdateRound:
    def _after_init(self, seed=9, **overrides):
        datasets, test = blob_setup(seed, per_party=200)
        config = ProtocolConfig(**{**FAST, **overrides})
        parties = fresh_parties(seed, config, datasets)
        pretrain(parties, test)
        trace = RunTrace("fdpddl")
        ledger = Ledger()
        credible, _ = run_initialisation(parties, ledger, config, trace)
        return parties, credible, ledger, config, trace, test

    def test_round_state_contents(self):
        parties, credible, ledger, config, trace, test = self._after_init()
        state = run_update_round(parties, credible, ledger, 1, config, trace, test)
        assert state.round_index == 1
        assert state.block is not None and state.block.index == 1
        assert state.credible == credible
        assert set(state.evaluations) == credible
        assert verify_chain(ledger.chain)

    def test_credibility_update_wiring(self):
        # The new scores must be the sigmoid update applied to the prior
        # normalised score for every scored peer, renormalised over peers.
        parties, credible, ledger, config, trace, test = self._after_init()
        prior = {p.id: dict(p.credibility.scores) for p in parties}
        state = run_update_round(parties, credible, ledger, 1, config, trace, test)
        assert state.credible == credible  # nobody banned: one normalisation pass
        for p in parties:
            acc, acc_without = state.evaluations[p.id]
            raw = {peer: credibility_update(prior[p.id][peer], acc, acc_j)
                   for peer, acc_j in acc_without.items()}
            for peer, value in raw.items():
                assert p.credibility.scores[peer] == pytest.approx(
                    value / sum(raw.values()), abs=1e-12)

    def test_token_conservation_over_rounds(self):
        parties, credible, ledger, config, trace, test = self._after_init()
        total = ledger.total_tokens()
        for rnd in range(1, 4):
            state = run_update_round(parties, credible, ledger, rnd, config, trace, test)
            credible = state.credible
            assert ledger.total_tokens() == total

    def test_budget_exhaustion_stops_publishing(self):
        parties, credible, ledger, config, trace, test = self._after_init(
            dp_steps_per_round=1000)
        state = run_update_round(parties, credible, ledger, 1, config, trace, test)
        assert any(e.kind == "budget_exhausted" for e in trace.events)
        # Next round nobody can publish, so nothing changes hands.
        state = run_update_round(parties, credible, ledger, 2, config, trace, test)
        assert all(not sellers for sellers in state.received.values())
        assert all(p.publishing is False for p in parties)

    def test_purchases_happen_between_credible_parties(self):
        parties, credible, ledger, config, trace, test = self._after_init()
        state = run_update_round(parties, credible, ledger, 1, config, trace, test)
        sold = sum(len(u) for sellers in state.received.values() for u in sellers.values())
        assert sold > 0
        cap = int(0.1 * parties[0].model.param_count)
        for sellers in state.received.values():
            for update in sellers.values():
                assert len(update) <= cap


class TestFullRuns:
    def test_trace_determinism(self):
        def one():
            datasets, test = blob_setup(11)
            config = ProtocolConfig(**FAST)
            parties = fresh_parties(11, config, datasets)
            trace, ledger = run_fdpddl(parties, config, rounds=3, test_data=test)
            return trace, ledger
        t1, l1 = one()
        t2, l2 = one()
        assert t1.accuracy_rows == t2.accuracy_rows
        assert t1.final_accuracies == t2.final_accuracies
        assert [b.block_hash for b in l1.chain] == [b.block_hash for b in l2.chain]

    def test_excluded_party_absent_from_later_transactions(self):
        datasets, test = blob_setup(12, per_party=300)
        rng = np.random.default_rng(2)
        datasets[3] = Dataset(rng.uniform(0, 1, (300, 32)), rng.integers(0, 10, 300), 10)
        advs = {3: AdversaryConfig(AdversaryKind.FREE_RIDER_RANDOM_LABEL)}
        config = ProtocolConfig(**FAST)
        parties = fresh_parties(12, config, datasets, adversaries=advs)
        trace, ledger = run_fdpddl(parties, config, rounds=3, test_data=test)
        exclusions = [e for e in trace.events if e.kind == "excluded" and e.party == "p03"]
        assert exclusions
        banned_round = exclusions[0].round
        for block in ledger.chain:
            if block.index <= banned_round:
                continue
            for tx in block.transactions:
                assert tx.author != "p03"
                assert tx.payload.get("seller") != "p03"
                assert tx.payload.get("buyer") != "p03"

    def test_final_accuracies_cover_all_parties(self):
        datasets, test = blob_setup(13)
        config = ProtocolConfig(**FAST)
        parties = fresh_parties(13, config, datasets)
        trace, _ = run_fdpddl(parties, config, rounds=2, test_data=test)
        assert set(trace.final_accuracies) == {p.id for p in parties}


class TestBaselines:
    def test_standalone_has_no_cross_terms(self):
        datasets, test = blob_setup(14)
        config = ProtocolConfig(**FAST)
        parties = fresh_parties(14, config, datasets)
        trace = run_baseline("standalone", parties, rounds=2, test_data=test)

        # Recreate one party in isolation with the same seeds; its final
        # accuracy must match exactly (no influence from other parties).
        solo = fresh_parties(14, config, datasets)[0]
        pretrain([solo], test)
        solo.sgd_steps += train_sgd(solo.model, solo.train_data, 2, LEARNING_RATE, LR_DECAY,
                                    BATCH_SIZE, solo.rng, solo.sgd_steps)
        assert trace.final_accuracies["p00"] == pytest.approx(evaluate(solo.model, test))

    def test_centralised_beats_best_standalone_median(self):
        wins = []
        for seed in range(3):
            datasets, test = blob_setup(seed + 30, per_party=100)
            config = ProtocolConfig(**FAST)
            central = run_baseline("centralised", fresh_parties(seed + 30, config, datasets),
                                   rounds=3, test_data=test)
            standalone = run_baseline("standalone", fresh_parties(seed + 30, config, datasets),
                                      rounds=3, test_data=test)
            wins.append(min(central.final_accuracies.values())
                        >= max(standalone.standalone_accuracies.values()))
        assert np.median(wins) == 1.0

    def test_dssgd_converges_to_similar_models(self):
        # Lower spread of final accuracies than the credibility-gated runs.
        rng = np.random.default_rng(np.random.SeedSequence([15, 103]))
        centers = blob_centers(10, 32, rng)
        sizes = [60, 120, 240, 330]
        datasets = [make_blobs(s, 10, 32, rng, spread=0.12, centers=centers) for s in sizes]
        test = make_blobs(200, 10, 32, rng, spread=0.12, centers=centers)
        config = ProtocolConfig(**FAST)
        dssgd = run_baseline("distributed_dssgd", fresh_parties(15, config, datasets),
                             rounds=4, test_data=test)
        fdp, _ = run_fdpddl(fresh_parties(15, config, datasets), config, rounds=4,
                            test_data=test)
        spread_d = np.std(list(dssgd.final_accuracies.values()))
        spread_f = np.std(list(fdp.final_accuracies.values()))
        assert spread_d < spread_f

    def test_unknown_framework_rejected(self):
        datasets, test = blob_setup(16)
        config = ProtocolConfig(**FAST)
        with pytest.raises(ProtocolError):
            run_baseline("federated_averaging", fresh_parties(16, config, datasets),
                         rounds=1, test_data=test)


class TestUpdateStageExclusion:
    def test_violent_free_rider_banned_and_rolled_back(self):
        # This free-rider owns real data (so it labels honestly and slips
        # through initialisation) but sells huge random gradients that
        # wreck its buyers' validation accuracy; the leave-one-out test
        # convicts it and the buyers strip its updates from their models.
        datasets, test = blob_setup(40, per_party=300)
        advs = {3: AdversaryConfig(AdversaryKind.FREE_RIDER_RANDOM_GRAD,
                                   crafted_scale=0.6)}
        config = ProtocolConfig(augment_replication=50, dp_steps_per_round=4,
                                download_fraction=0.85)
        parties = fresh_parties(40, config, datasets, adversaries=advs)
        pretrain(parties, test)
        trace = RunTrace("fdpddl")
        ledger = Ledger()
        credible, _ = run_initialisation(parties, ledger, config, trace)
        if "p03" not in credible:
            pytest.skip("already excluded at initialisation for this seed")
        honest = [p for p in parties if p.id != "p03"]
        snapshots = {p.id: p.model.params.copy() for p in honest}
        state = run_update_round(parties, credible, ledger, 1, config, trace, test)
        assert "p03" not in state.credible
        assert any(e.kind == "excluded" and e.party == "p03" and e.stage == "update"
                   for e in trace.events)
        # Punishment transaction recorded in the sealed block.
        kinds = [tx.kind for tx in state.block.transactions]
        assert "punishment" in kinds
        # Rollback: the banned seller's update is gone from buyer models,
        # so the net round delta equals own training plus honest buys only.
        for p in honest:
            own_and_honest = p.model.params - snapshots[p.id]
            assert np.all(np.isfinite(own_and_honest))
            bought_back = state.received.get(p.id, {}).get("p03")
            if bought_back is not None:
                # Adding the banned update back must reproduce the
                # pre-rollback parameters recorded in acc evaluations.
                probe = p.model.copy()
                apply_updates(probe, [bought_back])
                acc_with = evaluate(probe, p.val_data)
                acc_recorded, _ = state.evaluations[p.id]
                assert acc_with == pytest.approx(acc_recorded, abs=1e-12)
