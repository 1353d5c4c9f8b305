import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircollab.credibility import (ConsensusError, consensus_exclude, credibility_update,
                                    default_threshold, download_allocation, init_credibility,
                                    init_tokens, majority_vote, normalize_and_screen,
                                    sigmoid_map, supplement)

import oracles

HAND_LABELS = np.array([[1, 1, 0],
                        [2, 2, 2],
                        [0, 1, 0],
                        [1, 1, 1]])


class TestInitTokens:
    def test_ten_percent_publisher_earns_ten_thousand(self):
        assert init_tokens(0.1, 100_000, 2) == 10_000

    def test_formula_evaluation(self):
        assert init_tokens(0.1, 1000, 4) == 300

    def test_zero_sharing_gets_nothing(self):
        assert init_tokens(0.0, 5000, 3) == 0

    def test_single_party_rejected(self):
        with pytest.raises(ValueError):
            init_tokens(0.1, 100, 1)


class TestMajorityVote:
    def test_hand_counted(self):
        assert list(majority_vote(HAND_LABELS)) == [1, 2, 0, 1]

    def test_unanimity(self):
        assert list(majority_vote(np.full((5, 4), 3))) == [3] * 5

    def test_two_party_tie_takes_smaller_label(self):
        assert list(majority_vote(np.array([[0, 1]]))) == [0]

    def test_tie_rule_exhaustive_two_columns(self):
        for left in range(3):
            for right in range(3):
                labels = np.array([[left, right]])
                assert majority_vote(labels)[0] == min(left, right) if left != right \
                    else majority_vote(labels)[0] == left

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_vote(np.zeros((0, 2), dtype=int))

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            rows = rng.integers(0, 5, size=(int(rng.integers(1, 20)), int(rng.integers(1, 5))))
            assert list(majority_vote(rows)) == oracles.majority(rows.tolist())


class TestInitCredibility:
    def test_hand_counted_column(self):
        raw = init_credibility(HAND_LABELS, ("a", "b", "c"))
        assert raw["c"] == pytest.approx(0.75)  # column [0,2,0,1] matches 3 of 4

    def test_perfect_and_never_matching(self):
        raw = init_credibility(np.array([[1, 1, 0], [2, 2, 0], [0, 0, 1]]), ("a", "b", "c"))
        assert raw["a"] == 1.0 and raw["b"] == 1.0
        assert raw["c"] == 0.0

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            rows = rng.integers(0, 4, size=(int(rng.integers(1, 20)), int(rng.integers(2, 6))))
            ids = tuple(f"p{i}" for i in range(rows.shape[1]))
            raw = init_credibility(rows, ids)
            majority = oracles.majority(rows.tolist())
            for col, pid in enumerate(ids):
                matches = sum(1 for r in range(rows.shape[0]) if rows[r, col] == majority[r])
                assert raw[pid] == pytest.approx(matches / rows.shape[0])


class TestNormalizeAndScreen:
    def test_simple_normalization(self):
        scores, reports = normalize_and_screen({"x": 0.6, "y": 0.2}, 0.1)
        assert scores["x"] == pytest.approx(0.75)
        assert scores["y"] == pytest.approx(0.25)
        assert reports == set()

    def test_default_threshold_value(self):
        assert default_threshold(4) == pytest.approx(1.0 / 6.0)

    def test_three_equal_peers_not_reported(self):
        scores, reports = normalize_and_screen({"a": 0.5, "b": 0.5, "c": 0.5},
                                               default_threshold(4))
        for v in scores.values():
            assert v == pytest.approx(1.0 / 3.0)
        assert reports == set()

    def test_low_scorer_reported(self):
        _, reports = normalize_and_screen({"a": 0.9, "b": 0.9, "c": 0.05},
                                          default_threshold(4))
        assert reports == {"c"}

    def test_all_zero_reports_everyone(self):
        scores, reports = normalize_and_screen({"a": 0.0, "b": 0.0}, 0.1)
        assert scores == {}
        assert reports == {"a", "b"}

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        raw = {f"p{i}": float(v) for i, v in enumerate(rng.uniform(0.01, 1, 6))}
        scores, _ = normalize_and_screen(raw, 0.01)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)


class TestConsensusExclude:
    def test_three_of_four_removes(self):
        reports = {"a": {"x"}, "b": {"x"}, "c": {"x"}, "x": set()}
        credible, removed = consensus_exclude(reports, {"a", "b", "c", "x"})
        assert removed == ["x"]
        assert credible == {"a", "b", "c"}

    def test_two_of_four_keeps(self):
        reports = {"a": {"x"}, "b": {"x"}, "c": set(), "x": set()}
        credible, removed = consensus_exclude(reports, {"a", "b", "c", "x"})
        assert removed == []
        assert credible == {"a", "b", "c", "x"}

    def test_no_reports_no_change(self):
        credible, removed = consensus_exclude({}, {"a", "b"})
        assert credible == {"a", "b"} and removed == []

    def test_reports_from_banned_parties_ignored(self):
        # x is not credible, so its report against a never counts.
        reports = {"x": {"a"}, "b": {"x"}, "c": {"x"}, "d": {"x"}}
        credible, removed = consensus_exclude(reports, {"a", "b", "c", "d", "x"})
        assert removed == ["x"]
        assert "a" in credible

    def test_idempotent_for_fixed_reports(self):
        rng = np.random.default_rng(3)
        ids = [f"p{i}" for i in range(6)]
        for _ in range(200):
            reports = {i: {j for j in ids if j != i and rng.random() < 0.3} for i in ids}
            try:
                once, _ = consensus_exclude(reports, set(ids))
                twice, extra = consensus_exclude(reports, once)
            except ConsensusError:
                continue
            assert once == twice and extra == []

    def test_emptying_rejected(self):
        # Everyone accuses everyone else, so each party crosses the bar.
        reports = {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b"}}
        with pytest.raises(ConsensusError):
            consensus_exclude(reports, {"a", "b", "c"})


class TestDownloadAllocation:
    def test_budget_branch(self):
        assert download_allocation(0.3, 100, 50) == 30

    def test_seller_cap_branch(self):
        assert download_allocation(0.8, 100, 50) == 50

    def test_zero_credibility(self):
        assert download_allocation(0.0, 100, 50) == 0

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            c = float(rng.uniform(0, 1))
            d = int(rng.integers(0, 500))
            lam = float(rng.uniform(0.05, 0.5))
            glen = int(rng.integers(10, 2000))
            capacity = int(lam * glen)
            assert download_allocation(c, d, capacity) == oracles.allocation(c, d, lam, glen)


class TestSupplement:
    def test_zero_gap_no_allocation(self):
        assert supplement(10, {"a": 10}, {"a": 40}, {"a": 1.0}) == {}

    def test_single_supplier(self):
        extra = supplement(25, {}, {"a": 40}, {"a": 1.0})
        assert extra == {"a": 25}

    def test_proportional_with_caps(self):
        extra = supplement(30, {}, {"a": 100, "b": 100}, {"a": 2.0, "b": 1.0})
        assert extra == {"a": 20, "b": 10}

    def test_never_exceeds_capacity_or_budget(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            peers = [f"p{i}" for i in range(int(rng.integers(1, 5)))]
            caps = {p: int(rng.integers(0, 50)) for p in peers}
            rec = {p: int(rng.integers(0, caps[p] + 1)) for p in peers}
            cred = {p: float(rng.uniform(0, 1)) for p in peers}
            budget = int(rng.integers(0, 120))
            extra = supplement(budget, rec, caps, cred)
            for p, amount in extra.items():
                assert amount <= caps[p] - rec.get(p, 0)
            assert sum(rec.values()) + sum(extra.values()) <= max(budget, sum(rec.values()))

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            peers = [f"p{i}" for i in range(int(rng.integers(1, 6)))]
            caps = {p: int(rng.integers(0, 40)) for p in peers}
            rec = {p: int(rng.integers(0, caps[p] + 1)) for p in peers}
            cred = {p: float(rng.choice([0.0, 0.25, 0.5, 1.0, 2.0])) for p in peers}
            budget = int(rng.integers(0, 100))
            assert supplement(budget, rec, caps, cred) == \
                oracles.supplement(budget, rec, caps, cred)


class TestOrderLines:
    @given(st.lists(st.tuples(st.floats(0.001, 1.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=7),
           st.integers(1, 5000), st.data())
    @settings(max_examples=200, deadline=None)
    def test_no_line_exceeds_seller_capacity(self, sellers, grad_len, data):
        # A buyer's line to seller j is allocation plus supplement, as the
        # update round builds it. It never exceeds int(lambda_j * |grad|),
        # so ranking a seller's delta up to that capacity covers every line.
        lams = {f"p{i}": lam for i, (lam, _) in enumerate(sellers)}
        scores = {f"p{i}": score for i, (_, score) in enumerate(sellers)}
        caps = {j: int(lam * grad_len) for j, lam in lams.items() if int(lam * grad_len) > 0}
        budget = data.draw(st.integers(1, 2 * sum(caps.values()) + 10))
        alloc = {j: download_allocation(scores[j], budget, caps[j]) for j in caps}
        extra = supplement(budget, alloc, caps, {j: scores[j] for j in caps})
        for j in caps:
            assert alloc[j] + extra.get(j, 0) <= caps[j]


class TestCredibilityUpdate:
    def test_sigmoid_midpoint_exact(self):
        assert sigmoid_map(0.5) == 0.5

    def test_sigmoid_value_at_point_six(self):
        assert sigmoid_map(0.6) == pytest.approx(0.8175744762, abs=1e-9)

    def test_no_impact_peer_drifts_to_half(self):
        out = credibility_update(0.3, 0.8, 0.8)
        assert out == pytest.approx((0.3 + 0.5) / 2)

    def test_negative_contributor_penalised(self):
        out = credibility_update(0.5, 0.6, 0.9)  # removing the peer helps
        assert out < 0.5

    def test_positive_contributor_rewarded(self):
        out = credibility_update(0.5, 0.9, 0.6)
        assert out > 0.5

    def test_zero_zero_accuracy_neutral(self):
        assert credibility_update(0.4, 0.0, 0.0) == pytest.approx((0.4 + 0.5) / 2)

    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    @settings(max_examples=80, deadline=None)
    def test_sigmoid_symmetry_and_monotonicity(self, x, y):
        assert sigmoid_map(x) + sigmoid_map(1.0 - x) == pytest.approx(1.0, abs=1e-12)
        if x < y:
            assert sigmoid_map(x) < sigmoid_map(y)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=80, deadline=None)
    def test_update_is_contraction(self, c_prev, acc, acc_j):
        out = credibility_update(c_prev, acc, acc_j)
        total = acc + acc_j
        f = sigmoid_map(acc / total) if total > 0 else 0.5
        lo, hi = min(c_prev, f), max(c_prev, f)
        assert lo - 1e-12 <= out <= hi + 1e-12
        assert abs(out - f) <= abs(c_prev - f) + 1e-12

