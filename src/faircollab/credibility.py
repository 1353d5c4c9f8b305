"""Reputation core: credibility scoring, token grants, and banning.

Initialisation: each party publishes synthetic samples, every party
labels every release, and the publisher scores each peer by how often the
peer's labels agree with the per-row majority. Scores are normalised over
the peers; anyone below the threshold c_th (default (1/n) * (2/3)) gets a
"non-credible" report, and a strict majority of reports removes a party
from the credible set.

Updates: after each exchange round, a peer's usefulness is the accuracy
ratio x = acc / (acc + acc_j) between validation accuracy with and
without that peer's gradients, squashed through

    f(x) = 1 / (1 + exp(-15 * (x - 0.5)))

and averaged with the previous credibility: c' = (c + f(x)) / 2.

Tokens are a flat currency: one token per gradient bought or sold, minted
once at initialisation as floor(lambda * |w| * (n - 1)).
"""

from __future__ import annotations

import math

import numpy as np

SIGMOID_SLOPE = 15.0


class ConsensusError(RuntimeError):
    """Raised when exclusion would leave the credible set empty."""


def default_threshold(n: int) -> float:
    """Ban threshold c_th = (1/n) * (2/3)."""
    if n < 1:
        raise ValueError("n must be positive")
    return (1.0 / n) * (2.0 / 3.0)


def init_tokens(sharing_level: float, param_count: int, n: int) -> int:
    """Initial token grant floor(lambda * |w| * (n - 1))."""
    if n < 2:
        raise ValueError("token initialisation needs at least 2 parties")
    if sharing_level < 0.0:
        raise ValueError("sharing level cannot be negative")
    return int(math.floor(sharing_level * param_count * (n - 1)))


def majority_vote(labels: np.ndarray) -> np.ndarray:
    """Most frequent label in each row of a (rows, parties) array of class
    indices; ties resolve to the smallest label."""
    rows = len(labels)
    if rows == 0:
        raise ValueError("label matrix is empty")
    width = int(labels.max()) + 1
    # Row r's count of label l lands in bin r * width + l.
    bins = (np.arange(rows)[:, None] * width + labels).ravel()
    return np.bincount(bins, minlength=rows * width).reshape(rows, width).argmax(axis=1)


def init_credibility(labels: np.ndarray, party_ids) -> dict[str, float]:
    """Raw credibility per column of a (rows, parties) label array, one
    party id per column: the fraction of rows matching the majority."""
    matches = (labels == majority_vote(labels)[:, None]).sum(axis=0)
    return {pid: matches[c] / len(labels) for c, pid in enumerate(party_ids)}


def normalize_and_screen(raw: dict[str, float],
                         threshold: float) -> tuple[dict[str, float], set[str]]:
    """Divide raw scores by their sum and report peers under the threshold.

    Returns (normalised scores, reports). An all-zero raw map reports
    every peer and scores none.
    """
    if not raw:
        raise ValueError("raw credibility map is empty")
    total = sum(raw.values())
    if total <= 0.0:
        return {}, set(raw)
    normalized = {peer: value / total for peer, value in raw.items()}
    reports = {peer for peer, value in normalized.items() if value < threshold}
    return normalized, reports


def consensus_exclude(reports: dict[str, set[str]], credible: set[str]) -> tuple[set[str], list[str]]:
    """Remove every party reported by a strict majority of credible parties.

    Only reports from current credible members count. Removal repeats
    until no party crosses the (> |C| / 2) bar, so the operation is
    idempotent for a fixed report set. Returns (new credible set, removed
    parties in removal order).
    """
    credible = set(credible)
    removed: list[str] = []
    while True:
        half = len(credible) / 2.0
        counts: dict[str, int] = {}
        for reporter, accused_set in reports.items():
            if reporter not in credible:
                continue
            for accused in accused_set:
                if accused in credible and accused != reporter:
                    counts[accused] = counts.get(accused, 0) + 1
        doomed = sorted(p for p, c in counts.items() if c > half)
        if not doomed:
            return credible, removed
        if len(doomed) >= len(credible):
            raise ConsensusError("exclusion would empty the credible set")
        credible -= set(doomed)
        removed.extend(doomed)


def download_allocation(credibility_score: float, download_budget: int,
                        capacity: int) -> int:
    """Gradients bought from one peer: min(floor(c * d_i), capacity), where
    capacity is the most the seller offers in the round."""
    return min(int(math.floor(credibility_score * download_budget)), capacity)


def supplement(download_budget: int, received: dict[str, int],
               capacities: dict[str, int],
               credibilities: dict[str, float]) -> dict[str, int]:
    """Fill the gap between the download budget and what the per-peer
    allocation delivered.

    The gap e = d_i - sum(received) is spread over peers with spare
    capacity r_j = capacity_j - received_j, proportionally to credibility
    and capped at r_j, repeating on the remainder until the gap closes or
    capacity runs out. When a pass floors every share to zero, one unit
    goes to the most credible peer with spare room (ties to the smaller
    id) so the loop always progresses.
    """
    gap = download_budget - sum(received.values())
    extra = {peer: 0 for peer in capacities}
    while gap > 0:
        spare = {peer: capacities[peer] - received.get(peer, 0) - extra[peer]
                 for peer in capacities}
        suppliers = sorted(p for p, s in spare.items() if s > 0)
        if not suppliers:
            break
        weight_total = sum(credibilities.get(p, 0.0) for p in suppliers)
        granted = 0
        for peer in suppliers:
            if weight_total > 0.0:
                share = int(math.floor(gap * credibilities.get(peer, 0.0) / weight_total))
            else:
                share = int(math.floor(gap / len(suppliers)))
            give = min(share, spare[peer])
            extra[peer] += give
            granted += give
        if granted == 0:
            best = min(suppliers, key=lambda p: (-credibilities.get(p, 0.0), p))
            extra[best] += 1
            granted = 1
        gap -= granted
    return {peer: amount for peer, amount in extra.items() if amount > 0}


def sigmoid_map(x: float) -> float:
    """Credibility squashing f(x) = 1 / (1 + exp(-15 * (x - 0.5)))."""
    return 1.0 / (1.0 + math.exp(-SIGMOID_SLOPE * (x - 0.5)))


def credibility_update(c_prev: float, acc: float, acc_without: float) -> float:
    """Historical average of the previous credibility and f(x) where
    x = acc / (acc + acc_without); both accuracies zero pins x at the
    neutral 0.5 instead of failing."""
    if acc < 0.0 or acc_without < 0.0:
        raise ValueError("accuracies cannot be negative")
    total = acc + acc_without
    x = 0.5 if total == 0.0 else acc / total
    return (c_prev + sigmoid_map(x)) / 2.0
