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
from dataclasses import dataclass, field

import numpy as np

SIGMOID_SLOPE = 15.0


class ConsensusError(RuntimeError):
    """Raised when exclusion would leave the credible set empty."""


@dataclass
class CredibilityList:
    """One party's private, normalised view of its peers."""

    owner: str
    scores: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for peer, value in self.scores.items():
            if peer == self.owner:
                raise ValueError("credibility list cannot score its owner")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"credibility for {peer} outside [0, 1]")


@dataclass(frozen=True)
class LabelMatrix:
    """Predicted labels for one release: one row per sample, one column
    per party, labelled by that party's standalone model."""

    labels: np.ndarray
    party_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "party_ids", tuple(self.party_ids))
        if self.labels.ndim != 2:
            raise ValueError("label matrix must be 2-D")
        if self.labels.shape[1] != len(self.party_ids):
            raise ValueError("one column per party required")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be nonnegative class indices")

    @property
    def num_rows(self) -> int:
        return self.labels.shape[0]


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


def majority_vote(matrix: LabelMatrix) -> np.ndarray:
    """Most frequent label per row; ties resolve to the smallest label."""
    if matrix.num_rows == 0:
        raise ValueError("label matrix is empty")
    width = int(matrix.labels.max()) + 1
    out = np.empty(matrix.num_rows, dtype=np.int64)
    for r in range(matrix.num_rows):
        out[r] = np.argmax(np.bincount(matrix.labels[r], minlength=width))
    return out


def init_credibility(matrix: LabelMatrix) -> dict[str, float]:
    """Raw credibility per column: fraction of rows matching the majority."""
    majority = majority_vote(matrix)
    matches = (matrix.labels == majority[:, None]).sum(axis=0)
    return {pid: matches[c] / matrix.num_rows for c, pid in enumerate(matrix.party_ids)}


def normalize_and_screen(owner: str, raw: dict[str, float],
                         threshold: float) -> tuple[CredibilityList, set[str]]:
    """Divide raw scores by their sum and report peers under the threshold.

    An all-zero raw map reports every peer and leaves the owner with an
    empty list.
    """
    if not raw:
        raise ValueError("raw credibility map is empty")
    total = sum(raw.values())
    if total <= 0.0:
        return CredibilityList(owner, {}), set(raw)
    normalized = {peer: value / total for peer, value in raw.items()}
    reports = {peer for peer, value in normalized.items() if value < threshold}
    return CredibilityList(owner, normalized), reports


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
                        sharing_level: float, grad_len: int) -> int:
    """Gradients bought from one peer: floor(min(c * d_i, lambda * |grad|))."""
    return int(math.floor(min(credibility_score * download_budget,
                              sharing_level * grad_len)))


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
