"""Brute-force test oracles, one copy each, deliberately structured
differently from the library implementations they check."""

import math
from collections import Counter

import numpy as np

from faircollab.numerics import MlpModel


def majority(rows):
    """Per row of labels, the most frequent label; ties to the smallest."""
    out = []
    for row in rows:
        counts = Counter(row)
        best = max(counts.values())
        out.append(min(label for label, c in counts.items() if c == best))
    return out


def allocation(c, d, lam, glen):
    """Gradients bought from a seller of credibility c with budget d, capped
    at its capacity lam * glen."""
    return math.floor(min(c * d, lam * glen))


def supplement(budget, received, capacities, credibilities):
    """The gap of budget over received, handed out in credibility-weighted
    passes up to each seller's spare capacity; a pass that hands out
    nothing gives one gradient to the most credible live seller."""
    extra = dict.fromkeys(capacities, 0)
    gap = budget - sum(received.values())
    while gap > 0:
        live = sorted(p for p in capacities
                      if capacities[p] - received.get(p, 0) - extra[p] > 0)
        if not live:
            break
        total_w = sum(credibilities.get(p, 0.0) for p in live)
        handed = 0
        for p in live:
            if total_w > 0.0:
                want = math.floor(gap * credibilities.get(p, 0.0) / total_w)
            else:
                want = math.floor(gap / len(live))
            spare = capacities[p] - received.get(p, 0) - extra[p]
            take = want if want < spare else spare
            extra[p] += take
            handed += take
        if handed == 0:
            ranked = sorted(live, key=lambda p: (-credibilities.get(p, 0.0), p))
            extra[ranked[0]] += 1
            handed = 1
        gap -= handed
    return {p: v for p, v in extra.items() if v > 0}


def pearson(x, y):
    """Pearson correlation of two lists with (n-1) standard deviations."""
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = math.sqrt(sum((a - mx) ** 2 for a in x) / (n - 1))
    sy = math.sqrt(sum((b - my) ** 2 for b in y) / (n - 1))
    return cov / ((n - 1) * sx * sy)


def float64_twin(model):
    """model with its parameters widened to float64: the reference that
    runs the same kernels in float64."""
    return MlpModel(model.dims, model.params.astype(np.float64))
