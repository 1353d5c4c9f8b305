"""Stage-one artificial-sample release.

Each party publishes a small, label-free batch of synthetic feature rows
so peers can benchmark each other's standalone models. The generator
is deliberately simple: per-class feature means perturbed by a
Gaussian mechanism (features are expected in [0, 1], so a class mean over
n_c rows moves by at most sqrt(dim) / n_c when one example changes), then
the caller's count of samples emitted as noisy prototype plus a small
jitter, with classes drawn in proportion to the local class frequencies.
It is the only generator: generate_release calls noisy_class_prototypes
directly, and a different model means editing that function.

Budgets above epsilon = 1 are spent as ceil(epsilon) equal chunks, each
within the Gaussian calibration's validity range; the chunked releases
are averaged, which divides the noise standard deviation by sqrt(chunks)
while the chunks still compose to the full (epsilon, delta).
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import FLOAT, Dataset
from .privacy import PrivacyAccountant, calibrate_sigma

JITTER_STD = 0.02  # feature jitter of a released sample


def augment(data: Dataset, replication: int) -> Dataset:
    """Repeat every record, with its label, `replication` times in a row."""
    if replication < 1:
        raise ValueError("replication factor must be >= 1")
    return Dataset(np.repeat(data.features, replication, axis=0),
                   np.repeat(data.labels, replication), data.num_classes)


def noisy_class_prototypes(data: Dataset, budget: tuple[float, float],
                           rng: np.random.Generator,
                           noise_override: float | None = None,
                           replication: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-class mean features under the Gaussian mechanism.

    Returns (prototypes, class_counts): the class means, taken in
    float64, plus the float64 noise; absent classes keep a zero row and
    a zero count. noise_override replaces the calibrated noise std (0.0 is
    the zero-noise testing hook).

    The means come from the raw rows, and the class counts are replication
    times the raw ones: exactly the counts of augment(data, replication).
    So the sensitivity sqrt(dim) / (replication * n_c) is that of
    `replication` stored copies of every record, while one real record
    moves a class mean by sqrt(dim) / n_c. Any replication above 1 makes
    the noise that many times too small (ROADMAP item 3a); passing 1 is
    the fix.
    """
    epsilon, delta = budget
    if epsilon <= 0.0 or delta <= 0.0:
        raise ValueError("budget must be positive")
    if replication < 1:
        raise ValueError("replication factor must be >= 1")
    chunks = max(1, math.ceil(epsilon))
    sigma = calibrate_sigma(epsilon / chunks, delta / chunks)
    counts = replication * np.bincount(data.labels, minlength=data.num_classes)
    prototypes = np.zeros((data.num_classes, data.dim), dtype=np.float64)
    for cls in range(data.num_classes):
        if counts[cls] == 0:
            continue
        mean = data.features[data.labels == cls].mean(axis=0, dtype=np.float64)
        sensitivity = math.sqrt(data.dim) / counts[cls]
        std = sigma * sensitivity / math.sqrt(chunks)
        if noise_override is not None:
            std = noise_override
        if std > 0.0:
            mean = mean + rng.normal(0.0, std, size=mean.shape)
        prototypes[cls] = mean
    return prototypes, counts


def generate_release(data: Dataset, count: int, budget: tuple[float, float],
                     rng: np.random.Generator, accountant: PrivacyAccountant,
                     replication: int = 1, prototype_noise: float | None = None,
                     jitter_std: float = JITTER_STD) -> np.ndarray:
    """Release count label-free synthetic samples of data, as a
    (count, dim) FLOAT array, rounded once from the float64 prototypes
    and jitter; receivers attach their own predictions.

    Debits the full budget from the accountant (as ceil(epsilon) chunked
    records) before generating; an accountant that cannot cover the
    release refuses it. The caller sizes the release (the protocol's is
    floor(lambda * |D|) over the local data, held-out split included); a
    count below 1 raises ValueError. replication scales the class counts
    as noisy_class_prototypes describes; the classes are drawn in
    proportion to the same frequencies either way.
    """
    if count < 1:
        raise ValueError(f"a release needs at least 1 sample, not {count}")
    epsilon, delta = budget
    chunks = max(1, math.ceil(epsilon))
    accountant.spend(epsilon / chunks, delta / chunks, count=chunks)

    prototypes, counts = noisy_class_prototypes(data, budget, rng, prototype_noise,
                                                 replication)
    present = np.flatnonzero(counts)
    if present.size == 0:
        raise ValueError("dataset has no examples to summarise")
    freqs = counts[present] / counts[present].sum()
    drawn = present[rng.choice(present.size, size=count, p=freqs)]
    samples = prototypes[drawn]
    if jitter_std > 0.0:
        samples = samples + rng.normal(0.0, jitter_std, size=samples.shape)
    return samples.astype(FLOAT)
