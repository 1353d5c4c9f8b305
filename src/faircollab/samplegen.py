"""Stage-one artificial-sample release.

Each party publishes a small, label-free batch of synthetic feature rows
so peers can benchmark each other's standalone models. The default
generator is deliberately simple: per-class feature means perturbed by a
Gaussian mechanism (features are expected in [0, 1], so a class mean over
n_c rows moves by at most sqrt(dim) / n_c when one example changes), then
u = floor(lambda * |D|) samples emitted as noisy prototype plus a small
jitter, with classes drawn in proportion to the local class frequencies.
A richer generative model can be slotted in through the same interface.

Budgets above epsilon = 1 are spent as ceil(epsilon) equal chunks, each
within the Gaussian calibration's validity range; the chunked releases
are averaged, which divides the noise standard deviation by sqrt(chunks)
while the chunks still compose to the full (epsilon, delta).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import Dataset
from .privacy import PrivacyAccountant, calibrate_sigma


@dataclass(frozen=True)
class SampleRelease:
    """Label-free sample matrix published by one party.

    Carries no label field by construction; receivers attach their own
    predictions when benchmarking.
    """

    samples: np.ndarray
    party_id: str

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 2:
            raise ValueError("samples must be a 2-D matrix")

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    def to_bytes(self) -> bytes:
        """Matrix-block wire format, suitable for ledger payload envelopes."""
        pid = self.party_id.encode()
        header = struct.pack(">III", self.samples.shape[0], self.samples.shape[1], len(pid))
        return header + pid + self.samples.astype(">f8").tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SampleRelease":
        if len(blob) < 12:
            raise ValueError("truncated sample release blob")
        rows, cols, pid_len = struct.unpack(">III", blob[:12])
        need = 12 + pid_len + rows * cols * 8
        if len(blob) != need:
            raise ValueError("sample release blob has wrong length")
        pid = blob[12:12 + pid_len].decode()
        data = np.frombuffer(blob[12 + pid_len:], dtype=">f8").astype(np.float64)
        return cls(data.reshape(rows, cols), pid)


def augment(data: Dataset, replication: int) -> Dataset:
    """Repeat every record, with its label, `replication` times in a row."""
    if replication < 1:
        raise ValueError("replication factor must be >= 1")
    return Dataset(np.repeat(data.features, replication, axis=0),
                   np.repeat(data.labels, replication), data.num_classes)


def noisy_class_prototypes(data: Dataset, budget: tuple[float, float],
                           rng: np.random.Generator,
                           noise_override: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-class mean features under the Gaussian mechanism.

    Returns (prototypes, class_counts); absent classes keep a zero row and
    a zero count. noise_override replaces the calibrated noise std (0.0 is
    the zero-noise testing hook).
    """
    epsilon, delta = budget
    if epsilon <= 0.0 or delta <= 0.0:
        raise ValueError("budget must be positive")
    chunks = max(1, math.ceil(epsilon))
    sigma = calibrate_sigma(epsilon / chunks, delta / chunks)
    counts = np.bincount(data.labels, minlength=data.num_classes)
    prototypes = np.zeros((data.num_classes, data.dim), dtype=np.float64)
    for cls in range(data.num_classes):
        if counts[cls] == 0:
            continue
        mean = data.features[data.labels == cls].mean(axis=0)
        sensitivity = math.sqrt(data.dim) / counts[cls]
        std = sigma * sensitivity / math.sqrt(chunks)
        if noise_override is not None:
            std = noise_override
        if std > 0.0:
            mean = mean + rng.normal(0.0, std, size=mean.shape)
        prototypes[cls] = mean
    return prototypes, counts


def generate_release(data: Dataset, sharing_level: float, budget: tuple[float, float],
                     rng: np.random.Generator, party_id: str = "party",
                     accountant: PrivacyAccountant | None = None,
                     prototype_noise: float | None = None,
                     jitter_std: float = 0.05,
                     release_count: int | None = None) -> SampleRelease:
    """Release u = floor(sharing_level * |D|) label-free synthetic samples.

    Debits the full budget from the accountant (as ceil(epsilon) chunked
    records) before generating; an accountant that cannot cover the
    release refuses it. release_count pins u explicitly when the data
    passed in has been expanded by augmentation but the published volume
    should follow the raw local size.
    """
    if not 0.0 < sharing_level <= 1.0:
        raise ValueError("sharing_level must lie in (0, 1]")
    epsilon, delta = budget
    if accountant is not None:
        chunks = max(1, math.ceil(epsilon))
        accountant.spend_many(epsilon / chunks, delta / chunks, count=chunks)

    prototypes, counts = noisy_class_prototypes(data, budget, rng, prototype_noise)
    u = int(sharing_level * len(data)) if release_count is None else int(release_count)
    present = np.flatnonzero(counts)
    if present.size == 0:
        raise ValueError("dataset has no examples to summarise")
    freqs = counts[present] / counts[present].sum()
    drawn = present[rng.choice(present.size, size=u, p=freqs)]
    samples = prototypes[drawn]
    if jitter_std > 0.0:
        samples = samples + rng.normal(0.0, jitter_std, size=samples.shape)
    return SampleRelease(samples, party_id)
