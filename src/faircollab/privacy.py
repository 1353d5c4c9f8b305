"""Differentially private gradient release and budget accounting.

A training step draws a lot of L rows with replacement over N = r * n
virtual rows, where n is the number of local records and r the
replication factor (augment_replication). Virtual row i is record i // r,
the layout augment() would store, so the replicated copies are never
built. The step clips each example's gradient to an L2 bound C (the
norms come from activations and deltas, see numerics.backward), averages
the lot, and adds per-coordinate Gaussian noise with standard deviation
sigma * C / L, where sigma = sqrt(2 * ln(1.25 / delta)) / epsilon. That
calibration is only valid for epsilon <= 1, which the parameter container
enforces.

Gradients are float32 (numerics.FLOAT). The clip norms and factors are
computed in float64 and aim at C less a margin of a few float32 epsilons
(numerics._clip_margin), so every clipped example, rounded into float32,
still measures at most C. The noise is drawn in float64 by numpy, in chunks
of NOISE_CHUNK values, and each sum of gradient and noise is rounded
once into float32. Textbook floating-point samplers are attackable
(Mironov 2012, CCS; Jin et al. 2022, arXiv:2112.05307), so every epsilon
here is a claim about the model of the mechanism, not about its
implementation.

Budgets compose by one rule: each release first maps to
(q * eps_i, q * delta_i) using its sample ratio q = L / N (q = 1 for a
release that reads the whole local dataset), and the maps are summed.

That total is not a proven upper bound on the privacy loss:

  - q * eps_i is below the subsampling amplification bound
    log(1 + q * (e^eps_i - 1)); at eps_i = 1 and q = 0.0064 the bound is
    1.7x larger (ROADMAP item 3b).
  - Lots are drawn with replacement over r copies of every record, and
    q = L / N counts virtual rows, so one real record can enter a lot
    several times and is sampled r times more often than q says. The
    per-step (eps_i, delta_i) then covers one row, not one real record,
    and even the unscaled sum would not bound a record's loss (item 3b).

The rule follows the paper's accounting and gates training for reproduction
fidelity. rdp_epsilon gives the Renyi-DP number for the Poisson-subsampled
Gaussian at q over raw records; it is only Poisson-equivalent while lots are
drawn with replacement, and nothing reports it yet (ROADMAP items 3c and 4).

The (6, 2e-5) claim covers the sample release and the DP-SGD steps only.
Three uses of private data sit outside it (ROADMAP item 3e):

  - pretraining: each standalone model is fitted with plain SGD on the
    party's training split, and DP-SGD starts from that model;
  - initialisation labels: each party labels every release with its
    pretrained model, and the labels decide the genesis punishments;
  - leave-one-out scoring: each round, accuracy on the private
    validation split sets credibility, and credibility sets the order
    lines signed onto the public chain.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .numerics import Dataset, MlpModel, backward

# Noise values drawn per rng.normal call in dp_sgd_step: a 128 KB float64
# temporary, where one draw for the 101,770-parameter model would take 814 KB.
NOISE_CHUNK = 1 << 14

# The integer Renyi orders rdp_epsilon minimises over.
RDP_ORDERS = range(2, 129)


class BudgetExhaustedError(RuntimeError):
    """Raised when a release would overrun the remaining privacy budget."""


def calibrate_sigma(epsilon: float, delta: float) -> float:
    """Gaussian-mechanism noise multiplier sqrt(2*ln(1.25/delta)) / epsilon."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if epsilon > 1.0:
        raise ValueError("calibration is only valid for epsilon <= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


@dataclass(frozen=True)
class PrivacyParams:
    """Per-step DP-SGD parameters for one party's local training."""

    epsilon_per_step: float
    delta_per_step: float
    clip_norm: float
    lot_size: int
    dataset_size: int  # N = r * n virtual rows the lots are drawn over

    def __post_init__(self):
        if not 0.0 < self.epsilon_per_step <= 1.0:
            raise ValueError("epsilon_per_step must lie in (0, 1]")
        if not 0.0 < self.delta_per_step < 1.0:
            raise ValueError("delta_per_step must lie in (0, 1)")
        if self.clip_norm <= 0.0:
            raise ValueError("clip_norm must be positive")
        if self.lot_size < 1 or self.lot_size > self.dataset_size:
            raise ValueError("need 1 <= lot_size <= dataset_size")

    @property
    def sample_ratio(self) -> float:
        return self.lot_size / self.dataset_size

    @property
    def sigma(self) -> float:
        return calibrate_sigma(self.epsilon_per_step, self.delta_per_step)


def lot_size_for(dataset_size: int) -> int:
    """Default lot size: sqrt(N), at least 1."""
    return max(1, int(math.isqrt(dataset_size)))


@dataclass
class PrivacyAccountant:
    """Per-party (epsilon, delta) budget with running sums of the
    q-scaled charges (q * epsilon, q * delta).

    steps counts the releases per distinct (epsilon, delta, q); exhausted()
    flips to True once, when a spend attempt would overrun the budget or
    consumes the last of it.
    """

    epsilon_total: float
    delta_total: float
    steps: Counter = field(default_factory=Counter)
    _exhausted: bool = False
    _spent_eps: float = 0.0
    _spent_delta: float = 0.0

    def __post_init__(self):
        if self.epsilon_total <= 0.0 or self.delta_total <= 0.0:
            raise ValueError("budget totals must be positive")

    def spent(self) -> tuple[float, float]:
        return self._spent_eps, self._spent_delta

    def exhausted(self) -> bool:
        return self._exhausted

    def spend(self, epsilon: float, delta: float, q: float = 1.0, count: int = 1) -> None:
        """Atomically record `count` identical releases, or raise
        BudgetExhaustedError and record none if they would overrun the
        budget."""
        if count < 1:
            raise ValueError("count must be >= 1")
        step_eps, step_delta = q * epsilon, q * delta
        if (self._exhausted
                or self._spent_eps + count * step_eps > self.epsilon_total
                or self._spent_delta + count * step_delta > self.delta_total):
            self._exhausted = True
            raise BudgetExhaustedError(
                f"spend {count} x ({epsilon}, {delta}) at q={q} would exceed "
                f"({self.epsilon_total}, {self.delta_total})")
        self.steps[(epsilon, delta, q)] += count
        self._spent_eps += count * step_eps
        self._spent_delta += count * step_delta
        if self._spent_eps >= self.epsilon_total or self._spent_delta >= self.delta_total:
            self._exhausted = True


@functools.lru_cache(maxsize=256)  # 127 floats a curve: about 1 MB when full
def rdp_curve(q: float, sigma: float) -> tuple[float, ...]:
    """Renyi DP of one step of the Poisson-subsampled Gaussian (sample
    rate q, noise multiplier sigma) at each order of RDP_ORDERS.

    At integer alpha it is log(A) / (alpha - 1) with
    A = sum_k C(alpha, k) (1 - q)^(alpha - k) q^k exp((k^2 - k) / (2 sigma^2))
    (Mironov, Talwar & Zhang 2019, arXiv:1908.10530, section 3.3), summed
    in log space; q = 1 gives the Gaussian's alpha / (2 sigma^2). Cached
    per (q, sigma).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    log_q = math.log(q) if q > 0.0 else -math.inf
    log_1mq = math.log1p(-q) if q < 1.0 else -math.inf
    curve = []
    for alpha in RDP_ORDERS:
        logs = []
        for k in range(alpha + 1):
            log = (math.lgamma(alpha + 1) - math.lgamma(k + 1) - math.lgamma(alpha - k + 1)
                   + (k * k - k) / (2.0 * sigma * sigma))
            # A zero power is skipped: q or 1 - q may be 0, and 0 * -inf is NaN.
            if k:
                log += k * log_q
            if k < alpha:
                log += (alpha - k) * log_1mq
            logs.append(log)
        top = max(logs)
        curve.append((top + math.log(sum(math.exp(log - top) for log in logs))) / (alpha - 1))
    return tuple(curve)


def rdp_epsilon(q: float, sigma: float, steps: int, delta: float) -> float:
    """Poisson-equivalent epsilon at delta after `steps` releases of the
    Gaussian with noise multiplier sigma on Poisson lots of rate q:
    min over alpha of steps * RDP(alpha) + log(1 / delta) / (alpha - 1)
    (Mironov 2017, arXiv:1702.07476). dp_sgd_step draws its lots with
    replacement, which no subsampling theorem covers, so for it this is
    the number Poisson lots at q = L / n over raw records would earn, not
    a bound (ROADMAP item 3b)."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return min(steps * rdp + math.log(1.0 / delta) / (alpha - 1)
               for alpha, rdp in zip(RDP_ORDERS, rdp_curve(q, sigma)))


def allocate_budgets(stage: str, dataset_name: str) -> tuple[float, float]:
    """Stage budgets: initialisation (4, 1e-5), update (2, 1e-5); delta
    drops to 1e-6 for SVHN. The two stages compose to a (6, 2e-5) total."""
    delta = 1e-6 if dataset_name.lower() == "svhn" else 1e-5
    if stage == "initialisation":
        return 4.0, delta
    if stage == "update":
        return 2.0, delta
    raise ValueError(f"unknown stage {stage!r}")


def dp_sgd_step(model: MlpModel, data: Dataset, params: PrivacyParams,
                rng: np.random.Generator, accountant: PrivacyAccountant,
                sigma: float | None = None) -> np.ndarray:
    """One private gradient release.

    Samples a lot of L rows with replacement over params.dataset_size =
    r * len(data) virtual rows, where row i is record i // r: the layout
    of augment(data, r), read back from the raw records without storing
    the copies. Clips per-example gradients (ghost norms, see
    numerics.backward), averages, and perturbs with Gaussian noise of
    std sigma * C / L per coordinate. The budget is debited before
    anything is computed; an exhausted accountant refuses the step.
    sigma=0.0 is a testing hook that skips the noise while still
    exercising the full pipeline.
    """
    if len(data) == 0 or params.dataset_size % len(data):
        raise ValueError("calibrated dataset size is not a whole multiple of the data size")
    replication = params.dataset_size // len(data)
    accountant.spend(params.epsilon_per_step, params.delta_per_step, params.sample_ratio)
    rows = rng.integers(0, params.dataset_size, size=params.lot_size) // replication
    mean_grad = backward(model, data.features.take(rows, axis=0), data.labels.take(rows),
                         params.clip_norm)
    if sigma is None:
        sigma = params.sigma
    noise_std = sigma * params.clip_norm / params.lot_size
    if noise_std > 0.0:
        # Drawn chunk by chunk straight into the gradient: the draws equal
        # one draw of the whole vector, without its model-sized temporary.
        for start in range(0, mean_grad.size, NOISE_CHUNK):
            chunk = mean_grad[start:start + NOISE_CHUNK]
            chunk += rng.normal(0.0, noise_std, size=chunk.size)
    return mean_grad
