"""Malicious-party behaviours, the kind rules, and detection reporting.

This module owns what each adversary kind does: `harness` and `protocol`
ask `AdversaryKind.free_rider` rather than list kinds themselves.
Free-riders (every kind but `gan_attacker`) own no useful data, only
noise. At initialisation the random-label kind labels received samples
uniformly at random; during updates every free-rider publishes random
gradients or a noisy echo of the aggregate it received last round (the
stealthiest data-free strategy). The inference attacker is modelled by
its observable footprint: it holds classes disjoint from the victims, so
its standalone model is uninformative on victim releases and its initial
credibility lands far below the ban threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import FLOAT, Dataset


class AdversaryKind(str, Enum):
    FREE_RIDER_RANDOM_LABEL = "free_rider_random_label"
    FREE_RIDER_RANDOM_GRAD = "free_rider_random_grad"
    FREE_RIDER_CRAFTED_GRAD = "free_rider_crafted_grad"
    GAN_ATTACKER = "gan_attacker"

    @property
    def free_rider(self) -> bool:
        """Owns noise data and fakes its published gradients."""
        return self is not AdversaryKind.GAN_ATTACKER

    @property
    def echoes_aggregate(self) -> bool:
        """Publishes the aggregate it received last round, so the protocol
        keeps that aggregate for it."""
        return self is AdversaryKind.FREE_RIDER_CRAFTED_GRAD


@dataclass(frozen=True)
class AdversaryConfig:
    """One configured adversary, as written in an experiment config."""

    kind: AdversaryKind
    party: int = -1              # -1 -> last party
    # Magnitude of faked gradient coordinates; the default mimics the
    # typical size of honest parameter deltas at desk scale.
    crafted_scale: float = 0.05
    # gan_attacker only: the classes dealt to the victims and kept by the
    # attacker (empty: harness fills in the lower and upper half), and
    # whether it keeps IID data instead, as the control arm.
    victim_classes: tuple[int, ...] = ()
    adversary_classes: tuple[int, ...] = ()
    iid_control: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kind", AdversaryKind(self.kind))
        object.__setattr__(self, "victim_classes", tuple(self.victim_classes))
        object.__setattr__(self, "adversary_classes", tuple(self.adversary_classes))
        if self.crafted_scale < 0:
            raise ValueError("crafted_scale cannot be negative")

    def index(self, n: int) -> int:
        """The party this adversary plays among n parties."""
        return self.party if self.party >= 0 else n - 1


def freerider_label(samples: np.ndarray, num_classes: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Uniform random class per received sample (row of samples)."""
    return rng.integers(0, num_classes, size=len(samples))


def freerider_gradients(kind: AdversaryKind, param_count: int, scale: float,
                        rng: np.random.Generator,
                        echo: np.ndarray | None = None) -> np.ndarray:
    """Meaningless published gradients, a FLOAT vector of param_count.

    random (and random-label, which has no gradient strategy of its own):
    zero-mean Gaussian at the configured scale.
    crafted: last round's received aggregate re-emitted with small noise;
    zeros plus noise before anything has been received.
    """
    kind = AdversaryKind(kind)
    if kind in (AdversaryKind.FREE_RIDER_RANDOM_GRAD, AdversaryKind.FREE_RIDER_RANDOM_LABEL):
        if scale == 0.0:
            return np.zeros(param_count, dtype=FLOAT)
        return rng.normal(0.0, scale, size=param_count).astype(FLOAT)
    if kind == AdversaryKind.FREE_RIDER_CRAFTED_GRAD:
        base = (np.zeros(param_count, dtype=FLOAT) if echo is None
                else np.asarray(echo, dtype=FLOAT))
        if base.shape != (param_count,):
            raise ValueError("echo source sized for a different model")
        noise = rng.normal(0.0, scale, size=param_count) if scale > 0.0 else 0.0
        return (base + noise).astype(FLOAT, copy=False)
    raise ValueError(f"{kind.value} does not publish via freerider_gradients")


def gan_attacker_setup(full: Dataset, victim_classes, adversary_classes,
                       num_victims: int, rng: np.random.Generator
                       ) -> tuple[Dataset, list[Dataset]]:
    """Split a dataset so the adversary and victims own disjoint classes.

    Victim-class rows are shuffled and dealt evenly among the victims;
    the adversary keeps every row of its own classes. Labels keep their
    original indices so every model still speaks the full class range.
    """
    victim_classes = set(int(c) for c in victim_classes)
    adversary_classes = set(int(c) for c in adversary_classes)
    if not victim_classes:
        raise ValueError("victim class set is empty")
    if not adversary_classes:
        raise ValueError("adversary class set is empty")
    if victim_classes & adversary_classes:
        raise ValueError("victim and adversary class sets overlap")
    if num_victims < 1:
        raise ValueError("need at least one victim")

    victim_mask = np.isin(full.labels, sorted(victim_classes))
    adversary_mask = np.isin(full.labels, sorted(adversary_classes))
    victim_rows = np.flatnonzero(victim_mask)
    victim_rows = victim_rows[rng.permutation(victim_rows.size)]
    shards = np.array_split(victim_rows, num_victims)
    if any(len(s) == 0 for s in shards):
        raise ValueError("not enough victim-class rows for the victim count")
    victims = [full.subset(shard) for shard in shards]
    return full.subset(np.flatnonzero(adversary_mask)), victims


@dataclass
class Detection:
    """When, if ever, the protocol caught one adversary: the round of its
    first exclusion or token exhaustion (0 at initialisation), or None."""
    party: str
    kind: AdversaryKind
    round: int | None


def detection_report(events, adversaries: dict[str, AdversaryConfig]) -> list[Detection]:
    """Scan a run trace's events (protocol.Event records) for exclusions
    and token exhaustion. Returns the detection entries a cell trace
    stores, one per adversary in party order."""
    return [Detection(party_id, adversaries[party_id].kind,
                      min((ev.round for ev in events if ev.party == party_id
                           and ev.kind in ("excluded", "token_exhausted")), default=None))
            for party_id in sorted(adversaries)]
