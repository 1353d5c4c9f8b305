"""Experiment harness and command line interface.

Builds the three partition settings (equal shares, heterogeneous sharing
levels, Dirichlet-imbalanced sizes), runs the framework comparison over
seeds, computes the contribution/reward correlation, and writes CSV
tables plus a JSON summary. `run` writes each group's cell traces as the
group ends and then builds its tables with `report`'s reader
(`generate_reports`), so `report` regenerates them byte for byte. A cell
trace is a CellTrace record, read like a config (`_read`). `run` exits 2
when --out already holds a trace of a cell outside its grid, and `report`
exits 2 when --traces holds no cell trace, a trace it cannot read or a
trace of a cell outside the grid of config.json.

The cells of one (setting, seed) run together as a group: they share one
partition, built into parties once, and the frameworks that start from
pretrained standalone models share one pretraining. The group holds one
copy of each party's data, the parties' own train/validation splits,
since it drops the unsplit datasets as soon as the parties exist. A
cell's trace is the same whether it runs in a group, alone, serially or
in a worker process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import re
import shutil
import sys
import types
import typing
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum

import numpy as np

from .adversary import (AdversaryConfig, AdversaryKind, Detection, detection_report,
                        gan_attacker_setup)
from .ledger import iter_chain, verify_chain
from .numerics import Dataset, blob_centers, load_csv, load_idx, make_blobs
from . import protocol
from .protocol import FRAMEWORKS, Party, ProtocolConfig, build_parties, run_fdpddl


# Setting 3 draws party shares from a symmetric Dirichlet with this alpha.
DIRICHLET_ALPHA = 1.0
# The frameworks whose cells carry a fairness report.
FAIRNESS_FRAMEWORKS = ("fdpddl", "distributed_dssgd")


class ConfigError(ValueError):
    pass


class ZeroVarianceError(ValueError):
    """Raised when the fairness correlation is undefined."""


# ---------------------------------------------------------------------------
# Fairness quantification
# ---------------------------------------------------------------------------

def fairness(x, y) -> float:
    """Pearson correlation with corrected (n-1) standard deviations.

    Raises ZeroVarianceError when either axis is constant; the caller
    decides how to surface the degenerate case. A NaN or infinite entry
    is a ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    n = x.size
    if n < 2:
        raise ValueError("need at least two parties")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc) / (n - 1))
    sy = math.sqrt(float(yc @ yc) / (n - 1))
    if sx == 0.0 or sy == 0.0:
        raise ZeroVarianceError("zero variance on one axis; correlation undefined")
    return float(xc @ yc) / ((n - 1) * sx * sy)


def build_x_axis(setting: int, sharing_levels, standalone_accuracies) -> np.ndarray:
    """Contribution axis: setting 2 sums the normalised sharing levels and
    normalised standalone accuracies; settings 1 and 3 use the raw
    standalone accuracies."""
    lam = np.asarray(sharing_levels, dtype=np.float64)
    sacc = np.asarray(standalone_accuracies, dtype=np.float64)
    if lam.shape != sacc.shape:
        raise ValueError("sharing levels and accuracies must align")
    if setting == 2:
        lam_sum = lam.sum()
        sacc_sum = sacc.sum()
        if lam_sum <= 0.0 or sacc_sum <= 0.0:
            raise ZeroVarianceError("setting 2 axis needs positive sums")
        return lam / lam_sum + sacc / sacc_sum
    if setting in (1, 3):
        return sacc.copy()
    raise ValueError(f"unknown setting {setting!r}")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "blobs"          # blobs | csv | idx
    num_classes: int = 10
    dim: int = 32
    spread: float = 0.18
    per_party: int = 150
    test_size: int = 400
    path: str | None = None
    images_path: str | None = None
    labels_path: str | None = None
    name: str = "blobs"

    def __post_init__(self):
        checks = (
            (self.kind in ("blobs", "csv", "idx"), f"kind {self.kind!r} unknown"),
            (self.kind != "csv" or self.path, "csv dataset needs a path"),
            (self.kind != "idx" or (self.images_path and self.labels_path),
             "idx dataset needs images_path and labels_path"),
            *((getattr(self, key) >= 1, f"{key} must be at least 1")
              for key in ("num_classes", "dim", "per_party", "test_size")),
            (self.spread >= 0, "spread cannot be negative"),
        )
        errors = [message for ok, message in checks if not ok]
        if errors:
            raise ValueError("; ".join(errors))


@dataclass(frozen=True)
class SettingSpec:
    """Resolved per-run partition plan: sizes and sharing levels per party."""

    setting: int
    sizes: tuple[int, ...]
    sharing_levels: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment grid. Like each of its records, it checks its own
    fields as it is built, and it checks those that span its records."""

    name: str = "experiment"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    n: int = 4
    settings: tuple[int, ...] = (1,)
    rounds: int = 10
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    frameworks: tuple[str, ...] = ("fdpddl", "distributed_dssgd", "standalone", "centralised")
    adversaries: tuple[AdversaryConfig, ...] = ()
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    lambda_low: float = 0.1
    lambda_high: float = 0.5
    min_party_size: int = 40
    parallel_workers: int = 0

    def __post_init__(self):
        num_classes = self.dataset.num_classes
        # A party releases int(lambda * s) samples at initialisation, s its
        # data size: per_party in settings 1 and 2, at least min_party_size
        # in setting 3. No lambda lies below lambda_low. Its validation
        # split takes at least one record, and training needs another.
        smallest = min((self.min_party_size if s == 3 else self.dataset.per_party
                        for s in self.settings), default=1)
        checks = (
            (self.n >= 2, "n must be at least 2"),
            (self.rounds >= 0, "rounds cannot be negative"),
            (0.0 < self.lambda_low <= self.lambda_high <= 1.0,
             "need 0 < lambda_low <= lambda_high <= 1"),
            (smallest >= 2, f"dataset.per_party {smallest} leaves a party no training "
                            "record once its validation split is taken; need at least 2"),
            (int(self.lambda_low * smallest) >= 1,
             f"lambda_low {self.lambda_low} releases no sample from a party of "
             f"{smallest} records; need int(lambda_low * {smallest}) >= 1"),
            (self.min_party_size >= 10, "min_party_size must be at least 10"),
            (self.parallel_workers >= 0, "parallel_workers cannot be negative"),
            (self.protocol.dataset_name in ("", self.dataset.name),
             f"protocol.dataset_name {self.protocol.dataset_name!r} "
             f"is not dataset.name {self.dataset.name!r}"),
            *((s in (1, 2, 3), f"setting {s} not in {{1, 2, 3}}") for s in self.settings),
            *((seed >= 0, f"seed {seed} must be a nonnegative integer") for seed in self.seeds),
            *((fw in FRAMEWORKS, f"framework {fw!r} not one of {FRAMEWORKS}")
              for fw in self.frameworks),
        )
        errors = [message for ok, message in checks if not ok]
        for key in ("settings", "seeds", "frameworks"):
            if not getattr(self, key):
                errors.append(f"{key} is empty: the grid would run no cell")
            duplicated = _duplicates(getattr(self, key))
            if duplicated:
                errors.append(f"{key} repeats {duplicated}")
        for adv in self.adversaries:
            if not -1 <= adv.party < self.n:
                errors.append(f"adversary party index {adv.party} out of range")
            classes = _with_default_classes(adv, num_classes)
            for key in ("victim_classes", "adversary_classes"):
                outside = [c for c in getattr(classes, key) if not 0 <= c < num_classes]
                if outside:
                    errors.append(f"adversary {key} {outside} outside [0, {num_classes})")
            overlap = sorted(set(classes.victim_classes) & set(classes.adversary_classes))
            if overlap:
                errors.append(f"adversary class sets overlap on {overlap}")
            if adv.kind == AdversaryKind.GAN_ATTACKER and not adv.iid_control:
                if not classes.victim_classes:
                    errors.append("gan_attacker victim_classes empty: needs at least 2 classes")
                if self.dataset.kind != "blobs":
                    errors.append(f"gan_attacker splits classes of blobs data only, not of "
                                  f"{self.dataset.kind} data; set iid_control")
        # build_cell_data splits the classes for one attacker only.
        attackers = [adv.index(self.n) for adv in self.adversaries
                     if adv.kind == AdversaryKind.GAN_ATTACKER]
        if len(attackers) > 1:
            errors.append(f"gan_attacker on parties {attackers}: at most one is supported")
        # build_cell_data keeps one adversary per party, so a second one
        # on the same party would silently replace the first.
        duplicated = _duplicates([adv.index(self.n) for adv in self.adversaries])
        if duplicated:
            errors.append(f"adversaries repeat party {duplicated}")
        if errors:
            raise ValueError("; ".join(errors))
        object.__setattr__(self, "protocol",
                           replace(self.protocol, dataset_name=self.dataset.name))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj) -> "ExperimentConfig":
        """The config that obj, a parsed JSON object, describes. Raises
        ConfigError listing every fault found."""
        errors: list[str] = []
        config = _read(cls, obj, "", errors)
        if errors:
            raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
        return config


@functools.cache
def _shape(record_type) -> tuple[dict, frozenset[str], frozenset[str]]:
    """A record type's field types, its required fields, and its optional
    fields that JSON leaves out while they are None (_entries)."""
    record_fields = fields(record_type)
    return (typing.get_type_hints(record_type),
            frozenset(f.name for f in record_fields
                      if f.default is MISSING and f.default_factory is MISSING),
            frozenset(f.name for f in record_fields if f.default is None))


def _entries(record) -> dict:
    """The JSON object of a record: its fields, less each optional one that
    is None, which stays absent rather than null."""
    absent = _shape(type(record))[2]
    return {key: value for key, value in vars(record).items()
            if value is not None or key not in absent}


@functools.cache
def _parts(hint) -> tuple:
    """typing.get_origin and typing.get_args of hint, computed once per hint."""
    return typing.get_origin(hint), typing.get_args(hint)


def _read(hint, value, where: str, errors: list[str]):
    """value, parsed from JSON, read as type hint: an object becomes a
    record (built once its fields read without fault) or a dict, a list a
    list or tuple, and a string an enum member. Each fault appends to
    errors one message that names its dotted path (where). A bool is no
    number; an int can be a float, and a float must be finite."""
    # Most values are numbers and strings of the type asked for.
    if type(value) is hint and (hint is not float or math.isfinite(value)):
        return value
    origin, args = _parts(hint)
    if origin is types.UnionType:  # T | None
        return None if value is None else _read(args[0], value, where, errors)
    if origin is dict or is_dataclass(hint):
        if not isinstance(value, dict):
            errors.append(f"{where or 'the top level'} must be a JSON object, "
                          f"not {type(value).__name__}")
            return None
        if origin is dict:
            return {key: _read(args[1], item, f"{where}[{key!r}]", errors)
                    for key, item in value.items()}
        found = len(errors)
        prefix = f"{where}." if where else ""
        hints, required, _ = _shape(hint)
        record = {}
        for key, item in value.items():
            if key in hints:
                record[key] = _read(hints[key], item, prefix + key, errors)
            else:
                errors.append(f"unknown key {prefix + key!r}")
        missing = required - value.keys()
        if missing:
            errors.extend(f"{prefix + name} is required" for name in hints if name in missing)
        if len(errors) == found:
            try:
                return hint(**record)
            except ValueError as exc:
                errors.append(f"{where}: {exc}" if where else str(exc))
        return None
    if origin in (list, tuple):  # list[T] or tuple[T, ...]
        if isinstance(value, (list, tuple)):
            items = [_read(args[0], v, f"{where}[{i}]", errors) for i, v in enumerate(value)]
            return items if origin is list else tuple(items)
        expected = "a list"
    elif issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            expected = "one of " + ", ".join(member.value for member in hint)
    elif (isinstance(value, bool) == (hint is bool)
          and isinstance(value, (int, float) if hint is float else hint)):
        # json reads NaN, Infinity and -Infinity as floats.
        if hint is not float or math.isfinite(value):
            return value
        expected = "a finite number"
    else:
        expected = hint.__name__
    shown = type(value).__name__ if isinstance(value, (list, dict)) else repr(value)
    errors.append(f"{where} must be {expected}, not {shown}")
    return None


def _duplicates(values) -> list:
    """Values that occur more than once, in order of first repeat."""
    repeated = []
    for i, value in enumerate(values):
        if value in values[:i] and value not in repeated:
            repeated.append(value)
    return repeated


def _load_json(path):
    """The JSON in the file at path; a ConfigError naming it if it does not
    parse, nesting too deep for the parser included."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: {exc}") from None


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(_load_json(path))


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_echo(config: ExperimentConfig) -> dict:
    """The config as echoed next to a run's outputs. Execution details do
    not affect results and stay out, so parallel and serial runs emit
    identical files."""
    echo = config.to_dict()
    echo.pop("parallel_workers", None)
    return echo


# ---------------------------------------------------------------------------
# Data partitioning per setting
# ---------------------------------------------------------------------------

def resolve_setting(config: ExperimentConfig, setting: int,
                    rng: np.random.Generator) -> SettingSpec:
    n = config.n
    if setting in (1, 2):
        sizes = (config.dataset.per_party,) * n
    else:
        total = config.dataset.per_party * n
        props = rng.dirichlet([DIRICHLET_ALPHA] * n)
        sizes = np.maximum((props * total).astype(int), config.min_party_size)
        sizes = tuple(int(s) for s in sizes)
    if setting == 2:
        lams = tuple(float(v) for v in rng.uniform(config.lambda_low, config.lambda_high, n))
    else:
        lams = (config.lambda_low,) * n
    return SettingSpec(setting, sizes, lams)


def _noise_dataset(size: int, dim: int, num_classes: int, rng: np.random.Generator) -> Dataset:
    return Dataset(rng.uniform(0.0, 1.0, size=(size, dim)),
                   rng.integers(0, num_classes, size=size), num_classes)


def _with_default_classes(adv: AdversaryConfig, num_classes: int) -> AdversaryConfig:
    """adv with each empty class set filled in: the lower half of the
    classes for the victims, the upper half for the attacker."""
    half = num_classes // 2
    return replace(adv, victim_classes=adv.victim_classes or tuple(range(half)),
                   adversary_classes=adv.adversary_classes or tuple(range(half, num_classes)))


def build_cell_data(config: ExperimentConfig, setting: int, seed: int
                    ) -> tuple[list[Dataset], SettingSpec, Dataset, dict[int, AdversaryConfig]]:
    """Party datasets, sharing levels, the shared test set, and adversary
    configurations for one (setting, seed) pair. Independent of the
    framework so every framework sees the same partition."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, setting]))
    spec = resolve_setting(config, setting, rng)
    ds = config.dataset

    adversaries = {adv.index(config.n): _with_default_classes(adv, ds.num_classes)
                   for adv in config.adversaries}
    gan_split = [i for i, a in adversaries.items()
                 if a.kind == AdversaryKind.GAN_ATTACKER and not a.iid_control]

    if ds.kind == "blobs":
        centers = blob_centers(ds.num_classes, ds.dim, rng)
        if gan_split:
            attacker_idx = gan_split[0]
            cfg = adversaries[attacker_idx]
            pooled = make_blobs(sum(spec.sizes) * 2, ds.num_classes, ds.dim, rng,
                                spread=ds.spread, centers=centers)
            adv_data, victims = gan_attacker_setup(pooled, cfg.victim_classes,
                                                   cfg.adversary_classes,
                                                   config.n - 1, rng)
            victims.insert(attacker_idx, adv_data)
            datasets = [shard.subset(np.arange(min(len(shard), size)))
                        for shard, size in zip(victims, spec.sizes)]
        else:
            datasets = [make_blobs(size, ds.num_classes, ds.dim, rng,
                                   spread=ds.spread, centers=centers)
                        for size in spec.sizes]
        test = make_blobs(ds.test_size, ds.num_classes, ds.dim, rng,
                          spread=ds.spread, centers=centers)
    else:
        source = ds.path if ds.kind == "csv" else f"{ds.images_path}, {ds.labels_path}"
        try:
            full = (load_csv(ds.path, ds.num_classes) if ds.kind == "csv"
                    else load_idx(ds.images_path, ds.labels_path, ds.num_classes))
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from None
        if full.dim != ds.dim:
            raise ConfigError(f"{source}: {full.dim} features, but dataset.dim is {ds.dim}")
        # The prototype release's sensitivity sqrt(dim) / n_c assumes this range.
        if full.features.size and not (0.0 <= full.features.min() and full.features.max() <= 1.0):
            raise ConfigError(f"{source}: features outside [0, 1]")
        order = rng.permutation(len(full))
        test = full.subset(order[:ds.test_size])
        pool = order[ds.test_size:]
        if sum(spec.sizes) > pool.size:
            raise ConfigError("dataset too small for the requested partition")
        datasets, start = [], 0
        for size in spec.sizes:
            datasets.append(full.subset(pool[start:start + size]))
            start += size

    for idx, adv in adversaries.items():
        if adv.kind.free_rider:
            datasets[idx] = _noise_dataset(len(datasets[idx]), datasets[idx].dim,
                                           datasets[idx].num_classes, rng)
    return datasets, spec, test, adversaries


# ---------------------------------------------------------------------------
# Cells and experiments
# ---------------------------------------------------------------------------

class CellGroup:
    """What the cells of one (setting, seed) share: one partition, built
    into parties once, and one pretraining for every pretrained framework
    among config.frameworks. Each framework of config.frameworks asks for
    its parties once, centralised (which starts from the parties as built)
    before any pretrained framework; run_group keeps that order.

    Built by the first cell that asks, so that its work happens inside
    that cell. The group keeps the setting spec and the test set; it
    hands the unsplit datasets to build_parties, which drops each one as
    its party is built. It holds one party list: the first pretrained
    framework to ask pretrains it in place, each cell but the last gets a
    copy (copy_parties) and the last takes the list itself.
    """

    def __init__(self, config: ExperimentConfig, setting: int, seed: int):
        self.config, self.setting, self.seed = config, setting, seed
        self.left = len(config.frameworks)  # the cells that have not asked yet
        self.spec: SettingSpec | None = None
        self.test: Dataset | None = None
        self.held: list[Party] | None = None

    def parties(self, framework: str) -> list[Party]:
        if self.spec is None:
            datasets, self.spec, self.test, adversaries = build_cell_data(
                self.config, self.setting, self.seed)
            self.held = build_parties(datasets, self.spec.sharing_levels, self.config.protocol,
                                      np.random.SeedSequence([self.seed, self.setting, 7]),
                                      adversaries)
        pretrained = self.held[0].standalone_accuracy is not None
        if framework in protocol.PRETRAINED_FRAMEWORKS:
            if not pretrained:
                protocol.pretrain(self.held, self.test)
        elif pretrained:
            raise ValueError(f"{framework} starts from the parties as built, but they are "
                             "pretrained already; it must ask before every pretrained framework")
        self.left -= 1
        if self.left:
            return protocol.copy_parties(self.held)
        parties, self.held = self.held, None
        return parties


@dataclass
class CellTrace:
    """One cell's trace, each observed fact once: its parties, the run trace
    (with the per-party maps), whether the ledger verified (fdpddl only) and
    detection (with adversaries only). The report derives the rest: fairness
    (cell_fairness), and the detection stage and credibility balance columns
    (_table_rows)."""

    framework: str
    setting: int
    seed: int
    party_ids: list[str]
    sizes: list[int]
    chain_valid: bool | None
    trace: protocol.RunTrace
    detection: list[Detection] | None = None

    def __post_init__(self):
        ids, trace = set(self.party_ids), self.trace
        # Each credibility row's balance is its owner's tokens in that round,
        # held by the one accuracy row of that (round, party).
        accuracy_keys = Counter((row.round, row.party) for row in trace.accuracy_rows)
        repeated = sorted(key for key, count in accuracy_keys.items() if count > 1)
        unbalanced = sorted({(row.round, row.owner) for row in trace.credibility_rows}
                            - accuracy_keys.keys())
        named = {"trace.accuracy_rows": {row.party for row in trace.accuracy_rows},
                 "trace.credibility_rows": {party for row in trace.credibility_rows
                                            for party in (row.owner, row.peer)},
                 "trace.events": {event.party for event in trace.events},
                 "detection": {entry.party for entry in self.detection or ()}}
        checks = (
            (self.setting in (1, 2, 3), f"setting {self.setting} not in {{1, 2, 3}}"),
            (len(self.party_ids) >= 2, "a cell needs at least two parties"),
            (len(ids) == len(self.party_ids), f"party_ids repeats {_duplicates(self.party_ids)}"),
            *((set(entries) == ids, f"trace.{key} is keyed by {sorted(entries)}, not by party_ids")
              for key, entries in (("final_accuracies", trace.final_accuracies),
                                   ("sharing_levels", trace.sharing_levels),
                                   # empty for a centralised cell, which does not pretrain
                                   ("standalone_accuracies", trace.standalone_accuracies
                                    or (ids if self.framework == "centralised" else {})))),
            *((len(pair) == 2, f"trace.token_totals[{i}] is {pair}, not a [round, total] pair")
              for i, pair in enumerate(trace.token_totals)),
            *((parties <= ids, f"{key} name {sorted(parties - ids)}, not in party_ids")
              for key, parties in named.items()),
            (not repeated, f"trace.accuracy_rows repeat (round, party) {repeated}"),
            (not unbalanced, f"trace.credibility_rows of (round, owner) {unbalanced} "
                             "have no accuracy row to take the balance from"),
        )
        errors = [message for ok, message in checks if not ok]
        if errors:
            raise ValueError("; ".join(errors))


def run_cell(config: ExperimentConfig, framework: str, setting: int, seed: int,
             group: CellGroup | None = None) -> CellTrace:
    """One (framework, setting, seed) run and its trace. `group` is the
    set-up this cell shares with the other cells of its (setting, seed);
    without one the cell builds its own."""
    group = group or CellGroup(replace(config, frameworks=(framework,)), setting, seed)
    parties = group.parties(framework)
    spec, test = group.spec, group.test
    chain_valid = None
    if framework == "fdpddl":
        trace, ledger = run_fdpddl(parties, config.protocol, config.rounds, test)
        chain_valid = verify_chain(ledger.chain)
    else:
        # Called through the module so that a wrapper installed on
        # protocol.run_baseline sees the call.
        trace = protocol.run_baseline(framework, parties, config.rounds, test)

    adversaries_by_id = {p.id: p.adversary for p in parties if p.adversary}
    detection = detection_report(trace.events, adversaries_by_id) if adversaries_by_id else None
    return CellTrace(framework, setting, seed, sorted(p.id for p in parties), list(spec.sizes),
                     chain_valid, trace, detection)


def cell_fairness(cell: CellTrace) -> tuple[float | None, str]:
    """r_xy of a cell and, when it is undefined (None), why: the correlation
    of its contribution axis (build_x_axis of its sharing levels and
    standalone accuracies) with its final accuracies, over party_ids."""
    sharing, standalone, final = ([entries[pid] for pid in cell.party_ids] for entries in (
        cell.trace.sharing_levels, cell.trace.standalone_accuracies, cell.trace.final_accuracies))
    try:
        return fairness(build_x_axis(cell.setting, sharing, standalone), final), ""
    except ZeroVarianceError as exc:
        return None, str(exc)


def cell_name(framework: str, setting: int, seed: int) -> str:
    return f"{framework}_s{setting}_seed{seed}"


def trace_json(cell: CellTrace) -> str:
    """The text of a cell trace file."""
    return json.dumps(cell, default=_entries, sort_keys=True, separators=(",", ":"))


def read_trace(path, key: tuple[str, int, int]) -> CellTrace:
    """The trace at path of cell key, (framework, setting, seed); a
    ConfigError naming path and every fault, or the trace's own cell."""
    errors: list[str] = []
    cell = _read(CellTrace, _load_json(path), "", errors)
    if errors:
        raise ConfigError(f"{path}: not a cell trace: " + "; ".join(errors))
    name = cell_name(cell.framework, cell.setting, cell.seed)
    if name != cell_name(*key):
        raise ConfigError(f"{path}: the trace of cell {name}, not of {cell_name(*key)}")
    return cell


def run_group(config: ExperimentConfig, setting: int, seed: int) -> list[CellTrace]:
    """The cells of one (setting, seed), one per framework, on one CellGroup,
    in config.frameworks order. They run centralised first, since it starts
    from the parties as built (see CellGroup)."""
    group = CellGroup(config, setting, seed)
    order = sorted(config.frameworks, key=lambda fw: fw in protocol.PRETRAINED_FRAMEWORKS)
    cells = {fw: run_cell(config, fw, setting, seed, group) for fw in order}
    return [cells[fw] for fw in config.frameworks]


def run_experiment(config: ExperimentConfig, outdir) -> dict:
    """Run every configured cell, store each group's traces as it ends, and
    build the report tables from them. Cells run in (setting, seed) groups
    (see CellGroup); with parallel_workers > 1, in worker processes, at
    most one per group."""
    groups = [(st, sd) for st in config.settings for sd in config.seeds]

    traces_dir = os.path.join(outdir, "traces")
    if os.path.isdir(traces_dir):
        _check_grid(config, traces_dir)
    with contextlib.ExitStack() as stack:
        map_groups = map  # serially, each group runs when the loop asks for it
        # The pool starts all of its workers at the first submit.
        workers = min(config.parallel_workers, len(groups))
        if workers > 1:
            # Imported here: it loads multiprocessing, which a serial run never needs.
            from concurrent.futures import ProcessPoolExecutor

            map_groups = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for i, cells in enumerate(map_groups(run_group, [config] * len(groups), *zip(*groups))):
            # Made once the first group has run, so that a run which fails
            # on its data file leaves no half-made outdir behind.
            if i == 0:
                os.makedirs(traces_dir, exist_ok=True)
                _write_json(os.path.join(outdir, "config.json"), config_echo(config))
            for cell in cells:
                name = cell_name(cell.framework, cell.setting, cell.seed)
                with open(os.path.join(traces_dir, f"{name}.json"), "w") as fh:
                    fh.write(trace_json(cell))
            cells = cell = None  # drop this group before the next one runs
    return generate_reports(traces_dir, outdir, config)


_CELL_FILE = re.compile(rf"({'|'.join(FRAMEWORKS)})_s(\d+)_seed(\d+)\.json")


def cell_traces(traces_dir) -> list[tuple[tuple[str, int, int], str]]:
    """((framework, setting, seed), path) of every cell trace in
    traces_dir, in that order. A file is a cell trace when its name is the
    one cell_name gives the cell."""
    cells = []
    for name in os.listdir(traces_dir):
        match = _CELL_FILE.fullmatch(name)
        if match:
            key = (match[1], int(match[2]), int(match[3]))
            if name == f"{cell_name(*key)}.json":
                cells.append((key, os.path.join(traces_dir, name)))
    return sorted(cells)


def _check_grid(config: ExperimentConfig, traces_dir) -> None:
    """Raise ConfigError naming a trace in traces_dir of a cell outside
    config's grid, which the tables of traces_dir would cover as well."""
    grid = {(fw, st, sd) for fw in config.frameworks for st in config.settings
            for sd in config.seeds}
    for key, path in cell_traces(traces_dir):
        if key not in grid:
            raise ConfigError(f"{path} is a trace of a cell outside the config's grid")


# Each table's columns after the cell's framework, setting and seed.
_TABLES = {
    "accuracy.csv": ["party", "standalone_accuracy", "final_accuracy"],
    "fairness.csv": ["r_xy", "degenerate", "reason"],
    "detection.csv": ["party", "kind", "detected", "stage", "round"],
    "rounds.csv": ["round", "party", "accuracy", "tokens"],
    "credibility.csv": ["round", "owner", "peer", "credibility", "balance"],
}


def _table_rows(cell: CellTrace) -> dict[str, typing.Iterable[dict]]:
    """The rows one cell trace adds to each table, keyed by column. The
    report derives three kinds of column: a FAIRNESS_FRAMEWORKS cell's
    fairness row (cell_fairness), each detection's detected and stage, and
    each credibility row's balance, its owner's tokens that round."""
    trace = cell.trace
    fair = [cell_fairness(cell)] if cell.framework in FAIRNESS_FRAMEWORKS else []
    tokens = {(row.round, row.party): row.tokens for row in trace.accuracy_rows}
    return {
        "accuracy.csv": [{"party": pid, "final_accuracy": trace.final_accuracies[pid],
                          "standalone_accuracy": trace.standalone_accuracies.get(pid, "")}
                         for pid in cell.party_ids],
        "fairness.csv": [{"r_xy": r_xy, "degenerate": r_xy is None, "reason": reason}
                         for r_xy, reason in fair],
        # Round 0 is initialisation (as in trace.token_totals).
        "detection.csv": [{**vars(rec), "detected": rec.round is not None,
                           "stage": ("never" if rec.round is None
                                     else "init" if rec.round == 0 else "update"),
                           "round": "-" if rec.round is None else rec.round}
                          for rec in cell.detection or []],
        "rounds.csv": map(vars, trace.accuracy_rows),
        "credibility.csv": [{**vars(row), "balance": tokens[row.round, row.owner]}
                            for row in trace.credibility_rows],
    }


def generate_reports(traces_dir, outdir, config: ExperimentConfig) -> dict:
    """Tables and summary from the cell traces in traces_dir (pure;
    byte-stable). Reads one trace at a time, in cell_traces order, and
    writes every table row by row under a temporary name, which replaces
    the table only once the last trace has been read."""
    cells, chain_flags = [], []
    mean_accuracy: dict[tuple, list] = {}
    grouped: dict[tuple, list] = {}
    partial = {name: os.path.join(outdir, f"{name}.partial") for name in _TABLES}
    try:
        with contextlib.ExitStack() as stack:
            writers = {}
            for name, columns in _TABLES.items():
                writers[name] = csv.writer(stack.enter_context(open(partial[name], "w", newline="")))
                writers[name].writerow(["framework", "setting", "seed", *columns])
            for key, path in cell_traces(traces_dir):
                cell = read_trace(path, key)
                tables = _table_rows(cell)
                for name, rows in tables.items():
                    writers[name].writerows([*key, *(row[c] for c in _TABLES[name])]
                                            for row in rows)
                finals = cell.trace.final_accuracies
                mean_accuracy.setdefault(key[:2], []).append(sum(finals.values()) / len(finals))
                for row in tables["fairness.csv"]:
                    if row["r_xy"] is not None:
                        grouped.setdefault(key[:2], []).append(row["r_xy"])
                if cell.chain_valid is not None:
                    chain_flags.append(cell.chain_valid)
                cells.append(list(key))
        for name, path in partial.items():
            os.replace(path, os.path.join(outdir, name))
    finally:
        for path in partial.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    summary = {
        "cells": cells,
        "mean_final_accuracy": {
            f"{fw}/setting{st}": sum(v) / len(v) for (fw, st), v in sorted(mean_accuracy.items())},
        "mean_fairness": {
            f"{fw}/setting{st}": sum(v) / len(v) for (fw, st), v in sorted(grouped.items())},
        "chain_valid": all(chain_flags) if chain_flags else None,
        "config": config_echo(config),
    }
    _write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    config = load_config(args.config)
    # Each flag narrows the config's grid, which checks it like the rest.
    for flag, key, values in (("--seed", "seeds", args.seed),
                              ("--framework", "frameworks", args.framework)):
        if values:
            try:
                config = replace(config, **{key: tuple(values)})
            except ValueError as exc:
                raise ConfigError(f"{flag}: {exc}") from None
    summary = run_experiment(config, args.out)
    print(json.dumps({"cells_completed": len(summary["cells"]),
                      "out": args.out}, sort_keys=True))
    return 0


def _cmd_verify_chain(args) -> int:
    chain = []
    try:
        for block in iter_chain(args.dump):
            chain.append(block)
    except ValueError as exc:
        print(json.dumps({"blocks": len(chain), "valid": False, "error": str(exc)}))
        return 1
    ok = verify_chain(chain)
    print(json.dumps({"blocks": len(chain), "valid": ok}))
    return 0 if ok else 1


def _cmd_report(args) -> int:
    # Checked first, so that a wrong --traces is named, not a missing config.json.
    if not cell_traces(args.traces):
        raise ConfigError(f"{args.traces} holds no cell trace (<framework>_s<setting>_seed<seed>.json)")
    # run_experiment writes config.json next to the traces directory.
    config = load_config(os.path.join(os.path.dirname(os.path.abspath(args.traces)),
                                      "config.json"))
    _check_grid(config, args.traces)
    # The topmost directory that makedirs creates, removed again on exit 2;
    # an --out that exists already is left as it was. Both use the
    # normalised path, so that "missing/.." makes no "missing".
    out = os.path.abspath(args.out)
    created, path = None, out
    while not os.path.exists(path):
        created, path = path, os.path.dirname(path)
    os.makedirs(out, exist_ok=True)
    try:
        summary = generate_reports(args.traces, out, config)
    except (ConfigError, OSError):
        if created:
            shutil.rmtree(created, ignore_errors=True)
        raise
    print(json.dumps({"cells": len(summary["cells"]), "out": args.out}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="faircollab",
                                     description="fair private collaborative learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment grid")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, action="append",
                       help="override configured seeds (repeatable)")
    p_run.add_argument("--framework", action="append", choices=FRAMEWORKS,
                       help="restrict to these frameworks (repeatable)")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify-chain", help="verify a ledger dump")
    p_verify.add_argument("--dump", required=True)
    p_verify.set_defaults(func=_cmd_verify_chain)

    p_report = sub.add_parser("report", help="regenerate tables from stored traces")
    p_report.add_argument("--traces", required=True)
    p_report.add_argument("--out", required=True)
    p_report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
