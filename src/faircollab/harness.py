"""Experiment harness and command line interface.

Builds the three partition settings (equal shares, heterogeneous sharing
levels, Dirichlet-imbalanced sizes), runs the framework comparison over
seeds, computes the contribution/reward correlation, and writes CSV
tables plus a JSON summary. Reports are a pure function of the stored
cell traces, so `report` regenerates byte-identical tables from a
previous `run`.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass, replace

import numpy as np

from .adversary import AdversaryConfig, AdversaryKind, detection_report, gan_attacker_setup
from .ledger import load_chain, verify_chain
from .numerics import Dataset, blob_centers, load_csv, load_idx, make_blobs
from . import protocol
from .protocol import FRAMEWORKS, ProtocolConfig, build_parties, run_fdpddl


# Setting 3 draws party shares from a symmetric Dirichlet with this alpha.
DIRICHLET_ALPHA = 1.0


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
    decides how to surface the degenerate case.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
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
    raise ValueError(f"unknown setting {setting}")


@dataclass(frozen=True)
class FairnessReport:
    x: tuple
    y: tuple
    r_xy: float | None
    degenerate: bool = False
    reason: str = ""

    def to_dict(self) -> dict:
        return {"x": list(self.x), "y": list(self.y), "r_xy": self.r_xy,
                "degenerate": self.degenerate, "reason": self.reason}


def fairness_report(setting: int, sharing_levels, standalone_accuracies, final_accuracies) -> FairnessReport:
    try:
        x = build_x_axis(setting, sharing_levels, standalone_accuracies)
        r = fairness(x, final_accuracies)
        return FairnessReport(tuple(x), tuple(final_accuracies), r)
    except ZeroVarianceError as exc:
        x = np.asarray(standalone_accuracies, dtype=np.float64)
        return FairnessReport(tuple(x), tuple(final_accuracies), None, True, str(exc))


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


@dataclass(frozen=True)
class SettingSpec:
    """Resolved per-run partition plan: sizes and sharing levels per party."""

    setting: int
    sizes: tuple[int, ...]
    sharing_levels: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class ExperimentConfig:
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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        errors: list[str] = []
        known = set(cls.__dataclass_fields__)
        for key in obj:
            if key not in known:
                errors.append(f"unknown config key {key!r}")
        data = {k: v for k, v in obj.items() if k in known}

        if "dataset" in data:
            try:
                data["dataset"] = DatasetSpec(**data["dataset"])
            except TypeError as exc:
                errors.append(f"dataset: {exc}")
        if "protocol" in data:
            try:
                proto = dict(data["protocol"])
                if "hidden_dims" in proto:
                    proto["hidden_dims"] = tuple(proto["hidden_dims"])
                # ProtocolConfig range-checks its fields as it is built.
                wrong = _type_errors(ProtocolConfig, proto, "protocol.")
                errors.extend(wrong)
                if not wrong:
                    data["protocol"] = ProtocolConfig(**proto)
            except (TypeError, ValueError) as exc:
                errors.append(f"protocol: {exc}")
        if "adversaries" in data:
            advs = []
            for i, adv in enumerate(data["adversaries"]):
                try:
                    advs.append(AdversaryConfig(**adv))
                except (TypeError, ValueError) as exc:
                    errors.append(f"adversaries[{i}]: {exc}")
            data["adversaries"] = tuple(advs)
        for key in ("settings", "seeds", "frameworks"):
            if isinstance(data.get(key), list):
                data[key] = tuple(data[key])

        cfg = None
        if not errors:
            cfg = cls(**data)
            errors.extend(cfg.validation_errors())
        if errors:
            raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
        return cfg

    def validation_errors(self) -> list[str]:
        # The range checks below assume every field has its annotated type.
        errors = _type_errors(type(self), vars(self))
        if errors:
            return errors
        if self.n < 2:
            errors.append("n must be at least 2")
        if self.rounds < 0:
            errors.append("rounds cannot be negative")
        for key in ("settings", "seeds", "frameworks"):
            duplicated = _duplicates(getattr(self, key))
            if duplicated:
                errors.append(f"{key} repeats {duplicated}")
        for s in self.settings:
            if s not in (1, 2, 3):
                errors.append(f"setting {s} not in {{1, 2, 3}}")
        for seed in self.seeds:
            if seed < 0:
                errors.append(f"seed {seed} must be a nonnegative integer")
        for fw in self.frameworks:
            if fw not in FRAMEWORKS:
                errors.append(f"framework {fw!r} not one of {FRAMEWORKS}")
        if not 0.0 < self.lambda_low <= self.lambda_high <= 1.0:
            errors.append("need 0 < lambda_low <= lambda_high <= 1")
        if self.dataset.kind not in ("blobs", "csv", "idx"):
            errors.append(f"dataset kind {self.dataset.kind!r} unknown")
        if self.dataset.kind == "csv" and not self.dataset.path:
            errors.append("csv dataset needs a path")
        if self.dataset.kind == "idx" and not (self.dataset.images_path and self.dataset.labels_path):
            errors.append("idx dataset needs images_path and labels_path")
        for key in ("num_classes", "dim", "per_party", "test_size"):
            if getattr(self.dataset, key) < 1:
                errors.append(f"dataset.{key} must be at least 1")
        if self.dataset.spread < 0:
            errors.append("dataset.spread cannot be negative")
        num_classes = self.dataset.num_classes
        for adv in self.adversaries:
            if not -1 <= adv.party < self.n:
                errors.append(f"adversary party index {adv.party} out of range")
            if adv.crafted_scale < 0:
                errors.append("adversary crafted_scale cannot be negative")
            classes = _with_default_classes(adv, num_classes)
            for key in ("victim_classes", "adversary_classes"):
                outside = [c for c in getattr(classes, key) if not 0 <= c < num_classes]
                if outside:
                    errors.append(f"adversary {key} {outside} outside [0, {num_classes})")
            overlap = sorted(set(classes.victim_classes) & set(classes.adversary_classes))
            if overlap:
                errors.append(f"adversary class sets overlap on {overlap}")
            if (adv.kind == AdversaryKind.GAN_ATTACKER and not adv.iid_control
                    and not classes.victim_classes):
                errors.append("gan_attacker victim_classes empty: needs at least 2 classes")
        # build_cell_data keeps one adversary per party, so a second one
        # on the same party would silently replace the first.
        duplicated = _duplicates([adv.index(self.n) for adv in self.adversaries])
        if duplicated:
            errors.append(f"adversaries repeat party {duplicated}")
        if self.min_party_size < 10:
            errors.append("min_party_size must be at least 10")
        return errors


def _type_errors(cls, values: dict, prefix: str = "") -> list[str]:
    """One message per entry of values (field -> value) whose type is not
    the one annotated on that field of the dataclass cls, checking nested
    dataclasses field by field. A bool is not a number, and an int is fine
    where a float belongs."""
    hints = typing.get_type_hints(cls)
    return [e for name, value in values.items() if name in hints
            for e in _wrong_type(value, hints[name], prefix + name)]


def _wrong_type(value, hint, where: str) -> list[str]:
    if typing.get_origin(hint) is tuple:
        if isinstance(value, tuple):
            item = typing.get_args(hint)[0]
            return [e for i, v in enumerate(value) for e in _wrong_type(v, item, f"{where}[{i}]")]
    elif is_dataclass(hint) and isinstance(value, hint):
        return _type_errors(hint, vars(value), where + ".")
    elif (isinstance(value, bool) == (hint is bool)
          and isinstance(value, (int, float) if hint is float else hint)):
        return []
    return [f"{where} must be {getattr(hint, '__name__', hint)}, not {value!r}"]


def _duplicates(values) -> list:
    """Values that occur more than once, in order of first repeat."""
    repeated = []
    for i, value in enumerate(values):
        if value in values[:i] and value not in repeated:
            repeated.append(value)
    return repeated


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_config(config: ExperimentConfig, path) -> None:
    _write_json(path, config.to_dict())


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
            datasets = []
            v = 0
            for i in range(config.n):
                if i == attacker_idx:
                    datasets.append(adv_data.subset(np.arange(min(len(adv_data), spec.sizes[i]))))
                else:
                    shard = victims[v]
                    datasets.append(shard.subset(np.arange(min(len(shard), spec.sizes[i]))))
                    v += 1
        else:
            datasets = [make_blobs(size, ds.num_classes, ds.dim, rng,
                                   spread=ds.spread, centers=centers)
                        for size in spec.sizes]
        test = make_blobs(ds.test_size, ds.num_classes, ds.dim, rng,
                          spread=ds.spread, centers=centers)
    else:
        full = load_csv(ds.path) if ds.kind == "csv" else load_idx(ds.images_path, ds.labels_path)
        # The prototype release's sensitivity sqrt(dim) / n_c assumes this range.
        if full.features.size and not (0.0 <= full.features.min() and full.features.max() <= 1.0):
            raise ConfigError(f"{ds.kind} dataset has features outside [0, 1]")
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

def run_cell(config: ExperimentConfig, framework: str, setting: int, seed: int) -> dict:
    """One (framework, setting, seed) run; returns the serialisable trace."""
    datasets, spec, test, adversaries = build_cell_data(config, setting, seed)
    proto = replace(config.protocol, dataset_name=config.dataset.name)
    parties = build_parties(datasets, spec.sharing_levels, proto,
                            np.random.SeedSequence([seed, setting, 7]), adversaries)
    chain_valid = None
    if framework == "fdpddl":
        trace, ledger = run_fdpddl(parties, proto, config.rounds, test)
        chain_valid = verify_chain(ledger.chain)
    else:
        # Called through the module so that a wrapper installed on
        # protocol.run_baseline sees the call.
        trace = protocol.run_baseline(framework, parties, config.rounds, test)

    party_ids = sorted(p.id for p in parties)
    result = {
        "framework": framework,
        "setting": setting,
        "seed": seed,
        "party_ids": party_ids,
        "sizes": list(spec.sizes),
        "final_accuracies": trace.final_accuracies,
        "standalone_accuracies": trace.standalone_accuracies,
        "sharing_levels": {p.id: p.sharing_level for p in parties},
        "chain_valid": chain_valid,
        "trace": {**vars(trace), "events": [asdict(e) for e in trace.events]},
    }
    if framework in ("fdpddl", "distributed_dssgd"):
        lams = [result["sharing_levels"][pid] for pid in party_ids]
        saccs = [trace.standalone_accuracies[pid] for pid in party_ids]
        finals = [trace.final_accuracies[pid] for pid in party_ids]
        result["fairness"] = fairness_report(setting, lams, saccs, finals).to_dict()
    adversaries_by_id = {p.id: p.adversary for p in parties if p.adversary}
    if adversaries_by_id:
        records = detection_report(result["trace"]["events"], adversaries_by_id)
        result["detection"] = [r.to_dict() for r in records]
    return result


def cell_name(framework: str, setting: int, seed: int) -> str:
    return f"{framework}_s{setting}_seed{seed}"


def run_experiment(config: ExperimentConfig, outdir,
                   seed_override=None, framework_filter=None) -> dict:
    """Run every configured cell, store traces, and emit report tables."""
    seeds = tuple(seed_override) if seed_override else config.seeds
    frameworks = tuple(framework_filter) if framework_filter else config.frameworks
    # One trace file per cell: a repeated cell would be summarised twice by
    # run but once by report.
    for flag, values in (("--seed", seeds), ("--framework", frameworks)):
        duplicated = _duplicates(values)
        if duplicated:
            raise ConfigError(f"{flag} repeats {duplicated}")
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"--seed {min(seeds)} must be a nonnegative integer")
    cells = [(fw, st, sd) for fw in frameworks for st in config.settings for sd in seeds]

    os.makedirs(os.path.join(outdir, "traces"), exist_ok=True)
    _write_json(os.path.join(outdir, "config.json"), config_echo(config))
    results = []
    if config.parallel_workers > 1:
        with ProcessPoolExecutor(max_workers=config.parallel_workers) as pool:
            results = list(pool.map(run_cell, [config] * len(cells), *zip(*cells)))
    else:
        for fw, st, sd in cells:
            results.append(run_cell(config, fw, st, sd))

    for result in results:
        name = cell_name(result["framework"], result["setting"], result["seed"])
        with open(os.path.join(outdir, "traces", f"{name}.json"), "w") as fh:
            json.dump(result, fh, sort_keys=True, separators=(",", ":"))
    summary = generate_reports(results, outdir, config)
    return summary


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def generate_reports(results: list[dict], outdir, config: ExperimentConfig | None = None) -> dict:
    """Tables and summary from stored cell results (pure; byte-stable)."""
    results = sorted(results, key=lambda r: (r["framework"], r["setting"], r["seed"]))

    acc_rows = []
    for r in results:
        for pid in r["party_ids"]:
            acc_rows.append([r["framework"], r["setting"], r["seed"], pid,
                             r["standalone_accuracies"].get(pid, ""),
                             r["final_accuracies"][pid]])
    _write_csv(os.path.join(outdir, "accuracy.csv"),
               ["framework", "setting", "seed", "party", "standalone_accuracy", "final_accuracy"],
               acc_rows)

    fairness_rows = []
    grouped: dict[tuple, list] = {}
    for r in results:
        if "fairness" in r:
            fairness_rows.append([r["framework"], r["setting"], r["seed"],
                                  r["fairness"]["r_xy"], r["fairness"]["degenerate"],
                                  r["fairness"]["reason"]])
            if r["fairness"]["r_xy"] is not None:
                grouped.setdefault((r["framework"], r["setting"]), []).append(r["fairness"]["r_xy"])
    _write_csv(os.path.join(outdir, "fairness.csv"),
               ["framework", "setting", "seed", "r_xy", "degenerate", "reason"],
               fairness_rows)

    detection_rows = []
    for r in results:
        for rec in r.get("detection", []):
            detection_rows.append([r["framework"], r["setting"], r["seed"], rec["party"],
                                   rec["kind"], rec["detected"], rec["stage"],
                                   "-" if rec["round"] is None else rec["round"]])
    _write_csv(os.path.join(outdir, "detection.csv"),
               ["framework", "setting", "seed", "party", "kind", "detected", "stage", "round"],
               detection_rows)

    round_rows = []
    for r in results:
        for row in r["trace"]["accuracy_rows"]:
            round_rows.append([r["framework"], r["setting"], r["seed"],
                               row["round"], row["party"], row["accuracy"], row["tokens"]])
    _write_csv(os.path.join(outdir, "rounds.csv"),
               ["framework", "setting", "seed", "round", "party", "accuracy", "tokens"],
               round_rows)

    cred_rows = []
    for r in results:
        for row in r["trace"].get("credibility_rows", []):
            cred_rows.append([r["framework"], r["setting"], r["seed"], row["round"],
                              row["owner"], row["peer"], row["credibility"], row["balance"]])
    _write_csv(os.path.join(outdir, "credibility.csv"),
               ["framework", "setting", "seed", "round", "owner", "peer", "credibility", "balance"],
               cred_rows)

    mean_accuracy: dict[tuple, list] = {}
    for r in results:
        key = (r["framework"], r["setting"])
        mean_accuracy.setdefault(key, []).append(
            sum(r["final_accuracies"].values()) / len(r["final_accuracies"]))

    summary = {
        "cells": [[r["framework"], r["setting"], r["seed"]] for r in results],
        "mean_final_accuracy": {
            f"{fw}/setting{st}": sum(v) / len(v) for (fw, st), v in sorted(mean_accuracy.items())},
        "mean_fairness": {
            f"{fw}/setting{st}": sum(v) / len(v) for (fw, st), v in sorted(grouped.items())},
        "chain_valid": all(r["chain_valid"] for r in results if r["chain_valid"] is not None)
                       if any(r["chain_valid"] is not None for r in results) else None,
    }
    if config is not None:
        summary["config"] = config_echo(config)
    _write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


def load_results(traces_dir) -> list[dict]:
    results = []
    for name in sorted(os.listdir(traces_dir)):
        if name.endswith(".json"):
            with open(os.path.join(traces_dir, name)) as fh:
                results.append(json.load(fh))
    return results


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    config = load_config(args.config)
    seeds = tuple(args.seed) if args.seed else None
    frameworks = tuple(args.framework) if args.framework else None
    summary = run_experiment(config, args.out, seeds, frameworks)
    print(json.dumps({"cells_completed": len(summary["cells"]),
                      "out": args.out}, sort_keys=True))
    return 0


def _cmd_fairness(args) -> int:
    with open(args.trace) as fh:
        result = json.load(fh)
    party_ids = result["party_ids"]
    report = fairness_report(
        result["setting"],
        [result["sharing_levels"][p] for p in party_ids],
        [result["standalone_accuracies"][p] for p in party_ids],
        [result["final_accuracies"][p] for p in party_ids])
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def _cmd_verify_chain(args) -> int:
    chain = load_chain(args.dump)
    ok = verify_chain(chain)
    print(json.dumps({"blocks": len(chain), "valid": ok}))
    return 0 if ok else 1


def _cmd_report(args) -> int:
    results = load_results(args.traces)
    # run_experiment writes config.json next to the traces directory.
    config = load_config(os.path.join(os.path.dirname(os.path.abspath(args.traces)),
                                      "config.json"))
    os.makedirs(args.out, exist_ok=True)
    generate_reports(results, args.out, config)
    print(json.dumps({"cells": len(results), "out": args.out}, sort_keys=True))
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

    p_fair = sub.add_parser("fairness", help="recompute fairness from a stored cell trace")
    p_fair.add_argument("--trace", required=True)
    p_fair.set_defaults(func=_cmd_fairness)

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
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
