"""The benchmark's workloads: pinned experiment configs, each with its reason.

Every workload runs serially (``parallel_workers`` 0) in one process as a
closed loop: a cell starts only after the previous one has finished.
The configs are copied here rather than read from ``configs/`` so that an
edit there cannot silently change what the benchmark measures.

``--seed n`` shifts the cell seeds of a workload by whole blocks: a
workload with seeds ``[0 .. k-1]`` runs seeds ``[n*k .. n*k + k-1]``.
Seed 0 reproduces the configs below exactly.
"""

from __future__ import annotations

import copy

# Verbatim content of configs/desk_blobs.json.
DESK_BLOBS = {
    "name": "desk-blobs",
    "dataset": {"kind": "blobs", "num_classes": 10, "dim": 32, "spread": 0.15,
                "per_party": 150, "test_size": 400, "name": "blobs"},
    "n": 4,
    "settings": [1, 2, 3],
    "rounds": 10,
    "seeds": [0, 1, 2, 3, 4],
    "frameworks": ["fdpddl", "distributed_dssgd", "standalone", "centralised"],
    "adversaries": [],
    "protocol": {"hidden_dims": [32], "augment_replication": 100,
                 "dp_steps_per_round": 8, "download_fraction": 0.85},
    "min_party_size": 40,
    "parallel_workers": 0,
}

# The paper's 784-128-10 MLP (101,770 parameters) on synthetic 784-d
# blobs, because MNIST cannot be downloaded. The spread is raised from
# 0.15 so that accuracy does not saturate at 1.0, which would make the
# fairness correlation degenerate and the accuracy guard meaningless.
PAPER_SHAPE = {
    "name": "paper-shape",
    "dataset": {"kind": "blobs", "num_classes": 10, "dim": 784, "spread": 0.7,
                "per_party": 600, "test_size": 400, "name": "blobs"},
    "n": 4,
    "settings": [1],
    "rounds": 1,
    "seeds": [0],
    "frameworks": ["fdpddl"],
    "adversaries": [],
    "protocol": {"hidden_dims": [128], "augment_replication": 100,
                 "dp_steps_per_round": 8, "download_fraction": 0.85},
    "min_party_size": 40,
    "parallel_workers": 0,
}

# Eight parties with heterogeneous sharing levels (setting 2, uniform in
# [0.1, 0.5]) and one random-label free-rider; 8 x 7 purchase orders per
# round make trading the main work.
MARKET = {
    "name": "market",
    "dataset": {"kind": "blobs", "num_classes": 10, "dim": 32, "spread": 0.15,
                "per_party": 150, "test_size": 400, "name": "blobs"},
    "n": 8,
    "settings": [2],
    "rounds": 20,
    "seeds": [0, 1, 2, 3, 4],
    "frameworks": ["fdpddl"],
    "adversaries": [{"kind": "free_rider_random_label", "party": 7}],
    "lambda_low": 0.1,
    "lambda_high": 0.5,
    "protocol": {"hidden_dims": [32], "augment_replication": 100,
                 "dp_steps_per_round": 1, "download_fraction": 0.85},
    "min_party_size": 40,
    "parallel_workers": 0,
}

WORKLOADS = {
    "desk_grid": (DESK_BLOBS,
                  "the default desk_blobs grid; the only workload where baselines "
                  "and pretraining (train_sgd) carry real weight"),
    "paper_shape": (PAPER_SHAPE,
                    "paper-size 784-128-10 model; DP-SGD per-example clipping does "
                    "almost all the work and replicated data dominates memory"),
    "market": (MARKET,
               "8 parties and a free-rider; signed, encrypted trading and chain "
               "verification take about half the time"),
}


def workload_config(name: str, seed: int) -> dict:
    """The experiment config of workload ``name`` for workload seed ``seed``."""
    if seed < 0:
        raise ValueError("the workload seed must be nonnegative")
    config = copy.deepcopy(WORKLOADS[name][0])
    block = len(config["seeds"])
    config["seeds"] = [s + seed * block for s in config["seeds"]]
    return config


def expected_cells(config: dict) -> list[tuple[str, int, int]]:
    """(framework, setting, seed) of every cell the config runs."""
    return [(fw, st, sd) for fw in config["frameworks"]
            for st in config["settings"] for sd in config["seeds"]]
