"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Desk-scale configurations keep the whole suite within minutes.
"""

import json
import math
import os
import time
from collections import Counter

import numpy as np

from faircollab.credibility import (LabelMatrix, download_allocation, init_credibility,
                                    init_tokens, majority_vote, sigmoid_map, supplement)
from faircollab.harness import ExperimentConfig, fairness, run_cell, run_experiment
from faircollab.ledger import load_chain, verify_chain
from faircollab.numerics import MlpModel, Dataset, backward, loss, make_blobs, blob_centers
from faircollab.privacy import PrivacyAccountant, allocate_budgets, calibrate_sigma
from faircollab.protocol import ProtocolConfig, build_parties, run_fdpddl

DESK_PROTOCOL = {"augment_replication": 100, "dp_steps_per_round": 8,
                 "download_fraction": 0.85}


def report(num, name, passed, detail=""):
    print(f"\n[ACCEPTANCE {num:02d}] {name}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def desk_config(**overrides):
    base = {
        "name": "acceptance",
        "dataset": {"kind": "blobs", "num_classes": 10, "dim": 32, "spread": 0.15,
                    "per_party": 150, "test_size": 400, "name": "blobs"},
        "n": 4, "settings": [1], "rounds": 10, "seeds": list(range(5)),
        "frameworks": ["fdpddl"],
        "protocol": DESK_PROTOCOL,
        "min_party_size": 40,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def test_criterion_01_formula_golden_values():
    t0 = time.time()
    sigma_ok = abs(calibrate_sigma(1.0, 1e-5) - 4.8448) <= 1e-3
    mid_ok = sigmoid_map(0.5) == 0.5
    point_ok = abs(sigmoid_map(0.6) - 0.81757) <= 1e-4
    tokens_ok = init_tokens(0.1, 100_000, 2) == 10_000
    report(1, "formula golden values", sigma_ok and mid_ok and point_ok and tokens_ok,
           f"({time.time() - t0:.2f}s)")


def test_criterion_02_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        hidden = int(rng.integers(2, 6))
        dims = (int(rng.integers(2, 5)), hidden, int(rng.integers(2, 4)))
        model = MlpModel.seeded(dims, rng)
        n = int(rng.integers(3, 9))
        data = Dataset(rng.normal(size=(n, dims[0])), rng.integers(0, dims[-1], n), dims[-1])
        analytic = backward(model, data)
        numeric = np.zeros_like(analytic)
        step = 1e-5
        for k in range(model.param_count):
            saved = model.params[k]
            model.params[k] = saved + step
            up = loss(model, data)
            model.params[k] = saved - step
            down = loss(model, data)
            model.params[k] = saved
            numeric[k] = (up - down) / (2 * step)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, rel)
    report(2, "gradient vs central differences", worst < 1e-4,
           f"worst relative error {worst:.2e} ({time.time() - t0:.1f}s)")


def test_criterion_03_privacy_accounting():
    t0 = time.time()
    monotone = True
    acct = PrivacyAccountant(1e9, 1.0)
    last = (0.0, 0.0)
    for _ in range(1000):
        acct.spend(0.01, 1e-9, q=0.1)
        now = acct.spent()
        monotone &= now[0] >= last[0] and now[1] >= last[1]
        last = now
    scaled = PrivacyAccountant(1e9, 1.0)
    for _ in range(200):
        scaled.spend(0.5, 1e-8, q=0.1)
    total_eps, total_delta = scaled.spent()
    total_ok = math.isclose(total_eps, 10.0) and math.isclose(total_delta, 2e-7)
    e1, d1 = allocate_budgets("initialisation", "mnist")
    e2, d2 = allocate_budgets("update", "mnist")
    stages_ok = (e1 + e2, d1 + d2) == (6.0, 2e-5)
    report(3, "privacy accounting", monotone and total_ok and stages_ok,
           f"({time.time() - t0:.2f}s)")


def test_criterion_04_ledger_integrity(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(np.random.SeedSequence([0, 99]))
    centers = blob_centers(10, 32, rng)
    datasets = [make_blobs(120, 10, 32, rng, spread=0.15, centers=centers) for _ in range(4)]
    test = make_blobs(100, 10, 32, rng, spread=0.15, centers=centers)
    config = ProtocolConfig(**DESK_PROTOCOL)
    parties = build_parties(datasets, [0.1] * 4, config, np.random.SeedSequence([0, 99, 7]))
    trace, ledger = run_fdpddl(parties, config, rounds=100, test_data=test)

    chain_ok = verify_chain(ledger.chain) and len(ledger.chain) == 101
    conservation_ok = len({total for _, total in trace.token_totals}) == 1

    dump = tmp_path / "chain.jsonl"
    from faircollab.ledger import dump_chain
    dump_chain(ledger.chain, dump)
    blob = bytearray(dump.read_bytes())
    detected = attempted = 0
    stride = max(1, len(blob) // 120)
    for pos in range(0, len(blob), stride):
        original = blob[pos]
        mutated = original ^ 0x01
        if original == 0x0A or mutated == 0x0A:
            continue  # newline flips change record framing, not content
        attempted += 1
        blob[pos] = mutated
        dump.write_bytes(bytes(blob))
        try:
            caught = not verify_chain(load_chain(dump))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError):
            caught = True  # corruption that breaks parsing is detected too
        detected += caught
        blob[pos] = original
    mutation_ok = attempted > 80 and detected == attempted
    report(4, "ledger integrity", chain_ok and conservation_ok and mutation_ok,
           f"{detected}/{attempted} mutations detected ({time.time() - t0:.1f}s)")


def test_criterion_05_fairness_directionality():
    t0 = time.time()
    cfg = desk_config(settings=[3], frameworks=["fdpddl", "distributed_dssgd"])
    wins = 0
    rows = []
    for seed in range(5):
        r_f = run_cell(cfg, "fdpddl", 3, seed)["fairness"]["r_xy"]
        r_d = run_cell(cfg, "distributed_dssgd", 3, seed)["fairness"]["r_xy"]
        win = r_f is not None and r_f >= 0.5 and (r_d is None or r_f > r_d)
        wins += win
        rows.append(f"seed{seed}: fdpddl={r_f and round(r_f, 3)} dssgd={r_d and round(r_d, 3)}")
    report(5, "fairness directionality", wins >= 4,
           f"wins {wins}/5 [{'; '.join(rows)}] ({time.time() - t0:.1f}s)")


def test_criterion_06_collaboration_gain():
    t0 = time.time()
    cfg = desk_config()
    finals, saccs = [], []
    for seed in range(5):
        result = run_cell(cfg, "fdpddl", 1, seed)
        ids = result["party_ids"]
        finals.append([result["final_accuracies"][p] for p in ids])
        saccs.append([result["standalone_accuracies"][p] for p in ids])
    med_final = np.median(np.array(finals), axis=0)
    med_sacc = np.median(np.array(saccs), axis=0)
    ok = bool(np.all(med_final >= med_sacc))
    report(6, "collaboration gain", ok,
           f"median gains {np.round(med_final - med_sacc, 3).tolist()} "
           f"({time.time() - t0:.1f}s)")


def test_criterion_07_free_rider_robustness():
    t0 = time.time()
    # A generous sharing level sharpens both stages at desk scale: more
    # benchmarking samples at initialisation and larger traded updates,
    # so the leave-one-out signal and the token drain both bite.
    cfg = desk_config(
        dataset={"kind": "blobs", "num_classes": 10, "dim": 32, "spread": 0.15,
                 "per_party": 300, "test_size": 200, "name": "blobs"},
        seeds=list(range(50)), rounds=12,
        lambda_low=0.3, lambda_high=0.3,
        adversaries=[{"kind": "free_rider_random_label", "party": 3}])
    init_hits = caught = 0
    for seed in range(50):
        result = run_cell(cfg, "fdpddl", 1, seed)
        [rec] = [r for r in result["detection"] if r["party"] == "p03"]
        init_hits += rec["detected"] and rec["stage"] == "init"
        caught += rec["detected"]
    report(7, "free-rider robustness", init_hits >= 45 and caught == 50,
           f"init {init_hits}/50, caught-overall {caught}/50 ({time.time() - t0:.1f}s)")


def test_criterion_08_gan_attacker_proxy():
    t0 = time.time()
    base = dict(
        dataset={"kind": "blobs", "num_classes": 10, "dim": 32, "spread": 0.15,
                 "per_party": 300, "test_size": 200, "name": "blobs"},
        rounds=6, seeds=list(range(50)))
    split_cfg = desk_config(adversaries=[{"kind": "gan_attacker", "party": 3,
                                          "victim_classes": list(range(5)),
                                          "adversary_classes": list(range(5, 10))}],
                            **base)
    control_cfg = desk_config(adversaries=[{"kind": "gan_attacker", "party": 3,
                                            "iid_control": True}],
                              **base)
    split_hits = control_hits = 0
    for seed in range(50):
        [rec] = [r for r in run_cell(split_cfg, "fdpddl", 1, seed)["detection"]
                 if r["party"] == "p03"]
        split_hits += rec["detected"] and rec["stage"] == "init"
        [rec] = [r for r in run_cell(control_cfg, "fdpddl", 1, seed)["detection"]
                 if r["party"] == "p03"]
        control_hits += rec["detected"]
    report(8, "inference-attacker proxy", split_hits >= 45 and control_hits <= 5,
           f"split init {split_hits}/50, control {control_hits}/50 ({time.time() - t0:.1f}s)")


def test_criterion_09_determinism(tmp_path):
    t0 = time.time()
    import dataclasses
    cfg = desk_config(settings=[1, 3], seeds=[0, 1], rounds=3,
                      frameworks=["fdpddl", "distributed_dssgd"],
                      protocol={"augment_replication": 30, "dp_steps_per_round": 3,
                                "download_fraction": 0.85})

    def run_into(directory, config):
        os.makedirs(directory, exist_ok=True)
        run_experiment(config, directory)
        out = {}
        for root, _dirs, files in sorted(os.walk(directory)):
            for f in sorted(files):
                path = os.path.join(root, f)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, directory)] = fh.read()
        return out

    a = run_into(tmp_path / "a", cfg)
    b = run_into(tmp_path / "b", cfg)
    c = run_into(tmp_path / "c", dataclasses.replace(cfg, parallel_workers=4))
    ok = a == b == c and len(a) > 5
    report(9, "determinism incl. parallel cells", ok,
           f"{len(a)} files byte-compared ({time.time() - t0:.1f}s)")


# Brute-force oracles for criterion 10, independent of the library code.

def _majority_oracle(rows):
    out = []
    for row in rows:
        counts = Counter(row)
        best = max(counts.values())
        out.append(min(lbl for lbl, c in counts.items() if c == best))
    return out


def _allocation_oracle(c, d, lam, glen):
    return math.floor(min(c * d, lam * glen))


def _supplement_oracle(budget, received, capacities, credibilities):
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


def _pearson_oracle(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = math.sqrt(sum((a - mx) ** 2 for a in x) / (n - 1))
    sy = math.sqrt(sum((b - my) ** 2 for b in y) / (n - 1))
    return cov / ((n - 1) * sx * sy)


def test_criterion_10_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(10)
    mismatches = []

    for _ in range(200):
        rows = rng.integers(0, 5, size=(int(rng.integers(1, 21)), int(rng.integers(2, 6))))
        ids = tuple(f"p{i}" for i in range(rows.shape[1]))
        matrix = LabelMatrix(rows, ids)
        if list(majority_vote(matrix)) != _majority_oracle(rows.tolist()):
            mismatches.append("majority_vote")
        majority = _majority_oracle(rows.tolist())
        raw = init_credibility(matrix)
        for col, pid in enumerate(ids):
            expected = sum(1 for r in range(rows.shape[0])
                           if rows[r, col] == majority[r]) / rows.shape[0]
            if abs(raw[pid] - expected) > 1e-12:
                mismatches.append("init_credibility")

    for _ in range(200):
        c = float(rng.uniform(0, 1))
        d = int(rng.integers(0, 400))
        lam = float(rng.uniform(0.05, 0.5))
        glen = int(rng.integers(10, 1500))
        if download_allocation(c, d, lam, glen) != _allocation_oracle(c, d, lam, glen):
            mismatches.append("download_allocation")

    for _ in range(200):
        peers = [f"p{i}" for i in range(int(rng.integers(1, 6)))]
        caps = {p: int(rng.integers(0, 40)) for p in peers}
        rec = {p: int(rng.integers(0, caps[p] + 1)) for p in peers}
        cred = {p: float(rng.choice([0.0, 0.2, 0.5, 1.0, 2.0])) for p in peers}
        budget = int(rng.integers(0, 100))
        if supplement(budget, rec, caps, cred) != _supplement_oracle(budget, rec, caps, cred):
            mismatches.append("supplement")

    for _ in range(200):
        n = int(rng.integers(2, 6))
        x = rng.uniform(0, 1, n)
        y = rng.uniform(0, 1, n)
        if np.std(x) == 0 or np.std(y) == 0:
            continue
        if abs(fairness(x, y) - _pearson_oracle(list(x), list(y))) > 1e-12:
            mismatches.append("fairness")

    report(10, "oracle equivalence on small instances", not mismatches,
           f"mismatches: {sorted(set(mismatches)) or 'none'} ({time.time() - t0:.1f}s)")
