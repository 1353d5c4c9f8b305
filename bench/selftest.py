"""Self-test of the benchmark at shrunken sizes (a few seconds).

    python3 bench/selftest.py

Run from the root of a source checkout. Checks that every metric named in
BENCHMARK.json is emitted with its unit, that per-layer self times sum to
no more than the traced wall time, that the package functions are the
originals again after a traced run, that the quality metrics equal what
``faircollab run`` writes, and that a cell with one tampered transaction
or one changed token total is counted as failed.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from checks import check_run  # noqa: E402
from faircollab import harness  # noqa: E402
from tracer import LAYER_CALLS, Tracer, traced  # noqa: E402
from workloads import MARKET, WORKLOADS, workload_config  # noqa: E402

# A market cell shrunk to three parties plus one baseline framework, so
# that every layer, the free-rider and the ledger are exercised.
TINY = copy.deepcopy(MARKET)
TINY.update(name="tiny", n=3, rounds=2, seeds=[0], frameworks=["fdpddl", "standalone"],
            adversaries=[{"kind": "free_rider_random_label", "party": 2}], min_party_size=10)
TINY["dataset"].update(dim=8, per_party=60, test_size=60)
TINY["protocol"].update(hidden_dims=[8], augment_replication=3)


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self.work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = harness.ExperimentConfig.from_dict(TINY)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def run_experiment(self, name):
        out = self.work / name
        harness.run_experiment(self.config, out)
        return out

    def test_every_metric_is_emitted_with_its_unit(self):
        with open(ROOT / "BENCHMARK.json") as fh:
            declared = json.load(fh)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(TINY, 0.0, trace, self.work / key)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 2)
            self.assertEqual({m["name"]: m["unit"] for m in declared[key]},
                             {name: m["unit"] for name, m in result["metrics"].items()})

    def test_self_times_fit_in_wall_and_originals_return(self):
        before = [getattr(owner, attr) for owner, attr, _ in LAYER_CALLS]
        run_cell = harness.run_cell
        tracer = Tracer()
        with traced(tracer):
            self.assertIsNot(harness.run_cell, run_cell)
            start = time.perf_counter()
            harness.run_experiment(self.config, self.work / "traced")
            wall = time.perf_counter() - start
        self.assertLessEqual(tracer.total_self_time(), wall)
        metrics = tracer.layer_metrics()
        self.assertGreater(metrics["privacy.dp_sgd_step.calls"], 0)
        self.assertGreater(metrics["ledger.orders"], 0)
        self.assertGreater(metrics["adversary.calls"], 0)
        cells = {span[2] for span in tracer.spans if span[3] != "harness.run_experiment"}
        self.assertEqual(cells, {"fdpddl_s2_seed0", "standalone_s2_seed0"})
        after = [getattr(owner, attr) for owner, attr, _ in LAYER_CALLS]
        for (owner, attr, _), old, new in zip(LAYER_CALLS, before, after):
            self.assertIs(new, old, f"{owner.__name__}.{attr} was not restored")

    def test_quality_matches_plain_cli_run(self):
        config_path = self.work / "tiny.json"
        config_path.write_text(json.dumps(TINY))
        cli_out = self.work / "cli"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, "-m", "faircollab", "run", "--config", str(config_path),
                        "--out", str(cli_out)], check=True, env=env, capture_output=True,
                       timeout=120)
        ours = check_run(self.run_experiment("bench"), TINY)
        theirs = check_run(cli_out, TINY)
        self.assertEqual(ours.problems, [])
        self.assertEqual(ours.quality, theirs.quality)
        self.assertEqual(ours.digest, theirs.digest)

    def test_tampered_transaction_counts_as_failed(self):
        original = harness.run_fdpddl

        def tampering(*args, **kwargs):
            trace, ledger = original(*args, **kwargs)
            block = ledger.chain[1]
            tx = block.transactions[0]
            forged = dataclasses.replace(tx, payload={**tx.payload, "count": tx.payload["count"] + 1})
            ledger.chain[1] = dataclasses.replace(
                block, transactions=(forged, *block.transactions[1:]))
            return trace, ledger

        harness.run_fdpddl = tampering
        try:
            out = self.run_experiment("tampered")
        finally:
            harness.run_fdpddl = original
        check = check_run(out, TINY)
        self.assertEqual(check.failed, 1)
        self.assertIn("chain_valid", " ".join(check.problems))

    def test_changed_token_total_counts_as_failed(self):
        out = self.run_experiment("tokens")
        self.assertEqual(check_run(out, TINY).failed, 0)
        path = out / "traces" / "fdpddl_s2_seed0.json"
        trace = json.loads(path.read_text())
        trace["trace"]["token_totals"][-1][1] += 1
        path.write_text(json.dumps(trace))
        check = check_run(out, TINY)
        self.assertEqual(check.failed, 1)
        self.assertIn("token totals", " ".join(check.problems))

    def test_workload_seed_shifts_cell_seeds(self):
        for name, (config, _why) in WORKLOADS.items():
            self.assertEqual(workload_config(name, 0), config)
            block = len(config["seeds"])
            self.assertEqual(workload_config(name, 3)["seeds"],
                             [s + 3 * block for s in config["seeds"]])
            self.assertEqual(config["parallel_workers"], 0)


if __name__ == "__main__":
    unittest.main()
