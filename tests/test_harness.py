import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircollab.adversary import AdversaryKind
from faircollab.harness import (ConfigError, ExperimentConfig, ZeroVarianceError,
                                build_cell_data, build_x_axis, fairness, fairness_report,
                                load_config, main, resolve_setting, run_cell, run_experiment,
                                save_config)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FAST_PROTOCOL = {"augment_replication": 20, "dp_steps_per_round": 2,
                 "download_fraction": 0.85}


def small_config(**overrides):
    base = {
        "name": "unit",
        "dataset": {"kind": "blobs", "num_classes": 10, "dim": 32, "spread": 0.15,
                    "per_party": 120, "test_size": 120, "name": "blobs"},
        "n": 4, "settings": [1], "rounds": 2, "seeds": [0],
        "frameworks": ["fdpddl"],
        "protocol": FAST_PROTOCOL,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = math.sqrt(sum((a - mx) ** 2 for a in x) / (n - 1))
    sy = math.sqrt(sum((b - my) ** 2 for b in y) / (n - 1))
    return cov / ((n - 1) * sx * sy)


class TestFairness:
    def test_perfect_positive_line(self):
        x = np.array([0.1, 0.4, 0.7])
        assert fairness(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative_line(self):
        x = np.array([1.0, 2.0, 5.0])
        assert fairness(x, -x) == pytest.approx(-1.0)

    def test_hand_computed_half(self):
        assert fairness([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_zero_variance_raises(self):
        with pytest.raises(ZeroVarianceError):
            fairness([1.0, 1.0, 1.0], [1, 2, 3])
        with pytest.raises(ZeroVarianceError):
            fairness([1, 2, 3], [0.5, 0.5, 0.5])

    def test_report_sentinel_never_silent_zero(self):
        report = fairness_report(1, [0.1] * 3, [0.5, 0.5, 0.5], [0.1, 0.2, 0.3])
        assert report.degenerate and report.r_xy is None and report.reason

    @given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance(self, a, b):
        x = np.array([0.2, 0.5, 0.9, 0.4])
        y = np.array([0.3, 0.8, 0.6, 0.1])
        r = fairness(x, y)
        assert fairness(a * x + b, y) == pytest.approx(r, abs=1e-9)
        assert fairness(-a * x + b, y) == pytest.approx(-r, abs=1e-9)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            x = rng.uniform(0, 1, n)
            y = rng.uniform(0, 1, n)
            if np.std(x) == 0 or np.std(y) == 0:
                continue
            assert fairness(x, y) == pytest.approx(pearson_oracle(list(x), list(y)),
                                                   abs=1e-12)


class TestXAxis:
    def test_setting_one_is_identity(self):
        assert np.allclose(build_x_axis(1, [0.1, 0.1], [0.8, 0.9]), [0.8, 0.9])

    def test_setting_two_hand_computed(self):
        x = build_x_axis(2, [0.1, 0.3], [0.5, 0.5])
        assert np.allclose(x, [0.75, 1.25])

    def test_setting_three_is_identity(self):
        assert np.allclose(build_x_axis(3, [0.1, 0.2], [0.3, 0.6]), [0.3, 0.6])

    def test_degenerate_setting_two(self):
        x = build_x_axis(2, [0.2, 0.2], [0.5, 0.5])
        assert np.allclose(x, [1.0, 1.0])  # constant; fairness will flag it

    def test_unknown_setting(self):
        with pytest.raises(ValueError):
            build_x_axis(4, [0.1], [0.5])


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = small_config(settings=[1, 2, 3], seeds=[0, 1],
                           adversaries=[{"kind": "free_rider_random_label", "party": 3}])
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_errors_listed_exhaustively(self):
        bad = {
            "name": "bad", "n": 1, "settings": [5], "rounds": -2,
            "seeds": [-1], "frameworks": ["quantum"],
            "lambda_low": 0.9, "lambda_high": 0.2,
        }
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(bad)
        message = str(err.value)
        for fragment in ("n must be", "setting 5", "rounds cannot", "seed -1",
                         "framework 'quantum'", "lambda_low"):
            assert fragment in message

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"name": "x", "does_not_exist": 1})

    def test_adversary_kind_validated(self):
        with pytest.raises(ConfigError, match="quantum_attacker"):
            small_config(adversaries=[{"kind": "quantum_attacker"}])

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_shipped_config_loads(self, name):
        assert isinstance(load_config(CONFIGS / name), ExperimentConfig)


class TestSettings:
    def test_setting_one_equal_everything(self):
        cfg = small_config()
        spec = resolve_setting(cfg, 1, np.random.default_rng(0))
        assert spec.sizes == (120,) * 4
        assert spec.sharing_levels == (0.1,) * 4

    def test_setting_two_lambda_spread(self):
        cfg = small_config()
        spec = resolve_setting(cfg, 2, np.random.default_rng(1))
        assert spec.sizes == (120,) * 4
        assert all(0.1 <= lam <= 0.5 for lam in spec.sharing_levels)
        assert len(set(spec.sharing_levels)) > 1

    def test_setting_three_imbalanced_sizes(self):
        cfg = small_config()
        spec = resolve_setting(cfg, 3, np.random.default_rng(2))
        assert len(set(spec.sizes)) > 1
        assert all(s >= cfg.min_party_size for s in spec.sizes)
        assert spec.sharing_levels == (0.1,) * 4


class TestCellData:
    def test_partition_framework_independent(self):
        cfg = small_config()
        d1, s1, t1, _ = build_cell_data(cfg, 1, 0)
        d2, s2, t2, _ = build_cell_data(cfg, 1, 0)
        assert s1 == s2
        assert np.array_equal(t1.features, t2.features)
        for a, b in zip(d1, d2):
            assert np.array_equal(a.features, b.features)

    def test_free_rider_gets_noise_data(self):
        cfg = small_config(adversaries=[{"kind": "free_rider_random_label", "party": 3}])
        datasets, _, _, advs = build_cell_data(cfg, 1, 0)
        assert 3 in advs
        # Noise features are uniform on [0,1]; blob features cluster, so
        # the noise dataset has a much flatter histogram spread.
        assert datasets[3].features.std() > 0.25

    def test_gan_split_partitions_classes(self):
        cfg = small_config(adversaries=[{"kind": "gan_attacker", "party": 3,
                                         "victim_classes": [0, 1, 2, 3, 4],
                                         "adversary_classes": [5, 6, 7, 8, 9]}])
        datasets, _, _, _ = build_cell_data(cfg, 1, 0)
        for victim in datasets[:3]:
            assert set(np.unique(victim.labels)).issubset(set(range(5)))
        assert set(np.unique(datasets[3].labels)).issubset(set(range(5, 10)))

    def test_iid_control_keeps_full_classes(self):
        cfg = small_config(adversaries=[{"kind": "gan_attacker", "party": 3,
                                         "iid_control": True}])
        datasets, _, _, advs = build_cell_data(cfg, 1, 0)
        assert 3 in advs
        assert len(np.unique(datasets[3].labels)) > 5


class TestRunCell:
    def test_fdpddl_cell_contents(self):
        result = run_cell(small_config(), "fdpddl", 1, 0)
        assert result["chain_valid"] is True
        assert set(result["final_accuracies"]) == {"p00", "p01", "p02", "p03"}
        assert "fairness" in result
        assert result["trace"]["framework"] == "fdpddl"

    def test_standalone_cell_has_no_fairness(self):
        result = run_cell(small_config(frameworks=["standalone"]), "standalone", 1, 0)
        assert "fairness" not in result
        assert result["chain_valid"] is None


class TestExperimentAndCli:
    def test_run_experiment_outputs(self, tmp_path):
        cfg = small_config(seeds=[0, 1], frameworks=["fdpddl", "standalone"])
        summary = run_experiment(cfg, tmp_path)
        for name in ("accuracy.csv", "fairness.csv", "detection.csv", "rounds.csv",
                     "credibility.csv", "summary.json"):
            assert (tmp_path / name).exists()
        assert len(summary["cells"]) == 4
        assert summary["chain_valid"] is True

    def test_report_regeneration_byte_identical(self, tmp_path):
        cfg = small_config()
        run_experiment(cfg, tmp_path / "a")
        rc = main(["report", "--traces", str(tmp_path / "a" / "traces"),
                   "--out", str(tmp_path / "b")])
        assert rc == 0
        for name in ("accuracy.csv", "fairness.csv", "detection.csv", "rounds.csv",
                     "credibility.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_report_without_config_exit_code(self, tmp_path):
        run_experiment(small_config(), tmp_path / "a")
        (tmp_path / "a" / "config.json").unlink()
        assert main(["report", "--traces", str(tmp_path / "a" / "traces"),
                     "--out", str(tmp_path / "b")]) == 2

    def test_cli_run_and_fairness(self, tmp_path, capsys):
        cfg = small_config()
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--seed", "0", "--framework", "fdpddl"])
        assert rc == 0
        trace_path = tmp_path / "out" / "traces" / "fdpddl_s1_seed0.json"
        assert trace_path.exists()
        rc = main(["fairness", "--trace", str(trace_path)])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        report = json.loads(out)
        assert "r_xy" in report

    def test_cli_verify_chain(self, tmp_path, capsys):
        from faircollab.ledger import Ledger, KeyPair, dump_chain
        rng = np.random.default_rng(0)
        keys = {pid: KeyPair.generate(rng) for pid in ("p00", "p01")}
        ledger = Ledger()
        ledger.create_genesis({pid: 10 for pid in keys}, keys)
        dump = tmp_path / "chain.jsonl"
        dump_chain(ledger.chain, dump)
        assert main(["verify-chain", "--dump", str(dump)]) == 0
        # Corrupt one signature hex digit and expect a nonzero exit.
        text = dump.read_text()
        blob = json.loads(text)
        sig = blob["transactions"][0]["signature"]
        blob["transactions"][0]["signature"] = ("0" if sig[0] != "0" else "1") + sig[1:]
        dump.write_text(json.dumps(blob) + "\n")
        assert main(["verify-chain", "--dump", str(dump)]) == 1

    def test_cli_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "n": 0}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("augment_replication", 0), ("dp_steps_per_round", -3), ("download_fraction", 0.0)])
    def test_cli_out_of_range_protocol_exit_code(self, tmp_path, capsys, key, value):
        cfg = small_config().to_dict()
        cfg["protocol"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    # These values are module constants, so a config that sets one exits 2
    # rather than running, or, for dssgd_upload_rate 2.0, crashing in
    # select_largest.
    @pytest.mark.parametrize("section, key, value", [
        ("protocol", "dssgd_upload_rate", 2.0), ("protocol", "pretrain_epochs", 3),
        ("protocol", "baseline_epochs_per_round", 2), ("protocol", "token_reserve", 0),
        ("protocol", "credibility_threshold", 0.1), (None, "dirichlet_alpha", 0.5),
        ("protocol", "epsilon_per_step", 2.0), ("protocol", "lot_size", -1),
        ("protocol", "clip_norm", 0.0), ("protocol", "composition", "advanced"),
        ("protocol", "validation_fraction", 1.0), ("protocol", "batch_size", 0),
        ("protocol", "learning_rate", 0.05), ("protocol", "lr_decay", 0.0),
        ("protocol", "jitter_std", 0.1)])
    def test_cli_removed_key_exit_code(self, tmp_path, capsys, section, key, value):
        cfg = small_config(frameworks=["distributed_dssgd"]).to_dict()
        (cfg[section] if section else cfg)[key] = value
        path = tmp_path / "old.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    # Each of these sizes ended in a ValueError traceback deep in the run.
    @pytest.mark.parametrize("section, key, value", [
        ("dataset", "test_size", 0), ("dataset", "num_classes", 0), ("dataset", "dim", 0),
        ("dataset", "per_party", 0), ("protocol", "hidden_dims", [0])])
    def test_cli_empty_size_exit_code(self, tmp_path, capsys, section, key, value):
        cfg = small_config().to_dict()
        cfg[section][key] = value
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    # build_cell_data keeps one adversary per party, so the second would
    # silently replace the first; -1 is the last party.
    @pytest.mark.parametrize("parties", [[2, -1], [1, 1]])
    def test_cli_repeated_adversary_party_exit_code(self, tmp_path, capsys, parties):
        cfg = small_config(n=3).to_dict()
        cfg["adversaries"] = [{"kind": "free_rider_random_label", "party": i} for i in parties]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "adversaries repeat party" in capsys.readouterr().err

    # Each of these ended in a ValueError traceback from the data split,
    # the noise draw or the lot sampler instead of exit 2.
    @pytest.mark.parametrize("dataset, adversary, fragment", [
        ({"spread": -0.1}, None, "spread"),
        ({}, {"kind": "free_rider_random_grad", "crafted_scale": -1.0}, "crafted_scale"),
        ({"num_classes": 4}, {"kind": "gan_attacker", "victim_classes": [50]}, "victim_classes"),
        ({}, {"kind": "gan_attacker", "adversary_classes": [50]}, "adversary_classes"),
        ({}, {"kind": "gan_attacker", "victim_classes": [0, 1, 2],
              "adversary_classes": [2, 3]}, "overlap")],
        ids=["spread", "crafted_scale", "victim_classes", "adversary_classes", "overlap"])
    def test_cli_bad_adversary_or_dataset_exit_code(self, tmp_path, capsys, dataset, adversary,
                                                    fragment):
        cfg = small_config(n=3).to_dict()
        cfg["dataset"].update(dataset)
        cfg["adversaries"] = [adversary] if adversary else []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert fragment in capsys.readouterr().err

    # Each of these ended in a traceback from validation or mid-run, or (a
    # fractional min_party_size) ran as if valid.
    @pytest.mark.parametrize("top, dataset, fragment", [
        ({"n": "3"}, {}, "n must"), ({"rounds": "2"}, {}, "rounds"),
        ({"lambda_low": "0.1"}, {}, "lambda_low"),
        ({"parallel_workers": "2"}, {}, "parallel_workers"),
        ({}, {"dim": "4"}, "dim"), ({}, {"spread": "x"}, "spread"),
        ({"adversaries": [{"kind": "free_rider_random_label", "party": "1"}]}, {}, "party"),
        ({"adversaries": [{"kind": "free_rider_random_grad", "crafted_scale": "x"}]}, {},
         "crafted_scale"),
        ({"adversaries": [{"kind": "gan_attacker", "victim_classes": ["a"]}]}, {},
         "victim_classes"),
        ({"rounds": 1.5}, {}, "rounds"),
        ({"protocol": {**FAST_PROTOCOL, "dp_steps_per_round": 1.5}}, {}, "dp_steps_per_round"),
        ({"min_party_size": 10.5}, {}, "min_party_size"),
        ({"seeds": 0}, {}, "seeds"),
        ({"adversaries": [{"kind": "gan_attacker"}]}, {"num_classes": 1}, "victim_classes")],
        ids=["n", "rounds", "lambda_low", "parallel_workers", "dim", "spread", "party",
             "crafted_scale", "victim_classes", "fractional_rounds", "fractional_dp_steps",
             "fractional_min_party_size", "seeds", "gan_one_class"])
    def test_cli_wrong_type_exit_code(self, tmp_path, capsys, top, dataset, fragment):
        cfg = small_config(n=3).to_dict()
        cfg.update(top)
        cfg["dataset"].update(dataset)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # A repeated cell would write one trace but be summarised twice, so
    # report could not reproduce run.
    @pytest.mark.parametrize("key, value", [
        ("seeds", [0, 0]), ("settings", [1, 1]), ("frameworks", ["fdpddl", "fdpddl"])])
    def test_cli_repeated_grid_entry_exit_code(self, tmp_path, capsys, key, value):
        cfg = small_config().to_dict()
        cfg[key] = value
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--seed", "3", "--seed", "3"],
                                       ["--framework", "fdpddl", "--framework", "fdpddl"],
                                       ["--seed", "-1"]])
    def test_cli_repeated_override_exit_code(self, tmp_path, capsys, flags):
        path = tmp_path / "cfg.json"
        save_config(small_config(), path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), *flags]) == 2
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def csv_config(tmp_path, rows):
    data = tmp_path / "data.csv"
    data.write_text("f0,f1,label\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
    return small_config(dataset={"kind": "csv", "path": str(data), "num_classes": 2,
                                 "per_party": 20, "test_size": 10, "name": "csv"})


class TestCsvFeatureRange:
    def test_in_range_features_accepted(self, tmp_path):
        rows = [(i / 100, 1 - i / 100, i % 2) for i in range(100)]
        datasets, _spec, test, _adv = build_cell_data(csv_config(tmp_path, rows), 1, 0)
        assert len(datasets) == 4 and len(test) == 10

    def test_out_of_range_feature_exit_code(self, tmp_path):
        rows = [(i / 100, 1 - i / 100, i % 2) for i in range(100)]
        rows[37] = (1.5, 0.5, 1)
        cfg_path = tmp_path / "cfg.json"
        save_config(csv_config(tmp_path, rows), cfg_path)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


class TestAveragingAndDetectionTables:
    def test_summary_mean_is_mean_of_single_seed_cells(self, tmp_path):
        cfg = small_config(seeds=[0, 1, 2, 3, 4])
        summary = run_experiment(cfg, tmp_path)
        per_seed = []
        for seed in range(5):
            with open(tmp_path / "traces" / f"fdpddl_s1_seed{seed}.json") as fh:
                trace = json.load(fh)
            finals = trace["final_accuracies"]
            per_seed.append(sum(finals.values()) / len(finals))
        assert summary["mean_final_accuracy"]["fdpddl/setting1"] == pytest.approx(
            sum(per_seed) / 5, abs=1e-12)

    # No workload runs the random- or crafted-gradient kinds or a GAN
    # attacker, so each kind gets one small end-to-end run here.
    @pytest.mark.parametrize("adversary", [
        *({"kind": kind.value} for kind in AdversaryKind),
        {"kind": "gan_attacker", "iid_control": True}],
        ids=[*(kind.value for kind in AdversaryKind), "gan_attacker_iid_control"])
    def test_each_adversary_kind_runs_and_reports(self, tmp_path, adversary):
        cfg = small_config(n=3, dataset={"kind": "blobs", "num_classes": 4, "dim": 8,
                                         "per_party": 80, "test_size": 40},
                           adversaries=[adversary], min_party_size=20)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        assert main(["report", "--traces", str(tmp_path / "a" / "traces"),
                     "--out", str(tmp_path / "b")]) == 0
        for name in ("accuracy.csv", "fairness.csv", "detection.csv", "rounds.csv",
                     "credibility.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        [row] = csv.DictReader((tmp_path / "a" / "detection.csv").read_text().splitlines())
        assert (row["party"], row["kind"]) == ("p02", adversary["kind"])

    def test_no_adversaries_empty_detection_table(self, tmp_path):
        run_experiment(small_config(), tmp_path)
        lines = (tmp_path / "detection.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only
