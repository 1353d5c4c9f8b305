import concurrent.futures
import csv
import dataclasses
import gc
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircollab import harness, protocol
from faircollab.adversary import AdversaryConfig, AdversaryKind
from faircollab.harness import (ConfigError, DatasetSpec, ExperimentConfig, ZeroVarianceError,
                                build_cell_data, build_x_axis, cell_fairness, fairness,
                                load_config, main, resolve_setting, run_cell, run_experiment,
                                run_group)
from faircollab.ledger import Block
from faircollab.numerics import SparseUpdate
from faircollab.protocol import ProtocolConfig

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FAST_PROTOCOL = {"augment_replication": 20, "dp_steps_per_round": 2,
                 "download_fraction": 0.85}
ALL_FRAMEWORKS = ["fdpddl", "distributed_dssgd", "standalone", "centralised"]


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


def _subprocess_env() -> dict:
    """The environment for a child interpreter that imports this checkout's src/."""
    src = str(Path(harness.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


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
        ids = ["p00", "p01", "p02"]
        trace = protocol.RunTrace(standalone_accuracies=dict.fromkeys(ids, 0.5),
                                  sharing_levels=dict.fromkeys(ids, 0.1),
                                  final_accuracies=dict(zip(ids, [0.1, 0.2, 0.3])))
        cell = harness.CellTrace("fdpddl", 1, 0, ids, [10] * 3, True, trace)
        r_xy, reason = cell_fairness(cell)
        assert r_xy is None and reason

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
            assert fairness(x, y) == pytest.approx(oracles.pearson(list(x), list(y)),
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
        path.write_text(json.dumps(cfg.to_dict()))
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

    @pytest.mark.parametrize("section, path", [
        ({"protocol": {**FAST_PROTOCOL, "lot_size": 3}}, "protocol.lot_size"),
        ({"dataset": {"dim": 4, "colour": "red"}}, "dataset.colour"),
        ({"adversaries": [{"kind": "gan_attacker", "scale": 1.0}]}, "adversaries[0].scale")])
    def test_unknown_nested_key_named_by_dotted_path(self, section, path):
        with pytest.raises(ConfigError, match=re.escape(f"unknown key '{path}'")):
            small_config(**section)

    # A config built in code is checked as it is built, as one read from JSON is.
    @pytest.mark.parametrize("changes, fragment", [
        ({"parallel_workers": -1}, "parallel_workers cannot be negative"),
        ({"n": 1}, "n must be at least 2"), ({"seeds": ()}, "seeds is empty"),
        ({"adversaries": (AdversaryConfig(AdversaryKind.GAN_ATTACKER, party=4),)},
         "party index 4"),
        ({"protocol": ProtocolConfig(dataset_name="svhn")}, "dataset_name 'svhn'"),
        # int(lambda_low * s) = 0 for s = per_party 120, and for s =
        # min_party_size 40 in setting 3, which floors party sizes there.
        ({"lambda_low": 0.005}, "lambda_low 0.005 releases no sample"),
        ({"settings": (1, 3), "lambda_low": 0.02}, "releases no sample from a party of 40")])
    def test_code_built_config_is_checked(self, changes, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            dataclasses.replace(small_config(), **changes)

    @pytest.mark.parametrize("build, fragment", [
        (lambda: DatasetSpec(spread=-0.5), "spread cannot be negative"),
        (lambda: DatasetSpec(test_size=0), "test_size must be at least 1"),
        (lambda: DatasetSpec(kind="idx"), "idx dataset needs"),
        (lambda: AdversaryConfig(AdversaryKind.FREE_RIDER_RANDOM_GRAD, crafted_scale=-1.0),
         "crafted_scale cannot be negative")])
    def test_each_record_checks_its_own_fields(self, build, fragment):
        with pytest.raises(ValueError, match=fragment):
            build()

    # A party releasing no sample ended the run in a ProtocolError traceback.
    def test_config_releasing_no_sample_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda_low": 0.01, "lambda_high": 0.01,
                                    "dataset": {"per_party": 40}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "lambda_low" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_config_leaving_no_training_record_exit_code(self, tmp_path, capsys):
        # The validation split took the one record, and build_parties ended
        # in a ValueError traceback.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda_low": 1.0, "lambda_high": 1.0,
                                    "dataset": {"per_party": 1}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "per_party" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_protocol_carries_dataset_name(self):
        assert small_config().protocol.dataset_name == "blobs"
        dataset = {**small_config().to_dict()["dataset"], "name": "svhn"}
        assert small_config(dataset=dataset).protocol.dataset_name == "svhn"
        agreeing = small_config(dataset=dataset, protocol={**FAST_PROTOCOL, "dataset_name": "svhn"})
        assert agreeing == small_config(dataset=dataset)

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
        assert result.chain_valid is True
        assert set(result.trace.final_accuracies) == {"p00", "p01", "p02", "p03"}
        r_xy, reason = cell_fairness(result)
        assert (r_xy is None) == bool(reason)
        assert result.framework == "fdpddl"

    def test_standalone_cell_has_no_fairness(self, tmp_path):
        summary = run_experiment(small_config(frameworks=["standalone"]), tmp_path)
        assert (tmp_path / "fairness.csv").read_text().splitlines() == [
            "framework,setting,seed,r_xy,degenerate,reason"]
        assert summary["mean_fairness"] == {} and summary["chain_valid"] is None

    # The one schema, CellTrace, both writes and reads every trace: reading
    # a written trace and writing it again gives the same bytes, with the
    # entry a cell lacks (detection) absent rather than null, no entry of
    # the run trace repeated at the top level, and nothing the report
    # derives (fairness) stored.
    @pytest.mark.parametrize("frameworks, adversaries", [
        (ALL_FRAMEWORKS, []),
        (["fdpddl"], [{"kind": "free_rider_random_label", "party": 3}])],
        ids=["each_framework", "adversary"])
    def test_trace_reads_back_to_the_same_bytes(self, tmp_path, frameworks, adversaries):
        run_experiment(small_config(frameworks=frameworks, adversaries=adversaries), tmp_path)
        cells = harness.cell_traces(tmp_path / "traces")
        assert len(cells) == len(frameworks)
        for key, path in cells:
            cell = harness.read_trace(path, key)
            assert harness.trace_json(cell) == Path(path).read_text()
            written = json.loads(Path(path).read_text())
            assert not written.keys() & written["trace"].keys()
            assert "fairness" not in written
            assert (cell.detection is None) == (not adversaries)


def _listed(key):
    """A trace edit that turns the run trace's per-party map key into the
    list of its values."""
    def edit(trace):
        trace["trace"][key] = list(trace["trace"][key].values())
        return trace
    return edit


def _edited(index, edit):
    """A dump rewrite that applies edit to the parsed JSON of block index."""
    def mutate(lines):
        block = json.loads(lines[index])
        edit(block)
        return lines[:index] + [json.dumps(block)] + lines[index + 1:]
    return mutate


def _resealed_with_index_true(block):
    """Seal a parsed block again under the index JSON true, which equals 1."""
    parsed = Block.from_dict(block)
    block.update(Block.sealed(True, parsed.prev_hash, parsed.transactions,
                              parsed.leader).to_dict())


class TestExperimentAndCli:
    def test_run_experiment_outputs(self, tmp_path):
        cfg = small_config(seeds=[0, 1], frameworks=["fdpddl", "standalone"])
        summary = run_experiment(cfg, tmp_path)
        for name in ("accuracy.csv", "fairness.csv", "detection.csv", "rounds.csv",
                     "credibility.csv", "summary.json"):
            assert (tmp_path / name).exists()
        assert len(summary["cells"]) == 4
        assert summary["chain_valid"] is True

    @pytest.mark.parametrize("workers", [0, 2])
    def test_report_regeneration_byte_identical(self, tmp_path, workers):
        cfg = small_config(settings=[1, 2], seeds=[9, 10], parallel_workers=workers)
        summary = run_experiment(cfg, tmp_path / "a")
        # Seeds in numeric order: in name order seed10 would come first.
        assert summary["cells"] == [["fdpddl", st, sd] for st in (1, 2) for sd in (9, 10)]
        rc = main(["report", "--traces", str(tmp_path / "a" / "traces"),
                   "--out", str(tmp_path / "b")])
        assert rc == 0
        for name in ("accuracy.csv", "fairness.csv", "detection.csv", "rounds.csv",
                     "credibility.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_each_group_is_on_disk_before_the_next_starts(self, tmp_path, monkeypatch):
        on_disk = []
        original = harness.run_group

        def recording(*args):
            # traces/ itself is made once the first group has run.
            traces = tmp_path / "traces"
            on_disk.append(sorted(p.name for p in traces.iterdir()) if traces.exists() else [])
            return original(*args)

        monkeypatch.setattr(harness, "run_group", recording)
        run_experiment(small_config(seeds=[0, 1], frameworks=["standalone"]), tmp_path)
        assert on_disk == [[], ["standalone_s1_seed0.json"]]

    def test_run_into_traces_of_another_grid_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config(frameworks=["standalone"]).to_dict()))
        out = tmp_path / "out"
        run = ["run", "--config", str(path), "--out", str(out)]
        assert main(run) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(run + ["--seed", "1"]) == 2
        assert "standalone_s1_seed0.json" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        # Rerunning the same grid into the same directory is fine.
        assert main(run) == 0

    def test_report_of_a_trace_outside_the_grid_exit_code(self, tmp_path, capsys):
        # A seed 1 trace copied into the traces of a run whose config.json
        # lists seed 0 only: run would refuse that directory, so report does.
        name = "standalone_s1_seed1.json"
        for seed, run in ((0, "a"), (1, "b")):
            run_experiment(small_config(seeds=[seed], frameworks=["standalone"]), tmp_path / run)
        traces = tmp_path / "a" / "traces"
        (traces / name).write_bytes((tmp_path / "b" / "traces" / name).read_bytes())
        out = tmp_path / "c" / "d"
        assert main(["report", "--traces", str(traces), "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_report_without_cell_traces_exit_code(self, tmp_path, capsys):
        (tmp_path / "run" / "traces").mkdir(parents=True)
        (tmp_path / "run" / "config.json").write_text(json.dumps(small_config().to_dict()))
        traces = str(tmp_path / "run" / "traces")
        assert main(["report", "--traces", traces, "--out", str(tmp_path / "b")]) == 2
        assert traces in capsys.readouterr().err

    def test_report_of_run_directory_exit_code(self, tmp_path, capsys):
        # A config.json one level above the run directory must not be
        # read as that directory's config, nor the run's files as traces.
        (tmp_path / "config.json").write_text(json.dumps(small_config().to_dict()))
        run_experiment(small_config(frameworks=["standalone"]), tmp_path / "a")
        rundir = str(tmp_path / "a")
        assert main(["report", "--traces", rundir, "--out", str(tmp_path / "b")]) == 2
        assert rundir in capsys.readouterr().err

    def test_report_without_config_exit_code(self, tmp_path):
        run_experiment(small_config(), tmp_path / "a")
        (tmp_path / "a" / "config.json").unlink()
        assert main(["report", "--traces", str(tmp_path / "a" / "traces"),
                     "--out", str(tmp_path / "b")]) == 2

    def test_cli_run_and_fairness(self, tmp_path):
        cfg = small_config(settings=[1, 2], seeds=[0, 1], frameworks=["fdpddl", "standalone"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--seed", "0", "--framework", "fdpddl"])
        assert rc == 0
        # The echoed config is the grid that ran.
        ran = dataclasses.replace(cfg, seeds=(0,), frameworks=("fdpddl",))
        assert load_config(tmp_path / "out" / "config.json") == ran
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert (summary["config"]["seeds"], summary["config"]["frameworks"]) == ([0], ["fdpddl"])
        # fairness.csv holds, for each trace, the correlation of the contribution
        # axis of its setting with its final accuracies, or why it is undefined.
        expected = io.StringIO()
        rows = csv.writer(expected)
        rows.writerow(["framework", "setting", "seed", "r_xy", "degenerate", "reason"])
        traces = sorted((tmp_path / "out" / "traces").iterdir())
        assert [path.name for path in traces] == ["fdpddl_s1_seed0.json", "fdpddl_s2_seed0.json"]
        for path in traces:
            t = json.loads(path.read_text())
            sharing, standalone, final = (
                [t["trace"][key][pid] for pid in t["party_ids"]]
                for key in ("sharing_levels", "standalone_accuracies", "final_accuracies"))
            try:
                r_xy, reason = fairness(build_x_axis(t["setting"], sharing, standalone), final), ""
            except ZeroVarianceError as exc:
                r_xy, reason = None, str(exc)
            rows.writerow([t["framework"], t["setting"], t["seed"], r_xy, r_xy is None, reason])
        assert (tmp_path / "out" / "fairness.csv").read_bytes() == expected.getvalue().encode()

    # Each ended in a KeyError traceback, and the failed report had by then
    # cut every table in --out short. The ids that begin fairness_ name
    # cases first written for the fairness subcommand, which report's
    # reader of the same trace now covers.
    @pytest.mark.parametrize("content, key", [
        (lambda run: (run / "config.json").read_text(), "framework"),
        (lambda run: '{"x": 1}', "party_ids")],
        ids=["fairness_of_config", "report_over_non_trace"])
    def test_cli_not_a_cell_trace_exit_code(self, tmp_path, capsys, content, key):
        run_experiment(small_config(frameworks=["fdpddl", "standalone"]), tmp_path)
        path = tmp_path / "traces" / "standalone_s1_seed0.json"
        path.write_text(content(tmp_path))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert main(["report", "--traces", str(tmp_path / "traces"), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a cell trace: ")
        assert f"{key} is required" in err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_report_exit_2_removes_only_the_out_it_made(self, tmp_path, capsys):
        # It used to leave the --out it had made before reading a trace.
        (tmp_path / "run" / "traces").mkdir(parents=True)
        (tmp_path / "run" / "config.json").write_text(json.dumps(small_config().to_dict()))
        (tmp_path / "run" / "traces" / "fdpddl_s1_seed0.json").write_text('{"framework": 1}')
        report = ["report", "--traces", str(tmp_path / "run" / "traces"), "--out"]
        assert main(report + [str(tmp_path / "new" / "out")]) == 2
        assert not (tmp_path / "new").exists()
        # A ".." in --out makes no directory on the way.
        assert main(report + [str(tmp_path / "missing" / ".." / "out2")]) == 2
        assert not (tmp_path / "missing").exists() and not (tmp_path / "out2").exists()
        # An --out that was there already stays as it was.
        (tmp_path / "kept").mkdir()
        (tmp_path / "kept" / "accuracy.csv").write_text("earlier")
        assert main(report + [str(tmp_path / "kept")]) == 2
        assert [(p.name, p.read_text()) for p in (tmp_path / "kept").iterdir()] == [
            ("accuracy.csv", "earlier")]
        assert "party_ids is required" in capsys.readouterr().err

    # Each ended in a TypeError traceback.
    @pytest.mark.parametrize("edit, fault", [
        (lambda t: [1], "the top level must be a JSON object, not list"),
        (_listed("final_accuracies"), "trace.final_accuracies must be a JSON object, not list"),
        (_listed("standalone_accuracies"),
         "trace.standalone_accuracies must be a JSON object, not list")],
        ids=["fairness_of_list", "report_of_list_accuracies", "fairness_of_list_accuracies"])
    def test_cli_trace_of_wrong_shape_exit_code(self, tmp_path, capsys, edit, fault):
        run_experiment(small_config(), tmp_path)
        trace_path = tmp_path / "traces" / "fdpddl_s1_seed0.json"
        trace_path.write_text(json.dumps(edit(json.loads(trace_path.read_text()))))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert main(["report", "--traces", str(tmp_path / "traces"), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {trace_path}: not a cell trace: {fault}\n"
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    # Each ended in a ValueError, TypeError or KeyError traceback, report's
    # leaving its --out behind, or ran on: fairness printed "r_xy": NaN for
    # a null accuracy, and report counted a chain_valid of "yes" as valid.
    @pytest.mark.parametrize("edit, fragment", [
        (lambda t: t.update(setting=5), "setting 5 not in {1, 2, 3}"),
        (lambda t: t.update(setting="1"), "setting must be int, not '1'"),
        (lambda t: t["trace"]["sharing_levels"].update(p00="high"),
         "trace.sharing_levels['p00'] must be float, not 'high'"),
        (lambda t: t.update(party_ids=["p00"]), "a cell needs at least two parties"),
        (lambda t: t["trace"]["final_accuracies"].update(p00=None),
         "trace.final_accuracies['p00'] must be float, not None"),
        (lambda t: t["trace"]["final_accuracies"].update(p00="0.9"),
         "trace.final_accuracies['p00'] must be float, not '0.9'"),
        (lambda t: t.update(fairness=[1]), "unknown key 'fairness'"),
        (lambda t: t["trace"].update(accuracy_rows=[5]),
         "trace.accuracy_rows[0] must be a JSON object, not int"),
        (lambda t: t.update(chain_valid="yes"), "chain_valid must be bool, not 'yes'"),
        (lambda t: t["trace"]["final_accuracies"].pop("p00"),
         "trace.final_accuracies is keyed by ['p01', 'p02', 'p03'], not by party_ids"),
        # These exited 0: a JSON true read as 1, a string passed through to
        # the output, a float setting matched setting 1 and a NaN accuracy
        # was averaged into the summary.
        (lambda t: t.update(setting=True), "setting must be int, not True"),
        (lambda t: t.update(setting=1.0), "setting must be int, not 1.0"),
        (lambda t: t["trace"]["sharing_levels"].update(p00=True),
         "trace.sharing_levels['p00'] must be float, not True"),
        (lambda t: t["trace"]["standalone_accuracies"].update(p00=False),
         "trace.standalone_accuracies['p00'] must be float, not False"),
        (lambda t: t["trace"]["final_accuracies"].update(p00=True),
         "trace.final_accuracies['p00'] must be float, not True"),
        (lambda t: t["trace"]["final_accuracies"].update(p00=math.nan),
         "trace.final_accuracies['p00'] must be a finite number, not nan"),
        (lambda t: t["trace"]["standalone_accuracies"].update(p00="0.5"),
         "trace.standalone_accuracies['p00'] must be float, not '0.5'"),
        # These exited 0: a token total with no round, and a trace that also
        # stores the final accuracies at its top level, where report read them.
        (lambda t: t["trace"].update(token_totals=[[1]]),
         "trace.token_totals[0] is [1], not a [round, total] pair"),
        (lambda t: t.update(final_accuracies=t["trace"]["final_accuracies"]),
         "unknown key 'final_accuracies'"),
        # These ended in a KeyError traceback once the report derived a
        # credibility row's balance and a cell's fairness from the trace.
        (lambda t: t["trace"]["credibility_rows"][0].update(round=99),
         "trace.credibility_rows of (round, owner) [(99, 'p00')] have no accuracy row"),
        (lambda t: t["trace"]["standalone_accuracies"].clear(),
         "trace.standalone_accuracies is keyed by [], not by party_ids"),
        # This exited 0, and the credibility rows took the second row's tokens.
        (lambda t: t["trace"]["accuracy_rows"].append({**t["trace"]["accuracy_rows"][0],
                                                       "tokens": 1}),
         "trace.accuracy_rows repeat (round, party) [(1, 'p00')]"),
        # A trace written before the report derived fairness, detection and
        # event stages and credibility balances stores them, and an unused
        # event info; report names the first such key rather than read it.
        (lambda t: t["trace"].update(events=[{"kind": "excluded", "party": "p03", "round": 0,
                                              "stage": "init", "info": ""}]),
         "unknown key 'trace.events[0].stage'; unknown key 'trace.events[0].info'"),
        (lambda t: t["trace"]["credibility_rows"][0].update(balance=300),
         "unknown key 'trace.credibility_rows[0].balance'"),
        (lambda t: t.update(fairness={"x": [0.5] * 4, "r_xy": None, "reason": "zero variance"}),
         "unknown key 'fairness'"),
        (lambda t: t.update(detection=[{"party": "p03", "kind": "free_rider_random_label",
                                        "detected": True, "stage": "init", "round": 0}]),
         "unknown key 'detection[0].detected'; unknown key 'detection[0].stage'"),
        # These exited 0, and rows of p99 landed in rounds.csv, credibility.csv
        # and detection.csv.
        (lambda t: t["trace"]["accuracy_rows"][0].update(party="p99"),
         "trace.accuracy_rows name ['p99'], not in party_ids"),
        (lambda t: t["trace"]["credibility_rows"][0].update(owner="p99"),
         "trace.credibility_rows name ['p99'], not in party_ids"),
        (lambda t: t["trace"]["credibility_rows"][0].update(peer="p99"),
         "trace.credibility_rows name ['p99'], not in party_ids"),
        (lambda t: t["trace"].update(events=[{"kind": "excluded", "party": "p99", "round": 0}]),
         "trace.events name ['p99'], not in party_ids"),
        (lambda t: t.update(detection=[{"party": "p99", "kind": "free_rider_random_label",
                                        "round": 0}]),
         "detection name ['p99'], not in party_ids")],
        ids=["fairness_setting_int", "fairness_setting_str", "fairness_str_sharing_level",
             "fairness_one_party", "report_null_accuracy", "report_str_accuracy",
             "report_list_fairness", "report_int_accuracy_row", "report_str_chain_valid",
             "report_missing_party", "fairness_bool_setting", "fairness_float_setting",
             "fairness_bool_sharing_level", "fairness_bool_standalone_accuracy",
             "report_bool_accuracy", "report_nan_accuracy", "report_str_standalone_accuracy",
             "report_unpaired_token_total",
             "report_duplicated_final_accuracies", "report_credibility_row_without_accuracy_row",
             "report_empty_standalone_accuracies", "report_repeated_accuracy_row",
             "parent_event_stage_and_info", "parent_credibility_balance", "parent_fairness",
             "parent_detection_stage", "report_outside_party_accuracy_row",
             "report_outside_party_credibility_owner", "report_outside_party_credibility_peer",
             "report_outside_party_event", "report_outside_party_detection"])
    def test_cli_trace_of_wrong_value_exit_code(self, tmp_path, capsys, edit, fragment):
        run_experiment(small_config(), tmp_path)
        trace_path = tmp_path / "traces" / "fdpddl_s1_seed0.json"
        trace = json.loads(trace_path.read_text())
        edit(trace)
        trace_path.write_text(json.dumps(trace))
        assert main(["report", "--traces", str(tmp_path / "traces"),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace_path}: not a cell trace: ") and fragment in err
        assert not (tmp_path / "o").exists()

    # report tabulated a trace under its file's cell, whichever cell it was
    # the trace of: a copy of seed 0's trace over seed 1's wrote seed 0's
    # r_xy as seed 1's and exited 0.
    @pytest.mark.parametrize("source, target", [
        ("fdpddl_s1_seed0", "fdpddl_s1_seed1"), ("fdpddl_s1_seed0", "fdpddl_s2_seed0"),
        ("standalone_s1_seed0", "fdpddl_s1_seed0")])
    def test_report_of_trace_filed_under_another_cell_exit_code(self, tmp_path, capsys, source,
                                                                 target):
        cfg = small_config(settings=[1, 2], seeds=[0, 1], frameworks=["fdpddl", "standalone"])
        run_experiment(cfg, tmp_path)
        path = tmp_path / "traces" / f"{target}.json"
        path.write_bytes((tmp_path / "traces" / f"{source}.json").read_bytes())
        assert main(["report", "--traces", str(tmp_path / "traces"),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: the trace of cell {source}, not of {target}\n")
        assert not (tmp_path / "o").exists()

    # Each ended in a RecursionError traceback: the nesting is deeper than
    # the JSON parser's recursion limit.
    @pytest.mark.parametrize("argv", [
        ["run", "--config", "{nested}", "--out", "{out}"],
        ["report", "--traces", "{traces}", "--out", "{out}"],
    ], ids=["run_config", "report_cell_trace"])
    def test_cli_nested_json_exit_code(self, tmp_path, capsys, argv):
        (tmp_path / "traces").mkdir()
        (tmp_path / "config.json").write_text(json.dumps(small_config().to_dict()))
        nested = tmp_path / "traces" / "fdpddl_s1_seed0.json"
        nested.write_text("[" * 200_000 + "]" * 200_000)
        paths = {"nested": nested, "traces": tmp_path / "traces", "out": tmp_path / "o"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {nested}: ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers, seeds, made", [
        (64, [0, 1], [2]), (64, [0], []), (2, [0, 1, 2], [2])],
        ids=["capped_at_groups", "one_group_no_pool", "fewer_workers_than_groups"])
    def test_no_more_workers_than_groups(self, tmp_path, monkeypatch, workers, seeds, made):
        # A process pool forks all of its workers at the first submit.
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = small_config(seeds=seeds, frameworks=["standalone"], parallel_workers=workers)
        run_experiment(cfg, tmp_path)
        assert pools == made
        assert len(list((tmp_path / "traces").iterdir())) == len(seeds)

    def test_serial_run_loads_no_multiprocessing(self, tmp_path):
        # The process pool is imported only when a run asks for workers.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(rounds=1).to_dict()))
        script = ("import sys\n"
                  "from faircollab import harness\n"
                  "harness.run_experiment(harness.load_config(sys.argv[1]), sys.argv[2])\n"
                  "sys.exit('multiprocessing' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script, str(cfg_path), str(tmp_path / "o")],
                              env=_subprocess_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "summary.json").is_file()

    # In-process main() tests cannot see python -m faircollab's own exit
    # path: the code that reaches the shell, and stderr without a traceback.
    # fairness, which recomputed the fairness entry that run stores and
    # report writes to fairness.csv, is no command.
    @pytest.mark.parametrize("argv, code, stdout", [
        (["run", "--config", "{bad}", "--out", "{out}"], 2, ""),
        (["report", "--traces", "{traces}", "--out", "{out}"], 2, ""),
        (["verify-chain", "--dump", "{cut}"], 1, '"valid": false'),
        (["fairness", "--trace", "{traces}/fdpddl_s1_seed0.json"], 2, "")],
        ids=["run_config_not_json", "report_of_non_trace", "verify_chain_cut_dump",
             "fairness_is_no_command"])
    def test_module_entry_point_exit_code(self, tmp_path, argv, code, stdout):
        from faircollab.ledger import KeyPair, Ledger, dump_chain
        (tmp_path / "bad.json").write_text('{"name": ')
        (tmp_path / "traces").mkdir()
        (tmp_path / "config.json").write_text(json.dumps(small_config().to_dict()))
        (tmp_path / "traces" / "fdpddl_s1_seed0.json").write_text('{"framework": 1}')
        rng = np.random.default_rng(0)
        keys = {pid: KeyPair.generate(rng) for pid in ("p00", "p01")}
        ledger = Ledger()
        ledger.create_genesis({pid: 10 for pid in keys}, keys)
        dump_chain(ledger.chain, tmp_path / "chain.jsonl")
        (tmp_path / "cut.jsonl").write_text((tmp_path / "chain.jsonl").read_text()[:300])
        paths = {"bad": tmp_path / "bad.json", "traces": tmp_path / "traces",
                 "out": tmp_path / "o", "cut": tmp_path / "cut.jsonl"}
        proc = subprocess.run([sys.executable, "-m", "faircollab",
                               *(arg.format(**paths) for arg in argv)],
                              env=_subprocess_env(), capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        assert stdout in proc.stdout
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

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

    # Each rewrites the lines of a dumped 2-block chain (genesis, then one
    # traded round); the first six leave a line that does not parse as a block.
    @pytest.mark.parametrize("mutate, parsed", [
        (lambda lines: [lines[0], lines[1][:40]], 1),
        (_edited(1, lambda block: block["transactions"][0].update(kind="mint")), 1),
        (_edited(1, lambda block: block.pop("leader")), 1),
        (lambda lines: [lines[0], "[1, 2]"], 1),
        (_edited(1, lambda block: block.update(transactions=7)), 1),
        (lambda lines: [lines[0], "[" * 200_000 + "]" * 200_000], 1),
        (_edited(0, lambda block: block["transactions"][0].update(payload=["p00"])), None),
        (_edited(1, lambda block: block["transactions"][0].update(signature=7)), None),
        (_edited(1, _resealed_with_index_true), None),
    ], ids=["truncated_line", "unknown_kind", "no_leader", "json_list", "transactions_int",
            "nested_too_deep", "register_payload_list", "int_signature", "index_true_resealed"])
    def test_cli_verify_chain_malformed_dump(self, tmp_path, capsys, mutate, parsed):
        from faircollab.ledger import KeyPair, Ledger, dump_chain
        rng = np.random.default_rng(0)
        keys = {pid: KeyPair.generate(rng) for pid in ("p00", "p01")}
        ledger = Ledger()
        ledger.create_genesis({pid: 10 for pid in keys}, keys)
        order = ledger.submit_purchase_order(keys["p00"], "p00", {"p01": 2})["p01"]
        ledger.fulfill_order(keys["p01"], "p01", order.order_id,
                             SparseUpdate(np.arange(2), np.ones(2), 10), rng)
        ledger.sign_fulfillment(keys["p01"], "p01")
        ledger.seal_block()
        dump = tmp_path / "chain.jsonl"
        dump_chain(ledger.chain, dump)
        dump.write_text("\n".join(mutate(dump.read_text().splitlines())) + "\n")
        assert main(["verify-chain", "--dump", str(dump)]) == 1
        result = json.loads(capsys.readouterr().out)
        if parsed is None:
            assert result == {"blocks": 2, "valid": False}
        else:
            assert result["valid"] is False and result["blocks"] == parsed
            assert result["error"].startswith("line 2: ")

    def test_report_reads_back_config_of_named_dataset(self, tmp_path):
        dataset = {**small_config().to_dict()["dataset"], "name": "svhn"}
        run_experiment(small_config(dataset=dataset, frameworks=["standalone"]), tmp_path / "a")
        assert load_config(tmp_path / "a" / "config.json").protocol.dataset_name == "svhn"
        assert main(["report", "--traces", str(tmp_path / "a" / "traces"),
                     "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "summary.json").read_bytes()
                == (tmp_path / "b" / "summary.json").read_bytes())

    # Each of these ended in a traceback (a JSON file cut short) or ran as
    # if valid while config.json echoed a dataset_name the run did not use.
    @pytest.mark.parametrize("argv, cut, fragment", [
        (["run", "--config", "{cfg}", "--out", "{out}"], "cfg.json", "{cfg}: "),
        (["report", "--traces", "{traces}", "--out", "{out}"],
         "run/traces/centralised_s1_seed0.json", "{traces}/centralised_s1_seed0.json: "),
        (["run", "--config", "{svhn}", "--out", "{out}"], None,
         "protocol.dataset_name 'svhn' is not dataset.name 'blobs'")],
        ids=["run_config_not_json", "report_cell_trace_not_json", "dataset_name_disagrees"])
    def test_cli_unusable_input_exit_code(self, tmp_path, capsys, argv, cut, fragment):
        cfg = small_config(frameworks=["fdpddl", "centralised"])
        run_experiment(cfg, tmp_path / "run")
        (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_dict()))
        svhn = cfg.to_dict()
        svhn["protocol"]["dataset_name"] = "svhn"
        (tmp_path / "svhn.json").write_text(json.dumps(svhn))
        if cut:
            (tmp_path / cut).write_text((tmp_path / cut).read_text()[:40])
        paths = {"cfg": tmp_path / "cfg.json", "svhn": tmp_path / "svhn.json",
                 "traces": tmp_path / "run" / "traces", "out": tmp_path / "o"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert fragment.format(**paths) in err

    def test_cli_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "n": 0}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    # A directory where a file belongs, or a file where a directory belongs.
    @pytest.mark.parametrize("argv", [
        ["verify-chain", "--dump", "{dir}"],
        ["run", "--config", "{dir}", "--out", "{out}"],
        ["report", "--traces", "{file}", "--out", "{out}"],
    ], ids=["verify_chain_dump_is_dir", "run_config_is_dir", "report_traces_is_file"])
    def test_cli_path_of_wrong_kind_exit_code(self, tmp_path, capsys, argv):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file.txt").write_text("not a directory\n")
        paths = {"dir": str(tmp_path / "dir"), "file": str(tmp_path / "file.txt"),
                 "out": str(tmp_path / "o")}
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
    # magnitude_order.
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

    # Each of these sizes ended in a ValueError traceback deep in the run;
    # an empty grid list ran no cell and exited 0.
    @pytest.mark.parametrize("section, key, value", [
        ("dataset", "test_size", 0), ("dataset", "num_classes", 0), ("dataset", "dim", 0),
        ("dataset", "per_party", 0), ("protocol", "hidden_dims", [0]),
        (None, "settings", []), (None, "seeds", []), (None, "frameworks", [])])
    def test_cli_empty_size_exit_code(self, tmp_path, capsys, section, key, value):
        cfg = small_config().to_dict()
        (cfg[section] if section else cfg)[key] = value
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

    # The first five ended in a ValueError traceback from the data split,
    # the noise draw or the lot sampler instead of exit 2. Of the NaN and
    # Infinity that json reads, an infinite spread ran on data clipped to
    # 0 and 1, a NaN or infinite crafted_scale ran selling NaN gradients,
    # and a NaN spread was refused as negative.
    @pytest.mark.parametrize("dataset, adversary, fragment", [
        ({"spread": -0.1}, None, "spread"),
        ({}, {"kind": "free_rider_random_grad", "crafted_scale": -1.0}, "crafted_scale"),
        ({"num_classes": 4}, {"kind": "gan_attacker", "victim_classes": [50]}, "victim_classes"),
        ({}, {"kind": "gan_attacker", "adversary_classes": [50]}, "adversary_classes"),
        ({}, {"kind": "gan_attacker", "victim_classes": [0, 1, 2],
              "adversary_classes": [2, 3]}, "overlap"),
        ({"spread": math.inf}, None, "dataset.spread must be a finite number"),
        ({"spread": math.nan}, None, "dataset.spread must be a finite number"),
        ({}, {"kind": "free_rider_random_grad", "crafted_scale": math.nan},
         "adversaries[0].crafted_scale must be a finite number"),
        ({}, {"kind": "free_rider_random_grad", "crafted_scale": math.inf},
         "adversaries[0].crafted_scale must be a finite number")],
        ids=["spread", "crafted_scale", "victim_classes", "adversary_classes", "overlap",
             "infinite_spread", "nan_spread", "nan_crafted_scale", "infinite_crafted_scale"])
    def test_cli_bad_adversary_or_dataset_exit_code(self, tmp_path, capsys, dataset, adversary,
                                                    fragment):
        cfg = small_config(n=3).to_dict()
        cfg["dataset"].update(dataset)
        cfg["adversaries"] = [adversary] if adversary else []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert fragment in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    # Each of these ended in a traceback from validation or mid-run, or (a
    # fractional min_party_size, a negative parallel_workers, a second
    # gan_attacker, whose victim classes went unsplit) ran as if valid.
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
        ({"adversaries": [{"kind": "gan_attacker"}]}, {"num_classes": 1}, "victim_classes"),
        ({"parallel_workers": -1}, {}, "parallel_workers"),
        ({"adversaries": [{"kind": "gan_attacker", "party": 1},
                          {"kind": "gan_attacker", "party": 2, "iid_control": True}]},
         {"num_classes": 4}, "gan_attacker on parties [1, 2]")],
        ids=["n", "rounds", "lambda_low", "parallel_workers", "dim", "spread", "party",
             "crafted_scale", "victim_classes", "fractional_rounds", "fractional_dp_steps",
             "fractional_min_party_size", "seeds", "gan_one_class", "negative_parallel_workers",
             "two_gan_attackers"])
    def test_cli_wrong_type_exit_code(self, tmp_path, capsys, top, dataset, fragment):
        cfg = small_config(n=3).to_dict()
        cfg.update(top)
        cfg["dataset"].update(dataset)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # Each of these ended in a TypeError or AttributeError traceback.
    @pytest.mark.parametrize("config, fragment", [
        ({"adversaries": 5}, "adversaries must be a list"),
        ([{"name": "x"}], "top level must be a JSON object"),
        ({"adversaries": [{"party": 1}]}, "adversaries[0].kind is required")],
        ids=["adversaries_int", "top_level_list", "adversary_without_kind"])
    def test_cli_malformed_shape_exit_code(self, tmp_path, capsys, config, fragment):
        if isinstance(config, dict):
            config = {**small_config(n=3).to_dict(), **config}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
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
        path.write_text(json.dumps(small_config().to_dict()))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), *flags]) == 2
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestCellGroups:
    """The cells of one (setting, seed) share their partition and one
    pretraining; each trace must not depend on which cells ran with it."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_each_trace_equals_its_single_framework_run(self, tmp_path, workers):
        cfg = small_config(settings=[2, 3], seeds=[0, 1], frameworks=ALL_FRAMEWORKS,
                           parallel_workers=workers)
        run_experiment(cfg, tmp_path / "all")
        names = set()
        for fw in ALL_FRAMEWORKS:
            run_experiment(dataclasses.replace(cfg, frameworks=(fw,)), tmp_path / fw)
            for path in (tmp_path / fw / "traces").iterdir():
                names.add(path.name)
                assert path.read_bytes() == (tmp_path / "all" / "traces" / path.name).read_bytes()
        assert names == {p.name for p in (tmp_path / "all" / "traces").iterdir()}
        assert len(names) == 16

    def test_trace_independent_of_framework_order(self):
        # run_group runs centralised first either way, and returns the
        # cells in the configured order.
        first = run_group(small_config(frameworks=["centralised", "standalone", "fdpddl"]), 2, 1)
        last = run_group(small_config(frameworks=["fdpddl", "standalone", "centralised"]), 2, 1)
        assert [harness.trace_json(c) for c in first] == [harness.trace_json(c) for c in last[::-1]]

    def test_one_build_per_setting_and_seed(self, tmp_path, monkeypatch):
        calls = []
        for name in ("build_cell_data", "build_parties"):
            def counting(*args, _name=name, _original=getattr(harness, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(harness, name, counting)
        cfg = small_config(settings=[1, 2], seeds=[0, 1], frameworks=ALL_FRAMEWORKS)
        run_experiment(cfg, tmp_path)
        assert calls == ["build_cell_data", "build_parties"] * 4

    def test_unsplit_datasets_dropped_once_parties_exist(self, monkeypatch):
        refs = []
        original = harness.build_cell_data

        def recording(*args):
            datasets, *rest = original(*args)
            refs.extend(weakref.ref(d) for d in datasets)
            return (datasets, *rest)

        monkeypatch.setattr(harness, "build_cell_data", recording)
        group = harness.CellGroup(small_config(frameworks=["centralised", "fdpddl"]), 1, 0)
        for fw in ("centralised", "fdpddl"):
            parties = group.parties(fw)
            gc.collect()
            assert len(refs) == 4 and all(ref() is None for ref in refs)
            assert len(parties) == 4

    @pytest.mark.parametrize("frameworks, copies", [(ALL_FRAMEWORKS, 3), (["fdpddl"], 0)],
                             ids=["all_four", "fdpddl_alone"])
    def test_one_copy_per_cell_but_the_last(self, tmp_path, monkeypatch, frameworks, copies):
        calls = []
        original = protocol.copy_parties

        def counting(parties):
            calls.append(len(parties))
            return original(parties)

        monkeypatch.setattr(protocol, "copy_parties", counting)
        run_experiment(small_config(seeds=[0, 1], rounds=1, frameworks=frameworks), tmp_path)
        assert calls == [4] * copies * 2

    def test_built_parties_after_pretraining_refused(self):
        group = harness.CellGroup(small_config(frameworks=["fdpddl", "centralised"]), 1, 0)
        group.parties("fdpddl")
        with pytest.raises(ValueError, match="centralised starts from the parties as built"):
            group.parties("centralised")

    def test_one_pretraining_per_setting_and_seed(self, tmp_path, monkeypatch):
        calls = []
        original = protocol.pretrain

        def counting(parties, *args, **kwargs):
            calls.append(len(parties))
            return original(parties, *args, **kwargs)

        monkeypatch.setattr(protocol, "pretrain", counting)
        cfg = small_config(settings=[1, 2], seeds=[0, 1],
                           frameworks=["fdpddl", "distributed_dssgd", "standalone"])
        run_experiment(cfg, tmp_path)
        assert calls == [4] * 4


def csv_config(tmp_path, rows, **dataset):
    data = tmp_path / "data.csv"
    data.write_text("f0,f1,label\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
    return small_config(dataset={"kind": "csv", "path": str(data), "num_classes": 2, "dim": 2,
                                 "per_party": 20, "test_size": 10, "name": "csv", **dataset})


class TestCsvFeatureRange:
    def test_in_range_features_accepted(self, tmp_path):
        rows = [(i / 100, 1 - i / 100, i % 2) for i in range(100)]
        datasets, _spec, test, _adv = build_cell_data(csv_config(tmp_path, rows), 1, 0)
        assert len(datasets) == 4 and len(test) == 10

    def test_out_of_range_feature_exit_code(self, tmp_path):
        rows = [(i / 100, 1 - i / 100, i % 2) for i in range(100)]
        rows[37] = (1.5, 0.5, 1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(csv_config(tmp_path, rows).to_dict()))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    def test_models_have_the_configured_class_count(self, tmp_path):
        # Two classes in the file, five configured: every model has five outputs.
        rows = [(i / 100, 1 - i / 100, i % 2) for i in range(100)]
        cfg = csv_config(tmp_path, rows, num_classes=5)
        datasets, _spec, test, _adv = build_cell_data(cfg, 1, 0)
        assert {d.num_classes for d in [*datasets, test]} == {5}
        group = harness.CellGroup(cfg, 1, 0)
        assert {p.model.dims for p in group.parties("fdpddl")} == {(2, 32, 5)}

    # Each of these ran a model of the file's shape, or ended in a
    # ValueError traceback, instead of exit 2.
    @pytest.mark.parametrize("edit, dataset, fragment", [
        (None, {"num_classes": 5, "dim": 7}, "2 features, but dataset.dim is 7"),
        ((37, (0.5, 0.5, 2)), {}, "labels out of range"),
        ((37, (0.5, 0.5, 0.5)), {}, "label column must hold integers"),
        ("empty", {}, "no data rows")],
        ids=["dim", "label_outside_num_classes", "non_integer_label", "no_rows"])
    def test_file_other_than_configured_exit_code(self, tmp_path, capsys, edit, dataset,
                                                  fragment):
        rows = [(i / 100, 1 - i / 100, i % 2) for i in range(100)]
        if edit == "empty":
            rows = []
        elif edit:
            rows[edit[0]] = edit[1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(csv_config(tmp_path, rows, **dataset).to_dict()))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert fragment in err and str(tmp_path / "data.csv") in err
        assert "Traceback" not in err

    def test_idx_label_outside_num_classes_exit_code(self, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 60, 2, 1) + bytes(range(120)))
        labels.write_bytes(struct.pack(">II", 0x00000801, 60) + bytes([0, 1, 2] * 20))
        cfg = small_config(dataset={"kind": "idx", "images_path": str(images),
                                    "labels_path": str(labels), "num_classes": 2, "dim": 2,
                                    "per_party": 10, "test_size": 10, "name": "idx"})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "labels out of range" in err and str(images) in err

    # A header cut short ended in a struct.error traceback.
    @pytest.mark.parametrize("cut", ["images", "labels"])
    def test_idx_truncated_header_exit_code(self, tmp_path, capsys, cut):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 60, 2, 1) + bytes(120))
        labels.write_bytes(struct.pack(">II", 0x00000801, 60) + bytes([0, 1] * 30))
        (tmp_path / f"{cut}.idx").write_bytes(b"\x00\x00\x08")
        cfg = small_config(dataset={"kind": "idx", "images_path": str(images),
                                    "labels_path": str(labels), "num_classes": 2, "dim": 2,
                                    "per_party": 10, "test_size": 10, "name": "idx"})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "ends inside its" in err and str(images) in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_bad_data_file_leaves_no_out(self, tmp_path, capsys):
        # config.json and an empty traces/ were left behind.
        rows = [(i / 100, 1 - i / 100, i % 2) for i in range(100)]
        rows[37] = (0.5, 0.5, 0.5)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(csv_config(tmp_path, rows).to_dict()))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_class_split_gan_attacker_needs_blobs(self, tmp_path, capsys):
        # Only the blobs branch splits classes; on a file the attacker
        # would silently hold every class. The IID control arm splits none.
        rows = [(i / 100, 1 - i / 100, i % 4) for i in range(100)]
        cfg = csv_config(tmp_path, rows, num_classes=4).to_dict()
        gan = {"kind": "gan_attacker", "victim_classes": [0, 1], "adversary_classes": [2, 3]}
        ExperimentConfig.from_dict({**cfg, "adversaries": [{**gan, "iid_control": True}]})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, "adversaries": [gan]}))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "gan_attacker splits classes of blobs data only" in capsys.readouterr().err


class TestAveragingAndDetectionTables:
    def test_summary_mean_is_mean_of_single_seed_cells(self, tmp_path):
        cfg = small_config(seeds=[0, 1, 2, 3, 4])
        summary = run_experiment(cfg, tmp_path)
        per_seed = []
        for seed in range(5):
            with open(tmp_path / "traces" / f"fdpddl_s1_seed{seed}.json") as fh:
                trace = json.load(fh)
            finals = trace["trace"]["final_accuracies"]
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
        path.write_text(json.dumps(cfg.to_dict()))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        assert main(["report", "--traces", str(tmp_path / "a" / "traces"),
                     "--out", str(tmp_path / "b")]) == 0
        for name in ("accuracy.csv", "fairness.csv", "detection.csv", "rounds.csv",
                     "credibility.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        [row] = csv.DictReader((tmp_path / "a" / "detection.csv").read_text().splitlines())
        assert (row["party"], row["kind"]) == ("p02", adversary["kind"])

    # A detection stores its round only; report writes detected and stage.
    @pytest.mark.parametrize("round_index, row", [
        (0, ("True", "init", "0")), (7, ("True", "update", "7")), (None, ("False", "never", "-"))],
        ids=["initialisation", "update", "never"])
    def test_detection_stage_follows_round(self, tmp_path, round_index, row):
        run_experiment(small_config(adversaries=[{"kind": "free_rider_random_label"}]), tmp_path)
        path = tmp_path / "traces" / "fdpddl_s1_seed0.json"
        trace = json.loads(path.read_text())
        [detection] = trace["detection"]
        assert detection.keys() == {"party", "kind", "round"}
        detection["round"] = round_index
        path.write_text(json.dumps(trace))
        assert main(["report", "--traces", str(tmp_path / "traces"),
                     "--out", str(tmp_path / "o")]) == 0
        [written] = csv.DictReader((tmp_path / "o" / "detection.csv").read_text().splitlines())
        assert (written["detected"], written["stage"], written["round"]) == row

    def test_no_adversaries_empty_detection_table(self, tmp_path):
        run_experiment(small_config(), tmp_path)
        lines = (tmp_path / "detection.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only
