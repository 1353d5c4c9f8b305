"""Checks on the files one experiment run wrote, and the quality metrics read from them.

A cell fails when it raised (its trace is missing), when an fdpddl cell's
``chain_valid`` is not ``true``, or when its ``token_totals`` change
between rounds (tokens are conserved). The quality metrics come from the
written ``summary.json``, ``fairness.csv`` and ``detection.csv`` only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field

from workloads import expected_cells

OUTPUT_FILES = ("accuracy.csv", "credibility.csv", "detection.csv", "fairness.csv",
                "rounds.csv", "summary.json")


@dataclass
class RunCheck:
    failed: int = 0                  # cells that failed
    problems: list[str] = field(default_factory=list)   # every reason, for the log
    quality: dict[str, float] = field(default_factory=dict)
    digest: str = ""                 # sha256 over every output file


def cell_failure(trace: dict) -> str | None:
    """Why one stored cell trace counts as failed, or None."""
    if trace["framework"] == "fdpddl" and trace.get("chain_valid") is not True:
        return "chain_valid is not true"
    totals = [total for _round, total in trace["trace"]["token_totals"]]
    if len(set(totals)) > 1:
        return f"token totals change between rounds: {totals}"
    return None


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _digest(outdir, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_run(outdir, config: dict) -> RunCheck:
    """Check one run's output directory against the config that produced it."""
    cells = expected_cells(config)
    check = RunCheck()
    trace_names = []
    for fw, st, sd in cells:
        name = f"traces/{fw}_s{st}_seed{sd}.json"
        try:
            with open(os.path.join(outdir, name)) as fh:
                trace = json.load(fh)
        except (OSError, ValueError) as exc:
            check.failed += 1
            check.problems.append(f"{name}: {exc}")
            continue
        trace_names.append(name)
        reason = cell_failure(trace)
        if reason:
            check.failed += 1
            check.problems.append(f"{name}: {reason}")
    present = len(os.listdir(os.path.join(outdir, "traces")))
    if present != len(cells):
        check.problems.append(f"{present} trace files for {len(cells)} cells")
    missing = [n for n in OUTPUT_FILES if not os.path.isfile(os.path.join(outdir, n))]
    if missing:
        check.problems.append(f"missing outputs: {missing}")
        return check

    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    if len(summary["cells"]) != len(cells):
        check.problems.append(f"summary lists {len(summary['cells'])} cells, expected {len(cells)}")
    accuracies = [v for k, v in summary["mean_final_accuracy"].items() if k.startswith("fdpddl/")]
    if accuracies:
        check.quality["fdpddl_accuracy"] = sum(accuracies) / len(accuracies)
    else:
        check.problems.append("summary.json has no fdpddl accuracy")

    fair = [row for row in _read_csv(os.path.join(outdir, "fairness.csv"))
            if row["framework"] == "fdpddl"]
    rs = [float(row["r_xy"]) for row in fair if row["degenerate"] == "False"]
    # 0.0 when every cell is degenerate; fairness_degenerate tells the two apart.
    check.quality["fairness_r"] = sum(rs) / len(rs) if rs else 0.0
    check.quality["fairness_degenerate"] = len(fair) - len(rs)

    detections = [row["detected"] == "True"
                  for row in _read_csv(os.path.join(outdir, "detection.csv"))
                  if row["framework"] == "fdpddl"]
    expected_detections = len(config["adversaries"]) * sum(fw == "fdpddl" for fw, _, _ in cells)
    if len(detections) != expected_detections:
        check.problems.append(f"{len(detections)} detection rows, expected {expected_detections}")
    # With no adversary there is none to miss.
    check.quality["detection_rate"] = sum(detections) / len(detections) if detections else 1.0

    for name, value in check.quality.items():
        if name != "fairness_degenerate" and not -1.0 <= value <= 1.0:
            check.problems.append(f"{name} = {value} is out of range")
    check.digest = _digest(outdir, list(OUTPUT_FILES) + sorted(trace_names))
    return check
