"""The faircollab benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload {desk_grid,paper_shape,market} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; ``src/faircollab`` is imported
from there. Each repetition runs the workload's whole grid through
``harness.run_experiment`` in a fresh interpreter, and repetitions
continue while another one fits in ``--seconds``. Every repetition's
output files are checked (see checks.py) and must be byte-identical to
the first one's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (cells run), ``failed`` (cells that failed)
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
times being medians over repetitions. With ``--trace 1`` repetitions
alternate between untraced and traced, and the metrics are the per-layer
self times and counts (medians over traced repetitions) plus the tracing
overhead. The line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import check_run  # noqa: E402
from metrics import END_TO_END, LAYER_METRICS, TRACE_ONLY  # noqa: E402
from workloads import WORKLOADS, expected_cells, workload_config  # noqa: E402

# Set-up is also timed by every repetition; these extra fresh interpreters
# only set up, so that its median rests on several samples in every run.
SETUP_PROBES = 3
# Every run must end well within 180 s, whatever --seconds asks for.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def _blas() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = {"library": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(traced: bool) -> dict:
    import cryptography
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cryptography": cryptography.__version__,
            "blas": _blas(), "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "commit": commit, "tracing": traced}


def run_worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              capture_output=True, text=True, timeout=timeout, env=env,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    package = Path(result["package"]).resolve()
    if ROOT / "src" not in package.parents:
        raise WorkerError(f"faircollab was imported from {package}, not from this checkout")
    return result


def measure(config: dict, seconds: float, trace: bool, work: Path,
            spans: Path | None = None) -> dict:
    """Run ``config`` repeatedly for about ``seconds``; return the result object."""
    deadline = time.perf_counter() + DEADLINE_S
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2))

    problems: list[str] = []
    setup_samples = []
    for _ in range(SETUP_PROBES):
        probe = run_worker(["--config", str(config_path), "--setup-only"],
                           deadline - time.perf_counter())
        setup_samples.append(probe["setup_s"])

    cells = len(expected_cells(config))
    plain, traced, checks = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced_rep = trace and len(checks) % 2 == 1
        out = work / f"rep{len(checks)}"
        args = ["--config", str(config_path), "--out", str(out)]
        if traced_rep:
            args.append("--trace")
            if spans is not None:
                args += ["--spans", str(spans)]
        rep_start = time.perf_counter()
        try:
            result = run_worker(args, deadline - rep_start)
        except WorkerError as exc:
            problems.append(str(exc))
            result = None
        check = check_run(out, config) if out.is_dir() else None
        shutil.rmtree(out, ignore_errors=True)
        attempted += cells
        if result is None or check is None:
            failed += cells
            break
        failed += check.failed
        problems.extend(check.problems)
        checks.append(check)
        setup_samples.append(result["setup_s"])
        if traced_rep:
            traced.append(result)
            if result["self_time_total_s"] > result["wall_s"]:
                problems.append("per-layer self times exceed the traced wall time")
        else:
            plain.append(result)
        now = time.perf_counter()
        rep_s = now - rep_start
        if now + rep_s > deadline:
            break
        if plain and (traced or not trace) and now - start + rep_s > seconds:
            break
    if not plain or (trace and not traced) or "fdpddl_accuracy" not in checks[0].quality:
        raise WorkerError("no repetition completed: " + "; ".join(problems))
    if len({c.digest for c in checks}) != 1:
        problems.append("repetitions wrote different outputs")

    median = statistics.median
    quality = checks[0].quality
    if trace:
        metrics = {name: median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        traced_wall = median(r["wall_s"] for r in traced)
        metrics["tracing.wall_s"] = traced_wall
        metrics["tracing.overhead_s"] = traced_wall - median(r["wall_s"] for r in plain)
        metrics["harness.fairness_r"] = quality["fairness_r"]
        metrics["harness.fairness_degenerate_cells"] = quality["fairness_degenerate"]
        units = {**LAYER_METRICS, **TRACE_ONLY}
    else:
        metrics = {"setup_s": median(setup_samples),
                   "wall_s": median(r["wall_s"] for r in plain),
                   "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
                   "fdpddl_accuracy": quality["fdpddl_accuracy"],
                   "detection_rate": quality["detection_rate"]}
        units = END_TO_END
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="faircollab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "faircollab" / "__init__.py").is_file():
        print(f"error: no faircollab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = workload_config(args.workload, args.seed)
    name = f"{args.workload}-seed{args.seed}"
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    spans = ROOT / ".bench_work" / f"spans-{name}.jsonl" if args.trace else None
    try:
        result = measure(config, args.seconds, bool(args.trace), work, spans)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"environment": environment(bool(args.trace)),
                      "workload": args.workload, "seed": args.seed}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
