"""Check that this checkout's runs write the same bytes as another commit's.

    python3 tools/same_bytes.py BASE [--expect-moved GLOB ...]

BASE is any commit git can name (a branch, a tag, a sha). It is checked
out with ``git worktree add`` into a temporary directory, and each side,
BASE and this working tree, runs in a fresh interpreter on its own
``src/``: the ``desk_grid``, ``paper_shape`` and ``market`` configs of
its own ``bench/workloads.py`` (read, never changed) at workload seeds 0
and 1, plus its own ``configs/desk_freerider.json``, each through
``harness.run_experiment`` once serially and once with
``parallel_workers=2``. Every file the runs write is compared byte for
byte. The script prints the number of files compared and the first
files that differ or exist on one side only. The temporary worktree is
removed however the script ends.

A change that moves outputs on purpose names them with --expect-moved
GLOB, once per glob. GLOB is matched with fnmatch against each path
relative to the output directory, such as
``desk_grid-seed0-serial/summary.json``; ``*`` also matches ``/``.
Every differing file that a glob matches is listed as expected, and any
other differing file still fails the check. A glob that matches no
differing file fails it too, so a stale list hides nothing.

Exit codes:
    0  every file is the same on both sides, or differs as expected
    1  some file differs or exists on one side only and no glob expects
       it, or some glob matches no differing file
    2  no comparison: BASE names no commit, it cannot be checked out, a
       side's run fails or the runs write no file; one ``error:`` line
       on stderr says which
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk_grid", "paper_shape", "market")
WORKLOAD_SEEDS = (0, 1)
# Runs as "python3 -c RUNNER OUTDIR GRID" with the side as the working
# directory and PYTHONPATH set to its src/; GRID is the JSON list
# [WORKLOADS, WORKLOAD_SEEDS].
RUNNER = """
import dataclasses, json, sys
sys.path.insert(0, "bench")
from faircollab import harness
from workloads import workload_config
out, (names, seeds) = sys.argv[1], json.loads(sys.argv[2])
configs = [(f"{name}-seed{seed}", workload_config(name, seed))
           for name in names for seed in seeds]
with open("configs/desk_freerider.json") as fh:
    configs.append(("desk_freerider", json.load(fh)))
for label, obj in configs:
    config = harness.ExperimentConfig.from_dict(obj)
    for mode, workers in (("serial", 0), ("parallel2", 2)):
        harness.run_experiment(dataclasses.replace(config, parallel_workers=workers),
                               f"{out}/{label}-{mode}")
"""


def _files(top: Path) -> dict[str, Path]:
    """Every file under top, keyed by its path relative to top."""
    return {str(path.relative_to(top)): path for path in sorted(top.rglob("*"))
            if path.is_file()}


def compare(base: Path, change: Path) -> tuple[int, list[str]]:
    """(files compared, paths that differ), over the union of the files
    under base and change. A file on one side only differs."""
    left, right = _files(Path(base)), _files(Path(change))
    differing = [rel for rel in sorted(left.keys() | right.keys())
                 if not (rel in left and rel in right
                         and left[rel].read_bytes() == right[rel].read_bytes())]
    return len(left.keys() | right.keys()), differing


def judge(differing: list[str], globs: list[str]
          ) -> tuple[list[str], list[str], list[str]]:
    """(expected, unexpected, unmatched): the differing paths that some
    glob matches, those that none matches, and the globs that match no
    differing path."""
    expected = [rel for rel in differing
                if any(fnmatch.fnmatchcase(rel, glob) for glob in globs)]
    unexpected = [rel for rel in differing if rel not in expected]
    unmatched = [glob for glob in globs
                 if not any(fnmatch.fnmatchcase(rel, glob) for rel in differing)]
    return expected, unexpected, unmatched


def _run_side(side: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    grid = json.dumps([WORKLOADS, WORKLOAD_SEEDS])
    subprocess.run([sys.executable, "-c", RUNNER, str(out), grid], cwd=side, env=env,
                   check=True)


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit to compare this working tree with")
    parser.add_argument("--expect-moved", action="append", default=[], metavar="GLOB",
                        help="output paths this change moves on purpose (repeatable)")
    args = parser.parse_args(argv)
    try:
        sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        return _error(f"git names no commit {args.base!r}")

    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        out, checkout = Path(tmp), Path(tmp) / "checkout"
        try:
            _git("worktree", "add", "--detach", str(checkout), sha)
        except subprocess.CalledProcessError as exc:
            return _error(f"cannot check out {sha[:12]}: {' '.join(exc.stderr.split())}")
        try:
            for side, label, name in ((checkout, sha[:12], "base"),
                                      (ROOT, "this working tree", "change")):
                print(f"running {label} ...", flush=True)
                try:
                    _run_side(side, out / name)
                except subprocess.CalledProcessError as exc:
                    return _error(f"the run of {label} failed with exit {exc.returncode}")
        finally:
            _git("worktree", "remove", "--force", str(checkout))
        count, differing = compare(out / "base", out / "change")

    if not count:
        return _error("the runs wrote no file")
    expected, unexpected, unmatched = judge(differing, args.expect_moved)
    print(f"{count} files compared against {sha[:12]}: {len(differing)} differ, "
          f"{len(expected)} of them expected")
    for rel in expected:
        print(f"  expected: {rel}")
    for rel in unexpected[:10]:
        print(f"  differs: {rel}")
    if len(unexpected) > 10:
        print(f"  ... and {len(unexpected) - 10} more")
    for glob in unmatched:
        print(f"  no differing file matches --expect-moved {glob}")
    return 1 if unexpected or unmatched else 0


if __name__ == "__main__":
    sys.exit(main())
