"""The comparison that tools/same_bytes.py makes, on two small directories."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "same_bytes", Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bytes)

FILES = {"desk_grid-seed0-serial/summary.json": b'{"mean_final_accuracy": 0.8125}',
         "desk_grid-seed0-serial/traces/fdpddl_s1_seed0.json": b'{"seed": 0}',
         "market-seed1-parallel2/rounds.csv": b"framework,setting,seed\n"}


def _tree(top: Path, files: dict[str, bytes]) -> Path:
    for rel, blob in files.items():
        (top / rel).parent.mkdir(parents=True, exist_ok=True)
        (top / rel).write_bytes(blob)
    return top


def test_identical_trees_pass(tmp_path):
    base, change = _tree(tmp_path / "base", FILES), _tree(tmp_path / "change", FILES)
    assert same_bytes.compare(base, change) == (3, [])


def test_one_byte_apart_is_caught(tmp_path):
    moved = dict(FILES)
    moved["desk_grid-seed0-serial/summary.json"] = b'{"mean_final_accuracy": 0.8126}'
    base, change = _tree(tmp_path / "base", FILES), _tree(tmp_path / "change", moved)
    assert same_bytes.compare(base, change) == (3, ["desk_grid-seed0-serial/summary.json"])


def test_a_file_on_one_side_only_differs(tmp_path):
    extra = {**FILES, "desk_grid-seed0-serial/traces/standalone_s1_seed0.json": b"{}"}
    base, change = _tree(tmp_path / "base", FILES), _tree(tmp_path / "change", extra)
    assert same_bytes.compare(base, change) == (
        4, ["desk_grid-seed0-serial/traces/standalone_s1_seed0.json"])
    assert same_bytes.compare(change, base)[1] == [
        "desk_grid-seed0-serial/traces/standalone_s1_seed0.json"]


def test_bad_ref_is_an_error_not_a_difference(capsys):
    # It ended in a CalledProcessError traceback and exit 1, the code for
    # outputs that differ.
    assert same_bytes.main(["no-such-ref"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: git names no commit 'no-such-ref'\n"
    assert "differ" not in captured.out


@pytest.mark.parametrize("failing", ["base", "change"])
def test_failed_side_is_an_error_and_the_worktree_goes(monkeypatch, capsys, failing):
    calls = []

    def git(*args):
        calls.append(args[:2])
        return "0123456789abcdef" if args[0] == "rev-parse" else ""

    def run_side(side, out):
        if out.name == failing:
            raise subprocess.CalledProcessError(1, ["python3"])
        out.mkdir()
        (out / "summary.json").write_bytes(b"{}")

    monkeypatch.setattr(same_bytes, "_git", git)
    monkeypatch.setattr(same_bytes, "_run_side", run_side)
    assert same_bytes.main(["HEAD"]) == 2
    label = {"base": "0123456789ab", "change": "this working tree"}[failing]
    assert capsys.readouterr().err == f"error: the run of {label} failed with exit 1\n"
    assert calls == [("rev-parse", "--verify"), ("worktree", "add"), ("worktree", "remove")]


def _sides(monkeypatch, base_files, change_files):
    """main() with git stubbed out and each side's run writing its files."""
    monkeypatch.setattr(same_bytes, "_git", lambda *args: "0123456789abcdef"
                        if args[0] == "rev-parse" else "")
    monkeypatch.setattr(same_bytes, "_run_side", lambda side, out: _tree(
        out, base_files if out.name == "base" else change_files))


SUMMARY = "desk_grid-seed0-serial/summary.json"
TRACE = "desk_grid-seed0-serial/traces/fdpddl_s1_seed0.json"
MOVED = {**FILES, SUMMARY: b'{"mean_final_accuracy": 0.8126}'}
# Each glob with the one file of FILES it matches: one workload's summary,
# and every trace of every workload directory.
GLOBS = (("desk_grid-seed0-*/summary.json", SUMMARY), ("*/traces/*.json", TRACE))


def test_expected_move_passes(monkeypatch, capsys):
    for glob, moved in GLOBS:
        _sides(monkeypatch, FILES, {**FILES, moved: b"{}"})
        assert same_bytes.main(["HEAD", "--expect-moved", glob]) == 0
        out = capsys.readouterr().out
        assert "3 files compared against 0123456789ab: 1 differ, 1 of them expected" in out
        assert f"  expected: {moved}\n" in out


def test_unexpected_move_fails(monkeypatch, capsys):
    # Each glob expects one of the summary and the trace to move; both move.
    _sides(monkeypatch, FILES, {**FILES, SUMMARY: b"{}", TRACE: b"{}"})
    for glob, moved in GLOBS:
        assert same_bytes.main(["HEAD", "--expect-moved", glob]) == 1
        out = capsys.readouterr().out
        other = TRACE if moved == SUMMARY else SUMMARY
        assert f"  expected: {moved}\n" in out
        assert f"  differs: {other}\n" in out


def test_glob_matching_no_differing_file_fails(monkeypatch, capsys):
    # A stale glob fails the check even where nothing else differs.
    _sides(monkeypatch, FILES, MOVED)
    assert same_bytes.main(["HEAD", "--expect-moved", "desk_grid-seed0-*/summary.json",
                            "--expect-moved", "market-seed1-*/rounds.csv"]) == 1
    out = capsys.readouterr().out
    assert "  no differing file matches --expect-moved market-seed1-*/rounds.csv\n" in out
    _sides(monkeypatch, FILES, FILES)
    assert same_bytes.main(["HEAD", "--expect-moved", "market-seed1-*/rounds.csv"]) == 1
