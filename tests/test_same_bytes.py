"""The comparison that tools/same_bytes.py makes, on two small directories."""

import importlib.util
from pathlib import Path

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
