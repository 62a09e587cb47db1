"""The work meter of tools/record_bench.py on this repository's tree."""

import importlib.util
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_work_meter_is_deterministic(monkeypatch):
    """Two meter runs of wide-levels, under different string hashes,
    count the same work, and every search-order op asks one search."""
    record_bench = load(ROOT / "tools" / "record_bench.py")
    workloads = load(ROOT / "perfbench" / "workloads.py")
    runs = []
    for hash_seed in ("1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        runs.append(record_bench.work(ROOT, "wide-levels"))
    assert runs[0] == runs[1]
    total = record_bench.work_total(runs[0])
    assert total["searches_asked"] == sum(op[0] == "search-order"
                                          for op in workloads.WIDE_OPS)
    assert total["bytecodes"] > 0 and "macaulay" in total["bytecodes_by_module"]


def test_work_meter_names_a_missing_function(tmp_path):
    """A tree without the search body stops the meter with an error
    naming it, rather than reading 0 searches run."""
    record_bench = load(ROOT / "tools" / "record_bench.py")
    shutil.copytree(ROOT / "src" / "macposet", tmp_path / "src" / "macposet",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "macposet" / "macaulay.py", "a") as fh:
        fh.write("\ndel _search\n")
    with pytest.raises(SystemExit, match=r"macaulay\._search, which is missing"):
        record_bench.work(tmp_path, "wide-levels")
