"""The benchmark's tooling on this repository's tree: the work meter of
tools/record_bench.py and the replay of found orders in
perfbench/worker.py."""

import importlib.util
import json
import pathlib
import shutil
import sys

import pytest

from macposet.cli import run_command

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


def test_replay_checks_a_found_order(monkeypatch, tmp_path):
    """The benchmark's replay of a search-order report accepts the order
    the search found and refuses it with one level reversed."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # worker.py prepends its dir
    worker = load(ROOT / "perfbench" / "worker.py")
    argv = ["search-order", worker.workloads.random_instance(7, 0)]
    report = tmp_path / "r.json"
    assert run_command(argv + ["--report", str(report)]) == 0
    found = report.read_bytes()
    assert worker.replay_found(argv, found)
    doc = json.loads(found)
    doc["grid"]["order"][1].reverse()
    assert not worker.replay_found(argv, json.dumps(doc).encode())


def test_tracer_sees_every_builder():
    """perfbench's tracer wraps the builders ``evaluate`` calls, so a
    traced ``show`` counts every construction call; a builder table built
    at import would keep the unwrapped functions and count too few."""
    layers = load(ROOT / "perfbench" / "layers.py")
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert run_command([
            "show", "union(path(1), box(2,2), spider(1), heart(1,1,1,1), "
            "hat(path(0)), ubar(box(2,2)), cart(path(0), path(0)), "
            "wedge(path(1), path(1)), diamond(path(1), path(1)), "
            "fiber(poset(ideal(x^2, y)), poset(ideal(x, y^2))))"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["construct.calls"] == 23


def test_tracer_layers_name_package_functions():
    """Which of the tracer's ``LAYERS`` names the package defines; the
    rest are skipped by ``Tracer.install``."""
    layers = load(ROOT / "perfbench" / "layers.py")
    named = [(mod, name) for _, mod, names in layers.LAYERS for name in names]
    missing = {f"{mod}.{name}" for mod, name in named if not callable(
        getattr(importlib.import_module("macposet." + mod), name, None))}
    assert len(named) == 72 and len(named) - len(missing) == 52
    assert missing == {
        "expr.print_expression", "expr.print_order",
        "construct.relabel_swap_xy", "construct.restrict_to_factors",
        "ideals.standard_monomials_by_degree", "ideals.parse_monomial",
        "orders.heart_label_set", "orders.restrict_order",
        "classify.verify_heart_grid", "classify.verify_diamond_grid",
        "classify.verify_wedge_grid", "classify.hat_preservation_report",
        "classify.equivalence_suite", "classify.y_poset",
        "classify.ring_product_factor", "classify.conj66_quotient_ideal",
        "classify.cartesian_counterexamples", "classify.staircase_ideal",
        "serialize.poset_from_text", "serialize.order_lists_to_text"}
