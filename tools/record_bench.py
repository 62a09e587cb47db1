"""Record BENCH files: the benchmark's results for one or more source trees.

    python3 tools/record_bench.py TREE OUT [TREE OUT ...]

Each OUT is JSON: the TREE's commit and source digest, and these sections.

``workloads``: per workload in TREE/BENCHMARK.json, the median,
quartiles and every value of each end-to-end metric over one
TREE/perfbench/run.py run per seed in SEEDS (``--trace 0``, the file's
``run_seconds``), the first run's context line (environment, unscaled
times), and the per-layer metrics of one more run on the first seed
with ``--trace 1``.

``kernel_by_width``: the in-process time of one
``kernels.level_min_shadows`` call at n = 4, 8, ..., 24 on fixed seeded
uniformly random one-word masks, whose unions saturate: median and
quartiles over every timed call, from a fresh interpreter per tree and
round.  ``kernel_by_width_three_covers``: the same on masks of three
cover bits each over an n-wide next level, whose unions repeat as a box
level's do.  Every tree times the same 1-D masks.

``work_by_workload``: the work of one pass of each workload at the
first seed, run as perfbench/worker.py runs it, in a fresh interpreter
per tree and workload: ``bytecodes_by_module``, the ``sys.settrace``
opcode events in each module of the tree's ``src/macposet/``, and their
sum ``bytecodes``; ``searches_asked``, the calls of
``macaulay.find_macaulay_order``; ``searches_run``, those that reached
the body of ``macaulay._search`` past its memo; ``orders_built``, the
calls of ``orders.order_from_lists`` from ``macaulay.py``.  The counts
are equal on every run, so they are taken once per tree; a tree that
lacks one of the three functions stops the recording.  Work done in C
(the numpy kernel, ``sorted``, dict lookups) is not counted, so a
change that moves work into C reads as a large drop: a claim cites
bytecodes together with a wall-time pair and ``subsets_enumerated``,
never alone.  ``work_by_target``: the same per ``reproduce`` target of
the paper-reproduce pass, each counted after the targets before it.

``search_by_outcome``: the random-search pool's searches at the
workload's budget, split by outcome, in-process through
``macaulay._search``'s unmemoised body with every level's row built
beforehand, in a fresh interpreter per tree and round.  Per outcome:
the instance count, the median and quartiles over the rounds of their
summed search time, the nominal and the visited nodes (nominal less
charged), and in every tree after the first ``pairs_won`` of ``pairs``,
the rounds it ran faster than in the first tree, and ``median_ratio``,
the median per-round time ratio to the first tree.

``tier1_s``: the wall time of ``python -m pytest -q
--continue-on-collection-errors`` in TREE with TREE's ``src/`` on the
path: median and quartiles over TIER1_ROUNDS runs.

Each run imports its tree's ``src/`` from source: the ``__pycache__``
directories under each TREE's ``src/`` are deleted before the first run
and every run has ``PYTHONDONTWRITEBYTECODE=1``, so a bytecode cache
left by another command cannot shorten one tree's ``setup_s``.

With several TREE OUT pairs the trees take turns, run by run, and the
tree that goes first alternates from seed to seed (and from round to
round), so a drift in the machine's speed falls on every tree alike.
Every TREE of one recording should be the same kind of copy, for
example each one a ``git archive`` of its commit: ``peak_rss_mb``
follows the checkout, and a ``git clone`` and a ``git archive`` copy of
one commit differ by about 0.1 MB.  A run whose outputs do not match
the goldens, or a tier-1 run with a failing test, stops the recording.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# the same seeds for every tree, so BENCH files compare run for run
SEEDS = tuple(range(1101, 1111))

KERNEL_WIDTHS = tuple(range(4, 25, 4))
KERNEL_ROUNDS = 3
# timed in a fresh interpreter: about 0.1 s of calls per width, after
# one untimed call; the masks depend only on the width and argv[1]:
# "random" masks are uniformly random 64-bit words, whose unions
# saturate, and "covers" masks each have three cover bits over an
# n-wide next level, whose unions repeat as a box level's do
KERNEL_TIMER = """
import json, sys, time
import numpy as np
from macposet import kernels
out = {}
for n in map(int, sys.argv[2:]):
    rng = np.random.default_rng(n)
    if sys.argv[1] == "random":
        masks = rng.integers(0, 2**64, n, dtype=np.uint64)
    else:
        masks = np.array([sum(1 << int(b) for b in rng.choice(n, 3, replace=False))
                          for _ in range(n)], dtype=np.uint64)
    kernels.level_min_shadows(masks)
    times = []
    while sum(times) < 0.1 or len(times) < 5:
        t0 = time.perf_counter()
        kernels.level_min_shadows(masks)
        times.append(time.perf_counter() - t0)
    out[n] = times
print(json.dumps(out))
"""
# counts the work of one pass of the workload argv[1] at seed argv[2],
# op by op, run as perfbench/worker.py runs it; the memo in front of
# macaulay._search is C code, so the body's frame starts only on a miss
WORK_METER = """
import contextlib, io, json, os, sys, tempfile
sys.path.insert(0, "perfbench")
import workloads
from macposet import cli, macaulay, orders

def code_of(module, name):
    fn = getattr(module, name, None)
    if fn is None:
        sys.exit(f"the work meter counts calls of {module.__name__}.{name}, which is missing")
    return getattr(fn, "__wrapped__", fn).__code__

ask, run = code_of(macaulay, "find_macaulay_order"), code_of(macaulay, "_search")
build = code_of(orders, "order_from_lists")
src, here = os.path.dirname(cli.__file__) + os.sep, macaulay.__file__
work = {"searches_asked": 0, "searches_run": 0, "orders_built": 0}
modules = {}  # file: [its bytecodes], and the trace function of its frames

def module_tracer():
    bytecodes = [0]
    def count(frame, event, arg):
        if event == "opcode":
            bytecodes[0] += 1
        return count
    return bytecodes, count

def trace(frame, event, arg):
    code = frame.f_code
    if code is ask:
        work["searches_asked"] += 1
    elif code is run:
        work["searches_run"] += 1
    elif code is build and frame.f_back.f_code.co_filename == here:
        work["orders_built"] += 1
    if code.co_filename.startswith(src):
        if code.co_filename not in modules:
            modules[code.co_filename] = module_tracer()
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return modules[code.co_filename][1]

cli.build_parser()
out = []
with tempfile.TemporaryDirectory() as tmp:
    report = os.path.join(tmp, "report.json")
    for argv in workloads.ops(sys.argv[1], int(sys.argv[2])):
        work.update(dict.fromkeys(work, 0))
        for bytecodes, _ in modules.values():
            bytecodes[0] = 0
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.settrace(trace)
            try:
                cli.run_command(argv + ["--report", report])
            finally:
                sys.settrace(None)
        out.append({"op": argv[:2], **work, "bytecodes_by_module": {
            path[len(src):-3]: n[0] for path, (n, _) in modules.items() if n[0]}})
print(json.dumps(out))
"""
# searches the random-search pool named by argv[1]'s perfbench, once,
# after building every level's row, and prints per outcome the instance
# count, the summed search time and the nominal and visited nodes
SEARCH_BY_OUTCOME = """
import json, sys, time
sys.path.insert(0, "perfbench")
import workloads
from macposet import macaulay
from macposet.expr import evaluate, parse_expression
masks = [evaluate(parse_expression(workloads.random_instance(s, v))).poset._shadow_masks()
         for s in range(workloads.SLOTS) for v in range(workloads.VARIANTS)]
for m in masks:
    macaulay._table(m)
search, out = macaulay._search.__wrapped__, {}
for m in masks:
    t0 = time.perf_counter()
    status, nodes, charged = search(m, workloads.SEARCH_BUDGET)[:3]
    elapsed = time.perf_counter() - t0
    row = out.setdefault(status, {"instances": 0, "s": 0.0, "nodes": 0, "visited": 0})
    row["instances"] += 1
    row["s"] += elapsed
    row["nodes"] += nodes
    row["visited"] += nodes - charged
print(json.dumps(out))
"""
SEARCH_ROUNDS = 5
TIER1_ROUNDS = 3
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def commit_of(tree: Path):
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(tree: Path) -> str:
    """sha256 over the path and bytes of every ``src/**/*.py``, in path
    order; it names the measured program whether or not it is committed."""
    h = hashlib.sha256()
    src = tree / "src"
    for f in sorted(src.rglob("*.py")):
        h.update(f.relative_to(src).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """One run of the tree's benchmark: its context line and result line."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    context, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"error: {workload} seed {seed} in {tree}: outputs differ from the goldens")
    return context, result


def summarise(runs):
    """Median, quartiles and every run's value of each end-to-end metric."""
    out = {}
    for name, first in runs[0][1]["metrics"].items():
        values = [r[1]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "runs": values}
    return out


def fresh_run(tree: Path, script: str, args=()):
    """What ``script`` prints, as JSON, from one fresh interpreter
    importing the tree's ``src/``."""
    cmd = [sys.executable, "-c", script, *map(str, args)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
                               "PYTHONPATH": str(tree / "src")})
    if proc.returncode != 0:
        sys.exit(f"error: an in-process probe in {tree} exited {proc.returncode}: "
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def work(tree: Path, workload: str):
    """Per op of one pass of ``workload`` at the first seed, the work
    that ``WORK_METER`` counts."""
    return fresh_run(tree, WORK_METER, [workload, SEEDS[0]])


def work_total(ops):
    """The work of ``ops`` summed, with the bytecodes over all modules."""
    modules = sum((Counter(op["bytecodes_by_module"]) for op in ops), Counter())
    return {**{key: sum(op[key] for op in ops)
               for key in ("searches_asked", "searches_run", "orders_built")},
            "bytecodes": sum(modules.values()), "bytecodes_by_module": dict(modules)}


def search_by_outcome(samples, base=None):
    """Per outcome, the instances and nodes of the first round and the
    median and quartiles of the summed search time over the rounds, and
    against ``base``'s rounds the pairs won and the median time ratio."""
    times = [{status: [row["s"]] for status, row in s.items()} for s in samples]
    out = summarise_times(times)
    for status, row in out.items():
        del row["calls"]
        row.update({key: samples[0][status][key] for key in ("instances", "nodes", "visited")})
        if base is not None:
            row.update(paired([{status: t[status]} for t in times],
                              [{status: [b[status]["s"]]} for b in base])[status])
    return out


def tier1_times(tree: Path):
    """The wall time of one run of the tier-1 suite in the tree."""
    cmd = [sys.executable, *TIER1]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
                               "PYTHONPATH": str(tree / "src")})
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"error: the tier-1 suite in {tree} exited {proc.returncode}: "
                 f"{proc.stdout[-2000:]}")
    return {"tier1_s": [elapsed]}


def fresh_rounds(trees, rounds: int, measure):
    """Each tree's ``measure(tree)`` over ``rounds`` rounds; the tree that
    goes first alternates from round to round."""
    samples = {t: [] for t in trees}
    for i in range(rounds):
        for t in (trees if i % 2 == 0 else trees[::-1]):
            samples[t].append(measure(t))
    return samples


def summarise_times(samples):
    """Median and quartiles of each key's times, in seconds."""
    out = {}
    for key in samples[0]:
        times = [t for s in samples for t in s[key]]
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        out[key] = {"unit": "s", "median": median, "q1": q1, "q3": q3,
                    "calls": len(times)}
    return out


def paired(samples, base):
    """Per key, the rounds whose time beat ``base``'s in the same round
    and the median of the per-round time ratios to ``base``."""
    out = {}
    for key in samples[0]:
        ratios = [s[key][0] / b[key][0] for s, b in zip(samples, base)]
        out[key] = {"pairs": len(ratios), "pairs_won": sum(r < 1 for r in ratios),
                    "median_ratio": statistics.median(ratios)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pairs", nargs="+", metavar="TREE OUT")
    args = ap.parse_args()
    if len(args.pairs) % 2:
        ap.error("give a TREE and an OUT for every tree")
    trees = [Path(t).resolve() for t in args.pairs[::2]]
    outs = [Path(o) for o in args.pairs[1::2]]
    bench = json.loads((trees[0] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    for t in trees:
        for cache in list((t / "src").rglob("__pycache__")):
            shutil.rmtree(cache)
    plain = {(t, w): [] for t in trees for w in workloads}
    traced = {}
    for w in workloads:
        for i, seed in enumerate(SEEDS):
            for t in (trees if i % 2 == 0 else trees[::-1]):
                plain[t, w].append(run_bench(t, w, seed, seconds, 0))
                print(f"{t.name} {w} seed {seed}: wall_s "
                      f"{plain[t, w][-1][1]['metrics']['wall_s']['value']:.4g}",
                      file=sys.stderr)
        for t in trees:
            traced[t, w] = run_bench(t, w, SEEDS[0], seconds, 1)
    kernel = {kind: fresh_rounds(trees, KERNEL_ROUNDS, lambda t: fresh_run(
        t, KERNEL_TIMER, [kind, *KERNEL_WIDTHS])) for kind in ("random", "covers")}
    tier1 = fresh_rounds(trees, TIER1_ROUNDS, tier1_times)
    outcomes = fresh_rounds(trees, SEARCH_ROUNDS, lambda t: fresh_run(t, SEARCH_BY_OUTCOME))
    counted = {t: {w: work(t, w) for w in workloads} for t in trees}

    for t, out in zip(trees, outs):
        doc = {"commit": commit_of(t), "source_digest": source_digest(t),
               "seeds": list(SEEDS), "seconds": seconds, "workloads": {},
               "kernel_by_width": summarise_times(kernel["random"][t]),
               "kernel_by_width_three_covers": summarise_times(kernel["covers"][t]),
               "work_by_workload": {w: work_total(ops) for w, ops in counted[t].items()},
               "work_by_target": {op["op"][1]: work_total([op])
                                  for op in counted[t]["paper-reproduce"]},
               "search_by_outcome": search_by_outcome(
                   outcomes[t], None if t == trees[0] else outcomes[trees[0]]),
               "tier1_s": summarise_times(tier1[t])["tier1_s"]}
        for w in workloads:
            runs = plain[t, w]
            context, result = traced[t, w]
            doc["workloads"][w] = {
                "context": runs[0][0],
                "attempted": sum(r[1]["attempted"] for r in runs),
                "failed": sum(r[1]["failed"] for r in runs),
                "end_to_end": summarise(runs),
                "trace": {"seed": SEEDS[0], "context": context,
                          "per_layer": result["metrics"]},
            }
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
