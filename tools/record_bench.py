"""Record BENCH files: the benchmark's results for one or more source trees.

    python3 tools/record_bench.py TREE OUT [TREE OUT ...]

For each workload in TREE/BENCHMARK.json this runs TREE/perfbench/run.py
for the file's ``run_seconds``, once per seed in SEEDS with ``--trace 0``
and once, on the first seed, with ``--trace 1``, and writes OUT as JSON:
the tree's commit and source digest, the run context line (environment,
unscaled times), each end-to-end metric's median and quartiles over the
seeds with every run's value, and the per-layer metrics of the traced
run.  Its ``kernel_by_width`` section holds the in-process time of one
``kernels.level_min_shadows`` call at n = 4, 8, ..., 24 on fixed seeded
uniformly random one-word masks: median and quartiles over every timed
call, from a fresh interpreter per tree and round.  Its
``kernel_by_width_three_covers`` section does the same on fixed seeded
masks that each have three cover bits over an n-wide next level: their
unions repeat, as a box level's do, where random words' saturate.  Its
``reproduce_by_target`` section holds the in-process wall time of each
``macposet reproduce`` target: each target runs alone in its own fresh
interpreter, per tree and round, so its time does not depend on what
the targets before it left behind (it pays every first-use cost itself,
such as the kernel's per-width plans), and each target's median and
quartiles are over the rounds.  A single target's fresh-interpreter
times spread so widely that two trees' medians can differ by 20% with
no change between them, so with several trees each round's two runs of
a target are also paired: in every tree after the first, each target
records ``pairs_won``, the rounds in which it ran faster than in the
first tree, out of ``pairs``, and ``median_ratio``, the median over the
rounds of its time over the first tree's.  Each target also records
``searches_asked``, the order searches it asks for, and
``searches_run``, those that ran rather than being answered from the
search memo, and ``orders_built``, the calls of
``macaulay.order_from_lists``: the order families built from a
search's placed positions, by the search itself in a tree that builds
one per found search, or on the first read of ``SearchResult.order``.
All three are counted once per tree, in an untimed fresh interpreter
per target, and ``reproduce_pass_searches`` holds the same three counts
for all the targets run in turn in one interpreter, as a benchmark pass
runs them.  A tree without a search memo runs every search it asks
for.  Its ``search_by_outcome`` section splits the
random-search pool by search outcome: every instance of the pool is
searched in-process at the workload's budget through
``macaulay._search``'s unmemoised body, with every level's row built
beforehand, once per round in a fresh interpreter per tree and round.
Per outcome it holds the instance count, the median and quartiles over
the rounds of their summed search time, the nominal nodes and the
visited nodes (nominal less charged), with ``pairs_won`` and
``median_ratio`` against the first tree as for the targets.  Its
``tier1_s`` holds the wall time of the tier-1
suite, ``python -m pytest -q --continue-on-collection-errors``
run in TREE with TREE's ``src/`` on the path: median and quartiles over
TIER1_ROUNDS runs per tree.

Each run imports its tree's ``src/`` from source: the ``__pycache__``
directories under each TREE's ``src/`` are deleted before the first run
and every run has ``PYTHONDONTWRITEBYTECODE=1``, so a bytecode cache
left by another command cannot shorten one tree's ``setup_s``.

With several TREE OUT pairs the trees take turns, run by run, and the
tree that goes first alternates from seed to seed (and from round to
round), so a drift in the machine's speed falls on every tree alike.  A
run whose outputs do not match the goldens, or a tier-1 run with a
failing test, stops the recording.
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
        masks = rng.integers(0, 2**64, (n, 1), dtype=np.uint64)
    else:
        masks = np.array([[sum(1 << int(b) for b in rng.choice(n, 3, replace=False))]
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
# a single target's fresh-interpreter times spread by up to ±30%, so
# 5 rounds could not resolve a change under about 25%
REPRODUCE_ROUNDS = 15
REPRODUCE_TARGETS = """
import json
from macposet import cli
print(json.dumps({"targets": list(cli.REPRODUCE)}))
"""
# timed in a fresh interpreter that runs only the target named in argv,
# so no target's time depends on state that earlier targets left in the
# process, such as the row memo's contents
REPRODUCE_TIMER = """
import contextlib, io, json, sys, time
from macposet import cli
name = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    t0 = time.perf_counter()
    code = cli.run_command(["reproduce", name])
    elapsed = time.perf_counter() - t0
if code not in (0, 1):
    sys.exit(f"reproduce {name} exited {code}")
print(json.dumps({name: [elapsed]}))
"""
# counts the searches that the targets named in argv ask for, through
# find_macaulay_order wherever it was imported, those that run the
# search body, macaulay._search: the misses of its memo where it is
# memoised, or else its calls, as in a tree whose memo sits in front of
# it, and the orders built from search positions, the calls of
# macaulay.order_from_lists (other modules' calls of it are not counted)
SEARCH_COUNTER = """
import contextlib, io, json, sys
from macposet import cli, macaulay
counts = {"asked": 0, "run": 0, "orders_built": 0}

def counted(fn, *keys):
    def call(*args, **kwargs):
        for key in keys:
            counts[key] += 1
        return fn(*args, **kwargs)
    return call

search, body = macaulay.find_macaulay_order, getattr(macaulay, "_search", None)
memo = getattr(body, "cache_info", None)
asked = counted(search, "asked") if body else counted(search, "asked", "run")
for mod in [m for n, m in sys.modules.items() if n.startswith("macposet")]:
    for attr, val in list(vars(mod).items()):
        if val is search:
            setattr(mod, attr, asked)
if body and not memo:
    macaulay._search = counted(body, "run")
macaulay.order_from_lists = counted(macaulay.order_from_lists, "orders_built")

def tally():
    return {"asked": counts["asked"], "run": memo().misses if memo else counts["run"],
            "orders_built": counts["orders_built"]}

out = {}
for name in sys.argv[1:]:
    seen = tally()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run_command(["reproduce", name])
    now = tally()
    out[name] = {key: now[key] - seen[key] for key in now}
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


def fresh_times(tree: Path, timer: str, args=()):
    """The times, by key, that ``timer`` prints from one fresh interpreter
    importing the tree's ``src/``."""
    cmd = [sys.executable, "-c", timer, *map(str, args)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
                               "PYTHONPATH": str(tree / "src")})
    if proc.returncode != 0:
        sys.exit(f"error: in-process timing in {tree} exited {proc.returncode}: "
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def reproduce_times(tree: Path, targets):
    """Each reproduce target's time, each from its own fresh interpreter."""
    out = {}
    for name in targets:
        out.update(fresh_times(tree, REPRODUCE_TIMER, [name]))
    return out


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
    kernel = {kind: fresh_rounds(trees, KERNEL_ROUNDS, lambda t: fresh_times(
        t, KERNEL_TIMER, [kind, *KERNEL_WIDTHS])) for kind in ("random", "covers")}
    targets = fresh_times(trees[0], REPRODUCE_TARGETS)["targets"]
    reproduce = fresh_rounds(trees, REPRODUCE_ROUNDS,
                             lambda t: reproduce_times(t, targets))
    tier1 = fresh_rounds(trees, TIER1_ROUNDS, tier1_times)
    outcomes = fresh_rounds(trees, SEARCH_ROUNDS, lambda t: fresh_times(t, SEARCH_BY_OUTCOME))
    searches = {t: {name: fresh_times(t, SEARCH_COUNTER, [name])[name] for name in targets}
                for t in trees}
    one_pass = {t: fresh_times(t, SEARCH_COUNTER, targets) for t in trees}

    for t, out in zip(trees, outs):
        by_target = summarise_times(reproduce[t])
        if t != trees[0]:
            for name, pair in paired(reproduce[t], reproduce[trees[0]]).items():
                by_target[name].update(pair)
        for name, counts in searches[t].items():
            by_target[name].update(searches_asked=counts["asked"],
                                   searches_run=counts["run"],
                                   orders_built=counts["orders_built"])
        doc = {"commit": commit_of(t), "source_digest": source_digest(t),
               "seeds": list(SEEDS), "seconds": seconds, "workloads": {},
               "kernel_by_width": summarise_times(kernel["random"][t]),
               "kernel_by_width_three_covers": summarise_times(kernel["covers"][t]),
               "reproduce_by_target": by_target,
               "reproduce_pass_searches": {key: sum(c[key] for c in one_pass[t].values())
                                           for key in ("asked", "run", "orders_built")},
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
