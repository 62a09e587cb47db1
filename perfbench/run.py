"""The macposet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the ops):

* paper-reproduce: the 12 ``reproduce`` targets.  The paper's artifact
  set; time goes to construction and to many small, repeated kernel
  calls (levels of 16 or fewer elements).
* wide-levels: ``check``, ``additive`` and ``search-order`` on posets
  whose widest level has 18-24 elements.  Almost all time is the wide
  kernel; every kernel input is distinct and the search never backtracks.
* random-search: 200 seeded random ranked posets (levels 5-12 wide,
  3-5 levels) as ``explicit{...}`` expressions, each run as
  ``search-order --budget 20000``.  Search dominates; the only workload
  with enough ops for latency percentiles.

Every pass runs in a fresh worker process (closed loop, one client, no
threads), so nothing cached in one pass speeds up the next; ops within a
pass share that process.  Passes repeat until ``--seconds`` have passed.
Every op's exit code and report are checked against goldens recorded at
a known-good commit, and every found order is replayed through
``check_macaulay``.

With ``--trace 0`` the passes are untraced and the end-to-end metrics
are printed:

* setup_s: a fresh interpreter importing ``macposet.cli`` and building
  its parser, which every command pays (median of 5 set-up-only workers
  and of every pass's worker);
* wall_s: the summed op times of one pass (median over passes);
* op_p50_ms, op_p95_ms: a pass's median and 95th-percentile op latency
  (median over passes); only random-search has the 200 ops that put
  ten beyond the 95th percentile;
* peak_rss_mb: peak resident memory of the worker that ran the pass;
* ok_frac: ops that matched their golden over ops attempted, the
  complement of the failed share (a metric may not read 0).

With ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics of layers.py are printed (median over traced passes),
with ``trace.overhead_s``, the traced minus the untraced pass time.

The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the seed, the instance digest, verdict counts, the environment and the
unscaled times.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
# Times are reported at a reference CPU speed.  On a shared machine the
# speed one process gets swings by up to 40% within a minute, for CPU
# time as much as for wall time, and by different amounts for different
# kinds of work.  Each worker therefore times a fixed probe mixing
# interpreter, allocation and numpy work (worker.calibrate) right after
# its set-up or pass, and its times are scaled by
# REFERENCE_CALIBRATION_S / the probe's time: they read as seconds on a
# core where the probe takes 12 ms.  The unscaled medians are printed
# on the context line.
REFERENCE_CALIBRATION_S = 0.012

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p95_ms": "ms",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}
PER_LAYER_UNITS = {
    "kernels.self_s": "s",
    **{f"kernels.self_s.{band}": "s" for band, _ in layers.WIDTH_BANDS},
    "kernels.ns_per_subset.w17-24": "ns",
    "kernels.calls": "count", "kernels.subsets": "count",
    "kernels.distinct_ratio": "ratio",
    "macaulay.table.self_s": "s", "macaulay.table.calls": "count",
    "macaulay.check.self_s": "s", "macaulay.check.calls": "count",
    "macaulay.additive.self_s": "s",
    "macaulay.search.self_s": "s", "macaulay.search.nodes": "count",
    "macaulay.search.nodes_per_s": "1/s",
    "macaulay.search.found": "count", "macaulay.search.none": "count",
    "macaulay.search.budget_exceeded": "count",
    "construct.self_s": "s", "construct.calls": "count",
    "construct.elements": "count",
    "ideals.self_s": "s", "orders.self_s": "s",
    "classify.self_s": "s", "classify.rows": "count",
    "expr.self_s": "s", "cli.self_s": "s",
    "serialize.self_s": "s", "serialize.bytes": "B",
    "trace.overhead_s": "s",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload, seed, mode):
    """Run one worker process to completion and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode,
           "--report-path", str(WORK / f"report-{mode}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:  # run() kills and reaps the worker
        raise WorkerFailed(f"worker timed out after {e.timeout} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def scaled(result):
    """A worker's result with every time scaled to the reference speed."""
    f = REFERENCE_CALIBRATION_S / result["calibration_s"]
    out = dict(result, setup_s=result["setup_s"] * f)
    if "pass_s" in result:
        out["pass_s"] = result["pass_s"] * f
        out["op_s"] = [t * f for t in result["op_s"]]
    if "trace" in result:
        trace = result["trace"]
        out["trace"] = dict(trace, self_s={k: v * f for k, v in trace["self_s"].items()})
    return out


def end_to_end(setups, plain, attempted, failed):
    """End-to-end metrics from set-up samples and untraced passes.

    Each pass gives its median and 95th-percentile op latency; like the
    pass time, they are reported as the median over passes.
    """
    def over_passes(fn):
        return statistics.median(fn(p) for p in plain)

    values = {
        "setup_s": statistics.median(setups),
        "wall_s": over_passes(lambda p: p["pass_s"]),
        "op_p50_ms": over_passes(lambda p: statistics.median(p["op_s"])) * 1e3,
        "op_p95_ms": over_passes(lambda p: statistics.quantiles(
            p["op_s"], n=20, method="inclusive")[18]) * 1e3,
        "peak_rss_mb": over_passes(lambda p: p["rss_mb"]),
        "ok_frac": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_values(summary):
    """Per-layer metrics of one traced pass."""
    self_s, counts = summary["self_s"], summary["counts"]

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def c(*names):
        return sum(counts.get(n, 0) for n in names)

    bands = [band for band, _ in layers.WIDTH_BANDS]
    kernel_calls = c("kernels.calls")
    wide_s = s("kernels.w17-24")
    wide_subsets = c("kernels.subsets.w17-24")
    search_s = s("macaulay.search")
    out = {
        "kernels.self_s": s(*(f"kernels.{b}" for b in bands)),
        **{f"kernels.self_s.{b}": s(f"kernels.{b}") for b in bands},
        "kernels.ns_per_subset.w17-24": wide_s / wide_subsets * 1e9 if wide_subsets else 0.0,
        "kernels.calls": kernel_calls,
        "kernels.subsets": c(*(f"kernels.subsets.{b}" for b in bands)),
        "kernels.distinct_ratio": (c("kernels.distinct_inputs") / kernel_calls
                                   if kernel_calls else 0.0),
        "macaulay.table.self_s": s("macaulay.table"),
        "macaulay.table.calls": c("macaulay.table.calls"),
        "macaulay.check.self_s": s("macaulay.check"),
        "macaulay.check.calls": c("macaulay.check.calls"),
        "macaulay.additive.self_s": s("macaulay.additive"),
        "macaulay.search.self_s": search_s,
        "macaulay.search.nodes": c("macaulay.search.nodes"),
        "macaulay.search.nodes_per_s": (c("macaulay.search.nodes") / search_s
                                        if search_s else 0.0),
        "macaulay.search.found": c("macaulay.search.found"),
        "macaulay.search.none": c("macaulay.search.none"),
        "macaulay.search.budget_exceeded": c("macaulay.search.budget_exceeded"),
        "construct.self_s": s("construct"),
        "construct.calls": c("construct.calls"),
        "construct.elements": c("construct.elements"),
        "ideals.self_s": s("ideals"),
        "orders.self_s": s("orders"),
        "classify.self_s": s("classify"),
        "classify.rows": c("classify.rows"),
        "expr.self_s": s("expr"),
        "cli.self_s": s("cli"),
        "serialize.self_s": s("serialize"),
        "serialize.bytes": c("serialize.bytes"),
    }
    return out


def per_layer(plain, traced):
    """Per-layer metrics: the median over traced passes of each value,
    plus the tracing overhead against the untraced passes."""
    rows = [layer_values(p["trace"]) for p in traced]
    values = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    values["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                                  - statistics.median(p["pass_s"] for p in plain))
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def layer_shares(traced):
    """Each layer's share of the traced pass time (median over passes)."""
    rows = [layer_values(p["trace"]) for p in traced]
    total = statistics.median(p["pass_s"] for p in traced)
    keys = [k for k in rows[0] if ".self_s" in k and not k.startswith("kernels.self_s.")]
    keys += [f"kernels.self_s.{b}" for b, _ in layers.WIDTH_BANDS]
    return {k: round(statistics.median(r[k] for r in rows) / total, 4) for k in keys}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "macposet" / "cli.py").is_file():
        sys.exit(f"error: no macposet sources under {ROOT / 'src'}; "
                 "run from the root of a macposet checkout")
    WORK.mkdir(exist_ok=True)

    # the first import in a fresh checkout compiles bytecode, a cost paid
    # once per install, not per command
    run_worker(args.workload, args.seed, "setup")
    raw = [run_worker(args.workload, args.seed, "setup") for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    t_end = time.monotonic() + args.seconds
    while time.monotonic() < t_end or not plain or (args.trace and not traced):
        mode = "traced" if args.trace and len(traced) < len(plain) else "plain"
        result = run_worker(args.workload, args.seed, mode)
        raw.append(result)
        (traced if mode == "traced" else plain).append(scaled(result))
    setups = [scaled(r)["setup_s"] for r in raw]

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # traced and untraced passes must write byte-identical reports
    digests = {json.dumps(p["report_digests"]) for p in passes}
    op_list = workloads.ops(args.workload, args.seed)
    context = {
        "workload": args.workload, "seed": args.seed, "ops_per_pass": len(op_list),
        "instances_digest": workloads.digest(op_list),
        "passes": {"plain": len(plain), "traced": len(traced)},
        "verdicts": plain[0]["verdicts"],
        "identical_report_bytes": sum(p["identical"] for p in passes),
        "replayed_orders": sum(p["replayed"] for p in passes),
        "traced_reports_identical": len(digests) == 1,
        "failures": [f for p in passes for f in p["failures"]][:5],
        "env": plain[0]["env"],
        "unscaled": {
            "calibration_s": statistics.median(r["calibration_s"] for r in raw),
            "setup_s": statistics.median(r["setup_s"] for r in raw),
            "wall_s": statistics.median(r["pass_s"] for r in raw if "pass_s" in r
                                        and "trace" not in r),
        },
    }
    if args.trace:
        context["layer_shares"] = layer_shares(traced)
        context["absent_layers"] = traced[0]["trace"]["absent"]
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(setups, plain, attempted, failed)
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and len(digests) == 1,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except WorkerFailed as e:
        sys.exit(f"error: {e}")
