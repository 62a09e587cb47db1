"""Fast self-check of the benchmark itself (a few seconds).

    python3 perfbench/selfcheck.py

Checks that:

1. every metric BENCHMARK.json names is produced by run.py, with the
   unit BENCHMARK.json gives it, and no layer is absent from the trace
   (a layer whose functions are gone is reported absent, not a crash);
2. traced and untraced passes write byte-identical reports;
3. a failing op, whether it raises or its report differs from the
   golden, is counted and the rest of the pass still runs;
4. run.py exits non-zero, printing no result, in a directory that holds
   the benchmark but no program.

Exits 1 at the first check that fails.
"""

import json
import shutil
import subprocess
import sys

import layers
import run
import worker
import workloads

# cheap ops that between them reach every layer and width band
OPS = [
    ["reproduce", "heart-example"],
    ["reproduce", "twist-figure"],
    ["reproduce", "thmB-wedge-grid"],
    ["check", "box(3,3,3,3)", "--order", "lex(x1,x2,x3,x4)"],
    ["additive", "box(5,5,5)", "--order", "lex(x,y,z)"],
    ["search-order", workloads.random_instance(7, 0), "--budget", str(workloads.SEARCH_BUDGET)],
    ["search-order", workloads.random_instance(0, 0), "--budget", str(workloads.SEARCH_BUDGET)],
]


def check(ok, what):
    if not ok:
        sys.exit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def main():
    cli = worker.import_program()
    run.WORK.mkdir(exist_ok=True)
    report_path = str(run.WORK / "selfcheck-report.json")
    goldens = worker.load_goldens()

    plain = worker.run_pass(OPS, goldens, report_path, cli.run_command)
    traced = worker.run_pass(OPS, goldens, report_path, cli.run_command, layers.Tracer())
    check(plain["failed"] == 0 and traced["failed"] == 0,
          f"every op matches its golden ({plain['failures'] or traced['failures']})")
    check(plain["replayed"] == 1, "the found order was replayed through check_macaulay")
    check(plain["report_digests"] == traced["report_digests"],
          "traced and untraced reports are byte-identical")
    check(traced["trace"]["absent"] == [], "every layer could be wrapped")
    ghost = layers.Tracer()
    layers.LAYERS += (("ghost", "cli", ("no_such_function",)),)
    try:
        ghost.install()
    finally:
        ghost.uninstall()
        layers.LAYERS = layers.LAYERS[:-1]
    check(ghost.absent == ["ghost"], "a layer whose names are missing is reported absent")

    with open(worker.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for kind, metrics in (("end_to_end", run.end_to_end([0.25], [plain], 1, 0)),
                          ("per_layer", run.per_layer([plain], [traced]))):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        got = {k: v["unit"] for k, v in metrics.items()}
        check(got == want, f"{kind} metrics and units match BENCHMARK.json")
        check(all(isinstance(v["value"], (int, float)) for v in metrics.values()),
              f"every {kind} metric has a numeric value")

    def flaky(argv):
        if argv[0] == "explode":
            raise RuntimeError("injected failure")
        return cli.run_command(argv)

    res = worker.run_pass([["explode"]] + OPS[:2], goldens, report_path, flaky)
    check(res["attempted"] == 3 and res["failed"] == 1,
          "an op that raises is counted as failed and the pass goes on")
    wrong = dict(goldens)
    key = workloads.op_key(OPS[0])
    wrong[key] = [wrong[key][0] + 1] + wrong[key][1:]
    res = worker.run_pass(OPS[:2], wrong, report_path, cli.run_command)
    check(res["attempted"] == 2 and res["failed"] == 1,
          "an op whose exit code differs from its golden is counted as failed")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(worker.HERE, bare / worker.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(worker.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{worker.HERE.name}/run.py", "--workload", "wide-levels",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py fails without printing a result where there is no program")


if __name__ == "__main__":
    main()
