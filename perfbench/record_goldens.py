"""Record the goldens every benchmark op is checked against.

    python3 perfbench/record_goldens.py

Runs every op any seed can produce (all reproduce targets, the
wide-levels ops and the whole random-search pool) once, in one process,
and writes ``goldens.json``: per op its exit code, a digest of its report
without the work counters, a digest of the exact report bytes and the
verdict.  Run it only at a commit whose outputs are known to be right.
"""

import json
import sys

import worker
import workloads


def main():
    cli = worker.import_program()
    report_path = str(worker.ROOT / ".bench_work" / "golden-report.json")
    worker.ROOT.joinpath(".bench_work").mkdir(exist_ok=True)
    goldens = {}
    for argv in workloads.all_golden_ops():
        _, code, data, error = worker.run_op(cli.run_command, argv, report_path)
        if error is not None:
            sys.exit(f"op {argv[:2]} raised:\n{error}")
        goldens[workloads.op_key(argv)] = worker.outcome(code, data)
    with open(worker.GOLDENS, "w") as fh:
        json.dump({"ops": goldens}, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"recorded {len(goldens)} goldens in {worker.GOLDENS}")


if __name__ == "__main__":
    main()
