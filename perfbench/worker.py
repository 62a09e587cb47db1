"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|plain|traced

Prints one JSON line: the set-up time (importing ``macposet.cli`` and
building its parser), unless ``--mode setup`` the per-op times, the
golden check, the replay of found orders and, with ``--mode traced``,
the per-layer trace, and last the calibration probe's time that run.py
scales the times by.  Ops run through ``macposet.cli.run_command`` and
write their report to a scratch file, as a user's ``--report`` does.
"""

import statistics
import sys
import time
from pathlib import Path


def _probe():
    """A fixed mix of the work the program does: an interpreter loop,
    allocation of many small objects, and small-array numpy calls shaped
    like the subset-enumeration kernel."""
    import numpy as np
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    table = {(i, i ^ 0x55): (i, str(i)) for i in range(10_000)}
    acc += len(sorted(table.items(), key=lambda kv: kv[1][1]))
    masks = np.arange(1, 4097, dtype=np.uint64) * np.uint64(2654435761)
    sizes = np.bitwise_count(np.arange(4096, dtype=np.uint64)).astype(np.int64)
    for k in range(16):
        counts = np.bitwise_count(masks | np.uint64(k)).astype(np.int64)
        cards = sizes + (k & 3)
        for c in np.unique(cards):
            acc += int(counts[cards == c].min())
    return acc


def calibrate():
    """Median time of ``_probe`` over five runs, in seconds.

    The CPU speed a process gets on a shared machine swings by tens of
    percent within a minute, and differently for each kind of work.  A
    worker runs this last, after its peak RSS is read, and run.py scales
    the worker's times by it.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _probe()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_program():
    """Import ``macposet.cli`` from this checkout's ``src`` and build the
    parser; raise ImportError if the checkout holds no program."""
    if not (SRC / "macposet" / "cli.py").is_file():
        raise ImportError(f"no macposet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import macposet.cli
    macposet.cli.build_parser()
    if Path(macposet.__file__).resolve().parent != SRC / "macposet":
        raise ImportError(f"imported macposet from {macposet.__file__}, not {SRC}")
    return macposet.cli


if __name__ == "__main__":
    _T0 = time.perf_counter()
    _CLI = import_program()
    SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

GOLDENS = HERE / "goldens.json"
# work counters: left out when comparing a report with its golden
COUNTERS = frozenset(("search_nodes", "subsets_enumerated", "nodes", "subsets"))


def strip_counters(obj):
    if isinstance(obj, dict):
        return {k: strip_counters(v) for k, v in obj.items() if k not in COUNTERS}
    if isinstance(obj, list):
        return [strip_counters(v) for v in obj]
    return obj


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def outcome(code, report_bytes):
    """(exit code, digest without counters, digest of the exact bytes, verdict)."""
    if report_bytes is None:
        return [code, None, None, None]
    report = json.loads(report_bytes)
    stripped = json.dumps(strip_counters(report), sort_keys=True).encode()
    return [code, sha(stripped), sha(report_bytes), report.get("verdict")]


def run_op(run_command, argv, report_path):
    """Run one op; returns (seconds, exit code or None, report bytes or
    None, error text or None).  Only the call itself is timed."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(report_path)
    sink = io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            code = run_command(list(argv) + ["--report", report_path])
        except Exception:  # an uncaught exception is a failed op, not a failed run
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
    try:
        with open(report_path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = None
    return dt, code, data, error


def replay_found(argv, report_bytes) -> bool:
    """Re-check a found order with check_macaulay, through public APIs."""
    from macposet.expr import evaluate, parse_expression
    from macposet.macaulay import check_macaulay
    from macposet.orders import order_from_lists
    try:
        poset = evaluate(parse_expression(argv[1])).poset
        lists = json.loads(report_bytes)["grid"]["order"]
        return check_macaulay(poset, order_from_lists(poset, lists)).ok
    except Exception:  # a malformed order is a failed replay
        return False


def run_pass(op_list, goldens, report_path, run_command, tracer=None):
    """Time every op of one pass, then check it against the goldens."""
    if tracer is not None:
        tracer.install()
    try:
        results = [run_op(run_command, argv, report_path) for argv in op_list]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures, failed_ops, identical, verdicts, digests = [], set(), 0, {}, []
    replayed = 0

    def fail(i, argv, why):
        failed_ops.add(i)
        failures.append({"op": argv[:2], "error": why})

    for i, (argv, (dt, code, data, error)) in enumerate(zip(op_list, results)):
        try:
            got = outcome(code, data)
        except ValueError:
            got = [code, None, None, None]
            error = error or "report is not valid JSON"
        want = goldens.get(workloads.op_key(argv))
        digests.append(got[2])
        verdicts[str(got[3])] = verdicts.get(str(got[3]), 0) + 1
        if error is not None:
            fail(i, argv, error)
            continue
        if want is None:
            fail(i, argv, "no golden recorded")
        elif got[:2] != want[:2]:
            fail(i, argv, f"got {got}, golden {want}")
        else:
            identical += got[2] == want[2]
        if got[3] == "found" and argv[0] == "search-order":
            replayed += 1
            if not replay_found(argv, data):
                fail(i, argv, "found order fails check_macaulay")
    out = {"pass_s": sum(r[0] for r in results), "op_s": [r[0] for r in results],
           "rss_mb": rss_mb, "attempted": len(op_list), "failed": len(failed_ops),
           "failures": failures[:5], "identical": identical, "verdicts": verdicts,
           "replayed": replayed, "report_digests": digests}
    if tracer is not None:
        out["trace"] = tracer.summary()
    return out


def environment():
    """Where the numbers were measured, and which kernel path ran."""
    import importlib.util

    import numpy
    from macposet import kernels
    backend = getattr(kernels, "backend", None)
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            # programs with a single kernel have no backend switch
            "kernel_path": backend() if callable(backend) else "single"}


def load_goldens():
    with open(GOLDENS) as fh:
        return json.load(fh)["ops"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    ap.add_argument("--report-path", required=True)
    args = ap.parse_args()
    out = {"setup_s": SETUP_S}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            import layers
            tracer = layers.Tracer()
        op_list = workloads.ops(args.workload, args.seed)
        out.update(run_pass(op_list, load_goldens(), args.report_path,
                            _CLI.run_command, tracer))
        out["env"] = environment()
    out["calibration_s"] = calibrate()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
