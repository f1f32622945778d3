"""One round of one workload in a fresh process.

Sets up (imports numpy and dblab, writes the workload's configs), runs the
workload's CLI calls in-process through `dblab.cli.cli_dispatch`, reads the
peak RSS, then checks the outputs.  Prints one JSON line with the round's
measurements.  `run.py` starts one of these per round.

    python3 perfbench/worker.py --workload W --seed S --out DIR [--trace-to FILE]
"""

import time

T_ENTRY = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-to", default=None, help="write spans here and report layer metrics")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import dblab.cli

    if not os.path.abspath(dblab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported dblab from {dblab.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    params, calls = workload.prepare(args.seed, args.out)
    setup_s = time.perf_counter() - T_ENTRY

    tracer = None
    if args.trace_to:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    codes = []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        for call in calls:
            codes.append(dblab.cli.cli_dispatch(call))
    run_s = time.perf_counter() - t0
    cpu_s = _cpu() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers, missing = None, []
    if tracer is not None:
        tracer.uninstall()
        layers, missing = tracer.summary(), tracer.missing
        tracer.write(args.trace_to)

    failed = sum(1 for c in codes if c != 0)
    try:
        errors = workload.check(params) if failed == 0 else []
    except Exception:  # a crash in a check is a failed check, reported with its traceback
        errors = ["check raised:\n" + traceback.format_exc()]
    for e in errors:
        print(f"{args.workload}: CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({
        "run_s": run_s, "cpu_s": cpu_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
        "attempted": len(codes), "failed": failed, "errors": len(errors),
        "layers": layers, "missing": missing,
    }))


if __name__ == "__main__":
    main()
