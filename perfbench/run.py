"""dblab benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload for about S seconds.  Each round is a
fresh worker process (`worker.py`), so no cache or allocation carries over
from one round to the next, just as none carries over between two `dblab`
invocations.  The last line of standard output is one JSON object:

* `--trace 0`: the end-to-end metrics (`run_s`, `cpu_s`, `setup_s`,
  `peak_rss_mb`), each the median over the rounds;
* `--trace 1`: rounds alternate untraced and traced; the per-layer metrics
  are medians over the traced rounds, and `trace.overhead_s` is the traced
  minus the untraced median of `run_s`.

Exit code 0 when every output check passed, 1 when one failed, 2 when the
checkout has no dblab sources, 3 when a worker crashed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("diag_run", "stepping", "coercivity_sweep", "marcinkiewicz")
END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RUN_LIMIT_S = 170.0   # a run must end within 180 s


def _round(workload, seed, out, trace_to, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--out", out]
    if trace_to:
        cmd += ["--trace-to", trace_to]
    env = dict(os.environ)
    # one single-threaded process per workload
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dblab", "cli.py")):
        print(f"no dblab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    out = os.path.join(HERE, "out", args.workload)
    summary = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    trace_dir = os.path.join(HERE, "trace")
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
    rounds = []
    min_rounds = 2 if args.trace else 1
    while True:
        shutil.rmtree(out, ignore_errors=True)
        traced = bool(args.trace) and len(rounds) % 2 == 1
        trace_to = (os.path.join(trace_dir, f"{args.workload}-seed{args.seed}-round{len(rounds)}.csv")
                    if traced else None)
        began = time.perf_counter()
        try:
            res = _round(args.workload, args.seed, out, trace_to,
                         timeout=max(10.0, RUN_LIMIT_S - (began - start)))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
            print(f"{args.workload}: round {len(rounds)} failed: {e}", file=sys.stderr)
            return 3
        res["traced"] = traced
        rounds.append(res)
        now = time.perf_counter()
        if len(rounds) >= min_rounds and now - start + (now - began) > args.seconds:
            break

    with open(summary, "w") as fh:
        json.dump(rounds, fh, indent=1)
    correct = all(r["errors"] == 0 for r in rounds)
    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        names = list(traced[0]["layers"])
        metrics = {}
        for name in names:
            stat = name.rsplit(".", 1)[1]
            metrics[name] = {"value": statistics.median(r["layers"][name] for r in traced),
                             "unit": "count" if stat in ("calls", "entries") else "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["run_s"] for r in traced)
            - statistics.median(r["run_s"] for r in plain),
            "unit": "s",
        }
        missing = sorted({m for r in traced for m in r["missing"]})
        with open(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"missing": missing, "metrics": metrics}, fh, indent=1)
        if missing:
            print(f"{args.workload}: missing trace targets (reported as 0): {missing}", file=sys.stderr)
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"{args.workload}: {len(rounds)} rounds in {time.perf_counter() - start:.1f} s, "
          f"correct={correct}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
