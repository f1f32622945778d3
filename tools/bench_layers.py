"""Time dblab's layers and write ``BENCH_<label>.json`` at the repo root.

    python tools/bench_layers.py                       # writes BENCH_layers.json
    python tools/bench_layers.py --label mine
    python tools/bench_layers.py --compare BENCH_layers.json BENCH_mine.json

Each layer row is one layer at one grid size n in {256, 1024, 4096}: the real
FFT pair, ``nonlinear_rhs``, one IFRK4 and one ETDRK4 step, the corrector plan
build and its E1 pairing at each scale above N0, ``modified_energy`` (first
call, with every table and plan cache cleared, and warm), one warm coercivity
search and one snapshot write (to ``os.devnull``: the formatting and the
write calls, without the file system's own spread); plus one Marcinkiewicz
check and the product closure of ``check-multiplier`` (5 pairs of seed 0 at
|beta| <= 3, most of that command's time), which have no grid.
Setup: pure power alpha = 0.9, a ``random_hs`` field with s = 0.45, norm 1
and seed 0, N0 = 8.

A layer row holds the median and the interquartile range (IQR) of its samples
from PROCESSES fresh processes, run one after another, of ROUNDS rounds each;
a round visits every row once.  A sample is the mean of ``loops`` back-to-back
calls (loops grow until a sample takes 2 ms; 1 for a build or a first call,
whose caches are cleared before each untimed).  The BLAS thread count is set
to 1.  The top-level ``peak_rss_mb`` is the largest ``ru_maxrss`` of such a
process.

End to end, one ``e2e_<config>`` row per ``configs/*.json``: its command
(``CONFIG_COMMANDS``) run as ``python -m dblab.cli`` in a fresh subprocess,
imports included, with its output going to a new temporary ``DBL_OUTPUT_DIR``.
The row holds the median and IQR of the wall time over E2E_ROUNDS runs, taken
in rounds that visit every config once, and its own ``peak_rss_mb``, the
largest peak RSS of the child itself (``ru_maxrss`` from ``os.wait4``).  A run
that exits nonzero stops the script.

The file also records the machine, the Python and numpy versions and the git
sha of the checkout whose ``src/`` was imported.  Compare only files taken
back to back: the host drifts by a few percent over minutes.

``--compare OLD NEW`` prints each row's medians and their ratio, and marks
(``*``) a layer row whose medians differ by more than the larger of the two
IQRs.  It marks no ``e2e_*`` row: each file takes all of its ``e2e_*`` rows in
one block, so the host's drift between the two blocks enters every one of
their ratios (0.66-0.76 were read on configs that run no changed code), and
such a ratio supports no claim.  Time a command alone, alternating sides.
Uses the standard library and numpy only.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import json
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dblab import SpectralGrid, pure_power  # noqa: E402
from dblab.cli import _product_closure  # noqa: E402
from dblab.config import make_initial  # noqa: E402
from dblab.dyadic import _cutoff_table, cutoff_table  # noqa: E402
from dblab.energies import coercivity_check, corrector_plan, modified_energy  # noqa: E402
from dblab.multipliers import check_marcinkiewicz, symbol_chi1  # noqa: E402
from dblab.solver import SolverConfig, _rhs_workspace, _to_half, make_stepper, nonlinear_rhs  # noqa: E402
from dblab.spectral import Field, save_field_csv  # noqa: E402

SIZES = (256, 1024, 4096)
ALPHA, S, N0 = 0.9, 0.45, 8.0
MIN_SAMPLE_S = 2e-3
PROCESSES, ROUNDS = 3, 15  # 45 samples a row; one process's IQR misses the drift between processes
E2E_ROUNDS = 10
CONFIG_COMMANDS = {
    "bo_smoke.json": "simulate",
    "whitham_symbol.json": "check-symbol",
    "resonance_bo.json": "check-resonance",
    "multiplier_checks.json": "check-multiplier",
    "energy_coercivity.json": "check-energy",
    "lipschitz_experiment.json": "experiment",
    "convergence.json": "convergence",
}


def _sample(fn, loops: int) -> float:
    t0 = time.perf_counter()
    for _ in range(loops):
        fn()
    return (time.perf_counter() - t0) / loops


def _loops(fn) -> int:
    """Back-to-back calls per sample: doubled until a sample takes MIN_SAMPLE_S."""
    fn()
    loops = 1
    while _sample(fn, loops) * loops < MIN_SAMPLE_S and loops < 4096:
        loops *= 2
    return loops


def _clear_caches():
    corrector_plan.cache_clear()
    _cutoff_table.cache_clear()


def _grid_cases(n: int):
    sym = pure_power(ALPHA)
    grid = SpectralGrid(n)
    u = make_initial(grid, {"kind": "random_hs", "seed": 0, "s": S, "target_norm": 1.0})
    half = _to_half(u)
    x = np.fft.irfft(half, n)
    yield "fft_pair", {}, lambda: np.fft.irfft(np.fft.rfft(x), n), None
    work, out = _rhs_workspace(grid, True), np.empty(n // 3 + 1, dtype=complex)
    yield "nonlinear_rhs", {}, lambda: nonlinear_rhs(grid, half, True, out, work), None
    for scheme in ("ifrk4", "etdrk4"):
        step = make_stepper(grid, sym, SolverConfig(scheme=scheme, dt=1e-4, t_final=1e-4))
        yield f"{scheme}_step", {}, lambda step=step: step(half), None

    def plans_cleared():  # the grid's cutoff rows stay: a plan build reads them
        corrector_plan.cache_clear()
        table = cutoff_table(grid)
        table.tilde, table.lessless

    for N in cutoff_table(grid).ladder.scales:
        plan = corrector_plan(grid, sym, N)
        if N <= N0 or plan.i1.size == 0:
            continue
        extra = {"N": N, "pairs": int(plan.i1.size)}
        yield "plan_build", extra, lambda N=N: corrector_plan(grid, sym, N), plans_cleared
        c = u.coeffs  # E1's pairing: weight w1, the field in every slot
        yield "plan_pairing", extra, lambda plan=plan: plan.pairing(plan.w1, c, c, c), None

    def cold():  # a new grid and field, so no table of `grid` is reused either
        modified_energy(Field(SpectralGrid(n), u.coeffs), sym, S, N0)

    yield "modified_energy_first", {}, cold, _clear_caches
    yield "modified_energy_warm", {}, lambda: modified_energy(u, sym, S, N0), None
    yield "coercivity_check_warm", {}, lambda: coercivity_check(u, sym, S, N0), None
    yield "save_field_csv", {}, lambda: save_field_csv(u, os.devnull), None


def _cases() -> list:
    """(row, fn, setup) per layer.  `setup` runs untimed before each sample of one
    call and clears the caches a build or a first call must not find; without it
    a sample follows one untimed call, which fills the caches a warm layer reads."""
    cases = [({"layer": layer, "n": n, **extra}, fn, setup)
             for n in SIZES for layer, extra, fn, setup in _grid_cases(n)]
    chi = symbol_chi1(64.0, 0.3)
    row = {"layer": "check_marcinkiewicz", "symbol": "chi1 N=64 s=0.3", "box": [1.0, 64.0]}
    closure = {"layer": "product_closure", "pairs": 5, "seed": 0, "beta_max": 3}
    return cases + [(row, lambda: check_marcinkiewicz(chi, [(1.0, 64.0)], 3), None),
                    (closure, lambda: _product_closure(5, 0, 3), None)]


def _worker():
    """Print one process's samples as JSON: every layer once per round, so a slow
    drift of the machine spreads over every row alike."""
    cases = _cases()
    loops = [1 if setup else _loops(fn) for _, fn, setup in cases]
    samples = [[] for _ in cases]
    for _ in range(ROUNDS):
        for (_, fn, setup), k, out in zip(cases, loops, samples):
            (setup or fn)()
            out.append(_sample(fn, k))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"rows": [row for row, _, _ in cases], "loops": loops,
                      "samples": samples, "peak_rss_mb": rss}))


def _rows() -> tuple:
    """Every layer's median and IQR over the samples of PROCESSES fresh processes
    run one after another, so the spread holds their differences too; and the
    largest peak RSS of a process."""
    cmd = [sys.executable, __file__, "--worker"]
    runs = [json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
            for _ in range(PROCESSES)]
    rows = []
    for j, row in enumerate(runs[0]["rows"]):
        times = [t for run in runs for t in run["samples"][j]]
        q1, med, q3 = np.percentile(times, [25, 50, 75])
        rows.append(row | {"median_s": float(med), "iqr_s": float(q3 - q1), "samples": len(times),
                           "loops": [run["loops"][j] for run in runs]})
    return rows, max(run["peak_rss_mb"] for run in runs)


def _run_config(config: Path) -> tuple:
    """(wall s, peak RSS MB) of one command run on `config` in a fresh process."""
    cmd = [sys.executable, "-m", "dblab.cli", CONFIG_COMMANDS[config.name], "--config", str(config)]
    with tempfile.TemporaryDirectory() as out:
        env = os.environ | {"PYTHONPATH": str(ROOT / "src"), "DBL_OUTPUT_DIR": out}
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4: Popen must not wait
    if child.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[2:])} exited {child.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def _e2e_rows() -> list:
    """One row per config: wall-time median and IQR over E2E_ROUNDS rounds, and
    the largest peak RSS of a run."""
    configs = sorted((ROOT / "configs").glob("*.json"))
    runs = {c: [] for c in configs}
    for _ in range(E2E_ROUNDS):
        for c in configs:
            runs[c].append(_run_config(c))
    rows = []
    for c, samples in runs.items():
        q1, med, q3 = np.percentile([t for t, _ in samples], [25, 50, 75])
        rows.append({"layer": f"e2e_{c.stem}", "command": CONFIG_COMMANDS[c.name],
                     "config": f"configs/{c.name}", "median_s": float(med),
                     "iqr_s": float(q3 - q1), "samples": len(samples),
                     "peak_rss_mb": max(rss for _, rss in samples)})
    return rows


def _git_sha() -> str:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no", "--", "src", "tools").stdout
    return head.stdout.strip() + ("-dirty" if dirty.strip() else "")


def _machine() -> dict:
    info = {"system": platform.system(), "release": platform.release(),
            "machine": platform.machine(), "cpus": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        info["cpu"] = models[0] if models else platform.processor()
    except OSError:
        info["cpu"] = platform.processor()
    return info


def _key(row) -> tuple:
    return row["layer"], row.get("n"), row.get("N")


def compare(old_path, new_path):
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    before = {_key(r): r for r in old["rows"]}
    print(f"{'layer':<24}{'n':>6}{'N':>7}{'old ms':>11}{'new ms':>11}{'new/old':>9}")
    for r in new["rows"]:
        o = before.get(_key(r))
        if o is None:
            continue
        a, b = o["median_s"], r["median_s"]
        e2e = r["layer"].startswith("e2e_")
        mark = "*" if not e2e and abs(b - a) > max(o["iqr_s"], r["iqr_s"]) else ""
        n, N = r.get("n", ""), f"{r['N']:g}" if "N" in r else ""
        print(f"{r['layer']:<24}{n!s:>6}{N:>7}{a * 1e3:>11.4f}{b * 1e3:>11.4f}{b / a:>9.3f} {mark}")
    print("e2e_* rows: each file took them in one separate block, so host drift enters "
          "their ratios; they are never marked and support no claim.")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", default="layers", help="writes BENCH_<label>.json at the repo root")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.worker:
        return _worker()
    rows, rss = _rows()
    rows += _e2e_rows()
    report = {
        "label": args.label,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": _machine(),
        "blas_threads": 1,
        "setup": {"symbol": f"pure_power({ALPHA})", "field": f"random_hs s={S} norm=1 seed=0",
                  "n0": N0, "sizes": list(SIZES)},
        "rows": rows,
        "peak_rss_mb": rss,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
