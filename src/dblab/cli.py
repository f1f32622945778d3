"""Command-line entry point.

Subcommands (all numeric parameters live in a JSON config; flags only pick
the subcommand and paths):

    dblab simulate        --config run.json
    dblab check-symbol    --config sym.json
    dblab check-resonance --config res.json
    dblab check-multiplier --config mult.json
    dblab check-energy    --config energy.json
    dblab experiment      --config exp.json
    dblab convergence     --config conv.json

Exit codes: 0 success, 1 configuration error (malformed JSON reports
line/column) or a symbol value that is not finite, 2 failed check (the named
property is printed; a blow-up before t_final is reported as one).  Every
command resolves its config once and echoes it to <output.dir>/spec.json
before it runs.  output.dir is echoed as given (DBL_OUTPUT_DIR sets the root
of a relative one), so a re-run from the echo under the same DBL_OUTPUT_DIR
writes the same directory and reproduces its outputs byte-exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .config import COMMANDS, check_keys, make_initial, make_symbol
from .energies import check_sigma, coercivity_check, difference_coercivity_check, modified_energy
from .errors import BlowUpError, ConfigurationError, DomainError, EvaluationError
from .experiments import run_experiment, write_csv
from .multipliers import (
    check_marcinkiewicz,
    symbol_chi1,
    symbol_chi1_over_omega2,
    tensor_cutoff_symbol,
    MultiplierSymbol,
)
from .resonance import omega2 as _omega2, verify_res2, verify_res3
from .solver import RunWriter, SolverConfig, self_convergence, trajectory
from .spectral import SpectralGrid
from .symbols import check_hypothesis1

__all__ = ["main", "cli_dispatch"]


class CheckFailure(Exception):
    """A named assertable property failed (exit code 2)."""


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigurationError(
            f"{path}: malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        )


def _echo(r: dict) -> str:
    """Write the resolved config to <output.dir>/spec.json (no other code writes a
    spec.json); returns that directory, under DBL_OUTPUT_DIR if relative."""
    outdir = os.path.join(os.environ.get("DBL_OUTPUT_DIR", "."), r["output"]["dir"])
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "spec.json"), "w") as fh:
        json.dump(r, fh, indent=2, sort_keys=True, default=float)
    return outdir


# -- subcommands (each takes its config resolved against config.COMMANDS) ----------

_SIMULATE_COLUMNS = ("t", "mass", "hamiltonian", "hs_norm", "modified_energy",
                     "corrector_share", "guard_skips")


def _cmd_simulate(r: dict) -> int:
    sym = make_symbol(r["equation"])
    grid = SpectralGrid(**r["grid"])
    u0 = make_initial(grid, r["initial"])
    scfg = SolverConfig(**r["time"])
    diag = r["diagnostics"]
    outdir = _echo(r)
    writer = RunWriter(outdir) if r["output"]["snapshots"] else None

    def rows():
        # one record at a time: each is written, and every diag["every"]-th
        # diagnosed, as it arrives
        for i, (t, f) in enumerate(trajectory(u0, sym, scfg)):
            if writer is not None:
                writer.snapshot(t, f)
            if i % diag["every"] == 0:
                rep = modified_energy(f, sym, diag["s"], diag["n0"], t=t)
                if writer is not None:
                    writer.report(rep)
                yield dict(zip(_SIMULATE_COLUMNS, (rep.t, rep.mass, rep.hamiltonian, rep.hs_norm,
                                                   rep.modified, rep.corrector_share,
                                                   rep.guard_skips)))

    count = write_csv(os.path.join(outdir, "results.csv"), _SIMULATE_COLUMNS, rows())
    print(f"simulate: wrote {count} report rows to {outdir}")
    return 0


def _cmd_check_symbol(r: dict) -> int:
    sym = make_symbol(r["equation"])
    rng = r["range"]
    outdir = _echo(r)
    rep = check_hypothesis1(sym, (rng["lo"], rng["hi"]), rng["beta_max"])
    with open(os.path.join(outdir, "hypothesis_report.json"), "w") as fh:
        fh.write(rep.to_json() + "\n")
    print(f"check-symbol: {sym.kind} alpha={sym.alpha} all_pass={rep.all_pass}")
    if not rep.all_pass:
        failing = [f"beta={b}" for b, ok in rep.passes.items() if not ok]
        if not rep.hyp2_pass:
            failing.append("hyp2")
        raise CheckFailure("hypothesis ratios outside window: " + ", ".join(failing))
    return 0


def _cmd_check_resonance(r: dict) -> int:
    sym = make_symbol(r["equation"])
    res = r["resonance"]
    outdir = _echo(r)
    if res["order"] == 2:
        rep = verify_res2(sym, res["n_samples"], (res["scale_lo"], res["scale_hi"]), res["seed"])
    else:
        rep = verify_res3(
            sym, res["n_samples"], (res["scale_lo"], res["scale_hi"]),
            res["separation"], res["seed"],
        )
    with open(os.path.join(outdir, "resonance_report.json"), "w") as fh:
        fh.write(rep.to_json() + "\n")
    print(
        f"check-resonance: order={res['order']} ratio in "
        f"[{rep.ratio_min:.4g}, {rep.ratio_max:.4g}] spread={rep.spread:.4g}"
    )
    if rep.spread > res["max_spread"]:
        raise CheckFailure(
            f"resonance comparability spread {rep.spread:.4g} exceeds {res['max_spread']}"
        )
    return 0


def _cmd_check_multiplier(r: dict) -> int:
    sym = make_symbol(r["equation"])
    mc = r["multiplier"]
    outdir = _echo(r)
    N, s = mc["n"], mc["s"]
    asserted = {}
    tensor = tensor_cutoff_symbol((mc["n1"], mc["n2"]))
    asserted["tensor"] = check_marcinkiewicz(tensor, [(mc["n1"], mc["n2"])], mc["beta_max"])
    quotient = MultiplierSymbol(
        2,
        lambda x1, x2: mc["n1"] * np.abs(x2) ** sym.alpha / _omega2(sym, x1, x2),
        "resonance_quotient",
    )
    asserted["resonance_quotient"] = check_marcinkiewicz(
        quotient, [(mc["n1"], mc["n2"])], mc["beta_max"]
    )
    ratio = symbol_chi1_over_omega2(sym, N, s)
    normalized = MultiplierSymbol(
        2,
        lambda x1, x2, _r=ratio: 1.0 * N**sym.alpha * _r.evaluate(x1, x2),
        f"normalized_chi1_over_omega2[N={N:g}]",
        support=ratio.support,
    )
    # the corrector-dressed symbol is asserted at |beta| <= 2 on the declared
    # (1, N) band; the |beta| = 3 bump-product values exceed the fixed window
    # by construction and are reported only (see README).  One check gives
    # both tables: each entry depends on its beta alone.
    dressed = check_marcinkiewicz(normalized, [(1.0, N)], max(mc["beta_max"], 2))
    asserted["chi1_over_omega2_beta2"] = dressed.up_to(2)
    reported = {
        "chi1": check_marcinkiewicz(symbol_chi1(N, s), [(1.0, N)], mc["beta_max"]),
        "chi1_over_omega2_beta3": dressed.up_to(mc["beta_max"]),
    }
    closure_ok = _product_closure(mc["pairs"], mc["pairs_seed"], mc["beta_max"])
    payload = {k: json.loads(r.to_json()) for k, r in asserted.items()}
    payload["reported_only"] = {k: json.loads(r.to_json()) for k, r in reported.items()}
    payload["product_closure_pass"] = closure_ok
    with open(os.path.join(outdir, "marcinkiewicz_report.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
    failures = [k for k, r in asserted.items() if not r.passes]
    if not closure_ok:
        failures.append("product_closure")
    print(f"check-multiplier: failures={failures or 'none'}")
    if failures:
        raise CheckFailure("marcinkiewicz failures: " + ", ".join(failures))
    return 0


def _random_smooth_symbol(rng) -> MultiplierSymbol:
    """A random band symbol with comfortable Marcinkiewicz constants."""
    c = rng.uniform(0.2, 1.0)
    w1 = rng.uniform(1.0, 2.0)
    w2 = rng.uniform(1.0, 2.0)
    m1 = rng.uniform(2.0, 64.0)
    m2 = rng.uniform(2.0, 64.0)

    def ev(x1, x2):
        l1 = np.log(np.abs(np.asarray(x1, dtype=float)) / m1)
        l2 = np.log(np.abs(np.asarray(x2, dtype=float)) / m2)
        return c * np.exp(-(l1 / w1) ** 2 - (l2 / w2) ** 2)

    return MultiplierSymbol(2, ev, f"smooth_band(c={c:.6g}, w=({w1:.6g}, {w2:.6g}), "
                                   f"m=({m1:.6g}, {m2:.6g}))")


def _closure_stack(a: MultiplierSymbol, b: MultiplierSymbol) -> MultiplierSymbol:
    """The stack (a, b, a*b) as one symbol of (3, L) values: a and b are evaluated
    once per call and a*b is the product of their values."""

    def ev(x1, x2):
        va, vb = a.evaluate(x1, x2), b.evaluate(x1, x2)
        vals = np.empty((3, *np.broadcast(x1, x2).shape), dtype=np.result_type(va, vb))
        vals[0], vals[1] = va, vb
        np.multiply(vals[0], vals[1], out=vals[2])
        return vals

    return MultiplierSymbol(2, ev, f"(a, b, a*b) for a = {a.name}, b = {b.name}")


def _product_closure(pairs: int, seed: int, beta_max: int) -> bool:
    """Random pairs of smooth band symbols a, b: a, b and a*b all pass, checked
    as one stack per pair, named by its pair number (1 to `pairs`) and the drawn
    parameters.  Stops at the first failing pair."""
    rng = np.random.default_rng(seed)
    boxes = [(4.0, 32.0), (8.0, 64.0)]
    for i in range(1, pairs + 1):
        stack = _closure_stack(_random_smooth_symbol(rng), _random_smooth_symbol(rng))
        stack = replace(stack, name=f"product closure pair {i} of {pairs}: {stack.name}")
        if not check_marcinkiewicz(stack, boxes, beta_max).passes:
            return False
    return True


def _cmd_check_energy(r: dict) -> int:
    sym = make_symbol(r["equation"])
    grid = SpectralGrid(**r["grid"])
    en = r["energy"]
    if en["difference"]:
        check_sigma(sym.alpha, en["s"], en["sigma"])
    outdir = _echo(r)

    def field(seed):
        recipe = {"kind": "random_hs", "seed": seed, "s": en["s"], "target_norm": en["target_norm"]}
        return make_initial(grid, recipe)

    results = []
    ok = True
    for i in range(en["fields"]):
        u = field(en["seed"] + i)
        res = coercivity_check(u, sym, en["s"], en["n0"])
        row = {"field": i, "plain": json.loads(res.to_json())}
        ok &= res.passed
        if en["difference"]:
            w = field(en["seed"] + 1000 + i)
            dres = difference_coercivity_check(u, w, sym, en["sigma"], en["n0"])
            row["difference"] = json.loads(dres.to_json())
            ok &= dres.passed
        results.append(row)
        row["modified_energy"] = res.energy.modified
        row["corrector_share"] = res.energy.corrector_share
    with open(os.path.join(outdir, "coercivity_report.json"), "w") as fh:
        json.dump(results, fh, indent=2)
    print(f"check-energy: {en['fields']} fields, all_pass={ok}")
    if not ok:
        raise CheckFailure("coercivity doubling search failed for some field")
    return 0


def _cmd_experiment(r: dict) -> int:
    outdir = _echo(r)
    summary = run_experiment(r["experiment"], outdir)
    failed = [k for k, v in summary.items() if k.startswith("pass_") and v is False]
    print(f"experiment {summary['experiment']}: wrote {outdir}; failed={failed or 'none'}")
    if failed:
        raise CheckFailure("experiment checks failed: " + ", ".join(failed))
    return 0


def _cmd_convergence(r: dict) -> int:
    sym = make_symbol(r["equation"])
    grid = SpectralGrid(**r["grid"])
    u0 = make_initial(grid, r["initial"])
    cv = r["convergence"]
    scfg = SolverConfig(scheme=cv["scheme"], dt=min(cv["dts"]), t_final=cv["t_final"])
    outdir = _echo(r)
    res = self_convergence(u0, sym, scfg, cv["dts"])
    write_csv(
        os.path.join(outdir, "results.csv"), ["dt", "error"],
        [{"dt": dt, "error": err} for dt, err in zip(res["dts"], res["errors"])],
    )
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(res, fh, indent=2, allow_nan=False)
    lo, hi = cv["slope_window"]
    slope = "undefined" if res["slope"] is None else f"{res['slope']:.3f}"
    print(f"convergence: slope = {slope} (window [{lo}, {hi}])")
    if res["slope"] is None or not (lo <= res["slope"] <= hi):
        raise CheckFailure(f"temporal order {slope} outside [{lo}, {hi}]")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "check-symbol": _cmd_check_symbol,
    "check-resonance": _cmd_check_resonance,
    "check-multiplier": _cmd_check_multiplier,
    "check-energy": _cmd_check_energy,
    "experiment": _cmd_experiment,
    "convergence": _cmd_convergence,
}


def cli_dispatch(argv) -> int:
    parser = argparse.ArgumentParser(prog="dblab", description=__doc__)
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        resolved = check_keys(_load_config(ns.config), COMMANDS[ns.command], "top level")
        return _COMMANDS[ns.command](resolved)
    except (ConfigurationError, DomainError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    except EvaluationError as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return 1
    except CheckFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 2
    except BlowUpError as e:
        print(f"check failed: blow-up before t_final (at t = {e.time})", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
