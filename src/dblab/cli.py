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
line/column), 2 failed check (the named property is printed).  Every run
echoes its fully resolved config to <output.dir>/spec.json; re-running from
the echo reproduces outputs byte-exactly.  DBL_OUTPUT_DIR sets the default
output root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .energies import (
    check_sigma,
    coercivity_check,
    difference_coercivity_check,
    modified_energy,
)
from .errors import ConfigurationError, DomainError
from .experiments import ExperimentSpec, make_initial, make_symbol, run_experiment
from .multipliers import (
    check_marcinkiewicz,
    symbol_chi1,
    symbol_chi1_over_omega2,
    symbol_product,
    tensor_cutoff_symbol,
    MultiplierSymbol,
)
from .resonance import omega2 as _omega2, verify_res2, verify_res3
from .solver import RunWriter, SolverConfig, run, self_convergence
from .spectral import SpectralGrid
from .symbols import check_hypothesis1

__all__ = ["main", "cli_dispatch"]


class CheckFailure(Exception):
    """A named assertable property failed (exit code 2)."""


def _output_root() -> str:
    return os.environ.get("DBL_OUTPUT_DIR", ".")


def _resolve_outdir(cfg_output: dict) -> str:
    d = cfg_output.get("dir", "out")
    return d if os.path.isabs(d) else os.path.join(_output_root(), d)


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


def _check_keys(section: dict, allowed: dict, where: str) -> dict:
    """Validate one config section: reject unknown keys, fill defaults.

    ``allowed`` maps key -> (default or REQUIRED, caster)."""
    out = {}
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigurationError(f"{where}: unknown key(s) {sorted(unknown)}")
    for key, (default, cast) in allowed.items():
        if key in section:
            try:
                out[key] = cast(section[key]) if cast is not None else section[key]
            except (TypeError, ValueError) as e:
                raise ConfigurationError(f"{where}.{key}: {e}")
        elif default is _REQ:
            raise ConfigurationError(f"{where}: missing required key {key!r}")
        else:
            out[key] = default
    return out


_REQ = object()
_ID = None


def _positive(x):
    v = float(x)
    if v <= 0:
        raise ValueError(f"must be positive, got {v}")
    return v


def _posint(x):
    v = int(x)
    if v <= 0:
        raise ValueError(f"must be a positive integer, got {v}")
    return v


def _equation(cfg, where="equation"):
    eq = _check_keys(
        cfg.get("equation", {}),
        {"type": ("pure_power", str), "alpha": (None, float), "tau": (1.0, _positive)},
        where,
    )
    # whitham/ilw carry fixed dispersion strengths; pure_power needs alpha
    if eq["type"] == "pure_power" and eq["alpha"] is None:
        raise ConfigurationError(f"{where}: missing required key 'alpha' for pure_power")
    if eq["alpha"] is None:
        eq["alpha"] = {"whitham": 0.5, "ilw": 1.0}.get(eq["type"], 1.0)
    return eq, make_symbol(eq)


def _grid(cfg):
    g = _check_keys(
        cfg.get("grid", {}),
        {"n": (256, _posint), "length": (2.0 * np.pi, _positive)},
        "grid",
    )
    return g, SpectralGrid(g["n"], g["length"])


def _echo(outdir: str, resolved: dict):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "spec.json"), "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True, default=float)


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


# -- subcommands -----------------------------------------------------------------

def _cmd_simulate(cfg: dict) -> int:
    eq, sym = _equation(cfg)
    g, grid = _grid(cfg)
    tm = _check_keys(
        cfg.get("time", {}),
        {
            "scheme": ("ifrk4", str),
            "dt": (1e-3, _positive),
            "t_final": (1.0, _positive),
            "record_every": (10, _posint),
            "dealias": (True, bool),
            "nonlinear": (True, bool),
        },
        "time",
    )
    init = cfg.get("initial", {"kind": "cosine", "amplitude": 0.1, "mode": 1})
    diag = _check_keys(
        cfg.get("diagnostics", {}),
        {
            "s": (0.0, float),
            "sigma": (-0.2, float),
            "n0": (64.0, _positive),
            "b": (0.0, float),
            "every": (1, _posint),
        },
        "diagnostics",
    )
    out = _check_keys(
        cfg.get("output", {}),
        {"dir": ("out", str), "snapshots": (False, bool)},
        "output",
    )
    known = {"equation", "grid", "time", "initial", "diagnostics", "output"}
    unknown = set(cfg) - known
    if unknown:
        raise ConfigurationError(f"top level: unknown key(s) {sorted(unknown)}")

    outdir = _resolve_outdir(out)
    resolved = {
        "equation": eq, "grid": g, "time": tm, "initial": init,
        "diagnostics": diag, "output": out,
    }
    _echo(outdir, resolved)
    u0 = make_initial(grid, init)
    scfg = SolverConfig(
        scheme=tm["scheme"], dt=tm["dt"], t_final=tm["t_final"],
        record_every=tm["record_every"], dealias=tm["dealias"], nonlinear=tm["nonlinear"],
    )
    writer = RunWriter(outdir) if out["snapshots"] else None
    result = run(
        u0, sym, scfg, diag_s=diag["s"], diag_n0=diag["n0"],
        diag_every=diag["every"], writer=writer,
    )
    cols = ["t", "mass", "hamiltonian", "hs_norm", "modified_energy",
            "corrector_share", "guard_skips"]
    with open(os.path.join(outdir, "results.csv"), "w") as fh:
        fh.write(",".join(cols) + "\n")
        for rep in result.reports:
            fh.write(",".join(_fmt(v) for v in (
                rep.t, rep.mass, rep.hamiltonian, rep.hs_norm,
                rep.modified, rep.corrector_share, rep.guard_skips,
            )) + "\n")
    if result.blown_up:
        print(f"simulate: blow-up at t = {result.blowup['time']}", file=sys.stderr)
        raise CheckFailure("blow-up before t_final")
    print(f"simulate: wrote {len(result.reports)} report rows to {outdir}")
    return 0


def _cmd_check_symbol(cfg: dict) -> int:
    eq, sym = _equation(cfg)
    rng = _check_keys(
        cfg.get("range", {}),
        {"lo": (2.0, _positive), "hi": (100.0, _positive), "beta_max": (3, _posint)},
        "range",
    )
    out = _check_keys(cfg.get("output", {}), {"dir": ("out", str)}, "output")
    unknown = set(cfg) - {"equation", "range", "output"}
    if unknown:
        raise ConfigurationError(f"top level: unknown key(s) {sorted(unknown)}")
    outdir = _resolve_outdir(out)
    _echo(outdir, {"equation": eq, "range": rng, "output": out})
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


def _cmd_check_resonance(cfg: dict) -> int:
    eq, sym = _equation(cfg)
    res = _check_keys(
        cfg.get("resonance", {}),
        {
            "order": (2, _posint),
            "n_samples": (10**5, _posint),
            "scale_lo": (1.0, _positive),
            "scale_hi": (1e3, _positive),
            "separation": (32.0, _positive),
            "seed": (0, int),
            "max_spread": (_REQ, _positive),
        },
        "resonance",
    )
    out = _check_keys(cfg.get("output", {}), {"dir": ("out", str)}, "output")
    unknown = set(cfg) - {"equation", "resonance", "output"}
    if unknown:
        raise ConfigurationError(f"top level: unknown key(s) {sorted(unknown)}")
    outdir = _resolve_outdir(out)
    _echo(outdir, {"equation": eq, "resonance": res, "output": out})
    if res["order"] == 2:
        rep = verify_res2(sym, res["n_samples"], (res["scale_lo"], res["scale_hi"]), res["seed"])
    elif res["order"] == 3:
        rep = verify_res3(
            sym, res["n_samples"], (res["scale_lo"], res["scale_hi"]),
            res["separation"], res["seed"],
        )
    else:
        raise ConfigurationError(f"resonance.order must be 2 or 3, got {res['order']}")
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


def _cmd_check_multiplier(cfg: dict) -> int:
    eq, sym = _equation(cfg)
    mc = _check_keys(
        cfg.get("multiplier", {}),
        {
            "n": (64.0, _positive),
            "s": (0.3, float),
            "n1": (2.0, _positive),
            "n2": (64.0, _positive),
            "beta_max": (3, _posint),
            "pairs_seed": (0, int),
            "pairs": (5, _posint),
        },
        "multiplier",
    )
    out = _check_keys(cfg.get("output", {}), {"dir": ("out", str)}, "output")
    unknown = set(cfg) - {"equation", "multiplier", "output"}
    if unknown:
        raise ConfigurationError(f"top level: unknown key(s) {sorted(unknown)}")
    outdir = _resolve_outdir(out)
    _echo(outdir, {"equation": eq, "multiplier": mc, "output": out})
    N, s = mc["n"], mc["s"]
    asserted = {}
    tensor = tensor_cutoff_symbol((mc["n1"], mc["n2"]))
    asserted["tensor"] = check_marcinkiewicz(tensor, [(mc["n1"], mc["n2"])], mc["beta_max"])
    quotient = MultiplierSymbol(
        2,
        lambda x1, x2: (mc["n1"] * np.abs(x2) ** sym.alpha / _omega2(sym, x1, x2)).astype(complex),
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
    # by construction and are reported only (see README)
    asserted["chi1_over_omega2_beta2"] = check_marcinkiewicz(normalized, [(1.0, N)], 2)
    reported = {
        "chi1": check_marcinkiewicz(symbol_chi1(N, s), [(1.0, N)], mc["beta_max"]),
        "chi1_over_omega2_beta3": check_marcinkiewicz(normalized, [(1.0, N)], mc["beta_max"]),
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
        return c * np.exp(-(l1 / w1) ** 2 - (l2 / w2) ** 2).astype(complex)

    return MultiplierSymbol(2, ev, "smooth_band")


def _product_closure(pairs: int, seed: int, beta_max: int) -> bool:
    rng = np.random.default_rng(seed)
    boxes = [(4.0, 32.0), (8.0, 64.0)]
    for _ in range(pairs):
        a = _random_smooth_symbol(rng)
        b = _random_smooth_symbol(rng)
        ra = check_marcinkiewicz(a, boxes, beta_max)
        rb = check_marcinkiewicz(b, boxes, beta_max)
        rab = check_marcinkiewicz(symbol_product(a, b), boxes, beta_max)
        if not (ra.passes and rb.passes and rab.passes):
            return False
    return True


def _cmd_check_energy(cfg: dict) -> int:
    eq, sym = _equation(cfg)
    g, grid = _grid(cfg)
    en = _check_keys(
        cfg.get("energy", {}),
        {
            "s": (0.3, float),
            "sigma": (-0.2, float),
            "n0": (64.0, _positive),
            "fields": (10, _posint),
            "seed": (0, int),
            "target_norm": (1.0, _positive),
            "difference": (True, bool),
        },
        "energy",
    )
    out = _check_keys(cfg.get("output", {}), {"dir": ("out", str)}, "output")
    unknown = set(cfg) - {"equation", "grid", "energy", "output"}
    if unknown:
        raise ConfigurationError(f"top level: unknown key(s) {sorted(unknown)}")
    if en["difference"]:
        check_sigma(sym.alpha, en["s"], en["sigma"])
    outdir = _resolve_outdir(out)
    _echo(outdir, {"equation": eq, "grid": g, "energy": en, "output": out})
    results = []
    ok = True
    for i in range(en["fields"]):
        u = make_initial(
            grid,
            {"kind": "random_hs", "seed": en["seed"] + i, "s": en["s"],
             "target_norm": en["target_norm"]},
        )
        res = coercivity_check(u, sym, en["s"], en["n0"])
        row = {"field": i, "plain": json.loads(res.to_json())}
        ok &= res.passed
        if en["difference"]:
            w = make_initial(
                grid,
                {"kind": "random_hs", "seed": en["seed"] + 1000 + i, "s": en["s"],
                 "target_norm": en["target_norm"]},
            )
            dres = difference_coercivity_check(u, w, sym, en["sigma"], en["n0"])
            row["difference"] = json.loads(dres.to_json())
            ok &= dres.passed
        results.append(row)
        rep = modified_energy(u, sym, en["s"], en["n0"])
        row["modified_energy"] = rep.modified
        row["corrector_share"] = rep.corrector_share
    with open(os.path.join(outdir, "coercivity_report.json"), "w") as fh:
        json.dump(results, fh, indent=2)
    print(f"check-energy: {en['fields']} fields, all_pass={ok}")
    if not ok:
        raise CheckFailure("coercivity doubling search failed for some field")
    return 0


def _cmd_experiment(cfg: dict) -> int:
    unknown = set(cfg) - {"experiment", "output"}
    if unknown:
        raise ConfigurationError(f"top level: unknown key(s) {sorted(unknown)}")
    exp = cfg.get("experiment")
    if not isinstance(exp, dict) or "name" not in exp:
        raise ConfigurationError("experiment: need an object with at least a 'name'")
    out = _check_keys(cfg.get("output", {}), {"dir": ("out", str)}, "output")
    outdir = _resolve_outdir(out)
    spec = ExperimentSpec.from_dict(exp)
    summary = run_experiment(spec, outdir)
    failed = [k for k, v in summary.items() if k.startswith("pass_") and v is False]
    print(f"experiment {spec.name}: wrote {outdir}; failed={failed or 'none'}")
    if failed:
        raise CheckFailure("experiment checks failed: " + ", ".join(failed))
    return 0


def _cmd_convergence(cfg: dict) -> int:
    eq, sym = _equation(cfg)
    g, grid = _grid(cfg)
    init = cfg.get("initial", {"kind": "cosine", "amplitude": 0.4,
                               "modes": [[1, 1.0], [2, 0.5]]})
    cv = _check_keys(
        cfg.get("convergence", {}),
        {
            "dts": ([4e-3, 2e-3, 1e-3], _ID),
            "t_final": (0.5, _positive),
            "scheme": ("ifrk4", str),
            "slope_window": ([3.7, 4.3], _ID),
        },
        "convergence",
    )
    out = _check_keys(cfg.get("output", {}), {"dir": ("out", str)}, "output")
    unknown = set(cfg) - {"equation", "grid", "initial", "convergence", "output"}
    if unknown:
        raise ConfigurationError(f"top level: unknown key(s) {sorted(unknown)}")
    outdir = _resolve_outdir(out)
    _echo(outdir, {"equation": eq, "grid": g, "initial": init, "convergence": cv,
                   "output": out})
    u0 = make_initial(grid, init)
    scfg = SolverConfig(scheme=cv["scheme"], dt=min(cv["dts"]), t_final=cv["t_final"])
    res = self_convergence(u0, sym, scfg, cv["dts"])
    with open(os.path.join(outdir, "results.csv"), "w") as fh:
        fh.write("dt,error\n")
        for dt, err in zip(res["dts"], res["errors"]):
            fh.write(f"{dt:.17g},{err:.17g}\n")
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(res, fh, indent=2)
    lo, hi = cv["slope_window"]
    print(f"convergence: slope = {res['slope']:.3f} (window [{lo}, {hi}])")
    if not (lo <= res["slope"] <= hi):
        raise CheckFailure(f"temporal order {res['slope']:.3f} outside [{lo}, {hi}]")
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        cfg = _load_config(ns.config)
        return _COMMANDS[ns.command](cfg)
    except (ConfigurationError, DomainError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    except CheckFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
