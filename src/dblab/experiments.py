"""Scripted numerical experiments tying the solver to the analytical objects.

Each experiment takes a resolved experiment spec (:func:`dblab.config.experiment`)
and is reproducible from it alone.  :func:`run_experiment` writes its results.csv
and summary.json; ``dblab experiment`` echoes spec.json as every command does.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np

from .config import make_initial, make_symbol
from .energies import (
    _check_n0,
    _energy_report,
    _energy_scales,
    check_sigma,
    corrector_rate,
    corrector_term,
    corrector_term_rotated,
    max_abs_omega2,
)
from .errors import ConfigurationError
from .solver import SolverConfig, full_rhs, trajectory
from .spectral import Field, SpectralGrid, bar_sobolev_norm
from .symbols import lwp_threshold

__all__ = [
    "difference_experiment",
    "modified_energy_drift",
    "run_experiment",
]


def _build(spec: dict):
    grid = SpectralGrid(**spec["grid"])
    u0 = make_initial(grid, spec["initial"])
    return grid, make_symbol(spec["equation"]), u0, SolverConfig(**spec["solver"])


# -- difference / Lipschitz experiment ------------------------------------------

def difference_experiment(spec: dict) -> dict:
    """Perturbation study for w = u - v, z = u + v.

    For each eps of the diagnostics (the config refuses a list without a
    nonzero entry) runs v from u0 + eps * p (fixed profile p from the
    diagnostics "perturbation" recipe), reports the ratio
    ||w(t)||_{Hbar^sigma} / ||w(0)||_{Hbar^sigma} at the record times, and
    checks the difference-equation residual d_t w + L w - d_x(zw) = O(dt^2)
    by halving dt, at the first nonzero eps.  A run that blows up before
    t_final raises BlowUpError.  Returns the rows and the summary keys,
    its ``pass_*`` flags included.
    """
    grid, sym, u0, cfg = _build(spec)
    diag = spec["diagnostics"]
    check_sigma(sym.alpha, diag["s"], diag["sigma"])
    p = make_initial(grid, diag["perturbation"])

    rows = []
    ratios_final = {}
    urecs = list(trajectory(u0, sym, cfg))
    for eps in diag["eps"]:
        if eps == 0.0:
            ratios_final[eps] = 1.0  # w == 0 by convention
            continue
        vrun = trajectory(Field(grid, u0.coeffs + eps * p.coeffs), sym, cfg)
        r0 = None
        for (t, u), (_, v) in zip(urecs, vrun):  # one v state held at a time
            nw = bar_sobolev_norm(Field(grid, v.coeffs - u.coeffs), diag["sigma"])
            if r0 is None:
                r0 = nw
            rows.append({"eps": eps, "t": float(t), "ratio": nw / r0 if r0 else 1.0})
        ratios_final[eps] = rows[-1]["ratio"]

    eps_res = next(e for e in diag["eps"] if e != 0.0)
    res_rates = _difference_residual_rate(grid, sym, u0, p, cfg, eps=eps_res)
    vals = [v for e, v in ratios_final.items() if e != 0.0]
    ratio_max = max(vals) if vals else 1.0
    ratio_spread = (max(vals) / min(vals)) if vals and min(vals) > 0 else 1.0
    return {
        "rows": rows,
        "final_ratios": {str(e): v for e, v in ratios_final.items()},
        "ratio_max": ratio_max,
        "ratio_spread": ratio_spread,
        "residual": res_rates,
        "pass_bounded": bool(ratio_max <= 10.0),
        "pass_stable": bool(ratio_spread <= 1.5),
        "pass_residual_rate": _second_order(res_rates["rate"]),
    }


def _difference_residual(sym, cfg, us, vs, j):
    """L^2 norm of (w_{j+1}-w_{j-1})/(2dt) - (F(v_j) - F(u_j)), F the solver's
    `full_rhs` under the run's dealias and nonlinear flags; F(v) - F(u) is
    -L w + d_x(z w) for w = v - u, z = v + u.  `us`, `vs` are the runs' states."""
    w_m, w_p = (vs[i].coeffs - us[i].coeffs for i in (j - 1, j + 1))
    fv, fu = (full_rhs(r[j], sym, cfg.dealias, cfg.nonlinear) for r in (vs, us))
    resid = (w_p - w_m) / (2.0 * cfg.dt) - (fv.coeffs - fu.coeffs)
    return float(np.sqrt(us[j].grid.length * np.sum(np.abs(resid) ** 2)))


def _difference_residual_rate(grid, sym, u0, p, cfg, eps):
    # the centered d_t w needs omega_max * dt << 1 to sit in the asymptotic
    # O(dt^2) regime; run the consistency study on a much finer step
    omega_max = float(np.max(np.abs(sym.omega(grid.frequencies))))
    dt0 = min(cfg.dt, 0.05 / omega_max)
    out = {}
    for label, dt in (("dt", dt0), ("dt/2", dt0 / 2.0)):
        short = replace(cfg, dt=dt, t_final=10 * dt, record_every=1)
        us = [f for _, f in trajectory(u0, sym, short)]
        vs = [f for _, f in trajectory(Field(grid, u0.coeffs + eps * p.coeffs), sym, short)]
        out[label] = _difference_residual(sym, short, us, vs, len(us) // 2)
    out["rate"] = _halving_rate(out["dt"], out["dt/2"])
    return out


def _halving_rate(err, err_half):
    """log2(err / err_half), the order seen when the step halves; None
    (undefined, written as null) unless both errors are positive."""
    return float(np.log2(err / err_half)) if err > 0 and err_half > 0 else None


def _second_order(rate) -> bool:
    """The pass window of a halving rate; an undefined rate fails."""
    return rate is not None and 1.5 <= rate <= 2.5


# -- modified-energy drift -------------------------------------------------------

def modified_energy_drift(spec: dict) -> dict:
    """Record |E^s(u(t)) - E^s(u_0)| against the plain dyadic-energy drift.

    Asserts only chain-rule consistency (finite differences of E1_N along the
    flow converge at second order to the product-rule assembly); both drift
    curves are emitted as data.  One ladder pass per record feeds its E^s report,
    its plain energy, the active scale (at t = 0) and the linear-flow band drift.
    Returns the rows and the summary keys, ``pass_chain_rule`` included.
    """
    grid, sym, u0, cfg = _build(spec)
    s, n0 = spec["diagnostics"]["s"], spec["diagnostics"]["n0"]
    if not s > lwp_threshold(sym.alpha):
        raise ConfigurationError(
            f"drift experiment needs s > {lwp_threshold(sym.alpha)}, got {s}"
        )
    _check_n0(n0)  # the ladder pass's N0 rule, before the run steps
    times, states = zip(*trajectory(u0, sym, cfg))
    passes = [_energy_scales(f, sym, s, n0) for f in states]
    reports = [_energy_report(f, sym, s, n0, t, sc) for t, f, sc in zip(times, states, passes)]
    plain = [sum((r.bracket * r.band for r in sc), 0.0) for sc in passes]
    rows = [
        {
            "t": float(t),
            "modified_drift": abs(rep.modified - reports[0].modified),
            "plain_drift": abs(p - plain[0]),
            "corrector_share": rep.corrector_share,
        }
        for t, rep, p in zip(times, reports, plain)
    ]

    N = _active_corrector_scale(passes[0])
    consistency = _chain_rule_consistency(grid, sym, u0, cfg, s, N)
    out = {"s": s, "n0": n0, "rows": rows, "chain_rule": consistency,
           "pass_chain_rule": N is None or _second_order(consistency["rate"])}
    if not cfg.nonlinear:
        out["linear_flow"] = _linear_flow_checks(sym, times, states, passes, s, N)
    return out


def _active_corrector_scale(scales, floor=1e-30):
    """The first scale of a pass with the largest |E1_N|; None if all are below `floor`."""
    best, best_val = None, floor
    for r in scales:
        if r.corrections and abs(r.corrections[0]) > best_val:
            best, best_val = r.N, abs(r.corrections[0])
    return best


def _chain_rule_consistency(grid, sym, u0, cfg, s, N):
    """FD of E1_N along the flow at the active scale N vs the product-rule rate;
    second order in the FD step.  All differences are centered at one base time
    and the states are integrated with a much finer dt so only the FD error varies.
    The FD step is min(dt, 0.05 / `max_abs_omega2`), so the fastest phase
    exp(i Omega_2 t) is resolved and the error is in its O(d^2) regime."""
    if N is None:
        return {"scale": None, "note": "corrector vanishes identically (single-band data)"}
    delta = min(cfg.dt, 0.05 / max_abs_omega2(grid, sym, N))
    # one run with steps of delta / 20 to 3 delta, recorded every delta / 2:
    # states[j] is the state at j delta / 2, and the base time is 2 delta
    fine = replace(cfg, dt=delta / 20.0, t_final=3.0 * delta, record_every=10)
    states = [f for _, f in trajectory(u0, sym, fine)]
    base = states[4]
    rhs = full_rhs(base, sym, cfg.dealias, cfg.nonlinear)
    exact = corrector_rate(base, rhs, sym, N, s)
    errs = {}
    for label, d, j in (("dt", delta, 2), ("dt/2", delta / 2.0, 1)):
        em = corrector_term(states[4 - j], sym, N, s)
        ep = corrector_term(states[4 + j], sym, N, s)
        errs[label] = abs((ep - em) / (2.0 * d) - exact)
    return {"scale": N, "errors": errs, "rate": _halving_rate(errs["dt"], errs["dt/2"])}


def _linear_flow_checks(sym, times, states, passes, s, N):
    """Exact-propagator checks: band energies of the records' passes constant; the
    corrector at the active scale N follows the Omega_2 phase rotation of its initial value."""
    u0 = states[0]
    band_drift = 0.0
    for sc in passes[1:]:
        for r0, r in zip(passes[0], sc):
            band_drift = max(band_drift, abs(r.band - r0.band) / max(r0.band, 1e-30))
    phase_err = 0.0
    if N is not None:
        for t, f in zip(times, states):
            direct = corrector_term(f, sym, N, s)
            rotated = corrector_term_rotated(u0, sym, N, s, float(t))
            phase_err = max(phase_err, abs(direct - rotated))
    return {"band_energy_drift": band_drift, "corrector_phase_error": phase_err, "scale": N}


# -- experiment runner -----------------------------------------------------------

def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def write_csv(path, header, rows) -> int:
    """CSV of dict rows, each written as the iterable yields it; floats with
    17 significant digits, so re-runs compare byte-exactly.  Returns the row count."""
    count = 0
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[h]) for h in header) + "\n")
            count += 1
    return count


# experiment name -> (its function, its results.csv columns)
_RUNNERS = {
    "difference": (difference_experiment, ["eps", "t", "ratio"]),
    "energy_drift": (
        modified_energy_drift, ["t", "modified_drift", "plain_drift", "corrector_share"]
    ),
}


def run_experiment(spec: dict, outdir) -> dict:
    """Run one resolved experiment; writes <outdir>/results.csv and summary.json
    and returns the summary."""
    run, header = _RUNNERS[spec["name"]]
    out = run(spec)
    os.makedirs(outdir, exist_ok=True)
    write_csv(os.path.join(outdir, "results.csv"), header, out.pop("rows"))
    summary = {"experiment": spec["name"], **out}
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float, allow_nan=False)
    return summary
