"""Scripted numerical experiments tying the solver to the analytical objects.

Every experiment is reproducible from its spec + seed alone and writes
spec.json (resolved echo), results.csv and summary.json when run through
:func:`run_experiment`.  Strichartz-type and X^{s,b} diagnostics are torus
proxies: values are reported, no inequality is asserted.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict, replace

import numpy as np

from .dyadic import DyadicLadder, eta, phi_n, time_window
from .energies import band_energy, check_sigma, corrector_plan, corrector_rate, corrector_term
from .errors import ConfigurationError
from .multipliers import chi1_scale
from .solver import SolverConfig, full_rhs, run
from .spectral import (
    Field,
    SpectralGrid,
    TrajectoryRecord,
    bar_sobolev_norm,
    dealiased_product,
    sobolev_norm,
    transform,
    trapezoid,
)
from .symbols import DispersionSymbol, lwp_threshold

__all__ = [
    "ExperimentSpec",
    "make_symbol",
    "make_initial",
    "difference_experiment",
    "modified_energy_drift",
    "xsb_norm",
    "strichartz_ratio",
    "threshold_sensitivity",
    "run_experiment",
]


def make_symbol(cfg: dict) -> DispersionSymbol:
    kind = cfg.get("type", "pure_power")
    if kind == "pure_power":
        return DispersionSymbol("pure_power", float(cfg.get("alpha", 1.0)))
    if kind == "whitham":
        return DispersionSymbol("whitham", 0.5, tau=float(cfg.get("tau", 1.0)))
    if kind == "ilw":
        return DispersionSymbol("ilw", 1.0)
    raise ConfigurationError(f"unknown equation type {kind!r}")


def make_initial(grid: SpectralGrid, recipe: dict) -> Field:
    """Initial-data recipes: cosine / gaussian / random_hs (mean-free)."""
    kind = recipe.get("kind", "cosine")
    amp = float(recipe.get("amplitude", 0.1))
    if kind == "cosine":
        modes = recipe.get("modes", [[int(recipe.get("mode", 1)), 1.0]])
        # exact coefficients: no transform roundoff outside the named modes
        c = np.zeros(grid.n, dtype=complex)
        for k, w in modes:
            c[grid.index_of(int(k))] += 0.5 * amp * w
            c[grid.index_of(-int(k))] += 0.5 * amp * w
        return Field(grid, c)
    if kind == "gaussian":
        width = float(recipe.get("width", grid.length / 16.0))
        center = float(recipe.get("center", grid.length / 2.0))
        x = grid.nodes
        u = np.exp(-0.5 * ((x - center) / width) ** 2)
        u -= u.mean()
        return transform(grid, amp * u)
    if kind == "random_hs":
        seed = int(recipe.get("seed", 0))
        s = float(recipe.get("s", 0.5))
        target = float(recipe.get("target_norm", 1.0))
        rng = np.random.default_rng(seed)
        xi = grid.frequencies
        raw = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        raw *= (1.0 + xi**2) ** (-0.5 * (s + 0.75))
        raw[0] = 0.0
        n = grid.n
        sym = 0.5 * (raw + np.conj(raw[(n - np.arange(n)) % n]))
        sym[grid.nyquist_index] = 0.0
        f = Field(grid, sym)
        norm = sobolev_norm(f, s)
        return Field(grid, sym * (target / norm)) if norm > 0 else f
    raise ConfigurationError(f"unknown initial-data kind {kind!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment; reproducible from this alone."""

    name: str
    equation: dict
    grid: dict
    initial: dict
    solver: dict
    diagnostics: dict
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentSpec":
        return ExperimentSpec(
            name=d["name"],
            equation=dict(d.get("equation", {})),
            grid=dict(d.get("grid", {"n": 128, "length": 2.0 * np.pi})),
            initial=dict(d.get("initial", {})),
            solver=dict(d.get("solver", {})),
            diagnostics=dict(d.get("diagnostics", {})),
            seed=int(d.get("seed", 0)),
        )

    def build(self):
        grid = SpectralGrid(int(self.grid.get("n", 128)), float(self.grid.get("length", 2.0 * np.pi)))
        sym = make_symbol(self.equation)
        u0 = make_initial(grid, self.initial)
        cfg = SolverConfig(
            scheme=self.solver.get("scheme", "ifrk4"),
            dt=float(self.solver.get("dt", 1e-3)),
            t_final=float(self.solver.get("t_final", 0.5)),
            record_every=int(self.solver.get("record_every", 1)),
            dealias=bool(self.solver.get("dealias", True)),
            nonlinear=bool(self.solver.get("nonlinear", True)),
        )
        return grid, sym, u0, cfg


# -- difference / Lipschitz experiment ------------------------------------------

def difference_experiment(spec: ExperimentSpec, eps_list) -> dict:
    """Perturbation study for w = u - v, z = u + v.

    For each eps runs v from u0 + eps * p (fixed profile p from the
    diagnostics "perturbation" recipe), reports the ratio
    ||w(t)||_{Hbar^sigma} / ||w(0)||_{Hbar^sigma} at the record times, and
    checks the difference-equation residual d_t w + L w - d_x(zw) = O(dt^2)
    by halving dt.
    """
    grid, sym, u0, cfg = spec.build()
    diag = spec.diagnostics
    s = float(diag.get("s", 0.3))
    sigma = float(diag.get("sigma", -0.2))
    check_sigma(sym.alpha, s, sigma)
    pert = diag.get(
        "perturbation", {"kind": "random_hs", "seed": spec.seed + 1, "s": s, "target_norm": 1.0}
    )
    p = make_initial(grid, pert)

    rows = []
    ratios_final = {}
    base = run(u0, sym, cfg, diag_n0=None)
    if base.blown_up:
        return {"blowup": base.blowup, "rows": []}
    for eps in eps_list:
        if eps == 0.0:
            ratios_final[eps] = 1.0  # w == 0 by convention
            continue
        vres = run(Field(grid, u0.coeffs + eps * p.coeffs), sym, cfg, diag_n0=None)
        if vres.blown_up:
            return {"blowup": vres.blowup, "rows": rows}
        r0 = None
        for t, fu, fv in zip(base.record.times, base.record.snapshots, vres.record.snapshots):
            w = fv - fu
            nw = bar_sobolev_norm(w, sigma)
            if r0 is None:
                r0 = nw
            rows.append({"eps": eps, "t": float(t), "ratio": nw / r0 if r0 else 1.0})
        ratios_final[eps] = rows[-1]["ratio"]

    res_rates = _difference_residual_rate(grid, sym, u0, p, cfg, eps=eps_list[0])
    vals = [v for e, v in ratios_final.items() if e != 0.0]
    return {
        "sigma": sigma,
        "s": s,
        "rows": rows,
        "final_ratios": {str(e): v for e, v in ratios_final.items()},
        "ratio_max": max(vals) if vals else 1.0,
        "ratio_spread": (max(vals) / min(vals)) if vals and min(vals) > 0 else 1.0,
        "residual": res_rates,
    }


def _difference_residual(grid, sym, urec, vrec, j, dt):
    """L^2 norm of (w_{j+1}-w_{j-1})/(2dt) + L w_j - d_x(z_j w_j)."""
    w_m = vrec.snapshots[j - 1] - urec.snapshots[j - 1]
    w_0 = vrec.snapshots[j] - urec.snapshots[j]
    w_p = vrec.snapshots[j + 1] - urec.snapshots[j + 1]
    z_0 = vrec.snapshots[j] + urec.snapshots[j]
    dwdt = (w_p.coeffs - w_m.coeffs) / (2.0 * dt)
    lw = 1j * sym.omega(grid.frequencies) * w_0.coeffs
    lw[grid.nyquist_index] = 0.0
    zw = dealiased_product(z_0, w_0)
    dxzw = 1j * grid.frequencies * zw.coeffs
    dxzw[grid.nyquist_index] = 0.0
    resid = dwdt + lw - dxzw
    return float(np.sqrt(grid.length * np.sum(np.abs(resid) ** 2)))


def _difference_residual_rate(grid, sym, u0, p, cfg, eps):
    # the centered d_t w needs omega_max * dt << 1 to sit in the asymptotic
    # O(dt^2) regime; run the consistency study on a much finer step
    omega_max = float(np.max(np.abs(sym.omega(grid.frequencies))))
    dt0 = min(cfg.dt, 0.05 / omega_max)
    out = {}
    for label, dt in (("dt", dt0), ("dt/2", dt0 / 2.0)):
        short = replace(cfg, dt=dt, t_final=10 * dt, record_every=1)
        urec = run(u0, sym, short, diag_n0=None).record
        vrec = run(Field(grid, u0.coeffs + eps * p.coeffs), sym, short, diag_n0=None).record
        mid = len(urec.times) // 2
        out[label] = _difference_residual(grid, sym, urec, vrec, mid, dt)
    out["rate"] = float(np.log2(out["dt"] / out["dt/2"])) if out["dt/2"] > 0 else float("nan")
    return out


# -- modified-energy drift -------------------------------------------------------

def corrector_term_rotated(f: Field, sym, N: float, s: float, t: float) -> float:
    """E1_N of the free evolution at time t, evaluated by rotating the
    initial triple products with exp(i Omega_2 t) (the resonance algebra)."""
    plan = corrector_plan(f.grid, sym, N)
    c = f.coeffs
    val = plan.pairing(plan.chi1 / plan.om2 * np.exp(1j * plan.om2 * t), c, c, c)
    return chi1_scale(N, s) * float(val.real)


def modified_energy_drift(spec: ExperimentSpec) -> dict:
    """Record |E^s(u(t)) - E^s(u_0)| against the plain dyadic-energy drift.

    Asserts only chain-rule consistency (finite differences of E1_N along the
    flow converge at second order to the product-rule assembly); both drift
    curves are emitted as data.
    """
    grid, sym, u0, cfg = spec.build()
    s = float(spec.diagnostics.get("s", 0.3))
    n0 = float(spec.diagnostics.get("n0", 8.0))
    if not s > lwp_threshold(sym.alpha):
        raise ConfigurationError(
            f"drift experiment needs s > {lwp_threshold(sym.alpha)}, got {s}"
        )
    result = run(u0, sym, cfg, diag_s=s, diag_n0=n0, diag_every=1)
    rec, reports = result.record, result.reports
    ladder = DyadicLadder.for_grid(grid, homogeneous=False)

    def plain(f):
        return sum(
            (1.0 + N * N) ** s * band_energy(f, N, ladder) for N in ladder.scales
        )

    p0 = plain(rec.snapshots[0])
    e0 = reports[0].modified
    rows = [
        {
            "t": float(t),
            "modified_drift": abs(rep.modified - e0),
            "plain_drift": abs(plain(f) - p0),
            "corrector_share": rep.corrector_share,
        }
        for t, f, rep in zip(rec.times, rec.snapshots, reports)
    ]

    consistency = _chain_rule_consistency(grid, sym, u0, cfg, s, n0)
    out = {"s": s, "n0": n0, "rows": rows, "chain_rule": consistency}
    if not cfg.nonlinear:
        out["linear_flow"] = _linear_flow_checks(grid, sym, rec, s, n0, ladder)
    return out


def _active_corrector_scale(grid, u0, sym, s, n0, floor=1e-30):
    ladder = DyadicLadder.for_grid(grid, homogeneous=False)
    best, best_val = None, floor
    for N in ladder.scales:
        if N <= n0:
            continue
        val, _ = corrector_term(u0, sym, N, s)
        if abs(val) > best_val:
            best, best_val = N, abs(val)
    return best


def _chain_rule_consistency(grid, sym, u0, cfg, s, n0):
    """FD of E1_N along the flow vs the product-rule rate; second order in the
    FD step.  All differences are centered at one base time and the states are
    integrated with a much finer dt so only the FD error varies."""
    N = _active_corrector_scale(grid, u0, sym, s, n0)
    if N is None:
        return {"scale": None, "note": "corrector vanishes identically (single-band data)"}
    delta = cfg.dt
    t_star = 2.0 * delta
    fine = delta / 20.0

    def state_at(t):
        short = replace(cfg, dt=fine, t_final=t, record_every=10**9)
        return run(u0, sym, short, diag_n0=None).record.snapshots[-1]

    base = state_at(t_star)
    rhs = full_rhs(base, sym, cfg.dealias, cfg.nonlinear)
    exact = corrector_rate(base, rhs, sym, N, s)
    errs = {}
    for label, d in (("dt", delta), ("dt/2", delta / 2.0)):
        em = corrector_term(state_at(t_star - d), sym, N, s)[0]
        ep = corrector_term(state_at(t_star + d), sym, N, s)[0]
        errs[label] = abs((ep - em) / (2.0 * d) - exact)
    rate = float(np.log2(errs["dt"] / errs["dt/2"])) if errs["dt/2"] > 0 else float("inf")
    return {"scale": N, "errors": errs, "rate": rate}


def _linear_flow_checks(grid, sym, rec, s, n0, ladder):
    """Exact-propagator checks: band energies constant; corrector follows the
    Omega_2 phase rotation of its initial value."""
    u0 = rec.snapshots[0]
    band_drift = 0.0
    for N in ladder.scales:
        e0 = band_energy(u0, N, ladder)
        for f in rec.snapshots[1:]:
            band_drift = max(band_drift, abs(band_energy(f, N, ladder) - e0) / max(e0, 1e-30))
    N = _active_corrector_scale(grid, u0, sym, s, n0)
    phase_err = 0.0
    if N is not None:
        for t, f in zip(rec.times, rec.snapshots):
            direct = corrector_term(f, sym, N, s)[0]
            rotated = corrector_term_rotated(u0, sym, N, s, float(t))
            phase_err = max(phase_err, abs(direct - rotated))
    return {"band_energy_drift": band_drift, "corrector_phase_error": phase_err, "scale": N}


# -- space-time diagnostics ------------------------------------------------------

def xsb_norm(record: TrajectoryRecord, sym, s: float, b: float) -> float:
    """Discrete restriction-norm diagnostic
    (L T sum <xi>^{2s} <tau - omega(xi)>^{2b} |c_hat(k, m)|^2)^{1/2}
    of the time-windowed record.  With s = b = 0 this is the windowed
    space-time L^2 norm (Riemann sum in t).  Torus proxy: reported only.
    """
    if not record.is_uniform():
        raise ConfigurationError("xsb diagnostic needs uniform time sampling")
    C = record.coefficient_matrix()
    nt = C.shape[1]
    w = time_window(nt)
    Chat = np.fft.ifft(C * w[None, :], axis=1)
    xi = record.grid.frequencies
    dt = record.times[1] - record.times[0] if nt > 1 else 1.0
    span = nt * dt
    m = np.fft.fftfreq(nt, d=1.0 / nt)
    tau = 2.0 * np.pi * m / span
    wxi = (1.0 + xi**2) ** s
    d = tau[None, :] - sym.omega(xi)[:, None]
    wtau = (1.0 + d**2) ** b
    total = np.sum(wxi[:, None] * wtau * np.abs(Chat) ** 2)
    return float(np.sqrt(record.grid.length * span * total))


def spacetime_l2(record: TrajectoryRecord, windowed: bool = True) -> float:
    """Riemann-sum space-time L^2 norm (optionally with the same window)."""
    C = record.coefficient_matrix()
    nt = C.shape[1]
    w = time_window(nt) if windowed else np.ones(nt)
    dt = record.times[1] - record.times[0] if nt > 1 else 1.0
    total = np.sum(np.abs(C * w[None, :]) ** 2) * dt
    return float(np.sqrt(record.grid.length * total))


def strichartz_ratio(sym, scales, u0: Field, n_t: int = 129, pad: int = 4) -> list:
    """Free-evolution Strichartz-type table (torus proxy, diagnostic only).

    For each N: || P_N D^{(alpha-1)/4} U(t) u0 ||_{L^4_t L^inf_x} over
    t in [0, 1] divided by ||P_N u0||_{L^2}; rows with empty bands skipped.
    """
    grid = u0.grid
    xi = grid.frequencies
    ts = np.linspace(0.0, 1.0, n_t)
    rows = []
    for N in scales:
        wN = phi_n(xi, N)
        cN = wN * u0.coeffs
        l2 = float(np.sqrt(grid.length * np.sum(np.abs(cN) ** 2)))
        if l2 < 1e-14:
            continue
        frac = np.abs(xi) ** ((sym.alpha - 1.0) / 4.0)
        frac[xi == 0.0] = 0.0
        base = frac * cN
        sups = np.empty(n_t)
        phase_per_t = np.exp(-1j * sym.omega(xi)[None, :] * ts[:, None])
        for i in range(n_t):
            c = base * phase_per_t[i]
            cp = np.zeros(pad * grid.n, dtype=complex)
            k = grid.wavenumbers
            idx = np.where(k >= 0, k, pad * grid.n + k)
            cp[idx] = c
            vals = np.fft.ifft(cp) * pad * grid.n
            sups[i] = float(np.max(np.abs(vals.real)))
        l4 = trapezoid(sups**4, ts) ** 0.25
        rows.append({"N": float(N), "ratio": l4 / l2, "band_l2": l2})
    return rows


def threshold_sensitivity(spec: ExperimentSpec, factors=(16, 32, 64)) -> dict:
    """How much of P_N(u^2) the high-low part 2 P_N(u_{<<N} u) captures when
    '<<' means P_{<= N/factor}; reported sensitivity of the fixed 2^-5 choice."""
    grid, sym, u0, _ = spec.build()
    N = float(spec.diagnostics.get("scale", 16.0))
    from .spectral import convolution_product

    total = convolution_product(u0, u0)
    pn_tot = Field(grid, phi_n(grid.frequencies, N) * total.coeffs)
    denom = np.sqrt(np.sum(np.abs(pn_tot.coeffs) ** 2))
    out = {}
    for fac in factors:
        low = Field(grid, eta(fac * grid.frequencies / N) * u0.coeffs)
        hl = convolution_product(low, u0)
        pn_hl = Field(grid, 2.0 * phi_n(grid.frequencies, N) * hl.coeffs)
        num = np.sqrt(np.sum(np.abs(pn_hl.coeffs - pn_tot.coeffs) ** 2))
        out[str(fac)] = float(num / denom) if denom > 0 else 0.0
    return {"scale": N, "high_high_remainder": out}


# -- experiment runner -----------------------------------------------------------

_EXPERIMENTS = ("difference", "energy_drift", "xsb", "strichartz", "threshold")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[h]) for h in header) + "\n")


def run_experiment(spec: ExperimentSpec, outdir) -> dict:
    """Dispatch one experiment; writes spec.json, results.csv, summary.json."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "spec.json"), "w") as fh:
        json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
    name = spec.name
    summary: dict = {"experiment": name}
    if name == "difference":
        eps = [float(e) for e in spec.diagnostics.get("eps", [1e-2, 1e-3, 1e-4])]
        out = difference_experiment(spec, eps)
        _write_csv(
            os.path.join(outdir, "results.csv"), ["eps", "t", "ratio"], out["rows"]
        )
        summary.update(
            {
                "final_ratios": out.get("final_ratios", {}),
                "ratio_max": out.get("ratio_max"),
                "ratio_spread": out.get("ratio_spread"),
                "residual": out.get("residual"),
                "pass_bounded": bool(out.get("ratio_max", np.inf) <= 10.0),
                "pass_stable": bool(out.get("ratio_spread", np.inf) <= 1.5),
                "pass_residual_rate": bool(
                    1.5 <= out.get("residual", {}).get("rate", 0.0) <= 2.5
                ),
            }
        )
    elif name == "energy_drift":
        out = modified_energy_drift(spec)
        _write_csv(
            os.path.join(outdir, "results.csv"),
            ["t", "modified_drift", "plain_drift", "corrector_share"],
            out["rows"],
        )
        summary.update({k: v for k, v in out.items() if k != "rows"})
        rate = out["chain_rule"].get("rate")
        summary["pass_chain_rule"] = bool(rate is None or 1.5 <= rate <= 2.5)
    elif name == "xsb":
        grid, sym, u0, cfg = spec.build()
        res = run(u0, sym, cfg, diag_n0=None)
        s = float(spec.diagnostics.get("s", 0.0))
        b = float(spec.diagnostics.get("b", 0.0))
        val = xsb_norm(res.record, sym, s, b)
        anchor = spacetime_l2(res.record)
        _write_csv(
            os.path.join(outdir, "results.csv"),
            ["s", "b", "xsb_norm", "spacetime_l2"],
            [{"s": s, "b": b, "xsb_norm": val, "spacetime_l2": anchor}],
        )
        summary.update({"xsb_norm": val, "spacetime_l2": anchor, "torus_proxy": True})
    elif name == "strichartz":
        grid, sym, u0, cfg = spec.build()
        scales = [float(N) for N in spec.diagnostics.get("scales", [4, 8, 16, 32, 64, 128])]
        rows = strichartz_ratio(sym, scales, u0)
        _write_csv(os.path.join(outdir, "results.csv"), ["N", "ratio", "band_l2"], rows)
        summary.update(
            {"rows": rows, "torus_proxy": True, "note": "no inequality asserted"}
        )
    elif name == "threshold":
        out = threshold_sensitivity(spec)
        rows = [
            {"factor": k, "high_high_remainder": v}
            for k, v in out["high_high_remainder"].items()
        ]
        _write_csv(
            os.path.join(outdir, "results.csv"), ["factor", "high_high_remainder"], rows
        )
        summary.update(out)
    else:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {_EXPERIMENTS}"
        )
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
    return summary
