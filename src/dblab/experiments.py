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

from .config import experiment, make_initial, make_symbol, write_spec
from .dyadic import (
    _tau_grid,
    _time_span,
    _windowed_time_transform,
    cutoff_table,
    eta,
    phi_n,
    time_window,
)
from .energies import (
    _energy_scales,
    check_sigma,
    corrector_rate,
    corrector_term,
    corrector_term_rotated,
    max_abs_omega2,
    modified_energy,
)
from .errors import ConfigurationError
from .solver import SolverConfig, full_rhs, run, trajectory
from .spectral import (
    Field,
    SpectralGrid,
    TrajectoryRecord,
    bar_sobolev_norm,
    convolution_product,
    trapezoid,
)
from .symbols import lwp_threshold

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


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment; reproducible from this alone.

    Construction resolves every field through the config schema
    (:func:`dblab.config.experiment`), so the fields hold exactly the values
    the experiment runs with and :meth:`to_dict` is the resolved echo.
    """

    name: str
    equation: dict
    grid: dict
    initial: dict
    solver: dict
    diagnostics: dict
    seed: int = 0

    def __post_init__(self):
        for key, value in experiment(asdict(self)).items():
            object.__setattr__(self, key, value)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentSpec":
        return ExperimentSpec(**experiment(d))

    def build(self):
        grid = SpectralGrid(**self.grid)
        u0 = make_initial(grid, self.initial)
        return grid, make_symbol(self.equation), u0, SolverConfig(**self.solver)


# -- difference / Lipschitz experiment ------------------------------------------

def difference_experiment(spec: ExperimentSpec, eps_list) -> dict:
    """Perturbation study for w = u - v, z = u + v.

    For each eps runs v from u0 + eps * p (fixed profile p from the
    diagnostics "perturbation" recipe), reports the ratio
    ||w(t)||_{Hbar^sigma} / ||w(0)||_{Hbar^sigma} at the record times, and
    checks the difference-equation residual d_t w + L w - d_x(zw) = O(dt^2)
    by halving dt, at the first nonzero eps.  A run that blows up before
    t_final raises BlowUpError.
    """
    grid, sym, u0, cfg = spec.build()
    s, sigma = spec.diagnostics["s"], spec.diagnostics["sigma"]
    check_sigma(sym.alpha, s, sigma)
    eps_res = next((e for e in eps_list if e != 0.0), None)
    if eps_res is None:
        raise ConfigurationError(f"eps needs a nonzero entry, got {list(eps_list)}")
    p = make_initial(grid, spec.diagnostics["perturbation"])

    rows = []
    ratios_final = {}
    urec = run(u0, sym, cfg)
    for eps in eps_list:
        if eps == 0.0:
            ratios_final[eps] = 1.0  # w == 0 by convention
            continue
        vrec = run(Field(grid, u0.coeffs + eps * p.coeffs), sym, cfg)
        r0 = None
        for t, w in zip(urec.times, vrec.coeffs - urec.coeffs):
            nw = bar_sobolev_norm(Field(grid, w), sigma)
            if r0 is None:
                r0 = nw
            rows.append({"eps": eps, "t": float(t), "ratio": nw / r0 if r0 else 1.0})
        ratios_final[eps] = rows[-1]["ratio"]

    res_rates = _difference_residual_rate(grid, sym, u0, p, cfg, eps=eps_res)
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


def _difference_residual(sym, cfg, urec, vrec, j):
    """L^2 norm of (w_{j+1}-w_{j-1})/(2dt) - (F(v_j) - F(u_j)), F the solver's
    `full_rhs` under the run's dealias and nonlinear flags; F(v) - F(u) is
    -L w + d_x(z w) for w = v - u, z = v + u."""
    grid = urec.grid
    w_m, w_p = vrec.coeffs[[j - 1, j + 1]] - urec.coeffs[[j - 1, j + 1]]
    fv, fu = (full_rhs(Field(grid, r.coeffs[j]), sym, cfg.dealias, cfg.nonlinear) for r in (vrec, urec))
    resid = (w_p - w_m) / (2.0 * cfg.dt) - (fv.coeffs - fu.coeffs)
    return float(np.sqrt(grid.length * np.sum(np.abs(resid) ** 2)))


def _difference_residual_rate(grid, sym, u0, p, cfg, eps):
    # the centered d_t w needs omega_max * dt << 1 to sit in the asymptotic
    # O(dt^2) regime; run the consistency study on a much finer step
    omega_max = float(np.max(np.abs(sym.omega(grid.frequencies))))
    dt0 = min(cfg.dt, 0.05 / omega_max)
    out = {}
    for label, dt in (("dt", dt0), ("dt/2", dt0 / 2.0)):
        short = replace(cfg, dt=dt, t_final=10 * dt, record_every=1)
        urec = run(u0, sym, short)
        vrec = run(Field(grid, u0.coeffs + eps * p.coeffs), sym, short)
        mid = len(urec.times) // 2
        out[label] = _difference_residual(sym, short, urec, vrec, mid)
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

def modified_energy_drift(spec: ExperimentSpec) -> dict:
    """Record |E^s(u(t)) - E^s(u_0)| against the plain dyadic-energy drift.

    Asserts only chain-rule consistency (finite differences of E1_N along the
    flow converge at second order to the product-rule assembly); both drift
    curves are emitted as data.
    """
    grid, sym, u0, cfg = spec.build()
    s, n0 = spec.diagnostics["s"], spec.diagnostics["n0"]
    if not s > lwp_threshold(sym.alpha):
        raise ConfigurationError(
            f"drift experiment needs s > {lwp_threshold(sym.alpha)}, got {s}"
        )
    rec = run(u0, sym, cfg)
    states = [Field(grid, c) for c in rec.coeffs]
    reports = [modified_energy(f, sym, s, n0, t=t) for t, f in zip(rec.times, states)]
    table = cutoff_table(grid, homogeneous=False)

    def plain(f):
        bands = zip(table.ladder.scales, table.band_energies(f))
        return sum((1.0 + N * N) ** s * e for N, e in bands)

    p0 = plain(states[0])
    e0 = reports[0].modified
    rows = [
        {
            "t": float(t),
            "modified_drift": abs(rep.modified - e0),
            "plain_drift": abs(plain(f) - p0),
            "corrector_share": rep.corrector_share,
        }
        for t, f, rep in zip(rec.times, states, reports)
    ]

    N = _active_corrector_scale(u0, sym, s, n0)
    consistency = _chain_rule_consistency(grid, sym, u0, cfg, s, N)
    out = {"s": s, "n0": n0, "rows": rows, "chain_rule": consistency}
    if not cfg.nonlinear:
        out["linear_flow"] = _linear_flow_checks(sym, rec.times, states, s, N, table)
    return out


def _active_corrector_scale(u0, sym, s, n0, floor=1e-30):
    """The scale above n0 with the largest |E1_N(u0)|, or None if all are below `floor`."""
    best, best_val = None, floor
    for r in _energy_scales(u0, sym, s, n0):
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
        em = corrector_term(states[4 - j], sym, N, s)[0]
        ep = corrector_term(states[4 + j], sym, N, s)[0]
        errs[label] = abs((ep - em) / (2.0 * d) - exact)
    return {"scale": N, "errors": errs, "rate": _halving_rate(errs["dt"], errs["dt/2"])}


def _linear_flow_checks(sym, times, states, s, N, table):
    """Exact-propagator checks: band energies constant; the corrector at the
    active scale N follows the Omega_2 phase rotation of its initial value."""
    u0 = states[0]
    band_drift = 0.0
    bands0 = table.band_energies(u0)
    for f in states[1:]:
        for e0, e in zip(bands0, table.band_energies(f)):
            band_drift = max(band_drift, abs(e - e0) / max(e0, 1e-30))
    phase_err = 0.0
    if N is not None:
        for t, f in zip(times, states):
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
    tau = _tau_grid(record)
    Chat = _windowed_time_transform(record)
    xi = record.grid.frequencies
    span = _time_span(record)
    wxi = (1.0 + xi**2) ** s
    d = tau[:, None] - sym.omega(xi)[None, :]
    wtau = (1.0 + d**2) ** b
    total = np.sum(wxi[None, :] * wtau * np.abs(Chat) ** 2)
    return float(np.sqrt(record.grid.length * span * total))


def spacetime_l2(record: TrajectoryRecord) -> float:
    """Riemann-sum space-time L^2 norm under the time window of ``xsb_norm``."""
    nt = len(record.times)
    w = time_window(nt)
    dt = record.times[1] - record.times[0] if nt > 1 else 1.0
    total = np.sum(np.abs(record.coeffs * w[:, None]) ** 2) * dt
    return float(np.sqrt(record.grid.length * total))


STRICHARTZ_PAD = 4  # zero-padding factor of the sup-norm sampling in strichartz_ratio
THRESHOLD_FACTORS = (16, 32, 64)  # the '<<' cuts P_{<= N/factor} of threshold_sensitivity


def strichartz_ratio(sym, scales, u0: Field, n_t: int = 129) -> list:
    """Free-evolution Strichartz-type table (torus proxy, diagnostic only).

    For each N: || P_N D^{(alpha-1)/4} U(t) u0 ||_{L^4_t L^inf_x} over
    t in [0, 1] divided by ||P_N u0||_{L^2}; rows with empty bands skipped.
    """
    grid = u0.grid
    xi = grid.frequencies
    ts = np.linspace(0.0, 1.0, n_t)
    m = STRICHARTZ_PAD * grid.n
    k = grid.wavenumbers
    idx = np.where(k >= 0, k, m + k)
    frac = np.zeros_like(xi)
    np.power(np.abs(xi), (sym.alpha - 1.0) / 4.0, out=frac, where=xi != 0.0)
    phase_per_t = np.exp(-1j * sym.omega(xi)[None, :] * ts[:, None])
    rows = []
    for N in scales:
        wN = phi_n(xi, N)
        cN = wN * u0.coeffs
        l2 = float(np.sqrt(grid.length * np.sum(np.abs(cN) ** 2)))
        if l2 < 1e-14:
            continue
        base = frac * cN
        sups = np.empty(n_t)
        for i in range(n_t):
            c = base * phase_per_t[i]
            cp = np.zeros(m, dtype=complex)
            cp[idx] = c
            vals = np.fft.ifft(cp) * STRICHARTZ_PAD * grid.n
            sups[i] = float(np.max(np.abs(vals.real)))
        l4 = trapezoid(sups**4, ts) ** 0.25
        rows.append({"N": float(N), "ratio": l4 / l2, "band_l2": l2})
    return rows


def threshold_sensitivity(spec: ExperimentSpec) -> dict:
    """How much of P_N(u^2) the high-low part 2 P_N(u_{<<N} u) captures when
    '<<' means P_{<= N/factor}; reported sensitivity of the fixed 2^-5 choice."""
    grid, sym, u0, _ = spec.build()
    N = spec.diagnostics["scale"]
    total = convolution_product(u0, u0)
    pn_tot = Field(grid, phi_n(grid.frequencies, N) * total.coeffs)
    denom = np.sqrt(np.sum(np.abs(pn_tot.coeffs) ** 2))
    out = {}
    for fac in THRESHOLD_FACTORS:
        low = Field(grid, eta(fac * grid.frequencies / N) * u0.coeffs)
        hl = convolution_product(low, u0)
        pn_hl = Field(grid, 2.0 * phi_n(grid.frequencies, N) * hl.coeffs)
        num = np.sqrt(np.sum(np.abs(pn_hl.coeffs - pn_tot.coeffs) ** 2))
        out[str(fac)] = float(num / denom) if denom > 0 else 0.0
    return {"scale": N, "high_high_remainder": out}


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


def run_experiment(spec: ExperimentSpec, outdir) -> dict:
    """Dispatch one experiment; writes spec.json, results.csv and summary.json.

    spec.json is the resolved spec wrapped as an ``experiment`` config,
    ``{"experiment": spec, "output": {"dir": outdir}}``, so
    ``dblab experiment --config <outdir>/spec.json`` runs it again.
    """
    write_spec(outdir, {"experiment": spec.to_dict(), "output": {"dir": os.path.normpath(outdir)}})
    name, diag = spec.name, spec.diagnostics
    summary: dict = {"experiment": name}
    if name == "difference":
        out = difference_experiment(spec, diag["eps"])
        header, rows = ["eps", "t", "ratio"], out["rows"]
        summary.update(
            {
                "final_ratios": out["final_ratios"],
                "ratio_max": out["ratio_max"],
                "ratio_spread": out["ratio_spread"],
                "residual": out["residual"],
                "pass_bounded": bool(out["ratio_max"] <= 10.0),
                "pass_stable": bool(out["ratio_spread"] <= 1.5),
                "pass_residual_rate": _second_order(out["residual"]["rate"]),
            }
        )
    elif name == "energy_drift":
        out = modified_energy_drift(spec)
        header, rows = ["t", "modified_drift", "plain_drift", "corrector_share"], out["rows"]
        summary.update({k: v for k, v in out.items() if k != "rows"})
        chain = out["chain_rule"]
        summary["pass_chain_rule"] = chain["scale"] is None or _second_order(chain["rate"])
    elif name == "xsb":
        grid, sym, u0, cfg = spec.build()
        rec = run(u0, sym, cfg)
        s, b = diag["s"], diag["b"]
        val = xsb_norm(rec, sym, s, b)
        anchor = spacetime_l2(rec)
        header = ["s", "b", "xsb_norm", "spacetime_l2"]
        rows = [{"s": s, "b": b, "xsb_norm": val, "spacetime_l2": anchor}]
        summary.update({"xsb_norm": val, "spacetime_l2": anchor, "torus_proxy": True})
    elif name == "strichartz":
        grid, sym, u0, cfg = spec.build()
        header, rows = ["N", "ratio", "band_l2"], strichartz_ratio(sym, diag["scales"], u0)
        summary.update({"rows": rows, "torus_proxy": True, "note": "no inequality asserted"})
    else:  # threshold
        out = threshold_sensitivity(spec)
        header = ["factor", "high_high_remainder"]
        rows = [{"factor": k, "high_high_remainder": v} for k, v in out["high_high_remainder"].items()]
        summary.update(out)
    write_csv(os.path.join(outdir, "results.csv"), header, rows)
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float, allow_nan=False)
    return summary
