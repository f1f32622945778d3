"""Stiff time integration of  d_t u + L u = d_x(u^2)  on the periodic grid.

The linear part is diagonal, so the integrating-factor RK4 scheme advances
the phases exactly (per-mode factor exp(-i omega(xi) dt)); ETDRK4 with
contour-evaluated coefficients is available for stiffer runs.  The
quadratic nonlinearity is evaluated pseudospectrally with the 2/3 rule
(exact for this nonlinearity), so the mean mode is conserved identically.

Solutions are real, so their coefficients are Hermitian: the steppers and
``nonlinear_rhs`` carry only the half c[:n/2+1] and use ``rfft``/``irfft``.
``run`` refuses a non-real field and expands the half to full coefficients
(c_{-k} = conj(c_k)) only for the snapshots it records.

Blow-up (any |c_k| > 1e12 or NaN) halts the run and the partial record is
returned with the last valid time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .energies import EnergyReport, modified_energy
from .errors import BlowUpError, ConfigurationError
from .spectral import (
    Field,
    SpectralGrid,
    TrajectoryRecord,
    homogeneous_norm,
    save_field_csv,
)
from .symbols import DispersionSymbol

__all__ = [
    "SolverConfig",
    "RunResult",
    "RunWriter",
    "nonlinear_rhs",
    "full_rhs",
    "make_stepper",
    "step",
    "run",
    "scaling_check",
    "self_convergence",
]

BLOWUP_LIMIT = 1e12


@dataclass(frozen=True)
class SolverConfig:
    scheme: str = "ifrk4"
    dt: float = 1e-3
    t_final: float = 1.0
    record_every: int = 1
    dealias: bool = True
    nonlinear: bool = True

    def __post_init__(self):
        if self.scheme not in ("ifrk4", "etdrk4"):
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if not (self.dt > 0 and self.t_final > 0):
            raise ConfigurationError("dt and t_final must be positive")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be a positive integer")
        steps = round(self.t_final / self.dt)
        if abs(steps * self.dt - self.t_final) > 1e-9 * self.t_final:
            raise ConfigurationError(
                f"dt = {self.dt} does not divide t_final = {self.t_final}"
            )

    @property
    def steps(self) -> int:
        return round(self.t_final / self.dt)


def nonlinear_rhs(grid: SpectralGrid, coeffs: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Coefficients of d_x(u^2) on the Hermitian half k = 0..n/2, 2/3-rule dealiased."""
    m = grid.n // 2 + 1
    mask = grid.dealias_mask[:m]
    c = coeffs * mask if dealias else coeffs
    # norm="forward": u = sum_k c_k e^{ikx} and d = mean(u^2 e^{-ikx}), scaled by n exactly
    u = np.fft.irfft(c, grid.n, norm="forward")
    d = np.fft.rfft(u * u, norm="forward")
    if dealias:
        d *= mask
    d[-1] = 0.0
    return 1j * grid.frequencies[:m] * d


def _to_half(u: Field) -> np.ndarray:
    """The Hermitian half c[:n/2+1] of a real field; a non-real field is refused."""
    if not u.is_real():
        raise ConfigurationError("the solver takes real fields; the coefficients are not Hermitian")
    return u.coeffs[: u.grid.n // 2 + 1]


def _from_half(half: np.ndarray) -> np.ndarray:
    """Full coefficients from the Hermitian half by closure, c_{-k} = conj(c_k)."""
    return np.concatenate([half, np.conj(half[-2:0:-1])])


def full_rhs(f: Field, sym: DispersionSymbol, dealias: bool = True, nonlinear: bool = True) -> Field:
    """d_t u = -i omega(xi) u_hat + d_x(u^2)^hat, as a Field."""
    lin = -1j * sym.omega(f.grid.frequencies) * f.coeffs
    lin[f.grid.nyquist_index] = 0.0
    if nonlinear:
        lin += _from_half(nonlinear_rhs(f.grid, _to_half(f), dealias))
    return Field(f.grid, lin)


class _Stepper:
    """One time step on the Hermitian half.  Subclasses set ``e_full`` (the
    exact linear propagator over dt) and ``_nonlinear_step``."""

    def __init__(self, grid: SpectralGrid, sym: DispersionSymbol, cfg: SolverConfig):
        self.dt = cfg.dt
        self.lam = -1j * sym.omega(grid.frequencies[: grid.n // 2 + 1])
        self.lam[-1] = 0.0
        self.nl = partial(nonlinear_rhs, grid, dealias=cfg.dealias) if cfg.nonlinear else None

    def __call__(self, c: np.ndarray) -> np.ndarray:
        out = self._nonlinear_step(c) if self.nl is not None else self.e_full * c
        out[-1] = 0.0
        return out


class _IFRK4(_Stepper):
    def __init__(self, grid: SpectralGrid, sym: DispersionSymbol, cfg: SolverConfig):
        super().__init__(grid, sym, cfg)
        self.e_half = np.exp(self.lam * cfg.dt / 2.0)
        self.e_full = self.e_half * self.e_half

    def _nonlinear_step(self, c: np.ndarray) -> np.ndarray:
        dt, nl = self.dt, self.nl
        e, e2 = self.e_half, self.e_full
        k1 = nl(c)
        k2 = nl(e * (c + 0.5 * dt * k1))
        k3 = nl(e * c + 0.5 * dt * k2)
        k4 = nl(e2 * c + dt * e * k3)
        return e2 * c + dt / 6.0 * (e2 * k1 + 2.0 * e * (k2 + k3) + k4)


class _ETDRK4(_Stepper):
    def __init__(self, grid: SpectralGrid, sym: DispersionSymbol, cfg: SolverConfig, n_contour: int = 32):
        super().__init__(grid, sym, cfg)
        h, lam = cfg.dt, self.lam
        self.e_full = np.exp(h * lam)
        self.e_half = np.exp(0.5 * h * lam)
        # full-circle contour (Kassam & Trefethen 2005): lam is imaginary, so
        # the upper-semicircle trick (real-part reduction) of the real-operator
        # case does not apply
        r = np.exp(2j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)
        lr = h * lam[:, None] + r[None, :]
        elr = np.exp(lr)
        self.q = h * ((np.exp(lr / 2.0) - 1.0) / lr).mean(axis=1)
        self.f1 = h * ((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3).mean(axis=1)
        self.f2 = h * ((2.0 + lr + elr * (lr - 2.0)) / lr**3).mean(axis=1)
        self.f3 = h * ((-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3).mean(axis=1)

    def _nonlinear_step(self, c: np.ndarray) -> np.ndarray:
        nl = self.nl
        nv = nl(c)
        a = self.e_half * c + self.q * nv
        na = nl(a)
        b = self.e_half * c + self.q * na
        nb = nl(b)
        cc = self.e_half * a + self.q * (2.0 * nb - nv)
        nc = nl(cc)
        return self.e_full * c + self.f1 * nv + 2.0 * self.f2 * (na + nb) + self.f3 * nc


def make_stepper(grid: SpectralGrid, sym: DispersionSymbol, cfg: SolverConfig):
    """The stepper of ``cfg.scheme``: maps the Hermitian half c[:n/2+1] at t to t + dt."""
    return _IFRK4(grid, sym, cfg) if cfg.scheme == "ifrk4" else _ETDRK4(grid, sym, cfg)


def step(u: Field, sym: DispersionSymbol, cfg: SolverConfig) -> Field:
    """Advance a real field one time step; raises BlowUpError on NaN/overflow."""
    c = make_stepper(u.grid, sym, cfg)(_to_half(u))
    if not np.all(np.isfinite(c)) or np.max(np.abs(c)) > BLOWUP_LIMIT:
        raise BlowUpError("solution blew up within one step", last_valid_time=0.0)
    return Field(u.grid, _from_half(c))


@dataclass(frozen=True)
class RunResult:
    record: TrajectoryRecord
    reports: list
    blowup: dict | None = None

    @property
    def blown_up(self) -> bool:
        return self.blowup is not None


class RunWriter:
    """Incremental CSV/JSONL writer; snapshots are resumable Field files.
    ``snapshots.csv`` and ``reports.jsonl`` start afresh with each writer."""

    def __init__(self, outdir):
        self.outdir = str(outdir)
        os.makedirs(self.outdir, exist_ok=True)
        self._count = 0
        self._index_path = os.path.join(self.outdir, "snapshots.csv")
        self._reports_path = os.path.join(self.outdir, "reports.jsonl")
        with open(self._index_path, "w") as fh:
            fh.write("index,t,file\n")
        open(self._reports_path, "w").close()

    def snapshot(self, t: float, f: Field):
        path = os.path.join(self.outdir, f"snapshot_{self._count:06d}.csv")
        save_field_csv(f, path)
        with open(self._index_path, "a") as fh:
            fh.write(f"{self._count},{t:.17g},{os.path.basename(path)}\n")
        self._count += 1

    def report(self, rep: EnergyReport):
        with open(self._reports_path, "a") as fh:
            fh.write(rep.to_json_line() + "\n")


def run(
    u0: Field,
    sym: DispersionSymbol,
    cfg: SolverConfig,
    diag_s: float = 0.0,
    diag_n0: float | None = 64.0,
    diag_every: int = 1,
    writer: RunWriter | None = None,
) -> RunResult:
    """Integrate a real field to t_final, recording snapshots and energy reports.

    Deterministic for fixed (u0, sym, cfg).  On blow-up the partial record
    is returned with ``blowup = {"time": t_last}``.  A ``u0`` that is not
    real raises ConfigurationError.
    """
    c = _to_half(u0)
    stepper = make_stepper(u0.grid, sym, cfg)
    times = [0.0]
    snaps = [u0.copy()]
    reports = []
    blow = None

    def diagnose(t, f):
        if diag_n0 is None:
            return
        if (len(times) - 1) % diag_every == 0:
            reports.append(modified_energy(f, sym, diag_s, diag_n0, t=t))
            if writer is not None:
                writer.report(reports[-1])

    if writer is not None:
        writer.snapshot(0.0, u0)
    diagnose(0.0, u0)
    t = 0.0
    for j in range(cfg.steps):
        c = stepper(c)
        t = (j + 1) * cfg.dt
        if not np.all(np.isfinite(c)) or np.max(np.abs(c)) > BLOWUP_LIMIT:
            blow = {"time": t, "last_valid_time": j * cfg.dt}
            break
        if (j + 1) % cfg.record_every == 0 or j + 1 == cfg.steps:
            f = Field(u0.grid, _from_half(c))
            times.append(t)
            snaps.append(f)
            if writer is not None:
                writer.snapshot(t, f)
            diagnose(t, f)
    record = TrajectoryRecord(
        np.array(times),
        snaps,
        metadata={"symbol": sym.to_dict(), "solver": vars(cfg) | {"steps": cfg.steps}},
    )
    return RunResult(record, reports, blow)


# -- scaling and convergence diagnostics ----------------------------------------

def scaling_check(
    sym: DispersionSymbol,
    lam: float,
    u0: Field,
    cfg: SolverConfig,
    record_count: int = 5,
) -> dict:
    """Compare the rescaled base run against the run from rescaled data.

    Base: u from u0 on (n, L) with cfg.  Scaled: v from lam^alpha u0(lam x)
    on (n, L/lam) with dt/lam^{alpha+1}.  Reports the relative sup-norm
    discrepancy of lam^alpha u(lam x, lam^{alpha+1} t) vs v(x, t) at matched
    record times and the critical-norm equality at t = 0.
    """
    if sym.kind != "pure_power":
        raise ConfigurationError("scaling invariance holds for pure_power symbols only")
    if lam <= 0 or 2.0 ** round(math.log2(lam)) != lam:
        raise ConfigurationError(f"lambda must be a power of two, got {lam}")
    a = sym.alpha
    grid1 = u0.grid
    grid2 = SpectralGrid(grid1.n, grid1.length / lam)
    v0 = Field(grid2, lam**a * u0.coeffs)  # lam^a u0(lam x): same k-indices
    every = max(1, cfg.steps // record_count)
    cfg1 = replace(cfg, record_every=every)
    cfg2 = replace(
        cfg, dt=cfg.dt / lam ** (a + 1.0), t_final=cfg.t_final / lam ** (a + 1.0),
        record_every=every,
    )
    r1 = run(u0, sym, cfg1, diag_n0=None)
    r2 = run(v0, sym, cfg2, diag_n0=None)
    if r1.blown_up or r2.blown_up:
        raise BlowUpError("scaling check run blew up", last_valid_time=0.0)
    discrepancies = []
    for f1, f2 in zip(r1.record.snapshots, r2.record.snapshots):
        pred = lam**a * f1.values()   # u at nodes x1_j == lam * x2_j
        got = f2.values()
        scale = np.max(np.abs(got)) or 1.0
        discrepancies.append(float(np.max(np.abs(pred - got)) / scale))
    s_crit = 0.5 - a
    n1 = homogeneous_norm(u0, s_crit)
    n2 = homogeneous_norm(v0, s_crit)
    return {
        "lambda": lam,
        "alpha": a,
        "times": [float(t) for t in r1.record.times],
        "sup_discrepancy": discrepancies,
        "max_discrepancy": max(discrepancies),
        "critical_norm_base": n1,
        "critical_norm_scaled": n2,
        "critical_norm_rel_diff": abs(n1 - n2) / n1 if n1 else 0.0,
    }


def self_convergence(
    u0: Field, sym: DispersionSymbol, cfg: SolverConfig, dts, refine: int = 8
) -> dict:
    """Temporal self-convergence study against a refined reference run."""
    dts = sorted(float(d) for d in dts)
    ref_cfg = replace(cfg, dt=dts[0] / refine, record_every=10**9)
    ref = run(u0, sym, ref_cfg, diag_n0=None).record.snapshots[-1]
    errs = []
    for dt in dts:
        cfgd = replace(cfg, dt=dt, record_every=10**9)
        last = run(u0, sym, cfgd, diag_n0=None).record.snapshots[-1]
        errs.append(float(np.linalg.norm(last.coeffs - ref.coeffs)))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    return {"dts": dts, "errors": errs, "slope": slope}
