"""Stiff time integration of  d_t u + L u = d_x(u^2)  on the periodic grid.

The linear part is diagonal, so the integrating-factor RK4 scheme advances
the phases exactly (per-mode factor exp(-i omega(xi) dt)); ETDRK4, with
closed-form coefficients on stiff modes and contour means on the others, is
available for stiffer runs.  The quadratic nonlinearity is evaluated
pseudospectrally with the 2/3 rule (exact for this nonlinearity), so the
mean mode is conserved identically.

Solutions are real, so their coefficients are Hermitian, and a field carries
no Nyquist mode: the steppers carry only the half c[:n/2], k = 0..n/2-1, and
use ``rfft``/``irfft``.  ``trajectory`` refuses a non-real field and expands
the half to full coefficients (c_{-k} = conj(c_k), and 0 at n/2) only for the
records it yields.

The 2/3 rule makes d_x(u^2) exactly zero above |k| = n/3, so the working
length of the nonlinear step is the band k = 0..n//3 (the whole half when
dealiasing is off).  ``nonlinear_rhs`` reads only the band of its input
(``irfft`` pads the rest with zeros) and returns the band.  A stepper runs
its stages on the band and advances the modes above it linearly, by its
exact propagator ``e_full``; no mask is multiplied anywhere.

Each stepper owns a fixed workspace: its band-length stage arrays and the
scratch of ``nonlinear_rhs``, which writes into them through ``out=``.  The
stage arithmetic runs in place in the order of the formulas, so a step
allocates only the array it returns and gives the same bits as the
expression form.  The ETDRK4 contour means are built in blocks of
``_CONTOUR_ROWS`` rows, so no (rows, 32) matrix is ever held whole.

The solver only steps: ``trajectory`` is the one stepping loop and the one
way to read a run, a generator of (t, Field) records.  A caller that wants
the whole run collects the records itself, and ``final_state`` keeps only
the last.  Blow-up (max |c_k| > 1e12, NaN or inf) raises BlowUpError with
the blow-up and last valid times, after the records before it were yielded.
"""

from __future__ import annotations

import glob
import math
import numbers
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import BlowUpError, ConfigurationError
from .spectral import Field, SpectralGrid, _number, homogeneous_norm, save_field_csv
from .symbols import DispersionSymbol

__all__ = [
    "SolverConfig",
    "RunWriter",
    "nonlinear_rhs",
    "full_rhs",
    "make_stepper",
    "trajectory",
    "final_state",
    "scaling_check",
    "self_convergence",
]

BLOWUP_LIMIT = 1e12
SCALING_RECORDS = 5   # record times compared by scaling_check
REFINE = 8            # self_convergence's reference step is the smallest dt / REFINE


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
        for flag in ("dealias", "nonlinear"):
            value = getattr(self, flag)
            if not isinstance(value, bool):
                raise ConfigurationError(f"{flag} must be True or False, got {value!r}")
        dt, tf = self.dt, self.t_final
        if not (_number(dt) and _number(tf) and 0 < dt < math.inf and 0 < tf < math.inf):
            raise ConfigurationError(
                f"dt and t_final must be positive and finite numbers, got {dt!r} and {tf!r}"
            )
        every = self.record_every
        if not (_number(every) and isinstance(every, numbers.Integral)) or every < 1:
            raise ConfigurationError(f"record_every must be a positive integer, got {every!r}")
        steps = round(self.t_final / self.dt)
        if abs(steps * self.dt - self.t_final) > 1e-9 * self.t_final:
            raise ConfigurationError(
                f"dt = {self.dt} does not divide t_final = {self.t_final}"
            )

    @property
    def steps(self) -> int:
        return round(self.t_final / self.dt)


def nonlinear_rhs(
    grid: SpectralGrid,
    coeffs: np.ndarray,
    dealias: bool = True,
    out: np.ndarray | None = None,
    work: tuple | None = None,
) -> np.ndarray:
    """Coefficients of d_x(u^2) on the band k = 0..n//3 under the 2/3 rule,
    or on the whole half k = 0..n/2-1 when ``dealias`` is False.

    Only the band of ``coeffs`` (the half c[:n/2], or its band alone) is
    read: ``irfft`` pads it with zeros, which is the 2/3 rule's truncation
    of the input, and the product is kept on the band, its truncation of the
    output.  The result is zero above the band; ``full_rhs`` pads it there.
    ``out`` (complex, band length) receives the result and may be the band
    of ``coeffs`` itself; ``work`` is a ``_rhs_workspace(grid, dealias)``.
    A stepper passes both, so its calls allocate nothing; without them the
    call allocates its own.
    """
    ik, spec, u = work if work is not None else _rhs_workspace(grid, dealias)
    # norm="forward": u = sum_k c_k e^{ikx} and d = mean(u^2 e^{-ikx}), scaled by n exactly
    np.fft.irfft(coeffs[: ik.size], grid.n, norm="forward", out=u)
    np.multiply(u, u, out=u)
    d = np.fft.rfft(u, norm="forward", out=spec)
    return np.multiply(ik, d[: ik.size], out=out)


def _band(grid: SpectralGrid, dealias: bool) -> int:
    """Length of the working band: k = 0..n//3 under the 2/3 rule, else the half."""
    return grid.n // 3 + 1 if dealias else grid.n // 2


def _rhs_workspace(grid: SpectralGrid, dealias: bool) -> tuple:
    """Tables and scratch of ``nonlinear_rhs``: i xi on the band, as a complex
    array (so no ufunc casts a whole table per call), a complex half spectrum
    for ``rfft`` and a real field."""
    ik = 1j * grid.frequencies[: _band(grid, dealias)]
    return ik, np.empty(grid.n // 2 + 1, dtype=complex), np.empty(grid.n)


def _to_half(u: Field) -> np.ndarray:
    """The Hermitian half c[:n/2] of a real field; a non-real field is refused."""
    if not u.is_real():
        raise ConfigurationError("the solver takes real fields; the coefficients are not Hermitian")
    return u.coeffs[: u.grid.n // 2]


def _from_half(half: np.ndarray) -> np.ndarray:
    """Full coefficients from the Hermitian half by closure, c_{-k} = conj(c_k),
    with the one exact 0 at the Nyquist slot n/2."""
    return np.concatenate([half, [0.0], np.conj(half[:0:-1])])


def full_rhs(f: Field, sym: DispersionSymbol, dealias: bool = True, nonlinear: bool = True) -> Field:
    """d_t u = -i omega(xi) u_hat + d_x(u^2)^hat, as a Field."""
    lin = -1j * sym.omega(f.grid.frequencies) * f.coeffs
    if nonlinear:
        half = np.zeros(f.grid.n // 2, dtype=complex)
        nl = nonlinear_rhs(f.grid, _to_half(f), dealias)
        half[: nl.size] = nl
        lin += _from_half(half)
    return Field(f.grid, lin)


class _Stepper:
    """One time step on the Hermitian half.  A subclass builds its tables in
    ``_tables``: ``e_full``, the exact linear propagator over dt, on the
    whole half, and its stage tables on the band.  ``_nonlinear_step`` runs
    the stages on the band, on ``STAGES`` band-length arrays that it reuses
    every step, and writes the band of the result into ``out``; the modes
    above the band, where the nonlinear term is zero, take ``e_full * c``.
    The RHS writes into the stage arrays too, so a step allocates only the
    array it returns."""

    STAGES = 6

    def __init__(self, grid: SpectralGrid, sym: DispersionSymbol, cfg: SolverConfig):
        self.grid, self.dt, self.dealias, self.nonlinear = grid, cfg.dt, cfg.dealias, cfg.nonlinear
        self.band = _band(grid, cfg.dealias)
        self._tables(-1j * sym.omega(grid.frequencies[: grid.n // 2]), cfg.dt)
        # allocated after the tables, so not held while they are built
        self._work = _rhs_workspace(grid, cfg.dealias)
        self._stages = np.empty((self.STAGES, self.band), dtype=complex)

    def _nl(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        # the module-level name, looked up per call, so a rebinding of it is seen
        return nonlinear_rhs(self.grid, v, self.dealias, out=out, work=self._work)

    def __call__(self, c: np.ndarray) -> np.ndarray:
        m = self.band if self.nonlinear else 0
        out = np.empty_like(c)
        if m:
            self._nonlinear_step(c[:m], out[:m])
        np.multiply(self.e_full[m:], c[m:], out=out[m:])
        return out


class _IFRK4(_Stepper):
    def _tables(self, lam: np.ndarray, dt: float):
        e_half = np.exp(lam * dt / 2.0)
        # e_full is e_half^2, not exp(lam dt): the modes above the band take its bits
        self.e_full = e_half * e_half
        self.e_half = e_half[: self.band]
        self.dt_e = dt * self.e_half
        self.two_e = 2.0 * self.e_half

    def _nonlinear_step(self, c: np.ndarray, out: np.ndarray) -> None:
        # k2 = nl(e (c + dt/2 k1)), k3 = nl(e c + dt/2 k2), k4 = nl(e2 c + dt e k3),
        # e2 c + dt/6 (e2 k1 + 2 e (k2 + k3) + k4), evaluated in this order
        dt, e, e2 = self.dt, self.e_half, self.e_full[: c.size]
        k1, k2, k3, k4, a, b = self._stages
        self._nl(c, k1)
        np.multiply(0.5 * dt, k1, out=a)
        np.add(c, a, out=a)
        np.multiply(e, a, out=a)
        self._nl(a, k2)
        np.multiply(e, c, out=a)
        np.multiply(0.5 * dt, k2, out=b)
        np.add(a, b, out=a)
        self._nl(a, k3)
        np.multiply(e2, c, out=out)
        np.multiply(self.dt_e, k3, out=a)
        np.add(out, a, out=a)
        self._nl(a, k4)
        np.add(k2, k3, out=a)
        np.multiply(self.two_e, a, out=a)
        np.multiply(e2, k1, out=b)
        np.add(b, a, out=b)
        np.add(b, k4, out=b)
        np.multiply(dt / 6.0, b, out=b)
        np.add(out, b, out=out)


_CONTOUR_ROWS = 512  # rows of the ETDRK4 contour matrix built at a time
_CONTOUR_NODES = 32  # points of each ETDRK4 contour circle
# |h lam| from which the closed forms are used; below it they cancel, and the
# contour mean is used instead (both within 2e-14 relative on imaginary h lam)
_CLOSED_FORM_MIN_Z = 0.7


def _etdrk4_coefficients(h: float, lam: np.ndarray) -> tuple:
    """q, f1, f2, f3 of ETDRK4 (Cox & Matthews 2002) for z = h lam.

    Where |z| >= _CLOSED_FORM_MIN_Z they are the closed forms, e.g.
    f2 = h (2 + z + e^z (z - 2)) / z^3.  For smaller |z| those cancel, so the
    rows there take means over _CONTOUR_NODES points of a unit circle
    around z (Kassam & Trefethen 2005), built in blocks of _CONTOUR_ROWS
    rows.  A radius-1 mean cannot serve the stiff rows: its terms grow like
    |z|^2 and cancel, and its nodes pass near the pole at 0 when |z| is near
    1.  The circle is the full one: lam is imaginary, so the real-part
    reduction of the real-operator case does not apply.
    """
    z = h * lam
    q, f1, f2, f3 = (np.empty_like(lam) for _ in range(4))
    far = np.abs(z) >= _CLOSED_FORM_MIN_Z
    zf = z[far]
    ez, eh, z3 = np.exp(zf), np.exp(zf / 2.0), zf**3
    q[far] = h * np.expm1(zf / 2.0) / zf
    f1[far] = h * (-4.0 - zf + ez * (4.0 - 3.0 * zf + zf**2)) / z3
    # 2 + z + e^z (z - 2) with 1 + e^z = 2 e^{z/2} cosh(z/2): no loss where e^z ~ -1
    f2[far] = h * 2.0 * eh * (zf * np.cosh(zf / 2.0) - 2.0 * np.sinh(zf / 2.0)) / z3
    f3[far] = h * (-4.0 - 3.0 * zf - zf**2 + ez * (4.0 - zf)) / z3
    near = np.flatnonzero(~far)
    r = np.exp(2j * np.pi * (np.arange(_CONTOUR_NODES) + 0.5) / _CONTOUR_NODES)
    for i in range(0, near.size, _CONTOUR_ROWS):
        rows = near[i : i + _CONTOUR_ROWS]
        lr = z[rows, None] + r[None, :]
        elr = np.exp(lr)
        q[rows] = h * ((np.exp(lr / 2.0) - 1.0) / lr).mean(axis=1)
        f1[rows] = h * ((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3).mean(axis=1)
        f2[rows] = h * ((2.0 + lr + elr * (lr - 2.0)) / lr**3).mean(axis=1)
        f3[rows] = h * ((-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3).mean(axis=1)
    return q, f1, f2, f3


class _ETDRK4(_Stepper):
    def _tables(self, lam: np.ndarray, h: float):
        self.e_full = np.exp(h * lam)
        band = lam[: self.band]
        self.e_half = np.exp(0.5 * h * band)
        self.q, self.f1, self.f2, self.f3 = _etdrk4_coefficients(h, band)
        self.two_f2 = 2.0 * self.f2

    def _nonlinear_step(self, c: np.ndarray, out: np.ndarray) -> None:
        # a = eh c + q nv, b = eh c + q na, cc = eh a + q (2 nb - nv),
        # e c + f1 nv + 2 f2 (na + nb) + f3 nc, evaluated in this order
        eh, q = self.e_half, self.q
        nv, na, nb, nc, a, b = self._stages
        self._nl(c, nv)
        np.multiply(eh, c, out=nc)  # eh c, held in nc until nc is due
        np.multiply(q, nv, out=a)
        np.add(nc, a, out=a)
        self._nl(a, na)
        np.multiply(q, na, out=b)
        np.add(nc, b, out=b)
        self._nl(b, nb)
        np.multiply(2.0, nb, out=b)
        np.subtract(b, nv, out=b)
        np.multiply(q, b, out=b)
        np.multiply(eh, a, out=a)
        np.add(a, b, out=a)
        self._nl(a, nc)
        np.multiply(self.e_full[: c.size], c, out=out)
        np.multiply(self.f1, nv, out=a)
        np.add(out, a, out=out)
        np.add(na, nb, out=a)
        np.multiply(self.two_f2, a, out=a)
        np.add(out, a, out=out)
        np.multiply(self.f3, nc, out=a)
        np.add(out, a, out=out)


def make_stepper(grid: SpectralGrid, sym: DispersionSymbol, cfg: SolverConfig):
    """The stepper of ``cfg.scheme``: maps the Hermitian half c[:n/2] at t to t + dt."""
    return _IFRK4(grid, sym, cfg) if cfg.scheme == "ifrk4" else _ETDRK4(grid, sym, cfg)


def _diverged(c: np.ndarray) -> bool:
    """max |c_k| above BLOWUP_LIMIT, or not a number: one pass over c."""
    m = np.max(np.abs(c))
    return not m <= BLOWUP_LIMIT  # NaN compares false, inf is above the limit


def trajectory(u0: Field, sym: DispersionSymbol, cfg: SolverConfig):
    """Integrate a real field to t_final, yielding (t, Field) at t = 0 and at
    each record time (every ``record_every`` steps and at t_final).

    Deterministic for fixed (u0, sym, cfg).  On blow-up raises BlowUpError
    with the blow-up time and the last valid time; a ``u0`` that is not real
    raises ConfigurationError.  Each yielded Field is a new array.
    """
    c = _to_half(u0)
    stepper = make_stepper(u0.grid, sym, cfg)
    yield 0.0, u0.copy()
    for j in range(cfg.steps):
        c = stepper(c)
        t = (j + 1) * cfg.dt
        if _diverged(c):
            raise BlowUpError(f"solution blew up at t = {t}", time=t, last_valid_time=j * cfg.dt)
        if (j + 1) % cfg.record_every == 0 or j + 1 == cfg.steps:
            yield t, Field(u0.grid, _from_half(c))


def final_state(u0: Field, sym: DispersionSymbol, cfg: SolverConfig) -> Field:
    """The state at t_final (``cfg.record_every`` is ignored); raises
    BlowUpError, as ``trajectory`` does, if the run blows up first."""
    for _, f in trajectory(u0, sym, replace(cfg, record_every=cfg.steps)):
        pass
    return f


class RunWriter:
    """Snapshot and report files of one run directory; snapshots are
    resumable Field files.  A caller hands it each record as it arrives.
    Each writer starts its directory afresh: it deletes the ``snapshot_*.csv``
    files of an earlier run and truncates ``snapshots.csv`` and
    ``reports.jsonl``; other files are left alone."""

    def __init__(self, outdir):
        self.outdir = str(outdir)
        os.makedirs(self.outdir, exist_ok=True)
        for path in glob.glob(os.path.join(glob.escape(self.outdir), "snapshot_*.csv")):
            if os.path.isfile(path):
                os.remove(path)
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

    def report(self, rep):
        """Append one report (anything with ``to_json_line``) to reports.jsonl."""
        with open(self._reports_path, "a") as fh:
            fh.write(rep.to_json_line() + "\n")


# -- scaling and convergence diagnostics ----------------------------------------

def scaling_check(
    sym: DispersionSymbol,
    lam: float,
    u0: Field,
    cfg: SolverConfig,
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
    every = max(1, cfg.steps // SCALING_RECORDS)
    cfg1 = replace(cfg, record_every=every)
    cfg2 = replace(
        cfg, dt=cfg.dt / lam ** (a + 1.0), t_final=cfg.t_final / lam ** (a + 1.0),
        record_every=every,
    )
    times, discrepancies = [], []
    for (t, f1), (_, f2) in zip(trajectory(u0, sym, cfg1), trajectory(v0, sym, cfg2)):
        pred = lam**a * f1.values()   # u at nodes x1_j == lam * x2_j
        got = f2.values()
        scale = np.max(np.abs(got)) or 1.0
        times.append(t)
        discrepancies.append(float(np.max(np.abs(pred - got)) / scale))
    s_crit = 0.5 - a
    n1 = homogeneous_norm(u0, s_crit)
    n2 = homogeneous_norm(v0, s_crit)
    return {
        "lambda": lam,
        "alpha": a,
        "times": times,
        "sup_discrepancy": discrepancies,
        "max_discrepancy": max(discrepancies),
        "critical_norm_base": n1,
        "critical_norm_scaled": n2,
        "critical_norm_rel_diff": abs(n1 - n2) / n1 if n1 else 0.0,
    }


def self_convergence(u0: Field, sym: DispersionSymbol, cfg: SolverConfig, dts) -> dict:
    """Temporal self-convergence study against a refined reference run; the
    slope is None (undefined) when an error is 0.  A run that blows up before
    t_final raises BlowUpError."""
    dts = sorted(float(d) for d in dts)
    ref = final_state(u0, sym, replace(cfg, dt=dts[0] / REFINE))
    errs = []
    for dt in dts:
        last = final_state(u0, sym, replace(cfg, dt=dt))
        errs.append(float(np.linalg.norm(last.coeffs - ref.coeffs)))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0]) if min(errs) > 0 else None
    return {"dts": dts, "errors": errs, "slope": slope}
