"""Conserved functionals and Fourier-defined modified energies.

Plain functionals (coefficient convention c_k = (1/L) Int u exp(-i xi_k x)):

    M(u)  = L sum |c_k|^2
    H(u)  = (1/2) L sum |omega(xi)/xi| |c_k|^2 + (1/3) Int u^3 dx

Modified energy at regularity s with cutoff N0 (nonhomogeneous ladder,
P_1 = P_{<=1}):

    E_N(u) = (1/2) ||P_N u||^2                    for N <= N0
           = (1/2) ||P_N u||^2 + E1_N(u)          for N >  N0   (c = 1)
    E^s(u, N0) = sum_{N >= 1} <N>^{2s} |E_N(u)|

with the cubic corrector (L^2-normalized triple sum, k1 = 0 excluded,
resonance guard |Omega_2| < 1e-10 |xi1| N^alpha counted and skipped)

    E1_N(u) = L^2 sum_{k1,k2} (chi1/Omega_2)(xi1,xi2) xi1
              u^{<<N}(xi1) u^{~N}(xi2) u^{~N}(-xi1-xi2).

Difference energy for w = u - v, z = u + v at regularity sigma
(homogeneous ladder, weight <1/N>^2 <N>^{2 sigma}, c~1 = c~2 = -1):

    E~_N = (1/2)||P_N w||^2 - E~1_N(z, w) - E~2_N(z, w)   for N > N0,
    chi~1 = -(1/2) <1/N>^2 chi1,     applied to  (z_<<N, w_~N, w_~N),
    chi~2 = <1/N>^2 (<N>/N)^{2 sigma} phi_N^2(xi1+xi2), weight (xi1+xi2),
            applied to  (w_<<N, z_~N, w_~N).

Both coercivity checks realize the lemmas' "N0 large enough" by a doubling
search with reported margins.

Every corrector sum runs through one `CorrectorPlan` per (grid, symbol, N),
built once and cached: it holds the kept index triples with Omega_2 and the
s-free chi1 on them, so evaluating a corrector for a field is a gather and a
sum.  s and sigma enter only through the scalar (<N>/N)^{2s}.  Each energy
and coercivity search makes one pass over the ladder and reuses its
per-scale records for every N0 candidate.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dyadic import DyadicLadder, lessless_multiplier, phi_n, tilde_phi_n
from .errors import ConfigurationError
from .multipliers import chi1_kernel, chi1_scale, resonance_guard
from .resonance import omega2
from .spectral import Field, SpectralGrid, dealiased_square, l2_inner
from .symbols import check_hyp2, lambda_half_multiplier, lwp_threshold

__all__ = [
    "mass",
    "hamiltonian",
    "band_energy",
    "CorrectorPlan",
    "corrector_plan",
    "corrector_term",
    "corrector_rate",
    "corrector_linear_rate",
    "modified_energy",
    "EnergyReport",
    "coercivity_check",
    "CoercivityResult",
    "difference_corrector1",
    "difference_corrector2",
    "difference_energy",
    "DifferenceEnergyReport",
    "difference_coercivity_check",
    "sigma_window",
    "check_sigma",
]


def mass(f: Field) -> float:
    """M(u) = Int u^2 dx = L sum |c_k|^2."""
    return float(f.grid.length * np.sum(np.abs(f.coeffs) ** 2))


def hamiltonian(f: Field, sym) -> float:
    """(1/2) Int |Lambda^{alpha/2} u|^2 + (1/3) Int u^3, cubic part dealiased."""
    sup = check_hyp2(sym)
    if not np.isfinite(sup):
        raise ConfigurationError(f"{sym.kind}: low-frequency bound fails, no Hamiltonian")
    if sym.kind == "pure_power":
        lam2 = lambda xi: np.abs(xi) ** sym.alpha
    else:
        lam_half = lambda_half_multiplier(sym)
        lam2 = lambda xi: lam_half(xi) ** 2
    xi = f.grid.frequencies
    quad = 0.5 * f.grid.length * float(np.sum(lam2(xi) * np.abs(f.coeffs) ** 2))
    cubic = l2_inner(f, dealiased_square(f)) / 3.0
    return quad + cubic


def band_energy(f: Field, N: float, ladder: DyadicLadder) -> float:
    """(1/2) ||P_N f||^2 with the ladder's weight at scale N."""
    w = ladder.weight(f.grid.frequencies, N)
    return 0.5 * f.grid.length * float(np.sum(np.abs(w * f.coeffs) ** 2))


# -- corrector engine ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CorrectorPlan:
    """The u-independent part of every corrector sum at one (grid, symbol, N).

    Pairs run over k1 in the <<N band (k1 != 0) and k2 in the ~N band whose
    closing mode k3 = -k1-k2 lies inside the grid.  `guards` counts those
    pairs with a guarded Omega_2 (`resonance_guard`).  The arrays hold only
    the kept pairs: no guard fires and phi_N(xi1+xi2) phi~_N(xi3) != 0, the
    factor every corrector carries.  `cut` below is the product of the slot
    cutoffs m<<(xi1) m~(xi2) m~(xi3).  Arrays are read-only.
    """

    length: float
    i1: np.ndarray     # grid indices of the three slots
    i2: np.ndarray
    i3: np.ndarray
    om2: np.ndarray    # Omega_2(xi1, xi2)
    chi1: np.ndarray   # chi1(xi1, xi2) at s = 0, times xi1 * cut
    chi2: np.ndarray   # phi_N^2(xi1+xi2) (xi1+xi2) * cut / Omega_2
    guards: int

    def pairing(self, weight, a, b, c) -> complex:
        """L^2 sum over the kept pairs of weight * a_{k1} b_{k2} c_{k3}."""
        return self.length**2 * np.sum(weight * a[self.i1] * b[self.i2] * c[self.i3])


@functools.lru_cache(maxsize=32)
def corrector_plan(grid: SpectralGrid, sym, N: float) -> CorrectorPlan:
    """The plan of scale N, built once and shared by every field on `grid`."""
    xi, k, n = grid.frequencies, grid.wavenumbers, grid.n
    mlow = lessless_multiplier(xi, N)
    tsim = tilde_phi_n(xi, N)
    low = np.flatnonzero((mlow > 0.0) & (k != 0))
    high = np.flatnonzero(tsim > 0.0)
    K3 = -(k[low][:, None] + k[high][None, :])
    a, b = np.nonzero(np.abs(K3) <= n // 2 - 1)
    i1, i2, k3 = low[a], high[b], K3[a, b]
    i3 = np.where(k3 >= 0, k3, n + k3)
    x1, x2 = xi[i1], xi[i2]
    om2 = omega2(sym, x1, x2)
    guard = resonance_guard(sym, x1, om2, N)
    keep = ~guard & (phi_n(x1 + x2, N) != 0.0) & (tsim[i3] != 0.0)
    i1, i2, i3, x1, x2, om2 = (v[keep] for v in (i1, i2, i3, x1, x2, om2))
    cut = mlow[i1] * tsim[i2] * tsim[i3]
    tot = x1 + x2
    chi1 = chi1_kernel(x1, x2, N, 0.0) * x1 * cut
    chi2 = phi_n(tot, N) ** 2 * tot * cut / om2
    for v in (i1, i2, i3, om2, chi1, chi2):
        v.flags.writeable = False
    return CorrectorPlan(grid.length, i1, i2, i3, om2, chi1, chi2, int(np.count_nonzero(guard)))


def corrector_term(f: Field, sym, N: float, s: float):
    """E1_N(u); returns (value, guard_skips).  Real for real fields."""
    plan = corrector_plan(f.grid, sym, N)
    c = f.coeffs
    val = plan.pairing(plan.chi1 / plan.om2, c, c, c)
    return chi1_scale(N, s) * float(val.real), plan.guards


def corrector_rate(u: Field, dudt: Field, sym, N: float, s: float) -> float:
    """d/dt E1_N(u(t)) assembled by the product rule from du/dt."""
    plan = corrector_plan(u.grid, sym, N)
    w = plan.chi1 / plan.om2
    cu, cd = u.coeffs, dudt.coeffs
    total = sum(plan.pairing(w, *combo) for combo in ((cd, cu, cu), (cu, cd, cu), (cu, cu, cd)))
    return chi1_scale(N, s) * float(total.real)


def corrector_linear_rate(u: Field, sym, N: float, s: float) -> float:
    """Linear-flow part of d/dt E1_N via the exact resonance cancellation:
    i L^2 sum chi1(xi1,xi2) xi1 u^{<<N} u^{~N} u^{~N} (off the guard set)."""
    plan = corrector_plan(u.grid, sym, N)
    c = u.coeffs
    return chi1_scale(N, s) * float((1j * plan.pairing(plan.chi1, c, c, c)).real)


# -- modified energy -----------------------------------------------------------

@dataclass(frozen=True)
class EnergyReport:
    """Conserved quantities and the modified energy at one time."""

    t: float
    mass: float
    hamiltonian: float
    hs_norm: float
    modified: float
    s: float
    n0: float
    per_scale: dict = field(default_factory=dict)   # N -> <N>^{2s} |E_N|
    corrector_share: float = 0.0                    # sum <N>^{2s} |E1_N|
    guard_skips: int = 0

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "t": self.t,
                "mass": self.mass,
                "hamiltonian": self.hamiltonian,
                "hs_norm": self.hs_norm,
                "modified": self.modified,
                "s": self.s,
                "n0": self.n0,
                "per_scale": {f"{N:g}": v for N, v in self.per_scale.items()},
                "corrector_share": self.corrector_share,
                "guard_skips": self.guard_skips,
            }
        )


class _Scale(NamedTuple):
    """One scale of a ladder pass; every N0 candidate reuses it."""

    N: float
    bracket: float
    band: float          # (1/2) ||P_N u||^2 with the ladder's weight
    energy: float        # E_N: `band` plus the correctors when N > N0
    corrections: tuple   # (E1_N,) or (E~1_N, E~2_N) when N > N0, else ()
    guards: int


def _energy_scales(f: Field, sym, s: float, N0: float) -> list:
    """Per-scale records of E^s(u, N0) over the nonhomogeneous ladder."""
    ladder = DyadicLadder.for_grid(f.grid, homogeneous=False)
    out = []
    for N in ladder.scales:
        bracket = (1.0 + N * N) ** s
        e_n = band_energy(f, N, ladder)
        if N > N0:
            corr, g = corrector_term(f, sym, N, s)
            out.append(_Scale(N, bracket, e_n, e_n + corr, (corr,), g))
        else:
            out.append(_Scale(N, bracket, e_n, e_n, (), 0))
    return out


def modified_energy(f: Field, sym, s: float, N0: float, t: float = 0.0) -> EnergyReport:
    """E^s(u, N0) over the nonhomogeneous ladder, with per-scale breakdown."""
    if N0 < 2:
        raise ConfigurationError(f"N0 must be >= 2, got {N0}")
    from .spectral import sobolev_norm  # local import to avoid cycle at module load

    scales = _energy_scales(f, sym, s, N0)
    per_scale = {r.N: r.bracket * abs(r.energy) for r in scales}
    return EnergyReport(
        t=t,
        mass=mass(f),
        hamiltonian=hamiltonian(f, sym),
        hs_norm=sobolev_norm(f, s),
        modified=sum(per_scale.values(), 0.0),
        s=s,
        n0=N0,
        per_scale=per_scale,
        corrector_share=sum((r.bracket * abs(c) for r in scales for c in r.corrections), 0.0),
        guard_skips=sum(r.guards for r in scales),
    )


@dataclass(frozen=True)
class CoercivityResult:
    passed: bool
    initial_n0: float
    passing_n0: float | None
    doublings: int
    lhs: float
    rhs: float
    history: tuple

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_json(self) -> str:
        return json.dumps(
            {
                "passed": self.passed,
                "initial_n0": self.initial_n0,
                "passing_n0": self.passing_n0,
                "doublings": self.doublings,
                "lhs": self.lhs,
                "rhs": self.rhs,
                "history": [list(h) for h in self.history],
            },
            indent=2,
        )


def _doubling_search(scales, N0: float, max_doublings: int) -> CoercivityResult:
    """Double N0 until |sum <N>^{2s}|E_N| - plain| <= (1/8) tail, from one ladder pass."""
    history = []
    n0 = float(N0)
    for d in range(max_doublings + 1):
        plain = tail = es = 0.0
        for r in scales:
            plain += r.bracket * r.band
            if r.N > n0:
                tail += 2.0 * r.bracket * r.band  # <N>^{2s} ||P_N u||^2
                es += r.bracket * abs(r.energy)
            else:
                es += r.bracket * abs(r.band)
        lhs, rhs = abs(es - plain), tail / 8.0
        history.append((n0, lhs, rhs))
        if lhs <= rhs or (lhs == 0.0 and rhs == 0.0):
            return CoercivityResult(True, float(N0), n0, d, lhs, rhs, tuple(history))
        n0 *= 2.0
    return CoercivityResult(False, float(N0), None, max_doublings, lhs, rhs, tuple(history))


def coercivity_check(f: Field, sym, s: float, N0: float, max_doublings: int = 10) -> CoercivityResult:
    """|E^s - (1/2) sum <N>^{2s}||P_N u||^2| <= (1/8) sum_{N>N0} <N>^{2s}||P_N u||^2,
    doubling N0 until the inequality holds (at most `max_doublings` times).

    A search that reaches N0 >= n/2 (2 pi grid) passes vacuously with
    lhs = rhs = 0: only the top scale N = n lies above N0, and both its band
    energy and its corrector vanish, because phi_n is 0 on every grid mode.
    """
    if not s > lwp_threshold(sym.alpha):
        raise ConfigurationError(
            f"coercivity check needs s > 3/2 - 5 alpha/4 = {lwp_threshold(sym.alpha)}, got s = {s}"
        )
    return _doubling_search(_energy_scales(f, sym, s, N0), N0, max_doublings)


# -- difference energy ---------------------------------------------------------

def sigma_window(alpha: float, s: float) -> tuple:
    """Admissible (lo, hi) for the difference regularity: lo open, hi closed."""
    return (-0.5 + alpha / 4.0, min(0.0, s - 2.0 + 1.5 * alpha))


def check_sigma(alpha: float, s: float, sigma: float):
    lo, hi = sigma_window(alpha, s)
    if not (lo < sigma <= hi):
        raise ConfigurationError(
            f"sigma = {sigma} outside the admissible window ({lo}, {hi}] "
            f"for alpha = {alpha}, s = {s}"
        )


def difference_corrector1(z: Field, w: Field, sym, N: float, sigma: float):
    """E~1_N(z, w) with chi~1 = -(1/2) <1/N>^2 chi1 in the low slot z."""
    plan = corrector_plan(w.grid, sym, N)
    val = plan.pairing(plan.chi1 / plan.om2, z.coeffs, w.coeffs, w.coeffs)
    return -0.5 * (1.0 + N**-2) * chi1_scale(N, sigma) * float(val.real), plan.guards


def difference_corrector2(z: Field, w: Field, sym, N: float, sigma: float):
    """E~2_N(z, w): chi~2 = <1/N>^2 (<N>/N)^{2 sigma} phi_N^2(xi1+xi2), weight
    (xi1+xi2), slots (w_<<N, z_~N, w_~N)."""
    plan = corrector_plan(w.grid, sym, N)
    val = plan.pairing(plan.chi2, w.coeffs, z.coeffs, w.coeffs)
    return (1.0 + N**-2) * chi1_scale(N, sigma) * float(val.real), plan.guards


@dataclass(frozen=True)
class DifferenceEnergyReport:
    t: float
    sigma: float
    n0: float
    weighted_norm: float       # sum <1/N>^2 <N>^{2 sigma} ||P_N w||^2
    modified: float            # E~^sigma(z, w, N0)
    per_scale: dict = field(default_factory=dict)
    corrector1_share: float = 0.0
    corrector2_share: float = 0.0
    guard_skips: int = 0

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "t": self.t,
                "sigma": self.sigma,
                "n0": self.n0,
                "weighted_norm": self.weighted_norm,
                "modified": self.modified,
                "per_scale": {f"{N:g}": v for N, v in self.per_scale.items()},
                "corrector1_share": self.corrector1_share,
                "corrector2_share": self.corrector2_share,
                "guard_skips": self.guard_skips,
            }
        )


def _bar_bracket(N: float, sigma: float) -> float:
    return (1.0 + N**-2) * (1.0 + N * N) ** sigma


def _difference_scales(z: Field, w: Field, sym, sigma: float, N0: float) -> list:
    """Per-scale records of E~^sigma(z, w, N0) over the homogeneous ladder."""
    ladder = DyadicLadder.for_grid(w.grid, homogeneous=True)
    out = []
    for N in ladder.scales:
        br = _bar_bracket(N, sigma)
        e_n = band_energy(w, N, ladder)
        if N > N0:
            c1, g1 = difference_corrector1(z, w, sym, N, sigma)
            c2, g2 = difference_corrector2(z, w, sym, N, sigma)
            out.append(_Scale(N, br, e_n, e_n - c1 - c2, (c1, c2), g1 + g2))  # c~1 = c~2 = -1
        else:
            out.append(_Scale(N, br, e_n, e_n, (), 0))
    return out


def difference_energy(
    z: Field, w: Field, sym, sigma: float, N0: float, s: float | None = None, t: float = 0.0
) -> DifferenceEnergyReport:
    """E~^sigma(z, w, N0) over the homogeneous ladder with <1/N>^2 <N>^{2s} weights.

    When `s` is given the sigma window for (alpha, s) is enforced.
    """
    if s is not None:
        check_sigma(sym.alpha, s, sigma)
    scales = _difference_scales(z, w, sym, sigma, N0)
    per_scale = {r.N: r.bracket * abs(r.energy) for r in scales}
    corrected = [r for r in scales if r.corrections]
    return DifferenceEnergyReport(
        t=t,
        sigma=sigma,
        n0=N0,
        weighted_norm=sum((r.bracket * 2.0 * r.band for r in scales), 0.0),
        modified=sum(per_scale.values(), 0.0),
        per_scale=per_scale,
        corrector1_share=sum((r.bracket * abs(r.corrections[0]) for r in corrected), 0.0),
        corrector2_share=sum((r.bracket * abs(r.corrections[1]) for r in corrected), 0.0),
        guard_skips=sum(r.guards for r in scales),
    )


def difference_coercivity_check(
    z: Field, w: Field, sym, sigma: float, N0: float, max_doublings: int = 10
) -> CoercivityResult:
    """Difference-energy coercivity with the <1/N>^2 <N>^{2 sigma} weights.

    Like `coercivity_check`, a search reaching N0 >= n/2 passes vacuously.
    """
    return _doubling_search(_difference_scales(z, w, sym, sigma, N0), N0, max_doublings)
