"""Smooth dyadic cutoffs and frequency / modulation projectors.

The mother cutoff is the standard C-infinity bump

    eta(xi) = 1                        for |xi| <= 1
            = 0                        for |xi| >= 2
            = g(2-|xi|) / (g(2-|xi|) + g(|xi|-1))   in between,

with g(t) = exp(-1/t) for t > 0.  Derived cutoffs:

    phi(xi)       = eta(xi) - eta(2 xi),      supp in {1/2 <= |xi| <= 2}
    phi_N(xi)     = phi(xi / N)
    tilde_phi(xi) = eta(xi/2) - eta(4 xi),    == 1 on +-[1/2, 2], supp +-[1/4, 4]
    psi_L(xi,tau) = phi_L(tau - omega(xi))    for L >= 2,
    psi_1(xi,tau) = eta(tau - omega(xi)).

Because dyadic rescaling is exact in binary floating point, the partitions
sum_{N} phi_N(xi) = 1 (xi != 0) and sum_{L >= 1} psi_L = 1 telescope to
machine zeros on the covered range.

The band shorthands are fixed as:  "<< N" means P_{<= N/32} and "~ N" the
tilde_phi band +-[N/4, 4N].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .spectral import Field, SpectralGrid, TrajectoryRecord, apply_multiplier

__all__ = [
    "eta",
    "eta_prime",
    "phi",
    "phi_prime",
    "phi_n",
    "tilde_phi",
    "tilde_phi_n",
    "low_multiplier",
    "high_multiplier",
    "lessless_multiplier",
    "CutoffFamily",
    "DyadicLadder",
    "project",
    "project_band",
    "modulation_weights",
    "modulation_project",
    "modulation_project_low",
    "time_window",
    "export_cutoff_table",
]

LESSLESS_FACTOR = 32  # "<< N" == P_{<= N/32}


def _g(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = t > 1e-3  # exp(-1/t) underflows long before this matters
    out[m] = np.exp(-1.0 / t[m])
    return out


def _g_prime(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = t > 1e-3
    out[m] = np.exp(-1.0 / t[m]) / t[m] ** 2
    return out


def eta(x):
    """Smooth even bump: 1 on [-1,1], 0 outside (-2,2)."""
    a = np.abs(np.asarray(x, dtype=float))
    out = np.ones_like(a)
    out[a >= 2.0] = 0.0
    mid = (a > 1.0) & (a < 2.0)
    am = a[mid]
    p = _g(2.0 - am)
    q = _g(am - 1.0)
    out[mid] = p / (p + q)
    return out


def eta_prime(x):
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    out = np.zeros_like(a)
    mid = (a > 1.0) & (a < 2.0)
    am = a[mid]
    p = _g(2.0 - am)
    q = _g(am - 1.0)
    out[mid] = (-_g_prime(2.0 - am) * q - p * _g_prime(am - 1.0)) / (p + q) ** 2
    return out * np.sign(x)


def phi(x):
    x = np.asarray(x, dtype=float)
    return eta(x) - eta(2.0 * x)


def phi_prime(x):
    x = np.asarray(x, dtype=float)
    return eta_prime(x) - 2.0 * eta_prime(2.0 * x)


def phi_n(x, N: float):
    return phi(np.asarray(x, dtype=float) / N)


def tilde_phi(x):
    x = np.asarray(x, dtype=float)
    return eta(x / 2.0) - eta(4.0 * x)


def tilde_phi_n(x, N: float):
    return tilde_phi(np.asarray(x, dtype=float) / N)


def low_multiplier(x, N: float):
    """P_{<=N} weight: eta(xi/N); includes the mean mode."""
    return eta(np.asarray(x, dtype=float) / N)


def high_multiplier(x, N: float):
    """P_{>=N} weight: 1 - eta(2 xi / N); kills the mean mode."""
    return 1.0 - eta(2.0 * np.asarray(x, dtype=float) / N)


def lessless_multiplier(x, N: float):
    """'<< N' weight: P_{<= N/32}; support |xi| <= N/16, plateau |xi| <= N/32."""
    return eta(LESSLESS_FACTOR * np.asarray(x, dtype=float) / N)


@dataclass(frozen=True)
class DyadicLadder:
    """Dyadic scales covering a grid's nonzero frequencies.

    Homogeneous mode ranges over 2^Z within the grid support; nonhomogeneous
    mode starts from N = 1 with P_1 = P_{<=1} keeping all low frequencies
    together.
    """

    scales: tuple
    homogeneous: bool = True

    @staticmethod
    def for_grid(grid: SpectralGrid, homogeneous: bool = True) -> "DyadicLadder":
        xi_min = 2.0 * np.pi / grid.length
        xi_max = abs(grid.frequencies).max()
        k_lo = math.floor(math.log2(xi_min))
        k_hi = math.ceil(math.log2(2.0 * xi_max))
        if homogeneous:
            scales = tuple(2.0**k for k in range(k_lo, k_hi + 1))
        else:
            scales = tuple(2.0**k for k in range(0, max(k_hi, 0) + 1))
        return DyadicLadder(scales, homogeneous)

    @staticmethod
    def modulation(max_offset: float) -> "DyadicLadder":
        """Nonhomogeneous ladder 1, 2, ..., covering |tau - omega| <= max_offset."""
        k_hi = max(0, math.ceil(math.log2(max(max_offset, 1.0))))
        return DyadicLadder(tuple(2.0**k for k in range(0, k_hi + 1)), False)

    def weight(self, x, N: float):
        """phi_N, or the nonhomogeneous catch-all eta at the bottom scale."""
        if not self.homogeneous and N == self.scales[0]:
            return eta(np.asarray(x, dtype=float) / N)
        return phi_n(x, N)


def project(f: Field, N: float) -> Field:
    """Littlewood-Paley piece P_N f (homogeneous phi_N weight)."""
    return apply_multiplier(f, lambda xi: phi_n(xi, N))


_BAND_KINDS = ("le", "ge", "sim", "lesssim", "gtrsim", "ll")


def project_band(f: Field, kind: str, N: float) -> Field:
    """Band projector; kind in {le, ge, sim, lesssim, gtrsim, ll}."""
    if kind not in _BAND_KINDS:
        raise ConfigurationError(f"unknown band kind {kind!r}; use one of {_BAND_KINDS}")
    if kind == "le":
        return apply_multiplier(f, lambda xi: low_multiplier(xi, N))
    if kind == "ge":
        return apply_multiplier(f, lambda xi: high_multiplier(xi, N))
    if kind == "sim":
        return apply_multiplier(f, lambda xi: tilde_phi_n(xi, N))
    if kind == "ll":
        return apply_multiplier(f, lambda xi: lessless_multiplier(xi, N))
    ladder = DyadicLadder.for_grid(f.grid, homogeneous=True)
    if kind == "lesssim":
        scales = [K for K in ladder.scales if K <= N]
    else:
        scales = [K for K in ladder.scales if K >= N]

    def mult(xi):
        acc = np.zeros_like(np.asarray(xi, dtype=float))
        for K in scales:
            acc = acc + tilde_phi_n(xi, K)
        return acc

    return apply_multiplier(f, mult)


# -- modulation projections ----------------------------------------------------

def time_window(n_times: int, fraction: float = 0.1) -> np.ndarray:
    """Raised-cosine taper over `fraction` of the record at each end."""
    w = np.ones(n_times)
    ramp = int(math.floor(fraction * n_times))
    if ramp > 0:
        j = np.arange(ramp)
        rise = 0.5 * (1.0 - np.cos(np.pi * (j + 0.5) / ramp))
        w[:ramp] = rise
        w[-ramp:] = rise[::-1]
    return w


def _time_span(record: TrajectoryRecord) -> float:
    """nt dt, the period of the record's time transform (1.0 for one record)."""
    t = record.times
    return t[-1] - t[0] + (t[1] - t[0] if len(t) > 1 else 1.0)


def _tau_grid(record: TrajectoryRecord) -> np.ndarray:
    if not record.is_uniform():
        raise ConfigurationError("time transforms need uniform time sampling")
    nt = len(record.times)
    m = np.fft.fftfreq(nt, d=1.0 / nt)
    return 2.0 * np.pi * m / _time_span(record)


def modulation_weights(record: TrajectoryRecord, sym, L: float, cumulative: bool = False):
    """psi_L(xi, tau) table on the record's (xi, tau) grid.

    psi_1 = eta(tau - omega(xi)) so that sum_{L>=1} psi_L == 1 exactly;
    cumulative=True gives the low-modulation weight eta((tau-omega)/L).
    """
    xi = record.grid.frequencies
    tau = _tau_grid(record)
    d = tau[None, :] - sym.omega(xi)[:, None]
    if cumulative:
        return eta(d / L)
    if L == 1:
        return eta(d)
    return phi(d / L)


def _windowed_time_transform(record: TrajectoryRecord):
    C = record.coefficient_matrix()
    w = time_window(len(record.times))
    # ifft along time puts the free-evolution energy at tau = omega(xi)
    return np.fft.ifft(C * w[None, :], axis=1)


def modulation_project(
    record: TrajectoryRecord, L: float, sym, cumulative: bool = False
) -> TrajectoryRecord:
    """Q_L (or Q_{<=L} with cumulative=True) applied to a windowed record."""
    Chat = _windowed_time_transform(record)
    Chat *= modulation_weights(record, sym, L, cumulative=cumulative)
    C = np.fft.fft(Chat, axis=1)
    snaps = [Field(record.grid, C[:, j]) for j in range(C.shape[1])]
    meta = dict(record.metadata)
    meta["modulation"] = {
        "L": L,
        "cumulative": cumulative,
        "window_fraction": 0.1,
        "window_length": float(record.times[-1] - record.times[0]),
    }
    return TrajectoryRecord(record.times, snaps, meta)


def modulation_project_low(record: TrajectoryRecord, L: float, sym) -> TrajectoryRecord:
    return modulation_project(record, L, sym, cumulative=True)


@dataclass(frozen=True)
class CutoffFamily:
    """Cutoff tables for one grid (precomputed, immutable)."""

    grid: SpectralGrid
    ladder: DyadicLadder

    @staticmethod
    def for_grid(grid: SpectralGrid, homogeneous: bool = True) -> "CutoffFamily":
        return CutoffFamily(grid, DyadicLadder.for_grid(grid, homogeneous))

    def partition_residual(self) -> float:
        """max_xi |sum_N phi_N(xi) - 1| over nonzero grid frequencies."""
        xi = self.grid.frequencies
        m = xi != 0.0
        acc = np.zeros(m.sum())
        for N in self.ladder.scales:
            acc += phi_n(xi[m], N)
        return float(np.max(np.abs(acc - 1.0)))


def export_cutoff_table(grid: SpectralGrid, scales, path):
    """CSV of (xi, eta, phi_N...) for plotting."""
    xi = np.sort(grid.frequencies)
    with open(path, "w") as fh:
        head = ["xi", "eta"] + [f"phi_N{N:g}" for N in scales]
        fh.write(",".join(head) + "\n")
        cols = [eta(xi)] + [phi_n(xi, N) for N in scales]
        for i, x in enumerate(xi):
            row = [f"{x:.17g}"] + [f"{c[i]:.17g}" for c in cols]
            fh.write(",".join(row) + "\n")
