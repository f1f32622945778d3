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

Every ladder pass reads its cutoffs from one cached `CutoffTable` per (grid,
ladder kind): read-only phi_N rows (eta at a nonhomogeneous bottom scale),
plus tilde_phi_N and "<< N" rows built when first read.  Band energies and
the partition residual come from those rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .spectral import Field, SpectralGrid, TrajectoryRecord, _read_only, apply_multiplier

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
    "DyadicLadder",
    "CutoffTable",
    "cutoff_table",
    "project",
    "project_band",
    "modulation_weights",
    "modulation_project",
    "time_window",
]

LESSLESS_FACTOR = 32  # "<< N" == P_{<= N/32}
ROW_BLOCK = 2**14  # table entries evaluated per array call by _rows


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


def _eta_into(a):
    """eta(a), written over the float array `a`: a table block makes no second float block."""
    a = np.abs(a, out=np.asarray(a, dtype=float))
    mid = (a > 1.0) & (a < 2.0)
    am = a[mid]
    np.copyto(a, ~(a >= 2.0))  # 1 below 2 and 0 from 2 on; the band (1, 2) is set next
    p = _g(2.0 - am)
    q = _g(am - 1.0)
    a[mid] = p / (p + q)
    return a


def _eta_pair(y, a: float, b: float):
    """eta(a y) - eta(b y) for powers of two a, b, written over the float array `y`."""
    other = _eta_into(b * y)
    y *= a
    return _eta_into(y) - other


def eta(x):
    """Smooth even bump: 1 on [-1,1], 0 outside (-2,2)."""
    return _eta_into(np.array(x, dtype=float))


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
    return _eta_pair(np.array(x, dtype=float), 1.0, 2.0)


def phi_prime(x):
    x = np.asarray(x, dtype=float)
    return eta_prime(x) - 2.0 * eta_prime(2.0 * x)


def phi_n(x, N: float):
    return _eta_pair(np.asarray(x, dtype=float) / N, 1.0, 2.0)


def tilde_phi(x):
    return _eta_pair(np.array(x, dtype=float), 0.5, 4.0)


def tilde_phi_n(x, N: float):
    return _eta_pair(np.asarray(x, dtype=float) / N, 0.5, 4.0)


def low_multiplier(x, N: float):
    """P_{<=N} weight: eta(xi/N); includes the mean mode."""
    return _eta_into(np.asarray(x, dtype=float) / N)


def high_multiplier(x, N: float):
    """P_{>=N} weight: 1 - eta(2 xi / N); kills the mean mode."""
    return 1.0 - eta(2.0 * np.asarray(x, dtype=float) / N)


def lessless_multiplier(x, N: float):
    """'<< N' weight: P_{<= N/32}; support |xi| <= N/16, plateau |xi| <= N/32."""
    return _eta_into(LESSLESS_FACTOR * np.asarray(x, dtype=float) / N)


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


def _rows(grid: SpectralGrid, scales, cutoff, first=None) -> np.ndarray:
    """Read-only (scales, n) table of cutoff(xi, N), first(xi, N) on row 0 if given: one
    call per block of at most ROW_BLOCK entries (or one row) with N a column, each
    entry the float of a per-row call, so the temporaries stay bounded."""
    rows = np.empty((len(scales), grid.n))
    step = max(1, ROW_BLOCK // grid.n)
    for i in range(0, len(scales), step):
        rows[i:i + step] = cutoff(grid.frequencies, np.array(scales[i:i + step])[:, None])
    if first is not None:
        rows[0] = first(grid.frequencies, scales[0])
    return _read_only(rows)


@dataclass(frozen=True, eq=False)
class CutoffTable:
    """The ladder's cutoffs on one grid, one read-only row per scale.

    `phi[j]` is phi_N at N = ladder.scales[j] (eta at a nonhomogeneous bottom
    scale).  `tilde` (tilde_phi_N) and `lessless` ("<< N") are built on first
    read; only corrector plans read them.  `_rows` builds each in row blocks,
    bit-identical to one call per scale.  :func:`cutoff_table` caches one.
    """

    grid: SpectralGrid
    ladder: DyadicLadder
    phi: np.ndarray

    @functools.cached_property
    def tilde(self) -> np.ndarray:
        return _rows(self.grid, self.ladder.scales, tilde_phi_n)

    @functools.cached_property
    def lessless(self) -> np.ndarray:
        return _rows(self.grid, self.ladder.scales, lessless_multiplier)

    def index(self, N: float) -> int:
        """Row of scale N; a scale off the ladder is refused."""
        try:
            return self.ladder.scales.index(N)
        except ValueError:
            raise ConfigurationError(f"N = {N:g} is not a scale of this grid's ladder") from None

    def band_energies(self, f: Field) -> list:
        """(1/2) ||P_N f||^2 = (1/2) L sum |w c|^2 for every row w, in ladder order."""
        if f.grid != self.grid:
            raise ConfigurationError("field and cutoff table live on different grids")
        L, c = self.grid.length, f.coeffs
        return [0.5 * L * float(np.sum(np.abs(w * c) ** 2)) for w in self.phi]

    def partition_residual(self) -> float:
        """max_xi |sum_N phi_N(xi) - 1| over nonzero grid frequencies."""
        m = self.grid.frequencies != 0.0
        return float(np.max(np.abs(self.phi[:, m].sum(axis=0) - 1.0)))


@functools.lru_cache(maxsize=16)
def cutoff_table(grid: SpectralGrid, homogeneous: bool = True) -> CutoffTable:
    """The one cached phi_N table of `grid`'s ladder (see `CutoffTable`)."""
    ladder = DyadicLadder.for_grid(grid, homogeneous)
    bottom = None if homogeneous else low_multiplier  # P_1 = P_{<=1} keeps every low frequency
    return CutoffTable(grid, ladder, _rows(grid, ladder.scales, phi_n, bottom))


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
    table = cutoff_table(f.grid)
    scales = np.array(table.ladder.scales)
    keep = scales <= N if kind == "lesssim" else scales >= N
    return apply_multiplier(f, lambda xi: table.tilde[keep].sum(axis=0))


# -- modulation projections ----------------------------------------------------

TAPER_FRACTION = 0.1  # share of the record that time_window tapers at each end


def time_window(n_times: int) -> np.ndarray:
    """Raised-cosine taper over TAPER_FRACTION of the record at each end."""
    w = np.ones(n_times)
    ramp = int(math.floor(TAPER_FRACTION * n_times))
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
    """psi_L table on the record's (tau, xi) grid, shaped as ``record.coeffs``.

    psi_1 = eta(tau - omega(xi)) so that sum_{L>=1} psi_L == 1 exactly;
    cumulative=True gives the low-modulation weight eta((tau-omega)/L).
    """
    xi = record.grid.frequencies
    tau = _tau_grid(record)
    d = tau[:, None] - sym.omega(xi)[None, :]
    if cumulative:
        return eta(d / L)
    if L == 1:
        return eta(d)
    return phi(d / L)


def _windowed_time_transform(record: TrajectoryRecord):
    w = time_window(len(record.times))
    # ifft along time puts the free-evolution energy at tau = omega(xi)
    return np.fft.ifft(record.coeffs * w[:, None], axis=0)


def modulation_project(
    record: TrajectoryRecord, L: float, sym, cumulative: bool = False
) -> TrajectoryRecord:
    """Q_L (or Q_{<=L} with cumulative=True) applied to a windowed record."""
    Chat = _windowed_time_transform(record)
    Chat *= modulation_weights(record, sym, L, cumulative=cumulative)
    return TrajectoryRecord(record.grid, record.times, np.fft.fft(Chat, axis=0))
