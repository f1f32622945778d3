"""Smooth dyadic cutoffs and their per-grid tables.

The mother cutoff is the standard C-infinity bump

    eta(xi) = 1                        for |xi| <= 1
            = 0                        for |xi| >= 2
            = g(2-|xi|) / (g(2-|xi|) + g(|xi|-1))   in between,

with g(t) = exp(-1/t) for t > 0.  Derived cutoffs:

    phi(xi)       = eta(xi) - eta(2 xi),      supp in {1/2 <= |xi| <= 2}
    phi_N(xi)     = phi(xi / N)
    tilde_phi(xi) = eta(xi/2) - eta(4 xi),    == 1 on +-[1/2, 2], supp +-[1/4, 4]

Because dyadic rescaling is exact in binary floating point, the partitions
sum_{N} phi_N(xi) = 1 (xi != 0) and eta + sum_{N >= 2} phi_N = 1 telescope to
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
from .spectral import Field, SpectralGrid, _read_only

__all__ = [
    "eta",
    "eta_prime",
    "phi",
    "phi_prime",
    "phi_n",
    "tilde_phi",
    "tilde_phi_n",
    "low_multiplier",
    "lessless_multiplier",
    "DyadicLadder",
    "CutoffTable",
    "cutoff_table",
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


def cutoff_table(grid: SpectralGrid, homogeneous: bool = True) -> CutoffTable:
    """The one cached phi_N table of `grid`'s ladder (see `CutoffTable`), however
    `homogeneous` is passed."""
    return _cutoff_table(grid, bool(homogeneous))


@functools.lru_cache(maxsize=16)
def _cutoff_table(grid: SpectralGrid, homogeneous: bool) -> CutoffTable:
    ladder = DyadicLadder.for_grid(grid, homogeneous)
    bottom = None if homogeneous else low_multiplier  # P_1 = P_{<=1} keeps every low frequency
    return CutoffTable(grid, ladder, _rows(grid, ladder.scales, phi_n, bottom))

