"""Periodic spectral substrate: grids, real fields, transforms, multipliers.

Conventions used throughout the package:

* the line is replaced by a torus of period ``L``; collocation nodes are
  ``x_j = j L / n`` and frequencies ``xi_k = 2 pi k / L`` with
  ``k in {-n/2+1, ..., n/2}``;
* Fourier-series coefficients follow ``c_k = (1/L) * Int_0^L u(x) exp(-i xi_k x) dx``,
  so ``u(x) = sum_k c_k exp(i xi_k x)`` and Parseval reads
  ``Int u^2 dx = L * sum |c_k|^2``;
* cubic functionals carry a single factor of L:
  ``Int u v w dx = L * sum_{k1+k2+k3=0} a_{k1} b_{k2} c_{k3}``;
* the Nyquist mode has no Hermitian partner and is zeroed after every
  multiplier application; the mean mode k=0 is preserved.

All operations are pure functions of immutable inputs and are safe to call
from multiple threads.  A run of the solver is read as the ``(t, Field)``
records that ``solver.trajectory`` yields.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, EvaluationError

__all__ = [
    "SpectralGrid",
    "Field",
    "transform",
    "field_from_coeffs",
    "field_from_function",
    "zero_field",
    "apply_multiplier",
    "derivative",
    "convolution_product",
    "sobolev_norm",
    "homogeneous_norm",
    "bar_sobolev_norm",
    "l2_inner",
    "save_field_csv",
    "load_field_csv",
]

REAL_TOL = 1e-10  # Field.is_real: max |Im u| relative to max |u|


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid with its integer wavenumbers.

    ``n`` must be an even power of two (an integer, not a bool) so that
    dyadic ladders and the 2/3 dealiasing rule have exact integer boundaries;
    ``length`` must be a positive finite number.  The tables
    ``wavenumbers``, ``frequencies`` and ``dealias_mask`` are computed on
    first read and cached on the grid; they are read-only, so every caller
    shares one copy and an in-place write raises ``ValueError``.
    """

    n: int
    length: float = 2.0 * np.pi

    def __post_init__(self):
        n, length = self.n, self.length
        if not (_number(n) and isinstance(n, numbers.Integral)) or n <= 0 or n & (n - 1):
            raise ConfigurationError(f"grid size must be a power of two, got {n!r}")
        if n % 2 != 0:
            raise ConfigurationError("grid size must be even")
        if not (_number(length) and 0 < length < math.inf):
            raise ConfigurationError(f"period must be positive and finite, got {length!r}")

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * (self.length / self.n)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers in FFT order; the Nyquist slot is +n/2."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(int)
        k[self.n // 2] = self.n // 2
        return _read_only(k)

    @cached_property
    def frequencies(self) -> np.ndarray:
        return _read_only(2.0 * np.pi * self.wavenumbers / self.length)

    @property
    def nyquist_index(self) -> int:
        return self.n // 2

    def index_of(self, k: int) -> int:
        """FFT-order array index of integer wavenumber ``k``."""
        if not (-self.n // 2 < k <= self.n // 2):
            raise ConfigurationError(f"wavenumber {k} outside grid of size {self.n}")
        return k if k >= 0 else self.n + k

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: True on modes with |k| <= n/3."""
        return _read_only(np.abs(self.wavenumbers) <= self.n // 3)


def _number(x) -> bool:
    """A real number that is not a bool (a bool is an Integral, hence a Real)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Field:
    """A field on a periodic grid, stored by its Fourier-series coefficients.

    Fields produced by :func:`transform` of real samples are Hermitian
    symmetric (``c_{-k} = conj(c_k)``); multiplier applications with
    Hermitian symbols preserve that.
    """

    grid: SpectralGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.grid.n,):
            raise ConfigurationError(
                f"coefficient array has shape {c.shape}, expected ({self.grid.n},)"
            )
        if not np.all(np.isfinite(c)):
            raise ConfigurationError("coefficient array has non-finite entries")
        object.__setattr__(self, "coeffs", c)

    def values(self) -> np.ndarray:
        """Collocation values; real part is returned (imag must be roundoff)."""
        u = np.fft.ifft(self.coeffs) * self.grid.n
        return u.real

    def is_real(self) -> bool:
        """Imaginary part of the values within REAL_TOL of their max modulus."""
        u = np.fft.ifft(self.coeffs) * self.grid.n
        scale = np.max(np.abs(u)) or 1.0
        return float(np.max(np.abs(u.imag))) <= REAL_TOL * scale

    def copy(self) -> "Field":
        return Field(self.grid, self.coeffs.copy())


def _check_same_grid(*fields: Field):
    g0 = fields[0].grid
    for f in fields[1:]:
        if f.grid.n != g0.n or f.grid.length != g0.length:
            raise ConfigurationError("fields live on different grids")


def transform(grid: SpectralGrid, samples: np.ndarray) -> Field:
    """Forward transform of real collocation samples."""
    s = np.asarray(samples, dtype=float)
    if s.shape != (grid.n,):
        raise ConfigurationError(
            f"sample array has length {s.shape}, expected ({grid.n},)"
        )
    return Field(grid, np.fft.fft(s) / grid.n)


def field_from_coeffs(grid: SpectralGrid, pairs: dict) -> Field:
    """Build a field from a {wavenumber: coefficient} dict; Hermitian closure
    is the caller's responsibility (use real cos/sin combinations)."""
    c = np.zeros(grid.n, dtype=complex)
    for k, v in pairs.items():
        c[grid.index_of(int(k))] = v
    return Field(grid, c)


def field_from_function(grid: SpectralGrid, fn) -> Field:
    return transform(grid, fn(grid.nodes))


def zero_field(grid: SpectralGrid) -> Field:
    return Field(grid, np.zeros(grid.n, dtype=complex))


def apply_multiplier(f: Field, m) -> Field:
    """Apply a Fourier multiplier ``xi -> m(xi)``; the Nyquist mode is zeroed."""
    xi = f.grid.frequencies
    mv = np.asarray(m(xi), dtype=complex)
    if mv.shape != xi.shape:
        mv = np.broadcast_to(mv, xi.shape).astype(complex)
    bad = ~np.isfinite(mv)
    if np.any(bad):
        offender = xi[bad][0]
        raise EvaluationError(f"multiplier is not finite at xi = {offender!r}")
    out = f.coeffs * mv
    out[f.grid.nyquist_index] = 0.0
    return Field(f.grid, out)


def derivative(f: Field, order: int = 1) -> Field:
    return apply_multiplier(f, lambda xi: (1j * xi) ** order)


def convolution_product(f: Field, g: Field) -> Field:
    """Exact product at coefficient level via the direct convolution sum.

    O(n^2); output truncated to the grid band (modes beyond +-(n/2-1) drop).
    The oracle of the dealiased products.
    """
    _check_same_grid(f, g)
    n = f.grid.n
    k = f.grid.wavenumbers
    a = f.coeffs
    b = g.coeffs
    out = np.zeros(n, dtype=complex)
    ksum = k[:, None] + k[None, :]
    prod = a[:, None] * b[None, :]
    keep = np.abs(ksum) <= n // 2 - 1
    idx = np.where(ksum >= 0, ksum, n + ksum)
    np.add.at(out, idx[keep], prod[keep])
    return Field(f.grid, out)


def l2_inner(f: Field, g: Field) -> float:
    """Real L^2 pairing Int f g dx = L * sum f_k g_{-k}."""
    _check_same_grid(f, g)
    n = f.grid.n
    rev = g.coeffs[(n - np.arange(n)) % n].copy()
    rev[n // 2] = 0.0  # Nyquist has no partner
    return float(np.real(f.grid.length * np.sum(f.coeffs * rev)))


def sobolev_norm(f: Field, s: float) -> float:
    """H^s norm: (L * sum <xi_k>^{2s} |c_k|^2)^{1/2}."""
    xi = f.grid.frequencies
    w = (1.0 + xi**2) ** s
    return float(np.sqrt(f.grid.length * np.sum(w * np.abs(f.coeffs) ** 2)))


def homogeneous_norm(f: Field, s: float) -> float:
    """Homogeneous Sobolev norm; the mean mode is excluded."""
    xi = f.grid.frequencies
    m = xi != 0.0
    w = np.abs(xi[m]) ** (2.0 * s)
    return float(np.sqrt(f.grid.length * np.sum(w * np.abs(f.coeffs[m]) ** 2)))


def bar_sobolev_norm(f: Field, s: float) -> float:
    """Low-frequency-weighted norm with weight <1/|xi|>^2 <xi>^{2s}.

    The mean mode carries an infinite weight in the continuum definition and
    is excluded here; use mean-free data.
    """
    xi = f.grid.frequencies
    m = xi != 0.0
    w = (1.0 + xi[m] ** -2) * (1.0 + xi[m] ** 2) ** s
    return float(np.sqrt(f.grid.length * np.sum(w * np.abs(f.coeffs[m]) ** 2)))


# -- serialization: CSV with a JSON header line -------------------------------

_CSV_ROWS = 1024  # rows formatted and written at a time by save_field_csv
_ROW = "{:d},{:.17g},{:.17g}\n"  # one k,re,im row of a field CSV


def save_field_csv(f: Field, path):
    """Write a field as a JSON header line and one ``k,re,im`` row per mode,
    formatted in blocks of ``_CSV_ROWS`` rows so memory stays bounded."""
    k, c = f.grid.wavenumbers, f.coeffs
    with open(path, "w") as fh:
        fh.write("# " + json.dumps({"n": f.grid.n, "length": f.grid.length}) + "\n")
        fh.write("k,re_ck,im_ck\n")
        for i in range(0, f.grid.n, _CSV_ROWS):
            rows = slice(i, i + _CSV_ROWS)
            fh.write("".join(map(_ROW.format, k[rows].tolist(), c.real[rows].tolist(),
                                 c.imag[rows].tolist())))


def load_field_csv(path) -> Field:
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ConfigurationError(f"{path}: missing JSON header line")
        meta = json.loads(header[1:].strip())
        grid = SpectralGrid(int(meta["n"]), float(meta["length"]))
        fh.readline()  # column names
        c = np.zeros(grid.n, dtype=complex)
        for line in fh:
            if not line.strip():
                continue
            ks, re, im = line.strip().split(",")
            c[grid.index_of(int(ks))] = float(re) + 1j * float(im)
    return Field(grid, c)
