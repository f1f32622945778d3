"""Periodic spectral substrate: grids, real fields, transforms, norms, snapshots.

Conventions used throughout the package:

* the line is replaced by a torus of period ``L``; collocation nodes are
  ``x_j = j L / n`` and frequencies ``xi_k = 2 pi k / L`` with
  ``k in {-n/2+1, ..., n/2}``;
* Fourier-series coefficients follow ``c_k = (1/L) * Int_0^L u(x) exp(-i xi_k x) dx``,
  so ``u(x) = sum_k c_k exp(i xi_k x)`` and Parseval reads
  ``Int u^2 dx = L * sum |c_k|^2``;
* cubic functionals carry a single factor of L:
  ``Int u v w dx = L * sum_{k1+k2+k3=0} a_{k1} b_{k2} c_{k3}``;
* a field carries no Nyquist mode k = n/2, which has no Hermitian partner:
  ``transform`` drops it and ``Field`` refuses a nonzero one, so no sum or
  weight needs a case for it; the mean mode k=0 is preserved.

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

from .errors import ConfigurationError

__all__ = [
    "SpectralGrid",
    "Field",
    "transform",
    "field_from_function",
    "sobolev_norm",
    "bar_sobolev_norm",
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
    symmetric (``c_{-k} = conj(c_k)``), and the solver's records stay so.
    The Nyquist coefficient ``c[n/2]`` is 0:
    a nonzero one is refused, as are non-finite entries.
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
        if c[self.grid.nyquist_index] != 0:
            raise ConfigurationError("coefficient array has a nonzero Nyquist mode k = n/2")
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
    """Forward transform of real collocation samples; the Nyquist mode is dropped."""
    s = np.asarray(samples, dtype=float)
    if s.shape != (grid.n,):
        raise ConfigurationError(
            f"sample array has length {s.shape}, expected ({grid.n},)"
        )
    c = np.fft.fft(s) / grid.n
    c[grid.nyquist_index] = 0.0
    return Field(grid, c)


def field_from_function(grid: SpectralGrid, fn) -> Field:
    return transform(grid, fn(grid.nodes))


def sobolev_norm(f: Field, s: float) -> float:
    """H^s norm: (L * sum <xi_k>^{2s} |c_k|^2)^{1/2}."""
    xi = f.grid.frequencies
    w = (1.0 + xi**2) ** s
    return float(np.sqrt(f.grid.length * np.sum(w * np.abs(f.coeffs) ** 2)))


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
_ROW = "%d,%.17g,%.17g\n"  # one k,re,im row of a field CSV (the text of "{:.17g}")


def save_field_csv(f: Field, path):
    """Write a field as a JSON header line and one ``k,re,im`` row per mode.  Each
    block of ``_CSV_ROWS`` rows is one ``%`` of ``_ROW`` repeated over the block's
    interleaved k, re, im values, so memory stays bounded by a block."""
    k, c = f.grid.wavenumbers, f.coeffs
    with open(path, "w") as fh:
        fh.write("# " + json.dumps({"n": f.grid.n, "length": f.grid.length}) + "\n")
        fh.write("k,re_ck,im_ck\n")
        for i in range(0, f.grid.n, _CSV_ROWS):
            rows = slice(i, i + _CSV_ROWS)
            ks = k[rows].tolist()
            vals = ks * 3  # k, re, im of each row in turn
            vals[0::3], vals[1::3], vals[2::3] = ks, c.real[rows].tolist(), c.imag[rows].tolist()
            fh.write(_ROW * len(ks) % tuple(vals))


def load_field_csv(path) -> Field:
    """Read a ``save_field_csv`` file, which must hold one ``k,re,im`` row per
    wavenumber; a malformed row, a value that is not finite or a nonzero k = n/2
    row is refused with the file and line named."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ConfigurationError(f"{path}: missing JSON header line")
        try:
            meta = json.loads(header[1:].strip())
            grid = SpectralGrid(meta["n"], float(meta["length"]))
        except (ValueError, KeyError, TypeError) as e:  # a ConfigurationError is a ValueError
            raise ConfigurationError(f"{path}: not a JSON header with n and length: "
                                     f"{header.strip()!r} ({e!r})") from None
        fh.readline()  # column names
        rows = []
        for lineno, line in enumerate(fh, start=3):
            if not line.strip():
                continue
            try:
                ks, re, im = line.strip().split(",")
                i, z = grid.index_of(int(ks)), complex(float(re), float(im))  # keeps signed zeros
                if not np.isfinite(z):
                    raise ValueError("a coefficient is not finite")
                if z and i == grid.nyquist_index:
                    raise ValueError("a nonzero Nyquist mode k = n/2")
                rows.append((i, z))
            except ValueError as e:
                raise ConfigurationError(f"{path}, line {lineno}: not a k,re,im row: "
                                         f"{line.strip()!r} ({e})") from None
    idx = [i for i, _ in rows]
    if len(idx) != grid.n or len(set(idx)) != grid.n:
        raise ConfigurationError(f"{path}: {len(idx)} rows for {len(set(idx))} distinct "
                                 f"wavenumbers; a grid of n = {grid.n} needs one row for each")
    c = np.zeros(grid.n, dtype=complex)
    c[idx] = [z for _, z in rows]
    return Field(grid, c)
