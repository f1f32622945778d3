"""The torus approximates the line: the plain functionals have a limit as L grows.

The field is localized and sampled at the fixed spacing 2 pi / 64 on periods
L = 2 pi {8, 16, 32}, so every functional must converge to its value on R.  A
wrong power of L shows up as growth for every symbol kind.  No fixed tolerance
is put on a value: on each doubling of L the difference between successive
values shrinks by about 1/2 or faster (Richardson kind), or is already at
roundoff.

Measured: mass and the N = 16 band energy agree to about 1e-14.  For pure power
the H differences are 4.07e-5, then 2.67e-6 (ratio 0.066: the Riemann sum of
|xi|^alpha |u^|^2, non-smooth at xi = 0).  For Whitham and ILW its
differences are 1.616e-8, then 8.35e-9 (ratio 0.517), all from the cubic part:
its 2/3-rule projection keeps |k| <= n/3, a sharp cutoff at xi = 2 pi floor(n/3) / L,
which tends to 64/3 at O(1/L).  Without the projection the cubic part agrees to
1e-17.
"""

import functools

import numpy as np
import pytest

from dblab import SpectralGrid, field_from_function, ilw, pure_power, whitham
from dblab.dyadic import cutoff_table
from dblab.energies import hamiltonian, mass

PERIODS = [2 * np.pi * m for m in (8, 16, 32)]
SIGMA = 0.5
SYMBOLS = {"pure_power": pure_power(0.9), "whitham": whitham(), "ilw": ilw()}
RATIO = 0.6  # successive differences shrink by 1/2 (O(1/L)); measured up to 0.517
ROUNDOFF = 1e-12  # a relative difference at or below this counts as converged


@functools.lru_cache(maxsize=None)
def _field(length):
    """e^{-x^2/2 sigma^2} cos 12x + x e^{-x^2/8} / 2, centred, at n = 64 L / 2 pi."""
    grid = SpectralGrid(round(64 * length / (2 * np.pi)), length)

    def u(x):
        y = x - length / 2
        return np.exp(-(y**2) / (2 * SIGMA**2)) * np.cos(12 * y) + 0.5 * y * np.exp(-(y**2) / 8)

    return field_from_function(grid, u)


def _band_energy(f, N=16.0):
    table = cutoff_table(f.grid, homogeneous=True)
    return table.band_energies(f)[table.index(N)]


ROWS = {
    "mass": lambda f, sym: mass(f),
    "hamiltonian": hamiltonian,
    "band_energy_16": lambda f, sym: _band_energy(f),
}


@pytest.mark.parametrize("row", list(ROWS))
@pytest.mark.parametrize("kind", list(SYMBOLS))
def test_successive_differences_shrink(kind, row):
    values = [ROWS[row](_field(length), SYMBOLS[kind]) for length in PERIODS]
    d1, d2 = abs(values[1] - values[0]), abs(values[2] - values[1])
    assert d2 <= ROUNDOFF * abs(values[2]) or d2 <= RATIO * d1, (values, d1, d2)
