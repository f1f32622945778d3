import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from dblab import Field, SpectralGrid
from dblab.spectral import transform

# Property tests draw the same examples on every run and keep no example
# database, so a result never depends on an untracked local cache. Regions
# that must always be exercised are pinned with @example in the test itself.
# Per-test @settings(...) inherit these values.
settings.register_profile("dblab", derandomize=True, database=None)
settings.load_profile("dblab")


@pytest.fixture
def grid64():
    return SpectralGrid(64)


@pytest.fixture
def grid128():
    return SpectralGrid(128)


@pytest.fixture
def grid256():
    return SpectralGrid(256)


def random_real_field(grid, seed=0, band=None, mean_free=True):
    rng = np.random.default_rng(seed)
    f = transform(grid, rng.standard_normal(grid.n))
    c = f.coeffs.copy()
    if band is not None:
        c[np.abs(grid.wavenumbers) > band] = 0.0
    if mean_free:
        c[0] = 0.0
    c[grid.nyquist_index] = 0.0
    return Field(grid, c)


def random_hs_field(grid, s, target, seed=0, decay_extra=0.75):
    rng = np.random.default_rng(seed)
    xi = grid.frequencies
    raw = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    raw *= (1.0 + xi**2) ** (-0.5 * (s + decay_extra))
    raw[0] = 0.0
    n = grid.n
    sym = 0.5 * (raw + np.conj(raw[(n - np.arange(n)) % n]))
    sym[grid.nyquist_index] = 0.0
    f = Field(grid, sym)
    from dblab.spectral import sobolev_norm

    nrm = sobolev_norm(f, s)
    return Field(grid, sym * (target / nrm))
