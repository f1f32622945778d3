import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from dblab import Field, SpectralGrid, trajectory
from dblab.dyadic import phi
from dblab.multipliers import MultiplierSymbol, commutator_amplitude
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


def zero_field(grid):
    return Field(grid, np.zeros(grid.n, dtype=complex))


def field_from_coeffs(grid, pairs):
    """A field from a {wavenumber: coefficient} dict; pass Hermitian pairs for a real field."""
    c = np.zeros(grid.n, dtype=complex)
    for k, v in pairs.items():
        c[grid.index_of(int(k))] = v
    return Field(grid, c)


def partition_residual(table):
    """max |sum_N phi_N(xi) - 1| of a cutoff table's rows over the nonzero grid frequencies."""
    m = table.grid.frequencies != 0.0
    return float(np.max(np.abs(table.phi[:, m].sum(axis=0) - 1.0)))


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


def commutator_chi(x1, x2, N):
    """The commutator symbol chi = -i a, a from `commutator_amplitude` as the plans take it."""
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    return -1j * commutator_amplitude(x1, x2, phi(x2 / N), phi((x1 + x2) / N), N)


def symbol_product(a, b):
    """The pointwise product a*b of two symbols of one arity."""
    return MultiplierSymbol(a.arity, lambda *x: a.evaluate(*x) * b.evaluate(*x), f"{a.name}*{b.name}")


def dilated(u, alpha, lam):
    """lam^alpha u(lam x) on the grid (n, L/lam)."""
    return Field(SpectralGrid(u.grid.n, u.grid.length / lam), lam**alpha * u.coeffs)


def flow_dilation(sym, lam, u0, cfg):
    """The pure-power flow against its dilation: the run from v0 = lam^alpha u0(lam x) with
    dt / lam^{alpha+1} and the run from u0, at about five matched record times.
    Returns the largest relative sup discrepancy of lam^alpha u(lam x, lam^{alpha+1} t)
    against v(x, t), and the relative difference of the critical homogeneous
    H^{1/2 - alpha} norms of u0 and v0."""
    a = sym.alpha
    v0 = dilated(u0, a, lam)
    every = max(1, cfg.steps // 5)
    slow = lam ** (a + 1.0)
    runs = zip(trajectory(u0, sym, replace(cfg, record_every=every)),
               trajectory(v0, sym, replace(cfg, dt=cfg.dt / slow, t_final=cfg.t_final / slow,
                                           record_every=every)))
    worst = 0.0
    for (_, f1), (_, f2) in runs:
        got = f2.values()  # u at the nodes x1_j == lam * x2_j
        scale = np.max(np.abs(got)) or 1.0
        worst = max(worst, float(np.max(np.abs(lam**a * f1.values() - got)) / scale))

    def critical_norm(f):
        xi = f.grid.frequencies
        m = xi != 0.0
        return np.sqrt(f.grid.length * np.sum(np.abs(xi[m]) ** (1.0 - 2.0 * a) * np.abs(f.coeffs[m]) ** 2))

    n1, n2 = critical_norm(u0), critical_norm(v0)
    return worst, float(abs(n1 - n2) / n1) if n1 else 0.0
