"""Scale and symmetry covariance of the functionals: sign-free checks that need
no derivation.

Dilation.  For pure power the equation is invariant under
u -> lam^alpha u(lam x), and on the torus the dilation is exact: the grid
(n, L) becomes (n, L/lam), every coefficient is multiplied by lam^alpha at the
same index, every frequency by lam (a power of two, so exactly), and a scale
N becomes lam N.  Mass then scales as lam^{2 alpha - 1}, H as
lam^{3 alpha - 1}, each band energy as lam^{2 alpha - 1}, Omega_2 as
lam^{alpha + 1}, and chi1 (at s = 0) does not change.  The flow commutes with
the dilation when time runs lam^{alpha + 1} times faster, and the critical
homogeneous H^{1/2 - alpha} norm does not change.

Translation u(x - a) and reflection u(-x) leave every cubic corrector
unchanged, for every symbol kind: its pairs close, k1 + k2 + k3 = 0, so the
phases of a translation cancel, and its weights are even under the
reflection k -> -k.
"""

import numpy as np
import pytest

from conftest import dilated, flow_dilation, random_hs_field
from dblab import Field, SolverConfig, SpectralGrid, ilw, pure_power, whitham
from dblab.dyadic import cutoff_table
from dblab.energies import (E1, TILDE_E1, TILDE_E2, corrector_plan, corrector_term,
                            difference_corrector1, difference_corrector2, hamiltonian, mass)
from dblab.multipliers import chi1_kernel
from dblab.resonance import omega2

EPS = np.finfo(float).eps
ALPHAS = [0.5, 0.9, 1.0]
LAMBDAS = [2.0, 4.0]


@pytest.fixture(scope="module")
def field():
    return random_hs_field(SpectralGrid(256, 8.0 * np.pi), 0.3, 1.0, seed=1)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("alpha", ALPHAS)
class TestDilation:
    def test_mass(self, field, alpha, lam):
        want = lam ** (2.0 * alpha - 1.0) * mass(field)
        assert mass(dilated(field, alpha, lam)) == pytest.approx(want, rel=1e-14)

    def test_hamiltonian(self, field, alpha, lam):
        sym = pure_power(alpha)
        want = lam ** (3.0 * alpha - 1.0) * hamiltonian(field, sym)
        assert want != 0.0
        assert hamiltonian(dilated(field, alpha, lam), sym) == pytest.approx(want, rel=1e-14)

    def test_band_energies(self, field, alpha, lam):
        # the homogeneous ladder of (n, L/lam) is that of (n, L) times lam
        v = dilated(field, alpha, lam)
        table, scaled = cutoff_table(field.grid), cutoff_table(v.grid)
        got = dict(zip(scaled.scales, scaled.band_energies(v)))
        compared = 0
        for N, e in zip(table.scales, table.band_energies(field)):
            assert got[lam * N] == pytest.approx(lam ** (2.0 * alpha - 1.0) * e, rel=1e-14)
            compared += e > 0.0
        assert compared >= 6

    def test_omega2_and_chi1_on_the_plan_pairs(self, field, alpha, lam):
        # the plans of N and lam N keep the same pairs: their cutoffs agree bit for bit
        sym = pure_power(alpha)
        grid = field.grid
        scaled = SpectralGrid(grid.n, grid.length / lam)
        xi, xi_lam = grid.frequencies, scaled.frequencies
        assert np.array_equal(xi_lam, lam * xi)
        compared = 0
        for N in cutoff_table(grid).scales:
            plan, plan_lam = corrector_plan(grid, sym, N), corrector_plan(scaled, sym, lam * N)
            for name in ("i1", "i2", "i3"):
                assert np.array_equal(getattr(plan, name), getattr(plan_lam, name))
            x1, x2 = xi[plan.i1], xi[plan.i2]
            om = omega2(sym, x1, x2)
            # Omega_2 is a difference: its roundoff is a few eps of the sum of |omega|
            osum = np.abs(sym.omega(x1 + x2)) + np.abs(sym.omega(x1)) + np.abs(sym.omega(x2))
            err = np.abs(omega2(sym, lam * x1, lam * x2) - lam ** (alpha + 1.0) * om)
            assert np.all(err <= 8.0 * EPS * lam ** (alpha + 1.0) * osum)
            chi = chi1_kernel(x1, x2, N, 0.0)
            assert np.all(np.abs(chi1_kernel(lam * x1, lam * x2, lam * N, 0.0) - chi)
                          <= 8.0 * EPS * np.maximum(np.abs(chi), 1.0))
            compared += plan.i1.size
        assert compared > 1000

    def test_flow(self, field, alpha, lam):
        cfg = SolverConfig(dt=1e-3, t_final=0.5)
        for scale in (1.0, lam):  # lam = 1, the identity, is the control
            sup, critical = flow_dilation(pure_power(alpha), scale, field, cfg)
            assert sup < 1e-13 and critical < 1e-14


SYMBOLS = [pytest.param(pure_power(0.9), id="pp0.9"), pytest.param(whitham(), id="whitham"),
           pytest.param(ilw(), id="ilw")]
# (record, its value from (u, z) at (N, s)); E~1 and E~2 take (z, w) = (z, u)
CORRECTORS = [
    pytest.param(E1, lambda u, z, sym, N: corrector_term(u, sym, N, 0.3), id="E1"),
    pytest.param(TILDE_E1, lambda u, z, sym, N: difference_corrector1(z, u, sym, N, -0.2),
                 id="E~1"),
    pytest.param(TILDE_E2, lambda u, z, sym, N: difference_corrector2(z, u, sym, N, -0.2),
                 id="E~2"),
]


@pytest.mark.parametrize("length", [2.0 * np.pi, 17.3], ids=["2pi", "17.3"])
@pytest.mark.parametrize("record, value", CORRECTORS)
@pytest.mark.parametrize("sym", SYMBOLS)
class TestTranslationAndReflection:
    @staticmethod
    def _cases(sym, length):
        """(u, z, N) at every scale whose plan keeps a pair."""
        grid = SpectralGrid(256, length)
        u = random_hs_field(grid, 0.3, 1.0, seed=1)
        z = random_hs_field(grid, 0.3, 1.0, seed=2)
        scales = [N for N in cutoff_table(grid).scales
                  if corrector_plan(grid, sym, N).i1.size]
        assert len(scales) >= 3
        return grid, u, z, scales

    def test_translation(self, sym, record, value, length):
        grid, u, z, scales = self._cases(sym, length)
        phase = np.exp(-1j * grid.frequencies * 0.37 * length)  # u(x - 0.37 L)
        us, zs = Field(grid, u.coeffs * phase), Field(grid, z.coeffs * phase)
        s = 0.3 if record is E1 else -0.2
        for N in scales:
            v = value(u, z, sym, N)
            assert v != 0.0
            # the phases change each term's roundoff: bound by eps times the sum of |terms|
            plan, fields = corrector_plan(grid, sym, N), (u,) if record is E1 else (z, u)
            a, b, c = (np.abs(fields[i].coeffs) for i in record.slots)
            terms = abs(record.const(N, s)) * plan.pairing(np.abs(getattr(plan, record.weight)),
                                                           a, b, c).real
            assert abs(value(us, zs, sym, N) - v) <= 64.0 * EPS * terms

    def test_reflection(self, sym, record, value, length):
        # u(-x) has c_{-k} = conj(c_k) at k: the same sum, conjugated term by term
        grid, u, z, scales = self._cases(sym, length)
        flip = (grid.n - np.arange(grid.n)) % grid.n
        ur, zr = Field(grid, u.coeffs[flip]), Field(grid, z.coeffs[flip])
        for N in scales:
            assert value(ur, zr, sym, N) == pytest.approx(value(u, z, sym, N), rel=1e-14)
