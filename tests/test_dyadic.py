import tracemalloc

import numpy as np
import pytest

from conftest import field_from_coeffs, partition_residual, random_real_field
from dblab import ConfigurationError, Field, SpectralGrid
from dblab.dyadic import (
    _cutoff_table,
    cutoff_table,
    eta,
    lessless_multiplier,
    low_multiplier,
    phi,
    phi_n,
    tilde_phi,
    tilde_phi_n,
)
from dblab.spectral import transform
from oracles import slow_eta, slow_phi, slow_tilde_phi


class TestCutoffs:
    def test_eta_plateau_and_support(self):
        xs = np.array([-2.5, -2.0, -1.0, 0.0, 0.7, 1.0, 2.0, 3.0])
        assert np.array_equal(eta(xs), [0, 0, 1, 1, 1, 1, 0, 0])
        mid = eta(np.linspace(1.1, 1.9, 57))
        assert np.all((mid > 0) & (mid < 1))
        assert np.all(np.diff(mid) < 0)

    def test_eta_matches_scalar_oracle(self):
        xs = np.linspace(-2.3, 2.3, 97)
        assert np.allclose(eta(xs), [slow_eta(x) for x in xs], atol=1e-15)

    def test_phi_and_tilde_match_oracle(self):
        xs = np.linspace(-4.5, 4.5, 181)
        assert np.allclose(phi(xs), [slow_phi(x) for x in xs], atol=1e-15)
        assert np.allclose(tilde_phi(xs), [slow_tilde_phi(x) for x in xs], atol=1e-15)

    def test_tilde_is_one_on_phi_support(self):
        xs = np.linspace(0.5, 2.0, 301)
        assert np.all(tilde_phi(xs) == 1.0)
        assert np.all(tilde_phi(-xs) == 1.0)

    def test_eta_smoothness_no_ringing(self):
        # 4th-order finite differences bounded; identically zero off support
        xs = np.linspace(-3.0, 3.0, 6001)
        h = xs[1] - xs[0]
        d = eta(xs)
        for _ in range(4):
            d = np.gradient(d, h)
        assert np.all(np.isfinite(d))
        assert np.max(np.abs(d[np.abs(xs) > 2.1])) == 0.0


class TestCutoffTable:
    @pytest.mark.parametrize("n,length", [(64, 2 * np.pi), (1024, 2 * np.pi), (128, 17.3)])
    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_band_energies_match_direct_evaluation(self, n, length, homogeneous):
        # bit for bit: (1/2) L sum |w c|^2 with w = phi_N, or eta at the
        # nonhomogeneous bottom scale, evaluated directly per scale
        grid = SpectralGrid(n, length)
        f = random_real_field(grid, seed=5, mean_free=False)
        table = cutoff_table(grid, homogeneous)
        direct = []
        for N in table.scales:
            w = eta(grid.frequencies / N) if N == table.scales[0] and not homogeneous \
                else phi_n(grid.frequencies, N)
            direct.append(0.5 * grid.length * float(np.sum(np.abs(w * f.coeffs) ** 2)))
        assert table.band_energies(f) == direct
        assert any(e != 0.0 for e in direct)

    def test_rows_match_cutoffs(self):
        grid = SpectralGrid(256)
        table = cutoff_table(grid)
        for j, N in enumerate(table.scales):
            assert np.array_equal(table.phi[j], phi_n(grid.frequencies, N))
            assert np.array_equal(table.tilde[j], tilde_phi_n(grid.frequencies, N))
            assert np.array_equal(table.lessless[j], lessless_multiplier(grid.frequencies, N))

    @pytest.mark.parametrize("length", [2 * np.pi, 17.3], ids=["2pi", "17.3"])
    @pytest.mark.parametrize("n", [64, 1024, 16384])
    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_rows_bit_identical_to_per_row_evaluation(self, n, length, homogeneous):
        # the table evaluates blocks of rows per call; each entry must be the
        # same float as one call per scale (bits compared, so -0.0 != 0.0)
        grid = SpectralGrid(n, length)
        xi = grid.frequencies
        table = cutoff_table(grid, homogeneous)
        bottom = None if homogeneous else table.scales[0]
        for j, N in enumerate(table.scales):
            for rows, cutoff in ((table.phi, low_multiplier if N == bottom else phi_n),
                                 (table.tilde, tilde_phi_n), (table.lessless, lessless_multiplier)):
                assert np.array_equal(rows[j].view(np.int64), cutoff(xi, N).view(np.int64))

    def test_build_memory_bounded_by_the_table(self):
        # row blocks keep the temporaries under 1 MB at n = 16384
        grid = SpectralGrid(16384)
        grid.frequencies
        tracemalloc.start()
        try:
            table = _cutoff_table.__wrapped__(grid, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.phi.nbytes + 10**6

    def test_one_read_only_table_per_grid_and_kind(self):
        table = cutoff_table(SpectralGrid(128), False)
        assert cutoff_table(SpectralGrid(128), False) is table
        assert cutoff_table(SpectralGrid(128), homogeneous=False) is table
        assert cutoff_table(SpectralGrid(128), 0) is table
        homogeneous = cutoff_table(SpectralGrid(128))
        assert homogeneous is not table
        for spelling in ((True,), (1,), ()):
            assert cutoff_table(SpectralGrid(128), *spelling) is homogeneous
        assert cutoff_table(SpectralGrid(128), homogeneous=True) is homogeneous
        for rows in (table.phi, table.tilde, table.lessless):
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0
        assert table.tilde is table.tilde

    def test_off_ladder_scale_and_other_grid_refused(self):
        table = cutoff_table(SpectralGrid(64))
        with pytest.raises(ConfigurationError):
            table.index(48.0)
        with pytest.raises(ConfigurationError):
            table.band_energies(random_real_field(SpectralGrid(128)))


class TestPartitionOfUnity:
    @pytest.mark.parametrize("n,length", [(64, 2 * np.pi), (256, 2 * np.pi), (128, 17.3)])
    def test_frequency_partition(self, n, length):
        grid = SpectralGrid(n, length)
        assert partition_residual(cutoff_table(grid)) < 1e-12

    def test_every_frequency_covered_by_at_most_two(self):
        grid = SpectralGrid(128)
        xi = grid.frequencies
        m = xi != 0
        counts = np.zeros(m.sum())
        for N in cutoff_table(grid).scales:
            counts += (phi_n(xi[m], N) > 0).astype(int)
        assert counts.min() >= 1 and counts.max() <= 2

    @pytest.mark.parametrize("n,length", [(64, 2 * np.pi), (256, 2 * np.pi), (128, 17.3), (512, 200.0)])
    def test_nonhomogeneous_partition_includes_the_mean(self, n, length):
        # eta + sum_{N >= 2} phi_N = 1 at every frequency, xi = 0 included; a period
        # above 2 pi puts nonzero frequencies under the bottom scale's plateau
        table = cutoff_table(SpectralGrid(n, length), homogeneous=False)
        assert partition_residual(table) < 1e-12
        assert np.max(np.abs(table.phi.sum(axis=0) - 1.0)) < 1e-12

    def test_nonhomogeneous_rows_recover_field_with_mean(self):
        grid = SpectralGrid(128, 17.3)
        f = random_real_field(grid, seed=6, mean_free=False)
        assert f.coeffs[0] != 0.0
        acc = sum(w * f.coeffs for w in cutoff_table(grid, False).phi)
        assert np.max(np.abs(acc - f.coeffs)) < 1e-14

    def test_sum_of_projections_recovers_field(self):
        grid = SpectralGrid(128)
        f = random_real_field(grid, seed=3, mean_free=False)
        acc = np.zeros(grid.n, dtype=complex)
        for N in cutoff_table(grid).scales:
            acc += phi_n(grid.frequencies, N) * f.coeffs
        target = f.coeffs.copy()
        target[0] = 0.0  # mean mode is not covered by the homogeneous ladder
        target[grid.nyquist_index] = 0.0
        assert np.max(np.abs(acc - target)) < 1e-12


class TestLadder:
    @pytest.mark.parametrize("n,length", [(64, 2 * np.pi), (128, 17.3), (512, 200.0)])
    @pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "nonhomogeneous"])
    def test_dyadic_scales_span_the_band(self, n, length, homogeneous):
        grid = SpectralGrid(n, length)
        scales = np.array(cutoff_table(grid, homogeneous).scales)
        assert np.all(scales[1:] == 2.0 * scales[:-1])
        assert np.all(np.log2(scales) == np.round(np.log2(scales)))
        xi = np.abs(grid.frequencies[grid.frequencies != 0.0])
        if homogeneous:
            assert scales[0] <= xi.min() < 2.0 * scales[0]
        else:
            assert scales[0] == 1.0
        # phi_N lives on N/2 <= |xi| <= 2N: the top scale reaches past the band
        assert scales[-1] >= 2.0 * xi.max()
        # every nonzero frequency is seen by some scale
        assert np.all(np.any([phi_n(xi, N) > 0 for N in scales], axis=0) | (xi < scales[0]))


class TestProjectors:
    """The band weights applied to coefficients, as the corrector plans apply them."""

    def test_plateau_projection(self, grid64):
        f = transform(grid64, np.cos(8 * grid64.nodes))
        assert np.max(np.abs(phi_n(grid64.frequencies, 8.0) * f.coeffs - f.coeffs)) < 1e-15

    def test_out_of_band_is_zero(self, grid64):
        f = field_from_coeffs(grid64, {8: 0.5, -8: 0.5})
        assert np.all(phi_n(grid64.frequencies, 64.0) * f.coeffs == 0)

    def test_p_sim_p_equals_p(self, grid128):
        f = random_real_field(grid128, seed=9)
        pn = phi_n(grid128.frequencies, 16.0) * f.coeffs
        assert np.array_equal(pn, tilde_phi_n(grid128.frequencies, 16.0) * pn)

    def test_le_band_split(self, grid128):
        f = field_from_coeffs(grid128, {1: 0.5, -1: 0.5, 63: 0.5, -63: 0.5})
        low = Field(grid128, low_multiplier(grid128.frequencies, 4.0) * f.coeffs)
        assert np.max(np.abs(low.values() - np.cos(grid128.nodes))) < 1e-13

    def test_ll_is_very_low_pass(self, grid64):
        f = field_from_coeffs(grid64, {2: 0.5, -2: 0.5})
        assert np.all(lessless_multiplier(grid64.frequencies, 8.0) * f.coeffs == 0)
