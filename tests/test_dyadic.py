import tracemalloc

import numpy as np
import pytest

from conftest import random_real_field
from dblab import ConfigurationError, SpectralGrid, SolverConfig, pure_power, run
from dblab.dyadic import (
    DyadicLadder,
    cutoff_table,
    eta,
    lessless_multiplier,
    low_multiplier,
    modulation_project,
    modulation_weights,
    phi,
    phi_n,
    project,
    project_band,
    tilde_phi,
    tilde_phi_n,
    time_window,
)
from dblab.spectral import field_from_coeffs, transform
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
        ladder = DyadicLadder.for_grid(grid, homogeneous)
        assert table.ladder == ladder
        direct = []
        for N in ladder.scales:
            w = eta(grid.frequencies / N) if N == ladder.scales[0] and not homogeneous \
                else phi_n(grid.frequencies, N)
            direct.append(0.5 * grid.length * float(np.sum(np.abs(w * f.coeffs) ** 2)))
        assert table.band_energies(f) == direct
        assert any(e != 0.0 for e in direct)

    def test_rows_match_cutoffs(self):
        grid = SpectralGrid(256)
        table = cutoff_table(grid)
        for j, N in enumerate(table.ladder.scales):
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
        bottom = None if homogeneous else table.ladder.scales[0]
        for j, N in enumerate(table.ladder.scales):
            for rows, cutoff in ((table.phi, low_multiplier if N == bottom else phi_n),
                                 (table.tilde, tilde_phi_n), (table.lessless, lessless_multiplier)):
                assert np.array_equal(rows[j].view(np.int64), cutoff(xi, N).view(np.int64))

    def test_build_memory_bounded_by_the_table(self):
        # row blocks keep the temporaries under 1 MB at n = 16384
        grid = SpectralGrid(16384)
        grid.frequencies
        tracemalloc.start()
        try:
            table = cutoff_table.__wrapped__(grid, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.phi.nbytes + 10**6

    def test_one_read_only_table_per_grid_and_kind(self):
        table = cutoff_table(SpectralGrid(128), False)
        assert cutoff_table(SpectralGrid(128), False) is table
        assert cutoff_table(SpectralGrid(128), True) is not table
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
        assert cutoff_table(grid).partition_residual() < 1e-12

    def test_every_frequency_covered_by_at_most_two(self):
        grid = SpectralGrid(128)
        ladder = DyadicLadder.for_grid(grid)
        xi = grid.frequencies
        m = xi != 0
        counts = np.zeros(m.sum())
        for N in ladder.scales:
            counts += (phi_n(xi[m], N) > 0).astype(int)
        assert counts.min() >= 1 and counts.max() <= 2

    def test_sum_of_projections_recovers_field(self):
        grid = SpectralGrid(128)
        f = random_real_field(grid, seed=3, mean_free=False)
        ladder = DyadicLadder.for_grid(grid)
        acc = np.zeros(grid.n, dtype=complex)
        for N in ladder.scales:
            acc += project(f, N).coeffs
        target = f.coeffs.copy()
        target[0] = 0.0  # mean mode is not covered by the homogeneous ladder
        target[grid.nyquist_index] = 0.0
        assert np.max(np.abs(acc - target)) < 1e-12


class TestProjectors:
    def test_plateau_projection(self, grid64):
        f = transform(grid64, np.cos(8 * grid64.nodes))
        assert np.max(np.abs(project(f, 8.0).coeffs - f.coeffs)) < 1e-15

    def test_out_of_band_is_zero(self, grid64):
        f = field_from_coeffs(grid64, {8: 0.5, -8: 0.5})
        assert np.all(project(f, 64.0).coeffs == 0)

    def test_p_sim_p_equals_p(self, grid128):
        f = random_real_field(grid128, seed=9)
        pn = project(f, 16.0)
        pnn = project_band(pn, "sim", 16.0)
        assert np.array_equal(pn.coeffs, pnn.coeffs)

    def test_le_band_split(self, grid128):
        f = field_from_coeffs(grid128, {1: 0.5, -1: 0.5, 63: 0.5, -63: 0.5})
        low = project_band(f, "le", 4.0)
        assert np.max(np.abs(low.values() - np.cos(grid128.nodes))) < 1e-13

    def test_ge_keeps_mean_free_field(self, grid128):
        f = random_real_field(grid128, seed=4)
        g = project_band(f, "ge", 1.0)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-14

    def test_ll_is_very_low_pass(self, grid64):
        f = field_from_coeffs(grid64, {2: 0.5, -2: 0.5})
        assert np.all(project_band(f, "ll", 8.0).coeffs == 0)

    def test_unknown_kind(self, grid64):
        with pytest.raises(ConfigurationError):
            project_band(random_real_field(grid64), "near", 4.0)


class TestModulation:
    def _free_record(self, n=64, k=3, n_t=128, T=4.0, alpha=1.0):
        grid = SpectralGrid(n)
        sym = pure_power(alpha)
        u0 = field_from_coeffs(grid, {k: 0.5, -k: 0.5})
        cfg = SolverConfig(dt=T / n_t, t_final=T, record_every=1, nonlinear=False)
        rec = run(u0, sym, cfg)
        # drop the final duplicate-period sample to keep uniform spacing
        from dblab import TrajectoryRecord

        return TrajectoryRecord(grid, rec.times[:-1], rec.coeffs[:-1]), sym

    def test_tau_partition_of_unity(self):
        rec, sym = self._free_record()
        tau_span = np.pi * len(rec.times) / (rec.times[-1] + rec.times[1])
        max_d = tau_span + np.max(np.abs(sym.omega(rec.grid.frequencies)))
        ladder = DyadicLadder.modulation(max_d)
        acc = None
        for L in ladder.scales:
            w = modulation_weights(rec, sym, L)
            acc = w if acc is None else acc + w
        assert np.max(np.abs(acc - 1.0)) < 1e-12

    def test_sum_of_pieces_recovers_windowed_record(self):
        rec, sym = self._free_record()
        tau_span = np.pi * len(rec.times) / (rec.times[-1] + rec.times[1])
        max_d = tau_span + np.max(np.abs(sym.omega(rec.grid.frequencies)))
        ladder = DyadicLadder.modulation(max_d)
        acc = None
        for L in ladder.scales:
            piece = modulation_project(rec, L, sym).coeffs
            acc = piece if acc is None else acc + piece
        w = time_window(len(rec.times))
        ref = rec.coeffs * w[:, None]
        assert np.max(np.abs(acc - ref)) < 1e-12
        # interior of the window: exact recovery of the raw record
        interior = slice(int(0.15 * len(rec.times)), int(0.85 * len(rec.times)))
        raw = rec.coeffs[interior]
        assert np.max(np.abs(acc[interior] - raw)) < 1e-12

    def test_single_mode_energy_concentrates(self):
        rec, sym = self._free_record()
        dtau = 2.0 * np.pi / (rec.times[-1] + rec.times[1])
        low = modulation_project(rec, 4.0 * dtau, sym, cumulative=True)
        w = time_window(len(rec.times))
        ref = rec.coeffs * w[:, None]
        kept = np.sum(np.abs(low.coeffs) ** 2)
        total = np.sum(np.abs(ref) ** 2)
        assert kept >= 0.99 * total

    def test_low_modulation_contraction(self):
        rec, sym = self._free_record()
        low = modulation_project(rec, 8.0, sym, cumulative=True)
        assert np.sum(np.abs(low.coeffs) ** 2) <= (1 + 1e-10) * np.sum(np.abs(rec.coeffs) ** 2)

    def test_zero_record(self):
        rec, sym = self._free_record()
        from dblab import TrajectoryRecord

        zrec = TrajectoryRecord(rec.grid, rec.times, np.zeros_like(rec.coeffs))
        out = modulation_project(zrec, 4.0, sym)
        assert np.all(out.coeffs == 0)

    def test_nonuniform_rejected(self):
        rec, sym = self._free_record()
        from dblab import TrajectoryRecord

        bad_times = rec.times.copy()
        bad_times[3] += 1e-3
        bad = TrajectoryRecord(rec.grid, bad_times, rec.coeffs)
        with pytest.raises(ConfigurationError):
            modulation_project(bad, 4.0, sym)

