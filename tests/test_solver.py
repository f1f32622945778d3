import numpy as np
import pytest

from conftest import random_real_field
from dblab import (
    ConfigurationError,
    Field,
    SpectralGrid,
    SolverConfig,
    hamiltonian,
    mass,
    pure_power,
    run,
    scaling_check,
    self_convergence,
    step,
    transform,
    whitham,
    zero_field,
)
from dblab.solver import RunWriter, full_rhs, resume_from_snapshot


class TestConfig:
    def test_bad_scheme(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(scheme="rk4")

    def test_steps_within_one_dt(self):
        # dt must divide t_final; a run never stops short of or past t_final
        cfg = SolverConfig(dt=1e-3, t_final=0.01)
        assert cfg.steps == 10
        for dt, tf in ((3e-3, 0.01), (7e-3, 0.02)):
            with pytest.raises(ConfigurationError, match="divide"):
                SolverConfig(dt=dt, t_final=tf)

    def test_positive(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=-1e-3)


class TestStep:
    def test_zero_stays_zero(self, grid64):
        cfg = SolverConfig(dt=1e-3, t_final=1e-3)
        out = step(zero_field(grid64), pure_power(1.0), cfg)
        assert np.all(out.coeffs == 0)

    def test_linear_exact_phase(self, grid64):
        sym = pure_power(1.0)
        u0 = transform(grid64, np.cos(3.0 * grid64.nodes))
        cfg = SolverConfig(dt=1e-2, t_final=1e-2, nonlinear=False)
        out = step(u0, sym, cfg)
        xi = grid64.frequencies
        expect = u0.coeffs * np.exp(-1j * sym.omega(xi) * cfg.dt)
        expect[grid64.nyquist_index] = 0.0
        assert np.max(np.abs(out.coeffs - expect)) < 1e-15
        # u(t) = cos(3x - omega(3) t) with omega(3) = -9
        vals = out.values()
        target = np.cos(3.0 * grid64.nodes + 9.0 * cfg.dt)
        assert np.max(np.abs(vals - target)) < 1e-12

    def test_linear_reversibility(self, grid128):
        sym = whitham(1.0)
        u0 = random_real_field(grid128, seed=3)
        fwd = SolverConfig(dt=1e-2, t_final=1e-2, nonlinear=False)
        one = step(u0, sym, fwd)
        # the linear IF step is the exact diagonal propagator, so the
        # conjugate phase rewinds it to machine precision
        xi = grid128.frequencies
        rewound = one.coeffs * np.exp(+1j * sym.omega(xi) * fwd.dt)
        rewound[grid128.nyquist_index] = 0.0
        assert np.max(np.abs(rewound - np.where(
            np.arange(grid128.n) == grid128.nyquist_index, 0.0, u0.coeffs))) < 1e-12

    def test_small_amplitude_near_linear(self, grid128):
        sym = pure_power(1.0)
        eps = 1e-3
        u0 = transform(grid128, eps * np.cos(2.0 * grid128.nodes))
        cfg = SolverConfig(dt=1e-3, t_final=0.1, record_every=100)
        res = run(u0, sym, cfg, diag_n0=None)
        final = res.record.snapshots[-1]
        xi = grid128.frequencies
        lin = u0.coeffs * np.exp(-1j * sym.omega(xi) * 0.1)
        lin[grid128.nyquist_index] = 0.0
        dev = np.max(np.abs(final.coeffs - lin))
        assert dev <= 10.0 * eps**2 * 0.1  # quadratic-in-amplitude deviation

    def test_mean_preserved_exactly(self, grid64):
        sym = pure_power(0.5)
        u = random_real_field(grid64, seed=6, mean_free=False)
        c = u.coeffs.copy()
        c[0] = 0.125
        u = Field(grid64, c)
        cfg = SolverConfig(dt=1e-3, t_final=1e-2)
        res = run(u, sym, cfg, diag_n0=None)
        assert res.record.snapshots[-1].coeffs[0] == 0.125


class TestConservation:
    def test_bo_benchmark(self):
        grid = SpectralGrid(256)
        sym = pure_power(1.0)
        u0 = transform(grid, 0.1 * np.cos(grid.nodes))
        cfg = SolverConfig(dt=1e-3, t_final=1.0, record_every=1000)
        res = run(u0, sym, cfg, diag_n0=None)
        m0, mT = mass(res.record.snapshots[0]), mass(res.record.snapshots[-1])
        h0 = hamiltonian(res.record.snapshots[0], sym)
        hT = hamiltonian(res.record.snapshots[-1], sym)
        assert abs(mT - m0) / m0 < 1e-10
        assert abs(hT - h0) / abs(h0) < 1e-8

    def test_etdrk4_matches_ifrk4(self):
        grid = SpectralGrid(128)
        sym = pure_power(1.0)
        u0 = transform(grid, 0.2 * np.cos(grid.nodes) + 0.1 * np.cos(3 * grid.nodes))
        out = {}
        for scheme in ("ifrk4", "etdrk4"):
            cfg = SolverConfig(scheme=scheme, dt=1e-3, t_final=0.1, record_every=100)
            out[scheme] = run(u0, sym, cfg, diag_n0=None).record.snapshots[-1].coeffs
        assert np.max(np.abs(out["ifrk4"] - out["etdrk4"])) < 1e-9


class TestConvergence:
    def test_fourth_order(self):
        grid = SpectralGrid(128)
        sym = pure_power(1.0)
        u0 = transform(grid, 0.4 * np.cos(grid.nodes) + 0.2 * np.cos(2 * grid.nodes))
        cfg = SolverConfig(dt=1e-3, t_final=0.5)
        res = self_convergence(u0, sym, cfg, [4e-3, 2e-3, 1e-3])
        assert 3.7 <= res["slope"] <= 4.3


class TestScaling:
    def test_lambda_one_trivial(self):
        grid = SpectralGrid(128)
        u0 = transform(grid, 0.1 * np.cos(grid.nodes))
        cfg = SolverConfig(dt=1e-3, t_final=0.1)
        rep = scaling_check(pure_power(0.5), 1.0, u0, cfg)
        assert rep["max_discrepancy"] < 1e-13

    def test_alpha_half_lambda_two(self):
        grid = SpectralGrid(256)
        x = grid.nodes
        u0 = transform(grid, 0.1 * np.cos(x) + 0.05 * np.cos(2 * x))
        cfg = SolverConfig(dt=1e-3, t_final=0.5)
        rep = scaling_check(pure_power(0.5), 2.0, u0, cfg)
        assert rep["max_discrepancy"] < 1e-6
        assert rep["critical_norm_rel_diff"] < 1e-10

    def test_non_power_of_two_rejected(self):
        grid = SpectralGrid(64)
        u0 = transform(grid, 0.1 * np.cos(grid.nodes))
        with pytest.raises(ConfigurationError):
            scaling_check(pure_power(0.5), 3.0, u0, SolverConfig())

    def test_pure_power_only(self):
        grid = SpectralGrid(64)
        u0 = transform(grid, 0.1 * np.cos(grid.nodes))
        with pytest.raises(ConfigurationError):
            scaling_check(whitham(1.0), 2.0, u0, SolverConfig())


class TestBlowUpAndRecords:
    def test_burgers_like_blowup_returns_partial(self):
        # alpha -> 0 with big data steepens; huge dt forces the RK4 through
        # the gradient catastrophe and overflows
        grid = SpectralGrid(64)
        sym = pure_power(0.01)
        u0 = transform(grid, 50.0 * np.cos(grid.nodes))
        cfg = SolverConfig(dt=0.1, t_final=10.0, record_every=1, dealias=False)
        res = run(u0, sym, cfg, diag_n0=None)
        assert res.blown_up
        assert res.blowup["time"] <= 10.0
        assert len(res.record.snapshots) >= 1

    def test_trajectory_metadata_and_determinism(self):
        grid = SpectralGrid(64)
        sym = pure_power(1.0)
        u0 = transform(grid, 0.1 * np.cos(grid.nodes))
        cfg = SolverConfig(dt=1e-3, t_final=0.01, record_every=2)
        a = run(u0, sym, cfg, diag_s=0.3, diag_n0=8.0)
        b = run(u0, sym, cfg, diag_s=0.3, diag_n0=8.0)
        assert np.array_equal(a.record.times, b.record.times)
        for fa, fb in zip(a.record.snapshots, b.record.snapshots):
            assert np.array_equal(fa.coeffs, fb.coeffs)
        assert a.record.metadata["symbol"]["kind"] == "pure_power"
        assert [r.to_json_line() for r in a.reports] == [r.to_json_line() for r in b.reports]

    def test_writer_and_resume(self, tmp_path):
        grid = SpectralGrid(64)
        sym = pure_power(1.0)
        u0 = transform(grid, 0.1 * np.cos(grid.nodes))
        cfg = SolverConfig(dt=1e-3, t_final=0.01, record_every=5)
        writer = RunWriter(tmp_path)
        res = run(u0, sym, cfg, diag_s=0.0, diag_n0=8.0, writer=writer)
        snaps = sorted(tmp_path.glob("snapshot_*.csv"))
        assert len(snaps) == len(res.record.snapshots)
        assert (tmp_path / "reports.jsonl").exists()
        # resume from the mid snapshot and reach the same final state
        mid = resume_from_snapshot(snaps[1])
        t_mid = res.record.times[1]
        cfg2 = SolverConfig(dt=1e-3, t_final=cfg.t_final - t_mid, record_every=5)
        res2 = run(mid, sym, cfg2, diag_n0=None)
        assert np.max(np.abs(
            res2.record.snapshots[-1].coeffs - res.record.snapshots[-1].coeffs)) < 1e-13


class TestRhsHelpers:
    def test_full_rhs_splits(self, grid64):
        sym = pure_power(1.0)
        u = random_real_field(grid64, seed=2, band=10)
        total = full_rhs(u, sym).coeffs
        lin = full_rhs(u, sym, nonlinear=False).coeffs
        nl = total - lin
        xi = grid64.frequencies
        expect_lin = -1j * sym.omega(xi) * u.coeffs
        expect_lin[grid64.nyquist_index] = 0.0
        assert np.max(np.abs(lin - expect_lin)) < 1e-15
        assert abs(nl[0]) == 0.0  # perfect derivative: mean-free
