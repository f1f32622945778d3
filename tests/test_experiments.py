import json

import numpy as np
import pytest

from dblab import ConfigurationError, SpectralGrid, SolverConfig, pure_power, run, transform
from dblab.experiments import (
    ExperimentSpec,
    difference_experiment,
    make_initial,
    make_symbol,
    modified_energy_drift,
    run_experiment,
    spacetime_l2,
    strichartz_ratio,
    xsb_norm,
)


def spec_for(name, **diag):
    return ExperimentSpec(
        name=name,
        equation={"type": "pure_power", "alpha": 1.0},
        grid={"n": 128, "length": 2 * np.pi},
        initial={"kind": "random_hs", "seed": 11, "s": 0.3, "target_norm": 0.5},
        solver={"dt": 2e-3, "t_final": 0.5, "record_every": 25},
        diagnostics=diag,
        seed=11,
    )


class TestInitialData:
    def test_cosine(self):
        grid = SpectralGrid(64)
        f = make_initial(grid, {"kind": "cosine", "amplitude": 0.2, "mode": 3})
        assert np.max(np.abs(f.values() - 0.2 * np.cos(3 * grid.nodes))) < 1e-13

    def test_gaussian_mean_free(self):
        grid = SpectralGrid(128)
        f = make_initial(grid, {"kind": "gaussian", "amplitude": 1.0, "width": 0.4})
        assert abs(f.coeffs[0]) < 1e-15

    def test_random_hs_norm_and_determinism(self):
        grid = SpectralGrid(128)
        r = {"kind": "random_hs", "seed": 5, "s": 0.3, "target_norm": 0.7}
        f = make_initial(grid, r)
        g = make_initial(grid, r)
        from dblab import sobolev_norm

        assert sobolev_norm(f, 0.3) == pytest.approx(0.7, rel=1e-12)
        assert np.array_equal(f.coeffs, g.coeffs)
        assert f.is_real()

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_initial(SpectralGrid(64), {"kind": "soliton"})

    def test_unknown_symbol(self):
        with pytest.raises(ConfigurationError):
            make_symbol({"type": "kdv5"})


class TestDifferenceExperiment:
    def test_lipschitz_table(self):
        spec = spec_for("difference", s=0.3, sigma=-0.2)
        out = difference_experiment(spec, [1e-2, 1e-3, 1e-4])
        assert out["ratio_max"] <= 10.0
        assert out["ratio_spread"] <= 1.5
        assert 1.5 <= out["residual"]["rate"] <= 2.5

    def test_eps_zero_convention(self):
        spec = spec_for("difference", s=0.3, sigma=-0.2)
        out = difference_experiment(spec, [0.0, 1e-3])
        assert out["final_ratios"]["0.0"] == 1.0

    def test_sigma_window_enforced(self):
        spec = spec_for("difference", s=0.3, sigma=-0.5)
        with pytest.raises(ConfigurationError):
            difference_experiment(spec, [1e-3])


class TestEnergyDrift:
    def test_multiscale_consistency(self):
        spec = spec_for("energy_drift", s=0.3, n0=8.0)
        out = modified_energy_drift(spec)
        assert out["chain_rule"]["scale"] is not None
        assert 1.5 <= out["chain_rule"]["rate"] <= 2.5
        assert len(out["rows"]) > 2

    def test_single_mode_corrector_free(self):
        spec = ExperimentSpec(
            name="energy_drift",
            equation={"type": "pure_power", "alpha": 1.0},
            grid={"n": 64, "length": 2 * np.pi},
            initial={"kind": "cosine", "amplitude": 0.1, "mode": 2},
            solver={"dt": 1e-3, "t_final": 0.02, "record_every": 5},
            diagnostics={"s": 0.3, "n0": 8.0},
        )
        out = modified_energy_drift(spec)
        assert out["chain_rule"]["scale"] is None
        for row in out["rows"]:
            assert row["corrector_share"] == 0.0
            assert row["modified_drift"] == pytest.approx(row["plain_drift"], abs=1e-14)

    def test_linear_flow_checks(self):
        spec = ExperimentSpec(
            name="energy_drift",
            equation={"type": "pure_power", "alpha": 1.0},
            grid={"n": 128, "length": 2 * np.pi},
            initial={"kind": "random_hs", "seed": 3, "s": 0.3, "target_norm": 0.5},
            solver={"dt": 1e-3, "t_final": 0.05, "record_every": 10, "nonlinear": False},
            diagnostics={"s": 0.3, "n0": 8.0},
        )
        out = modified_energy_drift(spec)
        lin = out["linear_flow"]
        assert lin["band_energy_drift"] < 1e-10
        assert lin["corrector_phase_error"] < 1e-12

    def test_chain_rule_step_resolves_omega2(self, tmp_path):
        # with the FD step tied to dt = 0.002, max |Omega_2| d = 0.16 on the
        # active plan and the measured rate was 0.39 (pre-asymptotic)
        spec = ExperimentSpec(
            name="energy_drift",
            equation={"type": "pure_power", "alpha": 0.9},
            grid={"n": 128},
            initial={"kind": "random_hs", "seed": 3, "s": 0.5, "target_norm": 0.5},
            solver={"dt": 0.002, "t_final": 0.1},
            diagnostics={"s": 0.5, "n0": 8.0},
        )
        summary = run_experiment(spec, str(tmp_path))
        assert summary["pass_chain_rule"] is True


class TestXsb:
    def _record(self, nonlinear=True):
        grid = SpectralGrid(64)
        sym = pure_power(1.0)
        u0 = transform(grid, 0.3 * np.cos(grid.nodes) + 0.1 * np.cos(5 * grid.nodes))
        cfg = SolverConfig(dt=2e-3, t_final=0.512, record_every=2, nonlinear=nonlinear)
        rec = run(u0, sym, cfg)
        from dblab import TrajectoryRecord

        return TrajectoryRecord(grid, rec.times[:-1], rec.coeffs[:-1]), sym

    def test_b_zero_is_spacetime_l2(self):
        rec, sym = self._record()
        assert xsb_norm(rec, sym, 0.0, 0.0) == pytest.approx(
            spacetime_l2(rec), rel=1e-10
        )

    def test_one_record(self):
        # one sample: the time transform is the identity over a unit span
        rec, sym = self._record()
        from dblab import TrajectoryRecord

        one = TrajectoryRecord(rec.grid, rec.times[:1], rec.coeffs[:1])
        assert xsb_norm(one, sym, 0.0, 0.0) == pytest.approx(spacetime_l2(one), rel=1e-14)
        assert xsb_norm(one, sym, 0.5, 1.0) > xsb_norm(one, sym, 0.0, 0.0) > 0.0

    def test_nonuniform_sampling_rejected(self):
        rec, sym = self._record()
        from dblab import TrajectoryRecord

        times = rec.times.copy()
        times[2] += 1e-4
        bad = TrajectoryRecord(rec.grid, times, rec.coeffs)
        with pytest.raises(ConfigurationError):
            xsb_norm(bad, sym, 0.0, 0.0)

    def test_zero_record(self):
        rec, sym = self._record()
        from dblab import TrajectoryRecord

        zrec = TrajectoryRecord(rec.grid, rec.times, np.zeros_like(rec.coeffs))
        assert xsb_norm(zrec, sym, 0.5, 1.0) == 0.0

    def test_free_single_mode_concentration(self):
        grid = SpectralGrid(64)
        sym = pure_power(1.0)
        u0 = transform(grid, np.cos(3 * grid.nodes))
        cfg = SolverConfig(dt=2e-3, t_final=0.512, record_every=2, nonlinear=False)
        rec0 = run(u0, sym, cfg)
        from dblab import TrajectoryRecord

        rec = TrajectoryRecord(grid, rec0.times[:-1], rec0.coeffs[:-1])
        # energy sits at tau = omega(xi): the b = 1 norm stays within a
        # window-leakage factor of the b = 0 norm
        r0 = xsb_norm(rec, sym, 0.0, 0.0)
        r1 = xsb_norm(rec, sym, 0.0, 1.0)
        assert r1 <= 40.0 * r0


class TestStrichartz:
    def test_single_mode_closed_form(self):
        grid = SpectralGrid(128)
        sym = pure_power(1.0)
        u0 = transform(grid, np.cos(8 * grid.nodes))
        rows = strichartz_ratio(sym, [8.0], u0, n_t=65)
        assert len(rows) == 1
        # D^{(alpha-1)/4} is the identity at alpha = 1; the free wave is a
        # translate of cos(8x): sup_x = 1, ||P_8 u0||_L2 = sqrt(pi)
        assert rows[0]["ratio"] == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-3)

    def test_empty_band_skipped(self):
        grid = SpectralGrid(128)
        sym = pure_power(1.0)
        u0 = transform(grid, np.cos(8 * grid.nodes))
        rows = strichartz_ratio(sym, [64.0], u0, n_t=17)
        assert rows == []

    def test_ensemble_table(self):
        grid = SpectralGrid(256)
        sym = pure_power(1.0)
        u0 = make_initial(grid, {"kind": "random_hs", "seed": 9, "s": 0.5, "target_norm": 1.0})
        rows = strichartz_ratio(sym, [4.0, 8.0, 16.0, 32.0, 64.0, 128.0], u0, n_t=33)
        assert len(rows) >= 5
        assert all(np.isfinite(r["ratio"]) and r["ratio"] > 0 for r in rows)


class TestRunner:
    def test_determinism_byte_identical(self, tmp_path):
        spec = spec_for("difference", s=0.3, sigma=-0.2, eps=[1e-2, 1e-3])
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        run_experiment(spec, d1)
        # re-run from the echoed spec
        echoed = ExperimentSpec.from_dict(json.loads((d1 / "spec.json").read_text())["experiment"])
        run_experiment(echoed, d2)
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()

    def test_summary_flags(self, tmp_path):
        spec = spec_for("energy_drift", s=0.3, n0=8.0)
        summary = run_experiment(spec, tmp_path / "drift")
        assert summary["pass_chain_rule"]

    def test_threshold_sensitivity(self, tmp_path):
        spec = spec_for("threshold", scale=16.0)
        summary = run_experiment(spec, tmp_path / "thr")
        vals = summary["high_high_remainder"]
        assert set(vals) == {"16", "32", "64"}
        assert all(0 <= v <= 1.5 for v in vals.values())

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigurationError):
            spec = spec_for("mystery")
            run_experiment(spec, tmp_path / "x")

    def test_strichartz_runner(self, tmp_path):
        spec = ExperimentSpec(
            name="strichartz",
            equation={"type": "pure_power", "alpha": 1.0},
            grid={"n": 128, "length": 2 * np.pi},
            initial={"kind": "random_hs", "seed": 2, "s": 0.5, "target_norm": 1.0},
            solver={"dt": 1e-3, "t_final": 1e-3},
            diagnostics={"scales": [4, 8, 16]},
        )
        summary = run_experiment(spec, tmp_path / "str")
        assert summary["torus_proxy"] is True
