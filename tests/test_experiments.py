import json
import tracemalloc

import numpy as np
import pytest

from dblab import ConfigurationError, SpectralGrid
from dblab.config import experiment, make_initial, make_symbol
from dblab.dyadic import CutoffTable
from dblab.experiments import (
    _halving_rate,
    difference_experiment,
    modified_energy_drift,
    run_experiment,
)


def spec_for(name, **diag):
    """A resolved experiment spec, as `dblab experiment` runs it."""
    return experiment({
        "name": name,
        "equation": {"type": "pure_power", "alpha": 1.0},
        "grid": {"n": 128, "length": 2 * np.pi},
        "initial": {"kind": "random_hs", "seed": 11, "s": 0.3, "target_norm": 0.5},
        "solver": {"dt": 2e-3, "t_final": 0.5, "record_every": 25},
        "diagnostics": diag,
        "seed": 11,
    })


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
        from dblab.spectral import sobolev_norm

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
        spec = spec_for("difference", s=0.3, sigma=-0.2, eps=[1e-2, 1e-3, 1e-4])
        out = difference_experiment(spec)
        assert out["ratio_max"] <= 10.0
        assert out["ratio_spread"] <= 1.5
        assert 1.5 <= out["residual"]["rate"] <= 2.5

    def test_v_runs_streamed_memory_bounded(self):
        # 101 records at n = 2048: the states of one run take 3.3 MB.  The study
        # holds the u states and streams each v run, one state at a time; packing
        # both runs into record arrays peaked at 17.8 MB
        spec = experiment({
            "name": "difference",
            "equation": {"type": "pure_power", "alpha": 1.0},
            "grid": {"n": 2048},
            "initial": {"kind": "random_hs", "seed": 11, "s": 0.3, "target_norm": 0.5},
            "solver": {"dt": 1e-3, "t_final": 0.2, "record_every": 2},
            "diagnostics": {"s": 0.3, "sigma": -0.2, "eps": [1e-2, 1e-3]},
            "seed": 11,
        })
        tracemalloc.start()
        try:
            out = difference_experiment(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out["rows"]) == 2 * 101
        assert peak <= 3 * 101 * 2048 * 16  # three record arrays, 9.9 MB

    def test_eps_zero_convention(self):
        spec = spec_for("difference", s=0.3, sigma=-0.2, eps=[0.0, 1e-3])
        out = difference_experiment(spec)
        assert out["final_ratios"]["0.0"] == 1.0

    def test_sigma_window_enforced(self):
        spec = spec_for("difference", s=0.3, sigma=-0.5, eps=[1e-3])
        with pytest.raises(ConfigurationError):
            difference_experiment(spec)

    def test_eps_without_nonzero_entry_refused(self):
        # the residual rate is measured at the first nonzero eps
        with pytest.raises(ConfigurationError):
            spec_for("difference", s=0.3, sigma=-0.2, eps=[0.0])

    def test_halving_rate_undefined_unless_both_errors_positive(self):
        assert _halving_rate(4.0, 1.0) == 2.0
        assert _halving_rate(0.0, 0.0) is None
        assert _halving_rate(0.0, 1.0) is None
        assert _halving_rate(1.0, 0.0) is None


class TestEnergyDrift:
    def test_multiscale_consistency(self):
        spec = spec_for("energy_drift", s=0.3, n0=8.0)
        out = modified_energy_drift(spec)
        assert out["chain_rule"]["scale"] is not None
        assert 1.5 <= out["chain_rule"]["rate"] <= 2.5
        assert len(out["rows"]) > 2

    def test_single_mode_corrector_free(self):
        spec = experiment({
            "name": "energy_drift",
            "equation": {"type": "pure_power", "alpha": 1.0},
            "grid": {"n": 64, "length": 2 * np.pi},
            "initial": {"kind": "cosine", "amplitude": 0.1, "mode": 2},
            "solver": {"dt": 1e-3, "t_final": 0.02, "record_every": 5},
            "diagnostics": {"s": 0.3, "n0": 8.0},
        })
        out = modified_energy_drift(spec)
        assert out["chain_rule"]["scale"] is None
        for row in out["rows"]:
            assert row["corrector_share"] == 0.0
            assert row["modified_drift"] == pytest.approx(row["plain_drift"], abs=1e-14)

    def test_linear_flow_checks(self):
        spec = experiment({
            "name": "energy_drift",
            "equation": {"type": "pure_power", "alpha": 1.0},
            "grid": {"n": 128, "length": 2 * np.pi},
            "initial": {"kind": "random_hs", "seed": 3, "s": 0.3, "target_norm": 0.5},
            "solver": {"dt": 1e-3, "t_final": 0.05, "record_every": 10, "nonlinear": False},
            "diagnostics": {"s": 0.3, "n0": 8.0},
        })
        out = modified_energy_drift(spec)
        lin = out["linear_flow"]
        assert lin["band_energy_drift"] < 1e-10
        assert lin["corrector_phase_error"] < 1e-12

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_one_ladder_pass_per_record(self, monkeypatch, nonlinear):
        # the report, plain drift, active scale and linear-flow band drift of a
        # record all come from its one pass
        calls = []
        original = CutoffTable.band_energies

        def counting(self, f):
            calls.append(f)
            return original(self, f)

        monkeypatch.setattr(CutoffTable, "band_energies", counting)
        spec = spec_for("energy_drift", s=0.3, n0=8.0)
        spec["solver"]["nonlinear"] = nonlinear
        out = modified_energy_drift(spec)
        assert len(out["rows"]) == 11 and len(calls) == 11
        assert ("linear_flow" in out) is not nonlinear

    def test_n0_below_two_refused(self):
        with pytest.raises(ConfigurationError, match="N0 must be >= 2"):
            modified_energy_drift(spec_for("energy_drift", s=0.3, n0=1.0))

    def test_chain_rule_step_resolves_omega2(self, tmp_path):
        # with the FD step tied to dt = 0.002, max |Omega_2| d = 0.16 on the
        # active plan and the measured rate was 0.39 (pre-asymptotic)
        spec = experiment({
            "name": "energy_drift",
            "equation": {"type": "pure_power", "alpha": 0.9},
            "grid": {"n": 128},
            "initial": {"kind": "random_hs", "seed": 3, "s": 0.5, "target_norm": 0.5},
            "solver": {"dt": 0.002, "t_final": 0.1},
            "diagnostics": {"s": 0.5, "n0": 8.0},
        })
        summary = run_experiment(spec, str(tmp_path))
        assert summary["pass_chain_rule"] is True


class TestRunner:
    def test_determinism_byte_identical(self, tmp_path):
        spec = spec_for("difference", s=0.3, sigma=-0.2, eps=[1e-2, 1e-3])
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        run_experiment(spec, d1)
        # re-run from the spec's JSON form, as a spec.json echo holds it
        run_experiment(experiment(json.loads(json.dumps(spec))), d2)
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()

    def test_summary_flags(self, tmp_path):
        spec = spec_for("energy_drift", s=0.3, n0=8.0)
        summary = run_experiment(spec, tmp_path / "drift")
        assert summary["pass_chain_rule"]

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigurationError):
            spec = spec_for("mystery")
            run_experiment(spec, tmp_path / "x")

    @pytest.mark.parametrize("name", ["xsb", "strichartz"])
    def test_deleted_torus_proxies_refused(self, tmp_path, name):
        # the space-time torus proxies are gone: their names are unknown experiments
        with pytest.raises(ConfigurationError, match="experiment"):
            run_experiment(spec_for(name, s=0.0, b=0.0), tmp_path / "x")
        assert not (tmp_path / "x").exists()
