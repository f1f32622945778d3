import json

from dblab.cli import cli_dispatch


def write_cfg(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def run_cli(*argv):
    return cli_dispatch(list(argv))


class TestConfigErrors:
    def test_malformed_json_reports_position(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"equation": {"alpha": }}')
        assert run_cli("check-symbol", "--config", str(p)) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_missing_file(self, tmp_path):
        assert run_cli("simulate", "--config", str(tmp_path / "nope.json")) == 1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.json",
            {"equation": {"type": "pure_power", "alpha": 1.0, "speed": 3}},
        )
        assert run_cli("check-symbol", "--config", cfg) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "r.json",
            {"equation": {"type": "pure_power", "alpha": 0.5},
             "resonance": {"order": 2}},  # max_spread required
        )
        assert run_cli("check-resonance", "--config", cfg) == 1
        assert "max_spread" in capsys.readouterr().err

    def test_alpha_missing_for_pure_power(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "noalpha.json",
            {"equation": {"type": "pure_power"},
             "resonance": {"order": 2, "n_samples": 100, "max_spread": 50.0},
             "output": {"dir": "r"}},
        )
        assert run_cli("check-resonance", "--config", cfg) == 1
        assert "alpha" in capsys.readouterr().err

    def test_nonpositive_parameter(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "np.json",
            {"grid": {"n": 64, "length": -1.0}, "output": {"dir": "o"}},
        )
        assert run_cli("check-energy", "--config", cfg) == 1


class TestCheckSymbol:
    def test_whitham_passes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "w.json",
            {
                "equation": {"type": "whitham", "tau": 1.0},
                "range": {"lo": 2.0, "hi": 100.0, "beta_max": 3},
                "output": {"dir": "sym"},
            },
        )
        assert run_cli("check-symbol", "--config", cfg) == 0
        rep = json.loads((tmp_path / "sym" / "hypothesis_report.json").read_text())
        assert rep["hyp2_pass"] and all(rep["passes"].values())
        assert (tmp_path / "sym" / "spec.json").exists()


class TestCheckResonance:
    def test_pass_and_fail_exit_codes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        base = {
            "equation": {"type": "pure_power", "alpha": 0.5},
            "resonance": {"order": 2, "n_samples": 20000, "max_spread": 50.0,
                          "seed": 3},
            "output": {"dir": "res"},
        }
        cfg = write_cfg(tmp_path / "res.json", base)
        assert run_cli("check-resonance", "--config", cfg) == 0
        tight = dict(base)
        tight["resonance"] = dict(base["resonance"], max_spread=1.01)
        cfg2 = write_cfg(tmp_path / "res2.json", tight)
        assert run_cli("check-resonance", "--config", cfg2) == 2


class TestSimulate:
    def test_bo_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "bo.json",
            {
                "equation": {"type": "pure_power", "alpha": 1.0},
                "grid": {"n": 128},
                "time": {"dt": 1e-3, "t_final": 0.05, "record_every": 10},
                "initial": {"kind": "cosine", "amplitude": 0.1, "mode": 1},
                "diagnostics": {"s": 0.3, "n0": 8.0},
                "output": {"dir": "bo"},
            },
        )
        assert run_cli("simulate", "--config", cfg) == 0
        lines = (tmp_path / "bo" / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "t,mass,hamiltonian,hs_norm,modified_energy,corrector_share,guard_skips"
        ts = [float(l.split(",")[0]) for l in lines[1:]]
        assert ts == sorted(ts) and len(ts) >= 5
        masses = [float(l.split(",")[1]) for l in lines[1:]]
        assert abs(masses[-1] - masses[0]) / masses[0] < 1e-10

    def test_rerun_from_echo_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "a.json",
            {
                "equation": {"type": "pure_power", "alpha": 1.0},
                "grid": {"n": 64},
                "time": {"dt": 1e-3, "t_final": 0.02, "record_every": 5},
                "initial": {"kind": "random_hs", "seed": 7, "s": 0.3,
                            "target_norm": 0.4},
                "diagnostics": {"s": 0.3, "n0": 8.0},
                "output": {"dir": "run1"},
            },
        )
        assert run_cli("simulate", "--config", cfg) == 0
        echoed = json.loads((tmp_path / "run1" / "spec.json").read_text())
        echoed["output"]["dir"] = "run2"
        cfg2 = write_cfg(tmp_path / "b.json", echoed)
        assert run_cli("simulate", "--config", cfg2) == 0
        a = (tmp_path / "run1" / "results.csv").read_bytes()
        b = (tmp_path / "run2" / "results.csv").read_bytes()
        assert a == b

    def test_dt_not_dividing_t_final_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "dt.json",
            {
                "equation": {"type": "pure_power", "alpha": 1.0},
                "grid": {"n": 64},
                "time": {"dt": 0.3, "t_final": 1.0},  # would stop at t = 0.9
                "initial": {"kind": "cosine", "amplitude": 0.1, "mode": 1},
                "output": {"dir": "dt"},
            },
        )
        assert run_cli("simulate", "--config", cfg) == 1
        assert "divide" in capsys.readouterr().err
        assert not (tmp_path / "dt" / "results.csv").exists()


class TestCheckEnergy:
    def test_coercivity_pass(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "e.json",
            {
                "equation": {"type": "pure_power", "alpha": 1.0},
                "grid": {"n": 128},
                "energy": {"s": 0.3, "sigma": -0.2, "n0": 64.0, "fields": 2},
                "output": {"dir": "en"},
            },
        )
        assert run_cli("check-energy", "--config", cfg) == 0
        rows = json.loads((tmp_path / "en" / "coercivity_report.json").read_text())
        assert len(rows) == 2 and all(r["plain"]["passed"] for r in rows)

    def test_sigma_outside_window_rejected(self, tmp_path, monkeypatch, capsys):
        # alpha = 1, s = 0.3 admits sigma in (-0.25, -0.2]
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "sig.json",
            {
                "equation": {"type": "pure_power", "alpha": 1.0},
                "grid": {"n": 64},
                "energy": {"s": 0.3, "sigma": 0.5, "n0": 8.0, "fields": 1},
                "output": {"dir": "sig"},
            },
        )
        assert run_cli("check-energy", "--config", cfg) == 1
        assert "window" in capsys.readouterr().err
        assert not (tmp_path / "sig" / "coercivity_report.json").exists()


class TestExperimentAndConvergence:
    def test_experiment_runner(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "x.json",
            {
                "experiment": {
                    "name": "xsb",
                    "equation": {"type": "pure_power", "alpha": 1.0},
                    "grid": {"n": 64},
                    "initial": {"kind": "cosine", "amplitude": 0.2, "mode": 2},
                    "solver": {"dt": 2e-3, "t_final": 0.256, "record_every": 2},
                    "diagnostics": {"s": 0.0, "b": 0.0},
                },
                "output": {"dir": "xsb"},
            },
        )
        assert run_cli("experiment", "--config", cfg) == 0
        summary = json.loads((tmp_path / "xsb" / "summary.json").read_text())
        assert summary["torus_proxy"] is True

    def test_convergence_window(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "c.json",
            {
                "equation": {"type": "pure_power", "alpha": 1.0},
                "grid": {"n": 64},
                "initial": {"kind": "cosine", "amplitude": 0.4,
                            "modes": [[1, 1.0], [2, 0.5]]},
                "convergence": {"dts": [4e-3, 2e-3, 1e-3], "t_final": 0.2},
                "output": {"dir": "conv"},
            },
        )
        assert run_cli("convergence", "--config", cfg) == 0
        summary = json.loads((tmp_path / "conv" / "summary.json").read_text())
        assert 3.7 <= summary["slope"] <= 4.3


class TestCheckMultiplier:
    def test_report_written(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "m.json",
            {
                "equation": {"type": "pure_power", "alpha": 1.0},
                "multiplier": {"n": 64.0, "s": 0.3, "n1": 2.0, "n2": 64.0,
                               "pairs": 2},
                "output": {"dir": "mult"},
            },
        )
        rc = run_cli("check-multiplier", "--config", cfg)
        assert rc == 0
        rep = json.loads((tmp_path / "mult" / "marcinkiewicz_report.json").read_text())
        assert rep["tensor"]["passes"] and rep["product_closure_pass"]
