import copy
import json
import re

import numpy as np
import pytest

from dblab import BlowUpError, ConfigurationError, SolverConfig, SpectralGrid, trajectory
from dblab.spectral import load_field_csv
from dblab.cli import cli_dispatch
from dblab.config import make_initial, make_symbol


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

    def test_unknown_command_exits_1(self, tmp_path, capsys):
        assert run_cli("simulat", "--config", str(tmp_path / "c.json")) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_config_exits_1(self, capsys):
        assert run_cli("simulate") == 1
        assert "--config" in capsys.readouterr().err

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

    # small valid configs; each case below breaks one key of one of them
    VALID = {
        "simulate": {
            "equation": {"type": "pure_power", "alpha": 1.0},
            "grid": {"n": 16},
            "time": {"dt": 0.01, "t_final": 0.02},
            "initial": {"kind": "cosine", "amplitude": 0.1, "mode": 1},
            "output": {"dir": "bad"},
        },
        "check-symbol": {"equation": {"type": "whitham"}, "output": {"dir": "bad"}},
        "check-multiplier": {
            "equation": {"type": "pure_power", "alpha": 1.0},
            "multiplier": {"pairs": 1},
            "output": {"dir": "bad"},
        },
        "check-resonance": {
            "equation": {"type": "pure_power", "alpha": 0.5},
            "resonance": {"order": 2, "n_samples": 100, "max_spread": 1e6},
            "output": {"dir": "bad"},
        },
        "experiment": {
            "experiment": {
                "name": "energy_drift",
                "equation": {"type": "pure_power", "alpha": 1.0},
                "grid": {"n": 16},
                "initial": {"kind": "cosine"},
                "solver": {"dt": 0.01, "t_final": 0.02, "record_every": 1},
                "diagnostics": {},
            },
            "output": {"dir": "bad"},
        },
        "convergence": {
            "equation": {"type": "pure_power", "alpha": 1.0},
            "grid": {"n": 16},
            "convergence": {"dts": [0.004, 0.002], "t_final": 0.02},
            "output": {"dir": "bad"},
        },
    }
    DROP = object()

    @pytest.mark.parametrize(
        "command, path, value",
        [
            ("simulate", ("initial", "amplitdue"), 0.1),
            ("simulate", ("initial",), {"kind": "random_hs", "seed": 1, "amplitude": 0.1}),
            ("check-symbol", ("equation",), {"type": "whitham", "alpha": 0.7}),
            ("check-symbol", ("equation",), {"type": "ilw", "tau": 7}),
            ("simulate", ("diagnostics",), {"sigma": -0.2}),
            ("experiment", ("experiment", "grid", "lenght"), 6.0),
            ("experiment", ("experiment", "solver", "shceme"), "etdrk4"),
            ("experiment", ("experiment", "diagnostics", "bb"), 0.0),
            ("experiment", ("experiment", "equation", "alpha"), DROP),
            ("experiment", ("experiment", "name"), "xsb"),
            ("experiment", ("experiment", "name"), "strichartz"),
            ("experiment", ("experiment", "name"), "threshold"),
            ("convergence", ("convergence", "slope_window"), [3.7]),
            ("convergence", ("convergence", "dts"), 0.002),
            ("simulate", ("initial",), "cosine"),
            ("simulate", ("time", "dealias"), "false"),
            ("simulate", ("output", "snapshots"), "no"),
            ("simulate", ("grid", "n"), 16.9),
            ("simulate", ("time", "record_every"), True),
            ("simulate", ("initial",), {"kind": "random_hs", "seed": 3.7}),
            ("convergence", ("convergence", "dts"), [0.003, 0.001]),
            ("check-resonance", ("resonance", "order"), 4),
            ("check-multiplier", ("multiplier", "beta_max"), 4),
            ("check-multiplier", ("multiplier", "beta_max"), 0),
            ("check-symbol", ("range",), {"beta_max": 4}),
            ("check-symbol", ("range",), {"beta_max": 1}),
        ],
        ids=[
            "initial-typo", "random_hs-amplitude", "whitham-alpha", "ilw-tau",
            "simulate-diagnostics-sigma", "experiment-grid-typo", "experiment-solver-typo",
            "experiment-diagnostics-unknown", "experiment-pure_power-no-alpha",
            "experiment-name-xsb", "experiment-name-strichartz", "experiment-name-threshold",
            "convergence-slope_window-one-number", "convergence-dts-scalar",
            "initial-not-an-object", "bool-from-string", "bool-from-word",
            "int-non-integral", "int-from-bool", "seed-non-integral",
            "convergence-dt-not-dividing", "resonance-order-4", "multiplier-beta_max-4",
            "multiplier-beta_max-0", "symbol-beta_max-4", "symbol-beta_max-1",
        ],
    )
    def test_rejected_before_any_output(self, tmp_path, monkeypatch, capsys, command, path, value):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = copy.deepcopy(self.VALID[command])
        *parents, key = path
        section = cfg
        for p in parents:
            section = section[p]
        if value is self.DROP:
            del section[key]
        else:
            section[key] = value
        assert run_cli(command, "--config", write_cfg(tmp_path / "c.json", cfg)) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "key, text",
        [("diagnostics.n0", "NaN"), ("diagnostics.n0", "Infinity"), ("diagnostics.s", "NaN"),
         ("time.dt", "Infinity"), ("time.dt", "true"), ("time.dt", '"0.5"')],
    )
    def test_non_finite_number_exits_1_naming_the_key(self, tmp_path, monkeypatch, capsys, key, text):
        # each of these used to run: without a corrector, with nan in results.csv,
        # for 0 steps, or with a boolean or a string read as a number
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = copy.deepcopy(self.VALID["simulate"])
        section, name = key.split(".")
        cfg.setdefault(section, {})[name] = "@"
        (tmp_path / "c.json").write_text(json.dumps(cfg).replace('"@"', text))
        assert run_cli("simulate", "--config", str(tmp_path / "c.json")) == 1
        assert f"{key}: must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_cosine_mode_without_a_partner_named(self, tmp_path, monkeypatch, capsys):
        # mode n/2 has no -n/2 partner on the grid; the refusal named -8, a mode
        # the config never gave
        want = r"mode 8 outside \|k\| <= 7"
        with pytest.raises(ConfigurationError, match=want):
            make_initial(SpectralGrid(16), {"kind": "cosine", "mode": 8})
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = copy.deepcopy(self.VALID["simulate"])
        cfg["initial"]["mode"] = 8
        assert run_cli("simulate", "--config", write_cfg(tmp_path / "c.json", cfg)) == 1
        assert re.search(want, capsys.readouterr().err)

    def test_valid_bases_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        for command, cfg in self.VALID.items():
            cfg = dict(cfg, output={"dir": command})
            if command == "convergence":
                cfg["convergence"] = dict(cfg["convergence"], slope_window=[0.0, 10.0])
            assert run_cli(command, "--config", write_cfg(tmp_path / "c.json", cfg)) == 0, command

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

    # The keys of a reports.jsonl line that the benchmark's reader
    # (perfbench/workloads.py, DiagRun.check) compares with its reference.
    # guard_skips is always 0 (a resonant pair raises), but it stays, and so
    # does its results.csv column, until that reader stops reading it.
    BENCHMARK_REPORT_KEYS = ("t", "per_scale", "modified", "corrector_share", "guard_skips",
                             "mass", "hamiltonian", "hs_norm")

    def test_report_keys_read_by_the_benchmark(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        equations = {"pure_power": {"alpha": 0.9}, "whitham": {}, "ilw": {}}
        for kind, params in equations.items():
            cfg = write_cfg(
                tmp_path / f"{kind}.json",
                {
                    "equation": {"type": kind, **params},
                    "grid": {"n": 64},
                    "time": {"dt": 1e-3, "t_final": 0.01, "record_every": 2},
                    "initial": {"kind": "random_hs", "seed": 3, "s": 0.45, "target_norm": 1.0},
                    "diagnostics": {"s": 0.45, "n0": 8.0},
                    "output": {"dir": kind, "snapshots": True},
                },
            )
            assert run_cli("simulate", "--config", cfg) == 0
            reports = (tmp_path / kind / "reports.jsonl").read_text().splitlines()
            assert len(reports) == 6
            for line in reports:
                rep = json.loads(line)
                assert set(self.BENCHMARK_REPORT_KEYS) <= set(rep)
                assert rep["guard_skips"] == 0
                assert rep["corrector_share"] > 0.0  # the corrector sums ran
            rows = (tmp_path / kind / "results.csv").read_text().strip().splitlines()
            assert rows[0].split(",")[-1] == "guard_skips"
            assert [r.split(",")[-1] for r in rows[1:]] == ["0"] * len(reports)

    def test_ilw_with_mean_conserves_hamiltonian(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "ilw.json",
            {
                "equation": {"type": "ilw"},
                "grid": {"n": 128},
                "time": {"dt": 1e-3, "t_final": 0.5, "record_every": 100},
                "initial": {"kind": "cosine", "amplitude": 1.0,
                            "modes": [[0, 0.5], [1, 0.3], [2, 0.2]]},
                "output": {"dir": "ilw"},
            },
        )
        assert run_cli("simulate", "--config", cfg) == 0
        lines = (tmp_path / "ilw" / "results.csv").read_text().strip().splitlines()
        hs = [float(l.split(",")[2]) for l in lines[1:]]
        assert len(hs) == 6
        assert max(abs(h - hs[0]) for h in hs) / abs(hs[0]) < 1e-8

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

    def test_rerun_into_same_dir_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "bo.json",
            {
                "equation": {"type": "pure_power", "alpha": 1.0},
                "grid": {"n": 64},
                "time": {"dt": 1e-3, "t_final": 0.02, "record_every": 5},
                "initial": {"kind": "cosine", "amplitude": 0.1, "mode": 1},
                "diagnostics": {"s": 0.3, "n0": 8.0},
                "output": {"dir": "bo", "snapshots": True},
            },
        )

        def outputs():
            return {p.name: p.read_bytes() for p in sorted((tmp_path / "bo").iterdir())}

        assert run_cli("simulate", "--config", cfg) == 0
        first = outputs()
        assert run_cli("simulate", "--config", cfg) == 0
        assert outputs() == first
        assert first["snapshots.csv"].count(b"index,t,file") == 1
        assert len(first["reports.jsonl"].splitlines()) == 5

    def test_blowup_keeps_records_up_to_last_valid_time(self, tmp_path, monkeypatch, capsys):
        # large data with weak dispersion and a coarse undealiased step
        # overflows after several records, between two record times
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        payload = {
            "equation": {"type": "pure_power", "alpha": 0.5},
            "grid": {"n": 64},
            "time": {"dt": 0.02, "t_final": 20.0, "record_every": 5, "dealias": False},
            "initial": {"kind": "cosine", "amplitude": 2.0, "mode": 1},
            "diagnostics": {"s": 0.3, "n0": 8.0, "every": 2},
            "output": {"dir": "blow", "snapshots": True},
        }
        assert run_cli("simulate", "--config", write_cfg(tmp_path / "b.json", payload)) == 2
        assert "blow-up" in capsys.readouterr().err
        out = tmp_path / "blow"
        grid = SpectralGrid(64)
        records = []
        with pytest.raises(BlowUpError) as info:
            for t, f in trajectory(make_initial(grid, payload["initial"]),
                                   make_symbol(payload["equation"]),
                                   SolverConfig(**payload["time"])):
                records.append((t, f))
        times = [t for t, _ in records]
        assert len(times) > 2
        assert times[-1] <= info.value.last_valid_time < times[-1] + 5 * 0.02
        index = [line.split(",") for line in (out / "snapshots.csv").read_text().splitlines()[1:]]
        assert [float(t) for _, t, _ in index] == times
        assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [name for _, _, name in index]
        for (_, _, name), (_, f) in zip(index, records):
            assert np.array_equal(load_field_csv(out / name).coeffs, f.coeffs)
        rows = (out / "results.csv").read_text().splitlines()[1:]
        reports = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
        assert [float(r.split(",")[0]) for r in rows] == times[::2]
        assert [r["t"] for r in reports] == times[::2]

    def test_shorter_rerun_removes_stale_snapshots(self, tmp_path, monkeypatch):
        # a rerun with fewer records must not leave the first run's extra
        # snapshot files behind, unlisted in snapshots.csv
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        out = tmp_path / "stale"

        def simulate(record_every):
            cfg = write_cfg(
                tmp_path / f"s{record_every}.json",
                {
                    "equation": {"type": "pure_power", "alpha": 1.0},
                    "grid": {"n": 16},
                    "time": {"dt": 0.01, "t_final": 0.04, "record_every": record_every},
                    "initial": {"kind": "cosine", "amplitude": 0.1, "mode": 1},
                    "diagnostics": {"n0": 16.0},
                    "output": {"dir": "stale", "snapshots": True},
                },
            )
            assert run_cli("simulate", "--config", cfg) == 0

        simulate(1)
        assert len(list(out.glob("snapshot_*.csv"))) == 5
        (out / "notes.txt").write_text("kept")
        simulate(4)
        listed = [line.split(",")[2] for line in
                  (out / "snapshots.csv").read_text().splitlines()[1:]]
        assert listed == ["snapshot_000000.csv", "snapshot_000001.csv"]
        assert sorted(p.name for p in out.glob("snapshot_*.csv")) == listed
        assert (out / "notes.txt").read_text() == "kept"

    def test_gaussian_t0_snapshot_has_a_zero_nyquist_row(self, tmp_path, monkeypatch):
        # the t = 0 record is the initial data itself, the one record not stepped
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "g.json",
            {
                "equation": {"type": "pure_power", "alpha": 0.9},
                "grid": {"n": 16},
                "time": {"dt": 0.01, "t_final": 0.02, "record_every": 1},
                "initial": {"kind": "gaussian", "amplitude": 1.0},
                "diagnostics": {"n0": 2.0},
                "output": {"dir": "g", "snapshots": True},
            },
        )
        assert run_cli("simulate", "--config", cfg) == 0
        for name in ("snapshot_000000.csv", "snapshot_000002.csv"):
            rows = (tmp_path / "g" / name).read_text().splitlines()[2:]
            assert len(rows) == 16 and rows[8] == "8,0,0"

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
    def test_experiment_reruns_from_its_echo(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "d.json",
            {
                "experiment": {
                    "name": "difference",
                    "equation": {"type": "pure_power", "alpha": 1.0},
                    "grid": {"n": 32},
                    "initial": {"kind": "random_hs", "seed": 4, "s": 0.3,
                                "target_norm": 0.4},
                    "solver": {"dt": 4e-3, "t_final": 0.04, "record_every": 5},
                    "diagnostics": {"s": 0.3, "sigma": -0.2, "eps": [1e-2, 1e-3]},
                },
                "output": {"dir": "diff"},
            },
        )
        out = tmp_path / "diff"
        assert run_cli("experiment", "--config", cfg) == 0
        first = {name: (out / name).read_bytes()
                 for name in ("results.csv", "summary.json", "spec.json")}
        assert run_cli("experiment", "--config", str(out / "spec.json")) == 0
        assert {name: (out / name).read_bytes() for name in first} == first

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

    def test_convergence_blowup_exits_2(self, tmp_path, monkeypatch, capsys):
        # large data with weak dispersion blows up at t = 0.24, long before t_final
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "c.json",
            {
                "equation": {"type": "pure_power", "alpha": 0.5},
                "grid": {"n": 64},
                "initial": {"kind": "cosine", "amplitude": 4.0, "mode": 1},
                "convergence": {"dts": [0.04, 0.02, 0.01], "t_final": 2.0},
                "output": {"dir": "conv"},
            },
        )
        assert run_cli("convergence", "--config", cfg) == 2
        assert "blow-up before t_final" in capsys.readouterr().err
        assert not (tmp_path / "conv" / "summary.json").exists()

    @pytest.mark.parametrize(
        "name, diagnostics",
        [
            ("energy_drift", {"s": 0.9, "n0": 2.0}),
            ("difference", {"s": 0.9, "sigma": -0.36, "eps": [0.01]}),
        ],
    )
    def test_experiment_blowup_exits_2(self, tmp_path, monkeypatch, capsys, name, diagnostics):
        # the data of test_convergence_blowup_exits_2 at half the amplitude
        # blows up at t = 0.36; a study of the records before it would
        # report on a solution that never reached t_final
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "e.json",
            {
                "experiment": {
                    "name": name,
                    "equation": {"type": "pure_power", "alpha": 0.5},
                    "grid": {"n": 64},
                    "initial": {"kind": "cosine", "amplitude": 2.0, "mode": 1},
                    "solver": {"dt": 0.01, "t_final": 2.0, "record_every": 10,
                               "dealias": False},
                    "diagnostics": diagnostics,
                },
                "output": {"dir": "blow"},
            },
        )
        assert run_cli("experiment", "--config", cfg) == 2
        assert "blow-up before t_final" in capsys.readouterr().err
        assert not (tmp_path / "blow" / "summary.json").exists()


    # a smooth difference run: its residual rate is 2.0 at eps = 0.01
    DIFFERENCE = {
        "name": "difference",
        "equation": {"type": "pure_power", "alpha": 0.9},
        "grid": {"n": 64},
        "initial": {"kind": "cosine", "amplitude": 0.3, "mode": 1},
        "solver": {"dt": 0.01, "t_final": 1.0},
        "diagnostics": {"s": 0.5, "sigma": -0.2, "eps": [0.01, 0.02]},
    }

    def _difference(self, tmp_path, out, solver=(), **diagnostics):
        spec = copy.deepcopy(self.DIFFERENCE)
        spec["solver"].update(solver)
        spec["diagnostics"].update(diagnostics)
        cfg = write_cfg(tmp_path / f"{out}.json", {"experiment": spec, "output": {"dir": out}})
        return run_cli("experiment", "--config", cfg)

    def test_residual_rate_at_first_nonzero_eps(self, tmp_path, monkeypatch):
        # eps = 0 is w == 0; the residual is measured at the first nonzero eps
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        assert self._difference(tmp_path, "plain") == 0
        assert self._difference(tmp_path, "zero_first", eps=[0.0, 0.01, 0.02]) == 0
        plain, zero_first = (json.loads((tmp_path / d / "summary.json").read_text())
                             for d in ("plain", "zero_first"))
        assert zero_first["residual"] == plain["residual"]
        assert zero_first["pass_residual_rate"] is True

    @pytest.mark.parametrize("flag", ["nonlinear", "dealias"])
    def test_residual_follows_solver_flags(self, tmp_path, monkeypatch, flag):
        # the residual takes the run's own right-hand side, so it stays
        # second order with the flag off
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        assert self._difference(tmp_path, flag, solver={flag: False}) == 0
        summary = json.loads((tmp_path / flag / "summary.json").read_text())
        assert 1.5 <= summary["residual"]["rate"] <= 2.5

    def test_eps_without_nonzero_entry_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        assert self._difference(tmp_path, "none", eps=[0.0]) == 1
        assert "nonzero" in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

    @staticmethod
    def _strict_json(path):
        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        return json.loads(path.read_text(), parse_constant=refuse)

    def test_undefined_rate_is_null(self, tmp_path, monkeypatch):
        # a zero perturbation gives w == 0 and a 0/0 residual rate
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        zero = {"kind": "cosine", "amplitude": 0.0}
        assert self._difference(tmp_path, "zero", perturbation=zero) == 2
        summary = self._strict_json(tmp_path / "zero" / "summary.json")
        assert summary["residual"]["rate"] is None
        assert summary["pass_residual_rate"] is False

    def test_undefined_slope_is_null(self, tmp_path, monkeypatch, capsys):
        # zero data: every error is 0, so the convergence slope is undefined
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "c.json",
            {
                "equation": {"type": "pure_power", "alpha": 1.0},
                "grid": {"n": 16},
                "initial": {"kind": "cosine", "amplitude": 0.0},
                "convergence": {"dts": [0.004, 0.002], "t_final": 0.02},
                "output": {"dir": "conv"},
            },
        )
        assert run_cli("convergence", "--config", cfg) == 2
        assert "temporal order undefined" in capsys.readouterr().err
        assert self._strict_json(tmp_path / "conv" / "summary.json")["slope"] is None


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

    def test_non_finite_symbol_exits_1(self, tmp_path, monkeypatch, capsys):
        # n1 = n2: the resonance quotient divides by Omega_2 = 0 at xi1 = -xi2
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "m.json",
            {
                "equation": {"type": "pure_power", "alpha": 1.0},
                "multiplier": {"n": 64.0, "s": 0.3, "n1": 64.0, "n2": 64.0, "pairs": 1},
                "output": {"dir": "mult"},
            },
        )
        with np.errstate(divide="ignore"):
            assert run_cli("check-multiplier", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert "evaluation error: resonance_quotient on box (64.0, 64.0)" in err
        assert not (tmp_path / "mult" / "marcinkiewicz_report.json").exists()

    def test_non_finite_closure_member_names_its_pair(self, tmp_path, monkeypatch, capsys):
        # the fifth draw is the a of pair 3; NaN values there stop the closure
        # at that pair, and the error names the pair and a's drawn parameters
        from dblab import cli
        from dblab.multipliers import MultiplierSymbol

        draw, drawn = cli._random_smooth_symbol, []

        def planted(rng):
            drawn.append(draw(rng))
            if len(drawn) != 5:
                return drawn[-1]
            return MultiplierSymbol(
                2, lambda x1, x2: np.full(np.broadcast(x1, x2).shape, np.nan), drawn[-1].name
            )

        monkeypatch.setattr(cli, "_random_smooth_symbol", planted)
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "m.json",
            {
                "equation": {"type": "pure_power", "alpha": 1.0},
                "multiplier": {"pairs": 5},
                "output": {"dir": "mult"},
            },
        )
        assert run_cli("check-multiplier", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert "evaluation error: product closure pair 3 of 5: " in err
        assert f"a = {drawn[4].name}, b = {drawn[5].name}" in err
        num = r"[\d.]+"
        assert re.search(rf"a = smooth_band\(c={num}, w=\({num}, {num}\), m=\({num}, {num}\)\)", err)
        assert len(drawn) == 6
        assert not (tmp_path / "mult" / "marcinkiewicz_report.json").exists()

    def test_empty_box_exits_1(self, tmp_path, monkeypatch, capsys):
        # n = 8: the dressed symbol's box (1, 8) keeps no point in its band
        # |xi1| <= N/16, so its asserted table has nothing to sample
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = write_cfg(
            tmp_path / "m.json",
            {
                "equation": {"type": "pure_power", "alpha": 1.0},
                "multiplier": {"n": 8.0, "pairs": 1},
                "output": {"dir": "mult"},
            },
        )
        assert run_cli("check-multiplier", "--config", cfg) == 1
        assert "on box (1.0, 8.0): no sample point" in capsys.readouterr().err
        assert not (tmp_path / "mult" / "marcinkiewicz_report.json").exists()
