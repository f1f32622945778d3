"""The config schema: every shipped config resolves, and a resolved config
(what a run echoes to spec.json) resolves to itself."""

import json
from pathlib import Path

import pytest

from dblab.cli import cli_dispatch
from dblab.config import COMMANDS, check_keys
from dblab.experiments import ExperimentSpec, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COMMAND_OF = {
    "bo_smoke.json": "simulate",
    "convergence.json": "convergence",
    "energy_coercivity.json": "check-energy",
    "lipschitz_experiment.json": "experiment",
    "multiplier_checks.json": "check-multiplier",
    "resonance_bo.json": "check-resonance",
    "whitham_symbol.json": "check-symbol",
}


def resolve(cfg, command):
    return check_keys(cfg, COMMANDS[command], "top level")


def test_every_shipped_config_is_covered():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(COMMAND_OF)


@pytest.mark.parametrize("name", sorted(COMMAND_OF))
def test_shipped_config_round_trip(name):
    command = COMMAND_OF[name]
    resolved = resolve(json.loads((CONFIGS / name).read_text()), command)
    echo = json.loads(json.dumps(resolved))
    assert echo == resolved
    assert resolve(echo, command) == echo
    if command == "experiment":
        spec = ExperimentSpec(**resolved["experiment"]).to_dict()
        assert ExperimentSpec.from_dict(json.loads(json.dumps(spec))).to_dict() == spec


@pytest.mark.parametrize(
    "equation, initial",
    [
        ({"type": "whitham"}, {"kind": "gaussian", "amplitude": 0.2}),
        ({"type": "ilw"}, {"kind": "cosine", "modes": [[1, 1.0], [3, 0.25]]}),
        ({"type": "pure_power", "alpha": 0.5}, {"kind": "random_hs", "seed": 3}),
    ],
)
def test_simulate_echo_resolves_to_itself(tmp_path, monkeypatch, equation, initial):
    monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
    cfg = {
        "equation": equation,
        "grid": {"n": 16},
        "time": {"dt": 0.01, "t_final": 0.02, "record_every": 1},
        "initial": initial,
        "output": {"dir": "run"},
    }
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert cli_dispatch(["simulate", "--config", str(tmp_path / "c.json")]) == 0
    echo = json.loads((tmp_path / "run" / "spec.json").read_text())
    assert resolve(echo, "simulate") == echo


def test_experiment_echo_resolves_to_itself(tmp_path):
    spec = ExperimentSpec(
        name="threshold",
        equation={"type": "pure_power", "alpha": 1.0},
        grid={"n": 64},
        initial={"kind": "random_hs", "seed": 2, "s": 0.3},
        solver={},
        diagnostics={},
    )
    run_experiment(spec, tmp_path)
    echo = json.loads((tmp_path / "spec.json").read_text())
    assert echo == {"experiment": spec.to_dict(), "output": {"dir": str(tmp_path)}}
    assert ExperimentSpec.from_dict(echo["experiment"]).to_dict() == echo["experiment"]
