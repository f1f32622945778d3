"""The config schema: every shipped config resolves, a resolved config (what a
run echoes to spec.json) resolves to itself, and a re-run from the echo writes
the same directory."""

import json
import math
import shutil
from pathlib import Path

import pytest

from dblab import ConfigurationError, config
from dblab.cli import cli_dispatch
from dblab.config import COMMANDS, REQUIRED, check_keys

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


def _tree(root: Path) -> dict:
    """Every file under `root`, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("name", sorted(COMMAND_OF))
def test_rerun_from_echo_writes_the_same_directory(tmp_path, monkeypatch, name):
    # a relative DBL_OUTPUT_DIR roots a relative output.dir, and the echo keeps
    # output.dir as given: the re-run under the same DBL_OUTPUT_DIR rewrites the
    # first run's files, byte for byte, and nests no rel/rel
    command = COMMAND_OF[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DBL_OUTPUT_DIR", "rel")
    assert cli_dispatch([command, "--config", str(CONFIGS / name)]) == 0
    resolved = resolve(json.loads((CONFIGS / name).read_text()), command)
    outdir = Path("rel", resolved["output"]["dir"])
    first = _tree(Path("rel"))
    for p in outdir.iterdir():
        if p.name != "spec.json":
            shutil.rmtree(p) if p.is_dir() else p.unlink()
    assert cli_dispatch([command, "--config", str(outdir / "spec.json")]) == 0
    assert not Path("rel", "rel").exists()
    again = _tree(Path("rel"))
    assert sorted(again) == sorted(first)
    assert again == first


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


def test_experiment_echo_resolves_to_itself(tmp_path, monkeypatch):
    monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
    cfg = {
        "experiment": {
            "name": "energy_drift",
            "equation": {"type": "pure_power", "alpha": 1.0},
            "grid": {"n": 64},
            "initial": {"kind": "random_hs", "seed": 2, "s": 0.3},
        },
        "output": {"dir": "run"},
    }
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert cli_dispatch(["experiment", "--config", str(tmp_path / "c.json")]) == 0
    echo = json.loads((tmp_path / "run" / "spec.json").read_text())
    assert echo == {"experiment": config.experiment(cfg["experiment"]), "output": {"dir": "run"}}
    assert resolve(echo, "experiment") == echo


# -- non-finite numbers ----------------------------------------------------------

# each section resolver of the schema -> its key tables by variant name; a
# resolver missing here fails the walk, so a new section cannot go unchecked
SECTIONS = {
    config.equation: config.EQUATIONS,
    config.initial: config.INITIALS,
    config.experiment: config._EXPERIMENTS,
    config.convergence: {"": config.CONVERGENCE},
}
BAD = [math.nan, math.inf, -math.inf, True, False]
# finite stand-ins for keys whose default is no number (None or REQUIRED)
SAMPLES = [1.0, [1.0, 2.0], [[1, 1.0]]]


def _leaves(table, path):
    """(dotted path, key, (default, cast)) of every leaf key of a table."""
    for key, entry in table.items():
        if isinstance(entry, dict):
            yield from _leaves(entry, f"{path}.{key}")
            continue
        default, cast = entry if isinstance(entry, tuple) else ({}, entry)
        if cast in SECTIONS:
            for variant, sub in SECTIONS[cast].items():
                yield from _leaves(sub, f"{path}.{key}({variant})" if variant else f"{path}.{key}")
        else:
            assert not isinstance(default, dict), f"{path}.{key}: unlisted section resolver"
            yield f"{path}.{key}", key, (default, cast)


def _accepts(cast, value):
    try:
        cast(value)
        return True
    except (TypeError, ValueError, ConfigurationError):
        return False


def _spoiled(value):
    """Copies of a value with one of its numbers replaced by each of BAD and by
    the number as a string."""
    if isinstance(value, list):
        for i, v in enumerate(value):
            for s in _spoiled(v):
                yield value[:i] + [s] + value[i + 1:]
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield from BAD
        yield str(value)


def _numeric_keys() -> dict:
    """path -> (key, entry, a finite value it accepts) of every key that takes numbers."""
    out = {}
    for name, table in COMMANDS.items():
        for path, key, (default, cast) in _leaves(table, name):
            candidates = SAMPLES if default is None or default is REQUIRED else [default]
            for value in candidates:
                if any(True for _ in _spoiled(value)) and _accepts(cast, value):
                    out[path] = (key, (default, cast), value)
                    break
    return out


def test_every_numeric_key_refuses_non_finite_numbers():
    # JSON's NaN, Infinity and -Infinity, the booleans and a number written as a
    # string, each refused with the key named, by every key that takes numbers,
    # of every command and experiment table
    numeric = _numeric_keys()
    for path in ("simulate.diagnostics.n0", "simulate.diagnostics.s", "simulate.time.dt",
                 "simulate.equation(pure_power).alpha", "simulate.initial(gaussian).center",
                 "simulate.initial(cosine).modes",
                 "experiment.experiment(difference).diagnostics.eps",
                 "convergence.convergence.slope_window",
                 "check-resonance.resonance.max_spread", "check-energy.grid.n"):
        assert path in numeric, path
    accepted = []
    for path, (key, entry, value) in sorted(numeric.items()):
        for bad in _spoiled(value):
            try:
                check_keys({key: bad}, {key: entry}, path)
                accepted.append((path, bad))
            except ConfigurationError as e:
                assert f".{key}: " in str(e), (path, str(e))
    assert not accepted
