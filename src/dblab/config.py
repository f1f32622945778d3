"""The config schema of every ``dblab`` command (:data:`COMMANDS`).

A key table maps key -> (default or REQUIRED, caster), or key -> nested table
or resolver for a section.  :func:`check_keys` rejects non-objects and unknown
keys and casts every value, given or default, so a resolved config lists each
knob a run used and no other, and resolving it again gives it back unchanged:
a run repeats from its echoed spec.json.  The equation, the initial data and
an experiment pick their table by their ``type`` / ``kind`` / ``name``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigurationError
from .solver import SolverConfig
from .spectral import Field, SpectralGrid, _number, sobolev_norm, transform
from .symbols import DispersionSymbol, ilw, pure_power, whitham

__all__ = ["COMMANDS", "check_keys", "experiment", "make_initial", "make_symbol"]

REQUIRED = object()


def _require_object(section, where):
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where}: expected an object, got {section!r}")


def check_keys(section, table: dict, where: str) -> dict:
    """Resolve one config section against ``table``."""
    _require_object(section, where)
    unknown = set(section) - set(table)
    if unknown:
        raise ConfigurationError(f"{where}: unknown key(s) {sorted(unknown)}")
    out = {}
    for key, entry in table.items():
        # a bare table or resolver is a nested section, missing means {}
        default, cast = entry if isinstance(entry, tuple) else ({}, entry)
        if key not in section and default is REQUIRED:
            raise ConfigurationError(f"{where}: missing required key {key!r}")
        value = section.get(key, default)
        try:
            out[key] = check_keys(value, cast, key) if isinstance(cast, dict) else cast(value)
        except ConfigurationError:
            raise
        except (TypeError, ValueError) as e:
            raise ConfigurationError(f"{where}.{key}: {e}")
    return out


def _tagged(section, tag: str, default, tables: dict, where: str) -> dict:
    """Resolve a section whose keys depend on the value of its ``tag`` key."""
    _require_object(section, where)
    kind = section.get(tag, default)
    if not isinstance(kind, str) or kind not in tables:
        raise ConfigurationError(f"{where}.{tag}: got {kind!r}, expected one of {sorted(tables)}")
    return check_keys(section, {tag: (kind, str), **tables[kind]}, f"{where} ({kind})")


# -- casters -------------------------------------------------------------------

def _finite(x) -> float:
    """A finite real number as a float: booleans, strings, NaN and +-inf (which
    JSON's NaN and Infinity give) are refused."""
    if not (_number(x) and math.isfinite(x)):
        raise ValueError(f"must be a finite number, got {x!r}")
    return float(x)


def _positive(x) -> float:
    v = _finite(x)
    if v <= 0:
        raise ValueError(f"must be positive, got {v}")
    return v


def _bool(x) -> bool:
    if not isinstance(x, bool):
        raise ValueError(f"must be true or false, got {x!r}")
    return x


def _int(x) -> int:
    """An integer, or a float with an integral value; booleans and strings are refused."""
    integral = isinstance(x, numbers.Integral) or (isinstance(x, float) and x.is_integer())
    if isinstance(x, bool) or not integral:
        raise ValueError(f"must be an integer, got {x!r}")
    return int(x)


def _posint(x) -> int:
    v = _int(x)
    if v <= 0:
        raise ValueError(f"must be a positive integer, got {v}")
    return v


def _int_in(*allowed):
    """A caster to one of the integers `allowed`."""
    def cast(x) -> int:
        if (v := _int(x)) not in allowed:
            raise ValueError(f"must be one of {allowed}, got {v}")
        return v
    return cast


def _optional(cast):
    return lambda x: None if x is None else cast(x)


def _numbers(x, cast=_finite) -> list:
    if not isinstance(x, list) or not x:
        raise ValueError(f"must be a non-empty list of numbers, got {x!r}")
    return [cast(v) for v in x]


def _positives(x) -> list:
    return _numbers(x, _positive)


def _nonzero_numbers(x) -> list:
    v = _numbers(x)
    if not any(v):
        raise ValueError(f"needs a nonzero entry, got {v}")
    return v


def _window(x) -> list:
    if not isinstance(x, list) or len(x) != 2:
        raise ValueError(f"must be two numbers [lo, hi], got {x!r}")
    lo, hi = _finite(x[0]), _finite(x[1])
    if lo > hi:
        raise ValueError(f"needs lo <= hi, got [{lo}, {hi}]")
    return [lo, hi]


def _modes(x) -> list:
    if not isinstance(x, list) or not x:
        raise ValueError(f"must be a non-empty list of [k, weight] pairs, got {x!r}")
    return [[_int(k), _finite(w)] for k, w in x]


# -- shared sections -----------------------------------------------------------

GRID = {"n": (256, _posint), "length": (2.0 * np.pi, _positive)}

# exactly SolverConfig's fields: callers build SolverConfig(**section)
SOLVER = {
    "scheme": ("ifrk4", str),
    "dt": (1e-3, _positive),
    "t_final": (1.0, _positive),
    "record_every": (10, _posint),
    "dealias": (True, _bool),
    "nonlinear": (True, _bool),
}

OUTPUT = {"dir": ("out", str)}

# equation type -> its keys (whitham and ilw fix their dispersion strength)
EQUATIONS = {
    "pure_power": {"alpha": (REQUIRED, _finite)},
    "whitham": {"tau": (1.0, _positive)},
    "ilw": {},
}
_SYMBOLS = {"pure_power": pure_power, "whitham": whitham, "ilw": ilw}

# initial-data kind -> its keys; gaussian width/center default to L/16 and L/2
INITIALS = {
    "cosine": {"amplitude": (0.1, _finite), "mode": (None, _optional(_int)),
               "modes": (None, _optional(_modes))},
    "gaussian": {"amplitude": (0.1, _finite), "width": (None, _optional(_positive)),
                 "center": (None, _optional(_finite))},
    "random_hs": {"seed": (0, _int), "s": (0.5, _finite), "target_norm": (1.0, _positive)},
}


def equation(section) -> dict:
    return _tagged(section, "type", "pure_power", EQUATIONS, "equation")


def make_symbol(section) -> DispersionSymbol:
    """The dispersion symbol of an equation section (raw or resolved)."""
    eq = equation(section)
    return _SYMBOLS[eq.pop("type")](**eq)


def initial(section, where: str = "initial") -> dict:
    r = _tagged(section, "kind", "cosine", INITIALS, where)
    if r["kind"] == "cosine":
        # 'mode': k is short for 'modes': [[k, 1.0]]; the resolved form keeps 'modes'
        mode = r.pop("mode")
        if r["modes"] is None:
            r["modes"] = [[1 if mode is None else mode, 1.0]]
        elif mode is not None:
            raise ConfigurationError(f"{where}: give 'mode' or 'modes', not both")
    return r


def make_initial(grid: SpectralGrid, section) -> Field:
    """Initial data from an initial section (raw or resolved).

    `gaussian` and `random_hs` data are mean-free.  A `cosine` mode 0 of
    weight w is the constant amplitude * w, so such data carry a mean.
    """
    r = initial(section)
    if r["kind"] == "cosine":
        # exact coefficients: no transform roundoff outside the named modes
        top = grid.n // 2 - 1  # a field carries no n/2 mode, which has no -n/2 partner
        c = np.zeros(grid.n, dtype=complex)
        for k, w in r["modes"]:
            if abs(k) > top:
                raise ConfigurationError(f"initial(cosine): mode {k} outside |k| <= {top} "
                                         f"(n/2 - 1) on a grid of n = {grid.n}")
            c[grid.index_of(k)] += 0.5 * r["amplitude"] * w
            c[grid.index_of(-k)] += 0.5 * r["amplitude"] * w
        return Field(grid, c)
    if r["kind"] == "gaussian":
        width = grid.length / 16.0 if r["width"] is None else r["width"]
        center = grid.length / 2.0 if r["center"] is None else r["center"]
        x = grid.nodes
        u = np.exp(-0.5 * ((x - center) / width) ** 2)
        u -= u.mean()
        return transform(grid, r["amplitude"] * u)
    # random_hs
    rng = np.random.default_rng(r["seed"])
    s = r["s"]
    xi = grid.frequencies
    raw = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    raw *= (1.0 + xi**2) ** (-0.5 * (s + 0.75))
    raw[0] = 0.0
    n = grid.n
    sym = 0.5 * (raw + np.conj(raw[(n - np.arange(n)) % n]))
    sym[grid.nyquist_index] = 0.0
    f = Field(grid, sym)
    norm = sobolev_norm(f, s)
    return Field(grid, sym * (r["target_norm"] / norm)) if norm > 0 else f


# -- experiments -----------------------------------------------------------------

# experiment name -> its diagnostics keys
DIAGNOSTICS = {
    "difference": {
        "s": (0.3, _finite),
        "sigma": (-0.2, _finite),
        "eps": ([1e-2, 1e-3, 1e-4], _nonzero_numbers),
        # default: a unit random_hs field at s, seeded one past the spec
        "perturbation": (None, _optional(lambda p: initial(p, "diagnostics.perturbation"))),
    },
    "energy_drift": {"s": (0.3, _finite), "n0": (8.0, _positive)},
}

_EXPERIMENTS = {
    name: {
        "seed": (0, _int),
        "equation": equation,
        "grid": GRID,
        "initial": initial,
        "solver": SOLVER,
        "diagnostics": diag,
    }
    for name, diag in DIAGNOSTICS.items()
}


def experiment(spec) -> dict:
    """Resolve an experiment spec: name, seed, equation, grid, initial, solver, diagnostics."""
    r = _tagged(spec, "name", None, _EXPERIMENTS, "experiment")
    diag = r["diagnostics"]
    if r["name"] == "difference" and diag["perturbation"] is None:
        diag["perturbation"] = initial({"kind": "random_hs", "seed": r["seed"] + 1, "s": diag["s"]})
    return r


# -- CLI subcommands ---------------------------------------------------------------

CONVERGENCE = {
    "dts": ([4e-3, 2e-3, 1e-3], _positives),
    "t_final": (0.5, _positive),
    "scheme": ("ifrk4", str),
    "slope_window": ([3.7, 4.3], _window),
}


def convergence(section) -> dict:
    """Resolve a convergence section; every dt must divide t_final."""
    r = check_keys(section, CONVERGENCE, "convergence")
    for dt in r["dts"]:
        SolverConfig(scheme=r["scheme"], dt=dt, t_final=r["t_final"])
    return r


COMMANDS = {
    "simulate": {
        "equation": equation,
        "grid": GRID,
        "time": SOLVER,
        "initial": initial,
        "diagnostics": {"s": (0.0, _finite), "n0": (64.0, _positive), "every": (1, _posint)},
        "output": {**OUTPUT, "snapshots": (False, _bool)},
    },
    "check-symbol": {
        "equation": equation,
        "range": {"lo": (2.0, _positive), "hi": (100.0, _positive), "beta_max": (3, _int_in(2, 3))},
        "output": OUTPUT,
    },
    "check-resonance": {
        "equation": equation,
        "resonance": {
            "order": (2, _int_in(2, 3)),
            "n_samples": (10**5, _posint),
            "scale_lo": (1.0, _positive),
            "scale_hi": (1e3, _positive),
            "separation": (32.0, _positive),
            "seed": (0, _int),
            "max_spread": (REQUIRED, _positive),
        },
        "output": OUTPUT,
    },
    "check-multiplier": {
        "equation": equation,
        "multiplier": {
            "n": (64.0, _positive),
            "s": (0.3, _finite),
            "n1": (2.0, _positive),
            "n2": (64.0, _positive),
            "beta_max": (3, _int_in(1, 2, 3)),  # the orders of FD_STENCILS
            "pairs_seed": (0, _int),
            "pairs": (5, _posint),
        },
        "output": OUTPUT,
    },
    "check-energy": {
        "equation": equation,
        "grid": GRID,
        "energy": {
            "s": (0.3, _finite),
            "sigma": (-0.2, _finite),
            "n0": (64.0, _positive),
            "fields": (10, _posint),
            "seed": (0, _int),
            "target_norm": (1.0, _positive),
            "difference": (True, _bool),
        },
        "output": OUTPUT,
    },
    "experiment": {
        "experiment": (REQUIRED, experiment),
        "output": OUTPUT,
    },
    "convergence": {
        "equation": equation,
        "grid": GRID,
        "initial": (
            {"kind": "cosine", "amplitude": 0.4, "modes": [[1, 1.0], [2, 0.5]]},
            initial,
        ),
        "convergence": convergence,
        "output": OUTPUT,
    },
}

