"""Resonance functions of order 2 and 3 and their comparability laws.

Omega_2(xi1, xi2) = omega(xi1+xi2) - omega(xi1) - omega(xi2)
Omega_3(xi1, xi2, xi3) = omega(xi1+xi2+xi3) - omega(xi1) - omega(xi2) - omega(xi3)

Empirically verified laws (reported as [min, max] sample ratios, never with
asserted constants):

* |Omega_2| ~ |xi_min| |xi_max|^alpha   over {xi1, xi2, xi3 = -(xi1+xi2)};
* |Omega_3| ~ |xi_thd| |xi_max|^alpha   when |xi_min| << |xi_thd| over the
  four frequencies {xi1, xi2, xi3, xi4 = -(xi1+xi2+xi3)}.

Accuracy: Omega_2 and Omega_3 are evaluated by the subtraction formulas
above, so their rounding error is absolute, a few eps * sum |omega(.)| over
the frequencies involved, not relative to |Omega|. When |xi_min| << |xi_max|
the omega-values cancel and the relative error of Omega grows accordingly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .symbols import XI0, DispersionSymbol

__all__ = [
    "omega2",
    "omega3",
    "ComparabilityReport",
    "verify_res2",
    "verify_res3",
]


def omega2(sym: DispersionSymbol, xi1, xi2):
    # grouped so that swapping the arguments is bit-exact (float + commutes)
    return sym.omega(np.asarray(xi1) + np.asarray(xi2)) - (sym.omega(xi1) + sym.omega(xi2))


def omega3(sym: DispersionSymbol, xi1, xi2, xi3):
    # canonical (sorted) accumulation: exact symmetry under argument permutations
    xs = np.sort(np.stack(np.broadcast_arrays(
        np.asarray(xi1, dtype=float), np.asarray(xi2, dtype=float),
        np.asarray(xi3, dtype=float))), axis=0)
    total = (xs[0] + xs[1]) + xs[2]
    ws = np.sort(np.stack([sym.omega(xs[0]), sym.omega(xs[1]), sym.omega(xs[2])]), axis=0)
    return sym.omega(total) - ((ws[0] + ws[1]) + ws[2])


@dataclass(frozen=True)
class ComparabilityReport:
    order: int
    kind: str
    alpha: float
    n_samples: int
    ratio_min: float
    ratio_max: float
    rejected: int
    seed: int
    scale_range: tuple
    separation: float | None = None

    @property
    def spread(self) -> float:
        return self.ratio_max / self.ratio_min

    def to_json(self) -> str:
        return json.dumps(
            {
                "order": self.order,
                "kind": self.kind,
                "alpha": self.alpha,
                "n_samples": self.n_samples,
                "ratio_min": self.ratio_min,
                "ratio_max": self.ratio_max,
                "rejected": self.rejected,
                "seed": self.seed,
                "scale_range": list(self.scale_range),
                "separation": self.separation,
            },
            indent=2,
        )


def _scale_range(sym: DispersionSymbol, scale_range) -> tuple:
    """(lo, hi) of the sampled magnitudes, refused unless hi > lo > 0."""
    lo, hi = float(scale_range[0]), float(scale_range[1])
    if sym.kind != "pure_power":
        lo = max(lo, XI0)  # comparability only claimed above xi0
    if not (hi > lo > 0):
        raise ConfigurationError(f"bad scale range ({lo}, {hi})")
    return lo, hi


def _sampled_report(order, sym, n_samples, scale_range, seed, draw, separation=None):
    """Call ``draw(rng, m)`` -> (kept ratios, rejected count) with
    m = max(remaining, 1024) until `n_samples` ratios are kept; report their range."""
    rng = np.random.default_rng(seed)
    ratios, rejected, remaining = [], 0, n_samples
    while remaining > 0:
        kept, rej = draw(rng, max(remaining, 1024))
        ratios.append(kept)
        rejected += rej
        remaining -= len(kept)
    r = np.concatenate(ratios)[:n_samples]
    return ComparabilityReport(
        order=order,
        kind=sym.kind,
        alpha=sym.alpha,
        n_samples=n_samples,
        ratio_min=float(r.min()),
        ratio_max=float(r.max()),
        rejected=rejected,
        seed=seed,
        scale_range=scale_range,
        separation=separation,
    )


def verify_res2(
    sym: DispersionSymbol,
    n_samples: int = 10**5,
    scale_range=(1.0, 1e3),
    seed: int = 0,
    signs: str = "mixed",
) -> ComparabilityReport:
    """Sample ratio |Omega_2| / (|xi_min| |xi_max|^alpha) over log-uniform draws.

    Draws with |xi1+xi2| below the admissible floor are resampled and counted.
    ``signs='same'`` restricts to same-sign pairs (closed-form regime for
    alpha = 1); any value but 'mixed' and 'same' is refused.
    """
    if signs not in ("mixed", "same"):
        raise ConfigurationError(f"signs must be 'mixed' or 'same', got {signs!r}")
    lo, hi = _scale_range(sym, scale_range)
    floor = XI0 if sym.kind != "pure_power" else lo

    def draw(rng, m):
        mag = np.exp(rng.uniform(np.log(lo), np.log(hi), size=(m, 2)))
        if signs == "same":
            sgn = np.repeat(rng.choice([-1.0, 1.0], size=(m, 1)), 2, axis=1)
        else:
            sgn = rng.choice([-1.0, 1.0], size=(m, 2))
        xi = mag * sgn
        xi3 = -(xi[:, 0] + xi[:, 1])
        ok = np.abs(xi3) >= floor
        x1, x2, x3 = xi[ok, 0], xi[ok, 1], xi3[ok]
        mags = np.abs(np.stack([x1, x2, x3]))
        ratios = np.abs(omega2(sym, x1, x2)) / (mags.min(axis=0) * mags.max(axis=0) ** sym.alpha)
        return ratios, int((~ok).sum())

    return _sampled_report(2, sym, n_samples, (lo, hi), seed, draw)


def verify_res3(
    sym: DispersionSymbol,
    n_samples: int = 10**5,
    scale_range=(1.0, 1e3),
    separation: float = 32.0,
    seed: int = 0,
) -> ComparabilityReport:
    """Sample ratio |Omega_3| / (|xi_thd| |xi_max|^alpha) under the separation
    constraint |xi_min| <= |xi_thd| / separation (min/thd over all four
    frequencies).  Construction draws two large and one small magnitude; draws
    violating the constraint after closing are rejected and counted.
    """
    if separation < 32.0:
        raise ConfigurationError(f"separation must be >= 32, got {separation}")
    lo, hi = _scale_range(sym, scale_range)
    if hi <= lo * separation:
        raise ConfigurationError(
            f"scale range ({lo}, {hi}) cannot honor separation {separation}"
        )

    def draw(rng, m):
        big = np.exp(rng.uniform(np.log(lo * separation), np.log(hi), size=(m, 2)))
        cap = big.min(axis=1) / separation
        small = np.exp(rng.uniform(np.log(lo), np.log(cap), size=m))
        mags = np.stack([small, big[:, 0], big[:, 1]], axis=1)
        perm = rng.permuted(np.tile(np.arange(3), (m, 1)), axis=1)
        mags = np.take_along_axis(mags, perm, axis=1)
        xi = mags * rng.choice([-1.0, 1.0], size=(m, 3))
        xi4 = -xi.sum(axis=1)
        all_mags = np.sort(np.abs(np.concatenate([xi, xi4[:, None]], axis=1)), axis=1)
        ok = (all_mags[:, 0] * separation <= all_mags[:, 1]) & (all_mags[:, 0] > 0)
        if sym.kind != "pure_power":
            ok &= all_mags[:, 0] >= XI0
        x = xi[ok]
        val = omega3(sym, x[:, 0], x[:, 1], x[:, 2])
        ratios = np.abs(val) / (all_mags[ok, 1] * all_mags[ok, 3] ** sym.alpha)
        return ratios, int((~ok).sum())

    return _sampled_report(3, sym, n_samples, (lo, hi), seed, draw, separation)
