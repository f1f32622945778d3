"""Dispersion symbols omega(xi) for the dispersive Burgers family.

Built-in symbols (signs follow the pure-power convention L = -D^alpha dx,
i.e. the linear operator is the Fourier multiplier by i*omega):

* ``pure_power``:  omega(xi) = -xi |xi|^alpha,          alpha in (0, 1]
* ``whitham``:     omega(xi) = xi (tanh xi / xi)^{1/2} (1 + tau xi^2)^{1/2},  alpha = 1/2
* ``ilw``:         omega(xi) = xi^2 coth(xi),            alpha = 1

Removable singularities at xi = 0 are handled by 4-term Taylor series for
|xi| < 1e-4.  A symbol kind is omega alone.  Every derivative the lab takes,
of omega here and of the multiplier symbols in ``multipliers``, comes from
one stencil engine, ``fd_partials``: tensor products of the 4th-order centred
differences of ``FD_STENCILS``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "DispersionSymbol",
    "HypothesisReport",
    "pure_power",
    "whitham",
    "ilw",
    "check_hypothesis1",
    "check_hyp2",
    "fd_partials",
    "scaling_critical_index",
    "lwp_threshold",
]

_SERIES_CUT = 1e-4
# tanh(x)/x = 1 - x^2/3 + 2x^4/15 - 17x^6/315 + ...
_TANHC = (1.0, -1.0 / 3.0, 2.0 / 15.0, -17.0 / 315.0)
# x*coth(x) = 1 + x^2/3 - x^4/45 + 2x^6/945 - ...
_XCOTH = (1.0, 1.0 / 3.0, -1.0 / 45.0, 2.0 / 945.0)

XI0 = 1.0  # |xi| from which the hypotheses and the non-pure-power resonance laws are claimed
FD_REL_STEP = 1e-3  # finite-difference step relative to |xi|
# 4th-order centered stencils of d^k/dx^k on the lattice x + j h, for k = 0..3:
# k -> (offsets j, integer weights, denominator); d^k f ~ sum w f(x + j h) / (denom h^k).
# The sums run in this order: reordering the taps changes the last bits of every result.
FD_STENCILS = {
    0: ((0,), (1,), 1),
    1: ((2, 1, -1, -2), (-1, 8, -8, 1), 12),
    2: ((2, 1, 0, -1, -2), (-1, 16, -30, 16, -1), 12),
    3: ((3, 2, 1, -1, -2, -3), (-1, 8, -13, 13, -8, 1), 8),
}


_LATTICE_BLOCK = 4096  # most lattice points per symbol call in fd_partials


@functools.lru_cache(maxsize=None)
def _stencil_reads(betas: tuple) -> tuple:
    """The lattice offsets that `betas` read, in first-read order, as a read-only
    int array, and per offset its reads ((beta, weight), ...)."""
    reads = {}  # lattice offset -> [(beta, weight)]
    for beta in betas:
        for taps in itertools.product(*(zip(*FD_STENCILS[b][:2]) for b in beta)):
            offset, weights = zip(*taps)
            reads.setdefault(offset, []).append((beta, math.prod(weights)))
    offsets = np.array(list(reads), dtype=int)
    offsets.flags.writeable = False
    return offsets, tuple(map(tuple, reads.values()))


def fd_partials(fn, betas, points) -> dict:
    """Mixed partials {beta: d^beta fn} for a list of beta tuples at `points` (a
    tuple of 1-D arrays of P points): tensor products of the 4th-order
    `FD_STENCILS` on one lattice per point, steps h_i = FD_REL_STEP |xi_i|.  The
    elementwise fn gets max(1, _LATTICE_BLOCK // P) whole lattice offsets per call;
    each value is added into every beta that reads it, in first-read order,
    weighted by the product of its 1-D integer weights.

    fn may return a stack of symbols, values of shape (S, L) for L lattice
    points; each beta entry is then (S, P), and entry j has the bits of
    fd_partials on the j-th symbol alone."""
    h = [FD_REL_STEP * np.maximum(np.abs(p), 1e-6) for p in points]
    offsets, uses = _stencil_reads(tuple(betas))
    P = len(points[0])
    rows, sums = max(1, _LATTICE_BLOCK // max(P, 1)), {}
    for i in range(0, len(offsets), rows):
        block = offsets[i : i + rows]
        lattice = ((p + np.multiply.outer(j, hi)).ravel() for p, j, hi in zip(points, block.T, h))
        vals = np.asarray(fn(*lattice))
        vals = vals.astype(np.result_type(vals, np.float64), copy=False)
        vals = np.moveaxis(vals.reshape(vals.shape[:-1] + (len(block), P)), -2, 0)
        tmp = np.empty_like(vals[0])
        for row, reads in zip(vals, uses[i : i + rows]):
            for beta, w in reads:
                if beta in sums:
                    sums[beta] += np.multiply(w, row, out=tmp)
                else:
                    sums[beta] = w * row
    denoms = (math.prod(FD_STENCILS[b][2] * hi**b for b, hi in zip(beta, h)) for beta in betas)
    for beta, d in zip(betas, denoms):
        sums[beta] /= d
    return {beta: sums[beta] for beta in betas}


def scaling_critical_index(alpha: float) -> float:
    """Sobolev exponent left invariant by the scaling symmetry: 1/2 - alpha."""
    return 0.5 - alpha


def lwp_threshold(alpha: float) -> float:
    """Regularity threshold 3/2 - 5 alpha/4 gating the energy-method checks."""
    return 1.5 - 1.25 * alpha


def _poly_even(x2, coeffs):
    acc = np.zeros_like(x2)
    for c in reversed(coeffs):
        acc = acc * x2 + c
    return acc


@dataclass(frozen=True)
class DispersionSymbol:
    """An odd real dispersion symbol with closed-form evaluation."""

    kind: str
    alpha: float
    tau: float = 1.0

    def __post_init__(self):
        if self.kind not in ("pure_power", "whitham", "ilw"):
            raise ConfigurationError(f"unknown symbol kind {self.kind!r}")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigurationError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.kind == "whitham" and not (self.tau > 0):
            raise ConfigurationError("whitham needs tau > 0")

    # -- evaluation ------------------------------------------------------

    def omega(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        xi = np.atleast_1d(xi)
        out = self._omega(xi)
        return out[0] if scalar else out

    def _omega(self, xi):
        if self.kind == "pure_power":
            return -xi * np.abs(xi) ** self.alpha
        a = np.abs(xi)
        small = a < _SERIES_CUT
        if self.kind == "whitham":
            with np.errstate(invalid="ignore", divide="ignore"):
                f = np.where(small, 1.0, np.tanh(a) / np.where(small, 1.0, a))
            f = np.where(small, _poly_even(xi**2, _TANHC), f)
            return xi * np.sqrt(f) * np.sqrt(1.0 + self.tau * xi**2)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):  # ilw
            c = np.where(small, 1.0, a / np.where(small, 1.0, np.tanh(a)))
        c = np.where(small, _poly_even(xi**2, _XCOTH), c)
        return xi * c  # c = |xi| coth|xi| is even, so this is xi^2 coth(xi)


def pure_power(alpha: float) -> DispersionSymbol:
    return DispersionSymbol("pure_power", alpha)


def whitham(tau: float = 1.0) -> DispersionSymbol:
    return DispersionSymbol("whitham", 0.5, tau=tau)


def ilw() -> DispersionSymbol:
    return DispersionSymbol("ilw", 1.0)


# -- hypothesis checks ---------------------------------------------------------

_RATIO_WINDOW = (1.0 / 50.0, 50.0)
_HYP2_BOUND = 10.0
HYP1_POINTS = 400   # samples of check_hypothesis1's range
HYP2_POINTS = 2000  # samples of (0, 1] in check_hyp2


@dataclass(frozen=True)
class HypothesisReport:
    """Empirical comparability ratios |d^beta omega| / |xi|^{alpha+1-beta}."""

    kind: str
    alpha: float
    xi_min: float
    xi_max: float
    summary: dict         # beta -> (min, max)
    passes: dict          # beta -> bool against the fixed window
    hyp2_sup: float
    hyp2_pass: bool

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values()) and self.hyp2_pass

    def to_dict(self) -> dict:
        """The report as JSON-ready data, orders keyed by their string."""
        return {
            "kind": self.kind,
            "alpha": self.alpha,
            "xi_range": [self.xi_min, self.xi_max],
            "window": list(_RATIO_WINDOW),
            "summary": {str(b): [float(lo), float(hi)] for b, (lo, hi) in self.summary.items()},
            "passes": {str(b): bool(p) for b, p in self.passes.items()},
            "hyp2_sup": self.hyp2_sup,
            "hyp2_pass": self.hyp2_pass,
        }


def check_hypothesis1(sym: DispersionSymbol, xi_range, beta_max: int = 3) -> HypothesisReport:
    """Sample the comparability ratios of the symbol at HYP1_POINTS log-spaced
    points of [xi_lo, xi_hi].

    Every order beta = 0..beta_max is one `fd_partials` call (order 0 is
    omega itself; order 2 is about 1e-9 relative).  A range that starts below
    XI0 or has no hi > lo, and a beta_max outside 2..3, are refused.  Pass
    windows: ratios within [1/50, 50] for beta <= 2; max ratio <= 50 for
    beta = 3 (upper bound only, matching the one-sided hypothesis).
    """
    lo, hi = xi_range
    lo = float(lo)
    if lo < XI0:
        raise DomainError(f"hypothesis range must start at xi0 = {XI0}, got {lo}")
    if not hi > lo:
        raise ConfigurationError(f"hypothesis range needs hi > lo, got ({lo}, {hi})")
    if beta_max not in (2, 3):
        raise ConfigurationError(f"beta_max must be 2 or 3, got {beta_max}")
    xs = np.exp(np.linspace(math.log(lo), math.log(hi), HYP1_POINTS))
    summary = {}
    passes = {}
    for beta in range(beta_max + 1):
        d = fd_partials(sym.omega, [(beta,)], (xs,))[(beta,)]
        r = np.abs(d) / xs ** (sym.alpha + 1.0 - beta)
        summary[beta] = (float(r.min()), float(r.max()))
        if beta <= 2:
            passes[beta] = bool(_RATIO_WINDOW[0] <= r.min() and r.max() <= _RATIO_WINDOW[1])
        else:
            passes[beta] = bool(r.max() <= _RATIO_WINDOW[1])
    sup2 = check_hyp2(sym)
    return HypothesisReport(
        kind=sym.kind,
        alpha=sym.alpha,
        xi_min=lo,
        xi_max=hi,
        summary=summary,
        passes=passes,
        hyp2_sup=sup2,
        hyp2_pass=bool(np.isfinite(sup2) and sup2 <= _HYP2_BOUND),
    )


def check_hyp2(sym: DispersionSymbol) -> float:
    """sup over xi in (0, 1] of |omega(xi)| / |xi| at HYP2_POINTS points."""
    xs = np.linspace(1.0 / HYP2_POINTS, 1.0, HYP2_POINTS)
    return float(np.max(np.abs(sym.omega(xs)) / xs))

