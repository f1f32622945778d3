"""Dispersion symbols omega(xi) for the dispersive Burgers family.

Built-in symbols (signs follow the pure-power convention L = -D^alpha dx,
i.e. the linear operator is the Fourier multiplier by i*omega):

* ``pure_power``:  omega(xi) = -xi |xi|^alpha,          alpha in (0, 1]
* ``whitham``:     omega(xi) = xi (tanh xi / xi)^{1/2} (1 + tau xi^2)^{1/2},  alpha = 1/2
* ``ilw``:         omega(xi) = xi^2 coth(xi),            alpha = 1

Removable singularities at xi = 0 are handled by 4-term Taylor series for
|xi| < 1e-4.  Analytic derivatives are provided for orders 0..2; higher
orders fall back to centered finite differences.
"""

from __future__ import annotations

import functools
import json
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
    "lambda_half_multiplier",
    "scaling_critical_index",
    "lwp_threshold",
]

_SERIES_CUT = 1e-4
# tanh(x)/x = 1 - x^2/3 + 2x^4/15 - 17x^6/315 + ...
_TANHC = (1.0, -1.0 / 3.0, 2.0 / 15.0, -17.0 / 315.0)
# x*coth(x) = 1 + x^2/3 - x^4/45 + 2x^6/945 - ...
_XCOTH = (1.0, 1.0 / 3.0, -1.0 / 45.0, 2.0 / 945.0)


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
    xi0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("pure_power", "whitham", "ilw"):
            raise ConfigurationError(f"unknown symbol kind {self.kind!r}")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigurationError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.kind == "whitham" and not (self.tau > 0):
            raise ConfigurationError("whitham needs tau > 0")
        if not (self.xi0 > 0):
            raise ConfigurationError("xi0 must be positive")

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
        out = np.empty_like(xi)
        if self.kind == "whitham":
            with np.errstate(invalid="ignore", divide="ignore"):
                f = np.where(small, 1.0, np.tanh(a) / np.where(small, 1.0, a))
            f = np.where(small, _poly_even(xi**2, _TANHC), f)
            out = xi * np.sqrt(f) * np.sqrt(1.0 + self.tau * xi**2)
        else:  # ilw
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                c = np.where(small, 1.0, a / np.where(small, 1.0, np.tanh(a)))
            c = np.where(small, _poly_even(xi**2, _XCOTH), c)
            out = xi * c  # c = |xi| coth|xi| is even, so this is xi^2 coth(xi)
        return out

    def omega_derivative(self, xi, order: int) -> np.ndarray:
        """Analytic d^order omega for order in {0,1,2}; odd/even extension
        used for xi < 0; returns 0 at xi = 0 for orders where the classical
        derivative may not exist there."""
        if order == 0:
            return self.omega(xi)
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        a = np.abs(xi)
        sgn = np.sign(xi)
        if self.kind == "pure_power":
            al = self.alpha
            if order == 1:
                return -(al + 1.0) * a**al
            if order == 2:
                with np.errstate(divide="ignore", invalid="ignore"):
                    d2 = -(al + 1.0) * al * np.where(a > 0, a ** (al - 1.0), 0.0)
                return d2 * sgn
        elif self.kind == "whitham":
            return self._whitham_derivative(a, sgn, order)
        else:
            return self._ilw_derivative(a, sgn, order)
        raise ConfigurationError("analytic derivatives implemented for order <= 2")

    def _odd_series_coeffs(self):
        """Coefficients (s1, s3, s5, s7) of omega(x) = s1 x + s3 x^3 + ... near 0."""
        if self.kind == "ilw":
            return (1.0, 1.0 / 3.0, -1.0 / 45.0, 2.0 / 945.0)
        tau = self.tau
        g2 = tau - 1.0 / 3.0
        g4 = 2.0 / 15.0 - tau / 3.0
        g6 = -17.0 / 315.0 + 2.0 * tau / 15.0
        s2 = g2 / 2.0
        s4 = g4 / 2.0 - g2 * g2 / 8.0
        s6 = g6 / 2.0 - g2 * g4 / 4.0 + g2**3 / 16.0
        return (1.0, s2, s4, s6)

    def _whitham_derivative(self, a, sgn, order):
        tau = self.tau
        small = a < _SERIES_CUT
        aa = np.where(small, 1.0, a)
        t = np.tanh(aa)
        s2 = 1.0 - t * t  # sech^2
        f = t / aa
        fp = (s2 * aa - t) / aa**2
        # f'' = (sech^2)' x^2 - 2 x (sech^2 x - tanh) over x^3, (sech^2)' = -2 t s2
        fpp = (-2.0 * t * s2 * aa * aa - 2.0 * (s2 * aa - t)) / aa**3
        h = 1.0 + tau * aa**2
        hp = 2.0 * tau * aa
        hpp = 2.0 * tau
        w = aa * np.sqrt(f) * np.sqrt(h)
        q = 1.0 / aa + fp / (2.0 * f) + hp / (2.0 * h)
        qp = -1.0 / aa**2 + (fpp * f - fp**2) / (2.0 * f**2) + (hpp * h - hp**2) / (2.0 * h**2)
        c1, c3, c5, c7 = self._odd_series_coeffs()
        x2 = a * a
        if order == 1:
            out = w * q
            ser = c1 + 3 * c3 * x2 + 5 * c5 * x2**2 + 7 * c7 * x2**3
            return np.where(small, ser, out)
        if order == 2:
            out = w * (q * q + qp)
            ser = 6 * c3 * a + 20 * c5 * a * x2 + 42 * c7 * a * x2**2
            return np.where(small, ser, out) * sgn

    def _ilw_derivative(self, a, sgn, order):
        small = a < _SERIES_CUT
        aa = np.where(small, 1.0, a)
        with np.errstate(over="ignore"):
            coth = np.cosh(aa) / np.sinh(aa)
        coth = np.where(np.isfinite(coth), coth, 1.0)  # huge |xi|: coth -> sign
        dcoth = 1.0 - coth * coth
        c1, c3, c5, c7 = self._odd_series_coeffs()
        x2 = a * a
        if order == 1:
            out = 2.0 * aa * coth + aa * aa * dcoth
            ser = c1 + 3 * c3 * x2 + 5 * c5 * x2**2 + 7 * c7 * x2**3
            return np.where(small, ser, out)
        if order == 2:
            out = 2.0 * coth + 4.0 * aa * dcoth - 2.0 * aa * aa * coth * dcoth
            ser = 6 * c3 * a + 20 * c5 * a * x2 + 42 * c7 * a * x2**2
            return np.where(small, ser, out) * sgn

    def omega_fd(self, xi, order: int, rel_step: float = 1e-3) -> np.ndarray:
        """Centered 4th-order finite differences of omega (orders 1..3)."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        h = rel_step * np.maximum(np.abs(xi), 1.0)
        w = lambda z: self.omega(z)
        if order == 1:
            return (-w(xi + 2 * h) + 8 * w(xi + h) - 8 * w(xi - h) + w(xi - 2 * h)) / (12 * h)
        if order == 2:
            return (
                -w(xi + 2 * h) + 16 * w(xi + h) - 30 * w(xi) + 16 * w(xi - h) - w(xi - 2 * h)
            ) / (12 * h**2)
        if order == 3:
            return (
                -w(xi + 3 * h) + 8 * w(xi + 2 * h) - 13 * w(xi + h)
                + 13 * w(xi - h) - 8 * w(xi - 2 * h) + w(xi - 3 * h)
            ) / (8 * h**3)
        raise ConfigurationError("finite differences implemented for orders 1..3")


def pure_power(alpha: float, xi0: float = 1.0) -> DispersionSymbol:
    return DispersionSymbol("pure_power", alpha, xi0=xi0)


def whitham(tau: float = 1.0, xi0: float = 1.0) -> DispersionSymbol:
    return DispersionSymbol("whitham", 0.5, tau=tau, xi0=xi0)


def ilw(xi0: float = 1.0) -> DispersionSymbol:
    return DispersionSymbol("ilw", 1.0, xi0=xi0)


# -- hypothesis checks ---------------------------------------------------------

_RATIO_WINDOW = (1.0 / 50.0, 50.0)
_HYP2_BOUND = 10.0


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

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "alpha": self.alpha,
            "xi_range": [self.xi_min, self.xi_max],
            "window": list(_RATIO_WINDOW),
            "summary": {str(b): [float(lo), float(hi)] for b, (lo, hi) in self.summary.items()},
            "passes": {str(b): bool(p) for b, p in self.passes.items()},
            "hyp2_sup": self.hyp2_sup,
            "hyp2_pass": self.hyp2_pass,
        }
        return json.dumps(payload, indent=2)


def check_hypothesis1(
    sym: DispersionSymbol,
    xi_range=(None, 100.0),
    beta_max: int = 3,
    num: int = 400,
) -> HypothesisReport:
    """Sample the comparability ratios of the symbol over [xi_lo, xi_hi].

    Orders 0..2 use analytic derivatives, order >= 3 centered differences.
    Pass windows: ratios within [1/50, 50] for beta <= 2; max ratio <= 50
    for beta = 3 (upper bound only, matching the one-sided hypothesis).
    """
    lo, hi = xi_range
    lo = sym.xi0 if lo is None else float(lo)
    if lo < sym.xi0:
        raise DomainError(f"hypothesis range must start at xi0 = {sym.xi0}, got {lo}")
    if beta_max < 2:
        raise ConfigurationError("beta_max must be at least 2")
    xs = np.exp(np.linspace(math.log(lo), math.log(hi), num))
    summary = {}
    passes = {}
    for beta in range(beta_max + 1):
        if beta <= 2:
            d = sym.omega_derivative(xs, beta)
        else:
            d = sym.omega_fd(xs, beta)
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


@functools.lru_cache(maxsize=64)
def check_hyp2(sym: DispersionSymbol, num: int = 2000) -> float:
    """sup over xi in (0, 1] of |omega(xi)| / |xi|, sampled once per symbol."""
    xs = np.linspace(1.0 / num, 1.0, num)
    return float(np.max(np.abs(sym.omega(xs)) / xs))


def lambda_half_multiplier(sym: DispersionSymbol):
    """Even multiplier xi -> |omega(xi)/xi|^{1/2}, extended continuously at 0."""
    if not np.isfinite(check_hyp2(sym)):
        raise ConfigurationError("symbol does not satisfy the low-frequency bound")
    zero_value = 0.0 if sym.kind == "pure_power" else 1.0

    def mult(xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.full_like(xi, zero_value)
        m = xi != 0.0
        out[m] = np.sqrt(np.abs(sym.omega(xi[m]) / xi[m]))
        return out

    return mult
