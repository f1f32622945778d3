"""Multiplier symbols chi(xi_1, ..., xi_n) and the Marcinkiewicz-condition checker.

A symbol defines a multilinear operator on the periodic grid at coefficient
level, for n = 2

    Pi^2_chi(f, g)_m = sum_{k1 + k2 = m} chi(xi_{k1}, xi_{k2}) a_{k1} b_{k2}.

The lab checks symbols, not operators: `check-multiplier` evaluates them and
runs the checker (per-variable normalized derivative bounds over dyadic boxes,
from `symbols.fd_partials`, the one stencil engine: chi on the 4th-order
`symbols.FD_STENCILS` lattice, a block
of whole offsets per call, 8 calls per box for |beta| <= 3 at arity 2) in the
dtype of chi's values, at least float64: a real symbol, as every one here is,
in float64.  A symbol may return a stack of values, shape (S, L), to check S
symbols in one pass on one lattice (the CLI's product-closure check stacks a,
b and a*b); each member's partials are bit-identical to its own check.  And
the concrete symbols used by the modified energies:

* the commutator symbol  chi(xi1, xi2) = -i Int_0^1 phi'((theta xi1 + xi2)/N) dtheta,
  which makes P_N(u_{<<N} u) = u_{<<N} u_N + N^{-1} Pi^2_chi(dx u_{<<N}, u) exact.
  `commutator_amplitude` gives a = i chi in closed form,
      a = (N/xi1) [phi((xi1+xi2)/N) - phi(xi2/N)]   (xi1 != 0),
      a = phi'(xi2/N)                              (xi1 = 0),
  whose absolute rounding error is about eps N/|xi1| (chi itself is O(1));
* the corrector symbol chi1 built from it;
* chi1 / Omega_2 on the high-low band, which refuses a resonant point
  (`resonance_guard`) as the corrector plans do.

The energies do not call these symbols pair by pair: `energies` builds one
cached corrector plan per (grid, symbol, N) on the k1 > 0 half of the pairs,
from per-mode tables of the one-slot factors, and combines them through the
same `commutator_amplitude` and `chi1_from_factors` as `chi1_kernel`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dyadic import LESSLESS_FACTOR, phi, phi_n, phi_prime, tilde_phi
from .errors import ConfigurationError, DomainError, EvaluationError
from .resonance import omega2
from .symbols import FD_STENCILS, fd_partials

__all__ = [
    "MultiplierSymbol",
    "MarcinkiewiczReport",
    "tensor_cutoff_symbol",
    "symbol_chi1",
    "symbol_chi1_over_omega2",
    "check_marcinkiewicz",
]

MARCINKIEWICZ_WINDOW = 1e3
BOX_POINTS_PER_SIGN = 16  # checker samples per dimension and sign


@dataclass(frozen=True)
class MultiplierSymbol:
    """A sampled or closed-form multiplier chi(xi_1, ..., xi_arity).

    ``evaluate`` maps broadcastable frequency arrays to real or complex values,
    elementwise: on 1-D arrays of any length each value depends on its point alone.
    For `check_marcinkiewicz` it may return a stack of S symbols, shape (S, L).
    ``support`` (optional) maps frequency arrays to a boolean admissibility
    mask used for declared-band enforcement.
    """

    arity: int
    evaluate: callable = field(repr=False)
    name: str = "chi"
    support: callable | None = field(default=None, repr=False)

    def __call__(self, *xis):
        if len(xis) != self.arity:
            raise ConfigurationError(
                f"{self.name}: expected {self.arity} frequency arguments, got {len(xis)}"
            )
        return self.evaluate(*xis)


def tensor_cutoff_symbol(scales) -> MultiplierSymbol:
    """phi_{N_1}(xi_1) * ... * phi_{N_n}(xi_n)."""
    scales = tuple(float(N) for N in scales)

    def ev(*xis):
        acc = np.ones(np.broadcast(*xis).shape)
        for x, N in zip(xis, scales):
            acc = acc * phi_n(x, N)
        return acc

    return MultiplierSymbol(len(scales), ev, f"phi_tensor{scales}")


# -- concrete symbols ----------------------------------------------------------

def commutator_amplitude(x1, x2, p2, ptot, N: float) -> np.ndarray:
    """The real a = i chi of the commutator symbol from phi_N(xi2) = `p2` and
    phi_N(xi1+xi2) = `ptot`: (N/xi1) (ptot - p2), and phi'(xi2/N) at xi1 = 0."""
    zero = x1 == 0.0
    acc = np.asarray((N / np.where(zero, 1.0, x1)) * (ptot - p2))
    if np.any(zero):
        acc[zero] = phi_prime(x2[zero] / N)
    return acc


def _require_dyadic(N: float) -> None:
    if N <= 0 or 2.0 ** round(np.log2(N)) != N:
        raise ConfigurationError(f"N must be dyadic, got {N}")


def chi1_scale(N: float, s: float) -> float:
    """(<N>/N)^{2s}, the only factor of chi1 that depends on s."""
    return (math.sqrt(1.0 + N * N) / N) ** (2.0 * s)


def chi1_from_factors(tot, amp, p2, t2, ptot, N: float, scale: float = 1.0) -> np.ndarray:
    """chi1 from its factors, the one copy of its formula:
    scale (phi_N(xi2) + 2 ((xi1+xi2)/N) a phi~_N(xi2)) phi_N(xi1+xi2), with
    `tot` = xi1+xi2, `amp` = a = i chi (`commutator_amplitude`), `p2` = phi_N(xi2),
    `t2` = phi~_N(xi2), `ptot` = phi_N(xi1+xi2).  chi1 is real."""
    return scale * (p2 + 2.0 * (tot / N) * amp * t2) * ptot


def chi1_kernel(x1, x2, N: float, s: float) -> np.ndarray:
    """(<N>/N)^{2s} (phi_N(xi2) + 2i ((xi1+xi2)/N) chi(xi1,xi2) phi_~N(xi2)) phi_N(xi1+xi2),
    as a real array: 2i chi = 2a is real, like every symbol that `check-multiplier` checks."""
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    tot = x1 + x2
    p2, ptot = phi(x2 / N), phi(tot / N)
    amp = commutator_amplitude(x1, x2, p2, ptot, N)
    return chi1_from_factors(tot, amp, p2, tilde_phi(x2 / N), ptot, N, chi1_scale(N, s))


def symbol_chi1(N: float, s: float) -> MultiplierSymbol:
    _require_dyadic(N)

    def supp(x1, x2):
        tot = np.abs(np.asarray(x1) + np.asarray(x2))
        return (tot >= N / 2.0) & (tot <= 2.0 * N)

    return MultiplierSymbol(
        2, lambda x1, x2: chi1_kernel(x1, x2, N, s), f"chi1[N={N:g},s={s:g}]", support=supp
    )


OMEGA2_GUARD = 1e-10


def resonance_guard(sym, x1, om2, N: float) -> np.ndarray:
    """Pairs below the floor |Omega_2| < 1e-10 |xi1| N^alpha, or with xi1 = 0 (the
    correctors carry a xi1 factor).  Both callers refuse them: a corrector plan
    and `symbol_chi1_over_omega2`."""
    return (np.abs(om2) < OMEGA2_GUARD * np.abs(x1) * N**sym.alpha) | (x1 == 0.0)


def symbol_chi1_over_omega2(sym, N: float, s: float) -> MultiplierSymbol:
    """chi1 / Omega_2 restricted to the high-low band.

    Declared band: |xi1| <= N/16 (support of the << multiplier) and
    |xi2| in [N/4, 4N] (the ~N band); evaluation outside raises DomainError,
    and at a resonant point (`resonance_guard`) EvaluationError.
    """
    _require_dyadic(N)
    lo_band = N / (LESSLESS_FACTOR / 2.0)  # support edge of eta(32 xi / N)

    def supp(x1, x2):
        a1 = np.abs(np.asarray(x1, dtype=float))
        a2 = np.abs(np.asarray(x2, dtype=float))
        return (a1 <= lo_band * (1 + 1e-12)) & (a2 >= N / 4.0) & (a2 <= 4.0 * N)

    def ev(x1, x2):
        ok = supp(x1, x2)
        if not np.all(ok):
            bad = np.argwhere(~np.atleast_1d(ok))
            raise DomainError(
                f"chi1/Omega2[N={N:g}] evaluated outside its declared band "
                f"(first offender index {tuple(bad[0])})"
            )
        x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
        om2 = omega2(sym, x1, x2)
        resonant = resonance_guard(sym, x1, om2, N)
        if np.any(resonant):
            j = np.flatnonzero(resonant)[0]
            raise EvaluationError(
                f"chi1/Omega2[N={N:g}]: |Omega_2| < {OMEGA2_GUARD:g} |xi1| N^alpha or xi1 = 0 "
                f"at (xi1, xi2) = ({float(x1.flat[j])!r}, {float(x2.flat[j])!r})"
            )
        return chi1_kernel(x1, x2, N, s) / om2

    return MultiplierSymbol(2, ev, f"chi1_over_omega2[N={N:g},s={s:g}]", support=supp)


# -- Marcinkiewicz checker -----------------------------------------------------

@dataclass(frozen=True)
class MarcinkiewiczReport:
    """Max normalized derivatives |d^beta chi| * prod |xi_i|^{beta_i} per beta."""

    name: str
    boxes: tuple
    beta_max: int
    window: float
    table: dict  # beta tuple -> float

    @property
    def passes(self) -> bool:
        return all(np.isfinite(v) and v <= self.window for v in self.table.values())

    def up_to(self, beta_max: int) -> "MarcinkiewiczReport":
        """The report of order ``beta_max`` <= its own: the entries with |beta| <= beta_max."""
        if beta_max > self.beta_max:
            raise ConfigurationError(f"a report of order {self.beta_max} has no order {beta_max}")
        table = {b: v for b, v in self.table.items() if sum(b) <= beta_max}
        return replace(self, beta_max=beta_max, table=table)

    def to_dict(self) -> dict:
        """The report as JSON-ready data, each beta keyed by its orders joined with "_"."""
        return {
            "symbol": self.name,
            "boxes": [list(b) for b in self.boxes],
            "beta_max": self.beta_max,
            "window": self.window,
            "passes": self.passes,
            "table": {"_".join(map(str, b)): float(v) for b, v in self.table.items()},
        }


def check_marcinkiewicz(chi: MultiplierSymbol, boxes, beta_max: int = 3) -> MarcinkiewiczReport:
    """Sample normalized derivatives of chi over dyadic boxes (N_1, ..., N_arity),
    at BOX_POINTS_PER_SIGN log-spaced magnitudes in [N_i/2, 2 N_i] per sign and
    dimension.  One `fd_partials` call per box gives every |beta| <= beta_max
    from chi on each of the 9, 25, 29 lattice offsets (arity 2, beta_max = 1, 2,
    3), in blocks of offsets; a value that is not finite raises EvaluationError
    naming its lattice point, and a box that keeps no point inside chi's support
    (with the 2 % dilation margin) raises DomainError.  Pass window: every entry
    <= 1e3.  A beta_max outside 1..3 (the `FD_STENCILS` orders) or an empty box
    list is refused.

    A stacked chi (values of shape (S, L), see `fd_partials`) is checked in one
    pass: each entry is the max over the stack as well as over the points, so
    the report passes iff every member's report would, and an error names the
    first lattice point at which any member is not finite."""
    if beta_max not in range(1, max(FD_STENCILS) + 1):
        raise ConfigurationError(f"beta_max must lie in 1..{max(FD_STENCILS)}, got {beta_max}")
    boxes = tuple(tuple(float(N) for N in b) for b in boxes)
    if not boxes:
        raise ConfigurationError(f"{chi.name}: no box to check")
    if any(len(b) != chi.arity for b in boxes):
        raise ConfigurationError(f"boxes {boxes} do not all match arity {chi.arity}")
    orders = itertools.product(range(beta_max + 1), repeat=chi.arity)
    betas = [b for b in orders if sum(b) <= beta_max]
    table = dict.fromkeys(betas, 0.0)
    for box in boxes:

        def finite(*xis):
            vals = np.asarray(chi.evaluate(*xis))
            ok = np.isfinite(vals)
            if not np.all(ok):
                at = tuple(float(x[~ok.reshape(-1, ok.shape[-1]).all(axis=0)][0]) for x in xis)
                raise EvaluationError(f"{chi.name} on box {box}: not finite at xi = {at}")
            return vals

        mags = [np.exp(np.linspace(np.log(N / 2), np.log(2 * N), BOX_POINTS_PER_SIGN)) for N in box]
        mesh = np.meshgrid(*(np.concatenate([-m[::-1], m]) for m in mags), indexing="ij")
        pts = tuple(m.ravel() for m in mesh)
        if chi.support is not None:
            # keep a dilation margin so FD stencil shifts stay in-band
            dilated = (chi.support(*(c * p for p in pts)) for c in (1, 0.98, 1.02))
            ok = np.logical_and.reduce(list(dilated))
            if not np.any(ok):
                raise DomainError(f"{chi.name} on box {box}: no sample point inside the support")
            pts = tuple(p[ok] for p in pts)
        abs_pts = [np.abs(p) for p in pts]
        for beta, d in fd_partials(finite, betas, pts).items():
            norm = math.prod(a ** b for a, b in zip(abs_pts, beta))
            table[beta] = max(table[beta], float(np.max(np.abs(d) * norm)))
    return MarcinkiewiczReport(chi.name, boxes, beta_max, MARCINKIEWICZ_WINDOW, table)
