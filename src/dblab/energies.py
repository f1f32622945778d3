"""Conserved functionals and Fourier-defined modified energies.

Plain functionals (coefficient convention c_k = (1/L) Int u exp(-i xi_k x)):

    M(u)  = L sum |c_k|^2
    H(u)  = -(1/2) L sum (omega(xi)/xi) |c_k|^2 + (1/3) Int (P u)^3 dx

Modified energy at regularity s with cutoff N0 (nonhomogeneous ladder,
P_1 = P_{<=1}):

    E_N(u) = (1/2) ||P_N u||^2                    for N <= N0
           = (1/2) ||P_N u||^2 + E1_N(u)          for N >  N0   (c = 1)
    E^s(u, N0) = sum_{N >= 1} <N>^{2s} |E_N(u)|

with the cubic corrector (L^2-normalized triple sum, k1 = 0 excluded; a kept
pair with |Omega_2| < 1e-10 |xi1| N^alpha raises EvaluationError)

    E1_N(u) = L^2 sum_{k1,k2} (chi1/Omega_2)(xi1,xi2) xi1
              u^{<<N}(xi1) u^{~N}(xi2) u^{~N}(-xi1-xi2).

Difference energy for w = u - v, z = u + v at regularity sigma
(homogeneous ladder, weight <1/N>^2 <N>^{2 sigma}, c~1 = c~2 = -1):

    E~_N = (1/2)||P_N w||^2 - E~1_N(z, w) - E~2_N(z, w)   for N > N0,
    chi~1 = -(1/2) <1/N>^2 chi1,     applied to  (z_<<N, w_~N, w_~N),
    chi~2 = <1/N>^2 (<N>/N)^{2 sigma} phi_N^2(xi1+xi2), weight (xi1+xi2),
            applied to  (w_<<N, z_~N, w_~N),
    E~^sigma(z, w, N0) = sum_N <1/N>^2 <N>^{2 sigma} |E~_N|.

E~^sigma is evaluated only inside `difference_coercivity_check`, which
compares it with the weighted norm of w.  Both coercivity checks realize the
lemmas' "N0 large enough" by a doubling search with reported margins.

Each corrector is one record, `E1`, `TILDE_E1` or `TILDE_E2`: the plan weight it
reads, the field in each slot, const(N, s) and its sign in E_N or E~_N.  Its sign
and constant are written there and nowhere else; the record's private evaluators
derive its value, product-rule rate and rotation, each a gather and a sum over the
cached, s-free `CorrectorPlan` of (grid, symbol, N), whose k1 > 0 pairs stand for
their mirrors too (a field has no Nyquist mode, so each has one).  The linear-flow
part of a rate is the product-rule rate with du/dt = -i omega u.  One
`_ladder_pass` serves E^s, both coercivity searches and the drift study: it refuses
N0 < 2, and above N0 it adds sign * value of each record to the band energy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .dyadic import cutoff_table
from .errors import ConfigurationError, EvaluationError
from .multipliers import (OMEGA2_GUARD, chi1_from_factors, chi1_scale, commutator_amplitude,
                          resonance_guard)
from .spectral import Field, SpectralGrid, _check_same_grid, sobolev_norm
from .symbols import lwp_threshold

__all__ = [
    "mass",
    "hamiltonian",
    "CorrectorPlan",
    "corrector_plan",
    "corrector_term",
    "corrector_rate",
    "corrector_term_rotated",
    "max_abs_omega2",
    "modified_energy",
    "EnergyReport",
    "coercivity_check",
    "CoercivityResult",
    "difference_corrector1",
    "difference_corrector2",
    "difference_coercivity_check",
    "sigma_window",
    "check_sigma",
]


def mass(f: Field) -> float:
    """M(u) = Int u^2 dx = L sum |c_k|^2."""
    return float(f.grid.length * np.sum(np.abs(f.coeffs) ** 2))


def hamiltonian(f: Field, sym) -> float:
    """-(1/2) L sum_k m_k |c_k|^2 + (1/3) Int (P u)^3, P the 2/3-rule projection.

    The weight is the signed multiplier m = omega(xi)/xi, set to 0 at xi = 0:
    for pure power m = -|xi|^alpha and the quadratic part is
    (1/2) Int |D^{alpha/2} u|^2.  The equation is u_t = d_x g with
    g = P(P u)^2 - M u, M the multiplier m, so dH/dt = <g, d_x g> = 0 for
    every symbol kind, and the 2/3-rule scheme conserves H up to time-stepping
    error.  The mean is flow-invariant, so the value of m at xi = 0 only moves
    H by a constant.

    The cubic part is (L / 3n) Re sum_j V_j^3 with V = n ifft(P c), the values
    of P u at the nodes.  It is exact: P keeps |k| <= n/3, and 3 floor(n/3) < n,
    so no mode of (P u)^3 aliases onto k = 0.
    """
    grid = f.grid
    xi = grid.frequencies
    m = np.divide(sym.omega(xi), xi, out=np.zeros_like(xi), where=xi != 0.0)
    quad = -0.5 * grid.length * float(np.sum(m * np.abs(f.coeffs) ** 2))
    v = np.fft.ifft(f.coeffs * grid.dealias_mask) * grid.n
    cubic = grid.length / (3.0 * grid.n) * float(np.sum(v**3).real)
    return quad + cubic


# -- corrector engine ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CorrectorPlan:
    """The u-independent part of every corrector sum at one (grid, symbol, N).

    Pairs run over k1 in the <<N band (k1 != 0) and k2 in the ~N band whose
    closing mode k3 = -k1-k2 lies inside the grid.  Every weight w below is even
    under (k1, k2, k3) -> -(k1, k2, k3), so for real fields (c_{-k} = conj(c_k)) a
    pair and its mirror add up to 2 Re(w c c c): the plan keeps the k1 > 0 pairs
    with the multiplicity 2 folded into their weights.  Every stored mode has its
    mirror, since a field carries no Nyquist mode.  The half sum has the real part
    of the full sum for an even weight and its imaginary part for an odd one, so it
    serves real fields only.

    Only closing-band pairs, phi_N(xi1+xi2) phi~_N(xi3) != 0, are enumerated:
    chi1 and chi~2 both carry phi_N(xi1+xi2).  The non-resonance law
    |Omega_2| ~ |xi_min| |xi_max|^alpha keeps Omega_2 away from 0 there, so a
    closing-band pair below the floor of `resonance_guard` is refused with
    EvaluationError rather than dropped.  The read-only arrays take 28 B a pair: the
    indices stay int32 and every gather is a `take` (indexing with them would copy
    them to intp each time).  `cut` is m<<(xi1) m~(xi2) m~(xi3).
    """

    length: float
    i1: np.ndarray     # int32 grid indices of the three slots
    i2: np.ndarray
    i3: np.ndarray
    w1: np.ndarray     # 2 chi1(xi1, xi2) xi1 cut / Omega_2, chi1 at s = 0
    w2: np.ndarray     # 2 phi_N^2(xi1+xi2) (xi1+xi2) cut / Omega_2

    def pairing(self, weight, a, b, c) -> complex:
        """L^2 sum over the kept pairs of weight * a_{k1} b_{k2} c_{k3}, the product formed
        in place in that operand order (a complex product need not commute bit for bit)."""
        prod = a.take(self.i1)
        np.multiply(weight, prod, out=prod)
        prod *= b.take(self.i2)
        prod *= c.take(self.i3)
        return self.length**2 * np.sum(prod)


def _omega2(grid: SpectralGrid, sym, i1, i2, s) -> np.ndarray:
    """Omega_2 from one omega table; s indexes k1+k2 (a plan's -i3 wraps to it)."""
    om = sym.omega(grid.frequencies)
    return om.take(s) - (om.take(i1) + om.take(i2))


@functools.lru_cache(maxsize=32)
def corrector_plan(grid: SpectralGrid, sym, N: float) -> CorrectorPlan:
    """The plan of scale N, built once and shared by every field on `grid`.

    k1 > 0 runs over the <<N row, k3 over the closing band (|k3| <= n/2-1), and
    k2 = -k1-k3 is kept on the grid in the ~N band.  Every factor is a gather:
    cutoffs from the scale-N rows of the homogeneous `cutoff_table` (an N off that
    ladder is refused); xi1+xi2, phi_N and omega there at k1+k2's index (n-i3) % n.
    """
    xi, k, n, nyq = grid.frequencies, grid.wavenumbers, grid.n, grid.nyquist_index
    table = cutoff_table(grid)
    j = table.index(N)
    mlow, tsim, pn = table.lessless[j], table.tilde[j], table.phi[j]
    closing = (pn.take(-k % n) != 0.0) & (tsim != 0.0) & (np.abs(k) <= nyq - 1)  # pn at k1+k2 = -k3
    band = np.flatnonzero(closing).astype(np.int32)
    low = np.flatnonzero((mlow > 0.0) & (k > 0)).astype(np.int32)
    # k1 > 0 is its own wavenumber; k2 = -(k1+k3) >= -(n/2-1) never lands on the Nyquist slot
    box = low[:, None] + k.take(band).astype(np.int32)[None, :]
    pick = box <= nyq - 1
    np.remainder(np.negative(box, out=box), n, out=box)  # grid index of k2
    pick &= (tsim > 0.0).take(box)
    a, b = np.nonzero(pick)
    i1, i2, i3 = low.take(a), box[pick], band.take(b)
    s = (n - i3) % n  # grid index of k1+k2
    x1 = xi.take(i1)
    om2 = _omega2(grid, sym, i1, i2, s)
    resonant = np.flatnonzero(resonance_guard(sym, x1, om2, N))
    if resonant.size:
        j = resonant[0]
        raise EvaluationError(f"{sym!r} at N = {N:g}: |Omega_2| < {OMEGA2_GUARD:g} |xi1| N^alpha "
                              f"at the kept pair (k1, k2) = ({k[i1[j]]}, {k[i2[j]]})")
    tot, ptot = xi.take(s), pn.take(s)
    p2, t2 = pn.take(i2), tsim.take(i2)
    cut = mlow.take(i1) * t2 * tsim.take(i3)
    chi1 = chi1_from_factors(tot, commutator_amplitude(x1, xi.take(i2), p2, ptot, N), p2, t2,
                             ptot, N)
    w1 = 2.0 * chi1 * x1 * cut / om2
    w2 = 2.0 * ptot**2 * tot * cut / om2
    for v in (i1, i2, i3, w1, w2):
        v.flags.writeable = False
    return CorrectorPlan(grid.length, i1, i2, i3, w1, w2)


def _check_fields(*fields: Field, real: bool = True):
    """Refuse fields on different grids (one plan indexes every field) and, when
    `real`, non-real fields (a plan holds half the pairs, exact for real fields)."""
    _check_same_grid(*fields)
    if real and not all(f.is_real() for f in fields):
        raise ConfigurationError("the corrector sums need real fields (c_{-k} = conj(c_k))")


class _Corrector(NamedTuple):
    """A cubic corrector, const(N, s) Re L^2 sum weight f(k1) f(k2) f(k3) over a plan's
    pairs.  Its value, rates and rotation are derived from these four fields."""

    weight: str      # the plan array: "w1" or "w2"
    slots: tuple     # the field of each slot, an index into (u,) or (z, w)
    const: Callable  # const(N, s)
    sign: float      # its sign in E_N or E~_N

    def _pairing(self, plan: CorrectorPlan, coeffs, factor=None) -> complex:
        """The plan's pairing of the weight (times `factor`) with the slots' fields."""
        w, (a, b, c) = getattr(plan, self.weight), self.slots
        return plan.pairing(w if factor is None else w * factor, coeffs[a], coeffs[b], coeffs[c])

    def _value(self, plan: CorrectorPlan, coeffs, N: float, s: float) -> float:
        """The corrector from the coefficients of fields already checked."""
        return self.const(N, s) * float(self._pairing(plan, coeffs).real)

    def _rate(self, fields, rates, sym, N: float, s: float) -> float:
        """d/dt by the product rule: each slot in turn reads its field's rate."""
        plan, coeffs = _checked(sym, N, *fields, *rates)
        w, k, slots = getattr(plan, self.weight), len(fields), [coeffs[i] for i in self.slots]
        total = sum(plan.pairing(w, *slots[:j], coeffs[k + i], *slots[j + 1:])
                    for j, i in enumerate(self.slots))
        return self.const(N, s) * float(total.real)

    def _rotated(self, fields, sym, N: float, s: float, t: float) -> float:
        """The corrector of the free evolution at time t: weight * exp(i Omega_2 t), Re.
        That weight stays conjugate under the mirror of a pair: the half sum keeps Re."""
        plan, coeffs = _checked(sym, N, *fields)
        rot = np.exp(1j * _kept_omega2(fields[0].grid, sym, plan) * t)
        return self.const(N, s) * float(self._pairing(plan, coeffs, rot).real)


E1 = _Corrector("w1", (0, 0, 0), chi1_scale, 1.0)
TILDE_E1 = _Corrector("w1", (0, 1, 1), lambda N, s: -0.5 * (1.0 + N**-2) * chi1_scale(N, s), -1.0)
TILDE_E2 = _Corrector("w2", (1, 0, 1), lambda N, s: (1.0 + N**-2) * chi1_scale(N, s), -1.0)


def _checked(sym, N: float, *fields: Field):
    """The scale-N plan and the coefficients of `fields`, after `_check_fields`."""
    _check_fields(*fields)
    return corrector_plan(fields[0].grid, sym, N), [f.coeffs for f in fields]


def _kept_omega2(grid: SpectralGrid, sym, plan: CorrectorPlan) -> np.ndarray:
    """Omega_2 on a plan's kept pairs (-i3 wraps to the index of k1+k2)."""
    return _omega2(grid, sym, plan.i1, plan.i2, -plan.i3)


def corrector_term(f: Field, sym, N: float, s: float) -> float:
    """E1_N(u) of a real field."""
    return E1._value(*_checked(sym, N, f), N, s)


def corrector_rate(u: Field, dudt: Field, sym, N: float, s: float) -> float:
    """d/dt E1_N(u(t)) assembled by the product rule from du/dt."""
    return E1._rate((u,), (dudt,), sym, N, s)


def corrector_term_rotated(f: Field, sym, N: float, s: float, t: float) -> float:
    """E1_N of the free evolution at time t, by the resonance algebra."""
    return E1._rotated((f,), sym, N, s, t)


def max_abs_omega2(grid: SpectralGrid, sym, N: float) -> float:
    """max |Omega_2| over the kept pairs of the scale-N plan, which must keep one."""
    om2 = _kept_omega2(grid, sym, corrector_plan(grid, sym, N))
    if not om2.size:
        raise ConfigurationError(f"the scale-N plan keeps no pair at N = {N:g} on the grid "
                                 f"n = {grid.n}, L = {grid.length:g}")
    return float(np.max(np.abs(om2)))


# -- modified energy -----------------------------------------------------------

@dataclass(frozen=True)
class EnergyReport:
    """Conserved quantities and the modified energy at one time."""

    t: float
    mass: float
    hamiltonian: float
    hs_norm: float
    modified: float
    s: float
    n0: float
    per_scale: dict = field(default_factory=dict)   # N -> <N>^{2s} |E_N|
    corrector_share: float = 0.0                    # sum <N>^{2s} |E1_N|
    guard_skips: int = 0  # never set: kept only for the benchmark's reports.jsonl reader

    def to_dict(self) -> dict:
        """The fields as JSON-ready data, in field order; per_scale keyed by N:g."""
        return vars(self) | {"per_scale": {f"{N:g}": v for N, v in self.per_scale.items()}}


class _Scale(NamedTuple):
    """One scale of a ladder pass; every N0 candidate reuses it."""

    N: float
    bracket: float
    band: float          # (1/2) ||P_N f||^2 of the pass's last field
    energy: float        # E_N: `band` plus the signed terms, in order
    corrections: tuple   # signed terms (E1_N,) or (-E~1_N, -E~2_N) when N > N0, else ()


def _check_n0(N0: float):
    if N0 < 2:
        raise ConfigurationError(f"N0 must be >= 2, got {N0}")


def _ladder_pass(fields, sym, N0: float, homogeneous: bool, bracket, records, s: float) -> list:
    """Per-scale records of one pass over the ladder: the last field's band energy
    plus, above N0, sign * value of each corrector record in order.  N0 < 2 is
    refused, and the fields are checked once: for one grid always, for reality
    when a corrector runs."""
    _check_n0(N0)
    grid = fields[-1].grid
    table = cutoff_table(grid, homogeneous=homogeneous)
    _check_fields(*fields, real=table.scales[-1] > N0)  # reality: only for correctors
    coeffs = [f.coeffs for f in fields]
    out = []
    for N, band in zip(table.scales, table.band_energies(fields[-1])):
        plan = corrector_plan(grid, sym, N) if N > N0 else None
        signed = tuple([r.sign * r._value(plan, coeffs, N, s) for r in records]) if plan else ()
        out.append(_Scale(N, bracket(N), band, sum(signed, band), signed))
    return out


def _energy_scales(f: Field, sym, s: float, N0: float) -> list:
    """Per-scale records of E^s(u, N0): nonhomogeneous ladder, corrector E1."""
    return _ladder_pass((f,), sym, N0, False, lambda N: (1.0 + N * N) ** s, (E1,), s)


def _energy_report(f: Field, sym, s: float, N0: float, t: float, scales: list) -> EnergyReport:
    """The E^s(u, N0) report from the records of one ladder pass."""
    per_scale = {r.N: r.bracket * abs(r.energy) for r in scales}
    return EnergyReport(
        t=t,
        mass=mass(f),
        hamiltonian=hamiltonian(f, sym),
        hs_norm=sobolev_norm(f, s),
        modified=sum(per_scale.values(), 0.0),
        s=s,
        n0=N0,
        per_scale=per_scale,
        corrector_share=sum((r.bracket * abs(c) for r in scales for c in r.corrections), 0.0),
    )


def modified_energy(f: Field, sym, s: float, N0: float, t: float = 0.0) -> EnergyReport:
    """E^s(u, N0) over the nonhomogeneous ladder, with per-scale breakdown."""
    return _energy_report(f, sym, s, N0, t, _energy_scales(f, sym, s, N0))


@dataclass(frozen=True)
class CoercivityResult:
    passed: bool
    initial_n0: float
    passing_n0: float | None
    doublings: int
    lhs: float
    rhs: float
    history: tuple
    energy: EnergyReport | None = None   # E^s at initial_n0 from the same pass (plain search)

    def to_dict(self) -> dict:
        """Every field but `energy` as JSON-ready data, in field order."""
        d = {k: v for k, v in vars(self).items() if k != "energy"}
        return d | {"history": [list(h) for h in self.history]}


MAX_DOUBLINGS = 10  # doublings of N0 a coercivity search tries before it fails


def _doubling_search(scales, N0: float) -> CoercivityResult:
    """Double N0 until |sum <N>^{2s}|E_N| - plain| <= (1/8) tail, from one ladder pass."""
    history = []
    n0 = float(N0)
    for d in range(MAX_DOUBLINGS + 1):
        plain = tail = es = 0.0
        for r in scales:
            plain += r.bracket * r.band
            if r.N > n0:
                tail += 2.0 * r.bracket * r.band  # <N>^{2s} ||P_N u||^2
                es += r.bracket * abs(r.energy)
            else:
                es += r.bracket * abs(r.band)
        lhs, rhs = abs(es - plain), tail / 8.0
        history.append((n0, lhs, rhs))
        if lhs <= rhs or (lhs == 0.0 and rhs == 0.0):
            return CoercivityResult(True, float(N0), n0, d, lhs, rhs, tuple(history))
        n0 *= 2.0
    return CoercivityResult(False, float(N0), None, MAX_DOUBLINGS, lhs, rhs, tuple(history))


def coercivity_check(f: Field, sym, s: float, N0: float) -> CoercivityResult:
    """|E^s - (1/2) sum <N>^{2s}||P_N u||^2| <= (1/8) sum_{N>N0} <N>^{2s}||P_N u||^2,
    doubling N0 until the inequality holds (at most MAX_DOUBLINGS times).

    A search that reaches N0 >= n/2 (2 pi grid) passes vacuously with
    lhs = rhs = 0: only the top scale N = n lies above N0, and both its band
    energy and its corrector vanish, because phi_n is 0 on every grid mode.

    The result's `energy` is E^s(u, N0) at the initial N0, taken from the
    search's own ladder pass.
    """
    if not s > lwp_threshold(sym.alpha):
        raise ConfigurationError(
            f"coercivity check needs s > 3/2 - 5 alpha/4 = {lwp_threshold(sym.alpha)}, got s = {s}"
        )
    scales = _energy_scales(f, sym, s, N0)
    res = _doubling_search(scales, N0)
    return replace(res, energy=_energy_report(f, sym, s, N0, 0.0, scales))


# -- difference energy ---------------------------------------------------------

def sigma_window(alpha: float, s: float) -> tuple:
    """Admissible (lo, hi) for the difference regularity: lo open, hi closed."""
    return (-0.5 + alpha / 4.0, min(0.0, s - 2.0 + 1.5 * alpha))


def check_sigma(alpha: float, s: float, sigma: float):
    lo, hi = sigma_window(alpha, s)
    if not (lo < sigma <= hi):
        raise ConfigurationError(
            f"sigma = {sigma} outside the admissible window ({lo}, {hi}] "
            f"for alpha = {alpha}, s = {s}"
        )


def difference_corrector1(z: Field, w: Field, sym, N: float, sigma: float) -> float:
    """E~1_N(z, w) with chi~1 = -(1/2) <1/N>^2 chi1 in the low slot z."""
    return TILDE_E1._value(*_checked(sym, N, z, w), N, sigma)


def difference_corrector2(z: Field, w: Field, sym, N: float, sigma: float) -> float:
    """E~2_N(z, w): chi~2 = <1/N>^2 (<N>/N)^{2 sigma} phi_N^2(xi1+xi2), weight
    (xi1+xi2), slots (w_<<N, z_~N, w_~N)."""
    return TILDE_E2._value(*_checked(sym, N, z, w), N, sigma)


def _bar_bracket(N: float, sigma: float) -> float:
    return (1.0 + N**-2) * (1.0 + N * N) ** sigma


def _difference_scales(z: Field, w: Field, sym, sigma: float, N0: float) -> list:
    """Per-scale records of E~^sigma(z, w, N0): homogeneous ladder, correctors E~1, E~2."""
    return _ladder_pass((z, w), sym, N0, True, lambda N: _bar_bracket(N, sigma),
                        (TILDE_E1, TILDE_E2), sigma)


def difference_coercivity_check(z: Field, w: Field, sym, sigma: float, N0: float) -> CoercivityResult:
    """Difference-energy coercivity with the <1/N>^2 <N>^{2 sigma} weights.

    Like `coercivity_check`, a search reaching N0 >= n/2 passes vacuously.
    """
    return _doubling_search(_difference_scales(z, w, sym, sigma, N0), N0)
