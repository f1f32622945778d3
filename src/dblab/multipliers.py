"""Multilinear Fourier multiplier operators Pi^n_chi (n = 2, 3).

On the periodic grid the bilinear operator acts at coefficient level as

    Pi^2_chi(f, g)_m = sum_{k1 + k2 = m} chi(xi_{k1}, xi_{k2}) a_{k1} b_{k2},

by direct O(n^2) summation (general symbols do not factor through FFTs);
the trilinear version is the O(n^3) analogue.  One `apply_pi` serves both
arities.  Output modes outside the grid band are dropped.  The sums cost
O(n^arity), so a grid whose band n/2 - 1 exceeds PI_RETAINED[arity] (512 for
n = 2, 128 for n = 3) is refused rather than truncated.

Also here: the Marcinkiewicz-condition checker (per-variable normalized
derivative bounds over dyadic boxes, from `fd_partials`: chi on the 4th-order
`symbols.FD_STENCILS` lattice, a block of whole offsets per call, 8 calls per
box for |beta| <= 3 at arity 2) and the concrete symbols used by the modified energies:

* the commutator symbol  chi(xi1, xi2) = -i Int_0^1 phi'((theta xi1 + xi2)/N) dtheta,
  which makes P_N(u_{<<N} u) = u_{<<N} u_N + N^{-1} Pi^2_chi(dx u_{<<N}, u) exact.
  It is evaluated in closed form,
      chi = -i (N/xi1) [phi((xi1+xi2)/N) - phi(xi2/N)]   (xi1 != 0),
      chi = -i phi'(xi2/N)                              (xi1 = 0),
  whose absolute rounding error is about eps N/|xi1| (chi itself is O(1));
* the corrector symbol chi1 built from it;
* chi1 / Omega_2 with a guarded resonance denominator.

The energies do not call these symbols pair by pair: `energies` builds one
cached corrector plan per (grid, symbol, N) on the k1 > 0 half of the pairs,
from per-mode tables of the one-slot factors, and combines them through the
same `commutator_amplitude` and `chi1_from_factors` as `chi1_kernel`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dyadic import LESSLESS_FACTOR, phi, phi_n, phi_prime, tilde_phi
from .errors import ConfigurationError, DomainError, EvaluationError
from .resonance import omega2
from .spectral import Field, _check_same_grid
from .symbols import FD_REL_STEP, FD_STENCILS

__all__ = [
    "MultiplierSymbol",
    "MarcinkiewiczReport",
    "constant_symbol",
    "tensor_cutoff_symbol",
    "symbol_product",
    "symbol_swap_last",
    "symbol_permute_inputs",
    "symbol_chi_commutator",
    "symbol_chi1",
    "symbol_chi1_over_omega2",
    "apply_pi",
    "check_marcinkiewicz",
    "fd_partials",
]

PI_RETAINED = {2: 512, 3: 128}  # arity -> largest retained |k| per input
MARCINKIEWICZ_WINDOW = 1e3
BOX_POINTS_PER_SIGN = 16  # checker samples per dimension and sign


@dataclass(frozen=True)
class MultiplierSymbol:
    """A sampled or closed-form multiplier chi(xi_1, ..., xi_arity).

    ``evaluate`` maps broadcastable frequency arrays to complex values,
    elementwise: on 1-D arrays of any length each value depends on its point alone.
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


def constant_symbol(value=1.0, arity: int = 2, name: str = "const") -> MultiplierSymbol:
    def ev(*xis):
        return np.full(np.broadcast(*xis).shape, complex(value))

    return MultiplierSymbol(arity, ev, name)


def tensor_cutoff_symbol(scales, name: str | None = None) -> MultiplierSymbol:
    """phi_{N_1}(xi_1) * ... * phi_{N_n}(xi_n)."""
    scales = tuple(float(N) for N in scales)

    def ev(*xis):
        acc = np.ones(np.broadcast(*xis).shape)
        for x, N in zip(xis, scales):
            acc = acc * phi_n(x, N)
        return acc.astype(complex)

    return MultiplierSymbol(len(scales), ev, name or f"phi_tensor{scales}")


def symbol_product(a: MultiplierSymbol, b: MultiplierSymbol) -> MultiplierSymbol:
    if a.arity != b.arity:
        raise ConfigurationError("cannot multiply symbols of different arity")
    return MultiplierSymbol(
        a.arity, lambda *x: a.evaluate(*x) * b.evaluate(*x), f"{a.name}*{b.name}"
    )


def symbol_swap_last(chi: MultiplierSymbol) -> MultiplierSymbol:
    """Duality relabeling: chi~(xi_1,...,xi_n) = chi(-xi_1-...-xi_n, xi_2,...).

    Realizes Int Pi_chi(u1,...,un) u_{n+1} = Int Pi_chi~(u_{n+1},u2,...) u1.
    """

    def ev(*xis):
        first = -sum(np.asarray(x) for x in xis)
        return chi.evaluate(first, *xis[1:])

    return MultiplierSymbol(chi.arity, ev, chi.name + "~")


def symbol_permute_inputs(chi: MultiplierSymbol, perm) -> MultiplierSymbol:
    """chi_sigma(xi_1,...,xi_n) = chi(xi_{perm[0]}, ..., xi_{perm[n-1]})."""
    perm = tuple(perm)

    def ev(*xis):
        return chi.evaluate(*(xis[p] for p in perm))

    return MultiplierSymbol(chi.arity, ev, chi.name + f"_sigma{perm}")


# -- concrete symbols ----------------------------------------------------------

def commutator_amplitude(x1, x2, p2, ptot, N: float) -> np.ndarray:
    """The real a = i chi of the commutator symbol from phi_N(xi2) = `p2` and
    phi_N(xi1+xi2) = `ptot`: (N/xi1) (ptot - p2), and phi'(xi2/N) at xi1 = 0."""
    zero = x1 == 0.0
    acc = np.asarray((N / np.where(zero, 1.0, x1)) * (ptot - p2))
    if np.any(zero):
        acc[zero] = phi_prime(x2[zero] / N)
    return acc


def commutator_kernel(x1, x2, N: float) -> np.ndarray:
    """-i Int_0^1 phi'((theta xi1 + xi2)/N) dtheta in closed form:
    -i (N/xi1) [phi((xi1+xi2)/N) - phi(xi2/N)], and -i phi'(xi2/N) at xi1 = 0."""
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    return -1j * commutator_amplitude(x1, x2, phi(x2 / N), phi((x1 + x2) / N), N)


def _require_dyadic(N: float) -> None:
    if N <= 0 or 2.0 ** round(np.log2(N)) != N:
        raise ConfigurationError(f"N must be dyadic, got {N}")


def symbol_chi_commutator(N: float) -> MultiplierSymbol:
    _require_dyadic(N)
    return MultiplierSymbol(2, lambda x1, x2: commutator_kernel(x1, x2, N), f"chi_comm[N={N:g}]")


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
    as a complex array (imaginary part 0) like every symbol."""
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    tot = x1 + x2
    p2, ptot = phi(x2 / N), phi(tot / N)
    amp = commutator_amplitude(x1, x2, p2, ptot, N)
    chi1 = chi1_from_factors(tot, amp, p2, tilde_phi(x2 / N), ptot, N, chi1_scale(N, s))
    return chi1.astype(complex)


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
    correctors carry a xi1 factor): `corrector_weight` zeroes them, a plan refuses them."""
    return (np.abs(om2) < OMEGA2_GUARD * np.abs(x1) * N**sym.alpha) | (x1 == 0.0)


def corrector_weight(sym, x1, x2, N: float, s: float):
    """(chi1/Omega_2)(xi1, xi2) with the guarded denominator.

    Returns (values, guard_mask); guarded entries (see `resonance_guard`)
    are set to 0.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    om2 = omega2(sym, x1, x2)
    guard = resonance_guard(sym, x1, om2, N)
    safe = np.where(guard, 1.0, om2)
    vals = np.where(guard, 0.0, chi1_kernel(x1, x2, N, s) / safe)
    return vals, guard


def symbol_chi1_over_omega2(sym, N: float, s: float) -> MultiplierSymbol:
    """chi1 / Omega_2 restricted to the high-low band.

    Declared band: |xi1| <= N/16 (support of the << multiplier) and
    |xi2| in [N/4, 4N] (the ~N band); evaluation outside raises DomainError.
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
        vals, _ = corrector_weight(sym, x1, x2, N, s)
        return vals

    return MultiplierSymbol(2, ev, f"chi1_over_omega2[N={N:g},s={s:g}]", support=supp)


# -- Pi operator ---------------------------------------------------------------

def apply_pi(chi: MultiplierSymbol, *fields: Field) -> Field:
    """Pi^n_chi(f_1, ..., f_n) for n = chi.arity in {2, 3} by direct frequency
    sums over the band modes of each input that carry a coefficient; an input
    with none gives the zero field.  A grid with band modes |k| > PI_RETAINED[n]
    is refused."""
    n = chi.arity
    if n not in PI_RETAINED or len(fields) != n:
        raise ConfigurationError(
            f"apply_pi needs an arity-2 or arity-3 symbol and as many fields, "
            f"got arity {n} and {len(fields)} fields"
        )
    _check_same_grid(*fields)
    grid = fields[0].grid
    if grid.n // 2 - 1 > PI_RETAINED[n]:
        raise ConfigurationError(
            f"apply_pi of arity {n} sums modes |k| <= {PI_RETAINED[n]}, "
            f"but a grid of n = {grid.n} has modes up to {grid.n // 2 - 1}"
        )
    k, xi = grid.wavenumbers, grid.frequencies
    band = np.abs(k) <= grid.n // 2 - 1
    # zero coefficients contribute nothing (chi is finite on its support)
    idx = [np.where(band & (f.coeffs != 0))[0] for f in fields]
    out = np.zeros(grid.n, dtype=complex)
    if any(len(i) == 0 for i in idx):
        return Field(grid, out)
    mesh = np.meshgrid(*(xi[i] for i in idx), indexing="ij")
    prod = np.asarray(chi.evaluate(*mesh), dtype=complex)
    for axis, (i, f) in enumerate(zip(idx, fields)):
        prod = prod * f.coeffs[i].reshape([-1 if a == axis else 1 for a in range(n)])
    ksum = sum(np.meshgrid(*(k[i] for i in idx), indexing="ij"))
    keep = np.abs(ksum) <= grid.n // 2 - 1
    pos = np.where(ksum >= 0, ksum, grid.n + ksum)
    np.add.at(out, pos[keep], prod[keep])
    return Field(grid, out)


# -- Marcinkiewicz checker -----------------------------------------------------

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
    weighted by the product of its 1-D integer weights."""
    h = [FD_REL_STEP * np.maximum(np.abs(p), 1e-6) for p in points]
    offsets, uses = _stencil_reads(tuple(betas))
    P = len(points[0])
    rows, sums = max(1, _LATTICE_BLOCK // max(P, 1)), {}
    for i in range(0, len(offsets), rows):
        block = offsets[i : i + rows]
        lattice = ((p + np.multiply.outer(j, hi)).ravel() for p, j, hi in zip(points, block.T, h))
        vals = np.asarray(fn(*lattice), dtype=complex).reshape(len(block), P)
        for row, reads in zip(vals, uses[i : i + rows]):
            for beta, w in reads:
                sums[beta] = sums[beta] + w * row if beta in sums else w * row
    denoms = (math.prod(FD_STENCILS[b][2] * hi**b for b, hi in zip(beta, h)) for beta in betas)
    return {beta: sums[beta] / d for beta, d in zip(betas, denoms)}


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "symbol": self.name,
                "boxes": [list(b) for b in self.boxes],
                "beta_max": self.beta_max,
                "window": self.window,
                "passes": self.passes,
                "table": {"_".join(map(str, b)): float(v) for b, v in self.table.items()},
            },
            indent=2,
        )


def check_marcinkiewicz(chi: MultiplierSymbol, boxes, beta_max: int = 3) -> MarcinkiewiczReport:
    """Sample normalized derivatives of chi over dyadic boxes (N_1, ..., N_arity),
    at BOX_POINTS_PER_SIGN log-spaced magnitudes in [N_i/2, 2 N_i] per sign and
    dimension.  One `fd_partials` call per box gives every |beta| <= beta_max
    from chi on each of the 9, 25, 29 lattice offsets (arity 2, beta_max = 1, 2,
    3), in blocks of offsets; a value that is not finite raises EvaluationError,
    and a box that keeps no point inside chi's support (with the 2 % dilation
    margin) raises DomainError.  Pass window: every entry <= 1e3.  A beta_max
    outside 1..3 (the `FD_STENCILS` orders) or an empty box list is refused."""
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
            vals = np.asarray(chi.evaluate(*xis), dtype=complex)
            if not np.all(np.isfinite(vals)):
                at = tuple(float(x[~np.isfinite(vals)][0]) for x in xis)
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
