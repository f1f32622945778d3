"""Independent slow-path oracles used to freeze expected values.

Everything here is deliberately written against the package's fast paths:
scalar piecewise bump functions via math.exp, Simpson quadrature instead of
the closed-form commutator, plain Python summation loops over the full grid instead of
band-restricted vectorized sums.
"""

import itertools
import json
import math

import numpy as np


def slow_g(t: float) -> float:
    return math.exp(-1.0 / t) if t > 0 else 0.0


def slow_eta(x: float) -> float:
    a = abs(x)
    if a <= 1.0:
        return 1.0
    if a >= 2.0:
        return 0.0
    p = slow_g(2.0 - a)
    q = slow_g(a - 1.0)
    return p / (p + q)


def slow_phi(x: float) -> float:
    return slow_eta(x) - slow_eta(2.0 * x)


def slow_tilde_phi(x: float) -> float:
    return slow_eta(x / 2.0) - slow_eta(4.0 * x)


def slow_lessless(x: float, N: float) -> float:
    return slow_eta(32.0 * x / N)


def slow_chi_commutator(x1: float, x2: float, N: float, n_simpson: int = 801) -> complex:
    """-i Int_0^1 phi'((theta x1 + x2)/N) dtheta by Simpson on phi via FD-free
    analytic difference quotient of eta (uses the closed form of eta')."""

    def phi_prime(y: float) -> float:
        return _slow_eta_prime(y) - 2.0 * _slow_eta_prime(2.0 * y)

    thetas = np.linspace(0.0, 1.0, n_simpson)
    vals = np.array([phi_prime((t * x1 + x2) / N) for t in thetas])
    h = thetas[1] - thetas[0]
    weights = np.ones(n_simpson)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = h / 3.0 * float(np.sum(weights * vals))
    return -1j * integral


def _slow_eta_prime(x: float) -> float:
    a = abs(x)
    if a <= 1.0 or a >= 2.0:
        return 0.0
    p = slow_g(2.0 - a)
    q = slow_g(a - 1.0)
    gp2 = math.exp(-1.0 / (2.0 - a)) / (2.0 - a) ** 2
    gp1 = math.exp(-1.0 / (a - 1.0)) / (a - 1.0) ** 2 if a > 1.0 else 0.0
    d = (-gp2 * q - p * gp1) / (p + q) ** 2
    return d if x > 0 else -d


def slow_chi1(x1: float, x2: float, N: float, s: float) -> complex:
    pref = (math.sqrt(1.0 + N * N) / N) ** (2.0 * s)
    tot = x1 + x2
    chi = slow_chi_commutator(x1, x2, N)
    inner = slow_phi(x2 / N) + 2j * (tot / N) * chi * slow_tilde_phi(x2 / N)
    return pref * inner * slow_phi(tot / N)


def slow_corrector(field, sym, N: float, s: float) -> float:
    """E1_N by unrestricted double loops over the whole grid."""
    grid = field.grid
    k = grid.wavenumbers
    xi = grid.frequencies
    c = field.coeffs
    L = grid.length
    total = 0.0 + 0.0j
    n = grid.n
    for i1 in range(n):
        k1 = int(k[i1])
        if k1 == 0:
            continue
        m1 = slow_lessless(xi[i1], N)
        if m1 == 0.0 or c[i1] == 0.0:
            continue
        for i2 in range(n):
            t2 = slow_tilde_phi(xi[i2] / N)
            if t2 == 0.0 or c[i2] == 0.0:
                continue
            k3 = -(k1 + int(k[i2]))
            if not (-n // 2 < k3 <= n // 2 - 1):
                continue
            i3 = k3 if k3 >= 0 else n + k3
            x3 = 2.0 * math.pi * k3 / L
            t3 = slow_tilde_phi(x3 / N)
            if t3 == 0.0 or c[i3] == 0.0:
                continue
            om2 = float(sym.omega(xi[i1] + xi[i2]) - sym.omega(xi[i1]) - sym.omega(xi[i2]))
            if abs(om2) < 1e-10 * abs(xi[i1]) * N**sym.alpha:
                continue
            w = slow_chi1(xi[i1], xi[i2], N, s) / om2
            total += w * xi[i1] * (m1 * c[i1]) * (t2 * c[i2]) * (t3 * c[i3])
    return float((L**2 * total).real)


def slow_difference_corrector1(z, w, sym, N: float, sigma: float) -> float:
    """E~1_N by unrestricted double loops: -(1/2)<1/N>^2 * (chi1/Omega2) xi1
    with z in the low slot and w in both ~N slots."""
    grid = w.grid
    k = grid.wavenumbers
    xi = grid.frequencies
    cz = z.coeffs
    cw = w.coeffs
    L = grid.length
    n = grid.n
    total = 0.0 + 0.0j
    for i1 in range(n):
        k1 = int(k[i1])
        if k1 == 0:
            continue
        m1 = slow_lessless(xi[i1], N)
        if m1 == 0.0 or cz[i1] == 0.0:
            continue
        for i2 in range(n):
            t2 = slow_tilde_phi(xi[i2] / N)
            if t2 == 0.0 or cw[i2] == 0.0:
                continue
            k3 = -(k1 + int(k[i2]))
            if not (-n // 2 < k3 <= n // 2 - 1):
                continue
            i3 = k3 if k3 >= 0 else n + k3
            x3 = 2.0 * math.pi * k3 / L
            t3 = slow_tilde_phi(x3 / N)
            if t3 == 0.0 or cw[i3] == 0.0:
                continue
            om2 = float(sym.omega(xi[i1] + xi[i2]) - sym.omega(xi[i1]) - sym.omega(xi[i2]))
            if abs(om2) < 1e-10 * abs(xi[i1]) * N**sym.alpha:
                continue
            wgt = slow_chi1(xi[i1], xi[i2], N, sigma) / om2
            total += wgt * xi[i1] * (m1 * cz[i1]) * (t2 * cw[i2]) * (t3 * cw[i3])
    return -0.5 * (1.0 + N**-2) * float((L**2 * total).real)


def slow_difference_corrector2(z, w, sym, N: float, sigma: float) -> float:
    """E~2_N by unrestricted double loops."""
    grid = w.grid
    k = grid.wavenumbers
    xi = grid.frequencies
    cw = w.coeffs
    cz = z.coeffs
    L = grid.length
    n = grid.n
    pref = (1.0 + N**-2) * (math.sqrt(1.0 + N * N) / N) ** (2.0 * sigma)
    total = 0.0 + 0.0j
    for i1 in range(n):
        k1 = int(k[i1])
        if k1 == 0:
            continue
        m1 = slow_lessless(xi[i1], N)
        if m1 == 0.0 or cw[i1] == 0.0:
            continue
        for i2 in range(n):
            t2 = slow_tilde_phi(xi[i2] / N)
            if t2 == 0.0 or cz[i2] == 0.0:
                continue
            k3 = -(k1 + int(k[i2]))
            if not (-n // 2 < k3 <= n // 2 - 1):
                continue
            i3 = k3 if k3 >= 0 else n + k3
            x3 = 2.0 * math.pi * k3 / L
            t3 = slow_tilde_phi(x3 / N)
            if t3 == 0.0 or cw[i3] == 0.0:
                continue
            om2 = float(sym.omega(xi[i1] + xi[i2]) - sym.omega(xi[i1]) - sym.omega(xi[i2]))
            if abs(om2) < 1e-10 * abs(xi[i1]) * N**sym.alpha:
                continue
            tot = xi[i1] + xi[i2]
            wgt = slow_phi(tot / N) ** 2 / om2
            total += wgt * tot * (m1 * cw[i1]) * (t2 * cz[i2]) * (t3 * cw[i3])
    return float((pref * L**2 * total).real)


def row_by_row_csv(field) -> str:
    """The text of a field CSV, one str.format call per row: the JSON header line,
    the column names, then k,re,im with 17 significant digits."""
    grid = field.grid
    text = "# " + json.dumps({"n": grid.n, "length": grid.length}) + "\nk,re_ck,im_ck\n"
    for k, z in zip(grid.wavenumbers.tolist(), field.coeffs.tolist()):
        text += "{:d},{:.17g},{:.17g}\n".format(k, z.real, z.imag)
    return text


def trapezoid_mass(field) -> float:
    u = field.values()
    dx = field.grid.length / field.grid.n
    return float(np.sum(u * u) * dx)


def direct_pi2(chi, f, g) -> np.ndarray:
    """Pi^2_chi(f, g)_m = sum_{k1+k2=m} chi(xi_k1, xi_k2) a_k1 b_k2 by the direct sum
    over the modes that carry a coefficient, for any grid; output modes beyond
    +-(n/2-1) drop.  `chi` is called on two arrays of frequencies."""
    grid = f.grid
    n, k, xi = grid.n, grid.wavenumbers, grid.frequencies
    i1, i2 = np.flatnonzero(f.coeffs), np.flatnonzero(g.coeffs)
    x1, x2 = np.meshgrid(xi[i1], xi[i2], indexing="ij")
    prod = np.asarray(chi(x1, x2), dtype=complex) * f.coeffs[i1][:, None] * g.coeffs[i2][None, :]
    ksum = k[i1][:, None] + k[i2][None, :]
    keep = np.abs(ksum) <= n // 2 - 1
    out = np.zeros(n, dtype=complex)
    np.add.at(out, ksum[keep] % n, prod[keep])
    return out


def convolution_product(f, g) -> np.ndarray:
    """Exact product coefficients: the direct sum of `direct_pi2` with chi = 1, O(n^2);
    output modes beyond +-(n/2-1) drop.  `loop_convolution` checks it."""
    return direct_pi2(lambda x1, x2: np.ones(x1.shape), f, g)


def loop_convolution(f, g):
    """Exact product coefficients by nested loops (dealiasing oracle)."""
    grid = f.grid
    n = grid.n
    k = grid.wavenumbers
    out = np.zeros(n, dtype=complex)
    for i1 in range(n):
        if f.coeffs[i1] == 0.0:
            continue
        for i2 in range(n):
            if g.coeffs[i2] == 0.0:
                continue
            m = int(k[i1]) + int(k[i2])
            if -n // 2 < m <= n // 2 - 1:
                out[m if m >= 0 else n + m] += f.coeffs[i1] * g.coeffs[i2]
    return out


def hamiltonian_direct(field, sym, dealias: bool = False) -> float:
    """Quadratic part -(L/2) sum (omega/xi) |c_k|^2 with the weight taken point
    by point (0 at xi = 0), + cubic part by the triple convolution sum; with
    `dealias` the cubic sum runs over the 2/3-rule modes |k| <= n/3 only."""
    grid = field.grid
    c = field.coeffs
    weight = np.array([sym.omega(x) / x if x != 0.0 else 0.0 for x in grid.frequencies])
    quad = -0.5 * grid.length * float(np.sum(weight * np.abs(c) ** 2))
    n = grid.n
    if dealias:
        c = np.where(np.abs(grid.wavenumbers) <= n // 3, c, 0.0)
    k = grid.wavenumbers
    cubic = 0.0 + 0.0j
    for i1 in range(n):
        if c[i1] == 0.0:
            continue
        for i2 in range(n):
            if c[i2] == 0.0:
                continue
            k3 = -(int(k[i1]) + int(k[i2]))
            if -n // 2 < k3 <= n // 2 - 1:
                i3 = k3 if k3 >= 0 else n + k3
                cubic += c[i1] * c[i2] * c[i3]
    return quad + float((grid.length * cubic).real) / 3.0


def slow_fd_partial(fn, beta, points, rel_step: float = 1e-3):
    """Mixed partial d^beta fn at `points` (tuple of arrays) by composing
    4th-order centered first-derivative stencils, one derivative at a time;
    each stencil path is its own evaluation of fn (4^|beta| of them)."""
    beta = tuple(int(b) for b in beta)
    if all(b == 0 for b in beta):
        return np.asarray(fn(*points), dtype=complex)
    i = next(j for j, b in enumerate(beta) if b > 0)
    lower = tuple(b - 1 if j == i else b for j, b in enumerate(beta))
    h = rel_step * np.maximum(np.abs(points[i]), 1e-6)

    def shifted(c):
        pts = tuple(p + c * h if j == i else p for j, p in enumerate(points))
        return slow_fd_partial(fn, lower, pts, rel_step)

    return (-shifted(2.0) + 8.0 * shifted(1.0) - 8.0 * shifted(-1.0) + shifted(-2.0)) / (12.0 * h)


def slow_box_points(chi, box):
    """The Marcinkiewicz checker's samples of one box: per dimension 16
    log-spaced magnitudes in [N/2, 2N] of each sign (the same floats as the
    checker's, so that 0_0 compares bit for bit); with a declared support,
    only the points whose 2 % dilations and contractions stay in it."""
    axes = []
    for N in box:
        mags = np.exp(np.linspace(math.log(N / 2.0), math.log(2.0 * N), 16))
        axes.append(np.concatenate([-mags[::-1], mags]))
    mesh = np.meshgrid(*axes, indexing="ij")
    if chi.support is None:
        return tuple(m.ravel() for m in mesh)
    ok = chi.support(*mesh)
    for c in (0.98, 1.02):
        ok = ok & chi.support(*(c * m for m in mesh))
    return tuple(m[ok] for m in mesh)


def fd_partials_per_offset(fn, betas, points) -> dict:
    """The stencil-lattice mixed partials evaluated one lattice offset per call
    of fn: the reference for the blocked `multipliers.fd_partials`, which must
    agree with it bit for bit.  Offsets are visited in the order some beta
    first reads them, and each value is added into every beta that reads it."""
    from dblab.symbols import FD_REL_STEP, FD_STENCILS

    h = [FD_REL_STEP * np.maximum(np.abs(p), 1e-6) for p in points]
    reads = {}  # lattice offset -> [(beta, weight)]
    for beta in betas:
        for taps in itertools.product(*(zip(*FD_STENCILS[b][:2]) for b in beta)):
            offset, weights = zip(*taps)
            reads.setdefault(offset, []).append((beta, math.prod(weights)))
    sums = {}
    for offset, uses in reads.items():
        vals = np.asarray(fn(*(p + j * hi for p, j, hi in zip(points, offset, h))))
        for beta, w in uses:
            sums[beta] = sums[beta] + w * vals if beta in sums else w * vals
    denoms = (math.prod(FD_STENCILS[b][2] * hi**b for b, hi in zip(beta, h)) for beta in betas)
    return {beta: sums[beta] / d for beta, d in zip(betas, denoms)}
