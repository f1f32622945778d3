"""Closed-form reference computations for the benchmark's output checks.

numpy only, and nothing is imported from dblab: every quantity the checks
compare against is recomputed here from its definition.

Conventions are those of the program: a 2*pi-periodic grid of n points,
wavenumbers in FFT order with the Nyquist slot at +n/2, coefficients
c_k = (1/L) Int u e^{-i xi_k x} dx, "<< N" = eta(32 xi / N), "~ N" = the
tilde_phi band [N/4, 4N], resonance guard |Omega_2| < 1e-10 |xi1| N^alpha.

The one deliberate difference from the program is the commutator symbol.
The program integrates phi' by 32-node Gauss-Legendre quadrature; here it is
the closed form the fundamental theorem of calculus gives,

    -i Int_0^1 phi'((theta xi1 + xi2)/N) dtheta
        = -i (N / xi1) [phi((xi1 + xi2)/N) - phi(xi2/N)],    xi1 != 0.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)
GUARD = 1e-10
LESSLESS = 32.0


# -- cutoffs -------------------------------------------------------------------

def _g(t):
    t = np.asarray(t, dtype=float)
    pos = t > 0.0
    return np.where(pos, np.exp(-1.0 / np.where(pos, t, 1.0)), 0.0)


def eta(x):
    """C-infinity bump: 1 on [-1, 1], 0 outside (-2, 2)."""
    a = np.abs(np.asarray(x, dtype=float))
    p = _g(2.0 - a)
    q = _g(a - 1.0)
    mid = p / np.where(p + q > 0.0, p + q, 1.0)
    return np.where(a <= 1.0, 1.0, np.where(a >= 2.0, 0.0, mid))


def phi(x):
    x = np.asarray(x, dtype=float)
    return eta(x) - eta(2.0 * x)


def tilde_phi(x):
    x = np.asarray(x, dtype=float)
    return eta(x / 2.0) - eta(4.0 * x)


def lessless(xi, N):
    return eta(LESSLESS * np.asarray(xi, dtype=float) / N)


# -- dispersion, resonance, symbols -------------------------------------------

def omega(xi, alpha):
    """Pure-power dispersion omega(xi) = -xi |xi|^alpha."""
    xi = np.asarray(xi, dtype=float)
    return -xi * np.abs(xi) ** alpha


def omega2(x1, x2, alpha):
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return omega(x1 + x2, alpha) - omega(x1, alpha) - omega(x2, alpha)


def commutator(x1, x2, N):
    """Closed-form commutator symbol; xi1 must be nonzero."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any(x1 == 0.0):
        raise ValueError("closed-form commutator needs xi1 != 0")
    return -1j * (N / x1) * (phi((x1 + x2) / N) - phi(x2 / N))


def chi1(x1, x2, N, s):
    """(<N>/N)^{2s} (phi_N(xi2) + 2i ((xi1+xi2)/N) chi(xi1,xi2) phi~_N(xi2)) phi_N(xi1+xi2)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    tot = x1 + x2
    pref = (math.sqrt(1.0 + N * N) / N) ** (2.0 * s)
    inner = phi(x2 / N) + 2j * (tot / N) * commutator(x1, x2, N) * tilde_phi(x2 / N)
    return pref * inner * phi(tot / N)


def _guarded(x1, x2, N, alpha):
    om = omega2(x1, x2, alpha)
    guard = (np.abs(om) < GUARD * np.abs(x1) * N**alpha) | (x1 == 0.0)
    return np.where(guard, 1.0, om), guard


def chi1_over_omega2(x1, x2, N, s, alpha):
    """Corrector weight chi1 / Omega_2 with guarded entries set to 0."""
    om, guard = _guarded(x1, x2, N, alpha)
    safe_x1 = np.where(x1 == 0.0, 1.0, x1)
    return np.where(guard, 0.0, chi1(safe_x1, x2, N, s) / om), guard


def phi_sq_over_omega2(x1, x2, N, alpha):
    """Weight of the second difference corrector: phi_N(xi1+xi2)^2 / Omega_2."""
    om, guard = _guarded(x1, x2, N, alpha)
    return np.where(guard, 0.0, phi((x1 + x2) / N) ** 2 / om), guard


# -- grids and ladders ---------------------------------------------------------

def wavenumbers(n):
    k = np.concatenate([np.arange(0, n // 2), np.arange(-n // 2, 0)])
    k[n // 2] = n // 2
    return k


def frequencies(n, length=2.0 * math.pi):
    return 2.0 * math.pi * wavenumbers(n) / length


def ladder(n, length=2.0 * math.pi, homogeneous=False):
    """Dyadic scales covering the grid's nonzero frequencies."""
    k_hi = math.ceil(math.log2(2.0 * math.pi * n / length))
    k_lo = math.floor(math.log2(2.0 * math.pi / length)) if homogeneous else 0
    return [2.0**k for k in range(k_lo, k_hi + 1)]


def band_energy(c, N, homogeneous, bottom, length=2.0 * math.pi):
    """(1/2) ||P_N u||^2; the nonhomogeneous bottom scale keeps all of |xi| <= N."""
    xi = frequencies(len(c), length)
    w = eta(xi / N) if (not homogeneous and N == bottom) else phi(xi / N)
    return 0.5 * length * float(np.sum(np.abs(w * c) ** 2))


# -- trilinear corrector sums ---------------------------------------------------

def triple_sum(ca, cb, cc, N, weight, factor, length=2.0 * math.pi):
    """L^2 sum over k1 in <<N (k1 != 0) and k2 in ~N of
    W(xi1, xi2) factor(xi1, xi2) (<<N ca)_{k1} (~N cb)_{k2} (~N cc)_{k3},
    k3 = -k1 - k2, modes beyond +-(n/2 - 1) closing to 0.

    Returns (real part of the sum, sum of |terms|, guarded terms in band)."""
    n = len(ca)
    k = wavenumbers(n)
    xi = 2.0 * math.pi * k / length
    low = lessless(xi, N)
    band = tilde_phi(xi / N)
    i1 = np.flatnonzero((low > 0.0) & (k != 0))
    i2 = np.flatnonzero(band > 0.0)
    if i1.size == 0 or i2.size == 0:
        return 0.0, 0.0, 0
    x1 = xi[i1][:, None]
    x2 = xi[i2][None, :]
    k3 = -(k[i1][:, None] + k[i2][None, :])
    inside = np.abs(k3) <= n // 2 - 1
    c3 = np.where(inside, cc[k3 % n], 0.0)
    x3 = 2.0 * math.pi * k3 / length
    w, guard = weight(x1, x2)
    terms = (
        length**2 * w * factor(x1, x2)
        * (low[i1] * ca[i1])[:, None]
        * (band[i2] * cb[i2])[None, :]
        * tilde_phi(x3 / N) * c3
    )
    return float(terms.sum().real), float(np.abs(terms).sum()), int(np.count_nonzero(guard & inside))


def corrector(c, N, s, alpha):
    """E1_N(u) as (value, sum |terms|, guards)."""
    return triple_sum(
        c, c, c, N,
        lambda x1, x2: chi1_over_omega2(x1, x2, N, s, alpha),
        lambda x1, x2: x1,
    )


def difference_correctors(z, w, N, sigma, alpha):
    """(E~1_N, E~2_N) each as (value, sum |terms|, guards)."""
    p1 = -0.5 * (1.0 + N**-2)
    v1, a1, g1 = triple_sum(
        z, w, w, N,
        lambda x1, x2: chi1_over_omega2(x1, x2, N, sigma, alpha),
        lambda x1, x2: x1,
    )
    p2 = (1.0 + N**-2) * (math.sqrt(1.0 + N * N) / N) ** (2.0 * sigma)
    v2, a2, g2 = triple_sum(
        w, z, w, N,
        lambda x1, x2: phi_sq_over_omega2(x1, x2, N, alpha),
        lambda x1, x2: x1 + x2,
    )
    return (p1 * v1, abs(p1) * a1, g1), (p2 * v2, abs(p2) * a2, g2)


# -- functionals -----------------------------------------------------------------

def mass(c, length=2.0 * math.pi):
    return length * float(np.sum(np.abs(c) ** 2))


def hamiltonian(c, alpha, length=2.0 * math.pi):
    """(1/2) L sum |xi|^alpha |c|^2 + (1/3) Int (P u)^3, P the 2/3-rule projection.

    For a power-of-two n the cube of a |k| <= n/3 field has no aliased
    zero-sum triple, so the grid mean of v^3 is exact."""
    n = len(c)
    xi = frequencies(n, length)
    v = np.fft.ifft(np.where(np.abs(wavenumbers(n)) <= n // 3, c, 0.0)).real * n
    quad = 0.5 * length * float(np.sum(np.abs(xi) ** alpha * np.abs(c) ** 2))
    return quad + length * float(np.mean(v**3)) / 3.0


def hs_norm(c, s, length=2.0 * math.pi):
    xi = frequencies(len(c), length)
    return math.sqrt(length * float(np.sum((1.0 + xi**2) ** s * np.abs(c) ** 2)))


def random_hs(n, seed, s, target, length=2.0 * math.pi):
    """The program's `random_hs` recipe: complex Gaussian modes damped by
    <xi>^{-(s + 3/4)}, mean and Nyquist removed, Hermitian, scaled to H^s
    norm `target`. Rebuilt here because check-energy writes no fields."""
    rng = np.random.default_rng(seed)
    xi = frequencies(n, length)
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    raw *= (1.0 + xi**2) ** (-0.5 * (s + 0.75))
    raw[0] = 0.0
    herm = 0.5 * (raw + np.conj(raw[(n - np.arange(n)) % n]))
    herm[n // 2] = 0.0
    return herm * (target / hs_norm(herm, s, length))


# -- Benjamin-Ono periodic travelling wave ---------------------------------------

def bo_wave_speed(r):
    return (3.0 * r * r - 1.0) / (1.0 - r * r)


def bo_wave(x, t, r):
    """u = -sum_{k != 0} r^{|k|} e^{ik(x - ct)} summed in closed form:
    -2 (r cos th - r^2) / (1 - 2 r cos th + r^2), th = x - c t."""
    th = np.asarray(x, dtype=float) - bo_wave_speed(r) * t
    cs = np.cos(th)
    return -2.0 * (r * cs - r * r) / (1.0 - 2.0 * r * cs + r * r)


def bo_wave_mass(r):
    return 4.0 * math.pi * r * r / (1.0 - r * r)
