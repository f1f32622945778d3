import mpmath
import numpy as np
import pytest

from dblab import (
    ConfigurationError,
    ilw,
    lwp_threshold,
    pure_power,
    scaling_critical_index,
    whitham,
)
from dblab.symbols import (
    FD_REL_STEP,
    FD_STENCILS,
    check_hyp2,
    check_hypothesis1,
    lambda_half_multiplier,
)
from dblab.errors import DomainError

# frozen with a 30-digit mpmath oracle
WHITHAM_OMEGA_1 = 1.234175154470195      # sqrt(2 tanh 1)
WHITHAM_LAMBDA_HALF_1 = 1.1109343610088739  # (2 tanh 1)^{1/4}
ILW_COTH_1 = 1.3130352854993313


class TestEvalOmega:
    def test_pure_power_values(self):
        sym = pure_power(1.0)
        assert sym.omega(2.0) == -4.0
        assert sym.omega(0.0) == 0.0
        assert pure_power(0.5).omega(4.0) == -8.0

    def test_whitham_value(self):
        assert whitham(1.0).omega(1.0) == pytest.approx(WHITHAM_OMEGA_1, rel=1e-14)

    def test_ilw_form(self):
        xs = np.array([0.5, 1.0, 3.0])
        assert np.allclose(ilw().omega(xs), xs**2 / np.tanh(xs), rtol=1e-14)

    def test_removable_singularities(self):
        for sym in (whitham(1.0), ilw()):
            vals = sym.omega(np.array([1e-9, 1e-5, 1e-4]))
            assert np.all(np.isfinite(vals))
            # omega(x) ~ x near zero for both operators
            assert vals[0] == pytest.approx(1e-9, rel=1e-6)

    @pytest.mark.parametrize("sym", [pure_power(0.5), pure_power(1.0), whitham(1.0), ilw()])
    def test_oddness(self, sym):
        xs = np.linspace(-40.0, 40.0, 401)
        w = sym.omega(xs)
        assert np.max(np.abs(w + sym.omega(-xs))) < 1e-13 * np.max(np.abs(w))

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            pure_power(1.5)
        with pytest.raises(ConfigurationError):
            pure_power(0.0)


def _mp_omega(sym, x):
    """omega at the mpf x, written from the closed forms of the module docstring."""
    if sym.kind == "pure_power":
        return -mpmath.sign(x) * abs(x) ** (1 + mpmath.mpf(sym.alpha))
    if sym.kind == "whitham":
        return x * mpmath.sqrt(mpmath.tanh(x) / x) * mpmath.sqrt(1 + sym.tau * x**2)
    return x**2 * mpmath.coth(x)


# Leading truncation constants of the 4th-order centred stencils, from Taylor
# expansion: D_h f - f^(k) = -c_k h^4 f^(k+4) + O(h^6) with c_1 = 1/30,
# c_2 = 1/90, c_3 = 7/120.
_TRUNCATION = {1: 1.0 / 30.0, 2: 1.0 / 90.0, 3: 7.0 / 120.0}


class TestFiniteDifferenceDerivatives:
    @pytest.mark.parametrize(
        "sym",
        [pure_power(0.5), pure_power(1.0), whitham(1.0), ilw()],
        ids=["pure_power-0.5", "pure_power-1", "whitham", "ilw"],
    )
    def test_omega_fd_matches_mpmath(self, sym):
        # omega_fd(xi, k) = sum_j w_j omega(xi + j h) / (denom h^k), h = 1e-3 max(|xi|, 1).
        # Its error against the exact f^(k) is at most
        #   truncation  c_k h^4 max |f^(k+4)| over the stencil, and
        #   roundoff    K eps sum|w_j| / denom max |omega| / h^k,
        # where the roundoff of each omega value (a few ulps, plus the rounding
        # of xi + j h, which moves omega by |omega'| eps |xi| ~ 2 |omega| eps)
        # and of the sum is covered by K = 8.  Over the stencil the (k+4)-th
        # derivative changes by at most 5 % (|j h| <= 7.5e-3 |xi|), bounded by a
        # factor 2.  The roundoff term alone is 1.7x too tight for
        # pure_power(0.5) at k = 1 near xi = 0.4, where h / |xi| = 2.5e-3 and
        # truncation dominates.
        mags = np.geomspace(0.4, 60.0, 12)
        xs = np.concatenate([-mags[::-1], mags])
        h = FD_REL_STEP * np.maximum(np.abs(xs), 1.0)
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            series = [
                mpmath.taylor(lambda t: _mp_omega(sym, t), mpmath.mpf(float(x)), 7) for x in xs
            ]
        for k in (1, 2, 3):
            _, weights, denom = FD_STENCILS[k]
            exact = np.array([float(c[k] * mpmath.factorial(k)) for c in series])
            higher = np.array([abs(float(c[k + 4] * mpmath.factorial(k + 4))) for c in series])
            om_max = np.max(np.abs([sym.omega(xs + j * h) for j in (-3, 3)]), axis=0)
            trunc = _TRUNCATION[k] * h**4 * 2.0 * higher
            roundoff = 8.0 * eps * sum(map(abs, weights)) / denom * om_max / h**k
            err = np.abs(sym.omega_fd(xs, k) - exact)
            assert np.all(err <= trunc + roundoff), (k, float(np.max(err / (trunc + roundoff))))


class TestHypothesis1:
    def test_pure_power_ratios_exact(self):
        rep = check_hypothesis1(pure_power(0.5), (2.0, 100.0), 2)
        lo0, hi0 = rep.summary[0]
        assert lo0 == pytest.approx(1.0, rel=1e-12) and hi0 == pytest.approx(1.0, rel=1e-12)
        lo1, hi1 = rep.summary[1]
        assert lo1 == pytest.approx(1.5, rel=1e-12) and hi1 == pytest.approx(1.5, rel=1e-12)

    def test_whitham_passes(self):
        rep = check_hypothesis1(whitham(1.0), (2.0, 100.0), 3)
        assert rep.all_pass
        for b in (0, 1, 2):
            lo, hi = rep.summary[b]
            assert 1.0 / 50.0 <= lo and hi <= 50.0

    def test_ilw_passes(self):
        rep = check_hypothesis1(ilw(), (2.0, 100.0), 3)
        assert rep.all_pass

    def test_below_xi0_rejected(self):
        with pytest.raises(DomainError):
            check_hypothesis1(whitham(1.0), (0.5, 10.0), 2)

    def test_report_json(self):
        rep = check_hypothesis1(ilw(), (2.0, 50.0), 2)
        import json

        payload = json.loads(rep.to_json())
        assert payload["kind"] == "ilw" and payload["hyp2_pass"]


class TestHyp2:
    def test_pure_power(self):
        assert check_hyp2(pure_power(1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_whitham_scan(self):
        # increasing on (0, 1]; sup attained at xi = 1
        assert check_hyp2(whitham(1.0)) == pytest.approx(WHITHAM_OMEGA_1, rel=1e-10)

    def test_ilw(self):
        assert check_hyp2(ilw()) == pytest.approx(ILW_COTH_1, rel=1e-12)


class TestLambdaHalf:
    def test_pure_power(self):
        m = lambda_half_multiplier(pure_power(1.0))
        assert m(np.array([4.0]))[0] == pytest.approx(2.0, rel=1e-14)
        assert m(np.array([0.0]))[0] == 0.0

    def test_ilw_zero_limit(self):
        assert lambda_half_multiplier(ilw())(np.array([0.0]))[0] == 1.0

    def test_whitham_value(self):
        m = lambda_half_multiplier(whitham(1.0))
        assert m(np.array([1.0]))[0] == pytest.approx(WHITHAM_LAMBDA_HALF_1, rel=1e-13)

    def test_evenness(self):
        m = lambda_half_multiplier(whitham(1.0))
        xs = np.linspace(0.1, 30, 50)
        assert np.allclose(m(xs), m(-xs), rtol=1e-14)


class TestHighFrequency:
    def test_ilw_pure_power_agreement(self):
        # |omega(xi)|/xi^2 -> 1; within [0.99, 1.01] at xi = 50
        r = abs(ilw().omega(50.0)) / 50.0**2
        assert 0.99 <= r <= 1.01

    def test_indices(self):
        assert scaling_critical_index(0.5) == 0.0
        assert lwp_threshold(1.0) == pytest.approx(0.25)
        assert lwp_threshold(0.5) == pytest.approx(0.875)
