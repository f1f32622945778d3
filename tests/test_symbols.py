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
from dblab.symbols import check_hyp2, check_hypothesis1, lambda_half_multiplier
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


class TestDerivatives:
    @pytest.mark.parametrize("sym", [pure_power(0.5), pure_power(1.0), whitham(1.0), ilw()])
    @pytest.mark.parametrize("order", [1, 2])
    def test_analytic_matches_fd(self, sym, order):
        xs = np.concatenate([np.linspace(-60, -0.4, 120), np.linspace(0.4, 60, 120)])
        an = sym.omega_derivative(xs, order)
        fd = sym.omega_fd(xs, order)
        rel = np.abs(an - fd) / np.maximum(np.abs(an), 1e-10)
        assert np.max(rel) < 1e-6

    def test_pure_power_closed_forms(self):
        sym = pure_power(0.5)
        assert sym.omega_derivative(4.0, 1)[0] == pytest.approx(-1.5 * 2.0, rel=1e-14)
        assert sym.omega_derivative(4.0, 2)[0] == pytest.approx(-0.75 / 2.0, rel=1e-14)


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
