import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dblab import ConfigurationError, ilw, pure_power, verify_res2, whitham
from dblab.resonance import omega2, omega3, verify_res2, verify_res3

nonzero_freq = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
).filter(lambda x: abs(x) > 1e-3)


class TestOmega2:
    def test_bo_values(self):
        sym = pure_power(1.0)
        assert omega2(sym, 1.0, 1.0) == -2.0
        assert omega2(sym, 1.0, 2.0) == -4.0

    def test_vanishes_on_collinear_zero(self):
        sym = whitham(1.0)
        assert omega2(sym, 3.0, -3.0) == 0.0
        assert omega2(sym, 0.0, 5.0) == 0.0

    @given(nonzero_freq, nonzero_freq)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, x1, x2):
        sym = pure_power(0.5)
        assert omega2(sym, x1, x2) == omega2(sym, x2, x1)


class TestOmega3:
    def test_bo_value(self):
        assert omega3(pure_power(1.0), 1.0, 1.0, 1.0) == -6.0

    def test_zero_triple(self):
        assert omega3(ilw(), 0.0, 0.0, 0.0) == 0.0

    @given(nonzero_freq, nonzero_freq, nonzero_freq)
    @example(256.0, 0.004, 0.004)
    @example(0.004, 256.0, 0.004)
    @settings(max_examples=80, deadline=None)
    def test_decomposition_identity(self, x1, x2, x3):
        # Omega_3(x1,x2,x3) = Omega_2(x2+x3, x1) + Omega_2(x2, x3)
        sym = pure_power(0.5)
        lhs = omega3(sym, x1, x2, x3)
        rhs = omega2(sym, x2 + x3, x1) + omega2(sym, x2, x3)
        # Both sides are signed sums of omega-values, so their rounding error
        # is absolute, of size eps * S, not relative to |Omega_3|. First-order
        # count with unit roundoff u = eps/2 and alpha = 1/2:
        #   * each add/subtract of omega-values: <= u * S (lhs 3, rhs 5);
        #   * each omega(y) = -y|y|^alpha: 1 ulp from pow plus u from the
        #     multiply, <= 3u |omega(y)|, so <= 3u * S per side;
        #   * each rounded addition inside an argument moves omega by
        #     <= (1 + alpha) u * S (lhs 2: x1+x2+x3; rhs 3: x2+x3, then +x1).
        # lhs <= 9u * S and rhs <= 12.5u * S, so |lhs - rhs| <= 21.5u * S,
        # below 11 eps * S. The worst case seen over 2e5 random triples is
        # 1.6 eps * S. A wrong identity misses by O(|Omega_2|) >> 16 eps * S.
        S = sum(abs(sym.omega(y)) for y in (x1 + x2 + x3, x1, x2, x3, x2 + x3))
        assert abs(lhs - rhs) <= 16 * np.finfo(float).eps * S

    @given(nonzero_freq, nonzero_freq, nonzero_freq)
    @settings(max_examples=50, deadline=None)
    def test_permutation_symmetry(self, x1, x2, x3):
        sym = ilw()
        vals = {
            float(omega3(sym, *p))
            for p in [(x1, x2, x3), (x2, x1, x3), (x3, x2, x1), (x2, x3, x1)]
        }
        assert max(vals) - min(vals) <= 1e-10 * max(1.0, abs(max(vals)))


class TestVerifyRes2:
    def test_same_sign_alpha1_closed_form(self):
        rep = verify_res2(pure_power(1.0), 20000, (1.0, 1e3), seed=1, signs="same")
        assert rep.ratio_min >= 1.0 - 1e-12
        assert rep.ratio_max <= 2.0 + 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_mixed_sign_spread(self, alpha):
        rep = verify_res2(pure_power(alpha), 10**5, (1.0, 1e3), seed=2)
        assert rep.spread <= 50.0
        assert rep.rejected > 0  # some |xi1+xi2| < floor draws occur

    def test_whitham_above_xi0(self):
        rep = verify_res2(whitham(1.0), 20000, (2.0, 1e2), seed=3)
        assert np.isfinite(rep.ratio_min) and rep.ratio_min > 0
        assert rep.spread <= 100.0
        assert rep.scale_range[0] == 2.0

    @pytest.mark.parametrize("signs", ["Same", "MIXED", "both", ""])
    def test_unknown_signs_refused(self, signs):
        # a misspelt draw must not fall back to the mixed-sign one
        with pytest.raises(ConfigurationError, match="signs"):
            verify_res2(pure_power(1.0), 2000, (1.0, 1e3), seed=1, signs=signs)

    def test_report_json(self):
        rep = verify_res2(pure_power(1.0), 1000, (1.0, 100.0), seed=4)
        import json

        d = json.loads(json.dumps(rep.to_dict()))
        assert d["order"] == 2 and d["n_samples"] == 1000 and d["seed"] == 4


class TestVerifyRes3:
    def test_direct_evaluation_example(self):
        sym = pure_power(1.0)
        x = (0.01, 1.0, 8.0)
        val = omega3(sym, *x)
        mags = sorted([abs(x[0]), abs(x[1]), abs(x[2]), abs(x[0] + x[1] + x[2])])
        ratio = abs(val) / (mags[1] * mags[3] ** sym.alpha)
        assert 1.0 / 50.0 <= ratio <= 50.0

    def test_separation_enforced(self):
        with pytest.raises(ConfigurationError):
            verify_res3(pure_power(1.0), 100, (1.0, 1e3), separation=8.0)

    def test_infeasible_range(self):
        with pytest.raises(ConfigurationError):
            verify_res3(pure_power(1.0), 100, (1.0, 16.0), separation=32.0)

    @pytest.mark.parametrize("scale_range", [(0.0, 1e3), (-5.0, 1e3)])
    def test_non_positive_lower_end_refused(self, scale_range):
        # refused before any log: Tier-1 turns a RuntimeWarning into an
        # error, so this also shows that np.log never sees the range
        with pytest.raises(ConfigurationError, match=r"bad scale range"):
            verify_res3(pure_power(1.0), 100, scale_range)
        with pytest.raises(ConfigurationError, match=r"bad scale range"):
            verify_res2(pure_power(1.0), 100, scale_range)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_sampled_spread(self, alpha):
        rep = verify_res3(pure_power(alpha), 10**5, (1.0, 1e3), 32.0, seed=5)
        assert rep.spread <= 100.0
        assert rep.rejected > 0

    def test_determinism(self):
        a = verify_res3(pure_power(0.5), 5000, (1.0, 1e3), 32.0, seed=11)
        b = verify_res3(pure_power(0.5), 5000, (1.0, 1e3), 32.0, seed=11)
        assert a.ratio_min == b.ratio_min and a.ratio_max == b.ratio_max
