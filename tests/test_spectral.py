import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_real_field
from dblab import ConfigurationError, EvaluationError, Field, SpectralGrid
from dblab.spectral import (
    apply_multiplier,
    convolution_product,
    derivative,
    field_from_coeffs,
    l2_inner,
    load_field_csv,
    save_field_csv,
    sobolev_norm,
    transform,
    zero_field,
)
from oracles import loop_convolution, trapezoid_mass


class TestSpectralGrid:
    def test_power_of_two_enforced(self):
        with pytest.raises(ConfigurationError):
            SpectralGrid(96)
        with pytest.raises(ConfigurationError):
            SpectralGrid(-8)

    @pytest.mark.parametrize(
        "n, length",
        [(64.0, 2 * np.pi), (True, 2 * np.pi), ("64", 2 * np.pi), (64, np.inf), (64, -np.inf),
         (64, np.nan), (64, "6.28"), (64, True), (64, 0.0)],
        ids=["float-n", "bool-n", "str-n", "inf-length", "minus-inf-length", "nan-length",
             "str-length", "bool-length", "zero-length"],
    )
    def test_bad_size_or_period_refused(self, n, length):
        # SpectralGrid(64.0) raised a bare TypeError; SpectralGrid(64, inf) was
        # accepted with every frequency 0
        with pytest.raises(ConfigurationError, match="power of two|positive and finite"):
            SpectralGrid(n, length)

    def test_integer_types_and_real_periods_accepted(self):
        assert SpectralGrid(np.int64(64), np.float64(17.3)).n == 64
        assert SpectralGrid(64, 3).length == 3

    def test_frequency_layout(self, grid64):
        k = grid64.wavenumbers
        assert k[0] == 0
        assert k[grid64.nyquist_index] == 32
        # symmetric about 0 except the Nyquist mode
        nonnyq = np.delete(k, grid64.nyquist_index)
        assert sorted(nonnyq) == sorted(-nonnyq)

    def test_tables_cached_and_read_only(self, grid64):
        for name in ("wavenumbers", "frequencies", "dealias_mask"):
            table = getattr(grid64, name)
            assert getattr(grid64, name) is table
            with pytest.raises(ValueError):
                table[0] = table[1]

    def test_dx_times_n_is_length(self, grid64):
        dx = grid64.nodes[1] - grid64.nodes[0]
        assert dx * grid64.n == pytest.approx(grid64.length, rel=1e-15)


class TestTransform:
    def test_cosine_coefficients(self, grid64):
        f = transform(grid64, np.cos(grid64.nodes))
        c = f.coeffs
        assert c[grid64.index_of(1)] == pytest.approx(0.5, abs=1e-14)
        assert c[grid64.index_of(-1)] == pytest.approx(0.5, abs=1e-14)
        others = np.delete(c, [grid64.index_of(1), grid64.index_of(-1)])
        assert np.max(np.abs(others)) < 1e-14

    def test_zero_field(self, grid64):
        assert np.all(transform(grid64, np.zeros(64)).coeffs == 0)

    def test_round_trip(self, grid256):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(256)
        f = transform(grid256, samples)
        err = np.max(np.abs(f.values() - samples)) / np.max(np.abs(samples))
        assert err < 1e-12

    def test_length_mismatch(self, grid64):
        with pytest.raises(ConfigurationError):
            transform(grid64, np.zeros(63))

    def test_parseval(self, grid256):
        f = random_real_field(grid256, seed=3, mean_free=False)
        quad = trapezoid_mass(f)
        spec = grid256.length * np.sum(np.abs(f.coeffs) ** 2)
        assert abs(quad - spec) < 1e-12 * quad


class TestApplyMultiplier:
    def test_derivative_of_cos(self, grid64):
        f = transform(grid64, np.cos(grid64.nodes))
        g = apply_multiplier(f, lambda xi: 1j * xi)
        assert np.max(np.abs(g.values() + np.sin(grid64.nodes))) < 1e-13

    def test_identity(self, grid64):
        f = random_real_field(grid64, seed=2)
        g = apply_multiplier(f, lambda xi: np.ones_like(xi))
        assert np.allclose(g.coeffs, f.coeffs)

    def test_half_power_on_cos(self, grid64):
        f = transform(grid64, np.cos(grid64.nodes))
        g = apply_multiplier(f, lambda xi: np.abs(xi) ** 0.5)
        assert np.max(np.abs(g.values() - np.cos(grid64.nodes))) < 1e-13

    def test_nonfinite_rejected(self, grid64):
        f = random_real_field(grid64)
        def bad(xi):
            with np.errstate(divide="ignore"):
                return 1.0 / xi
        with pytest.raises(EvaluationError, match="xi"):
            apply_multiplier(f, bad)

    def test_hermitian_symbol_keeps_real(self, grid128):
        f = random_real_field(grid128, seed=5)
        g = apply_multiplier(f, lambda xi: 1j * xi * np.exp(-np.abs(xi) / 7.0))
        assert g.is_real()

    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_multiplier_composition(self, seed, kmul):
        grid = SpectralGrid(64)
        f = random_real_field(grid, seed=seed)
        m1 = lambda xi: np.exp(1j * xi / (kmul + 1.0))
        m2 = lambda xi: 1.0 + np.abs(xi) ** 0.5
        lhs = apply_multiplier(apply_multiplier(f, m1), m2)
        rhs = apply_multiplier(f, lambda xi: m1(xi) * m2(xi))
        scale = np.max(np.abs(rhs.coeffs))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-15 * scale


class TestDealiasedSquare:
    """The exact convolution product, the oracle of the 2/3-rule products
    (`solver.nonlinear_rhs`, `energies.hamiltonian`)."""

    def test_convolution_product_matches_loops(self, grid64):
        f = random_real_field(grid64, seed=8, band=20)
        g = random_real_field(grid64, seed=9, band=20)
        assert np.max(np.abs(convolution_product(f, g).coeffs - loop_convolution(f, g))) < 1e-13


class TestSobolevNorm:
    def test_cos_s0(self, grid64):
        f = transform(grid64, np.cos(grid64.nodes))
        assert sobolev_norm(f, 0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-13)

    def test_cos_s1(self, grid64):
        f = transform(grid64, np.cos(grid64.nodes))
        assert sobolev_norm(f, 1.0) == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-13)

    def test_zero(self, grid64):
        assert sobolev_norm(zero_field(grid64), 2.5) == 0.0

    def test_monotone_in_s(self, grid128):
        f = random_real_field(grid128, seed=11)
        norms = [sobolev_norm(f, s) for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
        assert all(a <= b + 1e-14 for a, b in zip(norms, norms[1:]))


class TestFieldOps:
    def test_l2_inner_matches_quadrature(self, grid64):
        f = random_real_field(grid64, seed=1)
        g = random_real_field(grid64, seed=2)
        dx = grid64.length / grid64.n
        quad = float(np.sum(f.values() * g.values()) * dx)
        assert l2_inner(f, g) == pytest.approx(quad, abs=1e-12)

    def test_mean_preserved_by_derivative(self, grid64):
        f = random_real_field(grid64, seed=4, mean_free=False)
        assert derivative(f).coeffs[0] == pytest.approx(0.0, abs=1e-16)

    def test_single_mode_constructor(self, grid64):
        f = field_from_coeffs(grid64, {3: 0.5, -3: 0.5})
        assert np.max(np.abs(f.values() - np.cos(3 * grid64.nodes))) < 1e-13

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_coefficients_rejected(self, grid64, bad):
        c = np.zeros(grid64.n, dtype=complex)
        c[3] = bad
        with pytest.raises(ConfigurationError, match="non-finite"):
            Field(grid64, c)


class TestSerialization:
    def test_round_trip(self, tmp_path, grid64):
        f = random_real_field(grid64, seed=13)
        p = tmp_path / "field.csv"
        save_field_csv(f, p)
        g = load_field_csv(p)
        assert g.grid.n == 64 and g.grid.length == grid64.length
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_bytes_match_row_by_row_format(self, tmp_path):
        # two row blocks, with signed zeros and extreme magnitudes
        grid = SpectralGrid(2048)
        c = random_real_field(grid, seed=3).coeffs.copy()
        c[1:6] = [0.0, complex(-0.0, 0.0), complex(1e-300, -0.0), complex(1e300, -1e-300),
                  complex(-1e300, 1e300)]
        f = Field(grid, c)
        p = tmp_path / "field.csv"
        save_field_csv(f, p)
        want = '# {"n": 2048, "length": %r}\nk,re_ck,im_ck\n' % grid.length
        want += "".join(f"{kk:d},{z.real:.17g},{z.imag:.17g}\n"
                        for kk, z in zip(grid.wavenumbers.tolist(), c.tolist()))
        assert p.read_bytes() == want.encode()

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "broken.csv"
        p.write_text("k,re_ck,im_ck\n0,1.0,0.0\n")
        with pytest.raises(ConfigurationError, match="header"):
            load_field_csv(p)
