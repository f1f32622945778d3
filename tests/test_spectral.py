import numpy as np
import pytest

from conftest import field_from_coeffs, random_real_field, zero_field
from dblab import ConfigurationError, Field, SpectralGrid
from dblab.config import make_initial
from dblab.spectral import (
    field_from_function,
    load_field_csv,
    save_field_csv,
    sobolev_norm,
    transform,
)
from dblab.solver import SolverConfig, full_rhs, trajectory
from dblab.symbols import pure_power, whitham
from oracles import convolution_product, loop_convolution, row_by_row_csv, trapezoid_mass


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
        # the samples come back without their Nyquist component c (-1)^j
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(256)
        alternating = (-1.0) ** np.arange(256)
        want = samples - np.mean(samples * alternating) * alternating
        f = transform(grid256, samples)
        err = np.max(np.abs(f.values() - want)) / np.max(np.abs(want))
        assert err < 1e-12

    def test_length_mismatch(self, grid64):
        with pytest.raises(ConfigurationError):
            transform(grid64, np.zeros(63))

    def test_parseval(self, grid256):
        f = random_real_field(grid256, seed=3, mean_free=False)
        quad = trapezoid_mass(f)
        spec = grid256.length * np.sum(np.abs(f.coeffs) ** 2)
        assert abs(quad - spec) < 1e-12 * quad


class TestDealiasedSquare:
    """The vectorised convolution sum of `oracles`, the exact product that the
    2/3-rule products (`solver.nonlinear_rhs`) are checked against."""

    def test_convolution_product_matches_loops(self, grid64):
        f = random_real_field(grid64, seed=8, band=20)
        g = random_real_field(grid64, seed=9, band=20)
        assert np.max(np.abs(convolution_product(f, g) - loop_convolution(f, g))) < 1e-13


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

    @staticmethod
    def _record():
        """The last record of a short dealiased run: the modes above the band that
        start at 0 come back as zeros of either sign."""
        grid = SpectralGrid(256, 17.3)
        cfg = SolverConfig(scheme="ifrk4", dt=1e-3, t_final=5e-3, record_every=5)
        *_, (_, f) = trajectory(random_real_field(grid, seed=4, band=40), pure_power(0.9), cfg)
        return f

    @staticmethod
    def _extremes():
        c = random_real_field(SpectralGrid(64), seed=2).coeffs.copy()
        c[1:12] = [complex(-0.0, 0.5), complex(0.25, -0.0), complex(-0.0, -0.0), 5e-324,
                   complex(-2.5e-310, 2.2250738585072014e-308), complex(1e300, -1e-300),
                   complex(-1e-300, 1.7976931348623157e308), complex(0.0, -5e-324),
                   complex(-1e300, 1e300), 1e-5, -123456789.0]
        return Field(SpectralGrid(64), c)

    @staticmethod
    def _non_hermitian():
        rng = np.random.default_rng(8)
        c = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        c[64] = 0.0  # no field carries the Nyquist mode
        return Field(SpectralGrid(128, 3.0), c)

    @pytest.mark.parametrize("case", ["record", "extremes", "non-hermitian", "n2", "n4096"])
    def test_bytes_match_per_row_oracle(self, tmp_path, case):
        f = {"record": self._record, "extremes": self._extremes,
             "non-hermitian": self._non_hermitian,
             "n2": lambda: Field(SpectralGrid(2), [0.75, complex(-0.0, 0.0)]),
             "n4096": lambda: random_real_field(SpectralGrid(4096, 0.5), seed=6)}[case]()
        p = tmp_path / "field.csv"
        save_field_csv(f, p)
        assert p.read_bytes() == row_by_row_csv(f).encode()

    @pytest.mark.parametrize("case", ["record", "extremes"])
    def test_save_load_save_keeps_every_bit(self, tmp_path, case):
        # float(re) + 1j * float(im) loaded -0.0 as 0.0, so the re-saved file changed
        f = self._record() if case == "record" else self._extremes()
        zeros = np.concatenate([f.coeffs.real, f.coeffs.imag])
        assert np.any(np.signbit(zeros) & (zeros == 0.0))  # the case holds signed zeros
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        save_field_csv(f, first)
        g = load_field_csv(first)
        assert g.coeffs.tobytes() == f.coeffs.tobytes()
        save_field_csv(g, second)
        assert second.read_bytes() == first.read_bytes()

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "broken.csv"
        p.write_text("k,re_ck,im_ck\n0,1.0,0.0\n")
        with pytest.raises(ConfigurationError, match="header"):
            load_field_csv(p)

    @pytest.mark.parametrize("edit, match", [
        (lambda lines: lines[:2 + 6], "broken.csv: 6 rows for 6 distinct"),
        (lambda lines: lines + [lines[5]], "broken.csv: 17 rows for 16 distinct"),
        (lambda lines: [lines[0].replace('"n": 16', '"n": 16.7')] + lines[1:], "broken.csv: .*16.7"),
        (lambda lines: ['# {"n": 16'] + lines[1:], "broken.csv: .*JSONDecodeError"),
        (lambda lines: ['# {"length": 6.28}'] + lines[1:], "broken.csv: .*KeyError"),
        (lambda lines: ['# {"n": 6, "length": 6.28}'] + lines[1:], "broken.csv: .*power of two"),
        (lambda lines: ['# [16, 6.28]'] + lines[1:], "broken.csv: .*TypeError"),
        (lambda lines: lines[:10] + ["8,0.5,0"] + lines[11:], "Nyquist"),
        (lambda lines: lines[:3] + ["1,0.5"] + lines[4:], "broken.csv, line 4: .*not enough values"),
        (lambda lines: lines[:3] + ["1.5,0,0"] + lines[4:], "broken.csv, line 4: .*invalid literal"),
    ], ids=["cut", "duplicate-row", "fractional-n", "cut-header", "header-without-n",
            "header-odd-n", "header-not-an-object", "nyquist-row", "two-columns", "fractional-k"])
    def test_broken_snapshot_refused(self, tmp_path, edit, match):
        # each loaded before as a field other than the one saved, or escaped as a
        # bare ValueError, KeyError or TypeError naming no file; a nonzero k = n/2
        # row is refused by Field, not dropped
        p = tmp_path / "broken.csv"
        save_field_csv(random_real_field(SpectralGrid(16), seed=1), p)
        lines = p.read_text().splitlines()
        assert lines[10].startswith("8,")
        p.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ConfigurationError, match=match):
            load_field_csv(p)


class TestNyquistConvention:
    """A field carries no k = n/2 mode: transform drops it, Field refuses it, and
    every producer writes an exact 0 there."""

    def test_transform_drops_only_the_nyquist_mode(self, grid64):
        s = np.random.default_rng(3).standard_normal(grid64.n)
        c = transform(grid64, s).coeffs
        want = np.fft.fft(s) / grid64.n
        assert want[32] != 0 and c[32] == 0
        assert np.array_equal(np.delete(c, 32), np.delete(want, 32))

    @pytest.mark.parametrize("value", [1e-300, 0.5, -2j], ids=["tiny", "real", "imaginary"])
    def test_nonzero_nyquist_refused(self, grid64, value):
        c = np.zeros(grid64.n, dtype=complex)
        c[grid64.nyquist_index] = value
        with pytest.raises(ConfigurationError, match="nonzero Nyquist mode k = n/2"):
            Field(grid64, c)
        with pytest.raises(ConfigurationError, match="Nyquist"):
            field_from_coeffs(grid64, {grid64.n // 2: value})

    def test_every_producer_writes_zero_at_nyquist(self):
        grid = SpectralGrid(32, 5.0)
        sym = whitham(1.0)
        initials = [{"kind": "cosine", "modes": [[1, 1.0], [15, 0.5]]},
                    {"kind": "gaussian", "amplitude": 1.0},
                    {"kind": "random_hs", "seed": 2, "s": 0.0}]
        fields = [make_initial(grid, section) for section in initials]
        u = fields[1]  # a narrow Gaussian: its samples have a large Nyquist component
        fields.append(field_from_function(grid, lambda x: np.exp(-((x - 2.5) / 0.2) ** 2)))
        xi = grid.frequencies
        fields.append(Field(grid, u.coeffs * (np.abs(xi) ** 0.5 + 1j * xi)))
        fields += [full_rhs(u, sym, dealias) for dealias in (True, False)]
        for scheme in ("ifrk4", "etdrk4"):
            for dealias in (True, False):
                cfg = SolverConfig(scheme=scheme, dt=1e-3, t_final=3e-3, dealias=dealias)
                fields += [f for _, f in trajectory(u, sym, cfg)]
        assert len(fields) == 7 + 4 * 4
        for f in fields:
            assert f.coeffs[grid.nyquist_index] == 0
            assert np.max(np.abs(f.coeffs)) > 0
