import json
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from conftest import flow_dilation, random_real_field, zero_field
from oracles import convolution_product
from dblab import (
    BlowUpError,
    ConfigurationError,
    Field,
    SolverConfig,
    SpectralGrid,
    hamiltonian,
    ilw,
    modified_energy,
    pure_power,
    solver,
    trajectory,
    whitham,
)
from dblab.energies import mass
from dblab.solver import (
    RunWriter,
    final_state,
    full_rhs,
    make_stepper,
    nonlinear_rhs,
    self_convergence,
)
from dblab.spectral import load_field_csv, save_field_csv, transform
from dblab.cli import cli_dispatch


class TestConfig:
    def test_bad_scheme(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(scheme="rk4")

    def test_steps_within_one_dt(self):
        # dt must divide t_final; a run never stops short of or past t_final
        cfg = SolverConfig(dt=1e-3, t_final=0.01)
        assert cfg.steps == 10
        for dt, tf in ((3e-3, 0.01), (7e-3, 0.02)):
            with pytest.raises(ConfigurationError, match="divide"):
                SolverConfig(dt=dt, t_final=tf)

    def test_positive(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=-1e-3)

    @pytest.mark.parametrize("field", ["dt", "t_final"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_dt_or_t_final_refused(self, field, bad):
        # t_final = inf used to raise a bare OverflowError, dt = inf to run 0 steps
        with pytest.raises(ConfigurationError, match="finite"):
            SolverConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, 0, "2"])
    def test_record_every_must_be_a_positive_integer(self, bad):
        # 2.5 used to be accepted and to record every 5 steps
        with pytest.raises(ConfigurationError, match="record_every"):
            SolverConfig(dt=1e-3, t_final=1e-2, record_every=bad)

    @pytest.mark.parametrize(
        "kwargs",
        [{"dealias": "no"}, {"nonlinear": "yes"}, {"dealias": 1}, {"nonlinear": None},
         {"dt": True, "t_final": 2.0}, {"t_final": True}, {"dt": "0.1"}, {"t_final": "1.0"}],
        ids=["dealias-str", "nonlinear-str", "dealias-int", "nonlinear-none", "dt-bool",
             "t_final-bool", "dt-str", "t_final-str"],
    )
    def test_flags_and_times_must_have_their_types(self, kwargs):
        # "no" ran dealiased, dt=True ran steps of dt = 1, and dt="0.1" raised
        # a bare TypeError
        with pytest.raises(ConfigurationError, match="True or False|positive and finite"):
            SolverConfig(**kwargs)

    def test_numpy_numbers_accepted(self):
        cfg = SolverConfig(dt=np.float64(1e-3), t_final=np.float32(0.5))
        assert cfg.steps == 500

    def test_record_every_takes_any_integer_type(self):
        assert SolverConfig(dt=1e-3, t_final=1e-2, record_every=np.int64(5)).record_every == 5


def _one_step(u, sym, cfg):
    """The state after one step: a run with t_final = dt."""
    assert cfg.steps == 1
    return final_state(u, sym, cfg)


class TestStep:
    def test_zero_stays_zero(self, grid64):
        cfg = SolverConfig(dt=1e-3, t_final=1e-3)
        out = _one_step(zero_field(grid64), pure_power(1.0), cfg)
        assert np.all(out.coeffs == 0)

    def test_linear_exact_phase(self, grid64):
        sym = pure_power(1.0)
        u0 = transform(grid64, np.cos(3.0 * grid64.nodes))
        cfg = SolverConfig(dt=1e-2, t_final=1e-2, nonlinear=False)
        out = _one_step(u0, sym, cfg)
        xi = grid64.frequencies
        expect = u0.coeffs * np.exp(-1j * sym.omega(xi) * cfg.dt)
        expect[grid64.nyquist_index] = 0.0
        assert np.max(np.abs(out.coeffs - expect)) < 1e-15
        # u(t) = cos(3x - omega(3) t) with omega(3) = -9
        vals = out.values()
        target = np.cos(3.0 * grid64.nodes + 9.0 * cfg.dt)
        assert np.max(np.abs(vals - target)) < 1e-12

    def test_linear_reversibility(self, grid128):
        sym = whitham(1.0)
        u0 = random_real_field(grid128, seed=3)
        fwd = SolverConfig(dt=1e-2, t_final=1e-2, nonlinear=False)
        one = _one_step(u0, sym, fwd)
        # the linear IF step is the exact diagonal propagator, so the
        # conjugate phase rewinds it to machine precision
        xi = grid128.frequencies
        rewound = one.coeffs * np.exp(+1j * sym.omega(xi) * fwd.dt)
        rewound[grid128.nyquist_index] = 0.0
        assert np.max(np.abs(rewound - np.where(
            np.arange(grid128.n) == grid128.nyquist_index, 0.0, u0.coeffs))) < 1e-12

    def test_small_amplitude_near_linear(self, grid128):
        sym = pure_power(1.0)
        eps = 1e-3
        u0 = transform(grid128, eps * np.cos(2.0 * grid128.nodes))
        cfg = SolverConfig(dt=1e-3, t_final=0.1, record_every=100)
        final = final_state(u0, sym, cfg).coeffs
        xi = grid128.frequencies
        lin = u0.coeffs * np.exp(-1j * sym.omega(xi) * 0.1)
        lin[grid128.nyquist_index] = 0.0
        dev = np.max(np.abs(final - lin))
        assert dev <= 10.0 * eps**2 * 0.1  # quadratic-in-amplitude deviation

    def test_mean_preserved_exactly(self, grid64):
        sym = pure_power(0.5)
        u = random_real_field(grid64, seed=6, mean_free=False)
        c = u.coeffs.copy()
        c[0] = 0.125
        u = Field(grid64, c)
        cfg = SolverConfig(dt=1e-3, t_final=1e-2)
        assert final_state(u, sym, cfg).coeffs[0] == 0.125


class TestConservation:
    def test_bo_benchmark(self):
        grid = SpectralGrid(256)
        sym = pure_power(1.0)
        u0 = transform(grid, 0.1 * np.cos(grid.nodes))
        cfg = SolverConfig(dt=1e-3, t_final=1.0, record_every=1000)
        last = final_state(u0, sym, cfg)
        m0, mT = mass(u0), mass(last)
        h0, hT = hamiltonian(u0, sym), hamiltonian(last, sym)
        assert abs(mT - m0) / m0 < 1e-10
        assert abs(hT - h0) / abs(h0) < 1e-8

    @pytest.mark.parametrize("sym", [whitham(1.0), ilw()], ids=["whitham", "ilw"])
    def test_hamiltonian_conserved(self, sym):
        # omega/xi > 0 for these kinds, so a sign error in the quadratic
        # weight drifts by 1e-3 (whitham) to 5e-2 (ilw) on these data
        grid = SpectralGrid(256)
        x = grid.nodes
        u0 = transform(grid, 0.3 * np.cos(x) + 0.2 * np.sin(2 * x))
        cfg = SolverConfig(dt=1e-3, t_final=1.0, record_every=1000)
        h0 = hamiltonian(u0, sym)
        hT = hamiltonian(final_state(u0, sym, cfg), sym)
        assert abs(hT - h0) / abs(h0) < 1e-8

    def test_etdrk4_matches_ifrk4(self):
        grid = SpectralGrid(128)
        sym = pure_power(1.0)
        u0 = transform(grid, 0.2 * np.cos(grid.nodes) + 0.1 * np.cos(3 * grid.nodes))
        out = {}
        for scheme in ("ifrk4", "etdrk4"):
            cfg = SolverConfig(scheme=scheme, dt=1e-3, t_final=0.1, record_every=100)
            out[scheme] = final_state(u0, sym, cfg).coeffs
        assert np.max(np.abs(out["ifrk4"] - out["etdrk4"])) < 1e-9


class TestConvergence:
    def test_fourth_order(self):
        grid = SpectralGrid(128)
        sym = pure_power(1.0)
        u0 = transform(grid, 0.4 * np.cos(grid.nodes) + 0.2 * np.cos(2 * grid.nodes))
        cfg = SolverConfig(dt=1e-3, t_final=0.5)
        res = self_convergence(u0, sym, cfg, [4e-3, 2e-3, 1e-3])
        assert 3.7 <= res["slope"] <= 4.3

    def test_blowup_raises(self):
        # every run blows up before t = 2; a study that compared the last
        # records would see t = 0 three times: errors [0, 0, 0], slope nan
        grid = SpectralGrid(64)
        u0 = transform(grid, 2.0 * np.cos(grid.nodes))
        cfg = SolverConfig(dt=0.01, t_final=2.0, dealias=False)
        with pytest.raises(BlowUpError):
            self_convergence(u0, pure_power(0.5), cfg, [0.04, 0.02, 0.01])


class TestScaling:
    def test_alpha_half_lambda_two(self):
        grid = SpectralGrid(256)
        x = grid.nodes
        u0 = transform(grid, 0.1 * np.cos(x) + 0.05 * np.cos(2 * x))
        cfg = SolverConfig(dt=1e-3, t_final=0.5)
        sup, critical = flow_dilation(pure_power(0.5), 2.0, u0, cfg)
        assert sup < 1e-6
        assert critical < 1e-10


class TestBlowUpAndRecords:
    def test_burgers_like_blowup_returns_partial(self):
        # alpha -> 0 with big data steepens; huge dt forces the RK4 through
        # the gradient catastrophe and overflows
        grid = SpectralGrid(64)
        sym = pure_power(0.01)
        u0 = transform(grid, 50.0 * np.cos(grid.nodes))
        cfg = SolverConfig(dt=0.1, t_final=10.0, record_every=1, dealias=False)
        seen = []
        with pytest.raises(BlowUpError) as info:
            for t, _ in trajectory(u0, sym, cfg):
                seen.append(t)
        assert info.value.time <= 10.0
        assert len(seen) >= 1
        # the records stop at the last valid time, one step before the blow-up
        assert seen[-1] == info.value.last_valid_time
        assert info.value.last_valid_time == pytest.approx(info.value.time - 0.1)

    def test_final_state_raises_what_trajectory_raises(self):
        # final_state is trajectory run to the end: the same error with the same
        # two times, though it records no state before the blow-up
        grid = SpectralGrid(64)
        u0 = transform(grid, 2.0 * np.cos(grid.nodes))
        cfg = SolverConfig(dt=0.01, t_final=2.0, record_every=10, dealias=False)
        with pytest.raises(BlowUpError) as from_final:
            final_state(u0, pure_power(0.5), cfg)
        with pytest.raises(BlowUpError) as from_trajectory:
            list(trajectory(u0, pure_power(0.5), cfg))
        assert from_final.value.time == from_trajectory.value.time < 2.0
        assert from_final.value.last_valid_time == from_trajectory.value.last_valid_time

    def test_trajectory_determinism(self):
        grid = SpectralGrid(64)
        sym = pure_power(1.0)
        u0 = transform(grid, 0.1 * np.cos(grid.nodes))
        cfg = SolverConfig(dt=1e-3, t_final=0.01, record_every=2)
        a = list(trajectory(u0, sym, cfg))
        b = list(trajectory(u0, sym, cfg))
        # records at t = 0, every 2 steps and t_final
        assert [t for t, _ in a] == [t for t, _ in b] == pytest.approx([0.002 * j for j in range(6)])
        for (_, f), (_, g) in zip(a, b):
            assert f.grid == grid and np.array_equal(f.coeffs, g.coeffs)
        assert np.array_equal(a[-1][1].coeffs, final_state(u0, sym, cfg).coeffs)

    def test_writer_and_resume(self, tmp_path):
        grid = SpectralGrid(64)
        sym = pure_power(1.0)
        u0 = transform(grid, 0.1 * np.cos(grid.nodes))
        cfg = SolverConfig(dt=1e-3, t_final=0.01, record_every=5)
        writer = RunWriter(tmp_path)
        recs = list(trajectory(u0, sym, cfg))
        for t, f in recs:
            writer.snapshot(t, f)
            writer.report(modified_energy(f, sym, 0.0, 8.0, t=t))
        snaps = sorted(tmp_path.glob("snapshot_*.csv"))
        assert len(snaps) == len(recs)
        assert (tmp_path / "reports.jsonl").exists()
        # resume from the mid snapshot and reach the same final state
        mid = load_field_csv(snaps[1])
        t_mid = recs[1][0]
        cfg2 = SolverConfig(dt=1e-3, t_final=cfg.t_final - t_mid, record_every=5)
        last = final_state(mid, sym, cfg2)
        assert np.max(np.abs(last.coeffs - recs[-1][1].coeffs)) < 1e-13


class TestRhsHelpers:
    def test_full_rhs_splits(self, grid64):
        sym = pure_power(1.0)
        u = random_real_field(grid64, seed=2, band=10)
        total = full_rhs(u, sym).coeffs
        lin = full_rhs(u, sym, nonlinear=False).coeffs
        nl = total - lin
        xi = grid64.frequencies
        expect_lin = -1j * sym.omega(xi) * u.coeffs
        expect_lin[grid64.nyquist_index] = 0.0
        assert np.max(np.abs(lin - expect_lin)) < 1e-15
        assert abs(nl[0]) == 0.0  # perfect derivative: mean-free


def _reference_nl(grid, c, dealias=True):
    """d_x(u^2) on full complex coefficients with complex FFTs."""
    mask = grid.dealias_mask if dealias else 1.0
    u = np.fft.ifft(c * mask) * grid.n
    d = np.fft.fft(u * u) / grid.n * mask
    d[grid.nyquist_index] = 0.0
    return 1j * grid.frequencies * d


def _reference_step(grid, sym, cfg, c):
    """One IFRK4 or ETDRK4 step on full complex coefficients."""
    h = cfg.dt
    lam = -1j * sym.omega(grid.frequencies)
    lam[grid.nyquist_index] = 0.0
    e = np.exp(h * lam / 2.0)

    def nl(v):
        return _reference_nl(grid, v, cfg.dealias)

    if cfg.scheme == "ifrk4":
        e2 = e * e
        k1 = nl(c)
        k2 = nl(e * (c + 0.5 * h * k1))
        k3 = nl(e * c + 0.5 * h * k2)
        k4 = nl(e2 * c + h * e * k3)
        out = e2 * c + h / 6.0 * (e2 * k1 + 2.0 * e * (k2 + k3) + k4)
    else:
        r = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
        lr = h * lam[:, None] + r[None, :]
        elr = np.exp(lr)
        q = h * ((np.exp(lr / 2.0) - 1.0) / lr).mean(axis=1)
        f1 = h * ((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3).mean(axis=1)
        f2 = h * ((2.0 + lr + elr * (lr - 2.0)) / lr**3).mean(axis=1)
        f3 = h * ((-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3).mean(axis=1)
        nv = nl(c)
        a = e * c + q * nv
        na = nl(a)
        b = e * c + q * na
        nb = nl(b)
        nc = nl(e * a + q * (2.0 * nb - nv))
        out = np.exp(h * lam) * c + f1 * nv + 2.0 * f2 * (na + nb) + f3 * nc
    out[grid.nyquist_index] = 0.0
    return out


def _full_width_nl(grid, c):
    """The unbanded d_x(u^2) on the whole half: the 2/3 rule as mask
    multiplies of the input and of the output."""
    m = grid.n // 2
    mask = grid.dealias_mask[:m].astype(complex)
    u = np.fft.irfft(c * mask, grid.n, norm="forward")
    d = np.fft.rfft(u * u, norm="forward")[:m] * mask
    return 1j * grid.frequencies[:m] * d


def _full_width_step(grid, sym, cfg, c):
    """One step by the unbanded formulas: every stage and table on the whole half."""
    h = cfg.dt
    lam = -1j * sym.omega(grid.frequencies[: grid.n // 2])

    def nl(v):
        return _full_width_nl(grid, v)

    if cfg.scheme == "ifrk4":
        e = np.exp(lam * h / 2.0)
        e2 = e * e
        k1 = nl(c)
        k2 = nl(e * (c + 0.5 * h * k1))
        k3 = nl(e * c + 0.5 * h * k2)
        k4 = nl(e2 * c + h * e * k3)
        out = e2 * c + h / 6.0 * (e2 * k1 + 2.0 * e * (k2 + k3) + k4)
    else:
        eh = np.exp(0.5 * h * lam)
        q, f1, f2, f3 = solver._etdrk4_coefficients(h, lam)
        nv = nl(c)
        a = eh * c + q * nv
        na = nl(a)
        b = eh * c + q * na
        nb = nl(b)
        nc = nl(eh * a + q * (2.0 * nb - nv))
        out = np.exp(h * lam) * c + f1 * nv + 2.0 * f2 * (na + nb) + f3 * nc
    return out


class TestBandedStep:
    """The nonlinear step runs on the 2/3 band k = 0..n//3; the modes above
    it, where d_x(u^2) is zero, rotate by the stepper's e_full."""

    @staticmethod
    def _rough(grid):
        # random H^s data: content on every mode, above the band too
        c = random_real_field(grid, seed=9).coeffs
        return 0.3 * c[: grid.n // 2] / np.max(np.abs(c))

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_above_band_is_e_full_times_c(self, scheme):
        grid = SpectralGrid(1024)
        cfg = SolverConfig(scheme=scheme, dt=1e-3, t_final=1e-3)
        stepper = make_stepper(grid, whitham(1.0), cfg)
        c = self._rough(grid)
        m = grid.n // 3 + 1
        assert stepper.band == m and stepper._stages.shape == (stepper.STAGES, m)
        got = stepper(c)
        want = stepper.e_full[m:] * c[m:]
        assert np.all(c[m:] != 0)
        assert np.array_equal(got[m:].view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    @pytest.mark.parametrize("sym", [pure_power(1.0), whitham(1.0)], ids=["bo", "whitham"])
    def test_band_equals_full_width_formulas(self, scheme, sym):
        grid = SpectralGrid(1024)
        cfg = SolverConfig(scheme=scheme, dt=1e-3, t_final=1e-3)
        c = self._rough(grid)
        got = make_stepper(grid, sym, cfg)(c)
        want = _full_width_step(grid, sym, cfg, c)
        # == on the band and above it; above it only the sign of an exact zero may differ
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_without_dealiasing_the_band_is_the_half(self, grid128, scheme):
        u = random_real_field(grid128, seed=4, band=60)
        u = Field(grid128, 0.5 * u.coeffs / np.max(np.abs(u.values())))
        cfg = SolverConfig(scheme=scheme, dt=1e-2, t_final=1e-2, dealias=False)
        stepper = make_stepper(grid128, pure_power(1.0), cfg)
        assert stepper.band == grid128.n // 2
        assert nonlinear_rhs(grid128, u.coeffs[: stepper.band], dealias=False).shape == (stepper.band,)
        got = _one_step(u, pure_power(1.0), cfg).coeffs
        want = _reference_step(grid128, pure_power(1.0), cfg, u.coeffs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the aliased modes above n/3 carry the nonlinear term: the run is unbanded
        dealiased = _reference_step(grid128, pure_power(1.0), replace(cfg, dealias=True), u.coeffs)
        above = np.abs(grid128.wavenumbers) > grid128.n // 3
        assert np.max(np.abs(got - dealiased)[above]) > 1e-6

    def test_full_rhs_zero_above_n_over_3(self):
        grid = SpectralGrid(256)
        u = random_real_field(grid, seed=6)
        sym = pure_power(1.0)
        nl = full_rhs(u, sym).coeffs - full_rhs(u, sym, nonlinear=False).coeffs
        above = ~grid.dealias_mask
        assert np.all(nl[above] == 0)
        assert np.any(nl[~above] != 0)
        unbanded = full_rhs(u, sym, dealias=False).coeffs - full_rhs(u, sym, nonlinear=False).coeffs
        assert np.any(unbanded[above] != 0)


class TestHermitianHalf:
    @pytest.mark.parametrize("n", [64, 1024])
    def test_nonlinear_rhs_matches_convolution_oracle(self, n):
        grid = SpectralGrid(n)
        u = random_real_field(grid, seed=n)
        m = n // 3 + 1  # the 2/3 band, the length of the result
        got = nonlinear_rhs(grid, u.coeffs[: n // 2])
        assert got.shape == (m,)
        masked = Field(grid, u.coeffs * grid.dealias_mask)
        oracle = (1j * grid.frequencies * convolution_product(masked, masked)
                  * grid.dealias_mask)[: n // 2]
        assert np.all(oracle[m:] == 0)
        want = oracle[:m]
        # each output mode sums products over all pairs through two FFTs, so
        # its roundoff is a few eps times |xi| * sum over all pairs |c_k1 c_k2|
        terms = np.abs(grid.frequencies[:m]) * np.sum(np.abs(masked.coeffs)) ** 2
        assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * terms)

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    @pytest.mark.parametrize("sym", [pure_power(1.0), whitham(1.0)], ids=["bo", "whitham"])
    def test_step_matches_full_complex_reference(self, grid128, scheme, sym):
        u = random_real_field(grid128, seed=11, band=40)
        u = Field(grid128, 0.5 * u.coeffs / np.max(np.abs(u.values())))
        cfg = SolverConfig(scheme=scheme, dt=1e-2, t_final=1e-2)
        got = _one_step(u, sym, cfg).coeffs
        want = _reference_step(grid128, sym, cfg, u.coeffs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        n = grid128.n
        assert np.array_equal(got[n - np.arange(1, n // 2)], np.conj(got[1 : n // 2]))

    def test_run_rejects_non_real(self, grid64):
        c = np.zeros(grid64.n, dtype=complex)
        c[grid64.index_of(3)] = 1.0  # no partner at k = -3
        cfg = SolverConfig(dt=1e-3, t_final=1e-3)
        with pytest.raises(ConfigurationError, match="real"):
            list(trajectory(Field(grid64, c), pure_power(1.0), cfg))


def _traced_peak(fn, *args):
    """(result, peak bytes traced by tracemalloc while fn runs)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _one_shot_etdrk4(h, lam):
    """q, f1, f2, f3 from one (rows, 32) contour matrix."""
    r = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
    lr = h * lam[:, None] + r[None, :]
    elr = np.exp(lr)
    return (
        h * ((np.exp(lr / 2.0) - 1.0) / lr).mean(axis=1),
        h * ((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3).mean(axis=1),
        h * ((2.0 + lr + elr * (lr - 2.0)) / lr**3).mean(axis=1),
        h * ((-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3).mean(axis=1),
    )


def _half_data(grid, seed=1):
    u = random_real_field(grid, seed=seed, band=grid.n // 8)
    u = Field(grid, 0.5 * u.coeffs / np.max(np.abs(u.values())))
    return u.coeffs[: grid.n // 2].copy()


class TestWorkspace:
    """Fixed stepper workspaces and row-blocked one-off tables."""

    def test_etdrk4_setup_memory_bounded(self):
        grid = SpectralGrid(16384)
        grid.frequencies, grid.dealias_mask  # the grid's own cached tables
        cfg = SolverConfig(scheme="etdrk4", dt=1e-4, t_final=1e-4)
        _, peak = _traced_peak(make_stepper, grid, pure_power(1.0), cfg)
        # one (8193, 32) complex contour matrix alone is 4.2 MB
        assert peak <= 4e6

    def test_snapshot_write_memory_bounded(self, tmp_path):
        grid = SpectralGrid(16384)
        f = random_real_field(grid, seed=5)
        c = f.coeffs.copy()
        c[1], c[-1] = -0.0, complex(1e-300, 1e300)
        f = Field(grid, c)
        grid.wavenumbers
        _, peak = _traced_peak(save_field_csv, f, tmp_path / "f.csv")
        assert peak <= 1e6
        rows = zip(grid.wavenumbers.tolist(), c.real.tolist(), c.imag.tolist())
        body = "".join(f"{k:d},{re:.17g},{im:.17g}\n" for k, re, im in rows)
        text = (tmp_path / "f.csv").read_text()
        header = "# " + json.dumps({"n": grid.n, "length": grid.length}) + "\n"
        assert text == header + "k,re_ck,im_ck\n" + body
        assert np.array_equal(load_field_csv(tmp_path / "f.csv").coeffs, c)

    def test_simulate_memory_bounded_in_record_count(self, tmp_path):
        # 201 records at n = 4096: holding them all would take 13 MB of
        # full-length coefficients; simulate writes and diagnoses each one
        # as it arrives and holds one at a time
        cfg = tmp_path / "mem.json"
        cfg.write_text(json.dumps({
            "equation": {"type": "pure_power", "alpha": 1.0},
            "grid": {"n": 4096},
            "time": {"dt": 1e-4, "t_final": 0.02, "record_every": 1},
            "diagnostics": {"n0": 4096.0},
            "output": {"dir": str(tmp_path / "run")},
        }))
        code, peak = _traced_peak(cli_dispatch, ["simulate", "--config", str(cfg)])
        assert code == 0
        assert len((tmp_path / "run" / "results.csv").read_text().splitlines()) == 1 + 201
        assert peak <= 4e6

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_warm_step_allocates_only_its_result(self, scheme):
        grid = SpectralGrid(4096)
        stepper = make_stepper(grid, pure_power(1.0), SolverConfig(scheme=scheme, dt=1e-4, t_final=1e-4))
        c = _half_data(grid)
        stepper(c)
        _, peak = _traced_peak(stepper, c)
        assert peak <= 2 * c.nbytes

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_returned_arrays_not_reused(self, grid128, scheme):
        stepper = make_stepper(grid128, pure_power(1.0), SolverConfig(scheme=scheme, dt=1e-2, t_final=1e-2))
        c1 = stepper(_half_data(grid128))
        kept = c1.copy()
        c2 = stepper(c1)
        assert np.array_equal(c1, kept)
        assert not np.shares_memory(c1, c2)

    @pytest.mark.parametrize("sym", [pure_power(1.0), whitham(1.0)], ids=["bo", "whitham"])
    def test_blocked_etdrk4_coefficients_match_one_shot(self, sym, monkeypatch):
        # only the rows below the closed-form limit take contour means; small
        # blocks make them span several blocks and a short last one
        monkeypatch.setattr(solver, "_CONTOUR_ROWS", 6)
        grid = SpectralGrid(4096)
        h = 1e-3
        stepper = make_stepper(grid, sym, SolverConfig(scheme="etdrk4", dt=h, t_final=h))
        # the tables are built on the 2/3 band, which holds no Nyquist mode
        lam = -1j * sym.omega(grid.frequencies[: grid.n // 3 + 1])
        near = np.abs(h * lam) < solver._CLOSED_FORM_MIN_Z
        rows = int(np.count_nonzero(near))
        assert rows > 2 * solver._CONTOUR_ROWS and rows % solver._CONTOUR_ROWS
        got = (stepper.q, stepper.f1, stepper.f2, stepper.f3)
        for g, want in zip(got, _one_shot_etdrk4(h, lam[near])):
            assert np.all(np.abs(g[near] - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_in_place_step_matches_expression_form(self, grid128, scheme):
        # the stage arithmetic keeps the order of the formulas, so the bits agree
        stepper = make_stepper(grid128, whitham(1.0), SolverConfig(scheme=scheme, dt=1e-2, t_final=1e-2))
        half = _half_data(grid128, seed=3)
        m = grid128.n // 3 + 1
        c = half[:m]  # the formulas run on the 2/3 band

        def nl(v):
            return nonlinear_rhs(grid128, v)

        dt = stepper.dt
        if scheme == "ifrk4":
            e, e2 = stepper.e_half, stepper.e_full[:m]
            k1 = nl(c)
            k2 = nl(e * (c + 0.5 * dt * k1))
            k3 = nl(e * c + 0.5 * dt * k2)
            k4 = nl(e2 * c + dt * e * k3)
            want = e2 * c + dt / 6.0 * (e2 * k1 + 2.0 * e * (k2 + k3) + k4)
        else:
            eh, q = stepper.e_half, stepper.q
            nv = nl(c)
            a = eh * c + q * nv
            na = nl(a)
            b = eh * c + q * na
            nb = nl(b)
            nc = nl(eh * a + q * (2.0 * nb - nv))
            want = (stepper.e_full[:m] * c + stepper.f1 * nv + 2.0 * stepper.f2 * (na + nb)
                    + stepper.f3 * nc)
        # above the band the nonlinear term is zero: the modes rotate by e_full
        want = np.concatenate([want, stepper.e_full[m:] * half[m:]])
        got = stepper(half)
        assert np.array_equal(got.view(float), want.view(float))
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_run_stops_on_non_finite_coefficient(self, grid64, monkeypatch, bad):
        real = solver.make_stepper

        def poisoned(grid, sym, cfg):
            stepper, calls = real(grid, sym, cfg), []

            def call(c):
                out = stepper(c)
                calls.append(None)
                if len(calls) == 2:
                    out[3] = bad
                return out

            return call

        monkeypatch.setattr(solver, "make_stepper", poisoned)
        u0 = transform(grid64, 0.1 * np.cos(grid64.nodes))
        cfg = SolverConfig(dt=1e-3, t_final=5e-3, record_every=1)
        seen = []
        with pytest.raises(BlowUpError) as info:
            for t, f in trajectory(u0, pure_power(1.0), cfg):
                seen.append((t, f))
        assert info.value.time == pytest.approx(2e-3)
        assert info.value.last_valid_time == pytest.approx(1e-3)
        assert [t for t, _ in seen] == [0.0, pytest.approx(1e-3)]
        assert all(np.all(np.isfinite(f.coeffs)) for _, f in seen)


def _mp_etdrk4(z):
    """q, f1, f2, f3 at h = 1 by their closed forms in 50-digit arithmetic."""
    if z == 0:
        return 0.5, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0
    with mpmath.workdps(50):
        z = mpmath.mpc(z.real, z.imag)
        e = mpmath.exp(z)
        vals = (
            (mpmath.exp(z / 2) - 1) / z,
            (-4 - z + e * (4 - 3 * z + z**2)) / z**3,
            (2 + z + e * (z - 2)) / z**3,
            (-4 - 3 * z - z**2 + e * (4 - z)) / z**3,
        )
        return tuple(complex(v) for v in vals)


class TestETDRK4Coefficients:
    def test_match_mpmath_on_imaginary_sweep(self):
        # closed forms on stiff modes, contour means near 0: both to 2e-14,
        # where a radius-1 contour alone loses digits at |z| ~ 1 and 1e5
        y = np.geomspace(1e-3, 1e5, 400)
        z = np.concatenate([[0.0], 1j * y, -1j * y])
        got = solver._etdrk4_coefficients(1.0, z)
        want = np.array([_mp_etdrk4(v) for v in z]).T
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w) / np.abs(w)) <= 2e-14
