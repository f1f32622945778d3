import numpy as np
import pytest

from conftest import field_from_coeffs, random_hs_field, random_real_field, zero_field
from dblab import (
    ConfigurationError,
    EvaluationError,
    Field,
    SpectralGrid,
    SolverConfig,
    coercivity_check,
    hamiltonian,
    ilw,
    modified_energy,
    pure_power,
    whitham,
)
from dblab.energies import (
    E1,
    TILDE_E1,
    TILDE_E2,
    _bar_bracket,
    _difference_scales,
    _omega2,
    check_sigma,
    corrector_plan,
    corrector_rate,
    corrector_term,
    corrector_term_rotated,
    difference_coercivity_check,
    difference_corrector1,
    difference_corrector2,
    mass,
    max_abs_omega2,
    sigma_window,
)
from dblab.spectral import transform
from dblab.dyadic import cutoff_table, lessless_multiplier, phi_n, phi_prime, tilde_phi_n
from dblab.multipliers import chi1_kernel, resonance_guard
from dblab.resonance import omega2
from dblab.solver import final_state, full_rhs
from oracles import (
    hamiltonian_direct,
    slow_corrector,
    slow_difference_corrector1,
    slow_difference_corrector2,
    trapezoid_mass,
)


def multiscale_field(grid, seed=0, target=1.0, s=0.3):
    """random_hs data: mean-free, with no Nyquist mode."""
    return random_hs_field(grid, s, target, seed=seed)


class TestMass:
    def test_small_cosine(self, grid64):
        f = transform(grid64, 0.1 * np.cos(grid64.nodes))
        assert mass(f) == pytest.approx(0.01 * np.pi, rel=1e-13)

    def test_zero(self, grid64):
        assert mass(zero_field(grid64)) == 0.0

    def test_matches_quadrature(self, grid256):
        f = random_real_field(grid256, seed=5)
        assert mass(f) == pytest.approx(trapezoid_mass(f), abs=1e-12 * mass(f))


class TestHamiltonian:
    def test_cosine_bo(self, grid64):
        f = transform(grid64, np.cos(grid64.nodes))
        assert hamiltonian(f, pure_power(1.0)) == pytest.approx(np.pi / 2.0, rel=1e-13)

    def test_zero(self, grid64):
        assert hamiltonian(zero_field(grid64), whitham(1.0)) == 0.0

    def test_two_mode_against_direct_sum(self, grid64):
        x = grid64.nodes
        # the second field has a mean: the weight at xi = 0 is 0 on both sides
        for u in (0.1 * np.cos(x) + 0.05 * np.cos(2 * x), 0.5 + 0.1 * np.cos(x)):
            f = transform(grid64, u)
            for sym in (pure_power(0.5), whitham(1.0), ilw()):
                assert hamiltonian(f, sym) == pytest.approx(
                    hamiltonian_direct(f, sym), abs=1e-10
                )

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("sym", [pure_power(0.5), pure_power(1.0), whitham(1.0), ilw()])
    def test_full_band_against_dealiased_direct_sum(self, n, sym):
        # every mode but the mean is occupied, so the 2/3 mask decides the
        # cubic part: the unmasked triple sum differs by far more than roundoff
        f = multiscale_field(SpectralGrid(n), seed=n, target=2.0, s=0.0)
        want = hamiltonian_direct(f, sym, dealias=True)
        assert hamiltonian(f, sym) == pytest.approx(want, rel=1e-13)
        assert abs(hamiltonian_direct(f, sym) - want) > 1e-6 * abs(want)


class TestCorrector:
    def test_single_band_vanishes(self, grid64):
        u = field_from_coeffs(grid64, {8: 0.5, -8: 0.5})
        assert corrector_term(u, pure_power(1.0), 8.0, 0.0) == 0.0

    def test_single_mode_modified_energy(self, grid64):
        u = field_from_coeffs(grid64, {8: 0.5, -8: 0.5})
        rep = modified_energy(u, pure_power(1.0), 0.0, 2.0)
        assert rep.per_scale[8.0] == pytest.approx(np.pi / 2.0, rel=1e-13)
        assert rep.corrector_share == 0.0
        assert rep.modified == pytest.approx(np.pi / 2.0, rel=1e-13)

    def test_zero_field(self, grid64):
        rep = modified_energy(zero_field(grid64), pure_power(1.0), 0.3, 4.0)
        assert rep.modified == 0.0 and rep.hs_norm == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("alpha,s", [(1.0, 0.3), (0.5, 0.9)])
    def test_matches_slow_oracle(self, seed, alpha, s):
        grid = SpectralGrid(128)
        sym = pure_power(alpha)
        u = multiscale_field(grid, seed=seed, s=s)
        nonzero = 0
        for N in (32.0, 64.0):
            fast = corrector_term(u, sym, N, s)
            slow = slow_corrector(u, sym, N, s)
            nonzero += slow != 0.0
            assert fast == pytest.approx(slow, abs=1e-10 * max(1.0, abs(slow)))
        assert nonzero  # the comparison must not be vacuous

    def test_per_scale_sums_to_modified(self, grid128):
        u = multiscale_field(grid128, seed=4)
        rep = modified_energy(u, pure_power(1.0), 0.3, 8.0)
        assert sum(rep.per_scale.values()) == pytest.approx(rep.modified, rel=1e-12)

    def test_triangle_inequality_report_level(self, grid128):
        u = multiscale_field(grid128, seed=6)
        s, n0 = 0.3, 8.0
        sym = pure_power(1.0)
        rep = modified_energy(u, sym, s, n0)
        table = cutoff_table(grid128, homogeneous=False)
        plain = sum(
            (1 + N * N) ** s * e for N, e in zip(table.scales, table.band_energies(u))
        )
        assert abs(rep.modified - plain) <= rep.corrector_share + 1e-12


PLAN_ARRAYS = ("i1", "i2", "i3", "w1", "w2")


class TestCorrectorPlan:
    def test_cached_plan_is_bit_identical_to_fresh(self):
        grid = SpectralGrid(256)
        sym = pure_power(0.5)
        fields = [multiscale_field(grid, seed=k, s=0.9) for k in (11, 12)]

        def evaluate():
            out = []
            for u in fields:
                z = fields[1] if u is fields[0] else fields[0]
                for N in (32.0, 64.0, 128.0):
                    out.append(corrector_term(u, sym, N, 0.9))
                    out.append(difference_corrector1(z, u, sym, N, -0.2))
                    out.append(difference_corrector2(z, u, sym, N, -0.2))
            return out

        corrector_plan.cache_clear()
        fresh = evaluate()
        cached = evaluate()  # second field and second pass reuse the plans
        assert corrector_plan.cache_info().hits > 0
        corrector_plan.cache_clear()
        assert cached == fresh == evaluate()
        assert any(v != 0.0 for v in fresh)

    @staticmethod
    def _old_guard_count(grid, sym, N):
        # pairs k1 in <<N (k1 != 0), k2 in ~N, closing mode inside the grid,
        # with |Omega_2| < 1e-10 |xi1| N^alpha
        k, xi = grid.wavenumbers, grid.frequencies
        low = (lessless_multiplier(xi, N) > 0) & (k != 0)
        high = tilde_phi_n(xi, N) > 0
        count = 0
        for k1, x1 in zip(k[low], xi[low]):
            inside = np.abs(k1 + k[high]) <= grid.n // 2 - 1
            om = omega2(sym, x1, xi[high][inside])
            count += int(np.sum(np.abs(om) < 1e-10 * abs(x1) * N**sym.alpha))
        return count

    @pytest.mark.parametrize("sym", [pure_power(1.0), whitham(1.0)], ids=["bo", "whitham"])
    def test_top_scale_is_zero_with_guard_count(self, sym):
        # phi_n(xi1 + xi2) = 0 on every grid mode: nothing is kept at N = n,
        # and no pair of the full box falls below the non-resonance floor
        grid = SpectralGrid(256)
        u = multiscale_field(grid, seed=2)
        N = float(grid.n)
        assert corrector_plan(grid, sym, N).i1.size == 0
        assert corrector_term(u, sym, N, 0.3) == 0.0
        for N in (64.0, 128.0, float(grid.n)):
            assert self._old_guard_count(grid, sym, N) == 0

    def test_resonant_pair_refused(self):
        # a linear omega makes Omega_2 roundoff on every pair: the plan must
        # refuse the scale rather than drop its pairs
        class Linear:
            alpha = 1.0

            @staticmethod
            def omega(xi):
                return 2.0 * np.asarray(xi, dtype=float)

        grid, sym = SpectralGrid(256), Linear()
        u = multiscale_field(grid, seed=2)
        for N in (32.0, 64.0):
            with pytest.raises(EvaluationError, match=f"at N = {N:g}: .*\\(k1, k2\\) = "):
                corrector_plan(grid, sym, N)
        with pytest.raises(EvaluationError, match="at N = 32: "):  # the first scale with pairs
            modified_energy(u, sym, 0.3, 2.0)

    @staticmethod
    def _brute_force_plan(grid, sym, N):
        # every pair of the full box: k1 in <<N (k1 != 0), k2 in ~N, the closing
        # mode inside the grid; the half plan keeps k1 > 0 (m = 2), each evaluated
        # per pair.  With k1 > 0 no k2 = n/2 pair closes inside the grid.
        k, xi, n = grid.wavenumbers, grid.frequencies, grid.n
        low = np.flatnonzero((lessless_multiplier(xi, N) > 0) & (k != 0))
        high = np.flatnonzero(tilde_phi_n(xi, N) > 0)
        i1, i2 = (v.ravel() for v in np.meshgrid(low, high, indexing="ij"))
        k3 = -(k[i1] + k[i2])
        half = (np.abs(k3) <= n // 2 - 1) & (k[i1] > 0)
        i1, i2, k3 = i1[half], i2[half], k3[half]
        i3 = k3 % n
        x1, x2, x3 = xi[i1], xi[i2], xi[i3]
        om = omega2(sym, x1, x2)
        keep = (phi_n(x1 + x2, N) != 0) & (tilde_phi_n(x3, N) != 0)
        keep &= ~resonance_guard(sym, x1, om, N)
        i1, i2, i3, x1, x2, x3, om = (v[keep] for v in (i1, i2, i3, x1, x2, x3, om))
        m = 2.0
        cut = lessless_multiplier(x1, N) * tilde_phi_n(x2, N) * tilde_phi_n(x3, N)
        tot = x1 + x2
        chi = chi1_kernel(x1, x2, N, 0.0).real
        ptot = phi_n(tot, N)
        w1 = m * chi * x1 * cut / om
        w2 = m * ptot**2 * tot * cut / om
        # First-order error scales of w1, w2 in units of eps.  Every frequency
        # is 2 pi k / L to an ulp, and the plan reads xi1+xi2 from the grid
        # while this evaluation adds xi1 + xi2, so the two sides see arguments
        # a few ulps apart.  Omega_2 carries an error of a few eps sum|omega|;
        # phi_N(xi1+xi2) one of eps (1 + max|phi'| |xi1+xi2| / N), which the
        # commutator's N / xi1 amplifies inside chi1.
        dphi = np.max(np.abs(phi_prime(np.linspace(0.5, 2.0, 4001))))
        osum = np.abs(sym.omega(tot)) + np.abs(sym.omega(x1)) + np.abs(sym.omega(x2))
        wcond = osum / np.abs(om)
        pcond = np.abs(ptot) * (1.0 + dphi * np.abs(tot) / N)
        base = m * cut / np.abs(om)
        scale1 = base * (np.abs(chi * x1) * wcond + 4.0 * np.abs(tot) * pcond)
        scale2 = base * np.abs(tot) * (ptot**2 * wcond + 2.0 * pcond)
        pairs = {(a, b, c): j for j, (a, b, c) in enumerate(zip(i1, i2, i3))}
        return pairs, (w1, w2), (scale1, scale2), (om, osum)

    @pytest.mark.parametrize("length", [2 * np.pi, 17.3], ids=["2pi", "17.3"])
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize(
        "sym", [pure_power(0.5), pure_power(1.0), whitham(1.0), ilw()],
        ids=["pp0.5", "bo", "whitham", "ilw"],
    )
    def test_pairs_match_brute_force(self, sym, n, length):
        grid = SpectralGrid(n, length)
        eps = np.finfo(float).eps
        for N in cutoff_table(grid).scales:
            plan = corrector_plan(grid, sym, N)
            got = list(zip(plan.i1, plan.i2, plan.i3))
            pairs, refs, scales, (om, osum) = self._brute_force_plan(grid, sym, N)
            assert len(set(got)) == len(got) and set(got) == set(pairs)
            assert self._old_guard_count(grid, sym, N) == 0
            order = [pairs[p] for p in got]
            for w, ref, scale in zip((plan.w1, plan.w2), refs, scales):
                assert np.all(np.abs(w - ref[order]) <= 8.0 * eps * scale[order])
            # the one Omega_2 source, at the plan's pairs as its readers index them
            om2 = _omega2(grid, sym, plan.i1, plan.i2, -plan.i3)
            assert np.all(np.abs(om2 - om[order]) <= 8.0 * eps * osum[order])
            if om2.size:
                assert max_abs_omega2(grid, sym, N) == np.max(np.abs(om2))
        if length == 2 * np.pi:  # the top scale N = n has an empty closing band
            assert corrector_plan(grid, sym, float(n)).i1.size == 0

    @pytest.mark.parametrize("length", [2 * np.pi, 17.3], ids=["2pi", "17.3"])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("record", [E1, TILDE_E1, TILDE_E2], ids=["E1", "E~1", "E~2"])
    def test_pairing_has_the_bits_of_the_indexed_product(self, record, n, length):
        # the in-place product of `take` gathers against the expression it replaced,
        # with the record's weight and with a complex (rotated) weight
        grid = SpectralGrid(n, length)
        sym = pure_power(0.9)
        coeffs = [multiscale_field(grid, seed=1).coeffs, multiscale_field(grid, seed=2).coeffs]
        a, b, c = (coeffs[i] for i in record.slots)
        for N in cutoff_table(grid).scales:
            plan = corrector_plan(grid, sym, N)
            assert {plan.i1.dtype, plan.i2.dtype, plan.i3.dtype} == {np.dtype(np.int32)}
            w = getattr(plan, record.weight)
            rot = w * np.exp(0.3j * _omega2(grid, sym, plan.i1, plan.i2, -plan.i3))
            for weight in (w, rot):
                want = length**2 * np.sum(weight * a[plan.i1] * b[plan.i2] * c[plan.i3])
                assert plan.pairing(weight, a, b, c) == want

    @pytest.mark.parametrize("length, N", [(17.3, 64.0), (2 * np.pi, 128.0)],
                             ids=["17.3-N64", "2pi-N128"])
    def test_max_abs_omega2_of_an_empty_plan_refused(self, length, N):
        # a bare numpy ValueError (zero-size array to reduction operation maximum) before
        grid = SpectralGrid(128, length)
        assert corrector_plan(grid, pure_power(0.9), N).i1.size == 0
        with pytest.raises(ConfigurationError, match=f"N = {N:g} on the grid n = 128"):
            max_abs_omega2(grid, pure_power(0.9), N)

    def test_plan_bytes_at_most_half_of_full_pairs(self):
        # full-pair plans (int64 slots, complex chi1) of this ladder held 3 311 728 B
        grid = SpectralGrid(1024)
        sym = pure_power(0.9)
        plans = [corrector_plan(grid, sym, N) for N in cutoff_table(grid, homogeneous=False).scales]
        nbytes = sum(v.nbytes for p in plans for v in vars(p).values() if isinstance(v, np.ndarray))
        assert nbytes <= 3311728 / 2
        # the layout: three int32 indices and two float64 weights, 28 B a kept pair
        for p in plans:
            arrays = {k for k, v in vars(p).items() if isinstance(v, np.ndarray)}
            assert arrays == set(PLAN_ARRAYS)
        assert nbytes == 28 * sum(p.i1.size for p in plans) > 0

    def test_off_ladder_scale_refused(self, grid128):
        with pytest.raises(ConfigurationError, match="ladder"):
            corrector_plan(grid128, pure_power(1.0), 48.0)

    @pytest.mark.parametrize("name", PLAN_ARRAYS)
    def test_plan_arrays_read_only(self, name):
        array = getattr(corrector_plan(SpectralGrid(128), pure_power(1.0), 32.0), name)
        assert array.size > 0
        with pytest.raises(ValueError):
            array[0] = 0


class TestRealityCheckedOncePerPass:
    """A ladder pass checks each field once, not once per scale above N0."""

    @staticmethod
    def _count_checks(monkeypatch, call):
        checked = []
        original = Field.is_real

        def counting(self, *args, **kwargs):
            checked.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Field, "is_real", counting)
        call()
        return [id(f) for f in checked]

    def test_modified_energy(self, monkeypatch):
        u = multiscale_field(SpectralGrid(1024), seed=2)
        checked = self._count_checks(monkeypatch, lambda: modified_energy(u, pure_power(0.9), 0.45, 8.0))
        assert checked == [id(u)]

    def test_coercivity_check(self, monkeypatch):
        u = multiscale_field(SpectralGrid(1024), seed=2)
        checked = self._count_checks(monkeypatch, lambda: coercivity_check(u, pure_power(0.9), 0.45, 8.0))
        assert checked == [id(u)]

    def test_difference_coercivity_check(self, monkeypatch):
        grid = SpectralGrid(1024)
        z, w = multiscale_field(grid, seed=2), multiscale_field(grid, seed=3)
        checked = self._count_checks(
            monkeypatch, lambda: difference_coercivity_check(z, w, pure_power(1.0), -0.2, 8.0)
        )
        assert checked == [id(z), id(w)]


class TestLadderPassSigns:
    """Each scale of a pass is its band energy plus the signed corrector terms,
    added in order: E_N = band + E1_N (c = 1), E~_N = band - E~1_N - E~2_N
    (c~1 = c~2 = -1).  Bit-exact."""

    SYMBOLS = [pytest.param(pure_power(1.0), id="alpha1"), pytest.param(whitham(), id="whitham")]

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_modified_energy(self, sym):
        grid, s, n0 = SpectralGrid(128), 0.3, 2.0
        u = multiscale_field(grid, seed=7)
        rep = modified_energy(u, sym, s, n0)
        table = cutoff_table(grid, homogeneous=False)
        above = 0
        for N, band in zip(table.scales, table.band_energies(u)):
            corr = corrector_term(u, sym, N, s) if N > n0 else 0.0
            above += corr != 0.0
            assert rep.per_scale[N] == (1.0 + N * N) ** s * abs(band + corr)
        assert above == 2  # N = 32, 64: a nonempty <<N band and phi_N != 0 on the grid

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_difference_energy(self, sym):
        grid, sigma, n0 = SpectralGrid(128), -0.2, 2.0
        z = multiscale_field(grid, seed=8)
        w = multiscale_field(grid, seed=9)
        per_scale = {r.N: r.bracket * abs(r.energy) for r in _difference_scales(z, w, sym, sigma, n0)}
        table = cutoff_table(grid, homogeneous=True)
        above = 0
        for N, band in zip(table.scales, table.band_energies(w)):
            if N > n0:
                e1 = difference_corrector1(z, w, sym, N, sigma)
                e2 = difference_corrector2(z, w, sym, N, sigma)
                above += e1 != 0.0 and e2 != 0.0
                want = _bar_bracket(N, sigma) * abs(band - e1 - e2)
            else:
                want = _bar_bracket(N, sigma) * abs(band)
            assert per_scale[N] == want
        assert above == 2  # N = 32, 64: a nonempty <<N band and phi_N != 0 on the grid


class TestRealFieldsOnly:
    """The plans hold half the pairs, so every corrector refuses a non-real field."""

    ENTRY_POINTS = {
        "corrector_term": lambda bad, u, sym: corrector_term(bad, sym, 32.0, 0.3),
        "corrector_rate_u": lambda bad, u, sym: corrector_rate(bad, u, sym, 32.0, 0.3),
        "corrector_rate_dudt": lambda bad, u, sym: corrector_rate(u, bad, sym, 32.0, 0.3),
        "difference_corrector1_z": lambda bad, u, sym: difference_corrector1(bad, u, sym, 32.0, -0.2),
        "difference_corrector1_w": lambda bad, u, sym: difference_corrector1(u, bad, sym, 32.0, -0.2),
        "difference_corrector2_z": lambda bad, u, sym: difference_corrector2(bad, u, sym, 32.0, -0.2),
        "difference_corrector2_w": lambda bad, u, sym: difference_corrector2(u, bad, sym, 32.0, -0.2),
        "corrector_term_rotated": lambda bad, u, sym: corrector_term_rotated(bad, sym, 32.0, 0.3, 0.1),
        "modified_energy": lambda bad, u, sym: modified_energy(bad, sym, 0.3, 8.0),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_non_real_field_refused(self, grid128, entry):
        u = multiscale_field(grid128, seed=1)
        c = u.coeffs.copy()
        c[grid128.index_of(3)] += 0.1  # breaks c_{-3} = conj(c_3)
        with pytest.raises(ConfigurationError, match="real"):
            self.ENTRY_POINTS[entry](Field(grid128, c), u, pure_power(1.0))


class TestSameGridOnly:
    """A plan built on one field's grid indexes the other field too, so every
    two-field entry point refuses fields on different grids, in either slot,
    whether or not a corrector runs."""

    ENTRY_POINTS = {
        "corrector_rate": lambda a, b, sym: corrector_rate(a, b, sym, 32.0, 0.3),
        "difference_corrector1": lambda a, b, sym: difference_corrector1(a, b, sym, 32.0, -0.2),
        "difference_corrector2": lambda a, b, sym: difference_corrector2(a, b, sym, 32.0, -0.2),
        "difference_coercivity_check": lambda a, b, sym: difference_coercivity_check(a, b, sym, -0.2, 8.0),
        # N0 = 1e6 is above every scale: the difference energy with no corrector
        "difference_energy_no_corrector":
            lambda a, b, sym: difference_coercivity_check(a, b, sym, -0.2, 1e6),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("other", [SpectralGrid(256), SpectralGrid(128, 17.3)], ids=["n", "length"])
    def test_mismatched_grids_refused(self, grid128, entry, other):
        # z at n = 512 against w at n = 256 returned 3.2e-6 from difference_corrector1,
        # and difference_coercivity_check passed
        a, b = multiscale_field(grid128, seed=1), multiscale_field(other, seed=2)
        for first, second in ((a, b), (b, a)):
            with pytest.raises(ConfigurationError, match="different grids"):
                self.ENTRY_POINTS[entry](first, second, pure_power(1.0))


class TestChainRule:
    def test_linear_rate_matches_product_rule(self, grid128):
        # the Omega_2 cancellation: product rule with the linear RHS equals
        # the direct weight * Omega_2 sum at machine precision
        sym = pure_power(1.0)
        u = multiscale_field(grid128, seed=7)
        N, s = 32.0, 0.3
        lin_rhs = full_rhs(u, sym, nonlinear=False)
        via_product = corrector_rate(u, lin_rhs, sym, N, s)
        via_algebra = _linear_flow_rate(E1, (u,), sym, N, s)
        assert via_product == pytest.approx(via_algebra, abs=1e-12 * max(1.0, abs(via_algebra)))

    def test_fd_rate_is_second_order(self):
        # all differences centered at one base time so the error constant is
        # fixed; states integrated with a much finer dt than the FD step
        grid = SpectralGrid(128)
        sym = pure_power(1.0)
        u0 = multiscale_field(grid, seed=8, target=0.8)
        N, s = 32.0, 0.3
        t_star = 4e-3
        fine = 1e-4

        def state_at(t):
            cfg = SolverConfig(dt=fine, t_final=t, record_every=10**9)
            return final_state(u0, sym, cfg)

        base = state_at(t_star)
        rhs = full_rhs(base, sym)
        exact = corrector_rate(base, rhs, sym, N, s)
        errs = []
        for delta in (2e-3, 1e-3):
            em = corrector_term(state_at(t_star - delta), sym, N, s)
            ep = corrector_term(state_at(t_star + delta), sym, N, s)
            errs.append(abs((ep - em) / (2 * delta) - exact))
        rate = np.log2(errs[0] / errs[1])
        assert 1.5 <= rate <= 2.5


def _linear_flow_rate(rec, fields, sym, N: float, s: float) -> float:
    """The linear-flow part of d/dt of a record: weight * Omega_2 in the plan's pairing, -Im.
    Omega_2 is odd, so the half sum carries the full imaginary part."""
    plan = corrector_plan(fields[0].grid, sym, N)
    om2 = _omega2(fields[0].grid, sym, plan.i1, plan.i2, -plan.i3)
    a, b, c = (fields[i].coeffs for i in rec.slots)
    return rec.const(N, s) * -float(plan.pairing(getattr(plan, rec.weight) * om2, a, b, c).imag)


class TestRecordRates:
    """The rates each corrector record derives: E1 on (u,), E~1 and E~2 on (z, w)."""

    @pytest.mark.parametrize("length", [2 * np.pi, 17.3], ids=["2pi", "17.3"])
    @pytest.mark.parametrize("sym", [pure_power(0.9), whitham(), ilw()], ids=["power", "whitham", "ilw"])
    @pytest.mark.parametrize("rec", [E1, TILDE_E1, TILDE_E2], ids=["E1", "E~1", "E~2"])
    def test_linear_rate_matches_product_rule(self, rec, sym, length):
        # the Omega_2 cancellation for every record: the product rule with the
        # linear RHS in each slot equals weight * Omega_2, -Im
        grid = SpectralGrid(128, length)
        fields = tuple(multiscale_field(grid, seed=seed) for seed in (7, 8)[: 1 + max(rec.slots)])
        rates = tuple(full_rhs(f, sym, nonlinear=False) for f in fields)
        N, s = 32.0, 0.3
        via_algebra = _linear_flow_rate(rec, fields, sym, N, s)
        assert via_algebra != 0.0
        assert rec._rate(fields, rates, sym, N, s) == pytest.approx(via_algebra, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rec, value", [(TILDE_E1, difference_corrector1),
                                            (TILDE_E2, difference_corrector2)], ids=["E~1", "E~2"])
    def test_difference_fd_rate_is_second_order(self, rec, value):
        # as TestChainRule::test_fd_rate_is_second_order, for z = u + v and
        # w = u - v of two solutions, whose rates are F(u) +- F(v)
        grid = SpectralGrid(128)
        sym = pure_power(1.0)
        u0 = multiscale_field(grid, seed=8, target=0.8)
        v0 = multiscale_field(grid, seed=9, target=0.8)
        N, sigma = 32.0, -0.2
        t_star = 4e-3
        fine = 1e-4

        def z_and_w(u, v):
            return Field(grid, u.coeffs + v.coeffs), Field(grid, u.coeffs - v.coeffs)

        def states_at(t):
            cfg = SolverConfig(dt=fine, t_final=t, record_every=10**9)
            return final_state(u0, sym, cfg), final_state(v0, sym, cfg)

        u, v = states_at(t_star)
        exact = rec._rate(z_and_w(u, v), z_and_w(full_rhs(u, sym), full_rhs(v, sym)), sym, N, sigma)
        errs = []
        for delta in (2e-3, 1e-3):
            em = value(*z_and_w(*states_at(t_star - delta)), sym, N, sigma)
            ep = value(*z_and_w(*states_at(t_star + delta)), sym, N, sigma)
            errs.append(abs((ep - em) / (2 * delta) - exact))
        rate = np.log2(errs[0] / errs[1])
        assert 1.5 <= rate <= 2.5


class TestCoercivity:
    def test_single_mode_trivial_pass(self, grid64):
        u = field_from_coeffs(grid64, {8: 0.5, -8: 0.5})
        res = coercivity_check(u, pure_power(1.0), 0.3, 4.0)
        assert res.passed and res.doublings == 0
        assert res.lhs == 0.0

    def test_random_unit_fields_pass_from_64(self):
        grid = SpectralGrid(256)
        sym = pure_power(1.0)
        for seed in range(3):
            u = multiscale_field(grid, seed=seed, target=1.0)
            res = coercivity_check(u, sym, 0.3, 64.0)
            assert res.passed and res.doublings <= 10

    def test_amplitude_sweep_monotone_trend(self):
        grid = SpectralGrid(256)
        sym = pure_power(1.0)
        passing = []
        for amp in (1.0, 10.0):
            u = multiscale_field(grid, seed=3, target=amp)
            res = coercivity_check(u, sym, 0.3, 2.0)
            assert res.passed
            passing.append(res.passing_n0)
        assert passing[1] >= passing[0]

    def test_history_matches_direct_recomputation(self, grid128):
        sym, s = pure_power(1.0), 0.3
        u = multiscale_field(grid128, seed=5, target=100.0)
        res = coercivity_check(u, sym, s, 2.0)
        assert len(res.history) >= 3
        table = cutoff_table(grid128, homogeneous=False)
        for n0, lhs, rhs in res.history:
            bands = [((1.0 + N * N) ** s, N, e)
                     for N, e in zip(table.scales, table.band_energies(u))]
            plain = sum(br * e for br, _, e in bands)
            tail = sum(2.0 * br * e for br, N, e in bands if N > n0)
            es = modified_energy(u, sym, s, n0).modified
            assert (lhs, rhs) == (abs(es - plain), tail / 8.0)

    def test_s_precondition(self, grid64):
        u = random_real_field(grid64)
        with pytest.raises(ConfigurationError):
            coercivity_check(u, pure_power(1.0), 0.2, 64.0)  # s <= 1/4


class TestSigmaWindow:
    def test_window_values(self):
        lo, hi = sigma_window(1.0, 0.3)
        assert lo == pytest.approx(-0.25) and hi == pytest.approx(-0.2)

    def test_acceptance_point_admissible(self):
        check_sigma(1.0, 0.3, -0.2)  # closed upper end

    def test_below_window_rejected(self):
        with pytest.raises(ConfigurationError, match="window"):
            check_sigma(1.0, 0.3, -0.3)

    def test_interior_edge_ok(self):
        check_sigma(1.0, 0.3, -0.25 + 0.01)


class TestDifferenceEnergy:
    def test_disjoint_bands_vanish(self, grid128):
        sym = pure_power(1.0)
        z = field_from_coeffs(grid128, {40: 0.5, -40: 0.5})   # high band
        w = field_from_coeffs(grid128, {1: 0.5, -1: 0.5})     # low band
        # E~1_N needs z in the <<N band AND w in the ~N band twice; for any N
        # covering w, z_{<<N} = 0
        for N in (16.0, 32.0):
            c1 = difference_corrector1(z, w, sym, N, -0.2)
            assert c1 == 0.0
        # E~2_N needs z in the ~N band and w in both << and ~ bands: w has a
        # single low mode so the ~N factor misses it for N near z's band
        c2 = difference_corrector2(z, w, sym, 32.0, -0.2)
        assert c2 == 0.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_corrector1_matches_slow_oracle(self, seed):
        grid = SpectralGrid(128)
        sym = pure_power(1.0)
        z = multiscale_field(grid, seed=seed, target=1.0)
        w = multiscale_field(grid, seed=seed + 70, target=0.5)
        nonzero = 0
        for N in (32.0, 64.0):
            fast = difference_corrector1(z, w, sym, N, -0.2)
            slow = slow_difference_corrector1(z, w, sym, N, -0.2)
            nonzero += slow != 0.0
            assert fast == pytest.approx(slow, abs=1e-10 * max(1.0, abs(slow)))
        assert nonzero

    @pytest.mark.parametrize("seed", [0, 1])
    def test_corrector2_matches_slow_oracle(self, seed):
        grid = SpectralGrid(128)
        sym = pure_power(1.0)
        z = multiscale_field(grid, seed=seed, target=1.0)
        w = multiscale_field(grid, seed=seed + 50, target=0.5)
        nonzero = 0
        for N in (32.0, 64.0):
            fast = difference_corrector2(z, w, sym, N, -0.2)
            slow = slow_difference_corrector2(z, w, sym, N, -0.2)
            nonzero += slow != 0.0
            assert fast == pytest.approx(slow, abs=1e-10 * max(1.0, abs(slow)))
        assert nonzero

class TestDifferenceCoercivity:
    def test_trivial_pass_zero_z(self, grid64):
        w = field_from_coeffs(grid64, {4: 0.5, -4: 0.5})
        res = difference_coercivity_check(zero_field(grid64), w, pure_power(1.0), -0.2, 4.0)
        assert res.passed and res.lhs == 0.0

    def test_random_pass_from_64(self):
        grid = SpectralGrid(256)
        sym = pure_power(1.0)
        for seed in range(3):
            z = multiscale_field(grid, seed=seed, target=1.0)
            w = multiscale_field(grid, seed=seed + 100, target=1.0)
            res = difference_coercivity_check(z, w, sym, -0.2, 64.0)
            assert res.passed and res.doublings <= 10

    def test_history_matches_direct_recomputation(self, grid128):
        sym, sigma = pure_power(1.0), -0.2
        z = multiscale_field(grid128, seed=5, target=100.0)
        w = multiscale_field(grid128, seed=55, target=100.0)
        res = difference_coercivity_check(z, w, sym, sigma, 2.0)
        assert len(res.history) >= 3
        table = cutoff_table(grid128, homogeneous=True)
        bands = list(zip(table.scales, table.band_energies(w)))
        for n0, lhs, rhs in res.history:
            es = plain = tail = 0.0
            for N, e in bands:
                br, energy = _bar_bracket(N, sigma), e
                if N > n0:
                    energy = e - difference_corrector1(z, w, sym, N, sigma) \
                        - difference_corrector2(z, w, sym, N, sigma)
                    tail += 2.0 * br * e
                es += br * abs(energy)
                plain += br * e
            assert (lhs, rhs) == (abs(es - plain), tail / 8.0)

    def test_sigma_near_lower_edge(self):
        grid = SpectralGrid(128)
        sym = pure_power(1.0)
        z = multiscale_field(grid, seed=4)
        w = multiscale_field(grid, seed=5, target=0.5)
        res = difference_coercivity_check(z, w, sym, -0.25 + 0.01, 64.0)
        assert res.passed
