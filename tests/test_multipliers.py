import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import commutator_chi, field_from_coeffs, random_real_field, symbol_product
from dblab import ConfigurationError, Field, SpectralGrid, pure_power
from dblab.dyadic import lessless_multiplier, phi_n
from dblab.multipliers import (
    MultiplierSymbol,
    check_marcinkiewicz,
    chi1_kernel,
    symbol_chi1,
    symbol_chi1_over_omega2,
    tensor_cutoff_symbol,
)
from dblab.spectral import transform
from dblab.errors import DomainError, EvaluationError
from dblab.resonance import omega2
from dblab import symbols
from dblab.symbols import FD_REL_STEP, FD_STENCILS, fd_partials
from oracles import (
    convolution_product,
    direct_pi2,
    fd_partials_per_offset,
    slow_box_points,
    slow_chi1,
    slow_chi_commutator,
    slow_fd_partial,
)


def constant_symbol(value):
    return MultiplierSymbol(2, lambda x1, x2: np.full(np.broadcast(x1, x2).shape, complex(value)),
                            "const")


def banded(f, weight):
    """f with its coefficients weighted by `weight` on the grid frequencies."""
    return Field(f.grid, weight * f.coeffs)


class TestApplyPi2:
    """The direct-sum Pi^2 of `oracles.direct_pi2`, the reference of criterion 02 and
    of the commutator identity below."""

    def test_identity_symbol_is_product(self, grid64):
        f = transform(grid64, np.cos(grid64.nodes))
        out = Field(grid64, direct_pi2(constant_symbol(1.0), f, f))
        expect = 0.5 * (1.0 + np.cos(2.0 * grid64.nodes))
        assert np.max(np.abs(out.values() - expect)) < 1e-13

    def test_derivative_on_first_slot(self, grid64):
        f = transform(grid64, np.cos(grid64.nodes))
        g = transform(grid64, np.cos(8.0 * grid64.nodes))
        chi = MultiplierSymbol(2, lambda x1, x2: (1j * x1) * np.ones_like(x2), "i xi1")
        out = Field(grid64, direct_pi2(chi, f, g))
        expect = -np.sin(grid64.nodes) * np.cos(8.0 * grid64.nodes)
        assert np.max(np.abs(out.values() - expect)) < 1e-13

    def test_projector_tensor_matches_banded_product(self, grid128):
        f = random_real_field(grid128, seed=1, band=40)
        g = random_real_field(grid128, seed=2, band=40)
        chi = tensor_cutoff_symbol((2.0, 64.0))
        out = direct_pi2(chi, f, g)
        xi = grid128.frequencies
        oracle = convolution_product(banded(f, phi_n(xi, 2.0)), banded(g, phi_n(xi, 64.0)))
        assert np.max(np.abs(out - oracle)) < 1e-12


class TestCommutatorSymbol:
    def test_kernel_matches_simpson_oracle(self):
        N = 64.0
        pts = [(-3.5, 40.0), (2.0, -70.0), (4.0, 100.0), (0.5, 33.0)]
        for x1, x2 in pts:
            fast = commutator_chi(np.array([x1]), np.array([x2]), N)[0]
            slow = slow_chi_commutator(x1, x2, N)
            assert abs(fast - slow) < 1e-10

    @pytest.mark.parametrize("frac", [0.0, 1.0 / 16.0, -1.0 / 16.0, 1e-6, -1e-6])
    def test_closed_form_conditioning(self, frac):
        # The closed form (N/xi1)[phi((xi1+xi2)/N) - phi(xi2/N)] loses about
        # eps N/|xi1| to cancellation (measured <= 1.1); at xi1 = 0 phi' is
        # evaluated directly (measured <= 3 eps).  The Simpson oracle is run
        # with 3201 nodes so its own error stays below that (with the default
        # 801 it reaches 55 eps N/|xi1| at |xi1| = N/16).
        eps = np.finfo(float).eps
        for N in (64.0, 1024.0):
            x1 = frac * N
            cond = max(1.0, N / abs(x1)) if x1 else 1.0
            for y in (0.3, 0.55, 0.8, 1.1, 1.5, 1.9, -0.45, -0.7, -1.3, -2.2):
                x2 = y * N
                fast = commutator_chi(x1, x2, N)
                slow = slow_chi_commutator(x1, x2, N, n_simpson=3201)
                assert abs(fast - slow) <= 8.0 * eps * cond * max(1.0, abs(slow))

    def test_commutator_identity_residual(self):
        # P_N(u_<<N u) = u_<<N u_N + N^{-1} Pi2_chi(dx u_<<N, u), residual =
        # rounding of the closed-form chi only
        grid = SpectralGrid(512)
        N = 64.0
        xi = grid.frequencies
        rng = np.random.default_rng(0)
        u = transform(grid, rng.standard_normal(grid.n))
        c = u.coeffs.copy()
        c[0] = 0.0
        c[grid.nyquist_index] = 0.0
        u = Field(grid, c)
        ull = banded(u, lessless_multiplier(xi, N))
        lhs = phi_n(xi, N) * convolution_product(ull, u)
        t1 = convolution_product(ull, banded(u, phi_n(xi, N)))
        t2 = direct_pi2(lambda x1, x2: commutator_chi(x1, x2, N), banded(ull, 1j * xi), u)
        resid = lhs - t1 - t2 / N
        rel = np.linalg.norm(resid) / np.linalg.norm(u.coeffs) ** 2
        assert rel < 1e-8

    def test_no_low_content_vanishes(self):
        grid = SpectralGrid(256)
        N = 64.0
        xi = grid.frequencies
        u = field_from_coeffs(grid, {60: 0.5, -60: 0.5, 100: 0.3, -100: 0.3})
        ull = banded(u, lessless_multiplier(xi, N))
        assert np.all(ull.coeffs == 0)
        t2 = direct_pi2(lambda x1, x2: commutator_chi(x1, x2, N), banded(ull, 1j * xi), u)
        assert np.all(t2 == 0)
        lhs = phi_n(xi, N) * convolution_product(ull, u)
        assert np.all(lhs == 0)

    def test_band_empty_all_zero(self):
        grid = SpectralGrid(256)
        N = 64.0
        xi = grid.frequencies
        u = field_from_coeffs(grid, {1: 0.5, -1: 0.5})
        lhs = phi_n(xi, N) * convolution_product(banded(u, lessless_multiplier(xi, N)), u)
        assert np.max(np.abs(lhs)) < 1e-15


class TestChi1:
    def test_plateau_value(self):
        N, s = 64.0, 0.3
        chi1 = symbol_chi1(N, s)
        val = chi1(np.array([0.0]), np.array([N]))[0]
        expect = (np.sqrt(1.0 + N * N) / N) ** (2 * s)
        assert val == pytest.approx(expect, rel=1e-12)

    def test_outside_output_band_vanishes(self):
        chi1 = symbol_chi1(64.0, 0.0)
        assert chi1(np.array([1.0]), np.array([200.0]))[0] == 0.0
        assert chi1(np.array([2.0]), np.array([10.0]))[0] == 0.0

    def test_matches_slow_oracle(self):
        N, s = 32.0, 0.25
        chi1 = symbol_chi1(N, s)
        for x1, x2 in [(1.5, 30.0), (-1.0, 40.0), (0.5, -33.0), (1.9, 50.0)]:
            fast = chi1(np.array([x1]), np.array([x2]))[0]
            assert abs(fast - slow_chi1(x1, x2, N, s)) < 1e-10

    def test_real_valued(self):
        chi1 = symbol_chi1(64.0, 0.3)
        rng = np.random.default_rng(2)
        x1 = rng.uniform(-4, 4, 100)
        x2 = rng.uniform(30, 130, 100) * rng.choice([-1, 1], 100)
        vals = chi1(x1, x2)
        assert np.max(np.abs(vals.imag)) < 1e-14

    def test_marcinkiewicz_window_behavior(self):
        # The double-bump factor phi_N(xi2) phi_N(xi1+xi2) drives the
        # normalized (0,2)/(0,3) derivatives past the fixed 1e3 window
        # (see README); per-variable structure is still tame in the xi1
        # direction.
        chi1 = symbol_chi1(64.0, 0.3)
        rep = check_marcinkiewicz(chi1, [(1.0, 64.0)], 3)
        assert not rep.passes
        assert rep.table[(0, 2)] > 1e3
        assert rep.table[(0, 3)] > 1e4
        for beta in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]:
            assert rep.table[beta] <= 1e3


class TestChi1OverOmega2:
    def test_finite_on_band_and_order_one(self):
        sym = pure_power(1.0)
        N = 64.0
        ratio = symbol_chi1_over_omega2(sym, N, 0.0)
        v = ratio(np.array([1.0]), np.array([N]))[0]
        assert np.isfinite(v)
        assert 1e-3 < abs(v) * 1.0 * N**sym.alpha < 1e3

    def test_domain_error_outside_band(self):
        ratio = symbol_chi1_over_omega2(pure_power(1.0), 64.0, 0.0)
        with pytest.raises(DomainError):
            ratio(np.array([30.0]), np.array([64.0]))

    def test_resonant_point_refused(self):
        # xi1 = 0 is a resonant point, which the corrector plans refuse too
        ratio = symbol_chi1_over_omega2(pure_power(1.0), 64.0, 0.0)
        with pytest.raises(EvaluationError, match=r"N=64.*\(0\.0, 64\.0\)"):
            ratio(np.array([1.0, 0.0]), np.array([64.0, 64.0]))

    def test_cancellation_off_guard(self):
        # (chi1/Omega_2) * Omega_2 == chi1 at machine precision off the guard set
        sym = pure_power(0.5)
        N, s = 64.0, 0.3
        rng = np.random.default_rng(3)
        x1 = rng.uniform(0.1, 4.0, 200) * rng.choice([-1, 1], 200)
        x2 = rng.uniform(N / 4, 4 * N, 200) * rng.choice([-1, 1], 200)
        vals = symbol_chi1_over_omega2(sym, N, s)(x1, x2)
        target = chi1_kernel(x1, x2, N, s)
        err = np.abs(vals * omega2(sym, x1, x2) - target)
        assert np.max(err) <= 1e-12 * max(1.0, np.max(np.abs(target)))

    def test_pure_resonance_quotient_passes(self):
        # the boundedness-lemma symbol N1 N2^alpha / Omega_2 on |xi1| ~ N1,
        # |xi2| ~ N2 with N1 << N2: all normalized derivatives O(1)
        for alpha in (0.5, 1.0):
            sym = pure_power(alpha)
            for N1, N2 in ((1.0, 64.0), (2.0, 128.0)):
                quotient = MultiplierSymbol(
                    2,
                    lambda x1, x2, _s=sym, _n=N1: _n * np.abs(x2) ** _s.alpha / omega2(_s, x1, x2),
                    "resonance_quotient",
                )
                rep = check_marcinkiewicz(quotient, [(N1, N2)], 3)
                assert rep.passes, rep.table
                assert max(rep.table.values()) < 50.0

    def test_normalized_corrector_symbol_beta2(self):
        # chi1-dressed quotient at alpha=1 on the declared (1, 64) band:
        # passes for |beta| <= 2; |beta| = 3 exceeds the fixed window
        # (double-bump effect, see README)
        sym = pure_power(1.0)
        N = 64.0
        ratio = symbol_chi1_over_omega2(sym, N, 0.3)
        normalized = MultiplierSymbol(
            2,
            lambda x1, x2: 1.0 * N**sym.alpha * ratio.evaluate(x1, x2),
            "normalized",
            support=ratio.support,
        )
        rep2 = check_marcinkiewicz(normalized, [(1.0, N)], 2)
        assert rep2.passes, rep2.table
        rep3 = check_marcinkiewicz(normalized, [(1.0, N)], 3)
        assert not rep3.passes and rep3.table[(0, 3)] > 1e4


class TestMarcinkiewicz:
    def test_tensor_cutoff_passes(self):
        rep = check_marcinkiewicz(tensor_cutoff_symbol((2.0, 64.0)), [(2.0, 64.0)], 3)
        assert rep.passes

    def test_unnormalized_linear_symbol_fails(self):
        chi = MultiplierSymbol(2, lambda x1, x2: (x1 + 0j) * np.ones_like(x2), "xi1")
        rep = check_marcinkiewicz(chi, [(2048.0, 4096.0)], 1)
        assert not rep.passes  # |chi| ~ N1 >= 1e3 already at beta = 0

    def test_product_closure_smooth_family(self):
        rng = np.random.default_rng(7)
        from dblab.cli import _random_smooth_symbol

        boxes = [(4.0, 32.0), (8.0, 64.0)]
        for _ in range(5):
            a = _random_smooth_symbol(rng)
            b = _random_smooth_symbol(rng)
            assert check_marcinkiewicz(a, boxes, 3).passes
            assert check_marcinkiewicz(b, boxes, 3).passes
            assert check_marcinkiewicz(symbol_product(a, b), boxes, 3).passes

    def test_fd_partial_on_polynomial(self):
        # the stencils are exact on x1^3 x2^2 up to roundoff
        fn = lambda x1, x2: (x1**3) * (x2**2) + 0j
        pts = (np.array([2.0, -1.5]), np.array([3.0, 4.0]))
        d = fd_partials(fn, [(2, 1)], pts)[(2, 1)]
        expect = 6.0 * pts[0] * 2.0 * pts[1]
        assert np.max(np.abs(d - expect)) < 1e-6 * np.max(np.abs(expect))

    @pytest.mark.parametrize(
        "check",
        [
            lambda chi: check_marcinkiewicz(chi, [(2.0, 16.0)], -1),
            lambda chi: check_marcinkiewicz(chi, [(2.0, 16.0)], 0),
            lambda chi: check_marcinkiewicz(chi, [(2.0, 16.0)], 4),
            lambda chi: check_marcinkiewicz(chi, [], 2),
            lambda chi: check_marcinkiewicz(chi, [(2.0, 16.0)], 3).up_to(5),
        ],
        ids=["beta_max-1", "beta_max-0", "beta_max-4", "no-box", "up_to-above-order"],
    )
    def test_uncheckable_input_refused(self, check):
        # an order without a stencil, no box, or an order the table does not
        # hold: a report of any of them could only pass vacuously or mislabel
        with pytest.raises(ConfigurationError):
            check(tensor_cutoff_symbol((2.0, 16.0)))

    def test_report_json(self):
        rep = check_marcinkiewicz(tensor_cutoff_symbol((2.0, 16.0)), [(2.0, 16.0)], 2)
        import json

        d = json.loads(json.dumps(rep.to_dict()))
        assert d["passes"] and d["window"] == 1e3


def _elementwise_cases():
    N = 64.0
    return {
        "tensor": tensor_cutoff_symbol((2.0, 64.0)),
        "chi_commutator": MultiplierSymbol(2, lambda x1, x2: commutator_chi(x1, x2, N)),
        "chi1": symbol_chi1(N, 0.3),
        "chi1_over_omega2": symbol_chi1_over_omega2(pure_power(1.0), N, 0.3),
    }


@pytest.mark.parametrize("name", list(_elementwise_cases()))
def test_symbols_are_elementwise(name):
    # `fd_partials` evaluates blocks of lattice offsets in one call, so a
    # symbol's value at a point must not depend on the rest of the array
    chi = _elementwise_cases()[name]
    rng = np.random.default_rng(11)
    n = 1001
    lo = rng.choice([-1.0, 1.0], n) * rng.uniform(0.25, 4.0, n)  # in the |xi1| <= N/16 band
    hi = rng.choice([-1.0, 1.0], n) * rng.uniform(16.0, 256.0, n)  # in the ~N band
    if name != "chi1_over_omega2":  # which refuses xi1 = 0, a resonant point
        lo[:7] = 0.0  # the commutator's xi1 = 0 branch
    whole = np.asarray(chi.evaluate(lo, hi), dtype=complex)
    halves = [np.asarray(chi.evaluate(lo[s], hi[s]), dtype=complex)
              for s in (slice(0, 389), slice(389, None))]
    assert whole.shape == (n,)
    assert whole.tobytes() == np.concatenate(halves).tobytes()


def _oracle_cases():
    sym = pure_power(1.0)
    N = 64.0
    ratio = symbol_chi1_over_omega2(sym, N, 0.3)
    rng = np.random.default_rng(7)
    from dblab.cli import _random_smooth_symbol

    smooth = symbol_product(_random_smooth_symbol(rng), _random_smooth_symbol(rng))
    # K bounds the absolute rounding error of one evaluation by K eps max|chi|
    # (see test_matches_slow_oracle)
    return {
        "tensor": (tensor_cutoff_symbol((2.0, 64.0)), [(2.0, 64.0)], 4.0),
        "resonance_quotient": (
            MultiplierSymbol(2, lambda x1, x2: 2.0 * np.abs(x2) / omega2(sym, x1, x2), "quot"),
            [(2.0, 64.0)],
            8.0 * 64.0 / 2.0,
        ),
        "dressed": (
            MultiplierSymbol(
                2, lambda x1, x2: N * ratio.evaluate(x1, x2), "dressed", support=ratio.support
            ),
            [(1.0, N)],
            8.0 * N,
        ),
        "chi1": (symbol_chi1(N, 0.3), [(1.0, N)], 8.0 * N),
        "smooth_product": (smooth, [(4.0, 32.0), (8.0, 64.0)], 4.0),
    }


class TestMarcinkiewiczOracle:
    @pytest.mark.parametrize("name", list(_oracle_cases()))
    def test_matches_slow_oracle(self, name):
        # The slow oracle composes 4th-order first-derivative stencils (one
        # evaluation per stencil path); the checker reads one lattice per
        # point.  Both are 4th order in r = 1e-3, so per point and beta the
        # normalized difference is at most
        # * truncation: each scheme errs by c r^4 times a normalized
        #   derivative of order |beta| + 4; the lattice coefficients (1/30,
        #   1/90, 7/120 for orders 1..3) are at most the composed ones (1/30,
        #   2/30, 3/30), so the difference is <= 2 |T_oracle(r)|, and
        #   T_oracle(r) ~ (oracle(2r) - oracle(r)) / 15 (Richardson).  We
        #   allow 3/15 of that difference for the higher-order terms.
        # * roundoff: one evaluation errs by delta <= K eps max|chi|, which
        #   the stencils amplify by sum|w| / r^|beta| (normalized), for each
        #   scheme.  K = 4 for products of exp/log bumps; the resonance
        #   quotient cancels omega(xi2) ~ xi2^2 down to Omega_2 ~ xi1 xi2 and
        #   the closed commutator divides by xi1 / N, so there K is twice the
        #   box's max|xi2| / min|xi1| = 8 N2 / N1.
        # An entry is a max over the box, so it moves by at most the largest
        # pointwise bound.  0_0 reads the same points: bit for bit.
        chi, boxes, K = _oracle_cases()[name]
        r, eps = 1e-3, np.finfo(float).eps
        sum_w = {0: 1.0, 1: 18.0 / 12.0, 2: 64.0 / 12.0, 3: 44.0 / 8.0}
        table = check_marcinkiewicz(chi, boxes, 3).table
        for beta, got in table.items():
            want, trunc, amax = 0.0, 0.0, 0.0
            for box in boxes:
                pts = slow_box_points(chi, box)
                norm = np.abs(pts[0]) ** beta[0] * np.abs(pts[1]) ** beta[1]
                d = slow_fd_partial(chi.evaluate, beta, pts, r)
                d2 = slow_fd_partial(chi.evaluate, beta, pts, 2 * r)
                want = max(want, float(np.max(np.abs(d) * norm)))
                trunc = max(trunc, float(np.max(np.abs(d - d2) * norm)) / 5.0)
                amax = max(amax, float(np.max(np.abs(chi.evaluate(*pts)))))
            if beta == (0, 0):
                assert got == want
                continue
            amplify = sum_w[beta[0]] * sum_w[beta[1]] + 1.5 ** sum(beta)
            roundoff = amplify * K * eps * amax / r ** sum(beta)
            assert abs(got - want) <= trunc + roundoff, (beta, got, want, trunc, roundoff)

    @pytest.mark.parametrize("beta_max,offsets", [(1, 9), (2, 25), (3, 29)])
    def test_one_evaluation_per_offset_per_box(self, beta_max, offsets):
        # each box reads its 9 / 25 / 29 lattice offsets of 1024 points once,
        # in as few calls as the block allows
        chi = tensor_cutoff_symbol((2.0, 64.0))
        seen = []

        def counted(x1, x2):
            assert x1.ndim == 1 and x1.shape == x2.shape
            seen.append(np.stack([x1, x2], axis=1))
            return chi.evaluate(x1, x2)

        for box in [(2.0, 64.0), (4.0, 32.0)]:
            seen.clear()
            check_marcinkiewicz(MultiplierSymbol(2, counted, "counted"), [box], beta_max)
            assert len(seen) == math.ceil(offsets * 1024 / symbols._LATTICE_BLOCK)
            lattice = np.concatenate(seen)
            assert lattice.shape == (offsets * 1024, 2)
            assert len(np.unique(lattice, axis=0)) == len(lattice)

    @pytest.mark.parametrize(
        "name,block",
        [(n, None) for n in ("tensor", "resonance_quotient", "chi1", "dressed", "tensor3")]
        + [(n, b) for n in ("tensor", "resonance_quotient", "chi1", "dressed") for b in (1, 10**6)],
    )
    def test_blocked_partials_match_per_offset_bit_for_bit(self, monkeypatch, name, block):
        if block is not None:
            monkeypatch.setattr(symbols, "_LATTICE_BLOCK", block)
        if name == "tensor3":
            chi, box, beta_max = tensor_cutoff_symbol((2.0, 16.0, 64.0)), (2.0, 16.0, 64.0), 2
        else:
            # on (2, 64) the dressed symbol's support keeps 960 of 1024 points
            chi, boxes, _ = _oracle_cases()[name]
            box, beta_max = (2.0, 64.0) if name == "dressed" else boxes[0], 3
        pts = slow_box_points(chi, box)
        if name == "dressed":
            assert len(pts[0]) == 960 and 4096 % 960 != 0
        orders = itertools.product(range(beta_max + 1), repeat=chi.arity)
        betas = [b for b in orders if sum(b) <= beta_max]
        sizes = []

        def sized(*xis):
            sizes.append(xis[0].size)
            return chi.evaluate(*xis)

        got = fd_partials(sized, betas, pts)
        want = fd_partials_per_offset(chi.evaluate, betas, pts)
        # at most one block per call, and never less than one whole offset
        assert max(sizes) <= max(block or 4096, len(pts[0]))
        assert all(size % len(pts[0]) == 0 for size in sizes)
        assert list(got) == betas
        for beta in betas:
            assert got[beta].tobytes() == want[beta].tobytes(), beta

    def test_non_finite_names_the_per_offset_first_point(self):
        # NaN at two lattice points of different offsets and blocks: the error
        # names the one the per-offset loop meets first
        chi = tensor_cutoff_symbol((2.0, 64.0))
        pts = slow_box_points(chi, (2.0, 64.0))
        h = [1e-3 * np.abs(p) for p in pts]
        bad = [((1, 1), 3), ((0, -1), 1000)]
        marks = [(pts[0][k] + j1 * h[0][k], pts[1][k] + j2 * h[1][k]) for (j1, j2), k in bad]

        def ev(x1, x2):
            vals = chi.evaluate(x1, x2)
            for m1, m2 in marks:
                vals[(x1 == m1) & (x2 == m2)] = np.nan
            return vals

        class First(Exception):
            pass

        def first_bad(*xis):
            vals = ev(*xis)
            if not np.all(np.isfinite(vals)):
                raise First(tuple(float(x[~np.isfinite(vals)][0]) for x in xis))
            return vals

        betas = [b for b in itertools.product(range(4), repeat=2) if sum(b) <= 3]
        with pytest.raises(First) as oracle:
            fd_partials_per_offset(first_bad, betas, pts)
        at = oracle.value.args[0]
        assert at == marks[1]
        with pytest.raises(EvaluationError) as err:
            check_marcinkiewicz(MultiplierSymbol(2, ev, "one_nan"), [(2.0, 64.0)], 3)
        assert str(err.value).endswith(f"not finite at xi = {at}")

    def test_box_without_in_band_point_raises(self):
        # the (64, 64) box keeps no point with |xi1| <= N/16, so it has no
        # entry to sample, and an all-zero table must not pass
        chi = symbol_chi1_over_omega2(pure_power(1.0), 64.0, 0.3)
        with pytest.raises(DomainError, match=r"on box \(64.0, 64.0\): no sample point"):
            check_marcinkiewicz(chi, [(64.0, 64.0)], 2)

    def test_non_finite_symbol_raises(self):
        nan = MultiplierSymbol(
            2, lambda x1, x2: np.full(np.broadcast(x1, x2).shape, np.nan + 0j), "nan_symbol"
        )
        with pytest.raises(EvaluationError, match=r"nan_symbol on box \(2.0, 64.0\).*xi = "):
            check_marcinkiewicz(nan, [(2.0, 64.0)], 1)


CLOSURE_BOXES = [(4.0, 32.0), (8.0, 64.0)]
BETAS_3 = [b for b in itertools.product(range(4), repeat=2) if sum(b) <= 3]


def _closure_pairs(seed, pairs=5):
    """The (a, b) pairs that `cli._product_closure(pairs, seed, .)` draws."""
    from dblab.cli import _random_smooth_symbol

    rng = np.random.default_rng(seed)
    return [(_random_smooth_symbol(rng), _random_smooth_symbol(rng)) for _ in range(pairs)]


def _planted_factors(monkeypatch, planted):
    """Make `cli._random_smooth_symbol` return planted[k] on its k-th call (after
    drawing as usual, so the RNG order stays) and count every factor evaluation."""
    from dblab import cli

    draw, calls, drawn = cli._random_smooth_symbol, [], []

    def counted(rng):
        sym = planted.get(len(drawn), draw(rng))
        drawn.append(sym)

        def ev(x1, x2):
            calls.append(np.size(x1))
            return sym.evaluate(x1, x2)

        return MultiplierSymbol(2, ev, sym.name)

    monkeypatch.setattr(cli, "_random_smooth_symbol", counted)
    return calls, drawn


class TestStackedClosure:
    """`cli._product_closure` checks the stack (a, b, a*b) once per pair."""

    @pytest.mark.parametrize("box", CLOSURE_BOXES)
    def test_stack_partials_match_per_symbol_bit_for_bit(self, box):
        from dblab.cli import _closure_stack

        for a, b in _closure_pairs(7):
            stack = _closure_stack(a, b)
            pts = slow_box_points(stack, box)
            got = fd_partials(stack.evaluate, BETAS_3, pts)
            assert list(got) == BETAS_3
            for j, chi in enumerate((a, b, symbol_product(a, b))):
                alone = fd_partials(chi.evaluate, BETAS_3, pts)
                oracle = fd_partials_per_offset(chi.evaluate, BETAS_3, pts)
                for beta in BETAS_3:
                    assert got[beta].shape == (3, len(pts[0]))
                    assert got[beta][j].tobytes() == alone[beta].tobytes(), (j, beta)
                    assert got[beta][j].tobytes() == oracle[beta].tobytes(), (j, beta)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_stacked_table_is_the_max_of_member_tables(self, seed):
        from dblab.cli import _closure_stack

        for a, b in _closure_pairs(seed):
            got = check_marcinkiewicz(_closure_stack(a, b), CLOSURE_BOXES, 3).table
            tables = [check_marcinkiewicz(c, CLOSURE_BOXES, 3).table
                      for c in (a, b, symbol_product(a, b))]
            assert got == {beta: max(t[beta] for t in tables) for beta in BETAS_3}

    def test_non_finite_member_names_the_first_point_of_any_member(self):
        # NaN in b at the lattice point the per-offset loop meets first, in a
        # at a later one: the stack names b's point, as b's own check does
        from dblab.cli import _closure_stack

        (a, b), = _closure_pairs(3, pairs=1)
        box = CLOSURE_BOXES[0]
        pts = slow_box_points(a, box)
        h = [1e-3 * np.abs(p) for p in pts]
        marks = [(float(pts[0][k] + j1 * h[0][k]), float(pts[1][k] + j2 * h[1][k]))
                 for (j1, j2), k in [((1, 1), 3), ((0, -1), 1000)]]

        def planted(chi, mark):
            def ev(x1, x2):
                vals = chi.evaluate(x1, x2)
                vals[(x1 == mark[0]) & (x2 == mark[1])] = np.nan
                return vals

            return MultiplierSymbol(2, ev, chi.name)

        a_nan, b_nan = planted(a, marks[0]), planted(b, marks[1])
        for chi, mark in [(a_nan, marks[0]), (b_nan, marks[1]), (_closure_stack(a_nan, b_nan), marks[1])]:
            with pytest.raises(EvaluationError) as err:
                check_marcinkiewicz(chi, [box], 3)
            assert str(err.value).endswith(f"not finite at xi = {mark}")

    @pytest.mark.parametrize("seed,beta_max", [(0, 3), (7, 3), (61, 3), (12345, 3), (5, 2)])
    def test_verdict_matches_three_checks(self, seed, beta_max):
        from dblab.cli import _product_closure

        trios = ((a, b, symbol_product(a, b)) for a, b in _closure_pairs(seed))
        want = all(check_marcinkiewicz(c, CLOSURE_BOXES, beta_max).passes
                   for trio in trios for c in trio)
        assert _product_closure(5, seed, beta_max) is want

    @pytest.mark.parametrize(
        "planted",
        [{4: constant_symbol(2e3)}, {4: constant_symbol(40.0), 5: constant_symbol(40.0)}],
        ids=["factor-fails", "only-product-fails"],
    )
    def test_planted_failure_stops_at_its_pair(self, monkeypatch, planted):
        # 2e3 > 1e3 fails at beta = 0; 40 passes, but 40 * 40 fails: the
        # product member of the stack is checked too
        from dblab.cli import _product_closure

        assert not check_marcinkiewicz(constant_symbol(2e3), CLOSURE_BOXES, 3).passes
        assert check_marcinkiewicz(constant_symbol(40.0), CLOSURE_BOXES, 3).passes
        _, drawn = _planted_factors(monkeypatch, planted)
        assert _product_closure(5, 0, 3) is False
        assert len(drawn) == 6  # the third pair fails, the fourth is never drawn

    def test_each_factor_evaluated_once_per_block(self, monkeypatch):
        # per pair: 2 boxes x 8 calls (29 offsets of 1024 points, 4 offsets per
        # call) for each of a and b; checking a, b and a*b apart took 64
        from dblab.cli import _product_closure

        calls, _ = _planted_factors(monkeypatch, {})
        assert _product_closure(5, 0, 3)
        assert len(calls) == 5 * 32
        assert sum(calls) == 5 * 2 * 2 * 29 * 1024

    def test_traced_peak_is_one_pair_stack(self):
        # the per-beta sums hold 10 x 3 x 1024 float64 values per pair (~0.25 MB):
        # the closure peaks near 0.74 MB, a stack of all five pairs near 2.8 MB
        import tracemalloc

        from dblab.cli import _product_closure

        _product_closure(1, 0, 3)  # warm the stencil-read cache
        tracemalloc.start()
        try:
            _product_closure(5, 0, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6, peak


def _complex_cast(chi):
    """chi with its values cast to complex128."""
    return MultiplierSymbol(chi.arity, lambda *x: np.asarray(chi.evaluate(*x)).astype(complex),
                            chi.name, support=chi.support)


def _cast_cases():
    """(real symbol, its complex counterpart, boxes, K), where K eps max|chi| bounds
    what complex arithmetic changes per lattice value, the division by the stencil
    denominator included (see test_complex_cast_table)."""
    from dblab.cli import _closure_stack

    sym, N, s = pure_power(1.0), 64.0, 0.3
    ratio = symbol_chi1_over_omega2(sym, N, s)
    dressed = MultiplierSymbol(2, lambda x1, x2: N * ratio.evaluate(x1, x2), "dressed",
                               support=ratio.support)
    # the dressed symbol computed in complex: chi1 + 0j divided by the real Omega_2,
    # which numpy does as a product with 1 / Omega_2
    dressed_complex = MultiplierSymbol(
        2, lambda x1, x2: N * (chi1_kernel(x1, x2, N, s).astype(complex) / omega2(sym, x1, x2)),
        "dressed", support=ratio.support)
    quotient = MultiplierSymbol(2, lambda x1, x2: 2.0 * np.abs(x2) / omega2(sym, x1, x2), "quot")
    (a, b), = _closure_pairs(0, pairs=1)
    cases = {
        "tensor": (tensor_cutoff_symbol((2.0, 64.0)), [(2.0, 64.0)]),
        "resonance_quotient": (quotient, [(2.0, 64.0)]),
        "chi1": (symbol_chi1(N, s), [(1.0, N)]),
        "dressed": (dressed, [(1.0, N)]),
        "closure_stack": (_closure_stack(a, b), CLOSURE_BOXES),
    }
    cases = {k: (chi, _complex_cast(chi), boxes, 2.0) for k, (chi, boxes) in cases.items()}
    cases["dressed_complex_division"] = (dressed, dressed_complex, [(1.0, N)], 4.0)
    return cases


class TestDtypeContract:
    """The checker works in the dtype of a symbol's values, promoted to at least
    float64: every symbol that `check-multiplier` checks is real, so its check
    runs in float64; a complex symbol's runs in complex128."""

    def test_every_checked_symbol_is_float64(self, tmp_path, monkeypatch):
        from dblab import cli

        check, seen = cli.check_marcinkiewicz, []

        def recorded(chi, boxes, beta_max):
            dtypes = set()
            seen.append((chi.name, dtypes))

            def ev(*xis):
                assert all(x.dtype == np.float64 for x in xis)
                vals = chi.evaluate(*xis)
                dtypes.add(vals.dtype)
                return vals

            return check(replace(chi, evaluate=ev), boxes, beta_max)

        monkeypatch.setattr(cli, "check_marcinkiewicz", recorded)
        monkeypatch.setenv("DBL_OUTPUT_DIR", str(tmp_path))
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({
            "equation": {"type": "pure_power", "alpha": 1.0},
            "multiplier": {"n": 64.0, "s": 0.3, "n1": 2.0, "n2": 64.0, "pairs": 5, "pairs_seed": 0},
            "output": {"dir": "mult"},
        }))
        assert cli.cli_dispatch(["check-multiplier", "--config", str(cfg)]) == 0
        # tensor, resonance quotient, chi1/Omega_2 and chi1, then one stack per pair
        assert len(seen) == 4 + 5
        assert [name for name, _ in seen[:4]] == [
            "phi_tensor(2.0, 64.0)", "resonance_quotient",
            "normalized_chi1_over_omega2[N=64]", "chi1[N=64,s=0.3]"]
        assert all(dtypes == {np.dtype(np.float64)} for _, dtypes in seen), seen
        x1, x2 = np.linspace(-70.0, -1.0, 101), np.linspace(3.0, 90.0, 101)
        for pair in _closure_pairs(0):
            assert all(chi.evaluate(x1, x2).dtype == np.float64 for chi in pair)

    @pytest.mark.parametrize("values,dtype", [
        (lambda v: v, np.float64),
        (lambda v: np.rint(1e3 * v).astype(np.int64), np.float64),
        (lambda v: v.astype(np.float32), np.float64),
        (lambda v: v.astype(np.complex64), np.complex128),
        (lambda v: constant_symbol(2.0).evaluate(v, v), np.complex128),
    ], ids=["float64", "int64", "float32", "complex64", "constant_symbol"])
    def test_fd_partials_keep_the_promoted_dtype(self, values, dtype):
        # promoted before any arithmetic: the partials are bit for bit those of
        # the values cast to the promoted dtype by the symbol itself
        tensor = tensor_cutoff_symbol((2.0, 64.0))
        pts = slow_box_points(tensor, (2.0, 64.0))
        got = fd_partials(lambda *x: values(tensor.evaluate(*x)), BETAS_3, pts)
        cast = fd_partials(lambda *x: values(tensor.evaluate(*x)).astype(dtype), BETAS_3, pts)
        for beta in BETAS_3:
            assert got[beta].dtype == dtype, beta
            assert got[beta].tobytes() == cast[beta].tobytes(), beta

    @pytest.mark.parametrize("name", list(_cast_cases()))
    def test_complex_cast_table(self, name):
        # A pure cast gives the same values, so the per-beta sums are the same
        # bits; only the division by the stencil denominator differs, which in
        # complex is a product with 1 / d (two roundings, not one): each partial
        # moves by at most 2 eps |partial|, and the normalized |partial| is at most
        # sum|w| max|chi| / r^|beta| (r = FD_REL_STEP), where sum|w| is the
        # product of the 1-D stencils' sum |w_j| / denominator.  0_0 divides by 1:
        # bit for bit.  The complex division of chi1 by Omega_2 moves each value
        # by up to about 2.5 eps max|chi| more, which the stencils amplify by the
        # same sum|w| / r^|beta|: K = 4.  An entry is a max over the boxes, so it
        # moves by at most the largest pointwise bound.
        real, cplx, boxes, K = _cast_cases()[name]
        want, got = (check_marcinkiewicz(chi, boxes, 2) for chi in (real, cplx))
        assert want.passes == got.passes
        amax = max(float(np.max(np.abs(real.evaluate(*slow_box_points(real, box)))))
                   for box in boxes)
        eps = np.finfo(float).eps
        sum_w = {b: sum(map(abs, w)) / d for b, (_, w, d) in FD_STENCILS.items()}
        for beta, v in want.table.items():
            if beta == (0, 0) and K == 2.0:
                assert got.table[beta] == v
                continue
            bound = sum_w[beta[0]] * sum_w[beta[1]] * K * eps * amax / FD_REL_STEP ** sum(beta)
            assert abs(got.table[beta] - v) <= bound, (beta, v, got.table[beta], bound)
