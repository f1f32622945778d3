"""The benchmark's workloads: the configs each one hands to the dblab CLI, and
the checks each one applies to what the CLI wrote.

A workload is `prepare(seed, outdir)`, which writes its configs and returns
its parameters and CLI calls, plus `check(params)`, which returns a list of
failure messages (empty when every output is correct).  The seed is the only
source of randomness; the same seed gives the same configs.

Checks compare against `reference.py` (closed forms written without dblab)
or against properties the method must have; none compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import reference as R

TOL_EPS = 32.0 * R.EPS  # two independent evaluations of one sum: a few eps per |term| each


def _write(outdir, name, cfg):
    path = os.path.join(outdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    return path


def _load_field(path):
    """Coefficients from a snapshot CSV (JSON header line, column names, k,re,im)."""
    with open(path) as fh:
        meta = json.loads(fh.readline()[1:])
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    n = int(meta["n"])
    c = np.zeros(n, dtype=complex)
    c[data[:, 0].astype(int) % n] = data[:, 1] + 1j * data[:, 2]
    return c


def _snapshots(run_dir):
    """[(t, coefficients)] in record order, from snapshots.csv."""
    out = []
    with open(os.path.join(run_dir, "snapshots.csv")) as fh:
        next(fh)
        for line in fh:
            _, t, name = line.strip().split(",")
            out.append((float(t), _load_field(os.path.join(run_dir, name))))
    return out


def _reports(run_dir):
    with open(os.path.join(run_dir, "reports.jsonl")) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _close(got, want, tol, what, errors):
    if not (math.isfinite(got) and abs(got - want) <= tol):
        errors.append(f"{what}: got {got!r}, reference {want!r}, tolerance {tol:.3g}")


# -- diag_run -----------------------------------------------------------------------

class DiagRun:
    """simulate, alpha = 0.9 (> 6/7), s = alpha/2, random H^s data at n = 1024,
    N0 = 8, an E^s report and a snapshot at every record."""

    name = "diag_run"
    ALPHA, S, N, N0 = 0.9, 0.45, 1024, 8.0
    DT, T_FINAL, RECORD_EVERY = 2.5e-4, 0.02, 20
    # RK4 drift measured at this dt: mass up to 6e-8 relative, Hamiltonian up
    # to 4e-6 of |H| + M; halving dt divides both by ~16, so these bounds sit
    # well above the time-stepping error and far below a first-order fault.
    MASS_DRIFT, HAM_DRIFT = 1e-6, 1e-4

    def prepare(self, seed, outdir):
        rng = np.random.default_rng([seed, 1])
        field_seed = int(rng.integers(2**31))
        run_dir = os.path.join(outdir, "run")
        cfg = {
            "equation": {"type": "pure_power", "alpha": self.ALPHA},
            "grid": {"n": self.N},
            "time": {"scheme": "ifrk4", "dt": self.DT, "t_final": self.T_FINAL,
                     "record_every": self.RECORD_EVERY},
            "initial": {"kind": "random_hs", "seed": field_seed, "s": self.S,
                        "target_norm": 1.0},
            "diagnostics": {"s": self.S, "n0": self.N0, "every": 1},
            "output": {"dir": run_dir, "snapshots": True},
        }
        calls = [["simulate", "--config", _write(outdir, "diag_run", cfg)]]
        return {"run_dir": run_dir}, calls

    def check(self, params):
        errors = []
        snaps = _snapshots(params["run_dir"])
        reps = _reports(params["run_dir"])
        records = round(self.T_FINAL / self.DT) // self.RECORD_EVERY + 1
        if len(snaps) != records or len(reps) != records:
            return [f"expected {records} snapshots and reports, got {len(snaps)} and {len(reps)}"]
        scales = R.ladder(self.N)
        masses, hams = [], []
        for (t, c), rep in zip(snaps, reps):
            where = f"t={t:g}"
            _close(rep["t"], t, 0.0, f"{where} report time", errors)
            total = share = bound = share_bound = 0.0
            guards = 0
            for N in scales:
                br = (1.0 + N * N) ** self.S
                band = R.band_energy(c, N, homogeneous=False, bottom=scales[0])
                corr = size = 0.0
                if N > self.N0:
                    corr, size, g = R.corrector(c, N, self.S, self.ALPHA)
                    guards += g
                want = br * abs(band + corr)
                tol = TOL_EPS * br * (band + size)
                _close(rep["per_scale"][f"{N:g}"], want, tol, f"{where} <N>^2s|E_N| N={N:g}", errors)
                total += want
                bound += tol
                share += br * abs(corr)
                share_bound += TOL_EPS * br * size
            _close(rep["modified"], total, bound, f"{where} E^s", errors)
            _close(rep["corrector_share"], share, share_bound, f"{where} corrector share", errors)
            if rep["guard_skips"] != guards:
                errors.append(f"{where}: guard_skips {rep['guard_skips']}, reference {guards}")
            m = R.mass(c)
            h = R.hamiltonian(c, self.ALPHA)
            _close(rep["mass"], m, 1e-13 * m, f"{where} mass", errors)
            _close(rep["hamiltonian"], h, 1e-12 * (m + abs(h)), f"{where} Hamiltonian", errors)
            _close(rep["hs_norm"], R.hs_norm(c, self.S), 1e-13 * R.hs_norm(c, self.S),
                   f"{where} H^s norm", errors)
            masses.append(m)
            hams.append(h)
        m_drift = max(abs(m - masses[0]) for m in masses) / masses[0]
        h_drift = max(abs(h - hams[0]) for h in hams) / (abs(hams[0]) + masses[0])
        if m_drift > self.MASS_DRIFT:
            errors.append(f"mass drift {m_drift:.3g} exceeds {self.MASS_DRIFT}")
        if h_drift > self.HAM_DRIFT:
            errors.append(f"Hamiltonian drift {h_drift:.3g} exceeds {self.HAM_DRIFT}")
        return errors


# -- stepping ---------------------------------------------------------------------

class Stepping:
    """simulate of the exact Benjamin-Ono periodic travelling wave at n = 16384,
    once with ifrk4 and once with etdrk4; N0 at the top ladder scale, so no
    corrector runs and the solver does all the work."""

    name = "stepping"
    N, DT, T_FINAL = 16384, 1e-4, 0.02
    SUP_TOL = 1e-10      # measured sup error at T: 1.6e-14 (ifrk4), 6e-15 (etdrk4)
    MASS_TOL = 1e-12

    def prepare(self, seed, outdir):
        rng = np.random.default_rng([seed, 2])
        # r <= 0.45 keeps max|u| = 2r/(1-r) <= 1.64, well inside the RK4 limit at dt = 1e-4
        r = 0.40 + 0.05 * float(rng.random())
        modes = math.ceil(math.log(1e-20) / math.log(r))
        steps = round(self.T_FINAL / self.DT)
        calls, dirs = [], {}
        for scheme in ("ifrk4", "etdrk4"):
            dirs[scheme] = os.path.join(outdir, scheme)
            cfg = {
                "equation": {"type": "pure_power", "alpha": 1.0},
                "grid": {"n": self.N},
                "time": {"scheme": scheme, "dt": self.DT, "t_final": self.T_FINAL,
                         "record_every": steps},
                # c_{+-k} = -r^k: amplitude * weight / 2 with weight -2 r^k
                "initial": {"kind": "cosine", "amplitude": 1.0,
                            "modes": [[k, -2.0 * r**k] for k in range(1, modes + 1)]},
                "diagnostics": {"s": 0.5, "n0": float(self.N)},
                "output": {"dir": dirs[scheme], "snapshots": True},
            }
            calls.append(["simulate", "--config", _write(outdir, f"stepping_{scheme}", cfg)])
        return {"r": r, "dirs": dirs}, calls

    def check(self, params):
        errors = []
        r = params["r"]
        x = 2.0 * math.pi * np.arange(self.N) / self.N
        for scheme, run_dir in params["dirs"].items():
            snaps = _snapshots(run_dir)
            if len(snaps) != 2 or abs(snaps[-1][0] - self.T_FINAL) > 1e-12:
                errors.append(f"{scheme}: expected records at t=0 and t={self.T_FINAL}")
                continue
            for t, c in snaps:
                u = np.fft.ifft(c).real * self.N
                err = float(np.max(np.abs(u - R.bo_wave(x, t, r))))
                if not err <= self.SUP_TOL:
                    errors.append(f"{scheme} t={t:g}: sup error {err:.3g} > {self.SUP_TOL}")
            for rep in _reports(run_dir):
                _close(rep["mass"], R.bo_wave_mass(r), self.MASS_TOL * R.bo_wave_mass(r),
                       f"{scheme} t={rep['t']:g} mass", errors)
        return errors


# -- coercivity_sweep -------------------------------------------------------------

class CoercivitySweep:
    """check-energy, alpha = 0.5, s = 1 > s_alpha = 0.875, sigma = -0.3 in
    (-0.375, -0.25], plain and difference searches on large random fields."""

    name = "coercivity_sweep"
    ALPHA, S, SIGMA, N, N0 = 0.5, 1.0, -0.3, 512, 8.0
    FIELDS, NORM = 3, 1000.0

    def prepare(self, seed, outdir):
        rng = np.random.default_rng([seed, 3])
        base = int(rng.integers(2**30))
        out = os.path.join(outdir, "energy")
        cfg = {
            "equation": {"type": "pure_power", "alpha": self.ALPHA},
            "grid": {"n": self.N},
            "energy": {"s": self.S, "sigma": self.SIGMA, "n0": self.N0, "fields": self.FIELDS,
                       "seed": base, "target_norm": self.NORM, "difference": True},
            "output": {"dir": out},
        }
        calls = [["check-energy", "--config", _write(outdir, "coercivity_sweep", cfg)]]
        return {"dir": out, "base": base}, calls

    def _plain_scales(self, u):
        scales = R.ladder(self.N)
        rows = []
        for N in scales:
            band = R.band_energy(u, N, homogeneous=False, bottom=scales[0])
            corr, size, _ = R.corrector(u, N, self.S, self.ALPHA) if N > self.N0 else (0.0, 0.0, 0)
            rows.append(((1.0 + N * N) ** self.S, N, band, corr, size))
        return rows

    def _difference_scales(self, z, w):
        scales = R.ladder(self.N, homogeneous=True)
        rows = []
        for N in scales:
            band = R.band_energy(w, N, homogeneous=True, bottom=scales[0])
            corr = size = 0.0
            if N > self.N0:
                (c1, a1, _), (c2, a2, _) = R.difference_correctors(z, w, N, self.SIGMA, self.ALPHA)
                corr, size = -c1 - c2, a1 + a2   # c~1 = c~2 = -1
            rows.append(((1.0 + N**-2) * (1.0 + N * N) ** self.SIGMA, N, band, corr, size))
        return rows

    @staticmethod
    def _sides(rows, n0):
        """(lhs, rhs, tolerance on lhs) of the coercivity inequality at cutoff n0."""
        plain = tail = es = bound = 0.0
        for br, N, band, corr, size in rows:
            plain += br * band
            if N > n0:
                tail += 2.0 * br * band
                es += br * abs(band + corr)
            else:
                es += br * abs(band)
            bound += TOL_EPS * br * (band + size)
        return abs(es - plain), tail / 8.0, bound

    def _check_search(self, res, rows, where, errors):
        hist = res["history"]
        if not res["passed"]:
            errors.append(f"{where}: search did not pass")
            return
        for j, (n0, lhs, rhs) in enumerate(hist):
            if n0 != self.N0 * 2.0**j:
                errors.append(f"{where}: entry {j} has N0 = {n0}, expected {self.N0 * 2.0**j}")
            want_l, want_r, tol = self._sides(rows, n0)
            _close(lhs, want_l, tol, f"{where} N0={n0:g} lhs", errors)
            _close(rhs, want_r, TOL_EPS * want_r, f"{where} N0={n0:g} rhs", errors)
        holds = [lhs <= rhs or (lhs == 0.0 and rhs == 0.0) for _, lhs, rhs in hist]
        if True not in holds or holds.index(True) != len(hist) - 1:
            errors.append(f"{where}: first entry with lhs <= rhs is not the passing entry")
        if (res["passing_n0"] != hist[-1][0] or res["doublings"] != len(hist) - 1
                or res["lhs"] != hist[-1][1] or res["rhs"] != hist[-1][2]):
            errors.append(f"{where}: summary fields disagree with the last history entry")

    def check(self, params):
        errors = []
        with open(os.path.join(params["dir"], "coercivity_report.json")) as fh:
            rows = json.load(fh)
        if len(rows) != self.FIELDS:
            return [f"expected {self.FIELDS} fields, got {len(rows)}"]
        for i, row in enumerate(rows):
            u = R.random_hs(self.N, params["base"] + i, self.S, self.NORM)
            w = R.random_hs(self.N, params["base"] + 1000 + i, self.S, self.NORM)
            plain = self._plain_scales(u)
            self._check_search(row["plain"], plain, f"field {i} plain", errors)
            self._check_search(row["difference"], self._difference_scales(u, w),
                               f"field {i} difference", errors)
            es = sum(br * abs(band + corr) for br, _, band, corr, _ in plain)
            bound = sum(TOL_EPS * br * (band + size) for br, _, band, _, size in plain)
            _close(row["modified_energy"], es, bound, f"field {i} E^s", errors)
        return errors


# -- marcinkiewicz ------------------------------------------------------------------

class Marcinkiewicz:
    """check-multiplier: Marcinkiewicz tables of the tensor cutoff, the
    resonance quotient and the corrector symbols at N = 64, alpha = 1."""

    name = "marcinkiewicz"
    ALPHA, N, S, N1, N2, BETA_MAX = 1.0, 64.0, 0.3, 2.0, 64.0, 3
    WINDOW = 1e3
    REL_TOL = 1e-10   # quadrature vs closed-form commutator: measured <= 4e-15

    def prepare(self, seed, outdir):
        rng = np.random.default_rng([seed, 4])
        out = os.path.join(outdir, "multiplier")
        cfg = {
            "equation": {"type": "pure_power", "alpha": self.ALPHA},
            "multiplier": {"n": self.N, "s": self.S, "n1": self.N1, "n2": self.N2,
                           "beta_max": self.BETA_MAX, "pairs": 5,
                           "pairs_seed": int(rng.integers(2**31))},
            "output": {"dir": out},
        }
        calls = [["check-multiplier", "--config", _write(outdir, "marcinkiewicz", cfg)]]
        return {"dir": out}, calls

    @staticmethod
    def _box(N1, N2):
        """The checker's sample mesh: 16 log-spaced magnitudes in [N/2, 2N] per sign."""
        axes = []
        for N in (N1, N2):
            mags = np.exp(np.linspace(math.log(N / 2.0), math.log(2.0 * N), 16))
            axes.append(np.concatenate([-mags[::-1], mags]))
        return np.meshgrid(*axes, indexing="ij")

    @staticmethod
    def _kept(mesh, supp):
        """Points whose 2 % dilations stay in the declared band, as the checker keeps them."""
        x1, x2 = mesh
        ok = supp(x1, x2) & supp(0.98 * x1, 0.98 * x2) & supp(1.02 * x1, 1.02 * x2)
        return x1[ok], x2[ok]

    def _max_abs(self):
        N, a = self.N, self.ALPHA
        x1, x2 = self._box(self.N1, self.N2)
        tensor = np.max(np.abs(R.phi(x1 / self.N1) * R.phi(x2 / self.N2)))
        quotient = np.max(np.abs(self.N1 * np.abs(x2) ** a / R.omega2(x1, x2, a)))

        def band(y1, y2):
            return (np.abs(y1) <= N / 16.0 * (1 + 1e-12)) & (np.abs(y2) >= N / 4.0) & (np.abs(y2) <= 4.0 * N)

        def chi1_supp(y1, y2):
            tot = np.abs(y1 + y2)
            return (tot >= N / 2.0) & (tot <= 2.0 * N)

        y1, y2 = self._kept(self._box(1.0, N), band)
        dressed = np.max(np.abs(N**a * R.chi1_over_omega2(y1, y2, N, self.S, a)[0]))
        y1, y2 = self._kept(self._box(1.0, N), chi1_supp)
        chi1 = np.max(np.abs(R.chi1(y1, y2, N, self.S)))
        return {"tensor": tensor, "resonance_quotient": quotient,
                "chi1_over_omega2_beta2": dressed, "chi1_over_omega2_beta3": dressed,
                "chi1": chi1}

    def check(self, params):
        errors = []
        with open(os.path.join(params["dir"], "marcinkiewicz_report.json")) as fh:
            rep = json.load(fh)
        tables = {k: rep[k] for k in ("tensor", "resonance_quotient", "chi1_over_omega2_beta2")}
        for name, tab in tables.items():
            vals = list(tab["table"].values())
            if not (tab["passes"] and all(math.isfinite(v) and v <= self.WINDOW for v in vals)):
                errors.append(f"{name}: asserted symbol outside the window {self.WINDOW}")
        if rep.get("product_closure_pass") is not True:
            errors.append("product closure failed")
        tables.update(rep["reported_only"])  # |beta| = 3 dressed entry: reported, not asserted
        for name, want in self._max_abs().items():
            got = tables[name]["table"]["0_0"]
            _close(got, float(want), self.REL_TOL * float(want), f"{name} max|chi|", errors)
        return errors


WORKLOADS = {w.name: w for w in (DiagRun(), Stepping(), CoercivitySweep(), Marcinkiewicz())}
