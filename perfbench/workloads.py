"""The four benchmark workloads: inputs, timed calls and answer checks.

Each workload is a fixed list of timed items. A round issues every item
once, in an order drawn from the run's seed, and is "one answer": its wall
time is what a user waits for. Items go through ``cli.main`` where a
subcommand exists, otherwise through the library call the matching
acceptance gate makes, with method settings (``dt``, grids) left at the
library defaults unless the gate sets them.

``check`` turns one round's outputs into checked items, each with
``error / tolerance``; an item fails when that ratio exceeds 1. The
error is taken against an independent route where one exists (Bloch rate,
k-space integral, closed forms) and otherwise against the outputs recorded
at the seed commit in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from xyzscar import bogoliubov as bg
from xyzscar import cli, scars
from xyzscar import ed_oracle as ed
from xyzscar import lattice_classical as lc
from xyzscar import rotframe
from xyzscar import spinwave as sw
from xyzscar.elliptic import complete_K

# tolerances, each from the acceptance gate or ROADMAP oracle named beside it
RESIDUAL_TOL = 1e-10  # gate 01: eigenstate residual
ENERGY_REL_TOL = 1e-9  # gate 01: energy per site vs closed form
U_RATE_REL_TOL = 1e-9  # ROADMAP item 3: U-cell rates vs the 400-point grid
S_RATE_TOL = 1e-4 * bg.STABILITY_THRESHOLD  # ROADMAP item 3: S rates 4 orders below threshold
BLOCH_REL_TOL = 0.10  # gate 08: Benettin vs Bloch
RING_TOL = 1e-3  # gate 07 and test_matches_real_space_ring: ring vs k space
COLLAPSE_TOL = 1e-7  # gate 06: S = 1 vs S = 2 spread of f(tau)
STATIC_TOL = 1e-8  # test_detuned_elliptic_families_stay_static
NORM_TOL = 1e-9  # test_norm_and_energy_invariants: site norms
ENERGY_DRIFT_TOL = 1e-8  # test_norm_and_energy_invariants: relative energy drift
ED_SERIES_TOL = 1e-10  # exact D(t) vs the seed commit; gate 01's residual scale

THETA, Q = math.pi / 4, math.pi / 3


def _cli(*argv) -> None:
    """Run one xyzscar subcommand as a user would; its chatter is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"xyzscar {argv[0]} exited with {code}")


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=str, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _series(path: Path, column: str) -> dict[str, np.ndarray]:
    cols = _read_csv(path)
    return {"t": cols["t"].astype(float), column: cols[column].astype(float)}


def _ratio(err: float, tol: float) -> float:
    return float(err) / tol if np.isfinite(err) else math.inf


class Workload:
    """Items are (label, callable); callables return the outputs to check.

    A CLI item returns a loader instead, so that reading its files back
    happens after the timed round.
    """

    name = ""

    def __init__(self, out: Path, reference: dict, tiny: bool):
        self.out = out
        self.ref = reference
        self.tiny = tiny
        self.items: list[tuple[str, object]] = []

    def check(self, outputs: dict) -> list[tuple[str, float]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Scan(Workload):
    """phase-scan rows inside the gate-10 mapped region, glsh, dJ = 0.01."""

    name = "scan"
    # (kappa, first lambda, last lambda): gate-10 rows; kappa = 0.8 stops at
    # 30 of its cap 43 and kappa = 0.96 takes the slow 60..62 cells of 7..71
    ROWS = [(0.20, 7, 7), (0.48, 7, 21), (0.80, 7, 30), (0.96, 60, 62)]
    TINY_ROWS = [(0.20, 7, 7), (0.80, 7, 8)]

    def __init__(self, out, reference, tiny):
        super().__init__(out, reference, tiny)
        for kappa, lo, hi in self.TINY_ROWS if tiny else self.ROWS:
            label = f"kappa={kappa:.2f}" + (f",lambda={lo}:{hi}" if tiny else "")
            self.items.append((label, self._row(kappa, lo, hi)))

    def _row(self, kappa, lo, hi):
        def run():
            row_out = self.out / f"scan-{kappa:.2f}"
            _cli("phase-scan", "--family", "glsh", "--dJ", 0.01, "--n-k", 400,
                 "--kappa", kappa, "--lambda", f"{lo}:{hi}", "--out", row_out)
            return lambda: self._cells(row_out)

        return run

    @staticmethod
    def _cells(row_out):
        cols = _read_csv(row_out / "phase_scan.csv")
        return [
            {"lambda": int(lam), "class": cls, "lyap_minus": float(m), "lyap_plus": float(p)}
            for lam, cls, m, p in zip(cols["lambda"], cols["class"], cols["lyap_minus"], cols["lyap_plus"])
        ]

    def check(self, outputs):
        ref_cells = {
            (row["kappa"], cell["lambda"]): cell
            for row in self.ref["scan"]["rows"]
            for cell in row["cells"]
        }
        results = []
        for label, cells in outputs.items():
            kappa = float(label.split(",")[0].split("=")[1])
            for cell in cells:
                key = (kappa, cell["lambda"])
                ref = ref_cells.get(key)
                ratios = [0.0 if cell["class"] in ("S-S", "U-S") else math.inf]
                if key == (0.80, 7):
                    ratios.append(0.0 if cell["class"] == "U-S" else math.inf)
                if ref is None or ref["class"] != cell["class"]:
                    ratios.append(math.inf)
                else:
                    for side, sign in (("lyap_minus", 0), ("lyap_plus", 2)):
                        if cell["class"][sign] == "U":
                            err = abs(cell[side] - ref[side]) / abs(ref[side])
                            ratios.append(_ratio(err, U_RATE_REL_TOL))
                        else:
                            ratios.append(_ratio(cell[side], S_RATE_TOL))
                results.append((f"scan {key}", max(ratios)))
        return results


# ---------------------------------------------------------------------------


class Benettin(Workload):
    """Benettin twin-trajectory estimate plus one ll-evolve on the same ring."""

    name = "benettin"
    KAPPA, LAM, L, DJZ = 0.9, 6, 120, 0.1
    # T = 200 at dJz = 0.1 lands within gate 08's 10% of the Bloch rate;
    # gate 08's own point (dJz = 0.02, T = 800) takes 45 s per estimate.
    T_LYAP = 200.0
    KICK_SEED = 0  # gate 08's seed: the fit's error moves 3x between kicks
    T_LL = 20.0

    def __init__(self, out, reference, tiny):
        super().__init__(out, reference, tiny)
        p = scars.ScarParams.commensurate(self.KAPPA, self.L // self.LAM, self.L, gamma=0.0, S=1.0)
        self.texture = scars.scar_texture(p)
        self.J = scars.parent_couplings(self.KAPPA, p.q).detuned(dJz=self.DJZ)
        if not tiny:
            self.items.append(("lyapunov", self._lyapunov))
        self.items.append(("ll-evolve", self._ll_evolve))

    def _lyapunov(self):
        est = lc.classical_lyapunov(
            self.texture, self.J, S=1.0, T=self.T_LYAP, discard_fraction=0.5, seed=self.KICK_SEED
        )
        return {"rate": est.rate, "converged": est.converged}

    def _ll_evolve(self):
        T = 2.0 if self.tiny else self.T_LL
        _cli("ll-evolve", "--kappa", self.KAPPA, "--M", self.L // self.LAM, "--L", self.L,
             "--gamma", 0, "--dJz", self.DJZ, "--T", T, "--out", self.out)
        return lambda: self._trajectory(T)

    def _trajectory(self, T):
        traj = np.loadtxt(self.out / "ll_trajectory.csv", delimiter=",", skiprows=1)
        energy = np.loadtxt(self.out / "ll_energy.csv", delimiter=",", skiprows=1)
        omega = traj[:, 2:].reshape(-1, self.L, 3)
        return {"T": T, "times": energy[:, 0], "energy": energy[:, 1], "omega": omega}

    def check(self, outputs):
        results = []
        if "lyapunov" in outputs:
            est = outputs["lyapunov"]
            q = 4.0 * complete_K(self.KAPPA) / self.LAM
            bloch = bg.lyapunov_max("gtsh", self.KAPPA, q, self.DJZ)
            err = abs(est["rate"] - bloch) / bloch if est["converged"] else math.inf
            results.append(("benettin vs bloch", _ratio(err, BLOCH_REL_TOL)))
        traj = outputs["ll-evolve"]
        static = np.abs(traj["omega"] - self.texture[None]).max()
        norms = np.abs(np.linalg.norm(traj["omega"], axis=-1) - 1.0).max()
        drift = np.abs(traj["energy"] - traj["energy"][0]).max() / abs(traj["energy"][0])
        ok_grid = len(traj["times"]) == 1001 and abs(traj["times"][-1] - traj["T"]) < 1e-9
        results.append((
            "ll-evolve static texture",
            max(_ratio(static, STATIC_TOL), _ratio(norms, NORM_TOL),
                _ratio(drift, ENERGY_DRIFT_TOL), 0.0 if ok_grid else math.inf),
        ))
        return results


# ---------------------------------------------------------------------------

# the 135 scars of gate 01: every commensurate winding (L, M) that fits the
# 4,096-state cap at the parameters of the seed commit, listed explicitly
SWEEP_RINGS = {
    0.5: [(5, 1), (6, 1), (7, 1), (8, 1), (9, 1), (9, 2), (10, 1), (10, 2),
          (11, 1), (11, 2), (12, 1), (12, 2)],
    1.0: [(5, 1), (6, 1), (7, 1)],
}
SWEEP = [
    (kappa, gamma, S, L, M)
    for kappa in (0.0, 0.5, 0.9)
    for gamma in (0.0, 0.7071, 1.0)
    for S in (0.5, 1.0)
    for L, M in SWEEP_RINGS[S]
]


class Exact(Workload):
    """Gate-01 eigenstate sweep plus contrast-ed at +-0.03 on a 1,024-state ring."""

    name = "exact"
    # L = 10, S = 1/2, theta = pi/4 transverse: contrast-ed spends 85% of its
    # time in dense eigh; the L = 7, S = 1 ring (2,187 states) would take
    # 16 s per sign with BLAS on one thread
    ED_RING = ("--kappa", 0, "--M", 1, "--L", 10, "--theta", "pi/4", "--S", 0.5)

    def __init__(self, out, reference, tiny):
        super().__init__(out, reference, tiny)
        sweep = SWEEP[::15] if tiny else SWEEP
        self.scars = [scars.ScarParams.commensurate(k, M, L, gamma=g, S=S) for k, g, S, L, M in sweep]
        self.items.append(("sweep", self._sweep))
        if not tiny:
            for delta in (+0.03, -0.03):
                self.items.append((f"contrast-ed {delta:+.2f}", self._contrast_ed(delta)))

    def _sweep(self):
        rows = []
        for p in self.scars:
            residual = ed.eigenstate_residual(p)
            H = ed.build_hamiltonian(scars.parent_couplings(p.kappa, p.q), p.S, p.L)
            psi = ed.product_state(scars.scar_texture(p), p.S)
            rows.append((p, residual, float(np.real(np.vdot(psi, H @ psi))) / p.L))
        return rows

    def _contrast_ed(self, delta):
        def run():
            ed_out = self.out / f"ed{delta:+.2f}"
            _cli("contrast-ed", *self.ED_RING, "--delta", delta, "--out", ed_out)
            return lambda: _series(ed_out / "contrast_ed.csv", "D")

        return run

    def check(self, outputs):
        results = []
        for p, residual, e_site in outputs["sweep"]:
            closed = scars.energy_density(p.kappa, p.q, p.S)
            ratio = max(
                _ratio(residual, RESIDUAL_TOL),
                _ratio(abs(e_site - closed), ENERGY_REL_TOL * abs(closed)),
            )
            results.append((f"sweep {p.kappa},{p.gamma},{p.S},{p.L},{p.q:.6f}", ratio))
        for label, series in outputs.items():
            if label.startswith("contrast-ed"):
                ref = self.ref["exact"][label]
                same_grid = np.array_equal(series["t"], np.asarray(ref["t"]))
                err = np.abs(series["D"] - np.asarray(ref["D"])).max() if same_grid else math.inf
                results.append((label, _ratio(err, ED_SERIES_TOL)))
        return results

    @staticmethod
    def asymmetry(outputs) -> float | None:
        """Gate 11's (1 - D+)/(1 - D-) at the last sample: recorded, not checked."""
        plus, minus = outputs.get("contrast-ed +0.03"), outputs.get("contrast-ed -0.03")
        if plus is None or minus is None:
            return None
        return float((1.0 - plus["D"][-1]) / (1.0 - minus["D"][-1]))


# ---------------------------------------------------------------------------


def _transverse_coeffs(S, L, dJz):
    omega = -2.0 * S * math.cos(THETA) * dJz
    return sw.sw_coefficients(rotframe.frame_transverse(THETA, Q, omega, L, dJz=dJz), S)


class Contrast(Workload):
    """Spin-wave routes to D(t): rings on the CLI against their k-space twins."""

    name = "contrast"
    RING_L, GLSH_L, COLLAPSE_L = 240, 140, 120

    def __init__(self, out, reference, tiny):
        super().__init__(out, reference, tiny)
        self.ring_times = np.linspace(0.0, 30.0, 301)
        self.q7 = 4.0 * complete_K(0.8) / 7
        self.items = [
            ("glsh ring", self._glsh),
            ("multiflavour", self._multiflavour),
            ("collapse", self._collapse),
        ]
        if tiny:
            self.COLLAPSE_L = 24
        else:
            self.items += [("ring", self._ring), ("integral", self._integral)]

    def _ring(self):
        _cli("contrast-sw", "--family", "transverse", "--theta", "pi/4", "--q", "pi/3",
             "--L", self.RING_L, "--dJz", -0.03, "--T", 30, "--n-samples", 301,
             "--out", self.out / "ring")
        return lambda: _series(self.out / "ring" / "contrast_sw.csv", "f")

    def _integral(self):
        return bg.scaling_function(self.ring_times, Q, THETA, -0.03)

    def _glsh(self):
        _cli("contrast-sw", "--family", "glsh", "--kappa", 0.8, "--M", self.GLSH_L // 7,
             "--L", self.GLSH_L, "--dJx", -0.02, "--T", 20, "--n-samples", 81,
             "--out", self.out / "glsh")
        return lambda: _series(self.out / "glsh" / "contrast_sw.csv", "D")

    def _multiflavour(self):
        series = bg.contrast_multiflavour("glsh", 0.8, self.q7, -0.02, T=20.0, n_samples=81)
        return {"t": series.times, "D": series.D}

    def _collapse(self):
        entries = [(_transverse_coeffs(S, self.COLLAPSE_L, -0.03), S) for S in (1.0, 2.0)]
        return sw.scaling_collapse_check(entries, tau_max=20.0, n_tau=201)

    def check(self, outputs):
        glsh, kspace = outputs["glsh ring"], outputs["multiflavour"]
        glsh_err = (
            np.abs(glsh["D"] - kspace["D"]).max()
            if np.allclose(glsh["t"], kspace["t"], rtol=0, atol=1e-12) else math.inf
        )
        results = [
            ("glsh ring vs k space", _ratio(glsh_err, RING_TOL)),
            ("collapse S=1,2", _ratio(outputs["collapse"], COLLAPSE_TOL)),
        ]
        if not self.tiny:
            ring = outputs["ring"]
            ring_err = (
                np.abs(ring["f"] - outputs["integral"]).max()
                if np.allclose(ring["t"], self.ring_times, rtol=0, atol=1e-12) else math.inf
            )
            results.append(("ring vs integral", _ratio(ring_err, RING_TOL)))
        return results


WORKLOADS = {cls.name: cls for cls in (Scan, Benettin, Exact, Contrast)}
