"""Landau-Lifshitz integration, traveling-wave residuals, Lyapunov estimates."""

import json
import math

import numpy as np
import pytest

from xyzscar import cli, elliptic, rotframe, scars
from xyzscar import lattice_classical as lc


def transverse_helix(theta: float, q: float, L: int) -> np.ndarray:
    j = np.arange(L)
    return np.column_stack(
        [
            np.sin(theta) * np.cos(q * j),
            np.sin(theta) * np.sin(q * j),
            np.full(L, np.cos(theta)),
        ]
    )


def random_texture(L: int, seed: int, batch: tuple = ()) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(*batch, L, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def reference_rk4_step(omega, J, S, dt):
    """RK4 on the general roll / 3x3 matmul / np.cross right-hand side."""

    def rhs(o):
        return np.cross(S * (np.roll(o, 1, axis=-2) + np.roll(o, -1, axis=-2)) @ J.T, o)

    k1 = rhs(omega)
    k2 = rhs(omega + 0.5 * dt * k1)
    k3 = rhs(omega + 0.5 * dt * k2)
    k4 = rhs(omega + dt * k3)
    return omega + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def count_rk4_steps(monkeypatch) -> list:
    calls = []
    step = lc._rk4_step

    def counted(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(lc, "_rk4_step", counted)
    return calls


def reference_ll_evolve(tex, mat, S, T, n_steps, stride):
    """ll_evolve's sampling loop on reference_rk4_step: times, textures,
    energies and the largest norm drift after t = 0."""
    dt = T / n_steps
    omega, drift = tex, 0.0
    times, textures, energies = [0.0], [tex], [S * scars.bond_sum(tex, mat)]
    for step in range(1, n_steps + 1):
        omega = reference_rk4_step(omega, mat, S, dt)
        if step % stride == 0 or step == n_steps:
            drift = max(drift, np.abs(np.linalg.norm(omega, axis=-1) - 1.0).max())
            times.append(step * dt)
            textures.append(omega)
            energies.append(S * scars.bond_sum(omega, mat))
    return np.array(times), np.array(textures), np.array(energies), drift


def reference_benettin(base, mat, S, eps0, dt, steps_per_block, n_blocks, seed):
    """classical_lyapunov's twin loop on reference_rk4_step: the log-growth
    curve and the largest norm drift of base or twin at a renormalisation."""
    rng = np.random.default_rng(seed)
    tangent = rng.standard_normal(base.shape)
    tangent -= (np.sum(tangent * base, axis=1, keepdims=True)) * base
    tangent *= eps0 / np.linalg.norm(tangent)
    twin = base + tangent
    twin /= np.linalg.norm(twin, axis=1, keepdims=True)
    pair = np.stack([base, twin])
    growth, total, drift = [], 0.0, 0.0
    for _ in range(n_blocks):
        for _ in range(steps_per_block):
            pair = reference_rk4_step(pair, mat, S, dt)
        drift = max(drift, np.abs(np.linalg.norm(pair, axis=-1) - 1.0).max())
        sep = pair[1] - pair[0]
        dist = np.linalg.norm(sep)
        total += math.log(dist / eps0)
        growth.append(total)
        pair[1] = pair[0] + sep * (eps0 / dist)
        pair[1] /= np.linalg.norm(pair[1], axis=1, keepdims=True)
    return np.array(growth), drift


class TestDiagonalKernel:
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["J", "minus_J"])
    @pytest.mark.parametrize("batch", [(), (2,)], ids=["single", "pair"])
    @pytest.mark.parametrize("L", [2, 3, 120])
    def test_bit_identical_to_general_step(self, L, batch, sign):
        """The padded kernel reproduces the roll/matmul/cross step exactly.

        S = 1 alone would hide a reordering around the exact S * nb multiply.
        """
        J = scars.XYZCouplings(sign * 1.0, sign * 0.7, sign * 0.4)
        mat = scars.coupling_matrix(J)
        ring = lc._PaddedRing(L, 2 if batch else 1, lc._coupling_diagonal(J))
        for S in (0.5, 1.0, 3.0):
            ref = random_texture(L, seed=L, batch=batch)
            state = ring.pad(ref)
            for _ in range(200):
                state = lc._rk4_step(state, ring, S, 5e-3)
                ref = reference_rk4_step(ref, mat, S, 5e-3)
            assert np.array_equal(ring.unpad(state).reshape(ref.shape), ref), S

    def test_ghosts_and_duplicate_rows_hold_copies(self):
        """Every padded entry equals the (site, component) it copies, after steps too."""
        tex = random_texture(5, seed=9, batch=(2,))
        ring = lc._PaddedRing(5, 2, lc._coupling_diagonal(scars.XYZCouplings(1.0, 0.7, 0.4)))
        state = ring.pad(tex)
        rows = state.reshape(2, 5, 7)
        np.testing.assert_array_equal(rows[:, 1, 1:-1], tex[:, :, 1])
        np.testing.assert_array_equal(rows[:, 3], rows[:, 0])
        np.testing.assert_array_equal(rows[:, :, 0], rows[:, :, 5])
        np.testing.assert_array_equal(rows[:, :, 6], rows[:, :, 1])
        for _ in range(3):
            state = lc._rk4_step(state, ring, 0.5, 0.01)
        np.testing.assert_array_equal(state, ring.pad(ring.unpad(state)))

    def test_off_diagonal_coupling_raises(self):
        tex = random_texture(6, seed=4)
        J = np.diag([1.0, 0.7, 0.4])
        J[0, 1] = 1e-3
        with pytest.raises(ValueError, match="diagonal"):
            lc.ll_evolve(tex, J, 1.0, T=1.0)
        with pytest.raises(ValueError, match="diagonal"):
            lc.classical_lyapunov(tex, J, 1.0, T=4.0)


class TestLLEvolve:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_scar_texture_is_static(self, gamma):
        """Scar textures at parent couplings are fixed points of the flow."""
        kappa = 0.6
        K = elliptic.complete_K(kappa)
        S = 1.0
        params = scars.ScarParams(kappa=kappa, q=K / 3.0, gamma=gamma, L=12, S=S)
        tex = scars.scar_texture(params)
        J = scars.parent_couplings(kappa, params.q)
        traj = lc.ll_evolve(tex, J, S, T=10.0 / S)
        dev = np.linalg.norm(traj.textures[-1] - tex, axis=1).max()
        assert dev <= 1e-8

    def test_transverse_helix_rotates_rigidly(self):
        """At the default step the closed-form rotation holds to rounding at either S."""
        theta, q, dJz = np.pi / 4, np.pi / 3, 0.03
        L = 12
        helix = transverse_helix(theta, q, L)
        J = scars.XYZCouplings(1.0, 1.0, np.cos(q) + dJz)
        for S in (0.5, 1.0):
            traj = lc.ll_evolve(helix, J, S, T=7.0 / S)
            omega = -2.0 * S * np.cos(theta) * dJz
            ang = q * np.arange(L) - omega * traj.times[-1]
            predicted = np.column_stack(
                [
                    np.sin(theta) * np.cos(ang),
                    np.sin(theta) * np.sin(ang),
                    np.full(L, np.cos(theta)),
                ]
            )
            assert np.abs(traj.textures[-1] - predicted).max() <= 1e-12, S

    def test_collinear_pair_is_static(self):
        up = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        traj = lc.ll_evolve(up, np.diag([0.0, 0.0, 1.0]), 0.5, T=5.0)
        assert np.abs(traj.textures - up).max() == 0.0

    def test_norm_and_energy_invariants(self):
        tex = random_texture(10, seed=7)
        J = scars.XYZCouplings(1.0, 0.7, 0.4)
        traj = lc.ll_evolve(tex, J, 1.0, T=20.0)
        norms = np.linalg.norm(traj.textures, axis=-1)
        assert np.abs(norms - 1.0).max() <= 1e-9
        assert np.abs(traj.energy - traj.energy[0]).max() <= 1e-8 * abs(traj.energy[0])
        # the drift the run checked is the drift of the samples it returned
        assert traj.max_norm_drift == pytest.approx(np.abs(norms[1:] - 1.0).max(), rel=1e-12)
        assert 0.0 < traj.max_norm_drift <= lc.NORM_DRIFT_TOL
        energy_drift = np.abs(traj.energy - traj.energy[0]).max() / abs(traj.energy[0])
        assert traj.max_energy_drift == energy_drift

    def test_time_reversal(self):
        """Running the flow with J -> -J retraces the trajectory."""
        tex = random_texture(8, seed=3)
        J = scars.coupling_matrix(scars.XYZCouplings(1.0, 0.7, 0.4))
        forward = lc.ll_evolve(tex, J, 1.0, T=5.0)
        back = lc.ll_evolve(forward.textures[-1], -J, 1.0, T=5.0)
        assert np.abs(back.textures[-1] - tex).max() <= 1e-7

    def test_detuned_elliptic_families_stay_static(self):
        """z-detuned gtsh and x-detuned glsh remain fixed points (omega = 0)."""
        for gamma, kappa, detuning in [(0.0, 0.9, {"dJz": 0.04}), (1.0, 0.8, {"dJx": 0.07})]:
            K = elliptic.complete_K(kappa)
            q = 4.0 * 2 * K / 12
            params = scars.ScarParams(kappa=kappa, q=q, gamma=gamma, L=12, S=1.0)
            tex = scars.scar_texture(params)
            J = scars.parent_couplings(kappa, q).detuned(**detuning)
            traj = lc.ll_evolve(tex, J, 1.0, T=10.0)
            assert np.abs(traj.textures[-1] - tex).max() <= 1e-8

    def test_norm_drift_raises(self):
        tex = random_texture(8, seed=3)
        J = scars.XYZCouplings(1.0, 0.7, 0.4)
        with pytest.raises(lc.IntegrationError, match="reduce dt"):
            lc.ll_evolve(tex, J, 1.0, dt=0.5, T=50.0)

    def test_input_validation(self):
        J = scars.XYZCouplings(1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="unit-norm"):
            lc.ll_evolve(np.ones((4, 3)), J, 1.0)
        with pytest.raises(ValueError, match=r"\(L, 3\)"):
            lc.ll_evolve(np.ones(6), J, 1.0)
        up = np.tile([0.0, 0.0, 1.0], (4, 1))
        with pytest.raises(ValueError, match="positive"):
            lc.ll_evolve(up, J, 1.0, dt=-0.1)
        with pytest.raises(ValueError, match="positive"):
            lc.ll_evolve(up, J, 1.0, T=0.0)
        with pytest.raises(ValueError, match="L >= 2"):
            lc.ll_evolve(up[:1], J, 1.0)
        for max_samples in (0, -3):
            with pytest.raises(ValueError, match="max_samples"):
                lc.ll_evolve(up, J, 1.0, T=1.0, max_samples=max_samples)
        for S in (0.0, -1.0):
            with pytest.raises(ValueError, match="spin length S"):
                lc.ll_evolve(up, J, S)
        for span in ("dt", "T"):
            for value in (math.inf, math.nan):
                with pytest.raises(ValueError, match=f"{span} must be positive and finite"):
                    lc.ll_evolve(up, J, 1.0, **{span: value})
        for J_bad in ((math.inf, 1.0, 0.5), scars.XYZCouplings(1.0, 1.0, 0.5).detuned(dJz=math.nan)):
            with pytest.raises(ValueError, match="couplings must be finite"):
                lc.ll_evolve(up, J_bad, 1.0, T=1.0)
        with pytest.raises(ValueError, match="T / dt = 1e\\+308 / 1e-10 is not a finite"):
            lc.ll_evolve(up, J, 1.0, T=1e308, dt=1e-10)

    def test_step_budget(self, monkeypatch):
        """A run over MAX_STEPS raises, naming T, dt and the count, before its
        first step; a run of exactly MAX_STEPS goes ahead."""
        up = np.tile([0.0, 0.0, 1.0], (2, 1))
        J = np.diag([0.0, 0.0, 1.0])
        calls = count_rk4_steps(monkeypatch)
        with pytest.raises(ValueError, match=r"T = 1e\+12 at dt = 0.005 takes 2e\+14 RK4 steps"):
            lc.ll_evolve(up, J, 1.0, T=1e12)
        monkeypatch.setattr(lc, "MAX_STEPS", 100)
        with pytest.raises(ValueError, match="takes 101 RK4 steps, over 1e\\+02"):
            lc.ll_evolve(up, J, 1.0, T=1.01, dt=0.01)
        assert not calls
        lc.ll_evolve(up, J, 1.0, T=1.0, dt=0.01)
        assert len(calls) == 100

    def test_dt_is_an_upper_bound(self):
        """dt = 0.8 over T = 1 takes two steps of 0.5, not one of 1.0."""
        up = np.tile([0.0, 0.0, 1.0], (2, 1))
        traj = lc.ll_evolve(up, np.diag([0.0, 0.0, 1.0]), 0.5, dt=0.8, T=1.0)
        np.testing.assert_array_equal(traj.times, [0.0, 0.5, 1.0])
        assert traj.dt == 0.5

    def test_default_step_count(self, monkeypatch):
        """T / dt = 20 / 5e-3 lands on 4,000 steps despite its rounding error."""
        calls = count_rk4_steps(monkeypatch)
        up = np.tile([0.0, 0.0, 1.0], (2, 1))
        traj = lc.ll_evolve(up, np.diag([0.0, 0.0, 1.0]), 1.0, T=20.0)
        assert len(calls) == 4_000
        assert traj.dt == 20.0 / 4_000

    def test_default_step_matches_finer_step(self):
        """Oracle for the default dt = 5e-3/S: the 1e-3/S path it replaced agrees."""
        tex = random_texture(10, seed=7)
        J = scars.XYZCouplings(1.0, 0.7, 0.4)
        coarse = lc.ll_evolve(tex, J, 1.0, T=10.0)
        fine = lc.ll_evolve(tex, J, 1.0, dt=1e-3, T=10.0)
        np.testing.assert_allclose(coarse.times, fine.times, rtol=0, atol=1e-12)
        assert np.abs(coarse.textures - fine.textures).max() <= 1e-7

    def test_short_default_run_steps_to_every_sample(self, monkeypatch):
        """Under max_samples - 1 steps of 5e-3/S, the default step shrinks to T / (max_samples - 1)."""
        calls = count_rk4_steps(monkeypatch)
        up = np.tile([0.0, 0.0, 1.0], (2, 1))
        J = np.diag([0.0, 0.0, 1.0])
        traj = lc.ll_evolve(up, J, 1.0, T=2.0)
        assert len(calls) == 1_000
        assert len(traj.times) == 1_001
        assert traj.dt == 2.0 / 1_000
        # an explicit bound is taken as given
        calls.clear()
        traj = lc.ll_evolve(up, J, 1.0, dt=5e-3, T=2.0)
        assert len(calls) == 400
        assert len(traj.times) == 401

    @pytest.mark.parametrize(
        "L, S, kwargs, n_steps, stride",
        [
            pytest.param(6, 1.0, {"dt": 0.01, "T": 3.0, "max_samples": 7}, 300, 43, id="thinned"),
            pytest.param(5, 0.5, {"T": 0.2, "max_samples": 41}, 40, 1, id="default_shrinks"),
            pytest.param(2, 0.5, {"dt": 0.02, "T": 1.0, "max_samples": 10}, 50, 5, id="L2"),
        ],
    )
    def test_bit_identical_to_reference_loop(self, L, S, kwargs, n_steps, stride):
        """Pad once, step, unpad at samples: the trajectory, energies and drift
        are bit-identical to the reference loop with the same step count and stride."""
        tex = random_texture(L, seed=L)
        J = scars.XYZCouplings(1.0, 0.7, -0.4)
        traj = lc.ll_evolve(tex, J, S, **kwargs)
        times, textures, energies, drift = reference_ll_evolve(
            tex, scars.coupling_matrix(J), S, kwargs["T"], n_steps, stride
        )
        assert traj.dt == kwargs["T"] / n_steps
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.textures, textures)
        assert np.array_equal(traj.energy, energies)
        assert traj.max_norm_drift == drift

    def test_snapshot_thinning(self):
        tex = random_texture(6, seed=1)
        J = scars.XYZCouplings(1.0, 0.9, 0.3)
        traj = lc.ll_evolve(tex, J, 1.0, T=1.0, max_samples=10)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        assert len(traj.times) <= 12
        assert traj.textures.shape == (len(traj.times), 6, 3)
        assert traj.energy.shape == (len(traj.times),)

    def test_cli_round_trip(self, tmp_path):
        """ll-evolve writes the library trajectory as (t, j, Ox, Oy, Oz) rows
        with one sidecar, and its energy series beside it with none."""
        argv = ["ll-evolve", "--kappa", "0.8", "--M", "1", "--L", "5", "--gamma", "1",
                "--dJx", "0.05", "--T", "0.5", "--max-samples", "20", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        p = scars.ScarParams.commensurate(0.8, 1, 5, gamma=1.0)
        J = scars.parent_couplings(p.kappa, p.q).detuned(dJx=0.05)
        traj = lc.ll_evolve(scars.scar_texture(p), J, 1.0, T=0.5, max_samples=20)
        rows = np.loadtxt(tmp_path / "ll_trajectory.csv", delimiter=",", skiprows=1)
        nt, L = len(traj.times), 5
        assert rows.shape == (nt * L, 5)
        np.testing.assert_array_equal(rows[:, 0], np.repeat(traj.times, L))
        np.testing.assert_array_equal(rows[:, 1], np.tile(np.arange(L), nt))
        np.testing.assert_array_equal(rows[:, 2:].reshape(nt, L, 3), traj.textures)
        energy = np.loadtxt(tmp_path / "ll_energy.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(energy, np.column_stack([traj.times, traj.energy]))
        sidecar = json.loads((tmp_path / "ll_trajectory.json").read_text())
        assert sidecar["kind"] == "classical_trajectory"
        assert sidecar["params"]["L"] == L
        assert sidecar["diagnostics"]["dt"] == traj.dt
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "ll_energy.csv", "ll_trajectory.csv", "ll_trajectory.json"]


class TestTravelingWaveResiduals:
    def test_rotating_circular_helix(self):
        """kappa=0 family: z-detuning is absorbed by a rigid rotation."""
        theta, S = np.pi / 4, 1.5
        omega = -2.0 * S * np.cos(theta) * 0.05
        r1, r2, r3 = lc.traveling_wave_residuals(
            0.0, np.pi / 3, np.cos(theta), omega, (0.0, 0.0, 0.05), S, 16
        )
        assert max(r1.max(), r2.max(), r3.max()) <= 1e-10

    def test_static_gtsh_with_z_detuning(self):
        kappa = 0.9
        q = elliptic.complete_K(kappa) / 2.0
        for dJz in (0.04, -0.04):
            r1, r2, r3 = lc.traveling_wave_residuals(
                kappa, q, 0.0, 0.0, (0.0, 0.0, dJz), 1.0, 12
            )
            assert max(r1.max(), r2.max(), r3.max()) <= 1e-10

    def test_static_glsh_with_x_detuning(self):
        kappa = 0.8
        q = elliptic.complete_K(kappa) / 3.0
        r1, r2, r3 = lc.traveling_wave_residuals(
            kappa, q, 1.0, 0.0, (0.07, 0.0, 0.0), 1.0, 12
        )
        assert max(r1.max(), r2.max(), r3.max()) <= 1e-10

    def test_broken_ansatz_is_flagged_and_actually_moves(self):
        """Intermediate gamma with z-detuning: nonzero residual, real drift.

        The residual claims the static ansatz fails; the integrator confirms
        it by leaving the initial texture at O(dJz * T) distance.
        """
        kappa, gamma, dJz = 0.7, 0.5, 0.05
        K = elliptic.complete_K(kappa)
        q = 4.0 * K / 12
        r1, r2, r3 = lc.traveling_wave_residuals(
            kappa, q, gamma, 0.0, (0.0, 0.0, dJz), 1.0, 12
        )
        assert max(r1.max(), r2.max(), r3.max()) > 1e-3
        params = scars.ScarParams(kappa=kappa, q=q, gamma=gamma, L=12, S=1.0)
        tex = scars.scar_texture(params)
        J = scars.parent_couplings(kappa, q).detuned(dJz=dJz)
        traj = lc.ll_evolve(tex, J, 1.0, T=2.0)
        assert np.abs(traj.textures[-1] - tex).max() > 1e-3

    def test_glsh_amplitude_exact_at_small_kappa(self):
        """At gamma = 1, beta is kappa itself, so r1 keeps full relative accuracy.

        The cancelling form sqrt(1 - gamma^2 (1 - kappa^2)) reads 1.054e-8 at
        kappa = 1e-8, a 5.4% error carried straight into r1.
        """
        kappa, q, S, L = 1e-8, 0.7, 1.5, 9
        dJy, dJz = 0.02, 0.03
        r1, _, _ = lc.traveling_wave_residuals(kappa, q, 1.0, 0.1, (0.01, dJy, dJz), S, L)
        sn_u = elliptic.jacobi_sncndn(q * np.arange(L), kappa)[0]
        sn_q, cn_q, dn_q = elliptic.jacobi_sncndn(q, kappa)
        denom = 1.0 - (kappa * sn_u * sn_q) ** 2
        expected = 2.0 * S * kappa * abs((dJy * cn_q - dJz) * dn_q) / denom
        np.testing.assert_allclose(r1, expected, rtol=1e-12, atol=0.0)

    def test_gamma_outside_unit_interval_raises(self):
        with pytest.raises(ValueError, match="gamma"):
            lc.traveling_wave_residuals(0.5, 0.7, 1.1, 0.0, (0.0, 0.0, 0.0), 1.0, 9)

    def test_residuals_are_per_site_arrays(self):
        r1, r2, r3 = lc.traveling_wave_residuals(
            0.5, 0.7, 0.3, 0.1, (0.01, 0.0, 0.02), 1.0, 9
        )
        assert r1.shape == r2.shape == r3.shape == (9,)


@pytest.fixture(scope="module")
def rotating_unstable_helix():
    """A cheap converged case whose base moves: the L = 24 helix at dJz = +0.2.

    The z-detuned helix rotates rigidly, and its k = 2 pi/24 mode grows at
    about 0.073, so T = 100 gives 3.6 e-folds over the second half.
    """
    theta, q = np.pi / 4, np.pi / 3
    helix = transverse_helix(theta, q, 24)
    J = scars.XYZCouplings(1.0, 1.0, np.cos(q) + 0.2)
    kwargs = {"S": 1.0, "T": 100.0, "discard_fraction": 0.5, "seed": 0}
    return helix, J, kwargs, lc.classical_lyapunov(helix, J, **kwargs)


class TestClassicalLyapunov:
    def test_scar_is_marginally_stable(self):
        kappa = 0.8
        K = elliptic.complete_K(kappa)
        S = 1.0
        params = scars.ScarParams(kappa=kappa, q=K / 3.0, gamma=0.5, L=12, S=S)
        tex = scars.scar_texture(params)
        J = scars.parent_couplings(kappa, params.q)
        est = lc.classical_lyapunov(tex, J, S, T=200.0)
        assert abs(est.rate) <= 1e-3 * S
        assert not est.converged

    def test_unstable_transverse_helix_rate(self):
        """Positive z-detuning: growth rate sin^2(theta) dJz S within 10%.

        The tangent kick spreads over the whole unstable band, so the
        pure-exponential window only opens once the fastest mode dominates;
        hence the long run and the late fit window.
        """
        theta, q, dJz, S = np.pi / 4, np.pi / 3, 0.03, 1.0
        helix = transverse_helix(theta, q, 120)
        J = scars.XYZCouplings(1.0, 1.0, np.cos(q) + dJz)
        est = lc.classical_lyapunov(helix, J, S, T=800.0, discard_fraction=0.5, seed=0)
        assert est.converged
        expected = np.sin(theta) ** 2 * dJz * S
        assert abs(est.rate - expected) <= 0.1 * expected

    def test_stable_transverse_helix(self):
        theta, q, dJz, S = np.pi / 4, np.pi / 3, -0.03, 1.0
        helix = transverse_helix(theta, q, 120)
        J = scars.XYZCouplings(1.0, 1.0, np.cos(q) + dJz)
        est = lc.classical_lyapunov(helix, J, S, T=400.0, seed=0)
        assert est.rate == 0.0
        assert not est.converged

    def test_norm_drift_raises(self):
        """The base trajectory's norm is checked at every renormalisation.

        dt = 0.8 is an upper bound: the unit interval runs two steps of 0.5.
        """
        p = scars.ScarParams.commensurate(0.0, 1, 8, gamma=0.7, S=1.0)
        J = scars.parent_couplings(0.0, p.q).detuned(dJx=0.3, dJz=0.5)
        with pytest.raises(lc.IntegrationError, match=r"reduce dt \(currently 5\.00e-01\)"):
            lc.classical_lyapunov(scars.scar_texture(p), J, 1.0, T=50.0, dt=0.8)

    @staticmethod
    def drift_one_trajectory(monkeypatch, which: int) -> None:
        """Scale trajectory `which` (0 base, 1 twin) of the padded pair by
        1 + 1e-5 after every step; the other one is left alone."""
        step = lc._rk4_step

        def drifts(state, *args):
            out = step(state, *args)
            out.reshape(2, -1)[which] *= 1.0 + 1e-5
            return out

        monkeypatch.setattr(lc, "_rk4_step", drifts)
        helix = transverse_helix(np.pi / 4, np.pi / 3, 12)
        J = scars.XYZCouplings(1.0, 1.0, np.cos(np.pi / 3) - 0.03)
        # two steps of 0.5 scale every norm of that trajectory by 1 + 2.00e-5
        with pytest.raises(lc.IntegrationError, match=r"norm drift 2\.00e-05 .* at t = 1\.000"):
            lc.classical_lyapunov(helix, J, 1.0, T=4.0, dt=0.5)

    def test_twin_norm_drift_raises(self, monkeypatch):
        """The twin's norm is checked too, before renormalisation hides its drift."""
        self.drift_one_trajectory(monkeypatch, 1)

    def test_base_norm_drift_raises(self, monkeypatch):
        """A drifting base alone raises as well."""
        self.drift_one_trajectory(monkeypatch, 0)

    @pytest.mark.parametrize("L, S", [(2, 1.0), (7, 0.5)])
    def test_bit_identical_to_reference_loop(self, L, S):
        """Pad, steps, unpad and re-pad at every renormalisation leave the
        growth curve and the drift bit-identical to the reference loop."""
        tex = random_texture(L, seed=L + 10)
        J = scars.XYZCouplings(1.0, 0.7, -0.4)
        # the interval 1/S over dt = 0.03/S: 34 steps per block, 6 blocks
        est = lc.classical_lyapunov(tex, J, S, T=6.0 / S, dt=0.03 / S, seed=3)
        growth, drift = reference_benettin(
            tex, scars.coupling_matrix(J), S, 1e-7, (1.0 / S) / 34, 34, 6, seed=3
        )
        assert np.array_equal(est.log_growth, growth)
        assert est.max_norm_drift == drift
        np.testing.assert_array_equal(est.times, np.arange(1, 7) / S)

    def test_default_step_count(self, monkeypatch):
        """The default dt gives 20 steps per renormalisation interval."""
        calls = count_rk4_steps(monkeypatch)
        helix = transverse_helix(np.pi / 4, np.pi / 3, 12)
        J = scars.XYZCouplings(1.0, 1.0, np.cos(np.pi / 3) - 0.03)
        est = lc.classical_lyapunov(helix, J, 1.0, T=4.0)
        assert len(est.times) == 4
        assert len(calls) == 4 * 20

    HELIX = transverse_helix(np.pi / 4, np.pi / 3, 12)

    @pytest.mark.parametrize(
        "texture, kwargs, match",
        [
            pytest.param(HELIX, {"dt": -0.1}, "dt must be positive", id="dt"),
            pytest.param(HELIX, {"T": -5.0}, "T must be positive", id="T"),
            pytest.param(HELIX, {"discard_fraction": 1.0}, "discard_fraction", id="discard_one"),
            pytest.param(HELIX, {"discard_fraction": -0.1}, "discard_fraction", id="discard_neg"),
            pytest.param(1.1 * HELIX, {}, "unit-norm", id="non_unit"),
            pytest.param(HELIX[:1], {}, "L >= 2", id="one_site"),
            pytest.param(HELIX, {"S": 0.0}, "spin length S", id="S_zero"),
            pytest.param(HELIX, {"S": -1.0}, "spin length S", id="S_negative"),
            pytest.param(HELIX, {"T": math.inf}, "T must be positive and finite", id="T_inf"),
            pytest.param(HELIX, {"dt": math.inf}, "dt must be positive and finite", id="dt_inf"),
            # the renormalisation interval is 1/S
            pytest.param(
                HELIX, {"S": 1e10, "T": 1e308},
                r"T / \(1/S\) = 1e\+308 / 1e-10 is not a finite", id="blocks_overflow",
            ),
            pytest.param(
                HELIX, {"S": 1e-308, "dt": 1e-10},
                r"\(1/S\) / dt = 1e\+308 / 1e-10 is not a finite", id="steps_overflow",
            ),
        ],
    )
    def test_input_validation(self, texture, kwargs, match):
        J = scars.XYZCouplings(1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match=match):
            lc.classical_lyapunov(texture, J, **{"S": 1.0, "T": 4.0, **kwargs})

    def test_step_budget(self, monkeypatch):
        """All blocks' steps together count against MAX_STEPS, checked before
        the first step."""
        J = scars.XYZCouplings(1.0, 1.0, 0.5)
        calls = count_rk4_steps(monkeypatch)
        with pytest.raises(ValueError, match=r"T = 1e\+12 at dt = 0.05 takes 2e\+13 RK4 steps"):
            lc.classical_lyapunov(self.HELIX, J, 1.0, T=1e12)
        monkeypatch.setattr(lc, "MAX_STEPS", 80)
        with pytest.raises(ValueError, match="takes 100 RK4 steps, over 8e\\+01"):
            lc.classical_lyapunov(self.HELIX, J, 1.0, T=5.0)
        assert not calls
        lc.classical_lyapunov(self.HELIX, J, 1.0, T=4.0)
        assert len(calls) == 4 * 20

    def test_growth_curve_is_recorded(self):
        helix = transverse_helix(np.pi / 4, np.pi / 3, 12)
        J = scars.XYZCouplings(1.0, 1.0, np.cos(np.pi / 3) - 0.03)
        est = lc.classical_lyapunov(helix, J, 1.0, T=50.0)
        assert est.times.shape == est.log_growth.shape
        assert len(est.times) >= 4
        # the fit's health is reported for an unconverged run too
        assert np.isfinite([est.slope_se, est.efolds, est.max_norm_drift]).all()
        assert est.efolds < 2.0

    def test_default_step_matches_fine_step(self, rotating_unstable_helix):
        """Oracle for the default dt: the rate at dt = 5e-3 agrees to 1e-3 relative."""
        helix, J, kwargs, est = rotating_unstable_helix
        fine = lc.classical_lyapunov(helix, J, dt=5e-3, **kwargs)
        assert est.converged and fine.converged
        assert abs(est.rate - fine.rate) <= 1e-3 * fine.rate

    def test_fit_health_diagnostics(self, rotating_unstable_helix):
        """slope_se, efolds and max_norm_drift describe the fit that set rate."""
        _, _, kwargs, est = rotating_unstable_helix
        assert est.converged
        assert np.isfinite([est.slope_se, est.efolds, est.max_norm_drift]).all()
        assert 0.0 < est.slope_se <= est.rate / 3.0
        start = int(kwargs["discard_fraction"] * len(est.times))
        window = est.times[-1] - est.times[start]
        assert est.efolds >= 2.0
        assert est.efolds == pytest.approx(est.rate * window, rel=1e-12)
        assert 0.0 <= est.max_norm_drift <= lc.NORM_DRIFT_TOL


class TestLinearizedDynamicsMatrix:
    def setup_method(self):
        self.theta, self.q, self.S = np.pi / 4, np.pi / 3, 1.0

    def _transverse_frame(self, dJz: float, L: int):
        omega = -2.0 * self.S * np.cos(self.theta) * dJz
        return rotframe.frame_transverse(self.theta, self.q, omega, L, dJz=dJz)

    def test_shape_and_realness(self):
        T = lc.linearized_dynamics_matrix(self._transverse_frame(0.03, 10), self.S)
        assert T.shape == (20, 20)
        assert T.dtype == np.float64

    def test_unstable_growth_matches_band_maximum(self):
        """Largest Re eigenvalue equals the analytic rate on the k-grid.

        For the z-detuned transverse helix the linear spectrum is known in
        closed form; on a finite ring only k = 2 pi n / L are allowed, so the
        matrix must reproduce the grid maximum of the growth band exactly.
        """
        dJz, L = 0.03, 120
        T = lc.linearized_dynamics_matrix(self._transverse_frame(dJz, L), self.S)
        eigs = np.linalg.eigvals(T)
        k = 2.0 * np.pi * np.arange(L) / L
        s2 = np.sin(k / 2.0) ** 2
        arg = 2.0 * (np.cos(self.q) + np.sin(self.theta) ** 2 * dJz) * s2
        arg -= np.sin(self.theta) ** 2 * dJz
        band = (
            2.0
            * np.sqrt(2.0)
            * np.abs(np.sin(k / 2.0))
            * np.sqrt(np.cos(self.q))
            * np.sqrt(np.abs(arg))
        )
        expected = band[arg < 0].max()
        assert abs(eigs.real.max() - expected) <= 1e-10

    def test_stable_spectrum_is_imaginary(self):
        T = lc.linearized_dynamics_matrix(self._transverse_frame(-0.03, 60), self.S)
        assert np.abs(np.linalg.eigvals(T).real).max() <= 1e-8

    def test_spectrum_in_plus_minus_pairs(self):
        """Real Hamiltonian generator: eigenvalues come in mu, -mu pairs."""
        from scipy.optimize import linear_sum_assignment

        T = lc.linearized_dynamics_matrix(self._transverse_frame(0.02, 14), self.S)
        eigs = np.linalg.eigvals(T)
        cost = np.abs(eigs[:, None] + eigs[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-9

    def test_works_at_minimal_ring(self):
        """L = 2 wires both neighbor hops onto the same column."""
        T = lc.linearized_dynamics_matrix(self._transverse_frame(0.01, 2), self.S)
        assert T.shape == (4, 4)
        assert np.isfinite(T).all()
