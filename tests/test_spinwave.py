"""Spin-wave coefficients, generator structure, CF4 propagation, contrast."""

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from xyzscar import bogoliubov as bg, cli, elliptic, lattice_classical as lc, rotframe, scars
from xyzscar import spinwave as sw
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment


def co_rotating_transverse(theta, q, dJz, L, S):
    omega = -2.0 * S * math.cos(theta) * dJz
    return rotframe.frame_transverse(theta=theta, q=q, omega=omega, L=L, dJz=dJz)


def elliptic_frame(kappa, q, gamma, L, delta=0.0):
    """scar_frame of gtsh (gamma = 0) or glsh (gamma = 1) at S = 1."""
    return rotframe.scar_frame(scars.ScarParams(kappa=kappa, q=q, gamma=gamma, L=L), delta)


def eig_multiset_distance(a, b):
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


class TestSWCoefficients:
    @pytest.mark.parametrize(
        "theta,q,dJz,S,L",
        [(math.pi / 4, math.pi / 3, 0.03, 1.0, 12), (math.pi / 5, 2 * math.pi / 7, -0.04, 1.5, 14)],
    )
    def test_transverse_closed_forms(self, theta, q, dJz, S, L):
        """Co-rotating transverse frames have uniform textbook coefficients."""
        frame = co_rotating_transverse(theta, q, dJz, L=L, S=S)
        co = sw.sw_coefficients(frame, S)
        X = math.sin(theta) ** 2 * dJz
        eta = 0.5 * S * (2.0 * math.cos(q) + X - 2j * math.cos(theta) * math.sin(q))
        np.testing.assert_allclose(co.eta, eta, atol=1e-14)
        np.testing.assert_allclose(co.zeta, 0.5 * S * X, atol=1e-14)
        np.testing.assert_allclose(co.V, -2.0 * S * math.cos(q), atol=1e-14)

    @pytest.mark.parametrize("family,kw", [("gtsh", "dJz"), ("glsh", "dJx")])
    def test_parent_pairing_vanishes(self, family, kw):
        """At zero detuning of the family's coupling kw."""
        kappa = 0.7
        q = elliptic.complete_K(kappa) / 2.0
        frame = elliptic_frame(kappa, q, 0.0 if family == "gtsh" else 1.0, 16)
        co = sw.sw_coefficients(frame, 1.0)
        assert np.abs(co.zeta).max() < 1e-15

    def test_onsite_potential_is_minus_precession(self):
        """V_j = -omega_j site by site, stationary or not."""
        S = 1.0
        for frame in [
            co_rotating_transverse(math.pi / 4, math.pi / 3, 0.03, 10, S),
            elliptic_frame(0.9, elliptic.complete_K(0.9) / 2, 0.0, 12, 0.05),
        ]:
            co = sw.sw_coefficients(frame, S)
            _, omega = rotframe.stationarity_residual(frame, S)
            np.testing.assert_allclose(co.V, -omega, atol=1e-13)

    def test_linear_in_spin_length(self):
        frame = elliptic_frame(0.5, elliptic.complete_K(0.5) / 2, 1.0, 8, 0.02)
        one = sw.sw_coefficients(frame, 1.0)
        three = sw.sw_coefficients(frame, 3.0)
        np.testing.assert_allclose(three.eta, 3.0 * one.eta, rtol=1e-15)
        np.testing.assert_allclose(three.zeta, 3.0 * one.zeta, rtol=1e-15)
        np.testing.assert_allclose(three.V, 3.0 * one.V, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            sw.SpinWaveCoefficients(eta=np.ones(3), zeta=np.ones(2), V=np.ones(3))
        with pytest.raises(ValueError, match="two sites"):
            sw.SpinWaveCoefficients(eta=np.ones(1), zeta=np.ones(1), V=np.ones(1))
        for field in ("eta", "zeta", "V"):
            for bad in (math.nan, math.inf):
                arrays = {"eta": np.ones(3), "zeta": np.ones(3), "V": np.ones(3)}
                arrays[field][1] = bad
                with pytest.raises(ValueError, match="must be finite"):
                    sw.SpinWaveCoefficients(**arrays)

    @pytest.mark.parametrize("S", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_spin_length(self, S):
        """The same message as contrast_sw, and no overflow warning first."""
        frame = elliptic_frame(0.5, elliptic.complete_K(0.5) / 2, 1.0, 8, 0.02)
        with pytest.raises(ValueError, match="spin length S must be positive and finite"):
            sw.sw_coefficients(frame, S)


class TestLinearGenerator:
    def test_two_site_ring_by_hand(self):
        """Both neighbors of a site coincide on the L = 2 ring."""
        co = sw.SpinWaveCoefficients(
            eta=[0.3 + 0.1j, -0.2 + 0.4j], zeta=[0.05, -0.07], V=[1.5, -2.5]
        )
        C = sw.build_linear_generator(co)
        M_expected = np.array(
            [
                [1.5, (-0.2 + 0.4j) + (0.3 - 0.1j)],
                [(0.3 + 0.1j) + (-0.2 - 0.4j), -2.5],
            ]
        )
        N_expected = np.array([[0.0, -0.02], [-0.02, 0.0]])
        np.testing.assert_allclose(C[:2, :2], M_expected, atol=1e-16)
        np.testing.assert_allclose(C[:2, 2:], N_expected, atol=1e-16)
        np.testing.assert_allclose(C[2:, :2], -np.conj(N_expected), atol=1e-16)
        np.testing.assert_allclose(C[2:, 2:], -np.conj(M_expected), atol=1e-16)

    def test_block_structure(self):
        frame = co_rotating_transverse(math.pi / 4, math.pi / 3, 0.03, 8, 1.0)
        co = sw.sw_coefficients(frame, 1.0)
        C = sw.build_linear_generator(co)
        L = co.L
        assert C.shape == (2 * L, 2 * L)
        M, N = C[:L, :L], C[:L, L:]
        np.testing.assert_allclose(np.diag(M), co.V, atol=1e-15)
        np.testing.assert_allclose(M, np.conj(M).T, atol=1e-15)
        np.testing.assert_allclose(N, N.T, atol=1e-15)
        np.testing.assert_allclose(C[L:, :L], -np.conj(N), atol=1e-15)
        np.testing.assert_allclose(C[L:, L:], -np.conj(M), atol=1e-15)

    @pytest.mark.parametrize(
        "frame,S",
        [
            (co_rotating_transverse(math.pi / 4, math.pi / 3, 0.03, 12, 1.0), 1.0),
            (elliptic_frame(0.9, elliptic.complete_K(0.9) / 2, 0.0, 16, 0.02), 1.0),
            (elliptic_frame(0.8, elliptic.complete_K(0.8) / 2, 1.0, 16, -0.02), 0.5),
        ],
    )
    def test_similarity_with_classical_linearization(self, frame, S):
        """C and i T are similar via the quadrature change of basis.

        This holds even where the spectrum is defective (the co-rotating
        detuned helix has an exact Jordan pair at the Goldstone mode), which
        eigenvalue matching cannot resolve.
        """
        co = sw.sw_coefficients(frame, S)
        C = sw.build_linear_generator(co)
        T = lc.linearized_dynamics_matrix(frame, S)
        L = co.L
        eye = np.eye(L)
        Q = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / math.sqrt(2.0)
        scale = max(1.0, np.abs(C).max())
        assert np.abs(C @ Q - 1j * Q @ T).max() / scale < 1e-13

    def test_spectrum_matches_classical_linearization(self):
        """Away from defective points the eigenvalue multisets agree too."""
        frame = rotframe.frame_transverse(
            theta=math.pi / 3, q=math.pi / 5, omega=0.1, L=20, dJz=0.0
        )
        co = sw.sw_coefficients(frame, 1.0)
        eC = np.linalg.eigvals(sw.build_linear_generator(co))
        eT = np.linalg.eigvals(lc.linearized_dynamics_matrix(frame, 1.0))
        assert eig_multiset_distance(eC, 1j * eT) < 1e-10


def manufactured_coefficients(t):
    eta = np.array([0.4 + 0.2 * math.sin(t), 0.1 - 0.3j * math.cos(2 * t), 0.5])
    zeta = np.array([0.12 * math.cos(t), -0.07, 0.02 * math.sin(t)])
    V = np.array([1.0 + 0.5 * math.sin(3 * t), -0.4, 0.3 * math.cos(t)])
    return sw.SpinWaveCoefficients(eta=eta, zeta=zeta, V=V)


def reference_cf4_propagator(coeffs, t, dt):
    """The hand-written CF4 loop: round(t / dt) equal steps, at least one,
    of the real quadrature propagator, mapped to U at the end."""
    n = max(1, int(round(t / dt)))
    h = t / n
    E = np.eye(2 * coeffs(0.0).L)
    for step in range(n):
        E = sw._cf4_step(coeffs, step * h, h) @ E
    return sw._complex_from_quadratures(E)


def complex_cf4_step(coeffs, t0, h):
    """The CF4 step on the complex generator -iC: the oracle for the real
    quadrature step."""
    F1 = -1j * sw.build_linear_generator(coeffs(t0 + sw._CF4_C1 * h))
    F2 = -1j * sw.build_linear_generator(coeffs(t0 + sw._CF4_C2 * h))
    first = expm(h * (sw._CF4_A1 * F1 + sw._CF4_A2 * F2))
    second = expm(h * (sw._CF4_A2 * F1 + sw._CF4_A1 * F2))
    return second @ first


def complex_pair_density(advance, L, n_samples, S):
    """Contrast D = 1 - (pair density)/(L S) at n_samples equispaced samples.

    Propagates the left half-columns of U, shape (2L, L), from the identity:
    advance(n, V) carries them from sample n-1 to sample n, and the pair
    density is the sum of |anomalous block|^2. Returns D (with D[0] = 1
    exactly) and the final half-columns.
    """
    V = np.zeros((2 * L, L), dtype=complex)
    V[:L] = np.eye(L)
    D = np.empty(n_samples)
    D[0] = 1.0
    for n in range(1, n_samples):
        V = advance(n, V)
        D[n] = 1.0 - np.sum(np.abs(V[L:]) ** 2) / (L * S)
    return D, V


def count_cf4_steps(monkeypatch) -> list:
    calls = []
    step = sw._cf4_step

    def counted(*args):
        calls.append(args[2])
        return step(*args)

    monkeypatch.setattr(sw, "_cf4_step", counted)
    return calls


class TestPropagator:
    @pytest.mark.parametrize("t,dt", [(1.0, 0.25), (1.0, 1.0 / 64), (2.0, 0.01), (0.3, 0.1)])
    def test_matches_cf4_reference(self, t, dt):
        """At whole-number t / dt the stepper is the old loop, bit for bit."""
        np.testing.assert_array_equal(
            sw.propagator(manufactured_coefficients, t, dt=dt),
            reference_cf4_propagator(manufactured_coefficients, t, dt),
        )

    @pytest.mark.parametrize("t,dt", [(1.0, 0.25), (1.0, 1.0 / 64), (2.0, 0.01), (0.3, 0.1)])
    def test_matches_complex_cf4_oracle(self, t, dt):
        """The real quadrature route against CF4 on the complex generator."""
        n = max(1, int(round(t / dt)))
        h = t / n
        U = np.eye(6, dtype=complex)
        for step in range(n):
            U = complex_cf4_step(manufactured_coefficients, step * h, h) @ U
        assert np.abs(sw.propagator(manufactured_coefficients, t, dt=dt) - U).max() <= 1e-13

    def test_dt_is_an_upper_bound(self, monkeypatch):
        calls = count_cf4_steps(monkeypatch)
        sw.propagator(manufactured_coefficients, 1.0, dt=0.8)
        assert calls == [0.5, 0.5]
        del calls[:]
        frame = co_rotating_transverse(math.pi / 4, math.pi / 3, 0.03, 6, 1.0)
        co = sw.sw_coefficients(frame, 1.0)
        sw.contrast_sw(lambda t: co, 1.0, dt=0.08, T=1.0, n_samples=11)
        assert len(calls) == 20
        np.testing.assert_allclose(calls, 0.05, rtol=1e-15)

    def test_static_propagator_checks_pseudo_unitarity(self, monkeypatch):
        expm = sw.expm
        monkeypatch.setattr(sw, "expm", lambda *args: 1.001 * expm(*args))
        co = manufactured_coefficients(0.0)
        with pytest.raises(RuntimeError, match="pseudo-unitarity"):
            sw.propagator(co, 1.0)

    def test_zero_time_is_identity(self):
        np.testing.assert_array_equal(
            sw.propagator(manufactured_coefficients, 0.0), np.eye(6)
        )

    def test_static_pseudo_unitarity(self):
        frame = co_rotating_transverse(math.pi / 4, math.pi / 3, 0.03, 10, 1.0)
        co = sw.sw_coefficients(frame, 1.0)
        U = sw.propagator(co, 7.0)
        L = co.L
        Sigma = np.diag(np.concatenate([np.ones(L), -np.ones(L)]))
        assert np.abs(np.conj(U).T @ Sigma @ U - Sigma).max() < 1e-12

    def test_constant_callable_matches_static(self):
        frame = co_rotating_transverse(math.pi / 4, math.pi / 3, 0.03, 6, 1.0)
        co = sw.sw_coefficients(frame, 1.0)
        U_static = sw.propagator(co, 2.0)
        U_cf4 = sw.propagator(lambda t: co, 2.0, dt=0.01)
        assert np.abs(U_static - U_cf4).max() < 1e-11

    def test_cf4_fourth_order(self):
        """Halving the step shrinks the error by ~2^4."""
        t = 1.0
        ref = sw.propagator(manufactured_coefficients, t, dt=1.0 / 1024)
        errs = [
            np.abs(sw.propagator(manufactured_coefficients, t, dt=dt) - ref).max()
            for dt in (1.0 / 16, 1.0 / 32, 1.0 / 64)
        ]
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        assert all(10.0 < r < 24.0 for r in ratios), ratios

    def test_pseudo_unitarity_guard(self):
        with pytest.raises(RuntimeError, match="reduce the step"):
            sw._check_symplectic(1.1 * np.eye(6), 0.1)

    def test_pseudo_unitarity_guard_names_rounding_growth(self):
        """A symplectic squeeze of gain 1e5 has a defect of rounding alone,
        relative to ||E||_F^2, yet above the tolerance: the message says so."""
        def rotation(a):
            return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])

        E = rotation(0.3) @ np.diag([1e5, 1e-5]) @ rotation(1.1)
        with pytest.raises(RuntimeError, match=r"\|\|E\|\|_F 1.00e\+05, .*so shorten T$"):
            sw._check_symplectic(E, 0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match=r"\|\|E\|\|_F inf, .*so shorten T$"):
                sw._check_symplectic(E * 1e300, 0.1)

    def test_overflow_raises_one_error_without_warnings(self):
        """An overflowing E fails the pseudo-unitarity check, with no numpy
        overflow warning ahead of the error, static and callable alike."""
        frame = co_rotating_transverse(math.pi / 4, math.pi / 3, 0.5, 24, 1.0)
        co = sw.sw_coefficients(frame, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="pseudo-unitarity.*so shorten T$"):
                sw.propagator(co, 3000.0)
            with pytest.raises(RuntimeError, match="pseudo-unitarity.*so shorten T$"):
                sw.propagator(lambda t: co, 3000.0, dt=1000.0)

    def test_static_contrast_checks_pseudo_unitarity(self, monkeypatch):
        """A corrupted sample-step exponential must not pass silently."""
        expm = sw.expm
        monkeypatch.setattr(sw, "expm", lambda *args: 1.001 * expm(*args))
        frame = co_rotating_transverse(math.pi / 4, math.pi / 3, -0.03, 8, 1.0)
        with pytest.raises(RuntimeError, match="pseudo-unitarity"):
            sw.contrast_sw(sw.sw_coefficients(frame, 1.0), 1.0, T=2.0, n_samples=11)


def reference_static_contrast(coeffs, S, T, n_samples):
    """The complex half-column loop with one sample-step exponential of -iC
    per sample: the oracle for the static branch of contrast_sw."""
    times = np.linspace(0.0, T, n_samples)
    E = expm(-1j * (times[1] - times[0]) * sw.build_linear_generator(coeffs))
    return complex_pair_density(lambda n, V: E @ V, coeffs.L, n_samples, S)[0]


class TestContrastSW:
    def test_parent_state_keeps_full_contrast(self):
        # q = K/2 means an 8-site unit cell, so the ring must be a multiple of 8
        frame = elliptic_frame(0.6, elliptic.complete_K(0.6) / 2, 0.0, 16)
        co = sw.sw_coefficients(frame, 1.0)
        series = sw.contrast_sw(co, 1.0, T=10.0, n_samples=101)
        np.testing.assert_allclose(series.D, 1.0, atol=1e-12)

    def test_initial_value_and_bound(self):
        frame = co_rotating_transverse(math.pi / 4, math.pi / 3, -0.03, 24, 1.0)
        co = sw.sw_coefficients(frame, 1.0)
        series = sw.contrast_sw(co, 1.0, T=20.0, n_samples=201)
        assert series.D[0] == 1.0
        assert np.all(series.D <= 1.0 + 1e-12)
        np.testing.assert_allclose(series.f, 1.0 - series.D, rtol=1e-15)

    @pytest.mark.parametrize(
        "family,L,S,detuning,T,n_samples",
        [
            ("transverse", 240, 1.0, 0.03, 30.0, 301),
            ("transverse", 120, 1.0, -0.03, 20.0, 201),
            ("transverse", 120, 2.0, -0.03, 10.0, 201),
            ("glsh", 140, 1.0, -0.02, 20.0, 81),
            ("transverse", 48, 1.0, 0.03, 200.0, 2001),
        ],
    )
    def test_static_route_matches_half_column_loop(self, family, L, S, detuning, T, n_samples):
        """Real quadrature powers and Frobenius norms against the complex
        half-column loop: gate 07's ring at the unstable sign, gate 06's
        collapse entries, the benchmark's glsh ring, and a long run whose
        1 - D grows far past 1."""
        if family == "glsh":
            q = 4.0 * elliptic.complete_K(0.8) / 7
            frame = elliptic_frame(0.8, q, 1.0, L, detuning)
        else:
            frame = co_rotating_transverse(math.pi / 4, math.pi / 3, detuning, L, S)
        co = sw.sw_coefficients(frame, S)
        series = sw.contrast_sw(co, S, T=T, n_samples=n_samples)
        assert series.D[0] == 1.0
        assert np.abs(series.D - reference_static_contrast(co, S, T, n_samples)).max() <= 1e-12
        assert series.pseudo_unitarity_defect <= 1e-12

    def test_overflow_raises_one_error_without_warnings(self):
        frame = co_rotating_transverse(math.pi / 4, math.pi / 3, 0.5, 24, 1.0)
        co = sw.sw_coefficients(frame, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="overflowed"):
                sw.contrast_sw(co, 1.0, T=3000.0, n_samples=31)
            with pytest.raises(RuntimeError, match="pseudo-unitarity"):
                sw.contrast_sw(lambda t: co, 1.0, T=3000.0, n_samples=4, dt=1000.0)

    @pytest.mark.parametrize(
        "L,dJz", [(12, -0.03), (12, 0.03), (48, -0.03), (48, 0.03), (3, None)]
    )
    def test_cf4_route_matches_complex_half_column_loop(self, L, dJz):
        """The CF4 branch of contrast_sw, real quadratures and Frobenius
        norms, against complex CF4 steps on the left half-columns of U: the
        detuned transverse ring, and (dJz None) the time-dependent
        manufactured coefficients, which also check each sample's start time.
        Static coefficients give one complex step, built once."""
        if dJz is None:
            coeffs = manufactured_coefficients
        else:
            frame = co_rotating_transverse(math.pi / 4, math.pi / 3, dJz, L, 1.0)
            co = sw.sw_coefficients(frame, 1.0)
            coeffs = lambda t: co
        T, n_samples, dt = 10.0, 51, 0.02
        series = sw.contrast_sw(coeffs, 1.0, T=T, n_samples=n_samples, dt=dt)
        times = np.linspace(0.0, T, n_samples)
        n = round((times[1] - times[0]) / dt)
        h = (times[1] - times[0]) / n
        if dJz is None:
            step = lambda t0: complex_cf4_step(coeffs, t0, h)
        else:
            static_step = complex_cf4_step(coeffs, 0.0, h)
            step = lambda t0: static_step

        def advance(k, V):
            for m in range(n):
                V = step(times[k - 1] + m * h) @ V
            return V

        D, _ = complex_pair_density(advance, L, n_samples, 1.0)
        assert series.D[0] == 1.0
        assert np.abs(series.D - D).max() <= 1e-12
        assert series.pseudo_unitarity_defect <= 1e-12

    def test_static_and_callable_routes_agree(self):
        frame = co_rotating_transverse(math.pi / 4, math.pi / 3, 0.03, 12, 1.0)
        co = sw.sw_coefficients(frame, 1.0)
        static = sw.contrast_sw(co, 1.0, T=5.0, n_samples=26)
        dynamic = sw.contrast_sw(lambda t: co, 1.0, T=5.0, n_samples=26, dt=2e-3)
        np.testing.assert_allclose(dynamic.D, static.D, atol=1e-10)

    def test_unstable_side_decays_faster(self):
        """The positive-detuning exponential outruns the algebraic branch."""
        L, S, T = 240, 1.0, 250.0
        curves = {}
        for dJz in (-0.03, 0.03):
            frame = co_rotating_transverse(math.pi / 4, math.pi / 3, dJz, L, S)
            co = sw.sw_coefficients(frame, S)
            curves[dJz] = sw.contrast_sw(co, S, T=T, n_samples=26).f
        assert curves[0.03][-1] > 10.0 * curves[-0.03][-1]

    def test_spin_contrast_column(self):
        theta = math.pi / 4
        frame = co_rotating_transverse(theta, math.pi / 3, -0.03, 12, 1.0)
        co = sw.sw_coefficients(frame, 1.0)
        series = sw.contrast_sw(co, 1.0, T=5.0, n_samples=21)
        expected = (series.D - math.cos(theta) ** 2) / math.sin(theta) ** 2
        np.testing.assert_allclose(sw.spin_contrast(series.D, theta), expected, rtol=1e-15)
        np.testing.assert_array_equal(sw.spin_contrast(list(series.D), theta),
                                      sw.spin_contrast(series.D, theta))

    def test_spin_contrast_rejects_poles(self):
        with pytest.raises(ValueError, match="theta"):
            sw.spin_contrast(np.array([1.0, 0.9]), 0.0)

    def test_validation(self):
        frame = co_rotating_transverse(math.pi / 4, math.pi / 3, 0.0, 6, 1.0)
        co = sw.sw_coefficients(frame, 1.0)
        for T in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive"):
                sw.contrast_sw(co, 1.0, T=T)
        with pytest.raises(ValueError, match="two samples"):
            sw.contrast_sw(co, 1.0, n_samples=1)
        for S in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="spin length"):
                sw.contrast_sw(co, S)


_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


def _reference_flush(X):
    X[np.abs(X) < _SQRT_TINY] = 0.0
    return X


@np.errstate(over="ignore", invalid="ignore")
def reference_power_contrast(G, h, n_samples, S):
    """The previous power kernel, the oracle of _power_contrast: r = isqrt(N)
    full baby Gram matrices E^a (E^a)^T, a = 0 .. r - 1, kept for the whole
    stack at once, and giant steps E^{rb} with nonnegative offsets only.
    The exponential is taken through sw.expm, so a monkeypatch reaches both."""
    batch, dim = G.shape[0], G.shape[-1]
    n_steps = n_samples - 1
    r = math.isqrt(n_steps)
    E = _reference_flush(sw.expm(h * G))
    power = np.broadcast_to(np.eye(dim), G.shape)
    grams = np.empty((r,) + G.shape)
    for a in range(r):
        if a:
            power = _reference_flush(power @ E)
        grams[a] = _reference_flush(power @ np.swapaxes(power, -1, -2))
        if a == n_steps % r:
            tail = power
    stride = _reference_flush(power @ E)
    giant = np.broadcast_to(np.eye(dim), G.shape)
    norms = np.empty(n_samples)
    flat = grams.reshape(r, -1)
    for b in range(n_steps // r + 1):
        if b:
            giant = _reference_flush(giant @ stride)
        lo = b * r
        hi = min(lo + r, n_samples)
        gram = _reference_flush(np.swapaxes(giant, -1, -2) @ giant)
        norms[lo:hi] = (flat @ gram.ravel())[: hi - lo]
        if not np.isfinite(norms[lo:hi]).all():
            bad = lo + int(np.argmin(np.isfinite(norms[lo:hi])))
            raise RuntimeError(
                f"spin-wave propagator overflowed at t = {bad * h:.6g}; "
                "the growth exceeds double range, so shorten T"
            )
    defect = sw._check_symplectic(giant @ tail, h)
    return sw._contrast_from_norms(norms / batch, dim, S), defect


def transverse_ring(L, dJz, S=1.0, q=math.pi / 3):
    """Static coefficients of the detuned transverse ring at theta = pi/4."""
    return sw.sw_coefficients(co_rotating_transverse(math.pi / 4, q, dJz, L, S), S)


def ring_generator(L, dJz, S=1.0):
    """The (1, 2L, 2L) quadrature generator of the detuned transverse ring."""
    return sw._quadrature_generator(transverse_ring(L, dJz, S))[None]


def bloch_generators(family, kappa, lam, delta, n_k):
    """The blocks of Bloch generators that contrast_multiflavour hands to the
    power kernel, as a list."""
    q = 4.0 * elliptic.complete_K(kappa) / lam
    received = []

    def record(blocks, h, n_samples, S):
        received.extend(blocks)
        return np.ones(n_samples), 0.0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bg, "_power_contrast", record)
        bg.contrast_multiflavour(family, kappa, q, delta, 1.0, n_k=n_k, n_samples=2)
    return received


def kernel_error(blocks, h, n_samples, S=1.0):
    """Largest |D - D_ref| over the samples, in units of max(1, |1 - D_ref|),
    with D(0) required exactly 1; the reference takes the blocks as one stack."""
    D, _ = sw._power_contrast(blocks, h, n_samples, S)
    ref, _ = reference_power_contrast(np.concatenate(blocks), h, n_samples, S)
    assert D[0] == 1.0
    return float(np.max(np.abs(D - ref) / np.maximum(1.0, np.abs(1.0 - ref))))


def raised(f, *args):
    with pytest.raises(RuntimeError) as info:
        f(*args)
    return str(info.value)


# (dJz, T, n_samples) on the L = 24 ring: one sample step at dJz = 0.5 and
# h = 100 grows E by up to e^20, so only positive offsets are taken; the
# milder steps at dJz = 0.3 and 0.1 keep negative ones up to the overflow
OVERFLOW_CASES = [
    (0.5, 3000.0, 31), (0.5, 3000.0, 301), (0.5, 5000.0, 13), (0.5, 2500.0, 2),
    (0.5, 2500.0, 3), (0.3, 4000.0, 401), (0.3, 4000.0, 2001), (0.1, 20000.0, 1001),
]


class TestPowerContrast:
    """_power_contrast against the previous kernel. D agrees to 1e-12, in
    units of max(1, |1 - D|): both kernels round ||E^n||_F^2 at about 1e-15
    relative, so a ring grown to ||E||_F ~ 1e3, whose 1 - D is ~1e4, agrees to
    ~5e-11 absolute, as far as either lies from an extended-precision loop."""

    @pytest.mark.parametrize(
        "n_samples",
        # 228: a prime N; 309: N mod r = half + 1; 314: N mod r > half + 1,
        # where the tail E^half E^{s - half} is formed (r = 15, half = 7)
        [2, 3, 4, 301, 228, 309, 314],
    )
    def test_sample_counts_on_a_stable_ring(self, n_samples):
        assert kernel_error([ring_generator(24, -0.03)], 30.0 / (n_samples - 1), n_samples) <= 1e-12

    @pytest.mark.parametrize("L,dJz,T", [(48, -0.03, 30.0), (48, 0.03, 200.0), (24, 0.3, 50.0)])
    def test_stable_and_unstable_rings(self, L, dJz, T):
        """The last ring is grown to ||E||_F = 963 at T (1 - D = 9.65e3)."""
        G = ring_generator(L, dJz)
        if dJz == 0.3:
            assert 900 < np.linalg.norm(sw.expm(T * G)) < 1100
        assert kernel_error([G], T / 300, 301) <= 1e-12

    @pytest.mark.parametrize("dJz,T,n_samples", [(0.3, 60.0, 3), (0.3, 60.0, 4), (0.5, 30.0, 3)])
    def test_steep_sample_steps(self, dJz, T, n_samples):
        """A sample step that grows E ~30-fold: the offset -1 would cancel
        ~1e6-fold and miss by up to 2e-9, so the kernel keeps to positive
        offsets there."""
        assert kernel_error([ring_generator(24, dJz)], T / (n_samples - 1), n_samples) <= 1e-12

    def test_grown_ring_against_extended_precision(self):
        """The grown ring's ||E^n||_F^2 from a long-double loop over the same
        flushed E: the kernel stays within 1e-13 of it, in units of
        max(1, |1 - D|) (1.3e-14 measured; the previous kernel 7e-15)."""
        G = ring_generator(24, 0.3)
        h, n_samples = 50.0 / 300, 301
        E = sw.expm(h * G)[0]
        E[np.abs(E) < _SQRT_TINY] = 0.0
        power, exact = np.eye(48, dtype=np.longdouble), [48.0]
        for _ in range(n_samples - 1):
            power = power @ E.astype(np.longdouble)
            exact.append(np.sum(power * power))
        D_exact = 1.0 - (np.array(exact, dtype=np.longdouble) - 48) / 96
        D, _ = sw._power_contrast([G], h, n_samples, 1.0)
        assert np.max(np.abs(D - D_exact) / np.maximum(1.0, np.abs(1.0 - D_exact))) <= 1e-13

    @pytest.mark.parametrize(
        "family,kappa,lam,delta,n_k,T,n_samples",
        [
            ("glsh", 0.8, 7, -0.02, 400, 20.0, 81),
            ("gtsh", 0.9, 6, 0.02, 400, 20.0, 201),
            ("glsh", 0.8, 8, 0.03, 400, 100.0, 401),
            # 8 momenta of size 122 fill one block of 2^17 elements, 9 need
            # two, and 70 and 71 need nine
            ("glsh", 0.96, 61, 0.01, 16, 20.0, 41),
            ("glsh", 0.96, 61, 0.01, 18, 20.0, 41),
            ("glsh", 0.96, 61, 0.01, 140, 20.0, 41),
            ("glsh", 0.96, 61, 0.01, 142, 20.0, 41),
        ],
    )
    def test_bloch_stacks(self, family, kappa, lam, delta, n_k, T, n_samples):
        blocks = bloch_generators(family, kappa, lam, delta, n_k)
        if lam == 61:
            assert bg._BLOCK_ELEMENTS // 122**2 == 8
            sizes = {16: [8], 18: [8, 1], 140: [8] * 8 + [6], 142: [8] * 8 + [7]}[n_k]
            assert [G.shape for G in blocks] == [(size, 122, 122) for size in sizes]
        assert kernel_error(blocks, T / (n_samples - 1), n_samples) <= 1e-12

    @pytest.mark.parametrize("dJz,T,n_samples", OVERFLOW_CASES)
    def test_overflow_names_the_reference_time(self, dJz, T, n_samples):
        G = ring_generator(24, dJz)
        h = T / (n_samples - 1)
        message = raised(sw._power_contrast, [G], h, n_samples, 1.0)
        assert message.startswith("spin-wave propagator overflowed at t = ")
        assert message == raised(reference_power_contrast, G, h, n_samples, 1.0)

    def test_overflow_names_the_earliest_time_over_all_blocks(self):
        """Blocks of one generator each: the second overflows first, and the
        error names its time, as the whole stack at once does."""
        slow, fast = ring_generator(24, 0.3), ring_generator(24, 0.5)
        stack = np.concatenate([slow, fast])
        h, n_samples = 100.0, 31
        expected = raised(reference_power_contrast, stack, h, n_samples, 1.0)
        assert expected == raised(reference_power_contrast, fast, h, n_samples, 1.0)
        assert raised(sw._power_contrast, [slow, fast], h, n_samples, 1.0) == expected

    def test_lost_pseudo_unitarity_gives_the_reference_advice(self, monkeypatch):
        """The same ||E||_F and advice; the defect itself is rounding of an
        E^N formed from other factors, so only its scale is compared."""
        def parts(message):
            """(err, ||E||_F, advice) of a pseudo-unitarity message."""
            found = re.fullmatch(r"propagator lost pseudo-unitarity \(err (\S+) > 1e-09, "
                                 r"\|\|E\|\|_F (\S+), err/\|\|E\|\|_F\^2 \S+\); (.*)", message)
            return float(found[1]), found[2], found[3]

        G = ring_generator(24, 0.3)  # ||E^N||_F = 4e8 at T = 150
        grown = parts(raised(sw._power_contrast, [G], 0.5, 301, 1.0))
        expected = parts(raised(reference_power_contrast, G, 0.5, 301, 1.0))
        assert grown[2] == expected[2] == "the growth exceeds double precision, so shorten T"
        assert grown[1] == expected[1]
        assert 0.1 < grown[0] / expected[0] < 10
        expm = sw.expm
        monkeypatch.setattr(sw, "expm", lambda *args: 1.001 * expm(*args))
        G = ring_generator(24, -0.03)
        corrupted = raised(sw._power_contrast, [G], 0.1, 301, 1.0)
        assert corrupted.endswith("; reduce the step (currently 1.00e-01)")
        assert corrupted == raised(reference_power_contrast, G, 0.1, 301, 1.0)

    @pytest.mark.parametrize("n_samples", [2, 4, 301, 309, 314])
    def test_defect_is_measured_on_the_final_propagator(self, monkeypatch, n_samples):
        measured = []
        defect = sw._symplectic_defect

        def record(E):
            measured.append(E.copy())
            return defect(E)

        monkeypatch.setattr(sw, "_symplectic_defect", record)
        G, h = ring_generator(24, -0.03), 30.0 / (n_samples - 1)
        _, reported = sw._power_contrast([G], h, n_samples, 1.0)
        assert len(measured) == 1
        final = np.linalg.matrix_power(sw.expm(h * G)[0], n_samples - 1)
        np.testing.assert_allclose(measured[0][0], final, rtol=0, atol=1e-12)
        assert reported == float(defect(measured[0])[0])


def elliptic_ring(family, kappa, lam, L, delta):
    """Static coefficients of the gtsh or glsh ring of L // lam windings, S = 1."""
    q = 4.0 * (L // lam) * elliptic.complete_K(kappa) / L
    gamma = 0.0 if family == "gtsh" else 1.0
    return sw.sw_coefficients(elliptic_frame(kappa, q, gamma, L, delta), 1.0)


def moved_site(coeffs):
    """coeffs with one site's V moved by 1e-9 relative."""
    coeffs.V[17] *= 1.0 + 1e-9
    return coeffs


def whole_layout_run(monkeypatch, coeffs, S, T, n_samples):
    """contrast_sw with every ring forced onto the whole-matrix layout."""
    with monkeypatch.context() as patch:
        patch.setattr(sw, "_PERIOD_TOL", 0.0)
        return sw.contrast_sw(coeffs, S, T=T, n_samples=n_samples)


# periodic rings: (coefficients, S, T, n_samples, cells of the layout)
CELL_RINGS = {
    "gate07+": (lambda: transverse_ring(240, 0.03), 1.0, 30.0, 301, 240),
    "gate07-": (lambda: transverse_ring(240, -0.03), 1.0, 30.0, 301, 240),
    "gate06-S1": (lambda: transverse_ring(120, -0.03), 1.0, 20.0, 201, 120),
    "gate06-S2": (lambda: transverse_ring(120, -0.03, S=2.0), 2.0, 10.0, 201, 120),
    # the contrast workload's glsh ring, a cell of lambda = 7 sites
    "glsh140": (lambda: elliptic_ring("glsh", 0.8, 7, 140, -0.02), 1.0, 20.0, 81, 20),
    # gtsh at lambda = 6 repeats every half winding, 3 sites
    "gtsh240": (lambda: elliptic_ring("gtsh", 0.9, 6, 240, 0.02), 1.0, 20.0, 201, 80),
    # one cell per site on rings so short that the cell shifts wrap
    "L2": (lambda: transverse_ring(2, 0.03, q=math.pi), 1.0, 30.0, 301, 2),
    "L3": (lambda: transverse_ring(3, 0.03, q=2 * math.pi / 3), 1.0, 30.0, 301, 3),
}


class TestCellLayout:
    """_block_norms carries a periodic ring as its cell's rows and anything
    else as whole matrices; the forced whole layout is the oracle."""

    @pytest.mark.parametrize("ring", list(CELL_RINGS))
    def test_cell_rows_match_the_whole_layout(self, monkeypatch, ring):
        """D within 1e-12 in units of max(1, |1 - D|), as in TestPowerContrast."""
        build, S, T, n_samples, cells = CELL_RINGS[ring]
        coeffs = build()
        assert sw._cell_layout(sw._quadrature_generator(coeffs)[None])[2] == cells
        whole = whole_layout_run(monkeypatch, coeffs, S, T, n_samples)
        series = sw.contrast_sw(coeffs, S, T=T, n_samples=n_samples)
        assert series.D[0] == 1.0
        error = np.abs(series.D - whole.D) / np.maximum(1.0, np.abs(1.0 - whole.D))
        assert error.max() <= 1e-12
        assert series.pseudo_unitarity_defect <= sw.PSEUDO_UNITARITY_TOL

    @pytest.mark.parametrize(
        "build",
        # q = pi/3 does not wind the L = 5 ring, so its wrap bond differs
        [lambda: moved_site(transverse_ring(240, -0.03)), lambda: transverse_ring(5, 0.03)],
        ids=["moved-site", "L5"],
    )
    def test_aperiodic_rings_take_the_whole_layout(self, monkeypatch, build):
        coeffs = build()
        assert sw._cell_layout(sw._quadrature_generator(coeffs)[None])[1] is None
        whole = whole_layout_run(monkeypatch, coeffs, 1.0, 30.0, 301)
        series = sw.contrast_sw(coeffs, 1.0, T=30.0, n_samples=301)
        assert [x.hex() for x in series.D] == [x.hex() for x in whole.D]
        assert series.pseudo_unitarity_defect.hex() == whole.pseudo_unitarity_defect.hex()

    @pytest.mark.parametrize("L,dJz", [(24, -0.03), (24, 0.1), (24, 0.3), (24, 0.5), (48, 0.03)])
    def test_power_contrast_rings_take_the_cell_layout(self, L, dJz):
        """TestPowerContrast's transverse rings repeat every site, and _full
        rebuilds each generator from its two cell-0 rows to within
        _PERIOD_TOL of its largest entry."""
        G = ring_generator(L, dJz)
        rows, p, cells = sw._cell_layout(G)
        assert cells == L and p == 1 and list(rows) == [0, L]
        assert np.abs(sw._full(G[:, rows], p) - G).max() < sw._PERIOD_TOL * np.abs(G).max()

    @pytest.mark.parametrize("family,kappa,lam", [("glsh", 0.8, 7), ("gtsh", 0.9, 6),
                                                  ("glsh", 0.8, 8), ("glsh", 0.96, 61)])
    def test_bloch_stacks_take_the_whole_layout(self, family, kappa, lam):
        blocks = bloch_generators(family, kappa, lam, 0.01, 140)
        assert all(sw._cell_layout(G)[1] is None for G in blocks)

    def test_full_rebuilds_a_periodic_propagator(self):
        """The whole E^5 of the glsh ring, a cell of 7 sites, from its 14
        cell rows."""
        G = sw._quadrature_generator(elliptic_ring("glsh", 0.8, 7, 140, -0.02))[None]
        rows, p, cells = sw._cell_layout(G)
        assert (p, cells) == (7, 20) and list(rows) == [*range(7), *range(140, 147)]
        E = np.linalg.matrix_power(sw.expm(0.5 * G)[0], 5)[None]
        np.testing.assert_allclose(sw._full(E[:, rows], p), E, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ring", list(CELL_RINGS))
    def test_strided_views_match_the_gather(self, ring):
        """_full and _cell_mean equal the (2L)^2 gather and its bincount,
        float.hex for float.hex, on a stack of three matrices: a sample
        step, the negative generator (whose zero entries are -0.0) and
        seeded noise, which repeats no cell."""
        G = sw._quadrature_generator(CELL_RINGS[ring][0]())[None]
        layout = sw._cell_layout(G)
        assert layout[2] == CELL_RINGS[ring][4]
        noise = np.random.default_rng(3301).standard_normal(G.shape)
        A = np.concatenate([0.1 * G, -G, noise])
        X = A[:, layout[0]]

        def hexes(Y):
            return [x.hex() for x in Y.ravel().tolist()]

        assert hexes(sw._full(X, layout[1])) == hexes(gathered(X, layout))
        assert hexes(sw._cell_mean(A, layout)) == hexes(bincount_mean(A, layout))
        assert hexes(sw._cell_mean(A[1:2], layout)) == hexes(bincount_mean(A[1:2], layout))


def relative_error(E, reference):
    """max |E - reference| over max |reference|."""
    return float(np.abs(E - reference).max() / np.abs(reference).max())


def whole_from_rows(X, layout):
    """The whole matrices of a stack carried as the rows of a cell layout."""
    return sw._full(X, layout[1])


def cell_gather(layout, dim):
    """The int64 index of (2L)^2 entries that rebuilt whole matrices from
    the cell-0 rows of a layout (rows, p, cells) before _full: entry (i, j)
    of a whole matrix is entry [i, j] of it in the flattened rows. The
    oracle of _full and _cell_mean."""
    p, m = layout[1], dim // 2
    i = np.arange(dim)
    site, upper = i % m, i // m
    local = site % p + p * upper  # the cell-0 row that row i repeats
    cols = (site - p * (site // p)[:, None]) % m + m * upper
    return local[:, None] * dim + cols


def gathered(X, layout):
    """The whole matrices of a stack of cell-0 rows, through cell_gather."""
    return np.take(X.reshape(len(X), -1), cell_gather(layout, X.shape[-1]), axis=1)


def bincount_mean(A, layout):
    """The cell-0 rows of the mean of a stack A over the cell translations,
    a bincount over cell_gather."""
    dim, cells = A.shape[-1], layout[2]
    gather = cell_gather(layout, dim).ravel()
    mean = np.stack([np.bincount(gather, a, dim * dim // cells) for a in A.reshape(len(A), -1)])
    return mean.reshape(len(A), dim // cells, dim) / cells


def scipy_expm(A):
    """scipy's expm of each matrix of a stack: the oracle of sw.expm."""
    return np.stack([expm(a) for a in A])


# (L, dJz, h): sample steps of TestPowerContrast's transverse rings
POWER_CONTRAST_STEPS = [
    (24, -0.03, 30.0), (24, -0.03, 15.0), (24, -0.03, 0.1), (24, -0.03, 30.0 / 227),
    (48, -0.03, 0.1), (48, 0.03, 200.0 / 300), (24, 0.3, 50.0 / 300),
]


class TestExpm:
    """The numpy exponential against scipy's expm: 1e-13 relative in both
    layouts, the cell layout's rows taken whole by _full."""

    @pytest.mark.parametrize("L,dJz,h", POWER_CONTRAST_STEPS)
    def test_power_contrast_rings(self, L, dJz, h):
        A = h * ring_generator(L, dJz)
        layout = sw._cell_layout(A)
        assert layout[2] == L
        reference = scipy_expm(A)
        assert relative_error(sw.expm(A), reference) <= 1e-13
        assert relative_error(whole_from_rows(sw.expm(A, layout), layout), reference) <= 1e-13

    @pytest.mark.parametrize(
        "family,kappa,lam,delta,n_k,T,n_samples",
        [("glsh", 0.8, 7, -0.02, 400, 20.0, 81), ("gtsh", 0.9, 6, 0.02, 400, 20.0, 201),
         ("glsh", 0.8, 8, 0.03, 400, 100.0, 401), ("glsh", 0.96, 61, 0.01, 140, 20.0, 41)],
    )
    def test_bloch_stacks(self, family, kappa, lam, delta, n_k, T, n_samples):
        """test_bloch_stacks' sample steps, every momentum of the stack."""
        A = T / (n_samples - 1) * np.concatenate(bloch_generators(family, kappa, lam, delta, n_k))
        assert relative_error(sw.expm(A), scipy_expm(A)) <= 1e-13

    @pytest.mark.parametrize("dJz,h", [(0.3, 30.0), (0.3, 20.0), (0.5, 15.0)])
    def test_steep_steps_take_squarings(self, dJz, h):
        """TestPowerContrast's steep steps, whose 1-norms (55-106) exceed
        every degree's theta, so that E is squared, and which take ||E||_F
        from sqrt(48) to 25-79."""
        A = h * ring_generator(24, dJz)
        assert np.abs(A).sum(axis=-2).max() > 20 * max(sw._TAYLOR_THETA.values())
        layout = sw._cell_layout(A)
        reference = scipy_expm(A)
        assert np.linalg.norm(reference) > 25
        assert relative_error(sw.expm(A), reference) <= 1e-13
        assert relative_error(whole_from_rows(sw.expm(A, layout), layout), reference) <= 1e-13

    @pytest.mark.parametrize("degree", sorted(sw._TAYLOR_THETA))
    @pytest.mark.parametrize("side", [1.0 - 1e-9, 1.0 + 1e-9], ids=["below", "above"])
    def test_one_norms_at_each_theta(self, degree, side):
        G = ring_generator(24, 0.03)
        A = G * (side * sw._TAYLOR_THETA[degree] / np.abs(G).sum(axis=-2).max())
        assert relative_error(sw.expm(A), scipy_expm(A)) <= 1e-13

    def test_zero_gives_the_identity_exactly(self):
        np.testing.assert_array_equal(sw.expm(np.zeros((3, 8, 8))), np.broadcast_to(np.eye(8), (3, 8, 8)))
        np.testing.assert_array_equal(sw.expm(np.zeros((6, 6))), np.eye(6))
        layout = sw._cell_layout(ring_generator(24, 0.03))
        np.testing.assert_array_equal(sw.expm(np.zeros((1, 48, 48)), layout), np.eye(48)[None, layout[0]])

    @pytest.mark.parametrize("ring", ["gate07-", "glsh140", "gtsh240"])
    def test_cell_mean_is_shift_invariant_and_hamiltonian(self, ring):
        """The mean over the cell translations repeats every cell exactly,
        lies within _PERIOD_TOL of the generator, and Omega times it is
        symmetric to rounding (the generator's own Omega G is symmetric)."""
        G = sw._quadrature_generator(CELL_RINGS[ring][0]())[None]
        layout = sw._cell_layout(G)
        mean = whole_from_rows(sw._cell_mean(G, layout), layout)[0]
        m = len(mean) // 2
        sites = np.arange(m)
        shift = np.concatenate([sites, sites + m]).reshape(2, m)
        shift = np.roll(shift, m // layout[2], axis=1).ravel()
        np.testing.assert_array_equal(mean[np.ix_(shift, shift)], mean)
        assert np.abs(mean - G[0]).max() <= sw._PERIOD_TOL * np.abs(G).max()
        omega_mean = np.concatenate([mean[m:], -mean[:m]])
        assert np.abs(omega_mean - omega_mean.T).max() <= 4 * np.finfo(float).eps * np.abs(G).max()

    def test_site_noise_inside_the_period_tolerance(self, monkeypatch):
        """1e-13 relative noise on every site's V keeps the cell layout, and
        D stays within 1e-12 of the whole layout's, in units of
        max(1, |1 - D|)."""
        coeffs = transverse_ring(240, 0.03)
        coeffs.V *= 1.0 + 1e-13 * np.random.default_rng(3001).standard_normal(240)
        G = sw._quadrature_generator(coeffs)[None]
        layout = sw._cell_layout(G)
        assert layout[2] == 240
        assert np.abs(sw._cell_mean(G, layout) - G[:, layout[0]]).max() > 1e-15
        whole = whole_layout_run(monkeypatch, coeffs, 1.0, 30.0, 301)
        series = sw.contrast_sw(coeffs, 1.0, T=30.0, n_samples=301)
        error = np.abs(series.D - whole.D) / np.maximum(1.0, np.abs(1.0 - whole.D))
        assert error.max() <= 1e-12

    @pytest.mark.parametrize("norm", [1e300, 1.5e308, math.inf, math.nan])
    def test_huge_and_non_finite_norms_fail_the_checks(self, norm):
        """The squarings come from frexp, so no OverflowError or ValueError
        escapes: a finite norm past double range (here 1.5e308 overflows
        2.0**s) and an infinite or NaN one each end in the kernel's own
        RuntimeError, without a numpy warning."""
        G = ring_generator(24, 0.03)
        one_norm = np.abs(G).sum(axis=-2).max()
        # an h of 1e308 overflows the largest entries of h G to inf
        h = {math.inf: 1e308, math.nan: math.nan}.get(norm, norm / one_norm)
        with np.errstate(over="ignore", invalid="ignore"):
            measured = np.abs(h * G).sum(axis=-2).max()
        assert measured == pytest.approx(norm, rel=1e-12, nan_ok=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="overflowed|pseudo-unitarity"):
                sw._power_contrast([G], h, 3, 1.0)


class TestPowerContrastMemory:
    @staticmethod
    def traced_peak(f, *args):
        tracemalloc.start()
        try:
            f(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_ring_kernel_peak(self):
        """Gate 07's L = 240 ring: the kernel stays within 35 MB (the previous
        kernel took 52 MB here)."""
        G = ring_generator(240, -0.03)
        assert self.traced_peak(sw._power_contrast, [G], 0.1, 301, 1.0) <= 35e6

    def test_bloch_peak_does_not_grow_with_the_momenta(self):
        """glsh (0.96, 61) at 80 momenta takes ten blocks, at 320 forty: the
        peak stays within 10%."""
        q = 4.0 * elliptic.complete_K(0.96) / 61
        peaks = [
            self.traced_peak(bg.contrast_multiflavour, "glsh", 0.96, q, 0.01, 1.0, 20.0, n_k, 41)
            for n_k in (160, 640)
        ]
        assert 160 // 2 > bg._BLOCK_ELEMENTS // 122**2
        assert peaks[1] <= 1.1 * peaks[0]


class TestScalingCollapse:
    @staticmethod
    def entries(dJz, spins, L=40):
        theta, q = math.pi / 4, math.pi / 3
        out = []
        for S in spins:
            frame = co_rotating_transverse(theta, q, dJz, L, S)
            out.append((sw.sw_coefficients(frame, S), S))
        return out

    def test_stable_curves_collapse(self):
        spread = sw.scaling_collapse_check(self.entries(-0.03, [1.0, 2.0]), tau_max=20.0)
        assert spread < 1e-8

    def test_unstable_curves_collapse(self):
        spread = sw.scaling_collapse_check(self.entries(0.03, [0.5, 2.5]), tau_max=20.0)
        assert spread < 1e-7

    def test_identical_spin_lengths_give_zero(self):
        spread = sw.scaling_collapse_check(self.entries(-0.03, [1.0, 1.0]), tau_max=10.0)
        assert spread == 0.0

    def test_rejects_time_dependent_coefficients(self):
        with pytest.raises(TypeError, match="static"):
            sw.scaling_collapse_check([(manufactured_coefficients, 1.0)])


class TestCliRoundTrip:
    @pytest.mark.parametrize("family", ["transverse", "glsh"])
    def test_csv_and_sidecar_carry_the_series(self, tmp_path, family):
        """contrast-sw writes the library series as (t, D, C, f) rows, C the
        spin contrast where --theta gives the polar angle and NaN for glsh,
        and a sidecar with the kind, the sample count and the run's flags."""
        theta = math.pi / 4
        if family == "transverse":
            p = scars.ScarParams(kappa=0.0, q=math.pi / 3, gamma=math.cos(theta), L=12)
            flags, delta = ["--theta", "pi/4", "--q", "pi/3", "--L", "12", "--dJz", "-0.03"], -0.03
        else:
            p = scars.ScarParams.commensurate(0.8, 1, 14, gamma=1.0)
            flags, delta = ["--kappa", "0.8", "--M", "1", "--L", "14", "--dJx", "-0.02"], -0.02
        argv = ["contrast-sw", "--family", family, *flags, "--T", "2", "--n-samples", "11",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        coeffs = sw.sw_coefficients(rotframe.scar_frame(p, delta), 1.0)
        series = sw.contrast_sw(coeffs, 1.0, T=2.0, n_samples=11)
        data = np.loadtxt(tmp_path / "contrast_sw.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 0], series.times)
        np.testing.assert_array_equal(data[:, 1], series.D)
        if family == "transverse":
            np.testing.assert_array_equal(data[:, 2], sw.spin_contrast(series.D, theta))
        else:
            assert np.isnan(data[:, 2]).all()
        np.testing.assert_array_equal(data[:, 3], series.f)
        sidecar = json.loads((tmp_path / "contrast_sw.json").read_text())
        assert sidecar["kind"] == "contrast_series"
        assert sidecar["n_samples"] == 11
        params = sidecar["params"]
        assert (params["family"], params["L"], params["T"]) == (family, p.L, 2.0)
        assert params["theta"] == (theta if family == "transverse" else None)
