"""Spin-wave coefficients, generator structure, CF4 propagation, contrast."""

import json
import math
import warnings

import numpy as np
import pytest

from xyzscar import elliptic, lattice_classical as lc, rotframe, scars, spinwave as sw
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

    def test_callable_coefficients_evaluated_at_t(self):
        frame = co_rotating_transverse(math.pi / 4, math.pi / 3, 0.03, 6, 1.0)
        co = sw.sw_coefficients(frame, 1.0)
        np.testing.assert_array_equal(
            sw.build_linear_generator(lambda t: co, t=3.7), sw.build_linear_generator(co)
        )

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
    F1 = -1j * sw.build_linear_generator(coeffs, t0 + sw._CF4_C1 * h)
    F2 = -1j * sw.build_linear_generator(coeffs, t0 + sw._CF4_C2 * h)
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
        monkeypatch.setattr(sw, "expm", lambda a: 1.001 * expm(a))
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
        monkeypatch.setattr(sw, "expm", lambda a: 1.001 * expm(a))
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
        series = sw.contrast_sw(co, 1.0, T=5.0, n_samples=21, theta=theta)
        expected = (series.D - math.cos(theta) ** 2) / math.sin(theta) ** 2
        np.testing.assert_allclose(series.C, expected, rtol=1e-15)
        np.testing.assert_allclose(sw.spin_contrast(series, theta), series.C, rtol=0)
        np.testing.assert_allclose(sw.spin_contrast(series.D, theta), series.C, rtol=0)

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


class TestSaveCsv:
    def test_round_trip_with_sidecar(self, tmp_path):
        theta = math.pi / 4
        frame = co_rotating_transverse(theta, math.pi / 3, -0.03, 8, 1.0)
        co = sw.sw_coefficients(frame, 1.0)
        series = sw.contrast_sw(co, 1.0, T=2.0, n_samples=11, theta=theta)
        out = tmp_path / "contrast.csv"
        series.save_csv(out, params={"theta": theta, "L": 8})
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 0], series.times)
        np.testing.assert_array_equal(data[:, 1], series.D)
        np.testing.assert_array_equal(data[:, 2], series.C)
        np.testing.assert_array_equal(data[:, 3], series.f)
        sidecar = json.loads((tmp_path / "contrast.json").read_text())
        assert sidecar["kind"] == "contrast_series"
        assert sidecar["n_samples"] == 11
        assert sidecar["params"] == {"theta": theta, "L": 8}

    def test_missing_spin_contrast_written_as_nan(self, tmp_path):
        frame = co_rotating_transverse(math.pi / 4, math.pi / 3, 0.0, 6, 1.0)
        series = sw.contrast_sw(sw.sw_coefficients(frame, 1.0), 1.0, T=1.0, n_samples=5)
        out = tmp_path / "c.csv"
        series.save_csv(out)
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.isnan(data[:, 2]).all()
