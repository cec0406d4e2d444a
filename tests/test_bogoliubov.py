"""Dispersion windows, decay rates, flavour matrices, k-space stability."""

import math
import re
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment, minimize_scalar

from xyzscar import bogoliubov as bg
from xyzscar import elliptic, rotframe, spinwave as sw
from xyzscar.scars import ScarParams


Q, THETA = math.pi / 3, math.pi / 4


def eig_multiset_distance(a, b):
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


def bloch_stack(eta, zeta, V, k_grid):
    """(A_k, B_k) stacked over k_grid for a cell with per-bond eta, zeta and
    onsite V; scalar eta and zeta mean uniform bonds.

    B has V on the diagonal, eta_s at (s+1, s) with conjugates mirrored, and
    the wrap bond carries the Bloch phase: B[lam-1, 0] = eta e^{ik}. A has
    the same layout with zeta (zero diagonal). For lam <= 2 the wrap bond
    coincides with an interior bond and the contributions accumulate. The
    generic complex assembler: the reference the real Bloch route is
    checked against. zeta must be real for A to be the symmetric pairing
    block, and per-bond arrays must match V in length.
    """
    V = np.atleast_1d(np.asarray(V, dtype=float))
    lam = len(V)
    if any(np.ndim(c) and np.size(c) != lam for c in (eta, zeta)):
        raise ValueError("eta, zeta, V must have equal length")
    if np.abs(np.imag(zeta)).max() > 1e-12:
        raise ValueError("pairing amplitude zeta must be real")
    eta = np.broadcast_to(np.asarray(eta, dtype=complex), (lam,))
    zeta = np.broadcast_to(np.asarray(zeta, dtype=complex), (lam,))
    A0 = np.zeros((lam, lam), dtype=complex)
    B0 = np.diag(V).astype(complex)
    for s in range(lam - 1):
        B0[s + 1, s] += eta[s]
        B0[s, s + 1] += np.conj(eta[s])
        A0[s + 1, s] += zeta[s]
        A0[s, s + 1] += np.conj(zeta[s])
    wrap = np.zeros((lam, lam), dtype=complex)
    wrap[lam - 1, 0] = 1.0
    ph = np.exp(1j * np.asarray(k_grid, dtype=float))[:, None, None]
    B = B0[None] + eta[lam - 1] * ph * wrap + np.conj(eta[lam - 1] * ph) * wrap.T
    A = A0[None] + zeta[lam - 1] * ph * wrap + np.conj(zeta[lam - 1] * ph) * wrap.T
    return A, B


def bloch_pair(eta, zeta, V, k):
    """bloch_stack at one momentum, as a BlochMatrixPair."""
    A, B = bloch_stack(eta, zeta, V, [k])
    return bg.BlochMatrixPair(k=k, A=A[0], B=B[0])


def reference_complex_lyapunov_max(family, kappa, q, delta, S=1.0, n_k=400):
    """The growth rate from complex (B-A)(B+A) on the full lam-cell.

    One batched complex eigvals over the half zone of the n_k-point grid,
    with no reflection basis and no half-cell fold: the oracle for
    lyapunov_max.
    """
    k_half = bg._momentum_grid(n_k)[n_k // 2 :]
    A, B = bloch_stack(*bg.family_coefficients(family, kappa, q, delta, S), k_half)
    mu = np.linalg.eigvals((B - A) @ (B + A))
    return float(np.abs(np.sqrt(mu.astype(complex)).imag).max())


def bogoliubov_generator(pair, pair_minus=None):
    """Complex generator C_k of d/dt (a_k, a+_{-k}) = -i C_k (a_k, a+_{-k}).

    The general lower row is (-conj(A_{-k}), -conj(B_{-k})). For real eta and
    zeta the -k matrices are the elementwise conjugates of the +k ones and
    the generator reduces to the printed form [[B, A], [-A, -B]]; pass
    pair_minus explicitly when the hopping is complex (the single-flavour
    transverse recast).
    """
    A, B = pair.A, pair.B
    if pair_minus is None:
        return np.block([[B, A], [-A, -B]])
    return np.block([[B, A], [-np.conj(pair_minus.A), -np.conj(pair_minus.B)]])


def growth_rate_direct(eta, zeta, V, k_grid):
    """Growth rate via direct diagonalization of C_k (no symmetry shortcuts).

    Works for complex hopping too, by building B at both +k and -k: the
    independent route for lyapunov_max.
    """
    rate = 0.0
    for k in np.atleast_1d(k_grid):
        pair = bloch_pair(eta, zeta, V, float(k))
        pair_m = bloch_pair(eta, zeta, V, -float(k))
        C = bogoliubov_generator(pair, pair_m)
        rate = max(rate, float(np.abs(np.linalg.eigvals(C).imag).max()))
    return rate


def reference_contrast_multiflavour(
    family, kappa, q, delta, S=1.0, T=20.0, n_k=400, n_samples=201
):
    """The complex k-space contrast: half-columns of exp(-i C_k dt) stepped
    sample by sample on the full lam-cell, with no reflection basis, no fold
    and no Frobenius rule. The oracle for contrast_multiflavour."""
    coefficients = bg.family_coefficients(family, kappa, q, delta, S)
    A, B = bloch_stack(*coefficients, bg._momentum_grid(n_k))
    lam = A.shape[1]
    times = np.linspace(0.0, T, n_samples)
    E = expm(-1j * (times[1] - times[0]) * np.block([[B, A], [-A, -B]]))
    V = np.zeros((n_k, 2 * lam, lam), dtype=complex)
    V[:, :lam] = np.eye(lam)
    D = np.empty(n_samples)
    D[0] = 1.0
    for n in range(1, n_samples):
        V = E @ V
        D[n] = 1.0 - np.sum(np.abs(V[:, lam:]) ** 2) / n_k / (lam * S)
    return D


class TestTransverseDispersion:
    def test_undetuned_closed_form(self):
        k = np.linspace(-math.pi, math.pi, 101)
        disp = bg.transverse_dispersion(k, Q, THETA, 0.0)
        np.testing.assert_allclose(
            disp.w_tilde, 4.0 * math.cos(Q) * np.sin(k / 2.0) ** 2 * np.sign(np.sin(k / 2.0)),
            atol=1e-14,
        )
        assert np.abs(disp.omega_sw.imag).max() == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_detuning_and_spin(self, bad):
        k = np.linspace(-math.pi, math.pi, 9)
        with pytest.raises(ValueError, match="dJz must be finite"):
            bg.transverse_dispersion(k, Q, THETA, bad)
        for S in (bad, 0.0, -1.0):
            with pytest.raises(ValueError, match="spin length S"):
                bg.transverse_dispersion(k, Q, THETA, 0.03, S=S)

    def test_real_everywhere_on_stable_side(self):
        k = np.linspace(-math.pi, math.pi, 2001)
        disp = bg.transverse_dispersion(k, Q, THETA, -0.03)
        assert np.abs(disp.w_tilde.imag).max() == 0.0
        assert np.abs(disp.omega_sw.imag).max() == 0.0

    def test_complex_window_on_unstable_side(self):
        k = np.linspace(-math.pi, math.pi, 2001)
        disp = bg.transverse_dispersion(k, Q, THETA, 0.03)
        win = bg.instability_window(Q, THETA, 0.03)
        inside = (np.abs(k) > 1e-9) & (np.abs(k) < win.k_upper - 1e-9)
        outside = np.abs(k) > win.k_upper + 1e-9
        # w_tilde is odd in k, so the imaginary part flips sign with k.
        assert np.all(np.abs(disp.w_tilde.imag[inside]) > 0.0)
        assert np.abs(disp.w_tilde.imag[outside]).max() == 0.0
        assert np.abs(disp.omega_sw.imag[outside]).max() == 0.0

    def test_w_tilde_is_odd(self):
        k = np.linspace(0.01, math.pi - 0.01, 57)
        plus = bg.transverse_dispersion(k, Q, THETA, 0.03).w_tilde
        minus = bg.transverse_dispersion(-k, Q, THETA, 0.03).w_tilde
        np.testing.assert_array_equal(minus, -plus)

    def test_reality_window_is_exact(self):
        """The spectrum is real for all k precisely on -2cos q/sin^2 theta <= dJz <= 0.

        (A second unstable window opens at the zone edge below that, twice as
        deep as the documented stable-window endpoint -cos q/sin^2 theta.)
        """
        k = np.linspace(-math.pi, math.pi, 801)
        checked = 0
        for q in (0.25, 0.7, 1.3):
            for theta in (math.pi / 6, math.pi / 4, 2 * math.pi / 5):
                lower = -2.0 * math.cos(q) / math.sin(theta) ** 2
                for dJz in np.linspace(1.15 * lower, 0.05, 60):
                    if abs(dJz) < 1e-12 or abs(dJz - lower) < 5e-3 * abs(lower):
                        continue
                    disp = bg.transverse_dispersion(k, q, theta, dJz)
                    is_real = np.abs(disp.w_tilde.imag).max() == 0.0
                    assert is_real == (lower <= dJz <= 0.0), (q, theta, dJz)
                    checked += 1
        assert checked >= 500

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="q"):
            bg.transverse_dispersion(0.1, 1.6, THETA, 0.0)
        with pytest.raises(ValueError, match="theta"):
            bg.transverse_dispersion(0.1, Q, -0.2, 0.0)


class TestInstabilityWindow:
    def test_gapless_window_anchors(self):
        win = bg.instability_window(Q, THETA, 0.03)
        X = math.sin(THETA) ** 2 * 0.03
        cq = math.cos(Q)
        k_star = 2.0 * math.asin(math.sqrt(X / (2.0 * (cq + X))))
        k_peak = 2.0 * math.asin(math.sqrt(X / (4.0 * (cq + X))))
        assert win.side == "gapless"
        assert win.k_lower == 0.0
        assert abs(win.k_upper - k_star) < 1e-10
        assert abs(win.k_max - k_peak) < 1e-8
        assert abs(win.rate_max - X * math.sqrt(cq / (cq + X))) < 1e-10
        assert round(win.k_upper, 4) == 0.2419
        assert round(win.rate_max, 6) == 0.014780

    def test_stable_side_returns_none(self):
        assert bg.instability_window(Q, THETA, -0.03) is None
        assert bg.instability_window(Q, THETA, 0.0) is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_rejects_non_finite_arguments(self, slot, bad):
        args = [Q, THETA, 0.03]
        args[slot] = bad
        with pytest.raises(ValueError, match="q, theta and dJz must be finite"):
            bg.instability_window(*args)
        with pytest.raises(ValueError, match="q, theta and dJz must be finite"):
            bg.rates(*args)
        with pytest.raises(ValueError, match="q, theta and dJz must be finite"):
            bg.scaling_function([1.0], *args)

    @pytest.mark.parametrize(
        "q, theta, name",
        [(Q, 0.0, "theta"), (Q, math.pi, "theta"), (2.0, THETA, "q"), (0.0, THETA, "q")],
    )
    @pytest.mark.parametrize("dJz", [-0.03, 0.03])
    def test_shares_the_dispersion_domain(self, q, theta, name, dJz):
        """instability_window, scaling_function and rates reject the
        (q, theta) that transverse_dispersion rejects, with its message."""
        routes = (
            lambda: bg.transverse_dispersion(np.zeros(1), q, theta, dJz),
            lambda: bg.instability_window(q, theta, dJz),
            lambda: bg.scaling_function([1.0], q, theta, dJz),
            lambda: bg.rates(q, theta, dJz),
        )
        for route in routes:
            with pytest.raises(ValueError, match=f"need 0 < {name} < "):
                route()

    def test_zone_edge_window(self):
        theta = math.pi / 4
        dJz = -2.2 * math.cos(Q) / math.sin(theta) ** 2
        win = bg.instability_window(Q, theta, dJz)
        X = math.sin(theta) ** 2 * dJz
        assert win.side == "zone-edge"
        assert win.k_max == math.pi
        assert win.k_upper == math.pi
        assert abs(win.k_lower - math.acos(math.cos(Q) / (math.cos(Q) + X))) < 1e-12
        rate_pi = 2.0 * math.sqrt(2.0 * math.cos(Q)) * math.sqrt(abs(2.0 * math.cos(Q) + X))
        assert abs(win.rate_max - rate_pi) < 1e-12

    def test_window_maximum_agrees_with_dispersion(self):
        win = bg.instability_window(Q, THETA, 0.03)
        res = minimize_scalar(
            lambda k: -bg.transverse_dispersion(k, Q, THETA, 0.03).w_tilde.imag.item(),
            bounds=(0.0, win.k_upper),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert abs(-res.fun - win.rate_max) < 1e-10


def full_zone_scaling_function(tau, q, theta, dJz, n_k=None):
    """f(tau) summed over every point of the full n_k-point midpoint grid,
    the sum scaling_function took before it used the k >= 0 half: its
    oracle."""
    X = math.sin(theta) ** 2 * dJz
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    if n_k is None:
        n_k = max(8192, 256 * (int(np.max(tau)) + 1))
    k = bg._momentum_grid(n_k)
    s2 = np.sin(k / 2.0) ** 2
    w2 = 8.0 * math.cos(q) * s2 * (2.0 * math.cos(q) * s2 - X * np.cos(k))
    order = np.argsort(-np.sign(w2), kind="stable")
    w2, A2 = w2[order], (X * np.cos(k[order])) ** 2
    n_osc, n_flat = np.count_nonzero(w2 > 0.0), np.count_nonzero(w2 == 0.0)
    grow = slice(n_osc + n_flat, None)
    omega = np.sqrt(np.abs(w2))
    a = np.divide(A2, np.abs(w2), out=A2.copy(), where=w2 != 0.0)
    out = np.empty(len(tau))
    for i, t in enumerate(tau):
        x = t * omega
        np.sin(x[:n_osc], out=x[:n_osc])
        x[n_osc : n_osc + n_flat] = t
        np.sinh(x[grow], out=x[grow])
        out[i] = np.sum(np.square(x) * a) / n_k
    return out


def half_zone_error(tau, dJz, n_k=None):
    """Largest |f - f_full| / |f_full| of scaling_function against the
    full-zone sum; both must vanish together."""
    f = bg.scaling_function(tau, Q, THETA, dJz, n_k=n_k)
    full = full_zone_scaling_function(tau, Q, THETA, dJz, n_k=n_k)
    assert np.array_equal(f == 0.0, full == 0.0)
    nonzero = full != 0.0
    return float(np.max(np.abs(f - full)[nonzero] / np.abs(full[nonzero])))


class TestScalingFunction:
    @pytest.mark.parametrize("dJz", [-0.03, 0.03])
    @pytest.mark.parametrize(
        "tau", [np.linspace(200.0, 400.0, 201), np.linspace(0.0, 30.0, 301)],
        ids=["gates-04-05", "gate-07"],
    )
    def test_half_zone_matches_the_full_zone(self, tau, dJz):
        """The integrand is even in k, so the k >= 0 half at weight 2 is the
        full-zone sum to 1e-15 relative on the gates' tau grids."""
        assert half_zone_error(tau, dJz) <= 1e-15

    @pytest.mark.parametrize("dJz", [-0.03, 0.03])
    @pytest.mark.parametrize("n_k", [1, 2, 3, 7, 8])
    def test_half_zone_on_small_grids(self, n_k, dJz):
        """Odd grids weigh their k = 0 point once. The full grid's mirrored
        midpoints differ by up to 8.9e-16 in k, so at tau in the hundreds on
        n_k = 8 the two sums part by up to 1e-13; these taus keep to
        test_zero_frequency_momentum's."""
        assert half_zone_error(np.array([0.0, 0.5, 3.0, 40.0]), dJz, n_k) <= 1e-15

    def test_zero_time(self):
        assert bg.scaling_function(0.0, Q, THETA, -0.03)[0] == 0.0

    def test_small_tau_quadratic(self):
        X = math.sin(THETA) ** 2 * 0.03
        f = bg.scaling_function(1e-3, Q, THETA, -0.03)[0]
        assert abs(f / 1e-6 - X**2 / 2.0) < 1e-4 * X**2

    @pytest.mark.parametrize("dJz,tau", [(-0.03, 5.0), (-0.03, 30.0), (0.02, 12.0)])
    def test_against_adaptive_quadrature(self, dJz, tau):
        X = math.sin(THETA) ** 2 * dJz

        def integrand(k):
            A = X * math.cos(k)
            w2 = 8.0 * math.cos(Q) * math.sin(k / 2.0) ** 2 * (
                2.0 * math.cos(Q) * math.sin(k / 2.0) ** 2 - X * math.cos(k)
            )
            z = w2 * tau**2
            if abs(z) < 1e-8:
                phi = 1.0 - z / 3.0
            elif z > 0:
                phi = math.sin(math.sqrt(z)) ** 2 / z
            else:
                phi = math.sinh(math.sqrt(-z)) ** 2 / (-z)
            return A**2 * tau**2 * phi / (2.0 * math.pi)

        ref, err = quad(integrand, -math.pi, math.pi, limit=400, epsabs=1e-13, epsrel=1e-13)
        f = bg.scaling_function(tau, Q, THETA, dJz)[0]
        assert abs(f - ref) < 1e-9

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError, match="tau"):
            bg.scaling_function([-1.0], Q, THETA, -0.03)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_tau(self, bad):
        with pytest.raises(ValueError, match="tau must be finite"):
            bg.scaling_function([1.0, bad], Q, THETA, -0.03)

    def test_rejects_empty_momentum_grid(self):
        for n_k in (0, -3):
            with pytest.raises(ValueError, match="at least one momentum"):
                bg._momentum_grid(n_k)
            with pytest.raises(ValueError, match="at least one momentum"):
                bg.scaling_function([1.0], Q, THETA, -0.03, n_k=n_k)

    @pytest.mark.parametrize("dJz", [-0.03, 0.02])
    def test_zero_frequency_momentum(self, dJz):
        """n_k = 1 puts the single momentum on k = 0 exactly, where w~^2 = 0:
        the integrand is its limit A~^2 tau^2, finite and warning-free."""
        assert bg._momentum_grid(1)[0] == 0.0
        tau = np.array([0.0, 0.5, 3.0, 40.0])
        X = math.sin(THETA) ** 2 * dJz
        f = bg.scaling_function(tau, Q, THETA, dJz, n_k=1)
        np.testing.assert_allclose(f, X**2 * tau**2, rtol=1e-15, atol=0)

    def test_chunked_call_matches_per_tau_calls(self):
        """A tau array spanning several chunks gives the per-tau values bit for bit."""
        n_k = 8192
        tau = np.linspace(0.0, 30.0, 4 * (250_000 // n_k) + 7)
        f = bg.scaling_function(tau, Q, THETA, 0.03, n_k=n_k)
        single = [bg.scaling_function(t, Q, THETA, 0.03, n_k=n_k)[0] for t in tau]
        assert np.array_equal(f, single)


class TestRates:
    def test_algebraic_branch_anchor(self):
        r = bg.rates(Q, THETA, -0.03)
        assert r.branch == "algebraic"
        assert r.gamma2_exact is None
        assert abs(r.gamma1 - 9.186e-4) < 5e-7
        expected = math.sin(THETA) ** 3 / math.sqrt(math.cos(Q)) * 0.03**1.5 / (2.0 * math.sqrt(2.0))
        assert abs(r.gamma1 - expected) < 1e-15

    def test_three_halves_scaling(self):
        r1 = bg.rates(Q, THETA, -0.03).gamma1
        r2 = bg.rates(Q, THETA, -0.06).gamma1
        assert abs(r2 / r1 - 2.0**1.5) < 1e-12

    def test_exponential_branch_anchor(self):
        r = bg.rates(Q, THETA, 0.03, S=1.0)
        assert r.branch == "exponential"
        assert r.gamma1 is None
        assert abs(r.gamma2_perturbative - 0.03) < 1e-15
        assert abs(r.gamma2_exact - 2.0 * 0.014779939172464398) < 1e-12

    def test_exact_approaches_perturbative(self):
        r = bg.rates(Q, THETA, 0.003)
        assert abs(r.gamma2_exact / r.gamma2_perturbative - 1.0) < 0.03

    def test_two_route_consistency(self):
        """2 S b1(k*) equals 2 S max_k Im w~ from the dispersion."""
        S = 1.5
        r = bg.rates(Q, THETA, 0.03, S=S)
        win = bg.instability_window(Q, THETA, 0.03)
        res = minimize_scalar(
            lambda k: -bg.transverse_dispersion(k, Q, THETA, 0.03).w_tilde.imag.item(),
            bounds=(0.0, win.k_upper),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert abs(r.gamma2_exact - 2.0 * S * (-res.fun)) < 1e-10

    def test_rejects_marginal_and_out_of_range(self):
        with pytest.raises(ValueError, match="outside both"):
            bg.rates(Q, THETA, 0.0)
        with pytest.raises(ValueError, match="outside both"):
            bg.rates(Q, THETA, -2.0)

    @pytest.mark.parametrize("S", [math.nan, math.inf, 0.0, -2.0])
    @pytest.mark.parametrize("dJz", [-0.03, 0.03])
    def test_rejects_bad_spin_length_on_both_branches(self, dJz, S):
        with pytest.raises(ValueError, match="spin length S"):
            bg.rates(Q, THETA, dJz, S=S)


class TestBlochMatrices:
    def test_three_flavour_entries_by_hand(self):
        eta = [0.3, 0.5, 0.7]
        zeta = [0.02, 0.04, 0.06]
        V = [-1.0, -2.0, -3.0]
        k = 0.9
        pair = bloch_pair(eta, zeta, V, k)
        ph = np.exp(1j * k)
        B_expected = np.array(
            [[-1.0, 0.3, 0.7 * np.conj(ph)], [0.3, -2.0, 0.5], [0.7 * ph, 0.5, -3.0]]
        )
        A_expected = np.array(
            [[0.0, 0.02, 0.06 * np.conj(ph)], [0.02, 0.0, 0.04], [0.06 * ph, 0.04, 0.0]]
        )
        np.testing.assert_allclose(pair.B, B_expected, atol=1e-15)
        np.testing.assert_allclose(pair.A, A_expected, atol=1e-15)

    def test_two_flavour_wrap_accumulates(self):
        pair = bloch_pair([0.3, 0.5], [0.0, 0.0], [-1.0, -1.0], 1.1)
        assert pair.B[1, 0] == 0.3 + 0.5 * np.exp(1.1j)

    def test_single_flavour_scalars(self):
        eta, zeta, V, k = 0.4 - 0.2j, 0.05, -1.7, 0.6
        pair = bloch_pair([eta], [zeta], [V], k)
        assert abs(pair.B[0, 0] - (V + 2.0 * (eta * np.exp(1j * k)).real)) < 1e-15
        assert abs(pair.A[0, 0] - 2.0 * zeta * math.cos(k)) < 1e-15

    def test_hermitian_for_real_couplings(self):
        pair = bloch_pair([0.3, 0.5, 0.7, 0.2], [0.1] * 4, [-1.0] * 4, 2.3)
        np.testing.assert_allclose(pair.B, np.conj(pair.B).T, atol=1e-16)
        np.testing.assert_allclose(pair.A, np.conj(pair.A).T, atol=1e-16)

    def test_rejects_complex_pairing(self):
        with pytest.raises(ValueError, match="zeta"):
            bloch_pair([0.3, 0.3], [0.1j, 0.1], [-1.0, -1.0], 0.5)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            bloch_pair([0.3], [0.1, 0.2], [-1.0], 0.5)


class TestMultiflavour:
    def test_unit_cell_size(self):
        K = elliptic.complete_K(0.9)
        assert bg.unit_cell_size(0.9, 4.0 * K / 6.0) == 6
        with pytest.raises(ValueError, match="integer"):
            bg.unit_cell_size(0.9, 4.0 * K / 6.3)

    def test_gtsh_coefficient_values(self):
        kappa, lam, S = 0.9, 6, 1.0
        K = elliptic.complete_K(kappa)
        q = 4.0 * K / lam
        pair = bg.multiflavour_matrices(0.3, "gtsh", kappa, q, 0.02, S)
        snq, cnq, dnq = elliptic.jacobi_sncndn(q, kappa)
        sn_s = elliptic.jacobi_sncndn(q * np.arange(lam), kappa)[0]
        np.testing.assert_allclose(
            np.diag(pair.B).real, -2.0 * S * cnq * dnq / (1.0 - (kappa * sn_s * snq) ** 2), atol=1e-14
        )
        assert abs(pair.B[1, 0] - 0.5 * S * (2.0 * cnq + 0.02)) < 1e-15
        assert abs(pair.A[1, 0] - 0.5 * S * 0.02) < 1e-15

    @pytest.mark.parametrize(
        "family,kappa,lam,delta", [("gtsh", 0.9, 6, 0.02), ("glsh", 0.8, 7, -0.02)]
    )
    def test_matches_generic_assembler(self, family, kappa, lam, delta):
        """B = diag(V) + eta(T + T^dagger), A = zeta(T + T^dagger) is the
        per-bond assembler's pair, wrap phase included, bit for bit."""
        q = 4.0 * elliptic.complete_K(kappa) / lam
        for k in (0.0, 0.9, -1.7, math.pi):
            pair = bg.multiflavour_matrices(k, family, kappa, q, delta)
            ref = bloch_pair(*bg.family_coefficients(family, kappa, q, delta), k)
            np.testing.assert_array_equal(pair.A, ref.A)
            np.testing.assert_array_equal(pair.B, ref.B)

    def test_glsh_hopping_uses_dn(self):
        kappa, lam = 0.8, 7
        q = 4.0 * elliptic.complete_K(kappa) / lam
        pair = bg.multiflavour_matrices(0.3, "glsh", kappa, q, -0.02, 1.0)
        dnq = elliptic.jacobi_sncndn(q, kappa)[2]
        assert abs(pair.B[1, 0] - 0.5 * (2.0 * dnq - 0.02)) < 1e-15

    def test_rejects_unknown_family(self):
        q = 4.0 * elliptic.complete_K(0.9) / 6
        with pytest.raises(ValueError, match="family"):
            bg.multiflavour_matrices(0.3, "helix", 0.9, q, 0.0)

    @pytest.mark.parametrize("family", ["transverse", "helix", "GTSH"])
    def test_family_coefficients_name_the_families(self, family):
        """transverse has a detuned coupling too, but no Bloch cell."""
        q = 4.0 * elliptic.complete_K(0.9) / 6
        expected = f"unknown family {family!r} (expected 'gtsh' or 'glsh')"
        with pytest.raises(ValueError, match=re.escape(expected)):
            bg.family_coefficients(family, 0.9, q, 0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_detuning(self, bad):
        q = 4.0 * elliptic.complete_K(0.9) / 6
        for family in ("gtsh", "glsh"):
            with pytest.raises(ValueError, match="detuning delta must be finite"):
                bg.family_coefficients(family, 0.9, q, bad)

    @pytest.mark.parametrize("delta,tol", [(0.0, 1e-10), (0.03, 1e-8)])
    def test_real_space_ring_oracle(self, delta, tol):
        """Union of C_k spectra over BZ' equals the L = lam M ring spectrum.

        The detuned case is looser: the k = 0 block has a defective
        Goldstone pair, and eigensolvers only locate those eigenvalues to
        sqrt(eps).
        """
        kappa, lam, M, S = 0.6, 5, 4, 1.0
        K = elliptic.complete_K(kappa)
        q = 4.0 * K / lam
        frame = rotframe.scar_frame(ScarParams(kappa=kappa, q=q, gamma=0.0, L=lam * M), delta)
        co = sw.sw_coefficients(frame, S)
        ring = np.linalg.eigvals(sw.build_linear_generator(co))
        blocks = []
        for n in range(M):
            k = 2.0 * math.pi * n / M
            pair = bg.multiflavour_matrices(k, "gtsh", kappa, q, delta, S)
            blocks.append(np.linalg.eigvals(bogoliubov_generator(pair)))
        assert eig_multiset_distance(ring, np.concatenate(blocks)) < tol


class TestDynamicalMatrix:
    KAPPA, LAM, DELTA = 0.8, 7, -0.02

    def pair_at(self, k, delta=None):
        q = 4.0 * elliptic.complete_K(self.KAPPA) / self.LAM
        d = self.DELTA if delta is None else delta
        return bg.multiflavour_matrices(k, "glsh", self.KAPPA, q, d, 1.0)

    def test_shapes_and_realness(self):
        assert bg.dynamical_matrix(self.pair_at(0.9)).shape == (4 * self.LAM, 4 * self.LAM)
        assert bg.dynamical_matrix(self.pair_at(0.0)).shape == (2 * self.LAM, 2 * self.LAM)
        assert bg.dynamical_matrix(self.pair_at(math.pi)).shape == (2 * self.LAM, 2 * self.LAM)
        assert bg.dynamical_matrix(self.pair_at(0.9)).dtype == np.float64

    @pytest.mark.parametrize("k", [0.0, math.pi, 0.9, -1.7, 2.4])
    def test_spectrum_reflection_symmetric(self, k):
        eigs = np.linalg.eigvals(bg.dynamical_matrix(self.pair_at(k)))
        assert eig_multiset_distance(eigs, -np.conj(eigs)) < 1e-12

    @pytest.mark.parametrize("k", [0.9, -1.7, 2.4])
    def test_spectrum_matches_bloch_generators(self, k):
        eD = np.linalg.eigvals(bg.dynamical_matrix(self.pair_at(k)))
        eC = np.linalg.eigvals(bogoliubov_generator(self.pair_at(k)))
        eCm = np.linalg.eigvals(bogoliubov_generator(self.pair_at(-k)))
        target = np.concatenate([-1j * eC, -1j * np.conj(eCm)])
        assert eig_multiset_distance(eD, target) < 1e-10

    @pytest.mark.parametrize("k", [0.0, math.pi])
    def test_self_conjugate_momenta_match_at_parent(self, k):
        eD = np.linalg.eigvals(bg.dynamical_matrix(self.pair_at(k, delta=0.0)))
        eC = np.linalg.eigvals(bogoliubov_generator(self.pair_at(k, delta=0.0)))
        assert eig_multiset_distance(eD, -1j * eC) < 1e-10


class TestLyapunovMax:
    K9 = elliptic.complete_K(0.9)
    K8 = elliptic.complete_K(0.8)

    def test_parent_points_are_stable(self):
        assert bg.lyapunov_max("gtsh", 0.9, 4 * self.K9 / 6, 0.0) <= bg.STABILITY_THRESHOLD
        assert bg.lyapunov_max("glsh", 0.8, 4 * self.K8 / 7, 0.0) <= bg.STABILITY_THRESHOLD

    @pytest.mark.parametrize("lam", [61, 60, 7])
    def test_momentum_blocks_change_no_bit(self, monkeypatch, lam):
        """One block of every momentum (the unblocked route), the default
        blocks and one momentum per block give the same rate bit for bit."""
        q = 4.0 * elliptic.complete_K(0.96) / lam
        rates = []
        for block in (2**62, bg._BLOCK_ELEMENTS, 1):
            monkeypatch.setattr(bg, "_BLOCK_ELEMENTS", block)
            rates.append(bg.lyapunov_max("glsh", 0.96, q, -0.01))
        assert rates[0] > bg.STABILITY_THRESHOLD
        assert rates[1] == rates[0] and rates[2] == rates[0]

    def test_benchmark_signs(self):
        q = 4 * self.K9 / 6
        assert bg.lyapunov_max("gtsh", 0.9, q, +0.02) > bg.STABILITY_THRESHOLD
        assert bg.lyapunov_max("gtsh", 0.9, q, -0.02) <= bg.STABILITY_THRESHOLD
        q = 4 * self.K8 / 7
        assert bg.lyapunov_max("glsh", 0.8, q, -0.02) > bg.STABILITY_THRESHOLD
        assert bg.lyapunov_max("glsh", 0.8, q, +0.02) <= bg.STABILITY_THRESHOLD

    @pytest.mark.parametrize(
        "family,kappa,lam,delta",
        [
            ("gtsh", 0.9, 6, 0.02),
            ("glsh", 0.8, 7, -0.02),
            ("glsh", 0.04, 20, +0.01),
            ("glsh", 0.96, 61, -0.01),
            ("glsh", 0.96, 60, -0.01),
        ],
    )
    def test_screened_route_matches_direct(self, family, kappa, lam, delta):
        q = 4.0 * elliptic.complete_K(kappa) / lam
        n_k = 200
        screened = bg.lyapunov_max(family, kappa, q, delta, n_k=n_k)
        eta, zeta, V = bg.family_coefficients(family, kappa, q, delta)
        direct = growth_rate_direct(eta, zeta, V, bg._momentum_grid(n_k)[n_k // 2 :])
        assert abs(screened - direct) < 1e-10

    # the rows of the benchmark's scan workload: (kappa, first lambda, last lambda)
    SCAN_ROWS = [(0.20, 7, 7), (0.48, 7, 21), (0.80, 7, 30), (0.96, 60, 62)]

    @pytest.mark.parametrize("family", ["glsh", "gtsh"])
    @pytest.mark.parametrize("kappa,lo,hi", SCAN_ROWS)
    def test_matches_complex_reference(self, family, kappa, lo, hi):
        """Real, folded route against the complex lam-cell route, odd and even lam."""
        thr = bg.STABILITY_THRESHOLD
        for lam in range(lo, hi + 1):
            q = 4.0 * elliptic.complete_K(kappa) / lam
            for delta in (-0.01, 0.01):
                rate = bg.lyapunov_max(family, kappa, q, delta)
                ref = reference_complex_lyapunov_max(family, kappa, q, delta)
                if ref > thr:
                    assert abs(rate - ref) <= 1e-9 * ref, (family, kappa, lam, delta)
                else:
                    assert rate <= thr, (family, kappa, lam, delta)

    @pytest.mark.parametrize(
        "family,kappa,lam,delta", [("glsh", 0.8, 7, -0.02), ("gtsh", 0.9, 6, 0.02)]
    )
    def test_reflection_basis_makes_bloch_pair_real(self, family, kappa, lam, delta):
        """W_k^dagger (B -/+ A) W_k is real and equals R-/+, W_k = diag(e^{iks/lam}) W."""
        q = 4.0 * elliptic.complete_K(kappa) / lam
        eta, zeta, V = bg.family_coefficients(family, kappa, q, delta)
        k = np.array([0.3, 1.7, 3.0])
        A, B = bloch_stack(eta, zeta, V, k)
        Rm, Rp = bg._reflection_bloch_pair(eta, zeta, bg._reflection_operators(V), k)
        W = bg._reflection_basis(lam)
        np.testing.assert_allclose(W.conj().T @ W, np.eye(lam), atol=1e-15)
        for i, kk in enumerate(k):
            Wk = np.exp(1j * kk * np.arange(lam) / lam)[:, None] * W
            for M, R in ((B[i] - A[i], Rm[i]), (B[i] + A[i], Rp[i])):
                rotated = Wk.conj().T @ M @ Wk
                assert np.abs(rotated.imag).max() <= 1e-14
                np.testing.assert_allclose(rotated.real, R, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("family,kappa,lam", [("glsh", 0.96, 60), ("gtsh", 0.9, 6)])
    def test_half_cell_fold(self, family, kappa, lam):
        """Even lam: V has period lam/2, and the lam-cell spectrum at k is the
        union of the half-cell spectra at k/2 and k/2 + pi, or equally at k/2
        and pi - k/2 (the momenta lyapunov_max takes)."""
        q = 4.0 * elliptic.complete_K(kappa) / lam
        eta, zeta, V = bg.family_coefficients(family, kappa, q, -0.01)
        p = lam // 2
        np.testing.assert_allclose(V[:p], V[p:], rtol=0, atol=1e-14)
        k = 1.1

        def spectrum(cell, momenta):
            Rm, Rp = bg._reflection_bloch_pair(eta, zeta, bg._reflection_operators(cell), momenta)
            return np.linalg.eigvals(Rm @ Rp).ravel()

        full = spectrum(V, [k])
        scale = np.abs(full).max()
        for folded in ([k / 2, k / 2 + math.pi], [k / 2, math.pi - k / 2]):
            assert eig_multiset_distance(full, spectrum(V[:p], folded)) <= 1e-12 * scale

    def test_single_flavour_recast_matches_dispersion(self):
        """A transverse helix as a one-flavour cell gives S max Im w~."""
        S, dJz = 1.0, 0.03
        omega = -2.0 * S * math.cos(THETA) * dJz
        frame = rotframe.frame_transverse(theta=THETA, q=Q, omega=omega, L=12, dJz=dJz)
        co = sw.sw_coefficients(frame, S)
        grid = bg._momentum_grid(801)
        direct = growth_rate_direct(co.eta[:1], co.zeta[:1].real, co.V[:1], grid)
        disp = bg.transverse_dispersion(grid, Q, THETA, dJz, S)
        assert abs(direct - S * np.abs(disp.w_tilde.imag).max()) < 1e-10

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="n_k"):
            bg.lyapunov_max("gtsh", 0.9, 4 * self.K9 / 6, 0.0, n_k=1)
        with pytest.raises(ValueError, match="n_k"):
            bg.lyapunov_max("gtsh", 0.9, 4 * self.K9 / 6, 0.0, n_k=401)


class TestContrastMultiflavour:
    def test_undetuned_is_flat(self):
        q = 4 * elliptic.complete_K(0.9) / 6
        series = bg.contrast_multiflavour("gtsh", 0.9, q, 0.0, T=5.0, n_samples=11)
        np.testing.assert_array_equal(series.D, 1.0)

    @pytest.mark.parametrize(
        "family,kappa,lam,delta,kw",
        [("gtsh", 0.9, 6, 0.02, "dJz"), ("glsh", 0.8, 7, -0.02, "dJx")],
    )
    def test_matches_real_space_ring(self, family, kappa, lam, delta, kw):
        S = 1.0
        q = 4.0 * elliptic.complete_K(kappa) / lam
        series_k = bg.contrast_multiflavour(family, kappa, q, delta, S=S, T=20.0, n_samples=81)
        p = ScarParams(kappa=kappa, q=q, gamma=0.0 if family == "gtsh" else 1.0, L=lam * 20)
        frame = rotframe.scar_frame(p, delta)  # which detunes the family's coupling kw
        series_r = sw.contrast_sw(sw.sw_coefficients(frame, S), S, T=20.0, n_samples=81)
        assert np.abs(series_k.D - series_r.D).max() < 1e-3

    @pytest.mark.parametrize(
        "family,kappa,lam,delta,S,T,n_samples",
        [
            ("glsh", 0.8, 7, -0.02, 1.0, 20.0, 81),
            ("gtsh", 0.9, 6, 0.02, 1.0, 20.0, 201),
            ("gtsh", 0.9, 6, -0.02, 2.0, 50.0, 201),
            ("glsh", 0.8, 8, 0.03, 1.0, 100.0, 401),
        ],
    )
    def test_matches_complex_reference(self, family, kappa, lam, delta, S, T, n_samples):
        """Real reflection basis, half-cell fold (even lam) and Frobenius rule
        against the complex lam-cell half-column loop."""
        q = 4.0 * elliptic.complete_K(kappa) / lam
        series = bg.contrast_multiflavour(family, kappa, q, delta, S=S, T=T, n_samples=n_samples)
        ref = reference_contrast_multiflavour(
            family, kappa, q, delta, S=S, T=T, n_samples=n_samples
        )
        assert series.D[0] == 1.0
        assert np.abs(series.D - ref).max() <= 1e-12
        assert series.pseudo_unitarity_defect <= 1e-12

    @pytest.mark.parametrize("lam", [7, 8])
    def test_integrand_is_even_in_k(self, lam):
        """The cell reflection s -> -s is a diagonal +/-1 matrix P in the
        reflection basis, and R+/-(-k) = P R+/-(k) P: the half zone suffices."""
        q = 4.0 * elliptic.complete_K(0.8) / lam
        eta, zeta, V = bg.family_coefficients("glsh", 0.8, q, -0.02)
        operators = bg._reflection_operators(V)
        W = bg._reflection_basis(lam)
        reflection = np.eye(lam)[:, (-np.arange(lam)) % lam]
        P = W.conj().T @ reflection @ W
        np.testing.assert_allclose(P, np.diag(np.sign(np.diag(P).real)), rtol=0, atol=1e-15)
        k = np.array([0.7, 2.1, 3.0])
        plus = bg._reflection_bloch_pair(eta, zeta, operators, k)
        minus = bg._reflection_bloch_pair(eta, zeta, operators, -k)
        for R, R_minus in zip(plus, minus):
            np.testing.assert_allclose(P.real @ R @ P.real, R_minus, rtol=0, atol=1e-14)

    def test_checks_symplectic_and_finite(self, monkeypatch):
        q = 4 * elliptic.complete_K(0.9) / 6
        expm_real = sw.expm
        monkeypatch.setattr(sw, "expm", lambda *args: 1.001 * expm_real(*args))
        with pytest.raises(RuntimeError, match="pseudo-unitarity"):
            bg.contrast_multiflavour("gtsh", 0.9, q, 0.02, T=2.0, n_samples=11)
        monkeypatch.setattr(sw, "expm", lambda a, *layout: np.full_like(a, np.inf))
        with pytest.raises(RuntimeError, match="overflowed"):
            bg.contrast_multiflavour("gtsh", 0.9, q, 0.02, T=2.0, n_samples=11)

    def test_unstable_sign_decays_faster(self):
        q = 4 * elliptic.complete_K(0.9) / 6
        D_plus = bg.contrast_multiflavour("gtsh", 0.9, q, +0.02, T=20.0).D[-1]
        D_minus = bg.contrast_multiflavour("gtsh", 0.9, q, -0.02, T=20.0).D[-1]
        assert D_plus < D_minus

    def test_validation(self):
        q = 4 * elliptic.complete_K(0.9) / 6
        for T in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="T must be positive and finite"):
                bg.contrast_multiflavour("gtsh", 0.9, q, 0.0, T=T)
        for delta in (0.0, 0.02):
            for n_k in (0, 401):
                with pytest.raises(ValueError, match="n_k must be even"):
                    bg.contrast_multiflavour("gtsh", 0.9, q, delta, n_k=n_k)
        for S in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive"):
                bg.contrast_multiflavour("gtsh", 0.9, q, 0.02, S=S)


class TestPhaseScan:
    @pytest.mark.parametrize("lambdas", [[0], [-3], [7, -1, 8]])
    def test_rejects_lambda_below_one_before_any_task(self, monkeypatch, lambdas):
        """4K/lambda is not formed for lambda < 1, and no rate is computed."""
        calls = []
        monkeypatch.setattr(bg, "lyapunov_max", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"lambda must be a positive integer, got {min(lambdas)}"):
            bg.phase_scan([0.8], lambdas)
        assert not calls

    def test_benchmark_cell_is_asymmetric(self):
        recs = bg.phase_scan([0.8], [7], delta=0.01)
        assert len(recs) == 1
        rec = recs[0]
        assert rec["class"] == "U-S"
        assert rec["lyap_minus"] > bg.STABILITY_THRESHOLD
        assert rec["lyap_plus"] <= bg.STABILITY_THRESHOLD
        K = elliptic.complete_K(0.8)
        assert abs(rec["q"] - 4.0 * K / 7.0) < 1e-12

    def test_small_kappa_row_is_two_sided_unstable(self):
        """At kappa -> 0 the longitudinal texture flattens onto the z axis
        and the folded bands cross near the zone centre.  Any hopping
        detuning then opens a complex-frequency band regardless of sign,
        so both scan sides classify unstable.  Cross-checked against a
        real-space ring diagonalisation at L = 840.
        """
        recs = bg.phase_scan([0.04], [7, 20], delta=0.01)
        assert all(r["class"] == "U-U" for r in recs)
        for r in recs:
            assert r["lyap_minus"] > 1e-3
            assert r["lyap_plus"] > 1e-3

    def test_record_fields(self):
        rec = bg.phase_scan([0.5], [8], delta=0.01)[0]
        assert set(rec) == {"kappa", "lambda", "q", "class", "lyap_minus", "lyap_plus"}
        assert rec["lambda"] == 8

    @staticmethod
    def cpus(monkeypatch, n):
        """Let phase_scan see n CPUs, as `taskset` would."""
        monkeypatch.setattr(bg.os, "sched_getaffinity", lambda pid: set(range(n)))

    def test_threaded_scan_matches_direct_calls(self, monkeypatch):
        """Every CPU count gives the same records in grid order, and each
        rate is a direct lyapunov_max call bit for bit. The grid has odd and
        even lambda (half-cell folding), two kappa rows, and S-S as well as
        U-S cells at delta = 0.001. Eight threads with a 1 us switch interval
        stress the hand-off of tasks and results."""
        kappas, lambdas, delta = [0.04, 0.8], [5, 6, 7, 8], 0.001
        self.cpus(monkeypatch, 1)
        serial = bg.phase_scan(kappas, lambdas, delta=delta)
        self.cpus(monkeypatch, 2)
        assert bg.phase_scan(kappas, lambdas, delta=delta) == serial
        self.cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert bg.phase_scan(kappas, lambdas, delta=delta) == serial
        finally:
            sys.setswitchinterval(interval)
        assert [(r["kappa"], r["lambda"]) for r in serial] == [
            (k, lam) for k in kappas for lam in lambdas
        ]
        assert {r["class"] for r in serial} == {"S-S", "U-S"}
        for r in serial:
            assert r["q"] == 4.0 * elliptic.complete_K(r["kappa"]) / r["lambda"]
            assert r["lyap_minus"] == bg.lyapunov_max("glsh", r["kappa"], r["q"], -delta)
            assert r["lyap_plus"] == bg.lyapunov_max("glsh", r["kappa"], r["q"], delta)

    def test_off_domain_cell_raises_through_threads(self, monkeypatch):
        q = 4.0 * elliptic.complete_K(0.8) / 3
        with pytest.raises(ValueError) as direct:
            bg.lyapunov_max("glsh", 0.8, q, -0.01)
        self.cpus(monkeypatch, 2)
        with pytest.raises(ValueError) as threaded:
            bg.phase_scan([0.8], [7, 3, 8], delta=0.01)
        assert str(threaded.value) == str(direct.value)

    def test_tasks_keep_the_callers_error_state(self, monkeypatch):
        """An overflow in a task raises where the caller's numpy error state
        says so, though the task runs on a pool thread: S = 1e308 overflows
        the Bloch matrix."""
        self.cpus(monkeypatch, 2)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            with pytest.raises(FloatingPointError):
                bg.phase_scan([0.8], [7], n_k=16, S=1e308)

    @pytest.mark.parametrize(
        "cpus,lambdas,threads", [(1, [7, 8], 1), (8, [7], 2), (2, [5, 6, 7], 2)]
    )
    def test_thread_count_is_cpus_capped_at_tasks(self, monkeypatch, cpus, lambdas, threads):
        """One thread per CPU this process may run on, never more than the
        (cell, sign) tasks."""
        import concurrent.futures

        seen = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        self.cpus(monkeypatch, cpus)
        bg.phase_scan([0.8], lambdas, n_k=40)
        assert seen == [threads]
