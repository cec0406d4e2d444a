"""Tests for the AGM elliptic-function core.

Reference values were produced by independent oracles: adaptive quadrature of
the defining integrals (scipy.integrate.quad), scipy.special.ellipj/ellipk as
an independent implementation, and mpmath at 40 digits for the extreme
modulus where scipy itself loses accuracy. The library code never calls
scipy.special, so these comparisons are genuine cross-checks.
"""

import numpy as np
import pytest
from scipy import integrate, special

from xyzscar.elliptic import (
    _agm_chain,
    complete_E,
    complete_K,
    jacobi_am,
    jacobi_epsilon,
    jacobi_sncndn,
)

# quad of 1/sqrt(1 - k^2 sin^2 t) over [0, pi/2], epsrel 1e-15
K_FROZEN = {
    0.9: 2.2805491384227703,
    0.8: 1.9953027776647294,
    0.5: 1.685750354812596,
}
# mpmath.ellipk at 40 digits, evaluated at the double nearest 1 - 1e-9
K_EXTREME = 11.401353708904766
# mpmath.ellipfun('sn', -22.85, (1-1e-9)**2) at 40 digits
SN_EXTREME = 0.04725735569256026

# scipy.integrate.quad of dn^2 (with ellipj dn), cross-checked with mpmath
EPS_FROZEN = [
    (1.1, 0.9, 0.8499434452886915),
    (0.35, 0.5, 0.34653382962909784),
    (3.7, 0.7071, 2.6931644023005784),
    (-2.6, 0.3, -2.460033985019951),
]

KAPPA_GRID = [1e-8, 0.05, 0.3, 0.5, 0.7071, 0.9, 0.99, 0.999]


class TestCompleteIntegrals:
    def test_K_at_zero_is_quarter_circle(self):
        assert complete_K(0.0) == pytest.approx(np.pi / 2, rel=1e-15)

    @pytest.mark.parametrize("kappa,expected", sorted(K_FROZEN.items()))
    def test_K_frozen(self, kappa, expected):
        assert abs(complete_K(kappa) - expected) <= 1e-13 * expected

    def test_K_extreme_modulus(self):
        kappa = 1.0 - 1e-9
        assert abs(complete_K(kappa) - K_EXTREME) <= 1e-13 * K_EXTREME

    @pytest.mark.parametrize("kappa", KAPPA_GRID)
    def test_K_matches_defining_integral(self, kappa):
        ref, _ = integrate.quad(
            lambda t: 1.0 / np.sqrt(1.0 - (kappa * np.sin(t)) ** 2),
            0.0,
            np.pi / 2,
            epsabs=1e-14,
            epsrel=1e-14,
        )
        assert abs(complete_K(kappa) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("kappa", KAPPA_GRID)
    def test_E_vs_scipy(self, kappa):
        ref = special.ellipe(kappa**2)
        assert abs(complete_E(kappa) - ref) <= 1e-13 * ref

    def test_agm_chain_stops_at_convergence(self):
        """The chain ends once c_n is within 2^-52 a_n: at most 8 entries up to
        kappa = 1 - 1e-6 and 10 for any kappa < 1, never the iteration cap."""
        grid = np.arange(2000) / 2000
        near_one = np.append(1.0 - np.logspace(-6, -16, 41), np.nextafter(1.0, 0.0))
        for kappa, longest in [(k, 8) for k in grid] + [(k, 10) for k in near_one]:
            aa, _, cc = _agm_chain(float(kappa))
            assert len(aa) <= longest, kappa
            assert abs(cc[-1]) <= 2.0**-52 * aa[-1], kappa

    def test_E_vs_scipy_on_a_fine_grid(self):
        """No spurious c_n terms: E within a few ulps of ellipe on 2000 moduli."""
        kappa = np.arange(2000) / 2000
        ours = np.array([complete_E(float(k)) for k in kappa])
        np.testing.assert_allclose(ours, special.ellipe(kappa**2), rtol=2e-15, atol=0)

    def test_legendre_relation(self):
        """E K' + E' K - K K' = pi/2, with K', E' at the complementary modulus."""
        for kappa in np.arange(1, 1000) / 1000:
            comp = np.sqrt((1.0 - kappa) * (1.0 + kappa))
            K, E = complete_K(kappa), complete_E(kappa)
            Kc, Ec = complete_K(comp), complete_E(comp)
            assert abs(E * Kc + Ec * K - K * Kc - np.pi / 2) <= 1e-14, kappa

    @pytest.mark.parametrize("bad", [1.0, 1.5, -0.2, np.inf, np.nan])
    def test_K_domain(self, bad):
        with pytest.raises(ValueError):
            complete_K(bad)
        with pytest.raises(ValueError):
            complete_E(bad)


class TestSnCnDn:
    def test_circular_limit(self):
        u = np.linspace(-7.0, 7.0, 41)
        sn, cn, dn = jacobi_sncndn(u, 0.0)
        np.testing.assert_allclose(sn, np.sin(u), atol=1e-15)
        np.testing.assert_allclose(cn, np.cos(u), atol=1e-15)
        np.testing.assert_allclose(dn, 1.0, atol=0)

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 0.9, 0.999])
    def test_quarter_period(self, kappa):
        K = complete_K(kappa)
        sn, cn, dn = jacobi_sncndn(K, kappa)
        assert abs(sn - 1.0) <= 1e-12
        assert abs(cn) <= 1e-12
        assert abs(dn - np.sqrt(1.0 - kappa**2)) <= 1e-12

    def test_helix_coupling_anchor(self):
        # q = 8 K(0.9) / 100; dn and cn at this argument set the two
        # anisotropic couplings of the kappa=0.9, M=2, L=100 scar chain.
        q = 8.0 * complete_K(0.9) / 100.0
        sn, cn, dn = jacobi_sncndn(q, 0.9)
        assert abs(dn - 0.9866969730724746) <= 1e-12
        assert abs(cn - 0.9835504573036414) <= 1e-12

    @pytest.mark.parametrize("kappa", KAPPA_GRID)
    def test_against_scipy_sweep(self, kappa):
        rng = np.random.default_rng(11)
        u = rng.uniform(-30.0, 30.0, 500)
        sn, cn, dn = jacobi_sncndn(u, kappa)
        s2, c2, d2, _ = special.ellipj(u, kappa**2)
        np.testing.assert_allclose(sn, s2, atol=1e-12)
        np.testing.assert_allclose(cn, c2, atol=1e-12)
        np.testing.assert_allclose(dn, d2, atol=1e-12)

    def test_extreme_modulus(self):
        sn, _, _ = jacobi_sncndn(-22.85, 1.0 - 1e-9)
        assert abs(sn - SN_EXTREME) <= 1e-12

    def test_hyperbolic_boundary(self):
        u = np.linspace(-5.0, 5.0, 101)
        sn, cn, dn = jacobi_sncndn(u, 1.0)
        np.testing.assert_allclose(sn, np.tanh(u), atol=1e-10)
        np.testing.assert_allclose(cn, 1.0 / np.cosh(u), atol=1e-10)
        np.testing.assert_allclose(dn, 1.0 / np.cosh(u), atol=1e-10)

    @pytest.mark.parametrize("kappa", KAPPA_GRID + [1.0])
    def test_pythagorean_identities(self, kappa):
        rng = np.random.default_rng(3)
        u = rng.uniform(-20.0, 20.0, 300)
        sn, cn, dn = jacobi_sncndn(u, kappa)
        np.testing.assert_allclose(sn**2 + cn**2, 1.0, atol=1e-11)
        np.testing.assert_allclose(dn**2 + (kappa * sn) ** 2, 1.0, atol=1e-11)

    @pytest.mark.parametrize("kappa", [0.3, 0.7071, 0.9, 0.999])
    def test_periodicity(self, kappa):
        rng = np.random.default_rng(5)
        u = rng.uniform(-10.0, 10.0, 200)
        period = 4.0 * complete_K(kappa)
        a = jacobi_sncndn(u, kappa)
        b = jacobi_sncndn(u + period, kappa)
        for x, y in zip(a, b):
            np.testing.assert_allclose(x, y, atol=1e-10)

    @pytest.mark.parametrize("kappa", [0.2, 0.6, 0.9])
    def test_derivatives(self, kappa):
        u = np.linspace(-3.0, 3.0, 25)
        h = 1e-5
        sp, cp, dp = jacobi_sncndn(u + h, kappa)
        sm, cm, dm = jacobi_sncndn(u - h, kappa)
        sn, cn, dn = jacobi_sncndn(u, kappa)
        np.testing.assert_allclose((sp - sm) / (2 * h), cn * dn, atol=1e-8)
        np.testing.assert_allclose((cp - cm) / (2 * h), -sn * dn, atol=1e-8)
        np.testing.assert_allclose((dp - dm) / (2 * h), -(kappa**2) * sn * cn, atol=1e-8)

    def test_scalar_in_scalar_out(self):
        out = jacobi_sncndn(0.4, 0.6)
        assert all(isinstance(x, float) for x in out)

    def test_nonfinite_argument_rejected(self):
        for bad in (np.nan, np.inf, [0.1, -np.inf]):
            with pytest.raises(ValueError):
                jacobi_sncndn(bad, 0.5)


class TestAmplitude:
    def test_kappa_zero(self):
        u = np.linspace(-9.0, 9.0, 37)
        np.testing.assert_allclose(jacobi_am(u, 0.0), u, atol=0)

    @pytest.mark.parametrize("kappa", [0.3, 0.7071, 0.9, 0.999])
    def test_quarter_period(self, kappa):
        assert abs(jacobi_am(complete_K(kappa), kappa) - np.pi / 2) <= 1e-13

    def test_sin_of_am_is_sn(self):
        # scipy.special.ellipj(0.5, 0.49) sn reference
        v = jacobi_am(0.5, 0.7)
        assert abs(np.sin(v) - 0.47092357369852283) <= 1e-12

    @pytest.mark.parametrize("kappa", [0.5, 0.9, 0.999, 1.0])
    def test_continuity(self, kappa):
        # A continuous amplitude has increments bounded by the local slope
        # dn <= 1; branch jumps would show up as steps of order pi.
        u = np.linspace(-25.0, 25.0, 20001)
        am = jacobi_am(u, kappa)
        assert np.max(np.abs(np.diff(am))) < 1.01 * (u[1] - u[0])

    @pytest.mark.parametrize("kappa", [0.3, 0.9])
    def test_winding(self, kappa):
        rng = np.random.default_rng(9)
        u = rng.uniform(-10.0, 10.0, 100)
        K = complete_K(kappa)
        np.testing.assert_allclose(
            jacobi_am(u + 4 * K, kappa) - jacobi_am(u, kappa), 2 * np.pi, atol=1e-11
        )

    def test_gudermannian_boundary(self):
        u = np.linspace(-5.0, 5.0, 101)
        np.testing.assert_allclose(jacobi_am(u, 1.0), np.arcsin(np.tanh(u)), atol=1e-10)


class TestEpsilon:
    def test_kappa_zero_is_identity(self):
        u = np.linspace(-6.0, 6.0, 25)
        np.testing.assert_allclose(jacobi_epsilon(u, 0.0), u, atol=0)

    @pytest.mark.parametrize("kappa", [0.0, 0.4, 0.9, 1.0])
    def test_vanishes_at_origin(self, kappa):
        assert jacobi_epsilon(0.0, kappa) == 0.0

    @pytest.mark.parametrize("u,kappa,expected", EPS_FROZEN)
    def test_frozen_quadrature_values(self, u, kappa, expected):
        assert abs(jacobi_epsilon(u, kappa) - expected) <= 1e-10 * abs(expected)

    @pytest.mark.parametrize("kappa", [0.2, 0.5, 0.8, 0.95])
    def test_against_adaptive_quadrature(self, kappa):
        rng = np.random.default_rng(13)
        for u in rng.uniform(-8.0, 8.0, 6):
            ref, _ = integrate.quad(
                lambda t: special.ellipj(t, kappa**2)[2] ** 2, 0.0, u, limit=300
            )
            assert abs(jacobi_epsilon(u, kappa) - ref) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("kappa", [0.3, 0.9, 0.999999, 1.0 - 1e-9])
    def test_against_incomplete_integral_of_the_amplitude(self, kappa):
        """eps(u) = E(am(u) | kappa^2), the incomplete integral of the second
        kind: scipy's ellipeinc shares nothing with the zeta sum of the
        Landen descent, here over ten quarter periods either side of 0."""
        K = complete_K(kappa)
        u = np.random.default_rng(31).uniform(-10.0 * K, 10.0 * K, 2000)
        ref = special.ellipeinc(jacobi_am(u, kappa), kappa**2)
        err = np.abs(jacobi_epsilon(u, kappa) - ref)
        assert np.all(err <= 1e-14 * np.maximum(1.0, np.abs(ref)))

    def test_derivative_is_dn_squared(self):
        u, kappa, h = 0.7, 0.6, 1e-5
        fd = (jacobi_epsilon(u + h, kappa) - jacobi_epsilon(u - h, kappa)) / (2 * h)
        dn = jacobi_sncndn(u, kappa)[2]
        assert abs(fd - dn**2) <= 1e-6

    @pytest.mark.parametrize("kappa", [0.3, 0.7071, 0.9, 0.999])
    def test_quarter_period_is_E(self, kappa):
        K = complete_K(kappa)
        assert abs(jacobi_epsilon(K, kappa) - complete_E(kappa)) <= 1e-12

    @pytest.mark.parametrize("kappa", [0.5, 0.9])
    def test_quasi_periodicity(self, kappa):
        rng = np.random.default_rng(17)
        u = rng.uniform(-9.0, 9.0, 50)
        K, E = complete_K(kappa), complete_E(kappa)
        np.testing.assert_allclose(
            jacobi_epsilon(u + 2 * K, kappa) - jacobi_epsilon(u, kappa), 2 * E, atol=1e-10
        )

    def test_odd(self):
        u = np.linspace(0.1, 12.0, 40)
        np.testing.assert_allclose(
            jacobi_epsilon(-u, 0.77), -jacobi_epsilon(u, 0.77), atol=1e-12
        )

    def test_hyperbolic_boundary(self):
        u = np.linspace(-5.0, 5.0, 51)
        np.testing.assert_allclose(jacobi_epsilon(u, 1.0), np.tanh(u), atol=1e-10)
