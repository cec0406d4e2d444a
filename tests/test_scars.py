"""Texture construction, coupling maps, and the product-eigenstate conditions."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xyzscar
from xyzscar.elliptic import complete_K, jacobi_sncndn
from xyzscar.scars import (
    _CSV_CHUNK_ROWS,
    _require_commensurate,
    _twice_spin,
    BROKEN_RESIDUAL_TOL,
    EXACT_RESIDUAL_TOL,
    ScarParams,
    XYZCouplings,
    bond_sum,
    check_spin_length,
    commensurate_q,
    coupling_matrix,
    energy_density,
    gz_condition_residuals,
    helix_texture,
    parent_couplings,
    scar_family,
    scar_phases,
    scar_quench,
    scar_texture,
    solve_kq,
    write_csv,
)


def three_decimals(x):
    return np.floor(x * 1000.0) / 1000.0


class TestParentCouplings:
    def test_circular_helix_jz(self):
        # kappa=0, M=4, L=100 ring: q = 8 K(0)/100
        J = parent_couplings(0.0, 8 * (np.pi / 2) / 100)
        assert J.Jx == 1.0
        assert J.Jy == 1.0
        assert three_decimals(J.Jz) == 0.992

    def test_strong_modulus_couplings(self):
        J = parent_couplings(0.8, 8 * complete_K(0.8) / 100)
        assert three_decimals(J.Jx) == 0.991
        assert three_decimals(J.Jz) == 0.987
        J = parent_couplings(0.9, 8 * complete_K(0.9) / 100)
        assert three_decimals(J.Jx) == 0.986
        assert three_decimals(J.Jz) == 0.983

    @pytest.mark.parametrize("q", [0.1, 0.5, 1.2])
    def test_kappa_zero_is_xxz(self, q):
        J = parent_couplings(0.0, q)
        assert J.Jx == 1.0
        assert J.Jz == pytest.approx(np.cos(q), abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            parent_couplings(1.0, 0.5)
        with pytest.raises(ValueError):
            parent_couplings(0.5, 0.0)
        with pytest.raises(ValueError):
            parent_couplings(0.5, complete_K(0.5) + 0.01)

    def test_ordering_invariant(self):
        # 0 <= Jz <= Jx <= Jy = 1 everywhere on the principal branch
        for kappa in (0.0, 0.4, 0.9, 0.99):
            K = complete_K(kappa)
            for frac in (0.05, 0.3, 0.6, 0.95):
                J = parent_couplings(kappa, frac * K)
                assert 0.0 <= J.Jz <= J.Jx <= J.Jy == 1.0


class TestSolveKQ:
    def test_circular_branch(self):
        kappa, q = solve_kq(1.0, 0.5)
        assert kappa == 0.0
        assert q == pytest.approx(np.pi / 3, abs=1e-12)

    @pytest.mark.parametrize(
        "kappa,q",
        [(0.9, 0.5), (0.3, 0.2), (0.7071, 1.1), (0.99, 2.0)],
    )
    def test_roundtrip(self, kappa, q):
        J = parent_couplings(kappa, q)
        kap2, q2 = solve_kq(J.Jx, J.Jz)
        assert abs(kap2 - kappa) <= 1e-10
        assert abs(q2 - q) <= 1e-10

    def test_ring_anchor(self):
        # Couplings printed for the kappa=0.9, q=2K/3 ring, rounded to
        # three decimals; inversion should land close to that ring.
        kappa, q = solve_kq(0.537, 0.349)
        assert abs(kappa - 0.9) <= 5e-3
        assert abs(q - 2 * complete_K(0.9) / 3) <= 5e-3

    def test_equal_couplings_hit_hyperbolic_boundary(self):
        kappa, q = solve_kq(0.6, 0.6)
        assert kappa == 1.0
        assert 1.0 / np.cosh(q) == pytest.approx(0.6, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            solve_kq(1.0, 1.0)
        with pytest.raises(ValueError):
            solve_kq(0.5, 0.7)
        with pytest.raises(ValueError):
            solve_kq(1.2, 0.5)


class TestScarTexture:
    def test_transverse_reduction(self):
        theta, q, phi, L = 1.1, 0.6, 0.3, 9
        p = ScarParams(kappa=0.0, q=q, gamma=np.cos(theta), L=L, phi=phi)
        tex = scar_texture(p)
        j = np.arange(L)
        expected = np.column_stack(
            [
                np.sin(theta) * np.cos(q * j + phi),
                np.sin(theta) * np.sin(q * j + phi),
                np.full(L, np.cos(theta)),
            ]
        )
        np.testing.assert_allclose(tex, expected, atol=1e-14)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_offset_rejected(self, phi):
        with pytest.raises(ValueError, match=f"^phi must be finite, got {phi}$"):
            ScarParams(kappa=0.0, q=0.6, gamma=0.5, L=9, phi=phi)

    @pytest.mark.parametrize("phi", [1e12, -1e16])
    @pytest.mark.parametrize("kappa, gamma", [(0.0, 0.7), (0.5, 0.0), (0.5, 1.0)])
    def test_huge_phase_offset_keeps_the_scar(self, kappa, gamma, phi):
        """phi is taken modulo the texture's period 4K, so a huge offset keeps
        the step q from site to site and the texture a scar of its ring."""
        p = ScarParams.commensurate(kappa, 1, 6, gamma=gamma, S=0.5, phi=phi)
        u = scar_phases(p)
        assert abs(u[0]) <= 2.0 * complete_K(kappa)
        np.testing.assert_allclose(np.diff(u), p.q, rtol=0.0, atol=1e-14)
        r1, r2 = gz_condition_residuals(scar_texture(p), parent_couplings(kappa, p.q))
        assert max(r1.max(), r2.max()) <= EXACT_RESIDUAL_TOL

    @pytest.mark.parametrize(
        "kappa, phi",
        [(0.0, 0.4), (0.0, -math.pi), (0.5, -1.1), (0.5, 2.0 * complete_K(0.5)), (1.0, 1e3)],
    )
    def test_offset_within_half_a_period_is_kept_exactly(self, kappa, phi):
        """An offset with |phi| <= 2K, and any offset at kappa = 1, whose
        period is infinite, enters the phases bit for bit."""
        p = ScarParams(kappa=kappa, q=0.3, gamma=1.0, L=5, phi=phi)
        assert scar_phases(p).tolist() == (0.3 * np.arange(5) + phi).tolist()

    def test_longitudinal_family(self):
        kappa, L = 0.8, 7
        q = commensurate_q(kappa, L)[0][1]
        tex = scar_texture(ScarParams(kappa=kappa, q=q, gamma=1.0, L=L))
        sn, _, dn = jacobi_sncndn(q * np.arange(L), kappa)
        np.testing.assert_allclose(tex[:, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(tex[:, 1], kappa * sn, atol=1e-14)
        np.testing.assert_allclose(tex[:, 2], dn, atol=1e-14)

    @pytest.mark.parametrize("kappa", [1e-8, 1e-6])
    def test_longitudinal_family_small_modulus(self, kappa):
        """At gamma = 1 the y amplitude is kappa itself, not the cancelling
        sqrt(1 - (1 - kappa^2)), which misses by 5.4e-10 at kappa = 1e-8."""
        L = 12
        q = commensurate_q(kappa, L)[0][1]
        tex = scar_texture(ScarParams(kappa=kappa, q=q, gamma=1.0, L=L))
        sn, _, dn = jacobi_sncndn(q * np.arange(L), kappa)
        expected = np.column_stack([np.zeros(L), kappa * sn, dn])
        assert np.abs(tex - expected).max() <= 1e-15

    def test_helix_texture_any_phase_shape(self):
        u = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        tex = helix_texture(0.6, 0.3, u)
        assert tex.shape == (2, 3, 4, 3)
        np.testing.assert_allclose(np.linalg.norm(tex, axis=-1), 1.0, atol=1e-14)
        np.testing.assert_array_equal(helix_texture(0.6, 0.3, u[1, 2, 3]), tex[1, 2, 3])
        with pytest.raises(ValueError, match="gamma"):
            helix_texture(0.6, 1.5, u)

    def test_planar_family(self):
        kappa, L = 0.9, 6
        q = commensurate_q(kappa, L)[0][1]
        tex = scar_texture(ScarParams(kappa=kappa, q=q, gamma=0.0, L=L))
        sn, cn, _ = jacobi_sncndn(q * np.arange(L), kappa)
        np.testing.assert_allclose(tex[:, 0], cn, atol=1e-14)
        np.testing.assert_allclose(tex[:, 1], sn, atol=1e-14)
        np.testing.assert_allclose(tex[:, 2], 0.0, atol=1e-15)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7071, 1.0])
    def test_unit_norm(self, kappa, gamma):
        p = ScarParams(kappa=kappa, q=0.8, gamma=gamma, L=40, phi=0.25)
        tex = scar_texture(p)
        np.testing.assert_allclose(np.linalg.norm(tex, axis=1), 1.0, atol=1e-12)

    def test_commensurate_periodicity(self):
        p = ScarParams.commensurate(0.7, M=2, L=11, gamma=0.4, phi=0.15)
        doubled = ScarParams(kappa=p.kappa, q=p.q, gamma=p.gamma, L=22, phi=p.phi)
        tex = scar_texture(doubled)
        np.testing.assert_allclose(tex[11:], tex[:11], atol=1e-10)

    @pytest.mark.parametrize("L", [1, 0, -1])
    def test_commensurate_checks_the_ring_before_q(self, L):
        """q = 4MK/L is formed only on a ring of at least two sites."""
        with pytest.raises(ValueError, match=f"need at least two sites, got L = {L}"):
            ScarParams.commensurate(0.5, M=1, L=L, gamma=0.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ScarParams(kappa=1.2, q=0.5, gamma=0.0, L=6)
        with pytest.raises(ValueError):
            ScarParams(kappa=0.5, q=0.5, gamma=-0.1, L=6)
        with pytest.raises(ValueError):
            ScarParams(kappa=0.5, q=0.5, gamma=0.0, L=1)
        with pytest.raises(ValueError):
            ScarParams(kappa=0.5, q=0.5, gamma=0.0, L=6, S=0.3)
        for S in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="2S must be a positive integer"):
                ScarParams(kappa=0.5, q=0.5, gamma=0.0, L=6, S=S)
        with pytest.raises(ValueError):
            ScarParams(kappa=0.5, q=-0.2, gamma=0.0, L=6)
        with pytest.raises(ValueError):
            ScarParams(kappa=0.5, q=complete_K(0.5) * 1.01, gamma=0.0, L=6)


class TestEnergyDensity:
    @pytest.mark.parametrize("q", [0.2, 0.9, 1.4])
    @pytest.mark.parametrize("S", [0.5, 1.0, 2.5])
    def test_circular_limit(self, q, S):
        assert energy_density(0.0, q, S) == pytest.approx(S * S * np.cos(q), abs=1e-13)

    def test_long_wavelength_limit(self):
        assert energy_density(0.6, 1e-6, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_frozen_ring_value(self):
        # 12-site kappa=0.9, M=1 ring; cross-checked against the classical
        # bond sum and (in the ED tests) against <H>/L of the product state.
        q = complete_K(0.9) / 3
        assert energy_density(0.9, q, 1.0) == pytest.approx(
            0.7924814182543551, rel=1e-12
        )

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_matches_classical_bond_sum(self, gamma):
        kappa, L = 0.9, 12
        M, q = commensurate_q(kappa, L)[0]
        p = ScarParams(kappa=kappa, q=q, gamma=gamma, L=L)
        e = bond_sum(scar_texture(p), parent_couplings(kappa, q)) / L
        assert e == pytest.approx(energy_density(kappa, q, 1.0), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            energy_density(1.0, 0.5, 1.0)


class TestEigenstateConditions:
    @pytest.mark.parametrize("kappa", [0.0, 0.3, 0.6, 0.9, 0.99])
    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_residuals_vanish_on_grid(self, kappa, gamma):
        # (kappa, gamma) x (five rings) x (three phase offsets)
        for L in (5, 6, 9, 12, 20):
            M, q = commensurate_q(kappa, L)[0]
            J = parent_couplings(kappa, q)
            for phi in (0.0, 0.4, 1.1):
                tex = scar_texture(
                    ScarParams(kappa=kappa, q=q, gamma=gamma, L=L, phi=phi)
                )
                r1, r2 = gz_condition_residuals(tex, J)
                assert r1.max() <= EXACT_RESIDUAL_TOL
                assert r2.max() <= EXACT_RESIDUAL_TOL

    def test_detuning_breaks_first_condition(self):
        kappa, L = 0.9, 12
        M, q = commensurate_q(kappa, L)[0]
        tex = scar_texture(ScarParams(kappa=kappa, q=q, gamma=0.5, L=L))
        J = parent_couplings(kappa, q).detuned(dJz=0.03)
        r1, r2 = gz_condition_residuals(tex, J)
        assert r1.max() > BROKEN_RESIDUAL_TOL

    def test_polarized_texture_with_xxz(self):
        # The uniform zhat texture is the kappa->0, gamma=1 scar; its parent
        # couplings are XXZ (Jx = Jy = 1), for which both residuals vanish
        # identically. An XY anisotropy shows up in r1 as |Jx - Jy|.
        tex = np.tile([0.0, 0.0, 1.0], (8, 1))
        r1, r2 = gz_condition_residuals(tex, XYZCouplings(Jx=1.0, Jy=1.0, Jz=0.37))
        assert r1.max() == 0.0
        assert r2.max() == 0.0
        r1, _ = gz_condition_residuals(tex, XYZCouplings(Jx=0.9, Jy=1.0, Jz=0.37))
        assert r1.max() == pytest.approx(0.1, abs=1e-12)

    def test_per_bond_coupling_shape_mismatch(self):
        tex = np.tile([0.0, 0.0, 1.0], (8, 1))
        with pytest.raises(ValueError):
            gz_condition_residuals(tex, np.zeros((5, 3, 3)))

    @pytest.mark.parametrize(
        "tex", [np.zeros((4, 2)), np.array([0.0, 0.0, 1.0]), np.zeros((2, 4, 3))],
        ids=["two_columns", "one_row", "three_dims"],
    )
    def test_texture_shape_mismatch(self, tex):
        with pytest.raises(ValueError, match="shape"):
            gz_condition_residuals(tex, np.eye(3))

    def test_non_unit_rejected(self):
        tex = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="unit"):
            gz_condition_residuals(tex, np.eye(3))

    def test_nan_row_rejected(self):
        """A NaN row is not a unit vector: the check is that every row is
        within 1e-9 of unit norm, not that none is further off."""
        p = ScarParams.commensurate(0.6, M=1, L=8, gamma=0.0)
        tex = scar_texture(p)
        tex[3] = np.nan
        with pytest.raises(ValueError, match="unit-norm"):
            gz_condition_residuals(tex, parent_couplings(0.6, p.q))

    @pytest.mark.parametrize("theta", [0.3, math.pi / 4, 1.2])
    @pytest.mark.parametrize("dJz", [0.03, -0.05])
    def test_detuned_transverse_helix_closed_forms(self, theta, dJz):
        """At parent couplings both residuals vanish and each is linear in J,
        so dJz alone is left: |e^z| = sin(theta) gives r1 = sin^2(theta)|dJz|,
        and the field dJz (Omega^z_{j-1} + Omega^z_{j+1}) zhat = 2 cos(theta)
        dJz zhat has torque |sin 2theta dJz| on a spin at polar angle theta."""
        L = 12
        q = 2.0 * math.pi / L
        tex = helix_texture(0.0, math.cos(theta), q * np.arange(L))
        r1, r2 = gz_condition_residuals(tex, parent_couplings(0.0, q).detuned(dJz=dJz))
        np.testing.assert_allclose(r1, math.sin(theta) ** 2 * abs(dJz), rtol=0, atol=1e-14)
        np.testing.assert_allclose(r2, abs(math.sin(2.0 * theta) * dJz), rtol=0, atol=1e-14)

    def test_invariant_under_global_rotations(self):
        """Omega -> R Omega with J -> R J R^T leaves every bond's energy and
        every torque's length as they were, for spins along each lab axis
        (-zhat included) and for the rotated scar alike."""
        rng = np.random.default_rng(29)
        axes = np.concatenate([np.eye(3), -np.eye(3)])
        random = rng.normal(size=(6, 3))
        tex = np.concatenate([axes, random / np.linalg.norm(random, axis=1, keepdims=True)])
        p = ScarParams.commensurate(0.9, 1, 12, gamma=0.4)
        scar = scar_texture(p)
        cases = [
            (tex, rng.normal(size=(3, 3))),
            (scar, parent_couplings(p.kappa, p.q).detuned(dJx=0.03).as_matrix()),
        ]
        # the half turn about x sends zhat to -zhat, and the quarter turns
        # send the lab axes onto one another
        rotations = [
            np.diag([1.0, -1.0, -1.0]),
            np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
            np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]),
        ]
        for _ in range(4):
            Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
            Q = Q * np.sign(np.diag(R))
            rotations.append(Q * np.linalg.det(Q))
        # a rotation taking the scar's first spin to -zhat
        a = np.cross(scar[0], [0.0, 0.0, -1.0])
        angle = math.atan2(np.linalg.norm(a), -scar[0, 2])
        a /= np.linalg.norm(a)
        K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
        rotations.append(np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * K @ K)
        np.testing.assert_allclose(rotations[-1] @ scar[0], [0.0, 0.0, -1.0], atol=1e-15)
        for texture, J in cases:
            r1, r2 = gz_condition_residuals(texture, J)
            for R in rotations:
                np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-15)
                assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-14)
                s1, s2 = gz_condition_residuals(texture @ R.T, R @ J @ R.T)
                np.testing.assert_allclose(s1, r1, rtol=0, atol=1e-13)
                np.testing.assert_allclose(s2, r2, rtol=0, atol=1e-13)

    def test_needs_no_other_package_module(self):
        """scars sits under every frame builder: computing the residuals
        loads no xyzscar module but elliptic."""
        code = (
            "import sys, numpy as np, xyzscar.scars; "
            "xyzscar.scars.gz_condition_residuals(np.eye(3), np.eye(3)); "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('xyzscar.'))))"
        )
        env = dict(os.environ)
        package_root = str(Path(xyzscar.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
            check=True,
        ).stdout.split()
        assert out == ["xyzscar.elliptic", "xyzscar.scars"]


class TestCommensurate:
    def test_hexagon_circular(self):
        assert commensurate_q(0.0, 6) == [(1, pytest.approx(np.pi / 3, abs=1e-15))]

    def test_hexagon_strong_modulus(self):
        [(M, q)] = commensurate_q(0.9, 6)
        assert M == 1
        assert q == pytest.approx(2 * complete_K(0.9) / 3, rel=1e-15)

    def test_seven_site_ring(self):
        [(M, q)] = commensurate_q(0.8, 7)
        assert M == 1
        assert q == pytest.approx(4 * complete_K(0.8) / 7, rel=1e-15)

    @pytest.mark.parametrize(
        "L,count", [(2, 0), (4, 0), (5, 1), (8, 1), (9, 2), (12, 2), (100, 24)]
    )
    def test_counts(self, L, count):
        qs = commensurate_q(0.5, L)
        assert len(qs) == count
        K = complete_K(0.5)
        for M, q in qs:
            assert 0.0 < q < K

    def test_rejects_tiny_chain(self):
        with pytest.raises(ValueError):
            commensurate_q(0.5, 1)


class TestCouplings:
    def test_totals_and_matrix(self):
        """detuned stores the couplings it means: Jx + dJx and Jz + dJz, bit
        for bit, and as_matrix is their diagonal."""
        J = XYZCouplings(Jx=0.9, Jy=1.0, Jz=0.8).detuned(dJx=0.01, dJz=-0.02)
        assert (J.Jx, J.Jy, J.Jz) == (0.9 + 0.01, 1.0, 0.8 - 0.02)
        np.testing.assert_array_equal(J.as_matrix(), np.diag([0.9 + 0.01, 1.0, 0.8 - 0.02]))

    def test_detuned_accumulates(self):
        J = XYZCouplings(Jx=0.9, Jy=1.0, Jz=0.8)
        J2 = J.detuned(dJz=0.03).detuned(dJz=0.01, dJx=-0.005)
        assert J2.Jz == pytest.approx(0.84)
        assert J2.Jx == pytest.approx(0.895)
        assert J2.Jy == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_coupling_matrix_rejects_non_finite(self, bad):
        full = np.eye(3)
        full[0, 1] = bad
        for J in (
            XYZCouplings(Jx=bad, Jy=1.0, Jz=0.5),
            XYZCouplings(Jx=0.9, Jy=1.0, Jz=0.5).detuned(dJz=bad),
            (0.9, bad, 0.5),
            full,
        ):
            with pytest.raises(ValueError, match="couplings must be finite"):
                coupling_matrix(J)

    @pytest.mark.parametrize("S", [0.0, -2.0, math.nan, math.inf])
    def test_check_spin_length(self, S):
        with pytest.raises(ValueError, match="spin length S must be positive and finite"):
            check_spin_length(S)

    @pytest.mark.parametrize("S,two_s", [(0.5, 1), (1.0, 2), (2.5, 5), (0.5 + 4e-13, 1)])
    def test_twice_spin(self, S, two_s):
        assert _twice_spin(S) == two_s

    @pytest.mark.parametrize("S", [1e-300, 5e-13, 2.4e-13, 0.3, 0.0, -0.5, math.nan, math.inf])
    def test_twice_spin_rejects_what_rounds_below_one(self, S):
        """2S = 1e-12 rounds to 0 within the half-integer test's 1e-12, so
        the rounded 2S itself must reach 1."""
        with pytest.raises(ValueError, match=f"2S must be a positive integer, got S = {S}$"):
            _twice_spin(S)

    @pytest.mark.parametrize("kappa,M,L", [(0.0, 1, 6), (0.0, 2, 12), (0.9, 1, 5), (0.8, 20, 140)])
    def test_commensurate_scars_pass(self, kappa, M, L):
        _require_commensurate(ScarParams.commensurate(kappa, M, L, gamma=0.0))

    @pytest.mark.parametrize("q,L", [(math.pi / 3, 5), (math.pi / 3, 3), (0.4, 6)])
    def test_incommensurate_scars_fail(self, q, L):
        p = ScarParams(kappa=0.0, q=q, gamma=0.7, L=L)
        with pytest.raises(ValueError, match=f"q = {q} is not commensurate with L = {L}: "):
            _require_commensurate(p)


class TestScarFamily:
    """The family rules: which cut a (kappa, gamma) is, which coupling its
    detuning moves and how fast the quenched scar precesses."""

    @pytest.mark.parametrize(
        "kappa,gamma,family",
        [(0.0, 0.7, "transverse"), (0.0, 0.0, "transverse"), (0.0, 1.0, "transverse"),
         (0.5, 0.0, "gtsh"), (0.8, 1.0, "glsh"), (1e-6, 1.0, "glsh")],
    )
    def test_family_of_kappa_and_gamma(self, kappa, gamma, family):
        assert scar_family(kappa, gamma) == family

    @pytest.mark.parametrize("gamma", [0.4, 1e-12, 1.0 - 1e-12])
    def test_generic_gamma_has_no_closed_form(self, gamma):
        with pytest.raises(ValueError, match=f"got gamma = {gamma}"):
            scar_family(0.5, gamma)

    @pytest.mark.parametrize(
        "kappa,gamma,S,coupling",
        [(0.0, 0.6, 1.5, "Jz"), (0.7, 0.0, 1.0, "Jz"), (0.7, 1.0, 0.5, "Jx")],
    )
    def test_quench_detunes_one_coupling(self, kappa, gamma, S, coupling):
        p = ScarParams(kappa=kappa, q=0.4, gamma=gamma, L=8, S=S)
        parent = parent_couplings(kappa, 0.4)
        J, omega = scar_quench(p, 0.03)
        moved = {"Jx": parent.detuned(dJx=0.03), "Jz": parent.detuned(dJz=0.03)}[coupling]
        assert J == moved
        assert omega == (-2.0 * S * gamma * 0.03 if kappa == 0.0 else 0.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kappa,gamma", [(0.0, 0.6), (0.7, 0.0), (0.7, 1.0)])
    def test_quench_rejects_non_finite_detuning(self, kappa, gamma, delta):
        """One check for every family, before the rate or the couplings form."""
        p = ScarParams(kappa=kappa, q=0.4, gamma=gamma, L=8)
        with pytest.raises(ValueError, match=f"^detuning delta must be finite, got {delta}$"):
            scar_quench(p, delta)

    @pytest.mark.parametrize("delta", [1e308, -1e308])
    def test_quench_rejects_an_overflowing_rate(self, delta):
        """A finite delta whose rate -2 S gamma delta overflows raises naming
        the rate, so no route that reads it sees inf."""
        p = ScarParams(kappa=0.0, q=0.4, gamma=0.6, L=8, S=1.5)
        with pytest.raises(
            ValueError,
            match=re.escape(
                f"precession rate -2 S gamma delta overflows at S = 1.5, gamma = 0.6, "
                f"delta = {delta}"
            ),
        ):
            scar_quench(p, delta)


EDGE_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e-300,
               1e16, 1e-5, 0.1, -2.5, 1.0 / 3.0]


class TestWriteCsv:
    """write_csv gives the bytes of the row-wise writer it replaced."""

    @staticmethod
    def assert_same_bytes(tmp_path, oracle, header, columns):
        write_csv(tmp_path / "new.csv", header, columns)
        oracle(tmp_path / "old.csv", header, columns)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        return new.decode()

    def test_edge_floats(self, tmp_path, csv_oracle):
        rng = np.random.default_rng(18)
        values = np.array(EDGE_FLOATS)[rng.integers(len(EDGE_FLOATS), size=500)]
        # a NaN with another payload is another key, and still prints nan
        payload_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)
        values = np.concatenate([values, payload_nan, -values])
        text = self.assert_same_bytes(tmp_path, csv_oracle, ["x", "y"], [values, values[::-1]])
        words = set(text.replace("\n", ",").split(",")[:-1])
        assert {"-0.0", "0.0", "nan", "inf", "-inf", "5e-324", "1e-300", "1e+16", "1e-05"} <= words

    @pytest.mark.parametrize(
        "column",
        [
            np.arange(-40, 40).repeat(3),
            np.array([0, 2**64 - 1, 2**63, 7] * 9, dtype=np.uint64),
            np.array([-128, 0, 127] * 11, dtype=np.int8),
            np.array([True, False, False] * 13),
            np.array(EDGE_FLOATS * 3, dtype=np.float32),
            np.array([-0.0, 0.0, np.nan, np.inf, 6e-8, 1e-5, 0.1, 65504.0] * 3, dtype=np.float16),
            np.array(["U", "S", "ES", "U"] * 5),
            np.array([1.5, None, "nan", 2] * 4, dtype=object),
            np.array([1 + 2j, -0.0j, complex("nan+1j")] * 4),
            np.array([0.1, -0.0, 1e-300] * 4, dtype=np.longdouble),
        ],
        ids=["int64", "uint64", "int8", "bool", "float32", "float16", "str", "object", "complex",
             "longdouble"],
    )
    def test_column_dtypes(self, tmp_path, csv_oracle, column):
        self.assert_same_bytes(tmp_path, csv_oracle, ["c", "n"], [column, np.arange(len(column))])

    def test_strided_columns_and_lists(self, tmp_path, csv_oracle):
        texture = np.random.default_rng(3).standard_normal((40, 3)).round(2)
        columns = [list(range(40)), *texture.T, ["gapless"] * 40]
        self.assert_same_bytes(tmp_path, csv_oracle, ["j", "Ox", "Oy", "Oz", "branch"], columns)

    def test_empty_table(self, tmp_path, csv_oracle):
        text = self.assert_same_bytes(tmp_path, csv_oracle, ["t", "D"], [np.empty(0), []])
        assert text == "t,D\n"

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunk_boundaries(self, tmp_path, csv_oracle, extra):
        n = 2 * _CSV_CHUNK_ROWS + extra
        times = np.repeat(np.linspace(0.0, 20.0, n // 7 + 1), 7)[:n]
        noise = np.random.default_rng(extra + 1).standard_normal(n)
        text = self.assert_same_bytes(
            tmp_path, csv_oracle, ["t", "j", "x"], [times, np.arange(n) % 7, noise]
        )
        assert text.count("\n") == n + 1
