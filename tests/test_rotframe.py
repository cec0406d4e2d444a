"""Rotating-frame constructions: gauges, closed-form couplings, stationarity."""

import math
import warnings

import numpy as np
import pytest

from xyzscar.elliptic import complete_K, jacobi_sncndn
from xyzscar.rotframe import (
    FrameData,
    _axis_frame,
    frame_transverse,
    scar_frame,
    stationarity_residual,
)
from xyzscar.scars import (
    ScarParams,
    commensurate_q,
    helix_texture,
    parent_couplings,
    scar_family,
    scar_texture,
)


def elliptic_frame(kappa, q, gamma, L, delta=0.0):
    """scar_frame of gtsh (gamma = 0) or glsh (gamma = 1) at S = 1."""
    return scar_frame(ScarParams(kappa=kappa, q=q, gamma=gamma, L=L), delta)


def assert_frame_wellformed(frame: FrameData):
    eye = np.eye(3)
    for R in frame.R:
        np.testing.assert_allclose(R.T @ R, eye, atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def all_frames_for(kappa, q, L, theta=np.pi / 4):
    yield frame_transverse(theta, q, 0.0, L)
    if 0.0 < kappa < 1.0:
        yield elliptic_frame(kappa, q, 0.0, L)
        yield elliptic_frame(kappa, q, 1.0, L)


def bond_couplings(R, J):
    """JR_j = R_j^T J R_{j+1} on the periodic ring."""
    return np.einsum("jab,bc,jcd->jad", R.transpose(0, 2, 1), J, np.roll(R, -1, axis=0))


def _rotation_z(phis):
    c, s = np.cos(phis), np.sin(phis)
    zero, one = np.zeros_like(c), np.ones_like(c)
    return np.stack(
        [
            np.stack([c, -s, zero], axis=-1),
            np.stack([s, c, zero], axis=-1),
            np.stack([zero, zero, one], axis=-1),
        ],
        axis=-2,
    )


def reference_frame_transverse(theta, q, omega, L, dJz=0.0):
    """The hand-written transverse frame R_j = Rz(qj) Ry(theta)."""
    c, s = math.cos(theta), math.sin(theta)
    Ry = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    J = np.diag([1.0, 1.0, math.cos(q) + dJz])
    R = _rotation_z(q * np.arange(L)) @ Ry
    hR = np.tile(omega * np.array([-s, 0.0, c]), (L, 1))
    return FrameData(R=R, JR=bond_couplings(R, J), hR=hR)


def reference_frame_gtsh(kappa, q, L, dJz=0.0):
    """The hand-written gtsh frame: Ry(pi/2), then Rz(am(qj, kappa))."""
    J = parent_couplings(kappa, q).detuned(dJz=dJz).as_matrix()
    sn, cn, _ = jacobi_sncndn(q * np.arange(L), kappa)
    zero = np.zeros(L)
    R = np.stack(
        [
            np.stack([zero, -sn, cn], axis=-1),
            np.stack([zero, cn, sn], axis=-1),
            np.stack([-np.ones(L), zero, zero], axis=-1),
        ],
        axis=-2,
    )
    return FrameData(R=R, JR=bond_couplings(R, J), hR=np.zeros((L, 3)))


def reference_frame_glsh(kappa, q, L, dJx=0.0):
    """The hand-written glsh frame: Rx(-arcsin(kappa sn(qj, kappa)))."""
    J = parent_couplings(kappa, q).detuned(dJx=dJx).as_matrix()
    sn, _, dn = jacobi_sncndn(q * np.arange(L), kappa)
    zero, one = np.zeros(L), np.ones(L)
    R = np.stack(
        [
            np.stack([one, zero, zero], axis=-1),
            np.stack([zero, dn, kappa * sn], axis=-1),
            np.stack([zero, -kappa * sn, dn], axis=-1),
        ],
        axis=-2,
    )
    return FrameData(R=R, JR=bond_couplings(R, J), hR=np.zeros((L, 3)))


def axis_frame_gtsh(kappa, q, L, dJz=0.0):
    """The gtsh frame as its own function built it before scar_frame."""
    J = parent_couplings(kappa, q).detuned(dJz=dJz).as_matrix()
    return _axis_frame(helix_texture(kappa, 0.0, q * np.arange(L)), J, (0.0, 0.0, -1.0))


def axis_frame_glsh(kappa, q, L, dJx=0.0):
    """The glsh frame as its own function built it before scar_frame."""
    J = parent_couplings(kappa, q).detuned(dJx=dJx).as_matrix()
    return _axis_frame(helix_texture(kappa, 1.0, q * np.arange(L)), J, (1.0, 0.0, 0.0))


def assert_frames_match(frame, ref):
    np.testing.assert_allclose(frame.R, ref.R, rtol=0, atol=1e-15)
    np.testing.assert_allclose(frame.JR, ref.JR, rtol=0, atol=1e-14)
    np.testing.assert_allclose(frame.hR, ref.hR, rtol=0, atol=1e-14)


def assert_frames_equal(frame, ref):
    for name in ("R", "JR", "hR"):
        assert np.array_equal(getattr(frame, name), getattr(ref, name)), name


class TestAxisGauge:
    """The one axis-gauge rule reproduces the hand-written family frames."""

    @pytest.mark.parametrize("dJz", [-0.04, 0.0, 0.04])
    @pytest.mark.parametrize(
        "theta,q,omega",
        [
            (np.pi / 4, np.pi / 3, 0.0),
            (0.3, 0.0, 0.25),
            (np.pi / 2, 2.5, -0.7),
            (2.8, np.pi / 5, 0.1),
        ],
    )
    def test_transverse(self, theta, q, omega, dJz):
        L = 24
        assert_frames_match(
            frame_transverse(theta, q, omega, L, dJz=dJz),
            reference_frame_transverse(theta, q, omega, L, dJz=dJz),
        )

    @pytest.mark.parametrize("delta", [-0.05, 0.0, 0.05])
    @pytest.mark.parametrize("kappa", [1e-6, 0.5, 0.9, 0.96])
    def test_elliptic_families(self, kappa, delta):
        L = 40
        q = commensurate_q(kappa, L)[1][1]
        assert_frames_match(
            elliptic_frame(kappa, q, 0.0, L, delta), reference_frame_gtsh(kappa, q, L, dJz=delta)
        )
        assert_frames_match(
            elliptic_frame(kappa, q, 1.0, L, delta), reference_frame_glsh(kappa, q, L, dJx=delta)
        )


class TestScarFrame:
    """scar_frame is the one frame of a quenched scar; it reproduces every
    family's earlier frame bit for bit."""

    @pytest.mark.parametrize("delta", [-0.05, 0.0, 0.02, 0.05])
    @pytest.mark.parametrize("kappa", [1e-6, 0.3, 0.5, 0.8, 0.9, 0.96])
    @pytest.mark.parametrize("L, winding", [(12, 0), (13, None), (40, 1)])
    def test_elliptic_families_bitwise(self, kappa, delta, L, winding):
        q = complete_K(kappa) / 3 if winding is None else commensurate_q(kappa, L)[winding][1]
        gtsh, glsh = (elliptic_frame(kappa, q, gamma, L, delta) for gamma in (0.0, 1.0))
        assert_frames_equal(gtsh, axis_frame_gtsh(kappa, q, L, delta))
        assert_frames_equal(glsh, axis_frame_glsh(kappa, q, L, delta))

    @pytest.mark.parametrize("delta", [-0.04, 0.0, 0.03])
    @pytest.mark.parametrize("S", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize(
        "theta, q", [(np.pi / 4, np.pi / 3), (0.3, 0.4), (1.2, 1.1), (np.pi / 2, 0.7)]
    )
    def test_transverse_is_frame_transverse_at_its_rate(self, theta, q, S, delta):
        p = ScarParams(kappa=0.0, q=q, gamma=math.cos(theta), L=24, S=S)
        omega = -2.0 * S * math.cos(theta) * delta
        assert_frames_equal(scar_frame(p, delta), frame_transverse(theta, q, omega, 24, dJz=delta))

    @pytest.mark.parametrize("kappa, gamma", [(0.0, 0.7), (0.0, 0.0), (0.9, 0.0), (0.8, 1.0)])
    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
    def test_non_finite_precession_rejected_before_hR(self, kappa, gamma, delta):
        """scar_quench rejects a non-finite delta in every family: at
        kappa = 0 before omega * R forms hR (inf times the texture's zeros
        would warn), at kappa > 0 before the coupling reaches JR."""
        p = ScarParams(kappa=kappa, q=0.5, gamma=gamma, L=8)
        with pytest.raises(ValueError, match=f"^detuning delta must be finite, got {delta}$"):
            scar_frame(p, delta)

    @pytest.mark.parametrize("delta", [1e308, -1e308])
    def test_overflowing_precession_rate_rejected(self, delta):
        """A finite delta whose rate -2 S gamma delta overflows raises naming
        the rate, before it forms hR."""
        p = ScarParams(kappa=0.0, q=0.5, gamma=0.7, L=8, S=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^precession rate -2 S gamma delta overflows"):
                scar_frame(p, delta)

    def test_texture_on_the_gauge_axis_rejected(self):
        """kappa = 0, gamma = 1 is the uniform z state: it lies on the -zhat
        gauge axis, and the frame refuses it instead of dividing by zero."""
        with pytest.raises(ValueError, match="axis gauge undefined"):
            scar_frame(ScarParams(kappa=0.0, q=0.5, gamma=1.0, L=6), 0.02)

    def test_generic_gamma_has_no_frame(self):
        with pytest.raises(ValueError, match="no closed-form classical trajectory"):
            scar_frame(ScarParams(kappa=0.5, q=0.5, gamma=0.4, L=6))


class TestFrameGeometry:
    @pytest.mark.parametrize("kappa,q,L", [(0.5, 0.8, 9), (0.9, 0.4, 14), (0.0, 1.1, 6)])
    def test_orthogonality(self, kappa, q, L):
        for frame in all_frames_for(kappa, q, L):
            assert_frame_wellformed(frame)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_axis_reproduces_texture(self, gamma):
        kappa, L = 0.8, 7
        q = commensurate_q(kappa, L)[0][1]
        tex = scar_texture(ScarParams(kappa=kappa, q=q, gamma=gamma, L=L))
        frame = elliptic_frame(kappa, q, gamma, L)
        np.testing.assert_allclose(frame.R[:, :, 2], tex, atol=1e-12)

    def test_transverse_axis(self):
        theta, q, L = 0.7, 0.5, 10
        frame = frame_transverse(theta, q, 0.0, L)
        j = np.arange(L)
        expected = np.column_stack(
            [
                np.sin(theta) * np.cos(q * j),
                np.sin(theta) * np.sin(q * j),
                np.full(L, np.cos(theta)),
            ]
        )
        np.testing.assert_allclose(frame.R[:, :, 2], expected, atol=1e-12)


class TestTransverseFrame:
    def test_closed_form_couplings(self):
        theta, q, dJz, L = np.pi / 4, np.pi / 3, 0.03, 12
        frame = frame_transverse(theta, q, 0.0, L, dJz=dJz)
        c, s = np.cos(theta), np.sin(theta)
        cq, sq = np.cos(q), np.sin(q)
        expected = np.array(
            [
                [cq + s * s * dJz, -c * sq, -c * s * dJz],
                [c * sq, cq, s * sq],
                [-c * s * dJz, -s * sq, cq + c * c * dJz],
            ]
        )
        for JR in frame.JR:
            np.testing.assert_allclose(JR, expected, atol=1e-12)
        assert frame.JR[0, 0, 0] == pytest.approx(np.cos(q) + np.sin(theta) ** 2 * dJz)

    def test_effective_field(self):
        theta, q, S, dJz = 1.2, 0.9, 1.5, 0.02
        omega = -2 * S * np.cos(theta) * dJz
        frame = frame_transverse(theta, q, omega, 8, dJz=dJz)
        expected = np.array(
            [2 * S * np.cos(theta) * np.sin(theta) * dJz, 0.0, -2 * S * np.cos(theta) ** 2 * dJz]
        )
        np.testing.assert_allclose(frame.hR, np.tile(expected, (8, 1)), atol=1e-13)

    def test_no_detuning_no_field(self):
        frame = frame_transverse(0.9, 0.5, 0.0, 6)
        np.testing.assert_allclose(frame.hR, 0.0, atol=0)

    def test_equator_maps_x_to_z(self):
        frame = frame_transverse(np.pi / 2, 0.0, 0.0, 4, dJz=-0.7)
        # lab x becomes the frame z-axis, so JR^zz picks up Jx = 1
        assert frame.JR[0, 2, 2] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("theta", [0.0, np.pi])
    def test_polar_singularity_rejected(self, theta):
        with pytest.raises(ValueError):
            frame_transverse(theta, 0.5, 0.0, 6)


class TestEllipticFrames:
    @pytest.mark.parametrize("gamma,slot", [(0.0, "Jz"), (1.0, "Jx")])
    def test_closed_form_couplings(self, gamma, slot):
        kappa, L = 0.9, 12
        q = commensurate_q(kappa, L)[0][1]
        j = np.arange(L)
        snj, cnj, dnj = jacobi_sncndn(q * j, kappa)
        snj1, cnj1, dnj1 = jacobi_sncndn(q * (j + 1), kappa)
        snq, cnq, dnq = jacobi_sncndn(q, kappa)
        shared = (cnq * dnq + cnj * snj * dnj * kappa**2 * snq**3) / (
            1 - kappa**2 * snj**2 * snq**2
        )
        expected = np.zeros((L, 3, 3))
        expected[:, 2, 2] = shared
        if slot == "Jz":
            expected[:, 0, 0] = cnq
            expected[:, 1, 1] = cnq
            expected[:, 1, 2] = snq * dnj
            expected[:, 2, 1] = -snq * dnj1
        else:
            expected[:, 0, 0] = dnq
            expected[:, 1, 1] = dnq
            expected[:, 1, 2] = kappa * snq * cnj
            expected[:, 2, 1] = -kappa * snq * cnj1
        frame = elliptic_frame(kappa, q, gamma, L)
        np.testing.assert_allclose(frame.JR, expected, atol=1e-10)
        np.testing.assert_allclose(frame.hR, 0.0, atol=0)

    def test_gtsh_zz_at_node(self):
        # at sites where sn(qj) = 0 the zz entry reduces to Jy cn(q) dn(q)
        kappa, L = 0.7, 8
        q = commensurate_q(kappa, L)[0][1]
        frame = elliptic_frame(kappa, q, 0.0, L)
        _, cnq, dnq = jacobi_sncndn(q, kappa)
        assert frame.JR[0, 2, 2] == pytest.approx(cnq * dnq, abs=1e-12)
        # sn(q L/2) = sn(2K) = 0 as well
        assert frame.JR[L // 2, 2, 2] == pytest.approx(cnq * dnq, abs=1e-12)

    def test_glsh_top_left_is_Jx(self):
        kappa, L = 0.6, 10
        q = commensurate_q(kappa, L)[0][1]
        dJx = 0.02
        frame = elliptic_frame(kappa, q, 1.0, L, dJx)
        dnq = jacobi_sncndn(q, kappa)[2]
        np.testing.assert_allclose(frame.JR[:, 0, 0], dnq + dJx, atol=1e-12)

    def test_detuning_lands_in_xx_slot_gtsh(self):
        kappa, L = 0.9, 6
        q = commensurate_q(kappa, L)[0][1]
        dJz = 0.05
        plain = elliptic_frame(kappa, q, 0.0, L)
        detuned = elliptic_frame(kappa, q, 0.0, L, dJz)
        diff = detuned.JR - plain.JR
        np.testing.assert_allclose(diff[:, 0, 0], dJz, atol=1e-13)
        diff[:, 0, 0] = 0.0
        np.testing.assert_allclose(diff, 0.0, atol=1e-13)

    def test_domain(self):
        # gtsh at kappa = 0 is the transverse helix at theta = pi/2; it
        # differs from frame_transverse(pi/2) only by cos(pi/2) = 6.1e-17
        assert scar_family(0.0, 0.0) == "transverse"
        equator = frame_transverse(np.pi / 2, 0.5, 0.0, 6)
        assert_frames_match(elliptic_frame(0.0, 0.5, 0.0, 6), equator)
        with pytest.raises(ValueError):
            elliptic_frame(1.0, 0.5, 1.0, 6)
        with pytest.raises(ValueError):
            elliptic_frame(0.5, complete_K(0.5), 0.0, 6)

    def test_family_overlap_at_equator(self):
        # gtsh at kappa -> 0 degenerates to the equatorial transverse helix
        # in the same gauge, so the rotated couplings must agree.
        q, L = 0.7, 9
        kappa = 1e-6
        a = elliptic_frame(kappa, q, 0.0, L)
        b = frame_transverse(np.pi / 2, q, 0.0, L)
        np.testing.assert_allclose(a.JR, b.JR, atol=1e-8)
        np.testing.assert_allclose(a.R, b.R, atol=1e-8)


class TestStationarity:
    def test_scar_families_are_static(self):
        kappa, L = 0.8, 14
        q = commensurate_q(kappa, L)[0][1]
        for frame in (elliptic_frame(kappa, q, 0.0, L), elliptic_frame(kappa, q, 1.0, L)):
            residual, _ = stationarity_residual(frame, 1.0)
            assert residual.max() <= 1e-10

    def test_transverse_requires_matching_rotation(self):
        theta, q, S, dJz, L = np.pi / 4, np.pi / 3, 1.0, 0.03, 12
        omega = -2 * S * np.cos(theta) * dJz
        frame = frame_transverse(theta, q, omega, L, dJz=dJz)
        residual, omega_j = stationarity_residual(frame, S)
        assert residual.max() <= 1e-10
        # the detuning's zz shift cancels against the field: omega_j = 2S cos q
        np.testing.assert_allclose(omega_j, 2 * S * np.cos(q), atol=1e-12)

        frozen = frame_transverse(theta, q, 0.0, L, dJz=dJz)
        residual, _ = stationarity_residual(frozen, S)
        assert residual.max() > 1e-3
