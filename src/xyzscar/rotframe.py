"""Site-local rotating frames for helical textures.

Each frame is a sequence of rotations R_j with R_j zhat = Omega_j. The bond
couplings seen from the rotating frame are JR_j = R_j^T J R_{j+1}, and a
frame rotating about the lab z axis at rate omega contributes the effective
field hR_j = omega R_j^T zhat. :func:`scar_frame` is the frame of a quenched
scar, from its texture, couplings and precession rate in :mod:`xyzscar.scars`,
in one axis gauge: the frame's y axis is the unit vector along Omega_j x
axis, for a fixed lab axis the texture never touches (+xhat for glsh, -zhat
otherwise). :func:`frame_transverse` is the transverse helix's frame at a
free rate. This axis gauge is the package's one frame builder; the
eigenstate conditions of :func:`xyzscar.scars.gz_condition_residuals` need
no frame. The stationarity residual measures whether a texture is a
mean-field solution in the given frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scars import (
    ScarParams,
    helix_texture,
    scar_family,
    scar_quench,
    scar_texture,
)


@dataclass
class FrameData:
    """Rotating-frame snapshot: rotations, bond couplings, effective fields.

    R[j] is the rotation at site j, JR[j] = R[j]^T J R[j+1] the coupling on
    the bond (j, j+1) with periodic wrap, hR[j] the effective field at site j.
    """

    R: np.ndarray
    JR: np.ndarray
    hR: np.ndarray

    @property
    def L(self) -> int:
        return self.R.shape[0]


def _axis_frame(texture: np.ndarray, J: np.ndarray, axis, omega: float = 0.0) -> FrameData:
    """Axis-gauge frame R_j = [e2 x Omega_j, e2, Omega_j], e2 = unit(Omega_j x axis).

    The frame rotates about the lab z axis at rate omega, which adds the
    field hR_j = omega R_j^T zhat. Raises where Omega_j is parallel to axis.
    """
    e2 = np.cross(texture, axis)
    norms = np.linalg.norm(e2, axis=1, keepdims=True)
    if not norms.all():
        raise ValueError(f"axis gauge undefined: a spin lies along the axis {axis}")
    e2 /= norms
    R = np.stack([np.cross(e2, texture), e2, texture], axis=-1)
    JR = np.einsum("jab,bc,jcd->jad", R.transpose(0, 2, 1), J, np.roll(R, -1, axis=0))
    return FrameData(R=R, JR=JR, hR=omega * R[:, 2, :])


def frame_transverse(
    theta: float,
    q: float,
    omega: float,
    L: int,
    dJz: float = 0.0,
) -> FrameData:
    """Frame of the transverse helix with cone angle theta, rotating at omega.

    Omega_j = helix_texture(0, cos theta, q j) sits at polar angle theta and
    azimuth q j, in the axis gauge about -zhat, so R_j = Rz(q j) Ry(theta).
    The underlying couplings are the kappa = 0 parent diag(1, 1, cos q) plus
    the detuning dJz; the frame rotation about z contributes the homogeneous
    effective field hR = omega * (-sin theta, 0, cos theta). This is the
    frame at t = 0; later R_j turn about z by -omega t, and JR and hR stay.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError(f"spherical chart is singular at theta = {theta}")
    J = np.diag([1.0, 1.0, math.cos(q) + dJz])
    texture = helix_texture(0.0, math.cos(theta), q * np.arange(L))
    return _axis_frame(texture, J, (0.0, 0.0, -1.0), omega)


def scar_frame(p: ScarParams, delta: float = 0.0) -> FrameData:
    """Axis-gauge frame of the scar p quenched by delta (scars.scar_quench,
    which rejects a precession rate that overflows)."""
    J, omega = scar_quench(p, delta)
    axis = (1.0, 0.0, 0.0) if scar_family(p.kappa, p.gamma) == "glsh" else (0.0, 0.0, -1.0)
    return _axis_frame(scar_texture(p), J.as_matrix(), axis, omega)


def stationarity_residual(frame: FrameData, S: float) -> tuple[np.ndarray, np.ndarray]:
    """Transverse residual of the mean-field fixed-point condition.

    The torque on the frame axis at site j is
    t_j = S (JR_{j-1}^T + JR_j) zhat + hR_j; a texture is stationary in its
    frame exactly when t_j is parallel to zhat. Returns (residual, omega)
    where residual_j = |(t_j^x, t_j^y)| and omega_j = t_j^z is the per-site
    precession frequency.
    """
    JR_prev = np.roll(frame.JR, 1, axis=0)
    t = S * (JR_prev.transpose(0, 2, 1) + frame.JR)[:, :, 2] + frame.hR
    return np.hypot(t[:, 0], t[:, 1]), t[:, 2].copy()
