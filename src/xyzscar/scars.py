"""Scar textures of the spin-S XYZ chain and their coupling maps.

A scar texture is a product state of coherent spins whose Bloch vectors trace
an elliptic helix, Omega_j = helix_texture(kappa, gamma, qj + phi). For the
parent couplings (Jx, Jy, Jz) = (dn(q,k), 1, cn(q,k)) this product state is
an exact eigenstate of the XYZ ring; the residuals of the two eigenstate
conditions are exposed by :func:`gz_condition_residuals`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .elliptic import complete_E, complete_K, jacobi_am, jacobi_epsilon, jacobi_sncndn

#: residuals below this are machine-level "exactly satisfied"
EXACT_RESIDUAL_TOL = 1e-10
#: residuals above this indicate a physically broken condition
BROKEN_RESIDUAL_TOL = 1e-3
#: rows per formatting chunk in write_csv
_CSV_CHUNK_ROWS = 8192
#: the parent coupling a quench of each scar_family cut detunes
DETUNED_COUPLING = {"transverse": "Jz", "gtsh": "Jz", "glsh": "Jx"}
#: q must equal 4MK/L to this accuracy to count as a ring-commensurate scar
COMMENSURATE_TOL = 1e-9


@dataclass(frozen=True)
class XYZCouplings:
    """Diagonal exchange couplings (Jx, Jy, Jz).

    The parent convention is Jy = 1 with 0 <= Jz <= Jx <= 1; :meth:`detuned`
    gives the perturbed couplings of the stability analysis.
    """

    Jx: float
    Jy: float
    Jz: float

    def as_matrix(self) -> np.ndarray:
        """3x3 diagonal coupling matrix."""
        return np.diag((self.Jx, self.Jy, self.Jz))

    def detuned(self, dJx: float = 0.0, dJz: float = 0.0) -> "XYZCouplings":
        """These couplings with dJx added onto Jx and dJz onto Jz."""
        return XYZCouplings(self.Jx + dJx, self.Jy, self.Jz + dJz)


def coupling_matrix(J) -> np.ndarray:
    """Coerce an XYZCouplings or an array-like into a finite 3x3 coupling matrix."""
    mat = J.as_matrix() if isinstance(J, XYZCouplings) else np.asarray(J, dtype=float)
    if mat.shape == (3,):
        mat = np.diag(mat)
    if mat.shape != (3, 3):
        raise ValueError(f"coupling must be XYZCouplings, 3-vector or 3x3, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError(f"couplings must be finite, got {mat.tolist()}")
    return mat


def check_spin_length(S: float) -> None:
    """Reject a spin length S that is not positive and finite (NaN included)."""
    if not 0.0 < S < math.inf:
        raise ValueError(f"spin length S must be positive and finite, got {S}")


def _twice_spin(S: float) -> int:
    """2S as an int; S must be a positive, finite half-integer, so a 2S
    that rounds to 0 fails too."""
    two_s = 2.0 * S
    if not 0.0 < two_s < math.inf or round(two_s) < 1 or abs(two_s - round(two_s)) > 1e-12:
        raise ValueError(f"2S must be a positive integer, got S = {S}")
    return int(round(two_s))


def _check_ring(L: int) -> None:
    if L < 2:
        raise ValueError(f"need at least two sites, got L = {L}")


def checked_texture(texture) -> np.ndarray:
    """Float copy of a ring texture: shape (L, 3), L >= 2, every row a unit
    vector to 1e-9 (a NaN row is not)."""
    omega = np.array(texture, dtype=float)
    if omega.ndim != 2 or omega.shape[1] != 3:
        raise ValueError(f"texture must have shape (L, 3), got {omega.shape}")
    if len(omega) < 2:
        raise ValueError(f"the ring needs L >= 2 sites, got {len(omega)}")
    if not np.all(np.abs(np.linalg.norm(omega, axis=1) - 1.0) <= 1e-9):
        raise ValueError("texture must be unit-norm per site")
    return omega


@dataclass(frozen=True)
class ScarParams:
    """Parameters of a scar texture on a periodic ring of L sites."""

    kappa: float
    q: float
    gamma: float
    L: int
    S: float = 1.0
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1], got {self.kappa}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        _check_ring(self.L)
        _twice_spin(self.S)
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        if self.kappa < 1.0:
            if not 0.0 < self.q < complete_K(self.kappa):
                raise ValueError(
                    f"q = {self.q} outside the principal branch (0, K(kappa))"
                )
        elif self.q <= 0.0:
            raise ValueError(f"q must be positive, got {self.q}")

    @classmethod
    def commensurate(
        cls,
        kappa: float,
        M: int,
        L: int,
        gamma: float,
        S: float = 1.0,
        phi: float = 0.0,
    ) -> "ScarParams":
        """Scar with q = 4MK/L, the winding compatible with the periodic ring."""
        _check_ring(L)
        q = 4.0 * M * complete_K(kappa) / L
        return cls(kappa=kappa, q=q, gamma=gamma, L=L, S=S, phi=phi)


def _require_commensurate(p: ScarParams) -> None:
    """Reject a scar whose q does not wind its ring a whole number of times:
    such a texture is not an eigenstate of the ring, and no route's answer
    about it means anything."""
    winding = p.q * p.L / (4.0 * complete_K(p.kappa))
    if abs(winding - round(winding)) > COMMENSURATE_TOL or round(winding) < 1:
        raise ValueError(
            f"q = {p.q} is not commensurate with L = {p.L}: "
            f"q L / 4K = {winding} must be a positive integer"
        )


def parent_couplings(kappa: float, q: float) -> XYZCouplings:
    """Couplings (dn(q,kappa), 1, cn(q,kappa)) whose XYZ ring the scar solves.

    Parameters
    ----------
    kappa : float
        Modulus in [0, 1).
    q : float
        Wavenumber on the principal branch 0 < q < K(kappa).
    """
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"kappa must lie in [0, 1), got {kappa}")
    if not 0.0 < q < complete_K(kappa):
        raise ValueError(f"q = {q} outside (0, K(kappa))")
    _, cn, dn = jacobi_sncndn(q, kappa)
    return XYZCouplings(Jx=dn, Jy=1.0, Jz=cn)


def scar_family(kappa: float, gamma: float) -> str:
    """The family's cut: transverse at kappa = 0, else gtsh (gamma 0) or glsh (gamma 1)."""
    if kappa == 0.0:
        return "transverse"
    if gamma == 0.0:
        return "gtsh"
    if gamma == 1.0:
        return "glsh"
    raise ValueError(
        "no closed-form classical trajectory for kappa > 0 unless "
        f"gamma is 0 (gtsh) or 1 (glsh), got gamma = {gamma}"
    )


def scar_quench(p: ScarParams, delta: float) -> tuple[XYZCouplings, float]:
    """Parent couplings of p with delta on its DETUNED_COUPLING, and the rate
    the quenched scar precesses about z at: -2 S gamma delta for the
    transverse helix, 0 for gtsh and glsh, which stay static solutions.
    A non-finite delta raises, for every family, and so does a finite one
    whose rate overflows."""
    if not math.isfinite(delta):
        raise ValueError(f"detuning delta must be finite, got {delta}")
    family = scar_family(p.kappa, p.gamma)
    J = parent_couplings(p.kappa, p.q).detuned(**{"d" + DETUNED_COUPLING[family]: delta})
    omega = -2.0 * p.S * p.gamma * delta if family == "transverse" else 0.0
    if not math.isfinite(omega):
        raise ValueError(
            f"precession rate -2 S gamma delta overflows at S = {p.S}, "
            f"gamma = {p.gamma}, delta = {delta}"
        )
    return J, omega


def solve_kq(Jx: float, Jz: float) -> tuple[float, float]:
    """Invert the parent map: find (kappa, q) with dn(q) = Jx, cn(q) = Jz.

    kappa follows from kappa^2 = (1 - Jx^2)/(1 - Jz^2); q is then the unique
    root of cn(q, kappa) = Jz on the principal branch 0 < q <= K(kappa),
    located by a Newton iteration on the amplitude (am' = dn, so the iteration
    is monotone and quadratically convergent from q0 = arccos(Jz) * 2K/pi).

    Raises on Jz > Jx (no real modulus) and on Jx = Jz = 1 (isotropic point,
    kappa indeterminate).
    """
    if not (0.0 <= Jz <= Jx <= 1.0):
        raise ValueError(f"need 0 <= Jz <= Jx <= 1, got Jx = {Jx}, Jz = {Jz}")
    if Jx == 1.0 and Jz == 1.0:
        raise ValueError("Jx = Jz = 1 is the isotropic point; kappa is indeterminate")
    if Jx == Jz:
        # kappa = 1 boundary: dn = cn = sech q exactly.
        return 1.0, float(np.arccosh(1.0 / Jz))
    kappa = math.sqrt((1.0 - Jx * Jx) / (1.0 - Jz * Jz))
    if kappa > 1.0:
        raise ValueError(f"no modulus in [0, 1] for Jx = {Jx}, Jz = {Jz}")
    K = complete_K(kappa)
    target = math.acos(Jz)
    q = target * 2.0 * K / math.pi
    for _ in range(60):
        dn = jacobi_sncndn(q, kappa)[2]
        step = (jacobi_am(q, kappa) - target) / dn
        q -= step
        if abs(step) < 1e-15 * max(1.0, q):
            break
    q = min(max(q, 0.0), K)
    return kappa, q


def helix_amplitudes(kappa: float, gamma: float) -> tuple[float, float]:
    """Texture amplitudes (alpha, beta) of helix_texture at modulus kappa.

    alpha^2 = (1-gamma)(1+gamma) and beta^2 = alpha^2 + (gamma kappa)^2 are
    written without cancellation, so beta is exactly kappa at gamma = 1.
    """
    if not -1.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [-1, 1], got {gamma}")
    alpha_sq = (1.0 - gamma) * (1.0 + gamma)
    return math.sqrt(alpha_sq), math.sqrt(alpha_sq + (gamma * kappa) ** 2)


def helix_texture(kappa: float, gamma: float, u) -> np.ndarray:
    """Unit Bloch vectors (alpha cn u, beta sn u, gamma dn u) at modulus kappa.

    The one formula of the Granovskii-Zhedanov texture family, for phases u
    of any shape; the result has shape u.shape + (3,). The amplitudes come
    from helix_amplitudes. Its cuts are the transverse helix (kappa = 0,
    gamma = cos theta, which may be negative), gtsh (gamma = 0) and glsh
    (gamma = 1).
    """
    alpha, beta = helix_amplitudes(kappa, gamma)
    sn, cn, dn = jacobi_sncndn(u, kappa)
    return np.stack([alpha * cn, beta * sn, gamma * dn], axis=-1)


def scar_phases(p: ScarParams) -> np.ndarray:
    """Phases u_j = q j + phi of the scar's L sites.

    phi is taken by math.remainder modulo the texture's period 4K (2 pi at
    kappa = 0, infinite at kappa = 1), so a large offset keeps the step q
    from site to site; an offset with |phi| <= 2K is used exactly as given.
    """
    period = 4.0 * complete_K(p.kappa) if p.kappa < 1.0 else math.inf
    return p.q * np.arange(p.L) + math.remainder(p.phi, period)


def scar_texture(p: ScarParams) -> np.ndarray:
    """Bloch vectors of the scar, shape (L, 3), each row unit-norm."""
    return helix_texture(p.kappa, p.gamma, scar_phases(p))


def bond_sum(texture: np.ndarray, J) -> float:
    """Unscaled bond sum sum_j Omega_j . J Omega_{j+1} of a ring texture.

    S times it is the classical energy the Landau-Lifshitz flow conserves,
    and S^2 times it the energy <psi|H|psi> of the coherent product state.
    """
    omega = np.asarray(texture, dtype=float)
    return float(np.einsum("ja,ab,jb->", omega, coupling_matrix(J), np.roll(omega, -1, axis=0)))


def energy_density(kappa: float, q: float, S: float) -> float:
    """Scar energy per site for the parent couplings.

    e = S^2 ( cn*dn + sn*[eps(q) - q*E/K] ) at modulus kappa; reduces to
    S^2 cos(q) at kappa = 0 and to S^2 as q -> 0.
    """
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"kappa must lie in [0, 1), got {kappa}")
    K = complete_K(kappa)
    E = complete_E(kappa)
    sn, cn, dn = jacobi_sncndn(q, kappa)
    bracket = jacobi_epsilon(q, kappa) - q * E / K
    return float(S * S * (cn * dn + sn * bracket))


def gz_condition_residuals(texture: np.ndarray, J) -> tuple[np.ndarray, np.ndarray]:
    """Per-site residuals of the two product-eigenstate conditions.

    With e_j = u_j + i v_j a right-handed orthonormal pair in the tangent
    plane of Omega_j (u_j x v_j = Omega_j), r1_j is the two-magnon amplitude
    of the bond (j, j+1) and r2_j the zero-field torque at j:

        r1_j = |e_j . J e_{j+1}|
        r2_j = |Omega_j x (J Omega_{j+1} + J^T Omega_{j-1})|

    Both vanish (<= 1e-10) exactly when the texture is a product eigenstate
    of the XYZ ring with couplings J. r1 ignores the per-site phase of e_j,
    so any tangent pair serves; here v_j = unit(Omega_j x a_j), a_j the lab
    axis on which Omega_j has its smallest |component| (at most 1/sqrt(3),
    so Omega_j is never along a_j). r2 needs no frame at all.
    """
    omega = checked_texture(texture)
    mat = coupling_matrix(J)
    v = np.cross(omega, np.eye(3)[np.argmin(np.abs(omega), axis=1)])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    e = np.cross(v, omega) + 1j * v
    r1 = np.abs(np.einsum("ja,ab,jb->j", e, mat, np.roll(e, -1, axis=0)))
    field = np.roll(omega, -1, axis=0) @ mat.T + np.roll(omega, 1, axis=0) @ mat
    r2 = np.linalg.norm(np.cross(omega, field), axis=1)
    return r1, r2


def commensurate_q(kappa: float, L: int) -> list[tuple[int, float]]:
    """All windings (M, q = 4MK/L) with 0 < q < K on an L-site ring."""
    _check_ring(L)
    K = complete_K(kappa)
    return [(M, 4.0 * M * K / L) for M in range(1, (L - 1) // 4 + 1)]


def write_csv(path, header, columns) -> None:
    """Write equal-length columns as CSV, the package's one text format.

    Lines end in LF and each value is written as str() of the Python scalar,
    which for floats is the shortest repr that round-trips every bit. Rows
    are formatted in chunks of _CSV_CHUNK_ROWS to bound the memory held by
    Python scalars on long tables, one column at a time and one write per
    chunk. Within a chunk each distinct value of a numeric column is
    formatted once (_column_text), so repeated times, site indices and
    static texture components cost a gather, not a repr.
    """
    columns = [np.asarray(col) for col in columns]
    n_rows = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CSV_CHUNK_ROWS):
            texts = [_column_text(col[start : start + _CSV_CHUNK_ROWS]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def _column_text(col: np.ndarray) -> list[str]:
    """str() of each entry of a 1-D column, formatting each distinct value once.

    Numeric values are keyed by their bit pattern, not by ==, so -0.0 and
    0.0 keep their own text and NaNs, unequal to everything, still group;
    the unique keys viewed back as col's dtype are exactly the values to
    format. Other dtypes (strings, objects, complex, long double) format
    every entry.
    """
    if col.dtype.kind not in "biuf" or col.dtype.itemsize > 8:
        return list(map(str, col.tolist()))
    keys, inverse = np.unique(col.view(f"u{col.dtype.itemsize}"), return_inverse=True)
    texts = np.array(list(map(str, keys.view(col.dtype).tolist())), dtype=object)
    return texts[inverse].tolist()


def write_sidecar(csv_path, kind: str, params: dict, **fields) -> None:
    """Write the JSON record {kind, params, **fields} next to a CSV file.

    Keys are sorted so identical records give identical bytes.
    """
    record = {"kind": kind, "params": params, **fields}
    Path(csv_path).with_suffix(".json").write_text(json.dumps(record, indent=2, sort_keys=True))
