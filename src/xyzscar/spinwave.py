"""Linear spin-wave dynamics on top of a rotating product-state frame.

The frame supplies bond couplings J_R and an effective field h_R; from these
the quadratic boson theory is fixed by three coefficient arrays: a hopping
amplitude eta_j, a pair-creation amplitude zeta_j (both per bond) and an
onsite potential V_j. The 2L x 2L one-particle generator C built from them
drives d/dt (a, a+) = -iC (a, a+), and the contrast D_SW(t) follows from the
anomalous block of the propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .lattice_classical import _step_count
from .rotframe import FrameData
from .scars import write_csv, write_sidecar

PSEUDO_UNITARITY_TOL = 1e-9

# commutator-free 4th-order Magnus coefficients (two-exponential scheme)
_CF4_C1 = 0.5 - math.sqrt(3.0) / 6.0
_CF4_C2 = 0.5 + math.sqrt(3.0) / 6.0
_CF4_A1 = 0.25 + math.sqrt(3.0) / 6.0
_CF4_A2 = 0.25 - math.sqrt(3.0) / 6.0


@dataclass
class SpinWaveCoefficients:
    """Quadratic-theory coefficients on a periodic ring.

    eta[j] couples sites j and j+1 (hopping), zeta[j] creates pairs on the
    same bond, V[j] is the onsite potential. All are per the frame's bond
    couplings; the spin length S is already folded in.
    """

    eta: np.ndarray
    zeta: np.ndarray
    V: np.ndarray

    def __post_init__(self) -> None:
        self.eta = np.asarray(self.eta, dtype=complex)
        self.zeta = np.asarray(self.zeta, dtype=complex)
        self.V = np.asarray(self.V, dtype=float)
        if not (len(self.eta) == len(self.zeta) == len(self.V)):
            raise ValueError("eta, zeta, V must have equal length")
        if len(self.V) < 2:
            raise ValueError("need at least two sites")

    @property
    def L(self) -> int:
        return len(self.V)


def sw_coefficients(frame: FrameData, S: float) -> SpinWaveCoefficients:
    """Build (eta, zeta, V) from a frame's bond couplings and field.

        eta_j  = (S/2) (J_R^xx + J_R^yy + i(J_R^xy - J_R^yx))_j
        zeta_j = (S/2) (J_R^xx - J_R^yy + i(J_R^xy + J_R^yx))_j
        V_j    = -S (J_R,j-1^zz + J_R,j^zz) - h_R,j^z

    For a scar texture at parent couplings zeta vanishes identically, which
    is the linear-level statement that the state stays an eigenstate.
    """
    JR = frame.JR
    eta = 0.5 * S * (JR[:, 0, 0] + JR[:, 1, 1] + 1j * (JR[:, 0, 1] - JR[:, 1, 0]))
    zeta = 0.5 * S * (JR[:, 0, 0] - JR[:, 1, 1] + 1j * (JR[:, 0, 1] + JR[:, 1, 0]))
    zz = JR[:, 2, 2]
    V = -S * (np.roll(zz, 1) + zz) - frame.hR[:, 2]
    return SpinWaveCoefficients(eta=eta, zeta=zeta, V=V)


def build_linear_generator(coeffs, t: float = 0.0) -> np.ndarray:
    """Assemble the 2L x 2L generator C(t) of d/dt (a, a+) = -iC (a, a+).

    C = [[M, N], [-conj(N), -conj(M)]] with M_jj = V_j, hopping
    M_{j,j-1} = eta_{j-1}, M_{j,j+1} = conj(eta_j), and pairing
    N_{j,j-1} = zeta_{j-1}, N_{j,j+1} = zeta_j. Neighbor contributions are
    accumulated, so the L = 2 ring (where both neighbors coincide) comes out
    right. `coeffs` may be a callable t -> SpinWaveCoefficients.
    """
    if callable(coeffs):
        coeffs = coeffs(t)
    L = coeffs.L
    idx = np.arange(L)
    prev = (idx - 1) % L
    nxt = (idx + 1) % L
    M = np.zeros((L, L), dtype=complex)
    N = np.zeros((L, L), dtype=complex)
    M[idx, idx] = coeffs.V
    np.add.at(M, (idx, prev), coeffs.eta[prev])
    np.add.at(M, (idx, nxt), np.conj(coeffs.eta[idx]))
    np.add.at(N, (idx, prev), coeffs.zeta[prev])
    np.add.at(N, (idx, nxt), coeffs.zeta[idx])
    return np.block([[M, N], [-np.conj(N), -np.conj(M)]])


def _full_from_half(V: np.ndarray) -> np.ndarray:
    """Reconstruct U from its left half-columns.

    The generator obeys conj(C) = -Sigma C Sigma with Sigma the block swap,
    hence conj(U) = Sigma U Sigma and the right half of U is the row-swapped
    conjugate of the left half.
    """
    L = V.shape[1]
    right = np.vstack([np.conj(V[L:, :]), np.conj(V[:L, :])])
    return np.hstack([V, right])


def propagator(coeffs, t: float, dt: float | None = None) -> np.ndarray:
    """Time-ordered propagator U(t) for the one-particle problem.

    Static coefficients: a single matrix exponential (exact up to expm's
    rounding; no diagonalization, so the defective k = 0 Goldstone pair of a
    translation-invariant ring is handled correctly). Callable coefficients:
    the commutator-free 4th-order Magnus scheme in the fewest equal steps no
    longer than dt (default 1e-3), so dt is an upper bound. Either way U is
    checked for pseudo-unitarity (RuntimeError if lost).
    """
    if dt is None:
        dt = 1e-3
    advance, h = _stepper(coeffs, t, dt)
    L = coeffs(0.0).L if callable(coeffs) else coeffs.L
    U = advance(0.0, np.eye(2 * L, dtype=complex))
    _check_pseudo_unitarity(U, h)
    return U


def _stepper(coeffs, span: float, dt: float):
    """Propagation across one span: returns (advance(t0, V), step length).

    advance(t0, V) carries V from t0 to t0 + span. Static coefficients take
    one exponential of the whole span; callable coefficients take the fewest
    equal CF4 steps no longer than dt (at least one).
    """
    if not callable(coeffs):
        E = expm(-1j * span * build_linear_generator(coeffs))
        return (lambda t0, V: E @ V), span
    n = max(1, _step_count(span, dt))
    h = span / n

    def advance(t0, V):
        for m in range(n):
            V = _cf4_step(coeffs, t0 + m * h, h) @ V
        return V

    return advance, h


def _cf4_step(coeffs, t0: float, h: float) -> np.ndarray:
    F1 = -1j * build_linear_generator(coeffs, t0 + _CF4_C1 * h)
    F2 = -1j * build_linear_generator(coeffs, t0 + _CF4_C2 * h)
    first = expm(h * (_CF4_A1 * F1 + _CF4_A2 * F2))
    second = expm(h * (_CF4_A2 * F1 + _CF4_A1 * F2))
    return second @ first


def _check_pseudo_unitarity(U: np.ndarray, h: float) -> None:
    L = U.shape[0] // 2
    eta = np.ones(2 * L)
    eta[L:] = -1.0
    err = np.abs((U * eta) @ U.conj().T - np.diag(eta)).max()
    if err > PSEUDO_UNITARITY_TOL:
        raise RuntimeError(
            f"propagator lost pseudo-unitarity (err {err:.2e} > "
            f"{PSEUDO_UNITARITY_TOL:.0e}); reduce the step (currently {h:.2e})"
        )


@dataclass
class ContrastSeries:
    """Contrast curves on a common time grid.

    D is the spin-wave contrast, f = S(1 - D) its scaling form sampled at
    tau = S t, and C the spin contrast (filled when the polar angle is
    known, else None).
    """

    times: np.ndarray
    D: np.ndarray
    f: np.ndarray
    C: np.ndarray | None = None

    def save_csv(self, path, params: dict | None = None) -> None:
        """Write (t, D, C, f) rows plus a JSON sidecar next to the CSV."""
        Ccol = self.C if self.C is not None else np.full_like(self.D, np.nan)
        write_csv(path, ["t", "D", "C", "f"], [self.times, self.D, Ccol, self.f])
        write_sidecar(path, "contrast_series", params, n_samples=len(self.times))


def contrast_sw(
    coeffs,
    S: float,
    dt: float | None = None,
    T: float = 30.0,
    n_samples: int = 301,
    theta: float | None = None,
) -> ContrastSeries:
    """Spin-wave contrast D_SW on [0, T].

        D_SW(t) = 1 - (1/LS) sum_j sum_l |U(t)_{j, l+L}|^2

    i.e. one minus the vacuum pair density read off the anomalous block of
    the propagator. Static coefficients are propagated by powers of a single
    sample-step exponential; only the left half-columns of U are carried
    (the other half is fixed by conjugation symmetry), and D(0) = 1 holds
    exactly. For callable (time-dependent) coefficients each sample interval
    is covered by the fewest equal CF4 micro-steps no longer than dt
    (default 1e-3/S), so dt is an upper bound. Either way the final
    propagator is checked for pseudo-unitarity (RuntimeError if lost).

    theta, when given, also fills the spin-contrast column
    C = (D - cos^2 theta)/sin^2 theta.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    times = np.linspace(0.0, T, n_samples)
    L = coeffs(0.0).L if callable(coeffs) else coeffs.L
    if dt is None and callable(coeffs):
        dt = 1e-3 / S
    advance, h = _stepper(coeffs, times[1] - times[0], dt)
    D, V = _pair_density(lambda n, V: advance(times[n - 1], V), 1, L, n_samples, S)
    _check_pseudo_unitarity(_full_from_half(V[0]), h)
    C = None if theta is None else spin_contrast(D, theta)
    return ContrastSeries(times=times, D=D, f=S * (1.0 - D), C=C)


def _pair_density(advance, batch: int, m: int, n_samples: int, S: float):
    """Contrast D = 1 - (pair density)/(m S) at n_samples equispaced samples.

    Propagates a stack of identity half-columns of shape (batch, 2m, m):
    advance(n, V) carries the stack from sample n-1 to sample n. The pair
    density is the batch mean of sum |anomalous block|^2, so a batch of
    Bloch momenta gives the midpoint-rule k integral and a batch of one the
    real-space ring. Returns D (with D[0] = 1 exactly) and the final stack.
    """
    V = np.zeros((batch, 2 * m, m), dtype=complex)
    V[:, :m] = np.eye(m)
    D = np.empty(n_samples)
    D[0] = 1.0
    for n in range(1, n_samples):
        V = advance(n, V)
        D[n] = 1.0 - np.sum(np.abs(V[:, m:]) ** 2) / batch / (m * S)
    return D, V


def spin_contrast(series, theta: float) -> np.ndarray:
    """Map contrast D to the spin contrast C = (D - cos^2)/sin^2 at angle theta."""
    D = series.D if isinstance(series, ContrastSeries) else np.asarray(series, dtype=float)
    s2 = math.sin(theta) ** 2
    if s2 < 1e-24:
        raise ValueError("spin contrast undefined at theta in {0, pi}")
    return (D - math.cos(theta) ** 2) / s2


def scaling_collapse_check(entries, tau_max: float = 20.0, n_tau: int = 201) -> float:
    """Max pointwise spread of f(tau) = S(1 - D_SW(tau/S)) across spin lengths.

    entries: iterable of (coeffs, S) built from the same physical parameters.
    Within the quadratic theory f is exactly S-independent (the generator is
    linear in S), so any spread is integration error.
    """
    curves = []
    for coeffs, S in entries:
        if callable(coeffs):
            raise TypeError("scaling_collapse_check expects static coefficients")
        series = contrast_sw(coeffs, S, T=tau_max / S, n_samples=n_tau)
        curves.append(series.f)
    stack = np.stack(curves)
    return float(np.max(stack.max(axis=0) - stack.min(axis=0)))
