"""Linear spin-wave dynamics on top of a rotating product-state frame.

The frame supplies bond couplings J_R and an effective field h_R; from these
the quadratic boson theory is fixed by three coefficient arrays: a hopping
amplitude eta_j, a pair-creation amplitude zeta_j (both per bond) and an
onsite potential V_j. The 2L x 2L one-particle generator C built from them
drives d/dt (a, a+) = -iC (a, a+). Every propagation runs in the quadratures
x = (a + a+)/sqrt2, p = (a - a+)/(i sqrt2), on a real generator G and a real
symplectic propagator E, whose Frobenius norm gives the contrast D_SW(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .lattice_classical import _step_count
from .rotframe import FrameData
from .scars import check_spin_length, write_csv, write_sidecar

PSEUDO_UNITARITY_TOL = 1e-9
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)

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
        if not all(np.isfinite(a).all() for a in (self.eta, self.zeta, self.V)):
            raise ValueError("spin-wave coefficients eta, zeta and V must be finite")

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
    check_spin_length(S)
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


def propagator(coeffs, t: float, dt: float | None = None) -> np.ndarray:
    """Time-ordered propagator U(t) for the one-particle problem.

    Static coefficients: a single matrix exponential (exact up to expm's
    rounding; no diagonalization, so the defective k = 0 Goldstone pair of a
    translation-invariant ring is handled correctly). Callable coefficients:
    the commutator-free 4th-order Magnus scheme in the fewest equal steps no
    longer than dt (default 1e-3), so dt is an upper bound. Either way the
    real quadrature propagator is checked for pseudo-unitarity (RuntimeError
    if lost) and mapped to U.
    """
    advance, h = _stepper(coeffs, t, 1e-3 if dt is None else dt)
    L = coeffs(0.0).L if callable(coeffs) else coeffs.L
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the check
        E = advance(0.0, np.eye(2 * L))
        _check_symplectic(E, h)
    return _complex_from_quadratures(E)


def _stepper(coeffs, span: float, dt: float):
    """Propagation across one span: returns (advance(t0, E), step length).

    advance(t0, E) carries a real quadrature matrix E from t0 to t0 + span.
    Static coefficients take one exponential of the whole span; callable
    coefficients the fewest equal CF4 steps no longer than dt (at least one).
    """
    if not callable(coeffs):
        step = expm(span * _quadrature_generator(coeffs))
        return (lambda t0, E: step @ E), span
    n = max(1, _step_count("span / dt", span, dt))
    h = span / n

    def advance(t0, E):
        for m in range(n):
            E = _cf4_step(coeffs, t0 + m * h, h) @ E
        return E

    return advance, h


def _cf4_step(coeffs, t0: float, h: float) -> np.ndarray:
    """CF4 step from t0 to t0 + h; G = Q(-iC)Q^dagger at every t, so this is
    the complex scheme in the quadrature basis."""
    G1 = _quadrature_generator(coeffs(t0 + _CF4_C1 * h))
    G2 = _quadrature_generator(coeffs(t0 + _CF4_C2 * h))
    first = expm(h * (_CF4_A1 * G1 + _CF4_A2 * G2))
    second = expm(h * (_CF4_A2 * G1 + _CF4_A1 * G2))
    return second @ first


def _complex_from_quadratures(E: np.ndarray) -> np.ndarray:
    """U = Q^dagger E Q = [[u, v], [conj v, conj u]] for E = [[xx, xp], [px, pp]],
    block by block so that the identity maps to the identity exactly."""
    L = E.shape[0] // 2
    xx, xp, px, pp = E[:L, :L], E[:L, L:], E[L:, :L], E[L:, L:]
    u = 0.5 * ((xx + pp) + 1j * (px - xp))
    v = 0.5 * ((xx - pp) + 1j * (px + xp))
    return np.block([[u, v], [v.conj(), u.conj()]])


def _check_symplectic(E: np.ndarray, h: float) -> float:
    """Defect max |E^T Omega E - Omega| over a stack of real propagators.

    Omega = [[0, 1], [-1, 0]]; in quadratures this is the pseudo-unitarity
    condition, with its tolerance and message. Raises RuntimeError past it.
    The message names the largest ||E||_F and the defect relative to its
    square: rounding alone leaves up to about 2m eps ||E||_F^2 in E^T Omega E,
    so a relative defect at that level, or an E that overflowed, means the
    propagator has grown past what doubles resolve, which a shorter T avoids
    and a smaller step cannot.
    """
    m = E.shape[-1] // 2
    omega_E = np.concatenate([E[..., m:, :], -E[..., :m, :]], axis=-2)
    omega = np.block([[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]])
    err = np.abs(np.swapaxes(E, -1, -2) @ omega_E - omega).max()
    # written so that a NaN defect fails too
    if not err <= PSEUDO_UNITARITY_TOL:
        with np.errstate(over="ignore", invalid="ignore"):
            norm_sq = np.square(E).sum(axis=(-2, -1)).max()
            relative = err / norm_sq
        advice = (
            "the growth exceeds double precision, so shorten T"
            if not norm_sq < math.inf or relative <= 2 * m * np.finfo(float).eps
            else f"reduce the step (currently {h:.2e})"
        )
        raise RuntimeError(
            f"propagator lost pseudo-unitarity (err {err:.2e} > "
            f"{PSEUDO_UNITARITY_TOL:.0e}, ||E||_F {math.sqrt(norm_sq):.2e}, "
            f"err/||E||_F^2 {relative:.2e}); {advice}"
        )
    return float(err)


@dataclass
class ContrastSeries:
    """Contrast curves on a common time grid.

    D is the spin-wave contrast, f = S(1 - D) its scaling form sampled at
    tau = S t, and C the spin contrast (filled when the polar angle is
    known, else None). pseudo_unitarity_defect is the defect measured by a
    spin-wave route's final propagator check; max_norm_drift is the largest
    relative norm drift of the exact route's states and hermiticity_defect
    max |H - H^H| of its Hamiltonian (each None where the route does not
    measure it).
    """

    times: np.ndarray
    D: np.ndarray
    f: np.ndarray
    C: np.ndarray | None = None
    pseudo_unitarity_defect: float | None = None
    max_norm_drift: float | None = None
    hermiticity_defect: float | None = None

    def save_csv(self, path, params: dict | None = None) -> None:
        """Write (t, D, C, f) rows plus a JSON sidecar next to the CSV.

        A measured pseudo-unitarity defect, norm drift or Hermiticity defect
        goes to the sidecar under "diagnostics".
        """
        Ccol = self.C if self.C is not None else np.full_like(self.D, np.nan)
        write_csv(path, ["t", "D", "C", "f"], [self.times, self.D, Ccol, self.f])
        measured = {
            "pseudo_unitarity_defect": self.pseudo_unitarity_defect,
            "max_norm_drift": self.max_norm_drift,
            "hermiticity_defect": self.hermiticity_defect,
        }
        diagnostics = {k: v for k, v in measured.items() if v is not None}
        extra = {"diagnostics": diagnostics} if diagnostics else {}
        write_sidecar(path, "contrast_series", params, n_samples=len(self.times), **extra)


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

    i.e. one minus the vacuum pair density. Both branches carry the real
    quadrature propagator E and read D = 1 - (||E||_F^2 - 2L)/(4LS), so
    D(0) = 1 exactly. Static coefficients take powers of the sample-step
    exponential (_power_contrast); callable ones carry E sample by sample in
    the fewest equal CF4 micro-steps no longer than dt (default 1e-3/S), so
    dt is an upper bound. The final propagator's pseudo-unitarity defect is
    checked and returned with the series; a lost check or an overflow
    raises RuntimeError.

    theta, when given, also fills the spin-contrast column
    C = (D - cos^2 theta)/sin^2 theta.
    """
    check_spin_length(S)
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    times = np.linspace(0.0, T, n_samples)
    h = times[1] - times[0]
    if callable(coeffs):
        advance, step = _stepper(coeffs, h, 1e-3 / S if dt is None else dt)
        E = np.eye(2 * coeffs(0.0).L)
        norms = np.full(n_samples, float(len(E)))
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the check
            for n in range(1, n_samples):
                E = advance(times[n - 1], E)
                norms[n] = np.vdot(E, E)
            defect = _check_symplectic(E, step)
        D = _contrast_from_norms(norms, len(E), S)
    else:
        D, defect = _power_contrast(_quadrature_generator(coeffs)[None], h, n_samples, S)
    C = None if theta is None else spin_contrast(D, theta)
    return ContrastSeries(
        times=times, D=D, f=S * (1.0 - D), C=C, pseudo_unitarity_defect=defect
    )


def _quadrature_generator(coeffs) -> np.ndarray:
    """Real generator G of d/dt (x, p) = G (x, p) for static coefficients.

    With x = (a + a+)/sqrt2 and p = (a - a+)/(i sqrt2), i.e. the unitary
    Q = [[1, 1], [-i, i]]/sqrt2, G = Q(-iC)Q^dagger; for
    C = [[M, N], [-conj N, -conj M]] that is
    G = [[Im(M + N), Re(M - N)], [-Re(M + N), Im(M - N)]], real.
    """
    M, N = np.split(build_linear_generator(coeffs)[: coeffs.L], 2, axis=1)
    return np.block([[(M + N).imag, (M - N).real], [-(M + N).real, (M - N).imag]])


@np.errstate(over="ignore", invalid="ignore")  # overflow fails the checks instead
def _power_contrast(G: np.ndarray, h: float, n_samples: int, S: float):
    """Contrast at t_n = n h, n < n_samples, for a stack of real generators.

    G has shape (batch, 2m, 2m), each block a quadrature generator of m
    modes, so E = expm(h G) is real symplectic and the propagator at t_n is
    E^n = Q U(t_n) Q^dagger for the complex propagator U. D follows from
    the batch mean of ||E^n||_F^2 (_contrast_from_norms): a batch of Bloch
    momenta gives the midpoint-rule k integral, a batch of one the
    real-space ring. Nothing is diagonalised, so the defective k = 0
    Goldstone pair is harmless.

    Powers take baby and giant steps. With N = n_samples - 1, r = isqrt(N)
    and n = a + r b,

        ||E^n||_F^2 = < (E^{rb})^T E^{rb}, E^a (E^a)^T >_F,

    so the r baby Gram matrices are kept and each giant Gram matrix meets
    all of them in one matrix-vector product: about 4 sqrt(N) matmuls in
    place of N propagation steps, and D(0) = 1 exactly. Each giant step
    must stay finite, and E^N, one product of factors already formed,
    passes the symplectic check. Returns D and the measured defect.
    """
    batch, dim = G.shape[0], G.shape[-1]
    n_steps = n_samples - 1
    r = math.isqrt(n_steps)
    E = _flush_tiny(expm(h * G))
    power = np.broadcast_to(np.eye(dim), G.shape)
    grams = np.empty((r,) + G.shape)
    for a in range(r):
        if a:
            power = _flush_tiny(power @ E)
        grams[a] = _flush_tiny(power @ np.swapaxes(power, -1, -2))
        if a == n_steps % r:
            tail = power
    stride = _flush_tiny(power @ E)
    giant = np.broadcast_to(np.eye(dim), G.shape)
    norms = np.empty(n_samples)
    flat = grams.reshape(r, -1)
    for b in range(n_steps // r + 1):
        if b:
            giant = _flush_tiny(giant @ stride)
        lo = b * r
        hi = min(lo + r, n_samples)
        gram = _flush_tiny(np.swapaxes(giant, -1, -2) @ giant)
        norms[lo:hi] = (flat @ gram.ravel())[: hi - lo]
        if not np.isfinite(norms[lo:hi]).all():
            bad = lo + int(np.argmin(np.isfinite(norms[lo:hi])))
            raise RuntimeError(
                f"spin-wave propagator overflowed at t = {bad * h:.6g}; "
                "the growth exceeds double range, so shorten T"
            )
    defect = _check_symplectic(giant @ tail, h)
    return _contrast_from_norms(norms / batch, dim, S), defect


def _contrast_from_norms(sq_norms: np.ndarray, dim: int, S: float) -> np.ndarray:
    """D = 1 - (||E||_F^2 - dim)/(2 dim S) for real symplectic E of size dim:
    u u^dagger - v v^dagger = 1 makes ||v||_F^2 = (||E||_F^2 - dim)/4."""
    return 1.0 - (sq_norms - dim) / (2.0 * dim * S)


def _flush_tiny(X: np.ndarray) -> np.ndarray:
    """Zero the entries of X below sqrt(smallest normal double), ~1.5e-154.

    A local generator's exponential has entries that fall off with distance
    far below that. They sit ~138 orders under the unit scale of a
    symplectic matrix, so they cannot move D, but a product of two of them
    underflows, and subnormal arithmetic takes a slow path in x86 hardware:
    unflushed, a matmul of the L = 240 ring took 3.7x longer (Intel Xeon,
    one BLAS thread). Flushed, no product of two entries underflows.
    """
    X[np.abs(X) < _SQRT_TINY] = 0.0
    return X


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
