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
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .lattice_classical import _step_count
from .rotframe import FrameData
from .scars import check_spin_length

PSEUDO_UNITARITY_TOL = 1e-9
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)
# _block_norms takes offset -a only where the cancellation it brings is bound
# to amplify rounding by at most this factor
_CANCELLATION_LIMIT = 2.0**8
# _block_norms carries a ring by its cell where the shift by that cell moves
# every generator entry by less than this times the largest entry. Rounding of
# the frames' angles leaves 2.5e-14 of it on the L = 240 transverse ring,
# 3.9e-13 at L = 2,400, 8.3e-15 on the glsh L = 140 ring and 2.1e-13 on the
# gtsh L = 1,200 ring; one site's V moved by 1e-9 leaves about 1e-9
_PERIOD_TOL = 1e-12
# Taylor degree d of expm: the largest 1-norm theta_d of A at which
# T_d(A) = exp(A + dA) with ||dA|| <= 2^-53 ||A|| (Higham & Al-Mohy, Acta
# Numerica 19, 159 (2010), table A.3; the bound of Al-Mohy & Higham, SIAM J.
# Matrix Anal. Appl. 31, 970 (2009))
_TAYLOR_THETA = {2: 2.58e-8, 4: 3.40e-4, 6: 9.07e-3, 9: 8.96e-2, 12: 3.00e-1, 16: 7.81e-1,
                 20: 1.44, 25: 2.43}

# commutator-free 4th-order Magnus coefficients (two-exponential scheme)
_CF4_C1 = 0.5 - math.sqrt(3.0) / 6.0
_CF4_C2 = 0.5 + math.sqrt(3.0) / 6.0
_CF4_A1 = 0.25 + math.sqrt(3.0) / 6.0
_CF4_A2 = 0.25 - math.sqrt(3.0) / 6.0


def expm(A: np.ndarray, layout=(slice(None), None, 1)) -> np.ndarray:
    """exp(A) for a real matrix or stack of them, or, in a cell layout
    (rows, p, cells) of _cell_layout, the rows of exp(A') for a stack A, A'
    the mean of A over the translations by a cell.

    The mean's rows are a sum over the cells (_cell_mean). The mean commutes
    with the shift by a cell, so every power and product of it does too, and
    each product here is rows(X) full(Y), full(Y) built from Y's rows
    (_full). A ring's generator differs from its mean by rounding only.
    Cell 0's rows as they stand would copy their rounding to every cell, so
    that the E carried is neither exp(A) nor symplectic; the mean of
    Hamiltonian generators is Hamiltonian (the shift commutes with Omega),
    and its exponential symplectic.

    Scaling and squaring of a Taylor polynomial T_d: with nu the 1-norm,
    each degree d of _TAYLOR_THETA needs the fewest squarings s with
    nu 2^-s <= theta_d, and the degree taken needs the fewest products, s
    plus T_d's Paterson-Stockmeyer products, the fewer squarings breaking a
    tie. The polynomial and the squarings carry F = E - I (F <- 2F + F^2),
    and I is added last. s is read off frexp, so a huge, infinite or NaN
    nu raises nothing here: E comes out non-finite, and the caller's
    checks fail on it. A zero A gives I exactly.
    """
    rows, p, _ = layout
    dim = A.shape[-1]
    B = np.asarray(A, dtype=float) if p is None else _cell_mean(A, layout)

    whole = _full(B, p)
    mantissa, exponent = math.frexp(float(np.abs(whole).sum(axis=-2).max()))

    def squarings(d):
        """The fewest s >= 0 with nu 2^-s <= theta_d (none for nu = 0, whose
        mantissa is 0)."""
        theta_mantissa, theta_exponent = math.frexp(_TAYLOR_THETA[d])
        return max(0, exponent - theta_exponent + (mantissa > theta_mantissa)) if mantissa else 0

    def block(d):
        """T_d's Paterson-Stockmeyer block t: the powers B^2 .. B^t take
        t - 1 products, and the (d - 1) // t Horner steps in B^t one each."""
        return math.isqrt(d - 1) + 1

    def products(d):
        return block(d) - 1 + (d - 1) // block(d) + squarings(d)

    degree = min(_TAYLOR_THETA, key=lambda d: (products(d), squarings(d)))
    s, t = squarings(degree), block(degree)
    k = (degree - 1) // t
    if s:
        B, whole = np.ldexp(B, -s), np.ldexp(whole, -s)
    eye = (np.arange(dim)[rows, None] == np.arange(dim)).astype(float)
    powers = [eye, B]
    for _ in range(t - 1):
        powers.append(powers[-1] @ whole)
    del whole

    def chunk(j):
        """The terms B^i / i! of F for j t <= i < (j + 1) t (j t <= i <=
        degree for j = k), each from B^(i - jt)."""
        top = degree if j == k else (j + 1) * t - 1
        return sum(powers[i - j * t] / math.factorial(i) for i in range(max(j * t, 1), top + 1))

    F, step = chunk(k), _full(powers[t], p)
    for j in reversed(range(k)):
        F = F @ step + chunk(j)
    del step
    for _ in range(s):
        F = 2.0 * F + F @ _full(F, p)
    return F + eye


def _full(X: np.ndarray, p) -> np.ndarray:
    """The whole matrices of a stack carried as the 2p cell-0 rows of a cell
    layout (_cell_layout); X itself where p is None.

    Row r of cell c, in either quadrature half, is cell 0's row r shifted by
    c p sites within both column halves. With the rows doubled along the
    site axis, each such shift is the window of m sites that starts at
    m - c p, so the whole stack is a read-only strided view of the doubled
    rows, copied once into one contiguous array."""
    if p is None:
        return X
    nb, m = len(X), X.shape[-1] // 2
    rows = X.reshape(nb, 2, p, 2, m)
    windows = sliding_window_view(np.concatenate([rows, rows], axis=-1), m, axis=-1)
    # (batch, half, row, column half, cell, site) -> rows (half, cell, row)
    return windows[..., m:0:-p, :].transpose(0, 1, 4, 2, 3, 5).reshape(nb, 2 * m, 2 * m)


def _cell_mean(A: np.ndarray, layout) -> np.ndarray:
    """The cell-0 rows of the mean of a stack A over the translations by a
    cell of the layout (rows, p, cells) of _cell_layout.

    Row r of cell c, shifted back by c p sites within both column halves,
    is a copy of cell 0's row r. With A's rows doubled along the site axis,
    the copies form a read-only strided view, summed from 0.0 over
    c = 0 .. cells - 1 in that order, so no index of A is formed."""
    _, p, cells = layout
    nb, m = len(A), A.shape[-1] // 2
    blocks = A.reshape(nb, 2, cells, p, 2, m)
    doubled = np.concatenate([blocks, blocks], axis=-1)
    strides = list(doubled.strides)
    strides[2] += p * strides[5]  # cell c's copy starts c p sites along
    copies = as_strided(doubled, blocks.shape, strides, writeable=False)
    return np.add.reduce(copies, axis=2, initial=0.0).reshape(nb, 2 * p, 2 * m) / cells


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


def build_linear_generator(coeffs: SpinWaveCoefficients) -> np.ndarray:
    """Assemble the 2L x 2L generator C of d/dt (a, a+) = -iC (a, a+).

    C = [[M, N], [-conj(N), -conj(M)]], with M and N from
    _hopping_and_pairing.
    """
    M, N = _hopping_and_pairing(coeffs)
    return np.block([[M, N], [-np.conj(N), -np.conj(M)]])


def _hopping_and_pairing(coeffs: SpinWaveCoefficients):
    """(M, N), the L x L blocks of the generator C: M_jj = V_j, hopping
    M_{j,j-1} = eta_{j-1}, M_{j,j+1} = conj(eta_j), and pairing
    N_{j,j-1} = zeta_{j-1}, N_{j,j+1} = zeta_j. Neighbor contributions are
    accumulated, so the L = 2 ring (where both neighbors coincide) comes out
    right."""
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
    return M, N


def propagator(coeffs, t: float, dt: float | None = None) -> np.ndarray:
    """Time-ordered propagator U(t) for the one-particle problem.

    Static coefficients: a single matrix exponential, expm's whole layout
    (exact up to its rounding; no diagonalization, so the defective k = 0
    Goldstone pair of a translation-invariant ring is handled correctly).
    Callable coefficients: the commutator-free 4th-order Magnus scheme in
    the fewest equal steps no longer than dt (default 1e-3), so dt is an
    upper bound, each step two whole-layout expm. Either way the
    real quadrature propagator is checked for pseudo-unitarity (RuntimeError
    if lost) and mapped to U.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the check
        if callable(coeffs):
            advance, h = _stepper(coeffs, t, 1e-3 if dt is None else dt)
            E = advance(0.0, np.eye(2 * coeffs(0.0).L))
        else:
            E, h = expm(t * _quadrature_generator(coeffs)), t
        _check_symplectic(E, h)
    return _complex_from_quadratures(E)


def _stepper(coeffs, span: float, dt: float):
    """CF4 propagation of callable coefficients across one span: returns
    (advance(t0, E), step length), advance(t0, E) carrying a real quadrature
    matrix E from t0 to t0 + span in the fewest equal CF4 steps no longer
    than dt (at least one)."""
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
    condition, with its tolerance and message (_judge_symplectic). Raises
    RuntimeError past it.
    """
    return _judge_symplectic(*_symplectic_defect(E), E.shape[-1] // 2, h)


def _symplectic_defect(E: np.ndarray):
    """(max |E^T Omega E - Omega|, max ||E||_F^2) over a stack of real
    matrices of size 2m; Omega is subtracted in place, entry by entry."""
    m = E.shape[-1] // 2
    defect = np.swapaxes(E, -1, -2) @ np.concatenate([E[..., m:, :], -E[..., :m, :]], axis=-2)
    i = np.arange(m)
    defect[..., i, i + m] -= 1.0
    defect[..., i + m, i] += 1.0
    return np.abs(defect, out=defect).max(), np.einsum("...ij,...ij->...", E, E).max()


def _judge_symplectic(err, norm_sq, m: int, h: float) -> float:
    """Return the defect err of a propagator of 2m quadratures whose squared
    Frobenius norm is norm_sq, or raise RuntimeError past the tolerance.

    The message names ||E||_F and the defect relative to its square:
    rounding alone leaves up to about 2m eps ||E||_F^2 in E^T Omega E, so a
    relative defect at that level, or an E that overflowed, means the
    propagator has grown past what doubles resolve, which a shorter T avoids
    and a smaller step cannot.
    """
    # written so that a NaN defect fails too
    if not err <= PSEUDO_UNITARITY_TOL:
        with np.errstate(over="ignore", invalid="ignore"):
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

    D is the contrast and f = S(1 - D) its scaling form sampled at tau = S t.
    pseudo_unitarity_defect is the defect measured by a spin-wave route's
    final propagator check; max_norm_drift is the largest relative norm
    drift of the exact route's states and hermiticity_defect max |H - H^H|
    of its Hamiltonian (each None where the route does not measure it).
    """

    times: np.ndarray
    D: np.ndarray
    f: np.ndarray
    pseudo_unitarity_defect: float | None = None
    max_norm_drift: float | None = None
    hermiticity_defect: float | None = None


def contrast_sw(
    coeffs,
    S: float,
    dt: float | None = None,
    T: float = 30.0,
    n_samples: int = 301,
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
    """
    check_spin_length(S)
    times = _sample_times(T, n_samples)
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
        D, defect = _power_contrast([_quadrature_generator(coeffs)[None]], h, n_samples, S)
    return ContrastSeries(times=times, D=D, f=S * (1.0 - D), pseudo_unitarity_defect=defect)


def _sample_times(T: float, n_samples: int) -> np.ndarray:
    """The n_samples equispaced times of a contrast series on [0, T], after
    the checks every contrast route shares."""
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    if n_samples < 2:
        raise ValueError(f"need at least two samples, got {n_samples}")
    return np.linspace(0.0, T, n_samples)


def _quadrature_generator(coeffs) -> np.ndarray:
    """Real generator G of d/dt (x, p) = G (x, p) for static coefficients.

    With x = (a + a+)/sqrt2 and p = (a - a+)/(i sqrt2), i.e. the unitary
    Q = [[1, 1], [-i, i]]/sqrt2, G = Q(-iC)Q^dagger; for
    C = [[M, N], [-conj N, -conj M]] that is
    G = [[Im(M + N), Re(M - N)], [-Re(M + N), Im(M - N)]], real. Its four
    L x L blocks are filled from the parts of M and N
    (_hopping_and_pairing) one by one; a complex sum's parts are the sums of
    the parts, so this is the complex arithmetic, float for float.
    """
    M, N = _hopping_and_pairing(coeffs)
    L = coeffs.L
    G = np.empty((2 * L, 2 * L))
    np.add(M.imag, N.imag, out=G[:L, :L])
    np.subtract(M.real, N.real, out=G[:L, L:])
    np.add(M.real, N.real, out=G[L:, :L])
    np.negative(G[L:, :L], out=G[L:, :L])
    np.subtract(M.imag, N.imag, out=G[L:, L:])
    return G


@np.errstate(over="ignore", invalid="ignore")  # overflow fails the checks instead
def _power_contrast(blocks, h: float, n_samples: int, S: float):
    """Contrast at t_n = n h, n < n_samples, for blocks of real generators.

    blocks is an iterable of stacks of shape (nb, 2m, 2m), each matrix a
    quadrature generator of m modes, so E = exp(h G) is real symplectic and
    the propagator at t_n is E^n = Q U(t_n) Q^dagger for the complex
    propagator U. D follows from the mean of ||E^n||_F^2 over every
    generator of every block (_contrast_from_norms): Bloch momenta give the
    midpoint-rule k integral, one block of one generator the real-space
    ring. Nothing is diagonalised, so the defective k = 0 Goldstone pair is
    harmless. The blocks are taken one at a time and their norms summed, so
    a caller that builds them lazily bounds the memory
    (bogoliubov.contrast_multiflavour).

    Powers take baby and giant steps (_block_norms). Each block reads its
    cell from the generators (_cell_layout): a ring that repeats every
    p < m sites carries only the 2p rows of one cell of every power, so a
    product costs (2p)(2m)^2 flops instead of (2m)^3, still in real space,
    its right factor rebuilt from the rows by a strided view (_full); Bloch
    stacks and aperiodic rings carry whole matrices. A non-finite norm
    raises, naming the earliest such sample over all blocks; E^N, N =
    n_samples - 1, passes the symplectic check, with the largest defect
    over the blocks. Returns D and that defect.
    """
    norms = np.zeros(n_samples)
    batch, defects = 0, []
    for G in blocks:
        block_norms, defect = _block_norms(G, h, n_samples - 1)
        norms += block_norms
        batch += len(G)
        defects.append(defect)
    if not np.isfinite(norms).all():
        bad = int(np.argmin(np.isfinite(norms)))
        raise RuntimeError(
            f"spin-wave propagator overflowed at t = {bad * h:.6g}; "
            "the growth exceeds double range, so shorten T"
        )
    err, norm_sq = np.max(defects, axis=0)
    dim = G.shape[-1]
    defect = _judge_symplectic(err, norm_sq, dim // 2, h)
    return _contrast_from_norms(norms / batch, dim, S), defect


def _block_norms(G: np.ndarray, h: float, n_steps: int):
    """||E^n||_F^2 summed over a block of generators for n = 0 .. n_steps,
    and (defect, ||E||_F^2) of E^{n_steps} (_symplectic_defect).

    With half = isqrt(n_steps) // 2 - 1 (at least 1) and stride
    r = back + half + 1, each n is r b + a with -back <= a <= half:

        ||E^n||_F^2 = < (E^{rb})^T E^{rb}, E^a (E^a)^T >_F.

    A real symplectic E has E^{-a} = Omega^T (E^a)^T Omega, so
    E^{-a} (E^{-a})^T = Omega^T (E^a)^T E^a Omega: each baby power
    E^1 .. E^half serves the offset +a by its left Gram matrix and, up to
    back, -a by its right one, whose conjugation by Omega is a block swap
    with signs (_gram_packing). An offset -a loses digits to cancellation:
    the terms of its product exceed the result by up to s^4, s the largest
    singular value of E^a. Since s^2 + s^-2 - 2 <= ||E||_F^2 - 2m for a
    symplectic E of size 2m, that bounds s, and back is the largest
    a <= half whose bound s^4a stays within _CANCELLATION_LIMIT; it is half
    unless one sample step grows E steeply, and 0 (positive offsets only)
    for a non-finite E.

    E, its powers, Gram matrices and giant steps are carried in the block's
    cell layout (_cell_layout): on a ring whose generators repeat every p
    sites they all commute with that shift, so only the 2p rows of cell 0
    are formed, E's by expm in that layout. A product X Y is
    rows(X) full(Y), full(Y) built from Y's rows by a strided view (_full),
    a Frobenius inner product m/p times that of the rows, and the Omega
    conjugation maps cell 0's rows onto themselves. In the whole layout the
    rows are the whole matrix and full(Y) is Y.

    The baby Gram matrices (the identity at a = 0) are kept packed, and each
    giant Gram matrix meets them all in one matrix-vector product; D(0) = 1
    exactly. Every power and Gram matrix is flushed of tiny entries. A giant
    step with a non-finite norm ends the block, its norms from there on NaN.
    E^{n_steps} is the giant power E^{r q}, q = n_steps // r, times a tail
    E^s, s = n_steps mod r: a baby power, or else formed once as
    E^half E^{s - half}; the symplectic check gets the whole matrix.
    """
    nb, dim = G.shape[0], G.shape[-1]
    half = max(1, math.isqrt(n_steps) // 2 - 1)
    layout = _cell_layout(G)
    rows, p, cells = layout
    n_rows = dim // cells
    plus, minus, cross, weight = _gram_packing(dim, n_rows // 2)
    mag, mask = np.empty(nb * dim * dim), np.empty(nb * dim * dim, dtype=bool)

    def flush(X):
        return _flush_tiny(X, mag, mask)

    def full(X):
        return _full(X, p)

    def pack(gram, index, out, weights=()):
        """Packed entries of the rows of a symmetric gram (conjugated by Omega
        for the minus index) into out; weights scale the two off-diagonal
        segments."""
        np.take(gram.reshape(nb, -1), index, axis=1, out=out, mode="clip")
        flush(out)
        for segment, weight in zip((out[:, n_rows:cross], out[:, cross:]), weights):
            segment *= weight

    E = flush(expm(h * G, layout))
    excess = max(cells * float(np.einsum("...ij,...ij->...", E, E).max()) - dim, 0.0)
    log_bound = math.log((math.sqrt(excess) + math.sqrt(excess + 4.0)) / 2.0)
    back = 0
    while back < half and 4 * (back + 1) * log_bound <= math.log(_CANCELLATION_LIMIT):
        back += 1
    r = back + half + 1
    q, s = divmod(n_steps, r)
    n_giants = max(0, -(-(n_steps - half) // r))
    grams = np.zeros((r, nb, len(plus)))  # offsets -back .. half
    grams[back, :, :n_rows] = 1.0
    power, kept, stride, E = E, {}, None, full(E)
    for a in range(1, half + 1):
        if a > 1:
            power = flush(power @ E)
        whole = full(power)
        pack(power @ np.swapaxes(whole, -1, -2), plus, grams[back + a], (weight, weight))
        if a <= back:
            pack(np.swapaxes(whole[..., rows], -1, -2) @ whole, minus, grams[back - a],
                 (weight, -weight))
        if a in (back + 1, s, s - half):
            kept[a] = power
    if n_giants:
        stride = flush(power @ full(kept[back + 1] if back < half else flush(power @ E)))
    tail = None if s == 0 else kept[s] if s <= half else flush(power @ full(kept[s - half]))
    del E, power, kept, whole
    whole_stride = None if n_giants < 2 else full(stride)
    flat = grams.reshape(r, -1)
    norms = np.full(n_steps + 1, np.nan)
    giant_gram = np.empty((nb, len(plus)))
    for b in range(n_giants + 1):
        if b == 0:
            giant, packed = None, grams[back]
        else:
            giant = stride if b == 1 else flush(giant @ whole_stride)
            whole = full(giant)
            pack(np.swapaxes(whole[..., rows], -1, -2) @ whole, plus, giant_gram)
            del whole
            packed = giant_gram
        lo = r * b - back
        first, last = max(lo, 0), min(lo + r, n_steps + 1)
        norms[first:last] = cells * (flat @ packed.ravel())[first - lo : last - lo]
        if not np.isfinite(norms[first:last]).all():
            return norms, (math.nan, math.nan)
        if b == q:
            end = tail if giant is None else giant if tail is None else giant @ full(tail)
    # checked once the Gram matrices are freed
    del grams, flat, giant_gram, packed, giant, tail, stride, whole_stride
    return norms, _symplectic_defect(full(end))


def _cell_layout(G: np.ndarray):
    """(rows, p, cells): the layout _block_norms carries a block in.

    The cell p is the smallest divisor of m = dim/2 such that every
    generator of the block is unchanged by the cyclic shift of p sites on
    both quadrature halves, rows and columns (so the wrap bond counts), to
    less than _PERIOD_TOL of the block's largest entry. Every power, Gram
    matrix and giant step then commutes with the shift and is fixed by the
    2p rows of cell 0, rows (x_0 .. x_{p-1}, p_0 .. p_{p-1}): _full rebuilds
    the whole matrices from them, and a Frobenius inner product is
    cells = m/p times that of the rows. Where only the shift by m fits, the
    layout is the whole matrix: rows slice(None), p None, cells 1.
    """
    m = G.shape[-1] // 2
    blocks = G.reshape(len(G), 2, m, 2, m)
    tol = _PERIOD_TOL * np.abs(G).max()
    for p in [p for p in range(1, m) if m % p == 0]:
        shifted = np.roll(blocks, (-p, -p), axis=(2, 4))
        if np.abs(np.subtract(shifted, blocks, out=shifted), out=shifted).max() < tol:
            return np.r_[:p, m : m + p], p, m // p
    return slice(None), None, 1


def _gram_packing(dim: int, p: int):
    """(plus, minus, cross, weight): flat indices into the cell-0 rows of a
    dim x dim matrix X in the layout of cell p (_cell_layout) that pack a
    symmetric X (plus) and Omega^T X Omega (minus, up to signs), where the
    cross segment starts, and the weight of the off-diagonal entries.

    The packed order is the diagonal, then the rest of the two m x m
    diagonal blocks (m = dim/2), then the m x m cross blocks. The whole
    matrix (p = m) packs its upper triangle, each off-diagonal entry
    standing for two (weight 2); cell-0 rows (p < m) pack every entry
    (weight 1). With sigma the swap of the two halves,
    (Omega^T X Omega)_ij = +/-X_sigma(i)sigma(j), negative on the cross
    blocks only, and sigma maps cell 0's rows onto themselves, so minus is
    plus with sigma applied to both indices, and the sign is a weight on
    the cross segment.
    """
    m = dim // 2
    local, cols = np.triu_indices(dim) if p == m else np.indices((2 * p, dim)).reshape(2, -1)
    rows = local % p + m * (local // p)
    segment = np.where(rows == cols, 0, np.where((rows < m) != (cols < m), 2, 1))
    order = np.argsort(segment, kind="stable")
    local, cols = local[order], cols[order]
    cross = int(np.count_nonzero(segment < 2))
    plus = local * dim + cols
    minus = (local + p) % (2 * p) * dim + (cols + m) % dim
    return plus, minus, cross, 2.0 if p == m else 1.0


def _contrast_from_norms(sq_norms: np.ndarray, dim: int, S: float) -> np.ndarray:
    """D = 1 - (||E||_F^2 - dim)/(2 dim S) for real symplectic E of size dim:
    u u^dagger - v v^dagger = 1 makes ||v||_F^2 = (||E||_F^2 - dim)/4."""
    return 1.0 - (sq_norms - dim) / (2.0 * dim * S)


def _flush_tiny(X: np.ndarray, mag: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero the entries of X below sqrt(smallest normal double), ~1.5e-154,
    in place; mag and mask are scratch buffers of at least X.size entries.

    A local generator's exponential has entries that fall off with distance
    far below that. They sit ~138 orders under the unit scale of a
    symplectic matrix, so they cannot move D, but a product of two of them
    underflows, and subnormal arithmetic takes a slow path in x86 hardware:
    unflushed, a matmul of the L = 240 ring took 3.7x longer (Intel Xeon,
    one BLAS thread). Flushed, no product of two entries underflows.
    """
    mag = np.abs(X, out=mag[: X.size].reshape(X.shape))
    mask = np.less(mag, _SQRT_TINY, out=mask[: X.size].reshape(X.shape))
    np.copyto(X, 0.0, where=mask)
    return X


def spin_contrast(D, theta: float) -> np.ndarray:
    """Map contrast D to the spin contrast C = (D - cos^2)/sin^2 at angle theta."""
    D = np.asarray(D, dtype=float)
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
