"""Momentum-space stability theory for perturbed helix states.

Transverse helices reduce to a scalar dispersion with a closed-form
instability window and asymptotic decay rates. The elliptic families need a
flavour index: the unit cell spans lambda = 4K(kappa)/q sites, and each
quasimomentum k carries a pair of lambda x lambda Bloch matrices (A_k, B_k)
whose Bogoliubov spectrum decides stability. Everything here is the k-space
mirror of the real-space machinery in spinwave; several tests drive both
routes and demand agreement.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .elliptic import complete_K, jacobi_sncndn
from .scars import DETUNED_COUPLING, check_spin_length, parent_couplings
from .spinwave import ContrastSeries, _power_contrast, _sample_times

STABILITY_THRESHOLD = 1e-6
# The Bloch routes take their momenta in blocks of at most this many matrix
# elements (1 MiB of doubles), which bounds their temporaries whatever n_k:
# the Bloch matrices of each scan thread in lyapunov_max, and the generators
# contrast_multiflavour hands to the power kernel. glsh (0.96, 61) at
# n_k = 1,600, T = 200 and 401 samples took 8.5 s at this size against 9.8 s
# at 2^20, and 53 MB of peak RSS against 205 MB (medians of 7 alternating
# runs, 2 cores, default BLAS threads)
_BLOCK_ELEMENTS = 1 << 17


# ---------------------------------------------------------------------------
# transverse helix: scalar dispersion and closed-form window


@dataclass
class DispersionCurve:
    """Transverse-helix dispersion data on a k grid.

    omega_sw is the quasiparticle dispersion; w_tilde the reduced (per-S)
    dispersion whose imaginary part sets the growth rate.
    """

    k: np.ndarray
    omega_sw: np.ndarray
    w_tilde: np.ndarray


def _sign_plus(x: np.ndarray) -> np.ndarray:
    """sign(x) with sign(0) = +1 (convention at isolated zeros)."""
    return np.where(x >= 0.0, 1.0, -1.0)


def _transverse_detuning(q: float, theta: float, dJz: float) -> float:
    """X = sin^2(theta) dJz; ValueError unless q, theta and dJz are finite,
    0 < q < pi/2 and 0 < theta < pi (so cos q > 0 and sin theta > 0)."""
    if not all(map(math.isfinite, (q, theta, dJz))):
        raise ValueError(f"q, theta and dJz must be finite, got {q}, {theta}, {dJz}")
    if not 0.0 < q < math.pi / 2:
        raise ValueError(f"need 0 < q < pi/2, got {q}")
    if not 0.0 < theta < math.pi:
        raise ValueError(f"need 0 < theta < pi, got {theta}")
    return math.sin(theta) ** 2 * dJz


def transverse_dispersion(k, q: float, theta: float, dJz: float, S: float = 1.0) -> DispersionCurve:
    """Quasiparticle dispersion of the z-detuned transverse helix.

    With X = sin^2(theta) dJz:

        A_k  = S X cos k
        B_k  = S (X cos k - 4 cos q sin^2(k/2) - 2 cos(theta) sin q sin k)
        w_sw = (B- + sign(B+) sqrt((B+)^2 - 4 A^2)) / 2
        w~_k = 2 sqrt(2) sin(k/2) sqrt(cos q) sqrt(2 cos q sin^2(k/2) - X cos k)

    Square roots take the principal complex branch (upper half-plane), which
    makes w~ odd in k. Both dispersions go complex on the same k windows.
    (q, theta, dJz) outside _transverse_detuning raise ValueError, as in
    instability_window, scaling_function and rates, and so does a curve
    that leaves double range.
    """
    X = _transverse_detuning(q, theta, dJz)
    check_spin_length(S)
    k = np.asarray(k, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the check below
        s2 = np.sin(k / 2.0) ** 2
        A = S * X * np.cos(k)
        B = S * (X * np.cos(k) - 4.0 * math.cos(q) * s2 - 2.0 * math.cos(theta) * math.sin(q) * np.sin(k))
        Bm = S * (X * np.cos(-k) - 4.0 * math.cos(q) * s2 + 2.0 * math.cos(theta) * math.sin(q) * np.sin(k))
        B_plus = B + Bm
        B_minus = B - Bm
        root = np.sqrt((B_plus**2 - 4.0 * A**2).astype(complex))
        omega_sw = 0.5 * (B_minus + _sign_plus(B_plus) * root)
        w_tilde = (
            2.0
            * math.sqrt(2.0)
            * np.sin(k / 2.0)
            * math.sqrt(math.cos(q))
            * np.sqrt((2.0 * math.cos(q) * s2 - X * np.cos(k)).astype(complex))
        )
    if not (np.isfinite(omega_sw).all() and np.isfinite(w_tilde).all()):
        raise ValueError(f"the dispersion overflows at dJz = {dJz}, S = {S}")
    return DispersionCurve(k=k, omega_sw=omega_sw, w_tilde=w_tilde)


@dataclass(frozen=True)
class InstabilityWindow:
    """Complex-dispersion window (k_lower, k_upper) and its fastest mode.

    side is "gapless" for the small-k window of positive detuning and
    "zone-edge" for the window at k = pi of strongly negative detuning.
    rate_max = b1(k_max) is per unit S.
    """

    k_lower: float
    k_upper: float
    k_max: float
    rate_max: float
    side: str


def instability_window(q: float, theta: float, dJz: float):
    """Locate the complex window of the transverse dispersion, if any.

    dJz > 0: a window (0, k_*) opens about k = 0 with
    sin^2(k_*/2) = X / (2(cos q + X)), X = sin^2(theta) dJz. Inside it
    b1^2 is proportional to s (X - 2(cos q + X) s), s = sin^2(k/2), so the
    growth peaks at sin^2(k_max/2) = X / (4(cos q + X)) with
    rate_max = X sqrt(cos q / (cos q + X)).
    dJz <= 0: the dispersion stays real until dJz < -2 cos q / sin^2 theta,
    where a window opens at the zone edge; there the growth increases
    monotonically to k = pi, so the maximizer is the edge itself, with
    rate_max = 2 sqrt(2 cos q |2 cos q + X|). Returns None when the
    spectrum is real everywhere. Needs 0 < q < pi/2 and 0 < theta < pi
    (_transverse_detuning).
    """
    X = _transverse_detuning(q, theta, dJz)
    cq = math.cos(q)
    if dJz > 0.0:
        return InstabilityWindow(
            k_lower=0.0,
            k_upper=2.0 * math.asin(math.sqrt(X / (2.0 * (cq + X)))),
            k_max=2.0 * math.asin(math.sqrt(X / (4.0 * (cq + X)))),
            rate_max=X * math.sqrt(cq / (cq + X)),
            side="gapless",
        )
    if X >= -2.0 * cq:
        return None
    # zone-edge window: cos k below cq/(cq+X); growth is monotone on it
    k_edge = math.acos(cq / (cq + X))
    return InstabilityWindow(
        k_lower=k_edge,
        k_upper=math.pi,
        k_max=math.pi,
        rate_max=2.0 * math.sqrt(2.0) * math.sqrt(cq) * math.sqrt(abs(2.0 * (cq + X) - X)),
        side="zone-edge",
    )


def scaling_function(tau, q: float, theta: float, dJz: float, n_k: int | None = None) -> np.ndarray:
    """Thermodynamic-limit scaling function f(tau) of the contrast.

        f(tau) = (1/2pi) Int dk (A~_k^2 / w~_k^2) sin^2(w~_k tau)

    with A~_k = sin^2(theta) cos(k) dJz. The integrand is A~^2 tau^2 times
    the entire function sin^2(sqrt z)/z of z = w~^2 tau^2, analytic in k
    (only even powers of w~ appear), so the uniform trapezoid rule converges
    spectrally; the grid grows with tau to resolve the oscillations. The
    k-only factors a_k = A~^2/|w~^2| and omega_k = sqrt|w~^2| are formed
    once: each point is a_k sin^2(omega_k tau), a_k sinh^2(omega_k tau)
    where w~^2 < 0, and A~^2 tau^2 where w~^2 is exactly 0. The integrand
    is even in k, so the sum runs over the k >= 0 half of the midpoint grid
    with weight 2, the k = 0 point of an odd grid with weight 1; the weights
    are folded into a_k, exactly. Rows are summed by np.sum, so a tau's
    value does not depend on the other taus. Needs 0 < q < pi/2 and
    0 < theta < pi (_transverse_detuning).
    """
    X = _transverse_detuning(q, theta, dJz)
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    if not np.all((tau >= 0) & (tau < math.inf)):
        raise ValueError("tau must be finite and >= 0")
    if n_k is None:
        n_k = max(8192, 256 * (int(np.max(tau)) + 1))
    k = _momentum_grid(n_k)[n_k // 2 :]
    weight = np.full(len(k), 2.0)
    weight[: n_k % 2] = 1.0
    s2 = np.sin(k / 2.0) ** 2
    w2 = 8.0 * math.cos(q) * s2 * (2.0 * math.cos(q) * s2 - X * np.cos(k))
    # momenta grouped as w~^2 > 0, w~^2 == 0, w~^2 < 0
    order = np.argsort(-np.sign(w2), kind="stable")
    w2, A2 = w2[order], (X * np.cos(k[order])) ** 2
    n_osc, n_flat = np.count_nonzero(w2 > 0.0), np.count_nonzero(w2 == 0.0)
    grow = slice(n_osc + n_flat, None)
    omega = np.sqrt(np.abs(w2))
    a = np.divide(A2, np.abs(w2), out=A2.copy(), where=w2 != 0.0)
    a *= weight[order]
    out = np.empty(len(tau))
    # 2.5e5 (tau, k) points per chunk bound the temporaries at a few MB
    chunk = max(1, 250_000 // len(k))
    for i in range(0, len(tau), chunk):
        t = tau[i : i + chunk, None]
        x = t * omega
        np.sin(x[:, :n_osc], out=x[:, :n_osc])
        x[:, n_osc : n_osc + n_flat] = t
        np.sinh(x[:, grow], out=x[:, grow])
        np.square(x, out=x)
        x *= a
        out[i : i + chunk] = np.sum(x, axis=1) / n_k
    return out


@dataclass(frozen=True)
class DecayRates:
    """Asymptotic contrast decay rates on one side of the transition.

    branch is "algebraic" (stable side: f grows linearly with slope gamma1)
    or "exponential" (unstable side: gamma2_exact = 2 S b1(k*) with the
    perturbative small-detuning limit alongside).
    """

    branch: str
    gamma1: float | None = None
    gamma2_exact: float | None = None
    gamma2_perturbative: float | None = None


def rates(q: float, theta: float, dJz: float, S: float = 1.0) -> DecayRates:
    """Late-time decay rate of the contrast for the detuned transverse helix.

    Stable branch (dJz < 0 inside the documented window):
        gamma1 = (1/2 sqrt(2)) (sin^3 theta / sqrt(cos q)) |dJz|^(3/2)
    Unstable branch (dJz > 0):
        gamma2 = 2 S b1(k*) exactly, ~ 2 S sin^2(theta) dJz perturbatively.
    Needs 0 < q < pi/2 and 0 < theta < pi (_transverse_detuning).
    """
    _transverse_detuning(q, theta, dJz)
    check_spin_length(S)
    if dJz > 0.0:
        win = instability_window(q, theta, dJz)
        return DecayRates(
            branch="exponential",
            gamma2_exact=2.0 * S * win.rate_max,
            gamma2_perturbative=2.0 * S * math.sin(theta) ** 2 * dJz,
        )
    # the documented stable window; the dispersion in fact stays real down to
    # -2 cos q / sin^2 theta, where the zone-edge window opens
    lo = -math.cos(q) / math.sin(theta) ** 2
    if dJz < lo or dJz == 0.0:
        raise ValueError(
            f"dJz={dJz} is outside both asymptotic branches "
            f"(stable window is ({lo:.6f}, 0))"
        )
    gamma1 = (
        (1.0 / (2.0 * math.sqrt(2.0)))
        * math.sin(theta) ** 3
        / math.sqrt(math.cos(q))
        * abs(dJz) ** 1.5
    )
    return DecayRates(branch="algebraic", gamma1=gamma1)


# ---------------------------------------------------------------------------
# multi-flavour Bloch problem for the elliptic families


@dataclass
class BlochMatrixPair:
    """Hermitian pairing (A) and hopping (B) matrices at quasimomentum k."""

    k: float
    A: np.ndarray
    B: np.ndarray


def unit_cell_size(kappa: float, q: float) -> int:
    """lambda = 4K(kappa)/q, required to be an integer (commensurate cell)."""
    lam_f = 4.0 * complete_K(kappa) / q
    lam = round(lam_f)
    if lam < 1 or abs(lam_f - lam) > 1e-9 * max(1.0, lam):
        raise ValueError(f"unit cell 4K/q = {lam_f} is not an integer")
    return lam


def family_coefficients(family: str, kappa: float, q: float, delta: float, S: float = 1.0):
    """Uniform hopping eta, pairing zeta and onsite array V of a gtsh or glsh cell.

    gtsh takes a z detuning, glsh an x detuning (scars.DETUNED_COUPLING);
    either way the pairing is (S/2) delta, the hopping adds delta to twice
    the parent's detuned coupling, and the onsite potential (one value per
    site of the lambda-cell) is the detuning-independent elliptic profile.
    The scar's domain is enforced here: 0 < q < K(kappa) (so lambda > 4,
    via parent_couplings) and S > 0, which make V negative on every site.
    """
    check_spin_length(S)
    if not math.isfinite(delta):
        raise ValueError(f"detuning delta must be finite, got {delta}")
    lam = unit_cell_size(kappa, q)
    parent = parent_couplings(kappa, q)
    snq = jacobi_sncndn(q, kappa)[0]
    cnq, dnq = parent.Jz, parent.Jx
    if family not in ("gtsh", "glsh"):
        raise ValueError(f"unknown family {family!r} (expected 'gtsh' or 'glsh')")
    eta = 0.5 * S * (2.0 * getattr(parent, DETUNED_COUPLING[family]) + delta)
    zeta = 0.5 * S * delta
    sn_s = jacobi_sncndn(q * np.arange(lam), kappa)[0]
    V = -2.0 * S * cnq * dnq / (1.0 - (kappa * sn_s * snq) ** 2)
    return eta, zeta, V


def multiflavour_matrices(
    k: float, family: str, kappa: float, q: float, delta: float, S: float = 1.0
) -> BlochMatrixPair:
    """Bloch pair (A_k, B_k) of the detuned gtsh/glsh flavour problem.

    B = diag(V) + eta (T + T^dagger) and A = zeta (T + T^dagger), with T the
    cell's bond matrix: ones at (s, s+1) and the Bloch phase e^{ik} on the
    wrap bond (lambda-1, 0).
    """
    eta, zeta, V = family_coefficients(family, kappa, q, delta, S)
    T = np.eye(len(V), k=1, dtype=complex)
    T[-1, 0] = np.exp(1j * k)
    bonds = T + T.conj().T
    # the zero matrix keeps A's entries off the bonds +0.0 for a negative zeta
    A = np.zeros(bonds.shape) + zeta * bonds
    return BlochMatrixPair(k=k, A=A, B=np.diag(V) + eta * bonds)


def dynamical_matrix(pair: BlochMatrixPair) -> np.ndarray:
    """Real dynamical matrix D_k of the canonical quadrature evolution.

    4 lam x 4 lam for k not in {0, pi} (coordinates ordered q_k, q_{-k},
    p_k, p_{-k}), 2 lam x 2 lam at the self-conjugate momenta. Assumes the
    real-eta symmetry B_{-k} = conj(B_k), A_{-k} = conj(A_k).
    """
    A, B, k = pair.A, pair.B, pair.k
    ReA, ImA = A.real, A.imag
    ReB, ImB = B.real, B.imag
    if abs(math.sin(k)) < 1e-12:
        return np.block([[ImB + ImA, ReB - ReA], [-(ReB + ReA), ImB - ImA]])
    return np.block(
        [
            [ImB, ImA, ReB, -ReA],
            [-ImA, -ImB, -ReA, ReB],
            [-ReB, -ReA, ImB, -ImA],
            [-ReA, -ReB, ImA, -ImB],
        ]
    )


def _momentum_grid(n_k: int) -> np.ndarray:
    """Midpoint grid over (-pi, pi). For even n_k it avoids the marginal
    k = 0 mode, whose numerically split zero eigenvalue would otherwise set
    the noise floor; odd n_k puts a point on k = 0."""
    if n_k < 1:
        raise ValueError(f"need at least one momentum, got n_k = {n_k}")
    return -math.pi + 2.0 * math.pi * (np.arange(n_k) + 0.5) / n_k


def _reflection_basis(lam: int) -> np.ndarray:
    """Unitary W whose columns are the reflection-conjugation invariant states.

    The columns are |0>, then (|a> + |-a>)/sqrt2 and i(|a> - |-a>)/sqrt2 for
    a = 1 .. ceil(lam/2) - 1, then |lam/2> for even lam (sites mod lam). Each
    is fixed by s -> -s combined with complex conjugation, so every operator
    that commutes with that antiunitary map is real in this basis.
    """
    W = np.zeros((lam, lam), dtype=complex)
    W[0, 0] = 1.0
    r = 1.0 / math.sqrt(2.0)
    for a in range(1, (lam + 1) // 2):
        W[[a, lam - a], 2 * a - 1] = r
        W[[a, lam - a], 2 * a] = 1j * r, -1j * r
    if lam % 2 == 0:
        W[lam // 2, lam - 1] = 1.0
    return W


def _reflection_operators(V) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X = Sh + Sh^T, Y = i(Sh - Sh^T) and diag(V) in the basis W of
    _reflection_basis, with Sh the cyclic shift of a len(V)-site cell.

    All three are real there for a reflection-symmetric V (V_s = V_{-s}).
    """
    V = np.asarray(V, dtype=float)
    lam = len(V)
    W = _reflection_basis(lam)
    # W^dagger in C order: with more than one BLAS thread, the transposed
    # operand took OpenBLAS's zgemm up to 500x longer (32 ms at lam = 43) for
    # the same bits
    W_dag = np.ascontiguousarray(W.conj().T)
    shift = np.roll(np.eye(lam), 1, axis=1)
    X, Y, D = (
        (W_dag @ M @ W).real
        for M in (shift + shift.T, 1j * (shift - shift.T), np.diag(V))
    )
    return X, Y, D


def _reflection_bloch_pair(eta: float, zeta: float, operators, k_grid) -> tuple[np.ndarray, np.ndarray]:
    """Real R-(k), R+(k) = W_k^dagger (B_k -/+ A_k) W_k stacked over k_grid.

    For uniform real eta, zeta and a reflection-symmetric V,
    W_k = diag(e^{iks/lam}) W with W from _reflection_basis. The gauge spreads
    the wrap phase over every bond, so B_k +/- A_k = diag(V) +
    (eta +/- zeta)[cos(k/lam) X + sin(k/lam) Y]; operators is
    _reflection_operators(V) = (X, Y, diag(V)) in the basis W.
    """
    X, Y, D = operators
    theta = np.asarray(k_grid, dtype=float)[:, None, None] / len(D)
    G = np.cos(theta) * X + np.sin(theta) * Y
    return D + (eta - zeta) * G, D + (eta + zeta) * G


def _bloch_cell(family: str, kappa: float, q: float, delta: float, S: float, n_k: int):
    """(eta, zeta, k_cell, operators) of the real Bloch route, shared by
    lyapunov_max and contrast_multiflavour.

    k_cell is the k > 0 half of the even n_k-point midpoint grid: the -k
    matrices are elementwise conjugates of the +k ones, and the cell
    reflection s -> -s, a diagonal +/-1 matrix P in the basis of
    _reflection_basis, gives R+/-(-k) = P R+/-(k) P. sn^2 has period 2K, so
    for even lam V has period p = lam/2; the lam-cell spectrum at k is then
    the union of the p-cell spectra at k/2 and k/2 + pi, and by conjugation
    symmetry the half zone maps onto p-cell momenta {k/2, pi - k/2}.
    operators is _reflection_operators of the (possibly halved) cell.
    """
    if n_k < 2 or n_k % 2:
        raise ValueError(f"n_k must be even and >= 2, got {n_k}")
    eta, zeta, V = family_coefficients(family, kappa, q, delta, S)
    k_cell = _momentum_grid(n_k)[n_k // 2 :]
    if len(V) % 2 == 0:
        V = V[: len(V) // 2]
        k_cell = np.concatenate([k_cell / 2.0, math.pi - k_cell / 2.0])
    return eta, zeta, k_cell, _reflection_operators(V)


def lyapunov_max(
    family: str, kappa: float, q: float, delta: float, S: float = 1.0, n_k: int = 400
) -> float:
    """Largest Bogoliubov growth rate over the sublattice Brillouin zone.

    The spectrum of C_k = [[B, A], [-A, -B]] is (+/-) the square roots of
    spec((B-A)(B+A)), so the growth rate is max |Im sqrt(mu)| over the
    momenta k > 0 of an even n_k-point full-zone midpoint grid. No Hermitian
    shortcut applies: the onsite potential V is negative on a scar's
    domain, so B-A and B+A have a negative diagonal and neither factor is
    ever positive definite; the route is a general eigvals.

    Two symmetries of the scar make that eigvals real and small. V depends
    on sn^2 only, so V_s = V_{-s}: the gauge diag(e^{iks/lam}) and the
    basis of states fixed by reflection plus conjugation turn B +/- A into
    real symmetric R+/- (see _reflection_bloch_pair), and one unitary acts
    on both factors, so spec(R- R+) = spec((B-A)(B+A)) from a real eigvals.
    For even lam the cell folds onto its half (_bloch_cell): the same points
    at a quarter of the flops. The momenta go through eigvals in blocks of
    at most _BLOCK_ELEMENTS elements of the products R- R+, four times the
    momenta of contrast_multiflavour's blocks of twice-as-wide generators,
    which keeps the scan's eigvals batches large; eigvals treats each
    matrix alone, so the blocks change no bit. Values at or below
    STABILITY_THRESHOLD * S count as stable.
    """
    eta, zeta, k_cell, operators = _bloch_cell(family, kappa, q, delta, S, n_k)
    step = max(1, _BLOCK_ELEMENTS // len(operators[0]) ** 2)
    mu = []
    for start in range(0, len(k_cell), step):
        Rm, Rp = _reflection_bloch_pair(eta, zeta, operators, k_cell[start : start + step])
        mu.append(np.linalg.eigvals(Rm @ Rp))
    mu = np.concatenate(mu, axis=None)
    return float(np.abs(np.sqrt(mu.astype(complex)).imag).max())


def contrast_multiflavour(
    family: str,
    kappa: float,
    q: float,
    delta: float,
    S: float = 1.0,
    T: float = 20.0,
    n_k: int = 400,
    n_samples: int = 201,
) -> ContrastSeries:
    """Thermodynamic-limit contrast from the flavour problem.

        D_SW(t) = 1 - (1/2 pi lam S) sum_{ss'} Int dk |exp(-i C_k t)_{s, lam+s'}|^2

    The k integral is a midpoint rule on an even n_k-point grid. In the
    basis of _reflection_bloch_pair, C_k = [[B, A], [-A, -B]] has the real
    blocks B = (R- + R+)/2 and A = (R+ - R-)/2, so its quadrature generator
    is [[0, R-], [-R+, 0]]. The integrand is even in k (R+/-(-k) =
    P R+/-(k) P with P the diagonal +/-1 cell reflection), so the rule runs
    over the k > 0 half zone, and for even lam the cell folds onto the half
    cell at momenta {k/2, pi - k/2}: the momenta of lyapunov_max
    (_bloch_cell). The generators go through the power/Frobenius kernel of
    the real-space ring (spinwave._power_contrast), with its finiteness and
    symplectic checks. They are built lazily, at most _BLOCK_ELEMENTS
    matrix elements at a time, and the kernel sums the blocks' norms, so
    the memory does not grow with n_k. Without detuning nothing creates
    pairs, and D = 1 exactly.
    """
    times = _sample_times(T, n_samples)
    eta, zeta, k_cell, operators = _bloch_cell(family, kappa, q, delta, S, n_k)
    if zeta == 0.0:
        return ContrastSeries(times=times, D=np.ones(n_samples), f=np.zeros(n_samples))
    step = max(1, _BLOCK_ELEMENTS // (2 * len(operators[0])) ** 2)
    pairs = (_reflection_bloch_pair(eta, zeta, operators, k_cell[start : start + step])
             for start in range(0, len(k_cell), step))
    blocks = (np.block([[np.zeros_like(Rm), Rm], [-Rp, np.zeros_like(Rm)]]) for Rm, Rp in pairs)
    D, defect = _power_contrast(blocks, times[1] - times[0], n_samples, S)
    return ContrastSeries(
        times=times, D=D, f=S * (1.0 - D), pseudo_unitarity_defect=defect
    )


def phase_scan(
    kappa_grid,
    lambdas,
    delta: float = 0.01,
    family: str = "glsh",
    S: float = 1.0,
    n_k: int = 400,
) -> list[dict]:
    """Classify helix stability over a (kappa, lambda) grid at detuning +-delta.

    Each record holds the growth rates at -delta and +delta and the class
    string "{U|S}-{U|S}" (minus sign first), with U meaning the rate exceeds
    STABILITY_THRESHOLD * S. Every (cell, sign) is one lyapunov_max task on a
    pool of one thread per CPU this process may run on (os.sched_getaffinity,
    so `taskset` narrows it), never more than the tasks; its eigvals releases
    the GIL, and each rate is the serial call's bit for bit. Records come
    back in grid order. A lambda below 1 raises ValueError before any task
    starts; a cell off the scar's domain raises from its task. The tasks run
    in the caller's numpy error state, which threads do not inherit.
    """
    from concurrent.futures import ThreadPoolExecutor

    bad = [lam for lam in lambdas if int(lam) < 1]
    if bad:
        raise ValueError(f"lambda must be a positive integer, got {bad[0]}")
    cells = [
        (float(kappa), int(lam), 4.0 * complete_K(float(kappa)) / int(lam))
        for kappa in np.atleast_1d(kappa_grid)
        for lam in lambdas
    ]
    tasks = [(family, kappa, q, d, S, n_k) for kappa, _, q in cells for d in (-delta, delta)]
    threads = max(1, min(len(os.sched_getaffinity(0)), len(tasks)))
    errors = np.geterr()

    def rate(task):
        with np.errstate(**errors):
            return lyapunov_max(*task)

    with ThreadPoolExecutor(threads) as pool:
        rates = list(pool.map(rate, tasks))
    thr = STABILITY_THRESHOLD * S
    return [
        {
            "kappa": kappa,
            "lambda": lam,
            "q": q,
            "class": f"{'U' if lm > thr else 'S'}-{'U' if lp > thr else 'S'}",
            "lyap_minus": lm,
            "lyap_plus": lp,
        }
        for (kappa, lam, q), lm, lp in zip(cells, rates[0::2], rates[1::2])
    ]
