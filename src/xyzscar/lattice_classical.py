"""Discrete Landau-Lifshitz dynamics on the XYZ ring.

The mean-field equations Odot_j = S J(O_{j-1} + O_{j+1}) x O_j, for diagonal
couplings J, are integrated with a hand-rolled fixed-step RK4. The step acts
on a flat ghost-padded state: per trajectory the rows x, y, z, x, y of
L + 2 entries each, with sites L-1 and 0 as ghosts at the ends of every row,
so the neighbour sum and the cross product are a handful of operations on
contiguous 1-D slices and each stage fills ghosts and duplicate rows by one
precomputed gather. The integrators pad once and unpad only at samples and
renormalisations; every stored value comes from the same floating-point
operations as on the (L, 3) texture. Norm drift is monitored and reported,
never projected away: silent renormalization would erase exactly the
instability signatures this module exists to measure. Also
provides the traveling-wave residuals of the perturbed helix ansatz, a
Benettin twin-trajectory Lyapunov estimator, and the real 2L x 2L generator of
the linearized dynamics about a stationary frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import jacobi_sncndn
from .rotframe import FrameData, stationarity_residual
from .scars import bond_sum, check_spin_length, checked_texture, coupling_matrix, helix_amplitudes

#: per-site norm drift beyond this aborts the integration
NORM_DRIFT_TOL = 1e-6
#: most RK4 steps a run may take, 200 times BENCH_12.json's 5e5-step dt = 1e-4/S study
MAX_STEPS = 10**8
#: tangent distance of classical_lyapunov's twin at the start and after every
#: renormalisation; ll_evolve's default-step error stays below it
BENETTIN_KICK = 1e-7


class IntegrationError(RuntimeError):
    """Raised when the fixed-step integrator loses the unit-sphere constraint."""


@dataclass
class ClassicalTrajectory:
    """Sampled mean-field trajectory with its conserved diagnostics.

    dt is the step the run took (T / n_steps, at most the requested bound).
    max_norm_drift is the largest per-site norm drift seen at any sample
    after t = 0 (at most NORM_DRIFT_TOL, or the run would have raised).
    """

    times: np.ndarray
    textures: np.ndarray  # (n_times, L, 3)
    energy: np.ndarray
    max_norm_drift: float
    dt: float

    @property
    def L(self) -> int:
        return self.textures.shape[1]

    @property
    def max_energy_drift(self) -> float:
        """Largest |E(t) - E(0)| over the samples, relative to |E(0)| (absolute if E(0) = 0)."""
        scale = abs(self.energy[0]) or 1.0
        return float(np.max(np.abs(self.energy - self.energy[0])) / scale)


class _PaddedRing:
    """Flat ghost-padded layout of n trajectories on an L-site ring.

    Each trajectory is five rows x, y, z, x, y of W = L + 2 entries, with
    site L-1 and site 0 as ghosts at the two ends of every row, and the n
    trajectories follow one another in one contiguous float array. The
    neighbour sum O_{j-1} + O_{j+1} is then one add of two shifted 1-D
    slices, and shifting by one and two rows pairs each component with the
    cyclic (y, z, x) and (z, x, y) ones of the cross product.
    """

    def __init__(self, L: int, n: int, J_diag: np.ndarray):
        W = L + 2
        self.n, self.W = n, W
        comp = np.repeat([0, 1, 2, 0, 1], W)
        site = np.tile(np.r_[L - 1, np.arange(L), 0], 5)
        #: padded entry -> its (site, component) in an (n, L, 3) texture
        self._gather = (np.arange(n)[:, None] * (3 * L) + 3 * site + comp).ravel()
        #: coupling at the centre k + 1 of the neighbour sum stored at k
        self.J = np.tile(J_diag[comp], n)[1:-1]
        #: padded entry -> the entry of rows x, y, z holding its value
        self.refill = (np.arange(n)[:, None] * (5 * W) + comp * W + 1 + site).ravel()

    def pad(self, omega: np.ndarray) -> np.ndarray:
        """Flat padded state of an (L, 3) or (n, L, 3) texture."""
        return omega.ravel().take(self._gather)

    def unpad(self, state: np.ndarray) -> np.ndarray:
        """(n, L, 3) texture of a padded state, as a new array."""
        rows = state.reshape(self.n, 5, self.W)[:, :3, 1:-1]
        return np.ascontiguousarray(rows.transpose(0, 2, 1))


def _rk4_step(state: np.ndarray, ring: _PaddedRing, S: float, dt: float) -> np.ndarray:
    """One RK4 step of the padded state; every value, ghosts included, is
    computed by the same floating-point operations as the site it copies."""
    W, J, refill = ring.W, ring.J, ring.refill
    # the cross product is formed at entries 0 .. M-1, which cover rows x, y, z
    # of every trajectory; refill copies it to every entry, ghosts included
    M = len(state) - 2 * W - 1

    def rhs(o):
        # the neighbour sum centred on entry p sits at p - 1
        field = (S * (o[:-2] + o[2:])) * J
        yz = field[W - 1 : W - 1 + M] * o[2 * W : 2 * W + M]
        zy = field[2 * W - 1 : 2 * W - 1 + M] * o[W : W + M]
        return (yz - zy).take(refill)

    k1 = rhs(state)
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _coupling_diagonal(J) -> np.ndarray:
    """(Jx, Jy, Jz) of a diagonal coupling, the only kind the integrators take."""
    mat = coupling_matrix(J)
    if np.count_nonzero(mat[~np.eye(3, dtype=bool)]):
        raise ValueError(
            f"the Landau-Lifshitz integrators take diagonal couplings, got {mat.tolist()}"
        )
    return np.diag(mat).copy()


def _checked_texture(initial, **spans: float) -> np.ndarray:
    """scars.checked_texture of initial; every named span must be positive
    and finite."""
    omega = checked_texture(initial)
    for name, value in spans.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    return omega


def _span_ratio(names: str, span: float, step: float) -> float:
    """span / step; ValueError naming both spans when the ratio overflows."""
    ratio = span / step
    if ratio == math.inf:
        raise ValueError(f"{names} = {span:g} / {step:g} is not a finite number of steps")
    return ratio


def _step_count(names: str, span: float, dt: float) -> int:
    """Fewest equal steps across span that are no longer than dt.

    The 1e-9 relative slack keeps ratios such as 200.00000000000003 at 200.
    """
    return math.ceil(_span_ratio(names, span, dt) * (1.0 - 1e-9))


def _check_step_budget(T: float, dt: float, n_steps: float) -> None:
    if n_steps > MAX_STEPS:
        raise ValueError(
            f"T = {T:g} at dt = {dt:g} takes {n_steps:.3g} RK4 steps, over {MAX_STEPS:.0e}"
        )


def _check_norm_drift(omega: np.ndarray, t: float, dt: float) -> float:
    """Largest site-norm drift of omega; IntegrationError beyond NORM_DRIFT_TOL or NaN."""
    drift = float(np.max(np.abs(np.linalg.norm(omega, axis=-1) - 1.0)))
    if not drift <= NORM_DRIFT_TOL:
        raise IntegrationError(
            f"norm drift {drift:.2e} exceeds {NORM_DRIFT_TOL:.0e} at "
            f"t = {t:.3f}; reduce dt (currently {dt:.2e})"
        )
    return drift


def ll_evolve(
    initial: np.ndarray,
    J,
    S: float,
    dt: float | None = None,
    T: float = 10.0,
    max_samples: int = 1001,
) -> ClassicalTrajectory:
    """Integrate the discrete Landau-Lifshitz equations on a periodic ring.

    Parameters
    ----------
    initial : (L, 3) array
        Unit Bloch vectors at t = 0.
    J : XYZCouplings, 3-vector or diagonal 3x3 array
        Exchange couplings (detunings included); off-diagonal entries raise.
    S : float
        Spin length; enters the equations linearly, so a step in units of 1/S
        keeps the error budget S-independent.
    dt, T : float
        Upper bound on the fixed step, and the final time. The run takes the
        fewest equal steps no longer than dt that land on T. The default
        bound is 5e-3/S, or T / (max_samples - 1) where that is shorter, so a
        short default run still returns max_samples samples (t = 0 included).
        Against dt = 1e-4/S, 5e-3/S keeps static and rigidly rotating scars
        at rounding level (7.3e-14 on the L = 120 gtsh ring; transverse
        helices at S = 1/2, 1 and 3 within 3.6e-15 of the closed form),
        moving elliptic textures within 1.3e-12 (L = 12, T = 5), and textures
        far from any scar within 6.0e-9 (incommensurate transverse helix,
        L = 40, T = 50) and 3.8e-8 (random L = 10 texture, T = 20; norm drift
        4.8e-11, relative energy drift 1.1e-10). Both sit below the 1e-7
        tangent kick that classical_lyapunov resolves. dt = 1e-2/S would
        leave the norm drift of that random texture at 7.95e-10.
    max_samples : int
        Trajectory snapshots are thinned to at most this many (plus t = 0);
        must be at least 1.

    Raises
    ------
    ValueError
        On S not positive and finite, a texture that is not unit-norm (L, 3)
        with L >= 2, off-diagonal or non-finite couplings, dt or T not
        positive and finite, T / dt overflowing, more than MAX_STEPS steps,
        or max_samples below 1.
    IntegrationError
        If any site norm drifts from 1 by more than NORM_DRIFT_TOL; the drift
        is reported, not projected away. Reduce dt in that case.
    """
    check_spin_length(S)
    default_step = dt is None
    if default_step:
        dt = 5e-3 / S
    omega = _checked_texture(initial, dt=dt, T=T)
    if max_samples < 1:
        raise ValueError(f"max_samples must be at least 1, got {max_samples}")
    mat = coupling_matrix(J)
    ring = _PaddedRing(len(omega), 1, _coupling_diagonal(mat))

    n_steps = _step_count("T / dt", T, dt)
    if default_step:
        # a short default run takes a step per sample
        n_steps = max(n_steps, max_samples - 1)
    _check_step_budget(T, dt, n_steps)
    dt_eff = T / n_steps
    stride = max(1, math.ceil(n_steps / max_samples))

    times = [0.0]
    textures = [omega.copy()]
    # the classical Hamiltonian S sum_j O_j . J O_{j+1} generating the flow
    energies = [S * bond_sum(omega, mat)]
    max_drift = 0.0
    state = ring.pad(omega)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the drift check
        for step in range(1, n_steps + 1):
            state = _rk4_step(state, ring, S, dt_eff)
            if step % stride == 0 or step == n_steps:
                omega = ring.unpad(state)[0]
                max_drift = max(max_drift, _check_norm_drift(omega, step * dt_eff, dt_eff))
                times.append(step * dt_eff)
                textures.append(omega)
                energies.append(S * bond_sum(omega, mat))
    return ClassicalTrajectory(
        times=np.array(times),
        textures=np.array(textures),
        energy=np.array(energies),
        max_norm_drift=max_drift,
        dt=dt_eff,
    )


def traveling_wave_residuals(
    kappa: float,
    q: float,
    gamma: float,
    omega: float,
    dJ: tuple[float, float, float],
    S: float,
    L: int,
    t: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-site residuals of the traveling elliptic-helix ansatz.

    The ansatz O_j(t) with phase u_j = qj - omega*t solves the perturbed
    dynamics (detunings dJ = (dJx, dJy, dJz) on top of the parent couplings)
    exactly when three left = right conditions hold; this returns
    |left - right| for each, evaluated at every site at time t. With
    D_j = 1 - kappa^2 sn^2(u_j) sn^2(q) and the texture amplitudes
    (a, b) = scars.helix_amplitudes(k, g), i.e. a^2 = (1-g)(1+g) and
    b^2 = a^2 + (g k)^2 without cancellation:

        r1_j = | 2 S b g (dJy cn(q) - dJz) dn(q) / D_j - a w |
        r2_j = | 2 S a g (dJx cn(q) - dJz dn(q)) / D_j - b w |
        r3_j = | 2 S a b (dJx - dJy dn(q)) / D_j - g k^2 w |

    Raises ValueError on gamma outside [-1, 1].
    """
    dJx, dJy, dJz = dJ
    alpha, beta = helix_amplitudes(kappa, gamma)
    snq, cnq, dnq = jacobi_sncndn(q, kappa)
    u = q * np.arange(L) - omega * t
    snu = jacobi_sncndn(u, kappa)[0]
    denom = 1.0 - (kappa * snu * snq) ** 2
    r1 = np.abs(2.0 * S * beta * gamma * (dJy * cnq - dJz) * dnq / denom - alpha * omega)
    r2 = np.abs(2.0 * S * alpha * gamma * (dJx * cnq - dJz * dnq) / denom - beta * omega)
    r3 = np.abs(2.0 * S * alpha * beta * (dJx - dJy * dnq) / denom - gamma * kappa**2 * omega)
    return r1, r2, r3


@dataclass
class LyapunovEstimate:
    """Largest-exponent estimate from twin trajectories.

    rate is the fitted exponential growth rate of the tangent separation;
    converged is False when no exponential window was found (bounded or
    oscillatory separation), in which case rate is 0 by convention.

    The fit's health is kept whether or not it converged: slope_se is the
    standard error of the fitted slope (inf when the window holds a single
    renormalisation), efolds is the fitted slope times the window length
    (the fit calls a rate resolved only at efolds >= 2), and
    max_norm_drift is the largest per-site norm drift of base or twin seen
    at any renormalisation (at most NORM_DRIFT_TOL, or the run would have
    raised).
    """

    rate: float
    converged: bool
    times: np.ndarray
    log_growth: np.ndarray
    slope_se: float
    efolds: float
    max_norm_drift: float


def classical_lyapunov(
    initial: np.ndarray,
    J,
    S: float,
    T: float | None = None,
    dt: float | None = None,
    discard_fraction: float = 0.2,
    seed: int = 0,
) -> LyapunovEstimate:
    """Benettin estimate of the largest Lyapunov exponent.

    A twin trajectory is launched a tangent distance BENETTIN_KICK from
    `initial`; the separation is renormalized back to BENETTIN_KICK after
    every interval of 1/S, and the accumulated log growth is fitted
    linearly after dropping the first `discard_fraction` of the run as
    transient. When the fitted slope is not resolvably positive (fewer than
    two e-folds over the window, or smaller than three standard errors),
    the motion is classified stable and the returned rate is exactly 0 with
    converged=False. The fit's standard error, e-fold count and the largest
    norm drift are returned either way (see LyapunovEstimate). The kick and
    the interval are method constants (Benettin, Galgani, Giorgilli &
    Strelcyn, Meccanica 15, 9 (1980)), not inputs.

    J must be diagonal (XYZCouplings, a 3-vector or a diagonal 3x3 array).
    dt (default 5e-2/S) is an upper bound: each renormalisation interval
    takes the fewest equal steps no longer than dt (20 by default). The run
    covers round(T / (1/S)) intervals, at least 4.

    Raises IntegrationError when a per-site norm of the base or the twin
    drifts by more than NORM_DRIFT_TOL at a renormalisation, before the
    renormalisation can project the twin's drift away.
    Raises ValueError on an S, texture, J, dt or T that ll_evolve would reject,
    on T / (1/S) or (1/S) / dt overflowing, on more than MAX_STEPS steps in
    all, and on discard_fraction outside [0, 1).
    """
    check_spin_length(S)
    if T is None:
        T = 400.0 / S
    if dt is None:
        # measured against dt = 5e-3/S on the gate-08 points, the benettin
        # workload point and every unit-test case: the rate moves by less
        # than 1e-4 relative, stable cases stay unconverged, and base and
        # twin norm drift stay below 2e-13 on static and slowly rotating
        # bases (RK4 error ~ (w dt)^4, so a fast-moving base drifts more)
        dt = 5e-2 / S
    interval = 1.0 / S
    base = _checked_texture(initial, dt=dt, T=T)
    if not 0.0 <= discard_fraction < 1.0:
        raise ValueError(f"discard_fraction must lie in [0, 1), got {discard_fraction}")
    ring = _PaddedRing(len(base), 2, _coupling_diagonal(J))

    rng = np.random.default_rng(seed)
    tangent = rng.standard_normal(base.shape)
    # remove the radial component so the kick lives on the sphere
    tangent -= (np.sum(tangent * base, axis=1, keepdims=True)) * base
    tangent *= BENETTIN_KICK / np.linalg.norm(tangent)
    twin = base + tangent
    twin /= np.linalg.norm(twin, axis=1, keepdims=True)

    steps_per_block = _step_count("(1/S) / dt", interval, dt)
    n_blocks = max(4, int(round(_span_ratio("T / (1/S)", T, interval))))
    _check_step_budget(T, dt, float(n_blocks) * steps_per_block)
    dt_eff = interval / steps_per_block

    state = ring.pad(np.stack([base, twin]))
    block_times = np.empty(n_blocks)
    log_growth = np.empty(n_blocks)
    total_log = 0.0
    max_drift = 0.0
    for b in range(n_blocks):
        for _ in range(steps_per_block):
            state = _rk4_step(state, ring, S, dt_eff)
        pair = ring.unpad(state)
        block_times[b] = (b + 1) * interval
        max_drift = max(max_drift, _check_norm_drift(pair, block_times[b], dt_eff))
        sep = pair[1] - pair[0]
        dist = np.linalg.norm(sep)
        total_log += math.log(dist / BENETTIN_KICK)
        log_growth[b] = total_log
        pair[1] = pair[0] + sep * (BENETTIN_KICK / dist)
        pair[1] /= np.linalg.norm(pair[1], axis=1, keepdims=True)
        state = ring.pad(pair)

    start = int(discard_fraction * n_blocks)
    t_fit = block_times[start:]
    y_fit = log_growth[start:]
    design = np.column_stack([t_fit, np.ones_like(t_fit)])
    coef, res, *_ = np.linalg.lstsq(design, y_fit, rcond=None)
    slope = float(coef[0])
    dof = max(1, len(t_fit) - 2)
    resid_var = (res[0] / dof) if res.size else 0.0
    t_var = np.sum((t_fit - t_fit.mean()) ** 2)
    slope_se = math.sqrt(resid_var / t_var) if t_var > 0 else np.inf

    efolds = slope * float(t_fit[-1] - t_fit[0])
    converged = slope > 0 and efolds >= 2.0 and slope >= 3.0 * slope_se
    return LyapunovEstimate(
        slope if converged else 0.0,
        converged,
        block_times,
        log_growth,
        slope_se=slope_se,
        efolds=efolds,
        max_norm_drift=max_drift,
    )


def linearized_dynamics_matrix(frame: FrameData, S: float) -> np.ndarray:
    """Real generator T of the linearized dynamics about a stationary frame.

    In canonical coordinates (x_0..x_{L-1}, p_0..p_{L-1}) for the transverse
    frame displacements, d/dt (x, p) = T (x, p) with

        xdot_j = -w_j p_j + S (JR_{j-1}^xy x_{j-1} + JR_j^yx x_{j+1}
                               + JR_{j-1}^yy p_{j-1} + JR_j^yy p_{j+1})
        pdot_j = +w_j x_j - S (JR_{j-1}^xx x_{j-1} + JR_j^xx x_{j+1}
                               + JR_{j-1}^yx p_{j-1} + JR_j^xy p_{j+1})

    where w_j is the per-site precession frequency. The complex spin-wave
    generator shares its spectrum with i*T (quantum-classical equivalence),
    which is what the cross-checks assert.
    """
    JR = frame.JR
    L = frame.L
    _, omega = stationarity_residual(frame, S)
    idx = np.arange(L)
    prev = (idx - 1) % L
    nxt = (idx + 1) % L
    T = np.zeros((2 * L, 2 * L))
    T[idx, L + idx] = -omega
    T[L + idx, idx] = omega
    np.add.at(T, (idx, prev), S * JR[prev, 0, 1])
    np.add.at(T, (idx, nxt), S * JR[idx, 1, 0])
    np.add.at(T, (idx, L + prev), S * JR[prev, 1, 1])
    np.add.at(T, (idx, L + nxt), S * JR[idx, 1, 1])
    np.add.at(T, (L + idx, prev), -S * JR[prev, 0, 0])
    np.add.at(T, (L + idx, nxt), -S * JR[idx, 0, 0])
    np.add.at(T, (L + idx, L + prev), -S * JR[prev, 1, 0])
    np.add.at(T, (L + idx, L + nxt), -S * JR[idx, 0, 1])
    return T
