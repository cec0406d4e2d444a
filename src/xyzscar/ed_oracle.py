"""Exact dynamics of small spin-S XYZ rings.

Desk-scale ground truth for everything the semiclassical modules predict:
sparse many-body Hamiltonians gathered into an assembly pattern that digit
arithmetic on the basis index builds once per (2S+1, L, bond sparsity) and
caches, each entry summed in bond order; Bloch coherent product states
from the closed-form Wigner-d amplitudes, eigenstate verification of scar
textures, exact quench propagation by one dense eigendecomposition per
conserved sector (connected component of H), or by ``expm_multiply``
steps where a sector is too large for that to pay, and the exact contrast
against the classical trajectory. A transverse scar (kappa = 0) is evolved
in its twisted zero-momentum space, where each S^z_tot block holds at most
26 cyclic-orbit states at L = 10, S = 1/2, and its contrast is read from
S^z_tot and S^+_tot there; gtsh and glsh scars evolve the whole space and
read the contrast from one-site reduced density matrices.
Dimensions are capped at :data:`DIMENSION_CAP`, which covers L = 7 at S = 1
and L = 12 at S = 1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .scars import (
    ScarParams,
    bond_sum,
    coupling_matrix,
    helix_amplitudes,
    helix_texture,
    parent_couplings,
    scar_family,
    scar_phases,
    scar_quench,
    scar_texture,
    _check_ring,
    _require_commensurate,
    _twice_spin,
)
from .spinwave import ContrastSeries, _sample_times


def expm_multiply(A, v):
    """scipy.sparse.linalg.expm_multiply, imported at the first call: the
    stepping route alone pays for loading scipy.sparse.linalg."""
    from scipy.sparse.linalg import expm_multiply as scipy_expm_multiply

    return scipy_expm_multiply(A, v)


#: largest many-body dimension the dense/sparse routines will accept
DIMENSION_CAP = 4096
#: largest sector evolve_exact diagonalizes densely: the largest at which
#: eigh per sector was not slower than stepping (BENCH_16.json, "crossover")
SPECTRAL_SECTOR_MAX = 924
#: relative norm drift beyond which evolve_exact reports a failed propagation
NORM_DRIFT_TOL = 1e-10
#: weight the twisted zero-momentum projection of a scar state may lose
PROJECTION_TOL = 1e-12


@dataclass(frozen=True)
class SpinOperatorSet:
    """Spin-S matrices in the |S, m> basis ordered m = S, S-1, ..., -S."""

    Sx: np.ndarray
    Sy: np.ndarray
    Sz: np.ndarray

    @property
    def dim(self) -> int:
        return self.Sz.shape[0]


def spin_operators(S: float) -> SpinOperatorSet:
    """Build the spin-S operator triple.

    Satisfies [Sx, Sy] = i Sz (and cyclic) and the Casimir identity
    Sx^2 + Sy^2 + Sz^2 = S(S+1) I at machine precision.
    """
    dim = _twice_spin(S) + 1
    m = S - np.arange(dim)
    amp = np.sqrt(S * (S + 1.0) - m[1:] * (m[1:] + 1.0))
    s_plus = np.zeros((dim, dim), dtype=complex)
    s_plus[np.arange(dim - 1), np.arange(1, dim)] = amp
    s_minus = s_plus.conj().T
    return SpinOperatorSet(
        Sx=0.5 * (s_plus + s_minus),
        Sy=-0.5j * (s_plus - s_minus),
        Sz=np.diag(m).astype(complex),
    )


def coherent_state(omega, S: float) -> np.ndarray:
    """Spin-S Bloch coherent state pointing along the unit vector omega.

    The state is |S, S> rotated by the geodesic that takes the z axis onto
    omega = (sin t cos p, sin t sin p, cos t). In closed form its amplitude
    on |S, m>, with k = S - m, is the Wigner-d value

        sqrt(C(2S, k)) cos^(2S-k)(t/2) sin^k(t/2) e^(i k p).

    At a pole (|omega_xy| < 1e-12) the azimuth is taken as p = -pi/2, the
    rotation by t about x: +z gives |S, S> and -z gives (-i)^(2S) |S, -S>.
    The result satisfies <omega|S^a|omega> = S omega^a.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (3,):
        raise ValueError(f"omega must be a 3-vector, got shape {omega.shape}")
    return _coherent_amplitudes(omega[None, :], S)[0]


def _coherent_amplitudes(omegas: np.ndarray, S: float) -> np.ndarray:
    """Coherent-state amplitudes of each row of omegas (n, 3), shape (n, 2S+1)."""
    two_s = _twice_spin(S)
    norms = np.linalg.norm(omegas, axis=1)
    bad = ~(np.abs(norms - 1.0) <= 1e-6)
    if bad.any():
        raise ValueError(f"omega must be unit length, got |omega| = {norms[bad][0]}")
    omegas = omegas / norms[:, None]
    theta = np.arccos(np.clip(omegas[:, 2], -1.0, 1.0))
    at_pole = np.hypot(omegas[:, 0], omegas[:, 1]) < 1e-12
    phi = np.where(at_pole, -0.5 * math.pi, np.arctan2(omegas[:, 1], omegas[:, 0]))
    k = np.arange(two_s + 1)
    root_binomial = np.sqrt([float(math.comb(two_s, i)) for i in k])
    cos_half = np.cos(0.5 * theta)[:, None]
    sin_half = np.sin(0.5 * theta)[:, None]
    return (
        root_binomial
        * cos_half ** (two_s - k)
        * sin_half**k
        * np.exp(1j * k * phi[:, None])
    )


def product_state(texture, S: float) -> np.ndarray:
    """Tensor product of coherent states over the ring.

    Site 0 is the fastest-varying index of the amplitude vector: basis index
    n = sum_j k_j d^j for site j in |S, S - k_j>, so reshaped to (d, ..., d),
    site j is axis L - 1 - j.
    The sites' amplitudes come from :func:`coherent_state`'s closed form and
    are joined by outer products.
    """
    texture = np.asarray(texture, dtype=float)
    if texture.ndim != 2 or texture.shape[1] != 3:
        raise ValueError(f"texture must have shape (L, 3), got {texture.shape}")
    _check_dimension((_twice_spin(S) + 1) ** texture.shape[0])
    factors = _coherent_amplitudes(texture, S)[::-1]
    return functools.reduce(np.multiply.outer, factors).ravel()


@functools.lru_cache(maxsize=16)
def _bond_products(two_s: int) -> np.ndarray:
    """S^a (x) S^b for a, b in (x, y, z), shape (3, 3, d^2, d^2), read-only."""
    ops = spin_operators(two_s / 2.0)
    triple = (ops.Sx, ops.Sy, ops.Sz)
    products = np.array([[np.kron(sa, sb) for sb in triple] for sa in triple])
    products.flags.writeable = False
    return products


@dataclass(frozen=True)
class _RingPattern:
    """Where each stored entry of a ring Hamiltonian takes its value from.

    Fixed by (d, L, non-zero mask of the bond operator); the values come
    from the bond operator of each call. The arrays are read-only and held
    in the smallest unsigned dtype that fits.
    """

    #: CSR row pointer (dim + 1,) and column indices (nnz,), sorted
    indptr: np.ndarray
    indices: np.ndarray
    #: flat positions of the bond operator's non-zeros
    entries: np.ndarray
    #: (k, nnz) ids into ``entries`` of the terms summed into each stored
    #: entry, one row per term in bond order; id len(entries) stands
    #: for no term, and fills the rows of every diagonal entry
    ids: np.ndarray
    #: positions of the stored diagonal entries among the stored ones
    diag_slots: np.ndarray
    #: (L, len(diag_slots)) digit pairs d n_j + n_(j+1) of each state with
    #: a stored diagonal, one row per bond, in bond order
    pairs: np.ndarray


def _compact(values) -> np.ndarray:
    """Non-negative integers in the smallest unsigned dtype that holds them."""
    values = np.asarray(values)
    return values.astype(np.min_scalar_type(int(values.max(initial=0))))


@functools.lru_cache(maxsize=64)
def _ring_pattern(d: int, L: int, mask_bytes: bytes) -> _RingPattern:
    """Digit arithmetic of :func:`build_hamiltonian`, run once per key.

    Each non-zero (r, c) of the bond operator on bond (j, j+1) adds a term
    to the entries that take every basis index whose digits at (j, j+1)
    read c to the index with those two digits replaced by r. The terms are
    listed in bond order, and each entry sums its terms in that order, as
    the sum of kron-embedded bond terms does.
    """
    mask = np.frombuffer(mask_bytes, dtype=bool).reshape(d * d, d * d)
    dim = d**L
    n = np.arange(dim, dtype=np.int32)
    pairs = _compact([(n // d**j % d) * d + n // d ** ((j + 1) % L) % d for j in range(L)])
    out_pairs, in_pairs = np.nonzero(mask)
    # seeded with empty arrays so that a zero bond gives no terms
    rows, cols, ids = [n[:0]], [n[:0]], [n[:0]]
    for j in range(L):
        nxt = (j + 1) % L
        for e, (r, c) in enumerate(zip(out_pairs, in_pairs)):
            source = n[pairs[j] == c]
            rows.append(source + int((r // d - c // d) * d**j + (r % d - c % d) * d**nxt))
            cols.append(source)
            ids.append(np.full(source.size, e, dtype=np.int32))
    rows, cols, ids = (np.concatenate(a) for a in (rows, cols, ids))

    # stored entries in CSR order, and the stored entry of each term; the
    # keys are int64, as dim^2 passes 2^31 from dim = 46,341 on
    stored, slot = np.unique(rows.astype(np.int64) * dim + cols, return_inverse=True)
    stored_rows, indices = np.divmod(stored, dim)
    indptr = np.searchsorted(stored_rows, np.arange(dim + 1))
    diag_slots = np.flatnonzero(stored_rows == indices)

    # the off-diagonal terms grouped by stored entry, in bond order
    off = rows != cols
    order = np.argsort(slot[off], kind="stable")
    slot, ids = slot[off][order], ids[off][order]
    depth = np.arange(slot.size) - np.searchsorted(slot, slot)
    table = np.full((depth.max(initial=-1) + 1, stored.size), out_pairs.size)
    table[depth, slot] = ids

    pattern = _RingPattern(
        indptr=_compact(indptr),
        indices=_compact(indices),
        entries=_compact(np.flatnonzero(mask)),
        ids=_compact(table),
        diag_slots=_compact(diag_slots),
        pairs=pairs[:, stored_rows[diag_slots]],
    )
    for array in vars(pattern).values():
        array.flags.writeable = False
    return pattern


def build_hamiltonian(J, S: float, L: int) -> sparse.csr_matrix:
    """Sparse XYZ ring Hamiltonian H = sum_j sum_ab J_ab S^a_j S^b_{j+1}.

    Periodic boundaries; a two-site ring keeps both bonds, so each pair
    coupling appears twice there. J may be an XYZCouplings, a 3-vector of
    diagonal couplings, or a full 3x3 matrix.

    The d^2 x d^2 bond operator sum_ab J_ab S^a (x) S^b is formed first.
    Where its entries land in H, and which of them add up in one entry,
    depends only on d = 2S+1, L and which bond entries are non-zero. That
    assembly pattern is built once per key by digit arithmetic on the basis
    index and cached (64 keys); a call only gathers bond entries into it.
    A state's diagonal is the sum over bonds of the bond diagonal at the
    state's digit pair (n_j, n_{j+1}). Every sum runs in bond order, as the
    sum of kron-embedded bond terms does, so H is that sum to the bit except
    on a two-site ring with J_ab != J_ba: sums such as +-Jz/4 over twelve
    bonds cancel to exactly zero, and are dropped, where they do there. The
    returned H owns its arrays. No operator is embedded by kron.

    Raises
    ------
    ValueError
        if the many-body dimension (2S+1)^L exceeds :data:`DIMENSION_CAP`.
    """
    _check_ring(L)
    mat = coupling_matrix(J)
    two_s = _twice_spin(S)
    d = two_s + 1
    dim = d**L
    _check_dimension(dim)
    products = _bond_products(two_s)
    bond = sum(mat[a, b] * products[a, b] for a in range(3) for b in range(3))
    pattern = _ring_pattern(d, L, (bond != 0).tobytes())

    # one np.take per table on intp-cast indices, faster than fancy indexing
    # with the compact dtypes; a sum over axis 0 adds the rows in order
    values = np.append(np.take(bond, pattern.entries.astype(np.intp)), 0.0)
    data = np.take(values, pattern.ids.astype(np.intp)).sum(axis=0)
    data[pattern.diag_slots.astype(np.intp)] = np.take(
        np.diagonal(bond), pattern.pairs.astype(np.intp)
    ).sum(axis=0)

    H = sparse.csr_matrix(
        (data, pattern.indices.astype(np.int32), pattern.indptr.astype(np.int32)),
        shape=(dim, dim),
    )
    H.eliminate_zeros()
    return H


def _check_dimension(dim: int) -> None:
    if dim > DIMENSION_CAP:
        raise ValueError(
            f"many-body dimension {dim} exceeds the cap {DIMENSION_CAP}"
        )


def eigenstate_residual(p: ScarParams, J=None, H=None) -> float:
    """Relative eigenstate defect of the scar on its parent Hamiltonian.

    Builds |psi> = prod_j |Omega_j> from the texture, H from the parent
    couplings of (kappa, q), and the trial eigenvalue E = <psi|H|psi> as
    the classical bond energy, then returns ||H psi - E psi|| / |E|
    (absolute norm in the measure-zero case E = 0). Values at rounding
    level certify the texture as an exact eigenstate; detuning a coupling
    through J (an explicit XYZCouplings / 3-vector / 3x3 override) pushes
    the residual above 1e-3. H, when given, must be the Hamiltonian of J
    (of the parent couplings by default); it is used instead of building
    one, so a caller that needs H anyway builds it once.
    """
    _require_commensurate(p)
    if J is None:
        J = parent_couplings(p.kappa, p.q)
    texture = scar_texture(p)
    psi = product_state(texture, p.S)
    if H is None:
        H = build_hamiltonian(J, p.S, p.L)
    energy = p.S * p.S * bond_sum(texture, J)
    defect = float(np.linalg.norm(H @ psi - energy * psi))
    return defect / abs(energy) if abs(energy) > 1e-12 else defect


@dataclass(frozen=True)
class ExactEvolution:
    """States of an exact quench with the health of the propagation.

    states has shape (len(times), dim); hermiticity_defect is max |H - H^H|
    (at most 1e-10, or the run would have raised) and
    max_norm_drift the largest relative departure of a state's norm from
    ||psi0|| (at most NORM_DRIFT_TOL).
    """

    states: np.ndarray
    hermiticity_defect: float
    max_norm_drift: float


def evolve_exact(psi0, H, times) -> ExactEvolution:
    """Propagate psi0 under H to each of a grid of times.

    H is split into the connected components of its sparsity graph: the
    sectors of whatever its couplings conserve, such as the 2SL + 1
    magnetization sectors of an XXZ ring (the detuned transverse helix),
    the two spin-flip parity sectors of a diagonal XYZ ring (gtsh, glsh),
    or a single sector when J has off-diagonal entries. Sectors in which
    psi0 has no amplitude stay at zero.

    When every sector that carries weight of psi0 has at most
    :data:`SPECTRAL_SECTOR_MAX` states, each is diagonalized once by dense
    ``eigh`` (real when H is) and psi(t) = V exp(-i E t) V^H psi0 is formed
    for all times in one product. Otherwise the whole state is stepped from
    t = 0 through the times in ascending order, each step applying
    exp(-i H dt) with scipy's ``expm_multiply`` (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488 (2011)), whose per-step backward error stays below
    the double-precision unit roundoff 2^-53 and which forms only products
    H @ v. The route is read from the input alone. For scar quenches at
    T = 10 with 201 samples on one BLAS thread, eigh per sector was 2-6x
    faster up to sectors of 580 states, level at 924 (transverse L = 12,
    S = 1/2), up to 1.2x slower at 1,024 and 1,094 (the parity sectors of
    L = 11, S = 1/2 and L = 7, S = 1) and 4-5x slower at 2,048 (L = 12,
    S = 1/2). Stepping's cost grows with T, eigh's does not.

    The grid may be unsorted, repeat times or hold negative ones; the states
    come back in the order given, with shape (len(times), dim), together
    with the Hermiticity defect of H and the norm drift (ExactEvolution).
    H may be dense or sparse; it must be Hermitian to 1e-10.

    Raises
    ------
    ValueError
        for a non-Hermitian H, a dimension over :data:`DIMENSION_CAP`, or
        an H whose shape does not match psi0.
    RuntimeError
        if a returned state's norm departs from ||psi0|| by more than
        :data:`NORM_DRIFT_TOL` relative.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    H = sparse.csr_matrix(H)
    _check_dimension(H.shape[0])
    if H.shape != (psi0.size, psi0.size):
        raise ValueError(f"H has shape {H.shape}, state has dimension {psi0.size}")
    herm_defect = _hermiticity_defect(H)

    weighted = [s for s in _sectors(H) if np.any(psi0[s])]
    if all(s.size <= SPECTRAL_SECTOR_MAX for s in weighted):
        if not H.data.imag.any():
            H = H.real
        states = np.zeros((times.size, psi0.size), dtype=complex)
        for s in weighted:
            evals, vecs = np.linalg.eigh(H[s][:, s].toarray())
            # (n, len(times)) amplitudes exp(-i E t) V^H psi0 in the eigenbasis
            amps = np.exp(-1j * np.outer(evals, times)) * (vecs.conj().T @ psi0[s])[:, None]
            if vecs.dtype == float:
                # a real V acts on the (re, im) pairs in one real product
                states[:, s] = (vecs @ amps.view(float)).view(complex).T
            else:
                states[:, s] = (vecs @ amps).T
    else:
        generator = -1j * H
        states = np.empty((times.size, psi0.size), dtype=complex)
        psi, t_prev = psi0, 0.0
        for k in np.argsort(times, kind="stable"):
            psi = expm_multiply(generator * (times[k] - t_prev), psi)
            states[k] = psi
            t_prev = times[k]

    drift = _norm_drift(states, psi0)
    if not drift <= NORM_DRIFT_TOL:
        raise RuntimeError(
            f"exact propagation lost the norm: relative drift {drift:.2e} "
            f"exceeds {NORM_DRIFT_TOL:.0e}"
        )
    return ExactEvolution(states, herm_defect, drift)


def _hermiticity_defect(H: sparse.csr_matrix) -> float:
    """max |H - H^H|; ValueError above 1e-10."""
    defect = float(abs(H - H.conj().T).max())
    if defect > 1e-10:
        raise ValueError(f"H is not Hermitian: defect {defect:.2e}")
    return defect


def _sectors(H: sparse.csr_matrix) -> list[np.ndarray]:
    """Basis indices of each connected component of H's sparsity graph."""
    from scipy.sparse.csgraph import connected_components

    pattern = sparse.csr_matrix(
        (np.ones(H.indices.size), H.indices, H.indptr), shape=H.shape
    )
    n_sectors, labels = connected_components(pattern, directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=n_sectors))[:-1])


def _norm_drift(states: np.ndarray, psi0: np.ndarray) -> float:
    """Largest relative departure of the rows' norms from ||psi0||."""
    norm0 = float(np.linalg.norm(psi0))
    deviation = float(np.abs(np.linalg.norm(states, axis=1) - norm0).max(initial=0.0))
    return deviation / norm0 if norm0 > 0.0 else deviation


def _trajectory(p: ScarParams, omega: float, times: np.ndarray) -> np.ndarray:
    """Closed-form classical textures Omega_j(t), shape (nt, L, 3).

    Each scar with a closed form moves rigidly about z:
    Omega_j(t) = helix_texture(kappa, gamma, u_j - omega t), with the
    scar's phases u_j = q j + phi (scars.scar_phases), at the rate omega
    that scar_quench gives (for the transverse helix it was checked against
    the Landau-Lifshitz integrator to 1e-14).
    """
    phases = scar_phases(p)[None, :] - omega * times[:, None]
    return helix_texture(p.kappa, p.gamma, phases)


def _site_expectations(states: np.ndarray, S: float, L: int) -> np.ndarray:
    """<S^a_j> in each row of states (n, d^L), shape (n, L, 3).

    Site j's one-site reduced density matrix rho_j = tr_{others} |psi><psi|
    comes from one batched matmul over the (n, d, ..., d) state tensor, in
    which site j is axis L - j, and <S^a_j> = Re tr(S^a rho_j).
    """
    ops = spin_operators(S)
    spins = np.stack([ops.Sx, ops.Sy, ops.Sz])
    n = len(states)
    tensor = states.reshape((n,) + (ops.dim,) * L)
    out = np.empty((n, L, 3))
    for j in range(L):
        kets = np.moveaxis(tensor, L - j, 1).reshape(n, ops.dim, -1)
        rho = kets @ kets.conj().transpose(0, 2, 1)
        out[:, j] = np.einsum("aik,tki->ta", spins, rho).real
    return out


def _zero_momentum_orbits(d: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Digits k_j(n), shape (L, d^L), and the id of the cyclic orbit of
    each basis index n, ids ordered by the orbits' smallest members."""
    n = np.arange(d**L)
    digits = n // d ** np.arange(L)[:, None] % d
    smallest, rotated = n.copy(), n
    for _ in range(L - 1):
        # the digit string moved one site along the ring
        rotated = rotated // d + rotated % d * d ** (L - 1)
        np.minimum(smallest, rotated, out=smallest)
    return digits, np.unique(smallest, return_inverse=True)[1]


def _generic_contrast(p: ScarParams, H, psi0: np.ndarray, omega: float, times: np.ndarray):
    """(D, hermiticity defect, norm drift) of psi0 quenched by H in the whole
    d^L space, <S^a_j> read from one-site reduced density matrices."""
    evolution = evolve_exact(psi0, H, times)
    D = np.einsum(
        "tja,tja->t",
        _trajectory(p, omega, times),
        _site_expectations(evolution.states, p.S, p.L),
    ) / (p.L * p.S)
    return D, evolution.hermiticity_defect, evolution.max_norm_drift


def _twisted_contrast(p: ScarParams, H, psi0: np.ndarray, omega: float, times: np.ndarray):
    """(D, hermiticity defect, norm drift) of a transverse scar's psi0
    quenched by H, from its twisted zero-momentum space alone.

    With the scar's phases u_j = q j + phi (scars.scar_phases),
    U = prod_j exp(i u_j (S - S^z_j)) maps the uniform tilted product state
    onto the scar state psi0, and the detuned XXZ ring onto a
    translation-invariant one (e^(iqL) = 1). So psi(t) stays in the
    span of the orthonormal columns P_(n,r) = e^(i sum_j u_j k_j(n)) /
    sqrt|O_r|, n in the cyclic orbit O_r of digit strings, k_j = S - m_j.
    c0 = P^H psi0 evolves under H_red = P^H H P by evolve_exact, whose
    sectors are then the S^z_tot blocks. U^H A U = S^+_tot for
    A = sum_j e^(-i u_j) S^+_j, and the trajectory is
    (sin theta cos, sin theta sin, cos theta)(u_j - omega t), so

        D(t) = [gamma <S^z_tot> + sin theta Re(e^(i omega t) <A>)] / (L S)

    with both expectations read from c(t) in the orbit states. The
    hermiticity defect is that of the full quenched H.
    """
    herm_defect = _hermiticity_defect(H)

    d = _twice_spin(p.S) + 1
    digits, orbit = _zero_momentum_orbits(d, p.L)
    size = np.bincount(orbit)
    twist = np.exp(1j * (scar_phases(p) @ digits))
    P = sparse.csr_matrix(
        (twist / np.sqrt(size[orbit]), (np.arange(orbit.size), orbit)),
        shape=(orbit.size, size.size),
    )
    P_dag = P.conj().T.tocsr()
    c0 = P_dag @ psi0
    lost = abs(float(np.linalg.norm(c0)) - float(np.linalg.norm(psi0)))
    if lost > PROJECTION_TOL:
        raise RuntimeError(
            f"the twisted zero-momentum projection lost weight: "
            f"| ||c0|| - ||psi0|| | = {lost:.2e} exceeds {PROJECTION_TOL:.0e}"
        )
    evolution = evolve_exact(c0, P_dag @ H @ P, times)
    c = evolution.states

    # S^z_tot of each orbit, and S^+_tot between the orbit states: lowering
    # digit k_j of n takes it to n - d^j with the S^+ amplitude of m = S - k_j
    sz = np.empty(size.size)
    sz[orbit] = p.L * p.S - digits.sum(axis=0)
    site, source = np.nonzero(digits)
    m = p.S - digits[site, source]
    target = orbit[source - d**site]
    raising = sparse.csr_matrix(
        (
            np.sqrt(p.S * (p.S + 1.0) - m * (m + 1.0))
            / np.sqrt(size[target] * size[orbit[source]]),
            (target, orbit[source]),
        ),
        shape=(size.size, size.size),
    )
    raised = np.einsum("tr,tr->t", c.conj(), (raising @ c.T).T)
    sin_theta, _ = helix_amplitudes(0.0, p.gamma)
    D = (
        p.gamma * (np.abs(c) ** 2 @ sz)
        + sin_theta * np.real(np.exp(1j * omega * times) * raised)
    ) / (p.L * p.S)
    return D, herm_defect, evolution.max_norm_drift


def contrast_exact(
    p: ScarParams,
    delta: float,
    T: float = 10.0,
    n_samples: int = 201,
) -> ContrastSeries:
    """Exact contrast D(t) of a detuned quench from the scar.

    The scar state evolves under the parent Hamiltonian with one coupling
    detuned by `delta` (Jz for the transverse and gtsh families, Jx for
    glsh), and the contrast projects each evolved spin onto the classical
    trajectory:

        D(t) = (1 / L S) sum_j <psi(t)| Omega_j(t) . S_j |psi(t)>.

    J, the trajectory's rate omega (scars.scar_quench), the scar state psi0
    and the quenched H are formed once. The family follows from the
    parameters (scars.scar_family): transverse for kappa = 0, gtsh/glsh for
    gamma = 0/1; any other (kappa, gamma) has no closed-form trajectory and
    raises ValueError. The family picks the readout; both take (p, H, psi0,
    omega, times). A transverse scar evolves in its twisted zero-momentum
    space (_twisted_contrast): 108 orbit states instead of 1,024 at L = 10,
    S = 1/2. gtsh and glsh evolve the whole space and read <S^a_j>(t) from
    one-site reduced density matrices of the evolved state
    (_generic_contrast), the readout that is the other's oracle. The series
    carries the largest relative norm drift of the evolved states as
    max_norm_drift, and the Hermiticity defect max |H - H^H| of the
    quenched Hamiltonian as hermiticity_defect.
    """
    times = _sample_times(T, n_samples)
    family = scar_family(p.kappa, p.gamma)
    _require_commensurate(p)
    J, omega = scar_quench(p, delta)
    psi0 = product_state(scar_texture(p), p.S)
    H = build_hamiltonian(J, p.S, p.L)
    route = _twisted_contrast if family == "transverse" else _generic_contrast
    D, herm_defect, drift = route(p, H, psi0, omega, times)
    return ContrastSeries(
        times=times,
        D=D,
        f=p.S * (1.0 - D),
        max_norm_drift=drift,
        hermiticity_defect=herm_defect,
    )
