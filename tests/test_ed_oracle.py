import math
from functools import reduce

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from xyzscar import ed_oracle as ed
from xyzscar import rotframe, scars, spinwave
from xyzscar.elliptic import complete_K, jacobi_sncndn

THETA = math.pi / 4
GAMMA = math.cos(THETA)


def transverse_params(L=6, M=1, S=1.0, gamma=GAMMA):
    return scars.ScarParams.commensurate(0.0, M, L, gamma=gamma, S=S)


def site_operator(op, j, L):
    """Single-site matrix op at site j of an L-site chain, embedded by kron
    with site 0 the fastest-varying index."""
    d = op.shape[0]
    left = sparse.identity(d ** (L - 1 - j), format="csr")
    right = sparse.identity(d**j, format="csr")
    return sparse.kron(left, sparse.kron(sparse.csr_matrix(op), right), format="csr")


def translation_operator(S, L):
    """Cyclic one-site translation: the content of site j moves to j+1."""
    d = int(round(2 * S)) + 1
    dim = d**L
    n = np.arange(dim)
    digits = (n[:, None] // d ** np.arange(L)[None, :]) % d
    target = np.roll(digits, 1, axis=1) @ (d ** np.arange(L))
    return sparse.csr_matrix((np.ones(dim), (target, n)), shape=(dim, dim), dtype=float)


def reference_kron_hamiltonian(J, S, L):
    """H = sum_j sum_ab J_ab S^a_j S^b_{j+1} summed from kron-embedded site
    operators: the assembly that build_hamiltonian's digit arithmetic
    replaced, kept as its oracle."""
    mat = scars.coupling_matrix(J)
    ops = ed.spin_operators(S)
    dim = ops.dim**L
    embedded = [
        [site_operator(c, j, L) for c in (ops.Sx, ops.Sy, ops.Sz)]
        for j in range(L)
    ]
    H = sparse.csr_matrix((dim, dim), dtype=complex)
    for j in range(L):
        nxt = (j + 1) % L
        for a in range(3):
            for b in range(3):
                if mat[a, b] != 0.0:
                    H = H + mat[a, b] * (embedded[j][a] @ embedded[nxt][b])
    return H.tocsr()


def reference_expm_coherent_state(omega, S):
    """|S, S> rotated by exp(-i theta n.S) about the axis z x omega, by a
    dense matrix exponential (rotation about x at the poles): the route that
    coherent_state's closed form replaced, kept as its oracle."""
    omega = np.asarray(omega, dtype=float)
    omega = omega / np.linalg.norm(omega)
    ops = ed.spin_operators(S)
    theta = math.acos(max(-1.0, min(1.0, omega[2])))
    axis = np.array([-omega[1], omega[0], 0.0])
    axis_norm = float(np.linalg.norm(axis))
    if axis_norm < 1e-12:
        if theta < 1e-12:
            psi = np.zeros(ops.dim, dtype=complex)
            psi[0] = 1.0
            return psi
        axis = np.array([1.0, 0.0, 0.0])
    else:
        axis = axis / axis_norm
    return expm(-1j * theta * (axis[0] * ops.Sx + axis[1] * ops.Sy))[:, 0]


def reference_eigh_evolve(psi0, H, times, eig=None):
    """States exp(-i H t) psi0 from one dense eigendecomposition of the
    whole H, blind to its sectors: the oracle of both evolve_exact routes,
    eigh per sector and expm_multiply stepping. eig, when given, is that
    decomposition (evals, vecs), computed once for several calls."""
    if eig is None:
        eig = np.linalg.eigh(H.toarray() if sparse.issparse(H) else np.asarray(H))
    evals, vecs = eig
    coeffs = vecs.conj().T @ np.asarray(psi0, dtype=complex)
    phases = np.exp(-1j * np.outer(np.atleast_1d(times), evals))
    return (phases * coeffs) @ vecs.T


def reference_site_expectations(states, S, L):
    """<S^a_j> of each row of states from the 3L kron-embedded sparse site
    operators: the loop that the reduced-density route replaced, kept as
    its oracle."""
    ops = ed.spin_operators(S)
    kets = np.asarray(states).T
    out = np.empty((kets.shape[1], L, 3))
    for j in range(L):
        for a, component in enumerate((ops.Sx, ops.Sy, ops.Sz)):
            op = site_operator(component, j, L)
            out[:, j, a] = np.einsum("dt,dt->t", kets.conj(), op @ kets).real
    return out


def reference_trajectory(p, family, delta, times):
    """The per-family closed forms of the classical trajectory that
    helix_texture replaced: the transverse helix precessing about z at
    omega = -2 S cos(theta) delta, and gtsh/glsh at rest."""
    j = np.arange(p.L)
    if family in ("gtsh", "glsh"):
        sn, cn, dn = jacobi_sncndn(p.q * j + p.phi, p.kappa)
        if family == "gtsh":
            static = np.column_stack([cn, sn, np.zeros(p.L)])
        else:
            static = np.column_stack([np.zeros(p.L), p.kappa * sn, dn])
        return np.broadcast_to(static, (times.size, p.L, 3))
    cos_theta = p.gamma
    sin_theta = math.sqrt(1.0 - cos_theta**2)
    omega = -2.0 * p.S * cos_theta * delta
    phis = p.q * j[None, :] + p.phi - omega * times[:, None]
    return np.stack(
        [sin_theta * np.cos(phis), sin_theta * np.sin(phis), np.full(phis.shape, cos_theta)],
        axis=-1,
    )


# distinct (J, S, L) of gate 01's sweep: H depends on kappa, q, S and L only
SWEEP_HAMILTONIANS = [
    (kappa, q, S, L)
    for kappa in (0.0, 0.5, 0.9)
    for S in (0.5, 1.0)
    for L in range(2, 13)
    if (int(round(2 * S)) + 1) ** L <= ed.DIMENSION_CAP
    for _, q in scars.commensurate_q(kappa, L)
]
FULL_COUPLING = np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 0.5]])
# J_ab != J_ba tells S^a_j S^b_{j+1} from S^b_j S^a_{j+1}
ASYMMETRIC_COUPLING = np.array([[1.0, 0.3, 0.0], [-0.1, 0.8, 0.2], [0.0, 0.05, 0.5]])


class TestSpinOperators:
    @pytest.mark.parametrize("S", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_commutators_and_casimir(self, S):
        ops = ed.spin_operators(S)
        pairs = [
            (ops.Sx, ops.Sy, ops.Sz),
            (ops.Sy, ops.Sz, ops.Sx),
            (ops.Sz, ops.Sx, ops.Sy),
        ]
        for a, b, c in pairs:
            assert np.abs(a @ b - b @ a - 1j * c).max() <= 1e-12
        casimir = ops.Sx @ ops.Sx + ops.Sy @ ops.Sy + ops.Sz @ ops.Sz
        assert np.abs(casimir - S * (S + 1) * np.eye(ops.dim)).max() <= 1e-12

    def test_half_spin_is_pauli_over_two(self):
        ops = ed.spin_operators(0.5)
        np.testing.assert_allclose(ops.Sx, np.array([[0, 0.5], [0.5, 0]]))
        np.testing.assert_allclose(ops.Sz, np.diag([0.5, -0.5]))

    def test_ordering_highest_weight_first(self):
        ops = ed.spin_operators(1.5)
        np.testing.assert_allclose(np.diag(ops.Sz).real, [1.5, 0.5, -0.5, -1.5])

    @pytest.mark.parametrize("S", [0.0, -1.0, 0.7, math.inf, math.nan])
    def test_rejects_bad_spin(self, S):
        with pytest.raises(ValueError, match="2S"):
            ed.spin_operators(S)


class TestCoherentState:
    def test_north_pole_is_highest_weight(self):
        psi = ed.coherent_state([0.0, 0.0, 1.0], 2.0)
        expected = np.zeros(5)
        expected[0] = 1.0
        np.testing.assert_array_equal(psi, expected)

    def test_equator_half_spin(self):
        psi = ed.coherent_state([1.0, 0.0, 0.0], 0.5)
        overlap = abs(np.vdot(psi, np.array([1.0, 1.0]) / math.sqrt(2)))
        assert abs(overlap - 1.0) <= 1e-12

    def test_south_pole_convention(self):
        psi = ed.coherent_state([0.0, 0.0, -1.0], 1.5)
        assert abs(abs(psi[-1]) - 1.0) <= 1e-12
        assert np.abs(psi[:-1]).max() <= 1e-12

    @pytest.mark.parametrize("S", [0.5, 1.0, 2.0])
    def test_expectation_reproduces_direction(self, S):
        rng = np.random.default_rng(11)
        ops = ed.spin_operators(S)
        for _ in range(6):
            omega = rng.normal(size=3)
            omega /= np.linalg.norm(omega)
            psi = ed.coherent_state(omega, S)
            for axis, op in enumerate((ops.Sx, ops.Sy, ops.Sz)):
                value = float(np.vdot(psi, op @ psi).real)
                assert abs(value / S - omega[axis]) <= 1e-10

    @pytest.mark.parametrize("S", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_matches_expm_reference(self, S):
        """The closed form against the dense rotation to 1e-13: random
        directions, both poles, and |omega_xy| = 1e-13 and 1e-11 beside
        each pole, at several azimuths."""
        rng = np.random.default_rng(23)
        directions = [rng.normal(size=3) for _ in range(8)]
        for z in (1.0, -1.0):
            directions.append(np.array([0.0, 0.0, z]))
            for rho in (1e-13, 1e-11):
                for azimuth in (0.0, 1.0, -2.5):
                    xy = rho * np.array([math.cos(azimuth), math.sin(azimuth)])
                    directions.append(np.array([xy[0], xy[1], z * math.sqrt(1.0 - rho**2)]))
        for omega in directions:
            omega = omega / np.linalg.norm(omega)
            got = ed.coherent_state(omega, S)
            ref = reference_expm_coherent_state(omega, S)
            assert np.abs(got - ref).max() <= 1e-13, omega

    def test_pole_phases(self):
        """+z is |S, S> exactly; -z is (-i)^(2S) |S, -S>."""
        for S in (0.5, 1.0, 1.5, 2.0):
            north = ed.coherent_state([0.0, 0.0, 1.0], S)
            assert north[0] == 1.0 and np.all(north[1:] == 0.0)
            south = ed.coherent_state([0.0, 0.0, -1.0], S)
            assert abs(south[-1] - (-1j) ** int(2 * S)) <= 1e-15
            assert np.abs(south[:-1]).max() <= 1e-15

    @pytest.mark.parametrize(
        "omega", [[math.nan, 0.0, 1.0], [0.0, math.inf, 0.0], [math.nan] * 3]
    )
    def test_rejects_non_finite_direction(self, omega):
        with pytest.raises(ValueError, match="unit length"):
            ed.coherent_state(omega, 1.0)
        with pytest.raises(ValueError, match="unit length"):
            ed.product_state([[0.0, 0.0, 1.0], omega], 1.0)

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError, match="unit length"):
            ed.coherent_state([0.0, 0.0, 2.0], 1.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3-vector"):
            ed.coherent_state([1.0, 0.0], 1.0)


class TestProductAndSiteOperators:
    def test_product_state_site_expectations(self):
        p = transverse_params(L=5, S=1.0)
        texture = scars.scar_texture(p)
        psi = ed.product_state(texture, 1.0)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10
        ops = ed.spin_operators(1.0)
        for j in range(5):
            for axis, op in enumerate((ops.Sx, ops.Sy, ops.Sz)):
                full = site_operator(op, j, 5)
                value = float(np.vdot(psi, full @ psi).real)
                assert abs(value - texture[j, axis]) <= 1e-10

    @pytest.mark.parametrize("S, L", [(0.5, 2), (0.5, 9), (1.0, 5), (2.5, 3)])
    def test_product_state_matches_kron_of_expm_states(self, S, L):
        """Outer products of closed-form states against the kron chain of
        the dense-rotation states, site 0 fastest-varying."""
        rng = np.random.default_rng(29)
        texture = rng.normal(size=(L, 3))
        texture /= np.linalg.norm(texture, axis=1, keepdims=True)
        texture[0] = [0.0, 0.0, -1.0]
        ref = reduce(
            np.kron, [reference_expm_coherent_state(texture[j], S) for j in reversed(range(L))]
        )
        assert np.abs(ed.product_state(texture, S) - ref).max() <= 1e-13

    @pytest.mark.parametrize("S, L", [(0.5, 2), (0.5, 7), (1.0, 2), (1.0, 5), (1.5, 3)])
    def test_site_expectations_match_sparse_operators(self, S, L):
        """One-site reduced density matrices give every <S^a_j> of random
        states as the kron-embedded sparse operators do."""
        dim = (int(round(2 * S)) + 1) ** L
        rng = np.random.default_rng(17)
        states = rng.normal(size=(9, dim)) + 1j * rng.normal(size=(9, dim))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        got = ed._site_expectations(states, S, L)
        ref = reference_site_expectations(states, S, L)
        assert got.shape == (9, L, 3)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            ed.product_state(np.tile([0.0, 0.0, 1.0], (13, 1)), 0.5)


class TestBuildHamiltonian:
    def test_two_site_ising_ring_by_hand(self):
        """A 2-ring keeps both bonds, so H = 2 Jz Sz Sz with eigenvalues
        +-1/2, each doubly degenerate."""
        H = ed.build_hamiltonian((0.0, 0.0, 1.0), 0.5, 2).toarray()
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(H)), [-0.5, -0.5, 0.5, 0.5], atol=1e-14
        )

    def test_zero_couplings_zero_hamiltonian(self):
        for S, L in [(1.0, 3), (0.5, 2), (1.5, 2)]:
            H = ed.build_hamiltonian((0.0, 0.0, 0.0), S, L)
            assert H.nnz == 0

    @pytest.mark.parametrize(
        "J, S, L",
        [
            (FULL_COUPLING, 0.5, 4),
            (FULL_COUPLING, 1.0, 3),
            (FULL_COUPLING, 1.5, 2),
            (ASYMMETRIC_COUPLING, 0.5, 5),
            (ASYMMETRIC_COUPLING, 1.0, 2),
            ((0.7, 1.0, 0.4), 0.5, 2),
            ((0.7, 1.0, 0.4), 1.0, 2),
            ((0.7, 1.0, 0.4), 1.5, 2),
            ((0.9, 1.0, 0.35), 1.5, 3),
            ((0.0, 0.0, 0.0), 1.0, 2),
        ],
    )
    def test_matches_kron_reference(self, J, S, L):
        H = ed.build_hamiltonian(J, S, L)
        ref = reference_kron_hamiltonian(J, S, L)
        assert H.shape == ref.shape
        assert np.abs((H - ref).toarray()).max(initial=0.0) <= 1e-14
        assert np.all(H.data != 0.0)  # no explicit zeros stored

    @pytest.mark.parametrize("S", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("L", [2, 3, 5])
    @pytest.mark.parametrize(
        "J", [(0.7, 1.0, 0.4), ASYMMETRIC_COUPLING, (0.0, 0.0, 0.0)],
        ids=["diagonal", "full", "zero"],
    )
    def test_cached_pattern_matches_kron_reference(self, J, S, L):
        """Built twice, from a cold and from a warm cache: both equal the
        kron assembly to 1e-14, and to the bit except on the asymmetric
        two-site ring. There both bonds join the same two sites, so one
        entry takes an (a, b) term from each bond; the kron sum adds each
        (a, b) term to the running total, while the bond operator first
        sums a bond's terms, and the two orders may round apart."""
        ed._ring_pattern.cache_clear()
        ref = reference_kron_hamiltonian(J, S, L)
        ref.sort_indices()
        bitwise = not (L == 2 and J is ASYMMETRIC_COUPLING)
        for _ in range(2):
            H = ed.build_hamiltonian(J, S, L)
            assert np.abs((H - ref).toarray()).max(initial=0.0) <= 1e-14
            if bitwise:
                assert np.array_equal(H.indptr, ref.indptr)
                assert np.array_equal(H.indices, ref.indices)
                assert np.array_equal(H.data, ref.data)
        assert ed._ring_pattern.cache_info().hits >= 1

    def test_sweep_matches_kron_reference_bit_for_bit(self):
        """Gate 01's Hamiltonians, plain and detuned in Jz and in Jx: same
        nnz, indices and data bits as the kron assembly. Diagonal sums such
        as (+-Jz/4) over twelve bonds cancel to exactly zero only in some
        orders, so this pins bond order."""
        assert len(SWEEP_HAMILTONIANS) == 45
        for kappa, q, S, L in SWEEP_HAMILTONIANS:
            parent = scars.parent_couplings(kappa, q)
            for J in (parent, parent.detuned(dJz=0.03), parent.detuned(dJx=-0.02)):
                H, ref = ed.build_hamiltonian(J, S, L), reference_kron_hamiltonian(J, S, L)
                ref.sort_indices()
                assert H.nnz == ref.nnz, (kappa, q, S, L)
                assert np.array_equal(H.indptr, ref.indptr)
                assert np.array_equal(H.indices, ref.indices)
                assert np.array_equal(H.data, ref.data)

    def test_shared_key_different_couplings(self):
        """Two couplings with one non-zero pattern share a cached pattern and
        still give their own Hamiltonians."""
        first, second = (0.7, 1.0, 0.4), (0.9, 1.0, 0.35)
        ed.build_hamiltonian(first, 1.0, 4)
        hits = ed._ring_pattern.cache_info().hits
        H1 = ed.build_hamiltonian(first, 1.0, 4)
        H2 = ed.build_hamiltonian(second, 1.0, 4)
        assert ed._ring_pattern.cache_info().hits == hits + 2
        for J, H in ((first, H1), (second, H2)):
            ref = reference_kron_hamiltonian(J, 1.0, 4)
            assert np.abs((H - ref).toarray()).max() <= 1e-14
        assert np.abs((H1 - H2).toarray()).max() > 0.1

    def test_returned_arrays_are_owned(self):
        """Writing into one H's arrays leaves the cached pattern, and so the
        next build, untouched."""
        J = (0.9, 1.0, 0.35)
        H = ed.build_hamiltonian(J, 0.5, 6)
        expected = H.copy()
        H.data[:] = 0.0
        H.indices[:] = 0
        H.indptr[1:] = 0
        again = ed.build_hamiltonian(J, 0.5, 6)
        assert np.array_equal(again.indptr, expected.indptr)
        assert np.array_equal(again.indices, expected.indices)
        assert np.array_equal(again.data, expected.data)

    def test_pattern_cache_is_compact(self, monkeypatch):
        """Gate 01's 45 Hamiltonians need 22 patterns, which hold at most
        2 MB, all read-only."""
        cached = ed._ring_pattern
        cached.cache_clear()
        patterns = {}

        def recording(*key):
            patterns[key] = cached(*key)
            return patterns[key]

        monkeypatch.setattr(ed, "_ring_pattern", recording)
        for kappa, q, S, L in SWEEP_HAMILTONIANS:
            ed.build_hamiltonian(scars.parent_couplings(kappa, q), S, L)
        assert len(patterns) == cached.cache_info().currsize == 22
        arrays = [a for p in patterns.values() for a in vars(p).values()]
        assert not any(a.flags.writeable for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 2e6

    def test_pattern_keys_do_not_wrap(self, monkeypatch):
        """L = 10 at S = 1 has 59,049 states, past the 46,340 from which a
        key rows * dim + cols passes 2^31. The Ising ring's H there is its
        exact diagonal sum_j m_j m_(j+1), and nothing else."""
        monkeypatch.setattr(ed, "DIMENSION_CAP", 3**10)
        H = ed.build_hamiltonian((0.0, 0.0, 1.0), 1.0, 10)
        m = 1 - np.arange(3**10) // 3 ** np.arange(10)[:, None] % 3
        diagonal = (m * np.roll(m, -1, axis=0)).sum(axis=0).astype(float)
        assert np.array_equal(H.diagonal(), diagonal)
        assert H.nnz == np.count_nonzero(diagonal)
        rows = np.repeat(np.arange(3**10), np.diff(H.indptr))
        assert np.array_equal(H.indices, rows)

    def test_hermiticity(self):
        H = ed.build_hamiltonian((0.9, 1.0, 0.35), 1.0, 5)
        assert np.abs((H - H.conj().T).toarray()).max() <= 1e-12

    def test_translation_symmetry(self):
        H = ed.build_hamiltonian((0.7, 1.0, 0.4), 0.5, 6)
        T = translation_operator(0.5, 6)
        assert np.abs((H @ T - T @ H).toarray()).max() <= 1e-12

    def test_translation_is_permutation(self):
        T = translation_operator(1.0, 3)
        assert np.abs((T @ T.conj().T - sparse.identity(27)).toarray()).max() == 0.0

    def test_full_matrix_coupling_accepted(self):
        mat = np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 0.5]])
        H = ed.build_hamiltonian(mat, 0.5, 4)
        assert np.abs((H - H.conj().T).toarray()).max() <= 1e-12

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            ed.build_hamiltonian((1.0, 1.0, 0.5), 0.5, 13)

    def test_rejects_single_site(self):
        with pytest.raises(ValueError, match="two sites"):
            ed.build_hamiltonian((1.0, 1.0, 0.5), 0.5, 1)


class TestEigenstateResidual:
    @pytest.mark.parametrize("S", [0.5, 1.0])
    def test_transverse_scar_is_exact(self, S):
        p = transverse_params(S=S)
        assert ed.eigenstate_residual(p) <= 1e-10

    @pytest.mark.parametrize("kappa,gamma", [(0.5, 0.0), (0.9, 0.7071), (0.9, 1.0)])
    def test_elliptic_scars_are_exact(self, kappa, gamma):
        p = scars.ScarParams.commensurate(kappa, 1, 6, gamma=gamma, S=1.0)
        assert ed.eigenstate_residual(p) <= 1e-10

    def test_phase_offset_still_exact(self):
        p = scars.ScarParams.commensurate(0.5, 1, 6, gamma=0.3, S=1.0, phi=0.8)
        assert ed.eigenstate_residual(p) <= 1e-10

    def test_energy_matches_density(self):
        p = scars.ScarParams.commensurate(0.9, 1, 5, gamma=0.7071, S=1.0)
        texture = scars.scar_texture(p)
        psi = ed.product_state(texture, p.S)
        H = ed.build_hamiltonian(scars.parent_couplings(p.kappa, p.q), p.S, p.L)
        per_site = float(np.vdot(psi, H @ psi).real) / p.L
        target = scars.energy_density(p.kappa, p.q, p.S)
        assert abs(per_site - target) <= 1e-9 * abs(target)

    def test_detuned_coupling_breaks_eigenstate(self):
        p = transverse_params()
        J = scars.parent_couplings(p.kappa, p.q).detuned(dJz=0.03)
        assert ed.eigenstate_residual(p, J=J) > 1e-3

    def test_given_hamiltonian_is_used_as_built(self, monkeypatch):
        """A passed H gives the same bits and builds nothing."""
        for p, J in [
            (scars.ScarParams.commensurate(0.9, 1, 5, gamma=0.7071, S=1.0), None),
            (transverse_params(), scars.XYZCouplings(1.0, 1.0, 0.53)),
        ]:
            J_H = scars.parent_couplings(p.kappa, p.q) if J is None else J
            H = ed.build_hamiltonian(J_H, p.S, p.L)
            expected = ed.eigenstate_residual(p, J=J)
            with monkeypatch.context() as patch:
                patch.setattr(ed, "build_hamiltonian", None)
                assert ed.eigenstate_residual(p, J=J, H=H) == expected

    def test_rejects_incommensurate(self):
        p = scars.ScarParams(kappa=0.0, q=1.0, gamma=GAMMA, L=6, S=0.5)
        with pytest.raises(ValueError, match="commensurate"):
            ed.eigenstate_residual(p)


class TestEvolveExact:
    def setup_method(self):
        self.H = ed.build_hamiltonian((1.0, 1.0, 0.4), 0.5, 4)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        self.psi0 = psi / np.linalg.norm(psi)

    def test_zero_time_is_identity(self):
        states = ed.evolve_exact(self.psi0, self.H, [0.0]).states
        np.testing.assert_allclose(states[0], self.psi0, atol=1e-12)

    def test_norm_preserved(self):
        states = ed.evolve_exact(self.psi0, self.H, np.linspace(0, 20, 9)).states
        norms = np.linalg.norm(states, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-10

    def test_reports_its_health(self):
        """The Hermiticity defect of H and the states' norm drift come back
        with the states."""
        evolution = ed.evolve_exact(self.psi0, self.H, np.linspace(0, 20, 9))
        assert evolution.hermiticity_defect == float(abs(self.H - self.H.conj().T).max())
        assert evolution.max_norm_drift == ed._norm_drift(evolution.states, self.psi0)
        assert 0.0 <= evolution.max_norm_drift <= ed.NORM_DRIFT_TOL

    def test_energy_conserved(self):
        states = ed.evolve_exact(self.psi0, self.H, np.linspace(0, 10, 7)).states
        energies = np.einsum("td,td->t", states.conj(), (self.H @ states.T).T).real
        assert np.abs(energies - energies[0]).max() <= 1e-10

    def test_eigenstate_overlap_stays_unity(self):
        p = transverse_params()
        psi0 = ed.product_state(scars.scar_texture(p), p.S)
        H = ed.build_hamiltonian(scars.parent_couplings(p.kappa, p.q), p.S, p.L)
        states = ed.evolve_exact(psi0, H, [0.0, 1.5, 7.0]).states
        overlaps = np.abs(states @ psi0.conj())
        assert np.abs(overlaps - 1.0).max() <= 1e-10

    def test_two_spin_rabi(self):
        """XX 2-ring in the one-flip sector is a [[0, 1], [1, 0]] block, so
        the stay probability of |up, down> is cos(t)^2 exactly."""
        H = ed.build_hamiltonian((1.0, 1.0, 0.0), 0.5, 2)
        psi0 = np.zeros(4, dtype=complex)
        psi0[1] = 1.0
        times = np.linspace(0.0, 3.0, 31)
        states = ed.evolve_exact(psi0, H, times).states
        stay = np.abs(states[:, 1]) ** 2
        np.testing.assert_allclose(stay, np.cos(times) ** 2, atol=1e-12)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        for H in (bad, sparse.csr_matrix(bad)):
            with pytest.raises(ValueError, match="Hermitian"):
                ed.evolve_exact(np.array([1.0, 0.0]), H, [0.1])

    def test_rejects_over_cap(self):
        dim = ed.DIMENSION_CAP + 1
        with pytest.raises(ValueError, match="cap"):
            ed.evolve_exact(np.ones(dim), sparse.identity(dim), [0.1])

    @pytest.fixture(scope="class")
    def sector_cases(self):
        """(H, psi0, SPECTRAL_SECTOR_MAX, eigh of H) for each input of
        test_matches_eigh_reference; each H is diagonalized once."""
        rng = np.random.default_rng(5)
        psi0 = rng.normal(size=729) + 1j * rng.normal(size=729)
        psi0 /= np.linalg.norm(psi0)
        couplings = {
            "xyz": (0.9, 1.0, 0.35),
            "xxz": (1.0, 1.0, 0.4),
            "full": FULL_COUPLING,
            "asymmetric": ASYMMETRIC_COUPLING,
        }
        H = {name: ed.build_hamiltonian(J, 1.0, 6) for name, J in couplings.items()}
        eig = {name: np.linalg.eigh(h.toarray()) for name, h in H.items()}
        confined = np.zeros(729, dtype=complex)
        sector = next(s for s in ed._sectors(H["xxz"]) if s.size == 126)
        confined[sector] = psi0[sector] / np.linalg.norm(psi0[sector])
        spectral = ed.SPECTRAL_SECTOR_MAX
        cases = [
            ("xyz", psi0, spectral),
            ("xxz", psi0, spectral),
            ("full", psi0, spectral),
            ("asymmetric", psi0, spectral),
            ("xxz", confined, spectral),
            ("xyz", psi0, 0),
        ]
        return [(H[name], state, cap, eig[name]) for name, state, cap in cases]

    @pytest.mark.parametrize(
        "times",
        [
            np.linspace(0.0, 10.0, 41),
            np.array([0.0, 0.01, 0.3, 0.31, 2.0, 6.5, 12.0]),
            np.array([7.0, 0.0, 1.5, 1.5]),
            np.array([-2.0, 3.0, -0.5]),
        ],
        ids=["uniform", "non_uniform", "unsorted_repeat", "negative"],
    )
    @pytest.mark.parametrize("as_dense", [False, True])
    def test_matches_eigh_reference(self, times, as_dense, sector_cases, monkeypatch):
        """729 states (L = 6, S = 1): every amplitude within 1e-12 of dense
        eigh of the whole H, whatever the grid's order, repeats, first time
        or H's format, on every sector structure and both routes: the two
        parity sectors of a diagonal XYZ ring, the 13 magnetization sectors
        of an XXZ ring, complex H with two sectors (FULL_COUPLING) and with
        one (ASYMMETRIC_COUPLING), a state confined to one magnetization
        sector, and the XYZ ring stepped by expm_multiply."""
        stepper = ed.expm_multiply

        def refuse(*args, **kwargs):
            raise AssertionError("the spectral route reached expm_multiply")

        for H, psi0, cap, eig in sector_cases:
            monkeypatch.setattr(ed, "SPECTRAL_SECTOR_MAX", cap)
            monkeypatch.setattr(ed, "expm_multiply", stepper if cap == 0 else refuse)
            states = ed.evolve_exact(psi0, H.toarray() if as_dense else H, times).states
            assert states.shape == (times.size, 729)
            ref = reference_eigh_evolve(psi0, H, times, eig=eig)
            assert np.abs(states - ref).max() <= 1e-12

    def test_sectors_without_weight_stay_zero(self):
        """A state in one magnetization sector of an XXZ ring keeps every
        other amplitude at exactly zero."""
        H = ed.build_hamiltonian((1.0, 1.0, 0.4), 1.0, 6)
        sectors = ed._sectors(H)
        assert len(sectors) == 13
        sector = max(sectors, key=len)
        psi0 = np.zeros(729, dtype=complex)
        psi0[sector] = np.random.default_rng(7).normal(size=sector.size)
        states = ed.evolve_exact(psi0, H, np.linspace(0.0, 5.0, 11)).states
        outside = np.setdiff1d(np.arange(729), sector)
        assert not states[:, outside].any()
        assert np.abs(states[:, sector]).max() > 0.0

    def test_norm_loss_raises(self, monkeypatch):
        """A propagation that loses the norm beyond 1e-10 relative raises
        RuntimeError with one line naming the drift."""
        monkeypatch.setattr(ed, "SPECTRAL_SECTOR_MAX", 0)
        monkeypatch.setattr(ed, "expm_multiply", lambda A, v: (1.0 + 1e-9) * v)
        with pytest.raises(RuntimeError, match="relative drift 2.00e-09 exceeds 1e-10") as info:
            ed.evolve_exact(self.psi0, self.H, [0.5, 1.0])
        assert "\n" not in str(info.value)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ed.evolve_exact(np.ones(3), np.eye(2), [0.1])


class TestContrastExact:
    def test_parent_contrast_is_flat(self):
        series = ed.contrast_exact(transverse_params(), 0.0, T=8.0, n_samples=17)
        assert np.abs(series.D - 1.0).max() <= 1e-12
        assert np.abs(series.f).max() <= 1e-12

    @pytest.mark.parametrize(
        "kappa,gamma,family", [(0.5, 0.0, "gtsh"), (0.8, 1.0, "glsh")]
    )
    def test_static_families_flat_at_parent(self, kappa, gamma, family):
        p = scars.ScarParams.commensurate(kappa, 1, 6, gamma=gamma, S=0.5)
        assert scars.scar_family(p.kappa, p.gamma) == family
        series = ed.contrast_exact(p, 0.0, T=5.0, n_samples=11)
        assert np.abs(series.D - 1.0).max() <= 1e-12

    @pytest.mark.parametrize(
        "kappa,gamma,S,phi,delta,family",
        [
            (0.0, GAMMA, 1.0, 0.7, 0.05, "transverse"),
            (0.0, 0.3, 0.5, -1.1, -0.04, "transverse"),
            (0.5, 0.0, 0.5, 0.3, 0.05, "gtsh"),
            (0.8, 1.0, 1.0, 0.3, -0.05, "glsh"),
        ],
    )
    def test_trajectory_matches_family_closed_forms(self, kappa, gamma, S, phi, delta, family):
        """The one helix_texture formula reproduces each family's closed-form
        trajectory on 201 samples: the moving transverse helix (omega != 0,
        phi != 0) and the static gtsh and glsh textures."""
        p = scars.ScarParams.commensurate(kappa, 1, 7, gamma=gamma, S=S, phi=phi)
        times = np.linspace(0.0, 10.0, 201)
        _, omega = scars.scar_quench(p, delta)
        got = ed._trajectory(p, omega, times)
        ref = reference_trajectory(p, family, delta, times)
        assert got.shape == (201, 7, 3)
        assert np.abs(got - ref).max() <= 1e-15

    @pytest.mark.parametrize("kappa,gamma", [(0.0, GAMMA), (0.5, 0.0), (0.8, 1.0)])
    def test_quench_is_formed_once(self, monkeypatch, kappa, gamma):
        """One contrast_exact call forms J and omega, psi0 and H once each,
        on every family: the readouts take them and form none again."""
        p = scars.ScarParams.commensurate(kappa, 1, 6, gamma=gamma, S=0.5)
        calls = {}

        def counted(name):
            inner = getattr(ed, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)

            return wrapper

        for name in ("scar_quench", "build_hamiltonian", "product_state"):
            monkeypatch.setattr(ed, name, counted(name))
        ed.contrast_exact(p, 0.02, T=2.0, n_samples=5)
        assert calls == {"scar_quench": 1, "build_hamiltonian": 1, "product_state": 1}

    def test_detuning_decays_contrast(self):
        p = scars.ScarParams.commensurate(0.8, 1, 6, gamma=1.0, S=0.5)
        series = ed.contrast_exact(p, -0.05, T=10.0, n_samples=21)
        assert series.D[-1] < 1.0 - 1e-4

    def test_transverse_asymmetry_small_ring(self):
        """The unstable-side momentum window 0 < k < 0.242 contains no mode
        of a 6-site ring (smallest nonzero k is 2pi/6), so the decay here is
        dominated by the sign-symmetric secular k = 0 growth and the split
        between the detuning signs is a few percent, unstable side larger.
        """
        p = transverse_params(S=1.0)
        plus = ed.contrast_exact(p, +0.03, T=10.0, n_samples=41)
        minus = ed.contrast_exact(p, -0.03, T=10.0, n_samples=41)
        f_plus, f_minus = 1.0 - plus.D[-1], 1.0 - minus.D[-1]
        assert f_plus > f_minus
        assert 1.0 < f_plus / f_minus < 1.1

    def test_short_time_spinwave_agreement(self):
        """Leading 1/S error budget: |D_exact - D_SW| <= 0.5 (S t)^2 / S^2
        out to St = 2."""
        S, dJz = 1.0, 0.03
        p = transverse_params(S=S)
        omega = -2.0 * S * GAMMA * dJz
        frame = rotframe.frame_transverse(THETA, p.q, omega, p.L, dJz=dJz)
        coeffs = spinwave.sw_coefficients(frame, S)
        sw = spinwave.contrast_sw(coeffs, S, T=2.0 / S, n_samples=21)
        exact = ed.contrast_exact(p, dJz, T=2.0 / S, n_samples=21)
        envelope = 0.5 * (S * sw.times) ** 2 / S**2 + 1e-12
        assert np.all(np.abs(exact.D - sw.D) <= envelope)

    def test_family_inference_rejects_generic_gamma(self):
        p = scars.ScarParams.commensurate(0.5, 1, 6, gamma=0.4, S=0.5)
        with pytest.raises(ValueError, match="gamma"):
            ed.contrast_exact(p, 0.01, T=1.0, n_samples=3)

    def test_spin_contrast_starts_at_one(self):
        """The route returns D alone; its spin contrast at the helix's polar
        angle starts at 1."""
        series = ed.contrast_exact(transverse_params(), 0.02, T=2.0, n_samples=5)
        assert abs(spinwave.spin_contrast(series.D, THETA)[0] - 1.0) <= 1e-10

    @pytest.mark.parametrize("phi", [1e12, 1e16])
    def test_huge_phase_offset_matches_zero_offset(self, phi):
        """The offset turns the transverse scar about z, which the XXZ quench
        keeps: at any phi, taken modulo 2 pi, D matches phi = 0."""
        shape = dict(gamma=math.cos(THETA), S=0.5)
        zero, huge = (
            ed.contrast_exact(scars.ScarParams.commensurate(0.0, 1, 6, phi=offset, **shape),
                              0.03, T=2.0, n_samples=11)
            for offset in (0.0, phi)
        )
        np.testing.assert_allclose(huge.D, zero.D, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kappa, gamma", [(0.0, 0.7), (0.5, 0.0), (0.5, 1.0)])
    def test_huge_phase_offset_stays_an_eigenstate(self, kappa, gamma):
        """At phi = 1e12 the scar is still an eigenstate of its parent ring,
        and at zero detuning the state and the trajectory keep D = 1."""
        p = scars.ScarParams.commensurate(kappa, 1, 6, gamma=gamma, S=0.5, phi=1e12)
        assert ed.eigenstate_residual(p) <= scars.EXACT_RESIDUAL_TOL
        series = ed.contrast_exact(p, 0.0, T=2.0, n_samples=5)
        np.testing.assert_allclose(series.D, 1.0, rtol=0.0, atol=1e-12)

    def test_exact_ring_never_steps(self, monkeypatch):
        """The 1,024-state transverse ring (L = 10, S = 1/2, theta = pi/4)
        splits into 11 magnetization sectors of at most 252 states, so its
        quench never reaches expm_multiply, and reports its norm drift."""

        def refuse(*args, **kwargs):
            raise AssertionError("expm_multiply called")

        monkeypatch.setattr(ed, "expm_multiply", refuse)
        p = transverse_params(L=10, S=0.5)
        for delta in (+0.03, -0.03):
            series = ed.contrast_exact(p, delta, T=10.0, n_samples=201)
            assert series.D.shape == (201,)
            assert 0.0 <= series.max_norm_drift <= ed.NORM_DRIFT_TOL

    def test_validates_grid(self):
        with pytest.raises(ValueError, match="positive"):
            ed.contrast_exact(transverse_params(), 0.01, T=0.0)
        for T in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                ed.contrast_exact(transverse_params(), 0.01, T=T)
        with pytest.raises(ValueError, match="two samples"):
            ed.contrast_exact(transverse_params(), 0.01, n_samples=1)

    @pytest.mark.parametrize(
        "T, n_samples, message",
        [
            (0.0, 3, "T must be positive and finite, got 0.0"),
            (math.nan, 3, "T must be positive and finite, got nan"),
            (1.0, 1, "need at least two samples, got 1"),
        ],
    )
    def test_every_contrast_route_checks_the_grid_alike(self, T, n_samples, message):
        """The exact, ring and k-space routes share one grid check and message."""
        from xyzscar import bogoliubov

        frame = rotframe.scar_frame(transverse_params(), 0.02)
        q = 4.0 * complete_K(0.9) / 6
        routes = [
            lambda: ed.contrast_exact(transverse_params(), 0.02, T=T, n_samples=n_samples),
            lambda: spinwave.contrast_sw(
                spinwave.sw_coefficients(frame, 1.0), 1.0, T=T, n_samples=n_samples
            ),
            lambda: bogoliubov.contrast_multiflavour("gtsh", 0.9, q, 0.02, T=T, n_samples=n_samples),
        ]
        for route in routes:
            with pytest.raises(ValueError) as info:
                route()
            assert str(info.value) == message

    def test_rejects_non_finite_detuning(self):
        for delta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="delta must be finite"):
                ed.contrast_exact(transverse_params(), delta, T=1.0, n_samples=3)

    def test_rejects_an_overflowing_precession_rate(self):
        """The rate check of scars.scar_quench runs before H is built, so a
        finite delta whose rate overflows warns nowhere (the suite makes a
        RuntimeWarning an error) and never reaches the eigensolver."""
        p = scars.ScarParams.commensurate(0.0, 1, 5, gamma=math.cos(math.pi / 4), S=1.5)
        with pytest.raises(ValueError, match="^precession rate -2 S gamma delta overflows"):
            ed.contrast_exact(p, 1e308, T=1.0, n_samples=3)


# every transverse ring under DIMENSION_CAP with q = 2 pi M / L < pi/2:
# (S, L, M, gamma, phi), phi != 0 on the odd rings and on every M = 2 ring
TWISTED_RINGS = [
    (S, L, M, GAMMA if M == 1 else 0.3, 0.7 if L % 2 or M == 2 else 0.0)
    for S, L_max in ((0.5, 12), (1.0, 7), (1.5, 6), (2.0, 5))
    for L in range(5, L_max + 1)
    for M in (1, 2)
    if 4 * M < L
]


class TestTwistedRoute:
    @pytest.mark.parametrize("delta", [+0.03, -0.03])
    @pytest.mark.parametrize(
        "S,L,M,gamma,phi", TWISTED_RINGS, ids=[f"S{r[0]}-L{r[1]}-M{r[2]}" for r in TWISTED_RINGS]
    )
    def test_matches_generic_route(self, monkeypatch, S, L, M, gamma, phi, delta):
        """A transverse scar's contrast from its twisted zero-momentum space
        matches the whole-space route (the oracle) in D, f and C to 1e-12, on
        every ring the whole-space route reaches."""
        p = scars.ScarParams.commensurate(0.0, M, L, gamma=gamma, S=S, phi=phi)
        theta = math.acos(gamma)
        twisted = ed.contrast_exact(p, delta, T=10.0, n_samples=41)
        monkeypatch.setattr(ed, "_twisted_contrast", ed._generic_contrast)
        generic = ed.contrast_exact(p, delta, T=10.0, n_samples=41)
        for name in ("D", "f"):
            assert np.abs(getattr(twisted, name) - getattr(generic, name)).max() <= 1e-12
        C_twisted, C_generic = (spinwave.spin_contrast(s.D, theta) for s in (twisted, generic))
        assert np.abs(C_twisted - C_generic).max() <= 1e-12
        assert twisted.hermiticity_defect == generic.hermiticity_defect
        assert 0.0 <= twisted.max_norm_drift <= ed.NORM_DRIFT_TOL

    def test_orbits_are_the_translation_orbits(self):
        """The 1,024 strings of L = 10, S = 1/2 fall into 108 cyclic orbits
        (the binary necklaces), each closed under the one-site translation,
        and the digits rebuild each basis index."""
        digits, orbit = ed._zero_momentum_orbits(2, 10)
        assert orbit.max() + 1 == 108
        T = translation_operator(0.5, 10).tocoo()
        assert np.array_equal(orbit[T.row], orbit[T.col])
        assert np.array_equal(2 ** np.arange(10) @ digits, np.arange(1024))

    def test_route_follows_the_family(self, monkeypatch):
        """gtsh and glsh never enter the twisted route; a transverse scar
        never reads one-site reduced density matrices."""

        def refuse(*args, **kwargs):
            raise AssertionError("wrong route")

        monkeypatch.setattr(ed, "_twisted_contrast", refuse)
        for kappa, gamma in ((0.5, 0.0), (0.8, 1.0)):
            p = scars.ScarParams.commensurate(kappa, 1, 6, gamma=gamma, S=0.5)
            ed.contrast_exact(p, 0.02, T=2.0, n_samples=5)
        monkeypatch.undo()
        monkeypatch.setattr(ed, "_site_expectations", refuse)
        ed.contrast_exact(transverse_params(), 0.02, T=2.0, n_samples=5)

    def test_projection_that_drops_weight_raises(self, monkeypatch):
        """A state that is not a twisted uniform product state has weight
        outside the zero-momentum orbit states: the route refuses it."""
        texture = scars.scar_texture

        def tilted(p):
            omega = texture(p).copy()
            omega[0] = [0.0, 0.0, 1.0]
            return omega

        monkeypatch.setattr(ed, "scar_texture", tilted)
        with pytest.raises(RuntimeError, match="projection lost weight"):
            ed.contrast_exact(transverse_params(), 0.02, T=2.0, n_samples=5)

    def test_non_hermitian_quench_raises(self, monkeypatch):
        """The full quenched H is checked, with evolve_exact's bound."""
        build = ed.build_hamiltonian

        def skewed(*args):
            H = build(*args).tolil()
            H[0, 1] += 1e-9
            return H.tocsr()

        monkeypatch.setattr(ed, "build_hamiltonian", skewed)
        with pytest.raises(ValueError, match="not Hermitian"):
            ed.contrast_exact(transverse_params(), 0.02, T=2.0, n_samples=5)


# r - 1 at S t = 10 of the transverse helix (theta = pi/4), r = (1 - D_ED) /
# (1 - D_SW) on the same ring, as (+0.03, -0.03), to three decimals; M = 2
# on L = 10 and 12, M = 1 elsewhere
SEMICLASSICAL_TABLE = {
    (5, 0.5): (0.229, 0.196), (5, 1.0): (0.143, 0.140),
    (5, 1.5): (0.114, 0.112), (5, 2.0): (0.100, 0.100),
    (6, 0.5): (0.242, 0.213), (6, 1.0): (0.116, 0.108), (6, 1.5): (0.077, 0.072),
    (7, 0.5): (0.139, 0.101), (7, 1.0): (0.089, 0.074),
    (8, 0.5): (0.163, 0.124),
    (10, 0.5): (-0.083, -0.041),
    (12, 0.5): (0.296, 0.354),
}


@pytest.mark.parametrize("L,S", list(SEMICLASSICAL_TABLE), ids=lambda v: str(v))
def test_exact_over_spin_wave_decay_table(L, S):
    """The exact decay over the ring spin-wave decay, 11 samples each, pinned
    within the table's rounding (5e-4)."""
    p = transverse_params(L=L, M=2 if L in (10, 12) else 1, S=S)
    for delta, expected in zip((+0.03, -0.03), SEMICLASSICAL_TABLE[L, S]):
        exact = ed.contrast_exact(p, delta, T=10.0 / S, n_samples=11)
        coeffs = spinwave.sw_coefficients(rotframe.scar_frame(p, delta), S)
        sw = spinwave.contrast_sw(coeffs, S, T=10.0 / S, n_samples=11)
        r = (1.0 - exact.D[-1]) / (1.0 - sw.D[-1])
        assert abs((r - 1.0) - expected) <= 5e-4
