import tracemalloc

import numpy as np
import pytest

from cstardyn import crossed, fibers
from cstardyn.core import System, symmetric_action
from cstardyn.crossed import (
    CovariantRep,
    NotInAlgebraError,
    build_reduced,
    center_dimension,
    fourier_coefficients,
    induced_map,
    is_commutative,
    is_completely_positive,
    regular_covariant,
    verify_covariant,
)
from cstardyn.cyclic_examples import omega_system, sigma_example_rep, sigma_system
from cstardyn.generators import (
    assorted_small_systems,
    random_multiplier_suite,
    random_unitary,
    random_vector,
    standard_systems,
)
from cstardyn.multiplier import (
    Multiplier,
    coefficient,
    is_positive_definite,
    unit_multiplier,
)
from cstardyn.numutil import matrix_rank, max_abs
from cstardyn.reporting import CheckReport

from oracles import (
    act_on_algebra,
    covariant_pi,
    dense_basis,
    from_group_function,
    integrated_form,
    null_space,
    one_hot,
    reference_bound,
    relabeled_system,
    residual_of,
)


def closure_dimension(generators: list[np.ndarray], tol: float = 1e-9) -> int:
    """Brute-force oracle: dimension of the *-algebra generated by the given
    matrices, computed by alternating products/adjoints with span stabilization."""
    mats = [m.astype(complex) for m in generators]
    mats.append(np.eye(generators[0].shape[0], dtype=complex))

    def rank_of(ms):
        return matrix_rank(np.stack([m.ravel() for m in ms]), tol)

    rank = rank_of(mats)
    while True:
        new = list(mats)
        for a in mats:
            new.append(a.conj().T)
            for b in mats:
                new.append(a @ b)
        new_rank = rank_of(new)
        mats = new
        if new_rank == rank:
            return rank
        rank = new_rank


def least_squares_coords(rcp, mats: np.ndarray) -> np.ndarray:
    """Reference coordinates of ambient matrices in the basis, by the
    pseudo-inverse of the flattened basis (the least-squares solution)."""
    N, D = rcp.dim, rcp.ambient_dim
    solver = np.linalg.pinv(dense_basis(rcp).reshape(N, D * D))
    return mats.reshape(-1, D * D) @ solver


def dense_cp_matrix(rcp, phi: np.ndarray) -> np.ndarray:
    """Reference assembly of the full (N*D)^2 matrix [phi(b_a^* b_b)]."""
    N, D = rcp.dim, rcp.ambient_dim
    basis, gram = dense_basis(rcp), one_hot(rcp.gram_index, N)
    big = np.empty((N * D, N * D), dtype=complex)
    for a in range(N):
        for b in range(N):
            big[a * D : (a + 1) * D, b * D : (b + 1) * D] = np.tensordot(phi @ gram[a, b], basis, axes=1)
    return big


def conjugation_map(rcp, w: np.ndarray) -> np.ndarray:
    """Coordinate matrix of x -> w^* x w, completely positive and, for a
    generic w, not block diagonal over the group."""
    mult = one_hot(rcp.mult_index, rcp.dim)
    w_star = w.conj() @ one_hot(rcp.adjoint_index, rcp.dim)
    left = np.einsum("p,pqr->qr", w_star, mult)   # x -> w^* x
    right = np.einsum("q,pqr->pr", w, mult)       # y -> y w
    return (left @ right).T


def svd_center_dimension(rcp, tol: float = 1e-9) -> int:
    """The commutator-system count :func:`center_dimension` used to run, kept
    as the oracle of the orbit formula: the null space of z -> z b_a - b_a z
    over all a, in coordinates.  Row (a, c), column g holds
    mult[g, a, c] - mult[a, g, c]."""
    N = rcp.dim
    mult = one_hot(rcp.mult_index, N)
    m = mult.transpose(1, 2, 0) - mult.transpose(0, 2, 1)
    return null_space(m.reshape(N * N, N), tol).shape[1]


def read_regular_pair(rep: CovariantRep) -> np.ndarray:
    """The row -> column maps of the basis b[g,j] = pi(e_j) u(g), read
    exactly off the dense regular pair; the oracle for ``col_map``.

    Raises ArithmeticError unless every pi(e_j) is diagonal with 0/1 entries,
    every u(g) a permutation matrix whose entries are exactly 1, and the
    basis supports are nonempty and pairwise disjoint (so the basis is
    linearly independent).  Row r of b[g,j] is the row of u(g) where pi(e_j)
    has its 1, and zero elsewhere.
    """
    pair = np.array(rep.pi_mats + rep.u_mats)
    pi, u = pair[: len(rep.pi_mats)], pair[len(rep.pi_mats) :]
    d = rep.dim
    mask = pi.diagonal(axis1=1, axis2=2) == 1
    # every nonzero entry is one of the diagonal 1s; real and imaginary parts
    # are counted apart
    if np.count_nonzero(pi.view(float)) != np.count_nonzero(mask):
        raise ArithmeticError("pi(e_j) of the regular pair is not a diagonal 0/1 matrix")
    ones = u == 1
    # a 1 in every row and every column, and no other nonzero part: exactly
    # one 1 per row and per column
    if not (np.count_nonzero(u.view(float)) == len(u) * d and ones.any(axis=2).all() and ones.any(axis=1).all()):
        raise ArithmeticError("u(g) of the regular pair is not a permutation matrix")
    # basis index a = g * n + j
    col_map = np.where(mask[None, :, :], ones.argmax(axis=2)[:, None, :], -1).reshape(-1, d)
    hit = col_map >= 0
    a_idx, r_idx = np.nonzero(hit)
    if not hit.any(axis=1).all() or np.bincount(r_idx * d + col_map[a_idx, r_idx]).max() > 1:
        raise ArithmeticError("integrated-form basis is linearly dependent")
    return col_map


def check_closure(col_map: np.ndarray, mult_index: np.ndarray, adjoint_index: np.ndarray) -> None:
    """Raise NotInAlgebraError unless composing the row -> column maps of the
    basis gives the tabulated products, and transposing them the tabulated
    adjoints: the exhaustive scan of the closed-form tables against the
    basis.  Two different 0/1 matrices differ by 1 in some entry, which is
    the residual reported."""
    N, d = col_map.shape
    # maps padded with a -1 row and column, so that index -1 reads "zero row"
    maps = np.full((N + 1, d + 1), -1, dtype=np.intp)
    maps[:N, :d] = col_map
    # row r of b_a b_b is row col_map[a, r] of b_b; both sides indexed [b, a, r]
    products = np.take(maps[:N], col_map, axis=1)
    if (products != np.take(maps[:, :d], mult_index.T, axis=0)).any():
        raise NotInAlgebraError(1.0)
    # row r of b_a is column r of its transpose; zero rows write into the
    # padding column
    transposes = np.full((N, d + 1), -1, dtype=np.intp)
    transposes[np.arange(N)[:, None], col_map] = np.arange(d)
    if (transposes[:, :d] != col_map[adjoint_index]).any():
        raise NotInAlgebraError(1.0)


def reference_regular_covariant(system) -> CovariantRep:
    """The per-entry loop :func:`regular_covariant` used to run, kept as the
    test oracle for its index scatters."""
    n = system.n_points
    order = system.group.order
    d = n * order
    pi_mats = []
    for j in range(n):
        diag = np.zeros(d)
        for h in range(order):
            for x in range(n):
                # (alpha_h^{-1} e_j)_x = 1 iff h.x = j
                if system.action.apply(h, x) == j:
                    diag[h * n + x] = 1.0
        pi_mats.append(np.diag(diag).astype(complex))
    u_mats = []
    for g in range(order):
        u = np.zeros((d, d), dtype=complex)
        for h in range(order):
            src = system.group.mul(int(system.group.inverse[g]), h)
            u[h * n : (h + 1) * n, src * n : (src + 1) * n] = np.eye(n)
        u_mats.append(u)
    return CovariantRep(system, d, tuple(pi_mats), tuple(u_mats))


def closed_form_tables(system):
    """One-hot coordinates of b_a b_b, b_a^* and b_a^* b_b from
    b[g,j] b[h,k] = delta(j, g.k) b[gh, j] and b[g,j]^* = b[g^-1, g^-1.j],
    one entry at a time."""
    group, action, n = system.group, system.action, system.n_points
    N = n * group.order
    mult = np.zeros((N, N, N), dtype=complex)
    adjoint = np.zeros((N, N), dtype=complex)
    for g in group.elements():
        for j in range(n):
            gi = int(group.inverse[g])
            adjoint[g * n + j, gi * n + action.apply(gi, j)] = 1.0
            for h in group.elements():
                for k in range(n):
                    if action.apply(g, k) == j:
                        mult[g * n + j, h * n + k, group.mul(g, h) * n + j] = 1.0
    gram = mult[adjoint.argmax(axis=1)]
    return mult, adjoint, gram


def index_map_systems():
    rng = np.random.default_rng(11)
    cases = [*standard_systems().items(), *((f"assorted_{i}", s) for i, s in enumerate(assorted_small_systems()))]
    for n in range(2, 8):
        cases += [(f"sigma_{n}", sigma_system(n)), (f"omega_{n}", omega_system(n))]
    for name, system in [("sigma_4", sigma_system(4)), ("omega_5", omega_system(5)), ("s3", assorted_small_systems()[-1])]:
        cases += [(f"relabeled_{name}_{i}", relabeled_system(system, rng)) for i in range(2)]
    return [pytest.param(system, id=name) for name, system in cases]


class TestRegularCovariant:
    def test_trivial_action_identical_blocks(self, z2_trivial):
        rep = regular_covariant(z2_trivial)
        a = np.array([2.0, 3.0])
        pi_a = covariant_pi(rep, a)
        assert np.allclose(pi_a[:2, :2], pi_a[2:, 2:])

    def test_flip_structure(self, z2_flip):
        rep = regular_covariant(z2_flip)
        # block h of pi(e_0) is diag over x of [e_0(h.x)]
        pi0 = rep.pi_mats[0]
        assert pi0[0, 0] == 1.0 and pi0[1, 1] == 0.0  # h=0: e_0 at x=0
        assert pi0[2, 2] == 0.0 and pi0[3, 3] == 1.0  # h=1: e_0 at x=1
        u1 = rep.u_mats[1]
        assert np.allclose(u1[:2, 2:], np.eye(2)) and np.allclose(u1[2:, :2], np.eye(2))

    @pytest.mark.parametrize("fixture", ["z2_trivial", "z2_flip", "z3_cycle"])
    def test_covariance(self, fixture, request):
        system = request.getfixturevalue(fixture)
        report = verify_covariant(regular_covariant(system))
        assert report.passed and report.worst().residual <= 1e-12


def convolve(system, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """(f1 * f2)(g) = sum_h f1(h) alpha_h(f2(h^{-1} g)); functions are arrays
    of shape (|G|, n)."""
    order, n = system.group.order, system.n_points
    f1 = np.asarray(f1, dtype=complex).reshape(order, n)
    f2 = np.asarray(f2, dtype=complex).reshape(order, n)
    out = np.zeros((order, n), dtype=complex)
    for g in range(order):
        for h in range(order):
            out[g] += f1[h] * act_on_algebra(system.action, h, f2[system.group.mul(int(system.group.inverse[h]), g)])
    return out


def involution(system, f: np.ndarray) -> np.ndarray:
    """f*(g) = alpha_g(f(g^{-1}))^* (conjugation on C^n)."""
    order, n = system.group.order, system.n_points
    f = np.asarray(f, dtype=complex).reshape(order, n)
    out = np.zeros((order, n), dtype=complex)
    for g in range(order):
        out[g] = act_on_algebra(system.action, g, f[system.group.inverse[g]]).conj()
    return out


def delta_function(system, g: int, a: np.ndarray) -> np.ndarray:
    """The finitely supported function a . delta_g."""
    out = np.zeros((system.group.order, system.n_points), dtype=complex)
    out[g] = np.asarray(a, dtype=complex)
    return out


class TestIntegratedForm:
    def test_unit_of_convolution(self, z2_flip):
        rep = regular_covariant(z2_flip)
        f = delta_function(z2_flip, 0, np.ones(2))
        assert np.allclose(integrated_form(rep, f), np.eye(4))

    def test_basis_elements(self, z2_flip):
        rep = regular_covariant(z2_flip)
        rcp = build_reduced(z2_flip)
        for g in range(2):
            for j in range(2):
                a = np.zeros(2)
                a[j] = 1.0
                m = integrated_form(rep, delta_function(z2_flip, g, a))
                assert np.allclose(m, dense_basis(rcp)[g * 2 + j])

    def test_star_homomorphism(self, z2_flip, rng):
        rep = regular_covariant(z2_flip)
        for _ in range(5):
            f1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            f2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            lhs = integrated_form(rep, convolve(z2_flip, f1, f2))
            rhs = integrated_form(rep, f1) @ integrated_form(rep, f2)
            assert np.abs(lhs - rhs).max() <= 1e-12
            lhs = integrated_form(rep, involution(z2_flip, f1))
            assert np.abs(lhs - integrated_form(rep, f1).conj().T).max() <= 1e-12

    def test_homomorphism_on_z3(self, z3_cycle, rng):
        rep = regular_covariant(z3_cycle)
        f1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        f2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = integrated_form(rep, convolve(z3_cycle, f1, f2))
        rhs = integrated_form(rep, f1) @ integrated_form(rep, f2)
        assert np.abs(lhs - rhs).max() <= 1e-9


def dense_is_commutative(rcp, tol=1e-9) -> bool:
    """The dense oracle: every pair of basis matrices commutes within tol."""
    basis = dense_basis(rcp)
    scale = 1.0 + max_abs(basis)
    return all(
        max_abs(basis[a] @ basis[b] - basis[b] @ basis[a]) <= tol * scale
        for a in range(rcp.dim)
        for b in range(a + 1, rcp.dim)
    )


class TestIsCommutative:
    def test_agrees_with_dense_products(self):
        systems = list(standard_systems().values()) + assorted_small_systems()
        systems += [family(n) for family in (omega_system, sigma_system) for n in range(1, 7)]
        verdicts = set()
        for system in systems:
            rcp = build_reduced(system)
            verdict = is_commutative(rcp)
            assert verdict == dense_is_commutative(rcp)
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestBuildReduced:
    @pytest.mark.parametrize("n", [2, 3])
    def test_trivial_action_commutative(self, n):
        rcp = build_reduced(omega_system(n))
        assert rcp.dim == n * n
        assert is_commutative(rcp)
        assert center_dimension(rcp) == n * n

    @pytest.mark.parametrize("n", [2, 3])
    def test_shift_action_full_matrix_algebra(self, n):
        rcp = build_reduced(sigma_system(n))
        assert rcp.dim == n * n
        assert not is_commutative(rcp)
        assert center_dimension(rcp) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_closure_oracle_agreement(self, n):
        for system in (omega_system(n), sigma_system(n)):
            rcp = build_reduced(system)
            gens = list(dense_basis(rcp))
            assert closure_dimension(gens) == rcp.dim

    def test_structure_constants_reproduce_products(self, z3_cycle):
        rcp = build_reduced(z3_cycle)
        basis, mult = dense_basis(rcp), one_hot(rcp.mult_index, rcp.dim)
        for a in range(rcp.dim):
            for b in range(rcp.dim):
                lhs = basis[a] @ basis[b]
                rhs = np.tensordot(mult[a, b], basis, axes=1)
                assert np.abs(lhs - rhs).max() <= 1e-12

    def test_adjoints_in_algebra(self, z3_cycle):
        rcp = build_reduced(z3_cycle)
        basis, adjoint = dense_basis(rcp), one_hot(rcp.adjoint_index, rcp.dim)
        for a in range(rcp.dim):
            lhs = basis[a].conj().T
            rhs = np.tensordot(adjoint[a], basis, axes=1)
            assert np.abs(lhs - rhs).max() <= 1e-12


class TestExactTables:
    @pytest.mark.parametrize("system", assorted_small_systems() + [sigma_system(4)])
    def test_tables_match_least_squares_oracle(self, system):
        rcp = build_reduced(system)
        N, b = rcp.dim, dense_basis(rcp)
        adjoints = b.conj().transpose(0, 2, 1)
        mult = least_squares_coords(rcp, np.einsum("aij,bjk->abik", b, b)).reshape(N, N, N)
        adj = least_squares_coords(rcp, adjoints)
        gram = least_squares_coords(rcp, np.einsum("aij,bjk->abik", adjoints, b)).reshape(N, N, N)
        assert np.abs(one_hot(rcp.mult_index, N) - mult).max() <= 1e-12
        assert np.abs(one_hot(rcp.adjoint_index, N) - adj).max() <= 1e-12
        assert np.abs(one_hot(rcp.gram_index, N) - gram).max() <= 1e-12
        assert np.array_equal(rcp.gram_index >= 0, np.abs(gram).sum(axis=2) > 0.5)

    @pytest.mark.parametrize("system", assorted_small_systems() + [sigma_system(4)])
    def test_fourier_coefficients_are_least_squares(self, system, rng):
        rcp = build_reduced(system)
        D = rcp.ambient_dim
        f = rng.normal(size=rcp.dim) + 1j * rng.normal(size=rcp.dim)
        noise = 1e-12 * (rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D)))
        m = np.tensordot(f, dense_basis(rcp), axes=1) + noise
        expected = least_squares_coords(rcp, m)[0]
        assert np.abs(fourier_coefficients(rcp, m).reshape(-1) - expected).max() <= 1e-12

    def test_center_dimension_from_orbits(self):
        systems = assorted_small_systems()
        counts = [center_dimension(build_reduced(s)) for s in systems]
        assert counts == [4, 1, 1, 1, 2, 12, 2]
        assert [svd_center_dimension(build_reduced(s)) for s in systems] == counts

    def test_center_dimension_with_proper_stabilizers(self):
        rng = np.random.default_rng(5)
        systems = [System(symmetric_action(3)), System(symmetric_action(4))]
        systems += [relabeled_system(s, rng) for s in systems for _ in range(2)]
        for system in systems:
            # the stabilizer of a letter is proper, and nontrivial
            stab = np.count_nonzero(system.action.perm[:, 0] == 0)
            assert 1 < stab < system.group.order
            rcp = build_reduced(system)
            # one orbit, stabilizer S_{m-1}: as many classes as partitions of m - 1
            assert center_dimension(rcp) == svd_center_dimension(rcp) == {3: 2, 4: 3}[system.n_points]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda pi, u: u.__setitem__(1, 2.0 * u[1]),               # entries not 0/1
            lambda pi, u: pi.__setitem__(1, 0.0 * pi[1]),             # one element vanishes
            lambda pi, u: pi.__setitem__(0, np.eye(len(pi[0]))),     # supports overlap
        ],
        ids=["scaled", "vanishing", "overlapping"],
    )
    def test_basis_checks_enforced(self, z3_cycle, corrupt):
        with pytest.raises(ArithmeticError):
            read_regular_pair(corrupt_regular_pair(z3_cycle, corrupt))

    @pytest.mark.parametrize("table", ["mult", "adjoint"])
    @pytest.mark.parametrize("entry", [(1, 2), (4, 0), (0, 8)])
    def test_closure_check_catches_a_wrong_table_entry(self, z3_cycle, table, entry):
        rcp = build_reduced(z3_cycle)
        mult, adjoint = rcp.mult_index.copy(), rcp.adjoint_index.copy()
        check_closure(rcp.col_map, mult, adjoint)
        if table == "mult":
            mult[entry] = -1 if mult[entry] >= 0 else entry[0]
        else:
            adjoint[entry[0]] = (adjoint[entry[0]] + 1) % rcp.dim
        with pytest.raises(NotInAlgebraError):
            check_closure(rcp.col_map, mult, adjoint)

    def test_relabelled_basis_fails_closure(self, z3_cycle):
        # slot (g, 0) holds b[g, 1] and slot (g, 1) holds b[g, 0]: still a
        # valid basis, but the product and adjoint tables no longer hold
        rcp = build_reduced(z3_cycle)
        swapped = corrupt_regular_pair(z3_cycle, lambda pi, u: pi.__setitem__(slice(0, 2), pi[1::-1]))
        col_map = read_regular_pair(swapped)
        with pytest.raises(NotInAlgebraError):
            check_closure(col_map, rcp.mult_index, rcp.adjoint_index)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda pi, u: pi.__setitem__(0, pi[0] + np.eye(len(pi[0]), k=1)), "pi"),  # not diagonal
            (lambda pi, u: pi.__setitem__(0, 0.5 * pi[0]), "pi"),                       # not 0/1
            (lambda pi, u: u.__setitem__(1, 1j * u[1]), "u"),                           # entries not 1
            (lambda pi, u: u.__setitem__(1, u[1][[0, 0, *range(2, len(u[1]))]]), "u"),  # repeated column
            (lambda pi, u: u.__setitem__(1, u[1] + np.eye(len(u[1]))), "u"),            # two per row
        ],
        ids=["pi-off-diagonal", "pi-half", "u-phase", "u-repeated-column", "u-two-per-row"],
    )
    def test_pair_checks_enforced(self, z3_cycle, corrupt, message):
        with pytest.raises(ArithmeticError, match=rf"^{message}\("):
            read_regular_pair(corrupt_regular_pair(z3_cycle, corrupt))


def corrupt_regular_pair(system, corrupt) -> CovariantRep:
    """The regular pair of ``system`` with its pi and u lists edited in place
    by the callable ``corrupt(pi, u)``."""
    rep = regular_covariant(system)
    pi, u = list(rep.pi_mats), list(rep.u_mats)
    corrupt(pi, u)
    return CovariantRep(system, rep.dim, tuple(pi), tuple(u))


class TestIndexMaps:
    @pytest.mark.parametrize("system", index_map_systems())
    def test_regular_pair_matches_loop(self, system):
        rep, reference = regular_covariant(system), reference_regular_covariant(system)
        assert rep.dim == reference.dim
        for got, want in zip(rep.pi_mats + rep.u_mats, reference.pi_mats + reference.u_mats):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("system", index_map_systems())
    def test_views_match_integrated_form_and_closed_forms(self, system):
        rcp = build_reduced(system)
        n, order = system.n_points, system.group.order
        expected = np.stack(
            [
                integrated_form(regular_covariant(system), delta_function(system, g, np.eye(n)[j]))
                for g in range(order)
                for j in range(n)
            ]
        )
        basis = dense_basis(rcp)
        assert basis.dtype == expected.dtype and basis.tobytes() == expected.tobytes()
        assert (rcp.dim, rcp.ambient_dim) == (n * order, n * order)
        mult, adjoint, gram = closed_form_tables(system)
        tables = (rcp.mult_index, rcp.adjoint_index, rcp.gram_index)
        for index, want in zip(tables, (mult, adjoint, gram)):
            got = one_hot(index, rcp.dim)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.array_equal(rcp.gram_index >= 0, gram.any(axis=2))

    @pytest.mark.parametrize("system", index_map_systems())
    def test_col_map_read_back_from_regular_pair(self, system):
        rcp = build_reduced(system)
        col_map = read_regular_pair(regular_covariant(system))
        assert col_map.dtype == rcp.col_map.dtype and np.array_equal(col_map, rcp.col_map)
        check_closure(rcp.col_map, rcp.mult_index, rcp.adjoint_index)

    def test_views_are_lazy_and_read_only(self, z3_cycle):
        """The operations read the index tables and cache nothing dense on
        the algebra; the tables are read-only."""
        rcp = build_reduced(z3_cycle)
        tables = ("col_map", "mult_index", "adjoint_index", "gram_index")
        is_completely_positive(rcp, induced_map(rcp, unit_multiplier(z3_cycle)))
        fourier_coefficients(rcp, np.eye(rcp.ambient_dim))
        center_dimension(rcp)
        assert set(vars(rcp)) == {"system", *tables}
        for name in tables:
            view = getattr(rcp, name)
            with pytest.raises(ValueError):
                view[(0,) * view.ndim] = 7

    def test_pd_path_stays_below_one_dense_table(self):
        # N = D = 64: the bound is one (N, N, N) complex table, 4.2 MB
        rep = sigma_example_rep(8)
        rng = np.random.default_rng(3)
        t = coefficient(rep, *(random_vector(rep.module, rng),) * 2)
        system = sigma_system(8)
        small = sigma_system(2)  # the first call may import modules; not traced
        is_completely_positive(build_reduced(small), np.eye(4))
        tracemalloc.start()
        try:
            rcp = build_reduced(system)
            cert = is_completely_positive(rcp, induced_map(rcp, t))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.verdict
        assert peak < 64**3 * 16

    def test_sigma_16_build_within_budget(self):
        # N = D = 256: the dense regular pair alone is 272 * 256**2 complex
        # entries, 285 MB
        system = sigma_system(16)
        build_reduced(sigma_system(2))  # the first call may import modules; not traced
        tracemalloc.start()
        try:
            rcp = build_reduced(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rcp.dim == 256
        assert peak < 8 * 2**20

    def test_sigma_16_center_within_budget(self):
        # the commutator system of the center is 65536 x 256 complex, 268 MB
        rcp = build_reduced(sigma_system(16))
        center_dimension(build_reduced(sigma_system(2)))
        tracemalloc.start()
        try:
            dim = center_dimension(rcp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dim == 1
        assert peak < 8 * 2**20


class TestFourierCoefficients:
    def test_identity_is_unit_delta(self, z2_flip):
        rcp = build_reduced(z2_flip)
        f = fourier_coefficients(rcp, np.eye(4))
        assert np.allclose(f[0], np.ones(2)) and np.allclose(f[1], 0)

    def test_basis_elements(self, z2_flip):
        rcp = build_reduced(z2_flip)
        for g in range(2):
            for j in range(2):
                f = fourier_coefficients(rcp, dense_basis(rcp)[g * 2 + j])
                expected = np.zeros((2, 2))
                expected[g, j] = 1.0
                assert np.allclose(f, expected)

    def test_round_trip(self, z3_cycle, rng):
        rcp = build_reduced(z3_cycle)
        rep = regular_covariant(z3_cycle)
        for _ in range(5):
            f = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            m = integrated_form(rep, f)
            assert np.abs(fourier_coefficients(rcp, m) - f).max() <= 1e-12

    def test_outside_algebra_rejected(self, z2_flip):
        rcp = build_reduced(z2_flip)
        off = np.zeros((4, 4))
        off[0, 1] = 1.0  # not in the span of the basis
        with pytest.raises(NotInAlgebraError):
            fourier_coefficients(rcp, off)


class TestInducedMap:
    def test_unit_gives_identity(self, z2_flip):
        rcp = build_reduced(z2_flip)
        assert np.allclose(induced_map(rcp, unit_multiplier(z2_flip)), np.eye(4))

    def test_delta_e_projects_onto_algebra_block(self, z2_flip):
        rcp = build_reduced(z2_flip)
        t = Multiplier(z2_flip, (np.eye(2), np.zeros((2, 2))))
        phi = induced_map(rcp, t)
        for g in range(2):
            for j in range(2):
                image = phi @ np.eye(4)[g * 2 + j]
                if g == 0:
                    assert np.allclose(image, np.eye(4)[g * 2 + j])
                else:
                    assert np.allclose(image, 0)

    def test_group_function_scales_basis(self, z3_cycle):
        rcp = build_reduced(z3_cycle)
        mu = np.array([1.0, 2.0, 3.0j])
        phi = induced_map(rcp, from_group_function(z3_cycle, mu))
        for g in range(3):
            for j in range(3):
                image = phi @ np.eye(9)[g * 3 + j]
                assert np.allclose(image, mu[g] * np.eye(9)[g * 3 + j])

    def test_system_mismatch(self, z2_flip, z2_trivial):
        rcp = build_reduced(z2_flip)
        with pytest.raises(ValueError):
            induced_map(rcp, unit_multiplier(z2_trivial))


class TestCompletelyPositive:
    def test_identity_map_cp(self, z2_flip):
        rcp = build_reduced(z2_flip)
        assert is_completely_positive(rcp, np.eye(4)).verdict

    def test_conditional_expectation_cp(self, z2_flip):
        rcp = build_reduced(z2_flip)
        t = Multiplier(z2_flip, (np.eye(2), np.zeros((2, 2))))
        assert is_completely_positive(rcp, induced_map(rcp, t)).verdict

    def test_off_diagonal_not_cp(self, z2_trivial):
        rcp = build_reduced(z2_trivial)
        t = Multiplier(z2_trivial, (np.zeros((2, 2)), np.eye(2)))
        cert = is_completely_positive(rcp, induced_map(rcp, t))
        assert not cert.verdict
        assert is_positive_definite(t).verdict == cert.verdict

    def test_matches_pd_criterion(self, rng):
        for system in standard_systems().values():
            rcp = build_reduced(system)
            for t in random_multiplier_suite(system, 8, rng):
                pd = is_positive_definite(t).verdict
                cp = is_completely_positive(rcp, induced_map(rcp, t)).verdict
                assert pd == cp

    def test_shape_validated(self, z2_flip):
        rcp = build_reduced(z2_flip)
        with pytest.raises(ValueError):
            is_completely_positive(rcp, np.eye(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)], ids=["nan", "inf", "-inf-imag"])
    def test_non_finite_map_rejected(self, value):
        """A non-finite phi has no verdict: it is refused, naming its first
        non-finite entry, and not reported as an indefinite map."""
        rcp = build_reduced(sigma_system(3))
        phi = np.eye(rcp.dim, dtype=complex)
        phi[4, 4] = phi[6, 2] = value
        with pytest.raises(ValueError, match=r"entry \[4, 4\] is not finite"):
            is_completely_positive(rcp, phi)


def oracle_cases():
    rng = np.random.default_rng(7)
    named = [*standard_systems().items(), *((f"assorted_{i}", s) for i, s in enumerate(assorted_small_systems()))]
    for name, system in named:
        rcp = build_reduced(system)
        for i, t in enumerate(random_multiplier_suite(system, 6, rng)):
            yield pytest.param(rcp, induced_map(rcp, t), id=f"{name}-{i}")
    rcp = build_reduced(assorted_small_systems()[-1])
    w = rng.normal(size=rcp.dim) + 1j * rng.normal(size=rcp.dim)
    yield pytest.param(rcp, conjugation_map(rcp, w), id="s3-conjugation")
    shape = (rcp.dim, rcp.dim)
    yield pytest.param(rcp, rng.normal(size=shape) + 1j * rng.normal(size=shape), id="s3-random")
    # only diagonal entries, on components of size one, and none of them real
    rcp = build_reduced(standard_systems()["z3_cycle"])
    phi = np.zeros((rcp.dim, rcp.dim), dtype=complex)
    phi[0, 0] = 1j
    yield pytest.param(rcp, phi, id="z3-imaginary-idempotent")


class TestCompletelyPositiveDenseOracle:
    @pytest.mark.parametrize("rcp, phi", oracle_cases())
    def test_matches_dense_eigh(self, rcp, phi):
        tol = 1e-9
        big = dense_cp_matrix(rcp, phi)
        scale = 1.0 + np.abs(big).max()
        hd = np.abs(big - big.conj().T).max()
        herm = (big + big.conj().T) / 2
        lam = np.linalg.eigvalsh(herm)[0]
        cert = is_completely_positive(rcp, phi, tol)
        assert cert.verdict == bool(hd <= tol * scale and lam >= -tol * scale)
        assert abs(cert.min_eigenvalue - lam) <= 1e-10 * scale
        assert abs(cert.hermitian_defect - hd) <= 1e-10 * scale
        if not cert.verdict:
            v = cert.eigenvector
            assert v.shape == (big.shape[0],)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert abs(np.vdot(v, herm @ v).real - cert.min_eigenvalue) <= 1e-10 * scale

    def test_non_block_diagonal_maps_exercised(self):
        rcp = build_reduced(assorted_small_systems()[-1])
        w = np.random.default_rng(7).normal(size=rcp.dim)
        phi = conjugation_map(rcp, w)
        n = rcp.system.n_points
        off_block = phi.copy()
        for g in range(rcp.system.group.order):
            off_block[g * n : (g + 1) * n, g * n : (g + 1) * n] = 0
        assert np.abs(off_block).max() > 0.1
        assert is_completely_positive(rcp, phi).verdict


def reference_verify_covariant(rep, tol: float = 1e-9):
    """The per-element loop :func:`verify_covariant` used to run, kept as the
    test oracle for the batched and the index versions.  Each nonzero
    residual is located at the first pair in loop order attaining it; the
    adjoint defect of pi(e_j) counts at (j, j), the unitarity defect of u(g)
    at (g, g), and the unit defect of pi comes after all pairs, at the first
    row attaining it."""
    report = CheckReport()
    bound = reference_bound(tol, [*rep.pi_mats, *rep.u_mats])
    sys_ = rep.system
    n, order, d = sys_.n_points, sys_.group.order, rep.dim
    eye = np.eye(d)

    res, where = 0.0, None
    for j in range(n):
        for k in range(n):
            target = rep.pi_mats[j] if j == k else np.zeros((d, d))
            r = max_abs(rep.pi_mats[j] @ rep.pi_mats[k] - target)
            if j == k:
                r = max(r, max_abs(rep.pi_mats[j] - rep.pi_mats[j].conj().T))
            if r > res:
                res, where = r, {"j": j, "k": k}
    for row, defect in enumerate(sum(rep.pi_mats) - eye):
        if max_abs(defect) > res:
            res, where = max_abs(defect), {"row": row}
    report.add("pi representation", res, bound, where)

    res, where = 0.0, None
    for g in range(order):
        u = rep.u_mats[g]
        for h in range(order):
            r = max_abs(rep.u_mats[sys_.group.mul(g, h)] - u @ rep.u_mats[h])
            if h == g:
                r = max(r, max_abs(u @ u.conj().T - eye))
            if r > res:
                res, where = r, {"g": g, "h": h}
    report.add("u unitary homomorphism", res, bound, where)

    res, where = 0.0, None
    for g in range(order):
        for j in range(n):
            a = np.zeros(n)
            a[j] = 1.0
            lhs = covariant_pi(rep, act_on_algebra(sys_.action, g, a))
            rhs = rep.u_mats[g] @ rep.pi_mats[j] @ rep.u_mats[g].conj().T
            r = max_abs(lhs - rhs)
            if r > res:
                res, where = r, {"g": g, "j": j}
    report.add("covariance", res, bound, where)
    return report


def covariant_cases():
    systems = list(standard_systems().values()) + assorted_small_systems()
    cases = [(f"regular/{i}", None, regular_covariant(s)) for i, s in enumerate(systems)]
    rng = np.random.default_rng(4)
    # a random unitary conjugate of a regular pair: dense, non-0/1 matrices
    reg = regular_covariant(assorted_small_systems()[-1])
    w = random_unitary(reg.dim, rng)
    dense = CovariantRep(
        reg.system,
        reg.dim,
        tuple(w @ m @ w.conj().T for m in reg.pi_mats),
        tuple(w @ m @ w.conj().T for m in reg.u_mats),
    )
    cases.append(("conjugated_s3", None, dense))
    flip = regular_covariant(sigma_system(2))
    pi, u = list(flip.pi_mats), list(flip.u_mats)
    cases += [
        ("fault/pi", "pi representation", CovariantRep(flip.system, flip.dim, (2 * pi[0], pi[1]), u)),
        # halving pi(e_0) leaves its square off by 1/4 and the unit off by 1/2
        ("fault/unit", "pi representation", CovariantRep(flip.system, flip.dim, (pi[0] / 2, pi[1]), u)),
        ("fault/u", "u unitary homomorphism", CovariantRep(flip.system, flip.dim, pi, (u[0], 1j * u[1]))),
        # u = identity is a unitary homomorphism, but does not move the points
        ("fault/covariance", "covariance", CovariantRep(flip.system, flip.dim, pi, (u[0], u[0]))),
    ]
    return cases


class TestBatchedVerifyCovariant:
    @pytest.mark.parametrize("budget", [1, fibers.BLOCK_ELEMENTS])
    @pytest.mark.parametrize("label,fault,rep", covariant_cases(), ids=lambda c: c if isinstance(c, str) else "")
    def test_matches_loop(self, label, fault, rep, budget, monkeypatch):
        # a budget of one entry takes one left factor per block
        monkeypatch.setattr(fibers, "BLOCK_ELEMENTS", budget)
        report = verify_covariant(rep)
        reference = reference_verify_covariant(rep)
        assert [c.name for c in report.checks] == [c.name for c in reference.checks]
        assert [c.passed for c in report.checks] == [c.passed for c in reference.checks]
        assert [c.tol for c in report.checks] == [c.tol for c in reference.checks]
        for b, r in zip(report.checks, reference.checks):
            assert b.residual == pytest.approx(r.residual, abs=1e-12)
        assert report.passed == (fault is None)
        if fault is not None:
            assert residual_of(report, fault) >= 0.5
        if label != "conjugated_s3":  # exact 0/1 pairs: the first maximum is the loop's
            assert [c.where for c in report.checks] == [c.where for c in reference.checks]

    def test_covariance_fault_located(self):
        reg = regular_covariant(assorted_small_systems()[-1])
        u = list(reg.u_mats)
        u[4] = u[reg.system.group.identity]  # u(4) no longer moves the points
        rep = CovariantRep(reg.system, reg.dim, reg.pi_mats, tuple(u))
        report, reference = verify_covariant(rep), reference_verify_covariant(rep)
        moved = np.flatnonzero(reg.system.action.perm[4] != np.arange(reg.system.n_points))
        assert report.checks[-1].where == reference.checks[-1].where == {"g": 4, "j": int(moved[0])}
        # u(4) = u(e) is unitary; the homomorphism law first fails at 1 * 2 = 4
        assert reg.system.group.mul(1, 2) == 4
        assert [c.where for c in report.checks] == [c.where for c in reference.checks]
        assert [c.where for c in report.checks[:-1]] == [None, {"g": 1, "h": 2}]

    def test_unit_defect_located(self):
        # fault/unit takes the dense path: the defect 1/2 is first attained at
        # row 0, which pi(e_0) of the regular sigma_2 pair holds
        rep = next(rep for label, _, rep in covariant_cases() if label == "fault/unit")
        assert crossed._monomial_pair(rep) is None
        check = verify_covariant(rep).checks[0]
        assert (check.residual, check.where) == (0.5, {"row": 0})

    def test_nan_fails(self, z2_flip):
        reg = regular_covariant(z2_flip)
        pi = [m.copy() for m in reg.pi_mats]
        pi[1][0, 1] = np.nan
        report = verify_covariant(CovariantRep(reg.system, reg.dim, tuple(pi), reg.u_mats))
        assert residual_of(report, "pi representation") == float("inf")
        assert residual_of(report, "covariance") == float("inf")


def monomial_fault_cases():
    """Faults that keep every pi(e_j) a 0/1 diagonal and every u(g) a 0/1
    permutation matrix, on the natural S_3 pair and on a relabelled copy
    whose identity is not element 0."""
    rng = np.random.default_rng(6)
    s3 = assorted_small_systems()[-1]
    cases = []
    for name, system in (("s3", s3), ("relabeled_s3", relabeled_system(s3, rng))):
        reg = regular_covariant(system)
        e = system.group.identity
        g = (e + 1) % system.group.order
        masks = [np.flatnonzero(m.diagonal()) for m in reg.pi_mats]

        def pair(pi=reg.pi_mats, u=reg.u_mats):
            return CovariantRep(system, reg.dim, tuple(pi), tuple(u))

        swapped = reg.u_mats[1][[1, 0, *range(2, reg.dim)]]
        shared = reg.pi_mats[0].copy()
        shared[masks[1][0], masks[1][0]] = 1.0
        missing = reg.pi_mats[0].copy()
        missing[masks[0][0], masks[0][0]] = 0.0
        cases += [
            (f"{name}/u(1) rows swapped", pair(u=(reg.u_mats[0], swapped, *reg.u_mats[2:]))),
            (f"{name}/row shared by two masks", pair(pi=(shared, *reg.pi_mats[1:]))),
            (f"{name}/row in no mask", pair(pi=(missing, *reg.pi_mats[1:]))),
            (f"{name}/u(g) = u(e)", pair(u=[reg.u_mats[e] if k == g else m for k, m in enumerate(reg.u_mats)])),
        ]
    # the regular sigma_3 pair with the last row of pi(e_0), row 7, zeroed
    reg = regular_covariant(sigma_system(3))
    missing = reg.pi_mats[0].copy()
    missing[7, 7] = 0.0
    faulted = CovariantRep(reg.system, reg.dim, (missing, *reg.pi_mats[1:]), reg.u_mats)
    cases.append(("sigma_3/row 7 in no mask", faulted))
    return cases


class TestIndexVerifyCovariant:
    @pytest.mark.parametrize("budget", [1, fibers.BLOCK_ELEMENTS])
    @pytest.mark.parametrize("label,rep", monomial_fault_cases(), ids=lambda c: c if isinstance(c, str) else "")
    def test_faults_match_loop_and_dense_path(self, label, rep, budget, monkeypatch):
        # a budget of one entry takes one left factor per block
        monkeypatch.setattr(fibers, "BLOCK_ELEMENTS", budget)
        assert crossed._monomial_pair(rep) is not None
        report, reference = verify_covariant(rep), reference_verify_covariant(rep)
        assert not report.passed
        summary = lambda r: [(c.name, c.residual, c.where, c.tol) for c in r.checks]  # noqa: E731
        assert summary(report) == summary(reference)
        monkeypatch.setattr(crossed, "_monomial_pair", lambda rep: None)
        assert summary(verify_covariant(rep)) == summary(reference)

    def test_fault_locations(self):
        where = {label: [c.where for c in verify_covariant(rep).checks] for label, rep in monomial_fault_cases()}
        # two masks holding row 0 of pi(e_1) overlap first at (0, 1); a row
        # in no mask breaks only the unit, which is located at that row
        assert where["s3/row shared by two masks"][0] == {"j": 0, "k": 1}
        reg = regular_covariant(assorted_small_systems()[-1])
        assert where["s3/row in no mask"][0] == {"row": int(np.flatnonzero(reg.pi_mats[0].diagonal())[0])}
        assert where["sigma_3/row 7 in no mask"][0] == {"row": 7}
        # element 1 of S_3 is the transposition of the points 1 and 2: u(1 1)
        # = u(e) fails against the square of the faulted u(1) first
        assert where["s3/u(1) rows swapped"][1] == {"g": 1, "h": 1}
        # with u(1) = u(e), u(1 h) = u(h) holds for h = e and h = 1 only, and
        # the first point element 1 moves is 1
        assert where["s3/u(g) = u(e)"][1:] == [{"g": 1, "h": 2}, {"g": 1, "j": 1}]

    def test_only_monomial_pairs_take_the_index_path(self, z3_cycle):
        reg = regular_covariant(z3_cycle)
        pi, u = list(reg.pi_mats), list(reg.u_mats)
        two_ones = u[1] + u[0]
        off_diagonal = pi[0] + np.eye(reg.dim, k=1)
        nan = pi[2].copy()
        nan[0, 0] = np.nan
        for bad_pi, bad_u in (
            ((2 * pi[0], *pi[1:]), u),
            ((off_diagonal, *pi[1:]), u),
            ((*pi[:2], nan), u),
            (pi, (u[0], 1j * u[1], u[2])),
            (pi, (u[0], two_ones, u[2])),
            (pi, (u[0], np.zeros_like(u[1]), u[2])),
        ):
            assert crossed._monomial_pair(CovariantRep(z3_cycle, reg.dim, bad_pi, bad_u)) is None
        masks, cols = crossed._monomial_pair(reg)
        assert np.array_equal(masks, [m.diagonal() == 1 for m in pi])
        assert np.array_equal(np.eye(reg.dim)[cols[1]], u[1])

    def test_regular_sigma_12_below_the_pair_itself(self):
        """The regular sigma_12 pair (D = 144) holds 7.6 MiB of matrices; its
        check stays below that, since it never stacks them."""
        rep = regular_covariant(sigma_system(12))
        pair_bytes = sum(m.nbytes for m in rep.pi_mats + rep.u_mats)
        tracemalloc.start()
        try:
            report = verify_covariant(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.worst().residual == 0.0
        assert pair_bytes > 7.5 * 2**20 and peak < pair_bytes
