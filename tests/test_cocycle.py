import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cstardyn.cocycle import (
    _decode_map,
    CocycleRep,
    EquivariantMap,
    NotBanachStoneError,
    banach_stone_extract,
    banach_stone_operator,
    cocycle_equivalent,
    equivariant_maps,
    rho_from_sigma,
    verify_cocycle,
)
from cstardyn.cyclic_examples import (
    omega_cocycle,
    omega_example_rep,
    omega_system,
    shift_matrix,
    sigma_cocycle,
    sigma_example_rep,
    sigma_system,
)
from cstardyn import cocycle, fibers
from cstardyn.core import DEFAULT_TOL, GroupAction, System, symmetric_action
from cstardyn.equivrep import trivial_rep, verify_equivariant
from cstardyn.generators import (
    assorted_small_systems,
    random_cocycle,
    random_equivariant_rep,
    random_unitary,
    standard_systems,
)
from cstardyn.hilbmod import SectionalModule
from cstardyn.numutil import max_abs, nearest_unitary
from cstardyn.reporting import CheckReport

from oracles import identity_pullback, max_abs_over, null_space, reference_bound, relabeled_system, residual_of, rho_blocks


def _identity_cocycle(action, dims):
    module = SectionalModule(action.space, dims)
    u = tuple(
        tuple(np.eye(dims[x], dims[action.apply_inv(g, x)], dtype=complex) for x in range(action.space.size))
        for g in range(action.group.order)
    )
    return CocycleRep(action, module, u)


class TestVerifyCocycle:
    def test_shift_cocycle_exact(self):
        for n in (2, 3, 4):
            report = verify_cocycle(sigma_cocycle(n))
            assert report.passed and report.worst().residual == 0.0

    def test_identity_cocycle(self, z3_cycle):
        report = verify_cocycle(_identity_cocycle(z3_cycle.action, (2, 2, 2)))
        assert report.passed

    def test_fault_injection(self):
        n = 3
        c = sigma_cocycle(n)
        u = [list(per) for per in c.u]
        u[2] = [shift_matrix(n)] * n  # should be shift^2
        broken = CocycleRep(c.action, c.module, tuple(tuple(p) for p in u))
        report = verify_cocycle(broken)
        assert not report.passed
        assert residual_of(report, "cocycle identity") >= 1.0


class TestVToCocycle:
    """The group part of an equivariant representation, read as a cocycle."""

    def test_trivial_rep_flip(self, z2_flip):
        rep = trivial_rep(z2_flip)
        c = CocycleRep(rep.system.action, rep.module, rep.v_stack)
        assert verify_cocycle(c).passed
        assert np.allclose(c.u[1][0], [[1.0]])
        assert c.action.src[1][0] == 1

    def test_sigma_example_rep(self):
        for n in (2, 3):
            rep = sigma_example_rep(n)
            c = CocycleRep(rep.system.action, rep.module, rep.v_stack)
            assert verify_cocycle(c).passed
            assert np.allclose(c.u[1][0], shift_matrix(n))

    def test_non_unitary_matrices(self):
        rep = sigma_example_rep(2)
        v = np.array(rep.v_stack)
        v[1, 0] *= 2.0
        unitarity = verify_cocycle(CocycleRep(rep.system.action, rep.module, v)).checks[0]
        assert unitarity.name == "unitarity" and not unitarity.passed
        assert unitarity.where == {"g": 1, "x": 0}

    def test_nan_entry_is_a_unitarity_violation(self):
        rep = sigma_example_rep(3)
        v = np.array(rep.v_stack)
        v[1, 0, 0, 0] = np.nan
        unitarity = verify_cocycle(CocycleRep(rep.system.action, rep.module, v)).checks[0]
        assert unitarity.name == "unitarity" and math.isinf(unitarity.residual)
        assert unitarity.where == {"g": 1, "x": 0}


class TestCocycleToV:
    """A cocycle read as the group part of the representation it induces
    over the identity map."""

    def test_identity_cocycle_gives_permutation_operators(self, z3_cycle):
        rep = identity_pullback(_identity_cocycle(z3_cycle.action, (1, 1, 1)))
        for g in range(3):
            for x in range(3):
                assert np.allclose(rep.v_mats[g][x], [[1.0]])

    def test_shift_cocycle_gives_cyclic_shift(self):
        n = 3
        rep = sigma_example_rep(n)
        back = identity_pullback(sigma_cocycle(n))
        for g in range(n):
            for x in range(n):
                assert np.array_equal(back.v_mats[g][x], rep.v_mats[g][x])

    def test_round_trip_exact(self, z3_cycle, rng):
        c = random_cocycle(z3_cycle.action, rng)
        rep = identity_pullback(c)
        back = CocycleRep(rep.system.action, rep.module, rep.v_stack)
        assert back.u_stack is c.u_stack
        for g in range(3):
            for x in range(3):
                assert np.array_equal(back.u[g][x], c.u[g][x])

    def test_homomorphism_residual(self, z3_cycle, rng):
        rep = identity_pullback(random_cocycle(z3_cycle.action, rng))
        group = z3_cycle.group
        res = 0.0
        for g in range(3):
            for h in range(3):
                gh = group.mul(g, h)
                for x in range(3):
                    src = z3_cycle.action.apply_inv(g, x)
                    res = max(
                        res,
                        np.abs(
                            rep.v_mats[gh][x] - rep.v_mats[g][x] @ rep.v_mats[h][src]
                        ).max(),
                    )
        assert res <= 1e-12

    def test_invalid_cocycle_rejected(self):
        n = 3
        c = sigma_cocycle(n)
        u = [list(per) for per in c.u]
        u[2] = [shift_matrix(n)] * n
        broken = CocycleRep(c.action, c.module, tuple(tuple(p) for p in u))
        with pytest.raises(ValueError, match="cocycle"):
            identity_pullback(broken)


class TestCocycleEquivalence:
    def test_self(self, z3_cycle, rng):
        c = random_cocycle(z3_cycle.action, rng)
        mats = cocycle_equivalent(c, c)
        assert mats is not None

    def test_conjugate_found(self, z3_cycle, rng):
        c = random_cocycle(z3_cycle.action, rng)
        dims = c.module.fiber_dims
        w = [random_unitary(d, rng) for d in dims]
        u2 = tuple(
            tuple(
                w[x] @ c.u[g][x] @ w[z3_cycle.action.apply_inv(g, x)].conj().T
                for x in range(3)
            )
            for g in range(3)
        )
        other = CocycleRep(c.action, c.module, u2)
        mats = cocycle_equivalent(c, other)
        assert mats is not None
        for g in range(3):
            for x in range(3):
                y = z3_cycle.action.apply_inv(g, x)
                assert np.allclose(mats[x] @ c.u[g][x], other.u[g][x] @ mats[y], atol=1e-9)

    def test_distinct_characters_none(self, z2_trivial):
        action = z2_trivial.action
        plus = _identity_cocycle(action, (1, 1))
        u_minus = ((np.eye(1), np.eye(1)), (-np.eye(1), -np.eye(1)))
        minus = CocycleRep(action, plus.module, u_minus)
        assert verify_cocycle(minus).passed
        assert cocycle_equivalent(plus, minus) is None


def reference_cocycle_equivalent(c1, c2, tol=DEFAULT_TOL, attempts=8, seed=13):
    """The search :func:`cocycle_equivalent` used to run, kept as the oracle
    of the orbit construction: the linear intertwiner system over every
    (g, x), solved by one null space, and random null vectors projected to
    the nearest per-fiber unitaries."""
    if c1.action != c2.action or c1.module.fiber_dims != c2.module.fiber_dims:
        return None
    action = c1.action
    n = action.space.size
    dims = c1.module.fiber_dims
    var_off = [0]
    for d in dims:
        var_off.append(var_off[-1] + d * d)
    nvars = var_off[-1]
    if nvars == 0:
        return [np.zeros((0, 0), dtype=complex) for _ in range(n)]

    rows = []
    for g in range(action.group.order):
        for x in range(n):
            y = action.apply_inv(g, x)
            dx, dy = dims[x], dims[y]
            if dx * dy == 0:
                continue
            block = np.zeros((dx * dy, nvars), dtype=complex)
            block[:, var_off[x] : var_off[x + 1]] += np.kron(np.eye(dx), c1.u[g][x].T)
            block[:, var_off[y] : var_off[y + 1]] -= np.kron(c2.u[g][x], np.eye(dy))
            rows.append(block)
    m = np.concatenate(rows, axis=0) if rows else np.zeros((0, nvars))
    basis = null_space(m, tol)
    if basis.shape[1] == 0:
        return None

    scale = 1.0 + max((max_abs(u) for c in (c1, c2) for fam in c.u for u in fam), default=0.0)
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        coeffs = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
        w = basis @ coeffs
        mats = [nearest_unitary(w[var_off[x] : var_off[x + 1]].reshape(d, d)) for x, d in enumerate(dims)]
        if any(m is None for m in mats):
            continue
        if cocycle_residual(c1, c2, mats) <= tol * scale:
            return mats
    return None


def cocycle_residual(c1: CocycleRep, c2: CocycleRep, mats) -> float:
    """max |U(x) u1(x, g) - u2(x, g) U(g^-1 x)| over all (g, x), by loops."""
    action = c1.action
    return max_abs_over(
        mats[x] @ c1.u[g][x] - c2.u[g][x] @ mats[action.apply_inv(g, x)]
        for g in range(action.group.order)
        for x in range(action.space.size)
    )


def cocycle_scale(c1: CocycleRep, c2: CocycleRep) -> float:
    return 1.0 + max(max_abs(c1.u_stack), max_abs(c2.u_stack))


def conjugated_cocycle(c: CocycleRep, rng) -> CocycleRep:
    """u(x, g) conjugated to W_x u(x, g) W_{g^-1 x}* by random unitaries W."""
    dims = c.module.fiber_dims
    w = np.zeros((len(dims),) + (max(dims),) * 2, dtype=complex)
    for x, d in enumerate(dims):
        w[x, :d, :d] = random_unitary(d, rng)
    return CocycleRep(c.action, c.module, w @ c.u_stack @ w[c.action.src].conj().swapaxes(-1, -2))


def equivalence_systems() -> list[tuple[str, System]]:
    """The assorted systems, sigma_2..4, omega_2..3 and the natural actions
    of S_3 and S_4, and a relabelled copy of each with the identity not
    element 0."""
    systems = [(f"assorted_{i}", s) for i, s in enumerate(assorted_small_systems())]
    systems += [(f"sigma_{n}", sigma_system(n)) for n in (2, 3, 4)] + [(f"omega_{n}", omega_system(n)) for n in (2, 3)]
    systems += [(f"natural_s{m}", System(symmetric_action(m))) for m in (3, 4)]
    rng = np.random.default_rng(17)
    return systems + [(f"relabeled_{name}", relabeled_system(s, rng)) for name, s in systems]


def equivalence_pairs(index: int, system: System) -> list[tuple[str, CocycleRep, CocycleRep]]:
    """Three random cocycles on fibers of dimension 1 or 2 and the cocycle of
    a random representation (fibers that differ along the base, some of
    them zero), each against itself, a conjugated copy and the other three."""
    rng = np.random.default_rng(100 + index)
    cocycles = [random_cocycle(system.action, rng, max_dim=2) for _ in range(3)]
    rep = random_equivariant_rep(system, rng, max_dim=2)
    cocycles.append(CocycleRep(rep.system.action, rep.module, rep.v_stack))
    pairs = []
    for i, a in enumerate(cocycles):
        pairs += [(f"{i}/self", a, a), (f"{i}/conjugated", a, conjugated_cocycle(a, rng))]
        pairs += [(f"{i}~{j}", a, b) for j, b in enumerate(cocycles) if j != i]
    return pairs


def induced_cocycle(action: GroupAction, chi) -> CocycleRep:
    """The cocycle of a transitive action induced from a character chi of
    the stabilizer of point 0 (Mackey): u(x, g) = chi(c_x^-1 g c_{g^-1 x}),
    c_x the first element sending 0 to x, on one-dimensional fibers."""
    group, n = action.group, action.space.size
    carrier = [int(np.flatnonzero(action.perm[:, 0] == x)[0]) for x in range(n)]
    u = np.zeros((group.order, n, 1, 1), dtype=complex)
    for g in range(group.order):
        for x in range(n):
            s = group.mul(group.mul(int(group.inverse[carrier[x]]), g), carrier[action.apply_inv(g, x)])
            assert action.apply(s, 0) == 0
            u[g, x] = chi(s)
    c = CocycleRep(action, SectionalModule(action.space, (1,) * n), u)
    assert verify_cocycle(c).passed
    return c


class TestOrbitEquivalence:
    @pytest.mark.parametrize(
        "index,label,system",
        [(i, *case) for i, case in enumerate(equivalence_systems())],
        ids=lambda c: c if isinstance(c, str) else "",
    )
    def test_verdicts_match_reference(self, index, label, system):
        for name, c1, c2 in equivalence_pairs(index, system):
            mats, reference = cocycle_equivalent(c1, c2), reference_cocycle_equivalent(c1, c2)
            assert (mats is None) == (reference is None), name
            if mats is not None:
                assert cocycle_residual(c1, c2, mats) <= 1e-9 * cocycle_scale(c1, c2), name
                for m in mats:
                    assert np.allclose(m.conj().T @ m, np.eye(len(m)), atol=1e-12), name

    def test_both_verdicts_occur(self):
        found = refused = total = 0
        for index, (_, system) in enumerate(equivalence_systems()):
            for _, c1, c2 in equivalence_pairs(index, system):
                mats = cocycle_equivalent(c1, c2)
                total += 1
                found += mats is not None
                refused += mats is None and c1.module.fiber_dims == c2.module.fiber_dims
        assert (total, found, refused) == (560, 352, 34)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_omega_cocycles_match_reference(self, n):
        # one fat fiber and zero-dimensional fibers elsewhere
        for k, l in itertools.product(range(n), repeat=2):
            c1, c2 = omega_cocycle(n, k), omega_cocycle(n, l)
            mats, reference = cocycle_equivalent(c1, c2), reference_cocycle_equivalent(c1, c2)
            assert (mats is None) == (reference is None) == (k != l), (k, l)
            if mats is not None:
                assert cocycle_residual(c1, c2, mats) <= 1e-9 * cocycle_scale(c1, c2)

    def test_induced_characters_of_a_stabilizer(self):
        # Stab(0) of S_3 on three letters is Z_2: its trivial and sign
        # characters induce cocycles with equal fibers and distinct characters
        action = symmetric_action(3)
        trivial = induced_cocycle(action, lambda s: 1.0)
        sign = induced_cocycle(action, lambda s: np.linalg.det(np.eye(3)[action.perm[s]]))
        assert trivial.module.fiber_dims == sign.module.fiber_dims
        assert cocycle_equivalent(trivial, sign) is None and reference_cocycle_equivalent(trivial, sign) is None
        for c in (trivial, sign):
            other = conjugated_cocycle(c, np.random.default_rng(4))
            mats = cocycle_equivalent(c, other)
            assert mats is not None and cocycle_residual(c, other, mats) <= 1e-9 * cocycle_scale(c, other)

    def test_conjugated_sigma_12_within_budget(self):
        rep = sigma_example_rep(12)
        c = CocycleRep(rep.system.action, rep.module, rep.v_stack)
        other = conjugated_cocycle(c, np.random.default_rng(12))
        tracemalloc.start()
        try:
            mats = cocycle_equivalent(c, other)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mats is not None
        assert cocycle_residual(c, other, mats) <= 1e-9 * cocycle_scale(c, other)
        assert peak < 8 * 2**20

    def test_no_attempts_finds_nothing(self, monkeypatch):
        c = random_cocycle(sigma_system(3).action, np.random.default_rng(6))
        assert cocycle_equivalent(c, c) is not None
        monkeypatch.setattr(cocycle, "_ATTEMPTS", 0)
        assert cocycle_equivalent(c, c) is None
        assert reference_cocycle_equivalent(c, c, attempts=0) is None


class TestEquivariantMap:
    def test_identity_always_works(self, z3_cycle):
        EquivariantMap(z3_cycle.action, (0, 1, 2))

    def test_translations_for_free_action(self, z3_cycle):
        maps = equivariant_maps(z3_cycle.action)
        assert len(maps) == 3  # exactly the translations
        for m in maps:
            shift = (m.sigma[0] - 0) % 3
            assert all(m.sigma[x] == (x + shift) % 3 for x in range(3))

    def test_non_equivariant_rejected(self, z3_cycle):
        with pytest.raises(ValueError, match=r"\(g, x\) = \(\d, \d\)"):
            EquivariantMap(z3_cycle.action, (0, 0, 1))


def reference_equivariant_maps(action) -> list[EquivariantMap]:
    """The brute-force enumeration :func:`equivariant_maps` used to run, kept
    as the test oracle: every one of the n^n self-maps, in lexicographic
    order, that passes the equivariance check."""
    n = action.space.size
    out = []
    for sigma in itertools.product(range(n), repeat=n):
        try:
            out.append(EquivariantMap(action, sigma))
        except ValueError:
            continue
    return out


def map_systems() -> list[tuple[str, System]]:
    """The assorted systems, omega_1..5, sigma_1..6 and the natural actions of
    S_3 and S_4, and a relabelled copy of each with the identity not element 0."""
    systems = [(f"assorted_{i}", s) for i, s in enumerate(assorted_small_systems())]
    systems += [(f"omega_{n}", omega_system(n)) for n in range(1, 6)]
    systems += [(f"sigma_{n}", sigma_system(n)) for n in range(1, 7)]
    systems += [(f"natural_s{m}", System(symmetric_action(m))) for m in (3, 4)]
    rng = np.random.default_rng(9)
    return systems + [(f"relabeled_{name}", relabeled_system(s, rng)) for name, s in systems]


class TestEquivariantMapsFromOrbits:
    @pytest.mark.parametrize("label,system", map_systems(), ids=lambda c: c if isinstance(c, str) else "")
    def test_matches_brute_force_and_decoding(self, label, system):
        reference = [m.sigma for m in reference_equivariant_maps(system.action)]
        assert [m.sigma for m in equivariant_maps(system.action)] == reference
        assert [_decode_map(system.action, k).sigma for k in range(len(reference))] == reference

    def test_seeded_draw_unchanged(self):
        # random_equivariant_rep draws an index into equivariant_maps, so its
        # seeded representations are those drawn from the listed maps
        for _, system in map_systems():
            if system.n_points > 4:
                continue
            rep = random_equivariant_rep(system, np.random.default_rng(5), allow_composites=False)
            rng = np.random.default_rng(5)
            maps = reference_equivariant_maps(system.action)
            sigma = maps[int(rng.integers(0, len(maps)))]
            want = rho_from_sigma(sigma, random_cocycle(system.action, rng, 3))
            assert np.array_equal(rep.rho_stack, want.rho_stack) and np.array_equal(rep.v_stack, want.v_stack)

    @pytest.mark.parametrize("n", [8, 12])
    def test_random_rep_on_large_shift_systems(self, n):
        # sigma_8 alone has 8^8 candidate self-maps, so the draw lists none
        rep = random_equivariant_rep(sigma_system(n), np.random.default_rng(n))
        assert verify_equivariant(rep).passed


class TestRhoFromSigma:
    def test_identity_map_on_flip_system(self, z2_flip):
        sigma = EquivariantMap(z2_flip.action, (0, 1))
        rep = rho_from_sigma(sigma, sigma_cocycle(2))
        assert verify_equivariant(rep).passed
        # algebra part acts by scalars per fiber: projection onto sigma-preimages
        assert np.allclose(rho_blocks(rep)[0][0], np.eye(2))
        assert np.allclose(rho_blocks(rep)[0][1], 0)

    def test_constant_map_gives_concentrated_example(self):
        n, k, l = 3, 1, 2
        rep = omega_example_rep(n, k, l)
        assert verify_equivariant(rep).passed
        assert rep.module.fiber_dims == (0, n, 0)
        assert np.allclose(rho_blocks(rep)[l][k], np.eye(n))

    def test_translation_map_valid(self):
        n = 4
        system = sigma_system(n)
        sigma = EquivariantMap(system.action, tuple((x + 1) % n for x in range(n)))
        rep = rho_from_sigma(sigma, sigma_cocycle(n))
        assert verify_equivariant(rep).passed

    def test_non_equivariant_map_raises(self, z3_cycle):
        with pytest.raises(ValueError, match="not equivariant"):
            EquivariantMap(z3_cycle.action, (0, 0, 0))


class TestBanachStone:
    def test_identity(self):
        mod = SectionalModule(sigma_system(3).space, (2, 2, 2))
        sigma, u = banach_stone_extract(np.eye(6), mod)
        assert sigma == (0, 1, 2)
        for x in range(3):
            assert np.allclose(u[x], np.eye(2))

    def test_inverts_group_element(self):
        rep = sigma_example_rep(3)
        for g in range(3):
            v = banach_stone_operator(rep.module, rep.system.action.src[g], rep.v_mats[g])
            sigma, u = banach_stone_extract(v, rep.module)
            for x in range(3):
                assert sigma[x] == rep.system.action.apply_inv(g, x)
                assert np.allclose(u[x], rep.v_mats[g][x], atol=1e-12)

    def test_inverts_construction(self, rng):
        mod = SectionalModule(omega_system(3).space, (2, 1, 2))
        perm = (2, 1, 0)  # must match dimensions: 2<->2, 1->1
        u = [random_unitary(mod.fiber_dims[x], rng) for x in range(3)]
        v = banach_stone_operator(mod, perm, u)
        sigma, u_back = banach_stone_extract(v, mod)
        assert sigma == perm
        for x in range(3):
            assert np.allclose(u_back[x], u[x], atol=1e-12)

    def test_scaling_rejected(self):
        mod = SectionalModule(omega_system(2).space, (1, 1))
        with pytest.raises(NotBanachStoneError, match="unitary|isometry"):
            banach_stone_extract(2.0 * np.eye(2), mod)

    def test_smeared_support_rejected(self):
        mod = SectionalModule(omega_system(2).space, (1, 1))
        smeared = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        with pytest.raises(NotBanachStoneError, match="single point"):
            banach_stone_extract(smeared, mod)

    def test_zero_dim_fibers(self):
        mod = SectionalModule(omega_system(3).space, (0, 2, 0))
        v = np.eye(2)
        sigma, u = banach_stone_extract(v, mod)
        assert sigma[1] == 1
        assert sorted((sigma[0], sigma[2])) == [0, 2]


class TestOmegaCocycle:
    def test_concentrated_shift_cocycle(self):
        c = omega_cocycle(3, 1)
        assert verify_cocycle(c).passed
        assert c.u[1][1].shape == (3, 3)
        assert c.u[1][0].shape == (0, 0)


class TestHomomorphismIffCocycle:
    """The induced maps multiply like the group exactly when the cocycle
    identity holds; a broken cocycle breaks the homomorphism law."""

    @staticmethod
    def _v_matrix(action, module, u, g):
        dims = module.fiber_dims
        off = module.offsets()
        total = module.total_dim
        out = np.zeros((total, total), dtype=complex)
        for x in range(action.space.size):
            src = action.apply_inv(g, x)
            out[off[x] : off[x] + dims[x], off[src] : off[src] + dims[src]] = u[g][x]
        return out

    def test_valid_cocycle_gives_homomorphism(self, z3_cycle, rng):
        c = random_cocycle(z3_cycle.action, rng)
        mats = [self._v_matrix(z3_cycle.action, c.module, c.u, g) for g in range(3)]
        for g in range(3):
            for h in range(3):
                gh = z3_cycle.group.mul(g, h)
                assert np.abs(mats[gh] - mats[g] @ mats[h]).max() <= 1e-12

    def test_broken_cocycle_breaks_homomorphism(self):
        n = 3
        c = sigma_cocycle(n)
        u = [list(per) for per in c.u]
        u[2] = [shift_matrix(n)] * n  # injected fault: should be shift^2
        broken = tuple(tuple(p) for p in u)
        assert not verify_cocycle(CocycleRep(c.action, c.module, broken)).passed
        action = c.action
        mats = [self._v_matrix(action, c.module, broken, g) for g in range(n)]
        residual = max(
            np.abs(mats[action.group.mul(g, h)] - mats[g] @ mats[h]).max()
            for g in range(n)
            for h in range(n)
        )
        assert residual >= 1.0


# --------------------------------------------------------------------------
# The batched verifier against the former per-(g, h, x) loop


def reference_verify_cocycle(c: CocycleRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """The per-element loop :func:`verify_cocycle` used to run, kept as the
    test oracle for the batched version."""
    report = CheckReport()
    bound = reference_bound(tol, [m for per in c.u for m in per])
    action = c.action
    group = action.group
    n = action.space.size
    dims = c.module.fiber_dims

    res = 0.0
    for g in range(group.order):
        for x in range(n):
            u = c.u[g][x]
            src = action.apply_inv(g, x)
            res = max(res, max_abs(u.conj().T @ u - np.eye(dims[src])))
            res = max(res, max_abs(u @ u.conj().T - np.eye(dims[x])))
    report.add("unitarity", res, bound)

    res = 0.0
    for g in range(group.order):
        for h in range(group.order):
            gh = group.mul(g, h)
            for x in range(n):
                src_g = action.apply_inv(g, x)
                res = max(res, max_abs(c.u[gh][x] - c.u[g][x] @ c.u[h][src_g]))
    report.add("cocycle identity", res, bound)

    res = 0.0
    for x in range(n):
        res = max(res, max_abs(c.u[group.identity][x] - np.eye(dims[x])))
    report.add("identity element", res, bound)
    return report


def _replace(c: CocycleRep, g: int, x: int, mat: np.ndarray) -> CocycleRep:
    u = [list(per) for per in c.u]
    u[g][x] = mat
    return CocycleRep(c.action, c.module, tuple(tuple(p) for p in u))


def cocycle_cases():
    rng = np.random.default_rng(9)
    systems = list(standard_systems().values()) + assorted_small_systems()
    cases = [(f"random/{i}/{j}", random_cocycle(s.action, rng)) for i, s in enumerate(systems) for j in range(2)]
    trivial3 = omega_system(3).action
    cases += [
        ("omega_3_1", omega_cocycle(3, 1)),
        ("sigma_4", sigma_cocycle(4)),
        ("identity_uneven", _identity_cocycle(trivial3, (1, 0, 2))),
        ("identity_empty", _identity_cocycle(trivial3, (0, 0, 0))),
    ]
    return cases


def cocycle_fault_cases():
    c = sigma_cocycle(3)
    return [
        ("unitarity", _replace(c, 1, 0, 2.0 * c.u[1][0])),
        ("cocycle identity", _replace(c, 2, 1, shift_matrix(3))),
        ("identity element", _replace(c, 0, 2, -np.eye(3))),
    ]


def _ids(case):
    return case if isinstance(case, str) else ""


class TestBatchedVerifyCocycle:
    @pytest.mark.parametrize("budget", [1, fibers.BLOCK_ELEMENTS])
    @pytest.mark.parametrize("label,c", cocycle_cases(), ids=_ids)
    def test_matches_loop(self, label, c, budget, monkeypatch):
        monkeypatch.setattr(fibers, "BLOCK_ELEMENTS", budget)
        report = verify_cocycle(c)
        reference = reference_verify_cocycle(c)
        assert report.passed
        assert [x.name for x in report.checks] == [x.name for x in reference.checks]
        assert [x.tol for x in report.checks] == [x.tol for x in reference.checks]
        for b, r in zip(report.checks, reference.checks):
            assert b.residual == pytest.approx(r.residual, abs=1e-12)

    @pytest.mark.parametrize("name,c", cocycle_fault_cases(), ids=_ids)
    def test_fault_matches_loop(self, name, c):
        report = verify_cocycle(c)
        reference = reference_verify_cocycle(c)
        assert residual_of(report, name) >= 1.0
        assert [x.name for x in report.checks] == [x.name for x in reference.checks]
        assert [x.passed for x in report.checks] == [x.passed for x in reference.checks]
        assert [x.tol for x in report.checks] == [x.tol for x in reference.checks]
        for b, r in zip(report.checks, reference.checks):
            assert b.residual == pytest.approx(r.residual, abs=1e-12)

    @pytest.mark.parametrize("budget", [1, fibers.BLOCK_ELEMENTS])
    def test_fault_locations(self, budget, monkeypatch):
        monkeypatch.setattr(fibers, "BLOCK_ELEMENTS", budget)
        unitary, cocycle, identity = (verify_cocycle(c) for _, c in cocycle_fault_cases())
        assert unitary.as_dict()["checks"][0]["where"] == {"g": 1, "x": 0}
        # u[2][1] is wrong: u(1, 2) = u(1, 1) u(0, 1) is the first broken identity
        assert cocycle.as_dict()["checks"][1]["where"] == {"g": 1, "h": 1, "x": 1}
        assert "where" not in identity.as_dict()["checks"][2]
        assert all("where" not in check for check in verify_cocycle(sigma_cocycle(3)).as_dict()["checks"])

    def test_nan_fails(self):
        c = sigma_cocycle(3)
        bad = c.u[1][0].copy()
        bad[1, 1] = np.nan
        report = verify_cocycle(_replace(c, 1, 0, bad))
        assert not report.passed
        assert residual_of(report, "unitarity") == math.inf
        assert residual_of(report, "cocycle identity") == math.inf
