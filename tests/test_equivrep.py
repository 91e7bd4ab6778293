import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cstardyn import equivrep, fibers
from cstardyn.cocycle import CocycleRep, EquivariantMap, rho_from_sigma, verify_cocycle
from cstardyn.core import DEFAULT_TOL, act_on_algebra, symmetric_action
from cstardyn.cyclic_examples import omega_example_rep, omega_system, sigma_example_rep, sigma_system
from cstardyn.equivrep import (
    CyclicVector,
    EquivariantRep,
    NotPositiveDefiniteError,
    direct_sum_reps,
    fell_absorption_unitary,
    gns_from_pd,
    is_cyclic,
    regular_rep,
    slot_embed,
    slot_restrict,
    tensor_rep,
    trivial_rep,
    unitarily_equivalent,
    verify_equivariant,
)
from cstardyn.generators import (
    assorted_small_systems,
    random_cocycle,
    random_constant_rep,
    random_equivariant_rep,
    random_unitary,
    random_vector,
    relabeled_system,
    standard_systems,
)
from cstardyn.hilbmod import (
    ModuleVector,
    SectionalModule,
    banach_stone_operator,
    basis_vector,
    module_action,
    module_norm,
)
from cstardyn.multiplier import Multiplier, coefficient, multiplier_distance, realize_via_regular, unit_multiplier
from cstardyn.numutil import matrix_rank, max_abs, nearest_unitary
from cstardyn.reporting import CheckReport

from oracles import (
    basis_vectors,
    identity_pullback,
    max_abs_over,
    null_space,
    padded_scatter,
    reference_bound,
    reference_tensor_coords,
    rho_blocks,
    same_bits,
)


def _mutate_v(rep: EquivariantRep, g: int, x: int, mat: np.ndarray) -> EquivariantRep:
    v_mats = [list(per) for per in rep.v_mats]
    v_mats[g][x] = mat
    return EquivariantRep(rep.system, rep.module, rep.rho_stack, tuple(tuple(p) for p in v_mats))


class TestVerifyEquivariant:
    def test_trivial_rep_zero_residuals(self, z2_flip):
        report = verify_equivariant(trivial_rep(z2_flip))
        assert report.passed and report.max_residual == 0.0

    def test_regular_rep_tight(self, z2_flip):
        report = verify_equivariant(regular_rep(trivial_rep(z2_flip)))
        assert report.passed and report.max_residual <= 1e-12

    def test_fault_injection_flagged(self, z2_flip):
        rep = sigma_example_rep(2)
        broken = _mutate_v(rep, 1, 0, 2.0 * rep.v_mats[1][0])
        report = verify_equivariant(broken)
        assert not report.passed
        assert report.residual_of("relation (ii) inner products") > 0.1


class TestTrivialRep:
    def test_trivial_action_fixes_fibers(self, z2_trivial):
        rep = trivial_rep(z2_trivial)
        assert np.allclose(rep.v_mats[1][0], [[1.0]])
        assert rep.system.action.apply_inv(1, 0) == 0

    def test_flip_swaps_fibers(self, z2_flip):
        rep = trivial_rep(z2_flip)
        assert np.allclose(rep.v_mats[1][0], [[1.0]])
        assert rep.system.action.apply_inv(1, 0) == 1

    def test_always_verifies(self, z3_cycle):
        assert verify_equivariant(trivial_rep(z3_cycle)).passed


class TestRegularRep:
    def test_dims(self, z2_flip):
        reg = regular_rep(trivial_rep(z2_flip))
        assert reg.module.fiber_dims == (2, 2)
        assert verify_equivariant(reg).passed

    def test_shift_of_slot_support(self, z3_cycle):
        base = trivial_rep(z3_cycle)
        reg = regular_rep(base)
        xi = slot_embed(reg, 0, ModuleVector(base.module, tuple(np.ones(1) for _ in range(3))))
        for g in range(3):
            shifted = reg.apply_v(g, xi)
            # slot h of fiber x occupies row h (base fibers are lines)
            for x in range(3):
                support = {h for h in range(3) if abs(shifted.components[x][h]) > 1e-12}
                assert support == {g}

    def test_delta_e_coefficient(self, z2_flip):
        base = trivial_rep(z2_flip)
        reg = regular_rep(base)
        one = ModuleVector(base.module, tuple(np.ones(1) for _ in range(2)))
        xi = slot_embed(reg, 0, one)
        t = coefficient(reg, xi, xi)
        assert np.allclose(t.mats[0], np.eye(2))
        assert np.allclose(t.mats[1], 0)

    @pytest.mark.parametrize("slot", [3, -1, 5])
    def test_slot_embed_refuses_a_slot_outside_the_group(self, z3_cycle, slot):
        """Slots are group elements: on lines and on wider fibers alike, a
        slot outside [0, |G|) is refused rather than dropped or wrapped."""
        for reg in (regular_rep(trivial_rep(z3_cycle)), regular_rep(regular_rep(trivial_rep(z3_cycle)))):
            vec = random_vector(reg.regular_base, np.random.default_rng(1))
            with pytest.raises(ValueError, match=r"not all in \[0, 3\)"):
                slot_embed(reg, slot, vec)

    @pytest.mark.parametrize("slot", [3, -1, 5])
    def test_slot_restrict_refuses_a_slot_outside_the_group(self, z3_cycle, slot):
        for reg in (regular_rep(trivial_rep(z3_cycle)), regular_rep(regular_rep(trivial_rep(z3_cycle)))):
            vec = random_vector(reg.module, np.random.default_rng(1))
            with pytest.raises(ValueError, match=r"not all in \[0, 3\)"):
                slot_restrict(reg, vec, [0, slot])

    def test_slot_operations_match_the_loops(self, rng):
        """slot_embed, slot_restrict and the slot sum of realize_via_regular
        equal, bit for bit, the per-fiber loops they replaced, on a base whose
        fibers have dimensions 1, 0 and 2."""
        rep = _uneven_rep()
        reg = regular_rep(rep)
        order = rep.system.group.order
        xi, eta = random_vector(rep.module, rng), random_vector(reg.module, rng)
        for h in range(order):
            assert same_bits(slot_embed(reg, h, xi).stack, reference_slot_embed(reg, h, xi).stack)
        for slots in ([], [1], [0, 2], range(order)):
            got = slot_restrict(reg, eta, slots)
            assert same_bits(got.stack, reference_slot_restrict(reg, eta, slots).stack)
        t = coefficient(rep, xi, xi)
        spread = reference_slot_embed(reg, t.support()[0], xi)
        for h in t.support()[1:]:
            spread = spread + reference_slot_embed(reg, h, xi)
        assert same_bits(realize_via_regular(t, rep, xi, xi)[1].stack, spread.stack)

    def test_regular_of_direct_sum_matches_sum_of_regulars(self, z2_flip, rng):
        a = random_equivariant_rep(z2_flip, rng, max_dim=2, allow_composites=False)
        b = random_equivariant_rep(z2_flip, rng, max_dim=2, allow_composites=False)
        lhs = regular_rep(direct_sum_reps([a, b]))
        rhs = direct_sum_reps([regular_rep(a), regular_rep(b)])
        assert lhs.module.fiber_dims == rhs.module.fiber_dims
        assert unitarily_equivalent(lhs, rhs) is not None


def reference_slot_embed(regular, h, vec):
    """The per-fiber loop ``slot_embed`` used to run, kept as its oracle."""
    order = regular.system.group.order
    comps = []
    for x, d in enumerate(regular.regular_base.fiber_dims):
        c = np.zeros(order * d, dtype=complex)
        c[h * d : (h + 1) * d] = vec.components[x]
        comps.append(c)
    return ModuleVector(regular.module, tuple(comps))


def reference_slot_restrict(regular, vec, slots):
    """The per-fiber loop ``slot_restrict`` used to run, kept as its oracle."""
    order = regular.system.group.order
    comps = []
    for x, d in enumerate(regular.regular_base.fiber_dims):
        c = vec.components[x].copy()
        for h in range(order):
            if h not in set(slots):
                c[h * d : (h + 1) * d] = 0.0
        comps.append(c)
    return ModuleVector(regular.module, tuple(comps))


class TestTensorRep:
    def test_tensor_with_trivial_preserves_dims(self, z2_flip):
        rep = sigma_example_rep(2)
        t, _ = tensor_rep(rep, trivial_rep(z2_flip))
        assert t.module.fiber_dims == rep.module.fiber_dims
        assert verify_equivariant(t).passed
        assert unitarily_equivalent(t, rep) is not None

    def test_trivial_tensor_trivial(self, z2_flip):
        t, _ = tensor_rep(trivial_rep(z2_flip), trivial_rep(z2_flip))
        assert t.module.fiber_dims == (1, 1)

    def test_tensor_with_amplified_trivial_matches_regular(self, z2_flip):
        rep = sigma_example_rep(2)
        areg = regular_rep(trivial_rep(z2_flip))
        t, _ = tensor_rep(rep, areg)
        assert t.module.fiber_dims == regular_rep(rep).module.fiber_dims


def built_reps(rep: EquivariantRep, rng) -> list[EquivariantRep]:
    """What the scatter builders make from ``rep``: its group amplification,
    its tensor product and its direct sum with the amplified trivial rep,
    and the GNS representation of one of its diagonal coefficients."""
    out = [
        regular_rep(rep),
        tensor_rep(rep, regular_rep(trivial_rep(rep.system)))[0],
        direct_sum_reps([rep, regular_rep(trivial_rep(rep.system))]),
    ]
    if rep.module.total_dim:
        xi = random_vector(rep.module, rng)
        out.append(gns_from_pd(coefficient(rep, xi, xi))[0])
    return out


class TestExactStacks:
    """The builders scatter into stacks of their exact size, which the
    representation holds as they are."""

    def test_stacks_match_padded_scatter(self, monkeypatch):
        corpus = absorption_corpus()[::3]
        made = [built_reps(rep, np.random.default_rng(i)) for i, (_, rep) in enumerate(corpus)]
        monkeypatch.setattr(fibers, "scatter", padded_scatter)
        for i, ((label, rep), got) in enumerate(zip(corpus, made)):
            for a, b in zip(got, built_reps(rep, np.random.default_rng(i))):
                assert same_bits(a.rho_stack, b.rho_stack) and same_bits(a.v_stack, b.v_stack), label

    def test_representation_holds_the_scattered_arrays(self, monkeypatch, rng):
        scatter, scattered = fibers.scatter, []

        def recording(shape, puts):
            scattered.append(scatter(shape, puts))
            return scattered[-1]

        monkeypatch.setattr(fibers, "scatter", recording)
        rep = omega_example_rep(3, 1, 2)
        for built in built_reps(rep, rng):
            for stack in (built.rho_stack, built.v_stack):
                assert any(stack is a for a in scattered)
                assert stack.flags.c_contiguous and not stack.flags.writeable

    def test_regular_rep_holds_one_copy(self):
        """``regular_rep(sigma_example_rep(8))`` peaks within a quarter of
        the stacks it keeps; a padded stack and its copy took twice that."""
        rep = sigma_example_rep(8)
        regular_rep(sigma_example_rep(2))  # numpy's lazy set-up is not the builder's
        tracemalloc.start()
        try:
            reg = regular_rep(rep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (reg.rho_stack.nbytes + reg.v_stack.nbytes)

    def test_scatter_drops_one_past_the_end(self):
        rows = np.array([0, 2, 3])
        out = fibers.scatter((2, 3), [((np.array([[0], [1]]), rows), np.arange(6).reshape(2, 3) + 1.0)])
        assert same_bits(out, np.array([[1, 0, 2], [4, 0, 5]], dtype=complex))
        assert not out.flags.writeable


class TestFellAbsorption:
    def test_trivial_rep_four_dimensional(self, z2_flip):
        w, report, (trep, _), reg = fell_absorption_unitary(trivial_rep(z2_flip))
        assert report.passed and report.max_residual <= 1e-12
        assert trep.module.total_dim == 4 == reg.module.total_dim

    def test_omega_example_rep(self):
        _, report, _, _ = fell_absorption_unitary(omega_example_rep(2, 0, 1))
        assert report.passed and report.max_residual <= 1e-12

    def test_dimension_count(self, z3_cycle, rng):
        rep = random_equivariant_rep(z3_cycle, rng, max_dim=2, allow_composites=False)
        _, report, (trep, _), reg = fell_absorption_unitary(rep)
        order = z3_cycle.group.order
        assert trep.module.total_dim == order * rep.module.total_dim == reg.module.total_dim
        assert report.passed

    def test_peak_memory_sigma_10(self):
        """The tensor product keeps its quotients only as block pieces; dense
        per-fiber copies of them took the peak to 143 MiB."""
        rep = sigma_example_rep(10)
        tracemalloc.start()
        try:
            _, report, _, _ = fell_absorption_unitary(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 125 * 2**20

    @pytest.mark.parametrize("fiber", [0, 2])
    def test_nan_block_fails(self, fiber, monkeypatch):
        """A NaN in the absorption block of one fiber is not folded away by
        the residuals of the finite blocks, and isometry names that fiber."""
        real_tensor_rep = equivrep.tensor_rep

        def poisoned(r1, r2):
            trep, tp = real_tensor_rep(r1, r2)
            pinv = tp.piece_pinv.copy()
            pinv[fiber, fiber, 0, 0] = np.nan
            return trep, dataclasses.replace(tp, piece_pinv=pinv)

        monkeypatch.setattr(equivrep, "tensor_rep", poisoned)
        _, report, _, _ = fell_absorption_unitary(sigma_example_rep(3))
        assert not report.passed
        for name in ("isometry", "surjectivity", "intertwines rho", "intertwines v", "algebra linearity"):
            assert report.residual_of(name) == math.inf, name
        assert next(c.where for c in report.checks if c.name == "isometry") == {"x": fiber}


def absorption_corpus() -> list[tuple[str, EquivariantRep]]:
    """sigma_2, 3, 5 and 8, 64 seeded random representations on the assorted
    systems and omega_2..4, and nine direct sums with omega example reps,
    most of them ragged."""
    out = [(f"sigma_{n}", sigma_example_rep(n)) for n in (2, 3, 5, 8)]
    rng = np.random.default_rng(2024)
    systems = assorted_small_systems() + [omega_system(n) for n in (2, 3, 4)]
    for i in range(64):
        out.append((f"random_{i}", random_equivariant_rep(systems[i % len(systems)], rng, max_dim=2)))
    om = omega_example_rep
    for parts in (
        (om(2, 0, 0), om(2, 1, 1)),
        (om(2, 0, 0), om(2, 0, 1)),
        (om(3, 0, 0), om(3, 2, 1)),
        (om(3, 1, 2), random_equivariant_rep(omega_system(3), rng, max_dim=2, allow_composites=False)),
        (om(3, 0, 0), om(3, 1, 1), trivial_rep(omega_system(3))),
        (om(4, 0, 0), om(4, 3, 2)),
        (om(4, 1, 3), random_equivariant_rep(omega_system(4), rng, max_dim=2, allow_composites=False)),
        (om(4, 2, 0), trivial_rep(omega_system(4))),
        (om(4, 0, 1), om(4, 0, 2), om(4, 3, 3)),
    ):
        rep = direct_sum_reps(list(parts))
        out.append(("sum_" + "_".join(map(str, rep.module.fiber_dims)), rep))
    return out


class TestTensorPiecesOracle:
    """``embed`` and the absorption unitary read the block pieces of the
    tensor product; the dense per-fiber maps they once read are the oracle."""

    @pytest.mark.parametrize("rep", [pytest.param(rep, id=label) for label, rep in absorption_corpus()])
    def test_embed_and_w_match_dense_maps(self, rep):
        w_blocks, report, (_, tp), _ = fell_absorption_unitary(rep)
        assert report.passed
        coord, pinv = reference_tensor_coords(tp)
        rng = np.random.default_rng(3)
        for _ in range(2):
            x1, x2 = random_vector(tp.left, rng), random_vector(tp.right, rng)
            z = tp.embed(x1, x2)
            for m in range(tp.module.n_points):
                want = coord[m] @ np.kron(np.concatenate(x1.components), x2.components[m])
                bound = 4 * np.finfo(float).eps * (1.0 + np.abs(want).max(initial=0.0))
                assert np.abs(z.components[m] - want).max(initial=0.0) <= bound, m
        # W at fiber p: row a * d_p + l is row (off_p + l) * |G| + a of coord_pinv[p]
        order, off = rep.system.group.order, rep.module.offsets()
        for p, d in enumerate(rep.module.fiber_dims):
            want = pinv[p][((off[p] + np.arange(d)) * order + np.arange(order)[:, None]).ravel()]
            assert same_bits(w_blocks[p], want), p


class TestGns:
    def test_unit_multiplier(self, z2_flip):
        t = unit_multiplier(z2_flip)
        rep, cyc = gns_from_pd(t)
        assert verify_equivariant(rep).passed
        assert multiplier_distance(coefficient(rep, cyc.vector, cyc.vector), t) <= 1e-12

    def test_delta_e(self, z2_flip):
        t = Multiplier(z2_flip, (np.eye(2), np.zeros((2, 2))))
        rep, cyc = gns_from_pd(t)
        assert multiplier_distance(coefficient(rep, cyc.vector, cyc.vector), t) <= 1e-12
        assert is_cyclic(rep, cyc.vector)

    def test_padded_diagonal_coefficient(self, z2_flip):
        # the same-sign rank-one family at epsilon = (1, 1), xi = eta = (1, 0)
        t = Multiplier(z2_flip, (np.array([[1.0, 0.0], [1.0, 0.0]]), np.zeros((2, 2))))
        rep, cyc = gns_from_pd(t)
        assert multiplier_distance(coefficient(rep, cyc.vector, cyc.vector), t) <= 1e-12

    def test_random_diagonal_coefficients_round_trip(self, z3_cycle, rng):
        for _ in range(5):
            src = random_equivariant_rep(z3_cycle, rng, max_dim=2)
            xi = random_vector(src.module, rng)
            t = coefficient(src, xi, xi)
            rep, cyc = gns_from_pd(t)
            scale = 1.0 + max(np.abs(m).max() for m in t.mats)
            assert multiplier_distance(coefficient(rep, cyc.vector, cyc.vector), t) <= 1e-9 * scale
            assert is_cyclic(rep, cyc.vector)
            assert verify_equivariant(rep).passed

    def test_rejects_non_pd(self, z2_trivial):
        t = Multiplier(z2_trivial, (np.zeros((2, 2)), np.eye(2)))
        with pytest.raises(NotPositiveDefiniteError) as err:
            gns_from_pd(t)
        assert err.value.certificate.verdict is False


class TestCyclicVector:
    def test_trivial_rep_unit_is_cyclic(self, z2_flip):
        rep = trivial_rep(z2_flip)
        one = ModuleVector(rep.module, tuple(np.ones(1) for _ in range(2)))
        assert is_cyclic(rep, one)
        CyclicVector(rep, one)

    def test_zero_vector_not_cyclic(self, z2_flip):
        rep = trivial_rep(z2_flip)
        zero = ModuleVector(rep.module, tuple(np.zeros(1) for _ in range(2)))
        assert not is_cyclic(rep, zero)


def reference_apply_v(rep, g, vec):
    """The per-fiber loop ``apply_v`` used to run, kept as its oracle."""
    src = rep.system.action.src[g]
    return ModuleVector(rep.module, tuple(m @ vec.components[y] for m, y in zip(rep.v_mats[g], src)))


def reference_is_cyclic(rep, vec):
    """The per-fiber loop ``is_cyclic`` used to run, kept as its oracle."""
    n, order = rep.module.n_points, rep.system.group.order
    translates = [reference_apply_v(rep, g, vec) for g in range(order)]
    for p, d in enumerate(rep.module.fiber_dims):
        if d == 0:
            continue
        cols = [rho_blocks(rep)[k][p] @ translates[g].components[p] for g in range(order) for k in range(n)]
        if matrix_rank(np.stack(cols, axis=1), DEFAULT_TOL) < d:
            return False
    return True


class TestSectionLoops:
    """apply_v and is_cyclic against the per-fiber loops they replaced.  The
    padded products sum in another order, so translates agree to rounding."""

    @staticmethod
    def reps():
        return [_uneven_rep(), omega_example_rep(4, 1, 2), sigma_example_rep(3), regular_rep(_uneven_rep())]

    def test_apply_v(self, rng):
        for rep in self.reps():
            xi = random_vector(rep.module, rng)
            for g in range(rep.system.group.order):
                got, want = rep.apply_v(g, xi).stack, reference_apply_v(rep, g, xi).stack
                assert np.abs(got - want).max(initial=0.0) <= 8 * EPS * (1 + np.abs(want).max(initial=0.0))

    def test_is_cyclic(self, rng):
        verdicts = []
        for rep in self.reps():
            dims = rep.module.fiber_dims
            point = max(range(len(dims)), key=dims.__getitem__)
            zero = 0 * random_vector(rep.module, rng)
            for vec in (random_vector(rep.module, rng), basis_vector(rep.module, point, 0), zero):
                verdicts.append(is_cyclic(rep, vec))
                assert verdicts[-1] == reference_is_cyclic(rep, vec)
        assert True in verdicts and False in verdicts


class TestUnitaryEquivalence:
    def test_self_equivalence(self):
        rep = sigma_example_rep(2)
        mats = unitarily_equivalent(rep, rep)
        assert mats is not None

    def test_conjugated_rep_found(self, rng):
        rep = sigma_example_rep(2)
        n = rep.module.n_points
        us = []
        for d in rep.module.fiber_dims:
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, r = np.linalg.qr(a)
            us.append(q * (np.diag(r) / np.abs(np.diag(r))))
        rho = tuple(tuple(us[x] @ gen[x] @ us[x].conj().T for x in range(n)) for gen in rho_blocks(rep))
        v_mats = tuple(
            tuple(
                us[x] @ rep.v_mats[g][x] @ us[rep.system.action.apply_inv(g, x)].conj().T
                for x in range(n)
            )
            for g in range(rep.system.group.order)
        )
        other = EquivariantRep(rep.system, rep.module, rho, v_mats)
        assert unitarily_equivalent(rep, other) is not None

    def test_inequivalent_reps(self, z2_trivial):
        plus = trivial_rep(z2_trivial)
        v_minus = ((np.ones((1, 1)), np.ones((1, 1))), (-np.ones((1, 1)), -np.ones((1, 1))))
        minus = EquivariantRep(z2_trivial, plus.module, plus.rho_stack, v_minus)
        assert verify_equivariant(minus).passed
        assert unitarily_equivalent(plus, minus) is None


class TestIntertwinerResidual:
    def test_nan_propagates(self):
        rep = sigma_example_rep(3)
        mats = [np.eye(d, dtype=complex) for d in rep.module.fiber_dims]
        assert equivrep._intertwiner_residual(rep, rep, mats) == 0.0
        mats[2][0, 0] = np.nan
        assert not math.isfinite(equivrep._intertwiner_residual(rep, rep, mats))


class TestRandomSuite:
    def test_random_reps_verify(self, rng):
        for system in (omega_system(2), sigma_system(2), sigma_system(3)):
            for _ in range(4):
                rep = random_equivariant_rep(system, rng)
                report = verify_equivariant(rep)
                assert report.passed, report.worst()

    def test_isometry_on_random_vectors(self, z3_cycle, rng):
        rep = random_equivariant_rep(z3_cycle, rng)
        for g in range(3):
            xi = random_vector(rep.module, rng)
            assert module_norm(rep.apply_v(g, xi)) == pytest.approx(module_norm(xi))


# --------------------------------------------------------------------------
# The batched verifier against the former per-(g, h, x) loop


def reference_verify_equivariant(rep: EquivariantRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """The per-element loop :func:`verify_equivariant` used to run, kept as
    the test oracle for the batched version."""
    report = CheckReport()
    bound = reference_bound(tol, [b for gen in rho_blocks(rep) for b in gen] + [m for per in rep.v_mats for m in per])
    sys_, mod = rep.system, rep.module
    n, order = mod.n_points, sys_.group.order
    dims = mod.fiber_dims
    eye = [np.eye(d, dtype=complex) for d in dims]

    res = 0.0
    for x in range(n):
        total = sum(gen[x] for gen in rho_blocks(rep)) if n else eye[x]
        res = max(res, max_abs(total - eye[x]))
    report.add("rho unital", res, bound)

    res = 0.0
    for k in range(n):
        for l in range(n):
            for x in range(n):
                prod = rho_blocks(rep)[k][x] @ rho_blocks(rep)[l][x]
                target = rho_blocks(rep)[k][x] if k == l else np.zeros_like(prod)
                res = max(res, max_abs(prod - target))
    report.add("rho multiplicative", res, bound)

    res = max(
        max_abs(gen[x] - gen[x].conj().T) for gen in rho_blocks(rep) for x in range(n)
    )
    report.add("rho self-adjoint", res, bound)

    res = 0.0
    for g in range(order):
        for k in range(n):
            gk = sys_.action.apply(g, k)
            for x in range(n):
                src = sys_.action.apply_inv(g, x)
                lhs = rho_blocks(rep)[gk][x] @ rep.v_mats[g][x]
                rhs = rep.v_mats[g][x] @ rho_blocks(rep)[k][src]
                res = max(res, max_abs(lhs - rhs))
    report.add("relation (i) covariance", res, bound)

    res = 0.0
    for g in range(order):
        for x in range(n):
            u = rep.v_mats[g][x]
            src = sys_.action.apply_inv(g, x)
            res = max(res, max_abs(u.conj().T @ u - np.eye(dims[src])))
            res = max(res, max_abs(u @ u.conj().T - eye[x]))
    report.add("relation (ii) inner products", res, bound)

    res = 0.0
    basis = basis_vectors(mod)
    for g in range(order):
        for k in range(n):
            a = np.zeros(n)
            a[k] = 1.0
            ag = act_on_algebra(sys_.action, g, a)
            for xi in basis:
                lhs = rep.apply_v(g, module_action(xi, a))
                rhs = module_action(rep.apply_v(g, xi), ag)
                res = max(res, max_abs(np.concatenate(lhs.components) - np.concatenate(rhs.components)))
    report.add("relation (iii) module action", res, bound)

    res = 0.0
    e = sys_.group.identity
    for x in range(n):
        res = max(res, max_abs(rep.v_mats[e][x] - eye[x]))
    report.add("v(e) identity", res, bound)

    res = 0.0
    for g in range(order):
        for h in range(order):
            gh = sys_.group.mul(g, h)
            for x in range(n):
                src_g = sys_.action.apply_inv(g, x)
                lhs = rep.v_mats[gh][x]
                rhs = rep.v_mats[g][x] @ rep.v_mats[h][src_g]
                res = max(res, max_abs(lhs - rhs))
    report.add("v homomorphism", res, bound)

    res = 0.0
    for g in range(order):
        for xi in basis:
            res = max(res, abs(module_norm(rep.apply_v(g, xi)) - module_norm(xi)))
    report.add("v isometric", res, bound)
    return report


def assert_same_report(batched: CheckReport, reference: CheckReport) -> None:
    assert [c.name for c in batched.checks] == [c.name for c in reference.checks]
    assert [c.passed for c in batched.checks] == [c.passed for c in reference.checks]
    assert [c.tol for c in batched.checks] == [c.tol for c in reference.checks]
    for b, r in zip(batched.checks, reference.checks):
        assert b.residual == pytest.approx(r.residual, abs=1e-12), b.name


def assert_located(report: CheckReport, name: str, residuals: dict, exact: bool) -> None:
    """``where`` of check ``name`` names a location attaining the residual,
    and no earlier location (in loop order) attains it; ``residuals`` maps
    each location tuple, in loop order, to its residual.  Without exact
    arithmetic, ties are only resolved up to rounding."""
    check = next(c for c in report.checks if c.name == name)
    at = tuple(check.where.values())
    assert residuals[at] == pytest.approx(check.residual, abs=0.0 if exact else 1e-12)
    for loc, value in residuals.items():
        if loc == at:
            break
        assert value < check.residual if exact else value <= check.residual + 1e-12


def _mutate_rho(rep: EquivariantRep, k: int, x: int, block: np.ndarray) -> EquivariantRep:
    blocks = [list(gen) for gen in rho_blocks(rep)]
    blocks[k][x] = block
    return EquivariantRep(rep.system, rep.module, blocks, rep.v_mats)


def _uneven_rep() -> EquivariantRep:
    """Z_3 acting trivially on three points with fibers of dimension 1, 0, 2,
    each carrying its own diagonal character."""
    system = omega_system(3)
    rng = np.random.default_rng(3)
    dims = (1, 0, 2)
    chars = [random_constant_rep(system.group, d, rng) for d in dims]
    u = tuple(tuple(chars[x][g] for x in range(3)) for g in range(3))
    c = CocycleRep(system.action, SectionalModule(system.space, dims), u)
    return rho_from_sigma(EquivariantMap(system.action, (0, 1, 2)), c)


def batched_cases():
    rng = np.random.default_rng(5)
    systems = list(standard_systems().values()) + assorted_small_systems()
    cases = []
    for i, system in enumerate(systems):
        cases.append((f"trivial/{i}", trivial_rep(system)))
        cases += [(f"random/{i}/{j}", random_equivariant_rep(system, rng, max_dim=2)) for j in range(2)]
        a = random_equivariant_rep(system, rng, max_dim=1, allow_composites=False)
        b = random_equivariant_rep(system, rng, max_dim=3, allow_composites=False)
        cases.append((f"direct_sum/{i}", direct_sum_reps([a, b])))
        if system.group.order <= 4:
            cases.append((f"regular/{i}", regular_rep(a)))
    cases += [
        ("omega_3_0_1", omega_example_rep(3, 0, 1)),
        ("omega_sum", direct_sum_reps([omega_example_rep(3, 0, 1), omega_example_rep(3, 2, 1)])),
        ("uneven", _uneven_rep()),
        ("sigma_4", sigma_example_rep(4)),
    ]
    return cases


def _dft(n: int) -> np.ndarray:
    w = np.exp(2j * np.pi / n)
    return w ** np.outer(np.arange(n), np.arange(n)) / np.sqrt(n)


def equivariant_fault_cases():
    """One fault per check name (except relation (iii), which the stored
    normal form makes exact for every finite v), on the 0/1 shift example."""
    rep = sigma_example_rep(3)
    p = [np.diag(np.eye(3)[j]).astype(complex) for j in range(3)]
    v10 = rep.v_mats[1][0]
    return [
        ("rho unital", _mutate_rho(rep, 0, 0, 2.0 * p[0])),
        ("rho multiplicative", _mutate_rho(_mutate_rho(rep, 0, 0, 0.5 * p[0]), 1, 0, p[1] + 0.5 * p[0])),
        ("rho self-adjoint", _mutate_rho(rep, 0, 0, p[0] + np.eye(3, k=1))),
        ("relation (i) covariance", _mutate_v(rep, 1, 0, _dft(3) @ v10)),
        ("relation (ii) inner products", _mutate_v(rep, 1, 0, 2.0 * v10)),
        ("v(e) identity", _mutate_v(rep, 0, 0, -np.eye(3))),
        ("v homomorphism", _mutate_v(rep, 1, 0, 1j * v10)),
        ("v isometric", _mutate_v(rep, 2, 1, 0.5 * rep.v_mats[2][1])),
    ]


def reference_v_full_matrix(rep: EquivariantRep, g: int) -> np.ndarray:
    """The per-fiber loop ``EquivariantRep.v_full_matrix`` used to run, kept
    as the oracle for :func:`banach_stone_operator` on the views of v(g)."""
    dims, off = rep.module.fiber_dims, rep.module.offsets()
    out = np.zeros((rep.module.total_dim, rep.module.total_dim), dtype=complex)
    for x in range(rep.module.n_points):
        src = rep.system.action.apply_inv(g, x)
        out[off[x] : off[x] + dims[x], off[src] : off[src] + dims[src]] = rep.v_mats[g][x]
    return out


@pytest.mark.parametrize("label,rep", batched_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_v_full_matrix_matches_loop(label, rep):
    for g in range(rep.system.group.order):
        got = banach_stone_operator(rep.module, rep.system.action.src[g], rep.v_mats[g])
        want = reference_v_full_matrix(rep, g)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def blocked_relation_iii(rep: EquivariantRep) -> float:
    """The blocked relation (iii) residual :func:`verify_equivariant` used to
    compute, kept as the oracle for its finiteness test.  On the basis
    sections e_(y,i), v(g)(e_(y,i) . e_k) is compared with
    (v(g) e_(y,i)) . alpha_g(e_k): v(g) e_(y,i) is column i of v[g][x] at the
    x with g^{-1}x = y, scaled by the coefficient at y (left) or at x of
    alpha_g(e_k) = e_{g.k} (right)."""
    action = rep.system.action
    n, order = rep.module.n_points, action.group.order
    src, points, v = action.src, np.arange(n), rep.v_stack
    d = v.shape[-1]
    worst = fibers.Worst()
    with np.errstate(invalid="ignore"):  # 0 * inf
        for lo, hi in fibers.blocks(order, n * n * d * d):
            gs = np.arange(lo, hi)
            hit = src[gs][:, :, None] == points  # (g, x, y)
            w = (v[gs][:, :, :, None, :] * hit[:, :, None, :, None])[:, None]  # (g, 1, x, row, y, i)
            for k_lo, k_hi in fibers.blocks(n, (hi - lo) * n * n * d * d):
                ks = points[k_lo:k_hi]
                left = (ks[:, None] == points)[None, :, None, None, :, None]
                right = (src[gs][:, None, :] == ks[None, :, None])[:, :, :, None, None, None]
                worst.update(np.abs(left * w - right * w).max(axis=(2, 3, 4, 5), initial=0.0), lo)
    return worst.residual


def poisoned_stack_cases():
    """Representations whose v stack holds one NaN, inf or -inf at a seeded
    position inside a fiber matrix."""
    rng = np.random.default_rng(9)
    cases = []
    for label, rep in batched_cases()[::3]:
        dims = np.asarray(rep.module.fiber_dims)
        g, x = rng.integers(rep.system.group.order), int(rng.choice(np.flatnonzero(dims)))
        y = rep.system.action.src[g, x]
        if dims[y] == 0:
            continue
        for value in (np.nan, np.inf, -np.inf):
            stack = np.array(rep.v_stack)
            stack[g, x, rng.integers(dims[x]), rng.integers(dims[y])] = value
            cases.append((f"{label}/{value}", EquivariantRep(rep.system, rep.module, rep.rho_stack, stack)))
    return cases


class TestBatchedVerifyEquivariant:
    @pytest.mark.parametrize("budget", [1, fibers.BLOCK_ELEMENTS])
    @pytest.mark.parametrize("label,rep", batched_cases(), ids=lambda c: c if isinstance(c, str) else "")
    def test_matches_loop(self, label, rep, budget, monkeypatch):
        # a budget of one entry checks every group element or pair on its own
        monkeypatch.setattr(fibers, "BLOCK_ELEMENTS", budget)
        report = verify_equivariant(rep)
        assert report.passed
        assert_same_report(report, reference_verify_equivariant(rep))

    @pytest.mark.parametrize("name,rep", equivariant_fault_cases(), ids=lambda c: c if isinstance(c, str) else "")
    def test_fault_matches_loop(self, name, rep):
        report = verify_equivariant(rep)
        assert not report.passed
        assert report.residual_of(name) > 0.1
        assert_same_report(report, reference_verify_equivariant(rep))

    @pytest.mark.parametrize("budget", [1, fibers.BLOCK_ELEMENTS])
    def test_fault_locations(self, budget, monkeypatch):
        # a budget of one entry checks every pair of group elements on its own
        monkeypatch.setattr(fibers, "BLOCK_ELEMENTS", budget)
        for name, rep in equivariant_fault_cases():
            report = verify_equivariant(rep)
            action, n, order = rep.system.action, rep.module.n_points, rep.system.group.order
            v, rho = rep.v_mats, rho_blocks(rep)
            unitary = {
                (g, x): max(
                    max_abs(v[g][x].conj().T @ v[g][x] - np.eye(v[g][x].shape[1])),
                    max_abs(v[g][x] @ v[g][x].conj().T - np.eye(v[g][x].shape[0])),
                )
                for g in range(order)
                for x in range(n)
            }
            covariance = {
                (g, k, x): max_abs(
                    rho[action.apply(g, k)][x] @ v[g][x]
                    - v[g][x] @ rho[k][action.apply_inv(g, x)]
                )
                for g in range(order)
                for k in range(n)
                for x in range(n)
            }
            hom = {
                (g, h, x): max_abs(
                    v[rep.system.group.mul(g, h)][x] - v[g][x] @ v[h][action.apply_inv(g, x)]
                )
                for g in range(order)
                for h in range(order)
                for x in range(n)
            }
            unital = {(x,): max_abs(sum(r[x] for r in rho) - np.eye(rep.module.fiber_dims[x])) for x in range(n)}
            multiplicative = {
                (k, l, x): max_abs(rho[k][x] @ rho[l][x] - (k == l) * rho[k][x])
                for k in range(n)
                for l in range(n)
                for x in range(n)
            }
            adjoint = {(k, x): max_abs(rho[k][x] - rho[k][x].conj().T) for k in range(n) for x in range(n)}
            isometric = {
                (g, x, i): abs(np.linalg.norm(v[g][x][:, i]) - 1.0)
                for g in range(order)
                for x in range(n)
                for i in range(v[g][x].shape[1])
            }
            for check, table in (
                ("rho unital", unital),
                ("rho multiplicative", multiplicative),
                ("rho self-adjoint", adjoint),
                ("relation (ii) inner products", unitary),
                ("relation (i) covariance", covariance),
                ("v homomorphism", hom),
                ("v isometric", isometric),
            ):
                if report.residual_of(check) > 0.0:
                    assert_located(report, check, table, exact=name != "relation (i) covariance")
                else:
                    assert all(c.where is None for c in report.checks if c.name == check)
        report = verify_equivariant(equivariant_fault_cases()[4][1])
        where = {c.name: c.where for c in report.checks}
        assert where["relation (ii) inner products"] == {"g": 1, "x": 0}
        assert where["v homomorphism"] == {"g": 1, "h": 1, "x": 0}
        assert where["rho unital"] is None and where["v isometric"] == {"g": 1, "x": 0, "i": 0}

    @pytest.mark.parametrize(
        "name, fault, where",
        [
            ("rho unital", lambda rep, p: _mutate_rho(rep, 1, 2, 2.0 * p[1]), {"x": 2}),
            (
                "rho multiplicative",
                # p_1 + E_12 + E_21 is Hermitian but not idempotent
                lambda rep, p: _mutate_rho(rep, 1, 2, p[1] + np.eye(3)[[0, 2, 1]] - p[0]),
                {"k": 1, "l": 1, "x": 2},
            ),
            ("rho self-adjoint", lambda rep, p: _mutate_rho(rep, 1, 2, p[1] + np.diag([0.0, 1.0], k=1)), {"k": 1, "x": 2}),
            ("v isometric", lambda rep, p: _mutate_v(rep, 2, 1, rep.v_mats[2][1] @ np.diag([1.0, 0.5, 1.0])), {"g": 2, "x": 1, "i": 1}),
        ],
        ids=lambda c: c if isinstance(c, str) else "",
    )
    def test_faulted_block_located(self, name, fault, where):
        """One faulted block past the origin: the check fails there and
        names it; no check that still passes names a location."""
        p = [np.diag(np.eye(3)[j]).astype(complex) for j in range(3)]
        report = verify_equivariant(fault(sigma_example_rep(3), p))
        check = next(c for c in report.checks if c.name == name)
        assert not check.passed and check.where == where
        assert all(c.where is None for c in report.checks if c.passed)

    def test_nan_fails(self):
        rep = sigma_example_rep(3)
        bad = rep.v_mats[1][0].copy()
        bad[0, 0] = np.nan
        report = verify_equivariant(_mutate_v(rep, 1, 0, bad))
        assert not report.passed
        for name in (
            "relation (i) covariance",
            "relation (ii) inner products",
            "relation (iii) module action",
            "v homomorphism",
            "v isometric",
        ):
            assert report.residual_of(name) == math.inf, name
        report = verify_equivariant(_mutate_rho(rep, 2, 1, np.full((3, 3), np.nan)))
        assert not report.passed
        assert report.residual_of("rho unital") == math.inf

    @pytest.mark.parametrize("budget", [1, fibers.BLOCK_ELEMENTS])
    def test_relation_iii_is_the_blocked_residual(self, budget, monkeypatch):
        monkeypatch.setattr(fibers, "BLOCK_ELEMENTS", budget)
        cases = batched_cases() + poisoned_stack_cases()
        assert sum(not np.isfinite(rep.v_stack).all() for _, rep in cases) >= 9
        for label, rep in cases:
            expected = blocked_relation_iii(rep)
            residual = verify_equivariant(rep).residual_of("relation (iii) module action")
            assert residual == (math.inf if math.isnan(expected) else expected), label
            assert residual == (0.0 if np.isfinite(rep.v_stack).all() else math.inf), label

    def test_working_set_does_not_grow_with_pairs(self):
        """Pairs of group elements are checked in blocks: on S_5 with 4-dimensional
        fibers the peak stays below one (|G|, |G|, n, d, d) complex array."""
        action = symmetric_action(5)
        c = random_cocycle(action, np.random.default_rng(1), max_dim=1)
        u = tuple(tuple(np.kron(m, np.eye(4)) for m in per) for per in c.u)
        big = CocycleRep(action, SectionalModule(action.space, (4,) * 5), u)
        rep = rho_from_sigma(EquivariantMap(action, tuple(range(5))), big)
        tracemalloc.start()
        try:
            report = verify_equivariant(rep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 120 * 120 * 5 * 4 * 4 * 16


# --------------------------------------------------------------------------
# The group law (v homomorphism, cocycle identity) against its loops


def reference_verify_cocycle(c: CocycleRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """The per-(g, h, x) loop :func:`verify_cocycle` used to run, kept as the
    oracle for ``fibers.group_law``.  Unitarity is located at the first
    (g, x) and the cocycle identity at the first (g, h, x) in loop order
    attaining the residual."""
    report = CheckReport()
    bound = reference_bound(tol, [m for per in c.u for m in per])
    action, group = c.action, c.action.group
    n, order = action.space.size, group.order

    res, where = 0.0, None
    for g in range(order):
        for x in range(n):
            u = c.u[g][x]
            r = max(max_abs(u.conj().T @ u - np.eye(u.shape[1])), max_abs(u @ u.conj().T - np.eye(u.shape[0])))
            if r > res:
                res, where = r, {"g": g, "x": x}
    report.add("unitarity", res, bound, where)

    res, where = 0.0, None
    for g in range(order):
        for h in range(order):
            gh = group.mul(g, h)
            for x in range(n):
                r = max_abs(c.u[gh][x] - c.u[g][x] @ c.u[h][action.apply_inv(g, x)])
                if r > res:
                    res, where = r, {"g": g, "h": h, "x": x}
    report.add("cocycle identity", res, bound, where)

    e = group.identity
    report.add("identity element", max(max_abs(c.u[e][x] - np.eye(len(c.u[e][x]))) for x in range(n)), bound)
    return report


def group_law_cases():
    """Cocycles on ragged fibers, on a relabelled S_3 whose identity is not
    element 0, and on the natural S_5 action."""
    rng = np.random.default_rng(21)
    ragged = omega_example_rep(4, 1, 2)
    relabeled = relabeled_system(assorted_small_systems()[-1], rng)
    return [
        ("omega_4_1_2", CocycleRep(ragged.system.action, ragged.module, ragged.v_stack)),
        ("relabeled_s3", random_cocycle(relabeled.action, rng, max_dim=2)),
        ("s5_natural", random_cocycle(symmetric_action(5), rng, max_dim=2)),
    ]


def pullback(c: CocycleRep, stack=None) -> EquivariantRep:
    """The representation of ``c`` over the identity base map, with v the
    given stack (``c``'s own by default), which need not be a cocycle."""
    rep = identity_pullback(c)
    return EquivariantRep(rep.system, rep.module, rep.rho_stack, c.u_stack if stack is None else stack)


def exact_group_law_faults():
    """0/1 cocycles (the ragged omega one, and identity cocycles on 2-dimensional
    fibers) with one matrix broken: every residual is exact, so the first
    location attaining it is well defined."""
    cases = []
    for label, c in group_law_cases():
        action, order = c.action, c.action.group.order
        if label != "omega_4_1_2":
            module = SectionalModule(action.space, (2,) * action.space.size)
            identity = fibers.padded_identity(module.fiber_dims)
            c = CocycleRep(action, module, np.broadcast_to(identity, (order, *identity.shape)))
        g = (action.group.identity + 1) % order
        x = int(np.argmax(c.module.fiber_dims))
        for fault, change in (("phase", lambda m: -m), ("scale", lambda m: 2 * m), ("swap", lambda m: m[::-1])):
            stack = np.array(c.u_stack)
            stack[g, x] = change(stack[g, x])
            cases.append((f"{label}/{fault}", c, stack))
    return cases


class TestGroupLaw:
    """Each oracle runs once per case; a budget of one entry takes one left
    element g per block."""

    @pytest.mark.parametrize("label,c", group_law_cases(), ids=lambda c: c if isinstance(c, str) else "")
    def test_matches_loop_oracles(self, label, c, monkeypatch):
        rep = pullback(c)
        reference, reference_rep = reference_verify_cocycle(c), reference_verify_equivariant(rep)
        for budget in (1, fibers.BLOCK_ELEMENTS):
            monkeypatch.setattr(fibers, "BLOCK_ELEMENTS", budget)
            report = verify_cocycle(c)
            assert report.passed
            assert_same_report(report, reference)
            assert_same_report(verify_equivariant(rep), reference_rep)

    @pytest.mark.parametrize("label,c,stack", exact_group_law_faults(), ids=lambda c: c if isinstance(c, str) else "")
    def test_exact_faults_located_as_loop(self, label, c, stack, monkeypatch):
        broken = CocycleRep(c.action, c.module, stack)
        summary = lambda r, names: [(n, r.residual_of(n), next(k.where for k in r.checks if k.name == n)) for n in names]  # noqa: E731
        reference = summary(reference_verify_cocycle(broken), ("unitarity", "cocycle identity"))
        assert reference[1][1] > 0.5
        for budget in (1, fibers.BLOCK_ELEMENTS):
            monkeypatch.setattr(fibers, "BLOCK_ELEMENTS", budget)
            assert summary(verify_cocycle(broken), ("unitarity", "cocycle identity")) == reference
            # the same laws on v of the representation over the identity map
            names = ("relation (ii) inner products", "v homomorphism")
            assert [r[1:] for r in summary(verify_equivariant(pullback(c, stack)), names)] == [r[1:] for r in reference]


# --------------------------------------------------------------------------
# Equivalence as cocycle equivalence over point pairs, against the former
# direct intertwiner search


def reference_unitarily_equivalent(
    r1: EquivariantRep, r2: EquivariantRep, tol: float = DEFAULT_TOL, attempts: int = 8, seed: int = 11
):
    """The intertwiner search :func:`unitarily_equivalent` used to run, kept
    as the test oracle for the pair-cocycle reduction: the linear equations
    of rho and v on all fibers at once, solved by one null space, and random
    null vectors projected to the nearest per-fiber unitaries."""
    if r1.system != r2.system or r1.module.fiber_dims != r2.module.fiber_dims:
        return None
    sys_ = r1.system
    n = r1.module.n_points
    dims = r1.module.fiber_dims
    var_off = [0]
    for d in dims:
        var_off.append(var_off[-1] + d * d)
    nvars = var_off[-1]
    if nvars == 0:
        return [np.zeros((0, 0), dtype=complex) for _ in range(n)]

    rows = []
    for x in range(n):
        d = dims[x]
        if d == 0:
            continue
        for k in range(n):
            # W_x A - B W_x = 0
            A = rho_blocks(r1)[k][x]
            B = rho_blocks(r2)[k][x]
            block = np.zeros((d * d, nvars), dtype=complex)
            block[:, var_off[x] : var_off[x + 1]] = np.kron(np.eye(d), A.T) - np.kron(B, np.eye(d))
            rows.append(block)
    for g in range(sys_.group.order):
        for x in range(n):
            y = sys_.action.apply_inv(g, x)
            dx, dy = dims[x], dims[y]
            if dx * dy == 0:
                continue
            block = np.zeros((dx * dy, nvars), dtype=complex)
            block[:, var_off[x] : var_off[x + 1]] += np.kron(np.eye(dx), r1.v_mats[g][x].T)
            block[:, var_off[y] : var_off[y + 1]] -= np.kron(r2.v_mats[g][x], np.eye(dy))
            rows.append(block)
    M = np.concatenate(rows, axis=0) if rows else np.zeros((0, nvars))
    basis = null_space(M, tol)
    if basis.shape[1] == 0:
        return None

    scale = _equivalence_scale(r1, r2)
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        c = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
        w = basis @ c
        mats = [nearest_unitary(w[var_off[x] : var_off[x + 1]].reshape(d, d)) for x, d in enumerate(dims)]
        if any(m is None for m in mats):
            continue
        if reference_intertwiner_residual(r1, r2, mats) <= tol * scale:
            return mats
    return None


def reference_intertwiner_residual(r1: EquivariantRep, r2: EquivariantRep, mats) -> float:
    """The per-(k, x) and per-(g, x) loop ``_intertwiner_residual`` used to
    run, kept as the oracle for the stacked version."""
    n, src = r1.module.n_points, r1.system.action.src
    return max_abs_over(
        [mats[x] @ rho_blocks(r1)[k][x] - rho_blocks(r2)[k][x] @ mats[x] for x in range(n) for k in range(n)]
        + [
            mats[x] @ r1.v_mats[g][x] - r2.v_mats[g][x] @ mats[src[g, x]]
            for g in range(r1.system.group.order)
            for x in range(n)
        ]
    )


EPS = np.finfo(float).eps


def _equivalence_scale(r1: EquivariantRep, r2: EquivariantRep) -> float:
    return 1.0 + max(
        [max_abs(b) for r in (r1, r2) for gen in rho_blocks(r) for b in gen]
        + [max_abs(u) for r in (r1, r2) for fam in r.v_mats for u in fam],
    )


def conjugated(rep: EquivariantRep, rng) -> EquivariantRep:
    """rep conjugated by one seeded random unitary per fiber."""
    dims = rep.module.fiber_dims
    w = np.zeros((len(dims), max(dims), max(dims)), dtype=complex)
    for x, d in enumerate(dims):
        w[x, :d, :d] = random_unitary(d, rng)
    wh = w.conj().swapaxes(-1, -2)
    return EquivariantRep(rep.system, rep.module, w @ rep.rho_stack @ wh, w @ rep.v_stack @ wh[rep.system.action.src])


def equivalence_corpus() -> list[tuple[str, EquivariantRep, EquivariantRep]]:
    """(label, r1, r2): on the assorted systems, sigma_2/3 and omega_2/3, a
    random representation against itself, a conjugated copy and an
    independent one, the direct sums of the two in both orders, and two
    random representations on lines against each other and against
    conjugated copies of either; sigma_example_rep(2)
    and (3) against themselves and a conjugated copy; and every unordered
    pair of the omega_example_rep(n, k, l) for n <= 4, self pairs included."""
    rng = np.random.default_rng(16)
    systems = [(f"assorted_{i}", s) for i, s in enumerate(assorted_small_systems())]
    systems += [(f"sigma_{n}", sigma_system(n)) for n in (2, 3)] + [(f"omega_{n}", omega_system(n)) for n in (2, 3)]
    cases = []
    for name, system in systems:
        a, b = (random_equivariant_rep(system, rng, max_dim=2) for _ in range(2))
        c, d = (random_equivariant_rep(system, rng, max_dim=1, allow_composites=False) for _ in range(2))
        cases += [
            (f"{name}/self", a, a),
            (f"{name}/conjugated", a, conjugated(a, rng)),
            (f"{name}/independent", a, b),
            (f"{name}/sum swapped", direct_sum_reps([a, b]), direct_sum_reps([b, a])),
            (f"{name}/lines", c, d),
            (f"{name}/lines conjugated", c, conjugated(d, rng)),
            (f"{name}/line conjugated", c, conjugated(c, rng)),
        ]
    for n in (2, 3):
        rep = sigma_example_rep(n)
        cases += [(f"sigma_example_{n}/self", rep, rep), (f"sigma_example_{n}/conjugated", rep, conjugated(rep, rng))]
    for n in range(1, 5):
        reps = [((k, l), omega_example_rep(n, k, l)) for k in range(n) for l in range(n)]
        pairs = itertools.combinations_with_replacement(reps, 2)
        cases += [(f"omega_example_{n}/{p}~{q}", r1, r2) for (p, r1), (q, r2) in pairs]
    return cases


class TestPairCocycleEquivalence:
    def test_verdicts_match_reference(self):
        corpus = equivalence_corpus()
        found = refused = 0
        for label, r1, r2 in corpus:
            mats, reference = unitarily_equivalent(r1, r2), reference_unitarily_equivalent(r1, r2)
            assert (mats is None) == (reference is None), label
            if mats is not None:
                found += 1
                # the stacked products sum the same unit-scale terms in another
                # order, and fibers here have dimension at most 5
                residual = equivrep._intertwiner_residual(r1, r2, mats)
                assert residual == pytest.approx(reference_intertwiner_residual(r1, r2, mats), abs=16 * EPS), label
                assert residual <= 1e-9 * _equivalence_scale(r1, r2), label
            refused += mats is None and r1.module.fiber_dims == r2.module.fiber_dims
        # both verdicts occur, and inequivalence not only through different
        # fiber dimensions
        assert (len(corpus), found, refused) == (273, 92, 47)

    def test_conjugated_sigma_12_within_budget(self):
        rep = sigma_example_rep(12)
        other = conjugated(rep, np.random.default_rng(3))
        tracemalloc.start()
        try:
            mats = unitarily_equivalent(rep, other)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mats is not None
        assert equivrep._intertwiner_residual(rep, other, mats) <= 1e-9 * _equivalence_scale(rep, other)
        assert peak < 64 * 2**20

    def test_different_rank_tables_none(self):
        # the identity and the translation by 1 of sigma_3 over one cocycle:
        # equal fibers, but rho(e_k) lives on fiber k in one, fiber k - 1 in the other
        system = sigma_system(3)
        c = random_cocycle(system.action, np.random.default_rng(2), max_dim=2)
        same = rho_from_sigma(EquivariantMap(system.action, (0, 1, 2)), c)
        shifted = rho_from_sigma(EquivariantMap(system.action, (1, 2, 0)), c)
        assert same.module.fiber_dims == shifted.module.fiber_dims
        assert unitarily_equivalent(same, shifted) is None
        assert reference_unitarily_equivalent(same, shifted) is None

    def test_non_idempotent_rho_raises(self):
        rep = sigma_example_rep(3)
        broken = _mutate_rho(rep, 0, 1, 2.0 * rho_blocks(rep)[0][1])
        with pytest.raises(ValueError, match="at point 1"):
            unitarily_equivalent(rep, broken)
        with pytest.raises(ValueError, match="at point 1"):
            unitarily_equivalent(broken, rep)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("point", [0, 2])
    def test_non_finite_rho_raises(self, point, value):
        # a non-finite entry makes the check's bound non-finite; it must still
        # fail at its point, not drop the fiber or end in a None
        rep = sigma_example_rep(3)
        rho = rep.rho_stack.copy()
        rho[0, point, 0, 0] = value
        bad = EquivariantRep(rep.system, rep.module, rho, rep.v_stack)
        for call in (
            lambda: tensor_rep(rep, bad),
            lambda: tensor_rep(bad, rep),
            lambda: unitarily_equivalent(bad, rep),
            lambda: unitarily_equivalent(rep, bad),
        ):
            with pytest.raises(ValueError, match=f"at point {point}$"):
                call()
