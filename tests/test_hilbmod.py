import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstardyn import fibers
from cstardyn.core import DEFAULT_TOL, FiniteSpace
from cstardyn.hilbmod import (
    ModuleVector,
    NotAModuleError,
    SectionalModule,
    basis_vector,
    direct_sum,
    inner_product,
    internal_tensor,
    module_action,
    module_norm,
    random_vector,
    sectionalize,
    trivial_module,
    _check_projection_rep,
)
from cstardyn.generators import random_unitary
from oracles import basis_vectors, same_bits


def vec(module, *comps):
    return ModuleVector(module, tuple(np.asarray(c, dtype=complex) for c in comps))


def zero_vector(module):
    return ModuleVector(module, tuple(np.zeros(d, dtype=complex) for d in module.fiber_dims))


def canonical_rep(module) -> list:
    """Blocks ``[k][x]`` of the pointwise-scalar representation of C^n: e_k
    acts as the identity on fiber k and zero elsewhere."""
    return [[np.eye(d) * (x == k) for x, d in enumerate(module.fiber_dims)] for k in module.space.points()]


def direct_sum_embed(modules, index: int, vec: ModuleVector) -> ModuleVector:
    """Canonical injection of the index-th summand into the direct sum."""
    parts = [
        [vec.components[x] if i == index else np.zeros(d, dtype=complex) for i, d in enumerate(dims)]
        for x, dims in enumerate(zip(*(m.fiber_dims for m in modules)))
    ]
    return ModuleVector(direct_sum(modules), tuple(np.concatenate(p) for p in parts))


class TestInnerProduct:
    def setup_method(self):
        self.mod = SectionalModule(FiniteSpace(2), (2, 2))

    def test_unit_vectors(self):
        xi = vec(self.mod, [1, 0], [1, 0])
        assert np.allclose(inner_product(xi, xi), [1, 1])

    def test_orthogonality(self):
        xi = vec(self.mod, [1, 0], [0, 0])
        eta = vec(self.mod, [0, 1], [0, 0])
        assert np.allclose(inner_product(xi, eta), [0, 0])

    def test_direct_fiberwise(self):
        xi = vec(self.mod, [1, 1j], [2, 0])
        eta = vec(self.mod, [1, 0], [0, 1])
        assert np.allclose(inner_product(xi, eta), [1, 0])

    def test_module_mismatch(self):
        other = SectionalModule(FiniteSpace(2), (1, 1))
        with pytest.raises(ValueError):
            inner_product(vec(self.mod, [1, 0], [0, 0]), vec(other, [1], [0]))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_axioms(self, data):
        ints = st.integers(-3, 3)

        def draw_vec():
            comps = [
                [complex(data.draw(ints), data.draw(ints)) for _ in range(d)]
                for d in self.mod.fiber_dims
            ]
            return vec(self.mod, *comps)

        xi, eta, zeta = draw_vec(), draw_vec(), draw_vec()
        al = complex(data.draw(ints), data.draw(ints))
        a = np.array([data.draw(ints), data.draw(ints)], dtype=complex)
        # linearity in the second slot
        lhs = inner_product(xi, al * eta + zeta)
        assert np.allclose(lhs, al * inner_product(xi, eta) + inner_product(xi, zeta))
        # algebra linearity
        assert np.allclose(inner_product(xi, module_action(eta, a)), inner_product(xi, eta) * a)
        # conjugate symmetry
        assert np.allclose(inner_product(eta, xi), inner_product(xi, eta).conj())
        # positivity with exact definiteness
        ip = inner_product(xi, xi)
        assert np.all(ip.real >= 0) and np.allclose(ip.imag, 0)
        if np.allclose(ip, 0):
            assert np.allclose(np.concatenate(xi.components), 0)


class TestModuleNorm:
    def test_zero(self):
        mod = SectionalModule(FiniteSpace(2), (2, 1))
        assert module_norm(zero_vector(mod)) == 0.0

    def test_max_over_fibers(self):
        mod = SectionalModule(FiniteSpace(2), (2, 2))
        xi = vec(mod, [1, 0], [0, 2])
        assert module_norm(xi) == pytest.approx(2.0)

    def test_formula(self, rng):
        mod = SectionalModule(FiniteSpace(3), (2, 0, 3))
        comps = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in mod.fiber_dims]
        xi = ModuleVector(mod, tuple(comps))
        expected = np.sqrt(max((np.abs(c) ** 2).sum() for c in comps))
        assert module_norm(xi) == pytest.approx(expected)


class TestDirectSum:
    def test_zero_modules(self):
        space = FiniteSpace(2)
        z = SectionalModule(space, (0, 0))
        assert direct_sum([z, z]).fiber_dims == (0, 0)

    def test_dimension_addition(self):
        space = FiniteSpace(2)
        m = SectionalModule(space, (1, 2))
        assert direct_sum([m, m]).fiber_dims == (2, 4)

    def test_group_many_copies(self):
        space = FiniteSpace(2)
        m = SectionalModule(space, (2, 0))
        assert direct_sum([m, m, m]).fiber_dims == (6, 0)

    def test_injections_preserve_inner_products(self, rng):
        space = FiniteSpace(2)
        mods = [SectionalModule(space, (1, 2)), SectionalModule(space, (2, 1))]
        for i, m in enumerate(mods):
            xi = ModuleVector(m, tuple(rng.normal(size=d) + 1j * rng.normal(size=d) for d in m.fiber_dims))
            eta = ModuleVector(m, tuple(rng.normal(size=d) + 1j * rng.normal(size=d) for d in m.fiber_dims))
            assert np.allclose(
                inner_product(direct_sum_embed(mods, i, xi), direct_sum_embed(mods, i, eta)),
                inner_product(xi, eta),
            )

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            direct_sum([SectionalModule(FiniteSpace(2), (1, 1)), SectionalModule(FiniteSpace(3), (1, 1, 1))])


class TestSectionalize:
    def test_algebra_over_itself(self):
        n = 3
        space = FiniteSpace(n)
        L = np.zeros((n, n, n), dtype=complex)
        G = np.zeros((n, n, n), dtype=complex)
        for k in range(n):
            L[k, k, k] = 1.0
            G[k, k, k] = 1.0
        sec = sectionalize(space, L, G)
        assert sec.module.fiber_dims == (1, 1, 1)

    def test_concentrated_module(self):
        # C^n concentrated at point k: (x.a)_j = x_j a_k
        n, k = 3, 1
        space = FiniteSpace(n)
        L = np.zeros((n, n, n), dtype=complex)
        L[k] = np.eye(n)
        G = np.zeros((n, n, n), dtype=complex)
        G[k] = np.eye(n)
        sec = sectionalize(space, L, G)
        assert sec.module.fiber_dims == (0, n, 0)

    def test_direct_sum_adds_ranks(self):
        n = 2
        space = FiniteSpace(n)
        dim = n + n  # algebra-over-itself (+) concentrated-at-0
        L = np.zeros((n, dim, dim), dtype=complex)
        G = np.zeros((n, dim, dim), dtype=complex)
        for k in range(n):
            L[k, k, k] = 1.0
            G[k, k, k] = 1.0
        L[0, n:, n:] = np.eye(n)
        G[0, n:, n:] = np.eye(n)
        sec = sectionalize(space, L, G)
        assert sec.module.fiber_dims == (1 + n, 1)

    def test_identification_preserves_inner_products(self, rng):
        n = 2
        space = FiniteSpace(n)
        L = np.zeros((n, n, n), dtype=complex)
        G = np.zeros((n, n, n), dtype=complex)
        for k in range(n):
            L[k, k, k] = 1.0
            G[k, k, k] = 2.0 if k == 0 else 0.5  # non-normalized but valid gram
        sec = sectionalize(space, L, G)
        for _ in range(5):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            expected = np.array([x.conj()[k] * y[k] * G[k, k, k] for k in range(n)])
            got = inner_product(sec.apply(x), sec.apply(y))
            assert np.allclose(got, expected)

    def test_violations_named(self):
        space = FiniteSpace(2)
        L = np.zeros((2, 2, 2), dtype=complex)
        G = np.zeros((2, 2, 2), dtype=complex)
        for k in range(2):
            L[k, k, k] = 1.0
            G[k, k, k] = 1.0
        bad_L = L.copy()
        bad_L[0, 0, 0] = 0.5
        with pytest.raises(NotAModuleError, match="idempotent"):
            sectionalize(space, bad_L, G)
        bad_L = L.copy()
        bad_L[0] = np.eye(2)  # overlaps with L[1]
        with pytest.raises(NotAModuleError, match="orthogonality|unital"):
            sectionalize(space, bad_L, G)
        bad_G = G.copy()
        bad_G[0, 0, 0] = -1.0
        with pytest.raises(NotAModuleError, match="positivity"):
            sectionalize(space, L, bad_G)
        bad_G = G.copy()
        bad_G[0, 1, 1] = 1.0  # inner product supported off the idempotent
        with pytest.raises(NotAModuleError, match="compatibility"):
            sectionalize(space, L, bad_G)


    @staticmethod
    def two_lines():
        """C^2 over itself: the action idempotents and the gram of each point."""
        L = np.zeros((2, 2, 2), dtype=complex)
        L[0, 0, 0] = L[1, 1, 1] = 1.0
        return L, L.copy()

    @pytest.mark.parametrize("at", [(0, 0, 0), (1, 0, 1), (1, 1, 1)])
    def test_nan_action_fails_an_axiom(self, at):
        L, G = self.two_lines()
        L[at] = np.nan
        G[1, 1, 1] = np.inf  # the action is checked first
        with pytest.raises(NotAModuleError) as err:
            sectionalize(FiniteSpace(2), L, G)
        assert err.value.axiom == "finiteness"
        assert f"action_mats[{at[0]}, {at[1]}, {at[2]}] is not finite" in str(err.value)

    @pytest.mark.parametrize("at", [(0, 0, 0), (0, 0, 1), (1, 1, 1)])
    def test_nan_gram_is_located(self, at):
        L, G = self.two_lines()
        G[1, 1, 1] = complex(1.0, np.inf)  # a later entry: the first non-finite one is named
        G[at] = np.nan
        with pytest.raises(NotAModuleError) as err:
            sectionalize(FiniteSpace(2), L, G)
        assert err.value.axiom == "finiteness"
        assert f"gram[{at[0]}, {at[1]}, {at[2]}] is not finite" in str(err.value)

    def test_zero_dimensional_presentation(self):
        empty = np.zeros((3, 0, 0), dtype=complex)
        sec = sectionalize(FiniteSpace(3), empty, empty)
        assert sec.module.fiber_dims == (0, 0, 0)
        assert [m.shape for m in sec.coord_maps] == [(0, 0)] * 3
        assert np.concatenate(sec.apply(np.zeros(0)).components).shape == (0,)


class TestInternalTensor:
    def test_algebra_tensor_module_is_module(self):
        space = FiniteSpace(2)
        a_mod = trivial_module(space)
        x2 = SectionalModule(space, (2, 1))
        tp = internal_tensor(a_mod, canonical_rep(x2), x2)
        assert tp.module.fiber_dims == x2.fiber_dims

    def test_scalar_rep_dims(self):
        space = FiniteSpace(2)
        x1 = SectionalModule(space, (1, 1))
        x2 = SectionalModule(space, (2, 2))
        tp = internal_tensor(x1, canonical_rep(x2), x2)
        # scalar action: only the matching fiber of x1 survives per point
        assert tp.module.fiber_dims == (2, 2)

    def test_balancing_relation(self, rng):
        space = FiniteSpace(2)
        x1 = SectionalModule(space, (2, 1))
        x2 = SectionalModule(space, (1, 2))
        rho2 = canonical_rep(x2)
        tp = internal_tensor(x1, rho2, x2)
        for _ in range(5):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            v1 = ModuleVector(x1, tuple(rng.normal(size=d) + 1j * rng.normal(size=d) for d in x1.fiber_dims))
            v2 = ModuleVector(x2, tuple(rng.normal(size=d) + 1j * rng.normal(size=d) for d in x2.fiber_dims))
            rho2_a = ModuleVector(
                x2,
                tuple(
                    sum(a[k] * rho2[k][x] for k in range(2)) @ v2.components[x]
                    for x in range(2)
                ),
            )
            lhs = tp.embed(module_action(v1, a), v2)
            rhs = tp.embed(v1, rho2_a)
            assert np.allclose(np.concatenate(lhs.components), np.concatenate(rhs.components), atol=1e-12)

    def test_embedding_preserves_inner_products(self, rng):
        space = FiniteSpace(2)
        x1 = SectionalModule(space, (2, 2))
        x2 = SectionalModule(space, (2, 1))
        rho2 = canonical_rep(x2)
        tp = internal_tensor(x1, rho2, x2)
        for _ in range(5):
            a1, b1 = (ModuleVector(x1, tuple(rng.normal(size=d) + 1j * rng.normal(size=d) for d in x1.fiber_dims)) for _ in range(2))
            a2, b2 = (ModuleVector(x2, tuple(rng.normal(size=d) + 1j * rng.normal(size=d) for d in x2.fiber_dims)) for _ in range(2))
            lhs = inner_product(tp.embed(a1, a2), tp.embed(b1, b2))
            inner = inner_product(a1, b1)
            rho_applied = ModuleVector(
                x2,
                tuple(
                    sum(inner[k] * rho2[k][x] for k in range(2)) @ b2.components[x]
                    for x in range(2)
                ),
            )
            rhs = inner_product(a2, rho_applied)
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_invalid_rep_rejected(self):
        space = FiniteSpace(2)
        x1 = trivial_module(space)
        x2 = SectionalModule(space, (2, 2))
        rho2 = canonical_rep(x2)
        broken = [(np.eye(2) * 0.5, np.zeros((2, 2))), rho2[1]]
        with pytest.raises(ValueError, match="idempotent|identity"):
            internal_tensor(x1, broken, x2)

    def test_quotient_gram_positive(self, rng):
        space = FiniteSpace(2)
        x1 = SectionalModule(space, (2, 1))
        x2 = SectionalModule(space, (2, 2))
        tp = internal_tensor(x1, canonical_rep(x2), x2)
        for m in range(2):
            vecs = [tp.embed(b1, b2) for b1 in basis_vectors(x1) for b2 in basis_vectors(x2)]
            gram = np.array([[inner_product(v, w)[m] for w in vecs] for v in vecs])
            lam = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
            assert lam.min() >= -1e-9 * (1 + lam.max())


class TestBasisHelpers:
    def test_basis_vector_support(self):
        mod = SectionalModule(FiniteSpace(2), (2, 1))
        b = basis_vector(mod, 0, 1)
        assert b.components[0][1] == 1.0 and np.allclose(b.components[1], 0)

    @pytest.mark.parametrize("x, i", [(0, -1), (-2, -1), (1, 1), (1, 2), (2, 0), (-1, 0), (3, 0)])
    def test_basis_vector_outside_a_fiber_refused(self, x, i):
        """x must be a point and i an index of its fiber: a negative one
        does not wrap, and one in [d_x, d_max) does not reach the padding."""
        mod = SectionalModule(FiniteSpace(3), (3, 1, 0))
        with pytest.raises(ValueError, match="no basis vector"):
            basis_vector(mod, x, i)

    def test_zero_dim_fibers_allowed(self):
        mod = SectionalModule(FiniteSpace(3), (0, 2, 0))
        assert len(basis_vectors(mod)) == 2
        assert module_norm(zero_vector(mod)) == 0.0


class TestStackedMatchesLoops:
    """The operations on padded stacks against the per-fiber loops they
    replaced: elementwise arithmetic bit for bit, sums to rounding."""

    def test_fiberwise_operations(self, rng):
        mod = SectionalModule(FiniteSpace(4), (2, 0, 3, 1))
        xi, eta = (random_vector(mod, rng) for _ in range(2))
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        pairs = list(zip(xi.components, eta.components))
        for got, want in (
            (xi + eta, [p + q for p, q in pairs]),
            (xi - eta, [p - q for p, q in pairs]),
            ((2 - 3j) * xi, [(2 - 3j) * p for p in xi.components]),
            (module_action(xi, a), [a[x] * p for x, p in enumerate(xi.components)]),
        ):
            assert all(same_bits(g, w) for g, w in zip(got.components, want))
        assert np.allclose(inner_product(xi, eta), [np.vdot(p, q) for p, q in pairs], rtol=1e-14, atol=0)
        norm = np.sqrt(max((np.abs(p) ** 2).sum() for p in xi.components))
        assert module_norm(xi) == pytest.approx(norm, rel=1e-14)


class TestModuleVector:
    def test_component_count_must_match(self):
        mod = SectionalModule(FiniteSpace(2), (1, 2))
        a, b, c = np.ones(1), np.ones(2), np.ones(2)
        for comps in ((a, b, c), (a,)):
            with pytest.raises(ValueError, match=f"2 fibers got {len(comps)} components"):
                ModuleVector(mod, comps)

    def test_components_and_padded_stack_agree(self, rng):
        mod = SectionalModule(FiniteSpace(3), (2, 0, 3))
        comps = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in mod.fiber_dims]
        xi = ModuleVector(mod, comps)
        assert xi.stack.shape == (3, 3)
        assert all(np.array_equal(c, given) for c, given in zip(xi.components, comps))
        assert np.array_equal(np.concatenate(ModuleVector(mod, xi.stack).components), np.concatenate(comps))


class TestSectionalizeRoundTrip:
    def test_forget_then_sectionalize_is_identity_up_to_unitary(self, rng):
        """Presenting a sectional module abstractly and sectionalizing again
        recovers the fiber dimensions, with gram matrices equal on the basis."""
        space = FiniteSpace(3)
        module = SectionalModule(space, (2, 0, 3))
        total = module.total_dim
        off = module.offsets()
        n = space.size
        L = np.zeros((n, total, total), dtype=complex)
        G = np.zeros((n, total, total), dtype=complex)
        for k in range(n):
            d = module.fiber_dims[k]
            L[k, off[k] : off[k] + d, off[k] : off[k] + d] = np.eye(d)
            G[k, off[k] : off[k] + d, off[k] : off[k] + d] = np.eye(d)
        sec = sectionalize(space, L, G)
        assert sec.module.fiber_dims == module.fiber_dims
        for _ in range(5):
            x = rng.normal(size=total) + 1j * rng.normal(size=total)
            y = rng.normal(size=total) + 1j * rng.normal(size=total)
            expected = np.array([x.conj() @ G[k] @ y for k in range(n)])
            assert np.allclose(inner_product(sec.apply(x), sec.apply(y)), expected)


def reference_check_projection_rep(rho, module, tol):
    """The per-(x, k, l) loop ``_check_projection_rep`` used to run, kept as
    the oracle of its message for the first failure."""
    for x, d in enumerate(module.fiber_dims):
        if d == 0:
            continue
        blocks = [row[x] for row in rho]
        scale = 1.0 + max(np.abs(b).max() for b in blocks)
        for k, b in enumerate(blocks):
            if np.abs(b - b.conj().T).max() > tol * scale:
                raise ValueError(f"generator {k} is not self-adjoint at point {x}")
            for l, b2 in enumerate(blocks):
                target = b if l == k else np.zeros_like(b)
                if np.abs(b @ b2 - target).max() > tol * scale:
                    raise ValueError(f"generators {k},{l} are not orthogonal idempotents at point {x}")
        if np.abs(sum(blocks) - np.eye(d)).max() > tol * scale:
            raise ValueError(f"generators do not sum to the identity at point {x}")


def random_projection_rep(module, rng):
    """rho(e_k) at each fiber: orthogonal projections onto the spans of
    consecutive columns of a random unitary, with random ranks."""
    n = module.n_points
    blocks = [[None] * n for _ in range(n)]
    for x, d in enumerate(module.fiber_dims):
        q = random_unitary(d, rng)
        cuts = np.sort(rng.integers(0, d + 1, size=n - 1))
        for k, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, d])):
            blocks[k][x] = q[:, lo:hi] @ q[:, lo:hi].conj().T
    return blocks


def _zero_largest(fiber, k, l):
    largest = max(range(len(fiber)), key=lambda i: np.trace(fiber[i]).real)
    fiber[largest] = np.zeros_like(fiber[largest])


# each fault edits the blocks of one fiber, with k != l or k == l given
PROJECTION_FAULTS = {
    "none": lambda fiber, k, l: None,
    "not self-adjoint": lambda fiber, k, l: fiber.__setitem__(k, fiber[k] + np.triu(np.ones_like(fiber[k]), 1)),
    "not idempotent": lambda fiber, k, l: fiber.__setitem__(k, 2.0 * fiber[k] + np.eye(len(fiber[k]))),
    "not orthogonal": lambda fiber, k, l: fiber.__setitem__(l, fiber[l] + fiber[k] + np.eye(len(fiber[k]))),
    "not summing to one": _zero_largest,
}


class TestCheckProjectionRep:
    @pytest.mark.parametrize("fault", sorted(PROJECTION_FAULTS))
    def test_first_failure_as_loop(self, fault):
        rng = np.random.default_rng(7)
        module = SectionalModule(FiniteSpace(3), (3, 0, 2))
        raised = 0
        for k, l in [(0, 1), (1, 2), (2, 0), (1, 1)]:
            for point in (0, 2):
                blocks = random_projection_rep(module, rng)
                fiber = [row[point] for row in blocks]
                PROJECTION_FAULTS[fault](fiber, k, l)
                for row, b in zip(blocks, fiber):
                    row[point] = b
                stack = fibers.stack_blocks(blocks, module.fiber_dims)
                try:
                    reference_check_projection_rep(blocks, module, DEFAULT_TOL)
                except ValueError as exc:
                    raised += 1
                    with pytest.raises(ValueError) as info:
                        _check_projection_rep(stack, module.fiber_dims)
                    assert str(info.value) == str(exc)
                else:
                    _check_projection_rep(stack, module.fiber_dims)
        assert raised == (0 if fault == "none" else 8)
