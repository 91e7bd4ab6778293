import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstardyn import fibers, multiplier
from cstardyn.core import (
    DEFAULT_TOL,
    FiniteGroup,
    FiniteSpace,
    GroupAction,
    System,
    act_on_algebra,
    cyclic_group,
    is_psd,
    symmetric_action,
    trivial_action,
)
from cstardyn.cyclic_examples import (
    matrix_unit_family,
    matrix_unit_target,
    omega_example_rep,
    omega_example_vectors,
    omega_system,
    sigma_example_rep,
    sigma_system,
    matrix_unit_deviation,
)
from cstardyn.equivrep import direct_sum_reps, regular_rep, slot_embed, tensor_rep, trivial_rep
from cstardyn.generators import (
    assorted_small_systems,
    random_equivariant_rep,
    random_multiplier_suite,
    random_vector,
    standard_systems,
)
from cstardyn.hilbmod import ModuleVector, inner_product, module_norm
from cstardyn.numutil import psd_check, scale
from oracles import omega_matrix_unit_coefficient, rho_blocks, sigma_matrix_unit_coefficient
from cstardyn.multiplier import (
    _WINDOW,
    Multiplier,
    _fiberwise_certificates,
    _kernel_checks,
    coefficient,
    evaluate_sample_witness,
    from_group_function,
    group_function_is_positive_definite,
    is_positive_definite,
    multiplier_distance,
    multiply,
    norm_bounds,
    pd_criterion_matrix,
    pd_sample_oracle,
    realize_via_regular,
    span_dimension,
    trace_image_sample,
    truncate_realization,
    unit_multiplier,
    zero_multiplier,
)


class TestCoefficient:
    def test_trivial_rep_unit_vector(self, z3_cycle):
        rep = trivial_rep(z3_cycle)
        one = ModuleVector(rep.module, tuple(np.ones(1) for _ in range(3)))
        t = coefficient(rep, one, one)
        for g in range(3):
            assert np.allclose(t.mats[g], np.eye(3))

    @pytest.mark.parametrize("n", [2, 3])
    def test_omega_matrix_units(self, n):
        for k in range(n):
            for l in range(n):
                for p in range(n):
                    t = omega_matrix_unit_coefficient(n, k, l, p)
                    target = matrix_unit_target(omega_system(n), k, l, p)
                    assert multiplier_distance(t, target) == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_sigma_matrix_units(self, n):
        for k in range(n):
            for l in range(n):
                for p in range(n):
                    t = sigma_matrix_unit_coefficient(n, k, l, p)
                    target = matrix_unit_target(sigma_system(n), k, l, p)
                    assert multiplier_distance(t, target) == 0.0

    def test_module_mismatch(self, z2_flip):
        rep = trivial_rep(z2_flip)
        other = sigma_example_rep(2)
        xi = ModuleVector(other.module, tuple(np.ones(2) for _ in range(2)))
        with pytest.raises(ValueError):
            coefficient(rep, xi, xi)

    def test_matches_per_element_loop(self):
        rng = np.random.default_rng(21)
        systems = list(standard_systems().values()) + assorted_small_systems()
        reps = [random_equivariant_rep(s, rng, max_dim=2) for s in systems for _ in range(2)]
        reps += [
            omega_example_rep(3, 1, 2),
            regular_rep(trivial_rep(systems[2])),
            direct_sum_reps([omega_example_rep(3, 0, 1), omega_example_rep(3, 2, 2)]),
        ]
        for rep in reps:
            xi, eta = random_vector(rep.module, rng), random_vector(rep.module, rng)
            got, want = coefficient(rep, xi, eta), reference_coefficient(rep, xi, eta)
            scale = 1.0 + max(np.abs(m).max() for m in want.mats)
            assert multiplier_distance(got, want) <= 1e-12 * scale


def reference_coefficient(rep, xi, eta) -> Multiplier:
    """The per-(g, j) loop :func:`coefficient` used to run, kept as the test
    oracle for the batched contraction."""
    n = rep.system.n_points
    mats = []
    for g in rep.system.group.elements():
        shifted = rep.apply_v(g, eta)
        cols = []
        for j in range(n):
            applied = ModuleVector(rep.module, tuple(b @ c for b, c in zip(rho_blocks(rep)[j], shifted.components)))
            cols.append(inner_product(xi, applied))
        mats.append(np.stack(cols, axis=1))
    return Multiplier(rep.system, tuple(mats))


class TestIsPositiveDefinite:
    def test_unit_multiplier(self, z2_trivial, z2_flip, z3_cycle):
        for system in (z2_trivial, z2_flip, z3_cycle):
            cert = is_positive_definite(unit_multiplier(system))
            assert cert.verdict and cert.min_eigenvalue >= -1e-12

    def test_off_diagonal_false(self, z2_trivial):
        t = Multiplier(z2_trivial, (np.zeros((2, 2)), np.eye(2)))
        cert = is_positive_definite(t)
        assert not cert.verdict
        assert cert.point is not None and cert.basis is not None

    def test_sign_multiplier_true(self, z2_trivial):
        t = Multiplier(z2_trivial, (np.eye(2), -np.eye(2)))
        assert is_positive_definite(t).verdict

    def test_agrees_with_sample_oracle(self, rng):
        for name, system in standard_systems().items():
            for t in random_multiplier_suite(system, 10, rng):
                criterion = is_positive_definite(t).verdict
                sampled = pd_sample_oracle(t, trials=400, seed=7).verdict
                assert criterion == sampled, name


def reference_pd_criterion_matrix(t, x, k):
    """Test-only oracle: the per-entry double loop that filled the kernel
    matrix at (x, k) before it became one gather."""
    sys_ = t.system
    order = sys_.group.order
    act = sys_.action
    out = np.empty((order, order), dtype=complex)
    for gi in range(order):
        inv = sys_.group.inv(gi)
        row_pt = act.apply(inv, x)
        col_idx = act.apply(inv, k)
        for gj in range(order):
            out[gi, gj] = t.mats[sys_.group.mul(inv, gj)][row_pt, col_idx]
    return out


def reference_is_positive_definite(t, tol=DEFAULT_TOL):
    """Test-only oracle: the fiberwise criterion's former loop, per (x, k)
    the eigenvalues from ``eigvalsh`` and the lowest eigenvector from
    ``eigh``, keeping the first maximum score as the witness."""
    n = t.system.n_points
    worst = (0.0, None, None, None)  # (score, x, k, vec)
    herm_defect = 0.0
    verdict = True
    min_seen = math.inf
    for x in range(n):
        for k in range(n):
            m = reference_pd_criterion_matrix(t, x, k)
            scale = 1.0 + np.abs(m).max()
            hd = float(np.abs(m - m.conj().T).max())
            lam = np.linalg.eigvalsh((m + m.conj().T) / 2)
            vecs = np.linalg.eigh((m + m.conj().T) / 2)[1]
            min_seen = min(min_seen, float(lam[0]))
            if hd > tol * scale or lam[0] < -tol * scale:
                verdict = False
            score = -float(lam[0]) + (hd if hd > tol * scale else 0.0)
            if worst[1] is None or score > worst[0]:
                worst = (score, x, k, vecs[:, 0])
                herm_defect = hd
    _, x, k, vec = worst
    return multiplier.PdCertificate(
        verdict=verdict,
        min_eigenvalue=min_seen,
        hermitian_defect=herm_defect,
        point=x,
        basis=k,
        eigenvector=None if verdict else vec,
    )


def criterion_suite(system, rng):
    """Random multipliers of every kind, plus multipliers whose kernel
    matrices tie in score (unit, group functions), so the witness rule
    shows."""
    suite = random_multiplier_suite(system, 8, rng)
    order = system.group.order
    suite += [unit_multiplier(system), zero_multiplier(system)]
    suite += [from_group_function(system, mu) for mu in (np.ones(order), rng.normal(size=order))]
    return suite


def assert_same_certificate(got, want, scale):
    assert got.verdict == want.verdict
    assert (got.point, got.basis) == (want.point, want.basis)
    assert abs(got.min_eigenvalue - want.min_eigenvalue) <= 1e-12 * scale
    assert abs(got.hermitian_defect - want.hermitian_defect) <= 1e-12 * scale
    assert (got.eigenvector is None) == (want.eigenvector is None)
    if want.eigenvector is not None:
        assert np.array_equal(got.eigenvector, want.eigenvector)


class TestBatchedCriterion:
    def test_kernel_matrix_is_the_loop(self, rng):
        for system in oracle_systems():
            n = system.n_points
            for t in random_multiplier_suite(system, 3, rng):
                for x, k in itertools.product(range(n), repeat=2):
                    assert np.array_equal(pd_criterion_matrix(t, x, k), reference_pd_criterion_matrix(t, x, k))

    @pytest.mark.parametrize("budget", [1, fibers.BLOCK_ELEMENTS], ids=["one-matrix", "default"])
    def test_certificate_matches_loop(self, rng, monkeypatch, budget):
        monkeypatch.setattr(fibers, "BLOCK_ELEMENTS", budget)
        failing = 0
        for system in oracle_systems():
            for t in criterion_suite(system, rng):
                want = reference_is_positive_definite(t)
                assert_same_certificate(is_positive_definite(t), want, 1.0 + np.abs(t.stack).max())
                failing += not want.verdict
        assert failing > 0

    @pytest.mark.parametrize("budget", [1, fibers.BLOCK_ELEMENTS], ids=["one-matrix", "default"])
    def test_stack_of_multipliers(self, rng, monkeypatch, budget):
        """Certifying many multipliers in one call gives each the certificate
        it gets alone, also when a block spans several multipliers."""
        monkeypatch.setattr(fibers, "BLOCK_ELEMENTS", budget)
        for system in oracle_systems():
            suite = criterion_suite(system, rng)
            certs = _fiberwise_certificates(system, np.stack([t.stack for t in suite]), DEFAULT_TOL)
            for t, cert in zip(suite, certs):
                want = reference_is_positive_definite(t)
                assert_same_certificate(cert, want, 1.0 + np.abs(t.stack).max())

    def test_working_set_on_s5(self):
        """The natural action of S_5: all n^2 kernel matrices together are one
        (n^2, |G|, |G|) complex stack, 5.76 MB; the blocked criterion stays
        below that."""
        system = System(symmetric_action(5))
        t = unit_multiplier(system)
        full = 25 * 120 * 120 * 16
        is_positive_definite(unit_multiplier(sigma_system(2)))  # numpy's lazy set-up is not the criterion's
        tracemalloc.start()
        try:
            cert = is_positive_definite(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.verdict
        assert peak < full


def reference_fiberwise_checks(system, stack, tol):
    """Test-only oracle: the criterion before zero kernels took the empty
    block's verdict, every gathered kernel matrix through ``psd_check``."""
    S, _, n, _ = stack.shape
    kern = multiplier._kernel_matrices(system, stack, *np.unravel_index(np.arange(S * n * n), (S, n, n)))
    hermitian, passed, lam0, hd = (a.reshape(S, n * n) for a in psd_check(kern, scale(kern, axis=(1, 2)), DEFAULT_TOL))
    worst = np.argmax(-lam0 + np.where(hermitian, 0.0, hd), axis=1)
    return passed.all(axis=1), lam0, hd, worst


class TestZeroKernels:
    def test_criterion_keeps_its_bits(self, rng):
        """Zero kernel matrices, read from the criterion's own gather, get
        the empty block's verdict; every output keeps its bits, the witness
        ties and signed zeros included."""
        suite = [t for _, t in sparse_multipliers(rng)]
        for system in oracle_systems():
            suite += random_multiplier_suite(system, 6, rng)
        zero = 0
        for t in suite:
            got = multiplier._fiberwise_checks(t.system, t.stack[None], DEFAULT_TOL)
            for g, w in zip(got, reference_fiberwise_checks(t.system, t.stack[None], DEFAULT_TOL)):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            n = t.system.n_points
            zero += sum(not pd_criterion_matrix(t, x, k).any() for x in range(n) for k in range(n))
        assert zero > 100


def reference_kernel_check(t, gs, amps, tol):
    """Test-only oracle: the sampling oracle's former per-trial loop body.

    One tuple of length N, one (N, N, n) kernel, one eigvalsh over its n
    Hermitian parts.  Returns (scale, min eigenvalue per point, Hermitian
    defect per point, bad flag per point)."""
    sys_ = t.system
    mats = np.stack(t.mats)
    perm = sys_.action.perm
    inv = sys_.group.inverse
    mult = sys_.group.mult
    ar = np.arange(len(gs))
    c = amps.conj()[:, None, :] * amps[None, :, :]
    w = c[ar[:, None, None], ar[None, :, None], perm[gs][:, None, :]]
    k_idx = mult[inv[gs][:, None], gs[None, :]]
    tv = np.einsum("ijab,ijb->ija", mats[k_idx], w)
    b = tv[ar[:, None, None], ar[None, :, None], perm[inv[gs]][:, None, :]]
    bt = b.conj().transpose(1, 0, 2)
    scale = 1.0 + np.abs(b).max()
    hd = np.abs(b - bt).max(axis=(0, 1))
    mins = np.linalg.eigvalsh(np.ascontiguousarray(((b + bt) / 2).transpose(2, 0, 1)))[:, 0]
    return scale, mins, hd, (hd > tol * scale) | (mins < -tol * scale)


def reference_window_checks(t, gs, amps, tol):
    """Test-only oracle: the oracle's block before the per-call table, which
    gathers the products at g_i y, contracts with ``stack[g_i^{-1} g_j]`` and
    gathers the result back at g_i^{-1} x.  Same blocking and outputs as
    ``_kernel_checks``."""
    sys_ = t.system
    perm = sys_.action.perm
    inv = sys_.group.inverse
    mult = sys_.group.mult
    mats = t.stack
    count, N, n = amps.shape
    step = max(1, fibers.BLOCK_ELEMENTS // (N * N * n * n))
    mins = np.empty((count, n))
    hd = np.empty((count, n))
    bad = np.empty((count, n), dtype=bool)
    for lo in range(0, count, step):
        g = gs[lo : lo + step]
        a = amps[lo : lo + step]
        c = a.conj()[:, :, None, :] * a[:, None, :, :]  # (T, N, N, n)
        # alpha_{g_i}^{-1}(c)_x = c_{g_i x}
        w = np.take_along_axis(c, perm[g][:, :, None, :], axis=3)
        k_idx = mult[inv[g][:, :, None], g[:, None, :]]
        tv = np.einsum("tijab,tijb->tija", mats[k_idx], w)
        # alpha_{g_i}(tv)_x = tv_{g_i^{-1} x}
        b = np.take_along_axis(tv, perm[inv[g]][:, :, None, :], axis=3)
        bt = b.conj().transpose(0, 2, 1, 3)
        scale = 1.0 + np.abs(b).max(axis=(1, 2, 3))
        blk_hd = np.abs(b - bt).max(axis=(1, 2))
        herm = np.ascontiguousarray(((b + bt) / 2).transpose(0, 3, 1, 2))
        blk_mins = np.linalg.eigvalsh(herm)[..., 0]  # (T, n)
        limit = tol * scale[:, None]
        mins[lo : lo + step] = blk_mins
        hd[lo : lo + step] = blk_hd
        bad[lo : lo + step] = (blk_hd > limit) | (blk_mins < -limit)
    return mins, hd, bad


def reference_read_sets(t):
    """Test-only oracle: the points R(x) = {g_i y : A[i, j][x, y] != 0 for
    some i, j} where the oracle's kernel at x reads a tuple's amplitudes,
    by a loop over the nonzero entries of its table A."""
    perm = t.system.action.perm
    reads = [set() for _ in range(t.system.n_points)]
    for i, _, x, y in zip(*np.nonzero(multiplier._kernel_table(t))):
        reads[x].add(int(perm[i, y]))
    return [sorted(r) for r in reads]


def reference_kernel(t, gs, amps):
    """The (N, N, n) kernel of one tuple, formed as ``reference_kernel_check``
    forms it (products at g_i y, ``mats[g_i^-1 g_j]``, result at g_i^-1 x)."""
    sys_ = t.system
    perm, inv, mult = sys_.action.perm, sys_.group.inverse, sys_.group.mult
    ar = np.arange(len(gs))
    c = amps.conj()[:, None, :] * amps[None, :, :]
    w = c[ar[:, None, None], ar[None, :, None], perm[gs][:, None, :]]
    tv = np.einsum("ijab,ijb->ija", t.stack[mult[inv[gs][:, None], gs[None, :]]], w)
    return tv[ar[:, None, None], ar[None, :, None], perm[inv[gs]][:, None, :]]


def hidden_min_eigenvalues(t, gs, amps, reads):
    """Per point of one tuple: None where every entry's amplitude is nonzero
    somewhere on the read set ``reads[x]``, else min(lowest eigenvalue of
    the reference kernel's Hermitian part on the visible entries, 0.0),
    after asserting that the hidden entries' rows and columns of the
    reference kernel are exactly zero."""
    b = reference_kernel(t, gs, amps)
    out = []
    for x, read in enumerate(reads):
        vis = (amps[:, read] != 0).any(axis=1)
        if vis.all():
            out.append(None)
            continue
        assert not b[~vis, :, x].any() and not b[:, ~vis, x].any()
        k = b[np.ix_(vis, vis, [x])][..., 0]
        lam = np.linalg.eigvalsh((k + k.conj().T) / 2)[0] if vis.any() else 0.0
        out.append(np.minimum(lam, 0.0))
    return out


def assert_exact_checks(t, gs, amps, got, want):
    """``got``, the oracle's (mins, hd, bad) for (T, N) tuples, against
    ``want``, the reference's: defects and verdicts byte for byte, minimum
    eigenvalues too where no entry is hidden and, where one is, byte for
    byte against :func:`hidden_min_eigenvalues`.  Returns the number of
    (trial, point) pairs with a hidden entry."""
    mins, hd, bad = got
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
    assert hd.tobytes() == want[1].tobytes() and bad.tobytes() == want[2].tobytes()
    reads = reference_read_sets(t)
    hidden = 0
    for k in range(len(gs)):
        for x, lam in enumerate(hidden_min_eigenvalues(t, gs[k], amps[k], reads)):
            expected = want[0][k, x] if lam is None else lam
            assert mins[k, x].tobytes() == np.float64(expected).tobytes()
            hidden += lam is not None
    return hidden


def draw_tuples(system, lengths, count, rng):
    """``count`` sparse Gaussian tuples of each length, the oracle's distribution."""
    n = system.n_points
    for N in lengths:
        gs = rng.integers(0, system.group.order, size=(count, N))
        amps = rng.normal(size=(count, N, n)) + 1j * rng.normal(size=(count, N, n))
        amps *= rng.integers(0, 2, size=(count, N, n))
        yield gs, amps


def oracle_systems():
    return list(standard_systems().values()) + assorted_small_systems()


def reference_oracle(t, trials, seed, tol):
    """Test-only oracle: the documented draw order (trial 0 alone, then
    windows of ``_WINDOW``: lengths, group indices, masked amplitudes),
    checked one trial at a time.  Returns the certificate's fields."""
    order, n = t.system.group.order, t.system.n_points
    rng = np.random.default_rng(seed)
    min_seen = math.inf
    sizes = [1] + [min(_WINDOW, trials - k) for k in range(1, trials, _WINDOW)]
    for size in sizes:
        lengths = rng.integers(1, 2 * order + 1, size=size)
        total = int(lengths.sum())
        gs = rng.integers(0, order, size=total)
        amps = rng.normal(size=(total, n)) + 1j * rng.normal(size=(total, n))
        amps *= rng.integers(0, 2, size=(total, n))
        cuts = np.cumsum(lengths)[:-1]
        for g, a in zip(np.split(gs, cuts), np.split(amps, cuts)):
            scale, mins, hd, bad = reference_kernel_check(t, g, a, tol)
            min_seen = min(min_seen, float(mins.min()))
            if bad.any():
                x = int(np.argmax(bad))
                return False, mins[x], hd[x], x, tuple(int(h) for h in g), a, scale
    return True, min_seen, 0.0, None, None, None, 1.0


class TestBatchedKernel:
    def test_matches_per_trial_reference(self, rng):
        tol = 1e-9
        for system in oracle_systems():
            order = system.group.order
            # 2|G| is the longest tuple the oracle draws; 20 trials of it span
            # several blocks on every system here
            lengths = sorted({1, 2, order, 2 * order})
            for t in random_multiplier_suite(system, 6, rng):
                for gs, amps in draw_tuples(system, lengths, 20, rng):
                    mins, hd, bad = _kernel_checks(t, gs, amps, tol)
                    for i in range(len(gs)):
                        scale, r_mins, r_hd, r_bad = reference_kernel_check(t, gs[i], amps[i], tol)
                        assert np.abs(mins[i] - r_mins).max() <= 1e-12 * scale
                        assert np.abs(hd[i] - r_hd).max() <= 1e-12 * scale
                        assert np.array_equal(bad[i], r_bad)

    @pytest.mark.parametrize("budget", [1, None], ids=["one-trial", "default"])
    def test_bit_identical_to_reference_window(self, rng, monkeypatch, budget):
        """The read-group block sums over y in the order the gather-twice
        block did, so every defect and verdict is equal, not only close,
        and so is every minimum eigenvalue of a kernel with no hidden entry
        (:func:`assert_exact_checks`), with one (trial, group) pair per run
        and per eigensolve or the default budgets."""
        if budget:
            monkeypatch.setattr(multiplier, "_GATHER", budget)
            monkeypatch.setattr(fibers, "BLOCK_ELEMENTS", budget)
        tol = 1e-9
        failing = hidden = 0
        for system in oracle_systems():
            order = system.group.order
            for t in random_multiplier_suite(system, 4, rng):
                table = multiplier._kernel_table(t)
                for gs, amps in draw_tuples(system, sorted({1, 2, order, 2 * order}), 12, rng):
                    want = reference_window_checks(t, gs, amps, tol)
                    for got in (_kernel_checks(t, gs, amps, tol), _kernel_checks(t, gs, amps, tol, table)):
                        hidden += assert_exact_checks(t, gs, amps, got, want)
                    failing += want[2].any()
        assert failing > 0 and hidden > 0

    def test_table_is_the_entry_operator(self, rng):
        """Row x of table[i, j] applied to c at the points g_i y is
        alpha_{g_i}(T_{g_i^{-1} g_j}(alpha_{g_i}^{-1} c)) at x."""
        for system in oracle_systems():
            group, action, n = system.group, system.action, system.n_points
            t = random_multiplier_suite(system, 1, rng)[0]
            table = multiplier._kernel_table(t)
            assert table.shape == (group.order, group.order, n, n)
            c = rng.normal(size=n) + 1j * rng.normal(size=n)
            for i, j in itertools.product(range(group.order), repeat=2):
                inner = t.mats[group.mul(group.inv(i), j)] @ act_on_algebra(action, group.inv(i), c)
                want = act_on_algebra(action, i, inner)
                assert np.allclose(table[i, j] @ c[action.perm[i]], want, atol=1e-12)

    @pytest.mark.parametrize("tol", [1e-9, 10.0], ids=["default", "lenient"])
    def test_oracle_matches_per_trial_reference(self, rng, tol):
        # the lenient tolerance passes indefinite multipliers too, so the
        # minimum over all trials is clearly negative and must be global
        for system in oracle_systems():
            for seed, t in enumerate(random_multiplier_suite(system, 4, rng)):
                cert = pd_sample_oracle(t, trials=300, seed=seed, tol=tol)
                verdict, min_eig, hd, point, groups, vectors, scale = reference_oracle(t, 300, seed, tol)
                assert cert.verdict == verdict
                assert abs(cert.min_eigenvalue - min_eig) <= 1e-12 * scale
                assert abs(cert.hermitian_defect - hd) <= 1e-12 * scale
                assert cert.point == point and cert.sample_groups == groups
                assert (vectors is None) == (cert.sample_vectors is None)
                if vectors is not None:
                    assert np.array_equal(cert.sample_vectors, vectors)


def relabeled(t, rng):
    """``t`` carried over to a copy of its system with group elements and
    points renamed by seeded permutations."""
    group, action = t.system.group, t.system.action
    sg, px = rng.permutation(group.order), rng.permutation(t.system.n_points)
    mult = np.empty_like(group.mult)
    mult[sg[:, None], sg] = sg[group.mult]
    perm = np.empty_like(action.perm)
    perm[sg[:, None], px] = px[action.perm]
    mats = np.empty_like(t.stack)
    mats[sg[:, None, None], px[:, None], px] = t.stack
    return Multiplier(System(GroupAction(FiniteGroup(group.order, mult), action.space, perm)), mats)


def two_orbit_system():
    """Z_6 on 6 points, the generator acting as (0 1)(2 3 4): orbits of
    sizes 2, 3 and 1."""
    gen = np.array([1, 0, 3, 4, 2, 5])
    perm = [np.arange(6)]
    for _ in range(5):
        perm.append(gen[perm[-1]])
    return System(GroupAction(cyclic_group(6), FiniteSpace(6), np.array(perm)))


def diagonal_coefficient(rep, rng, points=None):
    """<xi, rho(a) v(g) xi> for a random xi, zero off ``points`` when given."""
    xi = random_vector(rep.module, rng)
    if points is not None:
        xi = ModuleVector(rep.module, tuple(c if x in points else 0 * c for x, c in enumerate(xi.components)))
    return coefficient(rep, xi, xi)


def sparse_multipliers(rng):
    """Multipliers with dead points or dead columns of the oracle's table,
    each with a label."""
    out = []
    for n in (3, 4, 5):
        k, l, p = (int(v) for v in rng.integers(0, n, size=3))
        rep = omega_example_rep(n, k, l)
        coeffs = [diagonal_coefficient(rep, rng) for _ in range(2)]
        for label, t in (
            ("omega_pd", coeffs[0]),
            ("omega_difference", coeffs[0] - 2.0 * coeffs[1]),
            ("omega_unit", omega_matrix_unit_coefficient(n, k, l, p)),
        ):
            out.append((f"{label}_{n}", relabeled(t, rng)))
    system = two_orbit_system()
    for i in range(2):
        rep = random_equivariant_rep(system, rng, max_dim=2)
        out.append((f"one_orbit_{i}", relabeled(diagonal_coefficient(rep, rng, points={2, 3, 4}), rng)))
    for system in (sigma_system(3), assorted_small_systems()[-1]):
        for t in random_multiplier_suite(system, 2, rng):
            mats = t.stack.copy()
            mats[:, :, 1] = 0.0
            out.append((f"dead_column_{system.group.order}", Multiplier(system, mats)))
    out.append(("zero", zero_multiplier(sigma_system(3))))
    # -0.0 counts as zero: on a dead point, a dead column and inside the support
    mats = omega_matrix_unit_coefficient(4, 1, 2, 3).stack.copy()
    mats[:, 0] = -0.0
    mats[:, :, 3] = -0.0
    mats[0, 1, 0] = -0.0
    out.append(("negative_zero", Multiplier(omega_system(4), mats)))
    return out


def drawn_tuples(t, trials, seed):
    """The tuples ``reference_oracle`` checks, in its draw order."""
    order, n = t.system.group.order, t.system.n_points
    rng = np.random.default_rng(seed)
    for size in [1] + [min(_WINDOW, trials - k) for k in range(1, trials, _WINDOW)]:
        lengths = rng.integers(1, 2 * order + 1, size=size)
        gs = rng.integers(0, order, size=int(lengths.sum()))
        amps = rng.normal(size=(len(gs), n)) + 1j * rng.normal(size=(len(gs), n))
        amps *= rng.integers(0, 2, size=(len(gs), n))
        cuts = np.cumsum(lengths)[:-1]
        yield from zip(np.split(gs, cuts), np.split(amps, cuts))


def assert_same_oracle_certificate(t, cert, trials, seed, tol, label):
    """``cert`` against ``reference_oracle``: verdict, defect, witness point,
    tuple and vectors byte for byte; the minimum eigenvalue byte for byte
    where no entry of the trials it covers is hidden, and otherwise equal to
    the same minimum over :func:`hidden_min_eigenvalues` in their place."""
    verdict, min_eig, hd, point, groups, vectors, _ = reference_oracle(t, trials, seed, tol)
    assert cert.verdict == verdict, label
    assert np.float64(cert.hermitian_defect).tobytes() == np.float64(hd).tobytes(), label
    assert cert.point == point and cert.sample_groups == groups, label
    assert (vectors is None) == (cert.sample_vectors is None)
    if vectors is not None:
        assert cert.sample_vectors.tobytes() == vectors.tobytes()
    reads = reference_read_sets(t)
    if not verdict:
        lam = hidden_min_eigenvalues(t, np.array(groups), vectors, reads)[point]
        expected = min_eig if lam is None else lam
        assert np.float64(cert.min_eigenvalue).tobytes() == np.float64(expected).tobytes(), label
        return
    hidden, expected = False, math.inf
    for g, a in drawn_tuples(t, trials, seed):
        _, mins, _, _ = reference_kernel_check(t, g, a, tol)
        lams = hidden_min_eigenvalues(t, g, a, reads)
        hidden |= any(lam is not None for lam in lams)
        expected = min(expected, min(m if lam is None else lam for m, lam in zip(mins, lams)))
    if hidden:
        assert cert.min_eigenvalue == expected, label
    else:
        assert np.float64(cert.min_eigenvalue).tobytes() == np.float64(min_eig).tobytes(), label


class TestLiveSupport:
    """The oracle forms each kernel on the tuple entries whose amplitudes
    are nonzero on its read set; every defect, verdict and witness keeps
    the bits of the full computation, -0.0 included, and so does every
    minimum eigenvalue of a kernel with no hidden entry."""

    @pytest.mark.parametrize("budget", [1, None], ids=["one-trial", "default"])
    def test_window_checks_keep_their_bits(self, rng, monkeypatch, budget):
        if budget:
            monkeypatch.setattr(multiplier, "_GATHER", budget)
            monkeypatch.setattr(fibers, "BLOCK_ELEMENTS", budget)
        dead_rows = dead_cols = hidden = 0
        for label, t in sparse_multipliers(rng):
            live = multiplier._kernel_table(t).any(axis=(0, 1))
            dead_rows += not live.any(axis=1).all()
            dead_cols += not live.any(axis=0).all()
            order = t.system.group.order
            for gs, amps in draw_tuples(t.system, sorted({1, 2, order, 2 * order}), 9, rng):
                want = reference_window_checks(t, gs, amps, 1e-9)
                hidden += assert_exact_checks(t, gs, amps, _kernel_checks(t, gs, amps, 1e-9), want)
        assert dead_rows >= 10 and dead_cols >= 10 and hidden > 0

    @pytest.mark.parametrize("tol", [1e-9, 10.0], ids=["default", "lenient"])
    def test_oracle_keeps_its_bits(self, rng, tol):
        failing = 0
        for seed, (label, t) in enumerate(sparse_multipliers(rng)):
            cert = pd_sample_oracle(t, trials=300, seed=seed, tol=tol)
            assert_same_oracle_certificate(t, cert, 300, seed, tol, label)
            failing += not cert.verdict
        if tol < 1:
            assert failing > 0

    def test_only_live_point_indefinite(self, rng):
        """A multiplier alive at one fixed point only, and indefinite there:
        the oracle fails at that point, with the reference witness."""
        system = two_orbit_system()
        mats = np.zeros((6, 6, 6), dtype=complex)
        mats[0, 5, 5] = -1.0
        mats[1:, 5, rng.integers(0, 6, size=5)] = rng.normal(size=5)
        t = relabeled(Multiplier(system, mats), rng)
        live = multiplier._kernel_table(t).any(axis=(0, 1)).any(axis=1)
        assert live.sum() == 1
        cert = pd_sample_oracle(t, trials=300, seed=3)
        verdict, min_eig, hd, point, groups, vectors, _ = reference_oracle(t, 300, 3, DEFAULT_TOL)
        assert not cert.verdict and not verdict
        assert cert.point == point == int(np.argmax(live))
        assert_same_oracle_certificate(t, cert, 300, 3, DEFAULT_TOL, "one live point")
        assert min_eig < 0 and cert.min_eigenvalue < 0


def read_groups(t):
    """The oracle's read groups as (points, read set) pairs, sorted."""
    sets, classes = multiplier._read_groups(t, multiplier._kernel_table(t))
    out = []
    for k0, k1, pts, _, _ in classes:
        out += [(tuple(p.tolist()), tuple(np.flatnonzero(sets[k]).tolist())) for k, p in zip(range(k0, k1), pts)]
    return sorted(out)


def sigma_multiplier(rng, sigma, order=2, dead=()):
    """On the trivial action of Z_order on len(sigma) points, T_g reads
    the point sigma[x] at row x (a random value), and nothing at the rows
    ``dead``."""
    n = len(sigma)
    mats = np.zeros((order, n, n), dtype=complex)
    rows = [x for x in range(n) if x not in dead]
    mats[:, rows, np.asarray(sigma)[rows]] = rng.normal(size=(order, len(rows))) + 1j * rng.normal(size=(order, len(rows)))
    return Multiplier(System(trivial_action(cyclic_group(order), n)), mats)


class TestReadGroups:
    """The oracle's points grouped by read set, each kernel formed on its
    visible sub-tuple: exact against the full reference kernel."""

    def check_exact(self, t, rng, count=9):
        order = t.system.group.order
        hidden = 0
        for gs, amps in draw_tuples(t.system, sorted({1, 2, order, 2 * order}), count, rng):
            want = reference_window_checks(t, gs, amps, 1e-9)
            hidden += assert_exact_checks(t, gs, amps, _kernel_checks(t, gs, amps, 1e-9), want)
        return hidden

    def test_group_of_several_points(self, rng):
        """A non-injective sigma: points 0, 1, 2 all read point 1 and form
        one group, point 3 reads itself."""
        t = sigma_multiplier(rng, [1, 1, 1, 3], order=6)
        assert read_groups(t) == [((0, 1, 2), (1,)), ((3,), (3,))]
        assert [set(r) for r in reference_read_sets(t)] == [{1}, {1}, {1}, {3}]
        assert self.check_exact(t, rng) > 0

    def test_dense_multiplier_is_one_group(self, rng):
        for system in (sigma_system(3), assorted_small_systems()[-1]):
            t = random_multiplier_suite(system, 3, rng)[2]  # the Gaussian one
            n = system.n_points
            assert read_groups(t) == [(tuple(range(n)), tuple(range(n)))]
            self.check_exact(t, rng)

    def test_negative_zero_entries_read_nothing(self, rng):
        t = sigma_multiplier(rng, [1, 1, 1, 3], order=6, dead=(3,))
        mats = t.stack.copy()
        mats[:, 3] = -0.0
        mats[:, :, 0] = complex(-0.0, -0.0)
        signed = Multiplier(t.system, mats)
        assert read_groups(signed) == read_groups(t) == [((0, 1, 2), (1,)), ((3,), ())]
        for gs, amps in draw_tuples(t.system, [3, 12], 9, rng):
            for got, want in zip(_kernel_checks(signed, gs, amps, 1e-9), _kernel_checks(t, gs, amps, 1e-9)):
                assert got.tobytes() == want.tobytes()
        assert self.check_exact(signed, rng) > 0

    def test_nan_scale_fails_hidden_and_dead_points(self, rng):
        """A trial whose kernel overflows has scale NaN: every point fails,
        the dead point 3 and the points whose kernel hides an entry too."""
        t = sigma_multiplier(rng, [1, 1, 1, 3], order=2, dead=(3,)) * 1e300
        reads = reference_read_sets(t)
        assert reads[3] == []
        overflowed = hidden = 0
        for gs, amps in draw_tuples(t.system, [4, 8], 20, rng):
            amps *= 1e5
            mins, hd, bad = _kernel_checks(t, gs, amps, 1e-9)
            for k in range(len(gs)):
                with np.errstate(over="ignore", invalid="ignore"):
                    finite = np.isfinite(reference_kernel(t, gs[k], amps[k])).all()
                if finite:
                    continue
                overflowed += 1
                assert bad[k].all()
                hidden += not (amps[k][:, reads[0]] != 0).all()
        assert overflowed > 0 and hidden > 0

    def test_relabeled_systems(self, rng):
        base = [sigma_multiplier(rng, [1, 1, 1, 3], order=6), sigma_multiplier(rng, [2, 0, 2], order=2, dead=(1,))]
        base += [t for label, t in sparse_multipliers(rng) if label.startswith(("omega", "one_orbit"))]
        for t in base:
            copy = relabeled(t, rng)
            shapes = sorted((len(p), len(r)) for p, r in read_groups(t))
            assert sorted((len(p), len(r)) for p, r in read_groups(copy)) == shapes
            self.check_exact(copy, rng, count=4)

    def test_working_set_dense_s4(self):
        """T_g = J / n on the natural S_4 action (positive definite, every
        kernel reads every point): over 1000 trials the oracle's peak stays
        below a bound set by the system alone, its table plus twice a window
        of longest tuples' amplitudes (the draws) and twice one longest
        tuple's gathered table entries (one pair always fits in a run, and
        the eigensolver copies its kernels)."""
        system = System(symmetric_action(4))
        t = Multiplier(system, np.full((24, 4, 4), 0.25))
        assert is_positive_definite(t).verdict
        assert read_groups(t) == [((0, 1, 2, 3), (0, 1, 2, 3))]
        table = multiplier._kernel_table(t).nbytes
        pd_sample_oracle(t, trials=2)  # numpy's lazy set-up is not the oracle's
        tracemalloc.start()
        try:
            assert pd_sample_oracle(t, trials=1000).verdict
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        window = 16 * _WINDOW * 48 * 4  # complex amplitudes of 256 tuples of length 2|G| on 4 points
        longest = 16 * 48 * 48 * 4 * 4  # the table entries one pair of length 2|G| gathers
        assert peak < table + 2 * window + 2 * longest


class TestPdSampleOracle:
    def test_unit_clean(self, z2_flip):
        cert = pd_sample_oracle(unit_multiplier(z2_flip), trials=1000, seed=42)
        assert cert.verdict

    def test_violation_found_with_witness(self, z2_trivial):
        t = Multiplier(z2_trivial, (np.zeros((2, 2)), np.eye(2)))
        cert = pd_sample_oracle(t, trials=1000, seed=42)
        assert not cert.verdict
        m = evaluate_sample_witness(t, cert)
        herm = (m + m.conj().T) / 2
        defect = np.abs(m - m.conj().T).max()
        assert defect > 1e-9 or np.linalg.eigvalsh(herm).min() < -1e-9

    def test_witness_reproduces_min_eigenvalue(self, rng):
        later = 0
        for system in oracle_systems():
            for seed, t in enumerate(random_multiplier_suite(system, 8, rng)):
                cert = pd_sample_oracle(t, trials=1000, seed=seed)
                if cert.verdict:
                    continue
                m = evaluate_sample_witness(t, cert)
                herm = (m + m.conj().T) / 2
                scale = 1.0 + np.abs(m).max()
                assert abs(np.linalg.eigvalsh(herm)[0] - cert.min_eigenvalue) <= 1e-10 * scale
                assert abs(np.abs(m - m.conj().T).max() - cert.hermitian_defect) <= 1e-10 * scale
                # a clean trial 0 puts the witness in a later window
                later += pd_sample_oracle(t, trials=1, seed=seed).verdict
        assert later > 0

    def test_working_set_independent_of_trials(self):
        s3 = assorted_small_systems()[-1]
        t = unit_multiplier(s3)

        def peak(trials):
            tracemalloc.start()
            try:
                assert pd_sample_oracle(t, trials=trials, seed=5).verdict
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        pd_sample_oracle(t, trials=1)  # numpy's lazy set-up is not the oracle's
        assert peak(4000) <= 1.25 * peak(500)

    def test_diagonal_coefficients_clean(self, z3_cycle, rng):
        for _ in range(3):
            rep = random_equivariant_rep(z3_cycle, rng, max_dim=2)
            xi = random_vector(rep.module, rng)
            t = coefficient(rep, xi, xi)
            assert pd_sample_oracle(t, trials=300, seed=1).verdict

    def test_trials_validated(self, z2_flip):
        with pytest.raises(ValueError):
            pd_sample_oracle(unit_multiplier(z2_flip), trials=0)


class TestMultiply:
    def test_unit_is_identity(self, z2_flip, rng):
        t = Multiplier(z2_flip, tuple(rng.normal(size=(2, 2)) for _ in range(2)))
        assert multiplier_distance(multiply(t, unit_multiplier(z2_flip)), t) == 0.0

    def test_matrix_units_compose(self):
        n, p = 2, 1
        sys_ = omega_system(n)
        t_kl = matrix_unit_target(sys_, 0, 1, p)
        t_lq = matrix_unit_target(sys_, 1, 0, p)
        prod = multiply(t_kl, t_lq)
        assert multiplier_distance(prod, matrix_unit_target(sys_, 0, 0, p)) == 0.0

    def test_tensor_coefficient_fixes_order(self, z2_flip, rng):
        """coefficient(tensor(r1, r2)) equals multiply(coeff2, coeff1):
        the second factor's map is applied after the first's."""
        r1 = sigma_example_rep(2)
        r2 = trivial_rep(z2_flip)
        x1, y1 = random_vector(r1.module, rng), random_vector(r1.module, rng)
        x2, y2 = random_vector(r2.module, rng), random_vector(r2.module, rng)
        t1 = coefficient(r1, x1, y1)
        t2 = coefficient(r2, x2, y2)
        rt, tp = tensor_rep(r1, r2)
        tt = coefficient(rt, tp.embed(x1, x2), tp.embed(y1, y2))
        assert multiplier_distance(tt, multiply(t2, t1)) <= 1e-12
        assert multiplier_distance(tt, multiply(t1, t2)) > 1e-3  # order matters

    def test_support_ideal_property(self, z3_cycle, rng):
        suite = random_multiplier_suite(z3_cycle, 6, rng)
        for t, s in zip(suite[::2], suite[1::2]):
            prod_support = set(multiply(t, s).support())
            assert prod_support <= (set(t.support()) & set(s.support()))

    def test_system_mismatch(self, z2_flip, z2_trivial):
        with pytest.raises(ValueError):
            multiply(unit_multiplier(z2_flip), unit_multiplier(z2_trivial))


class TestNormBounds:
    """The lower bound sup_g ||T_g|| is attained where a realization has
    ||xi|| ||eta|| = 1; the upper bound is infinite."""

    def test_unit_via_trivial_rep(self, z2_flip):
        rep = trivial_rep(z2_flip)
        one = ModuleVector(rep.module, tuple(np.ones(1) for _ in range(2)))
        t = unit_multiplier(z2_flip)
        assert multiplier_distance(coefficient(rep, one, one), t) == 0.0
        b = norm_bounds(t)
        assert b.lower == pytest.approx(1.0) and module_norm(one) ** 2 == pytest.approx(1.0)
        assert math.isinf(b.upper)

    def test_delta_e_via_regular(self, z2_flip):
        base = trivial_rep(z2_flip)
        reg = regular_rep(base)
        one = ModuleVector(base.module, tuple(np.ones(1) for _ in range(2)))
        xi = slot_embed(reg, 0, one)
        b = norm_bounds(coefficient(reg, xi, xi))
        assert b.lower == pytest.approx(1.0) and module_norm(xi) ** 2 == pytest.approx(1.0)
        assert math.isinf(b.upper)

    def test_matrix_unit_bounds(self):
        n, k, l, p = 2, 0, 1, 1
        rep = omega_example_rep(n, k, l)
        x, y = omega_example_vectors(n, k, p)
        t = omega_matrix_unit_coefficient(n, k, l, p)
        assert multiplier_distance(coefficient(rep, x, y), t) <= 1e-12
        b = norm_bounds(t)
        assert b.lower == pytest.approx(1.0) and module_norm(x) * module_norm(y) == pytest.approx(1.0)
        assert math.isinf(b.upper)

    def test_empty_realizations_give_infinite_upper(self, z2_flip):
        b = norm_bounds(unit_multiplier(z2_flip))
        assert b.lower == pytest.approx(1.0) and math.isinf(b.upper)

    def test_contractive_group_embedding(self, z3_cycle, rng):
        for _ in range(10):
            mu = rng.normal(size=3) + 1j * rng.normal(size=3)
            mu /= max(1.0, np.abs(mu).max())
            b = norm_bounds(from_group_function(z3_cycle, mu))
            assert b.lower <= 1.0 + 1e-12


class TestTruncateRealization:
    def test_full_slots_no_truncation(self, z2_flip, rng):
        reg = regular_rep(trivial_rep(z2_flip))
        xi, eta = random_vector(reg.module, rng), random_vector(reg.module, rng)
        t_eps, bounds = truncate_realization(reg, xi, eta, [0, 1], [0, 1])
        assert multiplier_distance(t_eps, coefficient(reg, xi, eta)) == 0.0
        assert bounds.upper == pytest.approx(0.0)

    def test_already_supported_vectors(self, z2_flip):
        base = trivial_rep(z2_flip)
        reg = regular_rep(base)
        one = ModuleVector(base.module, tuple(np.ones(1) for _ in range(2)))
        xi = slot_embed(reg, 0, one)
        t_eps, bounds = truncate_realization(reg, xi, xi, [0], [0])
        assert multiplier_distance(t_eps, coefficient(reg, xi, xi)) == 0.0
        assert bounds.upper == pytest.approx(0.0)

    def test_bound_dominates_truth(self, z2_flip, rng):
        reg = regular_rep(trivial_rep(z2_flip))
        for _ in range(10):
            xi, eta = random_vector(reg.module, rng), random_vector(reg.module, rng)
            _, bounds = truncate_realization(reg, xi, eta, [0], [0])
            assert bounds.lower <= bounds.upper + 1e-12

    def test_requires_amplified_rep(self, z2_flip, rng):
        rep = trivial_rep(z2_flip)
        xi = random_vector(rep.module, rng)
        with pytest.raises(ValueError, match="amplified"):
            truncate_realization(rep, xi, xi, [0], [0])


class TestRealizeViaRegular:
    def test_unit_multiplier(self, z2_flip):
        rep = trivial_rep(z2_flip)
        one = ModuleVector(rep.module, tuple(np.ones(1) for _ in range(2)))
        t = unit_multiplier(z2_flip)
        reg, xi_s, eta_e = realize_via_regular(t, rep, one, one)
        assert multiplier_distance(coefficient(reg, xi_s, eta_e), t) == 0.0

    def test_matrix_unit(self):
        n, k, l, p = 2, 1, 0, 1
        rep = omega_example_rep(n, k, l)
        x, y = omega_example_vectors(n, k, p)
        t = omega_matrix_unit_coefficient(n, k, l, p)
        reg, xi_s, eta_e = realize_via_regular(t, rep, x, y)
        assert multiplier_distance(coefficient(reg, xi_s, eta_e), t) == 0.0

    def test_random_coefficients_exact(self, z3_cycle, rng):
        for _ in range(5):
            rep = random_equivariant_rep(z3_cycle, rng, max_dim=2)
            xi, eta = random_vector(rep.module, rng), random_vector(rep.module, rng)
            t = coefficient(rep, xi, eta)
            if not t.support():
                continue
            reg, xi_s, eta_e = realize_via_regular(t, rep, xi, eta)
            assert multiplier_distance(coefficient(reg, xi_s, eta_e), t) <= 1e-12

    def test_zero_multiplier_rejected(self, z2_flip):
        rep = trivial_rep(z2_flip)
        zero = ModuleVector(rep.module, tuple(np.zeros(1) for _ in range(2)))
        with pytest.raises(ValueError, match="support"):
            realize_via_regular(zero_multiplier(z2_flip), rep, zero, zero)


class TestFromGroupFunction:
    def test_constant_one_is_unit(self, z2_flip):
        t = from_group_function(z2_flip, [1.0, 1.0])
        assert multiplier_distance(t, unit_multiplier(z2_flip)) == 0.0
        assert is_positive_definite(t).verdict

    def test_sign_character(self, z2_flip):
        assert group_function_is_positive_definite(z2_flip, [1.0, -1.0])
        assert is_positive_definite(from_group_function(z2_flip, [1.0, -1.0])).verdict

    def test_unbalanced_function_not_pd(self, z2_flip):
        assert not group_function_is_positive_definite(z2_flip, [1.0, 2.0])
        assert not is_positive_definite(from_group_function(z2_flip, [1.0, 2.0])).verdict

    def test_group_pd_transfers(self, z3_cycle, rng):
        for _ in range(10):
            mu = rng.normal(size=3) + 1j * rng.normal(size=3)
            t = from_group_function(z3_cycle, mu)
            assert group_function_is_positive_definite(z3_cycle, mu) == is_positive_definite(t).verdict


class TestSpanDimension:
    @pytest.mark.parametrize("kind", ["omega_n", "sigma_n"])
    def test_matrix_unit_families_full_span(self, kind):
        family = matrix_unit_family(kind, 2)
        assert span_dimension(family) == 8

    def test_duplicates_do_not_change_rank(self):
        family = matrix_unit_family("omega_n", 2)
        assert span_dimension(family + family) == 8

    def test_empty(self):
        assert span_dimension([]) == 0


class TestConeStructure:
    def test_sums_and_scalings_stay_pd(self, rng):
        for system in standard_systems().values():
            for _ in range(4):
                r1 = random_equivariant_rep(system, rng, max_dim=2)
                r2 = random_equivariant_rep(system, rng, max_dim=2)
                t1 = coefficient(r1, *(random_vector(r1.module, rng),) * 2)
                t2 = coefficient(r2, *(random_vector(r2.module, rng),) * 2)
                lam = float(rng.random()) * 3.0
                assert is_positive_definite(t1 + t2).verdict
                assert is_positive_definite(lam * t1).verdict


def reference_generator_pair(trivial, eps, xi, eta):
    """Test-only oracle: the closed-form generator formulas as the sampler
    evaluated them one term at a time, on already drawn values."""
    sq = lambda z: float(abs(z) * abs(z))  # noqa: E731
    t0 = np.array([[sq(xi[0]), sq(xi[1])], [sq(eta[0]), sq(eta[1])]], dtype=complex)
    if trivial:
        t1 = np.array(
            [
                [eps[0] * sq(xi[0]), eps[1] * sq(xi[1])],
                [eps[2] * sq(eta[0]), eps[3] * sq(eta[1])],
            ],
            dtype=complex,
        )
    else:
        # entrywise [[e0 conj(xi0) eta1, e1 conj(xi1) eta0],
        #            [e0 conj(eta0) xi1, e1 conj(eta1) xi0]], multiplied as
        # arrays: numpy's complex scalar and array products can differ in
        # the last bit
        left = np.array([xi[0], xi[1], eta[0], eta[1]])
        right = np.array([eta[1], eta[0], xi[1], xi[0]])
        t1 = (eps[[0, 1, 0, 1]] * np.conj(left) * right).reshape(2, 2)
    return t0, t1


def reference_trace_sample(system, count, seed, tol=DEFAULT_TOL, max_terms=3):
    """Test-only oracle: the documented draw order (term counts, slot
    weights, signs, xi, eta), replayed sample by sample with the former
    per-term accumulation and the loop criterion.  Only a sample's drawn
    terms enter it.  Returns (T_0, T_1, tr T_0, tr T_1, verdict) per sample."""
    trivial = system.action.apply(1, 0) == 0
    rng = np.random.default_rng(seed)
    slots = (count, max_terms)
    used = rng.integers(1, max_terms + 1, size=count)
    weights = rng.random(slots)
    eps = rng.choice([-1, 0, 1] if trivial else [-1, 1], size=slots + (4 if trivial else 2,))
    xi = rng.normal(size=slots + (2,)) + 1j * rng.normal(size=slots + (2,))
    eta = rng.normal(size=slots + (2,)) + 1j * rng.normal(size=slots + (2,))
    out = []
    for i in range(count):
        t0 = np.zeros((2, 2), dtype=complex)
        t1 = np.zeros((2, 2), dtype=complex)
        for j in range(used[i]):
            a, b = reference_generator_pair(trivial, eps[i, j], xi[i, j], eta[i, j])
            t0 += float(weights[i, j]) * a
            t1 += float(weights[i, j]) * b
        verdict = reference_is_positive_definite(Multiplier(system, (t0, t1)), tol).verdict
        out.append((t0, t1, complex(np.trace(t0)), complex(np.trace(t1)), verdict))
    return out


class TestTraceImageSample:
    def test_trivial_action_traces(self):
        samples = trace_image_sample(omega_system(2), 500, seed=3)
        for s in samples:
            assert s.trace1.imag == 0.0
            assert s.trace0.real >= 0.0
            assert s.positive_definite

    def test_trivial_action_negative_real_reached(self):
        samples = trace_image_sample(omega_system(2), 300, seed=5)
        assert any(s.trace1.real < -0.1 for s in samples)

    def test_shift_action_nonreal_found_quickly(self):
        samples = trace_image_sample(sigma_system(2), 100, seed=42)
        assert any(abs(s.trace1.imag) >= 0.5 for s in samples)

    def test_formula_evaluations(self):
        # mixed-sign pattern at xi=(1,0), eta=(0,i): both diagonal entries i
        eps, xi, eta = (1, -1), (1.0, 0.0), (0.0, 1j)
        t1 = np.array(
            [
                [eps[0] * np.conj(xi[0]) * eta[1], eps[1] * np.conj(xi[1]) * eta[0]],
                [eps[0] * np.conj(eta[0]) * xi[1], eps[1] * np.conj(eta[1]) * xi[0]],
            ]
        )
        assert np.trace(t1) == pytest.approx(2j)
        # trivial-action pattern with eps_0 = -1, xi = (1, 0), eta = 0
        t1_triv = np.array([[-1.0 * 1.0, 0.0], [0.0, 0.0]])
        assert np.trace(t1_triv) == pytest.approx(-1.0)

    def test_shift_mixed_sign_patterns_fail_certificate(self):
        """Pins the documented-formula discrepancy: non-real second traces only
        arise from samples that are not positive definite, because the kernel
        condition forces T_1 = F conj(T_1) F and hence a real trace."""
        samples = trace_image_sample(sigma_system(2), 200, seed=42)
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        for s in samples:
            t1 = s.multiplier.mats[1]
            pairing_holds = np.allclose(t1, flip @ t1.conj() @ flip, atol=1e-12)
            if abs(s.trace1.imag) > 1e-9:
                assert not s.positive_definite
                assert not pairing_holds
            if s.positive_definite:
                assert abs(s.trace1.imag) <= 1e-12

    def test_genuine_flip_coefficients_have_real_second_trace(self, z2_flip, rng):
        for _ in range(20):
            rep = random_equivariant_rep(z2_flip, rng, max_dim=2)
            xi = random_vector(rep.module, rng)
            t = coefficient(rep, xi, xi)
            assert abs(np.trace(t.mats[1]).imag) <= 1e-9

    @pytest.mark.parametrize("kind", ["omega_n", "sigma_n"])
    @pytest.mark.parametrize("seed,count", [(0, 1), (1, 1), (5, 40), (42, 300)])
    def test_matches_per_sample_reference(self, kind, seed, count):
        system = omega_system(2) if kind == "omega_n" else sigma_system(2)
        samples = trace_image_sample(system, count, seed=seed)
        want = reference_trace_sample(system, count, seed)
        assert len(samples) == count
        for s, (t0, t1, tr0, tr1, verdict) in zip(samples, want):
            assert np.array_equal(s.multiplier.mats[0], t0)
            assert np.array_equal(s.multiplier.mats[1], t1)
            assert (s.trace0, s.trace1) == (tr0, tr1)
            assert s.positive_definite == verdict

    def test_samples_are_views_of_one_checked_stack(self):
        samples = trace_image_sample(sigma_system(2), 50, seed=4)
        whole = samples[0].multiplier.stack.base
        assert whole.shape == (50, 2, 2, 2)
        for s in samples:
            t = s.multiplier
            assert not t.stack.flags.writeable and t.stack.base is whole
            assert all(np.shares_memory(m, t.stack) for m in t.mats)

    def test_each_of_checks_the_whole_stack(self, z2_flip):
        stack = np.zeros((3, 2, 2, 2))
        stack[2, 1, 0, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            Multiplier._each_of(z2_flip, stack)
        with pytest.raises(ValueError):
            Multiplier._each_of(z2_flip, np.zeros((3, 3, 2, 2)))

    def test_verdicts_mixed_on_the_flip(self):
        verdicts = {s.positive_definite for s in trace_image_sample(sigma_system(2), 300, seed=42)}
        assert verdicts == {True, False}

    def test_unknown_system_rejected(self, z3_cycle):
        with pytest.raises(ValueError):
            trace_image_sample(z3_cycle, 10)


class TestMatrixUnitDeviation:
    @pytest.mark.parametrize("kind", ["omega_n", "sigma_n"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_families_exact(self, kind, n):
        assert matrix_unit_deviation(matrix_unit_family(kind, n)) <= 1e-12

    def test_deviation_locates_a_wrong_entry(self):
        family = matrix_unit_family("sigma_n", 3)
        assert matrix_unit_deviation(family) == 0.0
        i = 1 * 9 + 2 * 3 + 0  # (k, l, p) = (1, 2, 0)
        mats = [m.copy() for m in family[i].mats]
        mats[0][1, 2] = 0.75  # the unit entry, off by 0.25
        mats[2][0, 0] = 0.5  # an entry of another group element, off by 0.5
        family[i] = Multiplier(family[i].system, tuple(mats))
        assert matrix_unit_deviation(family) == 0.5


class TestPdCertificateShape:
    def test_success_carries_min_eigenvalue(self, z2_flip):
        cert = is_positive_definite(unit_multiplier(z2_flip))
        assert cert.verdict and cert.eigenvector is None

    def test_failure_witness_reproducible(self, z2_trivial):
        t = Multiplier(z2_trivial, (np.zeros((2, 2)), np.eye(2)))
        cert = is_positive_definite(t)
        assert not cert.verdict
        from cstardyn.multiplier import pd_criterion_matrix

        m = pd_criterion_matrix(t, cert.point, cert.basis)
        assert not is_psd(m)


class TestAlgebraLaws:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_multiply_associative_and_unital(self, seed):
        system = sigma_system(2)
        gen = np.random.default_rng(seed)
        draw = lambda: Multiplier(  # noqa: E731
            system, tuple(gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)) for _ in range(2))
        )
        t, s, r = draw(), draw(), draw()
        assert multiplier_distance(multiply(multiply(t, s), r), multiply(t, multiply(s, r))) <= 1e-12
        assert multiplier_distance(multiply(unit_multiplier(system), t), t) == 0.0
        assert multiplier_distance(multiply(t, unit_multiplier(system)), t) == 0.0
