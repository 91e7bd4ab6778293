"""The one gram quotient, ``numutil.gram_quotient``, and its three callers.

``reference_gram_quotient`` is the dense quotient that ``gns_from_pd``,
``internal_tensor`` and ``sectionalize`` each ran on their whole gram before
they shared the helper: one ``eigh`` of the Hermitian part and the cutoff
``tol * (1 + max(0, lambda_max))``.  The fiber dimensions of the callers are
checked against it on the dense grams they quotient block by block.
"""

import numpy as np
import pytest

from cstardyn.core import DEFAULT_TOL
from cstardyn.cyclic_examples import omega_example_rep, omega_system, sigma_example_rep, sigma_system
from cstardyn.equivrep import fell_absorption_unitary, gns_from_pd, regular_rep, tensor_rep, trivial_rep, verify_equivariant
from cstardyn.generators import assorted_small_systems, random_equivariant_rep, random_vector
from cstardyn.multiplier import coefficient, multiplier_distance, unit_multiplier
from cstardyn.numutil import gram_quotient
from oracles import criterion_matrix, reference_block_quotient, residual_of, rho_blocks, same_bits


def reference_gram_quotient(gram: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """``(coord, pinv)`` of the dense quotient of a Hermitian gram."""
    gram = np.asarray(gram, dtype=complex)
    lam, vecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    cutoff = tol * (1.0 + max(lam.max(initial=0.0), 0.0))
    if len(lam) and lam.min() < -cutoff:
        raise ValueError("gram is indefinite")
    keep = lam > cutoff
    root, kept = np.sqrt(lam[keep]), vecs[:, keep]
    return root[:, None] * kept.conj().T, kept / root


def block_diag(blocks) -> np.ndarray:
    sizes = [b.shape[0] for b in blocks]
    out = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    at = 0
    for b, d in zip(blocks, sizes):
        out[at : at + d, at : at + d] = b
        at += d
    return out


def reference_rank(blocks, tol: float = DEFAULT_TOL) -> int:
    return len(reference_gram_quotient(block_diag(blocks), tol)[0])


def random_psd(rng, size: int, rank: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
    return scale * (a @ a.conj().T)


def random_blocks(rng, count: int | None = None) -> list[np.ndarray]:
    """``count`` blocks (1 to 6 when None) of sizes 0 to 5: empty, zero,
    rank-deficient and full rank, with scales 1 and 1e6 mixed in one gram."""
    blocks = []
    for _ in range(int(rng.integers(1, 7)) if count is None else count):
        size = int(rng.integers(0, 6))
        kind = rng.integers(3)
        if kind == 0:
            blocks.append(np.zeros((size, size), dtype=complex))
        else:
            rank = size if kind == 1 else int(rng.integers(0, size + 1))
            blocks.append(random_psd(rng, size, rank, float(rng.choice([1.0, 1e6]))))
    return blocks


def padded_group(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of one gram as the (1, K, D, D) stack and (1, K) sizes."""
    sizes = np.array([[b.shape[0] for b in blocks]])
    stack = np.zeros((1, len(blocks)) + (sizes.max(initial=0),) * 2, dtype=complex)
    for k, b in enumerate(blocks):
        stack[0, k, : len(b), : len(b)] = b
    return stack, sizes


class TestGramQuotient:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        blocks = random_blocks(rng)
        coord, pinv, ranks = gram_quotient(*padded_group(blocks))
        assert ranks.shape == (1, len(blocks))
        assert ranks.sum() == reference_rank(blocks)
        assert coord.shape[2] == pinv.shape[3] == ranks.max(initial=0)
        for block, c, p, r in zip(blocks, coord[0], pinv[0], ranks[0]):
            size = block.shape[0]
            assert not c[r:].any() and not c[:, size:].any() and not p[size:].any() and not p[:, r:].any()
            c, p = c[:r, :size], p[:size, :r]
            assert np.abs(c @ p - np.eye(r)).max(initial=0.0) <= 1e-12
            scale = 1.0 + np.abs(block).max(initial=0.0)
            assert np.abs(c.conj().T @ c - block).max(initial=0.0) <= 1e-12 * scale

    def test_cutoff_is_per_group(self):
        # an eigenvalue of 1e-5 is kept on its own, but falls below the
        # cutoff of a gram that also holds an eigenvalue of 1e6
        small = np.diag([1.0, 1e-5]).astype(complex)
        assert gram_quotient(*padded_group([small]))[2].tolist() == [[2]]
        big = 1e6 * np.eye(1, dtype=complex)
        assert gram_quotient(*padded_group([small, big]))[2].tolist() == [[1, 1]]
        assert reference_rank([small, big]) == 2
        # in groups of their own, each block keeps its own cutoff
        stack = np.zeros((2, 1, 2, 2), dtype=complex)
        stack[0, 0], stack[1, 0, :1, :1] = small, big
        assert gram_quotient(stack, [[2], [1]])[2].tolist() == [[2], [1]]

    def test_empty_and_zero_blocks(self):
        coord, pinv, ranks = gram_quotient(np.zeros((1, 2, 3, 3)), [[0, 3]])
        assert coord.shape == (1, 2, 0, 3) and pinv.shape == (1, 2, 3, 0)
        assert ranks.tolist() == [[0, 0]]
        coord, pinv, ranks = gram_quotient(np.zeros((1, 0, 0, 0)), 0)
        assert coord.shape == pinv.shape == (1, 0, 0, 0) and ranks.shape == (1, 0)

    def test_indefinite_block_named(self, rng):
        blocks = [random_psd(rng, 2, 2), random_psd(rng, 3, 1), -random_psd(rng, 2, 1)]
        with pytest.raises(ValueError, match=r"block \(0, 2\) is indefinite"):
            gram_quotient(*padded_group(blocks))

    @pytest.mark.parametrize("where", [(0, 0), (1, 2), (2, 1)])
    def test_nan_block_named(self, rng, where):
        stack = np.stack([np.stack([random_psd(rng, 3, 3) for _ in range(3)]) for _ in range(3)])
        stack[where + (1, 2)] = np.nan
        with pytest.raises(ValueError, match=rf"block \({where[0]}, {where[1]}\) is indefinite \(eigenvalue nan"):
            gram_quotient(stack, 3)

    @pytest.mark.parametrize("seed", range(40))
    def test_bit_identical_to_block_reference(self, seed):
        """Several groups of blocks of sizes 0 to 5, zero, rank-deficient and
        full rank, scales 1 and 1e6 mixed, so that the groups' cutoffs differ:
        every output equals that of the list-based quotient of its group."""
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 7))
        groups = [random_blocks(rng, count) for _ in range(int(rng.integers(1, 5)))]
        sizes = np.array([[len(b) for b in blocks] for blocks in groups])
        stack = np.zeros(sizes.shape + (max(sizes.max(), 1),) * 2, dtype=complex)
        for g, blocks in enumerate(groups):
            for k, b in enumerate(blocks):
                stack[g, k, : len(b), : len(b)] = b
        coord, pinv, ranks = gram_quotient(stack, sizes)
        for g, blocks in enumerate(groups):
            for k, (c, p) in enumerate(reference_block_quotient(blocks, DEFAULT_TOL)):
                size, r = sizes[g, k], len(c)
                assert ranks[g, k] == r
                assert same_bits(coord[g, k, :r, :size], c) and same_bits(pinv[g, k, :size, :r], p)
                assert not coord[g, k, r:].any() and not coord[g, k, :, size:].any()
                assert not pinv[g, k, size:].any() and not pinv[g, k, :, r:].any()


def cyclic_cases():
    for n in range(1, 9):
        yield f"sigma_{n}", sigma_system(n), (sigma_example_rep(n), sigma_example_rep(n))
        yield f"omega_{n}", omega_system(n), (omega_example_rep(n, n - 1, 0), omega_example_rep(n, 0, n // 2))


def caller_cases():
    rng = np.random.default_rng(17)
    cases = [
        (f"assorted_{i}", s, tuple(random_equivariant_rep(s, rng, max_dim=2) for _ in range(2)))
        for i, s in enumerate(assorted_small_systems())
    ]
    return cases + list(cyclic_cases())


CASES = caller_cases()


def tensor_dims(r1, r2) -> tuple[int, ...]:
    """The fiber dimensions of the dense tensor quotient: at point m the gram
    is block-diag over the basis of r1's module of rho2(e_p) at m, p the
    fiber of the basis vector."""
    fiber_of = [p for p, d in enumerate(r1.module.fiber_dims) for _ in range(d)]
    points = range(r1.module.n_points)
    return tuple(reference_rank([rho_blocks(r2)[p][m] for p in fiber_of]) for m in points)


@pytest.mark.parametrize("label,system,reps", CASES, ids=[c[0] for c in CASES])
class TestCallersKeepDims:
    def test_gns(self, label, system, reps):
        rng = np.random.default_rng(3)
        xi = random_vector(reps[0].module, rng)
        for t in (unit_multiplier(system), coefficient(reps[0], xi, xi)):
            rep, cyc = gns_from_pd(t)
            n = system.n_points
            dense = tuple(reference_rank([criterion_matrix(t, p, j) for j in range(n)]) for p in range(n))
            assert rep.module.fiber_dims == dense
            assert verify_equivariant(rep).passed
            scale = 1.0 + np.abs(t.stack).max()
            assert multiplier_distance(coefficient(rep, cyc.vector, cyc.vector), t) <= 1e-9 * scale

    def test_tensor(self, label, system, reps):
        rep, _ = tensor_rep(*reps)
        assert rep.module.fiber_dims == tensor_dims(*reps)
        assert verify_equivariant(rep).passed

    def test_fell_absorption(self, label, system, reps):
        rep = reps[0]
        _, report, (trep, _), reg = fell_absorption_unitary(rep)
        assert trep.module.fiber_dims == tensor_dims(rep, regular_rep(trivial_rep(system)))
        assert trep.module.fiber_dims == reg.module.fiber_dims
        assert report.passed
        for name in ("isometry", "surjectivity", "intertwines rho", "intertwines v", "algebra linearity"):
            assert residual_of(report, name) <= 1e-12, name


def test_gns_unit_sigma_16():
    t = unit_multiplier(sigma_system(16))
    rep, cyc = gns_from_pd(t)
    assert rep.module.fiber_dims == (1,) * 16
    assert verify_equivariant(rep).passed
    assert multiplier_distance(coefficient(rep, cyc.vector, cyc.vector), t) <= 1e-12
