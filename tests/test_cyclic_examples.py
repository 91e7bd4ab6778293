"""The matrix-unit families: one system per family, one batched coefficient
contraction, and stacks equal bit for bit to the per-(k, l, p) construction."""

import contextlib
import io
import itertools

import numpy as np
import pytest

from cstardyn import cli
from cstardyn.core import FiniteGroup
from cstardyn.cyclic_examples import (
    matrix_unit_deviation,
    matrix_unit_family,
    omega_cocycle,
    omega_example_rep,
    omega_example_vectors,
    sigma_cocycle,
    sigma_example_rep,
)
from cstardyn.generators import assorted_small_systems, random_equivariant_rep, random_vector
from cstardyn.multiplier import _coefficients, coefficient
from oracles import omega_matrix_unit_coefficient, same_bits, sigma_example_vectors, sigma_matrix_unit_coefficient


def reference_matrix_unit_family(kind, n):
    """The per-(k, l, p) loop over the example helpers and :func:`coefficient`."""
    out = []
    for k, l, p in itertools.product(range(n), repeat=3):
        if kind == "omega_n":
            out.append(coefficient(omega_example_rep(n, k, l), *omega_example_vectors(n, k, p)))
        else:
            out.append(coefficient(sigma_example_rep(n), *sigma_example_vectors(n, k, l, p)))
    return out


def reference_coefficient(rep, xi, eta):
    """The coefficient stack of one pair, from the three contractions written
    without a batch axis."""
    width = max(rep.module.fiber_dims)
    a, b = (np.array([np.pad(c, (0, width - len(c))) for c in v.components]) for v in (xi, eta))
    shifted = np.einsum("gxij,gxj->gxi", rep.v_stack, b[rep.system.action.src])
    left = np.einsum("xi,jxik->jxk", a.conj(), rep.rho_stack)
    return np.einsum("jxk,gxk->gxj", left, shifted)


class TestFamilyMatchesReference:
    @pytest.mark.parametrize("kind", ["omega_n", "sigma_n"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_bit_identical(self, kind, n):
        family = matrix_unit_family(kind, n)
        reference = reference_matrix_unit_family(kind, n)
        assert len(family) == len(reference) == n**3
        for t, r in zip(family, reference):
            assert t.system == r.system
            assert same_bits(t.stack, r.stack)
        assert matrix_unit_deviation(family) == 0.0

    @pytest.mark.parametrize("kind", ["omega_n", "sigma_n"])
    def test_one_system_one_stack(self, kind):
        family = matrix_unit_family(kind, 3)
        assert all(t.system is family[0].system for t in family)
        assert all(t.stack.base is family[0].stack.base for t in family)
        assert not family[0].stack.flags.writeable


def batch_cases():
    rng = np.random.default_rng(11)
    reps = [random_equivariant_rep(s, rng, max_dim=3) for s in assorted_small_systems()]
    return reps + [sigma_example_rep(5), omega_example_rep(4, 1, 2)], rng


class TestBatchedCoefficient:
    @pytest.mark.parametrize("count", [1, 6])
    def test_equals_reference_per_pair(self, count):
        reps, rng = batch_cases()
        for rep in reps:
            xis = [random_vector(rep.module, rng) for _ in range(count)]
            etas = [random_vector(rep.module, rng) for _ in range(count)]
            a, b = (np.stack([v.stack for v in vs]) for vs in (xis, etas))
            batch = _coefficients(rep, a, b)
            assert batch.shape == (count, rep.system.group.order, rep.system.n_points, rep.system.n_points)
            for f in range(count):
                ref = reference_coefficient(rep, xis[f], etas[f])
                assert same_bits(batch[f], ref)
                assert same_bits(coefficient(rep, xis[f], etas[f]).stack, ref)


def count_groups(monkeypatch):
    built = []
    original = FiniteGroup.__post_init__

    def counting(self):
        built.append(self.order)
        original(self)

    monkeypatch.setattr(FiniteGroup, "__post_init__", counting)
    return built


class TestOneSystem:
    @pytest.mark.parametrize("kind", ["omega_n", "sigma_n"])
    def test_example_request_builds_one_group(self, kind, monkeypatch):
        built = count_groups(monkeypatch)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["example", "--name", kind, "--n", "4"]) == 0
        assert built == [4]

    @pytest.mark.parametrize(
        "helper",
        [
            lambda: omega_cocycle(3, 1),
            lambda: omega_example_rep(3, 1, 2),
            lambda: omega_example_vectors(3, 1, 2),
            lambda: omega_matrix_unit_coefficient(3, 1, 2, 0),
            lambda: sigma_cocycle(3),
            lambda: sigma_example_rep(3),
            lambda: sigma_example_vectors(3, 0, 1, 2),
            lambda: sigma_matrix_unit_coefficient(3, 0, 1, 2),
        ],
        ids=[
            "omega_cocycle",
            "omega_example_rep",
            "omega_example_vectors",
            "omega_matrix_unit_coefficient",
            "sigma_cocycle",
            "sigma_example_rep",
            "sigma_example_vectors",
            "sigma_matrix_unit_coefficient",
        ],
    )
    def test_helpers_build_at_most_one_group(self, helper, monkeypatch):
        built = count_groups(monkeypatch)
        helper()
        assert len(built) <= 1
