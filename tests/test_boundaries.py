"""Degenerate and non-abelian paths: zero fibers, zero multipliers, S_3."""

import numpy as np
import pytest

from cstardyn.crossed import build_reduced, induced_map, is_completely_positive
from cstardyn.cyclic_examples import omega_example_rep, omega_system, sigma_example_rep
from cstardyn.equivrep import (
    EquivariantRep,
    fell_absorption_unitary,
    gns_from_pd,
    is_cyclic,
    unitarily_equivalent,
    verify_equivariant,
)
from cstardyn.generators import assorted_small_systems, random_equivariant_rep, random_vector
from cstardyn.hilbmod import SectionalModule
from cstardyn.multiplier import (
    Multiplier,
    coefficient,
    is_positive_definite,
    multiplier_distance,
    pd_sample_oracle,
    zero_multiplier,
)


def test_gns_of_zero_multiplier_is_zero_module(z3_cycle):
    rep, cyc = gns_from_pd(zero_multiplier(z3_cycle))
    assert rep.module.fiber_dims == (0, 0, 0)
    assert multiplier_distance(coefficient(rep, cyc.vector, cyc.vector), zero_multiplier(z3_cycle)) == 0.0


def test_zero_dim_fibers_verify():
    rep = omega_example_rep(3, 1, 2)
    assert rep.module.fiber_dims == (0, 3, 0)
    assert verify_equivariant(rep).passed


def test_zero_module_rep():
    system = omega_system(2)
    z = SectionalModule(system.space, (0, 0))
    empty = np.zeros((0, 0))
    rep = EquivariantRep(
        system,
        z,
        ((empty, empty), (empty, empty)),
        ((empty, empty), (empty, empty)),
    )
    assert verify_equivariant(rep).passed
    assert unitarily_equivalent(rep, rep) is not None


def test_gns_round_trip_over_assorted_groups(rng):
    for system in assorted_small_systems():
        src = random_equivariant_rep(system, rng, max_dim=2, allow_composites=False)
        xi = random_vector(src.module, rng)
        t = coefficient(src, xi, xi)
        rep, cyc = gns_from_pd(t)
        scale = 1.0 + max(np.abs(m).max() for m in t.mats)
        assert multiplier_distance(coefficient(rep, cyc.vector, cyc.vector), t) <= 1e-9 * scale
        assert is_cyclic(rep, cyc.vector)
        assert verify_equivariant(rep).passed


def test_nonabelian_system_end_to_end(rng):
    s3_system = assorted_small_systems()[-1]
    assert s3_system.group.order == 6
    rep = random_equivariant_rep(s3_system, rng, max_dim=1, allow_composites=False)
    _, report, _, _ = fell_absorption_unitary(rep)
    assert report.passed
    rcp = build_reduced(s3_system)
    assert rcp.dim == 18
    t = coefficient(rep, *(random_vector(rep.module, rng),) * 2)
    pd = is_positive_definite(t).verdict
    cp = is_completely_positive(rcp, induced_map(rcp, t)).verdict
    assert pd == cp


@pytest.mark.parametrize("n", [7, 8])
def test_tri_agreement_on_large_shift_systems(n, rng):
    # N * D = n^4: 2401 and 4096 rows in the complete-positivity matrix
    rep = sigma_example_rep(n)
    t = coefficient(rep, *(random_vector(rep.module, rng),) * 2)
    rcp = build_reduced(rep.system)
    for m, expected in ((t, True), (Multiplier(t.system, tuple(-x for x in t.mats)), False)):
        verdicts = (
            is_positive_definite(m).verdict,
            pd_sample_oracle(m, trials=200, seed=n).verdict,
            is_completely_positive(rcp, induced_map(rcp, m)).verdict,
        )
        assert verdicts == (expected,) * 3


def test_trace_trivial_system_order_one():
    # the one-point, one-element system is legal end to end
    system = omega_system(1)
    rcp = build_reduced(system)
    assert rcp.dim == 1
    t = zero_multiplier(system)
    assert is_positive_definite(t).verdict
