"""Acceptance suite: one test per release criterion, each printing a verdict
line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import json
import time

import numpy as np

from cstardyn.cocycle import CocycleRep, EquivariantMap, banach_stone_extract, rho_from_sigma, verify_cocycle
from cstardyn.crossed import build_reduced, center_dimension, induced_map, is_commutative, is_completely_positive
from cstardyn.cyclic_examples import (
    matrix_unit_family,
    matrix_unit_target,
    omega_system,
    sigma_system,
)
from cstardyn.equivrep import fell_absorption_unitary, regular_rep, trivial_rep
from cstardyn.generators import (
    assorted_small_systems,
    random_equivariant_rep,
    random_multiplier_suite,
    random_vector,
    standard_systems,
)
from cstardyn.hilbmod import banach_stone_operator
from cstardyn.multiplier import (
    coefficient,
    is_positive_definite,
    multiplier_distance,
    pd_sample_oracle,
    realize_via_regular,
    span_dimension,
    trace_image_sample,
    truncate_realization,
)

MODULE_STARTED = time.monotonic()


def criterion(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL  {description}")
                raise
            print(f"ACCEPTANCE {num}: PASS  {description} ({time.monotonic() - started:.1f}s)")

        return wrapper

    return deco


@criterion(1, "matrix-unit coefficients reproduced entrywise for n in {2, 3}")
def test_criterion_1_matrix_unit_reproduction():
    started = time.monotonic()
    for n in (2, 3):
        for kind, system in (("omega_n", omega_system(n)), ("sigma_n", sigma_system(n))):
            family = matrix_unit_family(kind, n)
            i = 0
            for k in range(n):
                for l in range(n):
                    for p in range(n):
                        target = matrix_unit_target(system, k, l, p)
                        assert multiplier_distance(family[i], target) <= 1e-9
                        i += 1
    assert time.monotonic() - started < 5.0


@criterion(2, "coefficient span dimension equals n^3 for both families, n in {2, 3}")
def test_criterion_2_span_dimension():
    for n in (2, 3):
        for kind in ("omega_n", "sigma_n"):
            assert span_dimension(matrix_unit_family(kind, n)) == n**3


@criterion(3, "positivity tri-agreement: criterion, 1000-draw oracle, CP check")
def test_criterion_3_tri_agreement():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    disagreements = []
    for name, system in standard_systems().items():
        rcp = build_reduced(system)
        for idx, t in enumerate(random_multiplier_suite(system, 50, rng)):
            a = is_positive_definite(t).verdict
            b = pd_sample_oracle(t, trials=1000, seed=10_000 + idx).verdict
            c = is_completely_positive(rcp, induced_map(rcp, t)).verdict
            if not (a == b == c):
                disagreements.append((name, idx, a, b, c))
    assert disagreements == []
    assert time.monotonic() - started < 30.0


@criterion(4, "100 random diagonal coefficients are positive definite")
def test_criterion_4_coefficient_positivity():
    rng = np.random.default_rng(42)
    systems = assorted_small_systems()
    assert all(s.group.order <= 6 for s in systems)
    done = 0
    while done < 100:
        system = systems[done % len(systems)]
        rep = random_equivariant_rep(system, rng, max_dim=3)
        if max(rep.module.fiber_dims) > 3:
            rep = random_equivariant_rep(system, rng, max_dim=3, allow_composites=False)
        xi = random_vector(rep.module, rng)
        cert = is_positive_definite(coefficient(rep, xi, xi))
        assert cert.verdict, (done, cert)
        done += 1


@criterion(5, "absorption unitary: isometric, surjective, intertwining, 20 random reps")
def test_criterion_5_fell_absorption():
    rng = np.random.default_rng(42)
    systems = [sigma_system(2), omega_system(2), sigma_system(3)]
    for i in range(20):
        system = systems[i % 3]
        rep = random_equivariant_rep(system, rng, max_dim=2, allow_composites=False)
        _, report, _, _ = fell_absorption_unitary(rep)
        assert report.passed, report.worst()
        assert report.max_residual <= 1e-9


@criterion(6, "group parts are cocycles, cocycles are group parts, isometry extraction inverts")
def test_criterion_6_cocycle_bridge():
    from cstardyn.generators import random_cocycle

    rng = np.random.default_rng(42)
    for system in (sigma_system(2), sigma_system(3), omega_system(3)):
        identity = EquivariantMap(system.action, tuple(range(system.n_points)))
        for _ in range(5):
            rep = random_equivariant_rep(system, rng, max_dim=2, allow_composites=False)
            c = CocycleRep(system.action, rep.module, rep.v_stack)
            assert verify_cocycle(c).max_residual <= 1e-12
        c = random_cocycle(system.action, rng)
        pulled = rho_from_sigma(identity, c)
        assert np.array_equal(pulled.v_stack.view(np.uint64), c.u_stack.view(np.uint64))
        # isometry extraction inverts the construction
        rep = random_equivariant_rep(system, rng, max_dim=2, allow_composites=False)
        for g in range(system.group.order):
            v = banach_stone_operator(rep.module, system.action.src[g], rep.v_mats[g])
            sigma, u = banach_stone_extract(v, rep.module)
            for x in range(system.n_points):
                assert sigma[x] == system.action.apply_inv(g, x)
                assert np.abs(u[x] - rep.v_mats[g][x]).max(initial=0.0) <= 1e-12


@criterion(7, "regular realization exact; truncation bound dominates the deviation")
def test_criterion_7_regular_realization_and_truncation():
    rng = np.random.default_rng(42)
    for system in standard_systems().values():
        # exact re-realization of finitely supported multipliers
        for _ in range(5):
            rep = random_equivariant_rep(system, rng, max_dim=2)
            xi, eta = random_vector(rep.module, rng), random_vector(rep.module, rng)
            t = coefficient(rep, xi, eta)
            if not t.support():
                continue
            reg, xi_s, eta_e = realize_via_regular(t, rep, xi, eta)
            # identical arithmetic up to BLAS summation order: machine exact
            scale = 1.0 + max(np.abs(m).max() for m in t.mats)
            assert multiplier_distance(coefficient(reg, xi_s, eta_e), t) <= 1e-13 * scale
    count = 0
    reg = regular_rep(trivial_rep(sigma_system(2)))
    reg3 = regular_rep(trivial_rep(sigma_system(3)))
    while count < 50:
        target = reg if count % 2 == 0 else reg3
        order = target.system.group.order
        xi, eta = random_vector(target.module, rng), random_vector(target.module, rng)
        s1 = [int(g) for g in rng.choice(order, size=rng.integers(1, order + 1), replace=False)]
        s2 = [int(g) for g in rng.choice(order, size=rng.integers(1, order + 1), replace=False)]
        _, bounds = truncate_realization(target, xi, eta, s1, s2)
        assert bounds.lower <= bounds.upper + 1e-12
        count += 1


@criterion(8, "trace cones: trivial-action samples real/nonnegative; shift sample non-real")
def test_criterion_8_trace_cone_separation():
    om = trace_image_sample(omega_system(2), 10_000, seed=42)
    assert all(abs(s.trace1.imag) <= 1e-12 for s in om)
    assert all(s.trace0.real >= -1e-12 for s in om)
    sg = trace_image_sample(sigma_system(2), 100, seed=42)
    assert any(abs(s.trace1.imag) >= 0.5 for s in sg)


@criterion(9, "crossed products: dimension n^2, commutative vs trivial center")
def test_criterion_9_crossed_product_structure():
    from test_crossed import closure_dimension

    for n in (2, 3):
        rcp = build_reduced(omega_system(n))
        assert rcp.dim == n * n and is_commutative(rcp)
        assert closure_dimension([rcp.basis[i] for i in range(rcp.dim)]) == n * n
        rcp = build_reduced(sigma_system(n))
        assert rcp.dim == n * n and not is_commutative(rcp)
        assert center_dimension(rcp) == 1
        assert closure_dimension([rcp.basis[i] for i in range(rcp.dim)]) == n * n


@criterion(10, "determinism at fixed seed; acceptance module under a minute")
def test_criterion_10_determinism_and_runtime():
    def snapshot():
        samples = trace_image_sample(sigma_system(2), 50, seed=42)
        cert = pd_sample_oracle(
            random_multiplier_suite(sigma_system(2), 1, np.random.default_rng(0))[0],
            trials=200,
            seed=42,
        )
        payload = {
            "traces": [[s.trace0.real, s.trace0.imag, s.trace1.real, s.trace1.imag] for s in samples],
            "pd": [s.positive_definite for s in samples],
            "cert": cert.as_dict(),
        }
        return json.dumps(payload)

    assert snapshot() == snapshot()
    assert time.monotonic() - MODULE_STARTED < 60.0
