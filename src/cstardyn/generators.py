"""Seeded random models: systems, cocycles, representations, multipliers.

Used by the test suite and the experiment scripts.  Everything takes an
explicit numpy Generator so runs are reproducible.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from .cocycle import CocycleRep, _decode_map, _map_choices, rho_from_sigma
from .core import (
    DEFAULT_TOL,
    FiniteGroup,
    FiniteSpace,
    GroupAction,
    System,
    cyclic_group,
    cyclic_shift_action,
    symmetric_group,
    trivial_action,
)
from .equivrep import EquivariantRep, direct_sum_reps, regular_rep, trivial_rep
from .hilbmod import ModuleVector, SectionalModule
from .multiplier import Multiplier, coefficient, is_positive_definite
from .numutil import scale


def standard_systems() -> dict[str, System]:
    """The named systems the verification suites run over."""
    return {
        "z2_trivial": System(trivial_action(cyclic_group(2), 2)),
        "z2_flip": System(cyclic_shift_action(2)),
        "z3_cycle": System(cyclic_shift_action(3)),
    }


def assorted_small_systems() -> list[System]:
    """Systems with groups of order up to six and assorted actions."""
    z4 = cyclic_group(4)
    z6 = cyclic_group(6)
    s3 = symmetric_group(3)
    # S_3 on three letters: element i is the i-th permutation in lexicographic order
    perms = np.array(sorted(itertools.permutations(range(3))), dtype=np.intp)
    s3_action = GroupAction(s3, FiniteSpace(3), perms)
    half_turn = GroupAction(z4, FiniteSpace(2), np.array([[0, 1], [1, 0], [0, 1], [1, 0]]))
    return [
        System(trivial_action(cyclic_group(2), 2)),
        System(cyclic_shift_action(2)),
        System(cyclic_shift_action(3)),
        System(cyclic_shift_action(4)),
        System(half_turn),
        System(trivial_action(z6, 2)),
        System(s3_action),
    ]


def relabeled_system(system: System, rng: np.random.Generator) -> System:
    """An isomorphic copy of a system with group elements and points renamed
    by seeded permutations, redrawn until the identity is not element 0."""
    group, action = system.group, system.action
    while True:
        sg, px = rng.permutation(group.order), rng.permutation(action.space.size)
        if sg[group.identity] != 0 or group.order == 1:
            break
    mult = np.empty_like(group.mult)
    mult[sg[:, None], sg[None, :]] = sg[group.mult]
    perm = np.empty_like(action.perm)
    perm[sg[:, None], px[None, :]] = px[action.perm]
    return System(GroupAction(FiniteGroup(group.order, mult), action.space, perm))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    if dim == 0:
        return np.zeros((0, 0), dtype=complex)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _cyclic_generator(group: FiniteGroup) -> Optional[int]:
    for g in group.elements():
        cur, count = g, 1
        while cur != group.identity:
            cur = group.mul(cur, g)
            count += 1
        if count == group.order:
            return g
    return None


def random_constant_rep(group: FiniteGroup, dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    """A random unitary representation of the group: diagonal characters when
    the group is cyclic, the trivial one otherwise."""
    gen = _cyclic_generator(group)
    if gen is None or dim == 0:
        return [np.eye(dim, dtype=complex) for _ in group.elements()]
    # write each element as a power of the generator
    power = {group.identity: 0}
    cur, k = gen, 1
    while cur != group.identity:
        power[cur] = k
        cur = group.mul(cur, gen)
        k += 1
    chars = rng.integers(0, group.order, size=dim)
    omega = np.exp(2j * np.pi / group.order)
    out = []
    for g in group.elements():
        out.append(np.diag(omega ** (chars * power[g])))
    return out


def random_cocycle(
    action: GroupAction, rng: np.random.Generator, max_dim: int = 3
) -> CocycleRep:
    """A random unitary cocycle: a constant representation cocycle conjugated
    by independent random unitaries per fiber."""
    n = action.space.size
    dim = int(rng.integers(1, max_dim + 1))
    pi = random_constant_rep(action.group, dim, rng)
    conj = [random_unitary(dim, rng) for _ in range(n)]
    module = SectionalModule(action.space, (dim,) * n)
    u = []
    for g in range(action.group.order):
        per_point = []
        for x in range(n):
            src = action.apply_inv(g, x)
            per_point.append(conj[x] @ pi[g] @ conj[src].conj().T)
        u.append(tuple(per_point))
    return CocycleRep(action, module, tuple(u))


def random_equivariant_rep(
    system: System, rng: np.random.Generator, max_dim: int = 3, allow_composites: bool = True
) -> EquivariantRep:
    """A random representation: a base-map/cocycle pair, possibly combined
    into direct sums or amplified.  The base map is drawn uniformly from
    ``equivariant_maps(system.action)`` by its index, without listing the
    maps."""
    _, choices = _map_choices(system.action)
    sigma = _decode_map(system.action, int(rng.integers(0, math.prod(len(c) for c in choices))))

    def base(max_d: int) -> EquivariantRep:
        return rho_from_sigma(sigma, random_cocycle(system.action, rng, max_d))

    if not allow_composites:
        return base(max_dim)
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return base(max_dim)
    if kind == 1:
        return trivial_rep(system)
    if kind == 2:
        d = max(1, max_dim // 2)
        return direct_sum_reps([base(d), base(max_dim - d)])
    return regular_rep(base(1)) if system.group.order <= 3 else base(max_dim)


def random_vector(module: SectionalModule, rng: np.random.Generator) -> ModuleVector:
    return ModuleVector(
        module, tuple(rng.normal(size=d) + 1j * rng.normal(size=d) for d in module.fiber_dims)
    )


def random_multiplier_suite(system: System, count: int, rng: np.random.Generator) -> list[Multiplier]:
    """A mix of clearly positive definite and clearly non-positive-definite
    multipliers for agreement testing.

    Borderline cases (smallest criterion eigenvalue in (-margin, -0]) are
    resampled so that independent checks cannot disagree through rounding
    alone; the checks themselves are untouched.
    """
    margin = 1e-3
    n = system.n_points
    order = system.group.order
    out: list[Multiplier] = []
    while len(out) < count:
        kind = len(out) % 4
        if kind in (0, 1):
            rep = random_equivariant_rep(system, rng, max_dim=2)
            xi = random_vector(rep.module, rng)
            cand = coefficient(rep, xi, xi)
            if kind == 1:
                rep2 = random_equivariant_rep(system, rng, max_dim=2)
                xi2 = random_vector(rep2.module, rng)
                cand = cand + coefficient(rep2, xi2, xi2)
        elif kind == 2:
            mats = rng.normal(size=(order, n, n)) + 1j * rng.normal(size=(order, n, n))
            cand = Multiplier(system, mats)
        else:
            rep = random_equivariant_rep(system, rng, max_dim=2)
            xi = random_vector(rep.module, rng)
            eta = random_vector(rep.module, rng)
            cand = coefficient(rep, xi, xi) - 2.0 * coefficient(rep, eta, eta)
        cert = is_positive_definite(cand)
        size = scale(cand.stack)
        if not cert.verdict and cert.hermitian_defect <= DEFAULT_TOL * size:
            if -margin * size < cert.min_eigenvalue:
                continue  # borderline indefinite: resample
        out.append(cand)
    return out
