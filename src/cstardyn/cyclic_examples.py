"""The two families of order-n cyclic systems and their matrix-unit multipliers.

``omega_system(n)`` is Z_n acting trivially on n points; ``sigma_system(n)``
is Z_n acting on itself by translation.  For both, every standard matrix unit
of the multiplier space (one n x n matrix per group element, supported at a
single element) arises as a coefficient of an explicit representation built
from the cyclic shift cocycle, so both Fourier-Stieltjes algebras span the
full n^3-dimensional multiplier space.
"""

from __future__ import annotations

import numpy as np

from .cocycle import CocycleRep, EquivariantMap, cocycle_to_v, rho_from_sigma
from .core import DEFAULT_TOL, System, cyclic_group, cyclic_shift_action, trivial_action
from .equivrep import EquivariantRep
from .hilbmod import ModuleOperator, ModuleVector, SectionalModule
from .multiplier import Multiplier, coefficient


def omega_system(n: int) -> System:
    if n < 1:
        raise ValueError("n must be >= 1")
    return System(trivial_action(cyclic_group(n), n))


def sigma_system(n: int) -> System:
    if n < 1:
        raise ValueError("n must be >= 1")
    return System(cyclic_shift_action(n))


def shift_matrix(n: int) -> np.ndarray:
    """The cyclic shift S e_j = e_{j+1 mod n}."""
    s = np.zeros((n, n), dtype=complex)
    for j in range(n):
        s[(j + 1) % n, j] = 1.0
    return s


def omega_bundle(n: int, k: int) -> SectionalModule:
    """The bundle with one n-dimensional fiber at point k and zero fibers
    elsewhere; its section space is C^n concentrated at k."""
    dims = [0] * n
    dims[k] = n
    return SectionalModule(omega_system(n).space, tuple(dims))


def omega_cocycle(n: int, k: int) -> CocycleRep:
    """Powers of the shift on the fat fiber; empty elsewhere (trivial action)."""
    system = omega_system(n)
    module = omega_bundle(n, k)
    s = shift_matrix(n)
    u = []
    for m in range(n):
        sm = np.linalg.matrix_power(s, m)
        u.append(
            tuple(sm if x == k else np.zeros((0, 0), dtype=complex) for x in range(n))
        )
    return CocycleRep(system.action, module, tuple(u))


def omega_example_rep(n: int, k: int, l: int) -> EquivariantRep:
    """The representation with algebra part pulled back along the constant
    base map at l, and group part the shift cocycle on the fiber at k."""
    system = omega_system(n)
    sigma = EquivariantMap(system.action, (l,) * n)
    return rho_from_sigma(sigma, omega_cocycle(n, k))


def omega_example_vectors(n: int, k: int, p: int) -> tuple[ModuleVector, ModuleVector]:
    module = omega_bundle(n, k)
    comps_x = [np.zeros(d, dtype=complex) for d in module.fiber_dims]
    comps_y = [np.zeros(d, dtype=complex) for d in module.fiber_dims]
    comps_x[k][p] = 1.0
    comps_y[k][0] = 1.0
    return ModuleVector(module, tuple(comps_x)), ModuleVector(module, tuple(comps_y))


def sigma_bundle(n: int) -> SectionalModule:
    return SectionalModule(sigma_system(n).space, (n,) * n)


def sigma_cocycle(n: int) -> CocycleRep:
    """Powers of the shift, constant over the base, over the translation action."""
    system = sigma_system(n)
    module = sigma_bundle(n)
    s = shift_matrix(n)
    u = tuple(
        tuple(np.linalg.matrix_power(s, m) for _ in range(n)) for m in range(n)
    )
    return CocycleRep(system.action, module, u)


def sigma_example_rep(n: int) -> EquivariantRep:
    """The shift-system representation with the algebra acting diagonally
    inside every fiber (rho(a) = diag(a) on each copy of C^n) and group part
    induced by the constant shift cocycle."""
    system = sigma_system(n)
    module = sigma_bundle(n)
    part = cocycle_to_v(sigma_cocycle(n))
    rho = []
    for j in range(n):
        block = np.zeros((n, n), dtype=complex)
        block[j, j] = 1.0
        rho.append(ModuleOperator(module, tuple(block.copy() for _ in range(n))))
    return EquivariantRep(system, module, tuple(rho), part.mats)


def sigma_example_vectors(n: int, k: int, l: int, p: int) -> tuple[ModuleVector, ModuleVector]:
    """Vectors whose coefficient against :func:`sigma_example_rep` is the
    matrix unit E_{kl} supported at group element p: e_l in component k, and
    the constant section at e_{l-p} (the shift conventions used here place
    the support at p with this choice)."""
    module = sigma_bundle(n)
    comps_x = [np.zeros(n, dtype=complex) for _ in range(n)]
    comps_x[k][l] = 1.0
    y_idx = (l - p) % n
    comps_y = [np.zeros(n, dtype=complex) for _ in range(n)]
    for x in range(n):
        comps_y[x][y_idx] = 1.0
    return ModuleVector(module, tuple(comps_x)), ModuleVector(module, tuple(comps_y))


def matrix_unit_target(system: System, k: int, l: int, p: int) -> Multiplier:
    """The multiplier m -> delta_{p,m} E_{kl}."""
    n = system.n_points
    mats = []
    for m in range(system.group.order):
        mat = np.zeros((n, n), dtype=complex)
        if m == p:
            mat[k, l] = 1.0
        mats.append(mat)
    return Multiplier(system, tuple(mats))


def omega_matrix_unit_coefficient(n: int, k: int, l: int, p: int) -> Multiplier:
    rep = omega_example_rep(n, k, l)
    x, y = omega_example_vectors(n, k, p)
    return coefficient(rep, x, y)


def sigma_matrix_unit_coefficient(n: int, k: int, l: int, p: int) -> Multiplier:
    rep = sigma_example_rep(n)
    x, y = sigma_example_vectors(n, k, l, p)
    return coefficient(rep, x, y)


def matrix_unit_family(kind: str, n: int) -> list[Multiplier]:
    """All n^3 matrix-unit coefficients of one family, indexed by (k, l, p)."""
    if kind == "omega_n":
        out = []
        for k in range(n):
            for l in range(n):
                rep = omega_example_rep(n, k, l)
                for p in range(n):
                    out.append(coefficient(rep, *omega_example_vectors(n, k, p)))
        return out
    if kind == "sigma_n":
        rep = sigma_example_rep(n)
        out = []
        for k in range(n):
            for l in range(n):
                for p in range(n):
                    out.append(coefficient(rep, *sigma_example_vectors(n, k, l, p)))
        return out
    raise ValueError(f"unknown example family {kind!r}")


def matrix_unit_deviation(family: list[Multiplier]) -> float:
    """Max entrywise deviation of a family indexed by (k, l, p), as built by
    :func:`matrix_unit_family`, from the matrix units of
    :func:`matrix_unit_target`."""
    mats = np.stack([t.stack for t in family])  # (k*n*n + l*n + p, m, row, col)
    n = mats.shape[-1]
    k, l, p = np.unravel_index(np.arange(len(family)), (n, n, n))
    target = np.zeros(mats.shape)
    target[np.arange(len(family)), p, k, l] = 1.0
    return float(np.abs(mats - target).max())


def verify_matrix_units(kind: str, n: int, tol: float = DEFAULT_TOL) -> float:
    """Max deviation of the constructed coefficients from the matrix units."""
    return matrix_unit_deviation(matrix_unit_family(kind, n))
