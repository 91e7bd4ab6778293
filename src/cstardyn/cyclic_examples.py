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

from .cocycle import CocycleRep, EquivariantMap, _pullback_rep, _require_cocycle, rho_from_sigma
from .core import FiniteSpace, System, cyclic_group, cyclic_shift_action, trivial_action
from .equivrep import EquivariantRep
from .hilbmod import ModuleVector, SectionalModule, basis_vector
from .multiplier import Multiplier, _coefficients


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
    return np.roll(np.eye(n, dtype=complex), 1, axis=0)


def omega_bundle(n: int, k: int) -> SectionalModule:
    """The bundle over n points with one n-dimensional fiber at point k and
    zero fibers elsewhere; its section space is C^n concentrated at k."""
    dims = [0] * n
    dims[k] = n
    return SectionalModule(FiniteSpace(n), tuple(dims))


def omega_cocycle(n: int, k: int) -> CocycleRep:
    """Powers of the shift on the fat fiber; empty elsewhere (trivial action)."""
    return _omega_cocycle(omega_system(n), k)


def _shift_powers(n: int) -> np.ndarray:
    """S^0, ..., S^{n-1} as one (n, n, n) array."""
    return np.stack([np.linalg.matrix_power(shift_matrix(n), m) for m in range(n)])


def _omega_cocycle(system: System, k: int) -> CocycleRep:
    n = system.n_points
    u = np.zeros((n, n, n, n), dtype=complex)
    u[:, k] = _shift_powers(n)
    return CocycleRep(system.action, omega_bundle(n, k), u)


def omega_example_rep(n: int, k: int, l: int) -> EquivariantRep:
    """The representation with algebra part pulled back along the constant
    base map at l, and group part the shift cocycle on the fiber at k."""
    system = omega_system(n)
    sigma = EquivariantMap(system.action, (l,) * n)
    return rho_from_sigma(sigma, _omega_cocycle(system, k))


def omega_example_vectors(n: int, k: int, p: int) -> tuple[ModuleVector, ModuleVector]:
    """e_p and e_0 in the fat fiber at k."""
    module = omega_bundle(n, k)
    return basis_vector(module, k, p), basis_vector(module, k, 0)


def sigma_bundle(n: int) -> SectionalModule:
    return SectionalModule(FiniteSpace(n), (n,) * n)


def sigma_cocycle(n: int) -> CocycleRep:
    """Powers of the shift, constant over the base, over the translation action."""
    return _sigma_cocycle(sigma_system(n))


def _sigma_cocycle(system: System) -> CocycleRep:
    n = system.n_points
    u = np.broadcast_to(_shift_powers(n)[:, None], (n, n, n, n))
    return CocycleRep(system.action, sigma_bundle(n), u)


def sigma_example_rep(n: int) -> EquivariantRep:
    """The shift-system representation with the algebra acting diagonally
    inside every fiber (rho(a) = diag(a) on each copy of C^n) and group part
    induced by the constant shift cocycle."""
    system = sigma_system(n)
    c = _require_cocycle(_sigma_cocycle(system))
    diag = np.zeros((n, n, n), dtype=complex)
    diag[np.arange(n), np.arange(n), np.arange(n)] = 1.0  # diag[j] = diag(e_j)
    rho = np.broadcast_to(diag[:, None], (n, n, n, n))
    return EquivariantRep(system, c.module, rho, c.u_stack)


def _sigma_sections(n: int, k: np.ndarray, l: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sections whose coefficients against :func:`sigma_example_rep` are the
    matrix units E_{kl} supported at group elements p, for index arrays k,
    l, p of one length F, stacked as (F, n, n) arrays: e_l in component k,
    and the constant section at e_{l-p} (the shift conventions used here
    place the support at p with this choice)."""
    f = np.arange(len(k))
    xi, eta = np.zeros((2, len(f), n, n), dtype=complex)
    xi[f, k, l] = 1.0
    eta[f, :, (l - p) % n] = 1.0
    return xi, eta


def matrix_unit_family(kind: str, n: int) -> list[Multiplier]:
    """All n^3 matrix-unit coefficients of one family, indexed by (k, l, p).

    The family is built on one system.  For ``sigma_n`` all n^3 coefficients
    of :func:`sigma_example_rep` come from one batched contraction; for
    ``omega_n`` each fat-fiber cocycle is checked once and each of the n^2
    representations, written as whole stacks around that cocycle's stack,
    contributes its n coefficients in one contraction.  The
    stacks equal, bit for bit, those of the per-(k, l, p) calls of
    :func:`coefficient`, one pair of vectors at a time.
    """
    if kind == "omega_n":
        system = omega_system(n)
        constant = [EquivariantMap(system.action, (l,) * n) for l in range(n)]
        stacks = []
        for k in range(n):
            c = _require_cocycle(_omega_cocycle(system, k))
            pairs = [omega_example_vectors(n, k, p) for p in range(n)]
            xi, eta = (np.stack([v.stack for v in vs]) for vs in zip(*pairs))
            for sigma in constant:
                stacks.append(_coefficients(_pullback_rep(sigma, c), xi, eta))
        return Multiplier._each_of(system, np.concatenate(stacks))
    if kind == "sigma_n":
        rep = sigma_example_rep(n)
        k, l, p = np.unravel_index(np.arange(n**3), (n, n, n))
        return Multiplier._each_of(rep.system, _coefficients(rep, *_sigma_sections(n, k, l, p)))
    raise ValueError(f"unknown example family {kind!r}")


def matrix_unit_deviation(family: list[Multiplier]) -> float:
    """Max entrywise deviation of a family indexed by (k, l, p), as built by
    :func:`matrix_unit_family`, from the matrix units m -> delta_{p,m}
    E_{kl}."""
    mats = np.stack([t.stack for t in family])  # (k*n*n + l*n + p, m, row, col)
    n = mats.shape[-1]
    k, l, p = np.unravel_index(np.arange(len(family)), (n, n, n))
    target = np.zeros(mats.shape)
    target[np.arange(len(family)), p, k, l] = 1.0
    return float(np.abs(mats - target).max())

