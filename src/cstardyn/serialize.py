"""JSON schemas for systems, modules, representations, cocycles, multipliers.

Complex numbers serialize as [re, im] pairs throughout.  Floats survive the
round trip bit-for-bit (shortest-repr encoding on both sides).  Decoding
rejects non-finite numbers (NaN, Infinity) with a ``ValueError``.
"""

from __future__ import annotations

import math

import numpy as np

from .cocycle import CocycleRep
from .core import FiniteGroup, FiniteSpace, GroupAction, System, cyclic_group
from .equivrep import EquivariantRep
from .hilbmod import ModuleOperator, ModuleVector, SectionalModule
from .multiplier import Multiplier


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(obj) -> complex:
    re, im = (float(part) for part in obj)
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(f"non-finite number in payload: [{re}, {im}]")
    return complex(re, im)


def vector_to_json(v: np.ndarray) -> list:
    return [complex_to_json(z) for z in np.asarray(v, dtype=complex)]


def vector_from_json(obj) -> np.ndarray:
    return np.array([complex_from_json(z) for z in obj], dtype=complex)


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in m]


def matrix_from_json(obj, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    out = np.array([[complex_from_json(z) for z in row] for row in obj], dtype=complex)
    if out.size == 0:
        out = out.reshape(rows if rows is not None else 0, cols if cols is not None else 0)
    return out


def system_to_json(system: System) -> dict:
    return {
        "group": {"order": system.group.order, "mult": system.group.mult.tolist()},
        "space": system.n_points,
        "perm": system.action.perm.tolist(),
    }


def system_from_json(obj: dict) -> System:
    group_obj = obj["group"]
    if "cyclic" in group_obj:
        group = cyclic_group(int(group_obj["cyclic"]))
    else:
        group = FiniteGroup(int(group_obj["order"]), np.array(group_obj["mult"], dtype=np.intp))
    space = FiniteSpace(int(obj["space"]))
    if "perm" in obj:
        perm = np.array(obj["perm"], dtype=np.intp)
    else:
        perm = np.tile(np.arange(space.size), (group.order, 1))
    return System(GroupAction(group, space, perm))


def module_vector_to_json(vec: ModuleVector) -> list:
    return [vector_to_json(c) for c in vec.components]


def module_vector_from_json(obj, module: SectionalModule) -> ModuleVector:
    return ModuleVector(module, tuple(vector_from_json(c) for c in obj))


def multiplier_to_json(t: Multiplier) -> dict:
    return {str(g): matrix_to_json(m) for g, m in enumerate(t.mats)}


def multiplier_from_json(obj: dict, system: System) -> Multiplier:
    n = system.n_points
    mats = []
    for g in range(system.group.order):
        mats.append(matrix_from_json(obj[str(g)], n, n))
    return Multiplier(system, tuple(mats))


def rep_to_json(rep: EquivariantRep) -> dict:
    """Base permutations per group element plus per-point matrices, and the
    algebra generators as per-fiber blocks."""
    action = rep.system.action
    n = rep.module.n_points
    return {
        "fiberDims": list(rep.module.fiber_dims),
        "rho": [[matrix_to_json(gen.blocks[x]) for x in range(n)] for gen in rep.rho],
        "v": {
            str(g): {
                "srcPerm": [action.apply_inv(g, x) for x in range(n)],
                "mats": [matrix_to_json(rep.v_mats[g][x]) for x in range(n)],
            }
            for g in range(action.group.order)
        },
    }


def rep_from_json(obj: dict, system: System) -> EquivariantRep:
    module = SectionalModule(system.space, tuple(int(d) for d in obj["fiberDims"]))
    dims = module.fiber_dims
    n = module.n_points
    rho = tuple(
        ModuleOperator(module, tuple(matrix_from_json(gen[x], dims[x], dims[x]) for x in range(n)))
        for gen in obj["rho"]
    )
    v_mats = []
    for g in range(system.group.order):
        entry = obj["v"][str(g)]
        expected = [system.action.apply_inv(g, x) for x in range(n)]
        if [int(s) for s in entry["srcPerm"]] != expected:
            raise ValueError(f"serialized base permutation of element {g} does not match the action")
        v_mats.append(
            tuple(
                matrix_from_json(entry["mats"][x], dims[x], dims[system.action.apply_inv(g, x)])
                for x in range(n)
            )
        )
    return EquivariantRep(system, module, rho, tuple(v_mats))


def cocycle_to_json(c: CocycleRep) -> dict:
    n = c.module.n_points
    return {
        "fiberDims": list(c.module.fiber_dims),
        "u": {
            str(g): {str(x): matrix_to_json(c.u[g][x]) for x in range(n)}
            for g in range(c.action.group.order)
        },
    }


def cocycle_from_json(obj: dict, system: System) -> CocycleRep:
    module = SectionalModule(system.space, tuple(int(d) for d in obj["fiberDims"]))
    dims = module.fiber_dims
    n = module.n_points
    u = []
    for g in range(system.group.order):
        entry = obj["u"][str(g)]
        u.append(
            tuple(
                matrix_from_json(entry[str(x)], dims[x], dims[system.action.apply_inv(g, x)])
                for x in range(n)
            )
        )
    return CocycleRep(system.action, module, tuple(u))
