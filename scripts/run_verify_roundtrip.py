#!/usr/bin/env python3
"""Round-trip representations and cocycles through ``cstardyn verify``.

Serializes the omega_n examples (one fat fiber, the others zero
dimensional), the sigma_n examples (n = 2..5), the representations that
``gns_from_pd`` builds from seeded positive definite multipliers on the
assorted small systems and from the unit multiplier on sigma_8, each with
its cocycle, and a seeded cocycle of the natural S_5 action on
2-dimensional fibers with the representation it induces over the identity
map.  Last comes a random representation of sigma_8 with its cocycle, drawn
after all the others so that their payloads do not depend on it.  Every
payload runs through ``cli.main(["verify", "--inline", ...])`` in this
process.  Each must exit 0 with a passed report, decoding the payload
must give back the original padded stacks bit for bit (compared as
integers, so the sign of a zero counts), ``fell_absorption_unitary`` must
pass on the decoded representation whenever the group has at most
``ABSORPTION_MAX_ORDER`` elements (every case but ``s5_natural``),
``cocycle_equivalent`` must find a family between the decoded cocycle and
a copy conjugated by random per-fiber unitaries, and
``unitarily_equivalent`` one between the decoded representation and its
copy conjugated by the same unitaries.  Those unitaries come from a second
generator seeded from ``--seed``, so that the payloads do not depend on
them, and the absorption draws from its own fixed one.  Two
covariant pairs follow: the regular pair of sigma_12, which must pass, and
the regular pair of S_3 on three letters with two rows of u(1) swapped,
which must exit 1 naming ``u unitary homomorphism`` and where it fails.
Every run treats warnings as errors, and every report must parse as strict
JSON.

Prints one line per payload; exits 1 when any of them fails.

    PYTHONPATH=src python3 scripts/run_verify_roundtrip.py --seed 11
"""

import argparse
import contextlib
import io
import json
import sys
import warnings

import numpy as np

from cstardyn import cli, serialize
from cstardyn.cocycle import CocycleRep, EquivariantMap, cocycle_equivalent, rho_from_sigma
from cstardyn.core import symmetric_action
from cstardyn.crossed import regular_covariant
from cstardyn.cyclic_examples import omega_cocycle, omega_example_rep, sigma_cocycle, sigma_example_rep, sigma_system
from cstardyn.equivrep import EquivariantRep, fell_absorption_unitary, gns_from_pd, unitarily_equivalent
from cstardyn.generators import assorted_small_systems, random_equivariant_rep, random_unitary, random_vector
from cstardyn.hilbmod import SectionalModule
from cstardyn.multiplier import coefficient, unit_multiplier

# the absorption amplifies twice: S_5 would need stacks of 120 x 5 x 240^2
# complex entries, about 0.55 GB
ABSORPTION_MAX_ORDER = 24


def cases(seed: int):
    """(name, representation, cocycle) triples."""
    for n in range(2, 6):
        for k, l in sorted({(0, 0), (n - 1, 0), (1, n - 1)}):
            yield f"omega_{n}/k={k}/l={l}", omega_example_rep(n, k, l), omega_cocycle(n, k)
    for n in range(2, 6):
        yield f"sigma_{n}", sigma_example_rep(n), sigma_cocycle(n)
    rng = np.random.default_rng(seed)
    for i, system in enumerate(assorted_small_systems()):
        base = random_equivariant_rep(system, rng, max_dim=2)
        xi = random_vector(base.module, rng)
        rep, _ = gns_from_pd(coefficient(base, xi, xi))
        yield f"gns/assorted_{i}", rep, CocycleRep(rep.system.action, rep.module, rep.v_stack)
    rep, _ = gns_from_pd(unit_multiplier(sigma_system(8)))
    yield "gns/unit_sigma_8", rep, CocycleRep(rep.system.action, rep.module, rep.v_stack)
    s5 = symmetric_action(5)
    # the coboundary of one seeded unitary per point, on 2-dimensional fibers
    conj = np.stack([random_unitary(2, rng) for _ in range(5)])
    c = CocycleRep(s5, SectionalModule(s5.space, (2,) * 5), conj @ conj[s5.src].conj().swapaxes(-1, -2))
    yield "s5_natural", rho_from_sigma(EquivariantMap(s5, tuple(range(5))), c), c
    # drawn last, so that every earlier payload stays byte-identical
    rep = random_equivariant_rep(sigma_system(8), rng, max_dim=2)
    yield "random/sigma_8", rep, CocycleRep(rep.system.action, rep.module, rep.v_stack)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


def reject_constant(name):
    raise ValueError(f"report is not strict JSON: {name}")


def run_verify(payload: dict) -> tuple[int, dict | None, str]:
    """Exit code, strictly parsed report (None when nothing was printed) and
    stderr of one ``verify`` run, with warnings raised as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--inline", json.dumps(payload)])
    text = out.getvalue()
    return code, json.loads(text, parse_constant=reject_constant) if text else None, err.getvalue().strip()


def conjugated(rep: EquivariantRep, c: CocycleRep, rng: np.random.Generator) -> tuple[EquivariantRep, CocycleRep]:
    """rho(e_k)_x conjugated to W_x rho(e_k)_x W_x*, and v(g)_x and u(x, g)
    to W_x v(g)_x W_{g^-1 x}* and W_x u(x, g) W_{g^-1 x}*, by the same
    random unitaries W, one per fiber of the cocycle's module."""
    dims = c.module.fiber_dims
    w = np.zeros((len(dims),) + (max(dims),) * 2, dtype=complex)
    for x, d in enumerate(dims):
        w[x, :d, :d] = random_unitary(d, rng)
    wh = w.conj().swapaxes(-1, -2)
    src = c.action.src
    return (
        EquivariantRep(rep.system, rep.module, w @ rep.rho_stack @ wh, w @ rep.v_stack @ wh[src]),
        CocycleRep(c.action, c.module, w @ c.u_stack @ wh[src]),
    )


def check(name: str, rep, cocycle, conj_rng: np.random.Generator) -> list[str]:
    """The failures of one payload, empty when it round-trips."""
    payload = json.loads(
        json.dumps(
            {
                "system": serialize.system_to_json(rep.system),
                "equivariant_rep": serialize.rep_to_json(rep),
                "cocycle": serialize.cocycle_to_json(cocycle),
            }
        )
    )
    code, report, err = run_verify(payload)
    failures = []
    if code != 0:
        failures.append(f"exit {code}: {err}")
    elif report["passed"] is not True:
        failures.append("report not passed")
    system = serialize.system_from_json(payload["system"])
    back = serialize.rep_from_json(payload["equivariant_rep"], system)
    back_c = serialize.cocycle_from_json(payload["cocycle"], system)
    for label, got, want in (
        ("v_stack", back.v_stack, rep.v_stack),
        ("rho_stack", back.rho_stack, rep.rho_stack),
        ("u_stack", back_c.u_stack, cocycle.u_stack),
    ):
        if not same_bits(got, want):
            failures.append(f"decoded {label} differs from the original")
    if system.group.order <= ABSORPTION_MAX_ORDER and not fell_absorption_unitary(back)[1].passed:
        failures.append("the absorption unitary fails on the decoded representation")
    copy, copy_c = conjugated(back, back_c, conj_rng)
    if cocycle_equivalent(back_c, copy_c) is None:
        failures.append("no equivalence found to a conjugated copy of the decoded cocycle")
    if unitarily_equivalent(back, copy) is None:
        failures.append("no equivalence found to a conjugated copy of the decoded representation")
    return failures


def covariant_cases():
    """(name, payload, expected exit code, expected failing checks as
    {name: where})."""
    system = sigma_system(12)
    yield "regular/sigma_12", {"system": serialize.system_to_json(system), "covariant": "regular"}, 0, {}
    system = assorted_small_systems()[-1]
    reg = regular_covariant(system)
    u = list(reg.u_mats)
    u[1] = u[1][[1, 0, *range(2, reg.dim)]]
    as_json = lambda m: [[[float(z.real), float(z.imag)] for z in row] for row in m]  # noqa: E731
    covariant = {"dim": reg.dim, "pi": [as_json(m) for m in reg.pi_mats], "u": [as_json(m) for m in u]}
    # u(1) is the transposition of the points 1 and 2: u(1 1) = u(e) fails
    # against the square of the faulted u(1), and point 1 is the first that
    # the faulted u(1) maps wrongly
    failing = {"u unitary homomorphism": {"g": 1, "h": 1}, "covariance": {"g": 1, "j": 0}}
    yield "regular/s3_u1_rows_swapped", {"system": serialize.system_to_json(system), "covariant": covariant}, 1, failing


def check_covariant(payload: dict, expected_code: int, failing: dict) -> list[str]:
    code, report, err = run_verify(payload)
    if code != expected_code or report is None:
        return [f"exit {code} (expected {expected_code}): {err}"]
    got = {c["name"]: c.get("where") for c in report["checks"] if not c["passed"]}
    return [] if got == failing else [f"failing checks {got}, expected {failing}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=cli._seed, default=11)
    args = parser.parse_args()
    failed = 0
    conj_rng = np.random.default_rng([args.seed, 1])
    for name, rep, cocycle in cases(args.seed):
        failures = check(name, rep, cocycle, conj_rng)
        failed += bool(failures)
        dims = ",".join(str(d) for d in rep.module.fiber_dims)
        print(f"{name:26s} dims ({dims}) {'FAIL' if failures else 'ok'}")
        for line in failures:
            print(f"FAILED: {name}: {line}", file=sys.stderr)
    for name, payload, code, failing in covariant_cases():
        failures = check_covariant(payload, code, failing)
        failed += bool(failures)
        print(f"{name:26s} exit {code} {'FAIL' if failures else 'ok'}")
        for line in failures:
            print(f"FAILED: {name}: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
