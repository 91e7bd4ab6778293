#!/usr/bin/env python3
"""Round-trip representations and cocycles through ``cstardyn verify``.

Serializes the omega_n examples (one fat fiber, the others zero
dimensional), the sigma_n examples (n = 2..5) and the representations that
``gns_from_pd`` builds from seeded positive definite multipliers on the
assorted small systems, each with its cocycle, and runs every payload
through ``cli.main(["verify", "--inline", ...])`` in this process.  Each
must exit 0 with a passed report, and decoding the payload must give back
the original padded stacks bit for bit (compared as integers, so the sign
of a zero counts).

Prints one line per payload; exits 1 when any of them fails.

    PYTHONPATH=src python3 scripts/run_verify_roundtrip.py --seed 11
"""

import argparse
import contextlib
import io
import json
import sys

import numpy as np

from cstardyn import cli, serialize
from cstardyn.cocycle import group_part, v_to_cocycle
from cstardyn.cyclic_examples import omega_cocycle, omega_example_rep, sigma_cocycle, sigma_example_rep
from cstardyn.equivrep import gns_from_pd
from cstardyn.generators import assorted_small_systems, random_equivariant_rep, random_vector
from cstardyn.multiplier import coefficient


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
        yield f"gns/assorted_{i}", rep, v_to_cocycle(group_part(rep))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


def check(name: str, rep, cocycle) -> list[str]:
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--inline", json.dumps(payload)])
    failures = []
    if code != 0:
        failures.append(f"exit {code}: {err.getvalue().strip()}")
    elif json.loads(out.getvalue())["passed"] is not True:
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
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    failed = 0
    for name, rep, cocycle in cases(args.seed):
        failures = check(name, rep, cocycle)
        failed += bool(failures)
        dims = ",".join(str(d) for d in rep.module.fiber_dims)
        print(f"{name:24s} dims ({dims}) {'FAIL' if failures else 'ok'}")
        for line in failures:
            print(f"FAILED: {name}: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
