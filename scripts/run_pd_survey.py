#!/usr/bin/env python3
"""Survey agreement between the three positive-definiteness checks.

Draws random multipliers over the three verification systems, the assorted
systems of order 4 and 6, and sigma_5 and omega_5, and compares the fiberwise
criterion, the sampled kernel-condition oracle, and the complete positivity
of the induced crossed-product map.  The larger systems are where the oracle
draws tuples of up to 12 elements over several blocks; sigma_5 and omega_5
are the busiest rungs of the benchmark's crossed-product ladder; the natural
action of S_4 adds a non-abelian group of order 24 with nontrivial
stabilizers, where tuples reach 48 elements.  Last come
multipliers that live on one point of omega_4 and omega_5: coefficients of
the example representations and differences of two of them, where the
oracle forms kernels at that point only.
"""

import argparse

import numpy as np

from cstardyn import cli
from cstardyn.core import System, symmetric_action
from cstardyn.crossed import build_reduced, induced_map, is_completely_positive
from cstardyn.cyclic_examples import omega_example_rep, omega_system, sigma_system
from cstardyn.generators import assorted_small_systems, clearly_decided, random_multiplier_suite, standard_systems
from cstardyn.hilbmod import random_vector
from cstardyn.multiplier import coefficient, is_positive_definite, pd_sample_oracle


def survey_systems() -> dict:
    systems = dict(standard_systems())
    for system in assorted_small_systems():
        order, n = system.group.order, system.n_points
        if order in (4, 6):
            systems[f"order{order}_on_{n}"] = system
    systems["sigma_5"], systems["omega_5"] = sigma_system(5), omega_system(5)
    systems["s4_natural"] = System(symmetric_action(4))
    return systems


def one_point_multipliers(n: int, count: int, rng) -> list:
    """Diagonal coefficients of ``omega_example_rep(n, k, l)``, alive only at
    the point k of its fiber, alternating with differences c - 2c' of two of
    them at the same k; borderline ones are redrawn (``clearly_decided``)."""
    out = []
    while len(out) < count:
        k = int(rng.integers(n))
        coeffs = []
        for _ in range(1 + len(out) % 2):
            rep = omega_example_rep(n, k, int(rng.integers(n)))
            xi = random_vector(rep.module, rng)
            coeffs.append(coefficient(rep, xi, xi))
        t = coeffs[0] if len(coeffs) == 1 else coeffs[0] - 2.0 * coeffs[1]
        if clearly_decided(t):
            out.append(t)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=cli._seed, default=42)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    total_disagreements = 0
    suites = {name: random_multiplier_suite(system, args.count, rng) for name, system in survey_systems().items()}
    suites.update({f"omega{n}_point": one_point_multipliers(n, args.count, rng) for n in (4, 5)})
    for name, multipliers in suites.items():
        rcp = build_reduced(multipliers[0].system)
        pd_count = 0
        disagreements = 0
        for idx, t in enumerate(multipliers):
            a = is_positive_definite(t).verdict
            b = pd_sample_oracle(t, trials=args.trials, seed=args.seed + idx).verdict
            c = is_completely_positive(rcp, induced_map(rcp, t)).verdict
            pd_count += a
            if not (a == b == c):
                disagreements += 1
        total_disagreements += disagreements
        print(
            f"{name:12s}: {args.count} multipliers, {pd_count} positive definite, "
            f"{disagreements} disagreements"
        )
    if total_disagreements:
        raise SystemExit(f"{total_disagreements} disagreements found")
    print("all three checks agreed on every draw")


if __name__ == "__main__":
    main()
