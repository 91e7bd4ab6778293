#!/usr/bin/env python3
"""Survey agreement between the three positive-definiteness checks.

Draws random multipliers over the three verification systems, the assorted
systems of order 4 and 6, and sigma_5 and omega_5, and compares the fiberwise
criterion, the sampled kernel-condition oracle, and the complete positivity
of the induced crossed-product map.  The larger systems are where the oracle
draws tuples of up to 12 elements over several blocks; sigma_5 and omega_5
are the busiest rungs of the benchmark's crossed-product ladder.
"""

import argparse

import numpy as np

from cstardyn.crossed import build_reduced, induced_map, is_completely_positive
from cstardyn.cyclic_examples import omega_system, sigma_system
from cstardyn.generators import assorted_small_systems, random_multiplier_suite, standard_systems
from cstardyn.multiplier import is_positive_definite, pd_sample_oracle


def survey_systems() -> dict:
    systems = dict(standard_systems())
    for system in assorted_small_systems():
        order, n = system.group.order, system.n_points
        if order in (4, 6):
            systems[f"order{order}_on_{n}"] = system
    systems["sigma_5"], systems["omega_5"] = sigma_system(5), omega_system(5)
    return systems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    total_disagreements = 0
    for name, system in survey_systems().items():
        rcp = build_reduced(system)
        pd_count = 0
        disagreements = 0
        for idx, t in enumerate(random_multiplier_suite(system, args.count, rng)):
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
