#!/usr/bin/env python3
"""Reproduce the matrix-unit coefficient tables for both cyclic families.

For each n, builds all n^3 coefficients of the trivial-action and
shift-action systems, checks them against the matrix-unit targets and prints
the span dimensions.  Exits 1 when a deviation exceeds the tolerance or a
span differs from n^3.
"""

import argparse
import sys

from cstardyn.core import DEFAULT_TOL
from cstardyn.cyclic_examples import matrix_unit_deviation, matrix_unit_family
from cstardyn.multiplier import span_dimension


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    args = parser.parse_args()

    failed = False
    for n in range(2, args.max_n + 1):
        for kind in ("omega_n", "sigma_n"):
            family = matrix_unit_family(kind, n)
            deviation = matrix_unit_deviation(family)
            span = span_dimension(family)
            ok = deviation <= DEFAULT_TOL and span == n**3
            failed |= not ok
            print(
                f"{kind:8s} n={n}: worst deviation from matrix units {deviation:.2e}, "
                f"span {span} (expected {n**3}){'' if ok else '  FAILED'}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
