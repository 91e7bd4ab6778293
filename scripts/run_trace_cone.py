#!/usr/bin/env python3
"""Sample the componentwise-trace images of the two order-2 cone generator
families and summarize the attained regions.

Prints, per system: the range of the first trace, the largest imaginary part
of the second trace, and the fraction of samples passing the
positive-definiteness certificate.  Ends with the standing discrepancy note.

Exits 1 when a trivial-action second trace is non-real or a trivial-action
first trace is negative (beyond 1e-12, as ``cstardyn trace-cone`` checks),
or when no shift-action sample has |Im tr T_1| >= 0.5.
"""

import argparse
import sys

from cstardyn import cli
from cstardyn.cyclic_examples import omega_system, sigma_system
from cstardyn.multiplier import TRACE_CONE_NOTE, trace_image_sample


def summarize(name: str, samples) -> tuple[float, float]:
    """Print the summary; return (min tr T_0, max |Im tr T_1|)."""
    tr0 = [s.trace0.real for s in samples]
    im1 = [abs(s.trace1.imag) for s in samples]
    re1 = [s.trace1.real for s in samples]
    pd = sum(s.positive_definite for s in samples) / len(samples)
    print(f"{name}:")
    print(f"  samples            {len(samples)}")
    print(f"  tr T_0 range       [{min(tr0):.4f}, {max(tr0):.4f}]")
    print(f"  tr T_1 real range  [{min(re1):.4f}, {max(re1):.4f}]")
    print(f"  max |Im tr T_1|    {max(im1):.4f}")
    print(f"  certificate rate   {pd:.3f}")
    return min(tr0), max(im1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=5000)
    parser.add_argument("--seed", type=cli._seed, default=42)
    args = parser.parse_args()

    om_min0, om_im = summarize("trivial action (omega_2)", trace_image_sample(omega_system(2), args.count, args.seed))
    _, sg_im = summarize("shift action (sigma_2)", trace_image_sample(sigma_system(2), args.count, args.seed))
    print()
    print(TRACE_CONE_NOTE)

    failures = []
    if om_im > 1e-12:
        failures.append(f"trivial action: non-real second trace (|Im tr T_1| = {om_im:.3e})")
    if om_min0 < -1e-12:
        failures.append(f"trivial action: negative first trace ({om_min0:.3e})")
    if sg_im < 0.5:
        failures.append(f"shift action: no sample with |Im tr T_1| >= 0.5 (max {sg_im:.4f})")
    for line in failures:
        print(f"FAILED: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
