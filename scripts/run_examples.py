#!/usr/bin/env python3
"""Reproduce the matrix-unit coefficient tables for both cyclic families.

For each n, runs ``cli.main(["example", "--name", kind, "--n", str(n)])``
in this process for the trivial-action and shift-action systems and prints
the worst deviation of the n^3 coefficients from the matrix-unit targets
and their span dimension, as the report gives them.  Exits 1 when a report
does not pass: a deviation above the CLI's bound (``--tol`` times the scale
of the family) or a span other than n^3.

    PYTHONPATH=src python3 scripts/run_examples.py --max-n 8
"""

import argparse
import contextlib
import io
import json
import sys

from cstardyn import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-n", type=int, default=4)
    args = parser.parse_args()

    failed = False
    for n in range(2, args.max_n + 1):
        for kind in ("omega_n", "sigma_n"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["example", "--name", kind, "--n", str(n)])
            report = json.loads(out.getvalue())
            ok = code == 0 and report["passed"] is True
            failed |= not ok
            checks = {c["name"]: c for c in report["checks"]}
            deviation = checks["coefficients reproduce matrix units"]["residual"]
            span = report["data"]["span_dimension"]
            print(
                f"{kind:8s} n={n}: worst deviation from matrix units {deviation:.2e}, "
                f"span {span} (expected {n**3}){'' if ok else '  FAILED'}"
            )
            if not ok:
                print(f"FAILED: {kind} n={n}: {err.getvalue().strip()}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
