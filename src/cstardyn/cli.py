"""Command line driver: verification reports, worked examples, trace cones,
positive-definiteness cross-checks.

Machine-readable JSON goes to stdout (deterministic for a fixed seed; timing
only ever appears on stderr; non-finite numbers as the strings "Infinity",
"-Infinity" and "NaN"), human summaries to stderr.  Exit codes:
0 all checks passed, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from contextlib import contextmanager

from . import serialize
from .cocycle import verify_cocycle
from .core import DEFAULT_TOL
from .crossed import (
    CovariantRep,
    build_reduced,
    induced_map,
    is_completely_positive,
    regular_covariant,
    verify_covariant,
)
from .cyclic_examples import (
    matrix_unit_deviation,
    matrix_unit_family,
    omega_system,
    sigma_system,
)
from .equivrep import verify_equivariant
from .multiplier import (
    TRACE_CONE_NOTE,
    is_positive_definite,
    pd_sample_oracle,
    span_dimension,
    trace_image_sample,
)
from .numutil import scale

USAGE_ERROR = 2
CHECK_ERROR = 1


class PayloadError(Exception):
    pass


def _load_payload(args) -> dict:
    if getattr(args, "system", None) and getattr(args, "inline", None):
        raise PayloadError("give either --system FILE or --inline JSON, not both")
    if getattr(args, "system", None):
        try:
            with open(args.system) as fh:
                text = fh.read()
        except OSError as exc:
            raise PayloadError(f"cannot read {args.system}: {exc}") from exc
    elif getattr(args, "inline", None):
        text = args.inline
    else:
        raise PayloadError("a payload is required (--system FILE or --inline JSON)")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PayloadError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise PayloadError("the payload must be a JSON object")
    return payload


@contextmanager
def _decoding():
    """Report a payload whose entries have the wrong JSON types or lengths,
    or whose decoding runs out of memory, as a payload error.  Only decoding
    runs under this: the same exceptions raised by a verification are bugs
    and must not turn into exit 2."""
    try:
        yield
    except (TypeError, IndexError, AttributeError, OverflowError, MemoryError) as exc:
        raise PayloadError(f"invalid payload: {type(exc).__name__}: {exc}") from exc


def _covariant_from_json(cov, system):
    if cov == "regular":
        return regular_covariant(system)
    if not isinstance(cov, dict):
        raise PayloadError("'covariant' must be \"regular\" or an object with dim, pi and u")
    dim = int(cov["dim"])
    pi = tuple(serialize.matrix_from_json(m, dim, dim) for m in cov["pi"])
    u = tuple(serialize.matrix_from_json(m, dim, dim) for m in cov["u"])
    return CovariantRep(system, dim, pi, u)


def _strict_json(obj):
    """``obj`` with every non-finite float replaced by the string
    ``"Infinity"``, ``"-Infinity"`` or ``"NaN"``, which JSON numbers cannot
    express; the report then stays strict JSON (RFC 8259)."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return "NaN" if math.isnan(obj) else "Infinity" if obj > 0 else "-Infinity"
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    return obj


def _emit(report: dict, args, started: float) -> None:
    text = json.dumps(_strict_json(report), indent=2, allow_nan=False)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    status = "PASS" if report["passed"] else "FAIL"
    print(
        f"[{report['command']}] {status} in {time.monotonic() - started:.2f}s",
        file=sys.stderr,
    )


def _check(name: str, residual, tol: float, passed: bool) -> dict:
    return {"name": name, "residual": residual, "tol": tol, "passed": passed}


def cmd_verify(args) -> int:
    started = time.monotonic()
    payload = _load_payload(args)
    if "system" not in payload:
        raise PayloadError("payload must carry a 'system' entry")
    targets = []  # (report target, verifier, decoded object); all decoded before any check runs
    with _decoding():
        system = serialize.system_from_json(payload["system"])
        if "equivariant_rep" in payload:
            rep = serialize.rep_from_json(payload["equivariant_rep"], system)
            targets.append(("equivariant_rep", verify_equivariant, rep))
        if "cocycle" in payload:
            cocycle = serialize.cocycle_from_json(payload["cocycle"], system)
            targets.append(("cocycle", verify_cocycle, cocycle))
        if "covariant" in payload:
            covariant = _covariant_from_json(payload["covariant"], system)
            targets.append(("covariant", verify_covariant, covariant))
    if not targets:
        raise PayloadError(
            "payload has nothing to verify: supply equivariant_rep, cocycle or covariant"
        )
    checks = []
    for target, verify, obj in targets:
        report = verify(obj, args.tol)
        checks.extend({"target": target, **c} for c in report.as_dict()["checks"])
    passed = all(c["passed"] for c in checks)
    report = {
        "command": "verify",
        "config": {"tol": args.tol, "seed": args.seed},
        "checks": checks,
        "passed": passed,
    }
    _emit(report, args, started)
    return 0 if passed else CHECK_ERROR


def cmd_example(args) -> int:
    started = time.monotonic()
    if args.n < 2:
        raise PayloadError("--n must be at least 2")
    name = args.name
    n = args.n
    family = matrix_unit_family(name, n)
    system = family[0].system
    deviation = matrix_unit_deviation(family)
    bound = args.tol * scale(*(t.stack for t in family))
    span = span_dimension(family, args.tol)
    checks = [
        _check("coefficients reproduce matrix units", deviation, bound, deviation <= bound),
        _check("span dimension equals n^3", float(abs(span - n**3)), 0.5, span == n**3),
    ]
    # the multiplier algebra is the functions group -> M_n with pointwise
    # composition, so the summand index is the supporting group element
    labels = [{"summand": p, "row": k, "column": l} for k in range(n) for l in range(n) for p in range(n)]
    passed = all(c["passed"] for c in checks)
    report = {
        "command": "example",
        "config": {"name": name, "n": n, "tol": args.tol, "seed": args.seed},
        "checks": checks,
        "data": {
            "span_dimension": span,
            "multiplier_space_dimension": system.group.order * n * n,
            "identification": {
                "summands": n,
                "matrix_size": n,
                "basis_labels": labels,
            },
        },
        "passed": passed,
    }
    _emit(report, args, started)
    return 0 if passed else CHECK_ERROR


def _cone_summary(samples) -> dict:
    return {
        "samples": len(samples),
        "max_abs_imag_trace1": max(abs(s.trace1.imag) for s in samples),
        "min_trace0": min(s.trace0.real for s in samples),
        "positive_definite_fraction": sum(s.positive_definite for s in samples) / len(samples),
    }


def cmd_trace_cone(args) -> int:
    started = time.monotonic()
    if args.count < 1:
        raise PayloadError("--count must be at least 1")
    count = args.count
    om = trace_image_sample(omega_system(2), count, seed=args.seed, tol=args.tol)
    sg = trace_image_sample(sigma_system(2), count, seed=args.seed, tol=args.tol)
    om_im = max(abs(s.trace1.imag) for s in om)
    om_min0 = min(s.trace0.real for s in om)
    sg_hits = [s for s in sg if abs(s.trace1.imag) >= 0.5]
    checks = [
        _check("trivial-action second traces real", om_im, 1e-12, om_im <= 1e-12),
        _check("trivial-action first traces nonnegative", max(0.0, -om_min0), 1e-12, om_min0 >= -1e-12),
        _check("shift-action sample with |Im tr T_1| >= 0.5 exists", 0.0 if sg_hits else 1.0, 0.5, bool(sg_hits)),
    ]
    passed = all(c["passed"] for c in checks)
    report = {
        "command": "trace-cone",
        "config": {"count": count, "seed": args.seed, "tol": args.tol},
        "checks": checks,
        "data": {
            "trivial_action": _cone_summary(om),
            "shift_action": {**_cone_summary(sg), "nonreal_hits": len(sg_hits)},
        },
        "notes": [TRACE_CONE_NOTE],
        "passed": passed,
    }
    _emit(report, args, started)
    return 0 if passed else CHECK_ERROR


def cmd_pd(args) -> int:
    started = time.monotonic()
    if args.trials < 1:
        raise PayloadError("--trials must be at least 1")
    payload = _load_payload(args)
    if "system" not in payload or "multiplier" not in payload:
        raise PayloadError("payload must carry 'system' and 'multiplier'")
    with _decoding():
        system = serialize.system_from_json(payload["system"])
        t = serialize.multiplier_from_json(payload["multiplier"], system)
    cert = is_positive_definite(t, args.tol)
    oracle = pd_sample_oracle(t, trials=args.trials, seed=args.seed, tol=args.tol)
    rcp = build_reduced(system)
    cp = is_completely_positive(rcp, induced_map(rcp, t), args.tol)
    verdicts = {
        "fiberwise_criterion": cert.verdict,
        "sampled_definition": oracle.verdict,
        "completely_positive": cp.verdict,
    }
    agree = len(set(verdicts.values())) == 1
    report = {
        "command": "pd",
        "config": {"tol": args.tol, "seed": args.seed, "trials": args.trials},
        "verdicts": verdicts,
        "certificates": {
            "fiberwise_criterion": cert.as_dict(),
            "sampled_definition": oracle.as_dict(),
            "completely_positive": cp.as_dict(),
        },
        "checks": [_check("three verdicts agree", 0.0 if agree else 1.0, 0.5, agree)],
        "passed": agree,
    }
    _emit(report, args, started)
    return 0 if agree else CHECK_ERROR


def _tolerance(text: str) -> float:
    """A ``--tol`` value: an infinite one would pass every check, a NaN or
    negative one fail every check."""
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return tol


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only integers >= 0."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstardyn",
        description="finite C*-dynamical systems: verification, examples, positivity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=42)
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("verify", help="verify a representation, cocycle or covariant pair")
    p.add_argument("--system", type=str, default=None, help="payload file")
    p.add_argument("--inline", type=str, default=None, help="payload JSON")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("example", help="reproduce a matrix-unit example family")
    p.add_argument("--name", choices=["omega_n", "sigma_n"], required=True)
    p.add_argument("--n", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("trace-cone", help="sample the trace images of the order-2 cones")
    p.add_argument("--count", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_trace_cone)

    p = sub.add_parser("pd", help="cross-check positive definiteness three ways")
    p.add_argument("--system", type=str, default=None, help="payload file")
    p.add_argument("--inline", type=str, default=None, help="payload JSON")
    p.add_argument("--trials", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_pd)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a wrapper put on the module attribute runs
    func = globals()[args.func.__name__]
    try:
        return func(args)
    except PayloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (KeyError, ValueError) as exc:
        print(f"error: invalid payload: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
