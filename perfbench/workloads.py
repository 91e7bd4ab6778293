"""Seeded request lists for the benchmark workloads, each request with the
check its output must pass.

A request is one call a user of cstardyn makes: a ``cstardyn`` command run
in-process through ``cli.main(argv)`` with its stdout captured, or one of the
two library constructions that have no command (``gns_from_pd`` and
``fell_absorption_unitary``).  The program sees only the generated payloads;
the seed stays here.  Why each workload looks the way it does is in
``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from cstardyn import cli, equivrep, serialize
from cstardyn.cocycle import CocycleRep, EquivariantMap, rho_from_sigma
from cstardyn.core import FiniteGroup, FiniteSpace, GroupAction, System, symmetric_group
from cstardyn.cyclic_examples import omega_example_rep, omega_system, sigma_example_rep, sigma_system
from cstardyn.generators import (
    assorted_small_systems,
    random_constant_rep,
    random_equivariant_rep,
    random_unitary,
    random_vector,
)
from cstardyn.hilbmod import SectionalModule
from cstardyn.multiplier import Multiplier, coefficient

# random_multiplier_suite's borderline margin: a multiplier meant to be not
# positive definite must fail the criterion by more than this (relative to
# 1 + max|entry|), so that rounding cannot flip any of the three verdicts
CLEAR_MARGIN = 1e-3
SURVEY_PER_SYSTEM = 12
SURVEY_TRIALS = 1000
LADDER_TRIALS = 200
COCYCLE_DIM = 2


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Request:
    """One call and the check of its output.

    ``check(result, stdout, expect)`` raises :class:`CheckFailed` or returns
    facts about the output (the oracle verdict of a ``pd`` report).  ``text``
    is the request's input in serialized form, for the determinism check of
    the set-up; the size fields feed the computed per-layer counts.
    """

    label: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object, str, dict], dict | None]
    text: str
    expect: dict = field(default_factory=dict)
    payload_bytes: int = 0
    group_order: int = 0
    system_key: str | None = None
    cp_dim: int = 0
    trials: int = 0


@dataclass(frozen=True)
class Workload:
    requests: list[Request]
    warmup: list[Request]

    def digest(self) -> str:
        h = hashlib.sha256()
        for r in self.requests + self.warmup:
            h.update(r.label.encode())
            h.update(r.text.encode())
        return h.hexdigest()


# ---------------------------------------------------------------- checks


def _report(code, stdout: str, want_code: int) -> dict:
    if code != want_code:
        raise CheckFailed(f"exit code {code}, expected {want_code}")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not one JSON report: {exc}") from exc


def check_pd(code, stdout, expect):
    report = _report(code, stdout, 0)
    verdicts = report["verdicts"]
    if report["passed"] is not True:
        raise CheckFailed(f"report not passed: {verdicts}")
    if set(verdicts.values()) != {expect["pd"]}:
        raise CheckFailed(f"verdicts {verdicts}, expected all {expect['pd']}")
    return {"oracle_violation": not verdicts["sampled_definition"]}


def check_verify(code, stdout, expect):
    report = _report(code, stdout, 0)
    if report["passed"] is not True:
        raise CheckFailed("verify report not passed")


def check_fault(code, stdout, expect):
    report = _report(code, stdout, 1)
    failing = {c["name"] for c in report["checks"] if not c["passed"]}
    if report["passed"] is not False or expect["failing"] not in failing:
        raise CheckFailed(f"failing checks {sorted(failing)}, expected {expect['failing']!r} among them")


def check_example(code, stdout, expect):
    report = _report(code, stdout, 0)
    span = report["data"]["span_dimension"]
    if report["passed"] is not True or span != expect["span"]:
        raise CheckFailed(f"span dimension {span}, expected {expect['span']}")


def check_trace_cone(code, stdout, expect):
    if _report(code, stdout, 0)["passed"] is not True:
        raise CheckFailed("trace-cone report not passed")


def check_gns(result, stdout, expect):
    if not isinstance(result[1], equivrep.CyclicVector):
        raise CheckFailed("gns_from_pd returned no cyclic vector")


def check_fell(result, stdout, expect):
    report = result[1]
    if not report.passed:
        raise CheckFailed(f"absorption unitary failed {report.worst().name}")


# ---------------------------------------------------------------- inputs


def clearly_not_pd(t: Multiplier) -> bool:
    """The fiberwise criterion, computed here independently of the package:
    for each point x and basis index k the matrix
    [T_{g_i^-1 g_j}(g_i^-1.x, g_i^-1.k)]_{ij} must be Hermitian PSD.  True
    when some matrix misses by more than the margin."""
    group, perm = t.system.group, t.system.action.perm
    mats = np.stack(t.mats)
    kern = group.mult[group.inverse]
    pts = perm[group.inverse]
    m = mats[kern[:, :, None, None], pts[:, None, :, None], pts[:, None, None, :]].transpose(2, 3, 0, 1)
    mh = m.conj().swapaxes(-1, -2)
    scale = 1.0 + float(np.abs(mats).max())
    if np.abs(m - mh).max() > CLEAR_MARGIN * scale:
        return True
    return float(np.linalg.eigvalsh((m + mh) / 2)[..., 0].min()) < -CLEAR_MARGIN * scale


def diagonal_coefficient(rep, rng) -> Multiplier:
    """<xi, rho(a) v(g) xi>: positive definite by construction."""
    xi = random_vector(rep.module, rng)
    return coefficient(rep, xi, xi)


def not_pd(system: System, kind: str, rep_of: Callable, rng) -> Multiplier:
    """A Gaussian multiplier or a difference of diagonal coefficients,
    redrawn until it fails the criterion clearly."""
    order, n = system.group.order, system.n_points
    for _ in range(100):
        if kind == "gaussian":
            mats = rng.normal(size=(order, n, n)) + 1j * rng.normal(size=(order, n, n))
            cand = Multiplier(system, tuple(mats))
        else:
            rep = rep_of()
            cand = diagonal_coefficient(rep, rng) - 2.0 * diagonal_coefficient(rep, rng)
        if clearly_not_pd(cand):
            return cand
    raise RuntimeError(f"no clearly indefinite {kind} multiplier drawn")


def natural_action(k: int) -> System:
    """S_k on k letters, elements in symmetric_group's sorted order."""
    perms = np.array(sorted(itertools.permutations(range(k))), dtype=np.intp)
    return System(GroupAction(symmetric_group(k), FiniteSpace(k), perms))


def fixed_dim_cocycle(action: GroupAction, rng, dim: int = COCYCLE_DIM) -> CocycleRep:
    """generators.random_cocycle with the fiber dimension fixed, so that the
    cost of a request does not depend on the seed."""
    pi = random_constant_rep(action.group, dim, rng)
    conj = [random_unitary(dim, rng) for _ in action.space.points()]
    u = tuple(
        tuple(conj[x] @ pi[g] @ conj[action.apply_inv(g, x)].conj().T for x in action.space.points())
        for g in action.group.elements()
    )
    return CocycleRep(action, SectionalModule(action.space, (dim,) * action.space.size), u)


def identity_rep(system: System, rng):
    """The representation of a seeded cocycle over the identity base map."""
    sigma = EquivariantMap(system.action, tuple(range(system.n_points)))
    return rho_from_sigma(sigma, fixed_dim_cocycle(system.action, rng))


def _system_key(system: System) -> str:
    return json.dumps(serialize.system_to_json(system))


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def cli_request(label, kind, argv, check, expect=None, **sizes) -> Request:
    payload = argv[argv.index("--inline") + 1] if "--inline" in argv else ""
    return Request(
        label=label,
        kind=kind,
        call=lambda: cli.main(argv),
        check=check,
        text=" ".join(argv),
        expect=expect or {},
        payload_bytes=len(payload.encode()),
        **sizes,
    )


def pd_request(label, system: System, t: Multiplier, expect_pd: bool, trials: int, rng) -> Request:
    payload = json.dumps(
        {"system": serialize.system_to_json(system), "multiplier": serialize.multiplier_to_json(t)}
    )
    dim = system.n_points * system.group.order
    argv = ["pd", "--inline", payload, "--trials", str(trials), "--seed", str(_seed(rng))]
    return cli_request(
        label,
        "pd",
        argv,
        check_pd,
        {"pd": expect_pd},
        group_order=system.group.order,
        system_key=_system_key(system),
        cp_dim=dim * dim,
        trials=trials,
    )


def verify_request(label, kind, system: System, payload: dict, check, expect=None) -> Request:
    text = json.dumps({"system": serialize.system_to_json(system), **payload})
    return cli_request(label, kind, ["verify", "--inline", text], check, expect, group_order=system.group.order)


# ---------------------------------------------------------------- workloads


def pd_survey(seed: int) -> Workload:
    """pd requests over the seven assorted small systems; per system eight
    multipliers positive definite by construction and four clearly not."""
    rng = np.random.default_rng(seed)
    requests = []
    for s, system in enumerate(assorted_small_systems()):
        rep_of = lambda: random_equivariant_rep(system, rng, max_dim=2)  # noqa: E731
        for i in range(SURVEY_PER_SYSTEM):
            kind = ("coefficient", "sum", ("gaussian", "difference")[i // 3 % 2])[i % 3]
            if kind == "coefficient":
                t = diagonal_coefficient(rep_of(), rng)
            elif kind == "sum":
                t = diagonal_coefficient(rep_of(), rng) + diagonal_coefficient(rep_of(), rng)
            else:
                t = not_pd(system, kind, rep_of, rng)
            pd = kind in ("coefficient", "sum")
            requests.append(pd_request(f"pd/{s}/{i}/{kind}", system, t, pd, SURVEY_TRIALS, rng))
    return Workload(requests, requests[:3])


def relabeled(t: Multiplier, rng) -> Multiplier:
    """The same multiplier on an isomorphic copy of its system, with group
    elements and points renamed by seeded permutations.  The copy costs the
    same to check but shares no payload with the original."""
    group, action = t.system.group, t.system.action
    sg, px = rng.permutation(group.order), rng.permutation(action.space.size)
    mult = np.empty_like(group.mult)
    mult[sg[:, None], sg[None, :]] = sg[group.mult]
    perm = np.empty_like(action.perm)
    perm[sg[:, None], px[None, :]] = px[action.perm]
    mats = np.empty((group.order, action.space.size, action.space.size), dtype=complex)
    mats[sg[:, None, None], px[None, :, None], px[None, None, :]] = np.stack(t.mats)
    system = System(GroupAction(FiniteGroup(group.order, mult), action.space, perm))
    return Multiplier(system, tuple(mats))


def cp_ladder(seed: int) -> Workload:
    """pd requests with few oracle trials on the ladder omega_n, sigma_n for
    n = 4, 5, 6 and the natural S_3 action.  Every request gets its own
    relabeled copy of its rung, so no system repeats; positive definite and
    clearly indefinite multipliers alternate."""
    rng = np.random.default_rng(seed)
    ladder = []
    # most requests sit on the n = 5 rung, so that the median and the tail
    # rank both fall inside one cluster of similar latencies
    for n, count in ((4, 1), (5, 9), (6, 1)):
        k, l = (int(v) for v in rng.integers(0, n, size=2))
        ladder.append((f"omega_{n}", omega_system(n), count, lambda n=n, k=k, l=l: omega_example_rep(n, k, l)))
        ladder.append((f"sigma_{n}", sigma_system(n), count, lambda n=n: sigma_example_rep(n)))
    s3 = assorted_small_systems()[-1]
    ladder.append(("s3_natural", s3, 1, lambda: identity_rep(s3, rng)))
    requests, seen = [], set()
    indefinite = itertools.cycle(("gaussian", "difference"))
    for r, (name, system, count, rep_of) in enumerate(ladder):
        for i in range(count):
            pd = (r + i) % 2 == 0
            kind = "pd" if pd else next(indefinite)
            t = diagonal_coefficient(rep_of(), rng) if pd else not_pd(system, kind, rep_of, rng)
            copy = relabeled(t, rng)
            while _system_key(copy.system) in seen:
                copy = relabeled(t, rng)
            seen.add(_system_key(copy.system))
            requests.append(pd_request(f"pd/{name}/{i}/{kind}", copy.system, copy, pd, LADDER_TRIALS, rng))
    return Workload(requests, requests[:2])


def _faulted(label, system, rng, fault: str) -> Request:
    """A seeded representation with one relation broken on purpose; the
    correct outcome is exit 1 naming that relation."""
    if fault == "unitarity":
        u = serialize.cocycle_to_json(fixed_dim_cocycle(system.action, rng))
        u["u"]["1"]["0"] = [[[1.5 * re, 1.5 * im] for re, im in row] for row in u["u"]["1"]["0"]]
        payload = {"cocycle": u}
    else:
        rep = serialize.rep_to_json(identity_rep(system, rng))
        if fault == "v homomorphism":
            # a phase keeps v(1) unitary and covariant but breaks v(g)v(h) = v(gh)
            rep["v"]["1"]["mats"][0] = [[[-im, re] for re, im in row] for row in rep["v"]["1"]["mats"][0]]
        else:
            rep["rho"][0] = [[[[2 * re, 2 * im] for re, im in row] for row in block] for block in rep["rho"][0]]
        payload = {"equivariant_rep": rep}
    return verify_request(label, "fault", system, payload, check_fault, {"failing": fault})


def rep_verify(seed: int) -> Workload:
    """Representation-side requests: verify, faulted verify, example,
    trace-cone, and the gns / absorption constructions."""
    rng = np.random.default_rng(seed)
    assorted = assorted_small_systems()
    requests = []
    for n in range(3, 9):
        rep = sigma_example_rep(n)
        payload = {"equivariant_rep": serialize.rep_to_json(rep), "covariant": "regular"}
        requests.append(verify_request(f"verify/sigma_{n}", "verify", rep.system, payload, check_verify))
    # six copies of the Z_3 verify put the median, and five S_4 copies the
    # tail rank (the 11th largest latency), inside clusters of equal costs
    copies = [6 if i == 2 else 2 for i in range(len(assorted))]
    named = [(f"assorted_{i}/{copy}", s) for i, s in enumerate(assorted) for copy in range(copies[i])]
    s4 = natural_action(4)
    named += [(f"s4_natural/{copy}", s4) for copy in range(5)] + [("s5_natural", natural_action(5))]
    for name, system in named:
        c = fixed_dim_cocycle(system.action, rng)
        sigma = EquivariantMap(system.action, tuple(range(system.n_points)))
        payload = {
            "equivariant_rep": serialize.rep_to_json(rho_from_sigma(sigma, c)),
            "cocycle": serialize.cocycle_to_json(c),
        }
        requests.append(verify_request(f"verify/{name}", "verify", system, payload, check_verify))
    for i, fault in zip((2, 3, 4), ("unitarity", "v homomorphism", "rho multiplicative")):
        requests.append(_faulted(f"fault/assorted_{i}/{fault}", assorted[i], rng, fault))
    for name in ("omega_n", "sigma_n"):
        for n in (3, 4, 5):
            argv = ["example", "--name", name, "--n", str(n), "--seed", str(_seed(rng))]
            requests.append(
                cli_request(f"example/{name}/{n}", "example", argv, check_example, {"span": n**3}, group_order=n)
            )
    argv = ["trace-cone", "--count", "1000", "--seed", str(_seed(rng))]
    requests.append(cli_request("trace-cone/1000", "trace-cone", argv, check_trace_cone, group_order=2))
    for i, system in enumerate(assorted):
        t = diagonal_coefficient(random_equivariant_rep(system, rng, max_dim=2), rng)
        requests.append(
            Request(
                label=f"gns/assorted_{i}",
                kind="gns",
                call=lambda t=t: equivrep.gns_from_pd(t),
                check=check_gns,
                text=json.dumps(serialize.multiplier_to_json(t)),
                group_order=system.group.order,
            )
        )
    for i, system in enumerate([sigma_system(2), omega_system(2), sigma_system(3), sigma_system(3)]):
        rep = random_equivariant_rep(system, rng, max_dim=2, allow_composites=False)
        requests.append(
            Request(
                label=f"fell/{i}",
                kind="fell",
                call=lambda rep=rep: equivrep.fell_absorption_unitary(rep),
                check=check_fell,
                text=json.dumps(serialize.rep_to_json(rep)),
                group_order=system.group.order,
            )
        )
    by_kind: dict[str, Request] = {}
    for r in requests:
        by_kind.setdefault(r.kind, r)
    return Workload(requests, list(by_kind.values()))


BUILDERS = {"pd_survey": pd_survey, "cp_ladder": cp_ladder, "rep_verify": rep_verify}
