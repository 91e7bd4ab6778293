import contextlib
import functools
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstardyn import cli, serialize
from cstardyn.cyclic_examples import sigma_cocycle, sigma_example_rep, sigma_system
from cstardyn.equivrep import EquivariantRep
from cstardyn.multiplier import TRACE_CONE_NOTE, unit_multiplier


def run_cli(*args: str, **kwargs):
    return subprocess.run([sys.executable, "-m", "cstardyn.cli", *args], capture_output=True, text=True, **kwargs)


def reject_constant(name):
    """A ``parse_constant`` for ``json.loads`` that accepts strict JSON only."""
    raise ValueError(f"not JSON: {name}")


def flip_payload():
    system = sigma_system(2)
    return system, {"system": serialize.system_to_json(system)}


def bool_perm_payload():
    """sigma_3's example representation with the base permutation [2, 0, 1]
    of element 1 written as [2, false, true]."""
    rep = sigma_example_rep(3)
    obj = serialize.rep_to_json(rep)
    obj["v"]["1"]["srcPerm"] = [2, False, True]
    return {"system": serialize.system_to_json(rep.system), "equivariant_rep": obj}


class TestVerifyCommand:
    def test_valid_rep_passes(self):
        system, payload = flip_payload()
        payload["equivariant_rep"] = serialize.rep_to_json(sigma_example_rep(2))
        payload["covariant"] = "regular"
        r = run_cli("verify", "--inline", json.dumps(payload))
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["passed"] and len(report["checks"]) > 5

    def test_fault_injected_rep_fails(self):
        system, payload = flip_payload()
        rep = sigma_example_rep(2)
        broken = EquivariantRep(
            rep.system,
            rep.module,
            rep.rho_stack,
            ((rep.v_mats[0][0], rep.v_mats[0][1]), (2.0 * rep.v_mats[1][0], rep.v_mats[1][1])),
        )
        payload["equivariant_rep"] = serialize.rep_to_json(broken)
        r = run_cli("verify", "--inline", json.dumps(payload))
        assert r.returncode == 1
        report = json.loads(r.stdout)
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert any("relation (ii)" in name for name in failing)

    def test_file_matches_inline(self, tmp_path):
        from cstardyn.cyclic_examples import sigma_cocycle

        system, payload = flip_payload()
        payload["cocycle"] = serialize.cocycle_to_json(sigma_cocycle(2))
        text = json.dumps(payload)
        path = tmp_path / "payload.json"
        path.write_text(text)
        r_inline = run_cli("verify", "--inline", text)
        r_file = run_cli("verify", "--system", str(path))
        assert r_inline.returncode == r_file.returncode == 0
        assert r_inline.stdout == r_file.stdout

    def test_malformed_json_exit_two(self):
        r = run_cli("verify", "--inline", "{not json")
        assert r.returncode == 2
        assert "line 1" in r.stderr

    def test_missing_payload_exit_two(self):
        r = run_cli("verify")
        assert r.returncode == 2

    def test_unknown_command_exit_two(self):
        r = run_cli("frobnicate")
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"system": {"group": [], "space": 2}, "covariant": "regular"},
            {"system": {"group": {"cyclic": 2}, "space": 2}, "covariant": "bogus"},
            {"system": {"group": {"cyclic": 2}, "space": 2}, "covariant": {"dim": 4, "pi": 3, "u": []}},
            [],
            {"system": {"group": {"cyclic": 2}, "space": 2, "perm": [[0, 1e300], [1, 0]]}, "covariant": "regular"},
            bool_perm_payload(),
        ],
        ids=["group-list", "covariant-string", "covariant-pi-number", "payload-list", "perm-overflow", "bool-src-perm"],
    )
    def test_mistyped_payload_exit_two(self, payload):
        r = run_cli("verify", "--inline", json.dumps(payload))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr and r.stdout == ""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("target", ["v", "rho", "u", "covariant"])
    def test_non_finite_number_exit_two(self, target, value):
        system, payload = flip_payload()
        rep = serialize.rep_to_json(sigma_example_rep(2))
        cocycle = serialize.cocycle_to_json(sigma_cocycle(2))
        if target == "v":
            rep["v"]["1"]["mats"][0][0][0] = [value, 0.0]
        elif target == "rho":
            rep["rho"][0][1][1][0] = [0.0, value]
        elif target == "u":
            cocycle["u"]["1"]["0"][0][1] = [value, value]
        else:
            eye = [[[float(i == j), 0.0] for j in range(2)] for i in range(2)]
            payload["covariant"] = {"dim": 2, "pi": [eye, eye], "u": [eye, eye]}
            payload["covariant"]["pi"][0] = [[[value, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        payload.update({"equivariant_rep": rep, "cocycle": cocycle})
        # json.dumps writes NaN / Infinity / -Infinity, which json.loads accepts
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--inline", json.dumps(payload)])
        assert code == 2 and out.getvalue() == ""
        assert "non-finite number" in err.getvalue()

    MALFORMED = {
        "short-pair": [[[1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "string": [["ab", [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "null": [[None, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "null-number": [[[None, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "ragged-row": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "extra-nesting": [[[[1.0], [0.0]], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "1e400": [[["1e400", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "10**400": [[["10**400", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    }

    @pytest.mark.parametrize("target", ["v", "rho", "u", "covariant", "multiplier"])
    @pytest.mark.parametrize("entry", sorted(MALFORMED))
    def test_malformed_matrix_exit_two(self, entry, target):
        system, payload = flip_payload()
        rep = serialize.rep_to_json(sigma_example_rep(2))
        cocycle = serialize.cocycle_to_json(sigma_cocycle(2))
        bad = self.MALFORMED[entry]
        eye = [[[float(i == j), 0.0] for j in range(2)] for i in range(2)]
        if target == "v":
            rep["v"]["1"]["mats"][0] = bad
        elif target == "rho":
            rep["rho"][0][1] = bad
        elif target == "u":
            cocycle["u"]["1"]["0"] = bad
        elif target == "covariant":
            payload["covariant"] = {"dim": 2, "pi": [bad, eye], "u": [eye, eye]}
        else:
            payload["multiplier"] = {"0": eye, "1": bad}
        payload.update({"equivariant_rep": rep, "cocycle": cocycle})
        # the two number literals JSON can carry but json.dumps does not write
        text = json.dumps(payload).replace('"1e400"', "1e400").replace('"10**400"', "1" + "0" * 400)
        argv = ["pd", "--inline", text, "--trials", "5"] if target == "multiplier" else ["verify", "--inline", text]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code == 2 and out.getvalue() == ""
        assert "invalid payload" in err.getvalue()
        if entry in ("1e400", "null-number"):
            assert "non-finite number" in err.getvalue()

    def test_failing_checks_located(self):
        system, payload = flip_payload()
        rep = serialize.rep_to_json(sigma_example_rep(2))
        rep["v"]["1"]["mats"][0] = [[[2 * re, 2 * im] for re, im in row] for row in rep["v"]["1"]["mats"][0]]
        cocycle = serialize.cocycle_to_json(sigma_cocycle(2))
        cocycle["u"]["1"]["1"] = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]  # i * identity
        payload.update({"equivariant_rep": rep, "cocycle": cocycle, "covariant": "regular"})
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["verify", "--inline", json.dumps(payload)]) == 1
        checks = {(c["target"], c["name"]): c for c in json.loads(out.getvalue())["checks"]}
        assert checks["equivariant_rep", "relation (ii) inner products"]["where"] == {"g": 1, "x": 0}
        assert checks["equivariant_rep", "v homomorphism"]["where"] == {"g": 1, "h": 1, "x": 0}
        assert checks["cocycle", "cocycle identity"]["where"] == {"g": 1, "h": 1, "x": 0}
        assert checks["equivariant_rep", "v isometric"]["where"] == {"g": 1, "x": 0, "i": 0}
        # the unitary i * identity breaks the cocycle identity but not unitarity
        assert "where" not in checks["cocycle", "unitarity"]
        located = {
            "relation (i) covariance",
            "relation (ii) inner products",
            "v homomorphism",
            "v isometric",
            "unitarity",
            "cocycle identity",
        }
        for (target, name), check in checks.items():
            if name not in located:
                assert "where" not in check, name


    @pytest.mark.parametrize("target", ["equivariant_rep", "cocycle", "covariant"])
    def test_large_finite_entry_fails_without_warning(self, target):
        """One entry of 1e200 overflows the residual products: the report is
        still printed, with the checks failing, and no warning is raised even
        when warnings are errors."""
        _, payload = flip_payload()
        eye = [[[float(i == j), 0.0] for j in range(2)] for i in range(2)]
        if target == "equivariant_rep":
            payload[target] = serialize.rep_to_json(sigma_example_rep(2))
            payload[target]["v"]["1"]["mats"][0][0][0] = [1e200, 0.0]
        elif target == "cocycle":
            payload[target] = serialize.cocycle_to_json(sigma_cocycle(2))
            payload[target]["u"]["1"]["0"][0][0] = [1e200, 0.0]
        else:
            big = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
            payload[target] = {"dim": 2, "pi": [big, eye], "u": [eye, eye]}
        count = {"equivariant_rep": 9, "cocycle": 3, "covariant": 3}[target]
        out = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["verify", "--inline", json.dumps(payload)])
        report = json.loads(out.getvalue(), parse_constant=reject_constant)
        assert code == 1 and report["passed"] is False
        assert len(report["checks"]) == count and all(c["target"] == target for c in report["checks"])
        # the infinite residual is written as a string, which strict JSON allows
        assert any(c["residual"] == "Infinity" and not c["passed"] for c in report["checks"])
        assert all(isinstance(c["residual"], float) or c["residual"] == "Infinity" for c in report["checks"])


    def test_non_finite_numbers_are_strings(self):
        """Non-finite numbers in a report are written as strings, so every
        report parses as strict JSON."""
        assert cli._strict_json({"a": [1.5, (math.inf,)], "b": None}) == {"a": [1.5, ["Infinity"]], "b": None}
        assert cli._strict_json([-math.inf, math.nan]) == ["-Infinity", "NaN"]

    def test_tol_must_be_finite_and_nonnegative(self):
        """An infinite --tol would pass every check and a negative or NaN one
        fail every check, so they are usage errors; zero stays valid."""
        _, payload = flip_payload()
        payload["cocycle"] = serialize.cocycle_to_json(sigma_cocycle(2))
        argv = ["verify", "--inline", json.dumps(payload)]
        for tol in (math.inf, -math.inf, math.nan, -1e-9):
            assert in_process(argv + [f"--tol={tol}"]) == (2, "")
        for tol in (0.0, 1e-6):
            code, out = in_process(argv + [f"--tol={tol}"])
            assert code == 0 and json.loads(out)["config"]["tol"] == tol

    def test_seed_must_be_nonnegative_integer(self):
        """A negative or non-integer --seed is a usage error that names
        --seed, for pd and for trace-cone, which have no payload to blame."""
        t = unit_multiplier(sigma_system(2))
        payload = {"system": serialize.system_to_json(t.system), "multiplier": serialize.multiplier_to_json(t)}
        commands = (["pd", "--inline", json.dumps(payload), "--trials", "5"], ["trace-cone", "--count", "3"])
        for argv in commands:
            for seed in ("-1", "1.5", "x"):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    with pytest.raises(SystemExit) as exc:
                        cli.main(argv + ["--seed", seed])
                assert exc.value.code == 2 and "--seed" in err.getvalue() and "payload" not in err.getvalue()
            for seed in (0, 2**70):
                code, out = in_process(argv + ["--seed", str(seed)])
                assert code == 0 and json.loads(out)["config"]["seed"] == seed

    @pytest.mark.parametrize("script", ["run_pd_survey.py", "run_trace_cone.py", "run_verify_roundtrip.py"])
    def test_scripts_refuse_negative_seed(self, script):
        """The CI scripts parse --seed as the CLI does: -1 is a usage error
        that names --seed, not a numpy traceback."""
        path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", script)
        r = subprocess.run([sys.executable, path, "--seed", "-1"], capture_output=True, text=True)
        assert r.returncode == 2 and "argument --seed" in r.stderr and "Traceback" not in r.stderr


class TestExampleCommand:
    @pytest.mark.parametrize("name", ["omega_n", "sigma_n"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_families(self, name, n):
        r = run_cli("example", "--name", name, "--n", str(n))
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["passed"]
        assert report["data"]["span_dimension"] == n**3

    def test_small_n_rejected(self):
        r = run_cli("example", "--name", "omega_n", "--n", "1")
        assert r.returncode == 2

    def test_unknown_name_rejected(self):
        r = run_cli("example", "--name", "nonsense", "--n", "2")
        assert r.returncode == 2


class TestTraceConeCommand:
    def test_zero_count_is_usage_error(self):
        r = run_cli("trace-cone", "--count", "0")
        assert r.returncode == 2
        assert "--count must be at least 1" in r.stderr
        assert "invalid payload" not in r.stderr and r.stdout == ""

    def test_separation_reported(self):
        r = run_cli("trace-cone", "--count", "300")
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["passed"]
        assert report["notes"] == [TRACE_CONE_NOTE]
        assert report["data"]["trivial_action"]["positive_definite_fraction"] == 1.0
        assert report["data"]["shift_action"]["nonreal_hits"] > 0

    def test_deterministic_output(self):
        r1 = run_cli("trace-cone", "--count", "100", "--seed", "7")
        r2 = run_cli("trace-cone", "--count", "100", "--seed", "7")
        assert r1.stdout == r2.stdout

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli("trace-cone", "--count", "50", "--out", str(out))
        assert r.returncode == 0
        assert json.loads(out.read_text())["command"] == "trace-cone"


class TestPdCommand:
    def test_unit_multiplier_three_trues(self):
        system, payload = flip_payload()
        payload["multiplier"] = serialize.multiplier_to_json(unit_multiplier(system))
        r = run_cli("pd", "--inline", json.dumps(payload), "--trials", "300")
        assert r.returncode == 0
        verdicts = json.loads(r.stdout)["verdicts"]
        assert all(verdicts.values())

    def test_false_case_three_falses(self):
        from cstardyn.core import System, cyclic_group, trivial_action

        triv = System(trivial_action(cyclic_group(2), 2))
        payload = {
            "system": serialize.system_to_json(triv),
            "multiplier": {
                "0": serialize.matrix_to_json(np.zeros((2, 2))),
                "1": serialize.matrix_to_json(np.eye(2)),
            },
        }
        r = run_cli("pd", "--inline", json.dumps(payload), "--trials", "300")
        assert r.returncode == 0  # three agreeing falses still pass the command
        verdicts = json.loads(r.stdout)["verdicts"]
        assert not any(verdicts.values())

    def test_zero_trials_is_usage_error(self):
        system, payload = flip_payload()
        payload["multiplier"] = serialize.multiplier_to_json(unit_multiplier(system))
        r = run_cli("pd", "--inline", json.dumps(payload), "--trials", "0")
        assert r.returncode == 2
        assert "--trials must be at least 1" in r.stderr
        assert "invalid payload" not in r.stderr and r.stdout == ""

    def test_decode_out_of_memory_exit_two(self):
        """Z_20000's table needs 3 GB: under a 1 GiB address-space limit the
        decode runs out of memory, which is a payload error."""
        payload = {"system": {"group": {"cyclic": 20000}, "space": 1}, "multiplier": {}}
        limit = functools.partial(resource.setrlimit, resource.RLIMIT_AS, (2**30, 2**30))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        r = run_cli("pd", "--inline", json.dumps(payload), preexec_fn=limit, env=env)
        assert r.returncode == 2 and "MemoryError" in r.stderr

    def test_multiplier_missing_exit_two(self):
        _, payload = flip_payload()
        r = run_cli("pd", "--inline", json.dumps(payload))
        assert r.returncode == 2

    @pytest.mark.parametrize("multiplier", [[1, 2], {"0": 5, "1": 3}], ids=["list", "numbers"])
    def test_mistyped_multiplier_exit_two(self, multiplier):
        _, payload = flip_payload()
        payload["multiplier"] = multiplier
        r = run_cli("pd", "--inline", json.dumps(payload))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr and r.stdout == ""


class TestIngestionEquivalence:
    def test_z3_file_matches_inline(self, tmp_path):
        from cstardyn.core import System, cyclic_shift_action
        from cstardyn.cyclic_examples import sigma_cocycle

        system = System(cyclic_shift_action(3))
        payload = {
            "system": serialize.system_to_json(system),
            "cocycle": serialize.cocycle_to_json(sigma_cocycle(3)),
            "covariant": "regular",
        }
        text = json.dumps(payload)
        path = tmp_path / "z3.json"
        path.write_text(text)
        r_inline = run_cli("verify", "--inline", text)
        r_file = run_cli("verify", "--system", str(path))
        assert r_inline.returncode == r_file.returncode == 0
        assert r_inline.stdout == r_file.stdout

    def test_cyclic_shorthand_accepted(self):
        payload = {
            "system": {"group": {"cyclic": 2}, "space": 2, "perm": [[0, 1], [1, 0]]},
            "covariant": "regular",
        }
        r = run_cli("verify", "--inline", json.dumps(payload))
        assert r.returncode == 0


def base_payloads():
    """Valid pd and verify payloads on the two order-2 systems."""
    from cstardyn.core import System, cyclic_group, trivial_action

    flip = sigma_system(2)
    triv = System(trivial_action(cyclic_group(2), 2))
    verify = {
        "system": serialize.system_to_json(flip),
        "equivariant_rep": serialize.rep_to_json(sigma_example_rep(2)),
        "cocycle": serialize.cocycle_to_json(sigma_cocycle(2)),
        "covariant": "regular",
    }
    pd_flip = {
        "system": serialize.system_to_json(flip),
        "multiplier": serialize.multiplier_to_json(unit_multiplier(flip)),
    }
    pd_triv = {
        "system": serialize.system_to_json(triv),
        "multiplier": {
            "0": serialize.matrix_to_json(np.zeros((2, 2))),
            "1": serialize.matrix_to_json(np.eye(2)),
        },
    }
    return [("verify", verify), ("pd", pd_flip), ("pd", pd_triv)]


# small numbers and a few extremes only: a mutated group order or space size
# must stay cheap to build
numbers = st.integers(-2, 6) | st.floats(-4, 4) | st.sampled_from([math.nan, math.inf, -math.inf, 1e300])
json_values = st.recursive(
    st.none()
    | st.booleans()
    | numbers
    | st.sampled_from(["", "0", "1", "regular", "bogus", "cyclic"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1", "order", "dim", "pi", "u"]), children, max_size=3),
    max_leaves=6,
)


def node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from node_paths(child, path + (key,))
    elif isinstance(node, list):
        for idx, child in enumerate(node):
            yield from node_paths(child, path + (idx,))


def mutate(payload, data):
    """Change one to three drawn nodes of the payload: set a number to
    another number (which mostly keeps the payload well formed), replace a
    node by any JSON value, or delete it."""
    for _ in range(data.draw(st.integers(1, 3))):
        if not isinstance(payload, (dict, list)):
            break
        paths = list(node_paths(payload))
        leaves = [p for p in paths if p and isinstance(lookup(payload, p), (int, float))]
        kind = data.draw(st.sampled_from(["number", "number", "replace", "delete"]))
        if kind == "number" and leaves:
            path, value = data.draw(st.sampled_from(leaves)), data.draw(numbers)
        else:
            path, value = data.draw(st.sampled_from(paths)), data.draw(json_values)
        if not path:
            payload = value
        elif kind == "delete":
            del lookup(payload, path[:-1])[path[-1]]
        else:
            lookup(payload, path[:-1])[path[-1]] = value
    return payload


def lookup(node, path):
    for key in path:
        node = node[key]
    return node


class TestPayloadFuzz:
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_exit_code_contract(self, data):
        command, payload = data.draw(st.sampled_from(base_payloads()))
        payload = mutate(payload, data)
        # one token, so that a payload starting with "-" is not read as an option
        argv = [command, f"--inline={json.dumps(payload)}"]
        if command == "pd":
            argv += ["--trials", "5"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2)
        if code == 1:
            report = json.loads(out.getvalue())
            assert report["passed"] is False


def in_process(argv):
    """Run ``cli.main`` in this process; usage errors that argparse reports
    by exiting come back as their exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class TestParserReuse:
    def test_sequence_matches_fresh_parsers(self):
        _, payload = flip_payload()
        payload["equivariant_rep"] = serialize.rep_to_json(sigma_example_rep(2))
        unit = serialize.multiplier_to_json(unit_multiplier(sigma_system(2)))
        pd_payload = {"system": payload["system"], "multiplier": unit}
        sequence = [
            ["verify", "--inline", json.dumps(payload)],
            ["example", "--n", "2"],  # --name is required: usage error
            ["pd", "--inline", json.dumps(pd_payload), "--trials", "50"],
            ["example", "--name", "sigma_n", "--n", "3"],
        ]
        cli._parser.cache_clear()
        reused = [in_process(argv) for argv in sequence]
        assert cli._parser.cache_info().misses == 1
        fresh = []
        for argv in sequence:
            cli._parser.cache_clear()
            fresh.append(in_process(argv))
        assert [code for code, _ in reused] == [0, 2, 0, 0]
        assert reused == fresh

    def test_replaced_command_is_called(self, monkeypatch):
        """A wrapper put on a command after the parser was built still runs,
        as instrumentation that wraps module attributes expects."""
        in_process(["example", "--name", "omega_n"])
        calls = []
        original = cli.cmd_example

        def wrapped(args):
            calls.append(args.name)
            return original(args)

        wrapped.__name__ = original.__name__
        monkeypatch.setattr(cli, "cmd_example", wrapped)
        assert in_process(["example", "--name", "sigma_n"])[0] == 0
        assert calls == ["sigma_n"]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
