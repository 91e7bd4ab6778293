import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cstardyn import serialize
from cstardyn.cocycle import CocycleRep
from cstardyn.cyclic_examples import omega_example_rep, omega_system, sigma_example_rep, sigma_cocycle, sigma_system
from cstardyn.equivrep import EquivariantRep, direct_sum_reps, trivial_rep
from cstardyn.generators import random_equivariant_rep, random_multiplier_suite
from cstardyn.multiplier import multiplier_distance
from oracles import reference_matrix_to_json


def through_json(obj):
    return json.loads(json.dumps(obj))


class TestSystemRoundTrip:
    def test_explicit_table(self, z3_cycle):
        obj = through_json(serialize.system_to_json(z3_cycle))
        back = serialize.system_from_json(obj)
        assert back == z3_cycle

    def test_cyclic_shorthand(self):
        obj = {"group": {"cyclic": 3}, "space": 3, "perm": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
        system = serialize.system_from_json(obj)
        assert system == sigma_system(3)

    def test_trivial_perm_default(self):
        system = serialize.system_from_json({"group": {"cyclic": 2}, "space": 3})
        assert system.action.apply(1, 0) == 0


class TestComplexEncoding:
    def test_pairs(self):
        assert serialize.matrix_to_json(np.array([[1 - 2j]])) == [[[1.0, -2.0]]]
        assert serialize.matrix_from_json([[[1.0, -2.0]]], 1, 1)[0, 0] == 1 - 2j

    def test_bit_exact_floats(self, rng):
        values = rng.normal(size=20) * 10.0**rng.integers(-12, 12, size=20)
        for v in values:
            z = complex(v, -v / 3.0)
            assert serialize.matrix_from_json(through_json(serialize.matrix_to_json(np.array([[z]]))), 1, 1)[0, 0] == z


class TestRepRoundTrip:
    def test_example_rep_bit_exact(self):
        rep = sigma_example_rep(3)
        system = rep.system
        obj = through_json(serialize.rep_to_json(rep))
        back = serialize.rep_from_json(obj, system)
        for k in range(3):
            for x in range(3):
                assert np.array_equal(back.rho[k].blocks[x], rep.rho[k].blocks[x])
        for g in range(3):
            for x in range(3):
                assert np.array_equal(back.v_mats[g][x], rep.v_mats[g][x])

    def test_random_rep_bit_exact(self, z2_flip, rng):
        rep = random_equivariant_rep(z2_flip, rng, max_dim=3)
        obj = through_json(serialize.rep_to_json(rep))
        back = serialize.rep_from_json(obj, z2_flip)
        for g in range(2):
            for x in range(2):
                assert np.array_equal(back.v_mats[g][x], rep.v_mats[g][x])

    def test_wrong_base_perm_rejected(self):
        rep = sigma_example_rep(2)
        obj = serialize.rep_to_json(rep)
        obj["v"]["1"]["srcPerm"] = [0, 1]
        with pytest.raises(ValueError, match="base permutation"):
            serialize.rep_from_json(obj, rep.system)

    def test_bool_in_base_perm_rejected(self):
        """[2, false, true] equals the action's [2, 0, 1] entrywise, but a
        JSON boolean is no integer."""
        rep = sigma_example_rep(3)
        obj = through_json(serialize.rep_to_json(rep))
        assert obj["v"]["1"]["srcPerm"] == [2, 0, 1]
        obj["v"]["1"]["srcPerm"] = [2, False, True]
        with pytest.raises(ValueError, match="base permutation of element 1"):
            serialize.rep_from_json(obj, rep.system)


class TestCocycleRoundTrip:
    def test_bit_exact(self):
        c = sigma_cocycle(3)
        obj = through_json(serialize.cocycle_to_json(c))
        back = serialize.cocycle_from_json(obj, sigma_system(3))
        for g in range(3):
            for x in range(3):
                assert np.array_equal(back.u[g][x], c.u[g][x])


class TestMultiplierRoundTrip:
    def test_bit_exact(self, z3_cycle, rng):
        for t in random_multiplier_suite(z3_cycle, 4, rng):
            obj = through_json(serialize.multiplier_to_json(t))
            back = serialize.multiplier_from_json(obj, z3_cycle)
            assert multiplier_distance(back, t) == 0.0
            for g in range(3):
                assert np.array_equal(back.mats[g], t.mats[g])


def reference_rep_json(rep) -> dict:
    """:func:`serialize.rep_to_json` with every matrix encoded entry by entry."""
    action, n = rep.system.action, rep.module.n_points
    return {
        "fiberDims": list(rep.module.fiber_dims),
        "rho": [[reference_matrix_to_json(gen.blocks[x]) for x in range(n)] for gen in rep.rho],
        "v": {
            str(g): {
                "srcPerm": [action.apply_inv(g, x) for x in range(n)],
                "mats": [reference_matrix_to_json(rep.v_mats[g][x]) for x in range(n)],
            }
            for g in range(action.group.order)
        },
    }


def ragged_omega_rep(n: int):
    return direct_sum_reps([omega_example_rep(n, 0, 0), omega_example_rep(n, n - 1, 1), trivial_rep(omega_system(n))])


class TestMatrixEncoding:
    def test_text_equals_per_entry_encoding(self, rng):
        for rows, cols in [(0, 0), (0, 3), (2, 0), (1, 1), (3, 5), (5, 5)]:
            m = rng.normal(size=(rows, cols, 2)) * 10.0 ** rng.integers(-300, 300, size=(rows, cols, 2))
            if m.size:
                m[0, 0] = [-0.0, 5e-324]  # a negative zero and the smallest subnormal
                m[-1, -1] = [2.2250738585072014e-308 / 3, -0.0]
            m = m.view(complex)[..., 0]
            for given in (m, m.T, np.real(m)):
                assert json.dumps(serialize.matrix_to_json(given)) == json.dumps(reference_matrix_to_json(given))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_ragged_rep_text(self, n):
        rep = ragged_omega_rep(n)
        assert len(set(rep.module.fiber_dims)) > 1
        assert json.dumps(serialize.rep_to_json(rep)) == json.dumps(reference_rep_json(rep))
        c = CocycleRep(rep.system.action, rep.module, rep.v_stack)
        expected = {
            "fiberDims": list(c.module.fiber_dims),
            "u": {str(g): {str(x): reference_matrix_to_json(m) for x, m in enumerate(per)} for g, per in enumerate(c.u)},
        }
        assert json.dumps(serialize.cocycle_to_json(c)) == json.dumps(expected)

    def test_signed_zeros_in_rep_text(self):
        rep = sigma_example_rep(3)
        v = np.where(rep.v_stack == 0, complex(-0.0, -0.0), rep.v_stack)
        rep = EquivariantRep(rep.system, rep.module, rep.rho_stack, v)
        text = json.dumps(serialize.rep_to_json(rep))
        assert "[-0.0, -0.0]" in text and text == json.dumps(reference_rep_json(rep))


def per_entry_decode(obj):
    """The matrix of [re, im] pairs decoded one entry at a time."""
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in obj], dtype=complex)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestMatrixDecoding:
    def test_bit_exact_against_per_entry_decode(self, rng):
        for rows, cols in [(1, 1), (2, 2), (3, 5), (5, 5)]:
            m = rng.normal(size=(rows, cols, 2)) * 10.0 ** rng.integers(-300, 300, size=(rows, cols, 2))
            m[0, 0] = [-0.0, 5e-324]  # a negative zero and the smallest subnormal
            obj = through_json(m.tolist())
            out = serialize.matrix_from_json(obj, rows, cols)
            assert out.dtype == complex and out.shape == (rows, cols)
            assert np.array_equal(bits(out), bits(per_entry_decode(obj)))

    def test_negative_zero_round_trip(self, z2_trivial):
        m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 1.0]])
        back = serialize.matrix_from_json(through_json(serialize.matrix_to_json(m)), 2, 2)
        assert np.array_equal(bits(back), bits(m))
        vec = serialize.matrix_from_json(through_json(serialize.matrix_to_json(m[:1])), 1, None)[0]
        assert np.array_equal(bits(vec), bits(m[0]))
        obj = through_json({"0": serialize.matrix_to_json(m), "1": serialize.matrix_to_json(-m)})
        t = serialize.multiplier_from_json(obj, z2_trivial)
        assert np.array_equal(bits(t.stack), bits(np.stack([m, -m])))

    @pytest.mark.parametrize(
        "obj, rows, cols",
        [([], 0, 3), ([[], []], 2, 0), ([], 0, 0)],
        ids=["no-rows", "no-columns", "empty"],
    )
    def test_empty_matrices(self, obj, rows, cols):
        out = serialize.matrix_from_json(obj, rows, cols)
        assert out.shape == (rows, cols) and out.dtype == complex

    @pytest.mark.parametrize(
        "obj, rows, cols",
        [([[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]], 2, 2), ([[[]]], 0, 0), ([], 1, 1), ("12", 1, 1)],
        ids=["one-by-four-for-two-by-two", "nested-empty", "missing-rows", "digit-string"],
    )
    def test_wrong_shape_rejected(self, obj, rows, cols):
        with pytest.raises(ValueError, match="shape"):
            serialize.matrix_from_json(obj, rows, cols)


class TestLargeFiniteEntries:
    """A finite entry beyond ~1.3e154 overflows the sum of squares that the
    finiteness check forms first; that must stay silent."""

    def test_no_warning_and_value_kept(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = serialize.matrix_from_json([[[1e200, -1e300], [0.0, 0.0]]], 1, 2)
        assert out[0, 0] == complex(1e200, -1e300)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_still_rejected(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite number"):
                serialize.matrix_from_json([[[1e200, 0.0], [value, 0.0]]], 1, 2)

    def test_pd_command_under_warnings_as_errors(self, z2_trivial):
        mats = {"0": serialize.matrix_to_json(np.diag([1e200, 1.0])), "1": serialize.matrix_to_json(np.zeros((2, 2)))}
        payload = {"system": serialize.system_to_json(z2_trivial), "multiplier": mats}
        r = subprocess.run(
            [sys.executable, "-W", "error", "-m", "cstardyn.cli", "pd", "--inline", json.dumps(payload), "--trials", "5"],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0, r.stderr
        assert "Warning" not in r.stderr
