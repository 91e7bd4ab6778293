"""The padded stacks as the one store of representations and cocycles.

The oracles here are the former code paths: the per-(g, x) stacking loop and
the per-matrix payload decoder.  Decoded stacks and their views must equal
them bit for bit (compared as integers, so the sign of a zero counts).
"""

import contextlib
import io
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from cstardyn import cli, fibers, serialize
from cstardyn.cocycle import CocycleRep
from cstardyn.core import FiniteSpace, GroupAction, System, symmetric_group
from cstardyn.cyclic_examples import (
    omega_cocycle,
    omega_example_rep,
    omega_system,
    sigma_cocycle,
    sigma_example_rep,
)
from cstardyn.equivrep import EquivariantRep, direct_sum_reps, gns_from_pd
from cstardyn.generators import (
    assorted_small_systems,
    random_constant_rep,
    random_equivariant_rep,
    random_unitary,
    random_vector,
    standard_systems,
)
from cstardyn.hilbmod import SectionalModule
from cstardyn.multiplier import coefficient, unit_multiplier

from oracles import identity_pullback


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(bits(a), bits(b))


def through_json(obj):
    return json.loads(json.dumps(obj))


def reference_stack(action, dims, mats):
    """The former stacking loop: each matrix coerced and reshaped on its own,
    then copied into a zero-padded stack.  Returns both."""
    order, n = action.group.order, action.space.size
    stack = np.zeros((order, n, max(dims), max(dims)), dtype=complex)
    out = []
    for g in range(order):
        per_point = []
        for x in range(n):
            src = action.src[g, x]
            m = np.asarray(mats[g][x], dtype=complex).reshape(dims[x], dims[src])
            stack[g, x, : dims[x], : dims[src]] = m
            per_point.append(m)
        out.append(tuple(per_point))
    return tuple(out), stack


def reference_blocks(blocks, dims):
    stack = np.zeros((len(blocks), len(dims), max(dims), max(dims)), dtype=complex)
    for k, per_point in enumerate(blocks):
        for x, d in enumerate(dims):
            stack[k, x, :d, :d] = per_point[x]
    return stack


def reference_rep_from_json(obj, system):
    """The former decoder, one matrix at a time: (rho blocks, v matrices)."""
    dims = tuple(int(d) for d in obj["fiberDims"])
    src = system.action.src
    rho = [[serialize.matrix_from_json(gen[x], d, d) for x, d in enumerate(dims)] for gen in obj["rho"]]
    v = []
    for g in range(system.group.order):
        entry = obj["v"][str(g)]
        if [int(s) for s in entry["srcPerm"]] != src[g].tolist():
            raise ValueError(f"serialized base permutation of element {g} does not match the action")
        v.append([serialize.matrix_from_json(entry["mats"][x], dims[x], dims[s]) for x, s in enumerate(src[g])])
    return rho, v


def reference_cocycle_from_json(obj, system):
    dims = tuple(int(d) for d in obj["fiberDims"])
    src = system.action.src
    return [
        [serialize.matrix_from_json(obj["u"][str(g)][str(x)], dims[x], dims[s]) for x, s in enumerate(src[g])]
        for g in range(system.group.order)
    ]


def fixed_dim_cocycle(action, rng, dim=2):
    """A constant representation conjugated by one unitary per point."""
    pi = random_constant_rep(action.group, dim, rng)
    conj = [random_unitary(dim, rng) for _ in action.space.points()]
    u = tuple(
        tuple(conj[x] @ pi[g] @ conj[action.apply_inv(g, x)].conj().T for x in action.space.points())
        for g in action.group.elements()
    )
    return CocycleRep(action, SectionalModule(action.space, (dim,) * action.space.size), u)


def natural_action(k):
    perms = np.array(sorted(itertools.permutations(range(k))), dtype=np.intp)
    return System(GroupAction(symmetric_group(k), FiniteSpace(k), perms))


def rep_cases():
    cases = [
        (f"omega_{n}/{k}/{l}", omega_example_rep(n, k, l))
        for n in range(2, 7)
        for k, l in ((0, 0), (n - 1, 0), (1, n - 1))
    ]
    cases.append(("omega_4/1/2", omega_example_rep(4, 1, 2)))
    summands = [omega_example_rep(3, 0, 1), omega_example_rep(3, 2, 2), omega_example_rep(3, 2, 0)]
    cases.append(("omega_3/sum", direct_sum_reps(summands)))
    cases += [(f"sigma_{n}", sigma_example_rep(n)) for n in range(2, 7)]
    rng = np.random.default_rng(5)
    for i, system in enumerate(assorted_small_systems()):
        rep = random_equivariant_rep(system, rng, max_dim=2)
        cases.append((f"gns/{i}", gns_from_pd(coefficient(rep, *(random_vector(rep.module, rng),) * 2))[0]))
    for name, system in standard_systems().items():
        cases.append((f"random/{name}", random_equivariant_rep(system, rng, max_dim=3)))
    systems = assorted_small_systems() + [natural_action(4)]
    cases += [(f"seeded/{i}", identity_pullback(fixed_dim_cocycle(s.action, rng))) for i, s in enumerate(systems)]
    return cases


def cocycle_cases():
    cases = [(f"omega_{n}/{k}", omega_cocycle(n, k)) for n in range(2, 7) for k in (0, n - 1)]
    cases += [(f"sigma_{n}", sigma_cocycle(n)) for n in range(2, 7)]
    rng = np.random.default_rng(6)
    systems = assorted_small_systems() + [natural_action(4)]
    cases += [(f"seeded/{i}", fixed_dim_cocycle(s.action, rng)) for i, s in enumerate(systems)]
    return cases


REPS = rep_cases()
COCYCLES = cocycle_cases()


class TestDecodeIntoStacks:
    @pytest.mark.parametrize("name, rep", REPS, ids=[name for name, _ in REPS])
    def test_rep_matches_per_matrix_decoder(self, name, rep):
        system, dims = rep.system, rep.module.fiber_dims
        obj = through_json(serialize.rep_to_json(rep))
        back = serialize.rep_from_json(obj, system)
        rho, v = reference_rep_from_json(obj, system)
        v_mats, v_stack = reference_stack(system.action, dims, v)
        assert same_bits(back.v_stack, v_stack) and same_bits(back.v_stack, rep.v_stack)
        assert same_bits(back.rho_stack, reference_blocks(rho, dims)) and same_bits(back.rho_stack, rep.rho_stack)
        for g, x in itertools.product(range(system.group.order), range(system.n_points)):
            assert same_bits(back.v_mats[g][x], v_mats[g][x])
        for k, x in itertools.product(range(system.n_points), repeat=2):
            assert same_bits(back.rho[k].blocks[x], rho[k][x])

    @pytest.mark.parametrize("name, c", COCYCLES, ids=[name for name, _ in COCYCLES])
    def test_cocycle_matches_per_matrix_decoder(self, name, c):
        system, dims = System(c.action), c.module.fiber_dims
        obj = through_json(serialize.cocycle_to_json(c))
        back = serialize.cocycle_from_json(obj, system)
        u, u_stack = reference_stack(c.action, dims, reference_cocycle_from_json(obj, system))
        assert same_bits(back.u_stack, u_stack) and same_bits(back.u_stack, c.u_stack)
        for g, x in itertools.product(range(system.group.order), range(system.n_points)):
            assert same_bits(back.u[g][x], u[g][x])

    def test_zero_dimensional_fibers(self):
        rep = omega_example_rep(4, 1, 2)
        assert rep.module.fiber_dims == (0, 4, 0, 0)
        back = serialize.rep_from_json(through_json(serialize.rep_to_json(rep)), rep.system)
        assert back.v_mats[0][0].shape == (0, 0) and back.v_mats[3][1].shape == (4, 4)
        assert same_bits(back.v_stack, rep.v_stack)

    @pytest.mark.parametrize(
        "make", [lambda: sigma_example_rep(3), lambda: omega_example_rep(3, 1, 0)], ids=["uniform", "ragged"]
    )
    def test_negative_zero_survives(self, make):
        rep = make()
        obj = through_json(serialize.rep_to_json(rep))
        k = rep.module.fiber_dims.index(3)
        obj["v"]["1"]["mats"][k][0][1] = [-0.0, -0.0]
        obj["rho"][2][k][2][2] = [-0.0, 0.0]
        back = serialize.rep_from_json(obj, rep.system)
        assert same_bits(back.v_stack[1, k, 0, 1], np.array(complex(-0.0, -0.0)))
        assert same_bits(back.rho_stack[2, k, 2, 2], np.array(complex(-0.0, 0.0)))
        _, v = reference_rep_from_json(obj, rep.system)
        _, v_stack = reference_stack(rep.system.action, rep.module.fiber_dims, v)
        assert same_bits(back.v_stack, v_stack)

    @pytest.mark.parametrize(
        "make, conversions",
        [(lambda: sigma_example_rep(4), 3), (lambda: omega_example_rep(4, 1, 2), 6)],
        ids=["uniform", "ragged"],
    )
    def test_one_conversion_per_shape_class(self, make, conversions, monkeypatch):
        """rho, v and the cocycle of a uniform payload convert once each; in
        the omega payload each has two shape classes, (0, 0) and (4, 4)."""
        rep = make()
        system = rep.system
        c = CocycleRep(system.action, rep.module, rep.v_stack)
        rep_obj, c_obj = through_json(serialize.rep_to_json(rep)), through_json(serialize.cocycle_to_json(c))
        calls = []
        real = serialize._complex_array
        monkeypatch.setattr(serialize, "_complex_array", lambda obj, shape: calls.append(shape) or real(obj, shape))
        serialize.rep_from_json(rep_obj, system)
        serialize.cocycle_from_json(c_obj, system)
        assert len(calls) == conversions


class TestDecodeErrors:
    """A bad payload raises what the per-matrix decoder raised."""

    def reference_error(self, decode, obj, system):
        with pytest.raises(Exception) as ref:
            decode(obj, system)
        return ref.value

    def cases(self):
        for make in (lambda: sigma_example_rep(3), lambda: omega_example_rep(4, 1, 2)):
            rep = make()
            yield rep, through_json(serialize.rep_to_json(rep))

    def mutations(self, rep):
        n = rep.module.n_points
        big = rep.module.fiber_dims.index(max(rep.module.fiber_dims))
        other = (big + 1) % n

        def shape(obj):
            obj["v"]["2"]["mats"][big] = obj["v"]["2"]["mats"][big][:-1]

        def empty_class(obj):
            obj["v"]["1"]["mats"][other] = [[[1.0, 0.0]]]

        def rho_shape(obj):
            obj["rho"][1][big] = [[[1.0, 0.0]]]

        def src(obj):
            obj["v"]["2"]["srcPerm"] = obj["v"]["2"]["srcPerm"][::-1]

        def src_after_shape(obj):
            src(obj)
            obj["v"]["1"]["mats"][big] = [[[1.0, 0.0]]]

        def shape_after_src(obj):
            obj["v"]["1"]["srcPerm"] = [0] * n
            shape(obj)

        def non_finite(obj):
            obj["v"]["2"]["mats"][big][0][0] = [float("nan"), 0.0]

        return [shape, empty_class, rho_shape, src, src_after_shape, shape_after_src, non_finite]

    def test_same_error_as_per_matrix_decoder(self):
        checked = 0
        for rep, clean in self.cases():
            for mutate in self.mutations(rep):
                obj = json.loads(json.dumps(clean))
                mutate(obj)
                if mutate.__name__ == "src" and rep.system.action.src[2].tolist() == obj["v"]["2"]["srcPerm"]:
                    continue  # a trivial action reads the same reversed
                ref = self.reference_error(reference_rep_from_json, obj, rep.system)
                with pytest.raises(type(ref)) as got:
                    serialize.rep_from_json(obj, rep.system)
                assert str(got.value) == str(ref), mutate.__name__
                checked += 1
        assert checked >= 12

    def test_cli_exit_two_with_message(self):
        rep = omega_example_rep(4, 1, 2)
        payload = {"system": serialize.system_to_json(rep.system), "equivariant_rep": serialize.rep_to_json(rep)}
        for mutate, message in (
            (
                lambda o: o["v"]["3"]["mats"].__setitem__(0, [[[1.0, 0.0]]]),
                "payload holds an array of shape (1, 1, 2), expected (0, 0)",
            ),
            (
                lambda o: o["v"]["2"].__setitem__("srcPerm", [0, 1, 3, 2]),
                "serialized base permutation of element 2 does not match the action",
            ),
        ):
            obj = json.loads(json.dumps(payload))
            mutate(obj["equivariant_rep"])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["verify", "--inline", json.dumps(obj)])
            assert code == 2 and out.getvalue() == ""
            assert message in err.getvalue()

    @staticmethod
    def retyped_src_perm(g: str, cast):
        """Base permutation g with every entry passed through ``cast``."""
        return lambda o: o["v"][g].update(srcPerm=[cast(s) for s in o["v"][g]["srcPerm"]])

    @pytest.mark.parametrize(
        "make", [lambda: sigma_example_rep(3), lambda: omega_example_rep(4, 1, 2)], ids=["uniform", "ragged"]
    )
    @pytest.mark.parametrize(
        "mutate, message",
        [
            # numbers that int() truncates to the action's permutation
            pytest.param(retyped_src_perm("1", lambda s: s + 0.7), "element 1 does not match", id="float-src-perm"),
            pytest.param(retyped_src_perm("2", str), "element 2 does not match", id="digit-string-src-perm"),
            pytest.param(lambda o: o["v"]["1"]["mats"].append(None), "expected", id="mats-trailing-none"),
            pytest.param(lambda o: o["v"]["2"]["mats"].append("anything"), "expected", id="mats-trailing-string"),
            pytest.param(lambda o: o["rho"][0].append(None), "expected", id="rho-trailing-none"),
            pytest.param(lambda o: o["rho"][1].append("anything"), "expected", id="rho-trailing-string"),
        ],
    )
    def test_loose_payload_refused(self, make, mutate, message):
        """Base permutations of anything but the action's integers, and
        matrices past the last point, are payload errors: exit 2."""
        rep = make()
        obj = through_json(serialize.rep_to_json(rep))
        mutate(obj)
        with pytest.raises(ValueError, match=message):
            serialize.rep_from_json(obj, rep.system)
        payload = {"system": serialize.system_to_json(rep.system), "equivariant_rep": obj}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--inline", json.dumps(payload)])
        assert code == 2 and out.getvalue() == "" and message in err.getvalue()


class TestOneStore:
    def test_views_read_only_shared_and_kept(self):
        rep = omega_example_rep(3, 1, 0)
        c = sigma_cocycle(3)
        for stack, views in ((rep.v_stack, rep.v_mats), (c.u_stack, c.u)):
            assert not stack.flags.writeable
            for per_point in views:
                for m in per_point:
                    assert not m.flags.writeable
                    assert m.size == 0 or np.shares_memory(m, stack)
        assert rep.v_mats is rep.v_mats and c.u is c.u and rep.rho is rep.rho
        for gen in serialize.rep_from_json(through_json(serialize.rep_to_json(rep)), rep.system).rho:
            assert all(not b.flags.writeable for b in gen.blocks)
        t = unit_multiplier(omega_system(3))
        assert t.mats is t.mats and all(not m.flags.writeable for m in t.mats)
        with pytest.raises(ValueError):
            rep.v_mats[0][1][0, 0] = 2.0

    @pytest.mark.parametrize(
        "make", [lambda: sigma_example_rep(3), lambda: omega_example_rep(4, 1, 2)], ids=["uniform", "ragged"]
    )
    def test_padded_and_nested_input_agree(self, make):
        rep = make()
        nested = EquivariantRep(rep.system, rep.module, rep.rho, rep.v_mats)
        padded = EquivariantRep(rep.system, rep.module, np.array(rep.rho_stack), np.array(rep.v_stack))
        for other in (nested, padded):
            assert same_bits(other.v_stack, rep.v_stack) and same_bits(other.rho_stack, rep.rho_stack)
        c = CocycleRep(rep.system.action, rep.module, np.array(rep.v_stack))
        assert same_bits(c.u_stack, rep.v_stack)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_group_part_wraps_the_same_stack(self, n):
        """Stacks built from broadcast inputs are stored in C order, so
        reading the group part as a cocycle holds v's stack, not a copy."""
        rep, c = sigma_example_rep(n), sigma_cocycle(n)
        for stack in (rep.rho_stack, rep.v_stack, c.u_stack):
            assert stack.flags.c_contiguous
        assert CocycleRep(rep.system.action, rep.module, rep.v_stack).u_stack is rep.v_stack
        assert EquivariantRep(rep.system, rep.module, rep.rho_stack, c.u_stack).v_stack is c.u_stack

    def test_padded_input_checked(self):
        rep = omega_example_rep(4, 1, 2)
        dirty = np.array(rep.v_stack)
        dirty[1, 0, 3, 3] = 1.0  # fiber 0 is zero dimensional
        with pytest.raises(ValueError, match="nonzero entries outside"):
            EquivariantRep(rep.system, rep.module, rep.rho_stack, dirty)
        with pytest.raises(ValueError, match="padded stack has shape"):
            CocycleRep(rep.system.action, rep.module, np.zeros((4, 4, 3, 3)))

    def test_decoded_s5_rep_holds_one_copy(self):
        rng = np.random.default_rng(3)
        system = natural_action(5)
        rep = identity_pullback(fixed_dim_cocycle(system.action, rng))
        obj = through_json(serialize.rep_to_json(rep))
        del rep
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            back = serialize.rep_from_json(obj, system)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        held = back.v_stack.nbytes + back.rho_stack.nbytes
        assert retained <= 1.2 * held


class TestIntertwiningResidual:
    """The blocked residual equals the whole-array expression it replaced."""

    def stacks(self, rng, count=5, n=4, r=3, c=2):
        def gauss(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        return gauss(n, r, c), gauss(count, n, c, c), gauss(count, n, r, r), rng.integers(0, n, size=(count, n))

    @pytest.mark.parametrize("budget", [1, fibers.BLOCK_ELEMENTS], ids=["one-element", "default"])
    @pytest.mark.parametrize("poison", [False, True], ids=["finite", "nan"])
    def test_matches_whole_array(self, rng, monkeypatch, budget, poison):
        monkeypatch.setattr(fibers, "BLOCK_ELEMENTS", budget)
        w, a, b, src = self.stacks(rng)
        if poison:
            a[3, 1, 0, 1] = np.nan
        for got, want in (
            (fibers.intertwining_residual(w, a, b), fibers.entry_max(w @ a - b @ w)),
            (fibers.intertwining_residual(w, a, b, src), fibers.entry_max(w @ a - b @ w[src])),
        ):
            assert got.shape == (5, 4)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.isnan(got).sum() == (1 if poison else 0)
            assert not poison or np.isnan(got[3, 1])
