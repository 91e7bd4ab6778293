import importlib.util
import itertools
import math
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstardyn import core
from cstardyn.numutil import psd_check, scale
from cstardyn.core import (
    FiniteGroup,
    GroupAction,
    FiniteSpace,
    System,
    cyclic_group,
    cyclic_shift_action,
    symmetric_action,
    symmetric_group,
    trivial_action,
)
from oracles import act_on_algebra, direct_product, is_psd


class TestFiniteGroup:
    def test_trivial_group(self):
        g = cyclic_group(1)
        assert g.order == 1
        assert g.mult.tolist() == [[0]]

    def test_order_two_table(self):
        g = cyclic_group(2)
        assert g.mul(1, 1) == 0

    def test_modular_addition(self):
        g = cyclic_group(4)
        assert g.mul(3, 2) == 1

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            cyclic_group(0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cyclic_axioms_exhaustive(self, n):
        g = cyclic_group(n)  # construction scans associativity/identity/inverses
        assert g.identity == 0
        for a in g.elements():
            assert g.mul(a, int(g.inverse[a])) == g.identity

    def test_symmetric_group_and_product(self):
        s3 = symmetric_group(3)
        assert s3.order == 6
        prod = direct_product(cyclic_group(2), cyclic_group(3))
        assert prod.order == 6
        # Z_2 x Z_3 is abelian, S_3 is not
        assert any(s3.mul(a, b) != s3.mul(b, a) for a in s3.elements() for b in s3.elements())
        assert all(
            prod.mul(a, b) == prod.mul(b, a) for a in prod.elements() for b in prod.elements()
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_table_matches_loop(self, n):
        """The table equals the composition loop it replaced."""
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        expected = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
        table = symmetric_group(n).mult
        assert table.dtype == np.intp and table.tolist() == expected

    def test_symmetric_action_is_lexicographic(self, monkeypatch):
        """Element i acts as the i-th permutation in lexicographic order, and
        S_3..S_5 equal the natural actions the benchmark builds by hand."""
        for m in range(1, 7):
            perm = symmetric_action(m).perm.tolist()
            # m! rows of permutations, strictly increasing: each one once, in order
            assert len(perm) == math.factorial(m) and all(sorted(p) == list(range(m)) for p in perm)
            assert all(p < q for p, q in zip(perm, perm[1:]))
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        for k in (3, 4, 5):
            assert System(symmetric_action(k)) == workloads.natural_action(k)

    @pytest.mark.parametrize("budget", [1, 2**18])
    def test_symmetric_table_in_blocks(self, budget, monkeypatch):
        reference = symmetric_group(4).mult
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", budget)
        assert np.array_equal(symmetric_group(4).mult, reference)

    @pytest.mark.parametrize(
        "pair", [(1, "s3"), ("s3", 4), (2, 3), ("s3", "s3")], ids=["1xS3", "S3xZ4", "Z2xZ3", "S3xS3"]
    )
    def test_direct_product_matches_loop(self, pair):
        g1, g2 = (symmetric_group(3) if g == "s3" else cyclic_group(g) for g in pair)
        o2 = g2.order
        expected = np.empty((g1.order * o2,) * 2, dtype=np.intp)
        for a1, b1, a2, b2 in itertools.product(range(g1.order), range(o2), range(g1.order), range(o2)):
            expected[a1 * o2 + b1, a2 * o2 + b2] = g1.mult[a1, a2] * o2 + g2.mult[b1, b2]
        assert np.array_equal(direct_product(g1, g2).mult, expected)

    def test_inverse_failure_located(self):
        # identity 0; 1 * 2 = 0 but 2 * 1 = 2, so element 1 has no two-sided inverse
        with pytest.raises(ValueError, match="element 1 has no two-sided inverse"):
            FiniteGroup(3, np.array([[0, 1, 2], [1, 1, 0], [2, 2, 2]]))
        with pytest.raises(ValueError, match="no two-sided identity"):
            FiniteGroup(2, np.array([[1, 0], [0, 0]]))

    def test_broken_table_rejected(self):
        bad = np.array([[0, 1], [1, 1]])
        with pytest.raises(ValueError):
            FiniteGroup(2, bad)


    def test_s6_validation_memory(self):
        """Associativity is checked in row blocks: validating the 720 x 720
        table of S_6 stays under 64 MB (two whole |G|^3 index arrays would
        take 3 GB each)."""
        perms = np.array(list(itertools.permutations(range(6))), dtype=np.intp)
        code = perms @ 6 ** np.arange(6)
        index = np.full(6**6, -1, dtype=np.intp)
        index[code] = np.arange(len(perms))
        composed = perms[:, perms]  # composed[p, q, x] = p(q(x))
        table = index[composed @ 6 ** np.arange(6)]
        del composed
        tracemalloc.start()
        try:
            group = FiniteGroup(720, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert group.identity == 0 and group.mul(5, int(group.inverse[5])) == 0
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("budget", [1, 2**18])
    def test_associativity_checked_in_every_block(self, budget, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", budget)
        # a loop of order 5 with identity and inverses that is not a group
        loop = np.array(
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        )
        with pytest.raises(ValueError, match="not associative"):
            FiniteGroup(5, loop)
        assert symmetric_group(4).order == 24


def scan_associative(mult: np.ndarray) -> bool:
    """The exhaustive oracle: (gh)k == g(hk) for every triple."""
    return np.array_equal(mult[mult], mult[:, mult])


def has_identity_and_inverses(mult: np.ndarray) -> bool:
    """Two-sided identity and two-sided inverses, checked entry by entry."""
    order = len(mult)
    units = [e for e in range(order) if all(mult[e, g] == g == mult[g, e] for g in range(order))]
    if not units:
        return False
    e = units[0]
    return all(
        sum(mult[g, h] == e for h in range(order)) == 1
        and any(mult[g, h] == e == mult[h, g] for h in range(order))
        for g in range(order)
    )


def reduced_latin_squares(n: int) -> list[np.ndarray]:
    """Every Latin square of order n whose first row and column are 0..n-1."""
    perms = list(itertools.permutations(range(n)))
    out = []

    def extend(rows):
        if len(rows) == n:
            out.append(np.array(rows))
            return
        for p in perms:
            if p[0] == len(rows) and all(p[j] != r[j] for r in rows for j in range(n)):
                extend(rows + [p])

    extend([tuple(range(n))])
    return out


class TestLightAssociativity:
    def outcome(self, mult):
        try:
            FiniteGroup(len(mult), mult)
        except ValueError as exc:
            return str(exc)
        return "group"

    def test_generating_set_reaches_the_group(self):
        for group in (symmetric_group(4), direct_product(cyclic_group(2), symmetric_group(3)), cyclic_group(12)):
            gens = core._generating_set(group.mult, group.identity)
            assert len(gens) <= math.log2(group.order)
            reached, frontier = {group.identity}, [group.identity]
            while frontier:
                frontier = [group.mul(x, a) for x in frontier for a in gens if group.mul(x, a) not in reached]
                reached.update(frontier)
            assert len(reached) == group.order

    def test_generators_kept_read_only(self):
        for group in (symmetric_group(4), cyclic_group(12), cyclic_group(1)):
            assert group.generators.tolist() == core._generating_set(group.mult, group.identity)
            assert not group.generators.flags.writeable

    def test_agrees_with_scan_on_mutated_s3(self):
        s3 = symmetric_group(3)
        e = s3.identity
        structural = rejected = 0
        for r, c1, c2 in itertools.product(range(6), range(6), range(6)):
            if c1 >= c2 or (r == e) or e in (c1, c2):
                continue  # the swap would break the two-sided identity
            mult = s3.mult.copy()
            mult[r, [c1, c2]] = mult[r, [c2, c1]]
            got = self.outcome(mult)
            if has_identity_and_inverses(mult):
                structural += 1
                assert (got == "group") == scan_associative(mult)
                if got != "group":
                    rejected += 1
                    assert got == "multiplication table is not associative"
            else:
                assert got != "group"
        assert structural and rejected == structural

    def test_agrees_with_scan_on_reduced_latin_squares(self):
        squares = reduced_latin_squares(5)
        assert len(squares) == 56
        loops = 0
        for mult in squares:
            got = self.outcome(mult)
            if has_identity_and_inverses(mult):
                assert (got == "group") == scan_associative(mult)
                if not scan_associative(mult):
                    loops += 1
                    assert got == "multiplication table is not associative"
        assert loops == 2

    def test_s5_and_s6_tables_validate(self):
        for k in (5, 6):
            mult = symmetric_group(k).mult
            group = FiniteGroup(len(mult), mult.copy())
            assert group.identity == 0 and np.array_equal(group.mult, mult)


class TestEquality:
    def test_equal_but_distinct_objects(self):
        a, b = System(cyclic_shift_action(3)), System(cyclic_shift_action(3))
        assert a.action is not b.action and a.group is not b.group
        assert a == b and a.action == b.action and a.group == b.group

    def test_different_objects_differ(self):
        shift, trivial = System(cyclic_shift_action(3)), System(trivial_action(cyclic_group(3), 3))
        assert shift != trivial and shift.action != trivial.action and shift.group == trivial.group
        assert cyclic_group(3) != cyclic_group(4) and symmetric_group(3) != direct_product(cyclic_group(2), cyclic_group(3))

    def test_same_object_compares_no_tables(self, monkeypatch):
        system = System(cyclic_shift_action(3))

        def refuse(*args):
            raise AssertionError("tables compared for an object against itself")

        monkeypatch.setattr(np, "array_equal", refuse)
        assert system == system and system.action == system.action and system.group == system.group


class TestGroupAction:
    @pytest.mark.parametrize("budget", [1, 2**18])
    def test_homomorphism_failure_located(self, budget, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", budget)
        group = cyclic_group(4)
        shift = cyclic_shift_action(4).perm
        perm = shift.copy()
        perm[3] = shift[1]
        first = next(
            (g, h)
            for g in range(4)
            for h in range(4)
            if not np.array_equal(perm[group.mul(g, h)], perm[g][perm[h]])
        )
        assert first == (1, 2)
        with pytest.raises(ValueError, match=r"not a homomorphism at \(1, 2\)"):
            GroupAction(group, FiniteSpace(4), perm)
        perm[2] = [0, 0, 1, 2]
        with pytest.raises(ValueError, match=r"perm\[2\] is not a permutation"):
            GroupAction(group, FiniteSpace(4), perm)

    @pytest.mark.parametrize(
        "group,homomorphisms",
        [(cyclic_group(4), 4), (direct_product(cyclic_group(2), cyclic_group(2)), 10)],
        ids=["z4", "z2xz2"],
    )
    def test_generator_check_agrees_with_all_pairs(self, group, homomorphisms):
        # every table with perm[e] = id: checking the generators proves the
        # law for all pairs, and a failure names the first failing pair
        perms = list(itertools.permutations(range(3)))
        others = [g for g in range(group.order) if g != group.identity]
        accepted = 0
        for rows in itertools.product(perms, repeat=len(others)):
            perm = np.zeros((group.order, 3), dtype=np.intp)
            perm[group.identity] = range(3)
            perm[others] = rows
            failing = (
                (g, h)
                for g in range(group.order)
                for h in range(group.order)
                if not np.array_equal(perm[group.mul(g, h)], perm[g][perm[h]])
            )
            first = next(failing, None)
            if first is None:
                GroupAction(group, FiniteSpace(3), perm)
                accepted += 1
            else:
                with pytest.raises(ValueError, match=rf"not a homomorphism at \({first[0]}, {first[1]}\)$"):
                    GroupAction(group, FiniteSpace(3), perm)
        assert accepted == homomorphisms

    def test_valid_action_scans_no_pairs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("all pairs scanned for a homomorphism")

        monkeypatch.setattr(np, "take_along_axis", refuse)
        assert symmetric_action(5).perm.shape == (120, 5)

    def test_source_table(self):
        act = symmetric_action(3)
        for g in range(6):
            for x in range(3):
                assert act.apply(g, act.src[g, x]) == x == act.apply(g, act.apply_inv(g, x))

    def test_non_homomorphism_rejected(self):
        g = cyclic_group(2)
        with pytest.raises(ValueError, match="identity"):
            GroupAction(g, FiniteSpace(2), np.array([[1, 0], [0, 1]]))

    def test_act_trivial_fixes(self):
        act = trivial_action(cyclic_group(3), 2)
        a = np.array([1.0, 2.0j])
        for g in range(3):
            assert np.array_equal(act_on_algebra(act, g, a), a)

    def test_act_flip(self):
        act = cyclic_shift_action(2)
        assert np.allclose(act_on_algebra(act, 1, np.array([1.0, 5.0])), [5.0, 1.0])

    def test_act_cycle(self):
        act = cyclic_shift_action(3)
        assert np.allclose(act_on_algebra(act, 1, np.array([7.0, 8.0, 9.0])), [9.0, 7.0, 8.0])

    def test_length_mismatch(self):
        act = cyclic_shift_action(2)
        with pytest.raises(ValueError):
            act_on_algebra(act, 0, np.array([1.0, 2.0, 3.0]))

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=25, deadline=None)
    def test_action_is_multiplicative(self, n, data):
        act = cyclic_shift_action(n)
        g = data.draw(st.integers(0, n - 1))
        h = data.draw(st.integers(0, n - 1))
        a = np.array(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)), dtype=complex)
        lhs = act_on_algebra(act, g, act_on_algebra(act, h, a))
        rhs = act_on_algebra(act, act.group.mul(g, h), a)
        assert np.array_equal(lhs, rhs)

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=25, deadline=None)
    def test_action_preserves_norm_and_product(self, n, data):
        act = cyclic_shift_action(n)
        g = data.draw(st.integers(0, n - 1))
        draw_vec = lambda: np.array(  # noqa: E731
            data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)), dtype=complex
        )
        a, b = draw_vec(), draw_vec()
        assert np.abs(act_on_algebra(act, g, a)).max(initial=0) == np.abs(a).max(initial=0)
        lhs = act_on_algebra(act, g, a * b)
        rhs = act_on_algebra(act, g, a) * act_on_algebra(act, g, b)
        assert np.array_equal(lhs, rhs)


def _charpoly_eigs(m: np.ndarray) -> np.ndarray:
    """Independent eigenvalue oracle: roots of the characteristic polynomial
    assembled from trace and determinant identities (sizes up to 3)."""
    d = m.shape[0]
    if d == 1:
        return np.array([m[0, 0]])
    t = np.trace(m)
    if d == 2:
        det = np.linalg.det(m)
        return np.roots([1.0, -t, det])
    t2 = np.trace(m @ m)
    det = np.linalg.det(m)
    c2 = (t * t - t2) / 2.0
    return np.roots([1.0, -t, c2, -det])


class TestIsPsd:
    def test_simple_true(self):
        assert is_psd(np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_simple_false(self):
        assert not is_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_gram_matrices(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 5))
            b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert is_psd(b.conj().T @ b)

    def test_zero_matrix_exact(self):
        zero = np.zeros((3, 3))
        assert is_psd(zero)
        assert psd_check(zero, scale(zero), 0.0)[1]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_psd(np.zeros((2, 3)))

    def test_nan_rejected(self):
        m = np.full((2, 2), np.nan)
        with pytest.raises(ValueError):
            is_psd(m)

    def test_non_hermitian_rejected(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        assert not is_psd(m)
        hermitian, _, _, _ = psd_check(m, 1.0 + np.abs(m).max(), 1e-9)
        assert not hermitian

    def test_agrees_with_charpoly_oracle(self, rng):
        for _ in range(60):
            d = int(rng.integers(1, 4))
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (a + a.conj().T) / 2
            roots = np.sort(_charpoly_eigs(h).real)
            oracle = roots[0] >= -1e-9 * (1 + np.abs(h).max())
            assert is_psd(h) == oracle
