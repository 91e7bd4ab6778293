"""The one tolerance rule: a residual passes when it is at most
``tol * numutil.scale(data judged)``, ``scale`` being ``1 + max|entry|``.

The guard tests read the source: no module but ``numutil`` forms a scale
itself, and ``1e-9`` is written only where ``DEFAULT_TOL`` is defined.  The
boundary tests put a residual of half and of twice ``DEFAULT_TOL * scale``
into each report and each operation that judges against ``DEFAULT_TOL``,
times the factor the operation states (a trace's dimension, GNS's |G| n):
the first passes, the second fails.  Each expected scale is computed here,
independently of ``numutil.scale``.
"""

import ast
import contextlib
import dataclasses
import io
import json
import math
import pathlib

import numpy as np
import pytest

from cstardyn import cli, equivrep, fibers, hilbmod, multiplier
from cstardyn.cocycle import CocycleRep, NotBanachStoneError, banach_stone_extract, cocycle_equivalent, verify_cocycle
from cstardyn.core import DEFAULT_TOL, FiniteSpace
from cstardyn.crossed import CovariantRep, NotInAlgebraError, build_reduced, fourier_coefficients
from cstardyn.crossed import regular_covariant, verify_covariant
from cstardyn.cyclic_examples import omega_system, sigma_example_rep, sigma_system
from cstardyn.equivrep import EquivariantRep, fell_absorption_unitary, gns_from_pd, unitarily_equivalent, verify_equivariant
from cstardyn.hilbmod import NotAModuleError, SectionalModule, sectionalize, trivial_module
from cstardyn.multiplier import Multiplier, unit_multiplier
from cstardyn.numutil import scale

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cstardyn"

# calls whose result is a magnitude: 1 plus one of them is a scale
MAGNITUDES = {"abs", "max_abs", "max_abs_over", "op_norm_inf", "norm", "module_norm"}


def scale_forms(package: pathlib.Path) -> list[str]:
    """``file:line`` of every sum, outside ``numutil``, of the float 1.0 and
    anything, or of the integer 1 and an expression that calls a magnitude."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "numutil":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
                continue
            for one, other in ((node.left, node.right), (node.right, node.left)):
                if not (isinstance(one, ast.Constant) and type(one.value) in (int, float) and one.value == 1):
                    continue
                called = {
                    call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
                    for call in ast.walk(other)
                    if isinstance(call, ast.Call)
                }
                if isinstance(one.value, float) or called & MAGNITUDES:
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_numutil_forms_a_scale():
    assert scale_forms(PACKAGE) == []


def test_default_tol_is_the_only_1e_9():
    """``1e-9`` appears, as text or as a number, only in the definition of
    ``DEFAULT_TOL``."""
    lines, numbers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines += [(path.name, line.strip()) for line in text.splitlines() if "1e-9" in line.lower()]
        numbers += [
            (path.name, node.lineno)
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-9
        ]
    assert lines == [("core.py", "DEFAULT_TOL = 1e-9")]
    assert len(numbers) == 1


class TestScale:
    def test_one_plus_largest_modulus(self):
        assert scale(np.array([[3 - 4j, 1.0]])) == 6.0
        assert scale(np.array([-2.0]), np.array([[1j, 0.5]])) == 3.0

    def test_no_entries_is_one(self):
        assert scale() == 1.0
        assert scale(np.zeros((0, 3))) == 1.0
        assert scale(np.zeros((2, 0, 0)), axis=(1, 2)).tolist() == [1.0, 1.0]

    def test_per_index_along_axis(self):
        blocks = np.arange(8.0).reshape(2, 2, 2) * np.array([1, -1])
        assert scale(blocks, axis=(1, 2)).tolist() == [4.0, 8.0]
        assert scale(blocks, np.full((2, 1, 1), 5.0), axis=(1, 2)).tolist() == [6.0, 8.0]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(math.inf, 0)])
    def test_non_finite_entry_gives_nan(self, value):
        assert math.isnan(scale(np.array([1.0, value])))
        assert math.isnan(scale(np.ones(2), np.array([value])))
        per_index = scale(np.array([[1.0, value], [2.0, 0.0]]), axis=1)
        assert math.isnan(per_index[0]) and per_index[1] == 3.0

    def test_same_floats_as_the_formula(self, rng):
        blocks = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        assert np.array_equal(scale(blocks, axis=(1, 2)), 1.0 + np.abs(blocks).max(axis=(1, 2)))
        assert scale(blocks) == 1.0 + np.abs(blocks).max()


def magnitude(*arrays) -> float:
    return 1.0 + max(float(np.abs(a).max()) for a in arrays)


# Each case builds its object with its largest residual r (up to terms of
# order r^2) and returns the report and the scale of that object.


def equivariant_case(r):
    """The trivial representation of the flip with rho(e_0) at fiber 0 set
    to 1 + r: rho unital and multiplicative miss by r."""
    system = sigma_system(2)
    rho = np.eye(2, dtype=complex)[:, :, None, None]
    rho[0, 0] += r
    v = np.ones((2, 2, 1, 1), dtype=complex)
    rep = EquivariantRep(system, trivial_module(system.space), rho, v)
    return verify_equivariant(rep), magnitude(rho, v)


def cocycle_case(r):
    """The trivial cocycle of the flip with u(0, e) = exp(ir): u(x, e) = 1
    and the cocycle identity miss by 2 sin(r / 2)."""
    action = sigma_system(2).action
    u = np.ones((2, 2, 1, 1), dtype=complex)
    u[action.group.identity, 0] = np.exp(1j * 2 * math.asin(r / 2))
    c = CocycleRep(action, SectionalModule(action.space, (1, 1)), u)
    return verify_cocycle(c), magnitude(u)


def covariant_case(r):
    """The regular pair of the flip with pi(e_0) scaled by 1 + r."""
    reg = regular_covariant(sigma_system(2))
    pi = ((1 + r) * reg.pi_mats[0], *reg.pi_mats[1:])
    return verify_covariant(CovariantRep(reg.system, reg.dim, pi, reg.u_mats)), magnitude(*pi, *reg.u_mats)


def absorption_case(r, monkeypatch):
    """sigma_2's example representation, with one entry of the tensor
    product's quotient inverse scaled by 1 + r / 2: W misses being an
    isometry by r."""
    real_tensor_rep = equivrep.tensor_rep

    def scaled(r1, r2):
        trep, tp = real_tensor_rep(r1, r2)
        pinv = tp.piece_pinv.copy()
        assert abs(pinv[0, 0, 0, 0]) == 1.0
        pinv[0, 0, 0, 0] *= 1 + r / 2
        return trep, dataclasses.replace(tp, piece_pinv=pinv)

    monkeypatch.setattr(equivrep, "tensor_rep", scaled)
    rep = sigma_example_rep(2)
    return fell_absorption_unitary(rep)[1], magnitude(rep.rho_stack, rep.v_stack)


REPORTS = {
    "verify_equivariant": equivariant_case,
    "verify_cocycle": cocycle_case,
    "verify_covariant": covariant_case,
    "fell_absorption_unitary": absorption_case,
}


@pytest.mark.parametrize("factor", [0.5, 2.0], ids=["half", "twice"])
@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bound(name, factor, monkeypatch):
    def build(r):
        if name == "fell_absorption_unitary":
            return REPORTS[name](r, monkeypatch)
        return REPORTS[name](r)

    _, size = build(0.0)
    r = factor * DEFAULT_TOL * size
    report, size = build(r)
    assert report.worst().residual == pytest.approx(r, rel=1e-6)
    # every check reports the bound it applied; the dimension match is an integer check
    assert {c.tol for c in report.checks if c.name != "dimension match"} == {DEFAULT_TOL * size}
    assert report.passed is (factor < 1)


def module_data(r):
    """C^2 over two points with L[0] = diag(1 + r, 0): e_0 acts as an
    idempotent, and sums to one, up to r."""
    L = np.array([np.diag([1.0 + r, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    return L, np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)


@pytest.mark.parametrize("factor", [0.5, 2.0], ids=["half", "twice"])
def test_sectionalize_bound(factor):
    size = magnitude(module_data(0.0)[0])
    L, G = module_data(factor * DEFAULT_TOL * size)
    assert magnitude(L) == pytest.approx(size)
    if factor < 1:
        assert sectionalize(FiniteSpace(2), L, G).module.fiber_dims == (1, 1)
    else:
        with pytest.raises(NotAModuleError, match="idempotent"):
            sectionalize(FiniteSpace(2), L, G)


@pytest.mark.parametrize("factor", [0.5, 2.0], ids=["half", "twice"])
def test_fourier_coefficients_bound(factor):
    """The identity plus r at (0, 1), outside every basis support: its
    distance to the algebra is r."""
    rcp = build_reduced(sigma_system(2))
    m = np.eye(4, dtype=complex)
    m[0, 1] = factor * DEFAULT_TOL * magnitude(m)
    if factor < 1:
        assert np.array_equal(fourier_coefficients(rcp, m), [[1, 1], [0, 0]])
    else:
        with pytest.raises(NotInAlgebraError):
            fourier_coefficients(rcp, m)


@pytest.mark.parametrize("factor", [0.5, 2.0], ids=["half", "twice"])
def test_banach_stone_extract_bound(factor):
    """The identity of C^2 over two points plus r at (0, 1): the sections at
    point 1 also reach point 0, by r."""
    module = SectionalModule(FiniteSpace(2), (1, 1))
    v = np.eye(2, dtype=complex)
    v[0, 1] = factor * DEFAULT_TOL * magnitude(v)
    if factor < 1:
        sigma, _ = banach_stone_extract(v, module)
        assert sigma == (0, 1)
    else:
        with pytest.raises(NotBanachStoneError, match="not a single point"):
            banach_stone_extract(v, module)


@pytest.mark.parametrize("factor", [0.5, 2.0], ids=["half", "twice"])
def test_cocycle_equivalent_trace_bound(factor, monkeypatch):
    """Z_1 on one point with a fiber of dimension d = 2: u1(e) = 1 and
    u2(e) = (1 + r) 1, whose traces differ by d r against d times the bound.
    The intertwiner's residual is patched to zero, so the traces decide."""
    action = omega_system(1).action
    module = SectionalModule(action.space, (2,))
    u1 = np.eye(2, dtype=complex)[None, None]
    u2 = (1 + factor * DEFAULT_TOL * magnitude(u1)) * u1
    monkeypatch.setattr(fibers, "intertwining_residual", lambda w, a, b, src=None: np.zeros(a.shape[:2]))
    found = cocycle_equivalent(CocycleRep(action, module, u1), CocycleRep(action, module, u2))
    assert (found is not None) is (factor < 1)


@pytest.mark.parametrize("factor", [0.5, 2.0], ids=["half", "twice"])
def test_cocycle_equivalent_residual_bound(factor):
    """The trivial cocycle of the flip against a copy with u2(0, flip) =
    1 + r: the stabilizers are trivial, so the traces agree, and the
    intertwiner carried along the orbit misses by r at (0, flip)."""
    action = sigma_system(2).action
    module = SectionalModule(action.space, (1, 1))
    u1 = np.ones((2, 2, 1, 1), dtype=complex)
    u2 = u1.copy()
    u2[1, 0] += factor * DEFAULT_TOL * magnitude(u1)
    found = cocycle_equivalent(CocycleRep(action, module, u1), CocycleRep(action, module, u2))
    assert (found is not None) is (factor < 1)


@pytest.mark.parametrize("factor", [0.5, 2.0], ids=["half", "twice"])
def test_gns_from_pd_slack(factor, monkeypatch):
    """GNS of the unit multiplier of sigma_3 with r added to one entry of
    the coefficient it realizes, against its slack of |G| n = 9 times the
    bound."""
    t = unit_multiplier(sigma_system(3))
    bump = np.zeros(t.stack.shape)
    bump[0, 0, 1] = factor * 9 * DEFAULT_TOL * magnitude(t.stack)
    real = multiplier.coefficient
    monkeypatch.setattr(multiplier, "coefficient", lambda rep, xi, eta: real(rep, xi, eta) + Multiplier(t.system, bump))
    if factor < 1:
        assert gns_from_pd(t)[0].module.fiber_dims == (1, 1, 1)
    else:
        with pytest.raises(ArithmeticError, match="does not reproduce"):
            gns_from_pd(t)


@pytest.mark.parametrize("factor", [0.5, 2.0], ids=["half", "twice"])
def test_unitarily_equivalent_bound(factor):
    """sigma_2's example representation against a copy with r at v(1),
    fiber 0, entry (0, 0).  The pieces are the lines e_k and v(1) maps
    e_{k-1} onto e_k, so the entry lies outside the pair cocycle, which
    stays exact, and the intertwiner misses by r."""
    rep = sigma_example_rep(2)
    v = np.array(rep.v_stack)
    assert v[1, 0, 0, 0] == 0
    v[1, 0, 0, 0] = factor * DEFAULT_TOL * magnitude(rep.rho_stack, rep.v_stack)
    other = EquivariantRep(rep.system, rep.module, rep.rho_stack, v)
    assert (unitarily_equivalent(rep, other) is not None) is (factor < 1)


@pytest.mark.parametrize("factor", [0.5, 2.0], ids=["half", "twice"])
def test_projection_check_bound(factor):
    """sigma_2's example representation with rho(e_0) at fiber 0 set to
    diag(1 + r, 0): it misses being idempotent by r (up to r^2)."""
    rep = sigma_example_rep(2)
    rho = np.array(rep.rho_stack)
    rho[0, 0, 0, 0] += factor * DEFAULT_TOL * magnitude(rep.rho_stack)
    if factor < 1:
        hilbmod._check_projection_rep(rho, rep.module.fiber_dims)
    else:
        with pytest.raises(ValueError, match="not orthogonal idempotents at point 0"):
            hilbmod._check_projection_rep(rho, rep.module.fiber_dims)


@pytest.mark.parametrize("factor", [0.5, 2.0], ids=["half", "twice"])
def test_example_deviation_bound(factor, monkeypatch):
    """``cstardyn example`` on sigma_2 with r added to a zero entry of the
    first matrix unit: the family deviates from the matrix units by r."""
    real = cli.matrix_unit_family

    def bumped(kind, n):
        family = real(kind, n)
        bump = np.zeros(family[0].stack.shape)
        bump[1, 0, 0] = factor * DEFAULT_TOL * magnitude(*(t.stack for t in family))
        return [family[0] + Multiplier(family[0].system, bump), *family[1:]]

    monkeypatch.setattr(cli, "matrix_unit_family", bumped)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["example", "--name", "sigma_n", "--n", "2"])
    check = json.loads(out.getvalue())["checks"][0]
    assert check["residual"] == pytest.approx(factor * check["tol"], rel=1e-6)
    assert code == (0 if factor < 1 else cli.CHECK_ERROR)
