"""The one positivity rule, ``numutil.psd_check``, against its loop oracle."""

import warnings

import numpy as np
import pytest

from cstardyn.numutil import psd_check
from oracles import reference_psd_check

TOL = 1e-9


def check_matches_oracle(blocks, scale, tol=TOL):
    """Every output equals the per-matrix oracle's, shape and bits (NaN for
    NaN), with no warning raised on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = psd_check(blocks, scale, tol)
    want = reference_psd_check(blocks, scale, tol)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w, equal_nan=True)
    return got


def own_scale(blocks):
    return 1.0 + np.abs(blocks).max(axis=(-2, -1), initial=0.0)


def random_stack(rng, lead, size):
    return rng.normal(size=lead + (size, size)) + 1j * rng.normal(size=lead + (size, size))


def with_spectrum(rng, lams):
    """A Hermitian matrix with the eigenvalues ``lams``."""
    q, _ = np.linalg.qr(random_stack(rng, (), len(lams)))
    return (q * np.asarray(lams)) @ q.conj().T


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
@pytest.mark.parametrize("size", [1, 2, 5])
class TestRandomStacks:
    def test_hermitian(self, rng, lead, size):
        a = random_stack(rng, lead, size)
        blocks = a + a.conj().swapaxes(-1, -2)
        hermitian, _, _, _ = check_matches_oracle(blocks, own_scale(blocks))
        assert hermitian.all()
        psd = blocks @ blocks
        _, passed, _, _ = check_matches_oracle(psd, own_scale(psd))
        assert passed.all()

    def test_non_hermitian(self, rng, lead, size):
        blocks = random_stack(rng, lead, size)
        hermitian, passed, _, _ = check_matches_oracle(blocks, own_scale(blocks))
        assert not passed.any() and not hermitian.any()

    def test_one_scale_for_the_stack(self, rng, lead, size):
        a = random_stack(rng, lead, size)
        blocks = a @ a.conj().swapaxes(-1, -2) - 0.5 * np.eye(size)
        check_matches_oracle(blocks, 1.0 + np.abs(blocks).max())


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_near_boundary(rng, scale):
    """Smallest eigenvalues just inside and just outside ``-tol * scale``,
    and a Hermitian defect on either side of ``tol * scale``."""
    limit = TOL * scale
    inside = [with_spectrum(rng, [-0.5 * limit, 1.0, scale]) for _ in range(3)]
    outside = [with_spectrum(rng, [-2.0 * limit, 1.0, scale]) for _ in range(3)]
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = limit
    blocks = np.stack(inside + outside + [inside[0] + 0.5 * skew, inside[0] + 2.0 * skew])
    hermitian, passed, _, _ = check_matches_oracle(blocks, scale)
    assert passed.tolist() == [True] * 3 + [False] * 3 + [True, False]
    assert hermitian.tolist() == [True] * 7 + [False]


def test_zero_matrix_passes_at_zero_tolerance():
    blocks = np.zeros((2, 3, 3), dtype=complex)
    hermitian, passed, lam_min, defect = check_matches_oracle(blocks, 1.0, tol=0.0)
    assert passed.all() and hermitian.all() and not lam_min.any() and not defect.any()


@pytest.mark.parametrize("lead", [(), (4,), (0,)])
def test_empty_blocks(lead):
    blocks = np.zeros(lead + (0, 0), dtype=complex)
    hermitian, passed, lam_min, defect = check_matches_oracle(blocks, 1.0)
    assert passed.shape == lead and passed.all() and hermitian.all() and not lam_min.any() and not defect.any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)])
@pytest.mark.parametrize("at", [(0, 0), (1, 2)])
def test_non_finite_blocks_fail_as_nan(rng, bad, at):
    """A block with a non-finite entry fails with ``lam_min`` NaN, without
    raising or warning, under its own (non-finite) scale or a finite one,
    and the PSD blocks next to it still pass."""
    a = random_stack(rng, (3,), 3)
    blocks = a @ a.conj().swapaxes(-1, -2)
    blocks[1][at] = bad
    for scale in (own_scale(blocks), 1.0 + np.abs(blocks[0]).max()):
        hermitian, passed, lam_min, defect = check_matches_oracle(blocks, scale)
        assert passed.tolist() == [True, False, True] and not hermitian[1]
        assert np.isnan(lam_min[1]) and not np.isfinite(defect[1])
