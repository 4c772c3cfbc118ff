"""Permanent and determinant kernel tests."""

import math

import numpy as np
import pytest

from identangle.errors import DimensionError, SizeLimitError
from identangle.permanent import (
    NAIVE_SIZE_LIMIT,
    determinant,
    determinant_reference,
    permanent_naive,
    permanent_ryser,
)

from conftest import random_complex_matrix


def test_permanent_2x2_definition(rng):
    a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
    m = np.array([[a, b], [c, d]])
    assert abs(permanent_naive(m) - (a * d + b * c)) < 1e-14
    assert abs(permanent_ryser(m) - (a * d + b * c)) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_permanent_identity(n):
    assert abs(permanent_naive(np.eye(n)) - 1) < 1e-14
    assert abs(permanent_ryser(np.eye(n)) - 1) < 1e-14


@pytest.mark.parametrize("n,expected", [(3, 6), (4, 24)])
def test_permanent_all_ones(n, expected):
    m = np.ones((n, n))
    assert permanent_naive(m) == expected
    assert permanent_ryser(m) == expected


def test_permanent_all_ones_exact_up_to_12():
    for n in range(1, 13):
        assert permanent_ryser(np.ones((n, n))) == math.factorial(n)


def test_permanent_zero_row(rng):
    m = random_complex_matrix(rng, 4)
    m[2, :] = 0
    assert permanent_ryser(m) == 0
    assert permanent_naive(m) == 0


def test_ryser_matches_naive(rng):
    for n in range(1, 9):
        for _ in range(20):
            m = random_complex_matrix(rng, n)
            slow = permanent_naive(m)
            fast = permanent_ryser(m)
            assert abs(fast - slow) <= 1e-10 * (1 + abs(slow))


def _row_polynomial(rows):
    """Coefficients of x^a y^b z^c in prod_i (rows[i] . (x, y, z))."""
    n = len(rows)
    coeffs = np.zeros((n + 1,) * 3, dtype=complex)
    coeffs[0, 0, 0] = 1
    for x, y, z in rows:
        nxt = np.zeros_like(coeffs)
        nxt[1:] += x * coeffs[:-1]
        nxt[:, 1:] += y * coeffs[:, :-1]
        nxt[:, :, 1:] += z * coeffs[:, :, :-1]
        coeffs = nxt
    return coeffs


def _rank3_permanent(bra, ket):
    """perm(conj(B) K^T) for n x 3 arrays B and K, by Cauchy-Binet:
    sum_a a_L! a_R! a_chi! conj(B^[a]) K^[a] over the row polynomials."""
    fact = np.array([float(math.factorial(k)) for k in range(len(bra) + 1)])
    weight = fact[:, None, None] * fact[None, :, None] * fact[None, None, :]
    return complex(np.sum(weight * _row_polynomial(bra).conj() * _row_polynomial(ket)))


def _nearby_rank3_pair(rng, n):
    """Rows (L, R, chi) of nearby single-particle states, as in transition
    amplitudes between nearby configurations.  All terms of the rank-3
    permanent are then close to positive, so it is exact to rounding."""
    theta = rng.uniform(0, np.pi / 2, n)
    omega = rng.uniform(0, 2 * np.pi, n)
    phi = np.where(rng.random(n) < 0.5, np.pi / 2, rng.uniform(0.6, np.pi / 2, n))
    gamma = rng.uniform(0, 2 * np.pi, n)
    bra = np.stack(
        [
            np.sin(phi) * np.cos(theta),
            np.sin(phi) * np.sin(theta) * np.exp(1j * omega),
            np.cos(phi) * np.exp(1j * gamma),
        ],
        axis=1,
    )
    ket = bra + 0.05 * (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)))
    return bra, ket


@pytest.mark.parametrize(
    "n,pairs", [(6, 40), (11, 40), (12, 40), (15, 40), (16, 40), (23, 1)]
)
def test_ryser_matches_rank3_overlap(n, pairs):
    rng = np.random.default_rng([1, n])
    for _ in range(pairs):
        bra, ket = _nearby_rank3_pair(rng, n)
        exact = _rank3_permanent(bra, ket)
        overlap = bra.conj() @ ket.T
        assert abs(permanent_ryser(overlap) - exact) <= 1e-10 * abs(exact)
        if n <= NAIVE_SIZE_LIMIT:
            assert abs(permanent_naive(overlap) - exact) <= 1e-10 * abs(exact)


def test_permanent_row_and_column_swap_invariance(rng):
    m = random_complex_matrix(rng, 5)
    reference = permanent_naive(m)
    for _ in range(10):
        p = rng.permutation(5)
        q = rng.permutation(5)
        assert abs(permanent_ryser(m[p][:, q]) - reference) < 1e-10 * (1 + abs(reference))


def test_permanent_row_multilinearity(rng):
    m = random_complex_matrix(rng, 4)
    c = complex(rng.normal(), rng.normal())
    scaled = m.copy()
    scaled[1] *= c
    assert abs(permanent_ryser(scaled) - c * permanent_ryser(m)) < 1e-10


def test_determinant_identity_and_2x2(rng):
    assert abs(determinant(np.eye(4)) - 1) < 1e-12
    a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
    m = np.array([[a, b], [c, d]])
    assert abs(determinant(m) - (a * d - b * c)) < 1e-12


def test_determinant_matches_signed_sum(rng):
    for n in range(1, 9):
        m = random_complex_matrix(rng, n)
        slow = determinant_reference(m) if n <= 8 else None
        assert abs(determinant(m) - slow) <= 1e-10 * (1 + abs(slow))


def test_row_swap_sign_behaviour(rng):
    m = random_complex_matrix(rng, 4)
    swapped = m.copy()
    swapped[[0, 2]] = swapped[[2, 0]]
    assert abs(determinant(swapped) + determinant(m)) < 1e-10
    assert abs(permanent_ryser(swapped) - permanent_ryser(m)) < 1e-10


def test_non_square_rejected():
    with pytest.raises(DimensionError):
        permanent_naive(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        permanent_ryser(np.ones((3, 2)))
    with pytest.raises(DimensionError):
        determinant(np.ones((1, 2)))


def test_non_finite_rejected():
    m = np.ones((2, 2))
    m[0, 0] = np.nan
    with pytest.raises(DimensionError):
        permanent_ryser(m)
    m[0, 0] = np.inf
    with pytest.raises(DimensionError):
        permanent_naive(m)


def test_size_guards():
    with pytest.raises(SizeLimitError):
        permanent_naive(np.eye(11))
    with pytest.raises(SizeLimitError):
        permanent_ryser(np.eye(31))
