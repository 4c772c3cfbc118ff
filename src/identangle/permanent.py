"""Exact permanent and determinant kernels for small complex matrices.

The permanent governs bosonic transition amplitudes, the determinant the
fermionic ones.  Two permanent paths are provided: a factorial-cost
reference that sums over all permutations, and a Ryser inclusion-exclusion
kernel in Gray-code order that serves as the production path.  Everything
runs in double-precision complex arithmetic; there is no arbitrary
precision fallback.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import DimensionError, SizeLimitError

#: hard guard for the factorial-cost reference kernel
NAIVE_SIZE_LIMIT = 10
#: hard guard for the O(2^n * n) Ryser kernel
RYSER_SIZE_LIMIT = 30


def as_square_matrix(matrix) -> np.ndarray:
    """Validate and return ``matrix`` as a square complex ndarray.

    Raises DimensionError for non-square input or non-finite entries.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"square matrix required, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise DimensionError("matrix entries must be finite")
    return m


def permanent_naive(matrix) -> complex:
    """Permanent as the explicit sum over all n! permutations.

    Reference kernel: sum_sigma prod_i m[i, sigma(i)].  Cost grows as n!,
    so inputs are capped at n <= 10.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix.

    Returns
    -------
    complex
    """
    m = as_square_matrix(matrix)
    n = m.shape[0]
    if n > NAIVE_SIZE_LIMIT:
        raise SizeLimitError(
            f"permanent_naive is capped at n <= {NAIVE_SIZE_LIMIT}, got n = {n}"
        )
    if n == 0:
        return 1 + 0j
    rows = m.tolist()
    total = 0j
    for cols in permutations(range(n)):
        p = 1 + 0j
        for i, c in enumerate(cols):
            p *= rows[i][c]
        total += p
    return total


def permanent_ryser(matrix) -> complex:
    """Permanent via Ryser inclusion-exclusion over column subsets.

    Subsets are visited in Gray-code order so each step updates the running
    row sums with a single column, for O(2^n * n) total cost.  The
    alternating sum cancels in double precision: on overlap matrices of
    nearby random configurations it missed relative 1e-10 on 3 of 32 pairs
    at n = 16 (up to 1.8e-10) and 1 of 40 at n = 15; at n = 14 the worst of
    2570 pairs was 5.4e-11.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix, n <= 30.

    Returns
    -------
    complex
    """
    m = as_square_matrix(matrix)
    n = m.shape[0]
    if n > RYSER_SIZE_LIMIT:
        raise SizeLimitError(
            f"permanent_ryser is capped at n <= {RYSER_SIZE_LIMIT}, got n = {n}"
        )
    if n == 0:
        return 1 + 0j
    cols = [m[:, j].tolist() for j in range(n)]
    row_sums = [0j] * n
    total = 0j
    gray = 0
    for k in range(1, 1 << n):
        g = k ^ (k >> 1)
        changed = g ^ gray
        j = changed.bit_length() - 1
        col = cols[j]
        if g & changed:
            for i in range(n):
                row_sums[i] += col[i]
        else:
            for i in range(n):
                row_sums[i] -= col[i]
        gray = g
        p = 1 + 0j
        for v in row_sums:
            p *= v
        # sign of (-1)^(n - |S|)
        if (n - g.bit_count()) % 2:
            total -= p
        else:
            total += p
    return total


def determinant(matrix) -> complex:
    """Determinant via pivoted LU elimination (LAPACK).

    Agrees with the signed permutation-sum reference to 1e-10 for n <= 8.
    """
    m = as_square_matrix(matrix)
    if m.shape[0] == 0:
        return 1 + 0j
    return complex(np.linalg.det(m))


def determinant_reference(matrix) -> complex:
    """Determinant as the signed sum over all n! permutations (test oracle)."""
    m = as_square_matrix(matrix)
    n = m.shape[0]
    if n > NAIVE_SIZE_LIMIT:
        raise SizeLimitError(
            f"determinant_reference is capped at n <= {NAIVE_SIZE_LIMIT}, got n = {n}"
        )
    if n == 0:
        return 1 + 0j
    rows = m.tolist()
    total = 0j
    for cols in permutations(range(n)):
        p = 1 + 0j
        for i, c in enumerate(cols):
            p *= rows[i][c]
        total += _permutation_sign(cols) * p
    return total


def _permutation_sign(perm) -> int:
    """Parity of a permutation given as a tuple of images (O(n^2), small n)."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign
