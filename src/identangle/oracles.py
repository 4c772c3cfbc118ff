"""Brute-force reference implementations.

Everything here works from the literal pseudo-labeled expansion over all
N! permutations (:func:`states.expand_first_quantized`) and the kets'
amplitudes alone, independent of permanents, the creation-operator fold and
the spin-block fold of the production paths, so the routes can be checked
against each other.  Every term of the expansion is still enumerated, but as
numpy arrays: a slot assignment becomes a row of ket indices, a choice of
one basis label per slot a leaf, and no array holds more than
``LEAF_CHUNK`` leaves.  ``verify`` draws every case as the fold's input,
n_up and (4, N) angle rows, and the oracles build kets from those rows
through :func:`rows_ensemble`, one :func:`states.mode_ket` per column.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from .detection import ParticleEnsemble
from .errors import ConsistencyError, SizeLimitError
from .states import (
    BasisLabel,
    OccupationKey,
    SingleParticleKet,
    SpatialMode,
    Statistics,
    SymmetricKet,
    _odd_inversions,
    expand_first_quantized,
    occupation_key,
)
from .tolerances import DEFAULT_TOLERANCES as TOL

#: most terms (slot assignment x label choice) one temporary array holds
LEAF_CHUNK = 2 ** 16


def _expansion_arrays(
    kets: Sequence[SingleParticleKet], statistics: Statistics
) -> Tuple[np.ndarray, np.ndarray]:
    """The slot assignments (T, N) and coefficients (T,) of
    :func:`states.expand_first_quantized`."""
    terms = expand_first_quantized(kets, statistics)
    slots = np.array(list(terms), dtype=np.intp).reshape(len(terms), len(kets))
    return slots, np.array(list(terms.values()), dtype=complex)


def _basis(kets: Sequence[SingleParticleKet]) -> Tuple[BasisLabel, ...]:
    """Every label the kets use, in canonical occupation-key order."""
    return occupation_key({label for ket in kets for label in ket.labels()})


def expansion_inner_product(
    bras: Sequence[SingleParticleKet],
    kets: Sequence[SingleParticleKet],
    statistics: Statistics = Statistics.BOSON,
) -> complex:
    """Transition amplitude as the double sum over both label expansions.

    For each pair of slot assignments the overlap is the product of the
    single-particle overlaps slot by slot: a (bra assignment x ket
    assignment) table taken slot by slot from the flat overlap matrix,
    contracted with the two coefficient vectors.
    """
    if len(bras) != len(kets):
        raise ConsistencyError("bra and ket lists differ in length")
    n = len(kets)
    bra_slots, bra_coeffs = _expansion_arrays(bras, statistics)
    ket_slots, ket_coeffs = _expansion_arrays(kets, statistics)
    basis = _basis(list(bras) + list(kets))
    index = {label: i for i, label in enumerate(basis)}

    def dense(states):
        table = np.zeros((n, len(basis)), dtype=complex)
        for row, state in enumerate(states):
            for label, amp in state.items():
                table[row, index[label]] = amp
        return table

    # overlap[b * n + k] = <bras[b] | kets[k]>; elementwise sums throughout,
    # since a threaded BLAS call on arrays this small costs milliseconds
    overlap = (dense(bras).conj()[:, None, :] * dense(kets)).sum(axis=2).ravel()
    rows = max(1, LEAF_CHUNK // max(1, len(ket_slots)))
    total = 0j
    for start in range(0, len(bra_slots), rows):
        block = bra_slots[start : start + rows]
        table = overlap.take(block[:, 0, None] * n + ket_slots[:, 0])
        for slot in range(1, n):
            table *= overlap.take(block[:, slot, None] * n + ket_slots[:, slot])
        table *= ket_coeffs
        total += (bra_coeffs[start : start + rows].conj() * table.sum(axis=1)).sum()
    return complex(total)


def collect_expansion(
    kets: Sequence[SingleParticleKet],
    statistics: Statistics = Statistics.BOSON,
) -> Dict[OccupationKey, complex]:
    """Occupation amplitudes of the expanded product state.

    Each slot assignment is multiplied out in the single-particle basis and
    the resulting labeled terms are projected onto canonical occupation
    keys.  The output carries the combinatorial normalization, matching
    ``states.symmetrize_product``.

    A term (leaf) picks, for each slot, one label of the ket in that slot.
    Labels carry integer codes in canonical order, so the sorted codes of a
    leaf are its occupation key, encoded as one base-L integer and summed
    with ``np.bincount``.  A fermion leaf takes the sign of the inversions of its
    codes in slot order and vanishes when it repeats a label; a boson key
    is weighted by sqrt(prod n_b!) / sqrt(N!).
    """
    n = len(kets)
    slots, coeffs = _expansion_arrays(kets, statistics)
    basis = _basis(kets)
    width = len(basis)
    if width ** n > np.iinfo(np.int64).max:
        raise SizeLimitError(
            f"collect_expansion encodes keys in base {width}, "
            f"which overflows at N = {n}"
        )
    index = {label: i for i, label in enumerate(basis)}
    # each ket's own labels (as codes) and amplitudes, padded to one width
    sizes = np.array([len(ket.labels()) for ket in kets], dtype=np.intp)
    codes = np.zeros((n, max(sizes)), dtype=np.int64)
    amps = np.zeros((n, max(sizes)), dtype=complex)
    for row, ket in enumerate(kets):
        for col, (label, amp) in enumerate(ket.items()):
            codes[row, col] = index[label]
            amps[row, col] = amp
    # leaf l of an assignment picks choice (l // stride) % radix at a slot
    radix = sizes[slots]
    stride = np.ones_like(radix)
    stride[:, :-1] = np.cumprod(radix[:, :0:-1], axis=1)[:, ::-1]
    leaves = int(np.prod(sizes))
    # every assignment spans the same number of leaves
    total_leaves = len(slots) * leaves
    if total_leaves == 0:  # all terms cancelled, or a ket without labels
        return {}
    place = width ** np.arange(n - 1, -1, -1, dtype=np.int64)
    fermion = statistics is Statistics.FERMION

    found, sums = [], []
    for start in range(0, total_leaves, LEAF_CHUNK):
        term, leaf = np.divmod(
            np.arange(start, min(start + LEAF_CHUNK, total_leaves)), leaves
        )
        chosen = np.empty((len(term), n), dtype=np.int64)
        value = coeffs[term]
        for slot in range(n):
            ket = slots[term, slot]
            choice = leaf // stride[term, slot] % radix[term, slot]
            chosen[:, slot] = codes[ket, choice]
            value = value * amps[ket, choice]
        key = np.sort(chosen, axis=1)
        if fermion:
            value = np.where(_odd_inversions(chosen), -value, value)
            distinct = (key[:, 1:] != key[:, :-1]).all(axis=1)
            key, value = key[distinct], value[distinct]
        keys, total = _sum_by_key(key @ place, value)
        found.append(keys)
        sums.append(total)
    keys, total = _sum_by_key(np.concatenate(found), np.concatenate(sums))

    labels = keys[:, None] // place % width
    if fermion:
        weight = 1.0 / math.sqrt(math.factorial(n))
    else:
        counts = (labels[:, :, None] == np.arange(width)).sum(axis=1)
        factorials = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
        weight = np.sqrt(factorials[counts].prod(axis=1)) / math.sqrt(math.factorial(n))
    total = total * weight
    return {
        tuple(basis[c] for c in row): complex(amp)
        for row, amp in zip(labels.tolist(), total.tolist())
        if abs(amp) > TOL.pruning
    }


def _sum_by_key(keys: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` and the sum of ``values`` over each."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    total = np.bincount(inverse, values.real, len(distinct)) + 1j * np.bincount(
        inverse, values.imag, len(distinct)
    )
    return distinct, total


def collected_product_state(
    kets: Sequence[SingleParticleKet],
    statistics: Statistics = Statistics.BOSON,
) -> SymmetricKet:
    """Expanded-and-collected product state (combinatorial normalization)."""
    amps = collect_expansion(kets, statistics)
    return SymmetricKet(len(kets), statistics, amps)


def rows_ensemble(n_up: int, rows: np.ndarray) -> ParticleEnsemble:
    """The boson ensemble of n_up and (4, N) angle rows, one column per particle."""
    return ParticleEnsemble(n_up, tuple(SpatialMode(*column) for column in rows.T.tolist()))


def project_by_substitution(
    ensemble: ParticleEnsemble,
) -> Tuple[Dict[int, Dict[OccupationKey, complex]], float]:
    """Detector projection by term-by-term substitution in the expansion.

    Expands the input state over all label permutations, substitutes each
    particle's detector components, collects occupation amplitudes,
    normalizes, and groups the detector-supported keys by the particle
    number q at L.  Returns (sectors, leak) with normalized amplitudes.
    It takes a ``ParticleEnsemble``, the public form the benchmark's
    self-check calls, and stays boson-only (as the ensemble is) until
    ``project`` has a fermion route for it to check.
    """
    kets = ensemble.kets()
    amps = collect_expansion(kets, Statistics.BOSON)
    norm = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
    sectors: Dict[int, Dict[OccupationKey, complex]] = {}
    leak = 0.0
    for key, value in amps.items():
        value = value / norm
        if any(lab[0] not in ("L", "R") for lab in key):
            leak += abs(value) ** 2
            continue
        q = sum(1 for lab in key if lab[0] == "L")
        sectors.setdefault(q, {})[key] = value
    return sectors, leak
