"""Brute-force reference implementations.

Everything here works from the literal pseudo-labeled expansion over all
N! permutations (the slot assignments and coefficients of
:func:`states.expand_first_quantized`, read as arrays) and the kets'
amplitudes alone, independent of permanents, the creation-operator fold and
the spin-block fold of the production paths, so the routes can be checked
against each other.  Every term of the expansion is still enumerated, but as
numpy arrays: a slot assignment becomes a row of ket indices, a choice of
one basis label per slot a leaf.  :func:`collect_expansion` looks each
leaf's occupation key up in a table built once per call, and no array holds
more than ``LEAF_CHUNK`` leaves (one assignment's, if it has more).
``verify`` draws every case as the fold's input, n_up and (4, N) angle
rows, and the oracles build kets from those rows through
:func:`rows_ensemble`, one :func:`states.mode_ket` per column.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import ConsistencyError, SizeLimitError
from .states import (
    BasisLabel,
    OccupationKey,
    ParticleEnsemble,
    SingleParticleKet,
    SpatialMode,
    Statistics,
    SymmetricKet,
    _expansion_terms,
    _odd_inversions,
    occupation_key,
)
from .tolerances import DEFAULT_TOLERANCES as TOL

#: most terms (slot assignment x label choice) one temporary array holds
LEAF_CHUNK = 2 ** 16


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
    bra_slots, bra_coeffs = _expansion_terms(bras, statistics)
    ket_slots, ket_coeffs = _expansion_terms(kets, statistics)
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
    Every assignment holds the same kets, so its leaves match the label
    choices c of the first assignment's kets in its slot order one to one,
    and a leaf's occupation key is that choice's: the sorted integer codes
    (canonical order) of its labels, found once per choice in a key table.
    The terms themselves are per-slot outer products in each assignment's
    slot order, carrying each leaf's value and its choice index
    c = sum_j c_j * stride_j, and are summed by key with ``np.bincount``.
    A fermion leaf takes the sign of the inversions of its codes in slot
    order, the parity of the slot-to-ket permutation times that of the
    choice's codes, and vanishes when it repeats a label; a boson key is
    weighted by sqrt(prod n_b!) / sqrt(N!).
    """
    n = len(kets)
    slots, coeffs = _expansion_terms(kets, statistics)
    basis = _basis(kets)
    width = len(basis)
    if width ** n > np.iinfo(np.int64).max:
        raise SizeLimitError(
            f"collect_expansion encodes keys in base {width}, "
            f"which overflows at N = {n}"
        )
    if len(slots) == 0:  # every term cancelled
        return {}
    index = {label: i for i, label in enumerate(basis)}
    fermion = statistics is Statistics.FERMION

    # the key table: choice c of the first assignment's kets, in its slot order
    first = [kets[k] for k in slots[0].tolist()]
    sizes = [len(ket.labels()) for ket in first]
    stride = [math.prod(sizes[j + 1 :]) for j in range(n)]
    codes = np.array(
        list(product(*[[index[label] for label in ket.labels()] for ket in first])), dtype=np.int64
    ).reshape(-1, n)
    ordered = np.sort(codes, axis=1)
    place = width ** np.arange(n - 1, -1, -1, dtype=np.int64)
    distinct = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1) if fermion else slice(None)
    keys, key_of = np.unique(ordered[distinct] @ place, return_inverse=True)
    # a fermion choice that repeats a label lands in one extra bin, then dropped
    table = np.full(len(codes), len(keys))
    table[distinct] = key_of
    # each ket's amplitudes and choice offsets c_j * stride_j, one column a ket
    amps = np.zeros((max(sizes), n), dtype=complex)
    offsets = np.zeros((max(sizes), n), dtype=np.intp)
    for j, ket in enumerate(first):
        amps[: sizes[j], j] = [amp for _, amp in ket.items()]
        offsets[: sizes[j], j] = np.arange(sizes[j]) * stride[j]

    # where[t, a]: the first assignment's slot whose ket sits at slot a of
    # assignment t, the copies of a ket matched in order
    where = np.empty_like(slots)
    np.put_along_axis(
        where, np.argsort(slots, axis=1, kind="stable"),
        np.argsort(slots[0], kind="stable")[None], axis=1,
    )
    if fermion:
        odd_slots, odd_codes = _odd_inversions(where), _odd_inversions(codes)
    totals = np.zeros((2, len(keys) + 1))
    # assignments whose slots hold kets of equal sizes in the same order
    pattern = np.array(sizes)[where]
    _, samples, group = np.unique(
        (pattern - 1) @ max(sizes) ** np.arange(n), return_index=True, return_inverse=True
    )
    block = max(1, LEAF_CHUNK // len(codes))
    for g, sample in enumerate(samples.tolist()):
        members = np.flatnonzero(group == g)
        for start in range(0, len(members), block):
            terms = members[start : start + block]
            # (choice, slot, term) tables: every product runs along the terms
            slot_amps = np.take(amps, where[terms].T, axis=1)
            slot_offsets = np.take(offsets, where[terms].T, axis=1)
            value = coeffs[None, terms]
            leaf = np.zeros((1, len(terms)), dtype=np.intp)
            for slot, size in enumerate(pattern[sample].tolist()):
                value = (value[:, None] * slot_amps[:size, slot]).reshape(-1, len(terms))
                leaf = (leaf[:, None] + slot_offsets[:size, slot]).reshape(-1, len(terms))
            # summed term by term, each term's leaves in order
            value, leaf = value.T, leaf.T
            if fermion:
                value = np.where(odd_slots[terms, None] ^ odd_codes[leaf], -value, value)
            key = table[leaf].ravel()
            totals[0] += np.bincount(key, value.real.ravel(), totals.shape[1])
            totals[1] += np.bincount(key, value.imag.ravel(), totals.shape[1])
    total = totals[0, :-1] + 1j * totals[1, :-1]

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
