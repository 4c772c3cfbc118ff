"""Brute-force reference implementations.

Everything here works from the literal pseudo-labeled expansion over all
N! permutations (the slot assignments and coefficients of
:func:`states.expand_first_quantized`, read as arrays) and the kets'
amplitudes alone, independent of permanents, the creation-operator fold and
the spin-block fold of the production paths, so the routes can be checked
against each other.  Every term of the expansion is still enumerated, but as
numpy arrays: a slot assignment becomes a row of ket indices, a choice of
one basis label per slot a leaf.  :func:`collect_expansion` looks each
leaf's occupation key up in a key table, and no array holds more than
``LEAF_CHUNK`` leaves (one assignment's, if it has more).  ``verify`` draws
every case as the fold's input, n_up and (4, N) angle rows, and
:func:`rows_kets` builds the kets of a chunk of them: SpatialMode's checks
once on the chunk's angle array, then one pass over each ensemble's
particles with :func:`states.mode_ket`'s arithmetic, with no SpatialMode
or ParticleEnsemble object.  They are the kets of :func:`rows_ensemble`,
bit for bit; on a 2-core host a chunk of 4 to 20 ensembles of three to
five particles took about a third of the time that building them through
ensemble objects took.

Each oracle call is an index layout and a value pass.  The layout holds
everything that does not depend on the amplitudes: the terms of the
expansions and, for :func:`collect_expansion`, the key table, leaf keys,
signs and weights (:func:`_collect_layout`); for
:func:`expansion_inner_product`, each slot's bra and ket index vectors
(:func:`_inner_layout`), which take a slot's (bra assignment x ket
assignment) overlaps from the N x N overlap matrix, rows then columns, so
no bra x ket table is stored.  A layout is fixed by the expansion's shape
(N, the statistics, the equal-ket patterns and, for
:func:`collect_expansion`, each ket's label codes), built once per shape
and kept, read-only, in an ``lru_cache`` of ``COLLECT_MEMO`` or
``INNER_MEMO`` layouts; the leaf keys, the one table that grows with the
leaves, take the narrowest integer type.  The value pass redoes the
amplitude arithmetic in the order of a whole per-call expansion, so the
values are the same bit for bit.  At the N = 6 cap a collect layout holds
at most 720 x 729 leaves (three labels per ket, ``MEMO_LEAVES``; a layout
with more is built per call and not kept), 1.6 MB with a 2-byte key and a
fermion's sign flag per leaf, and an inner-product layout 0.1 MB: the two
memos hold at most 24 x 1.6 + 8 x 0.1 = 39 MB.  A ``verify oracle`` run,
at N <= 5, uses 14 collect and 5 inner-product layouts, 0.05 MB.
"""

from __future__ import annotations

import functools
import math
from itertools import product
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConsistencyError, SizeLimitError
from .states import (
    EXPANSION_SIZE_LIMIT,
    BasisLabel,
    OccupationKey,
    ParticleEnsemble,
    SingleParticleKet,
    SpatialMode,
    Spin,
    Statistics,
    SymmetricKet,
    _check_mode_rows,
    _ket_pattern,
    _mode_ket,
    _odd_inversions,
    _pattern_terms,
    occupation_key,
)
from .tolerances import DEFAULT_TOLERANCES as TOL

#: most terms (slot assignment x label choice) one temporary array holds
LEAF_CHUNK = 2 ** 16
#: layouts each memo keeps, so that a ``verify oracle`` run reuses every
#: layout it builds: it needs one :func:`collect_expansion` layout per
#: (N, n_up) of its projections (at most 18 at N = 2..5) and one
#: :func:`expansion_inner_product` layout per N of its amplitudes (5)
COLLECT_MEMO = 24
INNER_MEMO = 8
#: most leaves of a memoized :func:`collect_expansion` layout: N = 6 kets
#: of three labels each, as every mode ket has at most
MEMO_LEAVES = math.factorial(EXPANSION_SIZE_LIMIT) * 3 ** EXPANSION_SIZE_LIMIT


def _frozen(layout):
    """``layout`` with every array in it read-only, as a memo shares it."""
    if isinstance(layout, np.ndarray):
        layout.setflags(write=False)
    elif isinstance(layout, tuple):
        for part in layout:
            _frozen(part)
    return layout


def _basis(kets: Sequence[SingleParticleKet]) -> Tuple[BasisLabel, ...]:
    """Every label the kets use, in canonical occupation-key order."""
    return occupation_key({label for ket in kets for label in ket.labels()})


class _InnerLayout(NamedTuple):
    """The amplitude-free part of :func:`expansion_inner_product`: the ket
    assignments' kets slot by slot (N, T_ket) and their coefficients, and
    per block of bra assignments, their kets slot by slot (N, rows) and
    conjugated coefficients."""

    ket_slots: np.ndarray
    ket_coeffs: np.ndarray
    blocks: Tuple[Tuple[np.ndarray, np.ndarray], ...]


@functools.lru_cache(maxsize=INNER_MEMO)
def _inner_layout(statistics: Statistics, bra_pattern: Tuple[int, ...], ket_pattern: Tuple[int, ...]) -> _InnerLayout:
    """The layout of :func:`expansion_inner_product` for bras and kets of
    these equal-ket patterns, which fix both expansions' terms."""
    bra_slots, bra_coeffs = _pattern_terms(bra_pattern, statistics)
    ket_slots, ket_coeffs = _pattern_terms(ket_pattern, statistics)
    rows = max(1, LEAF_CHUNK // max(1, len(ket_slots)))
    blocks = tuple(
        (np.ascontiguousarray(bra_slots[start : start + rows].T), bra_coeffs[start : start + rows].conj())
        for start in range(0, len(bra_slots), rows)
    )
    return _frozen(_InnerLayout(np.ascontiguousarray(ket_slots.T), ket_coeffs, blocks))


def expansion_inner_product(
    bras: Sequence[SingleParticleKet],
    kets: Sequence[SingleParticleKet],
    statistics: Statistics = Statistics.BOSON,
) -> complex:
    """Transition amplitude as the double sum over both label expansions.

    For each pair of slot assignments the overlap is the product of the
    single-particle overlaps slot by slot: a (bra assignment x ket
    assignment) table taken slot by slot from the flat overlap matrix
    (through the memoized :func:`_inner_layout`), contracted with the two
    coefficient vectors.
    """
    if len(bras) != len(kets):
        raise ConsistencyError("bra and ket lists differ in length")
    n = len(kets)
    layout = _inner_layout(statistics, _ket_pattern(bras), _ket_pattern(kets))
    basis = _basis(list(bras) + list(kets))
    index = {label: i for i, label in enumerate(basis)}

    def dense(states):
        table = np.zeros((n, len(basis)), dtype=complex)
        for row, state in enumerate(states):
            for label, amp in state.items():
                table[row, index[label]] = amp
        return table

    # overlap[b, k] = <bras[b] | kets[k]>; elementwise sums throughout,
    # since a threaded BLAS call on arrays this small costs milliseconds
    overlap = (dense(bras).conj()[:, None, :] * dense(kets)).sum(axis=2)
    total = 0j
    for bra_slots, bra_coeffs in layout.blocks:
        # slot a's (bra assignment, ket assignment) overlaps: its bra rows,
        # then its ket columns
        table = overlap.take(bra_slots[0], axis=0).take(layout.ket_slots[0], axis=1)
        for slot in range(1, n):
            table *= overlap.take(bra_slots[slot], axis=0).take(layout.ket_slots[slot], axis=1)
        table *= layout.ket_coeffs
        total += (bra_coeffs * table.sum(axis=1)).sum()
    return complex(total)


class _Chunk(NamedTuple):
    """At most ``LEAF_CHUNK`` leaves of :func:`collect_expansion`: the
    coefficients (1, T) of T assignments of one size pattern, where[:, t]
    (N, T), the ket sizes in their slot order, each leaf's key (T * leaves,
    term by term) and, for fermions, whether it flips sign (T, leaves)."""

    coeffs: np.ndarray
    where: np.ndarray
    sizes: Tuple[int, ...]
    key: np.ndarray
    flip: Optional[np.ndarray]


class _CollectLayout(NamedTuple):
    """The amplitude-free part of :func:`collect_expansion`: the first
    assignment's kets in slot order, the height of the amplitude table,
    the chunks, the key bins (one more than keys, for the cancelled
    fermion leaves), each key's label codes and its weight."""

    first: Tuple[int, ...]
    height: int
    chunks: Tuple[_Chunk, ...]
    bins: int
    labels: Tuple[Tuple[int, ...], ...]
    weight: Union[float, np.ndarray]


@functools.lru_cache(maxsize=COLLECT_MEMO)
def _collect_layout(
    statistics: Statistics, codes: Tuple[Tuple[int, ...], ...], pattern: Tuple[int, ...]
) -> Optional[_CollectLayout]:
    """The layout of :func:`collect_expansion` for kets with these label
    codes (each ket's labels' positions in the basis, in its own order)
    and equal-ket pattern, or None when every term cancels."""
    n = len(pattern)
    slots, coeffs = _pattern_terms(pattern, statistics)
    width = 1 + max(map(max, codes))  # every basis label is some ket's
    if width ** n > np.iinfo(np.int64).max:
        raise SizeLimitError(
            f"collect_expansion encodes keys in base {width}, "
            f"which overflows at N = {n}"
        )
    if len(slots) == 0:  # every term cancelled
        return None
    fermion = statistics is Statistics.FERMION

    # the key table: choice c of the first assignment's kets, in its slot order
    first = slots[0].tolist()
    sizes = [len(codes[k]) for k in first]
    stride = [math.prod(sizes[j + 1 :]) for j in range(n)]
    choices = np.array(list(product(*[codes[k] for k in first])), dtype=np.int64).reshape(-1, n)
    ordered = np.sort(choices, axis=1)
    place = width ** np.arange(n - 1, -1, -1, dtype=np.int64)
    distinct = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1) if fermion else slice(None)
    keys, key_of = np.unique(ordered[distinct] @ place, return_inverse=True)
    # a fermion choice that repeats a label lands in one extra bin, then dropped
    table = np.full(len(choices), len(keys), dtype=np.min_scalar_type(len(keys)))
    table[distinct] = key_of
    # each ket's choice offsets c_j * stride_j, one column a ket
    offsets = np.zeros((max(sizes), n), dtype=np.intp)
    for j, size in enumerate(sizes):
        offsets[:size, j] = np.arange(size) * stride[j]

    # where[t, a]: the first assignment's slot whose ket sits at slot a of
    # assignment t, the copies of a ket matched in order
    where = np.empty_like(slots)
    np.put_along_axis(
        where, np.argsort(slots, axis=1, kind="stable"),
        np.argsort(slots[0], kind="stable")[None], axis=1,
    )
    if fermion:
        odd_slots, odd_codes = _odd_inversions(where), _odd_inversions(choices)
    # assignments whose slots hold kets of equal sizes in the same order
    pattern_sizes = np.array(sizes)[where]
    _, samples, group = np.unique(
        (pattern_sizes - 1) @ max(sizes) ** np.arange(n), return_index=True, return_inverse=True
    )
    block = max(1, LEAF_CHUNK // len(choices))
    chunks = []
    for g, sample in enumerate(samples.tolist()):
        members = np.flatnonzero(group == g)
        for start in range(0, len(members), block):
            terms = members[start : start + block]
            slot_offsets = np.take(offsets, where[terms].T, axis=1)
            leaf = np.zeros((1, len(terms)), dtype=np.intp)
            chunk_sizes = tuple(pattern_sizes[sample].tolist())
            for slot, size in enumerate(chunk_sizes):
                leaf = (leaf[:, None] + slot_offsets[:size, slot]).reshape(-1, len(terms))
            # term by term, each term's leaves in order
            leaf = leaf.T
            chunks.append(_Chunk(
                coeffs[None, terms],
                where[terms].T.astype(np.uint8),
                chunk_sizes,
                table[leaf].ravel(),
                odd_slots[terms, None] ^ odd_codes[leaf] if fermion else None,
            ))

    labels = keys[:, None] // place % width
    if fermion:
        weight = 1.0 / math.sqrt(math.factorial(n))
    else:
        counts = (labels[:, :, None] == np.arange(width)).sum(axis=1)
        factorials = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
        weight = np.sqrt(factorials[counts].prod(axis=1)) / math.sqrt(math.factorial(n))
    labels = tuple(map(tuple, labels.tolist()))
    return _frozen(_CollectLayout(tuple(first), max(sizes), tuple(chunks), len(keys) + 1, labels, weight))


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
    weighted by sqrt(prod n_b!) / sqrt(N!).  Everything but the amplitudes
    and their products is the layout of :func:`_collect_layout`, memoized
    up to ``MEMO_LEAVES`` leaves.
    """
    basis = _basis(kets)
    index = {label: i for i, label in enumerate(basis)}
    codes = tuple(tuple(index[label] for label in ket.labels()) for ket in kets)
    pattern = _ket_pattern(kets)
    leaves = math.factorial(len(kets)) * math.prod(map(len, codes))
    layout = (_collect_layout if leaves <= MEMO_LEAVES else _collect_layout.__wrapped__)(
        statistics, codes, pattern
    )
    if layout is None:
        return {}

    # each ket's amplitudes, one column a ket of the first assignment
    amps = np.zeros((layout.height, len(kets)), dtype=complex)
    for j, k in enumerate(layout.first):
        column = [amp for _, amp in kets[k].items()]
        amps[: len(column), j] = column
    totals = np.zeros((2, layout.bins))
    for chunk in layout.chunks:
        # (choice, slot, term) tables: every product runs along the terms
        slot_amps = np.take(amps, chunk.where, axis=1)
        value = chunk.coeffs
        for slot, size in enumerate(chunk.sizes):
            value = (value[:, None] * slot_amps[:size, slot]).reshape(-1, chunk.coeffs.shape[1])
        # summed term by term, each term's leaves in order
        value = value.T
        if chunk.flip is not None:
            value = np.where(chunk.flip, -value, value)
        totals[0] += np.bincount(chunk.key, value.real.ravel(), layout.bins)
        totals[1] += np.bincount(chunk.key, value.imag.ravel(), layout.bins)
    total = totals[0, :-1] + 1j * totals[1, :-1]
    total = total * layout.weight
    return {
        tuple(basis[c] for c in row): complex(amp)
        for row, amp in zip(layout.labels, total.tolist())
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


def rows_kets(n_up: int, angles: np.ndarray) -> List[List[SingleParticleKet]]:
    """The boson kets of every ensemble of n_up and (4, ..., N) angle
    rows, the axes between the first and the last flattened in C order:
    ``rows_ensemble(n_up, rows).kets()`` of each ensemble's (4, N) rows,
    bit for bit, without a SpatialMode or ParticleEnsemble object.
    SpatialMode's checks run once on the whole array
    (:func:`states._check_mode_rows`), then one pass over each ensemble's
    particles computes their :func:`states.mode_ket` amplitudes."""
    _check_mode_rows(angles)
    n_total = angles.shape[-1]
    spins = [Spin.UP] * n_up + [Spin.DOWN] * (n_total - n_up)
    ensembles = angles.reshape(4, -1, n_total).transpose(1, 2, 0).tolist()
    return [[_mode_ket(spin, *column) for spin, column in zip(spins, particles)] for particles in ensembles]


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
    ``project`` has a fermion route for it to check;
    :func:`substitution_sectors` takes the ensemble's kets.
    """
    return substitution_sectors(ensemble.kets())


def substitution_sectors(
    kets: Sequence[SingleParticleKet],
) -> Tuple[Dict[int, Dict[OccupationKey, complex]], float]:
    """:func:`project_by_substitution` of the boson ensemble of these kets,
    as :func:`rows_kets` builds them from angle rows."""
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
