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
``LEAF_CHUNK`` leaves (one assignment's, if it has more).

Each oracle is an index layout and a value pass.  The layout holds
everything that does not depend on the amplitudes: the terms of the
expansions and, for :func:`collect_expansion`, the key table, leaf keys,
signs and weights (:func:`_collect_layout`); for
:func:`expansion_inner_product`, each slot's bra and ket index vectors
(:func:`_inner_layout`), which take a slot's (bra assignment x ket
assignment) overlaps from the N x N overlap matrix, columns then rows, so
no bra x ket table is stored.  A layout is fixed by the expansion's shape
(N, the statistics, the equal-ket patterns and, for
:func:`collect_expansion`, each ket's label codes), built once per shape
and kept, read-only, in an ``lru_cache`` of ``COLLECT_MEMO`` or
``INNER_MEMO`` layouts; the leaf keys, the one table that grows with the
leaves, take the narrowest integer type.  At the N = 6 cap a collect
layout holds at most 720 x 729 leaves (three labels per ket,
``MEMO_LEAVES``; a layout with more is built per call and not kept),
1.6 MB with a 2-byte key and a fermion's sign flag per leaf, and an
inner-product layout 0.1 MB: the two memos hold at most 24 x 1.6 + 8 x 0.1
= 39 MB.

The value passes, :func:`_collect_values` and :func:`_inner_values`, take
a leading case axis: the (C, height, N) amplitude tables or (C, N, N)
overlap matrices of C cases that share a layout, in batches whose two
working tables hold at most ``LEAF_CHUNK`` entries (:func:`_batches`).  A
case's products and sums run in the order of its one-case call, so its
values do not depend on its batch, bit for bit; :func:`collect_expansion`,
:func:`expansion_inner_product` and :func:`substitution_sectors` are the
one-case calls, on kets.  ``verify`` draws every case as the fold's input,
n_up and (4, N) angle rows, and hands a block of them to
:func:`inner_product_rows` or :func:`substitution_rows`: these build the
cases' amplitudes in whole-array calls (:func:`mode_amplitudes`, with
:func:`states.mode_ket`'s arithmetic and pruning, bit for bit), split the
cases by layout and make one value pass per layout, with no ket object
and no dict.  A ``verify oracle`` run, at N <= 5, uses 14 collect, 5
inner-product and 18 :func:`_substitution_layout` layouts, under 0.1 MB.
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
    Statistics,
    SymmetricKet,
    _check_mode_rows,
    _ket_pattern,
    _odd_inversions,
    _pattern_terms,
    occupation_key,
)
from .tolerances import DEFAULT_TOLERANCES as TOL

#: most terms (slot assignment x label choice) one temporary array holds
LEAF_CHUNK = 2 ** 16
#: layouts each memo keeps, so that a ``verify oracle`` run reuses every
#: layout it builds: it needs one :func:`collect_expansion` layout and one
#: :func:`_substitution_layout` per (N, n_up) of its projections (at most
#: 18 at N = 2..5) and one :func:`expansion_inner_product` layout per N of
#: its amplitudes (5)
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


def _batches(cases: int, entries: int) -> List[slice]:
    """Slices of ``cases`` cases for a value pass whose tables hold
    ``entries`` entries a case: it keeps two tables at once (a running
    product and its next factor), which hold at most ``LEAF_CHUNK``
    entries together, or one case's alone when it has more.  Two N = 5
    inner products a batch (14,400 entries a table) also keep a batch
    within a 2 MB L2 cache, where four ran 10-20 % slower a case."""
    step = max(1, LEAF_CHUNK // max(1, 2 * entries))
    return [slice(start, start + step) for start in range(0, cases, step)]


def _lone_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b of complex arrays as numpy multiplies a lone pair through its
    broadcasting loop: unfused, (ar br - ai bi) + i (ar bi + ai br), each
    product rounded.  Its vector loop, which takes more pairs at once,
    fuses a multiply and an add where the CPU has FMA, so a value pass
    that multiplies one pair a case, for a batch of cases in one call,
    takes them apart here: each case gets the bits numpy gives its pair
    alone (``tests/test_oracles.py`` checks this against the per-call
    expansion)."""
    product = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    product.real = a.real * b.real - a.imag * b.imag
    product.imag = a.real * b.imag + a.imag * b.real
    return product


def _inner_values(layout: _InnerLayout, overlaps: np.ndarray) -> np.ndarray:
    """The double sums of C cases that share ``layout``, from their (C, N, N)
    overlap matrices: the value pass of :func:`expansion_inner_product`.

    For each pair of slot assignments the overlap is the product of the
    single-particle overlaps slot by slot: a (case, bra assignment, ket
    assignment) table taken slot by slot from the overlap matrices,
    contracted with the two coefficient vectors.  Every case sums its
    table as it would alone, so its value does not depend on the others.
    """
    n = overlaps.shape[1]
    totals = np.zeros(len(overlaps), dtype=complex)
    for bra_slots, bra_coeffs in layout.blocks:
        for batch in _batches(len(overlaps), bra_slots.shape[1] * len(layout.ket_coeffs)):
            overlap = overlaps[batch]
            # slot a's (bra assignment, ket assignment) overlaps: its ket
            # columns, then its bra rows, each a whole row copied
            table = overlap.take(layout.ket_slots[0], axis=2).take(bra_slots[0], axis=1)
            for slot in range(1, n):
                table *= overlap.take(layout.ket_slots[slot], axis=2).take(bra_slots[slot], axis=1)
            table *= layout.ket_coeffs
            totals[batch] += (bra_coeffs * table.sum(axis=2)).sum(axis=1)
    return totals


def expansion_inner_product(
    bras: Sequence[SingleParticleKet],
    kets: Sequence[SingleParticleKet],
    statistics: Statistics = Statistics.BOSON,
) -> complex:
    """Transition amplitude as the double sum over both label expansions:
    :func:`_inner_values` of the one overlap matrix, its slot tables
    indexed through the memoized :func:`_inner_layout`."""
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
    return complex(_inner_values(layout, overlap[None])[0])


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
    fermion leaves), each key's label codes (K, N) and its weight."""

    first: Tuple[int, ...]
    height: int
    chunks: Tuple[_Chunk, ...]
    bins: int
    labels: np.ndarray
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

    labels = (keys[:, None] // place % width).astype(np.min_scalar_type(width))
    if fermion:
        weight = 1.0 / math.sqrt(math.factorial(n))
    else:
        counts = (labels[:, :, None] == np.arange(width)).sum(axis=1)
        factorials = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
        weight = np.sqrt(factorials[counts].prod(axis=1)) / math.sqrt(math.factorial(n))
    return _frozen(_CollectLayout(tuple(first), max(sizes), tuple(chunks), len(keys) + 1, labels, weight))


def _memo_layout(
    statistics: Statistics, codes: Tuple[Tuple[int, ...], ...], pattern: Tuple[int, ...]
) -> Optional[_CollectLayout]:
    """:func:`_collect_layout` of this shape, memoized up to ``MEMO_LEAVES``
    leaves and built per call above."""
    leaves = math.factorial(len(codes)) * math.prod(map(len, codes))
    return (_collect_layout if leaves <= MEMO_LEAVES else _collect_layout.__wrapped__)(statistics, codes, pattern)


def _collect_values(layout: _CollectLayout, amps: np.ndarray) -> np.ndarray:
    """The weighted key amplitudes (C, K) of C cases that share ``layout``,
    from their (C, height, N) amplitude tables, column j the amplitudes of
    the first assignment's slot j ket in its label order: the value pass
    of :func:`collect_expansion`.

    Each chunk's (case, choice, term) tables are per-slot outer products
    along the terms, and ``np.bincount`` sums them with each case's keys
    offset by ``case * bins``, term by term and each term's leaves in
    order, so a case's sums are those it has alone.
    """
    cases = len(amps)
    totals = np.zeros((cases, 2, layout.bins))
    for chunk in layout.chunks:
        terms = chunk.coeffs.shape[1]
        # a case's leaves, or its (choice, slot, term) amplitudes if more
        for batch in _batches(cases, max(chunk.key.size, amps[0].size * terms)):
            table = amps[batch]
            count = len(table)
            # (case, choice, slot, term) tables: every product runs along the terms
            slot_amps = table.take(chunk.where, axis=2)
            value = chunk.coeffs[None]
            for slot, size in enumerate(chunk.sizes):
                multiply = _lone_product if value.shape[1] * size * terms == 1 else np.multiply
                value = multiply(value[:, :, None], slot_amps[:, None, :size, slot]).reshape(count, -1, terms)
            value = value.transpose(0, 2, 1)
            if chunk.flip is not None:
                value = np.where(chunk.flip, -value, value)
            keys = (chunk.key + layout.bins * np.arange(count)[:, None]).ravel()
            for part in range(2):
                sums = np.bincount(keys, (value.imag if part else value.real).ravel(), count * layout.bins)
                totals[batch, part] += sums.reshape(count, -1)
    total = totals[:, 0, :-1] + 1j * totals[:, 1, :-1]
    return total * layout.weight


def _collect_inputs(
    kets: Sequence[SingleParticleKet], statistics: Statistics
) -> Tuple[Tuple[BasisLabel, ...], Optional[_CollectLayout], Optional[np.ndarray]]:
    """The basis, layout and (height, N) amplitude table of
    :func:`collect_expansion` of these kets, or no layout and table when
    every term cancels."""
    basis = _basis(kets)
    index = {label: i for i, label in enumerate(basis)}
    codes = tuple(tuple(index[label] for label in ket.labels()) for ket in kets)
    layout = _memo_layout(statistics, codes, _ket_pattern(kets))
    if layout is None:
        return basis, None, None
    # each ket's amplitudes, one column a ket of the first assignment
    amps = np.zeros((layout.height, len(kets)), dtype=complex)
    for j, k in enumerate(layout.first):
        column = [amp for _, amp in kets[k].items()]
        amps[: len(column), j] = column
    return basis, layout, amps


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
    up to ``MEMO_LEAVES`` leaves; the amplitudes go through
    :func:`_collect_values` as a batch of one.
    """
    basis, layout, amps = _collect_inputs(kets, statistics)
    if layout is None:
        return {}
    total = _collect_values(layout, amps[None])[0]
    return {
        tuple(basis[c] for c in row): complex(amp)
        for row, amp in zip(layout.labels.tolist(), total.tolist())
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
    ``project`` has a fermion route for it to check;
    :func:`substitution_sectors` takes the ensemble's kets.
    """
    return substitution_sectors(ensemble.kets())


def _squares(parts: np.ndarray) -> np.ndarray:
    """``abs(v) ** 2`` of each complex v, as Python computes it: the
    modulus by ``hypot`` and its square by ``pow``."""
    return np.float_power(np.hypot(parts.real, parts.imag), 2.0)


def _substitution_values(
    totals: np.ndarray, on_detector: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The normalized amplitudes (C, K), whether each is kept (C, K) and
    the leaks (C,) of C boson cases from their :func:`_collect_values`
    totals, ``on_detector`` (K,) or (C, K) marking the keys with every
    label at L or R: the normalization of :func:`substitution_sectors`.

    A key is kept, as :func:`collect_expansion` keeps it, when its modulus
    is above the pruning threshold.  The norm sums the kept squares and
    the leak the kept off-detector squares of the normalized amplitudes,
    each in key order from zero (a running sum, as Python's ``sum`` adds),
    and a part is divided by the norm on its own, as a complex divided by
    a float is.
    """
    kept = np.hypot(totals.real, totals.imag) > TOL.pruning
    norm = np.sqrt(np.cumsum(np.where(kept, _squares(totals), 0.0), axis=1)[:, -1:])
    values = np.empty_like(totals)
    values.real = totals.real / norm
    values.imag = totals.imag / norm
    leak = np.cumsum(np.where(kept & ~on_detector, _squares(values), 0.0), axis=1)[:, -1]
    return values, kept, leak


def substitution_sectors(
    kets: Sequence[SingleParticleKet],
) -> Tuple[Dict[int, Dict[OccupationKey, complex]], float]:
    """:func:`project_by_substitution` of the boson ensemble of these kets:
    :func:`_substitution_values` of its :func:`collect_expansion` totals
    as a batch of one."""
    basis, layout, amps = _collect_inputs(kets, Statistics.BOSON)
    on_detector = np.array([label[0] in ("L", "R") for label in basis])[layout.labels].all(axis=1)
    values, kept, leak = _substitution_values(_collect_values(layout, amps[None]), on_detector)
    sectors: Dict[int, Dict[OccupationKey, complex]] = {}
    for row, value, keep, detected in zip(layout.labels.tolist(), values[0].tolist(), kept[0], on_detector):
        if keep and detected:
            key = tuple(basis[c] for c in row)
            q = sum(1 for lab in key if lab[0] == "L")
            sectors.setdefault(q, {})[key] = value
    return sectors, float(leak[0])


# -- the oracles of cases drawn as angle rows ------------------------------


def mode_amplitudes(angles: np.ndarray) -> np.ndarray:
    """The (..., N, 3) amplitudes on L, R and the remainder of the mode kets
    of (4, ..., N) angle rows, as :func:`states._mode_ket` computes them
    (``cmath.rect`` is r cos(a) + i r sin(a)) and 0 where it prunes a
    label, bit for bit.  SpatialMode's checks run once on the whole array
    (:func:`states._check_mode_rows`)."""
    _check_mode_rows(angles)
    theta, _, phi, _ = angles
    # omega and gamma wrapped into [0, 2*pi) as states._wrap wraps a phase
    phases = angles[1::2] % (2.0 * math.pi) % (2.0 * math.pi)
    sin_phi = np.sin(phi)
    amps = np.zeros(theta.shape + (3,), dtype=complex)
    amps[..., 0].real = sin_phi * np.cos(theta)
    for column, radius, phase in ((1, sin_phi * np.sin(theta), phases[0]), (2, np.cos(phi), phases[1])):
        amps[..., column].real = radius * np.cos(phase)
        amps[..., column].imag = radius * np.sin(phase)
    amps[np.hypot(amps.real, amps.imag) <= TOL.pruning] = 0.0
    return amps


def _ket_patterns(amps: np.ndarray, down: np.ndarray) -> np.ndarray:
    """:func:`states._ket_pattern` of each ensemble of (..., C, N, 3) mode
    amplitudes whose particles' spins are ``down`` (C, N): each particle's
    first particle of its spin with equal amplitudes."""
    equal = (amps[..., :, None, :] == amps[..., None, :, :]).all(axis=-1)
    return (equal & (down[:, :, None] == down[:, None, :])).argmax(axis=-1)


def _splits(keys: np.ndarray) -> List[np.ndarray]:
    """The case indices of each distinct key, in case order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    bounds = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), len(keys)]
    return [order[start:stop] for start, stop in zip(bounds, bounds[1:]) if stop > start]


def _spins_down(n_up: np.ndarray, n: int) -> np.ndarray:
    """(C, N) whether each particle is spin-down, spin-up particles first."""
    return np.arange(n) >= np.asarray(n_up)[:, None]


def inner_product_rows(n_up: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """:func:`expansion_inner_product` of the boson bra and ket of each of C
    pairs of (4, 2, C, N) angle rows (bras first), the n_up[c] spin-up
    particles of pair c first on both sides: one :func:`_inner_values`
    call per pair of equal-ket patterns.

    Each particle's amplitudes take the columns of its spin among the six
    labels in canonical order, and each overlap sums all six: a label
    that neither ket of a product uses adds an exact zero to a sum that
    starts from zero, so the sum is the one-case call's over the labels
    the pair uses, bit for bit.
    """
    amps = mode_amplitudes(angles)
    n = angles.shape[-1]
    down = _spins_down(n_up, n)[..., None]
    dense = np.stack([np.where(down, 0.0, amps), np.where(down, amps, 0.0)], axis=-1)
    dense = dense.reshape(amps.shape[:-1] + (6,))
    # overlaps[c, b, k] = <bra b | ket k> of pair c
    products = dense[0].conj()[:, :, None, :] * dense[1][:, None, :, :]
    if n == 1:
        # two kets of one label: the one-case call multiplies one pair
        lone = ((dense != 0).any(axis=0).sum(axis=-1) == 1)[:, 0]
        products[lone] = _lone_product(dense[0, lone].conj()[:, :, None, :], dense[1, lone][:, None, :, :])
    overlaps = products.sum(axis=3)
    patterns = _ket_patterns(amps, down[..., 0])
    values = np.empty(angles.shape[2], dtype=complex)
    for members in _splits((patterns * n ** np.arange(2 * n).reshape(2, 1, n)).sum(axis=(0, 2))):
        bra, ket = patterns[:, members[0]].tolist()
        values[members] = _inner_values(_inner_layout(Statistics.BOSON, tuple(bra), tuple(ket)), overlaps[members])
    return values


class _SubstitutionLayout(NamedTuple):
    """What :func:`substitution_rows` reads, beyond the amplitudes, for the
    ensembles of one n_up whose particles keep the same labels and share
    an equal-ket pattern: the label codes and pattern of their
    :func:`_collect_layout`, the (height, N) indices that gather its
    amplitude table from a case's N * 3 flattened amplitudes and a zero
    after them, and each key's outcome index, a * (N + 1) + b for a key
    with a spin-up and b spin-down particles at L, or (N + 1) ** 2 for a
    key off the detectors."""

    codes: Tuple[Tuple[int, ...], ...]
    pattern: Tuple[int, ...]
    gather: np.ndarray
    outcome: np.ndarray


@functools.lru_cache(maxsize=COLLECT_MEMO)
def _substitution_layout(
    n_up: int, kept: Tuple[Tuple[bool, ...], ...], pattern: Tuple[int, ...]
) -> _SubstitutionLayout:
    """The :class:`_SubstitutionLayout` of ensembles of n_up spin-up
    particles first, each particle keeping the labels ``kept`` marks among
    L, R and the remainder.  The labels' canonical order is (L, up),
    (L, down), (R, up), (R, down), then the remainder's: label kind times
    two plus the spin, so a key's canonical codes name its outcome."""
    n = len(pattern)
    kinds = [[kind for kind, keep in enumerate(row) if keep] for row in kept]
    spins = [int(j >= n_up) for j in range(n)]
    basis = sorted({2 * kind + spin for row, spin in zip(kinds, spins) for kind in row})
    position = {label: code for code, label in enumerate(basis)}
    codes = tuple(tuple(position[2 * kind + spin] for kind in row) for row, spin in zip(kinds, spins))
    layout = _memo_layout(Statistics.BOSON, codes, pattern)
    gather = np.full((layout.height, n), 3 * n)
    for j, k in enumerate(layout.first):
        gather[: len(kinds[k]), j] = [3 * k + kind for kind in kinds[k]]
    labels = np.array(basis)[layout.labels]
    detected = (labels == 0).sum(axis=1) * (n + 1) + (labels == 1).sum(axis=1)
    outcome = np.where((labels < 4).all(axis=1), detected, (n + 1) ** 2)
    return _frozen(_SubstitutionLayout(codes, pattern, gather, outcome))


def substitution_rows(n_up: np.ndarray, angles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`substitution_sectors` of the boson ensemble of each of C
    cases of (4, C, N) angle rows, the n_up[c] spin-up particles of case c
    first, as arrays: the (C, N + 1, N + 1) outcome amplitudes, [c, a, b]
    that of the key with a spin-up and b spin-down particles at L (0 where
    the sectors hold none), and the (C,) leaks.

    One :func:`_collect_values` call per layout, the cases of one
    :func:`_substitution_layout`, whose keys' totals fill a row each of a
    zero-padded (C, K) array, then one :func:`_substitution_values` call:
    the padding's zeros are no kept keys, so each case's sums are its
    own.
    """
    amps = mode_amplitudes(angles)
    cases, n = amps.shape[:2]
    present = amps != 0
    patterns = _ket_patterns(amps, _spins_down(n_up, n))
    # a case's layout: its n_up, the labels its particles keep and its pattern
    keys = np.asarray(n_up) * 2 ** (3 * n) + (present.reshape(cases, 3 * n) * 2 ** np.arange(3 * n)).sum(axis=1)
    keys = keys * n ** n + (patterns * n ** np.arange(n)).sum(axis=1)
    splits = []
    for members in _splits(keys):
        case = members[0]
        labels = tuple(map(tuple, present[case].tolist()))
        splits.append((members, _substitution_layout(int(n_up[case]), labels, tuple(patterns[case].tolist()))))
    # each case's amplitudes, then a zero for the tables' padding
    flat = np.concatenate([amps.reshape(cases, 3 * n), np.zeros((cases, 1))], axis=1)
    width = max((len(shape.outcome) for _, shape in splits), default=1)
    totals = np.zeros((cases, width), dtype=complex)
    outcome = np.full((cases, width), (n + 1) ** 2)
    for members, shape in splits:
        layout = _memo_layout(Statistics.BOSON, shape.codes, shape.pattern)
        totals[members, : len(shape.outcome)] = _collect_values(layout, flat[members][:, shape.gather])
        outcome[members, : len(shape.outcome)] = shape.outcome
    on_detector = outcome < (n + 1) ** 2
    values, kept, leak = _substitution_values(totals, on_detector)
    # one slot past the outcomes takes every other key, then is dropped
    reference = np.zeros((cases, (n + 1) ** 2 + 1), dtype=complex)
    np.put_along_axis(reference, outcome, np.where(kept & on_detector, values, 0.0), axis=1)
    return reference[:, :-1].reshape(cases, n + 1, n + 1), leak
