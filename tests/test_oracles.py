"""The memoized expansion oracles against their per-call form.

``oracles.collect_expansion`` and ``expansion_inner_product`` split each
call into a memoized index layout, keyed by the expansion's shape, and a
value pass over the kets' amplitudes.  The per-call functions below build
the whole expansion on every call, as the oracles did before the split;
both must give equal values, whether a call builds its layout or reuses
one that kets of other amplitudes built.  ``oracles.rows_kets`` builds the
kets of angle rows in one pass; they must equal the kets of
``rows_ensemble`` and of the former mode_ket arithmetic bit for bit.
"""

import math
from collections import Counter
from itertools import product

import numpy as np
import pytest

from identangle import oracles
from identangle.errors import ConsistencyError, SizeLimitError
from identangle.oracles import LEAF_CHUNK, _basis, collect_expansion, expansion_inner_product
from identangle.states import (
    SingleParticleKet,
    SpatialMode,
    Spin,
    Statistics,
    _expansion_terms,
    _odd_inversions,
    mode_ket,
)
from identangle.tolerances import DEFAULT_TOLERANCES as TOL

from conftest import random_ket


def per_call_inner_product(bras, kets, statistics):
    """expansion_inner_product with its index tables built on every call."""
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


def per_call_collect_expansion(kets, statistics):
    """collect_expansion with its index tables built on every call."""
    n = len(kets)
    slots, coeffs = _expansion_terms(kets, statistics)
    basis = _basis(kets)
    width = len(basis)
    if width ** n > np.iinfo(np.int64).max:
        raise SizeLimitError(f"collect_expansion encodes keys in base {width}, which overflows at N = {n}")
    if len(slots) == 0:
        return {}
    index = {label: i for i, label in enumerate(basis)}
    fermion = statistics is Statistics.FERMION
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
    table = np.full(len(codes), len(keys))
    table[distinct] = key_of
    amps = np.zeros((max(sizes), n), dtype=complex)
    offsets = np.zeros((max(sizes), n), dtype=np.intp)
    for j, ket in enumerate(first):
        amps[: sizes[j], j] = [amp for _, amp in ket.items()]
        offsets[: sizes[j], j] = np.arange(sizes[j]) * stride[j]
    where = np.empty_like(slots)
    np.put_along_axis(
        where, np.argsort(slots, axis=1, kind="stable"),
        np.argsort(slots[0], kind="stable")[None], axis=1,
    )
    if fermion:
        odd_slots, odd_codes = _odd_inversions(where), _odd_inversions(codes)
    totals = np.zeros((2, len(keys) + 1))
    pattern = np.array(sizes)[where]
    _, samples, group = np.unique(
        (pattern - 1) @ max(sizes) ** np.arange(n), return_index=True, return_inverse=True
    )
    block = max(1, LEAF_CHUNK // len(codes))
    for g, sample in enumerate(samples.tolist()):
        members = np.flatnonzero(group == g)
        for start in range(0, len(members), block):
            terms = members[start : start + block]
            slot_amps = np.take(amps, where[terms].T, axis=1)
            slot_offsets = np.take(offsets, where[terms].T, axis=1)
            value = coeffs[None, terms]
            leaf = np.zeros((1, len(terms)), dtype=np.intp)
            for slot, size in enumerate(pattern[sample].tolist()):
                value = (value[:, None] * slot_amps[:size, slot]).reshape(-1, len(terms))
                leaf = (leaf[:, None] + slot_offsets[:size, slot]).reshape(-1, len(terms))
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


#: labels of the kets that are not mode kets: 1 to 3 each, overlapping
POOL = tuple((f"m{i}", spin) for i in range(4) for spin in Spin)


def draw_shape(rng, n, wide):
    """What fixes an expansion's layout, drawn for n kets: each ket's
    labels (a mode ket's spin, leak and pruned label, or up to 3 pool
    labels; 3 labels only when ``wide``) and the ket it repeats."""
    shape = []
    for j in range(n):
        copy = int(rng.integers(j)) if j and rng.random() < 0.25 else None
        if rng.random() < 0.7:
            edge = rng.choice([None, None, 0.0, math.pi / 2])
            kind = ("mode", Spin.UP if rng.random() < 0.5 else Spin.DOWN, wide and rng.random() < 0.5, edge)
        else:
            size = int(rng.integers(1, 4 if wide else 3))
            kind = ("pool", tuple(POOL[k] for k in rng.choice(len(POOL), size, replace=False)))
        shape.append((copy, kind))
    return shape


def kets_of(rng, shape):
    """Kets of a drawn shape at fresh random amplitudes."""
    kets = []
    for copy, kind in shape:
        if copy is not None:
            kets.append(kets[copy])
        elif kind[0] == "pool":
            kets.append(random_ket(rng, kind[1]))
        else:
            _, spin, leak, edge = kind
            theta = float(rng.uniform(0.05, 1.5)) if edge is None else edge
            phi = float(rng.uniform(0.2, 1.4)) if leak else math.pi / 2
            mode = SpatialMode(theta, float(rng.uniform(0, 2 * math.pi)), phi, float(rng.uniform(0, 2 * math.pi)))
            kets.append(mode_ket(mode, spin))
    return kets


def features(kets):
    sizes = {len(ket.labels()) for ket in kets}
    return {
        "repeat": len({id(ket) for ket in kets}) < len(kets),
        "leak": any(label[0] == "chi" for ket in kets for label in ket.labels()),
        "pruned": any(len(ket.labels()) == 1 and next(iter(ket.labels()))[0] in "LR" for ket in kets),
        "mixed": len(sizes) > 1,
    }


def test_memoized_oracles_equal_the_per_call_code():
    rng = np.random.default_rng(2029)
    oracles._collect_layout.cache_clear()
    oracles._inner_layout.cache_clear()
    seen = Counter()
    hits = {oracles._collect_layout: 0, oracles._inner_layout: 0}
    for case in range(320):
        n = 1 + case % 6
        statistics = list(Statistics)[case // 6 % 2]
        # three labels per ket at N = 6 in a few cases: 720 x 729 leaves each
        wide = n < 6 or case % 48 == 5
        ket_shape, bra_shape = draw_shape(rng, n, wide), draw_shape(rng, n, wide)
        kets, bras = kets_of(rng, ket_shape), kets_of(rng, bra_shape)
        # the twins share the shape, so the layouts, at other amplitudes
        twin_kets, twin_bras = kets_of(rng, ket_shape), kets_of(rng, bra_shape)
        for memo, check in (
            (oracles._collect_layout, lambda k, b: collect_expansion(k, statistics) == per_call_collect_expansion(k, statistics)),
            (oracles._inner_layout, lambda k, b: expansion_inner_product(b, k, statistics) == per_call_inner_product(b, k, statistics)),
        ):
            for k, b in ((kets, bras), (twin_kets, twin_bras)):
                before = memo.cache_info().hits
                assert check(k, b), (case, memo.__name__)
                hits[memo] += memo.cache_info().hits - before
            # the twin's call at least reused the layout its sibling built
            assert memo.cache_info().hits > before, (case, memo.__name__)
        seen[n, statistics] += 1
        seen.update(name for name, present in features(kets).items() if present)
        seen["cancelled"] += statistics is Statistics.FERMION and not collect_expansion(kets, statistics)
    assert {key for key in seen if isinstance(key, tuple)} == {(n, s) for n in range(1, 7) for s in Statistics}
    assert min(seen[name] for name in ("repeat", "leak", "pruned", "mixed", "cancelled")) >= 10, seen
    for memo in hits:
        # every layout was built once (a miss) and reused (a hit)
        info = memo.cache_info()
        assert info.misses > 0 and hits[memo] >= 320, (memo.__name__, info)


def test_layouts_are_read_only():
    kets = [mode_ket(SpatialMode(0.3 + 0.2 * j, 0.5 * j, 1.2), spin) for j, spin in enumerate([Spin.UP, Spin.UP, Spin.DOWN])]
    collect_expansion(kets, Statistics.FERMION)
    expansion_inner_product(kets, kets, Statistics.FERMION)
    collect = oracles._collect_layout(Statistics.FERMION, ((0, 1, 2), (0, 1, 2), (3, 4, 5)), (0, 1, 2))
    inner = oracles._inner_layout(Statistics.FERMION, (0, 1, 2), (0, 1, 2))
    arrays = [inner.ket_slots, inner.ket_coeffs, *(array for block in inner.blocks for array in block)]
    arrays += [array for chunk in collect.chunks for array in chunk if isinstance(array, np.ndarray)]
    assert arrays and not any(array.flags.writeable for array in arrays)


def test_a_layout_above_the_memo_bound_is_built_per_call(monkeypatch):
    rng = np.random.default_rng(31)
    kets = [random_ket(rng, POOL[j : j + 2]) for j in range(4)]
    oracles._collect_layout.cache_clear()
    monkeypatch.setattr(oracles, "MEMO_LEAVES", 24 * 2 ** 4 - 1)
    for statistics in Statistics:
        assert collect_expansion(kets, statistics) == per_call_collect_expansion(kets, statistics)
    assert oracles._collect_layout.cache_info().currsize == 0
    monkeypatch.setattr(oracles, "MEMO_LEAVES", 24 * 2 ** 4)
    collect_expansion(kets)
    assert oracles._collect_layout.cache_info().currsize == 1


@pytest.mark.parametrize("statistics", list(Statistics))
def test_worst_layouts_at_the_expansion_cap_fit_the_stated_bytes(statistics):
    # N = 6 kets of three labels each, no two alike: 720 x 729 leaves with
    # 730 key bins, the largest memoized collect layout, and 720 bra and
    # ket assignments; the module docstring states 1.6 MB and 0.1 MB
    def nbytes(part):
        if isinstance(part, np.ndarray):
            return part.nbytes
        return sum(map(nbytes, part)) if isinstance(part, tuple) else 0

    codes = tuple(tuple(range(3 * j, 3 * j + 3)) for j in range(6))
    assert math.factorial(6) * 3 ** 6 == oracles.MEMO_LEAVES
    assert nbytes(oracles._collect_layout.__wrapped__(statistics, codes, tuple(range(6)))) <= 1.6e6
    assert nbytes(oracles._inner_layout.__wrapped__(statistics, tuple(range(6)), tuple(range(6)))) <= 0.1e6


# -- kets built from angle rows in one pass -----------------------------------


def former_mode_ket(theta, omega, phi, gamma, spin):
    """The ket of a mode as mode_ket built it through SpatialMode and the
    checking SingleParticleKet constructor, with its arithmetic written out."""
    mode = SpatialMode(theta, omega, phi, gamma)
    sin_phi, cos_phi = math.sin(mode.phi), math.cos(mode.phi)
    return SingleParticleKet({
        ("L", spin): sin_phi * math.cos(mode.theta),
        ("R", spin): sin_phi * math.sin(mode.theta) * complex(math.cos(mode.omega), math.sin(mode.omega)),
        ("chi", spin): cos_phi * complex(math.cos(mode.gamma), math.sin(mode.gamma)),
    })


def bits(kets):
    """Each ket's labels and the bit patterns of its amplitudes, in order."""
    return [[(label, value.real.hex(), value.imag.hex()) for label, value in ket.items()] for ket in kets]


def test_one_pass_kets_equal_the_ensemble_kets_bit_for_bit():
    rng = np.random.default_rng(4111)
    bounded_edges = [0.0, math.pi / 2, math.pi / 4, 1e-300]
    phase_edges = [-1e-20, 0.0, 2 * math.pi, 7.5, -3.0, 1e3, math.pi]
    seen = Counter()
    for case in range(200):
        n = 1 + case % 6
        g = 1 + case % 3
        angles = np.array([
            rng.uniform(0.0, math.pi / 2, (g, n)),
            rng.uniform(-10.0, 20.0, (g, n)),
            np.where(rng.random((g, n)) < 0.5, rng.uniform(0.0, math.pi / 2, (g, n)), math.pi / 2),
            rng.uniform(-10.0, 20.0, (g, n)),
        ])
        for row, edges in ((0, bounded_edges), (1, phase_edges), (2, bounded_edges), (3, phase_edges)):
            edge = rng.random((g, n)) < 0.3
            angles[row][edge] = rng.choice(edges, int(edge.sum()))
        n_up = int(rng.integers(0, n + 1))
        got = oracles.rows_kets(n_up, angles)
        assert len(got) == g
        for ensemble, kets in enumerate(got):
            rows = angles[:, ensemble]
            expected = oracles.rows_ensemble(n_up, rows).kets()
            assert bits(kets) == bits(expected), (case, ensemble)
            spins = [Spin.UP if j < n_up else Spin.DOWN for j in range(n)]
            assert bits(kets) == bits([former_mode_ket(*column, spin) for column, spin in zip(rows.T.tolist(), spins)])
            assert [ket.signature() for ket in kets] == [ket.signature() for ket in expected]
        for name, row, values in (
            ("theta 0", 0, [0.0]), ("theta pi/2", 0, [math.pi / 2]), ("phi pi/2", 2, [math.pi / 2]),
            ("omega -1e-20", 1, [-1e-20]), ("gamma -1e-20", 3, [-1e-20]),
        ):
            seen[name] += bool(np.isin(angles[row], values).any())
        seen["phase beyond 2 pi"] += bool((angles[1::2] > 2 * math.pi).any())
    assert min(seen.values()) >= 10 and len(seen) == 6, seen


def test_one_pass_kets_on_a_pair_block_follow_c_order():
    # (4, 2, G, N) bra and ket rows: all G bras' kets, then the kets'
    rng = np.random.default_rng(5)
    angles = rng.uniform(0.0, 1.5, (4, 2, 3, 4))
    got = oracles.rows_kets(2, angles)
    expected = [oracles.rows_ensemble(2, angles[:, side, row]).kets() for side in range(2) for row in range(3)]
    assert list(map(bits, got)) == list(map(bits, expected))


@pytest.mark.parametrize("row, value, message", [
    (0, math.nan, "theta must be finite, got nan"),
    (1, math.inf, "omega must be finite, got inf"),
    (3, -math.inf, "gamma must be finite, got -inf"),
    (0, -0.1, r"theta must lie in \[0, pi/2\], got -0.1"),
    (2, 1.6, r"phi must lie in \[0, pi/2\], got 1.6"),
])
def test_one_pass_kets_apply_the_mode_checks(row, value, message):
    angles = np.full((4, 2, 3), 0.5)
    angles[row, 1, 2] = value
    with pytest.raises(ConsistencyError, match=message):
        oracles.rows_kets(1, angles)
    with pytest.raises(ConsistencyError, match=message):
        oracles.rows_ensemble(1, angles[:, 1])
