"""The one-loop spin-block fold against the per-block loop it replaced.

``fold._fock_blocks`` folds every block stacked in its rows in one
particle loop.  Each row gets the arithmetic of the per-block loop
below, so every amplitude, ``fold_amplitude`` value and projection is the
same to the bit, sign bits of zeros included.
"""

import math
from collections import Counter

import numpy as np
import pytest

from identangle import fold
from identangle.errors import RowError, SizeLimitError


def per_block_fold(c, s, r):
    """One block's Fock amplitudes, folded particle by particle on its own."""
    g, n = c.shape
    coeffs = np.ones((g, 1, 1), dtype=complex)
    cs, ss, rs = (x.T[:, :, None, None] for x in (c, s, r))
    for k in range(n):
        nxt = np.zeros((g, k + 2, k + 2), dtype=complex)
        nxt[:, :-1, :-1] = rs[k] * coeffs
        nxt[:, 1:, :-1] += cs[k] * coeffs
        nxt[:, :-1, 1:] += ss[k] * coeffs
        coeffs = nxt
    return coeffs * fold._block_layout(n)[2]


def per_block_amplitude(bra_n_up, ket_n_up, theta, omega, phi, gamma):
    """fold_amplitude with each spin block folded on its own."""
    c, s, r = fold._mode_amplitudes(theta, omega, phi, gamma)
    if bra_n_up != ket_n_up:
        return 0j
    blocks = (slice(None, ket_n_up), slice(ket_n_up, None))
    value = 1.0
    for block in blocks:
        bra, ket = per_block_fold(c[:, block], s[:, block], r[:, block])
        value *= np.vdot(bra, ket)
    root_repeats = 1.0
    for row in zip(c.tolist(), s.tolist(), r.tolist()):
        triples = list(zip(*row))
        for block in blocks:
            for k in Counter(triples[block]).values():
                root_repeats *= math.sqrt(math.factorial(k))
    return complex(value / root_repeats)


def same_bits(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def seeded_angles(rng, g, n):
    """(G, n) angles with edge values: theta at 0 and pi/2, omega = 0
    rows, repeated modes, and leaking particles (phi < pi/2)."""
    theta = rng.uniform(0.0, math.pi / 2, (g, n))
    omega = rng.uniform(-7.0, 7.0, (g, n))
    phi = np.where(rng.random((g, n)) < 0.5, math.pi / 2, rng.uniform(0.0, math.pi / 2, (g, n)))
    gamma = rng.uniform(0.0, 7.0, (g, n))
    edge = rng.random((g, n))
    theta[edge < 0.1] = 0.0
    theta[edge > 0.9] = math.pi / 2
    omega[rng.random(g) < 0.3] = 0.0
    if n > 1:
        # particle 0 repeated on particle 1 in about half the rows
        copy = rng.random(g) < 0.5
        for angle in (theta, omega, phi, gamma):
            angle[copy, 1] = angle[copy, 0]
    return theta, omega, phi, gamma


def per_block_reference(c, s, r, blocks=None, start=None, raw=False):
    """:func:`fold._fock_blocks` by the per-block loop: each stacked block
    folded on its own, from the vacuum and scaled."""
    assert start is None and not raw
    blocks = [(len(c), c.shape[1])] if blocks is None else blocks
    starts = [0] + [end for end, _ in blocks[:-1]]
    return [per_block_fold(*(x[start:end, :n] for x in (c, s, r))) for start, (end, n) in zip(starts, blocks)]


def stack(blocks):
    """Blocks of (c, s, r) rows, stacked largest first as _fock_blocks
    takes them: the stacked arrays, the (end row, count) list and each
    block's place in it."""
    order = sorted(range(len(blocks)), key=lambda b: -blocks[b][0].shape[1])
    width = max(block[0].shape[1] for block in blocks)
    stacked = [np.zeros((sum(len(block[0]) for block in blocks), width), dtype=complex) for _ in range(3)]
    layout, end = [], 0
    for b in order:
        g, n = blocks[b][0].shape
        for array, x in zip(stacked, blocks[b]):
            array[end : end + g, :n] = x
        end += g
        layout.append((end, n))
    return stacked, layout, order


def test_one_loop_fold_is_bit_identical_to_the_per_block_loop():
    rng = np.random.default_rng(28)
    checked = set()
    for case in range(600):
        n_blocks = int(rng.integers(1, 5))
        rows = [400] if case % 100 == 0 else list(range(6))
        if case % 3 == 0:  # equal sizes
            sizes = [int(rng.integers(0, 41))] * n_blocks
        else:  # lopsided ones
            sizes = [int(rng.choice([0, 1, 2, int(rng.integers(0, 41))])) for _ in range(n_blocks)]
        blocks = []
        for n in sizes:
            g = int(rng.choice(rows))
            blocks.append(fold._mode_amplitudes(*seeded_angles(rng, g, n)))
            checked.add((g, n))
        stacked, layout, order = stack(blocks)
        got = fold._fock_blocks(*stacked, layout)
        assert len(got) == len(blocks)
        for amps, b in zip(got, order):
            assert same_bits(amps, per_block_fold(*blocks[b])), (case, layout)
        # a lone block, from its own (real c) arrays
        assert same_bits(fold._fock_blocks(*blocks[0])[0], per_block_fold(*blocks[0]))
    assert {g for g, _ in checked} == {0, 1, 2, 3, 4, 5, 400}
    assert {n for _, n in checked} == set(range(41))


def test_fold_amplitude_is_repr_identical_to_the_per_block_route():
    rng = np.random.default_rng(2028)
    kinds = Counter()
    for case in range(1200):
        n_total = int(rng.integers(1, 31))
        ket_n_up = int(rng.choice([0, n_total, int(rng.integers(0, n_total + 1))]))
        bra_n_up = ket_n_up if case % 10 else int(rng.integers(0, n_total + 1))
        angles = seeded_angles(rng, 2, n_total)
        got = fold.fold_amplitude(bra_n_up, ket_n_up, *angles)
        want = per_block_amplitude(bra_n_up, ket_n_up, *angles)
        assert repr(got) == repr(want), (case, got, want)
        kinds["unequal" if bra_n_up != ket_n_up else "single spin" if ket_n_up in (0, n_total) else "both"] += 1
    assert min(kinds.values()) >= 100, kinds


@pytest.mark.parametrize("n_up, n_total", [(0, 3), (2, 5), (7, 7), (1, 12), (30, 40), (60, 80)])
def test_projection_is_bit_identical_to_the_per_block_loop(monkeypatch, n_up, n_total):
    # a small batch folds both blocks in one loop, and (30, 40) and (60, 80)
    # at G = 6 each block on its own
    rng = np.random.default_rng(n_total)
    for g in (1, 6):
        angles = seeded_angles(rng, g, n_total)
        got = fold._project_batch(n_up, *angles)
        with monkeypatch.context() as patch:
            patch.setattr(fold, "_fock_blocks", per_block_reference)
            want = fold._project_batch(n_up, *angles)
        for a, b in zip(got, want):
            assert same_bits(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def test_fold_amplitude_is_its_row_of_fold_amplitudes():
    # a pair's amplitude is the same to the bit, sign bits included, in a
    # batch of any size: fold_amplitude is the batch of one
    rng = np.random.default_rng(29)
    pairs, n_ups = 0, set()
    while pairs < 300:
        n_total = int(rng.choice([int(rng.integers(1, 13)), int(rng.integers(13, 41)), int(rng.integers(41, 171))]))
        n_total = n_total if pairs else fold.PROJECTION_SIZE_LIMIT
        n_up = int(rng.choice([0, n_total, int(rng.integers(0, n_total + 1))]))
        g = int(rng.integers(1, 13)) if n_total <= 40 else int(rng.integers(1, 4))
        angles = np.stack(seeded_angles(rng, 2 * g, n_total)).reshape(4, 2, g, n_total)
        batch = fold.fold_amplitude_groups([(n_up, angles)])[0]
        assert batch.shape == (g,)
        for pair in range(g):
            one = fold.fold_amplitude(n_up, n_up, *angles[:, :, pair])
            assert same_bits(np.array([one]), batch[pair : pair + 1]), (n_total, n_up, g, pair)
        pairs += g
        n_ups.add("none" if n_up == 0 else "all" if n_up == n_total else "some")
    assert n_ups == {"none", "all", "some"}


def test_grouped_calls_are_bit_identical_to_the_group_loop():
    # one grouped projection or amplitude call folds every group's blocks
    # together; each group must read what its own call reads, to the bit
    rng = np.random.default_rng(32)
    seen = set()
    for case in range(200):
        groups, pairs = [], []
        for _ in range(int(rng.integers(1, 26))):
            n_total = int(rng.integers(1, 9))
            n_up = int(rng.integers(0, n_total + 1))
            g = int(rng.choice([1, 2, int(rng.integers(1, 7)), int(rng.integers(7, 60))]))
            groups.append((n_up, np.stack(seeded_angles(rng, g, n_total))))
            pairs.append((n_up, np.stack(seeded_angles(rng, 2 * g, n_total)).reshape(4, 2, g, n_total)))
            seen.add((n_total, n_up))
        projections = fold._project_groups(groups)
        assert len(projections) == len(groups)
        for got, (n_up, angles) in zip(projections, groups):
            for a, b in zip(got, fold._project_batch(n_up, *angles)):
                assert same_bits(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)), case
        amplitudes = fold.fold_amplitude_groups(pairs)
        assert len(amplitudes) == len(pairs)
        for got, (n_up, angles) in zip(amplitudes, pairs):
            assert same_bits(got, fold.fold_amplitude_groups([(n_up, angles)])[0]), case
    assert seen == {(n, k) for n in range(1, 9) for k in range(n + 1)}


def test_grouped_calls_of_no_groups_return_none():
    assert fold._project_groups([]) == []
    assert fold.fold_amplitude_groups([]) == []


def first_error(evaluate, groups):
    """The error the loop over the groups, one call each, raises first."""
    for n_up, angles in groups:
        try:
            evaluate(n_up, *angles)
        except (RowError, SizeLimitError) as exc:
            return exc
    return None


def test_grouped_calls_raise_the_group_loops_first_error():
    # a NaN angle fails its particle's norm check; with failing rows in
    # several groups, and a group above the size cap, a grouped call raises
    # what its group loop raises first, with the same row and message
    rng = np.random.default_rng(33)
    failures = Counter()
    for case in range(60):
        groups, pairs = [], []
        for _ in range(int(rng.integers(2, 8))):
            n_total = int(rng.integers(1, 7)) if rng.random() < 0.9 else fold.PROJECTION_SIZE_LIMIT + 1
            n_up = int(rng.integers(0, n_total + 1))
            g = int(rng.integers(1, 6))
            angles = np.stack(seeded_angles(rng, g, n_total))
            pair_angles = np.stack(seeded_angles(rng, 2 * g, n_total)).reshape(4, 2, g, n_total)
            for array in (angles, pair_angles):
                if rng.random() < 0.4:
                    array[(int(rng.integers(4)), *(int(rng.integers(k)) for k in array.shape[1:]))] = np.nan
            groups.append((n_up, angles))
            pairs.append((n_up, pair_angles))
        for grouped, single, items in (
            (fold._project_groups, fold._project_batch, groups),
            (fold.fold_amplitude_groups, lambda n_up, *angles: fold.fold_amplitude_groups([(n_up, angles)])[0], pairs),
        ):
            expected = first_error(single, items)
            if expected is None:
                grouped(items)
                continue
            with pytest.raises(type(expected)) as info:
                grouped(items)
            assert str(info.value) == str(expected), case
            if isinstance(expected, RowError):
                assert info.value.row == expected.row, case
            failures[type(expected).__name__] += 1
    assert failures["RowError"] >= 20 and failures["SizeLimitError"] >= 5, failures
