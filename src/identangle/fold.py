"""The spin-block fold that every command runs on: detector projections and
transition amplitudes of ensembles given as (G, N) angle rows, spin-up
first.  Each spin block lies in span{L, R, chi}, so its state follows from
its particles' (c, s, r) amplitudes: Fock amplitudes for bosons, minors for
fermions.  A sweep over a grid of angle values (:class:`GridSweep`) folds
each block's fixed particles once and continues that fold per setting of
the swept ones; a chunk of its rows whose settings fail a check is
evaluated again, row by row, by :func:`sweep_grid`, which names the first
failing row.  Every projection ends in one combine step
(:func:`_combine`).  Batches of several (N, n_up) groups fold in one
grouped call (:func:`_project_groups`, :func:`fold_amplitude_groups`),
each row's arithmetic that of the row alone.  Past numpy and the stdlib
it imports only ``errors`` and ``tolerances``; ``detection`` and
``measures`` build on it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import Counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConsistencyError, NullStateError, RowError, SizeLimitError
from .tolerances import DEFAULT_TOLERANCES as TOL


#: a block's unnormalized norm^2 reaches N! when all its modes coincide,
#: and 171! overflows a double
PROJECTION_SIZE_LIMIT = 170


def wrap_phase(angle):
    """A phase, or an array of them, wrapped strictly into [0, 2*pi).

    ``angle % (2*pi)`` alone rounds to 2*pi itself for tiny negative
    angles (-1e-20 gives 6.283185307179586); the second remainder maps that
    onto 0 and leaves every value below 2*pi as it is.
    """
    return angle % (2.0 * math.pi) % (2.0 * math.pi)


MEASURES = ("entropy", "concurrence")


def weight_measure(weights: np.ndarray, measure: str) -> np.ndarray:
    """Entanglement of each row of squared Schmidt coefficients.

    ``weights`` has shape (..., K), each row summing to one and padded with
    zeros; a row's Schmidt terms are its nonzero weights.  "entropy" is
    -sum(l * log2(l)) in bits, skipping weights below the entropy cutoff to
    avoid 0*log(0) noise and clamped to [0, log2(terms)].  "concurrence" is
    the cross-term sqrt(sum_{i<j} l_i l_j) = sqrt((1 - sum l_i^2)/2), summed
    as pairwise products: the subtraction would turn the normalization
    residue of rank-1 rows into sqrt-amplified noise.
    """
    if measure not in MEASURES:
        raise ConsistencyError(
            f"unknown measure {measure!r}, expected one of {MEASURES}"
        )
    if measure == "entropy":
        # weights at or below the cutoff become 1, whose term is 0
        kept = np.where(weights > TOL.entropy_cutoff, weights, 1.0)
        s = -(kept * np.log2(kept)).sum(axis=-1)
        terms = np.count_nonzero(weights, axis=-1)
        return np.minimum(np.maximum(s, 0.0), np.log2(np.maximum(terms, 1)))
    pairs = weights[..., 1:] * weights.cumsum(axis=-1)[..., :-1]
    return np.sqrt(pairs.sum(axis=-1))


def _require_rows(ok: np.ndarray, message: Callable[[int], str]):
    """Raise RowError naming the first row where ``ok`` is False."""
    if not ok.all():
        row = int(ok.argmin())
        raise RowError(row, message(row))


@functools.lru_cache(maxsize=PROJECTION_SIZE_LIMIT + 1)
def _block_layout(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constants of the n-particle fold: in its (n+1)^2 coefficients,
    flattened, the indices of the outcomes (a, n - a), a ascending, and of
    the a_chi > 0 entries; and the sqrt(a_L! a_R! a_chi!) scale."""
    a = np.arange(n + 1)
    # a_chi, clipped to 0 where a_L + a_R > n and the coefficients vanish
    a_chi = np.clip(n - np.add.outer(a, a), 0, None)
    root_fact = np.sqrt([float(math.factorial(k)) for k in a])
    scale = np.outer(root_fact, root_fact) * root_fact[a_chi]
    layout = (a * n + n, np.flatnonzero(a_chi), scale)
    for array in layout:  # shared by every caller
        array.setflags(write=False)
    return layout


def _fock_blocks(
    c: np.ndarray,
    s: np.ndarray,
    r: np.ndarray,
    blocks: Optional[Sequence[Tuple[int, int]]] = None,
    start: Optional[Sequence[np.ndarray]] = None,
    raw: bool = False,
) -> List[np.ndarray]:
    """Unnormalized Fock amplitudes of spin blocks, each over a batch of states.

    The rows of ``c``, ``s`` and ``r`` (R, n) hold particles' amplitudes on
    L, R and the remainder mode chi, the rows of each block stacked in
    turn: ``blocks`` lists each block's (end row, particle count), counts
    descending, and block b is rows [end_{b-1}, end_b) with its particles
    in the first n_b columns (default: one block of every row and column).
    A block state a'(k_1) ... a'(k_n)|vac> over the modes (L, R, chi) has
    amplitude sqrt(a_L! a_R! a_chi!) times the coefficient of
    x^a_L y^a_R z^a_chi in prod_k (c_k x + s_k y + r_k z), a_chi = n - a_L
    - a_R.  Returns these amplitudes for each block, indexed [:, a_L, a_R],
    shape (rows_b, n_b+1, n_b+1), zero where a_L + a_R > n_b.

    ``start``, one array per block, continues a fold instead of starting
    from the vacuum: block b's coefficients of m_b particles folded before,
    shape (1 or rows_b, m_b+1, m_b+1), as ``raw=True`` returns them; the
    block's amplitudes are then those of its m_b + n_b particles.  ``raw``
    returns the coefficients without the sqrt(a_L! a_R! a_chi!) scale.

    One loop folds every block: step k multiplies in particle k of each
    block that has one.  With the largest block first, the rows still
    folding are a prefix, and a block leaves the loop once its particles
    run out; an empty block takes no step.  Starts of different m_b are
    zero-padded to the largest, which leaves each block's coefficients
    as they are.
    """
    rows, width = c.shape
    blocks = blocks or [(rows, width)]
    if start is None:
        held = [0] * len(blocks)
        coeffs = np.ones((rows, 1, 1), dtype=complex)
    elif len(start) == 1:
        # read only, so one block's start need not be copied to every row
        held = [start[0].shape[1] - 1]
        coeffs = np.broadcast_to(start[0], (rows, *start[0].shape[1:]))
    else:
        held = [state.shape[1] - 1 for state in start]
        coeffs = np.zeros((rows, max(held) + 1, max(held) + 1), dtype=complex)
        first = 0
        for (end, _), state in zip(blocks, start):
            coeffs[first:end, : state.shape[1], : state.shape[2]] = state
            first = end
    # the particles every start array holds, padded ones included
    base = coeffs.shape[1] - 1
    # particle k's amplitudes of every row still folding at [k], shaped
    # (rows, 1, 1) to scale whole arrays
    cs, ss, rs = c.T[:, :, None, None], s.T[:, :, None, None], r.T[:, :, None, None]
    # one buffer for every step's products, since a fresh large array costs
    # more than the arithmetic that fills it
    products = np.empty(rows * (base + width) ** 2, dtype=complex)
    results = []
    k = 0
    # the smallest block left finishes next, its rows at the end
    for b in range(len(blocks) - 1, -1, -1):
        rows, n = blocks[b]
        for k in range(k, n):
            # with particle k folded in, a_L and a_R run up to base + k + 1
            nxt = np.zeros((rows, base + k + 2, base + k + 2), dtype=complex)
            # the first product goes straight into ``nxt``, the others to
            # ``product`` (the ufunc's positional out)
            np.multiply(rs[k], coeffs, nxt[:, :-1, :-1])
            product = products[: coeffs.size].reshape(coeffs.shape)
            nxt[:, 1:, :-1] += np.multiply(cs[k], coeffs, product)
            nxt[:, :-1, 1:] += np.multiply(ss[k], coeffs, product)
            coeffs = nxt
        k = n
        first = blocks[b - 1][0] if b else 0
        total = held[b] + n
        amps = coeffs[first:, : total + 1, : total + 1]
        results.append(amps if raw else amps * _block_layout(total)[2])
        if b:
            coeffs, cs, ss, rs = coeffs[:first], cs[:, :first], ss[:, :first], rs[:, :first]
    return results[::-1]


#: one spin block of a batch: its particles' (c, s, r) amplitudes, (3, G, n)
_Block = np.ndarray


def _split(amps: np.ndarray, n_up: int) -> Tuple[_Block, _Block]:
    """The up and the down block of (3, G, N) amplitudes, particles spin-up first."""
    return amps[..., :n_up], amps[..., n_up:]


#: complex entries (128 KiB) up to which a step's array of stacked blocks,
#: folded in one loop, may grow.  In fresh processes at N = 2..9 stacking
#: a batch's two blocks took 0.85-0.99x the per-block time at 5,760-8,190
#: entries (1.02-1.12x at N = 3, whose down block is one particle), and
#: 1.03-2.1x from 10,800 entries on, where each stacked call took 67-740
#: fresh pages from the allocator (minor page faults), each per-block call
#: 3-670.  Up to four rows always fold stacked: halving a single state's
#: steps paid at every N measured, up to 170, and a pair's bra and ket
#: blocks (four rows) folded in 0.72-0.95x the time of two calls at N =
#: 60-170.
STACKED_ENTRIES = 1 << 13


def _fold_blocks(
    blocks: Sequence[_Block], start: Optional[Sequence[np.ndarray]] = None, raw: bool = False
) -> List[np.ndarray]:
    """Fock amplitudes (:func:`_fock_blocks`) of any list of spin blocks, in
    its order.  ``start`` holds each block's start, or is None for the
    vacuum; ``raw`` is that of :func:`_fock_blocks`.

    The blocks fold by particle count, most first, in packs of one
    :func:`_fock_blocks` call each: a pack takes the next block while it
    holds at most four rows (a single state, or a pair's bra and ket) or
    its rows times (the most particles a block of it reaches + 1)^2 stay
    within STACKED_ENTRIES.  Stacking leaves each row's arithmetic as it
    is, so a block's amplitudes do not depend on the others.  From the
    vacuum an empty block is the vacuum, amplitude 1, and takes no step.
    """
    shapes = [block[0].shape for block in blocks]
    held = [0] * len(blocks) if start is None else [state.shape[1] - 1 for state in start]
    results: List[np.ndarray] = [None] * len(blocks)
    # each pack's blocks, then its rows and its (most particles + 1)
    packs: List[Tuple[List[int], int, int]] = []
    for b in sorted(range(len(blocks)), key=lambda b: shapes[b][1], reverse=True):
        g, n = shapes[b]
        if start is None and not n:
            results[b] = np.ones((g, 1, 1), dtype=complex)
            continue
        if packs:
            members, rows, size = packs[-1]
            rows, size = rows + g, max(size, n + held[b] + 1)
            if rows <= 4 or rows * size ** 2 <= STACKED_ENTRIES:
                members.append(b)
                packs[-1] = members, rows, size
                continue
        packs.append(([b], g, n + held[b] + 1))
    for members, rows, _ in packs:
        starts = None if start is None else [start[b] for b in members]
        if len(members) == 1:
            folded = _fock_blocks(*blocks[members[0]], start=starts, raw=raw)
        else:
            # complex, as the products of the fold cast them
            stacked = np.zeros((3, rows, shapes[members[0]][1]), dtype=complex)
            layout, end = [], 0
            for b in members:
                g, n = shapes[b]
                stacked[:, end : end + g, :n] = blocks[b]
                end += g
                layout.append((end, n))
            folded = _fock_blocks(*stacked, layout, starts, raw)
        for b, amps in zip(members, folded):
            results[b] = amps
    return results


def _detector_block(amps: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Detector amplitudes of one spin block over a batch of G states.

    From the block's Fock amplitudes (:func:`_fock_blocks`, shape
    (G, n+1, n+1)), returns the normalized amplitudes B[:, a] of the
    outcomes a_L = a, a_R = n - a, shape (G, n+1), their total weight (G,),
    and the weight of the outcomes with a_chi > 0 (G,).  Raises RowError on
    the first state of vanishing norm.  A row's values do not depend on G.
    """
    outcomes, leaks, _ = _block_layout(amps.shape[1] - 1)
    rows = amps.reshape(-1, amps.shape[1] ** 2)
    # ``take`` lays each row's terms out in C order, so that every row sums
    # pairwise (fancy indexing lays a batch out term by term)
    detected, leaked = rows.take(outcomes, axis=1), rows.take(leaks, axis=1)
    detected_sq = (detected.real ** 2 + detected.imag ** 2).sum(axis=1)
    leaked_sq = (leaked.real ** 2 + leaked.imag ** 2).sum(axis=1)
    norm_sq = detected_sq + leaked_sq
    _require_rows(norm_sq > TOL.pruning, lambda row: "input state has vanishing norm")
    return (
        detected / np.sqrt(norm_sq)[:, None],
        detected_sq / norm_sq,
        leaked_sq / norm_sq,
    )


@functools.lru_cache(maxsize=PROJECTION_SIZE_LIMIT + 1)
def _sector_layout(n_up: int, n_down: int) -> Tuple[np.ndarray, np.ndarray]:
    """(q, alpha) position of each outcome (alpha, beta), q = alpha + beta."""
    alpha, beta = np.indices((n_up + 1, n_down + 1))
    layout = (alpha + beta, alpha)
    for array in layout:  # shared by every caller
        array.setflags(write=False)
    return layout


def _phases(angles: np.ndarray) -> np.ndarray:
    """e^{i angle}, with the angle wrapped into [0, 2*pi) as SpatialMode does."""
    wrapped = wrap_phase(angles)
    phases = np.empty(angles.shape, dtype=complex)
    phases.real = np.cos(wrapped)
    phases.imag = np.sin(wrapped)
    return phases


def _require_fold_size(what: str, total: int):
    if total > PROJECTION_SIZE_LIMIT:
        raise SizeLimitError(
            f"{what} is capped at N <= {PROJECTION_SIZE_LIMIT}, got N = {total}"
        )


def _amplitudes(
    theta: np.ndarray,
    omega: np.ndarray,
    phi: np.ndarray,
    gamma: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_mode_amplitudes` without its check: the amplitudes stacked
    (3, G, N), each particle's norm (G, N) and whether it lies within
    ``TOL.normalization`` of one (G, N)."""
    sin_phi = np.sin(phi)
    phases = _phases(np.stack((omega, gamma)))
    # c, s and r in one array, so that each later step is one call; c is
    # real, stored as c + 0j, which the fold's products cast it to anyway
    amps = np.empty((3, *theta.shape), dtype=complex)
    amps[0] = sin_phi * np.cos(theta)
    np.multiply(sin_phi * np.sin(theta), phases[0], out=amps[1])
    np.multiply(np.cos(phi), phases[1], out=amps[2])
    absolute = np.abs(amps)
    pruned = absolute <= TOL.pruning
    amps[pruned] = 0.0
    absolute[pruned] = 0.0
    squares = absolute ** 2
    norm = np.sqrt(squares[0] + squares[1] + squares[2])
    return amps, norm, np.abs(norm - 1.0) <= TOL.normalization


def _mode_amplitudes(
    theta: np.ndarray,
    omega: np.ndarray,
    phi: np.ndarray,
    gamma: np.ndarray,
) -> np.ndarray:
    """Amplitudes (c, s, r) on L, R and the remainder mode chi of the
    particles with the given (G, N) mode angles, stacked (3, G, N).

    They are those of :func:`states.mode_ket`, pruned at ``TOL.pruning``; a
    particle off unit norm by more than ``TOL.normalization`` raises
    RowError on its row.
    """
    amps, norm, unit = _amplitudes(theta, omega, phi, gamma)
    _require_rows(
        unit.all(axis=1),
        lambda row: "single-particle ket must be unit norm, "
        f"got {float(norm[row][~unit[row]][0])!r}",
    )
    return amps


def _group_modes(what: str, groups: Sequence[Sequence[np.ndarray]]) -> List[np.ndarray]:
    """:func:`_mode_amplitudes` (3, rows, N) of each group's angle rows:
    its four (..., N) arrays, leading axes flattened into rows, in one
    call.  Raises SizeLimitError for a group above N = 170 first.  With
    several groups, all their particles are one row of the call, so a
    failed norm check reads row 0 (:func:`_first_failure` names the
    group's row)."""
    for angles in groups:
        _require_fold_size(what, angles[0].shape[-1])
    if len(groups) == 1:
        (angles,) = groups
        if angles[0].ndim != 2:
            angles = [angle.reshape(-1, angle.shape[-1]) for angle in angles]
        return [_mode_amplitudes(*angles)]
    flat = np.concatenate([np.reshape(angles, (4, -1)) for angles in groups], axis=1)
    amps = _mode_amplitudes(*flat[:, None])
    modes, end = [], 0
    for angles in groups:
        n, size = angles[0].shape[-1], angles[0].size
        modes.append(amps[:, 0, end : end + size].reshape(3, -1, n))
        end += size
    return modes


def _first_failure(evaluate: Callable[[Sequence], List], groups: Sequence) -> List:
    """``evaluate(groups)``, whose checks run on all the groups at once; if
    one fails with several groups, the error that evaluating them one at a
    time raises first instead, so that a grouped call fails as the loop
    over its groups would.  No groups evaluate to none."""
    if not groups:
        return []
    try:
        return evaluate(groups)
    except (RowError, SizeLimitError):
        if len(groups) == 1:
            raise
    for group in groups:
        evaluate([group])
    raise ConsistencyError("a check failed on stacked groups but on none of them alone")


def _project_groups(
    groups: Sequence[Tuple[int, Sequence[np.ndarray]]],
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Detector projections of several batches of ensembles, each given as
    n_up and its four (G, N) mode angle arrays (or one (4, G, N) array),
    particles spin-up first: per group what :func:`_combine` returns.

    Each particle's amplitudes on L, R and the remainder mode chi are those
    of :func:`_mode_amplitudes`.  Up and down particles never share a mode,
    so each state is a product of an up and a down block, which
    :func:`_combine` joins.  One :func:`_mode_amplitudes` call takes every
    group's particles, one :func:`_fold_blocks` call folds every block, one
    :func:`_detector_block` call reads the blocks of each size, and one
    :func:`_combine` call joins each group's blocks; every row's
    arithmetic is that of the row alone (:func:`_project_batch` of one
    row), so a row's projection does not depend on the others, at any N.
    A failed check raises what the groups, one at a time, raise first.
    """
    return _first_failure(_projections, groups)


def _projections(groups: Sequence[Tuple[int, Sequence[np.ndarray]]]) -> List[Tuple[np.ndarray, ...]]:
    """:func:`_project_groups`, its checks run on all the groups at once.
    The blocks are batched by size alone, a group's up block before its
    down block; a batch of one block is read without a copy."""
    modes = _group_modes("projection", [angles for _, angles in groups])
    folded = _fold_blocks([block for (n_up, _), amps in zip(groups, modes) for block in _split(amps, n_up)])
    batches: Dict[int, List[int]] = {}
    for b, amps in enumerate(folded):
        batches.setdefault(amps.shape[1], []).append(b)
    detected: List[List[np.ndarray]] = [None] * len(folded)
    for members in batches.values():
        stacked = [folded[b] for b in members]
        ends = list(itertools.accumulate(map(len, stacked)))
        try:
            parts = _detector_block(np.concatenate(stacked) if len(stacked) > 1 else stacked[0])
        except RowError as exc:
            # named by its row in its own block
            first = ([0] + ends)[bisect.bisect_right(ends, exc.row)]
            raise RowError(exc.row - first, str(exc)) from None
        for b, first, end in zip(members, [0] + ends, ends):
            detected[b] = [part[first:end] for part in parts]
    return [_combine(n_up, *detected[2 * g : 2 * g + 2]) for g, (n_up, _) in enumerate(groups)]


def _project_batch(
    n_up: int,
    theta: np.ndarray,
    omega: np.ndarray,
    phi: np.ndarray,
    gamma: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Detector projection of G ensembles given their (G, N) mode angles,
    particles ordered spin-up first: the one-group case of
    :func:`_project_groups`.  Returns what :func:`_combine` returns.
    """
    return _project_groups([(n_up, (theta, omega, phi, gamma))])[0]


def _combine(
    n_up: int,
    up_block: Tuple[np.ndarray, np.ndarray, np.ndarray],
    down_block: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Projection of G states, each the product of an up and a down block
    given by :func:`_detector_block` (a block of one row stands for every
    row): the outcome with alpha up and beta down particles at L has
    amplitude U[alpha] * D[beta].

    Outcomes with |amplitude| <= ``TOL.pruning`` are dropped and the rest
    grouped into sectors by q = alpha + beta; a sector below
    ``TOL.pruning`` reads as empty (probability 0).  This is the one place
    that decides which outcomes and sectors are zero: :func:`_sector_walk`
    and :func:`_postselected` read its zeros.  Returns the outcome
    amplitudes (G, n_up+1, N-n_up+1), each sector's Schmidt weights across
    L|R (G, N+1, n_up+1) indexed by (q, alpha), the sector probabilities
    (G, N+1) and the leak (G,).  Sector q's Schmidt weights are its kept
    outcome weights |U[alpha] D[q-alpha]|^2 / p_q, one term per distinct
    alpha (:func:`detection.sector_entanglement` reads them from an SVD),
    and 0 in an empty sector.

    The leak is the weight of the a_chi > 0 outcomes (phi < pi/2), summed
    rather than taken as the complement, so that probabilities plus leak
    summing to one is a genuine cross-check, made before empty sectors are
    zeroed: the projected state has unit norm, so a deviation above
    ``TOL.normalization`` raises RowError on the first failing row.
    """
    up, up_detected, up_leaked = up_block
    down, _, down_leaked = down_block
    n_down = down.shape[1] - 1
    outcomes = up[:, :, None] * down[:, None, :]
    kept = outcomes.real ** 2 + outcomes.imag ** 2
    kept[np.abs(outcomes) <= TOL.pruning] = 0.0
    q, alpha = _sector_layout(n_up, n_down)
    by_sector = np.zeros((len(outcomes), n_up + n_down + 1, n_up + 1))
    by_sector[:, q, alpha] = kept
    p = by_sector.sum(axis=2)
    # an outcome leaks when either block has a particle in its remainder mode
    leak = up_leaked + up_detected * down_leaked
    deviation = p.sum(axis=1) + leak - 1.0
    _require_rows(
        np.abs(deviation) <= TOL.normalization,
        lambda row: f"sector probabilities plus leak miss one by {deviation[row]:.3e}",
    )
    p[p < TOL.pruning] = 0.0
    weights = np.divide(by_sector, p[..., None], out=np.zeros_like(by_sector), where=p[..., None] > 0.0)
    return outcomes, weights, p, leak


def fold_amplitude(
    bra_n_up: int,
    ket_n_up: int,
    theta: np.ndarray,
    omega: np.ndarray,
    phi: np.ndarray,
    gamma: np.ndarray,
) -> complex:
    """Amplitude <bra|ket> between two symmetrized boson product states.

    Row 0 of the (2, N) angle arrays holds the bra's particles, row 1 the
    ket's, each spin-up first: one pair of :func:`fold_amplitude_groups`,
    both from :func:`_pair_amplitudes`.  Different n_up give exactly 0.
    Raises SizeLimitError above N = 170.
    """
    _require_fold_size("amplitude", theta.shape[1])
    amps = _mode_amplitudes(theta, omega, phi, gamma)
    if bra_n_up != ket_n_up:
        return 0j
    return complex(_pair_amplitudes([(ket_n_up, amps)])[0][0])


def fold_amplitude_groups(groups: Sequence[Tuple[int, Sequence[np.ndarray]]]) -> List[np.ndarray]:
    """Amplitudes <bra|ket> (G,) of each group of G boson pairs: n_up and
    four (2, G, N) angle arrays (or one (4, 2, G, N) array), [0, g] pair
    g's bra particles and [1, g] its ket's, spin-up first.  One
    :func:`_mode_amplitudes` and one :func:`_pair_amplitudes` call take
    every group; a pair's amplitude does not depend on the others, and a
    failed check raises what the groups, one at a time, raise first (a
    RowError names the group's row in its (2G, N) stack, bras first)."""

    def evaluate(groups):
        modes = _group_modes("amplitude", [angles for _, angles in groups])
        return _pair_amplitudes([(n_up, amps) for (n_up, _), amps in zip(groups, modes)])

    return _first_failure(evaluate, groups)


def _pair_amplitudes(groups: Sequence[Tuple[int, np.ndarray]]) -> List[np.ndarray]:
    """<bra|ket> of each pair of each group: n_up and the (3, 2G, N) mode
    amplitudes of :func:`_mode_amplitudes`, rows g and G + g pair g's bra
    and ket.

    Every group's bra and ket blocks fold in one :func:`_fold_blocks` call,
    and each row's arithmetic is that of a single pair, so a pair's
    amplitude depends neither on G nor on the other groups.  The overlap
    matrix is block-diagonal by spin, and each block has rank at most 3
    (every mode lies in span{L, R, chi}), so its permanent is the sum of
    conj(F_bra) F_ket over the Fock amplitudes of :func:`_fock_blocks`.
    The product of the two block permanents is divided by sqrt(prod nu!
    prod mu!), nu and mu the repeat counts of exactly equal (c, s, r)
    within a block of the bra and of the ket, as in
    :func:`algebra.transition_amplitude`.
    """
    folded = _fold_blocks([block for n_up, amps in groups for block in _split(amps, n_up)])
    results = []
    for (n_up, amps), up, down in zip(groups, folded[::2], folded[1::2]):
        g = amps.shape[1] // 2
        spins = (slice(None, n_up), slice(n_up, None))
        rows = list(zip(*amps.tolist()))
        values = np.empty(g, dtype=complex)
        for pair in range(g):
            value = 1.0
            for block in (up, down):
                value *= np.vdot(block[pair], block[g + pair])
            # factor by factor, since prod nu! * prod mu! can overflow a double
            root_repeats = 1.0
            for row in (pair, g + pair):
                triples = list(zip(*rows[row]))
                for spin in spins:
                    for k in Counter(triples[spin]).values():
                        if k > 1:  # a factor sqrt(1!) = 1 leaves the product as it is
                            root_repeats *= math.sqrt(math.factorial(k))
            values[pair] = value / root_repeats
        results.append(values)
    return results


def fermion_amplitude(
    bra_n_up: int,
    ket_n_up: int,
    theta: np.ndarray,
    omega: np.ndarray,
    phi: np.ndarray,
    gamma: np.ndarray,
) -> complex:
    """Amplitude <bra|ket> between two antisymmetrized fermion product
    states, from the (2, N) angle arrays of :func:`fold_amplitude`.

    A spin block of n fermions in span{L, R, chi} is null for n > 3, and
    otherwise has amplitudes W_S on the n-subsets S of {L, R, chi}: the
    n x n minors of its (n x 3) matrix of (c, s, r) rows.  By Cauchy-Binet
    the block's overlap determinant (:func:`algebra.transition_amplitude`)
    is sum_S conj(W_bra,S) W_ket,S.  A block whose minors have norm at most
    ``TOL.pruning`` raises NullStateError naming its side and spin; then
    different n_up give exactly 0.  Raises SizeLimitError above N = 170.
    """
    _require_fold_size("amplitude", theta.shape[1])
    c, s, r = _mode_amplitudes(theta, omega, phi, gamma)
    minors = []
    for row, (side, n_up) in enumerate((("bra", bra_n_up), ("ket", ket_n_up))):
        rows = np.stack([c[row], s[row], r[row]], axis=1)
        for spin, block in (("up", rows[:n_up]), ("down", rows[n_up:])):
            n = len(block)
            if n > 3:
                raise NullStateError(f"{side} state is null: {n} spin-{spin} fermions in modes L, R, chi")
            subsets = itertools.combinations(range(3), n)
            w = np.array([np.linalg.det(block[:, list(cols)]) for cols in subsets])
            if np.linalg.norm(w) <= TOL.pruning:
                raise NullStateError(f"{side} state is null: its {n} spin-{spin} fermion modes are linearly dependent")
            minors.append(w)
    if bra_n_up != ket_n_up:
        return 0j
    bra_up, bra_down, ket_up, ket_down = minors
    return complex(np.vdot(bra_up, ket_up) * np.vdot(bra_down, ket_down))


def _sector_walk(
    outcomes: np.ndarray, weights: np.ndarray, p: np.ndarray
) -> List[Tuple[int, float, List[Tuple[int, complex]]]]:
    """The nonempty sectors of one projection of :func:`_project_batch`,
    from its outcome amplitudes (n_up+1, N-n_up+1), sector Schmidt weights
    (N+1, n_up+1) and sector probabilities (N+1,), as (q, p_q, state) with
    q descending.

    A sector's state lists (alpha, amplitude / sqrt(p_q)) with alpha
    ascending, over the outcomes whose Schmidt weight is nonzero: those the
    projection kept.  Raises ConsistencyError when a state is off unit norm
    by more than ``TOL.normalization``.
    """
    outcomes, weights = outcomes.tolist(), weights.tolist()
    sectors = []
    for q, probability in reversed(list(enumerate(p.tolist()))):
        if probability == 0.0:
            continue
        root = math.sqrt(probability)
        state = [
            (alpha, outcomes[alpha][q - alpha] / root)
            for alpha, weight in enumerate(weights[q])
            if weight != 0.0
        ]
        norm = math.sqrt(sum(abs(value) ** 2 for _, value in state))
        if abs(norm - 1.0) > TOL.normalization:
            raise ConsistencyError(f"sector q = {q} has norm {norm!r}")
        sectors.append((q, probability, state))
    return sectors


#: complex entries in one fold array of a chunk: G * (n + 1)^2 for the
#: larger spin block of n particles
CHUNK_ENTRIES = 1 << 16


def fold_chunks(n_up: int, n_total: int, rows: int) -> List[slice]:
    """The row slices, in order, in which ``rows`` ensembles of N =
    ``n_total`` particles, n_up of them up, are folded: CHUNK_ENTRIES //
    (n + 1)^2 rows each (at least one), so they follow from the block
    sizes alone.  An empty batch is one empty slice.  Only sweeps and
    ``n2-closed-form``, whose rows grow with their input, chunk them."""
    block = max(n_up, n_total - n_up) + 1
    size = max(1, CHUNK_ENTRIES // block ** 2)
    return [slice(start, min(start + size, rows)) for start in range(0, max(rows, 1), size)]


def sweep_grid(
    n_up: int,
    theta: np.ndarray,
    omega: np.ndarray,
    phi: np.ndarray,
    gamma: np.ndarray,
    measure: str = "concurrence",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projection and postselected entanglement of G ensembles at once.

    The angle arrays have shape (G, N), particles ordered spin-up first
    (n_up of them), and lie in the ranges SpatialMode accepts.  Returns the
    sector probabilities p (G, N+1), the leak (G,) and the postselected
    average of ``measure`` (G,); row g equals
    :func:`detection.project_onto_detectors` of the ensemble in that row.

    The rows are folded chunk by chunk (:func:`fold_chunks`), each with
    :func:`_postselected` of its projection.  A failed check raises
    RowError naming the first failing row of the batch.
    """
    results = []
    for rows in fold_chunks(n_up, theta.shape[1], len(theta)):
        try:
            _, weights, p, leak = _project_batch(n_up, theta[rows], omega[rows], phi[rows], gamma[rows])
        except RowError as exc:
            raise RowError(rows.start + exc.row, str(exc)) from None
        results.append((p, leak, _postselected(weights, p, measure)))
    return tuple(np.concatenate(parts) for parts in zip(*results))


class _GridBlock(NamedTuple):
    """A spin block of a :class:`GridSweep` that axes move.

    The axes from the first to the last that move the block form one
    digit of the lexicographic grid index: grid row g has setting
    g // ``stride`` of it, which repeats with period ``size``.
    """

    stride: int
    size: int
    #: per swept particle, ascending: its axes and the offset of its table
    #: in the sweep's tables
    particles: Tuple[Tuple[Tuple[int, ...], int], ...]
    #: unscaled coefficients of the block's fixed particles, folded once
    #: (1, m+1, m+1)
    state: np.ndarray


class GridSweep:
    """The projection and postselected entanglement over a grid of angle
    values, evaluated in two parts: one per sweep, one per chunk of rows.

    ``angles`` (4, N) are a config's angles in radians, particles spin-up
    first (n_up of them); each axis is (angle row, stored particle, values
    in radians), and grid row g sets every axis to its value at g's place
    in the lexicographic order of the axes.

    Once per sweep, each spin block's fixed particles (those no axis moves)
    are folded, a block no axis moves is projected whole, and each swept
    particle's amplitudes are tabled for every setting of its own axes.
    Per chunk of rows (:meth:`rows`), each moved block's fold continues
    from its fixed state with its swept particles, once per distinct
    setting of the axes from the first to the last that moves it, and
    :func:`_combine` joins the blocks row by row.  A row equals
    :func:`_project_batch` of its ensemble within rounding; only the order
    of the fold's products differs, so the two agree to the bit where no
    swept particle precedes a fixed one in its block.  A chunk whose
    settings fail a check (the single-particle norm, a vanishing block
    norm or ``sum p_q + leak = 1``) is evaluated again, row by row, by
    :func:`sweep_grid`, which names the first failing row.
    """

    def __init__(self, n_up: int, angles: np.ndarray, axes: Sequence[Tuple[int, int, np.ndarray]]):
        total = angles.shape[1]
        _require_fold_size("projection", total)
        self.n_up, self.angles, self.axes = n_up, angles, axes
        self.shape = [len(values) for _, _, values in axes]
        spans = [(0, n_up), (n_up, total)]
        swept = [sorted({particle for _, particle, _ in axes if lo <= particle < hi}) for lo, hi in spans]
        fixed = [[k for k in range(lo, hi) if k not in moved] for (lo, hi), moved in zip(spans, swept)]
        # the fixed particles' angles, then each swept particle's at every
        # setting of its own axes (in C order), all amplitudes in one call
        columns, tables = [angles[:, fixed[0] + fixed[1]]], {}
        held = offset = len(fixed[0]) + len(fixed[1])
        for particle in swept[0] + swept[1]:
            own = tuple(a for a, axis in enumerate(axes) if axis[1] == particle)
            tables[particle] = own, offset
            points = np.unravel_index(np.arange(math.prod(self.shape[a] for a in own)), [self.shape[a] for a in own])
            table = np.repeat(angles[:, particle : particle + 1], len(points[0]), axis=1)
            for a, i in zip(own, points):
                table[axes[a][0]] = axes[a][2][i]
            columns.append(table)
            offset += len(points[0])
        amps, _, unit = _amplitudes(*np.concatenate(columns, axis=1)[:, None])
        #: the swept particles' tables: (c, s, r) (3, K), and whether each is
        #: within tolerance of unit norm (K,)
        self.amplitudes, self.unit = amps[:, 0], unit[0]
        #: False when the fixed particles fail a check, and so every row;
        #: ``blocks`` is then never read
        self.passes = bool(self.unit[:held].all())
        states = _fold_blocks(_split(amps[:, :, :held], len(fixed[0])), raw=True)
        #: per block: a _GridBlock, or what a block no axis moves projects to
        self.blocks: List[object] = []
        for moved, state in zip(swept, states):
            if moved:
                ranks = [a for a, axis in enumerate(axes) if axis[1] in moved]
                self.blocks.append(_GridBlock(
                    math.prod(self.shape[ranks[-1] + 1 :]),
                    math.prod(self.shape[ranks[0] : ranks[-1] + 1]),
                    tuple(tables[particle] for particle in moved),
                    state,
                ))
                continue
            try:
                self.blocks.append(_detector_block(state * _block_layout(state.shape[1] - 1)[2]))
            except RowError:
                self.passes = False

    def rows(self, start: int, stop: int, measure: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sector probabilities (G, N+1), leak (G,) and postselected
        ``measure`` (G,) of grid rows [start, stop).  If a check fails on
        them, what :func:`sweep_grid` returns or raises for their angle
        rows: a RowError names the first failing row, counted from start."""
        moved = [block for block in self.blocks if isinstance(block, _GridBlock)]
        # each block's settings among the rows, by their first rows in order:
        # each swept particle's place in the tables (S, n)
        places = []
        for block in moved:
            first = start // block.stride * block.stride
            firsts = np.arange(first, min(stop, first + block.size * block.stride), block.stride)
            index = np.unravel_index(firsts, self.shape)
            places.append(np.array([
                offset + np.ravel_multi_index([index[a] for a in own], [self.shape[a] for a in own])
                for own, offset in block.particles
            ]).T)
        if self.passes and all(self.unit[at].all() for at in places):
            folded = iter(_fold_blocks([self.amplitudes[:, at] for at in places], [block.state for block in moved]))
            projected = []
            try:
                for block in self.blocks:
                    if isinstance(block, _GridBlock):
                        inverse = (np.arange(start, stop) // block.stride - start // block.stride) % block.size
                        block = tuple(part[inverse] for part in _detector_block(next(folded)))
                    projected.append(block)
                _, weights, p, leak = _combine(self.n_up, *projected)
            except RowError:
                pass
            else:
                return p, leak, _postselected(weights, p, measure)
        # a check failed: the rows' own angles, folded row by row
        index = np.unravel_index(np.arange(start, stop), self.shape)
        angles = np.repeat(self.angles[:, None], stop - start, axis=1)
        for (row, particle, values), i in zip(self.axes, index):
            angles[row, :, particle] = values[i]
        return sweep_grid(self.n_up, *angles, measure)


def _postselected(weights: np.ndarray, p: np.ndarray, measure: str) -> np.ndarray:
    """Postselected average of ``measure`` over G projections, from the
    sector Schmidt weights (G, N+1, n_up+1) and sector probabilities
    (G, N+1) of :func:`_project_batch`.

    Each sector's measure is read from its Schmidt weights
    (:func:`weight_measure`).  A row whose sum(p) is 0, nothing detected,
    reads 0.
    """
    sector_values = weight_measure(weights, measure)
    # postselected: sector weights renormalized over the detected probability
    total_p = p.sum(axis=1)[:, None]
    share = np.divide(p, total_p, out=np.zeros_like(p), where=total_p > 0.0)
    return (share * sector_values).sum(axis=1)
