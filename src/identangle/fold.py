"""The spin-block fold that every command runs on: detector projections and
transition amplitudes of ensembles given as (G, N) angle rows, spin-up
first.  Each spin block lies in span{L, R, chi}, so its state follows from
its particles' (c, s, r) amplitudes: Fock amplitudes for bosons, minors for
fermions.  Past numpy and the stdlib it imports only ``errors`` and
``tolerances``; ``detection`` and ``measures`` build on it.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import Callable, List, Optional, Sequence, Tuple

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
def _block_layout(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constants of the n-particle fold: the outcome indices (a, n - a),
    the sqrt(a_L! a_R! a_chi!) scale and the a_chi > 0 mask."""
    a = np.arange(n + 1)
    # a_chi, clipped to 0 where a_L + a_R > n and the coefficients vanish
    a_chi = np.clip(n - np.add.outer(a, a), 0, None)
    root_fact = np.sqrt([float(math.factorial(k)) for k in a])
    scale = np.outer(root_fact, root_fact) * root_fact[a_chi]
    layout = (a, n - a, scale, a_chi > 0)
    for array in layout:  # shared by every caller
        array.setflags(write=False)
    return layout


def _fock_blocks(
    c: np.ndarray,
    s: np.ndarray,
    r: np.ndarray,
    blocks: Optional[Sequence[Tuple[int, int]]] = None,
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

    One loop folds every block: step k multiplies in particle k of each
    block that has one.  With the largest block first, the rows still
    folding are a prefix, and a block leaves the loop once its particles
    run out; an empty block takes no step.
    """
    rows, width = c.shape
    blocks = blocks or [(rows, width)]
    # particle k's amplitudes of every row still folding at [k], shaped
    # (rows, 1, 1) to scale whole arrays
    cs, ss, rs = c.T[:, :, None, None], s.T[:, :, None, None], r.T[:, :, None, None]
    # after k particles only a_L, a_R <= k carry coefficients
    coeffs = np.ones((rows, 1, 1), dtype=complex)
    # one buffer for every step's products, since a fresh large array costs
    # more than the arithmetic that fills it
    products = np.empty(rows * width * width, dtype=complex)
    results = []
    k = 0
    # the smallest block left finishes next, its rows at the end
    for b in range(len(blocks) - 1, -1, -1):
        rows, n = blocks[b]
        for k in range(k, n):
            nxt = np.zeros((rows, k + 2, k + 2), dtype=complex)
            # each product goes to ``product`` (the ufunc's positional out)
            product = products[: coeffs.size].reshape(coeffs.shape)
            nxt[:, :-1, :-1] = np.multiply(rs[k], coeffs, product)
            nxt[:, 1:, :-1] += np.multiply(cs[k], coeffs, product)
            nxt[:, :-1, 1:] += np.multiply(ss[k], coeffs, product)
            coeffs = nxt
        k = n
        start = blocks[b - 1][0] if b else 0
        results.append(coeffs[start:] * _block_layout(n)[2])
        if b:
            coeffs, cs, ss, rs = coeffs[:start], cs[:, :start], ss[:, :start], rs[:, :start]
    return results[::-1]


def _split_fold(
    c: np.ndarray, s: np.ndarray, r: np.ndarray, n_up: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Fock amplitudes (:func:`_fock_blocks`) of the up and the down block
    of a (G, N) batch, particles spin-up first, folded in one loop: the
    larger block's rows stacked first, the other's after them."""
    g, total = c.shape
    up, down = slice(None, n_up), slice(n_up, None)
    large, small = (up, down) if 2 * n_up >= total else (down, up)
    sizes = [max(n_up, total - n_up), min(n_up, total - n_up)]
    if not sizes[1]:  # an empty block is the vacuum, amplitude 1
        (amps,) = _fock_blocks(c[:, large], s[:, large], r[:, large])
        vacuum = np.ones((g, 1, 1), dtype=complex)
        return (amps, vacuum) if large is up else (vacuum, amps)
    # complex, as the products of the fold cast them
    stacked = np.zeros((3, 2 * g, sizes[0]), dtype=complex)
    stacked[:, :g] = (c[:, large], s[:, large], r[:, large])
    stacked[:, g:, : sizes[1]] = (c[:, small], s[:, small], r[:, small])
    first, second = _fock_blocks(*stacked, [(g, sizes[0]), (2 * g, sizes[1])])
    return (first, second) if large is up else (second, first)


def _detector_block(amps: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Detector amplitudes of one spin block over a batch of G states.

    From the block's Fock amplitudes (:func:`_fock_blocks`, shape
    (G, n+1, n+1)), returns the normalized amplitudes B[:, a] of the
    outcomes a_L = a, a_R = n - a, shape (G, n+1), their total weight (G,),
    and the weight of the outcomes with a_chi > 0 (G,).  Raises RowError on
    the first state of vanishing norm.
    """
    left, right, _, leaks = _block_layout(amps.shape[1] - 1)
    weights = amps.real ** 2 + amps.imag ** 2
    detected = amps[:, left, right]
    detected_sq = weights[:, left, right].sum(axis=1)
    leaked_sq = weights[:, leaks].sum(axis=1)
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


def _mode_amplitudes(
    theta: np.ndarray,
    omega: np.ndarray,
    phi: np.ndarray,
    gamma: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplitudes (c, s, r) on L, R and the remainder mode chi of the
    particles with the given (G, N) mode angles.

    They are those of :func:`states.mode_ket`, pruned at ``TOL.pruning``; a
    particle off unit norm by more than ``TOL.normalization`` raises
    RowError on its row.
    """
    sin_phi = np.sin(phi)
    c = sin_phi * np.cos(theta)
    s = sin_phi * np.sin(theta) * _phases(omega)
    r = np.cos(phi) * _phases(gamma)
    for amps in (c, s, r):
        amps[np.abs(amps) <= TOL.pruning] = 0.0
    norm = np.sqrt(np.abs(c) ** 2 + np.abs(s) ** 2 + np.abs(r) ** 2)
    unit = np.abs(norm - 1.0) <= TOL.normalization
    _require_rows(
        unit.all(axis=1),
        lambda row: "single-particle ket must be unit norm, "
        f"got {float(norm[row][~unit[row]][0])!r}",
    )
    return c, s, r


#: complex entries (128 KiB) up to which a step's array of a batch's two
#: blocks, folded stacked in one loop, may grow.  In fresh processes at
#: N = 2..9 stacking took 0.85-0.99x the per-block time at 5,760-8,190
#: entries (1.02-1.12x at N = 3, whose down block is one particle), and
#: 1.03-2.1x from 10,800 entries on, where each stacked call took 67-740
#: fresh pages from the allocator (minor page faults), each per-block call
#: 3-670.  A single state (G = 1) always folds stacked: halving its steps
#: paid at every N measured, up to 170.
STACKED_ENTRIES = 1 << 13


def _project_batch(
    n_up: int,
    theta: np.ndarray,
    omega: np.ndarray,
    phi: np.ndarray,
    gamma: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Detector projection of G ensembles given their (G, N) mode angles,
    particles ordered spin-up first.

    Each particle's amplitudes on L, R and the remainder mode chi are those
    of :func:`_mode_amplitudes`.  Up and down particles never share a mode,
    so each state is a product of an up and a down block
    (:func:`_detector_block`), and the outcome with alpha up and beta down
    particles at L has amplitude U[alpha] * D[beta].
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
    total = theta.shape[1]
    _require_fold_size("projection", total)
    c, s, r = _mode_amplitudes(theta, omega, phi, gamma)
    # both blocks fold in one loop for a single state, and for a batch while
    # a step's stacked array stays within STACKED_ENTRIES
    if len(c) == 1 or 2 * len(c) * (max(n_up, total - n_up) + 1) ** 2 <= STACKED_ENTRIES:
        up_amps, down_amps = _split_fold(c, s, r, n_up)
    else:
        (up_amps,) = _fock_blocks(c[:, :n_up], s[:, :n_up], r[:, :n_up])
        (down_amps,) = _fock_blocks(c[:, n_up:], s[:, n_up:], r[:, n_up:])
    up, up_detected, up_leaked = _detector_block(up_amps)
    down, _, down_leaked = _detector_block(down_amps)
    outcomes = up[:, :, None] * down[:, None, :]
    kept = outcomes.real ** 2 + outcomes.imag ** 2
    kept[np.abs(outcomes) <= TOL.pruning] = 0.0
    q, alpha = _sector_layout(n_up, total - n_up)
    by_sector = np.zeros((len(outcomes), total + 1, n_up + 1))
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
    ket's, each spin-up first: the one-pair case of :func:`fold_amplitudes`,
    both computed by :func:`_pair_amplitudes`.  Different n_up give
    exactly 0.  Raises SizeLimitError above N = 170.
    """
    _require_fold_size("amplitude", theta.shape[1])
    c, s, r = _mode_amplitudes(theta, omega, phi, gamma)
    if bra_n_up != ket_n_up:
        return 0j
    return complex(_pair_amplitudes(ket_n_up, c, s, r)[0])


def fold_amplitudes(
    n_up: int,
    theta: np.ndarray,
    omega: np.ndarray,
    phi: np.ndarray,
    gamma: np.ndarray,
) -> np.ndarray:
    """Amplitudes <bra|ket> of G pairs of symmetrized boson product states
    with n_up spin-up particles each, shape (G,).

    Row [0, g] of the (2, G, N) angle arrays holds pair g's bra particles,
    row [1, g] its ket's, each spin-up first; a RowError names the row of
    the (2G, N) stack, bras first.  Raises SizeLimitError above N = 170.
    """
    _, g, total = theta.shape
    _require_fold_size("amplitude", total)
    c, s, r = _mode_amplitudes(
        theta.reshape(2 * g, total), omega.reshape(2 * g, total),
        phi.reshape(2 * g, total), gamma.reshape(2 * g, total),
    )
    return _pair_amplitudes(n_up, c, s, r)


def _pair_amplitudes(n_up: int, c: np.ndarray, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """<bra|ket> of each pair of the (2G, N) mode amplitudes of
    :func:`_mode_amplitudes`: rows g and G + g are pair g's bra and ket.

    All 2G states fold in one :func:`_split_fold` call, and each row's
    arithmetic is that of a single pair, so a pair's amplitude does not
    depend on G.  The overlap matrix is block-diagonal by spin, and each
    block has rank at most 3 (every mode lies in span{L, R, chi}), so its
    permanent is the sum of conj(F_bra) F_ket over the Fock amplitudes of
    :func:`_fock_blocks`.  The product of the two block permanents is
    divided by sqrt(prod nu! prod mu!), nu and mu the repeat counts of
    exactly equal (c, s, r) within a block of the bra and of the ket, as in
    :func:`algebra.transition_amplitude`.
    """
    g = len(c) // 2
    blocks = (slice(None, n_up), slice(n_up, None))
    folded = _split_fold(c, s, r, n_up)
    rows = list(zip(c.tolist(), s.tolist(), r.tolist()))
    values = np.empty(g, dtype=complex)
    for pair in range(g):
        value = 1.0
        for amps in folded:
            value *= np.vdot(amps[pair], amps[g + pair])
        # factor by factor, since prod nu! * prod mu! can overflow a double
        root_repeats = 1.0
        for row in (pair, g + pair):
            triples = list(zip(*rows[row]))
            for block in blocks:
                for k in Counter(triples[block]).values():
                    if k > 1:  # a factor sqrt(1!) = 1 leaves the product as it is
                        root_repeats *= math.sqrt(math.factorial(k))
        values[pair] = value / root_repeats
    return values


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
    sizes alone.  An empty batch is one empty slice."""
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
