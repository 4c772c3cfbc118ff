"""Detector projection, sector entanglement, and separability criterion tests."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from identangle.algebra import overlap_matrix
from identangle.detection import (
    ParticleEnsemble,
    build_detection_matrix,
    detection_key,
    entanglement_of_particles,
    project_onto_detectors,
    sector_entanglement,
    sector_reduced_density,
)
from identangle import fold
from identangle.fold import PROJECTION_SIZE_LIMIT, fold_amplitude, sweep_grid
from identangle.errors import (
    BoundsError,
    ConsistencyError,
    RowError,
    SectorError,
    SizeLimitError,
)
from identangle.measures import two_boson_average_concurrence, von_neumann_entropy
from identangle.oracles import project_by_substitution
from identangle.permanent import permanent_naive
from identangle.states import SpatialMode, Spin, ket_multiplicities, mode_ket
from identangle.tolerances import DEFAULT_TOLERANCES

from conftest import svd_route_entanglement


def uniform_ensemble(rng, n_total, n_up=None, allow_leak=False):
    if n_up is None:
        n_up = int(rng.integers(0, n_total + 1))
    modes = []
    for _ in range(n_total):
        phi = math.pi / 2
        if allow_leak and rng.random() < 0.5:
            phi = float(rng.uniform(0.2, math.pi / 2))
        modes.append(
            SpatialMode(
                theta=float(rng.uniform(0, math.pi / 2)),
                omega=float(rng.uniform(0, 2 * math.pi)),
                phi=phi,
                gamma=float(rng.uniform(0, 2 * math.pi)),
            )
        )
    return ParticleEnsemble(n_up, tuple(modes))


def test_coherence_values():
    assert abs(SpatialMode(theta=math.pi / 4).coherence() - 1) < 1e-12
    assert SpatialMode(theta=0.0).coherence() == 0
    assert abs(SpatialMode(theta=math.pi / 6).coherence() - math.sqrt(3) / 2) < 1e-12


def test_detection_matrix_diagonal_outcome():
    t1, t2 = 0.3, 0.8
    ens = ParticleEnsemble(1, (SpatialMode(theta=t1), SpatialMode(theta=t2)))
    a = build_detection_matrix(ens, 1, 1)
    expected = np.array([[math.cos(t1), 0.0], [0.0, math.cos(t2)]])
    assert np.allclose(a, expected, atol=1e-14)


def test_detection_matrix_mixed_outcome():
    t1, t2, w2 = 0.3, 0.8, 1.2
    ens = ParticleEnsemble(
        1, (SpatialMode(theta=t1), SpatialMode(theta=t2, omega=w2))
    )
    a = build_detection_matrix(ens, 1, 0)
    phase = complex(math.cos(w2), math.sin(w2))
    expected = np.array(
        [[math.cos(t1), 0.0], [0.0, phase * math.sin(t2)]], dtype=complex
    )
    assert np.allclose(a, expected, atol=1e-14)


def test_detection_matrix_matches_inner_product_oracle(rng):
    for _ in range(20):
        n_total = int(rng.integers(2, 6))
        ens = uniform_ensemble(rng, n_total, allow_leak=True)
        n = ens.n_up
        alpha = int(rng.integers(0, n + 1))
        beta = int(rng.integers(0, n_total - n + 1))
        a = build_detection_matrix(ens, alpha, beta)
        bras = [
            mode_ket(SpatialMode(theta=0.0), s)
            for s in [Spin.UP] * alpha + [Spin.DOWN] * beta
        ] + [
            mode_ket(SpatialMode(theta=math.pi / 2), s)
            for s in [Spin.UP] * (n - alpha) + [Spin.DOWN] * (n_total - n - beta)
        ]
        oracle = overlap_matrix(bras, ens.kets())
        assert np.abs(a - oracle).max() < 1e-12


def test_detection_matrix_bounds():
    ens = ParticleEnsemble(1, (SpatialMode(theta=0.1), SpatialMode(theta=0.2)))
    with pytest.raises(BoundsError):
        build_detection_matrix(ens, 2, 0)
    with pytest.raises(BoundsError):
        build_detection_matrix(ens, 0, 2)


def test_projection_two_boson_amplitudes():
    theta = 0.6
    ens = ParticleEnsemble(1, (SpatialMode(theta=theta), SpatialMode(theta=theta)))
    dec = project_onto_detectors(ens)
    c, s = math.cos(theta), math.sin(theta)
    amps = {}
    for sector in dec.sectors:
        root_p = math.sqrt(sector.probability)
        for key, value in sector.state.items():
            amps[key] = value * root_p
    key_ll = detection_key(ens, 1, 1)
    key_ud = detection_key(ens, 1, 0)
    key_du = detection_key(ens, 0, 1)
    key_rr = detection_key(ens, 0, 0)
    assert abs(amps[key_ll] - c * c) < 1e-12
    assert abs(amps[key_ud] - c * s) < 1e-12
    assert abs(amps[key_du] - s * c) < 1e-12
    assert abs(amps[key_rr] - s * s) < 1e-12


def test_projection_three_boson_amplitude_pattern(rng):
    # interference term carries 1/sqrt(2) relative to the paired outcomes
    th = rng.uniform(0.2, math.pi / 2 - 0.2, 3)
    om = rng.uniform(0, 2 * math.pi, 3)
    ens = ParticleEnsemble(
        2, tuple(SpatialMode(theta=t, omega=w) for t, w in zip(th, om))
    )
    dec = project_onto_detectors(ens)
    c = np.cos(th)
    s = np.sin(th)
    phases = np.exp(1j * om)
    interference = phases[1] * c[0] * s[1] + phases[0] * s[0] * c[1]
    printed = {
        detection_key(ens, 2, 1): c[0] * c[1] * c[2],
        detection_key(ens, 2, 0): phases[2] * c[0] * c[1] * s[2],
        detection_key(ens, 1, 1): interference * c[2] / math.sqrt(2),
        detection_key(ens, 0, 1): phases[0] * phases[1] * s[0] * s[1] * c[2],
        detection_key(ens, 1, 0): phases[2] * interference * s[2] / math.sqrt(2),
        detection_key(ens, 0, 0): phases[0] * phases[1] * phases[2] * s[0] * s[1] * s[2],
    }
    norm = math.sqrt(sum(abs(v) ** 2 for v in printed.values()))
    got = {}
    for sector in dec.sectors:
        root_p = math.sqrt(sector.probability)
        for key, value in sector.state.items():
            got[key] = value * root_p
    assert set(got) == set(printed)
    for key, value in printed.items():
        assert abs(got[key] - value / norm) < 1e-12


def test_projection_all_left():
    ens = ParticleEnsemble(1, (SpatialMode(theta=0.0), SpatialMode(theta=0.0)))
    dec = project_onto_detectors(ens)
    assert len(dec.sectors) == 1
    assert dec.sectors[0].q == 2
    assert abs(dec.sectors[0].probability - 1) < 1e-12


def test_projection_includes_q_zero():
    ens = ParticleEnsemble(
        1, (SpatialMode(theta=math.pi / 4), SpatialMode(theta=math.pi / 4))
    )
    dec = project_onto_detectors(ens)
    assert 0 in dec.probabilities()


def test_sector_states_hold_exactly_q_left_particles(rng):
    for _ in range(10):
        ens = uniform_ensemble(rng, int(rng.integers(2, 6)), allow_leak=True)
        dec = project_onto_detectors(ens)
        probabilities = dec.probabilities()
        assert len(probabilities) == len(dec.sectors)
        for sector in dec.sectors:
            assert sector.probability > 1e-14
            for key in sector.state.keys():
                assert sum(1 for lab in key if lab[0] == "L") == sector.q
                assert all(lab[0] in ("L", "R") for lab in key)


def test_projection_completeness(rng):
    for _ in range(30):
        n_total = int(rng.integers(2, 6))
        ens = uniform_ensemble(rng, n_total, allow_leak=True)
        dec = project_onto_detectors(ens)
        total = sum(s.probability for s in dec.sectors) + dec.leak_probability
        assert abs(total - 1) < 1e-10


def test_projection_size_guard():
    ens = ParticleEnsemble(
        0, tuple(SpatialMode(theta=0.3) for _ in range(PROJECTION_SIZE_LIMIT + 1))
    )
    with pytest.raises(SizeLimitError):
        project_onto_detectors(ens)


def test_projection_matches_substitution_oracle(rng):
    for n_total in (2, 3, 4, 5):
        for _ in range(5):
            ens = uniform_ensemble(rng, n_total)
            dec = project_onto_detectors(ens)
            oracle_sectors, oracle_leak = project_by_substitution(ens)
            assert abs(dec.leak_probability - oracle_leak) < 1e-10
            for sector in dec.sectors:
                reference = oracle_sectors[sector.q]
                root_p = math.sqrt(sector.probability)
                for key, value in sector.state.items():
                    assert abs(value * root_p - reference[key]) < 1e-10


PROPERTY_SETTINGS = settings(
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# theta and phi at their ends put a particle wholly on one detector or
# wholly in the remainder mode
ENDPOINT_ANGLES = st.one_of(
    st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, math.pi / 2)
)
PHASES = st.floats(0.0, 2 * math.pi)
MODES = st.builds(
    SpatialMode, theta=ENDPOINT_ANGLES, omega=PHASES, phi=ENDPOINT_ANGLES, gamma=PHASES
)


@st.composite
def ensembles(draw, max_n):
    """Ensembles of up to ``max_n`` particles drawn from a smaller pool of
    modes, so that particles often repeat a mode."""
    n_total = draw(st.integers(1, max_n))
    pool = draw(st.lists(MODES, min_size=1, max_size=n_total))
    picks = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=n_total, max_size=n_total)
    )
    n_up = draw(st.integers(0, n_total))
    return ParticleEnsemble(n_up, tuple(pool[i] for i in picks))


def assert_projection_matches(dec, reference, reference_leak):
    """Compare unnormalized sector amplitudes with a reference
    {q: {key: amplitude}}; a sector the projection drops below the pruning
    threshold must carry no reference weight beyond the tolerance."""
    assert abs(dec.leak_probability - reference_leak) < 1e-10
    got = dec.probabilities()
    for q in set(reference) | set(got):
        ref = reference.get(q, {})
        if q not in got:
            assert sum(abs(v) ** 2 for v in ref.values()) < 1e-10
            continue
        root_p = math.sqrt(got[q])
        amps = {k: v * root_p for k, v in dec.sector(q).state.items()}
        for key in set(ref) | set(amps):
            assert abs(amps.get(key, 0j) - ref.get(key, 0j)) < 1e-10


@PROPERTY_SETTINGS
@given(ensembles(max_n=5))
def test_projection_fold_matches_substitution_property(ens):
    sectors, leak = project_by_substitution(ens)
    assert_projection_matches(project_onto_detectors(ens), sectors, leak)


@settings(PROPERTY_SETTINGS, max_examples=12)
@given(ensembles(max_n=8))
def test_projection_fold_matches_detection_permanents(ens):
    # <outcome|a'(k_1)...a'(k_N)|vac> = perm(A) / sqrt(prod of occupation
    # factorials), over the input norm sqrt(perm(Gram))
    kets = ens.kets()
    gram = permanent_naive(overlap_matrix(kets, kets)).real
    n, total = ens.n_up, ens.n_total
    reference = {}
    for alpha in range(n + 1):
        for beta in range(total - n + 1):
            occupations = math.prod(
                math.factorial(m) for m in (alpha, beta, n - alpha, total - n - beta)
            )
            amp = permanent_naive(build_detection_matrix(ens, alpha, beta)) / math.sqrt(
                occupations * gram
            )
            reference.setdefault(alpha + beta, {})[detection_key(ens, alpha, beta)] = amp
    leak = 1.0 - sum(abs(v) ** 2 for amps in reference.values() for v in amps.values())
    assert_projection_matches(project_onto_detectors(ens), reference, leak)


@st.composite
def ensemble_pairs(draw, max_n):
    """A bra and a ket ensemble of one size; the bra's modes come from the
    ket's and a few more, so modes repeat within and across the two, and
    the two n_up differ on some pairs."""
    ket = draw(ensembles(max_n))
    n_total = ket.n_total
    pool = list(ket.modes) + draw(st.lists(MODES, max_size=n_total))
    picks = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=n_total, max_size=n_total)
    )
    n_up = draw(st.one_of(st.just(ket.n_up), st.integers(0, n_total)))
    return ParticleEnsemble(n_up, tuple(pool[i] for i in picks)), ket


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(ensemble_pairs(max_n=8))
def test_fold_amplitude_matches_naive_permanent(pair):
    # perm(<bra_i|ket_j>) / sqrt(prod nu! prod mu!), nu and mu the repeat
    # counts of equal kets on each side
    bra, ket = pair
    angles = np.concatenate([bra.angle_rows(), ket.angle_rows()], axis=1)
    got = fold_amplitude(bra.n_up, ket.n_up, *angles)
    bras, kets = bra.kets(), ket.kets()
    repeats = math.prod(
        math.factorial(k) for k in ket_multiplicities(bras) + ket_multiplicities(kets)
    )
    expected = permanent_naive(overlap_matrix(bras, kets)) / math.sqrt(repeats)
    assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))
    if bra.n_up != ket.n_up:
        assert got == 0


ANGLE_VALUES = {
    "theta": ENDPOINT_ANGLES,
    "phi": ENDPOINT_ANGLES,
    # beyond [0, 2*pi): the grid wraps phases as SpatialMode does
    "omega": st.floats(-7.0, 14.0),
    "gamma": st.floats(-7.0, 14.0),
}


@st.composite
def grids(draw):
    """A base ensemble and one or two axes, each setting one angle of one
    particle, crossed into a grid of (G, N) angle arrays."""
    ens = draw(ensembles(max_n=8))
    n = ens.n_total
    base = {
        attr: np.array([getattr(m, attr) for m in ens.modes]) for attr in ANGLE_VALUES
    }
    axes = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from(sorted(ANGLE_VALUES))),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    values = [
        draw(st.lists(ANGLE_VALUES[attr], min_size=1, max_size=4)) for _, attr in axes
    ]
    points = [()]
    for vals in values:
        points = [p + (v,) for p in points for v in vals]
    angles = {attr: np.tile(row, (len(points), 1)) for attr, row in base.items()}
    for g, point in enumerate(points):
        for (particle, attr), v in zip(axes, point):
            angles[attr][g, particle] = v
    return ens.n_up, angles


@PROPERTY_SETTINGS
@given(grids())
def test_sweep_grid_matches_per_point_projection(grid):
    n_up, angles = grid
    tol = DEFAULT_TOLERANCES.comparison
    theta, omega, phi, gamma = (angles[a] for a in ("theta", "omega", "phi", "gamma"))
    values = {m: sweep_grid(n_up, theta, omega, phi, gamma, m) for m in ("entropy", "concurrence")}
    p, leak, _ = values["entropy"]
    assert np.array_equal(values["concurrence"][0], p)
    for g in range(len(theta)):
        ens = ParticleEnsemble(
            n_up,
            tuple(
                SpatialMode(theta[g, k], omega[g, k], phi[g, k], gamma[g, k])
                for k in range(theta.shape[1])
            ),
        )
        dec = project_onto_detectors(ens)
        probs = dec.probabilities()
        expected_p = [probs.get(q, 0.0) for q in range(ens.n_total + 1)]
        assert np.all(np.abs(p[g] - expected_p) < tol)
        assert abs(leak[g] - dec.leak_probability) < tol
        for measure, (_, _, ent) in values.items():
            assert abs(ent[g] - svd_route_entanglement(dec, measure)) < tol


def random_batch(rng, rows, n_total):
    """(G, N) angle arrays of ``rows`` random ensembles, particles leaving
    the detectors through phi < pi/2."""
    shape = (rows, n_total)
    return (
        rng.uniform(0.0, math.pi / 2, shape),
        rng.uniform(0.0, 2 * math.pi, shape),
        rng.uniform(0.3, math.pi / 2, shape),
        rng.uniform(0.0, 2 * math.pi, shape),
    )


def test_sweep_grid_over_chunks_is_bit_identical_to_one_fold_per_chunk(rng):
    # three particles, two of them up: a chunk holds CHUNK_ENTRIES // 3^2 rows
    n_up, chunk = 2, fold.CHUNK_ENTRIES // 3 ** 2
    angles = random_batch(rng, 2 * chunk + 5, 3)
    chunks = fold.fold_chunks(n_up, 3, 2 * chunk + 5)
    assert [(rows.start, rows.stop) for rows in chunks] == [(0, chunk), (chunk, 2 * chunk), (2 * chunk, 2 * chunk + 5)]
    for measure in fold.MEASURES:
        got = sweep_grid(n_up, *angles, measure)
        per_chunk = []
        for rows in chunks:
            _, weights, p, leak = fold._project_batch(n_up, *(a[rows] for a in angles))
            per_chunk.append((p, leak, fold._postselected(weights, p, measure)))
        # and one fold of the whole batch: a fold's rows are independent
        _, weights, p, leak = fold._project_batch(n_up, *angles)
        whole = (p, leak, fold._postselected(weights, p, measure))
        for column, (value, parts) in enumerate(zip(got, zip(*per_chunk))):
            assert np.array_equal(value, np.concatenate(parts))
            assert np.array_equal(value, whole[column])


def test_the_sector_walk_and_the_average_read_the_projection_zeros(rng):
    # thetas at 0 and pi/2 zero outcomes exactly, and phi down to 0.05
    # leaves outcomes, sectors and whole rows below the pruning threshold
    pruned_outcomes = pruned_sectors = undetected = detected = 0
    for _ in range(240):
        n_total = int(rng.integers(1, 13))
        n_up = int(rng.integers(0, n_total + 1))
        edges = rng.choice([0.0, math.pi / 2], n_total)
        theta = np.where(rng.random(n_total) < 0.5, edges, rng.uniform(0.0, math.pi / 2, n_total))
        phi = rng.uniform(0.05, rng.uniform(0.05, math.pi / 2), n_total)
        omega, gamma = rng.uniform(0.0, 2 * math.pi, (2, n_total))
        angles = [a[None] for a in (theta, omega, phi, gamma)]
        outcomes, weights, p, _ = fold._project_batch(n_up, *angles)
        walk = fold._sector_walk(outcomes[0], weights[0], p[0])
        assert [q for q, _, _ in walk] == np.flatnonzero(p[0])[::-1].tolist()
        for q, probability, state in walk:
            root = math.sqrt(probability)
            alphas = np.flatnonzero(weights[0, q]).tolist()
            assert state == [(alpha, complex(outcomes[0, alpha, q - alpha]) / root) for alpha in alphas]
        q_of, alpha_of = fold._sector_layout(n_up, n_total - n_up)
        raw = np.zeros_like(weights[0])
        raw[q_of, alpha_of] = np.abs(outcomes[0])
        pruned_outcomes += np.count_nonzero(raw) - np.count_nonzero(weights[0])
        pruned_sectors += np.count_nonzero(raw.sum(axis=1) > 0.0) - np.count_nonzero(p[0])
        total = p[0].sum()
        for measure in fold.MEASURES:
            value = fold._postselected(weights, p, measure)[0]
            if total == 0.0:
                assert value == 0.0
            else:
                expected = sum(p[0] / total * fold.weight_measure(weights[0], measure))
                assert abs(value - expected) <= 1e-12
        undetected += total == 0.0
        detected += total > 0.0
    counts = (pruned_outcomes, pruned_sectors, undetected, detected)
    assert min(counts) > 0, counts


def test_sweep_grid_names_the_batch_row_of_a_later_chunk(monkeypatch):
    block = fold._detector_block
    cut = math.cos(1.0)

    def skewed_block(c, s, r):
        amps, detected, leaked = block(c, s, r)
        # only where a particle has theta > 1, which the down one never has
        return amps, detected, leaked + 1e-6 * (abs(c[:, 0]) < cut)

    monkeypatch.setattr(fold, "_detector_block", skewed_block)
    # one up and one down particle: a chunk holds CHUNK_ENTRIES // 2^2 rows
    chunk = fold.CHUNK_ENTRIES // 2 ** 2
    theta = np.full((2 * chunk + 9, 2), 0.3)
    theta[chunk + 7, 0] = theta[2 * chunk + 2, 0] = 1.2
    zeros = np.zeros_like(theta)
    with pytest.raises(RowError, match="miss one by 1.000e-06") as info:
        sweep_grid(1, theta, zeros, np.full_like(theta, math.pi / 2), zeros)
    assert info.value.row == chunk + 7


def test_detector_block_names_first_vanishing_row():
    c = np.array([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0]])
    s = np.array([[0.8, 1.0], [0.0, 0.0], [1.0, 0.0]], dtype=complex)
    r = np.zeros((3, 2), dtype=complex)
    with pytest.raises(RowError, match="vanishing norm") as info:
        fold._detector_block(c, s, r)
    assert info.value.row == 1


@st.composite
def single_spin_ensembles(draw):
    n_total = draw(st.sampled_from([12, 16]))
    # per particle sin(theta) sin(phi) > 0.41, so that at N = 16 both
    # all-at-one-side sectors keep a probability far above tol.pruning
    theta = st.floats(0.45, math.pi / 2 - 0.45)
    modes = draw(
        st.lists(
            st.builds(SpatialMode, theta=theta, omega=PHASES, phi=st.floats(1.3, math.pi / 2)),
            min_size=n_total,
            max_size=n_total,
        )
    )
    return ParticleEnsemble(draw(st.sampled_from([0, n_total])), tuple(modes))


@PROPERTY_SETTINGS
@given(single_spin_ensembles())
def test_single_spin_all_left_to_all_right_ratio(ens):
    # one spin block: all-at-L and all-at-R each come from one product
    total = ens.n_total
    up = ens.n_up == total
    dec = project_onto_detectors(ens)
    left = detection_key(ens, *((total, 0) if up else (0, total)))
    right = detection_key(ens, 0, 0)
    ratio = (
        dec.sector(total).state.amplitude(left)
        * math.sqrt(dec.sector(total).probability)
        / (dec.sector(0).state.amplitude(right) * math.sqrt(dec.sector(0).probability))
    )
    expected = math.prod(math.cos(m.theta) for m in ens.modes) / math.prod(
        math.sin(m.theta) * complex(math.cos(m.omega), math.sin(m.omega))
        for m in ens.modes
    )
    assert abs(ratio / expected - 1) < 1e-12


def test_detection_matrix_row_exchange_invariance(rng):
    for _ in range(10):
        n_total = int(rng.integers(2, 6))
        ens = uniform_ensemble(rng, n_total)
        n = ens.n_up
        alpha = int(rng.integers(0, n + 1))
        beta = int(rng.integers(0, n_total - n + 1))
        a = build_detection_matrix(ens, alpha, beta)
        reference = permanent_naive(a)
        p = rng.permutation(n_total)
        assert abs(permanent_naive(a[p]) - reference) < 1e-10 * (1 + abs(reference))


def test_global_phase_shift_invariance(rng):
    shift = 1.234
    ens = uniform_ensemble(rng, 3)
    shifted = ParticleEnsemble(
        ens.n_up,
        tuple(
            SpatialMode(theta=m.theta, omega=m.omega + shift, phi=m.phi, gamma=m.gamma)
            for m in ens.modes
        ),
    )
    base = project_onto_detectors(ens)
    moved = project_onto_detectors(shifted)
    assert set(base.probabilities()) == set(moved.probabilities())
    for q, p in base.probabilities().items():
        assert abs(moved.probabilities()[q] - p) < 1e-12
    for sector in base.sectors:
        for measure in ("entropy", "concurrence"):
            a = sector_entanglement(sector.state, measure)
            b = sector_entanglement(moved.sector(sector.q).state, measure)
            assert abs(a - b) < 1e-12


def test_sector_entanglement_edges():
    ens = ParticleEnsemble(
        1, (SpatialMode(theta=math.pi / 4), SpatialMode(theta=math.pi / 4))
    )
    dec = project_onto_detectors(ens)
    assert sector_entanglement(dec.sector(2).state, "entropy") == 0
    assert sector_entanglement(dec.sector(0).state, "concurrence") == 0
    assert abs(sector_entanglement(dec.sector(1).state, "entropy") - 1) < 1e-12


def test_sector_entanglement_single_term_sector():
    ens = ParticleEnsemble(1, (SpatialMode(theta=0.7), SpatialMode(theta=0.0)))
    dec = project_onto_detectors(ens)
    assert sector_entanglement(dec.sector(1).state, "concurrence") == 0


def test_sector_entanglement_side_symmetry(rng):
    ens = uniform_ensemble(rng, 3)
    dec = project_onto_detectors(ens)
    for sector in dec.sectors:
        schmidt = sector_entanglement(sector.state, "entropy")
        for side in ("L", "R"):
            traced = von_neumann_entropy(sector_reduced_density(sector.state, side))
            assert abs(schmidt - traced) < 1e-10


def test_sector_reduced_density_eigenvalues():
    t1, t2 = 0.5, 1.2
    ens = ParticleEnsemble(1, (SpatialMode(theta=t1), SpatialMode(theta=t2)))
    dec = project_onto_detectors(ens)
    evs = sorted(sector_reduced_density(dec.sector(1).state).eigenvalues())
    a2 = (math.cos(t1) * math.sin(t2)) ** 2
    b2 = (math.sin(t1) * math.cos(t2)) ** 2
    expected = sorted([a2 / (a2 + b2), b2 / (a2 + b2)])
    assert np.allclose(evs, expected, atol=1e-12)


def test_entanglement_two_boson_closed_form(rng):
    for _ in range(25):
        t1, t2 = rng.uniform(0, math.pi / 2, 2)
        w1, w2 = rng.uniform(0, 2 * math.pi, 2)
        ens = ParticleEnsemble(
            1,
            (SpatialMode(theta=t1, omega=w1), SpatialMode(theta=t2, omega=w2)),
        )
        value = entanglement_of_particles(ens, "concurrence")
        assert abs(value - two_boson_average_concurrence(t1, t2)) < 1e-10


def test_entanglement_phase_counterexample():
    # full coherence on both spin-up particles, opposite phases: separable
    for c3 in (0.3, 0.7, 1.0):
        theta3 = math.asin(c3) / 2
        ens = ParticleEnsemble(
            2,
            (
                SpatialMode(theta=math.pi / 4, omega=2.0),
                SpatialMode(theta=math.pi / 4, omega=2.0 + math.pi),
                SpatialMode(theta=theta3, omega=0.7),
            ),
        )
        for measure in ("entropy", "concurrence"):
            assert entanglement_of_particles(ens, measure) < 1e-10


def test_entanglement_zero_coherence():
    ens = ParticleEnsemble(
        1, (SpatialMode(theta=0.0), SpatialMode(theta=math.pi / 2))
    )
    assert entanglement_of_particles(ens, "concurrence") < 1e-12


def test_entanglement_renormalizes_under_leak(rng):
    # leak on remainder modes must not change the sector-weighted average
    t1, t2, w1, w2 = 0.5, 1.0, 0.3, 2.1
    clean = ParticleEnsemble(
        1, (SpatialMode(theta=t1, omega=w1), SpatialMode(theta=t2, omega=w2))
    )
    leaky = ParticleEnsemble(
        1,
        (
            SpatialMode(theta=t1, omega=w1, phi=1.1),
            SpatialMode(theta=t2, omega=w2, phi=0.8),
        ),
    )
    a = entanglement_of_particles(clean, "concurrence")
    b = entanglement_of_particles(leaky, "concurrence")
    assert abs(a - b) < 1e-10


def theorem1_verdict(ensemble):
    """(criterion holds, average concurrence, separable) of the
    zero-coherence criterion: if every spin-up or every spin-down particle
    has zero spatial coherence, the projected state is separable.  The
    concurrence is the fold's (:func:`fold.sweep_grid`)."""
    coherences = [m.coherence() for m in ensemble.modes]
    criterion = all(c <= 1e-12 for c in coherences[: ensemble.n_up]) or all(
        c <= 1e-12 for c in coherences[ensemble.n_up :]
    )
    value = float(sweep_grid(ensemble.n_up, *ensemble.angle_rows(), "concurrence")[2][0])
    return criterion, value, value < 1e-10


def test_theorem1_examples():
    criterion, _, separable = theorem1_verdict(
        ParticleEnsemble(
            2,
            (
                SpatialMode(theta=0.0),
                SpatialMode(theta=0.0),
                SpatialMode(theta=math.pi / 4),
            ),
        )
    )
    assert criterion and separable

    criterion, _, separable = theorem1_verdict(
        ParticleEnsemble(
            2,
            (
                SpatialMode(theta=math.pi / 4, omega=math.pi),
                SpatialMode(theta=math.pi / 4, omega=0.0),
                SpatialMode(theta=0.4),
            ),
        )
    )
    assert not criterion
    assert separable

    criterion, entanglement, separable = theorem1_verdict(
        ParticleEnsemble(
            1, (SpatialMode(theta=math.pi / 4), SpatialMode(theta=math.pi / 4))
        )
    )
    assert not criterion
    assert not separable
    assert abs(entanglement - 0.25) < 1e-10


def test_theorem1_random_property(rng):
    for _ in range(50):
        n_total = int(rng.integers(2, 7))
        n_up = int(rng.integers(0, n_total + 1))
        force_up = bool(rng.integers(0, 2))
        modes = []
        for j in range(n_total):
            forced = (j < n_up) if force_up else (j >= n_up)
            theta = (
                (0.0 if rng.random() < 0.5 else math.pi / 2)
                if forced
                else float(rng.uniform(0, math.pi / 2))
            )
            modes.append(SpatialMode(theta=theta, omega=float(rng.uniform(0, 2 * math.pi))))
        criterion, _, separable = theorem1_verdict(ParticleEnsemble(n_up, tuple(modes)))
        assert criterion
        assert separable


def test_empty_sector_lookup():
    ens = ParticleEnsemble(1, (SpatialMode(theta=0.0), SpatialMode(theta=0.0)))
    dec = project_onto_detectors(ens)
    with pytest.raises(SectorError):
        dec.sector(0)


def test_ensemble_validation():
    with pytest.raises(ConsistencyError):
        ParticleEnsemble(3, (SpatialMode(theta=0.1),))
    with pytest.raises(ConsistencyError):
        ParticleEnsemble(0, ())
