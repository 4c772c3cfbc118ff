"""Entropy, concurrence, Schmidt decomposition, and closed-form tests."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from identangle import detection, fold, measures
from identangle.algebra import DensityMatrix, convex_mixture, pure_to_density
from identangle.detection import ParticleEnsemble, entanglement_of_particles, project_onto_detectors
from identangle.errors import (
    BipartitionError,
    ConsistencyError,
    IdentangleError,
    NormalizationError,
    SizeLimitError,
)
from identangle.measures import (
    LabelSplit,
    ModeSplit,
    coefficient_distance,
    concurrence_pure,
    dicke_state,
    schmidt_coefficients,
    schmidt_decompose,
    three_boson_average_concurrence,
    three_boson_average_concurrence_coherences,
    three_boson_projected_norm_sq,
    two_boson_average_concurrence,
    verify_schmidt_equivalence,
    von_neumann_entropy,
)
from identangle.states import (
    SpatialMode,
    Spin,
    Statistics,
    SymmetricKet,
    occupation_key,
)
from identangle.tolerances import DEFAULT_TOLERANCES


def diag_density(*weights):
    keys = [occupation_key([("L", Spin.UP)]), occupation_key([("L", Spin.DOWN)]),
            occupation_key([("R", Spin.UP)]), occupation_key([("R", Spin.DOWN)])]
    n = len(weights)
    return DensityMatrix(keys[:n], np.diag(weights).astype(complex))


def test_entropy_rank_one():
    assert von_neumann_entropy(diag_density(1.0)) == 0.0


def test_entropy_balanced():
    assert abs(von_neumann_entropy(diag_density(0.5, 0.5)) - 1.0) < 1e-12


def test_entropy_skewed_matches_direct_formula():
    w = (1 / 3, 2 / 3)
    expected = -sum(v * math.log2(v) for v in w)
    assert abs(von_neumann_entropy(diag_density(*w)) - expected) < 1e-12
    assert abs(expected - 0.9182958340544896) < 1e-12


def test_entropy_requires_unit_trace():
    rho = DensityMatrix(
        [occupation_key([("L", Spin.UP)])], np.array([[0.7]], dtype=complex)
    )
    with pytest.raises(NormalizationError):
        von_neumann_entropy(rho)


def test_entropy_zero_iff_rank_one(rng):
    keys = [occupation_key([("L", Spin.UP)]), occupation_key([("L", Spin.DOWN)])]
    states = []
    for _ in range(2):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        states.append(
            SymmetricKet(
                1,
                Statistics.BOSON,
                dict(zip(keys, map(complex, v))),
                normalized=True,
            )
        )
    pure = pure_to_density(states[0])
    assert von_neumann_entropy(pure) < 1e-10
    mixed = convex_mixture([(0.5, pure_to_density(s)) for s in states])
    if sorted(mixed.eigenvalues())[-2] > 1e-6:
        assert von_neumann_entropy(mixed) > 1e-6


def bell_sector():
    key_ud = occupation_key([("L", Spin.UP), ("R", Spin.DOWN)])
    key_du = occupation_key([("L", Spin.DOWN), ("R", Spin.UP)])
    amp = 1 / math.sqrt(2)
    return SymmetricKet(
        2, Statistics.BOSON, {key_ud: amp, key_du: amp}, normalized=True
    )


def test_concurrence_product_state():
    key = occupation_key([("L", Spin.UP), ("R", Spin.DOWN)])
    state = SymmetricKet(2, Statistics.BOSON, {key: 1.0}, normalized=True)
    assert concurrence_pure(state, ModeSplit()) == 0.0


def test_concurrence_reads_zero_on_a_product_state_off_unit_norm():
    # 1 - 5e-13 passes the unit-norm check; sqrt(2 * (1 - sum c^4)) read 2.0e-06
    key = occupation_key([("L", Spin.UP), ("R", Spin.DOWN)])
    state = SymmetricKet(2, Statistics.BOSON, {key: 1.0 - 5e-13}, normalized=True)
    assert concurrence_pure(state, ModeSplit()) == 0.0


def test_concurrence_rejects_a_non_unit_ket():
    key = occupation_key([("L", Spin.UP), ("R", Spin.DOWN)])
    state = SymmetricKet(2, Statistics.BOSON, {key: 2.0})
    with pytest.raises(NormalizationError, match="needs a unit ket"):
        concurrence_pure(state, ModeSplit())


def test_concurrence_bell_state():
    assert abs(concurrence_pure(bell_sector(), ModeSplit()) - 1.0) < 1e-12


def test_concurrence_equals_two_lambda_product(rng):
    a = float(rng.uniform(0.2, 0.9))
    b = math.sqrt(1 - a * a)
    key_ud = occupation_key([("L", Spin.UP), ("R", Spin.DOWN)])
    key_du = occupation_key([("L", Spin.DOWN), ("R", Spin.UP)])
    state = SymmetricKet(
        2, Statistics.BOSON, {key_ud: a, key_du: b}, normalized=True
    )
    assert abs(concurrence_pure(state, ModeSplit()) - 2 * a * b) < 1e-12


def test_concurrence_entropy_verdicts_agree(rng):
    for _ in range(10):
        a = float(rng.uniform(0.1, 0.99))
        b = math.sqrt(1 - a * a)
        key_ud = occupation_key([("L", Spin.UP), ("R", Spin.DOWN)])
        key_du = occupation_key([("L", Spin.DOWN), ("R", Spin.UP)])
        state = SymmetricKet(
            2, Statistics.BOSON, {key_ud: a, key_du: b}, normalized=True
        )
        c = concurrence_pure(state, ModeSplit())
        result = schmidt_decompose(state, ModeSplit())
        entropy_like = -sum(
            l * l * math.log2(l * l) for l in result.coefficients if l > 1e-12
        )
        assert (c < 1e-10) == (entropy_like < 1e-10)


def test_weight_measure_rejects_an_unknown_measure():
    with pytest.raises(ConsistencyError, match="unknown measure 'negativity'"):
        fold.weight_measure(np.array([[1.0, 0.0]]), 1, "negativity")


def test_schmidt_product_state_single_coefficient():
    key = occupation_key([("L", Spin.UP), ("R", Spin.DOWN)])
    state = SymmetricKet(2, Statistics.BOSON, {key: 1.0}, normalized=True)
    result = schmidt_decompose(state, ModeSplit())
    assert result.coefficients == (1.0,)
    assert result.bipartition == ("modes", 1, 1)


def test_schmidt_mode_split_reconstruction(rng):
    ens_state = bell_sector()
    result = schmidt_decompose(ens_state, ModeSplit())
    rebuilt = {}
    for lam, left, right in zip(
        result.coefficients, result.left_basis, result.right_basis
    ):
        for lk, lv in left.items():
            for rk, rv in right.items():
                key = occupation_key(lk + rk)
                rebuilt[key] = rebuilt.get(key, 0j) + lam * lv * rv
    for key, value in ens_state.items():
        assert abs(rebuilt[key] - value) < 1e-10


def test_schmidt_bases_orthonormal(rng):
    th = rng.uniform(0.2, 1.3, 3)
    om = rng.uniform(0, 2 * math.pi, 3)
    from identangle.detection import project_onto_detectors

    ens = ParticleEnsemble(
        2, tuple(SpatialMode(theta=t, omega=w) for t, w in zip(th, om))
    )
    sector = project_onto_detectors(ens).sector(2)
    result = schmidt_decompose(sector.state, ModeSplit())
    for basis in (result.left_basis, result.right_basis):
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(u.inner(v) - expected) < 1e-10
    assert abs(sum(l * l for l in result.coefficients) - 1) < 1e-10


def test_schmidt_rotation_invariance(rng):
    # unitary mixing of the left sector basis leaves the spectrum unchanged
    state = bell_sector()
    pairs = sorted(state.keys())
    m = np.zeros((2, 2), dtype=complex)
    left_keys = [occupation_key([("L", Spin.UP)]), occupation_key([("L", Spin.DOWN)])]
    right_keys = [occupation_key([("R", Spin.UP)]), occupation_key([("R", Spin.DOWN)])]
    for key, value in state.items():
        lk = occupation_key([lab for lab in key if lab[0] == "L"])
        rk = occupation_key([lab for lab in key if lab[0] == "R"])
        m[left_keys.index(lk), right_keys.index(rk)] = value
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(x)
    rotated = u @ m
    base = np.linalg.svd(m, compute_uv=False)
    after = np.linalg.svd(rotated, compute_uv=False)
    assert np.allclose(base, after, atol=1e-12)


def test_schmidt_label_split_binomial_formula():
    for n_total in range(2, 7):
        for n_up in range(0, n_total + 1):
            state = dicke_state(n_total, n_up)
            for n_left in range(1, n_total):
                n_right = n_total - n_left
                result = schmidt_decompose(state, LabelSplit(n_left, n_right))
                expected = sorted(
                    (
                        math.sqrt(
                            math.comb(n_left, kx)
                            * math.comb(n_right, n_up - kx)
                            / math.comb(n_total, n_up)
                        )
                        for kx in range(
                            max(0, n_up - n_right), min(n_up, n_left) + 1
                        )
                    ),
                    reverse=True,
                )
                got = list(result.coefficients)
                assert len(got) == len(expected)
                assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-10


def test_schmidt_label_split_three_two():
    result = schmidt_decompose(dicke_state(3, 2), LabelSplit(2, 1))
    expected = sorted([math.sqrt(1 / 3), math.sqrt(2 / 3)], reverse=True)
    assert max(abs(a - b) for a, b in zip(result.coefficients, expected)) < 1e-12


def invalid_schmidt_inputs():
    """(state, bipartition) pairs that neither Schmidt route accepts."""
    mixed_q = SymmetricKet(
        1,
        Statistics.BOSON,
        {
            occupation_key([("L", Spin.UP)]): 1 / math.sqrt(2),
            occupation_key([("R", Spin.UP)]): 1 / math.sqrt(2),
        },
        normalized=True,
    )
    chi_state = SymmetricKet(
        1,
        Statistics.BOSON,
        {occupation_key([("chi", Spin.UP)]): 1.0},
        normalized=True,
    )
    return [
        (dicke_state(3, 2), LabelSplit(2, 2)),
        (mixed_q, ModeSplit()),
        (chi_state, ModeSplit()),
        (mixed_q, LabelSplit(1, 0)),
    ]


def test_schmidt_bipartition_errors(rng):
    # both routes reject each input with the same message
    for state, bipartition in invalid_schmidt_inputs():
        with pytest.raises(BipartitionError) as decompose_error:
            schmidt_decompose(state, bipartition)
        with pytest.raises(BipartitionError) as coefficients_error:
            schmidt_coefficients(state, bipartition)
        assert str(coefficients_error.value) == str(decompose_error.value)


def test_schmidt_coefficients_are_the_decomposition_coefficients(rng):
    # one matrix and one SVD per split: the coefficients agree bit for bit
    for n_total in range(2, 7):
        for n_up in range(0, n_total + 1):
            state = dicke_state(n_total, n_up)
            for n_left in range(1, n_total):
                split = LabelSplit(n_left, n_total - n_left)
                assert schmidt_coefficients(state, split) == schmidt_decompose(state, split).coefficients
    sectors = 0
    for _ in range(40):
        n_total = int(rng.integers(2, 7))
        modes = tuple(
            SpatialMode(theta=float(t), omega=float(w), phi=float(f))
            for t, w, f in zip(
                rng.uniform(0.0, math.pi / 2, n_total),
                rng.uniform(0.0, 2 * math.pi, n_total),
                rng.uniform(1.0, math.pi / 2, n_total),
            )
        )
        for sector in project_onto_detectors(ParticleEnsemble(int(rng.integers(0, n_total + 1)), modes)).sectors:
            sectors += 1
            assert schmidt_coefficients(sector.state, ModeSplit()) == schmidt_decompose(sector.state, ModeSplit()).coefficients
    assert sectors > 100


def test_schmidt_routes_reject_a_non_unit_ket_and_an_unknown_split():
    key = occupation_key([("L", Spin.UP), ("R", Spin.DOWN)])
    state = SymmetricKet(2, Statistics.BOSON, {key: 2.0})
    for route in (schmidt_decompose, schmidt_coefficients):
        with pytest.raises(NormalizationError, match=f"{route.__name__} needs a unit ket"):
            route(state, ModeSplit())
        with pytest.raises(BipartitionError, match="unsupported bipartition"):
            route(bell_sector(), ("modes", 1, 1))


def test_verify_schmidt_equivalence_three_two():
    report = verify_schmidt_equivalence(3, 2, 0.9, 0.4, (2, 1))
    expected = sorted([math.sqrt(1 / 3), math.sqrt(2 / 3)], reverse=True)
    assert report.max_abs_diff < 1e-10
    assert max(abs(a - b) for a, b in zip(report.input_coefficients, expected)) < 1e-10


def test_verify_schmidt_equivalence_two_one():
    report = verify_schmidt_equivalence(2, 1, 0.8, 1.9, (1, 1))
    expected = (math.sqrt(0.5), math.sqrt(0.5))
    assert report.max_abs_diff < 1e-10
    assert max(abs(a - b) for a, b in zip(report.input_coefficients, expected)) < 1e-10


def test_verify_schmidt_equivalence_partial_overlap_breaks():
    report = verify_schmidt_equivalence(
        3, 2, [0.3, 0.8, 1.2], [0.0, 0.0, 0.0], (2, 1)
    )
    assert report.max_abs_diff > 1e-3


def test_verify_schmidt_equivalence_split_validation():
    with pytest.raises(ConsistencyError):
        verify_schmidt_equivalence(3, 2, 0.5, 0.0, (2, 2))


def test_verify_schmidt_equivalence_checks_the_cap_before_the_label_split(monkeypatch):
    # the label split costs O(N^3): N = 1200 took 70 s before failing the cap
    def label_split(*args, **kwargs):
        raise AssertionError("label split computed above the projection cap")

    monkeypatch.setattr(measures, "schmidt_decompose", label_split)
    with pytest.raises(SizeLimitError, match="projection is capped at N <= 170, got N = 171"):
        verify_schmidt_equivalence(171, 85, 0.7, 0.0, (85, 86))


def svd_schmidt_equivalence(n_total, n_up, theta, omega, split):
    """(input, output, sector probability) of the mode-splitting check
    through the SVD routes: schmidt_decompose of dicke_state across the
    label split and of the project_onto_detectors sector across L|R, with
    the input checks in the order verify_schmidt_equivalence makes them."""
    n_left, n_right = split
    if n_left + n_right != n_total:
        raise ConsistencyError(f"split {split} does not partition {n_total} particles")
    if n_left < 1 or n_right < 1:
        raise ConsistencyError("both sides of the split must be nonempty")
    fold._require_fold_size("projection", n_total)
    thetas = measures._broadcast_angle(theta, n_total, "theta")
    omegas = measures._broadcast_angle(omega, n_total, "omega")
    reference = dicke_state(n_total, n_up)
    ensemble = ParticleEnsemble(
        n_up, tuple(SpatialMode(theta=t, omega=w) for t, w in zip(thetas, omegas))
    )
    label = schmidt_decompose(reference, LabelSplit(n_left, n_right)).coefficients
    sector = project_onto_detectors(ensemble).sector(n_left)
    return label, schmidt_decompose(sector.state, ModeSplit()).coefficients, sector.probability


def schmidt_equivalence_inputs(count, seed=1170):
    """Seeded (n_total, n_up, theta, omega, split) inputs: shared and
    distinct angles, thetas at 0 or pi/2 that empty sectors, N from 2 to
    170, and every 23rd input made invalid one way or another."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        big = case % 40 == 0
        n_total = 170 if case == 0 else int(rng.integers(31, 171) if big else rng.integers(2, 31))
        n_up = int(rng.integers(0, n_total + 1))
        if big:  # few particles of one spin keep the SVD routes cheap
            n_up = min(n_up, 3) if rng.random() < 0.5 else max(n_up, n_total - 3)
        n_left = int(rng.integers(1, n_total))
        thetas = rng.uniform(0.0, math.pi / 2, n_total)
        edges = rng.choice([0.0, math.pi / 2], n_total)
        kind = case % 4
        if kind == 0:  # one shared pair of angles
            theta, omega = float(thetas[0]), float(rng.uniform(-7.0, 7.0))
        elif kind == 1:  # distinct angles per particle
            theta, omega = thetas.tolist(), rng.uniform(0.0, 2 * math.pi, n_total).tolist()
        elif kind == 2:  # distinct, with about half the thetas at an edge
            theta = np.where(rng.random(n_total) < 0.5, edges, thetas).tolist()
            omega = float(rng.uniform(0.0, 2 * math.pi))
        else:  # every theta at one edge: one sector holds everything
            theta, omega = float(edges[0]), rng.uniform(0.0, 2 * math.pi, n_total).tolist()
        split = (n_left, n_total - n_left)
        if case % 23 == 22:
            flaw = (case // 23) % 6
            if flaw == 0:
                n_up = n_total + 1
            elif flaw == 1:
                split = (n_left, n_total - n_left + 1)
            elif flaw == 2:
                split = (0, n_total)
            elif flaw == 3:
                theta = 1.7
            elif flaw == 4:
                omega = [0.0] * (n_total + 1)
            else:
                n_total, split = 171, (85, 86)
                theta, omega = 0.7, 0.0
        yield n_total, n_up, theta, omega, split


def test_schmidt_equivalence_matches_the_svd_routes():
    # the closed form and the fold's weights against the SVD routes they
    # replace, on 320 seeded inputs: within tol.comparison, or the same error
    tol = DEFAULT_TOLERANCES.comparison
    seen = Counter()
    for args in schmidt_equivalence_inputs(320):
        try:
            label, mode, probability = svd_schmidt_equivalence(*args)
        except IdentangleError as exc:
            with pytest.raises(IdentangleError) as raised:
                verify_schmidt_equivalence(*args)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc)), args
            seen[type(exc).__name__] += 1
            continue
        report = verify_schmidt_equivalence(*args)
        assert coefficient_distance(report.input_coefficients, label) < tol, args
        assert coefficient_distance(report.output_coefficients, mode) < tol, args
        assert abs(report.max_abs_diff - coefficient_distance(label, mode)) < tol, args
        assert report.sector_probability == probability, args
        seen["shared" if isinstance(args[2], float) else "distinct"] += 1
    assert seen["shared"] >= 50 and seen["distinct"] >= 100, seen
    assert seen["SectorError"] >= 40 and seen["ConsistencyError"] >= 8 and seen["SizeLimitError"] >= 1, seen


def test_two_boson_closed_form_grid(rng):
    thetas = np.linspace(0, math.pi / 2, 20)
    for t1 in thetas[::4]:
        for t2 in thetas[::4]:
            expected = two_boson_average_concurrence(float(t1), float(t2))
            for _ in range(3):
                w = rng.uniform(0, 2 * math.pi, 2)
                ens = ParticleEnsemble(
                    1,
                    (
                        SpatialMode(theta=float(t1), omega=float(w[0])),
                        SpatialMode(theta=float(t2), omega=float(w[1])),
                    ),
                )
                assert abs(
                    entanglement_of_particles(ens, "concurrence") - expected
                ) < 1e-10


def test_three_boson_closed_form_branches(rng):
    for same_side in (True, False):
        for _ in range(20):
            if same_side:
                lo, hi = (
                    (0.0, math.pi / 4)
                    if rng.random() < 0.5
                    else (math.pi / 4, math.pi / 2)
                )
                t1, t2 = rng.uniform(lo, hi, 2)
            else:
                t1 = rng.uniform(0, math.pi / 4)
                t2 = rng.uniform(math.pi / 4, math.pi / 2)
            t3 = rng.uniform(0, math.pi / 2)
            w = rng.uniform(0, 2 * math.pi, 3)
            thetas = (float(t1), float(t2), float(t3))
            omegas = tuple(map(float, w))
            ens = ParticleEnsemble(
                2,
                tuple(
                    SpatialMode(theta=t, omega=o) for t, o in zip(thetas, omegas)
                ),
            )
            numeric = entanglement_of_particles(ens, "concurrence")
            theta_form = three_boson_average_concurrence(thetas, omegas)
            coh_form = three_boson_average_concurrence_coherences(
                2 * math.cos(t1) * math.sin(t1),
                2 * math.cos(t2) * math.sin(t2),
                2 * math.cos(t3) * math.sin(t3),
                omegas[0] - omegas[1],
                same_side,
            )
            assert abs(numeric - theta_form) < 1e-9
            assert abs(numeric - coh_form) < 1e-9
            assert abs(theta_form - coh_form) < 1e-11


def test_three_boson_sign_rule_matters():
    # evaluating the coherence form on the wrong branch must disagree
    t1, t2, t3 = 0.3, 0.5, 0.8
    w = (0.4, 1.7, 2.9)
    correct = three_boson_average_concurrence_coherences(
        2 * math.cos(t1) * math.sin(t1),
        2 * math.cos(t2) * math.sin(t2),
        2 * math.cos(t3) * math.sin(t3),
        w[0] - w[1],
        True,
    )
    wrong = three_boson_average_concurrence_coherences(
        2 * math.cos(t1) * math.sin(t1),
        2 * math.cos(t2) * math.sin(t2),
        2 * math.cos(t3) * math.sin(t3),
        w[0] - w[1],
        False,
    )
    reference = three_boson_average_concurrence((t1, t2, t3), w)
    assert abs(correct - reference) < 1e-12
    assert abs(wrong - reference) > 1e-3


# -- the array closed forms against the scalar math-module formulas --------


def math_two_boson(theta1, theta2):
    c1 = 2.0 * math.cos(theta1) * math.sin(theta1)
    c2 = 2.0 * math.cos(theta2) * math.sin(theta2)
    return 0.25 * c1 * c2


def math_interference_sq(thetas, omegas):
    t1, t2, _ = thetas
    w1, w2, _ = omegas
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    return c1 * c1 * s2 * s2 + s1 * s1 * c2 * c2 + 2.0 * math.cos(w1 - w2) * c1 * s1 * c2 * s2


def math_three_boson_norm_sq(thetas, omegas):
    t1, t2, _ = thetas
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    return c1 * c1 * c2 * c2 + s1 * s1 * s2 * s2 + 0.5 * math_interference_sq(thetas, omegas)


def math_three_boson(thetas, omegas):
    t1, t2, t3 = thetas
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    c3, s3 = math.cos(t3), math.sin(t3)
    p = math.sqrt(max(0.0, math_interference_sq(thetas, omegas)))
    norm_sq = math_three_boson_norm_sq(thetas, omegas)
    return p * s3 * c3 * (c1 * c2 + s1 * s2) / (math.sqrt(2.0) * norm_sq)


def math_three_boson_coherences(c1, c2, c3, delta_omega, same_side):
    eps = 1.0 if same_side else -1.0
    root = math.sqrt(max(0.0, (1.0 - c1 * c1) * (1.0 - c2 * c2)))
    first = max(0.0, 1.0 + c1 * c2 * math.cos(delta_omega) - eps * root)
    second = max(0.0, 1.0 + c1 * c2 + eps * root)
    norm_sq = 0.5 * (1.0 + eps * root) + 0.25 * first
    return c3 * math.sqrt(first * second) / (4.0 * math.sqrt(2.0) * norm_sq)


def assert_within_ulps(got, want, ulps=4):
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(want, dtype=float))
    assert got.shape == want.shape
    scale = np.spacing(np.maximum(np.abs(got), np.abs(want)))
    assert np.all(np.abs(got - want) <= ulps * scale), np.abs(got - want).max()


def closed_form_points(rng):
    """Theta triples on {0, pi/4, pi/2}^3 and at random, each with random omegas."""
    special = (0.0, math.pi / 4, math.pi / 2)
    thetas = [triple for triple in itertools.product(special, repeat=3)]
    thetas += rng.uniform(0.0, math.pi / 2, (200, 3)).tolist()
    omegas = rng.uniform(0.0, 2.0 * math.pi, (len(thetas), 3))
    return np.array(thetas), omegas


def test_array_closed_forms_match_the_math_formulas(rng):
    thetas, omegas = closed_form_points(rng)
    coherences = 2.0 * np.cos(thetas) * np.sin(thetas)
    same_side = (thetas[:, 0] - math.pi / 4) * (thetas[:, 1] - math.pi / 4) >= 0.0
    cases = list(zip(thetas.tolist(), omegas.tolist(), coherences.tolist(), same_side.tolist()))
    assert_within_ulps(
        two_boson_average_concurrence(thetas[:, 0], thetas[:, 1]),
        [math_two_boson(t[0], t[1]) for t, _, _, _ in cases],
    )
    assert_within_ulps(
        measures._interference_sq(thetas, omegas), [math_interference_sq(t, w) for t, w, _, _ in cases]
    )
    assert_within_ulps(
        three_boson_projected_norm_sq(thetas, omegas), [math_three_boson_norm_sq(t, w) for t, w, _, _ in cases]
    )
    assert_within_ulps(
        three_boson_average_concurrence(thetas, omegas), [math_three_boson(t, w) for t, w, _, _ in cases]
    )
    assert_within_ulps(
        three_boson_average_concurrence_coherences(*coherences.T, omegas[:, 0] - omegas[:, 1], same_side),
        [math_three_boson_coherences(*c, w[0] - w[1], side) for _, w, c, side in cases],
    )
    # scalar calls still work, and give the scalar formula
    t, w, c, side = cases[-1]
    for got, want in [
        (two_boson_average_concurrence(t[0], t[1]), math_two_boson(t[0], t[1])),
        (three_boson_projected_norm_sq(t, w), math_three_boson_norm_sq(t, w)),
        (three_boson_average_concurrence(tuple(t), tuple(w)), math_three_boson(t, w)),
        (three_boson_average_concurrence_coherences(*c, w[0] - w[1], side),
         math_three_boson_coherences(*c, w[0] - w[1], side)),
    ]:
        assert np.ndim(got) == 0
        assert_within_ulps(float(got), want)


def test_array_closed_forms_broadcast(rng):
    t1 = rng.uniform(0.0, math.pi / 2, (5, 1))
    t2 = rng.uniform(0.0, math.pi / 2, 4)
    values = two_boson_average_concurrence(t1, t2)
    assert values.shape == (5, 4)
    assert_within_ulps(values, [[math_two_boson(a, b) for b in t2] for a in t1[:, 0]])
    # thetas (2, 5, 3) against one omega triple
    thetas = rng.uniform(0.0, math.pi / 2, (2, 5, 3))
    omegas = rng.uniform(0.0, 2.0 * math.pi, 3)
    for form, reference in [
        (three_boson_average_concurrence, math_three_boson),
        (three_boson_projected_norm_sq, math_three_boson_norm_sq),
    ]:
        values = form(thetas, omegas)
        assert values.shape == (2, 5)
        assert_within_ulps(values, [[reference(t, omegas) for t in block] for block in thetas.tolist()])
    # coherences (4, 1), (5,) and a scalar, a (4, 5) phase difference and a (5,) branch
    c1 = rng.uniform(0.0, 1.0, (4, 1))
    c2 = rng.uniform(0.0, 1.0, 5)
    delta = rng.uniform(-math.pi, math.pi, (4, 5))
    side = np.array([True, False, True, True, False])
    values = three_boson_average_concurrence_coherences(c1, c2, 0.7, delta, side)
    assert values.shape == (4, 5)
    assert_within_ulps(values, [
        [math_three_boson_coherences(c1[i, 0], c2[j], 0.7, delta[i, j], side[j]) for j in range(5)]
        for i in range(4)
    ])


def test_array_closed_forms_check_the_whole_array():
    # the first coherence out of range, case by case and (c1, c2, c3) within a case
    c1 = np.array([0.1, 0.2, 2.0, 0.3])
    c2 = np.array([0.4, 1.7, 0.5, 0.6])
    with pytest.raises(ConsistencyError, match=r"coherences must lie in \[0, 1\], got 1\.7$"):
        three_boson_average_concurrence_coherences(c1, c2, 0.5, 0.3, True)
    with pytest.raises(ConsistencyError, match=r"got -0\.25$"):
        three_boson_average_concurrence_coherences(0.5, 0.5, np.array([0.2, -0.25]), 0.3, False)
    with pytest.raises(ConsistencyError, match=r"got nan$"):
        three_boson_average_concurrence_coherences(0.5, np.array([0.5, math.nan]), 0.5, 0.3, False)
    # the trailing dimension of thetas and omegas must be 3
    thetas, omegas = np.full((4, 3), 0.3), np.full((4, 3), 1.1)
    for form in (three_boson_average_concurrence, three_boson_projected_norm_sq, measures._interference_sq):
        for bad_thetas, bad_omegas in [
            (thetas[:, :2], omegas), (thetas, omegas[:, :2]), (thetas.T, omegas.T), ([0.1, 0.2], [0.3, 0.4]), (0.1, 0.2)
        ]:
            with pytest.raises(ConsistencyError, match="exactly three angles are required"):
                form(bad_thetas, bad_omegas)
