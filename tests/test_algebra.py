"""Transition amplitude, contraction, and symmetrized partial trace tests."""

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from identangle import algebra
from identangle.algebra import (
    DensityMatrix,
    contract_single,
    convex_mixture,
    overlap_matrix,
    pure_to_density,
    symmetrized_partial_trace,
    transition_amplitude,
)
from identangle.errors import (
    CompletenessError,
    ConsistencyError,
    NormalizationError,
)
from identangle.oracles import collected_product_state, expansion_inner_product
from identangle.states import (
    SingleParticleKet,
    SpatialMode,
    Spin,
    Statistics,
    SymmetricKet,
    make_product_state,
    mode_ket,
    occupation_key,
)

from conftest import LR_LABELS, random_ket


def basis_ket(label):
    return SingleParticleKet({label: 1.0})


def test_self_amplitude_is_one_for_orthonormal_multisets(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        choice = [LR_LABELS[i] for i in rng.integers(0, 4, size=n)]
        kets = [basis_ket(lab) for lab in choice]
        value = transition_amplitude(kets, kets, Statistics.BOSON)
        assert abs(value - 1) < 1e-12


def test_fermion_self_amplitude_orthonormal(rng):
    kets = [basis_ket(lab) for lab in LR_LABELS[:3]]
    assert abs(transition_amplitude(kets, kets, Statistics.FERMION) - 1) < 1e-12


def test_spin_orthogonal_amplitude_vanishes(rng):
    ups = [random_ket(rng, [("L", Spin.UP), ("R", Spin.UP)]) for _ in range(2)]
    downs = [random_ket(rng, [("L", Spin.DOWN), ("R", Spin.DOWN)]) for _ in range(2)]
    assert transition_amplitude(ups, downs) == 0


#: the four L/R labels plus chi: room for five fermions
CHI_LABELS = LR_LABELS + (("chi", Spin.UP), ("chi", Spin.DOWN))


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
def test_amplitude_matches_expansion_oracle(rng, statistics):
    for n in (1, 2, 3, 4, 5):
        # five fermions in the four L/R modes are a null state, whose
        # amplitude is a rounding residue on both routes: add chi
        wide = statistics is Statistics.FERMION and n == 5
        labels = CHI_LABELS if wide else LR_LABELS
        for _ in range(10):
            bras = [random_ket(rng, labels) for _ in range(n)]
            kets = [random_ket(rng, labels) for _ in range(n)]
            fast = transition_amplitude(bras, kets, statistics)
            slow = expansion_inner_product(bras, kets, statistics)
            assert abs(fast - slow) < 1e-12
            assert abs(slow) > 1e-6 or not wide


def test_amplitude_hermiticity(rng):
    for statistics in (Statistics.BOSON, Statistics.FERMION):
        bras = [random_ket(rng) for _ in range(3)]
        kets = [random_ket(rng) for _ in range(3)]
        forward = transition_amplitude(bras, kets, statistics)
        backward = transition_amplitude(kets, bras, statistics)
        assert abs(forward - backward.conjugate()) < 1e-12


def test_amplitude_ket_permutation_symmetry(rng):
    kets = [random_ket(rng) for _ in range(3)]
    bras = [random_ket(rng) for _ in range(3)]
    base = transition_amplitude(bras, kets, Statistics.BOSON)
    swapped = [kets[1], kets[0], kets[2]]
    assert abs(transition_amplitude(bras, swapped, Statistics.BOSON) - base) < 1e-12
    fermi_base = transition_amplitude(bras, kets, Statistics.FERMION)
    fermi_swap = transition_amplitude(bras, swapped, Statistics.FERMION)
    assert abs(fermi_base + fermi_swap) < 1e-12


def symmetric_basis(n):
    """Orthonormal symmetric basis over the four detector labels."""
    for combo in combinations_with_replacement(LR_LABELS, n):
        yield [basis_ket(lab) for lab in combo]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_completeness_over_symmetric_basis(rng, n):
    kets = [random_ket(rng) for _ in range(n)]
    total = sum(
        abs(transition_amplitude(bras, kets, Statistics.BOSON)) ** 2
        for bras in symmetric_basis(n)
    )
    self_overlap = transition_amplitude(kets, kets, Statistics.BOSON).real
    assert abs(total - self_overlap) < 1e-10
    # with orthonormal constituents the total is exactly one
    choice = [LR_LABELS[i] for i in rng.integers(0, 4, size=n)]
    ortho = [basis_ket(lab) for lab in choice]
    total_ortho = sum(
        abs(transition_amplitude(bras, ortho, Statistics.BOSON)) ** 2
        for bras in symmetric_basis(n)
    )
    assert abs(total_ortho - 1) < 1e-10


def test_amplitude_length_mismatch(rng):
    with pytest.raises(ConsistencyError):
        transition_amplitude([random_ket(rng)], [random_ket(rng)] * 2)


def test_overlap_matrix_entries_bounded(rng):
    bras = [random_ket(rng) for _ in range(3)]
    kets = [random_ket(rng) for _ in range(3)]
    a = overlap_matrix(bras, kets)
    assert np.abs(a).max() <= 1 + 1e-12


def test_contract_single_particle(rng):
    bra = random_ket(rng)
    ket = random_ket(rng)
    out = contract_single(bra, [ket])
    assert out.n_particles == 0
    assert abs(out.amplitude(()) - bra.inner(ket)) < 1e-12


def test_contract_detector_example():
    lu = mode_ket(SpatialMode(theta=0.0), Spin.UP)
    rd = mode_ket(SpatialMode(theta=math.pi / 2), Spin.DOWN)
    out = contract_single(lu, [lu, rd])
    assert abs(out.amplitude((("R", Spin.DOWN),)) - 1) < 1e-12
    assert len(out.amplitudes) == 1


def test_contract_orthogonal_bra(rng):
    ups = [random_ket(rng, [("L", Spin.UP), ("R", Spin.UP)]) for _ in range(2)]
    bra = random_ket(rng, [("L", Spin.DOWN), ("R", Spin.DOWN)])
    out = contract_single(bra, ups)
    assert not out.amplitudes


def test_contract_matches_termwise_oracle(rng):
    for n in (2, 3, 4):
        kets = [random_ket(rng) for _ in range(n)]
        bra = random_ket(rng)
        fast = contract_single(bra, kets)
        slow = {}
        for i in range(n):
            coeff = bra.inner(kets[i])
            rest = kets[:i] + kets[i + 1 :]
            term = collected_product_state(rest)
            for key, value in term.items():
                slow[key] = slow.get(key, 0j) + coeff * value
        keys = set(fast.keys()) | set(slow)
        assert max(abs(fast.amplitude(k) - slow.get(k, 0j)) for k in keys) < 1e-12


def test_contract_chains_to_transition_amplitude(rng):
    # <bra_rest | contract(bra_0, kets)> equals the full N-particle amplitude
    for n in (2, 3):
        for _ in range(10):
            kets = [random_ket(rng) for _ in range(n)]
            bras = [random_ket(rng) for _ in range(n)]
            contracted = contract_single(bras[0], kets)
            rest = collected_product_state(bras[1:]) if n > 1 else None
            chained = sum(
                rest.amplitude(k).conjugate() * v for k, v in contracted.items()
            )
            full = transition_amplitude(bras, kets, Statistics.BOSON)
            assert abs(chained - full) < 1e-10


def test_pure_to_density_properties(rng):
    kets = [random_ket(rng) for _ in range(2)]
    state = make_product_state(kets)
    rho = pure_to_density(state)
    assert abs(rho.trace - 1) < 1e-12
    assert abs(rho.purity - 1) < 1e-10


def test_pure_to_density_basis_ket():
    key = occupation_key([("L", Spin.UP)])
    state = SymmetricKet(1, Statistics.BOSON, {key: 1.0}, normalized=True)
    rho = pure_to_density(state)
    assert rho.basis == [key]
    assert abs(rho.entries[0, 0] - 1) < 1e-14


def test_pure_to_density_requires_normalization():
    key = occupation_key([("L", Spin.UP)])
    state = SymmetricKet(1, Statistics.BOSON, {key: 0.7})
    with pytest.raises(NormalizationError):
        pure_to_density(state)


def test_convex_mixture_trace(rng):
    states = [make_product_state([random_ket(rng)]) for _ in range(3)]
    weights = rng.uniform(0.1, 1.0, 3)
    weights /= weights.sum()
    rho = convex_mixture([(w, pure_to_density(s)) for w, s in zip(weights, states)])
    assert abs(rho.trace - 1) < 1e-10


def test_density_matrix_validation():
    key_a = occupation_key([("L", Spin.UP)])
    key_b = occupation_key([("R", Spin.UP)])
    with pytest.raises(ConsistencyError):
        DensityMatrix([key_a, key_b], np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ConsistencyError):
        DensityMatrix([key_a, key_b], np.diag([2.0, -0.5]))


def test_partial_trace_separable_state():
    lu = mode_ket(SpatialMode(theta=0.0), Spin.UP)
    rd = mode_ket(SpatialMode(theta=math.pi / 2), Spin.DOWN)
    rho = pure_to_density(make_product_state([lu, rd]))
    reduced = symmetrized_partial_trace(rho, [occupation_key([("L", Spin.UP)])])
    assert reduced.basis == [occupation_key([("R", Spin.DOWN)])]
    assert abs(reduced.entries[0, 0] - 1) < 1e-12


def test_partial_trace_projected_two_boson_sector():
    # reduced weights proportional to (cos(t1)sin(t2))^2 and (sin(t1)cos(t2))^2
    t1, t2 = 0.6, 1.1
    a = math.cos(t1) * math.sin(t2)
    b = math.sin(t1) * math.cos(t2)
    p = a * a + b * b
    key_ud = occupation_key([("L", Spin.UP), ("R", Spin.DOWN)])
    key_du = occupation_key([("L", Spin.DOWN), ("R", Spin.UP)])
    state = SymmetricKet(
        2,
        Statistics.BOSON,
        {key_ud: a / math.sqrt(p), key_du: b / math.sqrt(p)},
        normalized=True,
    )
    basis = [
        occupation_key([("L", Spin.UP)]),
        occupation_key([("L", Spin.DOWN)]),
    ]
    reduced = symmetrized_partial_trace(pure_to_density(state), basis)
    weights = {k: reduced.entries[i, i].real for i, k in enumerate(reduced.basis)}
    assert abs(weights[occupation_key([("R", Spin.DOWN)])] - a * a / p) < 1e-12
    assert abs(weights[occupation_key([("R", Spin.UP)])] - b * b / p) < 1e-12
    assert abs(reduced.trace - 1) < 1e-10


def test_partial_trace_bell_sector():
    key_ud = occupation_key([("L", Spin.UP), ("R", Spin.DOWN)])
    key_du = occupation_key([("L", Spin.DOWN), ("R", Spin.UP)])
    amp = 1 / math.sqrt(2)
    state = SymmetricKet(
        2, Statistics.BOSON, {key_ud: amp, key_du: amp}, normalized=True
    )
    basis = [occupation_key([("L", s)]) for s in (Spin.UP, Spin.DOWN)]
    reduced = symmetrized_partial_trace(pure_to_density(state), basis)
    evs = reduced.eigenvalues()
    assert np.allclose(evs, [0.5, 0.5], atol=1e-12)


def test_partial_trace_preserves_trace_and_psd(rng):
    for _ in range(10):
        t = rng.uniform(0, math.pi / 2, 2)
        w = rng.uniform(0, 2 * math.pi, 2)
        kets = [
            mode_ket(SpatialMode(theta=t[0], omega=w[0]), Spin.UP),
            mode_ket(SpatialMode(theta=t[1], omega=w[1]), Spin.DOWN),
        ]
        state = make_product_state(kets)
        # keep only the q = 1 sector to have a fixed left particle number
        amps = {
            k: v
            for k, v in state.items()
            if sum(1 for lab in k if lab[0] == "L") == 1
        }
        norm = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
        if norm < 1e-8:
            continue
        sector = SymmetricKet(
            2,
            Statistics.BOSON,
            {k: v / norm for k, v in amps.items()},
            normalized=True,
        )
        rho = pure_to_density(sector)
        basis = [occupation_key([("L", s)]) for s in (Spin.UP, Spin.DOWN)]
        reduced = symmetrized_partial_trace(rho, basis)
        assert abs(reduced.trace - rho.trace) < 1e-10
        assert reduced.eigenvalues().min() > -1e-10


def test_partial_trace_finds_each_contraction_once(monkeypatch):
    # two up particles and one down: tracing out every key of the up
    # particles leaves the down particle's pure state, and each state key
    # meets every subsystem key once
    (t1, w1), (t2, w2), (t3, w3) = (0.4, 0.3), (1.1, 2.0), (0.7, 4.1)
    kets = [
        mode_ket(SpatialMode(theta=t1, omega=w1), Spin.UP),
        mode_ket(SpatialMode(theta=t2, omega=w2), Spin.UP),
        mode_ket(SpatialMode(theta=t3, omega=w3), Spin.DOWN),
    ]
    rho = pure_to_density(make_product_state(kets))
    ups = [("L", Spin.UP), ("R", Spin.UP)]
    basis = [occupation_key(c) for c in combinations_with_replacement(ups, 2)]
    calls = []
    weight = algebra._contraction_weight
    monkeypatch.setattr(
        algebra, "_contraction_weight", lambda sub, full: calls.append(1) or weight(sub, full)
    )
    reduced = symmetrized_partial_trace(rho, basis)
    assert 0 < len(calls) <= len(basis) * len(rho.basis)
    assert reduced.basis == [occupation_key([(side, Spin.DOWN)]) for side in ("L", "R")]
    down = np.array([math.cos(t3), math.sin(t3) * np.exp(1j * w3)])
    assert np.abs(reduced.entries - np.outer(down, down.conj())).max() < 1e-12


def test_partial_trace_of_a_trace_zero_state_keeps_its_remainders():
    # the reduced basis is the remainders of the state's basis, whatever
    # its entries: a weight-0 mixture leaves the zero matrix on the
    # one-particle keys at R, not a zero-particle state
    key_ud = occupation_key([("L", Spin.UP), ("R", Spin.DOWN)])
    key_du = occupation_key([("L", Spin.DOWN), ("R", Spin.UP)])
    amp = 1 / math.sqrt(2)
    state = SymmetricKet(
        2, Statistics.BOSON, {key_ud: amp, key_du: amp}, normalized=True
    )
    rho = convex_mixture([(0.0, pure_to_density(state))])
    basis = [occupation_key([("L", s)]) for s in (Spin.UP, Spin.DOWN)]
    reduced = symmetrized_partial_trace(rho, basis)
    assert reduced.n_particles == 1
    assert reduced.basis == [occupation_key([("R", s)]) for s in (Spin.UP, Spin.DOWN)]
    assert not reduced.entries.any()


def test_partial_trace_incomplete_basis_reports_deficit():
    lu = mode_ket(SpatialMode(theta=0.0), Spin.UP)
    rd = mode_ket(SpatialMode(theta=math.pi / 2), Spin.DOWN)
    rho = pure_to_density(make_product_state([lu, rd]))
    with pytest.raises(CompletenessError) as err:
        symmetrized_partial_trace(rho, [occupation_key([("L", Spin.DOWN)])])
    assert "deficit" in str(err.value)
