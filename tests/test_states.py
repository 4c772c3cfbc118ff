"""State construction, normalization factors, and expansion oracle tests."""

import math
from collections import Counter
from itertools import permutations

import pytest

from identangle.errors import ConsistencyError, NullStateError, SizeLimitError
from identangle.fold import wrap_phase
from identangle.oracles import collected_product_state
from identangle.states import (
    EXPANSION_SIZE_LIMIT,
    SingleParticleKet,
    SpatialMode,
    Spin,
    Statistics,
    SymmetricKet,
    expand_first_quantized,
    make_product_state,
    mode_ket,
    normalization_subsystem,
    normalization_total,
    occupation_key,
    symmetrize_product,
)
from identangle.tolerances import DEFAULT_TOLERANCES

from conftest import LR_LABELS, random_ket


def test_normalization_total_examples():
    assert abs(normalization_total([1, 1], 2) - 1 / math.sqrt(2)) < 1e-15
    assert abs(normalization_total([5], 5) - 1.0) < 1e-15
    assert abs(normalization_total([2, 1], 3) - 1 / math.sqrt(3)) < 1e-15


def test_normalization_total_errors():
    with pytest.raises(ConsistencyError):
        normalization_total([1, 1], 3)
    with pytest.raises(ConsistencyError):
        normalization_total([0, 3], 3)


def test_normalization_subsystem_examples():
    assert abs(normalization_subsystem(["x"], 7) - 1 / math.sqrt(7)) < 1e-15
    assert abs(normalization_subsystem(["a", "b"], 3) - 1 / math.sqrt(6)) < 1e-15
    assert abs(normalization_subsystem(["a", "a"], 3) - 1 / math.sqrt(3)) < 1e-15


def test_normalization_subsystem_errors():
    with pytest.raises(ConsistencyError):
        normalization_subsystem(["a", "b"], 1)
    with pytest.raises(ConsistencyError):
        normalization_subsystem([], 3)


def test_mode_ket_detector_limits():
    left = mode_ket(SpatialMode(theta=0.0), Spin.UP)
    assert abs(left.amplitude(("L", Spin.UP)) - 1) < 1e-12
    assert len(dict(left.items())) == 1

    right = mode_ket(SpatialMode(theta=math.pi / 2, omega=0.0), Spin.DOWN)
    assert abs(right.amplitude(("R", Spin.DOWN)) - 1) < 1e-12
    assert len(dict(right.items())) == 1


def test_mode_ket_balanced_superposition():
    ket = mode_ket(SpatialMode(theta=math.pi / 4, omega=math.pi / 3), Spin.UP)
    root_half = 1 / math.sqrt(2)
    assert abs(ket.amplitude(("L", Spin.UP)) - root_half) < 1e-12
    expected_r = root_half * complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
    assert abs(ket.amplitude(("R", Spin.UP)) - expected_r) < 1e-12
    assert abs(ket.norm() - 1) < 1e-12


def test_mode_ket_remainder_component():
    ket = mode_ket(SpatialMode(theta=0.3, phi=0.9, gamma=1.2), Spin.DOWN)
    assert abs(ket.amplitude(("chi", Spin.DOWN))) - math.cos(0.9) < 1e-12
    assert abs(ket.norm() - 1) < 1e-12


def test_mode_angle_validation():
    with pytest.raises(ConsistencyError):
        SpatialMode(theta=-0.1)
    with pytest.raises(ConsistencyError):
        SpatialMode(theta=2.0)
    with pytest.raises(ConsistencyError):
        SpatialMode(theta=0.3, phi=3.0)


@pytest.mark.parametrize("angle", ["theta", "omega", "phi", "gamma"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_mode_rejects_non_finite_angles(angle, value):
    # a non-finite phase used to be stored as NaN and fail later, elsewhere
    angles = {"theta": 0.3, "omega": 0.1, "phi": 1.0, "gamma": 0.2, angle: value}
    with pytest.raises(ConsistencyError, match=f"{angle} must be finite, got {value}"):
        SpatialMode(**angles)


def test_phases_wrap():
    mode = SpatialMode(theta=0.3, omega=2 * math.pi + 0.5, gamma=-0.5)
    assert abs(mode.omega - 0.5) < 1e-12
    assert abs(mode.gamma - (2 * math.pi - 0.5)) < 1e-12


def test_tiny_negative_phases_wrap_to_zero():
    # -1e-20 % (2*pi) rounds to 2*pi itself, outside [0, 2*pi)
    mode = SpatialMode(theta=0.3, omega=-1e-20, gamma=-1e-20)
    assert mode.omega == 0.0 and mode.gamma == 0.0
    mode = SpatialMode(theta=0.3, omega=2 * math.pi + 1e-15, gamma=-2 * math.pi)
    assert 0.0 <= mode.omega < 2 * math.pi and mode.gamma == 0.0


def test_phases_wrap_as_the_fold_wraps_them():
    # states keeps its own copy of fold.wrap_phase's rule, so that it needs no fold
    for value in (-1e-20, -5e-324, -2 * math.pi, 2 * math.pi + 1e-15, 7.5, -123.456, 1e300, -1e300):
        mode = SpatialMode(theta=0.3, omega=value, gamma=value)
        assert mode.omega == mode.gamma == wrap_phase(value), value


def test_single_particle_ket_norm_check():
    with pytest.raises(ConsistencyError):
        SingleParticleKet({("L", Spin.UP): 0.5})


def test_make_product_state_single_ket(rng):
    ket = random_ket(rng)
    state = make_product_state([ket])
    for label, amp in ket.items():
        assert abs(state.amplitude((label,)) - amp) < 1e-12


def test_make_product_state_identical_bosons():
    lu = mode_ket(SpatialMode(theta=0.0), Spin.UP)
    state = make_product_state([lu, lu])
    key = occupation_key([("L", Spin.UP), ("L", Spin.UP)])
    assert abs(state.amplitude(key) - 1) < 1e-12
    assert abs(state.norm() - 1) < 1e-12


def test_make_product_state_matches_expansion(rng):
    lu = mode_ket(SpatialMode(theta=0.0), Spin.UP)
    mixed = mode_ket(SpatialMode(theta=math.pi / 4, omega=0.0), Spin.DOWN)
    state = make_product_state([lu, mixed])
    oracle = collected_product_state([lu, mixed]).normalized_copy()
    keys = set(state.keys()) | set(oracle.keys())
    assert max(abs(state.amplitude(k) - oracle.amplitude(k)) for k in keys) < 1e-12


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
def test_collect_expansion_reproduces_product_state(rng, statistics):
    # six labels so five fermions do not exhaust the single-particle basis
    labels = LR_LABELS + (("chi", Spin.UP), ("chi", Spin.DOWN))
    for n in range(1, 6):
        kets = [random_ket(rng, labels) for _ in range(n)]
        state = make_product_state(kets, statistics)
        oracle = collected_product_state(kets, statistics).normalized_copy()
        keys = set(state.keys()) | set(oracle.keys())
        diff = max(abs(state.amplitude(k) - oracle.amplitude(k)) for k in keys)
        assert diff < 1e-12


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
def test_product_state_order_invariance(rng, statistics):
    for _ in range(10):
        kets = [random_ket(rng) for _ in range(4)]
        state = make_product_state(kets, statistics)
        perm = list(rng.permutation(4))
        permuted = make_product_state([kets[i] for i in perm], statistics)
        sign = 1.0
        if statistics is Statistics.FERMION:
            inversions = sum(
                1
                for i in range(4)
                for j in range(i + 1, 4)
                if perm[i] > perm[j]
            )
            sign = -1.0 if inversions % 2 else 1.0
        keys = set(state.keys()) | set(permuted.keys())
        diff = max(
            abs(state.amplitude(k) - sign * permuted.amplitude(k)) for k in keys
        )
        assert diff < 1e-12


def test_product_state_norm_is_one(rng):
    for n in range(1, 6):
        kets = [random_ket(rng) for _ in range(n)]
        assert abs(make_product_state(kets).norm() - 1) < 1e-10


def test_fermion_pauli_null(rng):
    ket = random_ket(rng)
    with pytest.raises(NullStateError):
        make_product_state([ket, ket], Statistics.FERMION)


def test_fermion_key_validation():
    key = occupation_key([("L", Spin.UP), ("L", Spin.UP)])
    with pytest.raises(ConsistencyError):
        SymmetricKet(2, Statistics.FERMION, {key: 1.0})


def test_symmetric_ket_normalized_flag():
    key = occupation_key([("L", Spin.UP)])
    with pytest.raises(ConsistencyError):
        SymmetricKet(1, Statistics.BOSON, {key: 0.5}, normalized=True)


def test_expand_two_distinct_kets(rng):
    kets = [random_ket(rng), random_ket(rng)]
    terms = expand_first_quantized(kets)
    assert set(terms) == {(0, 1), (1, 0)}
    for coeff in terms.values():
        assert abs(coeff - 1 / math.sqrt(2)) < 1e-12


def test_expand_dicke_pattern():
    up = mode_ket(SpatialMode(theta=0.2, omega=0.4), Spin.UP)
    down = mode_ket(SpatialMode(theta=0.2, omega=0.4), Spin.DOWN)
    terms = expand_first_quantized([up, up, down])
    # three distinct arrangements of (up, up, down), each collected to 1/sqrt(3)
    assert len(terms) == 3
    for coeff in terms.values():
        assert abs(coeff - 1 / math.sqrt(3)) < 1e-12


def test_expand_single_ket(rng):
    terms = expand_first_quantized([random_ket(rng)])
    assert terms == {(0,): pytest.approx(1.0)}


def test_expand_size_guard(rng):
    kets = [random_ket(rng) for _ in range(7)]
    with pytest.raises(SizeLimitError):
        expand_first_quantized(kets)


def test_expand_fermion_signs(rng):
    kets = [random_ket(rng), random_ket(rng)]
    terms = expand_first_quantized(kets, Statistics.FERMION)
    assert abs(terms[(0, 1)] + terms[(1, 0)]) < 1e-12


def literal_expansion(kets, statistics):
    """The expansion as a plain loop over itertools.permutations: slot a of
    permutation p holds the first ket equal to kets[p[a]], coefficients of
    equal rows summed in permutation order, cancelled rows dropped."""
    n = len(kets)
    first = {}
    reps = [first.setdefault(ket.signature(), idx) for idx, ket in enumerate(kets)]
    base = 1.0 / math.sqrt(
        math.factorial(n) * math.prod(math.factorial(v) for v in Counter(reps).values())
    )
    terms = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        sign = -1 if statistics is Statistics.FERMION and inversions % 2 else 1
        key = tuple(reps[p] for p in perm)
        terms[key] = terms.get(key, 0j) + sign * base
    return {k: v for k, v in terms.items() if abs(v) > DEFAULT_TOLERANCES.pruning}


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("n", range(1, EXPANSION_SIZE_LIMIT + 1))
def test_expand_first_quantized_is_the_permutation_loop(rng, statistics, n):
    distinct = [random_ket(rng) for _ in range(n)]
    # a copy is a different object with the same amplitudes
    copy = SingleParticleKet(dict(distinct[0].items()))
    patterns = [
        distinct,
        [distinct[k] for k in (0, 1, 0, 2, 1, 0)[:n]],
        [distinct[-1]] * n,
        [copy] + distinct[: n - 1],
    ]
    for kets in patterns:
        got = expand_first_quantized(kets, statistics)
        assert list(got.items()) == list(literal_expansion(kets, statistics).items())
        assert all(type(key) is tuple and type(value) is complex for key, value in got.items())


def test_symmetrize_product_combinatorial_norm(rng):
    # orthogonal constituents: unit norm; repeated constituents: unit norm
    lu = mode_ket(SpatialMode(theta=0.0), Spin.UP)
    rd = mode_ket(SpatialMode(theta=math.pi / 2), Spin.DOWN)
    assert abs(symmetrize_product([lu, rd]).norm() - 1) < 1e-12
    assert abs(symmetrize_product([lu, lu]).norm() - 1) < 1e-12
    # generic overlapping kets: combinatorial normalization exceeds unit norm
    a = mode_ket(SpatialMode(theta=0.3), Spin.UP)
    b = mode_ket(SpatialMode(theta=0.4), Spin.UP)
    assert symmetrize_product([a, b]).norm() > 1.0
