"""The verify suites against case-by-case recomputation, ``worst_case``
replay, and the array oracles at the expansion cap N = 6."""

import json
import math
import zlib

import numpy as np
import pytest

from identangle import algebra, detection, fold, measures, oracles, verify
from identangle.algebra import transition_amplitude
from identangle.cli import main
from identangle.config import ANGLES
from identangle.detection import (
    ParticleEnsemble,
    entanglement_of_particles,
    project_onto_detectors,
    sector_reduced_density,
)
from identangle.errors import ConsistencyError, NullStateError, SizeLimitError
from identangle.fold import _project_batch, _project_groups, fold_amplitude_groups
from identangle.measures import (
    three_boson_average_concurrence,
    three_boson_average_concurrence_coherences,
    two_boson_average_concurrence,
    verify_schmidt_equivalence,
)
from identangle.oracles import collect_expansion, expansion_inner_product, rows_ensemble
from identangle.states import (
    EXPANSION_SIZE_LIMIT,
    SingleParticleKet,
    SpatialMode,
    Spin,
    Statistics,
    make_product_state,
)
from identangle.tolerances import DEFAULT_TOLERANCES
from identangle.verify import (
    amplitude_oracle_error,
    label_split_error,
    projection_oracle_error,
    suite_n2_closed_form,
    suite_n3_closed_form,
    suite_oracle,
    suite_schmidt,
    suite_theorem1,
)

from conftest import LR_LABELS, CliRunner, random_ket

TOL = DEFAULT_TOLERANCES

# -- one case at a time, through entanglement_of_particles ----------------


def theorem1_case(ensemble):
    """(error, failed) of one zero-coherence case."""
    error = entanglement_of_particles(ensemble, "concurrence")
    for sector in project_onto_detectors(ensemble).sectors:
        evs = sector_reduced_density(sector.state).eigenvalues()
        second = float(evs[-2]) if len(evs) > 1 else 0.0
        error = max(error, second)
    return error, error >= TOL.comparison


def n2_case(ensemble):
    value = entanglement_of_particles(ensemble, "concurrence")
    t1, t2 = (m.theta for m in ensemble.modes)
    error = abs(value - two_boson_average_concurrence(t1, t2))
    return error, error >= TOL.comparison


def n3_case(ensemble):
    value = entanglement_of_particles(ensemble, "concurrence")
    thetas = tuple(m.theta for m in ensemble.modes)
    omegas = tuple(m.omega for m in ensemble.modes)
    t1, t2, t3 = thetas
    same_side = (t1 - math.pi / 4) * (t2 - math.pi / 4) >= 0.0
    coherence_form = three_boson_average_concurrence_coherences(
        *(2.0 * math.cos(t) * math.sin(t) for t in thetas), omegas[0] - omegas[1], same_side
    )
    error = max(
        abs(value - three_boson_average_concurrence(thetas, omegas)),
        abs(value - coherence_form),
    )
    return error, error >= TOL.comparison


def theorem1_draws(seed, cases):
    """The theorem1 cases in draw order: every case's N, then for each N =
    2..6 in turn its cases' n_up, forced spin groups, forced-theta choices,
    thetas and omegas, one array each."""
    rng = np.random.default_rng(seed)
    n_totals = rng.integers(2, 7, cases)
    for n_total in range(2, 7):
        count = int(np.count_nonzero(n_totals == n_total))
        n_ups = rng.integers(0, n_total + 1, count)
        force_ups = rng.integers(0, 2, count)
        at_zero = rng.random((count, n_total)) < 0.5
        thetas = rng.uniform(0.0, math.pi / 2, (count, n_total))
        omegas = rng.uniform(0.0, 2 * math.pi, (count, n_total))
        for case in range(count):
            n_up, force_up = int(n_ups[case]), bool(force_ups[case])
            modes = []
            for j in range(n_total):
                forced = (j < n_up) if force_up else (j >= n_up)
                if forced:
                    theta = 0.0 if at_zero[case, j] else math.pi / 2
                else:
                    theta = float(thetas[case, j])
                modes.append(SpatialMode(theta=theta, omega=float(omegas[case, j])))
            yield ParticleEnsemble(n_up, tuple(modes))


def n2_draws(seed, cases):
    rng = np.random.default_rng(seed)
    thetas = np.linspace(0.0, math.pi / 2, 20)
    for t1 in thetas:
        for t2 in thetas:
            for _ in range(cases):
                w1, w2 = rng.uniform(0.0, 2.0 * math.pi, 2)
                yield ParticleEnsemble(
                    1,
                    (
                        SpatialMode(theta=float(t1), omega=float(w1)),
                        SpatialMode(theta=float(t2), omega=float(w2)),
                    ),
                )


def n3_draws(seed, cases):
    thetas, omegas = per_case_n3_draws(np.random.default_rng(seed), cases)
    for case_thetas, case_omegas in zip(thetas.tolist(), omegas.tolist()):
        yield ParticleEnsemble(
            2, tuple(SpatialMode(theta=t, omega=w) for t, w in zip(case_thetas, case_omegas))
        )


def per_case_n3_draws(rng, cases):
    """The n3-closed-form draws as a loop of scalar draws, case by case."""
    drawn = np.empty((2, cases, 3))
    for case in range(cases):
        if case % 2 == 0:
            # same side of pi/4
            side = rng.random() < 0.5
            lo, hi = (0.0, math.pi / 4) if side else (math.pi / 4, math.pi / 2)
            t1, t2 = rng.uniform(lo, hi, 2)
        else:
            t1 = rng.uniform(0.0, math.pi / 4)
            t2 = rng.uniform(math.pi / 4, math.pi / 2)
            if rng.random() < 0.5:
                t1, t2 = t2, t1
        t3 = rng.uniform(0.0, math.pi / 2)
        w1, w2, w3 = rng.uniform(0.0, 2.0 * math.pi, 3)
        drawn[:, case] = (float(t1), float(t2), float(t3)), (float(w1), float(w2), float(w3))
    return drawn


def case_by_case(draws, case):
    results = [case(ensemble) for ensemble in draws]
    return max(0.0, max(err for err, _ in results)), sum(failed for _, failed in results)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize(
    "suite, draws, case",
    [
        (lambda seed: suite_theorem1(seed, cases=150), lambda seed: theorem1_draws(seed, 150), theorem1_case),
        (lambda seed: suite_n2_closed_form(seed, cases=2), lambda seed: n2_draws(seed, 2), n2_case),
        (lambda seed: suite_n3_closed_form(seed, cases=300), lambda seed: n3_draws(seed, 300), n3_case),
    ],
    ids=["theorem1", "n2-closed-form", "n3-closed-form"],
)
def test_closed_form_suites_equal_case_by_case(seed, suite, draws, case):
    report = suite(seed)
    max_error, failures = case_by_case(draws(seed), case)
    assert report["max_error"] == max_error
    assert report["failures"] == failures


@pytest.mark.parametrize("seed, cases", [(3, 1), (11, 7), (7, 300)])
def test_theorem1_cases_are_the_mirror_draws(monkeypatch, seed, cases):
    reports = []
    monkeypatch.setattr(verify, "_report", lambda suite, seed, errors, inputs: reports.append(inputs))
    suite_theorem1(seed, cases=cases)
    (inputs,) = reports
    for case, ensemble in enumerate(theorem1_draws(seed, cases)):
        assert inputs(case) == {"n_up": ensemble.n_up, **dict(zip(ANGLES, ensemble.angle_rows()[:, 0].tolist()))}, case
    assert case == cases - 1


def test_schmidt_mode_splits_equal_case_by_case(monkeypatch):
    # the ten mode-split cases share one fold; each must read what the
    # schmidt command reads at its angles
    reports = []
    monkeypatch.setattr(verify, "_report", lambda suite, seed, errors, inputs: reports.append((errors, inputs)))
    for seed in range(1, 41):
        suite_schmidt(seed)
        errors, inputs = reports.pop()
        mode_splits = [(error, inputs(case)) for case, error in enumerate(errors) if "theta" in inputs(case)]
        assert len(mode_splits) == 10
        for error, angles in mode_splits:
            report = verify_schmidt_equivalence(3, 2, angles["theta"], angles["omega"], (2, 1))
            assert error == report.max_abs_diff


def test_schmidt_label_splits_equal_case_by_case(monkeypatch):
    # the 85 label splits share their Dicke states, SVD calls and closed
    # form; each must read what label_split_error reads alone
    reports = []
    monkeypatch.setattr(verify, "_report", lambda suite, seed, errors, inputs: reports.append((errors, inputs)))
    for seed in range(1, 41):
        suite_schmidt(seed)
        errors, inputs = reports.pop()
        label_splits = [(error, inputs(case)) for case, error in enumerate(errors) if "n_left" in inputs(case)]
        assert len(label_splits) == 85
        for error, split in label_splits:
            assert error == label_split_error(split["n_total"], split["n_up"], split["n_left"]), split


def test_schmidt_suite_builds_no_basis_ket_and_no_density_matrix(monkeypatch):
    def reference_route(*args, **kwargs):
        raise AssertionError("reference route in verify schmidt")

    monkeypatch.setattr(algebra.DensityMatrix, "__init__", reference_route)
    for name in ("_basis_ket", "schmidt_decompose"):
        monkeypatch.setattr(measures, name, reference_route)
    report = suite_schmidt()
    assert (report["cases"], report["failures"]) == (95, 0)


def test_schmidt_and_theorem1_take_their_weights_from_the_fold(monkeypatch):
    # the density-matrix, SVD and key-based projection routes are references
    # only: neither command may reach them
    def reference_route(*args, **kwargs):
        raise AssertionError("reference route on the production path")

    monkeypatch.setattr(algebra.DensityMatrix, "__init__", reference_route)
    for module in (detection, measures, verify):
        for name in ("schmidt_decompose", "schmidt_coefficients", "project_onto_detectors"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, reference_route)
    result = CliRunner().invoke(main, ["schmidt", "--n-total", "170", "--n-up", "85", "--split", "85,85"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["max_abs_diff"] < 1e-10
    report = suite_theorem1(seed=3, cases=200)
    assert (report["cases"], report["failures"]) == (200, 0)
    result = CliRunner().invoke(main, ["verify", "theorem1", "--cases", "50"])
    assert result.exit_code == 0, result.output


# -- worst_case replay ------------------------------------------------------


def case_from(inputs):
    """The (n_up, (4, N) angle rows) case of a report's ensemble inputs."""
    return inputs["n_up"], np.array([inputs[name] for name in ANGLES])


def replay(worst):
    """The error of a report's worst case, from its JSON inputs alone."""
    inputs = worst["inputs"]
    if worst["suite"] == "schmidt":
        if "theta" in inputs:
            return verify_schmidt_equivalence(3, 2, inputs["theta"], inputs["omega"], (2, 1)).max_abs_diff
        return label_split_error(inputs["n_total"], inputs["n_up"], inputs["n_left"])
    if "bra" in inputs:
        return amplitude_oracle_error(case_from(inputs["bra"]), case_from(inputs["ket"]))
    if worst["suite"] == "oracle":
        return projection_oracle_error(case_from(inputs))
    case = {"theorem1": theorem1_case, "n2-closed-form": n2_case, "n3-closed-form": n3_case}
    return case[worst["suite"]](rows_ensemble(*case_from(inputs)))[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem1", "--cases", "60"],
        ["n2-closed-form", "--cases", "1", "--seed", "2"],
        ["n3-closed-form", "--cases", "60"],
        ["schmidt"],
        ["oracle", "--cases", "8", "--seed", "3"],
    ],
)
def test_worst_case_replays_from_json(argv):
    result = CliRunner().invoke(main, ["verify", *argv])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    worst = report["worst_case"]
    assert worst["suite"] == argv[0]
    assert worst["seed"] == (int(argv[-1]) if "--seed" in argv else 7)
    assert 0 <= worst["case"] < report["cases"]
    # theorem1's forced zero coherence gives exactly 0 on every case
    assert report["max_error"] > 0.0 or argv[0] == "theorem1"
    assert replay(worst) == report["max_error"]


def test_oracle_amplitude_worst_case_replays_from_json(monkeypatch):
    # with every projection error at 0 the worst case is an amplitude
    monkeypatch.setattr(verify, "_projection_oracle_errors", lambda cases: np.zeros(len(cases)))
    report = json.loads(json.dumps(suite_oracle(seed=5, cases=30)))
    assert "bra" in report["worst_case"]["inputs"]
    assert replay(report["worst_case"]) == report["max_error"] > 0.0


@pytest.mark.parametrize("seed", [4, 9])
def test_oracle_suite_errors_equal_case_by_case(monkeypatch, seed):
    # the suite folds its projections per (N, n_up) group; every error must
    # still be the one-case helper's, bit for bit
    captured = {}
    report = verify._report

    def capture(suite, seed, errors, inputs):
        captured.update(errors=list(errors), inputs=inputs)
        return report(suite, seed, errors, inputs)

    monkeypatch.setattr(verify, "_report", capture)
    assert suite_oracle(seed=seed, cases=8)["cases"] == 72
    for case, error in enumerate(captured["errors"]):
        inputs = captured["inputs"](case)
        if "bra" in inputs:
            expected = amplitude_oracle_error(case_from(inputs["bra"]), case_from(inputs["ket"]))
        else:
            expected = projection_oracle_error(case_from(inputs))
        assert error == expected, case


def test_amplitude_replay_needs_equal_n_up():
    # the one-pair call folds and expands a pair of one n_up
    rows = np.full((4, 3), 0.5)
    with pytest.raises(ConsistencyError, match="differ in n_up"):
        amplitude_oracle_error((1, rows), (2, rows))


def test_oracle_value_pass_batches_move_no_bit(monkeypatch):
    # the default run builds and memoizes every layout the suite needs, and
    # a layout's chunks fix each case's sum order; at LEAF_CHUNK = 32 the
    # value passes then split each layout's cases into other batches (two
    # N = 2 inner products of four entries a batch, one of 36 alone), and
    # every case keeps its bits
    default = suite_oracle(seed=4, cases=8)
    batches = []
    split = oracles._batches

    def recorded(cases, entries):
        slices = split(cases, entries)
        batches.append([len(range(cases)[part]) for part in slices])
        return slices

    monkeypatch.setattr(oracles, "LEAF_CHUNK", 32)
    monkeypatch.setattr(oracles, "_batches", recorded)
    misses = oracles._collect_layout.cache_info().misses, oracles._inner_layout.cache_info().misses
    assert suite_oracle(seed=4, cases=8) == default
    # no layout was rebuilt under the patched bound
    assert (oracles._collect_layout.cache_info().misses, oracles._inner_layout.cache_info().misses) == misses
    # some splits hold several cases a batch, some one
    assert any(len(sizes) > 1 and max(sizes) > 1 for sizes in batches), batches
    assert any(len(sizes) > 1 and max(sizes) == 1 for sizes in batches), batches


def fingerprint(weights, p):
    """A float per projection that changes with any bit of its sector
    Schmidt weights or probabilities."""
    return np.array([float(zlib.crc32(w.tobytes() + q.tobytes())) for w, q in zip(weights, p)])


@pytest.mark.parametrize("seed", [4, 9])
@pytest.mark.parametrize("error", [verify._theorem1_errors, fingerprint], ids=["error", "fingerprint"])
def test_theorem1_suite_errors_equal_case_by_case(monkeypatch, seed, error):
    # the suite folds its cases in grouped packs; every case's error, and
    # every bit of the projection it reads, must be the one case's alone
    captured = {}
    report = verify._report

    def capture(suite, seed, errors, inputs):
        captured.update(errors=list(errors), inputs=inputs)
        return report(suite, seed, errors, inputs)

    monkeypatch.setattr(verify, "_report", capture)
    monkeypatch.setattr(verify, "_theorem1_errors", error)
    assert suite_theorem1(seed=seed, cases=150)["cases"] == 150
    for case, value in enumerate(captured["errors"]):
        n_up, rows = case_from(captured["inputs"](case))
        _, weights, p, _ = _project_batch(n_up, *rows[:, None])
        assert repr(value) == repr(error(weights, p)[0]), case


def test_oracle_suite_checks_the_fold_amplitude(monkeypatch):
    # the route the amplitude command runs, batched per pack of (N, n_up)
    # group chunks, off by 1e-9 on every pair
    monkeypatch.setattr(
        verify, "fold_amplitude_groups", lambda groups: [values + 1e-9 for values in fold_amplitude_groups(groups)]
    )
    result = CliRunner().invoke(main, ["verify", "oracle", "--cases", "2"])
    assert result.exit_code == 1, result.output
    assert json.loads(result.output)["failures"] > 0


def test_oracle_suite_checks_the_fold_projection(monkeypatch):
    # the route the project command runs, one outcome amplitude off by 1e-9:
    # the reference read from the oracle's label counts must catch it
    def shifted(groups):
        projections = _project_groups(groups)
        for outcomes, _, _, _ in projections:
            outcomes[0, 0, 0] += 1e-9
        return projections

    monkeypatch.setattr(verify, "_project_groups", shifted)
    result = CliRunner().invoke(main, ["verify", "oracle", "--cases", "2"])
    assert result.exit_code == 1, result.output
    assert json.loads(result.output)["failures"] > 0


def test_n2_closed_form_folds_one_chunk_at_a_time(monkeypatch):
    folded = []

    def recorded(batch):
        def wrapper(n_up, *angles):
            folded.append(len(angles[0]))
            return batch(n_up, *angles)
        return wrapper

    # the suite may reach the fold through either module's reference
    monkeypatch.setattr(verify, "_project_batch", recorded(verify._project_batch))
    monkeypatch.setattr(fold, "_project_batch", recorded(fold._project_batch))
    assert suite_n2_closed_form(cases=50)["cases"] == 400 * 50
    # one up and one down particle: a chunk holds CHUNK_ENTRIES // 2^2 rows
    assert sum(folded) == 400 * 50
    assert max(folded) <= fold.CHUNK_ENTRIES // 2 ** 2


@pytest.mark.parametrize("seed", [2, 7, 11, 501])
@pytest.mark.parametrize("cases", [1, 2, 7, 100])
def test_n3_block_draw_equals_the_per_case_draws(seed, cases):
    block_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(verify._n3_draws(block_rng, cases), per_case_n3_draws(loop_rng, cases))
    # both took the same number of doubles from the stream
    assert block_rng.random() == loop_rng.random()


def test_n2_closed_form_report_does_not_depend_on_the_chunk_size(monkeypatch):
    for seed, cases in [(2, 3), (11, 1), (501, 2)]:
        rows = 400 * cases
        # one up and one down particle: a chunk holds CHUNK_ENTRIES // 2^2 rows
        monkeypatch.setattr(fold, "CHUNK_ENTRIES", 4 * rows)
        assert len(fold.fold_chunks(1, 2, rows)) == 1
        whole = suite_n2_closed_form(seed, cases=cases)
        monkeypatch.setattr(fold, "CHUNK_ENTRIES", 4 * 7)
        assert len(fold.fold_chunks(1, 2, rows)) == -(-rows // 7)
        assert suite_n2_closed_form(seed, cases=cases) == whole


@pytest.mark.parametrize("suite", [suite_theorem1, suite_oracle])
def test_grouped_suites_fold_one_chunk_at_a_time(monkeypatch, suite):
    # a suite folds all its (N, n_up) groups in one grouped call per kind,
    # whose fold steps stack blocks only within STACKED_ENTRIES entries
    calls = []
    fock_blocks = fold._fock_blocks

    def recorded(c, s, r, blocks=None, start=None, raw=False):
        assert start is None  # from the vacuum: n particles reach n + 1 outcomes a side
        calls.append((blocks is None, len(c), c.shape[1] + 1, fold.STACKED_ENTRIES))
        return fock_blocks(c, s, r, blocks, start, raw)

    monkeypatch.setattr(fold, "_fock_blocks", recorded)
    unpatched = suite(seed=11, cases=60)
    default = len(calls)
    # 64 entries: from 16 rows of one-particle blocks down to a block alone
    monkeypatch.setattr(fold, "STACKED_ENTRIES", 64)
    assert suite(seed=11, cases=60) == unpatched
    assert len(calls) > default
    # a call holds one block, which is never split, or at most four rows
    # (a single state, or a pair's bra and ket), or its step arrays stay
    # within the bound in force
    for alone, rows, size, bound in calls:
        assert alone or rows <= 4 or rows * size ** 2 <= bound, (rows, size, bound)
    # and at the default bound, groups do stack
    assert any(not alone and rows > 4 for alone, rows, _, _ in calls[:default])


def test_suite_without_cases_has_no_worst_case():
    report = suite_n2_closed_form(cases=0)
    assert report == {
        "suite": "n2-closed-form", "cases": 0, "failures": 0, "max_error": 0.0, "worst_case": None
    }
    assert suite_theorem1(cases=0)["worst_case"] is None
    assert suite_oracle(cases=0)["worst_case"] is None


def test_report_counts_and_reports_a_nan_error():
    # a NaN error is not below the tolerance, so it fails, and it is the worst case
    report = verify._report("n2-closed-form", 7, [0.0, math.nan, 0.1], lambda case: {"case": case})
    assert report["failures"] == 2
    assert math.isnan(report["max_error"])
    assert report["worst_case"]["case"] == 1


# -- the array oracles at the expansion cap ---------------------------------

SIX_LABELS = LR_LABELS + (("chi", Spin.UP), ("chi", Spin.DOWN))


def assert_same_state(amps, state):
    keys = set(amps) | set(state.keys())
    norm = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
    assert max(abs(amps.get(k, 0j) / norm - state.amplitude(k)) for k in keys) < 1e-12


@pytest.mark.parametrize("repeats", [False, True])
def test_boson_oracles_at_n6(rng, repeats):
    n = EXPANSION_SIZE_LIMIT
    kets = [random_ket(rng) for _ in range(n)]
    bras = [random_ket(rng) for _ in range(n)]
    if repeats:
        # multiplicities (2, 3, 1) on the kets, (2, 1, 1, 1, 1) on the bras
        kets[1] = kets[0]
        kets[3] = kets[4] = kets[2]
        bras[5] = bras[2]
    assert_same_state(collect_expansion(kets), make_product_state(kets))
    fast = transition_amplitude(bras, kets, Statistics.BOSON)
    assert abs(expansion_inner_product(bras, kets) - fast) < 1e-12 * max(1.0, abs(fast))


def test_fermion_oracles_at_n6(rng):
    n = EXPANSION_SIZE_LIMIT
    # ket j over labels j, j+1, j+2 (mod 6): sparse, and the state cannot vanish
    kets = [random_ket(rng, [SIX_LABELS[(j + k) % n] for k in range(3)]) for j in range(n)]
    bras = [random_ket(rng, SIX_LABELS) for _ in range(n)]
    assert_same_state(
        collect_expansion(kets, Statistics.FERMION), make_product_state(kets, Statistics.FERMION)
    )
    fast = transition_amplitude(bras, kets, Statistics.FERMION)
    assert abs(expansion_inner_product(bras, kets, Statistics.FERMION) - fast) < 1e-12
    # a repeated fermion ket: every term cancels
    kets[4] = kets[1]
    assert collect_expansion(kets, Statistics.FERMION) == {}
    with pytest.raises(NullStateError):
        make_product_state(kets, Statistics.FERMION)
    assert abs(expansion_inner_product(bras, kets, Statistics.FERMION)) < 1e-12
    assert transition_amplitude(bras, kets, Statistics.FERMION) == pytest.approx(0.0, abs=1e-12)


POOL = tuple((f"m{i}", spin) for i in range(8) for spin in Spin)


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("n", range(2, EXPANSION_SIZE_LIMIT + 1))
def test_collect_expansion_with_mixed_label_counts(rng, statistics, n):
    # kets of 1, 2, 3 and 12 labels, overlapping; ket j starts at label 2j
    sizes = (1, 12, 2, 3, 1, 2)[:n]
    kets = [random_ket(rng, POOL[2 * j : 2 * j + size]) for j, size in enumerate(sizes)]
    assert_same_state(collect_expansion(kets, statistics), make_product_state(kets, statistics))
    # repeats: the 12-label ket twice, and a 2-label ket twice at n >= 5
    kets[0] = kets[1]
    if n >= 5:
        kets[4] = kets[2]
    if statistics is Statistics.FERMION:
        assert collect_expansion(kets, statistics) == {}
    else:
        assert_same_state(collect_expansion(kets, statistics), make_product_state(kets, statistics))


def test_collect_expansion_on_one_wide_ket_at_n6(rng):
    # 720 x 100 terms: a key table padded to the widest ket would hold 100^6
    wide = random_ket(rng, tuple((f"w{i}", Spin.UP) for i in range(100)))
    narrow = [SingleParticleKet({(f"w{i}", Spin.DOWN): 1.0}) for i in range(5)]
    for position in (0, 3):
        kets = narrow[:position] + [wide] + narrow[position:]
        assert_same_state(collect_expansion(kets), make_product_state(kets))


def test_collect_expansion_rejects_keys_beyond_int64():
    # 1454 labels in base 1454 at N = 6 overflow int64, with only 1449 * 720 leaves
    wide = SingleParticleKet({(f"m{i}", Spin.UP): 1 / math.sqrt(1449) for i in range(1449)})
    kets = [wide] + [SingleParticleKet({(f"s{i}", Spin.UP): 1.0}) for i in range(5)]
    with pytest.raises(SizeLimitError, match="base 1454"):
        collect_expansion(kets)
