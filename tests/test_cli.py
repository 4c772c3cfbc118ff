"""Command-line interface tests."""

import concurrent.futures
import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from identangle import cli, detection, fold, measures, verify
from identangle.algebra import transition_amplitude
from identangle.cli import main
from identangle.config import (
    MAX_GRID_POINTS,
    EnsembleConfig,
    dump_ensemble_config,
    parse_ensemble_config,
    parse_parameter_path,
    parse_sweep_spec,
)
from identangle.detection import entanglement_of_particles, project_onto_detectors
from identangle.errors import ConfigError, ConsistencyError, IdentangleError
from identangle.oracles import expansion_inner_product, rows_ensemble
from identangle.states import SpatialMode, Spin, Statistics, mode_ket
from identangle.tolerances import DEFAULT_TOLERANCES, TOLERANCE_ENV_VAR
from identangle.verify import MAX_CASES, SUITES

from conftest import CliRunner, svd_route_entanglement


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def two_boson_config(theta1, theta2, omega1=0.0, omega2=0.0):
    return {
        "particles": [
            {"spin": "up", "theta": theta1, "omega": omega1},
            {"spin": "down", "theta": theta2, "omega": omega2},
        ]
    }


def test_amplitude_identical_configs(runner, tmp_path):
    cfg = write(tmp_path, "a.json", two_boson_config(0.4, 1.1, 0.2, 0.9))
    result = runner.invoke(main, ["amplitude", "--config", cfg, "--bra-config", cfg])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    assert abs(record["amplitude"]["re"] - 1) < 1e-10
    assert abs(record["amplitude"]["im"]) < 1e-10
    assert record["method"] == "ryser"


def test_amplitude_orthogonal_spins(runner, tmp_path):
    ket = write(tmp_path, "ket.json", {
        "particles": [
            {"spin": "up", "theta": 0.3},
            {"spin": "up", "theta": 0.9},
        ]
    })
    bra = write(tmp_path, "bra.json", {
        "particles": [
            {"spin": "down", "theta": 0.3},
            {"spin": "down", "theta": 0.9},
        ]
    })
    result = runner.invoke(main, ["amplitude", "--config", ket, "--bra-config", bra])
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert abs(record["amplitude"]["re"]) < 1e-14
    assert abs(record["amplitude"]["im"]) < 1e-14


def test_amplitude_matches_library(runner, tmp_path):
    from identangle.algebra import transition_amplitude

    ket_payload = {
        "particles": [
            {"spin": "up", "theta": 0.3, "omega": 1.0},
            {"spin": "down", "theta": 0.8, "omega": 2.0},
            {"spin": "up", "theta": 1.2, "omega": 0.5},
        ]
    }
    bra_payload = {
        "particles": [
            {"spin": "up", "theta": 0.7, "omega": 0.1},
            {"spin": "up", "theta": 0.2, "omega": 2.4},
            {"spin": "down", "theta": 1.0, "omega": 1.3},
        ]
    }
    ket = write(tmp_path, "ket.json", ket_payload)
    bra = write(tmp_path, "bra.json", bra_payload)
    result = runner.invoke(main, ["amplitude", "--config", ket, "--bra-config", bra])
    assert result.exit_code == 0
    record = json.loads(result.output)
    bra_config, ket_config = (parse_ensemble_config(json.dumps(p)) for p in (bra_payload, ket_payload))
    expected = transition_amplitude(
        rows_ensemble(bra_config.n_up, bra_config.angles()).kets(),
        rows_ensemble(ket_config.n_up, ket_config.angles()).kets(),
    )
    assert abs(complex(record["amplitude"]["re"], record["amplitude"]["im"]) - expected) < 1e-12


def test_amplitude_particle_number_mismatch(runner, tmp_path):
    ket = write(tmp_path, "ket.json", two_boson_config(0.3, 0.4))
    bra = write(tmp_path, "bra.json", {
        "particles": [{"spin": "up", "theta": 0.3}]
    })
    result = runner.invoke(main, ["amplitude", "--config", ket, "--bra-config", bra])
    assert result.exit_code == 2
    assert "mismatch" in result.output


HALF_PI = math.pi / 2


def random_amplitude_pair(rng, n_total, n_up):
    """Bra and ket particle lists of one ensemble size, drawn from a pool of
    modes (so modes repeat, on both sides alike) with some thetas at 0 or
    pi/2 and some phis below pi/2; each bra mode is a perturbed ket mode,
    so overlaps stay large."""
    ket_pool, bra_pool = [], []
    for _ in range(int(rng.integers(1, n_total + 1))):
        if rng.random() < 0.2:
            theta = float(rng.choice([0.0, HALF_PI]))
        else:
            theta = float(rng.uniform(0.0, HALF_PI))
        mode = {"theta": theta, "omega": float(rng.uniform(0.0, 2 * math.pi))}
        if rng.random() < 0.3:
            mode["phi"] = float(rng.uniform(0.6, HALF_PI))
            mode["gamma"] = float(rng.uniform(0.0, 2 * math.pi))
        ket_pool.append(mode)
        near = dict(mode)
        near["theta"] = float(np.clip(theta + rng.normal(0.0, 0.1), 0.0, HALF_PI))
        near["omega"] = mode["omega"] + float(rng.normal(0.0, 0.2))
        bra_pool.append(near)
    picks = rng.integers(len(ket_pool), size=n_total)
    spins = rng.permutation(["up"] * n_up + ["down"] * (n_total - n_up))
    ket = [{"spin": str(s), **ket_pool[i]} for s, i in zip(spins, picks)]
    bra = [{"spin": str(s), **bra_pool[i]} for s, i in zip(spins, picks)]
    return bra, ket


def cli_amplitude(runner, tmp_path, bra, ket):
    ket_path = write(tmp_path, "ket.json", {"particles": ket})
    bra_path = write(tmp_path, "bra.json", {"particles": bra})
    result = runner.invoke(main, ["amplitude", "--config", ket_path, "--bra-config", bra_path])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    assert record["method"] == "ryser" and record["n_particles"] == len(ket)
    return complex(record["amplitude"]["re"], record["amplitude"]["im"])


def library_amplitude(bra, ket):
    """The Ryser route: transition_amplitude over the configs' kets."""
    from identangle.algebra import transition_amplitude

    bra_config, ket_config = (parse_ensemble_config(json.dumps({"particles": p})) for p in (bra, ket))
    return transition_amplitude(
        rows_ensemble(bra_config.n_up, bra_config.angles()).kets(),
        rows_ensemble(ket_config.n_up, ket_config.angles()).kets(),
    )


def test_amplitude_matches_ryser_route_on_seeded_pairs(runner, tmp_path):
    rng = np.random.default_rng(7)
    tol = DEFAULT_TOLERANCES.comparison
    repeated = 0
    for k in range(320):
        n_total = 1 + k % 16
        # every fourth pair puts all particles in one spin block
        n_up = (0, n_total)[k // 4 % 2] if k % 4 == 0 else int(rng.integers(0, n_total + 1))
        bra, ket = random_amplitude_pair(rng, n_total, n_up)
        repeated += len({tuple(p.items()) for p in ket}) < n_total
        got = cli_amplitude(runner, tmp_path, bra, ket)
        expected = library_amplitude(bra, ket)
        assert abs(got - expected) <= tol * max(1.0, abs(expected)), (k, got, expected)
    assert repeated > 100


@pytest.mark.parametrize("n_total", range(17, 23))
def test_amplitude_matches_ryser_above_sixteen(runner, tmp_path, n_total):
    rng = np.random.default_rng(n_total)
    bra, ket = random_amplitude_pair(rng, n_total, n_total // 2 - 1)
    got = cli_amplitude(runner, tmp_path, bra, ket)
    expected = library_amplitude(bra, ket)
    assert abs(expected) > 1e-6
    assert abs(got - expected) <= DEFAULT_TOLERANCES.comparison * abs(expected)


def single_overlap(bra, ket):
    """<bra|ket> of two single-particle modes."""
    def amps(p):
        phi, gamma = p.get("phi", HALF_PI), p.get("gamma", 0.0)
        return np.array([
            math.sin(phi) * math.cos(p["theta"]),
            math.sin(phi) * math.sin(p["theta"]) * np.exp(1j * p["omega"]),
            math.cos(phi) * np.exp(1j * gamma),
        ])
    return complex(np.vdot(amps(bra), amps(ket)))


@pytest.mark.parametrize("n_up", [170, 60])
def test_amplitude_all_equal_modes_at_the_size_cap(runner, tmp_path, n_up):
    # all modes of a spin block equal: <bra|ket> = <b_up|k_up>^n_up <b_down|k_down>^n_down
    ket_up = {"theta": 0.7, "omega": 0.3, "phi": 1.4, "gamma": 0.2}
    bra_up = {"theta": 0.71, "omega": 0.32, "phi": 1.41, "gamma": 0.1}
    ket_down = {"theta": 1.1, "omega": 2.0}
    bra_down = {"theta": 1.09, "omega": 2.01}
    n_down = 170 - n_up
    ket = [{"spin": "up", **ket_up}] * n_up + [{"spin": "down", **ket_down}] * n_down
    bra = [{"spin": "up", **bra_up}] * n_up + [{"spin": "down", **bra_down}] * n_down
    expected = single_overlap(bra_up, ket_up) ** n_up * single_overlap(bra_down, ket_down) ** n_down
    assert 0.1 < abs(expected) < 0.99
    got = cli_amplitude(runner, tmp_path, bra, ket)
    assert abs(got - expected) <= 1e-10 * abs(expected)
    assert abs(cli_amplitude(runner, tmp_path, ket, ket) - 1.0) <= 1e-10


def test_amplitude_above_size_cap_is_usage_error(runner, tmp_path):
    cfg = write(tmp_path, "cfg.json", {"particles": [{"spin": "up", "theta": 0.7}] * 171})
    assert_usage_error(
        runner.invoke(main, ["amplitude", "--config", cfg, "--bra-config", cfg]),
        "capped at N <= 170",
    )


@pytest.mark.parametrize("spin", ["up", "down"])
@pytest.mark.parametrize("side", ["bra", "ket"])
def test_fermion_amplitude_of_a_null_state_exits_2(runner, tmp_path, side, spin):
    # every mode lies in span{L, R, chi}, so four same-spin fermions vanish
    # exactly; the determinant gave rounding noise with exit 0
    null = [{"spin": spin, "theta": 0.2 + 0.3 * j, "omega": 0.7 * j, "phi": 1.2 + 0.1 * j} for j in range(4)]
    fine = [{"spin": s, "theta": 0.5 + 0.2 * j, "omega": 0.4 * j} for j, s in enumerate(["up", "up", "down", "down"])]
    configs = {"bra": fine, "ket": fine, side: null}
    paths = {name: write(tmp_path, f"{name}.json", {"statistics": "fermion", "particles": particles})
             for name, particles in configs.items()}
    result = runner.invoke(main, ["amplitude", "--config", paths["ket"], "--bra-config", paths["bra"]])
    assert_usage_error(result, f"{side} state is null: 4 spin-{spin} fermions")


def file_order_kets(particles):
    """The single-particle kets of a particle list in file order."""
    return [
        mode_ket(
            SpatialMode(p["theta"], p.get("omega", 0.0), p.get("phi", HALF_PI), p.get("gamma", 0.0)),
            Spin(p["spin"]),
        )
        for p in particles
    ]


def random_fermion_pair(rng, n_total):
    """Bra and ket fermion lists with at most three particles per spin,
    spins shuffled on each side independently, some phis below pi/2 and
    some bra modes equal to their ket mode; a spin block of three with
    every phi at pi/2 (all in span{L, R}) is null."""
    n_up = int(rng.integers(max(0, n_total - 3), min(3, n_total) + 1))
    spins = rng.permutation(["up"] * n_up + ["down"] * (n_total - n_up))
    ket, bra = [], []
    for spin in spins:
        mode = {"spin": str(spin), "theta": float(rng.uniform(0.0, HALF_PI)), "omega": float(rng.uniform(0.0, 2 * math.pi))}
        if rng.random() < 0.4:
            mode["phi"] = float(rng.uniform(0.6, HALF_PI))
            mode["gamma"] = float(rng.uniform(0.0, 2 * math.pi))
        ket.append(mode)
        near = dict(mode)
        if rng.random() < 0.7:
            near["theta"] = float(np.clip(mode["theta"] + rng.normal(0.0, 0.1), 0.0, HALF_PI))
            near["omega"] = mode["omega"] + float(rng.normal(0.0, 0.2))
        bra.append(near)
    bra = [bra[i] for i in rng.permutation(n_total)]
    return bra, ket


def is_null_fermion_list(particles):
    return any(
        sum(p["spin"] == spin for p in particles) == 3
        and all("phi" not in p for p in particles if p["spin"] == spin)
        for spin in ("up", "down")
    )


def test_fermion_amplitude_matches_the_file_order_routes(runner, tmp_path):
    # the parser stores particles spin-up first; the reordering's sign is
    # part of the fermion amplitude between the states as written
    rng = np.random.default_rng(12)
    tol = DEFAULT_TOLERANCES.comparison
    checked = nulls = flipped = 0
    for k in range(400):
        bra, ket = random_fermion_pair(rng, 1 + k % 6)
        ket_path = write(tmp_path, "ket.json", {"statistics": "fermion", "particles": ket})
        bra_path = write(tmp_path, "bra.json", {"statistics": "fermion", "particles": bra})
        result = runner.invoke(main, ["amplitude", "--config", ket_path, "--bra-config", bra_path])
        if is_null_fermion_list(bra) or is_null_fermion_list(ket):
            assert_usage_error(result, "state is null")
            nulls += 1
            continue
        assert result.exit_code == 0, (k, result.output)
        record = json.loads(result.output)
        assert record["method"] == "determinant"
        got = complex(record["amplitude"]["re"], record["amplitude"]["im"])
        bras, kets = file_order_kets(bra), file_order_kets(ket)
        expected = transition_amplitude(bras, kets, Statistics.FERMION)
        assert abs(got - expected) <= tol * max(1.0, abs(expected)), (k, got, expected)
        if k % 4 == 0:
            oracle = expansion_inner_product(bras, kets, Statistics.FERMION)
            assert abs(got - oracle) <= tol, (k, got, oracle)
        flipped += [p["spin"] for p in bra] != sorted(p["spin"] for p in bra)[::-1]
        checked += 1
    assert checked >= 300 and nulls > 20 and flipped > 100


def test_fermion_amplitude_keeps_the_reorder_sign(runner, tmp_path):
    bra = [{"spin": "up", "theta": 0.3}, {"spin": "down", "theta": 0.5}]
    ket = [{"spin": "down", "theta": 0.5}, {"spin": "up", "theta": 0.3}]
    ket_path = write(tmp_path, "ket.json", {"statistics": "fermion", "particles": ket})
    bra_path = write(tmp_path, "bra.json", {"statistics": "fermion", "particles": bra})
    result = runner.invoke(main, ["amplitude", "--config", ket_path, "--bra-config", bra_path])
    assert result.exit_code == 0, result.output
    assert abs(json.loads(result.output)["amplitude"]["re"] + 1.0) < 1e-12


@pytest.mark.parametrize("side", ["bra", "ket"])
@pytest.mark.parametrize(
    "null, message",
    [
        # three spin-up fermions in span{L, R} gave 2.8e-18 with exit 0
        (
            [{"spin": "up", "theta": 0.1 * (j + 1), "omega": 0.3 * j} for j in range(3)],
            "state is null: its 3 spin-up fermion modes are linearly dependent",
        ),
        (
            [{"spin": "down", "theta": 0.4, "omega": 1.1, "phi": 1.3}] * 2 + [{"spin": "up", "theta": 0.9}],
            "state is null: its 2 spin-down fermion modes are linearly dependent",
        ),
    ],
)
def test_fermion_amplitude_of_a_dependent_null_state_exits_2(runner, tmp_path, side, null, message):
    fine = [{"spin": s, "theta": 0.5 + 0.2 * j, "omega": 0.4 * j} for j, s in enumerate(["up", "down", "up"])]
    configs = {"bra": fine, "ket": fine, side: null}
    paths = {name: write(tmp_path, f"{name}.json", {"statistics": "fermion", "particles": particles})
             for name, particles in configs.items()}
    result = runner.invoke(main, ["amplitude", "--config", paths["ket"], "--bra-config", paths["bra"]])
    assert_usage_error(result, f"{side} {message}")


def test_amplitude_different_n_up_is_exactly_zero(runner, tmp_path):
    rng = np.random.default_rng(11)
    for n_total in (2, 9, 16):
        _, ket = random_amplitude_pair(rng, n_total, n_total // 2)
        bra, _ = random_amplitude_pair(rng, n_total, n_total // 2 + 1)
        assert cli_amplitude(runner, tmp_path, bra, ket) == 0
    # fermions too, once both states are checked to be non-null
    modes = [{"theta": 0.3, "omega": 0.2}, {"theta": 1.1, "omega": 1.7}, {"theta": 0.7, "phi": 1.0}]
    ket = write(tmp_path, "ket.json", {"statistics": "fermion", "particles": [
        dict(mode, spin=spin) for mode, spin in zip(modes, ("up", "down", "down"))
    ]})
    bra = write(tmp_path, "bra.json", {"statistics": "fermion", "particles": [
        dict(mode, spin=spin) for mode, spin in zip(modes, ("up", "up", "down"))
    ]})
    result = runner.invoke(main, ["amplitude", "--config", ket, "--bra-config", bra])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["amplitude"] == {"re": 0.0, "im": 0.0}


def test_fermion_zero_amplitude_keeps_a_positive_zero_in_either_file_order(runner, tmp_path):
    # spin orders of odd relative parity, and different n_up: the value is exactly 0
    ket = write(tmp_path, "ket.json", {"statistics": "fermion", "particles": [
        {"spin": "down", "theta": 0.5}, {"spin": "up", "theta": 0.3},
    ]})
    bra = write(tmp_path, "bra.json", {"statistics": "fermion", "particles": [
        {"spin": "up", "theta": 0.5}, {"spin": "up", "theta": 0.3, "omega": 1.0},
    ]})
    for first, second in ((ket, bra), (bra, ket)):
        result = runner.invoke(main, ["amplitude", "--config", first, "--bra-config", second])
        assert result.exit_code == 0, result.output
        assert '"re": 0.0,' in result.output and '"im": 0.0\n' in result.output, result.output
        assert "-0.0" not in result.output


def test_project_balanced_two_bosons(runner, tmp_path):
    cfg = write(tmp_path, "cfg.json", two_boson_config(math.pi / 4, math.pi / 4))
    result = runner.invoke(main, ["project", "--config", cfg])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    probs = {s["q"]: s["p"] for s in record["sectors"]}
    assert abs(probs[2] - 0.25) < 1e-10
    assert abs(probs[1] - 0.5) < 1e-10
    assert abs(probs[0] - 0.25) < 1e-10
    assert abs(record["entanglement"]["concurrence"] - 0.25) < 1e-10
    assert abs(record["entanglement"]["entropy"] - 0.5) < 1e-10
    assert record["leak"] < 1e-12


def test_project_all_left(runner, tmp_path):
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.0, 0.0))
    result = runner.invoke(main, ["project", "--config", cfg])
    record = json.loads(result.output)
    assert len(record["sectors"]) == 1
    assert record["sectors"][0]["q"] == 2
    assert abs(record["entanglement"]["concurrence"]) < 1e-12


def test_project_three_bosons_symmetric_angles(runner, tmp_path):
    # fully overlapping pattern: the q=2 sector holds the sqrt(2)-weighted
    # interference outcome, giving squared Schmidt weights (1/3, 2/3)
    theta, omega = 0.9, 1.7
    cfg = write(tmp_path, "cfg.json", {
        "particles": [
            {"spin": "up", "theta": theta, "omega": omega},
            {"spin": "up", "theta": theta, "omega": omega},
            {"spin": "down", "theta": theta, "omega": omega},
        ]
    })
    result = runner.invoke(main, ["project", "--config", cfg])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    sector2 = next(s for s in record["sectors"] if s["q"] == 2)
    mags = sorted(
        abs(complex(a["re"], a["im"])) for a in sector2["amplitudes"]
    )
    assert abs(mags[1] / mags[0] - math.sqrt(2)) < 1e-10
    assert abs(mags[0] ** 2 - 1 / 3) < 1e-10
    assert abs(mags[1] ** 2 - 2 / 3) < 1e-10


def test_project_rejects_fermions(runner, tmp_path):
    payload = two_boson_config(0.3, 0.4)
    payload["statistics"] = "fermion"
    cfg = write(tmp_path, "cfg.json", payload)
    result = runner.invoke(main, ["project", "--config", cfg])
    assert result.exit_code == 2


def test_parse_errors_are_usage_errors(runner, tmp_path):
    bad = write(tmp_path, "bad.json", "{not json")
    result = runner.invoke(main, ["project", "--config", bad])
    assert result.exit_code == 2
    assert "line" in result.output
    empty = write(tmp_path, "empty.json", {"particles": []})
    result = runner.invoke(main, ["project", "--config", empty])
    assert result.exit_code == 2
    up = {"spin": "up", "theta": 0.3}
    for payload, fragment in (
        ([up], "config root must be a JSON object"),
        ({"statistics": "anyon", "particles": [up]}, "statistics must be 'boson' or 'fermion', got 'anyon'"),
        ({"particles": [1]}, "particles[0]: each particle must be an object"),
        ({"particles": [up, {"spin": "sideways", "theta": 0.3}]}, "particles[1]: field 'spin' must be"),
        ({"particles": [{"spin": "up"}]}, "particles[0]: field 'theta' is required"),
    ):
        config = write(tmp_path, "config.json", payload)
        assert_usage_error(runner.invoke(main, ["project", "--config", config]), fragment)
    for spec, fragment in (
        ([], "sweep spec must be an object holding only 'axes'"),
        ({"axes": []}, "sweep spec needs a non-empty 'axes' list"),
        ({"axes": [{"path": 0, "values": [0.1]}]}, "axes[0]: each axis needs a string 'path'"),
        ({"axes": [{"path": "particles[0].omega", "values": []}]}, "axes[0]: 'values' must be a non-empty list"),
    ):
        assert_usage_error(run_sweep(runner, tmp_path, spec), fragment)
    # checks past parsing: the two configs' statistics, and the thread count
    ket = write(tmp_path, "ket.json", two_boson_config(0.3, 0.4))
    bra = write(tmp_path, "bra.json", dict(two_boson_config(0.3, 0.4), statistics="fermion"))
    result = runner.invoke(main, ["amplitude", "--config", ket, "--bra-config", bra])
    assert_usage_error(result, "bra and ket configs disagree on statistics")
    sweep = write(tmp_path, "sweep.json", {"axes": [{"path": "particles[0].omega", "values": [0.1]}]})
    result = runner.invoke(main, ["sweep", "--config", ket, "--sweep", sweep, "--threads", "0"])
    assert_usage_error(result, "--threads must be >= 1")


def test_sweep_one_step_range_runs_one_row_at_start(runner, tmp_path):
    axis = {"path": "particles[0].theta", "start": 0.4, "stop": 1.3, "steps": 1}
    result = run_sweep(runner, tmp_path, {"axes": [axis]})
    assert result.exit_code == 0, result.output
    rows = result.output.strip().splitlines()[1:]
    assert len(rows) == 1 and float(rows[0].split(",")[0]) == 0.4


def test_config_round_trip(tmp_path):
    payload = {
        "particles": [
            {"spin": "down", "theta": 0.123456789012345, "omega": 5.4321},
            {"spin": "up", "theta": 1.23456789, "phi": 1.5, "gamma": 0.25},
        ]
    }
    config = parse_ensemble_config(json.dumps(payload))
    # ups sorted first, permutation recorded
    assert config.particles[0].spin.value == "up"
    assert config.source_order == (1, 0)
    text = dump_ensemble_config(config)
    again = parse_ensemble_config(text)
    assert again.particles == config.particles


def test_config_degrees_flag():
    payload = {
        "degrees": True,
        "particles": [{"spin": "up", "theta": 45.0}],
    }
    config = parse_ensemble_config(json.dumps(payload))
    assert abs(config.particles[0].theta - math.pi / 4) < 1e-12


def echo_config(runner, tmp_path, payload):
    cfg = write(tmp_path, "cfg.json", payload)
    return runner.invoke(main, ["echo-config", "--config", cfg])


def test_config_unknown_particle_field_is_usage_error(runner, tmp_path):
    payload = {"particles": [{"spin": "up", "theta": 0.5, "omgea": 2.0}]}
    assert_usage_error(
        echo_config(runner, tmp_path, payload), "particles[0]: unknown field 'omgea'"
    )


def test_config_unknown_top_level_field_is_usage_error(runner, tmp_path):
    payload = {"particles": [{"spin": "up", "theta": 0.5}], "statistic": "fermion"}
    assert_usage_error(echo_config(runner, tmp_path, payload), "unknown field 'statistic'")


def test_config_duplicate_field_is_usage_error(runner, tmp_path):
    # json.loads alone keeps the last value: theta would read 0.5
    text = '{"particles": [{"spin": "up", "theta": 0.1, "theta": 0.5}]}'
    assert_usage_error(echo_config(runner, tmp_path, text), "particles[0]: duplicate field 'theta'")
    text = '{"particles": [{"spin": "up", "theta": 0.1}], "particles": [{"spin": "down", "theta": 0.5}]}'
    assert_usage_error(echo_config(runner, tmp_path, text), "duplicate field 'particles'")


def test_config_degrees_must_be_boolean(runner, tmp_path):
    payload = {"particles": [{"spin": "up", "theta": 1.0}], "degrees": "false"}
    assert_usage_error(echo_config(runner, tmp_path, payload), "'degrees' must be true or false")


@pytest.mark.parametrize("field", ["theta", "omega", "phi", "gamma"])
def test_config_null_angle_is_usage_error(runner, tmp_path, field):
    particle = {"spin": "up", "theta": 0.5}
    particle[field] = None
    assert_usage_error(
        echo_config(runner, tmp_path, {"particles": [particle]}),
        f"particles[0]: field '{field}' must be a number",
    )


def test_parameter_path_validation():
    config = parse_ensemble_config(json.dumps(two_boson_config(0.3, 0.4)))
    assert parse_parameter_path("particles[1].omega", config.n_total) == (1, "omega")
    with pytest.raises(ConfigError):
        parse_parameter_path("particles[5].theta", config.n_total)
    with pytest.raises(ConfigError):
        parse_parameter_path("particles[0].nope", config.n_total)


def test_sweep_grid_cap():
    config = parse_ensemble_config(json.dumps(two_boson_config(0.3, 0.4)))
    spec = {
        "axes": [
            {"path": "particles[0].theta", "start": 0, "stop": 1, "steps": 1001},
            {"path": "particles[1].theta", "start": 0, "stop": 1, "steps": 1001},
        ]
    }
    with pytest.raises(ConfigError):
        parse_sweep_spec(json.dumps(spec), config)


def test_sweep_single_point_matches_project(runner, tmp_path):
    cfg = write(tmp_path, "cfg.json", two_boson_config(math.pi / 4, math.pi / 4))
    sweep = write(tmp_path, "sweep.json", {
        "axes": [{"path": "particles[0].theta", "values": [math.pi / 4]}]
    })
    result = runner.invoke(main, [
        "sweep", "--config", cfg, "--sweep", sweep, "--measure", "concurrence"
    ])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0] == "particles[0].theta,p_0,p_1,p_2,leak,entanglement"
    fields = lines[1].split(",")
    assert abs(float(fields[1]) - 0.25) < 1e-10
    assert abs(float(fields[2]) - 0.5) < 1e-10
    assert abs(float(fields[3]) - 0.25) < 1e-10
    assert abs(float(fields[5]) - 0.25) < 1e-10


def test_sweep_concurrence_tracks_first_coherence(runner, tmp_path):
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.0, math.pi / 4))
    sweep = write(tmp_path, "sweep.json", {
        "axes": [{"path": "particles[0].theta", "start": 0.0,
                  "stop": math.pi / 2, "steps": 9}]
    })
    result = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep])
    assert result.exit_code == 0
    for line in result.output.strip().splitlines()[1:]:
        fields = line.split(",")
        theta = float(fields[0])
        expected = 2 * math.cos(theta) * math.sin(theta) / 4
        assert abs(float(fields[-1]) - expected) < 1e-10


def test_sweep_omega_column_constant(runner, tmp_path):
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.6, 1.0))
    sweep = write(tmp_path, "sweep.json", {
        "axes": [{"path": "particles[0].omega", "start": 0.0, "stop": 6.0, "steps": 7}]
    })
    result = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep])
    values = [
        float(line.split(",")[-1])
        for line in result.output.strip().splitlines()[1:]
    ]
    assert max(values) - min(values) < 1e-12


def test_sweep_deterministic_across_threads(runner, tmp_path):
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    sweep = write(tmp_path, "sweep.json", {
        "axes": [
            {"path": "particles[0].theta", "start": 0.1, "stop": 1.4, "steps": 6},
            {"path": "particles[1].omega", "start": 0.0, "stop": 3.0, "steps": 4},
        ]
    })
    single = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep, "--threads", "1"])
    multi = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep, "--threads", "4"])
    assert single.exit_code == 0 and multi.exit_code == 0
    assert single.output == multi.output


def test_sweep_bad_path(runner, tmp_path):
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    sweep = write(tmp_path, "sweep.json", {
        "axes": [{"path": "particles[9].theta", "values": [0.1]}]
    })
    result = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep])
    assert result.exit_code == 2


def test_schmidt_command(runner):
    result = runner.invoke(main, [
        "schmidt", "--n-total", "3", "--n-up", "2",
        "--theta", "0.7", "--omega", "0.2", "--split", "2,1",
    ])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    expected = sorted([math.sqrt(1 / 3), math.sqrt(2 / 3)], reverse=True)
    assert max(abs(a - b) for a, b in zip(record["input_coeffs"], expected)) < 1e-10
    assert record["max_abs_diff"] < 1e-10


def test_schmidt_split_validation(runner):
    result = runner.invoke(main, [
        "schmidt", "--n-total", "3", "--n-up", "2",
        "--theta", "0.7", "--omega", "0.2", "--split", "2,2",
    ])
    assert result.exit_code == 2


def test_schmidt_over_the_cap_exits_2_before_the_label_split(runner, monkeypatch):
    def label_split(*args, **kwargs):
        raise AssertionError("label split computed above the projection cap")

    monkeypatch.setattr(measures, "schmidt_decompose", label_split)
    result = runner.invoke(main, ["schmidt", "--n-total", "1200", "--n-up", "600", "--split", "600,600"])
    assert_usage_error(result, "projection is capped at N <= 170, got N = 1200")


def test_schmidt_rejects_non_finite_angles(runner):
    for option in ("--theta", "--omega"):
        for value in ("inf", "-inf", "nan"):
            result = runner.invoke(main, [
                "schmidt", "--n-total", "3", "--n-up", "2", "--split", "2,1", option, value,
            ])
            assert_usage_error(result, f"{option[2:]} must be finite, got {value}")


@pytest.mark.parametrize("text", ["0.1,,0.2,0.3", "0.1,", ""])
def test_schmidt_rejects_empty_angle_list_parts(runner, text):
    # an empty part is an error, not a dropped entry that shortens the list
    result = runner.invoke(main, [
        "schmidt", "--n-total", "3", "--n-up", "2", "--split", "2,1", "--theta", text,
    ])
    assert_usage_error(result, f"bad angle list {text!r}")


def test_verify_suite_runs(runner):
    result = runner.invoke(main, ["verify", "schmidt", "--seed", "3"])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    assert record["failures"] == 0
    assert record["cases"] > 0


def test_verify_unknown_suite(runner):
    result = runner.invoke(main, ["verify", "nope"])
    assert result.exit_code == 2


def test_verify_failure_exit_code(runner, monkeypatch):
    # a tolerance below the oracles' roundoff (up to 4e-15 here) turns residuals
    # into failures; the run-time checks, such as sum(p) + leak = 1, read the
    # normalization bound, which the variable does not set
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "2e-15")
    result = runner.invoke(main, ["verify", "oracle", "--cases", "30", "--seed", "3"])
    assert result.exit_code == 1
    record = json.loads(result.output)
    assert record["failures"] > 0


def test_verify_n3_counts_failures_below_1e_9(runner, monkeypatch):
    # every suite counts failures against IDENTANGLE_TOL itself, with no floor
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-16")
    result = runner.invoke(main, ["verify", "n3-closed-form", "--cases", "20", "--seed", "3"])
    assert result.exit_code == 1, result.output
    assert json.loads(result.output)["failures"] > 0


def test_strict_tolerance_leaves_run_time_checks_alone(runner, tmp_path, monkeypatch):
    # sum(p) + leak misses one by an ulp or two here, far below 1e-12 but
    # above the strict tolerance, which sets only the verify thresholds
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-17")
    cfg = write(tmp_path, "cfg.json", {"particles": [
        {"spin": "up", "theta": math.pi / 4}, {"spin": "up", "theta": math.pi / 4},
        {"spin": "down", "theta": math.pi / 4},
    ]})
    sweep = write(tmp_path, "sweep.json", {
        "axes": [{"path": "particles[2].omega", "start": 0.0, "stop": 6.0, "steps": 40}]
    })
    for argv in (
        ["project", "--config", cfg],
        ["sweep", "--config", cfg, "--sweep", sweep],
        ["schmidt", "--n-total", "4", "--n-up", "2", "--split", "2,2"],
    ):
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, (argv, result.output)
    for suite in sorted(SUITES):
        cases = [] if suite == "schmidt" else ["--cases", "20"]
        result = runner.invoke(main, ["verify", suite, "--seed", "3"] + cases)
        assert result.exit_code in (0, 1), (suite, result.output)
        assert json.loads(result.output)["cases"] > 0
    result = runner.invoke(main, ["verify", "oracle", "--cases", "30", "--seed", "3"])
    assert result.exit_code == 1 and json.loads(result.output)["failures"] > 0


def test_tolerance_env_reaches_only_verify_failure_counts(runner, tmp_path, monkeypatch):
    particles = [
        {"spin": "up", "theta": 0.4, "omega": 1.1},
        {"spin": "down", "theta": 1.2, "omega": 0.3, "phi": 1.1, "gamma": 2.0},
        {"spin": "up", "theta": math.pi / 4, "phi": 1.4},
    ]
    bra = [dict(p, omega=p.get("omega", 0.0) + 0.2) for p in particles]
    cfg = write(tmp_path, "cfg.json", {"particles": particles})
    bra_cfg = write(tmp_path, "bra.json", {"particles": bra})
    fermions = write(tmp_path, "fermions.json", {"statistics": "fermion", "particles": particles})
    fermion_bra = write(tmp_path, "fermion-bra.json", {"statistics": "fermion", "particles": bra})
    sweep = write(tmp_path, "sweep.json", {"axes": [
        {"path": "particles[0].theta", "start": 0.0, "stop": 1.5, "steps": 7},
        {"path": "particles[2].omega", "values": [-1.0, 0.0, 7.0]},
    ]})
    commands = [
        ["project", "--config", cfg],
        ["sweep", "--config", cfg, "--sweep", sweep],
        ["sweep", "--config", cfg, "--sweep", sweep, "--format", "json", "--measure", "entropy"],
        ["amplitude", "--config", cfg, "--bra-config", bra_cfg],
        ["amplitude", "--config", fermions, "--bra-config", fermion_bra],
        ["schmidt", "--n-total", "4", "--n-up", "2", "--split", "3,1", "--theta", "0.3,0.5,0.7,0.9"],
        ["echo-config", "--config", cfg],
    ]
    suites = [["verify", suite, "--seed", "5", "--cases", "40"] for suite in ("theorem1", "n3-closed-form")]
    seen = {}
    for value in (None, "1e-3", "1e-17"):
        if value is None:
            monkeypatch.delenv(TOLERANCE_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(TOLERANCE_ENV_VAR, value)
        outputs = []
        for argv in commands:
            result = runner.invoke(main, argv)
            assert result.exit_code == 0, (argv, result.output)
            outputs.append(result.stdout_bytes)
        for argv in suites:
            report = json.loads(runner.invoke(main, argv).stdout_bytes)
            report.pop("failures")
            outputs.append(report)
        seen[value] = outputs
    assert seen["1e-3"] == seen[None]
    assert seen["1e-17"] == seen[None]


def test_tolerance_env_override(runner, tmp_path, monkeypatch):
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "not-a-float")
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.3, 0.4))
    result = runner.invoke(main, ["project", "--config", cfg])
    assert result.exit_code == 2
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-8")
    result = runner.invoke(main, ["project", "--config", cfg])
    assert result.exit_code == 0


def test_output_to_file(runner, tmp_path):
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.3, 0.4))
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["project", "--config", cfg, "--output", str(out)])
    assert result.exit_code == 0
    record = json.loads(out.read_text())
    assert record["n_particles"] == 2


def test_csv_formatting_precision(runner, tmp_path):
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    sweep = write(tmp_path, "sweep.json", {
        "axes": [{"path": "particles[0].theta", "values": [1.0 / 3.0]}]
    })
    result = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep])
    first_field = result.output.strip().splitlines()[1].split(",")[0]
    assert first_field == "%.17g" % (1.0 / 3.0)


def test_in_process_calls_free_their_streams(tmp_path):
    # a caller that redirects the streams must get them back: click.echo
    # keeps every stream it wrote to in a module-level cache
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.3, 0.4))
    for argv, redirect in (
        (["echo-config", "--config", cfg], contextlib.redirect_stdout),
        (["project", "--config", str(tmp_path / "missing.json")], contextlib.redirect_stderr),
    ):
        stream = io.StringIO()
        with redirect(stream):
            try:
                main(argv)
            except SystemExit:
                pass
        assert stream.getvalue()
        ref = weakref.ref(stream)
        del stream
        gc.collect()
        assert ref() is None


def assert_usage_error(result, *fragments):
    assert result.exit_code == 2, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.output
    for fragment in fragments:
        assert fragment in lines[0]


def run_sweep(runner, tmp_path, spec):
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    sweep = write(tmp_path, "sweep.json", spec)
    return runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep])


def test_sweep_rejects_non_numeric_values(runner, tmp_path):
    for axis in (
        {"values": [0.1, "abc"]},
        {"start": "abc", "stop": 1.0, "steps": 3},
        {"start": 0.0, "stop": "abc", "steps": 3},
    ):
        spec = {"axes": [dict(path="particles[0].omega", **axis)]}
        assert_usage_error(run_sweep(runner, tmp_path, spec), "must be a number", "'abc'")
    spec = '{"axes": [{"path": "particles[0].omega", "values": [NaN]}]}'
    assert_usage_error(run_sweep(runner, tmp_path, spec), "must be finite")


def test_sweep_rejects_booleans(runner, tmp_path):
    for axis in (
        {"values": [True]},
        {"start": 0.0, "stop": False, "steps": 3},
        {"start": 0.0, "stop": 1.0, "steps": True},
    ):
        spec = {"axes": [dict(path="particles[0].omega", **axis)]}
        assert_usage_error(run_sweep(runner, tmp_path, spec), "axes[0]")


def test_sweep_rejects_unknown_keys(runner, tmp_path):
    axis = {"path": "particles[0].omega", "values": [0.1]}
    for spec, fragment in (
        ({"axes": [axis], "extra": 1}, "only 'axes'"),
        ({"axes": [dict(axis, step=2)]}, "'step'"),
        ({"axes": [dict(axis, start=0.0)]}, "'start'"),
    ):
        assert_usage_error(run_sweep(runner, tmp_path, spec), fragment)


def test_sweep_rejects_duplicate_fields(runner, tmp_path):
    text = '{"axes": [{"path": "particles[0].omega", "values": [0.1], "values": [0.2]}]}'
    assert_usage_error(run_sweep(runner, tmp_path, text), "axes[0]: duplicate field 'values'")


def test_sweep_rejects_paths_the_schema_rejects(runner, tmp_path):
    # a trailing newline would split the CSV header, and an Arabic-Indic
    # digit is no ASCII index
    for path in ("particles[0].theta\n", "particles[\u0661].theta"):
        spec = {"axes": [{"path": path, "values": [0.1]}]}
        assert_usage_error(run_sweep(runner, tmp_path, spec), "bad parameter path")


def test_sweep_rejects_out_of_range_angles_before_evaluation(runner, tmp_path):
    for axis in (
        {"path": "particles[0].theta", "start": 0.0, "stop": 1.6, "steps": 5},
        {"path": "particles[1].theta", "values": [0.1, -0.1]},
        {"path": "particles[0].phi", "values": [1.0, 2.0]},
    ):
        assert_usage_error(run_sweep(runner, tmp_path, {"axes": [axis]}), "[0, pi/2]")
    # the cap holds for one axis too, before its points are built
    axis = {"path": "particles[0].omega", "start": 0.0, "stop": 1.0, "steps": MAX_GRID_POINTS + 1}
    assert_usage_error(run_sweep(runner, tmp_path, {"axes": [axis]}), "grid cap")


def test_sweep_range_ending_on_the_bound_runs(runner, tmp_path):
    # start + k * h can pass pi/2 or 0 by one ulp, as at 26 steps from 0 to pi/2
    for path, start, stop in (("particles[0].theta", 0.0, math.pi / 2), ("particles[1].phi", math.pi / 2, 0.0)):
        for steps in range(2, 401):
            axis = {"path": path, "start": start, "stop": stop, "steps": steps}
            result = run_sweep(runner, tmp_path, {"axes": [axis]})
            assert result.exit_code == 0, (steps, result.output)
            values = [float(line.split(",")[0]) for line in result.output.splitlines()[1:]]
            h = (stop - start) / (steps - 1)
            assert values == [min(max(start + k * h, 0.0), math.pi / 2) for k in range(steps)]
            # the grid's own last point, kept unless it passes the bound, lies within one ulp of stop
            assert abs(values[-1] - stop) <= math.ulp(math.pi / 2), (steps, values[-1])
            if steps == 26:  # the grid's last point passes the bound and is clamped onto it
                assert values[-1] == stop
    # an end outside the interval is named, not the first grid point past it
    axis = {"path": "particles[0].theta", "start": 0.0, "stop": 1.6, "steps": 26}
    assert_usage_error(run_sweep(runner, tmp_path, {"axes": [axis]}), "got 1.6")


def test_sweep_locates_each_axis_once(runner, tmp_path, monkeypatch):
    calls = []
    locate = EnsembleConfig.locate

    def counting_locate(self, path):
        calls.append(path)
        return locate(self, path)

    monkeypatch.setattr(EnsembleConfig, "locate", counting_locate)
    spec = {"axes": [
        {"path": "particles[0].theta", "values": [0.1, 0.2]},
        {"path": "particles[1].omega", "start": 0.0, "stop": 1.0, "steps": 3},
    ]}
    result = run_sweep(runner, tmp_path, spec)
    assert result.exit_code == 0, result.output
    assert calls == ["particles[0].theta", "particles[1].omega"]
    # stored spin-up first: file particle 0 is stored at 1, and phi is row 2 of angles()
    config = parse_ensemble_config(json.dumps(
        {"particles": [{"spin": "down", "theta": 0.2}, {"spin": "up", "theta": 0.9}]}
    ))
    (axis,) = parse_sweep_spec(json.dumps({"axes": [{"path": "particles[0].phi", "values": [0.5, 1]}]}), config)
    assert (axis.path, axis.particle, axis.row) == ("particles[0].phi", 1, 2)
    assert axis.values.dtype == np.float64 and axis.values.tolist() == [0.5, 1.0]


def test_verify_schmidt_rejects_cases(runner):
    result = runner.invoke(main, ["verify", "schmidt", "--cases", "3"])
    assert_usage_error(result, "schmidt")


def test_verify_cases_outside_the_cap_is_usage_error(runner, monkeypatch):
    # rejected before any draw: no suite runs
    def suite(**kwargs):
        raise AssertionError("a suite ran")

    for name in ("oracle", "n2-closed-form"):
        monkeypatch.setitem(SUITES, name, suite)
        for cases in ("99999999999999999999", str(MAX_CASES + 1), "0"):
            result = runner.invoke(main, ["verify", name, "--cases", cases])
            assert_usage_error(result, f"[1, {MAX_CASES}]", f"got {cases}")
    result = runner.invoke(main, ["verify", "theorem1", "--cases", str(MAX_CASES)])
    assert result.exit_code == 0, result.output


def test_probability_sum_invariant_exits_2(runner, tmp_path, monkeypatch):
    block = fold._detector_block

    def skewed_block(c, s, r):
        amps, detected, leaked = block(c, s, r)
        return amps, detected, leaked + 1e-6

    monkeypatch.setattr(fold, "_detector_block", skewed_block)
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    config = parse_ensemble_config((tmp_path / "cfg.json").read_text())
    ensemble = rows_ensemble(config.n_up, config.angles())
    with pytest.raises(ConsistencyError, match="miss one by"):
        detection.project_onto_detectors(ensemble)
    assert_usage_error(runner.invoke(main, ["project", "--config", cfg]), "miss one by")
    sweep = write(tmp_path, "sweep.json", {
        "axes": [{"path": "particles[0].theta", "values": [0.2, 0.4]}]
    })
    result = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep])
    assert_usage_error(result, "miss one by")


def test_sweep_rejects_repeated_path(runner, tmp_path):
    # each row would print both axes' values but be evaluated at the last
    for second in ("particles[0].theta", "particles[00].theta"):
        spec = {"axes": [
            {"path": "particles[0].theta", "values": [0.1, 0.5]},
            {"path": second, "values": [1.2]},
        ]}
        assert_usage_error(run_sweep(runner, tmp_path, spec), "axes[1]", "axes[0]")


class RecordingPool(concurrent.futures.ThreadPoolExecutor):
    """Thread pool that records the worker counts it is asked for and runs
    at most two, whatever a faulty caller asks."""

    sizes = []

    def __init__(self, max_workers=None, **kwargs):
        RecordingPool.sizes.append(max_workers)
        super().__init__(max_workers=min(max_workers, 2), **kwargs)


@pytest.fixture
def recording_pool(monkeypatch):
    RecordingPool.sizes = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    return RecordingPool.sizes


def test_sweep_pool_never_exceeds_chunk_count(runner, tmp_path, recording_pool):
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    sweep = write(tmp_path, "sweep.json", {
        "axes": [{"path": "particles[0].theta", "start": 0.1, "stop": 1.4, "steps": 40}]
    })
    single = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep])
    many = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep, "--threads", "8"])
    assert single.exit_code == 0 and many.exit_code == 0
    assert single.output == many.output
    # one chunk: evaluated inline, no pool
    assert recording_pool == []


def test_sweep_pool_never_exceeds_cpu_count(runner, tmp_path, recording_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # one particle per spin block: 16 / 2^2 = 4 rows per chunk, so 13 rows
    # make four chunks
    monkeypatch.setattr(fold, "CHUNK_ENTRIES", 16)
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    sweep = write(tmp_path, "sweep.json", {
        "axes": [{"path": "particles[0].theta", "start": 0.1, "stop": 1.4, "steps": 13}]
    })
    assert len(fold.fold_chunks(1, 2, 13)) == 4
    result = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep, "--threads", "1000"])
    assert result.exit_code == 0, result.output
    assert len(result.output.splitlines()) == 14
    assert recording_pool == [2]


def leaky_three_boson_config():
    return {
        "particles": [
            {"spin": "up", "theta": 0.3, "omega": 0.4},
            {"spin": "up", "theta": 1.1, "omega": 2.0, "phi": 1.2, "gamma": 0.5},
            {"spin": "down", "theta": 0.8, "omega": 5.0},
        ]
    }


def project_row(config, values, paths):
    """p_q, leak and both entanglement averages of one grid point, per point."""
    parsed = parse_ensemble_config(json.dumps(config))
    for path, value in zip(paths, values):
        parsed = parsed.with_value(path, value)
    ensemble = rows_ensemble(parsed.n_up, parsed.angles())
    dec = project_onto_detectors(ensemble)
    probs = dec.probabilities()
    return (
        [probs.get(q, 0.0) for q in range(parsed.n_total + 1)],
        dec.leak_probability,
        {m: svd_route_entanglement(dec, m) for m in ("entropy", "concurrence")},
    )


def test_sweep_chunk_boundary_rows(runner, tmp_path, recording_pool, monkeypatch):
    # more CPUs than chunks, on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    config = leaky_three_boson_config()
    cfg = write(tmp_path, "cfg.json", config)
    # the larger spin block holds two particles
    chunk = fold.CHUNK_ENTRIES // 3 ** 2
    paths = ["particles[0].theta"]
    sweep = write(tmp_path, "sweep.json", {
        "axes": [{"path": paths[0], "start": 0.0, "stop": math.pi / 2, "steps": chunk + 3}]
    })
    outputs = [
        runner.invoke(main, [
            "sweep", "--config", cfg, "--sweep", sweep, "--measure", "entropy", "--threads", threads
        ])
        for threads in ("1", "3")
    ]
    assert all(result.exit_code == 0 for result in outputs)
    assert outputs[0].output == outputs[1].output
    # two chunks: never more workers than chunks
    assert recording_pool == [2]
    rows = outputs[0].output.splitlines()[1:]
    assert len(rows) == chunk + 3
    for index in (0, chunk - 1, chunk, chunk + 2):
        fields = [float(v) for v in rows[index].split(",")]
        p, leak, ent = project_row(config, fields[:1], paths)
        assert max(abs(a - b) for a, b in zip(fields[1:5], p)) < 1e-10
        assert abs(fields[5] - leak) < 1e-10
        assert abs(fields[6] - ent["entropy"]) < 1e-10


def test_sweep_json_matches_csv(runner, tmp_path):
    cfg = write(tmp_path, "cfg.json", leaky_three_boson_config())
    axes = [
        {"path": "particles[1].phi", "values": [0.0, 0.7, math.pi / 2]},
        {"path": "particles[2].omega", "start": 0.0, "stop": 9.0, "steps": 4},
    ]
    sweep = write(tmp_path, "sweep.json", {"axes": axes})
    base = ["sweep", "--config", cfg, "--sweep", sweep]
    csv_out = runner.invoke(main, base)
    json_out = runner.invoke(main, base + ["--format", "json"])
    assert csv_out.exit_code == 0 and json_out.exit_code == 0
    records = json.loads(json_out.output)
    lines = csv_out.output.splitlines()
    assert lines[0] == "particles[1].phi,particles[2].omega,p_0,p_1,p_2,p_3,leak,entanglement"
    assert len(records) == len(lines) - 1 == 12
    for record, line in zip(records, lines[1:]):
        fields = [float(v) for v in line.split(",")]
        assert list(record["parameters"]) == [axis["path"] for axis in axes]
        assert list(record["parameters"].values()) == fields[:2]
        assert [record["p"].get(str(q), 0.0) for q in range(4)] == fields[2:6]
        assert record["leak"] == fields[6]
        assert record["entanglement"] == fields[7]
    # phi = 0 puts particle 1 wholly in the remainder mode
    assert all(records[k]["leak"] > 0.9 for k in range(4))


def test_sweep_failure_names_first_failing_row(runner, tmp_path, monkeypatch):
    block = fold._detector_block
    cut = math.cos(1.0)

    def skewed_block(c, s, r):
        amps, detected, leaked = block(c, s, r)
        # only the up block, and only where particle 0 has theta > 1
        if c.shape[1] == 1 and r.shape[1] == 1:
            leaked = leaked + 1e-6 * (abs(c[:, 0]) < cut)
        return amps, detected, leaked

    monkeypatch.setattr(fold, "_detector_block", skewed_block)
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    chunk = fold.CHUNK_ENTRIES // 2 ** 2
    values = [0.3] * (chunk + 1) + [1.2, 0.3, 1.4]
    sweep = write(tmp_path, "sweep.json", {
        "axes": [
            {"path": "particles[0].theta", "values": values},
            {"path": "particles[1].omega", "values": [0.5]},
        ]
    })
    out = tmp_path / "out.csv"
    for threads in ("1", "2"):
        result = runner.invoke(main, [
            "sweep", "--config", cfg, "--sweep", sweep, "--threads", threads, "--output", str(out)
        ])
        assert_usage_error(
            result,
            f"grid row {chunk + 1} (particles[0].theta = 1.2, particles[1].omega = 0.5)",
            "miss one by 1.000e-06",
        )
        assert not out.exists()


def test_sweep_paths_use_file_order(runner, tmp_path):
    # stored spin-up first, so file particle 0 is stored second
    particles = [{"spin": "down", "theta": 0.2}, {"spin": "up", "theta": 0.9, "phi": 1.0}]
    cfg = write(tmp_path, "cfg.json", {"particles": particles})
    config = parse_ensemble_config((tmp_path / "cfg.json").read_text())
    assert config.locate("particles[0].phi") == (1, "phi")
    moved = [dict(particles[0], phi=0.5), particles[1]]
    expected = parse_ensemble_config(json.dumps({"particles": moved}))
    assert config.with_value("particles[0].phi", 0.5) == expected
    sweep = write(tmp_path, "sweep.json", {"axes": [{"path": "particles[0].phi", "values": [0.5]}]})
    result = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep])
    assert result.exit_code == 0, result.output
    leak = float(result.output.splitlines()[1].split(",")[-2])
    project = runner.invoke(main, ["project", "--config", write(tmp_path, "moved.json", {"particles": moved})])
    assert abs(leak - json.loads(project.output)["leak"]) < 1e-12
    assert abs(leak - (1 - math.sin(0.5) ** 2 * math.sin(1.0) ** 2)) < 1e-12


def test_verify_negative_seed_is_usage_error(runner):
    result = runner.invoke(main, ["verify", "theorem1", "--seed", "-1"])
    assert_usage_error(result, "seed must be >= 0")


def test_ensemble_missing_both_detectors(runner, tmp_path):
    for particles in (
        [{"spin": "up", "theta": 0.3, "phi": 0.0}, {"spin": "down", "theta": 1.0, "phi": 0.0, "gamma": 0.4}],
        [{"spin": "down", "theta": 0.7, "omega": 2.0, "phi": 0.0}] * 3,
    ):
        cfg = write(tmp_path, "cfg.json", {"particles": particles})
        config = parse_ensemble_config((tmp_path / "cfg.json").read_text())
        ensemble = rows_ensemble(config.n_up, config.angles())
        for measure in ("entropy", "concurrence"):
            assert entanglement_of_particles(ensemble, measure) == 0.0
        result = runner.invoke(main, ["project", "--config", cfg])
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["sectors"] == []
        assert abs(record["leak"] - 1.0) < 1e-12
        assert record["entanglement"] == {"entropy": 0.0, "concurrence": 0.0}


def test_unwritable_output_is_usage_error(runner, tmp_path):
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    sweep = write(tmp_path, "sweep.json", {
        "axes": [{"path": "particles[0].theta", "values": [0.2, 0.4]}]
    })
    out = str(tmp_path / "missing" / "x.json")
    for argv in (
        ["project", "--config", cfg],
        ["amplitude", "--config", cfg, "--bra-config", cfg],
        ["sweep", "--config", cfg, "--sweep", sweep],
        ["sweep", "--config", cfg, "--sweep", sweep, "--format", "json"],
    ):
        result = runner.invoke(main, argv + ["--output", out])
        assert_usage_error(result, f"cannot write output {out}")


def test_non_utf8_inputs_are_usage_errors(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert_usage_error(
        runner.invoke(main, ["project", "--config", str(bad)]),
        f"cannot read config {bad}",
    )
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    assert_usage_error(
        runner.invoke(main, ["sweep", "--config", cfg, "--sweep", str(bad)]),
        f"cannot read sweep spec {bad}",
    )


#: 1e309, an integer above the largest float
DIGITS_310 = "1" + "0" * 309
#: past the interpreter's default limit of 4300 digits on int parsing
DIGITS_4301 = "1" * 4301
#: arrays nested past any recursion limit of the JSON decoder
NESTED = "[" * 10 ** 5 + "]" * 10 ** 5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, text, fragment", [
    ("config", '{"particles": %s}' % NESTED, "invalid JSON: nested too deeply"),
    ("sweep", '{"axes": %s}' % NESTED, "invalid sweep JSON: nested too deeply"),
    ("config", '{"particles": [{"spin": "up", "theta": %s}]}' % DIGITS_4301,
     "invalid JSON: an integer literal exceeds the limit on integer digits"),
    ("sweep", '{"axes": [{"path": "particles[0].omega", "values": [%s]}]}' % DIGITS_4301,
     "invalid sweep JSON: an integer literal exceeds the limit on integer digits"),
    ("config", '{"particles": [{"spin": "up", "theta": 0.3, "omega": %s}]}' % DIGITS_310,
     "particles[0]: field 'omega' must be finite, got an integer of 310 digits"),
    ("sweep", '{"axes": [{"path": "particles[0].omega", "values": [0.5, %s]}]}' % DIGITS_310,
     "axes[0]: values[1] must be finite, got an integer of 310 digits"),
    ("sweep", '{"axes": [{"path": "particles[0].omega", "start": %s, "stop": 1, "steps": 3}]}' % DIGITS_310,
     "axes[0]: 'start' must be finite, got an integer of 310 digits"),
    ("sweep", '{"axes": [{"path": "particles[0].omega", "start": 0, "stop": -%s, "steps": 3}]}' % DIGITS_310,
     "axes[0]: 'stop' must be finite, got an integer of 310 digits"),
    ("sweep", '{"axes": [{"path": "particles[0].omega", "start": -1.7e308, "stop": 1.7e308, "steps": 3}]}',
     "axes[0]: the grid from -1.7e+308 to 1.7e+308 leaves the float range"),
    ("schmidt", "1000000", "projection is capped at N <= 170, got N = 1000000"),
    ("schmidt", "99999999999999999999", "projection is capped at N <= 170, got N = 99999999999999999999"),
], ids=[
    "config-nested", "sweep-nested", "config-4301-digits", "sweep-4301-digits",
    "config-310-digit-angle", "sweep-310-digit-value", "sweep-310-digit-start",
    "sweep-310-digit-stop", "sweep-overflowing-axis", "schmidt-1e6", "schmidt-1e20",
])
def test_inputs_past_decoder_and_float_limits_exit_2(runner, tmp_path, monkeypatch, kind, text, fragment):
    # one error line and no warning: the overflowing axis used to reach the
    # fold as NaN, warn and fail its unit-norm check; above the cap, schmidt
    # must not touch its particles (N = 10^6 took 13.8 s)
    def per_particle(*args, **kwargs):
        raise AssertionError("per-particle work above the projection cap")

    monkeypatch.setattr(measures, "_broadcast_angle", per_particle)
    if kind == "schmidt":
        argv = ["schmidt", "--n-total", text, "--n-up", "1", "--split", f"1,{int(text) - 1}"]
    elif kind == "config":
        argv = ["project", "--config", write(tmp_path, "cfg.json", text)]
    else:
        cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
        argv = ["sweep", "--config", cfg, "--sweep", write(tmp_path, "sweep.json", text)]
    assert_usage_error(runner.invoke(main, argv), fragment)


@pytest.mark.parametrize("command, callee", [
    ("amplitude", "fold_amplitude"),
    ("project", "_project_json"),
    ("sweep", "sweep_grid"),
    ("schmidt", "verify_schmidt_equivalence"),
    ("verify", "run_suite"),
    ("echo-config", "dump_ensemble_config"),
])
def test_every_command_reports_identangle_errors_as_usage_errors(runner, tmp_path, monkeypatch, command, callee):
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    sweep = write(tmp_path, "sweep.json", {"axes": [{"path": "particles[0].theta", "values": [0.2]}]})
    argv = {
        "amplitude": ["amplitude", "--config", cfg, "--bra-config", cfg],
        "project": ["project", "--config", cfg],
        "sweep": ["sweep", "--config", cfg, "--sweep", sweep],
        "schmidt": ["schmidt", "--n-total", "3", "--n-up", "2", "--split", "2,1"],
        "verify": ["verify", "schmidt"],
        "echo-config": ["echo-config", "--config", cfg],
    }[command]

    def fail(*args, **kwargs):
        raise IdentangleError(f"raised in {callee}")

    # each command imports its callee from the defining module when it runs
    owner = {
        "fold_amplitude": "fold",
        "_project_json": "cli",
        "sweep_grid": "fold",
        "verify_schmidt_equivalence": "measures",
        "run_suite": "verify",
        "dump_ensemble_config": "config",
    }[callee]
    monkeypatch.setattr(f"identangle.{owner}.{callee}", fail)
    assert_usage_error(runner.invoke(main, argv), f"raised in {callee}")
    # an invalid tolerance fails the command before its body, but not its --help
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "not-a-float")
    assert_usage_error(runner.invoke(main, argv), f"{TOLERANCE_ENV_VAR} must be a float")
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0 and "Usage:" in result.output, result.output


def library_project_json(config):
    """The ``project`` record built from the library routes, as
    json.dumps(record, indent=2) renders it."""
    ensemble = rows_ensemble(config.n_up, config.angles())
    decomposition = project_onto_detectors(ensemble)
    record = {
        "n_particles": config.n_total,
        "n_up": config.n_up,
        "source_order": list(config.source_order),
        "sectors": [
            {
                "q": sector.q,
                "p": sector.probability,
                "amplitudes": [
                    {
                        "key": [[label, spin.value] for label, spin in key],
                        "re": value.real,
                        "im": value.imag,
                    }
                    for key, value in sorted(sector.state.items())
                ],
            }
            for sector in decomposition.sectors
        ],
        "leak": decomposition.leak_probability,
        "entanglement": {
            measure: entanglement_of_particles(ensemble, measure)
            for measure in ("entropy", "concurrence")
        },
    }
    return json.dumps(record, indent=2) + "\n"


def seeded_particles(rng, n, n_up, phases=(0.0, 2 * math.pi)):
    """n particles, n_up of them spin up, in shuffled file order, with edge
    thetas, leaking and fully missing particles and repeated modes; omega
    and gamma are drawn uniformly from ``phases``."""
    particles = []
    for j in range(n):
        if particles and rng.random() < 0.25:
            particle = dict(particles[int(rng.integers(len(particles)))])
        else:
            theta = (
                float(rng.choice([0.0, math.pi / 4, math.pi / 2]))
                if rng.random() < 0.2
                else float(rng.uniform(0.0, math.pi / 2))
            )
            particle = {"theta": theta, "omega": float(rng.uniform(*phases))}
            draw = rng.random()
            if draw < 0.3:
                particle["phi"] = float(rng.uniform(0.0, math.pi / 2))
                particle["gamma"] = float(rng.uniform(*phases))
            elif draw < 0.35:
                particle["phi"] = 0.0
        particle["spin"] = "up" if j < n_up else "down"
        particles.append(particle)
    rng.shuffle(particles)
    return particles


def test_project_output_matches_library_routes(runner, tmp_path):
    rng = np.random.default_rng(6060)
    payloads = []
    for k in range(300):
        n = 1 + k % 23
        n_up = (0, n)[k % 5] if k % 5 < 2 else int(rng.integers(0, n + 1))
        payloads.append({"particles": seeded_particles(rng, n, n_up)})
    payloads.append({"particles": [
        {"spin": "up", "theta": 0.3, "phi": 0.0},
        {"spin": "down", "theta": 1.0, "phi": 0.0, "gamma": 0.4},
    ]})
    payloads.append({"particles": seeded_particles(rng, 60, 25)})
    empty = 0
    for payload in payloads:
        cfg = write(tmp_path, "cfg.json", payload)
        config = parse_ensemble_config((tmp_path / "cfg.json").read_text())
        result = runner.invoke(main, ["project", "--config", cfg])
        assert result.exit_code == 0, result.output
        assert result.output == library_project_json(config), payload
        empty += json.loads(result.output)["sectors"] == []
    assert empty >= 1


def test_phases_outside_the_period_agree_across_commands(runner, tmp_path):
    # the CLI wraps phases once, as SpatialMode does; -1e-20 % (2*pi) alone
    # rounds to 2*pi, whose sine is -2.4e-16 rather than 0
    rng = np.random.default_rng(9090)
    specials = (-1e-20, 2 * math.pi + 1e-15)
    for k in range(320):
        n = 1 + k % 9
        particles = seeded_particles(
            rng, n, int(rng.integers(0, n + 1)), phases=(-4 * math.pi, 4 * math.pi)
        )
        field = ("omega", "gamma")[k % 2]
        if k % 3:
            particles[0][field] = specials[k % 4 // 2]
            particles[0].setdefault("phi", 1.0)
        cfg = write(tmp_path, "cfg.json", {"particles": particles})
        config = parse_ensemble_config((tmp_path / "cfg.json").read_text())
        result = runner.invoke(main, ["project", "--config", cfg])
        assert result.exit_code == 0, result.output
        assert result.output == library_project_json(config), particles
        record = json.loads(result.output)

        measure = ("entropy", "concurrence")[k % 2]
        sweep = write(tmp_path, "sweep.json", {"axes": [
            {"path": f"particles[0].{field}", "values": [particles[0].get(field, 0.0)]}
        ]})
        row = runner.invoke(main, [
            "sweep", "--config", cfg, "--sweep", sweep, "--measure", measure, "--format", "json"
        ])
        assert row.exit_code == 0, row.output
        (row,) = json.loads(row.output)
        assert row["p"] == {str(s["q"]): s["p"] for s in record["sectors"]}, particles
        assert row["leak"] == record["leak"]
        assert row["entanglement"] == record["entanglement"][measure]

        bra = [dict(p, omega=p.get("omega", 0.0) + float(rng.normal(0.0, 0.2))) for p in particles]
        got = cli_amplitude(runner, tmp_path, bra, particles)
        expected = library_amplitude(bra, particles)
        assert abs(got - expected) <= DEFAULT_TOLERANCES.comparison * max(1.0, abs(expected))


def test_project_makes_one_fold(runner, tmp_path, monkeypatch):
    calls = {"batch": 0, "block": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fold, "_project_batch", counted("batch", fold._project_batch))
    monkeypatch.setattr(
        fold, "_detector_block", counted("block", fold._detector_block)
    )
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    result = runner.invoke(main, ["project", "--config", cfg])
    assert result.exit_code == 0, result.output
    assert calls == {"batch": 1, "block": 2}


def test_project_sector_norm_check_exits_2(runner, tmp_path, monkeypatch):
    batch = fold._project_batch

    def scaled_outcomes(*args):
        outcomes, weights, p, leak = batch(*args)
        return outcomes * 1.001, weights, p, leak

    monkeypatch.setattr(fold, "_project_batch", scaled_outcomes)
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    assert_usage_error(runner.invoke(main, ["project", "--config", cfg]), "sector q = 2 has norm")


@pytest.mark.parametrize("argv, fragment", [
    (["project"], "missing --config"),
    (["sweep", "--config", "c.json", "--sweep", "s.json", "--threads", "two"], "--threads must be an integer, got 'two'"),
    (["verify", "nosuch"], "must be one of"),
    (["project", "--confg", "c.json"], "no such option --confg"),
    (["nosuch", "--config", "c.json"], "no such command 'nosuch'"),
    ([], "missing command"),
    (["schmidt", "--n-total", "3", "--n-up", "2", "--split", "2;1"], "--split must be two comma-separated integers, got '2;1'"),
    (["project", "--config"], "project: --config needs a value"),
    (["project", "--config", "c.json", "extra"], "project: unexpected argument 'extra'"),
], ids=[
    "missing-option", "bad-integer", "bad-suite", "unknown-option", "unknown-command", "no-command",
    "bad-split", "option-without-value", "unexpected-positional",
])
def test_argument_errors_are_one_line(runner, argv, fragment):
    assert_usage_error(runner.invoke(main, argv), fragment)


def test_values_starting_with_a_dash_reach_the_command(runner):
    base = ["schmidt", "--n-total", "3", "--n-up", "2", "--split", "2,1"]
    result = runner.invoke(main, base + ["--omega", "-0.3,0.4,0.1"])
    assert result.exit_code == 0, result.output
    # --flag=value is the same option, and a repeated option keeps its last value
    for argv in (base + ["--omega=-0.3,0.4,0.1"], base + ["--omega", "0.0", "--omega", "-0.3,0.4,0.1"]):
        assert runner.invoke(main, argv).stdout_bytes == result.stdout_bytes
    assert_usage_error(runner.invoke(main, ["verify", "theorem1", "--cases", "-3"]), "cases must lie in [1, 1000]")


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_help_lists_every_option(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith(f"Usage: identangle {command}")
    for option in cli.COMMANDS[command][1]:
        assert option.flag in result.output


def test_program_help_lists_every_command(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0, result.output
    assert all(command in result.output for command in cli.COMMANDS)


def test_interrupt_exits_1_with_aborted(runner, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "run_suite", interrupted)
    result = runner.invoke(main, ["verify", "schmidt"])
    assert (result.exit_code, result.output) == (1, "Aborted!\n")


def run_module(args, **kwargs):
    """A child Python with the package's sources first on its path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen([sys.executable] + args, env=env, **kwargs)


def test_cli_imports_no_click():
    child = run_module(["-c", "import sys, identangle.cli; sys.exit('click' in sys.modules)"])
    assert child.wait(timeout=60) == 0


def test_sweep_into_a_closed_pipe_exits_1_quietly(tmp_path):
    # about 1.5 MB of rows, far more than a pipe holds, so the sweep is
    # still writing when its reader leaves
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    sweep = write(tmp_path, "sweep.json", {"axes": [
        {"path": "particles[0].theta", "start": 0.0, "stop": 1.5, "steps": 100},
        {"path": "particles[1].omega", "start": 0.0, "stop": 6.0, "steps": 100},
    ]})
    child = run_module(
        ["-m", "identangle.cli", "sweep", "--config", cfg, "--sweep", sweep],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.stdout.readline().startswith(b"particles[0].theta,")
    child.stdout.close()
    assert child.wait(timeout=60) == 1
    assert child.stderr.read() == b""
    child.stderr.close()


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def every_command(tmp_path):
    """Arguments that run each command to its output."""
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9, 0.4))
    sweep = write(tmp_path, "sweep.json", {"axes": [
        {"path": "particles[0].theta", "start": 0.0, "stop": 1.5, "steps": 5},
    ]})
    return {
        "amplitude": ["amplitude", "--config", cfg, "--bra-config", cfg],
        "project": ["project", "--config", cfg],
        "sweep": ["sweep", "--config", cfg, "--sweep", sweep],
        "schmidt": ["schmidt", "--n-total", "3", "--n-up", "2", "--split", "2,1"],
        "verify": ["verify", "n2-closed-form", "--cases", "1"],
        "echo-config": ["echo-config", "--config", cfg],
    }


@needs_dev_full
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_full_output_exits_2_with_one_line(runner, tmp_path, command):
    # the write succeeds into the buffer and the flush fails: a usage-style
    # error, not a traceback and not exit 1, which means a failed verification
    result = runner.invoke(main, every_command(tmp_path)[command] + ["--output", "/dev/full"])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: cannot write output /dev/full: ")
    assert result.output.count("\n") == 1


@needs_dev_full
@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_on_a_full_device_exits_2_with_one_line(argv):
    with open("/dev/full", "w") as full:
        child = run_module(["-m", "identangle.cli"] + argv, stdout=full, stderr=subprocess.PIPE)
        _, err = child.communicate(timeout=60)
    assert child.returncode == 2, err
    assert err.startswith(b"error: cannot write output stdout: ")
    assert err.count(b"\n") == 1


@needs_dev_full
def test_stdout_on_a_full_device_exits_2_with_one_line(tmp_path):
    # stdout still holds the record after the failed flush; the flush at
    # exit must not fail a second time
    with open("/dev/full", "w") as full:
        child = run_module(
            ["-m", "identangle.cli"] + every_command(tmp_path)["project"],
            stdout=full, stderr=subprocess.PIPE,
        )
        _, err = child.communicate(timeout=60)
    assert child.returncode == 2, err
    assert err.startswith(b"error: cannot write output stdout: ")
    assert err.count(b"\n") == 1
