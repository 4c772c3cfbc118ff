"""Command-line interface tests."""

import contextlib
import gc
import io
import json
import math
import weakref

import pytest
from click.testing import CliRunner

from identangle import detection
from identangle.cli import main
from identangle.config import (
    MAX_GRID_POINTS,
    dump_ensemble_config,
    parse_ensemble_config,
    parse_parameter_path,
    parse_sweep_spec,
)
from identangle.errors import ConfigError, ConsistencyError
from identangle.tolerances import TOLERANCE_ENV_VAR


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
    expected = transition_amplitude(
        parse_ensemble_config(json.dumps(bra_payload)).ensemble().kets(),
        parse_ensemble_config(json.dumps(ket_payload)).ensemble().kets(),
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
    # a tolerance below permanent roundoff turns residuals into failures
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-14")
    result = runner.invoke(main, ["verify", "oracle", "--cases", "30", "--seed", "3"])
    assert result.exit_code == 1
    record = json.loads(result.output)
    assert record["failures"] > 0


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
                main(argv, standalone_mode=False)
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


def test_verify_schmidt_rejects_cases(runner):
    result = runner.invoke(main, ["verify", "schmidt", "--cases", "3"])
    assert_usage_error(result, "schmidt")


def test_probability_sum_invariant_exits_2(runner, tmp_path, monkeypatch):
    block = detection._detector_block

    def skewed_block(kets, spin, tol):
        amps, detected, leaked = block(kets, spin, tol)
        return amps, detected, leaked + 1e-6

    monkeypatch.setattr(detection, "_detector_block", skewed_block)
    cfg = write(tmp_path, "cfg.json", two_boson_config(0.2, 0.9))
    ensemble = parse_ensemble_config((tmp_path / "cfg.json").read_text()).ensemble()
    with pytest.raises(ConsistencyError, match="miss one by"):
        detection.project_onto_detectors(ensemble)
    assert_usage_error(runner.invoke(main, ["project", "--config", cfg]), "miss one by")
    sweep = write(tmp_path, "sweep.json", {
        "axes": [{"path": "particles[0].theta", "values": [0.2, 0.4]}]
    })
    result = runner.invoke(main, ["sweep", "--config", cfg, "--sweep", sweep])
    assert_usage_error(result, "miss one by")
