"""The JSON Schemas in docs/ against the config and sweep-spec parsers:
enums, fields, defaults, required fields, the path pattern and the grid
cap.  Only the stdlib reads the schema files."""

import json
import re
from pathlib import Path

import pytest

from identangle import config
from identangle.config import ANGLES, MAX_GRID_POINTS, parse_ensemble_config, parse_sweep_spec
from identangle.errors import ConfigError
from identangle.states import Spin, Statistics

DOCS = Path(__file__).resolve().parent.parent / "docs"


def schema(name):
    return json.loads((DOCS / name).read_text())


ENSEMBLE = schema("ensemble-config.schema.json")
PARTICLE = ENSEMBLE["properties"]["particles"]["items"]
SWEEP = schema("sweep-spec.schema.json")
AXIS = SWEEP["properties"]["axes"]["items"]


def test_enums_match_the_parser():
    assert ENSEMBLE["properties"]["statistics"]["enum"] == [s.value for s in Statistics]
    assert PARTICLE["properties"]["spin"]["enum"] == [s.value for s in Spin]


def test_ensemble_fields_and_defaults_match_the_parser():
    assert set(ENSEMBLE["properties"]) == {"particles", "statistics", "degrees"}
    assert ENSEMBLE["required"] == ["particles"]
    assert list(PARTICLE["properties"]) == ["spin", *ANGLES]
    assert PARTICLE["required"] == ["spin"] + [name for name, (default, _) in ANGLES.items() if default is None]
    for name, (default, _) in ANGLES.items():
        assert PARTICLE["properties"][name].get("default") == default, name
    # the root defaults, read from a config that gives neither field: the
    # statistics, and a theta read as radians
    parsed = parse_ensemble_config('{"particles": [{"spin": "up", "theta": 1.0}]}')
    assert ENSEMBLE["properties"]["statistics"]["default"] == parsed.statistics.value
    assert ENSEMBLE["properties"]["degrees"]["default"] is False and parsed.particles[0].theta == 1.0


def test_sweep_fields_match_the_parser():
    assert SWEEP["required"] == ["axes"] and set(SWEEP["properties"]) == {"axes"}
    assert AXIS["required"] == ["path"]
    shapes = [set(AXIS["required"]) | set(one["required"]) for one in AXIS["oneOf"]]
    assert set(AXIS["properties"]) == set.union(*shapes)
    two = parse_ensemble_config('{"particles": [{"spin": "up", "theta": 0.2}, {"spin": "down", "theta": 0.4}]}')
    fields = {"path": "particles[1].omega", "values": [0.5], "start": 0.0, "stop": 1.0, "steps": 3}
    for shape in shapes:
        axis = {key: fields[key] for key in shape}
        assert parse_sweep_spec(json.dumps({"axes": [axis]}), two)
        for key in shape:
            missing = {k: v for k, v in axis.items() if k != key}
            with pytest.raises(ConfigError):
                parse_sweep_spec(json.dumps({"axes": [missing]}), two)


def test_path_pattern_names_the_parser_angles():
    names = re.compile(r"\\\.\(([a-z|]+)\)\$$")
    pattern = AXIS["properties"]["path"]["pattern"]
    assert names.search(pattern).group(1).split("|") == list(ANGLES)
    assert names.search(config._PATH_RE.pattern).group(1).split("|") == list(ANGLES)
    for path in ("particles[0].theta", "particles[12].gamma", "particles[0].spin", "particles[-1].phi", "particles[0].omega "):
        assert bool(re.search(pattern, path)) == bool(config._PATH_RE.match(path)), path


def test_sweep_description_states_the_grid_cap():
    exponent = re.search(r"at most 10\^(\d+) points", SWEEP["description"]).group(1)
    assert 10 ** int(exponent) == MAX_GRID_POINTS
