"""Config parsing: each rejection keeps its message, each valid config its
values, and the parsed config round-trips.

``parse_ensemble_config`` checks each particle once, in the order of the
per-check loop below, and builds a message only for the check that
fails.
"""

import itertools
import json
import math

import numpy as np
import pytest

from identangle import config as config_module
from identangle.config import (
    ANGLES,
    ParticleConfig,
    dump_ensemble_config,
    parse_ensemble_config,
    parse_sweep_spec,
)
from identangle.errors import ConfigError
from identangle.states import Spin, Statistics


def reference_parse(text):
    """The per-check parse loop: (particles as tuples, statistics, source
    order, degrees), or the ConfigError message of the first failing
    check.  The decoder marks each object with its first repeated field."""

    def record(pairs):
        names = [name for name, _ in pairs]
        return dict(pairs), next((n for i, n in enumerate(names) if n in names[:i]), None)

    def unwrap(value):
        if isinstance(value, tuple):
            return unwrap(value[0])
        if isinstance(value, list):
            return [unwrap(v) for v in value]
        if isinstance(value, dict):
            return {k: unwrap(v) for k, v in value.items()}
        return value

    def number(value, where):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            raise ConfigError(f"{where} must be finite, got an integer of {len(str(abs(value)))} digits") from None
        if not math.isfinite(number):
            raise ConfigError(f"{where} must be finite, got {value!r}")
        return number

    def check(data):
        repeated = None
        if isinstance(data, tuple):
            data, repeated = data
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        if repeated:
            raise ConfigError(f"duplicate field {repeated!r}")
        for key in data:
            if key not in ("particles", "statistics", "degrees"):
                raise ConfigError(f"unknown field {key!r}")
        raw = data.get("particles")
        if not isinstance(raw, list) or not raw:
            raise ConfigError("config must hold a non-empty 'particles' list")
        degrees = unwrap(data.get("degrees", False))
        if not isinstance(degrees, bool):
            raise ConfigError(f"field 'degrees' must be true or false, got {degrees!r}")
        scale = math.pi / 180.0 if degrees else 1.0
        bound, bound_text = (90.0, "90") if degrees else (math.pi / 2, "pi/2")
        stat = unwrap(data.get("statistics", "boson"))
        if stat not in ("boson", "fermion"):
            raise ConfigError(f"statistics must be 'boson' or 'fermion', got {stat!r}")
        particles = []
        for i, entry in enumerate(raw):
            where = f"particles[{i}]"
            repeated = None
            if isinstance(entry, tuple):
                entry, repeated = entry
            if not isinstance(entry, dict):
                raise ConfigError(f"{where}: each particle must be an object")
            if repeated:
                raise ConfigError(f"{where}: duplicate field {repeated!r}")
            for key in entry:
                if key not in ("spin", *ANGLES):
                    raise ConfigError(f"{where}: unknown field {key!r}")
            entry = {k: unwrap(v) for k, v in entry.items()}
            if entry.get("spin") not in ("up", "down"):
                raise ConfigError(f"{where}: field 'spin' must be 'up' or 'down'")
            angles, given = [], {}
            for name, (default, _) in ANGLES.items():
                if name in entry:
                    given[name] = number(entry[name], f"{where}: field {name!r}")
                    angles.append(given[name] * scale)
                elif default is None:
                    raise ConfigError(f"{where}: field {name!r} is required")
                else:
                    angles.append(default)
            # each given bounded angle in the file's unit
            for label in ("theta", "phi"):
                if label in given and not 0.0 <= given[label] <= bound:
                    raise ConfigError(f"{where}: {label} must lie in [0, {bound_text}], got {given[label]!r}")
            particles.append((Spin(entry["spin"]), *angles))
        order = sorted(range(len(particles)), key=lambda i: particles[i][0].index)
        return tuple(particles[i] for i in order), Statistics(stat), tuple(order), degrees

    return check(json.loads(text, object_pairs_hook=record))


#: (config text, the message it is rejected with)
REJECTIONS = [
    ('{"particles": [3]}',
     'particles[0]: each particle must be an object'),
    ('{"particles": [{"spin": "up", "theta": 0.3}, "up"]}',
     'particles[1]: each particle must be an object'),
    ('{"particles": [{"spin": "up", "theta": 0.3}], "particles": [{"spin": "up", "theta": 0.3}]}',
     "duplicate field 'particles'"),
    ('{"particles": [{"spin": "up", "theta": 0.3, "theta": 0.4}]}',
     "particles[0]: duplicate field 'theta'"),
    ('{"particles": [{"spin": "up", "theta": 0.3, "omega": 1, "omega": 2, "spin": "down"}]}',
     "particles[0]: duplicate field 'omega'"),
    ('{"particles": [{"spin": "up", "theta": 0.3, "color": 1}]}',
     "particles[0]: unknown field 'color'"),
    ('{"particles": [{"spin": "up", "theta": 0.3}], "units": "rad"}',
     "unknown field 'units'"),
    ('{"particles": [{"spin": "left", "theta": 0.3}]}',
     "particles[0]: field 'spin' must be 'up' or 'down'"),
    ('{"particles": [{"spin": "Up", "theta": 0.3}]}',
     "particles[0]: field 'spin' must be 'up' or 'down'"),
    ('{"particles": [{"spin": ["up"], "theta": 0.3}]}',
     "particles[0]: field 'spin' must be 'up' or 'down'"),
    ('{"particles": [{"theta": 0.3}]}',
     "particles[0]: field 'spin' must be 'up' or 'down'"),
    ('{"particles": [{"spin": null, "theta": 0.3}]}',
     "particles[0]: field 'spin' must be 'up' or 'down'"),
    ('{"particles": [{"spin": "up"}]}',
     "particles[0]: field 'theta' is required"),
    ('{"particles": [{"spin": "down", "omega": 0.2}]}',
     "particles[0]: field 'theta' is required"),
    ('{"particles": [{"spin": "up", "theta": null}]}',
     "particles[0]: field 'theta' must be a number, got None"),
    ('{"particles": [{"spin": "up", "theta": 0.3, "omega": null}]}',
     "particles[0]: field 'omega' must be a number, got None"),
    ('{"particles": [{"spin": "up", "theta": true}]}',
     "particles[0]: field 'theta' must be a number, got True"),
    ('{"particles": [{"spin": "up", "theta": 0.3, "phi": false}]}',
     "particles[0]: field 'phi' must be a number, got False"),
    ('{"particles": [{"spin": "up", "theta": "0.3"}]}',
     "particles[0]: field 'theta' must be a number, got '0.3'"),
    ('{"particles": [{"spin": "up", "theta": 0.3, "gamma": [1]}]}',
     "particles[0]: field 'gamma' must be a number, got [1]"),
    ('{"particles": [{"spin": "up", "theta": NaN}]}',
     "particles[0]: field 'theta' must be finite, got nan"),
    ('{"particles": [{"spin": "up", "theta": 0.3, "omega": Infinity}]}',
     "particles[0]: field 'omega' must be finite, got inf"),
    ('{"particles": [{"spin": "up", "theta": 0.3, "gamma": -Infinity}]}',
     "particles[0]: field 'gamma' must be finite, got -inf"),
    ('{"particles": [{"spin": "up", "theta": 0.3, "omega": 1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000}]}',
     "particles[0]: field 'omega' must be finite, got an integer of 310 digits"),
    ('{"particles": [{"spin": "up", "theta": -0.1}]}',
     'particles[0]: theta must lie in [0, pi/2], got -0.1'),
    ('{"particles": [{"spin": "up", "theta": 0.3, "phi": 1.6}]}',
     'particles[0]: phi must lie in [0, pi/2], got 1.6'),
    ('{"particles": [{"spin": "up", "theta": 2}]}',
     'particles[0]: theta must lie in [0, pi/2], got 2.0'),
    ('{"particles": [{"spin": "up", "theta": 95}], "degrees": true}',
     'particles[0]: theta must lie in [0, 90], got 95.0'),
    ('{"particles": [{"spin": "up", "theta": 30, "phi": -1}], "degrees": true}',
     'particles[0]: phi must lie in [0, 90], got -1.0'),
    ('{"particles": [{"spin": "up", "theta": 30, "phi": 90.5}], "degrees": true}',
     'particles[0]: phi must lie in [0, 90], got 90.5'),
    ('{"particles": [{"spin": "up", "theta": 3.0, "gamma": "x"}]}',
     "particles[0]: field 'gamma' must be a number, got 'x'"),
    ('{"particles": [{"spin": "up", "theta": 0.3}], "degrees": "true"}',
     "field 'degrees' must be true or false, got 'true'"),
    ('{"particles": [{"spin": "up", "theta": 0.3}], "degrees": 1}',
     "field 'degrees' must be true or false, got 1"),
    ('{"particles": [{"spin": "up", "theta": 0.3}], "degrees": null}',
     "field 'degrees' must be true or false, got None"),
    ('{"particles": [{"spin": "up", "theta": 0.3}], "statistics": "anyon"}',
     "statistics must be 'boson' or 'fermion', got 'anyon'"),
    ('{"particles": [{"spin": "up", "theta": 0.3}], "statistics": null}',
     "statistics must be 'boson' or 'fermion', got None"),
    ('{"particles": []}',
     "config must hold a non-empty 'particles' list"),
    ('{"particles": {}}',
     "config must hold a non-empty 'particles' list"),
    ('{"statistics": "boson"}',
     "config must hold a non-empty 'particles' list"),
    ('[1, 2]',
     'config root must be a JSON object'),
    ('{"particles": [{"spin": "up", "theta": 0.3}, {"spin": "up", "theta": 0.3, "theta": 0.1, "color": 2}]}',
     "particles[1]: duplicate field 'theta'"),
    ('{"particles": [{"spin": "up", "theta": 0.3}, {"spin": "sideways", "color": 2}]}',
     "particles[1]: unknown field 'color'"),
    ('{"particles": [{"spin": "up", "theta": 0.3}, {"spin": "sideways", "theta": "no"}]}',
     "particles[1]: field 'spin' must be 'up' or 'down'"),
    ('{"particles": [{"spin": "up", "theta": 0.3}, {"spin": "up", "theta": "no", "phi": 9}]}',
     "particles[1]: field 'theta' must be a number, got 'no'"),
    ('{"particles": [{"spin": "up", "theta": 0.3}, {"spin": "up", "theta": 9, "gamma": null}]}',
     "particles[1]: field 'gamma' must be a number, got None"),
]


@pytest.mark.parametrize("text, message", REJECTIONS)
def test_each_rejection_keeps_its_message(text, message):
    with pytest.raises(ConfigError) as info:
        parse_ensemble_config(text)
    assert str(info.value) == message
    with pytest.raises(ConfigError) as info:
        reference_parse(text)
    assert str(info.value) == message


def test_rejection_table_covers_every_check():
    messages = [message for _, message in REJECTIONS]
    for fragment in (
        "each particle must be an object",
        "duplicate field 'particles'",
        "particles[0]: duplicate field",
        "particles[0]: unknown field",
        "field 'spin' must be",
        "field 'theta' is required",
        "must be a number, got None",
        "must be a number, got True",
        "must be a number, got '0.3'",
        "got nan",
        "got inf",
        "an integer of 310 digits",
        "theta must lie in",
        "phi must lie in",
        "field 'degrees' must be",
        "statistics must be",
        "non-empty 'particles' list",
    ):
        assert any(fragment in message for message in messages), fragment
    # out of range in radians and in degrees
    assert any("\"degrees\": true" in text and "must lie in" in message for text, message in REJECTIONS)
    assert any("degrees" not in text and "must lie in" in message for text, message in REJECTIONS)


def random_valid_config(rng):
    degrees = bool(rng.integers(2))
    bound = 90 if degrees else math.pi / 2
    particles = []
    for _ in range(int(rng.integers(1, 12))):
        particle = {"spin": str(rng.choice(["up", "down"]))}
        for name, (default, bounded) in ANGLES.items():
            if default is not None and rng.random() < 0.3:
                continue  # an omitted optional angle
            if bounded:
                value = float(rng.choice([0.0, bound, rng.uniform(0.0, bound)]))
            else:
                value = float(rng.uniform(-400.0, 400.0))
            if rng.random() < 0.3:
                value = math.floor(value)  # an int angle
            particle[name] = value
        particles.append(particle)
    payload = {"particles": particles}
    if degrees or rng.random() < 0.5:
        payload["degrees"] = degrees
    if rng.random() < 0.5:
        payload["statistics"] = str(rng.choice(["boson", "fermion"]))
    return json.dumps(payload)


def test_seeded_valid_configs_parse_as_the_per_check_loop():
    rng = np.random.default_rng(528)
    seen = set()
    for _ in range(600):
        text = random_valid_config(rng)
        config = parse_ensemble_config(text)
        particles, statistics, order, degrees = reference_parse(text)
        assert all(type(p) is ParticleConfig for p in config.particles)
        assert [tuple(p) for p in config.particles] == list(particles)
        assert all(type(v) is float for p in config.particles for v in p[1:])
        assert (config.statistics, config.source_order, config.degrees) == (statistics, order, degrees)
        payload = json.loads(text)
        seen.add((degrees, any(type(v) is int for p in payload["particles"] for v in p.values())))
        seen.add(len(payload["particles"][0]))
    assert {(False, True), (True, True), (False, False), (True, False)} <= seen
    assert {2, 3, 4, 5} <= seen  # omitted optional angles


def test_with_value_locate_and_dump_round_trip():
    rng = np.random.default_rng(529)
    for _ in range(100):
        config = parse_ensemble_config(random_valid_config(rng))
        # dump writes radians in stored order; parsing it back gives the same
        # particles, sorted already
        again = parse_ensemble_config(dump_ensemble_config(config))
        assert again.particles == config.particles
        assert again.source_order == tuple(range(config.n_total))
        for index, name in itertools.product(range(config.n_total), ANGLES):
            path = f"particles[{index}].{name}"
            stored, attr = config.locate(path)
            assert attr == name and config.source_order[stored] == index
            moved = config.with_value(path, 0.25)
            assert getattr(moved.particles[stored], name) == 0.25
            assert moved.particles[:stored] == config.particles[:stored]
            assert moved.particles[stored + 1:] == config.particles[stored + 1:]
            assert moved.particles[stored]._replace(**{name: getattr(config.particles[stored], name)}) == config.particles[stored]
            assert (moved.statistics, moved.source_order, moved.degrees) == (
                config.statistics, config.source_order, config.degrees
            )


class CountingDecoder(json.JSONDecoder):
    """The repeat-marking decoder, counting its decodes."""

    calls = 0

    def decode(self, s, *args, **kwargs):
        CountingDecoder.calls += 1
        return super().decode(s, *args, **kwargs)


_CONFIG = '{"particles": [{"spin": "up", "theta": 0.3}, {"spin": "down", "theta": 0.5}]}'

#: (parser, text, its ConfigError message or None, whether the colons
#: outnumber the members of the root and its particles or axes)
DECODE_CASES = [
    ("config", _CONFIG, None, False),
    ("config", '{"particles": [{"spin": "up", "theta": 0.3}], "statistics": "boson", "degrees": false}', None, False),
    ("config", '{"particles": [{"spin": "up", "theta": 0.3}], "particles": [{"spin": "up", "theta": 0.4}]}',
     "duplicate field 'particles'", True),
    ("config", '{"particles": [{"spin": "up", "theta": 0.3, "theta": 0.4}]}',
     "particles[0]: duplicate field 'theta'", True),
    ("config", '{"particles": [{"spin": "up:", "theta": 0.3}]}',
     "particles[0]: field 'spin' must be 'up' or 'down'", True),
    ("config", '{"particles": [{"spin": "up", "theta": 0.3}], "statistics": "bo:son"}',
     "statistics must be 'boson' or 'fermion', got 'bo:son'", True),
    ("config", '{"particles": [{"spin": "up", "theta": {"a": 1}}]}',
     "particles[0]: field 'theta' must be a number, got {'a': 1}", True),
    ("config", '{"particles": [{"spin": "up", "theta": {"a": 1, "a": 2}}]}',
     "particles[0]: field 'theta' must be a number, got {'a': 2}", True),
    ("config", '{"particles": [{"spin": "up", "theta": {}}]}',
     "particles[0]: field 'theta' must be a number, got {}", False),
    ("config", '{"particles": {"spin": "up"}}', "config must hold a non-empty 'particles' list", True),
    ("config", '[{"particles": 1}]', "config root must be a JSON object", True),
    ("sweep", '{"axes": [{"path": "particles[0].theta", "values": [0.1, 0.2]}]}', None, False),
    ("sweep", '{"axes": [{"path": "particles[0].theta", "values": [0.1]}], "axes": []}',
     "duplicate field 'axes'", True),
    ("sweep", '{"axes": [{"path": "particles[0].theta", "values": [0.1], "values": [0.2]}]}',
     "axes[0]: duplicate field 'values'", True),
    ("sweep", '{"axes": [{"path": "particles[0].theta:", "values": [0.1]}]}',
     "bad parameter path 'particles[0].theta:'; expected particles[i].theta|omega|phi|gamma", True),
    ("sweep", '{"axes": [{"path": "particles[0].theta", "values": [{"v": 0.1}]}]}',
     "axes[0]: values[0] must be a number, got {'v': 0.1}", True),
]


def _parse(parser, text):
    if parser == "config":
        return parse_ensemble_config(text)
    axes = parse_sweep_spec(text, parse_ensemble_config(_CONFIG))
    return [(axis.path, axis.particle, axis.row, axis.values.tolist()) for axis in axes]


@pytest.mark.parametrize("parser, text, message, twice", DECODE_CASES)
def test_plain_decode_is_kept_only_where_no_field_can_repeat(monkeypatch, parser, text, message, twice):
    monkeypatch.setattr(config_module, "_DECODER", CountingDecoder(object_pairs_hook=config_module._fields))
    results = []
    # as decoded, then as the repeat-marking decoder alone decodes it
    for plain in (config_module._PLAIN, config_module._DECODER):
        monkeypatch.setattr(config_module, "_PLAIN", plain)
        CountingDecoder.calls = 0
        try:
            results.append(_parse(parser, text))
        except ConfigError as exc:
            results.append(str(exc))
        if plain is not config_module._DECODER:
            assert CountingDecoder.calls == int(twice), text
    assert results[0] == results[1]
    if message is None:
        assert not isinstance(results[0], str)
    else:
        assert results[0] == message
