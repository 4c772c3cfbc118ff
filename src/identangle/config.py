"""JSON configuration for ensembles and parameter sweeps.

Ensemble configs list one particle per entry with a spin and detector
angles.  On load the particles are reordered spin-up first (the ordering
the detection machinery expects) and the applied permutation is kept so
callers can report results against the original ordering.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from dataclasses import dataclass, make_dataclass, replace
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .errors import ConfigError
from .states import Spin, Statistics

MAX_GRID_POINTS = 10 ** 6

#: a particle's angles in the row order of :meth:`EnsembleConfig.angles`:
#: name -> (default, None where the angle is required; whether it must lie
#: in [0, pi/2])
ANGLES = {
    "theta": (None, True),
    "omega": (0.0, False),
    "phi": (math.pi / 2, True),
    "gamma": (0.0, False),
}

# fullmatch and [0-9], as the schema's ECMA-262 pattern reads: re.match
# lets "$" pass a trailing newline, and \d any Unicode digit
_PATH_RE = re.compile(rf"^particles\[([0-9]+)\]\.({'|'.join(ANGLES)})$")

_PARTICLE_FIELDS = ("spin", *ANGLES)
_BOUNDED = tuple(name for name, (_, bounded) in ANGLES.items() if bounded)

#: one parsed particle: its spin and one float field per angle
ParticleConfig = make_dataclass(
    "ParticleConfig", [("spin", Spin)] + [(name, float) for name in ANGLES], frozen=True
)

_angles_of = operator.attrgetter(*ANGLES)
_bounded_of = operator.attrgetter(*_BOUNDED)


def _check_range(where: str, labels, values):
    """Reject values of bounded angles outside [0, pi/2], naming the first
    with its label."""
    for label, value in zip(labels, values):
        if not 0.0 <= value <= math.pi / 2:
            raise ConfigError(f"{where}: {label} must lie in [0, pi/2], got {value!r}")


@dataclass(frozen=True)
class EnsembleConfig:
    """Parsed ensemble: particles sorted spin-up first.

    ``source_order`` maps the stored position to the index the particle had
    in the input file, so outputs can reference the original ordering.
    """

    particles: Tuple[ParticleConfig, ...]
    statistics: Statistics = Statistics.BOSON
    source_order: Tuple[int, ...] = ()

    @property
    def n_up(self) -> int:
        return sum(1 for p in self.particles if p.spin is Spin.UP)

    @property
    def n_total(self) -> int:
        return len(self.particles)

    def angles(self) -> np.ndarray:
        """The stored particles' angles as a (4, N) array, one row per
        angle in the order of ``ANGLES`` (theta, omega, phi, gamma)."""
        return np.array([_angles_of(p) for p in self.particles]).T

    def locate(self, path: str) -> Tuple[int, str]:
        """Stored position and angle of a parameter path, whose
        ``particles[i]`` counts the particles in file order."""
        index, attr = parse_parameter_path(path, self.n_total)
        return (self.source_order or range(self.n_total)).index(index), attr

    def with_value(self, path: str, value: float) -> "EnsembleConfig":
        """Copy of the config with the angle at ``path`` (file order, see
        :meth:`locate`) set to ``value``."""
        index, attr = self.locate(path)
        particles = list(self.particles)
        particles[index] = replace(particles[index], **{attr: value})
        return replace(self, particles=tuple(particles))


def parse_parameter_path(path: str, n_particles: int) -> Tuple[int, str]:
    m = _PATH_RE.fullmatch(path)
    if not m:
        raise ConfigError(
            f"bad parameter path {path!r}; expected particles[i].{'|'.join(ANGLES)}"
        )
    index = int(m.group(1))
    if index >= n_particles:
        raise ConfigError(
            f"parameter path {path!r} indexes particle {index}, "
            f"but the config holds {n_particles}"
        )
    return index, m.group(2)


def _number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range, too long to echo
        raise ConfigError(f"{where} must be finite, got an integer of {len(str(abs(value)))} digits") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


class _RepeatedFields(dict):
    """A decoded JSON object whose text repeated the field ``repeated``."""

    repeated = ""


def _fields(pairs: List[Tuple[str, object]]) -> dict:
    """``object_pairs_hook`` that marks an object repeating a field, which
    plain ``json.loads`` would resolve silently to the last value."""
    fields = dict(pairs)
    if len(fields) < len(pairs):
        names = [name for name, _ in pairs]
        fields = _RepeatedFields(fields)
        fields.repeated = next(n for i, n in enumerate(names) if n in names[:i])
    return fields


#: one decoder for every parse, since building one costs more than a small config
_DECODER = json.JSONDecoder(object_pairs_hook=_fields)


def _decode(text: str, label: str, syntax: str):
    """``_DECODER.decode(text)``, each failure a ConfigError: ``syntax``
    formatted with the JSONDecodeError, or ``invalid <label>`` and the
    reason for deep nesting and over-long integer literals, which escape
    the decoder as RecursionError and ValueError."""
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        message = syntax.format(exc)
    except RecursionError:
        message = f"invalid {label}: nested too deeply"
    except ValueError:
        message = f"invalid {label}: an integer literal exceeds the limit on integer digits"
    raise ConfigError(message)


def _reject_repeated(entry: dict, prefix: str):
    if isinstance(entry, _RepeatedFields):
        raise ConfigError(f"{prefix}duplicate field {entry.repeated!r}")


def _reject_unknown(entry: dict, fields: Tuple[str, ...], prefix: str):
    for key in entry:
        if key not in fields:
            raise ConfigError(f"{prefix}unknown field {key!r}")


def parse_ensemble_config(text: str) -> EnsembleConfig:
    """Parse an ensemble config from JSON text.

    Schema: {"particles": [{"spin": "up"|"down", "theta": x, "omega": y,
    "phi": z, "gamma": g}, ...], "statistics": "boson"|"fermion",
    "degrees": bool}.  omega, phi and gamma are optional; angles are
    radians unless "degrees" is true.  Fields outside the schema, a field
    given twice in one object, a non-boolean "degrees" and null values are
    errors.
    """
    data = _decode(text, "JSON", "invalid JSON at line {0.lineno}, column {0.colno}: {0.msg}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_repeated(data, "")
    _reject_unknown(data, ("particles", "statistics", "degrees"), "")
    raw_particles = data.get("particles")
    if not isinstance(raw_particles, list) or not raw_particles:
        raise ConfigError("config must hold a non-empty 'particles' list")
    degrees = data.get("degrees", False)
    if not isinstance(degrees, bool):
        raise ConfigError(f"field 'degrees' must be true or false, got {degrees!r}")
    scale = math.pi / 180.0 if degrees else 1.0
    stat_name = data.get("statistics", "boson")
    try:
        statistics = Statistics(stat_name)
    except ValueError:
        raise ConfigError(
            f"statistics must be 'boson' or 'fermion', got {stat_name!r}"
        ) from None

    particles: List[ParticleConfig] = []
    for i, entry in enumerate(raw_particles):
        where = f"particles[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: each particle must be an object")
        _reject_repeated(entry, f"{where}: ")
        _reject_unknown(entry, _PARTICLE_FIELDS, f"{where}: ")
        spin_name = entry.get("spin")
        if spin_name not in ("up", "down"):
            raise ConfigError(f"{where}: field 'spin' must be 'up' or 'down'")
        angles = []
        for name, (default, _) in ANGLES.items():
            if name in entry:
                angles.append(_number(entry[name], f"{where}: field {name!r}") * scale)
            elif default is None:
                raise ConfigError(f"{where}: field {name!r} is required")
            else:
                angles.append(default)
        particle = ParticleConfig(Spin(spin_name), *angles)
        _check_range(where, _BOUNDED, _bounded_of(particle))
        particles.append(particle)

    # stable sort: ups first, original order retained inside each group
    order = sorted(
        range(len(particles)), key=lambda i: particles[i].spin.index
    )
    return EnsembleConfig(
        particles=tuple(particles[i] for i in order),
        statistics=statistics,
        source_order=tuple(order),
    )


def dump_ensemble_config(config: EnsembleConfig) -> str:
    """Serialize a parsed config back to JSON (radians, stored order)."""
    payload = {
        "statistics": config.statistics.value,
        "particles": [
            {"spin": p.spin.value, **dict(zip(ANGLES, _angles_of(p)))}
            for p in config.particles
        ],
    }
    return json.dumps(payload, indent=2)


class SweepAxis(NamedTuple):
    """One parsed sweep axis: its path, the stored index of the particle it
    sets, the angle's row in :meth:`EnsembleConfig.angles` and its points."""

    path: str
    particle: int
    row: int
    values: np.ndarray


def parse_sweep_spec(text: str, config: EnsembleConfig) -> List[SweepAxis]:
    """Parse a sweep spec from JSON text into its axes, each located in
    ``config`` once.

    Schema: {"axes": [{"path": "particles[0].theta", "start": a, "stop": b,
    "steps": k} | {"path": ..., "values": [...]}]}.  ``particles[i]`` counts
    the config's particles in file order.  Multiple axes form the cross
    product, capped at 10^6 points; no two axes may sweep the same angle,
    and no object may give a field twice.  A theta or phi range must start,
    and stop when it has more than one step, in [0, pi/2]; its points are
    clamped into that interval, and a values list is checked point by point.
    """
    data = _decode(text, "sweep JSON", "invalid sweep JSON: {0.msg}")
    if not isinstance(data, dict):
        raise ConfigError("sweep spec must be an object holding only 'axes'")
    _reject_repeated(data, "")
    if set(data) != {"axes"}:
        raise ConfigError("sweep spec must be an object holding only 'axes'")
    if not isinstance(data["axes"], list) or not data["axes"]:
        raise ConfigError("sweep spec needs a non-empty 'axes' list")
    axes: List[SweepAxis] = []
    # (particle, angle) -> index of the axis that sweeps it
    swept: Dict[Tuple[int, str], int] = {}
    for i, entry in enumerate(data["axes"]):
        where = f"axes[{i}]"
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise ConfigError(f"{where}: each axis needs a string 'path'")
        _reject_repeated(entry, f"{where}: ")
        path = entry["path"]
        parameter = config.locate(path)
        if parameter in swept:
            raise ConfigError(
                f"{where}: {path} sweeps the same angle as axes[{swept[parameter]}]"
            )
        swept[parameter] = i
        particle, attr = parameter
        if "values" in entry:
            expected = {"path", "values"}
        else:
            expected = {"path", "start", "stop", "steps"}
        if set(entry) != expected:
            raise ConfigError(
                f"{where}: an axis holds 'path' and either 'values' or "
                f"'start'/'stop'/'steps', got keys {sorted(entry)}"
            )
        if "values" in entry:
            values = entry["values"]
            if not isinstance(values, list) or not values:
                raise ConfigError(f"{where}: 'values' must be a non-empty list")
            points = tuple(
                _number(v, f"{where}: values[{k}]") for k, v in enumerate(values)
            )
            checked = points
        else:
            steps = entry["steps"]
            if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
                raise ConfigError(f"{where}: 'steps' must be an integer >= 1")
            if steps > MAX_GRID_POINTS:
                raise ConfigError(
                    f"{where}: {steps} steps exceed the grid cap of {MAX_GRID_POINTS}"
                )
            start = _number(entry["start"], f"{where}: 'start'")
            stop = _number(entry["stop"], f"{where}: 'stop'")
            if steps == 1:
                points = (start,)
            else:
                h = (stop - start) / (steps - 1)
                points = tuple(start + k * h for k in range(steps))
                # stop - start can overflow; the points run monotonically from start
                if not math.isfinite(points[-1]):
                    raise ConfigError(f"{where}: the grid from {start!r} to {stop!r} leaves the float range")
            checked = (start, stop)[:steps]
        grid = np.array(points)
        if attr in _BOUNDED:
            _check_range(where, itertools.repeat(path), checked)
            # start + k * h can pass an end on the bound by rounding; the points
            # run monotonically between the checked ends, so only such a point moves
            np.clip(grid, 0.0, math.pi / 2, out=grid)
        axes.append(SweepAxis(path, particle, list(ANGLES).index(attr), grid))
    size = math.prod(len(axis.values) for axis in axes)
    if size > MAX_GRID_POINTS:
        raise ConfigError(
            f"sweep grid holds {size} points, above the cap of {MAX_GRID_POINTS}"
        )
    return axes
