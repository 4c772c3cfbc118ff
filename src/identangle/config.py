"""JSON configuration for ensembles and parameter sweeps.

Ensemble configs list one particle per entry with a spin and detector
angles.  On load the particles are reordered spin-up first (the ordering
the detection machinery expects) and the applied permutation is kept so
callers can report results against the original ordering.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from .detection import ParticleEnsemble
from .errors import ConfigError
from .states import SpatialMode, Spin, Statistics

MAX_GRID_POINTS = 10 ** 6

_PATH_RE = re.compile(r"^particles\[(\d+)\]\.(theta|omega|phi|gamma)$")


@dataclass(frozen=True)
class ParticleConfig:
    spin: Spin
    theta: float
    omega: float = 0.0
    phi: float = math.pi / 2
    gamma: float = 0.0


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

    def ensemble(self) -> ParticleEnsemble:
        modes = tuple(
            SpatialMode(theta=p.theta, omega=p.omega, phi=p.phi, gamma=p.gamma)
            for p in self.particles
        )
        return ParticleEnsemble(self.n_up, modes)

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
    m = _PATH_RE.match(path)
    if not m:
        raise ConfigError(
            f"bad parameter path {path!r}; expected particles[i].theta|omega|phi|gamma"
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
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return float(value)


def _angle(entry: dict, key: str, default: float, scale: float, where: str) -> float:
    if key not in entry:
        return default
    return _number(entry[key], f"{where}: field {key!r}") * scale


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
    try:
        data = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
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
        _reject_unknown(entry, ("spin", "theta", "omega", "phi", "gamma"), f"{where}: ")
        spin_name = entry.get("spin")
        if spin_name not in ("up", "down"):
            raise ConfigError(f"{where}: field 'spin' must be 'up' or 'down'")
        if "theta" not in entry:
            raise ConfigError(f"{where}: field 'theta' is required")
        theta = _angle(entry, "theta", 0.0, scale, where)
        omega = _angle(entry, "omega", 0.0, scale, where)
        phi = _angle(entry, "phi", math.pi / 2, scale, where)
        gamma = _angle(entry, "gamma", 0.0, scale, where)
        if not 0.0 <= theta <= math.pi / 2:
            raise ConfigError(f"{where}: theta must lie in [0, pi/2], got {theta}")
        if not 0.0 <= phi <= math.pi / 2:
            raise ConfigError(f"{where}: phi must lie in [0, pi/2], got {phi}")
        particles.append(
            ParticleConfig(Spin(spin_name), theta, omega, phi, gamma)
        )

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
            {
                "spin": p.spin.value,
                "theta": p.theta,
                "omega": p.omega,
                "phi": p.phi,
                "gamma": p.gamma,
            }
            for p in config.particles
        ],
    }
    return json.dumps(payload, indent=2)


@dataclass(frozen=True)
class SweepAxis:
    path: str
    values: Tuple[float, ...]


@dataclass(frozen=True)
class SweepSpec:
    axes: Tuple[SweepAxis, ...]

    @property
    def size(self) -> int:
        size = 1
        for axis in self.axes:
            size *= len(axis.values)
        return size


def parse_sweep_spec(text: str, config: EnsembleConfig) -> SweepSpec:
    """Parse a sweep spec from JSON text.

    Schema: {"axes": [{"path": "particles[0].theta", "start": a, "stop": b,
    "steps": k} | {"path": ..., "values": [...]}]}.  ``particles[i]`` counts
    the config's particles in file order.  Multiple axes form the cross
    product, capped at 10^6 points; no two axes may sweep the same angle,
    and no object may give a field twice.
    """
    try:
        data = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid sweep JSON: {exc.msg}") from None
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
        attr = parameter[1]
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
        if attr in ("theta", "phi"):
            outside = [v for v in points if not 0.0 <= v <= math.pi / 2]
            if outside:
                raise ConfigError(
                    f"{where}: {path} must lie in [0, pi/2], got {outside[0]!r}"
                )
        axes.append(SweepAxis(path, points))
    spec = SweepSpec(tuple(axes))
    if spec.size > MAX_GRID_POINTS:
        raise ConfigError(
            f"sweep grid holds {spec.size} points, above the cap of {MAX_GRID_POINTS}"
        )
    return spec
