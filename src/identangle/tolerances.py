"""Central tolerance configuration.

All numerical thresholds used by the package live in one frozen record so
that comparisons, normalization checks and sparse pruning stay consistent
across modules.  No function takes a ``Tolerances``: the library reads
the fixed ``DEFAULT_TOLERANCES`` directly, and :func:`comparison_from_env`
is read in two places only, by ``verify._report`` for the threshold it
counts failures against and by the command line, which rejects an invalid
``IDENTANGLE_TOL`` before any work starts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import ConfigError

#: Environment variable that overrides the default comparison tolerance.
TOLERANCE_ENV_VAR = "IDENTANGLE_TOL"


@dataclass(frozen=True)
class Tolerances:
    #: numerical comparisons: oracle agreement, which ``verify`` counts
    #: failures against in every suite, and partial-trace completeness
    comparison: float = 1e-10
    #: run-time invariants of states: unit norm of states flagged as
    #: normalized, valid density matrices, sum p_q + leak = 1
    normalization: float = 1e-12
    #: sparse amplitudes below this are dropped
    pruning: float = 1e-14
    #: eigenvalues below this are skipped in the entropy sum
    entropy_cutoff: float = 1e-14
    #: Schmidt coefficients below this are dropped
    schmidt_cutoff: float = 1e-12
    #: allowed trace deviation for density matrices fed to entropy
    trace_check: float = 1e-8


DEFAULT_TOLERANCES = Tolerances()


def comparison_from_env() -> float:
    """Return the comparison threshold ``verify`` counts failures against:
    ``IDENTANGLE_TOL`` when set, else the default.  It sets nothing else:
    the library reads ``DEFAULT_TOLERANCES``.

    Raises ConfigError when the variable holds anything but a positive,
    finite float.
    """
    raw = os.environ.get(TOLERANCE_ENV_VAR)
    if raw is None:
        return DEFAULT_TOLERANCES.comparison
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"{TOLERANCE_ENV_VAR} must be a float, got {raw!r}"
        ) from None
    if not math.isfinite(value) or value <= 0.0:
        raise ConfigError(
            f"{TOLERANCE_ENV_VAR} must be a positive finite float, got {raw!r}"
        )
    return value
