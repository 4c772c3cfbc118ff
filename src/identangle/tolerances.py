"""Central tolerance configuration.

All numerical thresholds used by the package live in one frozen record so
that comparisons, normalization checks and sparse pruning stay consistent
across modules.  The library reads the fixed ``DEFAULT_TOLERANCES``
directly; only the ``verify`` suites take a ``Tolerances``, built by
:func:`tolerances_from_env`, for the thresholds they count failures
against.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from .errors import ConfigError

#: Environment variable that overrides the default comparison tolerance.
TOLERANCE_ENV_VAR = "IDENTANGLE_TOL"


@dataclass(frozen=True)
class Tolerances:
    #: numerical comparisons: oracle agreement, which ``verify`` counts
    #: failures against, and partial-trace completeness
    comparison: float = 1e-10
    #: run-time invariants of states: unit norm of states flagged as
    #: normalized, valid density matrices, sum p_q + leak = 1
    normalization: float = 1e-12
    #: sparse amplitudes below this are dropped
    pruning: float = 1e-14
    #: entanglement below this counts as separable
    separability: float = 1e-10
    #: coherences below this count as zero in the separability criterion
    coherence_zero: float = 1e-12
    #: eigenvalues below this are skipped in the entropy sum
    entropy_cutoff: float = 1e-14
    #: Schmidt coefficients below this are dropped
    schmidt_cutoff: float = 1e-12
    #: allowed trace deviation for density matrices fed to entropy
    trace_check: float = 1e-8


DEFAULT_TOLERANCES = Tolerances()


def tolerances_from_env() -> Tolerances:
    """Return the default tolerances, with the comparison (and separability)
    threshold overridden by ``IDENTANGLE_TOL`` when set.  These set the
    thresholds ``verify`` counts failures against and nothing else: the
    library reads ``DEFAULT_TOLERANCES``.

    Raises ConfigError when the variable holds anything but a positive,
    finite float.
    """
    raw = os.environ.get(TOLERANCE_ENV_VAR)
    if raw is None:
        return DEFAULT_TOLERANCES
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
    return replace(DEFAULT_TOLERANCES, comparison=value, separability=value)
