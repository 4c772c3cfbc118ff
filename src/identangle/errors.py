"""Exception types shared across the package."""


class IdentangleError(ValueError):
    """Base class for all package errors."""


class DimensionError(IdentangleError):
    """Matrix or operator has the wrong shape for the requested operation."""


class SizeLimitError(IdentangleError):
    """Input exceeds a hard size guard (factorial or exponential cost)."""


class ConsistencyError(IdentangleError):
    """Inputs are mutually inconsistent (lengths, counts, multiplicities)."""


class RowError(ConsistencyError):
    """A consistency check failed on one row of a batched evaluation.

    ``row`` is the index of the first failing row within the batch; the
    message itself does not name it.
    """

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


class BoundsError(IdentangleError):
    """A detection outcome count is outside its allowed range."""


class NullStateError(IdentangleError):
    """The requested state vanishes identically (Pauli exclusion)."""


class NormalizationError(IdentangleError):
    """A state or density matrix fails its required normalization."""


class CompletenessError(IdentangleError):
    """A subsystem basis does not resolve the identity on the given support."""


class BipartitionError(IdentangleError):
    """The state cannot be factored across the requested bipartition."""


class SectorError(IdentangleError):
    """A particle-number sector is empty or undefined."""


class ConfigError(IdentangleError):
    """A configuration file or sweep specification is invalid."""
