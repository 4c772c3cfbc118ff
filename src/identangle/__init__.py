"""Identical-particle entanglement toolkit.

Symmetrized states of identical bosons and fermions, permanent-based
transition amplitudes, detector projection with particle-number
superselection, symmetrized partial traces, and entanglement measures,
with brute-force expansion oracles for validation at small particle
numbers.

Importing the package loads none of its modules, nor numpy: each public
name resolves on first use (PEP 562), by importing the module that
defines it, so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: module -> the public names the package takes from it
_EXPORTS = {
    "algebra": (
        "DensityMatrix",
        "contract_single",
        "convex_mixture",
        "overlap_matrix",
        "pure_to_density",
        "symmetrized_partial_trace",
        "transition_amplitude",
    ),
    "detection": (
        "Sector",
        "SectorDecomposition",
        "build_detection_matrix",
        "detection_key",
        "entanglement_of_particles",
        "project_onto_detectors",
        "sector_entanglement",
        "sector_reduced_density",
    ),
    "errors": (
        "BipartitionError",
        "BoundsError",
        "CompletenessError",
        "ConfigError",
        "ConsistencyError",
        "DimensionError",
        "IdentangleError",
        "NormalizationError",
        "NullStateError",
        "SectorError",
        "SizeLimitError",
    ),
    "measures": (
        "LabelSplit",
        "ModeSplit",
        "SchmidtEquivalenceReport",
        "SchmidtResult",
        "concurrence_pure",
        "dicke_state",
        "schmidt_coefficients",
        "schmidt_decompose",
        "three_boson_average_concurrence",
        "three_boson_average_concurrence_coherences",
        "three_boson_projected_norm_sq",
        "two_boson_average_concurrence",
        "verify_schmidt_equivalence",
        "von_neumann_entropy",
    ),
    "permanent": ("determinant", "permanent_naive", "permanent_ryser"),
    "states": (
        "OccupationKey",
        "ParticleEnsemble",
        "SingleParticleKet",
        "SpatialMode",
        "Spin",
        "Statistics",
        "SymmetricKet",
        "expand_first_quantized",
        "make_product_state",
        "mode_ket",
        "normalization_subsystem",
        "normalization_total",
        "occupation_key",
        "symmetrize_product",
    ),
    "tolerances": ("DEFAULT_TOLERANCES", "TOLERANCE_ENV_VAR", "Tolerances", "comparison_from_env"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # an AttributeError here lets ``from identangle import fold`` import
    # the submodule instead
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
