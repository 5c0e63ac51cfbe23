"""Dynamics of generalized shifts: configurations indexed by a countable set,
pushed forward by composing the indexing self-map into every coordinate.

The package classifies the self-map's orbit structure, predicts which chaos
flavors the induced shift exhibits, builds the block configurations whose
finite statistics witness those predictions, and replays the supporting
combinatorial estimates numerically.

A layer loads on the first read of one of its names here, so classifying a
map loads neither `constructions` nor `stats`; `import gshift.cli` loads
every layer.
"""

from importlib import import_module

# layer -> the names the package root re-exports from it
_EXPORTS = {
    "indexspace": (
        "BudgetExceededError", "DomainMismatchError", "INTEGERS", "Index", "IndexDomain",
        "RankRangeError", "SelfMap", "compose_maps", "contains", "disjoint_union",
        "disjoint_union_maps", "domain_size", "enumerate_index", "evaluate", "finite_range",
        "format_index", "iterate", "map_spec", "parity_down", "parity_up", "parse_map_spec",
        "predecessor", "preimage", "rank_of", "region_indices", "square", "square_plus_one",
        "successor", "table_map",
    ),
    "orbits": (
        "ChainDecomposition", "MapProfile", "PointClassification", "UnresolvedOrbitError",
        "Verdict", "chain_decomposition", "classify_point", "map_profile", "orbit_position",
        "proven_false", "proven_true", "unknown", "v_and", "v_not", "v_or",
    ),
    "configspace": (
        "Alphabet", "Configuration", "Constant", "CylinderPattern", "Embedded", "FinitePatch",
        "MetricResolutionError", "OrbitBlocks", "Shifted", "default_alphabet", "in_cylinder",
        "make_window", "metric_less_than", "pattern_json", "shifted", "window_from_ranks",
    ),
    "constructions": (
        "AlmostDisjointFamily", "BlockLengths", "LengthLexWord", "PatternEnumeration",
        "PreconditionError", "PrimePowerSet", "ScrambledFamilySpec", "almost_disjoint_family",
        "block_lengths", "dc_family", "densify_family", "full_shift_transitive_point",
        "pattern_enumeration", "shift_inner", "transitive_weave_family",
        "verify_length_inequalities", "weave_entry_exponent",
    ),
    "stats": (
        "BlockBound", "DensityProfile", "DensityRow", "PairVerdict", "Schedule",
        "block_boundary_schedule", "dc_pair_report", "density_profile", "orbit_window",
        "proof_bound_check_dc",
    ),
    "theorems": (
        "ChaosPrediction", "SuiteEntry", "check_composition_law", "check_product_law",
        "counterexample_suite", "predict",
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
