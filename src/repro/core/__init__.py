"""The paper's core contribution: lifetime-based slicing optimization."""

from .lifetime import (
    Lifetime,
    compute_lifetimes,
    lifetime_contains,
    lifetime_is_contiguous_on_path,
    lifetime_lengths,
    lifetime_of,
    lifetimes_on_nodes,
    slice_dependency_levels,
    slice_dependent_nodes,
    verify_halving_property,
)
from .stem import Stem, StemStep, extract_stem, stem_profile
from .slicing import SlicingCostModel, SlicingError, SlicingResult, SlicingState
from .slice_finder import LifetimeSliceFinder, find_slices
from .slice_refiner import (
    RefinementTrace,
    SimulatedAnnealingSliceRefiner,
    remove_redundant_edges,
)
from .baseline_slicer import GreedySliceBaseline, cotengra_style_slices
from .stacking import SliceStackAnalyzer, StackingEstimate, StrategyDecision
from .secondary import FusedGroup, FusedPlan, SecondarySlicer
from .permutation_map import (
    InSituPermutation,
    PermutationSpec,
    PrecalculatedPermutation,
    ReducedPermutationMap,
    standard_contraction_permutation,
)

__all__ = [
    "Lifetime",
    "compute_lifetimes",
    "lifetime_contains",
    "lifetime_is_contiguous_on_path",
    "lifetime_lengths",
    "lifetime_of",
    "lifetimes_on_nodes",
    "slice_dependency_levels",
    "slice_dependent_nodes",
    "verify_halving_property",
    "Stem",
    "StemStep",
    "extract_stem",
    "stem_profile",
    "SlicingCostModel",
    "SlicingError",
    "SlicingResult",
    "SlicingState",
    "LifetimeSliceFinder",
    "find_slices",
    "RefinementTrace",
    "SimulatedAnnealingSliceRefiner",
    "remove_redundant_edges",
    "GreedySliceBaseline",
    "cotengra_style_slices",
    "SliceStackAnalyzer",
    "StackingEstimate",
    "StrategyDecision",
    "FusedGroup",
    "FusedPlan",
    "SecondarySlicer",
    "InSituPermutation",
    "PermutationSpec",
    "PrecalculatedPermutation",
    "ReducedPermutationMap",
    "standard_contraction_permutation",
]
