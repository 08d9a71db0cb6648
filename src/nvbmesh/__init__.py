"""2D newest-vertex-bisection mesh refinement with conforming closure.

Provides conforming triangle meshes with reference-edge encoding, the four
classic refinement dialects with mesh-closure, structural verification of
the refinement laws, the constructive red/bisec3 correspondence, dyadic
nodal weights, and measured H1-stability of the L2-projection onto P1
elements.
"""

from .analysis import (ChainBoundsReport, ClosureLedger, StructureReport,
                       closure_accounting, reciprocal_sum_bound,
                       verify_chain_bounds, verify_levels,
                       verify_neighbor_rules)
from .correspondence import (CorrMap, CorrespondenceError, build_corr,
                             corresponding_sequence, verify_corr)
from .marking import RunConfig, RunResult, run_refinement
from .mesh import (ConformityReport, Mesh, MeshError, PrecisionExhausted,
                   StructureFlags, classify_pair, lshape6,
                   reference_neighbor, restrict, same_mesh, square2,
                   structure_flags, validate_mesh)
from .meshio import read_mesh, write_mesh
from .refine import (MarkingInput, PatternPolicy, RefinementPlan,
                     StepRecord, UnsupportedRefinementError,
                     chain, close_marks, overlay, refine_step, split, uniform)
from .stability import (NodeWeights, NumericFailure, SparseSystem,
                        StabilityReport, assemble, assemble_nested,
                        check_conditions, compute_weights,
                        measure_h1_stability, project_l2, prolongation)

__version__ = "0.1.0"

__all__ = [
    "ChainBoundsReport", "ClosureLedger", "ConformityReport",
    "CorrMap", "CorrespondenceError", "MarkingInput", "Mesh",
    "MeshError", "NodeWeights", "NumericFailure", "PatternPolicy",
    "PrecisionExhausted", "RefinementPlan", "RunConfig", "RunResult",
    "SparseSystem", "StructureReport", "StabilityReport", "StepRecord",
    "StructureFlags",
    "UnsupportedRefinementError", "assemble", "assemble_nested",
    "build_corr", "chain", "check_conditions",
    "classify_pair", "close_marks", "closure_accounting", "compute_weights",
    "corresponding_sequence", "lshape6", "measure_h1_stability", "overlay",
    "project_l2", "prolongation",
    "read_mesh", "reciprocal_sum_bound", "reference_neighbor", "refine_step",
    "restrict",
    "run_refinement", "same_mesh", "split", "square2", "structure_flags",
    "uniform", "validate_mesh", "verify_chain_bounds", "verify_corr",
    "verify_levels", "verify_neighbor_rules", "write_mesh",
]
