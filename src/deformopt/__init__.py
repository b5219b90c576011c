"""Deformation-field shape optimization for interface identification."""

from .mesh import (InclusionShape, Mesh, MeshError, NonInvertibleDeformation,
                   apply_deformation, check_invertibility, generate_mesh,
                   mesh_quality)
from .fem import ScalarField, SparseOperator, VectorField, VectorOperator
from .model import (OperatorSet, ProblemConfig, TargetField, TRUE_ELLIPSE,
                    make_target)
from .shape_calculus import (assemble_shape_derivative, deformation_metric,
                             element_terms, eulerian_fd, riesz_gradient)
from .kkt import KktSystem, assemble_hessian_blocks, assemble_kkt
from .pseudoinverse import (DenseOperator, MetricSpace, epsilon_solve,
                            min_norm_solve)
from .driver import History, IterationRecord, Schedule, run_two_phase, \
    steepest_descent

__version__ = "0.1.0"

__all__ = [
    "InclusionShape", "Mesh", "MeshError", "NonInvertibleDeformation",
    "apply_deformation", "check_invertibility", "generate_mesh",
    "mesh_quality", "ScalarField", "SparseOperator", "VectorField",
    "VectorOperator", "OperatorSet", "ProblemConfig", "TargetField",
    "TRUE_ELLIPSE", "make_target",
    "assemble_shape_derivative", "deformation_metric", "element_terms",
    "eulerian_fd",
    "riesz_gradient", "KktSystem", "assemble_hessian_blocks",
    "assemble_kkt", "DenseOperator", "MetricSpace", "epsilon_solve",
    "min_norm_solve", "History", "IterationRecord", "Schedule",
    "run_two_phase", "steepest_descent", "__version__",
]
