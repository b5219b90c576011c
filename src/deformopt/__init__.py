"""Deformation-field shape optimization for interface identification."""

from .mesh import (InclusionShape, Mesh, MeshError, NonInvertibleDeformation,
                   apply_deformation, check_invertibility, generate_mesh)
from .fem import SparseOperator, VectorOperator
from .model import (OperatorSet, PointOutsideMesh, ProblemConfig,
                    TargetField, TRUE_ELLIPSE, make_target)
from .shape_calculus import (assemble_shape_derivative, deformation_metric,
                             element_terms, eulerian_fd, riesz_gradient)
from .kkt import KktSystem, assemble_hessian_blocks, assemble_kkt
from .pseudoinverse import (DenseOperator, MetricSpace, epsilon_solve,
                            min_norm_solve)
from .driver import History, IterationRecord, Schedule, run_two_phase

__version__ = "0.1.0"

__all__ = [
    "InclusionShape", "Mesh", "MeshError", "NonInvertibleDeformation",
    "apply_deformation", "check_invertibility", "generate_mesh",
    "SparseOperator", "VectorOperator", "OperatorSet", "PointOutsideMesh",
    "ProblemConfig", "TargetField", "TRUE_ELLIPSE", "make_target",
    "assemble_shape_derivative", "deformation_metric", "element_terms",
    "eulerian_fd",
    "riesz_gradient", "KktSystem", "assemble_hessian_blocks",
    "assemble_kkt", "DenseOperator", "MetricSpace", "epsilon_solve",
    "min_norm_solve", "History", "IterationRecord",
    "Schedule", "run_two_phase", "__version__",
]
