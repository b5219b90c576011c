"""The 3x3 block saddle-point matrix of a `KktSystem` and its direct solve.

`KktSystem.solve` never forms this matrix: it solves the step in V alone.
The tests use it as the reference that the step must reproduce.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from deformopt import fem


def saddle_matrix(system):
    """Unconstrained (3n, 3n) KKT matrix in the (du, V, dlambda) ordering;
    the reduced system drops L_uu, L_uOmega and L_OmegaOmega."""
    b = system.blocks
    n = b.ops.mesh.num_vertices
    mass, stiffness, metric = (b.ops.mass.matrix, b.ops.state.matrix,
                               b.ops.metric.matrix)
    zero_uu = sp.csr_matrix((n, n))
    zero_un = sp.csr_matrix((n, 2 * n))
    if system.reduced:
        rows = [[zero_uu, zero_un, stiffness],
                [zero_un.T, metric, b.b_lam_shape.T],
                [stiffness, b.b_lam_shape, zero_uu]]
    else:
        rows = [[mass, b.b_u_shape, stiffness],
                [b.b_u_shape.T, b.shape_shape + metric, b.b_lam_shape.T],
                [stiffness, b.b_lam_shape, zero_uu]]
    return sp.bmat(rows, format="csr")


def saddle_constrained_dofs(system):
    ops = system.blocks.ops
    n = ops.mesh.num_vertices
    return np.concatenate([ops.state.constrained, n + ops.metric.constrained,
                           3 * n + ops.state.constrained])


def saddle_constrained_matrix(system):
    return fem.apply_dirichlet(saddle_matrix(system),
                               saddle_constrained_dofs(system))


def saddle_rhs(system):
    r = np.concatenate([system.rhs_u, system.rhs_shape, system.rhs_lam])
    r[saddle_constrained_dofs(system)] = 0.0
    return -r


def reference_newton_solve(system):
    """The step (du, V, dlambda) as one flat vector, from the whole 3x3
    block system: Dirichlet-constrained, row-norm equilibrated and
    factorized by splu, with iterative refinement."""
    raw = saddle_constrained_matrix(system)
    row_norms = np.sqrt(np.asarray(raw.power(2).sum(axis=1)).ravel())
    d = 1.0 / np.sqrt(np.maximum(row_norms, 1e-30))
    scaling = sp.diags(d)
    mat = (scaling @ raw @ scaling).tocsc()
    rhs = d * saddle_rhs(system)
    factor = spla.splu(mat)
    x = factor.solve(rhs)
    for _ in range(6):
        if np.linalg.norm(mat @ x - rhs) <= 1e-10 * np.linalg.norm(rhs):
            break
        x = x + factor.solve(rhs - mat @ x)
    return d * x
