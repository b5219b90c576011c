"""Test references for the KKT layer.

- The 3x3 block saddle-point matrix of a `KktSystem` and its direct solve.
  `KktSystem.solve` never forms this matrix: it solves the step in V alone.
  The tests use it as the reference that the step must reproduce.
- The sensitivities, the reduced Hessian operator and the Newton step with
  each K solve written out, as they were before `HessianBlocks.eliminate`
  served all three; the tests require bit-equal results.
- The square and the scalar-by-vector scatters as they were before one
  `fem._scatter` took row and column dof maps; the tests require
  bit-equal CSR arrays.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from deformopt import fem, kkt, shape_calculus


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


def sensitivities(blocks, v):
    """(du[V], dlambda[V]) for a flat deformation v, solves written out."""
    state, mass = blocks.ops.state, blocks.ops.mass.matrix
    vflat = v.copy()
    vflat[shape_calculus.deformation_constraints(blocks.ops.mesh)] = 0.0
    udot = state.solve_constrained(-(blocks.b_lam_shape @ vflat))
    ldot = state.solve_constrained(-(mass @ udot + blocks.b_u_shape @ vflat))
    return udot, ldot


def apply(blocks, v):
    """The reduced shape Hessian applied to a flat deformation v."""
    udot, ldot = sensitivities(blocks, v)
    return (blocks.shape_shape @ v + blocks.b_u_shape.T @ udot
            + blocks.b_lam_shape.T @ ldot)


def newton_step(system):
    """Flat (du, V, dlambda) of a Newton system, each K solve written out
    and MINRES run on `apply` with the settings of `KktSystem.solve`."""
    b = system.blocks
    state, mass, metric = b.ops.state, b.ops.mass.matrix, b.ops.metric
    du_p = -state.solve_constrained(system.rhs_lam)
    dlam_p = -state.solve_constrained(system.rhs_u + mass @ du_p)
    g = (system.rhs_shape + b.b_u_shape.T @ du_p
         + b.b_lam_shape.T @ dlam_p)
    fixed = metric.constrained

    def s_matvec(x):
        w = x.copy()
        w[fixed] = 0.0
        y = apply(b, w) + metric.matrix @ w
        y[fixed] = x[fixed]
        return y

    n = g.size
    rhs = g.copy()
    rhs[fixed] = 0.0
    w, info = spla.minres(
        spla.LinearOperator((n, n), matvec=s_matvec, dtype=float), rhs,
        M=spla.LinearOperator((n, n), matvec=metric.solve_constrained,
                              dtype=float),
        rtol=kkt.MINRES_RTOL, maxiter=kkt.MINRES_MAXITER)
    assert info == 0
    v = -w
    du = -state.solve_constrained(system.rhs_lam + b.b_lam_shape @ v)
    dlam = -state.solve_constrained(system.rhs_u + mass @ du
                                    + b.b_u_shape @ v)
    return du, v, dlam


def scatter(mesh, local, ndof_per_vertex=1):
    """Assemble (ne, k, k) local matrices into a global CSR matrix."""
    k = local.shape[1]
    dofs = mesh.triangles if ndof_per_vertex == 1 \
        else fem.vector_dofs(mesh.triangles)
    rows = np.repeat(dofs, k, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, k)).reshape(-1)
    n = mesh.num_vertices * ndof_per_vertex
    mat = sp.coo_matrix((local.reshape(-1), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def mixed_scatter(mesh, local):
    """Assemble (ne, 3, 3, 2) scalar-by-vector blocks into (n, 2n) CSR."""
    rows = np.repeat(mesh.triangles, 6).reshape(-1)
    cols = np.tile(fem.vector_dofs(mesh.triangles), (1, 3)).reshape(-1)
    n = mesh.num_vertices
    mat = sp.coo_matrix((local.reshape(-1), (rows, cols)), shape=(n, 2 * n))
    return mat.tocsr()
