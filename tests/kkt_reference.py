"""Test references for the KKT layer.

- The 3x3 block saddle-point matrix of a `KktSystem` and its direct solve.
  `KktSystem.solve` never forms this matrix: it solves the step in V alone.
  The tests use it as the reference that the step must reproduce.
- The sensitivities, the reduced Hessian operator and the Newton step with
  each K solve written out, as they were before `HessianBlocks.eliminate`
  served all three; the tests require bit-equal results.  The Newton step
  runs MINRES on the free deformation dofs, as `KktSystem.solve` does.
- The Newton step with MINRES in the padded 2n space (identity rows on
  the fixed deformation dofs), which the free-dof MINRES replaced; the
  tests require the same step to rounding and the same iteration count.
- The square and the scalar-by-vector scatters: the CSR structure of
  scipy's COO-to-CSR conversion, each entry summed by `np.add.at` in the
  flat (r, c, ne) order of the local entries, as `fem.ScatterPatterns`
  sums them; the tests require bit-equal CSR arrays.
- The LIL Dirichlet elimination with identity rows, which the monolithic
  references solve with, where `fem` solves on the free x free block.
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
                               metric_matrix(b.ops.metric))
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


def metric_matrix(metric):
    """The 2n metric kron(B, I2) in CSR, which `fem.VectorOperator` applies
    to the (n, 2) view instead of storing."""
    return sp.kron(metric.block.matrix, sp.identity(2), format="csr")


def saddle_constrained_dofs(system):
    ops = system.blocks.ops
    n = ops.mesh.num_vertices
    return np.concatenate([ops.state.constrained, n + ops.metric.constrained,
                           3 * n + ops.state.constrained])


def saddle_constrained_matrix(system):
    return reference_dirichlet(saddle_matrix(system),
                               saddle_constrained_dofs(system))


def reference_dirichlet(matrix, constrained):
    """`matrix` in CSR with identity rows and columns at the constrained
    dofs: the rows and columns zeroed in a LIL copy, then the identity
    added on the constrained diagonal (a CSR sum, which sorts indices and
    drops zero sums)."""
    if len(constrained) == 0:
        return matrix.tocsr()
    mat = matrix.tolil(copy=True)
    mat[constrained, :] = 0.0
    mat[:, constrained] = 0.0
    mat = mat.tocsr()
    diag = sp.coo_matrix(
        (np.ones(len(constrained)), (constrained, constrained)),
        shape=matrix.shape)
    return (mat + diag.tocsr()).tocsr()


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


def _minres_rhs(system):
    """g with S W = g for the step's W = -V of a Newton system, each K
    solve written out."""
    b = system.blocks
    state, mass = b.ops.state, b.ops.mass.matrix
    du_p = -state.solve_constrained(system.rhs_lam)
    dlam_p = -state.solve_constrained(system.rhs_u + mass @ du_p)
    return (system.rhs_shape + b.b_u_shape.T @ du_p
            + b.b_lam_shape.T @ dlam_p)


def _step_from(system, v):
    """Flat (du, V, dlambda) of the step V, each K solve written out."""
    b = system.blocks
    state, mass = b.ops.state, b.ops.mass.matrix
    du = -state.solve_constrained(system.rhs_lam + b.b_lam_shape @ v)
    dlam = -state.solve_constrained(system.rhs_u + mass @ du
                                    + b.b_u_shape @ v)
    return du, v, dlam


def _minres(matvec, psolve, rhs):
    """scipy's MINRES with the settings of `KktSystem.solve`: the solution
    and the iteration count."""
    n, count = rhs.size, []
    w, info = spla.minres(
        spla.LinearOperator((n, n), matvec=matvec, dtype=float), rhs,
        M=spla.LinearOperator((n, n), matvec=psolve, dtype=float),
        rtol=kkt.MINRES_RTOL, maxiter=kkt.MINRES_MAXITER,
        callback=count.append)
    assert info == 0
    return w, len(count)


def newton_step(system):
    """Flat (du, V, dlambda) of a Newton system, each K solve written out
    and MINRES run on `apply` over the free deformation dofs, gathered and
    put back by plain indexing."""
    b = system.blocks
    metric, metric_2n = b.ops.metric, metric_matrix(b.ops.metric)
    g = _minres_rhs(system)
    free = np.setdiff1d(np.arange(g.size), metric.constrained)

    def extend(x):
        w = np.zeros(g.size)
        w[free] = x
        return w

    def s_matvec(x):
        w = extend(x)
        return (apply(b, w) + metric_2n @ w)[free]

    w, _ = _minres(s_matvec,
                   lambda x: metric.solve_constrained(extend(x))[free],
                   g[free])
    return _step_from(system, -extend(w))


def padded_newton_step(system):
    """The Newton step as MINRES once solved it, in the padded 2n space:
    S with identity rows on the fixed deformation dofs, and the
    constrained b solve, zero on those dofs, as preconditioner.  Flat
    (du, V, dlambda) and the MINRES iteration count."""
    b = system.blocks
    metric, metric_2n = b.ops.metric, metric_matrix(b.ops.metric)
    g = _minres_rhs(system)
    fixed = metric.constrained

    def s_matvec(x):
        w = x.copy()
        w[fixed] = 0.0
        y = apply(b, w) + metric_2n @ w
        y[fixed] = x[fixed]
        return y

    rhs = g.copy()
    rhs[fixed] = 0.0
    w, iterations = _minres(s_matvec, metric.solve_constrained, rhs)
    return _step_from(system, -w), iterations


def flat_order_csr(local, rows, cols, shape):
    """CSR of the (ne, r, c) entries `local` at (`rows`, `cols`): the
    structure of scipy's COO-to-CSR conversion, each entry summed by
    `np.add.at` in the flat (r, c, ne) order of the entries."""
    structure = sp.coo_matrix((np.ones(rows.size),
                               (rows.reshape(-1), cols.reshape(-1))),
                              shape=shape).tocsr()
    keys = (np.repeat(np.arange(shape[0]), np.diff(structure.indptr))
            * shape[1] + structure.indices)

    def flat(a):
        return a.transpose(1, 2, 0).reshape(-1)

    data = np.zeros(keys.size)
    np.add.at(data, np.searchsorted(keys, flat(rows) * shape[1] + flat(cols)),
              flat(local))
    return sp.csr_matrix((data, structure.indices, structure.indptr),
                         shape=shape)


def scatter(mesh, local, ndof_per_vertex=1):
    """Assemble (ne, k, k) local matrices into a global CSR matrix."""
    k = local.shape[1]
    dofs = mesh.triangles if ndof_per_vertex == 1 \
        else fem.vector_dofs(mesh.triangles)
    rows = np.repeat(dofs[:, :, None], k, axis=2)
    n = mesh.num_vertices * ndof_per_vertex
    return flat_order_csr(local, rows, rows.transpose(0, 2, 1), (n, n))


def mixed_scatter(mesh, local):
    """Assemble (ne, 3, 3, 2) scalar-by-vector blocks into (n, 2n) CSR."""
    cols = fem.vector_dofs(mesh.triangles)
    rows = np.repeat(mesh.triangles[:, :, None], 6, axis=2)
    n = mesh.num_vertices
    return flat_order_csr(local.reshape(-1, 3, 6), rows,
                          np.repeat(cols[:, None], 3, axis=1), (n, 2 * n))
