"""P1 finite-element kernel on triangle meshes.

Nodal fields, exact element quadrature, assembly of the scalar stiffness,
mass and vector H1 forms, and sparse solves with symmetric Dirichlet
elimination.  All integrands appearing in this project are elementwise
polynomials of degree <= 2, which the three-midpoint rule integrates
exactly; a degree-4 rule is kept for headroom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh, signed_areas


class FemError(ValueError):
    pass


class SingularSystemError(RuntimeError):
    pass


class _NodalField:
    """P1 field given by an array of shape `value_shape` per mesh vertex."""

    value_shape: tuple = ()

    def __init__(self, mesh: Mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.num_vertices, *self.value_shape):
            raise FemError("nodal value count does not match the mesh")
        self.mesh = mesh
        self.values = values

    @classmethod
    def zeros(cls, mesh):
        return cls(mesh, np.zeros((mesh.num_vertices, *cls.value_shape)))

    @classmethod
    def from_callable(cls, mesh, fn):
        return cls(mesh, fn(mesh.vertices))

    def __add__(self, other):
        _same_mesh(self, other)
        return type(self)(self.mesh, self.values + other.values)

    def __sub__(self, other):
        _same_mesh(self, other)
        return type(self)(self.mesh, self.values - other.values)

    def __mul__(self, c):
        return type(self)(self.mesh, self.values * float(c))

    __rmul__ = __mul__


class ScalarField(_NodalField):
    """P1 scalar function given by one value per mesh vertex."""


class VectorField(_NodalField):
    """P1 vector function with a 2-vector per mesh vertex."""

    value_shape = (2,)

    def flat(self):
        return self.values.reshape(-1)


def _same_mesh(a, b):
    if a.mesh is not b.mesh:
        raise FemError("fields live on different meshes")


class Geometry:
    """Per-element geometry shared by all assemblies on one mesh."""

    def __init__(self, mesh: Mesh):
        tris = mesh.triangles
        p = mesh.vertices[tris]
        self.areas = signed_areas(mesh.vertices, tris)
        # gradients of the three barycentric basis functions, (ne, 3, 2)
        e0 = p[:, 2] - p[:, 1]
        e1 = p[:, 0] - p[:, 2]
        e2 = p[:, 1] - p[:, 0]
        g = np.stack([
            np.column_stack([-e0[:, 1], e0[:, 0]]),
            np.column_stack([-e1[:, 1], e1[:, 0]]),
            np.column_stack([-e2[:, 1], e2[:, 0]]),
        ], axis=1)
        self.grads = g / (2 * self.areas)[:, None, None]

    @cached_property
    def local_mass(self):
        """(ne, 3, 3) exact P1 element mass matrices."""
        base = (np.ones((3, 3)) + np.eye(3)) / 12.0
        return self.areas[:, None, None] * base[None]


def geometry(mesh: Mesh) -> Geometry:
    geo = getattr(mesh, "_geometry", None)
    if geo is None:
        geo = Geometry(mesh)
        mesh._geometry = geo
    return geo


def elem_grad(f: ScalarField):
    """Constant per-element gradient of a P1 scalar field, (ne, 2)."""
    geo = geometry(f.mesh)
    vals = f.values[f.mesh.triangles]
    return np.einsum("ei,eid->ed", vals, geo.grads)


def elem_jacobian(v: VectorField):
    """Constant per-element Jacobian DV of a P1 vector field, (ne, 2, 2)."""
    geo = geometry(v.mesh)
    vals = v.values[v.mesh.triangles]
    return np.einsum("eia,eib->eab", vals, geo.grads)


def divergence(v: VectorField):
    """Per-element divergence of a P1 vector field, (ne,)."""
    jac = elem_jacobian(v)
    return jac[:, 0, 0] + jac[:, 1, 1]


def integrate(mesh: Mesh, per_element):
    """Integrate elementwise-constant data over the mesh."""
    geo = geometry(mesh)
    return float(np.dot(geo.areas, np.asarray(per_element, dtype=float)))


# Quadrature on the reference triangle, exact for polynomials of degree 4.
_QP4 = np.array([
    [0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070],
    [0.108103018168070, 0.445948490915965],
    [0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459],
    [0.816847572980459, 0.091576213509771],
])
_QW4 = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)


def integrate_p1_product(fields, weights=None):
    """Exact integral of a product of P1 scalar fields (degree <= 4).

    `weights` is an optional elementwise-constant factor.
    """
    mesh = fields[0].mesh
    geo = geometry(mesh)
    lam = np.column_stack([1 - _QP4[:, 0] - _QP4[:, 1], _QP4[:, 0], _QP4[:, 1]])
    prod = np.ones((mesh.num_triangles, _QP4.shape[0]))
    for f in fields:
        _same_mesh(fields[0], f)
        nodal = f.values[mesh.triangles]          # (ne, 3)
        prod *= nodal @ lam.T                     # (ne, nq)
    per_elem = prod @ _QW4
    if weights is not None:
        per_elem = per_elem * np.asarray(weights, dtype=float)
    return float(np.dot(geo.areas, per_elem))


@dataclass
class SparseOperator:
    """Assembled symmetric bilinear form with Dirichlet handling.

    `matrix` is the unconstrained operator.  `constrained` lists dof indices
    eliminated symmetrically (identity row/column) when solving.

    The constrained matrix is factorized by SuperLU in symmetric mode:
    minimum-degree ordering on A + A^T and diagonal pivots only.  That
    assumes it is symmetric positive definite, as every operator built here
    is after the elimination (stiffness, mass and the metric block); nothing
    nonsymmetric or indefinite may go through `_factor`.  A singular matrix
    (the pure-Neumann stiffness) is caught by the residual check of
    `solve_constrained`.
    """

    matrix: sp.csr_matrix
    constrained: np.ndarray

    @cached_property
    def constrained_matrix(self):
        return apply_dirichlet(self.matrix, self.constrained)

    @cached_property
    def _factor(self):
        mat = self.constrained_matrix.tocsc()
        try:
            return spla.splu(mat, permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc

    def energy(self, x, y=None):
        y = x if y is None else y
        return float(x @ (self.matrix @ y))

    def solve_constrained(self, rhs, bc_values=None, rtol=1e-8):
        """Solve with homogeneous (or given) values at constrained dofs.

        `rhs` is one right-hand side (n,) or several as columns (n, k),
        solved on the one factorization; the residual check and the
        iterative refinement then take all columns together."""
        rhs = np.asarray(rhs, dtype=float).copy()
        lift = np.zeros_like(rhs)
        if bc_values is not None and self.constrained.size:
            lift[self.constrained] = bc_values
            rhs = rhs - self.matrix @ lift
        if self.constrained.size:
            rhs[self.constrained] = 0.0
        x = self._factor.solve(rhs)
        scale = max(np.linalg.norm(rhs), 1.0)
        res = np.linalg.norm(self.constrained_matrix @ x - rhs)
        for _ in range(6):                     # iterative refinement
            if res <= 1e-12 * scale:
                break
            x = x + self._factor.solve(rhs - self.constrained_matrix @ x)
            res = np.linalg.norm(self.constrained_matrix @ x - rhs)
        if not np.isfinite(res) or res > rtol * scale:
            raise SingularSystemError(
                f"linear solve residual {res:.3e} exceeds tolerance")
        if bc_values is not None:
            x = x + lift
        return x


@dataclass
class VectorOperator:
    """The form I2 (x) B on interleaved (x, y) vertex dofs: B applied to each
    component of a P1 vector field, for a scalar operator `block` = B.

    Only B (n x n) is stored and factorized: `metric @ x` applies B to the
    (n, 2) view of a 2n vector, and `solve_constrained` solves both
    components as one two-column right-hand side on B's factorization.
    `constrained` is both dofs of each of B's constrained vertices.
    """

    block: SparseOperator

    @property
    def constrained(self):
        return vector_dofs(self.block.constrained)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        return (self.block.matrix @ x.reshape(-1, 2)).reshape(x.shape)

    def energy(self, x, y=None):
        y = x if y is None else y
        return float(x @ (self @ y))

    def solve_constrained(self, rhs, rtol=1e-8):
        """Solve with homogeneous values at the constrained dofs."""
        rhs = np.asarray(rhs, dtype=float)
        x = self.block.solve_constrained(rhs.reshape(-1, 2), rtol=rtol)
        return x.reshape(rhs.shape)


def apply_dirichlet(matrix, constrained):
    """CSR copy of `matrix` with identity rows and columns at the
    constrained dofs (symmetric Dirichlet elimination).

    Stored entries in a constrained row or column are zeroed through a mask
    on the canonical CSR arrays and dropped by `eliminate_zeros`; then the
    identity on the constrained diagonal is added.  This gives the same
    `indptr`, `indices` and `data`, bit for bit, as zeroing those rows and
    columns in a LIL copy: both remove exactly the entries of constrained
    rows and columns, touch no other value, and end with the same `+ diag`,
    whose CSR addition sorts indices and drops zero sums.
    """
    if len(constrained) == 0:
        return matrix.tocsr()
    mat = matrix.tocsr(copy=True)
    mat.sum_duplicates()
    is_c = np.zeros(matrix.shape[0], dtype=bool)
    is_c[constrained] = True
    rows = np.repeat(is_c, np.diff(mat.indptr))
    mat.data[rows | is_c[mat.indices]] = 0.0
    mat.eliminate_zeros()
    diag = sp.coo_matrix(
        (np.ones(len(constrained)), (constrained, constrained)),
        shape=matrix.shape)
    return (mat + diag.tocsr()).tocsr()


def _scatter(mesh, local, row_dofs=None, col_dofs=None):
    """Assemble (ne, r, c) local matrices into a global CSR matrix.

    `row_dofs` (ne, r) and `col_dofs` (ne, c) map each element's local
    rows and columns to global dofs: `mesh.triangles` (the default, one dof
    per vertex) or `vector_dofs(mesh.triangles)` (two).  `col_dofs`
    defaults to `row_dofs`.
    """
    row_dofs = mesh.triangles if row_dofs is None else row_dofs
    col_dofs = row_dofs if col_dofs is None else col_dofs
    r, c = row_dofs.shape[1], col_dofs.shape[1]
    rows = np.repeat(row_dofs, c, axis=1).reshape(-1)
    cols = np.tile(col_dofs, (1, r)).reshape(-1)
    shape = (mesh.num_vertices * r // 3, mesh.num_vertices * c // 3)
    mat = sp.coo_matrix((local.reshape(-1), (rows, cols)), shape=shape)
    return mat.tocsr()


def assemble_scalar_laplace(mesh: Mesh, mu) -> SparseOperator:
    """Stiffness matrix of the form (w, v) -> int mu <grad w, grad v>.

    `mu` maps region tag to a positive conductivity, or is an (ne,) array.
    """
    mu_e = _mu_per_element(mesh, mu)
    if np.any(mu_e <= 0):
        raise FemError("conductivity must be positive")
    geo = geometry(mesh)
    local = np.einsum("e,eia,eja->eij", mu_e * geo.areas, geo.grads, geo.grads)
    return SparseOperator(_scatter(mesh, local), np.array([], dtype=np.int64))


def _mu_per_element(mesh, mu):
    if isinstance(mu, dict):
        return np.array([mu[r] for r in mesh.region], dtype=float)
    mu = np.asarray(mu, dtype=float)
    if mu.ndim == 0:
        return np.full(mesh.num_triangles, float(mu))
    return mu


def assemble_mass(mesh: Mesh) -> SparseOperator:
    geo = geometry(mesh)
    return SparseOperator(_scatter(mesh, geo.local_mass),
                          np.array([], dtype=np.int64))


def assemble_vector_h1_form(mesh: Mesh, eps1: float, eps2: float) -> VectorOperator:
    """Deformation metric b(W, V) = int eps1 (<W,V> + eps2 <DW,DV>_F).

    Serves both as the Riesz metric for the shape gradient and as the
    Tikhonov term of the regularized Newton system.  b = I2 (x) B with the
    scalar block B = eps1 (M + eps2 K1) (mass plus unit stiffness), which
    is all that is assembled and, once constrained, factorized.
    """
    if eps1 <= 0:
        raise FemError("eps1 must be positive (metric must be an inner product)")
    if eps2 < 0:
        raise FemError("eps2 must be nonnegative")
    geo = geometry(mesh)
    kloc = np.einsum("e,eia,eja->eij", geo.areas, geo.grads, geo.grads)
    block = _scatter(mesh, eps1 * (geo.local_mass + eps2 * kloc))
    return VectorOperator(SparseOperator(block, np.array([], dtype=np.int64)))


def vector_dofs(vertex_indices):
    """Expand vertex indices to interleaved (x, y) dof indices along the
    last axis: [a, b] -> [2a, 2a+1, 2b, 2b+1], also per row of an array."""
    vi = np.asarray(vertex_indices, dtype=np.int64)
    return np.stack([2 * vi, 2 * vi + 1], axis=-1).reshape(*vi.shape[:-1], -1)


def with_constraints(op: SparseOperator, constrained) -> SparseOperator:
    return SparseOperator(op.matrix, np.asarray(constrained, dtype=np.int64))
