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


class ScalarField:
    """P1 scalar function given by one value per mesh vertex."""

    def __init__(self, mesh: Mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.num_vertices,):
            raise FemError("nodal value count does not match the mesh")
        self.mesh = mesh
        self.values = values

    @staticmethod
    def zeros(mesh):
        return ScalarField(mesh, np.zeros(mesh.num_vertices))

    @staticmethod
    def from_callable(mesh, fn):
        return ScalarField(mesh, fn(mesh.vertices))

    def __add__(self, other):
        _same_mesh(self, other)
        return ScalarField(self.mesh, self.values + other.values)

    def __sub__(self, other):
        _same_mesh(self, other)
        return ScalarField(self.mesh, self.values - other.values)

    def __mul__(self, c):
        return ScalarField(self.mesh, self.values * float(c))

    __rmul__ = __mul__


class VectorField:
    """P1 vector function with a 2-vector per mesh vertex."""

    def __init__(self, mesh: Mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.num_vertices, 2):
            raise FemError("nodal value count does not match the mesh")
        self.mesh = mesh
        self.values = values

    @staticmethod
    def zeros(mesh):
        return VectorField(mesh, np.zeros((mesh.num_vertices, 2)))

    @staticmethod
    def from_callable(mesh, fn):
        return VectorField(mesh, fn(mesh.vertices))

    def __add__(self, other):
        _same_mesh(self, other)
        return VectorField(self.mesh, self.values + other.values)

    def __sub__(self, other):
        _same_mesh(self, other)
        return VectorField(self.mesh, self.values - other.values)

    def __mul__(self, c):
        return VectorField(self.mesh, self.values * float(c))

    __rmul__ = __mul__

    def flat(self):
        return self.values.reshape(-1)


def _same_mesh(a, b):
    if a.mesh is not b.mesh:
        raise FemError("fields live on different meshes")


class Geometry:
    """Per-element geometry shared by all assemblies on one mesh."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
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
    """

    matrix: sp.csr_matrix
    constrained: np.ndarray
    symmetric: bool = True

    @cached_property
    def constrained_matrix(self):
        return apply_dirichlet(self.matrix, self.constrained)

    @cached_property
    def _factor(self):
        mat = self.constrained_matrix.tocsc()
        try:
            return spla.splu(mat)
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc

    def energy(self, x, y=None):
        y = x if y is None else y
        return float(x @ (self.matrix @ y))

    def solve_constrained(self, rhs, bc_values=None, rtol=1e-8):
        """Solve with homogeneous (or given) values at constrained dofs."""
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


def _scatter(mesh, local, ndof_per_vertex=1):
    """Assemble (ne, k, k) local matrices into a global CSR matrix."""
    tris = mesh.triangles
    ne, k, _ = local.shape
    if ndof_per_vertex == 1:
        dofs = tris
    else:
        dofs = np.empty((ne, k), dtype=np.int64)
        dofs[:, 0::2] = 2 * tris
        dofs[:, 1::2] = 2 * tris + 1
    rows = np.repeat(dofs, k, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, k)).reshape(-1)
    n = mesh.num_vertices * ndof_per_vertex
    mat = sp.coo_matrix((local.reshape(-1), (rows, cols)), shape=(n, n))
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
    if callable(mu):
        return np.array([mu(r) for r in mesh.region], dtype=float)
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


def assemble_vector_h1_form(mesh: Mesh, eps1: float, eps2: float) -> SparseOperator:
    """Deformation metric b(W, V) = int eps1 (<W,V> + eps2 <DW,DV>_F).

    Serves both as the Riesz metric for the shape gradient and as the
    Tikhonov term of the regularized Newton system.
    """
    if eps1 <= 0:
        raise FemError("eps1 must be positive (metric must be an inner product)")
    if eps2 < 0:
        raise FemError("eps2 must be nonnegative")
    geo = geometry(mesh)
    mloc = geo.local_mass
    kloc = np.einsum("e,eia,eja->eij", geo.areas, geo.grads, geo.grads)
    scalar = eps1 * (mloc + eps2 * kloc)
    local = np.zeros((mesh.num_triangles, 6, 6))
    local[:, 0::2, 0::2] = scalar
    local[:, 1::2, 1::2] = scalar
    return SparseOperator(_scatter(mesh, local, ndof_per_vertex=2),
                          np.array([], dtype=np.int64))


def vector_dofs(vertex_indices):
    """Expand vertex indices to interleaved (x, y) dof indices."""
    vi = np.asarray(vertex_indices, dtype=np.int64)
    return np.column_stack([2 * vi, 2 * vi + 1]).reshape(-1)


def with_constraints(op: SparseOperator, constrained) -> SparseOperator:
    return SparseOperator(op.matrix, np.asarray(constrained, dtype=np.int64),
                          op.symmetric)


def solve(op: SparseOperator, rhs, bc_values=None):
    """Solve the constrained system; bc_values sets the constrained dofs."""
    return op.solve_constrained(rhs, bc_values)
