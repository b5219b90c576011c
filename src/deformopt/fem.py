"""P1 finite-element kernel on triangle meshes.

Nodal fields, exact element quadrature, assembly of the scalar stiffness,
mass and vector H1 forms, and sparse solves with symmetric Dirichlet
elimination.  Products of P1 fields are integrated by a degree-4 rule,
exact up to products of four fields.  Assembly fills CSR patterns built
once per triangle array (`ScatterPatterns`).

Every per-element array has the element axis last and contiguous: basis
gradients (3, 2, ne), local matrices (r, c, ne), element gradients (2, ne).
A kernel's products and sums then each run over one loop of length ne,
not over axes of length 2 or 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from .mesh import Mesh, corners, signed_areas


class FemError(ValueError):
    pass


class SingularSystemError(RuntimeError):
    pass


_NONE = np.array([], dtype=np.int64)       # no constrained dofs


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
    """Per-element geometry shared by all assemblies on one mesh, element
    axis last: `areas` (ne,), basis gradients `grads` (3, 2, ne) and exact
    local mass matrices `local_mass` (3, 3, ne)."""

    def __init__(self, mesh: Mesh):
        x, y = corners(mesh.vertices, mesh.triangles)
        self.areas = signed_areas(mesh.vertices, mesh.triangles, (x, y))
        # grad phi_i is the edge opposite corner i, p_{i+2} - p_{i+1},
        # turned by a quarter and divided by twice the area
        ex = x[[2, 0, 1]] - x[[1, 2, 0]]
        ey = y[[2, 0, 1]] - y[[1, 2, 0]]
        self.grads = np.stack([-ey, ex], axis=1) / (2 * self.areas)

    @cached_property
    def local_mass(self):
        """(3, 3, ne) exact P1 element mass matrices."""
        base = (np.ones((3, 3)) + np.eye(3)) / 12.0
        return base[:, :, None] * self.areas


def geometry(mesh: Mesh) -> Geometry:
    geo = getattr(mesh, "_geometry", None)
    if geo is None:
        geo = Geometry(mesh)
        mesh._geometry = geo
    return geo


def element_values(mesh: Mesh, values):
    """Nodal values at each element's corners, element axis last: (3, ne)
    for (n,) values, (3, k, ne) for (n, k)."""
    values = np.asarray(values)
    if values.ndim == 1:
        return values[mesh.triangles.T]
    # one gather per column: a strided source gathers three times slower
    return np.stack([col[mesh.triangles.T] for col in values.T], axis=1)


def _dot3(a, b):
    """sum_i a[i] b[i] over a leading axis of length 3, left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def elem_grad(f: ScalarField):
    """Constant per-element gradient of a P1 scalar field, (2, ne)."""
    return _dot3(element_values(f.mesh, f.values)[:, None],
                geometry(f.mesh).grads)


def elem_jacobian(v: VectorField):
    """Constant per-element Jacobian DV of a P1 vector field, (2, 2, ne):
    DV[a, b] = d V_a / d x_b."""
    return _dot3(element_values(v.mesh, v.values)[:, :, None],
                geometry(v.mesh).grads[:, None])


def divergence(v: VectorField):
    """Per-element divergence of a P1 vector field, (ne,)."""
    jac = elem_jacobian(v)
    return jac[0, 0] + jac[1, 1]


def _stiffness_local(weights, grads):
    """(3, 3, ne) local matrices weights <grad phi_i, grad phi_j>."""
    wg = weights * grads
    return (wg[:, None, 0] * grads[None, :, 0]
            + wg[:, None, 1] * grads[None, :, 1])


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
    patterns: "ScatterPatterns | None" = None   # that filled `matrix`

    @cached_property
    def constrained_matrix(self):
        return apply_dirichlet(self.matrix, self.constrained, self.patterns)

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


def apply_dirichlet(matrix, constrained, patterns=None):
    """CSR copy of `matrix` with identity rows and columns at the
    constrained dofs (symmetric Dirichlet elimination).

    Of the canonical CSR entries it keeps those outside every constrained
    row and column that are not exactly zero, and gives each constrained
    row its diagonal alone.  This gives the same `indptr`, `indices` and
    `data`, bit for bit, as zeroing those rows and columns in a LIL copy
    and adding the identity on the constrained diagonal, whose CSR addition
    sorts indices and drops zero sums.  Dropping the stored zeros matters:
    they would change SuperLU's ordering.

    `patterns` are the `ScatterPatterns` the matrix may have been filled
    from.  They keep, per constrained set, where the entries of their
    structure go, so that a call on a matrix of that structure only checks
    that no kept entry is exactly zero and copies; a matrix of another
    structure, or one with such a zero, takes the positions from its own
    arrays.
    """
    if len(constrained) == 0:
        return matrix.tocsr()
    mat = matrix.tocsr()
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    elim = None if patterns is None else \
        patterns.elimination(mat, constrained)
    kept = None if elim is None else mat.data[elim.kept]
    if kept is None or not np.all(kept):
        elim = _elimination(mat.indptr, mat.indices, constrained,
                            mat.data != 0)
        kept = mat.data[elim.kept]
    data = np.empty(elim.indices.size)
    data[elim.on_diag], data[elim.off_diag] = elim.diag, kept
    return sp.csr_matrix((data, elim.indices.copy(), elim.indptr.copy()),
                         shape=mat.shape)


@dataclass(frozen=True)
class _Elimination:
    """Where `apply_dirichlet` puts the entries of one CSR structure: entry
    `off_diag[q]` of the result is entry `kept[q]` of the input, and entry
    `on_diag[k]` is the k-th constrained diagonal, of value `diag[k]`."""

    kept: np.ndarray
    off_diag: np.ndarray
    on_diag: np.ndarray
    diag: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _elimination(indptr, indices, constrained, keep) -> _Elimination:
    """The elimination of `constrained` from a canonical CSR structure,
    keeping of its entries those in `keep` (a mask, or True for all) that
    lie outside every constrained row and column."""
    n = indptr.size - 1
    # the constrained diagonal: 1, or 2 for a dof listed twice, as the
    # duplicate-summing identity of the LIL path gave
    listed = np.bincount(constrained, minlength=n)
    is_c = listed > 0
    keep = keep & ~is_c[indices]
    keep &= ~np.repeat(is_c, np.diff(indptr))
    kept = np.concatenate([[0], np.cumsum(keep)])[indptr]
    out_ptr = np.zeros(n + 1, dtype=indptr.dtype)
    np.cumsum(np.diff(kept) + is_c, out=out_ptr[1:])
    # a constrained row holds its diagonal only: the first slot of the row
    diag = np.flatnonzero(is_c)
    on_diag = np.zeros(out_ptr[-1], dtype=bool)
    on_diag[out_ptr[diag]] = True
    out_idx = np.empty(out_ptr[-1], dtype=indices.dtype)
    out_idx[on_diag], out_idx[~on_diag] = diag, indices[keep]
    return _Elimination(np.flatnonzero(keep), np.flatnonzero(~on_diag),
                        out_ptr[diag], listed[diag], out_idx, out_ptr)


@dataclass(frozen=True)
class _CsrPattern:
    """Where each entry of an (r, c, ne) local array goes in one CSR matrix:
    CSR entry `slot[q]` sums local entry `order[q]` (an index into the flat
    local array), for q in order."""

    order: np.ndarray
    slot: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


def _frozen_parts(parts):
    """`parts` as views of one read-only buffer.  A run keeps its patterns
    through every iterate, and four arrays per pattern left holes in the
    heap that raised the `newton` benchmark's peak RSS by 5 % (1 % with one
    buffer)."""
    buf = np.concatenate(parts)
    buf.setflags(write=False)
    return np.split(buf, np.cumsum([p.size for p in parts[:-1]]))


def _build_pattern(row_dofs, col_dofs, shape) -> _CsrPattern:
    """The CSR pattern of scattering onto `row_dofs` x `col_dofs`.

    It runs scipy's own COO-to-CSR conversion, and its index sort unless
    every row is sorted already, on the COO entries in the (ne, r, c)
    order, carrying each entry's index in the flat (r, c, ne) local array:
    `order` is then the order in which `tocsr` sums the entries of each
    CSR slot.  The conversion is a stable counting sort and the index sort
    compares columns only, so what they carry does not change the order.
    """
    ne, r = row_dofs.shape
    c = col_dofs.shape[1]
    rows = np.repeat(row_dofs.astype(np.int32), c, axis=1).reshape(-1)
    cols = np.tile(col_dofs.astype(np.int32), (1, r)).reshape(-1)
    nnz = rows.size
    indptr = np.empty(shape[0] + 1, dtype=np.int32)
    indices = np.empty(nnz, dtype=np.int32)
    order = np.empty(nnz, dtype=np.int32)
    _sparsetools.coo_tocsr(
        shape[0], shape[1], nnz, rows, cols,
        np.arange(nnz, dtype=np.int32).reshape(r * c, ne).T.reshape(-1),
        indptr, indices, order)
    if not _sparsetools.csr_has_sorted_indices(shape[0], indptr, indices):
        _sparsetools.csr_sort_indices(shape[0], indptr, indices, order)
    # a slot starts at each row start and at each change of column
    starts = np.ones(nnz, dtype=bool)
    starts[1:] = indices[1:] != indices[:-1]
    starts[indptr[:-1][indptr[:-1] < nnz]] = True
    first = np.flatnonzero(starts)
    return _CsrPattern(*_frozen_parts([
        order, np.cumsum(starts, dtype=np.int32) - 1,
        indices[first], np.searchsorted(first, indptr).astype(np.int32)]),
        shape)


@dataclass(frozen=True)
class _LoadPattern:
    """Where each entry of an (r, ne) local array goes in one vector: dof
    `slot[q]` sums local entry `order[q]`, for q in order."""

    order: np.ndarray
    slot: np.ndarray
    size: int


def _build_load(dofs, size) -> _LoadPattern:
    """The pattern of summing onto `dofs` in element order, as `np.add.at`
    on the (ne, r) layout sums."""
    ne, r = dofs.shape
    by_dof = np.argsort(dofs.reshape(-1), kind="stable")
    return _LoadPattern(*_frozen_parts([
        ((by_dof % r) * ne + by_dof // r).astype(np.int32),
        dofs.reshape(-1)[by_dof].astype(np.int32)]), size)


class ScatterPatterns:
    """The CSR patterns of the scatters on one triangle array.

    The connectivity of an iterate never changes (`Mesh.with_vertices`
    keeps the triangle array), so each kind of scatter builds its pattern
    once, on first use, and every later assembly on a mesh with these
    triangles (the same array, not an equal one) only sums its local
    entries into it.  The kinds are the dofs per vertex of the rows and of
    the columns: (1, 1) for K, M and the metric block, (1, 2) for
    L_lambdaOmega and L_uOmega, and (2, 2) for L_OmegaOmega; a load vector
    (the shape derivative) has one kind per dofs per vertex.  The
    Dirichlet eliminations of each constrained set on a square pattern are
    kept too (`elimination`).  The patterns hold no mesh, so that a run can
    own one object for all its iterates and drop it when it returns.  Each
    matrix gets its own copy of the index arrays, so it may be changed in
    place.

    Local arrays have the element axis last, (r, c, ne) for matrices and
    (r, ne) for vectors, with r and c 3 (one dof per corner) or 6 (two,
    interleaved as `vector_dofs`).
    """

    def __init__(self, mesh: Mesh):
        self.triangles = mesh.triangles
        self.num_vertices = mesh.num_vertices
        self._patterns = {}
        self._loads = {}
        self._eliminations = {}

    def _dofs(self, per_vertex):
        return self.triangles if per_vertex == 1 \
            else vector_dofs(self.triangles)

    def _check(self, mesh, local, ndim):
        if mesh.triangles is not self.triangles:
            raise FemError("the mesh has other triangles than the patterns")
        ne = self.triangles.shape[0]
        shape = np.shape(local)
        if len(shape) != ndim or shape[-1] != ne or \
                any(k not in (3, 6) for k in shape[:-1]):
            raise FemError(f"local array of shape {shape}: it needs "
                           f"{ndim - 1} axes of length 3 or 6, then {ne}")
        return tuple(k // 3 for k in shape[:-1])

    def scatter(self, mesh, local):
        """Assemble (r, c, ne) local matrices into a global CSR matrix."""
        kind = self._check(mesh, local, 3)
        pattern = self._patterns.get(kind)
        if pattern is None:
            pattern = self._patterns[kind] = _build_pattern(
                self._dofs(kind[0]), self._dofs(kind[1]),
                (self.num_vertices * kind[0], self.num_vertices * kind[1]))
        data = np.bincount(pattern.slot, minlength=pattern.indices.size,
                           weights=local.reshape(-1)[pattern.order])
        return sp.csr_matrix(
            (data, pattern.indices.copy(), pattern.indptr.copy()),
            shape=pattern.shape)

    def load(self, mesh, local):
        """Sum (r, ne) local vectors into a global vector, each dof's
        entries in element order."""
        (kind,) = self._check(mesh, local, 2)
        pattern = self._loads.get(kind)
        if pattern is None:
            pattern = self._loads[kind] = _build_load(
                self._dofs(kind), self.num_vertices * kind)
        return np.bincount(pattern.slot, minlength=pattern.size,
                           weights=local.reshape(-1)[pattern.order])

    def elimination(self, matrix, constrained):
        """The `_Elimination` of `constrained` from a canonical CSR matrix
        with the structure of one of the square patterns, or None."""
        for kind, pattern in self._patterns.items():
            if (pattern.shape == matrix.shape
                    and np.array_equal(pattern.indptr, matrix.indptr)
                    and np.array_equal(pattern.indices, matrix.indices)):
                key = (kind, np.asarray(constrained).tobytes())
                elim = self._eliminations.get(key)
                if elim is None:
                    elim = self._eliminations[key] = _Elimination(
                        *_frozen_parts([a.astype(np.int32) for a in vars(
                            _elimination(pattern.indptr, pattern.indices,
                                         constrained, True)).values()]))
                return elim
        return None


def _scatter(mesh, local, patterns=None):
    """Assemble (r, c, ne) local matrices into a global CSR matrix.

    Each element's local rows and columns map to the dofs of its vertices:
    r = 3 (one dof per vertex) or 6 (two, interleaved as `vector_dofs`),
    and c likewise.  The pattern comes from `patterns`, or from a fresh
    `ScatterPatterns` of the mesh.  The result equals `coo_matrix.tocsr()`
    of the (ne, r, c) layout bit for bit: `np.bincount` sums each slot's
    entries in `tocsr`'s order, one after the other, as
    `csr_sum_duplicates` does.  The one exception is a slot whose every
    entry is -0.0, which sums to +0.0.
    """
    patterns = ScatterPatterns(mesh) if patterns is None else patterns
    return patterns.scatter(mesh, local)


def assemble_scalar_laplace(mesh: Mesh, mu, patterns=None) -> SparseOperator:
    """Stiffness matrix of the form (w, v) -> int mu <grad w, grad v>.

    `mu` is a positive conductivity, one for all elements or (ne,) per
    element.
    """
    mu_e = np.broadcast_to(np.asarray(mu, dtype=float), (mesh.num_triangles,))
    if np.any(mu_e <= 0):
        raise FemError("conductivity must be positive")
    geo = geometry(mesh)
    patterns = ScatterPatterns(mesh) if patterns is None else patterns
    local = _stiffness_local(mu_e * geo.areas, geo.grads)
    return SparseOperator(patterns.scatter(mesh, local), _NONE, patterns)


def assemble_mass(mesh: Mesh, patterns=None) -> SparseOperator:
    patterns = ScatterPatterns(mesh) if patterns is None else patterns
    return SparseOperator(patterns.scatter(mesh, geometry(mesh).local_mass),
                          _NONE, patterns)


def assemble_vector_h1_form(mesh: Mesh, eps1: float, eps2: float,
                            patterns=None) -> VectorOperator:
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
    patterns = ScatterPatterns(mesh) if patterns is None else patterns
    kloc = _stiffness_local(geo.areas, geo.grads)
    block = patterns.scatter(mesh, eps1 * (geo.local_mass + eps2 * kloc))
    return VectorOperator(SparseOperator(block, _NONE, patterns))


def vector_dofs(vertex_indices):
    """Expand vertex indices to interleaved (x, y) dof indices along the
    last axis: [a, b] -> [2a, 2a+1, 2b, 2b+1], also per row of an array."""
    vi = np.asarray(vertex_indices, dtype=np.int64)
    return np.stack([2 * vi, 2 * vi + 1], axis=-1).reshape(*vi.shape[:-1], -1)


def with_constraints(op: SparseOperator, constrained) -> SparseOperator:
    return SparseOperator(op.matrix, np.asarray(constrained, dtype=np.int64),
                          op.patterns)
