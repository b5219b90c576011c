"""P1 finite-element kernel on triangle meshes.

Element calculus of nodal fields, exact element quadrature, assembly of
the scalar stiffness, mass and vector H1 forms, and sparse solves on the
free x free block of a Dirichlet-constrained operator: one SuperLU call
per factorization and Chebyshev iteration for the mass, each checked
once by its residual.  Assembly fills CSR patterns derived from one 3x3
pattern per triangle array (`ScatterPatterns`), each entry summing its
local entries in the flat order of the local array.  Each assembly takes
the operator's constrained vertex set and hands it the gather of its free
block in CSC, which the patterns keep once per set (`_Restriction`).

A P1 field is the plain array of its nodal values: (n,) for a scalar
field, (n, 2) for a vector field, whose flat view is the 2n vector on
interleaved (x, y) dofs (`vector_dofs`) that the operators act on.

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

from .mesh import Mesh, corners, signed_areas


class FemError(ValueError):
    pass


class SingularSystemError(RuntimeError):
    pass


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


def elem_grad(mesh: Mesh, values):
    """Constant per-element gradient of the P1 scalar field of (n,) nodal
    `values`, (2, ne)."""
    return _dot3(element_values(mesh, values)[:, None], geometry(mesh).grads)


def elem_jacobian(mesh: Mesh, values):
    """Constant per-element Jacobian DV of the P1 vector field of (n, 2)
    nodal `values`, (2, 2, ne): DV[a, b] = d V_a / d x_b."""
    return _dot3(element_values(mesh, values)[:, :, None],
                geometry(mesh).grads[:, None])


def _stiffness_local(weights, grads):
    """(3, 3, ne) local matrices weights <grad phi_i, grad phi_j>."""
    wg = weights * grads
    return (wg[:, None, 0] * grads[None, :, 0]
            + wg[:, None, 1] * grads[None, :, 1])


@dataclass
class SparseOperator:
    """Assembled symmetric bilinear form with Dirichlet handling.

    `matrix` is the unconstrained operator, filled on the square (1, 1)
    pattern of a `ScatterPatterns`.  `constrained` lists the dofs held at
    given values (zero by default): a solve runs on the free x free block
    of `matrix` (`free_block`, in CSC), gathered by `restriction`, the
    `_Restriction` the patterns keep for that set, which the assembly
    passes in.

    The block is factorized by one SuperLU call in symmetric mode:
    diagonal pivots only, on a minimum-degree ordering of A + A^T computed
    on every call, with panels of one column.  That assumes it is
    symmetric positive definite, as every block built here is (stiffness,
    mass and the metric block); nothing nonsymmetric or indefinite may go
    through `_factor`.  A singular block (the pure-Neumann stiffness) is
    caught by the residual check of `solve_free`.
    """

    matrix: sp.csr_matrix
    constrained: np.ndarray
    restriction: "_Restriction"

    @cached_property
    def free_block(self):
        return apply_dirichlet(self.matrix, self.restriction)

    @cached_property
    def _factor(self):
        # panel_size=1: K's block at h=0.01 factorizes in 15.7 ms against
        # 19.0 ms with SuperLU's default panel, with the same L + U fill
        try:
            return spla.splu(self.free_block, permc_spec="MMD_AT_PLUS_A",
                             panel_size=1, diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc

    def energy(self, x, y=None):
        y = x if y is None else y
        return float(x @ (self.matrix @ y))

    def solve_constrained(self, rhs, bc_values=None):
        """Solve for (n,) or (n, k) `rhs` on the free block (`solve_free`),
        with homogeneous (or given) values at the constrained dofs."""
        rhs = np.asarray(rhs, dtype=float)
        if bc_values is not None:
            lift = np.zeros_like(rhs)
            lift[self.constrained] = bc_values
            rhs = rhs - self.matrix @ lift
        r = self.restriction
        x = r.extend(self.solve_free(r.restrict(rhs)))
        return x if bc_values is None else x + lift

    def solve_free(self, rhs):
        """One factor solve of the free block, then one residual check."""
        return _checked(self.free_block, self._factor.solve(rhs), rhs,
                        "linear solve")


def _checked(block, x, rhs, what):
    """`x` if |block @ x - rhs| <= SOLVE_RTOL max(|rhs|, 1), else raise."""
    scale = max(np.linalg.norm(rhs), 1.0)
    res = np.linalg.norm(block @ x - rhs)
    if not np.isfinite(res) or res > SOLVE_RTOL * scale:
        raise SingularSystemError(
            f"{what} residual {res:.3e} exceeds tolerance")
    return x


class _Restriction:
    """The free x free block of one canonical CSR structure for one set of
    constrained dofs, gathered in CSC order, the format SuperLU takes.

    Entry k of the block's CSC data is entry `take[k]` of the structure's
    data: every entry in a free row and a free column, stored zeros too,
    ordered by column, then row, so that every matrix of the structure
    gives a block of one structure.  `indices` and `indptr` are the
    block's CSC arrays.  `free` lists the free dofs in ascending order;
    `slot` gives each dof its row in the block, or the row past its end
    for a constrained dof.
    """

    def __init__(self, indptr, indices, constrained):
        n = indptr.size - 1
        is_free = np.ones(n, dtype=bool)
        is_free[constrained] = False
        free = np.flatnonzero(is_free)
        slot = np.full(n, free.size)
        slot[free] = np.arange(free.size)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        take = np.flatnonzero(is_free[rows] & is_free[indices])
        # the CSR order has ascending rows, so a stable sort by column
        # keeps each column's rows ascending
        take = take[np.argsort(indices[take], kind="stable")]
        self.free, self.slot, self.take, self.indices, self.indptr = \
            _frozen_parts([a.astype(np.int32) for a in (
                free, slot, take, slot[rows[take]],
                np.searchsorted(slot[indices[take]],
                                np.arange(free.size + 1)))])

    # `np.take` gathers the rows of a two-column array several times faster
    # than indexing does, and puts them back faster than an assignment
    def restrict(self, x):
        """The free rows of (n,) or (n, k) `x`."""
        return np.take(x, self.free, axis=0)

    def extend(self, x):
        """The (n,) or (n, k) array of free rows `x`, zero elsewhere."""
        return np.take(np.concatenate([x, np.zeros((1, *x.shape[1:]))]),
                       self.slot, axis=0)


# the residual check of every solve (`_checked`), relative to max(|b|, 1)
SOLVE_RTOL = 1e-8
# Chebyshev steps of `solve_mass`: its error factor 2 * 3**-k is 1e-14 at 30
MASS_STEPS = 30


def solve_mass(op: SparseOperator, rhs):
    """Solve a constrained P1 mass system with homogeneous values at the
    constrained dofs, by Chebyshev iteration on the Jacobi-scaled free
    block S = D^-1/2 M D^-1/2.

    Each element mass is |T|/12 (J + I), so scaled by its diagonal
    |T|/6 I its eigenvalues are 2 (the constant) and 1/2 (twice).  For
    areas |T| > 0 the assembled quotient x^T M x / x^T D x, a ratio of sums
    of element terms, then lies in [1/2, 2], and the free block's spectrum
    interlaces inside it.  On [1/2, 2] (condition 4) k Chebyshev steps
    reduce the M-norm error by 1/T_k(5/3) <= 2 * 3**-k, and so the relative
    error of r . M^-1 r: `MASS_STEPS` fixed steps need no inner product and
    no stopping test.  `rhs` is (n,) or (n, k).  The final residual is
    checked as by `SparseOperator.solve_free`, at `SOLVE_RTOL`: an operator
    whose scaled spectrum leaves [1/2, 2], such as a stiffness, fails it
    (SingularSystemError).
    """
    mat = op.free_block
    rhs = op.restriction.restrict(np.asarray(rhs, dtype=float))
    s = 1.0 / np.sqrt(mat.diagonal())
    cols = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))
    scaled = sp.csc_matrix((mat.data * s[mat.indices] * s[cols],
                            mat.indices, mat.indptr), shape=mat.shape)
    s = s[:, None] if rhs.ndim == 2 else s
    theta, delta = 1.25, 0.75            # centre and half-width of [1/2, 2]
    sigma = theta / delta
    rho = 1.0 / sigma
    r = s * rhs                          # S y = D^-1/2 rhs, x = D^-1/2 y
    y = np.zeros_like(r)
    d = r / theta
    for _ in range(MASS_STEPS - 1):
        y += d
        r -= scaled @ d
        rho_next = 1.0 / (2.0 * sigma - rho)
        d *= rho_next * rho
        d += (2.0 * rho_next / delta) * r
        rho = rho_next
    return op.restriction.extend(
        _checked(mat, s * (y + d), rhs, "mass solve"))


@dataclass
class VectorOperator:
    """The form I2 (x) B on interleaved (x, y) vertex dofs: B applied to each
    component of a P1 vector field, for a scalar operator `block` = B.

    Only B (n x n) is stored and factorized: `metric @ x` applies B to the
    (n, 2) view of a 2n vector, and a solve takes both components as one
    two-column right-hand side on B's factorization.  `constrained` is both
    dofs of each of B's constrained vertices, and `restrict` keeps the rest.
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

    def restrict(self, x):
        return self.block.restriction.restrict(x.reshape(-1, 2)).reshape(-1)

    def extend(self, x):
        return self.block.restriction.extend(x.reshape(-1, 2)).reshape(-1)

    def solve_free(self, rhs):
        return self.block.solve_free(rhs.reshape(-1, 2)).reshape(-1)

    def solve_constrained(self, rhs):
        """Solve with homogeneous values at the constrained dofs."""
        x = self.block.solve_constrained(np.reshape(rhs, (-1, 2)))
        return x.reshape(np.shape(rhs))


def apply_dirichlet(matrix, restriction: _Restriction):
    """The free x free block of the canonical CSR `matrix`, in CSC, the
    format SuperLU takes: one gather of its data by `restriction`, a
    `_Restriction` of its structure, stored zeros kept."""
    r = restriction
    return sp.csc_matrix((matrix.data[r.take], r.indices.copy(),
                          r.indptr.copy()), shape=(r.free.size,) * 2)


@dataclass(frozen=True)
class _CsrPattern:
    """Where each entry of an (r, c, ne) local array goes in one CSR matrix:
    entry q of the flat local array adds to CSR entry `slot[q]`."""

    slot: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


def _frozen_parts(parts):
    """`parts` as views of one read-only buffer.  A run keeps its patterns
    through every iterate, and separate arrays per pattern left holes in
    the heap: with four of them, the `newton` benchmark's peak RSS rose by
    5 % (1 % with one buffer)."""
    buf = np.concatenate(parts)
    buf.setflags(write=False)
    return np.split(buf, np.cumsum([p.size for p in parts[:-1]]))


def _kind_pattern(square_slot, square_ptr, triangles, kind) -> _CsrPattern:
    """The pattern of kind (kr, kc), derived from the 3x3 one by arithmetic.

    `square_slot` is the 3x3 slot of each entry of the flat (3, 3, ne)
    local array and `square_ptr` the 3x3 `indptr`.  Row kr v + a holds the
    columns kc c + b of 3x3 row v, in that order, so the local entry
    (kr i + a, kc j + b, e) goes to slot kc s + (kr - 1) kc ptr[v_i]
    + a kc len[v_i] + b, with s its 3x3 slot and ptr, len the start and
    length of the 3x3 row of v_i.  Each row's columns ascend, as in
    scipy's COO-to-CSR conversion of the same entries.
    """
    kr, kc = kind
    ne = triangles.shape[0]
    start, length = square_ptr[:-1], np.diff(square_ptr)
    # axes (i, a, j, b, e) of the (3 kr, 3 kc, ne) local array
    vi = triangles.T[:, None, None, None]
    a = np.arange(kr, dtype=np.int32)[:, None, None, None]
    b = np.arange(kc, dtype=np.int32)[:, None]
    slot = (kc * square_slot.reshape(3, 1, 3, 1, ne)
            + (kr - 1) * kc * start[vi] + a * kc * length[vi] + b)
    indices = np.empty(kr * kc * square_ptr[-1], dtype=np.int32)
    indices[slot] = kc * triangles.T[:, None] + b
    indptr = np.zeros(kr * length.size + 1, dtype=np.int32)
    np.cumsum(np.repeat(kc * length, kr), out=indptr[1:])
    return _CsrPattern(*_frozen_parts([
        slot.reshape(-1), indices, indptr]),
        (kr * length.size, kc * length.size))


class ScatterPatterns:
    """The CSR patterns of the scatters on one triangle array.

    The connectivity of an iterate never changes (`Mesh.with_vertices`
    keeps the triangle array), so the 3x3 pattern is built once, by one
    `np.unique` over the keys row * n + col of the flat (3, 3, ne) local
    array, and each kind of scatter derives its own from it on first use
    (`_kind_pattern`).  Every later assembly on a mesh with these triangles
    (the same array, not an equal one) only sums its local entries into
    it.  The kinds are the dofs per vertex of the rows and of the columns:
    (1, 1) for K, M and the metric block, (1, 2) for L_lambdaOmega and
    L_uOmega, and (2, 2) for L_OmegaOmega.  Every `SparseOperator` is
    filled on the (1, 1) pattern, so the gather of the free x free block
    of each of their constrained sets is kept on it (`restriction`),
    which each assembly hands its operator.  The patterns
    hold no mesh, so that a run can own one object for all its iterates
    and drop it when it returns.  Each matrix gets its own copy of the
    index arrays, so it may be changed in place.

    Local arrays have the element axis last, (r, c, ne) for matrices and
    (r, ne) for vectors, with r and c 3 (one dof per corner) or 6 (two,
    interleaved as `vector_dofs`).  Each global entry sums its local
    entries in the flat order of the local array, one after the other, as
    `np.add.at` on the flat array would.
    """

    def __init__(self, mesh: Mesh):
        self.triangles = mesh.triangles
        self.num_vertices = n = mesh.num_vertices
        tri = self.triangles.T
        keys, slot = np.unique(n * tri[:, None] + tri[None, :],
                               return_inverse=True)
        # row v's keys are those in [v n, (v + 1) n)
        self._square = _frozen_parts([
            slot.reshape(-1).astype(np.int32),
            np.searchsorted(keys, n * np.arange(n + 1)).astype(np.int32)])
        self._patterns = {}
        self._restrictions = {}

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

    def _pattern(self, kind):
        pattern = self._patterns.get(kind)
        if pattern is None:
            pattern = self._patterns[kind] = _kind_pattern(
                *self._square, self.triangles, kind)
        return pattern

    def scatter(self, mesh, local):
        """Assemble (r, c, ne) local matrices into a global CSR matrix."""
        pattern = self._pattern(self._check(mesh, local, 3))
        data = np.bincount(pattern.slot, weights=local.reshape(-1),
                           minlength=pattern.indices.size)
        return sp.csr_matrix(
            (data, pattern.indices.copy(), pattern.indptr.copy()),
            shape=pattern.shape)

    def load(self, mesh, local):
        """Sum (r, ne) local vectors into a global vector."""
        (kind,) = self._check(mesh, local, 2)
        dofs = self.triangles if kind == 1 else vector_dofs(self.triangles)
        return np.bincount(dofs.T.reshape(-1), weights=local.reshape(-1),
                           minlength=self.num_vertices * kind)

    def restriction(self, constrained) -> _Restriction:
        """The `_Restriction` of `constrained` on the square (1, 1) pattern,
        which fills every `SparseOperator`: built for the first assembly
        constrained on that set and kept for every later one."""
        key = np.asarray(constrained).tobytes()
        restriction = self._restrictions.get(key)
        if restriction is None:
            pattern = self._pattern((1, 1))
            restriction = self._restrictions[key] = _Restriction(
                pattern.indptr, pattern.indices, constrained)
        return restriction


def _operator(mesh, patterns, local, constrained) -> SparseOperator:
    """The `SparseOperator` of (3, 3, ne) `local` matrices, constrained on
    the vertex set `constrained` (none if None)."""
    constrained = np.asarray([] if constrained is None else constrained,
                             dtype=np.int64)
    patterns = ScatterPatterns(mesh) if patterns is None else patterns
    return SparseOperator(patterns.scatter(mesh, local), constrained,
                          patterns.restriction(constrained))


def assemble_scalar_laplace(mesh: Mesh, mu, patterns=None,
                            constrained=None) -> SparseOperator:
    """Stiffness matrix of the form (w, v) -> int mu <grad w, grad v>,
    constrained on the vertices `constrained` (none by default).

    `mu` is a positive conductivity, one for all elements or (ne,) per
    element.
    """
    mu_e = np.broadcast_to(np.asarray(mu, dtype=float), (mesh.num_triangles,))
    if np.any(mu_e <= 0):
        raise FemError("conductivity must be positive")
    geo = geometry(mesh)
    local = _stiffness_local(mu_e * geo.areas, geo.grads)
    return _operator(mesh, patterns, local, constrained)


def assemble_mass(mesh: Mesh, patterns=None,
                  constrained=None) -> SparseOperator:
    """P1 mass matrix, constrained on the vertices `constrained` (none by
    default)."""
    return _operator(mesh, patterns, geometry(mesh).local_mass, constrained)


def assemble_vector_h1_form(mesh: Mesh, eps1: float, eps2: float,
                            patterns=None, constrained=None) -> VectorOperator:
    """Deformation metric b(W, V) = int eps1 (<W,V> + eps2 <DW,DV>_F).

    Serves both as the Riesz metric for the shape gradient and as the
    Tikhonov term of the regularized Newton system.  b = I2 (x) B with the
    scalar block B = eps1 (M + eps2 K1) (mass plus unit stiffness), which
    is all that is assembled and, constrained on the vertices
    `constrained` (none by default), factorized.
    """
    if eps1 <= 0:
        raise FemError("eps1 must be positive (metric must be an inner product)")
    if eps2 < 0:
        raise FemError("eps2 must be nonnegative")
    geo = geometry(mesh)
    kloc = _stiffness_local(geo.areas, geo.grads)
    return VectorOperator(_operator(
        mesh, patterns, eps1 * (geo.local_mass + eps2 * kloc), constrained))


def vector_dofs(vertex_indices):
    """Expand vertex indices to interleaved (x, y) dof indices along the
    last axis: [a, b] -> [2a, 2a+1, 2b, 2b+1], also per row of an array."""
    vi = np.asarray(vertex_indices, dtype=np.int64)
    return np.stack([2 * vi, 2 * vi + 1], axis=-1).reshape(*vi.shape[:-1], -1)
