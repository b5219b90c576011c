"""Interface identification model: state, adjoint, objective, target data.

The potential u solves div(mu grad u) = 0 on the unit square with u = 0 on
the bottom, u = 1 on the top and insulated sides; mu is elementwise constant
and determined by the region tag.  The target potential z is produced on a
frozen background mesh holding the true elliptic inclusion and treated as a
fixed (Eulerian) field: after every mesh deformation it is re-evaluated at
the new vertex positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from . import fem
from .fem import ScalarField, SparseOperator, VectorOperator
from .mesh import (GAMMA_BOTTOM, GAMMA_TOP, InclusionShape, Mesh,
                   REGION_INCLUSION, generate_mesh)

TRUE_ELLIPSE = InclusionShape.ellipse((0.5, 0.5), (0.25, 0.125))


def check_fields(owner, positive=(), nonnegative=()):
    """ValueError naming the first field of `owner` that is not finite and
    > 0 (`positive`) or >= 0 (`nonnegative`); NaN passes a `<= 0` test."""
    for names, ok, kind in [(positive, lambda x: x > 0, "positive"),
                            (nonnegative, lambda x: x >= 0, "nonnegative")]:
        for name in names:
            value = getattr(owner, name)
            if not (math.isfinite(value) and ok(value)):
                raise ValueError(f"{name} must be finite and {kind}, "
                                 f"got {value!r}")


@dataclass(frozen=True)
class ProblemConfig:
    """Physical parameters of the reconstruction problem."""

    alpha: float = 1e-6
    mu_in: float = 1e-6
    mu_out: float = 1.0

    def __post_init__(self):
        check_fields(self, positive=("mu_in", "mu_out"),
                     nonnegative=("alpha",))

    def mu(self, mesh):
        """Per-element conductivity of `mesh`, (ne,), for every assembly."""
        return np.where(mesh.region == REGION_INCLUSION, self.mu_in,
                        self.mu_out)


class Located:
    """Containing background element and barycentrics of each located point."""

    def __init__(self, elements, bary):
        self.elements = elements
        self.bary = bary

    def __len__(self):
        return len(self.elements)


class _PointLocator:
    """Uniform-grid bucket search for the triangles containing points.

    The buckets are CSR arrays: bucket ``i * nx + j`` (cell column i, row j)
    lists, in ascending order, every element whose bounding box meets it.
    Each element also keeps that box widened by `BOX_MARGIN`: a point whose
    barycentrics are all >= -1e-12 lies far inside it, so barycentrics are
    solved only for the bucket candidates whose widened box holds the
    point.  That changes neither the first hit nor its barycentrics; a point
    in no candidate still has every candidate solved for its clamp.
    """

    BOX_MARGIN = 1e-9

    def __init__(self, mesh: Mesh):
        pts = mesh.vertices[mesh.triangles]
        lo = pts.min(axis=1)
        hi = pts.max(axis=1)
        diam = (hi - lo).max(axis=1)
        self.cell = max(float(np.median(diam)) * 2.0, 1e-6)
        self.nx = max(1, int(math.ceil(1.0 / self.cell)))
        c0 = self._cells(lo)
        ni, nj = (self._cells(hi) - c0 + 1).T
        elems, k = _expand(ni * nj)
        keys = ((c0[elems, 0] + k // nj[elems]) * self.nx
                + c0[elems, 1] + k % nj[elems])
        # the stable sort keeps each bucket's elements in ascending order
        self.bucket_elems = elems[np.argsort(keys, kind="stable")]
        self.bucket_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(keys, minlength=self.nx ** 2))])
        self.box_lo = lo - self.BOX_MARGIN
        self.box_hi = hi + self.BOX_MARGIN
        # element e maps (s, t) to origin[e] + affine[e] @ (s, t)
        self.origin = pts[:, 0]
        self.affine = np.stack([pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]],
                               axis=2)
        self.centroid_tree = cKDTree(pts.mean(axis=1))

    def _cells(self, p):
        """Grid cell (column, row) of each point, clamped to the grid."""
        return np.clip(p / self.cell, 0, self.nx - 1).astype(np.int64)

    def _bary(self, elems, points):
        """Barycentrics of points[k] in element elems[k], (n, 3)."""
        st = np.linalg.solve(self.affine[elems],
                             (points - self.origin[elems])[:, :, None])[:, :, 0]
        return np.column_stack([1 - st[:, 0] - st[:, 1], st[:, 0], st[:, 1]])

    def locate(self, points, tol=1e-12):
        points = np.asarray(points, dtype=float)
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        cells = self._cells(points)
        key = cells[:, 0] * self.nx + cells[:, 1]
        start = self.bucket_ptr[key]
        owner, k = _expand(self.bucket_ptr[key + 1] - start)
        # every (point, bucket candidate) pair, by point, in bucket order
        cand = self.bucket_elems[start[owner] + k]
        xy = points[owner]
        boxed = np.flatnonzero(((self.box_lo[cand] <= xy)
                                & (xy <= self.box_hi[cand])).all(axis=1))
        lam = self._bary(cand[boxed], xy[boxed])
        first = _first_per_owner(owner[boxed],
                                 np.flatnonzero(lam.min(axis=1) >= -tol))
        hit = boxed[first]
        elements = np.full(len(points), -1)
        bary = np.empty((len(points), 3))
        elements[owner[hit]] = cand[hit]
        bary[owner[hit]] = np.clip(lam[first], 0.0, None)
        miss = np.flatnonzero(elements < 0)
        if miss.size == 0:
            return Located(elements, bary)

        # clamp to the nearest element (point marginally outside the hull):
        # the nearest-centroid element, unless the bucket candidate with the
        # largest min barycentric (the first such) is less far outside
        _, near = self.centroid_tree.query(points[miss])
        e = np.asarray(near, dtype=np.int64)
        lam_m = self._bary(e, points[miss])
        pairs = np.flatnonzero(elements[owner] < 0)
        owner, cand = owner[pairs], cand[pairs]
        lam = self._bary(cand, xy[pairs])
        lmin = lam.min(axis=1)
        best = _first_per_owner(
            owner, np.lexsort((np.arange(len(owner)), -lmin, owner)))
        at = np.searchsorted(miss, owner[best])
        better = lmin[best] > lam_m[at].min(axis=1)
        e[at[better]] = cand[best[better]]
        lam_m[at[better]] = lam[best[better]]
        far = np.flatnonzero(lam_m.min(axis=1) < -1e-6)
        if far.size:
            raise ValueError(
                f"point {points[miss[far[0]]]} lies far outside the mesh")
        lam_m = np.clip(lam_m, 0.0, None)
        elements[miss] = e
        bary[miss] = lam_m / lam_m.sum(axis=1, keepdims=True)
        return Located(elements, bary)


def _expand(counts):
    """(owner, k) for k = 0..counts[owner]-1, for every owner in turn."""
    owner = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, k


def _first_per_owner(owner, pairs):
    """The first of `pairs` (grouped by owner) for each owner among them."""
    return pairs[np.diff(owner[pairs], prepend=-1) != 0]


class TargetField:
    """Target potential z frozen on its background mesh."""

    def __init__(self, background_mesh: Mesh, z: ScalarField):
        if z.mesh is not background_mesh:
            raise ValueError("z must live on the background mesh")
        self.mesh = background_mesh
        self.z = z
        self._last = None          # (points, Located) of the last lookup

    @cached_property
    def _locator(self):
        return _PointLocator(self.mesh)

    @cached_property
    def _grads(self):
        """(ne, 2) background gradients: `gradient_at` takes rows."""
        return np.ascontiguousarray(fem.elem_grad(self.z).T)

    def locate(self, points) -> Located:
        """Background element containing each point, with its barycentrics.

        Each point takes the first candidate of its grid bucket, in
        ascending element order, whose barycentrics are all >= -1e-12 (then
        clipped at 0).  A point in no candidate is clamped: it takes the
        element with the nearest centroid, or the bucket candidate it lies
        least far outside if that is closer, and its clipped barycentrics
        are renormalised.  A point more than 1e-6 (in barycentrics) outside
        every element raises ValueError.  `gradient_at` and
        `verify.mask_fields` rely on this deterministic tie-break on element
        boundaries.
        """
        return self._locator.locate(points)

    def _located(self, points) -> Located:
        """`locate`, reusing the last result for an equal points array (a
        copy is compared, so a different or mutated array is located)."""
        points = np.asarray(points, dtype=float)
        if self._last is None or not np.array_equal(self._last[0], points):
            self._last = (points.copy(), self.locate(points))
        return self._last[1]

    def interpolate(self, points):
        """Barycentric evaluation of z at arbitrary points in [0,1]^2."""
        loc = self._located(points)
        zv = self.z.values[self.mesh.triangles[loc.elements]]
        # a stacked (1x3)(3x1) matmul runs the same dot as lam @ zv per point
        return (loc.bary[:, None, :] @ zv[:, :, None])[:, 0, 0]

    def gradient_at(self, points):
        """Background-mesh gradient of z at each point, (npts, 2).

        Piecewise constant; on element boundaries the containing element is
        chosen deterministically by the locator.
        """
        return self._grads[self._located(points).elements]


def state_dirichlet(mesh: Mesh):
    """Constrained vertex set and values for the potential: 0 bottom, 1 top."""
    by_tag = mesh.boundary_vertices_by_tag
    bottom = by_tag[GAMMA_BOTTOM]
    top = by_tag[GAMMA_TOP]
    nodes = np.concatenate([bottom, top])
    values = np.concatenate([np.zeros(bottom.size), np.ones(top.size)])
    order = np.argsort(nodes, kind="stable")
    return nodes[order], values[order]


class OperatorSet:
    """One iterate's operators, passed to every consumer: K and M constrained
    on the state's Dirichlet nodes, b of (eps1, eps2) on the outer boundary
    (a FemError for a set built without eps1 and eps2).  Each is assembled
    on first use and holds the factorization of its first constrained
    solve: build one set per iterate and drop it with the iterate.

    Every matrix of the iterate, the Hessian blocks included, fills the CSR
    patterns of `patterns`.  A run hands the sets of all its iterates the
    one `fem.ScatterPatterns` of its start mesh, so each pattern is built
    once per run; a set built without one makes its own."""

    def __init__(self, mesh: Mesh, cfg: ProblemConfig, eps1=None, eps2=None,
                 patterns=None):
        self.mesh, self.cfg, self.eps1, self.eps2 = mesh, cfg, eps1, eps2
        self.patterns = fem.ScatterPatterns(mesh) if patterns is None \
            else patterns
        self.dirichlet_nodes, self.dirichlet_values = state_dirichlet(mesh)

    @cached_property
    def state(self) -> SparseOperator:
        op = fem.assemble_scalar_laplace(self.mesh, self.cfg.mu(self.mesh),
                                         self.patterns)
        return fem.with_constraints(op, self.dirichlet_nodes)

    @cached_property
    def mass(self) -> SparseOperator:
        return fem.with_constraints(fem.assemble_mass(self.mesh, self.patterns),
                                    self.dirichlet_nodes)

    @cached_property
    def metric(self) -> VectorOperator:
        if self.eps1 is None or self.eps2 is None:
            raise fem.FemError("this operator set has no metric b: it was "
                               "built without eps1 and eps2")
        from .shape_calculus import deformation_metric   # it imports model
        return deformation_metric(self.mesh, self.eps1, self.eps2,
                                  self.patterns)


def solve_state(ops: OperatorSet) -> ScalarField:
    """Potential with u=0 on the bottom, u=1 on the top, insulated sides."""
    u = ops.state.solve_constrained(np.zeros(ops.mesh.num_vertices),
                                    bc_values=ops.dirichlet_values)
    return ScalarField(ops.mesh, u)


def mass_misfit(ops: OperatorSet, u: ScalarField,
                z_on_m: ScalarField) -> np.ndarray:
    """M (u - z): the adjoint's load, and the misfit of the element terms."""
    return ops.mass.matrix @ (u.values - z_on_m.values)


def solve_adjoint(ops: OperatorSet, u: ScalarField, z_on_m: ScalarField,
                  mass_w=None) -> ScalarField:
    """Adjoint potential driven by the data misfit, zero on bottom and top.

    `mass_w` is `mass_misfit(ops, u, z_on_m)`, when the caller has it."""
    if mass_w is None:
        mass_w = mass_misfit(ops, u, z_on_m)
    return ScalarField(ops.mesh, ops.state.solve_constrained(-mass_w))


def inclusion_area(mesh: Mesh):
    geo = fem.geometry(mesh)
    return float(geo.areas[mesh.region == REGION_INCLUSION].sum())


def objective(ops: OperatorSet, u: ScalarField, z_on_m: ScalarField) -> float:
    """J = 1/2 int (u-z)^2 dx + alpha/2 * area of the inclusion."""
    w = u - z_on_m
    misfit = 0.5 * fem.integrate_p1_product([w, w])
    return misfit + 0.5 * ops.cfg.alpha * inclusion_area(ops.mesh)


def transfer_target(target: TargetField, mesh: Mesh) -> ScalarField:
    """Evaluate z at the vertices of `mesh` (Eulerian semantics)."""
    return ScalarField(mesh, target.interpolate(mesh.vertices))


def target_gradients(target: TargetField, mesh: Mesh):
    """Background dz at the vertices of `mesh`; used for the z material
    derivative dz[V](x_i) = grad z(x_i) . V(x_i)."""
    return target.gradient_at(mesh.vertices)


def make_target(cfg: ProblemConfig, h: float,
                shape: InclusionShape = TRUE_ELLIPSE) -> TargetField:
    """Solve the problem on a fresh background mesh holding the true shape."""
    background = generate_mesh(shape, h)
    z = solve_state(OperatorSet(background, cfg))
    return TargetField(background, z)


def energy_fraction(mesh: Mesh, cfg: ProblemConfig, u: ScalarField) -> float:
    """Share of the conduction energy int mu |grad u|^2 inside the inclusion.

    Near-insulating inclusions carry almost no flux, so this is ~0 when
    mu_in << mu_out.
    """
    geo = fem.geometry(mesh)
    g = fem.elem_grad(u)
    dens = geo.areas * cfg.mu(mesh) * (g[0] * g[0] + g[1] * g[1])
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    return float(dens[mesh.region == REGION_INCLUSION].sum()) / total


def boundary_flux(ops: OperatorSet, u: ScalarField, tag):
    """Discrete conormal flux of u through one outer boundary part.

    Computed variationally: pair the stiffness residual with the hat
    functions of that boundary's vertices.
    """
    r = ops.state.matrix @ u.values
    nodes = ops.mesh.boundary_vertices_by_tag[tag]
    return float(r[nodes].sum())
