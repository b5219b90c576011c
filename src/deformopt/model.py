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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fem
from .fem import SparseOperator, VectorOperator
from .mesh import (GAMMA_BOTTOM, GAMMA_TOP, InclusionShape, Mesh,
                   REGION_INCLUSION, generate_mesh)

TRUE_ELLIPSE = InclusionShape.ellipse((0.5, 0.5), (0.25, 0.125))


class PointOutsideMesh(ValueError):
    """A point lies in no element of the mesh it is located on: in each,
    some barycentric of it is below -`HIT_TOL`."""


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

    The rule is grid-free: a point lies in the lowest-index element whose
    barycentrics there are all >= -`HIT_TOL`; they are then clipped at 0.
    A point in no element raises `PointOutsideMesh`.

    The buckets are CSR arrays: bucket ``i * nx + j`` (cell column i, row j,
    one median element diameter wide) lists, in ascending order, every
    element whose bounding box widened by `BOX_MARGIN` meets it.  A hit
    lies at most 1e-12 of an element height outside its element, far
    inside that widened box, so every hit of a point is a candidate of its
    bucket and the first hit among the candidates is the lowest-index hit.
    Barycentrics are formed in closed form, from the inverse of each
    element's corner-0 edge matrix.
    """

    BOX_MARGIN = 1e-9

    def __init__(self, mesh: Mesh):
        x0, x1, x2 = mesh.vertices[mesh.triangles.T]          # (ne, 2) each
        lo = np.minimum(np.minimum(x0, x1), x2)
        hi = np.maximum(np.maximum(x0, x1), x2)
        width, height = (hi - lo).T
        self.cell = max(float(np.median(np.maximum(width, height))), 1e-6)
        self.nx = max(1, int(math.ceil(1.0 / self.cell)))
        c0 = self._cells(lo - self.BOX_MARGIN)
        ni, nj = (self._cells(hi + self.BOX_MARGIN) - c0 + 1).T
        elems, k = _expand(ni * nj)
        keys = ((c0[elems, 0] + k // nj[elems]) * self.nx
                + c0[elems, 1] + k % nj[elems])
        # the stable sort keeps each bucket's elements in ascending order;
        # on keys of 16 bits or fewer numpy sorts by radix
        self.bucket_elems = elems[np.argsort(
            keys.astype(np.min_scalar_type(self.nx * self.nx - 1)),
            kind="stable")]
        self.bucket_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(keys, minlength=self.nx ** 2))])
        # element e maps (s, t) to origin[e] + s (x1 - x0) + t (x2 - x0);
        # inverse = (i00, i01, i10, i11) of that edge matrix, each (ne,)
        self.origin = x0
        ax, ay = (x1 - x0).T
        bx, by = (x2 - x0).T
        det = ax * by - bx * ay
        self.inverse = (by / det, -bx / det, -ay / det, ax / det)

    def _cells(self, p):
        """Grid cell (column, row) of each point, clamped to the grid."""
        return np.clip(p / self.cell, 0, self.nx - 1).astype(np.int64)

    def _bary(self, elems, points):
        """Barycentrics of points[k] in element elems[k], (n, 3)."""
        i00, i01, i10, i11 = (a[elems] for a in self.inverse)
        dx, dy = (points - self.origin[elems]).T
        s = i00 * dx + i01 * dy
        t = i10 * dx + i11 * dy
        return np.column_stack([1 - s - t, s, t])

    def locate(self, points):
        points = np.asarray(points, dtype=float)
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        cells = self._cells(points)
        key = cells[:, 0] * self.nx + cells[:, 1]
        start = self.bucket_ptr[key]
        owner, k = _expand(self.bucket_ptr[key + 1] - start)
        # every (point, bucket candidate) pair, by point, in bucket order
        cand = self.bucket_elems[start[owner] + k]
        lam = self._bary(cand, points[owner])
        # by columns: lam.min(axis=1) reduces its 3-long rows one by one
        low = np.minimum(np.minimum(lam[:, 0], lam[:, 1]), lam[:, 2])
        first = _first_per_owner(owner, np.flatnonzero(low >= -HIT_TOL))
        # one hit per point, in point order, or a point has none
        if len(first) < len(points):
            miss = np.setdiff1d(np.arange(len(points)), owner[first])[0]
            raise PointOutsideMesh(
                f"point {points[miss]} lies in no element of the mesh")
        return Located(cand[first], np.clip(lam[first], 0.0, None))


# a point lies in an element if its barycentrics there are all >= -HIT_TOL
HIT_TOL = 1e-12


def _expand(counts):
    """(owner, k) for k = 0..counts[owner]-1, for every owner in turn."""
    owner = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, k


def _first_per_owner(owner, pairs):
    """The first of `pairs` (grouped by owner) for each owner among them."""
    return pairs[np.diff(owner[pairs], prepend=-1) != 0]


class TargetField:
    """Target potential z, (n,) nodal values frozen on its background mesh."""

    def __init__(self, background_mesh: Mesh, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (background_mesh.num_vertices,):
            raise ValueError(f"z of shape {z.shape} does not hold one value "
                             f"per background vertex")
        bad = np.flatnonzero(~np.isfinite(z))
        if bad.size:
            raise ValueError(f"z is not finite at background vertex "
                             f"{bad[0]}: {z[bad[0]]}")
        self.mesh = background_mesh
        self.z = z
        self._last = None          # (points, Located) of the last lookup

    @cached_property
    def _locator(self):
        return _PointLocator(self.mesh)

    @cached_property
    def _grads(self):
        """(ne, 2) background gradients: `gradient_at` takes rows."""
        return np.ascontiguousarray(fem.elem_grad(self.mesh, self.z).T)

    def locate(self, points) -> Located:
        """Background element containing each point, with its barycentrics.

        Each point takes the lowest-index element whose barycentrics are
        all >= -`HIT_TOL` = -1e-12; they are then clipped at 0.  If any
        point is in no element, `PointOutsideMesh` (a ValueError) names the
        first such point in input order.  There is no clamp: an iterate's
        vertices lie in the unit square, which the background mesh covers
        exactly, as V vanishes on the outer boundary and no step folds a
        triangle.  The rule does not depend on the locator's bucket grid;
        `gradient_at` and `verify.mask_fields` rely on its deterministic
        tie-break on element boundaries.
        """
        return self._locator.locate(points)

    def _located(self, points) -> Located:
        """`locate`, reusing the last result for an equal points array, so
        that `interpolate` and `gradient_at` of one iterate share one
        lookup.  A copy is compared, so a different or mutated array is
        located afresh."""
        points = np.asarray(points, dtype=float)
        if self._last is None or not np.array_equal(self._last[0], points):
            self._last = (points.copy(), self.locate(points))
        return self._last[1]

    def interpolate(self, points):
        """Barycentric evaluation of z at arbitrary points in [0,1]^2."""
        loc = self._located(points)
        zv = self.z[self.mesh.triangles[loc.elements]]
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
    on first use with its constrained set, and so with the gather of that
    set's free block in CSC; K and b factorize their block by one SuperLU
    call at their first constrained solve and keep the factors (M is
    solved by `fem.solve_mass`, never factorized): build one set per
    iterate and drop it with the iterate.

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
        return fem.assemble_scalar_laplace(self.mesh, self.cfg.mu(self.mesh),
                                           self.patterns, self.dirichlet_nodes)

    @cached_property
    def mass(self) -> SparseOperator:
        return fem.assemble_mass(self.mesh, self.patterns, self.dirichlet_nodes)

    @cached_property
    def metric(self) -> VectorOperator:
        if self.eps1 is None or self.eps2 is None:
            raise fem.FemError("this operator set has no metric b: it was "
                               "built without eps1 and eps2")
        from .shape_calculus import deformation_metric   # it imports model
        return deformation_metric(self.mesh, self.eps1, self.eps2,
                                  self.patterns)


def solve_state(ops: OperatorSet) -> np.ndarray:
    """Potential with u=0 on the bottom, u=1 on the top, insulated sides,
    (n,)."""
    return ops.state.solve_constrained(np.zeros(ops.mesh.num_vertices),
                                       bc_values=ops.dirichlet_values)


def mass_misfit(ops: OperatorSet, u, z_on_m) -> np.ndarray:
    """M (u - z): the adjoint's load, J's misfit and the misfit of the
    element terms."""
    return ops.mass.matrix @ (u - z_on_m)


def solve_adjoint(ops: OperatorSet, u, z_on_m, mass_w=None) -> np.ndarray:
    """Adjoint potential driven by the data misfit, zero on bottom and top,
    (n,).

    `mass_w` is `mass_misfit(ops, u, z_on_m)`, when the caller has it."""
    if mass_w is None:
        mass_w = mass_misfit(ops, u, z_on_m)
    return ops.state.solve_constrained(-mass_w)


def inclusion_area(mesh: Mesh):
    geo = fem.geometry(mesh)
    return float(geo.areas[mesh.region == REGION_INCLUSION].sum())


def objective(ops: OperatorSet, u, z_on_m, mass_w=None) -> float:
    """J = 1/2 int (u-z)^2 dx + alpha/2 * area of the inclusion.

    The misfit is the mass energy 1/2 (u - z) . M (u - z), exact for P1
    fields, with M (u - z) from `mass_w` (`mass_misfit(ops, u, z_on_m)`,
    when the caller has it), summed as `SparseOperator.energy` sums."""
    if mass_w is None:
        mass_w = mass_misfit(ops, u, z_on_m)
    misfit = 0.5 * float((u - z_on_m) @ mass_w)
    return misfit + 0.5 * ops.cfg.alpha * inclusion_area(ops.mesh)


def transfer_target(target: TargetField, mesh: Mesh) -> np.ndarray:
    """Evaluate z at the vertices of `mesh` (Eulerian semantics), (n,)."""
    return target.interpolate(mesh.vertices)


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


def energy_fraction(mesh: Mesh, cfg: ProblemConfig, u) -> float:
    """Share of the conduction energy int mu |grad u|^2 inside the inclusion.

    Near-insulating inclusions carry almost no flux, so this is ~0 when
    mu_in << mu_out.
    """
    geo = fem.geometry(mesh)
    g = fem.elem_grad(mesh, u)
    dens = geo.areas * cfg.mu(mesh) * (g[0] * g[0] + g[1] * g[1])
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    return float(dens[mesh.region == REGION_INCLUSION].sum()) / total
