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

    The buckets are CSR arrays: bucket ``i * nx + j`` (cell column i, row j)
    lists, in ascending order, every element whose bounding box meets it.
    Each element also keeps that box widened by `BOX_MARGIN`: a point whose
    barycentrics are all >= -`HIT_TOL` lies far inside it, so barycentrics
    are solved only for the bucket candidates whose widened box holds the
    point.  That changes neither the first hit nor its barycentrics.  A
    point in no candidate raises `PointOutsideMesh`.
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

    def _cells(self, p):
        """Grid cell (column, row) of each point, clamped to the grid."""
        return np.clip(p / self.cell, 0, self.nx - 1).astype(np.int64)

    def _bary(self, elems, points):
        """Barycentrics of points[k] in element elems[k], (n, 3)."""
        st = np.linalg.solve(self.affine[elems],
                             (points - self.origin[elems])[:, :, None])[:, :, 0]
        return np.column_stack([1 - st[:, 0] - st[:, 1], st[:, 0], st[:, 1]])

    def locate(self, points, hint=None):
        points = np.asarray(points, dtype=float)
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        if hint is not None:
            return self._locate_hinted(points, hint)
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
                                 np.flatnonzero(lam.min(axis=1) >= -HIT_TOL))
        hit = boxed[first]
        # one hit per point, in point order, or a point has none
        if len(hit) < len(points):
            miss = np.setdiff1d(np.arange(len(points)), owner[hit])[0]
            raise PointOutsideMesh(
                f"point {points[miss]} lies in no element of the mesh")
        return Located(cand[hit], np.clip(lam[first], 0.0, None))

    def _locate_hinted(self, points, hint):
        """`locate`, keeping each point's hinted element where its
        barycentrics there are all >= `HINT_TOL`; see `TargetField.locate`."""
        hint = np.asarray(hint)
        if hint.shape != (len(points),) or hint.dtype.kind not in "iu" or \
                (hint.size and not 0 <= hint.min() <= hint.max()
                 < len(self.origin)):
            raise ValueError("hint must hold one element index per point")
        lam = self._bary(hint, points)
        rest = np.flatnonzero(lam.min(axis=1) < HINT_TOL)
        elements, bary = hint.astype(np.int64), lam
        if rest.size:
            cold = self.locate(points[rest])
            elements[rest], bary[rest] = cold.elements, cold.bary
        return Located(elements, bary)


# a point lies in an element if its barycentrics there are all >= -HIT_TOL
HIT_TOL = 1e-12
# barycentrics a point needs in its hinted element to keep it
HINT_TOL = 1e-8


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

    def locate(self, points, hint=None) -> Located:
        """Background element containing each point, with its barycentrics.

        Each point takes the first candidate of its grid bucket, in
        ascending element order, whose barycentrics are all >= -`HIT_TOL`
        = -1e-12; they are then clipped at 0.  If any point has no such
        candidate, `PointOutsideMesh` (a ValueError) names the first such
        point in input order.  There is no clamp: an iterate's vertices lie
        in the unit square, which the background mesh covers exactly, as
        V vanishes on the outer boundary and no step folds a triangle.
        `gradient_at` and `verify.mask_fields` rely on this deterministic
        tie-break on element boundaries.

        `hint` is an optional element per point, such as the last lookup's
        for the moved vertices.  A point whose barycentrics in its hinted
        element are all >= `HINT_TOL` = 1e-8 keeps that element, and every
        other point is searched as above.  The result is the same: such a
        point lies inside the element by at least 1e-8 of each height, so
        on a shape-regular background mesh every other element sees it at
        a barycentric of about -1e-9 or less, far below the -1e-12 of a
        hit, and the hinted element is its only hit.  Its barycentrics are
        the ones the search solves, bit for bit.
        """
        return self._locator.locate(points, hint=hint)

    def _located(self, points) -> Located:
        """`locate`, reusing the last result for an equal points array (a
        copy is compared, so a different or mutated array is located) and
        hinted by it for points of the same count."""
        points = np.asarray(points, dtype=float)
        last = self._last
        if last is None or not np.array_equal(last[0], points):
            hint = None if last is None or len(last[0]) != len(points) \
                else last[1].elements
            self._last = (points.copy(), self.locate(points, hint=hint))
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
    on first use with its constrained set, and so with the free-block
    gather of that set; K and b hold the factorization of their first
    constrained solve (M is solved by `fem.solve_mass`, never factorized):
    build one set per iterate and drop it with the iterate.

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


def boundary_flux(ops: OperatorSet, u, tag):
    """Discrete conormal flux of u through one outer boundary part.

    Computed variationally: pair the stiffness residual with the hat
    functions of that boundary's vertices.
    """
    r = ops.state.matrix @ u
    nodes = ops.mesh.boundary_vertices_by_tag[tag]
    return float(r[nodes].sum())
