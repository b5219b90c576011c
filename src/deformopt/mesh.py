"""Interface-fitted triangle meshes of the unit square and their deformations.

The hold-all domain is [0,1]^2.  A mesh splits it into an inclusion region
(tag 0) and the surrounding exterior (tag 1), with the interface resolved
exactly by element edges.  Outer boundary edges carry the side tags
GAMMA_BOTTOM..GAMMA_RIGHT.  Meshes are immutable; deforming one returns a
new mesh with identical connectivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay, cKDTree

GAMMA_BOTTOM = 0
GAMMA_LEFT = 1
GAMMA_TOP = 2
GAMMA_RIGHT = 3

REGION_INCLUSION = 0
REGION_EXTERIOR = 1

_BOUNDARY_TOL = 1e-12


class MeshError(ValueError):
    """Invalid mesh data or mesh generation failure."""


class NonInvertibleDeformation(ValueError):
    """A requested deformation folds at least one triangle."""


@dataclass(frozen=True)
class InclusionShape:
    """Ellipse (or circle) describing the true inclusion boundary."""

    kind: str
    center: tuple[float, float]
    semi_axes: tuple[float, float]

    def __post_init__(self):
        if self.kind not in ("ellipse", "circle"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        a, b = self.semi_axes
        if self.kind == "circle" and not math.isclose(a, b):
            raise ValueError("circle requires equal semi-axes")
        if a <= 0 or b <= 0:
            raise ValueError("semi-axes must be positive")
        cx, cy = self.center
        if not (0 < cx - a and cx + a < 1 and 0 < cy - b and cy + b < 1):
            raise ValueError("shape must lie strictly inside the unit square")

    @staticmethod
    def circle(center, radius):
        return InclusionShape("circle", tuple(center), (radius, radius))

    @staticmethod
    def ellipse(center, semi_axes):
        return InclusionShape("ellipse", tuple(center), tuple(semi_axes))

    def level(self, points):
        """Signed indicator: < 1 inside, > 1 outside the ellipse."""
        p = np.asarray(points, dtype=float)
        dx = (p[..., 0] - self.center[0]) / self.semi_axes[0]
        dy = (p[..., 1] - self.center[1]) / self.semi_axes[1]
        return dx * dx + dy * dy

    def perimeter(self):
        a, b = self.semi_axes
        # Ramanujan approximation, plenty for choosing a vertex count.
        h = ((a - b) / (a + b)) ** 2
        return math.pi * (a + b) * (1 + 3 * h / (10 + math.sqrt(4 - 3 * h)))

    def boundary_points(self, n):
        """n points on the ellipse, approximately equispaced in arclength."""
        dense = 64 * n
        t = np.linspace(0.0, 2 * math.pi, dense + 1)
        a, b = self.semi_axes
        xy = np.column_stack([a * np.cos(t), b * np.sin(t)])
        seg = np.linalg.norm(np.diff(xy, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        target = np.linspace(0.0, s[-1], n + 1)[:-1]
        tt = np.interp(target, s, t)
        return np.column_stack(
            [self.center[0] + a * np.cos(tt), self.center[1] + b * np.sin(tt)]
        )


class Mesh:
    """Conforming triangulation of [0,1]^2 fitted to an interface polygon.

    Parameters
    ----------
    vertices : (n, 2) array
    triangles : (ne, 3) int array, counterclockwise
    boundary_edges : (nb, 2) int array of outer-boundary edges
    boundary_tags : (nb,) int array with values GAMMA_*
    region : (ne,) int array with values REGION_*
    interface_vertices : (ni,) int array, ordered along the closed interface
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_tags,
                 region, interface_vertices, validate=True):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self.boundary_tags = np.ascontiguousarray(boundary_tags, dtype=np.int64)
        self.region = np.ascontiguousarray(region, dtype=np.int64)
        self.interface_vertices = np.ascontiguousarray(interface_vertices, dtype=np.int64)
        for a in (self.vertices, self.triangles, self.boundary_edges,
                  self.boundary_tags, self.region, self.interface_vertices):
            a.setflags(write=False)
        if validate:
            self._validate()

    def _validate(self):
        """Shapes, index ranges and positive, finite areas: for meshes from
        outside, not for iterates (`with_vertices` skips it)."""
        n = self.vertices.shape[0]
        for name, trailing in [("vertices", (2,)), ("triangles", (3,)),
                               ("boundary_edges", (2,)), ("boundary_tags", ()),
                               ("region", ()), ("interface_vertices", ())]:
            a = getattr(self, name)
            if a.shape[1:] != trailing or a.ndim != len(trailing) + 1:
                raise MeshError(f"{name} has shape {a.shape}")
        if self.interface_vertices.size < 3:
            raise MeshError("interface needs at least 3 vertices")
        if self.region.shape[0] != self.triangles.shape[0]:
            raise MeshError("region tag count does not match triangle count")
        if self.boundary_tags.shape[0] != self.boundary_edges.shape[0]:
            raise MeshError("boundary tag count does not match edge count")
        for name in ("triangles", "boundary_edges", "interface_vertices"):
            idx = getattr(self, name)
            if idx.size and not (idx.min() >= 0 and idx.max() < n):
                raise MeshError(f"{name} index outside [0, {n})")
        areas = signed_areas(self.vertices, self.triangles)
        if np.any(~(areas > 0)):        # NaN fails `> 0`, not `<= 0`
            bad = int(np.argmin(areas))
            raise MeshError(f"triangle {bad} has non-positive area {areas[bad]:.3e}")

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @cached_property
    def boundary_vertices(self):
        """Indices of vertices on the outer boundary of the hold-all domain."""
        return np.unique(self.boundary_edges)

    @cached_property
    def boundary_vertices_by_tag(self):
        out = {}
        for tag in (GAMMA_BOTTOM, GAMMA_LEFT, GAMMA_TOP, GAMMA_RIGHT):
            out[tag] = np.unique(self.boundary_edges[self.boundary_tags == tag])
        return out

    def with_vertices(self, vertices):
        return Mesh(vertices, self.triangles, self.boundary_edges,
                    self.boundary_tags, self.region, self.interface_vertices,
                    validate=False)

    def interface_polygon(self):
        return self.vertices[self.interface_vertices]


def corners(vertices, triangles):
    """The x and the y coordinates of each triangle's corners, (3, ne)
    each: the element axis last, so a kernel on them loops over all
    elements at once."""
    t = triangles.T
    return vertices[:, 0][t], vertices[:, 1][t]


def signed_areas(vertices, triangles, xy=None):
    """Signed area of each triangle, (ne,); positive when counterclockwise.
    `xy` is `corners(vertices, triangles)`, when the caller has it."""
    x, y = corners(vertices, triangles) if xy is None else xy
    return 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))


def _hex_grid(h):
    """Hexagonal point lattice covering the open unit square."""
    dy = h * math.sqrt(3) / 2
    rows = int(math.floor(1.0 / dy))
    pts = []
    for r in range(1, rows):
        y = r * dy
        if y >= 1.0 - 0.25 * h:
            continue
        off = 0.5 * h if r % 2 else 0.0
        x = np.arange(off + 0.5 * h, 1.0 - 0.25 * h, h)
        pts.append(np.column_stack([x, np.full_like(x, y)]))
    return np.vstack(pts)


def _square_boundary_points(h):
    n = max(2, round(1.0 / h))
    s = np.linspace(0.0, 1.0, n + 1)
    bottom = np.column_stack([s[:-1], np.zeros(n)])
    right = np.column_stack([np.ones(n), s[:-1]])
    top = np.column_stack([s[::-1][:-1], np.ones(n)])
    left = np.column_stack([np.zeros(n), s[::-1][:-1]])
    return np.vstack([bottom, right, top, left])


def generate_mesh(shape: InclusionShape, target_h: float) -> Mesh:
    """Build an interface-fitted mesh of the unit square around `shape`.

    The interface polygon is placed first in the vertex numbering; Delaunay
    triangulation of the polygon plus staggered offset rings plus a hexagonal
    background grid recovers every interface edge, which is verified.
    """
    if not (0 < target_h < 0.5):
        raise ValueError("target_h must be in (0, 0.5)")
    per = shape.perimeter()
    n_if = int(math.ceil(per / target_h))
    if n_if < 8:
        raise MeshError(
            f"target_h={target_h} yields only {n_if} interface vertices (< 8)")

    poly = shape.boundary_points(n_if)
    h_e = per / n_if

    cx, cy = shape.center
    a, b = shape.semi_axes
    gap = min(cx - a, 1 - cx - a, cy - b, 1 - cy - b)
    d_off = 0.85 * h_e
    if gap < 2 * d_off:
        raise MeshError("shape too close to the outer boundary for this target_h")

    # Staggered offset rings at edge midpoints, inside and outside.
    nxt = np.roll(poly, -1, axis=0)
    mids = 0.5 * (poly + nxt)
    tang = nxt - poly
    nrm = np.column_stack([tang[:, 1], -tang[:, 0]])
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    # ellipse is CCW, so the inward normal is -nrm if nrm points outward;
    # orient by the level function instead of guessing.
    probe = mids + 1e-6 * nrm
    outward = shape.level(probe) > shape.level(mids)
    nrm[~outward] *= -1.0
    d_in = min(d_off, 0.45 * min(a, b))
    ring_out = mids + d_off * nrm
    ring_in = mids - d_in * nrm

    bnd = _square_boundary_points(target_h)
    priority = np.vstack([poly, ring_out, ring_in, bnd])
    grid = _hex_grid(target_h)
    tree = cKDTree(priority)
    dist, _ = tree.query(grid)
    grid = grid[dist > 0.6 * target_h]

    points = np.vstack([poly, ring_out, ring_in, bnd, grid])
    tri = Delaunay(points)
    simplices = tri.simplices.copy()
    areas = signed_areas(points, simplices)
    flip = areas < 0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]
    areas = np.abs(areas)
    keep = areas > 1e-14
    simplices = simplices[keep]

    centroids = points[simplices].mean(axis=1)
    region = np.where(shape.level(centroids) < 1.0,
                      REGION_INCLUSION, REGION_EXTERIOR).astype(np.int64)

    # Fitted-ness: every interface polygon edge must appear in the mesh.
    edges = _edge_table(simplices, points.shape[0])
    k = np.arange(n_if)
    if_ends = np.sort(np.column_stack([k, (k + 1) % n_if]), axis=1)
    missing = ~np.isin(if_ends @ [points.shape[0], 1], edges[0])
    if missing.any():
        e = tuple(if_ends[np.argmax(missing)].tolist())
        raise MeshError(
            f"interface edge {e} missing from triangulation; "
            "reduce target_h or adjust the shape")

    # No triangle may straddle the interface.
    lev = shape.level(points)
    on_if = np.zeros(points.shape[0], dtype=bool)
    on_if[:n_if] = True
    strict_in = (lev < 1.0) & ~on_if
    strict_out = (lev > 1.0) & ~on_if
    has_in = strict_in[simplices].any(axis=1)
    has_out = strict_out[simplices].any(axis=1)
    if np.any(has_in & has_out):
        raise MeshError("triangulation straddles the interface")

    bedges, btags = _outer_boundary(points, edges)
    m = Mesh(points, simplices, bedges, btags, region, np.arange(n_if))
    return m


def _edge_table(simplices, n):
    """Each edge of the triangulation once, as the key i * n + j (i < j),
    with the first position where it occurs among the triangles' edges
    (0-1, 1-2, 2-0 of each triangle in turn) and its number of triangles."""
    ends = np.stack([simplices, np.roll(simplices, -1, axis=1)], axis=-1)
    ends = np.sort(ends.reshape(-1, 2).astype(np.int64), axis=1)
    return np.unique(ends @ [n, 1], return_index=True, return_counts=True)


def _outer_boundary(points, edge_table):
    """Edges of exactly one triangle, in order of first occurrence, and
    their side tags."""
    keys, first, counts = edge_table
    single = counts == 1
    bkeys = keys[single][np.argsort(first[single])]
    bedges = np.column_stack(np.divmod(bkeys, points.shape[0]))
    mids = 0.5 * (points[bedges[:, 0]] + points[bedges[:, 1]])
    tags = np.empty(bedges.shape[0], dtype=np.int64)
    tol = 1e-9
    on_b = mids[:, 1] < tol
    on_t = mids[:, 1] > 1 - tol
    on_l = mids[:, 0] < tol
    on_r = mids[:, 0] > 1 - tol
    if not np.all(on_b | on_t | on_l | on_r):
        raise MeshError("boundary edge away from the outer square")
    tags[on_b] = GAMMA_BOTTOM
    tags[on_l] = GAMMA_LEFT
    tags[on_t] = GAMMA_TOP
    tags[on_r] = GAMMA_RIGHT
    return bedges, tags


def apply_deformation(m: Mesh, v, t: float) -> Mesh:
    """Move every vertex by t*v and return the deformed mesh.

    `v` may be a VectorField on `m` or an (n, 2) array of nodal values.
    """
    vals = getattr(v, "values", v)
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (m.num_vertices, 2):
        raise ValueError("deformation field does not match the mesh")
    new_pts = m.vertices + t * vals
    areas = signed_areas(new_pts, m.triangles)
    if np.any(~(areas > 0)):        # NaN fails `> 0`, not `<= 0`
        bad = int(np.argmin(areas))
        raise NonInvertibleDeformation(
            f"deformed triangle {bad} has area {areas[bad]:.3e}")
    return m.with_vertices(new_pts)


def check_invertibility(m: Mesh, v, t: float):
    """Diagnose whether x -> x + t*v(x) is admissible on this mesh.

    Returns (ok, info).  ok requires all deformed triangle areas positive and
    v (numerically) zero on the outer boundary, so the deformed mesh still
    maps the hold-all domain onto itself.
    """
    vals = getattr(v, "values", v)
    vals = np.asarray(vals, dtype=float)
    areas0 = signed_areas(m.vertices, m.triangles)
    areas = signed_areas(m.vertices + t * vals, m.triangles)
    folded = np.flatnonzero(~(areas > 0))      # NaN areas count as folded
    bmax = float(np.abs(vals[m.boundary_vertices]).max()) if m.boundary_vertices.size else 0.0
    ok = folded.size == 0 and bmax <= 1e-12
    info = {
        "min_area_ratio": float((areas / areas0).min()),
        "folded_triangles": folded,
        "boundary_max_abs": bmax,
    }
    return ok, info


def mesh_quality(m: Mesh):
    """Report {min_angle (degrees), max_aspect, min_area}."""
    p = m.vertices[m.triangles]
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    l0 = np.linalg.norm(e0, axis=1)
    l1 = np.linalg.norm(e1, axis=1)
    l2 = np.linalg.norm(e2, axis=1)
    areas = signed_areas(m.vertices, m.triangles)
    lmax = np.maximum(np.maximum(l0, l1), l2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # aspect: longest edge over smallest altitude
        alt_min = 2 * areas / lmax
        aspect = np.where(areas > 0, lmax / alt_min, np.inf)
        cos0 = np.einsum("ij,ij->i", -e1, e2) / (l1 * l2)
        cos1 = np.einsum("ij,ij->i", -e2, e0) / (l2 * l0)
        cos2 = np.einsum("ij,ij->i", -e0, e1) / (l0 * l1)
    angs = np.degrees(np.arccos(np.clip(np.column_stack([cos0, cos1, cos2]), -1, 1)))
    return {
        "min_angle": float(angs.min()),
        "max_aspect": float(aspect.max()),
        "min_area": float(areas.min()),
    }
