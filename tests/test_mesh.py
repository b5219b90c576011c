import numpy as np
import pytest

from deformopt import fem, mesh as mesh_module
from deformopt.mesh import (GAMMA_BOTTOM, GAMMA_LEFT, GAMMA_RIGHT, GAMMA_TOP,
                            InclusionShape, Mesh, MeshError,
                            NonInvertibleDeformation, REGION_EXTERIOR,
                            REGION_INCLUSION, apply_deformation,
                            check_invertibility, corners, generate_mesh,
                            signed_areas)

ELLIPSE = InclusionShape.ellipse((0.5, 0.5), (0.25, 0.125))
CIRCLE = InclusionShape.circle((0.5, 0.5), 0.2)


def mesh_quality(m: Mesh):
    """Report {min_angle (degrees), max_aspect, min_area}."""
    xy = corners(m.vertices, m.triangles)
    x, y = xy
    # edge k joins the two corners other than k, its coordinates (ne,) each
    ex = [x[2] - x[1], x[0] - x[2], x[1] - x[0]]
    ey = [y[2] - y[1], y[0] - y[2], y[1] - y[0]]
    length = [np.sqrt(ex[k] * ex[k] + ey[k] * ey[k]) for k in range(3)]
    areas = signed_areas(m.vertices, m.triangles, xy)
    lmax = np.maximum(np.maximum(length[0], length[1]), length[2])
    with np.errstate(divide="ignore", invalid="ignore"):
        # aspect: longest edge over smallest altitude
        alt_min = 2 * areas / lmax
        aspect = np.where(areas > 0, lmax / alt_min, np.inf)
        # the angle at corner k lies between edges k + 1 and k + 2
        cosines = np.stack([(-ex[i] * ex[j] + -ey[i] * ey[j])
                            / (length[i] * length[j])
                            for i, j in ((1, 2), (2, 0), (0, 1))])
    angs = np.degrees(np.arccos(np.clip(cosines, -1, 1)))
    return {
        "min_angle": float(angs.min()),
        "max_aspect": float(aspect.max()),
        "min_area": float(areas.min()),
    }


@pytest.fixture(scope="module")
def mesh():
    return generate_mesh(ELLIPSE, 0.1)


def reference_edge_counts(simplices):
    """Sorted edge -> number of triangles, in first-seen order: the loop
    the edge table replaced; test reference."""
    edges = {}
    for t in simplices:
        for i, j in ((0, 1), (1, 2), (2, 0)):
            key = (min(t[i], t[j]), max(t[i], t[j]))
            edges[key] = edges.get(key, 0) + 1
    return edges


class TestInclusionShape:
    def test_circle_perimeter(self):
        assert CIRCLE.perimeter() == pytest.approx(2 * np.pi * 0.2, rel=1e-12)

    def test_ellipse_perimeter_ramanujan(self):
        # Ramanujan's approximation is good to ~1e-6 relative here
        a, b = 0.25, 0.125
        h = ((a - b) / (a + b)) ** 2
        exact = np.pi * (a + b) * (1 + 3 * h / (10 + np.sqrt(4 - 3 * h)))
        assert ELLIPSE.perimeter() == pytest.approx(exact, rel=1e-12)

    def test_level_sign(self):
        assert ELLIPSE.level(np.array([[0.5, 0.5]]))[0] < 1
        assert ELLIPSE.level(np.array([[0.9, 0.9]]))[0] > 1
        pts = ELLIPSE.boundary_points(64)
        assert np.abs(ELLIPSE.level(pts) - 1.0).max() < 1e-9

    def test_boundary_points_equispaced(self):
        pts = CIRCLE.boundary_points(100)
        seg = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
        assert seg.std() / seg.mean() < 1e-6

    def test_shape_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            InclusionShape.circle((0.5, 0.5), 0.6)
        with pytest.raises(ValueError):
            InclusionShape.ellipse((0.1, 0.5), (0.25, 0.125))

    def test_circle_is_an_ellipse_of_equal_semi_axes(self):
        assert CIRCLE == InclusionShape.ellipse((0.5, 0.5), (0.2, 0.2))
        with pytest.raises(ValueError, match="positive"):
            InclusionShape.ellipse((0.5, 0.5), (0.2, -0.1))


class TestGenerateMesh:
    def test_basic_invariants(self, mesh):
        assert mesh.num_vertices > 0
        assert signed_areas(mesh.vertices, mesh.triangles).min() > 0
        # region tags binary
        assert set(np.unique(mesh.region)) == {REGION_INCLUSION,
                                               REGION_EXTERIOR}

    def test_interface_vertices_on_curve(self, mesh):
        pts = mesh.vertices[mesh.interface_vertices]
        assert np.abs(ELLIPSE.level(pts) - 1.0).max() < 1e-9

    def test_interface_is_fitted(self, mesh):
        """No triangle straddles the interface: element centroids classify
        consistently with the region tag."""
        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        lev = ELLIPSE.level(cent)
        assert ((lev < 1.0) == (mesh.region == REGION_INCLUSION)).all()

    def test_boundary_tags_cover_square(self, mesh):
        mids = 0.5 * (mesh.vertices[mesh.boundary_edges[:, 0]]
                      + mesh.vertices[mesh.boundary_edges[:, 1]])
        for tag, (axis, val) in {GAMMA_BOTTOM: (1, 0.0), GAMMA_TOP: (1, 1.0),
                                 GAMMA_LEFT: (0, 0.0),
                                 GAMMA_RIGHT: (0, 1.0)}.items():
            sel = mesh.boundary_tags == tag
            assert sel.any()
            assert np.abs(mids[sel][:, axis] - val).max() < 1e-12

    def test_area_converges_to_ellipse_area(self):
        exact = np.pi * 0.25 * 0.125
        errs = []
        for h in (0.1, 0.05):
            m = generate_mesh(ELLIPSE, h)
            geo_areas = signed_areas(m.vertices, m.triangles)
            area = geo_areas[m.region == REGION_INCLUSION].sum()
            errs.append(abs(area - exact))
        assert errs[1] < errs[0]
        assert errs[1] < 2e-3

    def test_quality_reasonable(self, mesh):
        q = mesh_quality(mesh)
        assert q["min_angle"] > 5.0
        assert q["min_area"] > 0

    def test_too_coarse_rejected(self):
        with pytest.raises(MeshError):
            generate_mesh(InclusionShape.circle((0.5, 0.5), 0.05), 0.3)

    def test_interface_polygon_closed_loop(self, mesh):
        poly = mesh.interface_polygon()
        assert poly.shape[0] == mesh.interface_vertices.size
        seg = np.linalg.norm(np.diff(np.vstack([poly, poly[:1]]), axis=0),
                             axis=1)
        assert seg.max() < 3 * 0.1  # consecutive vertices are neighbors

    def test_vertices_read_only(self, mesh):
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 2.0

    @pytest.mark.parametrize("shape", [ELLIPSE, CIRCLE])
    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_edge_table_matches_loop(self, shape, h):
        """The numpy edge table against the per-triangle loop: the same
        edges and counts, every interface edge present, and the boundary
        edges of one triangle each in the loop's first-seen order."""
        m = generate_mesh(shape, h)
        n = m.num_vertices
        want = reference_edge_counts(m.triangles)
        keys, first, counts = mesh_module._edge_table(m.triangles, n)
        order = np.argsort(first)
        got = np.column_stack(np.divmod(keys[order], n))
        assert np.array_equal(got, np.array(list(want), dtype=np.int64))
        assert np.array_equal(counts[order], list(want.values()))
        k = m.interface_vertices.size
        assert all((min(i, (i + 1) % k), max(i, (i + 1) % k)) in want
                   for i in range(k))
        bedges = np.array([e for e, c in want.items() if c == 1],
                          dtype=np.int64)
        assert np.array_equal(m.boundary_edges, bedges)

    def test_interior_hole_rejected(self, mesh):
        """An edge of one triangle away from the outer square (here the
        edges of a removed triangle) is a MeshError."""
        table = mesh_module._edge_table(mesh.triangles[1:],
                                        mesh.num_vertices)
        with pytest.raises(MeshError, match="away from the outer square"):
            mesh_module._outer_boundary(mesh.vertices, table)


class TestDeformation:
    def test_identity_deformation(self, mesh):
        v = np.zeros((mesh.num_vertices, 2))
        m2 = apply_deformation(mesh, v, 1.0)
        assert np.array_equal(m2.vertices, mesh.vertices)
        assert np.array_equal(m2.triangles, mesh.triangles)

    def test_translation_of_interior(self, mesh):
        v = np.zeros((mesh.num_vertices, 2))
        ok, info = check_invertibility(mesh, v, 1.0)
        assert ok and info["min_area_ratio"] == pytest.approx(1.0)

    def test_folding_detected(self, mesh):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((mesh.num_vertices, 2))
        v[mesh.boundary_vertices] = 0.0
        ok, info = check_invertibility(mesh, v, 1.0)
        assert not ok
        assert info["folded_triangles"].size > 0
        with pytest.raises(NonInvertibleDeformation):
            apply_deformation(mesh, v, 1.0)
        # a NaN at one interior vertex folds its triangles: NaN <= 0 is False
        nan = np.zeros((mesh.num_vertices, 2))
        inner = np.setdiff1d(np.arange(mesh.num_vertices),
                             mesh.boundary_vertices)[0]
        nan[inner] = (np.nan, 0.0)
        ok, info = check_invertibility(mesh, nan, 1.0)
        assert not ok
        assert info["folded_triangles"].size > 0
        with pytest.raises(NonInvertibleDeformation):
            apply_deformation(mesh, nan, 1.0)

    def test_boundary_motion_rejected(self, mesh):
        vals = np.zeros((mesh.num_vertices, 2))
        vals[mesh.boundary_vertices[0]] = (0.1, 0.0)
        ok, info = check_invertibility(mesh, vals, 1.0)
        assert not ok
        assert info["boundary_max_abs"] > 0

    def test_small_smooth_deformation_ok(self, mesh):
        x, y = mesh.vertices.T
        bump = 0.05 * np.sin(np.pi * x) * np.sin(np.pi * y)
        v = np.column_stack([bump, bump])
        v[mesh.boundary_vertices] = 0.0
        ok, _ = check_invertibility(mesh, v, 1.0)
        assert ok
        m2 = apply_deformation(mesh, v, 1.0)
        assert signed_areas(m2.vertices, m2.triangles).min() > 0
        # connectivity, tags and regions are transported unchanged
        assert np.array_equal(m2.region, mesh.region)
        assert np.array_equal(m2.boundary_tags, mesh.boundary_tags)
