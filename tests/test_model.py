import numpy as np
import pytest

from deformopt import driver, fem, model
from deformopt.mesh import (GAMMA_BOTTOM, GAMMA_TOP, InclusionShape,
                            apply_deformation, generate_mesh)
from deformopt.model import (OperatorSet, ProblemConfig, TargetField,
                             energy_fraction, inclusion_area, make_target,
                             objective, solve_adjoint, solve_state,
                             state_dirichlet, target_gradients,
                             transfer_target)

CIRCLE = InclusionShape.circle((0.5, 0.5), 0.2)


def boundary_flux(ops: OperatorSet, u, tag):
    """Discrete conormal flux of u through one outer boundary part.

    Computed variationally: pair the stiffness residual with the hat
    functions of that boundary's vertices.
    """
    r = ops.state.matrix @ u
    nodes = ops.mesh.boundary_vertices_by_tag[tag]
    return float(r[nodes].sum())


class ReferenceLocator:
    """The lookup rule itself, with no buckets: a point takes the
    lowest-index element whose barycentrics are all >= -1e-12, clipped
    at 0.

    Barycentrics come from the closed-form inverse of each element's
    corner-0 edge matrix, evaluated for one point against every element;
    the batched `TargetField.locate` must match it bit for bit, whatever
    its bucket grid.  A point in no element raises.
    """

    def __init__(self, mesh):
        a, b, c = mesh.vertices[mesh.triangles].transpose(1, 2, 0)
        self.a = a                                           # (2, ne)
        (bx, by), (cx, cy) = b - a, c - a
        det = bx * cy - cx * by
        self.inverse = (cy / det, -cx / det, -by / det, bx / det)

    def bary(self, p):
        """Barycentrics of p in every element, (ne, 3)."""
        i00, i01, i10, i11 = self.inverse
        dx, dy = p[0] - self.a[0], p[1] - self.a[1]
        s = i00 * dx + i01 * dy
        t = i10 * dx + i11 * dy
        return np.column_stack([1 - s - t, s, t])

    def locate(self, p):
        lam = self.bary(np.asarray(p, dtype=float))
        hits = np.flatnonzero(lam.min(axis=1) >= -1e-12)
        if not hits.size:
            raise ValueError(f"point {p} lies in no element of the mesh")
        return hits[0], np.clip(lam[hits[0]], 0.0, None)


@pytest.fixture(scope="module")
def cfg():
    return ProblemConfig()


@pytest.fixture(scope="module")
def mesh():
    return generate_mesh(CIRCLE, 0.1)


@pytest.fixture(scope="module")
def target(cfg):
    return make_target(cfg, 0.05)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemConfig(mu_in=0.0)
        with pytest.raises(ValueError):
            ProblemConfig(alpha=-1.0)

    def test_mu_lookup(self, cfg, mesh):
        mu = cfg.mu(mesh)
        assert set(np.unique(mu)) == {cfg.mu_in, cfg.mu_out}

    def test_operator_set_without_eps_has_no_metric(self, cfg, mesh):
        """make_target, verify and the CLI build sets without eps1, eps2:
        touching their metric names what is missing."""
        ops = OperatorSet(mesh, cfg)
        with pytest.raises(fem.FemError, match="eps1 and eps2"):
            ops.metric
        assert OperatorSet(mesh, cfg, 3e-2, 0.5).metric.block.matrix.shape \
            == (mesh.num_vertices, mesh.num_vertices)


class TestState:
    def test_dirichlet_values(self, mesh):
        nodes, values = state_dirichlet(mesh)
        y = mesh.vertices[nodes, 1]
        assert np.array_equal(values, (y > 0.5).astype(float))
        assert np.all((np.abs(y) < 1e-12) | (np.abs(y - 1) < 1e-12))

    def test_state_respects_bc_and_maximum_principle(self, mesh, cfg):
        u = solve_state(OperatorSet(mesh, cfg))
        nodes, values = state_dirichlet(mesh)
        assert np.abs(u[nodes] - values).max() < 1e-12
        assert u.min() > -1e-10 and u.max() < 1 + 1e-10

    def test_uniform_conductivity_gives_linear_ramp(self, mesh):
        """With mu_in == mu_out the exact solution is u = y."""
        uniform = ProblemConfig(mu_in=1.0, mu_out=1.0)
        u = solve_state(OperatorSet(mesh, uniform))
        assert np.abs(u - mesh.vertices[:, 1]).max() < 1e-10

    def test_insulating_inclusion_diverts_flux(self, mesh, cfg):
        u = solve_state(OperatorSet(mesh, cfg))
        assert energy_fraction(mesh, cfg, u) < 1e-4

    def test_flux_balance_top_bottom(self, mesh, cfg):
        """Inflow through the bottom equals outflow through the top."""
        ops = OperatorSet(mesh, cfg)
        u = solve_state(ops)
        f_bot = boundary_flux(ops, u, GAMMA_BOTTOM)
        f_top = boundary_flux(ops, u, GAMMA_TOP)
        assert f_bot + f_top == pytest.approx(0.0, abs=1e-10)
        # an insulating obstacle reduces the net flux below the free value 1
        assert 0.0 < f_top < 1.0


class TestAdjoint:
    def test_adjoint_zero_for_zero_misfit(self, mesh, cfg):
        ops = OperatorSet(mesh, cfg)
        u = solve_state(ops)
        lam = solve_adjoint(ops, u, u)
        assert np.abs(lam).max() < 1e-12

    def test_adjoint_bc_and_linearity(self, mesh, cfg):
        ops = OperatorSet(mesh, cfg)
        u = solve_state(ops)
        l1 = solve_adjoint(ops, u, u + 0.3)
        l2 = solve_adjoint(ops, u, u + 0.9)
        nodes, _ = state_dirichlet(mesh)
        assert np.abs(l1[nodes]).max() < 1e-12
        assert np.allclose(l2, 3.0 * l1, atol=1e-12)

    def test_adjoint_identity_against_quadrature(self, mesh, cfg):
        """Stiffness residual of lambda equals the misfit load."""
        ops = OperatorSet(mesh, cfg)
        u = solve_state(ops)
        z = mesh.vertices[:, 1] ** 2
        lam = solve_adjoint(ops, u, z)
        op = fem.assemble_scalar_laplace(mesh, cfg.mu(mesh))
        mass = fem.assemble_mass(mesh)
        res = op.matrix @ lam + mass.matrix @ (u - z)
        nodes, _ = state_dirichlet(mesh)
        free = np.setdiff1d(np.arange(mesh.num_vertices), nodes)
        assert np.abs(res[free]).max() < 1e-10


class TestObjective:
    def test_objective_value(self, mesh, cfg):
        u = mesh.vertices[:, 1]
        z = np.zeros(mesh.num_vertices)
        # 1/2 int y^2 = 1/6 plus the area penalty
        expected = 1.0 / 6.0 + 0.5 * cfg.alpha * inclusion_area(mesh)
        assert objective(OperatorSet(mesh, cfg), u, z) == pytest.approx(
            expected, rel=1e-12)

    def test_objective_zero_at_match_without_penalty(self, mesh):
        cfg0 = ProblemConfig(alpha=0.0)
        ops = OperatorSet(mesh, cfg0)
        u = solve_state(ops)
        assert objective(ops, u, u) == 0.0

    def test_objective_is_the_mass_energy_of_the_misfit(self, mesh, cfg,
                                                        target):
        """J's misfit is 1/2 (u - z) . M (u - z), bit for bit, on a
        deformed iterate, whether J forms M (u - z) or is handed it."""
        x, y = mesh.vertices.T
        bump = np.sin(np.pi * x) * np.sin(np.pi * y)
        deformed = apply_deformation(
            mesh, 0.02 * np.column_stack([bump, -0.5 * bump]), 1.0)
        ops = OperatorSet(deformed, cfg)
        u = solve_state(ops)
        z = transfer_target(target, deformed)
        want = (0.5 * ops.mass.energy(u - z)
                + 0.5 * cfg.alpha * inclusion_area(deformed))
        assert objective(ops, u, z) == want
        assert objective(ops, u, z, model.mass_misfit(ops, u, z)) == want


class TestTarget:
    def test_target_reproduces_own_mesh(self, target):
        z_back = transfer_target(target, target.mesh)
        assert np.abs(z_back - target.z).max() < 1e-10

    def test_transfer_is_barycentric(self, target, mesh):
        """Interpolating a linear function through the background mesh is
        exact regardless of which element contains each point."""
        x, y = target.mesh.vertices.T
        t2 = TargetField(target.mesh, 2 * x - y + 0.25)
        z = transfer_target(t2, mesh)
        expect = (2 * mesh.vertices[:, 0] - mesh.vertices[:, 1] + 0.25)
        assert np.abs(z - expect).max() < 1e-10
        g = target_gradients(t2, mesh)
        assert np.allclose(g, [2.0, -1.0], atol=1e-10)

    def test_target_field_refuses_wrong_value_count(self, target):
        """z can come from a file: one value too many is a ValueError."""
        with pytest.raises(ValueError, match="one value per background"):
            TargetField(target.mesh, np.zeros(target.mesh.num_vertices + 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_target_field_refuses_non_finite_values(self, target, bad):
        """A non-finite z (from a file) is refused by its first vertex,
        not left to fail the first state solve."""
        z = target.z.copy()
        z[[7, 11]] = bad
        with pytest.raises(ValueError,
                           match=f"z is not finite at background vertex 7: "
                                 f"{bad}"):
            TargetField(target.mesh, z)

    def test_target_gradient_matches_fd_inside_elements(self, target):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.3, 0.7, size=(20, 2))
        d = 1e-9
        for p in pts:
            g = target.gradient_at([p])[0]
            gx = (target.interpolate([p + [d, 0]])
                  - target.interpolate([p - [d, 0]]))[0] / (2 * d)
            gy = (target.interpolate([p + [0, d]])
                  - target.interpolate([p - [0, d]]))[0] / (2 * d)
            # skip points whose FD stencil straddles a background edge
            if abs(gx - g[0]) < 1e-4 and abs(gy - g[1]) < 1e-4:
                assert g[0] == pytest.approx(gx, abs=1e-5)
                assert g[1] == pytest.approx(gy, abs=1e-5)

    def test_point_outside_domain_rejected(self, target):
        with pytest.raises(ValueError):
            target.interpolate(np.array([[1.5, 0.5]]))
        with pytest.raises(ValueError):
            ReferenceLocator(target.mesh).locate(np.array([1.5, 0.5]))
        # the first offending point in input order is named
        with pytest.raises(ValueError, match=r"\[1\.5 0\.5\]"):
            target.locate(np.array([[0.5, 0.5], [1.5, 0.5], [2.0, 2.0]]))
        # typed, so that a run can end on it with a note
        with pytest.raises(model.PointOutsideMesh):
            target.gradient_at(np.array([[0.5, -0.5]]))

    def test_batched_locator_matches_reference(self, target, mesh):
        """Bit-equal element ids and barycentrics against the grid-free
        rule, on element interiors, edges and vertices; a point just
        outside the hull is refused by both."""
        back = target.mesh
        ref = ReferenceLocator(back)
        rng = np.random.default_rng(11)
        edges = np.unique(np.sort(np.concatenate([
            back.triangles[:, [0, 1]], back.triangles[:, [1, 2]],
            back.triangles[:, [2, 0]]]), axis=1), axis=0)
        a, b = back.vertices[edges[:, 0]], back.vertices[edges[:, 1]]
        t = rng.uniform(0.0, 1.0, (len(edges), 1))
        for points in (mesh.vertices, rng.uniform(0.0, 1.0, (20000, 2)),
                       back.vertices, a + t * (b - a), 0.5 * (a + b)):
            got = target.locate(points)
            assert len(got) == len(points)
            want = [ref.locate(p) for p in points]
            assert np.array_equal(got.elements, [e for e, _ in want])
            assert np.array_equal(got.bary, np.array([lam for _, lam in want]))
        # in no element, yet within 1e-6 of one
        outside = np.array([[1.0 + 1e-9, 0.5]])
        every = np.arange(back.num_triangles)
        lam_all = target._locator._bary(every, outside[[0] * len(every)])
        assert -1e-6 < lam_all.min(axis=1).max() < -1e-12
        with pytest.raises(model.PointOutsideMesh):
            target.locate(outside)
        with pytest.raises(ValueError):
            ref.locate(outside[0])

    @pytest.mark.parametrize("gap, refused", [
        pytest.param(1e-14, False, id="1e-14"),
        pytest.param(1e-10, True, id="1e-10"),
        pytest.param(1e-8, True, id="1e-08")])
    def test_box_filter_keeps_every_hit(self, target, gap, refused):
        """Points `gap` outside each element, beyond its vertices (away
        from its centroid) and beyond its edges (along their outward
        normals): the located element and barycentrics equal the
        grid-free rule that tries every element, so the buckets, built
        from widened boxes, drop no hit.  At 1e-14 a point is still a hit
        of the element it lies outside (barycentrics >= -1e-12), yet
        outside that element's bare box; at 1e-10 and 1e-8 the points
        beyond the square lie in no element and both searches refuse
        each of them."""
        back = target.mesh
        pts = back.vertices[back.triangles]                  # (ne, 3, 2)
        away = pts - pts.mean(axis=1, keepdims=True)
        beyond_vertex = pts + gap * away / np.linalg.norm(
            away, axis=2, keepdims=True)
        edge = np.roll(pts, -1, axis=1) - pts                 # ccw edges
        normal = np.stack([edge[..., 1], -edge[..., 0]], axis=2)
        t = np.random.default_rng(12).uniform(0.2, 0.8, (len(pts), 3, 1))
        beyond_edge = pts + t * edge + gap * normal / np.linalg.norm(
            normal, axis=2, keepdims=True)
        points = np.concatenate([beyond_vertex, beyond_edge]).reshape(-1, 2)
        ref = ReferenceLocator(back)
        beyond = ~((0.0 <= points) & (points <= 1.0)).all(axis=1)
        assert beyond.any()
        if refused:
            for p in points[beyond]:
                with pytest.raises(model.PointOutsideMesh):
                    target.locate(p[None])
                with pytest.raises(ValueError):
                    ref.locate(p)
            points = points[~beyond]
        got = target.locate(points)
        want = [ref.locate(p) for p in points]
        assert np.array_equal(got.elements, [e for e, _ in want])
        assert got.bary.tobytes() == np.array(
            [lam for _, lam in want]).tobytes()

    def test_batched_transfer_matches_per_point_evaluation(self, target, mesh):
        ref = ReferenceLocator(target.mesh)
        z = target.z
        tris = target.mesh.triangles
        want = [ref.locate(p) for p in mesh.vertices]
        assert np.array_equal(target.interpolate(mesh.vertices),
                              [lam @ z[tris[e]] for e, lam in want])
        assert np.array_equal(target_gradients(target, mesh),
                              target._grads[[e for e, _ in want]])

    def test_locate_reused_only_for_equal_points(self, target, mesh,
                                                 monkeypatch):
        """`interpolate` and `gradient_at` share one locate for an equal
        points array; a different or in-place mutated array is located
        afresh and gives the values a fresh target field gives."""
        calls = []
        real = TargetField.locate

        def counted(self, points):
            calls.append(1)
            return real(self, points)

        monkeypatch.setattr(TargetField, "locate", counted)
        field = TargetField(target.mesh, target.z)
        points = mesh.vertices.copy()
        field.interpolate(points)
        field.gradient_at(points)
        assert len(calls) == 1
        points[:, 0] = 0.5 * points[:, 0] + 0.1          # mutated in place
        values, grads = field.interpolate(points), field.gradient_at(points)
        assert len(calls) == 2
        other = points[::-1] * 0.9                      # a different array
        other_values = field.interpolate(other)
        assert len(calls) == 3
        fresh = TargetField(target.mesh, target.z)
        assert np.array_equal(values, fresh.interpolate(points))
        assert np.array_equal(grads, fresh.gradient_at(points))
        assert np.array_equal(other_values, fresh.interpolate(other))

    def test_run_keeps_its_vertices_in_the_square(self, cfg, target, mesh):
        """What the lookup's one rule rests on: a short run (3 gradient + 2
        Newton iterations) ends with no note, keeps every outer-boundary
        vertex of its start mesh bit for bit and every vertex in [0, 1]^2,
        which the background mesh covers exactly."""
        final, hist = driver.run_two_phase(
            mesh, cfg, target, driver.Schedule(n_gradient_iters=3,
                                               max_iters=5))
        assert hist.notes == []
        assert list(hist.column("mode")) == ["gradient"] * 3 + ["newton"] * 3
        assert not np.array_equal(final.vertices, mesh.vertices)
        outer = mesh.boundary_vertices
        assert (final.vertices[outer].tobytes()
                == mesh.vertices[outer].tobytes())
        assert ((0.0 <= final.vertices) & (final.vertices <= 1.0)).all()

    def test_target_field_requires_matching_mesh(self, target, mesh):
        with pytest.raises(ValueError):
            TargetField(mesh, target.z)

    def test_target_state_near_mismatch_is_positive(self, mesh, cfg, target):
        """Solving on the circle mesh does not match the elliptic target."""
        z = transfer_target(target, mesh)
        ops = OperatorSet(mesh, cfg)
        assert objective(ops, solve_state(ops), z) > 1e-5
