import numpy as np
import pytest

from deformopt import model, verify
from deformopt.mesh import InclusionShape, apply_deformation, generate_mesh
from deformopt.model import ProblemConfig, inclusion_area
from deformopt.shape_calculus import (assemble_shape_derivative,
                                      deformation_constraints,
                                      deformation_metric, element_terms,
                                      eulerian_fd, objective_on_deformed,
                                      riesz_gradient)

CIRCLE = InclusionShape.circle((0.5, 0.5), 0.2)


@pytest.fixture(scope="module")
def setup():
    cfg = ProblemConfig()
    target = model.make_target(cfg, 0.05)
    mesh = generate_mesh(CIRCLE, 0.1)
    ops = model.OperatorSet(mesh, cfg, 3e-2, 0.5)
    z = model.transfer_target(target, mesh)
    z_grad = model.target_gradients(target, mesh)
    u = model.solve_state(ops)
    lam = model.solve_adjoint(ops, u, z)
    return ops, target, mesh, z, z_grad, u, lam


def derivative(setup, alpha_whole_domain=False):
    ops, target, mesh, z, z_grad, u, lam = setup
    return assemble_shape_derivative(element_terms(
        ops, u, lam, z, z_grad, alpha_whole_domain=alpha_whole_domain))


class TestShapeDerivative:
    def test_matches_central_difference(self, setup):
        """Assembled dual pairs with random fields like the FD quotient."""
        ops, target, mesh, z, z_grad, u, lam = setup
        d = derivative(setup)
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(5):
            v = verify.random_interior_field(mesh, rng)
            v = verify.mask_fields(mesh, target, [v], t_max=1e-3)[0]
            if not np.any(v):
                continue
            fd = eulerian_fd(ops, target, v, 1e-3)
            fd_fine = eulerian_fd(ops, target, v, 2.5e-4)
            # Richardson: eliminate the O(t^2) term to expose agreement
            extrap = (16 * fd_fine - fd) / 15
            assert d @ v.reshape(-1) == pytest.approx(
                extrap, rel=5e-6, abs=1e-12)
            checked += 1
        assert checked >= 3

    def test_area_term_exact_derivative(self, setup):
        """With only the area penalty the derivative is exact: the inclusion
        area is a polynomial in t, so one central difference at a quadratic-
        exact step length reproduces it to rounding."""
        ops, target, mesh, *_ = setup
        cfg2 = ProblemConfig(alpha=2.0, mu_in=ops.cfg.mu_in,
                             mu_out=ops.cfg.mu_out)
        zero = np.zeros(mesh.num_vertices)
        no_z_grad = np.zeros((mesh.num_vertices, 2))
        d = assemble_shape_derivative(element_terms(
            model.OperatorSet(mesh, cfg2), zero, zero, zero, no_z_grad))
        rng = np.random.default_rng(3)
        v = verify.random_interior_field(mesh, rng)
        t = 1e-3
        ap = inclusion_area(apply_deformation(mesh, v, t))
        am = inclusion_area(apply_deformation(mesh, v, -t))
        fd = (ap - am) / (2 * t)
        assert d @ v.reshape(-1) == pytest.approx(fd, rel=1e-9)

    def test_boundary_dofs_zeroed(self, setup):
        ops, target, mesh, z, z_grad, u, lam = setup
        d = derivative(setup)
        assert np.all(d[deformation_constraints(mesh)] == 0.0)

    def test_alpha_domain_control_changes_value(self, setup):
        ops, target, mesh, z, z_grad, u, lam = setup
        d = derivative(setup)
        d_bad = derivative(setup, alpha_whole_domain=True)
        assert not np.allclose(d, d_bad)


class TestMetricAndGradient:
    def test_metric_positive_definite_on_interior(self, setup):
        _, _, mesh, *_ = setup
        metric = deformation_metric(mesh, 3e-2, 0.5)
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = verify.random_interior_field(mesh, rng)
            assert metric.energy(v.reshape(-1)) > 0.0

    def test_riesz_identity(self, setup):
        """b(grad J, Z) equals dJ[Z] for arbitrary admissible Z."""
        ops, target, mesh, z, z_grad, u, lam = setup
        d = derivative(setup)
        metric = deformation_metric(mesh, 3e-2, 0.5)
        g = riesz_gradient(d, metric)
        rng = np.random.default_rng(6)
        for _ in range(5):
            zdir = verify.random_interior_field(mesh, rng).reshape(-1)
            assert metric.energy(g.reshape(-1), zdir) == pytest.approx(
                d @ zdir, rel=1e-8, abs=1e-14)

    def test_gradient_is_descent_direction(self, setup):
        ops, target, mesh, z, z_grad, u, lam = setup
        d = derivative(setup)
        metric = deformation_metric(mesh, 3e-2, 0.5)
        g = riesz_gradient(d, metric)
        assert d @ -g.reshape(-1) < 0.0


class TestObjectiveOnDeformed:
    def test_zero_step_is_identity(self, setup):
        ops, target, mesh, z, _, u, _ = setup
        j0 = model.objective(ops, u, z)
        v = np.zeros((mesh.num_vertices, 2))
        assert objective_on_deformed(ops, target, v, 0.0) \
            == pytest.approx(j0, rel=1e-14)

    def test_fd_rejects_folding_step(self, setup):
        ops, target, mesh, *_ = setup
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((mesh.num_vertices, 2))
        vals[mesh.boundary_vertices] = 0.0
        with pytest.raises(ValueError):
            eulerian_fd(ops, target, vals, 1.0)
