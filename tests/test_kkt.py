import numpy as np
import pytest
import scipy.sparse.linalg as spla

from deformopt import driver, fem, kkt, model, shape_calculus, verify
from deformopt.fem import ScalarField, VectorField
from deformopt.kkt import (assemble_hessian_blocks, assemble_kkt,
                           lagrangian_gradient)
from deformopt.mesh import InclusionShape, generate_mesh
from deformopt.model import ProblemConfig
import element_terms_reference
import kkt_reference
from kkt_reference import (reference_newton_solve, saddle_constrained_matrix,
                           saddle_matrix, saddle_rhs)


@pytest.fixture(scope="module")
def setup():
    cfg = ProblemConfig()
    target = model.make_target(cfg, 0.05)
    mesh = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), 0.1)
    ops = model.OperatorSet(mesh, cfg, 3e-2, 0.5)
    z = model.transfer_target(target, mesh)
    z_grad = model.target_gradients(target, mesh)
    u = model.solve_state(ops)
    lam = model.solve_adjoint(ops, u, z)
    return ops, target, mesh, z, z_grad, u, lam


def newton_iterate(h, target_h, n_warmup):
    """The Newton-phase iterate after `n_warmup` projected-gradient steps."""
    cfg = ProblemConfig()
    target = model.make_target(cfg, target_h)
    mesh = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), h)
    sched = driver.Schedule(n_gradient_iters=n_warmup, max_iters=n_warmup)
    mesh, _ = driver.run_two_phase(mesh, cfg, target, sched)
    ops = model.OperatorSet(mesh, cfg, sched.eps1, sched.eps2)
    z = model.transfer_target(target, mesh)
    z_grad = model.target_gradients(target, mesh)
    u = model.solve_state(ops)
    lam = model.solve_adjoint(ops, u, z)
    return ops, target, mesh, z, z_grad, u, lam


@pytest.fixture(scope="module")
def newton_phase_medium():
    return newton_iterate(0.05, 0.025, 20)


def perturbed(setup, noise):
    """`setup` with u and lambda moved off the constraint manifold."""
    ops, target, mesh, z, z_grad, u, lam = setup
    rng = np.random.default_rng(11)
    n = mesh.num_vertices
    u = ScalarField(mesh, u.values + noise * rng.standard_normal(n))
    lam = ScalarField(mesh, lam.values + noise * rng.standard_normal(n))
    return ops, target, mesh, z, z_grad, u, lam


def element_terms(iterate):
    ops, target, mesh, z, z_grad, u, lam = iterate
    return shape_calculus.element_terms(ops, u, lam, z, z_grad)


def newton_system(iterate):
    return assemble_kkt(element_terms(iterate))


@pytest.fixture(scope="module")
def blocks(setup):
    return assemble_hessian_blocks(element_terms(setup))


class TestBlocks:
    def test_shapes(self, setup, blocks):
        n = setup[2].num_vertices
        assert blocks.ops.mass.matrix.shape == (n, n)
        assert blocks.ops.state.matrix.shape == (n, n)
        assert blocks.b_u_shape.shape == (n, 2 * n)
        assert blocks.b_lam_shape.shape == (n, 2 * n)
        assert blocks.shape_shape.shape == (2 * n, 2 * n)

    def test_shape_block_symmetric(self, blocks):
        asym = abs(blocks.shape_shape - blocks.shape_shape.T).max()
        scale = abs(blocks.shape_shape).max()
        assert asym <= 1e-12 * scale

    def test_shape_block_pairing_symmetry_random(self, setup, blocks):
        ops, target, mesh, *_ = setup
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = verify.random_interior_field(mesh, rng).reshape(-1)
            w = verify.random_interior_field(mesh, rng).reshape(-1)
            assert v @ (blocks.shape_shape @ w) == pytest.approx(
                w @ (blocks.shape_shape @ v), rel=1e-12, abs=1e-16)

    def test_b_u_shape_is_derivative_of_state_residual(self, setup, blocks):
        """FD oracle: L_uOmega V equals d/dt of the u-gradient of the
        Lagrangian when the mesh moves along V (fields transported nodally)."""
        ops, target, mesh, z, z_grad, u, lam = setup
        rng = np.random.default_rng(2)
        vals = verify.random_interior_field(mesh, rng)
        vals = verify.mask_fields(mesh, target, [vals], t_max=1e-4)[0]
        v = VectorField(mesh, vals)
        t = 1e-4

        def r_u_at(s):
            from deformopt.mesh import apply_deformation
            m2 = apply_deformation(mesh, v, s) if s else mesh
            u2 = ScalarField(m2, u.values)
            lam2 = ScalarField(m2, lam.values)
            z2 = model.transfer_target(target, m2)
            ru, _, _ = lagrangian_gradient(shape_calculus.element_terms(
                model.OperatorSet(m2, ops.cfg), u2, lam2, z2,
                model.target_gradients(target, m2)))
            return ru

        fd = (r_u_at(t) - r_u_at(-t)) / (2 * t)
        pred = blocks.b_u_shape @ v.flat()
        pred = pred.copy()
        pred[ops.state.constrained] = 0.0
        fd[ops.state.constrained] = 0.0
        assert np.abs(pred - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1.0)


class TestSensitivities:
    def test_state_sensitivity_oracle(self, setup, blocks):
        """udot from the linearized state equation matches FD of the re-solved
        state under mesh deformation."""
        from deformopt.mesh import apply_deformation
        ops, target, mesh, z, z_grad, u, lam = setup
        rng = np.random.default_rng(4)
        v = VectorField(mesh, verify.random_interior_field(mesh, rng))
        udot, _ = blocks.sensitivities(v.flat())
        t = 1e-5
        up, um = (model.solve_state(model.OperatorSet(
            apply_deformation(mesh, v, s), ops.cfg)) for s in (t, -t))
        fd = (up.values - um.values) / (2 * t)
        assert np.abs(udot - fd).max() <= 1e-4 * max(np.abs(fd).max(), 1.0)

    def test_reduced_equals_full_on_sensitivity_triples(self, setup, blocks):
        ops, target, mesh, *_ = setup
        rng = np.random.default_rng(5)
        v = verify.random_interior_field(mesh, rng).reshape(-1)
        w = verify.random_interior_field(mesh, rng).reshape(-1)
        uv, lv = blocks.sensitivities(v)
        uw, lw = blocks.sensitivities(w)
        full = blocks.full_value((uv, v, lv), (uw, w, lw))
        assert blocks.reduced_value(v, w) == pytest.approx(full, rel=1e-12)

    def test_operator_form_pairs_to_reduced_value(self, setup, blocks):
        ops, target, mesh, *_ = setup
        rng = np.random.default_rng(6)
        v = verify.random_interior_field(mesh, rng).reshape(-1)
        w = verify.random_interior_field(mesh, rng).reshape(-1)
        assert w @ blocks.apply(v) == pytest.approx(
            blocks.reduced_value(v, w), rel=1e-12)


@pytest.mark.parametrize("noise", [0.0, 1e-3])
class TestEliminationEquivalence:
    """`HessianBlocks.eliminate` serves the sensitivities, the Hessian
    operator and the Newton step.  Each must equal, bit for bit, the same
    quantity with its K solves written out (`kkt_reference`): at the h=0.1
    start iterate and with u and lambda perturbed by 1e-3 noise, so that
    the Newton step's r_u and r_lambda are nonzero."""

    def test_sensitivities_and_apply(self, setup, noise):
        iterate = perturbed(setup, noise)
        blocks = assemble_hessian_blocks(element_terms(iterate))
        mesh = iterate[2]
        rng = np.random.default_rng(12)
        for _ in range(3):
            v = rng.standard_normal(2 * mesh.num_vertices)
            got = blocks.sensitivities(v)
            want = kkt_reference.sensitivities(blocks, v)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert np.array_equal(blocks.apply(v),
                                  kkt_reference.apply(blocks, v))

    def test_newton_step(self, setup, noise):
        system = newton_system(perturbed(setup, noise))
        du, v, dlam = system.solve()
        want = kkt_reference.newton_step(system)
        got = (du.values, v.flat(), dlam.values)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestKktSystem:
    def test_matrix_symmetric(self, setup):
        system = newton_system(setup)
        mat = saddle_matrix(system)
        assert abs(mat - mat.T).max() <= 1e-12 * abs(mat).max()

    def test_solve_satisfies_equations(self, setup):
        system = newton_system(setup)
        du, v, dlam = system.solve()
        x = np.concatenate([du.values, v.flat(), dlam.values])
        mat = saddle_constrained_matrix(system)
        rhs = saddle_rhs(system)
        assert np.linalg.norm(mat @ x - rhs) <= 1e-8 * max(
            np.linalg.norm(rhs), 1e-30)

    def test_solution_respects_constraints(self, setup):
        mesh = setup[2]
        du, v, dlam = newton_system(setup).solve()
        nodes, _ = model.state_dirichlet(mesh)
        assert np.abs(du.values[nodes]).max() == 0.0
        assert np.abs(dlam.values[nodes]).max() == 0.0
        assert np.abs(v.values[mesh.boundary_vertices]).max() == 0.0

    def test_reduced_step_matches_riesz_gradient(self, setup):
        """The reduced system reproduces the projected-gradient direction:
        V solves b(V, .) = -dJ with du, dlambda the induced updates."""
        mesh = setup[2]
        terms = element_terms(setup)
        du, v, dlam = assemble_kkt(terms, reduced=True).solve()
        d = shape_calculus.assemble_shape_derivative(terms)
        metric = shape_calculus.deformation_metric(mesh, 3e-2, 0.5)
        g = shape_calculus.riesz_gradient(d, metric)
        assert np.abs(v.values + g.values).max() <= 1e-7 * max(
            np.abs(g.values).max(), 1e-30)

    @pytest.mark.parametrize("noise", [0.0, 1e-2])
    def test_reduced_elimination_matches_monolithic_solve(self, setup, noise):
        """Block elimination gives the step of the saddle-point solve,
        at the projected start iterate and with u and lambda perturbed so
        that r_u, r_lambda and hence dlambda and du are nonzero.  The
        dropped blocks L_uOmega and L_OmegaOmega are never assembled."""
        system = assemble_kkt(element_terms(perturbed(setup, noise)),
                              reduced=True)
        du, v, dlam = system.solve()
        assert "b_u_shape" not in vars(system.blocks)
        assert "shape_shape" not in vars(system.blocks)
        x = np.concatenate([du.values, v.flat(), dlam.values])
        x_ref = reference_newton_solve(system)
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()
        if noise:
            assert np.abs(du.values).max() > 0
            assert np.abs(dlam.values).max() > 0

    @pytest.mark.parametrize("where", ["start", "perturbed", "newton phase"])
    def test_newton_step_matches_saddle_solve(self, setup,
                                              newton_phase_medium, where):
        """The step solved in V by MINRES on the reduced shape Hessian is
        the step of the saddle-point solve: at the h=0.1 start iterate,
        with u and lambda perturbed by 1e-3 noise, and at the h=0.05
        iterate after 20 warm-up steps."""
        iterate = {"start": setup, "perturbed": perturbed(setup, 1e-3),
                   "newton phase": newton_phase_medium}[where]
        system = newton_system(iterate)
        du, v, dlam = system.solve()
        x = np.concatenate([du.values, v.flat(), dlam.values])
        x_ref = reference_newton_solve(system)
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()
        assert system.relative_residual <= kkt.KKT_RESIDUAL_TOL
        assert system.krylov_iterations > 0

    def test_krylov_count_mesh_independent(self, newton_phase_medium):
        """MINRES iterations at the Newton-phase iterate stay bounded as
        the mesh is refined from h=0.1 to h=0.05."""
        counts = []
        for iterate in (newton_iterate(0.1, 0.05, 20), newton_phase_medium):
            system = newton_system(iterate)
            system.solve()
            counts.append(system.krylov_iterations)
        assert max(counts) <= 25, counts

    def test_minres_failure_is_typed(self, setup, monkeypatch):
        def stalled(op, rhs, **kwargs):
            return np.zeros_like(rhs), kwargs["maxiter"]

        monkeypatch.setattr(spla, "minres", stalled)
        with pytest.raises(fem.SingularSystemError, match="MINRES"):
            newton_system(setup).solve()

    def test_non_finite_step_is_typed(self, setup, monkeypatch):
        def nan_step(op, rhs, **kwargs):
            return np.full_like(rhs, np.nan), 0

        monkeypatch.setattr(spla, "minres", nan_step)
        with pytest.raises(fem.SingularSystemError):
            newton_system(setup).solve()

    def test_reduced_step_takes_no_krylov_iterations(self, setup):
        system = assemble_kkt(element_terms(setup), reduced=True)
        system.solve()
        assert system.krylov_iterations == 0

    def test_given_gradient_is_used(self, setup):
        """assemble_kkt takes the driver's (r_u, r_Omega, r_lambda) instead
        of computing them again."""
        terms = element_terms(setup)
        gradient = lagrangian_gradient(terms)
        system = assemble_kkt(terms, gradient=gradient)
        assert system.rhs_u is gradient[0]
        assert system.rhs_shape is gradient[1]
        assert system.rhs_lam is gradient[2]

    def test_eps_validation(self, setup):
        """eps1 = 0 gives no inner product: FemError, a ValueError."""
        ops, target, mesh, z, z_grad, u, lam = setup
        ops0 = model.OperatorSet(mesh, ops.cfg, 0.0, 0.5)
        with pytest.raises(ValueError, match="eps1 must be positive"):
            newton_system((ops0, target, mesh, z, z_grad, u, lam)).solve()

    def test_flip_tr_term_changes_shape_block_only(self, setup, blocks):
        bad = assemble_hessian_blocks(element_terms(setup),
                                      flip_tr_term=True)
        assert abs(bad.shape_shape - blocks.shape_shape).max() > 0
        assert abs(bad.b_u_shape - blocks.b_u_shape).max() == 0
        assert abs(bad.b_lam_shape - blocks.b_lam_shape).max() == 0


def assert_same_csr(got, want):
    """Equal CSR arrays, down to the sign of a zero."""
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def random_adjoint(h, target_h):
    """Start iterate at mesh size h with lambda a random field, zero on the
    Dirichlet nodes: no term of the Lagrangian vanishes."""
    cfg = ProblemConfig()
    target = model.make_target(cfg, target_h)
    mesh = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), h)
    ops = model.OperatorSet(mesh, cfg, 3e-2, 0.5)
    u = model.solve_state(ops)
    lam = np.random.default_rng(3).standard_normal(mesh.num_vertices)
    lam[ops.state.constrained] = 0.0
    return (ops, model.transfer_target(target, mesh),
            model.target_gradients(target, mesh), u, ScalarField(mesh, lam))


@pytest.fixture(scope="module")
def non_stationary():
    return random_adjoint(0.05, 0.025)


@pytest.fixture(scope="module")
def fine_non_stationary():
    return random_adjoint(0.02, 0.025)


@pytest.mark.parametrize("alpha_whole_domain", [False, True])
class TestElementTermsEquivalence:
    """One `ElementTerms` against the formulas the derivative and the
    Hessian blocks each evaluated on their own."""

    def terms(self, non_stationary, alpha_whole_domain):
        ops, z, z_grad, u, lam = non_stationary
        return shape_calculus.element_terms(
            ops, u, lam, z, z_grad, alpha_whole_domain=alpha_whole_domain)

    def test_derivative_is_bit_identical(self, non_stationary,
                                         alpha_whole_domain):
        ops, z, z_grad, u, lam = non_stationary
        d = shape_calculus.assemble_shape_derivative(
            self.terms(non_stationary, alpha_whole_domain))
        want = element_terms_reference.shape_derivative_dual(
            ops, u, lam, z, z_grad, alpha_whole_domain)
        assert np.array_equal(d.dual, want)

    def test_hessian_blocks_are_bit_identical(self, non_stationary,
                                              alpha_whole_domain):
        """L_lambdaOmega and L_uOmega bit for bit; L_OmegaOmega bit for bit
        given the terms' div V coefficient.  That coefficient differs from
        the Hessian's own only in how its 1/2 int (u - z)^2 part is
        rounded.  The coefficient is itself a cancelling sum, so a block
        entry can move by far more ulp of its own value than the
        coefficient does."""
        ops, z, z_grad, u, lam = non_stationary
        terms = self.terms(non_stationary, alpha_whole_domain)
        blocks = assemble_hessian_blocks(terms)
        b_lam, b_u, shape_shape = element_terms_reference.hessian_blocks(
            ops, u, lam, z, z_grad, terms.c_div)
        assert_same_csr(blocks.b_lam_shape, b_lam)
        assert_same_csr(blocks.b_u_shape, b_u)
        assert_same_csr(blocks.shape_shape, shape_shape)
        c_g, half_w2 = element_terms_reference.hessian_div_coefficient(
            ops, u, lam, z, alpha_whole_domain)
        assert np.all(np.abs(terms.c_div - c_g)
                      <= 4 * (np.spacing(np.abs(c_g)) + np.spacing(half_w2)))


@pytest.mark.parametrize("iterate", ["non_stationary", "fine_non_stationary",
                                     "newton_phase_medium"])
class TestElementLastEquivalence:
    """The element-last kernels against the (ne, ...) references, bit for
    bit: K, M and b_s; the shape derivative; L_lambdaOmega, L_uOmega and
    L_OmegaOmega.  At the h=0.05 and h=0.02 start iterates with a random
    lambda, and at the deformed h=0.05 iterate after 20 warm-up steps."""

    @pytest.fixture
    def state(self, request, iterate):
        state = request.getfixturevalue(iterate)
        if iterate == "newton_phase_medium":
            ops, _, _, z, z_grad, u, lam = state
            return ops, z, z_grad, u, lam
        return state

    def test_operators(self, state):
        ops = state[0]
        want = element_terms_reference.operator_matrices(
            ops.mesh, ops.cfg.mu(ops.mesh), ops.eps1, ops.eps2)
        for got, ref in zip([ops.state.matrix, ops.mass.matrix,
                             ops.metric.block.matrix], want):
            assert_same_csr(got, ref)

    @pytest.mark.parametrize("alpha_whole_domain, flip_tr_term",
                             [(False, False), (True, False), (False, True)])
    def test_derivative_and_blocks(self, state, alpha_whole_domain,
                                   flip_tr_term):
        ops, z, z_grad, u, lam = state
        terms = shape_calculus.element_terms(
            ops, u, lam, z, z_grad, alpha_whole_domain=alpha_whole_domain)
        d = shape_calculus.assemble_shape_derivative(terms)
        want = element_terms_reference.shape_derivative_dual(
            ops, u, lam, z, z_grad, alpha_whole_domain)
        assert d.dual.tobytes() == want.tobytes()
        blocks = assemble_hessian_blocks(terms, flip_tr_term=flip_tr_term)
        for got, ref in zip(
                [blocks.b_lam_shape, blocks.b_u_shape, blocks.shape_shape],
                element_terms_reference.hessian_blocks(
                    ops, u, lam, z, z_grad, terms.c_div,
                    -1.0 if flip_tr_term else 1.0)):
            assert_same_csr(got, ref)


class TestLagrangianGradient:
    def test_vanishes_at_solved_state_except_shape(self, setup):
        r_u, r_shape, r_lam = lagrangian_gradient(element_terms(setup))
        assert np.abs(r_u).max() <= 1e-10
        assert np.abs(r_lam).max() <= 1e-10
        assert np.abs(r_shape).max() > 0
