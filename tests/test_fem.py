import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from deformopt import fem, kkt, model, shape_calculus
from deformopt.fem import (FemError, ScalarField, SingularSystemError,
                           VectorField, assemble_mass,
                           assemble_scalar_laplace, assemble_vector_h1_form,
                           elem_grad, elem_jacobian, divergence,
                           integrate_p1_product, vector_dofs, with_constraints)
from deformopt.mesh import (REGION_EXTERIOR, REGION_INCLUSION, InclusionShape,
                            apply_deformation, generate_mesh)
from kkt_reference import (metric_matrix, saddle_constrained_dofs,
                           saddle_matrix, scatter)


@pytest.fixture(scope="module")
def mesh():
    return generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), 0.1)


def padded_vector_form(mesh, eps1, eps2):
    """The 2n metric as `assemble_vector_h1_form` built it before it kept
    only the scalar block: a zero-padded 6x6 local matrix per element
    scattered on interleaved dofs; test reference."""
    geo = fem.geometry(mesh)
    kloc = np.einsum("e,eia,eja->eij", geo.areas, geo.grads, geo.grads)
    scalar = eps1 * (geo.local_mass + eps2 * kloc)
    local = np.zeros((mesh.num_triangles, 6, 6))
    local[:, 0::2, 0::2] = scalar
    local[:, 1::2, 1::2] = scalar
    return scatter(mesh, local, ndof_per_vertex=2)


def reference_dirichlet(matrix, constrained):
    """The LIL elimination `fem.apply_dirichlet` replaced; test reference."""
    if len(constrained) == 0:
        return matrix.tocsr()
    mat = matrix.tolil(copy=True)
    mat[constrained, :] = 0.0
    mat[:, constrained] = 0.0
    mat = mat.tocsr()
    diag = sp.coo_matrix(
        (np.ones(len(constrained)), (constrained, constrained)),
        shape=matrix.shape)
    return (mat + diag.tocsr()).tocsr()


class TestFields:
    def test_shape_checked(self, mesh):
        with pytest.raises(FemError):
            ScalarField(mesh, np.zeros(mesh.num_vertices + 1))
        with pytest.raises(FemError):
            VectorField(mesh, np.zeros((mesh.num_vertices, 3)))

    def test_algebra(self, mesh):
        f = ScalarField.from_callable(mesh, lambda x: x[:, 0])
        g = ScalarField.from_callable(mesh, lambda x: x[:, 1])
        assert np.allclose((2.0 * f + g - f).values,
                           mesh.vertices[:, 0] + mesh.vertices[:, 1])

    def test_cross_mesh_rejected(self, mesh):
        other = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), 0.15)
        with pytest.raises(FemError):
            ScalarField.zeros(mesh) + ScalarField.zeros(other)

    def test_field_types_kept(self, mesh):
        """Zeros, sums, differences and scalings keep the field's type and
        per-vertex value shape."""
        for cls, shape in [(ScalarField, (mesh.num_vertices,)),
                           (VectorField, (mesh.num_vertices, 2))]:
            f = cls.zeros(mesh)
            for g in (f, f + f, f - f, 2.0 * f, f * 2.0):
                assert type(g) is cls and g.values.shape == shape

    def test_vector_flat_interleaved(self, mesh):
        v = VectorField.from_callable(
            mesh, lambda x: np.column_stack([x[:, 0], -x[:, 1]]))
        flat = v.flat()
        assert flat[0::2] == pytest.approx(mesh.vertices[:, 0])
        assert flat[1::2] == pytest.approx(-mesh.vertices[:, 1])


class TestElementCalculus:
    def test_gradient_of_linear_is_exact(self, mesh):
        f = ScalarField.from_callable(mesh, lambda x: 3 * x[:, 0] - 2 * x[:, 1])
        g = elem_grad(f)
        assert np.allclose(g, [3.0, -2.0], atol=1e-12)

    def test_jacobian_and_divergence_of_linear_field(self, mesh):
        v = VectorField.from_callable(
            mesh, lambda x: np.column_stack([2 * x[:, 0] + x[:, 1],
                                             4 * x[:, 1]]))
        jac = elem_jacobian(v)
        assert np.allclose(jac, [[2.0, 1.0], [0.0, 4.0]], atol=1e-12)
        assert np.allclose(divergence(v), 6.0, atol=1e-12)

    def test_integrate_constant(self, mesh):
        assert fem.integrate(mesh, np.ones(mesh.num_triangles)) \
            == pytest.approx(1.0, abs=1e-12)

    def test_integrate_p1_product_quartic(self, mesh):
        # int_[0,1]^2 x^2 y^2 dx dy = 1/9, exact for the degree-4 rule
        x = ScalarField.from_callable(mesh, lambda p: p[:, 0])
        y = ScalarField.from_callable(mesh, lambda p: p[:, 1])
        val = integrate_p1_product([x, x, y, y])
        assert val == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_integrate_p1_product_with_weights(self, mesh):
        one = ScalarField.from_callable(mesh, lambda p: np.ones(len(p)))
        w = (mesh.region == REGION_INCLUSION).astype(float)
        area = integrate_p1_product([one], weights=w)
        # inscribed interface polygon: area deficit is O(h^2)
        assert area == pytest.approx(np.pi * 0.2 ** 2, abs=8e-3)

    def test_geometry_keeps_no_reference_cycle(self, mesh):
        """A mesh with cached geometry is freed by reference counting alone,
        so deformed iterates do not wait for the cyclic collector."""
        deformed = apply_deformation(mesh, np.zeros((mesh.num_vertices, 2)),
                                     1.0)
        fem.geometry(deformed)
        ref = weakref.ref(deformed)
        gc.disable()
        try:
            del deformed
            assert ref() is None
        finally:
            gc.enable()


class TestAssembly:
    def test_mass_total(self, mesh):
        m = assemble_mass(mesh)
        ones = np.ones(mesh.num_vertices)
        assert m.energy(ones) == pytest.approx(1.0, rel=1e-12)

    def test_mass_vs_product_quadrature(self, mesh):
        f = ScalarField.from_callable(mesh, lambda x: np.sin(x[:, 0]))
        g = ScalarField.from_callable(mesh, lambda x: x[:, 1] ** 2)
        m = assemble_mass(mesh)
        assert m.energy(f.values, g.values) == pytest.approx(
            integrate_p1_product([f, g]), rel=1e-12)

    def test_stiffness_kernel_and_energy(self, mesh):
        a = assemble_scalar_laplace(mesh, 1.0)
        ones = np.ones(mesh.num_vertices)
        assert abs(a.energy(ones)) < 1e-12
        # int |grad(x)|^2 = 1 on the unit square
        f = ScalarField.from_callable(mesh, lambda x: x[:, 0])
        assert a.energy(f.values) == pytest.approx(1.0, rel=1e-12)

    def test_stiffness_region_weights(self, mesh):
        mu = {REGION_INCLUSION: 7.0, REGION_EXTERIOR: 1.0}
        a1 = assemble_scalar_laplace(mesh, mu)
        a2 = assemble_scalar_laplace(
            mesh, np.where(mesh.region == REGION_INCLUSION, 7.0, 1.0))
        assert abs(a1.matrix - a2.matrix).max() < 1e-14

    def test_nonpositive_conductivity_rejected(self, mesh):
        with pytest.raises(FemError):
            assemble_scalar_laplace(mesh, 0.0)

    def test_vector_form_decouples_components(self, mesh):
        b = assemble_vector_h1_form(mesh, 2.0, 0.5)
        m = assemble_mass(mesh)
        a = assemble_scalar_laplace(mesh, 1.0)
        f = ScalarField.from_callable(mesh, lambda x: np.cos(x[:, 0] * x[:, 1]))
        v = VectorField(mesh, np.column_stack([f.values, 0 * f.values]))
        expected = 2.0 * (m.energy(f.values) + 0.5 * a.energy(f.values))
        assert b.energy(v.flat()) == pytest.approx(expected, rel=1e-12)

    def test_vector_form_parameter_validation(self, mesh):
        with pytest.raises(FemError):
            assemble_vector_h1_form(mesh, 0.0, 0.5)
        with pytest.raises(FemError):
            assemble_vector_h1_form(mesh, 1.0, -1.0)

    def test_scatter_csr_bit_identical(self, mesh):
        """K, M and the metric block b_s through the row/column dof-map
        scatter: the same CSR arrays as the square scatter it replaced."""
        geo = fem.geometry(mesh)
        kloc = np.einsum("e,eia,eja->eij", geo.areas, geo.grads, geo.grads)
        mu = model.ProblemConfig().mu(mesh)
        for got, local in [
                (assemble_scalar_laplace(mesh, mu).matrix,
                 np.einsum("e,eia,eja->eij", mu * geo.areas, geo.grads,
                           geo.grads)),
                (assemble_mass(mesh).matrix, geo.local_mass),
                (assemble_vector_h1_form(mesh, 3e-2, 0.5).block.matrix,
                 3e-2 * (geo.local_mass + 0.5 * kloc))]:
            want = scatter(mesh, local)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)

    def test_vector_dofs_interleaving(self):
        assert vector_dofs([0, 3]).tolist() == [0, 1, 6, 7]

    def test_vector_dofs_per_element_row(self):
        """Per row of a triangle array, as the vector scatters use it."""
        assert vector_dofs([[0, 3, 1], [2, 0, 4]]).tolist() == [
            [0, 1, 6, 7, 2, 3], [4, 5, 0, 1, 8, 9]]


class TestVectorMetric:
    """b = I2 (x) B against the 2n assembly and solve it replaced."""

    def test_matrix_equals_padded_assembly(self, mesh):
        """`metric @ x` on a 2n vector is kron(B, I2) @ x bit for bit, and
        the padded 2n assembly's product up to its entries' rounding."""
        metric = assemble_vector_h1_form(mesh, 3e-2, 0.5)
        x = np.random.default_rng(4).standard_normal(2 * mesh.num_vertices)
        got = metric @ x
        assert got.shape == x.shape
        assert np.array_equal(got, metric_matrix(metric) @ x)
        padded = padded_vector_form(mesh, 3e-2, 0.5)
        bound = 8 * np.finfo(float).eps * (abs(padded) @ np.abs(x))
        assert np.all(np.abs(got - padded @ x) <= bound)
        assert metric.energy(x) == float(x @ got)

    @pytest.mark.parametrize("h", [0.05, 0.02])
    def test_block_solve_equals_2n_solve(self, h):
        """Two-column solve on B's factorization against the old 2n splu
        solve (COLAMD ordering, default partial pivoting)."""
        m = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), h)
        metric = shape_calculus.deformation_metric(m, 3e-2, 0.5)
        assert metric.block.matrix.shape == (m.num_vertices, m.num_vertices)
        fixed = vector_dofs(m.boundary_vertices)
        assert np.array_equal(metric.constrained, fixed)
        rhs = np.random.default_rng(5).standard_normal(2 * m.num_vertices)
        rhs[fixed] = 0.0
        old = fem.apply_dirichlet(padded_vector_form(m, 3e-2, 0.5), fixed)
        want = spla.splu(old.tocsc()).solve(rhs)
        got = metric.solve_constrained(rhs)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_two_column_solve_equals_two_solves(self, mesh):
        a = with_constraints(assemble_scalar_laplace(mesh, 1.0),
                             mesh.boundary_vertices)
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal((mesh.num_vertices, 2))
        bc = rng.standard_normal((mesh.boundary_vertices.size, 2))
        got = a.solve_constrained(rhs, bc_values=bc)
        assert got.shape == rhs.shape
        for col in range(2):
            want = a.solve_constrained(rhs[:, col], bc_values=bc[:, col])
            np.testing.assert_allclose(got[:, col], want, rtol=0,
                                       atol=1e-14 * np.abs(want).max())


class TestConstrainedSolve:
    def test_laplace_patch_test(self, mesh):
        """A linear function solves the Laplace equation exactly on P1."""
        a = with_constraints(assemble_scalar_laplace(mesh, 1.0),
                             mesh.boundary_vertices)
        exact = 0.3 * mesh.vertices[:, 0] + 0.7 * mesh.vertices[:, 1]
        u = a.solve_constrained(np.zeros(mesh.num_vertices),
                                bc_values=exact[mesh.boundary_vertices])
        assert np.abs(u - exact).max() < 1e-10

    def test_manufactured_poisson(self):
        """-Delta u = 2 pi^2 sin(pi x) sin(pi y), homogeneous Dirichlet."""
        m = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), 0.05)
        a = with_constraints(assemble_scalar_laplace(m, 1.0),
                             m.boundary_vertices)
        exact = (np.sin(np.pi * m.vertices[:, 0])
                 * np.sin(np.pi * m.vertices[:, 1]))
        rhs = assemble_mass(m).matrix @ (2 * np.pi ** 2 * exact)
        u = a.solve_constrained(rhs)
        assert np.abs(u - exact).max() < 5e-3

    def test_unconstrained_singular_stiffness_detected(self, mesh):
        a = assemble_scalar_laplace(mesh, 1.0)
        rhs = np.zeros(mesh.num_vertices)
        rhs[0] = 1.0  # not in the range of the pure-Neumann operator
        with pytest.raises(SingularSystemError):
            a.solve_constrained(rhs)

    def test_constraint_rows_are_identities(self, mesh):
        a = with_constraints(assemble_scalar_laplace(mesh, 1.0),
                             mesh.boundary_vertices)
        mat = a.constrained_matrix
        row = mat[mesh.boundary_vertices[0]].toarray().ravel()
        expected = np.zeros(mesh.num_vertices)
        expected[mesh.boundary_vertices[0]] = 1.0
        assert np.array_equal(row, expected)


class TestDirichletElimination:
    """`apply_dirichlet` against the LIL path it replaced, bit for bit."""

    @staticmethod
    def assert_same_csr(matrix, constrained):
        got = fem.apply_dirichlet(matrix, constrained)
        want = reference_dirichlet(matrix, constrained)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)

    def test_kkt_matrix(self, mesh):
        cfg = model.ProblemConfig()
        target = model.make_target(cfg, 0.05)
        ops = model.OperatorSet(mesh, cfg, 3e-2, 0.5)
        z = model.transfer_target(target, mesh)
        z_grad = model.target_gradients(target, mesh)
        u = model.solve_state(ops)
        lam = model.solve_adjoint(ops, u, z)
        system = kkt.assemble_kkt(
            shape_calculus.element_terms(ops, u, lam, z, z_grad))
        self.assert_same_csr(saddle_matrix(system),
                             saddle_constrained_dofs(system))

    def test_state_operator(self, mesh):
        op = model.OperatorSet(mesh, model.ProblemConfig()).state
        self.assert_same_csr(op.matrix, op.constrained)

    def test_deformation_metric(self, mesh):
        op = shape_calculus.deformation_metric(mesh, 3e-2, 0.5)
        self.assert_same_csr(metric_matrix(op), op.constrained)

    def test_no_constraints(self, mesh):
        op = assemble_mass(mesh)
        self.assert_same_csr(op.matrix, op.constrained)
