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
from deformopt.mesh import (REGION_INCLUSION, InclusionShape,
                            apply_deformation, generate_mesh)
import element_terms_reference as ref
from kkt_reference import (metric_matrix, mixed_scatter,
                           saddle_constrained_dofs, saddle_matrix, scatter)


@pytest.fixture(scope="module")
def mesh():
    return generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), 0.1)


def padded_vector_form(mesh, eps1, eps2):
    """The 2n metric as `assemble_vector_h1_form` built it before it kept
    only the scalar block: a zero-padded 6x6 local matrix per element
    scattered on interleaved dofs; test reference."""
    geo = ref.geometry(mesh)
    scalar = eps1 * (geo.local_mass
                     + eps2 * ref.stiffness_local(geo.areas, geo.grads))
    local = np.zeros((mesh.num_triangles, 6, 6))
    local[:, 0::2, 0::2] = scalar
    local[:, 1::2, 1::2] = scalar
    return scatter(mesh, local, ndof_per_vertex=2)


def assert_same_csr(got, want):
    """Equal CSR arrays, down to the sign of a zero."""
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def assert_operators_equal_reference(m):
    """K, M and b_s of `m` against the (ne, ...) kernels, bit for bit."""
    mu = model.ProblemConfig().mu(m)
    patterns = fem.ScatterPatterns(m)
    got = [assemble_scalar_laplace(m, mu, patterns).matrix,
           assemble_mass(m, patterns).matrix,
           assemble_vector_h1_form(m, 3e-2, 0.5, patterns).block.matrix]
    for g, want in zip(got, ref.operator_matrices(m, mu, 3e-2, 0.5)):
        assert_same_csr(g, want)


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
        assert g.shape == (2, mesh.num_triangles)
        assert np.allclose(g.T, [3.0, -2.0], atol=1e-12)

    def test_jacobian_and_divergence_of_linear_field(self, mesh):
        v = VectorField.from_callable(
            mesh, lambda x: np.column_stack([2 * x[:, 0] + x[:, 1],
                                             4 * x[:, 1]]))
        jac = elem_jacobian(v)
        assert jac.shape == (2, 2, mesh.num_triangles)
        assert np.allclose(jac.transpose(2, 0, 1), [[2.0, 1.0], [0.0, 4.0]],
                           atol=1e-12)
        assert np.allclose(divergence(v), 6.0, atol=1e-12)

    def test_integrate_constant(self, mesh):
        one = ScalarField.from_callable(mesh, lambda p: np.ones(len(p)))
        assert integrate_p1_product([one]) == pytest.approx(1.0, abs=1e-12)

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
        """Per-element conductivities weight each element's energy: for
        f = x (|grad f| = 1) the energy is the mu-weighted area."""
        inside = mesh.region == REGION_INCLUSION
        a = assemble_scalar_laplace(mesh, np.where(inside, 7.0, 1.0))
        f = ScalarField.from_callable(mesh, lambda x: x[:, 0])
        area_in = fem.geometry(mesh).areas[inside].sum()
        assert a.energy(f.values) == pytest.approx(
            7.0 * area_in + (1.0 - area_in), rel=1e-12)

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

    @pytest.mark.parametrize("h, deformed", [(0.05, False), (0.02, False),
                                             (0.05, True)])
    def test_geometry_and_element_calculus_equal_reference(self, h,
                                                           deformed):
        """Areas, basis gradients, local mass, elem_grad and elem_jacobian
        in the element-last layout against the (ne, ...) kernels.  Areas,
        gradients and mass agree bit for bit; the sums agree in value (an
        einsum starts from +0.0, so an exact zero may differ in sign, which
        no scatter or load sees: each sums from +0.0 too)."""
        m = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), h)
        rng = np.random.default_rng(9)
        if deformed:
            m = apply_deformation(
                m, 1e-3 * rng.standard_normal((m.num_vertices, 2)), 1.0)
        geo, want = fem.geometry(m), ref.geometry(m)
        assert geo.areas.tobytes() == want.areas.tobytes()
        assert np.array_equal(geo.areas, fem.signed_areas(m.vertices,
                                                          m.triangles))
        for got, old in [(geo.grads, want.grads),
                         (geo.local_mass, want.local_mass)]:
            assert got.shape == old.shape[1:] + old.shape[:1]
            assert np.moveaxis(got, -1, 0).tobytes() == old.tobytes()
        f = ScalarField(m, rng.standard_normal(m.num_vertices))
        v = VectorField(m, rng.standard_normal((m.num_vertices, 2)))
        assert np.array_equal(np.moveaxis(elem_grad(f), -1, 0),
                              ref.elem_grad(f))
        assert np.array_equal(np.moveaxis(elem_jacobian(v), -1, 0),
                              ref.elem_jacobian(v))

    def test_scatter_csr_bit_identical(self, mesh):
        """K, M and the metric block b_s from element-last local matrices:
        the CSR arrays of the (ne, ...) kernels through the COO scatter."""
        assert_operators_equal_reference(mesh)

    @pytest.mark.parametrize("h, deformed", [(0.05, False), (0.02, False),
                                             (0.05, True)])
    def test_operators_bit_identical_at_size(self, h, deformed):
        """As above, at h=0.05 and h=0.02 and on a deformed iterate."""
        m = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), h)
        if deformed:
            rng = np.random.default_rng(10)
            m = apply_deformation(
                m, 1e-3 * rng.standard_normal((m.num_vertices, 2)), 1.0)
        assert_operators_equal_reference(m)

    @pytest.mark.parametrize("block, reference", [
        ((3, 3), lambda m, local: scatter(m, local)),
        ((3, 6), mixed_scatter),
        ((6, 6), lambda m, local: scatter(m, local, ndof_per_vertex=2))],
        ids=["3x3", "3x6", "6x6"])
    def test_patterns_fill_deformed_mesh_like_coo(self, mesh, block,
                                                  reference):
        """Patterns built on the start mesh, filled on a deformed iterate
        from (r, c, ne) local arrays: the CSR arrays of the COO-to-CSR
        scatter of the same entries in the (ne, r, c) layout, for each of
        the three kinds and each of several fills."""
        patterns = fem.ScatterPatterns(mesh)
        rng = np.random.default_rng(sum(block))
        moved = apply_deformation(
            mesh, 1e-3 * rng.standard_normal((mesh.num_vertices, 2)), 1.0)
        for _ in range(2):
            local = rng.standard_normal((*block, mesh.num_triangles))
            local[rng.random(local.shape) < 0.1] = 0.0
            assert_same_csr(fem._scatter(moved, local, patterns),
                            reference(moved, local.transpose(2, 0, 1)))

    def test_load_sums_like_add_at(self, mesh):
        """A (6, ne) local vector summed onto the 2n dofs equals
        `np.add.at` on the (ne, 3, 2) layout bit for bit, zero signs too."""
        rng = np.random.default_rng(7)
        local = rng.standard_normal((3, 2, mesh.num_triangles))
        local[rng.random(local.shape) < 0.1] = -0.0
        want = np.zeros((mesh.num_vertices, 2))
        np.add.at(want, mesh.triangles.reshape(-1),
                  local.transpose(2, 0, 1).reshape(-1, 2))
        got = fem.ScatterPatterns(mesh).load(mesh, local.reshape(6, -1))
        assert got.tobytes() == want.reshape(-1).tobytes()

    def test_patterns_refuse_other_triangles(self, mesh):
        other = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), 0.15)
        with pytest.raises(FemError, match="other triangles"):
            fem._scatter(other, np.zeros((3, 3, other.num_triangles)),
                         fem.ScatterPatterns(mesh))

    @pytest.mark.parametrize("shape", [
        lambda ne: (4, 4, ne),          # no kind has 4 rows
        lambda ne: (3, 7, ne),          # no kind has 7 columns
        lambda ne: (3, 3, ne + 5),      # more elements than the mesh
        lambda ne: (ne, 3, 3),          # the element-first layout
        lambda ne: (3, ne)],            # a vector, not matrices
        ids=["4x4", "3x7", "ne+5", "element-first", "vector"])
    def test_scatter_refuses_other_shapes(self, mesh, shape):
        with pytest.raises(FemError, match="local array of shape"):
            fem._scatter(mesh, np.zeros(shape(mesh.num_triangles)),
                         fem.ScatterPatterns(mesh))

    def test_load_refuses_other_shapes(self, mesh):
        patterns = fem.ScatterPatterns(mesh)
        for shape in [(4, mesh.num_triangles), (6, mesh.num_triangles + 1),
                      (3, 2, mesh.num_triangles)]:
            with pytest.raises(FemError, match="local array of shape"):
                patterns.load(mesh, np.zeros(shape))

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
        assert_same_csr(got, want)

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

    def test_positions_kept_per_constrained_set(self, mesh, monkeypatch):
        """K, M and b_s constrained through the patterns that filled them,
        on the start mesh and on a moved iterate: each constrained set's
        positions are found once, and every CSR array equals the LIL
        path's."""
        built = []
        real = fem._elimination

        def counted(*args):
            built.append(1)
            return real(*args)

        monkeypatch.setattr(fem, "_elimination", counted)
        patterns = fem.ScatterPatterns(mesh)
        rng = np.random.default_rng(12)
        moved = apply_deformation(
            mesh, 1e-3 * rng.standard_normal((mesh.num_vertices, 2)), 1.0)
        for m in (mesh, moved):
            ops = model.OperatorSet(m, model.ProblemConfig(), 3e-2, 0.5,
                                    patterns)
            for op in (ops.state, ops.mass, ops.metric.block):
                assert op.patterns is patterns
                assert_same_csr(op.constrained_matrix,
                                reference_dirichlet(op.matrix,
                                                    op.constrained))
        assert len(built) == 2

    def test_kept_zero_or_other_structure_falls_back(self, mesh):
        """A stored exact zero among the kept entries, or a matrix of
        another structure, takes the positions from its own arrays."""
        ops = model.OperatorSet(mesh, model.ProblemConfig())
        op = ops.state
        zeroed = op.matrix.copy()
        rows = np.repeat(np.arange(mesh.num_vertices),
                         np.diff(zeroed.indptr))
        free = np.ones(mesh.num_vertices, dtype=bool)
        free[op.constrained] = False
        zeroed.data[np.flatnonzero(free[rows] & free[zeroed.indices])[0]] = 0.0
        other = (op.matrix + sp.eye(mesh.num_vertices, k=5)).tocsr()
        for matrix in (op.matrix, zeroed, other):
            got = fem.apply_dirichlet(matrix, op.constrained, op.patterns)
            assert_same_csr(got, reference_dirichlet(matrix, op.constrained))
            assert_same_csr(got, fem.apply_dirichlet(matrix, op.constrained))

    def test_no_constraints(self, mesh):
        op = assemble_mass(mesh)
        self.assert_same_csr(op.matrix, op.constrained)

    def test_any_csr_matrix(self):
        """Unsorted and duplicate entries, stored zeros (also ones that only
        sum to zero), an empty row and a repeated constrained dof."""
        rng = np.random.default_rng(8)
        rows = rng.integers(0, 40, 400)
        rows[rows == 7] = 8                       # row 7 stays empty
        cols = rng.integers(0, 40, 400)
        data = rng.standard_normal(400)
        data[:30] = 0.0
        rows[30:32], cols[30:32], data[30:32] = 3, 5, [1.5, -1.5]
        order = np.argsort(rows, kind="stable")   # unsorted within rows
        matrix = sp.csr_matrix(
            (data[order], cols[order],
             np.searchsorted(rows[order], np.arange(41))), shape=(40, 40))
        assert not matrix.has_canonical_format
        for constrained in ([3, 7, 11], [11, 3, 3], list(range(40))):
            fem.apply_dirichlet(matrix, np.array(constrained))
            assert not matrix.has_canonical_format   # the input is untouched
            self.assert_same_csr(matrix.copy(), np.array(constrained))
