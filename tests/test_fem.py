import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from deformopt import fem, kkt, model, shape_calculus
from deformopt.fem import (FemError, SingularSystemError, assemble_mass,
                           assemble_scalar_laplace, assemble_vector_h1_form,
                           elem_grad, elem_jacobian, vector_dofs)
from deformopt.mesh import (REGION_INCLUSION, InclusionShape,
                            apply_deformation, generate_mesh)
import element_terms_reference as ref
from kkt_reference import (metric_matrix, mixed_scatter, reference_dirichlet,
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


def assert_same_arrays(got, want):
    """Equal compressed arrays of one format (CSR or CSC), down to the sign
    of a zero."""
    assert got.format == want.format
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
        assert_same_arrays(g, want)


def free_block(matrix, constrained):
    """The free x free block of the canonical CSR form of `matrix`, by
    scipy's row and column indexing, in canonical CSC; test reference."""
    mat = matrix.tocsr(copy=True)
    mat.sum_duplicates()
    free = np.setdiff1d(np.arange(mat.shape[0]), constrained)
    return mat[free][:, free].tocsc()


class TestElementCalculus:
    def test_gradient_of_linear_is_exact(self, mesh):
        x, y = mesh.vertices.T
        g = elem_grad(mesh, 3 * x - 2 * y)
        assert g.shape == (2, mesh.num_triangles)
        assert np.allclose(g.T, [3.0, -2.0], atol=1e-12)

    def test_jacobian_and_divergence_of_linear_field(self, mesh):
        x, y = mesh.vertices.T
        v = np.column_stack([2 * x + y, 4 * y])
        jac = elem_jacobian(mesh, v)
        assert jac.shape == (2, 2, mesh.num_triangles)
        assert np.allclose(jac.transpose(2, 0, 1), [[2.0, 1.0], [0.0, 4.0]],
                           atol=1e-12)
        assert np.allclose(jac[0, 0] + jac[1, 1], 6.0, atol=1e-12)

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
        """M integrates products of P1 fields exactly: x and y are P1, so
        on the unit square x . M y = int xy = 1/4 and x . M x = 1/3."""
        x, y = mesh.vertices.T
        m = assemble_mass(mesh)
        assert m.energy(x, y) == pytest.approx(0.25, rel=1e-12)
        assert m.energy(x) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_stiffness_kernel_and_energy(self, mesh):
        a = assemble_scalar_laplace(mesh, 1.0)
        ones = np.ones(mesh.num_vertices)
        assert abs(a.energy(ones)) < 1e-12
        # int |grad(x)|^2 = 1 on the unit square
        assert a.energy(mesh.vertices[:, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_stiffness_region_weights(self, mesh):
        """Per-element conductivities weight each element's energy: for
        f = x (|grad f| = 1) the energy is the mu-weighted area."""
        inside = mesh.region == REGION_INCLUSION
        a = assemble_scalar_laplace(mesh, np.where(inside, 7.0, 1.0))
        area_in = fem.geometry(mesh).areas[inside].sum()
        assert a.energy(mesh.vertices[:, 0]) == pytest.approx(
            7.0 * area_in + (1.0 - area_in), rel=1e-12)

    def test_nonpositive_conductivity_rejected(self, mesh):
        with pytest.raises(FemError):
            assemble_scalar_laplace(mesh, 0.0)

    def test_vector_form_decouples_components(self, mesh):
        b = assemble_vector_h1_form(mesh, 2.0, 0.5)
        m = assemble_mass(mesh)
        a = assemble_scalar_laplace(mesh, 1.0)
        f = np.cos(mesh.vertices[:, 0] * mesh.vertices[:, 1])
        v = np.column_stack([f, 0 * f])
        expected = 2.0 * (m.energy(f) + 0.5 * a.energy(f))
        assert b.energy(v.reshape(-1)) == pytest.approx(expected, rel=1e-12)

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
        f = rng.standard_normal(m.num_vertices)
        v = rng.standard_normal((m.num_vertices, 2))
        assert np.array_equal(np.moveaxis(elem_grad(m, f), -1, 0),
                              ref.elem_grad(m, f))
        assert np.array_equal(np.moveaxis(elem_jacobian(m, v), -1, 0),
                              ref.elem_jacobian(m, v))

    def test_scatter_csr_bit_identical(self, mesh):
        """K, M and the metric block b_s from element-last local matrices:
        the CSR arrays of the (ne, ...) kernels through the reference
        scatter."""
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
        from (r, c, ne) local arrays: the CSR arrays of the reference
        scatter of the same entries in the (ne, r, c) layout, for each of
        the three kinds and each of several fills."""
        patterns = fem.ScatterPatterns(mesh)
        rng = np.random.default_rng(sum(block))
        moved = apply_deformation(
            mesh, 1e-3 * rng.standard_normal((mesh.num_vertices, 2)), 1.0)
        for _ in range(2):
            local = rng.standard_normal((*block, mesh.num_triangles))
            local[rng.random(local.shape) < 0.1] = 0.0
            assert_same_arrays(patterns.scatter(moved, local),
                               reference(moved, local.transpose(2, 0, 1)))

    @pytest.mark.parametrize("h", [0.1, 0.05, 0.02])
    def test_patterns_have_the_coo_structure(self, h):
        """Each kind's pattern, derived from the 3x3 one: `indices` and
        `indptr` equal those of scipy's `coo_matrix(...).tocsr()` of the
        same entries, on which the kept SuperLU orderings rest."""
        m = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), h)
        patterns = fem.ScatterPatterns(m)
        for kind in [(1, 1), (1, 2), (2, 2)]:
            rows, cols = (m.triangles if k == 1 else vector_dofs(m.triangles)
                          for k in kind)
            shape = (m.num_vertices * kind[0], m.num_vertices * kind[1])
            r, c = rows.shape[1], cols.shape[1]
            want = sp.coo_matrix((np.ones(m.num_triangles * r * c), (
                np.repeat(rows, c, axis=1).reshape(-1),
                np.tile(cols, (1, r)).reshape(-1))), shape=shape).tocsr()
            got = patterns._pattern(kind)
            assert got.shape == shape
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.indptr, want.indptr)

    def test_load_sums_like_add_at(self, mesh):
        """A (6, ne) local vector summed onto the 2n dofs equals
        `np.add.at` in the flat (3, ne) order bit for bit, zero signs
        too."""
        rng = np.random.default_rng(7)
        local = rng.standard_normal((3, 2, mesh.num_triangles))
        local[rng.random(local.shape) < 0.1] = -0.0
        want = np.zeros((mesh.num_vertices, 2))
        np.add.at(want, mesh.triangles.T.reshape(-1),
                  local.transpose(0, 2, 1).reshape(-1, 2))
        got = fem.ScatterPatterns(mesh).load(mesh, local.reshape(6, -1))
        assert got.tobytes() == want.reshape(-1).tobytes()

    def test_patterns_refuse_other_triangles(self, mesh):
        other = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), 0.15)
        with pytest.raises(FemError, match="other triangles"):
            fem.ScatterPatterns(mesh).scatter(
                other, np.zeros((3, 3, other.num_triangles)))

    @pytest.mark.parametrize("shape", [
        lambda ne: (4, 4, ne),          # no kind has 4 rows
        lambda ne: (3, 7, ne),          # no kind has 7 columns
        lambda ne: (3, 3, ne + 5),      # more elements than the mesh
        lambda ne: (ne, 3, 3),          # the element-first layout
        lambda ne: (3, ne)],            # a vector, not matrices
        ids=["4x4", "3x7", "ne+5", "element-first", "vector"])
    def test_scatter_refuses_other_shapes(self, mesh, shape):
        with pytest.raises(FemError, match="local array of shape"):
            fem.ScatterPatterns(mesh).scatter(
                mesh, np.zeros(shape(mesh.num_triangles)))

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
        old = reference_dirichlet(padded_vector_form(m, 3e-2, 0.5), fixed)
        want = spla.splu(old.tocsc()).solve(rhs)
        got = metric.solve_constrained(rhs)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_two_column_solve_equals_two_solves(self, mesh):
        a = assemble_scalar_laplace(mesh, 1.0,
                                    constrained=mesh.boundary_vertices)
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
        a = assemble_scalar_laplace(mesh, 1.0,
                                    constrained=mesh.boundary_vertices)
        exact = 0.3 * mesh.vertices[:, 0] + 0.7 * mesh.vertices[:, 1]
        u = a.solve_constrained(np.zeros(mesh.num_vertices),
                                bc_values=exact[mesh.boundary_vertices])
        assert np.abs(u - exact).max() < 1e-10

    def test_manufactured_poisson(self):
        """-Delta u = 2 pi^2 sin(pi x) sin(pi y), homogeneous Dirichlet."""
        m = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), 0.05)
        a = assemble_scalar_laplace(m, 1.0, constrained=m.boundary_vertices)
        exact = (np.sin(np.pi * m.vertices[:, 0])
                 * np.sin(np.pi * m.vertices[:, 1]))
        rhs = assemble_mass(m).matrix @ (2 * np.pi ** 2 * exact)
        u = a.solve_constrained(rhs)
        assert np.abs(u - exact).max() < 5e-3

    def test_unconstrained_singular_stiffness_detected(self, mesh):
        """The residual check reports the singular system after one factor
        solve, with no iterative refinement before it."""
        a = assemble_scalar_laplace(mesh, 1.0)
        factor, solves = a._factor, []

        class Counted:
            def solve(self, rhs):
                solves.append(rhs)
                return factor.solve(rhs)

        a._factor = Counted()
        rhs = np.zeros(mesh.num_vertices)
        rhs[0] = 1.0  # not in the range of the pure-Neumann operator
        with pytest.raises(SingularSystemError, match="linear solve residual"):
            a.solve_constrained(rhs)
        assert len(solves) == 1


class TestDirichletElimination:
    """`apply_dirichlet` eliminates the constrained dofs: it gives the free
    x free block of a canonical CSR matrix in canonical CSC, bit for bit,
    stored zeros kept."""

    @staticmethod
    def assert_free_block(matrix, constrained):
        """The block `apply_dirichlet` gathers from the canonical form of
        `matrix` by the `_Restriction` of that form's own arrays."""
        mat = matrix.tocsr(copy=True)
        mat.sum_duplicates()
        restriction = fem._Restriction(mat.indptr, mat.indices, constrained)
        block = fem.apply_dirichlet(mat, restriction)
        assert_same_arrays(block, free_block(matrix, constrained))
        return block

    @staticmethod
    def assert_operator_block(op, patterns):
        """An operator's block, gathered by the `_Restriction` the patterns
        that filled it keep for its constrained set."""
        assert op.restriction is patterns.restriction(op.constrained)
        assert_same_arrays(op.free_block,
                           free_block(op.matrix, op.constrained))

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
        self.assert_free_block(saddle_matrix(system),
                               saddle_constrained_dofs(system))

    def test_state_operator(self, mesh):
        ops = model.OperatorSet(mesh, model.ProblemConfig())
        self.assert_operator_block(ops.state, ops.patterns)

    def test_deformation_metric(self, mesh):
        patterns = fem.ScatterPatterns(mesh)
        op = shape_calculus.deformation_metric(mesh, 3e-2, 0.5, patterns)
        self.assert_operator_block(op.block, patterns)
        self.assert_free_block(metric_matrix(op), op.constrained)

    def test_positions_kept_per_constrained_set(self, mesh, monkeypatch):
        """K, M and b_s restricted through the patterns that filled them,
        on the start mesh and on a moved iterate: each constrained set's
        `_Restriction` is built once (K and M share one), and every block
        equals the free x free block of its matrix."""
        built = []

        class Counted(fem._Restriction):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(fem, "_Restriction", Counted)
        patterns = fem.ScatterPatterns(mesh)
        rng = np.random.default_rng(12)
        moved = apply_deformation(
            mesh, 1e-3 * rng.standard_normal((mesh.num_vertices, 2)), 1.0)
        for m in (mesh, moved):
            ops = model.OperatorSet(m, model.ProblemConfig(), 3e-2, 0.5,
                                    patterns)
            for op in (ops.state, ops.mass, ops.metric.block):
                self.assert_operator_block(op, patterns)
            assert ops.state.restriction is ops.mass.restriction
        assert len(built) == 2

    def test_no_constraints(self, mesh):
        patterns = fem.ScatterPatterns(mesh)
        op = assemble_mass(mesh, patterns)
        self.assert_operator_block(op, patterns)
        assert op.free_block.shape == op.matrix.shape

    def test_any_csr_matrix(self):
        """Unsorted and duplicate entries, stored zeros (also ones that only
        sum to zero), an empty row, a repeated constrained dof and every
        dof constrained."""
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
            block = self.assert_free_block(matrix, np.array(constrained))
        assert block.shape == (0, 0)
        # the stored zeros of the free block are kept, (3, 5) among them
        block = self.assert_free_block(matrix, np.array([7]))
        assert np.count_nonzero(block.data == 0) > 1


# the options of `SparseOperator._factor`'s one SuperLU call
MMD = dict(permc_spec="MMD_AT_PLUS_A", panel_size=1, diag_pivot_thresh=0.0,
           options={"SymmetricMode": True})


def mmd_factor(matrix):
    """`matrix` factorized as `SparseOperator._factor` factorizes a free
    block: minimum degree on A + A^T per call, diagonal pivots only."""
    return spla.splu(matrix.tocsc(), **MMD)


def iterate(h, deformed):
    """(start mesh, the mesh of a later iterate): the same mesh, or the
    start mesh with its vertices moved."""
    m = generate_mesh(InclusionShape.circle((0.5, 0.5), 0.2), h)
    if not deformed:
        return m, m
    rng = np.random.default_rng(14)
    return m, apply_deformation(
        m, 1e-3 * rng.standard_normal((m.num_vertices, 2)), 1.0)


SIZES = pytest.mark.parametrize("h, deformed", [(0.05, False), (0.02, False),
                                                (0.05, True)],
                                ids=["h0.05", "h0.02", "deformed"])


class TestFactorization:
    """K and b_s factorized by one SuperLU call on their CSC free block,
    against minimum degree on the identity-row matrix."""

    @SIZES
    def test_same_fill_and_solutions(self, h, deformed, monkeypatch):
        start, moved = iterate(h, deformed)
        calls = []
        real = spla.splu

        def spy(matrix, **kwargs):
            calls.append((matrix.format, kwargs))
            return real(matrix, **kwargs)

        monkeypatch.setattr(spla, "splu", spy)
        patterns = fem.ScatterPatterns(start)
        rng = np.random.default_rng(15)
        for m in (start, moved, moved):
            ops = model.OperatorSet(m, model.ProblemConfig(), 3e-2, 0.5,
                                    patterns)
            for op in (ops.state, ops.metric.block):
                want = real(reference_dirichlet(op.matrix, op.constrained)
                            .tocsc(), **MMD)
                got = op._factor
                # an identity row is one entry of L and one of U
                nc = m.num_vertices - op.restriction.free.size
                assert got.L.nnz + got.U.nnz == \
                    want.L.nnz + want.U.nnz - 2 * nc
                rhs = rng.standard_normal((m.num_vertices, 2))
                rhs[op.constrained] = 0.0
                x = op.restriction.extend(
                    got.solve(op.restriction.restrict(rhs)))
                ref_x = want.solve(rhs)
                assert np.abs(x - ref_x).max() <= \
                    1e-14 * np.abs(ref_x).max()
        # one call per factorization, K's and b_s's on each iterate, each
        # on CSC input with minimum degree and panels of one column
        assert calls == [("csc", MMD)] * 6
        assert len(patterns._restrictions) == 2

    @SIZES
    def test_block_solves_equal_identity_row_solves(self, h, deformed):
        """The free x free block's minimum-degree factorization solves K
        and b_s bit for bit as that of the identity-row matrix it
        replaced: the identity rows are isolated nodes of A + A^T, and
        minimum degree orders the free dofs alike."""
        _, m = iterate(h, deformed)
        ops = model.OperatorSet(m, model.ProblemConfig(), 3e-2, 0.5)
        rhs = np.random.default_rng(20).standard_normal((m.num_vertices, 2))
        for op in (ops.state, ops.metric.block):
            free = rhs.copy()
            free[op.constrained] = 0.0
            want = mmd_factor(reference_dirichlet(
                op.matrix, op.constrained)).solve(free)
            assert op.solve_constrained(rhs).tobytes() == want.tobytes()

    def test_stored_zero_kept_in_the_block(self, mesh):
        """A stored zero in the free block is kept, so the block keeps the
        structure of its constrained set.  The solution agrees with a
        minimum-degree factorization of the block with the zero
        dropped."""
        patterns = fem.ScatterPatterns(mesh)
        state = model.OperatorSet(mesh, model.ProblemConfig(),
                                  patterns=patterns).state
        # zero a symmetric pair of free off-diagonal entries
        zeroed = state.matrix.copy()
        rows = np.repeat(np.arange(mesh.num_vertices),
                         np.diff(zeroed.indptr))
        free = np.ones(mesh.num_vertices, dtype=bool)
        free[state.constrained] = False
        k = np.flatnonzero(free[rows] & free[zeroed.indices]
                           & (rows < zeroed.indices))[0]
        i, j = rows[k], zeroed.indices[k]
        zeroed[i, j] = zeroed[j, i] = 0.0
        assert zeroed.nnz == state.matrix.nnz
        op = fem.SparseOperator(zeroed, state.constrained,
                                patterns.restriction(state.constrained))
        assert op.restriction is state.restriction
        assert op.free_block.nnz == state.free_block.nnz
        rhs = np.random.default_rng(16).standard_normal(mesh.num_vertices)
        got = op.solve_constrained(rhs)
        dropped = op.free_block.copy()
        dropped.eliminate_zeros()
        assert dropped.nnz == op.free_block.nnz - 2
        want = mmd_factor(dropped).solve(op.restriction.restrict(rhs))
        assert np.abs(op.restriction.restrict(got) - want).max() <= \
            1e-14 * np.abs(want).max()
        assert np.all(got[state.constrained] == 0.0)


class TestMassSolve:
    """`fem.solve_mass` (Chebyshev on the Jacobi-scaled mass) against the
    sparse direct solve it replaced."""

    @SIZES
    def test_equals_direct_solve(self, h, deformed):
        _, m = iterate(h, deformed)
        mass = model.OperatorSet(m, model.ProblemConfig()).mass
        rhs = np.random.default_rng(17).standard_normal((m.num_vertices, 2))
        got = fem.solve_mass(mass, rhs)
        free = rhs.copy()
        free[mass.constrained] = 0.0
        want = mmd_factor(reference_dirichlet(
            mass.matrix, mass.constrained)).solve(free)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        dual, want_dual = (rhs * got).sum(axis=0), (rhs * want).sum(axis=0)
        assert np.all(np.abs(dual - want_dual) <= 1e-14 * np.abs(want_dual))
        one = fem.solve_mass(mass, rhs[:, 0])
        assert np.abs(one - want[:, 0]).max() <= 1e-13 * np.abs(want).max()

    def test_scaled_spectrum_within_the_bound(self, mesh):
        """The Jacobi-scaled constrained mass has its spectrum in
        [1/2, 2], on the start mesh and on a strongly moved one."""
        rng = np.random.default_rng(18)
        moved = apply_deformation(
            mesh, 2e-2 * rng.standard_normal((mesh.num_vertices, 2))
            * (np.isin(np.arange(mesh.num_vertices),
                       mesh.boundary_vertices, invert=True))[:, None], 1.0)
        assert fem.signed_areas(moved.vertices, moved.triangles).min() > 0
        for m in (mesh, moved):
            mat = model.OperatorSet(m, model.ProblemConfig()).mass.free_block
            s = 1.0 / np.sqrt(mat.diagonal())
            ev = np.linalg.eigvalsh(s[:, None] * mat.toarray() * s)
            assert 0.5 - 1e-12 <= ev.min() and ev.max() <= 2.0 + 1e-12

    def test_stiffness_fails_the_residual_check(self, mesh):
        """Negative control: the constrained stiffness, whose scaled
        spectrum lies far outside [1/2, 2], raises instead of returning."""
        ops = model.OperatorSet(mesh, model.ProblemConfig())
        rhs = 10 * np.random.default_rng(19).standard_normal(
            mesh.num_vertices)
        with pytest.raises(SingularSystemError, match="mass solve residual"):
            fem.solve_mass(ops.state, rhs)
