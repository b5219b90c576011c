"""Linear second shape derivative and the regularized one-shot KKT system.

Unknown ordering is (u-direction, deformation, lambda-direction).  The
deformation block carries the linear second shape derivative; nonsymmetric
second material derivatives of u and lambda are excluded by construction,
which keeps the full matrix symmetric without any commutation assumption
on the direction fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem, model, shape_calculus
from .fem import ScalarField, VectorField
from .mesh import Mesh, REGION_INCLUSION


def _vector_scatter(mesh, local):
    """Assemble (ne, 3, 2, 3, 2) local blocks into a (2n, 2n) CSR matrix."""
    return fem._scatter(mesh, local.reshape(mesh.num_triangles, 6, 6),
                        ndof_per_vertex=2)


def _mixed_scatter(mesh, local):
    """Assemble (ne, 3, 3, 2) scalar-by-vector blocks into (n, 2n) CSR."""
    tris = mesh.triangles
    ne = mesh.num_triangles
    rows = np.repeat(tris, 6).reshape(-1)
    vdofs = np.empty((ne, 6), dtype=np.int64)
    vdofs[:, 0::2] = 2 * tris
    vdofs[:, 1::2] = 2 * tris + 1
    cols = np.tile(vdofs, (1, 3)).reshape(-1)
    n = mesh.num_vertices
    mat = sp.coo_matrix((local.reshape(-1), (rows, cols)), shape=(n, 2 * n))
    return mat.tocsr()


@dataclass
class _ElementTerms:
    """Per-element factors of the mixed and pure shape blocks at one iterate."""

    G: np.ndarray          # (ne, 3, 2) basis gradients
    Mloc: np.ndarray       # (ne, 3, 3) local mass
    Mw: np.ndarray         # (ne, 3) int_e (u - z) phi_i
    gz: np.ndarray         # (ne, 3, 2) nodal grad z
    gu: np.ndarray         # (ne, 2)
    gl: np.ndarray         # (ne, 2)
    Ggu: np.ndarray        # (ne, 3) grad phi_i . grad u
    Ggl: np.ndarray        # (ne, 3) grad phi_i . grad lambda
    gg: np.ndarray         # (ne, 3, 3) grad phi_i . grad phi_j
    muA: np.ndarray        # (ne,) mu |e|
    c_g: np.ndarray        # (ne,) div V coefficient of the Lagrangian
    tr_sign: float


@dataclass
class HessianBlocks:
    """All second-derivative blocks of the Lagrangian at one iterate.

    `b_u_shape` (L_uOmega) and `shape_shape` (L_OmegaOmega) are assembled
    on first access from the stored element terms: the reduced (warm-up)
    step drops both, so it never pays for the five-index L_OmegaOmega
    einsums.
    """

    mesh: Mesh
    mass: sp.csr_matrix          # L_uu
    stiffness: sp.csr_matrix     # L_ulambda (= state operator)
    b_lam_shape: sp.csr_matrix   # L_lambdaOmega, (n, 2n)
    u_constrained: np.ndarray
    v_constrained: np.ndarray
    terms: _ElementTerms = field(repr=False)

    @cached_property
    def state_operator(self):
        """Dirichlet-constrained state operator K; one factorization."""
        return fem.SparseOperator(self.stiffness, self.u_constrained)

    @cached_property
    def b_u_shape(self):
        """L_uOmega, (n, 2n): test u-hat_i, ansatz V_j,b."""
        t = self.terms
        c_state = t.Mw + t.muA[:, None] * t.Ggl            # (ne, 3)
        b_u = np.einsum("ei,ejb->eijb", c_state, t.G)
        b_u -= np.einsum("eij,ejb->eijb", t.Mloc, t.gz)
        b_u -= t.muA[:, None, None, None] * (
            np.einsum("eib,ej->eijb", t.G, t.Ggl)
            + np.einsum("eij,eb->eijb", t.gg, t.gl))
        return _mixed_scatter(self.mesh, b_u)

    @cached_property
    def shape_shape(self):
        """L_OmegaOmega, (2n, 2n)."""
        t = self.terms
        G, Mw, gz, muA, gu, gl = t.G, t.Mw, t.gz, t.muA, t.gu, t.gl
        Ggu, Ggl, gg = t.Ggu, t.Ggl, t.gg
        cc = np.einsum("e,eia,ejb->eiajb", t.c_g, G, G)
        cc -= t.tr_sign * np.einsum("e,eib,eja->eiajb", t.c_g, G, G)
        # z material-derivative couplings
        cc -= np.einsum("eia,ej,ejb->eiajb", G, Mw, gz)
        cc -= np.einsum("eia,ei,ejb->eiajb", gz, Mw, G)
        cc += np.einsum("eij,eia,ejb->eiajb", t.Mloc, gz, gz)
        # remaining transport terms of mu grad u . grad lam
        cc += np.einsum("e,ea,eib,ej->eiajb", muA, gu, G, Ggl)
        cc += np.einsum("e,eb,eja,ei->eiajb", muA, gu, G, Ggl)
        cc += np.einsum("e,ea,eij,eb->eiajb", muA, gu, gg, gl)
        cc += np.einsum("e,eb,eij,ea->eiajb", muA, gu, gg, gl)
        cc += np.einsum("e,ea,eib,ej->eiajb", muA, gl, G, Ggu)
        cc += np.einsum("e,eb,eja,ei->eiajb", muA, gl, G, Ggu)
        # divergence-times-transport cross terms
        cc -= np.einsum("e,eia,eb,ej->eiajb", muA, G, gu, Ggl)
        cc -= np.einsum("e,eia,ej,eb->eiajb", muA, G, Ggu, gl)
        cc -= np.einsum("e,ejb,ea,ei->eiajb", muA, G, gu, Ggl)
        cc -= np.einsum("e,ejb,ei,ea->eiajb", muA, G, Ggu, gl)
        return _vector_scatter(self.mesh, cc)


def assemble_hessian_blocks(mesh: Mesh, cfg: model.ProblemConfig,
                            u: ScalarField, lam: ScalarField,
                            z_on_m: ScalarField, z_grad=None, target=None,
                            alpha_whole_domain=False,
                            flip_tr_term=False) -> HessianBlocks:
    """Assemble the shape-KKT Hessian blocks (L_uOmega and L_OmegaOmega lazily).

    `flip_tr_term` negates the trace part of the pure shape block; it exists
    as a negative control for the mixed-difference consistency check.
    """
    for f in (u, lam, z_on_m):
        if f.mesh is not mesh:
            raise fem.FemError("field lives on a different mesh")
    if z_grad is None:
        z_grad = model.target_gradients(target, mesh) if target is not None \
            else np.zeros((mesh.num_vertices, 2))

    geo = fem.geometry(mesh)
    tris = mesh.triangles
    ne = mesh.num_triangles
    area = geo.areas
    G = geo.grads                                   # (ne, 3, 2)
    Mloc = geo.local_mass
    mu_e = np.where(mesh.region == REGION_INCLUSION, cfg.mu_in, cfg.mu_out)
    gu = fem.elem_grad(u)
    gl = fem.elem_grad(lam)
    w = u.values - z_on_m.values
    wloc = w[tris]
    Mw = np.einsum("eij,ej->ei", Mloc, wloc)        # int_e w phi_i
    chi = np.ones(ne) if alpha_whole_domain \
        else (mesh.region == REGION_INCLUSION).astype(float)

    gg = np.einsum("eid,ejd->eij", G, G)            # grad phi_i . grad phi_j
    Ggl = np.einsum("eid,ed->ei", G, gl)
    Ggu = np.einsum("eid,ed->ei", G, gu)
    muA = mu_e * area

    # --- L_lambdaOmega
    b_lam = np.einsum("ei,ejb->eijb", muA[:, None] * Ggu, G)
    b_lam -= muA[:, None, None, None] * (
        np.einsum("eij,eb->eijb", gg, gu)
        + np.einsum("eib,ej->eijb", G, Ggu))
    mat_b_lam = _mixed_scatter(mesh, b_lam)

    half_w2 = 0.5 * np.einsum("ei,ei->e", wloc, Mw)
    c_g = half_w2 + area * (mu_e * np.einsum("ed,ed->e", gu, gl)
                            + 0.5 * cfg.alpha * chi)
    terms = _ElementTerms(G, Mloc, Mw, z_grad[tris], gu, gl, Ggu, Ggl, gg,
                          muA, c_g, -1.0 if flip_tr_term else 1.0)

    mass = fem.assemble_mass(mesh).matrix
    stiff = fem.assemble_scalar_laplace(
        mesh, {0: cfg.mu_in, 1: cfg.mu_out}).matrix
    u_constrained, _ = model.state_dirichlet(mesh)
    v_constrained = shape_calculus.deformation_constraints(mesh)
    return HessianBlocks(mesh, mass, stiff, mat_b_lam, u_constrained,
                         v_constrained, terms)


class ShapeHessian:
    """Evaluation helper around the assembled blocks."""

    def __init__(self, blocks: HessianBlocks, cfg):
        self.blocks = blocks
        self.cfg = cfg

    def shape_value(self, v: VectorField, w_dir: VectorField) -> float:
        """Pure deformation block L_OmegaOmega[V, W] (no sensitivities)."""
        return float(v.flat() @ (self.blocks.shape_shape @ w_dir.flat()))

    def sensitivities(self, v: VectorField):
        """Material derivatives (du[V], dlambda[V]) of state and adjoint."""
        b = self.blocks
        vflat = v.flat().copy()
        vflat[b.v_constrained] = 0.0
        udot = b.state_operator.solve_constrained(-(b.b_lam_shape @ vflat))
        rhs = -(b.mass @ udot + b.b_u_shape @ vflat)
        ldot = b.state_operator.solve_constrained(rhs)
        return udot, ldot

    def full_value(self, triple1, triple2) -> float:
        """L''[(udot, V, ldot), (udot~, W, ldot~)] on explicit directions."""
        u1, v1, l1 = triple1
        u2, v2, l2 = triple2
        b = self.blocks
        v1f, v2f = np.asarray(v1, dtype=float).reshape(-1), \
            np.asarray(v2, dtype=float).reshape(-1)
        val = u1 @ (b.mass @ u2) + u1 @ (b.stiffness @ l2) \
            + l1 @ (b.stiffness @ u2)
        val += u1 @ (b.b_u_shape @ v2f) + u2 @ (b.b_u_shape @ v1f)
        val += l1 @ (b.b_lam_shape @ v2f) + l2 @ (b.b_lam_shape @ v1f)
        val += v1f @ (b.shape_shape @ v2f)
        return float(val)

    def reduced_value(self, v: VectorField, w_dir: VectorField) -> float:
        """Linear second shape derivative of the reduced objective."""
        uv, lv = self.sensitivities(v)
        uw, lw = self.sensitivities(w_dir)
        return self.full_value((uv, v.flat(), lv), (uw, w_dir.flat(), lw))


@dataclass
class KktSystem:
    """Regularized 3x3 block KKT system at one iterate.

    With `reduced` (the projected-gradient warm-up step) the blocks L_uu,
    L_uOmega and L_OmegaOmega are dropped, which leaves the block-triangular
    system  K dlambda = -r_u,  eps b V + B^T dlambda = -r_Omega,
    K du + B V = -r_lambda  with K the state operator and B = L_lambdaOmega.
    """

    mesh: Mesh
    blocks: HessianBlocks
    regularizer: sp.csr_matrix        # eps * b_OmegaOmega
    rhs_u: np.ndarray
    rhs_shape: np.ndarray
    rhs_lam: np.ndarray
    reduced: bool = False             # projected-gradient variant

    @property
    def num_scalar(self):
        return self.mesh.num_vertices

    def matrix(self):
        b = self.blocks
        n = self.num_scalar
        zero_uu = sp.csr_matrix((n, n))
        zero_un = sp.csr_matrix((n, 2 * n))
        if self.reduced:
            rows = [[zero_uu, zero_un, b.stiffness],
                    [zero_un.T, self.regularizer, b.b_lam_shape.T],
                    [b.stiffness, b.b_lam_shape, zero_uu]]
        else:
            rows = [[b.mass, b.b_u_shape, b.stiffness],
                    [b.b_u_shape.T, b.shape_shape + self.regularizer,
                     b.b_lam_shape.T],
                    [b.stiffness, b.b_lam_shape, zero_uu]]
        return sp.bmat(rows, format="csr")

    def constrained_dofs(self):
        n = self.num_scalar
        b = self.blocks
        return np.concatenate([
            b.u_constrained,
            n + b.v_constrained,
            3 * n + b.u_constrained,
        ])

    def rhs(self):
        r = np.concatenate([self.rhs_u, self.rhs_shape, self.rhs_lam])
        r[self.constrained_dofs()] = 0.0
        return -r

    @cached_property
    def _constrained_matrix(self):
        return fem.apply_dirichlet(self.matrix(), self.constrained_dofs())

    def solve(self):
        """Newton (or projected-gradient) step (du, V, dlambda).

        The reduced step is solved by exact block elimination, with K and
        eps b Dirichlet-constrained (`constrained_dofs`):
            dlambda = -K^-1 r_u,
            V       = -(eps b)^-1 (r_Omega + B^T dlambda),
            du      = -K^-1 (r_lambda + B V).
        Both K solves share one factorization, and L_uOmega and
        L_OmegaOmega are never assembled.  The Newton step factorizes the
        whole equilibrated 3x3 block system.
        """
        if self.reduced:
            return self._solve_eliminated()
        raw = self._constrained_matrix
        # symmetric row-norm equilibration: the blocks span several orders
        # of magnitude (mass ~ h^2, stiffness ~ 1), which degrades splu
        row_norms = np.sqrt(np.asarray(raw.power(2).sum(axis=1)).ravel())
        d = 1.0 / np.sqrt(np.maximum(row_norms, 1e-30))
        scaling = sp.diags(d)
        mat = (scaling @ raw @ scaling).tocsc()
        rhs = d * self.rhs()
        try:
            factor = spla.splu(mat)
        except RuntimeError as exc:
            raise fem.SingularSystemError(
                f"KKT factorization failed (epsilon too small?): {exc}") from exc
        x = factor.solve(rhs)
        scale = max(np.linalg.norm(rhs), 1e-30)
        res = np.linalg.norm(mat @ x - rhs)
        for _ in range(6):                     # iterative refinement
            if res <= 1e-10 * scale:
                break
            x = x + factor.solve(rhs - mat @ x)
            res = np.linalg.norm(mat @ x - rhs)
        if not np.isfinite(res) or res > 1e-8 * scale:
            raise fem.SingularSystemError(
                f"KKT solve residual {res:.3e} relative {res / scale:.3e}")
        x = d * x
        n = self.num_scalar
        du = ScalarField(self.mesh, x[:n])
        v = VectorField(self.mesh, x[n:3 * n].reshape(-1, 2))
        dlam = ScalarField(self.mesh, x[3 * n:])
        return du, v, dlam

    def _solve_eliminated(self):
        b = self.blocks
        state = b.state_operator
        metric = fem.SparseOperator(self.regularizer, b.v_constrained)
        dlam = -state.solve_constrained(self.rhs_u)
        v = -metric.solve_constrained(self.rhs_shape + b.b_lam_shape.T @ dlam)
        du = -state.solve_constrained(self.rhs_lam + b.b_lam_shape @ v)
        return (ScalarField(self.mesh, du),
                VectorField(self.mesh, v.reshape(-1, 2)),
                ScalarField(self.mesh, dlam))


def lagrangian_gradient(mesh, cfg, u, lam, z_on_m, z_grad=None, target=None,
                        alpha_whole_domain=False):
    """First-order KKT right-hand side pieces (L_u, L_Omega, L_lambda)."""
    mass = fem.assemble_mass(mesh).matrix
    stiff = fem.assemble_scalar_laplace(
        mesh, {0: cfg.mu_in, 1: cfg.mu_out}).matrix
    w = u.values - z_on_m.values
    r_u = mass @ w + stiff @ lam.values
    r_lam = stiff @ u.values
    d = shape_calculus.assemble_shape_derivative(
        mesh, cfg, u, lam, z_on_m, z_grad=z_grad, target=target,
        alpha_whole_domain=alpha_whole_domain)
    u_constrained, _ = model.state_dirichlet(mesh)
    r_u = r_u.copy()
    r_u[u_constrained] = 0.0
    r_lam = r_lam.copy()
    r_lam[u_constrained] = 0.0
    return r_u, d.dual.copy(), r_lam


def assemble_kkt(mesh: Mesh, cfg, u, lam, z_on_m, eps: float,
                 eps1: float, eps2: float, z_grad=None, target=None,
                 reduced=False, alpha_whole_domain=False,
                 flip_tr_term=False) -> KktSystem:
    """Build the epsilon-regularized KKT system at the current iterate."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    blocks = assemble_hessian_blocks(
        mesh, cfg, u, lam, z_on_m, z_grad=z_grad, target=target,
        alpha_whole_domain=alpha_whole_domain, flip_tr_term=flip_tr_term)
    reg = eps * fem.assemble_vector_h1_form(mesh, eps1, eps2).matrix
    r_u, r_shape, r_lam = lagrangian_gradient(
        mesh, cfg, u, lam, z_on_m, z_grad=z_grad, target=target,
        alpha_whole_domain=alpha_whole_domain)
    return KktSystem(mesh, blocks, reg, r_u, r_shape, r_lam, reduced=reduced)
