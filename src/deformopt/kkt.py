"""Linear second shape derivative and the regularized one-shot KKT system.

Unknown ordering is (u-direction, deformation, lambda-direction).  The
linear second shape derivative is one object, `HessianBlocks`: its blocks
(L_uOmega, L_lambdaOmega, L_OmegaOmega), its action as an operator on
deformations and its bilinear forms.  Nonsymmetric second material
derivatives of u and lambda are excluded by construction, which keeps the
system symmetric without any commutation assumption on the direction
fields.  The step is solved in the deformation alone, with the reduced
shape Hessian as a symmetric operator; the 3x3 block matrix is never
formed.  The blocks and the KKT gradient read the iterate's
`shape_calculus.ElementTerms`, the terms the first derivative reads.  The
local blocks are formed element axis last, (3, 3, 2, ne) for L_uOmega and
L_lambdaOmega and (3, 2, 3, 2, ne) for L_OmegaOmega, and scattered as
(3, 6, ne) and (6, 6, ne) local matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem, model, shape_calculus


@dataclass
class HessianBlocks:
    """The linear second shape derivative of the Lagrangian at one iterate.

    One object holds its blocks, its action as an operator on deformations
    (`apply`) and its bilinear form (`reduced_value`, the `sum_terms` of
    `full_terms` on the sensitivity triples).  The state and adjoint
    directions induced by a deformation come from one elimination
    (`eliminate`), which the Newton step shares.  Deformations are flat 2n
    arrays, zero on the outer boundary.

    `b_u_shape` (L_uOmega) and `shape_shape` (L_OmegaOmega) are assembled
    on first access from the element terms: the reduced (warm-up) step
    drops both, so it never pays for the 36 entries per element of
    L_OmegaOmega.
    """

    terms: shape_calculus.ElementTerms
    b_lam_shape: sp.csr_matrix   # L_lambdaOmega, (n, 2n)
    tr_sign: float = 1.0         # -1 negates the trace term (a control)

    @property
    def ops(self) -> model.OperatorSet:
        """The iterate's operator set: L_uu = M, L_ulambda = K."""
        return self.terms.ops

    @cached_property
    def b_u_shape(self):
        """L_uOmega, (n, 2n): test u-hat_i, ansatz V_j,b."""
        t = self.terms
        c_state = t.Mw + t.muA * t.Ggl                     # (3, ne)
        b_u = c_state[:, None, None] * t.G                 # (3, 3, 2, ne)
        b_u -= t.Mloc[:, :, None] * t.gz
        b_u -= t.muA * (t.G[:, None] * t.Ggl[:, None]
                        + t.gg[:, :, None] * t.gl)
        return self.ops.patterns.scatter(self.ops.mesh,
                                         b_u.reshape(3, 6, -1))

    @cached_property
    def shape_shape(self):
        """L_OmegaOmega, (2n, 2n), assembled as S + T + T^T.

        S holds the three self-symmetric terms (c_div G G, the trace term
        and Mloc gz gz); the other twelve terms form six transpose pairs, of
        which T holds one member each.  The block is symmetric by
        construction.  Each term is a product over the axes (i, a, j, b, e)
        with nothing summed, its factors multiplied left to right: the
        rounding of the five-index einsums it replaced.  A term's sign goes
        into its first factor, which is exact, as is adding a negated term
        instead of subtracting it.
        """
        t = self.terms
        c, muA = t.c_div, t.muA
        G_ia, G_jb = t.G[:, :, None, None], t.G[None, None]
        G_ib = t.G[:, None, None]
        G_ja = t.G.transpose(1, 0, 2)[None, :, :, None]
        gz_ia, gz_jb = t.gz[:, :, None, None], t.gz[None, None]
        gu_a, gu_b = t.gu[:, None, None], t.gu
        gl_a, gl_b = t.gl[:, None, None], t.gl
        Ggu_j = t.Ggu[:, None]
        Ggl_j = t.Ggl[:, None]
        cc = _sum_of_products([
            (c * G_ia, G_jb),
            (-self.tr_sign * c * G_ib, G_ja),
            (t.Mloc[:, None, :, None] * gz_ia, gz_jb)])
        half = _sum_of_products([
            # z material-derivative coupling
            (-G_ia * t.Mw[:, None], gz_jb),
            # remaining transport terms of mu grad u . grad lam
            (muA * gu_a * G_ib, Ggl_j),
            (muA * gu_a * t.gg[:, None, :, None], gl_b),
            (muA * gl_a * G_ib, Ggu_j),
            # divergence-times-transport cross terms
            (-(muA * G_ia * gu_b), Ggl_j),
            (-(muA * G_ia * Ggu_j), gl_b)])
        cc += half
        cc += half.transpose(2, 3, 0, 1, 4)
        return self.ops.patterns.scatter(self.ops.mesh, cc.reshape(6, 6, -1))

    def eliminate(self, v, r_u, r_lam):
        """State and adjoint directions (du, dlambda) for deformation v,
        with K^-1 the constrained state solve:
            du      = -K^-1 (r_lambda + B V),
            dlambda = -K^-1 (r_u + M du + B_u V).
        r_u and r_lam are (n,) residuals or 0.0; costs two K solves."""
        state = self.ops.state
        du = -state.solve_constrained(r_lam + self.b_lam_shape @ v)
        dlam = -state.solve_constrained(r_u + self.ops.mass.matrix @ du
                                        + self.b_u_shape @ v)
        return du, dlam

    def sensitivities(self, v):
        """Material derivatives (du[V], dlambda[V]) of state and adjoint,
        for V zero on the outer boundary."""
        return self.eliminate(v, 0.0, 0.0)

    def apply(self, v):
        """Linear second shape derivative as an operator on deformations:
        L_OmegaOmega V + L_uOmega^T du[V] + L_lambdaOmega^T dlambda[V], so
        that W . apply(V) = reduced_value(V, W) for V, W vanishing on the
        boundary.  Costs two solves with the state operator."""
        udot, ldot = self.sensitivities(v)
        return (self.shape_shape @ v + self.b_u_shape.T @ udot
                + self.b_lam_shape.T @ ldot)

    def full_terms(self, triple1, triple2):
        """The eight terms of L''[(udot, V, ldot), (udot~, W, ldot~)]:
        L_uu, then L_ulambda twice, L_uOmega twice, L_lambdaOmega twice
        and L_OmegaOmega."""
        u1, v1, l1 = triple1
        u2, v2, l2 = triple2
        mass, stiff = self.ops.mass.matrix, self.ops.state.matrix
        return [u1 @ (mass @ u2), u1 @ (stiff @ l2), l1 @ (stiff @ u2),
                u1 @ (self.b_u_shape @ v2), u2 @ (self.b_u_shape @ v1),
                l1 @ (self.b_lam_shape @ v2), l2 @ (self.b_lam_shape @ v1),
                v1 @ (self.shape_shape @ v2)]

    def reduced_terms(self, v, w_dir):
        """The eight terms of `reduced_value`, as `full_terms`."""
        uv, lv = self.sensitivities(v)
        uw, lw = self.sensitivities(w_dir)
        return self.full_terms((uv, v, lv), (uw, w_dir, lw))

    def reduced_value(self, v, w_dir) -> float:
        """Linear second shape derivative of the reduced objective."""
        return sum_terms(self.reduced_terms(v, w_dir))


def sum_terms(terms) -> float:
    """The value of `full_terms` or `reduced_terms`: their sum, each
    block's pair added first."""
    t = terms
    return float(t[0] + t[1] + t[2] + (t[3] + t[4]) + (t[5] + t[6]) + t[7])


def _sum_of_products(pairs):
    """The sum of a * b over the (a, b) in `pairs`, added left to right;
    the products share one buffer."""
    (a, b), *rest = pairs
    total = a * b
    product = np.empty_like(total)
    for a, b in rest:
        total += np.multiply(a, b, out=product)
    return total


def assemble_hessian_blocks(terms: shape_calculus.ElementTerms,
                            flip_tr_term=False) -> HessianBlocks:
    """Assemble the shape-KKT Hessian blocks (L_uOmega and L_OmegaOmega lazily).

    `flip_tr_term` negates the trace part of the pure shape block; it exists
    as a negative control for the mixed-difference consistency check.
    """
    t = terms
    b_lam = (t.muA * t.Ggu)[:, None, None] * t.G          # (3, 3, 2, ne)
    b_lam -= t.muA * (t.gg[:, :, None] * t.gu + t.G[:, None] * t.Ggu[:, None])
    b_lam = t.ops.patterns.scatter(t.ops.mesh, b_lam.reshape(3, 6, -1))
    return HessianBlocks(terms, b_lam, -1.0 if flip_tr_term else 1.0)


# MINRES on the reduced shape Hessian: rtol 1e-12 left the step up to 2e-10
# off the saddle-point solve at h=0.01.  Far from a feasible iterate MINRES
# can need thousands of iterations, so it is capped and fails typed.
MINRES_RTOL = 1e-14
MINRES_MAXITER = 500
KKT_RESIDUAL_TOL = 1e-8    # largest blockwise relative residual of a step


@dataclass
class KktSystem:
    """Regularized 3x3 block KKT system at one iterate,

        [ M      B_u       K   ] [du     ]     [r_u     ]
        [ B_u^T  L_OO + b  B^T ] [V      ] = - [r_Omega ]
        [ K      B         0   ] [dlambda]     [r_lambda]

    with M = L_uu, B_u = L_uOmega, B = L_lambdaOmega, L_OO = L_OmegaOmega;
    M, K (the state operator) and b are the operator set `blocks.ops`.
    du and dlambda vanish on the Dirichlet boundary and V on the outer
    boundary.  With `reduced` (the projected-gradient warm-up step) M, B_u
    and L_OO are dropped.  `solve` records the MINRES iteration count and
    the blockwise relative residual of a Newton step.
    """

    blocks: HessianBlocks
    rhs_u: np.ndarray
    rhs_shape: np.ndarray
    rhs_lam: np.ndarray
    reduced: bool = False             # projected-gradient variant
    krylov_iterations: int = field(default=0, init=False)
    relative_residual: float = field(default=0.0, init=False)

    def solve(self):
        """Newton (or projected-gradient) step (du, V, dlambda), in V alone:
        du and dlambda (n,), V (n, 2), a view of the flat 2n step.

        With K^-1 the constrained state solve (one factorization):
            du_p      = -K^-1 r_lambda,
            dlambda_p = -K^-1 (r_u + M du_p),
            S V       = -(r_Omega + B_u^T du_p + B^T dlambda_p),
            du        = -K^-1 (r_lambda + B V),
            dlambda   = -K^-1 (r_u + M du + B_u V).
        S V = (L_OO + b) V + B_u^T udot + B^T ldot with
        udot = -K^-1 B V and ldot = -K^-1 (M udot + B_u V) is the reduced
        shape Hessian (`HessianBlocks.apply`) plus the Tikhonov term.  It is
        symmetric: MINRES solves it on the free deformation dofs,
        preconditioned by b_s's free-block factorization.  The Newton step
        makes its K solves by `HessianBlocks.eliminate`, with V = 0 for (du_p,
        dlambda_p) and with V for (du, dlambda).  The reduced step drops M, B_u
        and L_OO: then S = b, V is one metric solve and dlambda = dlambda_p.

        Raises SingularSystemError when MINRES reaches MINRES_MAXITER, the
        step is not finite, or a block residual exceeds KKT_RESIDUAL_TOL.
        """
        b = self.blocks
        mesh, state = b.ops.mesh, b.ops.state
        if self.reduced:
            dlam = -state.solve_constrained(self.rhs_u)
            v = -b.ops.metric.solve_constrained(self.rhs_shape
                                                + b.b_lam_shape.T @ dlam)
            du = -state.solve_constrained(self.rhs_lam + b.b_lam_shape @ v)
        else:
            du_p, dlam_p = b.eliminate(np.zeros(2 * mesh.num_vertices),
                                       self.rhs_u, self.rhs_lam)
            v = -self._minres(self.rhs_shape + b.b_u_shape.T @ du_p
                              + b.b_lam_shape.T @ dlam_p)
            du, dlam = b.eliminate(v, self.rhs_u, self.rhs_lam)
            self._check_residual(du, v, dlam)
        return du, v.reshape(-1, 2), dlam

    def _minres(self, g):
        """W with S W = g, zero on the outer boundary: MINRES on the free
        deformation dofs, preconditioned by b's free block solve (SPD)."""
        metric = self.blocks.ops.metric

        def s_matvec(x):
            w = metric.extend(x)
            return metric.restrict(self.blocks.apply(w) + metric @ w)

        def count(_):
            self.krylov_iterations += 1

        self.krylov_iterations = 0
        rhs = metric.restrict(g)
        n = rhs.size
        w, info = spla.minres(
            spla.LinearOperator((n, n), matvec=s_matvec, dtype=float), rhs,
            M=spla.LinearOperator((n, n), matvec=metric.solve_free,
                                  dtype=float),
            rtol=MINRES_RTOL, maxiter=MINRES_MAXITER, callback=count)
        if info != 0:
            raise fem.SingularSystemError(
                f"MINRES stopped after {self.krylov_iterations} iterations "
                f"(info {info})")
        return metric.extend(w)

    def _check_residual(self, du, v, dlam):
        """Each block's residual relative to the norms of its terms."""
        b = self.blocks
        state, metric = b.ops.state, b.ops.metric
        worst = 0.0
        for terms, fixed in [
                ([b.ops.mass.matrix @ du, b.b_u_shape @ v,
                  state.matrix @ dlam, self.rhs_u], state.constrained),
                ([b.b_u_shape.T @ du, b.shape_shape @ v, metric @ v,
                  b.b_lam_shape.T @ dlam, self.rhs_shape], metric.constrained),
                ([state.matrix @ du, b.b_lam_shape @ v, self.rhs_lam],
                 state.constrained)]:
            res = sum(terms)
            res[fixed] = 0.0
            scale = sum(np.linalg.norm(t) for t in terms)
            worst = max(worst, np.linalg.norm(res) / max(scale, 1e-300))
        self.relative_residual = worst
        if not worst <= KKT_RESIDUAL_TOL:
            raise fem.SingularSystemError(
                f"KKT step residual {worst:.3e} relative")


def lagrangian_gradient(terms: shape_calculus.ElementTerms):
    """First-order KKT right-hand side pieces (L_u, L_Omega, L_lambda)."""
    ops = terms.ops
    stiff = ops.state.matrix
    r_u = terms.mass_w + stiff @ terms.lam
    r_lam = stiff @ terms.u
    r_shape = shape_calculus.assemble_shape_derivative(terms)
    r_u[ops.state.constrained] = 0.0
    r_lam[ops.state.constrained] = 0.0
    return r_u, r_shape, r_lam


def assemble_kkt(terms: shape_calculus.ElementTerms, reduced=False,
                 gradient=None) -> KktSystem:
    """Build the KKT system at the terms' iterate, regularized by the
    deformation metric b of its operator set.

    `gradient` is (r_u, r_Omega, r_lambda) from `lagrangian_gradient` at
    the same iterate, when the caller already has it.
    """
    blocks = assemble_hessian_blocks(terms)
    if gradient is None:
        gradient = lagrangian_gradient(terms)
    return KktSystem(blocks, *gradient, reduced=reduced)
