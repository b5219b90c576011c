"""First-order shape calculus in the deformation-field formulation.

The shape derivative is assembled in volume form as a dual vector over the
P1 deformation space (zero on the outer boundary).  For P1 elements this is
the exact derivative of the discrete objective with respect to vertex
positions moved along the field, which is what the central-difference
oracle `eulerian_fd` measures.

`element_terms` computes the per-element factors of the Lagrangian at one
iterate; this derivative and the Hessian blocks of `kkt` read them.  The
factors have the element axis last, as every per-element array of `fem`,
and the derivative sums its (3, 2, ne) element vectors into the dual with
`fem.ScatterPatterns.load`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fem, model
from .fem import ScalarField, VectorField, VectorOperator
from .mesh import Mesh, REGION_INCLUSION, apply_deformation, check_invertibility


class ShapeGradientFunctional:
    """Dual vector d with d . V = dJ(Omega)[V] for nodal deformations V."""

    def __init__(self, mesh: Mesh, dual: np.ndarray):
        self.mesh = mesh
        self.dual = dual

    def pair(self, v: VectorField) -> float:
        if v.mesh is not self.mesh:
            raise fem.FemError("direction field lives on a different mesh")
        return float(self.dual @ v.flat())


def deformation_constraints(mesh: Mesh):
    """Dof indices pinned to zero: both components of outer-boundary nodes."""
    return fem.vector_dofs(mesh.boundary_vertices)


@dataclass(repr=False)
class ElementTerms:
    """Per-element factors of the Lagrangian at one iterate (u, lambda, z on
    the set `ops`): the first shape derivative and every Hessian block read
    them.  They hold `ops`, so drop them with their iterate.  The element
    axis is last: i and j are an element's corners, d its two coordinates."""

    ops: model.OperatorSet
    u: ScalarField
    lam: ScalarField
    z_grad: np.ndarray     # (n, 2) background gradient of z at each vertex
    mass_w: np.ndarray     # (n,) M (u - z)
    gz: np.ndarray         # (3, 2, ne) z_grad at each element's corners
    G: np.ndarray          # (3, 2, ne) basis gradients
    Mloc: np.ndarray       # (3, 3, ne) local mass
    gg: np.ndarray         # (3, 3, ne) grad phi_i . grad phi_j
    Mw: np.ndarray         # (3, ne) int_e (u - z) phi_i
    gu: np.ndarray         # (2, ne)
    gl: np.ndarray         # (2, ne)
    Ggu: np.ndarray        # (3, ne) grad phi_i . grad u
    Ggl: np.ndarray        # (3, ne) grad phi_i . grad lambda
    muA: np.ndarray        # (ne,) mu |e|
    c_div: np.ndarray      # (ne,) div V coefficient


def element_terms(ops: model.OperatorSet, u: ScalarField, lam: ScalarField,
                  z_on_m: ScalarField, z_grad, alpha_whole_domain=False,
                  mass_w=None) -> ElementTerms:
    """The element terms of the Lagrangian at (u, lam) on `ops`.

    `z_grad` holds the background gradient of z at each vertex; it feeds
    the material derivative of the fixed field z.  The regularization term
    differentiates over the inclusion only; `alpha_whole_domain` is a
    negative-control switch spreading it over the whole domain.  `mass_w`
    is `model.mass_misfit(ops, u, z_on_m)`, when the caller has it.

    Each sum over corners or coordinates adds its terms in the order of
    the einsum on the (ne, ...) layout that it replaced, so that every
    term rounds as before: left to right, except for `Mw`.
    """
    mesh, cfg = ops.mesh, ops.cfg
    for f in (u, lam, z_on_m):
        if f.mesh is not mesh:
            raise fem.FemError("field lives on a different mesh")

    geo = fem.geometry(mesh)
    G, Mloc = geo.grads, geo.local_mass
    mu_e = cfg.mu(mesh)
    gu = fem.elem_grad(u)
    gl = fem.elem_grad(lam)
    wloc = fem.element_values(mesh, u.values - z_on_m.values)

    # div V coefficient: int_e 1/2 w^2 + |e| (mu grad u . grad lam) + alpha/2 chi
    # the nine w_i M_ij w_j summed in row-major order
    half_w2 = 0.5 * (wloc[:, None] * Mloc * wloc).reshape(9, -1).sum(axis=0)
    chi = np.ones(mesh.num_triangles) if alpha_whole_domain \
        else (mesh.region == REGION_INCLUSION).astype(float)
    c_div = half_w2 + geo.areas * (mu_e * (gu[0] * gl[0] + gu[1] * gl[1])
                                   + 0.5 * cfg.alpha * chi)
    if mass_w is None:
        mass_w = model.mass_misfit(ops, u, z_on_m)
    return ElementTerms(
        ops, u, lam, z_grad, mass_w, fem.element_values(mesh, z_grad),
        G, Mloc, G[:, None, 0] * G[None, :, 0] + G[:, None, 1] * G[None, :, 1],
        # numpy's contiguous einsum kernel summed its three terms as
        # (j=0 + j=2) + j=1
        Mloc[:, 0] * wloc[0] + Mloc[:, 2] * wloc[2] + Mloc[:, 1] * wloc[1],
        gu, gl,
        G[:, 0] * gu[0] + G[:, 1] * gu[1], G[:, 0] * gl[0] + G[:, 1] * gl[1],
        mu_e * geo.areas, c_div)


def assemble_shape_derivative(t: ElementTerms) -> ShapeGradientFunctional:
    """Volume-form shape derivative of the Lagrangian at the terms' iterate.

    When u solves the state and lam the adjoint equation this equals the
    derivative of the reduced objective.
    """
    mesh = t.ops.mesh
    d_elem = t.c_div * t.G                                 # (3, 2, ne)

    # -mu grad u^T (DV + DV^T) grad lam
    d_elem -= t.muA * (t.Ggl[:, None] * t.gu + t.Ggu[:, None] * t.gl)

    dual = t.ops.patterns.load(mesh, d_elem.reshape(6, -1)).reshape(-1, 2)

    # -(u - z) dz[V] with nodal dz[V]_i = grad z(x_i) . V_i
    dual -= t.mass_w[:, None] * t.z_grad

    flat = dual.reshape(-1)
    flat[deformation_constraints(mesh)] = 0.0
    return ShapeGradientFunctional(mesh, flat)


def deformation_metric(mesh: Mesh, eps1: float, eps2: float,
                       patterns=None) -> VectorOperator:
    """H1-type inner product on deformations, constrained on the boundary.

    b = I2 (x) B: only the n x n block B, constrained on the outer-boundary
    vertices, is factorized, and a solve takes both components together.
    `patterns` are the `fem.ScatterPatterns` to fill, if not fresh ones.
    """
    op = fem.assemble_vector_h1_form(mesh, eps1, eps2, patterns)
    return replace(op, block=fem.with_constraints(op.block,
                                                  mesh.boundary_vertices))


def riesz_gradient(d: ShapeGradientFunctional, metric: VectorOperator) -> VectorField:
    """Gradient representative: b(grad J, Z) = dJ[Z] for all admissible Z."""
    g = metric.solve_constrained(d.dual)
    return VectorField(d.mesh, g.reshape(-1, 2))


def objective_on_deformed(ops: model.OperatorSet, target, v, t: float):
    """J on the mesh moved by t V (the same mesh at t = 0), with the state
    re-solved there and z transferred to it."""
    deformed = apply_deformation(ops.mesh, v, t) if t != 0.0 else ops.mesh
    ops_t = model.OperatorSet(deformed, ops.cfg)
    return model.objective(ops_t, model.solve_state(ops_t),
                           model.transfer_target(target, deformed))


def eulerian_fd(ops: model.OperatorSet, target, v, t: float) -> float:
    """Central-difference quotient (J(Omega_t) - J(Omega_-t)) / (2t)."""
    for sign in (1.0, -1.0):
        ok, info = check_invertibility(ops.mesh, v, sign * t)
        if not ok:
            raise ValueError(f"deformation not admissible at t={sign * t}: {info}")
    jp = objective_on_deformed(ops, target, v, t)
    jm = objective_on_deformed(ops, target, v, -t)
    return (jp - jm) / (2.0 * t)
