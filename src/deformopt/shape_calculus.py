"""First-order shape calculus in the deformation-field formulation.

The shape derivative is assembled in volume form as a dual vector over the
P1 deformation space (zero on the outer boundary).  For P1 elements this is
the exact derivative of the discrete objective with respect to vertex
positions moved along the field, which is what the central-difference
oracle `eulerian_fd` measures.

`element_terms` computes the per-element factors of the Lagrangian at one
iterate; this derivative and the Hessian blocks of `kkt` read them.
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
    them.  They hold `ops`, so drop them with their iterate."""

    ops: model.OperatorSet
    u: ScalarField
    lam: ScalarField
    z_grad: np.ndarray     # (n, 2) background gradient of z at each vertex
    mass_w: np.ndarray     # (n,) M (u - z)
    gz: np.ndarray         # (ne, 3, 2) z_grad at each element's vertices
    G: np.ndarray          # (ne, 3, 2) basis gradients
    Mloc: np.ndarray       # (ne, 3, 3) local mass
    gg: np.ndarray         # (ne, 3, 3) grad phi_i . grad phi_j
    Mw: np.ndarray         # (ne, 3) int_e (u - z) phi_i
    gu: np.ndarray         # (ne, 2)
    gl: np.ndarray         # (ne, 2)
    Ggu: np.ndarray        # (ne, 3) grad phi_i . grad u
    Ggl: np.ndarray        # (ne, 3) grad phi_i . grad lambda
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
    w = u.values - z_on_m.values
    wloc = w[mesh.triangles]

    # div V coefficient: int_e 1/2 w^2 + |e| (mu grad u . grad lam) + alpha/2 chi
    half_w2 = 0.5 * np.einsum("ei,eij,ej->e", wloc, Mloc, wloc)
    chi = np.ones(mesh.num_triangles) if alpha_whole_domain \
        else (mesh.region == REGION_INCLUSION).astype(float)
    c_div = half_w2 + geo.areas * (mu_e * np.einsum("ed,ed->e", gu, gl)
                                   + 0.5 * cfg.alpha * chi)
    if mass_w is None:
        mass_w = model.mass_misfit(ops, u, z_on_m)
    return ElementTerms(
        ops, u, lam, z_grad, mass_w, z_grad[mesh.triangles],
        G, Mloc, np.einsum("eid,ejd->eij", G, G),
        np.einsum("eij,ej->ei", Mloc, wloc), gu, gl,
        np.einsum("eid,ed->ei", G, gu), np.einsum("eid,ed->ei", G, gl),
        mu_e * geo.areas, c_div)


def assemble_shape_derivative(t: ElementTerms) -> ShapeGradientFunctional:
    """Volume-form shape derivative of the Lagrangian at the terms' iterate.

    When u solves the state and lam the adjoint equation this equals the
    derivative of the reduced objective.
    """
    mesh = t.ops.mesh
    d_elem = t.c_div[:, None, None] * t.G              # (ne, 3, 2)

    # -mu grad u^T (DV + DV^T) grad lam
    d_elem -= t.muA[:, None, None] * (t.Ggl[:, :, None] * t.gu[:, None, :]
                                      + t.Ggu[:, :, None] * t.gl[:, None, :])

    dual = np.zeros((mesh.num_vertices, 2))
    np.add.at(dual, mesh.triangles.reshape(-1), d_elem.reshape(-1, 2))

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
