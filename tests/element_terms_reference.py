"""Per-element formulas on the (ne, ...) layout: element axis first.

The program keeps every per-element array with the element axis last;
these are the kernels as they were before, for the tests to compare the
new layout against bit for bit.

- `signed_areas`, `geometry`, `elem_grad`, `elem_jacobian` and
  `stiffness_local`: the geometry and element calculus of `fem`.
- The first shape derivative and the Hessian blocks as each assembled them
  on its own, before both read one `shape_calculus.ElementTerms`: the
  derivative, L_lambdaOmega and L_uOmega must agree bit for bit.
  L_OmegaOmega now takes the derivative's div V coefficient, whose
  1/2 int (u - z)^2 part is the three-operand einsum instead of the
  Hessian's own `wloc . Mw`; given that coefficient it must agree bit for
  bit too.
"""

from types import SimpleNamespace

import numpy as np

from deformopt import fem
from deformopt.mesh import REGION_INCLUSION
from kkt_reference import mixed_scatter, scatter


def signed_areas(vertices, triangles):
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def geometry(mesh):
    """areas (ne,), basis gradients grads (ne, 3, 2), local_mass (ne, 3, 3)."""
    p = mesh.vertices[mesh.triangles]
    areas = signed_areas(mesh.vertices, mesh.triangles)
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    g = np.stack([
        np.column_stack([-e0[:, 1], e0[:, 0]]),
        np.column_stack([-e1[:, 1], e1[:, 0]]),
        np.column_stack([-e2[:, 1], e2[:, 0]]),
    ], axis=1)
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return SimpleNamespace(areas=areas, grads=g / (2 * areas)[:, None, None],
                           local_mass=areas[:, None, None] * base[None])


def elem_grad(mesh, f):
    """(ne, 2) for (n,) nodal f."""
    return np.einsum("ei,eid->ed", f[mesh.triangles], geometry(mesh).grads)


def elem_jacobian(mesh, v):
    """(ne, 2, 2) for (n, 2) nodal v."""
    return np.einsum("eia,eib->eab", v[mesh.triangles], geometry(mesh).grads)


def stiffness_local(weights, grads):
    """(ne, 3, 3) weights <grad phi_i, grad phi_j>."""
    return np.einsum("e,eia,eja->eij", weights, grads, grads)


def operator_matrices(mesh, mu, eps1, eps2):
    """K (conductivity mu), M and the metric block b_s as CSR matrices."""
    geo = geometry(mesh)
    metric = eps1 * (geo.local_mass
                     + eps2 * stiffness_local(geo.areas, geo.grads))
    return (scatter(mesh, stiffness_local(mu * geo.areas, geo.grads)),
            scatter(mesh, geo.local_mass), scatter(mesh, metric))


def _chi(mesh, alpha_whole_domain):
    return np.ones(mesh.num_triangles) if alpha_whole_domain \
        else (mesh.region == REGION_INCLUSION).astype(float)


def shape_derivative_dual(ops, u, lam, z_on_m, z_grad,
                          alpha_whole_domain=False):
    """Flat dual vector of the volume-form shape derivative."""
    mesh, cfg = ops.mesh, ops.cfg
    geo = geometry(mesh)
    tris = mesh.triangles
    mu_e = cfg.mu(mesh)
    gu = elem_grad(mesh, u)
    gl = elem_grad(mesh, lam)
    w = u - z_on_m
    wloc = w[tris]
    half_w2 = 0.5 * np.einsum("ei,eij,ej->e", wloc, geo.local_mass, wloc)
    c_div = half_w2 + geo.areas * (mu_e * np.einsum("ed,ed->e", gu, gl)
                                   + 0.5 * cfg.alpha
                                   * _chi(mesh, alpha_whole_domain))
    d_elem = c_div[:, None, None] * geo.grads
    gl_dot = np.einsum("eid,ed->ei", geo.grads, gl)
    gu_dot = np.einsum("eid,ed->ei", geo.grads, gu)
    d_elem -= (mu_e * geo.areas)[:, None, None] * (
        gl_dot[:, :, None] * gu[:, None, :] + gu_dot[:, :, None] * gl[:, None, :])
    dual = np.zeros((mesh.num_vertices, 2))
    # summed in the flat (3, ne) order, as `fem.ScatterPatterns.load` sums
    np.add.at(dual, tris.T.reshape(-1),
              d_elem.transpose(1, 0, 2).reshape(-1, 2))
    dual -= (ops.mass.matrix @ w)[:, None] * z_grad
    flat = dual.reshape(-1)
    flat[fem.vector_dofs(mesh.boundary_vertices)] = 0.0
    return flat


def hessian_div_coefficient(ops, u, lam, z_on_m, alpha_whole_domain=False):
    """The Hessian's own div V coefficient c_g and its 1/2 int_e (u - z)^2
    part, (ne,) each."""
    mesh, cfg = ops.mesh, ops.cfg
    geo = geometry(mesh)
    wloc = (u - z_on_m)[mesh.triangles]
    half_w2 = 0.5 * np.einsum("ei,ei->e", wloc,
                              np.einsum("eij,ej->ei", geo.local_mass, wloc))
    gu, gl = elem_grad(mesh, u), elem_grad(mesh, lam)
    return half_w2 + geo.areas * (
        cfg.mu(mesh) * np.einsum("ed,ed->e", gu, gl)
        + 0.5 * cfg.alpha * _chi(mesh, alpha_whole_domain)), half_w2


def hessian_blocks(ops, u, lam, z_on_m, z_grad, c_div, tr_sign=1.0):
    """(L_lambdaOmega, L_uOmega, L_OmegaOmega) as CSR matrices, with `c_div`
    the div V coefficient of L_OmegaOmega and `tr_sign` the sign of its
    trace term (-1 for the `flip_tr_term` control)."""
    mesh = ops.mesh
    geo = geometry(mesh)
    tris = mesh.triangles
    area, G, Mloc = geo.areas, geo.grads, geo.local_mass
    mu_e = ops.cfg.mu(mesh)
    gu = elem_grad(mesh, u)
    gl = elem_grad(mesh, lam)
    wloc = (u - z_on_m)[tris]
    Mw = np.einsum("eij,ej->ei", Mloc, wloc)
    gz = z_grad[tris]
    gg = np.einsum("eid,ejd->eij", G, G)
    Ggl = np.einsum("eid,ed->ei", G, gl)
    Ggu = np.einsum("eid,ed->ei", G, gu)
    muA = mu_e * area

    b_lam = np.einsum("ei,ejb->eijb", muA[:, None] * Ggu, G)
    b_lam -= muA[:, None, None, None] * (
        np.einsum("eij,eb->eijb", gg, gu) + np.einsum("eib,ej->eijb", G, Ggu))

    b_u = np.einsum("ei,ejb->eijb", Mw + muA[:, None] * Ggl, G)
    b_u -= np.einsum("eij,ejb->eijb", Mloc, gz)
    b_u -= muA[:, None, None, None] * (
        np.einsum("eib,ej->eijb", G, Ggl) + np.einsum("eij,eb->eijb", gg, gl))

    cc = np.einsum("e,eia,ejb->eiajb", c_div, G, G)
    cc -= tr_sign * np.einsum("e,eib,eja->eiajb", c_div, G, G)
    cc += np.einsum("eij,eia,ejb->eiajb", Mloc, gz, gz)
    half = -np.einsum("eia,ej,ejb->eiajb", G, Mw, gz)
    half += np.einsum("e,ea,eib,ej->eiajb", muA, gu, G, Ggl)
    half += np.einsum("e,ea,eij,eb->eiajb", muA, gu, gg, gl)
    half += np.einsum("e,ea,eib,ej->eiajb", muA, gl, G, Ggu)
    half -= np.einsum("e,eia,eb,ej->eiajb", muA, G, gu, Ggl)
    half -= np.einsum("e,eia,ej,eb->eiajb", muA, G, Ggu, gl)
    cc += half
    cc += half.transpose(0, 3, 4, 1, 2)
    return (mixed_scatter(mesh, b_lam), mixed_scatter(mesh, b_u),
            scatter(mesh, cc.reshape(-1, 6, 6), ndof_per_vertex=2))
