"""Per-element formulas of the first shape derivative and the Hessian blocks
as each assembled them on its own, before both read one
`shape_calculus.ElementTerms`.  The tests compare the shared terms against
them: the derivative, L_lambdaOmega and L_uOmega must agree bit for bit.
L_OmegaOmega now takes the derivative's div V coefficient, whose
1/2 int (u - z)^2 part is the three-operand einsum instead of the
Hessian's own `wloc . Mw`; given that coefficient it must agree bit for
bit too.
"""

import numpy as np

from deformopt import fem, kkt
from deformopt.mesh import REGION_INCLUSION


def _chi(mesh, alpha_whole_domain):
    return np.ones(mesh.num_triangles) if alpha_whole_domain \
        else (mesh.region == REGION_INCLUSION).astype(float)


def shape_derivative_dual(ops, u, lam, z_on_m, z_grad,
                          alpha_whole_domain=False):
    """Flat dual vector of the volume-form shape derivative."""
    mesh, cfg = ops.mesh, ops.cfg
    geo = fem.geometry(mesh)
    tris = mesh.triangles
    mu_e = cfg.mu(mesh)
    gu = fem.elem_grad(u)
    gl = fem.elem_grad(lam)
    w = u.values - z_on_m.values
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
    np.add.at(dual, tris.reshape(-1), d_elem.reshape(-1, 2))
    dual -= (ops.mass.matrix @ w)[:, None] * z_grad
    flat = dual.reshape(-1)
    flat[fem.vector_dofs(mesh.boundary_vertices)] = 0.0
    return flat


def hessian_div_coefficient(ops, u, lam, z_on_m, alpha_whole_domain=False):
    """The Hessian's own div V coefficient c_g and its 1/2 int_e (u - z)^2
    part, (ne,) each."""
    mesh, cfg = ops.mesh, ops.cfg
    geo = fem.geometry(mesh)
    wloc = (u.values - z_on_m.values)[mesh.triangles]
    half_w2 = 0.5 * np.einsum("ei,ei->e", wloc,
                              np.einsum("eij,ej->ei", geo.local_mass, wloc))
    gu, gl = fem.elem_grad(u), fem.elem_grad(lam)
    return half_w2 + geo.areas * (
        cfg.mu(mesh) * np.einsum("ed,ed->e", gu, gl)
        + 0.5 * cfg.alpha * _chi(mesh, alpha_whole_domain)), half_w2


def hessian_blocks(ops, u, lam, z_on_m, z_grad, c_div):
    """(L_lambdaOmega, L_uOmega, L_OmegaOmega) as CSR matrices, with `c_div`
    the div V coefficient of L_OmegaOmega."""
    mesh = ops.mesh
    geo = fem.geometry(mesh)
    tris = mesh.triangles
    area, G, Mloc = geo.areas, geo.grads, geo.local_mass
    mu_e = ops.cfg.mu(mesh)
    gu = fem.elem_grad(u)
    gl = fem.elem_grad(lam)
    wloc = (u.values - z_on_m.values)[tris]
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
    cc -= np.einsum("e,eib,eja->eiajb", c_div, G, G)
    cc += np.einsum("eij,eia,ejb->eiajb", Mloc, gz, gz)
    half = -np.einsum("eia,ej,ejb->eiajb", G, Mw, gz)
    half += np.einsum("e,ea,eib,ej->eiajb", muA, gu, G, Ggl)
    half += np.einsum("e,ea,eij,eb->eiajb", muA, gu, gg, gl)
    half += np.einsum("e,ea,eib,ej->eiajb", muA, gl, G, Ggu)
    half -= np.einsum("e,eia,eb,ej->eiajb", muA, G, gu, Ggl)
    half -= np.einsum("e,eia,ej,eb->eiajb", muA, G, Ggu, gl)
    cc += half
    cc += half.transpose(0, 3, 4, 1, 2)
    return (kkt._mixed_scatter(mesh, b_lam), kkt._mixed_scatter(mesh, b_u),
            fem._scatter(mesh, cc.reshape(-1, 6, 6), ndof_per_vertex=2))
