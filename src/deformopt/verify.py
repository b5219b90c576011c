"""Verification suites: every derived quantity against an independent oracle.

Each suite returns a plain dict with a boolean ``passed`` plus the measured
numbers and the gate they were checked against, so the same code backs both
the test suite and the ``verify`` CLI subcommand.  A suite takes only its
seed (and a negative control its switch): its mesh size, sample count,
steps and threshold are fixed, so no caller can loosen a gate.

Oracles are finite differences of the *discrete* objective: the assembled
volume-form derivatives are exact derivatives of the discrete functional,
so central differences must show their full order.

The target field z is piecewise linear on a frozen background mesh, hence
only piecewise smooth along a nodal trajectory.  Random test fields are
therefore masked: any node whose probe segment crosses a background element
boundary is zeroed, which keeps the difference quotients inside the smooth
regime without touching the quantity under test.
"""

from __future__ import annotations

import numpy as np

from . import fem, kkt, model, shape_calculus
from .mesh import InclusionShape, Mesh, generate_mesh
from .shape_calculus import objective_on_deformed

DEFAULT_SEED = 2024
START_CIRCLE = InclusionShape.circle((0.5, 0.5), 0.2)
MESH_H = 0.1          # every suite on a mesh uses this one


def _slope(ts, errs):
    """Least-squares slope of log(err) vs log(t), errors floored at 1e-16."""
    return float(np.polyfit(np.log(ts), np.log(np.maximum(errs, 1e-16)), 1)[0])


def random_interior_field(mesh: Mesh, rng, amplitude=0.05):
    """Random nodal vector field vanishing on the outer boundary."""
    v = rng.standard_normal((mesh.num_vertices, 2)) * amplitude
    v[mesh.boundary_vertices] = 0.0
    return v


def mask_fields(mesh: Mesh, target: model.TargetField, fields, t_max,
                n_probe=9):
    """Zero nodes whose probe segment leaves its background element.

    For each field the segment x_i + s V_i, s in [-t_max, t_max], is sampled;
    a node is kept only if every sample lies in the unit square and lands in
    the same background element for every field.  This removes the
    interpolation kinks of z from the difference quotients.  Samples outside
    the square are not located: the background mesh ends there.
    """
    keep = np.ones(mesh.num_vertices, dtype=bool)
    for v in fields:
        ref = None
        for s in np.linspace(-t_max, t_max, n_probe):
            pts = mesh.vertices + s * v
            inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
            elems = np.full(mesh.num_vertices, -1)
            elems[inside] = target.locate(pts[inside]).elements
            if ref is None:
                ref = elems
            keep &= inside & (elems == ref)
    return [np.where(keep[:, None], v, 0.0) for v in fields]


def _setup():
    cfg = model.ProblemConfig()
    target = model.make_target(cfg, MESH_H / 2)
    ops = model.OperatorSet(generate_mesh(START_CIRCLE, MESH_H), cfg)
    z = model.transfer_target(target, ops.mesh)
    z_grad = model.target_gradients(target, ops.mesh)
    u = model.solve_state(ops)
    lam = model.solve_adjoint(ops, u, z)
    return ops, target, ops.mesh, z, z_grad, u, lam


def gradient_consistency(seed=DEFAULT_SEED, alpha_whole_domain=False):
    """Central-difference order of the assembled shape derivative."""
    min_order, n_fields = 1.9, 10
    rng = np.random.default_rng(seed)
    ops, target, mesh, z, z_grad, u, lam = _setup()
    d = shape_calculus.assemble_shape_derivative(shape_calculus.element_terms(
        ops, u, lam, z, z_grad, alpha_whole_domain=alpha_whole_domain))
    ts = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
    slopes = []
    for _ in range(n_fields):
        (v,) = mask_fields(mesh, target, [random_interior_field(mesh, rng)],
                           ts.max())
        exact = float(d @ v.reshape(-1))
        errs = [abs(shape_calculus.eulerian_fd(ops, target, v, t) - exact)
                for t in ts]
        slopes.append(_slope(ts, errs))
    slopes = np.array(slopes)
    return {
        "name": "gradient_consistency",
        "passed": bool(slopes.min() >= min_order),
        "orders": slopes.tolist(),
        "min_order_required": min_order,
        "h": MESH_H,
        "n_fields": n_fields,
    }


def hessian_consistency(seed=DEFAULT_SEED, flip_tr_term=False):
    """Mixed central second differences of J against the assembled Hessian."""
    min_order, n_pairs = 1.8, 5
    rng = np.random.default_rng(seed)
    ops, target, mesh, z, z_grad, u, lam = _setup()
    hess = kkt.assemble_hessian_blocks(
        shape_calculus.element_terms(ops, u, lam, z, z_grad),
        flip_tr_term=flip_tr_term)
    ss = np.array([1e-2, 5e-3, 2.5e-3])
    slopes = []
    for _ in range(n_pairs):
        v, w = mask_fields(mesh, target,
                           [random_interior_field(mesh, rng),
                            random_interior_field(mesh, rng)], 2 * ss.max())
        exact = hess.reduced_value(v.reshape(-1), w.reshape(-1))
        errs = []
        for s in ss:
            fd = (objective_on_deformed(ops, target, s * (v + w), 1.0)
                  - objective_on_deformed(ops, target, s * (v - w), 1.0)
                  - objective_on_deformed(ops, target, s * (w - v), 1.0)
                  + objective_on_deformed(ops, target, -s * (v + w), 1.0)
                  ) / (4 * s * s)
            errs.append(abs(fd - exact))
        slopes.append(_slope(ss, errs))
    slopes = np.array(slopes)
    return {
        "name": "hessian_consistency",
        "passed": bool(slopes.min() >= min_order),
        "orders": slopes.tolist(),
        "min_order_required": min_order,
        "h": MESH_H,
        "n_pairs": n_pairs,
    }


def hessian_symmetry(seed=DEFAULT_SEED):
    """Relative symmetry defect of the linear second shape derivative.

    |L''(V, W) - L''(W, V)| is measured against the summed magnitudes of
    the terms that make up L'', not against |L''|: the terms are about
    1e-3 and cancel to values as small as 1e-7, so their rounding alone
    is 1e-12 of such a value."""
    tol, n_pairs = 1e-12, 100
    rng = np.random.default_rng(seed)
    ops, target, mesh, z, z_grad, u, lam = _setup()
    hess = kkt.assemble_hessian_blocks(
        shape_calculus.element_terms(ops, u, lam, z, z_grad))
    worst = 0.0
    for _ in range(n_pairs):
        v = random_interior_field(mesh, rng).reshape(-1)
        w = random_interior_field(mesh, rng).reshape(-1)
        vw, wv = hess.reduced_terms(v, w), hess.reduced_terms(w, v)
        scale = float(max(sum(map(abs, vw)), sum(map(abs, wv))))
        worst = max(worst, abs(kkt.sum_terms(vw) - kkt.sum_terms(wv))
                    / max(scale, 1e-30))
    return {
        "name": "hessian_symmetry",
        "passed": bool(worst <= tol),
        "max_relative_defect": worst,
        "tolerance": tol,
        "n_pairs": n_pairs,
    }


def taylor_remainder(seed=DEFAULT_SEED):
    """Second-order Taylor remainder slope of the full objective."""
    min_slope, n_fields = 2.7, 3
    rng = np.random.default_rng(seed)
    ops, target, mesh, z, z_grad, u, lam = _setup()
    terms = shape_calculus.element_terms(ops, u, lam, z, z_grad)
    d = shape_calculus.assemble_shape_derivative(terms)
    hess = kkt.assemble_hessian_blocks(terms)
    j0 = model.objective(ops, u, z)
    ss = np.array([2e-2, 1e-2, 5e-3, 2.5e-3])
    slopes = []
    for _ in range(n_fields):
        (v,) = mask_fields(mesh, target, [random_interior_field(mesh, rng)],
                           ss.max())
        d1 = float(d @ v.reshape(-1))
        d2 = hess.reduced_value(v.reshape(-1), v.reshape(-1))
        rems = [abs(objective_on_deformed(ops, target, s * v, 1.0)
                    - (j0 + s * d1 + 0.5 * s * s * d2)) for s in ss]
        slopes.append(_slope(ss, rems))
    slopes = np.array(slopes)
    return {
        "name": "taylor_remainder",
        "passed": bool(slopes.min() >= min_slope),
        "slopes": slopes.tolist(),
        "min_slope_required": min_slope,
    }


def volume_surrogate(seed=DEFAULT_SEED):
    """Exact second-order Taylor expansion of the pure volume functional.

    vol((I + sV)(Omega)) is a quadratic polynomial in s in 2D, so the
    expansion through the quadratic term int (div V)^2 - tr(DV DV) dx must
    close to round-off.
    """
    tol, n_fields = 1e-12, 5
    rng = np.random.default_rng(seed)
    mesh = generate_mesh(START_CIRCLE, MESH_H)
    geo = fem.geometry(mesh)
    vol0 = float(geo.areas.sum())
    worst = 0.0
    for _ in range(n_fields):
        v = random_interior_field(mesh, rng)
        jac = fem.elem_jacobian(mesh, v)
        div = jac[0, 0] + jac[1, 1]
        # tr(DV DV), each row's pair summed first
        tr2 = ((jac[0, 0] * jac[0, 0] + jac[0, 1] * jac[1, 0])
               + (jac[1, 0] * jac[0, 1] + jac[1, 1] * jac[1, 1]))
        quad = float(geo.areas @ (div * div - tr2))
        lin = float(geo.areas @ div)
        for s in (0.3, 0.1, 0.02):
            vol = float(fem.geometry(
                mesh.with_vertices(mesh.vertices + s * v)).areas.sum())
            pred = vol0 + s * lin + 0.5 * s * s * quad
            worst = max(worst, abs(vol - pred) / max(abs(vol), 1.0))
    return {
        "name": "volume_surrogate",
        "passed": bool(worst <= tol),
        "max_relative_defect": worst,
        "tolerance": tol,
    }


def pseudoinverse_suite(seed=DEFAULT_SEED):
    """Tikhonov-to-pseudoinverse convergence on random singular systems.

    For eps well below the smallest positive eigenvalue the error
    ||V_eps - V_hat||_g is linear in eps: monotone, and halving eps halves it.
    """
    from . import pseudoinverse as pi
    n_systems, max_dim, (lo, hi) = 50, 20, (0.45, 0.55)
    rng = np.random.default_rng(seed)
    ratios, monotone = [], True
    for _ in range(n_systems):
        n = int(rng.integers(4, max_dim + 1))
        op = pi.random_singular_psd(rng, n)
        b = op.h @ rng.standard_normal(n)
        eps0 = 1e-3 * op.smallest_positive_eigenvalue()
        _, rows = pi.epsilon_table(op, b, [eps0, eps0 / 2, eps0 / 4])
        errs = [r[1] for r in rows]
        monotone &= errs[0] >= errs[1] >= errs[2]
        ratios.extend([errs[1] / errs[0], errs[2] / errs[1]])
    ratios = np.array(ratios)
    in_band = bool(((ratios >= lo) & (ratios <= hi)).all())
    return {
        "name": "pseudoinverse_suite",
        "passed": bool(in_band and monotone),
        "monotone": monotone,
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "ratio_bounds": [lo, hi],
        "n_systems": n_systems,
        "max_dim": max_dim,
    }


def pullback_check(seed=DEFAULT_SEED):
    """Transformation identity for gradients under pullback.

    With nodal coordinates as the deformation variable, the gradient of the
    pulled-back objective f(T) = J(T(mesh)), Riesz-represented in the metric
    assembled on the ORIGINAL mesh, must equal the vertexwise composition of
    the deformed-mesh gradient with T.  Discretely both sides share the same
    dof vectors, so the check reduces to: original-metric Riesz image of the
    finite-difference nodal gradient at T == original-metric Riesz image of
    the dual vector assembled on the deformed mesh.
    """
    tol, fd_step = 1e-6, 1e-5
    rng = np.random.default_rng(seed)
    base, target, mesh, *_ = _setup()
    metric0 = shape_calculus.deformation_metric(mesh, eps1=1.0, eps2=0.5)

    # displace to a non-trivial T and assemble the gradient there
    (disp,) = mask_fields(mesh, target,
                          [random_interior_field(mesh, rng, 0.02)],
                          1.0, n_probe=5)
    ops = model.OperatorSet(mesh.with_vertices(mesh.vertices + disp), base.cfg)
    z = model.transfer_target(target, ops.mesh)
    z_grad = model.target_gradients(target, ops.mesh)
    u = model.solve_state(ops)
    lam = model.solve_adjoint(ops, u, z)
    d = shape_calculus.assemble_shape_derivative(
        shape_calculus.element_terms(ops, u, lam, z, z_grad))

    # finite-difference nodal gradient of f at T, masked against z kinks
    free = np.setdiff1d(np.arange(mesh.num_vertices), mesh.boundary_vertices)
    probes = np.zeros((mesh.num_vertices, 2))
    probes[free] = fd_step
    keep = mask_fields(mesh, target, [probes], 1.0, n_probe=3)[0][:, 0] > 0
    fd_dual = np.zeros(2 * mesh.num_vertices)
    for i in np.flatnonzero(keep):
        for a in (0, 1):
            e = np.zeros_like(ops.mesh.vertices)
            e[i, a] = fd_step
            jp = objective_on_deformed(ops, target, e, 1.0)
            jm = objective_on_deformed(ops, target, -e, 1.0)
            fd_dual[2 * i + a] = (jp - jm) / (2 * fd_step)
    an_dual = d.copy()
    kept_dofs = fem.vector_dofs(np.flatnonzero(keep))
    sel = np.zeros(2 * mesh.num_vertices, dtype=bool)
    sel[kept_dofs] = True
    an_dual[~sel] = 0.0
    fd_dual[~sel] = 0.0

    g_fd = metric0.solve_constrained(fd_dual)
    g_an = metric0.solve_constrained(an_dual)
    num = float(np.sqrt(max((g_fd - g_an) @ (metric0 @ (g_fd - g_an)), 0)))
    den = float(np.sqrt(max(g_an @ (metric0 @ g_an), 1e-300)))
    rel = num / den
    return {
        "name": "pullback_check",
        "passed": bool(rel <= tol),
        "relative_error": rel,
        "tolerance": tol,
        "nodes_checked": int(keep.sum()),
    }


def run_all(seed=DEFAULT_SEED):
    """Run every oracle suite; list of report dicts."""
    return [
        gradient_consistency(seed=seed),
        hessian_consistency(seed=seed),
        hessian_symmetry(seed=seed),
        taylor_remainder(seed=seed),
        volume_surrogate(seed=seed),
        pseudoinverse_suite(seed=seed),
        pullback_check(seed=seed),
    ]
