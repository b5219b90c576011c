"""Optimization loops: steepest descent and the two-phase Newton schedule.

The two-phase loop mirrors the numerical study layout: a fixed number of
projected-gradient iterations with a damped step, then regularized Newton
iterations with full steps, all variables updated simultaneously.  Every
accepted deformation is invertibility-checked before the mesh moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import fem, kkt, model, shape_calculus
from .fem import ScalarField, VectorField
from .mesh import Mesh, apply_deformation, check_invertibility


class LineSearchError(RuntimeError):
    pass


@dataclass(frozen=True)
class Schedule:
    """Iteration schedule and regularization knobs."""

    n_gradient_iters: int = 20
    # 0.4 keeps the warm-up monotone on fine meshes; larger steps oscillate
    # near the interface and damage the mesh before the Newton phase
    gradient_step: float = 0.4
    newton_step: float = 1.0
    max_iters: int = 60
    eps: float = 1.0          # multiplier on the Tikhonov form
    eps1: float = 3e-2
    eps2: float = 5e-1
    tol_v: float = 1e-9
    line_search: str = "fixed"          # {fixed, backtracking}
    residual_norm: str = "metric"       # {metric, euclidean}
    newton_fallback: bool = True
    # The warm-up is a *projected* gradient method: after each deformation
    # the state and adjoint are re-solved (projection onto the constraint
    # manifold).  The Newton phase keeps the one-shot simultaneous updates.
    project_warmup: bool = True

    def __post_init__(self):
        if min(self.gradient_step, self.newton_step, self.eps, self.eps1,
               self.tol_v) <= 0 or self.eps2 < 0:
            raise ValueError("schedule parameters must be positive")
        if self.n_gradient_iters > self.max_iters:
            raise ValueError("n_gradient_iters must not exceed max_iters")
        if self.line_search not in ("fixed", "backtracking"):
            raise ValueError(f"unknown line search {self.line_search!r}")
        if self.residual_norm not in ("metric", "euclidean"):
            raise ValueError(f"unknown residual norm {self.residual_norm!r}")


@dataclass
class IterationRecord:
    k: int
    objective: float
    grad_norm: float
    residual: float
    step: float
    mode: str
    invertibility_margin: float = 1.0


@dataclass
class History:
    records: list[IterationRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def append(self, rec):
        self.records.append(rec)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records])

    def write(self, path):
        """Six whitespace-separated columns; abort notes as # footer lines."""
        with open(path, "w") as fh:
            fh.write("# iteration objective grad_norm residual step mode\n")
            for r in self.records:
                fh.write(f"{r.k} {r.objective!r} {r.grad_norm!r} "
                         f"{r.residual!r} {r.step!r} {r.mode}\n")
            for note in self.notes:
                fh.write(f"# {note}\n")


def _dual_norms(mesh, sched, r_u, r_shape, r_lam):
    """Dual (metric) norms of the KKT right-hand side components."""
    if sched.residual_norm == "euclidean":
        gn = float(np.linalg.norm(r_shape))
        return gn, float(np.sqrt(np.linalg.norm(r_u) ** 2 + gn ** 2
                                 + np.linalg.norm(r_lam) ** 2))
    u_constrained, _ = model.state_dirichlet(mesh)
    mass = fem.with_constraints(fem.assemble_mass(mesh), u_constrained)
    metric = shape_calculus.deformation_metric(mesh, sched.eps1, sched.eps2)
    # the norms are diagnostics: tolerate lower solver accuracy on badly
    # deformed meshes rather than aborting the whole run
    su = float(r_u @ mass.solve_constrained(r_u, rtol=1e-6))
    ss = float(r_shape @ metric.solve_constrained(r_shape, rtol=1e-6))
    sl = float(r_lam @ mass.solve_constrained(r_lam, rtol=1e-6))
    return float(np.sqrt(max(ss, 0.0))), float(np.sqrt(max(su + ss + sl, 0.0)))


def _metric_norm(metric, v: VectorField):
    return float(np.sqrt(max(metric.energy(v.flat()), 0.0)))


def line_search(mesh, cfg, target, v: VectorField, j0, dj_v, t0=1.0,
                c1=1e-4, max_halvings=30):
    """Backtracking Armijo search along the deformation direction."""
    if dj_v >= 0:
        raise ValueError(f"not a descent direction: dJ[V] = {dj_v:.3e}")
    t = t0
    for _ in range(max_halvings + 1):
        ok, _ = check_invertibility(mesh, v, t)
        if ok:
            j_t = shape_calculus.objective_on_deformed(mesh, cfg, target, v, t)
            if j_t <= j0 + c1 * t * dj_v:
                return t
        t *= 0.5
    raise LineSearchError(f"no admissible step after {max_halvings} halvings")


def steepest_descent(mesh0: Mesh, cfg, target, sched: Schedule):
    """Gradient loop: V solves b(V, Z) = -dJ[Z], then a line-searched step."""
    mesh = mesh0
    history = History()
    for k in range(sched.max_iters + 1):
        z = model.transfer_target(target, mesh)
        z_grad = model.target_gradients(target, mesh)
        u = model.solve_state(mesh, cfg)
        lam = model.solve_adjoint(mesh, cfg, u, z)
        j0 = model.objective(mesh, cfg, u, z)
        d = shape_calculus.assemble_shape_derivative(
            mesh, cfg, u, lam, z, z_grad=z_grad)
        metric = shape_calculus.deformation_metric(mesh, sched.eps1, sched.eps2)
        grad = shape_calculus.riesz_gradient(d, metric)
        v = VectorField(mesh, -grad.values)
        vnorm = _metric_norm(metric, v)
        gn, res = _dual_norms(mesh, sched, np.zeros(mesh.num_vertices),
                              d.dual, np.zeros(mesh.num_vertices))
        if vnorm <= sched.tol_v or k == sched.max_iters:
            history.append(IterationRecord(k, j0, gn, res, 0.0, "gradient"))
            break
        dj_v = d.pair(v)
        if sched.line_search == "backtracking":
            t = line_search(mesh, cfg, target, v, j0, dj_v,
                            t0=sched.gradient_step)
        else:
            t = sched.gradient_step
            ok, _ = check_invertibility(mesh, v, t)
            while not ok:
                t *= 0.5
                ok, _ = check_invertibility(mesh, v, t)
        _, info = check_invertibility(mesh, v, t)
        history.append(IterationRecord(k, j0, gn, res, t, "gradient",
                                       info["min_area_ratio"]))
        mesh = apply_deformation(mesh, v, t)
    return mesh, history


def run_two_phase(mesh0: Mesh, cfg, target, sched: Schedule):
    """Projected-gradient warm-up followed by regularized Newton iterations."""
    mesh = mesh0
    z = model.transfer_target(target, mesh)
    u = model.solve_state(mesh, cfg)
    lam = model.solve_adjoint(mesh, cfg, u, z)
    history = History()

    for k in range(sched.max_iters + 1):
        z = model.transfer_target(target, mesh)
        z_grad = model.target_gradients(target, mesh)
        newton_phase = k >= sched.n_gradient_iters
        mode = "newton" if newton_phase else "gradient"
        # project through the switch iteration so Newton starts feasible
        if sched.project_warmup and k <= sched.n_gradient_iters:
            u = model.solve_state(mesh, cfg)
            lam = model.solve_adjoint(mesh, cfg, u, z)
        j0 = model.objective(mesh, cfg, u, z)
        gradient = kkt.lagrangian_gradient(mesh, cfg, u, lam, z, z_grad=z_grad)
        gn, res = _dual_norms(mesh, sched, *gradient)
        if k == sched.max_iters:
            history.append(IterationRecord(k, j0, gn, res, 0.0, mode))
            break

        # the reduced (gradient) system always uses the plain b form as its
        # preconditioner; the Tikhonov eps only tempers the Newton system
        step_eps = sched.eps if newton_phase else 1.0
        system = kkt.assemble_kkt(mesh, cfg, u, lam, z, step_eps,
                                  sched.eps1, sched.eps2, z_grad=z_grad,
                                  reduced=not newton_phase, gradient=gradient)
        try:
            du, v, dlam = system.solve()
        except fem.SingularSystemError as exc:
            if newton_phase and sched.newton_fallback:
                history.notes.append(f"iteration {k}: newton solve failed "
                                     f"({exc}); gradient fallback")
                mode = "gradient"
                system = kkt.assemble_kkt(mesh, cfg, u, lam, z, 1.0,
                                          sched.eps1, sched.eps2,
                                          z_grad=z_grad, reduced=True,
                                          gradient=gradient)
                du, v, dlam = system.solve()
            else:
                history.notes.append(f"aborted at iteration {k}: {exc}")
                history.append(IterationRecord(k, j0, gn, res, 0.0, mode))
                break

        metric = shape_calculus.deformation_metric(mesh, sched.eps1, sched.eps2)
        vnorm = _metric_norm(metric, v)
        if vnorm <= sched.tol_v:
            history.append(IterationRecord(k, j0, gn, res, 0.0, mode))
            break
        t = sched.newton_step if mode == "newton" else sched.gradient_step
        ok, info = check_invertibility(mesh, v, t)
        halvings = 0
        while not ok and halvings < 30:
            t *= 0.5
            halvings += 1
            ok, info = check_invertibility(mesh, v, t)
        if not ok:
            history.notes.append(
                f"aborted at iteration {k}: deformation not invertible")
            history.append(IterationRecord(k, j0, gn, res, 0.0, mode))
            break
        if halvings:
            history.notes.append(
                f"iteration {k}: step halved {halvings}x for invertibility")
        history.append(IterationRecord(k, j0, gn, res, t, mode,
                                       info["min_area_ratio"]))
        mesh = apply_deformation(mesh, v, t)
        u = ScalarField(mesh, u.values + t * du.values)
        lam = ScalarField(mesh, lam.values + t * dlam.values)
    return mesh, history
