"""Dense testbed for minimum-norm Newton directions in a weighted geometry.

Validates, at desk scale, the mechanism the regularized KKT solver relies
on: for a singular positive-semidefinite operator H that is self-adjoint in
an inner product g, the Tikhonov solutions of (H + eps I) V = b converge to
the minimum-g-norm solution of H V = b as eps -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as la

REL_TOL = 1e-10  # of every eigenvalue, semidefiniteness and range test here


class RangeError(ValueError):
    """Right-hand side is not (numerically) in the range of H."""


@dataclass(frozen=True)
class MetricSpace:
    """R^n equipped with the inner product x^T g y for SPD g."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("metric must be a square matrix")
        if not np.allclose(g, g.T, rtol=1e-12, atol=1e-12):
            raise ValueError("metric must be symmetric")
        object.__setattr__(self, "g", g)
        try:
            object.__setattr__(self, "_chol", la.cholesky(g, lower=True))
        except la.LinAlgError as exc:
            raise ValueError("metric must be positive definite") from exc

    @property
    def dim(self):
        return self.g.shape[0]

    def inner(self, x, y):
        return float(x @ self.g @ y)

    def norm(self, x):
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def whiten(self, x):
        """Coordinates in which the metric becomes Euclidean."""
        return self._chol.T @ x

    def unwhiten(self, y):
        return la.solve_triangular(self._chol.T, y, lower=False)


@dataclass(frozen=True)
class DenseOperator:
    """Linear operator on (R^n, g), optionally self-adjoint and PSD in g."""

    h: np.ndarray
    ms: MetricSpace

    def __post_init__(self):
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float))
        if self.h.shape != (self.ms.dim, self.ms.dim):
            raise ValueError("operator shape does not match the metric")

    @cached_property
    def whitened(self):
        """L^T H L^{-T}: symmetric iff H is self-adjoint in g."""
        chol = self.ms._chol
        return chol.T @ la.solve_triangular(chol, self.h.T, lower=True).T

    @property
    def self_adjoint(self):
        hw = self.whitened
        return np.allclose(hw, hw.T, rtol=1e-12, atol=1e-12 * max(1.0, la.norm(hw)))

    @cached_property
    def eigen(self):
        """Eigendecomposition of the symmetrized whitened operator."""
        return la.eigh(0.5 * (self.whitened + self.whitened.T))

    def positive_semidefinite(self):
        vals, _ = self.eigen
        return bool(vals.min() >= -REL_TOL * max(1.0, abs(vals.max())))

    def smallest_positive_eigenvalue(self):
        vals, _ = self.eigen
        scale = max(1.0, abs(vals.max()))
        pos = vals[vals > REL_TOL * scale]
        return float(pos.min()) if pos.size else 0.0

    def null_space(self):
        """g-orthonormal basis of the null space, as columns."""
        vals, vecs = self.eigen
        scale = max(1.0, abs(vals.max()))
        cols = vecs[:, np.abs(vals) <= REL_TOL * scale]
        return np.column_stack([self.ms.unwhiten(c) for c in cols.T]) \
            if cols.shape[1] else np.zeros((self.ms.dim, 0))


def min_norm_solve(op: DenseOperator, b):
    """Minimum-g-norm solution of H V = b; requires b in range(H)."""
    ms = op.ms
    bw = ms.whiten(np.asarray(b, dtype=float))
    hw = op.whitened
    yw, *_ = np.linalg.lstsq(hw, bw, rcond=None)
    # lstsq on a symmetric matrix already returns the minimum Euclidean norm
    # solution, which is the minimum g-norm solution after unwhitening.
    res = np.linalg.norm(hw @ yw - bw)
    if res > REL_TOL * max(np.linalg.norm(bw), 1e-300):
        raise RangeError(
            f"right-hand side not in range(H): residual {res:.3e}")
    return ms.unwhiten(yw)


def epsilon_solve(op: DenseOperator, b, eps: float):
    """Tikhonov approximation V_eps solving (H + eps I) V = b in g-geometry."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not op.self_adjoint:
        raise ValueError("H must be self-adjoint in g")
    if not op.positive_semidefinite():
        raise ValueError("H must be positive semidefinite")
    ms = op.ms
    bw = ms.whiten(np.asarray(b, dtype=float))
    hw = 0.5 * (op.whitened + op.whitened.T)
    yw = la.solve(hw + eps * np.eye(ms.dim), bw, assume_a="sym")
    return ms.unwhiten(yw)


def epsilon_table(op: DenseOperator, b, eps_values):
    """Convergence table [(eps, g-error to the min-norm solution)]."""
    v_hat = min_norm_solve(op, b)
    rows = []
    for eps in eps_values:
        v_eps = epsilon_solve(op, b, eps)
        rows.append((float(eps), op.ms.norm(v_eps - v_hat)))
    return v_hat, rows


def random_singular_psd(rng, n, rank=None):
    """Random PSD operator of deficient rank with a random SPD metric."""
    rank = rank if rank is not None else rng.integers(1, n)
    a = rng.standard_normal((n, rank))
    hw = a @ a.T  # PSD, rank-deficient, symmetric (whitened coordinates)
    q = rng.standard_normal((n, n))
    g = q @ q.T + n * np.eye(n)
    ms = MetricSpace(g)
    # map back: H = L^{-T} Hw L^T so that the whitened operator equals Hw
    lt = ms._chol.T
    h = la.solve_triangular(lt, (hw @ lt), lower=False)
    return DenseOperator(h, ms)
