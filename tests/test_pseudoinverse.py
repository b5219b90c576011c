import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformopt.pseudoinverse import (DenseOperator, MetricSpace, RangeError,
                                     epsilon_solve, epsilon_table,
                                     min_norm_solve, random_singular_psd)


def stationarity_residual(op: DenseOperator, b, v, eps: float):
    """g-norm of the gradient of the regularized quadratic at v."""
    r = op.h @ v - np.asarray(b, dtype=float) + eps * v
    return op.ms.norm(r)


class TestMetricSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            MetricSpace(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            MetricSpace(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            MetricSpace(np.ones((2, 3)))

    def test_whiten_roundtrip_and_norm(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((5, 5))
        ms = MetricSpace(q @ q.T + 5 * np.eye(5))
        x = rng.standard_normal(5)
        assert np.allclose(ms.unwhiten(ms.whiten(x)), x)
        assert ms.norm(x) == pytest.approx(np.linalg.norm(ms.whiten(x)),
                                           rel=1e-12)


class TestMinNormSolve:
    def test_projector_identity(self):
        """On b in range(H): H V = b and V is g-orthogonal to null(H)."""
        rng = np.random.default_rng(1)
        for _ in range(10):
            op = random_singular_psd(rng, 8)
            x = rng.standard_normal(8)
            b = op.h @ x
            v = min_norm_solve(op, b)
            assert np.allclose(op.h @ v, b, atol=1e-8)
            null = op.null_space()
            if null.shape[1]:
                assert np.abs(null.T @ op.ms.g @ v).max() < 1e-8

    def test_min_norm_among_solutions(self):
        rng = np.random.default_rng(2)
        op = random_singular_psd(rng, 6, rank=3)
        b = op.h @ rng.standard_normal(6)
        v = min_norm_solve(op, b)
        null = op.null_space()
        for _ in range(20):
            other = v + null @ rng.standard_normal(null.shape[1])
            assert op.ms.norm(v) <= op.ms.norm(other) + 1e-12

    def test_rhs_outside_range_rejected(self):
        rng = np.random.default_rng(3)
        op = random_singular_psd(rng, 6, rank=2)
        null = op.null_space()
        # a null vector (mapped to dual) has no preimage under PSD H
        b = op.ms.g @ null[:, 0]
        with pytest.raises(RangeError):
            min_norm_solve(op, b)


class TestEpsilonSolve:
    def test_validation(self):
        rng = np.random.default_rng(4)
        op = random_singular_psd(rng, 5)
        b = op.h @ rng.standard_normal(5)
        with pytest.raises(ValueError):
            epsilon_solve(op, b, 0.0)
        # a non-self-adjoint operator is rejected
        bad = DenseOperator(rng.standard_normal((5, 5)), op.ms)
        with pytest.raises(ValueError):
            epsilon_solve(bad, b, 1e-3)

    def test_stationarity(self):
        rng = np.random.default_rng(5)
        op = random_singular_psd(rng, 7)
        b = op.h @ rng.standard_normal(7)
        v = epsilon_solve(op, b, 1e-4)
        assert stationarity_residual(op, b, v, 1e-4) < 1e-8

    def test_linear_error_in_eps(self):
        """Error to the min-norm solution halves when eps halves."""
        rng = np.random.default_rng(6)
        for _ in range(5):
            op = random_singular_psd(rng, 10)
            b = op.h @ rng.standard_normal(10)
            sigma = op.smallest_positive_eigenvalue()
            eps0 = 1e-3 * sigma
            _, rows = epsilon_table(op, b, [eps0, eps0 / 2, eps0 / 4])
            errs = [e for _, e in rows]
            assert errs[0] > errs[1] > errs[2]
            assert 0.45 <= errs[1] / errs[0] <= 0.55
            assert 0.45 <= errs[2] / errs[1] <= 0.55

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=3, max_value=12))
    def test_monotone_in_eps_property(self, seed, n):
        rng = np.random.default_rng(seed)
        op = random_singular_psd(rng, n)
        b = op.h @ rng.standard_normal(n)
        eps0 = 1e-2 * max(op.smallest_positive_eigenvalue(), 1e-8)
        _, rows = epsilon_table(op, b, eps0 * 2.0 ** -np.arange(4))
        errs = [e for _, e in rows]
        assert all(a >= b - 1e-13 for a, b in zip(errs, errs[1:]))


class TestRandomSingularPsd:
    def test_construction_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 15))
            op = random_singular_psd(rng, n)
            assert op.self_adjoint
            assert op.positive_semidefinite()
            assert op.null_space().shape[1] >= 1
