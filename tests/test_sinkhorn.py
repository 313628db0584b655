import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmproto import sinkhorn
from mmproto.errors import NumericalError, UsageError
from mmproto.sinkhorn import (CodeMatrix, SinkhornConfig,
                              compute_codes, converged_config, entropy,
                              transport_objective)

EPS = 0.05


def random_scores(rng, k, b):
    return rng.uniform(-1.0, 1.0, size=(k, b))


class TestConfig:
    def test_epsilon_positive(self):
        with pytest.raises(UsageError):
            SinkhornConfig(epsilon=0.0)

    def test_iterations_at_least_one(self):
        with pytest.raises(UsageError):
            SinkhornConfig(n_iterations=0)

    @pytest.mark.parametrize("field, value", [
        ("epsilon", np.nan), ("epsilon", np.inf),
        ("convergence_tolerance", np.nan), ("convergence_tolerance", np.inf)])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(UsageError, match=f"^{field} must be finite"):
            SinkhornConfig(**{field: value})


class TestComputeCodes:
    def test_zero_scores_uniform(self):
        codes = compute_codes(np.zeros((2, 2)), converged_config(EPS))
        np.testing.assert_allclose(codes.q, 0.25, atol=1e-9)

    def test_symmetric_closed_form(self):
        s = np.array([[EPS * np.log(3), 0.0], [0.0, EPS * np.log(3)]])
        codes = compute_codes(s, converged_config(EPS))
        np.testing.assert_allclose(
            codes.q, [[0.375, 0.125], [0.125, 0.375]], atol=1e-6)

    def test_dominated_prototype_forced_uniform(self):
        codes = compute_codes([[10.0, 10.0], [0.0, 0.0]],
                              converged_config(EPS))
        np.testing.assert_allclose(codes.q, 0.25, atol=1e-6)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            compute_codes([[np.nan, 0.0]], SinkhornConfig())

    @pytest.mark.filterwarnings("error")
    def test_sweep_underflow_named(self):
        """A column whose kernel underflows to 0 would divide 0 by 0."""
        with pytest.raises(NumericalError, match="at epsilon 0.001;"):
            compute_codes([[1.0, -1.0], [1.0, -1.0]],
                          SinkhornConfig(epsilon=0.001))
        codes = compute_codes([[1.0, -1.0], [1.0, -1.0]],
                              converged_config(0.001))
        np.testing.assert_allclose(codes.q, 0.25, atol=1e-9)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 1)])
    @pytest.mark.parametrize("config", [SinkhornConfig(epsilon=1e-3),
                                        converged_config(EPS)])
    def test_single_row_or_column_closed_form(self, shape, config):
        k, b = shape
        scores = np.arange(k * b, dtype=float).reshape(shape) * 10.0
        codes = compute_codes(scores, config)
        assert (codes.q == 1.0 / (k * b)).all()

    def test_large_scores_no_overflow(self):
        codes = compute_codes([[1e4, -1e4], [-1e4, 1e4]], SinkhornConfig())
        assert np.isfinite(codes.q).all()

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12),
           b=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_marginals_converged(self, seed, k, b):
        scores = random_scores(np.random.default_rng(seed), k, b)
        codes = compute_codes(scores, converged_config(EPS))
        row_dev, col_dev = codes.marginal_deviation()
        assert row_dev < 1e-6 and col_dev < 1e-6
        assert abs(codes.q.sum() - 1.0) < 1e-6

    @given(seed=st.integers(0, 10_000), c=st.floats(-100, 100))
    @settings(max_examples=30, deadline=None)
    def test_constant_shift_invariance(self, seed, c):
        scores = random_scores(np.random.default_rng(seed), 4, 6)
        base = compute_codes(scores, converged_config(EPS)).q
        shifted = compute_codes(scores + c, converged_config(EPS)).q
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    def test_large_epsilon_limit_uniform(self):
        rng = np.random.default_rng(7)
        scores = random_scores(rng, 8, 16)
        codes = compute_codes(scores, converged_config(1e4))
        assert np.abs(codes.q - 1.0 / (8 * 16)).max() < 1e-3

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_column_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = random_scores(rng, 5, 7)
        perm = rng.permutation(7)
        base = compute_codes(scores, converged_config(EPS)).q
        permuted = compute_codes(scores[:, perm], converged_config(EPS)).q
        np.testing.assert_allclose(permuted, base[:, perm], atol=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_monotone_marginal_convergence(self, seed):
        scores = random_scores(np.random.default_rng(seed), 6, 9)
        devs = []
        for sweeps in range(1, 12):
            cfg = SinkhornConfig(epsilon=EPS, n_iterations=sweeps)
            devs.append(max(compute_codes(scores, cfg).marginal_deviation()))
        for earlier, later in zip(devs, devs[1:]):
            assert later <= earlier + 1e-12


def dense_newton_step(m, row, col, g_u, g_v):
    """Reference: the full (K+B-1)^2 Newton system on (u, v[:-1])."""
    k, b = m.shape
    h = np.zeros((k + b - 1, k + b - 1))
    h[:k, :k] = np.diag(row)
    h[k:, k:] = np.diag(col[:-1])
    h[:k, k:] = m[:, :-1]
    h[k:, :k] = m[:, :-1].T
    step = np.linalg.solve(h, -np.concatenate([g_u, g_v]))
    return step[:k], np.append(step[k:], 0.0)


class TestNewtonStep:
    # K < B, K > B, and both sides of the branch boundary K = B-1 | K = B
    @pytest.mark.parametrize("k,b", [(6, 40), (40, 6), (9, 9), (8, 9)])
    @pytest.mark.parametrize("epsilon", [1.0, EPS])
    def test_matches_dense_system(self, k, b, epsilon):
        rng = np.random.default_rng(k * 100 + b)
        m = np.exp(random_scores(rng, k, b) / epsilon)
        m /= m.sum()
        row, col = m.sum(axis=1), m.sum(axis=0)
        g_u, g_v = row - 1.0 / k, (col - 1.0 / b)[:-1]
        du, dv = sinkhorn._newton_step(m, row, col, g_u, g_v)
        ref_u, ref_v = dense_newton_step(m, row, col, g_u, g_v)
        step, ref = np.concatenate([du, dv]), np.concatenate([ref_u, ref_v])
        assert dv[-1] == 0.0
        assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("k,b", [(64, 1024), (1024, 64)])
    def test_peak_memory_linear_in_kernel(self, k, b, monkeypatch):
        # a dense (K+B-1)^2 Newton system alone is 18x K*B*8 bytes here
        steps = []
        newton_step = sinkhorn._newton_step

        def counted(*args):
            steps.append(1)
            return newton_step(*args)

        monkeypatch.setattr(sinkhorn, "_newton_step", counted)
        scores = random_scores(np.random.default_rng(5), k, b)
        tracemalloc.start()
        try:
            codes = compute_codes(scores, converged_config(EPS))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert steps, "the Newton path was not exercised"
        assert max(codes.marginal_deviation()) < 1e-6
        assert peak < 16 * k * b * 8, f"peak {peak / (k * b * 8):.1f} x K*B*8"


class TestEntropy:
    def test_uniform(self):
        assert entropy(np.full((2, 2), 0.25)) == pytest.approx(np.log(4))

    def test_two_atoms(self):
        assert entropy(np.array([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(
            np.log(2))

    def test_zero_times_log_zero(self):
        assert entropy(np.zeros((3, 3))) == 0.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_entropy_bound(self, seed):
        scores = random_scores(np.random.default_rng(seed), 4, 5)
        codes = compute_codes(scores, converged_config(EPS))
        assert entropy(codes) <= np.log(4 * 5) + 1e-12


class TestTransportObjective:
    def test_zero_scores(self):
        q = CodeMatrix(np.full((3, 4), 1.0 / 12))
        assert transport_objective(np.zeros((3, 4)), q, EPS) == pytest.approx(
            EPS * np.log(12))

    def test_converged_beats_uniform(self):
        s = np.array([[EPS * np.log(3), 0.0], [0.0, EPS * np.log(3)]])
        best = compute_codes(s, converged_config(EPS))
        uniform = CodeMatrix(np.full((2, 2), 0.25))
        assert (transport_objective(s, best, EPS) >
                transport_objective(s, uniform, EPS))

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            transport_objective(np.zeros((2, 3)), np.zeros((3, 2)), EPS)

    def test_local_perturbation_optimality(self):
        rng = np.random.default_rng(11)
        scores = random_scores(rng, 4, 5)
        codes = compute_codes(scores, converged_config(EPS))
        base = transport_objective(scores, codes, EPS)
        delta = 1e-3
        k, b = codes.q.shape
        for i in range(k):
            for l in range(i + 1, k):
                for j in range(b):
                    for m in range(j + 1, b):
                        # swap mass along a feasible 2x2 cycle
                        q = codes.q.copy()
                        q[i, j] += delta
                        q[l, m] += delta
                        q[i, m] -= delta
                        q[l, j] -= delta
                        if (q < 0).any():
                            continue
                        assert transport_objective(scores, q, EPS) <= base + 1e-12
