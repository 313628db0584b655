import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmproto import sinkhorn
from mmproto.errors import NumericalError, UsageError
from mmproto.numerics import as_matrix
from mmproto.sinkhorn import (CG_MIN_ORDER, CodeMatrix, SinkhornConfig,
                              compute_codes, converged_config)

EPS = 0.05


def random_scores(rng, k, b):
    return rng.uniform(-1.0, 1.0, size=(k, b))


def clustered_scores(rng, k, b, dim=8):
    """Cosine scores of unit prototypes and embeddings drawn around four
    shared centres, whose converged solves take more Newton steps than
    uniform random scores of the same order."""
    centres = rng.standard_normal((4, dim))

    def around(n):
        x = centres[rng.integers(4, size=n)] + rng.standard_normal((n, dim))
        return x / np.linalg.norm(x, axis=1, keepdims=True)
    return around(k) @ around(b).T


def block_scores(k, b, seed):
    """Scores of eight clusters of unequal size, as a trained encoder gives
    them: the K rows form blocks in proportion 200:150:100:80:60:50:40:20
    (sizes floored, the remainder to the first), the B columns eight equal
    blocks, column j in block floor(8 j / B). A score is +1 where a row's
    block meets its column's and -1 elsewhere, plus 0.01 N(0, 1) noise."""
    weights = np.array([200, 150, 100, 80, 60, 50, 40, 20])
    sizes = k * weights // weights.sum()
    sizes[0] += k - sizes.sum()
    rows = np.repeat(np.arange(8), sizes)
    cols = 8 * np.arange(b) // b
    scores = np.where(rows[:, None] == cols, 1.0, -1.0)
    return scores + 0.01 * np.random.default_rng(seed).standard_normal((k, b))


def entropy(q: CodeMatrix | np.ndarray) -> float:
    """Shannon entropy -sum(q log q) with 0 log 0 := 0."""
    m = q.q if isinstance(q, CodeMatrix) else as_matrix(q)
    if (m < 0).any():
        raise UsageError("entropy requires non-negative entries")
    nz = m[m > 0]
    return float(-(nz * np.log(nz)).sum())


def transport_objective(scores, q: CodeMatrix | np.ndarray,
                        epsilon: float) -> float:
    """Score alignment plus entropy bonus: Tr(Q^T scores) + eps * H(Q).

    The converged code should not be improvable by small feasible
    perturbations of this objective.
    """
    scores = as_matrix(scores)
    m = q.q if isinstance(q, CodeMatrix) else as_matrix(q)
    if scores.shape != m.shape:
        raise UsageError(
            f"scores {scores.shape} vs codes {m.shape}")
    return float((m * scores).sum()) + epsilon * entropy(m)


class TestConfig:
    def test_epsilon_positive(self):
        with pytest.raises(UsageError):
            SinkhornConfig(epsilon=0.0)

    def test_iterations_not_negative(self):
        with pytest.raises(UsageError,
                           match="^n_iterations must be >= 0, got -1$"):
            SinkhornConfig(n_iterations=-1)

    def test_zero_iterations_solve_to_tolerance(self):
        codes = compute_codes(random_scores(np.random.default_rng(3), 6, 9),
                              SinkhornConfig(EPS, 0))
        assert codes.converged and codes.newton_steps > 0
        assert codes.residual < sinkhorn.TOLERANCE

    def test_converged_config_is_zero_sweeps(self):
        assert converged_config(0.05) == SinkhornConfig(0.05, 0)
        assert SinkhornConfig().n_iterations == 3

    @pytest.mark.parametrize("field, value", [
        ("epsilon", np.nan), ("epsilon", np.inf)])
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

    @pytest.mark.parametrize("config", [SinkhornConfig(),
                                        converged_config(EPS)],
                             ids=["sweeps", "converged"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, config, bad):
        with pytest.raises(NumericalError,
                           match="^scores contain NaN or Inf$"):
            compute_codes([[bad, 0.0]], config)

    def test_nonfinite_scores_named_before_start(self):
        """Non-finite scores are named before a misshapen `start` is."""
        with pytest.raises(NumericalError,
                           match="^scores contain NaN or Inf$"):
            compute_codes([[np.nan, 0.0], [0.0, 0.0]], converged_config(EPS),
                          start=np.zeros(3))

    @pytest.mark.filterwarnings("error")
    def test_sweep_underflow_named(self):
        """A column whose kernel underflows to 0 would divide 0 by 0."""
        with pytest.raises(NumericalError, match="at epsilon 0.001;"):
            compute_codes([[1.0, -1.0], [1.0, -1.0]],
                          SinkhornConfig(epsilon=0.001))
        codes = compute_codes([[1.0, -1.0], [1.0, -1.0]],
                              converged_config(0.001))
        np.testing.assert_allclose(codes.q, 0.25, atol=1e-9)

    def test_scores_spanning_the_float_range(self):
        """The sweeps' global shift overflows to -inf, whose kernel is 0."""
        codes = compute_codes([[1e308, -1e308], [-1e308, 1e308]],
                              SinkhornConfig(epsilon=1.0))
        np.testing.assert_array_equal(codes.q, [[0.5, 0.0], [0.0, 0.5]])

    @pytest.mark.parametrize("config", [SinkhornConfig(epsilon=1e-310),
                                        converged_config(1e-310)])
    def test_overflowing_quotient_named(self, config):
        with pytest.raises(NumericalError, match=r"^scores / epsilon overflow "
                                                 r"at epsilon 1e-310;"):
            compute_codes([[0.3, -0.5], [0.6, 0.8]], config)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 1)])
    @pytest.mark.parametrize("config", [SinkhornConfig(epsilon=1e-3),
                                        converged_config(EPS)])
    def test_single_row_or_column_closed_form(self, shape, config):
        k, b = shape
        scores = np.arange(k * b, dtype=float).reshape(shape) * 10.0
        codes = compute_codes(scores, config)
        assert (codes.q == 1.0 / (k * b)).all()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    @pytest.mark.parametrize("config", [SinkhornConfig(),
                                        converged_config(EPS)],
                             ids=["sweeps", "converged"])
    def test_empty_scores_named(self, shape, config):
        with pytest.raises(UsageError, match=rf"^scores of shape "
                                             rf"\({shape[0]}, {shape[1]}\) "
                                             rf"are empty$"):
            compute_codes(np.zeros(shape), config)

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


@pytest.fixture
def factorized(monkeypatch):
    """The order of each Schur complement that np.linalg.solve factorizes."""
    orders = []
    solve = np.linalg.solve

    def counted(s, rhs):
        orders.append(len(s))
        return solve(s, rhs)

    monkeypatch.setattr(sinkhorn.np.linalg, "solve", counted)
    return orders


class TestNewtonStep:
    # K < B, K > B, and both sides of the branch boundary K = B | K = B+1;
    # the last two have min(K, B) >= CG_MIN_ORDER, so conjugate gradients
    # solve them, here to a relative residual of 1e-6
    @pytest.mark.parametrize("k,b", [(6, 40), (40, 6), (9, 9), (10, 9),
                                     (CG_MIN_ORDER, CG_MIN_ORDER + 88),
                                     (CG_MIN_ORDER + 88, CG_MIN_ORDER + 1)])
    @pytest.mark.parametrize("epsilon", [1.0, EPS])
    def test_matches_dense_system(self, k, b, epsilon, monkeypatch):
        monkeypatch.setattr(sinkhorn, "CG_TOLERANCE", 1e-6)
        rng = np.random.default_rng(k * 100 + b)
        m = np.exp(random_scores(rng, k, b) / epsilon)
        m /= m.sum()
        row, col = m.sum(axis=1), m.sum(axis=0)
        g_u, g_v = row - 1.0 / k, col - 1.0 / b
        du, dv, exact = sinkhorn._newton_step(m, row, col, g_u, g_v)
        ref_u, ref_v = dense_newton_step(m, row, col, g_u, g_v[:-1])
        step, ref = np.concatenate([du, dv]), np.concatenate([ref_u, ref_v])
        tol = 1e-6 if min(k, b) >= CG_MIN_ORDER else 1e-10
        assert dv[-1] == 0.0 and exact
        assert np.linalg.norm(step - ref) <= tol * np.linalg.norm(ref)

    @pytest.mark.parametrize("k,b", [(40, 6), (16, 16), (300, 32)])
    def test_factorizes_the_smaller_schur_complement(self, k, b, factorized):
        """Eliminating the larger diagonal block leaves a system of order
        min(K, B): 6, 16 and 32 here. Always eliminating the column block
        would factorize orders 40, 16 and 300, which at 300 x 32 more than
        doubles the solve's peak memory."""
        scores = random_scores(np.random.default_rng(k * 100 + b), k, b)
        codes = compute_codes(scores, converged_config(EPS))
        assert codes.converged and codes.newton_steps > 0
        assert factorized == [min(k, b)] * codes.newton_steps

    @pytest.mark.parametrize("k,b", [(CG_MIN_ORDER + 88, CG_MIN_ORDER + 1),
                                     (CG_MIN_ORDER, CG_MIN_ORDER + 88)])
    def test_zero_jacobi_entry_fails_the_step(self, k, b, factorized):
        """Row 0 and column 0 share their mass with no other column or
        row: the Schur complement's diagonal entry for one of them is 0,
        so no Jacobi preconditioner exists. The singular system is a failed
        step: its direction is not finite, and nothing is factorized."""
        m = np.random.default_rng(2).uniform(0.5, 1.0, size=(k, b))
        m[0, 1:] = m[1:, 0] = 0.0
        m /= m.sum()
        row, col = m.sum(axis=1), m.sum(axis=0)
        du, dv, exact = sinkhorn._newton_step(
            m, row, col, row - 1.0 / k, col - 1.0 / b)
        assert factorized == [] and exact
        assert not (np.isfinite(du).all() and np.isfinite(dv).all())

    @pytest.mark.parametrize("k,b", [(64, 1024), (1024, 64),
                                     (CG_MIN_ORDER + 88, CG_MIN_ORDER + 188)])
    def test_peak_memory_linear_in_kernel(self, k, b, monkeypatch):
        # a dense (K+B-1)^2 Newton system alone is 18x K*B*8 bytes at the
        # first two shapes. The conjugate-gradient solve of the third holds
        # log_kernel and m only, 2x, so 2.5x leaves no room for another
        # K x B array; a dense step adds one transient scaled copy of the
        # kernel, so 4x leaves no room for a second
        steps = []
        newton_step = sinkhorn._newton_step

        def counted(*args):
            steps.append(1)
            return newton_step(*args)

        monkeypatch.setattr(sinkhorn, "_newton_step", counted)
        cg = min(k, b) >= CG_MIN_ORDER
        make = clustered_scores if cg else random_scores
        scores = make(np.random.default_rng(5), k, b)
        tracemalloc.start()
        try:
            codes = compute_codes(scores, converged_config(EPS))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert steps, "the Newton path was not exercised"
        if cg:  # the bound covers accepted and rejected trials
            assert codes.backtracks > 0
        assert max(codes.marginal_deviation()) < 1e-6
        bound = 2.5 if cg else 4.0
        assert peak < bound * k * b * 8, (
            f"peak {peak / (k * b * 8):.2f} x K*B*8")

    @pytest.mark.parametrize("order", [CG_MIN_ORDER - 1, CG_MIN_ORDER])
    def test_both_sides_of_the_order_threshold(self, order, factorized):
        """A factorization solves each Newton system of order min(K, B)
        below CG_MIN_ORDER and none from it up, with K < B and with K > B;
        both meet the marginals."""
        rng = np.random.default_rng(order)
        for k, b in [(order, order + 89), (order + 89, order)]:
            factorized.clear()
            codes = compute_codes(clustered_scores(rng, k, b),
                                  converged_config(EPS))
            assert codes.converged and codes.newton_steps > 0
            assert codes.inexact_steps == 0
            assert max(codes.marginal_deviation()) < 1e-8
            expected = codes.newton_steps if order < CG_MIN_ORDER else 0
            assert factorized == [order] * expected, (k, b)

    @pytest.mark.parametrize("k,b", [(CG_MIN_ORDER, CG_MIN_ORDER + 88),
                                     (CG_MIN_ORDER + 88, CG_MIN_ORDER + 1)])
    def test_shipped_cg_tolerance_costs_no_newton_step(self, k, b,
                                                       monkeypatch):
        """Conjugate gradients stopped at CG_TOLERANCE take the Newton steps
        and rejected trials that a solve to 1e-6 takes."""
        scores = clustered_scores(np.random.default_rng(1), k, b)
        shipped = compute_codes(scores, converged_config(EPS))
        monkeypatch.setattr(sinkhorn, "CG_TOLERANCE", 1e-6)
        tight = compute_codes(scores, converged_config(EPS))
        assert shipped.converged and shipped.newton_steps > 0
        assert ((shipped.newton_steps, shipped.backtracks)
                == (tight.newton_steps, tight.backtracks))
        assert max(shipped.marginal_deviation()) < 1e-8

    @pytest.mark.parametrize("k,b", [(CG_MIN_ORDER, CG_MIN_ORDER + 88),
                                     (CG_MIN_ORDER + 88, CG_MIN_ORDER + 1)])
    def test_conjugate_gradients_solve_the_unpinned_complement(
            self, k, b, monkeypatch):
        """Conjugate gradients get the whole Schur complement, over all B
        columns: its operator annihilates the potentials' translation, the
        ones vector, and its right-hand side sums to the difference of the
        row and column mass, zero to rounding."""
        systems, conjugate_gradients = [], sinkhorn._conjugate_gradients

        def recorded(a, d, inv_e, rhs, jacobi):
            # `a` is a view of the kernel, which the line search scales
            translation = d - a @ ((a.T @ np.ones(len(d))) * inv_e)
            systems.append((np.abs(translation).max() / np.abs(d).max(),
                            abs(rhs.sum()) / d.sum()))
            return conjugate_gradients(a, d, inv_e, rhs, jacobi)

        monkeypatch.setattr(sinkhorn, "_conjugate_gradients", recorded)
        scores = clustered_scores(np.random.default_rng(1), k, b)
        assert compute_codes(scores, converged_config(EPS)).converged
        assert systems
        for translation, rhs_sum in systems:
            assert translation <= 1e-12 and rhs_sum <= 1e-13

    def test_conjugate_gradients_stop_on_non_positive_curvature(self):
        """An indefinite system: the first direction has curvature -1, so
        the solve returns its iterate, still x = 0, short of the tolerance."""
        x, exact = sinkhorn._conjugate_gradients(
            np.zeros((2, 1)), np.array([1.0, -1.0]), np.array([1.0]),
            np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert not exact
        np.testing.assert_array_equal(x, [0.0, 0.0])

    def test_conjugate_gradient_solves_repeat_byte_for_byte(self):
        scores = clustered_scores(np.random.default_rng(8), CG_MIN_ORDER + 88,
                                  CG_MIN_ORDER + 1)
        first = compute_codes(scores, converged_config(EPS))
        second = compute_codes(scores, converged_config(EPS))
        assert first.newton_steps > 0
        assert first.q.tobytes() == second.q.tobytes()
        assert first.u.tobytes() == second.u.tobytes()


class TestTrialScreen:
    def test_screen_is_the_trial_kernels_marginals(self):
        rng = np.random.default_rng(11)
        m = np.exp(random_scores(rng, 30, 50) / EPS)
        m /= m.sum()
        du, dv = rng.normal(size=30), rng.normal(size=50)
        direct = np.exp(np.log(m) + du[:, None] + dv[None, :])
        r, c = 1.0 / 30, 1.0 / 50
        rows, cols, residual = sinkhorn._screen(m, np.exp(du), np.exp(dv),
                                                r, c)
        np.testing.assert_allclose(rows, direct.sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(cols, direct.sum(axis=0), rtol=1e-12)
        assert residual == max(np.abs(rows - r).max(), np.abs(cols - c).max())

    # a dense-path solve, a conjugate-gradient one that takes 15 Newton
    # steps and rejects 43 trials, and one whose every other Newton
    # direction is not finite, so that sweeps re-form the kernel between
    # accepted steps
    @pytest.mark.parametrize("k,b,seed,epsilon,failing", [
        (16, 288, 7, EPS, False),
        (CG_MIN_ORDER + 88, CG_MIN_ORDER + 188, 5, 0.01, False),
        (16, 288, 7, EPS, True)], ids=["dense", "cg", "sweeps"])
    def test_accepted_trials_scale_the_kernel_without_drift(
            self, k, b, seed, epsilon, failing, monkeypatch):
        """Each accepted trial scales the kernel in place, which keeps q
        diag(e^u) exp(scores / epsilon) diag(e^v) to rounding: log q minus
        the scaled scores and u is one v_j down every column."""
        newton_step, steps = sinkhorn._newton_step, []

        def every_other_fails(m, row, col, g_u, g_v):
            steps.append(1)
            du, dv, exact = newton_step(m, row, col, g_u, g_v)
            return (np.nan * du if len(steps) % 2 else du), dv, exact

        if failing:
            monkeypatch.setattr(sinkhorn, "_newton_step", every_other_fails)
        scores = clustered_scores(np.random.default_rng(seed), k, b)
        codes = compute_codes(scores, converged_config(epsilon))
        assert codes.converged and codes.backtracks > 0
        assert (codes.fallback_sweeps > 0) == failing
        assert codes.fallback_sweeps < codes.newton_steps
        v = np.log(codes.q) - scores / epsilon - codes.u[:, None]
        assert np.ptp(v, axis=0).max() < 1e-11


class TestHalfSweep:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_fits_the_lines_and_forms_their_kernel(self, axis):
        """Every line along `axis` sums to the target, and the potentials
        it returns rebuild the kernel it leaves in m."""
        rng = np.random.default_rng(2)
        log_kernel = random_scores(rng, 30, 50) / EPS
        p = rng.normal(size=log_kernel.shape[axis])
        target = 1.0 / log_kernel.shape[1 - axis]
        m = np.empty_like(log_kernel)
        with np.errstate(all="ignore"):  # as compute_codes calls it
            fitted = sinkhorn._half_sweep(log_kernel, p, axis, target, m)
        np.testing.assert_allclose(m.sum(axis=axis), target, rtol=1e-12)
        u, v = (p, fitted) if axis == 0 else (fitted, p)
        np.testing.assert_allclose(
            np.exp(log_kernel + u[:, None] + v[None, :]), m, rtol=1e-12)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_no_line_underflows(self, axis):
        """At epsilon 1e-3 a line of -1 scores underflows exp(scores /
        epsilon) to zero; the half-sweep still fits every line."""
        rng = np.random.default_rng(3)
        scores = np.where(rng.random((6, 9)) < 0.5, 1.0, -1.0)
        scores[0, :] = scores[:, 0] = -1.0
        assert not np.exp(scores[0] / 1e-3).any()
        assert not np.exp(scores[:, 0] / 1e-3).any()
        m = np.empty_like(scores)
        target = 1.0 / scores.shape[1 - axis]
        with np.errstate(all="ignore"):  # as compute_codes calls it
            fitted = sinkhorn._half_sweep(scores / 1e-3, np.zeros(
                scores.shape[axis]), axis, target, m)
        assert np.isfinite(fitted).all() and np.isfinite(m).all()
        np.testing.assert_allclose(m.sum(axis=axis), target, rtol=1e-12)


class TestDiagnostics:
    def test_warm_start_of_a_perturbed_problem(self):
        """The potentials of one solve start the solve of a slightly moved
        problem: it meets the same marginals in fewer Newton steps."""
        rng = np.random.default_rng(3)
        scores = random_scores(rng, 16, 288)
        moved = scores + 0.01 * random_scores(rng, 16, 288)
        first = compute_codes(scores, converged_config(EPS))
        cold = compute_codes(moved, converged_config(EPS))
        warm = compute_codes(moved, converged_config(EPS), start=first.u)
        assert first.converged and cold.converged and warm.converged
        row, col = warm.marginal_deviation()
        assert row < 1e-8 and col < 1e-8
        assert 0 < warm.newton_steps < cold.newton_steps
        np.testing.assert_allclose(warm.q, cold.q, atol=1e-8)

    def test_cold_solve_is_a_zero_start(self):
        scores = clustered_scores(np.random.default_rng(7), 16, 288)
        cold = compute_codes(scores, converged_config(EPS))
        zero = compute_codes(scores, converged_config(EPS), start=np.zeros(16))
        assert cold.converged and cold.newton_steps > 0
        assert cold.q.tobytes() == zero.q.tobytes()
        assert cold.u.tobytes() == zero.u.tobytes()
        assert ((cold.newton_steps, cold.backtracks, cold.fallback_sweeps)
                == (zero.newton_steps, zero.backtracks, zero.fallback_sweeps))

    def test_iteration_cap_reported(self, monkeypatch):
        scores = random_scores(np.random.default_rng(4), 6, 9)
        assert compute_codes(scores, converged_config(EPS)).converged
        monkeypatch.setattr(sinkhorn, "MAX_NEWTON_STEPS", 1)
        monkeypatch.setattr(sinkhorn, "TOLERANCE", 1e-12)
        codes = compute_codes(scores, converged_config(EPS))
        assert codes.newton_steps == 1 and not codes.converged

    def test_fixed_sweeps_carry_no_potentials(self):
        codes = compute_codes(random_scores(np.random.default_rng(5), 4, 5),
                              SinkhornConfig(), start=np.zeros(4))
        assert codes.u is None and codes.newton_steps == 0
        assert not codes.converged

    def test_start_shape_checked(self):
        with pytest.raises(UsageError, match=r"start potentials \(3,\)"):
            compute_codes(np.zeros((4, 5)), converged_config(EPS),
                          start=np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_rejected(self, bad):
        start = np.zeros(6)
        start[0] = bad
        with pytest.raises(UsageError, match="start potentials contain"):
            compute_codes(random_scores(np.random.default_rng(4), 6, 9),
                          converged_config(EPS), start=start)

    def test_converged_solve_reports_its_residual(self):
        scores = random_scores(np.random.default_rng(6), 16, 288)
        codes = compute_codes(scores, converged_config(EPS))
        assert codes.converged
        assert codes.residual == pytest.approx(max(codes.marginal_deviation()),
                                               rel=1e-6)
        assert codes.residual < 1e-8
        assert codes.fallback_sweeps == codes.inexact_steps == 0

    def test_fixed_sweeps_count_nothing(self):
        codes = compute_codes(random_scores(np.random.default_rng(5), 4, 5),
                              SinkhornConfig())
        assert codes.backtracks == codes.fallback_sweeps == 0
        assert codes.inexact_steps == 0 and np.isnan(codes.residual)

    def test_singular_newton_systems_counted(self, monkeypatch):
        """A Schur system the factorization rejects is a failed step: each
        one sweeps at once, with no line-search trial, and counts as no
        inexact solve; the sweeps alone meet the marginals."""
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(sinkhorn.np.linalg, "solve", singular)
        codes = compute_codes(random_scores(np.random.default_rng(4), 6, 9),
                              converged_config(EPS))
        assert codes.converged and codes.newton_steps > 0
        assert codes.fallback_sweeps == codes.newton_steps
        assert codes.backtracks == codes.inexact_steps == 0
        assert max(codes.marginal_deviation()) < 1e-8
        assert codes.residual == pytest.approx(max(codes.marginal_deviation()),
                                               rel=1e-6)

    def test_stopped_short_conjugate_gradients_counted(self, monkeypatch):
        """Capped at one iteration, each conjugate-gradient solve stops short
        of its tolerance; the damped iteration still meets the marginals."""
        monkeypatch.setattr(sinkhorn, "CG_MAX_ITERATIONS", 1)
        scores = clustered_scores(np.random.default_rng(1), CG_MIN_ORDER,
                                  CG_MIN_ORDER + 88)
        codes = compute_codes(scores, converged_config(0.2))
        assert codes.converged and codes.newton_steps > 0
        assert codes.inexact_steps == codes.newton_steps
        assert max(codes.marginal_deviation()) < 1e-8

    def test_failed_line_searches_counted(self, monkeypatch):
        """A zero Newton step never lowers the residual: each step rejects
        all 40 trials and falls back to a sweep, which converges at
        epsilon 1."""
        def zero_step(m, row, col, g_u, g_v):
            return np.zeros_like(row), np.zeros_like(col), True

        monkeypatch.setattr(sinkhorn, "_newton_step", zero_step)
        codes = compute_codes(random_scores(np.random.default_rng(4), 6, 9),
                              converged_config(1.0))
        assert codes.converged and codes.newton_steps > 0
        assert codes.fallback_sweeps == codes.newton_steps
        assert codes.backtracks == 40 * codes.newton_steps
        assert codes.inexact_steps == 0
        assert codes.residual == pytest.approx(max(codes.marginal_deviation()),
                                               rel=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_trials_rejected(self, monkeypatch):
        """A first Newton direction scaled by 1e4 makes its first trial
        kernel overflow: the infinite residual is rejected like any other
        trial that does not lower it, with no warning, and the halved
        trials reach the unpatched solve's fixed point."""
        newton_step, exponents = sinkhorn._newton_step, []

        def scaled_step(m, row, col, g_u, g_v):
            du, dv, exact = newton_step(m, row, col, g_u, g_v)
            if not exponents:
                du, dv = 1e4 * du, 1e4 * dv
                exponents.append(
                    (np.log(m) + du[:, None] + dv[None, :]).max())
            return du, dv, exact

        scores = random_scores(np.random.default_rng(4), 16, 288)
        plain = compute_codes(scores, converged_config(EPS))
        monkeypatch.setattr(sinkhorn, "_newton_step", scaled_step)
        codes = compute_codes(scores, converged_config(EPS))
        assert exponents[0] > np.log(np.finfo(float).max)  # exp() overflows
        assert codes.converged and codes.backtracks >= 10
        assert max(codes.marginal_deviation()) < 1e-8
        np.testing.assert_allclose(codes.q, plain.q, atol=1e-8)

    @pytest.mark.parametrize("k,b", [(64, 90), (90, 64)])
    def test_fallback_sweeps_on_unequal_clusters(self, k, b):
        """On scores of unequal clusters some Newton steps reject all their
        trials, with no patched direction: the fallback sweeps still lead
        to the marginals."""
        codes = compute_codes(block_scores(k, b, 0), converged_config(EPS))
        assert codes.converged and codes.fallback_sweeps > 0
        assert max(codes.marginal_deviation()) < 1e-8

    def test_non_finite_directions_take_the_sweep(self, monkeypatch):
        """A Newton direction that is not finite is a failed step: the
        solve sweeps at once, with no line-search trial and no warning."""
        def overflowed_step(m, row, col, g_u, g_v):
            return np.full_like(row, np.nan), np.full_like(col, np.inf), True

        monkeypatch.setattr(sinkhorn, "_newton_step", overflowed_step)
        codes = compute_codes(random_scores(np.random.default_rng(4), 6, 9),
                              converged_config(1.0))
        assert codes.converged and codes.newton_steps > 0
        assert codes.fallback_sweeps == codes.newton_steps
        assert codes.backtracks == 0
        assert codes.residual == pytest.approx(max(codes.marginal_deviation()),
                                               rel=1e-6)


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
