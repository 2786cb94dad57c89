import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, strategies as st

from fcdsae import DomainError, network, sparsity

from oracles import assert_grads_close, backward, fd_gradients, random_network

# kl(0.05, 0.5) evaluated by hand:
#   0.05*ln(0.05/0.5) + 0.95*ln(0.95/0.5) = 0.4946317...
KL_005_05 = 0.494632


class TestAverageActivation:
    def test_batch_mean(self):
        mean = sparsity.average_activation(np.array([[0.2], [0.4], [0.6]]))
        npt.assert_allclose(mean, [0.4])

    def test_clamp_floor(self):
        mean = sparsity.average_activation(np.array([[0.0], [0.0]]))
        assert mean[0] == 0.0  # unclamped: the penalty clamps it
        assert (sparsity.total_loss(0.0, [mean], 0.05, 1.0)
                == sparsity.kl_divergence(0.05, 1e-6))

    def test_clamp_ceiling(self):
        mean = sparsity.average_activation(np.array([[2.0], [4.0]]))
        assert mean[0] == 3.0
        assert (sparsity.total_loss(0.0, [mean], 0.05, 1.0)
                == sparsity.kl_divergence(0.05, 1.0 - 1e-6))

    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError, match="empty batch"):
            sparsity.average_activation(np.zeros((0, 3)))


class TestKlDivergence:
    def test_identical_is_zero(self):
        assert sparsity.kl_divergence(0.05, 0.05) == 0.0
        assert sparsity.kl_divergence(0.5, 0.5) == 0.0

    def test_hand_value(self):
        assert sparsity.kl_divergence(0.05, 0.5) == pytest.approx(KL_005_05, abs=1e-6)

    @pytest.mark.parametrize("xi,xi_k", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0),
                                         (0.5, 1.0), (-0.1, 0.5)])
    def test_domain_errors(self, xi, xi_k):
        with pytest.raises(DomainError):
            sparsity.kl_divergence(xi, xi_k)

    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    @example(xi=0.001, xi_k=0.0010000000000000002)
    def test_nonnegative(self, xi, xi_k):
        assert sparsity.kl_divergence(xi, xi_k) >= 0.0

    def test_monotone_away_from_target(self):
        xi = 0.05
        grid_up = np.linspace(0.05, 0.99, 50)
        vals_up = [sparsity.kl_divergence(xi, x) for x in grid_up]
        assert all(b > a for a, b in zip(vals_up, vals_up[1:]))
        grid_down = np.linspace(0.05, 0.001, 50)
        vals_down = [sparsity.kl_divergence(xi, x) for x in grid_down]
        assert all(b > a for a, b in zip(vals_down, vals_down[1:]))


class TestPenaltyTotal:
    """The penalty as total_loss adds it to an MSE of 0."""

    @staticmethod
    def mean(values):
        return np.asarray(values, float)

    @staticmethod
    def penalty(means, xi, psi):
        return sparsity.total_loss(0.0, means, xi, psi)

    def test_zero_weight(self):
        assert self.penalty([self.mean([0.3, 0.7])], 0.05, 0.0) == 0.0

    def test_at_target_is_zero(self):
        assert self.penalty([self.mean([0.05, 0.05])], 0.05, 0.1) == 0.0

    def test_hand_value(self):
        total = self.penalty([self.mean([0.5, 0.5])], 0.05, 0.1)
        assert total == pytest.approx(0.1 * 2 * KL_005_05, abs=1e-6)

    @given(st.floats(0.001, 0.999),
           st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=32))
    @example(xi=0.001, means=[0.0010000000000000002])
    def test_matches_math_log_reference(self, xi, means):
        terms = [max(xi * math.log(xi / m)
                     + (1.0 - xi) * math.log((1.0 - xi) / (1.0 - m)), 0.0)
                 for m in means]
        total = self.penalty([self.mean(means), self.mean([xi])], xi, 1.0)
        assert total >= 0.0
        # np.log and math.log may differ in the last ulp of each term
        assert total == pytest.approx(math.fsum(terms), rel=1e-12, abs=1e-12)
        assert self.penalty([self.mean([xi] * len(means))], xi, 1.0) == 0.0

    def test_psi_zero_total_loss_bit_equals_mse(self):
        mse = 0.123456789
        assert sparsity.total_loss(mse, [self.mean([0.9])], 0.05, 0.0) == mse


class TestPenaltyGradient:
    def test_stationary_at_target(self):
        grad = sparsity.penalty_gradient(np.array([0.05]), 0.05, 1.0,
                                         batch_size=1)
        npt.assert_allclose(grad, 0.0, atol=1e-15)

    def test_scalar_derivative(self):
        grad = sparsity.penalty_gradient(np.array([0.2]), 0.05, 1.0,
                                         batch_size=1)
        assert grad.shape == (1,)
        npt.assert_allclose(grad, [-0.25 + 1.1875])

    def test_clamped_unit_has_zero_gradient(self):
        means = np.array([3.0, 0.0, np.nan, 0.2])
        grad = sparsity.penalty_gradient(means, 0.05, 1.0, batch_size=2)
        npt.assert_array_equal(grad[:3], 0.0)
        assert grad[3] != 0.0

    def test_finite_difference_of_penalty(self):
        # perturbing one activation of any sample changes the penalty by
        # the unit's delta*h
        acts = np.array([[0.3, 0.1], [0.5, 0.2]])
        h = 1e-6

        def penalty(a):
            s = sparsity.average_activation(a)
            return sparsity.total_loss(0.0, [s], 0.05, 1.0)

        mean = sparsity.average_activation(acts)
        delta = sparsity.penalty_gradient(mean, 0.05, 1.0, batch_size=2)
        for i, k in np.ndindex(acts.shape):
            plus, minus = acts.copy(), acts.copy()
            plus[i, k] += h
            minus[i, k] -= h
            fd = (penalty(plus) - penalty(minus)) / (2 * h)
            assert fd == pytest.approx(delta[k], rel=1e-4)


class TestGradientInjection:
    @pytest.mark.parametrize("psi", [1e-3, 1e-1])
    def test_total_loss_finite_difference(self, psi):
        rng = np.random.default_rng(17)
        params = random_network((4, 5, 3), seed=17)
        x = rng.normal(size=(8, 4))
        targets = np.eye(3)[rng.integers(0, 3, size=8)]
        acts = network.forward(params, x)
        means = [sparsity.average_activation(a) for a in acts[1:-1]]
        sgrads = [sparsity.penalty_gradient(m, 0.05, psi, 8) for m in means]
        analytic = backward(acts, params, targets, sgrads)
        numeric = fd_gradients(params, x, targets, 0.05, psi)
        assert_grads_close(analytic, numeric)
