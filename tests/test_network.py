import numpy as np
import numpy.testing as npt
import pytest

from fcdsae import DomainError, network
from fcdsae.network import AdamState, LayerParams, NetworkParams

from oracles import backward, random_network


def single_layer(w, b):
    return NetworkParams([LayerParams(np.array(w, float), np.array(b, float))])


def random_grads(params, rng):
    """Normal gradients in the layout of params, drawn layer by layer,
    weights before biases."""
    return NetworkParams([LayerParams(rng.normal(size=l.weights.shape),
                                      rng.normal(size=l.biases.shape))
                          for l in params.layers])


class TestForward:
    def test_relu_clamps_negative(self):
        params = single_layer([[1.0, -1.0]], [0.0])
        acts = network.forward(params, np.array([[2.0, 3.0]]))
        npt.assert_array_equal(acts[-1], [[0.0]])

    def test_identity(self):
        params = single_layer(np.eye(3), [0.0, 0.0, 0.0])
        acts = network.forward(params, np.array([[1.0, 0.0, 2.0]]))
        npt.assert_array_equal(acts[-1], [[1.0, 0.0, 2.0]])

    def test_weighted_sum_with_bias(self):
        params = single_layer([[0.5, 0.5]], [0.1])
        acts = network.forward(params, np.array([[1.0, 1.0]]))
        npt.assert_allclose(acts[-1], [[1.1]])

    def test_shape_mismatch_names_layer(self):
        params = single_layer([[1.0, 2.0]], [0.0])
        with pytest.raises(DomainError, match="layer 0"):
            network.forward(params, np.array([[1.0, 2.0, 3.0]]))

    @pytest.mark.parametrize("batch", [[1.0, 2.0], [[[1.0, 2.0]]]],
                             ids=["1-d", "3-d"])
    def test_not_a_matrix_rejected(self, batch):
        params = single_layer([[1.0, 2.0]], [0.0])
        with pytest.raises(DomainError, match=r"batch shape \("):
            network.forward(params, np.array(batch))

    def test_pure_and_bit_identical(self):
        params = random_network((4, 5, 3), seed=3)
        x = np.random.default_rng(0).normal(size=(6, 4))
        a = network.forward(params, x)
        b = network.forward(params, x)
        for pa, pb in zip(a, b, strict=True):
            assert np.array_equal(pa, pb)

    def test_trace_relu_invariant(self):
        params = random_network((4, 5, 3), seed=9)
        x = np.random.default_rng(1).normal(size=(8, 4))
        acts = network.forward(params, x)
        assert len(acts) == len(params.layers) + 1
        npt.assert_array_equal(acts[0], x)
        for layer, prev, post in zip(params.layers, acts, acts[1:]):
            pre = prev @ layer.weights.T + layer.biases
            npt.assert_array_equal(post, np.maximum(pre, 0.0))


class TestMseLoss:
    def test_exact_match_is_zero(self):
        out = np.array([[0.2, 0.5, 0.3]])
        assert network.mse_loss(out, out) == 0.0

    def test_one_hot_miss(self):
        loss = network.mse_loss(np.array([[1.0, 0.0, 0.0]]),
                                np.array([[0.0, 1.0, 0.0]]))
        npt.assert_allclose(loss, 2.0 / 3.0)

    def test_hand_value(self):
        loss = network.mse_loss(np.array([[0.5, 0.5, 0.0]]),
                                np.array([[1.0, 0.0, 0.0]]))
        npt.assert_allclose(loss, (0.25 + 0.25) / 3.0)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            network.mse_loss(np.array([[1.0, 0.0]]),
                             np.array([[1.0, 0.0, 0.0]]))


class TestBackward:
    def test_zero_error_gives_zero_gradients(self):
        params = single_layer(np.eye(3), [0.0, 0.0, 0.0])
        x = np.array([[1.0, 2.0, 3.0]])
        acts = network.forward(params, x)
        grads = backward(acts, params, acts[-1].copy())
        for layer in grads.layers:
            npt.assert_array_equal(layer.weights, 0.0)
            npt.assert_array_equal(layer.biases, 0.0)

    def test_scalar_linear_gradient(self):
        # (W*1 - 2)^2 at W=1: d/dW = 2*(1-2) = -2
        params = single_layer([[1.0]], [0.0])
        acts = network.forward(params, np.array([[1.0]]))
        grads = backward(acts, params, np.array([[2.0]]))
        npt.assert_allclose(grads.layers[0].weights, [[-2.0]])

    def test_mismatched_targets(self):
        params = single_layer([[1.0]], [0.0])
        acts = network.forward(params, np.array([[1.0]]))
        with pytest.raises(DomainError):
            backward(acts, params, np.array([[1.0, 2.0]]))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = random_network((4, 5, 3), seed=0)
        before = params.copy()
        state = AdamState.for_network(params, 0.001)
        zeros = params.copy()
        zeros.buffer[:] = 0.0
        network.adam_step(params, zeros, state)
        assert state.step_count == 1
        for la, lb in zip(params.layers, before.layers):
            npt.assert_array_equal(la.weights, lb.weights)

    def test_one_step_hand_value(self):
        # fresh state, any gradient magnitude: bias-corrected m/sqrt(v) = 1
        params = single_layer([[0.0]], [0.0])
        state = AdamState.for_network(params, 0.001)
        grads = single_layer([[2.0]], [0.0])
        network.adam_step(params, grads, state)
        npt.assert_allclose(params.layers[0].weights, [[-0.001]], atol=1e-9)

    def test_two_identical_steps(self):
        params = single_layer([[0.0]], [0.0])
        state = AdamState.for_network(params, 0.001)
        grads = single_layer([[2.0]], [0.0])
        for _ in range(2):
            network.adam_step(params, grads, state)
        npt.assert_allclose(params.layers[0].weights, [[-0.002]], atol=1e-6)
        assert state.step_count == 2

    def test_non_finite_gradient_rejected(self):
        # the step is rejected whole: parameters and moments stay as they were
        params = random_network((4, 5, 6, 3), seed=6)
        state = AdamState.for_network(params, 0.001)
        rng = np.random.default_rng(6)
        network.adam_step(params, random_grads(params, rng), state)
        before = (params.buffer.copy(), state.first_moment.copy(),
                  state.second_moment.copy())
        grads = random_grads(params, rng)
        grads.layers[2].biases[1] = np.nan
        with pytest.raises(DomainError, match="layer 2"):
            network.adam_step(params, grads, state)
        for got, want in zip((params.buffer, state.first_moment,
                              state.second_moment), before):
            assert got.tobytes() == want.tobytes()
        assert state.step_count == 1

    def test_second_moment_nonnegative(self):
        params = random_network((4, 5, 3), seed=1)
        state = AdamState.for_network(params, 0.001)
        rng = np.random.default_rng(2)
        for _ in range(5):
            network.adam_step(params, random_grads(params, rng), state)
        assert (state.second_moment >= 0).all()


class TestNetworkParams:
    def test_layers_are_views_into_the_buffer(self):
        params = random_network((4, 5, 3), seed=2)
        params.buffer[:] = np.arange(params.buffer.size)
        npt.assert_array_equal(params.layers[0].weights,
                               np.arange(20).reshape(5, 4))
        npt.assert_array_equal(params.layers[0].biases, np.arange(20, 25))
        npt.assert_array_equal(params.layers[1].weights,
                               np.arange(25, 40).reshape(3, 5))
        npt.assert_array_equal(params.layers[1].biases, np.arange(40, 43))

    def test_copy_is_independent(self):
        params = random_network((4, 5, 6, 3), seed=8)
        grads = random_grads(params, np.random.default_rng(8))
        for stepped, other in [(params.copy(), params),
                               (params, params.copy())]:
            before = [t.copy() for l in other.layers
                      for t in (l.weights, l.biases)]
            network.adam_step(stepped, grads,
                              AdamState.for_network(stepped, 0.001))
            after = [t for l in other.layers for t in (l.weights, l.biases)]
            assert [t.tobytes() for t in after] == [t.tobytes() for t in before]
            assert (stepped.layers[0].weights.tobytes()
                    != other.layers[0].weights.tobytes())


class TestTopology:
    def test_default_topology(self):
        params = network.init_network()
        assert params.topology == (10, 32, 16, 3)

    def test_chain_mismatch_rejected(self):
        good = LayerParams(np.zeros((5, 4)), np.zeros(5))
        bad = LayerParams(np.zeros((3, 6)), np.zeros(3))
        with pytest.raises(DomainError):
            NetworkParams([good, bad])

    @pytest.mark.parametrize("weights, biases, match", [
        (np.zeros(3), np.zeros(3), "weights must be a 2-D matrix"),
        (np.zeros((3, 5, 1)), np.zeros(3), "weights must be a 2-D matrix"),
        (np.zeros((3, 5)), np.zeros(5), r"bias shape \(5,\) does not match"),
        (np.zeros((3, 5)), np.zeros((3, 1)), r"bias shape \(3, 1\)"),
    ], ids=["1-d-weights", "3-d-weights", "bias-not-fan-out", "2-d-bias"])
    def test_bad_layer_shape_rejected(self, weights, biases, match):
        good = LayerParams(np.zeros((5, 4)), np.zeros(5))
        with pytest.raises(DomainError, match="layer 1 " + match):
            NetworkParams([good, LayerParams(weights, biases)])

    def test_copy_does_not_share_its_buffer(self):
        params = random_network((4, 5, 3), seed=2)
        copied = params.copy()
        assert copied.topology == params.topology
        assert not np.shares_memory(copied.buffer, params.buffer)
        assert copied.buffer.tobytes() == params.buffer.tobytes()
        copied.layers[0].weights[0, 0] += 1.0
        assert copied.buffer[0] != params.buffer[0]
