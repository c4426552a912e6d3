import numpy as np
import pytest

from charm.neurocore import (Adam, Stack, check_ce_inputs, dropout_mask, make_rng,
                             softmax, softmax_ce_grad, weighted_cross_entropy)


class TestStackActivation:
    """A one-layer identity stack shows the leaky ReLU it applies."""

    @staticmethod
    def activate(values, final_activation=True, **kw):
        x = np.asarray(values, dtype=float)[None, :]
        stack = Stack([(np.eye(x.shape[1]), np.zeros(x.shape[1]))],
                      final_activation=final_activation, **kw)
        return stack.forward(x)[0][0]

    def test_negative_slope(self):
        assert self.activate([-1.0]) == pytest.approx([-0.01])

    def test_zero(self):
        assert self.activate([0.0]) == 0.0

    def test_positive_identity(self):
        assert self.activate([2.5]) == 2.5

    def test_custom_slope(self):
        assert self.activate([-2.0, 3.0], slope=0.1) == pytest.approx([-0.2, 3.0])

    def test_no_final_activation_keeps_negatives(self):
        np.testing.assert_array_equal(
            self.activate([-2.0, 0.0, 3.0], final_activation=False), [-2.0, 0.0, 3.0])

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.3, 1.0])
    def test_slopes_are_where_bytes(self, slope):
        # a 1x1 layer passes each value through; the bias -0.0 adds nothing.
        # A matmul sum starts at +0.0, so the -0.0 input reaches the
        # activation as +0.0: no pre-activation is ever -0.0
        special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                   1e-310, -1e-310, 2.2250738585072014e-308, -1.0, 1.0]
        x = np.concatenate([special, make_rng(3).normal(size=64)])[:, None]
        w, b = np.ones((1, 1)), np.full(1, -0.0)
        stack = Stack([(w, b)], slope=slope, dropout_p=0.5, final_activation=True)
        with np.errstate(invalid="ignore"):
            pre = x @ w.T + b
            slopes = np.where(pre >= 0.0, 1.0, slope)
            expected = pre * slopes
            if slope == 0.0:  # inf * 0 is NaN: +inf leaks to NaN at slope 0, as -inf does
                expected[pre == np.inf] = np.inf * slope
            out, cache = stack.forward(x)
            train_out, train_cache = stack.forward(x, make_rng(0))
            # the backward factor: a unit d_out comes back through w = 1 as the slopes
            d_in = stack.backward(train_cache, np.ones_like(x), new_grads(stack))
        np.testing.assert_array_equal(pre[2:], x[2:])
        assert cache is None
        assert out.tobytes() == train_out.tobytes() == expected.tobytes()
        assert d_in.tobytes() == slopes.tobytes()


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0, 0, 0, 0]), [0.25] * 4)

    def test_closed_form(self):
        np.testing.assert_allclose(softmax([np.log(2), 0.0]), [2 / 3, 1 / 3])

    def test_shift_invariance(self):
        rng = make_rng(1)
        x = rng.normal(size=7)
        np.testing.assert_allclose(softmax(x + 13.7), softmax(x), atol=1e-12)

    def test_sums_to_one(self):
        rng = make_rng(2)
        for _ in range(20):
            p = softmax(rng.normal(scale=50, size=9))
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p > 0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])


class TestWeightedCrossEntropy:
    def test_uniform_logits(self):
        loss = weighted_cross_entropy([[0.0] * 4], [1], [1.0] * 4)
        assert loss == pytest.approx([np.log(4)], abs=1e-12)

    def test_confident_prediction(self):
        assert weighted_cross_entropy([[50.0, 0.0]], [0], [1.0, 1.0])[0] < 1e-9

    def test_linear_in_weight(self):
        logits = [[0.3, -1.2, 0.8]]
        base = weighted_cross_entropy(logits, [2], [1.0, 1.0, 1.0])
        doubled = weighted_cross_entropy(logits, [2], [1.0, 1.0, 2.0])
        assert doubled == pytest.approx(2 * base)

    def test_rows_match_vectors(self):
        logits = make_rng(4).normal(size=(4, 3))
        targets = np.array([2, 0, 0, 1])
        weights = np.array([0.7, 1.6, 1.2])
        rows = weighted_cross_entropy(logits, targets, weights)
        # the gradient of the mean times 4, a power of two: the gradient of the sum, exactly
        grads = softmax_ce_grad(logits, targets, weights)[1] * len(targets)
        for i in range(len(targets)):
            one = slice(i, i + 1)
            assert rows[i] == weighted_cross_entropy(logits[one], targets[one], weights)[0]
            np.testing.assert_array_equal(
                grads[i], softmax_ce_grad(logits[one], targets[one], weights)[1][0])


def reference_ce(logits, target, class_weights):
    """The losses and the gradient of their mean, one row at a time."""
    losses, grad = np.empty(len(target)), np.empty_like(logits)
    for i, (row, t) in enumerate(zip(logits, target)):
        shifted = row - row.max()
        e = np.exp(shifted)
        total = e.sum()
        losses[i] = -class_weights[t] * (shifted[t] - np.log(total))
        grad[i] = e / total
        grad[i, t] -= 1.0
        grad[i] *= class_weights[t] / len(target)
    return losses, grad


class TestSoftmaxCeGradBytes:
    """softmax_ce_grad against reference_ce, byte for byte."""

    @pytest.mark.parametrize("m", [2, 4, 7])
    @pytest.mark.parametrize("b", [1, 5, 8])
    @pytest.mark.parametrize("offset", [0.0, 700.0, -700.0])
    def test_matches_reference(self, b, m, offset):
        rng = make_rng(100 * b + m)
        logits = offset + rng.normal(scale=3.0, size=(b, m))
        target = rng.integers(m, size=b)
        weights = rng.uniform(0.2, 3.0, size=m)
        args = check_ce_inputs(logits, target, weights)
        losses, grad = softmax_ce_grad(*args)
        ref_losses, ref_grad = reference_ce(*args)
        assert losses.tobytes() == ref_losses.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        assert weighted_cross_entropy(logits, target, weights).tobytes() == ref_losses.tobytes()

    def test_rows_spread_over_1400(self):
        # exp underflows to 0 for the far row entries; a target 1400 below
        # the row's top costs 1400 times its weight
        logits = np.array([[700.0, -700.0, 0.0], [-700.0, 700.0, 699.5], [-700.0, -699.0, 700.0]])
        args = check_ce_inputs(logits, np.array([1, 0, 2]), np.array([1.0, 0.5, 2.0]))
        losses, grad = softmax_ce_grad(*args)
        ref_losses, ref_grad = reference_ce(*args)
        assert losses.tobytes() == ref_losses.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        assert np.isfinite(losses).all() and losses[0] == 0.5 * 1400.0


class TestDropout:
    def test_p_zero_identity(self):
        np.testing.assert_array_equal(dropout_mask((4, 25), 0.0, make_rng(1)),
                                      np.ones((4, 25)))

    def test_inference_identity(self):
        # with no rng, forward applies no mask, whatever dropout_p is, and keeps no cache
        stack = Stack.init([6, 5, 4, 2], make_rng(0), dropout_p=0.5)
        x = make_rng(1).normal(size=(3, 6))
        out, cache = stack.forward(x)
        assert cache is None
        no_dropout = Stack(stack.layers, slope=stack.slope, dropout_p=0.0)
        np.testing.assert_array_equal(out, no_dropout.forward(x, make_rng(2))[0])

    def test_inverted_scaling_preserves_mean(self):
        # each element is 0 w.p. p else 1/(1-p); var = p/(1-p)
        p, n = 0.05, 10 ** 6
        out = dropout_mask(n, p, make_rng(7))
        se = np.sqrt(p / (1 - p) / n)
        assert abs(out.mean() - 1.0) < 3 * se

    @pytest.mark.parametrize("shape", [(256, 32), (3, 5, 2), 1000])
    @pytest.mark.parametrize("p", [0.0, 0.05])
    def test_matches_reference_bytes(self, shape, p):
        rng = make_rng(17)
        expected = (rng.random(shape) >= p) / (1 - p)
        assert dropout_mask(shape, p, make_rng(17)).tobytes() == expected.tobytes()


class TestDense:
    """A Stack layer is a dense (w, b) pair computing x @ w.T + b."""

    def test_identity(self):
        stack = Stack([(np.eye(3), np.zeros(3))], dropout_p=0.0)
        out, _ = stack.forward([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0]])

    def test_affine(self):
        stack = Stack([(np.array([[1.0, 1.0]]), np.array([0.5]))], dropout_p=0.0)
        out, _ = stack.forward([[2.0, 3.0], [0.0, 1.0]])
        np.testing.assert_allclose(out, [[5.5], [1.5]])


class TestInit:
    """Stack.init: Glorot-uniform weights, zero biases."""

    def test_biases_zero(self):
        stack = Stack.init([7, 5, 4], make_rng(3))
        assert all(np.all(b == 0.0) for _, b in stack.layers)

    def test_seed_determinism(self):
        a = Stack.init([6, 4, 3], make_rng(11))
        b = Stack.init([6, 4, 3], make_rng(11))
        for p, q in zip(a.param_arrays(), b.param_arrays()):
            np.testing.assert_array_equal(p, q)

    def test_glorot_bound(self):
        stack = Stack.init([3, 3, 5], make_rng(5))  # bounds sqrt(6/6) = 1, sqrt(6/8)
        (w1, _), (w2, _) = stack.layers
        assert np.all(np.abs(w1) <= 1.0)
        assert np.all(np.abs(w2) <= np.sqrt(6.0 / 8.0))

    def test_same_draws_as_uniform_in_layer_order(self):
        dims = [6, 4, 3, 2]
        stack = Stack.init(dims, make_rng(21))
        ref = make_rng(21)
        for (w, b), n_in, n_out in zip(stack.layers, dims[:-1], dims[1:]):
            lim = np.sqrt(6.0 / (n_in + n_out))
            np.testing.assert_array_equal(w, ref.uniform(-lim, lim, size=(n_out, n_in)))
            assert b.shape == (n_out,)


def fd_grads(loss_fn, params, h=1e-5):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            hi = loss_fn()
            p[idx] = orig - h
            lo = loss_fn()
            p[idx] = orig
            g[idx] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def new_grads(stack):
    return [np.empty_like(p) for p in stack.param_arrays()]


class TestStackBackward:
    def test_matches_finite_differences(self):
        rng = make_rng(0)
        stack = Stack.init([5, 4, 3], rng, dropout_p=0.0, final_activation=False)
        x = rng.normal(size=(2, 5))
        weights = np.array([1.0, 0.7, 1.3])

        def loss_fn():
            out, _ = stack.forward(x)
            return weighted_cross_entropy(out, [1, 2], weights).sum()

        out, cache = stack.forward(x, make_rng(1))
        d = np.vstack([
            weights[1] * (softmax(out[0]) - np.eye(3)[1]),
            weights[2] * (softmax(out[1]) - np.eye(3)[2]),
        ])
        analytic = new_grads(stack)
        stack.backward(cache, d, analytic)
        numeric = fd_grads(loss_fn, stack.param_arrays())
        for a, f in zip(analytic, numeric):
            err = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
            assert err.max() < 1e-4

    def test_output_bias_grad_closed_form(self):
        # zero-weight net: logits are 0, so d_logits = softmax(0) - one_hot
        stack = Stack([(np.zeros((3, 4)), np.zeros(3))], dropout_p=0.0)
        out, cache = stack.forward(np.zeros((1, 4)), make_rng(1))
        d = softmax(out[0]) - np.eye(3)[1]
        grads = new_grads(stack)
        stack.backward(cache, d[None, :], grads)
        np.testing.assert_allclose(grads[1], [1 / 3, -2 / 3, 1 / 3])

    def test_dropped_unit_gets_zero_grad(self):
        rng = make_rng(4)
        stack = Stack.init([6, 5, 2], rng, dropout_p=0.5, final_activation=False)
        x = rng.normal(size=(1, 6))
        out, cache = stack.forward(x, make_rng(9))
        mask = cache[0][2]
        assert (mask == 0).any() and (mask != 0).any()  # seed gives a mixed mask
        d = softmax(out[0]) - np.eye(2)[0]
        grads = new_grads(stack)
        stack.backward(cache, d[None, :], grads)
        dropped = np.nonzero(mask[0] == 0)[0]
        np.testing.assert_array_equal(grads[0][dropped], 0.0)
        np.testing.assert_array_equal(grads[1][dropped], 0.0)

    def test_one_row_weight_grad_is_outer_product(self):
        stack = Stack.init([6, 5, 3], make_rng(3), dropout_p=0.0, final_activation=True)
        x = make_rng(4).normal(size=(1, 6))
        _, cache = stack.forward(x, make_rng(1))
        d_out = make_rng(5).normal(size=(1, 3))
        grads = new_grads(stack)
        stack.backward(cache, d_out, grads)
        (x0, up0, _), (x1, up1, _) = cache
        d1 = d_out * np.where(up1, 1.0, stack.slope)
        d0 = (d1 @ stack.layers[1][0]) * np.where(up0, 1.0, stack.slope)
        np.testing.assert_array_equal(grads[2], d1.T * x1)
        np.testing.assert_array_equal(grads[0], d0.T * x0)

    def test_d_out_left_untouched(self):
        # the reverse pass multiplies in place only into arrays it made
        stack = Stack.init([6, 5, 3], make_rng(3), dropout_p=0.5, final_activation=True)
        _, cache = stack.forward(make_rng(4).normal(size=(4, 6)), make_rng(5))
        d_out = make_rng(6).normal(size=(4, 3))
        kept = d_out.copy()
        stack.backward(cache, d_out, new_grads(stack))
        assert d_out.tobytes() == kept.tobytes()


def adam_oracle(g, steps, lr=5e-4, b1=0.9, b2=0.999, eps=1e-8):
    """Independent hand-rolled Adam trajectory for one scalar parameter."""
    p, m, v = 0.0, 0.0, 0.0
    values = []
    for t in range(1, steps + 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        values.append(p)
    return values


class TestAdam:
    def test_zero_grad_is_noop(self):
        p = np.array([1.0, -2.0])
        opt = Adam(p, lr=5e-4)
        opt.step(p, np.zeros(2))
        np.testing.assert_array_equal(p, [1.0, -2.0])
        assert np.all(opt.first_moment == 0) and np.all(opt.second_moment == 0)

    def test_first_step_matches_oracle(self):
        p = np.array([0.0])
        opt = Adam(p, lr=5e-4)
        opt.step(p, np.array([0.5]))
        assert p[0] == pytest.approx(adam_oracle(0.5, 1)[0], abs=1e-15)
        assert abs(p[0] - (-4.99999e-4)) < 1e-8

    def test_constant_grad_two_steps(self):
        p = np.array([0.0])
        opt = Adam(p, lr=5e-4)
        opt.step(p, np.array([1.0]))
        first = p[0]
        opt.step(p, np.array([1.0]))
        oracle = adam_oracle(1.0, 2)
        assert first == pytest.approx(oracle[0], abs=1e-12)
        assert p[0] == pytest.approx(oracle[1], abs=1e-12)
        # both updates are ~ -lr under a constant unit gradient
        assert abs(first - (-5e-4)) < 1e-9
        assert abs((p[0] - first) - (-5e-4)) < 1e-9


class TestAdamTracksTextbook:
    """The folded step against textbook Adam over a long run. The bound is
    relative to the largest value of each array: over seeds 0-19 of this
    run the worst step was 1.4e-15 for the parameters and 3.7e-15 for the
    moments (elementwise, near-zero entries reach 6e-9)."""

    BOUND = 1e-14

    @pytest.mark.parametrize("beta2", [0.999, 0.9])
    def test_600_steps_over_gradient_scales(self, beta2):
        lr, b1, eps = 2e-3, 0.9, 1e-8
        rng = make_rng(12)
        p = np.zeros(200)
        opt = Adam(p, lr=lr, beta2=beta2)
        q, m, v = np.zeros(200), np.zeros(200), np.zeros(200)

        def rel(got, want):
            return np.abs(got - want).max() / np.abs(want).max()

        for t in range(1, 601):
            # each element its own scale, 1e-8 (below eps) to 1e2
            g = rng.normal(size=200) * 10.0 ** rng.uniform(-8, 2, size=200)
            kept = g.copy()
            opt.step(p, g)
            assert g.tobytes() == kept.tobytes()
            m = b1 * m + (1 - b1) * g
            v = beta2 * v + (1 - beta2) * g * g
            q = q - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
            assert rel(p, q) < self.BOUND
            # the moments are kept unscaled, m / (1 - b1) and v / (1 - b2)
            assert rel(opt.first_moment * (1 - b1), m) < self.BOUND
            assert rel(opt.second_moment * (1 - beta2), v) < self.BOUND

    def test_zero_gradients_change_nothing(self):
        p = np.array([1.0, -2.0, 0.0, -0.0, 1e-300])
        kept = p.copy()
        opt = Adam(p, lr=5e-4, beta2=0.9)
        for _ in range(400):
            opt.step(p, np.array([0.0, -0.0, 0.0, -0.0, 0.0]))
        assert p.tobytes() == kept.tobytes()
        assert opt.first_moment.tobytes() == np.zeros(5).tobytes()
        assert opt.second_moment.tobytes() == np.zeros(5).tobytes()
