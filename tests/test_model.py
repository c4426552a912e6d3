import numpy as np
import pytest

from charm.embed import label_pure_windows
from charm.model import (EMBED_CHUNK, MAGIC, CharmConfig, CharmModel, CheckpointError,
                         MlpConfig, MlpModel, load_checkpoint, save_checkpoint)
from charm.neurocore import Adam, Stack, make_rng, softmax_ce_grad
from charm.preprocess import ChannelStats, window

SMALL = CharmConfig(r=16, q=3, z=4, low_hidden=8, low_out=8, high_hidden=8, m=3)


def small_model(seed=0):
    return CharmModel.init(SMALL, make_rng(seed))


class TestCharmForward:
    def test_full_scale_shapes(self):
        cfg = CharmConfig()  # full-scale defaults
        model = CharmModel.init(cfg, make_rng(0))
        probs, low = model.forward(make_rng(1).normal(size=(2560, 18)))
        assert probs.shape == (4,)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert low.shape == (160, 32)

    def test_zero_params_uniform(self):
        model = small_model()
        for p in model.param_arrays():
            p[...] = 0.0
        probs, _ = model.forward(np.zeros((64, 3)))
        np.testing.assert_allclose(probs, [1 / 3] * 3)

    def test_window_permutation_swaps_feature_rows(self):
        model = small_model(1)
        x = make_rng(2).normal(size=(64, 3))
        _, low = model.forward(x)
        y = x.copy()
        y[0:16], y[32:48] = x[32:48].copy(), x[0:16].copy()
        _, low_swapped = model.forward(y)
        np.testing.assert_array_equal(low_swapped[0], low[2])
        np.testing.assert_array_equal(low_swapped[2], low[0])
        np.testing.assert_array_equal(low_swapped[1], low[1])
        np.testing.assert_array_equal(low_swapped[3], low[3])

    def test_weight_sharing_bit_exact(self):
        model = small_model(3)
        x = make_rng(4).normal(size=(64, 3))
        x[48:64] = x[16:32]  # identical window content at two positions
        _, low = model.forward(x)
        np.testing.assert_array_equal(low[1], low[3])

    def test_inference_deterministic(self):
        model = small_model(5)
        x = make_rng(6).normal(size=(64, 3))
        a, la = model.forward(x)
        b, lb = model.forward(x)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(la, lb)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            small_model().forward(np.zeros((60, 3)))

    def test_param_count_formula(self):
        cfg = CharmConfig()
        model = CharmModel.init(cfg, make_rng(0))
        low = 32 * (16 * 18) + 32 + 32 * 32 + 32
        high = 32 * (160 * 32) + 32 + 4 * 32 + 4
        assert sum(p.size for p in model.param_arrays()) == low + high


def check_finite_differences(model, x, target=1):
    weights = np.array([1.0, 0.8, 1.2])
    _, analytic, _ = model.loss_and_grads(x, target, weights, make_rng(0))
    h = 1e-5
    for p, g in zip(model.param_arrays(), analytic):
        flat = p.ravel()
        idx = np.argmax(np.abs(g))  # spot-check the largest-gradient entry
        orig = flat[idx]
        flat[idx] = orig + h
        hi = model.loss_and_grads(x, target, weights, make_rng(0))[0]
        flat[idx] = orig - h
        lo = model.loss_and_grads(x, target, weights, make_rng(0))[0]
        flat[idx] = orig
        fd = (hi - lo) / (2 * h)
        ga = g.ravel()[idx]
        assert abs(ga - fd) / max(abs(ga), abs(fd), 1e-6) < 1e-4


class TestCharmGradients:
    def test_finite_difference_through_window_boundary(self):
        cfg = CharmConfig(r=16, q=3, z=4, low_hidden=8, low_out=8,
                          high_hidden=8, m=3, dropout_p=0.0)
        check_finite_differences(CharmModel.init(cfg, make_rng(7)),
                                 make_rng(8).normal(size=(64, 3)))

    def test_finite_difference_mlp(self):
        # the MLP shares loss_and_grads with CHARM and has no other gradient check
        cfg = MlpConfig(n_target=64, q=3, m=3, hidden=8, dropout_p=0.0)
        check_finite_differences(MlpModel.init(cfg, make_rng(7)),
                                 make_rng(8).normal(size=(64, 3)))


NO_DROPOUT = {"charm": (CharmModel, CharmConfig(r=16, q=3, z=4, low_hidden=8, low_out=8,
                                                high_hidden=8, m=3, dropout_p=0.0)),
              "mlp": (MlpModel, MlpConfig(n_target=64, q=3, m=3, hidden=8, dropout_p=0.0))}


class TestBatchedLoss:
    """loss_and_grads on a batch [B, n_target, q] is the mean weighted
    cross-entropy of its samples."""

    @pytest.mark.parametrize("kind", ["charm", "mlp"])
    def test_batch_gradient_is_mean_of_sample_gradients(self, kind):
        model_cls, cfg = NO_DROPOUT[kind]
        model = model_cls.init(cfg, make_rng(20))
        weights = np.array([1.4, 0.5, 1.1])
        batch = make_rng(21).normal(size=(5, 64, 3))
        targets = np.array([0, 2, 1, 2, 0])
        loss, grads, grad = model.loss_and_grads(batch, targets, weights, make_rng(0))
        singles = [model.loss_and_grads(x, int(t), weights, make_rng(0))
                   for x, t in zip(batch, targets)]
        assert abs(loss - np.mean([s[0] for s in singles])) < 1e-12
        np.testing.assert_allclose(grad, np.mean([s[2] for s in singles], axis=0),
                                   rtol=0, atol=1e-12)
        assert all(np.shares_memory(g, grad) for g in grads)

    @pytest.mark.parametrize("kind", ["charm", "mlp"])
    def test_gradient_vector_is_laid_out_as_params(self, kind):
        # Adam.step takes the two vectors as alike without a check
        model_cls, cfg = NO_DROPOUT[kind]
        model = model_cls.init(cfg, make_rng(24))
        _, _, grad = model.loss_and_grads(make_rng(25).normal(size=(2, 64, 3)),
                                          np.array([1, 2]), np.ones(3), make_rng(0))
        assert grad.shape == model.params.shape and grad.dtype == model.params.dtype
        assert grad.flags.c_contiguous and not np.shares_memory(grad, model.params)
        before = model.params.copy()
        Adam(model.params, lr=1e-3).step(model.params, grad)
        # Adam's first step: lr * g / (|g| + eps), one element of each vector at a time
        np.testing.assert_allclose(model.params - before, -1e-3 * grad / (np.abs(grad) + 1e-8),
                                   rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("kind", ["charm", "mlp"])
    def test_finite_difference_batch_of_three(self, kind):
        model_cls, cfg = NO_DROPOUT[kind]
        check_finite_differences(model_cls.init(cfg, make_rng(22)),
                                 make_rng(23).normal(size=(3, 64, 3)),
                                 target=np.array([2, 0, 1]))

    def test_non_finite_logits_rejected(self):
        model = small_model()
        model.params[0] = np.nan
        with pytest.raises(ValueError, match="non-finite logits"):
            model.loss_and_grads(np.ones((3, 64, 3)), [0, 1, 2], np.ones(3), make_rng(0))


class ReferenceAdam:
    """Adam one array at a time, with the temporaries of each expression
    allocated anew, in the folded form: unscaled moments m = b1*m + g and
    u = b2*u + g*g, and both bias corrections in a per-step rate lr_t and
    epsilon eps_t, rounded in the flat step's order."""

    def __init__(self, params, lr=5e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.first_moment = [np.zeros_like(p) for p in params]
        self.second_moment = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.t += 1
        k = ((1.0 - self.beta2 ** self.t) / (1.0 - self.beta2)) ** 0.5
        lr_t = self.lr * (1.0 - self.beta1) / (1.0 - self.beta1 ** self.t) * k
        eps_t = self.eps * k
        for p, g, m, u in zip(params, grads, self.first_moment, self.second_moment):
            m[...] = self.beta1 * m + g
            u[...] = self.beta2 * u + g * g
            p -= m / (np.sqrt(u) + eps_t) * lr_t


def reference_backward(stack, cache, d):
    """The reverse pass the in-place one replaced: a new array per gradient,
    each weight gradient a matmul d.T @ x_in. It reads only each layer's
    input and dropout mask from the cache and takes the leaky-ReLU
    derivative at a pre-activation recomputed from the layer."""
    grads = [None] * (2 * len(stack.layers))
    for i in range(len(stack.layers) - 1, -1, -1):
        x_in, _, mask = cache[i]
        if mask is not None:
            d = d * mask
        if i < len(stack.layers) - 1 or stack.final_activation:
            w, b = stack.layers[i]
            d = d * np.where(x_in @ w.T + b >= 0.0, 1.0, stack.slope)
        grads[2 * i] = d.T @ x_in
        grads[2 * i + 1] = d.sum(axis=0)
        d = d @ stack.layers[i][0]
    return grads, d


def reference_grads(stacks, x, target, weights, rng):
    """Gradients of a chain of stacks, each stack's output flattened into one
    row for the next, concatenated as lists in param_arrays() order."""
    caches, out_shapes = [], []
    for stack in stacks:
        x, cache = stack.forward(x, rng)
        caches.append(cache)
        out_shapes.append(x.shape)
        x = x.reshape(1, -1)
    d = softmax_ce_grad(x, np.array([target]), weights)[1]
    grads = []
    for stack, cache, shape in reversed(list(zip(stacks, caches, out_shapes))):
        stack_grads, d = reference_backward(stack, cache, d.reshape(shape))
        grads = stack_grads + grads
    return grads


def separate_copy(stack):
    """The stack with its own parameter arrays, as before flat vectors."""
    return Stack([(w.copy(), b.copy()) for w, b in stack.layers],
                 slope=stack.slope, dropout_p=stack.dropout_p,
                 final_activation=stack.final_activation)


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def flat_bytes(arrays):
    return flat(arrays).tobytes()


PARITY_CHARM = CharmConfig(r=4, q=3, z=5, low_hidden=6, low_out=5, high_hidden=7, m=3,
                           dropout_p=0.3)
PARITY_MLP = MlpConfig(n_target=20, q=3, m=3, hidden=6, dropout_p=0.3)


class TestStepParity:
    """The training step on the flat vector against the step it replaced:
    separate arrays, new gradient arrays per call and a per-array Adam
    with the same arithmetic."""

    @pytest.mark.parametrize("kind", ["charm", "mlp"])
    def test_50_steps_byte_identical(self, kind):
        weights = np.array([1.3, 0.6, 1.1])
        if kind == "charm":
            model = CharmModel.init(PARITY_CHARM, make_rng(3))
            stacks = [separate_copy(model.low), separate_copy(model.high)]

            def first_input(sample):
                return window(sample, PARITY_CHARM.r).reshape(PARITY_CHARM.z, -1)
        else:
            model = MlpModel.init(PARITY_MLP, make_rng(3))
            stacks = [separate_copy(model.stack)]

            def first_input(sample):
                return sample.reshape(1, -1)
        ref_params = [p for stack in stacks for p in stack.param_arrays()]
        ref_opt = ReferenceAdam(ref_params)
        opt = Adam(model.params, lr=5e-4)
        data, ref_rng, rng = make_rng(4), make_rng(5), make_rng(5)
        for _ in range(50):
            sample = data.normal(size=(20, 3))
            target = int(data.integers(3))
            ref_opt.step(ref_params,
                         reference_grads(stacks, first_input(sample), target, weights, ref_rng))
            _, _, grad = model.loss_and_grads(sample, target, weights, rng)
            opt.step(model.params, grad)
        assert model.params.tobytes() == flat_bytes(ref_params)
        assert opt.first_moment.tobytes() == flat_bytes(ref_opt.first_moment)
        assert opt.second_moment.tobytes() == flat_bytes(ref_opt.second_moment)

    def test_one_row_zeros_and_negative_inputs(self):
        # dropped and leaky units give exact zeros in d, times negative
        # inputs; an outer product d.T * x_in would make some of those zeros
        # -0.0 where gemm gives +0.0, and Adam maps both signs to the same
        # moments and update
        stack = Stack.init([6, 5, 4, 3], make_rng(6), dropout_p=0.5)
        x = -np.abs(make_rng(7).normal(size=(1, 6)))
        x[0, 2] = 0.0
        out, cache = stack.forward(x, make_rng(8))
        d = softmax_ce_grad(out, np.array([1]), np.ones(3))[1]
        assert any((c[2] == 0).any() for c in cache[:-1])
        expected, expected_d_in = reference_backward(stack, cache, d)
        grads = [np.empty_like(p) for p in stack.param_arrays()]
        d_in = stack.backward(cache, d, grads)
        assert d_in.tobytes() == expected_d_in.tobytes()
        for g, e in zip(grads, expected):
            np.testing.assert_array_equal(g, e)
        assert (grads[0] == 0).any() and (grads[2] == 0).any()
        negative_zeros = [np.where(g == 0, -0.0, g) for g in grads]
        assert flat_bytes(negative_zeros) != flat_bytes(grads)
        params = flat(stack.param_arrays())
        ref_params = [p.copy() for p in stack.param_arrays()]
        ref_opt, opt = ReferenceAdam(ref_params), Adam(params, lr=5e-4)
        for _ in range(3):
            ref_opt.step(ref_params, negative_zeros)
            opt.step(params, flat(grads))
        assert params.tobytes() == flat_bytes(ref_params)
        assert opt.first_moment.tobytes() == flat_bytes(ref_opt.first_moment)
        assert opt.second_moment.tobytes() == flat_bytes(ref_opt.second_moment)

    @pytest.mark.parametrize("beta2", [0.999, 0.9])
    def test_400_adam_steps_byte_identical(self, beta2):
        # past step 356, where 1 - 0.9**t has rounded to 1.0, and over
        # gradient scales 1e-8 to 1e2
        rng = make_rng(11)
        ref_params = [rng.normal(size=(7, 5)), rng.normal(size=13)]
        params = flat(ref_params)
        opt = Adam(params, lr=2e-3, beta2=beta2)
        ref_opt = ReferenceAdam(ref_params, lr=2e-3, beta2=beta2)
        for t in range(400):
            scale = 10.0 ** rng.uniform(-8, 2)
            grads = [rng.normal(size=p.shape) * scale for p in ref_params]
            opt.step(params, flat(grads))
            ref_opt.step(ref_params, grads)
        assert opt.step_count == 400
        assert params.tobytes() == flat_bytes(ref_params)
        assert opt.first_moment.tobytes() == flat_bytes(ref_opt.first_moment)
        assert opt.second_moment.tobytes() == flat_bytes(ref_opt.second_moment)

    @pytest.mark.parametrize("model_cls, cfg", [(CharmModel, PARITY_CHARM),
                                                (MlpModel, PARITY_MLP)], ids=["charm", "mlp"])
    def test_param_arrays_view_the_flat_vector(self, model_cls, cfg):
        model = model_cls.init(cfg, make_rng(0))
        arrays = model.param_arrays()
        assert all(np.shares_memory(p, model.params) for p in arrays)
        assert flat_bytes(arrays) == model.params.tobytes()
        model.params[...] = 0.5
        assert all((p == 0.5).all() for p in arrays)

    def test_returned_gradients_survive_next_call(self):
        model = CharmModel.init(PARITY_CHARM, make_rng(1))
        weights = np.ones(3)
        _, grads, grad = model.loss_and_grads(make_rng(2).normal(size=(20, 3)), 0,
                                              weights, make_rng(3))
        kept = grad.copy()
        assert all(np.shares_memory(g, grad) for g in grads)
        _, _, second = model.loss_and_grads(make_rng(4).normal(size=(20, 3)), 2,
                                             weights, make_rng(5))
        assert grad.tobytes() == kept.tobytes()
        assert not np.array_equal(second, kept)


class TestMlp:
    def test_zero_params_uniform(self):
        cfg = MlpConfig(n_target=64, q=3, m=4)
        model = MlpModel.init(cfg, make_rng(0))
        for p in model.param_arrays():
            p[...] = 0.0
        probs, _ = model.forward(np.zeros((64, 3)))
        np.testing.assert_allclose(probs, [0.25] * 4)

    def test_probs_sum_to_one(self):
        model = MlpModel.init(MlpConfig(n_target=64, q=3, m=4), make_rng(1))
        for seed in range(5):
            probs, _ = model.forward(make_rng(seed).normal(size=(64, 3)))
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_param_count_formula(self):
        # full-scale baseline: 46080 -> 16 -> 16 -> 16 -> 4
        model = MlpModel.init(MlpConfig(n_target=2560, q=18, m=4), make_rng(0))
        expected = (46080 * 16 + 16) + 2 * (16 * 16 + 16) + (16 * 4 + 4)
        assert sum(p.size for p in model.param_arrays()) == expected

    def test_shape_mismatch(self):
        model = MlpModel.init(MlpConfig(n_target=64, q=3, m=4), make_rng(0))
        with pytest.raises(ValueError):
            model.forward(np.zeros((60, 3)))


class TestEmbeddings:
    def test_consistent_with_forward(self):
        model = small_model(9)
        x = make_rng(10).normal(size=(64, 3))
        _, low = model.forward(x)
        emb = model.embed_windows(x[:16][None, :, :])
        # batched vs single-row BLAS may differ in the last ulp
        np.testing.assert_allclose(emb[0], low[0], rtol=1e-12, atol=1e-15)

    def test_duplicate_windows_identical(self):
        model = small_model(11)
        w = make_rng(12).normal(size=(16, 3))
        emb = model.embed_windows(np.stack([w, w]))
        np.testing.assert_array_equal(emb[0], emb[1])

    def test_output_dimension(self):
        model = small_model()
        assert model.embed_windows(np.zeros((7, 16, 3))).shape == (7, 8)

    def test_bad_window_shape(self):
        with pytest.raises(ValueError):
            small_model().embed_windows(np.zeros((2, 8, 3)))

    def test_zero_windows(self):
        # a segment shorter than r has no label-pure window
        windows, labels = label_pure_windows(np.zeros((5, 3)), ["walk"] * 5, 16)
        assert windows.shape == (0, 16, 3) and labels == []
        emb = small_model().embed_windows(windows)
        assert emb.shape == (0, 8) and emb.dtype == np.float64

    @pytest.mark.parametrize("k", [1, 2, EMBED_CHUNK - 1, EMBED_CHUNK, EMBED_CHUNK + 1,
                                   2 * EMBED_CHUNK + 1, 13_687])
    def test_parts_match_one_forward_bytes(self, k):
        # the CLI's shapes; fixed EMBED_CHUNK-row chunks would leave a 1-row
        # tail at EMBED_CHUNK + 1, which BLAS rounds differently
        cfg = CharmConfig(q=6, z=32)
        model = CharmModel.init(cfg, make_rng(21))
        windows = make_rng(22).normal(size=(k, cfg.r, cfg.q))
        one, _ = model.low.forward(windows.reshape(k, -1))
        assert model.embed_windows(windows).tobytes() == one.tobytes()

    @pytest.mark.parametrize("k", [0, 1, EMBED_CHUNK, EMBED_CHUNK + 1])
    def test_same_bytes_as_concatenated_parts(self, k):
        # each part's forward is written into one [k, low_out] array
        model = small_model(23)
        windows = make_rng(24).normal(size=(k, SMALL.r, SMALL.q))
        flat = windows.reshape(k, SMALL.r * SMALL.q)
        parts = np.array_split(flat, max(1, -(-k // EMBED_CHUNK)))
        expected = np.concatenate([model.low.forward(p)[0] for p in parts])
        emb = model.embed_windows(windows)
        assert emb.shape == expected.shape == (k, SMALL.low_out)
        assert emb.tobytes() == expected.tobytes()


def stats_for(q):
    return ChannelStats(np.arange(float(q)), np.ones(q))


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        model = small_model(13)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, stats_for(3), path)
        loaded, stats = load_checkpoint(path)
        for a, b in zip(model.param_arrays(), loaded.param_arrays()):
            np.testing.assert_array_equal(a, b)
        assert loaded.cfg == model.cfg
        np.testing.assert_array_equal(stats.means, np.arange(3.0))

    def test_save_load_save_byte_identical(self, tmp_path):
        model = small_model(14)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, stats_for(3), p1)
        loaded, stats = load_checkpoint(p1)
        save_checkpoint(loaded, stats, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mlp_round_trip(self, tmp_path):
        model = MlpModel.init(MlpConfig(n_target=64, q=3, m=4), make_rng(15))
        path = tmp_path / "mlp.ckpt"
        save_checkpoint(model, stats_for(3), path)
        loaded, _ = load_checkpoint(path)
        for a, b in zip(model.param_arrays(), loaded.param_arrays()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("model_cls, cfg", [
        (CharmModel, PARITY_CHARM), (CharmModel, SMALL),
        (MlpModel, PARITY_MLP), (MlpModel, MlpConfig(n_target=8, q=3, m=4, hidden=5, layers=2)),
        (MlpModel, MlpConfig(n_target=8, q=3, m=2, hidden=3, layers=7))],
        ids=["charm-parity", "charm-small", "mlp-parity", "mlp-2-layers", "mlp-7-layers"])
    def test_config_counts_the_params_it_builds(self, model_cls, cfg):
        # load_checkpoint sizes the payload from these counts before building
        model = model_cls.init(cfg, make_rng(0))
        assert cfg.n_params == model.params.size
        assert 2 * cfg.n_layers == len(model.param_arrays())

    def test_truncated_file(self, tmp_path):
        model = small_model(16)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, stats_for(3), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        with pytest.raises(CheckpointError, match="truncated|corrupt"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"hello world")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_header_shape_mismatch(self, tmp_path):
        model = small_model(17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, stats_for(3), path)
        blob = path.read_bytes()
        tampered = blob.replace(b'[8, 48]', b'[9, 48]', 1)
        assert tampered != blob
        path.write_bytes(tampered)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [b"[1]", b"3", b'"charm"'])
    def test_header_not_an_object(self, tmp_path, header):
        path = tmp_path / "model.ckpt"
        path.write_bytes(MAGIC + header + b"\n")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    def test_non_string_kind(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_model(18), stats_for(3), path)
        blob = path.read_bytes()
        tampered = blob.replace(b'"kind": "charm"', b'"kind": ["charm"]', 1)
        assert tampered != blob
        path.write_bytes(tampered)
        with pytest.raises(CheckpointError, match="kind"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")
