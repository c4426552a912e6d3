"""Minimal differentiable numeric core.

Feed-forward stacks of (w, b) affine layers, leaky-ReLU, softmax /
weighted cross-entropy, inverted dropout, reverse-mode gradients for the
stacks, and Adam.
Everything is float64 and driven by an explicit seeded generator so a
fixed seed gives bit-identical parameter trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS_STD = 1e-8


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; same seed -> same stream on every platform."""
    return np.random.Generator(np.random.PCG64(seed))


class NonFiniteError(ValueError):
    """NaN or infinite logits, loss or parameters, as a diverging run makes."""


def softmax(logits):
    logits = np.asarray(logits, dtype=float)
    if not np.isfinite(logits).all():
        raise NonFiniteError("softmax: non-finite logits")
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax(logits):
    """Row-wise log-softmax of a float array, the terms softmax_ce_grad
    takes its losses from. It does not check its input."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def check_ce_inputs(logits, target, class_weights):
    """(logits [B, m], target [B], class_weights [m]) as float, integer and
    float arrays; a NonFiniteError unless the logits are finite."""
    logits = np.asarray(logits, dtype=float)
    if not np.isfinite(logits).all():
        raise NonFiniteError("non-finite logits")
    return logits, np.asarray(target), np.asarray(class_weights, dtype=float)


def weighted_cross_entropy(logits, target, class_weights):
    """-w[target] * log p[target], computed in log-space: the [B] losses of
    logit rows [B, m] and integer targets [B], checked by check_ce_inputs."""
    return softmax_ce_grad(*check_ce_inputs(logits, target, class_weights))[0]


def softmax_ce_grad(logits, target, class_weights):
    """(the [B] weighted cross-entropy losses, the gradient of their mean
    w.r.t. the logits [B, m]) from one shift, one exp and one row sum, of
    the arrays check_ce_inputs returns."""
    rows, w = np.arange(target.size), class_weights[target]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    g = np.exp(shifted)
    total = g.sum(axis=-1, keepdims=True)
    losses = -w * (shifted - np.log(total))[rows, target]
    g /= total
    g[rows, target] -= 1.0
    g *= (w / target.size)[:, None]
    return losses, g


def dropout_mask(shape, p: float, rng: np.random.Generator):
    """Inverted-dropout mask: zeros with probability p in [0, 1), survivors 1/(1-p)."""
    u = rng.random(shape)
    np.greater_equal(u, p, out=u)  # 1.0 or 0.0, in the uniforms' own buffer
    u /= 1.0 - p
    return u


@dataclass
class Stack:
    """Feed-forward stack: affine -> leaky -> dropout repeated, last layer
    optionally activated and never followed by dropout. Each layer is a
    (w [out, in], b [out]) pair computing x @ w.T + b."""

    layers: list
    slope: float = 0.01
    dropout_p: float = 0.05
    final_activation: bool = False

    @classmethod
    def init(cls, dims, rng, **options):
        """Glorot-uniform weights in +-sqrt(6/(in+out)), drawn layer by
        layer, and zero biases; `options` are Stack's other fields."""
        layers = []
        for in_dim, out_dim in zip(dims[:-1], dims[1:]):
            lim = np.sqrt(6.0 / (in_dim + out_dim))
            layers.append((rng.uniform(-lim, lim, size=(out_dim, in_dim)), np.zeros(out_dim)))
        return cls(layers, **options)

    def param_arrays(self):
        return [p for layer in self.layers for p in layer]

    def forward(self, x, rng: np.random.Generator | None = None):
        """x: [batch, in_dim]. No rng: inference, (output, None). An rng:
        training, a dropout mask after every layer but the last, and
        (output, cache), the per-layer (x_in, up, mask) that backward() reads,
        up the bool a >= 0 at the pre-activation (None if not activated)."""
        x = np.asarray(x, dtype=float)
        cache = None if rng is None else []
        for i, (w, b) in enumerate(self.layers):
            last = i == len(self.layers) - 1
            a = x @ w.T
            a += b
            up = mask = None
            if not last or self.final_activation:
                if cache is not None:
                    up = a >= 0.0
                # leaky ReLU for the slopes in [0, 1] configs accept (0 maps +inf to NaN)
                np.maximum(a, a * self.slope, out=a)
            if cache is not None:
                if not last and self.dropout_p > 0.0:
                    mask = dropout_mask(a.shape, self.dropout_p, rng)
                    a *= mask
                cache.append((x, up, mask))
            x = a
        return x, cache

    def backward(self, cache, d_out, grads, input_grad=True):
        """Reverse pass of a scalar loss given a training forward's cache and
        d_loss/d_output. Writes the parameter gradients into `grads`, arrays
        aligned with param_arrays(), and returns d_loss/d_input; with
        input_grad=False (a stack that reads the data) it returns None."""
        d, owned = np.asarray(d_out, dtype=float), False  # owned: d is not d_out
        for i in range(len(self.layers) - 1, -1, -1):
            x_in, up, mask = cache[i]
            slopes = None
            if up is not None:
                # 1 where a >= 0, else the leak (NaN too); faster here than np.where
                slopes = np.multiply(~up, self.slope)
                slopes += up
            for factor in (mask, slopes):
                if factor is not None:
                    d = np.multiply(d, factor, out=d if owned else None)
                    owned = True
            np.matmul(d.T, x_in, out=grads[2 * i])
            np.add.reduce(d, axis=0, out=grads[2 * i + 1])
            if i or input_grad:
                d, owned = d @ self.layers[i][0], True
        return d if input_grad else None


def view_arrays(flat, spans):
    """Views of the 1-D array `flat`, one per (start, stop, shape) span."""
    return [flat[start:stop].reshape(shape) for start, stop, shape in spans]


def flatten_params(stacks):
    """Copies the parameters of `stacks` into one float64 vector, in
    param_arrays() order, and rebinds every layer's (w, b) to views of it.
    Returns (the vector, the (start, stop, shape) span of each array in it),
    the spans that make view_arrays cheap."""
    arrays = [p for stack in stacks for p in stack.param_arrays()]
    flat = np.concatenate([p.ravel() for p in arrays])
    stops = np.cumsum([p.size for p in arrays]).tolist()
    spans = [(stop - p.size, stop, p.shape) for p, stop in zip(arrays, stops)]
    views = iter(view_arrays(flat, spans))
    for stack in stacks:
        stack.layers = [(next(views), next(views)) for _ in stack.layers]
    return flat, spans


class Adam:
    """Adam over one parameter array (a model's flat vector), updated in place.
    first_moment and second_moment hold m / (1 - beta1) and v / (1 - beta2),
    so both bias corrections fold into a per-step rate and epsilon (Kingma &
    Ba 2015, section 2); one scratch vector: a step allocates nothing, g stays."""

    def __init__(self, params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.first_moment = np.zeros_like(params)
        self.second_moment = np.zeros_like(params)
        self._scratch = np.empty_like(params)

    def step(self, p, g):
        self.step_count += 1
        t = self.step_count
        # m_hat = (1 - b1) / (1 - b1**t) * m and sqrt(v_hat) = sqrt(u) / k, so
        # lr * m_hat / (sqrt(v_hat) + eps) == lr_t * m / (sqrt(u) + eps * k)
        k = ((1.0 - self.beta2 ** t) / (1.0 - self.beta2)) ** 0.5
        lr_t = self.lr * (1.0 - self.beta1) / (1.0 - self.beta1 ** t) * k
        m, u, s = self.first_moment, self.second_moment, self._scratch
        m *= self.beta1
        m += g
        u *= self.beta2
        u += np.square(g, out=s)
        np.sqrt(u, out=s)
        s += self.eps * k
        np.divide(m, s, out=s)
        s *= lr_t
        p -= s
