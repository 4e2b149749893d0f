"""Minimal differentiable models exercising the optimizers.

A :class:`LoraLinear` is a frozen base weight plus a rank-r adapter;
its forward/backward passes capture the batch input X and the output
gradient S so optimizers can form the full gradient S^T X as a thin
pair.  The linear factorization task and a small synthetic MLP task
drive the benchmark.  Each draws its batch with :func:`sample_batch`,
and its pass (:func:`linear_task_grad`, :func:`mlp_forward_backward`)
leaves fresh captures on every layer; all of it is manual, no autodiff.

An array is checked where it enters the pass: ``forward`` checks its
input X, ``backward`` its output gradient S, :func:`linear_task_grad`
its S, and :func:`mlp_forward_backward` every layer's output, so
``oplora_step`` takes the captures as they are (``matcore``'s
validation contract lists every check on the step).  The adapter's
factors were checked when its ``FactorPair`` was built and ``w0`` when
its layer was, so the layer products call ``matcore``'s unchecked
``_product``, which charges what ``matmul`` charges.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError, StaleCaptureError
from .lowrank import FactorPair, truncated_svd
from .matcore import _product, as_matrix, matmul, thin_qr


@dataclass
class LoraLinear:
    """Base weight + adapter, with X/S capture hooks.

    ``w0`` may be None for adapter-only objectives (the linear
    factorization task).  Only the full baseline trains it, in place,
    under an empty (rank-0) adapter, which adds exact zeros and charges
    no flops; a NaN or inf it reaches shows in the layer's output.
    """

    w0: Optional[np.ndarray]
    adapter: FactorPair
    captured_x: Optional[np.ndarray] = None
    captured_s: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.w0 is not None:
            self.w0 = as_matrix(self.w0, "w0")
            if self.w0.shape != (self.adapter.d_out, self.adapter.d_in):
                raise ShapeError(
                    f"base weight {self.w0.shape} does not match adapter "
                    f"({self.adapter.d_out}, {self.adapter.d_in})")

    def forward(self, x) -> np.ndarray:
        """``x @ (w0 + u v^T)^T`` with the adapter applied thin."""
        x = as_matrix(x, "x")
        u, v = self.adapter.u, self.adapter.v
        if x.shape[1] != v.shape[0]:
            raise ShapeError(
                f"inner dimensions disagree: {x.shape} x {v.shape}")
        out = _product(_product(x, v), u.T)
        if self.w0 is not None:
            out += _product(x, self.w0.T)
        self.captured_x = x
        return out

    def backward(self, s) -> np.ndarray:
        """Capture the output gradient and return the input gradient."""
        s = as_matrix(s, "s")
        if self.captured_x is None:
            raise StaleCaptureError("backward without a matching forward")
        if s.shape != (self.captured_x.shape[0], self.adapter.d_out):
            raise ShapeError(
                f"output gradient shape {s.shape} does not match "
                f"({self.captured_x.shape[0]}, {self.adapter.d_out})")
        self.captured_s = s
        grad = _product(_product(s, self.adapter.u), self.adapter.v.T)
        if self.w0 is not None:
            grad += _product(s, self.w0)
        return grad

    def clear_captures(self) -> None:
        self.captured_x = None
        self.captured_s = None


def _fresh(layer):
    if layer.captured_x is None or layer.captured_s is None:
        raise StaleCaptureError("layer has no fresh forward/backward captures")
    return layer.captured_x, layer.captured_s


def captures(layer):
    """The layer's ``(X, S)``, an index X as its one-hot; raises if stale."""
    x, s = _fresh(layer)
    if x.ndim == 1:
        x = (x[:, None] == np.arange(layer.adapter.d_in)).astype(np.float64)
    return x, s


def add_weight_grad(layer, out, decay=1.0) -> None:
    """``out <- decay * out + S^T X`` in place; an index X scatters S.

    The captures are checked before ``out`` is touched, so a rejected
    S leaves it as it was.
    """
    x, s = _fresh(layer)
    if x.ndim == 2:
        grad = matmul(s.T, x)
        out *= decay
        out += grad
    else:
        s = as_matrix(s, "s")
        out *= decay
        for j, col in zip(x, s):  # a repeat adds, as in the loss
            out[:, j] += col


def factor_grads(layer: LoraLinear):
    """Factor gradients G_u = S^T (X v), G_v = X^T (S u) from captures."""
    x, s = captures(layer)
    g_u = matmul(s.T, matmul(x, layer.adapter.v))
    g_v = matmul(x.T, matmul(s, layer.adapter.u))
    return g_u, g_v


def seeded_stream(*keys) -> np.random.Generator:
    """An independent PCG64 stream for each sequence of integer keys."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(list(keys))))


# ---------------------------------------------------------------------------
# Linear factorization task: min over (U, V) of 0.5 ||U V^T - W||_F^2,
# with optional column minibatching.

@dataclass
class LinearTask:
    target: np.ndarray

    def __post_init__(self):
        self.target = as_matrix(self.target, "target")

    @property
    def d_in(self) -> int:
        return self.target.shape[1]


def make_linear_target(d_out, d_in, rng, singular_values=None) -> np.ndarray:
    """Gaussian target, or one with a prescribed singular spectrum."""
    if singular_values is None:
        return rng.standard_normal((d_out, d_in))
    sv = np.asarray(singular_values, dtype=np.float64)
    if sv.ndim != 1 or sv.size > min(d_out, d_in):
        raise ShapeError("invalid singular value list")
    if np.any(sv < 0) or np.any(np.diff(sv) > 0):
        raise ShapeError("singular values must be nonincreasing and >= 0")
    qa, _ = thin_qr(rng.standard_normal((d_out, sv.size)))
    qb, _ = thin_qr(rng.standard_normal((d_in, sv.size)))
    return matmul(qa * sv, qb.T)


def sample_batch(n, size, rng) -> np.ndarray:
    """One step's batch out of ``n`` columns or rows: all of them in
    order when ``size`` is None or ``n``, else a fresh subset of ``size``
    drawn without replacement."""
    if size is None or size == n:
        return np.arange(n)
    if not 1 <= size <= n:
        raise ShapeError(f"batch size {size} invalid for {n} items")
    return rng.choice(n, size=size, replace=False)


def _sampled(task: LinearTask, indices):
    """Checked column indices and the unbiased rescaling ``d_in / B``."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("indices must be a nonempty flat sequence")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"indices must be integers, not {idx.dtype}")
    if idx.min() < 0 or idx.max() >= task.d_in:
        raise ShapeError(f"column index out of range [0, {task.d_in})")
    return idx, task.d_in / idx.size


def linear_task_grad(task: LinearTask, layer: LoraLinear, indices) -> float:
    """The linear task's pass, as :func:`mlp_forward_backward` is the
    MLP's: leaves the column indices idx (X is their B x d_in one-hot)
    and S = ((d_in / B) (w0 + U V^T - W)[:, idx])^T as captures, so
    S^T X is the unbiased sampled loss's gradient.  Returns that loss.
    S is checked, as ``backward`` checks it, so a diverging iterate is
    rejected here as a non-finite ``s``, and no capture is set.
    """
    idx, scale = _sampled(task, indices)
    pred = _product(layer.adapter.u, layer.adapter.v[idx, :].T)
    if layer.w0 is not None:
        pred = pred + layer.w0[:, idx]
    diff = pred - task.target[:, idx]
    layer.captured_x, layer.captured_s = idx, as_matrix((scale * diff).T, "s")
    return 0.5 * scale * float(np.sum(diff * diff))


def linear_task_grad_dense(task: LinearTask, w, indices):
    """``(gradient, loss)`` of the pass at the dense iterate ``w``."""
    w = as_matrix(w, "w")
    if w.shape != task.target.shape:
        raise ShapeError(f"iterate shape {w.shape} != target shape "
                         f"{task.target.shape}")
    layer = LoraLinear(w, FactorPair(w[:, :0], w.T[:, :0]))
    loss = linear_task_grad(task, layer, indices)
    grad = np.zeros(w.shape)
    add_weight_grad(layer, grad)
    return grad, loss


# ---------------------------------------------------------------------------
# Adapter initializations.

def init_adapter_random(d_out, d_in, r, rng) -> FactorPair:
    """Rank-r pair from the truncated SVD of a random matrix scaled to
    unit spectral norm."""
    pair = truncated_svd(rng.standard_normal((d_out, d_in)), r)
    # balanced factors: the first column of u has squared norm sigma_1
    scale = 1.0 / math.sqrt(float(pair.u[:, 0] @ pair.u[:, 0]))
    return FactorPair(pair.u * scale, pair.v * scale)


def init_adapter_svd(target, r) -> FactorPair:
    """Rank-r truncated SVD of the task target."""
    return truncated_svd(target, r)


def init_adapter_lora(d_out, d_in, r, rng) -> FactorPair:
    """Random left factor, zero right factor: zero product at start."""
    return FactorPair(rng.standard_normal((d_out, r)) / math.sqrt(r),
                      np.zeros((d_in, r)))


# ---------------------------------------------------------------------------
# Synthetic MLP task: Gaussian inputs, planted teacher labels.

NONLINEARITIES = ("relu", "tanh")
LOSSES = ("mse", "cross_entropy")


@dataclass
class MlpTask:
    dims: list
    nonlinearity: str = "relu"
    loss: str = "mse"
    n_samples: int = 256

    def __post_init__(self):
        if len(self.dims) < 2 or any(d < 1 for d in self.dims):
            raise ShapeError("dims must list at least two positive sizes")
        if self.nonlinearity not in NONLINEARITIES:
            raise ShapeError(f"unknown nonlinearity {self.nonlinearity!r}")
        if self.loss not in LOSSES:
            raise ShapeError(f"unknown loss {self.loss!r}")


def _act(task, z):
    return np.maximum(z, 0.0) if task.nonlinearity == "relu" else np.tanh(z)


def _act_grad(task, z):
    if task.nonlinearity == "relu":
        return (z > 0.0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def _teacher_weights(task, rng):
    return [rng.standard_normal((do, di)) / math.sqrt(di)
            for di, do in zip(task.dims[:-1], task.dims[1:])]


def _dense_forward(task, weights, x):
    h = x
    for w in weights[:-1]:
        h = _act(task, matmul(h, w.T))
    return matmul(h, weights[-1].T)


def make_mlp_dataset(task: MlpTask, rng):
    """Gaussian inputs with teacher outputs (mse) or teacher argmax
    labels (cross_entropy)."""
    x = rng.standard_normal((task.n_samples, task.dims[0]))
    logits = _dense_forward(task, _teacher_weights(task, rng), x)
    if task.loss == "mse":
        return x, logits
    return x, np.argmax(logits, axis=1)


def make_mlp_layers(task: MlpTask, rank, rng):
    """Frozen random base weights with standard zero-product adapters."""
    layers = []
    for d_in, d_out in zip(task.dims[:-1], task.dims[1:]):
        w0 = rng.standard_normal((d_out, d_in)) / math.sqrt(d_in)
        layers.append(LoraLinear(w0, init_adapter_lora(d_out, d_in, rank, rng)))
    return layers


def _loss_and_logit_grad(task, logits, y):
    b = logits.shape[0]
    if task.loss == "mse":
        diff = logits - y
        return 0.5 * float(np.sum(diff * diff)) / b, diff / b
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    total = expz.sum(axis=1, keepdims=True)
    probs = expz / total
    rows = np.arange(b)
    # log-sum-exp: the probability of the label may underflow to 0
    loss = float(-np.mean(shifted[rows, y] - np.log(total[:, 0])))
    probs[rows, y] -= 1.0
    return loss, probs / b


def mlp_forward_backward(task: MlpTask, layers, x, y) -> float:
    """Full forward then reverse sweep; every layer ends up with fresh
    X and S captures.  Returns the batch loss.  Each ``forward`` checks
    its input and each ``backward`` its output gradient; each layer's
    output, a hidden pre-activation or the logits, is checked before an
    activation (which could turn a -inf into a finite value) or the loss
    sees it."""
    h = x
    pre = []
    for layer in layers[:-1]:
        z = as_matrix(layer.forward(h), "pre-activation")
        pre.append(z)
        h = _act(task, z)
    logits = as_matrix(layers[-1].forward(h), "logits")
    loss, s = _loss_and_logit_grad(task, logits, y)
    for i in reversed(range(len(layers))):
        g_in = layers[i].backward(s)
        if i > 0:
            s = g_in * _act_grad(task, pre[i - 1])
    return loss
