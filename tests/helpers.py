"""Test-only helpers: counter resets, dense references, reference losses,
a layer's dense weight gradient, the linear task's dense-gradient
reference, a layer whose captures
carry a given gradient, pair copies, rank padding,
naive momentum, state sizes, the allocation-growth audit, the full-SVD
reference of ``truncated_svd``, recorders of what ``lowrank`` and
``lorsum`` compute inside a call, and the resampling reference of
``bootstrap_median_ci``."""

import importlib
import tracemalloc
from contextlib import contextmanager

import numpy as np

from oplora import instrument, lowrank
from oplora.bench.aggregate import BOOTSTRAP_SEED, N_RESAMPLES
from oplora.errors import ShapeError
from oplora.lowrank import FactorPair
from oplora.matcore import as_matrix, gram, solve_spd, svd_dense
from oplora.nets import (LinearTask, LoraLinear, MlpTask, _act,
                         _loss_and_logit_grad, _sampled, add_weight_grad,
                         factor_grads, linear_task_grad)
from oplora.optim import ProjMomentumState


def reset_counters() -> None:
    """Zero the process-global flop and allocation counters."""
    c = instrument.counters()
    c.flops = 0
    c.peak_alloc = 0


def materialize(s) -> np.ndarray:
    """Dense product of a factor pair, or dense sum of a list of
    ``(c, left, right)`` terms."""
    if isinstance(s, FactorPair):
        s = [(1.0, s.u, s.v)]
    out = np.zeros((s[0][1].shape[0], s[0][2].shape[0]))
    for c, left, right in s:
        out += c * (left @ right.T)
    return out


def copy_pair(p: FactorPair) -> FactorPair:
    """A pair whose factors are copies of ``p``'s."""
    return FactorPair(p.u.copy(), p.v.copy())


def pair_scalar_count(p: FactorPair) -> int:
    return p.u.size + p.v.size


def state_scalar_count(state) -> int:
    """Persistent size of an ``OploraState`` in scalars (for memory audits)."""
    total = 0 if state.momentum is None else pair_scalar_count(state.momentum)
    metrics = (state.metric_u, state.metric_v)
    return total + sum(m.factor.size for m in metrics if m is not None)


# Layer sides of the allocation audit, and the largest log-log slope of
# peak bytes against side that still counts as linear.  A thin step
# measures ~0.99; one extra d_out x d_in product lifts it to ~1.3.
AUDIT_SIDES = (120, 240, 480, 960)
MAX_ALLOC_SLOPE = 1.15


def traced_peak_bytes(call) -> int:
    """Peak bytes ``call()`` allocates above those live before it.

    Needs ``tracemalloc`` to be tracing already.
    """
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    call()
    return tracemalloc.get_traced_memory()[1] - before


def assert_alloc_linear_in_side(calls_at):
    """Assert that measured peak allocation grows linearly in the layer side.

    ``calls_at(d)`` yields the zero-argument calls to measure on a layer
    of side ``d`` (work done between yields is not measured).  Each
    side's peak is the largest over its calls.  A dense
    ``d_out x d_in`` product on the measured path grows with the square
    of the side, which shows as a log-log slope well above one; the
    thin blocks of a low-rank step grow with the side.
    """
    peaks = []
    tracemalloc.start()
    try:
        for d in AUDIT_SIDES:
            peaks.append(max(traced_peak_bytes(call) for call in calls_at(d)))
    finally:
        tracemalloc.stop()
    slope = np.polyfit(np.log(AUDIT_SIDES), np.log(peaks), 1)[0]
    assert slope <= MAX_ALLOC_SLOPE, (
        f"peak bytes {peaks} at sides {AUDIT_SIDES} grow with slope "
        f"{slope:.3f} > {MAX_ALLOC_SLOPE}: a step allocates a dense block")


def pad_rank(p: FactorPair, r: int, rng: np.random.Generator) -> FactorPair:
    """Widen a pair to rank ``r`` without changing its product.

    New left columns are random (so the extra rank is reachable by
    alternating updates), new right columns are zero.
    """
    extra = r - p.rank
    if extra < 0:
        raise ShapeError(f"cannot pad rank {p.rank} down to {r}")
    if extra == 0:
        return copy_pair(p)
    scale = float(np.linalg.norm(p.u) / np.sqrt(p.u.size)) or 1.0
    u_pad = scale * rng.standard_normal((p.d_out, extra))
    v_pad = np.zeros((p.d_in, extra))
    return FactorPair(np.hstack([p.u, u_pad]), np.hstack([p.v, v_pad]))


def gradient_layer(pair: FactorPair, grad) -> LoraLinear:
    """An adapter-only layer on ``pair`` whose captures are X = I and
    S = grad^T, so that S^T X is ``grad`` exactly: a dense gradient fed
    to a step that reads the captures."""
    layer = LoraLinear(None, pair)
    layer.captured_x = np.eye(pair.d_in)
    layer.captured_s = as_matrix(grad, "grad").T
    return layer


def weight_grad(layer) -> np.ndarray:
    """The layer's full weight gradient S^T X, dense, in a fresh array."""
    grad = np.zeros((layer.adapter.d_out, layer.adapter.d_in))
    add_weight_grad(layer, grad)
    return grad


def linear_task_loss(task: LinearTask, adapter: FactorPair,
                     indices=None) -> float:
    if indices is None:
        indices = np.arange(task.d_in)
    return linear_task_grad(task, LoraLinear(None, adapter), indices)


def linear_task_grad_dense_reference(task: LinearTask, w, indices):
    """The linear task's gradient and loss at the dense iterate ``w``, by
    its own residual and scatter loop: the reference for ``weight_grad``
    after ``linear_task_grad``."""
    w = as_matrix(w, "w")
    if w.shape != task.target.shape:
        raise ShapeError(f"iterate shape {w.shape} != target shape "
                         f"{task.target.shape}")
    idx, scale = _sampled(task, indices)
    diff = w[:, idx] - task.target[:, idx]
    grad = np.zeros_like(w)
    for j, col in zip(idx, (scale * diff).T):  # a repeat adds, as in the loss
        grad[:, j] += col
    loss = 0.5 * scale * float(np.sum(diff * diff))
    return grad, loss


def mlp_loss(task: MlpTask, layers, x, y) -> float:
    """Forward-only batch loss of the MLP task."""
    logits = x
    for layer in layers[:-1]:
        logits = _act(task, layer.forward(logits))
    logits = layers[-1].forward(logits)
    return _loss_and_logit_grad(task, logits, y)[0]


def momentum_update_naive(state: ProjMomentumState, layer,
                          alpha: float, lam: float = 0.0):
    """Accumulate preconditioned factor gradients without re-projection:

        M_u <- G_u (V^T V + lam I)^-1 + alpha M_u   (and the V analog).
    """
    g_u, g_v = factor_grads(layer)
    u, v = layer.adapter.u, layer.adapter.v
    eye = np.eye(layer.adapter.rank)
    pre_u = solve_spd(gram(v) + lam * eye, g_u.T).T
    pre_v = solve_spd(gram(u) + lam * eye, g_v.T).T
    state.momentum_u = pre_u + alpha * state.momentum_u
    state.momentum_v = pre_v + alpha * state.momentum_v
    state.prev = layer.adapter
    return state.momentum_u, state.momentum_v


def truncated_svd_reference(w, r: int) -> FactorPair:
    """``truncated_svd`` as the full ``svd_dense`` of ``w``, truncated.

    This is the route ``truncated_svd`` falls back to, so a fallback
    result must equal this one bit for bit.
    """
    u, sigma, v = svd_dense(w)
    head = sigma[:r].copy()
    cutoff = max(w.shape) * np.finfo(np.float64).eps * sigma[0]
    head[head <= cutoff] = 0.0
    root = np.sqrt(head)
    return FactorPair(u[:, :r] * root, v[:, :r] * root)


def product_error(p: FactorPair, q: FactorPair) -> float:
    """``||u_p v_p^T - u_q v_q^T||_F / ||u_q v_q^T||_F``, densely."""
    ref = materialize(q)
    return float(np.linalg.norm(materialize(p) - ref) / np.linalg.norm(ref))


@contextmanager
def svd_operands():
    """Collect every operand ``lowrank`` hands to ``svd_dense``.

    ``truncated_svd(w, r)`` fell back to the full SVD exactly when ``w``
    itself is among them; the Gram route passes a thin r + 1 block.
    """
    operands = []

    def recording(a):
        operands.append(a)
        return svd_dense(a)

    lowrank.svd_dense = recording
    try:
        yield operands
    finally:
        lowrank.svd_dense = svd_dense


@contextmanager
def lorsum_half_steps():
    """Collect every half-step ``lorsum`` takes, in order.

    Each entry is ``{"side", "iteration", "u", "v"}``: copies of the pair
    the half-step leaves, so on the V side ``u`` is the estimate it
    solved against and ``v`` its result, and the reverse on the U side.
    Wraps the module's ``_half_step`` (``oplora.lorsum`` as a package
    attribute is the function, so the module is imported by name).
    """
    module = importlib.import_module("oplora.lorsum")
    half_step = module._half_step
    entries = []

    def recording(side, other, k, lam_eye):
        result = half_step(side, other, k, lam_eye)
        u, v = (other, result) if side[0] == "V" else (result, other)
        entries.append({"side": side[0], "iteration": k,
                        "u": u.copy(), "v": v.copy()})
        return result

    module._half_step = recording
    try:
        yield entries
    finally:
        module._half_step = half_step


def bootstrap_median_ci_loop(values):
    """Reference for ``aggregate.bootstrap_median_ci``: resample, take
    N_RESAMPLES medians per step, and two percentiles of them."""
    values = np.asarray(values, dtype=np.float64)
    n_seeds, n_steps = values.shape
    med = np.median(values, axis=0)
    if n_seeds == 1:
        return med, med.copy(), med.copy()
    rng = np.random.Generator(np.random.PCG64(BOOTSTRAP_SEED))
    idx = rng.integers(0, n_seeds, size=(N_RESAMPLES, n_seeds))
    lo = np.empty(n_steps)
    hi = np.empty(n_steps)
    for j in range(n_steps):
        meds = np.median(values[idx, j], axis=1)
        lo[j] = np.percentile(meds, 2.5)
        hi[j] = np.percentile(meds, 97.5)
    return med, lo, hi
