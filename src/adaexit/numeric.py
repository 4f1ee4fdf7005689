"""Dense numeric kernels shared by every other module.

Conventions: parameters and activations are stored as float32; reductions
(dot products, normalization statistics, probability sums) run in float64
so results are reproducible at desk scale. Probabilities and entropies
are returned as float64. Entropy is measured in nats.

Every head trains through `cross_entropy`, the one softmax cross-entropy
and logit gradient, and the linear heads through `train_linear_heads`, the
one minibatch-SGD loop: the teacher is its one-head call, the exit branches
its one-head-per-layer call.

Inputs are checked at the module boundary, not inside the hot loops.
`layer_norm`, `entropy` and `softmax` validate what they are given, and
softmax refuses non-finite logits. `layer_norm64` and `entropy64` are their
unvalidated float64 cores: the encoder's blocks call `layer_norm64`, and
branch entropies call `entropy64` on softmax rows, which cannot fail
`entropy`'s checks. Each core keeps the arithmetic of the checked call bit
for bit.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float32

__all__ = [
    "DTYPE",
    "softmax",
    "cross_entropy",
    "train_linear_heads",
    "entropy",
    "entropy64",
    "layer_norm",
    "layer_norm64",
    "sgd_step",
    "new_rng",
    "matmul64",
    "running_mean",
]


def new_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seeds give identical streams everywhere."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def matmul64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with float64 accumulation; callers cast the result as needed."""
    return np.matmul(a.astype(np.float64, copy=False), b.astype(np.float64, copy=False))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction over the last axis of any stack of rows.

    Returns float64 probabilities that sum to 1 along the last axis.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError("expected a vector or a stack of vectors, got a scalar")
    if x.shape[-1] == 0 or x.size == 0:
        raise ValueError("empty input")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite entries")
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)  # in place: a fresh array per call costs more than the exp
    e /= e.sum(axis=-1, keepdims=True)
    return e


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy over rows and its float64 logit gradient.

    logits: (..., rows, C); labels: (rows,) class indices shared by every
    leading index. Returns the loss, of the leading shape, and
    (softmax - one_hot) / rows. A stack's loss and gradient equal the
    single calls bit for bit.
    """
    probs = softmax(logits)
    rows = probs.shape[-2]
    idx = np.arange(rows)
    # Row-major picks, so every head's mean sums its rows in one order.
    picked = np.ascontiguousarray(probs[..., idx, labels])
    loss = -np.log(np.maximum(picked, 1e-300)).mean(axis=-1)
    probs[..., idx, labels] -= 1.0
    probs /= rows
    return loss, probs


def train_linear_heads(
    cache, labels, weights, biases, lr: float, steps: int, batch_size: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minibatch SGD on softmax cross-entropy for H linear heads over cached hidden states.

    cache: (H, N, T, d) float32, head h reads cache[h]; labels: (N, T) shared
    by every head; weights (H, C, d) and biases (H, C) are the starting
    values. Every step draws one batch of sequences from `seed` for all
    heads, so a head's weights do not depend on the heads trained with it.
    Returns the final weights and biases and each step's loss, (steps, H).
    """
    heads, num_sequences, frames, dim = cache.shape
    rng = new_rng(seed)
    losses = np.empty((steps, heads), dtype=np.float64)
    # One float64 batch, gathered per sequence and read by both matmuls.
    batch_feats = np.empty((heads, batch_size, frames, dim), dtype=np.float64)
    feats = batch_feats.reshape(heads, -1, dim)  # (H, rows, d) with rows = batch * frames
    for step in range(steps):
        batch = rng.integers(0, num_sequences, size=batch_size)
        for j, i in enumerate(batch):
            batch_feats[:, j] = cache[:, i]
        logits = matmul64(feats, weights.transpose(0, 2, 1)) + biases[:, None, :].astype(
            np.float64
        )
        losses[step], dlogits = cross_entropy(logits, labels[batch].reshape(-1))
        weights = sgd_step(weights, matmul64(dlogits.transpose(0, 2, 1), feats), lr)
        biases = sgd_step(biases, dlogits.sum(axis=1), lr)
    return weights, biases, losses


def entropy(p: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in nats; zero-probability terms contribute 0.

    Accepts a probability vector (returns a float) or a 2-D stack of rows
    (returns a float64 vector of per-row entropies). Each row must sum to 1
    within 1e-4 with nonnegative entries.
    """
    q = np.asarray(p, dtype=np.float64)
    if q.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a stack of vectors, got ndim={q.ndim}")
    if q.shape[-1] == 0 or q.size == 0:
        raise ValueError("empty input")
    if (q < 0).any():
        raise ValueError("negative probability entry")
    sums = q.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=1e-4, rtol=0.0):
        raise ValueError("probabilities do not sum to 1 within 1e-4")
    h = entropy64(q)
    return float(h) if q.ndim == 1 else h


def entropy64(q: np.ndarray) -> np.ndarray:
    """Unvalidated float64 core of `entropy`, per row; branch entropies call it on softmax rows."""
    log_q = np.zeros_like(q)
    np.log(q, out=log_q, where=q > 0)
    log_q *= q
    return -log_q.sum(axis=-1)


def layer_norm64(x64: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """Unvalidated float64 core of `layer_norm`; the encoder's blocks call it directly."""
    # np.mean and np.var's own arithmetic (sum, then divide by the width), with
    # the centred rows computed once: the same bits as x64.var().
    width = x64.shape[-1]
    c = x64 - x64.sum(axis=-1, keepdims=True) / width
    scale = (c * c).sum(axis=-1, keepdims=True) / width
    scale += eps
    np.sqrt(scale, out=scale)
    c /= scale
    c *= gain.astype(np.float64)
    c += bias.astype(np.float64)
    return c


def layer_norm(
    v: np.ndarray,
    gain: np.ndarray | None = None,
    bias: np.ndarray | None = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """Normalize each row to zero mean / unit variance, then scale and shift.

    Accepts any stack of rows; gain and bias default to ones and zeros.
    Statistics are computed in float64; the result is float32.
    """
    x = np.asarray(v)
    if x.ndim == 0:
        raise ValueError("expected a vector or a stack of vectors, got a scalar")
    if x.shape[-1] == 0 or x.size == 0:
        raise ValueError("empty input")
    width = x.shape[-1]
    gain = np.ones(width, dtype=DTYPE) if gain is None else np.asarray(gain)
    bias = np.zeros(width, dtype=DTYPE) if bias is None else np.asarray(bias)
    if gain.shape != (width,) or bias.shape != (width,):
        raise ValueError(
            f"gain/bias length mismatch: input width {width}, "
            f"gain {gain.shape}, bias {bias.shape}"
        )
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    return layer_norm64(x.astype(np.float64), gain, bias, eps).astype(DTYPE)


def running_mean(values) -> float:
    """Streaming mean in float64.

    Unlike sum-then-divide, a constant sequence averages to exactly that
    constant (the increment is exactly zero), which keeps degenerate cases
    like uniform-posterior entropies bit-exact.
    """
    mean = 0.0
    count = 0
    for value in np.asarray(values, dtype=np.float64).ravel():
        count += 1
        mean += (value - mean) / count
    if count == 0:
        raise ValueError("empty input")
    return mean


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> np.ndarray:
    """One plain gradient step: params - lr * grads, elementwise, as float32."""
    p = np.asarray(params)
    g = np.asarray(grads)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: params {p.shape} vs grads {g.shape}")
    if not np.isfinite(lr) or lr < 0:
        raise ValueError(f"learning rate must be finite and nonnegative, got {lr}")
    return (p.astype(np.float64) - float(lr) * g.astype(np.float64)).astype(DTYPE)
