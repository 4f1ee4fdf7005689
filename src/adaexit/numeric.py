"""Dense numeric kernels shared by every other module.

Conventions: parameters and activations are stored as float32; reductions
(dot products, normalization statistics, probability sums) run in float64
so results are reproducible at desk scale. Probabilities and entropies
are returned as float64. Entropy is measured in nats. The one exception is
the head trainer: its products and cross-entropy run in float32, and only
its parameter update in float64.

Every head trains through one softmax cross-entropy and logit gradient,
and the linear heads through `train_linear_heads`, the one minibatch-SGD
loop: the teacher is its one-head call, the exit branches its
one-head-per-layer call. The trainer splits its heads into contiguous
groups, one per usable CPU, and trains each group in its own thread (the
first in the caller's) with preallocated float32 buffers and its own copy
of the batch stream, so its bits do not depend on the CPU count.
`on_usable_cpus` is that rule for any list of independent items: the
trainer's head groups, and the chunks of every whole-dataset pass.

Inputs are checked at the module boundary, not inside the hot loops.
`layer_norm` and `softmax` validate what they are given, and softmax
refuses non-finite logits; `train_linear_heads` checks its cache, labels,
starting weights and hyperparameters once. `layer_norm64` and `softmax64`
are their unvalidated cores, float64 in the library's calls.
`cross_entropy64`, the in-place loss and logit gradient, has no checked
wrapper: its callers, the trainer (float32 buffers) and the downstream
probe's step (float64), hand it buffers they built. It shares `softmax64`'s
subtract, exp, row sum and divide, but takes each row's max down a
class-major copy of the logits, which is faster on the trainer's short
float32 rows and, a max being exact in any order, gives the same bits;
`softmax64` keeps `x.max(axis=-1)`, since served requests ran slower with
the copy. `entropy64`, the per-row entropy of probability rows, has no
checked wrapper either: its one caller, branch entropy, hands it
`softmax64`'s rows. The encoder's blocks call `layer_norm64` and
`softmax64`. Branch entropies call `softmax64` on their logits and
`entropy64` on its rows; they skip softmax's finiteness scan and fail by
layer on a non-finite entropy instead. Each core keeps the arithmetic of
the checked call bit for bit on float64 input and takes float32 or float64
parameters alike; the embedding, the blocks and the branches pass float64
copies of theirs, cast once (`Encoder.f64`, `BlockParams.f64`,
`BranchSet.f64`).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

DTYPE = np.float32
F32_MAX = float(np.finfo(DTYPE).max)

__all__ = [
    "DTYPE",
    "softmax",
    "softmax64",
    "cross_entropy64",
    "train_linear_heads",
    "on_usable_cpus",
    "entropy64",
    "layer_norm",
    "layer_norm64",
    "sgd_step",
    "new_rng",
    "matmul64",
    "running_mean",
    "running_means",
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

    The logits must be a nonempty stack of finite rows. Returns float64
    probabilities that sum to 1 along the last axis.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError("expected a vector or a stack of vectors, got a scalar")
    if x.shape[-1] == 0 or x.size == 0:
        raise ValueError("empty input")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite entries")
    return softmax64(x)


def softmax64(x: np.ndarray, out=None, rowmax=None, rowsum=None) -> np.ndarray:
    """Unvalidated core of `softmax`: the rows of x, normalized into out, in x's dtype.

    out may be x itself; a new array is returned when it is None. rowmax and
    rowsum, shaped x.shape[:-1] + (1,), receive the row maxima and sums; they
    are allocated when not given. The row max is `x.max(axis=-1)`: serving,
    attention and branch entropies call this on small stacks, and served
    requests ran slower with `cross_entropy64`'s class-major copy.
    """
    return _normalize_rows(x, x.max(axis=-1, keepdims=True, out=rowmax), out, rowsum)


def _normalize_rows(x, rowmax, out, rowsum):
    """exp(x - rowmax) over its row sums, into out: `softmax64`'s and `cross_entropy64`'s tail."""
    e = np.subtract(x, rowmax, out=out)
    np.exp(e, out=e)  # in place: a fresh array per call costs more than the exp
    e /= e.sum(axis=-1, keepdims=True, out=rowsum)
    return e


def cross_entropy64(x, picks, picked, rowmax, rowsum, out=None, loss=None, columns=None):
    """Unvalidated softmax cross-entropy: the loss and the logit gradient, in place.

    x: (..., rows, C) logits; picks: (..., rows) flat positions in x of each
    row's label, in range. The gradient, (softmax - one_hot) / rows, is
    written into out, which may be x itself (a new array when None), and the
    loss, the mean over rows (...), into loss when given. picked (..., rows),
    rowmax and rowsum (..., rows, 1) and columns (C, ..., rows), x with its
    class axis first, are scratch; columns is allocated when None. The
    arithmetic runs in the dtype of x and the scratch: float64 for the
    probe, float32 for the head trainer. A label probability that underflows
    is floored at max(1e-300, the dtype's smallest normal), so its loss stays
    finite in either dtype. A row holding +inf or NaN gets a NaN loss.

    Each row's max is a leading-axis max down a class-major copy of x, not
    `x.max(axis=-1)`: on the trainer's (4, 1024, 32) float32 logits that is
    about 125 against 400 us, and a max is exact in any order, so the bits
    are `softmax64`'s. The rest is `softmax64`'s subtract, exp, row sum and
    divide.
    """
    class_major = np.moveaxis(x, -1, 0)
    if columns is None:
        columns = class_major.copy()
    elif columns.shape != class_major.shape:
        raise ValueError(
            f"columns must be the logits' shape with the class axis first, "
            f"{class_major.shape}; got {columns.shape}"
        )
    else:
        np.copyto(columns, class_major)
    # rowmax[..., 0] is a view whatever rowmax's strides, so the maxima cannot land in a copy.
    np.max(columns, axis=0, out=rowmax[..., 0])
    grad = _normalize_rows(x, rowmax, out, rowsum)
    np.take(grad, picks, out=picked, mode="clip")  # clip: no bounds-check buffer
    # rowsum is free once the rows are normalized; it holds each label's p - 1.
    label_grad = np.subtract(picked, 1.0, out=rowsum[..., 0])
    np.put(grad, picks, label_grad)
    np.maximum(picked, max(1e-300, float(np.finfo(picked.dtype).tiny)), out=picked)
    np.log(picked, out=picked)
    np.negative(picked, out=picked)
    grad /= grad.shape[-2]
    # Row-major picks, so every head's mean sums its rows in one order.
    return picked.mean(axis=-1, out=loss), grad


def _usable_cpus() -> int:
    """CPUs this process may run on; `on_usable_cpus` runs one share of its items per CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def on_usable_cpus(work, items) -> list:
    """`[work(item) for item in items]`, with the items shared out over the usable CPUs.

    Share s takes items s, s + shares, s + 2 * shares, ..., one share per
    usable CPU (at most one per item). The first share runs in the caller's
    thread and the others in a pool of shares - 1 threads, so one CPU or one
    item starts no thread and runs the items in order. `work` must be safe
    to run on distinct items at once; callers hand it numpy work on disjoint
    slices, and numpy releases the GIL inside its loops and BLAS calls. When
    items fail, the exception of the lowest-index failing item is raised:
    the one that the serial loop raises.
    """
    items = list(items)
    shares = max(1, min(len(items), _usable_cpus()))
    results = [None] * len(items)
    failures = {}

    def run(share):
        for i in range(share, len(items), shares):
            try:
                results[i] = work(items[i])
            except Exception as err:  # kept, and raised below in item order
                failures[i] = err
                return  # the share's later items cannot fail first

    with ThreadPoolExecutor(max(1, shares - 1)) as pool:
        rest = [pool.submit(run, share) for share in range(1, shares)]
        run(0)
        for future in rest:
            future.result()
    if failures:
        raise failures[min(failures)]
    return results


def train_linear_heads(
    cache, labels, weights, biases, lr: float, steps: int, batch_size: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minibatch SGD on softmax cross-entropy for H linear heads over cached hidden states.

    cache: (H, N, T, d) float32, head h reads cache[h]; labels: (N, T) shared
    by every head; weights (H, C, d) and biases (H, C) are the starting
    values. Every step draws one batch of sequences from `seed` for all
    heads, so a head's weights do not depend on the heads trained with it.
    The heads are split into contiguous groups, one per usable CPU, and each
    group trains in its own thread (the first in the caller's) on its own
    copy of that batch stream, so the bits do not depend on the CPU count.
    The products and the loss run in float32 and the update in float64,
    rounded once to float32 a step, as `sgd_step` rounds it. Inputs are
    checked once, here; a head whose float32 logits overflow or whose
    parameters leave the float32 range fails by name.
    Returns the final weights and biases and each step's loss, (steps, H),
    the float64 mean of the float32 row losses.
    """
    lr = _check_heads(cache, labels, weights, biases, lr, steps, batch_size)
    heads = cache.shape[0]
    groups = min(heads, _usable_cpus())
    bounds = [heads * g // groups for g in range(groups + 1)]

    def train(g):
        lo, hi = bounds[g], bounds[g + 1]
        return _train_head_group(
            cache[lo:hi], labels, weights[lo:hi], biases[lo:hi], lr, steps, batch_size, seed, lo
        )

    w, b, losses = zip(*on_usable_cpus(train, range(groups)))
    return np.concatenate(w), np.concatenate(b), np.concatenate(losses, axis=1)


def _check_heads(cache, labels, weights, biases, lr, steps, batch_size) -> float:
    """`train_linear_heads`' boundary: shapes, ranges and finiteness, by name. Returns lr."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    lr = float(lr)
    if not np.isfinite(lr) or lr < 0:
        raise ValueError(f"learning rate must be finite and nonnegative, got {lr}")
    if cache.ndim != 4 or 0 in cache.shape:
        raise ValueError(f"cache must be a nonempty (H, N, T, d) array, got shape {cache.shape}")
    heads, num_sequences, frames, dim = cache.shape
    if weights.ndim != 3 or weights.shape[0] != heads or weights.shape[2] != dim:
        raise ValueError(f"weights must be (H, C, d) = ({heads}, C, {dim}), got {weights.shape}")
    classes = weights.shape[1]
    if biases.shape != (heads, classes):
        raise ValueError(f"biases must be (H, C) = {(heads, classes)}, got {biases.shape}")
    if labels.shape != (num_sequences, frames) or labels.dtype.kind not in "iu":
        raise ValueError(
            f"labels must be (N, T) = {(num_sequences, frames)} integers, "
            f"got {labels.dtype} {labels.shape}"
        )
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(f"labels must lie in [0, {classes}), got [{labels.min()}, {labels.max()}]")
    # min and max propagate NaN and need no cache-sized temporary.
    if not (np.isfinite(cache.min()) and np.isfinite(cache.max())):
        raise ValueError("cache contains non-finite values")
    if not np.isfinite(weights).all():
        raise ValueError("starting weights contain non-finite values")
    if not np.isfinite(biases).all():
        raise ValueError("starting biases contain non-finite values")
    return lr


def _train_head_group(cache, labels, weights, biases, lr, steps, batch_size, seed, first_head):
    """The SGD loop of `train_linear_heads` for heads first_head.., in preallocated buffers.

    It may run in a worker thread, so it calls numpy only: numpy releases the
    GIL inside matmul and the ufunc loops, and nothing here is traced. The
    batch, the logits, the cross-entropy and both gradients are float32, so
    the products are sgemm calls; `cross_entropy64` takes the row maxima
    down `columns`, a class-major copy of the logits. The update is
    `sgd_step`'s arithmetic: float64(params) - lr * float64(grad), rounded
    once to float32. A step whose loss is not finite (float32 logits
    overflow) or whose update leaves the float32 range fails by head,
    before any numpy warning.
    """
    heads, num_sequences, frames, dim = cache.shape
    classes = weights.shape[1]
    rows = batch_size * frames
    rng = new_rng(seed)
    losses = np.empty((steps, heads), dtype=np.float64)
    w32, b32 = weights.astype(DTYPE), biases.astype(DTYPE)
    grad_w, grad_b = np.empty_like(w32), np.empty_like(b32)
    wide_w, wide_b = np.empty(w32.shape), np.empty(b32.shape)  # each update, in float64
    batch_feats = np.empty((heads, batch_size, frames, dim), dtype=DTYPE)
    feats = batch_feats.reshape(heads, rows, dim)
    logits = np.empty((heads, rows, classes), dtype=DTYPE)
    picked = np.empty((heads, rows), dtype=DTYPE)
    rowmax, rowsum = np.empty((2, heads, rows, 1), dtype=DTYPE)
    columns = np.empty((classes, heads, rows), dtype=DTYPE)
    batch_labels = np.empty((batch_size, frames), dtype=labels.dtype)
    # Flat position of each row's first logit; a step adds the row's label.
    row_starts = np.arange(0, heads * rows * classes, classes).reshape(heads, rows)
    picks = np.empty_like(row_starts)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails by name below
        for step in range(steps):
            batch = rng.integers(0, num_sequences, size=batch_size)
            np.take(cache, batch, axis=1, out=batch_feats, mode="clip")
            np.take(labels, batch, axis=0, out=batch_labels, mode="clip")
            np.add(row_starts, batch_labels.reshape(-1), out=picks)
            np.matmul(feats, w32.transpose(0, 2, 1), out=logits)
            logits += b32[:, None, :]
            cross_entropy64(logits, picks, picked, rowmax, rowsum,
                            out=logits, loss=losses[step], columns=columns)
            if not np.isfinite(losses[step]).all():
                reason = "its logits overflow float32"
                _diverged(first_head, ~np.isfinite(losses[step]), step, reason, lr)
            np.matmul(logits.transpose(0, 2, 1), feats, out=grad_w)
            logits.sum(axis=1, out=grad_b)
            for params, grad, wide in ((w32, grad_w, wide_w), (b32, grad_b, wide_b)):
                np.multiply(grad, lr, out=wide, dtype=np.float64)
                np.subtract(params, wide, out=wide, dtype=np.float64)
                _check_float32_range(wide, step, first_head, lr)
                np.copyto(params, wide)
    return w32, b32, losses


def _check_float32_range(wide, step, first_head, lr) -> None:
    """Fail by name before the float32 cast of an update would overflow."""
    if wide.max() <= F32_MAX and wide.min() >= -F32_MAX:  # NaN fails too
        return
    peaks = np.abs(wide).reshape(len(wide), -1).max(axis=1)
    reason = "its parameters exceed the float32 range"
    _diverged(first_head, ~(peaks <= F32_MAX), step, reason, lr)


def _diverged(first_head, failing, step, reason, lr):
    """Raise the ValueError that names the first failing head of a group and the step."""
    head = first_head + int(np.flatnonzero(failing)[0])
    raise ValueError(f"head {head} diverged at step {step}: {reason} (lr={lr:g})")


def entropy64(q: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats of each probability row; branch entropies call it on softmax rows.

    Unvalidated: it does not check that a row is nonnegative and sums to 1,
    as `softmax64`'s rows are. A zero probability's log is taken at the
    smallest subnormal, so its term is -0.0 where a masked log gave +0.0.
    The row sums keep their bits: a probability row also holds a negative
    term, or a 1 whose +0.0 term absorbs the signed zeros. NaN
    probabilities propagate to their row's entropy.
    """
    log_q = np.maximum(q, 5e-324)
    np.log(log_q, out=log_q)
    log_q *= q
    return -log_q.sum(axis=-1)


def layer_norm64(x64: np.ndarray, gain: np.ndarray | float, bias: np.ndarray | float, eps=1e-5):
    """Unvalidated float64 core of `layer_norm`; the encoder's blocks call it directly."""
    # np.mean and np.var's own arithmetic (sum, then divide by the width), with
    # the centred rows computed once: the same bits as x64.var().
    width = x64.shape[-1]
    c = x64 - x64.sum(axis=-1, keepdims=True) / width
    scale = (c * c).sum(axis=-1, keepdims=True) / width
    scale += eps
    np.sqrt(scale, out=scale)
    c /= scale
    c *= gain  # float32 gains widen exactly, so cast or float64 gains give the same bits
    c += bias
    return c


def layer_norm(v: np.ndarray) -> np.ndarray:
    """Normalize each row to zero mean / unit variance: `layer_norm64` at unit gain, zero bias.

    Accepts any stack of rows. Statistics are computed in float64; the
    result is float32.
    """
    x = np.asarray(v)
    if x.ndim == 0:
        raise ValueError("expected a vector or a stack of vectors, got a scalar")
    if x.shape[-1] == 0 or x.size == 0:
        raise ValueError("empty input")
    return layer_norm64(x.astype(np.float64), 1.0, 0.0).astype(DTYPE)


def running_mean(values) -> float:
    """Streaming mean in float64, returned as a Python float.

    Unlike sum-then-divide, a constant sequence averages to exactly that
    constant (the increment is exactly zero), which keeps degenerate cases
    like uniform-posterior entropies bit-exact. The loop runs over Python
    floats: the same IEEE recurrence as over numpy scalars, a few times
    faster per element.
    """
    mean = 0.0
    count = 0
    for value in np.asarray(values, dtype=np.float64).ravel().tolist():
        count += 1
        mean += (value - mean) / count
    if count == 0:
        raise ValueError("empty input")
    return mean


def running_means(rows: np.ndarray) -> np.ndarray:
    """`running_mean` of each row of a (B, n) array, as a float64 vector.

    The recurrence runs down the columns, so row b gets the bits that
    `running_mean(rows[b])` gives.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValueError(f"expected a (B, n) array with n >= 1, got shape {rows.shape}")
    mean = np.zeros(rows.shape[0])
    for count, column in enumerate(rows.T, start=1):
        mean += (column - mean) / count
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
