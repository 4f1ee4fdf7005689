"""Downstream classifier over early-exited features, and the per-layer table.

Features are a learned softmax-weighted sum of the layer-normalized hidden
layers up to the exit. A sample's computed layers are one (layers, frames,
model_dim) array, and `normalize_prefix` normalizes its first k rows in one
`numeric.layer_norm` call. Exits stay active while the head
trains; the encoder, branches, and threshold are all frozen by then, so
each sample's exit layer is a fixed property of the data and is computed
once, from the training split's hidden-state cache (the pipeline's one
forward of that split, which the teacher and the branches trained on):
`policy.decide_exits` over its entropy rows gives `run_exit`'s exits, and
the cache, normalized in place, holds every prefix as a view. Evaluation
reports accuracy alongside exit depth and compute-saved accounting (all
read from one `policy.ExitCounts`), with a statically truncated twin for
baseline comparisons.

`evaluate` forwards every sample under one policy and `evaluate_static`
truncates every forward at one layer, with no exit machinery; they are the
reference paths, one sample at a time. The eval and static-comparison
reports instead build one `LayerTable` per dataset from batched full
forwards, one row per sample: the branch
entropy at every layer and, by the prefix property, the probe's correct
count at every exit depth. `replay_evaluate` and `replay_timing` are pure
functions of that table: each decides every row at once with
`policy.decide_exits`, with no per-row trace. `replay_evaluate` gives
`evaluate`'s record for any policy; replaying the policy pinned to layer k
(`policy.fixed_exit_policy`) gives every number of `evaluate_static`'s
record at k. `replay_timing` prices a policy from the table's three
wall-time totals, each measured per chunk and summed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .branches import BranchSet, batch_entropies
from .data import FrameDataset
from .encoder import (
    FORWARD_CHUNK,
    Encoder,
    IncrementalForward,
    cache_of,
    embed_batch,
    run_blocks,
)
from .errors import ConfigError
from .numeric import DTYPE, cross_entropy, layer_norm, matmul64, new_rng, sgd_step, softmax
from .policy import ExitCounts, ExitPolicy, decide_exits, run_exit

__all__ = [
    "DownstreamHead",
    "DownstreamTrainResult",
    "LayerTable",
    "init_downstream_head",
    "normalize_prefix",
    "prefix_weights",
    "weighted_features",
    "train_downstream",
    "evaluate",
    "evaluate_static",
    "build_layer_table",
    "replay_evaluate",
    "replay_timing",
]

TASKS = ("frame", "sequence")


@dataclass(frozen=True)
class DownstreamHead:
    layer_weights: np.ndarray  # (num_layers,) float32, raw (softmaxed at use)
    probe_weight: np.ndarray  # (num_labels, model_dim) float32
    probe_bias: np.ndarray  # (num_labels,) float32

    @property
    def num_layers(self) -> int:
        return self.layer_weights.shape[0]

    @property
    def num_labels(self) -> int:
        return self.probe_weight.shape[0]

    @property
    def model_dim(self) -> int:
        return self.probe_weight.shape[1]


@dataclass(frozen=True)
class LayerTable:
    """Per-sample, per-layer facts of one full forward over a dataset.

    Row i is sample i; column k-1 is layer k. The build's three wall-time
    totals are the table's only non-deterministic fields.
    """

    entropies: np.ndarray  # (N, L) float64 branch entropy of layer k
    correct: np.ndarray  # (N, L) int64 probe correct count when exiting at k
    scored: np.ndarray  # (N,) int64 predictions scored per sample
    task: str
    embed_seconds: float  # summed wall time of the N input projections
    block_seconds: float  # of all N·L blocks
    branch_seconds: float  # of all N·L branch entropies

    @property
    def num_samples(self) -> int:
        return self.entropies.shape[0]

    @property
    def num_layers(self) -> int:
        return self.entropies.shape[1]


@dataclass(frozen=True)
class DownstreamTrainResult:
    head: DownstreamHead
    span_stats: ExitCounts
    losses: list[float]
    entropies: np.ndarray  # (N, L) float64 branch entropies of the training split
    exits: np.ndarray  # (N,) int64 exit layer of each training sample
    forced: np.ndarray  # (N,) bool: no allowed layer fired


def init_downstream_head(
    num_layers: int, num_labels: int, model_dim: int, seed: int
) -> DownstreamHead:
    rng = new_rng(seed)
    std = np.sqrt(2.0 / (num_labels + model_dim))
    return DownstreamHead(
        layer_weights=np.zeros(num_layers, dtype=DTYPE),
        probe_weight=(rng.standard_normal((num_labels, model_dim)) * std).astype(DTYPE),
        probe_bias=np.zeros(num_labels, dtype=DTYPE),
    )


def normalize_prefix(states: np.ndarray, exit_layer: int) -> np.ndarray:
    """Layer-normalize every frame vector of a sample's layers 1..exit_layer, in one call.

    Returns the normalized layers as (exit_layer, frames, model_dim).
    """
    if not 1 <= exit_layer <= len(states):
        raise ValueError(f"exit layer {exit_layer} not computed (have 1..{len(states)})")
    return layer_norm(states[:exit_layer])


def prefix_weights(head: DownstreamHead, length: int, renormalize: bool = True) -> np.ndarray:
    """Combination weights over a prefix of `length` layers; they sum to 1 when renormalized.

    renormalize=True softmaxes the first `length` raw weights; False softmaxes
    all raw weights and truncates, so the prefix mass can be below 1.
    """
    if not 1 <= length <= head.num_layers:
        raise ValueError(f"prefix length {length} out of range 1..{head.num_layers}")
    if renormalize:
        return softmax(head.layer_weights[:length])
    return softmax(head.layer_weights)[:length]


def weighted_features(
    head: DownstreamHead, prefix: np.ndarray, renormalize: bool = True
) -> np.ndarray:
    """Weighted sum of a normalized (k, frames, model_dim) prefix, shape (frames, model_dim).

    Returned in float64: this is a reduction over layers, and the training
    loss differentiates through it.
    """
    weights = prefix_weights(head, prefix.shape[0], renormalize)
    return np.einsum("k,ktd->td", weights, prefix.astype(np.float64))


def _sequence_label(labels: np.ndarray, num_classes: int) -> int:
    return int(np.bincount(labels, minlength=num_classes).argmax())


def _loss_and_grads(head, feats64, labels, task):
    """Loss, feature gradient, and probe gradients for one sample.

    feats64: (frames, dim) float64 features; the sequence task scores the
    one row of frame-pooled features. Returns
    (loss, d_features, d_probe_weight, d_probe_bias).
    """
    frames = feats64.shape[0]
    w64 = head.probe_weight.astype(np.float64)
    if task == "frame":
        logits = feats64 @ w64.T + head.probe_bias.astype(np.float64)
        loss, dlogits = cross_entropy(logits, labels)
        return float(loss), dlogits @ w64, dlogits.T @ feats64, dlogits.sum(axis=0)
    pooled = feats64.mean(axis=0)
    logits = w64 @ pooled + head.probe_bias.astype(np.float64)
    loss, dlogits = cross_entropy(logits[None], np.array([int(labels)]))
    dlogits = dlogits[0]
    d_feats = np.tile((dlogits @ w64) / frames, (frames, 1))
    return float(loss), d_feats, np.outer(dlogits, pooled), dlogits


def _layer_weight_grad(head, prefix, d_feats, renormalize):
    """Gradient of the loss w.r.t. the raw layer weights for one sample."""
    length = prefix.shape[0]
    per_layer = np.einsum("ktd,td->k", prefix.astype(np.float64), d_feats)
    grad = np.zeros(head.num_layers, dtype=np.float64)
    if renormalize:
        weights = softmax(head.layer_weights[:length])
        grad[:length] = weights * (per_layer - float(weights @ per_layer))
    else:
        weights = softmax(head.layer_weights)
        contrib = np.zeros(head.num_layers, dtype=np.float64)
        contrib[:length] = per_layer
        grad = weights * (contrib - float(weights @ contrib))
    return grad


def train_downstream(
    enc: Encoder,
    branches: BranchSet,
    policy: ExitPolicy,
    head: DownstreamHead,
    data: FrameDataset,
    lr: float,
    steps: int,
    seed: int,
    batch_size: int = 32,
    task: str = "frame",
    renormalize: bool = True,
    *,
    cache: np.ndarray | None = None,
    entropies: np.ndarray | None = None,
) -> DownstreamTrainResult:
    """Train the probe and layer weights with early exit active on every sample.

    Exit decisions depend only on frozen components, so each sample's exit
    layer and normalized prefix are computed once up front, from `cache`,
    `data`'s `encoder.hidden_state_cache` (built here when not given): the
    branch entropies of its layers give `run_exit`'s exits, and then the
    cache is layer-normalized in place, one layer of one chunk at a time,
    so a sample's prefix is the view of its layers up to its exit. A given
    cache is overwritten. `entropies`, when given, are those (N, num_layers)
    float64 entropy rows, already computed from the cache under `branches`
    (`BranchTrainResult.entropies`); that they are is the caller's promise.
    The exit counts (one exit per sample) are the span statistics used by
    inference-time constraints.
    """
    _check_dataset(data, task)
    if policy.num_layers != enc.config.num_layers:
        raise ConfigError(
            f"policy is for {policy.num_layers} layers, encoder has {enc.config.num_layers}"
        )
    cache = cache_of(enc, data.inputs, cache)
    expected = (data.num_sequences, enc.config.num_layers)
    if entropies is not None and (entropies.shape != expected or entropies.dtype != np.float64):
        raise ValueError(
            f"entropies must be float64 (N, num_layers) = {expected}, "
            f"got {entropies.dtype} {entropies.shape}"
        )
    rows = []
    for lo in range(0, data.num_sequences, FORWARD_CHUNK):
        chunk = cache[:, lo : lo + FORWARD_CHUNK]
        if entropies is None:
            rows.append(batch_entropies(branches, chunk))
        for layer in chunk:  # a layer at a time: float64 temporaries of one layer only
            layer[...] = layer_norm(layer)
    if entropies is None:
        entropies = np.concatenate(rows)
    exits, forced = decide_exits(policy, entropies)
    prefixes = [cache[:k, i] for i, k in enumerate(exits.tolist())]
    span_stats = ExitCounts.of(exits, policy.num_layers)
    if task == "sequence":
        sample_labels = [
            _sequence_label(data.labels[i], data.num_classes)
            for i in range(data.num_sequences)
        ]
    rng = new_rng(seed)
    layer_weights = head.layer_weights
    probe_weight = head.probe_weight
    probe_bias = head.probe_bias
    losses: list[float] = []
    for _ in range(steps):
        batch = rng.integers(0, data.num_sequences, size=batch_size)
        current = DownstreamHead(layer_weights, probe_weight, probe_bias)
        g_lw = np.zeros(head.num_layers, dtype=np.float64)
        g_pw = np.zeros_like(probe_weight, dtype=np.float64)
        g_pb = np.zeros_like(probe_bias, dtype=np.float64)
        batch_loss = 0.0
        for i in batch:
            prefix = prefixes[i]
            feats = weighted_features(current, prefix, renormalize)
            labels = sample_labels[i] if task == "sequence" else data.labels[i]
            loss, d_feats, d_pw, d_pb = _loss_and_grads(current, feats, labels, task)
            batch_loss += loss
            g_pw += d_pw
            g_pb += d_pb
            g_lw += _layer_weight_grad(current, prefix, d_feats, renormalize)
        layer_weights = sgd_step(layer_weights, g_lw / batch_size, lr)
        probe_weight = sgd_step(probe_weight, g_pw / batch_size, lr)
        probe_bias = sgd_step(probe_bias, g_pb / batch_size, lr)
        losses.append(batch_loss / batch_size)
    return DownstreamTrainResult(
        head=DownstreamHead(layer_weights, probe_weight, probe_bias),
        span_stats=span_stats,
        losses=losses,
        entropies=entropies,
        exits=exits,
        forced=forced,
    )


def _predictions(head, feats, labels, task, num_classes):
    """(number correct, number scored) for one sample's features."""
    logits = matmul64(feats, head.probe_weight.T) + head.probe_bias.astype(np.float64)
    if task == "frame":
        pred = logits.argmax(axis=1)
        return int((pred == labels).sum()), labels.shape[0]
    pooled = logits.mean(axis=0)
    return int(pooled.argmax() == _sequence_label(labels, num_classes)), 1


def _check_dataset(data: FrameDataset, task: str) -> None:
    if data.num_sequences == 0:
        raise ValueError("empty dataset")
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")


def _exit_record(task, policy, exits, forced_count, correct, scored) -> dict:
    """The evaluation record of one policy from its per-sample exits and summed scores."""
    num_layers = policy.num_layers
    counts = ExitCounts.of(exits, num_layers)
    n = counts.num_samples
    return {
        "task": task,
        "num_samples": n,
        "accuracy": correct / scored,
        "mean_exit_layer": counts.mean,
        "min_exit_layer": counts.first,
        "max_exit_layer": counts.last,
        "forced_fraction": forced_count / n,
        # From the integer sum: 1 - mean / L divides an already rounded mean.
        "layer_compute_saved": 1.0 - counts.layer_sum / (n * num_layers),
        "exit_histogram": [
            [k, c, f]
            for k, (c, f) in enumerate(zip(counts.counts, counts.fractions), start=1)
        ],
        "policy": {
            "threshold": policy.threshold,
            "ratio": policy.ratio,
            "span_kind": policy.span_kind,
        },
    }


def evaluate(
    enc: Encoder,
    branches: BranchSet,
    policy: ExitPolicy,
    head: DownstreamHead,
    data: FrameDataset,
    task: str = "frame",
    renormalize: bool = True,
) -> dict:
    """Accuracy, exit-depth statistics, and compute accounting under a policy.

    The reference path: every sample is forwarded lazily under the policy.
    `replay_evaluate` gives the same record from a `LayerTable`.
    """
    _check_dataset(data, task)
    correct = 0
    scored = 0
    exits = []
    forced_count = 0
    for i in range(data.num_sequences):
        hs, trace = run_exit(enc, branches, policy, data.inputs[i])
        feats = weighted_features(head, normalize_prefix(hs, trace.exit_layer), renormalize)
        c, s = _predictions(head, feats, data.labels[i], task, data.num_classes)
        correct += c
        scored += s
        exits.append(trace.exit_layer)
        forced_count += int(trace.forced)
    return _exit_record(task, policy, exits, forced_count, correct, scored)


def evaluate_static(
    enc: Encoder,
    head: DownstreamHead,
    data: FrameDataset,
    layer: int,
    task: str = "frame",
    renormalize: bool = True,
) -> dict:
    """The fixed-depth baseline: truncate every forward at `layer`, no exit machinery."""
    _check_dataset(data, task)
    num_layers = enc.config.num_layers
    if not 1 <= layer <= num_layers:
        raise ValueError(f"layer {layer} out of range 1..{num_layers}")
    correct = 0
    scored = 0
    for i in range(data.num_sequences):
        inc = IncrementalForward(enc, data.inputs[i])
        inc.hidden(layer)
        feats = weighted_features(head, normalize_prefix(inc.states(), layer), renormalize)
        c, s = _predictions(head, feats, data.labels[i], task, data.num_classes)
        correct += c
        scored += s
    return {
        "task": task,
        "num_samples": data.num_sequences,
        "accuracy": correct / scored,
        "mean_exit_layer": float(layer),
        "layer_compute_saved": 1.0 - layer / num_layers,
    }


def build_layer_table(
    enc: Encoder,
    branches: BranchSet,
    data: FrameDataset,
    head: DownstreamHead,
    task: str = "frame",
    renormalize: bool = True,
) -> LayerTable:
    """One full forward per sample, recording what every exit layer would see and score.

    Each entropy row is the sample's row of `batch_entropies`, bit for bit
    `sample_entropies` of its L hidden layers: the same hidden matrices a
    lazy forward computes (batch invariance, prefix property), so replayed
    exits equal those of `run_exit`. The prefix is normalized once
    at depth L and the features for exit depth k weight its first k layers,
    bit-identical to the features of a pass truncated at k. Samples are
    forwarded in batched chunks; each chunk's projection, blocks and
    entropies are timed and the times summed. Chunks stream into (N, L)
    arrays; no hidden states outlive their chunk.
    """
    _check_dataset(data, task)
    n = data.num_sequences
    num_layers = enc.config.num_layers
    entropies = np.empty((n, num_layers), dtype=np.float64)
    correct = np.empty((n, num_layers), dtype=np.int64)
    scored = np.empty(n, dtype=np.int64)
    embed_seconds = block_seconds = branch_seconds = 0.0
    for lo in range(0, n, FORWARD_CHUNK):
        chunk = slice(lo, lo + FORWARD_CHUNK)
        t0 = time.perf_counter()
        stream = embed_batch(enc, data.inputs[chunk])
        t1 = time.perf_counter()
        states = run_blocks(enc, stream, np.empty((num_layers, *stream.shape), dtype=DTYPE))
        t2 = time.perf_counter()
        entropies[chunk] = batch_entropies(branches, states)
        t3 = time.perf_counter()
        embed_seconds += t1 - t0
        block_seconds += t2 - t1
        branch_seconds += t3 - t2
        for j, i in enumerate(range(lo, lo + len(stream))):
            normed = normalize_prefix(states[:, j], num_layers)
            for k in range(1, num_layers + 1):
                feats = weighted_features(head, normed[:k], renormalize)
                correct[i, k - 1], scored[i] = _predictions(
                    head, feats, data.labels[i], task, data.num_classes
                )
    return LayerTable(
        entropies=entropies,
        correct=correct,
        scored=scored,
        task=task,
        embed_seconds=embed_seconds,
        block_seconds=block_seconds,
        branch_seconds=branch_seconds,
    )


def replay_evaluate(table: LayerTable, policy: ExitPolicy, rows=None) -> dict:
    """`evaluate`'s record for the table's dataset, or for `data.subset(rows)`."""
    idx = np.arange(table.num_samples) if rows is None else np.asarray(rows, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty dataset")
    exits, forced = decide_exits(policy, table.entropies[idx])
    return _exit_record(
        table.task,
        policy,
        exits,
        int(forced.sum()),
        int(table.correct[idx, exits - 1].sum()),
        int(table.scored[idx].sum()),
    )


def replay_timing(table: LayerTable, policy: ExitPolicy) -> dict:
    """Wall time of early-exit forwards under `policy` against full-depth ones.

    Priced from the table's three measured totals: every block has one shape
    and so does every branch, so a policy pays every input projection plus
    its share of the N·L blocks (its summed exit layers) and of the N·L
    branches (those it evaluated: a row's allowed layers up to its exit).
    A full pass pays all projections and blocks.
    """
    if not table.num_samples:
        raise ValueError("empty dataset")
    exits, _ = decide_exits(policy, table.entropies)
    evaluated = np.searchsorted(policy.allowed, exits, side="right")
    all_layers = table.num_samples * table.num_layers
    blocks = int(exits.sum()) / all_layers * table.block_seconds
    branches = int(evaluated.sum()) / all_layers * table.branch_seconds
    early = table.embed_seconds + blocks + branches
    full = table.embed_seconds + table.block_seconds
    return {
        "early_exit_seconds": float(early),
        "full_pass_seconds": float(full),
        "forward_time_saved": float(1.0 - early / full),
    }
