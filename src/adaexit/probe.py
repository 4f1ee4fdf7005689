"""Downstream classifier over early-exited features, and the per-layer table.

Features are a learned softmax-weighted sum of the layer-normalized hidden
layers up to the exit. A sample's computed layers are one (layers, frames,
model_dim) array, and `normalize_prefix` normalizes its first k rows in one
`numeric.layer_norm` call. Exits stay active while the head
trains; the encoder, branches, and threshold are all frozen by then, so
each sample's exit layer is a fixed property of the data and is computed
once, from the training split's hidden-state cache, the one the encoder
keeps after the teacher and the branches trained on it (`Encoder.kept`):
`policy.decide_exits` over its entropy table, the one `train_branches`
kept, gives `run_exit`'s exits, and the cache, taken off the encoder and
normalized in place, holds every prefix as a view. Each SGD
step then computes its whole batch at once (`_ProbeStep`), with the bits
of a loop over the batch's samples. Evaluation
reports accuracy alongside exit depth and compute-saved accounting (all
read from one `policy.ExitCounts`), with a statically truncated twin for
baseline comparisons.

`evaluate` forwards every sample under one policy and `evaluate_static`
truncates every forward at one layer, with no exit machinery; they are the
reference paths, one sample at a time. The eval and static-comparison
reports instead build one `LayerTable` per dataset from batched full
forwards, one row per sample: the branch
entropy at every layer and, by the prefix property, the probe's correct
count at every exit depth; its entropies are kept on the encoder, as
`branches.entropy_table` keeps its own. The training cache's
normalization and the table's forwards run in chunks on every usable CPU
(`encoder.map_chunks`), the caller's thread taking the first share; a
chunk's work calls no public entry point of this module, since a tracer
keeps one span stack. `replay_evaluate` and `replay_timing` are pure
functions of that table: each decides every row at once with
`policy.decide_exits`, with no per-row trace. `replay_evaluate` gives
`evaluate`'s record for any policy; replaying the policy pinned to layer k
(`policy.fixed_exit_policy`) gives every number of `evaluate_static`'s
record at k. `replay_timing` prices a policy from the table's three
wall-time totals, each measured per chunk and summed over chunks that may
run at once, so a total can exceed the wall time of the build.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .branches import BranchSet, batch_entropies, entropy_table
from .data import FrameDataset
from .encoder import (
    Encoder,
    IncrementalForward,
    embed_batch,
    hidden_state_cache,
    map_chunks,
    run_blocks,
)
from .errors import ConfigError
from .numeric import DTYPE, cross_entropy64, layer_norm, matmul64, new_rng, sgd_step, softmax
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
    totals are the table's only non-deterministic fields. Each sums the
    per-chunk times of chunks that ran on every usable CPU at once, so it
    can exceed the wall time of the build.
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
) -> DownstreamTrainResult:
    """Train the probe and layer weights with early exit active on every sample.

    Exit decisions depend only on frozen components, so each sample's exit
    layer and normalized prefix are computed once up front, from `data`'s
    `encoder.hidden_state_cache`, the encoder's kept one when the teacher
    or the branches built it: `branches.entropy_table` of its layers (the
    table `train_branches` kept, when it trained these branches on `data`)
    gives `run_exit`'s exits. Then this head, the cache's last reader, takes
    the cache off the encoder and layer-normalizes it in place, one layer of
    one chunk at a time, the chunks on every usable CPU
    (`encoder.map_chunks`), so a sample's prefix is the view of its layers
    up to its exit; a cache handed out before is overwritten with it. Each
    SGD step is one `_ProbeStep` over the batch. The exit counts (one exit
    per sample) are the span statistics used by inference-time constraints.
    """
    _check_dataset(data, task)
    if policy.num_layers != enc.config.num_layers:
        raise ConfigError(
            f"policy is for {policy.num_layers} layers, encoder has {enc.config.num_layers}"
        )
    hidden_state_cache(enc, data.inputs)  # kept: the entropy table reads it when not kept itself
    entropies = entropy_table(enc, branches, data.inputs)
    cache = enc.kept.take_cache(data.inputs)

    def normalize(chunk):
        for layer in cache[:, chunk]:  # a layer at a time: float64 temporaries of one layer only
            layer[...] = layer_norm(layer)

    map_chunks(normalize, data.num_sequences)
    exits, forced = decide_exits(policy, entropies)
    if task == "sequence":
        labels = np.array([_sequence_label(y, data.num_classes) for y in data.labels])
    else:
        labels = data.labels
    trained, losses = _train_probe(
        cache, exits, labels, head, lr, steps, batch_size, seed, renormalize
    )
    return DownstreamTrainResult(
        head=trained,
        span_stats=ExitCounts.of(exits, policy.num_layers),
        losses=losses,
        entropies=entropies,
        exits=exits,
        forced=forced,
    )


def _train_probe(cache, exits, labels, head, lr, steps, batch_size, seed, renormalize):
    """The probe's SGD loop: `_ProbeStep` gradients, one batch drawn from `seed` a step.

    Returns the trained head and each step's mean batch loss.
    """
    step_grads = _ProbeStep(cache, exits, labels, head.num_labels, batch_size, renormalize)
    rng = new_rng(seed)
    losses: list[float] = []
    for step in range(steps):
        loss, g_lw, g_pw, g_pb = step_grads(head, rng.integers(0, len(exits), size=batch_size))
        if not np.isfinite(loss):
            raise ValueError(
                f"downstream probe diverged at step {step}: its loss is not finite (lr={lr:g})"
            )
        head = DownstreamHead(
            sgd_step(head.layer_weights, g_lw, lr),
            sgd_step(head.probe_weight, g_pw, lr),
            sgd_step(head.probe_bias, g_pb, lr),
        )
        losses.append(loss)
    return head, losses


class _ProbeStep:
    """A batch's mean probe loss and gradients over the normalized cache, in reused buffers.

    labels are (N, frames) frame labels, or (N,) sequence labels; sample i's
    prefix is cache[:exits[i], i]. A call groups its batch by exit depth k.
    Per depth, one einsum over the gathered float32 prefixes gives the
    group's features. The logits, the loss and its gradients are stacked
    over the batch (a stacked matmul is one product per sample), and the
    loss, probe and layer-weight terms are summed in batch order. So every
    number is that of a loop over the batch's samples: each sample meets
    the kernels such a loop calls, on the same operands. The layer-weight
    einsum stays per sample, over the prefix cast to float64: numpy's einsum
    splits a reduction longer than its 8192-element buffer differently once
    samples share the call.
    """

    def __init__(self, cache, exits, labels, num_labels, batch_size, renormalize):
        num_layers, _, frames, dim = cache.shape
        self.cache, self.exits, self.labels, self.renormalize = cache, exits, labels, renormalize
        self.sequence = labels.ndim == 1
        rows = 1 if self.sequence else frames  # the rows a sample's loss averages
        # Each depth's gathered prefixes, back to back: at most every layer of every sample.
        self.gathered = np.empty(num_layers * batch_size * frames * dim, dtype=DTYPE)
        self.prefix64 = np.empty((num_layers, frames, dim))
        self.feats = np.empty((batch_size, frames, dim))
        self.d_feats = np.empty((batch_size, frames, dim))
        self.pooled = np.empty((batch_size, dim))
        self.d_pooled = np.empty((batch_size, 1, dim))
        self.batch_labels = np.empty((batch_size, *labels.shape[1:]), dtype=labels.dtype)
        self.logits = np.empty((batch_size, rows, num_labels))
        self.row_starts = np.arange(0, self.logits.size, num_labels).reshape(batch_size, rows)
        self.picks = np.empty_like(self.row_starts)
        self.picked, self.loss = np.empty((batch_size, rows)), np.empty(batch_size)
        self.rowmax, self.rowsum = np.empty((2, batch_size, rows, 1))
        self.d_pw = np.empty((batch_size, num_labels, dim))
        # The sequence task's bias gradient is its one logit row's.
        self.d_pb = self.logits[:, 0] if self.sequence else np.empty((batch_size, num_labels))
        self.per_layer = np.empty((batch_size, num_layers))
        self.dots = np.empty((batch_size, 1))
        self.lw_terms = np.empty((batch_size, num_layers))

    def __call__(self, head: DownstreamHead, batch: np.ndarray):
        """The batch's mean loss, and its mean layer-weight, probe-weight and bias gradients.

        batch holds batch_size sample indices, repeats allowed.
        """
        num_layers, _, frames, dim = self.cache.shape
        batch_size = len(batch)
        feats, d_feats, logits, d_pb = self.feats, self.d_feats, self.logits, self.d_pb
        per_layer, dots, lw_terms = self.per_layer, self.dots, self.lw_terms
        depths = self.exits[batch]
        order = np.argsort(depths, kind="stable")  # by depth; batch order within a depth
        grouped = batch[order]
        ends = np.cumsum(np.bincount(depths, minlength=num_layers + 1)).tolist()
        every = softmax(head.layer_weights)
        w64, b64 = head.probe_weight.astype(np.float64), head.probe_bias.astype(np.float64)
        groups = []
        offset = 0
        for k, lo, hi in zip(range(1, num_layers + 1), ends, ends[1:]):
            if lo == hi:
                continue
            prefixes = self.gathered[offset : offset + k * (hi - lo) * frames * dim]
            prefixes = prefixes.reshape(k, hi - lo, frames, dim)
            offset += prefixes.size
            np.take(self.cache[:k], grouped[lo:hi], axis=1, out=prefixes, mode="clip")
            # Depth k's softmax over the layer weights; its first k entries weight the prefix.
            weights = softmax(head.layer_weights[:k]) if self.renormalize else every
            np.einsum("k,kgtd->gtd", weights[:k], prefixes, out=feats[lo:hi])
            groups.append((k, lo, hi, prefixes, weights))
        np.take(self.labels, grouped, axis=0, out=self.batch_labels, mode="clip")
        np.add(self.row_starts, self.batch_labels.reshape(self.row_starts.shape), out=self.picks)
        if self.sequence:  # one matrix-vector product per sample, over its pooled frames
            feats.mean(axis=1, out=self.pooled)
            np.matmul(w64, self.pooled[:, :, None], out=logits.reshape(batch_size, -1, 1))
        else:
            np.matmul(feats, w64.T, out=logits)
        logits += b64
        cross_entropy64(
            logits, self.picks, self.picked, self.rowmax, self.rowsum, out=logits, loss=self.loss
        )
        if self.sequence:
            np.multiply(d_pb[:, :, None], self.pooled[:, None, :], out=self.d_pw)
            np.matmul(logits, w64, out=self.d_pooled)
            self.d_pooled /= frames
            np.copyto(d_feats, self.d_pooled)  # every frame's share of the pooled gradient
        else:
            np.matmul(logits.transpose(0, 2, 1), feats, out=self.d_pw)
            logits.sum(axis=1, out=d_pb)
            np.matmul(logits, w64, out=d_feats)
        for k, lo, hi, prefixes, weights in groups:
            for j in range(lo, hi):
                np.copyto(self.prefix64[:k], prefixes[:, j - lo])
                np.einsum("ktd,td->k", self.prefix64[:k], d_feats[j], out=per_layer[j, :k])
            # Depth k's softmax covers layers 1..k, or all of them unrenormalized.
            span = k if self.renormalize else num_layers
            per_layer[lo:hi, k:] = 0.0
            np.matmul(weights, per_layer[lo:hi, :span, None], out=dots[lo:hi])
            np.subtract(per_layer[lo:hi, :span], dots[lo:hi], out=lw_terms[lo:hi, :span])
            lw_terms[lo:hi, :span] *= weights
            lw_terms[lo:hi, span:] = 0.0
        loss = 0.0
        g_lw = np.zeros(num_layers)
        g_pw = np.zeros(self.d_pw.shape[1:])
        g_pb = np.zeros(d_pb.shape[1:])
        by_row = self.loss.tolist()
        for j in np.argsort(order).tolist():  # each sample's row, in batch order
            loss += by_row[j]
            g_pw += self.d_pw[j]
            g_pb += d_pb[j]
            g_lw += lw_terms[j]
        return loss / batch_size, g_lw / batch_size, g_pw / batch_size, g_pb / batch_size


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
    exits equal those of `run_exit`. The layers are normalized once at
    depth L, and the features for exit depth k weight their first k layers:
    one einsum per depth over a chunk, bit-identical to the features of a
    pass truncated at k, then scored with `evaluate`'s arithmetic. Samples
    are forwarded in batched chunks on every usable CPU
    (`encoder.map_chunks`); each chunk's projection, blocks and entropies
    are timed, and the times summed over chunks that may have run at once.
    Chunks stream into (N, L) arrays; no hidden states outlive their chunk.
    The entropy table is kept on the encoder (`Encoder.kept`), where
    `branches.entropy_table` of the same inputs and branches reads it.
    """
    _check_dataset(data, task)
    n = data.num_sequences
    num_layers = enc.config.num_layers
    entropies = np.empty((n, num_layers), dtype=np.float64)
    correct = np.empty((n, num_layers), dtype=np.int64)
    scored = np.full(n, 1 if task == "sequence" else data.labels.shape[1], dtype=np.int64)
    weights = [prefix_weights(head, k, renormalize) for k in range(1, num_layers + 1)]
    w64, b64 = head.probe_weight.astype(np.float64), head.probe_bias.astype(np.float64)
    if task == "sequence":
        targets = np.array([_sequence_label(y, data.num_classes) for y in data.labels])

    def chunk_facts(chunk):
        t0 = time.perf_counter()
        stream = embed_batch(enc, data.inputs[chunk])
        t1 = time.perf_counter()
        states = run_blocks(enc, stream, np.empty((num_layers, *stream.shape), dtype=DTYPE))
        t2 = time.perf_counter()
        entropies[chunk] = batch_entropies(branches, states)
        t3 = time.perf_counter()
        normed = layer_norm(states)
        for k, w in enumerate(weights, start=1):
            logits = np.einsum("k,kbtd->btd", w, normed[:k]) @ w64.T
            logits += b64
            if task == "sequence":
                correct[chunk, k - 1] = logits.mean(axis=1).argmax(axis=1) == targets[chunk]
            else:
                hits = logits.argmax(axis=2) == data.labels[chunk]
                correct[chunk, k - 1] = hits.sum(axis=1)
        return t1 - t0, t2 - t1, t3 - t2

    embed_seconds, block_seconds, branch_seconds = map(sum, zip(*map_chunks(chunk_facts, n)))
    return LayerTable(
        entropies=enc.kept.keep_table(data.inputs, branches, entropies),
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
