"""Per-layer linear exit branches, their training loss, and entropy profiles.

Each encoder layer gets one linear classifier trained to predict the
teacher's pseudo-labels from that layer's hidden states. The branches are
trained together by `numeric.train_linear_heads`, one head per layer, the
trainer whose one-head case is the teacher. The sequence-level
entropy of branch k is the mean per-frame Shannon entropy of its softmax
posterior; dataset-level per-layer means feed threshold calibration.

`entropy_from_hidden` is the per-sample entropy kernel behind serving;
`batch_entropies` takes a batch's (layers, B, frames, d) states to (B,
layers) entropies with the same bits per sample. Both take the logits
from the branches' float64 arrays (`BranchSet.f64`, cast once and kept)
and run them through numeric's unvalidated cores, `softmax64` and
`entropy64`. Finite hidden states give finite logits, so the checked
`softmax`'s finiteness scan is skipped; a non-finite hidden state makes a
non-finite entropy, which fails by layer. Every whole-dataset pass uses
`batch_entropies`: `entropy_table` returns a dataset's (N, layers)
entropies in batched chunks, on every usable CPU (`encoder.map_chunks`).
It reads through the encoder's kept arrays (`Encoder.kept`): the table it
keeps for those inputs and branches, else one computed off the encoder's
kept hidden-state cache of the inputs, else batched forwards; a computed
table is kept. A profile is the column running mean of
per-sample entropy rows (`EntropyProfile.from_rows`): `train_branches`
profiles the training split from the cache it trained on, and
`entropy_profile` is the profile of an `entropy_table`, so after training
it forwards nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import FrameDataset
from .encoder import FORWARD_CHUNK, Encoder, forward_batch, hidden_state_cache, map_chunks
from .numeric import (
    DTYPE,
    entropy64,
    running_mean,
    running_means,
    softmax64,
    train_linear_heads,
)
from .teacher import TeacherHead, pseudo_labels

__all__ = [
    "BranchSet",
    "BranchTrainResult",
    "EntropyProfile",
    "init_branches",
    "train_branches",
    "branch_logits",
    "branch_entropy",
    "batch_entropies",
    "entropy_table",
    "entropy_profile",
]


@dataclass(frozen=True)
class BranchSet:
    weights: np.ndarray  # (num_layers, num_classes, model_dim) float32
    biases: np.ndarray  # (num_layers, num_classes) float32

    def __post_init__(self):
        if self.weights.ndim != 3 or self.biases.shape != self.weights.shape[:2]:
            raise ValueError(
                f"inconsistent branch shapes: weights {self.weights.shape}, "
                f"biases {self.biases.shape}"
            )

    @property
    def num_layers(self) -> int:
        return self.weights.shape[0]

    @property
    def num_classes(self) -> int:
        return self.weights.shape[1]

    @property
    def model_dim(self) -> int:
        return self.weights.shape[2]

    @cached_property
    def f64(self) -> tuple[np.ndarray, np.ndarray]:
        """The weights and biases cast to float64 on first use and kept: the logits' operands.

        Derived data, not a field: the checkpoint sees the float32 arrays only.
        """
        return self.weights.astype(np.float64), self.biases.astype(np.float64)


@dataclass(frozen=True)
class BranchTrainResult:
    branches: BranchSet
    loss_rows: list[tuple[int, int, float]]  # (step, layer, mean batch loss)
    profile: EntropyProfile  # the training split's per-layer mean entropy under the branches


@dataclass(frozen=True)
class EntropyProfile:
    """Per-layer mean branch entropy over a dataset."""

    layer_means: tuple[float, ...]

    def __post_init__(self):
        if not self.layer_means:
            raise ValueError("profile needs at least one layer")

    @classmethod
    def from_layer_means(cls, means) -> "EntropyProfile":
        return cls(tuple(float(m) for m in means))

    @classmethod
    def from_rows(cls, rows) -> "EntropyProfile":
        """Column running mean of per-sample entropy rows (N, L), taken in row order."""
        rows = np.asarray(rows, dtype=np.float64)
        if not len(rows):
            raise ValueError("empty dataset")
        return cls.from_layer_means(running_means(rows.T))

    @property
    def num_layers(self) -> int:
        return len(self.layer_means)

    @property
    def max_mean(self) -> float:
        return max(self.layer_means)

    @property
    def min_mean(self) -> float:
        return min(self.layer_means)


def init_branches(num_layers: int, num_classes: int, model_dim: int) -> BranchSet:
    """Zero-initialized branches: posteriors start exactly uniform (entropy ln C)."""
    return BranchSet(
        weights=np.zeros((num_layers, num_classes, model_dim), dtype=DTYPE),
        biases=np.zeros((num_layers, num_classes), dtype=DTYPE),
    )


def train_branches(
    enc: Encoder,
    head: TeacherHead,
    data: FrameDataset,
    lr: float,
    batch_size: int,
    steps: int,
    seed: int,
) -> BranchTrainResult:
    """Train all branches jointly against pseudo-labels, one shared batch per step.

    Per layer the loss is the frame-averaged cross-entropy between the
    branch posterior and the teacher's argmax at the deepest layer,
    averaged over the batch. The branches train on `data`'s
    `encoder.hidden_state_cache`, the encoder's kept one when the teacher
    built it. The pseudo-labels are taken FORWARD_CHUNK sequences at a time,
    in the caller's thread, so no float64 copy of the whole last layer is
    made. The result's profile is that of `entropy_table`, read off the
    cache and kept on the encoder, so `entropy_profile` of the trained
    branches over `data` forwards nothing.
    """
    if data.num_sequences == 0:
        raise ValueError("empty dataset")
    num_layers = enc.config.num_layers
    branches = init_branches(num_layers, head.num_classes, enc.config.model_dim)
    cache = hidden_state_cache(enc, data.inputs)
    targets = np.empty(cache.shape[1:3], dtype=np.int32)
    for lo in range(0, data.num_sequences, FORWARD_CHUNK):
        chunk = slice(lo, lo + FORWARD_CHUNK)
        targets[chunk] = pseudo_labels(head, cache[-1, chunk])
    weights, biases, losses = train_linear_heads(
        cache, targets, branches.weights, branches.biases, lr, steps, batch_size, seed
    )
    loss_rows = [
        (step, k + 1, float(loss)) for step, row in enumerate(losses) for k, loss in enumerate(row)
    ]
    trained = BranchSet(weights=weights, biases=biases)
    return BranchTrainResult(
        branches=trained,
        loss_rows=loss_rows,
        profile=EntropyProfile.from_rows(entropy_table(enc, trained, data.inputs)),
    )


def branch_logits(branches: BranchSet, hidden: np.ndarray, layer: int) -> np.ndarray:
    """Float64 logits of branch `layer` (1-based) over (..., frames, model_dim) hidden states."""
    if not 1 <= layer <= branches.num_layers:
        raise ValueError(f"layer {layer} out of range 1..{branches.num_layers}")
    weights, biases = branches.f64
    logits = hidden.astype(np.float64) @ weights[layer - 1].T
    logits += biases[layer - 1]
    return logits


def _frame_entropies(branches: BranchSet, hidden: np.ndarray, layer: int) -> np.ndarray:
    """Per-frame posterior entropies of branch `layer`, through the unvalidated cores.

    A non-finite hidden state makes its frame's logits, and so its entropy,
    NaN; callers check the frame means they take, not the logits.
    """
    logits = branch_logits(branches, hidden, layer)
    return entropy64(softmax64(logits, out=logits))


def _not_finite(layer: int) -> ValueError:
    return ValueError(
        f"layer {layer} branch entropy is not finite: its hidden states hold inf or NaN"
    )


def entropy_from_hidden(branches: BranchSet, hidden: np.ndarray, layer: int) -> float:
    """Mean per-frame posterior entropy of one branch over one sample, in nats.

    softmax rows are normalized and nonnegative by construction, and finite
    hidden states give finite logits, so the softmax and entropy skip
    `numeric`'s checks; a non-finite result fails by layer instead.
    """
    h = running_mean(_frame_entropies(branches, hidden, layer))
    if not math.isfinite(h):
        raise _not_finite(layer)
    return h


def branch_entropy(branches: BranchSet, states: np.ndarray, layer: int) -> float:
    """Sequence-level entropy of branch `layer` over a sample's computed layers."""
    if not 1 <= layer <= len(states):
        raise ValueError(f"layer {layer} not computed (have 1..{len(states)})")
    return entropy_from_hidden(branches, states[layer - 1], layer)


def batch_entropies(branches: BranchSet, states: np.ndarray) -> np.ndarray:
    """Entropies of every layer of a batch: (layers, B, frames, d) states -> (B, layers).

    Entry (b, k-1) equals `branch_entropy(branches, states[:, b], k)` bit for
    bit: each layer's logits loop over the batch with one (frames, d) product
    each, and the frame mean is `running_mean`'s recurrence, run down the
    batch at once.
    One layer's logits are held at a time.
    """
    out = np.empty(states.shape[1::-1], dtype=np.float64)
    for k, hidden in enumerate(states, start=1):
        out[:, k - 1] = running_means(_frame_entropies(branches, hidden, k))
        if not np.isfinite(out[:, k - 1]).all():
            raise _not_finite(k)
    return out


def entropy_table(enc: Encoder, branches: BranchSet, inputs: np.ndarray) -> np.ndarray:
    """Every layer's branch entropy for every sequence, (N, num_layers) float64, read-only.

    The encoder's kept table for `inputs` and `branches` when it has one;
    otherwise computed in chunks on every usable CPU (`encoder.map_chunks`),
    off the encoder's kept hidden-state cache when it is `inputs`' one and
    from batched forwards when not, and kept.
    """
    if not len(inputs):
        raise ValueError("empty dataset")

    def compute(cache: np.ndarray | None) -> np.ndarray:
        def states(chunk):
            return forward_batch(enc, inputs[chunk]) if cache is None else cache[:, chunk]

        return np.concatenate(
            map_chunks(lambda chunk: batch_entropies(branches, states(chunk)), len(inputs))
        )

    return enc.kept.table(inputs, branches, compute)


def entropy_profile(enc: Encoder, branches: BranchSet, data: FrameDataset) -> EntropyProfile:
    """Per-layer mean of branch entropies over all samples in a dataset."""
    return EntropyProfile.from_rows(entropy_table(enc, branches, data.inputs))
