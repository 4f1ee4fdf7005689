"""Per-layer linear exit branches, their training loss, and entropy profiles.

Each encoder layer gets one linear classifier trained to predict the
teacher's pseudo-labels from that layer's hidden states. The branches are
trained together by `numeric.train_linear_heads`, one head per layer, the
trainer whose one-head case is the teacher. The sequence-level
entropy of branch k is the mean per-frame Shannon entropy of its softmax
posterior; dataset-level per-layer means feed threshold calibration.

A profile is the column running mean of per-sample entropy rows
(`EntropyProfile.from_rows`), wherever those rows already exist: training
profiles the training split from the hidden-state cache it trained on, and
`entropy_profile` forwards a dataset for the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FrameDataset
from .encoder import Encoder, forward_all, hidden_state_cache
from .numeric import DTYPE, entropy64, matmul64, running_mean, softmax, train_linear_heads
from .teacher import TeacherHead, pseudo_labels

__all__ = [
    "BranchSet",
    "BranchTrainResult",
    "EntropyProfile",
    "init_branches",
    "train_branches",
    "branch_logits",
    "branch_entropy",
    "sample_entropies",
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


@dataclass(frozen=True)
class BranchTrainResult:
    branches: BranchSet
    loss_rows: list[tuple[int, int, float]]  # (step, layer, mean batch loss)
    profile: EntropyProfile  # the training split under the trained branches


@dataclass(frozen=True)
class EntropyProfile:
    """Per-layer mean branch entropy over a dataset, with its extremes."""

    layer_means: tuple[float, ...]
    max_mean: float
    min_mean: float
    num_samples: int

    def __post_init__(self):
        if not self.layer_means:
            raise ValueError("profile needs at least one layer")
        if self.max_mean != max(self.layer_means) or self.min_mean != min(self.layer_means):
            raise ValueError("max_mean/min_mean inconsistent with layer_means")

    @classmethod
    def from_layer_means(cls, means, num_samples: int) -> "EntropyProfile":
        means = tuple(float(m) for m in means)
        return cls(  # __post_init__ refuses an empty profile by name
            layer_means=means,
            max_mean=max(means, default=0.0),
            min_mean=min(means, default=0.0),
            num_samples=num_samples,
        )

    @classmethod
    def from_rows(cls, rows) -> "EntropyProfile":
        """Column running mean of per-sample entropy rows (N, L), taken in row order."""
        means = num_samples = 0
        for num_samples, row in enumerate(rows, start=1):
            means = means + (row - means) / num_samples
        if not num_samples:
            raise ValueError("empty dataset")
        return cls.from_layer_means(means, num_samples)

    @property
    def num_layers(self) -> int:
        return len(self.layer_means)


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
    averaged over the batch. The result's profile is read from the cached
    layers, bit-identical to `entropy_profile` over `data`.
    """
    if data.num_sequences == 0:
        raise ValueError("empty dataset")
    num_layers = enc.config.num_layers
    branches = init_branches(num_layers, head.num_classes, enc.config.model_dim)
    cache = hidden_state_cache(enc, data.inputs, range(1, num_layers + 1))
    targets = pseudo_labels(head, cache[-1])
    weights, biases, losses = train_linear_heads(
        cache, targets, branches.weights, branches.biases, lr, steps, batch_size, seed
    )
    loss_rows = [
        (step, k + 1, float(loss)) for step, row in enumerate(losses) for k, loss in enumerate(row)
    ]
    trained = BranchSet(weights=weights, biases=biases)
    profile = EntropyProfile.from_rows(
        sample_entropies(trained, cache[:, i]) for i in range(data.num_sequences)
    )
    return BranchTrainResult(branches=trained, loss_rows=loss_rows, profile=profile)


def branch_logits(branches: BranchSet, hidden: np.ndarray, layer: int) -> np.ndarray:
    """Logits of branch `layer` (1-based) over a (frames, model_dim) hidden matrix."""
    if not 1 <= layer <= branches.num_layers:
        raise ValueError(f"layer {layer} out of range 1..{branches.num_layers}")
    w = branches.weights[layer - 1]
    b = branches.biases[layer - 1]
    return matmul64(hidden, w.T) + b.astype(np.float64)


def entropy_from_hidden(branches: BranchSet, hidden: np.ndarray, layer: int) -> float:
    """Mean per-frame posterior entropy of one branch over one sample, in nats.

    softmax rows are normalized and nonnegative by construction, so their
    entropy skips `numeric.entropy`'s checks; softmax still rejects
    non-finite logits.
    """
    probs = softmax(branch_logits(branches, hidden, layer))
    return running_mean(entropy64(probs))


def branch_entropy(branches: BranchSet, states: np.ndarray, layer: int) -> float:
    """Sequence-level entropy of branch `layer` over a sample's computed layers."""
    if not 1 <= layer <= len(states):
        raise ValueError(f"layer {layer} not computed (have 1..{len(states)})")
    return entropy_from_hidden(branches, states[layer - 1], layer)


def sample_entropies(branches: BranchSet, states: np.ndarray) -> np.ndarray:
    """Entropies of every computed layer for one sample, shape (len(states),)."""
    return np.array(
        [branch_entropy(branches, states, k) for k in range(1, len(states) + 1)],
        dtype=np.float64,
    )


def entropy_profile(enc: Encoder, branches: BranchSet, data: FrameDataset) -> EntropyProfile:
    """Per-layer mean of branch entropies over all samples in a dataset."""
    return EntropyProfile.from_rows(
        sample_entropies(branches, forward_all(enc, x)) for x in data.inputs
    )
