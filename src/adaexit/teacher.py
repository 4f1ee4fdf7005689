"""Final-layer teacher classifier and argmax pseudo-labels.

The teacher is a linear head trained on ground-truth frame labels over the
deepest hidden layer of the frozen encoder. Its argmax predictions become
the pseudo-labels that the per-layer exit branches are trained against, so
the branches never see ground truth directly. It trains as the one-head
call of `numeric.train_linear_heads`, the branches' trainer. Pseudo-labels
take final-layer states of any leading shape: one sample or a whole cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FrameDataset
from .encoder import Encoder, hidden_state_cache
from .numeric import DTYPE, matmul64, new_rng, train_linear_heads

__all__ = [
    "TeacherHead",
    "TeacherTrainResult",
    "init_teacher_head",
    "train_teacher",
    "pseudo_labels",
]


@dataclass(frozen=True)
class TeacherHead:
    weight: np.ndarray  # (num_classes, model_dim) float32
    bias: np.ndarray  # (num_classes,) float32

    @property
    def num_classes(self) -> int:
        return self.weight.shape[0]

    @property
    def model_dim(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class TeacherTrainResult:
    head: TeacherHead
    losses: list[float]  # mean batch cross-entropy per step


def init_teacher_head(num_classes: int, model_dim: int, seed: int) -> TeacherHead:
    if num_classes < 2:
        raise ValueError(f"num_classes must be at least 2, got {num_classes}")
    rng = new_rng(seed)
    std = np.sqrt(2.0 / (num_classes + model_dim))
    weight = (rng.standard_normal((num_classes, model_dim)) * std).astype(DTYPE)
    return TeacherHead(weight=weight, bias=np.zeros(num_classes, dtype=DTYPE))


def train_teacher(
    enc: Encoder,
    data: FrameDataset,
    lr: float,
    steps: int,
    seed: int,
    batch_size: int = 32,
) -> TeacherTrainResult:
    """Minibatch gradient descent on frame-level cross-entropy at the deepest layer.

    The teacher reads the last layer of `data`'s `encoder.hidden_state_cache`,
    which stays kept on the encoder for the branches and the downstream head.
    """
    if data.num_sequences == 0:
        raise ValueError("empty dataset")
    if int(data.labels.max()) >= data.num_classes:
        raise ValueError("labels exceed num_classes")
    head = init_teacher_head(data.num_classes, enc.config.model_dim, seed)
    cache = hidden_state_cache(enc, data.inputs)
    weights, biases, losses = train_linear_heads(
        cache[-1:], data.labels, head.weight[None], head.bias[None], lr, steps, batch_size, seed
    )
    return TeacherTrainResult(
        head=TeacherHead(weight=weights[0], bias=biases[0]), losses=losses[:, 0].tolist()
    )


def teacher_logits(head: TeacherHead, hidden: np.ndarray) -> np.ndarray:
    """Float64 logits (..., frames, num_classes) of (..., frames, model_dim) hidden states."""
    return matmul64(hidden, head.weight.T) + head.bias.astype(np.float64)


def pseudo_labels(head: TeacherHead, final: np.ndarray) -> np.ndarray:
    """Int32 per-frame argmax (..., frames) of final-layer states; ties take the lowest class."""
    return teacher_logits(head, final).argmax(axis=-1).astype(np.int32)
